"""Node-degree placement — the paper's algorithm 2.

"Replicas are assigned to nodes with the highest degree (number of
coauthors)." On graphs containing a large-collaboration cluster (the
86-author paper), the top-degree nodes all sit inside that cluster, which
is why the paper observes the hit rate flatlining beyond two replicas —
the ablation bench ``bench_flatline`` reproduces exactly this effect.
"""

from __future__ import annotations

from typing import List

from ...ids import AuthorId
from ...rng import SeedLike, make_rng
from ...social.graph import CoauthorshipGraph
from ...social.metrics import degree_array
from .base import PlacementAlgorithm, register_placement, top_by_score


class NodeDegreePlacement(PlacementAlgorithm):
    """Top-``n`` nodes by coauthor count, ties broken randomly per run."""

    name = "node-degree"

    def select(
        self,
        graph: CoauthorshipGraph,
        n_replicas: int,
        *,
        rng: SeedLike = None,
    ) -> List[AuthorId]:
        self._validate(graph, n_replicas)
        gen = make_rng(rng)
        nodes, degrees = degree_array(graph)
        return [nodes[i] for i in top_by_score(degrees, n_replicas, gen).tolist()]


register_placement("node-degree", NodeDegreePlacement)

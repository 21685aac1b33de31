"""Clustering-coefficient placement — the paper's algorithm 4.

"Replicas are assigned to nodes with the highest clustering coefficient."
The paper finds this a *bad* placement signal — top-coefficient nodes are
typically members of small tight cliques with few coauthors — while noting
the coefficient remains useful for identifying trusted subgroups (which is
how :mod:`repro.cdn.partitioning` uses it).
"""

from __future__ import annotations

from typing import List

from ...ids import AuthorId
from ...rng import SeedLike, make_rng
from ...social.graph import CoauthorshipGraph
from ...social.metrics import graph_arrays
from .base import PlacementAlgorithm, register_placement, top_by_score


class ClusteringCoefficientPlacement(PlacementAlgorithm):
    """Top-``n`` nodes by local clustering coefficient, random tie-breaks."""

    name = "clustering-coefficient"

    def select(
        self,
        graph: CoauthorshipGraph,
        n_replicas: int,
        *,
        rng: SeedLike = None,
    ) -> List[AuthorId]:
        self._validate(graph, n_replicas)
        gen = make_rng(rng)
        arrays = graph_arrays(graph)
        top = top_by_score(arrays.clustering(), n_replicas, gen)
        return [arrays.nodes[i] for i in top.tolist()]


register_placement("clustering-coefficient", ClusteringCoefficientPlacement)

"""Community node-degree placement — the paper's algorithm 3 and its winner.

"Replicas are assigned to a node within a community (direct neighbors)
with the highest degree. That is, replicas are not placed as direct
neighbors to one another." Interpreted as greedy exclusion: repeatedly
pick the highest-degree still-eligible node, then make its ``radius``-hop
neighborhood ineligible. With ``radius=1`` (the paper's setting) no two
replicas are adjacent, which spreads them across communities — the paper
credits exactly this spreading for the algorithm's win.

``radius`` generalizes the exclusion zone and is swept by the
``ablation-placement`` bench.
"""

from __future__ import annotations

from typing import List, Set

from ...errors import ConfigurationError
from ...ids import AuthorId
from ...rng import SeedLike, make_rng
from ...social.graph import CoauthorshipGraph
from ...social.metrics import degree_array
from .base import PlacementAlgorithm, register_placement, top_by_score


class CommunityNodeDegreePlacement(PlacementAlgorithm):
    """Greedy highest-degree selection with a ``radius``-hop exclusion zone.

    If every remaining node is excluded before the budget is spent, the
    exclusion constraint is relaxed for the remaining picks (falling back
    to plain degree ranking among unpicked nodes) so the requested replica
    count is still honored — matching the paper's experiments, which always
    place the full budget.
    """

    name = "community-node-degree"

    def __init__(self, radius: int = 1) -> None:
        if radius < 1:
            raise ConfigurationError(f"radius must be >= 1, got {radius}")
        self.radius = radius

    def _exclusion_zone(self, graph: CoauthorshipGraph, node: AuthorId) -> Set[AuthorId]:
        zone: Set[AuthorId] = {node}
        frontier = {node}
        for _ in range(self.radius):
            nxt: Set[AuthorId] = set()
            for n in frontier:
                nxt.update(graph.nx.neighbors(n))
            nxt -= zone
            zone |= nxt
            frontier = nxt
        return zone

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
        ranked = [nodes[i] for i in top_by_score(degrees, len(nodes), gen).tolist()]

        chosen: List[AuthorId] = []
        excluded: Set[AuthorId] = set()
        for node in ranked:
            if len(chosen) >= n_replicas:
                break
            if node in excluded:
                continue
            chosen.append(node)
            excluded |= self._exclusion_zone(graph, node)
        if len(chosen) < n_replicas:
            # constraint exhausted the graph: relax it for the remainder
            taken = set(chosen)
            for node in ranked:
                if len(chosen) >= n_replicas:
                    break
                if node not in taken:
                    chosen.append(node)
                    taken.add(node)
        return chosen[: min(n_replicas, graph.n_nodes)]


register_placement("community-node-degree", CommunityNodeDegreePlacement)

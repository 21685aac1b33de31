"""Reference hit-rate evaluator: the dense-adjacency implementation.

This is the evaluator as it stood before scoring moved to the graph's CSR
adjacency and a per-replica-set memo: an n x n boolean adjacency matrix,
a coverage mask grown ``max_hops`` times by ``any`` over frontier rows,
and a ring BFS for mean hops. Kept only as the differential witness for
:class:`repro.casestudy.hitrate.HitRateEvaluator`; never used by the
library.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.casestudy.hitrate import HitRateResult
from repro.errors import PlacementError
from repro.ids import AuthorId
from repro.social.graph import CoauthorshipGraph
from repro.social.records import Corpus


class DenseHitRateEvaluator:
    """Same contract as ``HitRateEvaluator``, over a dense bool matrix."""

    def __init__(self, graph: CoauthorshipGraph, test: Corpus, *, max_hops: int = 1) -> None:
        self.graph = graph
        self.max_hops = max_hops
        self._index = graph.node_index()
        n = graph.n_nodes
        members = set(self._index)
        unit_counts = np.zeros(n, dtype=np.int64)
        out_units = 0
        for pub in test:
            if not (pub.authors & members):
                continue
            for author in pub.authors:
                idx = self._index.get(author)
                if idx is None:
                    out_units += 1
                else:
                    unit_counts[idx] += 1
        self._unit_counts = unit_counts
        self._out_units = out_units
        self._adj = graph.adjacency_matrix() if n else np.zeros((0, 0), bool)

    def coverage_mask(self, replicas: Sequence[AuthorId]) -> np.ndarray:
        n = self.graph.n_nodes
        mask = np.zeros(n, dtype=bool)
        idx = [self._index[r] for r in replicas if r in self._index]
        unknown = [r for r in replicas if r not in self._index]
        if unknown:
            raise PlacementError(f"replicas outside the subgraph: {unknown[:5]}")
        mask[idx] = True
        frontier = mask.copy()
        for _ in range(self.max_hops):
            if not frontier.any():
                break
            reached = self._adj[frontier].any(axis=0)
            frontier = reached & ~mask
            mask |= reached
        return mask

    def evaluate(self, replicas: Sequence[AuthorId]) -> HitRateResult:
        if not replicas:
            raise PlacementError("cannot evaluate an empty placement")
        mask = self.coverage_mask(replicas)
        hits = int(self._unit_counts[mask].sum())
        in_units = int(self._unit_counts.sum())
        n = self.graph.n_nodes
        dist = np.full(n, -1, dtype=np.int64)
        ring = np.zeros(n, dtype=bool)
        ring[[self._index[r] for r in replicas]] = True
        dist[ring] = 0
        d = 0
        seen = ring.copy()
        while ring.any():
            nxt = self._adj[ring].any(axis=0) & ~seen
            d += 1
            dist[nxt] = d
            seen |= nxt
            ring = nxt
        reachable = (dist >= 0) & (self._unit_counts > 0)
        if reachable.any():
            weights = self._unit_counts[reachable].astype(np.float64)
            mean_hops = float((dist[reachable] * weights).sum() / weights.sum())
        else:
            mean_hops = float("inf")
        return HitRateResult(
            hits=hits,
            total_units=in_units + self._out_units,
            in_graph_units=in_units,
            out_graph_units=self._out_units,
            mean_hops=mean_hops,
        )

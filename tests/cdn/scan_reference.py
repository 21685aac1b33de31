"""Naive control-plane scans, kept as differential references.

These are the per-lookup forms the control plane used before its scans
went through the catalog's servable-host index and a per-pass liveness
memo: every redundancy count copies ``replicas_of_segment(...,
servable_only=True)`` and asks ``_is_live`` per replica, eligible targets
are re-filtered from the registered authors per segment, and promotion
scoring looks up a requester's hop map once per (author, requester) pair.
Tests assert the production scans return exactly what these return.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cdn.migration import _UNREACHABLE_HOPS, MigrationKind
from repro.cdn.replication import RedundancyReport
from repro.errors import CatalogError, PlacementError
from repro.rng import spawn


def live_count_reference(server, segment_id) -> int:
    """Servable replicas of a segment on live hosts."""
    return sum(
        1
        for r in server.catalog.replicas_of_segment(segment_id, servable_only=True)
        if server._is_live(r.node_id)
    )


def under_replicated_reference(server) -> List[Tuple[object, int]]:
    """``(segment, live)`` below budget, most-degraded first."""
    out = []
    for ds in server.catalog.datasets():
        budget = server.replica_budget(ds.dataset_id)
        for seg in ds.segments:
            live = live_count_reference(server, seg.segment_id)
            if live < budget:
                out.append((seg.segment_id, live))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


def snapshot_reference(server, *, at: float = 0.0, repaired: int = 0) -> RedundancyReport:
    """A redundancy report from two independent scans, numpy statistics."""
    under = under_replicated_reference(server)
    redundancies = [
        live_count_reference(server, seg.segment_id)
        for ds in server.catalog.datasets()
        for seg in ds.segments
    ]
    arr = np.asarray(redundancies, dtype=np.int64)
    return RedundancyReport(
        time=at,
        n_segments=len(redundancies),
        mean_redundancy=float(arr.mean()) if arr.size else 0.0,
        min_redundancy=int(arr.min()) if arr.size else 0,
        under_replicated=len(under),
        lost=int((arr == 0).sum()) if arr.size else 0,
        repaired=repaired,
    )


def eligible_reference(server, segment_id) -> list:
    """Trusted, live registered authors holding no non-retired replica."""
    holders = {r.node_id for r in server.catalog.replicas_of_segment(segment_id)}
    graph = server.graph
    return [
        a
        for a in server.registered_authors()
        if a in graph
        and server._is_live(server.node_of(a))
        and server.node_of(a) not in holders
    ]


def _promotion_target_reference(planner, rng, segment_id, eligible) -> Optional[object]:
    server = planner.server
    requesters = planner.demand.top_requesters(segment_id, n=5)
    if requesters:
        best = None
        for author in sorted(eligible):
            score = 0.0
            for req, weight in requesters:
                d = server.hops_from(req).get(author)
                score += weight * (d if d is not None else _UNREACHABLE_HOPS)
            load = server.repository(server.node_of(author)).reads_served
            key = (score, load, str(author), author)
            if best is None or key < best:
                best = key
        return best[3] if best is not None else None
    sub = server.graph.subgraph_view(eligible)
    (child,) = spawn(rng, 1)
    try:
        picks = server.placement.select(sub, 1, rng=child)
    except PlacementError:
        return None
    return picks[0] if picks else None


def promotion_plan_reference(planner, rng, *, at: float = 0.0) -> list:
    """The PROMOTE actions of one planning pass with nothing claimed yet,
    as ``(kind, segment, target, source, reason)`` tuples. ``rng`` stands
    in for the planner's own stream and must be seeded identically."""
    server = planner.server
    config = planner.config
    claimed: dict = {}
    taken: set = set()
    out = []

    def has_room(node, size):
        reserved = (
            planner._executor.reserved_bytes(node) if planner._executor is not None else 0
        )
        return server.repository(node).can_host(size + reserved + claimed.get(node, 0))

    for seg_id, rate in planner.demand.hot_segments(config.hot_rate_per_s):
        try:
            segment = server.catalog.segment(seg_id)
        except CatalogError:
            continue
        budget = server.replica_budget(segment.dataset_id)
        if live_count_reference(server, seg_id) >= budget + config.promote_headroom:
            continue
        eligible = [
            a
            for a in eligible_reference(server, seg_id)
            if (seg_id, server.node_of(a)) not in taken
            and has_room(server.node_of(a), segment.size_bytes)
        ]
        if not eligible:
            continue
        author = _promotion_target_reference(planner, rng, seg_id, eligible)
        if author is None:
            continue
        node = server.node_of(author)
        claimed[node] = claimed.get(node, 0) + segment.size_bytes
        taken.add((seg_id, node))
        out.append((MigrationKind.PROMOTE, seg_id, node, None, f"hot-rate:{rate:.2e}"))
    return out

"""Naive peer-registry bookkeeping, kept as a differential reference.

These are the full-recomputation forms :class:`repro.cdn.peers.PeerRegistry`
used before it kept running active counts and a per-segment lease index:
every count walks every lease of every node in ``_leases``, discovery scans
every node for the segment, and an offer's cap check counts the node's
active leases afresh. Tests assert the registry's O(1) bookkeeping returns
exactly what these return.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cdn.peers import PeerRegistry


def active_count_reference(peers: PeerRegistry) -> int:
    """Active leases across all nodes."""
    return sum(
        1
        for per_node in peers._leases.values()
        for lease in per_node.values()
        if lease.active
    )


def active_nodes_reference(peers: PeerRegistry) -> List[object]:
    """Nodes holding at least one active lease, in ``_leases`` order."""
    return [
        node
        for node, per_node in peers._leases.items()
        if any(lease.active for lease in per_node.values())
    ]


def raw_count_reference(peers: PeerRegistry, segment_id) -> int:
    """Leases of a segment recorded in ``_leases``, active or not."""
    return sum(1 for per_node in peers._leases.values() if segment_id in per_node)


def candidates_reference(
    peers: PeerRegistry, segment_id, *, requester_node=None, exclude_nodes=()
) -> list:
    """Discovery's filter applied to every node's lease for the segment."""
    excluded = set(exclude_nodes)
    net = peers.fabric.reachability
    partitioned = net is not None and getattr(net, "partitioned", False)
    out = []
    for node, per_node in peers._leases.items():
        if node == requester_node or node in excluded:
            continue
        lease = per_node.get(segment_id)
        if lease is None or not lease.active:
            continue
        if lease.in_flight >= peers.max_concurrent_serves:
            continue
        if not peers._trusted(node) or not peers._is_live(node):
            continue
        if (
            partitioned
            and requester_node is not None
            and not net.reachable(requester_node, node)
        ):
            continue
        out.append(lease)
    return out


def offer_decision_reference(peers: PeerRegistry, node, segment_id) -> Optional[str]:
    """What ``offer(node, segment)`` must do, judged before the call.

    ``"renew"`` or ``"admit"`` for an accepted offer; ``None`` for a
    rejection (zero capacity, untrusted author, dead node, or the node's
    active leases already at the cap).
    """
    if peers.cache_segments == 0:
        return None
    if not peers._trusted(node) or not peers._is_live(node):
        return None
    per_node = peers._leases.get(node, {})
    existing = per_node.get(segment_id)
    if existing is not None and existing.active:
        return "renew"
    active = sum(1 for lease in per_node.values() if lease.active)
    if active >= peers.cache_segments:
        return None
    return "admit"

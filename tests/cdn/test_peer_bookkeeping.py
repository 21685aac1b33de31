"""Property test: the peer registry's O(1) bookkeeping equals a recount.

:class:`repro.cdn.peers.PeerRegistry` keeps running active-lease counts and
a per-segment lease index instead of walking every lease of every node.
Hypothesis interleavings of offers and renewals, re-offers over draining
husks, pinned serves, TTL expiry, eviction, node leaves, offline/online
flips, liveness-oracle crashes, partitions and trust-graph swaps must leave
``n_active_leases``, both gauges, ``peer_nodes()``, every segment's
``raw_lease_count`` and ``candidates`` listing, and every offer's
accept/reject decision equal to the full recomputations over ``_leases`` in
:mod:`tests.cdn.peer_reference`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.allocation import AllocationServer
from repro.cdn.content import segment_dataset
from repro.cdn.peers import PeerRegistry
from repro.cdn.placement.random_placement import RandomPlacement
from repro.cdn.storage import StorageRepository
from repro.ids import AuthorId, DatasetId, NodeId
from repro.obs import Registry
from repro.sim.engine import SimulationEngine
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus

from ..conftest import pub
from .peer_reference import (
    active_count_reference,
    active_nodes_reference,
    candidates_reference,
    offer_decision_reference,
    raw_count_reference,
)

#: few nodes and segments, so random picks keep landing on the same
#: (node, segment) and reach renewals, husks and cap rejections
AUTHORS = tuple(f"a{i}" for i in range(4))
TTL = 30.0
MAX_SERVES = 2


def _graph(authors):
    pubs = [
        pub(f"p{i}", 2010, a, b)
        for i, (a, b) in enumerate(zip(authors, authors[1:]))
    ]
    return build_coauthorship_graph(Corpus(pubs))


class _Partition:
    """Reachability oracle: while partitioned, even and odd nodes split."""

    def __init__(self) -> None:
        self.partitioned = False

    def reachable(self, a, b) -> bool:
        return not self.partitioned or (int(str(a)[-1]) % 2 == int(str(b)[-1]) % 2)


def _deploy(cap):
    registry = Registry()
    full = _graph(AUTHORS)
    # the trust re-derivation a swap installs drops a1
    pruned = _graph(tuple(a for a in AUTHORS if a != "a1"))
    server = AllocationServer(full, RandomPlacement(), seed=5, registry=registry)
    nodes = []
    for a in AUTHORS:
        node = NodeId(f"n-{a}")
        server.register_repository(AuthorId(a), StorageRepository(node, 10_000))
        nodes.append(node)
    dead = set()
    server.set_liveness_oracle(lambda node: node not in dead)
    net = _Partition()
    server.set_reachability_oracle(net)
    engine = SimulationEngine(registry=registry)
    peers = PeerRegistry(
        server.fabric,
        engine,
        lease_ttl_s=TTL,
        cache_segments=cap,
        max_concurrent_serves=MAX_SERVES,
        registry=registry,
    )
    server.set_peer_registry(peers)
    segments = segment_dataset(
        DatasetId("d"), AuthorId("a0"), 3_000, n_segments=3
    ).segments
    return server, peers, engine, nodes, segments, dead, net, (full, pruned)


def _check(peers, registry, nodes, segments, latest, step):
    assert peers.n_active_leases == active_count_reference(peers)
    gauges = registry.snapshot()["gauges"]
    assert gauges["peer.active_leases"]["value"] == active_count_reference(peers)
    assert gauges["peer.active_nodes"]["value"] == len(active_nodes_reference(peers))
    assert peers.peer_nodes() == active_nodes_reference(peers)
    requester = nodes[step % len(nodes)]
    excluded = [nodes[(step + 1) % len(nodes)]]
    for seg in segments:
        sid = seg.segment_id
        assert peers.raw_lease_count(sid) == raw_count_reference(peers, sid)
        for kwargs in ({}, {"requester_node": requester, "exclude_nodes": excluded}):
            got = peers.candidates(sid, **kwargs)
            want = candidates_reference(peers, sid, **kwargs)
            assert len(got) == len(set(map(id, got)))
            assert {id(l) for l in got} == {id(l) for l in want}
    # an active lease is never orphaned: it is the one the registry stores
    for (node, sid), lease in latest.items():
        if lease.active:
            assert peers.lease_of(node, sid) is lease


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["offer"] * 6 + ["serve", "pin", "pin"] + ["end"] * 3
            + ["advance"] * 3
            + ["drain", "reoffer", "reoffer", "evict", "leave", "offline",
               "online", "crash", "revive", "swap", "partition"]
        ),
        st.integers(min_value=0, max_value=len(AUTHORS) - 1),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=20,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=OPS, cap=st.sampled_from([1, 2]))
def test_bookkeeping_matches_recount(ops, cap):
    """``cap`` 1 makes re-offers over husks hit the per-node cap often;
    ``cap`` 2 keeps nodes holding several active leases."""
    server, peers, engine, nodes, segments, dead, net, graphs = _deploy(cap)
    registry = peers.obs
    latest = {}
    open_serves = []
    swapped = False

    for step, (op, i, j) in enumerate(ops):
        node = nodes[i]
        seg = segments[j % len(segments)]
        if op in ("reoffer", "drain", "pin"):
            # aim at a stored lease: a draining husk to re-offer over, or
            # an active lease to drain or to pin up to its serve cap
            pool = [
                lease
                for per_node in peers._leases.values()
                for lease in per_node.values()
                if lease.active == (op != "reoffer")
            ]
            if pool:
                picked = pool[j % len(pool)]
                node = picked.node_id
                seg = next(s for s in segments if s.segment_id == picked.segment_id)
            op = {"reoffer": "offer", "pin": "serve"}.get(op, op)
        sid = seg.segment_id
        if op == "offer":
            existing = peers.lease_of(node, sid)
            decision = offer_decision_reference(peers, node, sid)
            lease = peers.offer(node, seg)
            if decision is None:
                assert lease is None
            elif decision == "renew":
                assert lease is existing and lease.active
                assert lease.expires_at == engine.now + TTL
            else:
                assert lease is not None and lease is not existing
                assert lease.active and peers.lease_of(node, sid) is lease
            if lease is not None:
                latest[(node, sid)] = lease
        elif op == "serve":
            stored = peers.lease_of(node, sid)
            servable = (
                stored is not None
                and stored.active
                and stored.in_flight < MAX_SERVES
            )
            serve = peers.begin_serve(node, sid)
            assert (serve is not None) == servable
            if serve is not None:
                open_serves.append(serve)
        elif op == "end":
            if open_serves:
                serve = open_serves.pop(j % len(open_serves))
                peers.end_serve(serve, ok=bool(i % 2))
        elif op == "drain":
            # pin the lease and run to its expiry: it drains mid-serve
            serve = peers.begin_serve(node, sid)
            if serve is not None:
                open_serves.append(serve)
                engine.run(until=serve.lease.expires_at)
                assert serve.lease.state == "draining"
                _check(peers, registry, nodes, segments, latest, step)
        elif op == "advance":
            engine.run(until=engine.now + (10.0, 20.0, 40.0)[j % 3])
        elif op == "evict":
            peers.evict(node, sid)
        elif op == "leave":
            peers.leave(node)
        elif op == "offline":
            server.node_offline(node, at=engine.now)
        elif op == "online":
            server.node_online(node, at=engine.now)
        elif op == "crash":
            dead.add(node)
        elif op == "revive":
            dead.discard(node)
        elif op == "swap":
            swapped = not swapped
            server.graph = graphs[1] if swapped else graphs[0]
        elif op == "partition":
            net.partitioned = not net.partitioned
        _check(peers, registry, nodes, segments, latest, step)

    # release every pin and run out every TTL: nothing stays active
    for serve in open_serves:
        peers.end_serve(serve, ok=True)
    engine.run(until=engine.now + 2 * TTL)
    _check(peers, registry, nodes, segments, latest, len(ops))
    assert peers.n_active_leases == 0
    assert all(peers.raw_lease_count(s.segment_id) == 0 for s in segments)

"""Peer-assisted delivery tier tests (repro.cdn.peers).

Topology used throughout: a tiny flash-crowd shape —

    o-1 -- o-2        (origin clique: owns + hosts the replicas)
     |
    relay
     |
    c-1 -- c-2 -- c-3 (crowd clique: tight caches, mutual 1-hop peers)

Crowd members are 3 hops from every replica but 1 hop from each other,
so a crowd peer with a fresh lease outranks the repository tier for a
crowd requester; ties (and every failure) go back to the repository.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.ids import AuthorId, NodeId
from repro.obs import Registry
from repro.scdn import SCDN, SCDNConfig
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus

from ..conftest import pub

SEG_BYTES = 100_000
#: tight member storage: user cache = half = one segment exactly
TIGHT = 2 * SEG_BYTES


def crowd_graph():
    pubs = [
        pub("p1", 2009, "o-1", "o-2"),
        pub("p2", 2010, "o-1", "relay"),
        pub("p3", 2010, "relay", "c-1"),
        pub("p4", 2010, "c-1", "c-2", "c-3"),
        pub("p5", 2011, "c-1", "c-2"),
        pub("p6", 2011, "c-2", "c-3"),
    ]
    return build_coauthorship_graph(Corpus(pubs))


def build_net(seed=3, **overrides):
    """Peer-tier deployment with replicas pinned on the origin clique."""
    defaults = dict(
        n_replicas=2,
        proximity_hops=6,
        transfer_failure_prob=0.0,
        peer_tier=True,
    )
    defaults.update(overrides)
    net = SCDN(
        crowd_graph(),
        config=SCDNConfig(**defaults),
        seed=seed,
        registry=Registry(),
    )
    # origin joins roomy, publishes, then the crowd joins tight: every
    # repository replica lives on o-1/o-2, three hops from the crowd
    for a in ("o-1", "o-2"):
        net.join(AuthorId(a))
    net.publish(AuthorId("o-1"), "ds", 2 * SEG_BYTES, n_segments=2)
    for a in ("relay", "c-1", "c-2", "c-3"):
        net.join(AuthorId(a), capacity_bytes=TIGHT)
    replica_nodes = {
        r.node_id for r in net.server.catalog.iter_replicas()
    }
    assert replica_nodes <= {NodeId("o-1"), NodeId("o-2")}
    return net


def seg_ids(net):
    ds = net.server.catalog.dataset(next(iter(net.server.catalog.datasets())).dataset_id)
    return [s.segment_id for s in ds.segments]


def counter(net, name) -> int:
    entry = net.obs.snapshot()["counters"].get(name)
    return int(entry["value"]) if entry else 0


class TestMintAndServe:
    def test_fetch_mints_lease_then_serves_closer_requester(self):
        net = build_net()
        seg = seg_ids(net)[0]
        out = net.clients[AuthorId("c-3")].access_segment(seg)
        assert out.ok and out.source == "remote"
        assert net.peers.has_active_lease(NodeId("c-3"), seg)
        repo_before = counter(net, "alloc.serves.repository")
        out2 = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out2.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 1
        assert out2.social_hops == 1  # peer next door, replicas 3 hops out
        assert counter(net, "peer.serves") == 1
        # the peer read is never charged to the repository tier
        assert counter(net, "alloc.serves.repository") == repo_before

    def test_tie_goes_to_repository(self):
        net = build_net()
        seg = seg_ids(net)[0]
        # o-2 fetches (1 hop from o-1's replica)... a lease on o-2 is
        # never *strictly* closer for relay (o-2 and the o-1 replica are
        # both reachable; replica distance 1 via o-1) — relay reads from
        # the repository tier
        net.clients[AuthorId("c-3")].access_segment(seg)
        out = net.clients[AuthorId("relay")].access_segment(seg)
        assert out.ok
        assert net.clients[AuthorId("relay")].stats.peer_fetches == 0


class TestAdmissionGates:
    def test_zero_capacity_peers_never_admitted(self):
        net = build_net(peer_cache_segments=0)
        seg = seg_ids(net)[0]
        out = net.clients[AuthorId("c-3")].access_segment(seg)
        assert out.ok
        assert net.peers.n_active_leases == 0
        assert counter(net, "peer.rejected.capacity") == 1
        out2 = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out2.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 0

    def test_untrusted_requester_fetch_mints_no_peer(self):
        net = build_net()
        seg = seg_ids(net)[0]
        # c-3 falls out of the trusted graph after joining (e.g. a trust
        # re-derivation dropped the author); its fetch may still be
        # policy-permitted, but it never becomes a serving peer
        pruned = build_coauthorship_graph(
            Corpus(
                [
                    pub("p1", 2009, "o-1", "o-2"),
                    pub("p2", 2010, "o-1", "relay"),
                    pub("p3", 2010, "relay", "c-1"),
                    pub("p5", 2011, "c-1", "c-2"),
                ]
            )
        )
        net.server.graph = pruned
        out = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out.ok
        assert net.peers.has_active_lease(NodeId("c-2"), seg)
        out3 = net.clients[AuthorId("c-3")].access_segment(seg)
        assert out3.ok
        assert not net.peers.has_active_lease(NodeId("c-3"), seg)
        assert counter(net, "peer.rejected.untrusted") == 1

    def test_untrusted_peer_retired_from_discovery_mid_lease(self):
        net = build_net()
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        assert net.peers.candidates(seg, requester_node=NodeId("c-2"))
        pruned = build_coauthorship_graph(
            Corpus(
                [
                    pub("p1", 2009, "o-1", "o-2"),
                    pub("p2", 2010, "o-1", "relay"),
                    pub("p3", 2010, "relay", "c-1"),
                    pub("p5", 2011, "c-1", "c-2"),
                ]
            )
        )
        net.server.graph = pruned
        assert net.peers.candidates(seg, requester_node=NodeId("c-2")) == []
        out = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 0


class TestLeaseLifecycle:
    def test_lease_expiry_mid_transfer_drains(self):
        net = build_net(peer_lease_ttl_s=10.0)
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        serve = net.peers.begin_serve(NodeId("c-3"), seg)
        assert serve is not None
        net.engine.run(until=11.0)  # TTL fires while the read is pinned
        lease = net.peers.lease_of(NodeId("c-3"), seg)
        assert lease is not None and not lease.active  # draining
        assert counter(net, "peer.lease.expired") == 0  # not charged yet
        assert net.peers.candidates(seg, requester_node=NodeId("c-2")) == []
        net.peers.end_serve(serve, ok=True)
        assert counter(net, "peer.lease.expired") == 1
        assert counter(net, "peer.serves") == 1
        assert net.peers.lease_of(NodeId("c-3"), seg) is None

    def test_reoffer_over_draining_husk_survives_husk_close(self):
        net = build_net(peer_lease_ttl_s=10.0)
        seg = seg_ids(net)[0]
        node = NodeId("c-3")
        net.clients[AuthorId("c-3")].access_segment(seg)
        old = net.peers.lease_of(node, seg)
        serve = net.peers.begin_serve(node, seg)
        assert serve is not None
        net.engine.run(until=11.0)  # TTL fires while pinned: old drains
        assert not old.active
        fresh = net.peers.offer(node, net.server.catalog.segment(seg))
        assert fresh is not None and fresh is not old
        # the husk's last serve ends: its close must leave the fresh
        # lease that replaced it in the registry
        net.peers.end_serve(serve, ok=True)
        assert counter(net, "peer.lease.expired") == 1
        assert net.peers.lease_of(node, seg) is fresh
        assert fresh.active and fresh.expiry_event is not None
        assert net.peers.has_active_lease(node, seg)
        assert net.peers.candidates(seg, requester_node=NodeId("c-2")) == [fresh]
        assert net.peers.raw_lease_count(seg) == 1
        assert net.peers.n_active_leases == 1
        gauges = net.obs.snapshot()["gauges"]
        assert gauges["peer.active_leases"]["value"] == 1
        assert gauges["peer.active_nodes"]["value"] == 1
        # and the fresh lease still expires on its own schedule
        net.engine.run(until=22.0)
        assert net.peers.lease_of(node, seg) is None
        assert counter(net, "peer.lease.expired") == 2
        assert net.peers.n_active_leases == 0

    def test_expiry_without_pin_closes_immediately(self):
        net = build_net(peer_lease_ttl_s=10.0)
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        net.engine.run(until=11.0)
        assert not net.peers.has_active_lease(NodeId("c-3"), seg)
        assert counter(net, "peer.lease.expired") == 1

    def test_renewal_restarts_ttl(self):
        net = build_net(peer_lease_ttl_s=10.0)
        seg = seg_ids(net)[0]
        client = net.clients[AuthorId("c-3")]
        client.access_segment(seg)
        net.engine.run(until=6.0)
        # cache hit at t=6 re-offers and renews: the lease now runs to 16
        segment = net.server.catalog.segment(seg)
        net.peers.offer(NodeId("c-3"), segment)
        assert counter(net, "peer.renewed") == 1
        net.engine.run(until=11.0)
        assert net.peers.has_active_lease(NodeId("c-3"), seg)
        net.engine.run(until=17.0)
        assert not net.peers.has_active_lease(NodeId("c-3"), seg)
        assert counter(net, "peer.lease.expired") == 1

    def test_cache_eviction_retracts_lease(self):
        net = build_net()
        segs = seg_ids(net)
        client = net.clients[AuthorId("c-3")]
        client.access_segment(segs[0])
        assert net.peers.has_active_lease(NodeId("c-3"), segs[0])
        # one-segment cache: fetching the second evicts the first
        client.access_segment(segs[1])
        assert not net.peers.has_active_lease(NodeId("c-3"), segs[0])
        assert net.peers.has_active_lease(NodeId("c-3"), segs[1])
        assert counter(net, "peer.lease.evicted") == 1


class TestFailover:
    def test_peer_crash_falls_back_to_repository_no_phantom_expiry(self):
        net = build_net(peer_lease_ttl_s=50.0)
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        injector = net.failure_injector(seed=0)
        injector.crash(NodeId("c-3"), at=1.0)
        net.engine.run(until=2.0)
        assert counter(net, "peer.leaves") == 1
        assert not net.peers.has_active_lease(NodeId("c-3"), seg)
        out = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 0
        assert out.social_hops == 3  # served by the origin replicas
        # the crash cancelled the pending expiry: running past the TTL
        # fires no phantom lease-end for c-3 (c-2's fresh lease from the
        # fallback fetch is dropped first so nothing else can expire)
        net.peers.leave(NodeId("c-2"), reason="test-teardown")
        net.engine.run(until=60.0)
        assert counter(net, "peer.lease.expired") == 0

    def test_corrupt_peer_copy_fails_over_to_repository(self):
        net = build_net()
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        assert net.peers.corrupt_copy(NodeId("c-3"), seg)
        client = net.clients[AuthorId("c-2")]
        out = client.access_segment(seg)
        # the peer ranked first, failed digest verification, and the
        # read failed over into the repository tier — integrity never
        # weakens, availability never suffers
        assert out.ok
        assert client.stats.peer_fetches == 0
        assert client.stats.failovers >= 1
        assert client.stats.integrity_failovers >= 1
        assert counter(net, "peer.serve.failures") == 1
        assert counter(net, "peer.serves") == 0

    def test_lease_gone_between_ranking_and_fetch_is_clean_failover(self):
        net = build_net()
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        resolved = net.server.resolve(seg, AuthorId("c-2"), record=False)
        assert resolved.peer
        net.peers.leave(NodeId("c-3"))  # tab closed before the read
        out = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 0


class TestRegistryValidation:
    def test_knob_validation(self):
        net = build_net()
        from repro.cdn.peers import PeerRegistry

        with pytest.raises(ConfigurationError):
            PeerRegistry(net.server.fabric, net.engine, lease_ttl_s=0.0)
        with pytest.raises(ConfigurationError):
            PeerRegistry(net.server.fabric, net.engine, cache_segments=-1)
        with pytest.raises(ConfigurationError):
            PeerRegistry(net.server.fabric, net.engine, max_concurrent_serves=0)

    def test_end_serve_twice_rejected(self):
        net = build_net()
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        serve = net.peers.begin_serve(NodeId("c-3"), seg)
        net.peers.end_serve(serve, ok=True)
        with pytest.raises(ConfigurationError):
            net.peers.end_serve(serve, ok=True)

    def test_enable_peer_tier_idempotent(self):
        net = build_net()
        assert net.enable_peer_tier() is net.peers

    def test_registry_without_plan_epochs_rejected(self):
        net = build_net()

        class NoEpochs:
            def candidates(self, segment_id, **kwargs):
                return []

        class NoRawCount(NoEpochs):
            plan_epoch = 0

        class NoCandidates:
            plan_epoch = 0

            def raw_lease_count(self, segment_id):
                return 0

        for fake in (NoEpochs(), NoRawCount(), NoCandidates()):
            with pytest.raises(ConfigurationError):
                net.server.set_peer_registry(fake)
        assert net.server.fabric.peer_registry is net.peers
        net.server.set_peer_registry(None)
        assert net.server.fabric.peer_registry is None

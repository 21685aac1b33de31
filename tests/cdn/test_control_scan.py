"""Property test: the one-pass control-plane scans equal the naive scans.

``under_replicated``, ``segment_redundancy``, ``ReplicationPolicy.snapshot``
and ``audit``, ``eligible_migration_targets`` and the migration planner's
promotions all read the catalog's servable-host index through a per-pass
liveness memo. Random interleavings of publication, replica state
transitions, node offline/online flips, liveness-oracle crashes, budget
changes, reads, repairs and audits must leave every one of them equal to the
per-lookup references in :mod:`tests.cdn.scan_reference`, on a plain
server and on 1- and 4-shard routers.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cdn.allocation import AllocationServer
from repro.cdn.content import ReplicaState, segment_dataset
from repro.cdn.demand import DemandTracker
from repro.cdn.migration import MigrationConfig, MigrationPlanner
from repro.cdn.placement.community_degree import CommunityNodeDegreePlacement
from repro.cdn.replication import ReplicationPolicy
from repro.cdn.sharding import ShardedAllocationRouter
from repro.cdn.storage import StorageRepository
from repro.errors import CatalogError, PlacementError
from repro.ids import AuthorId, DatasetId, NodeId
from repro.obs import Registry
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus

from ..conftest import pub
from .scan_reference import (
    eligible_reference,
    live_count_reference,
    promotion_plan_reference,
    snapshot_reference,
    under_replicated_reference,
)

SEG = 1_000
AUTHORS = tuple(f"a{i}" for i in range(12))
PLAN_SEED = 11


def _graph():
    return build_coauthorship_graph(
        Corpus(
            [
                pub("p1", 2009, "a0", "a1", "a2"),
                pub("p2", 2010, "a2", "a3"),
                pub("p3", 2010, "a3", "a4"),
                pub("p4", 2010, "a4", "a5", "a6"),
                pub("p5", 2011, "a6", "a7"),
                pub("p6", 2011, "a7", "a8"),
                pub("p7", 2011, "a8", "a9", "a10"),
                pub("p8", 2012, "a10", "a11"),
                pub("p9", 2012, "a0", "a5"),
            ]
        )
    )


def _deploy(n_shards):
    """A server (``n_shards=None``) or router, with a liveness oracle
    reading the returned ``dead`` set."""
    placement = CommunityNodeDegreePlacement()
    if n_shards is None:
        server = AllocationServer(_graph(), placement, seed=3, registry=Registry())
    else:
        server = ShardedAllocationRouter(
            _graph(), placement, n_shards=n_shards, seed=3, registry=Registry()
        )
    for a in AUTHORS:
        server.register_repository(
            AuthorId(a), StorageRepository(NodeId(f"n-{a}"), 16 * SEG)
        )
    dead = set()
    server.set_liveness_oracle(lambda node: node not in dead)
    return server, dead


def _actions(plan):
    return [
        (a.kind, a.segment_id, a.target_node, a.source_replica_id, a.reason)
        for a in plan
    ]


class TestScansMatchReference:
    STEPS = 160

    def _segments(self, server):
        return [s.segment_id for ds in server.catalog.datasets() for s in ds.segments]

    def _check(self, server, policy, planner, ref_rng, at):
        assert server.under_replicated() == under_replicated_reference(server)
        rows = server.segment_redundancy()  # shard by shard on a router
        assert sorted((s, live) for s, live, _ in rows) == sorted(
            (s, live_count_reference(server, s)) for s in self._segments(server)
        )
        assert policy.snapshot(at=at) == snapshot_reference(server, at=at)
        for seg in self._segments(server):
            assert server.eligible_migration_targets(seg) == eligible_reference(
                server, seg
            )
        assert _actions(planner.plan(at=at)) == promotion_plan_reference(
            planner, ref_rng, at=at
        )

    @pytest.mark.parametrize("n_shards", [None, 1, 4])
    def test_random_interleaving(self, n_shards):
        rng = random.Random(20261017)
        server, dead = _deploy(n_shards)
        policy = ReplicationPolicy(server, registry=server.obs)
        demand = DemandTracker(registry=Registry())
        # a full watermark plans no rebalances and the trust graph never
        # shrinks, so every planned action is a promotion
        planner = MigrationPlanner(
            server,
            demand,
            config=MigrationConfig(hot_rate_per_s=1e-3, load_watermark=1.0),
            seed=PLAN_SEED,
        )
        ref_rng = np.random.default_rng(PLAN_SEED)
        offline = set()
        published = 0
        seen = {"repaired": 0, "promotes": 0, "ops": set()}

        for step in range(self.STEPS):
            at = float(step * 10)
            op = rng.choice(
                ["publish", "publish", "transition", "transition", "transition",
                 "flip", "flip", "crash", "crash", "repair", "audit", "budget",
                 "demand", "demand", "read", "read"]
            )
            segs = self._segments(server)
            reps = list(server.catalog.iter_replicas())
            if op == "publish" or not segs:
                owner = AuthorId(rng.choice(AUTHORS))
                ds = segment_dataset(
                    DatasetId(f"ds-{published}"), owner, 2 * SEG,
                    n_segments=rng.choice([1, 2]),
                )
                published += 1
                try:
                    server.publish_dataset(ds, n_replicas=rng.choice([1, 2, 3]), at=at)
                except PlacementError:
                    pass
            elif op == "transition" and reps:
                rep = rng.choice(reps)
                kind = rng.choice(["retire", "quarantine", "stale", "activate"])
                try:
                    if kind == "retire":
                        server.catalog.retire(rep.replica_id)
                    elif kind == "quarantine":
                        server.quarantine_replica(rep.replica_id, at=at)
                    elif kind == "stale":
                        server.catalog.mark_stale(rep.replica_id)
                    elif rep.state in (ReplicaState.STALE, ReplicaState.PENDING):
                        server.catalog.activate(rep.replica_id)
                except CatalogError:
                    pass
            elif op == "flip":
                node = NodeId(f"n-{rng.choice(AUTHORS)}")
                if node in offline:
                    server.node_online(node, at=at)
                    offline.discard(node)
                else:
                    server.node_offline(node, at=at)
                    offline.add(node)
            elif op == "crash":
                node = NodeId(f"n-{rng.choice(AUTHORS)}")
                if node in dead:
                    dead.discard(node)
                else:
                    dead.add(node)
            elif op == "repair":
                seen["repaired"] += len(server.repair(at=at))
            elif op == "audit":
                report = policy.audit(at=at)
                seen["repaired"] += report.repaired
                assert report == snapshot_reference(server, at=at, repaired=report.repaired)
            elif op == "budget" and segs:
                ds_id = server.catalog.segment(rng.choice(segs)).dataset_id
                server.set_replica_budget(ds_id, rng.choice([1, 2, 3, 4]))
            elif op == "read" and reps:
                # host load breaks promotion-score ties
                rep = rng.choice(reps)
                if rep.servable and server.repository(rep.node_id).hosts_segment(
                    rep.segment_id
                ):
                    server.record_served(rep)
            elif op == "demand" and segs:
                seg = rng.choice(segs)
                requester = rng.choice([None, AuthorId(rng.choice(AUTHORS))])
                demand.record_access(seg, requester, count=rng.randint(1, 8))
                demand.fold(at)
            seen["ops"].add(op)
            self._check(server, policy, planner, ref_rng, at)
            seen["promotes"] += len(planner.plan(at=at))
            # keep the reference stream in step with the extra plan above
            promotion_plan_reference(planner, ref_rng, at=at)

        # the interleaving exercised what it claims to
        assert seen["repaired"] > 0
        assert seen["promotes"] > 0
        assert {"publish", "transition", "flip", "crash", "audit", "demand", "read"} <= seen[
            "ops"
        ]

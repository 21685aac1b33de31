"""In-memory span tracing of the ``repro`` layers, installed from outside.

The benchmark never edits the library. It records a span around each
public entry point it names here by replacing the class attribute (or the
module global) with a wrapper for the duration of a traced run, and puts
the original back afterwards. A span is ``(name, start, end, parent,
access)``: ``parent`` is the span open when it started, and ``access`` is
the id of the enclosing ``SCDN.access`` call (``-1`` outside one), so every
span of one dataset access shares an id.

Spans live in flat arrays while the run lasts and are written once, when
the run ends. A layer's self time is its spans' total duration minus the
time covered by their direct children; because calls nest on one thread,
children never overlap, so the per-layer self times plus the self time of
the root spans (``unattributed_s``) add up to the traced run phase.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: span name of the benchmark's own root span around each measured unit
#: (one campaign, or one case-study sweep); its self time is the run
#: phase that no layer span covers
ROOT = "run"


@dataclass
class Phases:
    """Per-name calls and self times of a trace, split into its set-up and
    run phases, with the length of each phase."""

    calls: Dict[str, int]
    setup_self_s: Dict[str, float]
    run_self_s: Dict[str, float]
    setup_s: float
    run_s: float


class Tracer:
    """Span recorder plus the counts the layer ratios need."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.access = array("i")
        self._stack: List[int] = []
        self._access_id = -1
        self._next_access = 0
        self.counts: Counter = Counter()
        self._restore: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.access.append(self._access_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.access.append(self._access_id)
        self.start.append(start)
        self.end.append(end)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- installing wrappers -----------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        on_result: Optional[Callable[[object], None]] = None,
        new_access: bool = False,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is a class (the method is replaced for every instance) or
        a module (the global is replaced for code that looks it up there).
        ``new_access`` starts a fresh access id for the call's subtree.
        """
        orig = vars(owner)[attr]  # defined there, so restoring is a setattr
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            outer = tracer._access_id
            if new_access:
                tracer._access_id = tracer._next_access
                tracer._next_access += 1
            idx = tracer.open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer._access_id = outer
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reduction ---------------------------------------------------------
    def _own(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(name, parent, duration, self time)`` of every span."""
        if self._stack:
            raise RuntimeError("spans are still open")
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        child = parent >= 0
        own = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return names, parent, dur, own

    def phases(self) -> "Phases":
        """Calls and self times per span name, split by phase.

        The run phase is the ``ROOT`` spans and everything inside them; the
        set-up phase is every other top-level span (the import and the
        set-up steps) and everything inside those.
        """
        names, parent, dur, own = self._own()
        top = np.where(parent >= 0, parent, np.arange(len(dur), dtype=np.int32))
        while True:  # pointer jumping to each span's outermost ancestor
            nxt = top[top]
            if np.array_equal(nxt, top):
                break
            top = nxt
        in_run = names[top] == self._ids.get(ROOT, -1)
        is_top = parent < 0
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        run_self = np.bincount(names[in_run], weights=own[in_run], minlength=k)
        setup_self = np.bincount(names[~in_run], weights=own[~in_run], minlength=k)
        return Phases(
            calls={nm: int(calls[i]) for i, nm in enumerate(self.names)},
            setup_self_s={nm: float(setup_self[i]) for i, nm in enumerate(self.names)},
            run_self_s={nm: float(run_self[i]) for i, nm in enumerate(self.names)},
            setup_s=float(dur[is_top & ~in_run].sum()),
            run_s=float(dur[is_top & in_run].sum()),
        )

    def save(self, path: str) -> None:
        """Write every span (compressed numpy archive) — once, at run end."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            access=np.frombuffer(self.access, dtype=np.int32),
        )


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of each ``repro`` layer the benchmark
    attributes time to. Span names follow the module names."""
    from repro.casestudy import experiment
    from repro.casestudy.hitrate import HitRateEvaluator
    from repro.cdn.allocation import AllocationServer
    from repro.cdn.client import CDNClient
    from repro.cdn.integrity import IntegrityScrubber
    from repro.cdn.migration import MigrationEngine
    from repro.cdn.peers import PeerRegistry
    from repro.cdn.placement.base import paper_placements
    from repro.cdn.replication import ReplicationPolicy
    from repro.cdn.transfer import TransferClient
    from repro.middleware.policy import PolicyStack
    from repro.scdn import SCDN
    from repro.sim.engine import SimulationEngine
    from repro.social.trust import paper_trust_heuristics

    counts = tracer.counts

    def segment_outcome(outcome) -> None:
        if outcome.source == "user-cache":
            counts["client.user_cache"] += 1

    def transfer_result(result) -> None:
        if result.ok:
            counts["transfer.ok"] += 1

    def engine_events(ran) -> None:
        counts["engine.events"] += int(ran)

    tracer.wrap(SCDN, "access", "scdn.access", new_access=True)
    tracer.wrap(PolicyStack, "authorize", "middleware.authorize")
    tracer.wrap(
        CDNClient, "access_segment", "client.access_segment",
        on_result=segment_outcome,
    )
    tracer.wrap(AllocationServer, "resolve", "alloc.resolve")
    tracer.wrap(AllocationServer, "resolve_candidates", "alloc.resolve_candidates")
    tracer.wrap(AllocationServer, "repair", "alloc.repair")
    tracer.wrap(AllocationServer, "under_replicated", "alloc.under_replicated")
    tracer.wrap(TransferClient, "execute", "transfer.execute", on_result=transfer_result)
    for method in ("offer", "evict", "candidates", "begin_serve"):
        tracer.wrap(PeerRegistry, method, f"peers.{method}")
    tracer.wrap(ReplicationPolicy, "audit", "replication.audit")
    tracer.wrap(IntegrityScrubber, "scrub", "integrity.scrub")
    tracer.wrap(MigrationEngine, "run_cycle", "migration.run_cycle")
    tracer.wrap(SimulationEngine, "run", "engine.run", on_result=engine_events)
    for algo in paper_placements():
        tracer.wrap(type(algo), "select", f"placement.{algo.name}.select")
    tracer.wrap(HitRateEvaluator, "evaluate", "casestudy.hitrate.evaluate")
    # the case study extracts and prunes its own ego corpus: attribute that
    # work to the social layer, as the campaign set-up does
    tracer.wrap(experiment, "ego_corpus", "social.ego_corpus")
    for heuristic in paper_trust_heuristics():
        tracer.wrap(type(heuristic), "prune", "social.trust.prune")

    # the client calls record_failover once per source it abandons
    tracer.wrap(AllocationServer, "record_failover", "alloc.failovers")

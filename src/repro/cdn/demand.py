"""Per-segment demand tracking: EWMA access rates for the migration planner.

The paper's allocation servers adjust replication "based on demand" (Section
V-B); arXiv:0909.2024 shows that a *rate* estimate — not a raw counter —
is what makes demand-reactive replication stable under churn. The
:class:`DemandTracker` turns the access/resolve statistics the system
already emits (``resolve`` trace events from
:meth:`~repro.cdn.allocation.AllocationServer.resolve`, or direct
:meth:`record_access` calls) into exponentially weighted moving-average
request rates per segment, plus a per-requester weight vector per segment
so the planner can place new replicas *near* the demand, not just scale it.

Determinism: the tracker itself draws no randomness — folds are pure
arithmetic on virtual time, so a seeded workload produces bit-identical
rates. Ingestion from the trace ring is ordered by event sequence number;
events lost to ring overwrite between ingests are counted on
``demand.trace_gap`` (an undercount signal, never an error).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..ids import AuthorId, SegmentId
from ..obs import Registry, get_registry

#: Rates below this are dropped at fold time to bound tracker memory.
_RATE_FLOOR = 1e-12
_seq_of = attrgetter("seq")


class DemandTracker:
    """EWMA per-segment demand rates with per-requester attribution.

    Parameters
    ----------
    half_life_s:
        Virtual time over which an idle segment's rate halves. Shorter
        half-lives react faster to demand shifts; longer ones resist
        noise.
    start_at:
        Virtual time of the tracker's first observation window.
    registry:
        Observability registry; defaults to the process-wide one.
    """

    def __init__(
        self,
        *,
        half_life_s: float = 600.0,
        start_at: float = 0.0,
        registry: Optional[Registry] = None,
    ) -> None:
        if half_life_s <= 0:
            raise ConfigurationError(f"half_life_s must be positive, got {half_life_s}")
        self.half_life_s = half_life_s
        self._last_fold = start_at
        #: folded EWMA rates, requests per virtual second
        self._rates: Dict[SegmentId, float] = {}
        #: folded EWMA per-requester rates (same units, same decay)
        self._requesters: Dict[SegmentId, Dict[AuthorId, float]] = {}
        #: accesses observed since the last fold
        self._pending: Dict[SegmentId, Dict[Optional[AuthorId], int]] = {}
        self._last_seq = -1  # trace sequence high-water mark for ingest()

        self.obs = registry if registry is not None else get_registry()
        self._m_accesses = self.obs.counter(
            "demand.accesses", help="segment accesses folded into demand rates"
        )
        self._m_folds = self.obs.counter(
            "demand.folds", help="EWMA fold passes executed"
        )
        self._m_trace_gap = self.obs.counter(
            "demand.trace_gap",
            help="resolve events lost to trace-ring overwrite between ingests",
        )
        self._g_tracked = self.obs.gauge(
            "demand.tracked_segments", help="segments with a nonzero demand rate"
        )

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def record_access(
        self,
        segment_id: SegmentId,
        requester: Optional[AuthorId] = None,
        *,
        count: int = 1,
    ) -> None:
        """Register ``count`` accesses of a segment since the last fold."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        per_req = self._pending.setdefault(segment_id, {})
        per_req[requester] = per_req.get(requester, 0) + count

    def record_many(
        self,
        accesses: "List[Tuple[SegmentId, Optional[AuthorId]]]",
    ) -> int:
        """Register a batch of ``(segment_id, requester)`` accesses at once.

        The batched counterpart of :meth:`record_access` — one dict
        traversal per access, no per-call validation overhead — used by
        :meth:`~repro.cdn.allocation.AllocationServer.resolve_many` to
        feed a whole resolution batch in a single ingest. Returns the
        number of accesses recorded.
        """
        pending = self._pending
        for segment_id, requester in accesses:
            per_req = pending.setdefault(segment_id, {})
            per_req[requester] = per_req.get(requester, 0) + 1
        return len(accesses)

    def ingest(self, registry: Registry) -> int:
        """Fold new ``resolve`` trace events from ``registry`` into pending
        counts. Returns the number of events ingested.

        Only events with a sequence number above the last ingested one are
        consumed, so repeated calls against the same ring never double-
        count. The ring is bounded: events overwritten between ingests are
        gone (counted on ``demand.trace_gap``) — demand rates are a
        heuristic signal and tolerate the undercount.
        """
        ingested = 0
        events = registry.traces.events()
        oldest_retained = events[0].seq if events else None
        # events come oldest first, so the unseen ones are a suffix
        fresh = events[bisect_right(events, self._last_seq, key=_seq_of) :]
        max_seen = fresh[-1].seq if fresh else self._last_seq
        for ev in fresh:
            if ev.kind != "resolve":
                continue
            segment = ev.fields.get("segment")
            if segment is None:
                continue
            requester = ev.fields.get("requester")
            self.record_access(
                SegmentId(segment),
                AuthorId(requester) if requester is not None else None,
            )
            ingested += 1
        # a gap means the ring overwrote events we never saw: the oldest
        # retained seq jumped past our high-water mark
        if (
            self._last_seq >= 0
            and oldest_retained is not None
            and oldest_retained > self._last_seq + 1
        ):
            self._m_trace_gap.inc(oldest_retained - self._last_seq - 1)
        self._last_seq = max_seen
        return ingested

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def fold(self, at: float) -> int:
        """Fold pending accesses into the EWMA rates as of virtual time ``at``.

        Standard EWMA over window averages: with ``dt`` since the last
        fold, every existing rate decays by ``0.5 ** (dt / half_life)``
        and the window's mean rate (``count / dt``) contributes the
        complement. A fold with ``dt <= 0`` keeps pending counts for the
        next fold (no window to average over yet). Returns the number of
        accesses folded.
        """
        dt = at - self._last_fold
        if dt <= 0:
            return 0
        decay = 0.5 ** (dt / self.half_life_s)
        folded = 0

        touched = set(self._rates) | set(self._pending)
        for seg in touched:
            count = sum(self._pending.get(seg, {}).values())
            folded += count
            new = self._rates.get(seg, 0.0) * decay + (count / dt) * (1.0 - decay)
            if new < _RATE_FLOOR:
                self._rates.pop(seg, None)
                self._requesters.pop(seg, None)
                continue
            self._rates[seg] = new
            weights = self._requesters.setdefault(seg, {})
            pending_req = self._pending.get(seg, {})
            for author in set(weights) | set(pending_req.keys() - {None}):
                if author is None:
                    continue
                c = pending_req.get(author, 0)
                w = weights.get(author, 0.0) * decay + (c / dt) * (1.0 - decay)
                if w < _RATE_FLOOR:
                    weights.pop(author, None)
                else:
                    weights[author] = w
        self._pending.clear()
        self._last_fold = at
        self._m_folds.inc()
        self._m_accesses.inc(folded)
        self._g_tracked.set(len(self._rates))
        return folded

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def rate(self, segment_id: SegmentId) -> float:
        """Folded demand rate of a segment (requests per virtual second)."""
        return self._rates.get(segment_id, 0.0)

    @property
    def tracked_segments(self) -> int:
        """Segments with a nonzero folded rate."""
        return len(self._rates)

    def hot_segments(self, min_rate: float) -> List[Tuple[SegmentId, float]]:
        """Segments at or above ``min_rate``, hottest first (ties by id)."""
        if min_rate < 0:
            raise ConfigurationError(f"min_rate must be >= 0, got {min_rate}")
        out = [(s, r) for s, r in self._rates.items() if r >= min_rate]
        out.sort(key=lambda t: (-t[1], t[0]))
        return out

    def top_requesters(
        self, segment_id: SegmentId, n: int = 5
    ) -> List[Tuple[AuthorId, float]]:
        """The ``n`` heaviest requesters of a segment with their folded
        rates, heaviest first (ties by author id). Empty when the segment
        has no attributed demand."""
        weights = self._requesters.get(segment_id, {})
        out = sorted(weights.items(), key=lambda t: (-t[1], t[0]))
        return out[:n]

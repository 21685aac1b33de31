"""Structured trace events in a bounded ring buffer.

Counters tell you *how much*; traces tell you *what happened*. Every
instrumented operation can append a :class:`TraceEvent` (a kind plus a
small field dict) to a fixed-capacity ring: appends are O(1), memory is
bounded, and the newest ``capacity`` events survive. The ring is the raw
data source behind ``repro obs --trace`` and behind
:meth:`repro.metrics.collector.MetricsCollector.ingest_obs_snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured event.

    Attributes
    ----------
    seq:
        Monotone sequence number (process-ordered, never reused).
    ts:
        Timestamp in the emitter's clock — simulated seconds where the
        emitter has a virtual clock, ``None`` where only ordering is
        meaningful.
    kind:
        Event type tag, e.g. ``"resolve"``, ``"node_state"``, ``"transfer"``.
    fields:
        Event payload (small, JSON-serializable values).
    """

    seq: int
    ts: Optional[float]
    kind: str
    fields: Mapping[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """Flat serializable form: seq/ts/kind plus the payload fields."""
        out: Dict[str, Any] = {"seq": self.seq, "ts": self.ts, "kind": self.kind}
        out.update(self.fields)
        return out


class TraceRing:
    """Fixed-capacity ring buffer of :class:`TraceEvent`.

    Once full, each append overwrites the oldest event; ``dropped`` counts
    the overwrites so reports can say how much history was lost.
    """

    __slots__ = ("_capacity", "_buf", "_next", "_seq", "_retained", "_dropped")

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._buf: List[Optional[TraceEvent]] = [None] * capacity
        self._next = 0  # slot of the next write
        self._seq = 0
        self._retained = 0
        self._dropped = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained events."""
        return self._capacity

    @property
    def dropped(self) -> int:
        """Events overwritten since construction (or the last clear)."""
        return self._dropped

    def __len__(self) -> int:
        """Number of events currently retained."""
        return self._retained

    def append(self, kind: str, ts: Optional[float] = None, **fields: Any) -> TraceEvent:
        """Record an event; returns it. Overwrites the oldest when full."""
        ev = TraceEvent(seq=self._seq, ts=ts, kind=kind, fields=fields)
        if self._buf[self._next] is not None:
            self._dropped += 1
        else:
            self._retained += 1
        self._buf[self._next] = ev
        self._next = (self._next + 1) % self._capacity
        self._seq += 1
        return ev

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Retained events, oldest first; optionally filtered by ``kind``."""
        buf, start = self._buf, self._next
        ordered = [ev for ev in buf[start:] + buf[:start] if ev is not None]
        if kind is not None:
            ordered = [ev for ev in ordered if ev.kind == kind]
        return ordered

    def tail(self, n: int) -> List[TraceEvent]:
        """The newest ``n`` events, oldest first."""
        return self.events()[-n:] if n > 0 else []

    def clear(self) -> None:
        """Drop all retained events and reset the dropped counter (sequence
        numbers keep increasing so post-clear events stay ordered)."""
        self._buf = [None] * self._capacity
        self._next = 0
        self._retained = 0
        self._dropped = 0

    def snapshot(self) -> List[Dict[str, Any]]:
        """Serializable view: retained events oldest-first as flat dicts."""
        return [ev.to_dict() for ev in self.events()]

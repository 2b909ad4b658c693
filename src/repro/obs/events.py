"""Structured event log: typed JSONL events with correlation ids.

Metrics (:mod:`repro.obs.metrics`) answer *how much*; spans
(:mod:`repro.obs.tracing`) answer *how long*; events answer *what
happened*.  Every collector flush, store batch, recovery action, and
verification outcome emits one :class:`Event` — a typed, timestamped
record that carries:

- a **correlation id** (``c0``, ``c1``, ...) threading one logical
  operation through its layers: the collector opens a correlation scope
  around a flush, so the ``collector.flush`` event and the ``store.batch``
  event it causes share an id and an ops pipeline can join them;
- the active span's **trace id** when tracing is on, linking the event
  stream to ``repro trace`` output.

Determinism: sequence numbers and correlation ids are plain per-log
counters, so two same-seed runs produce *identical* event streams modulo
the wall-clock ``ts`` field — which is what the monitor conformance tests
assert.  Pool workers never emit (their :data:`~repro.obs.OBS` state is
reset by :func:`repro.obs.apply_worker_config`), keeping the stream
single-writer and ordered.

Sinks are pluggable: :class:`RingBufferSink` (bounded, for tests and the
``repro monitor`` live view) and :class:`FileSink` (append-only JSONL,
for ops).  Emission with no sinks attached still counts sequence numbers,
so attaching a sink mid-run never renumbers the stream.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import AbstractSet, Deque, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Event",
    "EventLog",
    "RingBufferSink",
    "FileSink",
    "current_correlation",
    "read_events",
]

#: The correlation id of the logical operation the current task is part
#: of (a contextvar, so threads and async tasks each see their own).
_CORRELATION: ContextVar[Optional[str]] = ContextVar(
    "repro_obs_correlation", default=None
)


def current_correlation() -> Optional[str]:
    """The correlation id active in this context, if any."""
    return _CORRELATION.get()


class Event:
    """One structured log entry.

    ``fields`` is the event-kind-specific payload (record counts, object
    ids, requirement codes, ...) and must be JSON-serializable.
    """

    __slots__ = ("kind", "seq", "ts", "corr", "trace_id", "fields")

    def __init__(
        self,
        kind: str,
        seq: int,
        ts: float,
        corr: Optional[str],
        trace_id: Optional[str],
        fields: Dict[str, object],
    ):
        self.kind = kind
        self.seq = seq
        self.ts = ts
        self.corr = corr
        self.trace_id = trace_id
        self.fields = fields

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (one JSONL line per event)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "ts": self.ts,
            "corr": self.corr,
            "trace_id": self.trace_id,
            "fields": dict(self.fields),
        }

    def __repr__(self) -> str:
        corr = f" corr={self.corr}" if self.corr else ""
        return f"Event(#{self.seq} {self.kind}{corr} {self.fields!r})"


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory.

    With ``kinds`` set it keeps only events of those kinds, so frequent
    kinds cannot evict rare ones (``repro serve`` keeps its alert ring
    this way).
    """

    def __init__(
        self, capacity: int = 1024, kinds: Optional[AbstractSet[str]] = None
    ):
        self._events: Deque[Event] = deque(maxlen=max(1, int(capacity)))
        self._kinds = kinds
        self._lock = threading.Lock()

    def write(self, event: Event) -> None:
        if self._kinds is not None and event.kind not in self._kinds:
            return
        with self._lock:
            self._events.append(event)

    def events(self) -> Tuple[Event, ...]:
        """The buffered events, oldest first."""
        with self._lock:
            return tuple(self._events)

    def dicts(self) -> List[Dict[str, object]]:
        """The buffered events as JSON-ready dicts, oldest first."""
        return [event.to_dict() for event in self.events()]

    def of_kind(self, kind: str) -> Tuple[Event, ...]:
        """Buffered events of one kind, oldest first."""
        return tuple(e for e in self.events() if e.kind == kind)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class FileSink:
    """Appends events to a JSONL file, one line per event, flushed.

    With ``max_bytes`` set the file rotates before a write would push it
    past the cap: ``path`` is renamed to ``path.1`` (older segments shift
    to ``path.2`` ... ``path.<keep>``, the oldest dropped) and a fresh
    ``path`` is opened — so a long-running ``repro serve --events`` holds
    at most ``keep + 1`` bounded segments instead of one unbounded file.
    ``path.1`` is always the most recently rotated segment.
    """

    def __init__(
        self,
        path: str,
        max_bytes: Optional[int] = None,
        keep: int = 3,
    ):
        self.path = path
        self.max_bytes = int(max_bytes) if max_bytes else None
        self.keep = max(1, int(keep))
        self._lock = threading.Lock()
        self._open()

    def _open(self) -> None:
        self._file = open(self.path, "a", encoding="utf-8")
        # Append mode positions at end-of-file, so tell() is the size.
        self._size = self._file.tell()

    def _rotate(self) -> None:
        self._file.close()
        oldest = f"{self.path}.{self.keep}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for i in range(self.keep - 1, 0, -1):
            src = f"{self.path}.{i}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{i + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._open()

    def write(self, event: Event) -> None:
        line = json.dumps(event.to_dict(), sort_keys=True, default=str) + "\n"
        size = len(line.encode("utf-8"))
        with self._lock:
            # Emission after close is a shutdown race (the monitor's
            # finally-block closes sinks while a late tick may still
            # emit), not an error: drop the line rather than poison the
            # emitting thread.  Sequence numbers are claimed by the log,
            # so the surviving stream stays ordered, just truncated.
            if self._file.closed:
                return
            if (
                self.max_bytes is not None
                and self._size > 0
                and self._size + size > self.max_bytes
            ):
                # Rotate only a non-empty file: one oversized line still
                # lands (in a fresh segment) instead of looping forever.
                self._rotate()
            self._file.write(line)
            # Flush per event: the sink exists for post-mortem forensics,
            # where the last lines before a crash matter most.
            self._file.flush()
            self._size += size

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


def _read_jsonl(path: str, events: List[Dict[str, object]]) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict) and "kind" in payload:
                events.append(payload)


def read_events(path: str) -> List[Dict[str, object]]:
    """Re-read a JSONL event file written by :class:`FileSink`.

    Tolerant by design: a crash mid-write leaves a torn final line, and
    operators concatenate or grep these files — so malformed lines and
    non-object lines are skipped, never fatal.  Rotated segments
    (``path.<n>``, oldest = highest ``n``) are read before the live file,
    so the result is in emission order across the whole rotation set —
    which is ``seq`` order for a single-writer log.
    """
    segments: List[str] = []
    index = 1
    while os.path.exists(f"{path}.{index}"):
        segments.append(f"{path}.{index}")
        index += 1
    events: List[Dict[str, object]] = []
    for segment in reversed(segments):  # oldest (highest index) first
        try:
            _read_jsonl(segment, events)
        except FileNotFoundError:  # rotated away mid-read
            continue
    if segments and not os.path.exists(path):
        return events
    _read_jsonl(path, events)
    return events


class EventLog:
    """Orders events, assigns sequence + correlation ids, fans out to sinks."""

    def __init__(self, sinks: Tuple[object, ...] = ()):
        self._sinks: List[object] = list(sinks)
        self._lock = threading.Lock()
        self._seq = 0
        self._corr = 0

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------

    def add_sink(self, sink) -> None:
        with self._lock:
            self._sinks.append(sink)

    @property
    def ring(self) -> Optional[RingBufferSink]:
        """The first ring-buffer sink, if one is attached."""
        for sink in self._sinks:
            if isinstance(sink, RingBufferSink):
                return sink
        return None

    def close(self) -> None:
        """Close every sink that supports closing (file sinks)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> Event:
        """Emit one event to every sink; returns it.

        The sequence number is claimed under the log's lock, so the
        stream is totally ordered even with concurrent emitters; the
        trace id is read from the innermost open span when tracing is on.
        """
        from repro.obs import OBS  # deferred: this module is imported by repro.obs

        trace_id = None
        if OBS.tracing:
            current = OBS.tracer.current()
            if current is not None:
                trace_id = current.trace_id
        with self._lock:
            seq = self._seq
            self._seq += 1
        event = Event(
            kind=kind,
            seq=seq,
            ts=time.time(),
            corr=_CORRELATION.get(),
            trace_id=trace_id,
            fields=fields,
        )
        for sink in tuple(self._sinks):
            sink.write(event)
        return event

    # ------------------------------------------------------------------
    # correlation scopes
    # ------------------------------------------------------------------

    def new_correlation_id(self) -> str:
        """A fresh deterministic correlation id (``c0``, ``c1``, ...)."""
        with self._lock:
            n = self._corr
            self._corr += 1
        return f"c{n}"

    @contextmanager
    def correlation(self, corr_id: Optional[str] = None) -> Iterator[str]:
        """Run a block under one correlation id (fresh unless given).

        Every event emitted inside the block — from any layer — carries
        the id, which is how a ``store.batch`` event is tied back to the
        ``collector.flush`` that caused it.
        """
        cid = corr_id if corr_id is not None else self.new_correlation_id()
        token = _CORRELATION.set(cid)
        try:
            yield cid
        finally:
            _CORRELATION.reset(token)

    def __repr__(self) -> str:
        return f"EventLog(sinks={len(self._sinks)}, emitted={self._seq})"

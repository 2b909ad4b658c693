"""Span-based tracing with cross-process context propagation.

A :class:`Span` is one timed region (``verify``, ``verify.chain``,
``collector.flush``, ...) with free-form attributes; spans nest into a
parent/child trace tree via a thread-local stack.  Finished root spans
are kept on the tracer (bounded) so ``repro trace`` can render the most
recent run.

:class:`ParallelVerifier` workers run in separate processes: the parent
serializes a :class:`TraceContext` (trace id + parent span id) into the
pool, each worker records its spans locally, returns them as picklable
dicts, and the parent :meth:`Tracer.adopt`\\ s them — re-parenting the
workers' top-level spans under the span that was open at fan-out, so a
parallel verify renders as one tree exactly like a serial one.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Span", "TraceContext", "Tracer", "render_trace", "trace_to_dict"]

#: (trace_id, span_id) of the span a remote worker should re-parent to.
TraceContext = Tuple[str, str]

_ids = itertools.count(1)


def _new_id() -> str:
    # Process-unique prefix keeps ids collision-free across pool workers.
    return f"{os.getpid():x}-{next(_ids):x}"


class Span:
    """One timed region of a trace."""

    __slots__ = ("name", "attrs", "trace_id", "span_id", "parent_id",
                 "start", "end", "wall_start", "children", "worker_pid",
                 "remote_root")

    def __init__(
        self,
        name: str,
        attrs: Dict[str, object],
        trace_id: str,
        parent_id: Optional[str],
        span_id: Optional[str] = None,
        start: Optional[float] = None,
    ):
        self.name = name
        self.attrs = attrs
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else _new_id()
        self.parent_id = parent_id
        self.start = time.perf_counter() if start is None else start
        # Epoch seconds at open: perf_counter() has an arbitrary origin,
        # so only this field lines spans up with event-log timestamps.
        self.wall_start = time.time()
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.worker_pid: Optional[int] = None
        #: True for a pool worker's top span, whose parent lives in the
        #: parent process: logged as a root despite having a parent_id,
        #: so :meth:`Tracer.drain` ships it and the parent's
        #: :meth:`Tracer.adopt` re-parents it.
        self.remote_root = False

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def iter_spans(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def to_dict(self) -> Dict[str, object]:
        """Picklable/JSON form, children included."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_s": self.duration,
            "wall_start": self.wall_start,
            "worker_pid": self.worker_pid,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        span = cls.__new__(cls)
        span.name = str(data["name"])
        span.attrs = dict(data.get("attrs", {}))
        span.trace_id = str(data["trace_id"])
        span.span_id = str(data["span_id"])
        parent = data.get("parent_id")
        span.parent_id = str(parent) if parent is not None else None
        span.start = 0.0
        span.end = float(data.get("duration_s", 0.0))
        span.wall_start = float(data.get("wall_start", 0.0))
        span.worker_pid = data.get("worker_pid")
        span.remote_root = False
        span.children = [cls.from_dict(child) for child in data.get("children", [])]
        return span

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id}, children={len(self.children)})"


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.start(self._name, self._attrs)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and self.span is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer.finish(self.span)
        return False


class Tracer:
    """Thread-local span stack plus a bounded log of finished traces."""

    #: Finished root spans retained (oldest evicted first).
    MAX_TRACES = 64

    def __init__(self) -> None:
        self._local = threading.local()
        self.traces: List[Span] = []
        self._lock = threading.Lock()
        #: Remote parent installed by pool workers: new roots attach here.
        self._remote_context: Optional[TraceContext] = None

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs: object) -> _SpanHandle:
        """``with tracer.span("verify.chain", object_id=...) as s:``"""
        return _SpanHandle(self, name, attrs)

    def start(
        self, name: str, attrs: Dict[str, object], now: Optional[float] = None
    ) -> Span:
        """Open a span under this thread's innermost one.

        ``now`` is a ``perf_counter()`` reading the caller already took,
        so one clock read can time several sinks.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
            span = Span(name, attrs, parent.trace_id, parent.span_id, start=now)
            parent.children.append(span)
        elif self._remote_context is not None:
            trace_id, parent_id = self._remote_context
            span = Span(name, attrs, trace_id, parent_id, start=now)
            span.remote_root = True
        else:
            span = Span(name, attrs, trace_id=_new_id(), parent_id=None, start=now)
        stack.append(span)
        return span

    def finish(self, span: Optional[Span], now: Optional[float] = None) -> None:
        if span is None:
            return
        span.end = time.perf_counter() if now is None else now
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent_id is None or span.remote_root:
            # A root (locally, or under a worker's remote parent): log it.
            if not stack:
                with self._lock:
                    self.traces.append(span)
                    if len(self.traces) > self.MAX_TRACES:
                        del self.traces[: len(self.traces) - self.MAX_TRACES]

    # ------------------------------------------------------------------
    # cross-process propagation
    # ------------------------------------------------------------------

    def context(self) -> Optional[TraceContext]:
        """The ``(trace_id, span_id)`` a worker should re-parent to."""
        current = self.current()
        if current is None:
            return None
        return (current.trace_id, current.span_id)

    def install_remote_context(self, context: Optional[TraceContext]) -> None:
        """Adopt a parent process's context (worker-side initializer)."""
        self._remote_context = context

    def drain(self) -> List[Dict[str, object]]:
        """Pop all finished traces as dicts (worker-side, per task)."""
        with self._lock:
            spans = [span.to_dict() for span in self.traces]
            self.traces.clear()
        return spans

    def adopt(self, span_dicts: Sequence[Dict[str, object]]) -> List[Span]:
        """Attach spans returned by a worker under the current span.

        Deserialized spans keep their internal parent/child structure;
        their *top-level* spans are re-parented onto the innermost open
        span (or logged as roots when none is open).
        """
        adopted: List[Span] = []
        current = self.current()
        for data in span_dicts:
            span = Span.from_dict(data)
            if current is not None:
                span.parent_id = current.span_id
                span.trace_id = current.trace_id
                current.children.append(span)
            else:
                with self._lock:
                    self.traces.append(span)
            adopted.append(span)
        return adopted

    # ------------------------------------------------------------------

    def last_trace(self) -> Optional[Span]:
        """The most recently finished root span, if any."""
        with self._lock:
            return self.traces[-1] if self.traces else None

    def reset(self) -> None:
        """Drop finished traces and any remote context (open spans stay).

        Also restarts the module-wide span-id counter: a measurement
        window opened by ``obs.enable(reset=True)`` must replay with
        identical ids, or event streams that attach trace ids stop being
        deterministic (the monitor conformance suite compares them
        byte-for-byte modulo timestamps).
        """
        global _ids
        with self._lock:
            self.traces.clear()
        self._remote_context = None
        _ids = itertools.count(1)

    def __repr__(self) -> str:
        return f"Tracer(traces={len(self.traces)})"


# ---------------------------------------------------------------------------
# rendering / export
# ---------------------------------------------------------------------------


def trace_to_dict(root: Span) -> Dict[str, object]:
    """JSON-ready dict for one trace tree."""
    return root.to_dict()


def trace_to_json(root: Span, indent: int = 2) -> str:
    """JSON text for one trace tree."""
    return json.dumps(trace_to_dict(root), indent=indent)


def render_trace(root: Span) -> str:
    """ASCII tree of one trace, durations in milliseconds."""
    lines: List[str] = []

    def fmt(span: Span) -> str:
        attrs = ", ".join(
            f"{k}={v}" for k, v in span.attrs.items() if k != "error"
        )
        error = f" !{span.attrs['error']}" if "error" in span.attrs else ""
        worker = f" [pid {span.worker_pid}]" if span.worker_pid else ""
        detail = f" ({attrs})" if attrs else ""
        return f"{span.name}{detail}{worker}  {span.duration * 1e3:.2f} ms{error}"

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(fmt(span))
            child_prefix = ""
        else:
            connector = "`-- " if is_last else "|-- "
            lines.append(prefix + connector + fmt(span))
            child_prefix = prefix + ("    " if is_last else "|   ")
        for i, child in enumerate(span.children):
            walk(child, child_prefix, i == len(span.children) - 1, False)

    walk(root, "", True, True)
    return "\n".join(lines)

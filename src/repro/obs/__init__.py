"""Observability for the provenance pipeline: metrics, spans, exporters.

The paper's whole evaluation (§5, Figs. 6–11) is about *overhead* — where
checksumming spends time and space.  This package makes every run an
experiment: hot paths (hashing, signing, Merkle rehashing, provenance
appends, chain verification) report into a process-wide
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.tracing.Tracer` and an optional
:class:`~repro.obs.profile.PhaseProfiler`, but **only when enabled**.

Design contract — one timing primitive, near-zero cost when off:

- The singleton :data:`OBS` is the only global.  Every timed region is
  one :func:`phase` named in :data:`~repro.obs.profile.PHASES`, the
  vocabulary table that decides its sinks (profiler phase, span, timing
  histogram).  Counters and events stay ``if OBS.enabled:`` /
  ``log = OBS.events`` slot checks at their sites.
- A phase's one disabled check is its ``live`` flag, recomputed whenever
  a switch is assigned.  Disabled, a decorated per-record function pays
  about 0.17 µs per call and a ``with`` block about 0.7 µs (2-vCPU host),
  so ``with`` is kept to sites run once per chain, batch, request or
  tick; ``run_obs_overhead`` prices every entry and guards ≤ 2%.

Typical use::

    from repro import obs

    obs.enable()
    ... run a workload ...
    print(obs.export.render_text(obs.OBS.registry.snapshot()))
    for root in obs.OBS.tracer.traces:
        print(obs.tracing.render_trace(root))
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Callable, Dict, Optional, TypeVar, Union

from repro.obs import events as events_module  # noqa: F401 (re-exported)
from repro.obs import export, tracing  # re-exported submodules
from repro.obs import profile as profile_module  # noqa: F401 (re-exported)
# NOTE: repro.obs.plane is intentionally NOT imported here — only the
# service layer needs it, and `import repro.obs` stays light for the hot
# paths that only check OBS slots.
from repro.obs.events import EventLog, FileSink, RingBufferSink, current_correlation
from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import PHASES, CostModel, Phase, PhaseProfiler
from repro.obs.tracing import Span, Tracer, render_trace

__all__ = [
    "OBS",
    "phase",
    "enable",
    "disable",
    "snapshot",
    "emit",
    "enable_events",
    "disable_events",
    "enable_profile",
    "disable_profile",
    "PhaseProfiler",
    "CostModel",
    "worker_config",
    "apply_worker_config",
    "capture_worker_delta",
    "merge_worker_delta",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "EventLog",
    "RingBufferSink",
    "FileSink",
    "render_trace",
    "DEFAULT_BUCKETS",
    "export",
    "tracing",
]


class ObsState:
    """The process-wide observability switchboard.

    ``enabled`` gates metrics, ``tracing`` gates spans, ``events`` (an
    :class:`~repro.obs.events.EventLog` or None) gates structured events,
    ``profiler`` (a :class:`~repro.obs.profile.PhaseProfiler` or None)
    gates phase-attributed timing; all default to off.  Reads are plain
    slot loads.  Assigning one of the three timing switches — through
    :func:`enable` and friends or directly — recomputes every
    :class:`~repro.obs.profile.Phase`'s ``live`` flag, so a phase site's
    disabled check stays one slot read and is never stale.
    """

    __slots__ = ("enabled", "tracing", "registry", "tracer", "events", "profiler")

    _TIMING_SWITCHES = frozenset(("enabled", "tracing", "profiler"))

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.events: Optional[EventLog] = None
        object.__setattr__(self, "enabled", False)
        object.__setattr__(self, "tracing", False)
        self.profiler: Optional[PhaseProfiler] = None

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name in self._TIMING_SWITCHES:
            profiling = self.profiler is not None
            for entry in PHASES.values():
                entry.live = (
                    (entry.profile and profiling)
                    or (entry.span and self.tracing)
                    or (entry.histogram is not None and self.enabled)
                )


#: The module-level default state every instrumented site checks.
OBS = ObsState()


def enable(metrics: bool = True, tracing: bool = True, reset: bool = False) -> None:
    """Turn observability on (both metrics and tracing by default).

    ``reset=True`` additionally clears the registry and finished traces,
    giving a clean measurement window.
    """
    if reset:
        OBS.registry.reset()
        OBS.tracer.reset()
    OBS.enabled = metrics
    OBS.tracing = tracing


def disable(reset: bool = False) -> None:
    """Turn observability off (back to the near-zero-cost default)."""
    OBS.enabled = False
    OBS.tracing = False
    if reset:
        OBS.registry.reset()
        OBS.tracer.reset()


F = TypeVar("F", bound=Callable[..., object])


class _PhaseBlock:
    """One entry into a vocabulary phase; see :func:`phase`."""

    __slots__ = ("_phase", "_attrs", "_labels", "_prof", "_span", "_start")

    def __init__(
        self, entry: Phase, attrs: Dict[str, object], labels: Dict[str, object]
    ) -> None:
        self._phase = entry
        self._attrs = attrs  # the span's
        self._labels = labels  # the histogram's

    def __enter__(self) -> Optional[Span]:
        entry = self._phase
        if not entry.live:
            self._start = None
            return None
        now = perf_counter()
        prof = OBS.profiler if entry.profile else None
        if prof is not None:
            prof._enter(entry.name, now)
        span = None
        if entry.span and OBS.tracing:
            span = OBS.tracer.start(entry.name, dict(self._attrs), now)
        self._prof = prof
        self._span = span
        self._start = now
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        start = self._start
        if start is None:
            return False
        now = perf_counter()
        if self._prof is not None:
            self._prof._exit(now)
        span = self._span
        if span is not None:
            if exc_type is not None:
                span.attrs.setdefault("error", exc_type.__name__)
            OBS.tracer.finish(span, now)
        entry = self._phase
        if entry.histogram is not None and exc_type is None and OBS.enabled:
            exemplar = span.trace_id if span is not None else current_correlation()
            OBS.registry.histogram(entry.histogram, **self._labels).observe(
                now - start, exemplar=exemplar
            )
        return False

    def __call__(self, fn: F) -> F:
        entry, attrs, labels = self._phase, self._attrs, self._labels

        @functools.wraps(fn)
        def timed(*args):
            if not entry.live:
                return fn(*args)
            with _PhaseBlock(entry, attrs, labels):
                return fn(*args)

        return timed  # type: ignore[return-value]


class _IdleBlock:
    """A shared, stateless no-op: what :func:`phase` hands out while none
    of a phase's sinks is on."""

    __slots__ = ("phase",)

    def __init__(self, entry: Phase) -> None:
        self.phase = entry

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __call__(self, fn: F) -> F:
        return _PhaseBlock(self.phase, {}, {})(fn)


_IDLE = {name: _IdleBlock(entry) for name, entry in PHASES.items()}
_NO_LABELS: Dict[str, object] = {}


def phase(name: str, /, **attrs: object) -> Union[_PhaseBlock, _IdleBlock]:
    """Time one region under a vocabulary name, feeding its sinks.

    ``name`` must be a key of :data:`~repro.obs.profile.PHASES`, which
    decides what the region feeds: a profiler phase, a tracer span
    carrying ``attrs``, and a timing histogram labelled by the
    attributes the table names, with the span's trace id as exemplar
    (the active correlation id when no span is open).  Each sink fires
    only while its switch is on, from one clock read on entry and one on
    exit; the histogram only when the region does not raise.

    As a context manager, ``__enter__`` returns the open span (or None)
    for attributes known only at the end; while no sink is on, a shared
    stateless block is returned.  As a decorator it times every call of
    a function taking positional arguments only, and may carry only
    histogram labels.
    """
    idle = _IDLE[name]  # the vocabulary check: unknown names raise KeyError
    entry = idle.phase
    if entry.labels:
        labels = {key: attrs.pop(key) for key in entry.labels}
        return _PhaseBlock(entry, attrs, labels)
    if entry.live:
        return _PhaseBlock(entry, attrs, _NO_LABELS)
    return idle


def snapshot() -> Dict[str, Dict[str, object]]:
    """Plain-data snapshot of the default registry."""
    return OBS.registry.snapshot()


# ---------------------------------------------------------------------------
# structured events
# ---------------------------------------------------------------------------


def enable_events(
    ring: int = 1024,
    path: Optional[str] = None,
    max_bytes: Optional[int] = None,
    keep: int = 3,
) -> EventLog:
    """Attach an event log (ring buffer of ``ring`` events, optional JSONL file).

    ``ring=0`` skips the ring-buffer sink; ``path`` adds an append-only
    :class:`~repro.obs.events.FileSink`, size-capped at ``max_bytes``
    with ``keep`` rotated segments when set.  Returns the installed log.
    Orthogonal to :func:`enable`/:func:`disable` — events can run with
    metrics and tracing off (they still get correlation ids, just no
    trace ids).
    """
    log = EventLog()
    if ring:
        log.add_sink(RingBufferSink(ring))
    if path is not None:
        log.add_sink(FileSink(path, max_bytes=max_bytes, keep=keep))
    OBS.events = log
    return log


def disable_events() -> None:
    """Detach and close the event log (back to zero-cost slot checks)."""
    log, OBS.events = OBS.events, None
    if log is not None:
        log.close()


def emit(kind: str, **fields: object) -> None:
    """Emit one structured event if an event log is attached (else no-op)."""
    log = OBS.events
    if log is not None:
        log.emit(kind, **fields)


# ---------------------------------------------------------------------------
# phase profiling
# ---------------------------------------------------------------------------


def enable_profile(sample_every: int = 1, reset: bool = False) -> PhaseProfiler:
    """Attach a phase profiler (returns it; orthogonal to :func:`enable`).

    ``sample_every=N`` turns on deterministic sampling (time every Nth
    entry per phase, scale by N).  ``reset=True`` discards a previously
    attached profiler's data instead of reusing it.
    """
    prof = OBS.profiler
    if prof is None or reset or prof.sample_every != sample_every:
        prof = OBS.profiler = PhaseProfiler(sample_every=sample_every)
    return prof


def disable_profile() -> Optional[PhaseProfiler]:
    """Detach the phase profiler; returns it so callers can keep the data."""
    prof, OBS.profiler = OBS.profiler, None
    return prof


# ---------------------------------------------------------------------------
# cross-process propagation (ParallelVerifier workers)
# ---------------------------------------------------------------------------


def worker_config() -> Optional[Dict[str, object]]:
    """What a pool worker needs to continue this process's observability.

    Returns None when observability is fully disabled, so workers skip
    setup entirely.
    """
    if not (OBS.enabled or OBS.tracing or OBS.profiler is not None):
        return None
    return {
        "metrics": OBS.enabled,
        "tracing": OBS.tracing,
        "trace_context": OBS.tracer.context() if OBS.tracing else None,
        "profile": (
            {"sample_every": OBS.profiler.sample_every}
            if OBS.profiler is not None
            else None
        ),
    }


def apply_worker_config(config: Optional[Dict[str, object]]) -> None:
    """Install a parent's :func:`worker_config` in a worker process.

    Fork-started workers inherit the parent's registry contents and the
    tracer's open span stack; both are replaced with fresh instances so a
    worker only ever reports its own deltas.  The event log is dropped
    outright: events are single-writer (the parent), so worker-side sites
    stay silent and the stream keeps one deterministic ordering.
    """
    OBS.registry = MetricsRegistry()
    OBS.tracer = Tracer()
    OBS.events = None
    OBS.profiler = None
    if config is None:
        disable()
        return
    OBS.enabled = bool(config.get("metrics"))
    OBS.tracing = bool(config.get("tracing"))
    OBS.tracer.install_remote_context(config.get("trace_context"))
    profile_cfg = config.get("profile")
    if profile_cfg:
        OBS.profiler = PhaseProfiler(
            sample_every=int(profile_cfg.get("sample_every", 1))
        )


def capture_worker_delta() -> Dict[str, object]:
    """What this worker recorded since the last capture, as picklable data.

    The sinks restart empty, so each pool task reports its own delta, not
    the worker's running totals; the parent applies it with
    :func:`merge_worker_delta`.
    """
    prof = OBS.profiler
    delta = {
        "metrics": OBS.registry.dump() if OBS.enabled else None,
        "spans": OBS.tracer.drain(),
        "profile": prof.dump() if prof is not None else None,
    }
    OBS.registry.reset()
    if prof is not None:
        prof.reset()
    return delta


def merge_worker_delta(delta: Dict[str, object]) -> None:
    """Fold a worker's :func:`capture_worker_delta` into this process's
    sinks (spans adopted under the span open at fan-out), each only while
    its switch is on here."""
    if delta["metrics"] and OBS.enabled:
        OBS.registry.merge(delta["metrics"])
    if delta["spans"] and OBS.tracing:
        OBS.tracer.adopt(delta["spans"])
    if delta["profile"] and OBS.profiler is not None:
        OBS.profiler.merge(delta["profile"])

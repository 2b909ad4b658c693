"""Phase-attributed wall-time profiling, cost attribution, and the
vocabulary of timed regions.

The paper's evaluation (§5) decomposes tamper-evidence overhead into a
handful of cost components: hashing compound objects, signing checksums,
building/checking Merkle audit paths, and writing provenance records.
This module makes that decomposition measurable on every run: a
:class:`PhaseProfiler` attributes wall time to a small closed taxonomy
of named phases, and a :class:`CostModel` rolls a profile into
per-record / per-batch cost attribution that flows through the existing
exporters (:mod:`repro.obs.export`).

Design contract:

- :data:`PHASES` is the one vocabulary of timed regions.  Each name says
  which sinks it feeds — a profiler phase, a tracer span carrying the
  site's attributes, a timing histogram — and which attributes label
  that histogram.  Sites never choose sinks themselves: they open
  :func:`repro.obs.phase` with a name from the table, and
  ``tests/obs/test_vocabulary.py`` checks that every site name is in
  the table and every table entry has a site.
- The profiler is a timer *stack* layered over the same thread-local
  discipline as :class:`~repro.obs.tracing.Tracer`: nested phases pause
  their parent's self-time, so ``self_s`` across phases partitions the
  profiled wall time without double counting (``total_s`` stays
  inclusive).
- ``dump()`` / ``merge()`` are picklable plain data, mirroring
  :meth:`~repro.obs.metrics.MetricsRegistry.dump`, so per-worker
  profiles from the ``ParallelVerifier`` merge back into the parent and
  serial vs. parallel runs agree on per-phase call counts.
- Deterministic sampling: ``sample_every=N`` times every Nth entry of a
  phase (a per-phase modulo counter — no randomness, so repeated runs
  sample identically) and scales recorded durations by N.  Calls are
  always counted exactly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["PHASES", "Phase", "PhaseProfiler", "CostModel"]


@dataclass(slots=True)
class Phase:
    """One vocabulary name and the sinks it feeds.

    ``profile``: a :class:`PhaseProfiler` phase (one of the paper's §5
    cost components, DESIGN.md §11).  ``span``: a tracer span carrying
    the site's attributes.  ``histogram``: a timing histogram (seconds)
    fed when metrics are on, with the span's trace id as exemplar when
    the phase also opened a span, else the active correlation id.
    ``labels``: the attributes that label
    that histogram; they are not copied onto the span.

    ``live`` is derived, not configured: :data:`repro.obs.OBS` recomputes
    it whenever the ``enabled`` / ``tracing`` / ``profiler`` switches
    change, and it is the one check a disabled site pays.
    """

    name: str
    profile: bool = False
    span: bool = False
    histogram: Optional[str] = None
    labels: Tuple[str, ...] = ()
    live: bool = field(default=False, init=False)


#: The closed vocabulary of timed regions, keyed by name.  Phases entered
#: once per record (``hash``, ``merkle.*``, ``rsa.*``, ``proof.check``)
#: are decorated functions, whose disabled path is one slot read plus a
#: direct call; the rest are ``with`` blocks entered once per chain,
#: batch, request or tick.
PHASES: Dict[str, Phase] = {phase.name: phase for phase in (
    # §5 cost components: the profiler taxonomy.
    Phase("hash", profile=True),
    Phase("merkle.leaf", profile=True),
    Phase("merkle.root", profile=True),
    Phase("merkle.path", profile=True),
    Phase("rsa.sign", profile=True, histogram="crypto.sign.seconds",
          labels=("scheme",)),
    Phase("rsa.verify", profile=True, histogram="crypto.verify.seconds",
          labels=("scheme",)),
    Phase("proof.build", profile=True, histogram="crypto.batch_seal.seconds"),
    Phase("proof.check", profile=True),
    Phase("store.io", profile=True),
    Phase("journal", profile=True),
    Phase("verify.chain", profile=True, span=True,
          histogram="verify.chain.seconds"),
    Phase("collector.flush", profile=True, span=True),
    # Request, batch and pass boundaries: spans and latency histograms.
    Phase("store.batch", span=True),
    Phase("store.txn", histogram="store.txn.seconds"),
    Phase("verify", span=True),
    Phase("verify.worker", span=True, histogram="verify.worker.chunk_seconds"),
    Phase("client.request", span=True),
    Phase("http.request", span=True, histogram="service.http.seconds",
          labels=("endpoint",)),
    Phase("monitor.tick", histogram="monitor.tick.seconds"),
)}


class _PhaseStat:
    """Accumulated timings for one phase name."""

    __slots__ = ("calls", "timed_calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.timed_calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _Frame:
    """One open phase on a thread's timer stack."""

    __slots__ = ("name", "start", "child_s", "timed")

    def __init__(self, name: str, start: float, timed: bool) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0  # actual (unscaled) seconds of timed children
        self.timed = timed


class PhaseProfiler:
    """Thread-safe phase timer stack with picklable dump/merge.

    Per-thread stacks live in a ``threading.local``; the per-phase
    accumulators are shared and guarded by one lock (taken only while
    profiling is *enabled* — disabled sites never reach the profiler).
    """

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self._stats: Dict[str, _PhaseStat] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time ``with prof.phase("rsa.sign"): ...`` on this profiler alone.

        For tests and tools; instrumented sites use :func:`repro.obs.phase`.
        """
        self._enter(name, perf_counter())
        try:
            yield
        finally:
            self._exit(perf_counter())

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, now: float) -> None:
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = _PhaseStat()
            stat.calls += 1
            timed = (stat.calls - 1) % self.sample_every == 0
        self._stack().append(_Frame(name, now if timed else 0.0, timed))

    def _exit(self, now: float) -> None:
        stack = self._stack()
        frame = stack.pop()
        if not frame.timed:
            return
        elapsed = now - frame.start
        scale = float(self.sample_every)
        with self._lock:
            stat = self._stats[frame.name]
            stat.timed_calls += 1
            stat.total_s += elapsed * scale
            # Self time excludes timed children; untimed (sampled-out)
            # children are approximated as zero-cost, an accepted bias of
            # sampling mode (exact when sample_every == 1).
            stat.self_s += max(elapsed - frame.child_s, 0.0) * scale
        if stack and stack[-1].timed:
            stack[-1].child_s += elapsed

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-data view: ``{phase: {calls, timed_calls, total_s, self_s}}``."""
        with self._lock:
            return {
                name: {
                    "calls": stat.calls,
                    "timed_calls": stat.timed_calls,
                    "total_s": stat.total_s,
                    "self_s": stat.self_s,
                }
                for name, stat in sorted(self._stats.items())
            }

    def total_self_seconds(self) -> float:
        """Sum of self time over all phases (the profiled wall time)."""
        with self._lock:
            return sum(stat.self_s for stat in self._stats.values())

    def total_calls(self) -> int:
        """Total phase entries — the number of times a site fired."""
        with self._lock:
            return sum(stat.calls for stat in self._stats.values())

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()

    # -- cross-process plumbing (mirrors MetricsRegistry.dump/merge) -------

    def dump(self) -> Dict[str, object]:
        """Picklable plain-data dump for cross-process merging."""
        with self._lock:
            return {
                "sample_every": self.sample_every,
                "phases": [
                    (name, stat.calls, stat.timed_calls, stat.total_s, stat.self_s)
                    for name, stat in sorted(self._stats.items())
                ],
            }

    def merge(self, dump: Optional[Dict[str, object]]) -> None:
        """Fold a :meth:`dump` from another profiler into this one.

        Counts and times add, so merging every worker's per-chunk delta
        reproduces the serial run's per-phase call counts exactly.
        """
        if not dump:
            return
        phases: Sequence[Tuple] = dump.get("phases", ())  # type: ignore[assignment]
        with self._lock:
            for name, calls, timed_calls, total_s, self_s in phases:
                stat = self._stats.get(name)
                if stat is None:
                    stat = self._stats[name] = _PhaseStat()
                stat.calls += int(calls)
                stat.timed_calls += int(timed_calls)
                stat.total_s += float(total_s)
                stat.self_s += float(self_s)

    def render(self) -> str:
        """Aligned table of per-phase attribution (largest self time first)."""
        from repro.bench.reporting import format_table

        snap = self.snapshot()
        if not snap:
            return "(no phases recorded)"
        total_self = sum(s["self_s"] for s in snap.values()) or 1.0
        rows = []
        for name, s in sorted(snap.items(), key=lambda kv: -kv[1]["self_s"]):
            rows.append((
                name,
                s["calls"],
                f"{s['total_s']:.6f}",
                f"{s['self_s']:.6f}",
                f"{100.0 * s['self_s'] / total_self:5.1f}%",
            ))
        return format_table(("phase", "calls", "total_s", "self_s", "share"), rows)


class CostModel:
    """Per-record / per-batch cost attribution derived from a profile.

    ``snapshot()`` returns the same ``{"counters": ..., "gauges": ...}``
    shape as :meth:`MetricsRegistry.snapshot`, so the existing exporters
    (:func:`~repro.obs.export.to_prometheus`,
    :func:`~repro.obs.export.to_json`,
    :func:`~repro.obs.export.render_text`) work unchanged.
    """

    def __init__(
        self,
        profile: Dict[str, Dict[str, float]],
        records: int = 0,
        batches: int = 0,
    ) -> None:
        self.profile = profile
        self.records = records
        self.batches = batches

    @classmethod
    def from_profiler(
        cls, profiler: PhaseProfiler, records: int = 0, batches: int = 0
    ) -> "CostModel":
        return cls(profiler.snapshot(), records=records, batches=batches)

    # -- attribution -------------------------------------------------------

    def per_call(self) -> Dict[str, float]:
        """Mean seconds per phase entry (inclusive time)."""
        return {
            name: s["total_s"] / s["calls"]
            for name, s in self.profile.items()
            if s["calls"]
        }

    def per_record(self) -> Dict[str, float]:
        """Self seconds per phase attributed to each record."""
        if not self.records:
            return {}
        return {
            name: s["self_s"] / self.records for name, s in self.profile.items()
        }

    def per_batch(self) -> Dict[str, float]:
        """Self seconds per phase attributed to each batch/flush."""
        if not self.batches:
            return {}
        return {
            name: s["self_s"] / self.batches for name, s in self.profile.items()
        }

    def total_self_seconds(self) -> float:
        return sum(s["self_s"] for s in self.profile.values())

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Registry-shaped snapshot consumable by ``repro.obs.export``."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        for name, s in self.profile.items():
            label = "{phase=%s}" % name
            counters["profile.phase.calls" + label] = s["calls"]
            gauges["profile.phase.seconds" + label] = s["self_s"]
        for name, value in self.per_record().items():
            gauges["cost.per_record.seconds{phase=%s}" % name] = value
        for name, value in self.per_batch().items():
            gauges["cost.per_batch.seconds{phase=%s}" % name] = value
        if self.records:
            gauges["cost.records"] = self.records
        if self.batches:
            gauges["cost.batches"] = self.batches
        return {"counters": counters, "gauges": gauges, "histograms": {}}

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly attribution (used by bench history / monitor)."""
        return {
            "records": self.records,
            "batches": self.batches,
            "phases": self.profile,
            "per_record_s": self.per_record(),
            "per_batch_s": self.per_batch(),
            "total_self_s": self.total_self_seconds(),
        }

"""Continuous provenance health monitoring (watermark-based).

:class:`ProvenanceMonitor` periodically re-verifies a provenance store
*incrementally*: for every object it persists a verified watermark, the
:class:`~repro.provenance.store.Checkpoint` after the chain's leading
records that verified clean, and each :meth:`~ProvenanceMonitor.tick`
only walks the records past it.  Correctness rests on two facts:

* A chain walk's only carried state is the previous record's
  ``(seq_id, checksum, output digest, author)``, so a suffix walk seeded
  with the checkpoint performs byte-identical checks to the
  corresponding slice of a full walk (``Verifier._check_chain``).
* The checkpoint is re-derived from the live record at its position
  before any skip is trusted.  A missing anchor record, any change to
  it, or a chain shorter than its watermark means history was rewritten
  behind the monitor — that chain is re-verified from scratch and a
  ``watermark-regression`` alert fires (unless crash recovery rewound
  the watermark first; see ``RecoveryScanner._rewind_watermarks``).

Failures accumulate per object with *replace* semantics: whenever a
chain is re-verified from the start, its fresh failures replace the
accumulated ones, and a chain that verifies clean clears them.  A
suffix walk that fails triggers an authoritative full re-verify of that
chain, so :meth:`~ProvenanceMonitor.accumulated_failures` is always
byte-identical to what a one-shot full ``verify_records`` over the same
records would report.

Known limitation (inherent to watermarks): an in-place edit *behind*
every anchor that preserves chain lengths and tail checksums is not
seen by an incremental tick.  ``full_scan_every`` forces a periodic
full pass to bound that window; ``tick(full=True)`` forces one now.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.verifier import (
    ParallelVerifier,
    VerificationFailure,
    Verifier,
)
from repro.crypto.pki import KeyStore
from repro.exceptions import ProvenanceError
from repro.monitor.alerts import Alert, AlertRule, TickContext, default_rules
from repro.obs import OBS
from repro.provenance.records import ProvenanceRecord
from repro.provenance.store import Checkpoint

__all__ = ["TickResult", "ProvenanceMonitor"]

#: Methods a store must expose for watermark persistence.
_WATERMARK_SURFACE = ("set_watermark", "get_watermark", "watermarks", "clear_watermark")


@dataclass(frozen=True)
class TickResult:
    """Outcome of one monitor tick."""

    tick: int
    #: ``cold`` (no usable watermark anywhere), ``incremental`` (at least
    #: one suffix skipped), ``full`` (forced full pass), or ``idle`` (the
    #: store is unchanged; only the anchors were re-checked).
    mode: str
    health: str  # "ok" | "degraded" | "tampered"
    records_total: int
    records_verified: int
    records_skipped: int
    objects_verified: int
    #: Objects whose watermark advanced this tick.
    advanced: Tuple[str, ...]
    #: ``(object_id, reason)`` watermark regressions detected this tick.
    regressions: Tuple[Tuple[str, str], ...]
    alerts: Tuple[Alert, ...]
    #: Records past the watermarks *after* this tick.
    lag_records: int
    duration_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "tick": self.tick,
            "mode": self.mode,
            "health": self.health,
            "records_total": self.records_total,
            "records_verified": self.records_verified,
            "records_skipped": self.records_skipped,
            "objects_verified": self.objects_verified,
            "advanced": list(self.advanced),
            "regressions": [list(r) for r in self.regressions],
            "alerts": [a.to_dict() for a in self.alerts],
            "lag_records": self.lag_records,
            "duration_seconds": self.duration_seconds,
        }


class ProvenanceMonitor:
    """Watermark-based incremental verification with alerting.

    Args:
        store: A provenance store exposing the watermark surface
            (both bundled stores do; :class:`FaultyStore` delegates it).
        keystore: Trust store for signature verification.
        workers: Worker processes for cold/full passes (suffix walks are
            always serial — suffixes are short by construction).  Reuses
            :class:`ParallelVerifier` when > 1.
        rules: Alert rules; defaults to :func:`default_rules` built from
            the thresholds below.
        lag_threshold: ``watermark-lag`` alert threshold (records).
        latency_threshold: ``store-latency`` p99 threshold (seconds).
        phase_slos: Per-phase mean-latency SLOs (seconds per call) for
            the ``phase-latency-slo`` rule; only meaningful when a
            :func:`repro.obs.enable_profile` profiler is attached.
        full_scan_every: Force a full (watermark-ignoring) pass every Nth
            tick; ``0`` disables the cadence.
        witness_log: Optional :class:`repro.trust.witness.AnchorLog` of
            external witness anchors.  When set (with its verifier),
            every tick — including the idle fast path — cross-checks the
            store against the anchors and fires ``witness-mismatch`` on
            any contradiction.  This is the one check that survives a
            full-coalition suffix rewrite, which is internally consistent
            and invisible to signature verification.
        witness_verifier: The witness's public-material verifier
            (``Witness.verifier()``); required alongside ``witness_log``.
    """

    def __init__(
        self,
        store,
        keystore: KeyStore,
        workers: int = 1,
        rules: Optional[Sequence[AlertRule]] = None,
        lag_threshold: int = 64,
        latency_threshold: float = 0.5,
        phase_slos: Optional[Dict[str, float]] = None,
        full_scan_every: int = 0,
        witness_log=None,
        witness_verifier=None,
        name: Optional[str] = None,
    ):
        if (witness_log is None) != (witness_verifier is None):
            raise ProvenanceError(
                "witness_log and witness_verifier must be given together "
                "(anchors are meaningless without the key to check them)"
            )
        for method in _WATERMARK_SURFACE:
            if not callable(getattr(store, method, None)):
                raise ProvenanceError(
                    f"store {store!r} has no {method}() — it does not expose "
                    "the verified-watermark surface the monitor needs"
                )
        self.store = store
        if workers and workers > 1:
            self.verifier: Verifier = ParallelVerifier(keystore, workers=workers)
        else:
            self.verifier = Verifier(keystore)
        self.rules: Tuple[AlertRule, ...] = tuple(
            rules if rules is not None
            else default_rules(lag_threshold, latency_threshold, phase_slos)
        )
        self.full_scan_every = max(0, int(full_scan_every))
        self.witness_log = witness_log
        self.witness_verifier = witness_verifier
        #: Optional label stamped onto this monitor's alert/tick events
        #: (the service sets the tenant id, so a multi-tenant event
        #: stream attributes raw monitor events without joining).  None
        #: keeps single-monitor event streams byte-identical to before.
        self.name = name
        self._tick = 0
        #: Authoritative per-object failures (replace semantics).
        self._failures: Dict[str, Tuple[VerificationFailure, ...]] = {}
        #: Sticky watermark regressions: object id → reason.  A regression
        #: is only *observable* while the stale watermark exists, so it is
        #: remembered here and the watermark is left untouched as evidence
        #: — otherwise the next tick would re-watermark the rewritten
        #: chain and the tamper signal would self-heal.  Cleared by
        #: :meth:`acknowledge_regression` (operator action).
        self._regressions: Dict[str, str] = {}
        self._alerts: Tuple[Alert, ...] = ()
        self._health = "ok"
        self._degraded_seen = 0.0

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------

    def tick(self, full: bool = False) -> TickResult:
        """Run one verification pass; returns what it found and fired."""
        self._tick += 1
        if self.full_scan_every and self._tick % self.full_scan_every == 0:
            full = True
        log = OBS.events
        scope = log.correlation() if log is not None else nullcontext()
        began = perf_counter()
        with obs.phase("monitor.tick"), scope:
            watermarks = {wm.object_id: wm for wm in self.store.watermarks()}

            if not full and self._idle_fast_path_ok(watermarks):
                return self._finish_tick(
                    mode="idle", chains={},
                    records_total=len(self.store), verified=0,
                    skipped=len(self.store), objects_verified=0, advanced=(),
                    log=log, watermarks=watermarks, began=began,
                )

            records = list(self.store.all_records())
            chains: Dict[str, List[ProvenanceRecord]] = {}
            for record in records:
                chains.setdefault(record.object_id, []).append(record)
            for chain in chains.values():
                chain.sort(key=lambda r: r.seq_id)

            skip, fresh_regressions = self._compute_skip(chains, watermarks, full)
            for oid, reason in fresh_regressions:
                self._regressions.setdefault(oid, reason)
            skipped = sum(checkpoint.index for checkpoint in skip.values())

            if full or not skip:
                # Cold/full pass: route through the (possibly parallel)
                # whole-chain verifier.
                report = self.verifier.verify_records(records)
                mode = "full" if full else "cold"
            else:
                report = self.verifier.verify_incremental(records, skip)
                mode = "incremental"

            by_object: Dict[str, List[VerificationFailure]] = {}
            for failure in report.failures:
                by_object.setdefault(failure.object_id, []).append(failure)

            # A failing *suffix* walk is a detection, not a diagnosis: the
            # authoritative failure list for that chain comes from a full
            # re-walk, so accumulated failures stay byte-identical to a
            # one-shot full verify.
            suspects = sorted(
                oid for oid in by_object
                if oid in skip and skip[oid].index < len(chains[oid])
            )
            if suspects:
                re_skip = {
                    oid: Checkpoint.after(chain, len(chain))
                    for oid, chain in chains.items() if oid not in suspects
                }
                # observe=False: this is the diagnosis half of the same
                # logical pass — observing it would double-count failures.
                re_report = self.verifier.verify_incremental(
                    records, re_skip, observe=False
                )
                re_by_object: Dict[str, List[VerificationFailure]] = {}
                for failure in re_report.failures:
                    re_by_object.setdefault(failure.object_id, []).append(failure)
                for oid in suspects:
                    by_object[oid] = re_by_object.get(oid, [])

            advanced: List[str] = []
            for oid in sorted(chains):
                chain = chains[oid]
                failures = tuple(by_object.get(oid, ()))
                if failures:
                    self._failures[oid] = failures
                    continue  # never advance a watermark over a failing chain
                self._failures.pop(oid, None)
                if oid in self._regressions:
                    # Keep the stale watermark: it *is* the evidence that the
                    # chain was rewritten underneath it.  Re-watermarking the
                    # (internally consistent) rewritten chain would silently
                    # accept the tampered history.
                    continue
                watermark = Checkpoint.after(chain, len(chain))
                if watermarks.get(oid) != watermark:
                    self.store.set_watermark(watermark)
                    advanced.append(oid)
                    if log is not None:
                        log.emit(
                            "monitor.watermark",
                            object_id=oid, index=watermark.index,
                            seq_id=watermark.seq_id,
                        )
            # Objects that vanished (e.g. purged with a stale watermark left
            # by a non-store actor) were already reported as regressions.
            for oid in list(self._failures):
                if oid not in chains:
                    del self._failures[oid]

            return self._finish_tick(
                mode=mode, chains=chains,
                records_total=len(records), verified=report.records_checked,
                skipped=skipped, objects_verified=report.objects_checked,
                advanced=tuple(advanced), log=log, watermarks=None,
                began=began,
            )

    # ------------------------------------------------------------------
    # tick helpers
    # ------------------------------------------------------------------

    def _idle_fast_path_ok(self, watermarks: Dict[str, Checkpoint]) -> bool:
        """True when the store provably matches the verified state.

        Conditions: every object with records has a watermark, the total
        record count equals the covered count, and every chain tail is
        exactly its watermark's anchor.  Any append, tail truncation, or
        tail rewrite breaks one of these; the residual blind spot
        (balanced behind-anchor edits) is the watermark limitation
        covered by ``full_scan_every`` (module docstring).
        """
        if not watermarks or self._failures or self._regressions:
            return False
        if len(self.store) != sum(wm.index for wm in watermarks.values()):
            return False
        if set(self.store.object_ids()) != set(watermarks):
            return False
        tail_of = getattr(self.store, "_tail", None)
        for oid in sorted(watermarks):
            wm = watermarks[oid]
            if tail_of is not None:
                tail = tail_of(oid)
                tail = tail[:2] if tail is not None else None
            else:
                latest = self.store.latest(oid)
                tail = (latest.seq_id, latest.checksum) if latest else None
            if tail != (wm.seq_id, wm.checksum):
                return False
        return True

    def _compute_skip(
        self,
        chains: Dict[str, List[ProvenanceRecord]],
        watermarks: Dict[str, Checkpoint],
        full: bool,
    ) -> Tuple[Dict[str, Checkpoint], Tuple[Tuple[str, str], ...]]:
        """Validate each watermark anchor; invalid ones become regressions.

        Returns the watermarks a suffix walk may resume from.  A
        watermark is valid only if it equals the checkpoint re-derived
        from the live record at its position: the walk is seeded from
        the stored copy, so an edit of the anchor record — even one that
        keeps its checksum — must not be trusted.

        Anchors are validated even on a full pass — a full scan verifies
        *content* but cannot see *removal* (a truncated chain is shorter
        yet internally valid), so regression detection must never be
        skipped.  Full mode only stops the anchors being trusted for
        skipping.

        A chain with accumulated failures is never skipped either, even
        behind a valid anchor: a full scan can detect tampering *behind*
        the anchor, and trusting the watermark afterwards would skip the
        chain, report it clean, and silently clear the evidence — the
        same "never advance a watermark over a failing chain" rule,
        applied to skipping.  Its failures only change when a fresh full
        walk of that chain replaces (or clears) them.
        """
        skip: Dict[str, Checkpoint] = {}
        regressions: List[Tuple[str, str]] = []
        for oid in sorted(chains):
            chain = chains[oid]
            wm = watermarks.get(oid)
            if wm is None:
                continue
            if wm.index <= 0:
                regressions.append((
                    oid,
                    f"malformed watermark index {wm.index} (must cover at "
                    "least one record)",
                ))
                continue
            if wm.index > len(chain):
                regressions.append((
                    oid,
                    f"chain has {len(chain)} records but the watermark "
                    f"covers {wm.index}",
                ))
                continue
            if Checkpoint.after(chain, wm.index) != wm:
                regressions.append((
                    oid,
                    f"anchor record at position {wm.index - 1} changed "
                    f"(expected seq {wm.seq_id})",
                ))
                continue
            if not full and oid not in self._failures:
                skip[oid] = wm
        for oid in sorted(watermarks):
            if oid not in chains:
                regressions.append((oid, "chain is gone but its watermark remains"))
        return skip, tuple(regressions)

    def _finish_tick(
        self, mode, chains, records_total, verified,
        skipped, objects_verified, advanced, log, watermarks, began,
    ) -> TickResult:
        regressions = tuple(sorted(self._regressions.items()))
        lag = self._lag_records(chains, watermarks)
        ctx = TickContext(
            tick=self._tick,
            tally=self.accumulated_tally(),
            regressions=regressions,
            lag_records=lag,
            degraded_chunks=self._degraded_delta(),
            store_p99=self._store_p99(),
            phase_latencies=self._phase_latencies(),
            witness_mismatches=self._witness_mismatches(),
        )
        alerts: List[Alert] = []
        for rule in self.rules:
            alerts.extend(rule.evaluate(ctx))
        self._alerts = tuple(alerts)
        if any(a.tampering for a in alerts):
            self._health = "tampered"
        elif alerts:
            self._health = "degraded"
        else:
            self._health = "ok"
        if log is not None:
            tag = {} if self.name is None else {"monitor": self.name}
            for alert in alerts:
                log.emit("alert", **alert.to_dict(), **tag)
            log.emit(
                "monitor.tick",
                tick=self._tick, mode=mode, health=self._health,
                records_total=records_total, verified=verified,
                skipped=skipped, advanced=len(advanced),
                regressions=len(regressions), alerts=len(alerts),
                lag_records=lag, **tag,
            )
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("monitor.ticks", mode=mode).inc()
            reg.counter("monitor.records_verified").inc(verified)
            reg.counter("monitor.records_skipped").inc(skipped)
            reg.gauge("monitor.lag_records").set(lag)
            for alert in alerts:
                reg.counter("monitor.alerts", rule=alert.rule).inc()
        return TickResult(
            tick=self._tick, mode=mode, health=self._health,
            records_total=records_total, records_verified=verified,
            records_skipped=skipped, objects_verified=objects_verified,
            advanced=tuple(advanced), regressions=regressions,
            alerts=tuple(alerts), lag_records=lag,
            duration_seconds=perf_counter() - began,
        )

    def _witness_mismatches(self) -> Tuple[VerificationFailure, ...]:
        """Store-vs-anchor contradictions (empty without a witness).

        Runs on *every* tick, idle fast path included: the fast path
        proves the store matches the last verified state, but a
        full-coalition rewrite that also rewinds the watermarks is
        internally consistent — only the external anchors contradict it.
        """
        if self.witness_log is None:
            return ()
        from repro.trust.witness import check_anchors

        return check_anchors(self.store, self.witness_log, self.witness_verifier)

    def _lag_records(self, chains, watermarks) -> int:
        """Records past the watermarks *after* the tick's advances."""
        if not chains:
            return 0
        lag = 0
        for oid, chain in chains.items():
            wm = (
                watermarks.get(oid) if watermarks is not None
                else self.store.get_watermark(oid)
            )
            covered = min(wm.index, len(chain)) if wm is not None else 0
            lag += len(chain) - covered
        return lag

    def _degraded_delta(self) -> int:
        if not OBS.enabled:
            return 0
        counter = OBS.registry.find_counter("verify.degraded_chunks")
        current = counter.value if counter is not None else 0.0
        delta = current - self._degraded_seen
        self._degraded_seen = current
        return int(delta)

    def _store_p99(self) -> Optional[float]:
        if not OBS.enabled:
            return None
        histogram = OBS.registry.find_histogram("store.txn.seconds")
        if histogram is None or histogram.count == 0:
            return None
        summary = histogram.summary()
        return float(summary["p99"])

    @staticmethod
    def _phase_latencies() -> Dict[str, float]:
        """Mean seconds per call per profiled phase (empty without one)."""
        prof = OBS.profiler
        if prof is None:
            return {}
        return {
            name: s["total_s"] / s["calls"]
            for name, s in prof.snapshot().items()
            if s["calls"]
        }

    # ------------------------------------------------------------------
    # accumulated state
    # ------------------------------------------------------------------

    @property
    def health(self) -> str:
        return self._health

    @property
    def alerts(self) -> Tuple[Alert, ...]:
        """Alerts fired by the most recent tick."""
        return self._alerts

    @property
    def has_tamper_alerts(self) -> bool:
        return any(a.tampering for a in self._alerts)

    @property
    def regressions(self) -> Tuple[Tuple[str, str], ...]:
        """Sticky ``(object_id, reason)`` watermark regressions."""
        return tuple(sorted(self._regressions.items()))

    def acknowledge_regression(self, object_id: str) -> bool:
        """Operator action: accept a regressed chain's current history.

        Clears the sticky regression *and* the stale watermark, so the
        next tick re-verifies the chain from scratch and re-watermarks
        it.  Returns False if no regression was recorded for the object.
        """
        if object_id not in self._regressions:
            return False
        del self._regressions[object_id]
        self.store.clear_watermark(object_id)
        return True

    def accumulated_failures(self) -> Tuple[VerificationFailure, ...]:
        """All current failures, in full-verify order (sorted objects,
        walk order within each chain)."""
        items: List[VerificationFailure] = []
        for oid in sorted(self._failures):
            items.extend(self._failures[oid])
        return tuple(items)

    def accumulated_tally(self) -> Dict[str, int]:
        """Failure counts by requirement code, like ``failure_tally()``."""
        tally: Dict[str, int] = {}
        for failure in self.accumulated_failures():
            tally[failure.requirement] = tally.get(failure.requirement, 0) + 1
        return dict(sorted(tally.items()))

    def snapshot(self) -> Dict[str, object]:
        """JSON-able health snapshot (what ``repro monitor --once`` prints)."""
        snap: Dict[str, object] = {
            "tick": self._tick,
            "health": self._health,
            "records": len(self.store),
            "objects": len(self.store.object_ids()),
            "watermarks": [wm.to_dict() for wm in self.store.watermarks()],
            "failure_tally": self.accumulated_tally(),
            "failures": [str(f) for f in self.accumulated_failures()],
            "regressions": [list(r) for r in self.regressions],
            "alerts": [a.to_dict() for a in self._alerts],
        }
        prof = OBS.profiler
        if prof is not None:
            from repro.obs.profile import CostModel

            snap["phase_costs"] = CostModel.from_profiler(
                prof, records=len(self.store)
            ).to_dict()
        return snap

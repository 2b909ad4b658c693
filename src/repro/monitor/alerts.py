"""Alert rules for the provenance health monitor.

Each :class:`AlertRule` inspects one :class:`TickContext` — the distilled
outcome of a monitor tick — and emits zero or more :class:`Alert`\\ s.
Rules are deliberately *stateless*: everything they need is in the
context, so the same tick always produces the same alerts (the event
stream's determinism guarantee extends to alerts).

The default rule set covers the four conditions the monitor exists to
surface:

==========================  ========  ========================================
rule                        severity  fires when
==========================  ========  ========================================
``tamper``                  critical  accumulated verification failures exist
                                      (one alert per requirement code R1–R8,
                                      PKI, STRUCT, with its count)
``watermark-regression``    critical  a chain is shorter than its watermark or
                                      the anchor record changed — the signature
                                      of records being *removed* behind the
                                      monitor's back (R2-suspect); legitimate
                                      crash recovery rewinds the watermark
                                      first, so it never trips this
``watermark-lag``           warning   records past the watermarks exceed a
                                      threshold after the tick (the monitor
                                      cannot keep up, or chains keep failing)
``witness-mismatch``        critical  the store contradicts a witness anchor
                                      (anchored record missing or rewritten, or
                                      the anchor log itself damaged) — the one
                                      signal that survives a *full-coalition*
                                      suffix rewrite; inert until the monitor
                                      is given a witness log and verifier
``store-latency``           warning   the ``store.txn.seconds`` p99 exceeds a
                                      threshold (requires metrics enabled)
``degraded-chunks``         warning   parallel verification degraded chunks to
                                      serial re-verification this tick (worker
                                      deaths — see ``verify.degraded_chunks``)
``phase-latency-slo``       warning   a profiled phase's mean seconds per call
                                      exceeds its configured SLO (requires a
                                      :func:`repro.obs.enable_profile` profiler
                                      and explicit per-phase SLOs)
==========================  ========  ========================================

``tamper``, ``watermark-regression`` and ``witness-mismatch`` alerts
carry ``tampering=True``; they trip the ``tampered`` health state and
make ``repro monitor --once`` exit non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.verifier import VerificationFailure

__all__ = [
    "Alert",
    "AlertRule",
    "TickContext",
    "TamperRule",
    "WatermarkRegressionRule",
    "WitnessMismatchRule",
    "WatermarkLagRule",
    "StoreLatencyRule",
    "DegradedChunksRule",
    "PhaseLatencySLORule",
    "default_rules",
]


@dataclass(frozen=True)
class Alert:
    """One fired alert."""

    rule: str
    severity: str  # "critical" | "warning"
    message: str
    #: True for alerts that are *evidence of tampering* (they trip the
    #: ``tampered`` health state and the CLI's non-zero exit).
    tampering: bool = False
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "tampering": self.tampering,
            "fields": dict(self.fields),
        }

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule}: {self.message}"


@dataclass(frozen=True)
class TickContext:
    """What one monitor tick exposes to the alert rules."""

    tick: int
    #: Accumulated per-requirement failure counts (monitor-wide, not just
    #: this tick) — byte-identical to a full verify's ``failure_tally()``.
    tally: Dict[str, int]
    #: ``(object_id, reason)`` pairs for watermark anchors that no longer
    #: match the chain (chain shorter than the watermark, anchor record
    #: changed, or chain gone entirely).
    regressions: Tuple[Tuple[str, str], ...]
    #: Records past all watermarks *after* this tick (0 when every chain
    #: verified clean and the watermarks advanced to the tails).
    lag_records: int
    #: ``verify.degraded_chunks`` counter growth since the previous tick.
    degraded_chunks: int
    #: p99 of the ``store.txn.seconds`` histogram, when metrics are on.
    store_p99: Optional[float]
    #: Mean seconds per call per profiled phase (empty when no profiler
    #: is attached) — what the ``phase-latency-slo`` rule consumes.
    phase_latencies: Dict[str, float] = field(default_factory=dict)
    #: ``VerificationFailure`` contradictions between the store and the
    #: witness anchor log (see :func:`repro.trust.witness.check_anchors`);
    #: always empty when the monitor has no witness configured.
    witness_mismatches: Tuple["VerificationFailure", ...] = ()


class AlertRule:
    """Base class: evaluate one context into zero or more alerts."""

    name = "rule"

    def evaluate(self, ctx: TickContext) -> List[Alert]:
        raise NotImplementedError


class TamperRule(AlertRule):
    """Accumulated verification failures, one alert per requirement."""

    name = "tamper"

    def evaluate(self, ctx: TickContext) -> List[Alert]:
        alerts = []
        for code, count in sorted(ctx.tally.items()):
            alerts.append(Alert(
                rule=self.name,
                severity="critical",
                message=f"verification failures detected by {code} (x{count})",
                tampering=True,
                fields={"requirement": code, "count": count},
            ))
        return alerts


class WatermarkRegressionRule(AlertRule):
    """A chain regressed behind its verified watermark (R2-suspect)."""

    name = "watermark-regression"

    def evaluate(self, ctx: TickContext) -> List[Alert]:
        return [
            Alert(
                rule=self.name,
                severity="critical",
                message=(
                    f"chain of {object_id!r} no longer matches its verified "
                    f"watermark ({reason}) — records were removed or replaced "
                    "without a recovery rewind"
                ),
                tampering=True,
                fields={"object_id": object_id, "reason": reason},
            )
            for object_id, reason in ctx.regressions
        ]


class WitnessMismatchRule(AlertRule):
    """The store contradicts an external witness anchor.

    The checksum chain alone concedes one attack: a coalition owning an
    *entire* chain suffix can re-sign it into an internally consistent
    forgery no signature check flags.  A witness anchor is outside the
    coalition's keys, so the contradiction between the anchored tail and
    the rewritten store is the surviving tamper signal — hence
    ``tampering=True`` and critical severity.
    """

    name = "witness-mismatch"

    def evaluate(self, ctx: TickContext) -> List[Alert]:
        return [
            Alert(
                rule=self.name,
                severity="critical",
                message=(
                    f"store state of {failure.object_id!r} contradicts the "
                    f"witness anchor log ({failure.message})"
                ),
                tampering=True,
                fields={
                    "object_id": failure.object_id,
                    "seq_id": failure.seq_id,
                    "reason": failure.message,
                },
            )
            for failure in ctx.witness_mismatches
        ]


class WatermarkLagRule(AlertRule):
    """Unverified backlog past the watermarks exceeds a threshold."""

    name = "watermark-lag"

    def __init__(self, threshold: int = 64):
        self.threshold = max(0, int(threshold))

    def evaluate(self, ctx: TickContext) -> List[Alert]:
        if ctx.lag_records <= self.threshold:
            return []
        return [Alert(
            rule=self.name,
            severity="warning",
            message=(
                f"{ctx.lag_records} records remain unverified past the "
                f"watermarks (threshold {self.threshold})"
            ),
            fields={"lag_records": ctx.lag_records, "threshold": self.threshold},
        )]


class StoreLatencyRule(AlertRule):
    """Store transaction p99 latency breached a threshold."""

    name = "store-latency"

    def __init__(self, threshold_seconds: float = 0.5):
        self.threshold_seconds = float(threshold_seconds)

    def evaluate(self, ctx: TickContext) -> List[Alert]:
        if ctx.store_p99 is None or ctx.store_p99 <= self.threshold_seconds:
            return []
        return [Alert(
            rule=self.name,
            severity="warning",
            message=(
                f"store.txn.seconds p99 is {ctx.store_p99:.4f}s "
                f"(threshold {self.threshold_seconds:.4f}s)"
            ),
            fields={"p99": ctx.store_p99, "threshold": self.threshold_seconds},
        )]


class DegradedChunksRule(AlertRule):
    """Parallel verification lost workers and degraded chunks to serial."""

    name = "degraded-chunks"

    def evaluate(self, ctx: TickContext) -> List[Alert]:
        if ctx.degraded_chunks <= 0:
            return []
        return [Alert(
            rule=self.name,
            severity="warning",
            message=(
                f"{ctx.degraded_chunks} verification chunk(s) degraded to "
                "serial re-verification (worker deaths)"
            ),
            fields={"chunks": ctx.degraded_chunks},
        )]


class PhaseLatencySLORule(AlertRule):
    """A profiled phase's mean per-call latency breached its SLO.

    ``slos`` maps phase names (see :data:`repro.obs.profile.PHASES`) to
    maximum mean seconds per call.  Phases without an SLO — and ticks
    without an attached profiler — never fire, so the rule is inert
    until both a profiler and explicit SLOs are configured.
    """

    name = "phase-latency-slo"

    def __init__(self, slos: Optional[Dict[str, float]] = None):
        self.slos = dict(slos or {})

    def evaluate(self, ctx: TickContext) -> List[Alert]:
        alerts = []
        for phase, limit in sorted(self.slos.items()):
            observed = ctx.phase_latencies.get(phase)
            if observed is None or observed <= limit:
                continue
            alerts.append(Alert(
                rule=self.name,
                severity="warning",
                message=(
                    f"phase {phase!r} mean latency {observed:.6f}s/call "
                    f"exceeds its SLO of {limit:.6f}s/call"
                ),
                fields={"phase": phase, "mean_s": observed, "slo_s": limit},
            ))
        return alerts


def default_rules(
    lag_threshold: int = 64,
    latency_threshold: float = 0.5,
    phase_slos: Optional[Dict[str, float]] = None,
) -> Tuple[AlertRule, ...]:
    """The standard rule set (see the module docstring's table)."""
    return (
        TamperRule(),
        WatermarkRegressionRule(),
        WitnessMismatchRule(),
        WatermarkLagRule(lag_threshold),
        StoreLatencyRule(latency_threshold),
        DegradedChunksRule(),
        PhaseLatencySLORule(phase_slos),
    )

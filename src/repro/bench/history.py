"""Bench history: attributable benchmark entries and a regression gate.

``BENCH_*.json`` files are overwritten snapshots; this module gives the
benchmarks a *trajectory*.  Every entry appended to ``BENCH_HISTORY.jsonl``
is one JSON object per line::

    {
      "kind": "gate" | "full",
      "meta": {git_sha, timestamp_utc, hostname, python, cpu_count},
      "fingerprint": "<sha256[:12] of the workload parameters>",
      "metrics": {"sign.rsa.per_record_s": ..., ...},
      "profile": {...}          # optional phase attribution (gate entries)
    }

``kind="full"`` entries are appended by ``benchmarks/run_all.py`` (all
guard metrics, full workload); ``kind="gate"`` entries come from the
``repro bench`` CLI's small fixed-seed workload.  Comparisons only ever
consider entries with the *same* kind and fingerprint — wall-clock
numbers from different workloads (or workload sizes) are not comparable.

The gate (``repro bench gate --baseline N --tolerance 0.10``) re-runs
the fixed-seed workload, compares each gated metric against the median
of the last ``N`` matching history entries, and reports a regression
when a lower-is-better metric exceeds ``median * (1 + tolerance)``.
Medians over a short window absorb one-off outliers; the fixed seed and
fixed workload shape keep run-to-run variance on the same machine well
inside the default 10% tolerance.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "collect_meta",
    "with_meta",
    "flatten_metrics",
    "workload_fingerprint",
    "make_entry",
    "append_entry",
    "read_history",
    "matching_entries",
    "find_by_sha",
    "median",
    "GATE_METRICS",
    "gate_check",
    "compare_entries",
    "signed_append",
    "run_gate_workload",
    "GATE_WORKLOAD",
]


# ---------------------------------------------------------------------------
# entry plumbing
# ---------------------------------------------------------------------------


def collect_meta() -> Dict[str, object]:
    """Attribution block for benchmark outputs (satellite of ISSUE 7).

    Git metadata degrades to ``"unknown"`` outside a repository (e.g. an
    installed wheel running the gate in a scratch directory).
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def with_meta(metrics: Dict[str, object]) -> Dict[str, object]:
    """A copy of ``metrics`` with the attribution ``meta`` block added.

    All ``BENCH_*.json`` writers route through this so every committed
    snapshot says which commit, host, and interpreter produced it.
    """
    payload: Dict[str, object] = {"meta": collect_meta()}
    payload.update(metrics)
    return payload


def flatten_metrics(
    metrics: Dict[str, object], prefix: str = ""
) -> Dict[str, float]:
    """Flatten nested numeric metrics into dot-keyed floats.

    Non-numeric leaves (strings, lists) are dropped; booleans become
    0.0/1.0.  Used to turn a benchmark's ``result.metrics`` tree into a
    history entry's flat ``metrics`` map.
    """
    flat: Dict[str, float] = {}
    for key, value in metrics.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, prefix=name + "."))
        elif isinstance(value, bool):
            flat[name] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
    return flat


def workload_fingerprint(params: Dict[str, object]) -> str:
    """Stable short id of a workload's parameters (sorted-key JSON)."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def make_entry(
    kind: str,
    fingerprint: str,
    metrics: Dict[str, object],
    profile: Optional[Dict[str, object]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "kind": kind,
        "meta": meta if meta is not None else collect_meta(),
        "fingerprint": fingerprint,
        "metrics": metrics,
    }
    if profile is not None:
        entry["profile"] = profile
    return entry


def append_entry(path: str, entry: Dict[str, object]) -> None:
    """Append one entry as a JSONL line (creates the file if missing)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")


def read_history(path: str) -> List[Dict[str, object]]:
    """All well-formed entries, oldest first; malformed lines are skipped.

    Tolerance matters: a crash mid-append leaves a torn last line, and a
    torn line must not take the whole trajectory down with it.
    """
    entries: List[Dict[str, object]] = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and "metrics" in entry:
                entries.append(entry)
    return entries


def matching_entries(
    history: Sequence[Dict[str, object]], kind: str, fingerprint: str
) -> List[Dict[str, object]]:
    """Entries comparable to (kind, fingerprint), oldest first."""
    return [
        e for e in history
        if e.get("kind") == kind and e.get("fingerprint") == fingerprint
    ]


def find_by_sha(
    history: Sequence[Dict[str, object]], sha: str
) -> Optional[Dict[str, object]]:
    """Latest entry whose git SHA starts with ``sha`` (short SHAs fine)."""
    for entry in reversed(history):
        full = str(entry.get("meta", {}).get("git_sha", ""))
        if full.startswith(sha):
            return entry
    return None


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of an empty sequence")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

#: Gated metrics with their regression direction.  All are absolute
#: per-record wall times (direction ``lower``): a slowdown anywhere in
#: the signing or verification path moves one of them up.  Ratio metrics
#: (speedups) are recorded in entries but not gated — a ratio can mask
#: an absolute regression that slows both of its terms.
GATE_METRICS: Dict[str, str] = {
    "sign.rsa.per_record_s": "lower",
    "sign.merkle.per_record_s": "lower",
    "verify.per_record_s": "lower",
}


def gate_check(
    current: Dict[str, object],
    history: Sequence[Dict[str, object]],
    baseline: int,
    tolerance: float,
    metrics: Optional[Dict[str, str]] = None,
) -> Tuple[List[Dict[str, object]], int]:
    """Compare ``current`` against the median of the last ``baseline``
    comparable history entries.

    Returns ``(regressions, compared)`` where ``compared`` is how many
    baseline entries were actually available.  With no comparable
    history the gate passes vacuously (``compared == 0``) — a fresh
    clone must be able to bootstrap its own baseline.
    """
    spec = metrics if metrics is not None else GATE_METRICS
    comparable = matching_entries(
        history, str(current.get("kind", "gate")), str(current.get("fingerprint"))
    )[-max(1, int(baseline)):]
    regressions: List[Dict[str, object]] = []
    if not comparable:
        return regressions, 0
    current_metrics = current.get("metrics", {})
    for name, direction in sorted(spec.items()):
        value = current_metrics.get(name)
        baseline_values = [
            e["metrics"][name]
            for e in comparable
            if isinstance(e.get("metrics", {}).get(name), (int, float))
        ]
        if not isinstance(value, (int, float)) or not baseline_values:
            continue
        base = median(baseline_values)
        if base <= 0:
            continue
        ratio = float(value) / base
        regressed = (
            ratio > 1.0 + tolerance if direction == "lower"
            else ratio < 1.0 - tolerance
        )
        if regressed:
            regressions.append({
                "metric": name,
                "direction": direction,
                "current": float(value),
                "baseline_median": base,
                "ratio": ratio,
                "tolerance": tolerance,
            })
    return regressions, len(comparable)


def compare_entries(
    a: Dict[str, object], b: Dict[str, object]
) -> List[Tuple[str, object, object, Optional[float]]]:
    """Per-metric ``(name, value_a, value_b, ratio_b_over_a)`` rows."""
    metrics_a = a.get("metrics", {})
    metrics_b = b.get("metrics", {})
    rows: List[Tuple[str, object, object, Optional[float]]] = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        va, vb = metrics_a.get(name), metrics_b.get(name)
        ratio = None
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va:
            ratio = float(vb) / float(va)
        rows.append((name, va, vb, ratio))
    return rows


# ---------------------------------------------------------------------------
# the fixed-seed gate workload
# ---------------------------------------------------------------------------

#: Parameters of the gate's workload.  Changing any of these changes the
#: fingerprint, which retires old baselines automatically.
GATE_WORKLOAD: Dict[str, object] = {
    "workload": "gate-v1",
    "seed": 1234,
    "key_bits": 512,
    "flush_size": 16,
    "batches": 5,
    "runs": 5,
    "verify_objects": 40,
    "verify_updates": 3,
}


class _SlowdownScheme:
    """Test hook: proportionally slow every ``sign`` call.

    Wraps a signature scheme so each ``sign`` additionally sleeps for
    ``fraction`` of the time the underlying call took — a *real*,
    measurable signing-phase slowdown of known relative size, used to
    prove the gate trips (``repro bench gate --inject-slowdown``).
    All other attributes delegate to the wrapped scheme.
    """

    def __init__(self, inner, fraction: float):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_fraction", float(fraction))

    def sign(self, message: bytes) -> bytes:
        start = time.perf_counter()
        signature = self._inner.sign(message)
        time.sleep((time.perf_counter() - start) * self._fraction)
        return signature

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)


def signed_append(
    scheme: str,
    *,
    key_bits: int,
    seed: int,
    batches: int,
    flush_size: int,
    runs: int,
    slowdown: float = 0.0,
):
    """Time the end-to-end signed-append arm: a :class:`TimingResult`.

    Each run signs ``batches`` flushes.  Each batch is one complex
    operation updating ``flush_size`` flat objects, so every flush
    stages exactly ``flush_size`` records: per-record RSA signs each of
    them, Merkle-batch signs one root.  ``slowdown`` > 0 wraps the
    signer in :class:`_SlowdownScheme`.
    """
    import itertools

    from repro.bench.timer import measure
    from repro.core.system import TamperEvidentDatabase

    db = TamperEvidentDatabase(key_bits=key_bits, seed=seed, signature_scheme=scheme)
    signer = db.enroll("signer")
    if slowdown > 0:
        signer.scheme = _SlowdownScheme(signer.scheme, slowdown)
    session = db.session(signer)
    with session.complex_operation():  # create objects untimed
        for j in range(flush_size):
            session.insert(f"s{j}", j)

    def one_run(run_no: int) -> None:
        for b in range(batches):
            with session.complex_operation():
                for j in range(flush_size):
                    session.update(f"s{j}", run_no * 10_000 + b)

    return measure(one_run, runs=runs, setup=itertools.count().__next__)


def run_gate_workload(
    slowdown: float = 0.0,
) -> Tuple[Dict[str, float], Dict[str, object], Dict[str, object]]:
    """The gate's small fixed-seed workload.

    Returns ``(metrics, profile, params)``: the gated per-record wall
    times (plus informational ratios), the merged phase attribution of
    the run (via :func:`repro.obs.enable_profile`), and the workload
    parameters whose fingerprint keys comparability.

    ``slowdown`` > 0 injects a proportional signing-phase slowdown (see
    :class:`_SlowdownScheme`) so the gate's sensitivity can be verified
    end to end.
    """
    from repro import obs
    from repro.bench.timer import measure
    from repro.core.verifier import Verifier
    from repro.obs.profile import PhaseProfiler
    from repro.workloads.signed import signed_world

    params = dict(GATE_WORKLOAD)
    seed = int(params["seed"])
    key_bits = int(params["key_bits"])
    flush_size = int(params["flush_size"])
    batches = int(params["batches"])
    runs = int(params["runs"])

    prior = obs.OBS.profiler
    profiler = obs.enable_profile(reset=True)
    try:
        signing_records = batches * flush_size
        rsa_s, merkle_s = (
            signed_append(
                scheme, key_bits=key_bits, seed=seed, batches=batches,
                flush_size=flush_size, runs=runs, slowdown=slowdown,
            ).best
            for scheme in ("rsa-pkcs1v15", "merkle-batch")
        )
        vdb, _ = signed_world(
            int(params["verify_objects"]), int(params["verify_updates"]),
            key_bits=key_bits, seed=seed, participant="gate-verify",
        )
        records = list(vdb.provenance_store.all_records())
        verifier = Verifier(vdb.keystore())
        reports = []
        verify_s = measure(
            lambda: reports.append(verifier.verify_records(records)), runs=runs
        ).best
        if not reports[-1].ok:
            raise RuntimeError(
                "gate workload failed verification: " + reports[-1].summary()
            )

        metrics: Dict[str, float] = {
            "sign.rsa.per_record_s": rsa_s / signing_records,
            "sign.merkle.per_record_s": merkle_s / signing_records,
            "verify.per_record_s": verify_s / len(records),
            "sign.speedup_merkle_vs_rsa": (
                rsa_s / merkle_s if merkle_s else float("inf")
            ),
            "verify.records": float(len(records)),
            "sign.records": float(signing_records),
        }
        profile = profiler.snapshot()
    finally:
        obs.OBS.profiler = prior if isinstance(prior, PhaseProfiler) else None
    return metrics, profile, params

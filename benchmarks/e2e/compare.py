"""Judge a change against its parent from ``run.py --json`` results.

    python benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... [--claim METRIC:WORKLOAD]

Runs are paired in the order given (parent run i with change run i);
make them by alternating which side runs first, with the same
``--seconds``, at least ten pairs.

- The claimed (metric, workload), if any, is met only when the change
  wins at least nine tenths of the pairs (ties count for neither side)
  and the medians differ, in the better direction, by more than the
  parent's interquartile range.
- Every other (metric, workload) must not be worse than the parent's
  median by more than the metric's bound from ``BENCHMARK.json`` (10%
  for metrics it does not list; any increase for ``failed_frac``).
  When either side's interquartile range exceeds the bound, the metric
  is "unresolved" unless every change run beats every parent run.

Prints one row per workload.  Exit status 0 when nothing regressed and
the claim, if any, was met; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_BOUND = 0.10
MIN_PAIRS = 10


def load_runs(paths: Sequence[str]) -> List[Dict[str, object]]:
    runs: List[Dict[str, object]] = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.extend(json.load(fh)["runs"])
    return runs


def series(runs: Sequence[Dict], workload: str, metric: str) -> Optional[List[float]]:
    values = []
    for run in runs:
        if run["workload"] != workload:
            continue
        m = run["metrics"].get(metric)
        if m is None:
            return None
        values.append(m["value"])
    return values or None


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge_claim(parent: Sequence[float], change: Sequence[float],
                higher: bool) -> Tuple[bool, str]:
    """The §8 rule: >= 9/10 pair wins and a median gap beyond the parent's IQR."""
    sign = 1 if higher else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    spread = iqr(parent)
    met = len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gap > spread
    note = (f"{wins}/{len(pairs)} wins, medians {statistics.median(parent):.4g} -> "
            f"{statistics.median(change):.4g}, parent IQR {spread:.4g}")
    if len(pairs) < MIN_PAIRS:
        note += f"; fewer than {MIN_PAIRS} pairs"
    return met, note


def judge_bound(parent: Sequence[float], change: Sequence[float], higher: bool,
                bound: float) -> Tuple[str, float]:
    """("ok" | "regressed" | "unresolved", relative worsening of the median)."""
    sign = 1 if higher else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    if mp:
        worse = sign * (mp - mc) / abs(mp)
    else:
        worse = float("inf") if sign * (mp - mc) > 0 else 0.0
    spread = max(iqr(parent) / abs(mp) if mp else 0.0, iqr(change) / abs(mc) if mc else 0.0)
    if spread > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("ok" if all_better else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent run.py --json files")
    parser.add_argument("--change", nargs="+", required=True, help="change run.py --json files")
    parser.add_argument("--claim", default=None, metavar="METRIC:WORKLOAD",
                        help="the improvement the change claims")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None

    failed = False
    claim_seen = False
    print(f"{'workload':<15}{'verdict':<15}notes")
    for workload in dict.fromkeys(r["workload"] for r in parent):
        notes: List[str] = []
        regressed = False
        claim_met: Optional[bool] = None
        reported = {m: v for r in parent if r["workload"] == workload
                    for m, v in r["metrics"].items()}
        for metric, first in reported.items():
            p, c = series(parent, workload, metric), series(change, workload, metric)
            if p is None or c is None:
                continue
            higher = first["better"] == "higher"
            if claim == (metric, workload):
                claim_seen = True
                claim_met, note = judge_claim(p, c, higher)
                notes.append(f"claim {metric} {'met' if claim_met else 'NOT met'}: {note}")
                continue
            default = 0.0 if metric == "failed_frac" else DEFAULT_BOUND
            bound = spec[metric]["bound"] if metric in spec else default
            status, worse = judge_bound(p, c, higher, bound)
            if status == "regressed":
                regressed = True
                notes.append(f"{metric} worse by {100 * worse:.1f}% (bound {100 * bound:g}%)")
            elif status == "unresolved":
                notes.append(f"{metric} unresolved (spread above {100 * bound:g}%)")
        if regressed:
            verdict = "regressed"
        elif claim_met is not None:
            verdict = "claim met" if claim_met else "claim NOT met"
        else:
            verdict = "ok"
        failed |= regressed or claim_met is False
        print(f"{workload:<15}{verdict:<15}{'; '.join(notes)}")
    if claim is not None and not claim_seen:
        print(f"claim {args.claim}: no such metric and workload in both sets", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

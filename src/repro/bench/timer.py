"""Timing with confidence intervals.

§5.1: "For all performance experiments, we report the average across 100
runs, including 95% confidence intervals."  :func:`measure` does the
same — the run count is a parameter because the pure-Python substrate is
slower per operation than the paper's Java/MySQL stack.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = ["TimingResult", "measure"]


@dataclass(frozen=True)
class TimingResult:
    """Mean and 95% CI of repeated timings (seconds)."""

    samples: Tuple[float, ...]

    @property
    def runs(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Mean duration in seconds."""
        return sum(self.samples) / len(self.samples)

    @property
    def best(self) -> float:
        """Fastest run in seconds: what the guarded benchmarks compare,
        since timer noise only ever adds time."""
        return min(self.samples)

    @property
    def ci95(self) -> float:
        """Half-width of the 95% confidence interval (0 for one run).

        Student-t based, matching small-sample practice.
        """
        from scipy import stats

        n = len(self.samples)
        if n < 2:
            return 0.0
        mean = self.mean
        variance = sum((s - mean) ** 2 for s in self.samples) / (n - 1)
        sem = math.sqrt(variance / n)
        t_crit = stats.t.ppf(0.975, df=n - 1)
        return float(t_crit * sem)

    def format(self, unit: str = "ms") -> str:
        """Render as ``mean ± ci`` in the chosen unit (s/ms/us)."""
        factor = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        return f"{self.mean * factor:.2f} ± {self.ci95 * factor:.2f} {unit}"


def measure(
    fn: Callable[[], object],
    runs: int = 5,
    setup: Optional[Callable[[], object]] = None,
) -> TimingResult:
    """Time ``fn`` ``runs`` times; ``setup`` (untimed) runs before each.

    When ``setup`` returns a value, it is passed to ``fn`` as its single
    argument — the usual build-fresh-state-then-operate pattern.
    """
    samples: List[float] = []
    for _ in range(runs):
        arg = setup() if setup is not None else None
        start = time.perf_counter()
        if setup is not None:
            fn(arg)
        else:
            fn()
        samples.append(time.perf_counter() - start)
    return TimingResult(samples=tuple(samples))

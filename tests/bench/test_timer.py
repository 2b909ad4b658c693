"""Unit tests for the timing harness."""

import math
import time

import pytest

from repro.bench.timer import TimingResult, measure


class TestTimingResult:
    def test_mean(self):
        result = TimingResult(samples=(0.1, 0.2, 0.3))
        assert math.isclose(result.mean, 0.2)
        assert result.runs == 3

    def test_best_is_the_fastest_run(self):
        assert TimingResult(samples=(0.3, 0.1, 0.2)).best == 0.1

    def test_single_run_has_zero_ci(self):
        assert TimingResult(samples=(0.5,)).ci95 == 0.0

    def test_ci_positive_for_spread(self):
        result = TimingResult(samples=(0.1, 0.2, 0.3, 0.4))
        assert result.ci95 > 0

    def test_ci_zero_for_identical_samples(self):
        result = TimingResult(samples=(0.2, 0.2, 0.2))
        assert result.ci95 == pytest.approx(0.0)

    def test_ci_matches_t_distribution(self):
        # n=5, known samples: verify against an independent computation.
        samples = (1.0, 2.0, 3.0, 4.0, 5.0)
        result = TimingResult(samples=samples)
        # sample std = sqrt(2.5), sem = sqrt(2.5/5), t_{0.975,4} ≈ 2.776
        expected = 2.7764451052 * math.sqrt(2.5 / 5)
        assert result.ci95 == pytest.approx(expected, rel=1e-6)

    def test_format_units(self):
        result = TimingResult(samples=(0.001, 0.001))
        assert "ms" in result.format("ms")
        assert result.format("ms").startswith("1.00")
        assert result.format("us").startswith("1000.00")
        assert result.format("s").startswith("0.00")


class TestMeasure:
    def test_runs_counted(self):
        calls = []
        result = measure(lambda: calls.append(1), runs=4)
        assert len(calls) == 4
        assert result.runs == 4

    def test_setup_untimed(self):
        def slow_setup():
            time.sleep(0.02)
            return "arg"

        seen = []

        def fast_fn(arg):
            seen.append(arg)

        result = measure(fast_fn, runs=2, setup=slow_setup)
        assert seen == ["arg", "arg"]
        assert result.mean < 0.02  # setup time excluded

    def test_measures_elapsed(self):
        result = measure(lambda: time.sleep(0.005), runs=2)
        assert result.mean >= 0.004

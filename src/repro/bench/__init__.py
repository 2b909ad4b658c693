"""Benchmark harness reproducing the paper's evaluation (§5).

- :mod:`repro.bench.timer` — mean ± 95% confidence interval over repeated
  runs (§5.1 reports "the average across 100 runs, including 95%
  confidence intervals"), and the best-of the guards compare.
- :mod:`repro.bench.reporting` — paper-style ASCII tables and series.
- :mod:`repro.bench.experiments` — one runnable experiment per figure
  (Fig 6–11), the Table 1(b) node counts, the §5.2 streaming scale test,
  the ablations, and the guarded benchmarks with their bounds.
- :mod:`repro.bench.history` — the bench trajectory and regression gate.

Nothing is re-exported, so importing one submodule (say, the table
formatter) does not load every experiment and scipy with it.
"""

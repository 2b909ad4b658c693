#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation.

Usage::

    python benchmarks/run_all.py [--scale 0.1] [--runs 3] [--key-bits 1024]
                                 [--stream-rows 100000] [--quick]

Prints the paper-style tables recorded in EXPERIMENTS.md.  ``--quick``
shrinks everything for a fast sanity pass.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.history import (
    append_entry,
    collect_meta,
    flatten_metrics,
    make_entry,
    with_meta,
    workload_fingerprint,
)
from repro.bench.experiments import (
    run_ablation_chaining,
    run_ablation_grouping,
    run_ablation_signature,
    run_batch_throughput,
    run_fig6,
    run_fig7,
    run_fig8_fig9,
    run_fig10_fig11,
    run_monitor_bench,
    run_obs_overhead,
    run_service_bench,
    run_streaming,
    run_table1b,
    run_trust_bench,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1,
                        help="workload scale factor vs the paper (default 0.1)")
    parser.add_argument("--runs", type=int, default=3,
                        help="timing repetitions (paper used 100)")
    parser.add_argument("--key-bits", type=int, default=1024,
                        help="RSA modulus bits (paper: 1024)")
    parser.add_argument("--stream-rows", type=int, default=100_000,
                        help="rows for the streaming scale test")
    parser.add_argument("--workers", type=int, default=4,
                        help="process count for the parallel-verify bench")
    parser.add_argument("--throughput-json", default=None,
                        help="where the batch-throughput metrics are written "
                             "(default BENCH_throughput.json, or skipped under "
                             "--quick; '-' to skip)")
    parser.add_argument("--history", default=None,
                        help="append a structured entry (git SHA, timestamp, "
                             "workload fingerprint, all guard metrics) to "
                             "this JSONL file (default BENCH_HISTORY.jsonl, "
                             "or skipped under --quick; '-' to skip)")
    parser.add_argument("--stats", action="store_true",
                        help="run the figure workloads with observability on "
                             "and print the collected metrics breakdown")
    parser.add_argument("--quick", action="store_true",
                        help="tiny everything, for smoke-testing")
    args = parser.parse_args(argv)

    throughput_records, throughput_objects = 10_000, 1_500
    service_clients = 300
    if args.quick:
        args.scale, args.runs, args.key_bits = 0.02, 2, 512
        args.stream_rows = 5_000
        throughput_records, throughput_objects = 2_000, 150
        service_clients = 60
    if args.throughput_json is None:
        # Quick smoke runs must not clobber the committed full-scale numbers.
        args.throughput_json = "-" if args.quick else "BENCH_throughput.json"
    if args.history is None:
        # Quick runs use non-comparable workload sizes; keep them out of
        # the trajectory.
        args.history = "-" if args.quick else "BENCH_HISTORY.jsonl"

    if args.stats:
        # Observe the whole run: every figure workload below reports into
        # the default registry, and a breakdown table closes the output.
        from repro import obs

        obs.enable(metrics=True, tracing=False, reset=True)

    started = time.perf_counter()
    print(run_table1b().render(), "\n")
    print(run_fig6(scale=args.scale, runs=args.runs).render(), "\n")
    print(run_fig7(scale=args.scale, runs=args.runs).render(), "\n")

    fig8, fig9 = run_fig8_fig9(
        scale=args.scale, runs=args.runs, key_bits=args.key_bits
    )
    print(fig8.render(), "\n")
    print(fig9.render(), "\n")

    fig10, fig11 = run_fig10_fig11(
        scale=args.scale, runs=args.runs, key_bits=args.key_bits
    )
    print(fig10.render(), "\n")
    print(fig11.render(), "\n")

    throughput = run_batch_throughput(
        n_records=throughput_records,
        workers=args.workers,
        runs=args.runs,
        verify_objects=throughput_objects,
        key_bits=args.key_bits if not args.quick else 512,
    )
    print(throughput.render(), "\n")
    if args.throughput_json != "-":
        with open(args.throughput_json, "w") as fh:
            json.dump(with_meta(throughput.metrics), fh, indent=2)
        print(f"throughput metrics written to {args.throughput_json}\n")

    print(run_streaming(rows=args.stream_rows).render(), "\n")
    print(run_ablation_chaining().render(), "\n")
    print(run_ablation_signature(runs=args.runs, key_bits=args.key_bits).render(), "\n")
    print(run_ablation_grouping().render(), "\n")

    if args.stats:
        # Print before the overhead benchmark below, which manages (and
        # resets) the observability state itself.
        from repro import obs
        from repro.bench.reporting import banner
        from repro.obs.export import render_text

        print(banner("metrics breakdown (instrumented run)"))
        print(render_text(obs.snapshot()), "\n")
        obs.disable(reset=True)

    overhead = run_obs_overhead(
        n_records=throughput_records,
        runs=args.runs,
        verify_objects=min(throughput_objects, 200),
        key_bits=512,
    )
    print(overhead.render(), "\n")

    monitor = run_monitor_bench(
        n_objects=throughput_objects,
        runs=args.runs,
        key_bits=512,
    )
    print(monitor.render(), "\n")

    service = run_service_bench(
        clients=service_clients,
        threads=16,
        key_bits=512,
    )
    print(service.render(), "\n")

    trust = run_trust_bench(
        n_objects=min(throughput_objects, 200),
        runs=args.runs,
        key_bits=512,
    )
    print(trust.render(), "\n")

    print(f"total wall time: {time.perf_counter() - started:.1f} s")

    if args.history != "-":
        # One flat entry per full run: every guard metric of the three
        # guarded benchmarks, keyed to the workload's parameters so only
        # same-shape runs are ever compared.
        params = {
            "workload": "run_all-v1",
            "scale": args.scale,
            "runs": args.runs,
            "key_bits": args.key_bits,
            "throughput_records": throughput_records,
            "throughput_objects": throughput_objects,
            "workers": args.workers,
            "service_clients": service_clients,
        }
        flat = {}
        flat.update(flatten_metrics(throughput.metrics, prefix="throughput."))
        flat.update(flatten_metrics(overhead.metrics, prefix="obs."))
        flat.update(flatten_metrics(monitor.metrics, prefix="monitor."))
        flat.update(flatten_metrics(service.metrics, prefix="service."))
        flat.update(flatten_metrics(trust.metrics, prefix="trust."))
        entry = make_entry(
            "full", workload_fingerprint(params), flat, meta=collect_meta()
        )
        append_entry(args.history, entry)
        print(f"history entry appended to {args.history}")

    failed = [
        name for name, result in (
            ("disabled-mode overhead", overhead),
            ("monitor benchmark", monitor),
            ("service benchmark", service),
            ("trust benchmark", trust),
        ) if not result.guards_ok
    ]
    for name in failed:
        print(f"error: {name} guard FAILED", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Observability-layer overhead: disabled and enabled modes.

Usage::

    python benchmarks/bench_obs_overhead.py [--records 10000] [--runs 3]
                                            [--json PATH] [--quick]

Runs the hottest write path (batched SQLite appends) and a serial chain
verification with observability off, with metrics on, and with the
phase profiler on.  The disabled-mode cost versus a hypothetical
uninstrumented build is bounded from above (metric sites fired plus
profiler phases entered, x measured per-check cost / wall time) and
**guarded at <= 2%** —
the process exits non-zero when the guard fails, so CI catches an
instrumentation regression that creeps into the disabled path.  Metrics
are dumped to ``BENCH_obs_overhead.json`` for the trajectory record.

A second **service arm** times HTTP requests against a live in-process
server and guards the cost the observability *plane* adds per request:
tracing-header codec work plus the background monitor's idle sweep,
amortized over its interval.  Skip it with ``--no-service``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import (
    bench_main,
    run_obs_overhead,
    run_service_obs_overhead,
)


def run(args):
    results = [run_obs_overhead(
        n_records=args.records,
        runs=args.runs,
        verify_objects=args.verify_objects,
        verify_updates=args.verify_updates,
        key_bits=args.key_bits,
    )]
    if not args.no_service:
        service = run_service_obs_overhead(
            n_requests=args.requests,
            runs=args.runs,
            key_bits=args.key_bits,
            monitor_interval=args.monitor_interval,
        )
        results[0].metrics["service"] = service.metrics
        results.append(service)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=10_000,
                        help="records in the append workload (default 10000)")
    parser.add_argument("--runs", type=int, default=3,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--verify-objects", type=int, default=200,
                        help="objects in the verification world")
    parser.add_argument("--verify-updates", type=int, default=3,
                        help="updates per object in the verification world")
    parser.add_argument("--key-bits", type=int, default=512,
                        help="RSA modulus bits for the verification world")
    parser.add_argument("--requests", type=int, default=300,
                        help="HTTP requests in the service arm (default 300)")
    parser.add_argument("--monitor-interval", type=float, default=1.0,
                        help="background-monitor interval amortizing the "
                             "idle-tick cost (default 1.0s)")
    parser.add_argument("--no-service", action="store_true",
                        help="skip the live-server service arm")
    return bench_main(
        argv, parser,
        run=run,
        quick={"records": 2_000, "runs": 1, "verify_objects": 60,
               "verify_updates": 2, "requests": 80},
        json_default="BENCH_obs_overhead.json",
        name="observability overhead",
    )


if __name__ == "__main__":
    sys.exit(main())

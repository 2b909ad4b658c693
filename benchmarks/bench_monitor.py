#!/usr/bin/env python
"""Monitor incremental verification vs full re-verify, plus event cost.

Usage::

    python benchmarks/bench_monitor.py [--objects 2500] [--updates 3]
                                       [--runs 3] [--json PATH] [--quick]

Builds a signed provenance store (~10k records at defaults), then times
a full ``verify_records`` pass against a warm monitor tick (watermarks
cover everything — the idle fast path) and an incremental tick after a
small batch of fresh appends.  The warm tick is **guarded at >= 5x**
faster than the full pass.  A second arm bounds event-emission overhead
on the batched append path with the file sink disabled, **guarded at
<= 2%**.  The process exits non-zero when either guard fails.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import bench_main, run_monitor_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=2_500,
                        help="objects in the monitored store (default 2500)")
    parser.add_argument("--updates", type=int, default=3,
                        help="updates per object (default 3; records = "
                             "objects x (1 + updates))")
    parser.add_argument("--runs", type=int, default=3,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--delta", type=int, default=20,
                        help="fresh records before each incremental tick")
    parser.add_argument("--key-bits", type=int, default=512,
                        help="RSA modulus bits for the signing world")
    return bench_main(
        argv, parser,
        run=lambda args: [run_monitor_bench(
            n_objects=args.objects,
            updates_per_object=args.updates,
            key_bits=args.key_bits,
            runs=args.runs,
            delta_records=args.delta,
        )],
        quick={"objects": 150, "updates": 1, "runs": 1},
        json_default="BENCH_monitor.json",
        name="monitor benchmark",
    )


if __name__ == "__main__":
    sys.exit(main())

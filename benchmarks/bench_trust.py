#!/usr/bin/env python
"""Custody hand-off and witness-anchoring overhead vs the solo baseline.

Usage::

    python benchmarks/bench_trust.py [--objects 200] [--updates 3]
                                     [--handoffs 2] [--runs 3]
                                     [--json PATH] [--quick]

Builds a three-custodian world whose chains carry dual-signed
``TRANSFER`` records, then times three guarded arms: appending a
hand-off vs a plain update (**guarded at <= 5x** — a transfer is two
RSA signatures where an update is one), per-record chain verification
of the hand-off world vs a solo world (**guarded at <= 3x**), and a
witness anchoring tick vs the already-anchored idle tick (**guarded at
>= 10x** faster).  The process exits non-zero when any guard fails.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import bench_main, run_trust_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=200,
                        help="objects in each world (default 200)")
    parser.add_argument("--updates", type=int, default=3,
                        help="updates per object before any hand-off")
    parser.add_argument("--handoffs", type=int, default=2,
                        help="TRANSFER records per object (default 2)")
    parser.add_argument("--append-batch", type=int, default=50,
                        help="records per timed append batch (default 50)")
    parser.add_argument("--runs", type=int, default=3,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--key-bits", type=int, default=512,
                        help="RSA modulus bits for the signing world")
    return bench_main(
        argv, parser,
        run=lambda args: [run_trust_bench(
            n_objects=args.objects,
            updates_per_object=args.updates,
            handoffs_per_object=args.handoffs,
            append_batch=args.append_batch,
            key_bits=args.key_bits,
            runs=args.runs,
        )],
        quick={"objects": 30, "updates": 1, "runs": 1, "append_batch": 10},
        json_default="BENCH_trust.json",
        name="trust benchmark",
    )


if __name__ == "__main__":
    sys.exit(main())

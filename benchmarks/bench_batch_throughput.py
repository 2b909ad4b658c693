#!/usr/bin/env python
"""Batched write path + parallel verification + signing throughput.

Usage::

    python benchmarks/bench_batch_throughput.py [--records 10000] [--workers 4]
                                                [--runs 3] [--json PATH]
                                                [--quick] [--guard]

Measures records/sec for the three SQLite append paths (the seed's
per-record write path, the current per-record ``append``, and
``append_many``) on a Fig-8-style workload, serial vs parallel vs
adaptive chain verification on a signed multi-object world, and the
end-to-end signed-append throughput of per-record RSA vs Merkle-batch
signing (one root signature per flush) with a per-flush cost
decomposition.  Results are printed as a paper-style table and dumped to
``BENCH_throughput.json`` so future PRs have a throughput trajectory.

``--guard`` makes the exit code enforce the CI floors:

* signing: Merkle-batch signed append must be >= 5x per-record RSA;
* verify: the adaptive verifier must not lose to serial (>= 0.9x, a
  tolerance for timer noise) and its report must be byte-identical —
  the speedup floor is not enforced on single-CPU runners, where
  "adaptive beats serial" degenerates to "serial equals serial".
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import bench_main, run_batch_throughput


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=10_000,
                        help="records in the append workload (default 10000)")
    parser.add_argument("--workers", type=int, default=4,
                        help="process count for parallel verify (default 4)")
    parser.add_argument("--runs", type=int, default=3,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--batch-size", type=int, default=1_000,
                        help="records per append_many call (default 1000)")
    parser.add_argument("--verify-objects", type=int, default=1_500,
                        help="objects in the verification world")
    parser.add_argument("--verify-updates", type=int, default=3,
                        help="updates per object in the verification world")
    parser.add_argument("--key-bits", type=int, default=512,
                        help="RSA modulus bits for the verification world")
    parser.add_argument("--signing-batches", type=int, default=8,
                        help="flushes in the signed-append arms (default 8)")
    parser.add_argument("--flush-size", type=int, default=64,
                        help="records staged per flush (default 64)")
    parser.add_argument("--signing-key-bits", type=int, default=1024,
                        help="RSA modulus bits for the signing arms "
                             "(default 1024, as in the paper)")
    return bench_main(
        argv, parser,
        run=lambda args: [run_batch_throughput(
            n_records=args.records,
            workers=args.workers,
            runs=args.runs,
            batch_size=args.batch_size,
            verify_objects=args.verify_objects,
            verify_updates=args.verify_updates,
            key_bits=args.key_bits,
            signing_batches=args.signing_batches,
            flush_size=args.flush_size,
            signing_key_bits=args.signing_key_bits,
        )],
        quick={"records": 2_000, "runs": 1, "verify_objects": 150,
               "verify_updates": 2, "batch_size": 500,
               "signing_batches": 2, "flush_size": 32},
        json_default="BENCH_throughput.json",
        name="throughput benchmark",
        guard_flag=True,
    )


if __name__ == "__main__":
    sys.exit(main())

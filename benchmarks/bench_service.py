#!/usr/bin/env python
"""Provenance-as-a-service load benchmark (the acceptance-scale run).

Usage::

    python benchmarks/bench_service.py [--clients 1000] [--tenants 8]
                                       [--threads 32] [--json PATH] [--quick]

Boots the stdlib HTTP service, drives ``--clients`` simulated clients
(tenant = client mod ``--tenants``) over ``--threads`` OS threads
through the real network stack, then audits every tenant store from the
inside.  Guards — the process exits non-zero if any fails:

* zero request errors and zero verification failures under load;
* zero cross-tenant leaks (every record signed by its own tenant's
  participant, every object owned by one of that tenant's clients);
* ``/healthz`` exit semantics at scale: 200 clean, 503 after one
  checksum forgery.

Defaults match the acceptance bar: >= 1000 clients across >= 8 tenants.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import bench_main, run_service_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=1_000,
                        help="simulated logical clients (default 1000)")
    parser.add_argument("--tenants", type=int, default=8,
                        help="tenants; client c belongs to c mod tenants")
    parser.add_argument("--threads", type=int, default=32,
                        help="OS threads multiplexing the clients")
    parser.add_argument("--ops", type=int, default=3,
                        help="mutations per client before its final verify")
    parser.add_argument("--key-bits", type=int, default=512,
                        help="RSA modulus bits for tenant worlds")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for worlds and workloads")
    return bench_main(
        argv, parser,
        run=lambda args: [run_service_bench(
            clients=args.clients,
            tenants=args.tenants,
            threads=args.threads,
            ops_per_client=args.ops,
            key_bits=args.key_bits,
            seed=args.seed,
        )],
        quick={"clients": 120, "threads": 16},
        json_default="BENCH_service.json",
        name="service benchmark",
    )


if __name__ == "__main__":
    sys.exit(main())

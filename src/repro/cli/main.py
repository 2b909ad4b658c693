"""``python -m repro`` — the command-line interface.

Typical session::

    python -m repro init --path ./lab
    python -m repro -w ./lab enroll alice
    python -m repro -w ./lab insert report draft --as alice
    python -m repro -w ./lab update report final --as alice --note "sign-off"
    python -m repro -w ./lab show report
    python -m repro -w ./lab verify report
    python -m repro -w ./lab ship report -o report.shipment.json
    python -m repro -w ./lab verify-shipment report.shipment.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.audit.inspector import ChainInspector, audit_trail, render_report
from repro.cli.workspace import Workspace
from repro.core.shipment import Shipment
from repro.crypto.keys import public_key_from_dict, public_key_to_dict
from repro.exceptions import ReproError
from repro.model.values import Value
from repro.query.lineage import lineage_summary

__all__ = ["main", "build_parser"]


def parse_value(text: Optional[str]) -> Value:
    """Parse a CLI value: int, float, true/false/null, else string."""
    if text is None:
        return None
    lowered = text.lower()
    if lowered == "null":
        return None
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _add_scheme(p) -> None:
    """``--scheme``: per-record RSA (the paper's) or Merkle-batch."""
    from repro.crypto.pki import SCHEME_ALIASES

    p.add_argument("--scheme", choices=tuple(SCHEME_ALIASES), default="rsa",
                   help="record signature scheme (merkle-batch signs one "
                        "Merkle root per flush instead of every record; "
                        "default: rsa)")


def _add_synthetic_world(p) -> None:
    """The seeded in-memory world of ``stats``, ``trace`` and
    ``monitor --synthetic`` (see :func:`repro.workloads.signed_world`)."""
    p.add_argument("--objects", type=int, default=6, help="objects to create")
    p.add_argument("--updates", type=int, default=3, help="updates per object")
    p.add_argument("--seed", type=int, default=42, help="RNG seed for key generation")
    p.add_argument("--key-bits", type=int, default=512)
    p.add_argument("--workers", type=int, default=1,
                   help="verification workers (>1 exercises the parallel path)")
    _add_scheme(p)


def _add_service(p) -> None:
    """Where ``client``, ``dash`` and ``alerts`` find the service."""
    p.add_argument("--url", required=True, help="service base URL")
    p.add_argument("--token", default=None,
                   help="API key (default: $REPRO_API_KEY; dash and alerts "
                        "need the admin key)")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tamper-evident database provenance (Zhang/Chapman/LeFevre 2009).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "-w", "--workspace", default=".", metavar="DIR",
        help="workspace directory (default: current directory)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("version", help="print the package version")

    p = sub.add_parser("init", help="create a new workspace")
    p.add_argument("--path", default=None, help="directory (default: --workspace)")
    p.add_argument("--key-bits", type=int, default=1024)
    p.add_argument("--ca-name", default="repro-root-ca")
    p.add_argument("--hash", dest="hash_algorithm", default="sha1")

    p = sub.add_parser("enroll", help="enroll a participant (keys + certificate)")
    p.add_argument("participant")

    p = sub.add_parser("participants", help="list enrolled participants")

    p = sub.add_parser("insert", help="insert an object")
    p.add_argument("object_id")
    p.add_argument("value", nargs="?", default=None)
    p.add_argument("--parent", default=None)
    p.add_argument("--as", dest="participant", required=True)
    p.add_argument("--note", default="")

    p = sub.add_parser("update", help="update an object's value")
    p.add_argument("object_id")
    p.add_argument("value")
    p.add_argument("--as", dest="participant", required=True)
    p.add_argument("--note", default="")

    p = sub.add_parser("delete", help="delete a leaf object")
    p.add_argument("object_id")
    p.add_argument("--as", dest="participant", required=True)
    p.add_argument("--note", default="")

    p = sub.add_parser("aggregate", help="aggregate objects into a new one")
    p.add_argument("output_id")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--as", dest="participant", required=True)
    p.add_argument("--note", default="")

    p = sub.add_parser("sql", help="run a SQL statement against a tracked database")
    p.add_argument("statement")
    p.add_argument("--as", dest="participant", default=None,
                   help="acting participant (required for writes)")
    p.add_argument("--root", default="db", help="database root object id")
    p.add_argument("--note", default="")

    p = sub.add_parser("shell", help="interactive SQL shell")
    p.add_argument("--as", dest="participant", required=True)
    p.add_argument("--root", default="db")

    p = sub.add_parser("objects", help="list root objects")

    p = sub.add_parser("show", help="print an object's provenance chain")
    p.add_argument("object_id")

    p = sub.add_parser("audit", help="verification + full audit trail")
    p.add_argument("object_id")

    p = sub.add_parser("lineage", help="one-line lineage summary")
    p.add_argument("object_id")

    p = sub.add_parser("history", help="value history of an object")
    p.add_argument("object_id")

    p = sub.add_parser("verify", help="verify an object in place")
    p.add_argument("object_id")
    p.add_argument("--anchors", action="store_true",
                   help="also check the workspace's anchored checksums")

    p = sub.add_parser("anchor", help="anchor an object's latest checksum")
    p.add_argument("object_id")

    p = sub.add_parser(
        "lint", help="structural self-check of the provenance store (no keys)"
    )

    p = sub.add_parser("dot", help="export the provenance DAG as Graphviz DOT")
    p.add_argument("object_id", nargs="?", default=None,
                   help="restrict to this object's ancestry (default: all)")
    p.add_argument("-o", "--output", default=None,
                   help="write to file (default: stdout)")
    p.add_argument("--notes", action="store_true", help="include white-box notes")

    p = sub.add_parser("ship", help="export data + provenance + certificates")
    p.add_argument("object_id")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("verify-shipment", help="verify a shipment file")
    p.add_argument("shipment_file")
    p.add_argument(
        "--ca-key", default=None,
        help="CA public key JSON (default: the workspace's CA)",
    )

    p = sub.add_parser("export-ca-key", help="write the CA public key as JSON")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser(
        "stats",
        help="run an instrumented synthetic workload and print its metrics",
        description=(
            "Runs a seeded in-memory insert/update/aggregate/verify workload "
            "with observability enabled and prints the collected metrics "
            "(counters, gauges, latency histograms). No workspace needed."
        ),
    )
    _add_synthetic_world(p)
    p.add_argument("--json", action="store_true", help="emit a JSON snapshot")
    p.add_argument("--prometheus", action="store_true",
                   help="emit Prometheus text exposition format")
    p.add_argument("-o", "--output", default=None,
                   help="write to file (default: stdout)")

    p = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection chaos workload and check invariants",
        description=(
            "Runs a deterministic insert/update/aggregate workload against a "
            "fault-injecting provenance store (torn batches, transient I/O "
            "errors, crashes between sign and store), recovers after every "
            "crash, then checks the two invariants: a recovered untampered "
            "store verifies clean (no false positives), and tampering "
            "injected after recovery is still detected (no false negatives). "
            "Exit 0 iff both hold. Identical seeds produce identical "
            "reports. No workspace needed."
        ),
    )
    p.add_argument("--seed", type=int, default=0, help="fault/workload seed")
    p.add_argument("--seed-from-env", metavar="VAR", default=None,
                   help="read the seed from this environment variable instead")
    p.add_argument("--ops", type=int, default=40, help="workload operations")
    p.add_argument("--store", choices=("memory", "sqlite"), default="memory")
    p.add_argument("--sqlite-path", default=":memory:",
                   help="sqlite store path (default: in-memory)")
    p.add_argument("--torn-rate", type=float, default=0.12,
                   help="torn-batch probability per append_many")
    p.add_argument("--error-rate", type=float, default=0.08,
                   help="transient store-error probability per append_many")
    p.add_argument("--crash-rate", type=float, default=0.05,
                   help="crash probability between sign and store")
    p.add_argument("--read-error-rate", type=float, default=0.0,
                   help="transient error probability per store read")
    p.add_argument("--kill-chunk", type=int, action="append", default=None,
                   metavar="N", help="kill the verify worker for chunk N "
                   "(repeatable; needs --workers > 1)")
    p.add_argument("--tamper", choices=("R1", "R2", "R4", "none"), default="R1",
                   help="post-recovery tamper family (default: R1)")
    p.add_argument("--workers", type=int, default=1,
                   help="verification workers (>1 exercises the parallel path)")
    p.add_argument("--key-bits", type=int, default=512)
    _add_scheme(p)
    p.add_argument("--trust", choices=("solo", "hand-off", "k-collusion", "witnessed"),
                   default="solo",
                   help="multi-participant adversary mode: hand-off weaves "
                        "custody transfers into the workload and forges one; "
                        "k-collusion re-signs a suffix with a seeded "
                        "coalition; witnessed proves a full-coalition rewrite "
                        "is only caught by the witness anchors")
    p.add_argument("--custodians", type=int, default=3,
                   help="participants enrolled for the non-solo trust modes")
    p.add_argument("--coalition-size", type=int, default=2,
                   help="coalition size for --trust k-collusion")
    p.add_argument("--json", action="store_true", help="emit the full JSON report")
    p.add_argument("-o", "--output", default=None,
                   help="write the report to a file (default: stdout)")

    p = sub.add_parser(
        "monitor",
        help="continuous provenance health monitor (incremental verify + alerts)",
        description=(
            "Watches a provenance store with watermark-based incremental "
            "verification: each tick re-verifies only the records past every "
            "chain's persisted verified watermark, evaluates the alert rules "
            "(tamper by requirement, watermark regression/lag, store latency, "
            "degraded verification chunks), and reports a health status. "
            "With --once, prints one JSON health snapshot and exits non-zero "
            "iff a tamper alert is firing; otherwise renders a refreshing "
            "table for --ticks ticks. --synthetic runs against a seeded "
            "in-memory workload (no workspace); --tamper then injects a "
            "tamper after a baseline tick so the watermarks have something "
            "to catch."
        ),
    )
    p.add_argument("--once", action="store_true",
                   help="one full-audit tick (ignores watermark skips); "
                        "JSON snapshot; exit 1 iff tampering")
    p.add_argument("--ticks", type=int, default=5,
                   help="ticks to run in watch mode (default: 5)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between watch-mode ticks")
    p.add_argument("--lag-threshold", type=int, default=64,
                   help="watermark-lag alert threshold (records)")
    p.add_argument("--latency-threshold", type=float, default=0.5,
                   help="store p99 latency alert threshold (seconds)")
    p.add_argument("--full-scan-every", type=int, default=0,
                   help="force a full (watermark-ignoring) pass every Nth tick")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="append structured events to this JSONL file")
    p.add_argument("--synthetic", action="store_true",
                   help="monitor a seeded in-memory workload (no workspace)")
    _add_synthetic_world(p)
    p.add_argument("--tamper", choices=("none", "R1", "R2", "rewrite"),
                   default="none",
                   help="synthetic mode: tamper the store after a baseline "
                        "tick (R1 forges a tail checksum, R2 removes a "
                        "verified tail record, rewrite re-signs a tail with "
                        "the workload's own key — the full-coalition attack "
                        "only --witness can catch)")
    p.add_argument("--witness", action="store_true",
                   help="synthetic mode: anchor the store with a witness "
                        "before any tamper and wire the witness-mismatch "
                        "rule into the monitor")
    p.add_argument("-o", "--output", default=None,
                   help="write the --once snapshot to a file (default: stdout)")

    p = sub.add_parser(
        "bench",
        help="benchmark history: record, report, compare, regression gate",
        description=(
            "Works against a BENCH_HISTORY.jsonl trajectory of benchmark "
            "entries (one JSON object per line, each attributed with git "
            "SHA, timestamp, host, and a workload fingerprint). `record` "
            "runs the small fixed-seed gate workload and appends an entry; "
            "`report` tabulates recent entries; `compare` diffs two "
            "entries by git SHA; `gate` re-runs the gate workload and "
            "exits non-zero when a gated per-record metric regresses "
            "beyond --tolerance against the median of the last --baseline "
            "comparable entries. No workspace needed."
        ),
    )
    p.add_argument("--history", default="BENCH_HISTORY.jsonl", metavar="PATH",
                   help="history file (default: BENCH_HISTORY.jsonl)")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    bp = bench_sub.add_parser(
        "record", help="run the gate workload and append a history entry"
    )
    bp.add_argument("--profile-out", default=None, metavar="PATH",
                    help="also write the phase-attribution profile as JSON")

    bp = bench_sub.add_parser("report", help="tabulate recent history entries")
    bp.add_argument("--last", type=int, default=10,
                    help="entries to show (default: 10)")
    bp.add_argument("--kind", choices=("gate", "full", "all"), default="all",
                    help="restrict to one entry kind")

    bp = bench_sub.add_parser("compare", help="diff two entries by git SHA")
    bp.add_argument("sha_a", help="baseline git SHA (prefix ok)")
    bp.add_argument("sha_b", help="candidate git SHA (prefix ok)")

    bp = bench_sub.add_parser(
        "gate", help="run the gate workload; exit 1 on regression"
    )
    bp.add_argument("--baseline", type=int, default=5,
                    help="history entries to take the median over (default: 5)")
    bp.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed relative slowdown (default: 0.10)")
    bp.add_argument("--record", action="store_true",
                    help="append this run to the history when it passes")
    bp.add_argument("--profile-out", default=None, metavar="PATH",
                    help="also write the phase-attribution profile as JSON")
    bp.add_argument("--inject-slowdown", type=float, default=None,
                    metavar="FRAC",
                    help="testing: inject a proportional signing slowdown "
                         "(e.g. 0.25) to prove the gate trips; also read "
                         "from $REPRO_BENCH_SLOWDOWN")

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant provenance service (HTTP)",
        description=(
            "Runs the provenance-as-a-service front end: a threaded HTTP "
            "server with one isolated tamper-evident world per tenant "
            "(engine + collector + sharded provenance store + health "
            "monitor), CA-signed API keys, and /healthz wired to the "
            "monitor (non-200 iff any tenant looks tampered). On startup "
            "it prints one JSON line with the bound URL and the admin "
            "token, which `repro client issue-key` turns into per-tenant "
            "keys. No workspace needed — worlds are derived from --seed."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8734, help="0 picks a free port")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for per-tenant key generation")
    p.add_argument("--key-bits", type=int, default=1024)
    p.add_argument("--scheme", choices=("merkle-batch",), default="merkle-batch",
                   help="record signature scheme; the service signs one "
                        "Merkle root per commit (the only choice)")
    p.add_argument("--shards", type=int, default=4,
                   help="provenance shards per tenant")
    p.add_argument("--store-root", default=None, metavar="DIR",
                   help="directory for per-tenant SQLite shard files "
                        "(default: in-memory)")
    p.add_argument("--retry-after", type=float, default=0.05,
                   help="Retry-After seconds sent with 503 responses")
    p.add_argument("--witness", action="store_true",
                   help="per-tenant witness anchoring: /healthz monitors "
                        "check an anchor log an insider rewrite must "
                        "contradict (persisted beside --store-root shards)")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="append structured events to this JSONL file")
    p.add_argument("--events-max-bytes", type=int, default=None, metavar="N",
                   help="rotate the --events file before it exceeds N bytes")
    p.add_argument("--events-keep", type=int, default=3, metavar="N",
                   help="rotated --events segments to retain (default: 3)")
    p.add_argument("--monitor-interval", type=float, default=0.0, metavar="SEC",
                   help="run a background monitor sweep over every tenant "
                        "each SEC seconds (incremental ticks; health "
                        "transitions and fresh alerts go to the alert "
                        "sinks and the /v1/alerts stream; 0 = off)")
    p.add_argument("--alert-log", default=None, metavar="PATH",
                   help="append background-monitor alerts to this JSONL file")
    p.add_argument("--alert-webhook", default=None, metavar="URL",
                   help="POST background-monitor alerts to this URL "
                        "(best-effort; failures are counted, not fatal)")
    p.add_argument("--profile", action="store_true",
                   help="attach the phase profiler (served at /v1/profile)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the startup line (admin token included)")

    p = sub.add_parser(
        "client",
        help="talk to a running provenance service",
        description=(
            "A thin CLI over the service's HTTP API. The API key comes "
            "from --token or $REPRO_API_KEY; admin actions (issue-key, "
            "revoke-key, recover) need the admin token `repro serve` "
            "printed at startup."
        ),
    )
    _add_service(p)
    p.add_argument("--retries", type=int, default=3,
                   help="503 retry budget per request")
    client_sub = p.add_subparsers(dest="client_command", required=True)

    cp = client_sub.add_parser("issue-key", help="mint an API key (admin)")
    cp.add_argument("tenant")
    cp.add_argument("--ttl", type=float, default=None,
                    help="key lifetime in seconds (default: no expiry)")
    cp.add_argument("--scope", action="append", default=None,
                    help="attach a scope (repeatable)")

    cp = client_sub.add_parser("revoke-key", help="revoke an API key (admin)")
    cp.add_argument("key_id")

    cp = client_sub.add_parser("insert", help="insert an object")
    cp.add_argument("object_id")
    cp.add_argument("value", nargs="?", default=None)
    cp.add_argument("--parent", default=None)
    cp.add_argument("--note", default="")

    cp = client_sub.add_parser("update", help="update an object")
    cp.add_argument("object_id")
    cp.add_argument("value")
    cp.add_argument("--note", default="")

    cp = client_sub.add_parser("delete", help="delete an object")
    cp.add_argument("object_id")
    cp.add_argument("--note", default="")

    cp = client_sub.add_parser("aggregate", help="aggregate objects")
    cp.add_argument("output_id")
    cp.add_argument("inputs", nargs="+")
    cp.add_argument("--note", default="")

    cp = client_sub.add_parser(
        "verify", help="verify an object (a read: the server stores nothing)"
    )
    cp.add_argument("object_id")

    cp = client_sub.add_parser("objects", help="list the tenant's objects")

    cp = client_sub.add_parser("provenance", help="print an object's chain")
    cp.add_argument("object_id")

    cp = client_sub.add_parser("lineage", help="lineage summary of an object")
    cp.add_argument("object_id")

    cp = client_sub.add_parser(
        "healthz", help="service health (exit 1 unless HTTP 200)"
    )
    cp.add_argument("--quick", action="store_true",
                    help="incremental monitor tick instead of a full audit")

    cp = client_sub.add_parser("recover", help="run crash recovery (admin)")

    p = sub.add_parser(
        "dash",
        help="live fleet dashboard for a running service (admin)",
        description=(
            "Renders per-tenant health, request rates, latency quantiles, "
            "verify failures, and watermark lag from a running service's "
            "observability endpoints (/healthz, /v1/metrics). Needs an "
            "admin key — the dashboard sees every tenant. --once prints a "
            "single snapshot and exits (CI smoke); otherwise the view "
            "refreshes every --interval seconds until interrupted."
        ),
    )
    _add_service(p)
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes (default: 2)")
    p.add_argument("--ticks", type=int, default=0,
                   help="frames to render, 0 = until interrupted")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.add_argument("--json", action="store_true",
                   help="emit the snapshot as JSON instead of a table")

    p = sub.add_parser(
        "alerts",
        help="stream a running service's alert feed (admin)",
        description=(
            "Reads the cursor-paged /v1/alerts stream: monitor alerts, "
            "tamper evidence, and background-monitor health transitions. "
            "`tail` prints one line per event; with --follow it long-polls "
            "for new events until --duration/--max-events. Exits 1 iff any "
            "streamed event carries tamper evidence, so a cron or CI step "
            "can gate on it."
        ),
    )
    alerts_sub = p.add_subparsers(dest="alerts_command", required=True)
    ap = alerts_sub.add_parser("tail", help="print the alert stream")
    _add_service(ap)
    ap.add_argument("--since", type=int, default=-1,
                    help="start after this event sequence (default: all)")
    ap.add_argument("--follow", action="store_true",
                    help="keep long-polling for new events")
    ap.add_argument("--wait", type=float, default=5.0,
                    help="long-poll seconds per request with --follow")
    ap.add_argument("--duration", type=float, default=0.0,
                    help="stop following after this many seconds (0 = never)")
    ap.add_argument("--max-events", type=int, default=0,
                    help="stop after printing this many events (0 = no cap)")
    ap.add_argument("--json", action="store_true",
                    help="print events as JSON lines")

    p = sub.add_parser(
        "trust",
        help="multi-participant trust: hand-offs, collusion, witness anchors",
        description=(
            "Tools for the multi-participant threat model: `simulate` runs "
            "the custody/collusion adversary drills against a seeded attack "
            "world and checks every outcome against its expectation; "
            "`witness-tick` countersigns the workspace store's chain tails "
            "into the workspace anchor log (the one `anchor` and `verify "
            "--anchors` use); `audit` cross-checks the store against that "
            "log and exits non-zero on any contradiction."
        ),
    )
    trust_sub = p.add_subparsers(dest="trust_command", required=True)
    tp = trust_sub.add_parser(
        "simulate",
        help="run the hand-off / k-collusion / witness adversary drills",
    )
    tp.add_argument("--mode", choices=("hand-off", "k-collusion", "witnessed", "all"),
                    default="all", help="which drill to run (default: all)")
    tp.add_argument("--seed", type=int, default=0x5EC)
    tp.add_argument("--k", type=int, default=2,
                    help="coalition size for the k-collusion drill")
    tp.add_argument("--key-bits", type=int, default=512)
    _add_scheme(tp)
    tp.add_argument("--json", action="store_true", help="emit the JSON report")
    trust_sub.add_parser(
        "witness-tick",
        help="countersign the workspace store's chain tails into its anchor log",
    )
    tp = trust_sub.add_parser(
        "audit",
        help="cross-check the workspace store against its anchor log",
    )
    tp.add_argument("--json", action="store_true", help="emit mismatches as JSON")

    p = sub.add_parser(
        "trace",
        help="run an instrumented synthetic verify and print its span tree",
        description=(
            "Runs the same seeded workload as `stats` with tracing enabled "
            "and renders the verification trace as a tree (or JSON)."
        ),
    )
    _add_synthetic_world(p)
    p.add_argument("--json", action="store_true", help="emit the trace as JSON")

    return parser


def _cmd_init(args) -> int:
    path = args.path or args.workspace
    Workspace.create(
        path,
        ca_name=args.ca_name,
        key_bits=args.key_bits,
        hash_algorithm=args.hash_algorithm,
    )
    print(f"initialised workspace at {path} (CA: {args.ca_name}, "
          f"{args.key_bits}-bit keys)")
    return 0


def _emit(args, payload, render=None, what="output", failed=False, error="") -> int:
    """Print a command's answer and return its exit code.

    A string ``payload`` prints as is; anything else as indented,
    key-sorted JSON, or through ``render`` when one is given and
    ``--json`` is not.  With ``-o PATH`` the text goes to that file and
    stdout says so.  Exits 1 if ``failed`` (saying ``error: <error>`` on
    stderr when ``error`` is given), else 0.
    """
    if isinstance(payload, str):
        text = payload
    elif render is None or getattr(args, "json", False):
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = render(payload)
    output = getattr(args, "output", None)
    if output:
        with open(output, "w") as f:
            f.write(text + "\n")
        print(f"wrote {what} to {output}")
    else:
        print(text)
    if failed and error:
        print(f"error: {error}", file=sys.stderr)
    return 1 if failed else 0


def _synthetic_world(args, participant: str):
    """The seeded in-memory world behind ``stats``, ``trace`` and
    ``monitor --synthetic``: deterministic for a given ``--seed``, so
    two runs produce identical metric counts (timing histograms aside)."""
    from repro.workloads.signed import signed_world

    return signed_world(
        args.objects, args.updates, key_bits=args.key_bits, seed=args.seed,
        scheme=args.scheme, participant=participant,
    )


def _synthetic_workload(args):
    """``stats``/``trace``: the synthetic world, one aggregate, one verify."""
    db, participant = _synthetic_world(args, "stats")
    if args.objects >= 2:
        db.session(participant).aggregate(["obj0", "obj1"], "agg")
    return db.verify("obj0", workers=args.workers)


def _cmd_stats(args) -> int:
    from repro import obs
    from repro.obs.export import render_text, to_prometheus

    obs.enable(reset=True)
    try:
        _synthetic_workload(args)
        snap = obs.snapshot()
    finally:
        obs.disable()
    render = to_prometheus if args.prometheus else render_text
    return _emit(args, snap, render, what="metrics")


def _cmd_chaos(args) -> int:
    import os

    from repro.faults import ChaosConfig, run_chaos

    seed = args.seed
    if args.seed_from_env:
        raw = os.environ.get(args.seed_from_env)
        if raw is None or not raw.strip().lstrip("-").isdigit():
            print(
                f"error: --seed-from-env {args.seed_from_env}: "
                f"not an integer ({raw!r})",
                file=sys.stderr,
            )
            return 2
        seed = int(raw)
    config = ChaosConfig(
        seed=seed,
        ops=args.ops,
        store=args.store,
        sqlite_path=args.sqlite_path,
        torn_rate=args.torn_rate,
        error_rate=args.error_rate,
        flush_crash_rate=args.crash_rate,
        read_error_rate=args.read_error_rate,
        worker_kill_chunks=tuple(args.kill_chunk or ()),
        tamper=args.tamper,
        workers=args.workers,
        key_bits=args.key_bits,
        scheme=args.scheme,
        trust=args.trust,
        custodians=args.custodians,
        coalition_size=args.coalition_size,
    )
    report = run_chaos(config)
    inv = report["invariants"]

    def render(report) -> str:
        workload = report["workload"]
        lines = [
            f"chaos seed {seed}: {workload['applied']}/{workload['ops']} ops "
            f"applied, {workload['crashes']} crashes, "
            f"{workload['failed_ops']} ops lost to exhausted retries",
            "faults injected: "
            + (", ".join(
                f"{site}={count}"
                for site, count in report["faults_injected"].items()
            ) or "none"),
            f"recoveries: {len(report['recoveries'])} "
            f"(final sweep clean: {report['final_recovery']['clean']})",
            f"verification: {len(report['verification'])} objects, "
            f"all clean: {all(v['ok'] for v in report['verification'].values())}",
        ]
        tamper = report["tamper"]
        if tamper is not None:
            lines.append(
                f"tamper {tamper['requirement']} on {tamper['target']!r}: "
                f"detected={tamper['detected']} tally={tamper['tally']}"
            )
        trust = report["trust"]
        if trust is not None:
            detail = ", ".join(
                f"{key}={trust[key]}"
                for key in sorted(trust)
                if key not in ("mode", "holds") and not isinstance(trust[key], (dict, list))
            )
            lines.append(
                f"trust {trust['mode']}: holds={trust['holds']} ({detail})"
            )
        lines.append(
            f"invariants: no_false_positives={inv['no_false_positives']} "
            f"no_false_negatives={inv['no_false_negatives']} "
            f"trust_holds={inv['trust_holds']}"
        )
        return "\n".join(lines)

    return _emit(
        args, report, render, what="chaos report", failed=not inv["ok"],
        error=f"chaos invariants violated (seed {seed})",
    )


def _monitor_watch(args, monitor) -> int:
    """Watch mode: one table row per tick, re-rendered in place on a TTY."""
    import time

    from repro.bench.reporting import format_table

    headers = ("tick", "mode", "health", "verified", "skipped", "lag", "alerts")
    rows: List[List[object]] = []
    exit_code = 0
    interactive = sys.stdout.isatty()
    for i in range(max(1, args.ticks)):
        result = monitor.tick()
        rows.append([
            result.tick, result.mode, result.health, result.records_verified,
            result.records_skipped, result.lag_records,
            "; ".join(a.rule for a in result.alerts) or "-",
        ])
        table = format_table(headers, rows)
        if interactive:
            print("\x1b[2J\x1b[H" + table, flush=True)
        else:
            print(table if i == 0 else table.splitlines()[-1], flush=True)
        for alert in result.alerts:
            print(f"  {alert}", flush=True)
        if monitor.has_tamper_alerts:
            exit_code = 1
        if i + 1 < args.ticks:
            time.sleep(max(0.0, args.interval))
    print(f"health: {monitor.health}")
    return exit_code


def _run_monitor(args, store, keystore, witness=None, participant=None) -> int:
    from repro.monitor import ProvenanceMonitor

    monitor = ProvenanceMonitor(
        store,
        keystore,
        workers=args.workers,
        lag_threshold=args.lag_threshold,
        latency_threshold=args.latency_threshold,
        full_scan_every=args.full_scan_every,
        witness_log=witness.log if witness is not None else None,
        witness_verifier=witness.verifier() if witness is not None else None,
    )
    if args.synthetic and args.tamper != "none":
        # Baseline tick first so the watermarks cover the clean history —
        # otherwise an R2 tail removal leaves a shorter-but-valid chain
        # no verifier could flag.
        monitor.tick()
        # An attacker with raw store access, going around append-time
        # validation: R1 forges a tail checksum, R2 removes a verified
        # tail record, and rewrite is the full-coalition attack — the
        # workload's own signer re-signs the tail with a different
        # value, internally consistent, so only the witness anchors
        # (made before the rewrite) can contradict it.
        target = store.object_ids()[0]
        tail = store.latest(target)
        if args.tamper == "rewrite":
            from repro.trust.coalition import rewrite_store_suffix

            rewrite_store_suffix(store, target, tail.seq_id, [participant], 31337)
        elif args.tamper == "R2":
            store.discard(target, tail.seq_id)
        else:
            from repro.attacks.tampering import forge_stored_checksum

            forge_stored_checksum(store, target)
    if not args.once:
        return _monitor_watch(args, monitor)
    # A one-shot audit must not trust watermarks it didn't earn: a full
    # tick re-verifies everything (anchors are still validated, so
    # removals behind a persisted watermark regress as usual).
    result = monitor.tick(full=True)
    snapshot = monitor.snapshot()
    snapshot["last_tick"] = result.to_dict()
    return _emit(
        args, snapshot, what="health snapshot", failed=monitor.has_tamper_alerts
    )


def _cmd_monitor(args) -> int:
    from repro import obs

    obs.enable(reset=True)
    obs.enable_events(path=args.events)
    try:
        if args.synthetic:
            db, participant = _synthetic_world(args, "monitor")
            witness = None
            if args.witness:
                from repro.trust.witness import Witness

                # Anchored BEFORE any tamper: the drill is that history
                # cannot be rewritten past an existing anchor.
                witness = Witness.generate(
                    key_bits=args.key_bits, seed=args.seed
                )
                witness.tick(db.provenance_store)
            return _run_monitor(
                args, db.provenance_store, db.keystore(),
                witness=witness, participant=participant,
            )
        with Workspace(args.workspace) as ws:
            db = ws.database()
            return _run_monitor(args, db.provenance_store, db.keystore())
    finally:
        obs.disable_events()
        obs.disable()


def _trust_simulate(args) -> int:
    """The adversary drills, each checked against its expectation."""
    from repro.attacks.scenarios import build_world
    from repro.trust.coalition import (
        coalition_rewrite,
        honest_blocker,
        rewrite_store_suffix,
        seeded_coalition,
    )
    from repro.trust.custody import (
        fabricate_handoff,
        reattribute_handoff,
        strip_handoff,
        transfer_custody,
    )
    from repro.trust.witness import Witness, check_anchors

    results: List[dict] = []

    def record(drill, detected, expected, **extra) -> None:
        results.append({
            "drill": drill, "detected": detected, "expected": expected,
            "holds": detected == expected, **extra,
        })

    def verify(world, shipment) -> bool:
        report = shipment.verify_with_ca(world.db.ca.public_key, world.db.ca.name)
        return not report.ok

    modes = (
        ("hand-off", "k-collusion", "witnessed")
        if args.mode == "all" else (args.mode,)
    )
    for mode in modes:
        world = build_world(
            key_bits=args.key_bits, seed=args.seed, scheme=args.scheme
        )
        people = world.participants
        if mode == "hand-off":
            tail = world.db.provenance_store.latest("x")
            outgoing = people[tail.participant_id]
            incoming = next(
                people[pid] for pid in sorted(people)
                if pid != tail.participant_id
            )
            transfer = transfer_custody(
                world.db.provenance_store, "x", outgoing, incoming
            )
            shipment = world.db.ship("x")
            record("honest hand-off", verify(world, shipment), False,
                   custody=f"{outgoing.participant_id} -> {incoming.participant_id}")
            record("forged hand-off",
                   verify(world, fabricate_handoff(shipment, "x", outgoing)), True)
            new_from = next(
                pid for pid in sorted(people)
                if pid not in (transfer.transfer.from_participant,
                               transfer.participant_id)
            )
            record("re-attributed hand-off",
                   verify(world, reattribute_handoff(
                       shipment, "x", transfer.seq_id, incoming, new_from)), True)
            record("stripped hand-off",
                   verify(world, strip_handoff(
                       shipment, "x", transfer.seq_id, incoming)), True)
        elif mode == "k-collusion":
            coalition = seeded_coalition(
                args.seed, list(people.values()), min(args.k, len(people))
            )
            member_ids = sorted(p.participant_id for p in coalition)
            chain = world.db.provenance_store.records_for("x")
            start = next(
                r.seq_id for r in chain
                if r.participant_id in set(member_ids)
            )
            blocker = honest_blocker(world.shipment, "x", start, coalition)
            forged = coalition_rewrite(world.shipment, "x", start, coalition, 31337)
            record("k-collusion suffix rewrite", verify(world, forged),
                   blocker is not None, coalition=member_ids, start_seq=start,
                   honest_blocker=None if blocker is None else blocker.participant_id)
        else:  # witnessed
            from repro.monitor.monitor import ProvenanceMonitor

            store = world.db.provenance_store
            everyone = list(people.values())
            witness = Witness.generate(key_bits=args.key_bits, seed=args.seed)
            witness.tick(store)
            tail = store.latest("x")
            rewrite_store_suffix(store, "x", tail.seq_id, everyone, 986543)
            plain = ProvenanceMonitor(store, world.db.keystore())
            record("full-coalition rewrite vs chain checks",
                   plain.tick().health == "tampered", False,
                   coalition=sorted(people))
            watched = ProvenanceMonitor(
                store,
                world.db.keystore(),
                witness_log=witness.log,
                witness_verifier=witness.verifier(),
            )
            watched_health = watched.tick().health
            mismatches = check_anchors(store, witness.log, witness.verifier())
            record("full-coalition rewrite vs witness anchors",
                   watched_health == "tampered" and bool(mismatches), True,
                   mismatches=[[f.object_id, f.seq_id, f.message]
                               for f in mismatches])

    def render(report) -> str:
        lines = [
            f"[{'ok' if r['holds'] else 'VIOLATION'}] {r['drill']}: "
            f"{'detected' if r['detected'] else 'undetected'} "
            f"(expected {'detected' if r['expected'] else 'undetected'})"
            for r in report["results"]
        ]
        lines.append(f"trust drills: {'all hold' if report['ok'] else 'VIOLATED'} "
                     f"(seed {args.seed})")
        return "\n".join(lines)

    ok = all(r["holds"] for r in results)
    return _emit(
        args, {"seed": args.seed, "scheme": args.scheme, "results": results, "ok": ok},
        render, failed=not ok, error=f"trust expectation violated (seed {args.seed})",
    )


def _cmd_trust(args) -> int:
    if args.trust_command == "simulate":
        return _trust_simulate(args)

    with Workspace(args.workspace) as ws:
        if args.trust_command == "witness-tick":
            fresh = ws.witness_tick()
            for anchor in fresh:
                print(f"anchored {anchor.checkpoint.object_id!r} seq "
                      f"{anchor.checkpoint.seq_id} (entry {anchor.position})")
            print(f"{len(fresh)} new anchor(s); log {ws.anchor_log_path} now has "
                  f"{len(ws.anchor_log())} entries")
            return 0
        # audit
        mismatches = ws.check_anchors(ws.database().provenance_store)
        entries = len(ws.anchor_log())

        def render(report) -> str:
            lines = [f"MISMATCH {oid!r} seq {seq}: {message}"
                     for oid, seq, message in report["mismatches"]]
            lines.append(f"audited {entries} anchor(s): "
                         f"{'store matches the witness' if report['ok'] else 'TAMPERED'}")
            return "\n".join(lines)

        return _emit(
            args,
            {"log": str(ws.anchor_log_path), "entries": entries,
             "mismatches": [[f.object_id, f.seq_id, f.message] for f in mismatches],
             "ok": not mismatches},
            render, failed=bool(mismatches),
            error="store contradicts the witness anchor log",
        )


def _bench_entry(args, slowdown: float = 0.0):
    """Run the gate workload and shape it into a history entry."""
    from repro.bench import history as bh

    metrics, profile, params = bh.run_gate_workload(slowdown=slowdown)
    fingerprint = bh.workload_fingerprint(params)
    entry = bh.make_entry("gate", fingerprint, metrics, profile=profile)
    return entry, profile


def _bench_write_profile(path: Optional[str], entry, profile) -> None:
    if not path:
        return
    payload = {"meta": entry["meta"], "profile": profile}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"wrote phase profile to {path}")


def _fmt_metric(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return "-" if value is None else str(value)


def _cmd_bench(args) -> int:
    from repro.bench import history as bh
    from repro.bench.reporting import format_table

    if args.bench_command == "record":
        entry, profile = _bench_entry(args)
        bh.append_entry(args.history, entry)
        _bench_write_profile(args.profile_out, entry, profile)
        print(f"recorded gate entry {entry['fingerprint']} "
              f"@ {entry['meta']['git_sha'][:12]} -> {args.history}")
        return 0

    if args.bench_command == "report":
        entries = bh.read_history(args.history)
        if args.kind != "all":
            entries = [e for e in entries if e.get("kind") == args.kind]
        entries = entries[-max(1, args.last):]
        if not entries:
            print(f"no entries in {args.history}")
            return 0
        headers = ("sha", "utc", "kind", "fingerprint",
                   "sign.rsa s/rec", "sign.merkle s/rec", "verify s/rec")
        rows = []
        for e in entries:
            meta, metrics = e.get("meta", {}), e.get("metrics", {})
            rows.append([
                str(meta.get("git_sha", "?"))[:9],
                str(meta.get("timestamp_utc", "?")),
                e.get("kind", "?"),
                e.get("fingerprint", "?"),
                _fmt_metric(metrics.get("sign.rsa.per_record_s")),
                _fmt_metric(metrics.get("sign.merkle.per_record_s")),
                _fmt_metric(metrics.get("verify.per_record_s")),
            ])
        print(format_table(headers, rows))
        return 0

    if args.bench_command == "compare":
        entries = bh.read_history(args.history)
        entry_a = bh.find_by_sha(entries, args.sha_a)
        entry_b = bh.find_by_sha(entries, args.sha_b)
        for sha, entry in ((args.sha_a, entry_a), (args.sha_b, entry_b)):
            if entry is None:
                print(f"error: no entry for SHA {sha!r} in {args.history}",
                      file=sys.stderr)
                return 2
        if entry_a.get("fingerprint") != entry_b.get("fingerprint"):
            print("warning: entries have different workload fingerprints — "
                  "wall-clock comparison is not meaningful", file=sys.stderr)
        rows = [
            [name, _fmt_metric(va), _fmt_metric(vb),
             "-" if ratio is None else f"{ratio:.3f}x"]
            for name, va, vb, ratio in bh.compare_entries(entry_a, entry_b)
        ]
        print(format_table(
            ("metric", args.sha_a[:9], args.sha_b[:9], "b/a"), rows
        ))
        return 0

    # gate
    import os

    slowdown = args.inject_slowdown
    if slowdown is None:
        raw = os.environ.get("REPRO_BENCH_SLOWDOWN", "").strip()
        slowdown = float(raw) if raw else 0.0
    if slowdown:
        print(f"note: injecting a {slowdown:.0%} signing-phase slowdown")
    entry, profile = _bench_entry(args, slowdown=slowdown)
    _bench_write_profile(args.profile_out, entry, profile)
    history = bh.read_history(args.history)
    regressions, compared = bh.gate_check(
        entry, history, baseline=args.baseline, tolerance=args.tolerance
    )
    if regressions:
        # One retry absorbs transient machine noise: a real regression
        # (the code got slower) reproduces; a scheduler hiccup does not.
        # Take the per-metric best of both runs for the gated metrics.
        print("gate: possible regression — re-running once to confirm")
        retry, _ = _bench_entry(args, slowdown=slowdown)
        for name in bh.GATE_METRICS:
            first = entry["metrics"].get(name)
            second = retry["metrics"].get(name)
            if isinstance(first, (int, float)) and isinstance(second, (int, float)):
                entry["metrics"][name] = min(first, second)
        regressions, compared = bh.gate_check(
            entry, history, baseline=args.baseline, tolerance=args.tolerance
        )
    for name in sorted(bh.GATE_METRICS):
        print(f"  {name:<28} {_fmt_metric(entry['metrics'].get(name))} s")
    if compared == 0:
        print(f"gate: no comparable baseline in {args.history} "
              f"(fingerprint {entry['fingerprint']}) — pass (bootstrap)")
    elif not regressions:
        print(f"gate: pass — within {args.tolerance:.0%} of the median of "
              f"{compared} baseline entr{'y' if compared == 1 else 'ies'}")
    else:
        for reg in regressions:
            print(
                f"gate: REGRESSION {reg['metric']}: "
                f"{reg['current']:.6g}s vs median {reg['baseline_median']:.6g}s "
                f"({reg['ratio']:.3f}x > {1 + reg['tolerance']:.2f}x allowed)",
                file=sys.stderr,
            )
        return 1
    if args.record:
        bh.append_entry(args.history, entry)
        print(f"recorded gate entry -> {args.history}")
    return 0


def _observe_serving(args) -> None:
    """Switch on what ``repro serve`` observes: metrics, events and, with
    ``--profile``, the phase profiler; no spans, since no endpoint serves
    them.  A request is named by its correlation id instead."""
    from repro import obs
    from repro.obs.events import RingBufferSink
    from repro.service.http import ALERT_KINDS

    obs.enable(reset=True, tracing=False)
    log = obs.enable_events(
        ring=0,
        path=args.events,
        max_bytes=args.events_max_bytes,
        keep=args.events_keep,
    )
    # /v1/alerts streams from this ring.  It keeps the alert kinds alone:
    # every request emits http.request, collector.flush and store.batch
    # events, which go to the --events file only and so cannot evict an
    # alert under traffic.
    log.add_sink(RingBufferSink(4096, kinds=ALERT_KINDS))
    if args.profile:
        obs.enable_profile(reset=True)


def _cmd_serve(args) -> int:
    from repro import obs
    from repro.obs.plane import FileAlertSink, LogAlertSink, WebhookAlertSink
    from repro.service import ServiceConfig
    from repro.service.http import ProvenanceHTTPServer

    _observe_serving(args)
    sinks = []
    if args.monitor_interval > 0 and not args.quiet:
        sinks.append(LogAlertSink())
    if args.alert_log:
        sinks.append(FileAlertSink(args.alert_log))
    if args.alert_webhook:
        sinks.append(WebhookAlertSink(args.alert_webhook))
    config = ServiceConfig(
        seed=args.seed,
        key_bits=args.key_bits,
        shards=args.shards,
        store_root=args.store_root,
        witness=args.witness,
        monitor_interval=args.monitor_interval,
        alert_sinks=tuple(sinks),
    )
    server = ProvenanceHTTPServer(
        config=config, host=args.host, port=args.port,
        retry_after=args.retry_after,
    )
    if not args.quiet:
        print(json.dumps({
            "url": server.base_url,
            "admin_token": server.service.admin_token,
            "scheme": args.scheme,
            "shards": config.shards,
            "store_root": config.store_root,
            "monitor_interval": config.monitor_interval,
        }), flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.service.close()
        obs.disable_events()
        if args.profile:
            obs.disable_profile()
        obs.disable()
    return 0


def _with_service(args, body, error_code: int = 1, **options) -> int:
    """Run ``body(client)`` against ``--url`` with ``--token`` (default
    ``$REPRO_API_KEY``).  A refused request, an unreachable server or a
    reply that is not HTTP prints ``error: ...`` and exits
    ``error_code``."""
    import os
    from http.client import HTTPException

    from repro.service.client import ServiceClient, ServiceHTTPError

    token = args.token or os.environ.get("REPRO_API_KEY")
    try:
        with ServiceClient(args.url, token=token, **options) as client:
            return body(client)
    except ServiceHTTPError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (OSError, HTTPException) as exc:
        print(f"error: {args.url}: {exc}", file=sys.stderr)
    return error_code


def _cmd_client(args) -> int:
    return _with_service(args, lambda client: _client_call(args, client),
                         retries=args.retries)


def _client_call(args, client) -> int:
    command = args.client_command
    if command == "healthz":
        response = client.healthz(quick=args.quick)
        return _emit(args, response.json, failed=not response.ok)
    if command == "issue-key":
        result = client.issue_key(
            args.tenant, ttl=args.ttl, scopes=tuple(args.scope or ()),
        )
    elif command == "revoke-key":
        result = client.revoke_key(args.key_id)
    elif command == "insert":
        result = client.insert(
            args.object_id, parse_value(args.value),
            parent=args.parent, note=args.note,
        )
    elif command == "update":
        result = client.update(
            args.object_id, parse_value(args.value), note=args.note
        )
    elif command == "delete":
        result = client.delete(args.object_id, note=args.note)
    elif command == "aggregate":
        result = client.aggregate(args.inputs, args.output_id, note=args.note)
    elif command == "verify":
        result = client.verify(args.object_id)
    elif command == "objects":
        result = client.objects()
    elif command == "provenance":
        result = client.provenance(args.object_id)
    elif command == "lineage":
        result = client.lineage(args.object_id)
    elif command == "recover":
        result = client.recover()
    else:
        raise AssertionError(f"unhandled client command {command!r}")
    return _emit(args, result, failed=command == "verify" and not result.get("ok"))


def _metric_labels(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a snapshot key ``name{k=v,...}`` into (name, labels).

    Best-effort for display: a label *value* containing ``,`` or ``=``
    (possible — tenant ids are free-form) parses raggedly, which mangles
    at most that row of the dashboard, never the service.
    """
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        k, _, v = part.partition("=")
        labels[k] = v
    return name, labels


def _dash_snapshot(client) -> Dict[str, object]:
    """One dashboard frame: healthz breakdown + parsed metric snapshot."""
    health = client.healthz(quick=True).json
    metrics = client.metrics_json().get("metrics", {})
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})

    requests_total = 0
    per_tenant: Dict[str, Dict[str, object]] = {}

    def tenant_row(tenant: str) -> Dict[str, object]:
        return per_tenant.setdefault(
            tenant,
            {"health": "-", "records": 0, "requests": 0,
             "verify_failures": 0, "lag": 0, "alerts": []},
        )

    for tenant, breakdown in (health.get("tenants") or {}).items():
        row = tenant_row(tenant)
        row["health"] = breakdown.get("health", "-")
        row["records"] = breakdown.get("records", 0)
        row["alerts"] = breakdown.get("alerts", [])
    for key, value in counters.items():
        name, labels = _metric_labels(key)
        if name == "service.http.requests":
            requests_total += int(value)
        elif name == "service.tenant.requests":
            tenant_row(labels.get("tenant", "?"))["requests"] = int(value)
        elif name == "service.verify.failures":
            row = tenant_row(labels.get("tenant", "?"))
            row["verify_failures"] = int(row["verify_failures"]) + int(value)
    for key, value in gauges.items():
        name, labels = _metric_labels(key)
        if name == "service.tenant.lag":
            tenant_row(labels.get("tenant", "?"))["lag"] = value

    # Latency quantiles: worst endpoint wins (quantiles don't merge, and
    # an operator scanning a fleet wants the conservative number).
    p50 = p99 = 0.0
    for key, summary in histograms.items():
        name, _ = _metric_labels(key)
        if name == "service.http.seconds" and summary.get("count"):
            p50 = max(p50, float(summary.get("p50", 0.0)))
            p99 = max(p99, float(summary.get("p99", 0.0)))

    return {
        "health": health.get("health", "?"),
        "requests_total": requests_total,
        "p50_s": p50,
        "p99_s": p99,
        "tenants": per_tenant,
    }


def _cmd_dash(args) -> int:
    return _with_service(args, lambda client: _dash_loop(args, client))


def _dash_loop(args, client) -> int:
    import time

    from repro.bench.reporting import format_table

    frames = 1 if args.once else (args.ticks if args.ticks > 0 else None)
    interactive = sys.stdout.isatty() and not args.once
    previous: Optional[Tuple[float, int, Dict[str, int]]] = None
    rendered = 0
    while True:
        snap = _dash_snapshot(client)
        now = time.monotonic()
        tenant_reqs = {
            tenant: int(row["requests"])
            for tenant, row in snap["tenants"].items()
        }
        rps = None
        tenant_rps: Dict[str, float] = {}
        if previous is not None:
            dt = max(now - previous[0], 1e-6)
            rps = (snap["requests_total"] - previous[1]) / dt
            tenant_rps = {
                tenant: (count - previous[2].get(tenant, 0)) / dt
                for tenant, count in tenant_reqs.items()
            }
        previous = (now, snap["requests_total"], tenant_reqs)
        if args.json:
            snap_out = dict(snap)
            snap_out["rps"] = rps
            text = json.dumps(snap_out, indent=2, sort_keys=True, default=str)
        else:
            header = (
                f"service {args.url}  health={snap['health']}  "
                f"requests={snap['requests_total']}"
                + (f"  req/s={rps:.1f}" if rps is not None else "")
                + f"  p50={snap['p50_s'] * 1e3:.1f}ms"
                + f"  p99={snap['p99_s'] * 1e3:.1f}ms"
            )
            rows = []
            for tenant in sorted(snap["tenants"]):
                row = snap["tenants"][tenant]
                rate = tenant_rps.get(tenant)
                rows.append([
                    tenant, row["health"], row["records"], row["requests"],
                    "-" if rate is None else f"{rate:.1f}",
                    row["verify_failures"], row["lag"],
                    "; ".join(row["alerts"]) or "-",
                ])
            table = format_table(
                ("tenant", "health", "records", "requests", "req/s",
                 "verify-fail", "lag", "alerts"),
                rows or [["-"] * 8],
            )
            text = header + "\n" + table
        if interactive:
            print("\x1b[2J\x1b[H" + text, flush=True)
        else:
            print(text, flush=True)
        rendered += 1
        if frames is not None and rendered >= frames:
            return 0
        try:
            time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:
            return 0


def _format_alert_event(event: Dict[str, object]) -> str:
    fields = event.get("fields", {}) or {}
    tenant = fields.get("tenant") or fields.get("monitor") or "-"
    kind = event.get("kind", "?")
    if kind == "service.health":
        detail = f"health {fields.get('previous')} -> {fields.get('health')}"
    else:
        detail = (
            f"[{fields.get('severity', '?')}] {fields.get('rule', '?')}: "
            f"{fields.get('message', '')}"
        )
        if fields.get("tampering"):
            detail += "  TAMPERING"
    return f"#{event.get('seq')} {kind} tenant={tenant} {detail}"


def _cmd_alerts(args) -> int:
    return _with_service(args, lambda client: _alerts_loop(args, client),
                         error_code=2)


def _alerts_loop(args, client) -> int:
    import time

    cursor = args.since
    tampering = False
    shown = 0
    deadline = (
        time.monotonic() + args.duration if args.duration > 0 else None
    )
    while True:
        page = client.alerts(since=cursor, wait=args.wait if args.follow else 0.0)
        cursor = page.get("cursor", cursor)
        for event in page.get("events", []):
            if args.json:
                print(json.dumps(event, sort_keys=True, default=str), flush=True)
            else:
                print(_format_alert_event(event), flush=True)
            if (event.get("fields") or {}).get("tampering"):
                tampering = True
            shown += 1
            if args.max_events and shown >= args.max_events:
                return 1 if tampering else 0
        if not args.follow:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
    return 1 if tampering else 0


def _cmd_trace(args) -> int:
    from repro import obs
    from repro.obs.tracing import render_trace, trace_to_json

    obs.enable(reset=True)
    try:
        _synthetic_workload(args)
        root = obs.OBS.tracer.last_trace()
    finally:
        obs.disable()
    if root is None:
        print("error: no trace was recorded", file=sys.stderr)
        return 1
    return _emit(args, trace_to_json(root) if args.json else render_trace(root))


def _cmd_verify_shipment(args) -> int:
    with open(args.shipment_file) as f:
        shipment = Shipment.from_json(f.read())
    if args.ca_key:
        with open(args.ca_key) as f:
            data = json.loads(f.read())
        public_key = public_key_from_dict(data["public_key"])
        ca_name = data["ca_name"]
    else:
        with Workspace(args.workspace) as ws:
            public_key = ws.ca.public_key
            ca_name = ws.ca.name
    report = shipment.verify_with_ca(public_key, ca_name)
    return _emit(args, render_report(report), failed=not report.ok)


def _run_shell(sql, db, root_id: str, input_stream=None) -> int:
    """The interactive loop behind ``repro shell``.

    Dot-commands: ``.tables``, ``.verify``, ``.help``, ``.exit``.
    Reads from ``input_stream`` (stdin by default) so tests can drive it.
    """
    stream = input_stream if input_stream is not None else sys.stdin
    interactive = stream is sys.stdin and sys.stdin.isatty()
    if interactive:
        print("repro SQL shell — .help for commands, .exit to leave")
    while True:
        if interactive:
            print("sql> ", end="", flush=True)
        line = stream.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (".exit", ".quit"):
            return 0
        if line == ".help":
            print(".tables  list tables\n.verify  verify the database root\n"
                  ".exit    leave the shell\nanything else is executed as SQL")
            continue
        if line == ".tables":
            for table in sql.view.tables():
                print(table)
            continue
        if line == ".verify":
            print(render_report(db.verify(root_id)))
            continue
        try:
            print(sql.execute(line).render())
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "version":
        from repro import __version__

        print(__version__)
        return 0
    # Commands with their own handler; the rest share one open workspace.
    handler = {
        "bench": _cmd_bench, "init": _cmd_init,
        "verify-shipment": _cmd_verify_shipment, "stats": _cmd_stats,
        "chaos": _cmd_chaos, "monitor": _cmd_monitor, "trust": _cmd_trust,
        "trace": _cmd_trace, "serve": _cmd_serve, "client": _cmd_client,
        "dash": _cmd_dash, "alerts": _cmd_alerts,
    }.get(args.command)
    if handler is not None:
        return handler(args)

    with Workspace(args.workspace) as ws:
        if args.command == "enroll":
            ws.enroll(args.participant)
            print(f"enrolled {args.participant!r}")
            return 0

        if args.command == "participants":
            for participant_id in ws.participants():
                print(participant_id)
            return 0

        if args.command == "export-ca-key":
            payload = {
                "ca_name": ws.ca.name,
                "public_key": public_key_to_dict(ws.ca.public_key),
            }
            with open(args.output, "w") as f:
                json.dump(payload, f)
            print(f"wrote CA public key to {args.output}")
            return 0

        db = ws.database()

        if args.command in ("insert", "update", "delete", "aggregate"):
            session = db.session(ws.participant(args.participant))
            if args.command == "insert":
                session.insert(
                    args.object_id, parse_value(args.value), args.parent,
                    note=args.note,
                )
            elif args.command == "update":
                session.update(args.object_id, parse_value(args.value), note=args.note)
            elif args.command == "delete":
                session.delete(args.object_id, note=args.note)
            else:
                session.aggregate(args.inputs, args.output_id, note=args.note)
            print("ok")
            return 0

        if args.command == "shell":
            from repro.model.relational import RelationalView
            from repro.sql.executor import SQLExecutor

            session = db.session(ws.participant(args.participant))
            sql = SQLExecutor(RelationalView(session, root_id=args.root))
            return _run_shell(sql, db, args.root)

        if args.command == "sql":
            from repro.model.relational import RelationalView
            from repro.sql.executor import SQLExecutor

            is_read = args.statement.strip().lower().startswith("select")
            if is_read and args.participant is None:
                if args.root not in db.store:
                    print(f"error: no database root {args.root!r}", file=sys.stderr)
                    return 2
                executor = db.engine
            else:
                if args.participant is None:
                    print("error: writes need --as <participant>", file=sys.stderr)
                    return 2
                executor = db.session(ws.participant(args.participant))
            view = RelationalView(executor, root_id=args.root)
            result = SQLExecutor(view).execute(args.statement, note=args.note)
            print(result.render())
            return 0

        if args.command == "objects":
            for root in db.store.roots():
                print(f"{root}  ({db.store.subtree_size(root)} nodes)")
            return 0

        if args.command == "show":
            inspector = ChainInspector(db.provenance_of(args.object_id))
            print(inspector.render_chain(args.object_id))
            return 0

        if args.command == "audit":
            report = db.verify(args.object_id)
            text = audit_trail(db.dag(args.object_id), args.object_id, report)
            return _emit(args, text, failed=not report.ok)

        if args.command == "lineage":
            print(lineage_summary(db.dag(args.object_id), args.object_id))
            return 0

        if args.command == "history":
            from repro.query.history import value_history

            for entry in value_history(db.provenance_of(args.object_id), args.object_id):
                print(entry)
            return 0

        if args.command == "anchor":
            anchor = ws.anchor(args.object_id)
            print(
                f"anchored {args.object_id!r} at seq {anchor.checkpoint.seq_id} "
                f"(log entry {anchor.position})"
            )
            return 0

        if args.command == "verify":
            shipment = db.ship(args.object_id)
            report = shipment.verify(db.keystore())
            if args.anchors:
                mismatches = ws.check_anchors(
                    shipment, {record.object_id for record in shipment.records}
                )
                report = dataclasses.replace(
                    report,
                    ok=report.ok and not mismatches,
                    failures=report.failures + mismatches,
                )
            return _emit(args, render_report(report), failed=not report.ok)

        if args.command == "lint":
            from repro.audit.lint import lint_store

            report = lint_store(db.provenance_store)
            lines = [report.summary()] + [f"  - {issue}" for issue in report.issues]
            return _emit(args, "\n".join(lines), failed=not report.ok)

        if args.command == "dot":
            from repro.audit.dot import to_dot

            text = to_dot(
                db.dag(args.object_id), args.object_id, include_notes=args.notes
            )
            return _emit(args, text, what="DOT graph")

        if args.command == "ship":
            shipment = db.ship(args.object_id)
            with open(args.output, "w") as f:
                f.write(shipment.to_json())
            print(
                f"shipped {args.object_id!r}: {len(shipment)} records, "
                f"{shipment.snapshot.node_count} nodes -> {args.output}"
            )
            return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

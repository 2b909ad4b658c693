"""Runnable reproductions of every figure/table in the paper's §5.

Each ``run_*`` function regenerates one evaluation artefact and returns an
:class:`ExperimentResult` whose rows mirror what the paper plots.  All
experiments accept ``scale`` (shrinks workload sizes proportionally — the
pure-Python substrate is slower per node than the authors' Java/MySQL
stack, so full scale is opt-in) and ``runs`` (timing repetitions; the
paper used 100).

Shapes expected to match the paper (EXPERIMENTS.md records the outcomes):

- Fig 6: hashing time grows linearly with node count.
- Fig 7: Basic output-tree hashing is ~constant in the number of updated
  cells; Economical grows with it (and is far below Basic until the
  update set approaches the whole table).
- Fig 8/9: all-deletes is the cheapest complex operation in both time
  and space; all-inserts ≈ all-updates.
- Fig 10/11: time and space overhead fall as the delete share rises.
- §5.2: streaming hashing is O(nodes) with O(row) memory; per-node time
  within an order of magnitude of in-memory hashing.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backend.engine import DatabaseEngine
from repro.bench.charts import bar_chart
from repro.bench.history import signed_append, with_meta
from repro.bench.reporting import banner, format_table
from repro.bench.timer import TimingResult, measure
from repro.core.merkle import (
    BasicHashing,
    EconomicalHashing,
    StreamingDatabaseHasher,
    tree_digests,
)
from repro.core.system import TamperEvidentDatabase
from repro.crypto.pki import Participant
from repro.crypto.signatures import (
    HMACSignatureScheme,
    MerkleBatchSignatureScheme,
    NullSignatureScheme,
    RSASignatureScheme,
)
from repro.crypto.rsa import generate_keypair
from repro.exceptions import WorkloadError
from repro.model.relational import RelationalView
from repro.workloads.operations import (
    SETUP_B_OPERATIONS,
    SETUP_C_MIXES,
    apply_mixed_operations,
    apply_row_deletes,
    apply_row_inserts,
    apply_update_sweep,
    setup_a_points,
)
from repro.workloads.signed import signed_world
from repro.workloads.synthetic import (
    PAPER_COMBINATIONS,
    TableSpec,
    build_forest,
    node_count,
    populate_session,
    tables_for,
    title_table_rows,
)

__all__ = [
    "ExperimentResult",
    "bench_main",
    "bench_participant",
    "run_table1b",
    "run_fig6",
    "run_fig7",
    "run_fig8_fig9",
    "run_fig10_fig11",
    "run_streaming",
    "run_ablation_chaining",
    "run_ablation_signature",
    "run_ablation_grouping",
    "run_batch_throughput",
    "run_monitor_bench",
    "run_obs_overhead",
    "run_service_bench",
    "run_trust_bench",
]

#: Table 1(b) as printed in the paper (see EXPERIMENTS.md for the
#: arithmetic discrepancy on the multi-table combinations).
PAPER_TABLE1B_COUNTS = {
    (1,): 36002,
    (1, 2): 66000,
    (1, 2, 3): 88004,
    (1, 2, 3, 4): 118006,
}

# Guard bounds: a guarded benchmark fails when a figure crosses one.  They
# are constants, not options, so no run can loosen them.  FLOORs are
# minimum speedups, LIMITs maximum overheads or cost ratios.
SIGNING_SPEEDUP_FLOOR = 5.0  # merkle-batch vs per-record RSA signed append
ADAPTIVE_VERIFY_FLOOR = 0.90  # adaptive vs serial verify (1.0 less timer noise; >1 cpu)
DISABLED_OVERHEAD_LIMIT = 0.02  # observability off vs an uninstrumented build
SERVICE_PLANE_OVERHEAD_LIMIT = 0.02  # observability plane, per service request
WARM_TICK_SPEEDUP_FLOOR = 5.0  # idle monitor tick vs a full re-verify
EVENTS_OVERHEAD_LIMIT = 0.02  # event emission on the batched append path
HANDOFF_COST_LIMIT = 5.0  # custody hand-off append vs an update
HANDOFF_VERIFY_LIMIT = 3.0  # per-record verify, hand-off world vs solo
IDLE_TICK_FLOOR = 10.0  # idle witness tick vs an anchoring one


@dataclass
class ExperimentResult:
    """Rows regenerating one of the paper's tables/figures."""

    experiment_id: str
    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple[object, ...]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    charts: List[Tuple[str, List[str], List[float], str]] = field(default_factory=list)
    #: Machine-readable companion to ``rows`` (dumped to BENCH_*.json so
    #: future PRs have a throughput trajectory to compare against).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: False once any :meth:`guard` has failed.
    guards_ok: bool = field(default=True, init=False)

    def add(self, *row: object) -> None:
        """Append one row."""
        self.rows.append(tuple(row))

    def note(self, text: str) -> None:
        """Append a free-form note shown under the table."""
        self.notes.append(text)

    def guard(self, ok: bool, text: str) -> bool:
        """Record a guard verdict as a ``GUARD OK|FAILED: text`` note."""
        self.guards_ok = self.guards_ok and ok
        self.note(f"GUARD {'OK' if ok else 'FAILED'}: {text}")
        return ok

    def add_chart(
        self, title: str, labels: Sequence[str], values: Sequence[float], unit: str = ""
    ) -> None:
        """Attach a bar chart (the figure's visual shape)."""
        self.charts.append((title, list(labels), list(values), unit))

    def render(self) -> str:
        """Paper-style text rendering: table, charts, notes."""
        parts = [banner(f"{self.experiment_id}: {self.title}")]
        parts.append(format_table(self.headers, self.rows))
        for title, labels, values, unit in self.charts:
            parts.append("")
            parts.append(bar_chart(labels, values, unit=unit, title=title))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


def bench_main(
    argv: Optional[Sequence[str]],
    parser,
    *,
    run: Callable[..., List[ExperimentResult]],
    quick: Dict[str, object],
    json_default: str,
    name: str,
    guard_flag: bool = False,
) -> int:
    """The command line of every guarded ``benchmarks/bench_*.py`` script.

    Adds ``--json``, ``--quick`` (which applies the ``quick`` overrides)
    and, with ``guard_flag``, ``--guard`` to the script's ``parser``,
    then prints ``run(args)``'s results and writes the first one's
    metrics, with :func:`~repro.bench.history.with_meta`, to ``--json``.
    Exits 1 iff a guard failed (with ``guard_flag``, only under
    ``--guard``).
    """
    parser.add_argument("--json", default=None,
                        help=f"where to write the metrics (default "
                             f"{json_default}, or skipped under --quick; "
                             "'-' to skip)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny everything, for smoke-testing")
    if guard_flag:
        parser.add_argument("--guard", action="store_true",
                            help="exit non-zero when a guard fails")
    args = parser.parse_args(argv)
    if args.quick:
        vars(args).update(quick)
    if args.json is None:
        args.json = "-" if args.quick else json_default
    results = run(args)
    print("\n\n".join(result.render() for result in results))
    if args.json != "-":
        with open(args.json, "w") as fh:
            json.dump(with_meta(results[0].metrics), fh, indent=2)
        print(f"\nmetrics written to {args.json}")
    if all(result.guards_ok for result in results) or (guard_flag and not args.guard):
        return 0
    print(f"error: {name} guard FAILED", file=sys.stderr)
    return 1


def bench_participant(
    participant_id: str = "bench",
    scheme: str = "rsa",
    key_bits: int = 1024,
    seed: int = 7,
    hash_algorithm: str = "sha1",
) -> Participant:
    """A participant with a chosen signature scheme (no certificate).

    ``"rsa"`` matches the paper (1024-bit, 128-byte checksums);
    ``"merkle-batch"`` signs one Merkle root per flush; ``"hmac"`` and
    ``"null"`` isolate signing cost from hashing cost in ablations.
    """
    if scheme in ("rsa", "rsa-per-record", "merkle-batch"):
        keypair = generate_keypair(key_bits, rng=random.Random(seed))
        signer = (
            MerkleBatchSignatureScheme if scheme == "merkle-batch" else RSASignatureScheme
        )
        return Participant(participant_id, signer(keypair.private, hash_algorithm))
    if scheme == "hmac":
        return Participant(
            participant_id, HMACSignatureScheme(b"bench-key", hash_algorithm)
        )
    if scheme == "null":
        return Participant(participant_id, NullSignatureScheme(hash_algorithm))
    raise WorkloadError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Table 1(b): node counts
# ---------------------------------------------------------------------------


def run_table1b(verify_build: bool = True) -> ExperimentResult:
    """Exact node counts per database combination vs the paper's figures.

    With ``verify_build`` a tiny (1%-scale) build confirms the generator's
    arithmetic matches its materialised forests.
    """
    result = ExperimentResult(
        "tab1b",
        "Synthetic databases: node counts",
        ("tables", "computed nodes", "paper printed", "delta"),
    )
    for combination in PAPER_COMBINATIONS:
        computed = node_count(tables_for(combination))
        printed = PAPER_TABLE1B_COUNTS[combination]
        result.add(
            ",".join(map(str, combination)), computed, printed, computed - printed
        )
    if verify_build:
        specs = tables_for((1,), scale=0.01)
        forest = build_forest(specs)
        assert len(forest) == node_count(specs)
        result.note("generator arithmetic verified against a materialised build")
    result.note(
        "multi-table deltas reflect Table 1(b)'s printed values being a few "
        "nodes short of the Table 1(a) arithmetic; see EXPERIMENTS.md"
    )
    return result


# ---------------------------------------------------------------------------
# Fig 6: hashing time vs database size
# ---------------------------------------------------------------------------


def run_fig6(scale: float = 0.25, runs: int = 3, algorithm: str = "sha1") -> ExperimentResult:
    """Average time to hash each Table 1(b) database."""
    result = ExperimentResult(
        "fig6",
        f"Average hashing time per database (scale={scale}, {runs} runs)",
        ("tables", "nodes", "hash time", "us/node"),
    )
    per_node: List[float] = []
    chart_labels: List[str] = []
    chart_values: List[float] = []
    for combination in PAPER_COMBINATIONS:
        specs = tables_for(combination, scale=scale)
        forest = build_forest(specs)
        nodes = len(forest)
        timing = measure(lambda: tree_digests(forest, "db", algorithm), runs=runs)
        per_node.append(timing.mean / nodes)
        result.add(
            ",".join(map(str, combination)),
            nodes,
            timing.format("ms"),
            f"{timing.mean / nodes * 1e6:.2f}",
        )
        chart_labels.append(f"{nodes} nodes")
        chart_values.append(round(timing.mean * 1e3, 2))
    result.add_chart("hashing time (ms)", chart_labels, chart_values, "ms")
    spread = max(per_node) / min(per_node)
    result.note(
        f"per-node cost varies by {spread:.2f}x across sizes "
        f"(linear growth => ratio near 1, as in the paper)"
    )
    return result


# ---------------------------------------------------------------------------
# Fig 7: Basic vs Economical output-tree hashing (Setup A)
# ---------------------------------------------------------------------------


def run_fig7(
    scale: float = 0.25,
    runs: int = 3,
    algorithm: str = "sha1",
    max_points: Optional[int] = None,
) -> ExperimentResult:
    """Hashing the output tree: Basic (full rehash) vs Economical (cached).

    For each Setup A sweep point, the measured quantity is exactly the
    output-tree hashing step — the ``commit`` of the hash context after
    the updates have been applied.
    """
    result = ExperimentResult(
        "fig7",
        f"Output-tree hashing, Basic vs Economical (scale={scale}, {runs} runs)",
        ("workload", "basic", "economical", "basic nodes", "econ nodes"),
    )
    specs = tables_for((1,), scale=scale)
    points = setup_a_points(scale=scale)
    if max_points is not None:
        points = points[:max_points]

    chart_basic: List[float] = []
    chart_econ: List[float] = []
    chart_labels: List[str] = []
    for label, n_updates, n_rows in points:
        row: List[object] = [label]
        hashed_counts: List[int] = []
        means: List[float] = []
        for strategy_name in ("basic", "economical"):
            last: List = []  # every set-up, so the last run's counts can be read

            def set_up():
                forest = build_forest(specs)
                engine = DatabaseEngine(forest)
                captured: List = []
                engine.add_listener(captured.append)
                view = RelationalView(engine)
                strategy = (
                    BasicHashing(algorithm)
                    if strategy_name == "basic"
                    else EconomicalHashing(algorithm)
                )
                ctx = strategy.begin(forest)
                ctx.ensure_tree("db")  # input-tree hash / cache priming
                apply_update_sweep(view, "t1", n_updates, n_rows)
                events = captured[-1].events
                last.append((strategy, ctx, events, strategy.nodes_hashed))
                return last[-1]

            def commit(arg):
                _, ctx, events, _ = arg
                ctx.commit(events)

            timing = measure(commit, runs=runs, setup=set_up)
            strategy, _, _, before = last[-1]
            hashed_counts.append(strategy.nodes_hashed - before)
            means.append(timing.mean)
            row.append(timing.format("ms"))
        row.extend(hashed_counts)
        result.add(*row)
        chart_labels.append(label)
        chart_basic.append(round(means[0] * 1e3, 2))
        chart_econ.append(round(means[1] * 1e3, 2))
    result.add_chart("Basic (ms)", chart_labels, chart_basic, "ms")
    result.add_chart("Economical (ms)", chart_labels, chart_econ, "ms")
    result.note(
        "Basic rehashes the whole table per operation (flat); Economical "
        "rehashes only updated cells plus root paths (grows with updates)"
    )
    return result


# ---------------------------------------------------------------------------
# Figs 8-11: full checksum overhead for complex operations
# ---------------------------------------------------------------------------


def _provenanced_world(
    specs: Sequence[TableSpec],
    scheme: str,
    key_bits: int,
    hash_algorithm: str = "sha1",
) -> Tuple[TamperEvidentDatabase, Participant, RelationalView]:
    """A populated tamper-evident database plus the acting participant.

    The initial load is signed with the null scheme (fast); the measured
    operations are signed with the requested scheme, as the paper measures
    only the per-operation overhead, not initial-load cost.
    """
    db = TamperEvidentDatabase(hash_algorithm=hash_algorithm)
    loader = bench_participant("loader", scheme="null", hash_algorithm=hash_algorithm)
    view = populate_session(db.session(loader), specs)
    actor = bench_participant(
        "actor", scheme=scheme, key_bits=key_bits, hash_algorithm=hash_algorithm
    )
    return db, actor, view


def _run_complex_op_experiment(
    experiment_id: str,
    title: str,
    workloads: Sequence[Tuple[str, Callable[[RelationalView, str], object]]],
    specs: Sequence[TableSpec],
    runs: int,
    scheme: str,
    key_bits: int,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """Shared driver for Figs 8/9 and 10/11: time and space per workload."""
    time_result = ExperimentResult(
        experiment_id.split("+")[0],
        f"{title} — time overhead ({runs} runs, {scheme} signatures)",
        ("workload", "op time", "records", "checksums/s"),
    )
    space_result = ExperimentResult(
        experiment_id.split("+")[-1],
        f"{title} — space overhead ({scheme} signatures)",
        ("workload", "records", "checksum bytes", "bytes/record"),
    )
    baseline = _provenanced_world(specs, scheme, key_bits)

    chart_labels: List[str] = []
    chart_times: List[float] = []
    chart_space: List[float] = []
    for label, workload in workloads:
        worlds: List = []

        def fresh_view() -> RelationalView:
            db, actor, view = copy.deepcopy(baseline)
            store = db.provenance_store
            worlds.append((store, len(store), store.space_bytes()))
            return RelationalView(db.session(actor), root_id=view.root_id)

        timing = measure(lambda view: workload(view, "t1"), runs=runs, setup=fresh_view)
        store, records_before, space_before = worlds[-1]
        records_delta = len(store) - records_before
        space_delta = store.space_bytes() - space_before
        rate = records_delta / timing.mean if timing.mean else float("inf")
        time_result.add(label, timing.format("ms"), records_delta, f"{rate:.0f}")
        space_result.add(
            label,
            records_delta,
            space_delta,
            f"{space_delta / records_delta:.0f}" if records_delta else "-",
        )
        chart_labels.append(label)
        chart_times.append(round(timing.mean * 1e3, 1))
        chart_space.append(float(space_delta))
    time_result.add_chart("operation time (ms)", chart_labels, chart_times, "ms")
    space_result.add_chart("checksum bytes stored", chart_labels, chart_space, "B")
    return time_result, space_result


def run_fig8_fig9(
    scale: float = 0.125,
    runs: int = 3,
    scheme: str = "rsa",
    key_bits: int = 1024,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """Setup B: all-deletes / all-inserts / two update spreads (Figs 8 & 9)."""
    specs = tables_for((1,), scale=scale)
    rows_in_table = specs[0].rows

    def s(count: int) -> int:
        return max(1, round(count * scale))

    workloads: List[Tuple[str, Callable]] = []
    for key, deletes, inserts, updates, update_rows in SETUP_B_OPERATIONS:
        if deletes:
            workloads.append(
                (key, lambda v, t, n=s(deletes): apply_row_deletes(v, t, n))
            )
        elif inserts:
            workloads.append(
                (key, lambda v, t, n=s(inserts): apply_row_inserts(v, t, n))
            )
        else:
            n_updates = s(updates)
            n_rows = min(s(update_rows), rows_in_table)
            workloads.append(
                (
                    key,
                    lambda v, t, nu=n_updates, nr=n_rows: apply_update_sweep(
                        v, t, nu, nr
                    ),
                )
            )
    time_result, space_result = _run_complex_op_experiment(
        "fig8+fig9",
        f"Setup B complex operations (scale={scale})",
        workloads,
        specs,
        runs,
        scheme,
        key_bits,
    )
    time_result.note(
        "expected shape: all-deletes cheapest (ancestor records only); "
        "all-inserts ~ all-updates"
    )
    space_result.note(
        "expected shape: deletes store only inherited ancestor checksums; "
        "inserts/updates store one checksum per touched object + ancestors"
    )
    return time_result, space_result


def run_fig10_fig11(
    scale: float = 0.125,
    runs: int = 3,
    scheme: str = "rsa",
    key_bits: int = 1024,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """Setup C: 500-op delete/insert/update mixes (Figs 10 & 11)."""
    specs = tables_for((1,), scale=scale)
    workloads = [
        (
            mix.label,
            lambda v, t, m=mix.scaled(scale): apply_mixed_operations(v, t, m),
        )
        for mix in SETUP_C_MIXES
    ]
    time_result, space_result = _run_complex_op_experiment(
        "fig10+fig11",
        f"Setup C mixed complex operations (scale={scale})",
        workloads,
        specs,
        runs,
        scheme,
        key_bits,
    )
    time_result.note("expected shape: overhead falls as the delete share rises")
    space_result.note("expected shape: space inversely proportional to deletes")
    return time_result, space_result


# ---------------------------------------------------------------------------
# §5.2 streaming scale experiment
# ---------------------------------------------------------------------------


def run_streaming(rows: int = 100_000, algorithm: str = "sha1") -> ExperimentResult:
    """Hash a larger-than-memory 'Title' table one row at a time.

    The paper's table had 18,962,041 rows (56,886,125 nodes) and hashed in
    1226.7 s — 0.02156 ms/node.  ``rows`` scales the synthetic equivalent;
    memory stays O(row) regardless.
    """
    import tracemalloc

    result = ExperimentResult(
        "stream",
        f"Streaming hash of the Title table ({rows} rows)",
        ("metric", "value"),
    )
    # Timing pass: no instrumentation (tracemalloc costs ~6x per node).
    hasher = StreamingDatabaseHasher(algorithm)
    start = time.perf_counter()
    digest = hasher.hash_database(
        "bigdb", None, [("bigdb/title", "doc_id,title", title_table_rows(rows))]
    )
    elapsed = time.perf_counter() - start
    # Memory pass: separate, smaller run — the footprint is O(row) anyway.
    memory_rows = min(rows, 20_000)
    tracemalloc.start()
    StreamingDatabaseHasher(algorithm).hash_database(
        "bigdb", None,
        [("bigdb/title", "doc_id,title", title_table_rows(memory_rows))],
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    nodes = hasher.nodes_hashed
    result.add("rows", rows)
    result.add("nodes hashed", nodes)
    result.add("total time", f"{elapsed:.2f} s")
    result.add("time per node", f"{elapsed / nodes * 1e3:.5f} ms")
    result.add("peak memory", f"{peak / 1024:.0f} KiB (O(row), not O(table))")
    result.add("digest", digest.hex())
    result.note("paper: 0.02156 ms/node on 56.9M nodes (Java, 2009 hardware)")
    return result


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------


def run_ablation_chaining(
    n_objects: int = 40, updates_per_object: int = 5
) -> ExperimentResult:
    """Local vs global chaining (§3.2): failure isolation.

    One corrupted checksum is injected mid-history; the table reports how
    many objects remain verifiable under each policy.
    """
    from repro.baseline.global_chain import GlobalChainProvenance
    from repro.core.verifier import Verifier
    from repro.crypto.pki import CertificateAuthority, KeyStore

    rng = random.Random(11)
    ca = CertificateAuthority(key_bits=512, rng=rng)
    signer = Participant.enroll("p1", ca, key_bits=512, rng=rng)
    keystore = KeyStore.trusting(ca)
    keystore.add_certificate(signer.certificate)

    # Global chain: interleaved updates across objects.
    global_chain = GlobalChainProvenance()
    for round_no in range(updates_per_object):
        for i in range(n_objects):
            global_chain.record(signer, f"obj{i}", round_no * 1000 + i)
    corrupt_at = len(global_chain) // 2
    global_chain.corrupt(corrupt_at)
    global_ok = len(global_chain.verifiable_objects(keystore))

    # Local chains: same workload through the real system.
    db = TamperEvidentDatabase(ca=ca)
    session = db.session(signer)
    for i in range(n_objects):
        session.insert(f"obj{i}", -1)
    for round_no in range(updates_per_object - 1):
        for i in range(n_objects):
            session.update(f"obj{i}", round_no * 1000 + i)
    # Corrupt one object's mid-chain record.
    victim = "obj0"
    verifier = Verifier(keystore)
    local_ok = 0
    for i in range(n_objects):
        records = list(db.provenance_of(f"obj{i}"))
        if f"obj{i}" == victim:
            middle = records[len(records) // 2]
            records[len(records) // 2] = middle.with_checksum(
                bytes([middle.checksum[0] ^ 0xFF]) + middle.checksum[1:]
            )
        if verifier.verify_records(records).ok:
            local_ok += 1

    result = ExperimentResult(
        "ablation-chaining",
        f"Failure isolation after 1 corrupted checksum "
        f"({n_objects} objects x {updates_per_object} updates)",
        ("policy", "objects verifiable", "objects poisoned", "lock acquisitions"),
    )
    result.add("local (per-object)", local_ok, n_objects - local_ok, 0)
    result.add(
        "global (single chain)",
        global_ok,
        n_objects - global_ok,
        global_chain.lock_acquisitions,
    )
    result.note(
        "local chaining loses exactly the corrupted object; the global "
        "chain loses every object appended after the corruption point, and "
        "serialises all appends through one lock"
    )
    return result


def run_ablation_signature(
    scale: float = 0.05, runs: int = 3, key_bits: int = 1024
) -> ExperimentResult:
    """Checksum cost decomposition: RSA vs HMAC vs digest-only signing."""
    result = ExperimentResult(
        "ablation-signature",
        f"Signature scheme cost for one update sweep (scale={scale})",
        ("scheme", "op time", "records", "signature bytes"),
    )
    specs = tables_for((1,), scale=scale)
    n = max(1, round(400 * scale))
    for scheme in ("rsa", "hmac", "null"):
        baseline = _provenanced_world(specs, scheme, key_bits)
        records_delta = [0]

        def run_op(arg):
            db, actor, view = arg
            session_view = RelationalView(db.session(actor), root_id=view.root_id)
            before = len(db.provenance_store)
            apply_update_sweep(session_view, "t1", n, n)
            records_delta[0] = len(db.provenance_store) - before

        timing = measure(
            run_op, runs=runs, setup=lambda: copy.deepcopy(baseline)
        )
        actor = baseline[1]
        result.add(
            scheme,
            timing.format("ms"),
            records_delta[0],
            actor.signature_size,
        )
    result.note(
        "the gap between rsa and null is pure public-key signing cost; "
        "the paper's 'checksum generation' conflates the two"
    )
    return result


def run_ablation_grouping(scale: float = 0.05) -> ExperimentResult:
    """Per-primitive vs complex-operation provenance (§4.4).

    Same 2-rows-of-updates workload recorded both ways; complex grouping
    collapses the inherited ancestor records.
    """
    result = ExperimentResult(
        "ablation-grouping",
        f"Record counts: per-primitive vs one complex operation (scale={scale})",
        ("mode", "updates", "records stored", "records/update"),
    )
    specs = tables_for((1,), scale=scale)
    n = min(specs[0].rows, 50)
    for grouped in (False, True):
        db, actor, view = _provenanced_world(specs, "null", 512)
        session = db.session(actor)
        session_view = RelationalView(session, root_id=view.root_id)
        before = len(db.provenance_store)
        keys = session_view.row_keys("t1")[:n]
        if grouped:
            with session.complex_operation():
                for key in keys:
                    session_view.update_cell("t1", key, "a1", key)
        else:
            for key in keys:
                session_view.update_cell("t1", key, "a1", key)
        stored = len(db.provenance_store) - before
        result.add(
            "complex (one group)" if grouped else "per-primitive",
            n,
            stored,
            f"{stored / n:.2f}",
        )
    result.note(
        "per-primitive: each cell update also re-records row, table and "
        "root; grouping amortises the inherited records across the batch"
    )
    return result


# ---------------------------------------------------------------------------
# Batched write path + parallel verification throughput
# ---------------------------------------------------------------------------


def _fig8_style_records(n_records: int, checksum_bytes: int = 128) -> List:
    """A synthetic Fig-8-shaped record stream.

    Setup B fans each cell update out to the row, table and root chains
    (§4.2), so the stream interleaves many short cell/row chains with a
    few very hot table/root chains — the shape that stresses per-object
    sequence tracking.  Checksums are sized like the paper's 1024-bit RSA
    signatures (128 bytes).
    """
    import hashlib

    from repro.provenance.records import ObjectState, Operation, ProvenanceRecord

    records: List = []
    seqs: Dict[str, int] = {}
    digests: Dict[str, bytes] = {}
    i = 0
    while len(records) < n_records:
        row = f"db/t1/r{i % 1000}"
        for object_id in (f"{row}/a1", row, "db/t1", "db"):
            if len(records) == n_records:
                break
            seq = seqs.get(object_id, -1) + 1
            seqs[object_id] = seq
            after = hashlib.sha1(f"{object_id}#{seq}".encode()).digest()
            before = digests.get(object_id)
            digests[object_id] = after
            if seq == 0:
                operation, inputs = Operation.INSERT, ()
            else:
                operation = Operation.UPDATE
                inputs = (ObjectState(object_id=object_id, digest=before),)
            checksum = (
                hashlib.sha256(f"{object_id}#{seq}".encode()).digest() * 4
            )[:checksum_bytes]
            records.append(
                ProvenanceRecord(
                    object_id=object_id,
                    seq_id=seq,
                    participant_id="bench",
                    operation=operation,
                    inputs=inputs,
                    output=ObjectState(object_id=object_id, digest=after),
                    checksum=checksum,
                )
            )
        i += 1
    return records


def _seed_style_append(path: str, records: Sequence) -> None:
    """The v0 per-record write path, reproduced for the before/after row.

    What `SQLiteProvenanceStore.append` did at the seed: default DELETE
    journal (no WAL), a ``latest()`` that JSON-decodes the full payload
    just to read ``seq_id``, then INSERT + commit — per record.
    """
    import json
    import sqlite3

    from repro.provenance.records import ProvenanceRecord
    from repro.provenance.store import SQLiteProvenanceStore

    conn = sqlite3.connect(path)
    try:
        conn.executescript(SQLiteProvenanceStore._SCHEMA)
        conn.execute("PRAGMA synchronous = OFF")
        for record in records:
            row = conn.execute(
                "SELECT payload FROM provenance WHERE object_id = ?"
                " ORDER BY seq_id DESC LIMIT 1",
                (record.object_id,),
            ).fetchone()
            if row is not None:
                latest = ProvenanceRecord.from_dict(json.loads(row[0]))
                assert record.seq_id > latest.seq_id
            conn.execute(
                "INSERT INTO provenance(object_id, seq_id, participant,"
                " checksum, payload) VALUES (?, ?, ?, ?, ?)",
                (
                    record.object_id,
                    record.seq_id,
                    record.participant_id,
                    record.checksum,
                    json.dumps(record.to_dict()),
                ),
            )
            conn.commit()
    finally:
        conn.close()


def _batched_append(
    records: Sequence, batch_size: int, path: Optional[str] = None
) -> None:
    """The batched write path: ``records`` into a fresh SQLite provenance
    store at ``path`` (a temporary file by default), ``batch_size`` per
    :meth:`append_many` call."""
    from repro.provenance.store import SQLiteProvenanceStore

    if path is None:
        with tempfile.TemporaryDirectory() as tmp:
            return _batched_append(records, batch_size, os.path.join(tmp, "prov.db"))
    with SQLiteProvenanceStore(path) as store:
        for i in range(0, len(records), batch_size):
            store.append_many(records[i : i + batch_size])


def run_batch_throughput(
    n_records: int = 10_000,
    workers: int = 4,
    runs: int = 3,
    batch_size: int = 1_000,
    verify_objects: int = 1_500,
    verify_updates: int = 3,
    key_bits: int = 512,
    signing_batches: int = 8,
    flush_size: int = 64,
    signing_key_bits: int = 1024,
) -> ExperimentResult:
    """Records/sec: per-record vs batched append, serial vs parallel verify.

    The append arms replay an ``n_records`` Fig-8-style stream into an
    on-disk SQLite provenance database three ways: the v0 per-record
    write path (JSON-decoding ``latest()``, DELETE journal, one commit
    per record), the current per-record :meth:`append` (chain-tail cache,
    WAL), and :meth:`append_many` in ``batch_size`` batches.  The verify
    arms re-check a real signed multi-object world serially, with an
    explicit-worker :class:`~repro.core.verifier.ParallelVerifier`, and
    with the adaptive (``workers=None``) verifier, which must never lose
    to serial.  The signing arms run the same ``signing_batches`` x
    ``flush_size`` end-to-end workload under per-record RSA and under
    Merkle-batch signing (one root signature per flush) at the paper's
    ``signing_key_bits`` key size, plus a per-flush decomposition of
    where the time goes (leaf hashing, audit-path construction, one RSA
    root sign, ``flush_size`` RSA per-record signs).  Timings are
    best-of-``runs``; :attr:`ExperimentResult.metrics` carries the raw
    numbers for ``BENCH_throughput.json``.  Guards:
    :data:`SIGNING_SPEEDUP_FLOOR` and :data:`ADAPTIVE_VERIFY_FLOOR`, with
    the adaptive report byte-identical to the serial one.
    """
    from repro.core.verifier import ParallelVerifier, Verifier
    from repro.provenance.store import SQLiteProvenanceStore

    result = ExperimentResult(
        "throughput",
        f"Batched append + parallel verify throughput "
        f"({n_records} records, best of {runs})",
        ("path", "time", "records/s", "speedup"),
    )

    records = _fig8_style_records(n_records)

    def per_record_current(path: str) -> None:
        with SQLiteProvenanceStore(path) as store:
            for record in records:
                store.append(record)

    with tempfile.TemporaryDirectory() as tmp:
        # Every run appends into a fresh database file.
        paths = (os.path.join(tmp, f"prov-{i}.db") for i in itertools.count())
        seed_s, current_s, batched_s = (
            measure(fn, runs=runs, setup=paths.__next__).best
            for fn in (
                lambda path: _seed_style_append(path, records),
                per_record_current,
                lambda path: _batched_append(records, batch_size, path),
            )
        )

    def rps(elapsed: float) -> float:
        return n_records / elapsed if elapsed else float("inf")

    result.add("append: per-record (v0 path)", f"{seed_s:.3f} s", f"{rps(seed_s):.0f}", "1.0x")
    result.add(
        "append: per-record (current)",
        f"{current_s:.3f} s",
        f"{rps(current_s):.0f}",
        f"{seed_s / current_s:.1f}x",
    )
    result.add(
        f"append: append_many (batch={batch_size})",
        f"{batched_s:.3f} s",
        f"{rps(batched_s):.0f}",
        f"{seed_s / batched_s:.1f}x",
    )

    # ------------------------------------------------------------------
    # verification: serial vs per-object-chain parallel
    # ------------------------------------------------------------------
    db, _ = signed_world(verify_objects, verify_updates, key_bits=key_bits, seed=42)
    verify_records = list(db.provenance_store.all_records())
    keystore = db.keystore()
    serial_verifier = Verifier(keystore)
    parallel_verifier = ParallelVerifier(keystore, workers=workers)
    adaptive_verifier = ParallelVerifier(keystore)  # workers=None: adaptive

    serial_s, parallel_s, adaptive_s = (
        measure(lambda: verifier.verify_records(verify_records), runs=runs).best
        for verifier in (serial_verifier, parallel_verifier, adaptive_verifier)
    )
    serial_report = serial_verifier.verify_records(verify_records)
    parallel_report = parallel_verifier.verify_records(verify_records)
    adaptive_report = adaptive_verifier.verify_records(verify_records)
    identical = serial_report == parallel_report
    adaptive_identical = serial_report == adaptive_report
    verify_chains: Dict[str, List] = {}
    for record in verify_records:
        verify_chains.setdefault(record.object_id, []).append(record)
    adaptive_parallel = adaptive_verifier._parallel_profitable(verify_chains)

    n_verify = len(verify_records)
    result.add(
        "verify: serial",
        f"{serial_s:.3f} s",
        f"{n_verify / serial_s:.0f}",
        "1.0x",
    )
    result.add(
        f"verify: parallel ({workers} workers)",
        f"{parallel_s:.3f} s",
        f"{n_verify / parallel_s:.0f}",
        f"{serial_s / parallel_s:.2f}x",
    )
    result.add(
        "verify: adaptive "
        + ("(chose parallel)" if adaptive_parallel else "(chose serial)"),
        f"{adaptive_s:.3f} s",
        f"{n_verify / adaptive_s:.0f}",
        f"{serial_s / adaptive_s:.2f}x",
    )
    cpu_count = os.cpu_count() or 1
    result.note(
        f"reports byte-identical: {identical}; host has {cpu_count} cpu(s) — "
        "process-parallel verify only beats serial with >1 core"
    )
    result.note(
        "v0 path = JSON-decoding latest() + DELETE journal + commit/record "
        "(what the seed's append did); see EXPERIMENTS.md performance notes"
    )

    # ------------------------------------------------------------------
    # signing: per-record RSA vs one Merkle root per flush
    # ------------------------------------------------------------------
    signing_records = signing_batches * flush_size
    rsa_sign_s, merkle_sign_s = (
        signed_append(
            scheme, key_bits=signing_key_bits, seed=99,
            batches=signing_batches, flush_size=flush_size, runs=runs,
        ).best
        for scheme in ("rsa-pkcs1v15", "merkle-batch")
    )
    signing_speedup = rsa_sign_s / merkle_sign_s if merkle_sign_s else float("inf")
    result.add(
        "signed append: rsa per-record",
        f"{rsa_sign_s:.3f} s",
        f"{signing_records / rsa_sign_s:.0f}",
        "1.0x",
    )
    result.add(
        f"signed append: merkle-batch (flush={flush_size})",
        f"{merkle_sign_s:.3f} s",
        f"{signing_records / merkle_sign_s:.0f}",
        f"{signing_speedup:.1f}x",
    )

    # Per-flush decomposition: where does one flush of ``flush_size``
    # records spend its time under each scheme?
    from repro.core.merkle import batch_audit_paths, batch_leaf

    keypair = generate_keypair(signing_key_bits, rng=random.Random(7))
    rsa_scheme = RSASignatureScheme(keypair.private)
    flush_payloads = [f"payload-{i}".encode() * 8 for i in range(flush_size)]
    flush_leaves = [batch_leaf(p) for p in flush_payloads]
    decomp_runs = max(3, runs)
    hash_s, proofs_s, root_sign_s, per_record_sign_s = (
        measure(fn, runs=decomp_runs).best
        for fn in (
            lambda: [batch_leaf(p) for p in flush_payloads],
            lambda: batch_audit_paths(flush_leaves),
            lambda: rsa_scheme.sign(flush_leaves[0]),
            lambda: [rsa_scheme.sign(p) for p in flush_payloads],
        )
    )
    for label, seconds in (
        ("per flush: leaf hashing", hash_s),
        ("per flush: merkle audit paths", proofs_s),
        ("per flush: rsa root sign (x1)", root_sign_s),
        (f"per flush: rsa per-record sign (x{flush_size})", per_record_sign_s),
    ):
        result.add(label, f"{seconds * 1e3:.3f} ms", "-", "-")
    signing_ok = result.guard(
        signing_speedup >= SIGNING_SPEEDUP_FLOOR,
        f"merkle-batch signed append {signing_speedup:.1f}x vs per-record "
        f"RSA (floor {SIGNING_SPEEDUP_FLOOR:.0f}x, {signing_key_bits}-bit keys)",
    )
    adaptive_speedup = serial_s / adaptive_s
    result.guard(
        adaptive_identical
        and (cpu_count == 1 or adaptive_speedup >= ADAPTIVE_VERIFY_FLOOR),
        f"adaptive verify {adaptive_speedup:.2f}x serial (floor "
        f"{ADAPTIVE_VERIFY_FLOOR:.2f}x"
        + (", not enforced on 1 cpu" if cpu_count == 1 else "")
        + f"), report identical: {adaptive_identical}",
    )

    result.metrics = {
        "workload": {
            "n_records": n_records,
            "batch_size": batch_size,
            "verify_records": n_verify,
            "verify_objects": verify_objects,
            "runs": runs,
            "key_bits": key_bits,
        },
        "hardware": {"cpu_count": cpu_count},
        "append": {
            "seed_path_s": seed_s,
            "seed_path_rps": rps(seed_s),
            "per_record_s": current_s,
            "per_record_rps": rps(current_s),
            "batched_s": batched_s,
            "batched_rps": rps(batched_s),
            "speedup_batched_vs_seed": seed_s / batched_s,
            "speedup_batched_vs_per_record": current_s / batched_s,
        },
        "verify": {
            "workers": workers,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": serial_s / parallel_s,
            "reports_identical": identical,
            "adaptive_s": adaptive_s,
            "adaptive_speedup": adaptive_speedup,
            "adaptive_chose_parallel": adaptive_parallel,
            "adaptive_reports_identical": adaptive_identical,
        },
        "signing": {
            "workload": {
                "batches": signing_batches,
                "flush_size": flush_size,
                "records": signing_records,
                "key_bits": signing_key_bits,
                "runs": runs,
            },
            "rsa_per_record_s": rsa_sign_s,
            "rsa_per_record_rps": signing_records / rsa_sign_s,
            "merkle_batch_s": merkle_sign_s,
            "merkle_batch_rps": signing_records / merkle_sign_s,
            "speedup": signing_speedup,
            "per_flush": {
                "leaf_hash_s": hash_s,
                "audit_paths_s": proofs_s,
                "rsa_root_sign_s": root_sign_s,
                "rsa_per_record_sign_s": per_record_sign_s,
            },
            "guard": {"floor": SIGNING_SPEEDUP_FLOOR, "ok": signing_ok},
        },
    }
    return result


# ---------------------------------------------------------------------------
# observability overhead
# ---------------------------------------------------------------------------


def _disabled_costs(iterations: int = 100_000, repeats: int = 5) -> Dict[str, float]:
    """Seconds each kind of disabled instrumentation adds (best of ``repeats``).

    - ``check``: one ``if OBS.enabled`` slot check (metric and event sites);
    - ``decorator``: a three-argument call through a phase-decorated
      function, over calling the function directly;
    - ``with``: a ``with obs.phase(...)`` block carrying two attributes,
      over an empty loop body.

    Three arguments and two attributes are the most any per-record
    decorated site or ``with`` site on the benchmark workloads passes.
    Costs are clamped at zero (they near timer resolution on fast hosts).
    """
    import timeit

    from repro import obs

    def plain(first, second, third):
        return first

    if obs.OBS.enabled or obs.PHASES["hash"].live or obs.PHASES["verify.chain"].live:
        raise AssertionError("observability must be off during the microbench")
    scope = {
        "obs": obs, "OBS": obs.OBS, "plain": plain,
        "decorated": obs.phase("hash")(plain),
    }

    def per_loop(body: str) -> float:
        runs = timeit.repeat(body, number=iterations, repeat=repeats, globals=scope)
        return TimingResult(samples=tuple(runs)).best / iterations

    empty = per_loop("pass")
    block = "with obs.phase('verify.chain', object_id='x', records=1): pass"
    return {
        "check": max(0.0, per_loop("if OBS.enabled: pass") - empty),
        "decorator": max(
            0.0, per_loop("decorated(1, 2, 3)") - per_loop("plain(1, 2, 3)")
        ),
        "with": max(0.0, per_loop(block) - empty),
    }


def _phase_entries(workload: Callable[[], None]) -> Dict[str, int]:
    """``obs.phase`` entries one untimed run of ``workload`` makes, per
    spelling, counted exactly by a call hook: calls of the wrapper code
    that every decorated function shares, and calls of ``obs.phase``."""
    from repro import obs

    wrapper_code = obs.phase("hash")(len).__code__
    phase_code = obs.phase.__code__
    counts = {"decorator": 0, "with": 0}

    def hook(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code is wrapper_code:
                counts["decorator"] += 1
            elif code is phase_code:
                counts["with"] += 1

    sys.setprofile(hook)
    try:
        workload()
    finally:
        sys.setprofile(None)
    return counts


def run_obs_overhead(
    n_records: int = 10_000,
    runs: int = 3,
    verify_objects: int = 200,
    verify_updates: int = 3,
    key_bits: int = 512,
) -> ExperimentResult:
    """Overhead of the observability layer, disabled and enabled.

    Two workloads — a batched SQLite append stream (the hottest write
    path) and a serial chain verification — each run with observability
    off and on.  The *disabled*-mode overhead versus a hypothetical
    uninstrumented build cannot be timed directly (the uninstrumented
    code no longer exists), so it is bounded from above as the sum of
    two terms, each divided by the disabled-run wall time:

    - *metrics*: the metric-accessor hits of the metrics-on run
      (``registry.calls``, a strict overestimate of the disabled-mode
      ``if OBS.enabled`` checks on the same path) times the measured
      cost of one such check;
    - *phases*: the :func:`repro.obs.phase` entries the disabled run
      makes, counted per spelling (decorated call or ``with`` block),
      each priced at the measured disabled cost of one entry in that
      spelling.

    A third arm runs each workload with the phase profiler attached
    (metrics off) and reports its time and phase calls.  The guard
    fails the benchmark when the bound exceeds
    :data:`DISABLED_OVERHEAD_LIMIT` (2%) on either workload.
    """
    from repro import obs
    from repro.core.verifier import Verifier

    result = ExperimentResult(
        "obs-overhead",
        f"Observability overhead ({n_records} records, best of {runs})",
        ("workload", "obs off", "obs on", "profile on", "enabled delta",
         "disabled bound"),
    )

    records = _fig8_style_records(n_records)
    db, _ = signed_world(verify_objects, verify_updates, key_bits=key_bits, seed=42)
    verify_records = list(db.provenance_store.all_records())
    verifier = Verifier(db.keystore())

    def verify_workload() -> None:
        verifier.verify_records(verify_records)

    costs = _disabled_costs()
    check_s = costs.pop("check")
    entry_s = costs

    arms = {}
    for name, workload in (
        ("append", lambda: _batched_append(records, 1_000)),
        ("verify", verify_workload),
    ):
        obs.disable(reset=True)
        off_s = measure(workload, runs=runs).best

        obs.enable(metrics=True, tracing=False, reset=True)
        on_s = measure(workload, runs=runs).best
        # Accessor invocations for ONE run (the counter accumulated
        # over `runs` timed repetitions).
        calls = obs.OBS.registry.calls / max(1, runs)
        obs.disable(reset=True)

        # Profiler arm: metrics off, phase profiler on.
        prof = obs.enable_profile(reset=True)
        prof_on_s = measure(workload, runs=runs).best
        profile_calls = prof.total_calls() / max(1, runs)
        obs.disable_profile()

        entries = _phase_entries(workload)
        phase_s = sum(entries[spelling] * entry_s[spelling] for spelling in entries)
        metrics_bound = (calls * check_s) / off_s if off_s else 0.0
        profiler_bound = phase_s / off_s if off_s else 0.0
        disabled_bound = metrics_bound + profiler_bound
        enabled_delta = (on_s - off_s) / off_s if off_s else 0.0
        arms[name] = {
            "off_s": off_s,
            "on_s": on_s,
            "profile_on_s": prof_on_s,
            "enabled_delta": enabled_delta,
            "registry_calls": calls,
            "profile_calls": profile_calls,
            "phase_entries": entries,
            "metrics_disabled_bound": metrics_bound,
            "profiler_disabled_bound": profiler_bound,
            "disabled_overhead_bound": disabled_bound,
        }
        result.add(
            name,
            f"{off_s:.3f} s",
            f"{on_s:.3f} s",
            f"{prof_on_s:.3f} s",
            f"{enabled_delta * 100:+.1f}%",
            f"{disabled_bound * 100:.4f}%",
        )

    worst_bound = max(arm["disabled_overhead_bound"] for arm in arms.values())
    result.note(
        f"one disabled metrics check costs ~{check_s * 1e9:.1f} ns and one "
        f"disabled phase entry ~{entry_s['decorator'] * 1e9:.0f} ns "
        f"(decorated call) / ~{entry_s['with'] * 1e9:.0f} ns (with block); "
        "the disabled bound prices every metric-accessor hit as a check "
        "(a strict overestimate) and every phase entry the disabled run "
        "makes at its spelling's cost"
    )
    guard_ok = result.guard(
        worst_bound <= DISABLED_OVERHEAD_LIMIT,
        f"worst disabled-mode bound {worst_bound * 100:.4f}% vs limit "
        f"{DISABLED_OVERHEAD_LIMIT * 100:.1f}%",
    )

    result.metrics = {
        "workload": {
            "n_records": n_records,
            "runs": runs,
            "verify_records": len(verify_records),
            "verify_objects": verify_objects,
            "key_bits": key_bits,
        },
        "noop_check_ns": check_s * 1e9,
        "phase_entry_ns": {
            spelling: cost * 1e9 for spelling, cost in entry_s.items()
        },
        "arms": arms,
        "guard": {
            "max_disabled_overhead": DISABLED_OVERHEAD_LIMIT,
            "worst_disabled_bound": worst_bound,
            "ok": guard_ok,
        },
    }
    return result


def run_service_obs_overhead(
    n_requests: int = 200,
    runs: int = 3,
    key_bits: int = 512,
    monitor_interval: float = 1.0,
) -> ExperimentResult:
    """Observability overhead on the *service* request hot path.

    Times ``n_requests`` HTTP record/read requests against a live
    in-process server with observability fully off (the baseline a
    deployment without the plane would see) and again with the full
    plane on — tracing headers, event correlation, metrics, and the
    background monitor sweeping at ``monitor_interval`` — as the
    enabled-mode delta, reported but not guarded (HTTP wall time is
    noisy).

    The **guarded** number is deterministic, an analytic upper bound on
    what the plane costs a deployment per request:

    - *tracing headers*: the measured microcost of one full header
      round-trip — client-side :func:`~repro.obs.plane.encode_traceparent`
      plus server-side :func:`~repro.obs.plane.parse_traceparent` and
      :func:`~repro.obs.plane.valid_correlation_id` — divided by the
      measured baseline per-request time (this work only exists when the
      plane is on; with it off the sites reduce to slot reads, already
      bounded by ``run_obs_overhead``);
    - *background monitor*: one measured **idle** tick (watermarks
      clean, store unchanged — the steady state) amortized over
      ``monitor_interval``, i.e. the fraction of one core the daemon
      steals from request handling.

    Their sum is guarded at :data:`SERVICE_PLANE_OVERHEAD_LIMIT` (2%).
    """
    from repro import obs
    from repro.obs.plane import (
        encode_traceparent,
        parse_traceparent,
        valid_correlation_id,
    )
    from repro.service import ProvenanceHTTPServer, ServiceClient, ServiceConfig
    from repro.service.background import BackgroundMonitor
    from repro.service.core import ProvenanceService

    result = ExperimentResult(
        "service-obs-overhead",
        f"Service observability overhead ({n_requests} requests, "
        f"best of {runs})",
        ("arm", "obs off", "plane on", "enabled delta", "guarded bound"),
    )

    def request_workload(client: ServiceClient, tag: str) -> Callable[[], None]:
        def workload() -> None:
            for i in range(n_requests):
                if i % 4 == 3:
                    client.objects()
                else:
                    client.update(f"{tag}-obj", i)
        return workload

    def timed_server(enabled: bool) -> float:
        if enabled:
            obs.enable(reset=True)
            obs.enable_events()
        else:
            obs.disable(reset=True)
        config = ServiceConfig(
            seed=11, key_bits=key_bits,
            monitor_interval=monitor_interval if enabled else 0.0,
        )
        server = ProvenanceHTTPServer(config=config)
        server.start_background()
        try:
            admin = ServiceClient(
                server.base_url, token=server.service.admin_token
            )
            tag = "on" if enabled else "off"
            client = ServiceClient(
                server.base_url, token=admin.issue_key("bench")["token"]
            )
            client.insert(f"{tag}-obj", 0)
            return measure(request_workload(client, tag), runs=runs).best
        finally:
            server.stop()
            if enabled:
                obs.disable_events()
                obs.disable(reset=True)

    off_s = timed_server(enabled=False)
    on_s = timed_server(enabled=True)
    per_request_s = off_s / n_requests
    enabled_delta = (on_s - off_s) / off_s if off_s else 0.0

    # Header codec microcost: one encode (client) + one parse + one
    # correlation validation (server) per request.
    iterations = 20_000
    context = ("ab12-1f", "ab12-2e")
    header = encode_traceparent(context)
    start = time.perf_counter()
    for _ in range(iterations):
        encode_traceparent(context)
        parse_traceparent(header)
        valid_correlation_id("c12345")
    header_s = (time.perf_counter() - start) / iterations
    header_bound = header_s / per_request_s if per_request_s else 0.0

    # Idle-tick cost: a swept, watermarked, unchanged tenant (steady
    # state).  First sweep pays the cold verify and sets watermarks; the
    # measured sweep is the recurring one.
    obs.disable(reset=True)
    service = ProvenanceService(ServiceConfig(seed=11, key_bits=key_bits))
    try:
        for i in range(20):
            service.record("idle", "insert", f"obj-{i}", value=i)
        monitor = BackgroundMonitor(service, interval=monitor_interval)
        monitor.run_once()  # cold: verify everything, set watermarks
        idle_s = measure(monitor.run_once, runs=max(3, runs)).best
    finally:
        service.close()
    monitor_fraction = idle_s / monitor_interval if monitor_interval else 0.0

    guarded_bound = header_bound + monitor_fraction
    result.add(
        "requests",
        f"{off_s:.3f} s",
        f"{on_s:.3f} s",
        f"{enabled_delta * 100:+.1f}%",
        f"{guarded_bound * 100:.4f}%",
    )
    result.note(
        f"header codec {header_s * 1e6:.2f} us/request vs "
        f"{per_request_s * 1e3:.3f} ms baseline request; idle monitor tick "
        f"{idle_s * 1e3:.3f} ms amortized over {monitor_interval:g} s"
    )
    guard_ok = result.guard(
        guarded_bound <= SERVICE_PLANE_OVERHEAD_LIMIT,
        f"header + idle-monitor bound {guarded_bound * 100:.4f}% vs limit "
        f"{SERVICE_PLANE_OVERHEAD_LIMIT * 100:.1f}%",
    )

    result.metrics = {
        "workload": {
            "n_requests": n_requests,
            "runs": runs,
            "key_bits": key_bits,
            "monitor_interval": monitor_interval,
        },
        "request_off_s": off_s,
        "request_on_s": on_s,
        "per_request_s": per_request_s,
        "enabled_delta": enabled_delta,
        "header_roundtrip_s": header_s,
        "header_bound": header_bound,
        "idle_tick_s": idle_s,
        "monitor_fraction": monitor_fraction,
        "guard": {
            "max_overhead": SERVICE_PLANE_OVERHEAD_LIMIT,
            "bound": guarded_bound,
            "ok": guard_ok,
        },
    }
    return result


def run_monitor_bench(
    n_objects: int = 2_500,
    updates_per_object: int = 3,
    key_bits: int = 512,
    runs: int = 3,
    delta_records: int = 20,
) -> ExperimentResult:
    """Watermark-based incremental verification vs full re-verify.

    Arm 1 times one full ``verify_records`` pass over the whole store
    against a *warm* monitor tick (watermarks cover everything, nothing
    new to verify — the steady state of a quiet system) and an
    *incremental* tick after ``delta_records`` fresh appends.  The warm
    tick is guarded at :data:`WARM_TICK_SPEEDUP_FLOOR` x faster than the
    full pass: if the idle fast path ever regresses to re-walking chains,
    CI fails here before users notice their monitor burning CPU.

    Arm 2 bounds the cost of event emission on the hottest write path
    (batched SQLite appends) with the file sink disabled: per-emit cost
    is measured directly on a ring-sink log, multiplied by the events
    the workload fires, and divided by the no-events wall time.  The
    bound is guarded at :data:`EVENTS_OVERHEAD_LIMIT` (2%).
    """
    from repro import obs
    from repro.core.verifier import Verifier
    from repro.monitor import ProvenanceMonitor
    from repro.obs.events import EventLog, RingBufferSink

    n_records = n_objects * (1 + updates_per_object)
    result = ExperimentResult(
        "monitor-bench",
        f"Monitor incremental verification ({n_records} records, "
        f"best of {runs})",
        ("mode", "time", "records checked", "speedup vs full"),
    )

    db, _ = signed_world(n_objects, updates_per_object, key_bits=key_bits, seed=42)
    store = db.provenance_store
    # Enroll before snapshotting the keystore: records signed by a
    # later-enrolled participant would (correctly) fail verification.
    session = db.session(db.enroll("monitor-bench"))
    keystore = db.keystore()
    all_records = list(store.all_records())
    verifier = Verifier(keystore)

    full_s = measure(lambda: verifier.verify_records(all_records), runs=runs).best

    monitor = ProvenanceMonitor(store, keystore)
    monitor.tick()  # cold: advances every watermark
    warm_s = measure(monitor.tick, runs=runs).best
    warm_speedup = full_s / warm_s if warm_s else float("inf")

    # Incremental: delta_records fresh appends (untimed) before each tick.
    deltas = itertools.count()

    def append_delta() -> None:
        run = next(deltas)
        for i in range(delta_records):
            session.update(f"obj{i % n_objects}", f"delta-{run}-{i}")

    incr_s = measure(lambda _: monitor.tick(), runs=runs, setup=append_delta).best
    if monitor.health != "ok":
        # Not an assert: under ``python -O`` an assert vanishes and a
        # regressing monitor would still publish passing numbers.
        raise RuntimeError(
            f"monitor health is {monitor.health!r} after the incremental "
            f"arm; failures: "
            f"{[str(f) for f in monitor.accumulated_failures()]}"
        )
    incr_speedup = full_s / incr_s if incr_s else float("inf")

    result.add("full re-verify", f"{full_s:.4f} s", len(all_records), "1.0x")
    result.add(
        "incremental tick", f"{incr_s:.4f} s", delta_records,
        f"{incr_speedup:.1f}x",
    )
    result.add("warm (idle) tick", f"{warm_s:.6f} s", 0, f"{warm_speedup:.1f}x")

    # --- events-emission overhead on the batched append path ----------
    records = _fig8_style_records(min(n_records, 10_000))

    def append_workload() -> None:
        _batched_append(records, 50)

    obs.enable(metrics=True, tracing=False, reset=True)
    base_s = measure(append_workload, runs=runs).best
    obs.enable_events()  # ring sink only; no file sink
    events_s = measure(append_workload, runs=runs).best
    events_fired = obs.OBS.events._seq / max(1, runs)
    obs.disable_events()
    obs.disable(reset=True)

    # Per-emit cost measured directly, so the guard is not at the mercy
    # of wall-clock jitter on a ~1 s workload.
    probe = EventLog((RingBufferSink(1024),))
    emits = 20_000
    start = time.perf_counter()
    for i in range(emits):
        probe.emit("bench.probe", index=i)
    emit_s = (time.perf_counter() - start) / emits
    bound = (events_fired * emit_s) / base_s if base_s else 0.0
    delta = (events_s - base_s) / base_s if base_s else 0.0

    result.add(
        "append, no events", f"{base_s:.4f} s", len(records), "-",
    )
    result.add(
        "append + ring events", f"{events_s:.4f} s", len(records),
        f"{delta * 100:+.1f}% measured",
    )

    result.note(
        f"one emit costs ~{emit_s * 1e6:.2f} us; the workload fires "
        f"~{events_fired:.0f} events, bounding overhead at {bound * 100:.3f}%"
    )
    warm_ok = result.guard(
        warm_speedup >= WARM_TICK_SPEEDUP_FLOOR,
        f"warm tick {warm_speedup:.1f}x faster than full re-verify "
        f"(floor {WARM_TICK_SPEEDUP_FLOOR:.0f}x)",
    )
    events_ok = result.guard(
        bound <= EVENTS_OVERHEAD_LIMIT,
        f"events overhead bound {bound * 100:.3f}% vs limit "
        f"{EVENTS_OVERHEAD_LIMIT * 100:.1f}%",
    )

    result.metrics = {
        "workload": {
            "n_records": n_records,
            "n_objects": n_objects,
            "updates_per_object": updates_per_object,
            "delta_records": delta_records,
            "key_bits": key_bits,
            "runs": runs,
        },
        "full_verify_s": full_s,
        "warm_tick_s": warm_s,
        "incremental_tick_s": incr_s,
        "warm_speedup": warm_speedup,
        "incremental_speedup": incr_speedup,
        "events": {
            "base_s": base_s,
            "events_s": events_s,
            "measured_delta": delta,
            "per_emit_s": emit_s,
            "events_fired": events_fired,
            "overhead_bound": bound,
        },
        "guard": {
            "warm_speedup_floor": WARM_TICK_SPEEDUP_FLOOR,
            "warm_ok": warm_ok,
            "max_events_overhead": EVENTS_OVERHEAD_LIMIT,
            "events_ok": events_ok,
            "ok": warm_ok and events_ok,
        },
    }
    return result


def run_service_bench(
    clients: int = 1000,
    tenants: int = 8,
    threads: int = 32,
    ops_per_client: int = 3,
    verify_every: int = 5,
    key_bits: int = 512,
    seed: int = 7,
) -> ExperimentResult:
    """Multi-tenant HTTP service under concurrent load, proven correct.

    Boots a :class:`~repro.service.http.ProvenanceHTTPServer`, drives
    ``clients`` seeded logical clients (tenant = client mod ``tenants``)
    over ``threads`` OS threads through the real HTTP stack, and then
    audits the aftermath from the inside:

    * **zero** request errors and **zero** verification failures — each
      client owns its object, chains are local per object (§3.2), so
      concurrency may reorder tenants but never break a chain;
    * **zero cross-tenant leaks** — every record in every tenant store
      was signed by that tenant's service participant and belongs to one
      of that tenant's clients;
    * the ``/healthz`` exit contract holds at scale: 200 on the clean
      store, 503 after one checksum is forged in one tenant.

    All three are guarded; the reported throughput and latency
    percentiles feed the bench history for trajectory tracking.
    """
    from repro.attacks.tampering import forge_stored_checksum
    from repro.service import ServiceClient
    from repro.service.core import AUDIT_OBJECT, ServiceConfig
    from repro.service.http import ProvenanceHTTPServer
    from repro.service.load import LoadSpec, run_load

    spec = LoadSpec(
        clients=clients, tenants=tenants, threads=threads,
        ops_per_client=ops_per_client, verify_every=verify_every, seed=seed,
    )
    result = ExperimentResult(
        "service-bench",
        f"Provenance-as-a-service load ({clients} clients, {tenants} "
        f"tenants, {threads} threads)",
        ("metric", "value"),
    )

    server = ProvenanceHTTPServer(
        config=ServiceConfig(seed=seed, key_bits=key_bits)
    )
    server.start_background()
    try:
        admin = ServiceClient(server.base_url, token=server.service.admin_token)
        tokens = {
            f"t{i}": admin.issue_key(f"t{i}")["token"] for i in range(tenants)
        }
        report, _outcomes = run_load(server.base_url, tokens, spec)

        # Cross-tenant audit: every record in every store must belong to
        # the store's own tenant (owner = client mod tenants).
        leaks = 0
        for tenant_id in server.service.tenant_ids():
            world = server.service.world(tenant_id)
            for record in world.store.all_records():
                if record.participant_id != f"svc:{tenant_id}":
                    leaks += 1
                elif record.object_id != AUDIT_OBJECT and (
                    spec.tenant_of(int(record.object_id[1:].split(":", 1)[0]))
                    != tenant_id
                ):
                    leaks += 1

        # /healthz exit semantics at scale: clean -> 200, then forge one
        # checksum in one tenant -> 503.  (The store is about to be torn
        # down; the forgery is not undone.)
        probe = ServiceClient(server.base_url)
        clean_status = probe.healthz().status
        forge_stored_checksum(
            server.service.world(spec.tenant_of(0)).store, spec.object_of(0)
        )
        tampered_status = probe.healthz().status
    finally:
        server.stop()

    load = report.to_dict()
    healthz_ok = clean_status == 200 and tampered_status == 503

    result.add("requests", load["requests"])
    result.add("wall time", f"{load['wall_seconds']:.2f} s")
    result.add("throughput", f"{load['throughput_rps']:.1f} req/s")
    result.add("latency p50/p95/p99",
               f"{load['latency_p50_ms']:.1f} / {load['latency_p95_ms']:.1f}"
               f" / {load['latency_p99_ms']:.1f} ms")
    result.add("503 retries", load["retries"])
    result.add("request errors", load["errors"])
    result.add("verification failures", load["verify_failures"])
    result.add("cross-tenant leaks", leaks)
    result.add("healthz clean/tampered", f"{clean_status} / {tampered_status}")
    ok = result.guard(
        not report.errors and not report.verify_failures and leaks == 0
        and healthz_ok,
        "zero errors, zero verification failures, zero cross-tenant leaks, "
        "healthz 200->503 contract",
    )

    result.metrics = {
        "workload": {
            "clients": clients,
            "tenants": tenants,
            "threads": threads,
            "ops_per_client": ops_per_client,
            "verify_every": verify_every,
            "key_bits": key_bits,
            "seed": seed,
        },
        "load": load,
        "healthz": {
            "clean_status": clean_status,
            "tampered_status": tampered_status,
        },
        "cross_tenant_leaks": leaks,
        "guard": {
            "errors_ok": not report.errors,
            "verify_ok": not report.verify_failures,
            "isolation_ok": leaks == 0,
            "healthz_ok": healthz_ok,
            "ok": ok,
        },
    }
    return result


def run_trust_bench(
    n_objects: int = 200,
    updates_per_object: int = 3,
    handoffs_per_object: int = 2,
    append_batch: int = 50,
    key_bits: int = 512,
    runs: int = 3,
) -> ExperimentResult:
    """Hand-off and witness-tick overhead vs the solo baseline.

    The hand-off world is the solo world whose custody then rotates
    between three custodians: each object's chain carries
    ``handoffs_per_object`` dual-signed ``TRANSFER`` records after its
    updates.  Three guarded arms:

    1. **Append** — a dual-signed ``TRANSFER`` record costs two RSA
       signatures (record checksum + countersignature) where an update
       costs one, so the per-hand-off cost is guarded at
       :data:`HANDOFF_COST_LIMIT` x the per-update cost (5x — anything
       beyond that means the transfer path grew work it should not do).
    2. **Verify** — a chain with transfers adds one countersignature
       check per ``TRANSFER`` record; per-record verification of the
       hand-off world is guarded at :data:`HANDOFF_VERIFY_LIMIT` x the
       solo world's (3x).
    3. **Witness** — a witness tick over an already-anchored store must
       stay on the skip path: the idle tick is guarded at
       :data:`IDLE_TICK_FLOOR` x faster than the anchoring tick (10x),
       mirroring the monitor's warm-tick guard.
    """
    from repro.core.verifier import Verifier
    from repro.trust.custody import transfer_custody
    from repro.trust.witness import Witness

    result = ExperimentResult(
        "trust-bench",
        f"Custody hand-off + witness overhead ({n_objects} objects, "
        f"best of {runs})",
        ("arm", "time", "per unit", "vs baseline"),
    )

    def world(custodian: str):
        return signed_world(
            n_objects, updates_per_object, key_bits=key_bits, seed=42,
            participant=custodian,
        )

    db, first = world("custodian-0")
    custodians = [first, db.enroll("custodian-1"), db.enroll("custodian-2")]
    store = db.provenance_store
    for i in range(n_objects):
        for hop in range(handoffs_per_object):
            transfer_custody(
                store, f"obj{i}", custodians[hop % 3], custodians[(hop + 1) % 3]
            )

    # --- arm 1: append path -------------------------------------------
    session = db.session(custodians[0])
    probes = [f"probe-{run}" for run in range(runs)]
    for probe in probes:
        session.insert(probe, 0)

    def updates(probe: str) -> None:
        for i in range(append_batch):
            session.update(probe, i)

    def handoffs(probe: str) -> None:
        for i in range(append_batch):
            transfer_custody(
                store, probe, custodians[i % 2], custodians[(i + 1) % 2]
            )

    update_s, handoff_s = (
        measure(arm, runs=runs, setup=iter(probes).__next__).best / append_batch
        for arm in (updates, handoffs)
    )
    handoff_cost = handoff_s / update_s if update_s else float("inf")

    result.add("update append", f"{update_s * 1e3:.3f} ms", "per record", "1.0x")
    result.add(
        "hand-off append", f"{handoff_s * 1e3:.3f} ms", "per record",
        f"{handoff_cost:.2f}x",
    )

    # --- arm 2: verification ------------------------------------------
    solo_db, _ = world("bench")
    solo_records = list(solo_db.provenance_store.all_records())
    solo_verifier = Verifier(solo_db.keystore())
    solo_s = measure(lambda: solo_verifier.verify_records(solo_records), runs=runs).best
    solo_pr = solo_s / len(solo_records)

    handoff_records = [
        r for r in store.all_records() if not r.object_id.startswith("probe-")
    ]
    verifier = Verifier(db.keystore())
    handoff_s_total = measure(
        lambda: verifier.verify_records(handoff_records), runs=runs
    ).best
    handoff_pr = handoff_s_total / len(handoff_records)
    verify_overhead = handoff_pr / solo_pr if solo_pr else float("inf")

    result.add(
        "verify solo world", f"{solo_s:.4f} s",
        f"{solo_pr * 1e3:.3f} ms/record", "1.0x",
    )
    result.add(
        "verify hand-off world", f"{handoff_s_total:.4f} s",
        f"{handoff_pr * 1e3:.3f} ms/record", f"{verify_overhead:.2f}x",
    )

    # --- arm 3: witness tick ------------------------------------------
    # Each anchoring run starts a fresh witness over the same store.
    witnesses = [Witness.generate(key_bits=key_bits, seed=run) for run in range(runs)]
    anchor_s = measure(
        lambda witness: witness.tick(store), runs=runs,
        setup=iter(witnesses).__next__,
    ).best
    witness = witnesses[-1]
    if len(witness.log) != len(store.object_ids()):
        raise RuntimeError(
            f"witness tick anchored {len(witness.log)} of "
            f"{len(store.object_ids())} objects"
        )
    idle_s = measure(lambda: witness.tick(store), runs=runs).best
    idle_speedup = anchor_s / idle_s if idle_s else float("inf")

    result.add(
        "witness anchoring tick", f"{anchor_s:.4f} s",
        f"{anchor_s / max(1, len(store.object_ids())) * 1e3:.3f} ms/object",
        "1.0x",
    )
    result.add(
        "witness idle tick", f"{idle_s:.6f} s", "0 new anchors",
        f"{idle_speedup:.1f}x faster",
    )

    handoff_ok = result.guard(
        handoff_cost <= HANDOFF_COST_LIMIT,
        f"hand-off append {handoff_cost:.2f}x an update "
        f"(limit {HANDOFF_COST_LIMIT:.1f}x)",
    )
    verify_ok = result.guard(
        verify_overhead <= HANDOFF_VERIFY_LIMIT,
        f"per-record verify overhead {verify_overhead:.2f}x solo "
        f"(limit {HANDOFF_VERIFY_LIMIT:.1f}x)",
    )
    idle_ok = result.guard(
        idle_speedup >= IDLE_TICK_FLOOR,
        f"idle witness tick {idle_speedup:.1f}x faster than anchoring "
        f"(floor {IDLE_TICK_FLOOR:.0f}x)",
    )

    result.metrics = {
        "workload": {
            "n_objects": n_objects,
            "updates_per_object": updates_per_object,
            "handoffs_per_object": handoffs_per_object,
            "append_batch": append_batch,
            "key_bits": key_bits,
            "runs": runs,
        },
        "update_append_s": update_s,
        "handoff_append_s": handoff_s,
        "handoff_cost": handoff_cost,
        "solo_verify_per_record_s": solo_pr,
        "handoff_verify_per_record_s": handoff_pr,
        "verify_overhead": verify_overhead,
        "witness_anchor_tick_s": anchor_s,
        "witness_idle_tick_s": idle_s,
        "idle_speedup": idle_speedup,
        "guard": {
            "max_handoff_cost": HANDOFF_COST_LIMIT,
            "handoff_ok": handoff_ok,
            "max_verify_overhead": HANDOFF_VERIFY_LIMIT,
            "verify_ok": verify_ok,
            "idle_tick_floor": IDLE_TICK_FLOOR,
            "idle_ok": idle_ok,
            "ok": handoff_ok and verify_ok and idle_ok,
        },
    }
    return result

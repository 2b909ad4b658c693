"""ParallelVerifier must be report-for-report identical to Verifier.

§3.2's local chaining makes per-object chains independently verifiable;
the parallel verifier fans them out over a process pool and merges the
per-chain failures back in serial order.  These tests pin the contract:
for any worker count, on clean and on tampered inputs, the
``VerificationReport`` — failures, requirement codes, order, counts — is
byte-identical to the serial verifier's.
"""

import pytest

from repro.attacks.scenarios import all_scenarios, build_world
from repro.core.system import TamperEvidentDatabase
from repro.core.verifier import ParallelVerifier, Verifier

WORKER_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def world():
    return build_world()


@pytest.fixture(scope="module")
def aggregate_db(ca, participants):
    """A database whose provenance DAG crosses chains via aggregation."""
    db = TamperEvidentDatabase(ca=ca)
    session = db.session(participants["p1"])
    for i in range(6):
        session.insert(f"src{i}", i)
        session.update(f"src{i}", i * 10)
    session.aggregate([f"src{i}" for i in range(6)], "agg")
    return db


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_untampered_shipment_reports_identical(world, workers):
    keystore = world.db.keystore()
    serial = world.shipment.verify(keystore)
    parallel = world.shipment.verify(keystore, workers=workers)
    assert serial.ok
    assert parallel == serial


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_tampered_shipment_reports_identical(world, workers):
    # One representative record-tampering attack (R1).
    from repro.attacks import tampering

    tampered = tampering.modify_record_output(world.shipment, "x", 3, fake_value=1300)
    serial = tampered.verify_with_ca(world.db.ca.public_key, world.db.ca.name)
    parallel = tampered.verify_with_ca(
        world.db.ca.public_key, world.db.ca.name, workers=workers
    )
    assert not serial.ok
    assert parallel == serial
    assert parallel.failures == serial.failures  # same failures, same order
    assert parallel.requirement_codes() == serial.requirement_codes()


@pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda s: s.name)
def test_all_attack_scenarios_report_identical(world, scenario):
    """Every R1–R8 scenario: parallel == serial, detection unchanged."""
    tampered = scenario.run(world)
    serial = tampered.verify_with_ca(world.db.ca.public_key, world.db.ca.name)
    parallel = tampered.verify_with_ca(
        world.db.ca.public_key, world.db.ca.name, workers=4
    )
    assert parallel == serial
    assert (not serial.ok) == scenario.expect_detected


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_aggregate_cross_chain_resolution(aggregate_db, keystore, workers):
    """Aggregation records read *other* chains during verification; the
    per-chain partition must still resolve their predecessors."""
    records = list(aggregate_db.provenance_store.all_records())
    serial = Verifier(keystore).verify_records(records)
    parallel = ParallelVerifier(keystore, workers=workers).verify_records(records)
    assert serial.ok
    assert parallel == serial


def test_verify_records_on_tampered_chain_merges_deterministically(
    aggregate_db, keystore
):
    records = list(aggregate_db.provenance_store.all_records())
    # Corrupt two records in different chains: merged failure order must
    # match the serial sorted-object iteration, not pool completion order.
    corrupted = []
    for record in records:
        if record.key in (("src1", 1), ("src4", 1)):
            record = record.with_checksum(
                bytes([record.checksum[0] ^ 0xFF]) + record.checksum[1:]
            )
        corrupted.append(record)
    serial = Verifier(keystore).verify_records(corrupted)
    assert not serial.ok
    for workers in WORKER_COUNTS:
        parallel = ParallelVerifier(keystore, workers=workers).verify_records(corrupted)
        assert parallel == serial


def test_database_verify_accepts_workers(tedb, participants):
    session = tedb.session(participants["p1"])
    session.insert("doc", "draft")
    session.update("doc", "final")
    serial = tedb.verify("doc")
    parallel = tedb.verify("doc", workers=2)
    assert serial.ok
    assert parallel == serial


def test_single_worker_runs_in_process(keystore, aggregate_db):
    """workers=1 must not pay for a pool."""
    records = list(aggregate_db.provenance_store.all_records())
    verifier = ParallelVerifier(keystore, workers=1)
    # no pool machinery: _run_pool would need >1 worker
    report = verifier.verify_records(records)
    assert report.ok


# ----------------------------------------------------------------------
# worker death (fault injection)
# ----------------------------------------------------------------------


def _kill_plan(kind, *chunk_indices, rate=None):
    from repro.faults.plan import FaultPlan, FaultRule

    if rate is not None:
        rule = FaultRule("verify.worker", kind, rate=rate)
    else:
        rule = FaultRule("verify.worker", kind, indices=frozenset(chunk_indices))
    return FaultPlan(seed=0, rules=(rule,))


def test_crashed_worker_chunk_reverified_serially(keystore, aggregate_db):
    """A chunk whose worker dies is re-verified in-process; the merged
    report stays byte-identical to the serial verifier's."""
    from repro.faults.plan import FaultKind

    records = list(aggregate_db.provenance_store.all_records())
    serial = Verifier(keystore).verify_records(records)
    plan = _kill_plan(FaultKind.CRASH, 0)
    report = ParallelVerifier(keystore, workers=2, faults=plan).verify_records(
        records
    )
    assert report == serial
    assert report.ok
    # The parent logged the death it observed.
    assert any(e.site == "verify.worker" for e in plan.events)


def test_all_workers_dead_degrades_to_full_serial(keystore, aggregate_db):
    from repro.faults.plan import FaultKind

    records = list(aggregate_db.provenance_store.all_records())
    serial = Verifier(keystore).verify_records(records)
    plan = _kill_plan(FaultKind.CRASH, rate=1.0)
    report = ParallelVerifier(keystore, workers=4, faults=plan).verify_records(
        records
    )
    assert report == serial


def test_dead_worker_on_tampered_chain_keeps_failure_order(
    keystore, aggregate_db
):
    """Degraded chunks must merge failures at their exact serial position."""
    from repro.faults.plan import FaultKind

    corrupted = []
    for record in aggregate_db.provenance_store.all_records():
        if record.key in (("src1", 1), ("src4", 1)):
            record = record.with_checksum(
                bytes([record.checksum[0] ^ 0xFF]) + record.checksum[1:]
            )
        corrupted.append(record)
    serial = Verifier(keystore).verify_records(corrupted)
    assert not serial.ok
    plan = _kill_plan(FaultKind.CRASH, 0, 1)
    parallel = ParallelVerifier(
        keystore, workers=2, faults=plan
    ).verify_records(corrupted)
    assert parallel == serial
    assert parallel.failures == serial.failures


def test_hard_killed_worker_process_degrades(keystore, aggregate_db):
    """KILL is real process death (``os._exit``), which breaks the whole
    pool — every chunk must still come back via serial re-verification."""
    from repro.faults.plan import FaultKind

    records = list(aggregate_db.provenance_store.all_records())
    serial = Verifier(keystore).verify_records(records)
    plan = _kill_plan(FaultKind.KILL, 0)
    report = ParallelVerifier(keystore, workers=2, faults=plan).verify_records(
        records
    )
    assert report == serial


def test_degraded_chunks_are_counted(keystore, aggregate_db):
    from repro import obs
    from repro.faults.plan import FaultKind

    records = list(aggregate_db.provenance_store.all_records())
    obs.enable(reset=True)
    try:
        plan = _kill_plan(FaultKind.CRASH, 0)
        ParallelVerifier(keystore, workers=2, faults=plan).verify_records(records)
        assert obs.OBS.registry.counter("verify.degraded_chunks").value >= 1
    finally:
        obs.disable()


@pytest.fixture(scope="module")
def gate_keystore():
    """Certified participants ``p512`` and ``p1024`` (their key sizes)."""
    import random

    from repro.crypto.pki import CertificateAuthority, KeyStore, Participant

    rng = random.Random(5)
    ca = CertificateAuthority(key_bits=512, rng=rng)
    for bits in (512, 1024):
        Participant.enroll(f"p{bits}", ca, key_bits=bits, rng=rng)
    keystore = KeyStore.trusting(ca)
    keystore.add_certificates(ca.issued_certificates())
    return keystore


@pytest.mark.parametrize(
    "bits, records, parallel",
    [
        (512, 2400, False),  # the CI signing guard's world: too close to call
        (512, 3200, True),
        (512, 10_000, True),
        (1024, 512, False),
        (1024, 1024, True),
        (1024, 2048, True),
    ],
)
def test_adaptive_gate_weighs_records_by_key_size(
    gate_keystore, monkeypatch, bits, records, parallel
):
    """The pool is engaged where it measurably beat serial on two CPUs:
    by verify work (a 512-bit record costs about half a 1024-bit one)
    net of the pool's start and per-record costs."""
    import os
    from types import SimpleNamespace

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    verifier = ParallelVerifier(gate_keystore)
    record = SimpleNamespace(participant_id=f"p{bits}")
    chains = {f"o{i}": [record] * 4 for i in range(records // 4)}
    assert verifier._parallel_profitable(chains) is parallel

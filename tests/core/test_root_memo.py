"""The verifier's memo of checked Merkle roots.

A verifier remembers each sealed root it has checked, keyed by the key
it checked it under, so a long-lived verifier (a service tenant's) checks
a seal once over all its walks.  The memo must never change a report,
and it stays bounded.
"""

from __future__ import annotations

import random
import sys
import threading

from repro.attacks.scenarios import all_scenarios, build_world
from repro.core import checksum as payloads
from repro.core import verifier as verifier_module
from repro.core.system import TamperEvidentDatabase
from repro.core.verifier import Verifier
from repro.crypto.signatures import record_signature_valid


def test_a_warm_memo_never_changes_a_report():
    world = build_world(scheme="merkle-batch")
    keystore = world.db.keystore()
    warm = Verifier(keystore)
    clean = world.shipment
    assert warm.verify(clean.snapshot, clean.records, clean.target_id).ok
    assert warm._root_cache, "the clean shipment warmed no memo"
    for scenario in all_scenarios():
        tampered = scenario.run(world)
        shipped = (tampered.snapshot, tampered.records, tampered.target_id)
        report = warm.verify(*shipped)
        assert report == Verifier(keystore).verify(*shipped), scenario.name
        assert report.ok != scenario.expect_detected, scenario.name


def test_a_root_checked_under_one_key_is_checked_again_under_another():
    """The memo key holds the verifier: a verdict reached under one key
    is never reused under another."""
    db = TamperEvidentDatabase(
        key_bits=512, rng=random.Random(5), signature_scheme="merkle-batch"
    )
    db.session(db.enroll("alice")).insert("x", 1)
    (record,) = db.provenance_store.records_for("x")
    payload = payloads.record_payload(record, ())  # a genesis record
    forger = TamperEvidentDatabase(
        key_bits=512, rng=random.Random(6), signature_scheme="merkle-batch"
    )
    forger.enroll("alice")
    memo = {}
    right_key = db.keystore().verifier_for("alice")
    wrong_key = forger.keystore().verifier_for("alice")
    assert record_signature_valid(right_key, record, payload, memo)
    assert not record_signature_valid(wrong_key, record, payload, memo)
    assert record_signature_valid(right_key, record, payload, memo)
    assert sorted(memo.values()) == [False, True]


def test_the_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(verifier_module, "ROOT_MEMO_LIMIT", 4)
    db = TamperEvidentDatabase(
        key_bits=512, rng=random.Random(7), signature_scheme="merkle-batch"
    )
    session = db.session(db.enroll("alice"))
    objects = [f"o{i}" for i in range(6)]
    for i, object_id in enumerate(objects):
        session.insert(object_id, i)  # one seal per commit
        session.update(object_id, i + 10)
    verifier = Verifier(db.keystore())
    sizes = []
    for object_id in objects:
        shipment = db.ship(object_id)
        seals = {record.proof.epoch for record in shipment.records}
        assert len(seals) == 2
        assert verifier.verify(
            shipment.snapshot, shipment.records, shipment.target_id
        ).ok
        sizes.append(len(verifier._root_cache))
        assert sizes[-1] <= 4 + len(seals)
    assert sizes == [2, 4, 2, 4, 2, 4]  # 12 seals checked, dropped when full


def test_threads_sharing_a_memo_that_keeps_dropping_get_every_report_right(
    monkeypatch,
):
    """Concurrent walks share one memo with no lock, and a small bound
    makes them drop it under each other.  A race may check a root twice,
    but every report must still equal a fresh verifier's."""
    monkeypatch.setattr(verifier_module, "ROOT_MEMO_LIMIT", 3)
    world = build_world(scheme="merkle-batch")
    keystore = world.db.keystore()
    shipments = [world.shipment, world.other_shipment] + [
        scenario.run(world) for scenario in all_scenarios()[:4]
    ]
    expected = [
        Verifier(keystore).verify(s.snapshot, s.records, s.target_id)
        for s in shipments
    ]
    shared = Verifier(keystore)
    wrong = []

    def walk(offset: int) -> None:
        for turn in range(40):
            index = (offset + turn) % len(shipments)
            s = shipments[index]
            if shared.verify(s.snapshot, s.records, s.target_id) != expected[index]:
                wrong.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []

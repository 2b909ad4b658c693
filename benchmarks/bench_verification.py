"""Verification-cost benchmarks (beyond the paper's evaluation).

The paper measures checksum *generation*; a recipient cares about
*verification*.  These benchmarks measure full verification against chain
length and aggregation fan-in, plus incremental (checkpoint) verification
of a one-record extension — the repeat-recipient fast path.
"""

import random

import pytest

from repro.core.system import TamperEvidentDatabase
from repro.core.verifier import Verifier
from repro.crypto.pki import CertificateAuthority, KeyStore, Participant
from repro.provenance.store import Checkpoint

CHAIN_LENGTHS = (4, 16, 64)


@pytest.fixture(scope="module")
def pki(bench_key_bits):
    rng = random.Random(13)
    ca = CertificateAuthority(key_bits=bench_key_bits, rng=rng)
    signer = Participant.enroll("p1", ca, key_bits=bench_key_bits, rng=rng)
    keystore = KeyStore.trusting(ca)
    keystore.add_certificate(signer.certificate)
    return ca, signer, keystore


@pytest.mark.parametrize("length", CHAIN_LENGTHS, ids=lambda n: f"chain-{n}")
def test_full_verification_vs_chain_length(benchmark, pki, length):
    ca, signer, keystore = pki
    db = TamperEvidentDatabase(ca=ca)
    session = db.session(signer)
    session.insert("x", 0)
    for i in range(length - 1):
        session.update("x", i)
    shipment = db.ship("x")
    verifier = Verifier(keystore)

    report = benchmark(
        verifier.verify, shipment.snapshot, shipment.records, "x"
    )
    assert report.ok
    benchmark.extra_info["records"] = len(shipment.records)


def test_verification_of_aggregation_closure(benchmark, pki):
    ca, signer, keystore = pki
    db = TamperEvidentDatabase(ca=ca)
    session = db.session(signer)
    for i in range(8):
        session.insert(f"src{i}", i)
        session.update(f"src{i}", i * 10)
    session.aggregate([f"src{i}" for i in range(8)], "merged")
    shipment = db.ship("merged")
    verifier = Verifier(keystore)

    report = benchmark(
        verifier.verify, shipment.snapshot, shipment.records, "merged"
    )
    assert report.ok
    benchmark.extra_info["records"] = len(shipment.records)


def test_incremental_verification_of_one_update(benchmark, pki):
    ca, signer, keystore = pki
    db = TamperEvidentDatabase(ca=ca)
    session = db.session(signer)
    session.insert("x", 0)
    for i in range(63):
        session.update("x", i)
    verifier = Verifier(keystore)
    checkpoint = Checkpoint.from_records("x", db.provenance_of("x"))
    session.update("x", 999)
    shipment = db.ship("x")
    new_records = [r for r in shipment.records if r.seq_id > checkpoint.seq_id]

    report = benchmark(
        verifier.verify, shipment.snapshot, new_records, "x", resume=checkpoint
    )
    assert report.ok
    # The fast path checks 1 record instead of 65.
    assert report.records_checked == 1

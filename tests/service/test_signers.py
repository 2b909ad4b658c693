"""Served Merkle-batch root seals in signer helper processes.

The helpers must change where a signature is computed and nothing else:

- a helper's permutation is ``RSAPrivateKey.decrypt_int``, edge values
  included, and the helper imports nothing from ``repro``;
- a service world stores the same bytes with the pool on and off, for
  single records, a 50-op batch, an aggregate over bootstrapped inputs
  and a bootstrap followed by an update (the last two chain on a
  checksum staged in the same flush);
- each commit counts one RSA ``crypto.sign.count`` and one ``rsa.sign``;
- a killed helper costs a degraded chunk, signed in-process, not a
  failed write; closing the service or its HTTP server, or killing the
  process that started them, leaves no helper running;
- a crash between sealing and storing still loses the whole batch.

"Pool on" patches the usable CPU count to 2 and "pool off" to 1, so
both paths run on any host.  A seal runs on one helper, so one commit
at a time starts one.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import MerkleBatchSignatureScheme, RSASignatureScheme
from repro.exceptions import CrashError
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.service import ProvenanceHTTPServer, ProvenanceService, ServiceClient, canonical_json
from repro.service import signer_helper, signers
from repro.service.signers import PooledRSASignatureScheme, SignerPool

from tests.service.conftest import make_config

TENANT = "acme"


def build(monkeypatch, cpus: int, **overrides) -> ProvenanceService:
    monkeypatch.setattr(signers, "usable_cpus", lambda: cpus)
    return ProvenanceService(make_config(**overrides))


@contextmanager
def pooled_and_plain(monkeypatch):
    on = build(monkeypatch, 2)
    off = build(monkeypatch, 1)
    try:
        assert on.signers is not None and off.signers is None
        yield on, off
    finally:
        on.close()
        off.close()


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def wait_until_gone(pids, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while any(running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not [pid for pid in pids if running(pid)]


# ----------------------------------------------------------------------
# the permutation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bits", (512, 1024))
def test_helper_permutation_equals_decrypt_int(bits):
    rng = random.Random(f"helper|{bits}")
    pool = SignerPool(1)
    try:
        for _ in range(2):
            key = generate_keypair(bits, rng=rng).private
            values = [0, 1, key.n - 1] + [rng.randrange(key.n) for _ in range(5)]
            expected = [key.decrypt_int(c) for c in values]
            assert [
                signer_helper.permute(c, key.p, key.q, key.d_p, key.d_q, key.q_inv)
                for c in values
            ] == expected
            assert [pool.permute(key, c) for c in values] == expected
    finally:
        pool.close()
    assert pool.degraded_chunks == 0


def test_pooled_scheme_signs_the_same_bytes():
    key = generate_keypair(512, rng=random.Random(4)).private
    plain = RSASignatureScheme(key)
    pool = SignerPool(2)
    try:
        pooled = PooledRSASignatureScheme(plain, pool)
        messages = [f"m{i}".encode() for i in range(7)]
        expected = [plain.sign(m) for m in messages]
        assert [pooled.sign(m) for m in messages] == expected
        # One signature at a time runs on one helper.
        assert len(pool.pids()) == 1
    finally:
        pool.close()


def test_each_caller_gets_its_own_signatures_under_thread_stress():
    """Threads sealing at once each get the root signature of their own
    batch: PKCS#1 v1.5 signing is deterministic, so a root signature
    that verifies is the one computed for that root."""
    key = generate_keypair(512, rng=random.Random(9)).private
    pool = SignerPool(2)
    merkle = MerkleBatchSignatureScheme(key)
    merkle.root_signer = PooledRSASignatureScheme(merkle.root_signer, pool)
    wrong = []

    def work(worker: int) -> None:
        rng = random.Random(worker)
        for round_ in range(15):
            messages = [f"{worker}:{round_}:{i}".encode() for i in range(rng.randint(1, 6))]
            leaves = [merkle.sign(m) for m in messages]
            proofs = merkle.seal_batch(leaves)
            if not all(map(merkle.verify_with_proof, messages, leaves, proofs)):
                wrong.append((worker, round_))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
        pool.close()
    assert wrong == []
    assert pool.degraded_chunks == 0


def test_helper_imports_no_repro_module_and_exits_on_eof():
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-X", "importtime", signers.HELPER_SCRIPT],
        input=b"", capture_output=True, timeout=30,
    )
    assert done.returncode == 0
    assert b"repro" not in done.stderr


# ----------------------------------------------------------------------
# byte identity, pool on vs off
# ----------------------------------------------------------------------


def single_records(service):
    out = [service.record(TENANT, "insert", f"o{i}", i) for i in range(3)]
    out += [service.record(TENANT, "update", f"o{i}", i + 10) for i in range(3)]
    # A child insert also appends an inherited record to its parent:
    # two independent records in one flush.
    out.append(service.record(TENANT, "insert", "o0.kid", "k", parent="o0"))
    return out


def batch_of_50(service):
    ops = [{"op": "insert", "object_id": f"b{i}", "value": i} for i in range(50)]
    return [service.batch(TENANT, ops)]


def untracked(service, *object_ids):
    """Objects written to the back end without provenance."""
    world = service.world(TENANT)
    world.db.collector.bootstrap_missing = True
    for object_id in object_ids:
        world.db.engine.insert(object_id, f"legacy:{object_id}")


def aggregate_over_bootstrapped_inputs(service):
    out = [service.record(TENANT, "insert", "a", 1)]
    untracked(service, "u1", "u2")
    out.append(service.record(TENANT, "aggregate", "agg", inputs=["a", "u1", "u2"]))
    return out


def bootstrap_then_update(service):
    untracked(service, "legacy")
    return [service.record(TENANT, "update", "legacy", "new")]


FLOWS = {
    "single": single_records,
    "batch": batch_of_50,
    "aggregate": aggregate_over_bootstrapped_inputs,
    "bootstrap": bootstrap_then_update,
}


def transcript(service, flow) -> bytes:
    responses = flow(service)
    records = [r.to_dict() for r in service.world(TENANT).store.all_records()]
    return canonical_json({"responses": responses, "records": records})


@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_pool_on_and_off_store_the_same_bytes(monkeypatch, flow):
    with pooled_and_plain(monkeypatch) as (on, off):
        assert transcript(on, FLOWS[flow]) == transcript(off, FLOWS[flow])
        assert on.signers.pids(), "the pooled world signed nothing in a helper"
        assert on.signers.degraded_chunks == 0
        assert on.verify(TENANT, on.world(TENANT).store.object_ids()[0])["ok"]


def rsa_signs(service, flows) -> int:
    """RSA signatures counted (``crypto.sign.count`` and ``rsa.sign``,
    which must agree) while ``flows`` run on ``service``."""
    obs.enable(reset=True)
    obs.enable_profile(reset=True)
    try:
        for flow in flows:
            flow(service)
        signed = obs.snapshot()["counters"]["crypto.sign.count{scheme=rsa-pkcs1v15}"]
        assert obs.OBS.profiler.snapshot()["rsa.sign"]["calls"] == signed
        return signed
    finally:
        obs.disable_profile()
        obs.disable(reset=True)


def test_a_merkle_batch_commit_signs_one_root(monkeypatch):
    """The served default: one RSA signature per commit, not per record."""
    with pooled_and_plain(monkeypatch) as (on, off):
        for service in (on, off):
            signed = rsa_signs(service, (batch_of_50, single_records))
            # One batch and seven single-record requests, plus the CA's
            # signature on the tenant's certificate.
            assert signed == 1 + 7 + 1
            assert len(list(service.world(TENANT).store.all_records())) == 50 + 8


# ----------------------------------------------------------------------
# failures and lifecycle
# ----------------------------------------------------------------------


def test_a_killed_helper_degrades_to_in_process_signing(monkeypatch):
    with pooled_and_plain(monkeypatch) as (on, off):
        obs.enable(reset=True)
        try:
            for service in (on, off):
                service.record(TENANT, "insert", "a", 1)
            killed = on.signers.pids()
            assert killed
            for pid in killed:
                os.kill(pid, signal.SIGKILL)
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            assert on.record(TENANT, "update", "a", 2) == off.record(TENANT, "update", "a", 2)
            assert on.signers.degraded_chunks == 1
            assert obs.snapshot()["counters"]["crypto.sign.degraded_chunks"] == 1
            # The slot gets a fresh helper on its next use.
            ops = [{"op": "insert", "object_id": f"n{i}", "value": i} for i in range(4)]
            assert on.batch(TENANT, ops) == off.batch(TENANT, ops)
            assert on.signers.degraded_chunks == 1
            fresh = on.signers.pids()
            assert len(fresh) == 1 and not set(fresh) & set(killed)
            assert on.verify(TENANT, "a")["ok"]
        finally:
            obs.disable(reset=True)


def test_close_leaves_no_helper_alive(monkeypatch):
    service = build(monkeypatch, 2)
    batch_of_50(service)
    pids = service.signers.pids()
    assert len(pids) == 1
    service.close()
    wait_until_gone(pids, seconds=0)
    assert service.signers.pids() == []
    # A closed pool still signs, in-process.
    assert service.record(TENANT, "insert", "late", 1)["records"]


def test_http_server_stop_leaves_no_helper_alive(monkeypatch):
    monkeypatch.setattr(signers, "usable_cpus", lambda: 2)
    server = ProvenanceHTTPServer(config=make_config())
    server.start_background()
    try:
        with ServiceClient(server.base_url, token=server.service.admin_token) as admin:
            token = admin.issue_key(TENANT)["token"]
        with ServiceClient(server.base_url, token=token) as client:
            client.batch([{"op": "insert", "object_id": f"h{i}", "value": i} for i in range(4)])
        pids = server.service.signers.pids()
        assert len(pids) == 1
    finally:
        server.stop()
    wait_until_gone(pids, seconds=0)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_helper_whose_parent_dies_exits_on_eof():
    script = textwrap.dedent(
        """
        import random, sys
        from repro.crypto.rsa import generate_keypair
        from repro.service.signers import SignerPool
        pool = SignerPool(1)
        key = generate_keypair(512, rng=random.Random(1)).private
        assert pool.permute(key, 5) == key.decrypt_int(5)
        print(pool.pids()[0], flush=True)
        sys.stdin.read()
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    parent = subprocess.Popen(
        [sys.executable, "-c", script],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    try:
        helper = int(parent.stdout.readline())
        assert running(helper)
    finally:
        parent.kill()
        parent.wait()
        parent.stdin.close()
        parent.stdout.close()
    wait_until_gone([helper])


def test_flush_crash_still_loses_the_whole_signed_batch(monkeypatch):
    plan = FaultPlan(seed=3, rules=(FaultRule(
        site="collector.flush", kind=FaultKind.CRASH, indices=frozenset({1}),
    ),))
    service = build(monkeypatch, 2, faults=plan)
    try:
        service.record(TENANT, "insert", "a", 1)                      # flush 0
        ops = [{"op": "insert", "object_id": f"c{i}", "value": i} for i in range(6)]
        with pytest.raises(CrashError):
            service.batch(TENANT, ops)                                # flush 1
        assert len(service.signers.pids()) == 1  # the batch was sealed in a helper
        world = service.world(TENANT)
        assert [r.object_id for r in world.store.all_records()] == ["a"]
        assert not any(f"c{i}" in world.db.store for i in range(6))
        out = service.batch(TENANT, ops)                              # flush 2
        assert [r["seq_id"] for r in out["records"]] == [0] * 6
        assert service.verify(TENANT, "c5")["ok"]
    finally:
        service.close()

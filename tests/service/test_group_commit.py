"""Group commit: served writes are staged under the world lock and
signed, sealed and stored outside it, in staging order.

What the pipeline must hold, each pinned below:

- concurrent writes to one tenant share one seal and one store batch,
  and each reply carries exactly its own records;
- while a signature is being computed the world lock is free, so reads
  of the same tenant complete;
- a verify pins its target's state and waits for the newest queued
  write of the target (of any object, if the target does not exist),
  and for nothing else.  A 404 comes only after that wait, and a verify
  stores nothing;
- a verify reports the state it pinned, even when a later update of its
  target commits before it reads;
- no write waits for a verify, not even while the verify checks its
  shipment;
- a verify whose pinned write fails to commit answers a transient error;
- a commit that fails past the retry budget fails its group and every
  write staged after it: all answered 503, undone, nothing stored, and
  a retry succeeds;
- a write that fails while staging is undone without unchaining the
  earlier writes still to commit;
- under a stress of more threads than CPUs, with the GIL switching as
  often as it can, nothing fails, every chain is contiguous and every
  verify is ok, of any object of the tenant — and no thread ever waits
  in the commit queue while it holds the world lock.

Every wait is bounded, and keys are 512 bits.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from repro.core.collector import TRANSIENT_STORE_ERRORS
from repro.core.shipment import Shipment
from repro.core.verifier import Verifier
from repro.crypto.signatures import MerkleBatchSignatureScheme
from repro.exceptions import TransientStoreError, UnknownObjectError
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.service import ProvenanceService, ServiceClient, signers
from repro.service.core import TenantWorld
from repro.service.signers import PooledRSASignatureScheme

from tests.service.conftest import make_config

TENANT = "acme"
#: Upper bound on every wait in this file, seconds.
TIMEOUT = 30.0


def pooled_service(monkeypatch, **overrides) -> ProvenanceService:
    """A service with a signer pool whatever the host's CPU count."""
    monkeypatch.setattr(signers, "usable_cpus", lambda: 2)
    service = ProvenanceService(make_config(**overrides))
    assert service.signers is not None
    return service


class Hold:
    """Holds the first pooled signature after :meth:`arm` until released."""

    def __init__(self, monkeypatch):
        self.armed = threading.Event()
        self.held = threading.Event()
        self.released = threading.Event()
        original = PooledRSASignatureScheme.sign

        def sign(scheme, message):
            if self.armed.is_set() and not self.held.is_set():
                self.held.set()
                assert self.released.wait(TIMEOUT), "hold never released"
            return original(scheme, message)

        monkeypatch.setattr(PooledRSASignatureScheme, "sign", sign)

    def arm(self) -> None:
        self.armed.set()

    def wait_held(self) -> None:
        assert self.held.wait(TIMEOUT), "no signature reached the hold"

    def release(self) -> None:
        self.released.set()


class Pins:
    """Records what each verify pinned: the queued request it waits for
    (:meth:`TenantWorld.wait_committed`, when there is one) and the
    object and seq id of the closure it reads (``Shipment.build``)."""

    def __init__(self, monkeypatch):
        self.waits = []
        self.reads = []
        wait_committed = TenantWorld.wait_committed
        build = Shipment.build.__func__

        def waiting(world, queued):
            if queued is not None:
                self.waits.append(queued)
            return wait_committed(world, queued)

        def reading(cls, db, object_id, snapshot=None, seq_id=None):
            self.reads.append((object_id, seq_id))
            return build(cls, db, object_id, snapshot, seq_id)

        monkeypatch.setattr(TenantWorld, "wait_committed", waiting)
        monkeypatch.setattr(Shipment, "build", classmethod(reading))

    def wait_pinned(self) -> None:
        wait_for(lambda: self.waits, "a verify to pin a write")


def wait_for(condition, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def in_thread(pool: ThreadPoolExecutor, fn, *args):
    return pool.submit(fn, *args)


def batch_ops(prefix: str, count: int = 16):
    return [{"op": "insert", "object_id": f"{prefix}{i}", "value": i} for i in range(count)]


# ----------------------------------------------------------------------
# grouping
# ----------------------------------------------------------------------


def test_concurrent_batches_share_one_seal_and_keep_their_own_records(monkeypatch):
    seals = []
    original_seal = MerkleBatchSignatureScheme.seal_batch

    def seal_batch(scheme, leaves):
        proofs = original_seal(scheme, leaves)
        seals.append(len(proofs))
        return proofs

    monkeypatch.setattr(MerkleBatchSignatureScheme, "seal_batch", seal_batch)
    hold = Hold(monkeypatch)
    service = pooled_service(monkeypatch)
    try:
        world = service.world(TENANT)
        hold.arm()
        with ThreadPoolExecutor(4) as pool:
            first = in_thread(pool, service.batch, TENANT, batch_ops("a"))
            hold.wait_held()  # the first batch's root signature
            rest = [
                in_thread(pool, service.batch, TENANT, batch_ops(prefix))
                for prefix in ("b", "c", "d")
            ]
            wait_for(lambda: len(world._queue) == 4, "three batches to stage")
            hold.release()
            replies = [first.result(TIMEOUT)] + [f.result(TIMEOUT) for f in rest]
        assert seals == [16, 48]
        for prefix, reply in zip("abcd", replies):
            assert [(r["object_id"], r["seq_id"]) for r in reply["records"]] == [
                (f"{prefix}{i}", 0) for i in range(16)
            ]
        # Commits follow staging order: the first batch's seal, then one
        # seal over the other three.
        epochs = {
            prefix: {world.store.latest(f"{prefix}{i}").proof.epoch for i in range(16)}
            for prefix in "abcd"
        }
        assert epochs == {"a": {0}, "b": {1}, "c": {1}, "d": {1}}
        payload, tampered = service.healthz(full=True)
        assert not tampered and payload["health"] == "ok"
        for prefix in "abcd":
            assert service.verify(TENANT, f"{prefix}15")["ok"]
    finally:
        hold.release()
        service.close()


# ----------------------------------------------------------------------
# the world lock is free while signing
# ----------------------------------------------------------------------


def test_reads_complete_while_a_signature_is_held(monkeypatch):
    hold = Hold(monkeypatch)
    service = pooled_service(monkeypatch)
    try:
        service.record(TENANT, "insert", "a", 1)
        hold.arm()
        with ThreadPoolExecutor(2) as pool:
            update = in_thread(pool, service.record, TENANT, "update", "a", 2)
            hold.wait_held()
            reads = in_thread(pool, lambda: (
                service.provenance(TENANT, "a"),
                service.objects(TENANT),
                service.lineage(TENANT, "a"),
            ))
            chain, listing, lineage = reads.result(TIMEOUT)
            assert not update.done(), "the held signature did not hold the write"
            # Reads see committed records only.
            assert len(chain["records"]) == 1
            assert listing["objects"] == ["a"]
            assert lineage["records"] == 1
            hold.release()
            assert update.result(TIMEOUT)["records"][0]["seq_id"] == 1
        assert len(service.provenance(TENANT, "a")["records"]) == 2
    finally:
        hold.release()
        service.close()


# ----------------------------------------------------------------------
# verify: pin, then wait
# ----------------------------------------------------------------------


def test_verify_waits_for_a_pending_update(monkeypatch):
    hold = Hold(monkeypatch)
    pins = Pins(monkeypatch)
    service = pooled_service(monkeypatch)
    try:
        service.record(TENANT, "insert", "x", 1)
        world = service.world(TENANT)
        hold.arm()
        with ThreadPoolExecutor(2) as pool:
            update = in_thread(pool, service.record, TENANT, "update", "x", 2)
            hold.wait_held()
            pending = world.newest("x")
            verify = in_thread(pool, service.verify, TENANT, "x")
            pins.wait_pinned()
            assert pins.waits == [pending]
            time.sleep(0.05)
            assert not verify.done() and pins.reads == [], "read before the update committed"
            hold.release()
            assert update.result(TIMEOUT)["records"][0]["seq_id"] == 1
            report = verify.result(TIMEOUT)
        assert pins.reads == [("x", 1)]
        assert report["ok"] and report["records_checked"] == 2
        assert len(world._queue) == 0
    finally:
        hold.release()
        service.close()


def test_verify_of_an_uncommitted_insert_is_not_a_404_it_waits(monkeypatch):
    hold = Hold(monkeypatch)
    pins = Pins(monkeypatch)
    service = pooled_service(monkeypatch)
    try:
        world = service.world(TENANT)
        hold.arm()
        with ThreadPoolExecutor(2) as pool:
            insert = in_thread(pool, service.record, TENANT, "insert", "fresh", 1)
            hold.wait_held()
            pending = world.newest("fresh")
            verify = in_thread(pool, service.verify, TENANT, "fresh")
            pins.wait_pinned()
            assert pins.waits == [pending] and not verify.done()
            hold.release()
            insert.result(TIMEOUT)
            assert verify.result(TIMEOUT)["records_checked"] == 1
        assert pins.reads == [("fresh", 0)]
    finally:
        hold.release()
        service.close()


def test_verify_of_an_object_whose_delete_is_pending_waits_then_404s(monkeypatch):
    """A pending delete of a root object holds no record of it, so the
    verify pins the newest queued request of all, and answers 404 only
    once that has committed."""
    hold = Hold(monkeypatch)
    pins = Pins(monkeypatch)
    service = pooled_service(monkeypatch)
    try:
        service.record(TENANT, "insert", "x", 1)
        world = service.world(TENANT)
        hold.arm()
        with ThreadPoolExecutor(3) as pool:
            insert = in_thread(pool, service.record, TENANT, "insert", "y", 2)
            hold.wait_held()  # the insert of y is signing
            delete = in_thread(pool, service.record, TENANT, "delete", "x")
            wait_for(lambda: "x" not in world.db.store, "the delete to stage")
            with world.lock:  # held by the delete until it is queued
                pending = world.newest()
            verify = in_thread(pool, service.verify, TENANT, "x")
            pins.wait_pinned()
            assert pins.waits == [pending]
            time.sleep(0.05)
            assert not verify.done(), "answered before the delete committed"
            hold.release()
            insert.result(TIMEOUT)
            assert delete.result(TIMEOUT)["records"] == []
            with pytest.raises(UnknownObjectError):
                verify.result(TIMEOUT)
        assert pins.reads == []
    finally:
        hold.release()
        service.close()


def test_a_verify_reports_the_state_it_pinned(monkeypatch):
    """An update of the verified object that stages and commits after the
    verify pinned, and before it reads, does not show: the closure is cut
    at the pinned record, which matches the pinned snapshot."""
    pinned = threading.Event()
    resume = threading.Event()
    original = TenantWorld.wait_committed

    def wait_committed(world, queued):
        pinned.set()
        assert resume.wait(TIMEOUT), "never resumed"
        return original(world, queued)

    monkeypatch.setattr(TenantWorld, "wait_committed", wait_committed)
    service = ProvenanceService(make_config())
    try:
        service.record(TENANT, "insert", "x", 1)
        service.record(TENANT, "update", "x", 2)
        with ThreadPoolExecutor(1) as pool:
            verify = in_thread(pool, service.verify, TENANT, "x")
            assert pinned.wait(TIMEOUT), "the verify never pinned"
            assert service.record(TENANT, "update", "x", 3)["records"][0]["seq_id"] == 2
            resume.set()
            report = verify.result(TIMEOUT)
        assert report["ok"], report["summary"]
        assert report["records_checked"] == 2
        assert [r.seq_id for r in service.world(TENANT).store.records_for("x")] == [0, 1, 2]
        resume.set()
        assert service.verify(TENANT, "x")["records_checked"] == 3
    finally:
        resume.set()
        service.close()


def test_a_write_commits_while_a_verify_checks_its_shipment(monkeypatch):
    """A verify holds no write back: while it checks its shipment, an
    update of the very object it verifies stages and commits."""
    checking = threading.Event()
    released = threading.Event()
    original = Verifier.verify

    def held_verify(verifier, *args, **kwargs):
        checking.set()
        assert released.wait(TIMEOUT), "the check was never released"
        return original(verifier, *args, **kwargs)

    monkeypatch.setattr(Verifier, "verify", held_verify)
    service = ProvenanceService(make_config())
    try:
        service.record(TENANT, "insert", "a", 1)
        with ThreadPoolExecutor(2) as pool:
            verify = in_thread(pool, service.verify, TENANT, "a")
            assert checking.wait(TIMEOUT), "the verify never checked its shipment"
            update = in_thread(pool, service.record, TENANT, "update", "a", 2)
            try:
                done, _ = wait([update], timeout=5.0)
                assert done, "the write waited 5 s for a verify checking its shipment"
            finally:
                released.set()
            assert update.result(TIMEOUT)["records"][0]["seq_id"] == 1
            report = verify.result(TIMEOUT)
        assert report["ok"] and report["records_checked"] == 1
        assert service.verify(TENANT, "a")["records_checked"] == 2
    finally:
        released.set()
        service.close()


def test_a_verify_whose_pinned_write_fails_answers_a_transient_error(monkeypatch):
    # append_many #0 is the insert; #1-#3 fail: the first attempt and
    # both retries of the held update's commit.
    plan = FaultPlan(seed=3, rules=(FaultRule(
        site="store.append_many", kind=FaultKind.ERROR,
        indices=frozenset({1, 2, 3}),
    ),))
    hold = Hold(monkeypatch)
    pins = Pins(monkeypatch)
    service = pooled_service(monkeypatch, faults=plan, retry_backoff=0.0)
    try:
        service.record(TENANT, "insert", "x", 1)
        world = service.world(TENANT)
        hold.arm()
        with ThreadPoolExecutor(2) as pool:
            update = in_thread(pool, service.record, TENANT, "update", "x", 2)
            hold.wait_held()
            pending = world.newest("x")
            verify = in_thread(pool, service.verify, TENANT, "x")
            pins.wait_pinned()
            assert pins.waits == [pending]
            hold.release()
            with pytest.raises(TRANSIENT_STORE_ERRORS):
                update.result(TIMEOUT)
            with pytest.raises(TransientStoreError):
                verify.result(TIMEOUT)
        # It read nothing.
        assert pins.reads == []
        assert len(world._queue) == 0
        # The update was rolled back; a retried verify sees the insert.
        report = service.verify(TENANT, "x")
        assert report["ok"] and report["records_checked"] == 1
    finally:
        hold.release()
        service.close()


# ----------------------------------------------------------------------
# a failed commit
# ----------------------------------------------------------------------


def test_failed_commit_fails_its_group_and_every_later_write(monkeypatch, server_factory):
    # append_many #0 is the base insert; #1-#3 fail: the first attempt
    # and both retries of the held commit.
    plan = FaultPlan(seed=3, rules=(FaultRule(
        site="store.append_many", kind=FaultKind.ERROR,
        indices=frozenset({1, 2, 3}),
    ),))
    hold = Hold(monkeypatch)
    monkeypatch.setattr(signers, "usable_cpus", lambda: 2)
    server = server_factory(faults=plan, retry_backoff=0.0)
    with ServiceClient(server.base_url, token=server.service.admin_token) as admin:
        token = admin.issue_key(TENANT)["token"]
    world = server.service.world(TENANT)

    def send(body):
        with ServiceClient(server.base_url, token=token, retries=0) as client:
            return client.request("POST", "/v1/record", body, raise_for_status=False)

    try:
        assert send({"op": "insert", "object_id": "base", "value": 0}).status == 200
        hold.arm()
        with ThreadPoolExecutor(3) as pool:
            first = in_thread(pool, send, {"op": "insert", "object_id": "x", "value": 1})
            hold.wait_held()
            chained = in_thread(pool, send, {"op": "update", "object_id": "x", "value": 2})
            wait_for(lambda: len(world._queue) == 2, "the chained update to stage")
            other = in_thread(pool, send, {"op": "insert", "object_id": "y", "value": 3})
            wait_for(lambda: len(world._queue) == 3, "the later insert to stage")
            hold.release()
            replies = [f.result(TIMEOUT) for f in (first, chained, other)]
        assert [r.status for r in replies] == [503, 503, 503]
        assert all(float(r.headers["Retry-After"]) > 0 for r in replies)
        # Undone, newest first; nothing of them stored.
        assert "x" not in world.db.store and "y" not in world.db.store
        assert world.store.object_ids() == ("base",)
        assert len(world._queue) == 0
        # Each retry is a clean first write.
        retried = [
            send({"op": "insert", "object_id": "x", "value": 1}),
            send({"op": "update", "object_id": "x", "value": 2}),
            send({"op": "insert", "object_id": "y", "value": 3}),
        ]
        assert [r.status for r in retried] == [200, 200, 200]
        assert [r.json["records"][0]["seq_id"] for r in retried] == [0, 1, 0]
        with ServiceClient(server.base_url, token=token) as client:
            assert client.verify("x")["ok"] and client.verify("y")["ok"]
            assert client.healthz().status == 200
    finally:
        hold.release()


def test_a_write_that_fails_to_stage_leaves_earlier_pending_writes_chained(monkeypatch):
    """A batch stages its update of ``x`` on the pending update of an
    earlier request, then fails to stage ``y`` (a transient store read
    error).  Undoing the batch must leave ``x`` chained on that earlier,
    still uncommitted update, so the next update of ``x`` stages on it."""
    hold = Hold(monkeypatch)
    service = pooled_service(monkeypatch)
    try:
        service.record(TENANT, "insert", "x", 0)
        service.record(TENANT, "insert", "y", 0)
        world = service.world(TENANT)
        tail = world.store.tail
        failed = []

        def failing_tail(object_id):
            if object_id == "y" and not failed:
                failed.append(object_id)
                raise TransientStoreError("injected read error")
            return tail(object_id)

        monkeypatch.setattr(world.store, "tail", failing_tail)
        hold.arm()
        with ThreadPoolExecutor(2) as pool:
            first = in_thread(pool, service.record, TENANT, "update", "x", 1)
            hold.wait_held()  # its commit is signing
            with pytest.raises(TransientStoreError):
                service.batch(TENANT, [
                    {"op": "update", "object_id": "x", "value": 2},
                    {"op": "update", "object_id": "y", "value": 2},
                ])
            assert failed == ["y"]
            later = in_thread(pool, service.record, TENANT, "update", "x", 3)
            wait_for(lambda: len(world._queue) == 2 or later.done(), "the update to stage")
            hold.release()
            assert first.result(TIMEOUT)["records"][0]["seq_id"] == 1
            assert later.result(TIMEOUT)["records"][0]["seq_id"] == 2
        assert [r.seq_id for r in world.store.records_for("x")] == [0, 1, 2]
        assert [r.seq_id for r in world.store.records_for("y")] == [0]
        assert service.verify(TENANT, "x")["ok"] and service.verify(TENANT, "y")["ok"]
    finally:
        hold.release()
        service.close()


def test_a_failed_commit_in_process_raises_a_transient_error(monkeypatch):
    plan = FaultPlan(seed=3, rules=(FaultRule(
        site="store.append_many", kind=FaultKind.ERROR, indices=frozenset({0, 1, 2}),
    ),))
    service = ProvenanceService(make_config(faults=plan, retry_backoff=0.0))
    try:
        with pytest.raises(TRANSIENT_STORE_ERRORS):
            service.record(TENANT, "insert", "x", 1)
        assert "x" not in service.world(TENANT).db.store
        assert service.record(TENANT, "insert", "x", 1)["records"][0]["seq_id"] == 0
    finally:
        service.close()


# ----------------------------------------------------------------------
# stress
# ----------------------------------------------------------------------


class CheckedTurns(threading.Condition):
    """A commit-queue condition that fails any wait under the world lock."""

    def __init__(self, world, violations):
        super().__init__()
        self._world_lock = world.lock
        self._violations = violations

    def wait(self, timeout=None):
        if self._world_lock._is_owned():
            self._violations.append(threading.current_thread().name)
        return super().wait(timeout if timeout is not None else TIMEOUT)


class Client:
    """One stress thread: owns its objects and checks every reply."""

    def __init__(self, service, index: int, seed: int):
        self.service = service
        self.name = f"w{index}"
        self.rng = random.Random(f"{seed}|{index}")
        self.chains = {}  # (tenant, object id) -> records known
        self.serial = 0
        self.errors = []

    def new_id(self) -> str:
        self.serial += 1
        return f"{self.name}-{self.serial}"

    def owned(self, tenant):
        return [oid for (t, oid) in self.chains if t == tenant]

    def step(self, tenant: str) -> None:
        owned = self.owned(tenant)
        kind = self.rng.choice(
            ("insert", "update", "batch", "verify", "provenance", "objects")
        )
        if not owned and kind not in ("insert", "batch", "objects"):
            kind = "insert"
        service = self.service
        if kind == "insert":
            self.write(tenant, [("insert", self.new_id())])
        elif kind == "update":
            self.write(tenant, [("update", self.rng.choice(owned))])
        elif kind == "batch":
            picked = self.rng.sample(owned, min(2, len(owned)))
            ops = [("update", oid) for oid in picked]
            ops += [("insert", self.new_id()) for _ in range(4 - len(ops))]
            self.write(tenant, ops)
        elif kind == "verify":
            # Any object of the tenant: other clients' objects with
            # pending writes and the audit chain included.
            oid = self.rng.choice(service.objects(tenant)["objects"])
            report = service.verify(tenant, oid)
            known = self.chains.get((tenant, oid), 0)
            if not report["ok"] or report["records_checked"] < known:
                self.errors.append(f"verify {tenant}/{oid}: {report['summary']}")
        elif kind == "provenance":
            oid = self.rng.choice(owned)
            got = len(service.provenance(tenant, oid)["records"])
            if got != self.chains[(tenant, oid)]:
                self.errors.append(f"provenance {tenant}/{oid}: {got} records")
        else:
            missing = set(owned) - set(service.objects(tenant)["objects"])
            if missing:
                self.errors.append(f"objects {tenant}: missing {sorted(missing)}")

    def write(self, tenant: str, ops) -> None:
        expected = {oid: self.chains.get((tenant, oid), 0) for _, oid in ops}
        if len(ops) == 1:
            op, oid = ops[0]
            reply = self.service.record(tenant, op, oid, self.rng.randrange(1 << 20))
        else:
            reply = self.service.batch(tenant, [
                {"op": op, "object_id": oid, "value": self.rng.randrange(1 << 20)}
                for op, oid in ops
            ])
        got = {r["object_id"]: r["seq_id"] for r in reply["records"]}
        if got != expected:
            self.errors.append(f"write {tenant}: expected {expected}, got {got}")
            return
        for oid in got:
            self.chains[(tenant, oid)] = expected[oid] + 1


@pytest.mark.parametrize("store", ("memory", "sqlite"))
def test_stress_more_threads_than_cpus(tmp_path, store):
    root = str(tmp_path / "tenants") if store == "sqlite" else None
    service = ProvenanceService(make_config(store_root=root, shards=2))
    tenants = ("s0", "s1")
    violations = []
    for tenant in tenants:
        world = service.world(tenant)
        world._turns = CheckedTurns(world, violations)
    clients = [Client(service, i, seed=12 + len(store)) for i in range(8)]
    stop = time.monotonic() + 2.0
    crashed = []

    def run(client: Client) -> None:
        try:
            while time.monotonic() < stop:
                client.step(client.rng.choice(tenants))
        except Exception as exc:  # noqa: BLE001 — any failure is a finding
            crashed.append(f"{client.name}: {type(exc).__name__}: {exc}")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(c,), name=c.name) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    try:
        assert crashed == []
        assert [e for c in clients for e in c.errors] == []
        assert violations == []
        assert sum(len(c.chains) for c in clients) > 0
        for tenant in tenants:
            world = service.world(tenant)
            assert len(world._queue) == 0
            for oid in world.store.object_ids():
                seqs = [r.seq_id for r in world.store.records_for(oid)]
                assert seqs == list(range(len(seqs))), f"{tenant}/{oid}: {seqs}"
            for client in clients:
                for oid in client.owned(tenant):
                    assert service.verify(tenant, oid)["ok"]
        payload, tampered = service.healthz(full=True)
        assert not tampered and payload["health"] == "ok", payload
    finally:
        service.close()

"""The transport-independent service core: tenant worlds + dispatch.

:class:`ProvenanceService` is everything the HTTP front end does *minus*
HTTP: a registry of per-tenant worlds (engine, collector, sharded
provenance store, signing participant, health monitor), an API-key
authority, and the request operations (record / batch / verify / lineage
/ health / recovery) returning JSON-ready dicts.

Two properties the test suite leans on:

**Determinism.**  Every tenant world is seeded as a pure function of
``(config.seed, tenant_id)``: the tenant's CA key pair, its signing
participant, and therefore every record checksum depend only on the
tenant's own operation order — never on *when* the tenant was created
relative to other tenants or on request interleaving across tenants.
That is what makes a served world byte-identical to a same-seed
in-process reference world (the equivalence suite), and per-object
responses byte-identical even under concurrent multi-tenant load (chains
are local per object, §3.2).  One thing does depend on timing: under
Merkle-batch signing, which concurrent requests of a tenant share a
commit decides the stored epochs and inclusion proofs.  Replies and
record checksums do not depend on it.

**Group commit.**  A write is *staged* under the tenant's world lock
(engine operations applied, records built unsigned and chained) and
*committed* outside it, in staging order, on the requests' own threads:
the records are signed (through the signer pool, or leaf-hashed and
sealed under one Merkle root signature) and appended in one store batch
under a brief retake of the lock.  The request at the head of the queue
commits every request staged before its commit began, so concurrent
writes share one seal and one store transaction while each reply carries
only its own records.  A failed commit fails its group and every write
staged after it; they are rolled back, newest first, before the next
write stages.  A verify reads only once every write staged before
it has committed (another verify's ``VERIFY`` record, which touches
nothing but the audit chain, excepted), and writes wait to stage until
it has checked its shipment and staged its own ``VERIFY`` record, so
its answer never depends on an uncommitted write.  A verify that
arrives while a write waits to stage queues behind that write, so
overlapping verifies cannot hold writes back for ever.

**Isolation.**  A tenant is addressed only through its API key's tenant
claim — there is no request surface that names another tenant's world —
and each world owns private stores, so cross-tenant reads or writes are
impossible by construction rather than by filtering.

Every verification call appends a ``VERIFY`` provenance record to the
tenant's audit chain (object :data:`AUDIT_OBJECT`): verification itself
is an event worth notarizing — "who looked, and what did they see" —
exactly the queryable record-of-how-data-came-to-be that Cheney et al.'s
*Provenance Traces* framing asks for.  The audit record is signed and
chained like any other record, so tampering with the audit trail is as
evident as tampering with the data it audits.
"""

from __future__ import annotations

import json
import os
import random
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.collector import StagedWrite
from repro.core.system import ParticipantSession, TamperEvidentDatabase
from repro.crypto.pki import CertificateAuthority, KeyStore, resolve_scheme_name
from repro.crypto.signatures import MerkleBatchSignatureScheme, RSASignatureScheme
from repro.exceptions import (
    ReproError,
    ServiceError,
    TransientStoreError,
    UnknownObjectError,
)
from repro.obs import OBS
from repro.provenance.records import ProvenanceRecord
from repro.provenance.registry import open_tenant_store
from repro.query.lineage import lineage_summary
from repro.service.auth import ApiKeyAuthority
from repro.service.signers import PooledRSASignatureScheme, SignerPool

if TYPE_CHECKING:  # pragma: no cover — service stays import-light
    from repro.faults.plan import FaultPlan

__all__ = [
    "AUDIT_OBJECT",
    "ServiceConfig",
    "TenantWorld",
    "ProvenanceService",
    "canonical_json",
]

#: Object id of each tenant's verification audit chain.
AUDIT_OBJECT = "~audit"


def canonical_json(payload: Dict[str, object]) -> bytes:
    """The one JSON encoding both the HTTP layer and the equivalence
    tests use — byte-identity claims are claims about these bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class ServiceConfig:
    """Deterministic recipe for a whole service instance.

    Two services built from equal configs (and driven with the same
    per-tenant operation order) produce byte-identical responses.
    """

    seed: int = 0
    key_bits: int = 1024
    signature_scheme: str = "rsa-pkcs1v15"
    hash_algorithm: str = "sha1"
    #: Provenance shards per tenant.
    shards: int = 4
    #: Directory for SQLite shard files; None keeps every store in memory.
    store_root: Optional[str] = None
    #: Verification workers for monitor cold/full passes and served
    #: verifies (1 = serial).
    workers: int = 1
    #: Collector retry budget for transient store errors.
    store_retries: int = 2
    retry_backoff: float = 0.002
    #: Watermark-lag alert threshold for /healthz monitors.
    lag_threshold: int = 1 << 30
    #: Per-tenant witness anchoring: each tenant world gets its own
    #: notary (seeded from ``(seed, tenant_id)``) whose anchor log the
    #: healthz monitors check, so even a full insider rewrite of a
    #: tenant store surfaces as ``witness-mismatch`` tampering.  With
    #: ``store_root`` set, each tenant's anchor log persists beside its
    #: shard files and restarts resume it.
    witness: bool = False
    #: Optional fault plan consulted at the service.request boundary and
    #: wired into every tenant's store + collector (chaos testing).
    faults: Optional["FaultPlan"] = field(default=None, compare=False)
    #: Seconds between background monitor sweeps (0 = no daemon).  Each
    #: sweep runs the cheap incremental tick per tenant — the idle fast
    #: path makes a quiet tenant cost one watermark comparison — and
    #: publishes health transitions + alerts to ``alert_sinks``.
    monitor_interval: float = 0.0
    #: Pluggable :class:`repro.obs.plane.AlertSink` targets for the
    #: background monitor (excluded from config equality: sinks are
    #: side-effect objects, not part of the deterministic world recipe).
    alert_sinks: Tuple[object, ...] = field(default=(), compare=False)

    def resolved_scheme(self) -> str:
        return resolve_scheme_name(self.signature_scheme)


T = TypeVar("T")


class _Queued:
    """One request's place in its tenant's commit queue."""

    __slots__ = ("writes", "reading", "notarizes", "state", "error")

    STAGED = "staged"
    DONE = "done"
    FAILED = "failed"

    def __init__(self, writes: List[StagedWrite], reading: bool = False):
        self.writes = writes
        #: A verify that has not yet read, checked its shipment and staged
        #: its VERIFY record: writes wait to stage while it is queued.
        self.reading = reading
        #: A verify that has read and staged only its VERIFY record.
        self.notarizes = False
        self.state = self.STAGED
        self.error: Optional[BaseException] = None

    def records(self) -> Tuple[ProvenanceRecord, ...]:
        return tuple(record for write in self.writes for record in write.records)


def _echo(exc: BaseException) -> BaseException:
    """The failure of a request whose group's commit raised ``exc``: the
    same kind of error (a fresh one per request's thread)."""
    try:
        echo = type(exc)(*exc.args)
    except Exception:  # noqa: BLE001 — an error type with another signature
        echo = TransientStoreError(f"the commit of this write failed: {exc}")
    echo.__cause__ = exc
    return echo


class TenantWorld:
    """One tenant's isolated database + provenance universe.

    Everything here is derived deterministically from
    ``(config.seed, tenant_id)``.  The world-level lock serializes every
    read and every staging step of this tenant (the stores assume a
    single writer; see ``SQLiteProvenanceStore``), while different
    tenants proceed in parallel.

    Writes commit through the world's commit queue (see the module
    docstring).  Lock order: a thread takes its commit turn, or waits in
    the queue, without holding the world lock, and holds the queue's own
    mutex only briefly, never while it waits for the world lock.
    """

    def __init__(
        self,
        tenant_id: str,
        config: ServiceConfig,
        signers: Optional[SignerPool] = None,
    ):
        self.tenant_id = tenant_id
        self.config = config
        self.lock = threading.RLock()
        rng = random.Random(f"{config.seed}|tenant|{tenant_id}")
        store = open_tenant_store(config.store_root, tenant_id, config.shards)
        if config.faults is not None:
            from repro.faults.store import FaultyStore

            store = FaultyStore(store, config.faults)
        self.db = TamperEvidentDatabase(
            provenance_store=store,
            hash_algorithm=config.hash_algorithm,
            key_bits=config.key_bits,
            signature_scheme=config.signature_scheme,
            rng=rng,
            ca=CertificateAuthority(
                name=f"repro-tenant-ca:{tenant_id}", rng=rng,
                key_bits=config.key_bits, hash_algorithm=config.hash_algorithm,
            ),
        )
        self.db.collector.store_retries = max(0, int(config.store_retries))
        self.db.collector.retry_backoff = config.retry_backoff
        if config.faults is not None:
            self.db.collector.faults = config.faults
        self.participant = self.db.enroll(f"svc:{tenant_id}")
        scheme = self.participant.scheme
        if signers is not None:
            # Per-record RSA signatures and Merkle-batch root seals are
            # computed in the service's helper processes.
            if isinstance(scheme, RSASignatureScheme):
                self.participant.scheme = PooledRSASignatureScheme(scheme, signers)
            elif isinstance(scheme, MerkleBatchSignatureScheme):
                scheme.root_signer = PooledRSASignatureScheme(
                    scheme.root_signer, signers
                )
        self.session: ParticipantSession = self.db.session(self.participant)
        #: Trust store cached once — enrollment happens only here, so the
        #: certificate set is final and verify calls skip re-validating
        #: the CA signatures on every request.
        self.keystore: KeyStore = self.db.keystore()
        #: Staged requests in staging order; the head commits next.
        self._queue: List[_Queued] = []
        #: Guards the queue; waiters for a turn wait on it.
        self._turns = threading.Condition()
        #: Writes waiting to stage behind a verify; verifies that arrive
        #: meanwhile queue behind them.
        self._blocked = 0
        self._monitor = None
        self.witness = None
        self._anchor_path: Optional[str] = None
        if config.witness:
            from repro.provenance.registry import tenant_store_paths
            from repro.trust.witness import AnchorLog, Witness

            log = AnchorLog()
            if config.store_root is not None:
                shard_paths = tenant_store_paths(
                    config.store_root, tenant_id, config.shards
                )
                self._anchor_path = os.path.join(
                    os.path.dirname(shard_paths[0]), "witness-anchors.jsonl"
                )
                log = AnchorLog.load(self._anchor_path)
            self.witness = Witness.generate(
                key_bits=config.key_bits,
                seed=f"{config.seed}|witness|{tenant_id}",
                log=log,
            )

    @property
    def store(self):
        return self.db.provenance_store

    # ------------------------------------------------------------------
    # the commit queue
    # ------------------------------------------------------------------

    def _reading(self) -> bool:
        return any(queued.reading for queued in self._queue)

    def _push(self, writes: List[StagedWrite], reading: bool = False) -> _Queued:
        queued = _Queued(writes, reading)
        with self._turns:
            self._queue.append(queued)
        return queued

    def stage(self, apply: Callable[[], T]) -> Tuple[T, _Queued]:
        """Run ``apply`` under the world lock with its commits deferred.

        Waits, without the lock, while a verify that has not staged its
        VERIFY record yet is queued, so no verify reads an uncommitted
        write.  While it waits, verifies that arrive queue behind it
        (:meth:`begin_read`), so the wait ends once the verifies queued
        before it have staged their records.  Returns what ``apply``
        returned and the request's place in the queue.
        """
        blocked = False
        try:
            while True:
                with self._turns:
                    while self._reading():
                        if not blocked:
                            blocked = True
                            self._blocked += 1
                        self._turns.wait()
                with self.lock:
                    with self._turns:
                        if self._reading():  # a verify queued meanwhile
                            continue
                    result, writes = self._deferred(apply)
                    return result, self._push(writes)
        finally:
            if blocked:
                with self._turns:
                    self._blocked -= 1
                    self._turns.notify_all()

    def _deferred(self, apply: Callable[[], T]) -> Tuple[T, List[StagedWrite]]:
        """Run ``apply`` (the caller holds the lock) with the collector's
        commits deferred; returns its result and the writes it staged."""
        with self.db.collector.deferring() as writes:
            try:
                result = apply()
            except BaseException:
                self.db.rollback(writes)
                raise
        return result, writes

    def begin_read(self, object_id: str) -> _Queued:
        """Queue a verify of ``object_id`` and wait, without the lock, for
        its turn to read; no write stages until :meth:`end_read` (or
        :meth:`withdraw`).

        A verify that arrives while a write waits to stage first waits,
        without the lock, until that write has staged.  Its turn to read
        comes when every request queued before it has committed — except
        an earlier verify's VERIFY record, which touches nothing but the
        audit chain, unless ``object_id`` is that chain.
        """
        with self._turns:
            while self._blocked:
                self._turns.wait()
        with self.lock:
            queued = self._push([], reading=True)
        try:
            with self._turns:
                while not self._may_read(queued, object_id):
                    self._turns.wait()
        except BaseException:
            self.withdraw(queued)
            raise
        return queued

    def _may_read(self, queued: _Queued, object_id: str) -> bool:
        for entry in self._queue:
            if entry is queued:
                return True
            if object_id == AUDIT_OBJECT or not entry.notarizes:
                return False
        return False

    def end_read(self, queued: _Queued, apply: Callable[[], object]) -> None:
        """The verify has read: stage ``apply``'s writes as its own and let
        writes stage again.

        Both happen in one hold of the world lock, as :meth:`stage` stages
        and queues, so a failing commit (:meth:`_fail`, which takes the
        lock) sees these writes either not yet staged or queued as
        staged, and fails them with the writes they chain on.
        """
        with self.lock:
            _, writes = self._deferred(apply)
            with self._turns:
                queued.writes = writes
                queued.reading = False
                # An insert or update of a root object changes that
                # object's node and chain alone (an audit chain a client
                # nested under another object would give it an inherited
                # record too).
                queued.notarizes = all(
                    event.object_id == AUDIT_OBJECT and not event.ancestors
                    for write in writes for event in write.events
                )
                self._turns.notify_all()

    def withdraw(self, queued: _Queued) -> None:
        """Take a request that will not commit out of the queue."""
        with self._turns:
            if queued in self._queue:
                self._queue.remove(queued)
                self._turns.notify_all()

    def commit(self, queued: _Queued) -> Tuple[ProvenanceRecord, ...]:
        """Commit a staged request in staging order; returns its records.

        Waits for the request's turn.  At the head of the queue it commits
        every request staged before its commit began and not waiting to
        read, as one group: one sign and seal, one store batch.  If an
        earlier request's commit took this one along, this only waits for
        that commit's outcome.

        Raises:
            The group's failure: the committing request's own error, the
            same kind for the rest of its group, and
            :class:`TransientStoreError` for requests staged after it.
        """
        with self._turns:
            while queued.state == _Queued.STAGED and self._queue[0] is not queued:
                self._turns.wait()
            if queued.state == _Queued.DONE:
                return queued.records()
            if queued.state == _Queued.FAILED:
                raise queued.error
            group: List[_Queued] = []
            for entry in self._queue:
                if entry.reading:
                    break
                group.append(entry)
        try:
            self.db.collector.commit(
                [write for entry in group for write in entry.writes], lock=self.lock
            )
        except BaseException as exc:
            self._fail(group, exc)
            raise
        with self._turns:
            for entry in group:
                entry.state = _Queued.DONE
            del self._queue[: len(group)]
            self._turns.notify_all()
        return queued.records()

    def _fail(self, group: List[_Queued], exc: BaseException) -> None:
        """Fail ``group`` and every write staged after it; roll them back,
        newest first, in one hold of the world lock.

        Their requests are answered as soon as they are failed; a retry
        needs the world lock to stage, so it stages after the rollback.
        """
        with self.lock:
            with self._turns:
                failed = [entry for entry in self._queue if not entry.reading]
                for entry in failed:
                    self._queue.remove(entry)
                    if entry in group:
                        entry.error = _echo(exc)
                    else:
                        entry.error = TransientStoreError(
                            "an earlier write's commit failed; this write was "
                            "rolled back and may be retried"
                        )
                        entry.error.__cause__ = exc
                    entry.state = _Queued.FAILED
                self._turns.notify_all()
            self.db.rollback([write for entry in failed for write in entry.writes])

    def witness_tick(self) -> int:
        """Anchor the current chain tails; returns new-anchor count.

        Called under the world lock from the healthz pass BEFORE the
        monitor tick, so every healthy state a monitor ever reported is
        pinned by an anchor a later insider rewrite must contradict.
        """
        if self.witness is None:
            return 0
        fresh = self.witness.tick(self.store)
        if fresh and self._anchor_path is not None:
            self.witness.log.save(self._anchor_path)
        return len(fresh)

    def monitor(self):
        """The tenant's health monitor (lazily built, watermark-backed)."""
        if self._monitor is None:
            from repro.monitor import ProvenanceMonitor

            kwargs = {}
            if self.witness is not None:
                kwargs = {
                    "witness_log": self.witness.log,
                    "witness_verifier": self.witness.verifier(),
                }
            self._monitor = ProvenanceMonitor(
                self.store,
                self.keystore,
                workers=self.config.workers,
                lag_threshold=self.config.lag_threshold,
                name=self.tenant_id,
                **kwargs,
            )
        return self._monitor

    def close(self) -> None:
        close = getattr(self.store, "close", None)
        if close is not None:
            close()


class ProvenanceService:
    """Multi-tenant provenance service (transport-independent core).

    The HTTP front end (:mod:`repro.service.http`) is a thin shell over
    this class; tests that assert byte-identity drive one instance
    directly and one over HTTP with the same config and compare
    :func:`canonical_json` of the results.
    """

    #: Mutation op names accepted by :meth:`record` / :meth:`batch`.
    _MUTATIONS = ("insert", "update", "delete")

    def __init__(self, config: ServiceConfig):
        self.config = config
        config.resolved_scheme()  # validate the scheme name eagerly
        self._worlds: Dict[str, TenantWorld] = {}
        self._worlds_lock = threading.Lock()
        auth_rng = random.Random(f"{config.seed}|auth")
        auth_state = None
        if config.store_root is not None:
            os.makedirs(config.store_root, exist_ok=True)
            auth_state = os.path.join(config.store_root, "api-keys.json")
        self.authority = ApiKeyAuthority(
            CertificateAuthority(
                name="repro-service-auth-ca",
                key_bits=config.key_bits,
                hash_algorithm=config.hash_algorithm,
                rng=auth_rng,
            ),
            state_path=auth_state,
        )
        self.admin_token = self.authority.issue_admin()
        #: Helper processes for the tenants' per-record RSA signatures
        #: (one per usable CPU, started on first use); None on one CPU.
        self.signers = SignerPool.for_host()
        self.background = None
        if config.monitor_interval > 0:
            from repro.service.background import BackgroundMonitor

            self.background = BackgroundMonitor(
                self,
                interval=config.monitor_interval,
                sinks=config.alert_sinks,
            )
            self.background.start()

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------

    def world(self, tenant_id: str) -> TenantWorld:
        """The tenant's world, created deterministically on first use."""
        if not tenant_id or tenant_id == "*":
            raise ServiceError(f"invalid tenant id {tenant_id!r}")
        world = self._worlds.get(tenant_id)
        if world is not None:
            return world
        with self._worlds_lock:
            world = self._worlds.get(tenant_id)
            if world is None:
                world = TenantWorld(tenant_id, self.config, self.signers)
                self._worlds[tenant_id] = world
                if OBS.enabled:
                    OBS.registry.gauge("service.tenants").set(len(self._worlds))
            return world

    def tenant_ids(self) -> Tuple[str, ...]:
        with self._worlds_lock:
            return tuple(sorted(self._worlds))

    def _boundary(self) -> None:
        """The request-boundary fault hook (site ``service.request``)."""
        if self.config.faults is not None:
            self.config.faults.maybe_raise("service.request")

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------

    def record(
        self,
        tenant_id: str,
        op: str,
        object_id: str,
        value=None,
        parent: Optional[str] = None,
        inputs: Optional[Sequence[str]] = None,
        note: str = "",
    ) -> Dict[str, object]:
        """Apply one primitive with provenance; returns the records."""
        self._boundary()
        world = self.world(tenant_id)
        staged, queued = world.stage(
            lambda: self._apply(world, op, object_id, value, parent, inputs, note)
        )
        records = self._signed(staged, world.commit(queued))
        return {
            "tenant": tenant_id,
            "object_id": object_id,
            "op": op,
            "records": [self._record_dict(r) for r in records],
        }

    def batch(
        self, tenant_id: str, ops: Sequence[Dict[str, object]], note: str = ""
    ) -> Dict[str, object]:
        """Apply several mutations as ONE complex operation (§4.4):
        one atomic flush, one record per surviving touched object."""
        self._boundary()
        if isinstance(ops, (str, bytes, dict)) or not isinstance(ops, Sequence):
            raise ServiceError("batch ops must be a list of operation objects")
        if not ops:
            raise ServiceError("batch needs at least one operation")
        for op in ops:
            if not isinstance(op, dict):
                raise ServiceError(
                    f"each batch operation must be an object, got {type(op).__name__}"
                )
            if op.get("op") not in self._MUTATIONS:
                raise ServiceError(
                    f"batch supports {self._MUTATIONS}, got {op.get('op')!r}"
                )
        world = self.world(tenant_id)

        def apply() -> Tuple[ProvenanceRecord, ...]:
            with world.session.complex_operation(note=note):
                for op in ops:
                    self._apply(
                        world,
                        str(op["op"]),
                        str(op["object_id"]),
                        op.get("value"),
                        op.get("parent"),
                        None,
                        str(op.get("note", "")),
                    )
            return world.session.last_records

        staged, queued = world.stage(apply)
        records = self._signed(staged, world.commit(queued))
        return {
            "tenant": tenant_id,
            "ops": len(ops),
            "records": [self._record_dict(r) for r in records],
        }

    @staticmethod
    def _signed(
        staged: Sequence[ProvenanceRecord], committed: Sequence[ProvenanceRecord]
    ) -> List[ProvenanceRecord]:
        """The committed versions of ``staged`` (a request's answer may
        name fewer records than it committed: an aggregate's reply omits
        the bootstrap geneses of its inputs)."""
        by_key = {record.key: record for record in committed}
        return [by_key[record.key] for record in staged]

    def _apply(
        self, world, op, object_id, value, parent, inputs, note
    ) -> Tuple:
        if op == "insert":
            return world.session.insert(object_id, value, parent=parent, note=note)
        if op == "update":
            return world.session.update(object_id, value, note=note)
        if op == "delete":
            return world.session.delete(object_id, note=note)
        if op == "aggregate":
            if not inputs:
                raise ServiceError("aggregate needs a non-empty inputs list")
            return (world.session.aggregate(list(inputs), object_id, note=note),)
        raise ServiceError(f"unknown operation {op!r}")

    def verify(self, tenant_id: str, object_id: str) -> Dict[str, object]:
        """Verify one object as a recipient would; notarize the act.

        The verify reads once every write staged before it has committed
        (see :meth:`TenantWorld.begin_read`), and no write stages until
        it has staged its ``VERIFY`` record, so its answer (a 404
        included) never depends on an uncommitted write.  The shipment is
        checked without the world lock, and the ``VERIFY`` record is
        committed before this returns.

        The fan-out is the service's own ``ServiceConfig.workers``, never
        the caller's: a caller choosing how many processes it forks could
        stall the tenant at will.

        The response carries only deterministic report fields (no audit
        sequence numbers, no timings): under concurrent load the audit
        chain's interleaving is scheduling-dependent, but this payload —
        for a client whose objects are its own — is not.
        """
        self._boundary()
        world = self.world(tenant_id)
        queued = world.begin_read(object_id)
        try:
            with world.lock:
                if object_id not in world.db.store:
                    raise UnknownObjectError(
                        f"tenant {tenant_id!r} has no object {object_id!r}"
                    )
                shipment = world.db.ship(object_id)
            report = shipment.verify(world.keystore, workers=self.config.workers)
            world.end_read(queued, lambda: self._append_audit(world, object_id, report))
        except BaseException:
            world.withdraw(queued)
            raise
        world.commit(queued)
        if OBS.enabled:
            OBS.registry.counter(
                "service.verifications", ok=str(report.ok).lower()
            ).inc()
            if not report.ok:
                for code, count in report.failure_tally().items():
                    OBS.registry.counter(
                        "service.verify.failures",
                        tenant=tenant_id, requirement=code,
                    ).inc(count)
        return {
            "tenant": tenant_id,
            "object_id": object_id,
            "ok": report.ok,
            "records_checked": report.records_checked,
            "objects_checked": report.objects_checked,
            "failures": [str(f) for f in report.failures],
            "failure_tally": report.failure_tally(),
            "summary": report.summary(),
        }

    def _append_audit(self, world: TenantWorld, object_id: str, report) -> None:
        """Stage the VERIFY record on the tenant's audit chain."""
        outcome = json.dumps(
            {
                "verify": object_id,
                "ok": report.ok,
                "records": report.records_checked,
                "tally": report.failure_tally(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        if AUDIT_OBJECT in world.db.store:
            world.session.update(AUDIT_OBJECT, outcome, note="VERIFY")
        else:
            world.session.insert(AUDIT_OBJECT, outcome, note="VERIFY")

    def lineage(self, tenant_id: str, object_id: str) -> Dict[str, object]:
        """Lineage summary of one object (ancestry through aggregations)."""
        self._boundary()
        world = self.world(tenant_id)
        with world.lock:
            dag = world.db.dag(object_id)
            if dag.terminal(object_id) is None:
                raise UnknownObjectError(
                    f"tenant {tenant_id!r} has no provenance for {object_id!r}"
                )
            summary = lineage_summary(dag, object_id)
        return {
            "tenant": tenant_id,
            "object_id": object_id,
            "records": summary.record_count,
            "participants": list(summary.participants),
            "sources": list(summary.sources),
            "aggregations": summary.aggregations,
            "linear": summary.linear,
            "depth": summary.depth,
        }

    def provenance(self, tenant_id: str, object_id: str) -> Dict[str, object]:
        """The object's own chain, as record dicts."""
        self._boundary()
        world = self.world(tenant_id)
        with world.lock:
            chain = world.store.records_for(object_id)
            if not chain:
                raise UnknownObjectError(
                    f"tenant {tenant_id!r} has no provenance for {object_id!r}"
                )
        return {
            "tenant": tenant_id,
            "object_id": object_id,
            "records": [self._record_dict(r) for r in chain],
        }

    def objects(self, tenant_id: str) -> Dict[str, object]:
        """All object ids with provenance in this tenant's world."""
        self._boundary()
        world = self.world(tenant_id)
        with world.lock:
            ids = list(world.store.object_ids())
        return {"tenant": tenant_id, "objects": ids}

    @staticmethod
    def _record_dict(record) -> Dict[str, object]:
        return {
            "object_id": record.object_id,
            "seq_id": record.seq_id,
            "participant": record.participant_id,
            "operation": record.operation.value,
            "inherited": record.inherited,
            "checksum": record.checksum.hex(),
        }

    # ------------------------------------------------------------------
    # health / recovery (control plane)
    # ------------------------------------------------------------------

    def healthz(
        self,
        full: bool = True,
        include: Optional[Sequence[str]] = None,
    ) -> Tuple[Dict[str, object], bool]:
        """One monitor pass over every tenant; returns (payload, tampered).

        ``full=True`` matches ``repro monitor --once`` semantics — a
        watermark-ignoring full audit whose anchors are still validated,
        so behind-watermark edits and removals both surface.  ``full=
        False`` is the cheap incremental tick for high-frequency probes.

        The aggregate ``health`` always covers *every* tenant, but the
        per-tenant breakdown is restricted to ``include`` (``None`` =
        all tenants; an empty sequence = aggregate only).  The HTTP
        layer uses this to keep the tenant list — record counts, alerts,
        tenant ids themselves — away from callers whose key does not
        entitle them to it; in the mutually-distrusting threat model the
        customer list is itself sensitive.
        """
        visible = None if include is None else frozenset(include)
        tenants: Dict[str, Dict[str, object]] = {}
        worst = "ok"
        rank = {"ok": 0, "degraded": 1, "tampered": 2}
        for tenant_id in self.tenant_ids():
            world = self._worlds[tenant_id]
            with world.lock:
                monitor = world.monitor()
                world.witness_tick()
                result = monitor.tick(full=full)
                if visible is None or tenant_id in visible:
                    tenants[tenant_id] = {
                        "health": result.health,
                        "records": result.records_total,
                        "verified": result.records_verified,
                        "failure_tally": monitor.accumulated_tally(),
                        "regressions": [list(r) for r in monitor.regressions],
                        "alerts": [a.rule for a in result.alerts],
                    }
            if rank[result.health] > rank[worst]:
                worst = result.health
        tampered = worst == "tampered"
        payload: Dict[str, object] = {"health": worst}
        if visible is None or visible:
            payload["tenants"] = tenants
        if OBS.enabled:
            OBS.registry.counter("service.healthz", health=worst).inc()
        return payload, tampered

    def recover(self) -> Dict[str, object]:
        """Run crash recovery over every tenant store (restart surface)."""
        from repro.faults.recovery import RecoveryScanner

        reports: Dict[str, Dict[str, object]] = {}
        for tenant_id in self.tenant_ids():
            world = self._worlds[tenant_id]
            with world.lock:
                report = RecoveryScanner(world.store).recover()
                reports[tenant_id] = report.to_dict()
        return {"tenants": reports}

    def close(self) -> None:
        if self.background is not None:
            self.background.stop()
        for tenant_id in self.tenant_ids():
            self._worlds[tenant_id].close()
        if self.signers is not None:
            self.signers.close()

    def __repr__(self) -> str:
        return (
            f"ProvenanceService(tenants={len(self._worlds)}, "
            f"seed={self.config.seed})"
        )

"""Checksummed provenance collection.

:class:`ChecksumCollector` turns engine events into signed provenance
records: it assigns sequence ids (§2.1's rules), propagates *inherited*
records to every surviving ancestor of a modified object (§4.2), builds
the checksum payloads of §3/§4.3, obtains the acting participant's
signatures, in staging order, and appends the records to the provenance
store.

Chains are local per object (§3.2): each record's predecessor checksum is
looked up from that object's chain tail only, so independent objects
never contend.

A write happens in two steps.  *Staging* assigns sequence ids and builds
each record unsigned, chained on its object's committed tail or on a
record staged earlier and not yet committed; it must be serialized with
the engine operations it records.  *Committing* signs the staged
records, seals a Merkle-batch envelope over them, and appends them in one
store batch.  The library commits each write as soon as it is staged.
The service defers commits (:meth:`ChecksumCollector.deferring`) so that
signing runs outside its tenant's lock and one commit can carry the
writes of several requests (:mod:`repro.service.core`).
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import contextmanager, nullcontext
from typing import (
    TYPE_CHECKING,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.backend.events import AggregateEvent, OperationEvent, UpdateEvent
from repro.backend.interface import ForestStore
from repro.core import checksum as payloads
from repro.core.merkle import HashingStrategy, OperationHashContext
from repro.crypto.pki import Participant
from repro.exceptions import (
    MissingProvenanceError,
    ProvenanceError,
    TransientStoreError,
)
from repro.model.ordering import ordering_key
from repro.obs import OBS
from repro.provenance.records import ObjectState, Operation, ProvenanceRecord
from repro.provenance.store import ChainTail, ProvenanceStore

if TYPE_CHECKING:  # pragma: no cover — core stays import-decoupled from faults
    from repro.faults.plan import FaultPlan

__all__ = ["ChecksumCollector", "StagedWrite"]

#: Store failures the collector may absorb with bounded retry: our own
#: transient marker plus SQLite's operational errors (locked database,
#: momentary disk-I/O trouble).  Everything else — including a simulated
#: :class:`~repro.exceptions.CrashError` — propagates immediately.
TRANSIENT_STORE_ERRORS = (TransientStoreError, sqlite3.OperationalError)


class _Unsigned:
    """The checksum of a staged record until a commit signs it.

    Records staged after it, in the same write or a later one, carry the
    marker among their predecessor checksums.  The commit that signs the
    record sets :attr:`value`, which is what they are then signed over.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[bytes] = None


class StagedWrite:
    """One flush's records, staged and not yet committed.

    Until :meth:`ChecksumCollector.commit` signs them, each record's
    checksum is an ``_Unsigned`` marker.  ``events`` are the engine
    events the write records, which a rollback reverts
    (:meth:`repro.core.system.TamperEvidentDatabase.rollback`).
    """

    __slots__ = ("participant", "events", "staged", "records")

    def __init__(self, participant: Participant, events: Sequence[OperationEvent]):
        self.participant = participant
        self.events: Tuple[OperationEvent, ...] = tuple(events)
        #: ``(unsigned record, predecessor checksums or markers)``, in order.
        self.staged: List[Tuple[ProvenanceRecord, Tuple[object, ...]]] = []
        #: The signed (and sealed) records, once committed.
        self.records: Tuple[ProvenanceRecord, ...] = ()

    def unsigned(self) -> Tuple[ProvenanceRecord, ...]:
        return tuple(record for record, _ in self.staged)


class ChecksumCollector:
    """Generates signed provenance records from operation events.

    Args:
        store: The back-end data store (read-only here).
        provenance_store: Where records are appended.
        hashing: Compound-hash strategy (basic or economical).
        carry_values: Inline atomic values into records for auditability.
        strict: Cross-check that each object's pre-operation digest
            matches its latest recorded state, catching out-of-band
            mutations at collection time instead of verification time.
        bootstrap_missing: When an object predating provenance tracking is
            first modified, attest its current state with a synthetic
            genesis record instead of failing.
        store_retries: How many times a *transient* store failure
            (:data:`TRANSIENT_STORE_ERRORS`) is retried before giving up.
            Retries are counted on the ``store.retries`` metric.
        retry_backoff: Base sleep between retries, doubled per attempt
            (``0`` disables sleeping).
        faults: Optional :class:`~repro.faults.plan.FaultPlan` consulted
            at the ``collector.flush`` site — between signing a staged
            batch and handing it to the store — so chaos tests can crash
            the collector at its most delicate moment.

    Staging reads and writes shared state (the engine, the pending
    tails), so callers serialize it: the service stages under its
    tenant's world lock.
    """

    def __init__(
        self,
        store: ForestStore,
        provenance_store: ProvenanceStore,
        hashing: HashingStrategy,
        carry_values: bool = True,
        strict: bool = True,
        bootstrap_missing: bool = False,
        store_retries: int = 2,
        retry_backoff: float = 0.01,
        faults: Optional["FaultPlan"] = None,
    ):
        self.store = store
        self.provenance_store = provenance_store
        self.hashing = hashing
        self.carry_values = carry_values
        self.strict = strict
        self.bootstrap_missing = bootstrap_missing
        self.store_retries = max(0, int(store_retries))
        self.retry_backoff = retry_backoff
        self.faults = faults
        #: Chain tails of records staged and not yet committed, by object
        #: id, in staging order; their checksums are ``_Unsigned`` markers.
        #: Staging chains on an object's newest before the store's tail.
        #: Commits take tails off the front, rollbacks off the back.
        self._pending: Dict[str, List[ChainTail]] = {}
        #: The writes staged inside :meth:`deferring`; None commits each
        #: write as soon as it is staged.
        self._deferred: Optional[List[StagedWrite]] = None

    @contextmanager
    def deferring(self) -> Iterator[List[StagedWrite]]:
        """Stage the block's writes without committing them.

        Yields the list each write staged inside the block is appended
        to, in staging order.  Inside the block the collect methods
        return the staged records, unsigned.  The caller then commits the
        writes (:meth:`commit`) in staging order, or rolls them back
        (:meth:`repro.core.system.TamperEvidentDatabase.rollback`).
        """
        outer, self._deferred = self._deferred, []
        try:
            yield self._deferred
        finally:
            self._deferred = outer

    def begin(self) -> OperationHashContext:
        """Open the before/after hash context for one operation."""
        return self.hashing.begin(self.store)

    # ------------------------------------------------------------------
    # insert / update / delete (primitive or complex groups)
    # ------------------------------------------------------------------

    def collect_mutations(
        self,
        participant: Participant,
        events: Sequence[OperationEvent],
        ctx: OperationHashContext,
        grouped: bool = False,
        note: str = "",
    ) -> Tuple[ProvenanceRecord, ...]:
        """Record a batch of insert/update/delete events as one operation.

        With ``grouped=False`` the batch is a single primitive; with
        ``grouped=True`` it is a complex operation (§4.4).  Either way one
        record is produced per *surviving* touched object plus one
        inherited record per surviving ancestor.

        Returns the committed records, or inside :meth:`deferring` the
        staged ones, unsigned.
        """
        if any(isinstance(e, AggregateEvent) for e in events):
            raise ProvenanceError(
                "aggregate events must go through collect_aggregate"
            )
        touched: Set[str] = set()
        ancestors: Set[str] = set()
        updates_by_object: Dict[str, List[UpdateEvent]] = {}
        for event in events:
            touched.add(event.object_id)
            ancestors.update(event.ancestors)
            if isinstance(event, UpdateEvent):
                updates_by_object.setdefault(event.object_id, []).append(event)

        ctx.commit(events)

        targets = [
            object_id
            for object_id in touched | ancestors
            if object_id in self.store
        ]
        # Deterministic order: deepest first, then the global object order.
        targets.sort(key=lambda o: (-self.store.depth(o), ordering_key(o)))

        if OBS.enabled:
            OBS.registry.counter(
                "collector.operations",
                kind="complex" if grouped else "primitive",
            ).inc()

        write = StagedWrite(participant, events)
        try:
            for object_id in targets:
                self._record_mutation(
                    write,
                    object_id,
                    ctx,
                    direct=object_id in touched,
                    grouped=grouped,
                    updates=updates_by_object.get(object_id, []),
                    note=note,
                )
        except BaseException:
            self.abandon([write])
            raise
        return self._finish(write)

    def _record_mutation(
        self,
        write: StagedWrite,
        object_id: str,
        ctx: OperationHashContext,
        direct: bool,
        grouped: bool,
        updates: List[UpdateEvent],
        note: str = "",
    ) -> ProvenanceRecord:
        participant = write.participant
        before = ctx.before_digest(object_id)
        latest = self.tail(object_id)
        output = self._output_state(object_id, ctx)

        if before is None:
            # Fresh object — or a re-insertion continuing an old chain.
            if latest is None:
                record = self._build(
                    participant, object_id, 0, Operation.INSERT, (), output,
                    inherited=False, note=note,
                )
                return self._stage(write, record, ())
            record = self._build(
                participant, object_id, latest.seq_id + 1, Operation.INSERT,
                (), output, inherited=False, note=note,
            )
            return self._stage(write, record, (latest.checksum,))

        if latest is None:
            latest = ChainTail.of(self._bootstrap(write, object_id, before, ctx))
        elif self.strict and latest.output_digest != before:
            raise ProvenanceError(
                f"object {object_id!r} was modified out-of-band: its "
                "pre-operation state does not match its latest provenance record"
            )

        input_state = self._input_state(object_id, before, ctx, updates)
        operation = Operation.COMPLEX if grouped else Operation.UPDATE
        record = self._build(
            participant, object_id, latest.seq_id + 1, operation,
            (input_state,), output, inherited=not direct, note=note,
        )
        return self._stage(write, record, (latest.checksum,))

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def collect_aggregate(
        self,
        participant: Participant,
        event: AggregateEvent,
        ctx: OperationHashContext,
        note: str = "",
    ) -> ProvenanceRecord:
        """Record one aggregation (§3's non-linear checksum).

        The caller must have opened ``ctx`` and ensured the trees of all
        input roots *before* executing the aggregation.
        """
        if OBS.enabled:
            OBS.registry.counter("collector.operations", kind="aggregate").inc()
        write = StagedWrite(participant, (event,))
        try:
            self._stage_aggregate(write, event, ctx, note)
        except BaseException:
            self.abandon([write])
            raise
        return self._finish(write)[-1]

    def _stage_aggregate(
        self,
        write: StagedWrite,
        event: AggregateEvent,
        ctx: OperationHashContext,
        note: str,
    ) -> None:
        participant = write.participant
        input_states = []
        prev_checksums = []
        max_seq = -1
        pending_bootstrap = []
        for input_id in event.input_roots:
            digest = ctx.before_digest(input_id)
            if digest is None:
                raise ProvenanceError(
                    f"aggregation input {input_id!r} has no pre-operation state; "
                    "was ensure_tree called before aggregating?"
                )
            latest = self.tail(input_id)
            if latest is None:
                pending_bootstrap.append((input_id, digest))
                latest_checksum = None
            else:
                if self.strict and latest.output_digest != digest:
                    raise ProvenanceError(
                        f"aggregation input {input_id!r} was modified out-of-band"
                    )
                latest_checksum = latest.checksum
                max_seq = max(max_seq, latest.seq_id)
            input_states.append(
                (input_id, digest, ctx.before_size(input_id), latest_checksum)
            )

        for input_id, digest in pending_bootstrap:
            self._require_bootstrap(input_id)

        ctx.commit([event])

        # Bootstrap genesis records for untracked inputs (post-commit the
        # inputs are unchanged, so their digests still stand).
        resolved_inputs = []
        resolved_prevs = []
        for input_id, digest, size, latest_checksum in input_states:
            if latest_checksum is None:
                genesis = self._bootstrap_record(write, input_id, digest, size)
                latest_checksum = genesis.checksum
                max_seq = max(max_seq, genesis.seq_id)
            resolved_inputs.append(
                ObjectState(object_id=input_id, digest=digest, node_count=size)
            )
            resolved_prevs.append(latest_checksum)
        prev_checksums = tuple(resolved_prevs)

        output = self._output_state(event.object_id, ctx)
        record = self._build(
            participant, event.object_id, max_seq + 1, Operation.AGGREGATE,
            tuple(resolved_inputs), output, inherited=False, note=note,
        )
        self._stage(write, record, prev_checksums)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _output_state(self, object_id: str, ctx: OperationHashContext) -> ObjectState:
        digest = ctx.after_digest(object_id)
        size = ctx.after_size(object_id)
        if self.carry_values and self.store.is_leaf(object_id):
            return ObjectState(
                object_id=object_id,
                digest=digest,
                value=self.store.value(object_id),
                has_value=True,
                node_count=size,
            )
        return ObjectState(object_id=object_id, digest=digest, node_count=size)

    def _input_state(
        self,
        object_id: str,
        before: bytes,
        ctx: OperationHashContext,
        updates: List[UpdateEvent],
    ) -> ObjectState:
        size = ctx.before_size(object_id)
        if self.carry_values and updates and size == 1:
            # The object's value at operation start is the first update's
            # old value (later updates in the group started from newer states).
            return ObjectState(
                object_id=object_id,
                digest=before,
                value=updates[0].old_value,
                has_value=True,
                node_count=size,
            )
        return ObjectState(object_id=object_id, digest=before, node_count=size)

    def _build(
        self,
        participant: Participant,
        object_id: str,
        seq_id: int,
        operation: Operation,
        inputs: Tuple[ObjectState, ...],
        output: ObjectState,
        inherited: bool,
        note: str = "",
    ) -> ProvenanceRecord:
        return ProvenanceRecord(
            object_id=object_id,
            seq_id=seq_id,
            participant_id=participant.participant_id,
            operation=operation,
            inputs=inputs,
            output=output,
            checksum=b"",
            inherited=inherited,
            scheme=participant.scheme.scheme_name,
            hash_algorithm=self.hashing.algorithm,
            note=note,
        )

    def _stage(
        self, write: StagedWrite, record: ProvenanceRecord,
        prev_checksums: Tuple[object, ...],
    ) -> ProvenanceRecord:
        """Stage ``record`` unsigned in ``write``; its commit signs it.

        Until then its checksum is an ``_Unsigned`` marker, and its tail
        is the pending tail its object's next record chains on.
        """
        staged = record.with_checksum(_Unsigned())
        write.staged.append((staged, prev_checksums))
        self._pending.setdefault(staged.object_id, []).append(ChainTail.of(staged))
        return staged

    def tail(self, object_id: str) -> Optional[ChainTail]:
        """An object's chain tail, staged records included."""
        pending = self._pending.get(object_id)
        if pending:
            return pending[-1]
        return self.provenance_store.tail(object_id)

    def _finish(self, write: StagedWrite) -> Tuple[ProvenanceRecord, ...]:
        """Commit a freshly staged write, or hand it to the deferring caller."""
        if self._deferred is not None:
            self._deferred.append(write)
            return write.unsigned()
        try:
            return self.commit([write])
        except BaseException:
            self.abandon([write])
            raise

    def abandon(self, writes: Sequence[StagedWrite]) -> None:
        """Forget the pending tails of writes that will never commit.

        The writes' engine effects are the caller's to revert.  Staging
        afterwards chains on what is left: the pending tails of earlier
        writes still to commit, or the store's tails.
        """
        for write in writes:
            self._settle(write.unsigned())

    def _settle(self, unsigned: Sequence[ProvenanceRecord]) -> None:
        """Drop these records' pending tails (stored, or never to be)."""
        for record in unsigned:
            tails = self._pending.get(record.object_id)
            if tails is None:
                continue
            for at, tail in enumerate(tails):
                if tail.checksum is record.checksum:
                    del tails[at]
                    break
            if not tails:
                del self._pending[record.object_id]

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def commit(
        self,
        writes: Sequence[StagedWrite],
        lock: Optional[ContextManager] = None,
    ) -> Tuple[ProvenanceRecord, ...]:
        """Sign, seal and store staged writes as one batch, in order.

        The writes must be every staged write that precedes the last of
        them and is not yet committed, all of one participant.  Their
        records are signed in staging order, sealed under one Merkle root
        for a batch scheme, and appended in one store batch; each write's
        :attr:`StagedWrite.records` is set and all of them are returned.

        ``lock`` (a context manager; none by default) is held only while
        the batch is appended, so signing and sealing run without it.
        On failure nothing is stored and the writes stay pending: the
        caller rolls them back.
        """
        participant = writes[0].participant
        lock = nullcontext() if lock is None else lock
        staged = [item for write in writes for item in write.staged]
        records = self._sign(participant, staged)
        # The flush span nests under whatever is open on this thread
        # (under tracing, a served request's http.request span); its
        # event joins the request's correlation scope below.
        with obs.phase("collector.flush", staged=len(records)):
            records = self._seal(participant, records)
            self._observe_flush(records)
            log = OBS.events
            unsigned = [record for record, _ in staged]
            if log is None:
                self._store(records, unsigned, lock)
            else:
                # One correlation id per flush: the collector.flush
                # event and the store.batch (and any verify.report
                # consuming the same operation) emitted inside this
                # scope share it, threading collector -> store ->
                # verifier through the event stream.  When a caller
                # already opened a correlation scope — the HTTP front
                # end opens one per request — the flush *joins* it
                # instead of minting a fresh id, so one request's
                # events read as one causal chain: http.request ->
                # collector.flush -> store.batch.
                from repro.obs.events import current_correlation

                with log.correlation(current_correlation()):
                    log.emit(
                        "collector.flush",
                        records=len(records),
                        objects=len({record.object_id for record in records}),
                        inherited=sum(1 for r in records if r.inherited),
                    )
                    self._store(records, unsigned, lock)
        at = 0
        for write in writes:
            write.records = records[at:at + len(write.staged)]
            at += len(write.staged)
        return records

    def _sign(
        self, participant: Participant,
        staged: Sequence[Tuple[ProvenanceRecord, Tuple[object, ...]]],
    ) -> Tuple[ProvenanceRecord, ...]:
        """Sign staged records, in staging order.

        A record that chains on one staged before it (an update after its
        bootstrap genesis, an aggregate over bootstrapped inputs, a later
        request's update of an object an earlier one wrote) is signed
        over that record's checksum, which this loop has set by then.
        """
        signed: List[ProvenanceRecord] = []
        for record, prevs in staged:
            resolved = tuple(
                prev.value if isinstance(prev, _Unsigned) else prev for prev in prevs
            )
            if None in resolved:
                raise ProvenanceError(
                    f"record {record.key} chains on a record no commit signed"
                )
            checksum = participant.sign(payloads.record_payload(record, resolved))
            record.checksum.value = checksum
            signed.append(record.with_checksum(checksum))
        return tuple(signed)

    @staticmethod
    def _seal(
        participant: Participant, records: Tuple[ProvenanceRecord, ...]
    ) -> Tuple[ProvenanceRecord, ...]:
        """Close the batch-signature envelope over the signed records.

        Per-record schemes are a no-op.  A batch scheme (duck-typed on
        ``seal_batch``) seals the records' checksums, their leaf digests,
        in staging order, so its proofs zip positionally onto the records.
        """
        seal = getattr(participant.scheme, "seal_batch", None)
        if seal is None or not records:
            return records
        proofs = seal([record.checksum for record in records])
        return tuple(
            record.with_proof(proof) for record, proof in zip(records, proofs)
        )

    @staticmethod
    def _observe_flush(records: Tuple[ProvenanceRecord, ...]) -> None:
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("collector.records.flushed").inc(len(records))
            reg.counter("collector.records.inherited").inc(
                sum(1 for record in records if record.inherited)
            )
            # Fan-out: records produced by one flush (§4.2's inherited
            # propagation makes this > 1 for nested objects).
            reg.histogram("collector.fanout").observe(len(records))

    def _store(
        self,
        records: Tuple[ProvenanceRecord, ...],
        unsigned: List[ProvenanceRecord],
        lock: ContextManager,
    ) -> None:
        if self.faults is not None:
            # The most delicate crash point: records are signed but not
            # yet stored.  A crash here loses the whole batch — which is
            # safe (all-or-nothing), and exactly what the chaos suite
            # exercises.
            self.faults.maybe_raise("collector.flush")
        # One batch, one store transaction: a complex operation (§4.4)
        # commits atomically, so no half-flushed batch can ever read as an
        # R4 attack.
        self._store_with_retry(records, unsigned, lock)

    def _store_with_retry(
        self,
        records: Tuple[ProvenanceRecord, ...],
        unsigned: Sequence[ProvenanceRecord],
        lock: ContextManager,
    ) -> None:
        """``append_many(records)`` with bounded retry on transient failures.

        Each attempt holds ``lock`` and, once the batch lands, settles the
        records' pending tails in the same hold; the backoff between
        attempts sleeps without it.  Safe to retry: ``append_many`` is
        all-or-nothing (the sharded store takes back the shards a failed
        batch reached, and the SQLite store drops its tail cache on
        failure, so a retry re-reads true chain tails).
        """
        for attempt in range(self.store_retries + 1):
            try:
                with lock:
                    self.provenance_store.append_many(records)
                    self._settle(unsigned)
                return
            except TRANSIENT_STORE_ERRORS:
                if attempt >= self.store_retries:
                    raise
                if OBS.enabled:
                    OBS.registry.counter("store.retries").inc()
                if self.retry_backoff:
                    time.sleep(self.retry_backoff * (2 ** attempt))

    def _require_bootstrap(self, object_id: str) -> None:
        if not self.bootstrap_missing:
            raise MissingProvenanceError(
                f"object {object_id!r} has no provenance records; enable "
                "bootstrap_missing to attest pre-existing data"
            )

    def _bootstrap(
        self,
        write: StagedWrite,
        object_id: str,
        before_digest: bytes,
        ctx: OperationHashContext,
    ) -> ProvenanceRecord:
        """Attest an untracked object's current state with a genesis record."""
        self._require_bootstrap(object_id)
        return self._bootstrap_record(
            write, object_id, before_digest, ctx.before_size(object_id)
        )

    def _bootstrap_record(
        self, write: StagedWrite, object_id: str, digest: bytes, size: int
    ) -> ProvenanceRecord:
        output = ObjectState(object_id=object_id, digest=digest, node_count=size)
        record = self._build(
            write.participant, object_id, 0, Operation.INSERT, (), output,
            inherited=False,
        )
        return self._stage(write, record, ())

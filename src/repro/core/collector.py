"""Checksummed provenance collection.

:class:`ChecksumCollector` turns engine events into signed provenance
records: it assigns sequence ids (§2.1's rules), propagates *inherited*
records to every surviving ancestor of a modified object (§4.2), builds
the checksum payloads of §3/§4.3, obtains the acting participant's
signature, and appends the records to the provenance store.

Chains are local per object (§3.2): each record's predecessor checksum is
looked up from that object's latest record only, so independent objects
never contend.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

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
from repro.provenance.store import ProvenanceStore

if TYPE_CHECKING:  # pragma: no cover — core stays import-decoupled from faults
    from repro.faults.plan import FaultPlan

__all__ = ["ChecksumCollector"]

#: Store failures the collector may absorb with bounded retry: our own
#: transient marker plus SQLite's operational errors (locked database,
#: momentary disk-I/O trouble).  Everything else — including a simulated
#: :class:`~repro.exceptions.CrashError` — propagates immediately.
TRANSIENT_STORE_ERRORS = (TransientStoreError, sqlite3.OperationalError)


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
        # Two-phase staging: records are signed into the staging area and
        # appended to the store only after the whole batch succeeded, so a
        # failure mid-batch persists nothing.  Thread-local, so concurrent
        # sessions (repro.core.concurrent) never interleave their batches.
        self._staging = threading.local()

    def __deepcopy__(self, memo):
        # thread-locals cannot be deep-copied; a copy starts with empty
        # staging (staging never outlives one collect call anyway).
        import copy as _copy

        clone = self.__class__.__new__(self.__class__)
        memo[id(self)] = clone
        for key, value in self.__dict__.items():
            if key == "_staging":
                setattr(clone, key, threading.local())
            else:
                setattr(clone, key, _copy.deepcopy(value, memo))
        return clone

    @property
    def _staged(self) -> List[ProvenanceRecord]:
        if not hasattr(self._staging, "records"):
            self._staging.records = []
        return self._staging.records

    @property
    def _staged_latest(self) -> Dict[str, ProvenanceRecord]:
        if not hasattr(self._staging, "latest"):
            self._staging.latest = {}
        return self._staging.latest

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

        Returns the appended records.
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

        self._begin_staging(participant)
        try:
            for object_id in targets:
                self._record_mutation(
                    participant,
                    object_id,
                    ctx,
                    direct=object_id in touched,
                    grouped=grouped,
                    updates=updates_by_object.get(object_id, []),
                    note=note,
                )
            return self._flush_staging()
        except BaseException:
            self._abort_staging()
            raise

    def _record_mutation(
        self,
        participant: Participant,
        object_id: str,
        ctx: OperationHashContext,
        direct: bool,
        grouped: bool,
        updates: List[UpdateEvent],
        note: str = "",
    ) -> ProvenanceRecord:
        before = ctx.before_digest(object_id)
        latest = self._latest(object_id)
        output = self._output_state(object_id, ctx)

        if before is None:
            # Fresh object — or a re-insertion continuing an old chain.
            if latest is None:
                record = self._build(
                    participant, object_id, 0, Operation.INSERT, (), output,
                    inherited=False, note=note,
                )
                return self._sign_and_store(participant, record, ())
            record = self._build(
                participant, object_id, latest.seq_id + 1, Operation.INSERT,
                (), output, inherited=False, note=note,
            )
            return self._sign_and_store(participant, record, (latest.checksum,))

        if latest is None:
            latest = self._bootstrap(participant, object_id, before, ctx)
        elif self.strict and latest.output.digest != before:
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
        return self._sign_and_store(participant, record, (latest.checksum,))

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
        self._begin_staging(participant)
        try:
            return self._collect_aggregate(participant, event, ctx, note)
        except BaseException:
            self._abort_staging()
            raise

    def _collect_aggregate(
        self,
        participant: Participant,
        event: AggregateEvent,
        ctx: OperationHashContext,
        note: str,
    ) -> ProvenanceRecord:
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
            latest = self._latest(input_id)
            if latest is None:
                pending_bootstrap.append((input_id, digest))
                latest_checksum = None
            else:
                if self.strict and latest.output.digest != digest:
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
                genesis = self._bootstrap_record(participant, input_id, digest, size)
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
        self._sign_and_store(participant, record, prev_checksums)
        return self._flush_staging()[-1]

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

    def _sign_and_store(
        self,
        participant: Participant,
        record: ProvenanceRecord,
        prev_checksums: Tuple[bytes, ...],
    ) -> ProvenanceRecord:
        payload = payloads.record_payload(record, prev_checksums)
        signed = record.with_checksum(participant.sign(payload))
        self._staged.append(signed)
        self._staged_latest[signed.object_id] = signed
        return signed

    def _latest(self, object_id: str):
        """Latest record for an object, staged records included."""
        staged = self._staged_latest.get(object_id)
        if staged is not None:
            return staged
        return self.provenance_store.latest(object_id)

    def _begin_staging(self, participant: Participant) -> None:
        self._staged.clear()
        self._staged_latest.clear()
        # Remembered so flush/abort can seal or drop the participant's
        # pending batch-signature leaves alongside the staged records.
        self._staging.participant = participant

    def _abort_staging(self) -> None:
        self._staged.clear()
        self._staged_latest.clear()
        participant = getattr(self._staging, "participant", None)
        abort = getattr(getattr(participant, "scheme", None), "abort_batch", None)
        if abort is not None:
            abort()

    def _seal_staged(self) -> Tuple[ProvenanceRecord, ...]:
        """Close the batch-signature envelope over the staged records.

        Per-record schemes are a no-op.  A batch scheme (duck-typed on
        ``seal_batch``) signed every staged record's payload into a
        pending leaf in staging order, so its proofs zip positionally
        onto the staged records.
        """
        records = tuple(self._staged)
        participant = getattr(self._staging, "participant", None)
        seal = getattr(getattr(participant, "scheme", None), "seal_batch", None)
        if seal is None or not records:
            return records
        proofs = seal()
        if len(proofs) != len(records):
            raise ProvenanceError(
                f"batch seal produced {len(proofs)} proofs for "
                f"{len(records)} staged records"
            )
        return tuple(
            record.with_proof(proof) for record, proof in zip(records, proofs)
        )

    def _flush_staging(self) -> Tuple[ProvenanceRecord, ...]:
        # The flush span nests under whatever is open on this thread —
        # for a served request, the handler's http.request span, itself
        # parented on the client's traceparent context — so the
        # collector leg shows up in the distributed trace tree.
        with obs.phase("collector.flush", staged=len(self._staged)):
            records = self._seal_staged()
            if OBS.enabled:
                reg = OBS.registry
                reg.counter("collector.records.flushed").inc(len(records))
                reg.counter("collector.records.inherited").inc(
                    sum(1 for record in records if record.inherited)
                )
                # Fan-out: records produced by one operation (§4.2's
                # inherited propagation makes this > 1 for nested objects).
                reg.histogram("collector.fanout").observe(len(records))
            log = OBS.events
            if log is None:
                return self._flush_to_store(records)
            # One correlation id per flush: the collector.flush event and
            # the store.batch (and any verify.report consuming the same
            # operation) emitted inside this scope share it, threading
            # collector -> store -> verifier through the event stream.
            # When a caller already opened a correlation scope — the HTTP
            # front end opens one per request — the flush *joins* it
            # instead of minting a fresh id, so one request's events read
            # as one causal chain: http.request -> collector.flush ->
            # store.batch.
            from repro.obs.events import current_correlation

            with log.correlation(current_correlation()):
                log.emit(
                    "collector.flush",
                    records=len(records),
                    objects=len({record.object_id for record in records}),
                    inherited=sum(1 for r in records if r.inherited),
                )
                return self._flush_to_store(records)

    def _flush_to_store(
        self, records: Tuple[ProvenanceRecord, ...]
    ) -> Tuple[ProvenanceRecord, ...]:
        if self.faults is not None:
            # The most delicate crash point: records are signed but not
            # yet stored.  A crash here loses the whole batch — which is
            # safe (all-or-nothing), and exactly what the chaos suite
            # exercises.
            self.faults.maybe_raise("collector.flush")
        append_many = getattr(self.provenance_store, "append_many", None)
        if append_many is not None:
            # One batch, one store transaction: a complex operation (§4.4)
            # commits atomically, so no half-flushed batch can ever read
            # as an R4 attack.
            self._store_with_retry(append_many, records)
        else:  # duck-typed stores predating the batch API
            for record in records:
                self._store_with_retry(self.provenance_store.append, record)
        self._staged.clear()
        self._staged_latest.clear()
        return records

    def _store_with_retry(self, write, payload) -> None:
        """One store write with bounded retry on transient failures.

        Safe to retry: ``append_many`` is all-or-nothing (and the SQLite
        store drops its tail cache on failure, so a retry re-reads true
        chain tails), and a failed single ``append`` writes nothing.
        """
        for attempt in range(self.store_retries + 1):
            try:
                write(payload)
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
        participant: Participant,
        object_id: str,
        before_digest: bytes,
        ctx: OperationHashContext,
    ) -> ProvenanceRecord:
        """Attest an untracked object's current state with a genesis record."""
        self._require_bootstrap(object_id)
        return self._bootstrap_record(
            participant, object_id, before_digest, ctx.before_size(object_id)
        )

    def _bootstrap_record(
        self, participant: Participant, object_id: str, digest: bytes, size: int
    ) -> ProvenanceRecord:
        output = ObjectState(object_id=object_id, digest=digest, node_count=size)
        record = self._build(
            participant, object_id, 0, Operation.INSERT, (), output, inherited=False
        )
        return self._sign_and_store(participant, record, ())

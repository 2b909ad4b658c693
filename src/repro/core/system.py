"""The public façade: a database with tamper-evident provenance.

:class:`TamperEvidentDatabase` wires together the back-end store, the
database engine, the compound-hash strategy, and the checksum collector.
All mutations go through a :class:`ParticipantSession`, which signs the
resulting provenance records with that participant's key:

    >>> db = TamperEvidentDatabase()
    >>> alice = db.enroll("alice")            # doctest: +SKIP
    >>> s = db.session(alice)                 # doctest: +SKIP
    >>> s.insert("report", "draft")           # doctest: +SKIP
    >>> s.update("report", "final")           # doctest: +SKIP
    >>> db.ship("report")                     # -> Shipment for a recipient

Sessions satisfy the :class:`~repro.model.relational.PrimitiveExecutor`
protocol, so :class:`~repro.model.relational.RelationalView` can run a
whole relational workload with full fine-grained provenance.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.backend.engine import DatabaseEngine
from repro.backend.events import OperationEvent
from repro.backend.interface import ForestStore
from repro.backend.memory import InMemoryStore
from repro.core.collector import ChecksumCollector, StagedWrite
from repro.core.merkle import (
    BasicHashing,
    EconomicalHashing,
    HashingStrategy,
    OperationHashContext,
)
from repro.crypto.pki import CertificateAuthority, KeyStore, Participant
from repro.exceptions import ProvenanceError, TransactionError
from repro.model.values import Value
from repro.obs import OBS
from repro.provenance.dag import ProvenanceDAG
from repro.provenance.records import ProvenanceRecord
from repro.provenance.store import InMemoryProvenanceStore, ProvenanceStore

__all__ = ["TamperEvidentDatabase", "ParticipantSession"]


def _make_hashing(hashing, algorithm: str) -> HashingStrategy:
    if isinstance(hashing, HashingStrategy):
        return hashing
    if hashing in (None, "economical"):
        return EconomicalHashing(algorithm)
    if hashing == "basic":
        return BasicHashing(algorithm)
    raise ProvenanceError(f"unknown hashing strategy {hashing!r}")


class TamperEvidentDatabase:
    """A forest database whose provenance is checksum-protected.

    Args:
        store: Back-end data store (defaults to in-memory).
        provenance_store: Provenance database (defaults to in-memory).
        hashing: ``"economical"`` (default), ``"basic"``, or a
            :class:`HashingStrategy` instance.
        hash_algorithm: Digest algorithm for all hashing (default SHA-1,
            as in the paper's evaluation).
        ca: Certificate authority; one is created when omitted.
        carry_values: Inline atomic values into records.
        strict: Fail fast on out-of-band data mutations.
        bootstrap_missing: Attest untracked pre-existing objects instead
            of failing when they are first modified.
        key_bits: Key size for participants enrolled via :meth:`enroll`.
        signature_scheme: Scheme for participants enrolled via
            :meth:`enroll` — ``"rsa-pkcs1v15"`` (default; aliases
            ``"rsa"``, ``"rsa-per-record"``) signs every record, or
            ``"merkle-batch"`` signs one Merkle root per flush and
            attaches per-record inclusion proofs.
        rng: Random source for key generation (seed for reproducibility).
        seed: Convenience alternative to ``rng``: builds
            ``random.Random(seed)``.  The seed is recorded on the
            instance (:attr:`seed`) and published as the ``db.rng.seed``
            gauge when observability is on, so ``repro stats`` output can
            be tied back to the exact key-generation randomness.
    """

    def __init__(
        self,
        store: Optional[ForestStore] = None,
        provenance_store: Optional[ProvenanceStore] = None,
        hashing=None,
        hash_algorithm: str = "sha1",
        ca: Optional[CertificateAuthority] = None,
        carry_values: bool = True,
        strict: bool = True,
        bootstrap_missing: bool = False,
        key_bits: int = 1024,
        signature_scheme: str = "rsa-pkcs1v15",
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ):
        if rng is None and seed is not None:
            rng = random.Random(seed)
        self.seed = seed
        if OBS.enabled and seed is not None:
            OBS.registry.gauge("db.rng.seed").set(seed)
        self.store: ForestStore = store if store is not None else InMemoryStore()
        self.provenance_store: ProvenanceStore = (
            provenance_store if provenance_store is not None else InMemoryProvenanceStore()
        )
        self.hashing = _make_hashing(hashing, hash_algorithm)
        self.hash_algorithm = hash_algorithm
        self.ca = ca if ca is not None else CertificateAuthority(rng=rng)
        self.engine = DatabaseEngine(self.store)
        self.collector = ChecksumCollector(
            store=self.store,
            provenance_store=self.provenance_store,
            hashing=self.hashing,
            carry_values=carry_values,
            strict=strict,
            bootstrap_missing=bootstrap_missing,
        )
        self._key_bits = key_bits
        from repro.crypto.pki import resolve_scheme_name

        self.signature_scheme = resolve_scheme_name(signature_scheme)
        self._rng = rng

    # ------------------------------------------------------------------
    # participants
    # ------------------------------------------------------------------

    def enroll(self, participant_id: str) -> Participant:
        """Enroll a new participant: generate keys, obtain a certificate."""
        return Participant.enroll(
            participant_id,
            self.ca,
            key_bits=self._key_bits,
            rng=self._rng,
            scheme=self.signature_scheme,
        )

    def session(self, participant: Participant) -> "ParticipantSession":
        """Open a mutation session acting as ``participant``."""
        return ParticipantSession(self, participant)

    def keystore(self) -> KeyStore:
        """Trust store with every certificate this database's CA issued.

        What a data recipient would hold after exchanging certificates.
        """
        store = KeyStore.trusting(self.ca)
        store.add_certificates(self.ca.issued_certificates())
        return store

    # ------------------------------------------------------------------
    # provenance reads
    # ------------------------------------------------------------------

    def provenance_of(self, object_id: str) -> Tuple[ProvenanceRecord, ...]:
        """The object's own chain (actual + inherited records), by seq."""
        return self.provenance_store.records_for(object_id)

    def provenance_object(self, object_id: str) -> Tuple[ProvenanceRecord, ...]:
        """The full provenance object of ``object_id`` (Definition 1).

        The object's chain plus — through aggregation records — the chains
        of every contributing object, in topological order.  This is what
        accompanies the data object to a recipient.  Only the object's
        closure is read (:meth:`ProvenanceDAG.of`), so the cost follows
        the size of this history, not of the store; the tuple and its
        order equal the whole-store DAG's ``ancestry(object_id)``.
        """
        return self.dag(object_id).ancestry(object_id)

    def dag(self, object_id: Optional[str] = None) -> ProvenanceDAG:
        """DAG over ``object_id``'s closure, or over every record if None.

        Per-object queries (ancestry, lineage, DOT of one object) answer
        the same from either; whole-store views need ``object_id=None``.
        """
        if object_id is None:
            return ProvenanceDAG(self.provenance_store.all_records())
        return ProvenanceDAG.of(self.provenance_store, object_id)

    def ship(self, object_id: str):
        """Package ``object_id`` (data + provenance + certificates).

        Returns a :class:`~repro.core.shipment.Shipment` that a data
        recipient can verify offline with only the CA's public key.
        """
        from repro.core.shipment import Shipment

        return Shipment.build(self, object_id)

    def verify(self, object_id: str, workers: Optional[int] = None):
        """Verify an object in place, as a recipient of it would.

        ``workers`` > 1 verifies per-object chains in parallel (the
        report stays byte-identical to a serial run).  Returns a
        :class:`~repro.core.verifier.VerificationReport`.
        """
        return self.ship(object_id).verify(self.keystore(), workers=workers)

    # ------------------------------------------------------------------
    # deferred commits
    # ------------------------------------------------------------------

    def rollback(self, writes: Sequence[StagedWrite]) -> None:
        """Undo staged writes that will never commit, newest first.

        ``writes`` (in staging order) must include every uncommitted write
        staged after the first of them.  Each write's engine events are
        reverted and the hash-cache state they refreshed evicted, and the
        collector forgets their pending chain tails, so the next write
        chains on the earlier writes still to commit, or on committed
        state.
        """
        self.collector.abandon(writes)
        for write in reversed(writes):
            self._revert(write.events)

    def _revert(self, events: Iterable[OperationEvent]) -> None:
        """Revert engine events and evict the hash-cache state the
        (already committed) hash context refreshed for them."""
        events = list(events)
        self.engine.undo_events(events)
        self.hashing.forget(self.store, events)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"TamperEvidentDatabase(objects={len(self.store)}, "
            f"records={len(self.provenance_store)}, "
            f"hashing={self.hashing.name})"
        )


class _ComplexOp:
    """Per-session state of an open complex operation."""

    def __init__(self, ctx: OperationHashContext):
        self.ctx = ctx
        self.events: List[OperationEvent] = []
        self.note: str = ""


class ParticipantSession:
    """Executes primitives as one participant, collecting signed provenance.

    Satisfies :class:`~repro.model.relational.PrimitiveExecutor`.
    """

    def __init__(self, db: TamperEvidentDatabase, participant: Participant):
        self.db = db
        self.participant = participant
        self._complex: Optional[_ComplexOp] = None

    @property
    def store(self) -> ForestStore:
        """Read access to the back-end store."""
        return self.db.store

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def insert(
        self,
        object_id: str,
        value: Value = None,
        parent: Optional[str] = None,
        note: str = "",
    ) -> Tuple[ProvenanceRecord, ...]:
        """``Insert(A, val, <parent>)`` with provenance.

        Returns the records produced (the insert itself plus inherited
        ancestor records) — empty inside a complex operation, where
        records are produced at commit.  ``note`` attaches a signed
        white-box description of the operation.
        """

        def run(ctx: OperationHashContext) -> OperationEvent:
            if parent is not None and parent in self.store:
                ctx.ensure_tree(self.store.root_of(parent))
            return self.db.engine.insert(object_id, value, parent)

        return self._execute(run, note)

    def update(
        self, object_id: str, value: Value, note: str = ""
    ) -> Tuple[ProvenanceRecord, ...]:
        """``Update(A, val')`` with provenance."""

        def run(ctx: OperationHashContext) -> OperationEvent:
            if object_id in self.store:
                ctx.ensure_tree(self.store.root_of(object_id))
            return self.db.engine.update(object_id, value)

        return self._execute(run, note)

    def delete(self, object_id: str, note: str = "") -> Tuple[ProvenanceRecord, ...]:
        """``Delete(A)`` with (inherited-only) provenance."""

        def run(ctx: OperationHashContext) -> OperationEvent:
            if object_id in self.store:
                ctx.ensure_tree(self.store.root_of(object_id))
            return self.db.engine.delete(object_id)

        return self._execute(run, note)

    def aggregate(
        self,
        input_roots: Sequence[str],
        output_id: str,
        builder: Optional[Callable] = None,
        note: str = "",
    ) -> ProvenanceRecord:
        """``Aggregate({A1..An}, B)`` with a non-linear provenance record.

        Raises:
            TransactionError: Inside a complex operation (§4.4 groups only
                insert/update/delete).
        """
        if self._complex is not None:
            raise TransactionError(
                "aggregate is not allowed inside a complex operation"
            )
        ctx = self.db.collector.begin()
        for root in input_roots:
            if root in self.store:
                ctx.ensure_tree(self.store.root_of(root))
        event = self.db.engine.aggregate(input_roots, output_id, builder)
        try:
            return self.db.collector.collect_aggregate(
                self.participant, event, ctx, note=note
            )
        except BaseException:
            self._undo([event])
            raise

    # ------------------------------------------------------------------
    # complex operations (§4.4)
    # ------------------------------------------------------------------

    @contextmanager
    def complex_operation(self, note: str = "") -> Iterator[None]:
        """Group primitives into one complex operation.

        One record per surviving touched object plus inherited ancestor
        records is produced at block exit.  Records are retrievable via
        :attr:`last_records`.  Nested blocks join the outermost operation
        (so :class:`RelationalView`'s row helpers compose into larger
        complex operations).  On an exception the buffered events are
        abandoned (store changes are not rolled back — the engine is not
        a transactional recovery system).
        """
        if self._complex is not None:  # nested: join the outer operation
            yield
            return
        self._complex = _ComplexOp(self.db.collector.begin())
        self._complex.note = note
        try:
            yield
        except BaseException:
            failed = self._complex
            self._complex = None
            self._undo(failed.events)
            raise
        op = self._complex
        self._complex = None
        if op.events:
            try:
                self.last_records = self.db.collector.collect_mutations(
                    self.participant, op.events, op.ctx, grouped=True, note=op.note
                )
            except BaseException:
                self._undo(op.events)
                raise
        else:
            self.last_records = ()

    #: Records produced by the most recent complex operation.
    last_records: Tuple[ProvenanceRecord, ...] = ()

    # ------------------------------------------------------------------

    def _execute(self, run, note: str = "") -> Tuple[ProvenanceRecord, ...]:
        if self._complex is not None:
            event = run(self._complex.ctx)
            self._complex.events.append(event)
            if note:
                self._complex.note = (
                    f"{self._complex.note}; {note}" if self._complex.note else note
                )
            return ()
        ctx = self.db.collector.begin()
        event = run(ctx)
        try:
            return self.db.collector.collect_mutations(
                self.participant, [event], ctx, grouped=False, note=note
            )
        except BaseException:
            self._undo([event])
            raise

    def _undo(self, events) -> None:
        """Compensate a failed collection (see :meth:`TamperEvidentDatabase._revert`)."""
        self.db._revert(events)

    def __repr__(self) -> str:
        return f"ParticipantSession({self.participant.participant_id!r})"

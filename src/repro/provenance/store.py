"""The provenance database.

The paper's experimental setup keeps provenance in its own relational
database, one row per record: ``(SeqID, Participant, Oid, Checksum
binary(128))`` (§5.1).  Both implementations here store full
:class:`~repro.provenance.records.ProvenanceRecord` payloads but account
space in the paper's units via :meth:`ProvenanceStore.space_bytes`.

Chains are *local* per object (§3.2): the store indexes records by output
object id, and tracks each object's latest record so checksum generation
can link ``C_i`` to ``C_{i-1}`` in O(1).
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro import obs
from repro.exceptions import (
    BackendError,
    ProvenanceError,
    SequenceError,
    VerificationError,
)
from repro.obs import OBS
from repro.provenance.records import ProvenanceRecord

__all__ = [
    "ProvenanceStore",
    "BatchJournalEntry",
    "ChainTail",
    "Checkpoint",
    "InMemoryProvenanceStore",
    "SQLiteProvenanceStore",
]


@runtime_checkable
class ProvenanceStore(Protocol):
    """Interface of the provenance database."""

    def append(self, record: ProvenanceRecord) -> None:
        """Store a new record (keys must not repeat, seq must not regress)."""
        ...

    def append_many(self, records: Iterable[ProvenanceRecord]) -> None:
        """Atomically store a batch of records.

        Equivalent to appending each record in order, except all-or-
        nothing: a sequence violation anywhere in the batch raises
        :class:`SequenceError` and leaves the store untouched.
        """
        ...

    def records_for(self, object_id: str) -> Tuple[ProvenanceRecord, ...]:
        """All records whose output is ``object_id``, ordered by seq."""
        ...

    def latest(self, object_id: str) -> Optional[ProvenanceRecord]:
        """The most recent record for ``object_id``, or None."""
        ...

    def tail(self, object_id: str) -> Optional["ChainTail"]:
        """The chain tail of ``object_id`` (what staging its next record
        needs, without reading the record), or None."""
        ...

    def get(self, object_id: str, seq_id: int) -> Optional[ProvenanceRecord]:
        """The record with key ``(object_id, seq_id)``, or None."""
        ...

    def all_records(self) -> Iterator[ProvenanceRecord]:
        """All records, grouped by object, ordered by seq."""
        ...

    def object_ids(self) -> Tuple[str, ...]:
        """All output object ids with at least one record, sorted."""
        ...

    def __len__(self) -> int: ...

    def space_bytes(self) -> int:
        """Total size of the paper-style checksum rows (Fig 9/11 metric)."""
        ...

    def purge_object(self, object_id: str) -> int:
        """Remove an object's whole chain; returns records removed.

        Only :mod:`repro.provenance.compaction` should call this — it
        checks that no live provenance still references the chain.
        """
        ...


class ChainTail(NamedTuple):
    """What the write path needs of an object's latest record.

    An append is validated against ``seq_id``; the collector stages the
    next record from all three fields: the next seq id, the predecessor
    checksum it chains on, and the output digest that the strict
    out-of-band check compares with the object's pre-operation state.
    Deliberately *not* a full record, so the hot write path deserializes
    no JSON payload.
    """

    seq_id: int
    checksum: bytes
    output_digest: bytes

    @classmethod
    def of(cls, record: ProvenanceRecord) -> "ChainTail":
        return cls(record.seq_id, record.checksum, record.output.digest)


@dataclass(frozen=True)
class Checkpoint:
    """An attested chain position: the chain walk's state after a prefix.

    Because every checksum signs its predecessor, the walk over a chain
    (``repro.core.verifier.Verifier._check_chain``) carries exactly one
    thing from record to record: the last record's ``seq_id``,
    ``checksum``, output digest and author.  A checkpoint is that state
    after the first ``index`` records of ``object_id``'s chain (records,
    not seq ids: a chain's record list is dense).  Seeding the walk with
    it checks the rest of the chain exactly as a full walk would.

    One type serves every place a prefix is attested: the monitor's
    per-object verified watermark (persisted by the stores below), a
    recipient's last verified delivery (``Verifier.verify(...,
    resume=checkpoint)``), and each entry of the witness's signed log
    (:mod:`repro.trust.witness`).  A checkpoint is only as trustworthy as
    whoever vouches for it: the monitor re-derives it from the live
    record before resuming, recipients keep their own, and witness
    entries carry the witness's signature.
    """

    object_id: str
    index: int
    seq_id: int
    checksum: bytes
    output_digest: bytes
    participant_id: str

    @classmethod
    def after(cls, chain: Sequence[ProvenanceRecord], index: int) -> "Checkpoint":
        """The checkpoint after ``chain[:index]`` (``chain`` ordered by seq)."""
        record = chain[index - 1]
        return cls(
            record.object_id, index, record.seq_id, record.checksum,
            record.output.digest, record.participant_id,
        )

    @classmethod
    def from_records(
        cls, object_id: str, records: Iterable[ProvenanceRecord]
    ) -> "Checkpoint":
        """The checkpoint after every record of ``object_id`` in ``records``.

        Callers checkpoint what they verified: this only summarises.

        Raises:
            VerificationError: If ``records`` has none for the object.
        """
        chain = sorted(
            (r for r in records if r.object_id == object_id),
            key=lambda r: r.seq_id,
        )
        if not chain:
            raise VerificationError(f"no records for {object_id!r} to checkpoint")
        return cls.after(chain, len(chain))

    def to_dict(self) -> Dict[str, object]:
        return {
            "object_id": self.object_id,
            "index": self.index,
            "seq_id": self.seq_id,
            "checksum": self.checksum.hex(),
            "output_digest": self.output_digest.hex(),
            "participant_id": self.participant_id,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Checkpoint":
        """Inverse of :meth:`to_dict`.

        Raises:
            VerificationError: On malformed input.
        """
        try:
            return cls(
                object_id=str(data["object_id"]),
                index=int(data["index"]),
                seq_id=int(data["seq_id"]),
                checksum=bytes.fromhex(data["checksum"]),
                output_digest=bytes.fromhex(data["output_digest"]),
                participant_id=str(data["participant_id"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise VerificationError(f"malformed checkpoint: {exc}") from exc


@dataclass(frozen=True)
class BatchJournalEntry:
    """One ``append_many`` batch as recorded in the store's batch journal.

    The journal is the store's crash-recovery surface: every batch write
    first declares its record keys, and the declaration is only marked
    ``committed`` together with the rows themselves.  A crash mid-batch
    (a torn WAL under ``synchronous = OFF``, or an injected fault) leaves
    an *uncommitted* entry behind, which
    :class:`repro.faults.recovery.RecoveryScanner` uses to find and
    truncate the torn suffix.  ``keys`` are ``(object_id, seq_id)`` pairs
    in batch order.
    """

    batch_id: int
    keys: Tuple[Tuple[str, int], ...]
    committed: bool


def _check_append(record: ProvenanceRecord, tail: Optional[ChainTail]) -> None:
    """Shared append validation: per-object seq ids strictly increase."""
    if tail is not None and record.seq_id <= tail[0]:
        raise SequenceError(
            f"record for {record.object_id!r} has seq {record.seq_id} "
            f"<= latest {tail[0]}"
        )


def _check_batch(
    records: List[ProvenanceRecord],
    tail_of,
) -> Dict[str, ChainTail]:
    """Validate a whole batch against ``tail_of`` plus in-batch staging.

    ``tail_of(object_id)`` returns the store's current chain tail.
    Returns the chain tails the batch leaves behind, or raises
    :class:`SequenceError` (before anything was written).
    """
    staged: Dict[str, ChainTail] = {}
    for record in records:
        tail = staged.get(record.object_id)
        if tail is None:
            tail = tail_of(record.object_id)
        _check_append(record, tail)
        staged[record.object_id] = ChainTail.of(record)
    return staged


class InMemoryProvenanceStore:
    """Dictionary-backed provenance store."""

    def __init__(self) -> None:
        self._chains: Dict[str, List[ProvenanceRecord]] = {}
        self._count = 0
        self._space = 0
        self._journal: Dict[int, BatchJournalEntry] = {}
        self._next_batch_id = 1
        self._watermarks: Dict[str, Checkpoint] = {}

    def append(self, record: ProvenanceRecord) -> None:
        with obs.phase("store.io"):
            chain = self._chains.setdefault(record.object_id, [])
            _check_append(record, self._tail(record.object_id))
            chain.append(record)
            self._count += 1
            self._space += record.storage_bytes()
            if OBS.enabled:
                OBS.registry.counter("store.append.records", store="memory").inc()

    def append_many(self, records: Iterable[ProvenanceRecord]) -> Optional[int]:
        """Store ``records`` atomically; returns the batch's journal id."""
        batch = list(records)
        if not batch:
            return None
        with obs.phase("store.batch", store="memory", records=len(batch)), \
                obs.phase("store.io"):
            _check_batch(batch, self._tail)  # validate-then-apply: atomic
            for record in batch:
                self._chains.setdefault(record.object_id, []).append(record)
                self._count += 1
                self._space += record.storage_bytes()
            with obs.phase("journal"):
                entry = self._journal_entry(batch, committed=True)
            if OBS.enabled:
                reg = OBS.registry
                reg.counter("store.append.batches", store="memory").inc()
                reg.counter("store.append.records", store="memory").inc(len(batch))
                reg.histogram("store.batch.size", store="memory").observe(len(batch))
            log = OBS.events
            if log is not None:
                log.emit(
                    "store.batch",
                    store="memory",
                    batch_id=entry.batch_id,
                    records=len(batch),
                    objects=len({record.object_id for record in batch}),
                )
        return entry.batch_id

    # ------------------------------------------------------------------
    # batch journal / crash-recovery surface (see BatchJournalEntry)
    # ------------------------------------------------------------------

    def _journal_entry(
        self, batch: List[ProvenanceRecord], committed: bool
    ) -> BatchJournalEntry:
        entry = BatchJournalEntry(
            batch_id=self._next_batch_id,
            keys=tuple(record.key for record in batch),
            committed=committed,
        )
        self._next_batch_id += 1
        self._journal[entry.batch_id] = entry
        return entry

    def journal(self) -> Tuple[BatchJournalEntry, ...]:
        """All batch journal entries, oldest first."""
        return tuple(self._journal[b] for b in sorted(self._journal))

    def begin_torn_batch(self, records: Iterable[ProvenanceRecord], keep: int) -> int:
        """Simulate a crash mid-``append_many``: commit only a prefix.

        Writes the journal declaration (uncommitted) plus the first
        ``keep`` records, exactly the on-disk state a power cut leaves
        behind, and returns the torn batch id.  Only the fault-injection
        layer calls this.
        """
        batch = list(records)
        _check_batch(batch, self._tail)
        entry = self._journal_entry(batch, committed=False)
        for record in batch[: max(0, keep)]:
            self._chains.setdefault(record.object_id, []).append(record)
            self._count += 1
            self._space += record.storage_bytes()
        return entry.batch_id

    def discard(self, object_id: str, seq_id: int) -> bool:
        """Remove one record if present (recovery truncation only)."""
        chain = self._chains.get(object_id)
        if not chain:
            return False
        for i, record in enumerate(chain):
            if record.seq_id == seq_id:
                del chain[i]
                self._count -= 1
                self._space -= record.storage_bytes()
                if not chain:
                    del self._chains[object_id]
                return True
        return False

    def resolve_torn(self, batch_id: int) -> None:
        """Drop a journal entry once recovery has truncated its records."""
        self._journal.pop(batch_id, None)

    def retract_batch(self, batch_id: int) -> None:
        """Remove a committed batch's records and journal entry.

        Only :class:`~repro.provenance.registry.ShardedProvenanceStore`
        calls this, to take back the shards a batch already reached when
        a later shard failed.  The batch must be the newest write of
        every chain it touched.
        """
        entry = self._journal.pop(batch_id)
        for object_id, seq_id in reversed(entry.keys):
            self.discard(object_id, seq_id)

    # ------------------------------------------------------------------
    # verified watermarks (the monitor's per-object Checkpoint)
    # ------------------------------------------------------------------

    def set_watermark(self, watermark: Checkpoint) -> None:
        """Persist one object's verified watermark (upsert)."""
        self._watermarks[watermark.object_id] = watermark

    def get_watermark(self, object_id: str) -> Optional[Checkpoint]:
        """The object's verified watermark, or None."""
        return self._watermarks.get(object_id)

    def watermarks(self) -> Tuple[Checkpoint, ...]:
        """All watermarks, sorted by object id."""
        return tuple(self._watermarks[k] for k in sorted(self._watermarks))

    def clear_watermark(self, object_id: str) -> bool:
        """Drop one object's watermark; True if one existed."""
        return self._watermarks.pop(object_id, None) is not None

    def _tail(self, object_id: str) -> Optional[ChainTail]:
        chain = self._chains.get(object_id)
        if not chain:
            return None
        return ChainTail.of(chain[-1])

    def tail(self, object_id: str) -> Optional[ChainTail]:
        """The object's chain tail, or None if it has no records."""
        return self._tail(object_id)

    def records_for(self, object_id: str) -> Tuple[ProvenanceRecord, ...]:
        return tuple(self._chains.get(object_id, ()))

    def latest(self, object_id: str) -> Optional[ProvenanceRecord]:
        chain = self._chains.get(object_id)
        return chain[-1] if chain else None

    def get(self, object_id: str, seq_id: int) -> Optional[ProvenanceRecord]:
        for record in self._chains.get(object_id, ()):
            if record.seq_id == seq_id:
                return record
        return None

    def all_records(self) -> Iterator[ProvenanceRecord]:
        for object_id in sorted(self._chains):
            yield from self._chains[object_id]

    def object_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._chains))

    def __len__(self) -> int:
        return self._count

    def space_bytes(self) -> int:
        return self._space

    def purge_object(self, object_id: str) -> int:
        chain = self._chains.pop(object_id, [])
        self._count -= len(chain)
        self._space -= sum(record.storage_bytes() for record in chain)
        self._watermarks.pop(object_id, None)
        return len(chain)

    def __repr__(self) -> str:
        return f"InMemoryProvenanceStore(records={self._count})"


class SQLiteProvenanceStore:
    """SQLite-backed provenance store.

    Schema mirrors the paper's row layout plus the serialized record
    payload (a JSON blob) so full records round-trip:

        provenance(object_id, seq_id, participant, checksum, payload)
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS provenance (
        object_id   TEXT NOT NULL,
        seq_id      INTEGER NOT NULL,
        participant TEXT NOT NULL,
        checksum    BLOB NOT NULL,
        payload     TEXT NOT NULL,
        PRIMARY KEY (object_id, seq_id)
    );
    -- Batch journal: every append_many declares its record keys, and the
    -- declaration commits in the same transaction as the rows.  With
    -- synchronous = OFF a crash can tear that transaction, leaving an
    -- uncommitted declaration (or rows without one) behind; the recovery
    -- scanner truncates such torn suffixes (see BatchJournalEntry).
    CREATE TABLE IF NOT EXISTS batch_journal (
        batch_id  INTEGER PRIMARY KEY AUTOINCREMENT,
        keys      TEXT NOT NULL,
        committed INTEGER NOT NULL
    );
    -- Verified watermarks: the monitor's per-object Checkpoint.  Kept in
    -- the store so a restarted monitor resumes where it left off;
    -- recovery truncation rewinds affected rows (see
    -- repro.faults.recovery).
    CREATE TABLE IF NOT EXISTS checkpoints (
        object_id     TEXT PRIMARY KEY,
        idx           INTEGER NOT NULL,
        seq_id        INTEGER NOT NULL,
        checksum      BLOB NOT NULL,
        output_digest BLOB NOT NULL,
        participant   TEXT NOT NULL
    );
    """

    def __init__(self, path: str = ":memory:"):
        try:
            # check_same_thread=False: the store itself is not re-entrant,
            # but its callers serialize writes (the collector is the only
            # writer in library use; the service layer holds a per-tenant
            # lock around every operation) — and the HTTP front end
            # dispatches requests from a thread pool, so the connection
            # must be usable off its creating thread.
            self._conn = sqlite3.connect(path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise BackendError(f"cannot open provenance database {path!r}: {exc}") from exc
        self._conn.executescript(self._SCHEMA)
        # WAL keeps readers off the writer's back and makes commits an
        # append to the log; synchronous=OFF skips fsync — acceptable for
        # a provenance *cache* whose integrity is carried by the signed
        # checksums, not by the journal (see EXPERIMENTS.md).
        self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute("PRAGMA synchronous = OFF")
        # Chain-tail cache: object_id -> ChainTail of the newest record, or
        # None for objects known to have no records.  Appends validate
        # against it and the collector stages from it, instead of
        # SELECTing + JSON-decoding the full latest payload.  Assumes this
        # store is the object's only writer (same single-collector model
        # as the paper's §5 setup).
        self._tail_cache: Dict[str, Optional[ChainTail]] = {}

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "SQLiteProvenanceStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    _INSERT = (
        "INSERT INTO provenance(object_id, seq_id, participant, checksum, payload)"
        " VALUES (?, ?, ?, ?, ?)"
    )

    @staticmethod
    def _row_of(record: ProvenanceRecord) -> Tuple[str, int, str, bytes, str]:
        return (
            record.object_id,
            record.seq_id,
            record.participant_id,
            record.checksum,
            json.dumps(record.to_dict(), separators=(",", ":")),
        )

    def _tail(self, object_id: str) -> Optional[ChainTail]:
        """The latest record's :class:`ChainTail`, cached.

        A miss reads the newest row once; after that, appends keep the
        cache current without reading anything.
        """
        try:
            tail = self._tail_cache[object_id]
        except KeyError:
            if OBS.enabled:
                OBS.registry.counter("store.tail_cache.misses").inc()
            row = self._conn.execute(
                "SELECT seq_id, checksum, payload FROM provenance"
                " WHERE object_id = ? ORDER BY seq_id DESC LIMIT 1",
                (object_id,),
            ).fetchone()
            tail = None
            if row is not None:
                digest = self._load((row[2],)).output.digest
                tail = ChainTail(row[0], bytes(row[1]), digest)
            self._tail_cache[object_id] = tail
            return tail
        if OBS.enabled:
            OBS.registry.counter("store.tail_cache.hits").inc()
        return tail

    def tail(self, object_id: str) -> Optional[ChainTail]:
        """The object's chain tail, or None if it has no records."""
        return self._tail(object_id)

    def append(self, record: ProvenanceRecord) -> None:
        _check_append(record, self._tail(record.object_id))
        try:
            with obs.phase("store.txn"), obs.phase("store.io"), self._conn:
                self._conn.execute(self._INSERT, self._row_of(record))
        except sqlite3.IntegrityError as exc:
            raise SequenceError(
                f"duplicate record key ({record.object_id!r}, {record.seq_id})"
            ) from exc
        self._tail_cache[record.object_id] = ChainTail.of(record)
        if OBS.enabled:
            OBS.registry.counter("store.append.records", store="sqlite").inc()

    @staticmethod
    def _keys_json(batch: List[ProvenanceRecord]) -> str:
        return json.dumps(
            [[record.object_id, record.seq_id] for record in batch],
            separators=(",", ":"),
        )

    def _append_many_txn(self, batch: List[ProvenanceRecord]) -> Optional[int]:
        """The batch transaction: journal declaration + record inserts."""
        with self._conn:  # one transaction: all-or-nothing
            with obs.phase("journal"):
                cursor = self._conn.execute(
                    "INSERT INTO batch_journal(keys, committed) VALUES (?, 1)",
                    (self._keys_json(batch),),
                )
            batch_id = cursor.lastrowid
            self._conn.executemany(
                self._INSERT, (self._row_of(record) for record in batch)
            )
        return batch_id

    def append_many(self, records: Iterable[ProvenanceRecord]) -> Optional[int]:
        """Store ``records`` in one transaction; returns the journal id."""
        batch = list(records)
        if not batch:
            return None
        with obs.phase("store.batch", store="sqlite", records=len(batch)):
            staged = _check_batch(batch, self._tail)
            batch_id: Optional[int] = None
            try:
                with obs.phase("store.txn"), obs.phase("store.io"):
                    batch_id = self._append_many_txn(batch)
            except sqlite3.IntegrityError as exc:
                raise SequenceError(f"duplicate record key in batch: {exc}") from exc
            except BaseException:
                # The transaction rolled back (or — disk-I/O error at commit
                # time — may have *partially* survived a torn write).  Either
                # way the cached tails for the batch's objects can no longer
                # be trusted: a retried batch must re-read them from disk, or
                # it could chain off a checksum that was never committed.
                for object_id in {record.object_id for record in batch}:
                    self._tail_cache.pop(object_id, None)
                raise
            self._tail_cache.update(staged)
            if OBS.enabled:
                reg = OBS.registry
                reg.counter("store.append.batches", store="sqlite").inc()
                reg.counter("store.append.records", store="sqlite").inc(len(batch))
                reg.histogram("store.batch.size", store="sqlite").observe(len(batch))
            log = OBS.events
            if log is not None:
                log.emit(
                    "store.batch",
                    store="sqlite",
                    batch_id=batch_id,
                    records=len(batch),
                    objects=len({record.object_id for record in batch}),
                )
        return batch_id

    def records_for(self, object_id: str) -> Tuple[ProvenanceRecord, ...]:
        rows = self._conn.execute(
            "SELECT payload FROM provenance WHERE object_id = ? ORDER BY seq_id",
            (object_id,),
        ).fetchall()
        return tuple(self._load(row) for row in rows)

    def latest(self, object_id: str) -> Optional[ProvenanceRecord]:
        row = self._conn.execute(
            "SELECT payload FROM provenance WHERE object_id = ?"
            " ORDER BY seq_id DESC LIMIT 1",
            (object_id,),
        ).fetchone()
        return self._load(row) if row else None

    def get(self, object_id: str, seq_id: int) -> Optional[ProvenanceRecord]:
        row = self._conn.execute(
            "SELECT payload FROM provenance WHERE object_id = ? AND seq_id = ?",
            (object_id, seq_id),
        ).fetchone()
        return self._load(row) if row else None

    def all_records(self) -> Iterator[ProvenanceRecord]:
        rows = self._conn.execute(
            "SELECT payload FROM provenance ORDER BY object_id, seq_id"
        )
        for row in rows:
            yield self._load(row)

    def object_ids(self) -> Tuple[str, ...]:
        rows = self._conn.execute(
            "SELECT DISTINCT object_id FROM provenance ORDER BY object_id"
        ).fetchall()
        return tuple(row[0] for row in rows)

    def __len__(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM provenance").fetchone()
        return count

    def space_bytes(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(SUM(12 + LENGTH(checksum)), 0) FROM provenance"
        ).fetchone()
        return row[0]

    def purge_object(self, object_id: str) -> int:
        cursor = self._conn.execute(
            "DELETE FROM provenance WHERE object_id = ?", (object_id,)
        )
        self._conn.execute(
            "DELETE FROM checkpoints WHERE object_id = ?", (object_id,)
        )
        self._conn.commit()
        self._tail_cache.pop(object_id, None)
        return cursor.rowcount

    # ------------------------------------------------------------------
    # batch journal / crash-recovery surface (see BatchJournalEntry)
    # ------------------------------------------------------------------

    def journal(self) -> Tuple[BatchJournalEntry, ...]:
        """All batch journal entries, oldest first."""
        rows = self._conn.execute(
            "SELECT batch_id, keys, committed FROM batch_journal ORDER BY batch_id"
        ).fetchall()
        return tuple(
            BatchJournalEntry(
                batch_id=row[0],
                keys=tuple((object_id, seq_id) for object_id, seq_id in json.loads(row[1])),
                committed=bool(row[2]),
            )
            for row in rows
        )

    def begin_torn_batch(self, records: Iterable[ProvenanceRecord], keep: int) -> int:
        """Simulate a crash mid-``append_many``: commit only a prefix.

        Reproduces the on-disk state a torn ``synchronous = OFF`` commit
        leaves behind — the journal declaration without its committed
        flag, plus the first ``keep`` rows — and returns the torn batch
        id.  Only the fault-injection layer calls this.
        """
        batch = list(records)
        _check_batch(batch, self._tail)
        cursor = self._conn.execute(
            "INSERT INTO batch_journal(keys, committed) VALUES (?, 0)",
            (self._keys_json(batch),),
        )
        batch_id = cursor.lastrowid
        for record in batch[: max(0, keep)]:
            self._conn.execute(self._INSERT, self._row_of(record))
        self._conn.commit()
        # The torn rows are the newest on disk; leave the cache pointing
        # at them, as a crashed-then-restarted writer would see.  Recovery
        # truncation (discard) re-invalidates per object.
        for record in batch[: max(0, keep)]:
            self._tail_cache[record.object_id] = ChainTail.of(record)
        return batch_id

    def discard(self, object_id: str, seq_id: int) -> bool:
        """Remove one record if present (recovery truncation only)."""
        cursor = self._conn.execute(
            "DELETE FROM provenance WHERE object_id = ? AND seq_id = ?",
            (object_id, seq_id),
        )
        self._conn.commit()
        # Whatever tail we cached for this object may be the row just
        # deleted; drop it so the next append re-reads the real tail.
        self._tail_cache.pop(object_id, None)
        return cursor.rowcount > 0

    def resolve_torn(self, batch_id: int) -> None:
        """Drop a journal entry once recovery has truncated its records."""
        self._conn.execute(
            "DELETE FROM batch_journal WHERE batch_id = ?", (batch_id,)
        )
        self._conn.commit()

    def retract_batch(self, batch_id: int) -> None:
        """Remove a committed batch's rows and journal entry in one
        transaction (see :meth:`InMemoryProvenanceStore.retract_batch`)."""
        (keys,) = self._conn.execute(
            "SELECT keys FROM batch_journal WHERE batch_id = ?", (batch_id,)
        ).fetchone()
        keys = json.loads(keys)
        try:
            with self._conn:
                self._conn.executemany(
                    "DELETE FROM provenance WHERE object_id = ? AND seq_id = ?",
                    keys,
                )
                self._conn.execute(
                    "DELETE FROM batch_journal WHERE batch_id = ?", (batch_id,)
                )
        finally:
            for object_id, _ in keys:
                self._tail_cache.pop(object_id, None)

    # ------------------------------------------------------------------
    # verified watermarks (the monitor's per-object Checkpoint)
    # ------------------------------------------------------------------

    _CHECKPOINT_COLUMNS = (
        "object_id, idx, seq_id, checksum, output_digest, participant"
    )

    def set_watermark(self, watermark: Checkpoint) -> None:
        """Persist one object's verified watermark (upsert)."""
        self._conn.execute(
            f"INSERT OR REPLACE INTO checkpoints({self._CHECKPOINT_COLUMNS})"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (watermark.object_id, watermark.index, watermark.seq_id,
             watermark.checksum, watermark.output_digest,
             watermark.participant_id),
        )
        self._conn.commit()

    def get_watermark(self, object_id: str) -> Optional[Checkpoint]:
        """The object's verified watermark, or None."""
        found = self._checkpoints(" WHERE object_id = ?", (object_id,))
        return found[0] if found else None

    def watermarks(self) -> Tuple[Checkpoint, ...]:
        """All watermarks, sorted by object id."""
        return self._checkpoints(" ORDER BY object_id", ())

    def _checkpoints(self, clause: str, params) -> Tuple[Checkpoint, ...]:
        rows = self._conn.execute(
            f"SELECT {self._CHECKPOINT_COLUMNS} FROM checkpoints{clause}", params
        ).fetchall()
        return tuple(
            Checkpoint(oid, idx, seq, bytes(checksum), bytes(digest), author)
            for oid, idx, seq, checksum, digest, author in rows
        )

    def clear_watermark(self, object_id: str) -> bool:
        """Drop one object's watermark; True if one existed."""
        cursor = self._conn.execute(
            "DELETE FROM checkpoints WHERE object_id = ?", (object_id,)
        )
        self._conn.commit()
        return cursor.rowcount > 0

    @staticmethod
    def _load(row) -> ProvenanceRecord:
        try:
            return ProvenanceRecord.from_dict(json.loads(row[0]))
        except (json.JSONDecodeError, ProvenanceError) as exc:
            raise ProvenanceError(f"corrupt provenance payload: {exc}") from exc

    def __repr__(self) -> str:
        return f"SQLiteProvenanceStore(records={len(self)})"

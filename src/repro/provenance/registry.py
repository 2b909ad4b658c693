"""Per-tenant provenance store registry and shard routing.

The service layer (:mod:`repro.service`) hosts many mutually-distrusting
tenants against one process.  Each tenant owns a :class:`ShardedProvenanceStore`
— ``N`` underlying stores (in-memory or SQLite files) with records routed
by a *stable* hash of the object id — so independent objects land on
independent SQLite files and never contend on one writer connection.

Sharding is sound for this data model because chains are **local per
object** (paper §3.2): a record's predecessor lives in the same chain,
hence the same shard, so per-shard atomicity of ``append_many`` preserves
per-chain atomicity.  A batch spanning shards commits shard-by-shard.  If
a shard raises, the shards the batch already reached are taken back, so
a failed ``append_many`` leaves nothing of the batch behind and a retry
is a clean first write.  A crash (a ``BaseException``) takes nothing
back: the per-shard batch journal covers it exactly as for a single
store (a tear in any shard leaves an uncommitted journal declaration that
:class:`~repro.faults.recovery.RecoveryScanner` truncates).

Routing uses ``zlib.crc32`` — deterministic across processes and Python
versions, unlike the salted builtin ``hash`` — so a store directory
re-opened by a restarted service routes every object to the shard that
already holds its chain.
"""

from __future__ import annotations

import heapq
import os
import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import ProvenanceError
from repro.provenance.records import ProvenanceRecord
from repro.provenance.store import (
    BatchJournalEntry,
    ChainTail,
    Checkpoint,
    InMemoryProvenanceStore,
    SQLiteProvenanceStore,
    _check_batch,
)

__all__ = [
    "shard_index",
    "ShardedProvenanceStore",
    "open_tenant_store",
    "tenant_store_paths",
]


def shard_index(object_id: str, shards: int) -> int:
    """Stable shard routing: crc32 of the object id modulo shard count."""
    if shards <= 1:
        return 0
    return zlib.crc32(object_id.encode("utf-8")) % shards


class ShardedProvenanceStore:
    """A provenance store fanned out over ``N`` inner stores by object id.

    Implements the full :class:`~repro.provenance.store.ProvenanceStore`
    protocol plus the batch-journal and verified-watermark surfaces, so
    the monitor, the recovery scanner, and the fault-injection wrapper
    all compose with it unchanged.

    Batch-journal ids are *encoded*: ``inner_id * shards + shard`` — the
    sharded store's journal is the union of its shards' journals and the
    encoding lets :meth:`resolve_torn` route back without a lookup table.
    """

    def __init__(self, shards: Iterable):
        self.shards: Tuple = tuple(shards)
        if not self.shards:
            raise ProvenanceError("a sharded store needs at least one shard")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _shard_for(self, object_id: str):
        return self.shards[shard_index(object_id, len(self.shards))]

    def _encode_batch_id(self, shard_pos: int, inner_id: int) -> int:
        return inner_id * len(self.shards) + shard_pos

    def _decode_batch_id(self, batch_id: int) -> Tuple[int, int]:
        return batch_id % len(self.shards), batch_id // len(self.shards)

    def _by_shard(
        self, batch: List[ProvenanceRecord]
    ) -> Dict[int, List[ProvenanceRecord]]:
        """Group a batch by shard position, preserving batch order."""
        groups: Dict[int, List[ProvenanceRecord]] = {}
        for record in batch:
            pos = shard_index(record.object_id, len(self.shards))
            groups.setdefault(pos, []).append(record)
        return groups

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def append(self, record: ProvenanceRecord) -> None:
        self._shard_for(record.object_id).append(record)

    def append_many(self, records: Iterable[ProvenanceRecord]) -> None:
        batch = list(records)
        if not batch:
            return
        # Validate the whole batch up front so a sequence violation in a
        # late shard cannot leave an earlier shard already committed.
        _check_batch(batch, self._tail)
        committed: List[Tuple[int, int]] = []
        try:
            for pos, group in sorted(self._by_shard(batch).items()):
                committed.append((pos, self.shards[pos].append_many(group)))
        except Exception:
            # All-or-nothing across shards: take back what the earlier
            # shards committed, newest first.
            for pos, batch_id in reversed(committed):
                self.shards[pos].retract_batch(batch_id)
            raise

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def records_for(self, object_id: str) -> Tuple[ProvenanceRecord, ...]:
        return self._shard_for(object_id).records_for(object_id)

    def latest(self, object_id: str) -> Optional[ProvenanceRecord]:
        return self._shard_for(object_id).latest(object_id)

    def tail(self, object_id: str) -> Optional[ChainTail]:
        return self._shard_for(object_id).tail(object_id)

    def get(self, object_id: str, seq_id: int) -> Optional[ProvenanceRecord]:
        return self._shard_for(object_id).get(object_id, seq_id)

    def all_records(self) -> Iterator[ProvenanceRecord]:
        # Each shard yields grouped-by-object, seq-ordered records; a
        # chain never spans shards, so a key merge on (object, seq)
        # reproduces the single-store global order lazily.
        return heapq.merge(
            *(shard.all_records() for shard in self.shards),
            key=lambda record: (record.object_id, record.seq_id),
        )

    def object_ids(self) -> Tuple[str, ...]:
        ids: List[str] = []
        for shard in self.shards:
            ids.extend(shard.object_ids())
        return tuple(sorted(ids))

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def space_bytes(self) -> int:
        return sum(shard.space_bytes() for shard in self.shards)

    def max_epoch(self, participant_id: str) -> Optional[int]:
        epochs = [shard.max_epoch(participant_id) for shard in self.shards]
        return max((epoch for epoch in epochs if epoch is not None), default=None)

    def purge_object(self, object_id: str) -> int:
        return self._shard_for(object_id).purge_object(object_id)

    def _tail(self, object_id: str) -> Optional[ChainTail]:
        return self._shard_for(object_id)._tail(object_id)

    # ------------------------------------------------------------------
    # batch journal / crash-recovery surface
    # ------------------------------------------------------------------

    def journal(self) -> Tuple[BatchJournalEntry, ...]:
        entries: List[BatchJournalEntry] = []
        for pos, shard in enumerate(self.shards):
            for entry in shard.journal():
                entries.append(
                    BatchJournalEntry(
                        batch_id=self._encode_batch_id(pos, entry.batch_id),
                        keys=entry.keys,
                        committed=entry.committed,
                    )
                )
        entries.sort(key=lambda entry: entry.batch_id)
        return tuple(entries)

    def begin_torn_batch(
        self, records: Iterable[ProvenanceRecord], keep: int
    ) -> Tuple[int, ...]:
        """Tear a batch across shards: each shard keeps its records that
        fall inside the global ``keep`` prefix, as one torn sub-batch.

        Returns the encoded batch id of *every* torn sub-batch (one per
        affected shard; empty for an empty batch) — resolving only one of
        them would leave the others torn, and recovery walks
        :meth:`journal` rather than trusting any single id.
        """
        batch = list(records)
        _check_batch(batch, self._tail)
        keep = max(0, min(len(batch), keep))
        kept_keys = {record.key for record in batch[:keep]}
        torn_ids: List[int] = []
        for pos, group in sorted(self._by_shard(batch).items()):
            shard_keep = sum(1 for record in group if record.key in kept_keys)
            inner = self.shards[pos].begin_torn_batch(group, shard_keep)
            torn_ids.append(self._encode_batch_id(pos, inner))
        return tuple(torn_ids)

    def discard(self, object_id: str, seq_id: int) -> bool:
        return self._shard_for(object_id).discard(object_id, seq_id)

    def resolve_torn(self, batch_id: int) -> None:
        pos, inner = self._decode_batch_id(batch_id)
        self.shards[pos].resolve_torn(inner)

    # ------------------------------------------------------------------
    # verified watermarks (monitor state)
    # ------------------------------------------------------------------

    def set_watermark(self, watermark: Checkpoint) -> None:
        self._shard_for(watermark.object_id).set_watermark(watermark)

    def get_watermark(self, object_id: str) -> Optional[Checkpoint]:
        return self._shard_for(object_id).get_watermark(object_id)

    def watermarks(self) -> Tuple[Checkpoint, ...]:
        marks: List[Checkpoint] = []
        for shard in self.shards:
            marks.extend(shard.watermarks())
        marks.sort(key=lambda wm: wm.object_id)
        return tuple(marks)

    def clear_watermark(self, object_id: str) -> bool:
        return self._shard_for(object_id).clear_watermark(object_id)

    # ------------------------------------------------------------------

    def close(self) -> None:
        for shard in self.shards:
            close = getattr(shard, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ShardedProvenanceStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedProvenanceStore(shards={len(self.shards)}, "
            f"records={len(self)})"
        )


def tenant_store_paths(root: str, tenant_id: str, shards: int) -> List[str]:
    """On-disk layout of one tenant's shard files: ``root/<tenant>/shard-K.sqlite``.

    Tenant ids become directory names; anything outside a conservative
    safe set is percent-escaped so a hostile tenant id cannot traverse
    out of the store root.  ``.`` is deliberately *not* in the safe set:
    leaving it unescaped would pass ``.`` and ``..`` through verbatim and
    resolve shard files into (or above) the root itself.  ``%`` is always
    escaped, so the mapping is injective — two distinct tenant ids can
    never collide on one directory.
    """
    safe = "".join(
        ch if ch.isalnum() or ch in "-_" else f"%{ord(ch):02x}"
        for ch in tenant_id
    )
    tenant_dir = os.path.join(root, safe)
    real_root = os.path.realpath(root)
    real_dir = os.path.realpath(tenant_dir)
    if real_dir == real_root or not real_dir.startswith(real_root + os.sep):
        raise ProvenanceError(
            f"tenant id {tenant_id!r} escapes the store root {root!r}"
        )
    return [
        os.path.join(tenant_dir, f"shard-{k}.sqlite") for k in range(shards)
    ]


def open_tenant_store(
    root: Optional[str], tenant_id: str, shards: int = 4
) -> ShardedProvenanceStore:
    """Open (creating as needed) one tenant's sharded provenance store.

    ``root=None`` builds in-memory shards — the default for tests and
    seeded reference worlds; a path builds one SQLite file per shard
    under ``root/<tenant>/``.
    """
    shards = max(1, int(shards))
    if root is None:
        return ShardedProvenanceStore(
            InMemoryProvenanceStore() for _ in range(shards)
        )
    paths = tenant_store_paths(root, tenant_id, shards)
    os.makedirs(os.path.dirname(paths[0]), exist_ok=True)
    return ShardedProvenanceStore(SQLiteProvenanceStore(path) for path in paths)

"""Provenance compaction for deleted objects.

"After an object has been deleted, its provenance object is no longer
relevant.  This is not essential, but does enable some optimizations"
(§2.1, footnote 3).  This module implements that optimisation safely:

An object's chain may be purged when

1. the object no longer exists in the back-end database, **and**
2. no *live* object's provenance closure reaches into the chain — an
   aggregation record consuming the deleted object keeps its chain alive
   (the aggregate's checksum signs the chain's checksums; purging would
   make the survivor unverifiable).

:func:`compactable_objects` computes the safe set; :func:`compact`
purges it and reports the space reclaimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

from repro.backend.interface import ForestStore
from repro.provenance.dag import ProvenanceDAG
from repro.provenance.store import ProvenanceStore

__all__ = ["CompactionStats", "compactable_objects", "compact"]


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of one compaction pass."""

    objects_purged: Tuple[str, ...]
    records_removed: int
    bytes_reclaimed: int

    def __str__(self) -> str:
        return (
            f"purged {len(self.objects_purged)} chains "
            f"({self.records_removed} records, {self.bytes_reclaimed} bytes)"
        )


def compactable_objects(
    provenance_store: ProvenanceStore, data_store: ForestStore
) -> Tuple[str, ...]:
    """Chains that are safe to purge, sorted.

    Live objects and everything any live object's ancestry touches are
    retained; the rest — chains of deleted objects no survivor derives
    from — are compactable.
    """
    tracked: Set[str] = set(provenance_store.object_ids())
    live = {object_id for object_id in tracked if object_id in data_store}
    if tracked == live:
        return ()

    needed: Set[str] = set()
    for object_id in live:
        ancestry = ProvenanceDAG.of(provenance_store, object_id).ancestry(object_id)
        needed.update(record.object_id for record in ancestry)
    return tuple(sorted(tracked - live - needed))


def compact(
    provenance_store: ProvenanceStore, data_store: ForestStore
) -> CompactionStats:
    """Purge every compactable chain; returns what was reclaimed."""
    victims = compactable_objects(provenance_store, data_store)
    space_before = provenance_store.space_bytes()
    records_removed = 0
    for object_id in victims:
        records_removed += provenance_store.purge_object(object_id)
    return CompactionStats(
        objects_purged=victims,
        records_removed=records_removed,
        bytes_reclaimed=space_before - provenance_store.space_bytes(),
    )

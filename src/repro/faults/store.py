"""A fault-injecting :class:`ProvenanceStore` wrapper.

:class:`FaultyStore` implements the full store protocol by delegation and
consults a :class:`~repro.faults.plan.FaultPlan` at three sites:

``store.append``        ERROR / CRASH / LATENCY before the write
``store.append_many``   the above, plus TORN: commit a prefix of the
                        batch through the inner store's crash surface
                        (:meth:`begin_torn_batch`), then crash — the
                        exact state a power cut mid-commit leaves behind
``store.read``          ERROR / LATENCY on ``tail``/``latest``/
                        ``records_for``/``get``/``all_records`` (``tail``
                        is the chain-tail read the collector stages from)

Faults fire *before* the inner operation (except TORN, which replaces
it), so an ERROR leaves the inner store untouched and a retry can
succeed — which is precisely what the collector's bounded retry and the
chaos suite assert.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Optional, Tuple

from repro.exceptions import CrashError, ProvenanceError
from repro.faults.plan import FaultKind, FaultPlan, _raise_for
from repro.provenance.records import ProvenanceRecord
from repro.provenance.store import BatchJournalEntry, ChainTail, Checkpoint

__all__ = ["FaultyStore", "SITE_KINDS"]

#: Which fault kinds are meaningful at which store sites (plan validation).
SITE_KINDS = {
    "store.append": (FaultKind.ERROR, FaultKind.CRASH, FaultKind.LATENCY),
    "store.append_many": (
        FaultKind.ERROR,
        FaultKind.CRASH,
        FaultKind.LATENCY,
        FaultKind.TORN,
    ),
    "store.read": (FaultKind.ERROR, FaultKind.LATENCY),
    "collector.flush": (FaultKind.ERROR, FaultKind.CRASH, FaultKind.LATENCY),
    "verify.worker": (FaultKind.CRASH, FaultKind.KILL, FaultKind.LATENCY),
    # The service layer's request boundary (repro.service): a transient
    # ERROR here surfaces to the HTTP client as 503 + Retry-After, and
    # LATENCY models a slow backend without failing the request.
    "service.request": (FaultKind.ERROR, FaultKind.LATENCY),
}


class FaultyStore:
    """Wraps any provenance store, injecting faults from a plan.

    With an empty plan the wrapper is behaviorally transparent: every
    method delegates to the inner store unchanged.
    """

    def __init__(self, inner, plan: FaultPlan):
        plan.validate(SITE_KINDS)
        self.inner = inner
        self.plan = plan

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def append(self, record: ProvenanceRecord) -> None:
        self.plan.maybe_raise("store.append")
        self.inner.append(record)

    def append_many(self, records: Iterable[ProvenanceRecord]) -> None:
        batch = list(records)
        fired = self.plan.draw("store.append_many")
        if fired is not None:
            rule, index = fired
            if rule.kind is FaultKind.TORN:
                keep = self.plan.torn_keep(rule, index, len(batch))
                # An int for single stores, a tuple of per-shard ids for
                # sharded ones; informational only — recovery finds every
                # torn sub-batch by walking journal().
                batch_id = self.inner.begin_torn_batch(batch, keep)
                raise CrashError(
                    f"simulated crash tore batch {batch_id} at "
                    f"store.append_many#{index}: {keep}/{len(batch)} records "
                    "committed"
                )
            if rule.kind is FaultKind.LATENCY:
                time.sleep(rule.latency)
            else:
                _raise_for(rule, "store.append_many", index)
        self.inner.append_many(batch)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def records_for(self, object_id: str) -> Tuple[ProvenanceRecord, ...]:
        self.plan.maybe_raise("store.read")
        return self.inner.records_for(object_id)

    def latest(self, object_id: str) -> Optional[ProvenanceRecord]:
        self.plan.maybe_raise("store.read")
        return self.inner.latest(object_id)

    def tail(self, object_id: str) -> Optional[ChainTail]:
        self.plan.maybe_raise("store.read")
        return self.inner.tail(object_id)

    def get(self, object_id: str, seq_id: int) -> Optional[ProvenanceRecord]:
        self.plan.maybe_raise("store.read")
        return self.inner.get(object_id, seq_id)

    def all_records(self) -> Iterator[ProvenanceRecord]:
        self.plan.maybe_raise("store.read")
        return self.inner.all_records()

    # ------------------------------------------------------------------
    # fault-free delegation
    # ------------------------------------------------------------------

    def object_ids(self) -> Tuple[str, ...]:
        return self.inner.object_ids()

    def __len__(self) -> int:
        return len(self.inner)

    def space_bytes(self) -> int:
        return self.inner.space_bytes()

    def purge_object(self, object_id: str) -> int:
        return self.inner.purge_object(object_id)

    # crash-recovery surface: recovery must see the *real* store state,
    # so these never inject.

    def journal(self) -> Tuple[BatchJournalEntry, ...]:
        return self.inner.journal()

    def begin_torn_batch(self, records: Iterable[ProvenanceRecord], keep: int):
        # Passes the inner store's batch id(s) through unchanged (an int
        # for single stores, a tuple for sharded ones).
        return self.inner.begin_torn_batch(records, keep)

    def discard(self, object_id: str, seq_id: int) -> bool:
        return self.inner.discard(object_id, seq_id)

    def resolve_torn(self, batch_id: int) -> None:
        self.inner.resolve_torn(batch_id)

    # verified watermarks are monitor/recovery state, not workload I/O:
    # like the journal surface they delegate fault-free.

    def set_watermark(self, watermark: Checkpoint) -> None:
        self.inner.set_watermark(watermark)

    def get_watermark(self, object_id: str) -> Optional[Checkpoint]:
        return self.inner.get_watermark(object_id)

    def watermarks(self) -> Tuple[Checkpoint, ...]:
        return self.inner.watermarks()

    def clear_watermark(self, object_id: str) -> bool:
        return self.inner.clear_watermark(object_id)

    def _tail(self, object_id: str) -> Optional[ChainTail]:
        # Internal helper some callers (recovery, tests) reach for; not a
        # fault site — it reflects true store state.
        tail = getattr(self.inner, "_tail", None)
        if tail is None:
            raise ProvenanceError("inner store exposes no chain-tail accessor")
        return tail(object_id)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "FaultyStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"FaultyStore({self.inner!r}, seed={self.plan.seed})"

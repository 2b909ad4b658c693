"""FaultyStore: protocol conformance and the exact crash states it leaves.

A TORN fault must leave precisely what a power cut mid-commit leaves: a
prefix of the batch present, the batch's journal entry uncommitted.  An
ERROR must leave the inner store untouched so a retry can succeed.
"""

import sqlite3

import pytest

from repro.exceptions import CrashError
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.store import FaultyStore
from repro.provenance.store import (
    InMemoryProvenanceStore,
    ProvenanceStore,
    SQLiteProvenanceStore,
)

from tests.provenance.test_append_many_property import _record, _state

STORES = (InMemoryProvenanceStore, SQLiteProvenanceStore)


def empty_plan(seed=0):
    return FaultPlan(seed=seed)


@pytest.fixture(params=STORES, ids=("memory", "sqlite"))
def inner(request):
    store = request.param()
    yield store
    if isinstance(store, SQLiteProvenanceStore):
        store.close()


def test_satisfies_store_protocol(inner):
    assert isinstance(FaultyStore(inner, empty_plan()), ProvenanceStore)


def test_validates_plan_at_construction(inner):
    bad = FaultPlan(seed=0, rules=(FaultRule("store.read", FaultKind.TORN),))
    with pytest.raises(Exception, match="not valid at site"):
        FaultyStore(inner, bad)


def test_empty_plan_is_transparent(inner):
    faulty = FaultyStore(inner, empty_plan())
    faulty.append(_record("A", 0))
    faulty.append_many([_record("A", 1), _record("B", 0)])
    assert faulty.latest("A").seq_id == 1
    assert faulty.get("B", 0) is not None
    assert len(faulty) == 3
    assert _state(faulty) == _state(inner)


def test_torn_batch_leaves_prefix_and_uncommitted_journal(inner):
    plan = FaultPlan(
        seed=0,
        rules=(
            FaultRule(
                "store.append_many",
                FaultKind.TORN,
                indices=frozenset({0}),
                torn_keep=2,
            ),
        ),
    )
    faulty = FaultyStore(inner, plan)
    batch = [_record("A", 0), _record("A", 1), _record("B", 0)]
    with pytest.raises(CrashError, match="2/3 records committed"):
        faulty.append_many(batch)
    # Exactly the prefix survived...
    assert inner.get("A", 0) is not None
    assert inner.get("A", 1) is not None
    assert inner.get("B", 0) is None
    # ...and the batch is journalled as never-acknowledged.
    torn = [entry for entry in inner.journal() if not entry.committed]
    assert len(torn) == 1
    assert torn[0].keys == (("A", 0), ("A", 1), ("B", 0))


def test_error_leaves_inner_untouched_and_retry_succeeds(inner):
    plan = FaultPlan(
        seed=0,
        rules=(
            FaultRule(
                "store.append_many", FaultKind.ERROR, indices=frozenset({0})
            ),
        ),
    )
    faulty = FaultyStore(inner, plan)
    batch = [_record("A", 0), _record("A", 1)]
    with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
        faulty.append_many(batch)
    assert len(inner) == 0
    assert not [e for e in inner.journal() if not e.committed]
    faulty.append_many(batch)  # index 1: no fault
    assert len(inner) == 2


def test_append_site_injects(inner):
    plan = FaultPlan(
        seed=0,
        rules=(FaultRule("store.append", FaultKind.ERROR, indices=frozenset({0})),),
    )
    faulty = FaultyStore(inner, plan)
    with pytest.raises(sqlite3.OperationalError):
        faulty.append(_record("A", 0))
    assert len(inner) == 0
    faulty.append(_record("A", 0))
    assert len(inner) == 1


def test_read_sites_inject(inner):
    inner.append(_record("A", 0))
    plan = FaultPlan(
        seed=0, rules=(FaultRule("store.read", FaultKind.ERROR, rate=1.0),)
    )
    faulty = FaultyStore(inner, plan)
    for read in (
        lambda: faulty.tail("A"),
        lambda: faulty.latest("A"),
        lambda: faulty.records_for("A"),
        lambda: faulty.get("A", 0),
        lambda: faulty.all_records(),
    ):
        with pytest.raises(sqlite3.OperationalError):
            read()


def test_the_fault_free_tail_never_injects(inner):
    """Recovery reads tails through ``_tail``: no read fault reaches it."""
    inner.append(_record("A", 0))
    plan = FaultPlan(
        seed=0, rules=(FaultRule("store.read", FaultKind.ERROR, rate=1.0),)
    )
    faulty = FaultyStore(inner, plan)
    assert faulty._tail("A")[0] == 0
    assert not plan.events


def test_recovery_surface_never_injects(inner):
    """journal/discard/resolve_torn reflect true state even under a plan
    that fails every read — recovery must not trip injected faults."""
    plan = FaultPlan(
        seed=0, rules=(FaultRule("store.read", FaultKind.ERROR, rate=1.0),)
    )
    faulty = FaultyStore(inner, plan)
    batch_id = faulty.begin_torn_batch([_record("A", 0), _record("A", 1)], keep=1)
    assert [e.batch_id for e in faulty.journal() if not e.committed] == [batch_id]
    assert faulty.discard("A", 0) is True
    faulty.resolve_torn(batch_id)
    assert not [e for e in faulty.journal() if not e.committed]
    assert len(faulty) == 0


def test_context_manager_closes_inner():
    closed = []

    class Inner(InMemoryProvenanceStore):
        def close(self):
            closed.append(True)

    with FaultyStore(Inner(), empty_plan()) as faulty:
        faulty.append(_record("A", 0))
    assert closed == [True]

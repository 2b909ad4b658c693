"""RecoveryScanner: torn suffixes truncated, committed history untouched.

Includes the regression test for the SQLite chain-tail cache: a failed
or torn ``append_many`` must invalidate cached tails so a retried batch
chains off the last *committed* checksum, never an uncommitted one.
"""

import pytest

from repro.exceptions import ProvenanceError, SequenceError
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.recovery import RecoveryScanner
from repro.faults.store import FaultyStore
from repro.provenance.store import InMemoryProvenanceStore, SQLiteProvenanceStore

from tests.provenance.test_append_many_property import _record, _state

STORES = (InMemoryProvenanceStore, SQLiteProvenanceStore)


@pytest.fixture(params=STORES, ids=("memory", "sqlite"))
def store(request):
    s = request.param()
    yield s
    if isinstance(s, SQLiteProvenanceStore):
        s.close()


def test_clean_store_scans_clean(store):
    store.append_many([_record("A", 0), _record("A", 1)])
    report = RecoveryScanner(store).scan()
    assert report.clean
    assert report.torn_batches == ()


def test_recover_truncates_torn_suffix_to_committed_state(store):
    store.append_many([_record("A", 0), _record("B", 0)])
    committed = _state(store)
    batch = [_record("A", 1), _record("A", 2), _record("B", 1)]
    batch_id = store.begin_torn_batch(batch, keep=2)

    scanner = RecoveryScanner(store)
    preview = scanner.scan()
    assert preview.torn_batches == (batch_id,)
    # scan() is a dry run: the torn rows are still present
    assert store.get("A", 1) is not None

    report = scanner.recover()
    assert report.torn_batches == (batch_id,)
    # newest-first truncation: (A,2) came off before (A,1)
    assert report.truncated == (("A", 2), ("A", 1))
    assert _state(store) == committed
    assert not [e for e in store.journal() if not e.committed]


def test_recover_is_idempotent(store):
    store.begin_torn_batch([_record("A", 0)], keep=1)
    scanner = RecoveryScanner(store)
    assert not scanner.recover().clean
    assert scanner.recover().clean


def test_recovered_store_accepts_the_retried_batch(store):
    """The crash-retry round trip: tear a batch, recover, append the same
    batch again — it must land exactly as a fault-free run would."""
    store.append_many([_record("A", 0)])
    batch = [_record("A", 1), _record("A", 2)]
    store.begin_torn_batch(batch, keep=1)
    RecoveryScanner(store).recover()
    store.append_many(batch)

    reference = InMemoryProvenanceStore()
    reference.append_many([_record("A", 0)] + batch)
    assert _state(store) == _state(reference)


def test_missing_committed_records_reported_as_anomalies(store):
    store.append_many([_record("A", 0), _record("B", 0)])
    store.purge_object("A")  # committed journal entry now points nowhere
    report = RecoveryScanner(store).scan()
    assert report.anomalies == (("A", 0),)
    assert not report.clean
    assert report.torn_batches == ()


def test_scanner_unwraps_faulty_store():
    inner = InMemoryProvenanceStore()
    plan = FaultPlan(
        seed=0, rules=(FaultRule("store.read", FaultKind.ERROR, rate=1.0),)
    )
    faulty = FaultyStore(inner, plan)
    faulty.begin_torn_batch([_record("A", 0)], keep=1)
    # Despite every wrapped read failing, recovery sees true state.
    report = RecoveryScanner(faulty).recover()
    assert report.truncated == (("A", 0),)
    assert len(inner) == 0


def test_scanner_rejects_stores_without_crash_surface():
    class Bare:
        pass

    with pytest.raises(ProvenanceError, match="journal"):
        RecoveryScanner(Bare())


class TestTailCacheInvalidation:
    """Regression: SQLite cached tails must not survive a failed batch."""

    def test_failed_batch_does_not_poison_tail_cache(self):
        with SQLiteProvenanceStore() as store:
            store.append_many([_record("A", 0)])
            # Duplicate key inside the batch: the transaction rolls back.
            with pytest.raises(SequenceError):
                store.append_many([_record("A", 1), _record("A", 1)])
            # Pre-fix, the cache claimed (A, 1) was the tail and the retry
            # below was rejected as a regression / chained off an
            # uncommitted checksum.  The true tail is still (A, 0).
            assert store._tail("A")[0] == 0
            store.append_many([_record("A", 1)])
            assert store.latest("A").seq_id == 1

    @pytest.mark.parametrize("make", (InMemoryProvenanceStore, SQLiteProvenanceStore))
    def test_discard_and_recovery_restore_the_tail_digest(self, make):
        """The collector stages from the cached tail, output digest
        included, so truncation must roll the digest back too."""
        store = make()
        store.append_many([_record("A", 0)])
        store.append_many([_record("A", 1)])
        assert store.tail("A") == (1, _record("A", 1).checksum, bytes([1]) * 20)
        assert store.discard("A", 1)
        assert store.tail("A") == (0, _record("A", 0).checksum, bytes([0]) * 20)
        store.begin_torn_batch([_record("A", 1), _record("A", 2)], keep=2)
        assert store.tail("A").output_digest == bytes([2]) * 20
        RecoveryScanner(store).recover()
        assert store.tail("A") == (0, _record("A", 0).checksum, bytes([0]) * 20)

    def test_torn_batch_tail_restored_after_recovery(self):
        with SQLiteProvenanceStore() as store:
            store.append_many([_record("A", 0)])
            store.begin_torn_batch([_record("A", 1), _record("A", 2)], keep=2)
            # A crashed-then-restarted writer would see the torn tail...
            assert store._tail("A")[0] == 2
            RecoveryScanner(store).recover()
            # ...and recovery must roll the cache back with the rows.
            assert store._tail("A")[0] == 0
            store.append_many([_record("A", 1)])
            assert store.latest("A").seq_id == 1

"""Unit tests for the provenance DAG (Definition 1, Fig 2)."""

import random

import pytest

from repro.core.shipment import Shipment
from repro.core.system import TamperEvidentDatabase
from repro.exceptions import BrokenChainError, ReproError
from repro.provenance.dag import ProvenanceDAG
from repro.provenance.records import ObjectState, Operation, ProvenanceRecord
from repro.provenance.registry import open_tenant_store
from repro.provenance.snapshot import SubtreeSnapshot


def rec(object_id, seq, op=Operation.UPDATE, inputs=(), participant="p"):
    digest = bytes([seq % 251]) * 20
    input_states = tuple(
        ObjectState(object_id=i, digest=b"\x11" * 20) for i in inputs
    )
    if op is Operation.UPDATE and not input_states:
        input_states = (ObjectState(object_id=object_id, digest=digest),)
    return ProvenanceRecord(
        object_id=object_id,
        seq_id=seq,
        participant_id=participant,
        operation=op,
        inputs=input_states,
        output=ObjectState(object_id=object_id, digest=digest),
        checksum=b"\x01" * 8,
    )


@pytest.fixture
def fig2_records():
    """The record set of the paper's Fig 2 / Fig 3 (7 records)."""
    return [
        rec("A", 0, Operation.INSERT, participant="p2"),
        rec("B", 0, Operation.INSERT, participant="p2"),
        rec("A", 1, participant="p1"),
        rec("B", 1, participant="p2"),
        rec("A", 2, participant="p2"),
        rec("C", 2, Operation.AGGREGATE, inputs=("A", "B"), participant="p3"),
        rec("D", 3, Operation.AGGREGATE, inputs=("A", "C"), participant="p1"),
    ]


class TestConstruction:
    def test_counts(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        assert len(dag) == 7
        assert ("A", 1) in dag
        assert ("A", 9) not in dag

    def test_duplicate_keys_rejected(self, fig2_records):
        with pytest.raises(BrokenChainError):
            ProvenanceDAG(fig2_records + [rec("A", 0, Operation.INSERT)])

    def test_record_lookup(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        assert dag.record(("C", 2)).operation is Operation.AGGREGATE
        with pytest.raises(BrokenChainError):
            dag.record(("Z", 0))


class TestStructure:
    def test_chain(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        assert [r.seq_id for r in dag.chain("A")] == [0, 1, 2]
        assert dag.chain("nope") == ()

    def test_terminal(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        assert dag.terminal("A").seq_id == 2
        assert dag.terminal("D").seq_id == 3
        assert dag.terminal("nope") is None

    def test_aggregation_edges_use_latest_before(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        # C (seq 2) aggregated A at A's seq<2 state, i.e. ("A", 1).
        assert (("A", 1), ("C", 2)) in dag.graph.edges
        # D (seq 3) consumed A's seq-2 state.
        assert (("A", 2), ("D", 3)) in dag.graph.edges
        assert (("C", 2), ("D", 3)) in dag.graph.edges

    def test_ancestry_closure(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        ancestry = dag.ancestry("D")
        assert len(ancestry) == 7  # the whole history contributes to D
        # topological: genesis records come before the aggregate of D
        keys = [r.key for r in ancestry]
        assert keys.index(("A", 0)) < keys.index(("C", 2)) < keys.index(("D", 3))

    def test_ancestry_of_simple_object(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        assert [r.key for r in dag.ancestry("B")] == [("B", 0), ("B", 1)]
        assert dag.ancestry("nope") == ()

    def test_is_linear(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        assert dag.is_linear("A")
        assert dag.is_linear("B")
        assert not dag.is_linear("C")
        assert not dag.is_linear("D")

    def test_contributing_participants(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        assert dag.contributing_participants("D") == ("p1", "p2", "p3")
        assert dag.contributing_participants("B") == ("p2",)

    def test_source_objects(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        assert dag.source_objects("D") == ("A", "B")
        assert dag.source_objects("A") == ("A",)

    def test_topological_records(self, fig2_records):
        dag = ProvenanceDAG(fig2_records)
        ordered = dag.topological_records()
        assert len(ordered) == 7
        positions = {r.key: i for i, r in enumerate(ordered)}
        assert positions[("A", 0)] < positions[("A", 1)] < positions[("A", 2)]
        assert positions[("B", 1)] < positions[("C", 2)] < positions[("D", 3)]


class TestLiveSystemDAG:
    def test_dag_from_fig2_world(self, fig2_world):
        dag = fig2_world.dag()
        assert not dag.is_linear("D")
        assert dag.source_objects("D") == ("A", "B")
        assert dag.contributing_participants("D") == ("p1", "p2", "p3")


def _seeded_world(seed, root, scheme):
    """A seeded world on a 3-shard store mixing every record shape.

    Values come from ``range(3)``, so states recur and aggregation
    sources must be matched among digest-identical records.  Leaf
    aggregates (a one-node output) can be updated, deleted and then
    aggregated into again, which continues their existing chain.
    """
    rng = random.Random(seed)
    db = TamperEvidentDatabase(
        provenance_store=open_tenant_store(root, f"w{seed}", shards=3),
        key_bits=512, seed=seed, signature_scheme=scheme,
    )
    sessions = [db.session(db.enroll(p)) for p in ("p1", "p2", "p3")]
    roots, leaves, deleted_outputs = [], [], []

    def some(ids):
        return rng.sample(ids, rng.randint(1, min(3, len(ids))))

    def leaf_output(engine, inputs, output_id):
        engine.store.insert(output_id, rng.randrange(3), None)
        return (output_id,)

    for n in range(40):
        session = rng.choice(sessions)
        kind = "insert" if len(roots) < 2 or not leaves else rng.choice(
            ["insert", "child", "update", "update", "aggregate", "leaf-aggregate",
             "complex", "delete"]
        )
        try:
            if kind == "insert":
                session.insert(f"o{n}", rng.randrange(3))
                roots.append(f"o{n}")
                leaves.append(f"o{n}")
            elif kind == "child":
                if "t" not in db.store:
                    session.insert("t")
                    roots.append("t")
                session.insert(f"t/c{n}", rng.randrange(3), parent="t")
                leaves.append(f"t/c{n}")
            elif kind == "update":
                session.update(rng.choice(leaves), rng.randrange(3))
            elif kind == "aggregate":
                session.aggregate(some(roots), f"g{n}")
                roots.append(f"g{n}")
            elif kind == "leaf-aggregate":
                output = deleted_outputs.pop() if deleted_outputs else f"s{n}"
                session.aggregate(some(roots), output, builder=leaf_output)
                roots.append(output)
                leaves.append(output)
            elif kind == "complex":
                with session.complex_operation(note="batch"):
                    for target in some(leaves):
                        session.update(target, rng.randrange(3))
                    session.insert(f"o{n}", rng.randrange(3))
                roots.append(f"o{n}")
                leaves.append(f"o{n}")
            else:
                outputs = [leaf for leaf in leaves if leaf.startswith("s")]
                victim = rng.choice(outputs or leaves)
                session.delete(victim)
                leaves.remove(victim)
                if victim in roots:
                    roots.remove(victim)
                if victim.startswith("s"):
                    deleted_outputs.append(victim)
        except ReproError:
            pass  # e.g. re-aggregating into an output whose seq would regress
    return db


class _FullDAGDatabase:
    """What ``Shipment.build`` reads of a database, over the whole-store DAG."""

    def __init__(self, db):
        self.store = db.store
        self.ca = db.ca
        self._records = db.provenance_store.all_records

    def provenance_object(self, object_id, seq_id=None):
        return ProvenanceDAG(self._records()).ancestry(object_id, seq_id)


class TestClosureDAG:
    """``ProvenanceDAG.of`` answers exactly as the whole-store DAG."""

    def test_fig2_closures(self, fig2_world):
        store = fig2_world.provenance_store
        full = ProvenanceDAG(store.all_records())
        assert len(ProvenanceDAG.of(store, "B")) == 2
        assert len(ProvenanceDAG.of(store, "D")) == 7
        for object_id in ("A", "B", "C", "D", "ghost"):
            closure = ProvenanceDAG.of(store, object_id)
            assert closure.ancestry(object_id) == full.ancestry(object_id)

    @pytest.mark.parametrize("scheme", ["rsa", "merkle-batch"])
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_closure_ancestry_equals_full_dag(self, seed, backend, scheme, tmp_path):
        db = _seeded_world(seed, None if backend == "memory" else str(tmp_path), scheme)
        with db.provenance_store as store:
            full = ProvenanceDAG(store.all_records())
            shapes = set()
            for object_id in store.object_ids():
                of = ProvenanceDAG.of(store, object_id)
                closure = of.ancestry(object_id)
                assert closure == full.ancestry(object_id), object_id
                # Cut at every record of the chain, as a pinned verify reads.
                for record in store.records_for(object_id):
                    cut = of.ancestry(object_id, record.seq_id)
                    assert cut == full.ancestry(object_id, record.seq_id), record.key
                    assert cut[-1] == record, record.key
                shapes.add(full.is_linear(object_id))
                if object_id in db.store:
                    assert (
                        Shipment.build(db, object_id).to_json()
                        == Shipment.build(_FullDAGDatabase(db), object_id).to_json()
                    )
                    snapshot = SubtreeSnapshot.capture(db.store, object_id)
                    for record in store.records_for(object_id):
                        pinned = (object_id, snapshot, record.seq_id)
                        assert (
                            Shipment.build(db, *pinned).to_json()
                            == Shipment.build(_FullDAGDatabase(db), *pinned).to_json()
                        )
        assert shapes == {True, False}  # linear and non-linear objects alike

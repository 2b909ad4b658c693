"""The provenance DAG.

Definition 1: a provenance object is a set of records partially ordered by
``seqID`` — "alternatively, it is easy to think of the provenance object
as a DAG".  :class:`ProvenanceDAG` materialises that DAG over any record
set: nodes are record keys ``(object_id, seq_id)``; there is an edge from
record ``r`` to record ``s`` when ``s`` directly consumed the state ``r``
produced — either the next update of the same object, or an aggregation
that took the object as input.

Built on :mod:`networkx` so downstream users can run arbitrary graph
algorithms; the common provenance queries (ancestry, terminal records,
linearity) are wrapped as methods.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.exceptions import BrokenChainError
from repro.provenance.records import Operation, ProvenanceRecord
from repro.provenance.store import ProvenanceStore

__all__ = ["ProvenanceDAG"]

RecordKey = Tuple[str, int]


class ProvenanceDAG:
    """DAG over a set of provenance records.

    ``ProvenanceDAG(records)`` builds over any record set, for example
    ``store.all_records()`` for a whole-store view;
    ``ProvenanceDAG.of(store, object_id)`` builds over one object's
    closure and answers that object's queries identically.
    """

    @classmethod
    def of(cls, store: ProvenanceStore, object_id: str) -> "ProvenanceDAG":
        """The DAG over ``object_id``'s closure, read chain by chain.

        Starts from the object's own chain and follows the input object
        ids of every ``AGGREGATE`` record to their chains, recursively
        (Definition 1).  Aggregates later in a reached chain are followed
        too, so a few chains beyond the ancestry may be read; harmless,
        since :meth:`ancestry` still selects the exact set.

        Two rules keep every answer about ``object_id`` identical to the
        whole-store DAG's.  Whole chains are read, so each aggregation
        edge finds the same source record.  Records are fed in the
        store's global ``(object_id, seq_id)`` order, the order of
        ``all_records()``, because networkx's topological sort follows
        insertion order: ``ancestry`` returns the same tuple in the same
        order, and ``to_dot`` emits the same edges.
        """
        chains: Dict[str, Tuple[ProvenanceRecord, ...]] = {}
        pending = [object_id]
        while pending:
            current = pending.pop()
            if current in chains:
                continue
            chains[current] = store.records_for(current)
            for record in chains[current]:
                if record.operation is Operation.AGGREGATE:
                    pending.extend(state.object_id for state in record.inputs)
        return cls(record for oid in sorted(chains) for record in chains[oid])

    def __init__(self, records: Iterable[ProvenanceRecord]):
        self._records: Dict[RecordKey, ProvenanceRecord] = {}
        self._graph = nx.DiGraph()
        by_object: Dict[str, List[ProvenanceRecord]] = {}
        for record in records:
            if record.key in self._records:
                raise BrokenChainError(f"duplicate record key {record.key}")
            self._records[record.key] = record
            self._graph.add_node(record.key)
            by_object.setdefault(record.object_id, []).append(record)

        for chain in by_object.values():
            chain.sort(key=lambda r: r.seq_id)

        # Same-object chain edges: consecutive records of one object.
        for chain in by_object.values():
            for prev, nxt in zip(chain, chain[1:]):
                self._graph.add_edge(prev.key, nxt.key)

        # Aggregation edges: each input state feeds the aggregate record.
        # The consumed record is matched by its output digest (seq alone is
        # ambiguous: the input's chain may advance, with seq ids still
        # below the aggregate's, after the aggregation ran).
        for record in self._records.values():
            if record.operation is not Operation.AGGREGATE:
                continue
            for state in record.inputs:
                chain = by_object.get(state.object_id, [])
                candidates = [r for r in chain if r.seq_id < record.seq_id]
                source = next(
                    (
                        r
                        for r in reversed(candidates)
                        if r.output.digest == state.digest
                    ),
                    None,
                )
                if source is None and candidates:
                    source = candidates[-1]  # degraded: keep the DAG connected
                if source is not None:
                    self._graph.add_edge(source.key, record.key)

        if not nx.is_directed_acyclic_graph(self._graph):
            raise BrokenChainError("provenance records contain a cycle")

        self._by_object = by_object

    # ------------------------------------------------------------------

    @property
    def graph(self) -> nx.DiGraph:
        """The underlying networkx graph (record keys as nodes)."""
        return self._graph

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: RecordKey) -> bool:
        return key in self._records

    def record(self, key: RecordKey) -> ProvenanceRecord:
        """Return the record with the given key.

        Raises:
            BrokenChainError: If the key is not in the DAG.
        """
        try:
            return self._records[key]
        except KeyError:
            raise BrokenChainError(f"no record with key {key}") from None

    def chain(self, object_id: str) -> Tuple[ProvenanceRecord, ...]:
        """All records for one object, by ascending seq."""
        return tuple(self._by_object.get(object_id, ()))

    def terminal(self, object_id: str) -> Optional[ProvenanceRecord]:
        """The most recent record for ``object_id`` (greatest seq)."""
        chain = self._by_object.get(object_id)
        return chain[-1] if chain else None

    def ancestry(
        self, object_id: str, seq_id: Optional[int] = None
    ) -> Tuple[ProvenanceRecord, ...]:
        """Every record the history of ``object_id`` depends on.

        This is the closure a data recipient must verify: the object's own
        chain plus, through aggregation records, the chains of every input
        object, recursively — in topological order.  ``seq_id`` cuts the
        object's chain there: the history is that of its newest record at
        or below ``seq_id``, whatever was appended after it.
        """
        chain = self._by_object.get(object_id, ())
        if seq_id is not None:
            chain = [record for record in chain if record.seq_id <= seq_id]
        if not chain:
            return ()
        terminal = chain[-1]
        keys = nx.ancestors(self._graph, terminal.key) | {terminal.key}
        ordered = [k for k in nx.topological_sort(self._graph) if k in keys]
        return tuple(self._records[k] for k in ordered)

    def is_linear(self, object_id: str) -> bool:
        """True if the object's ancestry is a simple chain (no aggregation).

        Distinguishes the paper's *linear* provenance (Hasan et al.'s
        file-style history) from *non-linear* provenance.
        """
        return all(
            record.operation is not Operation.AGGREGATE
            for record in self.ancestry(object_id)
        )

    def contributing_participants(self, object_id: str) -> Tuple[str, ...]:
        """Sorted participants appearing anywhere in the object's ancestry."""
        return tuple(sorted({r.participant_id for r in self.ancestry(object_id)}))

    def source_objects(self, object_id: str) -> Tuple[str, ...]:
        """Sorted ids of the genesis (inserted) objects the data derives from."""
        return tuple(
            sorted(
                {
                    r.object_id
                    for r in self.ancestry(object_id)
                    if r.operation is Operation.INSERT and r.seq_id == 0
                }
            )
        )

    def topological_records(self) -> Tuple[ProvenanceRecord, ...]:
        """All records in a topological order of the DAG."""
        return tuple(self._records[k] for k in nx.topological_sort(self._graph))

    def __repr__(self) -> str:
        return (
            f"ProvenanceDAG(records={len(self._records)}, "
            f"objects={len(self._by_object)}, edges={self._graph.number_of_edges()})"
        )

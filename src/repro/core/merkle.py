"""Recursive compound-object hashing (§4.3).

The hash of a compound object is defined recursively, Merkle-style
(Fig 5): a node's digest hashes its own ``(id, value)`` encoding followed
by each child's (framed id, digest) link, children in the global total
order.  This lets a hash computed for ``subtree(B)`` be *reused* when the
checksum of an inherited record for an ancestor ``A`` needs
``h(subtree(A))``.

Two strategies implement the paper's §4.3 comparison:

- :class:`BasicHashing` — "hash all nodes in the input subtree(A), and
  hash all nodes in the output subtree(A)": two full walks per operation.
- :class:`EconomicalHashing` — keep a persistent digest cache and only
  recompute nodes whose subtree actually changed: one full walk the first
  time a tree is touched, then one root-path walk per change.

Both strategies are required (and property-tested) to produce identical
digests.  :class:`StreamingDatabaseHasher` reproduces §5.2's
larger-than-memory experiment: it folds rows into table digests and table
digests into the database digest one at a time, in O(row) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.backend.events import AggregateEvent, DeleteEvent, OperationEvent
from repro.backend.interface import ForestStore
from repro.crypto.hashing import get_algorithm
from repro.exceptions import ProvenanceError, UnknownObjectError
from repro.model.values import Value, encode_child_link, encode_node
from repro.obs import OBS

__all__ = [
    "subtree_digest",
    "tree_digests",
    "HashingStrategy",
    "BasicHashing",
    "EconomicalHashing",
    "OperationHashContext",
    "StreamingDatabaseHasher",
    "batch_leaf",
    "batch_root",
    "batch_audit_path",
    "batch_audit_paths",
    "resolve_batch_root",
]


@dataclass(frozen=True)
class _Entry:
    """Cached digest and node count for one subtree."""

    digest: bytes
    size: int


def _node_digest(
    algorithm,
    object_id: str,
    value: Value,
    children: Sequence[Tuple[str, bytes]],
) -> bytes:
    """Digest of one node given its children's (id, digest) pairs."""
    h = algorithm.new()
    h.update(encode_node(object_id, value))
    for child_id, child_digest in children:
        h.update(encode_child_link(child_id, child_digest))
    return h.digest()


@obs.phase("hash")
def _walk_digests(
    store: ForestStore, root_id: str, algorithm_name: str
) -> Dict[str, _Entry]:
    """Compute digests and sizes for every node of a subtree.

    Iterative postorder so arbitrarily deep trees don't hit the recursion
    limit.
    """
    algorithm = get_algorithm(algorithm_name)
    out: Dict[str, _Entry] = {}
    # (object_id, expanded?) — classic two-phase DFS
    stack: List[Tuple[str, bool]] = [(root_id, False)]
    while stack:
        object_id, expanded = stack.pop()
        children = store.children(object_id)
        if not expanded and children:
            stack.append((object_id, True))
            stack.extend((child, False) for child in reversed(children))
            continue
        node = store.get(object_id)
        pairs = [(child, out[child].digest) for child in children]
        size = 1 + sum(out[child].size for child in children)
        out[object_id] = _Entry(
            digest=_node_digest(algorithm, object_id, node.value, pairs), size=size
        )
    return out


def subtree_digest(store: ForestStore, root_id: str, algorithm: str = "sha1") -> bytes:
    """One-shot compound hash ``h(subtree(root_id))``."""
    return _walk_digests(store, root_id, algorithm)[root_id].digest


def tree_digests(
    store: ForestStore, root_id: str, algorithm: str = "sha1"
) -> Dict[str, bytes]:
    """Compound hash of *every* node in the subtree (one walk)."""
    return {k: e.digest for k, e in _walk_digests(store, root_id, algorithm).items()}


class OperationHashContext:
    """Before/after digest view around one (complex) operation.

    Lifecycle — the caller must:

    1. call :meth:`ensure_tree` for each affected tree root *before*
       mutating it (captures/primes the "before" state);
    2. apply the mutations;
    3. call :meth:`commit` with the operation's events;
    4. read :meth:`before_digest` / :meth:`after_digest`.
    """

    def ensure_tree(self, root_id: str) -> None:
        raise NotImplementedError

    def before_digest(self, object_id: str) -> Optional[bytes]:
        """Pre-operation digest, or None if the object did not exist."""
        raise NotImplementedError

    def before_size(self, object_id: str) -> int:
        """Pre-operation subtree node count (0 if absent)."""
        raise NotImplementedError

    def commit(self, events: Sequence[OperationEvent]) -> None:
        raise NotImplementedError

    def after_digest(self, object_id: str) -> bytes:
        """Post-operation digest.

        Raises:
            ProvenanceError: If the object has no post-state (deleted) or
                commit was not called.
        """
        raise NotImplementedError

    def after_size(self, object_id: str) -> int:
        """Post-operation subtree node count."""
        raise NotImplementedError


class HashingStrategy:
    """Factory for operation hash contexts; owns the hashing counters."""

    name = "abstract"

    def __init__(self, algorithm: str = "sha1"):
        self.algorithm = algorithm
        #: Total node-digest computations performed (Fig 7's cost metric).
        self.nodes_hashed = 0

    def _count_rehash(self, nodes: int) -> None:
        """Account ``nodes`` digest computations (strategy-labelled)."""
        self.nodes_hashed += nodes
        if OBS.enabled:
            OBS.registry.counter("merkle.rehash.nodes", strategy=self.name).inc(nodes)
            OBS.registry.counter("merkle.walks", strategy=self.name).inc()

    def begin(self, store: ForestStore) -> OperationHashContext:
        """Open a before/after context for one operation on ``store``."""
        raise NotImplementedError

    def forget(self, store: ForestStore, events: Sequence[OperationEvent]) -> None:
        """Drop any state about the trees ``events`` touched.

        Called after a session *undoes* operations (failed provenance
        collection): cached digests may describe the rolled-back state
        and must be recomputed on next touch.  Stateless strategies need
        nothing.
        """

    def current_digest(self, store: ForestStore, root_id: str) -> bytes:
        """Digest of the current state of ``subtree(root_id)``."""
        raise NotImplementedError

    def current_size(self, store: ForestStore, root_id: str) -> int:
        """Node count of the current state of ``subtree(root_id)``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Basic strategy (§4.3 "Basic")
# ---------------------------------------------------------------------------


class _BasicContext(OperationHashContext):
    def __init__(self, strategy: "BasicHashing", store: ForestStore):
        self._strategy = strategy
        self._store = store
        self._before: Dict[str, _Entry] = {}
        self._after: Optional[Dict[str, _Entry]] = None
        self._ensured: Set[str] = set()

    def ensure_tree(self, root_id: str) -> None:
        if root_id in self._ensured or root_id not in self._store:
            return
        self._ensured.add(root_id)
        walked = _walk_digests(self._store, root_id, self._strategy.algorithm)
        self._strategy._count_rehash(len(walked))
        self._before.update(walked)

    def before_digest(self, object_id: str) -> Optional[bytes]:
        entry = self._before.get(object_id)
        return entry.digest if entry else None

    def before_size(self, object_id: str) -> int:
        entry = self._before.get(object_id)
        return entry.size if entry else 0

    def commit(self, events: Sequence[OperationEvent]) -> None:
        roots = _affected_roots(self._store, events)
        self._after = {}
        for root_id in roots:
            walked = _walk_digests(self._store, root_id, self._strategy.algorithm)
            self._strategy._count_rehash(len(walked))
            self._after.update(walked)

    def after_digest(self, object_id: str) -> bytes:
        return self._after_entry(object_id).digest

    def after_size(self, object_id: str) -> int:
        return self._after_entry(object_id).size

    def _after_entry(self, object_id: str) -> _Entry:
        if self._after is None:
            raise ProvenanceError("after_digest read before commit")
        try:
            return self._after[object_id]
        except KeyError:
            raise ProvenanceError(
                f"no post-operation digest for {object_id!r}"
            ) from None


class BasicHashing(HashingStrategy):
    """Rehash the whole affected tree before and after each operation."""

    name = "basic"

    def begin(self, store: ForestStore) -> _BasicContext:
        return _BasicContext(self, store)

    def current_digest(self, store: ForestStore, root_id: str) -> bytes:
        walked = _walk_digests(store, root_id, self.algorithm)
        self._count_rehash(len(walked))
        return walked[root_id].digest

    def current_size(self, store: ForestStore, root_id: str) -> int:
        return store.subtree_size(root_id)


# ---------------------------------------------------------------------------
# Economical strategy (§4.3 "Economical")
# ---------------------------------------------------------------------------


class _EconomicalContext(OperationHashContext):
    def __init__(self, strategy: "EconomicalHashing", store: ForestStore):
        self._strategy = strategy
        self._store = store
        self._before_overlay: Dict[str, Optional[_Entry]] = {}
        self._committed = False

    def ensure_tree(self, root_id: str) -> None:
        self._strategy.prime(self._store, root_id)

    def before_digest(self, object_id: str) -> Optional[bytes]:
        entry = self._before_entry(object_id)
        return entry.digest if entry else None

    def before_size(self, object_id: str) -> int:
        entry = self._before_entry(object_id)
        return entry.size if entry else 0

    def _before_entry(self, object_id: str) -> Optional[_Entry]:
        if object_id in self._before_overlay:
            return self._before_overlay[object_id]
        # Not overlaid => the operation never touched it, so its cache
        # entry (whether read before or after commit) is the pre-op state.
        return self._strategy.cache.get(object_id)

    def commit(self, events: Sequence[OperationEvent]) -> None:
        cache = self._strategy.cache
        dirty: Set[str] = set()
        deleted: Set[str] = set()
        for event in events:
            # Preserve the pre-operation entries we might still be asked for.
            for object_id in (event.object_id, *event.ancestors):
                self._before_overlay.setdefault(object_id, cache.get(object_id))
            if isinstance(event, DeleteEvent):
                deleted.add(event.object_id)
            else:
                dirty.add(event.object_id)
            dirty.update(event.ancestors)
            if isinstance(event, AggregateEvent):
                for created in event.created_ids:
                    self._before_overlay.setdefault(created, cache.get(created))
                dirty.update(event.created_ids)

        # Membership (not the deleted set) decides survival: an id deleted
        # and re-inserted within the same operation is alive and dirty.
        dirty = {object_id for object_id in dirty if object_id in self._store}
        for object_id in deleted:
            if object_id not in self._store:  # not re-inserted later in the op
                cache.pop(object_id, None)

        self._strategy.recompute(self._store, dirty)
        self._committed = True

    def after_digest(self, object_id: str) -> bytes:
        return self._after_entry(object_id).digest

    def after_size(self, object_id: str) -> int:
        return self._after_entry(object_id).size

    def _after_entry(self, object_id: str) -> _Entry:
        if not self._committed:
            raise ProvenanceError("after_digest read before commit")
        try:
            return self._strategy.cache[object_id]
        except KeyError:
            raise ProvenanceError(
                f"no post-operation digest for {object_id!r}"
            ) from None


class EconomicalHashing(HashingStrategy):
    """Cache node digests; recompute only changed root-paths."""

    name = "economical"

    def __init__(self, algorithm: str = "sha1"):
        super().__init__(algorithm)
        self.cache: Dict[str, _Entry] = {}

    def begin(self, store: ForestStore) -> _EconomicalContext:
        return _EconomicalContext(self, store)

    def forget(self, store: ForestStore, events: Sequence[OperationEvent]) -> None:
        """Evict every entry an undone operation may have left stale.

        Touched ids are dropped along with their (still-present) tree
        roots; the next :meth:`prime` walks the whole tree and overwrites
        any remaining stale descendants.
        """
        for event in events:
            self.cache.pop(event.object_id, None)
            if isinstance(event, AggregateEvent):
                for created in event.created_ids:
                    self.cache.pop(created, None)
        for root_id in _affected_roots(store, events):
            self.cache.pop(root_id, None)

    def prime(self, store: ForestStore, root_id: str) -> None:
        """Ensure the cache covers ``subtree(root_id)`` (one walk if cold)."""
        if root_id not in store:
            return
        if root_id in self.cache:
            if OBS.enabled:
                OBS.registry.counter("merkle.cache.hits").inc()
            return
        if OBS.enabled:
            OBS.registry.counter("merkle.cache.misses").inc()
        walked = _walk_digests(store, root_id, self.algorithm)
        self._count_rehash(len(walked))
        self.cache.update(walked)

    def recompute(self, store: ForestStore, dirty: Set[str]) -> None:
        """Recompute digests for ``dirty`` nodes, deepest first."""
        algorithm = get_algorithm(self.algorithm)
        ordered = sorted(dirty, key=store.depth, reverse=True)
        if OBS.enabled:
            OBS.registry.counter(
                "merkle.rehash.nodes", strategy=self.name
            ).inc(len(ordered))
            OBS.registry.histogram("merkle.dirty_path.length").observe(len(ordered))
        for object_id in ordered:
            node = store.get(object_id)
            pairs = []
            size = 1
            for child in node.children:
                entry = self.cache.get(child)
                if entry is None:
                    raise ProvenanceError(
                        f"cache miss for child {child!r}; tree was mutated "
                        "without ensure_tree/prime"
                    )
                pairs.append((child, entry.digest))
                size += entry.size
            self.cache[object_id] = _Entry(
                digest=_node_digest(algorithm, object_id, node.value, pairs),
                size=size,
            )
            self.nodes_hashed += 1

    def current_digest(self, store: ForestStore, root_id: str) -> bytes:
        self.prime(store, root_id)
        try:
            return self.cache[root_id].digest
        except KeyError:
            raise UnknownObjectError(f"object {root_id!r} does not exist") from None

    def current_size(self, store: ForestStore, root_id: str) -> int:
        self.prime(store, root_id)
        try:
            return self.cache[root_id].size
        except KeyError:
            raise UnknownObjectError(f"object {root_id!r} does not exist") from None


def _affected_roots(
    store: ForestStore, events: Sequence[OperationEvent]
) -> List[str]:
    """Distinct still-present tree roots affected by ``events``."""
    roots: List[str] = []
    seen: Set[str] = set()
    for event in events:
        if event.object_id in store:
            root = store.root_of(event.object_id)
        elif event.ancestors and event.ancestors[-1] in store:
            root = store.root_of(event.ancestors[-1])
        else:
            continue  # entire tree removed
        if root not in seen:
            seen.add(root)
            roots.append(root)
    return roots


# ---------------------------------------------------------------------------
# Flat batch Merkle trees (batch signatures, DESIGN.md §10)
# ---------------------------------------------------------------------------
#
# Unlike the compound-object hashing above (which follows the data's tree
# shape), these helpers build a binary Merkle tree over a *flat list* of
# byte strings — the staged record payloads of one collector flush.  Leaf
# and interior hashes are domain-separated (0x00 / 0x01 prefixes, as in
# RFC 6962) so an interior node can never be presented as a leaf; an odd
# node at any level is promoted unchanged, which together with the signed
# leaf count fixes the tree shape completely.

_BATCH_LEAF_PREFIX = b"\x00"
_BATCH_NODE_PREFIX = b"\x01"


@obs.phase("merkle.leaf")
def batch_leaf(data: bytes, algorithm: str = "sha1") -> bytes:
    """Leaf digest ``h(0x00 || data)`` of one batch entry."""
    return get_algorithm(algorithm).digest(_BATCH_LEAF_PREFIX + data)


def _batch_levels(leaves: Sequence[bytes], algorithm: str) -> List[List[bytes]]:
    """All tree levels, leaves first; the last level is ``[root]``."""
    if not leaves:
        raise ProvenanceError("cannot build a Merkle batch over zero leaves")
    alg = get_algorithm(algorithm)
    levels: List[List[bytes]] = [list(leaves)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        nxt = [
            alg.digest(_BATCH_NODE_PREFIX + prev[i] + prev[i + 1])
            for i in range(0, len(prev) - 1, 2)
        ]
        if len(prev) % 2:
            nxt.append(prev[-1])  # odd node promoted unchanged
        levels.append(nxt)
    return levels


@obs.phase("merkle.root")
def batch_root(leaves: Sequence[bytes], algorithm: str = "sha1") -> bytes:
    """Merkle root over ``leaves`` (a single leaf is its own root)."""
    return _batch_levels(leaves, algorithm)[-1][0]


@obs.phase("merkle.path")
def batch_audit_paths(
    leaves: Sequence[bytes], algorithm: str = "sha1"
) -> List[Tuple[bytes, ...]]:
    """Audit path (sibling digests, leaf to root) for *every* leaf.

    One tree construction serves the whole batch — this is what the
    batch signer calls at flush time.
    """
    levels = _batch_levels(leaves, algorithm)
    paths: List[Tuple[bytes, ...]] = []
    for index in range(len(levels[0])):
        path: List[bytes] = []
        i = index
        for level in levels[:-1]:
            size = len(level)
            if not (i == size - 1 and size % 2 == 1):
                path.append(level[i ^ 1])
            i //= 2
        paths.append(tuple(path))
    return paths


def batch_audit_path(
    leaves: Sequence[bytes], index: int, algorithm: str = "sha1"
) -> Tuple[bytes, ...]:
    """Audit path for one leaf (convenience wrapper for tests/tools)."""
    if not 0 <= index < len(leaves):
        raise ProvenanceError(f"leaf index {index} out of range")
    return batch_audit_paths(leaves, algorithm)[index]


@obs.phase("merkle.path")
def resolve_batch_root(
    leaf: bytes,
    index: int,
    count: int,
    path: Sequence[bytes],
    algorithm: str = "sha1",
) -> bytes:
    """Fold an audit path back to the root it commits to.

    The tree shape is derived purely from ``(index, count)``, so a proof
    carrying a wrong count or a truncated/padded path fails structurally
    rather than resolving to some other root.

    Raises:
        ProvenanceError: If ``index``/``count`` are out of range or the
            path length does not match the tree shape.
    """
    if count < 1 or not 0 <= index < count:
        raise ProvenanceError(
            f"invalid batch position: index {index}, count {count}"
        )
    alg = get_algorithm(algorithm)
    node = leaf
    i, size = index, count
    pos = 0
    while size > 1:
        if not (i == size - 1 and size % 2 == 1):
            if pos >= len(path):
                raise ProvenanceError("audit path too short for batch shape")
            sibling = path[pos]
            pos += 1
            if i % 2 == 0:
                node = alg.digest(_BATCH_NODE_PREFIX + node + sibling)
            else:
                node = alg.digest(_BATCH_NODE_PREFIX + sibling + node)
        i //= 2
        size = (size + 1) // 2
    if pos != len(path):
        raise ProvenanceError("audit path too long for batch shape")
    return node


# ---------------------------------------------------------------------------
# Streaming hashing (§5.2 scale experiment)
# ---------------------------------------------------------------------------


class StreamingDatabaseHasher:
    """Hash a relational database too large for memory, one row at a time.

    Rows arrive as ``(row_id, row_value, cells)`` with ``cells`` an
    iterable of ``(cell_id, cell_value)``; tables as ``(table_id,
    table_value, rows)``.  Ids must be supplied in the global total order
    (the synthetic workload generators do this naturally).  The produced
    digest is bit-identical to :func:`subtree_digest` over the
    materialised equivalent, so recipients can verify streamed hashes
    against stored ones.
    """

    def __init__(self, algorithm: str = "sha1"):
        self.algorithm_name = algorithm
        self._algorithm = get_algorithm(algorithm)
        #: Nodes folded into digests so far (the §5.2 per-node metric).
        self.nodes_hashed = 0

    def hash_row(
        self, row_id: str, row_value: Value, cells: Iterable[Tuple[str, Value]]
    ) -> bytes:
        """Digest of one row subtree (row node + its cells)."""
        h = self._algorithm.new()
        h.update(encode_node(row_id, row_value))
        for cell_id, cell_value in cells:
            cell_digest = self._algorithm.digest(encode_node(cell_id, cell_value))
            self.nodes_hashed += 1
            h.update(encode_child_link(cell_id, cell_digest))
        self.nodes_hashed += 1
        return h.digest()

    def hash_table(
        self,
        table_id: str,
        table_value: Value,
        rows: Iterable[Tuple[str, Value, Iterable[Tuple[str, Value]]]],
    ) -> bytes:
        """Digest of one table subtree, folding rows incrementally."""
        h = self._algorithm.new()
        h.update(encode_node(table_id, table_value))
        for row_id, row_value, cells in rows:
            h.update(encode_child_link(row_id, self.hash_row(row_id, row_value, cells)))
        self.nodes_hashed += 1
        return h.digest()

    def hash_database(
        self,
        root_id: str,
        root_value: Value,
        tables: Iterable[Tuple[str, Value, Iterable]],
    ) -> bytes:
        """Digest of the whole database subtree, folding tables incrementally."""
        h = self._algorithm.new()
        h.update(encode_node(root_id, root_value))
        for table_id, table_value, rows in tables:
            h.update(
                encode_child_link(table_id, self.hash_table(table_id, table_value, rows))
            )
        self.nodes_hashed += 1
        return h.digest()

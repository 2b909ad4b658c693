"""The four traffic mixes of the end-to-end benchmark, and their answer checks.

A :class:`Caller` is one closed-loop client: it sends its next request
only after the previous reply arrived, with no think time.  Each caller
owns a disjoint set of objects and keeps the number of records it knows
each one has, so every reply can be checked exactly:

- a write must extend each touched chain by exactly one record;
- a verify must say ``ok`` and check at least the known chain length;
- a provenance or lineage read must return at least the known length;
- an object listing must contain every object the caller owns there.

Any non-2xx reply (after the client's own 503 retries), transport
error, unreadable reply or failed check is returned as
:attr:`Outcome.error` and counts as a failed request.

Only the public :class:`~repro.service.client.ServiceClient` is used,
so later changes to the repository's own bench and load modules cannot
change what is measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from http.client import HTTPException
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ServiceError

#: Layers every workload exercises; the traced launcher fails a run in
#: which one of them recorded no call (a renamed function would
#: otherwise read as "0 ms").
BASE_LAYERS = (
    "service.http",
    "service.auth",
    "service.core",
    "backend.engine",
    "core.merkle",
    "crypto.sign",
    "core.collector",
    "provenance.store.append",
    "provenance.store.read",
)
AUDIT_LAYERS = (
    "provenance.store.scan",
    "provenance.dag",
    "core.shipment",
    "core.verifier",
    "query.lineage",
)

#: Operations per ``POST /v1/batch`` in the traffic, and in the preload.
BATCH_SIZE = 16
PRELOAD_BATCH = 50


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the server it runs against."""

    name: str
    tenants: Tuple[str, ...]
    #: (request kind, share of requests)
    mix: Tuple[Tuple[str, float], ...]
    #: Extra ``repro serve`` flags; ``durable`` adds ``--store-root``.
    server_args: Tuple[str, ...] = ()
    durable: bool = False
    #: Objects preloaded per tenant during set-up, and records per object.
    preload_objects: int = 0
    preload_records: int = 0
    must_fire: Tuple[str, ...] = BASE_LAYERS


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Signed single-record writes spread over four tenants: little
        # world-lock contention, no verify or DAG work.
        Workload(
            name="ingest",
            tenants=("t0", "t1", "t2", "t3"),
            mix=(("insert", 0.5), ("update", 0.5)),
        ),
        # SQLite shards plus Merkle-batch sealing on one hot tenant:
        # store I/O, seal amortisation and world-lock contention, no
        # per-record RSA.
        Workload(
            name="durable_batch",
            tenants=("t0",),
            mix=(("batch", 1.0),),
            server_args=("--scheme", "merkle-batch"),
            durable=True,
            must_fire=BASE_LAYERS + ("crypto.seal",),
        ),
        # Verify and lineage rebuild the DAG over the whole tenant, and
        # every verify notarizes an audit record, so the tenant grows.
        Workload(
            name="audit",
            tenants=("t0",),
            mix=(("verify", 0.75), ("lineage", 0.05), ("update", 0.20)),
            preload_objects=1000,
            preload_records=4,
            must_fire=BASE_LAYERS + AUDIT_LAYERS,
        ),
        # Small reads, where fixed per-request cost dominates, beside
        # writes that show when a change to one path costs the other.
        Workload(
            name="read_mix",
            tenants=("t0", "t1"),
            mix=(("provenance", 0.70), ("objects", 0.05), ("update", 0.25)),
            preload_objects=500,
            preload_records=2,
        ),
    )
}


# ----------------------------------------------------------------------
# answer checks (pure functions of one reply)
# ----------------------------------------------------------------------


def check_write(payload: Dict[str, object], expected: Dict[str, int]) -> Optional[str]:
    """Each touched object gains exactly one record, at its next seq."""
    got = sorted((r["object_id"], r["seq_id"]) for r in payload.get("records", ()))
    want = sorted(expected.items())
    if got != want:
        return f"write: expected records {want[:4]}..., got {got[:4]}..."
    return None


def check_verify(payload: Dict[str, object], known: int) -> Optional[str]:
    if payload.get("ok") is not True:
        return f"verify: not ok: {payload.get('failures')}"
    if int(payload.get("records_checked", -1)) < known:
        return f"verify: checked {payload.get('records_checked')} < {known} records"
    return None


def check_chain(payload: Dict[str, object], known: int) -> Optional[str]:
    got = len(payload.get("records", ()))
    if got < known:
        return f"provenance: chain of {got} < {known} records"
    return None


def check_lineage(payload: Dict[str, object], known: int) -> Optional[str]:
    if int(payload.get("records", -1)) < known:
        return f"lineage: {payload.get('records')} < {known} records"
    return None


def check_objects(payload: Dict[str, object], owned: Sequence[str]) -> Optional[str]:
    missing = set(owned) - set(payload.get("objects", ()))
    if missing:
        return f"objects: {len(missing)} owned objects missing"
    return None


# ----------------------------------------------------------------------
# closed-loop caller
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """One request as the caller saw it."""

    klass: str
    #: Records the reply reported written (writes only).
    records: int
    error: Optional[str]


#: What a request may raise: non-2xx replies (ServiceHTTPError is a
#: ServiceError), socket errors, HTTP protocol errors, undecodable JSON.
REQUEST_ERRORS = (ServiceError, OSError, HTTPException, ValueError)


class Caller:
    """One closed-loop client thread's state: its clients, objects, RNG.

    ``clients`` maps each tenant to a client holding that tenant's key;
    anything with the :class:`ServiceClient` data-plane methods works,
    which is how the tests feed the checks fabricated replies.
    """

    def __init__(self, workload: Workload, index: int, clients: Dict[str, object], seed: int):
        self.workload = workload
        self.index = index
        self.clients = clients
        self.rng = random.Random(f"{seed}|{workload.name}|caller{index}")
        #: (tenant, object id) -> records this caller knows the chain has
        self.chains: Dict[Tuple[str, str], int] = {}
        self.owned: Dict[str, List[str]] = {t: [] for t in workload.tenants}
        self._serial = 0
        self._kinds = [k for k, _ in workload.mix]
        self._weights = [w for _, w in workload.mix]

    def step(self) -> Outcome:
        """Send one request drawn from the workload's mix and check it."""
        kind = self.rng.choices(self._kinds, self._weights)[0]
        tenant = self.rng.choice(self.workload.tenants)
        if not self.owned[tenant] and kind not in ("insert", "batch", "objects"):
            kind = "insert"  # nothing of ours to update or read yet
        return getattr(self, kind)(tenant)

    # -- writes ---------------------------------------------------------

    def insert(self, tenant: str) -> Outcome:
        return self.write(tenant, [("insert", self._new_id())])

    def update(self, tenant: str) -> Outcome:
        return self.write(tenant, [("update", self._pick(tenant))])

    def batch(self, tenant: str) -> Outcome:
        size = BATCH_SIZE
        owned = self.owned[tenant]
        updates = sum(self.rng.random() < 0.5 for _ in range(size))
        picked = self.rng.sample(owned, min(updates, len(owned)))
        ops = [("update", o) for o in picked]
        ops += [("insert", self._new_id()) for _ in range(size - len(ops))]
        return self.write(tenant, ops)

    def write(self, tenant: str, ops: Sequence[Tuple[str, str]]) -> Outcome:
        """Apply ``ops`` (one record request or one batch) and check it."""
        expected = {o: self.chains.get((tenant, o), 0) for _, o in ops}
        body = [
            {"op": op, "object_id": o, "value": self.rng.randrange(1 << 30)}
            for op, o in ops
        ]
        client = self.clients[tenant]
        if len(body) == 1:
            send = lambda: client.record(**body[0])  # noqa: E731
        else:
            send = lambda: client.batch(body)  # noqa: E731
        payload, error = self._request(send, lambda p: check_write(p, expected))
        if error is not None:
            return Outcome("write", 0, error)
        for _, o in ops:
            if expected[o] == 0:
                self.owned[tenant].append(o)
            self.chains[(tenant, o)] = expected[o] + 1
        return Outcome("write", len(payload["records"]), None)

    # -- reads and audits -----------------------------------------------

    def verify(self, tenant: str) -> Outcome:
        o = self._pick(tenant)
        return self._read("audit", lambda: self.clients[tenant].verify(o),
                          lambda p: check_verify(p, self.chains[(tenant, o)]))

    def lineage(self, tenant: str) -> Outcome:
        o = self._pick(tenant)
        return self._read("audit", lambda: self.clients[tenant].lineage(o),
                          lambda p: check_lineage(p, self.chains[(tenant, o)]))

    def provenance(self, tenant: str) -> Outcome:
        o = self._pick(tenant)
        return self._read("read", lambda: self.clients[tenant].provenance(o),
                          lambda p: check_chain(p, self.chains[(tenant, o)]))

    def objects(self, tenant: str) -> Outcome:
        owned = list(self.owned[tenant])
        return self._read("read", self.clients[tenant].objects,
                          lambda p: check_objects(p, owned))

    # -- set-up ---------------------------------------------------------

    def preload(self, share: int, callers: int) -> Optional[str]:
        """Write this caller's share of the preload as batches.

        Each preloaded object gets ``preload_records`` records: one
        insert, then one update per round.  Returns the first error.
        """
        w = self.workload
        for tenant in w.tenants:
            ids = [f"p{i}" for i in range(share, w.preload_objects, callers)]
            for round_ in range(w.preload_records):
                op = "insert" if round_ == 0 else "update"
                for k in range(0, len(ids), PRELOAD_BATCH):
                    out = self.write(tenant, [(op, o) for o in ids[k:k + PRELOAD_BATCH]])
                    if out.error is not None:
                        return f"preload {tenant}: {out.error}"
        return None

    # -- plumbing -------------------------------------------------------

    def _new_id(self) -> str:
        self._serial += 1
        return f"c{self.index}-{self._serial}"

    def _pick(self, tenant: str) -> str:
        return self.rng.choice(self.owned[tenant])

    @staticmethod
    def _request(send: Callable[[], Dict], check) -> Tuple[Dict, Optional[str]]:
        """Send, then check the reply; a reply the check cannot read fails."""
        try:
            payload = send()
        except REQUEST_ERRORS as exc:
            return {}, f"{type(exc).__name__}: {exc}"
        try:
            return payload, check(payload)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            return payload, f"malformed reply: {type(exc).__name__}: {exc}"

    def _read(self, klass: str, send, check) -> Outcome:
        return Outcome(klass, 0, self._request(send, check)[1])

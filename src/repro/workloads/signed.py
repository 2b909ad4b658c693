"""The seeded signed world: ``n`` objects, each inserted then updated ``m`` times.

The one such world behind the verification, monitor and trust benchmarks,
the ``repro bench`` gate, and the CLI's ``stats``, ``trace`` and
``monitor --synthetic``.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.system import TamperEvidentDatabase
from repro.crypto.pki import Participant

__all__ = ["signed_world"]


def signed_world(
    n_objects: int,
    updates_per_object: int,
    *,
    key_bits: int,
    seed: int,
    scheme: str = "rsa",
    participant: str = "bench",
) -> Tuple[TamperEvidentDatabase, Participant]:
    """The database and the participant that signed every record.

    Object ``obj{i}`` is inserted with value ``i`` and updated to
    ``i * 1000 + u`` for each ``u < updates_per_object``; keys derive
    from ``seed``, so a seed fixes every record.
    """
    db = TamperEvidentDatabase(key_bits=key_bits, seed=seed, signature_scheme=scheme)
    writer = db.enroll(participant)
    session = db.session(writer)
    for i in range(n_objects):
        session.insert(f"obj{i}", i)
        for update in range(updates_per_object):
            session.update(f"obj{i}", i * 1000 + update)
    return db, writer

"""Data-recipient verification (§3's two-step procedure).

Given a data object (as a :class:`SubtreeSnapshot`), its provenance object
(a set of records), and a trust store of participant certificates, the
verifier checks:

1. the data object matches the output of its most recent provenance
   record (requirements R4/R5);
2. starting from the earliest checksums, every stored checksum verifies
   against the payload recomputed from the record's input/output fields
   and the predecessor checksum(s) (R1–R3, R6–R8).

Verification failures are *reported*, not raised: tampering is an
expected input, and the report says which security requirement the
evidence violates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core import checksum as payloads
from repro.core.merkle import subtree_digest
from repro.crypto.hashing import available_algorithms, get_algorithm
from repro.crypto.pki import KeyStore
from repro.crypto.signatures import detached_signature_valid, record_signature_valid
from repro.exceptions import CertificateError, WorkerKilledError
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover — core stays import-decoupled from faults
    from repro.faults.plan import FaultPlan, FaultRule
from repro.provenance.records import Operation, ProvenanceRecord
from repro.provenance.snapshot import SubtreeSnapshot
from repro.provenance.store import Checkpoint

#: What a chain walk carries from one record to the next: the previous
#: record, or the checkpoint summarising every record before the walk.
_Previous = Optional[Union[ProvenanceRecord, Checkpoint]]

#: Roots a verifier's memo keeps between walks.  A walk that starts with
#: the memo this full drops it first, so the memo holds at most this many
#: roots plus those of one walk.
ROOT_MEMO_LIMIT = 4096

__all__ = [
    "VerificationFailure",
    "VerificationReport",
    "Verifier",
    "ParallelVerifier",
]


@dataclass(frozen=True)
class VerificationFailure:
    """One detected integrity violation.

    ``requirement`` names the security requirement of §2.2 whose
    guarantee flagged the problem (R1–R8), or ``"PKI"`` for trust-store
    problems and ``"STRUCT"`` for malformed record sets.
    """

    requirement: str
    object_id: str
    message: str
    seq_id: Optional[int] = None

    def __str__(self) -> str:
        where = f"{self.object_id}#{self.seq_id}" if self.seq_id is not None else self.object_id
        return f"[{self.requirement}] {where}: {self.message}"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run."""

    ok: bool
    failures: Tuple[VerificationFailure, ...]
    records_checked: int
    objects_checked: int
    target_id: Optional[str] = None

    def requirement_codes(self) -> Tuple[str, ...]:
        """Sorted distinct requirement codes among the failures."""
        return tuple(sorted({f.requirement for f in self.failures}))

    def failure_tally(self) -> Dict[str, int]:
        """Failure counts keyed by requirement code (R1–R8/PKI/STRUCT).

        This is the single source of the per-requirement tallies: both
        :meth:`summary` and the ``verify.failures`` metrics counter are
        fed from it, so the report and the metrics can never disagree.
        """
        tally: Dict[str, int] = {}
        for failure in self.failures:
            tally[failure.requirement] = tally.get(failure.requirement, 0) + 1
        return dict(sorted(tally.items()))

    def summary(self) -> str:
        """One-line human-readable outcome."""
        if self.ok:
            return (
                f"VERIFIED: {self.records_checked} records over "
                f"{self.objects_checked} objects"
            )
        tallies = ", ".join(
            f"{code} x{count}" for code, count in self.failure_tally().items()
        )
        return (
            f"TAMPERING DETECTED ({tallies}): "
            + "; ".join(str(f) for f in self.failures[:5])
            + ("; ..." if len(self.failures) > 5 else "")
        )


class _PredecessorChoices:
    """Candidate predecessor checksums per aggregation input.

    Digest-identical chain states are indistinguishable from the record
    alone (e.g. an input later updated back to the same value, with a seq
    id still below the aggregate's), so the verifier accepts *any*
    candidate combination whose signature verifies — signatures cannot be
    forged, so this is sound.

    Search order: the all-newest and all-oldest combinations first (the
    signer's actual predecessor is the input's latest record *at
    aggregation time* — all-newest when nothing changed afterwards,
    drifting toward older candidates as duplicate states accumulate),
    then the bounded cartesian product.
    """

    MAX_COMBINATIONS = 512

    def __init__(self, per_input: List[List[bytes]]):
        self.per_input = per_input

    def combinations(self):
        import itertools

        newest = tuple(options[0] for options in self.per_input)
        oldest = tuple(options[-1] for options in self.per_input)
        yield newest
        if oldest != newest:
            yield oldest
        emitted = 2
        for combo in itertools.product(*self.per_input):
            if combo in (newest, oldest):
                continue
            yield combo
            emitted += 1
            if emitted >= self.MAX_COMBINATIONS:
                return


def _observe_report(report: VerificationReport) -> None:
    """Feed a finished report into the metrics registry and event log.

    The per-requirement failure counters are derived from the report's
    own :meth:`VerificationReport.failure_tally`, so ``repro stats`` and
    ``report.summary()`` always tell the same story — including for
    parallel runs, whose failures were merged before this point.
    """
    log = OBS.events
    if log is not None:
        log.emit(
            "verify.report",
            ok=report.ok,
            records=report.records_checked,
            objects=report.objects_checked,
            target=report.target_id,
            tally=report.failure_tally(),
        )
    if not OBS.enabled:
        return
    reg = OBS.registry
    reg.counter("verify.runs").inc()
    reg.counter("verify.records").inc(report.records_checked)
    reg.counter("verify.chains").inc(report.objects_checked)
    for code, count in report.failure_tally().items():
        reg.counter("verify.failures", requirement=code).inc(count)


class _Failures:
    def __init__(self) -> None:
        self.items: List[VerificationFailure] = []

    def add(
        self, requirement: str, object_id: str, message: str, seq_id: Optional[int] = None
    ) -> None:
        self.items.append(VerificationFailure(requirement, object_id, message, seq_id))


class Verifier:
    """Verifies provenance objects against data objects.

    Args:
        keystore: Trust store resolving participant ids to signature
            verifiers (built from CA-signed certificates).
    """

    def __init__(self, keystore: KeyStore):
        self.keystore = keystore
        # Memoized Merkle-batch root verifications, keyed by the key's
        # verifier and (participant, epoch, count, root, signature): one
        # RSA check per sealed batch instead of one per record, and, for
        # a long-lived verifier, per batch over all its walks.  A verdict
        # is a pure function of its key, so the memo cannot change any
        # report.  Concurrent walks may share it without a lock: a dict
        # get, set or clear is atomic under the GIL, so a race can only
        # check a root twice.  Parallel workers each hold their own.
        self._root_cache: Dict[tuple, bool] = {}

    def _bound_memo(self) -> None:
        """Drop the root memo if it is full (see :data:`ROOT_MEMO_LIMIT`)."""
        if len(self._root_cache) >= ROOT_MEMO_LIMIT:
            self._root_cache.clear()

    # ------------------------------------------------------------------

    def verify(
        self,
        snapshot: SubtreeSnapshot,
        records: Sequence[ProvenanceRecord],
        target_id: Optional[str] = None,
        resume: Optional[Checkpoint] = None,
    ) -> VerificationReport:
        """Run the full §3 verification procedure.

        Args:
            snapshot: The received data object.
            records: The received provenance object (the target's chain
                plus the chains it depends on through aggregations).
            target_id: The object the provenance claims to describe;
                defaults to ``resume``'s object, else the snapshot root.
            resume: A checkpoint of ``target_id``'s chain from an earlier
                verification *this recipient* performed (repeat
                deliveries).  Its checksum is signed into every later
                record, so resuming from it is as strong as re-checking
                the prefix.  Only the target's records past the
                checkpoint's seq are walked, seeded from it; an
                aggregation among them fails ``STRUCT`` (it reaches into
                chains the checkpoint does not summarise — run a full
                verification); with no new records the snapshot must
                match the checkpoint's output digest.
        """
        if target_id is not None:
            target = target_id
        else:
            target = resume.object_id if resume is not None else snapshot.root_id
        self._bound_memo()
        with obs.phase("verify", target=target, records=len(records)):
            failures = _Failures()
            if resume is not None:
                records = [
                    r for r in records
                    if r.object_id == resume.object_id and r.seq_id > resume.seq_id
                ]
            chains = self._index(records, failures)
            extension = chains.get(target, [])
            if resume is None:
                self._check_data_matches_terminal(snapshot, target, chains, failures)
                checked = self._check_chains(chains, failures)
            elif any(r.operation is Operation.AGGREGATE for r in extension):
                failures.add(
                    "STRUCT",
                    target,
                    "the records past the checkpoint include an aggregation, "
                    "which reaches into chains the checkpoint does not "
                    "summarise — run a full verification",
                )
                checked = 0
            else:
                self._check_data_matches_terminal(
                    snapshot, target, chains, failures, resume
                )
                checked = (
                    self._check_chain(extension, chains, failures, resume)
                    if extension else 0
                )

            report = VerificationReport(
                ok=not failures.items,
                failures=tuple(failures.items),
                records_checked=checked,
                objects_checked=len(chains) if resume is None else 1,
                target_id=target,
            )
        _observe_report(report)
        return report

    def verify_records(
        self, records: Sequence[ProvenanceRecord]
    ) -> VerificationReport:
        """Verify checksum chains only (no data object at hand)."""
        self._bound_memo()
        with obs.phase("verify", records=len(records)):
            failures = _Failures()
            chains = self._index(records, failures)
            checked = self._check_chains(chains, failures)
            report = VerificationReport(
                ok=not failures.items,
                failures=tuple(failures.items),
                records_checked=checked,
                objects_checked=len(chains),
            )
        _observe_report(report)
        return report

    def verify_incremental(
        self,
        records: Sequence[ProvenanceRecord],
        skip: Dict[str, Checkpoint],
        observe: bool = True,
    ) -> VerificationReport:
        """Verify only each chain's *uncovered suffix* (watermark resume).

        ``skip`` maps object id → the :class:`Checkpoint` covering that
        chain's first ``index`` records (a missing entry means verify the
        whole chain; an index ≥ the chain length skips it entirely).  The
        suffix ``chain[index:]`` is sliced by position and walked seeded
        from the checkpoint.  The caller —
        :class:`repro.monitor.ProvenanceMonitor` — must first check that
        each checkpoint equals the one re-derived from the live record at
        its position; given that, the failures reported for the suffix
        are byte-identical to the corresponding slice of a full
        :meth:`verify_records` run (see ``_check_chain``).

        Suffix walks are always serial (suffixes are short by
        construction); cold and full passes should use
        :meth:`verify_records`, which routes through the configured
        serial/parallel ``_check_chains``.

        ``observe=False`` suppresses the report's metrics/event emission
        (``verify.runs``, ``verify.failures``, ``verify.report``): the
        monitor's authoritative re-walk of failing suspects is part of
        the *same* logical verification pass, and observing it twice
        would double-count failures.
        """
        self._bound_memo()
        with obs.phase("verify", records=len(records), incremental=True):
            failures = _Failures()
            chains = self._index(records, failures)
            checked = 0
            objects = 0
            for object_id in sorted(chains):
                chain = chains[object_id]
                checkpoint = skip.get(object_id)
                if checkpoint is None:
                    checked += self._check_chain(chain, chains, failures)
                elif checkpoint.index < len(chain):
                    checked += self._check_chain(
                        chain[checkpoint.index:], chains, failures, checkpoint
                    )
                else:
                    continue  # fully covered: nothing new to check
                objects += 1
            report = VerificationReport(
                ok=not failures.items,
                failures=tuple(failures.items),
                records_checked=checked,
                objects_checked=objects,
            )
        if observe:
            _observe_report(report)
        return report

    # ------------------------------------------------------------------
    # step 1: the data object matches the most recent record (R4/R5)
    # ------------------------------------------------------------------

    def _check_data_matches_terminal(
        self,
        snapshot: SubtreeSnapshot,
        target: str,
        chains: Dict[str, List[ProvenanceRecord]],
        failures: _Failures,
        resume: Optional[Checkpoint] = None,
    ) -> None:
        if snapshot.root_id != target:
            failures.add(
                "R5",
                target,
                f"provenance describes {target!r} but the data object is "
                f"{snapshot.root_id!r}",
            )
            return
        chain = chains.get(target)
        if chain:
            terminal: Union[ProvenanceRecord, Checkpoint] = chain[-1]
            algorithms: Sequence[str] = (chain[-1].hash_algorithm,)
        elif resume is not None and resume.object_id == target:
            # A checkpoint names no hash algorithm; its digest's size
            # does (every registered algorithm of that size is tried).
            terminal = resume
            algorithms = [
                name for name in available_algorithms()
                if get_algorithm(name).digest_size == len(resume.output_digest)
            ]
        else:
            failures.add(
                "R4", target, "no provenance records for the delivered object"
            )
            return
        forest = snapshot.to_forest()
        try:
            matches = any(
                subtree_digest(forest, snapshot.root_id, algorithm)
                == terminal.output_digest
                for algorithm in algorithms
            )
        except Exception as exc:  # unknown algorithm, malformed snapshot, ...
            failures.add(
                "STRUCT",
                target,
                f"cannot recompute the data object's digest: {exc}",
                seq_id=terminal.seq_id,
            )
            return
        if not matches:
            failures.add(
                "R4",
                target,
                "data object does not match the output of its most recent "
                "provenance record (modified without provenance, or "
                "provenance reassigned)",
                seq_id=terminal.seq_id,
            )

    # ------------------------------------------------------------------
    # step 2: recompute every checksum from the earliest onward (R1-R3, R6-R8)
    # ------------------------------------------------------------------

    def _check_chains(
        self, chains: Dict[str, List[ProvenanceRecord]], failures: _Failures
    ) -> int:
        checked = 0
        for object_id in sorted(chains):
            checked += self._check_chain(chains[object_id], chains, failures)
        return checked

    def _check_chain(
        self,
        chain: List[ProvenanceRecord],
        chains: Dict[str, List[ProvenanceRecord]],
        failures: _Failures,
        previous: _Previous = None,
    ) -> int:
        """Verify one object's chain; returns records checked.

        ``previous`` seeds the walk when ``chain`` is a suffix: the
        checkpoint after the records before it.  The walk's only carried
        state is ``previous`` (seq, checksum, output digest, author), so
        a seeded suffix walk performs exactly the checks a full walk
        performs on those records — the incremental monitor's and the
        resuming recipient's equivalence guarantee rests on this.

        Chains are independent (§3.2's local chaining) except for
        aggregate predecessor resolution, which only *reads* other
        chains — so distinct chains may be checked concurrently against
        the same ``chains`` index.
        """
        with obs.phase(
            "verify.chain",
            object_id=chain[0].object_id if chain else "?",
            records=len(chain),
        ):
            checked = 0
            for record in chain:
                checked += 1
                self._check_inline_values(record, failures)
                prev_checksums = self._resolve_predecessors(
                    record, previous, chains, failures
                )
                if prev_checksums is None:
                    previous = record
                    continue  # structural failure already reported
                self._verify_signature(record, prev_checksums, failures)
                if (
                    record.transfer is not None
                    or record.operation is Operation.TRANSFER
                ):
                    self._check_custody(record, previous, failures)
                previous = record
            return checked

    def _check_inline_values(
        self, record: ProvenanceRecord, failures: _Failures
    ) -> None:
        """Inlined atomic values must hash to the state digests they ride on.

        Catches an attacker who leaves digests (and thus signatures)
        intact but rewrites the human-readable values in the records.
        """
        from repro.crypto.hashing import hash_bytes
        from repro.model.values import encode_node

        for state in (*record.inputs, record.output):
            if not state.has_value or state.node_count != 1:
                continue
            try:
                expected = hash_bytes(
                    encode_node(state.object_id, state.value), record.hash_algorithm
                )
            except Exception:
                expected = None
            if expected != state.digest:
                failures.add(
                    "R1",
                    record.object_id,
                    f"inlined value {state.value!r} of {state.object_id!r} does "
                    "not hash to the recorded state digest",
                    seq_id=record.seq_id,
                )

    def _check_custody(
        self,
        record: ProvenanceRecord,
        previous: _Previous,
        failures: _Failures,
    ) -> None:
        """The custody hand-off invariant (``TRANSFER`` records, §2.2).

        A valid hand-off is *dual-signed*: the incoming custodian's
        ordinary checksum (already checked) plus the outgoing custodian's
        countersignature over the domain-tagged transfer message.  The
        outgoing custodian must be exactly the author of the predecessor
        record — so a forged hand-off (wrong counterparty, re-attributed
        custody, or a countersignature the claimed outgoing custodian
        never produced) surfaces here even when the incoming custodian's
        own signature is genuine.
        """
        transfer = record.transfer
        if record.operation is not Operation.TRANSFER:
            failures.add(
                "STRUCT",
                record.object_id,
                f"{record.operation.value} record carries custody hand-off "
                "data (only transfer records may)",
                seq_id=record.seq_id,
            )
            return
        if transfer is None:
            failures.add(
                "STRUCT",
                record.object_id,
                "transfer record lacks custody hand-off data "
                "(dual-signature evidence is missing)",
                seq_id=record.seq_id,
            )
            return
        if transfer.to_participant != record.participant_id:
            failures.add(
                "CUSTODY",
                record.object_id,
                f"hand-off names {transfer.to_participant!r} as the incoming "
                f"custodian but the record was signed by "
                f"{record.participant_id!r}",
                seq_id=record.seq_id,
            )
        if previous is None:
            return  # unreachable for a well-sequenced chain; R2 already fired
        if transfer.from_participant != previous.participant_id:
            failures.add(
                "CUSTODY",
                record.object_id,
                f"hand-off claims custody from {transfer.from_participant!r} "
                f"but the previous record was created by "
                f"{previous.participant_id!r}",
                seq_id=record.seq_id,
            )
        try:
            verifier = self.keystore.verifier_for(transfer.from_participant)
        except CertificateError as exc:
            failures.add("PKI", record.object_id, str(exc), seq_id=record.seq_id)
            return
        message = payloads.transfer_message(
            record.object_id,
            record.seq_id,
            transfer.from_participant,
            transfer.to_participant,
            previous.checksum,
            record.output.digest,
        )
        if not detached_signature_valid(
            verifier,
            message,
            transfer.countersignature,
            transfer.counter_scheme,
            proof=transfer.counter_proof,
            hash_algorithm=record.hash_algorithm,
            root_cache=self._root_cache,
            participant_id=transfer.from_participant,
        ):
            failures.add(
                "CUSTODY",
                record.object_id,
                f"custody countersignature of {transfer.from_participant!r} "
                "does not verify (forged or re-linked hand-off)",
                seq_id=record.seq_id,
            )

    def _resolve_predecessors(
        self,
        record: ProvenanceRecord,
        previous: _Previous,
        chains: Dict[str, List[ProvenanceRecord]],
        failures: _Failures,
    ) -> Optional[Sequence[bytes]]:
        if record.operation is Operation.AGGREGATE:
            return self._resolve_aggregate_predecessors(record, chains, failures)

        if previous is None:
            if record.seq_id != 0 or record.operation is not Operation.INSERT:
                failures.add(
                    "R2",
                    record.object_id,
                    f"chain starts at seq {record.seq_id} with a "
                    f"{record.operation.value} record; earlier records are missing",
                    seq_id=record.seq_id,
                )
                return None
            return ()

        if record.seq_id != previous.seq_id + 1:
            code = "R3" if record.seq_id == previous.seq_id else "R2"
            failures.add(
                code,
                record.object_id,
                f"sequence break: record {record.seq_id} follows {previous.seq_id}",
                seq_id=record.seq_id,
            )
            return None

        # Update-shaped continuity: the input state must be the state the
        # previous record produced.
        if record.operation is not Operation.INSERT:
            if len(record.inputs) != 1:
                failures.add(
                    "STRUCT",
                    record.object_id,
                    f"update record has {len(record.inputs)} inputs",
                    seq_id=record.seq_id,
                )
                return None
            if record.inputs[0].digest != previous.output_digest:
                failures.add(
                    "R1",
                    record.object_id,
                    "input state does not match the previous record's output "
                    "(a record in between was modified or removed)",
                    seq_id=record.seq_id,
                )
                # The signature check below will also fail if the stored
                # checksum was not updated to match; still worth running.
        return (previous.checksum,)

    def _resolve_aggregate_predecessors(
        self,
        record: ProvenanceRecord,
        chains: Dict[str, List[ProvenanceRecord]],
        failures: _Failures,
    ) -> Optional[Sequence[bytes]]:
        per_input: List[List[bytes]] = []
        for state in record.inputs:
            # The consumed record is identified by *state*, not sequence
            # position: the input chain may have advanced (with seq ids
            # still below the aggregate's) after the aggregation ran.
            chain = chains.get(state.object_id, [])
            candidates = [r for r in chain if r.seq_id < record.seq_id]
            matches = [
                r.checksum
                for r in reversed(candidates)
                if r.output.digest == state.digest
            ]
            if not matches:
                if candidates:
                    failures.add(
                        "R1",
                        record.object_id,
                        f"aggregation input {state.object_id!r} does not match "
                        "any recorded state of that object",
                        seq_id=record.seq_id,
                    )
                    matches = [candidates[-1].checksum]  # still run the check
                else:
                    failures.add(
                        "R2",
                        record.object_id,
                        f"aggregation input {state.object_id!r} has no "
                        "provenance records before the aggregation",
                        seq_id=record.seq_id,
                    )
                    return None
            per_input.append(matches)
        return _PredecessorChoices(per_input)

    def _verify_signature(
        self,
        record: ProvenanceRecord,
        prev_checksums,
        failures: _Failures,
    ) -> None:
        if isinstance(prev_checksums, _PredecessorChoices):
            options = prev_checksums.combinations()
        else:
            options = iter([tuple(prev_checksums)])

        try:
            verifier = self.keystore.verifier_for(record.participant_id)
        except CertificateError as exc:
            failures.add("PKI", record.object_id, str(exc), seq_id=record.seq_id)
            return

        tried_any = False
        for prevs in options:
            try:
                payload = payloads.record_payload(record, prevs)
            except Exception as exc:  # malformed record shapes
                failures.add(
                    "STRUCT", record.object_id, str(exc), seq_id=record.seq_id
                )
                return
            tried_any = True
            if record_signature_valid(
                verifier, record, payload, self._root_cache
            ):
                return
        if tried_any:
            failures.add(
                "R1",
                record.object_id,
                f"checksum signature of participant "
                f"{record.participant_id!r} does not verify (record contents "
                "modified, record forged, or chain re-linked)",
                seq_id=record.seq_id,
            )

    # ------------------------------------------------------------------

    @staticmethod
    def _index(
        records: Sequence[ProvenanceRecord], failures: _Failures
    ) -> Dict[str, List[ProvenanceRecord]]:
        chains: Dict[str, List[ProvenanceRecord]] = {}
        seen = set()
        for record in records:
            if record.key in seen:
                failures.add(
                    "R3",
                    record.object_id,
                    f"duplicate record for seq {record.seq_id}",
                    seq_id=record.seq_id,
                )
                continue
            seen.add(record.key)
            chains.setdefault(record.object_id, []).append(record)
        for chain in chains.values():
            chain.sort(key=lambda r: r.seq_id)
        return chains


# ---------------------------------------------------------------------------
# parallel verification
# ---------------------------------------------------------------------------

#: Per-worker-process state, installed once by the pool initializer so each
#: task only ships a chunk of object ids, not the whole record set.
_WORKER_STATE: Dict[str, object] = {}


def _init_chain_worker(keystore: KeyStore, chains, obs_config=None, fault_spec=None) -> None:
    _WORKER_STATE["verifier"] = Verifier(keystore)
    _WORKER_STATE["chains"] = chains
    if fault_spec is not None:
        from repro.faults.plan import FaultPlan

        _WORKER_STATE["faults"] = FaultPlan.from_dict(fault_spec)
    else:
        _WORKER_STATE["faults"] = None
    # Fork inherits the parent's observability state (partial counters,
    # an open span stack); replace it with a clean per-worker setup.
    obs.apply_worker_config(obs_config)


def _fire_worker_fault(rule: "FaultRule", chunk_index: int) -> None:
    """Enact a scheduled ``verify.worker`` fault inside the worker.

    KILL dies the way a real OOM-kill or SIGKILL does (``os._exit``, no
    cleanup, breaks the pool); CRASH raises a picklable
    :class:`WorkerKilledError` the parent sees as the future's exception.
    Either way the parent re-verifies the chunk serially.
    """
    from repro.faults.plan import FaultKind

    if rule.kind is FaultKind.KILL:
        import os

        os._exit(1)
    if rule.kind is FaultKind.CRASH:
        raise WorkerKilledError(
            f"injected worker death at verify.worker#{chunk_index}"
        )
    if rule.kind is FaultKind.LATENCY:
        import time

        time.sleep(rule.latency)


def _check_chain_chunk(task):
    chunk_index, object_ids = task
    verifier: Verifier = _WORKER_STATE["verifier"]  # type: ignore[assignment]
    chains = _WORKER_STATE["chains"]
    plan = _WORKER_STATE.get("faults")
    if plan is not None:
        # decide(), not draw(): the chunk index — identical in every
        # process — keys the decision, so the schedule does not depend on
        # which worker happens to run which chunk.
        rule = plan.decide("verify.worker", chunk_index)
        if rule is not None:
            _fire_worker_fault(rule, chunk_index)
    failures = _Failures()
    checked = 0
    try:
        with obs.phase("verify.worker", chunk_size=len(object_ids)) as span:
            if span is not None:
                import os

                span.worker_pid = os.getpid()
            for object_id in object_ids:
                checked += verifier._check_chain(chains[object_id], chains, failures)
    finally:
        # Always restart the sinks empty, so a chunk that raised midway
        # cannot leak its partial counts into the next chunk's delta.
        delta = obs.capture_worker_delta()
    return failures.items, checked, delta


class ParallelVerifier(Verifier):
    """A :class:`Verifier` that fans per-object chains out over processes.

    §3.2's local chaining makes every object's chain independently
    verifiable (the parallelism a single global hash chain would
    destroy), so the record set is partitioned by ``object_id`` and each
    worker re-checks a contiguous slice of the sorted objects.  Cross-
    chain reads (aggregate predecessor resolution) are safe because the
    chain index is immutable during verification, and per-chunk failure
    lists are merged back in sorted-object order — reports are
    byte-identical to serial mode.

    A worker that dies mid-chunk — a real SIGKILL, a broken pool, or an
    injected ``verify.worker`` fault — does not fail the run: the parent
    re-verifies that chunk serially in-process (counted on the
    ``verify.degraded_chunks`` metric) and the merged report is still
    byte-identical to serial mode.

    Args:
        keystore: As for :class:`Verifier`.
        workers: Process count.  ``None`` (the default) is *adaptive*:
            the pool is sized to the CPU count but only engaged when the
            workload is large enough to amortize fork + pickle overhead
            (otherwise the run silently stays serial — the report is
            byte-identical either way).  An explicit integer always uses
            exactly that many workers; ``1`` means run serially
            in-process.
        faults: Optional :class:`~repro.faults.plan.FaultPlan`; its spec
            is shipped to every worker, which consults the
            ``verify.worker`` site keyed by chunk index.
    """

    #: Below this many chains the pool costs more than it saves.
    MIN_PARALLEL_CHAINS = 2
    #: Serial verify cost of one record, in microseconds, as
    #: ``VERIFY_BASE_US + VERIFY_RSA_US * (bits / 1024) ** 2``: rebuilding
    #: and hashing the payload, plus an RSA verify that grows with the
    #: square of the modulus.  Fitted to 38.8, 77.3 and 231.9 us measured
    #: at 512, 1024 and 2048 bits (2-vCPU host, best of 5).
    VERIFY_BASE_US = 26.0
    VERIFY_RSA_US = 51.0
    #: Adaptive mode only: what the pool costs, in the same units.  It
    #: pays once to start, and then per record (its workers fault in the
    #: pages they touch, and a busy host lends the second CPU only in
    #: part), so a pool of ``w`` workers is engaged only while
    #: ``work * (1 - 1/w)`` exceeds ``POOL_START_US + POOL_RECORD_US *
    #: records``; on two CPUs, from about 2,700 records at 512 bits and
    #: 750 at 1024 bits.  Fitted to pool-vs-serial runs on a 2-vCPU host
    #: (medians of ABBA-ordered runs, 2,400 to 24,000 records at 512
    #: bits, 512 to 8,000 at 1024 bits): the pool won 1.2x to 1.6x from
    #: 3,200 records at 512 bits and 1.3x to 1.45x from 1,024 at 1024
    #: bits, lost (0.89x to 0.96x) at 512 records of 1024 bits, and won
    #: only 1.05x to 1.25x at 2,400 records of 512 bits, too close to
    #: call.
    POOL_START_US = 20_000.0
    POOL_RECORD_US = 12.0
    #: Adaptive mode only: chunk-size floor for autotuning.  Tiny chunks
    #: maximize IPC round-trips per record; the tuner caps the chunk
    #: count so each chunk carries at least this many records.
    MIN_RECORDS_PER_CHUNK = 256

    def __init__(
        self,
        keystore: KeyStore,
        workers: Optional[int] = None,
        faults: Optional["FaultPlan"] = None,
    ):
        super().__init__(keystore)
        import os

        #: True when the caller left worker selection to us.  Explicit
        #: worker counts keep the historical fixed-fan-out behavior —
        #: chaos tests that kill chunk N rely on the chunk layout being a
        #: pure function of (workers, chain count).
        self.adaptive = workers is None
        self.workers = max(1, int(workers if workers is not None else (os.cpu_count() or 1)))
        self.faults = faults

    def _parallel_profitable(
        self, chains: Dict[str, List[ProvenanceRecord]]
    ) -> bool:
        """Adaptive-mode gate: is the pool likely to beat serial?

        Serial wins whenever there is only one CPU, fewer chains than
        workers (idle workers still pay fork costs), or when the verify
        work the pool would take off this process (records weighted by
        the verify cost of their signer's key size) does not pay for its
        start and per-record costs.  The decision affects only
        wall-clock, never the report.
        """
        if self.workers <= 1:
            return False
        if len(chains) < self.workers:
            return False
        costs: Dict[str, float] = {}
        work_us = 0.0
        records = 0
        for chain in chains.values():
            records += len(chain)
            for record in chain:
                cost = costs.get(record.participant_id)
                if cost is None:
                    cost = costs[record.participant_id] = self._verify_cost_us(
                        record.participant_id
                    )
                work_us += cost
        saved_us = work_us * (1 - 1 / self.workers)
        return saved_us > self.POOL_START_US + self.POOL_RECORD_US * records

    def _verify_cost_us(self, participant_id: str) -> float:
        """Serial verify cost of one of ``participant_id``'s records."""
        try:
            verifier = self.keystore.verifier_for(participant_id)
        except CertificateError:
            return self.VERIFY_BASE_US  # fails before any RSA work
        bits = verifier.verifiers[0].public_key.bits
        return self.VERIFY_BASE_US + self.VERIFY_RSA_US * (bits / 1024) ** 2

    def _check_chains(
        self, chains: Dict[str, List[ProvenanceRecord]], failures: _Failures
    ) -> int:
        if self.workers <= 1 or len(chains) < self.MIN_PARALLEL_CHAINS:
            return super()._check_chains(chains, failures)
        if self.adaptive and not self._parallel_profitable(chains):
            if OBS.enabled:
                OBS.registry.counter("verify.adaptive.serial").inc()
            return super()._check_chains(chains, failures)
        try:
            chunk_results = self._run_pool(chains)
        except Exception:
            # No usable process pool (restricted sandbox, unpicklable
            # custom scheme, ...): verification must still succeed.
            return super()._check_chains(chains, failures)
        checked = 0
        for chunk_index, chunk_ids, result in chunk_results:
            if result is None:
                # The worker died (or took the pool down with it).
                # Degrade gracefully: re-verify this chunk serially, in
                # place, so the failure list keeps the exact serial order.
                if OBS.enabled:
                    OBS.registry.counter("verify.degraded_chunks").inc()
                if self.faults is not None:
                    rule = self.faults.decide("verify.worker", chunk_index)
                    if rule is not None:
                        self.faults.record(
                            "verify.worker", chunk_index, rule.kind,
                            "chunk degraded to serial re-verification",
                        )
                for object_id in chunk_ids:
                    checked += self._check_chain(chains[object_id], chains, failures)
                continue
            items, chunk_checked, delta = result
            failures.items.extend(items)
            checked += chunk_checked
            if OBS.enabled:
                OBS.registry.counter("verify.worker.chunks").inc()
            obs.merge_worker_delta(delta)
        return checked

    def _run_pool(self, chains: Dict[str, List[ProvenanceRecord]]):
        import concurrent.futures
        import multiprocessing

        object_ids = sorted(chains)
        chunks = self._chunk(object_ids, chains)
        fault_spec = self.faults.to_dict() if self.faults is not None else None
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            mp_context = None
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)),
            mp_context=mp_context,
            initializer=_init_chain_worker,
            initargs=(self.keystore, chains, obs.worker_config(), fault_spec),
        ) as pool:
            # One future per chunk, gathered in submission order; chunks
            # are contiguous slices of the sorted ids, so concatenating
            # per-chunk failures reproduces the serial iteration order
            # exactly.  A future that raises — the worker was killed, or
            # its death broke the whole pool — yields ``None`` and the
            # caller re-verifies that chunk serially.
            futures = [
                pool.submit(_check_chain_chunk, (index, chunk))
                for index, chunk in enumerate(chunks)
            ]
            results = []
            for index, (chunk, future) in enumerate(zip(chunks, futures)):
                try:
                    results.append((index, chunk, future.result()))
                except Exception:
                    results.append((index, chunk, None))
            return results

    def _chunk(
        self,
        object_ids: List[str],
        chains: Optional[Dict[str, List[ProvenanceRecord]]] = None,
    ) -> List[List[str]]:
        # A few chunks per worker smooths out skewed chain lengths while
        # keeping IPC traffic (one message per chunk) negligible.
        n_chunks = min(len(object_ids), self.workers * 4)
        if self.adaptive and chains is not None:
            # Autotune: never split so finely that chunks fall below the
            # per-chunk record floor, but keep at least one chunk per
            # worker when the chain count allows it.
            total_records = sum(len(chains[oid]) for oid in object_ids)
            by_records = max(1, total_records // self.MIN_RECORDS_PER_CHUNK)
            floor = min(self.workers, len(object_ids))
            n_chunks = max(min(n_chunks, by_records), floor)
        size, extra = divmod(len(object_ids), n_chunks)
        chunks: List[List[str]] = []
        start = 0
        for i in range(n_chunks):
            end = start + size + (1 if i < extra else 0)
            chunks.append(object_ids[start:end])
            start = end
        return chunks

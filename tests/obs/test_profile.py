"""Phase-attributed profiler: attribution, sampling, merge, cost model."""

from __future__ import annotations

import pickle
import time

import pytest

from repro import obs
from repro.obs.export import to_json, to_prometheus
from repro.obs.profile import PHASES, CostModel, PhaseProfiler


@pytest.fixture
def profiler():
    """A profiler attached to OBS; detached again afterwards."""
    prof = obs.enable_profile(reset=True)
    yield prof
    obs.disable_profile()


class TestPhaseProfiler:
    def test_phase_counts_calls_and_time(self):
        prof = PhaseProfiler()
        for _ in range(3):
            with prof.phase("hash"):
                pass
        snap = prof.snapshot()
        assert snap["hash"]["calls"] == 3
        assert snap["hash"]["timed_calls"] == 3
        assert snap["hash"]["total_s"] >= 0.0

    def test_self_time_excludes_nested_children(self):
        prof = PhaseProfiler()
        with prof.phase("proof.build"):
            with prof.phase("rsa.sign"):
                time.sleep(0.02)
        snap = prof.snapshot()
        # The parent's total includes the child; its self time does not.
        assert snap["proof.build"]["total_s"] >= snap["rsa.sign"]["total_s"]
        assert snap["proof.build"]["self_s"] < snap["rsa.sign"]["total_s"]
        assert snap["rsa.sign"]["self_s"] == pytest.approx(
            snap["rsa.sign"]["total_s"]
        )

    def test_total_self_seconds_partitions_wall_time(self):
        prof = PhaseProfiler()
        with prof.phase("verify.chain"):
            with prof.phase("hash"):
                time.sleep(0.01)
            with prof.phase("rsa.verify"):
                time.sleep(0.01)
        snap = prof.snapshot()
        # Self times sum to (approximately) the outermost total.
        self_sum = sum(s["self_s"] for s in snap.values())
        assert self_sum == pytest.approx(
            snap["verify.chain"]["total_s"], rel=0.05
        )

    def test_reentrant_same_phase_not_double_counted(self):
        prof = PhaseProfiler()
        with prof.phase("hash"):
            with prof.phase("hash"):
                time.sleep(0.01)
        snap = prof.snapshot()
        assert snap["hash"]["calls"] == 2
        # Total is inclusive per entry, but self-time still partitions:
        # the inner entry's elapsed is subtracted from the outer's self.
        assert snap["hash"]["self_s"] <= snap["hash"]["total_s"]

    def test_sampling_counts_all_calls_times_some(self):
        prof = PhaseProfiler(sample_every=4)
        for _ in range(10):
            with prof.phase("store.io"):
                pass
        snap = prof.snapshot()
        assert snap["store.io"]["calls"] == 10
        assert snap["store.io"]["timed_calls"] == 3  # calls 1, 5, 9

    def test_sampling_scales_timed_seconds(self):
        prof = PhaseProfiler(sample_every=2)
        for _ in range(4):
            with prof.phase("journal"):
                time.sleep(0.005)
        sampled = prof.snapshot()["journal"]["total_s"]
        # 2 timed calls of ~5ms, scaled x2 ≈ the true ~20ms total.
        assert sampled == pytest.approx(0.02, rel=0.5)

    def test_dump_merge_roundtrip(self):
        a = PhaseProfiler()
        b = PhaseProfiler()
        with a.phase("hash"):
            pass
        with b.phase("hash"):
            pass
        with b.phase("rsa.sign"):
            pass
        dump = b.dump()
        pickle.dumps(dump)  # must survive a pool result queue
        a.merge(dump)
        snap = a.snapshot()
        assert snap["hash"]["calls"] == 2
        assert snap["rsa.sign"]["calls"] == 1

    def test_reset_clears_stats(self):
        prof = PhaseProfiler()
        with prof.phase("hash"):
            pass
        prof.reset()
        assert prof.snapshot() == {}
        assert prof.total_calls() == 0

    def test_render_mentions_every_phase(self):
        prof = PhaseProfiler()
        with prof.phase("hash"):
            pass
        with prof.phase("rsa.sign"):
            pass
        text = prof.render()
        assert "hash" in text and "rsa.sign" in text

    def test_threads_keep_separate_stacks(self):
        import threading

        prof = PhaseProfiler()

        def work():
            for _ in range(20):
                with prof.phase("hash"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert prof.snapshot()["hash"]["calls"] == 40


class TestInstrumentationSites:
    """The instrumented layers report into an attached profiler."""

    def test_workload_attributes_known_phases(self, profiler):
        from repro.core.system import TamperEvidentDatabase

        db = TamperEvidentDatabase(seed=7, key_bits=512)
        session = db.session(db.enroll("p"))
        session.insert("x", 1)
        session.update("x", 2)
        db.verify("x")
        snap = profiler.snapshot()
        for phase in ("hash", "rsa.sign", "rsa.verify", "store.io",
                      "collector.flush", "verify.chain"):
            assert phase in snap, f"phase {phase} never fired"
            assert snap[phase]["calls"] > 0
        # Every observed phase is part of the documented taxonomy.
        assert set(snap) <= set(PHASES)

    def test_merkle_batch_scheme_attributes_proof_phases(self, profiler):
        from repro.core.system import TamperEvidentDatabase

        db = TamperEvidentDatabase(
            seed=7, key_bits=512, signature_scheme="merkle-batch"
        )
        session = db.session(db.enroll("p"))
        with session.complex_operation():
            for i in range(4):
                session.insert(f"x{i}", i)
        db.verify("x0")
        snap = profiler.snapshot()
        for phase in ("proof.build", "proof.check", "merkle.leaf",
                      "merkle.root", "merkle.path"):
            assert phase in snap, f"phase {phase} never fired"

    def test_disabled_profiler_attributes_nothing(self):
        from repro.core.system import TamperEvidentDatabase

        obs.disable_profile()
        db = TamperEvidentDatabase(seed=7, key_bits=512)
        session = db.session(db.enroll("p"))
        session.insert("x", 1)
        assert obs.OBS.profiler is None


class TestSerialParallelAgreement:
    def test_parallel_verify_merges_worker_phase_counts(self):
        from repro.core.system import TamperEvidentDatabase
        from repro.core.verifier import ParallelVerifier, Verifier

        db = TamperEvidentDatabase(seed=13, key_bits=512)
        session = db.session(db.enroll("p"))
        for i in range(6):
            session.insert(f"obj{i}", i)
            session.update(f"obj{i}", i + 100)
        records = list(db.provenance_store.all_records())
        keystore = db.keystore()

        prof = obs.enable_profile(reset=True)
        try:
            Verifier(keystore).verify_records(records)
            serial = prof.snapshot()

            obs.enable_profile(reset=True)
            prof = obs.OBS.profiler
            ParallelVerifier(keystore, workers=2).verify_records(records)
            parallel = prof.snapshot()
        finally:
            obs.disable_profile()

        # Same work, same attribution: the verification phases agree on
        # call counts exactly (wall times cannot, so they are not
        # compared).  Parent-side phases (store reads, dispatch) differ
        # by design, so compare the per-record verification phases.
        for phase in ("verify.chain", "rsa.verify", "hash"):
            assert phase in serial and phase in parallel
            assert serial[phase]["calls"] == parallel[phase]["calls"], phase


class TestCostModel:
    def _profiler_with_work(self):
        prof = PhaseProfiler()
        for _ in range(4):
            with prof.phase("rsa.sign"):
                time.sleep(0.002)
        return prof

    def test_per_record_and_per_batch_attribution(self):
        prof = self._profiler_with_work()
        cost = CostModel.from_profiler(prof, records=8, batches=2)
        per_record = cost.per_record()
        per_batch = cost.per_batch()
        total = prof.snapshot()["rsa.sign"]["self_s"]
        assert per_record["rsa.sign"] == pytest.approx(total / 8)
        assert per_batch["rsa.sign"] == pytest.approx(total / 2)

    def test_to_dict_shape(self):
        cost = CostModel.from_profiler(self._profiler_with_work(), records=8)
        data = cost.to_dict()
        assert data["records"] == 8
        assert "rsa.sign" in data["phases"]
        assert "rsa.sign" in data["per_record_s"]
        assert data["total_self_s"] > 0

    def test_snapshot_feeds_existing_exporters(self):
        cost = CostModel.from_profiler(self._profiler_with_work(), records=8)
        snap = cost.snapshot()
        prom = to_prometheus(snap)
        assert 'repro_profile_phase_calls_total{phase="rsa.sign"} 4' in prom
        assert 'repro_cost_per_record_seconds{phase="rsa.sign"}' in prom
        assert "rsa.sign" in to_json(snap)

    def test_zero_records_yields_no_per_record_costs(self):
        cost = CostModel.from_profiler(self._profiler_with_work())
        assert cost.per_record() == {}
        assert cost.per_batch() == {}


class TestSwitchboard:
    def test_enable_profile_reuses_unless_reset(self):
        first = obs.enable_profile()
        second = obs.enable_profile()
        assert second is first
        third = obs.enable_profile(reset=True)
        assert third is not first
        obs.disable_profile()

    def test_enable_profile_new_sample_rate_replaces(self):
        first = obs.enable_profile(reset=True)
        second = obs.enable_profile(sample_every=8)
        assert second is not first
        assert second.sample_every == 8
        obs.disable_profile()

    def test_disable_profile_detaches_and_returns(self):
        prof = obs.enable_profile(reset=True)
        assert obs.disable_profile() is prof
        assert obs.OBS.profiler is None
        assert obs.disable_profile() is None

    def test_worker_config_carries_profiler(self):
        obs.enable_profile(reset=True, sample_every=4)
        try:
            config = obs.worker_config()
            assert config is not None
            assert config["profile"] == {"sample_every": 4}
        finally:
            obs.disable_profile()
        # Without any observability, there is nothing to ship.
        assert obs.worker_config() is None

    def test_apply_worker_config_installs_fresh_profiler(self):
        obs.enable_profile(reset=True, sample_every=4)
        config = obs.worker_config()
        parent = obs.OBS.profiler
        try:
            obs.apply_worker_config(config)
            worker_prof = obs.OBS.profiler
            assert worker_prof is not None
            assert worker_prof is not parent
            assert worker_prof.sample_every == 4
        finally:
            obs.disable(reset=True)
            obs.disable_profile()

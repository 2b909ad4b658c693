"""Structured event log: sinks, correlation ids, determinism, wiring."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.events import (
    EventLog,
    FileSink,
    RingBufferSink,
    current_correlation,
    read_events,
)


@pytest.fixture
def events_enabled():
    log = obs.enable_events()
    yield log
    obs.disable_events()


class TestEventLog:
    def test_emit_assigns_monotonic_seq(self):
        log = EventLog(sinks=(RingBufferSink(),))
        for i in range(5):
            log.emit("test.kind", index=i)
        assert [e.seq for e in log.ring.events()] == [0, 1, 2, 3, 4]

    def test_event_shape(self):
        log = EventLog(sinks=(RingBufferSink(),))
        log.emit("store.batch", records=3, store="memory")
        event = log.ring.events()[0]
        assert event.kind == "store.batch"
        assert event.fields == {"records": 3, "store": "memory"}
        data = event.to_dict()
        assert set(data) == {"seq", "kind", "ts", "corr", "trace_id", "fields"}

    def test_ring_buffer_caps_capacity(self):
        log = EventLog(sinks=(RingBufferSink(capacity=3),))
        for i in range(10):
            log.emit("k", i=i)
        kept = log.ring.events()
        assert len(kept) == 3
        assert [e.fields["i"] for e in kept] == [7, 8, 9]

    def test_ring_buffer_keeps_only_its_kinds(self):
        log = EventLog(sinks=(RingBufferSink(capacity=2, kinds={"alert"}),))
        log.emit("alert", i=0)
        for i in range(5):
            log.emit("http.request", i=i)
        log.emit("alert", i=1)
        kept = log.ring.events()
        assert [(e.kind, e.seq) for e in kept] == [("alert", 0), ("alert", 6)]

    def test_of_kind_filters(self):
        log = EventLog(sinks=(RingBufferSink(),))
        log.emit("a")
        log.emit("b")
        log.emit("a")
        assert len(log.ring.of_kind("a")) == 2

    def test_file_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sinks=(FileSink(str(path)),))
        log.emit("one", x=1)
        log.emit("two", y=[1, 2])
        log.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "one"
        assert first["fields"] == {"x": 1}

    def test_correlation_scope_threads_id(self):
        log = EventLog(sinks=(RingBufferSink(),))
        with log.correlation():
            log.emit("flush")
            log.emit("store")
        with log.correlation():
            log.emit("flush")
        events = log.ring.events()
        assert events[0].corr == events[1].corr
        assert events[2].corr != events[0].corr

    def test_correlation_ids_deterministic(self):
        log = EventLog(sinks=(RingBufferSink(),))
        assert log.new_correlation_id() == "c0"
        assert log.new_correlation_id() == "c1"

    def test_correlation_restored_after_scope(self):
        log = EventLog(sinks=(RingBufferSink(),))
        assert current_correlation() is None
        with log.correlation("outer"):
            assert current_correlation() == "outer"
            with log.correlation("inner"):
                assert current_correlation() == "inner"
            assert current_correlation() == "outer"
        assert current_correlation() is None

    def test_trace_id_attached_when_tracing(self, obs_enabled):
        log = obs.enable_events()
        try:
            with obs.OBS.tracer.span("outer"):
                log.emit("inside")
            log.emit("outside")
            inside, outside = log.ring.events()
            assert inside.trace_id is not None
            assert outside.trace_id is None
        finally:
            obs.disable_events()


class TestFileSinkEdgeCases:
    def test_emit_after_sink_close_is_dropped_not_fatal(self, tmp_path):
        # Shutdown race: the monitor closes sinks in a finally-block
        # while a late tick may still emit.
        path = tmp_path / "events.jsonl"
        log = EventLog(sinks=(FileSink(str(path)),))
        log.emit("before", n=1)
        log.close()
        event = log.emit("after", n=2)  # must not raise
        assert event.seq == 1  # the log still numbers it
        recorded = read_events(str(path))
        assert [e["kind"] for e in recorded] == ["before"]

    def test_concurrent_emit_preserves_monotonic_seq(self, tmp_path):
        import threading

        path = tmp_path / "events.jsonl"
        log = EventLog(sinks=(FileSink(str(path)),))
        per_thread = 50

        def emitter(tag):
            for i in range(per_thread):
                log.emit("concurrent", tag=tag, i=i)

        threads = [
            threading.Thread(target=emitter, args=(t,)) for t in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        recorded = read_events(str(path))
        assert len(recorded) == 2 * per_thread
        # Every seq claimed exactly once — no duplicates, no gaps …
        assert sorted(e["seq"] for e in recorded) == list(range(2 * per_thread))
        # … and each thread's own events appear in its emission order.
        for tag in ("a", "b"):
            own = [e["fields"]["i"] for e in sorted(
                recorded, key=lambda e: e["seq"]
            ) if e["fields"]["tag"] == tag]
            assert own == list(range(per_thread))

    def test_read_events_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sinks=(FileSink(str(path)),))
        log.emit("good.one", n=1)
        log.emit("good.two", n=2)
        log.close()
        # A torn line (crash mid-write), junk, a non-object line, and a
        # blank line — all must be skipped, not fatal.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "kind": "torn", "fie')
            fh.write("\nnot json at all\n")
            fh.write("[1, 2, 3]\n")
            fh.write("\n")
        recorded = read_events(str(path))
        assert [e["kind"] for e in recorded] == ["good.one", "good.two"]
        assert recorded[1]["fields"] == {"n": 2}


class TestFileSinkRotation:
    @staticmethod
    def _log(path, max_bytes, keep=3):
        return EventLog(
            sinks=(FileSink(str(path), max_bytes=max_bytes, keep=keep),)
        )

    def test_rotates_before_exceeding_max_bytes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = self._log(path, max_bytes=200)
        for i in range(20):
            log.emit("k", i=i)
        log.close()
        assert path.exists()
        assert (tmp_path / "events.jsonl.1").exists()
        # The live segment respects the cap (one event per segment min).
        assert len(path.read_bytes()) <= 200

    def test_keep_bounds_segment_count(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = self._log(path, max_bytes=120, keep=2)
        for i in range(60):
            log.emit("k", i=i)
        log.close()
        segments = sorted(p.name for p in tmp_path.iterdir())
        assert segments == ["events.jsonl", "events.jsonl.1", "events.jsonl.2"]

    def test_read_events_merges_segments_oldest_first(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = self._log(path, max_bytes=600, keep=10)
        total = 30
        for i in range(total):
            log.emit("k", i=i)
        log.close()
        recorded = read_events(str(path))
        # Nothing dropped (keep is generous) and order is emission order
        # even though the bytes are spread over many rotated segments.
        assert [e["fields"]["i"] for e in recorded] == list(range(total))
        assert [e["seq"] for e in recorded] == list(range(total))

    def test_read_events_survives_pruned_history(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = self._log(path, max_bytes=120, keep=1)
        for i in range(40):
            log.emit("k", i=i)
        log.close()
        recorded = read_events(str(path))
        # Old segments were pruned: what remains is a contiguous suffix.
        indices = [e["fields"]["i"] for e in recorded]
        assert indices == list(range(indices[0], 40))

    def test_oversized_single_event_still_written(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = self._log(path, max_bytes=64)
        log.emit("big", blob="x" * 500)  # larger than the whole cap
        log.emit("after", n=1)
        log.close()
        recorded = read_events(str(path))
        assert [e["kind"] for e in recorded] == ["big", "after"]

    def test_no_rotation_without_max_bytes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sinks=(FileSink(str(path)),))
        for i in range(50):
            log.emit("k", i=i)
        log.close()
        assert [p.name for p in tmp_path.iterdir()] == ["events.jsonl"]

    def test_missing_live_file_with_segments_still_reads(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = self._log(path, max_bytes=120)
        for i in range(20):
            log.emit("k", i=i)
        log.close()
        path.unlink()  # crashed between rotate and first write
        recorded = read_events(str(path))
        assert recorded  # rotated history alone is still readable

    def test_missing_everything_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_events(str(tmp_path / "absent.jsonl"))


class TestSwitchboard:
    def test_emit_is_noop_without_event_log(self):
        obs.disable_events()
        obs.emit("anything", x=1)  # must not raise

    def test_enable_disable_roundtrip(self):
        log = obs.enable_events()
        obs.emit("hello")
        assert len(log.ring) == 1
        obs.disable_events()
        assert obs.OBS.events is None

    def test_enable_events_without_ring(self, tmp_path):
        path = tmp_path / "e.jsonl"
        log = obs.enable_events(ring=0, path=str(path))
        try:
            assert log.ring is None
            obs.emit("k")
        finally:
            obs.disable_events()
        assert json.loads(path.read_text())["kind"] == "k"

    def test_worker_config_disables_events(self, events_enabled):
        # Events are single-writer: a pool worker adopting the parent's
        # obs config must NOT inherit the event log.
        config = obs.worker_config()
        state = obs.OBS
        try:
            obs.apply_worker_config(config)
            assert state.events is None
        finally:
            obs.disable(reset=True)

    def test_events_orthogonal_to_metrics(self, events_enabled):
        # Event emission works with metrics/tracing disabled entirely.
        assert not obs.OBS.enabled
        obs.emit("standalone", n=1)
        assert events_enabled.ring.events()[-1].fields == {"n": 1}


class TestPipelineEvents:
    def test_flush_store_and_verify_events_share_correlation(
        self, events_enabled, tedb, participants
    ):
        session = tedb.session(participants["p1"])
        session.insert("A", 1)
        session.update("A", 2)
        flushes = events_enabled.ring.of_kind("collector.flush")
        batches = events_enabled.ring.of_kind("store.batch")
        assert len(flushes) == 2
        assert len(batches) == 2
        # collector → store correlation: each flush's batch shares its id
        for flush, batch in zip(flushes, batches):
            assert flush.corr is not None
            assert flush.corr == batch.corr
        tedb.verify("A")
        reports = events_enabled.ring.of_kind("verify.report")
        assert len(reports) == 1
        assert reports[0].fields["ok"] is True

    def test_event_stream_deterministic_modulo_ts(self):
        def run():
            from repro.core.system import TamperEvidentDatabase

            log = obs.enable_events()
            try:
                db = TamperEvidentDatabase(seed=11, key_bits=512)
                session = db.session(db.enroll("p"))
                session.insert("x", 1)
                session.update("x", 2)
                db.verify("x")
                return [
                    {k: v for k, v in e.to_dict().items() if k != "ts"}
                    for e in log.ring.events()
                ]
            finally:
                obs.disable_events()

        assert run() == run()

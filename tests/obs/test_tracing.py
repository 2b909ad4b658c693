"""Tracer: span nesting, serialization, remote-context re-parenting."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.tracing import Span, Tracer, render_trace, trace_to_json


@pytest.fixture
def tracer():
    return Tracer()


class TestSpanNesting:
    def test_children_nest_under_parent(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child.a"):
                pass
            with tracer.span("child.b") as b:
                with tracer.span("grandchild"):
                    pass
        assert [c.name for c in root.children] == ["child.a", "child.b"]
        assert [c.name for c in b.children] == ["grandchild"]
        assert root.parent_id is None
        assert b.parent_id == root.span_id
        assert all(s.trace_id == root.trace_id for s in root.iter_spans())

    def test_finished_root_is_logged(self, tracer):
        with tracer.span("one"):
            pass
        assert tracer.last_trace().name == "one"

    def test_duration_positive_after_finish(self, tracer):
        with tracer.span("t") as s:
            pass
        assert s.duration >= 0.0
        assert s.end is not None

    def test_exception_marks_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom") as s:
                raise ValueError("x")
        assert s.attrs["error"] == "ValueError"
        assert tracer.last_trace() is s

    def test_trace_log_is_bounded(self, tracer):
        for i in range(Tracer.MAX_TRACES + 10):
            with tracer.span(f"t{i}"):
                pass
        assert len(tracer.traces) == Tracer.MAX_TRACES
        assert tracer.traces[-1].name == f"t{Tracer.MAX_TRACES + 9}"


class TestSerialization:
    def test_roundtrip_preserves_structure(self, tracer):
        with tracer.span("root", key="v") as root:
            with tracer.span("child"):
                pass
        clone = Span.from_dict(root.to_dict())
        assert clone.name == "root"
        assert clone.attrs == {"key": "v"}
        assert [c.name for c in clone.children] == ["child"]
        assert clone.duration == pytest.approx(root.duration)

    def test_trace_to_json(self, tracer):
        with tracer.span("root"):
            pass
        data = json.loads(trace_to_json(tracer.last_trace()))
        assert data["name"] == "root"
        assert data["children"] == []


class TestWallStart:
    def test_wall_start_is_epoch_time(self, tracer):
        import time

        before = time.time()
        with tracer.span("t") as s:
            pass
        assert before - 1.0 <= s.wall_start <= time.time() + 1.0

    def test_wall_start_roundtrips_to_dict(self, tracer):
        with tracer.span("t") as s:
            pass
        data = s.to_dict()
        assert data["wall_start"] == s.wall_start
        assert Span.from_dict(data).wall_start == s.wall_start

    def test_from_dict_defaults_missing_wall_start(self, tracer):
        with tracer.span("t") as s:
            pass
        data = s.to_dict()
        del data["wall_start"]  # dumps from before the field existed
        assert Span.from_dict(data).wall_start == 0.0

    def test_wall_start_preserved_through_worker_adoption(self):
        parent = Tracer()
        with parent.span("verify") as verify_span:
            worker = Tracer()
            worker.install_remote_context(parent.context())
            with worker.span("verify.worker") as worker_span:
                pass
            wall = worker_span.wall_start
            adopted = parent.adopt(worker.drain())
        assert adopted[0].wall_start == wall
        assert verify_span.children[0].wall_start == wall


class TestRemoteContext:
    def test_worker_spans_reparent_under_remote_parent(self):
        parent = Tracer()
        with parent.span("verify") as verify_span:
            context = parent.context()

            # Simulate the worker process.
            worker = Tracer()
            worker.install_remote_context(context)
            with worker.span("verify.worker"):
                with worker.span("verify.chain"):
                    pass
            shipped = worker.drain()
            assert worker.traces == []  # drained

            adopted = parent.adopt(shipped)
        assert [s.name for s in adopted] == ["verify.worker"]
        assert adopted[0].parent_id == verify_span.span_id
        assert adopted[0].trace_id == verify_span.trace_id
        names = [s.name for s in verify_span.iter_spans()]
        assert names == ["verify", "verify.worker", "verify.chain"]

    def test_adopt_without_open_span_logs_roots(self, tracer):
        worker = Tracer()
        worker.install_remote_context(("t1", "s1"))
        with worker.span("w"):
            pass
        tracer.adopt(worker.drain())
        assert tracer.last_trace().name == "w"


class TestRender:
    def test_render_tree_shape(self, tracer):
        with tracer.span("verify", records=3):
            with tracer.span("verify.chain", object_id="A"):
                pass
            with tracer.span("verify.chain", object_id="B"):
                pass
        text = render_trace(tracer.last_trace())
        lines = text.splitlines()
        assert lines[0].startswith("verify (records=3)")
        assert "|-- verify.chain (object_id=A)" in lines[1]
        assert "`-- verify.chain (object_id=B)" in lines[2]
        assert "ms" in lines[0]


class TestModuleHelpers:
    def test_worker_config_none_when_disabled(self, obs_disabled):
        assert obs.worker_config() is None

    def test_apply_worker_config_installs_fresh_state(self, obs_enabled):
        obs.OBS.registry.counter("inherited").inc()
        config = obs.worker_config()
        old_registry = obs.OBS.registry
        obs.apply_worker_config(config)
        assert obs.OBS.registry is not old_registry
        assert len(obs.OBS.registry) == 0
        assert obs.OBS.enabled and obs.OBS.tracing

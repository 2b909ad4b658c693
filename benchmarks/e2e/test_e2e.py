"""Tests of the end-to-end benchmark: answer checks, span reduction,
launcher self-check, the comparison rule, and a short smoke of every
workload.  Run with ``python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import dataclasses
import json

import pytest

import compare
import run
import traced_serve
from repro.service.client import ServiceHTTPError
from workloads import WORKLOADS, Caller


class FakeClient:
    """Answers every data-plane call with one fabricated reply."""

    def __init__(self, reply):
        self.reply = reply

    def _answer(self, *args, **kwargs):
        if isinstance(self.reply, Exception):
            raise self.reply
        return self.reply

    record = batch = verify = lineage = provenance = objects = _answer


def caller_with(reply, known: int = 3) -> Caller:
    """A caller owning object ``a`` of tenant ``t0`` with ``known`` records."""
    caller = Caller(WORKLOADS["audit"], 0, {"t0": FakeClient(reply)}, seed=0)
    caller.owned["t0"].append("a")
    caller.chains[("t0", "a")] = known
    return caller


def window(outcomes) -> run.Pass:
    samples = [run.Sample(o.klass, 1.0 + i, 0.001, o.records, o.error)
               for i, o in enumerate(outcomes)]
    return run.Pass([], samples, 1.0, 1.0 + len(samples), cpu_s=0.0, rss_mb=1.0)


def test_good_answers_pass_and_extend_the_known_chain():
    update = caller_with({"records": [{"object_id": "a", "seq_id": 3}]})
    outcomes = [
        update.update("t0"),
        caller_with({"ok": True, "records_checked": 3}).verify("t0"),
        caller_with({"records": [{}] * 3}).provenance("t0"),
        caller_with({"records": 3}).lineage("t0"),
        caller_with({"objects": ["a", "b"]}).objects("t0"),
    ]
    assert [o.error for o in outcomes] == [None] * 5
    assert update.chains[("t0", "a")] == 4
    assert run.end_to_end(window(outcomes))["failed_frac"][0] == 0.0


def test_each_bad_answer_counts_as_failed():
    bad = [
        caller_with({"ok": False, "records_checked": 3, "failures": ["R1"]}).verify("t0"),
        caller_with({"records": [{"object_id": "a", "seq_id": 4}]}).update("t0"),  # skipped seq
        caller_with({"records": [{}] * 2}).provenance("t0"),  # short chain
        caller_with(ServiceHTTPError(500, {"error": "boom"}, "POST", "/v1/record")).update("t0"),
        caller_with({"records": [{"seq_id": 3}]}).update("t0"),  # unreadable reply
    ]
    assert all(o.error for o in bad), bad
    good = caller_with({"ok": True, "records_checked": 3}).verify("t0")
    assert run.end_to_end(window(bad + [good]))["failed_frac"][0] == pytest.approx(5 / 6)


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(20)), 0.5) == 9
    assert run.percentile(list(range(19)), 0.5) is None
    assert run.percentile(list(range(1000)), 0.99) == 989


def test_layer_self_time_is_span_minus_children():
    ms = 1e-3
    dump = {
        "spans": [
            # id, name, start, end, parent, request, count
            (1, "service.http", 0.0, 10 * ms, None, 1, 1),
            (2, "service.core/verify", 1 * ms, 9 * ms, 1, 1, None),
            (3, "service.core.lock_wait", 1 * ms, 1.5 * ms, 2, 1, None),
            (4, "provenance.dag", 2 * ms, 6 * ms, 2, 1, None),
            (5, "provenance.store.append", 7 * ms, 8 * ms, 2, 1, 1),
            (6, "service.http", 50.0, 50.1, None, 6, 1),  # outside the window
        ],
        "marks": [
            ("service.http.dispatch", 0.0, 0.5 * ms, None, 1),
            ("provenance.store.scan", 2 * ms, 6 * ms, 1, 400),
            ("service.core.lock_hold", 1.5 * ms, 9 * ms, 1, None),
        ],
    }
    m = traced_serve.layer_metrics(dump, 0.0, 1.0, client_ms=[12.0])
    assert m["service.http.handle_ms"] == pytest.approx(10)
    assert m["service.http.self_ms"] == pytest.approx(2)
    assert m["service.core.self_ms"] == pytest.approx(8 - 0.5 - 4 - 1)
    assert m["service.core.lock_wait_ms"] == pytest.approx(0.5)
    assert m["service.core.lock_hold_ms"] == pytest.approx(7.5)
    assert m["provenance.dag.build_ms"] == pytest.approx(4)
    assert m["service.http.wire_ms"] == pytest.approx(2)
    assert m["provenance.store.records_scanned_per_audit"] == 400
    assert m["provenance.store.audit_appends_per_verify"] == 1
    assert m["trace.attributed_frac"] == pytest.approx(10.5 / 12)


def test_launcher_refuses_a_missing_function_and_installs_nothing():
    rec = traced_serve.Recorder()
    installed = []
    table = [("json", None, "dumps", installed.append),
             ("json", "JSONDecoder", "no_such_method", installed.append)]
    assert traced_serve.install(rec, table) == ["json.JSONDecoder.no_such_method"]
    assert installed == []


def test_compare_applies_the_pair_rule_and_bounds():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.judge_claim(parent, [p + 10 for p in parent], higher=True)[0]
    nine_wins = [p + 10 for p in parent[:9]] + [parent[9] - 1]
    assert compare.judge_claim(parent, nine_wins, higher=True)[0]
    eight_wins = nine_wins[:8] + [parent[8] - 1, parent[9] - 1]
    assert not compare.judge_claim(parent, eight_wins, higher=True)[0]
    assert compare.judge_bound(parent, [p * 0.85 for p in parent], True, 0.1)[0] == "regressed"
    assert compare.judge_bound(parent, [p * 0.95 for p in parent], True, 0.1)[0] == "ok"
    noisy = [50.0, 150.0] * 5
    assert compare.judge_bound(parent, noisy, True, 0.1)[0] == "unresolved"


def test_benchmark_json_agrees_with_the_harness():
    spec = run.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for m in spec["end_to_end"]:
        assert run.METRICS[m["name"]] == (m["unit"], m["better"]), m
    assert spec["paths"] == ["benchmarks/e2e"]


def test_smoke_every_workload_traced(tmp_path):
    """Short windows and small preloads; the launcher's must-fire check
    runs on every workload, and every per-layer metric is produced."""
    spec = run.benchmark_spec()
    for name, workload in WORKLOADS.items():
        small = dataclasses.replace(workload, preload_objects=min(workload.preload_objects, 20))
        result = run.run_workload(small, seed=3, seconds=0.6, trace=True, workdir=tmp_path,
                                  warmup=0.2, setups=1)
        assert result.correct, (name, result.errors[:3])
        assert result.attempted > 0 and result.failed == 0
        assert set(result.layers) == {m["name"] for m in spec["per_layer"]}
        json.dumps(result.to_dict())

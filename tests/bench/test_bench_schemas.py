"""The guarded benchmark scripts keep their ``BENCH_*.json`` schemas.

Each script runs once in ``--quick`` mode with ``--json`` pointed at a
temporary file.  The written JSON must have exactly the nested key set
of the committed ``BENCH_*.json`` file (the trust bench has none, so its
top-level keys are pinned here), and the exit code must agree with the
guard verdict recorded in that JSON — whichever way timing noise tips
the guard, the script must report it faithfully.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

TRUST_TOP_LEVEL_KEYS = {
    "meta",
    "workload",
    "update_append_s",
    "handoff_append_s",
    "handoff_cost",
    "solo_verify_per_record_s",
    "handoff_verify_per_record_s",
    "verify_overhead",
    "witness_anchor_tick_s",
    "witness_idle_tick_s",
    "idle_speedup",
    "guard",
}


def key_paths(node, prefix=()):
    """Every key path of a nested JSON object, e.g. ``("guard", "ok")``."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            path = prefix + (key,)
            paths.add(path)
            paths |= key_paths(value, path)
    return paths


def run_script(name, tmp_path):
    spec = importlib.util.spec_from_file_location(
        f"_schema_{name}", REPO / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / f"{name}.json"
    code = module.main(["--quick", "--json", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize(
    "script, committed",
    [
        ("bench_monitor", "BENCH_monitor.json"),
        ("bench_service", "BENCH_service.json"),
        ("bench_obs_overhead", "BENCH_obs_overhead.json"),
        ("bench_batch_throughput", "BENCH_throughput.json"),
        ("bench_trust", None),
    ],
)
def test_quick_run_keeps_committed_schema(script, committed, tmp_path, capsys):
    code, written = run_script(script, tmp_path)
    capsys.readouterr()
    if committed is None:
        assert set(written) == TRUST_TOP_LEVEL_KEYS
    else:
        pinned = json.loads((REPO / committed).read_text())
        assert key_paths(written) == key_paths(pinned)

    if script == "bench_batch_throughput":
        verdict = True  # guards are enforced only with --guard
    elif script == "bench_obs_overhead":
        verdict = written["guard"]["ok"] and written["service"]["guard"]["ok"]
    else:
        verdict = written["guard"]["ok"]
    assert code == (0 if verdict else 1)

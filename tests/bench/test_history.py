"""Bench history: entries, tolerant reading, gate semantics, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import history as bh
from repro.cli.main import main as cli_main


def entry_with(metrics, kind="gate", fingerprint="fp1", sha="deadbeef"):
    return {
        "kind": kind,
        "fingerprint": fingerprint,
        "metrics": metrics,
        "meta": {"git_sha": sha, "timestamp_utc": "2026-01-01T00:00:00Z"},
    }


class TestMeta:
    def test_collect_meta_shape(self):
        meta = bh.collect_meta()
        assert set(meta) == {
            "git_sha", "timestamp_utc", "hostname", "python", "cpu_count",
        }
        assert meta["cpu_count"] >= 1
        assert meta["timestamp_utc"].endswith("Z")

    def test_git_sha_marks_uncommitted_tracked_changes(self, tmp_path, monkeypatch):
        import subprocess

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, capture_output=True, text=True, check=True,
            ).stdout.strip()

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("v1\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "one")
        head = git("rev-parse", "HEAD")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "untracked.txt").write_text("scratch\n")
        assert bh.collect_meta()["git_sha"] == head
        (tmp_path / "tracked.txt").write_text("v2\n")
        dirty = bh.collect_meta()["git_sha"]
        assert dirty == head + "-dirty"
        # `repro bench compare` still finds the entry by a SHA prefix.
        history = str(tmp_path / "hist.jsonl")
        bh.append_entry(history, entry_with({"m": 1.0}, sha="0" * 40))
        bh.append_entry(history, entry_with({"m": 2.0}, sha=dirty))
        assert bh.find_by_sha(bh.read_history(history), head[:7])["metrics"] == {
            "m": 2.0
        }
        assert cli_main(
            ["bench", "--history", history, "compare", "0000000", head[:7]]
        ) == 0

    def test_with_meta_preserves_metrics(self):
        payload = bh.with_meta({"guard": {"ok": True}})
        assert payload["guard"] == {"ok": True}
        assert "git_sha" in payload["meta"]

    def test_flatten_metrics(self):
        flat = bh.flatten_metrics({
            "guard": {"ok": True, "bound": 0.01},
            "arms": {"append": {"off_s": 1.5}},
            "name": "ignored-string",
        })
        assert flat == {
            "guard.ok": 1.0, "guard.bound": 0.01, "arms.append.off_s": 1.5,
        }


class TestHistoryFile:
    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        bh.append_entry(path, entry_with({"m": 1.0}))
        bh.append_entry(path, entry_with({"m": 2.0}))
        entries = bh.read_history(path)
        assert [e["metrics"]["m"] for e in entries] == [1.0, 2.0]

    def test_read_history_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text(
            json.dumps(entry_with({"m": 1.0})) + "\n"
            + '{"torn": tr\n'          # torn mid-write
            + "[1, 2]\n"               # not an object
            + '{"kind": "gate"}\n'     # object but no metrics
            + "\n"
            + json.dumps(entry_with({"m": 2.0})) + "\n"
        )
        entries = bh.read_history(str(path))
        assert [e["metrics"]["m"] for e in entries] == [1.0, 2.0]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert bh.read_history(str(tmp_path / "nope.jsonl")) == []

    def test_find_by_sha_prefix_returns_latest(self):
        entries = [
            entry_with({"m": 1.0}, sha="abc111"),
            entry_with({"m": 2.0}, sha="abc111"),
            entry_with({"m": 3.0}, sha="def222"),
        ]
        assert bh.find_by_sha(entries, "abc")["metrics"]["m"] == 2.0
        assert bh.find_by_sha(entries, "zzz") is None

    def test_fingerprint_stable_and_parameter_sensitive(self):
        a = bh.workload_fingerprint({"x": 1, "y": 2})
        b = bh.workload_fingerprint({"y": 2, "x": 1})
        c = bh.workload_fingerprint({"x": 1, "y": 3})
        assert a == b
        assert a != c


class TestGateCheck:
    SPEC = {"sign.rsa.per_record_s": "lower"}

    def history(self, *values):
        return [entry_with({"sign.rsa.per_record_s": v}) for v in values]

    def test_within_tolerance_passes(self):
        current = entry_with({"sign.rsa.per_record_s": 1.05})
        regs, compared = bh.gate_check(
            current, self.history(1.0, 1.0, 1.0), 5, 0.10, metrics=self.SPEC
        )
        assert regs == [] and compared == 3

    def test_regression_beyond_tolerance_fails(self):
        current = entry_with({"sign.rsa.per_record_s": 1.2})
        regs, _ = bh.gate_check(
            current, self.history(1.0, 1.0, 1.0), 5, 0.10, metrics=self.SPEC
        )
        assert len(regs) == 1
        assert regs[0]["metric"] == "sign.rsa.per_record_s"
        assert regs[0]["ratio"] == pytest.approx(1.2)

    def test_median_absorbs_one_outlier(self):
        # One anomalously fast baseline entry must not fail honest runs.
        current = entry_with({"sign.rsa.per_record_s": 1.05})
        regs, _ = bh.gate_check(
            current, self.history(0.2, 1.0, 1.0), 5, 0.10, metrics=self.SPEC
        )
        assert regs == []

    def test_baseline_window_takes_last_n(self):
        # Old slow entries outside the window are ignored.
        current = entry_with({"sign.rsa.per_record_s": 1.5})
        regs, compared = bh.gate_check(
            current, self.history(9.0, 9.0, 1.0, 1.0), 2, 0.10,
            metrics=self.SPEC,
        )
        assert compared == 2
        assert len(regs) == 1

    def test_no_comparable_history_passes_vacuously(self):
        current = entry_with({"sign.rsa.per_record_s": 99.0})
        regs, compared = bh.gate_check(current, [], 5, 0.10, metrics=self.SPEC)
        assert regs == [] and compared == 0
        # A different fingerprint is not comparable either.
        other = self.history(1.0)
        other[0]["fingerprint"] = "other"
        regs, compared = bh.gate_check(
            current, other, 5, 0.10, metrics=self.SPEC
        )
        assert regs == [] and compared == 0

    def test_higher_is_better_direction(self):
        spec = {"speedup": "higher"}
        current = entry_with({"speedup": 0.8})
        regs, _ = bh.gate_check(
            current, [entry_with({"speedup": 1.0})], 5, 0.10, metrics=spec
        )
        assert len(regs) == 1

    def test_compare_entries_ratio(self):
        a = entry_with({"m": 1.0, "only_a": 5.0})
        b = entry_with({"m": 2.0})
        rows = {name: (va, vb, ratio)
                for name, va, vb, ratio in bh.compare_entries(a, b)}
        assert rows["m"][2] == pytest.approx(2.0)
        assert rows["only_a"] == (5.0, None, None)


class TestGateWorkload:
    def test_clean_run_passes_against_own_baseline(self, tmp_path):
        """Acceptance: clean gate exits 0, injected slowdown exits non-0.

        The baseline is recorded immediately before gating (same
        machine, same load), which is exactly how the CI job uses it.
        """
        path = str(tmp_path / "hist.jsonl")
        metrics, profile, params = bh.run_gate_workload()
        fingerprint = bh.workload_fingerprint(params)
        bh.append_entry(
            path, bh.make_entry("gate", fingerprint, metrics, profile=profile)
        )

        assert cli_main([
            "bench", "--history", path, "gate",
            "--baseline", "3", "--tolerance", "0.50",
        ]) == 0

        assert cli_main([
            "bench", "--history", path, "gate",
            "--baseline", "3", "--tolerance", "0.10",
            "--inject-slowdown", "1.0",
        ]) == 1

    def test_workload_reports_gated_metrics_and_profile(self):
        metrics, profile, params = bh.run_gate_workload()
        for name in bh.GATE_METRICS:
            assert metrics[name] > 0
        assert "rsa.sign" in profile
        assert "verify.chain" in profile
        # The profiler detaches afterwards (no leakage into other tests).
        from repro import obs

        assert obs.OBS.profiler is None


class TestBenchCli:
    def test_record_and_report(self, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        bh.append_entry(path, entry_with(
            {"sign.rsa.per_record_s": 0.001}, sha="abc123"
        ))
        assert cli_main(["bench", "--history", path, "report"]) == 0
        out = capsys.readouterr().out
        assert "abc123" in out
        assert "0.001" in out

    def test_compare_unknown_sha_errors(self, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        bh.append_entry(path, entry_with({"m": 1.0}, sha="abc123"))
        assert cli_main(["bench", "--history", path,
                         "compare", "abc123", "zzz"]) == 2

    def test_compare_renders_ratio(self, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        bh.append_entry(path, entry_with({"m": 1.0}, sha="aaa111"))
        bh.append_entry(path, entry_with({"m": 2.0}, sha="bbb222"))
        assert cli_main(["bench", "--history", path,
                         "compare", "aaa111", "bbb222"]) == 0
        assert "2.000x" in capsys.readouterr().out


class TestVersionCli:
    def test_version_subcommand_prints_package_version(self, capsys):
        from repro import __version__

        assert cli_main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_pyproject_reads_version_from_package(self):
        from pathlib import Path

        from repro import __version__

        pyproject = (
            Path(__file__).resolve().parents[2] / "pyproject.toml"
        ).read_text()
        # Single source of truth: pyproject must defer to the package …
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = { attr = "repro.__version__" }' in pyproject
        # … and never carry its own copy.
        assert f'version = "{__version__}"' not in pyproject

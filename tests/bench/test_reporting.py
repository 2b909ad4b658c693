"""Unit tests for paper-style reporting."""

from repro.bench.reporting import banner, format_kv, format_table


class TestFormatTable:
    def test_alignment(self):
        text = format_table(("name", "n"), [("a", 1), ("long-name", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        # all rows same width
        assert len({len(line.rstrip()) for line in lines[2:]}) <= 2

    def test_wide_cells_stretch_columns(self):
        text = format_table(("x",), [("very-wide-cell",)])
        assert "very-wide-cell" in text

    def test_empty_rows(self):
        text = format_table(("a", "b"), [])
        assert len(text.splitlines()) == 2


class TestFormatKv:
    def test_aligned_keys(self):
        text = format_kv([("short", 1), ("much-longer-key", 2)])
        lines = text.splitlines()
        assert lines[0].index(":") == lines[1].index(":")

    def test_empty(self):
        assert format_kv([]) == ""


class TestBanner:
    def test_banner_shape(self):
        text = banner("Title")
        lines = text.splitlines()
        assert lines[0] == lines[2]
        assert lines[1] == "Title"


class TestExperimentResult:
    def test_render_contains_all_parts(self):
        from repro.bench.experiments import ExperimentResult

        result = ExperimentResult("figX", "A Title", ("col1", "col2"))
        result.add("v1", "v2")
        result.note("a note")
        text = result.render()
        assert "figX: A Title" in text
        assert "col1" in text and "v1" in text
        assert "note: a note" in text

    def test_guard_notes_and_verdict(self):
        from repro.bench.experiments import ExperimentResult

        result = ExperimentResult("figX", "A Title", ("col1",))
        assert result.guard(True, "fast enough") is True
        assert result.guards_ok
        assert result.guard(False, "too slow") is False
        assert not result.guards_ok
        assert result.notes == ["GUARD OK: fast enough", "GUARD FAILED: too slow"]


def test_importing_reporting_loads_no_experiments_or_scipy():
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys, repro.bench.reporting; "
        "print('scipy' in sys.modules, 'repro.bench.experiments' in sys.modules)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(src)}, check=True,
    )
    assert completed.stdout.split() == ["False", "False"]

"""The phase vocabulary is closed: sites and table name the same regions.

An AST scan of ``src/repro`` finds every ``.phase(...)`` call — ``with``
blocks and decorators alike — and checks it against
:data:`repro.obs.profile.PHASES`: each is ``obs.phase`` with a literal
name from the table that passes every attribute its histogram is
labelled by (and, as a decorator, nothing else), and each table entry
is opened by at least one site.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Tuple

import repro
from repro.obs.profile import PHASES

SRC = Path(repro.__file__).resolve().parent


def _phase_calls() -> List[Tuple[str, int, ast.Call, bool]]:
    """Every ``.phase(...)`` call: ``(file, line, call, is_decorator)``."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = {
            id(decorator)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for decorator in node.decorator_list
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "phase"
            ):
                where = str(path.relative_to(SRC))
                calls.append((where, node.lineno, node, id(node) in decorators))
    return calls


def _sites() -> Dict[str, List[str]]:
    """Vocabulary name -> the ``file:line`` sites that open it."""
    sites: Dict[str, List[str]] = {}
    for where, line, call, decorator in _phase_calls():
        func = call.func
        assert isinstance(func.value, ast.Name) and func.value.id == "obs", (
            f"{where}:{line}: timed regions go through obs.phase, not "
            f"{ast.unparse(func)}"
        )
        assert call.args and isinstance(call.args[0], ast.Constant), (
            f"{where}:{line}: obs.phase needs a literal vocabulary name"
        )
        name = call.args[0].value
        assert name in PHASES, f"{where}:{line}: {name!r} is not in PHASES"
        passed = {keyword.arg for keyword in call.keywords}
        labels = set(PHASES[name].labels)
        assert labels <= passed, (
            f"{where}:{line}: {name!r} must pass its histogram labels "
            f"{labels - passed}"
        )
        # A decorator's attributes are fixed once, at import: only
        # histogram labels make sense there.
        assert not decorator or passed <= labels, (
            f"{where}:{line}: a decorated {name!r} may pass only its "
            f"histogram labels, not {passed - labels}"
        )
        sites.setdefault(name, []).append(f"{where}:{line}")
    return sites


def test_every_site_uses_a_vocabulary_name():
    assert _sites(), "no obs.phase sites found under src/repro"


def test_every_vocabulary_entry_has_a_site():
    unused = sorted(set(PHASES) - set(_sites()))
    assert not unused, f"PHASES entries no site opens: {unused}"


def test_table_entries_are_well_formed():
    for name, entry in PHASES.items():
        assert entry.name == name
        assert entry.profile or entry.span or entry.histogram, name
        if entry.labels:
            assert entry.histogram, f"{name}: labels without a histogram"

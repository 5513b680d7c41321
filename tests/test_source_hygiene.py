"""Static checks on the package source."""

import ast
import importlib.util
import pathlib

import pytest

import coop_lsvi

SRC = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "coop_lsvi").glob("*.py"))


def test_sources_found():
    assert any(p.name == "agent.py" for p in SRC)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariants must raise real exceptions: ``python -O`` strips asserts."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def test_exports_resolve():
    """An export deleted from its module but left in ``__all__`` fails here."""
    missing = [name for name in coop_lsvi.__all__ if not hasattr(coop_lsvi, name)]
    assert missing == []


def test_traced_names_exist():
    """Every name the benchmark's span tracer wraps is defined by its owner.

    The tracer reads each original from ``vars(owner)``, so a renamed or
    deleted method would otherwise break only traced benchmark runs.
    """
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.layer_targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert targets
    assert missing == []

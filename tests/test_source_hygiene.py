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


def _named_constants(tree: ast.Module) -> set[int]:
    """ids of the values of module-level UPPER_CASE assignments."""
    return {id(stmt.value) for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            and all(isinstance(t, ast.Name) and t.id.isupper() for t in stmt.targets)}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_tolerances_are_named(path):
    """A tolerance-sized float literal (0 < |x| < 1e-6) is bound to a
    module-level UPPER_CASE name, where its reason can be given once."""
    tree = ast.parse(path.read_text(), filename=str(path))
    named = _named_constants(tree)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0 < abs(node.value) < 1e-6 and id(node) not in named]
    assert lines == [], f"{path.name}: unnamed tolerance literals at lines {lines}"


def _write_targets(node: ast.AST):
    """Attribute and subscript targets of an assignment, tuples unpacked."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _write_targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _write_targets(node.value)
    elif isinstance(node, (ast.Attribute, ast.Subscript)):
        yield node


def test_server_writes_no_agent_state():
    """The server only reads agents: every object it writes is rooted at
    ``self``, so an agent's parameters have one writer, the agent."""
    path = next(p for p in SRC if p.name == "server.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in (t for tgt in targets for t in _write_targets(tgt)):
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id == "self"):
                bad.append(target.lineno)
    assert bad == [], f"server.py: writes outside self at lines {bad}"

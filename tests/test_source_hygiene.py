"""Static checks on the package source."""

import argparse
import ast
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import coop_lsvi
from coop_lsvi.agent import LsviAgent, QParams
from coop_lsvi.cli import build_parser
from coop_lsvi.configio import config_hash, parse_config
from coop_lsvi.psdmat import DiagonalPsdMatrix
from coop_lsvi.schedules import INIT_STATE_KINDS
from coop_lsvi.server import CentralServer

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "coop_lsvi").glob("*.py"))


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
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.layer_targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert targets
    assert missing == []


def test_only_psdmat_names_the_dense_class():
    """Agents and servers build diagonal covariances themselves; the dense
    reference is defined and exported, and put in by tests on purpose."""
    naming = [p.name for p in SRC if re.search(r"\bPsdMatrix\b", p.read_text())]
    assert naming == ["__init__.py", "psdmat.py"]


def test_covariances_are_diagonal_by_construction():
    covs = [*QParams(4, 2, 1.0, 0.5).cov, *LsviAgent(1, 4, 2, 0.5, 1.0, 0.5).qparams.cov,
            *CentralServer(4, 2, 1.0).cov]
    assert len(covs) == 6 and all(type(c) is DiagonalPsdMatrix for c in covs)


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


def test_private_state_is_read():
    """Every private attribute stored on ``self`` in the package is read
    somewhere in it, so state a refactor stopped using cannot linger. A write
    into an element (``self._x[i] = ...``) or an augmented assignment is not a
    read."""
    stored, read = {}, set()
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        written = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                written.update(id(t.value) for tgt in targets for t in _write_targets(tgt)
                               if isinstance(t, ast.Subscript))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            if isinstance(node.ctx, ast.Load) and id(node) not in written:
                read.add(node.attr)
            elif (isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name)
                  and node.value.id == "self" and not node.attr.startswith("__")):
                stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
    assert stored
    assert {name: where for name, where in stored.items() if name not in read} == {}


# Process-wide state in the package: every functools cache and every
# module-level name rebound through ``global``, each with why it is safe. A
# cache keyed on a run's seeds, schedule or uniforms would hit only when a run
# repeats an earlier one, as the benchmark's timed loop does, and one keyed on
# its policies would tie a run's work to the runs before it, so adding any
# cache is a reviewed decision: an entry here.
PROCESS_STATE = {
    "mdp.identity": "one read-only eye(d), a function of d alone",
    "streams._jump_tables": "PCG64's read-only jump-ahead tables of up to 64 entries, "
                            "constants of the generator (2 KB in all)",
    "harness._shared": "the last hard or random instance of at most 2**20 table "
                       "entries and its plan, frozen and read-only, keyed on every "
                       "[mdp] field build_mdp reads",
}

_FUNCTOOLS_CACHES = {"cache", "lru_cache", "cached_property"}


def _process_state(path: pathlib.Path) -> list[str]:
    """``module.function`` of each functools-cached function, ``module.name``
    of each name declared ``global``, and ``module:line`` of any other use of
    a functools cache."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [(node, alias) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    modules = {a.asname or a.name for n, a in imports
               if isinstance(n, ast.Import) and a.name == "functools"}
    names = {a.asname or a.name for n, a in imports if isinstance(n, ast.ImportFrom)
             and n.module == "functools" and a.name in _FUNCTOOLS_CACHES}

    def is_cache(node):
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in _FUNCTOOLS_CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules)

    module, found, decorating = path.stem, [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                hits = [id(n) for n in ast.walk(dec) if is_cache(n)]
                found += [f"{module}.{node.name}"] if hits else []
                decorating.update(hits)
        elif isinstance(node, ast.Global):
            found.extend(f"{module}.{name}" for name in node.names)
    found.extend(f"{module}:{node.lineno}" for node in ast.walk(tree)
                 if is_cache(node) and id(node) not in decorating)
    return found


def test_process_wide_state_is_listed():
    """Every cache and global the package keeps across calls is in
    PROCESS_STATE with its reason, and every entry there still exists."""
    found = sorted({entry for path in SRC for entry in _process_state(path)})
    assert found == sorted(PROCESS_STATE)


def _imported_roots(tree: ast.Module):
    """(line, top-level package) of every absolute import in the module,
    function-local ones included; a relative import is the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    """numpy is the package's one runtime dependency: any other import fails
    here rather than on a clean install."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "coop_lsvi"}
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [(line, root) for line, root in _imported_roots(tree) if root not in allowed]
    assert bad == [], f"{path.name}: imports outside numpy and the standard library: {bad}"


def _random_calls(node: ast.AST, function=None):
    """(innermost enclosing function, line) of every ``.random(`` call."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "random"):
            yield function, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        yield from _random_calls(child, inner or function)


@pytest.mark.parametrize("name", ["harness.py", "agent.py", "server.py", "mdp.py"])
def test_run_path_draws_no_random_numbers(name):
    """The run path's randomness enters only as the arrays ``streams``
    precomputes: a step reads its uniform, it draws none, and
    mdp.random_tabular takes its tables from streams.default_rng_random."""
    tree = ast.parse((ROOT / "src" / "coop_lsvi" / name).read_text())
    assert list(_random_calls(tree)) == []


def test_test_imports_are_declared():
    """Every third-party module the tests and perfbench import is named in
    pyproject's dependencies or its test extra, so an environment built from
    pyproject alone collects every test file."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].lower()
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    files = [p for d in ("tests", "perfbench", "perfbench/tests") for p in (ROOT / d).glob("*.py")]
    local = {p.stem for p in files} | {"coop_lsvi"}
    imported = {root for p in files for _, root in _imported_roots(ast.parse(p.read_text()))}
    assert imported - set(sys.stdlib_module_names) - local - declared == set()


# Runs in a fresh interpreter: every run path of the package, then the dense
# PsdMatrix's Cholesky refresh, reporting whether scipy was ever loaded.
_RUN_PATH_PROBE = textwrap.dedent("""
    import json, sys
    import coop_lsvi
    from coop_lsvi import cli
    from coop_lsvi.harness import RunConfig, run_experiment
    from coop_lsvi.psdmat import PsdMatrix
    from coop_lsvi.server import ProtocolKind

    out, run_cfg, sweep_cfg = sys.argv[1:]
    for p in ProtocolKind:
        run_experiment(RunConfig(mdp_d=8, mdp_horizon=3, M=2, K=30, protocol=p.value,
                                 diagnostics=True))
    codes = [cli.main(["run", "--config", run_cfg, "--out", out + "/run", "--svg"]),
             cli.main(["sweep", "--config", sweep_cfg, "--out", out + "/sweep"])]
    m = PsdMatrix(3, 1.0)
    m.refresh()
    print(json.dumps({"codes": codes, "logdet": m.logdet, "scipy": "scipy" in sys.modules}))
""")


def test_run_path_imports_no_scipy(tmp_path):
    """The package never loads scipy: a run, the CLI's run and sweep, every
    protocol and the dense PsdMatrix.refresh use numpy and the standard
    library only."""
    body = "[mdp]\nkind = hard\nd = 8\nH = 3\n\n[run]\nM = 2\nK = 20\ndiagnostics = on\n"
    (tmp_path / "run.cfg").write_text(body)
    (tmp_path / "sweep.cfg").write_text(body + "\n[sweep]\nseeds = 0..1\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PATH_PROBE, str(tmp_path),
         str(tmp_path / "run.cfg"), str(tmp_path / "sweep.cfg")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0], "logdet": 0.0, "scipy": False}


# Runs in a fresh interpreter: the instance whose [mdp] section is argv[2]
# through the benchmark's pipeline under every protocol and schedule kind, the
# initial-state kinds named in argv[3], and diagnostics on and off, then
# config_hash of the config text in argv[1] once the modules are counted. Run i
# fills the section's {seed}, so a random instance is drawn anew for each run.
_INSTANCE_RUN_PROBE = textwrap.dedent("""
    import itertools, json, sys
    from coop_lsvi.configio import config_hash, parse_config
    from coop_lsvi.harness import metrics_csv_text, run_experiment
    from coop_lsvi.schedules import SCHEDULE_KINDS
    from coop_lsvi.server import ProtocolKind

    hashed, mdp, inits = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
    complete = 0
    for i, (p, kind, init, diag) in enumerate(itertools.product(
            ProtocolKind, SCHEDULE_KINDS, inits, ("on", "off"))):
        cfg = parse_config(mdp.format(seed=i) + f"[run]\\nM = 3\\nK = 12\\n"
                           f"protocol = {p.value}\\ndiagnostics = {diag}\\n"
                           f"[schedule]\\nkind = {kind}\\n[init_state]\\nkind = {init}\\n")
        complete += metrics_csv_text(run_experiment(cfg)).count("\\n") == 1 + 12
    loaded = sorted({"numpy.random", "_hashlib"} & set(sys.modules))
    print(json.dumps({"complete": complete, "loaded": loaded,
                      "hash": config_hash(parse_config(hashed).resolved())}))
""")


def _instance_run_probe(hashed: str, mdp: str, inits: tuple[str, ...]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _INSTANCE_RUN_PROBE, hashed, mdp,
                           ",".join(inits)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1.x imports numpy.random with numpy itself")
def test_hard_runs_import_neither_numpy_random_nor_openssl():
    """A hard-instance run draws its schedules through
    streams.default_rng_integers and hashes no config, so it loads neither
    numpy.random nor hashlib's OpenSSL module (about 6 MB and 14 ms)."""
    hashed = "[mdp]\nkind = hard\n[run]\nM = 4\n[schedule]\nkind = bursty\n"
    report = _instance_run_probe(hashed, "[mdp]\nkind = hard\nd = 8\nH = 3\n", INIT_STATE_KINDS)
    assert report == {"complete": 4 * 5 * 3 * 2, "loaded": [],
                      "hash": config_hash(parse_config(hashed).resolved())}


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1.x imports numpy.random with numpy itself")
def test_random_runs_import_neither_numpy_random_nor_openssl():
    """A random instance draws its tables through streams.default_rng_random,
    so its runs load neither numpy.random nor OpenSSL either. ``epoch``
    initial states are refused on a random instance."""
    hashed = "[mdp]\nkind = random\nseed = 5\n[run]\nM = 4\n[schedule]\nkind = bursty\n"
    mdp = "[mdp]\nkind = random\nn_states = 5\nn_actions = 3\nH = 3\nseed = {seed}\n"
    report = _instance_run_probe(hashed, mdp, ("fixed", "uniform_random"))
    assert report == {"complete": 4 * 5 * 2 * 2, "loaded": [],
                      "hash": config_hash(parse_config(hashed).resolved())}


def test_readme_cli_synopsis_names_every_subcommand():
    """The ``coop-lsvi <cmd>`` lines of README's ``## CLI`` code block name
    exactly the subcommands the parser defines."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    documented = [line.split()[1] for line in block.splitlines()
                  if line.startswith("coop-lsvi ")]
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert sorted(documented) == sorted(sub.choices)

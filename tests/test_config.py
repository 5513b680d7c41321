"""Tests for config parsing, defaulting, echo round-trips, and sweep specs."""

import dataclasses
import pathlib
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coop_lsvi.cli import main
from coop_lsvi.configio import (_AXES, _FIELDS, SweepSpec, config_hash,
                                emit_config, expand_sweep, parse_config,
                                parse_config_file)
from coop_lsvi.harness import MAX_DESIGN_ENTRIES, ConfigError, RunConfig
from coop_lsvi.mdp import random_tabular, write_mdp
from coop_lsvi.psdmat import MIN_RIDGE
from coop_lsvi.schedules import SCHEDULE_KINDS, SEEDED_SCHEDULE_KINDS
from coop_lsvi.server import ProtocolKind

CONFIGS = sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))

MINIMAL = """
[mdp]
kind = hard
d = 8
H = 3

[run]
M = 4
K = 1000
"""


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert isinstance(cfg, RunConfig)
        resolved = cfg.resolved()
        assert resolved.alpha == 0.0625       # 1 / M^2
        assert resolved.ridge == 1.0
        assert resolved.protocol == "async_trigger"
        assert resolved.beta_mode == "practical" and resolved.beta_value == 0.1
        assert resolved.init_state == "epoch"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# top comment\n" + MINIMAL + "\n# trailing\n")
        assert cfg.M == 4

    def test_alpha_zero_rejected_with_line(self):
        text = MINIMAL + "alpha = 0\n"
        with pytest.raises(ConfigError, match=r"line \d+.*alpha"):
            parse_config(text)

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 3: unknown key"):
            parse_config("[run]\nK = 5\nwat = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\nx = 1\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config("K = 5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[run]\nK = 5\nK = 6\n")

    def test_repeated_section_names_its_second_header(self, tmp_path, capsys):
        text = "[run]\nM = 2\n[mdp]\nkind = hard\n[run]\nK = 10\n"
        with pytest.raises(ConfigError, match=r"line 5: repeated section \[run\]"):
            parse_config(text)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match=r"line 2.*bad value"):
            parse_config("[run]\nK = five\n")

    def test_beta_modes(self):
        cfg = parse_config(MINIMAL + "beta = theoretical:2.0\n")
        assert cfg.beta_mode == "theoretical" and cfg.beta_value == 2.0
        cfg = parse_config(MINIMAL + "beta = fixed:3.5\n")
        assert cfg.beta_mode == "fixed" and cfg.beta_value == 3.5
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "beta = magic:1\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "beta = fixed\n")  # value required

    def test_eval_modes(self):
        assert parse_config(MINIMAL + "eval = off\n").eval_mode == "off"
        with pytest.raises(ConfigError, match=r"line 10: unknown eval mode"):
            parse_config(MINIMAL + "eval = monte_carlo:64\n")

    def test_key_table_sets_every_run_config_field_once(self):
        """A misspelled field name in the table would be set silently."""
        names = [name for name, _ in _FIELDS.values()]
        names += ["beta_mode", "beta_value"]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(RunConfig))
        assert set(_AXES.values()) <= set(_FIELDS)

    def test_diagnostics_flag(self):
        assert parse_config(MINIMAL + "diagnostics = on\n").diagnostics
        assert not parse_config(MINIMAL + "diagnostics = off\n").diagnostics


@st.composite
def _run_configs(draw):
    """Valid RunConfigs over both built-in instances, every protocol, eval
    mode, beta mode, schedule and initial-state kind. A field the echo does
    not write for the drawn kinds (a round-robin schedule's block_len) keeps
    its default, since the run never reads it."""
    M = draw(st.integers(1, 16))
    kw = {}
    if draw(st.booleans()):
        d = 2 * draw(st.integers(4, 32))
        kw.update(mdp_kind="hard", mdp_d=d, mdp_horizon=draw(st.integers(2, 6)),
                  mdp_gap=draw(st.none() | st.floats(0, 0.5, exclude_max=True)))
        n_states, inits = d // 2, [None, "fixed", "uniform_random", "epoch"]
    else:
        n_states = draw(st.integers(1, 8))
        kw.update(mdp_kind="random", mdp_n_states=n_states,
                  mdp_n_actions=draw(st.integers(1, 4)),
                  mdp_horizon=draw(st.integers(1, 6)), mdp_seed=draw(st.integers(0, 2**32)))
        inits = [None, "fixed", "uniform_random"]
    # K * H * d within its cap: the stores' one-hot design is held for the run.
    steps_cells = kw["mdp_horizon"] * (d if kw["mdp_kind"] == "hard"
                                       else n_states * kw["mdp_n_actions"])
    kw["init_state"] = draw(st.sampled_from(inits))
    if kw["init_state"] == "fixed":
        kw["init_state_fixed"] = draw(st.integers(0, n_states - 1))
    kw["schedule"] = draw(st.sampled_from(
        ["round_robin", "uniform_random", "bursty", "single_agent", "lower_bound"]))
    if kw["schedule"] in ("uniform_random", "bursty"):
        kw["schedule_seed"] = draw(st.none() | st.integers(0, 2**64 - 1))
    if kw["schedule"] == "bursty":
        kw["schedule_block"] = draw(st.integers(1, 50))
    if kw["schedule"] == "single_agent":
        kw["schedule_agent"] = draw(st.integers(1, M))
    kw["beta_mode"] = draw(st.sampled_from(["practical", "theoretical", "fixed"]))
    beta = st.floats(0, 1e6)
    kw["beta_value"] = draw(beta if kw["beta_mode"] == "fixed" else st.none() | beta)
    cfg = RunConfig(
        **kw, M=M, K=draw(st.integers(1, min(10**6, MAX_DESIGN_ENTRIES // steps_cells))),
        alpha=draw(st.none() | st.floats(0, exclude_min=True)),  # inf: never communicates
        ridge=draw(st.floats(MIN_RIDGE, allow_infinity=False)),
        delta=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        protocol=draw(st.sampled_from([p.value for p in ProtocolKind])),
        master_seed=draw(st.integers(0, 2**63)),
        eval_mode=draw(st.sampled_from(["exact", "off"])),
        diagnostics=draw(st.booleans()))
    try:
        cfg.resolved()
    except ConfigError as e:
        # A tiny delta * min(1, ridge, alpha * ridge) leaves no float64 theoretical
        # beta, and a tiny delta no float64 practical one, charged to delta.
        assume(e.key not in (("run", "beta"), ("run", "delta")))
        raise
    return cfg


class TestEcho:
    @pytest.mark.parametrize("extra", [
        "",
        "protocol = no_comm\n",
        "beta = fixed:2.25\n",
        "eval = off\n",
    ])
    def test_round_trip(self, extra):
        resolved = parse_config(MINIMAL + extra).resolved()
        echoed = emit_config(resolved)
        again = parse_config(echoed)
        assert isinstance(again, RunConfig)
        assert again.resolved() == resolved
        assert parse_config(emit_config(again.resolved())) == again

    def test_round_trip_random_mdp_and_schedule(self):
        text = """
[mdp]
kind = random
n_states = 5
n_actions = 2
H = 3
seed = 9

[run]
M = 2
K = 64

[schedule]
kind = uniform_random
seed = 77
"""
        resolved = parse_config(text).resolved()
        assert parse_config(emit_config(resolved)).resolved() == resolved

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_seeded_kinds_fill_and_echo_their_seed(self, kind):
        # A seeded kind left without a seed would draw from OS entropy.
        resolved = RunConfig(schedule=kind, M=2, K=10).resolved()
        seeded = kind in SEEDED_SCHEDULE_KINDS
        assert (resolved.schedule_seed is not None) == seeded
        assert (f"seed = {resolved.schedule_seed}" in emit_config(resolved)) == seeded

    @settings(max_examples=150, deadline=None)
    @given(cfg=_run_configs())
    def test_round_trip_property(self, cfg):
        resolved = cfg.resolved()
        assert parse_config(emit_config(resolved)) == resolved

    def test_file_path_round_trip(self, tmp_path):
        """A file instance's resolved config echoes, and the echo reruns the
        same file; a space inside the path is carried, and a path object is
        checked as the text the echo writes."""
        path = tmp_path / "a b" / "h.mdp"
        path.parent.mkdir()
        write_mdp(random_tabular(0, 3, 2, 2), str(path))
        resolved = RunConfig(mdp_kind="file", mdp_path=str(path), M=2, K=5).resolved()
        assert parse_config(emit_config(resolved)) == resolved
        assert RunConfig(mdp_kind="file", mdp_path=path, M=2, K=5).resolved().mdp_path == path
        with pytest.raises(ConfigError, match="cannot carry"):
            RunConfig(mdp_kind="file", mdp_path=tmp_path / "p#q.mdp", M=2, K=5).resolved()

    @pytest.mark.parametrize("path", ["p#q/h.mdp", " h.mdp", "h.mdp ", "p\nq.mdp",
                                      "p\rq.mdp", "p\u2028q.mdp", "h.mdp\t"])
    def test_file_path_the_format_cannot_carry_is_refused(self, path):
        """The echo would cut such a path at '#', split it at the line break
        or strip it, and name another file."""
        with pytest.raises(ConfigError, match="which a config file cannot carry") as err:
            RunConfig(mdp_kind="file", mdp_path=path, M=2, K=5).resolved()
        assert err.value.key == ("mdp", "path")

    def test_hash_stable_and_sensitive(self):
        a = parse_config(MINIMAL).resolved()
        b = parse_config(MINIMAL + "master_seed = 1\n").resolved()
        assert config_hash(a) == config_hash(a)
        assert config_hash(a) != config_hash(b)


class TestSweepSpec:
    def test_axes_parsed(self):
        text = MINIMAL + """
[sweep]
K = 2000, 8000, 32000
seeds = 0..19
protocol = async_trigger, no_comm
"""
        spec = parse_config(text)
        assert isinstance(spec, SweepSpec)
        assert spec.axes["K"] == [2000, 8000, 32000]
        assert spec.axes["seeds"] == list(range(20))
        assert spec.axes["protocol"] == ["async_trigger", "no_comm"]
        assert spec.size() == 3 * 20 * 2

    def test_cap_enforced(self):
        text = MINIMAL + "\n[sweep]\nseeds = 0..99\nmax_runs = 50\n"
        with pytest.raises(ConfigError, match="cap"):
            parse_config(text)

    def test_cap_names_the_max_runs_line(self):
        """Each axis is under the cap but their product is over it."""
        text = MINIMAL + "\n[sweep]\nK = 40, 80\nseeds = 0..99\nmax_runs = 150\n"
        lineno = text.splitlines().index("max_runs = 150") + 1
        with pytest.raises(ConfigError, match=f"^line {lineno}: sweep would launch 200 runs, "
                                              "over the cap 150$"):
            parse_config(text)

    def test_default_cap_names_the_sweep_header(self):
        text = MINIMAL + "\n[sweep]\nK = 40, 80\nseeds = 0..9999\n"
        lineno = text.splitlines().index("[sweep]") + 1
        with pytest.raises(ConfigError, match=f"^line {lineno}: sweep would launch 20000 runs, "
                                              "over the cap 10000$"):
            parse_config(text)

    def test_long_axis_refused_before_it_is_built(self):
        """An axis longer than the cap names its line without being expanded:
        a million seeds built as a list would peak at about 40 MB."""
        text = MINIMAL + "\n[sweep]\nseeds = 0, 0..1000000\n"
        lineno = text.splitlines().index("seeds = 0, 0..1000000") + 1
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"^line {lineno}: .* cap of 10000 runs"):
                parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_bad_range(self):
        with pytest.raises(ConfigError, match="range"):
            parse_config(MINIMAL + "\n[sweep]\nseeds = 5..1\n")

    @pytest.mark.parametrize("axis,value", [
        ("seeds = 0, 0, 1", "0"),
        ("seeds = 0..2, 1", "1"),
        ("alpha = 0.1, 0.10", "0.1"),  # equal once converted
        ("protocol = no_comm, async_trigger, no_comm", "'no_comm'"),
    ])
    def test_repeated_axis_value_names_its_line(self, axis, value):
        """A repeated value would run twice, and comparison.csv would weigh
        it twice where scaling.csv counts it once."""
        text = MINIMAL + f"\n[sweep]\n{axis}\nM = 2\n"
        lineno = text.splitlines().index(axis) + 1
        with pytest.raises(ConfigError, match=f"^line {lineno}: value {value} repeated$"):
            parse_config(text)

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("axes", ["", "seeds = 0..1\n"], ids=["no_axis", "seeds_axis"])
    def test_cap_below_one_names_its_line(self, cap, axes):
        text = MINIMAL + f"\n[sweep]\n{axes}max_runs = {cap}\n"
        lineno = text.splitlines().index(f"max_runs = {cap}") + 1
        with pytest.raises(ConfigError, match=f"^line {lineno}: max_runs must be >= 1"):
            parse_config(text)


def test_shipped_configs_found():
    assert any(p.name == "run_hard.cfg" for p in CONFIGS)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_resolves(path):
    parsed = parse_config_file(str(path))
    runs = expand_sweep(parsed) if isinstance(parsed, SweepSpec) else [parsed]
    for run in runs:
        run.resolved()


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_is_what_its_name_says(path):
    """run_*.cfg is one run; sweep_*.cfg is a sweep that fits under its cap."""
    parsed = parse_config_file(str(path))
    kind = path.name.split("_")[0]
    assert kind in ("run", "sweep")
    if kind == "run":
        assert isinstance(parsed, RunConfig)
    else:
        assert isinstance(parsed, SweepSpec)
        assert 1 < parsed.size() <= parsed.cap

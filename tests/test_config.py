"""Tests for config parsing, defaulting, echo round-trips, and sweep specs."""

import dataclasses
import pathlib

import pytest

from coop_lsvi.configio import (_AXES, _FIELDS, SweepSpec, config_hash,
                                emit_config, expand_sweep, parse_config,
                                parse_config_file)
from coop_lsvi.harness import ConfigError, RunConfig

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
        cfg = parse_config(MINIMAL + "eval = monte_carlo:64\n")
        assert cfg.eval_mode == "monte_carlo" and cfg.eval_rollouts == 64

    @pytest.mark.parametrize("value", ["2.7", "2.0"])
    def test_eval_rollouts_must_be_integer(self, value):
        with pytest.raises(ConfigError, match=r"line 10: bad value"):
            parse_config(MINIMAL + f"eval = monte_carlo:{value}\n")

    def test_key_table_sets_every_run_config_field_once(self):
        """A misspelled field name in the table would be set silently."""
        names = [name for name, _ in _FIELDS.values()]
        names += ["beta_mode", "beta_value", "eval_mode", "eval_rollouts"]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(RunConfig))
        assert set(_AXES.values()) <= set(_FIELDS)

    def test_diagnostics_flag(self):
        assert parse_config(MINIMAL + "diagnostics = on\n").diagnostics
        assert not parse_config(MINIMAL + "diagnostics = off\n").diagnostics


class TestEcho:
    @pytest.mark.parametrize("extra", [
        "",
        "protocol = no_comm\n",
        "beta = fixed:2.25\n",
        "eval = monte_carlo:32\n",
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

    def test_bad_range(self):
        with pytest.raises(ConfigError, match="range"):
            parse_config(MINIMAL + "\n[sweep]\nseeds = 5..1\n")


def test_shipped_configs_found():
    assert any(p.name == "run_hard.cfg" for p in CONFIGS)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_resolves(path):
    parsed = parse_config_file(str(path))
    runs = expand_sweep(parsed) if isinstance(parsed, SweepSpec) else [parsed]
    for run in runs:
        run.resolved()

"""Tests for sweep execution, aggregation, scaling fits, and the CLI."""

import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import coop_lsvi
from coop_lsvi import harness
from coop_lsvi import sweep as sweep_mod
from coop_lsvi.chart import run_chart_svg
from coop_lsvi.cli import main
from coop_lsvi.configio import config_hash, parse_config
from coop_lsvi.harness import ConfigError, RunConfig, run_experiment
from coop_lsvi.mdp import InvalidMdpError, g17, hard_instance, random_tabular, write_mdp
from coop_lsvi.sweep import expand_sweep, run_sweep, scaling_csv_text, scaling_fits

RUN_CFG = """
[mdp]
kind = hard
d = 8
H = 3
gap = 0.2

[run]
M = 2
K = 10
protocol = full_sync
master_seed = 3
"""

SWEEP_CFG = """
[mdp]
kind = random
n_states = 2
n_actions = 2
H = 2
seed = 4

[run]
M = 2
K = 40

[sweep]
K = 40, 80, 160
seeds = 0..4
"""


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _shipped(name, *edits):
    """A shipped config's text with each (old, new) edit made exactly once."""
    text = (CONFIGS / name).read_text()
    for old, new in edits:
        assert text.count(old) == 1, f"{name}: {old!r}"
        text = text.replace(old, new)
    return text


def _line_of(text, line):
    return text.splitlines().index(line) + 1


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _strict_json(path):
    """Load a JSON file, refusing the NaN and Infinity that JSON does not have."""
    def refuse(name):
        raise ValueError(f"{path.name}: non-JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestExpand:
    def test_cross_product_and_dependent_defaults(self):
        spec = parse_config(SWEEP_CFG.replace("kind = random", "kind = hard")
                            .replace("n_states = 2\nn_actions = 2\n", "d = 8\n")
                            .replace("seed = 4", "gap = 0.1"))
        spec = parse_config("""
[mdp]
kind = hard
d = 8
H = 3

[run]
M = 4

[sweep]
K = 1000, 4000, 16000
seeds = 0..5
""")
        configs = expand_sweep(spec)
        assert len(configs) == 3 * 6
        gaps = {c.K: c.resolved().mdp_gap for c in configs}
        for K, gap in gaps.items():
            assert gap == pytest.approx(min(0.25, math.sqrt(8 * 4 / (8 * K))))

    def test_seed_axis_sets_master_seed(self):
        spec = parse_config(SWEEP_CFG)
        seeds = {c.master_seed for c in expand_sweep(spec)}
        assert seeds == set(range(5))


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    spec = parse_config(SWEEP_CFG)
    rows = run_sweep(spec, str(out), workers=1)
    return out, rows


class TestRunSweep:
    def test_outputs_exist(self, sweep_out):
        out, rows = sweep_out
        assert len(rows) == 15
        assert (out / "aggregate.csv").exists()
        assert (out / "scaling.csv").exists()
        assert (out / "base.resolved.cfg").exists()
        assert sorted(p.name for p in out.glob("run_*.metrics.csv"))[0] == \
            "run_0000.metrics.csv"

    def test_rows_all_ok_and_differ_only_in_seed_outcomes(self, sweep_out):
        _, rows = sweep_out
        assert all(r["status"] == "ok" for r in rows)
        by_k_seed = {(r["K"], r["seed"]) for r in rows}
        assert len(by_k_seed) == 15

    def test_aggregate_is_pure_function_of_metrics(self, sweep_out):
        out, rows = sweep_out
        for r in rows:
            path = out / f"run_{r['run']:04d}.metrics.csv"
            lines = path.read_text().strip().split("\n")[1:]
            assert len(lines) == r["K"]
            last = lines[-1].split(",")
            assert float(last[3]) == pytest.approx(r["total_regret"], abs=1e-12)
            assert int(last[6]) == r["total_comm"]
            assert int(last[7]) == r["total_switch"]

    def test_scaling_fit_present(self, sweep_out):
        _, rows = sweep_out
        fits = scaling_fits(rows)
        assert len(fits) == 1
        fit = fits[0]
        assert fit.n_grid == 3 and fit.n_seeds == 5
        assert math.isfinite(fit.comm_slope)

    def test_workers_reproduce_serial(self, sweep_out, tmp_path):
        out, rows = sweep_out
        spec = parse_config(SWEEP_CFG)
        rows2 = run_sweep(spec, str(tmp_path), workers=2)
        a = {r["run"]: (r["total_regret"], r["total_comm"]) for r in rows}
        b = {r["run"]: (r["total_regret"], r["total_comm"]) for r in rows2}
        assert a == b
        for r in rows:
            fa = (out / f"run_{r['run']:04d}.metrics.csv").read_text()
            fb = (tmp_path / f"run_{r['run']:04d}.metrics.csv").read_text()
            assert fa == fb

    def test_failed_run_recorded_and_sweep_continues(self, tmp_path):
        spec = parse_config(SWEEP_CFG)
        bad = expand_sweep(spec)[0]
        spec.base.mdp_path = None
        spec.axes["K"] = [40, -5]  # second value fails validation at run time
        rows = run_sweep(spec, str(tmp_path), workers=1)
        statuses = {r["K"]: r["status"] for r in rows}
        assert statuses[40] == "ok"
        assert statuses[-5].startswith("error")

    @pytest.mark.parametrize("status", [
        "ok", "error: ValueError: K must be >= 1, got -5", 'error: ValueError: say "hi", x',
        'error: ValueError: say "hi"', "error: OSError: line one\nline two", "a\r\nb,c"])
    def test_aggregate_status_round_trips_through_csv_reader(self, status):
        row = {"run": 0, "K": 40, "M": 2, "alpha": 0.25, "ridge": 1.0, "gap": math.nan,
               "protocol": "async_trigger", "seed": 3, "status": status,
               "total_regret": math.nan, "total_comm": -1, "total_switch": -1,
               "config_hash": ""}
        text = sweep_mod.aggregate_csv_text([row])
        header, parsed = list(csv.reader(io.StringIO(text, newline="")))
        assert header == sweep_mod.AGGREGATE_HEADER.split(",")
        assert len(parsed) == len(header)
        assert parsed[header.index("status")] == status
        if not any(c in status for c in '"\r\n'):
            # The bytes every status without a quote or line break had before.
            plain = '"%s"' % status if "," in status else status
            assert f",3,{plain},nan,-1,-1,\n" in text


class TestCliRun:
    def _write(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return str(p)

    def test_run_outputs(self, tmp_path):
        cfg = self._write(tmp_path, RUN_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--svg"]) == 0
        metrics = (out / "metrics.csv").read_text()
        lines = metrics.strip().split("\n")
        assert len(lines) == 11  # header + K=10 rows
        assert lines[0] == "k,m_k,regret_inc,cum_regret,triggered,trigger_h,cum_comm,cum_switch"
        assert int(lines[-1].split(",")[6]) == 10  # full_sync: cum_comm = K
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_comm_rounds"] == 10
        assert (out / "chart.svg").read_text().startswith("<svg")
        assert (out / "resolved.cfg").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self._write(tmp_path, RUN_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = self._write(tmp_path, RUN_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--out", str(out2), "--seed", "99"])
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["config_hash"] != s2["config_hash"]

    def test_bad_config_exit_code(self, tmp_path):
        cfg = self._write(tmp_path, "[run]\nK = 0\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text,bad_line", [
        (RUN_CFG.replace("d = 8", "d = 9"), 4),
        (RUN_CFG.replace("H = 3", "H = 1"), 5),
        (RUN_CFG.replace("gap = 0.2", "gap = 0.7"), 6),
        ("[mdp]\nkind = random\nn_states = 0\nn_actions = 2\nH = 2\n", 3),
        ("[mdp]\nkind = random\nn_states = 3\nn_actions = 2\nH = 0\n", 5),
        (RUN_CFG + "\n[init_state]\nkind = fixed\nstate = 9\n", 16),  # S = 4
        (RUN_CFG + "\n[schedule]\nkind = bursty\nblock_len = 0\n", 16),
        (RUN_CFG + "beta = fixed:nan\n", 13),
        (RUN_CFG + "beta = fixed:-1\n", 13),
        (RUN_CFG + "beta = practical:inf\n", 13),
        (RUN_CFG + "beta = theoretical:-1\n", 13),
        (RUN_CFG + "ridge = inf\n", 13),
        ("[mdp]\nkind = random\nn_states = 3\nn_actions = 2\nH = 2\nseed = -1\n", 6),
        (RUN_CFG + "\n[schedule]\nkind = uniform_random\nseed = -5\n", 16),
        (RUN_CFG + f"\n[schedule]\nkind = bursty\nseed = {2 ** 64}\n", 16),
        (RUN_CFG + "beta = practical:1e308\n", 13),
        (RUN_CFG + "alpha = inf\nbeta = theoretical\n", 14),
        # 1e-320 lies in (0, 1) but sends practical beta's 2dKH/delta to inf.
        (RUN_CFG + "delta = 1e-320\n", 13),
        (RUN_CFG + "beta = practical:0.1\ndelta = 1e-320\n", 14),
        (RUN_CFG.replace("master_seed = 3", "master_seed = -1"), 12),
        (RUN_CFG.replace("master_seed = 3", f"master_seed = {2 ** 64 + 5}"), 12),
    ], ids=["hard_d", "hard_H", "hard_gap", "random_n_states", "random_H",
            "fixed_state", "bursty_block_len", "beta_nan", "beta_negative",
            "beta_inf", "theoretical_beta_negative", "ridge_inf", "mdp_seed_negative",
            "schedule_seed_negative", "schedule_seed_over_64_bits",
            "practical_beta_resolves_inf", "theoretical_beta_resolves_inf",
            "delta_overflows_beta", "delta_overflows_beta_after_beta_line",
            "master_seed_negative", "master_seed_over_64_bits"])
    def test_instance_and_schedule_errors_name_their_line(self, tmp_path, capsys,
                                                          text, bad_line):
        cfg = self._write(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"line {bad_line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,bad_line", [
        ("[mdp]\nkind = random\nn_states = 100000\nn_actions = 2\nH = 2\n", 3),
        ("[mdp]\nkind = random\nn_states = 2\nn_actions = 5000\nH = 2\n", 4),
        ("[mdp]\nkind = random\nn_states = 4000\nn_actions = 1\nH = 9\n", 5),
        ("[mdp]\nkind = hard\nd = 200000\nH = 3\n", 3),
    ], ids=["random_states", "random_actions", "random_table", "hard_d"])
    def test_oversized_instance_is_a_config_error(self, tmp_path, capsys, text, bad_line):
        # Checked before any table is allocated; unchecked, each asks for gigabytes.
        cfg = self._write(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"line {bad_line}: " in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_eval_off_writes_strict_json_and_chart(self, tmp_path):
        cfg = self._write(tmp_path, RUN_CFG + "eval = off\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--svg"]) == 0
        assert _strict_json(out / "summary.json")["total_regret"] is None
        assert "max nan" in (out / "chart.svg").read_text()

    def test_sweep_config_rejected_by_run(self, tmp_path):
        cfg = self._write(tmp_path, SWEEP_CFG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("n", [4002, 4001, 3999, 10])
def test_chart_ends_at_the_last_episode(n):
    """A long run is thinned to a stride of n // 2000 episodes; the curves still
    end at episode n, and the labels read the whole run."""
    k = np.arange(1, n + 1)
    svg = run_chart_svg(k, 0.5 * k, 2 * k)
    assert f"episode k (1..{n})" in svg
    assert f"cum regret (max {0.5 * n:.3g})" in svg
    assert f"cum comm rounds (max {2 * n})" in svg
    lines = re.findall(r'points="([^"]*)"', svg)
    assert len(lines) == 2
    for points in lines:
        xy = points.split()
        assert len(xy) < 4000
        assert xy[-1] == "660.00,30.00"  # the right edge, at the curve's top


class TestCliSweep:
    def test_sweep_command(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg.as_posix(), "--out", str(out)]) == 0
        agg = (out / "aggregate.csv").read_text().strip().split("\n")
        assert len(agg) == 16

    def test_run_config_rejected_by_sweep(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(RUN_CFG)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_empty_sweep_section_is_a_sweep_of_one_run(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(RUN_CFG + "\n[sweep]\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "use the 'sweep' subcommand" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "aggregate.csv").read_text().strip().split("\n")) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bytes_that_are_not_utf8_in_a_config(tmp_path, capsys, command):
    """A byte that is not UTF-8 is ignored in a comment and fails as its
    line's bad key or value elsewhere; it never escapes as a traceback."""
    text = RUN_CFG.encode() + (b"\n[sweep]\n" if command == "sweep" else b"")
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"# r\xe9sum\xe9\n" + text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    cfg.write_bytes(text.replace(b"M = 2", b"M = 2\xe9"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert "line 9: bad value for 'M'" in capsys.readouterr().err
    cfg.write_bytes(text.replace(b"M = 2", b"M\xe9 = 2"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert "line 9: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["-3", "0"],
                         ids=["sweep_flag_negative", "sweep_flag_zero"])
def test_bad_worker_count_is_a_config_error(tmp_path, capsys, workers):
    """A worker count below 1 exits 2 naming --workers, before any run starts."""
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SWEEP_CFG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# RUN_CFG is hard d = 8, H = 3; M is on line 9 and K on line 10.
@pytest.mark.parametrize("command,text,bad_line", [
    ("run", RUN_CFG.replace("K = 10", "K = 10000000000"), 10),
    ("run", RUN_CFG.replace("M = 2", "M = 1000000000"), 9),
    ("run", RUN_CFG.replace("K = 10", f"K = {harness.MAX_RUN_STEPS // 3 + 1}"), 10),
    ("run", RUN_CFG.replace("M = 2", f"M = {harness.MAX_AGENT_UNITS // (3 * 72) + 1}"), 9),
    ("sweep", RUN_CFG + "\n[sweep]\nK = 10, 10000000000\n", 15),
    ("sweep", RUN_CFG + "\n[sweep]\nM = 2, 1000000000\n", 15),
], ids=["K", "M", "K_one_over", "M_one_over", "swept_K", "swept_M"])
def test_run_size_caps_name_their_line(tmp_path, capsys, command, text, bad_line):
    """K * H and M * H * (d + overhead) are capped before anything is built."""
    with pytest.raises(ConfigError, match=f"^line {bad_line}: .* exceeds "):
        parse_config(text)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"line {bad_line}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Line 11 holds the added ridge and line 13 the added beta; a [sweep] axis is
# on line 15.
@pytest.mark.parametrize("command,text,bad_line,message", [
    ("run", RUN_CFG.replace("K = 10", "K = 10\nridge = 1e-155"), 11, "MIN_RIDGE"),
    ("sweep", RUN_CFG + "\n[sweep]\nridge = 1, 1e-155\n", 15, "MIN_RIDGE"),
    ("run", RUN_CFG.replace("K = 10", "K = 10\nalpha = 5e-324\nridge = 0.5\n"
                            "beta = theoretical:1"), 13, "beta = theoretical"),
    ("run", RUN_CFG.replace("K = 10", "K = 10\nalpha = 1e-300\nridge = 1e-10\n"
                            "beta = theoretical:1"), 13, "beta = theoretical"),
    ("sweep", RUN_CFG + "\n[sweep]\nseeds = 0..1000000\n", 15, "cap of 10000 runs"),
    ("sweep", RUN_CFG + "\n[sweep]\nseeds = -1..1\n", 15, "master_seed"),
], ids=["ridge_floor", "swept_ridge_floor", "beta_underflow_alpha",
        "beta_underflow_ridge", "axis_over_cap", "swept_seed_negative"])
def test_numeric_limits_name_their_line(tmp_path, capsys, command, text, bad_line,
                                        message):
    """A ridge below the floor, a theoretical beta whose log term leaves
    float64, an axis longer than the cap and a swept seed outside [0, 2**64)
    exit 2 naming their line."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"line {bad_line}: " in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_run_seed_flag_outside_64_bits_names_the_flag(tmp_path, capsys, seed):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 2
    assert "config error: --seed: master_seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds,pool_sizes", [("0, 1", [2]), ("0", [])])
def test_no_more_workers_than_runs(tmp_path, monkeypatch, seeds, pool_sizes):
    """A fork-started pool starts all its workers at the first submit, so a
    2-run sweep gets a pool of 2 and a 1-run sweep runs serially. The pool is
    a stand-in that records its size and runs the jobs inline."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", InlinePool)
    spec = parse_config(RUN_CFG + f"\n[sweep]\nseeds = {seeds}\n")
    rows = run_sweep(spec, str(tmp_path), workers=64)
    assert sizes == pool_sizes
    assert [r["status"] for r in rows] == ["ok"] * len(rows)


def test_run_size_caps_admit_runs_at_the_cap():
    parse_config(RUN_CFG.replace("K = 10", f"K = {harness.MAX_RUN_STEPS // 3}"))
    parse_config(RUN_CFG.replace("M = 2", f"M = {harness.MAX_AGENT_UNITS // (3 * 72)}"))


# d = 1024 * 4 = 4096, the largest dimension; H = 1 keeps K * H under its cap.
WIDE_CFG = "[mdp]\nkind = random\nn_states = 1024\nn_actions = 4\nH = 1\n\n[run]\nK = {}\n"


def test_design_matrix_cap_admits_k_at_the_cap():
    K = harness.MAX_DESIGN_ENTRIES // 4096
    assert K == 32_768
    assert parse_config(WIDE_CFG.format(K)).K == K  # parsed only: nothing is allocated


def test_design_matrix_cap_names_the_k_line():
    """Past the cap the stores' (K * H, d) float64 design, with capacity
    doubling, could pass 2 GiB; at K = 2**20 it could take 64 GiB."""
    with pytest.raises(ConfigError, match="^line 8: K \\* H \\* d = 134221824 design-matrix "
                                          "entries exceeds 134217728$"):
        parse_config(WIDE_CFG.format(32_769))


def test_run_size_caps_apply_to_file_instances(tmp_path, capsys):
    """A file instance's horizon and dimension are known once it is read."""
    mdp_path = tmp_path / "inst.mdp"
    write_mdp(hard_instance(8, 3, 0.2), str(mdp_path))
    text = f"[mdp]\nkind = file\npath = {mdp_path}\n\n[run]\nK = 10000000000\n"
    with pytest.raises(ConfigError, match="^line 6: K \\* H = 30000000000 "):
        parse_config(text)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "line 6:" in capsys.readouterr().err


def test_run_size_caps_apply_to_the_lower_bound_config(tmp_path, capsys):
    text = _shipped("sweep_lower_bound.cfg", ("K = 1024", "K = 10000000000"))
    bad_line = _line_of(text, "K = 10000000000")
    with pytest.raises(ConfigError, match=f"^line {bad_line}: K \\* H = 30000000000 "):
        parse_config(text)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"line {bad_line}: K * H" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,text,bad_line", [
    ("run", "[mdp]\nkind = random\nn_states = 4\nn_actions = 2\nH = 2\n"
            "\n[init_state]\nstate = 9\n", 8),
    ("sweep", RUN_CFG + "\n[sweep]\ngap = 0.1, 0.7\n", 15),
    ("sweep", RUN_CFG + "\n[sweep]\nM = 0, 2\n", 15),
    ("sweep", RUN_CFG + "\n[sweep]\nprotocol = async_trigger, bogus\n", 15),
], ids=["defaulted_fixed_state", "swept_gap", "swept_M", "swept_protocol"])
def test_errors_in_the_runs_as_run_name_their_line(tmp_path, capsys, command, text,
                                                   bad_line):
    """Checks see each run with its defaults filled in and its axis values set;
    the error names the line that set the value at fault."""
    with pytest.raises(ConfigError, match=f"^line {bad_line}: "):
        parse_config(text)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"line {bad_line}:" in capsys.readouterr().err


class TestCliValidate:
    def test_valid_file_passes(self, tmp_path, capsys):
        path = tmp_path / "good.mdp"
        write_mdp(hard_instance(8, 3, 0.1), str(path))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    def test_corrupt_row_fails_naming_indices(self, tmp_path, capsys):
        path = tmp_path / "bad.mdp"
        write_mdp(random_tabular(2, 2, 2, 2), str(path))
        lines = path.read_text().splitlines()
        idx = lines.index("[transition 0 0 0]") + 1
        lines[idx] = " ".join(str(1.1 * float(x)) for x in lines[idx].split())
        path.write_text("\n".join(lines))
        assert main(["validate", str(path)]) == 4
        out = capsys.readouterr().out
        assert "FAIL transition_rows_sum_to_1" in out
        assert "(h=1, s=0, a=0)" in out

    def test_unreadable_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.mdp")]) == 2

    def test_negative_index_is_a_file_error(self, tmp_path, capsys):
        path = tmp_path / "neg.mdp"
        write_mdp(random_tabular(2, 2, 2, 2), str(path))
        path.write_text(path.read_text().replace("[transition 0 1 0]", "[transition -1 0 0]"))
        assert main(["validate", str(path)]) == 2
        assert "file error: line " in capsys.readouterr().err

    def test_bytes_that_are_not_utf8_are_a_file_error(self, tmp_path, capsys):
        path = tmp_path / "bin.mdp"
        path.write_bytes(b"\xff\xfe\x00[meta]\n")
        assert main(["validate", str(path)]) == 2
        assert "file error: line 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("sizes,limit", [
        ("H = 2\nn_states = 100000\nn_actions = 1", "4096"),
        ("H = 9\nn_states = 4000\nn_actions = 1", "134217728"),
    ], ids=["dimension", "table"])
    def test_oversized_meta_is_a_file_error(self, tmp_path, capsys, sizes, limit):
        # The size check runs before any table is allocated; without it this
        # file would ask for gigabytes.
        path = tmp_path / "big.mdp"
        path.write_text(f"# sizes only\n[meta]\n{sizes}\n")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "file error: line 2: [meta]" in err and f"exceeds {limit}" in err


class TestLowerBoundConfig:
    """The hard instance's trade-off sweep, configs/sweep_lower_bound.cfg."""

    def test_shipped_grid(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(CONFIGS / "sweep_lower_bound.cfg"),
                     "--out", str(out)]) == 0
        base = parse_config((out / "base.resolved.cfg").read_text())
        assert (base.mdp_kind, base.mdp_d, base.mdp_horizon, base.M, base.K,
                base.schedule, base.init_state) == ("hard", 8, 3, 8, 1024,
                                                    "lower_bound", "epoch")
        agg = _csv_rows(out / "aggregate.csv")
        assert len(agg) == 2 * 10 and {r["status"] for r in agg} == {"ok"}
        (comp,) = _csv_rows(out / "comparison.csv")
        regret, comm = {}, {}
        for proto in ("async_trigger", "no_comm"):
            own = [r for r in agg if r["protocol"] == proto]
            assert sorted(int(r["seed"]) for r in own) == list(range(10))
            regret[proto] = float(np.mean([float(r["total_regret"]) for r in own]))
            comm[proto] = float(np.mean([int(r["total_comm"]) for r in own]))
            assert comp[f"mean_comm_{proto}"] == g17(comm[proto])
        # The columns before the two comm means keep their bytes.
        r = agg[0]
        ma, mn = regret["async_trigger"], regret["no_comm"]
        want = (f"1024,{g17(ma)},{g17(mn)},{g17(sweep_mod.regret_ratio(mn, ma))},8,"
                f"{r['alpha']},{r['ridge']},{r['gap']},")
        assert (out / "comparison.csv").read_text().split("\n")[1].startswith(want)
        # no_comm never communicates; on this instance it also scores no regret
        # (README, "Lower-bound sweep").
        assert comm["no_comm"] == 0 and mn == 0 and ma > 0

    def test_comm_against_the_dhm2_scale(self, tmp_path):
        spec = parse_config(_shipped("sweep_lower_bound.cfg", ("K = 1024", "K = 128"),
                                     ("M = 8", "M = 2"), ("seeds = 0..9", "seeds = 0..1")))
        run_sweep(spec, str(tmp_path))
        (comp,) = _csv_rows(tmp_path / "comparison.csv")
        base = parse_config((tmp_path / "base.resolved.cfg").read_text())
        d, H, K, M = base.mdp_d, base.mdp_horizon, int(comp["K"]), int(comp["M"])
        assert float(comp["mean_comm_no_comm"]) == 0.0
        async_comm = float(comp["mean_comm_async_trigger"])
        assert 0 < async_comm <= 10.0 * d * H * M * M * math.log(1.0 + K / d)

    def test_zero_gap_zero_regret(self, tmp_path):
        spec = parse_config(_shipped(
            "sweep_lower_bound.cfg", ("# gap defaults to min(1/4, sqrt(d*M/(8K)))", "gap = 0"),
            ("K = 1024", "K = 64"), ("M = 8", "M = 2"), ("seeds = 0..9", "seeds = 0..1")))
        run_sweep(spec, str(tmp_path))
        (comp,) = _csv_rows(tmp_path / "comparison.csv")
        assert [comp[c] for c in ("mean_regret_async_trigger", "mean_regret_no_comm",
                                  "ratio_no_comm_over_async")] == ["0", "0", "nan"]

    def test_a_reused_directory_holds_only_the_last_sweep(self, tmp_path):
        """An earlier sweep's per-run metrics and summaries are removed, and
        nothing else in the directory is."""
        small = (("K = 1024", "K = 64"), ("M = 8", "M = 2"))
        run_sweep(parse_config(_shipped("sweep_lower_bound.cfg", *small)), str(tmp_path))
        assert len(list(tmp_path.glob("run_*.metrics.csv"))) == 20
        (tmp_path / "notes.txt").write_text("kept")
        run_sweep(parse_config(_shipped(
            "sweep_lower_bound.cfg", *small, ("seeds = 0..9", "seeds = 0..1"),
            ("protocol = async_trigger, no_comm", "protocol = async_trigger"))), str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "aggregate.csv", "base.resolved.cfg", "notes.txt", "run_0000.metrics.csv",
            "run_0001.metrics.csv", "scaling.csv"]
        assert len(_csv_rows(tmp_path / "aggregate.csv")) == 2

    def test_rows_equal_direct_runs(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "lb.cfg"
        cfg.write_text(_shipped("sweep_lower_bound.cfg", ("K = 1024", "K = 64"),
                                ("M = 8", "M = 2"), ("seeds = 0..9", "seeds = 0..1")))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        agg = _csv_rows(out / "aggregate.csv")
        assert len(agg) == 2 * 2
        for row in agg:
            resolved = RunConfig(
                mdp_kind="hard", mdp_d=8, mdp_horizon=3, M=2, K=64,
                protocol=row["protocol"], master_seed=int(row["seed"]),
                schedule="lower_bound", init_state="epoch").resolved()
            record = run_experiment(resolved)
            assert (row["total_regret"], row["total_comm"], row["total_switch"],
                    row["config_hash"]) == (g17(record.total_regret), str(record.total_comm),
                                            str(record.total_switches), config_hash(resolved))

    @pytest.mark.parametrize("old,new", [
        ("d = 8", "d = 7"), ("seeds = 0..9", "seeds ="), ("seeds = 0..9", "seeds = 0..-1"),
    ], ids=["hard_d", "no_seeds", "empty_seed_range"])
    def test_config_errors_name_their_line(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_shipped("sweep_lower_bound.cfg", (old, new)))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"line {_line_of(cfg.read_text(), new)}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_k_below_d_m_runs(self, tmp_path):
        """K >= d*M is the construction's premise, not a check: the schedule
        is defined for every K >= 1, and run and sweep accept any K."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_shipped("sweep_lower_bound.cfg", ("K = 1024", "K = 16"),
                                ("M = 8", "M = 4"), ("seeds = 0..9", "seeds = 0")))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_lower_bound_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lower-bound", "--K", "64"])
        assert exc.value.code == 2
        assert "invalid choice: 'lower-bound'" in capsys.readouterr().err


class TestComparisonOutput:
    def test_comparison_csv_when_both_protocols(self, tmp_path):
        text = SWEEP_CFG + "protocol = async_trigger, no_comm\n"
        spec = parse_config(text.replace("seeds = 0..4", "seeds = 0..1")
                            .replace("K = 40, 80, 160", "K = 40"))
        run_sweep(spec, str(tmp_path), workers=1)
        comp = (tmp_path / "comparison.csv").read_text().strip().split("\n")
        assert comp[0].startswith("K,mean_regret_async_trigger")
        assert len(comp) == 2
        mean_async, mean_nc, ratio = (float(v) for v in comp[1].split(",")[1:4])
        assert mean_async > 0 and ratio == mean_nc / mean_async

    def test_zero_over_zero_regret_is_nan(self, tmp_path):
        # With no regret under either protocol there is no ratio to report.
        spec = parse_config(RUN_CFG.replace("gap = 0.2\n", "").replace("K = 10", "K = 40")
                            + "\n[sweep]\nseeds = 0..1\nprotocol = async_trigger, no_comm\n")
        run_sweep(spec, str(tmp_path), workers=1)
        comp = (tmp_path / "comparison.csv").read_text().strip().split("\n")
        assert comp[1].split(",")[1:4] == ["0", "0", "nan"]

    @pytest.mark.parametrize("no_comm,async_trigger,want", [
        (3.0, 2.0, 1.5), (0.0, 2.0, 0.0), (1.0, 0.0, math.inf), (0.0, 0.0, math.nan)])
    def test_regret_ratio(self, no_comm, async_trigger, want):
        got = sweep_mod.regret_ratio(no_comm, async_trigger)
        assert got == want or math.isnan(got) and math.isnan(want)


class TestSummaryGroups:
    """Runs that differ in a swept value other than K and seed are summarized
    apart: every summary row is the fit or mean of its own runs only."""

    @pytest.mark.parametrize("axis,values,gap_column", [
        ("ridge", (1.0, 4.0), lambda v: "nan"),  # the default gap shrinks with K
        ("gap", (0.1, 0.2), g17),
    ])
    def test_scaling_row_per_swept_value(self, tmp_path, axis, values, gap_column):
        spec = parse_config(RUN_CFG.replace("gap = 0.2\n", "")
                            .replace("protocol = full_sync", "protocol = async_trigger")
                            + "alpha = 0.25\n\n[sweep]\nK = 100, 200, 400\nseeds = 0..4\n"
                            + f"{axis} = {', '.join(map(str, values))}\n")
        rows = run_sweep(spec, str(tmp_path), workers=1)
        got = (tmp_path / "scaling.csv").read_text().strip().split("\n")
        assert got[0].endswith(",M,ridge,gap")
        assert len(got) == 3
        for line, value in zip(got[1:], values):
            own = [r for r in rows if r[axis] == value]
            assert len(own) == 15
            assert line == scaling_csv_text(scaling_fits(own)).split("\n")[1]
            ridge = value if axis == "ridge" else 1.0
            assert line.split(",")[-3:] == ["2", g17(ridge), gap_column(value)]

    def test_comparison_row_per_k_and_swept_m(self, tmp_path):
        text = SWEEP_CFG + "M = 2, 8\nprotocol = async_trigger, no_comm\n"
        spec = parse_config(text.replace("seeds = 0..4", "seeds = 0..1")
                            .replace("K = 40, 80, 160", "K = 40, 80"))
        rows = run_sweep(spec, str(tmp_path), workers=1)
        got = (tmp_path / "comparison.csv").read_text().strip().split("\n")
        assert got[0].endswith(",M,alpha,ridge,gap,mean_comm_async_trigger,mean_comm_no_comm")
        want = []
        for K in (40, 80):
            for M in (2, 8):
                (ma, ca), (mn, cn) = (
                    [sum(r[f] for r in rows
                         if (r["K"], r["M"], r["protocol"]) == (K, M, p)) / 2
                     for f in ("total_regret", "total_comm")]
                    for p in ("async_trigger", "no_comm"))
                want.append(f"{K},{g17(ma)},{g17(mn)},{g17(mn / ma)},{M},"
                            f"{g17(1 / M ** 2)},1,nan,{g17(ca)},{g17(cn)}")
        assert got[1:] == want


class TestFileBackedMdpRun:
    def test_run_from_serialized_instance(self, tmp_path):
        mdp_path = tmp_path / "inst.mdp"
        write_mdp(hard_instance(8, 3, 0.2), str(mdp_path))
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"""
[mdp]
kind = file
path = {mdp_path}

[run]
M = 2
K = 20
master_seed = 1
""")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "metrics.csv").read_text().strip().split("\n")) == 21

    @pytest.mark.parametrize("make_file,tail,bad_line", [
        (True, "\n[init_state]\nkind = fixed\nstate = 9\n", 7),  # 4 states
        (False, "", 3),
    ], ids=["fixed_state_out_of_range", "missing_file"])
    def test_file_errors_name_their_line(self, tmp_path, capsys, make_file, tail, bad_line):
        mdp_path = tmp_path / "inst.mdp"
        if make_file:
            write_mdp(hard_instance(8, 3, 0.2), str(mdp_path))
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"[mdp]\nkind = file\npath = {mdp_path}\n{tail}")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"line {bad_line}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def write_invalid(path):
        """A file read_mdp loads whose tables fail all three checks: a row
        summing to 1.5, a probability of -0.5 and a reward of 2."""
        write_mdp(random_tabular(1, 2, 2, 2), str(path))
        lines = path.read_text().splitlines()
        lines[lines.index("[transition 0 0 1]") + 1] = "2 -0.5"
        lines[lines.index("[reward 0]") + 1] = "2 0.5"
        path.write_text("\n".join(lines))

    @pytest.mark.parametrize("command,tail", [
        ("run", ""), ("sweep", "\n[sweep]\nseeds = 0, 1\n")], ids=["run", "sweep"])
    def test_invalid_tables_are_a_config_error(self, tmp_path, capsys, command, tail):
        mdp_path = tmp_path / "inst.mdp"
        self.write_invalid(mdp_path)
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"[mdp]\nkind = file\npath = {mdp_path}\n{tail}")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "line 3:" in err
        assert "transition row (h=1, s=0, a=1) sums to 1.5" in err
        assert not (tmp_path / "out").exists()

    def test_invalid_tables_fail_a_library_run(self, tmp_path):
        mdp_path = tmp_path / "inst.mdp"
        self.write_invalid(mdp_path)
        with pytest.raises(InvalidMdpError, match="transition_rows_sum_to_1"):
            run_experiment(RunConfig(mdp_kind="file", mdp_path=str(mdp_path), M=2, K=5))


class TestDerivedScheduleSeedEcho:
    def test_resolved_echo_pins_derived_seed(self, tmp_path):
        cfg_text = RUN_CFG + "\n[schedule]\nkind = uniform_random\n"
        cfg = tmp_path / "u.cfg"
        cfg.write_text(cfg_text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        # Rerunning from the RESOLVED echo must reproduce the run exactly.
        assert main(["run", "--config", str(out1 / "resolved.cfg"),
                     "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert "seed = " in (out1 / "resolved.cfg").read_text()


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CFG)
        # Run the copy of the package this test imported, installed or not.
        src = os.path.dirname(os.path.dirname(coop_lsvi.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "coop_lsvi", "run", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "metrics.csv").exists()

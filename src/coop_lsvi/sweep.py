"""Sweep execution over (K, M, alpha, protocol, seed, ...) grids with
aggregate and scaling-law summaries.

Each run owns its configuration end to end, so runs parallelize across a
process pool without affecting results; the aggregate is a pure function of
the per-run outputs.
"""

from __future__ import annotations

import fnmatch
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Collection, Optional

import numpy as np

from .configio import SweepSpec, config_hash, emit_config, expand_sweep
from .harness import RunConfig, metrics_csv_text, run_experiment
from .mdp import g17

AGGREGATE_HEADER = ("run,K,M,alpha,ridge,gap,protocol,seed,status,"
                    "total_regret,total_comm,total_switch,config_hash")
SCALING_HEADER = ("protocol,alpha,n_grid,n_seeds,regret_loglog_slope,"
                  "regret_slope_halfwidth,comm_vs_logk_slope,"
                  "comm_vs_logk_intercept,comm_slope_halfwidth,M,ridge,gap")
COMPARISON_HEADER = ("K,mean_regret_async_trigger,mean_regret_no_comm,"
                     "ratio_no_comm_over_async,M,alpha,ridge,gap,"
                     "mean_comm_async_trigger,mean_comm_no_comm")
# Summaries keep apart runs that differ in any swept value but the seed. A
# scaling fit runs over K, and the default hard gap shrinks with K, so the gap
# splits fits only where it is swept.
FIT_GROUP = ("protocol", "alpha", "M", "ridge")
COMPARISON_GROUP = ("K", "M", "alpha", "ridge", "gap")
MIN_GRID_POINTS = 3
MIN_SEEDS = 5
# run_sweep's outputs besides base.resolved.cfg, an earlier sweep's removed first.
SWEEP_OUTPUTS = ("run_*.metrics.csv", "aggregate.csv", "scaling.csv", "comparison.csv")


def atomic_write(path: str, text: str) -> None:
    """Write-temp-then-rename so readers never see partial files."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_one(args: tuple[int, RunConfig, str]) -> dict:
    """One run's aggregate row: unresolved values and NaN, -1 or "" if it fails."""
    index, cfg, out_dir = args
    row = {"run": index, "K": cfg.K, "M": cfg.M, "ridge": cfg.ridge,
           "alpha": cfg.alpha if cfg.alpha is not None else math.nan, "gap": math.nan,
           "protocol": cfg.protocol, "seed": cfg.master_seed, "total_regret": math.nan,
           "total_comm": -1, "total_switch": -1, "config_hash": ""}
    try:
        resolved = cfg.resolved()
        record = run_experiment(resolved)
        atomic_write(os.path.join(out_dir, f"run_{index:04d}.metrics.csv"),
                     metrics_csv_text(record))
        row.update(alpha=resolved.alpha, status="ok", config_hash=config_hash(resolved),
                   gap=resolved.mdp_gap if resolved.mdp_kind == "hard" else math.nan,
                   total_regret=record.total_regret, total_comm=record.total_comm,
                   total_switch=record.total_switches)
    except Exception as e:  # a failed run is recorded, the sweep continues
        row["status"] = f"error: {type(e).__name__}: {e}"
    return row


def run_sweep(spec: SweepSpec, out_dir: str, workers: int = 1) -> list[dict]:
    """Execute every run in the sweep and write per-run plus aggregate files,
    removing first an earlier sweep's, which would disagree with them."""
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        if any(fnmatch.fnmatchcase(name, pattern) for pattern in SWEEP_OUTPUTS):
            os.unlink(os.path.join(out_dir, name))
    atomic_write(os.path.join(out_dir, "base.resolved.cfg"), emit_config(spec.base))
    configs = expand_sweep(spec)
    jobs = [(i, cfg, out_dir) for i, cfg in enumerate(configs)]
    # A fork-started pool starts all max_workers processes at the first submit.
    workers = min(workers, len(jobs))
    if workers <= 1:
        rows = [_run_one(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, jobs))
    atomic_write(os.path.join(out_dir, "aggregate.csv"), aggregate_csv_text(rows))
    fits = scaling_fits(rows, spec.axes)
    atomic_write(os.path.join(out_dir, "scaling.csv"), scaling_csv_text(fits))
    comparison = collaboration_comparison(rows)
    if comparison:
        atomic_write(os.path.join(out_dir, "comparison.csv"), comparison)
    return rows


def _csv_field(text: str) -> str:
    """text as one CSV field (RFC 4180): quoted, with its quotes doubled, if
    it holds a comma, a quote, a CR or an LF; as it is otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def aggregate_csv_text(rows: list[dict]) -> str:
    lines = [AGGREGATE_HEADER]
    for r in sorted(rows, key=lambda r: r["run"]):
        lines.append(",".join((
            str(r["run"]), str(r["K"]), str(r["M"]), g17(r["alpha"]),
            g17(r["ridge"]), g17(r["gap"]), r["protocol"], str(r["seed"]),
            _csv_field(r["status"]),
            g17(r["total_regret"]), str(r["total_comm"]), str(r["total_switch"]),
            r["config_hash"],
        )))
    return "\n".join(lines) + "\n"


def _groups(rows: list[dict], names: tuple[str, ...]) -> list[list[dict]]:
    """The rows grouped by their values of ``names``, in ascending order of
    those values; NaN (the gap of a non-hard run) is one value, above all."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        key = tuple((1, 0) if r[n] != r[n] else (0, r[n]) for n in names)
        groups.setdefault(key, []).append(r)
    return [groups[key] for key in sorted(groups)]


@dataclass
class ScalingFit:
    """Scaling-law fit over K for one group of runs that share every swept
    value except K and seed; ``gap`` is NaN unless the runs share one."""

    protocol: str
    alpha: float
    M: int
    ridge: float
    gap: float
    n_grid: int
    n_seeds: int
    regret_slope: float = float("nan")
    regret_halfwidth: float = float("nan")
    comm_slope: float = float("nan")
    comm_intercept: float = float("nan")
    comm_halfwidth: float = float("nan")


def _fit_group(rows: list[dict]) -> ScalingFit:
    ks = sorted({r["K"] for r in rows})
    seeds = sorted({r["seed"] for r in rows})
    gaps = {r["gap"] for r in rows}
    fit = ScalingFit(**{name: rows[0][name] for name in FIT_GROUP},
                     gap=gaps.pop() if len(gaps) == 1 else math.nan,
                     n_grid=len(ks), n_seeds=len(seeds))
    if len(ks) < MIN_GRID_POINTS or len(seeds) < MIN_SEEDS:
        return fit
    by_key = {(r["K"], r["seed"]): r for r in rows}
    log_k = np.log(np.array(ks, dtype=float))
    mean_regret = np.array([
        np.mean([by_key[(K, s)]["total_regret"] for s in seeds if (K, s) in by_key])
        for K in ks])
    mean_comm = np.array([
        np.mean([by_key[(K, s)]["total_comm"] for s in seeds if (K, s) in by_key])
        for K in ks])
    if np.all(mean_regret > 0):
        fit.regret_slope = float(np.polyfit(log_k, np.log(mean_regret), 1)[0])
    fit.comm_slope, fit.comm_intercept = (
        float(v) for v in np.polyfit(log_k, mean_comm, 1))

    # Seed-to-seed variation of the per-seed fits gives the half-widths.
    seed_r_slopes, seed_c_slopes = [], []
    for s in seeds:
        if not all((K, s) in by_key for K in ks):
            continue
        regs = np.array([by_key[(K, s)]["total_regret"] for K in ks])
        comms = np.array([by_key[(K, s)]["total_comm"] for K in ks])
        if np.all(regs > 0):
            seed_r_slopes.append(np.polyfit(log_k, np.log(regs), 1)[0])
        seed_c_slopes.append(np.polyfit(log_k, comms, 1)[0])
    for slopes, attr in ((seed_r_slopes, "regret_halfwidth"),
                         (seed_c_slopes, "comm_halfwidth")):
        if len(slopes) >= 2:
            hw = 1.96 * float(np.std(slopes, ddof=1)) / math.sqrt(len(slopes))
            setattr(fit, attr, hw)
    return fit


def scaling_fits(rows: list[dict], swept: Collection[str] = ()) -> list[ScalingFit]:
    """One fit per FIT_GROUP of the ok runs, split by gap too if "gap" is swept."""
    ok = [r for r in rows if r["status"] == "ok"]
    names = FIT_GROUP + (("gap",) if "gap" in swept else ())
    return [_fit_group(group) for group in _groups(ok, names)]


def scaling_csv_text(fits: list[ScalingFit]) -> str:
    lines = [SCALING_HEADER]
    for f in fits:
        lines.append(",".join((
            f.protocol, g17(f.alpha), str(f.n_grid), str(f.n_seeds),
            g17(f.regret_slope), g17(f.regret_halfwidth),
            g17(f.comm_slope), g17(f.comm_intercept), g17(f.comm_halfwidth),
            str(f.M), g17(f.ridge), g17(f.gap),
        )))
    return "\n".join(lines) + "\n"


def regret_ratio(no_comm: float, async_trigger: float) -> float:
    """no_comm / async_trigger mean regret: inf only for a positive no_comm
    over a zero async_trigger, NaN for 0 / 0."""
    if async_trigger != 0:
        return no_comm / async_trigger
    return math.inf if no_comm > 0 else math.nan


def collaboration_comparison(rows: list[dict]) -> Optional[str]:
    """Mean regret and communication of async_trigger and no_comm, and their
    regret ratio no_comm / async_trigger, per COMPARISON_GROUP where both ran."""
    ok = [r for r in rows if r["status"] == "ok"]
    protocols = {r["protocol"] for r in ok}
    if not {"async_trigger", "no_comm"} <= protocols:
        return None
    lines = [COMPARISON_HEADER]
    for group in _groups(ok, COMPARISON_GROUP):
        a = [r for r in group if r["protocol"] == "async_trigger"]
        n = [r for r in group if r["protocol"] == "no_comm"]
        if not a or not n:
            continue
        ma, mn = (float(np.mean([r["total_regret"] for r in p])) for p in (a, n))
        ca, cn = (float(np.mean([r["total_comm"] for r in p])) for p in (a, n))
        r = group[0]
        lines.append(f"{r['K']},{g17(ma)},{g17(mn)},{g17(regret_ratio(mn, ma))},{r['M']},"
                     f"{g17(r['alpha'])},{g17(r['ridge'])},{g17(r['gap'])},"
                     f"{g17(ca)},{g17(cn)}")
    return "\n".join(lines) + "\n"

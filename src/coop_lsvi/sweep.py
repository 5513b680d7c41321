"""Sweep execution over (K, M, alpha, protocol, seed, ...) grids with
aggregate and scaling-law summaries.

Each run owns its configuration end to end, so runs parallelize across a
process pool without affecting results; the aggregate is a pure function of
the per-run outputs.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .configio import SweepSpec, config_hash, emit_config
from .harness import RunConfig, metrics_csv_text, run_experiment
from .mdp import g17

AGGREGATE_HEADER = ("run,K,M,alpha,ridge,gap,protocol,seed,status,"
                    "total_regret,total_comm,total_switch,config_hash")
SCALING_HEADER = ("protocol,alpha,n_grid,n_seeds,regret_loglog_slope,"
                  "regret_slope_halfwidth,comm_vs_logk_slope,"
                  "comm_vs_logk_intercept,comm_slope_halfwidth")
MIN_GRID_POINTS = 3
MIN_SEEDS = 5


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


def expand_sweep(spec: SweepSpec) -> list[RunConfig]:
    """Cross-product the axes over the base config, in declaration order.

    Axis values override the unresolved base so dependent defaults (alpha
    from M, hard gap from K and M) are recomputed per combination.
    """
    names = list(spec.axes)
    combos = itertools.product(*(spec.axes[n] for n in names))
    out = []
    for combo in combos:
        cfg = replace(spec.base)
        for name, value in zip(names, combo):
            if name == "seeds":
                cfg.master_seed = value
            elif name == "gap":
                cfg.mdp_gap = value
            elif name == "protocol":
                cfg.protocol = value
            else:
                setattr(cfg, name, value)
        out.append(cfg)
    return out


def _run_one(args: tuple[int, RunConfig, str]) -> dict:
    index, cfg, out_dir = args
    try:
        resolved = cfg.resolved()
        record = run_experiment(resolved)
        atomic_write(os.path.join(out_dir, f"run_{index:04d}.metrics.csv"),
                     metrics_csv_text(record))
        return {
            "run": index, "K": resolved.K, "M": resolved.M,
            "alpha": resolved.alpha, "ridge": resolved.ridge,
            "gap": resolved.mdp_gap if resolved.mdp_kind == "hard" else float("nan"),
            "protocol": resolved.protocol, "seed": resolved.master_seed,
            "status": "ok",
            "total_regret": record.total_regret,
            "total_comm": record.total_comm,
            "total_switch": record.total_switches,
            "config_hash": config_hash(resolved),
        }
    except Exception as e:  # a failed run is recorded, the sweep continues
        return {
            "run": index, "K": cfg.K, "M": cfg.M,
            "alpha": cfg.alpha if cfg.alpha is not None else float("nan"),
            "ridge": cfg.ridge, "gap": float("nan"),
            "protocol": cfg.protocol, "seed": cfg.master_seed,
            "status": f"error: {type(e).__name__}: {e}",
            "total_regret": float("nan"), "total_comm": -1, "total_switch": -1,
            "config_hash": "",
        }


def run_sweep(spec: SweepSpec, out_dir: str, workers: int = 1) -> list[dict]:
    """Execute every run in the sweep and write per-run plus aggregate files."""
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(os.path.join(out_dir, "base.resolved.cfg"), emit_config(spec.base))
    configs = expand_sweep(spec)
    jobs = [(i, cfg, out_dir) for i, cfg in enumerate(configs)]
    if workers <= 1:
        rows = [_run_one(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, jobs))
    atomic_write(os.path.join(out_dir, "aggregate.csv"), aggregate_csv_text(rows))
    fits = scaling_fits(rows)
    atomic_write(os.path.join(out_dir, "scaling.csv"), scaling_csv_text(fits))
    comparison = collaboration_comparison(rows)
    if comparison:
        atomic_write(os.path.join(out_dir, "comparison.csv"), comparison)
    return rows


def aggregate_csv_text(rows: list[dict]) -> str:
    lines = [AGGREGATE_HEADER]
    for r in sorted(rows, key=lambda r: r["run"]):
        lines.append(",".join((
            str(r["run"]), str(r["K"]), str(r["M"]), g17(r["alpha"]),
            g17(r["ridge"]), g17(r["gap"]), r["protocol"], str(r["seed"]),
            '"%s"' % r["status"] if "," in r["status"] else r["status"],
            g17(r["total_regret"]), str(r["total_comm"]), str(r["total_switch"]),
            r["config_hash"],
        )))
    return "\n".join(lines) + "\n"


@dataclass
class ScalingFit:
    """Scaling-law fit for one (protocol, alpha) group of the sweep."""

    protocol: str
    alpha: float
    n_grid: int
    n_seeds: int
    regret_slope: float = float("nan")
    regret_halfwidth: float = float("nan")
    comm_slope: float = float("nan")
    comm_intercept: float = float("nan")
    comm_halfwidth: float = float("nan")


def _fit_group(rows: list[dict]) -> Optional[ScalingFit]:
    ks = sorted({r["K"] for r in rows})
    seeds = sorted({r["seed"] for r in rows})
    fit = ScalingFit(protocol=rows[0]["protocol"], alpha=rows[0]["alpha"],
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


def scaling_fits(rows: list[dict]) -> list[ScalingFit]:
    ok = [r for r in rows if r["status"] == "ok"]
    groups: dict[tuple, list[dict]] = {}
    for r in ok:
        groups.setdefault((r["protocol"], r["alpha"]), []).append(r)
    return [f for key in sorted(groups) if (f := _fit_group(groups[key])) is not None]


def scaling_csv_text(fits: list[ScalingFit]) -> str:
    lines = [SCALING_HEADER]
    for f in fits:
        lines.append(",".join((
            f.protocol, g17(f.alpha), str(f.n_grid), str(f.n_seeds),
            g17(f.regret_slope), g17(f.regret_halfwidth),
            g17(f.comm_slope), g17(f.comm_intercept), g17(f.comm_halfwidth),
        )))
    return "\n".join(lines) + "\n"


def collaboration_comparison(rows: list[dict]) -> Optional[str]:
    """Per-K regret ratio no_comm / async_trigger when both groups ran."""
    ok = [r for r in rows if r["status"] == "ok"]
    protocols = {r["protocol"] for r in ok}
    if not {"async_trigger", "no_comm"} <= protocols:
        return None
    ks = sorted({r["K"] for r in ok})
    lines = ["K,mean_regret_async_trigger,mean_regret_no_comm,ratio_no_comm_over_async"]
    for K in ks:
        a = [r["total_regret"] for r in ok
             if r["K"] == K and r["protocol"] == "async_trigger"]
        n = [r["total_regret"] for r in ok if r["K"] == K and r["protocol"] == "no_comm"]
        if not a or not n:
            continue
        ma, mn = float(np.mean(a)), float(np.mean(n))
        ratio = mn / ma if ma != 0 else float("inf")
        lines.append(f"{K},{g17(ma)},{g17(mn)},{g17(ratio)}")
    return "\n".join(lines) + "\n"

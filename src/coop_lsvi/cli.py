"""Command-line front end: run, sweep, validate, and lower-bound subcommands.

Exit codes: 0 success, 2 configuration error, 3 run failure, 4
acceptance-check failure (a validation or report assertion did not hold).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from . import mdp as mdp_mod
from .chart import run_chart_svg
from .configio import SweepSpec, config_hash, emit_config, parse_config_file
from .harness import (ConfigError, RunConfig, comm_complexity_scale,
                      metrics_csv_text, run_experiment)
from .sweep import atomic_write, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_CHECK = 4


def _workers(flag: Optional[int] = None) -> int:
    """Worker processes from --workers, else COOP_LSVI_WORKERS, else 1."""
    name, value = "--workers", flag
    if flag is None:
        name, value = "COOP_LSVI_WORKERS", os.environ.get("COOP_LSVI_WORKERS") or "1"
    try:
        n = int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ConfigError(f"{name} must be >= 1, got {n}")
    return n


def _finite(obj):
    """JSON has no NaN or Infinity: a non-finite float is written as null."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(obj) -> str:
    return json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def cmd_run(args) -> int:
    try:
        cfg = parse_config_file(args.config)
        if isinstance(cfg, SweepSpec):
            raise ConfigError("config defines a sweep; use the 'sweep' subcommand")
        if args.seed is not None:
            cfg.master_seed = args.seed
        resolved = cfg.resolved()
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
        record = run_experiment(resolved)
        atomic_write(os.path.join(args.out, "resolved.cfg"), emit_config(resolved))
        atomic_write(os.path.join(args.out, "metrics.csv"), metrics_csv_text(record))
        summary = {
            "config_hash": config_hash(resolved),
            "K": resolved.K,
            "M": resolved.M,
            "protocol": resolved.protocol,
            "total_regret": record.total_regret,
            "total_comm_rounds": record.total_comm,
            "total_switches": record.total_switches,
            "n_triggers": int(record.triggered.sum()),
            "epoch_starts": record.epoch_starts,
        }
        atomic_write(os.path.join(args.out, "summary.json"), _json_text(summary))
        if args.svg:
            atomic_write(os.path.join(args.out, "chart.svg"),
                         run_chart_svg(record.k, record.cum_regret, record.cum_comm))
    except Exception as e:
        print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUN
    print(f"run ok: K={resolved.K} regret={record.total_regret:.6g} "
          f"comm={record.total_comm} switches={record.total_switches}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        spec = parse_config_file(args.config)
        if not isinstance(spec, SweepSpec):
            raise ConfigError("config has no [sweep] section; use the 'run' subcommand")
        workers = _workers(args.workers)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = run_sweep(spec, args.out, workers=workers)
    except Exception as e:
        print(f"sweep failed: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUN
    n_bad = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep ok: {len(rows)} runs, {n_bad} failed, outputs in {args.out}")
    return EXIT_RUN if n_bad == len(rows) and rows else EXIT_OK


def cmd_validate(args) -> int:
    try:
        mdp = mdp_mod.read_mdp(args.mdp_file)
    except (OSError, mdp_mod.InvalidMdpError) as e:
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    checks = mdp_mod.validate_linear_mdp(mdp)
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        detail = f"  [{c.detail}]" if c.detail else ""
        print(f"{status} {c.name}: worst slack {c.worst_slack:.3e}{detail}")
        all_ok &= c.passed
    return EXIT_OK if all_ok else EXIT_CHECK


def cmd_lower_bound(args) -> int:
    d, H, M, K = args.d, args.horizon, args.M, args.K
    base = RunConfig(mdp_kind="hard", mdp_d=d, mdp_horizon=H, mdp_gap=args.gap,
                     M=M, K=K, schedule="lower_bound", init_state="epoch")
    try:
        cfg = base.resolved()
        if K < d * M:
            raise ConfigError(f"K must be >= d*M = {d * M}, got {K}")
        if args.seeds < 1:
            raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
        workers = _workers()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    spec = SweepSpec(base, {"protocol": ["async_trigger", "no_comm"],
                            "seeds": list(range(args.seeds))})
    try:
        with tempfile.TemporaryDirectory() as tmp:
            rows = run_sweep(spec, args.out or tmp, workers=workers)
    except Exception as e:
        print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUN
    for r in rows:
        if r["status"] != "ok":
            print(f"run failed: {r['status']}", file=sys.stderr)
            return EXIT_RUN
    gap = cfg.mdp_gap
    report = {"d": d, "H": H, "M": M, "K": K, "gap": gap, "n_seeds": args.seeds}
    for proto in spec.axes["protocol"]:
        regs = [r["total_regret"] for r in rows if r["protocol"] == proto]
        comms = [r["total_comm"] for r in rows if r["protocol"] == proto]
        report[proto] = {
            "mean_total_regret": float(np.mean(regs)),
            "mean_total_comm": float(np.mean(comms)),
            "per_seed_regret": regs,
            "per_seed_comm": comms,
        }
    mean_async = report["async_trigger"]["mean_total_regret"]
    mean_nc = report["no_comm"]["mean_total_regret"]
    report["regret_ratio_no_comm_over_async"] = (
        mean_nc / mean_async if mean_async != 0 else float("inf"))
    scale = d * H * M * M * math.log(1.0 + K / d)
    report["comm_bound_scale_dHM2logK"] = scale
    report["async_comm_fitted_constant"] = (
        report["async_trigger"]["mean_total_comm"] / scale)
    report["comm_budget_full_form"] = comm_complexity_scale(d, H, M, cfg.alpha, K, cfg.ridge)
    if args.out:
        atomic_write(os.path.join(args.out, "lower_bound_report.json"), _json_text(report))
    print(f"hard instance d={d} H={H} M={M} K={K} gap={gap:.6g} seeds={args.seeds}")
    print(f"  async_trigger: mean regret {mean_async:.6g}, "
          f"mean comm {report['async_trigger']['mean_total_comm']:.1f}")
    print(f"  no_comm:       mean regret {mean_nc:.6g}, mean comm "
          f"{report['no_comm']['mean_total_comm']:.1f}")
    print(f"  regret ratio no_comm/async = "
          f"{report['regret_ratio_no_comm_over_async']:.4g}")
    print(f"  async comm / (d H M^2 log(1+K/d)) = "
          f"{report['async_comm_fitted_constant']:.4g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coop-lsvi",
        description="Cooperative multi-agent LSVI simulator with "
                    "event-triggered server communication.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_run.add_argument("--svg", action="store_true", help="emit chart.svg")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a configured sweep")
    p_sweep.add_argument("--config", required=True, help="config file with [sweep]")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: COOP_LSVI_WORKERS or 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a serialized MDP file")
    p_val.add_argument("mdp_file", help="MDP file in the sectioned text format")
    p_val.set_defaults(func=cmd_validate)

    p_lb = sub.add_parser("lower-bound",
                          help="hard-instance trade-off report (async vs no-comm)")
    p_lb.add_argument("--d", type=int, default=8)
    p_lb.add_argument("--horizon", "--H", dest="horizon", type=int, default=3)
    p_lb.add_argument("--M", type=int, default=8)
    p_lb.add_argument("--K", type=int, required=True)
    p_lb.add_argument("--gap", type=float, default=None,
                      help="arm gap (default min(1/4, sqrt(dM/8K)))")
    p_lb.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p_lb.add_argument("--out", default=None,
                      help="directory for the JSON report and the sweep files")
    p_lb.set_defaults(func=cmd_lower_bound)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: run, sweep and validate subcommands.

The hard instance's lower-bound trade-off (async vs no-comm) is a sweep:
``coop-lsvi sweep --config configs/sweep_lower_bound.cfg``.

Exit codes: 0 success, 2 configuration error, 3 run failure, 4
acceptance-check failure (a table check of ``validate`` did not hold).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import mdp as mdp_mod
from .chart import run_chart_svg
from .configio import SweepSpec, config_hash, emit_config, parse_config_file
from .harness import ConfigError, metrics_csv_text, run_experiment
from .sweep import atomic_write, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_CHECK = 4


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
        try:
            resolved = cfg.resolved()
        except ConfigError as e:
            # The file's own master_seed line was checked as it was parsed.
            if e.key != ("run", "master_seed"):
                raise
            raise ConfigError(f"--seed: {e}") from None
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
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = run_sweep(spec, args.out, workers=args.workers)
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
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (default: 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a serialized MDP file")
    p_val.add_argument("mdp_file", help="MDP file in the sectioned text format")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

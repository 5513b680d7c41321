"""Benchmark of the coop_lsvi simulator: one workload per invocation.

    python3 perfbench/run.py --workload hard_async --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. With --trace 0 it prints the end-to-end
metrics (episodes per second, set-up time, peak memory); with --trace 1 the
per-layer metrics of a traced run. Either way the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 5        # fresh processes timed for setup_s (after one warm-up)
DEADLINE_S = 170.0      # the whole invocation ends within this

# Pin every BLAS/OpenMP pool to one thread: the simulator is single-threaded
# and a multi-threaded OpenBLAS only adds contention on a small shared host.
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process; its JSON result, or an 'error' key."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=os.environ,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"worker {args[0]} timed out"}
    if proc.returncode != 0:
        return {"error": f"worker {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, deadline: float) -> tuple[list[dict], list[str]]:
    probes, errors = [], []
    for i in range(SETUP_PROBES + 1):
        out = worker(["setup", ROOT, workload, str(seed)], deadline)
        if "error" in out:
            errors.append(out["error"])
        elif i > 0:  # the first probe warms the file cache and bytecode
            probes.append(out)
    return probes, errors


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"q1={q[0]:.6g} q3={q[2]:.6g} n={len(values)}"


def report(args, out: dict, setup: list[dict]) -> dict:
    """Print the human-readable report; return the metrics as BENCHMARK.json names them.

    Raises KeyError if the measurement lacks a metric BENCHMARK.json lists.
    """
    end_to_end, per_layer = metric_units()
    prov = out.get("provenance", {})
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("  environment: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    if args.trace == 0:
        units = end_to_end
        setup_s = [p["setup_s"] for p in setup]
        values = {"episodes_per_s": out["episodes_per_s"],
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": out["peak_rss_mb"]}
        notes = {
            "episodes_per_s": f"median of {out['runs']} runs at K={out['K']}; "
                              f"{spread(out['rates'])}",
            "setup_s": f"median of {len(setup)} fresh processes; {spread(setup_s)}",
            "peak_rss_mb": "peak resident set of the measuring process",
        }
        print(f"  times scaled to nominal host speed: the {out['kernel']} calibration kernel "
              f"took {1e3 * out['calibration_s']:.2f} ms after the runs "
              f"(nominal {1e3 * out['nominal_s']:g} ms); the python kernel took "
              f"{1e3 * statistics.median(p['calibration_s'] for p in setup):.2f} ms "
              f"after set-up (nominal {1e3 * setup[0]['nominal_s']:g} ms)")
        print(f"  unscaled: episodes_per_s {out['raw_episodes_per_s']:.6g} episodes/s, "
              f"setup_s {statistics.median(p['raw_s'] for p in setup):.6g} s")
    else:
        units, values, notes = per_layer, out["per_layer"], {}
        print(f"  {out['pairs']} untraced+traced pairs: untraced {out['untraced_s']:.4f} s, "
              f"traced {out['traced_s']:.4f} s (medians); spans in {out['spans_file']}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<16} {notes.get(name, '')}")
    sim = out.get("simulated", {})
    for name, unit in (("total_regret", "regret"), ("comm_rounds", "rounds"),
                       ("total_switches", "switches"), ("triggers", "count")):
        if name in sim:
            print(f"  {name:<44} {sim[name]:>14.10g} {unit:<16} simulated, seed {args.seed}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coop_lsvi", "__init__.py")):
        print(f"perfbench: no simulator source at {os.path.join(ROOT, 'src', 'coop_lsvi')}",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    setup, errors = ([], []) if args.trace else measure_setup(
        args.workload, args.seed, deadline)
    out = worker(["measure", ROOT, args.workload, str(args.seed), repr(args.seconds),
                  str(args.trace), OUT_DIR], deadline)
    attempted = out.get("attempted", 1) + (0 if args.trace else SETUP_PROBES + 1)
    failed = out.get("failed", 1) + len(errors)
    errors += out.get("errors", []) + ([out["error"]] if "error" in out else [])
    for err in errors:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    complete = "error" not in out and (args.trace or setup) and (
        "per_layer" in out if args.trace else "episodes_per_s" in out)
    metrics = report(args, out, setup) if complete else {}
    print(f"  {'runs_failed':<44} {failed:>14} of {attempted} runs attempted")
    result = {"correct": bool(complete) and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({**result, "errors": errors,
                   **{k: v for k, v in out.items() if k not in result}}, f, indent=1)
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())

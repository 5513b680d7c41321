"""One fresh benchmark process: a set-up probe or a workload measurement.

Launched by run.py with BLAS and OpenMP threads pinned to 1; prints one JSON
object on stdout. The simulator is imported from ``<root>/src`` and from
nowhere else.

    python3 perfbench/worker.py setup ROOT WORKLOAD SEED
    python3 perfbench/worker.py measure ROOT WORKLOAD SEED SECONDS TRACE OUT_DIR
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracer as tracer_mod
import workloads as wl

MIN_RUNS = 3          # timed runs per untraced measurement, at the least
MIN_PAIRS = 2         # untraced + traced pairs per traced measurement
MICRO_DIMS = (8, 200)  # hard-instance and random-instance feature dimensions
MICRO_TARGET_S = 0.02  # each micro-timing repeat runs about this long
MICRO_REPEATS = 5

SETUP_CALIBRATIONS = 5

# The host's effective speed moves between states up to 2x apart within
# minutes (other tenants share the cores), while CPU time stays equal to wall
# time. A fixed calibration kernel timed right after each run measures the
# speed that run saw, and times are scaled to a nominal host on which the
# kernel takes its nominal time. The slow state slows interpreted Python
# about twice as much as numpy's vectorised loops, so each workload names the
# kernel that matches where it spends its time. Over ten seeds per workload
# this cut the interquartile spread of episodes_per_s from 0.13-0.31 of the
# median to 0.02-0.11 (README.md beside this file, Nominal host speed).


def _calibrate_python() -> float:
    """Small numpy products in a Python loop, growing column lists, then
    list-to-array conversion with a stable argsort: the hard workloads' mix."""
    import numpy as np
    start = time.perf_counter()
    a, v, acc = np.eye(8) * 1.5, np.full(8, 0.25), 0.0
    cols: tuple[list, list, list] = ([], [], [])
    for i in range(2000):
        acc += float(v @ (a @ v))
        cols[0].append(i)
        cols[1].append(i % 5)
        cols[2].append(acc)
    for _ in range(4):
        order = np.argsort(np.array(cols[0] * 10, np.int64), kind="stable")
        acc += float(np.array(cols[2] * 10)[order].sum())
    return time.perf_counter() - start


def _calibrate_numpy() -> float:
    """Row-wise quadratic forms of a 200 x 200 matrix, once through einsum and
    ten times through matrix products: vectorised numpy at d = 200."""
    import numpy as np
    vs = np.linspace(-1.0, 1.0, 200 * 200).reshape(200, 200)
    a = np.eye(200) + 0.01 * (vs @ vs.T)
    start = time.perf_counter()
    acc = float(np.einsum("nd,de,ne->n", vs, a, vs).sum())
    for _ in range(10):
        acc += float(((vs @ a) * vs).sum())
    return time.perf_counter() - start


# kernel name -> (function returning seconds, nominal seconds). The nominal
# times are round figures that set the scale of the reported numbers, not
# their spread; the Python kernel takes about 10 ms in this host's fast state.
CALIBRATIONS = {"python": (_calibrate_python, 0.010), "numpy": (_calibrate_numpy, 0.020)}


def calibration_s(kernel: str) -> float:
    """Wall time of one calibration kernel. The kernels use numpy alone and
    never the simulator, so no change to src/ can move them."""
    return CALIBRATIONS[kernel][0]()


def scale_to_nominal(kernel: str, calibration: float) -> float:
    """Factor that turns a time measured next to ``calibration`` into a time
    on the nominal host (multiply times by it, divide rates by it)."""
    return CALIBRATIONS[kernel][1] / calibration


def import_simulator(root: str) -> None:
    """Import coop_lsvi from the checkout's src/ and refuse any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import coop_lsvi
    where = os.path.dirname(os.path.abspath(coop_lsvi.__file__))
    if where != os.path.join(src, "coop_lsvi"):
        raise ImportError(f"coop_lsvi imported from {where}, not from {src}")


def setup_probe(root: str, workload: str, seed: int) -> dict:
    """Time import, config parse and build_run_state in this fresh process."""
    text = wl.WORKLOADS[workload].config(seed)
    start = time.perf_counter()
    import_simulator(root)
    from coop_lsvi import configio, harness
    harness.build_run_state(configio.parse_config(text))
    raw = time.perf_counter() - start
    # Set-up is almost all module import: interpreted Python.
    cal = statistics.median(calibration_s("python") for _ in range(SETUP_CALIBRATIONS))
    return {"setup_s": raw * scale_to_nominal("python", cal), "raw_s": raw,
            "calibration_s": cal, "nominal_s": CALIBRATIONS["python"][1]}


def provenance(root: str) -> dict:
    import numpy as np
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {
        "machine": f"{platform.node()} {platform.machine()} {platform.platform()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(root),
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout read from .git files, or 'unknown' outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_once(text: str) -> str:
    """The researcher's pipeline: config text -> run -> metrics CSV text."""
    from coop_lsvi import configio, harness
    return harness.metrics_csv_text(harness.run_experiment(configio.parse_config(text)))


class Measurement:
    """Runs, checks and counts every simulator run of one measurement."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.simulated: dict = {}

    def fail(self, label: str, err: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {type(err).__name__}: {err}")

    def check(self, csv, protocol, K, ref=None, expect_csv=None) -> dict:
        stats = wl.csv_stats(csv, protocol, K)
        if ref is not None:
            wl.check_reference(stats, ref)
        if expect_csv is not None and csv != expect_csv:
            raise ValueError("metrics CSV differs from the first run of the same config")
        return stats

    def run_checked(self, label, text, protocol, K, ref=None, expect_csv=None):
        """Run once, timed, and check the output.

        Returns (seconds, csv, simulated statistics), or None if the run failed.
        """
        self.attempted += 1
        gc.collect()
        try:
            start = time.perf_counter()
            csv = run_once(text)
            seconds = time.perf_counter() - start
            stats = self.check(csv, protocol, K, ref, expect_csv)
        # A run that raises or fails its check is counted, never fatal.
        except Exception as err:  # noqa: BLE001
            self.fail(label, err)
            return None
        return seconds, csv, stats

    def reference_runs(self, refs: dict) -> None:
        """Output check and warm-up: the workload and the untimed smoke protocol
        at the default and held-out seeds, against recorded references."""
        w, smoke = wl.WORKLOADS[self.workload], wl.SMOKE
        for seed in (wl.DEFAULT_SEED, wl.HELD_OUT_SEED):
            self.run_checked(f"reference seed {seed}", w.config(seed), w.protocol, w.K,
                             refs[self.workload][str(seed)])
            self.run_checked(f"smoke {smoke.protocol} seed {seed}", smoke.config(seed),
                             smoke.protocol, smoke.K, refs["smoke"][str(seed)])

    def timed_run(self, seed: int, refs: dict, first_csv):
        """One timed run at the measured seed; as run_checked."""
        w = wl.WORKLOADS[self.workload]
        out = self.run_checked(f"timed seed {seed}", w.config(seed), w.protocol, w.K,
                               refs[self.workload].get(str(seed)), first_csv)
        if out is not None:
            self.simulated = out[2]
        return out


def measure_untraced(m: Measurement, seed: int, seconds: float, refs: dict) -> dict:
    K, kernel = wl.WORKLOADS[m.workload].K, wl.WORKLOADS[m.workload].kernel
    times, cals, first_csv = [], [], None
    calibration_s(kernel)
    start = time.perf_counter()
    while True:
        out = m.timed_run(seed, refs, first_csv)
        if out is None:
            break
        times.append(out[0])
        cals.append(calibration_s(kernel))
        first_csv = first_csv or out[1]
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_RUNS and elapsed + statistics.median(times) > seconds:
            break
    if not times:
        return {}
    rates = [K / t / scale_to_nominal(kernel, c) for t, c in zip(times, cals)]
    return {
        "episodes_per_s": statistics.median(rates), "rates": rates,
        "raw_episodes_per_s": statistics.median(K / t for t in times),
        "calibration_s": statistics.median(cals), "kernel": kernel,
        "nominal_s": CALIBRATIONS[kernel][1],
        "runs": len(times), "run_s": times, "K": K,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(m: Measurement, seed: int, seconds: float, refs: dict,
                   out_dir: str) -> dict:
    """Alternate untraced and traced runs; per-layer metrics from the traced ones."""
    w = wl.WORKLOADS[m.workload]
    targets = tracer_mod.layer_targets()
    originals = [vars(owner)[attr] for owner, attr, *_ in targets]
    plain, traced, summaries, cals = [], [], [], []
    first_csv, last = None, None
    start = time.perf_counter()
    while True:
        out = m.timed_run(seed, refs, first_csv)
        if out is None:
            break
        plain.append(out[0])
        first_csv = first_csv or out[1]
        tr = tracer_mod.Tracer()
        m.attempted += 1
        gc.collect()
        try:
            with tr.installed(targets):
                csv = run_once(w.config(seed))
            if any(vars(owner)[attr] is not orig
                   for (owner, attr, *_), orig in zip(targets, originals)):
                raise RuntimeError("a wrapped attribute was not restored")
            m.check(csv, w.protocol, w.K, expect_csv=first_csv)
        except Exception as err:  # noqa: BLE001
            m.fail(f"traced seed {seed}", err)
            break
        traced.append(tr.wall_ns / 1e9)
        summaries.append(tr.summary())
        cals.append(calibration_s(w.kernel))
        last = tr
        elapsed = time.perf_counter() - start
        pair = statistics.median(plain) + statistics.median(traced)
        if len(traced) >= MIN_PAIRS and elapsed + pair > seconds:
            break
    if not summaries:
        return {}
    metrics = layer_metrics(summaries)
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    metrics["host.calibration_ms"] = statistics.median(cals) * 1e3
    metrics.update(micro_timings(seed))
    spans_path = os.path.join(out_dir, f"{m.workload}-seed{seed}-spans.jsonl")
    last.write_spans(spans_path, {"workload": m.workload, "seed": seed, "K": w.K})
    return {"per_layer": metrics, "pairs": len(traced), "untraced_s": untraced_s,
            "traced_s": traced_s, "spans_file": os.path.relpath(spans_path, os.getcwd())}


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics: counts from the last traced run, times as medians."""
    last = summaries[-1]
    for s in summaries:
        if s["calls"] != last["calls"] or s["counters"] != last["counters"]:
            raise RuntimeError("call counts differ between traced runs of one config")
    calls, counters = last["calls"], last["counters"]
    self_s = {name: statistics.median(s["self_ns"][name] for s in summaries) / 1e9
              for name in calls}
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["agent.lsvi_backward_update.rows"] = counters.get("agent.lsvi_backward_update.rows", 0)
    out["agent.own_history.rows"] = counters.get("agent.own_history.rows", 0)
    out["agent.trigger_fire_ratio"] = (counters.get("agent.should_communicate.fired", 0)
                                       / max(calls["agent.should_communicate"], 1))
    out["server.upload.transitions"] = counters.get("server.upload.transitions", 0)
    rows = counters.get("server.download.rows_served", 0)
    out["server.download.rows_served"] = rows
    out["server.download.bytes_computed"] = rows * 5 * 8
    out["harness.agent_tables.rebuild_ratio"] = (
        counters.get("harness.agent_tables.rebuilds", 0)
        / max(calls["harness.agent_tables"], 1))
    qfm_s = self_s["psdmat.quad_form_many"]
    out["psdmat.quad_form_many.gflop_per_s"] = (
        counters.get("psdmat.quad_form_many.flops", 0) / qfm_s / 1e9 if qfm_s else 0.0)
    episodes_us = [d / 1e3 for s in summaries for d in s["durations_ns"]["harness.run_episode"]]
    pct, tail = tracer_mod.tail_percentile(episodes_us)
    out["harness.run_episode.p50_us"] = statistics.median(episodes_us)
    out["harness.run_episode.tail_us"] = tail
    out["harness.run_episode.tail_pct"] = pct
    out["trace.uncovered_s"] = statistics.median(s["uncovered_ns"] for s in summaries) / 1e9
    return out


def micro_timings(seed: int) -> dict:
    """Microseconds per call of each PsdMatrix primitive at d = 8 and d = 200."""
    import numpy as np
    from coop_lsvi.psdmat import PsdMatrix

    rng = np.random.default_rng(seed)
    out = {}
    for d in MICRO_DIMS:
        vs = rng.standard_normal((d, d))
        vs *= 0.5 / np.linalg.norm(vs, axis=1, keepdims=True)
        base = PsdMatrix(d, 1.0)
        for v in vs:
            base.rank_one_update(v)
        base.refresh()
        b = rng.standard_normal(d)
        scratch = base.copy()
        calls = {
            "rank_one_update": lambda i: scratch.rank_one_update(vs[i % d]),
            "quad_form_many": lambda i: base.quad_form_many(vs),
            "solve": lambda i: base.solve(b),
            "copy": lambda i: base.copy(),
            "refresh": lambda i: scratch.refresh(),
        }
        for fn, call in calls.items():
            call(0)
            t0 = time.perf_counter()
            call(0)
            once = max(time.perf_counter() - t0, 1e-7)
            # Capped below PsdMatrix's refresh period (512), so no refresh is
            # folded into the rank-one timing.
            reps = max(1, min(400, int(MICRO_TARGET_S / once)))
            per_call = []
            for _ in range(MICRO_REPEATS):
                scratch = base.copy()
                t0 = time.perf_counter()
                for i in range(reps):
                    call(i)
                per_call.append((time.perf_counter() - t0) / reps)
            out[f"psdmat.{fn}.us_per_call.d{d}"] = statistics.median(per_call) * 1e6
    return out


def measure(root, workload, seed, seconds, trace, out_dir) -> dict:
    import_simulator(root)
    m = Measurement(workload)
    refs = wl.load_references()
    m.reference_runs(refs)
    if trace:
        result = measure_traced(m, seed, seconds, refs, out_dir)
    else:
        result = measure_untraced(m, seed, seconds, refs)
    result.update(attempted=m.attempted, failed=m.failed, errors=m.errors,
                  simulated=m.simulated, provenance=provenance(root))
    return result


def main(argv: list[str]) -> int:
    mode, root, workload, seed = argv[0], argv[1], argv[2], int(argv[3])
    if mode == "setup":
        result = setup_probe(root, workload, seed)
    else:
        seconds, trace, out_dir = float(argv[4]), argv[5] == "1", argv[6]
        result = measure(root, workload, seed, seconds, trace, out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

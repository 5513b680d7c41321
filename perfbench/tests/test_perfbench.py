"""Hygiene of the outside-in tracer and the benchmark's output checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import tracer as tracer_mod
import workloads as wl
from worker import import_simulator, run_once

from conftest import BENCH, ROOT

import_simulator(ROOT)

SMALL = [("hard", "async_trigger", 300), ("hard", "full_sync", 60),
         ("hard", "no_comm", 300), ("hard", "sync_round_robin", 200),
         ("random", "async_trigger", 3)]


def traced_run(text):
    targets = tracer_mod.layer_targets()
    tr = tracer_mod.Tracer()
    with tr.installed(targets):
        csv = run_once(text)
    return csv, tr


@pytest.mark.parametrize("instance,protocol,K", SMALL)
def test_traced_and_untraced_csv_identical(instance, protocol, K):
    text = wl.config_text(instance, protocol, K, seed=5)
    plain = run_once(text)
    traced, tr = traced_run(text)
    assert traced == plain
    assert tr.summary()["calls"]["harness.run_episode"] == K


def test_wrapped_attributes_restored_even_after_error():
    targets = tracer_mod.layer_targets()
    before = [vars(owner)[attr] for owner, attr, *_ in targets]
    traced_run(wl.config_text("hard", "no_comm", 100, seed=1))
    assert [vars(owner)[attr] for owner, attr, *_ in targets] == before
    assert all(vars(o)[a] is b for (o, a, *_), b in zip(targets, before))
    with pytest.raises(RuntimeError):
        with tracer_mod.Tracer().installed(targets):
            raise RuntimeError("boom")
    assert all(vars(o)[a] is b for (o, a, *_), b in zip(targets, before))


@pytest.mark.parametrize("instance,protocol,K", SMALL)
def test_self_times_plus_uncovered_equal_wall(instance, protocol, K):
    _, tr = traced_run(wl.config_text(instance, protocol, K, seed=2))
    s = tr.summary()
    assert sum(s["self_ns"].values()) + s["uncovered_ns"] == s["wall_ns"]
    assert all(v >= 0 for v in s["self_ns"].values())
    assert s["uncovered_ns"] >= 0


def test_self_time_subtracts_direct_children():
    ticks = iter(range(0, 1000, 10))
    tr = tracer_mod.Tracer(clock=lambda: next(ticks))

    class Owner:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    targets = [(Owner, "outer", "outer", None, None), (Owner, "inner", "inner", None, None)]
    with tr.installed(targets):
        assert Owner().outer() == 2
    s = tr.summary()
    # Clock reads: block start 0, outer 10..60 holding inner 20..30 and 40..50, block end 70.
    assert s["calls"] == {"outer": 1, "inner": 2}
    assert s["self_ns"] == {"outer": 30, "inner": 20}
    assert s["wall_ns"] == 70 and s["uncovered_ns"] == 20


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracer_mod.tail_percentile(list(range(20)))[0] == 50.0
    assert tracer_mod.tail_percentile(list(range(100)))[0] == 90.0
    assert tracer_mod.tail_percentile(list(range(1000))) == (99.0, 989)


def test_csv_invariants_reject_tampered_output():
    text = run_once(wl.config_text("hard", "full_sync", 20, seed=0))
    assert wl.csv_stats(text, "full_sync", 20)["comm_rounds"] == 20
    lines = text.splitlines()
    row = lines[10].split(",")
    row[6] = "0"
    bad = "\n".join(lines[:10] + [",".join(row)] + lines[11:]) + "\n"
    with pytest.raises(ValueError, match="decreased"):
        wl.csv_stats(bad, "full_sync", 20)
    with pytest.raises(ValueError, match="no_comm"):
        wl.csv_stats(text, "no_comm", 20)


def test_reference_check_is_exact_on_counts():
    ref = {"comm_rounds": 3, "total_switches": 3, "triggers": 3, "total_regret": 1.5}
    wl.check_reference(dict(ref, total_regret=1.5 * (1 + 1e-12)), ref)
    with pytest.raises(ValueError, match="triggers"):
        wl.check_reference(dict(ref, triggers=4), ref)
    with pytest.raises(ValueError, match="total_regret"):
        wl.check_reference(dict(ref, total_regret=1.5001), ref)


def test_references_cover_every_workload_and_seed():
    refs = wl.load_references()
    assert set(refs) == set(wl.WORKLOADS) | {"smoke"}
    for per_seed in refs.values():
        assert set(per_seed) == {str(wl.DEFAULT_SEED), str(wl.HELD_OUT_SEED)}


def test_fails_without_simulator_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    command = json.load(open(tmp_path / "BENCHMARK.json"))["command"]
    proc = subprocess.run([sys.executable, *command[1:], "--workload", "hard_async",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

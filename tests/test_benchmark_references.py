"""The benchmark's recorded references, checked from the test suite.

perfbench/run.py refuses a run whose simulated statistics differ from
perfbench/references.json. These tests run each workload's config at both
recorded seeds, and the untimed smoke config, the way the benchmark's worker
does (parse_config, run_experiment, metrics_csv_text), and apply the
benchmark's own checks, so a change that moves a trajectory fails here before
any benchmark runs. perfbench/workloads.py is imported read-only from its file.
"""

import importlib.util
import pathlib

import pytest

from coop_lsvi.configio import parse_config
from coop_lsvi.harness import metrics_csv_text, run_experiment

_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

REFERENCES = workloads.load_references()
SEEDS = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
CASES = [*workloads.WORKLOADS.items(), ("smoke", workloads.SMOKE)]


def test_every_case_has_its_references():
    assert sorted(REFERENCES) == sorted(name for name, _ in CASES)
    assert all(sorted(REFERENCES[name]) == sorted(map(str, SEEDS)) for name, _ in CASES)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, workload", CASES, ids=[name for name, _ in CASES])
def test_run_matches_the_recorded_reference(name, workload, seed):
    text = metrics_csv_text(run_experiment(parse_config(workload.config(seed))))
    stats = workloads.csv_stats(text, workload.protocol, workload.K)
    workloads.check_reference(stats, REFERENCES[name][str(seed)])

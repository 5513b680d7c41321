"""Record the simulated statistics that every benchmark run is checked against.

    python3 perfbench/record_references.py

Writes perfbench/references.json: for each workload, and for the untimed
smoke protocol, the comm rounds, switches, trigger count and total regret at
the default and the held-out seed. Re-record only for a change that is meant
to alter simulated trajectories, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl
from worker import import_simulator, run_once

ROOT = os.path.dirname(wl.HERE)


def main() -> int:
    import_simulator(ROOT)
    refs = {}
    for name, w in {**wl.WORKLOADS, "smoke": wl.SMOKE}.items():
        refs[name] = {}
        for seed in (wl.DEFAULT_SEED, wl.HELD_OUT_SEED):
            stats = wl.csv_stats(run_once(w.config(seed)), w.protocol, w.K)
            refs[name][str(seed)] = stats
            print(name, seed, stats, file=sys.stderr)
    with open(wl.REFERENCES_PATH, "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

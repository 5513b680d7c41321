"""Workload definitions and output checks for the coop_lsvi benchmark.

Each workload is a run configuration written from the benchmark's seed
argument; the simulator receives only that config text. This module uses
the standard library alone, so the launcher can import it without numpy.
"""

from __future__ import annotations

import json
import math
import os
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

# The seed used when none is given, and the held-out seed whose references
# were recorded but which no workload size was tuned on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 20231

# All hard workloads share one instance. The gap is fixed here rather than
# left to the K-dependent default, so that changing a workload's K does not
# change the MDP it runs on.
HARD_MDP = "[mdp]\nkind = hard\nd = 8\nH = 3\ngap = 0.02\n"

class Workload(NamedTuple):
    instance: str   # "hard" or "random"
    protocol: str
    K: int
    kernel: str     # calibration kernel matching where the run spends its time
    why: str

    def config(self, seed: int) -> str:
        return config_text(self.instance, self.protocol, self.K, seed)


# Sizes give each run about 0.5-1.5 s on a shared 2-core host, so a 20 s
# measurement holds 15-40 runs. The hard workloads spend their time in
# interpreted Python; random_d200 spends 90% of it in one numpy routine, which
# the host's slow state slows far less (see worker.CALIBRATIONS).
WORKLOADS = {
    "hard_async": Workload(
        "hard", "async_trigger", 4000, "python",
        "The paper's protocol on the hard instance: rare communication into a "
        "large store, dominated by server uploads, downloads and rank-one updates"),
    "hard_full_sync": Workload(
        "hard", "full_sync", 1000, "python",
        "Every episode downloads the whole store, so the server's read path "
        "dominates and cost is quadratic in K"),
    "hard_no_comm": Workload(
        "hard", "no_comm", 4000, "python",
        "Never touches the server; refits from agent-local history, the path "
        "a sufficient-statistics store would replace without a server"),
    "random_d200": Workload(
        "random", "async_trigger", 8, "numpy",
        "High dimension (d=200): every episode refits, dominated by quadratic "
        "forms in the backward update and the policy-table build"),
}

# Untimed check of the one protocol no workload times.
SMOKE = Workload("hard", "sync_round_robin", 300, "python",
                 "Every fired trigger synchronises all agents")

M_AGENTS = 4

# Regret is a float sum of K exactly evaluated increments. A change that only
# reorders floating-point sums (a refactor of the store or of the quadratic
# forms) may move each increment by a few ulps and the sum by about
# K * 2**-52 relative, about 1e-12 at K = 4000; 1e-9 leaves a wide margin for
# that while any change of policy (which moves regret by O(1e-3) or more)
# still fails. Counts are integers and must match exactly.
REGRET_REL_TOL = 1e-9


def config_text(instance: str, protocol: str, K: int, seed: int) -> str:
    """The config the simulator receives for one run."""
    if instance == "hard":
        mdp = HARD_MDP
    else:
        mdp = ("[mdp]\nkind = random\nn_states = 40\nn_actions = 5\nH = 5\n"
               f"seed = {seed}\n")
    return (f"{mdp}\n[run]\nM = {M_AGENTS}\nK = {K}\nprotocol = {protocol}\n"
            f"master_seed = {seed}\n\n[schedule]\nkind = uniform_random\n")


def csv_stats(text: str, protocol: str, K: int) -> dict:
    """Simulated statistics from metrics-CSV text, after its invariants hold.

    Raises ValueError naming the first invariant that fails.
    """
    lines = text.splitlines()
    if lines[0] != "k,m_k,regret_inc,cum_regret,triggered,trigger_h,cum_comm,cum_switch":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != K:
        raise ValueError(f"{len(rows)} rows, expected K={K}")
    prev_comm = prev_switch = 0
    triggers = 0
    regret = 0.0
    for i, row in enumerate(rows, start=1):
        k, _, inc, cum_regret, trig, _, comm, switch = row
        if int(k) != i:
            raise ValueError(f"row {i}: k={k}")
        comm, switch = int(comm), int(switch)
        if comm < prev_comm or switch < prev_switch:
            raise ValueError(f"row {i}: cum_comm or cum_switch decreased")
        prev_comm, prev_switch = comm, switch
        triggers += trig == "1"
        regret += float(inc)
        if not math.isclose(regret, float(cum_regret), rel_tol=REGRET_REL_TOL,
                            abs_tol=REGRET_REL_TOL):
            raise ValueError(f"row {i}: cum_regret {cum_regret} != running sum {regret!r}")
    stats = {"comm_rounds": prev_comm, "total_switches": prev_switch,
             "triggers": triggers, "total_regret": float(rows[-1][3])}
    expected = {
        # One round per fired trigger, and every round refits.
        "async_trigger": (triggers, triggers),
        # Every episode is one round, whatever the trigger says.
        "full_sync": (K, K),
        # Never communicates; each fired trigger is a local refit.
        "no_comm": (0, triggers),
        # Each fired trigger makes every agent upload and download.
        "sync_round_robin": (M_AGENTS * triggers, M_AGENTS * triggers),
    }[protocol]
    if (stats["comm_rounds"], stats["total_switches"]) != expected:
        raise ValueError(
            f"{protocol}: (comm_rounds, total_switches) = "
            f"({stats['comm_rounds']}, {stats['total_switches']}), expected {expected}")
    return stats


def load_references() -> dict:
    with open(REFERENCES_PATH) as f:
        return json.load(f)


def check_reference(stats: dict, ref: dict) -> None:
    """Raise ValueError unless stats equal the recorded reference."""
    for key in ("comm_rounds", "total_switches", "triggers"):
        if stats[key] != ref[key]:
            raise ValueError(f"{key} = {stats[key]}, reference {ref[key]}")
    if not math.isclose(stats["total_regret"], ref["total_regret"],
                        rel_tol=REGRET_REL_TOL):
        raise ValueError(f"total_regret = {stats['total_regret']!r}, "
                         f"reference {ref['total_regret']!r}")

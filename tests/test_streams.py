"""The stream kernel's entry points against numpy's own generators, with
exact equality.

These are the guard should a numpy release ever change SeedSequence, PCG64 or
the bounded draw of ``integers``.
"""

import numpy as np
import pytest

from coop_lsvi import streams
from coop_lsvi.harness import TAG_INIT, TAG_SCHEDULE, TAG_TRAJECTORY, RunConfig, build_mdp
from coop_lsvi.schedules import SEEDED_SCHEDULE_KINDS, make_initial_states, make_schedule
from coop_lsvi.streams import (default_rng_integers, default_rng_random, default_rng_uniforms,
                               mix_seed, mix_seeds)

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
DRAWS = [1, 3, 5, 12]
# Lemire's method rejects about half the 32-bit words at span 2**31 + 1 and a
# quarter at 3 * 2**30.
SPANS = [1, 2, 3, 4, 5, 40, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1]
# The kernel's longest jump-ahead block.
BLOCK = 2 ** streams._MAX_PASSES
# The last size's first refill of 2 * BLOCK + 2 outputs crosses two block
# boundaries, and at the rejection-heavy spans more refills follow.
SIZES = [0, 1, 2, 3, 2049, 4001, 4 * BLOCK + 3]


@pytest.mark.parametrize("n", DRAWS + [BLOCK + 5])
def test_edge_seeds_match_default_rng(n):
    got = default_rng_uniforms(np.array(EDGE_SEEDS, np.uint64), n)
    assert got.shape == (len(EDGE_SEEDS), n)
    for seed, row in zip(EDGE_SEEDS, got):
        assert row.tolist() == np.random.default_rng(seed).random(n).tolist()


@pytest.mark.parametrize("n", DRAWS)
@pytest.mark.parametrize("master", [0, 7, 20231])
def test_trajectory_seeds_match_default_rng(master, n):
    seeds = [mix_seed(master, k, TAG_TRAJECTORY) for k in range(2001)]
    got = default_rng_uniforms(np.array(seeds, np.uint64), n)
    for seed, row in zip(seeds, got):
        assert row.tolist() == np.random.default_rng(seed).random(n).tolist()


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_one_stream_matches_default_rng(n):
    """One seed, any length: the stream crosses 0 to 3 block boundaries."""
    for seed in EDGE_SEEDS + [20231]:
        got = default_rng_random(seed, n)
        assert got.shape == (n,)
        assert got.tolist() == np.random.default_rng(seed).random(n).tolist()


@pytest.mark.parametrize("master", [0, 7, 20231, -5, 2 ** 64 - 1])
def test_mix_seeds_matches_mix_seed(master):
    ks = np.arange(2001)
    got = mix_seeds(master, ks, TAG_TRAJECTORY)
    assert got.dtype == np.uint64
    assert [int(z) for z in got] == [mix_seed(master, k, TAG_TRAJECTORY) for k in range(2001)]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("span", SPANS)
def test_integers_match_default_rng(span, size):
    low = -(span // 2)
    for seed in EDGE_SEEDS:
        got = default_rng_integers(seed, low, low + span, size)
        want = np.random.default_rng(seed).integers(low, low + span, size=size,
                                                    dtype=np.int64)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("seed,low,high", [
    (-1, 0, 2), (2 ** 64, 0, 2), (0, 3, 3), (0, 0, 2 ** 32)])
def test_integers_refuse_what_they_cannot_match(seed, low, high):
    with pytest.raises(ValueError, match="need 0 <= seed < 2\\*\\*64"):
        default_rng_integers(seed, low, high, 4)


SCHEDULE_CASES = [  # (M, K, block_len, seed)
    (1, 5, 1, 0), (2, 1, 3, 2 ** 64 - 1), (3, 1000, 7, mix_seed(0, TAG_SCHEDULE)),
    (7, 4001, 1, mix_seed(20231, TAG_SCHEDULE)), (4, 4000, 10, 2 ** 32)]


@pytest.mark.parametrize("kind", SEEDED_SCHEDULE_KINDS)
@pytest.mark.parametrize("M,K,block,seed", SCHEDULE_CASES)
def test_seeded_schedules_match_default_rng(kind, M, K, block, seed):
    """The seeded schedules equal the numpy expressions they were built from."""
    cfg = RunConfig(schedule=kind, M=M, K=K, schedule_block=block, schedule_seed=seed)
    rng = np.random.default_rng(seed)
    if kind == "uniform_random":
        want = rng.integers(1, M + 1, size=K, dtype=np.int64)
    else:
        want = rng.integers(1, M + 1, size=-(-K // block), dtype=np.int64)[np.arange(K) // block]
    got = make_schedule(cfg, 8)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("mdp", [dict(mdp_kind="hard", mdp_d=8),
                                 dict(mdp_kind="random", mdp_n_states=40, mdp_n_actions=2)],
                         ids=["hard", "random"])
@pytest.mark.parametrize("master", [0, 20231, 2 ** 64 - 1])
def test_uniform_random_initial_states_match_default_rng(mdp, master):
    cfg = RunConfig(K=4001, init_state="uniform_random", master_seed=master, **mdp).resolved()
    instance = build_mdp(cfg)
    seed = mix_seed(master, TAG_INIT)
    want = np.random.default_rng(seed).integers(0, instance.n_states, size=cfg.K,
                                                dtype=np.int64)
    got = make_initial_states(cfg, instance, seed)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()

"""The block kernel against numpy's own generators, with exact equality.

These are the guard should a numpy release ever change SeedSequence or PCG64.
"""

import numpy as np
import pytest

from coop_lsvi.harness import TAG_TRAJECTORY
from coop_lsvi.streams import default_rng_uniforms, mix_seed, mix_seeds

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
DRAWS = [1, 3, 5, 12]


@pytest.mark.parametrize("n", DRAWS)
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


@pytest.mark.parametrize("master", [0, 7, 20231, -5, 2 ** 64 - 1])
def test_mix_seeds_matches_mix_seed(master):
    ks = np.arange(2001)
    got = mix_seeds(master, ks, TAG_TRAJECTORY)
    assert got.dtype == np.uint64
    assert [int(z) for z in got] == [mix_seed(master, k, TAG_TRAJECTORY) for k in range(2001)]

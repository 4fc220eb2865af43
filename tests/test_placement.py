import math

import numpy as np
import pytest

from d2dcache import PlacementPolicy, popularity_weighted_marginals, zipf_popularity


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((93, tag)))


# ---------------------------------------------------------------- marginals


def test_marginals_support_and_capacity():
    pop = zipf_popularity(100, 0.78)
    policy = popularity_weighted_marginals(pop, 5)
    assert np.all(policy.b[:10] > 0)
    assert np.all(policy.b[10:] == 0)
    assert policy.b.sum() <= 5 + 1e-12


def test_marginals_uniform_popularity():
    pop = zipf_popularity(100, 0.0)
    policy = popularity_weighted_marginals(pop, 5)
    np.testing.assert_allclose(policy.b[:10], 0.5, rtol=1e-14)
    assert np.all(policy.b[10:] == 0)


def test_marginals_clamped_at_one():
    # a steep popularity law pushes K * a_1 / sum(head) past one, so the
    # most popular object's marginal saturates
    pop = zipf_popularity(100, 3.0)
    policy = popularity_weighted_marginals(pop, 2)
    assert policy.b[0] == 1.0
    assert policy.b.sum() <= 2 + 1e-12


def test_marginals_nonincreasing():
    for gamma in (0.0, 0.78, 1.5, 3.0):
        policy = popularity_weighted_marginals(zipf_popularity(200, gamma), 7)
        assert np.all(np.diff(policy.b) <= 1e-15)


def test_marginals_need_room_for_two_k():
    with pytest.raises(ValueError):
        popularity_weighted_marginals(zipf_popularity(9, 0.78), 5)


def test_policy_validation():
    with pytest.raises(ValueError):
        PlacementPolicy(b=np.array([0.5, 0.6]), K=1)
    with pytest.raises(ValueError):
        PlacementPolicy(b=np.array([-0.1, 0.5]), K=1)
    with pytest.raises(ValueError):
        PlacementPolicy(b=np.array([1.2, 0.0]), K=1)
    with pytest.raises(ValueError):
        PlacementPolicy(b=np.array([0.5, 0.5]), K=0)


# ---------------------------------------------------------------- sampling


def inventories(policy, u):
    """Cache contents of one node per uniform offset in u: rows are objects, columns nodes."""
    return np.stack([policy.membership(j, u) for j in range(policy.b.size)])


def test_single_slot_marginals_are_categorical():
    policy = PlacementPolicy(b=np.array([0.6, 0.4]), K=1)
    n = 100_000
    held = inventories(policy, rng_for(0).random(n))
    assert np.all(held.sum(axis=0) == 1)
    counts = held.sum(axis=1)
    for j, target in enumerate((0.6, 0.4)):
        se = math.sqrt(target * (1 - target) / n)
        assert abs(counts[j] / n - target) < 3 * se


def test_deterministic_marginals_fix_the_inventory():
    policy = PlacementPolicy(b=np.array([1.0, 0.0, 1.0, 0.0, 1.0]), K=3)
    held = inventories(policy, rng_for(1).random(200))
    assert np.all(held == np.array([True, False, True, False, True])[:, None])


def test_membership_marginals_and_capacity_vectorized():
    pop = zipf_popularity(100, 0.78)
    policy = popularity_weighted_marginals(pop, 5)
    u = rng_for(2).random(1_000_000)
    hits = np.stack([policy.membership(j, u) for j in range(10)])
    # marginal of each object matches b_j
    for j in range(10):
        p = hits[j].mean()
        se = math.sqrt(policy.b[j] * (1 - policy.b[j]) / u.size)
        # + tiny absolute slack: the saturated marginal b_0 == 1 has zero variance
        assert abs(p - policy.b[j]) < 4 * se + 1e-12
    # every single draw respects the K-slot capacity
    per_draw = hits.sum(axis=0)
    assert per_draw.max() <= 5
    # and the mean occupancy equals sum(b) exactly in expectation
    se = per_draw.std(ddof=1) / math.sqrt(u.size)
    assert abs(per_draw.mean() - policy.b.sum()) < 4 * se


def test_sampled_inventories_respect_capacity_and_marginals():
    pop = zipf_popularity(50, 1.2)
    policy = popularity_weighted_marginals(pop, 4)
    n = 10_000
    held = inventories(policy, rng_for(3).random(n))
    assert held.sum(axis=0).max() <= 4
    counts = held.sum(axis=1)
    for j in range(8):
        se = math.sqrt(policy.b[j] * (1 - policy.b[j]) / n)
        assert abs(counts[j] / n - policy.b[j]) < 4 * se + 1e-12

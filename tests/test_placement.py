import numpy as np
import pytest

from d2dcache import PlacementPolicy, popularity_weighted_marginals, zipf_popularity


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

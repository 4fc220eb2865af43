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
    for K in (True, 2.0, 1.5, np.float64(1.0)):
        with pytest.raises(ValueError, match="K must be a positive integer"):
            PlacementPolicy(b=np.array([0.5, 0.5]), K=K)
    assert PlacementPolicy(b=np.array([0.5, 0.5]), K=np.int64(1)).K == 1


def test_marginals_need_an_integer_capacity():
    # a float K used to fail with a TypeError from the slice of the 2K head
    pop = zipf_popularity(10, 0.78)
    for K in (2.0, True, 2.5):
        with pytest.raises(ValueError, match="K must be a positive integer"):
            popularity_weighted_marginals(pop, K)
    policy = popularity_weighted_marginals(pop, np.int64(2))
    np.testing.assert_array_equal(policy.b, popularity_weighted_marginals(pop, 2).b)

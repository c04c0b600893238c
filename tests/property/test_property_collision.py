"""Property-based tests for the collision tester's analytic pieces and
the planes' shared driver-draw collision kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binomial import binom_cdf, binom_sf
from repro.core.collision import (
    collision_free_probability_uniform,
    effective_delta,
    far_accept_upper_bound,
    sample_size_for_delta,
)
from repro.distributions import DiscreteDistribution, uniform
from repro.zeroround.network import grouped_collision, grouped_collision_flags


class TestSampleSizeSolver:
    @given(st.integers(10, 10**7), st.floats(1e-6, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_floor_characterisation(self, n, delta):
        s = sample_size_for_delta(n, delta)
        assert s >= 2
        # s is the floor root (or clamped to 2): s(s-1) <= 2 delta n
        # unless the clamp applied.
        if s > 2:
            assert s * (s - 1) <= 2 * delta * n
            assert (s + 1) * s > 2 * delta * n

    @given(st.integers(10, 10**6), st.floats(1e-4, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_effective_delta_below_request(self, n, delta):
        s = sample_size_for_delta(n, delta)
        if s > 2:
            assert effective_delta(n, s) <= delta + 1e-12


class TestBirthdayBounds:
    @given(st.integers(2, 10**5), st.integers(2, 300))
    @settings(max_examples=200, deadline=None)
    def test_product_in_unit_interval(self, n, s):
        p = collision_free_probability_uniform(n, s)
        assert 0.0 <= p <= 1.0

    @given(st.integers(50, 10**5), st.integers(2, 100))
    @settings(max_examples=200, deadline=None)
    def test_markov_lower_bound(self, n, s):
        """1 - binom(s,2)/n <= exact no-collision probability (uniform)."""
        exact = collision_free_probability_uniform(n, s)
        assert exact >= 1 - s * (s - 1) / (2 * n) - 1e-12

    @given(st.integers(50, 10**5), st.integers(2, 100))
    @settings(max_examples=200, deadline=None)
    def test_wiener_upper_bound_dominates_uniform(self, n, s):
        """Lemma 3.3 at chi = 1/n upper-bounds the uniform birthday product."""
        exact = collision_free_probability_uniform(n, s)
        bound = far_accept_upper_bound(1.0 / n, s)
        assert exact <= bound + 1e-12

    @given(st.floats(1e-6, 0.5), st.integers(2, 200))
    @settings(max_examples=200, deadline=None)
    def test_wiener_bound_monotone_in_chi(self, chi, s):
        tighter = far_accept_upper_bound(min(1.0, chi * 2), s)
        looser = far_accept_upper_bound(chi, s)
        assert tighter <= looser + 1e-12


class TestBinomialTails:
    @given(st.integers(1, 500), st.floats(0.0, 1.0), st.integers(0, 500))
    @settings(max_examples=200, deadline=None)
    def test_complementarity(self, n, p, t):
        assert binom_sf(t, n, p) + binom_cdf(t - 1, n, p) == pytest.approx(
            1.0, abs=1e-9
        )

    @given(st.integers(1, 300), st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_sf_monotone_in_threshold(self, n, p):
        values = [binom_sf(t, n, p) for t in range(0, n + 2)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(2, 200), st.floats(0.05, 0.45))
    @settings(max_examples=100, deadline=None)
    def test_sf_monotone_in_p(self, n, p):
        t = n // 3
        assert binom_sf(t, n, p) <= binom_sf(t, n, min(0.99, p + 0.1)) + 1e-12


# ---------------------------------------------------------------------------
# grouped_collision: driver doubles vs integer samples
# ---------------------------------------------------------------------------


def _check_kernel(dist, members, trials, seed, cut):
    """``grouped_collision`` on the driver doubles of one stream equals
    ``grouped_collision_flags`` on the integer samples of the same stream.

    The doubles are drawn in two chunks (``cut`` and the rest) and the
    integers in one call; both generators must then stand at the same
    place, so a chunked driver draw keeps every later stream aligned.
    """
    total = max(1, int(members.max()) + 1) if members.size else 1
    shape = (total,) if trials is None else (trials, total)
    size = int(np.prod(shape))
    cut = min(cut, size)
    gen_u = np.random.default_rng(seed)
    gen_s = np.random.default_rng(seed)
    u = np.concatenate(
        [dist.sample_uniform(cut, gen_u), dist.sample_uniform(size - cut, gen_u)]
    )
    samples = dist.sample(size, gen_s)
    fast = grouped_collision(u.reshape(shape), members, dist)
    exact = grouped_collision_flags(samples.reshape(shape), members)
    assert fast.shape == shape[:-1] + (members.shape[0],)
    np.testing.assert_array_equal(fast, exact)
    assert gen_u.random() == gen_s.random()


def _distinct_groups(groups, size, spare, seed):
    """``groups`` disjoint index groups of ``size``, scattered over
    ``groups·size + spare`` columns (a packaging layout's shape)."""
    order = np.random.default_rng(seed).permutation(groups * size + spare)
    return order[: groups * size].reshape(groups, size)


@st.composite
def _distributions(draw):
    kind = draw(st.sampled_from(["weights", "point", "wide", "tiny", "large"]))
    n = draw(st.integers(1, 40))
    if kind == "large":
        n = draw(st.integers(100, 5000))
        probs = np.random.default_rng(draw(st.integers(0, 2**32))).random(n)
    elif kind == "point":
        probs = np.zeros(n)
        probs[draw(st.integers(0, n - 1))] = 1.0
    elif kind == "wide":
        # One bin wider than 1/2: most sorted-adjacent pairs survive the
        # gap filter and take the exact lookup.
        rest = np.asarray(
            draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        )
        rest = rest / rest.sum() if rest.sum() > 0 else np.full(n, 1.0 / n)
        big = draw(st.floats(0.51, 0.999))
        probs = np.insert(rest * (1.0 - big), draw(st.integers(0, n)), big)
    elif kind == "tiny":
        # Bins far narrower than the doubles' spacing near 1.
        probs = np.ones(n)
        tiny = draw(st.lists(st.integers(0, n - 1), max_size=n))
        probs[tiny] = draw(st.sampled_from([1e-9, 1e-13, 1e-17]))
    else:
        probs = np.asarray(
            draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        )
        if probs.sum() <= 0:
            probs = np.ones(n)
    return DiscreteDistribution(probs / probs.sum())


class TestGroupedCollisionKernel:
    @given(
        dist=_distributions(),
        groups=st.integers(0, 6),
        size=st.integers(1, 24),
        spare=st.integers(0, 8),
        distinct=st.booleans(),
        trials=st.sampled_from([None, 1, 4]),
        seed=st.integers(0, 2**32 - 1),
        cut=st.integers(0, 400),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_integer_kernel_on_the_same_stream(
        self, dist, groups, size, spare, distinct, trials, seed, cut
    ):
        if distinct:
            members = _distinct_groups(groups, size, spare, seed)
        else:
            # Arbitrary (possibly repeated) column indices.
            members = np.random.default_rng(seed).integers(
                0, size + spare, size=(groups, size)
            )
        _check_kernel(dist, members, trials, seed, cut)

    @pytest.mark.parametrize(
        "probs",
        [
            [1.0],  # n = 1: every pair collides
            [0.0, 0.0, 1.0, 0.0],  # point mass among empty bins
            [0.6, 0.2, 0.2],  # one bin wider than 1/2
            [0.5 - 1e-15, 1e-15, 0.5],  # a tiny bin between two wide ones
        ],
    )
    @pytest.mark.parametrize(
        "groups,size,trials",
        [(0, 4, 3), (5, 1, 3), (4, 6, None), (4, 6, 5), (1, 30, 2)],
    )
    def test_adversarial_cases(self, probs, groups, size, trials):
        dist = DiscreteDistribution(probs)
        for seed in range(4):
            members = _distinct_groups(groups, size, 3, seed)
            _check_kernel(dist, members, trials, seed, cut=7)

    def test_large_domain_batch(self):
        """A ``(trials, total)`` batch where collisions are rare and the
        gap filter discards almost every pair."""
        dist = uniform(20_000)
        members = _distinct_groups(40, 150, 17, 1)
        _check_kernel(dist, members, 25, 2, cut=12_345)

    def test_gap_equal_to_widest_bin_still_collides(self):
        """The lowest and highest doubles of the widest bin map to one
        outcome, and their rounded difference equals ``max_bin_width``:
        the gap filter must keep such a pair (``<=``, not ``<``)."""
        dist = DiscreteDistribution(
            [0.4462920082834087, 3.7963137871377554e-13, 0.5537079917162115]
        )
        cdf = dist.probs.cumsum()
        cdf /= cdf[-1]  # normalised as Generator.choice normalises it
        lo, hi = cdf[1], np.nextafter(1.0, 0.0)
        u = np.array([lo, hi])
        assert hi - lo == dist.max_bin_width()
        assert dist.index_quantiles(u)[0] == dist.index_quantiles(u)[1]
        assert grouped_collision(u, np.array([[0, 1]]), dist).tolist() == [True]

    def test_members_must_be_two_dimensional(self):
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError, match="members"):
            grouped_collision(np.zeros(4), np.arange(4), uniform(3))

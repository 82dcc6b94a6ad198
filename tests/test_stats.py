"""Unit tests for the statistics substrate (t CDF, paired t-tests, BY
correction, flag rule) against closed-form and reference values."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    Flag,
    PairedTTest,
    betainc_reg,
    by_adjust,
    decide_flag,
    paired_ttest,
    t_cdf,
    t_sf,
    ttest_from_moments,
)


class TestBetainc:
    def test_bounds(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_half(self):
        # I_0.5(a, a) = 0.5 for any a.
        for a in (0.5, 1.0, 2.0, 7.5):
            assert betainc_reg(a, a, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_case(self):
        # I_x(1, 1) = x.
        for x in (0.1, 0.25, 0.77):
            assert betainc_reg(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_closed_form_a1(self):
        # I_x(1, b) = 1 - (1-x)^b.
        assert betainc_reg(1.0, 3.0, 0.2) == pytest.approx(1 - 0.8**3, abs=1e-12)

    def test_invalid_x(self):
        with pytest.raises(ValueError):
            betainc_reg(1.0, 1.0, 1.5)


class TestTCdf:
    def test_zero_is_half(self):
        for df in (1, 2, 5, 30, 1000):
            assert t_cdf(0.0, df) == pytest.approx(0.5, abs=1e-12)

    def test_cauchy_df1(self):
        # df=1 is the Cauchy distribution: F(x) = 1/2 + atan(x)/pi.
        for x in (-3.0, -1.0, 0.5, 2.0):
            assert t_cdf(x, 1) == pytest.approx(
                0.5 + math.atan(x) / math.pi, abs=1e-10
            )

    def test_df2_closed_form(self):
        # F(x) = 1/2 + x / (2*sqrt(2)*sqrt(1+x^2/2)) for df=2.
        for x in (-2.0, 0.3, 1.0, 4.0):
            expect = 0.5 + x / (2 * math.sqrt(2) * math.sqrt(1 + x * x / 2))
            assert t_cdf(x, 2) == pytest.approx(expect, abs=1e-10)

    def test_large_df_matches_normal(self):
        # 97.5th percentile of the standard normal.
        assert t_cdf(1.959964, 10**6) == pytest.approx(0.975, abs=1e-4)

    def test_known_critical_value_df20(self):
        # two-sided alpha=0.05 critical value for df=20 is 2.086.
        assert t_cdf(2.086, 20) == pytest.approx(0.975, abs=5e-4)

    def test_symmetry(self):
        for x in (0.2, 1.3, 2.7):
            assert t_cdf(x, 7) + t_cdf(-x, 7) == pytest.approx(1.0, abs=1e-12)

    def test_sf_complements_cdf(self):
        for x in (-2.0, 0.0, 0.5, 3.0):
            assert t_sf(x, 9) == pytest.approx(1.0 - t_cdf(x, 9), abs=1e-12)

    def test_infinite(self):
        assert t_cdf(float("inf"), 5) == 1.0
        assert t_cdf(float("-inf"), 5) == 0.0

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)

    @given(st.floats(-50, 50), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_t(self, x, df):
        assert t_cdf(x, df) <= t_cdf(x + 0.5, df) + 1e-12


class TestPairedTTest:
    def test_positive_improvement(self):
        before = [0.60, 0.61, 0.59, 0.62, 0.60, 0.61, 0.60, 0.59]
        after = [b + 0.03 for b in before]
        r = paired_ttest(before, after)
        assert r.p_two < 0.001
        assert r.p_upper < 0.001
        assert r.p_lower > 0.99

    def test_negative_change(self):
        before = [0.8, 0.82, 0.79, 0.81, 0.80, 0.83]
        after = [b - 0.05 for b in before]
        r = paired_ttest(before, after)
        assert r.p_two < 0.01
        assert r.p_lower < 0.01
        assert r.p_upper > 0.99

    def test_no_change(self):
        rng = np.random.default_rng(0)
        before = rng.normal(0.7, 0.01, 20)
        after = before + rng.normal(0, 0.01, 20)
        r = paired_ttest(before, after)
        assert r.p_two > 0.05

    def test_swap_swaps_tails(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.7, 0.02, 15)
        b = a + rng.normal(0.01, 0.02, 15)
        r1 = paired_ttest(a, b)
        r2 = paired_ttest(b, a)
        assert r1.p_upper == pytest.approx(r2.p_lower, abs=1e-12)
        assert r1.p_two == pytest.approx(r2.p_two, abs=1e-12)

    def test_identical_pairs(self):
        r = paired_ttest([0.5] * 10, [0.5] * 10)
        assert r.p_two == 1.0
        assert r.mean_diff == 0.0

    def test_constant_nonzero_diff(self):
        r = paired_ttest([0.5] * 10, [0.6] * 10)
        assert r.p_two == 0.0
        assert r.p_upper == 0.0
        assert r.p_lower == 1.0

    def test_single_pair_is_insignificant(self):
        r = paired_ttest([0.4], [0.9])
        assert r.p_two == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            paired_ttest([1, 2], [1, 2, 3])

    def test_matches_textbook_example(self):
        # Hand-computed: d = [1, 2, 3, 4, 5], mean 3, sd 1.5811,
        # t = 3 / (1.5811/sqrt(5)) = 4.2426, df = 4 -> p_two ~ 0.0132.
        before = [0.0] * 5
        after = [1.0, 2.0, 3.0, 4.0, 5.0]
        r = paired_ttest(before, after)
        assert r.t_stat == pytest.approx(4.2426, abs=1e-3)
        assert r.p_two == pytest.approx(0.0132, abs=5e-4)

    def test_returns_dataclass(self):
        assert isinstance(paired_ttest([1, 2], [2, 3]), PairedTTest)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=30),
        st.floats(-0.2, 0.2, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_tailed_p_is_half_two_tailed(self, vals, shift):
        before = np.array(vals)
        after = before + shift + np.linspace(0, 1e-6, before.size)
        r = paired_ttest(before, after)
        if 0 < r.p_two < 1:
            assert min(r.p_upper, r.p_lower) == pytest.approx(
                r.p_two / 2, rel=1e-6
            )


class TestTTestFromMoments:
    def test_paired_ttest_is_the_moments_test(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            before = rng.uniform(0.4, 0.9, n)
            after = before + rng.normal(rng.uniform(-0.05, 0.05), rng.uniform(0.001, 0.05), n)
            d = after - before
            assert paired_ttest(before, after) == ttest_from_moments(
                n, float(d.mean()), float(d.std(ddof=1))
            )

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_pairs(self, n):
        # Spark's stddev_samp over one row is NULL, collected as NaN.
        r = ttest_from_moments(n, 0.3, np.nan)
        assert (r.p_two, r.p_upper, r.p_lower) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("mean, expected", [
        (0.1, (0.0, 0.0, 1.0)),
        (-0.1, (0.0, 1.0, 0.0)),
        (0.0, (1.0, 1.0, 1.0)),
    ])
    def test_zero_variance(self, mean, expected):
        r = ttest_from_moments(5, mean, 0.0)
        assert (r.p_two, r.p_upper, r.p_lower) == expected


class TestBYAdjust:
    def test_empty(self):
        assert by_adjust([]).size == 0

    def test_single(self):
        assert by_adjust([0.04])[0] == pytest.approx(0.04)

    def test_equal_spacing_manual(self):
        # m=4, c(4) = 25/12; adjusted = min over j>=k of p_j*m*c/j.
        p = [0.01, 0.02, 0.03, 0.04]
        c = 1 + 1 / 2 + 1 / 3 + 1 / 4
        expect = 0.01 * 4 * c / 1  # all four collapse to the same value
        adj = by_adjust(p)
        assert np.allclose(adj, expect)

    def test_preserves_input_order(self):
        p = [0.5, 0.001, 0.2]
        adj = by_adjust(p)
        assert adj[1] == min(adj)

    def test_monotone_nondecreasing_in_sorted_order(self):
        rng = np.random.default_rng(2)
        p = rng.random(50)
        adj = by_adjust(p)
        order = np.argsort(p)
        assert np.all(np.diff(adj[order]) >= -1e-12)

    def test_adjusted_at_least_raw(self):
        rng = np.random.default_rng(3)
        p = rng.random(30)
        assert np.all(by_adjust(p) >= p - 1e-12)

    def test_capped_at_one(self):
        assert np.all(by_adjust([0.5, 0.9, 0.99]) <= 1.0)

    def test_more_conservative_than_bh(self):
        # BY multiplies BH by c(m) > 1, so BY-adjusted >= BH-adjusted.
        p = np.array([0.001, 0.01, 0.02, 0.3])
        m = p.size
        order = np.argsort(p)
        bh_ranked = p[order] * m / np.arange(1, m + 1)
        bh = np.minimum.accumulate(bh_ranked[::-1])[::-1]
        assert np.all(by_adjust(p)[order] >= bh - 1e-12)

    def test_rejects_bad_pvalues(self):
        with pytest.raises(ValueError):
            by_adjust([0.5, 1.5])
        with pytest.raises(ValueError):
            by_adjust([[0.1], [0.2]])

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_valid_probabilities(self, p):
        adj = by_adjust(p)
        assert np.all((adj >= 0) & (adj <= 1))


class TestFlags:
    def test_positive(self):
        assert decide_flag(0.01, 0.005, 0.995) is Flag.POSITIVE

    def test_negative(self):
        assert decide_flag(0.01, 0.995, 0.005) is Flag.NEGATIVE

    def test_insignificant(self):
        assert decide_flag(0.2, 0.1, 0.9) is Flag.INSIGNIFICANT

    def test_boundary_two_tailed(self):
        assert decide_flag(0.06, 0.03, 0.97) is Flag.INSIGNIFICANT

    def test_alpha_parameter(self):
        assert decide_flag(0.08, 0.04, 0.96, alpha=0.10) is Flag.POSITIVE

    def test_values(self):
        assert Flag.POSITIVE.value == "P"
        assert Flag.NEGATIVE.value == "N"
        assert Flag.INSIGNIFICANT.value == "S"

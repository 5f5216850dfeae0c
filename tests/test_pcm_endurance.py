"""Tests for the order-statistics endurance model, incl. statistical checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.errors import ConfigurationError
from repro.pcm import EnduranceModel, sample_failure_times


class TestSampleFailureTimes:
    def test_shape_and_dtype(self):
        times = sample_failure_times(100, 512, 1e4, 0.2, 5, rng=1)
        assert times.shape == (100, 5)
        assert times.dtype == np.int64

    def test_rows_are_nondecreasing(self):
        times = sample_failure_times(500, 512, 1e4, 0.2, 8, rng=2)
        assert (np.diff(times, axis=1) >= 0).all()

    def test_values_positive(self):
        times = sample_failure_times(500, 512, 1e3, 0.3, 8, rng=3)
        assert (times >= 1).all()

    def test_deterministic_per_seed(self):
        a = sample_failure_times(50, 512, 1e4, 0.2, 4, rng=7)
        b = sample_failure_times(50, 512, 1e4, 0.2, 4, rng=7)
        assert (a == b).all()

    def test_seed_changes_sample(self):
        a = sample_failure_times(50, 512, 1e4, 0.2, 4, rng=7)
        b = sample_failure_times(50, 512, 1e4, 0.2, 4, rng=8)
        assert not (a == b).all()

    def test_first_order_statistic_distribution(self):
        """The sampled minimum matches the analytic min-of-n distribution.

        For n i.i.d. normals, P(min <= t) = 1 - (1 - Phi(z))^n.  A KS test
        against that CDF on the first order statistic validates the
        sequential-beta construction end to end.
        """
        mean, cov, n = 1e4, 0.2, 512
        sd = mean * cov
        times = sample_failure_times(4000, n, mean, cov, 1, rng=5)[:, 0]

        def cdf(t):
            return 1.0 - (1.0 - stats.norm.cdf((t - mean) / sd)) ** n

        result = stats.kstest(times, cdf)
        assert result.pvalue > 0.01, result

    def test_higher_orders_have_higher_means(self):
        times = sample_failure_times(2000, 512, 1e4, 0.2, 8, rng=6)
        means = times.mean(axis=0)
        assert (np.diff(means) > 0).all()

    def test_quantile_map_matches_scipy_stats_reference(self):
        """``ndtri`` replaced ``stats.norm.ppf``; the samples are unchanged.

        The reference rebuilds the same uniforms and maps them through
        ``scipy.stats``; the samples must match bit for bit, on the
        model's default parameters and on a high-variance one.
        """
        for blocks, n, mean, cov, k, seed in [(300, 512, 4e3, 0.2, 24, 1),
                                              (2000, 64, 1e8, 0.6, 9, 42)]:
            generator = np.random.default_rng(seed)
            uniforms = np.empty((blocks, k))
            previous = np.zeros(blocks)
            for i in range(k):
                v = generator.random(blocks)
                previous = 1.0 - (1.0 - previous) * v ** (1.0 / (n - i))
                uniforms[:, i] = previous
            np.clip(uniforms, 1e-15, 1.0 - 1e-15, out=uniforms)
            lifetimes = mean + mean * cov * stats.norm.ppf(uniforms)
            expected = np.maximum(np.rint(lifetimes), 1.0).astype(np.int64)
            got = sample_failure_times(blocks, n, mean, cov, k, rng=seed)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k", [0, -1, 600])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ConfigurationError):
            sample_failure_times(10, 512, 1e4, 0.2, k)


class TestEnduranceModel:
    def test_materializes_max_order(self):
        model = EnduranceModel(num_blocks=64, mean=1e3, max_order=10, seed=1)
        assert model.failure_times.shape == (64, 10)

    def test_nth_failure_bounds(self):
        model = EnduranceModel(num_blocks=64, mean=1e3, max_order=10, seed=1)
        with pytest.raises(ConfigurationError):
            model.nth_failure(0)
        with pytest.raises(ConfigurationError):
            model.nth_failure(11)

    def test_uncorrectable_threshold_is_shifted_order(self):
        model = EnduranceModel(num_blocks=64, mean=1e3, max_order=10, seed=1)
        assert (model.uncorrectable_threshold(0)
                == model.nth_failure(1)).all()
        assert (model.uncorrectable_threshold(6)
                == model.nth_failure(7)).all()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            EnduranceModel(num_blocks=8, mean=0)
        with pytest.raises(ConfigurationError):
            EnduranceModel(num_blocks=8, cov=1.0)

    @given(capacity=st.integers(min_value=0, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_more_correction_never_hurts(self, capacity):
        """Property: a stronger code's threshold dominates a weaker one's."""
        model = EnduranceModel(num_blocks=32, mean=1e3, max_order=10, seed=4)
        weaker = model.uncorrectable_threshold(capacity)
        stronger = model.uncorrectable_threshold(capacity + 1)
        assert (stronger >= weaker).all()

"""Tests for interval probabilities and p-boxes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DistributionError
from repro.probability.distributions import Normal, Uniform
from repro.probability.intervals import IntervalProbability, PBox

probs = st.floats(min_value=0.0, max_value=1.0)


def interval_strategy():
    return st.tuples(probs, probs).map(
        lambda t: IntervalProbability(min(t), max(t)))


class TestIntervalProbability:
    def test_construction_validation(self):
        with pytest.raises(DistributionError):
            IntervalProbability(0.6, 0.4)
        with pytest.raises(DistributionError):
            IntervalProbability(-0.1, 0.5)

    def test_precise_and_vacuous(self):
        assert IntervalProbability.precise(0.3).width == 0.0
        v = IntervalProbability.vacuous()
        assert (v.lower, v.upper) == (0.0, 1.0)

    def test_complement(self):
        iv = IntervalProbability(0.2, 0.5).complement()
        assert (iv.lower, iv.upper) == (0.5, 0.8)

    def test_and_independent(self):
        a = IntervalProbability(0.5, 0.6)
        b = IntervalProbability(0.5, 0.5)
        c = a.and_independent(b)
        assert c.lower == pytest.approx(0.25)
        assert c.upper == pytest.approx(0.3)

    def test_frechet_contains_independent(self):
        """Unknown-dependence bounds must contain the independence result."""
        a = IntervalProbability(0.3, 0.4)
        b = IntervalProbability(0.6, 0.7)
        ind = a.and_independent(b)
        fre = a.and_frechet(b)
        assert fre.lower <= ind.lower + 1e-12
        assert fre.upper >= ind.upper - 1e-12

    def test_or_de_morgan_consistency(self):
        a = IntervalProbability(0.2, 0.3)
        b = IntervalProbability(0.4, 0.5)
        direct = a.or_independent(b)
        demorgan = a.complement().and_independent(b.complement()).complement()
        assert direct.lower == pytest.approx(demorgan.lower)
        assert direct.upper == pytest.approx(demorgan.upper)

    def test_intersect_and_conflict(self):
        a = IntervalProbability(0.2, 0.5)
        b = IntervalProbability(0.4, 0.8)
        c = a.intersect(b)
        assert (c.lower, c.upper) == (0.4, 0.5)
        with pytest.raises(DistributionError):
            IntervalProbability(0.0, 0.1).intersect(IntervalProbability(0.5, 0.6))

    def test_hull(self):
        h = IntervalProbability(0.1, 0.2).hull(IntervalProbability(0.5, 0.6))
        assert (h.lower, h.upper) == (0.1, 0.6)

    def test_contains(self):
        assert IntervalProbability(0.2, 0.4).contains(0.3)
        assert not IntervalProbability(0.2, 0.4).contains(0.5)

    @given(interval_strategy(), interval_strategy())
    @settings(max_examples=100, deadline=None)
    # Separately rounded ends once put or_independent's lower bound one
    # ulp above its upper bound here.
    @example(IntervalProbability(0.8357651039198697, 0.8357651039198698),
             IntervalProbability.precise(0.43276706790505337))
    def test_operations_stay_valid_property(self, a, b):
        for result in (a.and_independent(b), a.or_independent(b),
                       a.and_frechet(b), a.or_frechet(b), a.complement(),
                       a.hull(b)):
            assert 0.0 <= result.lower <= result.upper <= 1.0


class TestPBox:
    def test_degenerate_pbox_zero_width(self):
        grid = np.linspace(-3, 3, 50)
        pb = PBox.from_distribution(Normal(0, 1), grid)
        assert pb.width() == pytest.approx(0.0, abs=1e-12)

    def test_interval_parameter_envelope(self):
        grid = np.linspace(-5, 5, 80)
        pb = PBox.from_interval_parameter(lambda mu: Normal(mu, 1.0),
                                          -1.0, 1.0, grid)
        iv = pb.cdf_interval(0.0)
        assert iv.lower < 0.5 < iv.upper
        assert pb.width() > 0.05

    def test_width_grows_with_ignorance(self):
        grid = np.linspace(-6, 6, 80)
        narrow = PBox.from_interval_parameter(lambda mu: Normal(mu, 1.0),
                                              -0.2, 0.2, grid)
        wide = PBox.from_interval_parameter(lambda mu: Normal(mu, 1.0),
                                            -2.0, 2.0, grid)
        assert wide.width() > narrow.width()

    def test_exceedance_interval_complement(self):
        grid = np.linspace(0, 1, 50)
        pb = PBox.from_distribution(Uniform(0, 1), grid)
        iv = pb.exceedance_interval(0.7)
        assert iv.midpoint == pytest.approx(0.3, abs=0.05)

    def test_mean_interval_brackets_true_mean(self):
        grid = np.linspace(-6, 6, 200)
        pb = PBox.from_interval_parameter(lambda mu: Normal(mu, 1.0),
                                          -1.0, 1.0, grid)
        lo, hi = pb.mean_interval()
        assert lo < 0.0 < hi
        assert lo == pytest.approx(-1.0, abs=0.1)
        assert hi == pytest.approx(1.0, abs=0.1)

    def test_envelope_of_two_pboxes(self):
        grid = np.linspace(-5, 5, 60)
        a = PBox.from_distribution(Normal(-1, 1), grid)
        b = PBox.from_distribution(Normal(1, 1), grid)
        env = a.envelope(b)
        iv = env.cdf_interval(0.0)
        assert iv.width > 0.1

    def test_invalid_envelopes(self):
        grid = [0.0, 1.0, 2.0]
        with pytest.raises(DistributionError):
            PBox(grid, [0.0, 0.5, 0.4], [0.1, 0.6, 1.0])  # non-monotone
        with pytest.raises(DistributionError):
            PBox(grid, [0.2, 0.5, 1.0], [0.1, 0.6, 1.0])  # lower > upper

    def test_grid_validation(self):
        with pytest.raises(DistributionError):
            PBox([1.0], [0.5], [0.5])
        with pytest.raises(DistributionError):
            PBox([1.0, 1.0], [0.0, 1.0], [0.0, 1.0])

"""Imprecise probabilities: interval probabilities and p-boxes.

When epistemic uncertainty about a probability cannot be summarized by a
single prior, imprecise-probability structures carry lower/upper bounds
instead.  They connect directly to evidence theory
(:mod:`repro.evidence`): a belief/plausibility pair *is* an interval
probability, and the evidential safety analysis of the paper's §V reports
exactly such intervals.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import DistributionError
from repro.probability.distributions import Distribution


class IntervalProbability:
    """A probability known only to lie within [lower, upper].

    Supports the Frechet bounds for conjunction/disjunction of events with
    unknown dependence, and the independence rules as tighter alternatives.
    These are the arithmetic used by interval-valued fault trees.
    """

    def __init__(self, lower: float, upper: float):
        lower, upper = float(lower), float(upper)
        if not 0.0 <= lower <= upper <= 1.0:
            raise DistributionError(
                f"require 0 <= lower <= upper <= 1, got [{lower}, {upper}]")
        self.lower = lower
        self.upper = upper

    @classmethod
    def precise(cls, p: float) -> "IntervalProbability":
        return cls(p, p)

    @classmethod
    def vacuous(cls) -> "IntervalProbability":
        """Total ignorance: [0, 1]."""
        return cls(0.0, 1.0)

    @property
    def width(self) -> float:
        """Imprecision — the epistemic content of the interval."""
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def is_precise(self, atol: float = 1e-12) -> bool:
        return self.width <= atol

    def complement(self) -> "IntervalProbability":
        return IntervalProbability(1.0 - self.upper, 1.0 - self.lower)

    def and_independent(self, other: "IntervalProbability") -> "IntervalProbability":
        return IntervalProbability(self.lower * other.lower, self.upper * other.upper)

    def or_independent(self, other: "IntervalProbability") -> "IntervalProbability":
        lo = self.lower + other.lower - self.lower * other.lower
        hi = self.upper + other.upper - self.upper * other.upper
        # The ends are rounded separately, so a near-precise operand can
        # leave lo one ulp above hi (or hi above 1); round outward to keep
        # the exact interval enclosed.
        return IntervalProbability(max(0.0, min(lo, hi)),
                                   min(1.0, max(lo, hi)))

    def and_frechet(self, other: "IntervalProbability") -> "IntervalProbability":
        """Conjunction bounds with *unknown dependence* (Frechet-Hoeffding)."""
        lo = max(0.0, self.lower + other.lower - 1.0)
        hi = min(self.upper, other.upper)
        return IntervalProbability(lo, hi)

    def or_frechet(self, other: "IntervalProbability") -> "IntervalProbability":
        lo = max(self.lower, other.lower)
        hi = min(1.0, self.upper + other.upper)
        return IntervalProbability(lo, hi)

    def intersect(self, other: "IntervalProbability") -> "IntervalProbability":
        """Combine two interval constraints on the *same* probability."""
        lo, hi = max(self.lower, other.lower), min(self.upper, other.upper)
        if lo > hi:
            raise DistributionError(
                f"inconsistent interval constraints [{self.lower},{self.upper}] "
                f"and [{other.lower},{other.upper}]")
        return IntervalProbability(lo, hi)

    def hull(self, other: "IntervalProbability") -> "IntervalProbability":
        return IntervalProbability(min(self.lower, other.lower),
                                   max(self.upper, other.upper))

    def contains(self, p: float) -> bool:
        return self.lower - 1e-12 <= p <= self.upper + 1e-12

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalProbability):
            return NotImplemented
        return math.isclose(self.lower, other.lower) and math.isclose(self.upper, other.upper)

    def __hash__(self) -> int:
        return hash((round(self.lower, 15), round(self.upper, 15)))

    def __repr__(self) -> str:
        return f"IntervalProbability([{self.lower:.6g}, {self.upper:.6g}])"


class PBox:
    """A probability box: lower and upper cdf envelopes on a common grid.

    A p-box generalizes interval probability to whole distributions; it is
    the imprecise counterpart of a cdf and the natural output of
    propagating interval parameters through a model.
    """

    def __init__(self, grid: Sequence[float], lower_cdf: Sequence[float],
                 upper_cdf: Sequence[float]):
        self.grid = np.asarray(grid, dtype=float)
        self.lower_cdf = np.asarray(lower_cdf, dtype=float)
        self.upper_cdf = np.asarray(upper_cdf, dtype=float)
        if not (self.grid.shape == self.lower_cdf.shape == self.upper_cdf.shape):
            raise DistributionError("grid and cdf envelopes must have the same shape")
        if self.grid.size < 2:
            raise DistributionError("p-box grid needs at least 2 points")
        if np.any(np.diff(self.grid) <= 0):
            raise DistributionError("grid must be strictly increasing")
        for name, cdf in (("lower", self.lower_cdf), ("upper", self.upper_cdf)):
            if np.any(np.diff(cdf) < -1e-12):
                raise DistributionError(f"{name} cdf envelope must be non-decreasing")
            if np.any((cdf < -1e-12) | (cdf > 1.0 + 1e-12)):
                raise DistributionError(f"{name} cdf envelope must lie in [0, 1]")
        if np.any(self.lower_cdf > self.upper_cdf + 1e-12):
            raise DistributionError("lower cdf envelope must not exceed upper envelope")

    @classmethod
    def from_distribution(cls, dist: Distribution, grid: Sequence[float]) -> "PBox":
        """Degenerate p-box of a precise distribution."""
        grid = np.asarray(grid, dtype=float)
        cdf = np.atleast_1d(dist.cdf(grid))
        return cls(grid, cdf, cdf)

    @classmethod
    def from_interval_parameter(cls, family: Callable[[float], Distribution],
                                lower_param: float, upper_param: float,
                                grid: Sequence[float], n_steps: int = 32) -> "PBox":
        """Envelope of a parametric family over an interval parameter."""
        grid = np.asarray(grid, dtype=float)
        params = np.linspace(lower_param, upper_param, n_steps)
        cdfs = np.vstack([np.atleast_1d(family(p).cdf(grid)) for p in params])
        return cls(grid, cdfs.min(axis=0), cdfs.max(axis=0))

    def cdf_interval(self, x: float) -> IntervalProbability:
        lo = float(np.interp(x, self.grid, self.lower_cdf, left=0.0, right=self.lower_cdf[-1]))
        hi = float(np.interp(x, self.grid, self.upper_cdf, left=self.upper_cdf[0], right=1.0))
        return IntervalProbability(min(lo, hi), max(lo, hi))

    def exceedance_interval(self, threshold: float) -> IntervalProbability:
        """Bounds on P(X > threshold)."""
        return self.cdf_interval(threshold).complement()

    def mean_interval(self) -> Tuple[float, float]:
        """Bounds on the mean via the cdf envelopes (trapezoidal on the grid).

        E[X] bounds follow from E[X] = x_max - integral of cdf (on the grid
        range); the upper cdf gives the lower mean bound and vice versa.
        """
        a, b = self.grid[0], self.grid[-1]
        int_upper = float(np.trapezoid(self.upper_cdf, self.grid))
        int_lower = float(np.trapezoid(self.lower_cdf, self.grid))
        mean_lo = a + (b - a) - int_upper
        mean_hi = a + (b - a) - int_lower
        return mean_lo + 0.0, mean_hi + 0.0

    def width(self) -> float:
        """Mean vertical gap between the envelopes — imprecision measure."""
        return float(np.trapezoid(self.upper_cdf - self.lower_cdf, self.grid) /
                     (self.grid[-1] - self.grid[0]))

    def envelope(self, other: "PBox") -> "PBox":
        """Pointwise hull of two p-boxes on the union grid."""
        grid = np.union1d(self.grid, other.grid)
        lo = np.minimum(np.interp(grid, self.grid, self.lower_cdf),
                        np.interp(grid, other.grid, other.lower_cdf))
        hi = np.maximum(np.interp(grid, self.grid, self.upper_cdf),
                        np.interp(grid, other.grid, other.upper_cdf))
        return PBox(grid, lo, hi)

    def __repr__(self) -> str:
        return (f"PBox(grid=[{self.grid[0]:.4g}..{self.grid[-1]:.4g}] "
                f"n={self.grid.size}, width={self.width():.4g})")

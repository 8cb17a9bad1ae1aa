"""Privacy-sensitivity distributions and virtual costs.

A client's sensitivity c is its per-unit monetary cost of privacy leakage.
The server optimizes against the information-rent-adjusted *virtual cost*

    v(c) = c + F(c) / f(c),

where F and f are the sensitivity distribution's CDF and density. All
distributions here have bounded support with positive density, and are
required to yield a strictly increasing v (regularity); construction fails
otherwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

REGULARITY_GRID_POINTS = 1000


class CostDistribution:
    """Base class for sensitivity distributions on a bounded support."""

    lower: float
    upper: float

    def cdf(self, c):
        raise NotImplementedError

    def pdf(self, c):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def in_support(self, c) -> bool:
        return bool(np.all((c >= self.lower) & (c <= self.upper)))

    def virtual(self, c):
        """Vectorized v(c) = c + F(c)/f(c). `c` must lie in the support."""
        c = np.asarray(c, dtype=float)
        if not self.in_support(c):
            raise ValueError(f"sensitivity outside support [{self.lower}, {self.upper}]")
        return c + self.cdf(c) / self.pdf(c)

    def _check_regularity(self) -> None:
        if self.lower < 0:
            raise ValueError("support lower bound must be >= 0")
        if not self.upper > self.lower:
            raise ValueError("empty support")
        grid = np.linspace(self.lower, self.upper, REGULARITY_GRID_POINTS)
        dens = self.pdf(grid)
        if np.any(dens <= 0) or not np.all(np.isfinite(dens)):
            raise ValueError("density must be positive and finite on the support")
        v = grid + self.cdf(grid) / dens
        if np.any(np.diff(v) <= 0):
            raise ValueError("virtual cost is not strictly increasing on the support "
                             "(regularity violated)")


@dataclass(frozen=True)
class UniformCosts(CostDistribution):
    """Uniform sensitivities on [lower, upper]; v(c) = 2c - lower analytically."""

    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self):
        self._check_regularity()

    def cdf(self, c):
        return (np.asarray(c, dtype=float) - self.lower) / (self.upper - self.lower)

    def pdf(self, c):
        return np.full_like(np.asarray(c, dtype=float), 1.0 / (self.upper - self.lower))

    def virtual(self, c):
        c = np.asarray(c, dtype=float)
        if not self.in_support(c):
            raise ValueError(f"sensitivity outside support [{self.lower}, {self.upper}]")
        return 2.0 * c - self.lower

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.lower, self.upper, size=size)


@dataclass(frozen=True)
class TruncatedGaussianCosts(CostDistribution):
    """Gaussian sensitivities truncated to [lower, upper]; v via numeric F, f."""

    mean: float = 0.5
    std: float = 0.2
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("std must be positive")
        self._check_regularity()

    @functools.cached_property
    def _frozen(self):
        """The scipy distribution, built once per instance.

        scipy.stats is imported here, not at module level: only this prior
        needs it, and its first import takes about 1 s and 60 MB (2 vCPUs).
        """
        from scipy import stats

        a = (self.lower - self.mean) / self.std
        b = (self.upper - self.mean) / self.std
        return stats.truncnorm(a, b, loc=self.mean, scale=self.std)

    def cdf(self, c):
        return self._frozen.cdf(np.asarray(c, dtype=float))

    def pdf(self, c):
        return self._frozen.pdf(np.asarray(c, dtype=float))

    def sample(self, rng: np.random.Generator, size=None):
        return self._frozen.rvs(size=size, random_state=rng)


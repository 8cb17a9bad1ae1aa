"""Privacy-sensitivity distributions and virtual costs.

A client's sensitivity c is its per-unit monetary cost of privacy leakage.
The server optimizes against the information-rent-adjusted *virtual cost*

    v(c) = c + F(c) / f(c),

where F and f are the sensitivity distribution's CDF and density. All
distributions here have bounded support with positive density, and are
required to yield a strictly increasing v (regularity); construction fails
otherwise. Each prior gives v as its own closed form, with no generic F/f
path: the uniform in numpy alone, the truncated Gaussian in
`scipy.special`, which only that prior imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REGULARITY_GRID_POINTS = 1000


class CostDistribution:
    """Base class for sensitivity distributions on a bounded support: each
    prior gives `pdf` (read by the regularity check), a closed-form `virtual`
    and `sample`."""

    lower: float
    upper: float

    def pdf(self, c):
        raise NotImplementedError

    def virtual(self, c):
        """Vectorized v(c) = c + F(c)/f(c). `c` must lie in the support."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def _in_support_array(self, c):
        """`c` as a float array, which must lie in the support."""
        c = np.asarray(c, dtype=float)
        if not np.all((c >= self.lower) & (c <= self.upper)):
            raise ValueError(f"sensitivity outside support [{self.lower}, {self.upper}]")
        return c

    def _check_regularity(self) -> None:
        if self.lower < 0:
            raise ValueError("support lower bound must be >= 0")
        if not self.upper > self.lower:
            raise ValueError("empty support")
        grid = np.linspace(self.lower, self.upper, REGULARITY_GRID_POINTS)
        # an overflow here is a verdict, reported below, not a warning
        with np.errstate(all="ignore"):
            dens = self.pdf(grid)
            if np.any(dens <= 0) or not np.all(np.isfinite(dens)):
                raise ValueError("density must be positive and finite on the support")
            v = self.virtual(grid)
        if not np.all(np.isfinite(v)):
            raise ValueError("virtual cost must be finite on the support")
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

    def pdf(self, c):
        return np.full_like(np.asarray(c, dtype=float), 1.0 / (self.upper - self.lower))

    def virtual(self, c):
        return 2.0 * self._in_support_array(c) - self.lower

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.lower, self.upper, size=size)


def _log_mass(lo: float, hi):
    """log(Phi(hi) - Phi(lo)) of the standard normal, for a scalar lo <= hi.

    Where lo > 0 the interval is mirrored to (-hi, -lo): log_ndtr keeps its
    precision in the left tail only, and a far-tail mass stays finite there.
    Where lo <= 0 < hi the mass is log1p(-Phi(lo) - Phi(-hi)), which keeps
    its precision as the mass nears 1; these are scipy truncnorm's cases.
    """
    from scipy.special import log_ndtr, ndtr

    if lo > 0:
        lo, hi = -hi, -lo
    log_hi = log_ndtr(hi)
    with np.errstate(divide="ignore"):  # hi == lo: zero mass, log 0 = -inf
        return np.where(hi > 0, np.log1p(-ndtr(lo) - ndtr(-hi)),
                        log_hi + np.log(-np.expm1(log_ndtr(lo) - log_hi)))


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TruncatedGaussianCosts(CostDistribution):
    """Gaussian sensitivities truncated to [lower, upper], in closed form.

    With x = (c - mean)/std, alpha = x(lower) and Z = Phi(x(upper)) - Phi(alpha),
    F and f are evaluated in log space; Z cancels in F/f, so
    v(c) = c + std*sqrt(2 pi)*(Phi(x) - Phi(alpha))*exp(x^2/2).
    """

    mean: float = 0.5
    std: float = 0.2
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("std must be positive")
        self._check_regularity()

    def _x(self, c):
        return (np.asarray(c, dtype=float) - self.mean) / self.std

    def _log_z(self):
        return _log_mass(self._x(self.lower), self._x(self.upper))

    def pdf(self, c):
        x = self._x(c)
        return np.exp(-x ** 2 / 2.0 - _LOG_SQRT_2PI - self._log_z()) / self.std

    def virtual(self, c):
        c = self._in_support_array(c)
        x = self._x(c)
        return c + self.std * np.exp(_log_mass(self._x(self.lower), x) + x ** 2 / 2.0
                                     + _LOG_SQRT_2PI)

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-transform draws, one uniform each, on the same stream as
        scipy's generic `rvs`: a seed gives scipy's truncnorm draws to within
        a few ulps of the support."""
        from scipy.special import log_ndtr, ndtri_exp

        alpha, beta = self._x(self.lower), self._x(self.upper)
        u = rng.uniform(size=size)
        if alpha < 0:
            x = ndtri_exp(np.logaddexp(log_ndtr(alpha), np.log(u) + self._log_z()))
        else:  # mirrored into the left tail, as in _log_mass
            x = -ndtri_exp(np.logaddexp(log_ndtr(-beta), np.log1p(-u) + self._log_z()))
        return np.clip(self.mean + self.std * x, self.lower, self.upper)

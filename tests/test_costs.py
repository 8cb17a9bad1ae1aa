"""Sensitivity distributions, virtual costs, and client ordering."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from jsam.costs import CostDistribution, TruncatedGaussianCosts, UniformCosts
from jsam.flsim import make_plan
from jsam.mechanism import ServerConfig, solve_profiles, verify_structure

# frozen from a 40-digit quadrature of the normal density: the truncation
# mass cancels in F/f, so v(c) = c + (integral_0^c phi)/phi(c)
GAUSSIAN_V_AT_07 = 1.3902777866226503


def test_uniform_virtual_doubles_the_sensitivity():
    assert UniformCosts(0.0, 1.0).virtual(0.3) == 0.6


def test_virtual_vanishes_at_the_lower_support_edge():
    assert UniformCosts(0.0, 1.0).virtual(0.0) == 0.0


@given(st.floats(0.0, 5.0), st.floats(0.05, 5.0), st.floats(0.0, 1.0))
def test_uniform_virtual_is_affine_in_the_sensitivity(lower, width, frac):
    dist = UniformCosts(lower, lower + width)
    c = lower + frac * width
    assert dist.virtual(c) == pytest.approx(2.0 * c - lower, abs=1e-12)


def test_gaussian_virtual_matches_quadrature_oracle():
    dist = TruncatedGaussianCosts(mean=0.5, std=0.2, lower=0.0, upper=1.0)
    assert dist.virtual(0.7) == pytest.approx(GAUSSIAN_V_AT_07, abs=1e-9)


def test_gaussian_virtual_increases_on_the_support():
    dist = TruncatedGaussianCosts(mean=0.5, std=0.2, lower=0.0, upper=1.0)
    grid = np.linspace(0.0, 1.0, 400)
    assert np.all(np.diff(dist.virtual(grid)) > 0)


# (mean, std, lower, upper): central, touching 0, both far-tail sides, narrow,
# mean above the support, and a wide std
REFERENCE_PRIORS = [(0.5, 0.2, 0.05, 1.0), (0.5, 0.2, 0.0, 1.0), (10.0, 0.2, 0.0, 1.0),
                    (-5.0, 0.3, 0.0, 1.0), (0.5, 0.4, 0.1, 0.9), (2.0, 0.2, 0.0, 1.0),
                    (0.3, 1.0, 0.0, 1.0)]


def _draw_atol(dist, draws):
    """Each draw's absolute tolerance against scipy's, from the arithmetic of
    the draw c = mean + std*x, where x = ndtri_exp(L) and L = log Phi(s) at
    the standardized draw s (x, or -x in `sample`'s mirrored branch):

    - L = logaddexp(log Phi(alpha), log u + log Z). The package's log Z and
      scipy's can differ in the last bit, and each sum rounds, so the two L
      differ by a few ulps of max(1, |log Z|);
    - dx/dL = Phi(s)/phi(s), so x moves by that factor times the change in L,
      and c by std times the move in x;
    - std*x and the sum each round once more: an ulp of |std*x|, of |c| and
      of |mean|.

    The tolerance is four times the sum of those terms.
    """
    from scipy.special import log_ndtr

    x = (draws - dist.mean) / dist.std
    s = x if dist.lower < dist.mean else -x
    dx_dl = np.exp(log_ndtr(s) + s * s / 2.0 + 0.5 * math.log(2.0 * math.pi))
    return 4.0 * (dist.std * dx_dl * np.spacing(max(1.0, abs(float(dist._log_z()))))
                  + np.spacing(dist.std * np.abs(x)) + np.spacing(np.abs(draws))
                  + np.spacing(abs(dist.mean)))


def _assert_draws_match(dist, got, want):
    """assert_allclose at rtol=1e-12 with `_draw_atol`'s per-draw atol."""
    assert got.shape == want.shape
    excess = np.abs(got - want) - (_draw_atol(dist, want) + 1e-12 * np.abs(want))
    assert np.all(excess <= 0), f"a draw is {np.nanmax(excess):.3g} past its tolerance"


def _assert_matches_truncnorm(mean, std, lower, upper, seed):
    dist = TruncatedGaussianCosts(mean=mean, std=std, lower=lower, upper=upper)
    ref = stats.truncnorm((lower - mean) / std, (upper - mean) / std,
                          loc=mean, scale=std)
    grid = np.linspace(lower, upper, 501)
    for got, want in [(dist.virtual(grid), grid + ref.cdf(grid) / ref.pdf(grid)),
                      (dist.pdf(grid), ref.pdf(grid))]:
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    _assert_draws_match(dist, dist.sample(np.random.default_rng(seed), 200),
                        ref.rvs(size=200, random_state=np.random.default_rng(seed)))


@pytest.mark.parametrize("seed, prior", enumerate(REFERENCE_PRIORS))
def test_gaussian_matches_scipy_truncnorm(seed, prior):
    # scipy.stats is the reference here only; the package uses scipy.special
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_truncnorm(*prior, seed=seed)


@settings(max_examples=40, deadline=None)
@example(mean=0.0, std=1.0, lower=0.0, width=1.0, seed=66)  # a central mass (lo <= 0 < hi)
@example(mean=0.0, std=1.0, lower=1e-12, width=0.5, seed=2860833)  # 1.25 ulp of upper off
@example(mean=-1.0, std=1.0, lower=0.0, width=0.1, seed=212)  # 12 ulps of upper off
@example(mean=-0.0625, std=1.5, lower=0.0, width=0.125, seed=1276)  # std * Phi/phi ~ 1.7
@given(st.floats(-1.0, 2.0), st.floats(0.1, 2.0), st.floats(0.0, 0.5),
       st.floats(0.1, 1.0), st.integers(0, 2 ** 32 - 1))
def test_gaussian_matches_scipy_truncnorm_on_random_priors(mean, std, lower, width,
                                                           seed):
    # a truncated Gaussian is log-concave, so v increases; these ranges keep the
    # support within 25 std of the mean, where the density does not underflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_truncnorm(mean, std, lower, lower + width, seed)


@pytest.mark.parametrize("mean, std, upper, seed", [(-1.0, 1.0, 0.1, 212),
                                                    (-0.0625, 1.5, 0.125, 1276)])
def test_draw_tolerance_still_sees_a_draw_moved_by_1e_12(mean, std, upper, seed):
    # rtol alone admits a move of 1e-12 of the draw itself; a move of 1e-12
    # of the support top, at the lowest draw, is far above the rounding the
    # tolerance allows
    dist = TruncatedGaussianCosts(mean=mean, std=std, lower=0.0, upper=upper)
    want = dist.sample(np.random.default_rng(seed), 200)
    _assert_draws_match(dist, want, want)
    got = want.copy()
    got[want.argmin()] += 1e-12 * upper
    with pytest.raises(AssertionError):
        _assert_draws_match(dist, got, want)


def test_gaussian_far_tail_prior_is_rejected_as_before():
    # the density underflows to 0 on the support; scipy's truncnorm gives the
    # same verdict, so a config it rejected is still rejected, by name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^density must be positive and "
                                             "finite on the support$"):
            TruncatedGaussianCosts(mean=5.0, std=0.01, lower=0.0, upper=1.0)


def test_out_of_support_sensitivity_is_rejected(uniform01):
    with pytest.raises(ValueError, match="support"):
        uniform01.virtual(1.5)
    with pytest.raises(ValueError, match="support"):
        uniform01.virtual(np.array([0.5, -0.1]))


def test_empty_or_negative_support_is_rejected():
    with pytest.raises(ValueError):
        UniformCosts(1.0, 1.0)
    with pytest.raises(ValueError):
        UniformCosts(-0.5, 1.0)
    with pytest.raises(ValueError):
        TruncatedGaussianCosts(std=-1.0)


class _BimodalCosts(CostDistribution):
    """Two sharp bumps: F/f explodes between them, so v is non-monotone."""

    lower = 0.0
    upper = 1.0

    def __init__(self):
        self._check_regularity()

    def _phi(self, c, mu, sd):
        return np.exp(-0.5 * ((c - mu) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))

    def pdf(self, c):
        c = np.asarray(c, dtype=float)
        return 0.5 * self._phi(c, 0.2, 0.03) + 0.5 * self._phi(c, 0.8, 0.03)

    def virtual(self, c):
        from scipy.stats import norm
        c = self._in_support_array(c)
        cdf = 0.5 * norm.cdf(c, 0.2, 0.03) + 0.5 * norm.cdf(c, 0.8, 0.03)
        return c + cdf / self.pdf(c)


def test_non_monotone_virtual_cost_is_rejected_at_construction():
    with pytest.raises(ValueError, match="regular"):
        _BimodalCosts()


def test_client_outside_support_is_rejected(uniform01, basic_cfg):
    with pytest.raises(ValueError, match="support"):
        make_plan("jsam", [0.5, 1.5], uniform01, basic_cfg)


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
def test_sort_agrees_with_independent_argsort(sensitivities):
    # the solver ranks clients as a stable argsort of the virtual costs does,
    # ties included, so its plan has the threshold structure in that order
    v = UniformCosts(0.0, 1.0).virtual(sensitivities)
    sol = solve_profiles(v[None, :], ServerConfig(eta=1.0, grid_delta=1e-2))
    order = np.argsort(2.0 * np.asarray(sensitivities), kind="stable") + 1
    report = verify_structure(sol.probabilities[0], order)
    assert report.passed, report.clause
    assert report.threshold == sol.threshold[0]


def test_gaussian_samples_stay_in_support(rng):
    dist = TruncatedGaussianCosts(mean=0.5, std=0.4, lower=0.1, upper=0.9)
    draws = dist.sample(rng, size=1000)
    assert draws.min() >= 0.1 and draws.max() <= 0.9

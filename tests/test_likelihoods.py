import numpy as np
import pytest
from scipy.special import gammaln

import laplgm.latent as lm
from laplgm.latent import HyperParam
from laplgm.likelihoods import GaussianLik, NegBinomialLik, PoissonLik
from laplgm.errors import UnsupportedObservation


def gaussian(tau):
    return GaussianLik(HyperParam("lp", np.log(tau), "log", fixed=True)), tau


class TestLogLik:
    def test_poisson_value(self):
        lik = PoissonLik()
        assert lik.log_lik(2.0, 0.0) == pytest.approx(-1.0 - np.log(2.0), abs=1e-12)

    def test_gaussian_at_mean(self):
        lik, tau = gaussian(2.5)
        want = 0.5 * (np.log(tau) - np.log(2 * np.pi))
        assert lik.log_lik(1.3, 1.3, tau) == pytest.approx(want, abs=1e-12)

    def test_nb_poisson_limit(self):
        nb = NegBinomialLik(HyperParam("ld", np.log(1e6), "log", fixed=True))
        po = PoissonLik()
        assert abs(nb.log_lik(3.0, 1.0, 1e6) - po.log_lik(3.0, 1.0)) <= 1e-3

    def test_nb_poisson_limit_grid(self):
        nb = NegBinomialLik(HyperParam("ld", np.log(1e6), "log", fixed=True))
        po = PoissonLik()
        ys, etas = np.meshgrid(np.arange(0.0, 12.0), np.linspace(-2, 2.5, 9))
        gap = np.abs(nb.log_lik(ys, etas, 1e6) - po.log_lik(ys, etas))
        assert gap.max() <= 1e-3

    def test_count_validation(self):
        # counts are checked once, when the model is built; an unobserved
        # row (NaN) holds no count
        comps = [lm.FixedEffect("mu")]
        for lik in (PoissonLik(), NegBinomialLik(HyperParam("d", 0.0, fixed=True))):
            for bad in (-1.0, 1.5):
                part = lm.StackPart(np.array([2.0, bad]), {"mu": np.ones(2)}, "obs")
                with pytest.raises(UnsupportedObservation):
                    lm.build_stack([part], comps, lik)
            part = lm.StackPart(np.array([2.0, np.nan]), {"mu": np.ones(2)}, "obs")
            assert lm.build_stack([part], comps, lik).observed.tolist() == [True, False]

    def test_infinite_observation_rejected(self):
        # only NaN marks a row unobserved: +inf or -inf is no missing value
        comps = [lm.FixedEffect("mu")]
        for lik in (PoissonLik(), gaussian(2.0)[0]):
            for bad in (np.inf, -np.inf):
                part = lm.StackPart(np.array([2.0, bad, np.nan]), {"mu": np.ones(3)}, "obs")
                with pytest.raises(UnsupportedObservation):
                    lm.build_stack([part], comps, lik)
            part = lm.StackPart(np.array([2.0, 3.0, np.nan]), {"mu": np.ones(3)}, "obs")
            assert lm.build_stack([part], comps, lik).observed.tolist() == [True, True, False]


class TestDerivs:
    def test_poisson_values(self):
        d1, d2 = PoissonLik().derivs(2.0, 0.0)
        assert d1 == pytest.approx(1.0)
        assert d2 == pytest.approx(-1.0)

    def test_gaussian_curvature_constant(self):
        lik, tau = gaussian(3.7)
        for y, eta in [(0.0, 1.0), (5.0, -2.0), (1.0, 1.0)]:
            _, d2 = lik.derivs(y, eta, tau)
            assert d2 == pytest.approx(-tau)

    @pytest.mark.parametrize("family,param", [
        ("gaussian", 1.7), ("poisson", None), ("nbinomial", 8.0)])
    def test_finite_difference_oracle(self, family, param):
        rng = np.random.default_rng(0)
        if family == "gaussian":
            lik, param = gaussian(param)
            ys = rng.normal(0, 2, 100)
        else:
            lik = PoissonLik() if family == "poisson" else NegBinomialLik(
                HyperParam("d", np.log(param), "log", fixed=True))
            ys = rng.poisson(3.0, 100).astype(float)
        etas = rng.uniform(-1.5, 1.5, 100)
        d1, d2 = lik.derivs(ys, etas, param)
        h = 1e-5
        fd1 = (lik.log_lik(ys, etas + h, param) - lik.log_lik(ys, etas - h, param)) / (2 * h)
        assert np.abs((d1 - fd1) / np.maximum(np.abs(d1), 1.0)).max() <= 1e-5
        # the second difference needs a larger step: at 1e-5 its own rounding
        # noise (eps |f| / h^2) already exceeds the tolerance
        h = 1e-4
        fd2 = (lik.log_lik(ys, etas + h, param) - 2 * lik.log_lik(ys, etas, param)
               + lik.log_lik(ys, etas - h, param)) / h**2
        assert np.abs((d2 - fd2) / np.maximum(np.abs(d2), 1.0)).max() <= 1e-5

    @pytest.mark.parametrize("family,param", [
        ("gaussian", 1.7), ("poisson", None), ("nbinomial", 0.37), ("nbinomial", 2.5),
        ("nbinomial", 41.3)])
    def test_curvature_slope_finite_difference_oracle(self, family, param):
        # y = 0 and large counts, eta on both sides of log r for the negative binomial
        ys = np.array([0.0, 0.0, 0.0, 1.0, 7.0, 250.0, 4000.0, 4000.0])
        etas = np.array([-2.0, 0.3, 3.1, 1.2, -0.7, 5.5, 8.3, 6.1])
        if family == "gaussian":
            lik, param = gaussian(param)
            ys = ys - 3.0
        elif family == "poisson":
            lik = PoissonLik()
        else:
            lik = NegBinomialLik(HyperParam("d", np.log(param), "log", fixed=True))
        slope = lik.curvature_slope(ys, etas, param)
        h = 1e-4
        fd = -(lik.derivs(ys, etas + h, param)[1] - lik.derivs(ys, etas - h, param)[1]) / (2 * h)
        c = -lik.derivs(ys, etas, param)[1]
        assert np.all(np.abs(slope - fd) <= 1e-7 * np.maximum(np.abs(slope), c))
        if family == "gaussian":
            assert np.all(slope == 0.0)

    @pytest.mark.parametrize("family,param", [
        ("gaussian", 0.4), ("poisson", None), ("nbinomial", 3.0)])
    def test_log_concavity(self, family, param):
        rng = np.random.default_rng(5)
        if family == "gaussian":
            lik, param = gaussian(param)
            ys = rng.normal(0, 1, 50)
        else:
            lik = PoissonLik() if family == "poisson" else NegBinomialLik(
                HyperParam("d", np.log(param), "log", fixed=True))
            ys = rng.poisson(2.0, 50).astype(float)
        etas = rng.uniform(-3, 3, 50)
        _, d2 = lik.derivs(ys, etas, param)
        assert np.all(d2 < 0)


class TestCdf:
    def test_poisson_at_zero(self):
        assert PoissonLik().cdf(0.0, 0.0) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_gaussian_median(self):
        lik, tau = gaussian(2.0)
        assert lik.cdf(0.7, 0.7, tau) == pytest.approx(0.5)

    def test_upper_limit(self):
        lik, tau = gaussian(1.0)
        assert lik.cdf(60.0, 0.0, tau) == pytest.approx(1.0)
        assert PoissonLik().cdf(300.0, 0.0) == pytest.approx(1.0)

    # y = 0, small and large counts against small and large means
    YS = np.array([0.0, 0.0, 1.0, 3.0, 17.0, 250.0, 4000.0])
    ETAS = np.array([-20.0, -2.0, 0.0, 1.3, 4.0, 7.0, 9.5])

    def test_poisson_matches_scipy_stats(self):
        from scipy.stats import poisson
        for eta in self.ETAS:
            got = PoissonLik().cdf(self.YS, np.full(self.YS.size, eta))
            want = poisson.cdf(self.YS, np.exp(eta))
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("r", [0.35, 1.0, 2.5, 7.7, 1e4])
    def test_nbinomial_matches_scipy_stats(self, r):
        # non-integer r included: nbdtr would truncate it
        from scipy.stats import nbinom
        lik = NegBinomialLik(HyperParam("d", np.log(r), "log", fixed=True))
        for eta in self.ETAS:
            got = lik.cdf(self.YS, np.full(self.YS.size, eta), r)
            want = nbinom.cdf(self.YS, r, r / (r + np.exp(eta)))
            assert np.abs(got - want).max() <= 1e-14


class TestNormalization:
    def test_discrete_families_sum_to_one(self):
        ks = np.arange(0.0, 400.0)
        pois = np.exp(PoissonLik().log_lik(ks, 1.2))
        assert pois.sum() == pytest.approx(1.0, abs=1e-8)
        nb = NegBinomialLik(HyperParam("d", np.log(6.0), "log", fixed=True))
        assert np.exp(nb.log_lik(ks, 1.2, 6.0)).sum() == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_integrates_to_one(self):
        lik, tau = gaussian(2.3)
        grid = np.linspace(-10, 10, 4001)
        dens = np.exp(lik.log_lik(grid, 0.4, tau))
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-8)

    def test_nb_variance_parametrization(self):
        # mean mu, variance mu + mu^2 / r
        r, eta = 5.0, 0.8
        mu = np.exp(eta)
        nb = NegBinomialLik(HyperParam("d", np.log(r), "log", fixed=True))
        ks = np.arange(0.0, 2000.0)
        p = np.exp(nb.log_lik(ks, eta, r))
        mean = (ks * p).sum()
        var = (ks**2 * p).sum() - mean**2
        assert mean == pytest.approx(mu, rel=1e-8)
        assert var == pytest.approx(mu + mu**2 / r, rel=1e-8)


class TestSample:
    # moments of 2e5 draws at one eta, each within five standard errors
    N = 200_000

    def test_poisson_mean(self):
        eta = 0.7
        y = PoissonLik().sample(np.full(self.N, eta), None, np.random.default_rng(3))
        mu = np.exp(eta)
        assert np.array_equal(y, np.floor(y))
        assert abs(y.mean() - mu) <= 5.0 * np.sqrt(mu / self.N)

    def test_gaussian_variance(self):
        lik, tau = gaussian(2.5)
        y = lik.sample(np.full(self.N, -0.4), tau, np.random.default_rng(4))
        assert abs(y.mean() + 0.4) <= 5.0 * np.sqrt(1.0 / (tau * self.N))
        # a Gaussian sample variance has relative sd sqrt(2 / N)
        assert abs(y.var() * tau - 1.0) <= 5.0 * np.sqrt(2.0 / self.N)

    def test_nbinomial_variance(self):
        r, eta = 5.0, 0.8
        mu = np.exp(eta)
        nb = NegBinomialLik(HyperParam("d", np.log(r), "log", fixed=True))
        y = nb.sample(np.full(self.N, eta), r, np.random.default_rng(5))
        var = mu + mu**2 / r
        assert np.array_equal(y, np.floor(y))
        assert abs(y.mean() - mu) <= 5.0 * np.sqrt(var / self.N)
        assert y.var() == pytest.approx(var, rel=0.025)

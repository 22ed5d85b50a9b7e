"""Univariate observation models.

Each family exposes the log-density, its first two derivatives with respect
to the linear predictor, the slope dc/d eta of its curvature
c = -d2 log p / d eta2 (the hyperparameter gradient of the Laplace
approximation reads it), and the CDF used for probability integral
transforms.  All are vectorized over observations and strictly log-concave
in the predictor, which the Gaussian approximation relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln, ndtr, pdtr

from .errors import UnsupportedObservation

LOG_2PI = float(np.log(2.0 * np.pi))

# fixing the Gaussian log-precision at this value makes the observations
# reproduce the linear predictor essentially exactly
EXACT_PREDICTOR_LOG_PRECISION = float(np.log(1e8))


def _check_counts(y):
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise UnsupportedObservation("negative counts")
    if np.any(y != np.floor(y)):
        raise UnsupportedObservation("non-integer counts")
    return y


@dataclass
class GaussianLik:
    """Gaussian observations, identity link; one log-precision hyperparameter."""

    log_precision: object = None  # HyperParam, attached by the model builder
    name: str = "gaussian"
    link: str = "identity"
    # the curvature -d2 log p / d eta2 does not depend on eta
    fixed_curvature = True

    def hyperparams(self):
        return [self.log_precision] if self.log_precision is not None else []

    def param(self, values):
        return float(np.exp(values[self.log_precision.name]))

    def log_lik(self, y, eta, param=None):
        tau = param
        y = np.asarray(y, dtype=float)
        return 0.5 * (np.log(tau) - LOG_2PI) - 0.5 * tau * (y - eta) ** 2

    def derivs(self, y, eta, param=None):
        tau = param
        y = np.asarray(y, dtype=float)
        d1 = tau * (y - eta)
        d2 = np.full_like(d1, -tau)
        return d1, d2

    def curvature_slope(self, y, eta, param=None):
        return np.zeros(np.shape(y))

    def cdf(self, y, eta, param=None):
        tau = param
        return ndtr((np.asarray(y, dtype=float) - eta) * np.sqrt(tau))

    def sample(self, eta, param, rng):
        return eta + rng.standard_normal(np.shape(eta)) / np.sqrt(param)


@dataclass
class PoissonLik:
    """Poisson counts with log link; no hyperparameters."""

    name: str = "poisson"
    link: str = "log"
    fixed_curvature = False

    def hyperparams(self):
        return []

    def param(self, values):
        return None

    def log_lik(self, y, eta, param=None):
        y = _check_counts(y)
        return y * eta - np.exp(eta) - gammaln(y + 1.0)

    def derivs(self, y, eta, param=None):
        y = _check_counts(y)
        mu = np.exp(eta)
        return y - mu, -mu

    def curvature_slope(self, y, eta, param=None):
        return np.exp(eta)

    def cdf(self, y, eta, param=None):
        y = _check_counts(y)
        return pdtr(y, np.exp(eta))

    def sample(self, eta, param, rng):
        return rng.poisson(np.exp(eta)).astype(float)


@dataclass
class NegBinomialLik:
    """Negative binomial counts, log link.

    Parametrized by the mean mu = exp(eta) and a dispersion parameter r
    with variance mu + mu^2 / r; the Poisson family is the r -> infinity
    limit.  log(r) is the internal hyperparameter.
    """

    log_dispersion: object = None
    name: str = "nbinomial"
    link: str = "log"
    fixed_curvature = False

    def hyperparams(self):
        return [self.log_dispersion] if self.log_dispersion is not None else []

    def param(self, values):
        return float(np.exp(values[self.log_dispersion.name]))

    def log_lik(self, y, eta, param=None):
        r = param
        y = _check_counts(y)
        mu = np.exp(eta)
        return (gammaln(y + r) - gammaln(r) - gammaln(y + 1.0)
                + r * np.log(r) + y * eta - (r + y) * np.log(r + mu))

    def derivs(self, y, eta, param=None):
        r = param
        y = _check_counts(y)
        mu = np.exp(eta)
        frac = mu / (r + mu)
        d1 = y - (r + y) * frac
        d2 = -(r + y) * r * mu / (r + mu) ** 2
        return d1, d2

    def curvature_slope(self, y, eta, param=None):
        r = param
        y = _check_counts(y)
        mu = np.exp(eta)
        return (r + y) * r * mu * (r - mu) / (r + mu) ** 3

    def cdf(self, y, eta, param=None):
        r = param
        y = _check_counts(y)
        mu = np.exp(eta)
        # P(Y <= y) = I_p(r, y + 1), p = r / (r + mu); `nbdtr` would truncate r
        return betainc(r, y + 1.0, r / (r + mu))

    def sample(self, eta, param, rng):
        mu = np.exp(eta)
        return rng.negative_binomial(param, param / (param + mu)).astype(float)


FAMILIES = {
    "gaussian": GaussianLik,
    "poisson": PoissonLik,
    "nbinomial": NegBinomialLik,
}

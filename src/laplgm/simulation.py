"""Forward simulation of space-time models on triangulated domains.

Spatial innovations are drawn from the finite-element Matern precision,
combined over time by a stationary AR(1) recursion, shifted by a fixed
trend, and observed through a chosen likelihood at site/time pairs.
All randomness flows from one master seed through named Philox substreams,
so identical seeds give identical data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .latent import _matern_nu, matern_kappa_tau, spde_precision
from .mesh import assemble, projector
from .errors import InvalidCorrelation, InvalidParameter, ProblemTooLarge
from .likelihoods import FAMILIES
from .sparse import Permutation, factorize, rcm, reorder, sample

# substream offsets from the master seed (column streams of the spatial
# innovations occupy 0 .. n_times-1)
_STREAM_COVARIATE = 1_000_003
_STREAM_SITES = 1_000_004
_STREAM_RESPONSE = 1_000_005

# observation precision (gaussian) and dispersion (nbinomial) when the spec
# gives none
_DEFAULT_FAMILY_PARAM = {"gaussian": 1.0, "nbinomial": 10.0}


def _stream(seed, offset):
    return np.random.Generator(np.random.Philox(key=seed).jumped(offset))


def ma5_series(n, seed):
    """Moving-average series with five unit lags (variance 6)."""
    gen = _stream(seed, _STREAM_COVARIATE)
    e = gen.standard_normal(n + 5)
    return np.array([e[t + 5] + e[t:t + 5].sum() for t in range(n)])


def random_sites(n_sites, seed, bounds=(0.0, 1.0, 0.0, 1.0)):
    """Uniformly scattered observation sites inside a rectangle."""
    gen = _stream(seed, _STREAM_SITES)
    x0, x1, y0, y1 = bounds
    pts = gen.random((n_sites, 2))
    pts[:, 0] = x0 + (x1 - x0) * pts[:, 0]
    pts[:, 1] = y0 + (y1 - y0) * pts[:, 1]
    return pts


@dataclass
class CovariateSpec:
    """Time-indexed covariate entering the trend with a fixed coefficient."""

    name: str
    kind: str                 # linear_time | ma5 | values
    coef: float
    values: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("linear_time", "ma5", "values"):
            raise InvalidParameter(f"covariate {self.name!r}: kind {self.kind!r} is not "
                                   "linear_time, ma5 or values")
        if self.kind == "values" and self.values is None:
            raise InvalidParameter(f"covariate {self.name!r}: kind 'values' needs values")

    def realize(self, n_times, seed):
        if self.kind == "linear_time":
            return np.arange(1, n_times + 1) / n_times
        if self.kind == "ma5":
            return ma5_series(n_times, seed)
        v = np.asarray(self.values, dtype=float)
        if v.size != n_times:
            raise InvalidParameter(f"covariate {self.name!r}: {v.size} values, {n_times} times")
        return v


@dataclass
class SimulationSpec:
    """Truth values and layout for one simulated dataset."""

    mesh: object
    sites: np.ndarray
    n_times: int
    range0: float = 0.25
    sigma0: float = 1.0
    ar_coef: float = 0.5
    alpha: int = 2
    intercept: float = -1.0
    covariates: list = field(default_factory=list)
    family: str = "poisson"
    family_param: float = None   # observation precision (gaussian) or dispersion (nbinomial)

    def __post_init__(self):
        if not -1.0 < self.ar_coef <= 1.0:
            raise InvalidCorrelation(f"ar_coef must lie in (-1, 1], got {self.ar_coef}")
        if self.family not in FAMILIES:
            raise InvalidParameter(f"family {self.family!r} is not one of {sorted(FAMILIES)}")
        if self.family_param is not None and not self.family_param > 0:
            raise InvalidParameter(f"family_param must be positive, got {self.family_param}")
        names = [c.name for c in self.covariates]
        if len(set(names)) < len(names):
            raise InvalidParameter(f"covariate names repeat: {names}")


@dataclass
class SimulatedData:
    sites: np.ndarray
    n_times: int
    covariate_values: dict
    trend: np.ndarray          # (T,)
    field_nodes: np.ndarray    # (n_nodes, T), trend included
    row_site: np.ndarray
    row_time: np.ndarray       # 1-based time index
    eta: np.ndarray
    y: np.ndarray

    @property
    def n_rows(self):
        return self.y.size


def simulate(spec, seed):
    """Draw one dataset; deterministic for a fixed (spec, seed)."""
    kappa, tau = matern_kappa_tau(spec.range0, spec.sigma0, nu=_matern_nu(spec.alpha))
    fem = assemble(spec.mesh)
    Q = spde_precision(fem, spec.alpha, kappa, tau)
    try:
        # the minimum-degree order fixes a seed's draws
        factor = factorize(Q, reorder(Q))
    except ProblemTooLarge:
        # its band is nearly dense: past the band cap, a band ordering
        factor = factorize(Q, Permutation(rcm(Q.full())))
    T = spec.n_times
    eps = sample(factor, T, seed)

    a = spec.ar_coef
    W = np.empty_like(eps)
    W[:, 0] = eps[:, 0]
    scale = np.sqrt(max(1.0 - a * a, 0.0))
    for t in range(1, T):
        W[:, t] = a * W[:, t - 1] + scale * eps[:, t]

    cov_values = {c.name: c.realize(T, seed) for c in spec.covariates}
    trend = np.full(T, float(spec.intercept))
    for c in spec.covariates:
        trend = trend + c.coef * cov_values[c.name]
    field = W + trend[None, :]

    P = projector(spec.mesh, spec.sites)
    n_sites = spec.sites.shape[0]
    eta = np.empty(n_sites * T)
    row_site = np.empty(n_sites * T, dtype=np.int64)
    row_time = np.empty(n_sites * T, dtype=np.int64)
    for t in range(T):
        block = slice(t * n_sites, (t + 1) * n_sites)
        eta[block] = P @ field[:, t]
        row_site[block] = np.arange(n_sites)
        row_time[block] = t + 1

    param = spec.family_param
    if param is None:
        param = _DEFAULT_FAMILY_PARAM.get(spec.family)
    y = FAMILIES[spec.family]().sample(eta, param, _stream(seed, _STREAM_RESPONSE))

    return SimulatedData(spec.sites, T, cov_values, trend, field,
                         row_site, row_time, eta, y)

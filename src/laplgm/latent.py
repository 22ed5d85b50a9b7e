"""Latent Gaussian model building blocks.

Components (fixed effects, iid, AR(1), RW1, SPDE Matern fields), group and
replicate couplings over time, hyperparameter transforms and priors, and the
stacking machinery that joins observation and prediction blocks into one
model graph.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, gammaln, gamma as gamma_fn

from .errors import DimensionMismatch, InvalidCorrelation, UnknownTag
from .sparse import Permutation, SparseSymmetric, _csc_from_keys, analyze, factorize, rcm
from .sparse import reorder  # noqa: F401  (bench/tracing.py wraps laplgm.latent.reorder)

LOG_2PI = float(np.log(2.0 * np.pi))

HYPER_SOFT_LIMIT = 10


# ------------------------------------------------------------------
# transforms between internal (unconstrained) and natural scales

def _corr_to_internal(a):
    return float(np.log((1.0 + a) / (1.0 - a)))


TRANSFORMS = {
    "log": (np.exp, np.log),
    "correlation": (lambda t: 2.0 * expit(t) - 1.0, _corr_to_internal),
    "identity": (lambda t: t, lambda v: v),
}


@dataclass
class GaussianPrior:
    """Gaussian prior on the internal scale."""

    mean: float = 0.0
    precision: float = 0.1

    def __post_init__(self):
        if self.precision <= 0:
            raise ValueError("prior precision must be positive")

    def log_density(self, internal):
        return 0.5 * (np.log(self.precision) - LOG_2PI) - 0.5 * self.precision * (internal - self.mean) ** 2


@dataclass
class LogGammaPrior:
    """Gamma prior on the natural positive scale of a log-transformed parameter.

    The returned density lives on the internal scale, so the log-Jacobian
    of the exp transform is included.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be positive")

    def log_density(self, internal):
        return (self.shape * np.log(self.rate) - gammaln(self.shape)
                + self.shape * internal - self.rate * np.exp(internal))


class HyperParam:
    """One scalar hyperparameter with its transform, prior and initial value."""

    __slots__ = ("name", "internal_value", "transform", "prior", "fixed")

    def __init__(self, name, internal_value=0.0, transform="log", prior=None, fixed=False):
        if transform not in TRANSFORMS:
            raise ValueError(f"unknown transform {transform!r}")
        self.name = name
        self.internal_value = float(internal_value)
        self.transform = transform
        self.prior = prior if prior is not None else GaussianPrior()
        self.fixed = bool(fixed)

    def natural(self, internal=None):
        fwd, _ = TRANSFORMS[self.transform]
        return fwd(self.internal_value if internal is None else internal)

    def internal_from_natural(self, natural):
        _, inv = TRANSFORMS[self.transform]
        return float(inv(natural))

    def log_prior(self, internal):
        return float(self.prior.log_density(internal))

    def __repr__(self):
        return f"HyperParam({self.name!r}, {self.transform}, internal={self.internal_value:.4g}, fixed={self.fixed})"


def log_precision_hyper(name, initial_precision=1.0, prior=None, fixed=False):
    return HyperParam(name, np.log(initial_precision), "log",
                      prior or GaussianPrior(0.0, 0.1), fixed)


def correlation_hyper(name, initial_internal=2.0, prior=None, fixed=False):
    """AR coefficient on the internal scale log((1+a)/(1-a))."""
    return HyperParam(name, initial_internal, "correlation",
                      prior or GaussianPrior(0.0, 0.15), fixed)


# ------------------------------------------------------------------
# Matern/SPDE parameter helpers

def matern_kappa_tau(range_, sigma, nu=1.0, dim=2):
    """Scale parameters from an empirical range and marginal sd.

    kappa = sqrt(8 nu) / range; tau chosen so the stationary field has
    marginal variance sigma^2 (for nu=1 in 2D this is 1/(2 sqrt(pi) kappa sigma)).
    """
    kappa = np.sqrt(8.0 * nu) / range_
    front = gamma_fn(nu) / (gamma_fn(nu + dim / 2.0) * (4.0 * np.pi) ** (dim / 2.0))
    tau = np.sqrt(front) / (kappa**nu * sigma)
    return float(kappa), float(tau)


def matern_range_variance(kappa, tau, nu=1.0, dim=2):
    """Inverse of matern_kappa_tau: empirical range and marginal variance."""
    rng = np.sqrt(8.0 * nu) / kappa
    front = gamma_fn(nu) / (gamma_fn(nu + dim / 2.0) * (4.0 * np.pi) ** (dim / 2.0))
    var = front / (kappa ** (2.0 * nu) * tau**2)
    return float(rng), float(var)


# ------------------------------------------------------------------
# structure matrices

def ar1_precision(n, a, marginal_precision=1.0):
    """Tridiagonal precision of a stationary AR(1) with unit-marginal structure.

    Inner diagonal (1+a^2)/(1-a^2), ends 1/(1-a^2), off-diagonal -a/(1-a^2),
    all scaled by `marginal_precision`.  Length 1 is [marginal_precision]
    itself, so the log-determinant is n log(tau) - (n-1) log(1-a^2) at
    every length.
    """
    if abs(a) >= 1.0:
        raise InvalidCorrelation(f"|a| = {abs(a)} >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    s = marginal_precision / (1.0 - a * a)
    diag = np.full(n, (1.0 + a * a) * s)
    diag[[0, -1]] = s if n > 1 else marginal_precision
    rows = np.concatenate([np.arange(n), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(n - 1)])
    vals = np.concatenate([diag, np.full(n - 1, -a * s)])
    return SparseSymmetric.from_triplets(n, rows, cols, vals)


def rw1_structure(n, precision=1.0):
    """First-difference structure matrix D'D scaled by `precision` (rank n-1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    diag = np.full(n, 2.0 * precision)
    diag[0] = precision
    diag[-1] = precision
    rows = np.concatenate([np.arange(n), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(n - 1)])
    vals = np.concatenate([diag, np.full(n - 1, -precision)])
    return SparseSymmetric.from_triplets(n, rows, cols, vals)


def _rw1_proper_coupling(n):
    """Precision B'B of the recursion x_t = x_{t-1} + e_t (unit determinant)."""
    diag = np.full(n, 2.0)
    diag[-1] = 1.0
    m = sp.diags([np.full(n - 1, -1.0), diag, np.full(n - 1, -1.0)], [-1, 0, 1])
    return m.tocsc()


def spde_precision(fem, alpha, kappa, tau):
    """Gauss-Markov precision of the Matern-like field on a triangulation.

    alpha=1: Q = tau^2 (kappa^2 C + G); alpha=2: Q = tau^2 (kappa^4 C +
    2 kappa^2 G + G C^-1 G) with the lumped diagonal mass matrix C.
    """
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    if kappa <= 0 or tau <= 0:
        raise ValueError("kappa and tau must be positive")
    c = fem.mass_diag
    G = fem.stiffness.full()
    if alpha == 1:
        Q = kappa**2 * sp.diags(c) + G
    else:
        GCG = (G @ sp.diags(1.0 / c) @ G).tocsc()
        Q = kappa**4 * sp.diags(c) + 2.0 * kappa**2 * G + GCG
    return SparseSymmetric.from_full((tau**2 * Q).tocsc())


# ------------------------------------------------------------------
# fixed terms: a prior precision is sum_k coef_k(theta) * term_k

def _entry_keys(m):
    """Keys col * n + row of a sorted CSC matrix's stored entries, in storage order."""
    n = m.shape[0]
    return np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(m.indptr)) + m.indices


class _Terms:
    """Fixed symmetric sparse terms laid on their union pattern.

    `values[k]` holds term k on the pattern, so the data of sum_k c_k term_k
    on that pattern is one small matrix-vector product.
    """

    def __init__(self, mats):
        mats = [sp.csc_matrix(m, dtype=float) for m in mats]
        for m in mats:
            m.sum_duplicates()
        keys = [_entry_keys(m) for m in mats]
        union = np.unique(np.concatenate(keys))
        self.pattern = _csc_from_keys(union, mats[0].shape[0])
        self.values = np.zeros((len(mats), union.size))
        for k, (m, key) in enumerate(zip(mats, keys)):
            self.values[k, np.searchsorted(union, key)] = m.data

    def combine(self, coefs):
        return np.asarray(coefs, dtype=float) @ self.values


class _KronMap:
    """Pattern of kron(Qt, Qb) and the pair of factor entries behind each entry."""

    def __init__(self, Pt, Pb):
        nt, nb = Pt.shape[0], Pb.shape[0]
        N = nt * nb
        ct, rt = np.divmod(_entry_keys(Pt), nt)
        cb, rb = np.divmod(_entry_keys(Pb), nb)
        ti = np.repeat(np.arange(ct.size), cb.size)
        bj = np.tile(np.arange(cb.size), ct.size)
        keys = (ct[ti] * nb + cb[bj]) * N + rt[ti] * nb + rb[bj]
        order = np.argsort(keys, kind="stable")
        self.pattern = _csc_from_keys(keys[order], N)
        self.ti, self.bj = ti[order], bj[order]

    def combine(self, data_t, data_b):
        return data_t[self.ti] * data_b[self.bj]


def _ar1_terms(n):
    """I, the inner-diagonal indicator and the off-diagonal adjacency of length n.

    ar1_precision(n, a, tau) = tau/(1-a^2) * (I + a^2 D_inner - a Off).  At
    n = 1 the indicator is [-1], so the single entry is tau.
    """
    inner = np.ones(n)
    inner[[0, -1]] = 0.0 if n > 1 else -1.0
    off = sp.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1], shape=(n, n))
    return [sp.identity(n), sp.diags(inner), off]


def _ar1_coefs(a, scale=1.0):
    s = scale / (1.0 - a * a)
    return [s, a * a * s, -a * s]


# ------------------------------------------------------------------
# groupings: fixed temporal terms plus their per-theta coefficients

@dataclass
class Ar1Grouping:
    length: int
    correlation: HyperParam

    def hyperparams(self):
        return [self.correlation]

    @cached_property
    def terms(self):
        return _Terms(_ar1_terms(self.length))

    def coupling(self, values):
        """(coupling data on terms.pattern, its log-determinant)."""
        a = TRANSFORMS["correlation"][0](values[self.correlation.name])
        if abs(a) >= 1.0:
            raise InvalidCorrelation(f"|a| = {abs(a)} >= 1")
        return self.terms.combine(_ar1_coefs(a)), -(self.length - 1) * np.log(1.0 - a * a)


@dataclass
class ReplicateGrouping:
    length: int

    def hyperparams(self):
        return []

    @cached_property
    def terms(self):
        return _Terms([sp.identity(self.length)])

    def coupling(self, values):
        return self.terms.values[0], 0.0


@dataclass
class Rw1Grouping:
    """Random-walk coupling in time: x_t = x_{t-1} + innovation."""

    length: int

    def hyperparams(self):
        return []

    @cached_property
    def terms(self):
        return _Terms([_rw1_proper_coupling(self.length)])

    def coupling(self, values):
        return self.terms.values[0], 0.0


# ------------------------------------------------------------------
# latent components

class _Component:
    """A latent block whose prior precision is data on one fixed pattern.

    A subclass names the fixed terms of one within-group block
    (`_block_terms`) and, per theta, their coefficients and the block's
    log-determinant (`_block`).  A grouping lifts the block over time as
    kron(Q_time, Q_block), entry by entry on the fixed Kronecker pattern.
    """

    grouping = None

    @property
    def total_size(self):
        T = self.grouping.length if self.grouping is not None else 1
        return self.size * T

    @cached_property
    def _layout(self):
        block = _Terms(self._block_terms())
        if self.grouping is None:
            return block, None
        return block, _KronMap(self.grouping.terms.pattern, block.pattern)

    def prior_pattern(self):
        """Structural pattern of the prior precision (full symmetric, sorted CSC)."""
        block, kron = self._layout
        return block.pattern if kron is None else kron.pattern

    def prior_terms(self, values):
        """(precision data on prior_pattern(), rank, log-determinant, constraint correction)."""
        block, kron = self._layout
        coefs, logdet = self._block(values)
        data = block.combine(coefs)
        if kron is not None:
            data_t, logdet_t = self.grouping.coupling(values)
            data = kron.combine(data_t, data)
            logdet = self.size * logdet_t + self.grouping.length * logdet
        rank, corr = self._rank_and_correction()
        return data, rank, float(logdet), corr

    def _rank_and_correction(self):
        return self.total_size, 0.0

    def precision(self, values):
        """Prior precision as a sparse matrix."""
        P = self.prior_pattern()
        return sp.csc_matrix((self.prior_terms(values)[0], P.indices, P.indptr), shape=P.shape)

    def constraint_rows(self):
        return []


@dataclass
class FixedEffect(_Component):
    """Linear covariate coefficient with a diffuse Gaussian prior."""

    name: str
    prior_precision: float = 1e-4

    size = 1

    def hyperparams(self):
        return []

    def _block_terms(self):
        return [sp.identity(1)]

    def _block(self, values):
        return [self.prior_precision], np.log(self.prior_precision)


@dataclass
class IidComponent(_Component):
    name: str
    size: int
    log_precision: HyperParam
    grouping: object = None

    def hyperparams(self):
        h = [self.log_precision]
        if self.grouping is not None:
            h += self.grouping.hyperparams()
        return h

    def _block_terms(self):
        return [sp.identity(self.size)]

    def _block(self, values):
        log_tau = values[self.log_precision.name]
        return [np.exp(log_tau)], self.size * log_tau


@dataclass
class Ar1Component(_Component):
    name: str
    size: int
    log_precision: HyperParam
    correlation: HyperParam
    grouping: object = None

    def hyperparams(self):
        h = [self.log_precision, self.correlation]
        if self.grouping is not None:
            h += self.grouping.hyperparams()
        return h

    def _block_terms(self):
        return _ar1_terms(self.size)

    def _block(self, values):
        log_tau = values[self.log_precision.name]
        a = TRANSFORMS["correlation"][0](values[self.correlation.name])
        if abs(a) >= 1.0:
            raise InvalidCorrelation(f"|a| = {abs(a)} >= 1")
        logdet = self.size * log_tau - (self.size - 1) * np.log(1.0 - a * a)
        return _ar1_coefs(a, np.exp(log_tau)), logdet


@dataclass
class Rw1Component(_Component):
    """Intrinsic first-order random walk, usually over binned covariate values.

    Rank-deficient by one; with `sum_to_zero` a constraint row is attached
    and the prior is interpreted as the proper density on the constrained
    subspace (generalized determinant of the structure matrix is its size).
    """

    name: str
    size: int
    log_precision: HyperParam
    sum_to_zero: bool = True
    bin_values: object = None

    def hyperparams(self):
        return [self.log_precision]

    def _block_terms(self):
        return [rw1_structure(self.size).full()]

    def _block(self, values):
        log_tau = values[self.log_precision.name]
        m = self.size
        return [np.exp(log_tau)], (m - 1) * log_tau + float(np.log(m))

    def _rank_and_correction(self):
        m = self.size
        return m - 1, 0.5 * float(np.log(m)) if self.sum_to_zero else 0.0

    def constraint_rows(self):
        if not self.sum_to_zero:
            return []
        return [(np.ones(self.size), 0.0)]


@dataclass
class SpdeMaternComponent(_Component):
    """Matern-like Gauss-Markov field from the finite-element construction.

    alpha=1: Q = tau^2 (kappa^2 C + G); alpha=2: Q = tau^2 (kappa^4 C +
    2 kappa^2 G + G C^-1 G), over the fixed terms C, G and G C^-1 G.
    """

    name: str
    fem: object
    alpha: int
    log_tau: HyperParam
    log_kappa: HyperParam
    grouping: object = None

    def __post_init__(self):
        if self.alpha not in (1, 2):
            raise ValueError("alpha must be 1 or 2")

    @property
    def size(self):
        return self.fem.n

    def hyperparams(self):
        h = [self.log_tau, self.log_kappa]
        if self.grouping is not None:
            h += self.grouping.hyperparams()
        return h

    def _block_terms(self):
        c = self.fem.mass_diag
        G = self.fem.stiffness.full()
        terms = [sp.diags(c), G]
        if self.alpha == 2:
            terms.append(G @ sp.diags(1.0 / c) @ G)
        return terms

    def _block(self, values):
        """Term coefficients and log-determinant of the spatial precision."""
        log_tau = values[self.log_tau.name]
        tau2 = np.exp(2.0 * log_tau)
        kappa2 = np.exp(2.0 * values[self.log_kappa.name])
        if self.alpha == 1:
            coefs = [tau2 * kappa2, tau2]
        else:
            coefs = [tau2 * kappa2**2, 2.0 * tau2 * kappa2, tau2]
        # C is diagonal, so log|Q| = 2 ns log tau + alpha log|kappa^2 C + G|
        # - (alpha - 1) log|C|, and kappa^2 C + G is as sparse as the mesh
        ns = self.size
        terms, symbolic = self._operator_analysis
        P = terms.pattern
        K = sp.csc_matrix((terms.combine([kappa2, 1.0]), P.indices, P.indptr), shape=P.shape)
        log_k = factorize(SparseSymmetric(ns, K, validate=False), symbolic).logdet
        logdet = (2.0 * ns * log_tau + self.alpha * log_k
                  - (self.alpha - 1) * np.sum(np.log(self.fem.mass_diag)))
        return coefs, float(logdet)

    @cached_property
    def _operator_analysis(self):
        """C and the lower triangle of G on one pattern, analyzed under RCM."""
        terms = _Terms([sp.diags(self.fem.mass_diag), self.fem.stiffness.lower])
        K = SparseSymmetric(self.size, terms.pattern, validate=False)
        return terms, analyze(K, Permutation(rcm(K.full())))


def spde_matern_component(name, fem, mesh, alpha=2, initial_range=None, initial_sigma=1.0,
                          prior=None, grouping=None):
    """SPDE component with mesh-scale-derived initial values for tau/kappa.

    `prior` applies to log_tau; log_kappa gets a copy of it when it is
    Gaussian and Gaussian(0, 0.1) otherwise (both default to Gaussian(0, 0.1)).
    """
    if initial_range is None:
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        initial_range = 0.2 * float(np.hypot(*(hi - lo)))
    nu = alpha - 1.0 if alpha == 2 else 0.5
    kappa0, tau0 = matern_kappa_tau(initial_range, initial_sigma, nu=nu)
    prior = prior or GaussianPrior(0.0, 0.1)
    kappa_prior = (GaussianPrior(prior.mean, prior.precision)
                   if isinstance(prior, GaussianPrior) else GaussianPrior(0.0, 0.1))
    return SpdeMaternComponent(
        name, fem, alpha,
        log_tau=HyperParam(f"{name}.log_tau", np.log(tau0), "log", prior),
        log_kappa=HyperParam(f"{name}.log_kappa", np.log(kappa0), "log", kappa_prior),
        grouping=grouping,
    )


def bin_covariate(values, n_bins=None):
    """Map covariate values to RW1 bins.

    Returns (bin_index per value, sorted bin centers).  Without `n_bins`
    each distinct value is its own bin.
    """
    values = np.asarray(values, dtype=float)
    if n_bins is None:
        centers, idx = np.unique(values, return_inverse=True)
        return idx, centers
    edges = np.linspace(values.min(), values.max(), n_bins + 1)
    idx = np.clip(np.digitize(values, edges[1:-1]), 0, n_bins - 1)
    used = np.unique(idx)
    remap = np.full(n_bins, -1)
    remap[used] = np.arange(used.size)
    centers = np.array([values[idx == b].mean() for b in used])
    return remap[idx], centers


# ------------------------------------------------------------------
# stacking observation/prediction blocks into a model graph

@dataclass
class StackPart:
    """One block of rows: data (NaN marks missing), A-blocks per component, tag."""

    y: np.ndarray
    blocks: dict
    tag: str


def index_block(indices, size):
    """Selection matrix mapping rows to latent indices of a component."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= size):
        raise DimensionMismatch("index exceeds component size")
    m = indices.size
    return sp.csr_matrix((np.ones(m), (np.arange(m), indices)), shape=(m, size))


def group_block(base_block, group_index, n_groups):
    """Lift a within-group A-block to the grouped layout (group-major columns)."""
    base_block = sp.csr_matrix(base_block)
    m, nb = base_block.shape
    group_index = np.asarray(group_index, dtype=np.int64)
    if group_index.size != m:
        raise DimensionMismatch("group index length does not match block rows")
    if group_index.size and (group_index.min() < 0 or group_index.max() >= n_groups):
        raise DimensionMismatch("group index out of range")
    coo = base_block.tocoo()
    cols = group_index[coo.row] * nb + coo.col
    return sp.csr_matrix((coo.data, (coo.row, cols)), shape=(m, nb * n_groups))


class ModelGraph:
    """Complete latent model: components, likelihood, observations and tags."""

    def __init__(self, components, likelihood, y, A, tags):
        self.components = list(components)
        self.likelihood = likelihood
        self.y = np.asarray(y, dtype=float)
        self.A = sp.csr_matrix(A)
        self.tags = dict(tags)

        offsets = {}
        start = 0
        for comp in self.components:
            offsets[comp.name] = (start, comp.total_size)
            start += comp.total_size
        self.n_latent = start
        self.col_offsets = offsets
        if self.A.shape != (self.y.size, self.n_latent):
            raise DimensionMismatch(
                f"A is {self.A.shape}, expected ({self.y.size}, {self.n_latent})")

        hypers = []
        seen = set()
        for comp in self.components:
            for h in comp.hyperparams():
                if id(h) not in seen:
                    seen.add(id(h))
                    hypers.append(h)
        for h in likelihood.hyperparams():
            if id(h) not in seen:
                seen.add(id(h))
                hypers.append(h)
        names = [h.name for h in hypers]
        if len(set(names)) != len(names):
            raise ValueError("hyperparameter names must be unique")
        self.hyperparams = hypers
        if len(self.free_hyperparams()) > HYPER_SOFT_LIMIT:
            warnings.warn(
                f"{len(self.free_hyperparams())} free hyperparameters; "
                "deterministic integration degrades beyond about 10",
                stacklevel=2,
            )

        rows, rhs = [], []
        for comp in self.components:
            s, width = offsets[comp.name]
            for local_row, e_val in comp.constraint_rows():
                full = np.zeros(self.n_latent)
                full[s:s + width] = local_row
                rows.append(full)
                rhs.append(e_val)
        self.constraint_matrix = np.array(rows) if rows else np.zeros((0, self.n_latent))
        self.constraint_rhs = np.array(rhs) if rhs else np.zeros(0)
        self.observed = np.isfinite(self.y)
        self._prior_pattern = None

    # -- hyperparameters ------------------------------------------------

    def free_hyperparams(self):
        return [h for h in self.hyperparams if not h.fixed]

    def theta_names(self):
        return [h.name for h in self.free_hyperparams()]

    def theta_initial(self):
        return np.array([h.internal_value for h in self.free_hyperparams()])

    def values_from_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        free = self.free_hyperparams()
        if theta.size != len(free):
            raise DimensionMismatch(f"theta has {theta.size} entries, expected {len(free)}")
        values = {h.name: h.internal_value for h in self.hyperparams}
        for h, t in zip(free, theta):
            values[h.name] = float(t)
        return values

    # -- prior ----------------------------------------------------------

    def prior_pattern(self):
        """Block-diagonal structural pattern of Q(theta), fixed for all theta."""
        if self._prior_pattern is None:
            pats = [comp.prior_pattern() for comp in self.components]
            starts = np.cumsum([0] + [p.shape[0] for p in pats])
            nnz = np.cumsum([0] + [p.nnz for p in pats])
            indptr = np.concatenate([[0]] + [p.indptr[1:] + z for p, z in zip(pats, nnz)])
            indices = np.concatenate([np.zeros(0, dtype=np.int64)]
                                     + [p.indices + s for p, s in zip(pats, starts)])
            self._prior_pattern = sp.csc_matrix(
                (np.ones(indices.size), indices, indptr), shape=(self.n_latent, self.n_latent))
        return self._prior_pattern

    def prior_quantities(self, theta):
        """(Q_prior as csc on prior_pattern(), rank, generalized logdet,
        constraint log-correction)."""
        values = self.values_from_theta(theta)
        datas = [np.zeros(0)]
        rank = 0
        logdet = 0.0
        corr = 0.0
        for comp in self.components:
            d, r, ld, cr = comp.prior_terms(values)
            datas.append(d)
            rank += r
            logdet += ld
            corr += cr
        P = self.prior_pattern()
        Q = sp.csc_matrix((np.concatenate(datas), P.indices, P.indptr), shape=P.shape)
        return Q, rank, logdet, corr

    def component_slice(self, name):
        if name not in self.col_offsets:
            raise UnknownTag(name)
        s, width = self.col_offsets[name]
        return slice(s, s + width)

    def tag_range(self, tag):
        if tag not in self.tags:
            raise UnknownTag(tag)
        return self.tags[tag]


def log_prior_theta(model, theta):
    """Sum of prior log-densities of the non-fixed hyperparameters."""
    theta = np.asarray(theta, dtype=float)
    total = 0.0
    for h, t in zip(model.free_hyperparams(), theta):
        total += h.log_prior(float(t))
    return float(total)


def build_stack(parts, components, likelihood):
    """Join stacked parts into a ModelGraph.

    Rows are concatenated in part order and tagged; every part supplies
    A-blocks keyed by component name (1-D covariate values for fixed
    effects, matrices otherwise).  Components missing from a part
    contribute zero blocks.
    """
    components = list(components)
    sizes = {c.name: c.total_size for c in components}
    ys = []
    row_blocks = []
    tags = {}
    start = 0
    for part in parts:
        y = np.asarray(part.y, dtype=float)
        m = y.size
        cols = []
        for comp in components:
            name = comp.name
            if name in part.blocks:
                blk = part.blocks[name]
                if isinstance(comp, FixedEffect):
                    vals = np.asarray(blk, dtype=float).reshape(-1)
                    if vals.size != m:
                        raise DimensionMismatch(
                            f"fixed effect {name!r}: {vals.size} values for {m} rows")
                    blk = sp.csr_matrix(vals.reshape(-1, 1))
                else:
                    blk = sp.csr_matrix(blk)
                    if blk.shape != (m, sizes[name]):
                        raise DimensionMismatch(
                            f"block {name!r} is {blk.shape}, expected ({m}, {sizes[name]})")
            else:
                blk = sp.csr_matrix((m, sizes[name]))
            cols.append(blk)
        unknown = set(part.blocks) - set(sizes)
        if unknown:
            raise DimensionMismatch(f"blocks reference unknown components: {sorted(unknown)}")
        if part.tag in tags:
            raise ValueError(f"duplicate tag {part.tag!r}")
        row_blocks.append(sp.hstack(cols, format="csr"))
        ys.append(y)
        tags[part.tag] = range(start, start + m)
        start += m
    A = sp.vstack(row_blocks, format="csr") if row_blocks else sp.csr_matrix((0, 0))
    return ModelGraph(components, likelihood, np.concatenate(ys), A, tags)

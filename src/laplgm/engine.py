"""Nested approximation core.

Gaussian approximation of the latent field given hyperparameters, Laplace
approximation of the hyperparameter posterior, deterministic exploration of
that posterior (grid, composite design, or its mode alone), and the mixture
machinery that turns per-node Gaussian approximations into posterior
marginals of hyperparameters, latent variables, predictors and linear
combinations.
"""
from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph

from . import sparse
from .errors import (
    DimensionMismatch,
    InvalidCorrelation,
    ModeSearchFailed,
    NonConvergence,
    NotPositiveDefinite,
)

# proposals the quasi-Newton search treats as "out of bounds" rather than fatal
_REJECTABLE = (NotPositiveDefinite, NonConvergence, InvalidCorrelation)
from .latent import FixedEffect, log_prior_theta
from .marginals import (
    MarginalDensity,
    mixture_marginal,
    transform_marginal,
    zmarginal,
)
from .sparse import SparseSymmetric, factorize, selected_inverse, solve

LOG_2PI = float(np.log(2.0 * np.pi))

# a Newton step taken with a factor of Q* from an earlier point must shrink
# the projected gradient at least this much, else Q* is factorized anew
CHORD_CONTRACTION = 0.1


@dataclass
class EngineConfig:
    """Tunable constants of the approximation engine."""

    int_strategy: str = "ccd"        # grid | ccd | eb
    grid_step: float = 1.0           # step in standardized z coordinates
    log_drop: float = 2.5            # keep grid nodes within this log drop
    max_grid_nodes: int = 256
    fd_step_grad: float = 1e-4
    fd_step_hess: float = 1e-3
    newton_tol: float = 1e-8
    max_newton: int = 50
    mode_budget: int = 200
    mode_grad_tol: float = 1e-2
    marginal_points: int = 75
    marginal_span: float = 6.0
    threads: int = 1


@dataclass
class GaussianApprox:
    """Gaussian approximation to the latent conditional at one theta.

    `factor` is the Cholesky factor of `Q_star` = Q*(`theta`, `curvature`),
    with c = `curvature` the likelihood curvature -d2 log p(y | eta) at the
    mode `x_star`.  `factorizations` counts the factorizations of Q* made
    while finding it.
    """

    x_star: np.ndarray
    Q_star: SparseSymmetric
    factor: sparse.CholeskyFactor
    iterations: int
    converged: bool
    constraint_W: np.ndarray = None        # Q*^-1 M' for the constraint rows
    constraint_cho: object = None
    constraint_logdet: float = 0.0
    theta: np.ndarray = None
    curvature: np.ndarray = None
    factorizations: int = 0


@dataclass
class ThetaNode:
    """One integration node in hyperparameter space."""

    theta: np.ndarray
    log_post: float
    weight: float


# ------------------------------------------------------------------
# generic Laplace approximation of an integral

def _fd_gradient(f, x, step):
    g = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def _fd_hessian(f, x, step):
    p = x.size
    H = np.zeros((p, p))
    f0 = f(x)
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = step
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / step**2
        for j in range(i):
            ej = np.zeros(p)
            ej[j] = step
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * step**2)
    return H


def laplace_integral(g, x0, hess_step=1e-4):
    """Laplace approximation of the log-integral of exp(g).

    Returns (log integral, mode, Hessian at the mode); exact whenever g is
    quadratic.
    """
    import scipy.optimize   # imported on use: a fit never needs it, and it is slow to import

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    res = scipy.optimize.minimize(lambda x: -g(x), x0, method="BFGS",
                                  options={"gtol": 1e-10, "maxiter": 500})
    x_star = res.x
    H = _fd_hessian(g, x_star, hess_step)
    negH = -(0.5 * (H + H.T))
    try:
        c = np.linalg.cholesky(negH)
    except np.linalg.LinAlgError as exc:
        raise ModeSearchFailed(f"Hessian not negative definite at mode: {exc}") from exc
    d = x_star.size
    logdet_negH = 2.0 * float(np.sum(np.log(np.diag(c))))
    value = 0.5 * d * LOG_2PI - 0.5 * logdet_negH + float(g(x_star))
    return value, x_star, H


# ------------------------------------------------------------------
# quasi-Newton ascent used for the hyperparameter mode

def _maximize(f, x0, grad_step, budget, grad_tol, step_tol=1e-6, max_iter=100,
              max_step=3.0, probe=None):
    """BFGS ascent with central-difference gradients and backtracking.

    `f` may raise for or return -inf at invalid points; the line search
    shrinks past them.  Steps are capped at `max_step` per coordinate.
    `probe`, when given, evaluates the finite-difference points in place of
    `f` (the engine's probes start from their center and leave it in place).
    Raises ModeSearchFailed once `budget` evaluations are exhausted.
    """
    count = [0]

    def counted(fn):
        def fx(x):
            if count[0] >= budget:
                raise ModeSearchFailed(f"evaluation budget {budget} exhausted")
            count[0] += 1
            try:
                v = fn(x)
            except _REJECTABLE:
                return -np.inf
            return v if np.isfinite(v) else -np.inf
        return fx

    fx = counted(f)
    px = counted(probe or f)
    x = np.asarray(x0, dtype=float).copy()
    p = x.size
    fval = fx(x)
    if not np.isfinite(fval):
        raise ModeSearchFailed("log-posterior not finite at the initial point")
    Hinv = np.eye(p)
    g = _fd_gradient(px, x, grad_step)
    for _ in range(max_iter):
        if np.max(np.abs(g)) <= grad_tol:
            break
        direction = Hinv @ g
        if direction @ g <= 0:
            Hinv = np.eye(p)
            direction = g.copy()
        biggest = np.max(np.abs(direction))
        if biggest > max_step:
            direction = direction * (max_step / biggest)
        lam, accepted = 1.0, False
        f_new = -np.inf
        x_new = x
        for _ in range(25):
            x_new = x + lam * direction
            f_new = fx(x_new)
            if np.isfinite(f_new) and f_new >= fval + 1e-4 * lam * (g @ direction):
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
        s = x_new - x
        g_new = _fd_gradient(px, x_new, grad_step)
        y = g - g_new  # curvature pair for the descent problem on -f
        sy = s @ y
        if sy > 1e-12:
            rho = 1.0 / sy
            I = np.eye(p)
            Hinv = (I - rho * np.outer(s, y)) @ Hinv @ (I - rho * np.outer(y, s)) \
                + rho * np.outer(s, s)
        x, fval, g = x_new, f_new, g_new
        if np.max(np.abs(s)) <= step_tol:
            break
    return x, fval, count[0]


# ------------------------------------------------------------------
# the engine proper

def _row_pairs(A):
    """Lower-triangle entries of the row outer products of A as (key, row, weight).

    Row r contributes weight A[r, i] * A[r, j] to entry (i, j), i >= j, keyed
    j * n + i with n the column count; zero weights are dropped.
    """
    n = A.shape[1]
    A = sp.csr_matrix(A, copy=True)
    A.sum_duplicates()
    lens = np.diff(A.indptr)
    row_of = np.repeat(np.arange(A.shape[0]), lens)
    # every ordered pair (e, f) of stored entries sharing a row
    reps = lens[row_of]
    e = np.repeat(np.arange(A.nnz), reps)
    starts = np.repeat(A.indptr[row_of], reps)
    f = starts + np.arange(e.size) - np.repeat(np.cumsum(reps) - reps, reps)
    ci, cj = A.indices[e].astype(np.int64), A.indices[f].astype(np.int64)
    weights = A.data[e] * A.data[f]
    keep = (ci >= cj) & (weights != 0.0)
    return cj[keep] * n + ci[keep], row_of[e[keep]], weights[keep]


class Engine:
    """Caches the sparsity analysis of one model across theta evaluations."""

    def __init__(self, model, config=None):
        self.model = model
        self.config = config or EngineConfig()
        self.obs_idx = np.flatnonzero(model.observed)
        if self.obs_idx.size == 0:
            raise ValueError("model has no observed rows")
        self.A_obs = model.A[self.obs_idx]
        self.y_obs = model.y[self.obs_idx]
        self.n = model.n_latent
        self.M = model.constraint_matrix
        self.e = model.constraint_rhs
        self.n_constraints = self.M.shape[0]

        self.fixed_cols = np.array(
            [model.col_offsets[c.name][0] for c in model.components
             if isinstance(c, FixedEffect)],
            dtype=np.int64,
        )
        # orthonormal basis of the constraint rows: Newton's gradient test
        # reads the gradient projected onto the null space of M
        self._constraint_basis = scipy.linalg.orth(self.M.T) if self.n_constraints else None

        # symbolic stage: Q* = Q(theta) + A' diag(c) A on one fixed pattern
        n = self.n
        P = model.prior_pattern()
        prows = P.indices.astype(np.int64)
        pcols = np.repeat(np.arange(n, dtype=np.int64), np.diff(P.indptr))
        self._prior_lower = np.flatnonzero(prows >= pcols)
        prior_keys = pcols[self._prior_lower] * n + prows[self._prior_lower]
        lik_keys, lik_rows, lik_vals = _row_pairs(self.A_obs)
        keys = np.unique(np.concatenate(
            [prior_keys, lik_keys, np.arange(n, dtype=np.int64) * (n + 1)]))
        self._prior_pos = np.searchsorted(keys, prior_keys)
        # row p of the map gives the entry at keys[p] of A' diag(c) A as a map of c
        self._lik_map = sp.csr_matrix(
            (lik_vals, (np.searchsorted(keys, lik_keys), lik_rows)),
            shape=(keys.size, self.obs_idx.size))
        lower = sparse._csc_from_keys(keys, n)
        self._pattern = lower
        full = (lower + sp.tril(lower, k=-1).T).tocsc()
        self.perm = self._choose_permutation(full)
        self._symbolic = sparse.analyze(SparseSymmetric(n, lower, validate=False), self.perm)
        self._pair_plan = None
        # Newton's warm start: one GaussianApprox (mode, factor and theta)
        self._warm = None
        self._lp_cache = {}   # theta bytes -> (log posterior, latent mode x*)
        self.counts = {"theta_evals": 0, "newton_iterations": 0, "factorizations": 0}
        self._counts_lock = threading.Lock()

    # -- ordering ---------------------------------------------------

    def _choose_permutation(self, full):
        """Pick the cheapest of a few deterministic ordering candidates.

        Dense fixed-effect columns go last (a border), the field keeps its
        natural or reverse-Cuthill-McKee order, and minimum degree competes
        when the problem is small enough for the general recursion.  Costs
        are projected as n * (bandwidth + border)^2 or the sum of squared
        column heights of the symbolic factor.  `full` carries the unit
        pattern of the conditional precision.
        """
        n = self.n
        fixed = np.zeros(n, dtype=bool)
        fixed[self.fixed_cols] = True
        free_cols = np.flatnonzero(~fixed)
        nb = int(self.fixed_cols.size)

        def bordered_cost(order):
            inv = np.argsort(order)
            coo = sp.tril(full).tocoo()
            r = inv[coo.row]
            c = inv[coo.col]
            lo = np.minimum(r, c)
            hi = np.maximum(r, c)
            core = hi < (n - nb)
            w = int(np.max(hi[core] - lo[core])) if np.any(core) else 0
            return float(n) * (w + nb + 1) ** 2

        candidates = []
        natural = np.concatenate([free_cols, self.fixed_cols]).astype(np.int64)
        candidates.append((bordered_cost(natural), 0, natural))
        if free_cols.size:
            sub = full[free_cols, :][:, free_cols].tocsr()
            rcm = scipy.sparse.csgraph.reverse_cuthill_mckee(sub, symmetric_mode=True)
            rcm_order = np.concatenate([free_cols[rcm], self.fixed_cols]).astype(np.int64)
            candidates.append((bordered_cost(rcm_order), 1, rcm_order))
        if n <= 1500:
            pattern = SparseSymmetric(n, sp.tril(full, format="csc"), validate=False)
            md = sparse.reorder(pattern)
            od = sp.tril(full, format="csc")[md.order, :][:, md.order].tocsc()
            ip, _ = sparse._closed_lower_pattern(n, od.indptr, od.indices)
            heights = np.diff(ip).astype(float)
            # the general recursion pays an extra constant per entry
            candidates.append((3.0 * float(np.sum(heights**2)), 2, md.order))
        _, _, best = min(candidates, key=lambda t: (t[0], t[1]))
        return sparse.Permutation(best)

    # -- per-theta quantities ----------------------------------------

    def _lik_param(self, theta):
        values = self.model.values_from_theta(theta)
        return self.model.likelihood.param(values)

    def _penalized_objective(self, x, Qp, param):
        # a trial step with a factor from an earlier point can overshoot far
        # enough to overflow the likelihood; the non-finite value rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            eta_obs = self.A_obs @ x
            ll = float(np.sum(self.model.likelihood.log_lik(self.y_obs, eta_obs, param)))
            return ll - 0.5 * float(x @ (Qp @ x))

    def _prior_on_pattern(self, Qp):
        """Lower triangle of the prior precision laid on the pattern of Q*."""
        q = np.zeros(self._pattern.nnz)
        q[self._prior_pos] = Qp.data[self._prior_lower]
        return q

    def _conditional_precision(self, q_prior, c):
        """Q* = Q(theta) + A' diag(c) A from the prior data on the pattern of Q*."""
        lower = sp.csc_matrix((q_prior + self._lik_map @ c, self._pattern.indices,
                               self._pattern.indptr), shape=self._pattern.shape)
        return SparseSymmetric(self.n, lower, validate=False)

    def _count(self, name, k=1):
        with self._counts_lock:
            self.counts[name] += k

    def _factor_at(self, theta, q_prior, c, x):
        """Factor of Q*(theta, c), with the constraint solves, as an approximation at x."""
        self._count("factorizations")
        Q_star = self._conditional_precision(q_prior, c)
        factor = factorize(Q_star, self._symbolic)
        W = cho = None
        logdet_S = 0.0
        if self.n_constraints:
            W = solve(factor, self.M.T)
            cho, logdet_S = sparse.constraint_cholesky(self.M @ W)
        return GaussianApprox(x, Q_star, factor, 0, False, constraint_W=W,
                              constraint_cho=cho, constraint_logdet=logdet_S,
                              theta=theta, curvature=c)

    def _newton_point(self, F, x, grad):
        """x + F^-1 grad, projected onto M x = e in the metric of the factor F."""
        x_prop = x + solve(F.factor, grad)
        if self.n_constraints:
            x_prop = x_prop - F.constraint_W @ scipy.linalg.cho_solve(
                F.constraint_cho, self.M @ x_prop - self.e)
        return x_prop

    def gaussian_approximation(self, theta, x_init=None, Qp=None, start=None):
        """Newton iteration for the mode and curvature of the latent conditional.

        Steps are taken in increment form, x <- x + F^-1 g(x), with the most
        recent factor F of Q*: that of `start` (a GaussianApprox, possibly at
        another theta) or one made here.  Q* is factorized at the current
        point only when there is no factor yet, when a step with a factor
        from an earlier point fails its first line-search trial, or when the
        projected gradient shrank by less than CHORD_CONTRACTION over the last
        step (the simplified, or chord, Newton iteration).  A likelihood
        whose curvature does not depend on eta factorizes at theta first, so
        one exact step follows.  The returned factor is that of
        Q*(theta, c(x*)) at the returned mode x*: the mode is factorized once
        more unless F already sits there.

        `x_init` defaults to the mode of `start`, else zeros.  `Qp`, when
        given, is `model.prior_quantities(theta)[0]`.
        """
        cfg = self.config
        model = self.model
        theta = np.asarray(theta, dtype=float)
        self._count("theta_evals")
        if Qp is None:
            Qp = model.prior_quantities(theta)[0]
        param = self._lik_param(theta)
        if x_init is None:
            x_init = np.zeros(self.n) if start is None else start.x_star
        x = np.array(x_init, dtype=float)
        if x.size != self.n:
            raise DimensionMismatch("x_init has wrong length")
        q_prior = self._prior_on_pattern(Qp)
        fixed_curvature = model.likelihood.fixed_curvature
        F = start
        factorizations = iterations = 0
        g_last = fx = None

        def curvature(x):
            eta_obs = self.A_obs @ x
            d1, d2 = model.likelihood.derivs(self.y_obs, eta_obs, param)
            return d1, -d2

        def sits_at(F, c):
            return (F is not None and np.array_equal(F.theta, theta)
                    and np.array_equal(F.curvature, c))

        def factor_here():
            """The factor at the current x and its curvature c."""
            nonlocal factorizations
            factorizations += 1
            return self._factor_at(theta, q_prior, c, x)

        def accepted(f):
            return np.isfinite(f) and f >= fx - 1e-9 * (1.0 + abs(fx))

        def below_tol(x_new, x):
            return np.max(np.abs(x_new - x)) / (1.0 + np.max(np.abs(x_new))) <= cfg.newton_tol

        while True:
            d1, c = curvature(x)
            grad = self.A_obs.T @ d1 - Qp @ x
            tol = cfg.newton_tol * (1.0 + np.max(np.abs(x)))
            g_proj = grad
            feasible = True
            if self.n_constraints:
                B = self._constraint_basis
                g_proj = grad - B @ (B.T @ grad)
                feasible = np.max(np.abs(self.M @ x - self.e)) <= tol
            g_norm = np.max(np.abs(g_proj))
            if feasible and g_norm <= tol:
                break
            if iterations >= cfg.max_newton:
                raise NonConvergence(iterations)
            fresh = sits_at(F, c)
            if not fresh and (F is None or fixed_curvature
                              or (g_last is not None and g_norm > CHORD_CONTRACTION * g_last)):
                F, fresh = factor_here(), True
            x_prop = self._newton_point(F, x, grad)
            if not fresh and below_tol(x_prop, x):
                # only a factor at x certifies a small increment: a stale one
                # can be far stiffer than Q* here
                F, fresh = factor_here(), True
                x_prop = self._newton_point(F, x, grad)
            if below_tol(x_prop, x):
                break   # x is the mode, and F sits there
            if fx is None:
                fx = self._penalized_objective(x, Qp, param)
            f_new = self._penalized_objective(x_prop, Qp, param)
            if not fresh and not accepted(f_new):
                F, fresh = factor_here(), True
                x_prop = self._newton_point(F, x, grad)
                f_new = self._penalized_objective(x_prop, Qp, param)
            lam = 1.0
            x_new = x_prop
            while not accepted(f_new) and lam > 1.0 / 64:
                lam *= 0.5
                x_new = x + lam * (x_prop - x)
                f_new = self._penalized_objective(x_new, Qp, param)
            converged = below_tol(x_new, x)
            x, fx = x_new, f_new
            g_last = g_norm
            iterations += 1
            self._count("newton_iterations")
            if converged:   # the line search shrank the step below tolerance
                c = curvature(x)[1]
                break
        if not sits_at(F, c):
            F = factor_here()
        return dataclasses.replace(F, x_star=x, iterations=iterations, converged=True,
                                   factorizations=factorizations)

    def log_posterior(self, theta, return_approx=False, x_init=None, recenter=True):
        """Unnormalized log posterior density of the hyperparameters.

        Newton starts from `x_init` when given, with no factor.  Otherwise it
        starts from the warm start, the approximation of the last evaluation
        made with `recenter` (its mode and factor); a theta seen before
        restarts from its own cached mode instead, keeping the warm factor
        only when that sits at theta.  With `recenter` this evaluation's
        approximation becomes the warm start: finite-difference probes and
        design nodes pass False, so all of them start from their center, and
        so does the node stage, which must not write shared state.
        """
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        cached = self._lp_cache.get(key)
        if cached is not None and not return_approx:
            return cached[0]
        start = None
        if x_init is None:
            start = self._warm
            if cached is not None:
                x_init = cached[1]
                if start is not None and not np.array_equal(start.theta, theta):
                    start = None
        Qp, rank, logdet_p, corr = self.model.prior_quantities(theta)
        approx = self.gaussian_approximation(theta, x_init=x_init, Qp=Qp, start=start)
        if recenter:
            self._warm = approx
        x = approx.x_star
        param = self._lik_param(theta)
        ll = float(np.sum(self.model.likelihood.log_lik(self.y_obs, self.A_obs @ x, param)))
        lp = log_prior_theta(self.model, theta)
        lp += -0.5 * rank * LOG_2PI + 0.5 * logdet_p + corr - 0.5 * float(x @ (Qp @ x))
        lp += ll
        k = self.n_constraints
        lp += 0.5 * (self.n - k) * LOG_2PI - 0.5 * approx.factor.logdet \
            - 0.5 * approx.constraint_logdet
        lp = float(lp)
        # the first value computed at theta stays, so later calls do not
        # depend on which warm start a re-evaluation used
        self._lp_cache.setdefault(key, (lp, x))
        if return_approx:
            return lp, approx
        return lp

    def _probe(self, theta):
        """log_posterior from the warm start, which it leaves in place."""
        return self.log_posterior(theta, recenter=False)

    def _recenter(self, theta):
        """Make the approximation at theta the warm start of later evaluations."""
        if self._warm is None or not np.array_equal(self._warm.theta, theta):
            self.log_posterior(theta, return_approx=True)

    # -- mode and exploration ----------------------------------------

    def find_mode(self, theta_init=None):
        model = self.model
        p = len(model.free_hyperparams())
        if p == 0:
            return np.zeros(0), np.zeros((0, 0))
        cfg = self.config
        theta0 = model.theta_initial() if theta_init is None else np.asarray(theta_init, float)
        theta_star, _, _ = _maximize(
            self.log_posterior, theta0, cfg.fd_step_grad, cfg.mode_budget, cfg.mode_grad_tol,
            probe=self._probe)
        self._recenter(theta_star)
        H = _fd_hessian(self._probe, theta_star, cfg.fd_step_hess)
        H = 0.5 * (H + H.T)
        w, V = np.linalg.eigh(H)
        floor = -1e-6 * max(1.0, float(np.max(np.abs(w))))
        if np.any(w > floor):
            w = np.minimum(w, floor)
            H = (V * w) @ V.T
        return theta_star, H

    def _lp_or_neginf(self, theta):
        try:
            return self._probe(theta)
        except _REJECTABLE:
            return -np.inf

    def explore(self, theta_star, H, strategy=None):
        cfg = self.config
        strategy = strategy or cfg.int_strategy
        p = theta_star.size
        if p == 0 or strategy == "eb":
            lp = self.log_posterior(theta_star)
            return [ThetaNode(theta_star.copy(), lp, 1.0)]
        # every design point starts from the approximation at the mode
        self._recenter(theta_star)

        Sigma = np.linalg.inv(-H)
        Sigma = 0.5 * (Sigma + Sigma.T)
        w, V = np.linalg.eigh(Sigma)
        scale = V @ np.diag(np.sqrt(np.clip(w, 1e-12, None)))

        def theta_of(z):
            z = np.asarray(z, dtype=float)
            if not z.any():
                return theta_star.copy()
            return theta_star + scale @ (cfg.grid_step * z)

        if strategy == "ccd":
            zs = [np.zeros(p)]
            corners = list(product((-1.0, 1.0), repeat=p))
            if p >= 5:
                corners = [c for c in corners if np.prod(c) > 0]
            zs += [np.array(c) for c in corners]
            r = np.sqrt(p)
            for j in range(p):
                for s in (-1.0, 1.0):
                    z = np.zeros(p)
                    z[j] = s * r
                    zs.append(z)
            nodes = [ThetaNode(theta_of(z), self._lp_or_neginf(theta_of(z)), 1.0)
                     for z in zs]
            nodes = [nd for nd in nodes if np.isfinite(nd.log_post)]
        elif strategy == "grid":
            lp0 = self.log_posterior(theta_star)
            extents = []
            for j in range(p):
                ext = []
                for s in (-1, 1):
                    m = 0
                    while m < 20:
                        z = np.zeros(p)
                        z[j] = s * (m + 1)
                        if lp0 - self._lp_or_neginf(theta_of(z)) > cfg.log_drop:
                            break
                        m += 1
                    ext.append(m)
                extents.append(ext)
            axes = [range(-lo, hi + 1) for lo, hi in extents]
            candidates = sorted(product(*axes),
                                key=lambda z: (sum(abs(c) for c in z), z))
            nodes = []
            for z in candidates:
                if len(nodes) >= cfg.max_grid_nodes:
                    break
                th = theta_of(np.array(z, dtype=float))
                lp = self._lp_or_neginf(th)
                if lp0 - lp <= cfg.log_drop:
                    nodes.append(ThetaNode(th, lp, 1.0))
        else:
            raise ValueError(f"unknown int_strategy {strategy!r}")
        wgt = 1.0 / len(nodes)
        for nd in nodes:
            nd.weight = wgt
        return nodes

    # -- per-node posterior quantities --------------------------------

    def node_quantities(self, theta, x_init=None):
        """Latent mean/sd and per-row predictor mean/sd at one theta node."""
        lp, approx = self.log_posterior(theta, return_approx=True, x_init=x_init,
                                        recenter=False)
        factor = approx.factor
        S = selected_inverse(factor)
        diag = S.diagonal()
        A = self.model.A
        var_rows = self._predictor_variances(S, factor)
        mean_rows = A @ approx.x_star

        if self.n_constraints:
            W, cho = approx.constraint_W, approx.constraint_cho
            VT = scipy.linalg.cho_solve(cho, W.T)
            diag = diag - np.einsum("nk,kn->n", W, VT)
            G = A @ W
            var_rows = var_rows - np.einsum("rk,kr->r", G, scipy.linalg.cho_solve(cho, G.T))
        diag = np.clip(diag, 1e-300, None)
        var_rows = np.clip(var_rows, 1e-300, None)
        return {
            "log_post": lp,
            "x_star": approx.x_star,
            "latent_sd": np.sqrt(diag),
            "pred_mean": mean_rows,
            "pred_sd": np.sqrt(var_rows),
            "approx": approx,
        }

    def _node_plan(self):
        """The predictor pair plan, built on first use.

        `fit` builds it before the node stage starts its worker threads.
        """
        if self._pair_plan is None:
            self._pair_plan = self._build_pair_plan()
        return self._pair_plan

    def _build_pair_plan(self):
        """Where the variance a' Sigma a of every predictor row reads Sigma.

        Covariance pairs inside the selected-inverse pattern (fixed by the
        symbolic factor) read its data.  The pairs outside it are covered by
        a small set J of latent columns, chosen greedily by how many missing
        pairs each covers; one solve per node with |J| right-hand sides gives
        Sigma[:, J], from which each missing pair is read.
        """
        n = self.n
        indptr, indices, _, _ = self._symbolic.selected_inverse_layout()
        skeys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
        keys, rows, weights = _row_pairs(self.model.A)
        cols, rws = np.divmod(keys, n)
        coef = np.where(rws == cols, weights, 2.0 * weights)
        pos = np.minimum(np.searchsorted(skeys, keys), skeys.size - 1)
        hit = skeys[pos] == keys
        # the diagonal is always in the pattern: every missing pair has i > j
        miss_keys, miss_of = np.unique(keys[~hit], return_inverse=True)
        mj, mi = np.divmod(miss_keys, n)
        J = []
        uncovered = np.ones(miss_keys.size, dtype=bool)
        while uncovered.any():
            counts = np.bincount(np.concatenate([mi[uncovered], mj[uncovered]]), minlength=n)
            j = int(np.argmax(counts))   # the smallest column among the best
            J.append(j)
            uncovered &= (mi != j) & (mj != j)
        J = np.array(J, dtype=np.int64)
        slot_of = np.full(n, -1, dtype=np.int64)
        slot_of[J] = np.arange(J.size)
        # missing pair (i, j) reads Sigma[j, slot(i)] when i is in J, else Sigma[i, slot(j)]
        by_i = slot_of[mi] >= 0
        at = np.where(by_i, mj, mi)[miss_of]
        slot = np.where(by_i, slot_of[mi], slot_of[mj])[miss_of]
        return {
            "rows": rows[hit], "pos": pos[hit], "coef": coef[hit],
            "cols": J, "miss_rows": rows[~hit], "miss_coef": coef[~hit],
            "miss_at": at, "miss_slot": slot,
        }

    def _predictor_variances(self, S, factor):
        """a' Sigma a for every row a of A, Sigma the unconstrained Q*^-1."""
        plan = self._node_plan()
        nrows = self.model.A.shape[0]
        var = np.bincount(plan["rows"], weights=plan["coef"] * S.lower.data[plan["pos"]],
                          minlength=nrows)
        J = plan["cols"]
        if J.size:
            E = np.zeros((self.n, J.size))
            E[J, np.arange(J.size)] = 1.0
            X = solve(factor, E)
            var += np.bincount(plan["miss_rows"],
                               weights=plan["miss_coef"] * X[plan["miss_at"], plan["miss_slot"]],
                               minlength=nrows)
        return var

    def lincomb_node_moments(self, approx, B):
        """Per-node mean and variance of B x under one Gaussian approximation."""
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape[1] != self.n:
            raise DimensionMismatch(f"B has {B.shape[1]} columns, expected {self.n}")
        mean = B @ approx.x_star
        Z = solve(approx.factor, B.T)
        var = np.einsum("rn,nr->r", B, Z)
        if self.n_constraints:
            G = B @ approx.constraint_W
            var = var - np.einsum("rk,kr->r", G,
                                  scipy.linalg.cho_solve(approx.constraint_cho, G.T))
        return mean, np.clip(var, 1e-300, None)


def node_weights(nodes):
    """Mixture weights combining design weights with posterior mass."""
    lp = np.array([nd.log_post for nd in nodes])
    w = np.array([nd.weight for nd in nodes])
    raw = w * np.exp(lp - lp.max())
    return raw / raw.sum()


# ------------------------------------------------------------------
# hyperparameter marginals

def hyper_marginals(nodes, j, theta_star, H, points=75, span=6.0):
    """Posterior marginal of internal hyperparameter j from integration nodes.

    One free hyperparameter: normalized interpolation of exp(log_post)
    through the node values with Gaussian tails.  Higher dimensions: the
    nodes are projected onto coordinate j and smoothed with a
    moment-matched Gaussian kernel.
    """
    if len(nodes) == 0:
        raise ValueError("need at least one node")
    p = nodes[0].theta.size
    Sigma = np.linalg.inv(-H) if p else np.zeros((0, 0))
    sd_lap = float(np.sqrt(Sigma[j, j]))
    center = float(theta_star[j])

    if p == 1 and len(nodes) >= 4:
        import scipy.interpolate   # imported on use: slow to import, and only p = 1 needs it

        pts = sorted({(float(nd.theta[j]), float(nd.log_post)) for nd in nodes})
        xs = np.array([a for a, _ in pts])
        ys = np.array([b for _, b in pts])
        ys = ys - ys.max()
        spline = scipy.interpolate.CubicSpline(xs, ys)
        grid = center + sd_lap * np.linspace(-span, span, points)
        logf = np.empty_like(grid)
        inside = (grid >= xs[0]) & (grid <= xs[-1])
        logf[inside] = spline(grid[inside])
        # Gaussian tails matched to the end values
        for mask, x_end in ((grid < xs[0], xs[0]), (grid > xs[-1], xs[-1])):
            base = float(spline(x_end))
            logf[mask] = base - ((grid[mask] - center) ** 2
                                 - (x_end - center) ** 2) / (2.0 * sd_lap**2)
        return MarginalDensity(grid, np.exp(logf - logf.max()))

    w = node_weights(nodes)
    means = np.array([nd.theta[j] for nd in nodes])
    mhat = float(w @ means)
    vhat = float(w @ (means - mhat) ** 2)
    var_kernel = np.clip(Sigma[j, j] - vhat, 0.05 * Sigma[j, j], Sigma[j, j])
    s = np.sqrt(var_kernel)
    grid = center + sd_lap * np.linspace(-span, span, points)
    z = (grid[:, None] - means[None, :]) / s
    dens = (np.exp(-0.5 * z**2) / (s * np.sqrt(2 * np.pi))) @ w
    return MarginalDensity(grid, dens)


def hyper_lincomb_marginal(nodes, v, offset, theta_star, H, points=75, span=6.0):
    """Marginal of a linear functional v'theta + offset of the hyperparameters.

    The node mixture is projected onto the functional and smoothed with a
    moment-matched Gaussian kernel, mirroring the coordinate-marginal
    construction.
    """
    v = np.asarray(v, dtype=float)
    Sigma = np.linalg.inv(-H)
    var_lap = float(v @ Sigma @ v)
    center = float(v @ theta_star) + offset
    w = node_weights(nodes)
    means = np.array([float(v @ nd.theta) + offset for nd in nodes])
    mhat = float(w @ means)
    vhat = float(w @ (means - mhat) ** 2)
    var_kernel = np.clip(var_lap - vhat, 0.05 * var_lap, var_lap)
    s = np.sqrt(var_kernel)
    sd_lap = np.sqrt(var_lap)
    grid = center + sd_lap * np.linspace(-span, span, points)
    z = (grid[:, None] - means[None, :]) / s
    dens = (np.exp(-0.5 * z**2) / (s * np.sqrt(2 * np.pi))) @ w
    return MarginalDensity(grid, dens)


# ------------------------------------------------------------------
# module-level operations (convenience wrappers over Engine)

def gaussian_approximation(model, theta, x_init=None, config=None):
    return Engine(model, config).gaussian_approximation(theta, x_init=x_init)


def log_posterior_theta(model, theta, config=None):
    return Engine(model, config).log_posterior(theta)


def find_mode_theta(model, theta_init=None, config=None):
    return Engine(model, config).find_mode(theta_init)


def explore_theta(model, theta_star, H, strategy=None, config=None):
    return Engine(model, config).explore(np.asarray(theta_star, float), H, strategy)


def latent_marginals(model, nodes, config=None):
    """Mixture-of-Gaussians marginal density for every latent index."""
    eng = Engine(model, config)
    quants = [eng.node_quantities(nd.theta) for nd in nodes]
    w = node_weights(nodes)
    means = np.stack([q["x_star"] for q in quants])
    sds = np.stack([q["latent_sd"] for q in quants])
    cfg = eng.config
    return [mixture_marginal(means[:, i], sds[:, i], w,
                             cfg.marginal_points, cfg.marginal_span)
            for i in range(model.n_latent)]


def linear_combination_marginals(model, nodes, B, config=None):
    """Marginal densities of linear combinations B x of the latent field."""
    eng = Engine(model, config)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    means, variances = [], []
    for nd in nodes:
        _, approx = eng.log_posterior(nd.theta, return_approx=True)
        m, v = eng.lincomb_node_moments(approx, B)
        means.append(m)
        variances.append(v)
    w = node_weights(nodes)
    means = np.stack(means)
    sds = np.sqrt(np.stack(variances))
    cfg = eng.config
    return [mixture_marginal(means[:, r], sds[:, r], w,
                             cfg.marginal_points, cfg.marginal_span)
            for r in range(B.shape[0])]


def marginal_likelihood(nodes, H):
    """Laplace estimate of the log model evidence from mode-centered nodes."""
    lp = max(nd.log_post for nd in nodes)
    p = H.shape[0]
    if p == 0:
        return float(lp)
    sign, logdet_negH = np.linalg.slogdet(-H)
    if sign <= 0:
        raise ModeSearchFailed("Hessian not negative definite")
    return float(lp + 0.5 * p * LOG_2PI - 0.5 * logdet_negH)


# ------------------------------------------------------------------
# full fit

class FitResult:
    """Complete output of a fit: mode, nodes, marginals, summaries."""

    def __init__(self, model, engine, theta_mode, H, nodes, node_data, mlik, timings,
                 counts=None):
        self.model = model
        self.engine = engine
        self.theta_mode = theta_mode
        self.theta_hessian = H
        self.nodes = nodes
        self.mlik = mlik
        self.timings = timings
        # deterministic work counts: theta evaluations, Newton iterations and
        # factorizations of Q*
        self.counts = counts or {}
        self.diagnostics = None

        self.weights = node_weights(nodes)
        self.latent_mean = np.stack([d["x_star"] for d in node_data])
        self.latent_sd = np.stack([d["latent_sd"] for d in node_data])
        self.pred_mean = np.stack([d["pred_mean"] for d in node_data])
        self.pred_sd = np.stack([d["pred_sd"] for d in node_data])
        self.theta_names = model.theta_names()

        w = self.weights
        self.latent_mean_post = w @ self.latent_mean
        self.latent_sd_post = np.sqrt(np.clip(
            w @ (self.latent_sd**2 + self.latent_mean**2) - self.latent_mean_post**2,
            0.0, None))
        self.pred_mean_post = w @ self.pred_mean
        self.pred_sd_post = np.sqrt(np.clip(
            w @ (self.pred_sd**2 + self.pred_mean**2) - self.pred_mean_post**2,
            0.0, None))

    # -- marginal accessors -------------------------------------------

    def _cfg(self):
        return self.engine.config

    def latent_marginal(self, index):
        cfg = self._cfg()
        return mixture_marginal(self.latent_mean[:, index], self.latent_sd[:, index],
                                self.weights, cfg.marginal_points, cfg.marginal_span)

    def component_marginal(self, name, local_index):
        sl = self.model.component_slice(name)
        return self.latent_marginal(sl.start + local_index)

    def predictor_marginal(self, row):
        cfg = self._cfg()
        return mixture_marginal(self.pred_mean[:, row], self.pred_sd[:, row],
                                self.weights, cfg.marginal_points, cfg.marginal_span)

    def response_marginal(self, row):
        """Predictor marginal mapped through the inverse link."""
        m = self.predictor_marginal(row)
        link = self.model.likelihood.link
        if link == "identity":
            return m
        return transform_marginal(m, np.exp, np.exp)

    def response_moments(self):
        """Posterior mean and sd of the response mean, closed form per node."""
        if self.model.likelihood.link == "identity":
            return self.pred_mean_post.copy(), self.pred_sd_post.copy()
        w = self.weights
        m, s2 = self.pred_mean, self.pred_sd**2
        e1 = w @ np.exp(m + 0.5 * s2)
        e2 = w @ np.exp(2.0 * m + 2.0 * s2)
        return e1, np.sqrt(np.clip(e2 - e1**2, 0.0, None))

    def hyper_marginal(self, name, scale="internal"):
        free = self.model.free_hyperparams()
        names = [h.name for h in free]
        if name not in names:
            raise KeyError(name)
        j = names.index(name)
        cfg = self._cfg()
        m = hyper_marginals(self.nodes, j, self.theta_mode, self.theta_hessian,
                            cfg.marginal_points, cfg.marginal_span)
        if scale == "internal":
            return m
        h = free[j]
        if h.transform == "log":
            return transform_marginal(m, np.exp, np.exp)
        if h.transform == "correlation":
            from scipy.special import expit
            return transform_marginal(m, lambda t: 2 * expit(t) - 1,
                                      lambda t: 2 * expit(t) * (1 - expit(t)))
        return m

    # -- summaries ------------------------------------------------------

    def fixed_summary(self):
        rows = {}
        for comp in self.model.components:
            if isinstance(comp, FixedEffect):
                idx = self.model.col_offsets[comp.name][0]
                rows[comp.name] = zmarginal(self.latent_marginal(idx))
        return rows

    def hyper_summary(self, scale="natural"):
        return {h.name: zmarginal(self.hyper_marginal(h.name, scale))
                for h in self.model.free_hyperparams()}

    def tag_rows(self, tag):
        return self.model.tag_range(tag)


def fit(model, config=None):
    """Full inference pass: mode search, exploration, per-node marginals."""
    t0 = time.perf_counter()
    engine = Engine(model, config)
    cfg = engine.config
    t1 = time.perf_counter()

    theta_star, H = engine.find_mode()
    nodes = engine.explore(theta_star, H)

    def one(node):
        # exploration cached every node's latent mode: Newton restarts there
        return engine.node_quantities(node.theta)

    engine._node_plan()   # shared by the node workers, so built before them
    if cfg.threads > 1 and len(nodes) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            node_data = list(ex.map(one, nodes))
    else:
        node_data = [one(nd) for nd in nodes]
    t2 = time.perf_counter()

    mlik = marginal_likelihood(nodes, H)
    result = FitResult(model, engine, theta_star, H, nodes, node_data, mlik,
                       timings={}, counts=dict(engine.counts))
    t3 = time.perf_counter()
    result.timings = {
        "preprocessing": t1 - t0,
        "solving": t2 - t1,
        "postprocessing": t3 - t2,
        "total": t3 - t0,
    }
    return result

"""Nested approximation core.

Gaussian approximation of the latent field given hyperparameters, Laplace
approximation of the hyperparameter posterior, deterministic exploration of
that posterior (grid, composite design, or its mode alone), and the mixture
machinery that turns per-node Gaussian approximations into posterior
marginals of hyperparameters, latent variables and predictors.  A linear
combination of the latent field is a predictor row with no observation.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import sparse
from .errors import (
    DimensionMismatch,
    InvalidCorrelation,
    InvalidParameter,
    ModeSearchFailed,
    NonConvergence,
    NotPositiveDefinite,
)

# proposals the quasi-Newton search treats as "out of bounds" rather than fatal
_REJECTABLE = (NotPositiveDefinite, NonConvergence, InvalidCorrelation)
from .latent import TRANSFORMS, FixedEffect, log_prior_theta
from .marginals import (
    GRID_POINTS,
    GRID_SPAN,
    MarginalDensity,
    _cubic_spline,
    mixture_marginal,
    transform_marginal,
    zmarginal,
)
from .sparse import SparseSymmetric, factorize, selected_inverse, solve

LOG_2PI = float(np.log(2.0 * np.pi))

# a Newton increment taken with a factor of Q* from an earlier point must be
# at most this fraction of the previous increment, else Q* is factorized anew
CHORD_CONTRACTION = 0.1

# central-difference step in theta for the terms of the theta-gradient that
# need no Newton solve (prior quantities and the likelihood at a fixed eta)
PRIOR_DIFF_STEP = 1e-4

# step in theta of the mode Hessian's forward differences of analytic
# theta-gradients (their O(h) error falls with h until the gradients' Newton
# noise takes over, between 1e-5 and 3e-5 at the default newton_tol)
HESS_DIFF_STEP = 3e-5


# a Gaussian approximation raises NonConvergence after MAX_NEWTON Newton
# iterations, or when its line search halves a step down to NEWTON_MIN_STEP
# with no trial accepted; the grid strategy keeps at most MAX_GRID_NODES nodes
MAX_NEWTON = 50
NEWTON_MIN_STEP = 2.0**-40
MAX_GRID_NODES = 256

# Newton also ends, at x with its factor, when two successive fresh-factor
# increments stop shrinking (the second at least half the first) within
# NEWTON_FLOOR times newton_tol: the increment's rounding floor, which grows
# with the conditioning of Q*, has reached the tolerance
NEWTON_FLOOR = 1e3


INT_STRATEGIES = ("grid", "ccd", "eb")


@dataclass
class EngineConfig:
    """Settings of the approximation engine.

    Raises InvalidParameter, naming the field, unless `int_strategy` is one of
    INT_STRATEGIES and `log_drop` and `newton_tol` are finite numbers above 0.
    """

    int_strategy: str = "ccd"        # grid | ccd | eb
    log_drop: float = 2.5            # keep grid nodes within this log drop
    newton_tol: float = 1e-11
    # accepted and unused: inference runs on the calling thread
    # (bench/workloads.py passes it)
    threads: int = 1

    def __post_init__(self):
        if self.int_strategy not in INT_STRATEGIES:
            raise InvalidParameter(f"int_strategy {self.int_strategy!r} not in {INT_STRATEGIES}")
        for key in ("log_drop", "newton_tol"):
            value = getattr(self, key)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 < value < np.inf):
                raise InvalidParameter(f"{key} must be a finite number above 0, got {value!r}")
            setattr(self, key, float(value))


@dataclass
class GaussianApprox:
    """Gaussian approximation to the latent conditional at one theta.

    `factor` is the Cholesky factor of `Q_star` = Q*(`theta`, `curvature`),
    with c = `curvature` the likelihood curvature -d2 log p(y | eta) at the
    mode `x_star`.  `factorizations` counts the factorizations of Q* made
    while finding it.  `dx` is dx*/dtheta (n x p), set by
    `Engine.log_posterior_gradient`; a Newton iteration started from this
    approximation uses it to predict the mode at another theta.
    """

    x_star: np.ndarray
    Q_star: SparseSymmetric
    factor: sparse.CholeskyFactor
    iterations: int
    constraint_W: np.ndarray = None        # Q*^-1 M' for the constraint rows
    constraint_cho: object = None
    constraint_logdet: float = 0.0
    theta: np.ndarray = None
    curvature: np.ndarray = None
    factorizations: int = 0
    dx: np.ndarray = None


@dataclass
class ThetaNode:
    """One integration node in hyperparameter space.

    `quantities` holds the latent and predictor moments of the Gaussian
    approximation at `theta` (see `Engine.node_quantities`), and `z` the
    node's design point in Laplace-standardized coordinates (see `explore`).
    """

    theta: np.ndarray
    log_post: float
    weight: float
    quantities: dict = None
    z: np.ndarray = None


# ------------------------------------------------------------------
# quasi-Newton ascent used for the hyperparameter mode

# at most BFGS_MAX_ITER iterations, each step capped at BFGS_MAX_STEP per
# coordinate, stopping once a step is within BFGS_STEP_TOL; the mode search
# evaluates log pi(theta | y) at most MODE_BUDGET times and stops once every
# gradient entry is within MODE_GRAD_TOL
BFGS_MAX_ITER = 100
BFGS_MAX_STEP = 3.0
BFGS_STEP_TOL = 1e-6
MODE_BUDGET = 200
MODE_GRAD_TOL = 1e-2


def _maximize(f, x0, grad, budget, grad_tol, metric=None):
    """BFGS ascent with an interpolating backtrack.

    `f` may raise for or return -inf at invalid points; the line search
    halves the step past them.  A finite trial that fails the sufficient
    increase test moves the step to the maximizer of the quadratic through
    f(x), the slope g'd and the trial's value, clipped to [0.1, 0.5] times
    the rejected step (Nocedal & Wright 2006, sec. 3.5).  `grad(x)` is the
    gradient of `f` at a point where `f` was just evaluated and finite.
    `metric(x)`, called once after the first gradient, returns a symmetric
    estimate B0 of the negative Hessian at x0: BFGS starts from B0^-1, with
    B0's eigenvalues floored at 1e-3 of the largest, or from the identity
    when no eigenvalue is positive or there is no `metric`, and returns to
    that start where a direction fails to ascend.  Steps are capped at
    BFGS_MAX_STEP per coordinate.  Raises ModeSearchFailed once `budget`
    evaluations of `f` are exhausted; returns (x, f(x), evaluations of f,
    converged), where converged is False when the search ended on a line
    search that accepted no trial, or at BFGS_MAX_ITER iterations short of
    the gradient and step tolerances.
    """
    count = 0

    def fx(x):
        nonlocal count
        if count >= budget:
            raise ModeSearchFailed(f"evaluation budget {budget} exhausted")
        count += 1
        try:
            v = f(x)
        except _REJECTABLE:
            return -np.inf
        return v if np.isfinite(v) else -np.inf

    x = np.asarray(x0, dtype=float).copy()
    p = x.size
    fval = fx(x)
    if not np.isfinite(fval):
        raise ModeSearchFailed("log-posterior not finite at the initial point")
    g = grad(x)
    start = np.eye(p)
    if metric is not None:
        w, V = np.linalg.eigh(metric(x))
        if np.max(w) > 0:
            start = (V / np.maximum(w, 1e-3 * np.max(w))) @ V.T
    Hinv = start
    converged = np.max(np.abs(g)) <= grad_tol
    for _ in range(BFGS_MAX_ITER):
        if converged:
            break
        direction = Hinv @ g
        if direction @ g <= 0:
            Hinv = start
            direction = Hinv @ g
        biggest = np.max(np.abs(direction))
        if biggest > BFGS_MAX_STEP:
            direction = direction * (BFGS_MAX_STEP / biggest)
        slope = g @ direction
        lam, accepted = 1.0, False
        f_new = -np.inf
        x_new = x
        for _ in range(25):
            x_new = x + lam * direction
            f_new = fx(x_new)
            if np.isfinite(f_new) and f_new >= fval + 1e-4 * lam * slope:
                accepted = True
                break
            if np.isfinite(f_new):
                # the maximizer of the quadratic through fval, slope and
                # f_new, kept within [0.1, 0.5] of the rejected step
                best = 0.5 * slope * lam**2 / (fval + slope * lam - f_new)
                lam = min(max(best, 0.1 * lam), 0.5 * lam)
            else:
                lam *= 0.5
        if not accepted:
            break
        s = x_new - x
        g_new = grad(x_new)
        y = g - g_new  # curvature pair for the descent problem on -f
        sy = s @ y
        if sy > 1e-12:
            rho = 1.0 / sy
            I = np.eye(p)
            Hinv = (I - rho * np.outer(s, y)) @ Hinv @ (I - rho * np.outer(y, s)) \
                + rho * np.outer(s, s)
        x, fval, g = x_new, f_new, g_new
        converged = np.max(np.abs(g)) <= grad_tol or np.max(np.abs(s)) <= BFGS_STEP_TOL
    return x, fval, count, bool(converged)


# ------------------------------------------------------------------
# the engine proper

def ccd_design(p):
    """Central composite design (Z, w) in p Laplace-standardized coordinates.

    The center, then the corners of [-1, 1]^p (for p >= 5 the half-fraction
    whose entries multiply to +1), then -sqrt(p) e_j and +sqrt(p) e_j for
    j = 0, ..., p - 1 (Rue, Martino & Chopin 2009, sec. 6.5); unit weights.
    """
    corners = np.array(list(product((-1.0, 1.0), repeat=p)))
    if p >= 5:
        corners = corners[np.prod(corners, axis=1) > 0]
    axial = np.sqrt(p) * np.kron(np.eye(p), [[-1.0], [1.0]])
    Z = np.vstack([np.zeros((1, p)), corners, axial]) + 0.0   # no -0.0 entries
    return Z, np.ones(len(Z))


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

        # symbolic stage: Q* = Q(theta) + A' diag(c) A on one fixed pattern
        n = self.n
        P = model.prior_pattern()
        prows = P.indices.astype(np.int64)
        pcols = np.repeat(np.arange(n, dtype=np.int64), np.diff(P.indptr))
        self._prior_lower = np.flatnonzero(prows >= pcols)
        prior_keys = pcols[self._prior_lower] * n + prows[self._prior_lower]
        # the pattern holds the pairs of every row of A, observed or not (the
        # linear predictor inside the latent field, Rue et al. 2009, sec. 3),
        # so the ordering sees them and every predictor variance reads the
        # selected inverse in place; only observed rows carry curvature
        pair_keys, pair_rows, pair_weights = _row_pairs(model.A)
        lik = model.observed[pair_rows]
        obs_of = np.cumsum(model.observed) - 1   # an observed row's place among them
        keys = np.unique(np.concatenate(
            [prior_keys, pair_keys, np.arange(n, dtype=np.int64) * (n + 1)]))
        self._prior_pos = np.searchsorted(keys, prior_keys)
        # row p of the map gives the entry at keys[p] of A' diag(c) A as a map of c
        self._lik_map = sp.csr_matrix(
            (pair_weights[lik], (np.searchsorted(keys, pair_keys[lik]), obs_of[pair_rows[lik]])),
            shape=(keys.size, self.obs_idx.size))
        self._pattern = sparse._csc_from_keys(keys, n)
        pattern = SparseSymmetric(n, self._pattern, validate=False)
        # the dense fixed-effect columns go last, in the border
        fixed_cols = [model.col_offsets[c.name][0] for c in model.components
                      if isinstance(c, FixedEffect)]
        self._symbolic = sparse.analyze(pattern, sparse.band_order(pattern.full(), fixed_cols))
        self.perm = self._symbolic.perm
        # where the selected inverse holds each entry: the pattern of Q* for
        # the trace of the theta-gradient, the pairs for predictor variances
        self._trace_plan = self._selinv_reads(keys)
        pos, twice = self._selinv_reads(pair_keys)
        self._pred_plan = (pair_rows, pos, twice * pair_weights)
        # the theta_j that no component's prior reads (likelihood hyperparameters)
        read = {id(h) for comp in model.components for h in comp.hyperparams()}
        self._lik_only = [id(h) not in read for h in model.free_hyperparams()]
        # the only engine state a fit changes
        self.counts = {"theta_evals": 0, "newton_iterations": 0, "factorizations": 0,
                       "gradients": 0, "rejected_trials": 0, "hessian_clamped": 0,
                       "mode_unconverged": 0, "newton_halvings": 0}

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

    def _factor_at(self, theta, q_prior, c, x):
        """Factor of Q*(theta, c), with the constraint solves, as an approximation at x."""
        self.counts["factorizations"] += 1
        Q_star = self._conditional_precision(q_prior, c)
        factor = factorize(Q_star, self._symbolic)
        W = cho = None
        logdet_S = 0.0
        if self.n_constraints:
            W = solve(factor, self.M.T)
            cho, logdet_S = sparse.constraint_cholesky(self.M @ W)
        return GaussianApprox(x, Q_star, factor, 0, constraint_W=W,
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

        Steps x <- x + dx, dx = F^-1 g(x) projected onto M x = e, use the
        most recent factor F of Q*: that of `start` (a GaussianApprox,
        possibly at another theta) or one made here.  The increment is the
        one measure of progress: Newton stops when a factor at x gives
        max|dx| <= `newton_tol` (1 + max|x + dx|), which no infeasible x
        passes, or at the rounding floor of dx (NEWTON_FLOOR).  Q* is
        factorized at the current point when there is no factor yet, and
        when an older factor's increment is within that tolerance, exceeds
        CHORD_CONTRACTION times the previous increment or fails the first
        line-search trial (the simplified, or chord, Newton iteration), whose
        halvings end at NEWTON_MIN_STEP (counts["newton_halvings"] counts
        them).  A likelihood whose curvature does not depend on eta
        factorizes at theta first, so one exact step follows.  The returned
        factor is that of Q*(theta, c(x*)) at the returned mode x*, and
        its `dx` is None whatever the start's.

        `x_init` defaults to the mode of `start`, else zeros.  When `start`
        carries `dx` and sits at another theta0, Newton starts instead at
        the predicted mode x*0 + dx (theta - theta0), where the penalized
        objective is higher than at x*0.  `Qp`, when given, is
        `model.prior_quantities(theta)[0]`.
        """
        cfg = self.config
        model = self.model
        theta = np.asarray(theta, dtype=float)
        self.counts["theta_evals"] += 1
        if Qp is None:
            Qp = model.prior_quantities(theta)[0]
        param = self._lik_param(theta)
        predict = (x_init is None and start is not None and start.dx is not None
                   and not np.array_equal(start.theta, theta))
        if x_init is None:
            x_init = np.zeros(self.n) if start is None else start.x_star
        x = np.array(x_init, dtype=float)
        if x.size != self.n:
            raise DimensionMismatch("x_init has wrong length")
        q_prior = self._prior_on_pattern(Qp)
        fixed_curvature = model.likelihood.fixed_curvature
        F = start
        factorizations = iterations = 0
        fx = None
        step_last = fresh_last = np.inf
        if predict:
            # the predictor step of a continuation method, kept where it
            # raises the objective above that at the start's mode
            fx = self._penalized_objective(x, Qp, param)
            x_pred = x + start.dx @ (theta - start.theta)
            f_pred = self._penalized_objective(x_pred, Qp, param)
            if f_pred > fx:
                x, fx = x_pred, f_pred

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

        def increment(x_new, x):
            return np.max(np.abs(x_new - x)) / (1.0 + np.max(np.abs(x_new)))

        while True:
            d1, c = curvature(x)
            grad = self.A_obs.T @ d1 - Qp @ x
            fresh = sits_at(F, c)
            if not fresh and (F is None or fixed_curvature):
                F, fresh = factor_here(), True
            x_prop = self._newton_point(F, x, grad)
            step = increment(x_prop, x)
            # only a factor at x certifies a small increment (a stale one can
            # be far stiffer than Q* here), and a chord step that contracts
            # too little is retaken with one
            if not fresh and (step <= cfg.newton_tol or step > CHORD_CONTRACTION * step_last):
                F = factor_here()
                continue
            if step <= cfg.newton_tol:
                break   # x is the mode, and F sits there
            if fresh:
                if (step >= 0.5 * fresh_last
                        and max(step, fresh_last) <= NEWTON_FLOOR * cfg.newton_tol):
                    break   # at the increment's rounding floor, F sits at x
                fresh_last = step
            if iterations >= MAX_NEWTON:
                raise NonConvergence(iterations)
            if fx is None:
                fx = self._penalized_objective(x, Qp, param)
            f_new = self._penalized_objective(x_prop, Qp, param)
            if not fresh and not accepted(f_new):
                F = factor_here()
                continue
            lam = 1.0
            x_new = x_prop
            while not accepted(f_new):
                if lam <= NEWTON_MIN_STEP:
                    raise NonConvergence(iterations, "Newton line search accepted no step")
                lam *= 0.5
                self.counts["newton_halvings"] += 1
                x_new = x + lam * (x_prop - x)
                f_new = self._penalized_objective(x_new, Qp, param)
            converged = increment(x_new, x) <= cfg.newton_tol
            x, fx = x_new, f_new
            step_last = step
            iterations += 1
            self.counts["newton_iterations"] += 1
            if converged:   # the line search shrank the step below tolerance
                c = curvature(x)[1]
                break
        if not sits_at(F, c):
            F = factor_here()
        return dataclasses.replace(F, x_star=x, iterations=iterations,
                                   factorizations=factorizations, dx=None)

    def log_posterior(self, theta, start=None, x_init=None, return_approx=False):
        """Unnormalized log posterior density of the hyperparameters.

        One Laplace approximation at theta, a function of theta and of where
        Newton starts: from `start` (a GaussianApprox, possibly at another
        theta, whose mode and factor it reuses), else from `x_init` with no
        factor, else from zeros.  No earlier evaluation enters the value.
        """
        theta = np.asarray(theta, dtype=float)
        Qp, rank, logdet_p, corr = self.model.prior_quantities(theta)
        approx = self.gaussian_approximation(theta, x_init=x_init, Qp=Qp, start=start)
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
        if return_approx:
            return lp, approx
        return lp

    # -- theta-gradient ------------------------------------------------

    def _selinv_reads(self, keys):
        """Where the selected inverse holds each pattern entry key j * n + i (i >= j).

        Returns (positions in its data, 1 on the diagonal and 2 off it): a
        symmetric sum over the lower triangle counts off-diagonal entries
        twice.  The stored band, border strip and corner cover the pattern
        of Q*, which holds every entry asked for.
        """
        cols, rows = np.divmod(keys, self.n)
        pos, inside = self._symbolic.selected_inverse_slots(rows, cols)
        assert inside.all(), "pattern entry outside the selected inverse"
        return pos, np.where(rows == cols, 1.0, 2.0)

    def log_posterior_gradient(self, approx, S=None):
        """Gradient in theta of `log_posterior`, from the approximation at theta.

        `approx` is the Gaussian approximation at `approx.theta`, with its
        factor at the mode, and `S` the selected inverse of that factor,
        computed here when not given.  No Newton iteration runs: the gradient
        takes one selected inverse, one solve with p right-hand sides, and
        central differences (step PRIOR_DIFF_STEP) of the terms that hold x* fixed:
        the prior quantities and the likelihood at eta* as functions of its
        hyperparameter psi.  For each theta_j, with dQ = dQ/dtheta_j:

        * prior terms: d[log pi(theta) + logdet(Q)/2 + corr];
        * envelope terms: -x*' dQ x* / 2 + d_psi sum log p(y | eta*, psi); x*
          adds no chain-rule term, since it maximizes the penalized
          likelihood on M x = e;
        * -tr(Q*^-1 dQ*) / 2 with dQ* = dQ + A' diag(dc) A, where
          dc = c'(eta*) A dx* + d_psi c, and dx* = Q*^-1 (-dQ x* + A' d_psi d1)
          projected onto M dx = 0;
        * with constraints, +tr((M W)^-1 W' dQ* W) / 2, W = Q*^-1 M'.

        A theta_j that no component's prior reads (a likelihood
        hyperparameter) has dQ = 0, and its prior term is the difference of
        log pi(theta) alone: the prior quantities are evaluated only for the
        others, twice each.

        The projected dx* (n x p) is kept as `approx.dx`, the predictor of
        Newton iterations started from `approx`.  (Kristensen et al. 2016
        differentiate the Laplace approximation through the same sparse
        inverse subset.)
        """
        self.counts["gradients"] += 1
        model = self.model
        lik = model.likelihood
        theta = approx.theta
        x = approx.x_star
        p = theta.size
        h = PRIOR_DIFF_STEP
        P = model.prior_pattern()
        eta = self.A_obs @ x
        param = self._lik_param(theta)
        grad = np.zeros(p)
        rhs = np.zeros((self.n, p))
        dq = np.zeros((self._pattern.nnz, p))   # dQ on the pattern of Q*
        dc_psi = np.zeros((self.y_obs.size, p))
        dQs = []   # read by the constraint term only
        for j in range(p):
            step = np.zeros(p)
            step[j] = h
            up, dn = theta + step, theta - step
            psi_up, psi_dn = self._lik_param(up), self._lik_param(dn)
            if self._lik_only[j]:
                # dQ = 0, and of the prior terms only log pi(theta) moves
                dQ = sp.csc_matrix(P.shape)
                grad[j] = (log_prior_theta(model, up) - log_prior_theta(model, dn)) / (2.0 * h)
            else:
                sides = []
                for th in (up, dn):
                    Qp, _, logdet_p, corr = model.prior_quantities(th)
                    sides.append((Qp.data, log_prior_theta(model, th) + 0.5 * logdet_p + corr))
                (q_up, s_up), (q_dn, s_dn) = sides
                dQ = sp.csc_matrix(((q_up - q_dn) / (2.0 * h), P.indices, P.indptr),
                                   shape=P.shape)
                dQx = dQ @ x
                grad[j] = (s_up - s_dn) / (2.0 * h) - 0.5 * float(x @ dQx)
                rhs[:, j] = -dQx
                dq[:, j] = self._prior_on_pattern(dQ)
            if self.n_constraints:
                dQs.append(dQ)
            if psi_up != psi_dn:
                ll = lik.log_lik(self.y_obs, eta, psi_up) - lik.log_lik(self.y_obs, eta, psi_dn)
                (d1_up, d2_up), (d1_dn, d2_dn) = (lik.derivs(self.y_obs, eta, psi)
                                                  for psi in (psi_up, psi_dn))
                grad[j] += float(np.sum(ll)) / (2.0 * h)
                rhs[:, j] += self.A_obs.T @ ((d1_up - d1_dn) / (2.0 * h))
                dc_psi[:, j] = -(d2_up - d2_dn) / (2.0 * h)
        dx = solve(approx.factor, rhs)
        W = approx.constraint_W
        if self.n_constraints:
            dx = dx - W @ scipy.linalg.cho_solve(approx.constraint_cho, self.M @ dx)
        approx.dx = dx
        dc = lik.curvature_slope(self.y_obs, eta, param)[:, None] * (self.A_obs @ dx) + dc_psi
        dq_star = dq + self._lik_map @ dc
        # tr(Q*^-1 dQ*) over the lower-triangle data of dQ* on the pattern of Q*
        pos, weight = self._trace_plan
        if S is None:
            S = selected_inverse(approx.factor)
        grad -= 0.5 * ((weight * S.data[pos]) @ dq_star)
        if self.n_constraints:
            AW = self.A_obs @ W
            for j in range(p):
                WdW = W.T @ (dQs[j] @ W) + AW.T @ (dc[:, j, None] * AW)
                grad[j] += 0.5 * float(np.trace(
                    scipy.linalg.cho_solve(approx.constraint_cho, WdW)))
        return grad

    # -- mode and exploration ----------------------------------------

    def find_mode(self):
        """The mode theta* of log pi(theta | y), the Hessian there, and the center.

        BFGS starts the Newton iteration at each theta from the approximation
        it evaluated last, accepted by the line search or not, and takes the
        theta-gradient from the approximation at each accepted point, which
        then carries dx*/dtheta for the next start.  The center is (log
        posterior, node quantities, approximation) at theta*, with the dx of
        the last gradient: the Hessian's probes start from it, and `explore`
        takes it for the node at theta* and as the start of every design
        point.  H[:, j] is the forward difference (g(theta* + h e_j) - g*) / h,
        h = HESS_DIFF_STEP, of analytic gradients, g* the one BFGS took at
        theta* (`_maximize` returns the last point it took a gradient at).
        H is symmetrized, and its eigenvalues are clamped below zero when it
        is not negative definite (counts["hessian_clamped"]).
        counts["rejected_trials"] counts the line-search trials BFGS rejected,
        and counts["mode_unconverged"] a search that stopped at BFGS_MAX_ITER
        or on a line search that accepted nothing.

        BFGS starts from the Gauss-Newton metric of the first gradient's
        approximation, at the initial theta: J' diag(c) J with J = A dx*/dtheta
        and c the likelihood curvature at x* (Nocedal & Wright 2006, ch. 10).
        Each likelihood hyperparameter psi, where that cross term can have the
        wrong sign, gets its row and column zeroed and -d2/dpsi2 sum log p(y |
        eta*, psi), a second difference at PRIOR_DIFF_STEP, on the diagonal.
        With no free hyperparameter there is no center (None).
        """
        model = self.model
        p = len(model.free_hyperparams())
        if p == 0:
            return np.zeros(0), np.zeros((0, 0)), None
        last = None       # the approximation evaluated last
        S = None          # the selected inverse of the last gradient's factor
        accepted = None   # (x*, dx, gradient) at the last accepted point
        gradients = 0

        def f(theta):
            nonlocal last, S
            # a gradient's selected inverse is not held beside the factors
            # of a new Newton iteration
            S = None
            lp, last = self.log_posterior(theta, start=last, return_approx=True)
            return lp

        def grad(theta):
            # _maximize asks for the gradient at the point it evaluated last
            nonlocal S, accepted, gradients
            gradients += 1
            S = selected_inverse(last.factor)
            g = self.log_posterior_gradient(last, S)
            accepted = (last.x_star, last.dx, g)
            return g

        def metric(theta):
            # _maximize asks at its first gradient's point, so `last` carries dx
            J = self.A_obs @ last.dx
            B = J.T @ (last.curvature[:, None] * J)
            eta = self.A_obs @ last.x_star
            h = PRIOR_DIFF_STEP
            for j, step in enumerate(h * np.eye(p)):
                up, mid, dn = (self._lik_param(th) for th in (theta + step, theta, theta - step))
                if up != dn:
                    ll = [float(np.sum(model.likelihood.log_lik(self.y_obs, eta, psi)))
                          for psi in (up, mid, dn)]
                    B[j, :] = B[:, j] = 0.0
                    B[j, j] = -(ll[0] - 2.0 * ll[1] + ll[2]) / h**2
            return B

        theta_star, lp_star, evaluations, converged = _maximize(
            f, model.theta_initial(), grad, MODE_BUDGET, MODE_GRAD_TOL, metric)
        self.counts["mode_unconverged"] += not converged
        self.counts["rejected_trials"] += evaluations - gradients
        x_g, dx_g, g_star = accepted
        approx = last
        if not np.array_equal(approx.theta, theta_star):
            # the line search ended on a rejected trial: restart at the mode
            approx = self.log_posterior(theta_star, x_init=x_g, return_approx=True)[1]
            approx.dx = dx_g
        # the node at the mode reads the selected inverse of the last gradient,
        # which is then freed, so that it is not held through the probes
        center = (lp_star, self._node_quantities(lp_star, approx, S), approx)
        S = None

        # H is the symmetrized forward difference of analytic gradients, each
        # at a probe from the approximation at the mode
        h = HESS_DIFF_STEP
        H = np.zeros((p, p))
        for j in range(p):
            step = np.zeros(p)
            step[j] = h
            g_up = self.log_posterior_gradient(
                self.log_posterior(theta_star + step, start=approx, return_approx=True)[1])
            H[:, j] = (g_up - g_star) / h
        H = 0.5 * (H + H.T)
        w, V = np.linalg.eigh(H)
        floor = -1e-6 * max(1.0, float(np.max(np.abs(w))))
        if np.any(w > floor):
            self.counts["hessian_clamped"] += 1
            w = np.minimum(w, floor)
            H = (V * w) @ V.T
        return theta_star, H, center

    def explore(self, theta_star, H, strategy=None, center=None):
        """Integration nodes, each with its log posterior and node quantities.

        A node carries its design point z, at theta* + S z with S S' = (-H)^-1,
        and its design weight over the sum of the kept nodes' (`ccd_design`,
        or unit weights on the grid's unit steps in z).  The first node is
        the center, z = 0 at theta* itself: the one `find_mode` returns, else
        evaluated from a cold start.  Every other design point is one Gaussian
        approximation, started from the center's; the node reads its
        quantities from it, and the factor is dropped before the next point.
        A design point is dropped when its approximation fails or its log
        posterior is not finite, and on the grid when it lies more than
        `log_drop` below the center (the points that end the grid's axes
        included); counts["nodes_dropped"] counts them.
        """
        cfg = self.config
        strategy = strategy or cfg.int_strategy
        p = theta_star.size
        self.counts.setdefault("nodes_dropped", 0)
        if center is None:
            lp0, approx0 = self.log_posterior(theta_star, return_approx=True)
            center = (lp0, self._node_quantities(lp0, approx0), approx0)
        lp0, q0, approx0 = center
        if p == 0 or strategy == "eb":
            return [ThetaNode(theta_star.copy(), lp0, 1.0, q0, np.zeros(p))]

        Sigma = np.linalg.inv(-H)
        Sigma = 0.5 * (Sigma + Sigma.T)
        w, V = np.linalg.eigh(Sigma)
        scale = V @ np.diag(np.sqrt(np.clip(w, 1e-12, None)))

        # z bytes -> (theta, log posterior, node quantities or None when dropped)
        seen = {np.zeros(p).tobytes(): (theta_star.copy(), lp0, q0)}

        def node_at(z, keep, weight=1.0):
            """The node at design point z, or None when keep(log posterior) is False."""
            z = np.asarray(z, dtype=float) + 0.0   # -0.0 becomes 0.0 in the key
            key = z.tobytes()
            if key not in seen:
                th = theta_star + scale @ z
                try:
                    lp, approx = self.log_posterior(th, start=approx0, return_approx=True)
                except _REJECTABLE:
                    lp, approx = -np.inf, None
                seen[key] = (th, lp, self._node_quantities(lp, approx) if keep(lp) else None)
            th, lp, q = seen[key]
            if q is None:
                self.counts["nodes_dropped"] += 1
                return None
            return ThetaNode(th, lp, weight, q, z)

        if strategy == "ccd":
            nodes = [node_at(z, np.isfinite, wz) for z, wz in zip(*ccd_design(p))]
            nodes = [nd for nd in nodes if nd is not None]
        elif strategy == "grid":
            def near(lp):
                return lp0 - lp <= cfg.log_drop

            def extent(v):
                """The unit steps along v whose points stay near, at most 20."""
                m = 0
                while m < 20 and node_at((m + 1) * v, near) is not None:
                    m += 1
                return m

            axes = [range(-extent(-e), extent(e) + 1) for e in np.eye(p)]
            candidates = sorted(product(*axes),
                                key=lambda z: (sum(abs(c) for c in z), z))
            nodes = []
            for z in candidates:
                if len(nodes) >= MAX_GRID_NODES:
                    break
                nd = node_at(z, near)
                if nd is not None:
                    nodes.append(nd)
        else:
            raise ValueError(f"unknown int_strategy {strategy!r}")
        total = sum(nd.weight for nd in nodes)
        for nd in nodes:
            nd.weight /= total
        return nodes

    # -- per-node posterior quantities --------------------------------

    def node_quantities(self, theta, x_init=None):
        """Latent mean/sd and per-row predictor mean/sd at one theta node."""
        lp, approx = self.log_posterior(theta, x_init=x_init, return_approx=True)
        return self._node_quantities(lp, approx)

    def _node_quantities(self, lp, approx, S=None):
        """`node_quantities` from the log posterior and Gaussian approximation at a node.

        `S` is the selected inverse of `approx.factor`, computed here when not given.
        """
        if S is None:
            S = selected_inverse(approx.factor)
        diag = S.diagonal()
        A = self.model.A
        var_rows = self._predictor_variances(S)
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
        }

    def _predictor_variances(self, S):
        """a' Sigma a for every row a of A, Sigma the unconstrained Q*^-1 in `S`."""
        rows, pos, coef = self._pred_plan
        return np.bincount(rows, weights=coef * S.data[pos], minlength=self.model.A.shape[0])


def node_weights(nodes):
    """Mixture weights combining design weights with posterior mass."""
    lp = np.array([nd.log_post for nd in nodes])
    w = np.array([nd.weight for nd in nodes])
    raw = w * np.exp(lp - lp.max())
    return raw / raw.sum()


# ------------------------------------------------------------------
# hyperparameter marginals

def hyper_marginals(nodes, j, theta_star, H):
    """Posterior marginal of internal hyperparameter j from integration nodes.

    One free hyperparameter: normalized interpolation of exp(log_post)
    through the node values with Gaussian tails.  Higher dimensions: the
    marginal of the functional e_j'theta (`hyper_lincomb_marginal`).
    """
    if len(nodes) == 0:
        raise ValueError("need at least one node")
    p = nodes[0].theta.size
    if p == 1 and len(nodes) >= 4:
        sd_lap = float(np.sqrt(np.linalg.inv(-H)[j, j]))
        center = float(theta_star[j])
        pts = sorted({(float(nd.theta[j]), float(nd.log_post)) for nd in nodes})
        xs = np.array([a for a, _ in pts])
        ys = np.array([b for _, b in pts])
        ys = ys - ys.max()
        spline = _cubic_spline(xs, ys)
        grid = center + sd_lap * np.linspace(-GRID_SPAN, GRID_SPAN, GRID_POINTS)
        logf = np.empty_like(grid)
        inside = (grid >= xs[0]) & (grid <= xs[-1])
        logf[inside] = spline(grid[inside])
        # Gaussian tails matched to the end values
        for mask, x_end in ((grid < xs[0], xs[0]), (grid > xs[-1], xs[-1])):
            base = float(spline(x_end))
            logf[mask] = base - ((grid[mask] - center) ** 2
                                 - (x_end - center) ** 2) / (2.0 * sd_lap**2)
        return MarginalDensity(grid, np.exp(logf - logf.max()))
    v = np.zeros(p)
    v[j] = 1.0
    return hyper_lincomb_marginal(nodes, v, 0.0, theta_star, H)


def hyper_lincomb_marginal(nodes, v, offset, theta_star, H):
    """Marginal of a linear functional v'theta + offset of the hyperparameters.

    The nodes are projected onto the functional and smoothed with a Gaussian
    kernel whose variance tops the spread of the projected nodes up to the
    Laplace variance v' Sigma v (at least 5% of it).
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
    grid = center + sd_lap * np.linspace(-GRID_SPAN, GRID_SPAN, GRID_POINTS)
    z = (grid[:, None] - means[None, :]) / s
    dens = (np.exp(-0.5 * z**2) / (s * np.sqrt(2 * np.pi))) @ w
    return MarginalDensity(grid, dens)


def marginal_likelihood(nodes, H):
    """Laplace estimate of the log model evidence from mode-centered nodes.

    log of exp(lp*) (2 pi)^(p/2) |-H|^(-1/2), lp* the highest node log
    posterior.  Raises ModeSearchFailed unless H is negative definite, which
    the Cholesky factor of -H tests.
    """
    log_peak = max(nd.log_post for nd in nodes)
    p = H.shape[0]
    if p == 0:
        return float(log_peak)
    try:
        c = np.linalg.cholesky(-H)
    except np.linalg.LinAlgError as exc:
        raise ModeSearchFailed(f"Hessian not negative definite at the mode: {exc}") from exc
    return float(log_peak + 0.5 * p * LOG_2PI - np.sum(np.log(np.diag(c))))


# ------------------------------------------------------------------
# full fit

class FitResult:
    """Complete output of a fit: mode, nodes, marginals, summaries."""

    def __init__(self, model, engine, theta_mode, H, nodes, mlik, timings, counts=None):
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
        # the layout every factorization of Q* in the fit shares
        self.factor_layout = engine._symbolic.layout()
        self.diagnostics = None

        self.weights = node_weights(nodes)
        node_data = [nd.quantities for nd in nodes]
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

    def latent_marginal(self, index):
        return mixture_marginal(self.latent_mean[:, index], self.latent_sd[:, index],
                                self.weights)

    def predictor_marginal(self, row):
        return mixture_marginal(self.pred_mean[:, row], self.pred_sd[:, row], self.weights)

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
        m = hyper_marginals(self.nodes, j, self.theta_mode, self.theta_hessian)
        if scale == "internal":
            return m
        transform = free[j].transform
        if transform == "identity":
            return m
        return transform_marginal(m, *TRANSFORMS[transform])

    # -- summaries ------------------------------------------------------

    def fixed_summary(self):
        rows = {}
        for comp in self.model.components:
            if isinstance(comp, FixedEffect):
                idx = self.model.col_offsets[comp.name][0]
                rows[comp.name] = zmarginal(self.latent_marginal(idx))
        return rows

    def hyper_summary(self):
        """Summaries of the hyperparameter marginals on their natural scale."""
        return {h.name: zmarginal(self.hyper_marginal(h.name, "natural"))
                for h in self.model.free_hyperparams()}


def fit(model, config=None):
    """Full inference pass: mode search, then exploration, which gives the node moments."""
    t0 = time.perf_counter()
    engine = Engine(model, config)
    t1 = time.perf_counter()

    theta_star, H, center = engine.find_mode()
    t2 = time.perf_counter()
    nodes = engine.explore(theta_star, H, center=center)
    t3 = time.perf_counter()

    mlik = marginal_likelihood(nodes, H)
    result = FitResult(model, engine, theta_star, H, nodes, mlik,
                       timings={}, counts=dict(engine.counts))
    t4 = time.perf_counter()
    result.timings = {
        "preprocessing": t1 - t0,
        "mode_search": t2 - t1,
        "exploration": t3 - t2,
        "solving": (t2 - t1) + (t3 - t2),
        "postprocessing": t4 - t3,
        "total": t4 - t0,
    }
    return result

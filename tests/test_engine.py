import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammaln
from scipy.stats import multivariate_normal

import laplgm.engine as eng
import laplgm.latent as lm
import laplgm.marginals as mg
from laplgm.engine import Engine, EngineConfig
from laplgm.latent import GaussianPrior, HyperParam
from laplgm.likelihoods import GaussianLik, PoissonLik


# ------------------------------------------------------------------
# model fixtures

def conjugate_model(seed=11, n=8, nobs=25, prior_prec=2.0):
    """Gaussian likelihood with a free observation log-precision."""
    rng = np.random.default_rng(seed)
    lik = GaussianLik(HyperParam("obs.logprec", 0.0, "log", GaussianPrior(0.0, 0.5)))
    hy = lm.log_precision_hyper("u.prec", prior_prec, fixed=True)
    idx = rng.integers(0, n, nobs)
    y = rng.normal(0.5, 1.2, nobs)
    part = lm.StackPart(y, {"u": lm.index_block(idx, n)}, "obs")
    g = lm.build_stack([part], [lm.IidComponent("u", n, hy)], lik)
    return g, idx, y, prior_prec


def conjugate_logpost(g, idx, y, prior_prec):
    A = g.A.toarray()
    n = g.n_latent
    hyper = g.free_hyperparams()[0]

    def f(th):
        tau = np.exp(th)
        cov = A @ np.diag([1.0 / prior_prec] * n) @ A.T + np.eye(y.size) / tau
        return multivariate_normal.logpdf(y, np.zeros(y.size), cov) + hyper.log_prior(th)

    return f


def poisson_iid_model(y, prior_prec_initial=1.0, prior=None, fixed=False):
    hy = lm.log_precision_hyper("u.prec", prior_prec_initial,
                                prior=prior or GaussianPrior(0.0, 0.5), fixed=fixed)
    n = len(y)
    part = lm.StackPart(np.asarray(y, float), {"u": lm.index_block(range(n), n)}, "obs")
    return lm.build_stack([part], [lm.IidComponent("u", n, hy)], PoissonLik())


# ------------------------------------------------------------------

class TestGaussianApproximation:
    def test_gaussian_likelihood_one_iteration_exact(self):
        rng = np.random.default_rng(7)
        n, nobs, tau_obs = 12, 30, 2.0
        lik = GaussianLik(HyperParam("o", np.log(tau_obs), "log", fixed=True))
        hy = lm.log_precision_hyper("u.prec", 1.5, fixed=True)
        idx = rng.integers(0, n, nobs)
        y = rng.normal(1.0, 1.0, nobs)
        part = lm.StackPart(y, {"mu": np.ones(nobs), "u": lm.index_block(idx, n)}, "obs")
        g = lm.build_stack([part, ],
                           [lm.FixedEffect("mu"), lm.IidComponent("u", n, hy)], lik)
        ap = Engine(g).gaussian_approximation(np.zeros(0))
        assert ap.iterations == 1
        A = g.A.toarray()
        Qpost = np.diag([1e-4] + [1.5] * n) + tau_obs * A.T @ A
        mean = np.linalg.solve(Qpost, tau_obs * A.T @ y)
        assert np.abs(ap.x_star - mean).max() <= 1e-9

    def test_scalar_poisson_root_oracle(self):
        g = poisson_iid_model([2.0], fixed=True)
        ap = Engine(g).gaussian_approximation(np.zeros(0))
        root = brentq(lambda x: 2.0 - np.exp(x) - x, -5, 5, xtol=1e-14)
        assert ap.x_star[0] == pytest.approx(root, abs=1e-8)
        assert ap.Q_star.to_dense()[0, 0] == pytest.approx(1.0 + np.exp(root), abs=1e-8)

    def test_sum_to_zero_constraint_holds(self):
        rng = np.random.default_rng(3)
        hy = lm.log_precision_hyper("f.prec", 1.0, fixed=True)
        comps = [lm.Rw1Component("f", 6, hy, sum_to_zero=True)]
        y = rng.poisson(2.0, 18).astype(float)
        part = lm.StackPart(y, {"f": lm.index_block(rng.integers(0, 6, 18), 6)}, "obs")
        g = lm.build_stack([part], comps, PoissonLik())
        ap = Engine(g).gaussian_approximation(np.zeros(0))
        assert abs(ap.x_star.sum()) <= 1e-10

    def test_mode_gradient_invariant(self):
        rng = np.random.default_rng(9)
        y = rng.poisson(2.0, 10).astype(float)
        g = poisson_iid_model(y, fixed=True)
        engine = Engine(g)
        ap = engine.gaussian_approximation(np.zeros(0))
        eta = g.A @ ap.x_star
        d1, _ = g.likelihood.derivs(y, eta, None)
        Qp = g.prior_quantities(np.zeros(0))[0]
        grad = g.A.T @ d1 - Qp @ ap.x_star
        assert np.abs(grad).max() <= 1e-6 * (1.0 + np.abs(ap.x_star).max())


class TestLogPosteriorTheta:
    def test_conjugate_differences_match_evidence(self):
        g, idx, y, pp = conjugate_model()
        oracle = conjugate_logpost(g, idx, y, pp)
        engine = Engine(g)
        vals = [-0.5, 0.0, 0.7]
        for a in vals:
            for b in vals:
                got = engine.log_posterior(np.array([a])) - engine.log_posterior(np.array([b]))
                want = oracle(a) - oracle(b)
                assert got == pytest.approx(want, abs=1e-6)

    def test_latent_permutation_invariance(self):
        rng = np.random.default_rng(13)
        y = rng.poisson(1.5, 6).astype(float)
        g1 = poisson_iid_model(y)
        # same model with shuffled latent index assignment
        hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        perm = np.array([3, 5, 0, 1, 4, 2])
        part = lm.StackPart(np.asarray(y), {"u": lm.index_block(perm, 6)}, "obs")
        g2 = lm.build_stack([part], [lm.IidComponent("u", 6, hy)], PoissonLik())
        th = np.array([0.3])
        assert Engine(g1).log_posterior(th) == pytest.approx(
            Engine(g2).log_posterior(th), abs=1e-10)

    def test_poisson_quadrature_oracle(self):
        y = np.array([2.0, 4.0, 3.0])
        g = poisson_iid_model(y)
        hyper = g.free_hyperparams()[0]
        nodes, weights = np.polynomial.hermite.hermgauss(40)

        def brute(th):
            tau = np.exp(th)
            sd = 1.0 / np.sqrt(tau)
            total = 0.0
            for yi in y:
                xs = np.sqrt(2.0) * sd * nodes
                vals = np.exp(yi * xs - np.exp(xs) - gammaln(yi + 1.0))
                total += np.log((weights / np.sqrt(np.pi)) @ vals)
            return total + hyper.log_prior(th)

        engine = Engine(g)
        for th in (0.0, 0.3, 0.9):
            assert engine.log_posterior(np.array([th])) == pytest.approx(
                brute(th), abs=0.02)

    def test_nested_consistency_across_starts(self):
        rng = np.random.default_rng(17)
        y = rng.poisson(2.0, 12).astype(float)
        g = poisson_iid_model(y)
        engine = Engine(g)
        th = np.array([0.1])
        base = engine.log_posterior(th, return_approx=True)[0]
        for s in (0, 1, 2):
            x0 = rng.normal(0, 2.0, g.n_latent) if s else np.zeros(g.n_latent)
            val = engine.log_posterior(th, return_approx=True, x_init=x0)[0]
            assert val == pytest.approx(base, abs=1e-8)

    def test_constrained_evidence_dense_oracle(self):
        rng = np.random.default_rng(5)
        m, nobs, tau_obs = 12, 40, 3.0
        lik = GaussianLik(HyperParam("o", np.log(tau_obs), "log", fixed=True))
        hyp = lm.log_precision_hyper("rw.prec", 1.0, prior=GaussianPrior(0.0, 0.2))
        idx = rng.integers(0, m, nobs)
        y = np.sin(np.linspace(0, 3, m))[idx] + rng.normal(0, 0.5, nobs)
        part = lm.StackPart(y, {"f": lm.index_block(idx, m)}, "obs")
        g = lm.build_stack([part], [lm.Rw1Component("f", m, hyp)], lik)
        A = g.A.toarray()
        U = scipy.linalg.null_space(np.ones((1, m)) / np.sqrt(m))
        R = lm.rw1_structure(m, 1.0).to_dense()

        def oracle(th):
            Qz = U.T @ (np.exp(th) * R) @ U
            cov = A @ U @ np.linalg.inv(Qz) @ U.T @ A.T + np.eye(nobs) / tau_obs
            return multivariate_normal.logpdf(y, np.zeros(nobs), cov) + hyp.log_prior(th)

        engine = Engine(g)
        for th in (-0.5, 0.3, 1.2):
            assert engine.log_posterior(np.array([th])) == pytest.approx(
                oracle(th), abs=1e-8)


class TestThetaGradient:
    """The analytic theta-gradient against tight differences of log_posterior."""

    TIGHT = EngineConfig(newton_tol=1e-12)

    @staticmethod
    def iid_poisson_fixed(seed=21, n=10, nobs=40):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, nobs)
        y = rng.poisson(np.exp(0.6 + rng.normal(0, 0.7, n))[idx]).astype(float)
        hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        part = lm.StackPart(y, {"mu": np.ones(nobs), "u": lm.index_block(idx, n)}, "obs")
        return lm.build_stack([part], [lm.FixedEffect("mu"), lm.IidComponent("u", n, hy)],
                              PoissonLik())

    @staticmethod
    def negative_binomial(seed=44, cells=6):
        from laplgm.latent import LogGammaPrior
        from laplgm.likelihoods import NegBinomialLik
        rng = np.random.default_rng(seed)
        cell = np.repeat(np.arange(cells), 8)
        mu = np.exp(rng.normal(1.0, 0.4, cells))[cell]
        y = rng.negative_binomial(10.0, 10.0 / (10.0 + mu)).astype(float)
        lik = NegBinomialLik(HyperParam("nb.logdisp", np.log(10.0), "log",
                                        LogGammaPrior(10.0, 1.0)))
        hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        part = lm.StackPart(y, {"u": lm.index_block(cell, cells)}, "obs")
        return lm.build_stack([part], [lm.IidComponent("u", cells, hy)], lik)

    @staticmethod
    def rw1_sum_to_zero(lik, y, idx, m):
        # no intercept: one would absorb the constrained direction, and the
        # constraint terms of the gradient would vanish
        hy = lm.log_precision_hyper("f.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        part = lm.StackPart(y, {"f": lm.index_block(idx, m)}, "obs")
        return lm.build_stack([part], [lm.Rw1Component("f", m, hy, sum_to_zero=True)], lik)

    @classmethod
    def gaussian_rw1_sum_to_zero(cls, seed=3, m=6, nobs=18):
        rng = np.random.default_rng(seed)
        lik = GaussianLik(HyperParam("obs.logprec", 0.5, "log", GaussianPrior(0.0, 1.0)))
        idx = rng.integers(0, m, nobs)
        return cls.rw1_sum_to_zero(lik, rng.normal(1.0 + np.sin(idx), 0.7), idx, m)

    @classmethod
    def poisson_rw1_sum_to_zero(cls, seed=8, m=6, nobs=24):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, m, nobs)
        y = rng.poisson(np.exp(0.8 + 0.5 * np.sin(idx))).astype(float)
        return cls.rw1_sum_to_zero(PoissonLik(), y, idx, m)

    @staticmethod
    def ar1_grouped_spde(seed=15, T=3, n_sites=7):
        import laplgm.mesh as mm
        rng = np.random.default_rng(seed)
        mesh = mm.structured_mesh(0, 1, 0, 1, 3, 3)
        spde = lm.spde_matern_component(
            "s", mm.assemble(mesh), mesh, alpha=2, initial_range=0.5,
            grouping=lm.Ar1Grouping(T, lm.correlation_hyper("s.a")))
        proj = mm.projector(mesh, rng.random((n_sites, 2)))
        block = lm.group_block(proj[np.tile(np.arange(n_sites), T)],
                               np.repeat(np.arange(T), n_sites), T)
        y = rng.poisson(2.0, n_sites * T).astype(float)
        part = lm.StackPart(y, {"mu": np.ones(n_sites * T), "s": block}, "obs")
        return lm.build_stack([part], [lm.FixedEffect("mu"), spde], PoissonLik())

    MODELS = ["iid_poisson_fixed", "negative_binomial", "gaussian_rw1_sum_to_zero",
              "poisson_rw1_sum_to_zero", "ar1_grouped_spde"]

    def tight_log_posterior(self, g):
        """log_posterior on a fresh engine per theta: no warm start, Newton to 1e-12."""
        return lambda th: Engine(g, self.TIGHT).log_posterior(np.asarray(th, dtype=float))

    @staticmethod
    def central_gradient(f, theta, h=1e-4):
        out = np.zeros(theta.size)
        for j in range(theta.size):
            e = np.zeros(theta.size)
            e[j] = h
            out[j] = (f(theta + e) - f(theta - e)) / (2.0 * h)
        return out

    @staticmethod
    def central_hessian(f, x, step):
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

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("offset", [-0.4, 0.3])
    def test_matches_tight_central_difference(self, model, offset):
        g = getattr(self, model)()
        theta = g.theta_initial() + offset
        engine = Engine(g, self.TIGHT)
        _, approx = engine.log_posterior(theta, return_approx=True)
        got = engine.log_posterior_gradient(approx)
        want = self.central_gradient(self.tight_log_posterior(g), theta)
        assert np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max())
        assert engine.counts["gradients"] == 1

    @pytest.mark.parametrize("model, prior_hypers", [
        ("negative_binomial", 1), ("gaussian_rw1_sum_to_zero", 1), ("ar1_grouped_spde", 3)])
    def test_prior_quantities_only_for_prior_hyperparameters(self, model, prior_hypers,
                                                             monkeypatch):
        # a likelihood hyperparameter leaves Q(theta) as it is: its difference
        # needs no prior quantities
        g = getattr(self, model)()
        engine = Engine(g, self.TIGHT)
        _, approx = engine.log_posterior(g.theta_initial(), return_approx=True)
        calls = []
        real = g.prior_quantities
        monkeypatch.setattr(g, "prior_quantities", lambda th: calls.append(th) or real(th))
        engine.log_posterior_gradient(approx)
        assert len(calls) == 2 * prior_hypers

    def test_conjugate_closed_form(self):
        g, idx, y, pp = conjugate_model()
        oracle = conjugate_logpost(g, idx, y, pp)
        engine = Engine(g)
        h = 1e-4
        for t in (-0.8, 0.1, 1.3):
            _, approx = engine.log_posterior(np.array([t]), return_approx=True)
            got = engine.log_posterior_gradient(approx)[0]
            want = (oracle(t + h) - oracle(t - h)) / (2.0 * h)
            assert got == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("model", MODELS)
    def test_mode_hessian_against_tight_reference(self, model):
        g = getattr(self, model)()
        engine = Engine(g)
        bfgs_gradients = []
        real = eng._maximize

        def counted(f, x0, grad, *args):
            return real(f, x0, lambda x: bfgs_gradients.append(1) or grad(x), *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eng, "_maximize", counted)
            theta_star, H, _ = engine.find_mode()
        p = theta_star.size
        # one gradient per accepted BFGS point and one probe per
        # hyperparameter, since BFGS ends with a gradient at theta*
        assert engine.counts["gradients"] == len(bfgs_gradients) + p
        ref = self.central_hessian(self.tight_log_posterior(g), theta_star, 1e-3)
        got, want = np.linalg.slogdet(-H), np.linalg.slogdet(-0.5 * (ref + ref.T))
        assert got[0] == want[0] == 1
        assert got[1] == pytest.approx(want[1], rel=1e-3, abs=1e-3)

    @pytest.mark.parametrize("model", MODELS)
    def test_one_sided_hessian_against_central(self, model):
        # the forward difference at h against central differences at h / 10,
        # both of analytic gradients probed from the center
        engine = Engine(getattr(self, model)())
        theta_star, H, (_, _, center) = engine.find_mode()
        p = theta_star.size
        h = eng.HESS_DIFF_STEP / 10
        ref = np.zeros((p, p))
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            up, dn = (engine.log_posterior_gradient(
                engine.log_posterior(th, start=center, return_approx=True)[1])
                for th in (theta_star + e, theta_star - e))
            ref[:, j] = (up - dn) / (2.0 * h)
        ref = 0.5 * (ref + ref.T)
        assert np.abs(H - ref).max() <= 1e-4 * np.abs(ref).max()


class TestFindMode:
    def test_conjugate_mode_matches_golden_section(self):
        g, idx, y, pp = conjugate_model()
        oracle = conjugate_logpost(g, idx, y, pp)
        theta_star, H, _ = Engine(g).find_mode()
        res = minimize_scalar(lambda t: -oracle(t), bounds=(-3, 3), method="bounded",
                              options={"xatol": 1e-10})
        assert theta_star[0] == pytest.approx(res.x, abs=1e-3)
        assert H[0, 0] < 0

    def test_quadratic_synthetic_exact(self):
        target = np.array([1.0, -2.0])

        def f(x):
            d = x - target
            return -0.5 * (3.0 * d[0] ** 2 + 0.5 * d[1] ** 2 + d[0] * d[1])

        def grad(x):
            d = x - target
            return -np.array([3.0 * d[0] + 0.5 * d[1], 0.5 * d[1] + 0.5 * d[0]])

        x, fval, evals, converged = eng._maximize(f, np.zeros(2), grad=grad,
                                                  budget=200, grad_tol=1e-8)
        assert converged
        assert np.abs(x - target).max() <= 1e-6
        assert evals <= 5 * 13  # a handful of iterations

    def test_interpolating_backtrack_after_overshoot(self):
        # the first step, capped at BFGS_MAX_STEP, lands far past the
        # maximizer; halving from there takes 13 evaluations in all
        target = np.array([0.4, -0.3])

        def f(x):
            d = x - target
            return -float(np.sum(8.0 * d**2 + np.exp(d) - d))

        def grad(x):
            d = x - target
            return -(16.0 * d + np.exp(d) - 1.0)

        assert np.abs(grad(np.zeros(2))).max() > eng.BFGS_MAX_STEP
        x, fval, evals, _ = eng._maximize(f, np.zeros(2), grad=grad, budget=200, grad_tol=1e-8)
        assert np.abs(grad(x)).max() <= 1e-8
        assert np.abs(x - target).max() <= 1e-8
        assert evals <= 9

    TARGET, NEG_HESSIAN = np.array([1.0, -2.0]), np.array([[3.0, 0.5], [0.5, 0.5]])

    @classmethod
    def quadratic(cls):
        """f = -(x - TARGET)' NEG_HESSIAN (x - TARGET) / 2 and its gradient."""
        def f(x):
            d = x - cls.TARGET
            return -0.5 * float(d @ cls.NEG_HESSIAN @ d)

        return f, lambda x: -cls.NEG_HESSIAN @ (x - cls.TARGET)

    def test_exact_metric_takes_the_newton_step(self):
        # with the negative Hessian as its metric, BFGS's first step is
        # Newton's and lands on the maximizer: no trial is rejected
        f, grad = self.quadratic()
        calls = []
        x, fval, evals, converged = eng._maximize(
            f, np.zeros(2), grad, 200, 1e-8, lambda x: calls.append(x) or self.NEG_HESSIAN)
        assert len(calls) == 1 and np.array_equal(calls[0], np.zeros(2))
        assert evals == 2 and converged
        assert np.abs(x - self.TARGET).max() <= 1e-12

    def test_zero_metric_falls_back_to_identity(self):
        f, grad = self.quadratic()
        plain = eng._maximize(f, np.zeros(2), grad, 200, 1e-8)
        zero = eng._maximize(f, np.zeros(2), grad, 200, 1e-8, lambda x: np.zeros((2, 2)))
        assert np.array_equal(plain[0], zero[0]) and plain[1:] == zero[1:]

    def test_unconverged_ways_out(self, monkeypatch):
        f, grad = self.quadratic()
        # a line search that accepts no trial
        x0 = np.zeros(2)
        x, _, evals, converged = eng._maximize(
            lambda x: f(x) if np.array_equal(x, x0) else -np.inf, x0, grad, 200, 1e-8)
        assert not converged and np.array_equal(x, x0) and evals == 26
        # the iteration cap
        monkeypatch.setattr(eng, "BFGS_MAX_ITER", 1)
        assert not eng._maximize(f, x0, grad, 200, 1e-8)[3]
        assert eng._maximize(f, x0, grad, 200, 1e-8, lambda x: self.NEG_HESSIAN)[3]

    @pytest.mark.parametrize("way", ["iteration_cap", "line_search"])
    def test_unconverged_mode_search_counted(self, monkeypatch, way):
        g = TestOnePass.two_hyper_model()
        engine = Engine(g)
        engine.find_mode()
        assert engine.counts["mode_unconverged"] == 0
        if way == "iteration_cap":
            monkeypatch.setattr(eng, "BFGS_MAX_ITER", 1)
        else:
            real = eng._maximize

            def nothing_accepted(f, x0, *args):
                return real(lambda x: f(x) if np.array_equal(x, x0) else -np.inf, x0, *args)

            monkeypatch.setattr(eng, "_maximize", nothing_accepted)
        engine = Engine(g)
        theta_star, H, center = engine.find_mode()
        assert engine.counts["mode_unconverged"] == 1
        assert np.isfinite(H).all() and center is not None
        if way == "line_search":
            assert np.array_equal(theta_star, g.theta_initial())

    def test_gauss_newton_start_saves_factorizations(self, monkeypatch):
        g = TestThetaGradient.ar1_grouped_spde()
        gauss_newton = Engine(g)
        _, _, (_, _, center) = gauss_newton.find_mode()
        real = eng._maximize
        monkeypatch.setattr(eng, "_maximize", lambda f, x0, grad, budget, tol, metric:
                            real(f, x0, grad, budget, tol))
        identity = Engine(g)
        identity.find_mode()
        assert gauss_newton.counts["factorizations"] <= identity.counts["factorizations"]
        gradient = gauss_newton.log_posterior_gradient(center)
        assert np.abs(gradient).max() <= eng.MODE_GRAD_TOL

    @pytest.mark.parametrize("model, psi", [("gaussian_rw1_sum_to_zero", "obs.logprec"),
                                            ("negative_binomial", "nb.logdisp")])
    def test_metric_splits_off_likelihood_hyperparameter(self, monkeypatch, model, psi):
        g = getattr(TestThetaGradient, model)()
        real = eng._maximize
        seen = []

        def spying(f, x0, grad, budget, tol, metric):
            return real(f, x0, grad, budget, tol, lambda x: seen.append(metric(x)) or seen[-1])

        monkeypatch.setattr(eng, "_maximize", spying)
        Engine(g).find_mode()
        (B,) = seen
        j = g.theta_names().index(psi)
        others = np.arange(B.shape[0]) != j
        assert B[j, j] > 0
        assert not B[j, others].any() and not B[others, j].any()
        assert (np.linalg.eigvalsh(B[np.ix_(others, others)]) > 0).all()

    def test_zero_hyper_degenerates(self):
        g = poisson_iid_model([1.0, 2.0], fixed=True)
        engine = Engine(g)
        theta_star, H, center = engine.find_mode()
        assert theta_star.size == 0 and center is None
        nodes = engine.explore(theta_star, H, "eb", center)
        assert len(nodes) == 1


class TestExplore:
    def test_eb_single_node_at_mode(self):
        g, *_ = conjugate_model()
        engine = Engine(g)
        ts, H, center = engine.find_mode()
        nodes = engine.explore(ts, H, "eb", center)
        assert len(nodes) == 1
        assert np.array_equal(nodes[0].theta, ts)
        assert nodes[0].weight == 1.0

    def test_grid_symmetric_and_contains_mode(self):
        g, *_ = conjugate_model()
        engine = Engine(g)
        ts, H, center = engine.find_mode()
        nodes = engine.explore(ts, H, "grid", center)
        offsets = sorted(round(float(nd.theta[0] - ts[0]), 10) for nd in nodes)
        assert 0.0 in offsets
        assert offsets == sorted(-o for o in offsets)
        assert any(np.array_equal(nd.theta, ts) for nd in nodes)

    def test_ccd_design_size_p2(self):
        rng = np.random.default_rng(2)
        y = rng.poisson(2.0, 20).astype(float)
        hy1 = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        hy2 = lm.log_precision_hyper("v.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        comps = [lm.IidComponent("u", 10, hy1), lm.IidComponent("v", 10, hy2)]
        part = lm.StackPart(y, {"u": lm.index_block(rng.integers(0, 10, 20), 10),
                                "v": lm.index_block(rng.integers(0, 10, 20), 10)}, "obs")
        g = lm.build_stack([part], comps, PoissonLik())
        engine = Engine(g)
        ts, H, center = engine.find_mode()
        nodes = engine.explore(ts, H, "ccd", center)
        assert len(nodes) == 9  # 4 factorial + 4 star + center
        assert nodes[0].weight == pytest.approx(1.0 / 9.0)

    @pytest.mark.parametrize("p, rows", [(1, 5), (2, 9), (3, 15), (4, 25), (5, 27), (6, 45)])
    def test_ccd_design_rows_in_order(self, p, rows):
        Z, w = eng.ccd_design(p)
        assert Z.shape == (rows, p) and w.shape == (rows,)
        corners = [c for c in itertools.product((-1.0, 1.0), repeat=p)
                   if p < 5 or np.prod(c) > 0]
        axial = [s * np.sqrt(p) * e for e in np.eye(p) for s in (-1.0, 1.0)]
        assert np.array_equal(Z, np.vstack([np.zeros((1, p)), corners, axial]))

    @pytest.mark.parametrize("p", range(1, 7))
    def test_ccd_design_unit_weights_no_negative_zero(self, p):
        Z, w = eng.ccd_design(p)
        assert np.array_equal(w, np.ones(len(Z)))
        assert not np.signbit(Z[Z == 0.0]).any()

    @pytest.mark.parametrize("strategy", ["ccd", "grid", "eb"])
    def test_nodes_carry_their_design_points(self, strategy):
        engine = Engine(TestOnePass.two_hyper_model())
        ts, H, center = engine.find_mode()
        nodes = engine.explore(ts, H, strategy, center)
        assert np.array_equal(nodes[0].z, np.zeros(2))
        assert np.array_equal(nodes[0].theta, ts)
        if strategy == "ccd":
            assert np.array_equal(np.array([nd.z for nd in nodes]), eng.ccd_design(2)[0])
        # z is standardized: |z|^2 is theta's squared distance in the metric of -H
        for nd in nodes:
            d = nd.theta - ts
            assert float(d @ -H @ d) == pytest.approx(float(nd.z @ nd.z), rel=1e-9, abs=1e-12)

    def test_grid_evaluates_each_design_point_once(self, monkeypatch):
        # the axis walks and the box share their points, -0.0 or not
        engine = Engine(TestOnePass.two_hyper_model())
        ts, H, center = engine.find_mode()
        real = Engine.log_posterior
        evaluated = []

        def counted(self, theta, *args, **kwargs):
            evaluated.append(np.array(theta, dtype=float).tobytes())
            return real(self, theta, *args, **kwargs)

        monkeypatch.setattr(Engine, "log_posterior", counted)
        nodes = engine.explore(ts, H, "grid", center)
        assert len(set(evaluated)) == len(evaluated)
        assert len({nd.z.tobytes() for nd in nodes}) == len(nodes)
        assert not any(np.signbit(nd.z[nd.z == 0.0]).any() for nd in nodes)
        # every node but the center, and every dropped point, is one evaluation
        assert engine.counts["nodes_dropped"] >= 4
        assert len(evaluated) == len(nodes) - 1 + engine.counts["nodes_dropped"]

    def test_weights_equal_and_normalized(self):
        g, *_ = conjugate_model()
        engine = Engine(g)
        ts, H, center = engine.find_mode()
        for strategy in ("grid", "ccd", "eb"):
            nodes = engine.explore(ts, H, strategy, center)
            w = [nd.weight for nd in nodes]
            assert np.allclose(w, w[0])
            assert sum(w) == pytest.approx(1.0)


class TestHyperMarginals:
    def test_conjugate_total_variation(self):
        g, idx, y, pp = conjugate_model()
        cfg = EngineConfig(int_strategy="grid", log_drop=5.0)
        engine = Engine(g, cfg)
        ts, H, center = engine.find_mode()
        nodes = engine.explore(ts, H, "grid", center)
        m = eng.hyper_marginals(nodes, 0, ts, H)
        assert m.integral() == pytest.approx(1.0, abs=1e-6)

        oracle = conjugate_logpost(g, idx, y, pp)
        sd = np.sqrt(np.linalg.inv(-H)[0, 0])
        grid = np.linspace(ts[0] - 6 * sd, ts[0] + 6 * sd, 2000)
        lp = np.array([oracle(t) for t in grid])
        dens = np.exp(lp - lp.max())
        dens /= np.trapezoid(dens, grid)
        interp = np.interp(grid, m.grid, m.density, left=0.0, right=0.0)
        tv = 0.5 * np.trapezoid(np.abs(interp - dens), grid)
        assert tv <= 0.01

    def test_mode_within_one_grid_step(self):
        g, *_ = conjugate_model()
        engine = Engine(g, EngineConfig(int_strategy="grid"))
        ts, H, center = engine.find_mode()
        nodes = engine.explore(ts, H, "grid", center)
        m = eng.hyper_marginals(nodes, 0, ts, H)
        step = np.sqrt(np.linalg.inv(-H)[0, 0])
        assert abs(mg.marginal_mode(m) - ts[0]) <= step

    def test_coordinate_marginal_is_unit_lincomb(self):
        # p > 1: the marginal of theta_j is that of e_j'theta + 0, bit for bit
        rng = np.random.default_rng(3)
        p = 3
        B = rng.normal(size=(p, p))
        H = -(B @ B.T + p * np.eye(p))
        ts = rng.normal(size=p)
        nodes = [eng.ThetaNode(ts + 0.5 * rng.normal(size=p), -3.0 * rng.random(), 1.0)
                 for _ in range(15)]
        for j in range(p):
            m = eng.hyper_marginals(nodes, j, ts, H)
            e = np.zeros(p)
            e[j] = 1.0
            ref = eng.hyper_lincomb_marginal(nodes, e, 0.0, ts, H)
            assert np.array_equal(m.grid, ref.grid)
            assert np.array_equal(m.density, ref.density)


class TestLatentMarginals:
    def test_gaussian_eb_matches_dense_conditional(self):
        rng = np.random.default_rng(23)
        n, nobs, tau_obs = 20, 45, 1.7
        lik = GaussianLik(HyperParam("o", np.log(tau_obs), "log", fixed=True))
        hy = lm.log_precision_hyper("u.prec", 0.8, fixed=True)
        idx = rng.integers(0, n, nobs)
        y = rng.normal(0.3, 1.0, nobs)
        part = lm.StackPart(y, {"u": lm.index_block(idx, n)}, "obs")
        g = lm.build_stack([part], [lm.IidComponent("u", n, hy)], lik)
        fit = eng.fit(g, EngineConfig(int_strategy="eb"))
        marginals = [fit.latent_marginal(i) for i in range(n)]
        A = g.A.toarray()
        Qpost = 0.8 * np.eye(n) + tau_obs * A.T @ A
        mean = np.linalg.solve(Qpost, tau_obs * A.T @ y)
        sd = np.sqrt(np.diag(np.linalg.inv(Qpost)))
        for i, m in enumerate(marginals):
            z = mg.zmarginal(m)
            assert z.mean == pytest.approx(mean[i], abs=1e-6)
            assert z.sd == pytest.approx(sd[i], abs=1e-6)

    def test_identical_nodes_collapse_to_single_gaussian(self):
        means = np.array([0.7])
        sds = np.array([0.4])
        mix = mg.mixture_marginal(np.repeat(means, 3), np.repeat(sds, 3), np.ones(3) / 3)
        single = mg.mixture_marginal(means, sds, np.ones(1))
        assert np.allclose(mix.density, single.density)

    def test_mixture_mean_is_weighted_mean(self):
        rng = np.random.default_rng(31)
        y = rng.poisson(2.0, 10).astype(float)
        g = poisson_iid_model(y)
        engine = Engine(g, EngineConfig(int_strategy="grid"))
        ts, H, center = engine.find_mode()
        nodes = engine.explore(ts, H, "grid", center)
        quants = [engine.node_quantities(nd.theta) for nd in nodes]
        w = eng.node_weights(nodes)
        means = np.stack([q["x_star"] for q in quants])
        sds = np.stack([q["latent_sd"] for q in quants])
        for i in (0, 4, 9):
            m = mg.mixture_marginal(means[:, i], sds[:, i], w, points=401, span=8.0)
            assert mg.emarginal(lambda x: x, m) == pytest.approx(
                float(w @ means[:, i]), abs=1e-8)


def dense_constrained_conditional(g, theta):
    """Mode and covariance of the Gaussian approximation to a Poisson model's
    latent conditional at theta on M x = e: dense Newton steps on the KKT
    system, then Q*^-1 corrected for the constraint."""
    Q = g.prior_quantities(theta)[0].toarray()
    A = g.A[g.observed].toarray()
    y = g.y[g.observed]
    M, e = g.constraint_matrix, g.constraint_rhs
    n, k = Q.shape[0], M.shape[0]

    def curvature(x):
        mu = np.exp(A @ x)
        return mu, Q + A.T @ (mu[:, None] * A)

    x = np.zeros(n)
    for _ in range(50):
        mu, H = curvature(x)
        K = np.block([[H, M.T], [M, np.zeros((k, k))]])
        step = np.linalg.solve(K, np.concatenate([A.T @ (y - mu) - Q @ x, e - M @ x]))[:n]
        x = x + step
        if np.abs(step).max() <= 1e-15 * (1.0 + np.abs(x).max()):
            break
    cov = np.linalg.inv(curvature(x)[1])
    return x, cov - cov @ M.T @ np.linalg.solve(M @ cov @ M.T, M @ cov)


class TestLinearCombinations:
    """A linear combination B x is a predictor row with no observation
    (Martins et al. 2013): a stack part with y = NaN whose blocks are B's
    columns, read from the nodes like every other row."""

    def test_unit_vector_matches_latent(self):
        rng = np.random.default_rng(3)
        y = rng.poisson(2.0, 8).astype(float)
        hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        obs = lm.StackPart(y, {"u": lm.index_block(range(8), 8)}, "obs")
        lc = lm.StackPart(np.full(1, np.nan), {"u": lm.index_block([3], 8)}, "lc")
        g = lm.build_stack([obs, lc], [lm.IidComponent("u", 8, hy)], PoissonLik())
        row = g.tags["lc"][0]
        for strategy in ("eb", "ccd", "grid"):
            fit = eng.fit(g, EngineConfig(int_strategy=strategy))
            # the unobserved row adds no work to the fit
            assert fit.counts == eng.fit(poisson_iid_model(y),
                                         EngineConfig(int_strategy=strategy)).counts
            got, want = fit.predictor_marginal(row), fit.latent_marginal(3)
            assert np.abs(got.grid - want.grid).max() <= 1e-12
            assert np.abs(got.density - want.density).max() <= 1e-12

    def test_independent_blocks_variances_add(self):
        rng = np.random.default_rng(8)
        tau_obs = 2.0
        lik = GaussianLik(HyperParam("o", np.log(tau_obs), "log", fixed=True))
        hy1 = lm.log_precision_hyper("u.prec", 1.0, fixed=True)
        hy2 = lm.log_precision_hyper("v.prec", 2.0, fixed=True)
        comps = [lm.IidComponent("u", 4, hy1), lm.IidComponent("v", 4, hy2)]
        y = rng.normal(0, 1, 16)
        part = lm.StackPart(y, {"u": lm.index_block(rng.integers(0, 4, 16), 4),
                                "v": lm.index_block(rng.integers(0, 4, 16), 4)}, "obs")
        B = np.zeros((3, 8))
        B[0, 1] = 1.0
        B[1, 5] = 1.0
        B[2, 1] = 1.0
        B[2, 5] = 1.0
        lc = lm.StackPart(np.full(3, np.nan), {"u": B[:, :4], "v": B[:, 4:]}, "lc")
        g = lm.build_stack([part, lc], comps, lik)
        fit = eng.fit(g, EngineConfig(int_strategy="eb"))
        rows = list(g.tags["lc"])
        # both blocks share observation rows: the dense conditional covariance
        # holds the cross term of the sum
        A = g.A[g.observed].toarray()
        Qpost = np.diag([1.0] * 4 + [2.0] * 4) + tau_obs * A.T @ A
        cov = np.linalg.inv(Qpost)
        want_sd = np.sqrt([cov[1, 1], cov[5, 5], cov[1, 1] + cov[5, 5] + 2 * cov[1, 5]])
        assert np.abs(fit.pred_sd_post[rows] - want_sd).max() <= 1e-10
        want_mean = B @ np.linalg.solve(Qpost, tau_obs * A.T @ y)
        assert np.abs(fit.pred_mean_post[rows] - want_mean).max() <= 1e-10

    def test_trend_extraction_pattern(self):
        # intercept + rw1 bins: one combination per bin value, each node's
        # moments against the dense conditional on the sum-to-zero constraint
        rng = np.random.default_rng(4)
        T = 60
        hy = lm.log_precision_hyper("f.prec", 100.0)
        comps = [lm.FixedEffect("intercept"), lm.Rw1Component("f", T, hy)]
        times = np.tile(np.arange(T), 3)
        y = rng.poisson(np.exp(0.5 + 0.4 * np.sin(times / 8.0))).astype(float)
        part = lm.StackPart(y, {"intercept": np.ones(y.size),
                                "f": lm.index_block(times, T)}, "obs")
        trend = lm.StackPart(np.full(T, np.nan), {"intercept": np.ones(T),
                                                  "f": lm.index_block(np.arange(T), T)},
                             "trend")
        g = lm.build_stack([part, trend], comps, PoissonLik())
        fit = eng.fit(g)
        rows = np.array(g.tags["trend"])
        B = g.A[rows].toarray()
        assert len(fit.nodes) > 1
        for nd in fit.nodes:
            x, cov = dense_constrained_conditional(g, nd.theta)
            q = nd.quantities
            assert np.abs(q["pred_mean"][rows] - B @ x).max() <= 1e-8
            want_sd = np.sqrt(np.einsum("rn,nm,rm->r", B, cov, B))
            assert np.abs(q["pred_sd"][rows] - want_sd).max() <= 1e-8
            # the trend is blind to the constraint; the field alone is not
            assert np.abs(q["latent_sd"] - np.sqrt(np.diag(cov))).max() <= 1e-8
        for r in rows:
            assert fit.predictor_marginal(r).integral() == pytest.approx(1.0, abs=1e-6)


class TestMarginalLikelihood:
    def test_conjugate_evidence(self):
        g, idx, y, pp = conjugate_model()
        oracle = conjugate_logpost(g, idx, y, pp)
        engine = Engine(g)
        ts, H, center = engine.find_mode()
        nodes = engine.explore(ts, H, "grid", center)
        mlik = eng.marginal_likelihood(nodes, H)
        from scipy.integrate import quad
        total, _ = quad(lambda t: np.exp(oracle(t)), -5, 5)
        assert abs(mlik - np.log(total)) <= 0.05

    def test_grid_vs_eb_agree(self):
        g, *_ = conjugate_model()
        engine = Engine(g)
        ts, H, center = engine.find_mode()
        m_grid = eng.marginal_likelihood(engine.explore(ts, H, "grid", center), H)
        m_eb = eng.marginal_likelihood(engine.explore(ts, H, "eb", center), H)
        assert abs(m_grid - m_eb) <= 0.1

    def test_p_zero_equals_log_post(self):
        g = poisson_iid_model([1.0, 3.0], fixed=True)
        engine = Engine(g)
        nodes = engine.explore(np.zeros(0), np.zeros((0, 0)), "eb")
        assert eng.marginal_likelihood(nodes, np.zeros((0, 0))) == nodes[0].log_post

    def test_indefinite_hessian_raises(self):
        # two negative eigenvalues give slogdet(-H) a positive sign: only a
        # Cholesky factor of -H tells H is not negative definite
        from laplgm.errors import ModeSearchFailed
        nodes = [eng.ThetaNode(np.zeros(3), -1.0, 1.0)]
        with pytest.raises(ModeSearchFailed):
            eng.marginal_likelihood(nodes, np.diag([1.0, 2.0, -3.0]))


class TestFit:
    def test_gaussian_identity_rows_predictor_equals_latent(self):
        rng = np.random.default_rng(2)
        n = 10
        lik = GaussianLik(HyperParam("o", np.log(2.0), "log", fixed=True))
        hy = lm.log_precision_hyper("u.prec", 1.0, fixed=True)
        y = rng.normal(0, 1, n)
        part = lm.StackPart(y, {"u": lm.index_block(range(n), n)}, "obs")
        g = lm.build_stack([part], [lm.IidComponent("u", n, hy)], lik)
        fit = eng.fit(g)
        for i in range(n):
            lat = fit.latent_marginal(i)
            pred = fit.predictor_marginal(i)
            assert np.abs(lat.grid - pred.grid).max() <= 1e-10
            assert np.abs(lat.density - pred.density).max() <= 1e-10

    def test_marginals_integrate_to_one(self):
        rng = np.random.default_rng(10)
        y = rng.poisson(1.5, 10).astype(float)
        g = poisson_iid_model(y)
        fit = eng.fit(g, EngineConfig(int_strategy="grid"))
        for i in range(g.n_latent):
            assert fit.latent_marginal(i).integral() == pytest.approx(1.0, abs=1e-6)
        for h in g.free_hyperparams():
            assert fit.hyper_marginal(h.name).integral() == pytest.approx(1.0, abs=1e-6)
        qs = fit.hyper_summary()
        for z in qs.values():
            vals = [z.quantiles[q] for q in mg.SUMMARY_QUANTILES]
            assert np.all(np.diff(vals) >= 0)

    def test_node_quantities_hold_no_factor(self):
        # every node of a fit keeps its dict: no factor in them
        import laplgm.sparse as sps
        g = poisson_iid_model([1.0, 2.0, 0.0, 4.0])
        q = Engine(g).node_quantities(g.theta_initial())
        assert set(q) == {"log_post", "x_star", "latent_sd", "pred_mean", "pred_sd"}
        for value in q.values():
            assert not isinstance(value, (eng.GaussianApprox, sps.CholeskyFactor))

    def test_timings_recorded(self):
        g = poisson_iid_model([1.0, 2.0, 0.0])
        fit = eng.fit(g)
        assert set(fit.timings) == {"preprocessing", "mode_search", "exploration", "solving",
                                    "postprocessing", "total"}
        assert fit.timings["total"] > 0
        assert fit.timings["solving"] == fit.timings["mode_search"] + fit.timings["exploration"]

    def test_negative_binomial_fit(self):
        from laplgm.latent import LogGammaPrior
        from laplgm.likelihoods import NegBinomialLik
        rng = np.random.default_rng(44)
        cells = 6
        cell = np.repeat(np.arange(cells), 8)
        mu = np.exp(rng.normal(1.0, 0.4, cells))[cell]
        y = rng.negative_binomial(10.0, 10.0 / (10.0 + mu)).astype(float)
        lik = NegBinomialLik(HyperParam("nb.logdisp", np.log(10.0), "log",
                                        LogGammaPrior(10.0, 1.0)))
        hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        part = lm.StackPart(y, {"u": lm.index_block(cell, cells)}, "obs")
        g = lm.build_stack([part], [lm.IidComponent("u", cells, hy)], lik)
        fit = eng.fit(g, EngineConfig(int_strategy="ccd"))
        z = fit.hyper_summary()["nb.logdisp"]
        assert z.quantiles[0.025] < z.quantiles[0.975]
        assert fit.hyper_marginal("nb.logdisp").integral() == pytest.approx(1.0, abs=1e-6)

    def test_rw1_grouped_field_fit(self):
        import laplgm.mesh as mm
        rng = np.random.default_rng(15)
        mesh = mm.structured_mesh(0, 1, 0, 1, 3, 3)
        fem = mm.assemble(mesh)
        T = 4
        spde = lm.spde_matern_component("s", fem, mesh, alpha=2, initial_range=0.5,
                                        grouping=lm.Rw1Grouping(T))
        sites = rng.random((6, 2))
        proj = mm.projector(mesh, sites)
        t_idx = np.repeat(np.arange(T), 6)
        block = lm.group_block(proj[np.tile(np.arange(6), T)], t_idx, T)
        y = rng.poisson(1.5, 6 * T).astype(float)
        part = lm.StackPart(y, {"s": block}, "obs")
        g = lm.build_stack([part], [spde], PoissonLik())
        fit = eng.fit(g, EngineConfig(int_strategy="eb"))
        assert np.isfinite(fit.mlik)
        assert fit.latent_marginal(0).integral() == pytest.approx(1.0, abs=1e-6)


class TestFactorReuse:
    """When the chord Newton iteration factorizes Q* and when it reuses a factor."""

    @pytest.fixture
    def count_factorizations(self, monkeypatch):
        calls = []
        real = eng.factorize

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(eng, "factorize", counted)
        return calls

    @staticmethod
    def rw1_model(lik, seed=3, m=6, nobs=18, fixed=True):
        rng = np.random.default_rng(seed)
        hy = lm.log_precision_hyper("f.prec", 1.0, prior=GaussianPrior(0.0, 0.5), fixed=fixed)
        idx = rng.integers(0, m, nobs)
        y = rng.poisson(2.0, nobs).astype(float)
        part = lm.StackPart(y, {"mu": np.ones(nobs), "f": lm.index_block(idx, m)}, "obs")
        return lm.build_stack(
            [part], [lm.FixedEffect("mu"), lm.Rw1Component("f", m, hy, sum_to_zero=True)], lik)

    def test_gaussian_one_factorization(self, count_factorizations):
        rng = np.random.default_rng(7)
        n, nobs = 12, 30
        lik = GaussianLik(HyperParam("o", np.log(2.0), "log", fixed=True))
        hy = lm.log_precision_hyper("u.prec", 1.5, fixed=True)
        idx = rng.integers(0, n, nobs)
        part = lm.StackPart(rng.normal(1.0, 1.0, nobs),
                            {"mu": np.ones(nobs), "u": lm.index_block(idx, n)}, "obs")
        g = lm.build_stack([part], [lm.FixedEffect("mu"), lm.IidComponent("u", n, hy)], lik)
        ap = Engine(g).gaussian_approximation(np.zeros(0))
        assert ap.iterations == 1
        assert len(count_factorizations) == 1

    def test_gaussian_constrained_one_factorization(self, count_factorizations):
        lik = GaussianLik(HyperParam("o", np.log(2.0), "log", fixed=True))
        g = self.rw1_model(lik)
        ap = Engine(g).gaussian_approximation(np.zeros(0))
        assert abs(ap.x_star[1:].sum()) <= 1e-10
        assert len(count_factorizations) == 1

    def test_gaussian_constrained_one_iteration(self, count_factorizations):
        # the increment after its first, exact step ends a constrained
        # Gaussian theta; restarted from that approximation, the converged
        # start takes no step and keeps its factor
        lik = GaussianLik(HyperParam("o", np.log(2.0), "log", fixed=True))
        g = self.rw1_model(lik)
        engine = Engine(g)
        M, e = g.constraint_matrix, g.constraint_rhs
        ap = engine.gaussian_approximation(np.zeros(0))
        assert ap.iterations == 1 and ap.factorizations == 1
        again = engine.gaussian_approximation(np.zeros(0), start=ap)
        assert again.iterations == 0 and again.factorizations == 0
        assert again.factor is ap.factor
        for approx in (ap, again):
            assert np.abs(M @ approx.x_star - e).max() <= 1e-10
        assert len(count_factorizations) == 1

    def test_step_below_tolerance_keeps_factor(self, count_factorizations):
        # restarted at its converged mode without a factor, a constrained
        # Newton iteration factorizes there once and takes no step; with its
        # own approximation as the start it factorizes nothing
        g = self.rw1_model(PoissonLik())
        engine = Engine(g)
        ap = engine.gaussian_approximation(np.zeros(0))
        assert ap.iterations >= 2
        assert ap.factorizations == len(count_factorizations) <= ap.iterations + 1
        del count_factorizations[:]
        again = engine.gaussian_approximation(np.zeros(0), x_init=ap.x_star)
        assert again.iterations == 0
        assert np.array_equal(again.x_star, ap.x_star)
        assert len(count_factorizations) == again.factorizations == 1
        del count_factorizations[:]
        warm = engine.gaussian_approximation(np.zeros(0), start=ap)
        assert warm.iterations == 0 and warm.factor is ap.factor
        assert not count_factorizations

    def test_revisited_theta_restarts_from_its_mode(self, count_factorizations):
        rng = np.random.default_rng(9)
        g = poisson_iid_model(rng.poisson(2.0, 10).astype(float))
        engine = Engine(g)
        th = np.array([0.4])
        lp, first = engine.log_posterior(th, return_approx=True)
        engine.log_posterior(np.array([-0.3]), start=first)
        # restarted at its mode with no factor: one factorization, no step
        del count_factorizations[:]
        lp2, ap = engine.log_posterior(th, x_init=first.x_star, return_approx=True)
        assert len(count_factorizations) == 1
        assert ap.iterations == 0
        assert lp2 == pytest.approx(lp, abs=1e-9)
        # started from that approximation, a second visit factorizes nothing
        del count_factorizations[:]
        lp3, ap3 = engine.log_posterior(th, start=ap, return_approx=True)
        assert not count_factorizations and ap3.factor is ap.factor
        assert lp3 == lp2

    @pytest.mark.parametrize("constrained", [False, True])
    def test_probe_from_converged_center_one_factorization(self, count_factorizations,
                                                           constrained):
        if constrained:
            g = self.rw1_model(PoissonLik(), fixed=False)
        else:
            g = poisson_iid_model(np.random.default_rng(9).poisson(2.0, 10).astype(float))
        engine = Engine(g)
        center = np.array([0.4])
        _, start = engine.log_posterior(center, return_approx=True)
        for h in (1e-4, -1e-4, 1e-3):
            del count_factorizations[:]
            engine.log_posterior(center + h, start=start)
            assert len(count_factorizations) == 1

    def test_far_jump_refactorizes_after_failed_stale_step(self, count_factorizations):
        rng = np.random.default_rng(9)
        y = rng.poisson(2.0, 10).astype(float)
        g = poisson_iid_model(y)
        engine = Engine(g)
        center, far = np.array([-3.0]), np.array([4.0])
        _, start = engine.log_posterior(center, return_approx=True)
        # the step with the center's factor lowers the objective at the far theta
        Qp = g.prior_quantities(far)[0]
        d1, _ = g.likelihood.derivs(y, g.A @ start.x_star)
        stale = engine._newton_point(start, start.x_star, g.A.T @ d1 - Qp @ start.x_star)
        assert (engine._penalized_objective(stale, Qp, None)
                < engine._penalized_objective(start.x_star, Qp, None))
        del count_factorizations[:]
        ap = engine.gaussian_approximation(far, start=start)
        # one factorization after the failed trial, whose factor then carries
        # every step, and one at the mode
        assert ap.factorizations == len(count_factorizations) == 2
        assert np.array_equal(ap.theta, far)
        cold = engine.gaussian_approximation(far)
        assert np.abs(ap.x_star - cold.x_star).max() <= 1e-7
        d1, _ = g.likelihood.derivs(y, g.A @ ap.x_star)
        assert np.abs(g.A.T @ d1 - Qp @ ap.x_star).max() <= 1e-7

    @pytest.mark.parametrize("constrained", [False, True])
    def test_factor_logdet_at_returned_mode(self, constrained):
        if constrained:
            g = self.rw1_model(PoissonLik(), fixed=False)
        else:
            g = poisson_iid_model(np.random.default_rng(9).poisson(2.0, 10).astype(float))
        engine = Engine(g)
        engine.log_posterior(np.array([0.4]))
        for th in (np.array([0.4 + 1e-4]), np.array([1.1]), np.array([-0.5])):
            _, ap = engine.log_posterior(th, return_approx=True)
            A = g.A.toarray()
            _, d2 = g.likelihood.derivs(g.y, A @ ap.x_star)
            Q_star = g.prior_quantities(th)[0].toarray() + A.T @ np.diag(-d2) @ A
            sign, logdet = np.linalg.slogdet(Q_star)
            assert sign > 0
            assert ap.factor.logdet == pytest.approx(logdet, rel=1e-12, abs=1e-10)
            assert np.allclose(ap.Q_star.to_dense(), Q_star, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("step", [1e-4, 0.5, -0.8])
    def test_center_start_matches_cold_start(self, step):
        g = self.rw1_model(PoissonLik(), fixed=False)
        engine = Engine(g)
        center = np.array([0.2])
        _, start = engine.log_posterior(center, return_approx=True)
        th = center + step
        warm = engine.log_posterior(th, start=start)
        cold = engine.log_posterior(th, x_init=np.zeros(g.n_latent))
        assert warm == pytest.approx(cold, abs=1e-8)

    @staticmethod
    def gaussian_rw1_spde(seed=4, T=4, n_sites=6):
        """Gaussian rw1 trend (sum to zero) plus a replicated SPDE field."""
        import laplgm.mesh as mm
        rng = np.random.default_rng(seed)
        mesh = mm.structured_mesh(0, 1, 0, 1, 4, 4)
        spde = lm.spde_matern_component("s", mm.assemble(mesh), mesh, alpha=2,
                                        initial_range=0.5, grouping=lm.ReplicateGrouping(T))
        t_idx = np.repeat(np.arange(T), n_sites)
        block = lm.group_block(mm.projector(mesh, rng.random((n_sites, 2)))[
            np.tile(np.arange(n_sites), T)], t_idx, T)
        hy = lm.log_precision_hyper("t.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        lik = GaussianLik(HyperParam("o", np.log(4.0), "log", GaussianPrior(0.0, 1.0)))
        part = lm.StackPart(rng.normal(1.0 + np.sin(t_idx), 0.5),
                            {"mu": np.ones(t_idx.size), "t": lm.index_block(t_idx, T),
                             "s": block}, "obs")
        return lm.build_stack(
            [part], [lm.FixedEffect("mu"), lm.Rw1Component("t", T, hy), spde], lik)

    def test_gaussian_theta_one_newton_solve(self, monkeypatch):
        # the full step from a factor at x is a Gaussian theta's mode: one
        # Newton solve per theta evaluation, and the same x* and log
        # posterior, bit for bit, as a second iteration that checks it
        g = self.gaussian_rw1_spde()
        points = []
        real = Engine._newton_point

        def counted(self, *args):
            points.append(1)
            return real(self, *args)

        monkeypatch.setattr(Engine, "_newton_point", counted)
        fit = eng.fit(g, EngineConfig(int_strategy="ccd"))
        assert len(points) == fit.counts["theta_evals"] == fit.counts["factorizations"]
        engine = Engine(g)
        theta = g.theta_initial() + np.array([0.3, -0.2, 0.4, 0.1])
        del points[:]
        lp, ap = engine.log_posterior(theta, return_approx=True)
        assert len(points) == 1 and ap.iterations == 1
        # a likelihood not known to have fixed curvature checks the step
        monkeypatch.setattr(g.likelihood, "fixed_curvature", False)
        del points[:]
        lp2, ap2 = engine.log_posterior(theta, return_approx=True)
        assert len(points) == 2 and ap2.iterations == 1
        assert lp == lp2 and np.array_equal(ap.x_star, ap2.x_star)

    def test_fit_counts(self, count_factorizations):
        g = self.rw1_model(PoissonLik(), fixed=False)
        fit = eng.fit(g, EngineConfig(int_strategy="ccd"))
        assert fit.counts["factorizations"] == len(count_factorizations)
        assert fit.counts["theta_evals"] >= len(fit.nodes)
        assert fit.counts["newton_iterations"] >= 1


class TestPredictedStart:
    """Newton starts at x*(theta0) + dx (theta - theta0), dx = dx*/dtheta of the gradient."""

    @pytest.mark.parametrize("constrained", [False, True])
    def test_design_log_posterior_start_independent(self, constrained):
        if constrained:
            g = TestFactorReuse.rw1_model(PoissonLik(), fixed=False)
        else:
            g = TestOnePass.two_hyper_model()
        engine = Engine(g)
        theta_star, H, center = engine.find_mode()
        nodes = engine.explore(theta_star, H, "ccd", center)
        assert len(nodes) == 1 + 2 * theta_star.size + 2 ** theta_star.size
        start = center[2]
        for nd in nodes[1:]:
            # explore starts each design point from the center
            assert abs(engine.log_posterior(nd.theta) - nd.log_post) <= 1e-10
            plain = dataclasses.replace(start, dx=None)
            assert abs(engine.log_posterior(nd.theta, start=plain) - nd.log_post) <= 1e-10
            assert engine.log_posterior(nd.theta, start=start) == nd.log_post
        assert start.dx is not None

    def test_approximation_from_start_with_dx_has_none(self):
        g = TestFactorReuse.rw1_model(PoissonLik(), fixed=False)
        engine = Engine(g)
        _, start = engine.log_posterior(np.array([0.2]), return_approx=True)
        engine.log_posterior_gradient(start)
        assert start.dx.shape == (g.n_latent, 1)
        for th in (0.2, 0.5):
            _, ap = engine.log_posterior(np.array([th]), start=start, return_approx=True)
            assert ap.dx is None

    def test_prediction_kept_only_where_it_raises_the_objective(self):
        g = TestFactorReuse.rw1_model(PoissonLik(), fixed=False)
        engine = Engine(g)
        _, start = engine.log_posterior(np.array([0.2]), return_approx=True)
        engine.log_posterior_gradient(start)
        plain = dataclasses.replace(start, dx=None)
        wild = dataclasses.replace(start, dx=300.0 * start.dx)
        th = np.array([0.6])
        Qp = g.prior_quantities(th)[0]
        param = engine._lik_param(th)
        assert (engine._penalized_objective(start.x_star + wild.dx @ (th - 0.2), Qp, param)
                < engine._penalized_objective(start.x_star, Qp, param))
        # a prediction below the start's mode is dropped, so Newton runs as
        # from the start without dx
        dropped = engine.gaussian_approximation(th, start=wild)
        from_mode = engine.gaussian_approximation(th, start=plain)
        assert np.array_equal(dropped.x_star, from_mode.x_star)
        assert dropped.iterations == from_mode.iterations
        predicted = engine.gaussian_approximation(th, start=start)
        assert predicted.iterations < from_mode.iterations
        assert np.abs(predicted.x_star - from_mode.x_star).max() <= 1e-10


class TestNewtonStop:
    """Newton stops on the increment a factor at x gives, wherever it starts.

    At theta = -3 the iid prior is soft: the gradient is small well before
    the increment is."""

    @staticmethod
    def model(kind):
        if kind == "iid":
            return poisson_iid_model(np.random.default_rng(9).poisson(2.0, 10).astype(float))
        return TestFactorReuse.rw1_model(PoissonLik(), fixed=False)

    @pytest.mark.parametrize("kind, theta",
                             [("iid", -3.0), ("rw1", -3.0), ("rw1", 0.4), ("rw1", 4.0)])
    def test_cold_start_at_dense_mode(self, kind, theta):
        g = self.model(kind)
        th = np.array([theta])
        _, ap = Engine(g).log_posterior(th, return_approx=True)
        mode, _ = dense_constrained_conditional(g, th)
        assert np.abs(ap.x_star - mode).max() <= 1e-8 * (1.0 + np.abs(mode).max())

    def test_soft_iid_log_posterior_start_independent(self):
        engine = Engine(self.model("iid"))
        th = np.array([-3.0])
        cold = engine.log_posterior(th)
        _, far = engine.log_posterior(np.array([3.0]), return_approx=True)
        assert engine.log_posterior(th, start=far) == pytest.approx(cold, abs=1e-8)

    @staticmethod
    def rw1_field_model():
        """SPDE (alpha = 2) x rw1 in time, Poisson at 15 sites, n = 321: Q* stiff
        enough that a fresh factor's increment stalls between 1e-16 and 1e-14."""
        import laplgm.mesh as mm
        rng = np.random.default_rng(0)
        mesh = mm.structured_mesh(0, 1, 0, 1, 7, 7)
        T, ns = 5, 15
        spde = lm.spde_matern_component("s", mm.assemble(mesh), mesh, alpha=2,
                                        initial_range=0.4, grouping=lm.Rw1Grouping(T))
        sites = rng.random((ns, 2))
        t_idx = np.repeat(np.arange(T), ns)
        block = lm.group_block(mm.projector(mesh, sites)[np.tile(np.arange(ns), T)], t_idx, T)
        part = lm.StackPart(rng.poisson(2.0, t_idx.size).astype(float),
                            {"mu": np.ones(t_idx.size), "s": block}, "obs")
        return lm.build_stack([part], [lm.FixedEffect("mu"), spde], PoissonLik())

    @pytest.mark.parametrize("shift", [0.0, -1.5])
    def test_ends_at_the_rounding_floor(self, shift):
        # below the floor no fresh increment reaches the tolerance, and Newton
        # ends where two of them stop shrinking, at the mode of looser tolerances
        g = self.rw1_field_model()
        assert g.n_latent == 321
        theta = g.theta_initial() + shift
        ref = Engine(g).gaussian_approximation(theta)
        near = Engine(g, EngineConfig(newton_tol=1e-14)).gaussian_approximation(theta)
        for tol in (1e-15, 1e-16):
            ap = Engine(g, EngineConfig(newton_tol=tol)).gaussian_approximation(theta)
            assert np.abs(ap.x_star - ref.x_star).max() <= 1e-9
            assert ap.factorizations <= near.factorizations + 2
            # the factor is the one at the returned x
            eta = g.A[g.observed] @ ap.x_star
            param = g.likelihood.param(g.values_from_theta(theta))
            c = -g.likelihood.derivs(g.y[g.observed], eta, param)[1]
            assert np.array_equal(ap.curvature, c)


class TestLargeCounts:
    """Newton's line search never takes a step that lowers the objective."""

    @staticmethod
    def model(scale):
        """30 Poisson counts near `scale`: an intercept and an iid effect of size 10."""
        rng = np.random.default_rng(0)
        y = rng.poisson(scale * np.exp(0.3 * rng.standard_normal(30))).astype(float)
        hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        part = lm.StackPart(y, {"mu": np.ones(30), "u": lm.index_block(np.arange(30) % 10, 10)},
                            "obs")
        return lm.build_stack([part], [lm.FixedEffect("mu"), lm.IidComponent("u", 10, hy)],
                              PoissonLik())

    def test_fit_at_counts_near_ten_thousand(self):
        g = self.model(1e4)
        fit = eng.fit(g)
        assert fit.counts["nodes_dropped"] == 0 and len(fit.nodes) == 5
        A, y = g.A.toarray(), g.y
        for nd in fit.nodes:
            x = nd.quantities["x_star"]
            lik = A.T @ (y - np.exp(A @ x))
            prior = g.prior_quantities(nd.theta)[0] @ x
            scale = 1.0 + max(np.abs(lik).max(), np.abs(prior).max())
            assert np.abs(lik - prior).max() / scale <= 1e-8

    def test_halvings_counted(self):
        g = self.model(1e4)
        first, second = eng.fit(g).counts, eng.fit(g).counts
        assert first["newton_halvings"] > 0
        assert second["newton_halvings"] == first["newton_halvings"]

    def test_line_search_that_accepts_nothing_raises(self, monkeypatch):
        from laplgm.errors import NonConvergence
        g = self.model(10.0)
        real = Engine._penalized_objective

        def only_at_zero(self, x, *args):
            return real(self, x, *args) if not x.any() else -np.inf

        monkeypatch.setattr(Engine, "_penalized_objective", only_at_zero)
        with pytest.raises(NonConvergence, match="line search"):
            Engine(g).gaussian_approximation(g.theta_initial())


class TestOnePass:
    """Exploration reads each node's quantities from the approximation it made there."""

    @staticmethod
    def two_hyper_model(seed=2):
        rng = np.random.default_rng(seed)
        y = rng.poisson(2.0, 20).astype(float)
        hy1 = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        hy2 = lm.log_precision_hyper("v.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        comps = [lm.IidComponent("u", 10, hy1), lm.IidComponent("v", 10, hy2)]
        part = lm.StackPart(y, {"u": lm.index_block(rng.integers(0, 10, 20), 10),
                                "v": lm.index_block(rng.integers(0, 10, 20), 10)}, "obs")
        return lm.build_stack([part], comps, PoissonLik())

    @pytest.mark.parametrize("strategy", ["ccd", "grid", "eb"])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_nodes_match_node_quantities(self, strategy, constrained):
        # node_quantities(theta, x_init) makes the approximation at a node
        # anew, from the node's mode: the same factor, so the same moments
        if constrained:
            g = TestFactorReuse.rw1_model(PoissonLik(), fixed=False)
        else:
            g = poisson_iid_model(np.random.default_rng(9).poisson(2.0, 10).astype(float))
        fit = eng.fit(g, EngineConfig(int_strategy=strategy))
        assert len(fit.nodes) >= (1 if strategy == "eb" else 3)
        for k, nd in enumerate(fit.nodes):
            q = fit.engine.node_quantities(nd.theta, x_init=nd.quantities["x_star"])
            for key, rows in (("x_star", fit.latent_mean), ("latent_sd", fit.latent_sd),
                              ("pred_mean", fit.pred_mean), ("pred_sd", fit.pred_sd)):
                assert np.max(np.abs(q[key] - rows[k])) <= 1e-12
        if strategy == "grid":
            # each axis of the grid ends at a point more than log_drop down
            assert fit.counts["nodes_dropped"] >= 2
        else:
            assert fit.counts["nodes_dropped"] == 0

    def test_each_design_node_evaluated_once(self, monkeypatch):
        real_approx, real_find, real_selinv = (
            Engine.gaussian_approximation, Engine.find_mode, eng.selected_inverse)
        found, evaluated, selinv_calls = [], [], []

        def approx(self, theta, *args, **kwargs):
            if found:
                evaluated.append(np.array(theta, dtype=float).tobytes())
            return real_approx(self, theta, *args, **kwargs)

        def find_mode(self, *args, **kwargs):
            out = real_find(self, *args, **kwargs)
            found.append(out[0].copy())
            return out

        def selinv(factor, **kwargs):
            selinv_calls.append(1)
            return real_selinv(factor, **kwargs)

        monkeypatch.setattr(Engine, "gaussian_approximation", approx)
        monkeypatch.setattr(Engine, "find_mode", find_mode)
        monkeypatch.setattr(eng, "selected_inverse", selinv)
        fit = eng.fit(self.two_hyper_model(), EngineConfig(int_strategy="ccd"))
        assert len(fit.nodes) == 9
        others = [nd.theta.tobytes() for nd in fit.nodes
                  if not np.array_equal(nd.theta, found[0])]
        assert len(others) == 8
        # theta* reuses the approximation of the mode search; every other
        # node is one Gaussian approximation, and nothing else is evaluated
        assert sorted(evaluated) == sorted(others)
        # the node at theta* reads the selected inverse of the last gradient
        assert len(selinv_calls) == fit.counts["gradients"] + len(fit.nodes) - 1

    def test_dropped_design_point_counted(self, monkeypatch):
        from laplgm.errors import NonConvergence
        engine = Engine(self.two_hyper_model())
        ts, H, center = engine.find_mode()
        real = Engine.log_posterior
        failed = []

        def flaky(self, theta, *args, **kwargs):
            if not failed and not np.array_equal(theta, ts):
                failed.append(np.array(theta, dtype=float))
                raise NonConvergence(0)
            return real(self, theta, *args, **kwargs)

        monkeypatch.setattr(Engine, "log_posterior", flaky)
        nodes = engine.explore(ts, H, "ccd", center)
        assert engine.counts["nodes_dropped"] == 1
        assert len(nodes) == 8
        assert not any(np.array_equal(nd.theta, failed[0]) for nd in nodes)
        assert all(nd.weight == pytest.approx(1.0 / 8.0) for nd in nodes)


class TestBandMemory:
    """A factor's last reader writes the selected inverse over its band."""

    def test_band_arrays_alive_within_budget(self, monkeypatch):
        # every factor's band and every selected inverse is tracked through a
        # weak reference to the array that owns its memory: at most two are
        # alive at once (the center's, or BFGS's start, and one more), and
        # the probes and design points allocate no selected-inverse array
        import weakref

        import laplgm.sparse as sps

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        tracked, most, kinds = [], [0], []

        def track(array):
            tracked.append(weakref.ref(owner(array)))
            most[0] = max(most[0], len({id(r()) for r in tracked if r() is not None}))

        real_numeric, real_selinv = sps.SymbolicFactor.numeric, eng.selected_inverse

        def numeric(self, Q):
            factor = real_numeric(self, Q)
            if self.n == g.n_latent:   # Q*, not a component's prior
                track(factor.lband)
            return factor

        def selinv(factor, **kwargs):
            band = owner(factor.lband)
            S = real_selinv(factor, **kwargs)
            kinds.append("fresh" if owner(S.data) is not band else "in place")
            track(S.data)
            return S

        g = TestThetaGradient.ar1_grouped_spde()
        monkeypatch.setattr(sps.SymbolicFactor, "numeric", numeric)
        monkeypatch.setattr(eng, "selected_inverse", selinv)
        fit = eng.fit(g, EngineConfig(int_strategy="ccd"))
        p = len(g.free_hyperparams())
        assert len(fit.nodes) == 15 and fit.counts["factorizations"] == len(tracked) - len(kinds)
        assert most[0] <= 2
        # one Hessian probe per theta_j and every design point but the center
        assert kinds.count("in place") == p + len(fit.nodes) - 1
        # BFGS's gradients; the center reads the last one's
        assert kinds.count("fresh") == fit.counts["gradients"] - p


class TestStateless:
    """A theta evaluation depends on theta and its Newton start, not on the engine's history."""

    def test_log_posterior_independent_of_history(self):
        g = TestOnePass.two_hyper_model()
        th = np.array([0.3, -0.2])
        fresh = Engine(g).log_posterior(th)
        engine = Engine(g)
        engine.log_posterior(np.array([2.0, 2.0]))
        engine.find_mode()
        assert engine.log_posterior(th) == fresh

    def test_second_find_mode_repeats_the_first(self):
        engine = Engine(TestOnePass.two_hyper_model())
        runs = []
        for _ in range(2):
            before = dict(engine.counts)
            ts, H, (lp, q, _) = engine.find_mode()
            runs.append((ts, H, lp, q["x_star"],
                         {k: engine.counts[k] - before[k] for k in before}))
        (ts1, H1, lp1, x1, c1), (ts2, H2, lp2, x2, c2) = runs
        assert np.array_equal(ts1, ts2) and np.array_equal(H1, H2)
        assert lp1 == lp2 and np.array_equal(x1, x2)
        assert c1 == c2 and c1["newton_iterations"] > 0

    def test_mode_search_ending_on_rejected_trial_restarts_at_mode(self, monkeypatch):
        # when the last point BFGS evaluated is not its mode, the center is
        # made anew from the mode's latent x* with no factor: one
        # factorization, no Newton step, and the same center and Hessian
        g = TestOnePass.two_hyper_model()
        ts, H, (lp, q, approx) = Engine(g).find_mode()
        real = eng._maximize

        def ending_on_rejected_trial(f, x0, grad, *args, **kwargs):
            x, fval, count, converged = real(f, x0, grad, *args, **kwargs)
            f(x + 0.5)
            return x, fval, count + 1, converged

        monkeypatch.setattr(eng, "_maximize", ending_on_rejected_trial)
        ts2, H2, (lp2, q2, approx2) = Engine(g).find_mode()
        assert approx2 is not approx and np.array_equal(approx2.theta, ts)
        assert approx2.iterations == 0 and approx2.factorizations == 1
        assert np.array_equal(ts2, ts) and np.array_equal(H2, H) and lp2 == lp
        for key in q:
            assert np.array_equal(q2[key], q[key])


class TestStructuralPattern:
    def test_ar1_starting_at_zero_correlation(self):
        # a = 0 at the initial theta leaves the AR(1) coupling all zeros; the
        # pattern of Q* must still hold it for the theta values that follow
        rng = np.random.default_rng(21)
        n = 30
        prec = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
        comp = lm.Ar1Component("u", n, prec, lm.correlation_hyper("u.a", initial_internal=0.0))
        x = np.cumsum(rng.normal(0.0, 0.3, n))
        y = rng.poisson(np.exp(0.5 + x)).astype(float)
        part = lm.StackPart(y, {"mu": np.ones(n), "u": lm.index_block(range(n), n)}, "obs")
        g = lm.build_stack([part], [lm.FixedEffect("mu"), comp], PoissonLik())
        fit = eng.fit(g, EngineConfig(int_strategy="ccd"))
        assert np.isfinite(fit.mlik)
        assert len(fit.nodes) > 1
        assert fit.engine._symbolic.w >= 1
        assert fit.hyper_marginal("u.a").integral() == pytest.approx(1.0, abs=1e-6)


class TestConstraintErrors:
    def test_duplicated_constraint_row_is_singular(self, monkeypatch):
        from laplgm.errors import SingularConstraint
        rows = lm.Rw1Component.constraint_rows
        monkeypatch.setattr(lm.Rw1Component, "constraint_rows", lambda self: rows(self) * 2)
        lik = GaussianLik(HyperParam("o", np.log(2.0), "log", fixed=True))
        g = TestFactorReuse.rw1_model(lik)
        assert g.constraint_matrix.shape[0] == 2
        with pytest.raises(SingularConstraint):
            Engine(g).log_posterior(np.zeros(0))


class TestEngineConfig:
    @pytest.mark.parametrize("field, value", [
        ("newton_tol", -1.0), ("newton_tol", 0.0), ("newton_tol", np.inf),
        ("newton_tol", np.nan), ("newton_tol", "tight"), ("log_drop", -1.0),
        ("log_drop", True), ("int_strategy", "gaussian")])
    def test_bad_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})

    def test_numbers_kept_as_floats(self):
        cfg = EngineConfig(int_strategy="grid", log_drop=3, newton_tol=1e-9)
        assert (cfg.int_strategy, cfg.log_drop, cfg.newton_tol) == ("grid", 3.0, 1e-9)
        assert isinstance(cfg.log_drop, float)

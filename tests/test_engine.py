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
        assert ap.converged
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
        theta_star, H, _ = engine.find_mode()
        p = theta_star.size
        # one gradient per accepted BFGS point and 2p for the Hessian
        assert engine.counts["gradients"] >= 2 * p + 1
        ref = self.central_hessian(self.tight_log_posterior(g), theta_star, 1e-3)
        got, want = np.linalg.slogdet(-H), np.linalg.slogdet(-0.5 * (ref + ref.T))
        assert got[0] == want[0] == 1
        assert got[1] == pytest.approx(want[1], rel=1e-3, abs=1e-3)


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

        x, fval, evals = eng._maximize(f, np.zeros(2), grad=grad,
                                       budget=200, grad_tol=1e-8)
        assert np.abs(x - target).max() <= 1e-6
        assert evals <= 5 * 13  # a handful of iterations

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


class TestLinearCombinations:
    def test_unit_vector_matches_latent(self):
        rng = np.random.default_rng(3)
        y = rng.poisson(2.0, 8).astype(float)
        g = poisson_iid_model(y)
        fit = eng.fit(g, EngineConfig(int_strategy="eb"))
        B = np.zeros((1, g.n_latent))
        B[0, 3] = 1.0
        before = dict(fit.engine.counts)
        lc = eng.linear_combination_marginals(fit.engine, fit.nodes, B)[0]
        # each node's Newton starts at its mode: one factorization, no step
        assert fit.engine.counts["newton_iterations"] == before["newton_iterations"]
        assert fit.engine.counts["factorizations"] == before["factorizations"] + len(fit.nodes)
        lat = fit.latent_marginal(3)
        assert np.abs(lc.grid - lat.grid).max() <= 1e-10
        assert np.abs(lc.density - lat.density).max() <= 1e-10

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
        g = lm.build_stack([part], comps, lik)
        engine = Engine(g)
        nodes = engine.explore(np.zeros(0), np.zeros((0, 0)), "eb")
        B = np.zeros((3, 8))
        B[0, 1] = 1.0
        B[1, 5] = 1.0
        B[2, 1] = 1.0
        B[2, 5] = 1.0
        ms = eng.linear_combination_marginals(engine, nodes, B)
        var = [mg.zmarginal(m).sd ** 2 for m in ms]
        # independence across blocks requires no shared observation rows;
        # check against the dense conditional covariance instead
        A = g.A.toarray()
        Qpost = np.diag([1.0] * 4 + [2.0] * 4) + tau_obs * A.T @ A
        cov = np.linalg.inv(Qpost)
        want = [cov[1, 1], cov[5, 5], cov[1, 1] + cov[5, 5] + 2 * cov[1, 5]]
        for got, expect in zip(var, want):
            assert got == pytest.approx(expect, rel=1e-3)

    def test_trend_extraction_pattern(self):
        # intercept + rw1 bins: one combination per bin value
        rng = np.random.default_rng(4)
        T = 60
        hy = lm.log_precision_hyper("f.prec", 100.0)
        comps = [lm.FixedEffect("intercept"), lm.Rw1Component("f", T, hy)]
        times = np.tile(np.arange(T), 3)
        y = rng.poisson(np.exp(0.5 + 0.4 * np.sin(times / 8.0))).astype(float)
        part = lm.StackPart(y, {"intercept": np.ones(y.size),
                                "f": lm.index_block(times, T)}, "obs")
        g = lm.build_stack([part], comps, PoissonLik())
        engine = Engine(g)
        ts, H, center = engine.find_mode()
        nodes = engine.explore(ts, H, "eb", center)
        B = np.zeros((T, g.n_latent))
        B[:, 0] = 1.0
        B[np.arange(T), 1 + np.arange(T)] = 1.0
        ms = eng.linear_combination_marginals(engine, nodes, B)
        assert len(ms) == T
        for m in ms:
            assert m.integral() == pytest.approx(1.0, abs=1e-6)


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

    def test_pred_tag_gets_response_marginals(self):
        rng = np.random.default_rng(6)
        y = rng.poisson(2.0, 12).astype(float)
        hy = lm.log_precision_hyper("u.prec", 1.0)
        comps = [lm.IidComponent("u", 4, hy)]
        obs = lm.StackPart(y, {"u": lm.index_block(rng.integers(0, 4, 12), 4)}, "obs")
        pred = lm.StackPart(np.full(4, np.nan), {"u": lm.index_block(range(4), 4)}, "pred")
        g = lm.build_stack([obs, pred], comps, PoissonLik())
        fit = eng.fit(g)
        for row in g.tag_range("pred"):
            m = fit.response_marginal(row)
            assert np.all(m.grid > 0)
            assert m.integral() == pytest.approx(1.0, abs=1e-6)

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
        assert ap.converged
        assert abs(ap.x_star[1:].sum()) <= 1e-10
        assert len(count_factorizations) == 1

    def test_gaussian_constrained_one_iteration(self, count_factorizations):
        # the projected gradient test ends a constrained Gaussian theta after
        # its first, exact step; restarted from that approximation, the
        # converged start takes no step and keeps its factor
        lik = GaussianLik(HyperParam("o", np.log(2.0), "log", fixed=True))
        g = self.rw1_model(lik)
        engine = Engine(g)
        M, e = g.constraint_matrix, g.constraint_rhs
        ap = engine.gaussian_approximation(np.zeros(0))
        assert ap.converged and ap.iterations == 1 and ap.factorizations == 1
        again = engine.gaussian_approximation(np.zeros(0), start=ap)
        assert again.converged and again.iterations == 0 and again.factorizations == 0
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
        assert ap.converged and ap.iterations >= 2
        assert ap.factorizations == len(count_factorizations) <= ap.iterations + 1
        del count_factorizations[:]
        again = engine.gaussian_approximation(np.zeros(0), x_init=ap.x_star)
        assert again.converged and again.iterations == 0
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
        assert ap.converged and ap.factorizations == len(count_factorizations) == 2
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

    def test_fit_counts(self, count_factorizations):
        g = self.rw1_model(PoissonLik(), fixed=False)
        fit = eng.fit(g, EngineConfig(int_strategy="ccd"))
        assert fit.counts["factorizations"] == len(count_factorizations)
        assert fit.counts["theta_evals"] >= len(fit.nodes)
        assert fit.counts["newton_iterations"] >= 1


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

        def selinv(factor):
            selinv_calls.append(1)
            return real_selinv(factor)

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
            x, fval, count = real(f, x0, grad, *args, **kwargs)
            f(x + 0.5)
            return x, fval, count + 1

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

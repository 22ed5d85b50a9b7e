import sys
from concurrent.futures import ThreadPoolExecutor

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

class TestLaplaceIntegral:
    def test_exact_for_quadratic(self):
        # log of unnormalized N(1.5, 0.3^2): integral known in closed form
        def g(x):
            return -0.5 * ((x[0] - 1.5) / 0.3) ** 2

        value, mode, H = eng.laplace_integral(g, np.array([0.0]))
        assert value == pytest.approx(np.log(np.sqrt(2 * np.pi) * 0.3), abs=1e-8)
        assert mode[0] == pytest.approx(1.5, abs=1e-6)

    def test_gamma_kernel_stirling_quality(self):
        k = 20.0

        def g(x):
            return k * (np.log(x[0]) - x[0]) if x[0] > 0 else -np.inf

        value, mode, _ = eng.laplace_integral(g, np.array([1.2]))
        exact = gammaln(k + 1.0) - (k + 1.0) * np.log(k)
        assert abs(value - exact) <= 0.005 * abs(exact)
        assert mode[0] == pytest.approx(1.0, abs=1e-5)

    def test_separable_two_dim(self):
        def g1(x):
            return -0.5 * (x[0] / 0.7) ** 2

        def g2(x):
            return -0.5 * ((x[0] - 2.0) / 1.3) ** 2

        def g12(x):
            return g1(x[:1]) + g2(x[1:])

        v1, _, _ = eng.laplace_integral(g1, np.array([0.1]))
        v2, _, _ = eng.laplace_integral(g2, np.array([1.0]))
        v12, _, _ = eng.laplace_integral(g12, np.array([0.1, 1.0]))
        assert v12 == pytest.approx(v1 + v2, abs=1e-6)


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
        ap = eng.gaussian_approximation(g, np.zeros(0))
        assert ap.iterations == 1
        assert ap.converged
        A = g.A.toarray()
        Qpost = np.diag([1e-4] + [1.5] * n) + tau_obs * A.T @ A
        mean = np.linalg.solve(Qpost, tau_obs * A.T @ y)
        assert np.abs(ap.x_star - mean).max() <= 1e-9

    def test_scalar_poisson_root_oracle(self):
        g = poisson_iid_model([2.0], fixed=True)
        ap = eng.gaussian_approximation(g, np.zeros(0))
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
        ap = eng.gaussian_approximation(g, np.zeros(0))
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
        assert eng.log_posterior_theta(g1, th) == pytest.approx(
            eng.log_posterior_theta(g2, th), abs=1e-10)

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
            engine._lp_cache.clear()
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


class TestFindMode:
    def test_conjugate_mode_matches_golden_section(self):
        g, idx, y, pp = conjugate_model()
        oracle = conjugate_logpost(g, idx, y, pp)
        theta_star, H = eng.find_mode_theta(g)
        res = minimize_scalar(lambda t: -oracle(t), bounds=(-3, 3), method="bounded",
                              options={"xatol": 1e-10})
        assert theta_star[0] == pytest.approx(res.x, abs=1e-3)
        assert H[0, 0] < 0

    def test_quadratic_synthetic_exact(self):
        target = np.array([1.0, -2.0])

        def f(x):
            d = x - target
            return -0.5 * (3.0 * d[0] ** 2 + 0.5 * d[1] ** 2 + d[0] * d[1])

        x, fval, evals = eng._maximize(f, np.zeros(2), grad_step=1e-6,
                                       budget=200, grad_tol=1e-8)
        assert np.abs(x - target).max() <= 1e-6
        assert evals <= 5 * 13  # a handful of iterations

    def test_zero_hyper_degenerates(self):
        g = poisson_iid_model([1.0, 2.0], fixed=True)
        theta_star, H = eng.find_mode_theta(g)
        assert theta_star.size == 0
        nodes = eng.explore_theta(g, theta_star, H, "eb")
        assert len(nodes) == 1


class TestExplore:
    def test_eb_single_node_at_mode(self):
        g, *_ = conjugate_model()
        engine = Engine(g)
        ts, H = engine.find_mode()
        nodes = engine.explore(ts, H, "eb")
        assert len(nodes) == 1
        assert np.array_equal(nodes[0].theta, ts)
        assert nodes[0].weight == 1.0

    def test_grid_symmetric_and_contains_mode(self):
        g, *_ = conjugate_model()
        engine = Engine(g)
        ts, H = engine.find_mode()
        nodes = engine.explore(ts, H, "grid")
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
        ts, H = engine.find_mode()
        nodes = engine.explore(ts, H, "ccd")
        assert len(nodes) == 9  # 4 factorial + 4 star + center
        assert nodes[0].weight == pytest.approx(1.0 / 9.0)

    def test_weights_equal_and_normalized(self):
        g, *_ = conjugate_model()
        engine = Engine(g)
        ts, H = engine.find_mode()
        for strategy in ("grid", "ccd", "eb"):
            nodes = engine.explore(ts, H, strategy)
            w = [nd.weight for nd in nodes]
            assert np.allclose(w, w[0])
            assert sum(w) == pytest.approx(1.0)


class TestHyperMarginals:
    def test_conjugate_total_variation(self):
        g, idx, y, pp = conjugate_model()
        cfg = EngineConfig(int_strategy="grid", log_drop=5.0)
        engine = Engine(g, cfg)
        ts, H = engine.find_mode()
        nodes = engine.explore(ts, H, "grid")
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
        ts, H = engine.find_mode()
        nodes = engine.explore(ts, H, "grid")
        m = eng.hyper_marginals(nodes, 0, ts, H)
        step = np.sqrt(np.linalg.inv(-H)[0, 0])
        assert abs(mg.marginal_mode(m) - ts[0]) <= step


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
        nodes = eng.explore_theta(g, np.zeros(0), np.zeros((0, 0)), "eb")
        marginals = eng.latent_marginals(g, nodes)
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
        ts, H = engine.find_mode()
        nodes = engine.explore(ts, H, "grid")
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
        nodes = eng.explore_theta(g, *eng.find_mode_theta(g), "eb")
        B = np.zeros((1, g.n_latent))
        B[0, 3] = 1.0
        lc = eng.linear_combination_marginals(g, nodes, B)[0]
        lat = eng.latent_marginals(g, nodes)[3]
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
        nodes = eng.explore_theta(g, np.zeros(0), np.zeros((0, 0)), "eb")
        B = np.zeros((3, 8))
        B[0, 1] = 1.0
        B[1, 5] = 1.0
        B[2, 1] = 1.0
        B[2, 5] = 1.0
        ms = eng.linear_combination_marginals(g, nodes, B)
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
        ts, H = eng.find_mode_theta(g)
        nodes = eng.explore_theta(g, ts, H, "eb")
        B = np.zeros((T, g.n_latent))
        B[:, 0] = 1.0
        B[np.arange(T), 1 + np.arange(T)] = 1.0
        ms = eng.linear_combination_marginals(g, nodes, B)
        assert len(ms) == T
        for m in ms:
            assert m.integral() == pytest.approx(1.0, abs=1e-6)


class TestMarginalLikelihood:
    def test_conjugate_evidence(self):
        g, idx, y, pp = conjugate_model()
        oracle = conjugate_logpost(g, idx, y, pp)
        engine = Engine(g)
        ts, H = engine.find_mode()
        nodes = engine.explore(ts, H, "grid")
        mlik = eng.marginal_likelihood(nodes, H)
        from scipy.integrate import quad
        total, _ = quad(lambda t: np.exp(oracle(t)), -5, 5)
        assert abs(mlik - np.log(total)) <= 0.05

    def test_grid_vs_eb_agree(self):
        g, *_ = conjugate_model()
        engine = Engine(g)
        ts, H = engine.find_mode()
        m_grid = eng.marginal_likelihood(engine.explore(ts, H, "grid"), H)
        m_eb = eng.marginal_likelihood(engine.explore(ts, H, "eb"), H)
        assert abs(m_grid - m_eb) <= 0.1

    def test_p_zero_equals_log_post(self):
        g = poisson_iid_model([1.0, 3.0], fixed=True)
        engine = Engine(g)
        nodes = engine.explore(np.zeros(0), np.zeros((0, 0)), "eb")
        assert eng.marginal_likelihood(nodes, np.zeros((0, 0))) == nodes[0].log_post


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

    def test_timings_recorded(self):
        g = poisson_iid_model([1.0, 2.0, 0.0])
        fit = eng.fit(g)
        assert set(fit.timings) == {"preprocessing", "solving", "postprocessing", "total"}
        assert fit.timings["total"] > 0

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
        lp = engine.log_posterior(th)
        engine.log_posterior(np.array([-0.3]))   # moves the warm start
        del count_factorizations[:]
        lp2, ap = engine.log_posterior(th, return_approx=True)
        assert len(count_factorizations) == 1
        assert ap.iterations == 0
        assert lp2 == pytest.approx(lp, abs=1e-9)
        # the warm start now sits at th: a second visit factorizes nothing
        del count_factorizations[:]
        lp3, ap3 = engine.log_posterior(th, return_approx=True)
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
        engine.log_posterior(center)
        for h in (1e-4, -1e-4, 1e-3):
            del count_factorizations[:]
            engine._probe(center + h)
            assert len(count_factorizations) == 1
            # a probe leaves the warm start at its center
            assert np.array_equal(engine._warm.theta, center)

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
        engine.log_posterior(center)
        th = center + step
        warm = engine._probe(th)
        engine._lp_cache.clear()
        cold = engine.log_posterior(th, x_init=np.zeros(g.n_latent))
        assert warm == pytest.approx(cold, abs=1e-8)

    def test_counts_under_threads(self):
        # the node stage runs Gaussian approximations on worker threads: the
        # engine's counts must lose no update
        g = self.rw1_model(PoissonLik(), fixed=False)
        engine = Engine(g)
        thetas = [np.array([t]) for t in np.linspace(-0.5, 0.5, 40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as ex:
                approxs = list(ex.map(engine.gaussian_approximation, thetas, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert engine.counts == {
            "theta_evals": len(thetas),
            "newton_iterations": sum(a.iterations for a in approxs),
            "factorizations": sum(a.factorizations for a in approxs),
        }

    def test_fit_counts(self, count_factorizations):
        g = self.rw1_model(PoissonLik(), fixed=False)
        fit = eng.fit(g, EngineConfig(int_strategy="ccd"))
        assert fit.counts["factorizations"] == len(count_factorizations)
        assert fit.counts["theta_evals"] >= len(fit.nodes)
        assert fit.counts["newton_iterations"] >= 1


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

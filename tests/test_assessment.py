import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

import laplgm.assessment as ass
import laplgm.engine as eng
import laplgm.latent as lm
from laplgm.engine import EngineConfig
from laplgm.errors import DataMismatch
from laplgm.latent import GaussianPrior, HyperParam
from laplgm.likelihoods import GaussianLik, PoissonLik


def poisson_toy(seed=1, n=20, cells=5):
    """Poisson counts over a few shared latent cells (informative predictors)."""
    rng = np.random.default_rng(seed)
    cell = np.repeat(np.arange(cells), n // cells)
    eta_true = rng.normal(0.8, 0.5, cells)[cell]
    y = rng.poisson(np.exp(eta_true)).astype(float)
    hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
    comps = [lm.FixedEffect("mu"), lm.IidComponent("u", cells, hy)]

    def build(y_vec):
        part = lm.StackPart(y_vec, {"mu": np.ones(n), "u": lm.index_block(cell, cells)},
                            "obs")
        return lm.build_stack([part], comps, PoissonLik())

    return build, y


def predictive_density_oracle(fit, model, row, y_value):
    """Predictive mass of one held-out count from a refit's mixture."""
    t, w = np.polynomial.hermite.hermgauss(21)
    w = w / np.sqrt(np.pi)
    total = 0.0
    for ell, node in enumerate(fit.nodes):
        param = model.likelihood.param(model.values_from_theta(node.theta))
        m = fit.pred_mean[ell, row]
        s = fit.pred_sd[ell, row]
        eta = m + np.sqrt(2.0) * s * t
        total += fit.weights[ell] * (w @ np.exp(
            model.likelihood.log_lik(np.full(eta.shape, y_value), eta, param)))
    return total


class TestCpoPit:
    def test_brute_force_leave_one_out(self):
        build, y = poisson_toy()
        cfg = EngineConfig(int_strategy="ccd")
        model = build(y)
        fit = eng.fit(model, cfg)
        cpo, pit, failure = ass.cpo_pit(fit, model)
        n = y.size
        rel_err = []
        for i in range(n):
            y_loo = y.copy()
            y_loo[i] = np.nan
            refit_model = build(y_loo)
            refit = eng.fit(refit_model, cfg)
            oracle = predictive_density_oracle(refit, refit_model, i, y[i])
            if failure[i] == 0:
                rel_err.append(abs(cpo[i] - oracle) / oracle)
        rel_err = np.array(rel_err)
        assert rel_err.size >= n - 2
        assert np.median(rel_err) <= 0.05
        assert rel_err.max() <= 0.10

    def test_discrete_cpo_bounded(self):
        build, y = poisson_toy(seed=5)
        model = build(y)
        fit = eng.fit(model)
        cpo, pit, failure = ass.cpo_pit(fit, model)
        assert np.all(cpo > 0)
        assert np.all(cpo <= 1.0)
        assert np.all((pit >= 0) & (pit <= 1))
        assert set(np.unique(failure)) <= {0.0, 1.0}

    def test_invariant_to_other_observation_order(self):
        rng = np.random.default_rng(7)
        n, cells = 20, 5
        cell = np.repeat(np.arange(cells), n // cells)
        y = rng.poisson(np.exp(rng.normal(0.8, 0.5, cells)[cell])).astype(float)

        def build(rows):
            hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
            comps = [lm.FixedEffect("mu"), lm.IidComponent("u", cells, hy)]
            part = lm.StackPart(y[rows], {"mu": np.ones(n),
                                          "u": lm.index_block(cell[rows], cells)}, "obs")
            return lm.build_stack([part], comps, PoissonLik())

        base = build(np.arange(n))
        cpo, pit, _ = ass.cpo_pit(eng.fit(base), base)
        perm = rng.permutation(n)
        shuffled = build(perm)
        cpo2, pit2, _ = ass.cpo_pit(eng.fit(shuffled), shuffled)
        assert np.abs(cpo2 - cpo[perm]).max() <= 1e-6
        assert np.abs(pit2 - pit[perm]).max() <= 1e-6


def conjugate_toy(seed=3, n=30):
    rng = np.random.default_rng(seed)
    tau_obs, tau_u = 2.0, 1.5
    lik = GaussianLik(HyperParam("o", np.log(tau_obs), "log", fixed=True))
    hy = lm.log_precision_hyper("u.prec", tau_u, fixed=True)
    y = rng.normal(0.4, 1.0, n)
    part = lm.StackPart(y, {"u": lm.index_block(range(n), n)}, "obs")
    model = lm.build_stack([part], [lm.IidComponent("u", n, hy)], lik)
    A = np.eye(n)
    Qpost = tau_u * np.eye(n) + tau_obs * A.T @ A
    mean = np.linalg.solve(Qpost, tau_obs * y)
    cov = np.linalg.inv(Qpost)
    return model, y, mean, cov, tau_obs


class TestDic:
    def test_conjugate_monte_carlo_oracle(self):
        model, y, mean, cov, tau_obs = conjugate_toy()
        fit = eng.fit(model)
        dic_val, p_dic = ass.dic(fit, model)

        rng = np.random.default_rng(99)
        draws = rng.multivariate_normal(mean, cov, size=100_000)
        ll = (0.5 * (np.log(tau_obs) - np.log(2 * np.pi))
              - 0.5 * tau_obs * (y[None, :] - draws) ** 2)
        dbar_mc = -2.0 * ll.sum(axis=1).mean()
        dhat_mc = -2.0 * float(np.sum(
            0.5 * (np.log(tau_obs) - np.log(2 * np.pi))
            - 0.5 * tau_obs * (y - mean) ** 2))
        dic_mc = 2.0 * dbar_mc - dhat_mc
        assert dic_val == pytest.approx(dic_mc, rel=0.01)
        assert p_dic == pytest.approx(dbar_mc - dhat_mc, rel=0.01)

    def test_flexible_model_has_lower_mean_deviance(self):
        build, y = poisson_toy(seed=11)
        flexible = build(y)
        fit_flex = eng.fit(flexible)
        dic_flex, p_flex = ass.dic(fit_flex, flexible)

        comps = [lm.FixedEffect("mu")]
        part = lm.StackPart(y, {"mu": np.ones(y.size)}, "obs")
        intercept_only = lm.build_stack([part], comps, PoissonLik())
        fit_int = eng.fit(intercept_only)
        dic_int, p_int = ass.dic(fit_int, intercept_only)
        dbar_flex = dic_flex - p_flex
        dbar_int = dic_int - p_int
        assert dbar_flex < dbar_int

    def test_p_dic_nonnegative_on_well_specified_fits(self):
        for seed in (1, 5, 11):
            build, y = poisson_toy(seed=seed)
            model = build(y)
            fit = eng.fit(model)
            _, p_dic = ass.dic(fit, model)
            assert p_dic >= 0


class TestWaic:
    def test_conjugate_monte_carlo_oracle(self):
        model, y, mean, cov, tau_obs = conjugate_toy()
        fit = eng.fit(model)
        waic_val, p_waic = ass.waic(fit, model)

        rng = np.random.default_rng(42)
        draws = rng.multivariate_normal(mean, cov, size=100_000)
        ll = (0.5 * (np.log(tau_obs) - np.log(2 * np.pi))
              - 0.5 * tau_obs * (y[None, :] - draws) ** 2)
        lppd = float(np.sum(logsumexp(ll, axis=0) - np.log(ll.shape[0])))
        p_mc = float(np.sum(ll.var(axis=0)))
        waic_mc = -2.0 * (lppd - p_mc)
        assert waic_val == pytest.approx(waic_mc, rel=0.01)
        assert p_waic == pytest.approx(p_mc, rel=0.02)

    def test_p_waic_nonnegative(self):
        build, y = poisson_toy(seed=2)
        model = build(y)
        fit = eng.fit(model)
        _, p_waic = ass.waic(fit, model)
        assert p_waic >= 0

    def test_latent_permutation_invariance(self):
        rng = np.random.default_rng(13)
        n, cells = 20, 5
        cell = np.repeat(np.arange(cells), n // cells)
        y = rng.poisson(np.exp(rng.normal(0.8, 0.5, cells)[cell])).astype(float)
        lat_perm = rng.permutation(cells)

        def build(cell_map):
            hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
            comps = [lm.FixedEffect("mu"), lm.IidComponent("u", cells, hy)]
            part = lm.StackPart(y, {"mu": np.ones(n),
                                    "u": lm.index_block(cell_map, cells)}, "obs")
            return lm.build_stack([part], comps, PoissonLik())

        m1 = build(cell)
        m2 = build(lat_perm[cell])  # same model, latent indices relabeled
        f1, f2 = eng.fit(m1), eng.fit(m2)
        assert ass.waic(f2, m2)[0] == pytest.approx(ass.waic(f1, m1)[0], abs=1e-5)
        assert ass.dic(f2, m2)[0] == pytest.approx(ass.dic(f1, m1)[0], abs=1e-5)


class TestPitCalibration:
    def test_well_specified_gaussian_ks(self):
        rng = np.random.default_rng(21)
        n = 500
        tau_obs, tau_u = 1.0, 1.0
        lik = GaussianLik(HyperParam("o", np.log(tau_obs), "log", fixed=True))
        hy = lm.log_precision_hyper("u.prec", tau_u, fixed=True)
        u = rng.normal(0, 1, n)
        y = u + rng.standard_normal(n)
        part = lm.StackPart(y, {"u": lm.index_block(range(n), n)}, "obs")
        model = lm.build_stack([part], [lm.IidComponent("u", n, hy)], lik)
        fit = eng.fit(model)
        _, pit, _ = ass.cpo_pit(fit, model)
        grid = np.sort(pit)
        ks = np.max(np.abs(grid - (np.arange(1, n + 1) / n)))
        assert ks <= 0.08


class TestAssessAndCompare:
    def test_assess_attaches_diagnostics(self):
        build, y = poisson_toy(seed=4)
        model = build(y)
        fit = eng.fit(model)
        d = ass.assess(fit, model)
        assert fit.diagnostics is d
        assert d.mlik == fit.mlik
        assert d.cpo.shape == (y.size,)

    def test_identical_fits_identical_rows(self):
        build, y = poisson_toy(seed=6)
        m1, m2 = build(y), build(y)
        f1, f2 = eng.fit(m1), eng.fit(m2)
        rows = ass.compare([("a", f1, m1), ("b", f2, m2)])
        assert rows[0]["dic"] == pytest.approx(rows[1]["dic"])
        assert rows[0]["waic"] == pytest.approx(rows[1]["waic"])
        assert rows[0]["mlik"] == pytest.approx(rows[1]["mlik"])

    def test_data_mismatch_rejected(self):
        build, y = poisson_toy(seed=8)
        m1 = build(y)
        y2 = y.copy()
        y2[0] += 1.0
        m2 = build(y2)
        f1, f2 = eng.fit(m1), eng.fit(m2)
        with pytest.raises(DataMismatch):
            ass.compare([("a", f1, m1), ("b", f2, m2)])


class TestLogSumExp:
    """The numpy log-sum-exp against scipy.special.logsumexp, bit for bit."""

    def test_equals_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.normal(0.0, 20.0, (7, 40, ass.GH_POINTS))
            a[:, ::3] = np.round(a[:, ::3])              # ties at the maximum
            a[0, ::4, 0] = a[-1, ::4, -1] = 50.0
            a[:, 2::5] += 800.0                         # exp would overflow unshifted
            a[:, 1::6, :4] = -np.inf
            with np.errstate(divide="ignore"):
                want = logsumexp(a, axis=(0, 2))
            got = ass._logsumexp(a)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_all_minus_inf_slice_without_warning(self):
        a = np.random.default_rng(3).normal(size=(4, 6, ass.GH_POINTS))
        a[:, [1, 4]] = -np.inf
        got = ass._logsumexp(a)                          # RuntimeWarning is an error here
        assert np.all(got[[1, 4]] == -np.inf)
        with np.errstate(divide="ignore"):
            assert np.array_equal(got, logsumexp(a, axis=(0, 2)))


def poisson_toy_model(seed=9):
    build, y = poisson_toy(seed=seed)
    return build(y)


def gaussian_free_precision_toy(seed=12, n=24, cells=6):
    rng = np.random.default_rng(seed)
    cell = np.repeat(np.arange(cells), n // cells)
    y = rng.normal(0.5, 0.7, cells)[cell] + rng.normal(0.0, 0.5, n)
    lik = GaussianLik(lm.log_precision_hyper("obs.prec", 4.0, prior=GaussianPrior(1.0, 0.5)))
    hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
    part = lm.StackPart(y, {"mu": np.ones(n), "u": lm.index_block(cell, cells)}, "obs")
    return lm.build_stack([part], [lm.FixedEffect("mu"), lm.IidComponent("u", cells, hy)], lik)


class TestAssessOnePass:
    @pytest.mark.parametrize("make_model", [poisson_toy_model, gaussian_free_precision_toy],
                             ids=["poisson", "gaussian"])
    def test_equals_separate_calls(self, make_model):
        model = make_model()
        fit = eng.fit(model, EngineConfig(int_strategy="ccd"))
        assert len(fit.nodes) > 1
        d = ass.assess(fit, model)
        cpo, pit, failure = ass.cpo_pit(fit, model)
        for got, want in ((d.cpo, cpo), (d.pit, pit), (d.failure, failure)):
            assert np.array_equal(got, want)
        assert (d.dic, d.p_dic) == ass.dic(fit, model)
        assert (d.waic, d.p_waic) == ass.waic(fit, model)
        assert np.array_equal(d.index, np.flatnonzero(model.observed))


@pytest.mark.parametrize("make_model", [poisson_toy_model, gaussian_free_precision_toy],
                         ids=["poisson", "gaussian"])
def test_node_tensors_equal_a_loop_over_nodes(make_model):
    model = make_model()
    fit = eng.fit(model, EngineConfig(int_strategy="ccd"))
    rows = np.flatnonzero(model.observed)
    t, _ = ass._gh_rule()
    params = [model.likelihood.param(model.values_from_theta(nd.theta)) for nd in fit.nodes]
    got = ass._node_tensors(fit, model, rows, None if params[0] is None
                            else np.array(params)[:, None, None], t)
    y = model.y[rows][:, None]
    for ell, param in enumerate(params):
        eta = fit.pred_mean[ell, rows][:, None] + np.sqrt(2.0) * fit.pred_sd[ell, rows][:, None] * t
        yy = np.broadcast_to(y, eta.shape)
        assert np.array_equal(got[0][ell], model.likelihood.log_lik(yy, eta, param))
        assert np.array_equal(got[1][ell], model.likelihood.cdf(yy, eta, param))


def many_rows_toy(seed=23, n=503, cells=7, groups=5):
    """Poisson counts on two crossed effects, on more rows than one default block holds."""
    rng = np.random.default_rng(seed)
    cell = rng.integers(0, cells, n)
    group = rng.integers(0, groups, n)
    eta = 0.5 + rng.normal(0.0, 0.5, cells)[cell] + rng.normal(0.0, 0.3, groups)[group]
    y = rng.poisson(np.exp(eta)).astype(float)
    comps = [lm.FixedEffect("mu"),
             lm.IidComponent("u", cells, lm.log_precision_hyper(
                 "u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))),
             lm.IidComponent("v", groups, lm.log_precision_hyper(
                 "v.prec", 1.0, prior=GaussianPrior(1.0, 0.5)))]
    part = lm.StackPart(y, {"mu": np.ones(n), "u": lm.index_block(cell, cells),
                            "v": lm.index_block(group, groups)}, "obs")
    return lm.build_stack([part], comps, PoissonLik())


class TestObservationBlocks:
    """assess reduces the (node, observation, quadrature) tensors block by block."""

    def test_results_do_not_depend_on_block_size(self, monkeypatch):
        model = many_rows_toy()
        fit = eng.fit(model, EngineConfig(int_strategy="ccd"))
        per_row = len(fit.nodes) * ass.GH_POINTS
        assert ass.BLOCK_ENTRIES // per_row < model.y.size     # the default splits the rows
        runs = []
        for entries in (1, ass.BLOCK_ENTRIES, per_row * model.y.size):
            monkeypatch.setattr(ass, "BLOCK_ENTRIES", entries)
            runs.append(ass.assess(fit, model))
        one_row, default, one_block = runs
        for d in (one_row, default):
            for name in ("cpo", "pit", "failure"):
                assert np.array_equal(getattr(d, name), getattr(one_block, name))
            assert (d.waic, d.p_waic) == (one_block.waic, one_block.p_waic)
            assert d.dic == pytest.approx(one_block.dic, rel=1e-12, abs=0)
            assert d.p_dic == pytest.approx(one_block.p_dic, rel=1e-12, abs=0)

    def test_peak_memory_set_by_the_block(self):
        model = many_rows_toy(n=4001)
        fit = eng.fit(model, EngineConfig(int_strategy="ccd"))
        n_obs = int(np.count_nonzero(model.observed))
        tensor_bytes = 8 * len(fit.nodes) * n_obs * ass.GH_POINTS
        # a dozen block-sized float tensors and 16 floats per row
        bound = 12 * 8 * ass.BLOCK_ENTRIES + 128 * n_obs
        assert tensor_bytes > bound          # one whole tensor would not fit
        tracemalloc.start()
        try:
            ass.assess(fit, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

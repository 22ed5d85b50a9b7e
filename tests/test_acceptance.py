"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success; tolerances are pinned to
the stated contracts and runtime budgets are asserted.
"""
import json
import time

import numpy as np
import pytest
from scipy.special import gammaln

import laplgm as lg
import laplgm.assessment as ass
import laplgm.cli as cli
import laplgm.engine as eng
import laplgm.latent as lm
import laplgm.marginals as mg
import laplgm.mesh as mm
import laplgm.simulation as sim
from laplgm.engine import EngineConfig
from laplgm.latent import GaussianPrior, HyperParam
from laplgm.likelihoods import GaussianLik, PoissonLik


def report(num, label, elapsed, budget):
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"
    print(f"\nACCEPTANCE {num}: PASS ({label}; {elapsed:.1f}s of {budget:.0f}s budget)")


# ------------------------------------------------------------------

def test_criterion_1_gaussian_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    n, nobs, tau_obs, tau_u = 40, 120, 2.0, 1.3
    lik = GaussianLik(HyperParam("o", np.log(tau_obs), "log", fixed=True))
    hy = lm.log_precision_hyper("u.prec", tau_u, fixed=True)
    idx = rng.integers(0, n, nobs)
    y = rng.normal(0.5, 1.0, nobs)
    part = lm.StackPart(y, {"mu": np.ones(nobs), "u": lm.index_block(idx, n)}, "obs")
    model = lm.build_stack([part], [lm.FixedEffect("mu"), lm.IidComponent("u", n, hy)], lik)
    fit = eng.fit(model, EngineConfig(int_strategy="eb"))

    A = model.A.toarray()
    Qpost = np.diag([1e-4] + [tau_u] * n) + tau_obs * A.T @ A
    mean = np.linalg.solve(Qpost, tau_obs * A.T @ y)
    sd = np.sqrt(np.diag(np.linalg.inv(Qpost)))
    for i in range(model.n_latent):
        z = mg.zmarginal(fit.latent_marginal(i))
        assert abs(z.mean - mean[i]) <= 1e-6
        assert abs(z.sd - sd[i]) <= 1e-6
    report(1, "latent means/sds match the dense conditional oracle at 1e-6",
           time.perf_counter() - t0, 1.0)


def test_criterion_2_hyper_marginal_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    cells, reps = 10, 4
    x_true = rng.normal(0.0, 1.0, cells)
    cell = np.repeat(np.arange(cells), reps)
    y = rng.poisson(np.exp(x_true)[cell]).astype(float)
    hy = lm.log_precision_hyper("u.prec", 1.0, prior=GaussianPrior(0.0, 0.5))
    part = lm.StackPart(y, {"u": lm.index_block(cell, cells)}, "obs")
    model = lm.build_stack([part], [lm.IidComponent("u", cells, hy)], PoissonLik())

    cfg = EngineConfig(int_strategy="grid", log_drop=5.0)
    engine = eng.Engine(model, cfg)
    ts, H, center = engine.find_mode()
    nodes = engine.explore(ts, H, center=center)
    m = eng.hyper_marginals(nodes, 0, ts, H)

    gh_t, gh_w = np.polynomial.hermite.hermgauss(40)

    def brute(th):
        # the iid structure factorizes the latent integral per cell
        sd = np.exp(-0.5 * th)
        xs = np.sqrt(2.0) * sd * gh_t
        total = 0.0
        for c in range(cells):
            yc = y[cell == c]
            ll = yc.sum() * xs - yc.size * np.exp(xs) - gammaln(yc + 1.0).sum()
            total += np.log((gh_w / np.sqrt(np.pi)) @ np.exp(ll))
        return total + hy.log_prior(th)

    lap_sd = np.sqrt(np.linalg.inv(-H)[0, 0])
    grid = np.linspace(ts[0] - 7 * lap_sd, ts[0] + 7 * lap_sd, 2000)
    lp = np.array([brute(t) for t in grid])
    dens = np.exp(lp - lp.max())
    dens /= np.trapezoid(dens, grid)
    interp = np.interp(grid, m.grid, m.density, left=0.0, right=0.0)
    tv = 0.5 * np.trapezoid(np.abs(interp - dens), grid)
    assert tv <= 0.02, f"total variation {tv:.4f}"
    report(2, f"hyper marginal TV vs tensor quadrature = {tv:.4f} <= 0.02",
           time.perf_counter() - t0, 10.0)


def test_criterion_3_sparse_algebra_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = int(rng.integers(5, 61))
        B = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.15)
        Qd = B @ B.T + n * np.eye(n)
        Q = lg.SparseSymmetric.from_full(Qd)
        f = lg.factorize(Q, lg.reorder(Q))
        assert abs(f.logdet - np.linalg.slogdet(Qd)[1]) <= 1e-8
        b = rng.standard_normal(n)
        assert np.abs(lg.solve(f, b) - np.linalg.solve(Qd, b)).max() <= 1e-8
        S = lg.selected_inverse(f)
        assert np.abs(S.diagonal() - np.diag(np.linalg.inv(Qd))).max() <= 1e-8
    report(3, "logdet/solve/selected-inverse match dense oracles on 50 instances",
           time.perf_counter() - t0, 5.0)


def test_criterion_4_spde_covariance_audit():
    t0 = time.perf_counter()
    mesh = mm.structured_mesh(-0.75, 1.75, -0.75, 1.75, 50, 50)
    fem = mm.assemble(mesh)
    kappa, tau = lm.matern_kappa_tau(0.25, 1.0, nu=1.0)
    Q = lm.spde_precision(fem, 2, kappa, tau)
    f = lg.factorize(Q)
    S = lg.selected_inverse(f)
    v = mesh.vertices
    interior = ((v[:, 0] >= 0) & (v[:, 0] <= 1) & (v[:, 1] >= 0) & (v[:, 1] <= 1))
    var = S.diagonal()[interior].mean()
    assert abs(var - 1.0) <= 0.10, f"interior variance {var:.4f}"

    center = int(np.argmin(np.abs(v[:, 0] - 0.5) + np.abs(v[:, 1] - 0.5)))
    e = np.zeros(mesh.n_vertices)
    e[center] = 1.0
    col = lg.solve(f, e)
    sd = np.sqrt(S.diagonal())
    corr = col / (sd * sd[center])
    d = np.hypot(v[:, 0] - v[center, 0], v[:, 1] - v[center, 1])
    ring = np.abs(d - 0.25) < 0.02
    c = corr[ring].mean()
    assert abs(c - 0.10) <= 0.03, f"correlation at the empirical range {c:.4f}"
    report(4, f"interior variance {var:.3f} within 10%, range correlation {c:.3f} in 0.1+-0.03",
           time.perf_counter() - t0, 30.0)


# ------------------------------------------------------------------
# desk-scaled simulation/reestimation machinery

TRUTH = {"intercept": -1.0, "covar1": 1.0, "covar2": 0.5, "a": 0.5}


def desk_simulate(seed, n_sites=30, n_times=20):
    mesh = mm.structured_mesh(-0.25, 1.25, -0.25, 1.25, 24, 24)
    sites = sim.random_sites(n_sites, seed)
    spec = sim.SimulationSpec(
        mesh=mesh, sites=sites, n_times=n_times, range0=0.25, sigma0=1.0,
        ar_coef=0.5, intercept=-1.0,
        covariates=[sim.CovariateSpec("covar1", "linear_time", 1.0),
                    sim.CovariateSpec("covar2", "ma5", 0.5)])
    return sim.simulate(spec, seed), sites


def desk_model(data, sites, kind="space_time"):
    """Candidate models over one simulated dataset."""
    T = data.n_times
    n_rows = data.n_rows
    y = data.y
    t_idx = data.row_time - 1
    cov1 = data.covariate_values["covar1"][t_idx]
    cov2 = data.covariate_values["covar2"][t_idx]

    if kind == "temporal_only":
        hy = lm.log_precision_hyper("trend.prec", 100.0)
        comps = [lm.FixedEffect("intercept"), lm.Rw1Component("trend", T, hy)]
        part = lm.StackPart(y, {"intercept": np.ones(n_rows),
                                "trend": lm.index_block(t_idx, T)}, "obs")
        return lm.build_stack([part], comps, PoissonLik())

    mesh = mm.structured_mesh(-0.25, 1.25, -0.25, 1.25, 13, 13)
    assert mesh.n_vertices <= 300
    fem = mm.assemble(mesh)
    proj = mm.projector(mesh, sites)
    if kind == "space_time":
        grouping = lm.Ar1Grouping(T, lm.correlation_hyper("spatial.a"))
    else:
        grouping = lm.ReplicateGrouping(T)
    spde = lm.spde_matern_component("spatial", fem, mesh, alpha=2,
                                    initial_range=0.25, grouping=grouping)
    comps = [lm.FixedEffect("intercept"), lm.FixedEffect("covar1"),
             lm.FixedEffect("covar2"), spde]
    block = lm.group_block(proj[data.row_site], t_idx, T)
    part = lm.StackPart(y, {"intercept": np.ones(n_rows), "covar1": cov1,
                            "covar2": cov2, "spatial": block}, "obs")
    return lm.build_stack([part], comps, PoissonLik())


def test_criterion_5_simulation_reestimation():
    t0 = time.perf_counter()
    seeds = [101, 202, 303, 404, 505]
    covered = {name: 0 for name in TRUTH}
    a_means = []
    for seed in seeds:
        t_fit = time.perf_counter()
        data, sites = desk_simulate(seed)
        model = desk_model(data, sites)
        fit = eng.fit(model, EngineConfig(int_strategy="ccd"))
        fit_time = time.perf_counter() - t_fit
        assert fit_time < 300.0, f"fit exceeded 5 minutes: {fit_time:.0f}s"

        fixed = fit.fixed_summary()
        for name in ("intercept", "covar1", "covar2"):
            z = fixed[name]
            if z.quantiles[0.025] <= TRUTH[name] <= z.quantiles[0.975]:
                covered[name] += 1
        za = mg.zmarginal(fit.hyper_marginal("spatial.a", scale="natural"))
        a_means.append(za.mean)
        if za.quantiles[0.025] <= TRUTH["a"] <= za.quantiles[0.975]:
            covered["a"] += 1

    for name, hits in covered.items():
        assert hits >= 4, f"{name} covered in only {hits}/5 runs"
    a_mean = float(np.mean(a_means))
    assert abs(a_mean - 0.5) <= 0.15, f"posterior mean of a: {a_mean:.3f}"
    report(5, f"coverage {covered}, mean posterior a = {a_mean:.3f}",
           time.perf_counter() - t0, 5 * 300.0)


def test_criterion_6_model_comparison_ordering():
    t0 = time.perf_counter()
    data, sites = desk_simulate(909)
    entries = []
    for name, kind in [("true_structure", "space_time"),
                       ("independent_time", "replicate"),
                       ("temporal_only", "temporal_only")]:
        model = desk_model(data, sites, kind)
        fit = eng.fit(model, EngineConfig(int_strategy="ccd"))
        ass.assess(fit, model)
        entries.append((name, fit, model))
    rows = {r["model"]: r for r in ass.compare(entries)}
    true_row = rows["true_structure"]
    temp_row = rows["temporal_only"]
    indep_row = rows["independent_time"]
    assert true_row["dic"] < temp_row["dic"]
    assert true_row["waic"] < temp_row["waic"]
    assert temp_row["mlik"] < true_row["mlik"]
    assert temp_row["mlik"] < indep_row["mlik"]
    report(6, "DIC/WAIC favor the true structure; temporal-only has the lowest mlik",
           time.perf_counter() - t0, 15 * 60.0)


def test_criterion_7_cpo_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    n, cells = 20, 5
    cell = np.repeat(np.arange(cells), n // cells)
    y = rng.poisson(np.exp(rng.normal(0.8, 0.5, cells)[cell])).astype(float)
    hy_prior = GaussianPrior(0.0, 0.5)

    def build(y_vec):
        hy = lm.log_precision_hyper("u.prec", 1.0, prior=hy_prior)
        comps = [lm.FixedEffect("mu"), lm.IidComponent("u", cells, hy)]
        part = lm.StackPart(y_vec, {"mu": np.ones(n),
                                    "u": lm.index_block(cell, cells)}, "obs")
        return lm.build_stack([part], comps, PoissonLik())

    model = build(y)
    fit = eng.fit(model)
    cpo, _, failure = ass.cpo_pit(fit, model)

    gh_t, gh_w = np.polynomial.hermite.hermgauss(21)
    gh_w = gh_w / np.sqrt(np.pi)
    rel = []
    for i in range(n):
        y_loo = y.copy()
        y_loo[i] = np.nan
        loo_model = build(y_loo)
        loo_fit = eng.fit(loo_model)
        dens = 0.0
        for ell in range(len(loo_fit.nodes)):
            param = None
            m = loo_fit.pred_mean[ell, i]
            s = loo_fit.pred_sd[ell, i]
            eta = m + np.sqrt(2.0) * s * gh_t
            dens += loo_fit.weights[ell] * (gh_w @ np.exp(
                loo_model.likelihood.log_lik(np.full(eta.shape, y[i]), eta, param)))
        if failure[i] == 0:
            rel.append(abs(cpo[i] - dens) / dens)
    rel = np.array(rel)
    assert rel.size >= 15
    assert np.median(rel) <= 0.05, f"median relative error {np.median(rel):.4f}"
    assert rel.max() <= 0.10, f"max relative error {rel.max():.4f}"
    report(7, f"CPO vs leave-one-out refits: median {np.median(rel):.3f}, max {rel.max():.3f}",
           time.perf_counter() - t0, 120.0)


def test_criterion_8_pit_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    n = 500
    lik = GaussianLik(HyperParam("o", 0.0, "log", fixed=True))
    hy = lm.log_precision_hyper("u.prec", 1.0, fixed=True)
    u = rng.normal(0, 1, n)
    y = u + rng.standard_normal(n)
    part = lm.StackPart(y, {"u": lm.index_block(range(n), n)}, "obs")
    model = lm.build_stack([part], [lm.IidComponent("u", n, hy)], lik)
    fit = eng.fit(model)
    _, pit, _ = ass.cpo_pit(fit, model)
    ks = np.max(np.abs(np.sort(pit) - np.arange(1, n + 1) / n))
    assert ks <= 0.08, f"KS statistic {ks:.4f}"
    report(8, f"PIT Kolmogorov-Smirnov statistic {ks:.4f} <= 0.08",
           time.perf_counter() - t0, 60.0)


def test_criterion_9_determinism_across_threads(tmp_path):
    t0 = time.perf_counter()
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text("""\
seed: 12
simulate:
  n_sites: 10
  n_times: 6
  mesh:
    kind: structured
    x_min: -0.25
    x_max: 1.25
    y_min: -0.25
    y_max: 1.25
    nx: 8
    ny: 8
  truth:
    intercept: -1.0
    ar_coef: 0.5
    range0: 0.25
    sigma0: 1.0
  covariates:
    - name: covar1
      kind: linear_time
      coef: 1.0
  family: poisson
""")
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["simulate", "--config", str(sim_cfg), "--out", str(s1)]) == 0
    assert cli.main(["simulate", "--config", str(sim_cfg), "--out", str(s2)]) == 0
    assert (s1 / "data.csv").read_bytes() == (s2 / "data.csv").read_bytes()

    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(f"""\
seed: 12
data: {s1 / 'data.csv'}
likelihood:
  family: poisson
mesh:
  kind: structured
  x_min: -0.25
  x_max: 1.25
  y_min: -0.25
  y_max: 1.25
  nx: 5
  ny: 5
components:
  - name: intercept
    kind: fixed_effect
    covariate: const
  - name: covar1
    kind: fixed_effect
    covariate: covar1
  - name: spatial
    kind: spde_matern
    alpha: 2
    initial_range: 0.3
    group:
      kind: ar1
predict:
  n_grid: 7
  time: 3
engine:
  int_strategy: ccd
""")
    o1, o4 = tmp_path / "t1", tmp_path / "t4"
    assert cli.main(["predict", "--config", str(fit_cfg), "--out", str(o1),
                     "--threads", "1"]) == 0
    assert cli.main(["predict", "--config", str(fit_cfg), "--out", str(o4),
                     "--threads", "4"]) == 0
    for name in ("summary_fixed.csv", "summary_hyper.csv", "pred_mean.csv",
                 "pred_sd.csv", "mlik.txt"):
        assert (o1 / name).read_bytes() == (o4 / name).read_bytes(), name
    report(9, "simulate and fit/predict outputs byte-identical across threads 1 and 4",
           time.perf_counter() - t0, 120.0)

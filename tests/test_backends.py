"""The band factorization and the engine's plans against dense oracles."""
import numpy as np
import pytest

import laplgm as lg
import laplgm.engine as eng
import laplgm.latent as lm
import laplgm.marginals as mg
import laplgm.mesh as mm
import laplgm.sparse as sps
from laplgm.engine import EngineConfig
from laplgm.latent import GaussianPrior, HyperParam
from laplgm.likelihoods import GaussianLik, PoissonLik


def test_backends_agree_on_mesh_precision():
    # the band factor under a minimum-degree order, a nearly dense band
    mesh = mm.structured_mesh(0, 1, 0, 1, 16, 16)
    fem = mm.assemble(mesh)
    kappa, tau = lm.matern_kappa_tau(0.3, 1.0)
    Q = lm.spde_precision(fem, 2, kappa, tau)
    f = lg.factorize(Q, lg.reorder(Q))
    Qd = Q.to_dense()
    assert f.logdet == pytest.approx(np.linalg.slogdet(Qd)[1], abs=1e-9)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(Q.n)
    assert np.abs(lg.solve(f, b) - np.linalg.solve(Qd, b)).max() <= 1e-9
    d = lg.selected_inverse(f).diagonal()
    assert np.abs(d - np.diag(np.linalg.inv(Qd))).max() <= 1e-10


def test_generic_takahashi_on_mesh_scale():
    # scattered minimum-degree pattern at a few hundred dimensions
    mesh = mm.structured_mesh(0, 1, 0, 1, 15, 15)
    fem = mm.assemble(mesh)
    Q = lm.spde_precision(fem, 2, 8.0, 0.05)
    f = lg.factorize(Q, lg.reorder(Q))
    S = lg.selected_inverse(f)
    dense = np.linalg.inv(Q.to_dense())
    assert np.abs(S.diagonal() - np.diag(dense)).max() <= 1e-8
    coo = S.lower.tocoo()
    err = max(abs(v - dense[i, j]) for i, j, v in zip(coo.row, coo.col, coo.data))
    assert err <= 1e-8


def test_engine_fit_on_splu_backend():
    # the full engine flow (plan caching, pair plan, constraints) against the
    # dense subspace oracle
    rng = np.random.default_rng(5)
    m = 10
    tau_obs = 2.5
    lik = GaussianLik(HyperParam("o", np.log(tau_obs), "log", fixed=True))
    hyp = lm.log_precision_hyper("rw.prec", 1.0, prior=GaussianPrior(0.0, 0.2))
    idx = rng.integers(0, m, 35)
    y = np.cos(np.linspace(0, 2, m))[idx] + rng.normal(0, 0.6, 35)
    part = lm.StackPart(y, {"mu": np.ones(35), "f": lm.index_block(idx, m)}, "obs")
    model = lm.build_stack(
        [part], [lm.FixedEffect("mu"), lm.Rw1Component("f", m, hyp)], lik)
    fit = eng.fit(model, EngineConfig(int_strategy="grid"))
    engine = fit.engine
    # moments match the dense subspace oracle at the mode
    import scipy.linalg
    A = model.A.toarray()
    tau = np.exp(fit.theta_mode[0])
    R = np.zeros((m + 1, m + 1))
    R[0, 0] = 1e-4
    R[1:, 1:] = lm.rw1_structure(m, tau).to_dense()
    ones = np.zeros(m + 1)
    ones[1:] = 1.0
    Un = scipy.linalg.null_space(ones[None, :])
    Qz = Un.T @ R @ Un + tau_obs * (A @ Un).T @ (A @ Un)
    mean_z = np.linalg.solve(Qz, tau_obs * (A @ Un).T @ y)
    cov_x = Un @ np.linalg.inv(Qz) @ Un.T
    q = engine.node_quantities(fit.theta_mode)
    assert np.abs(q["x_star"] - Un @ mean_z).max() <= 1e-8
    assert np.abs(q["latent_sd"] - np.sqrt(np.diag(cov_x))).max() <= 1e-8


def test_band_hint_matches_detection():
    mesh = mm.structured_mesh(0, 1, 0, 1, 8, 8)
    fem = mm.assemble(mesh)
    T = 3
    spde = lm.spde_matern_component("s", fem, mesh, alpha=2, initial_range=0.4,
                                    grouping=lm.Ar1Grouping(
                                        T, lm.correlation_hyper("a")))
    rng = np.random.default_rng(1)
    sites = rng.random((9, 2))
    proj = mm.projector(mesh, sites)
    t_idx = np.repeat(np.arange(T), 9)
    block = lm.group_block(proj[np.tile(np.arange(9), T)], t_idx, T)
    y = rng.poisson(1.0, 27).astype(float)
    part = lm.StackPart(y, {"mu": np.ones(27), "s": block}, "obs")
    model = lm.build_stack([part], [lm.FixedEffect("mu"), spde], PoissonLik())
    engine = eng.Engine(model)
    # fixed effects moved last: border of exactly one column
    assert engine._symbolic.nb == 1
    theta0 = model.theta_initial()
    _, approx = engine.log_posterior(theta0, return_approx=True)
    backend = approx.factor._backend
    assert isinstance(backend, sps._BandedBackend)
    assert (backend.w, backend.nb) == (engine._symbolic.w, engine._symbolic.nb)
    # the hinted layout reproduces the matrix
    Qd = approx.Q_star.to_dense()
    order = engine.perm.order
    P = np.eye(model.n_latent)[order]
    L = approx.factor.L.toarray()
    assert np.abs(P @ Qd @ P.T - L @ L.T).max() <= 1e-10 * np.abs(Qd).max()


def test_grouped_field_predictor_variances_exact():
    # grouped SPDE + fixed effects + prediction rows vs the dense conditional
    rng = np.random.default_rng(9)
    mesh = mm.structured_mesh(0, 1, 0, 1, 3, 3)
    fem = mm.assemble(mesh)
    T = 3
    ns = mesh.n_vertices
    spde = lm.spde_matern_component("s", fem, mesh, alpha=2, initial_range=0.5,
                                    grouping=lm.Ar1Grouping(
                                        T, lm.correlation_hyper("a", fixed=True)))
    spde.log_tau.fixed = True
    spde.log_kappa.fixed = True
    tau_obs = 2.0
    lik = GaussianLik(HyperParam("o", np.log(tau_obs), "log", fixed=True))
    sites = rng.random((7, 2))
    proj = mm.projector(mesh, sites)
    t_idx = np.repeat(np.arange(T), 7)
    obs_block = lm.group_block(proj[np.tile(np.arange(7), T)], t_idx, T)
    y = rng.normal(0.0, 1.0, 7 * T)
    cov = rng.random(7 * T)
    obs = lm.StackPart(y, {"mu": np.ones(7 * T), "z": cov, "s": obs_block}, "obs")
    grid_pts = rng.random((11, 2))
    pred_block = lm.group_block(mm.projector(mesh, grid_pts), np.full(11, 1), T)
    pred = lm.StackPart(np.full(11, np.nan),
                        {"mu": np.ones(11), "z": np.full(11, 0.3), "s": pred_block},
                        "pred")
    model = lm.build_stack([obs, pred],
                           [lm.FixedEffect("mu"), lm.FixedEffect("z"), spde], lik)
    engine = eng.Engine(model)
    q = engine.node_quantities(np.zeros(0))

    A = model.A.toarray()
    A_obs = A[model.observed]
    Qp = model.prior_quantities(np.zeros(0))[0].toarray()
    Qpost = Qp + tau_obs * A_obs.T @ A_obs
    cov_post = np.linalg.inv(Qpost)
    mean = cov_post @ (tau_obs * A_obs.T @ y)
    assert np.abs(q["x_star"] - mean).max() <= 1e-8
    assert np.abs(q["latent_sd"] - np.sqrt(np.diag(cov_post))).max() <= 1e-8
    want_sd = np.sqrt(np.einsum("rn,nm,rm->r", A, cov_post, A))
    assert np.abs(q["pred_sd"] - want_sd).max() <= 1e-8


def test_spde_summary_transform_consistency():
    import laplgm.assessment as ass
    rng = np.random.default_rng(3)
    mesh = mm.structured_mesh(-0.25, 1.25, -0.25, 1.25, 8, 8)
    fem = mm.assemble(mesh)
    spde = lm.spde_matern_component("s", fem, mesh, alpha=2, initial_range=0.4)
    sites = rng.random((40, 2))
    proj = mm.projector(mesh, sites)
    y = rng.poisson(1.5, 40).astype(float)
    part = lm.StackPart(y, {"mu": np.ones(40), "s": proj}, "obs")
    model = lm.build_stack([part], [lm.FixedEffect("mu"), spde], PoissonLik())
    fit = eng.fit(model, EngineConfig(int_strategy="ccd"))
    summ = ass.spde_field_summary(fit, model, "s")
    # the range marginal must agree with transforming the log-kappa marginal
    m_kappa = fit.hyper_marginal("s.log_kappa")
    direct = mg.transform_marginal(
        m_kappa, lambda t: np.sqrt(8.0) * np.exp(-t),
        lambda t: -np.sqrt(8.0) * np.exp(-t))
    assert mg.zmarginal(summ["range"]).mean == pytest.approx(
        mg.zmarginal(direct).mean, rel=0.05)
    assert summ["variance"].integral() == pytest.approx(1.0, abs=1e-6)


def test_fit_reads_selected_inverse_in_place(monkeypatch):
    # no step of a fit builds the CSC form of a selected inverse
    def refuse(self):
        raise AssertionError("SelectedInverse.lower was built during a fit")

    monkeypatch.setattr(sps.SelectedInverse, "lower", property(refuse))
    rng = np.random.default_rng(8)
    mesh = mm.structured_mesh(0, 1, 0, 1, 6, 6)
    spde = lm.spde_matern_component("s", mm.assemble(mesh), mesh, alpha=2, initial_range=0.4)
    sites = rng.random((30, 2))
    y = rng.poisson(2.0, 30).astype(float)
    part = lm.StackPart(y, {"mu": np.ones(30), "s": mm.projector(mesh, sites)}, "obs")
    model = lm.build_stack([part], [lm.FixedEffect("mu"), spde], PoissonLik())
    fit = eng.fit(model, EngineConfig(int_strategy="ccd"))
    assert fit.counts["gradients"] >= 1 and len(fit.nodes) >= 3
    assert np.all(np.isfinite(fit.latent_sd)) and np.all(np.isfinite(fit.pred_sd))
    with pytest.raises(AssertionError, match="was built"):
        lg.selected_inverse(lg.factorize(lg.SparseSymmetric.from_full(np.eye(2)))).lower


@pytest.mark.parametrize("backend", ["band"])
def test_plan_assembled_conditional_precision(backend):
    # Q* laid on the engine's fixed pattern vs prior_quantities + A' diag(c) A
    rng = np.random.default_rng(12)
    mesh = mm.structured_mesh(0, 1, 0, 1, 4, 4)
    fem = mm.assemble(mesh)
    T = 3
    spde = lm.spde_matern_component("s", fem, mesh, alpha=2, initial_range=0.5,
                                    grouping=lm.Ar1Grouping(T, lm.correlation_hyper("a")))
    sites = rng.random((5, 2))
    t_idx = np.repeat(np.arange(T), 5)
    block = lm.group_block(mm.projector(mesh, sites)[np.tile(np.arange(5), T)], t_idx, T)
    y = rng.poisson(1.5, 5 * T).astype(float)
    part = lm.StackPart(y, {"mu": np.ones(5 * T), "z": rng.random(5 * T), "s": block}, "obs")
    model = lm.build_stack([part], [lm.FixedEffect("mu"), lm.FixedEffect("z"), spde],
                           PoissonLik())
    engine = eng.Engine(model)
    theta = model.theta_initial() + np.array([0.3, -0.2, -1.5])
    Qp = model.prior_quantities(theta)[0]
    c = rng.uniform(0.2, 3.0, y.size)
    Q_star = engine._conditional_precision(engine._prior_on_pattern(Qp), c)
    A = model.A.toarray()
    want = Qp.toarray() + A.T @ np.diag(c) @ A
    assert np.abs(Q_star.to_dense() - want).max() <= 1e-10
    factor = eng.factorize(Q_star, engine._symbolic)
    assert factor.logdet == pytest.approx(np.linalg.slogdet(want)[1], abs=1e-10)
    # the Newton iteration goes through the same plan
    approx = engine.gaussian_approximation(theta)
    assert approx.factor.symbolic is engine._symbolic


def _strip_model(rng, m=5, nx=40, nsite=4, npred=40):
    """Gaussian rw1 trend + SPDE field on a long strip; observations sit at the
    strip's left end, and every prediction row pairs the last rw1 node with
    field nodes along the whole strip, most of them far from the data."""
    mesh = mm.structured_mesh(0, 10, 0, 1, nx, 3)
    fem = mm.assemble(mesh)
    spde = lm.spde_matern_component("s", fem, mesh, alpha=2, initial_range=2.0)
    spde.log_tau.fixed = True
    spde.log_kappa.fixed = True
    trend = lm.Rw1Component("t", m, lm.log_precision_hyper("t.prec", 2.0, fixed=True),
                            sum_to_zero=True)
    lik = GaussianLik(HyperParam("o", np.log(2.0), "log", fixed=True))
    t_obs = np.repeat(np.arange(m), nsite)
    sites = np.column_stack([rng.uniform(0, 1, t_obs.size), rng.uniform(0, 1, t_obs.size)])
    obs = lm.StackPart(rng.normal(0, 1, t_obs.size),
                       {"mu": np.ones(t_obs.size), "t": lm.index_block(t_obs, m),
                        "s": mm.projector(mesh, sites)}, "obs")
    grid = np.column_stack([np.linspace(0.2, 9.8, npred), np.full(npred, 0.5)])
    pred = lm.StackPart(np.full(npred, np.nan),
                        {"mu": np.ones(npred), "t": lm.index_block(np.full(npred, m - 1), m),
                         "s": mm.projector(mesh, grid)}, "pred")
    return lm.build_stack([obs, pred], [lm.FixedEffect("mu"), trend, spde], lik)


@pytest.mark.parametrize("backend", ["band"])
def test_predictor_pairs_inside_pattern(backend, monkeypatch):
    # the pattern of Q* holds the pairs of the unobserved prediction rows too:
    # the last rw1 column, which they pair with field nodes along the whole
    # strip, is a hub of the border, and every predictor variance reads the
    # selected inverse with no solve
    model = _strip_model(np.random.default_rng(3))
    engine = eng.Engine(model)
    keys, _, _ = eng._row_pairs(model.A)
    cols, rows = np.divmod(keys, model.n_latent)
    _, inside = engine._symbolic.selected_inverse_slots(rows, cols)
    assert inside.all()
    last_rw1 = model.col_offsets["t"][0] + 4
    assert last_rw1 in engine.perm.order[engine.n - engine._symbolic.nb:]
    theta = np.zeros(0)
    q = engine.node_quantities(theta)

    _, approx = engine.log_posterior(theta, return_approx=True)
    S = lg.selected_inverse(approx.factor)
    shapes = []
    real = eng.solve

    def spy(factor, b):
        shapes.append(np.shape(b))
        return real(factor, b)

    monkeypatch.setattr(eng, "solve", spy)
    engine._predictor_variances(S)
    assert shapes == []

    # dense conditional with the sum-to-zero constraint
    A = model.A.toarray()
    A_obs = A[model.observed]
    Qpost = model.prior_quantities(theta)[0].toarray() + 2.0 * A_obs.T @ A_obs
    cov = np.linalg.inv(Qpost)
    M = model.constraint_matrix
    cov = cov - cov @ M.T @ np.linalg.solve(M @ cov @ M.T, M @ cov)
    assert np.abs(q["latent_sd"] - np.sqrt(np.diag(cov))).max() <= 1e-8
    want_sd = np.sqrt(np.einsum("rn,nm,rm->r", A, cov, A))
    assert np.abs(q["pred_sd"] - want_sd).max() <= 1e-8


# ------------------------------------------------------------------
# hub columns in the dense border

def _trend_field_model(n_sites, seed=11, T=12, trend=True):
    """Two fixed effects, an rw1 trend over T time levels (sum to zero) and a
    replicate SPDE field on a 13 x 13 mesh, with Gaussian observations at the
    same n_sites sites at every time level: each trend column couples to every
    field node near a site at its time, far more than a field node's stencil."""
    rng = np.random.default_rng(seed)
    mesh = mm.structured_mesh(-0.25, 1.25, -0.25, 1.25, 12, 12)
    fem = mm.assemble(mesh)
    spde = lm.spde_matern_component("s", fem, mesh, alpha=2, initial_range=0.3,
                                    grouping=lm.ReplicateGrouping(T))
    sites = rng.random((n_sites, 2))
    t_idx = np.repeat(np.arange(T), n_sites)
    nobs = t_idx.size
    blocks = {"mu": np.ones(nobs), "z": rng.random(nobs),
              "s": lm.group_block(mm.projector(mesh, sites)[np.tile(np.arange(n_sites), T)],
                                  t_idx, T)}
    comps = [lm.FixedEffect("mu"), lm.FixedEffect("z")]
    if trend:
        blocks["t"] = lm.index_block(t_idx, T)
        comps.append(lm.Rw1Component("t", T, lm.log_precision_hyper("t.prec", 1.0)))
    comps.append(spde)
    part = lm.StackPart(rng.normal(0.0, 1.0, nobs), blocks, "obs")
    return lm.build_stack([part], comps, GaussianLik(HyperParam("o", np.log(4.0), "log")))


@pytest.fixture
def old_ordering(monkeypatch):
    """Engines built under it order without the hub-border candidate."""
    monkeypatch.setattr(eng.Engine, "_hub_border_order", lambda *args: None)


@pytest.mark.parametrize("n_sites", [60, 15])
def test_trend_columns_join_the_border(n_sites):
    model = _trend_field_model(n_sites)
    engine = eng.Engine(model)
    sym = engine._symbolic
    start, size = model.col_offsets["t"]
    assert set(range(start, start + size)) <= set(engine.perm.order[engine.n - sym.nb:])
    assert sym.nb == size + 2
    spatial = eng.Engine(_trend_field_model(n_sites, trend=False))._symbolic
    assert sym.w <= spatial.w


@pytest.mark.parametrize("nx, T", [(5, 6), (13, 8)])
def test_no_hubs_keeps_permutation(nx, T, request):
    # an SPDE x AR(1) field: at nx = 5 hub borders are scored and lose; at
    # nx = 13, the desk shape, more columns share the highest degree than the
    # border holds, so none is tried
    rng = np.random.default_rng(nx)
    mesh = mm.structured_mesh(0, 1, 0, 1, nx, nx)
    spde = lm.spde_matern_component("s", mm.assemble(mesh), mesh, alpha=2, initial_range=0.4,
                                    grouping=lm.Ar1Grouping(T, lm.correlation_hyper("a")))
    sites = rng.random((20, 2))
    t_idx = np.repeat(np.arange(T), 20)
    block = lm.group_block(mm.projector(mesh, sites)[np.tile(np.arange(20), T)], t_idx, T)
    part = lm.StackPart(rng.poisson(1.0, t_idx.size).astype(float),
                        {"mu": np.ones(t_idx.size), "z": rng.random(t_idx.size), "s": block},
                        "obs")
    model = lm.build_stack([part], [lm.FixedEffect("mu"), lm.FixedEffect("z"), spde],
                           PoissonLik())
    order = eng.Engine(model).perm.order
    request.getfixturevalue("old_ordering")
    assert np.array_equal(order, eng.Engine(model).perm.order)


def test_hub_border_log_posterior_and_factor(request):
    model = _trend_field_model(60)
    engine = eng.Engine(model)
    request.getfixturevalue("old_ordering")
    old = eng.Engine(model)
    assert engine._symbolic.w < old._symbolic.w
    for shift in (0.0, 0.7, -1.2):
        theta = model.theta_initial() + shift
        lp = engine.log_posterior(theta, x_init=np.zeros(model.n_latent))
        assert lp == pytest.approx(old.log_posterior(theta, x_init=np.zeros(model.n_latent)),
                                   abs=1e-9)
    _, approx = engine.log_posterior(model.theta_initial(), return_approx=True)
    order = engine.perm.order
    PQP = approx.Q_star.full()[order][:, order]
    L = approx.factor.L
    assert abs(L @ L.T - PQP).max() <= 1e-12 * abs(PQP).max()

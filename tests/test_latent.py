import numpy as np
import pytest
import scipy.sparse as sp

import laplgm.latent as lm
import laplgm.mesh as mm
from laplgm.errors import DimensionMismatch, InvalidCorrelation, InvalidParameter, UnknownTag
from laplgm.likelihoods import PoissonLik
from laplgm.sparse import factorize


class TestAr1Precision:
    def test_zero_correlation_identity(self):
        Q = lm.ar1_precision(5, 0.0, 1.0)
        assert np.allclose(Q.to_dense(), np.eye(5))

    def test_two_by_two(self):
        Q = lm.ar1_precision(2, 0.5, 1.0)
        assert np.allclose(Q.to_dense(), [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]])

    def test_inverse_is_ar1_covariance(self):
        Q = lm.ar1_precision(4, 0.5)
        inv = np.linalg.inv(Q.to_dense())
        assert np.allclose(np.diag(inv), 1.0)
        assert inv[0, 1] == pytest.approx(0.5)

    def test_unit_diagonal_oracle_sweep(self):
        for n in (2, 5, 10):
            for a in (-0.8, 0.3, 0.9):
                inv = np.linalg.inv(lm.ar1_precision(n, a).to_dense())
                cov = np.array([[a ** abs(i - j) for j in range(n)] for i in range(n)])
                assert np.abs(inv - cov).max() <= 1e-10

    def test_invalid_correlation(self):
        with pytest.raises(InvalidCorrelation):
            lm.ar1_precision(3, 1.0)


class TestRw1Structure:
    def test_three_by_three(self):
        R = lm.rw1_structure(3, 1.0)
        assert np.allclose(R.to_dense(), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_row_sums_zero(self):
        R = lm.rw1_structure(17, 2.3)
        assert np.abs(R.to_dense().sum(axis=1)).max() <= 1e-12

    def test_difference_oracle(self):
        n = 6
        D = np.zeros((n - 1, n))
        for i in range(n - 1):
            D[i, i], D[i, i + 1] = -1.0, 1.0
        assert np.allclose(lm.rw1_structure(n).to_dense(), D.T @ D)

    def test_unit_increment_quadratic_form(self):
        for n in (3, 8, 20):
            x = np.arange(1.0, n + 1.0)
            assert lm.rw1_structure(n, 2.0).quad(x) == pytest.approx(2.0 * (n - 1))


class TestSpdePrecision:
    def test_alpha1_formula(self):
        fem = mm.assemble(mm.structured_mesh(0, 1, 0, 1, 3, 3))
        Q = lm.spde_precision(fem, 1, kappa=2.0, tau=1.5)
        want = 1.5**2 * (4.0 * np.diag(fem.mass_diag) + fem.stiffness.to_dense())
        assert np.abs(Q.to_dense() - want).max() <= 1e-12

    def test_alpha2_formula(self):
        fem = mm.assemble(mm.structured_mesh(0, 1, 0, 1, 3, 3))
        Q = lm.spde_precision(fem, 2, kappa=2.0, tau=0.7)
        C = np.diag(fem.mass_diag)
        G = fem.stiffness.to_dense()
        want = 0.7**2 * (16.0 * C + 8.0 * G + G @ np.diag(1.0 / fem.mass_diag) @ G)
        assert np.abs(Q.to_dense() - want).max() <= 1e-10

    def test_spd(self):
        fem = mm.assemble(mm.structured_mesh(0, 1, 0, 1, 4, 4))
        for alpha in (1, 2):
            Q = lm.spde_precision(fem, alpha, 3.0, 1.0)
            assert np.linalg.eigvalsh(Q.to_dense()).min() > 0

    def test_variance_decreasing_in_kappa(self):
        mesh = mm.structured_mesh(-0.75, 1.75, -0.75, 1.75, 20, 20)
        fem = mm.assemble(mesh)
        kappa, tau = lm.matern_kappa_tau(0.25, 1.0)
        import laplgm as lg
        inside = ((mesh.vertices[:, 0] - 0.5) ** 2 + (mesh.vertices[:, 1] - 0.5) ** 2) < 0.01
        var = []
        for k in (kappa, 2 * kappa, 4 * kappa):
            S = lg.selected_inverse(lg.factorize(lm.spde_precision(fem, 2, k, tau)))
            var.append(S.diagonal()[inside].mean())
        assert var[0] > var[1] > var[2]


@pytest.mark.parametrize("alpha", [1, 2])
def test_spde_precision_is_component_prior(alpha):
    # the builder evaluates the component's own terms and coefficients, so
    # the two agree bit for bit on the lower triangle the fit reads
    fem = mm.assemble(mm.structured_mesh(-0.25, 1.25, -0.25, 1.25, 24, 24))
    kappa, tau = lm.matern_kappa_tau(0.25, 1.0, nu=lm._matern_nu(alpha))
    comp = lm.SpdeMaternComponent("s", fem, alpha, lm.HyperParam("t", fixed=True),
                                  lm.HyperParam("k", fixed=True))
    prior = comp.precision({"t": np.log(tau), "k": np.log(kappa)})
    Q = lm.spde_precision(fem, alpha, kappa, tau)
    assert np.array_equal(Q.lower.toarray(), sp.tril(prior).toarray())


def test_ar1_precision_is_component_prior():
    # with s = tau/(1 - a^2), the closed forms (1 + a^2) s and, at n = 1, tau
    # round apart from the terms' sums s + a^2 s and s - a^2 s at these values
    log_tau, a_int = np.log(0.3), -1.3
    a = lm.TRANSFORMS["correlation"][0](a_int)
    corr = lm.HyperParam("a", transform="correlation", fixed=True)
    for n in (1, 2, 6):
        comp = lm.Ar1Component("v", n, lm.HyperParam("p", fixed=True), corr)
        prior = comp.precision({"p": log_tau, "a": a_int})
        Q = lm.ar1_precision(n, a, np.exp(log_tau))
        assert np.array_equal(Q.to_dense(), prior.toarray())


def grouped_ar1(Qs_d, T, a):
    """kron(ar1_precision(T, a), Qs) as Ar1Grouping lays it on the Kronecker pattern."""
    grouping = lm.Ar1Grouping(T, lm.HyperParam("a", transform="correlation", fixed=True))
    block = lm._Terms([Qs_d])
    kron = lm._KronMap(grouping.terms.pattern, block.pattern)
    data_t, _ = grouping.coupling({"a": np.log((1.0 + a) / (1.0 - a))})
    P = kron.pattern
    return sp.csc_matrix((kron.combine(data_t, block.values[0]), P.indices, P.indptr),
                         shape=P.shape).toarray()


class TestGroupAr1:
    def test_zero_correlation_block_diagonal(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((3, 3))
        Qs_d = B @ B.T + 3 * np.eye(3)
        assert np.allclose(grouped_ar1(Qs_d, 4, 0.0), np.kron(np.eye(4), Qs_d))

    def test_single_group_unchanged(self):
        Qs_d = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(grouped_ar1(Qs_d, 1, 0.7), Qs_d)

    def test_kron_oracle(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((2, 2))
        Qs_d = B @ B.T + 2 * np.eye(2)
        oracle = np.kron(lm.ar1_precision(2, 0.5).to_dense(), Qs_d)
        assert np.abs(grouped_ar1(Qs_d, 2, 0.5) - oracle).max() <= 1e-12

    def test_kron_oracle_sweep(self):
        rng = np.random.default_rng(2)
        for n, T in [(2, 4), (4, 8), (8, 8)]:
            B = rng.standard_normal((n, n))
            Qs_d = B @ B.T + n * np.eye(n)
            for a in (-0.4, 0.6):
                oracle = np.kron(lm.ar1_precision(T, a).to_dense(), Qs_d)
                assert np.abs(grouped_ar1(Qs_d, T, a) - oracle).max() <= 1e-10

    def test_invalid(self):
        # internal 40 rounds the correlation to exactly 1
        grouping = lm.Ar1Grouping(3, lm.HyperParam("a", transform="correlation", fixed=True))
        with pytest.raises(InvalidCorrelation):
            grouping.coupling({"a": 40.0})


class TestTransforms:
    def test_round_trips(self):
        # natural() inverts each transform's closed-form internal map
        for transform, values, internal in [
                ("log", (0.1, 1.0, 17.3), np.log),
                ("correlation", (-0.95, 0.0, 0.5, 0.99), lambda a: np.log((1 + a) / (1 - a))),
                ("identity", (-3.0, 0.0, 2.5), lambda v: v)]:
            h = lm.HyperParam("h", 0.0, transform, fixed=True)
            for v in values:
                assert h.natural(internal(v)) == pytest.approx(v, abs=1e-12)

    def test_correlation_internal_formula(self):
        # 2 expit(t) - 1 = tanh(t / 2)
        h = lm.correlation_hyper("a")
        t = np.linspace(-8.0, 8.0, 33)
        assert np.abs(h.natural(t) - np.tanh(t / 2)).max() <= 1e-15
        assert h.natural(np.log(1.5 / 0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_derivatives_match_central_differences(self):
        t = np.linspace(-3.0, 3.0, 25)
        step = 1e-5
        for forward, derivative in lm.TRANSFORMS.values():
            fd = (forward(t + step) - forward(t - step)) / (2 * step)
            assert np.abs(derivative(t) - fd).max() <= 1e-8 * (1 + np.abs(fd).max())


class TestPriors:
    def test_gaussian_prior_at_mean(self):
        p = lm.GaussianPrior(0.0, 0.15)
        assert p.log_density(0.0) == pytest.approx(0.5 * (np.log(0.15) - np.log(2 * np.pi)))

    def test_loggamma_jacobian(self):
        from scipy.stats import gamma
        p = lm.LogGammaPrior(10.0, 1.0)
        v = 10.0
        want = gamma.logpdf(v, a=10.0, scale=1.0) + np.log(v)
        assert p.log_density(np.log(v)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("build", [
    lambda: lm.GaussianPrior(0.0, -1.0),
    lambda: lm.LogGammaPrior(-1.0, 1.0),
    lambda: lm.FixedEffect("b", -1.0),
    lambda: lm.spde_precision(mm.assemble(mm.structured_mesh(0, 1, 0, 1, 2, 2)), 2, -1.0, 1.0),
    lambda: lm.rw1_structure(1),
], ids=["gaussian-prior", "loggamma-prior", "fixed-effect", "spde-kappa", "rw1-one-level"])
def test_domain_errors_are_package_errors(build):
    # a value outside its domain raises the package's error, still a ValueError
    with pytest.raises(InvalidParameter):
        build()


def toy_graph():
    hy = lm.log_precision_hyper("u.prec", 4.0)
    comps = [lm.FixedEffect("intercept"), lm.IidComponent("u", 2, hy)]
    part = lm.StackPart(
        y=np.array([1.0, 2.0, np.nan]),
        blocks={"intercept": np.ones(3), "u": lm.index_block([0, 1, 0], 2)},
        tag="obs")
    return lm.build_stack([part], comps, PoissonLik())


class TestModelGraph:
    def test_single_part_tags(self):
        g = toy_graph()
        assert g.tags == {"obs": range(0, 3)}
        assert g.A.shape == (3, 3)
        assert np.array_equal(g.observed, [True, True, False])

    def test_prior_precision_assembly(self):
        g = toy_graph()
        Q = g.prior_quantities(np.array([np.log(4.0)]))[0]
        assert np.allclose(Q.toarray(), np.diag([1e-4, 4.0, 4.0]))

    def test_iid_transform(self):
        hy = lm.log_precision_hyper("u.prec", 1.0)
        g = lm.build_stack(
            [lm.StackPart(np.array([1.0, 0.0, 2.0]),
                          {"u": lm.index_block([0, 1, 2], 3)}, "obs")],
            [lm.IidComponent("u", 3, hy)], PoissonLik())
        Q = g.prior_quantities(np.array([np.log(4.0)]))[0]
        assert np.allclose(Q.toarray(), 4.0 * np.eye(3))

    def test_spde_delegation(self):
        mesh = mm.structured_mesh(0, 1, 0, 1, 3, 3)
        fem = mm.assemble(mesh)
        comp = lm.spde_matern_component("s", fem, mesh, alpha=2)
        rows = mesh.n_vertices
        part = lm.StackPart(np.ones(rows), {"s": sp.identity(rows, format="csr")}, "obs")
        g = lm.build_stack([part], [comp], PoissonLik())
        theta = g.theta_initial()
        Q = g.prior_quantities(theta)[0]
        tau, kappa = np.exp(theta)
        C = np.diag(fem.mass_diag)
        G = fem.stiffness.to_dense()
        want = tau**2 * (kappa**4 * C + 2.0 * kappa**2 * G + G @ np.linalg.inv(C) @ G)
        assert np.abs(Q.toarray() - want).max() <= 1e-12

    def test_stack_join_paper_scale_shapes(self):
        # 3000 observation rows plus a 51x51 prediction grid of missing rows
        hy = lm.log_precision_hyper("u.prec", 1.0)
        comps = [lm.IidComponent("u", 60, hy)]
        rng = np.random.default_rng(0)
        obs = lm.StackPart(rng.poisson(1.0, 3000).astype(float),
                           {"u": lm.index_block(rng.integers(0, 60, 3000), 60)}, "obs")
        pred = lm.StackPart(np.full(51 * 51, np.nan),
                            {"u": lm.index_block(rng.integers(0, 60, 2601), 60)}, "pred")
        g = lm.build_stack([obs, pred], comps, PoissonLik())
        assert g.A.shape[0] == 5601
        assert g.tags["pred"] == range(3000, 5601)
        assert int(np.sum(~g.observed)) == 2601

    def test_stack_join_rows(self):
        hy = lm.log_precision_hyper("u.prec", 1.0)
        comps = [lm.IidComponent("u", 4, hy)]
        obs = lm.StackPart(np.arange(6.0), {"u": lm.index_block([0, 1, 2, 3, 0, 1], 4)}, "obs")
        pred = lm.StackPart(np.full(3, np.nan), {"u": lm.index_block([0, 1, 2], 4)}, "pred")
        g = lm.build_stack([obs, pred], comps, PoissonLik())
        assert g.A.shape == (9, 4)
        assert g.tags["pred"] == range(6, 9)
        assert np.allclose(g.A[:6].toarray(),
                           lm.index_block([0, 1, 2, 3, 0, 1], 4).toarray())

    def test_dimension_mismatch(self):
        hy = lm.log_precision_hyper("u.prec", 1.0)
        comps = [lm.IidComponent("u", 4, hy)]
        bad = lm.StackPart(np.ones(2), {"u": lm.index_block([0, 1], 3)}, "obs")
        with pytest.raises(DimensionMismatch):
            lm.build_stack([bad], comps, PoissonLik())

    def test_unknown_tag(self):
        g = toy_graph()
        with pytest.raises(UnknownTag):
            g.tag_range("nope")

    def test_rw1_attaches_constraint(self):
        hy = lm.log_precision_hyper("f.prec", 1.0)
        comps = [lm.Rw1Component("f", 5, hy, sum_to_zero=True)]
        part = lm.StackPart(np.ones(5), {"f": lm.index_block(range(5), 5)}, "obs")
        g = lm.build_stack([part], comps, PoissonLik())
        assert g.constraint_matrix.shape == (1, 5)
        assert np.allclose(g.constraint_matrix[0], 1.0)

    def test_hyper_soft_limit_warns(self):
        comps = [lm.IidComponent(f"u{i}", 1, lm.log_precision_hyper(f"u{i}.prec"))
                 for i in range(11)]
        blocks = {f"u{i}": lm.index_block([0], 1) for i in range(11)}
        part = lm.StackPart(np.ones(1), blocks, "obs")
        with pytest.warns(UserWarning):
            lm.build_stack([part], comps, PoissonLik())


class TestLogPriorTheta:
    def test_gaussian_prior_value(self):
        g = toy_graph()
        want = 0.5 * (np.log(0.1) - np.log(2 * np.pi))
        assert lm.log_prior_theta(g, np.array([0.0])) == pytest.approx(want)

    def test_loggamma_with_jacobian(self):
        from scipy.stats import gamma
        hy = lm.HyperParam("u.prec", np.log(10.0), "log", lm.LogGammaPrior(10.0, 1.0))
        g = lm.build_stack(
            [lm.StackPart(np.ones(2), {"u": lm.index_block([0, 0], 1)}, "obs")],
            [lm.IidComponent("u", 1, hy)], PoissonLik())
        want = gamma.logpdf(10.0, a=10.0, scale=1.0) + np.log(10.0)
        assert lm.log_prior_theta(g, np.array([np.log(10.0)])) == pytest.approx(want)

    def test_all_fixed_gives_zero(self):
        hy = lm.log_precision_hyper("u.prec", 1.0, fixed=True)
        g = lm.build_stack(
            [lm.StackPart(np.ones(2), {"u": lm.index_block([0, 0], 1)}, "obs")],
            [lm.IidComponent("u", 1, hy)], PoissonLik())
        assert lm.log_prior_theta(g, np.zeros(0)) == 0.0


class TestComponentStructure:
    def test_symmetry_and_definiteness(self):
        mesh = mm.structured_mesh(0, 1, 0, 1, 3, 3)
        fem = mm.assemble(mesh)
        values = {"p": np.log(2.0), "a": 1.2, "t": np.log(0.5), "k": np.log(3.0)}
        comps = [
            lm.IidComponent("u", 6, lm.HyperParam("p", fixed=True)),
            lm.Ar1Component("v", 6, lm.HyperParam("p", fixed=True),
                            lm.HyperParam("a", transform="correlation", fixed=True)),
            lm.SpdeMaternComponent("s", fem, 2, lm.HyperParam("t", fixed=True),
                                   lm.HyperParam("k", fixed=True)),
        ]
        for comp in comps:
            Q = comp.precision(values).toarray()
            assert np.abs(Q - Q.T).max() <= 1e-12
            assert np.linalg.eigvalsh(Q).min() > 0

    def test_rw1_psd_with_constant_null_space(self):
        values = {"p": np.log(3.0)}
        Q = lm.Rw1Component("f", 7, lm.HyperParam("p", fixed=True)).precision(values).toarray()
        eig = np.linalg.eigvalsh(Q)
        assert eig[0] == pytest.approx(0.0, abs=1e-10)
        assert eig[1] > 1e-8
        assert np.abs(Q @ np.ones(7)).max() <= 1e-12

    def test_grouped_sizes_and_logdet(self):
        values = {"p": np.log(2.0), "a": 0.8}
        base = lm.IidComponent("u", 3, lm.HyperParam("p", fixed=True),
                               grouping=lm.Ar1Grouping(4, lm.HyperParam(
                                   "a", transform="correlation", fixed=True)))
        assert base.total_size == 12
        Q = base.precision(values).toarray()
        _, rank, logdet, corr = base.prior_terms(values)
        assert rank == 12
        assert logdet == pytest.approx(np.linalg.slogdet(Q)[1], abs=1e-9)
        assert corr == 0.0

    def test_ar1_of_length_one_logdet(self):
        # length 1 is the unit marginal [tau]: the matrix and its
        # log-determinant agree (an iid block of 3 was off by 3 log(1 - a^2))
        a = 0.38
        values = {"p": np.log(2.0), "a": np.log((1.0 + a) / (1.0 - a))}
        corr = lm.HyperParam("a", transform="correlation", fixed=True)
        prec = lm.HyperParam("p", fixed=True)
        assert np.allclose(lm.ar1_precision(1, a, 2.0).to_dense(), [[2.0]])
        for comp in (lm.IidComponent("u", 3, prec, grouping=lm.Ar1Grouping(1, corr)),
                     lm.Ar1Component("v", 1, prec, corr),
                     lm.Ar1Component("w", 4, prec, corr, grouping=lm.Ar1Grouping(1, corr))):
            Q = comp.precision(values).toarray()
            _, rank, logdet, _ = comp.prior_terms(values)
            assert rank == Q.shape[0]
            assert logdet == pytest.approx(np.linalg.slogdet(Q)[1], abs=1e-10)
        iid = lm.IidComponent("u", 3, prec, grouping=lm.Ar1Grouping(1, corr))
        assert np.allclose(iid.precision(values).toarray(), 2.0 * np.eye(3))

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("nodes", [36, 841])
    def test_spde_logdet_matches_dense(self, nodes, alpha, monkeypatch):
        # log|Q| from one band factorization of kappa^2 C + G per call, at
        # every mesh size
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return factorize(*args, **kwargs)

        monkeypatch.setattr(lm, "factorize", counted)
        side = int(np.sqrt(nodes)) - 1
        mesh = mm.structured_mesh(0, 1, 0, 1, side, side)
        fem = mm.assemble(mesh)
        comp = lm.spde_matern_component("s", fem, mesh, alpha=alpha)
        assert comp.size == nodes
        for log_tau, log_kappa in ((0.3, 1.2), (-1.1, 2.5)):
            values = {"s.log_tau": log_tau, "s.log_kappa": log_kappa}
            before = len(calls)
            _, logdet = comp._block(values)
            assert len(calls) == before + 1
            Q = lm.spde_precision(fem, alpha, np.exp(log_kappa), np.exp(log_tau))
            assert logdet == pytest.approx(np.linalg.slogdet(Q.to_dense())[1],
                                           rel=1e-10, abs=1e-8)

    def test_replicate_and_rw1_grouping_logdet(self):
        values = {"p": np.log(1.7)}
        for grouping in (lm.ReplicateGrouping(3), lm.Rw1Grouping(3)):
            comp = lm.IidComponent("u", 2, lm.HyperParam("p", fixed=True),
                                   grouping=grouping)
            Q = comp.precision(values).toarray()
            _, _, logdet, _ = comp.prior_terms(values)
            assert logdet == pytest.approx(np.linalg.slogdet(Q)[1], abs=1e-10)


    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("grouping", ["none", "ar1", "replicate", "rw1"])
    def test_fixed_term_precision_matches_kron_reference(self, alpha, grouping):
        # data on the fixed (Kronecker) pattern vs the matrices built directly
        mesh = mm.structured_mesh(0, 1, 0, 1, 4, 4)
        fem = mm.assemble(mesh)
        T, a_int = 4, 0.7
        a = 2.0 / (1.0 + np.exp(-a_int)) - 1.0
        values = {"t": np.log(0.6), "k": np.log(2.5), "p": np.log(1.7), "a": a_int}
        corr = lm.HyperParam("a", transform="correlation", fixed=True)
        couplings = {
            "none": (None, None),
            "ar1": (lm.Ar1Grouping(T, corr), lm.ar1_precision(T, a).full()),
            "replicate": (lm.ReplicateGrouping(T), sp.identity(T)),
            "rw1": (lm.Rw1Grouping(T), lm._rw1_proper_coupling(T)),
        }
        group, Qt = couplings[grouping]
        spde = lm.SpdeMaternComponent("s", fem, alpha, lm.HyperParam("t", fixed=True),
                                      lm.HyperParam("k", fixed=True), grouping=group)
        ar1 = lm.Ar1Component("v", 5, lm.HyperParam("p", fixed=True), corr, grouping=group)
        for comp, Qb in ((spde, lm.spde_precision(fem, alpha, 2.5, 0.6).full()),
                         (ar1, lm.ar1_precision(5, a, 1.7).full())):
            want = (Qb if Qt is None else sp.kron(Qt, Qb)).toarray()
            got = comp.precision(values).toarray()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestBinCovariate:
    def test_unique_values(self):
        idx, centers = lm.bin_covariate(np.array([3.0, 1.0, 3.0, 2.0]))
        assert np.array_equal(centers, [1.0, 2.0, 3.0])
        assert np.array_equal(idx, [2, 0, 2, 1])

    def test_fixed_bin_count(self):
        rng = np.random.default_rng(0)
        v = rng.random(100)
        idx, centers = lm.bin_covariate(v, n_bins=8)
        assert centers.size <= 8
        assert idx.max() == centers.size - 1
        assert np.all(np.diff(centers) > 0)


class TestMaternHelpers:
    def test_kappa_tau_paper_formulas(self):
        kappa, tau = lm.matern_kappa_tau(0.25, 1.0, nu=1.0)
        assert kappa == pytest.approx(np.sqrt(8.0) / 0.25)
        assert tau == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi) * kappa))

    def test_round_trip(self):
        kappa, tau = lm.matern_kappa_tau(0.4, 1.7, nu=1.0)
        rng, var = lm.matern_range_variance(kappa, tau, nu=1.0)
        assert rng == pytest.approx(0.4)
        assert var == pytest.approx(1.7**2)

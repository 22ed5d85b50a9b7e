import numpy as np
import pytest

import laplgm.mesh as mm
import laplgm.simulation as sim
from laplgm.errors import LaplgmError


def small_spec(**kw):
    mesh = mm.structured_mesh(-0.25, 1.25, -0.25, 1.25, 10, 10)
    sites = sim.random_sites(8, seed=3)
    args = dict(mesh=mesh, sites=sites, n_times=6, range0=0.25, sigma0=1.0,
                ar_coef=0.5, intercept=-1.0,
                covariates=[sim.CovariateSpec("covar1", "linear_time", 1.0),
                            sim.CovariateSpec("covar2", "ma5", 0.5)])
    args.update(kw)
    return sim.SimulationSpec(**args)


class TestDeterminism:
    def test_identical_seed_identical_data(self):
        spec = small_spec()
        d1 = sim.simulate(spec, seed=42)
        d2 = sim.simulate(spec, seed=42)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(d1.field_nodes, d2.field_nodes)

    def test_different_seed_differs(self):
        spec = small_spec()
        assert not np.array_equal(sim.simulate(spec, 1).y, sim.simulate(spec, 2).y)


    def test_band_ordering_past_the_entry_cap(self, monkeypatch):
        import laplgm.latent as lm
        import laplgm.sparse as sps
        spec = small_spec()
        Q = lm.spde_precision(mm.assemble(spec.mesh), 2, 1.0, 1.0)
        amd = sps.analyze(Q, sps.reorder(Q))
        rcm = sps.analyze(Q, sps.Permutation(sps.rcm(Q.full())))
        # under the cap of the RCM band, below the minimum-degree band
        cap = Q.n * (rcm.w + rcm.nb + 1)
        assert cap < Q.n * (amd.w + amd.nb + 1)
        monkeypatch.setattr(sps, "_BAND_ENTRY_CAP", cap)
        d1 = sim.simulate(spec, seed=42)
        d2 = sim.simulate(spec, seed=42)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(d1.field_nodes, d2.field_nodes)
        assert np.all(np.isfinite(d1.field_nodes))


class TestArStructure:
    def test_lag_one_correlation(self):
        spec = small_spec(n_times=500, sites=sim.random_sites(4, seed=1))
        d = sim.simulate(spec, seed=7)
        W = d.field_nodes - d.trend[None, :]
        c = np.corrcoef(W[:, :-1].ravel(), W[:, 1:].ravel())[0, 1]
        assert c == pytest.approx(0.5, abs=0.05)

    def test_unit_ar_freezes_field(self):
        spec = small_spec(ar_coef=1.0, intercept=0.0, covariates=[])
        d = sim.simulate(spec, seed=5)
        assert np.allclose(d.field_nodes, d.field_nodes[:, :1])

    def test_zero_ar_independent(self):
        spec = small_spec(ar_coef=0.0, n_times=400, sites=sim.random_sites(4, seed=2))
        d = sim.simulate(spec, seed=11)
        W = d.field_nodes - d.trend[None, :]
        c = np.corrcoef(W[:, :-1].ravel(), W[:, 1:].ravel())[0, 1]
        assert abs(c) <= 0.05


class TestTrend:
    def test_mean_matches_trend(self):
        T = 20
        z2 = sim.ma5_series(T, seed=77)
        spec = small_spec(
            n_times=T, sites=sim.random_sites(40, seed=9),
            covariates=[sim.CovariateSpec("covar1", "linear_time", 1.0),
                        sim.CovariateSpec("covar2", "values", 0.5, values=z2)],
            family="gaussian", family_param=1e6)
        reps = [sim.simulate(spec, seed=s) for s in range(40)]
        t = 10
        want = -1.0 + (t + 1) / T + 0.5 * z2[t]
        assert reps[0].trend[t] == pytest.approx(want, abs=1e-12)
        vals = np.concatenate([r.eta[r.row_time == t + 1] for r in reps])
        mc_sd = 1.0 / np.sqrt(len(reps))  # sites within a replicate are correlated
        assert abs(vals.mean() - want) <= 4.0 * mc_sd

    def test_linear_time_covariate(self):
        spec = small_spec(n_times=10)
        d = sim.simulate(spec, seed=0)
        assert np.allclose(d.covariate_values["covar1"], np.arange(1, 11) / 10.0)


class TestFamilies:
    def test_poisson_counts(self):
        d = sim.simulate(small_spec(), seed=3)
        assert np.all(d.y >= 0)
        assert np.all(d.y == np.floor(d.y))

    def test_gaussian_noise_level(self):
        spec = small_spec(family="gaussian", family_param=4.0,
                          n_times=300, sites=sim.random_sites(3, seed=4))
        d = sim.simulate(spec, seed=8)
        resid = d.y - d.eta
        assert resid.std() == pytest.approx(0.5, abs=0.03)

    def test_negative_binomial_counts(self):
        spec = small_spec(family="nbinomial", family_param=5.0)
        d = sim.simulate(spec, seed=6)
        d2 = sim.simulate(spec, seed=6)
        assert np.array_equal(d.y, d2.y)
        assert np.all(d.y >= 0)
        assert np.all(d.y == np.floor(d.y))

    def test_invalid_family(self):
        with pytest.raises(ValueError):
            sim.simulate(small_spec(family="gamma"), seed=1)

    def test_invalid_ar(self):
        with pytest.raises(ValueError):
            sim.simulate(small_spec(ar_coef=1.2), seed=1)

    @pytest.mark.parametrize("build", [
        lambda: small_spec(family="gamma"),
        lambda: small_spec(ar_coef=-1.0),
        lambda: small_spec(family="nbinomial", family_param=-1.0),
        lambda: sim.CovariateSpec("c", "foo", 1.0),
        lambda: sim.CovariateSpec("c", "values", 1.0),
    ], ids=["family", "ar_coef", "family_param", "covariate-kind", "covariate-no-values"])
    def test_spec_rejects_before_any_draw(self, build):
        # the spec checks itself on construction, as a package error
        with pytest.raises(LaplgmError):
            build()


class TestMarginalVariance:
    def test_interior_variance_near_one(self):
        mesh = mm.structured_mesh(-0.75, 1.75, -0.75, 1.75, 30, 30)
        spec = small_spec(mesh=mesh, n_times=400, ar_coef=0.0,
                          sites=sim.random_sites(4, seed=5), intercept=0.0,
                          covariates=[])
        d = sim.simulate(spec, seed=13)
        v = mesh.vertices
        inside = (v[:, 0] > 0.2) & (v[:, 0] < 0.8) & (v[:, 1] > 0.2) & (v[:, 1] < 0.8)
        var = d.field_nodes[inside].var(axis=1).mean()
        assert var == pytest.approx(1.0, rel=0.15)

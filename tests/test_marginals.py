import numpy as np
import pytest

import laplgm.marginals as mg
from laplgm.errors import InvalidProbability


def standard_normal_grid(mean=0.0, sd=1.0, points=75):
    grid = mean + sd * np.linspace(-6.0, 6.0, points)
    dens = np.exp(-0.5 * ((grid - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
    return mg.MarginalDensity(grid, dens)


class TestMarginalDensity:
    def test_normalized(self):
        m = standard_normal_grid()
        assert m.integral() == pytest.approx(1.0, abs=1e-6)
        assert np.all(m.density >= 0)
        assert len(m) >= 51

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            mg.MarginalDensity(np.array([0.0, 0.0, 1.0]), np.ones(3))


class TestEmarginal:
    def test_identity_on_standard_normal(self):
        m = standard_normal_grid()
        assert mg.emarginal(lambda x: x, m) == pytest.approx(0.0, abs=1e-6)

    def test_constant_one(self):
        m = standard_normal_grid(2.0, 3.0)
        assert mg.emarginal(lambda x: np.ones_like(x), m) == pytest.approx(1.0, abs=1e-12)

    def test_sd_via_moments(self):
        m = standard_normal_grid(2.0, 3.0)
        ex = mg.emarginal(lambda x: x, m)
        ex2 = mg.emarginal(lambda x: x * x, m)
        assert np.sqrt(ex2 - ex**2) == pytest.approx(3.0, abs=1e-3)


class TestQmarginal:
    def test_gaussian_quantile(self):
        m = standard_normal_grid()
        assert mg.qmarginal(0.975, m) == pytest.approx(1.9600, abs=1e-3)
        assert mg.qmarginal(0.5, m) == pytest.approx(0.0, abs=1e-9)

    def test_vectorized(self):
        m = standard_normal_grid(1.0, 2.0)
        q = mg.qmarginal(np.array([0.25, 0.75]), m)
        assert q[0] < 1.0 < q[1]

    def test_invalid_probability(self):
        m = standard_normal_grid()
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(InvalidProbability):
                mg.qmarginal(p, m)


class TestZmarginal:
    def test_summary_fields(self):
        z = mg.zmarginal(standard_normal_grid(2.0, 3.0))
        assert z.mean == pytest.approx(2.0, abs=1e-6)
        assert z.sd == pytest.approx(3.0, abs=1e-3)
        assert z.quantiles[0.5] == pytest.approx(2.0, abs=1e-6)
        assert z.mode == pytest.approx(2.0, abs=1e-9)

    def test_quantiles_monotone(self):
        z = mg.zmarginal(standard_normal_grid(-1.0, 0.5))
        qs = [z.quantiles[p] for p in mg.SUMMARY_QUANTILES]
        assert np.all(np.diff(qs) > 0)


class TestTransformMarginal:
    def test_exp_transform_lognormal(self):
        m = standard_normal_grid(0.0, 0.25, points=201)
        t = mg.transform_marginal(m, np.exp, np.exp)
        mean = mg.emarginal(lambda x: x, t)
        assert mean == pytest.approx(np.exp(0.25**2 / 2.0), rel=1e-3)

    def test_decreasing_map_reorders(self):
        m = standard_normal_grid(2.0, 0.2, points=101)
        t = mg.transform_marginal(m, lambda x: 1.0 / x, lambda x: -1.0 / x**2)
        assert np.all(np.diff(t.grid) > 0)
        assert t.integral() == pytest.approx(1.0, abs=1e-6)


class TestMixture:
    def test_single_component(self):
        m = mg.mixture_marginal(np.array([1.0]), np.array([0.5]), np.array([1.0]))
        z = mg.zmarginal(m)
        assert z.mean == pytest.approx(1.0, abs=1e-6)
        assert z.sd == pytest.approx(0.5, abs=1e-3)

    def test_identical_components_collapse(self):
        m = mg.mixture_marginal(np.array([1.0, 1.0, 1.0]), np.array([0.5, 0.5, 0.5]),
                                np.ones(3) / 3.0)
        single = mg.mixture_marginal(np.array([1.0]), np.array([0.5]), np.array([1.0]))
        assert np.allclose(m.grid, single.grid)
        assert np.allclose(m.density, single.density)

    def test_mixture_mean_linearity(self):
        means = np.array([-1.0, 2.0])
        sds = np.array([0.3, 0.6])
        w = np.array([0.25, 0.75])
        m = mg.mixture_marginal(means, sds, w, points=401, span=8.0)
        assert mg.emarginal(lambda x: x, m) == pytest.approx(w @ means, abs=1e-6)


class TestCumulativeSimpson:
    """The numpy rule against scipy.integrate.cumulative_simpson, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 75, 76])
    @pytest.mark.parametrize("grid", ["linspace", "random"])
    def test_equals_scipy(self, n, grid):
        from scipy.integrate import cumulative_simpson
        rng = np.random.default_rng(n)
        for _ in range(5):
            if grid == "linspace":
                x = np.linspace(-2.0, 3.5, n)
            else:
                x = np.sort(rng.uniform(-2.0, 3.5, n))
            y = rng.uniform(-0.5, 2.0, n)
            got = mg._cumulative_simpson(y, x)
            want = cumulative_simpson(y, x=x, initial=0.0)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_two_point_marginal_reaches_cdf(self):
        # a transformed marginal can keep as few as two grid points
        m = mg.MarginalDensity(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert np.array_equal(mg._cdf_knots(m), [0.0, 1.0])

    @pytest.mark.parametrize("make", [
        lambda: standard_normal_grid(0.3, 1.7),
        lambda: mg.mixture_marginal(np.array([-1.0, 2.0]), np.array([0.3, 0.6]),
                                    np.array([0.25, 0.75])),
        lambda: mg.transform_marginal(standard_normal_grid(0.0, 0.4), np.exp, np.exp),
    ])
    def test_quantiles_equal_scipy_rule(self, make, monkeypatch):
        from scipy.integrate import cumulative_simpson
        m = make()
        got_q = mg.qmarginal(np.array([0.01, 0.3, 0.5, 0.9]), m)
        got_z = mg.zmarginal(m)

        def scipy_knots(md):
            cdf = np.maximum.accumulate(cumulative_simpson(md.density, x=md.grid, initial=0.0))
            return cdf / cdf[-1]

        monkeypatch.setattr(mg, "_cdf_knots", scipy_knots)
        assert np.array_equal(got_q, mg.qmarginal(np.array([0.01, 0.3, 0.5, 0.9]), m))
        assert got_z == mg.zmarginal(m)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cubic_spline_matches_scipy(n):
    # the not-a-knot spline of a one-hyperparameter marginal, against SciPy,
    # inside the knots, on them and in the extended end pieces
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = np.sort(rng.uniform(-3.0, 3.0, n)) + 0.5 * np.arange(n)
        y = -0.5 * x**2 + 0.2 * x**3 + rng.normal(size=n)
        u = np.concatenate([np.linspace(x[0] - 1.0, x[-1] + 1.0, 201), x])
        got = mg._cubic_spline(x, y)(u)
        want = CubicSpline(x, y)(u)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert float(mg._cubic_spline(x, y)(x[-1])) == pytest.approx(y[-1], rel=1e-12, abs=1e-12)

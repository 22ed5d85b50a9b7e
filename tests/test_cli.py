import json
import os

import numpy as np
import pytest

import laplgm.cli as cli
from laplgm.config import parse_config_text
from laplgm.errors import ParseError


# ------------------------------------------------------------------
# config grammar

class TestConfigParser:
    def test_scalars_and_nesting(self):
        cfg = parse_config_text(
            "seed: 7\n"
            "flag: true\n"
            "name: hello\n"
            "mesh:\n"
            "  kind: structured\n"
            "  nx: 3\n"
            "  x_min: -0.5\n")
        assert cfg["seed"] == 7
        assert cfg["flag"] is True
        assert cfg["name"] == "hello"
        assert cfg["mesh"]["nx"] == 3
        assert cfg["mesh"]["x_min"] == -0.5

    def test_lists_of_mappings(self):
        cfg = parse_config_text(
            "components:\n"
            "  - name: a\n"
            "    kind: fixed_effect\n"
            "  - name: b\n"
            "    kind: iid\n")
        assert [c["name"] for c in cfg["components"]] == ["a", "b"]

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# heading\n\nseed: 1  # trailing\n")
        assert cfg == {"seed": 1}

    def test_tabs_rejected(self):
        with pytest.raises(ParseError):
            parse_config_text("a:\n\tb: 1\n")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_config_text("a: 1\na: 2\n")

    def test_null_values(self):
        cfg = parse_config_text("a: NA\nb: null\n")
        assert cfg["a"] is None and cfg["b"] is None


# ------------------------------------------------------------------
# command fixtures

SIM_TEMPLATE = """\
seed: {seed}
simulate:
  n_sites: {n_sites}
  n_times: {n_times}
  mesh:
    kind: structured
    x_min: -0.25
    x_max: 1.25
    y_min: -0.25
    y_max: 1.25
    nx: {sim_nx}
    ny: {sim_nx}
  truth:
    intercept: -1.0
    ar_coef: 0.5
    range0: 0.25
    sigma0: 1.0
  covariates:
    - name: covar1
      kind: linear_time
      coef: 1.0
    - name: covar2
      kind: ma5
      coef: 0.5
  family: poisson
"""

FIT_TEMPLATE = """\
seed: {seed}
data: {data}
likelihood:
  family: poisson
mesh:
  kind: structured
  x_min: -0.25
  x_max: 1.25
  y_min: -0.25
  y_max: 1.25
  nx: {nx}
  ny: {nx}
components:
  - name: intercept
    kind: fixed_effect
    covariate: const
  - name: covar1
    kind: fixed_effect
    covariate: covar1
  - name: covar2
    kind: fixed_effect
    covariate: covar2
  - name: spatial
    kind: spde_matern
    alpha: 2
    initial_range: 0.3
    group:
      kind: ar1
engine:
  int_strategy: eb
"""


def run(args):
    rc = cli.main(args)
    assert rc == 0


def simulate_fixture(tmp_path, seed=5, n_sites=10, n_times=5, sim_nx=8):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_TEMPLATE.format(seed=seed, n_sites=n_sites,
                                       n_times=n_times, sim_nx=sim_nx))
    out = tmp_path / "sim"
    run(["simulate", "--config", str(cfg), "--out", str(out)])
    return out


def read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return lines[0].strip().split(","), [ln.strip().split(",") for ln in lines[1:] if ln.strip()]


class TestSimulateCommand:
    def test_row_count_product(self, tmp_path):
        out = simulate_fixture(tmp_path, n_sites=10, n_times=5)
        header, rows = read_rows(out / "data.csv")
        assert header[:4] == ["site_x", "site_y", "time", "y"]
        assert len(rows) == 50
        _, sites = read_rows(out / "sites.csv")
        assert len(sites) == 10

    def test_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_TEMPLATE.format(seed=9, n_sites=6, n_times=4, sim_nx=8))
        run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "data.csv").read_bytes() == \
            (tmp_path / "b" / "data.csv").read_bytes()

    def test_truth_file_covers_nodes_per_time(self, tmp_path):
        out = simulate_fixture(tmp_path, n_sites=4, n_times=3, sim_nx=4)
        _, rows = read_rows(out / "truth.csv")
        assert len(rows) == 3 * 25

    def test_paper_scale_row_count(self, tmp_path):
        out = simulate_fixture(tmp_path, n_sites=50, n_times=60, sim_nx=12)
        _, rows = read_rows(out / "data.csv")
        assert len(rows) == 3000

    def test_desk_scale_row_count(self, tmp_path):
        out = simulate_fixture(tmp_path, n_sites=30, n_times=20, sim_nx=10)
        _, rows = read_rows(out / "data.csv")
        assert len(rows) == 600


class TestFitCommand:
    def test_output_files_and_schema(self, tmp_path):
        sim_out = simulate_fixture(tmp_path)
        fit_cfg = tmp_path / "fit.cfg"
        fit_cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5))
        fit_out = tmp_path / "fit"
        run(["fit", "--config", str(fit_cfg), "--out", str(fit_out)])
        for name in ("summary_fixed.csv", "summary_hyper.csv", "mlik.txt", "runlog.json"):
            assert (fit_out / name).exists()
        first = (fit_out / "summary_fixed.csv").read_text().splitlines()[0]
        assert first.startswith("# laplgm-csv v1")
        header, rows = read_rows(fit_out / "summary_fixed.csv")
        assert header[0] == "name"
        assert {r[0] for r in rows} == {"intercept", "covar1", "covar2"}
        log = json.loads((fit_out / "runlog.json").read_text())
        assert {"preprocessing", "solving", "postprocessing", "total"} <= set(log["timings"])
        assert (fit_out / "marginals").is_dir()

    def test_eb_reports_single_node(self, tmp_path):
        sim_out = simulate_fixture(tmp_path)
        fit_cfg = tmp_path / "fit.cfg"
        fit_cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5))
        fit_out = tmp_path / "fit_eb"
        run(["fit", "--config", str(fit_cfg), "--out", str(fit_out),
             "--int-strategy", "eb"])
        log = json.loads((fit_out / "runlog.json").read_text())
        assert log["nodes"] == 1

    def test_gaussian_conjugate_matches_dense_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 40
        x = rng.random(n)
        y = 0.7 + 1.4 * x + rng.standard_normal(n) * 0.5
        data = tmp_path / "data.csv"
        lines = ["site_x,site_y,time,y,x"]
        for i in range(n):
            lines.append(f"0.5,0.5,1,{float(y[i])!r},{float(x[i])!r}")
        data.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(
            f"data: {data}\n"
            "likelihood:\n"
            "  family: gaussian\n"
            "  initial_precision: 4.0\n"
            "  fixed: true\n"
            "components:\n"
            "  - name: intercept\n"
            "    kind: fixed_effect\n"
            "    covariate: const\n"
            "  - name: slope\n"
            "    kind: fixed_effect\n"
            "    covariate: x\n"
            "engine:\n"
            "  int_strategy: eb\n")
        out = tmp_path / "lin"
        run(["fit", "--config", str(cfg), "--out", str(out)])
        header, rows = read_rows(out / "summary_fixed.csv")
        got = {r[0]: float(r[header.index("mean")]) for r in rows}
        A = np.column_stack([np.ones(n), x])
        Qpost = np.diag([1e-4, 1e-4]) + 4.0 * A.T @ A
        mean = np.linalg.solve(Qpost, 4.0 * A.T @ y)
        assert got["intercept"] == pytest.approx(mean[0], abs=1e-6)
        assert got["slope"] == pytest.approx(mean[1], abs=1e-6)

    def test_unknown_config_key_rejected(self, tmp_path):
        sim_out = simulate_fixture(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5)
                       + "bogus_key: 1\n")
        rc = cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_all_missing_rejected(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("site_x,site_y,time,y\n0.1,0.1,1,NA\n0.2,0.2,1,\n")
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(
            f"data: {data}\n"
            "likelihood:\n"
            "  family: poisson\n"
            "components:\n"
            "  - name: intercept\n"
            "    kind: fixed_effect\n"
            "    covariate: const\n")
        rc = cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2


class TestPredictCommand:
    def _fit_cfg(self, tmp_path, sim_out, n_grid=9, time=3):
        cfg = tmp_path / "pred.cfg"
        cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5)
                       + f"predict:\n  n_grid: {n_grid}\n  time: {time}\n")
        return cfg

    def test_grid_row_count(self, tmp_path):
        sim_out = simulate_fixture(tmp_path)
        cfg = self._fit_cfg(tmp_path, sim_out, n_grid=9)
        out = tmp_path / "pred"
        run(["predict", "--config", str(cfg), "--out", str(out)])
        header, rows = read_rows(out / "pred_mean.csv")
        assert header == ["x", "y", "eta_mean", "mu_mean"]
        assert len(rows) == 81
        header, rows = read_rows(out / "pred_sd.csv")
        assert len(rows) == 81

    def test_full_prediction_grid_size(self, tmp_path):
        sim_out = simulate_fixture(tmp_path, n_sites=8, n_times=4, sim_nx=6)
        cfg = self._fit_cfg(tmp_path, sim_out, n_grid=51, time=2)
        out = tmp_path / "pred51"
        run(["predict", "--config", str(cfg), "--out", str(out)])
        _, rows = read_rows(out / "pred_mean.csv")
        assert len(rows) == 2601

    def test_sd_lower_near_observation_sites(self, tmp_path):
        sim_out = simulate_fixture(tmp_path, n_sites=12, n_times=6, sim_nx=10)
        cfg = self._fit_cfg(tmp_path, sim_out, n_grid=15, time=3)
        out = tmp_path / "pred2"
        run(["predict", "--config", str(cfg), "--out", str(out)])
        _, site_rows = read_rows(sim_out / "sites.csv")
        sites = np.array([[float(a), float(b)] for a, b in site_rows])
        _, rows = read_rows(out / "pred_sd.csv")
        grid = np.array([[float(r[0]), float(r[1])] for r in rows])
        sd = np.array([float(r[2]) for r in rows])
        d = np.min(np.hypot(grid[:, None, 0] - sites[None, :, 0],
                            grid[:, None, 1] - sites[None, :, 1]), axis=1)
        near = sd[d <= np.quantile(d, 0.2)]
        far = sd[d >= np.quantile(d, 0.8)]
        assert near.mean() < far.mean()


class TestAssessAndCompareCommands:
    def test_assess_outputs(self, tmp_path):
        sim_out = simulate_fixture(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5))
        out = tmp_path / "assess"
        run(["assess", "--config", str(cfg), "--out", str(out)])
        header, rows = read_rows(out / "diagnostics.csv")
        assert header == ["index", "cpo", "pit", "failure"]
        assert len(rows) == 50
        header, rows = read_rows(out / "criteria.csv")
        assert header == ["dic", "p_dic", "waic", "p_waic", "mlik"]
        assert len(rows) == 1
        assert (out / "spde_summary.csv").exists()

    def test_compare_table_shape(self, tmp_path):
        sim_out = simulate_fixture(tmp_path)
        cfg1 = tmp_path / "m1.cfg"
        cfg1.write_text("name: with_space\n"
                        + FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5))
        cfg2 = tmp_path / "m2.cfg"
        cfg2.write_text(
            "name: temporal_only\n"
            f"data: {sim_out / 'data.csv'}\n"
            "likelihood:\n"
            "  family: poisson\n"
            "components:\n"
            "  - name: intercept\n"
            "    kind: fixed_effect\n"
            "    covariate: const\n"
            "  - name: trend\n"
            "    kind: rw1\n"
            "    covariate: covar1\n"
            "engine:\n"
            "  int_strategy: eb\n")
        out = tmp_path / "cmp"
        run(["compare", "--config", str(cfg1), "--config", str(cfg2),
             "--out", str(out)])
        header, rows = read_rows(out / "comparison.csv")
        assert header[:4] == ["model", "dic", "waic", "mlik"]
        assert len(header) >= 6
        assert len(rows) == 2
        assert rows[0][0] == "with_space"
        assert rows[1][0] == "temporal_only"
        # temporal-only model has no spatial field: empty range columns
        assert rows[1][header.index("range_mean")] == ""


class TestDeterminismAcrossThreads:
    def test_fit_outputs_byte_identical(self, tmp_path):
        sim_out = simulate_fixture(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5)
                       .replace("int_strategy: eb", "int_strategy: ccd"))
        out1 = tmp_path / "t1"
        out4 = tmp_path / "t4"
        run(["fit", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        run(["fit", "--config", str(cfg), "--out", str(out4), "--threads", "4"])
        for name in ("summary_fixed.csv", "summary_hyper.csv", "mlik.txt"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()

    def test_runlog_counts_identical(self, tmp_path):
        sim_out = simulate_fixture(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5)
                       .replace("int_strategy: eb", "int_strategy: ccd"))
        counts = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            run(["fit", "--config", str(cfg), "--out", str(out), "--threads", threads])
            log = json.loads((out / "runlog.json").read_text())
            assert set(log["counts"]) == {"theta_evals", "newton_iterations", "factorizations"}
            assert not set(log["counts"]) & set(log["timings"])
            counts.append(log["counts"])
        assert counts[0] == counts[1]
        # the node stage alone evaluates every node once
        assert counts[0]["theta_evals"] > log["nodes"]
        assert counts[0]["factorizations"] >= 1


class TestMeshFromFiles:
    def test_fit_with_imported_mesh(self, tmp_path):
        import laplgm.mesh as mm
        sim_out = simulate_fixture(tmp_path)
        mesh = mm.structured_mesh(-0.25, 1.25, -0.25, 1.25, 5, 5)
        vf, tf = tmp_path / "verts.csv", tmp_path / "tris.csv"
        mm.save_mesh(mesh, vf, tf)
        cfg = tmp_path / "fitfiles.cfg"
        cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5).replace(
            "mesh:\n"
            "  kind: structured\n"
            "  x_min: -0.25\n"
            "  x_max: 1.25\n"
            "  y_min: -0.25\n"
            "  y_max: 1.25\n"
            "  nx: 5\n"
            "  ny: 5\n",
            f"mesh:\n  kind: files\n  vertices: {vf}\n  triangles: {tf}\n"))
        out = tmp_path / "fitfiles"
        run(["fit", "--config", str(cfg), "--out", str(out)])
        assert (out / "summary_fixed.csv").exists()


class TestNegativeBinomialCli:
    def test_nbinomial_fit(self, tmp_path):
        sim_out = simulate_fixture(tmp_path)
        cfg = tmp_path / "nb.cfg"
        cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5).replace(
            "likelihood:\n  family: poisson\n",
            "likelihood:\n  family: nbinomial\n  initial_dispersion: 10.0\n"))
        out = tmp_path / "nb"
        run(["fit", "--config", str(cfg), "--out", str(out)])
        header, rows = read_rows(out / "summary_hyper.csv")
        names = {r[0] for r in rows}
        assert "nbinomial.log_dispersion" in names


# ------------------------------------------------------------------
# model building shared with the library

def _small_data(tmp_path):
    rng = np.random.default_rng(4)
    data = tmp_path / "data.csv"
    lines = ["site_x,site_y,time,y"]
    for t in (1, 2, 3):
        for x, yy in rng.random((6, 2)):
            lines.append(f"{x},{yy},{t},{rng.normal(0.0, 1.0)}")
    data.write_text("\n".join(lines) + "\n")
    return data


SPDE_CONFIG = """\
data: {data}
likelihood:
  family: gaussian
mesh:
  kind: structured
  x_min: 0.0
  x_max: 1.0
  y_min: 0.0
  y_max: 1.0
  nx: 4
  ny: 4
components:
  - name: spatial
    kind: spde_matern
    alpha: 2
    initial_sigma: 1.5
    group:
      kind: replicate
{prior}"""


class TestModelBuilding:
    @pytest.mark.parametrize("prior, kappa_prior", [
        ("", (0.0, 0.1)),
        ("    prior:\n      kind: gaussian\n      mean: 0.5\n      precision: 2.0\n", (0.5, 2.0)),
        ("    prior:\n      kind: loggamma\n      shape: 2.0\n      rate: 0.5\n", (0.0, 0.1)),
    ])
    def test_spde_hyperparameters_match_library(self, tmp_path, prior, kappa_prior):
        import laplgm.latent as lm
        import laplgm.mesh as mm
        path = tmp_path / "fit.cfg"
        path.write_text(SPDE_CONFIG.format(data=_small_data(tmp_path), prior=prior))
        cfg = cli.load_config(str(path))
        comp = cli.build_model(cfg, str(path)).model.components[0]
        mesh = mm.structured_mesh(0.0, 1.0, 0.0, 1.0, 4, 4)
        section = cfg["components"][0].get("prior")
        ref = lm.spde_matern_component(
            "spatial", mm.assemble(mesh), mesh, alpha=2, initial_sigma=1.5,
            prior=cli._parse_prior(section, "prior"), grouping=lm.ReplicateGrouping(3))
        for got, want in ((comp.log_tau, ref.log_tau), (comp.log_kappa, ref.log_kappa)):
            assert (got.name, got.internal_value, got.transform, got.prior, got.fixed) == \
                (want.name, want.internal_value, want.transform, want.prior, want.fixed)
        assert comp.log_kappa.prior == lm.GaussianPrior(*kappa_prior)

    def test_strategy_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "fit.cfg"
        config = SPDE_CONFIG.format(data=_small_data(tmp_path), prior="")
        path.write_text(config + "engine:\n  int_strategy: eb\n")
        run(["fit", "--config", str(path), "--out", str(tmp_path / "ok")])
        path.write_text(config + "engine:\n  strategy: gaussian\n")
        rc = cli.main(["fit", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "strategy" in capsys.readouterr().err

    def test_singular_constraint_reported(self, tmp_path, monkeypatch, capsys):
        import laplgm.latent as lm
        rows = lm.Rw1Component.constraint_rows
        monkeypatch.setattr(lm.Rw1Component, "constraint_rows", lambda self: rows(self) * 2)
        path = tmp_path / "fit.cfg"
        path.write_text(
            f"data: {_small_data(tmp_path)}\n"
            "likelihood:\n"
            "  family: gaussian\n"
            "components:\n"
            "  - name: trend\n"
            "    kind: rw1\n"
            "    covariate: time\n"
            "    sum_to_zero: true\n")
        rc = cli.main(["fit", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

import json
import os
import re
import warnings

import numpy as np
import pytest

import laplgm.assessment as assessment
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


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_csv_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "out.csv"
        old = os.umask(umask)
        try:
            cli.write_csv(str(path), "test", ["a"], [[1.0]])
        finally:
            os.umask(old)
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


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

    def test_runlog_design_departure(self, tmp_path):
        # max over the nodes of |lp_k - lp* + |z_k|^2 / 2|, |z_k|^2 read from -H
        import laplgm.engine as eng
        sim_out = simulate_fixture(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=5))
        departure = {}
        for strategy in ("eb", "ccd"):
            out = tmp_path / strategy
            run(["fit", "--config", str(cfg), "--out", str(out), "--int-strategy", strategy])
            departure[strategy] = json.loads((out / "runlog.json").read_text())["design_departure"]
        assert departure["eb"] == 0.0
        fit = eng.fit(cli.build_model(cli.load_config(str(cfg)), str(cfg)).model,
                      eng.EngineConfig(int_strategy="ccd"))
        (lp_star,) = [nd.log_post for nd in fit.nodes if np.array_equal(nd.theta, fit.theta_mode)]
        d = np.array([nd.theta for nd in fit.nodes]) - fit.theta_mode
        shifts = [nd.log_post - lp_star for nd in fit.nodes]
        expected = np.max(np.abs(shifts + 0.5 * np.einsum("ki,ij,kj->k", d, -fit.theta_hessian, d)))
        assert expected > 0.0
        assert departure["ccd"] == pytest.approx(expected, rel=1e-9)

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

    def test_non_numeric_cell_rejected(self, tmp_path, capsys):
        # rows are named by their file line, as read_csv names a short row:
        # the comment, header and blank lines count
        data = tmp_path / "data.csv"
        data.write_text("# laplgm-csv v1 data\nsite_x,site_y,time,y\n0.1,0.1,1,3\n\n"
                        "0.2,0.2,1,abc\n")
        with pytest.raises(ParseError, match=r"data.csv:5: column 'y': 'abc'"):
            cli._float_column(cli.read_csv(str(data)), "y", str(data), missing_ok=True)
        short = tmp_path / "short.csv"
        short.write_text("# laplgm-csv v1 data\nsite_x,site_y,time,y\n0.1,0.1,1,3\n\n"
                         "0.2,0.2,1\n")
        with pytest.raises(ParseError, match=r"short.csv:5: expected 4 fields"):
            cli.read_csv(str(short))
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
        err = capsys.readouterr().err
        assert f"{data}:5:" in err


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

    def test_runlog_counts_cpo_failures(self, tmp_path, monkeypatch):
        path = tmp_path / "fit.cfg"
        path.write_text(SPDE_CONFIG.format(data=_small_data(tmp_path), prior="")
                        + "engine:\n  int_strategy: eb\n"
                        + "predict:\n  n_grid: 3\n  time: 1\n")

        def runlog(command, name):
            out = tmp_path / name
            run([command, "--config", str(path), "--out", str(out)])
            return out, json.loads((out / "runlog.json").read_text())

        for command in ("fit", "predict"):
            assert "cpo_failures" not in runlog(command, command)[1]
        for share, name in ((assessment.FAILURE_SHARE, "assess"), (0.0, "all_fail")):
            monkeypatch.setattr(assessment, "FAILURE_SHARE", share)
            out, log = runlog("assess", name)
            _, rows = read_rows(out / "diagnostics.csv")
            assert log["cpo_failures"] == sum(float(r[3]) for r in rows)
        # with a zero share every observation counts as a failure
        assert log["cpo_failures"] == len(rows) == 18

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

    def test_compare_needs_two_configs(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "fit.cfg"
        path.write_text(SPDE_CONFIG.format(data=_small_data(tmp_path), prior=""))

        def no_fit(*args):
            raise AssertionError("a single config reached the fit")

        monkeypatch.setattr(cli, "engine_fit", no_fit)
        rc = cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "at least two --config" in capsys.readouterr().err

    def test_assess_and_compare_summarize_the_same_field(self, tmp_path):
        # the alpha = 2 field comes first, an alpha = 1 field after it
        config = (SPDE_CONFIG.format(data=_small_data(tmp_path), prior="")
                  + "  - name: rough\n"
                    "    kind: spde_matern\n"
                    "    alpha: 1\n"
                    "    initial_range: 0.5\n"
                    "engine:\n"
                    "  int_strategy: eb\n")
        paths = []
        for name in ("first", "second"):
            paths.append(tmp_path / f"{name}.cfg")
            paths[-1].write_text(f"name: {name}\n" + config)
        run(["assess", "--config", str(paths[0]), "--out", str(tmp_path / "assess")])
        run(["compare", "--config", str(paths[0]), "--config", str(paths[1]),
             "--out", str(tmp_path / "cmp")])
        _, summary = read_rows(tmp_path / "assess" / "spde_summary.csv")
        header, rows = read_rows(tmp_path / "cmp" / "comparison.csv")
        assert [r[0] for r in summary] == ["range", "variance"]
        for quantity, mean, _, lo, hi in summary:
            for row in rows:
                got = [row[header.index(f"{quantity}_{s}")] for s in ("mean", "lo", "hi")]
                assert got == [mean, lo, hi]


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
            assert set(log["counts"]) == {"theta_evals", "newton_iterations", "factorizations",
                                          "gradients", "rejected_trials", "hessian_clamped",
                                          "mode_unconverged", "newton_halvings",
                                          "nodes_dropped"}
            assert not set(log["counts"]) & set(log["timings"])
            counts.append(log["counts"])
        assert counts[0] == counts[1]
        # the mode search evaluates theta* and more, and exploration every other node
        assert counts[0]["theta_evals"] > log["nodes"]
        assert counts[0]["factorizations"] >= 1
        assert counts[0]["gradients"] >= 1


    def test_runlog_factor_layout_identical(self, tmp_path):
        cfg = _trend_replicate_config(tmp_path)
        layouts = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            run(["fit", "--config", str(cfg), "--out", str(out), "--threads", threads])
            log = json.loads((out / "runlog.json").read_text())
            assert not set(log["factor"]) & (set(log["counts"]) | set(log["timings"]))
            layouts.append(log["factor"])
        assert layouts[0] == layouts[1]


def _trend_replicate_config(tmp_path, n_times=10, nx=12):
    """Gaussian fit of an rw1 trend over time plus a replicate SPDE field on
    a 13 x 13 mesh."""
    sim_out = simulate_fixture(tmp_path, n_sites=20, n_times=n_times, sim_nx=8)
    cfg = tmp_path / "trend.cfg"
    cfg.write_text(
        FIT_TEMPLATE.format(seed=5, data=sim_out / "data.csv", nx=nx)
        .replace("family: poisson", "family: gaussian")
        .replace("  - name: spatial\n",
                 "  - name: trend\n"
                 "    kind: rw1\n"
                 "    covariate: time\n"
                 "    sum_to_zero: true\n"
                 "  - name: spatial\n")
        .replace("kind: ar1", "kind: replicate"))
    return cfg


class TestFactorLayout:
    def test_trend_columns_in_border(self, tmp_path):
        n_times = 10
        cfg = _trend_replicate_config(tmp_path, n_times)
        out = tmp_path / "fit"
        run(["fit", "--config", str(cfg), "--out", str(out), "--int-strategy", "eb"])
        log = json.loads((out / "runlog.json").read_text())
        factor = log["factor"]
        assert set(factor) == {"n", "w", "nb", "chains"}
        assert factor["n"] == log["n_latent"] == 3 + n_times + n_times * 169
        # given the border, each replicate of the field is its own chain
        assert factor["chains"] == n_times
        # the rw1 trend joins the three fixed effects in the dense border
        assert factor["nb"] >= n_times + 3
        assert factor["w"] < 169


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
        ref = lm.spde_matern_component(
            "spatial", mm.assemble(mesh), mesh, alpha=2, initial_sigma=1.5,
            prior=cli._parse_prior(cfg["components"][0], "prior", "prior"),
            grouping=lm.ReplicateGrouping(3))
        for got, want in ((comp.log_tau, ref.log_tau), (comp.log_kappa, ref.log_kappa)):
            assert (got.name, got.internal_value, got.transform, got.prior, got.fixed) == \
                (want.name, want.internal_value, want.transform, want.prior, want.fixed)
        assert comp.log_kappa.prior == lm.GaussianPrior(*kappa_prior)

    def test_strategy_key_rejected(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "fit.cfg"
        config = SPDE_CONFIG.format(data=_small_data(tmp_path), prior="")
        path.write_text(config + "engine:\n  int_strategy: eb\n")
        run(["fit", "--config", str(path), "--out", str(tmp_path / "ok")])

        def no_fit(*args):
            raise AssertionError("a bad config reached the fit")

        monkeypatch.setattr(cli, "engine_fit", no_fit)
        for extra, key in [("engine:\n  strategy: gaussian\n", "strategy"),
                           ("engine:\n  mode_budget: 10\n", "mode_budget"),
                           ("engine:\n  marginal_points: 41\n", "marginal_points"),
                           ("threads: 2\n", "threads"),
                           ("engine:\n  threads: 2\n", "threads"),
                           ("engine:\n  int_strategy: foo\n", "int_strategy"),
                           ("engine:\n  newton_tol: tight\n", "newton_tol"),
                           ("engine:\n  newton_tol: -1\n", "newton_tol"),
                           ("engine:\n  newton_tol: 0\n", "newton_tol"),
                           ("engine:\n  log_drop: -2.5\n", "log_drop"),
                           ("engine:\n  log_drop: inf\n", "log_drop"),
                           ("seed: abc\n", "seed")]:
            path.write_text(config + extra)
            for command in ("fit", "assess"):
                rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "x")])
                assert rc == 2, (extra, command)
                err = capsys.readouterr().err.replace(str(tmp_path), "")
                assert key in err, (extra, command)

    def test_bad_seed_stops_simulate(self, tmp_path, capsys):
        path = tmp_path / "sim.cfg"
        path.write_text(SIM_TEMPLATE.format(seed="abc", n_sites=4, n_times=2, sim_nx=4))
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "seed" in capsys.readouterr().err.replace(str(tmp_path), "")
        assert not (tmp_path / "x" / "data.csv").exists()

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

    def test_band_over_the_entry_cap_reported(self, tmp_path, monkeypatch, capsys):
        import laplgm.sparse as sps
        path = tmp_path / "fit.cfg"
        path.write_text(SPDE_CONFIG.format(data=_small_data(tmp_path), prior=""))
        monkeypatch.setattr(sps, "_BAND_ENTRY_CAP", 10)
        rc = cli.main(["fit", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        for name in ("n = 75", "w = ", "nb = "):
            assert name in err


POISSON_INTERCEPT = """\
data: {data}
likelihood:
  family: poisson
components:
  - name: intercept
    kind: fixed_effect
    covariate: const
"""
SIM_SMALL = SIM_TEMPLATE.format(seed=5, n_sites=4, n_times=2, sim_nx=4)
SPDE_SMALL = SPDE_CONFIG.format(data="{data}", prior="")
RW1_BINS = SPDE_CONFIG.format(
    data="{data}", prior="  - name: trend\n    kind: rw1\n    covariate: time\n"
                         "    n_bins: {n_bins}\n")


GAUSSIAN_INTERCEPT = POISSON_INTERCEPT.replace("poisson", "gaussian")
RW1_3 = RW1_BINS.replace("{n_bins}", "3")


def _with_likelihood_key(line):
    return SPDE_SMALL.replace("  family: gaussian\n", f"  family: gaussian\n  {line}\n")


@pytest.mark.parametrize("command, data, config, flags, says", [
    pytest.param("fit", "site_x,site_y,time,y,y\n0.1,0.1,1,3,3\n0.2,0.2,1,4,4\n0.3,0.3,2,5,5\n",
                 POISSON_INTERCEPT, [], "repeated column", id="repeated-column"),
    pytest.param("fit", "site_x,site_y,time,y,y\n0.1,0.1,1,3,3\n0.2,0.2,1,4,abc\n",
                 POISSON_INTERCEPT, [], "repeated column", id="repeated-column-bad-cell"),
    pytest.param("simulate", None, SIM_SMALL, ["--seed", "-1"], "--seed",
                 id="seed-flag-negative"),
    pytest.param("simulate", None, SIM_SMALL.replace("seed: 5", f"seed: {2**128}"), [], "seed",
                 id="seed-config-too-large"),
    pytest.param("fit", None, RW1_BINS.replace("{n_bins}", "0"), [], "n_bins", id="n_bins-0"),
    pytest.param("fit", None, RW1_BINS.replace("{n_bins}", "2.5"), [], "n_bins",
                 id="n_bins-float"),
    pytest.param("fit", None, SPDE_SMALL + "predict:\n  n_grid: -1\n  time: 1\n", [], "n_grid",
                 id="n_grid-negative"),
    pytest.param("fit", None, SPDE_SMALL.replace("alpha: 2", "alpha: 3"), [], "alpha",
                 id="component-alpha-3"),
    pytest.param("fit", None, SPDE_SMALL.replace("nx: 4", "nx: 2.5"), [], "nx", id="nx-float"),
    pytest.param("simulate", None, SIM_SMALL.replace("  truth:\n", "  truth:\n    alpha: 3\n"),
                 [], "alpha", id="truth-alpha-3"),
    pytest.param("simulate", None, SIM_SMALL.replace("n_times: 2", "n_times: 0"), [], "n_times",
                 id="n_times-0"),
    pytest.param("fit", None, SPDE_SMALL.replace("x_min: 0.0", "x_min: abc"), [], "x_min",
                 id="mesh-x_min-abc"),
    pytest.param("simulate", None, SIM_SMALL.replace("coef: 1.0", "coef: abc"), [], "coef",
                 id="covariate-coef-abc"),
    pytest.param("simulate", None, SIM_SMALL.replace("kind: linear_time", "kind: foo"), [],
                 "kind", id="covariate-kind-foo"),
    pytest.param("simulate", None, SIM_SMALL.replace("kind: linear_time", "kind: values"), [],
                 "values", id="covariate-kind-values"),
    pytest.param("simulate", None, SIM_SMALL.replace("family: poisson", "family: foo"), [],
                 "family", id="family-foo"),
    pytest.param("simulate", None,
                 SIM_SMALL.replace("family: poisson", "family: nbinomial\n  family_param: -1"),
                 [], "family_param", id="nbinomial-family_param-negative"),
    pytest.param("fit", None, SPDE_CONFIG.format(
        data="{data}", prior="    prior:\n      kind: gaussian\n      precision: -1\n"), [],
                 "precision", id="gaussian-prior-precision-negative"),
    pytest.param("fit", None, _with_likelihood_key("fixed: abc"), [], "fixed", id="fixed-abc"),
    pytest.param("fit", None, _with_likelihood_key("exact_predictor: abc"), [], "exact_predictor",
                 id="exact_predictor-abc"),
    pytest.param("fit", None, RW1_3 + "    sum_to_zero: abc\n", [], "sum_to_zero",
                 id="sum_to_zero-abc"),
    pytest.param("fit", None, _with_likelihood_key("initial_precision: -1"), [],
                 "initial_precision", id="initial_precision-negative"),
    pytest.param("fit", None, SPDE_SMALL.replace("initial_sigma: 1.5", "initial_sigma: -1"), [],
                 "initial_sigma", id="initial_sigma-negative"),
    pytest.param("fit", None, SPDE_SMALL.replace("data: {data}", "data: 0"), [], "data",
                 id="data-0"),
    pytest.param("simulate", None,
                 SIM_SMALL.replace("- name: covar1\n      kind:", "- kind:"), [], "name",
                 id="covariate-without-name"),
    pytest.param("simulate", None, SIM_SMALL + "  site_bounds: [0, 1, 0, 1]\n", [],
                 "site_bounds", id="site_bounds-not-a-list"),
    pytest.param("fit", None, GAUSSIAN_INTERCEPT + "mesh: 5\n", [], "mesh", id="mesh-5"),
    pytest.param("fit", None, "data: {data}\nlikelihood:\n  family: gaussian\ncomponents:\n"
                 "  - intercept\n", [], "components", id="scalar-component-item"),
    pytest.param("fit", None, GAUSSIAN_INTERCEPT + "  - name: intercept\n    kind: iid\n"
                 "    covariate: time\n", [], "names repeat", id="repeated-component-name"),
    pytest.param("fit", None, SPDE_SMALL.replace("data: {data}", "data: {data}.missing"), [],
                 "data.csv.missing", id="missing-data-file"),
])
def test_malformed_input_exits_2(tmp_path, monkeypatch, capsys, command, data, config, flags,
                                 says):
    # each input is rejected as a usage error, naming what is wrong, before
    # any fit or simulation
    def no_work(*args):
        raise AssertionError("a malformed input reached the work")

    monkeypatch.setattr(cli, "engine_fit", no_work)
    monkeypatch.setattr(cli, "run_simulation", no_work)
    if data is None:
        path = _small_data(tmp_path)
    else:
        path = tmp_path / "data.csv"
        path.write_text(data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config.replace("{data}", str(path)))
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "x"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert says in err.replace(str(tmp_path), "")


class ReachedWork(Exception):
    """Raised by the stand-ins for the fit and the simulation."""


# a `key: value` line of a config, list items included
SCALAR_LINE = re.compile(r"^(\s*(?:- )?\w+: )\S.*$")


@pytest.mark.parametrize("command, template", [
    pytest.param("simulate", SIM_SMALL, id="simulate"),
    pytest.param("fit", SPDE_SMALL, id="spde"),
    pytest.param("fit", RW1_3, id="rw1"),
])
def test_each_scalar_edit_is_taken_or_exits_2(tmp_path, monkeypatch, capsys, command, template):
    # every scalar setting, set to each value below, either reaches the work
    # or exits 2 with `error:`; none raises anything else or warns
    def work(*args):
        raise ReachedWork

    monkeypatch.setattr(cli, "engine_fit", work)
    monkeypatch.setattr(cli, "run_simulation", work)
    data = str(_small_data(tmp_path))
    cfg = tmp_path / "run.cfg"
    lines = template.splitlines()
    outcomes = {"work": 0, "exit 2": 0}
    bad = []
    for i, line in enumerate(lines):
        m = SCALAR_LINE.match(line)
        if m is None:
            continue
        for value in ("abc", "-1", "0", "2.5", "[]", "true"):
            edited = lines[:i] + [m.group(1) + value] + lines[i + 1:]
            cfg.write_text("\n".join(edited).replace("{data}", data) + "\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
                except ReachedWork:
                    rc = "work"
                except Exception as exc:
                    rc = exc
            err = capsys.readouterr().err
            if rc == "work" or (rc == 2 and err.startswith("error:")):
                outcomes["work" if rc == "work" else "exit 2"] += 1
            else:
                bad.append((line.strip(), value, repr(rc), err))
    assert bad == []
    assert outcomes["work"] > 0 and outcomes["exit 2"] > 0


def test_one_level_rw1_exits_2(tmp_path, capsys):
    # an rw1 over one level has no structure; the library says so, and the
    # CLI prints it as a usage error
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RW1_BINS.replace("{n_bins}", "1").replace("{data}", str(_small_data(tmp_path))))
    assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "2 levels" in capsys.readouterr().err


class TestImportFootprint:
    def test_assess_loads_no_integrate_or_optimize(self, tmp_path):
        # a fresh interpreter, so that no other test's imports count; the
        # mesh's vertex grid is numpy's, so scipy.spatial stays out too
        import subprocess
        import sys
        path = tmp_path / "fit.cfg"
        path.write_text(SPDE_CONFIG.format(data=_small_data(tmp_path), prior=""))
        out = tmp_path / "out"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import laplgm.cli as cli\n"
            f"code = cli.main(['assess', '--config', {str(path)!r}, '--out', {str(out)!r}])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules\n"
            "                               if m.startswith(('scipy.integrate', 'scipy.optimize',\n"
            "                                                'scipy.spatial')))]))\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        with open(out / "runlog.json") as fh:
            assert len(json.load(fh)["theta_mode"]) >= 2
        assert loaded == []

    def test_one_hyper_fit_loads_no_interpolate(self):
        # the spline of a one-hyperparameter marginal is numpy's, not SciPy's,
        # and a library fit loads no scipy.spatial either
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import numpy as np\n"
            "import laplgm as lg\n"
            "y = np.random.default_rng(4).poisson(2.0, 30).astype(float)\n"
            "hy = lg.log_precision_hyper('u.prec', 1.0)\n"
            "part = lg.StackPart(y, {'u': lg.index_block(range(30), 30)}, 'obs')\n"
            "model = lg.build_stack([part], [lg.IidComponent('u', 30, hy)], lg.PoissonLik())\n"
            "fit = lg.fit(model, lg.EngineConfig(int_strategy='ccd'))\n"
            "summary = fit.hyper_summary()\n"
            "print(json.dumps([len(fit.theta_mode), len(fit.nodes), len(summary),\n"
            "                  sorted(m for m in sys.modules\n"
            "                         if m.startswith(('scipy.interpolate',\n"
            "                                          'scipy.spatial')))]))\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        p, nodes, rows, loaded = json.loads(done.stdout.splitlines()[-1])
        assert (p, rows) == (1, 1)
        assert nodes >= 4   # the spline path of hyper_marginals
        assert loaded == []

"""Batch command-line front end.

Subcommands: simulate datasets, fit a model from a config file, predict at
tagged rows, assess a fit, and compare several fits.  Everything is driven
by one configuration file per model; all outputs are CSV files with a
schema comment line, written atomically, and byte-identical across reruns
with the same inputs and seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import assessment
from .simulation import (
    CovariateSpec as SimCovariate,
    SimulationSpec,
    random_sites,
    simulate as run_simulation,
)
from .config import check_keys, load_config, require
from .engine import EngineConfig, fit as engine_fit
from .errors import LaplgmError, ParseError
from .latent import (
    Ar1Component,
    Ar1Grouping,
    FixedEffect,
    GaussianPrior,
    HyperParam,
    IidComponent,
    LogGammaPrior,
    ReplicateGrouping,
    Rw1Component,
    Rw1Grouping,
    StackPart,
    bin_covariate,
    build_stack,
    correlation_hyper,
    group_block,
    spde_matern_component,
)
from .likelihoods import EXACT_PREDICTOR_LOG_PRECISION, FAMILIES
from .marginals import SUMMARY_QUANTILES
from .mesh import assemble, load_mesh, projector, structured_mesh

CSV_SCHEMA = "laplgm-csv v1"


# ------------------------------------------------------------------
# output helpers

def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-laplgm-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, name, header, rows):
    lines = [f"# {CSV_SCHEMA} {name}", ",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else _fmt(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path):
    """Columns of a CSV written by this tool (or plain CSV with a header)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ParseError(f"{path}:{no}: expected {len(header)} fields, got {len(parts)}")
        for h, v in zip(header, parts):
            cols[h].append(v)
    return cols


def _float_column(cols, name, path, missing_ok=False):
    if name not in cols:
        raise ParseError(f"{path}: missing column {name!r}")
    out = np.empty(len(cols[name]))
    for i, v in enumerate(cols[name]):
        s = v.strip()
        if s == "" or s.upper() in ("NA", "NAN"):
            if not missing_ok:
                raise ParseError(f"{path}: missing value in column {name!r}")
            out[i] = np.nan
        else:
            out[i] = float(s)
    return out


# ------------------------------------------------------------------
# config interpretation

def build_mesh(section, context="mesh"):
    kind = require(section, "kind", context)
    if kind == "structured":
        check_keys(section, {"kind", "x_min", "x_max", "y_min", "y_max", "nx", "ny"}, context)
        return structured_mesh(
            float(require(section, "x_min", context)), float(require(section, "x_max", context)),
            float(require(section, "y_min", context)), float(require(section, "y_max", context)),
            int(require(section, "nx", context)), int(require(section, "ny", context)))
    if kind == "files":
        check_keys(section, {"kind", "vertices", "triangles"}, context)
        return load_mesh(require(section, "vertices", context),
                         require(section, "triangles", context))
    raise ParseError(f"{context}: unknown mesh kind {kind!r}")


def _parse_prior(section, context):
    if section is None:
        return None
    kind = require(section, "kind", context)
    if kind == "gaussian":
        check_keys(section, {"kind", "mean", "precision"}, context)
        return GaussianPrior(float(section.get("mean", 0.0)),
                             float(require(section, "precision", context)))
    if kind == "loggamma":
        check_keys(section, {"kind", "shape", "rate"}, context)
        return LogGammaPrior(float(require(section, "shape", context)),
                             float(require(section, "rate", context)))
    raise ParseError(f"{context}: unknown prior kind {kind!r}")


def _log_prec_hyper(name, section, context):
    section = section or {}
    check_keys(section, {"initial_precision", "prior", "fixed"}, context)
    initial = float(section.get("initial_precision", 1.0))
    return HyperParam(name, np.log(initial), "log",
                      _parse_prior(section.get("prior"), context) or GaussianPrior(0.0, 0.1),
                      bool(section.get("fixed", False)))


def build_likelihood(section, context="likelihood"):
    family = require(section, "family", context)
    if family not in FAMILIES:
        raise ParseError(f"{context}: unknown family {family!r}; choose from {sorted(FAMILIES)}")
    if family == "gaussian":
        check_keys(section, {"family", "initial_precision", "prior", "fixed", "exact_predictor"},
                   context)
        if section.get("exact_predictor"):
            hyper = HyperParam("gaussian.log_precision", EXACT_PREDICTOR_LOG_PRECISION,
                               "log", fixed=True)
        else:
            hyper = _log_prec_hyper("gaussian.log_precision",
                                    {k: v for k, v in section.items() if k != "family"}, context)
        return FAMILIES[family](hyper)
    if family == "poisson":
        check_keys(section, {"family"}, context)
        return FAMILIES[family]()
    check_keys(section, {"family", "initial_dispersion", "prior", "fixed"}, context)
    initial = float(section.get("initial_dispersion", 10.0))
    prior = _parse_prior(section.get("prior"), context) or LogGammaPrior(10.0, 1.0)
    hyper = HyperParam("nbinomial.log_dispersion", np.log(initial), "log", prior,
                       bool(section.get("fixed", False)))
    return FAMILIES[family](hyper)


class ModelBundle:
    """Model plus the bookkeeping the commands need afterwards."""

    def __init__(self, model, mesh, spde_name, time_levels, time_index, pred_info):
        self.model = model
        self.mesh = mesh
        self.spde_name = spde_name
        self.time_levels = time_levels
        self.time_index = time_index
        self.pred_info = pred_info


def _covariate_values(cols, name, path, n):
    if name == "const":
        return np.ones(n)
    return _float_column(cols, name, path)


FIT_TOP_KEYS = {"name", "seed", "threads", "data", "likelihood", "mesh",
                "components", "predict", "engine"}


def build_model(cfg, config_path):
    """Assemble the ModelGraph described by a fit configuration."""
    check_keys(cfg, FIT_TOP_KEYS, config_path)
    data_path = require(cfg, "data", config_path)
    cols = read_csv(data_path)
    y = _float_column(cols, "y", data_path, missing_ok=True)
    n = y.size
    if not np.any(np.isfinite(y)):
        raise ParseError(f"{data_path}: no observed rows (column 'y' is all missing)")
    sites_xy = np.column_stack([_float_column(cols, "site_x", data_path),
                                _float_column(cols, "site_y", data_path)])
    time_col = _float_column(cols, "time", data_path)
    time_levels = np.unique(time_col)
    time_index = np.searchsorted(time_levels, time_col)
    T = time_levels.size

    mesh = None
    if cfg.get("mesh") is not None:
        mesh = build_mesh(cfg["mesh"])

    comp_sections = require(cfg, "components", config_path)
    components = []
    blocks = {}
    spde_name = None
    fem_cache = None
    proj_cache = None
    for sec in comp_sections:
        ctx = f"component {sec.get('name', '?')!r}"
        kind = require(sec, "kind", ctx)
        name = require(sec, "name", ctx)
        if kind == "fixed_effect":
            check_keys(sec, {"name", "kind", "covariate", "prior_precision"}, ctx)
            components.append(FixedEffect(name, float(sec.get("prior_precision", 1e-4))))
            blocks[name] = _covariate_values(cols, require(sec, "covariate", ctx), data_path, n)
        elif kind in ("iid", "ar1", "rw1"):
            check_keys(sec, {"name", "kind", "covariate", "n_bins", "precision",
                             "correlation_prior", "sum_to_zero"}, ctx)
            values = _covariate_values(cols, require(sec, "covariate", ctx), data_path, n)
            idx, centers = bin_covariate(values, sec.get("n_bins"))
            size = centers.size
            prec = _log_prec_hyper(f"{name}.log_precision", sec.get("precision"), ctx)
            if kind == "iid":
                comp = IidComponent(name, size, prec)
            elif kind == "ar1":
                corr = correlation_hyper(
                    f"{name}.correlation",
                    prior=_parse_prior(sec.get("correlation_prior"), ctx))
                comp = Ar1Component(name, size, prec, corr)
            else:
                comp = Rw1Component(name, size, prec,
                                    sum_to_zero=bool(sec.get("sum_to_zero", True)),
                                    bin_values=centers)
            components.append(comp)
            blocks[name] = ("index", idx, size)
        elif kind == "spde_matern":
            check_keys(sec, {"name", "kind", "alpha", "group", "initial_range",
                             "initial_sigma", "prior"}, ctx)
            if mesh is None:
                raise ParseError(f"{ctx}: spde_matern requires a top-level mesh section")
            if fem_cache is None:
                fem_cache = assemble(mesh)
                proj_cache = projector(mesh, sites_xy)
            alpha = int(sec.get("alpha", 2))
            grouping = None
            gsec = sec.get("group")
            if gsec is not None:
                gctx = f"{ctx} group"
                check_keys(gsec, {"kind", "correlation_prior"}, gctx)
                gkind = require(gsec, "kind", gctx)
                if gkind == "ar1":
                    grouping = Ar1Grouping(T, correlation_hyper(
                        f"{name}.group_correlation",
                        prior=_parse_prior(gsec.get("correlation_prior"), gctx)))
                elif gkind == "replicate":
                    grouping = ReplicateGrouping(T)
                elif gkind == "rw1":
                    grouping = Rw1Grouping(T)
                else:
                    raise ParseError(f"{gctx}: unknown group kind {gkind!r}")
            initial_range = sec.get("initial_range")
            comp = spde_matern_component(
                name, fem_cache, mesh, alpha,
                initial_range=None if initial_range is None else float(initial_range),
                initial_sigma=float(sec.get("initial_sigma", 1.0)),
                prior=_parse_prior(sec.get("prior"), ctx), grouping=grouping)
            components.append(comp)
            spde_name = name
            if grouping is not None:
                blocks[name] = ("group", proj_cache, time_index, T)
            else:
                blocks[name] = ("plain", proj_cache)
        else:
            raise ParseError(f"{ctx}: unknown component kind {kind!r}")

    def realize(blockspec):
        if isinstance(blockspec, np.ndarray):
            return blockspec
        tag = blockspec[0]
        if tag == "index":
            from .latent import index_block
            return index_block(blockspec[1], blockspec[2])
        if tag == "group":
            return group_block(blockspec[1], blockspec[2], blockspec[3])
        return blockspec[1]

    obs_blocks = {k: realize(v) for k, v in blocks.items()}
    parts = [StackPart(y=y, blocks=obs_blocks, tag="obs")]

    pred_info = None
    psec = cfg.get("predict")
    if psec is not None:
        ctx = "predict"
        check_keys(psec, {"n_grid", "time", "x_min", "x_max", "y_min", "y_max"}, ctx)
        n_grid = int(psec.get("n_grid", 51))
        t_value = float(require(psec, "time", ctx))
        lv = np.flatnonzero(np.isclose(time_levels, t_value))
        if lv.size == 0:
            raise ParseError(f"{ctx}: time {t_value} not among the data time levels")
        t_idx = int(lv[0])
        gx = np.linspace(float(psec.get("x_min", 0.0)), float(psec.get("x_max", 1.0)), n_grid)
        gy = np.linspace(float(psec.get("y_min", 0.0)), float(psec.get("y_max", 1.0)), n_grid)
        GX, GY = np.meshgrid(gx, gy)
        grid_pts = np.column_stack([GX.ravel(), GY.ravel()])
        m = grid_pts.shape[0]
        at_time = np.flatnonzero(time_index == t_idx)
        pred_blocks = {}
        for sec in comp_sections:
            name = sec["name"]
            kind = sec["kind"]
            if kind == "fixed_effect":
                cov = sec["covariate"]
                val = 1.0 if cov == "const" else float(
                    _float_column(cols, cov, data_path)[at_time[0]])
                pred_blocks[name] = np.full(m, val)
            elif kind in ("iid", "ar1", "rw1"):
                _, idx, size = blocks[name]
                from .latent import index_block
                pred_blocks[name] = index_block(np.full(m, idx[at_time[0]]), size)
            else:
                proj_pred = projector(mesh, grid_pts)
                if blocks[name][0] == "group":
                    pred_blocks[name] = group_block(proj_pred, np.full(m, t_idx), T)
                else:
                    pred_blocks[name] = proj_pred
        parts.append(StackPart(y=np.full(m, np.nan), blocks=pred_blocks, tag="pred"))
        pred_info = {"grid": grid_pts, "n_grid": n_grid, "time": t_value}

    likelihood = build_likelihood(require(cfg, "likelihood", config_path))
    model = build_stack(parts, components, likelihood)
    return ModelBundle(model, mesh, spde_name, time_levels, time_index, pred_info)


def engine_config(cfg, args):
    sec = cfg.get("engine") or {}
    check_keys(sec, {"int_strategy", "grid_step", "log_drop", "max_grid_nodes",
                     "newton_tol", "max_newton", "mode_budget", "mode_grad_tol",
                     "marginal_points", "marginal_span", "threads"}, "engine")
    ec = EngineConfig()
    ec.threads = os.cpu_count() or 1  # results do not depend on the cap
    if cfg.get("threads") is not None:
        ec.threads = int(cfg["threads"])
    if sec.get("int_strategy") is not None:
        ec.int_strategy = str(sec["int_strategy"])
    for key in ("grid_step", "log_drop", "newton_tol", "mode_grad_tol", "marginal_span"):
        if sec.get(key) is not None:
            setattr(ec, key, float(sec[key]))
    for key in ("max_grid_nodes", "max_newton", "mode_budget", "marginal_points", "threads"):
        if sec.get(key) is not None:
            setattr(ec, key, int(sec[key]))
    if getattr(args, "int_strategy", None):
        ec.int_strategy = args.int_strategy
    if getattr(args, "threads", None):
        ec.threads = args.threads
    return ec


# ------------------------------------------------------------------
# commands

def _summary_rows(named_summaries):
    header = ["name", "mean", "sd"] + [f"q{q}" for q in SUMMARY_QUANTILES] + ["mode"]
    rows = []
    for name, z in named_summaries.items():
        rows.append([name, z.mean, z.sd] + [z.quantiles[q] for q in SUMMARY_QUANTILES] + [z.mode])
    return header, rows


def cmd_simulate(cfg, args, out_dir):
    check_keys(cfg, {"name", "seed", "threads", "simulate"}, "config")
    sec = require(cfg, "simulate", "config")
    check_keys(sec, {"n_sites", "n_times", "mesh", "truth", "covariates", "family",
                     "family_param", "site_bounds"}, "simulate")
    mesh = build_mesh(require(sec, "mesh", "simulate"))
    truth = require(sec, "truth", "simulate")
    check_keys(truth, {"intercept", "ar_coef", "range0", "sigma0", "alpha"}, "simulate truth")
    covs = []
    for c in sec.get("covariates") or []:
        check_keys(c, {"name", "kind", "coef"}, "simulate covariate")
        covs.append(SimCovariate(c["name"], c["kind"], float(c["coef"])))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    n_sites = int(require(sec, "n_sites", "simulate"))
    bounds = sec.get("site_bounds") or [0.0, 1.0, 0.0, 1.0]
    sites = random_sites(n_sites, seed, tuple(float(b) for b in bounds))
    spec = SimulationSpec(
        mesh=mesh, sites=sites, n_times=int(require(sec, "n_times", "simulate")),
        range0=float(truth.get("range0", 0.25)), sigma0=float(truth.get("sigma0", 1.0)),
        ar_coef=float(truth.get("ar_coef", 0.5)), alpha=int(truth.get("alpha", 2)),
        intercept=float(truth.get("intercept", 0.0)), covariates=covs,
        family=sec.get("family", "poisson"),
        family_param=None if sec.get("family_param") is None else float(sec["family_param"]))
    data = run_simulation(spec, seed)

    cov_names = [c.name for c in covs]
    header = ["site_x", "site_y", "time", "y"] + cov_names
    rows = []
    for r in range(data.n_rows):
        s = data.row_site[r]
        t = data.row_time[r]
        row = [data.sites[s, 0], data.sites[s, 1], int(t), data.y[r]]
        row += [data.covariate_values[cn][t - 1] for cn in cov_names]
        rows.append(row)
    write_csv(os.path.join(out_dir, "data.csv"), "data", header, rows)
    write_csv(os.path.join(out_dir, "sites.csv"), "sites", ["site_x", "site_y"],
              [[x, y] for x, y in data.sites])
    truth_rows = []
    for t in range(data.n_times):
        for v in range(mesh.n_vertices):
            truth_rows.append([t + 1, v, mesh.vertices[v, 0], mesh.vertices[v, 1],
                               data.field_nodes[v, t]])
    write_csv(os.path.join(out_dir, "truth.csv"), "truth",
              ["time", "node", "x", "y", "value"], truth_rows)
    print(f"simulate: wrote {data.n_rows} rows to {out_dir}")
    return 0


def _seed_of(cfg, args):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return None if cfg.get("seed") is None else int(cfg["seed"])


def _run_fit(cfg, args, config_path):
    bundle = build_model(cfg, config_path)
    ec = engine_config(cfg, args)
    result = engine_fit(bundle.model, ec)
    return bundle, result


def _write_fit_outputs(bundle, result, out_dir, seed=None):
    model = bundle.model
    header, rows = _summary_rows(result.fixed_summary())
    write_csv(os.path.join(out_dir, "summary_fixed.csv"), "summary_fixed", header, rows)
    header, rows = _summary_rows(result.hyper_summary(scale="natural"))
    write_csv(os.path.join(out_dir, "summary_hyper.csv"), "summary_hyper", header, rows)
    atomic_write(os.path.join(out_dir, "mlik.txt"), f"{result.mlik!r}\n")

    mdir = os.path.join(out_dir, "marginals")
    for h in model.free_hyperparams():
        m = result.hyper_marginal(h.name, scale="natural")
        write_csv(os.path.join(mdir, f"hyper_{h.name}.csv"), "marginal",
                  ["grid", "density"], list(zip(m.grid, m.density)))
    for name, _ in result.fixed_summary().items():
        idx = model.col_offsets[name][0]
        m = result.latent_marginal(idx)
        write_csv(os.path.join(mdir, f"fixed_{name}.csv"), "marginal",
                  ["grid", "density"], list(zip(m.grid, m.density)))

    log = {
        "seed": seed,
        "n_rows": int(model.y.size),
        "n_observed": int(np.sum(model.observed)),
        "n_latent": int(model.n_latent),
        "theta_mode": {nm: float(v) for nm, v in zip(model.theta_names(), result.theta_mode)},
        "mlik": float(result.mlik),
        "nodes": len(result.nodes),
        "timings": {k: float(v) for k, v in result.timings.items()},
        "counts": {k: int(v) for k, v in result.counts.items()},
    }
    atomic_write(os.path.join(out_dir, "runlog.json"),
                 json.dumps(log, indent=2, sort_keys=True) + "\n")


def cmd_fit(cfg, args, out_dir, config_path):
    bundle, result = _run_fit(cfg, args, config_path)
    _write_fit_outputs(bundle, result, out_dir, seed=_seed_of(cfg, args))
    print(f"fit: mlik={result.mlik:.4f}, wrote outputs to {out_dir}")
    return 0


def cmd_predict(cfg, args, out_dir, config_path):
    if cfg.get("predict") is None:
        raise ParseError(f"{config_path}: predict command needs a `predict:` section")
    bundle, result = _run_fit(cfg, args, config_path)
    rng = bundle.model.tag_range("pred")
    grid = bundle.pred_info["grid"]
    rows_idx = np.arange(rng.start, rng.stop)
    eta_mean = result.pred_mean_post[rows_idx]
    eta_sd = result.pred_sd_post[rows_idx]
    mu_mean, mu_sd = result.response_moments()
    mu_mean, mu_sd = mu_mean[rows_idx], mu_sd[rows_idx]
    write_csv(os.path.join(out_dir, "pred_mean.csv"), "pred_mean",
              ["x", "y", "eta_mean", "mu_mean"],
              [[grid[i, 0], grid[i, 1], eta_mean[i], mu_mean[i]] for i in range(len(rows_idx))])
    write_csv(os.path.join(out_dir, "pred_sd.csv"), "pred_sd",
              ["x", "y", "eta_sd", "mu_sd"],
              [[grid[i, 0], grid[i, 1], eta_sd[i], mu_sd[i]] for i in range(len(rows_idx))])
    _write_fit_outputs(bundle, result, out_dir, seed=_seed_of(cfg, args))
    print(f"predict: wrote {len(rows_idx)} prediction rows to {out_dir}")
    return 0


def _write_assessment(bundle, result, out_dir):
    d = assessment.assess(result, bundle.model)
    write_csv(os.path.join(out_dir, "diagnostics.csv"), "diagnostics",
              ["index", "cpo", "pit", "failure"],
              [[int(i), c, p, f] for i, c, p, f in zip(d.index, d.cpo, d.pit, d.failure)])
    write_csv(os.path.join(out_dir, "criteria.csv"), "criteria",
              ["dic", "p_dic", "waic", "p_waic", "mlik"],
              [[d.dic, d.p_dic, d.waic, d.p_waic, d.mlik]])
    if bundle.spde_name is not None:
        comp = next(c for c in bundle.model.components if c.name == bundle.spde_name)
        if comp.alpha == 2:
            summ = assessment.spde_field_summary(result, bundle.model, bundle.spde_name)
            from .marginals import zmarginal
            rows = []
            for key in ("range", "variance"):
                z = zmarginal(summ[key])
                rows.append([key, z.mean, z.sd, z.quantiles[0.025], z.quantiles[0.975]])
            write_csv(os.path.join(out_dir, "spde_summary.csv"), "spde_summary",
                      ["quantity", "mean", "sd", "q0.025", "q0.975"], rows)
    return d


def cmd_assess(cfg, args, out_dir, config_path):
    bundle, result = _run_fit(cfg, args, config_path)
    _write_fit_outputs(bundle, result, out_dir, seed=_seed_of(cfg, args))
    d = _write_assessment(bundle, result, out_dir)
    print(f"assess: dic={d.dic:.2f} waic={d.waic:.2f} mlik={d.mlik:.2f}; wrote {out_dir}")
    return 0


COMPARISON_COLUMNS = ["model", "dic", "waic", "mlik",
                      "range_mean", "range_lo", "range_hi",
                      "variance_mean", "variance_lo", "variance_hi",
                      "a_mean", "a_lo", "a_hi"]


def cmd_compare(cfgs, args, out_dir, config_paths):
    entries = []
    for cfg, path in zip(cfgs, config_paths):
        name = cfg.get("name") or os.path.splitext(os.path.basename(path))[0]
        bundle, result = _run_fit(cfg, args, path)
        assessment.assess(result, bundle.model)
        entries.append((name, result, bundle.model))
    rows = assessment.compare(entries)
    out_rows = [[row.get(c) for c in COMPARISON_COLUMNS] for row in rows]
    write_csv(os.path.join(out_dir, "comparison.csv"), "comparison",
              COMPARISON_COLUMNS, out_rows)
    print(f"compare: wrote {len(rows)} rows to {out_dir}/comparison.csv")
    return 0


# ------------------------------------------------------------------

def make_parser():
    parser = argparse.ArgumentParser(
        prog="laplgm",
        description="Latent Gaussian model inference with sparse Gauss-Markov structure.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "fit", "predict", "assess", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", action="append", required=True,
                       help="configuration file (repeatable for compare)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--int-strategy", dest="int_strategy",
                       choices=["grid", "ccd", "eb"], default=None)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfgs = [load_config(p) for p in args.config]
        if args.command != "compare" and len(cfgs) != 1:
            raise ParseError(f"{args.command} takes exactly one --config")
        os.makedirs(args.out, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfgs[0], args, args.out)
        if args.command == "fit":
            return cmd_fit(cfgs[0], args, args.out, args.config[0])
        if args.command == "predict":
            return cmd_predict(cfgs[0], args, args.out, args.config[0])
        if args.command == "assess":
            return cmd_assess(cfgs[0], args, args.out, args.config[0])
        return cmd_compare(cfgs, args, args.out, args.config)
    except LaplgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

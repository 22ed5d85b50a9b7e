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
from typing import NamedTuple

import numpy as np

from . import assessment
from .simulation import (
    CovariateSpec as SimCovariate,
    SimulationSpec,
    random_sites,
    simulate as run_simulation,
)
from .config import check_keys, load_config, setting
from .engine import INT_STRATEGIES, EngineConfig, fit as engine_fit
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
    index_block,
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
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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


class CsvColumns(dict):
    """Column name -> cell strings; `lines[i]` is the file line of data row i."""

    lines: list


def read_csv(path):
    """Columns of a CSV written by this tool (or plain CSV with a header).

    Comment ('#') and blank lines are skipped; errors name a row by its line
    in the file, counted from 1 over every line.
    """
    try:
        with open(path) as fh:
            numbered = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, start=1)
                        if not ln.startswith("#") and ln.strip()]
    except (OSError, UnicodeError) as exc:
        raise ParseError(f"cannot read data {path}: {exc}") from exc
    if not numbered:
        raise ParseError(f"{path}: empty file")
    no, text = numbered[0]
    header = text.split(",")
    for k, h in enumerate(header):
        if h in header[:k]:
            raise ParseError(f"{path}:{no}: repeated column name {h!r}")
    cols = CsvColumns({h: [] for h in header})
    cols.lines = []
    for no, ln in numbered[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ParseError(f"{path}:{no}: expected {len(header)} fields, got {len(parts)}")
        for h, v in zip(header, parts):
            cols[h].append(v)
        cols.lines.append(no)
    return cols


def _float_column(cols, name, path, missing_ok=False):
    if name not in cols:
        raise ParseError(f"{path}: missing column {name!r}")
    out = np.empty(len(cols[name]))
    for i, v in enumerate(cols[name]):
        s = v.strip()
        if s == "" or s.upper() in ("NA", "NAN"):
            if not missing_ok:
                raise ParseError(f"{path}:{cols.lines[i]}: missing value in column {name!r}")
            out[i] = np.nan
        else:
            try:
                out[i] = float(s)
            except ValueError:
                raise ParseError(f"{path}:{cols.lines[i]}: column {name!r}: "
                                 f"{s!r} is not a number") from None
    return out


# ------------------------------------------------------------------
# config interpretation

BOX = ("x_min", "x_max", "y_min", "y_max")


def build_mesh(section, context="mesh"):
    kind = setting(section, "kind", context, "str", choices=("structured", "files"))
    if kind == "structured":
        check_keys(section, {"kind", *BOX, "nx", "ny"}, context)
        return structured_mesh(*(setting(section, k, context, "float") for k in BOX),
                               setting(section, "nx", context, "int"),
                               setting(section, "ny", context, "int"))
    check_keys(section, {"kind", "vertices", "triangles"}, context)
    return load_mesh(setting(section, "vertices", context, "str"),
                     setting(section, "triangles", context, "str"))


def _parse_prior(parent, key, context, default=None):
    """The prior section `key` of `parent`, else `default`."""
    section = setting(parent, key, context, "dict", None)
    if section is None:
        return default
    kind = setting(section, "kind", context, "str", choices=("gaussian", "loggamma"))
    if kind == "gaussian":
        check_keys(section, {"kind", "mean", "precision"}, context)
        return GaussianPrior(setting(section, "mean", context, "float", 0.0),
                             setting(section, "precision", context, "float"))
    check_keys(section, {"kind", "shape", "rate"}, context)
    return LogGammaPrior(setting(section, "shape", context, "float"),
                         setting(section, "rate", context, "float"))


def _log_hyper(name, section, context, initial_key, initial, prior, other_keys=()):
    """A log-scale hyperparameter from the section's `initial_key`, `prior` and `fixed`."""
    check_keys(section, {initial_key, "prior", "fixed", *other_keys}, context)
    return HyperParam(name, np.log(setting(section, initial_key, context, "positive", initial)),
                      "log", _parse_prior(section, "prior", context, prior),
                      setting(section, "fixed", context, "bool", False))


def build_likelihood(section, context="likelihood"):
    family = setting(section, "family", context, "str", choices=FAMILIES)
    if family == "poisson":
        check_keys(section, {"family"}, context)
        return FAMILIES[family]()
    if family == "nbinomial":
        return FAMILIES[family](_log_hyper("nbinomial.log_dispersion", section, context,
                                           "initial_dispersion", 10.0, LogGammaPrior(10.0, 1.0),
                                           {"family"}))
    hyper = _log_hyper("gaussian.log_precision", section, context, "initial_precision", 1.0,
                       GaussianPrior(0.0, 0.1), {"family", "exact_predictor"})
    if setting(section, "exact_predictor", context, "bool", False):
        hyper = HyperParam("gaussian.log_precision", EXACT_PREDICTOR_LOG_PRECISION, "log",
                           fixed=True)
    return FAMILIES[family](hyper)


class ModelBundle(NamedTuple):
    """Model plus the prediction grid (None without `predict:`)."""

    model: object
    pred_grid: np.ndarray | None


FIT_TOP_KEYS = {"name", "seed", "data", "likelihood", "mesh", "components", "predict",
                "engine"}
COMPONENT_KINDS = ("fixed_effect", "iid", "ar1", "rw1", "spde_matern")
SEED_MAX = 2**128 - 1


def build_model(cfg, config_path):
    """Assemble the ModelGraph described by a fit configuration."""
    check_keys(cfg, FIT_TOP_KEYS, config_path)
    data_path = setting(cfg, "data", config_path, "str")
    cols = read_csv(data_path)
    y = _float_column(cols, "y", data_path, missing_ok=True)
    n = y.size
    if np.isnan(y).all():
        raise ParseError(f"{data_path}: no observed rows (column 'y' is all missing)")
    sites_xy = np.column_stack([_float_column(cols, "site_x", data_path),
                                _float_column(cols, "site_y", data_path)])
    time_col = _float_column(cols, "time", data_path)
    time_levels = np.unique(time_col)
    time_index = np.searchsorted(time_levels, time_col)
    T = time_levels.size

    mesh_sec = setting(cfg, "mesh", config_path, "dict", None)
    mesh = None if mesh_sec is None else build_mesh(mesh_sec)

    comp_sections = setting(cfg, "components", config_path, "list")
    components = []
    # name -> function of (data rows, locations, time levels) giving the A-block
    blocks = {}
    fem_cache = None
    for i in range(len(comp_sections)):
        sec = setting(comp_sections, i, "components", "dict")
        name = setting(sec, "name", f"components[{i}]", "str")
        ctx = f"component {name!r}"
        kind = setting(sec, "kind", ctx, "str", choices=COMPONENT_KINDS)
        if kind != "spde_matern":
            cov = setting(sec, "covariate", ctx, "str")
            values = np.ones(n) if cov == "const" else _float_column(cols, cov, data_path)
        if kind == "fixed_effect":
            check_keys(sec, {"name", "kind", "covariate", "prior_precision"}, ctx)
            components.append(FixedEffect(name, setting(sec, "prior_precision", ctx, "float",
                                                         1e-4)))
            blocks[name] = lambda rows, points, times, values=values: values[rows]
        elif kind in ("iid", "ar1", "rw1"):
            check_keys(sec, {"name", "kind", "covariate", "n_bins", "precision",
                             "correlation_prior", "sum_to_zero"}, ctx)
            idx, centers = bin_covariate(values, setting(sec, "n_bins", ctx, "int", None))
            size = centers.size
            prec = _log_hyper(f"{name}.log_precision", setting(sec, "precision", ctx, "dict", {}),
                              ctx, "initial_precision", 1.0, GaussianPrior(0.0, 0.1))
            if kind == "iid":
                comp = IidComponent(name, size, prec)
            elif kind == "ar1":
                corr = correlation_hyper(f"{name}.correlation",
                                         prior=_parse_prior(sec, "correlation_prior", ctx))
                comp = Ar1Component(name, size, prec, corr)
            else:
                comp = Rw1Component(name, size, prec,
                                    sum_to_zero=setting(sec, "sum_to_zero", ctx, "bool", True))
            components.append(comp)
            blocks[name] = lambda rows, points, times, idx=idx, size=size: index_block(
                idx[rows], size)
        else:
            check_keys(sec, {"name", "kind", "alpha", "group", "initial_range",
                             "initial_sigma", "prior"}, ctx)
            if mesh is None:
                raise ParseError(f"{ctx}: spde_matern requires a top-level mesh section")
            if fem_cache is None:
                fem_cache = assemble(mesh)
            grouping = None
            gsec = setting(sec, "group", ctx, "dict", None)
            if gsec is not None:
                gctx = f"{ctx} group"
                check_keys(gsec, {"kind", "correlation_prior"}, gctx)
                gkind = setting(gsec, "kind", gctx, "str", choices=("ar1", "replicate", "rw1"))
                if gkind == "ar1":
                    grouping = Ar1Grouping(T, correlation_hyper(
                        f"{name}.group_correlation",
                        prior=_parse_prior(gsec, "correlation_prior", gctx)))
                else:
                    grouping = (ReplicateGrouping if gkind == "replicate" else Rw1Grouping)(T)
            comp = spde_matern_component(
                name, fem_cache, mesh, setting(sec, "alpha", ctx, "int", 2, hi=2),
                initial_range=setting(sec, "initial_range", ctx, "positive", None),
                initial_sigma=setting(sec, "initial_sigma", ctx, "positive", 1.0),
                prior=_parse_prior(sec, "prior", ctx), grouping=grouping)
            components.append(comp)
            if grouping is not None:
                blocks[name] = lambda rows, points, times: group_block(
                    projector(mesh, points), times, T)
            else:
                blocks[name] = lambda rows, points, times: projector(mesh, points)

    def stack_part(y, rows, points, times, tag):
        return StackPart(y=y, blocks={k: f(rows, points, times) for k, f in blocks.items()},
                         tag=tag)

    parts = [stack_part(y, np.arange(n), sites_xy, time_index, "obs")]

    grid_pts = None
    psec = setting(cfg, "predict", config_path, "dict", None)
    if psec is not None:
        ctx = "predict"
        check_keys(psec, {"n_grid", "time", *BOX}, ctx)
        n_grid = setting(psec, "n_grid", ctx, "int", 51)
        t_value = setting(psec, "time", ctx, "float")
        lv = np.flatnonzero(np.isclose(time_levels, t_value))
        if lv.size == 0:
            raise ParseError(f"{ctx}: time {t_value} not among the data time levels")
        t_idx = int(lv[0])
        x0, x1, y0, y1 = (setting(psec, k, ctx, "float", d)
                          for k, d in zip(BOX, (0.0, 1.0, 0.0, 1.0)))
        GX, GY = np.meshgrid(np.linspace(x0, x1, n_grid), np.linspace(y0, y1, n_grid))
        grid_pts = np.column_stack([GX.ravel(), GY.ravel()])
        m = grid_pts.shape[0]
        # covariates and indexed effects are read off the first data row at that time
        first_row = np.flatnonzero(time_index == t_idx)[0]
        parts.append(stack_part(np.full(m, np.nan), np.full(m, first_row), grid_pts,
                                np.full(m, t_idx), "pred"))

    likelihood = build_likelihood(setting(cfg, "likelihood", config_path, "dict"))
    model = build_stack(parts, components, likelihood)
    return ModelBundle(model, grid_pts)


def engine_config(cfg, path, args):
    """EngineConfig from the `engine:` section (checked whatever the flag); --int-strategy wins."""
    sec = setting(cfg, "engine", path, "dict", {})
    kinds = {"int_strategy": "str", "log_drop": "float", "newton_tol": "float"}
    check_keys(sec, kinds, "engine")
    ec = EngineConfig(**{k: setting(sec, k, "engine", kind, getattr(EngineConfig, k))
                         for k, kind in kinds.items()})
    if args.int_strategy:
        ec.int_strategy = args.int_strategy
    return ec


def _seed_of(cfg, args, path):
    """The --seed flag, else the config's `seed`, else None: a Philox key, < 2**128."""
    if args.seed is not None:
        return setting({"--seed": args.seed}, "--seed", "command line", "int", lo=0, hi=SEED_MAX)
    return setting(cfg, "seed", path, "int", None, lo=0, hi=SEED_MAX)


class FitJob(NamedTuple):
    """A fit config with its seed and engine settings, read and checked."""

    cfg: dict
    path: str
    seed: int | None
    engine: EngineConfig


# ------------------------------------------------------------------
# commands

def _summary_rows(named_summaries):
    header = ["name", "mean", "sd"] + [f"q{q}" for q in SUMMARY_QUANTILES] + ["mode"]
    rows = []
    for name, z in named_summaries.items():
        rows.append([name, z.mean, z.sd] + [z.quantiles[q] for q in SUMMARY_QUANTILES] + [z.mode])
    return header, rows


def cmd_simulate(cfg, out_dir, seed):
    check_keys(cfg, {"name", "seed", "simulate"}, "config")
    sec = setting(cfg, "simulate", "config", "dict")
    check_keys(sec, {"n_sites", "n_times", "mesh", "truth", "covariates", "family",
                     "family_param", "site_bounds"}, "simulate")
    mesh = build_mesh(setting(sec, "mesh", "simulate", "dict"))
    truth = setting(sec, "truth", "simulate", "dict")
    tctx = "simulate truth"
    check_keys(truth, {"intercept", "ar_coef", "range0", "sigma0", "alpha"}, tctx)
    items = setting(sec, "covariates", "simulate", "list", [])
    covs = []
    for i in range(len(items)):
        c = setting(items, i, "simulate covariates", "dict")
        ctx = f"simulate covariates[{i}]"
        check_keys(c, {"name", "kind", "coef"}, ctx)
        covs.append(SimCovariate(setting(c, "name", ctx, "str"), setting(c, "kind", ctx, "str"),
                                 setting(c, "coef", ctx, "float")))
    bounds = setting(sec, "site_bounds", "simulate", "list", [0.0, 1.0, 0.0, 1.0])
    if len(bounds) != 4:
        raise ParseError(f"simulate: site_bounds must hold 4 numbers, got {bounds!r}")
    sites = random_sites(setting(sec, "n_sites", "simulate", "int"), seed,
                         tuple(setting(bounds, i, "simulate site_bounds", "float")
                               for i in range(4)))
    spec = SimulationSpec(
        mesh=mesh, sites=sites, n_times=setting(sec, "n_times", "simulate", "int"),
        range0=setting(truth, "range0", tctx, "positive", 0.25),
        sigma0=setting(truth, "sigma0", tctx, "positive", 1.0),
        ar_coef=setting(truth, "ar_coef", tctx, "float", 0.5),
        alpha=setting(truth, "alpha", tctx, "int", 2, hi=2),
        intercept=setting(truth, "intercept", tctx, "float", 0.0), covariates=covs,
        family=setting(sec, "family", "simulate", "str", "poisson"),
        family_param=setting(sec, "family_param", "simulate", "float", None))
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


def _run_fit(job):
    bundle = build_model(job.cfg, job.path)
    return bundle, engine_fit(bundle.model, job.engine)


def _write_fit_outputs(bundle, result, out_dir, seed, cpo_failures=None):
    model = bundle.model
    fixed = result.fixed_summary()
    header, rows = _summary_rows(fixed)
    write_csv(os.path.join(out_dir, "summary_fixed.csv"), "summary_fixed", header, rows)
    header, rows = _summary_rows(result.hyper_summary())
    write_csv(os.path.join(out_dir, "summary_hyper.csv"), "summary_hyper", header, rows)
    atomic_write(os.path.join(out_dir, "mlik.txt"), f"{result.mlik!r}\n")

    mdir = os.path.join(out_dir, "marginals")
    for h in model.free_hyperparams():
        m = result.hyper_marginal(h.name, scale="natural")
        write_csv(os.path.join(mdir, f"hyper_{h.name}.csv"), "marginal",
                  ["grid", "density"], list(zip(m.grid, m.density)))
    for name in fixed:
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
        "design_departure": max(abs(nd.log_post - result.nodes[0].log_post
                                    + 0.5 * float(nd.z @ nd.z)) for nd in result.nodes),
        "timings": {k: float(v) for k, v in result.timings.items()},
        "counts": {k: int(v) for k, v in result.counts.items()},
        "factor": result.factor_layout,
    }
    if cpo_failures is not None:
        log["cpo_failures"] = cpo_failures
    atomic_write(os.path.join(out_dir, "runlog.json"),
                 json.dumps(log, indent=2, sort_keys=True) + "\n")


def cmd_fit(job, out_dir):
    bundle, result = _run_fit(job)
    _write_fit_outputs(bundle, result, out_dir, seed=job.seed)
    print(f"fit: mlik={result.mlik:.4f}, wrote outputs to {out_dir}")
    return 0


def cmd_predict(job, out_dir):
    setting(job.cfg, "predict", job.path, "dict")  # required by this command
    bundle, result = _run_fit(job)
    rng = bundle.model.tag_range("pred")
    grid = bundle.pred_grid
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
    _write_fit_outputs(bundle, result, out_dir, seed=job.seed)
    print(f"predict: wrote {len(rows_idx)} prediction rows to {out_dir}")
    return 0


def _write_assessment(result, model, out_dir):
    d = assessment.assess(result, model)
    write_csv(os.path.join(out_dir, "diagnostics.csv"), "diagnostics",
              ["index", "cpo", "pit", "failure"],
              [[int(i), c, p, f] for i, c, p, f in zip(d.index, d.cpo, d.pit, d.failure)])
    write_csv(os.path.join(out_dir, "criteria.csv"), "criteria",
              ["dic", "p_dic", "waic", "p_waic", "mlik"],
              [[d.dic, d.p_dic, d.waic, d.p_waic, d.mlik]])
    spde = assessment.spde_summary(result, model)
    if spde is not None:
        write_csv(os.path.join(out_dir, "spde_summary.csv"), "spde_summary",
                  ["quantity", "mean", "sd", "q0.025", "q0.975"],
                  [[key, z.mean, z.sd, z.quantiles[0.025], z.quantiles[0.975]]
                   for key, z in spde.items()])
    return d


def cmd_assess(job, out_dir):
    bundle, result = _run_fit(job)
    d = _write_assessment(result, bundle.model, out_dir)
    _write_fit_outputs(bundle, result, out_dir, seed=job.seed,
                       cpo_failures=int(np.sum(d.failure)))
    print(f"assess: dic={d.dic:.2f} waic={d.waic:.2f} mlik={d.mlik:.2f}; wrote {out_dir}")
    return 0


COMPARISON_COLUMNS = ["model", "dic", "waic", "mlik",
                      "range_mean", "range_lo", "range_hi",
                      "variance_mean", "variance_lo", "variance_hi",
                      "a_mean", "a_lo", "a_hi"]


def cmd_compare(jobs, out_dir):
    # every model is built, and so every setting read, before the first fit
    names = [setting(job.cfg, "name", job.path, "str", None)
             or os.path.splitext(os.path.basename(job.path))[0] for job in jobs]
    bundles = [build_model(job.cfg, job.path) for job in jobs]
    entries = [(name, engine_fit(bundle.model, job.engine), bundle.model)
               for name, bundle, job in zip(names, bundles, jobs)]
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
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; inference runs on one thread")
        p.add_argument("--int-strategy", dest="int_strategy",
                       choices=INT_STRATEGIES, default=None)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfgs = [load_config(p) for p in args.config]
        if args.command != "compare" and len(cfgs) != 1:
            raise ParseError(f"{args.command} takes exactly one --config")
        if len(cfgs) < 2 and args.command == "compare":
            raise ParseError("compare takes at least two --config")
        os.makedirs(args.out, exist_ok=True)
        # every setting is read before any work (the model's by build_model)
        seeds = [_seed_of(cfg, args, path) for cfg, path in zip(cfgs, args.config)]
        if args.command == "simulate":
            return cmd_simulate(cfgs[0], args.out, 0 if seeds[0] is None else seeds[0])
        jobs = [FitJob(cfg, path, seed, engine_config(cfg, path, args))
                for cfg, path, seed in zip(cfgs, args.config, seeds)]
        if args.command == "compare":
            return cmd_compare(jobs, args.out)
        command = {"fit": cmd_fit, "predict": cmd_predict, "assess": cmd_assess}[args.command]
        return command(jobs[0], args.out)
    except LaplgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

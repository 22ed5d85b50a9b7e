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
from .config import check_keys, load_config, require
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
    with open(path) as fh:
        numbered = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, start=1)
                    if not ln.startswith("#") and ln.strip()]
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

_REQUIRED = object()


def _int_setting(section, key, context, default=_REQUIRED, top=None):
    """The integer setting `key` of a config section, from 1 to `top` (no
    bound when None); `default` when the key is absent, if one is given.

    A float, bool or string value is an error, not truncated.
    """
    value = require(section, key, context) if default is _REQUIRED else section.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < 1 \
            or (top is not None and value > top):
        bound = "at least 1" if top is None else f"from 1 to {top}"
        raise ParseError(f"{context}: {key} must be an integer {bound}, got {value!r}")
    return value


def build_mesh(section, context="mesh"):
    kind = require(section, "kind", context)
    if kind == "structured":
        check_keys(section, {"kind", "x_min", "x_max", "y_min", "y_max", "nx", "ny"}, context)
        return structured_mesh(
            float(require(section, "x_min", context)), float(require(section, "x_max", context)),
            float(require(section, "y_min", context)), float(require(section, "y_max", context)),
            _int_setting(section, "nx", context), _int_setting(section, "ny", context))
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


class ModelBundle(NamedTuple):
    """Model plus the prediction grid (None without `predict:`)."""

    model: object
    pred_grid: np.ndarray | None


def _covariate_values(cols, name, path, n):
    if name == "const":
        return np.ones(n)
    return _float_column(cols, name, path)


FIT_TOP_KEYS = {"name", "seed", "data", "likelihood", "mesh", "components", "predict",
                "engine"}


def build_model(cfg, config_path):
    """Assemble the ModelGraph described by a fit configuration."""
    check_keys(cfg, FIT_TOP_KEYS, config_path)
    data_path = require(cfg, "data", config_path)
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

    mesh = None if cfg.get("mesh") is None else build_mesh(cfg["mesh"])

    comp_sections = require(cfg, "components", config_path)
    components = []
    # name -> function of (data rows, locations, time levels) giving the A-block
    blocks = {}
    fem_cache = None
    for sec in comp_sections:
        ctx = f"component {sec.get('name', '?')!r}"
        kind = require(sec, "kind", ctx)
        name = require(sec, "name", ctx)
        if kind == "fixed_effect":
            check_keys(sec, {"name", "kind", "covariate", "prior_precision"}, ctx)
            components.append(FixedEffect(name, float(sec.get("prior_precision", 1e-4))))
            values = _covariate_values(cols, require(sec, "covariate", ctx), data_path, n)
            blocks[name] = lambda rows, points, times, values=values: values[rows]
        elif kind in ("iid", "ar1", "rw1"):
            check_keys(sec, {"name", "kind", "covariate", "n_bins", "precision",
                             "correlation_prior", "sum_to_zero"}, ctx)
            values = _covariate_values(cols, require(sec, "covariate", ctx), data_path, n)
            idx, centers = bin_covariate(values, _int_setting(sec, "n_bins", ctx, None))
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
                                    sum_to_zero=bool(sec.get("sum_to_zero", True)))
            components.append(comp)
            blocks[name] = lambda rows, points, times, idx=idx, size=size: index_block(
                idx[rows], size)
        elif kind == "spde_matern":
            check_keys(sec, {"name", "kind", "alpha", "group", "initial_range",
                             "initial_sigma", "prior"}, ctx)
            if mesh is None:
                raise ParseError(f"{ctx}: spde_matern requires a top-level mesh section")
            if fem_cache is None:
                fem_cache = assemble(mesh)
            alpha = _int_setting(sec, "alpha", ctx, 2, top=2)
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
            if grouping is not None:
                blocks[name] = lambda rows, points, times: group_block(
                    projector(mesh, points), times, T)
            else:
                blocks[name] = lambda rows, points, times: projector(mesh, points)
        else:
            raise ParseError(f"{ctx}: unknown component kind {kind!r}")

    def stack_part(y, rows, points, times, tag):
        return StackPart(y=y, blocks={k: f(rows, points, times) for k, f in blocks.items()},
                         tag=tag)

    parts = [stack_part(y, np.arange(n), sites_xy, time_index, "obs")]

    grid_pts = None
    psec = cfg.get("predict")
    if psec is not None:
        ctx = "predict"
        check_keys(psec, {"n_grid", "time", "x_min", "x_max", "y_min", "y_max"}, ctx)
        n_grid = _int_setting(psec, "n_grid", ctx, 51)
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
        # covariates and indexed effects are read off the first data row at that time
        first_row = np.flatnonzero(time_index == t_idx)[0]
        parts.append(stack_part(np.full(m, np.nan), np.full(m, first_row), grid_pts,
                                np.full(m, t_idx), "pred"))

    likelihood = build_likelihood(require(cfg, "likelihood", config_path))
    model = build_stack(parts, components, likelihood)
    return ModelBundle(model, grid_pts)


def engine_config(cfg, args):
    """EngineConfig from the `engine:` section, --int-strategy taking precedence.

    The section's values are checked by EngineConfig, whatever the flag.
    """
    sec = cfg.get("engine") or {}
    check_keys(sec, {"int_strategy", "log_drop", "newton_tol"}, "engine")
    try:
        ec = EngineConfig(**{k: v for k, v in sec.items() if v is not None})
    except ValueError as err:
        raise ParseError(f"engine: {err}") from None
    if args.int_strategy:
        ec.int_strategy = args.int_strategy
    return ec


def _seed_of(cfg, args, path):
    """The --seed flag, else the config's integer `seed`, else None.

    A seed keys a Philox stream, so it lies in [0, 2**128).
    """
    source, seed = ("--seed", args.seed) if args.seed is not None else \
        (f"{path}: seed", cfg.get("seed"))
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)
                             or not 0 <= seed < 2**128):
        raise ParseError(f"{source} must be an integer in [0, 2**128), got {seed!r}")
    return seed


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
    n_sites = _int_setting(sec, "n_sites", "simulate")
    bounds = sec.get("site_bounds") or [0.0, 1.0, 0.0, 1.0]
    sites = random_sites(n_sites, seed, tuple(float(b) for b in bounds))
    spec = SimulationSpec(
        mesh=mesh, sites=sites, n_times=_int_setting(sec, "n_times", "simulate"),
        range0=float(truth.get("range0", 0.25)), sigma0=float(truth.get("sigma0", 1.0)),
        ar_coef=float(truth.get("ar_coef", 0.5)),
        alpha=_int_setting(truth, "alpha", "simulate truth", 2, top=2),
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
    if job.cfg.get("predict") is None:
        raise ParseError(f"{job.path}: predict command needs a `predict:` section")
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
    entries = []
    for job in jobs:
        name = job.cfg.get("name") or os.path.splitext(os.path.basename(job.path))[0]
        bundle, result = _run_fit(job)
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
        # every setting is read here, so that a bad value stops the run before any work
        seeds = [_seed_of(cfg, args, path) for cfg, path in zip(cfgs, args.config)]
        if args.command == "simulate":
            return cmd_simulate(cfgs[0], args.out, 0 if seeds[0] is None else seeds[0])
        jobs = [FitJob(cfg, path, seed, engine_config(cfg, args))
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

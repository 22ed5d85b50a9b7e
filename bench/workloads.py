"""Benchmark workloads: input generation, model set-up, inference and output checks.

Every workload has four steps, each run inside a benchmark child process:

- ``generate(seed, work)`` writes the inputs under ``work`` (untimed);
- ``setup(work)`` builds the model from those inputs (timed as ``setup_s``);
- ``run(state, work, tag)`` runs the inference call(s) (timed as ``run_s``);
- ``check(state, out)`` returns ``(failures, digest)``: the list of failed
  output checks and a text digest that must repeat exactly across runs.

``laplgm`` is looked up through its modules at call time (``laplgm.engine.fit``,
not a name imported once), so the wrappers that ``tracing.install`` puts on
those module attributes see every call.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# tolerances of the output checks
MARGINAL_MASS_TOL = 1e-6        # |integral - 1| of an in-memory marginal density
CSV_MARGINAL_MASS_TOL = 1e-3    # the same, re-integrated from a written CSV
MODE_GRADIENT_TOL = 1e-6        # max |gradient| at the latent mode, relative


def _fmt(x):
    return repr(float(x))


def _mode_gradient(model, theta, x):
    """Relative gradient of the penalized log objective at the latent mode x.

    g = A_obs' d/d(eta) log p(y | eta) - Q(theta) x, projected onto the null
    space of the model's linear constraints, divided by 1 + the size of its
    two terms.
    """
    obs = np.flatnonzero(model.observed)
    A = model.A[obs]
    eta = A @ x
    values = model.values_from_theta(theta)
    param = model.likelihood.param(values)
    d1, _ = model.likelihood.derivs(model.y[obs], eta, param)
    Q = model.prior_quantities(theta)[0]
    lik_part = A.T @ d1
    prior_part = Q @ x
    g = lik_part - prior_part
    M = model.constraint_matrix
    if M.shape[0]:
        g = g - M.T @ np.linalg.solve(M @ M.T, M @ g)
    scale = 1.0 + max(float(np.max(np.abs(lik_part))), float(np.max(np.abs(prior_part))))
    return float(np.max(np.abs(g))) / scale


def _check_fit(fit, model):
    """Checks shared by the library workloads; returns (failures, digest lines)."""
    failures = []
    if not np.isfinite(fit.mlik):
        failures.append(f"mlik is not finite: {fit.mlik!r}")
    lines = [f"mlik {_fmt(fit.mlik)}", "theta " + " ".join(_fmt(t) for t in fit.theta_mode)]
    fixed = fit.fixed_summary()
    for name, z in fixed.items():
        lines.append(f"fixed {name} {_fmt(z.mean)} {_fmt(z.sd)}")
    hyper = fit.hyper_summary()
    for name, z in hyper.items():
        lines.append(f"hyper {name} {_fmt(z.mean)} {_fmt(z.sd)}")
    marginals = [fit.latent_marginal(model.col_offsets[name][0]) for name in fixed]
    marginals += [fit.hyper_marginal(name) for name in hyper]
    for m in marginals:
        if abs(m.integral() - 1.0) > MARGINAL_MASS_TOL:
            failures.append(f"marginal density integrates to {m.integral()!r}")
    centre = [k for k, nd in enumerate(fit.nodes) if np.array_equal(nd.theta, fit.theta_mode)]
    if not centre:
        failures.append("no integration node sits at the reported mode")
    else:
        grad = _mode_gradient(model, fit.theta_mode, fit.latent_mean[centre[0]])
        if not grad <= MODE_GRADIENT_TOL:
            failures.append(f"gradient at the latent mode is {grad:.3g}")
    return failures, lines


# ---------------------------------------------------------------------------
# desk_spacetime: the ROADMAP reference fit (W1)

class DeskSpacetime:
    """Space-time Poisson SPDE fit with AR(1) grouping, then assessment."""

    n_sites, n_times = 30, 20
    bounds = (-0.25, 1.25, -0.25, 1.25)
    threads = 1

    def generate(self, seed, work):
        import laplgm.mesh as mm
        import laplgm.simulation as sim
        mesh = mm.structured_mesh(*self.bounds, 24, 24)
        sites = sim.random_sites(self.n_sites, seed)
        spec = sim.SimulationSpec(
            mesh=mesh, sites=sites, n_times=self.n_times, range0=0.25, sigma0=1.0,
            ar_coef=0.5, intercept=-1.0,
            covariates=[sim.CovariateSpec("covar1", "linear_time", 1.0),
                        sim.CovariateSpec("covar2", "ma5", 0.5)])
        data = sim.simulate(spec, seed)
        np.savez(os.path.join(work, "inputs.npz"), sites=sites, y=data.y,
                 row_site=data.row_site, row_time=data.row_time,
                 covar1=data.covariate_values["covar1"],
                 covar2=data.covariate_values["covar2"])

    def setup(self, work):
        import laplgm.latent as lm
        import laplgm.likelihoods as lk
        import laplgm.mesh as mm
        d = np.load(os.path.join(work, "inputs.npz"))
        T = self.n_times
        t_idx = d["row_time"] - 1
        mesh = mm.structured_mesh(*self.bounds, 13, 13)
        fem = mm.assemble(mesh)
        proj = mm.projector(mesh, d["sites"])
        grouping = lm.Ar1Grouping(T, lm.correlation_hyper("spatial.a"))
        spde = lm.spde_matern_component("spatial", fem, mesh, alpha=2,
                                        initial_range=0.25, grouping=grouping)
        comps = [lm.FixedEffect("intercept"), lm.FixedEffect("covar1"),
                 lm.FixedEffect("covar2"), spde]
        block = lm.group_block(proj[d["row_site"]], t_idx, T)
        part = lm.StackPart(d["y"], {"intercept": np.ones(d["y"].size),
                                     "covar1": d["covar1"][t_idx],
                                     "covar2": d["covar2"][t_idx],
                                     "spatial": block}, "obs")
        return lm.build_stack([part], comps, lk.PoissonLik())

    def run(self, model, work, tag):
        import laplgm.assessment
        import laplgm.engine
        fit = laplgm.engine.fit(
            model, laplgm.engine.EngineConfig(int_strategy="ccd", threads=self.threads))
        diag = laplgm.assessment.assess(fit, model)
        return fit, diag

    def check(self, model, out):
        fit, diag = out
        failures, lines = _check_fit(fit, model)
        for name in ("dic", "waic"):
            value = getattr(diag, name)
            if not np.isfinite(value):
                failures.append(f"{name} is not finite")
            lines.append(f"{name} {_fmt(value)}")
        return failures, "\n".join(lines)


# ---------------------------------------------------------------------------
# cli_gaussian: `laplgm assess` on data written by `laplgm simulate`

SIM_CONFIG = """\
seed: {seed}
simulate:
  n_sites: 60
  n_times: 12
  mesh:
    kind: structured
    x_min: -0.25
    x_max: 1.25
    y_min: -0.25
    y_max: 1.25
    nx: 16
    ny: 16
  truth:
    intercept: 1.0
    ar_coef: 0.0
    range0: 0.3
    sigma0: 1.0
  covariates:
    - name: covar1
      kind: ma5
      coef: 0.5
  family: gaussian
  family_param: 4.0
"""

FIT_CONFIG = """\
seed: {seed}
data: {data}
likelihood:
  family: gaussian
mesh:
  kind: structured
  x_min: -0.25
  x_max: 1.25
  y_min: -0.25
  y_max: 1.25
  nx: 12
  ny: 12
components:
  - name: intercept
    kind: fixed_effect
    covariate: const
  - name: covar1
    kind: fixed_effect
    covariate: covar1
  - name: trend
    kind: rw1
    covariate: time
    sum_to_zero: true
  - name: spatial
    kind: spde_matern
    alpha: 2
    initial_range: 0.3
    group:
      kind: replicate
predict:
  n_grid: 41
  time: 6
engine:
  int_strategy: ccd
"""

def _deterministic_outputs(out_dir):
    """Outputs whose bytes must repeat across runs and thread counts.

    runlog.json holds timings and is left out.
    """
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            if name.endswith(".csv") or name == "mlik.txt":
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out_dir)] = fh.read()
    return dict(sorted(files.items()))


def _csv_marginal_mass(raw):
    rows = [line.split(",") for line in raw.decode().splitlines()[2:]]
    grid = np.array([float(r[0]) for r in rows])
    dens = np.array([float(r[1]) for r in rows])
    return float(np.trapezoid(dens, grid))


class CliGaussian:
    """`laplgm assess --threads 2` on a Gaussian rw1 + replicate-SPDE model."""

    # the node stage's workers, never more than the CPUs this process may use
    threads = min(2, len(os.sched_getaffinity(0)))

    def generate(self, seed, work):
        import laplgm.cli as cli
        sim_cfg = os.path.join(work, "sim.cfg")
        with open(sim_cfg, "w") as fh:
            fh.write(SIM_CONFIG.format(seed=seed))
        sim_dir = os.path.join(work, "sim")
        if cli.main(["simulate", "--config", sim_cfg, "--out", sim_dir]) != 0:
            raise RuntimeError("laplgm simulate failed")
        with open(os.path.join(work, "fit.cfg"), "w") as fh:
            fh.write(FIT_CONFIG.format(seed=seed, data=os.path.join(sim_dir, "data.csv")))

    def setup(self, work):
        import laplgm.cli as cli
        path = os.path.join(work, "fit.cfg")
        cfg = cli.load_config(path)
        cli.build_model(cfg, path)
        return path

    def run(self, config_path, work, tag, threads=None):
        import laplgm.cli as cli
        out_dir = os.path.join(work, f"out-{tag}")
        argv = ["assess", "--config", config_path, "--out", out_dir,
                "--threads", str(threads or self.threads)]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"laplgm assess exited with {code}")
        return out_dir

    def check(self, config_path, out_dir):
        failures = []
        files = _deterministic_outputs(out_dir)
        with open(os.path.join(out_dir, "mlik.txt")) as fh:
            mlik = float(fh.read())
        if not np.isfinite(mlik):
            failures.append(f"mlik is not finite: {mlik!r}")
        for name, raw in files.items():
            if name.startswith("marginals" + os.sep):
                mass = _csv_marginal_mass(raw)
                if abs(mass - 1.0) > CSV_MARGINAL_MASS_TOL:
                    failures.append(f"{name} integrates to {mass!r}")
        with open(os.path.join(out_dir, "runlog.json")) as fh:
            theta_mode = json.load(fh)["theta_mode"]
        failures += self._gradient_check(config_path, theta_mode)
        digest = "\n".join(f"{name} {hashlib.sha256(raw).hexdigest()}"
                           for name, raw in files.items())
        return failures, digest

    def _gradient_check(self, config_path, theta_mode):
        """Refit the latent mode at the written theta mode and test its gradient.

        The CLI writes no latent field, so the mode at the reported theta is
        found again here (untimed) by the library's Gaussian approximation.
        """
        import laplgm.cli as cli
        import laplgm.engine
        cfg = cli.load_config(config_path)
        model = cli.build_model(cfg, config_path).model
        theta = np.array([theta_mode[name] for name in model.theta_names()])
        approx = laplgm.engine.Engine(model).gaussian_approximation(theta)
        grad = _mode_gradient(model, theta, approx.x_star)
        if not grad <= MODE_GRADIENT_TOL:
            return [f"gradient at the latent mode is {grad:.3g}"]
        return []


WORKLOADS = {
    "desk_spacetime": DeskSpacetime(),
    "cli_gaussian": CliGaussian(),
}

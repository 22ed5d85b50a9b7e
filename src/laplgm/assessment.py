"""Model criticism and comparison.

Cross-validated predictive ordinates and probability integral transforms
without refitting, deviance and pointwise-predictive information criteria,
and a comparison table over candidate fits.  All posterior expectations
reuse the integration nodes of the fit; per-observation integrals use
Gauss-Hermite quadrature against the mixture of per-node predictor
marginals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataMismatch
from .latent import SpdeMaternComponent, matern_range_variance
from .marginals import zmarginal

GH_POINTS = 21
FAILURE_SHARE = 0.95
# (node, observation, quadrature) tensor entries that one block of observations holds
BLOCK_ENTRIES = 2 ** 15


@dataclass
class Diagnostics:
    """Per-observation predictive diagnostics plus information criteria."""

    index: np.ndarray
    cpo: np.ndarray
    pit: np.ndarray
    failure: np.ndarray
    dic: float
    p_dic: float
    waic: float
    p_waic: float
    mlik: float


def _gh_rule():
    t, w = np.polynomial.hermite.hermgauss(GH_POINTS)
    return t, w / np.sqrt(np.pi)


def _sum02(a):
    """Σ over axes (0, 2): each node's quadrature points, then the nodes in order.

    This is numpy's own order for two or more observations.  numpy folds the
    node and quadrature axes of a one-observation array into one and sums it
    pairwise, so an observation would get other bits in a block of its own.
    """
    return np.add.accumulate(np.sum(a, axis=2), axis=0)[-1]


def _logsumexp(a):
    """log Σ exp(a) over axes (0, 2), with scipy.special.logsumexp's arithmetic.

    The entries equal to the maximum are taken out of the sum and counted
    (m), and the result is log1p(s) + log(m) + max with s the sum of the
    other exponentials over m.  A slice that is all -inf gives -inf.
    """
    a_max = np.max(a, axis=(0, 2), keepdims=True)
    at_max = a == a_max
    m = np.sum(at_max, axis=(0, 2), dtype=float)
    with np.errstate(invalid="ignore"):   # -inf - -inf on all -inf slices
        e = np.exp(a - a_max)
    e[at_max] = 0.0
    s = _sum02(e) / m
    return np.log1p(s) + np.log(m) + a_max[0, :, 0]


def _node_tensors(fit, model, rows, params, t):
    """Log-likelihood and CDF on the (node, observation, quadrature) grid of `rows`.

    `params` holds the nodes' likelihood parameters as a (nodes, 1, 1) array,
    or None for a family without one.
    """
    y = model.y[rows][:, None]
    m = fit.pred_mean[:, rows][:, :, None]
    s = fit.pred_sd[:, rows][:, :, None]
    eta = m + np.sqrt(2.0) * s * t
    yy = np.broadcast_to(y, eta.shape)
    return model.likelihood.log_lik(yy, eta, params), model.likelihood.cdf(yy, eta, params)


def _cpo_pit(logw, llik, cdf):
    contrib = logw - llik
    # log E[1/lik]
    log_inv = _logsumexp(contrib)
    cpo = np.exp(-log_inv)
    with np.errstate(divide="ignore"):
        log_num = _logsumexp(contrib + np.log(np.clip(cdf, 0.0, None)))
    pit = np.clip(np.exp(log_num - log_inv), 0.0, 1.0)

    contrib_max = np.max(contrib, axis=(0, 2))
    share = np.exp(contrib_max - log_inv)
    flat = contrib.transpose(1, 0, 2).reshape(llik.shape[1], -1)
    q_at_max = np.argmax(flat, axis=1) % GH_POINTS
    at_boundary = (q_at_max < 2) | (q_at_max >= GH_POINTS - 2)
    failure = ((~np.isfinite(log_inv)) | (share > FAILURE_SHARE)
               | at_boundary).astype(float)
    return cpo, pit, failure


def _waic_terms(logw, llik):
    """log E[lik], E[log lik] and Var[log lik] of each observation.

    E[log lik] is also the observation's share of DIC's mean deviance (times -2).
    """
    lppd_i = _logsumexp(logw + llik)
    wmix = np.exp(logw)
    e1 = _sum02(llik * wmix)
    e2 = _sum02(llik**2 * wmix)
    return lppd_i, e1, np.clip(e2 - e1**2, 0.0, None)


def _diagnostics(fit, model):
    """Every diagnostic from one pass over the observed rows.

    The (node, observation, quadrature) tensors are built and reduced one
    block of rows at a time, BLOCK_ENTRIES entries at most (one row at
    least), so memory does not grow with the number of observations.  Every
    reduction runs along the node and quadrature axes of one row, so a row's
    terms do not depend on the block it falls in.
    """
    obs = np.flatnonzero(model.observed)
    t, w = _gh_rule()
    logw = np.log(fit.weights)[:, None, None] + np.log(w)[None, None, :]
    params = [model.likelihood.param(model.values_from_theta(node.theta))
              for node in fit.nodes]
    params = None if params[0] is None else np.array(params)[:, None, None]
    terms = np.empty((6, obs.size))
    step = max(1, BLOCK_ENTRIES // (len(fit.nodes) * GH_POINTS))
    for start in range(0, obs.size, step):
        block = slice(start, start + step)
        llik, cdf = _node_tensors(fit, model, obs[block], params, t)
        terms[:3, block] = _cpo_pit(logw, llik, cdf)
        terms[3:, block] = _waic_terms(logw, llik)
    cpo, pit, failure, lppd_i, mean_llik, p_i = terms

    dbar = -2.0 * float(np.sum(mean_llik))
    param_mode = model.likelihood.param(model.values_from_theta(fit.theta_mode))
    eta_bar = fit.pred_mean_post[obs]
    dhat = -2.0 * float(np.sum(model.likelihood.log_lik(model.y[obs], eta_bar, param_mode)))
    p_dic = dbar - dhat
    return Diagnostics(
        index=obs,
        cpo=cpo, pit=pit, failure=failure,
        dic=dbar + p_dic, p_dic=p_dic,
        waic=float(-2.0 * (np.sum(lppd_i) - np.sum(p_i))), p_waic=float(np.sum(p_i)),
        mlik=fit.mlik,
    )


def cpo_pit(fit, model):
    """Leave-one-out predictive density and CDF without reestimation.

    cpo_i is the harmonic-mean identity evaluated on the node mixture;
    pit_i replaces the reciprocal density by cdf/density.  failure_i is 1
    when the inner expectation is non-finite, dominated by a single
    quadrature contribution, or peaks on the outermost quadrature nodes
    (the reciprocal integrand blowing up in the tail).
    """
    d = _diagnostics(fit, model)
    return d.cpo, d.pit, d.failure


def dic(fit, model):
    """Deviance information criterion and its effective parameter count."""
    d = _diagnostics(fit, model)
    return d.dic, d.p_dic


def waic(fit, model):
    """Widely applicable information criterion with its penalty."""
    d = _diagnostics(fit, model)
    return d.waic, d.p_waic


def assess(fit, model):
    """All diagnostics from one pass over the observations; also attached to the fit."""
    fit.diagnostics = _diagnostics(fit, model)
    return fit.diagnostics


def spde_field_summary(fit, model, name):
    """Posterior summaries of empirical range and marginal variance.

    log(range) and log(variance) are linear in the internal (log tau,
    log kappa) pair, so their marginals come from projecting the node
    mixture onto those combinations.
    """
    from .engine import hyper_lincomb_marginal
    from .marginals import transform_marginal

    comp = next(c for c in model.components
                if c.name == name and isinstance(c, SpdeMaternComponent))
    nu = comp.alpha - 1.0
    if nu <= 0:
        raise ValueError("range/variance summaries need alpha = 2 in two dimensions")
    names = model.theta_names()
    j_tau = names.index(comp.log_tau.name)
    j_kappa = names.index(comp.log_kappa.name)
    p = len(names)
    ref_range, ref_var = matern_range_variance(1.0, 1.0, nu=nu)

    v = np.zeros(p)
    v[j_kappa] = -1.0
    m_lr = hyper_lincomb_marginal(fit.nodes, v, np.log(ref_range),
                                  fit.theta_mode, fit.theta_hessian)
    v = np.zeros(p)
    v[j_kappa] = -2.0 * nu
    v[j_tau] = -2.0
    m_lv = hyper_lincomb_marginal(fit.nodes, v, np.log(ref_var),
                                  fit.theta_mode, fit.theta_hessian)
    return {
        "range": transform_marginal(m_lr, np.exp, np.exp),
        "variance": transform_marginal(m_lv, np.exp, np.exp),
    }


def spde_summary(fit, model):
    """zmarginal summaries {"range", "variance"} of the first alpha = 2 SPDE field, or None."""
    comp = next((c for c in model.components
                 if isinstance(c, SpdeMaternComponent) and c.alpha == 2), None)
    if comp is None:
        return None
    return {key: zmarginal(m) for key, m in spde_field_summary(fit, model, comp.name).items()}


def compare(entries):
    """Comparison rows over fitted models sharing the same data.

    `entries` is a sequence of (name, fit, model).  Each row carries DIC,
    WAIC, the marginal likelihood, and posterior mean plus 95% interval of
    the spatial range, variance and AR coefficient when the model has them.
    """
    if len(entries) < 2:
        raise ValueError("need at least two fits to compare")
    ref_y = entries[0][2].y
    rows = []
    for name, fit_res, model in entries:
        if model.y.shape != ref_y.shape or not np.array_equal(
                np.nan_to_num(model.y, nan=np.inf), np.nan_to_num(ref_y, nan=np.inf)):
            raise DataMismatch(f"fit {name!r} was made on different data rows")
        d = fit_res.diagnostics
        if d is None:
            d = assess(fit_res, model)
        row = {
            "model": name,
            "dic": d.dic,
            "waic": d.waic,
            "mlik": d.mlik,
        }
        for key, z in (spde_summary(fit_res, model) or {}).items():
            row[f"{key}_mean"] = z.mean
            row[f"{key}_lo"] = z.quantiles[0.025]
            row[f"{key}_hi"] = z.quantiles[0.975]
        corr_hypers = [h for h in model.free_hyperparams() if h.transform == "correlation"]
        if corr_hypers:
            z = zmarginal(fit_res.hyper_marginal(corr_hypers[0].name, scale="natural"))
            row["a_mean"] = z.mean
            row["a_lo"] = z.quantiles[0.025]
            row["a_hi"] = z.quantiles[0.975]
        rows.append(row)
    return rows

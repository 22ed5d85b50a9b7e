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


def _node_tensors(fit, model, with_cdf=False):
    """Log-likelihood (and CDF) on the (node, observation, quadrature) grid."""
    obs = np.flatnonzero(model.observed)
    y = model.y[obs]
    t, w = _gh_rule()
    L = len(fit.nodes)
    llik = np.empty((L, obs.size, GH_POINTS))
    cdf = np.empty_like(llik) if with_cdf else None
    for ell, node in enumerate(fit.nodes):
        param = model.likelihood.param(model.values_from_theta(node.theta))
        m = fit.pred_mean[ell, obs][:, None]
        s = fit.pred_sd[ell, obs][:, None]
        eta = m + np.sqrt(2.0) * s * t[None, :]
        yy = np.broadcast_to(y[:, None], eta.shape)
        llik[ell] = model.likelihood.log_lik(yy, eta, param)
        if with_cdf:
            cdf[ell] = model.likelihood.cdf(yy, eta, param)
    return obs, y, llik, cdf, w


def _logsumexp(a):
    """log Σ exp(a) over axes (0, 2), with scipy.special.logsumexp's arithmetic.

    The entries equal to the maximum are taken out of the sum and counted
    (m), and the result is log1p(s) + log(m) + max with s the sum of the
    other exponentials over m.  A slice that is all -inf gives -inf.
    """
    a_max = np.max(a, axis=(0, 2), keepdims=True)
    at_max = a == a_max
    m = np.sum(at_max, axis=(0, 2), keepdims=True, dtype=float)
    with np.errstate(invalid="ignore"):   # -inf - -inf on all -inf slices
        e = np.exp(a - a_max)
    e[at_max] = 0.0
    s = np.sum(e, axis=(0, 2), keepdims=True) / m
    return (np.log1p(s) + np.log(m) + a_max)[0, :, 0]


def _cpo_pit(fit, llik, cdf, w):
    logw = np.log(fit.weights)[:, None, None] + np.log(w)[None, None, :]
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


def _dic(fit, model, obs, y, llik, w):
    wmix = fit.weights[:, None, None] * w[None, None, :]
    dbar = -2.0 * float(np.sum(llik * wmix))
    param_mode = model.likelihood.param(model.values_from_theta(fit.theta_mode))
    eta_bar = fit.pred_mean_post[obs]
    dhat = -2.0 * float(np.sum(model.likelihood.log_lik(y, eta_bar, param_mode)))
    p_dic = dbar - dhat
    return dbar + p_dic, p_dic


def _waic(fit, llik, w):
    logw = np.log(fit.weights)[:, None, None] + np.log(w)[None, None, :]
    lppd_i = _logsumexp(logw + llik)
    wmix = np.exp(logw)
    e1 = np.sum(llik * wmix, axis=(0, 2))
    e2 = np.sum(llik**2 * wmix, axis=(0, 2))
    p_i = np.clip(e2 - e1**2, 0.0, None)
    return float(-2.0 * (np.sum(lppd_i) - np.sum(p_i))), float(np.sum(p_i))


def cpo_pit(fit, model):
    """Leave-one-out predictive density and CDF without reestimation.

    cpo_i is the harmonic-mean identity evaluated on the node mixture;
    pit_i replaces the reciprocal density by cdf/density.  failure_i is 1
    when the inner expectation is non-finite, dominated by a single
    quadrature contribution, or peaks on the outermost quadrature nodes
    (the reciprocal integrand blowing up in the tail).
    """
    _, _, llik, cdf, w = _node_tensors(fit, model, with_cdf=True)
    return _cpo_pit(fit, llik, cdf, w)


def dic(fit, model):
    """Deviance information criterion and its effective parameter count."""
    obs, y, llik, _, w = _node_tensors(fit, model)
    return _dic(fit, model, obs, y, llik, w)


def waic(fit, model):
    """Widely applicable information criterion with its penalty."""
    _, _, llik, _, w = _node_tensors(fit, model)
    return _waic(fit, llik, w)


def assess(fit, model):
    """All diagnostics from one likelihood tensor; also attached to the fit."""
    obs, y, llik, cdf, w = _node_tensors(fit, model, with_cdf=True)
    cpo, pit, failure = _cpo_pit(fit, llik, cdf, w)
    dic_val, p_dic = _dic(fit, model, obs, y, llik, w)
    waic_val, p_waic = _waic(fit, llik, w)
    diagnostics = Diagnostics(
        index=obs,
        cpo=cpo, pit=pit, failure=failure,
        dic=dic_val, p_dic=p_dic, waic=waic_val, p_waic=p_waic,
        mlik=fit.mlik,
    )
    fit.diagnostics = diagnostics
    return diagnostics


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
        spde_names = [c.name for c in model.components if isinstance(c, SpdeMaternComponent)]
        if spde_names and getattr(
                next(c for c in model.components if c.name == spde_names[0]), "alpha") == 2:
            summ = spde_field_summary(fit_res, model, spde_names[0])
            for key in ("range", "variance"):
                z = zmarginal(summ[key])
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

"""Discretized univariate posterior densities and summaries.

A MarginalDensity is a grid plus nonnegative density values normalized to
unit trapezoid integral.  Expectations, quantiles, modes and summary records
are all computed from that discretization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidProbability

GRID_POINTS = 75
GRID_SPAN = 6.0

SUMMARY_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)


class MarginalDensity:
    """Strictly increasing grid with a normalized density on it."""

    __slots__ = ("grid", "density")

    def __init__(self, grid, density, normalize=True):
        grid = np.asarray(grid, dtype=float)
        density = np.asarray(density, dtype=float)
        if grid.ndim != 1 or grid.shape != density.shape:
            raise ValueError("grid and density must be 1-D arrays of equal length")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        density = np.clip(density, 0.0, None)
        if normalize:
            total = np.trapezoid(density, grid)
            if not np.isfinite(total) or total <= 0:
                raise ValueError("density does not integrate to a positive value")
            density = density / total
        self.grid = grid
        self.density = density

    def __len__(self):
        return self.grid.size

    def integral(self):
        return float(np.trapezoid(self.density, self.grid))


def gaussian_marginal(mean, sd, points=GRID_POINTS, span=GRID_SPAN):
    grid = mean + sd * np.linspace(-span, span, points)
    dens = np.exp(-0.5 * ((grid - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
    return MarginalDensity(grid, dens)


def mixture_marginal(means, sds, weights, points=GRID_POINTS, span=GRID_SPAN):
    """Gaussian mixture discretized over its overall mode +- span sds."""
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m = float(weights @ means)
    var = float(weights @ (sds**2 + means**2) - m**2)
    sd = np.sqrt(max(var, 1e-300))
    grid = m + sd * np.linspace(-span, span, points)
    z = (grid[:, None] - means[None, :]) / sds[None, :]
    dens = np.exp(-0.5 * z**2) / (sds[None, :] * np.sqrt(2 * np.pi))
    return MarginalDensity(grid, dens @ weights)


def emarginal(fun, m):
    """Posterior expectation of fun(x) by the trapezoid rule."""
    return float(np.trapezoid(fun(m.grid) * m.density, m.grid))


def _cubic_spline(x, y):
    """Not-a-knot cubic spline through three or more points (x, y), as a function.

    The knot slopes solve the system of ``scipy.interpolate.CubicSpline(x, y)``:
    with three points the spline is the parabola through them, and beyond
    that each interior knot matches second derivatives while the first and
    last two pieces share one cubic.  x is strictly increasing; points
    outside [x[0], x[-1]] extend the end pieces.
    """
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    A = np.zeros((n, n))
    b = np.empty(n)
    if n == 3:
        A[0, :2] = A[2, 1:] = 1.0
        A[1] = dx[1], 2.0 * (dx[0] + dx[1]), dx[0]
        b[0], b[2] = 2.0 * slope[0], 2.0 * slope[1]
        b[1] = 3.0 * (dx[0] * slope[1] + dx[1] * slope[0])
    else:
        i = np.arange(1, n - 1)
        A[i, i] = 2.0 * (dx[:-1] + dx[1:])
        A[i, i + 1] = dx[:-1]
        A[i, i - 1] = dx[1:]
        b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        A[0, :2] = dx[1], d
        b[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        A[-1, -2:] = d, dx[-2]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = np.linalg.solve(A, b)
    # piece k is c3 + c2 h + c1 h^2 + c0 h^3 in h = u - x[k]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    def spline(u):
        k = np.clip(np.searchsorted(x, u, side="right") - 1, 0, n - 2)
        h = u - x[k]
        return c3[k] + c2[k] * h + c1[k] * h * h + c0[k] * h * h * h

    return spline


def _simpson_cells(y, dx):
    # integral over the first cell of each triple from the quadratic through
    # its three points (Cartwright's unequal-interval Simpson formula)
    x21 = dx[:-1]
    x32 = dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


def _cumulative_simpson(y, x):
    """Cumulative composite Simpson integral of y over x, starting at 0.

    The rule and its arithmetic are those of
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)``: even cells
    come from their left-hand triple, odd cells and the last cell from their
    right-hand triple, and fewer than three points fall back to the
    trapezoid rule.
    """
    dx = np.diff(x)
    if y.size < 3:
        cells = dx * (y[1:] + y[:-1]) / 2.0
    else:
        left = _simpson_cells(y, dx)
        right = _simpson_cells(y[::-1], dx[::-1])[::-1]
        cells = np.empty(dx.size)
        cells[:-1:2] = left[::2]
        cells[1::2] = right[::2]
        cells[-1] = right[-1]
    return np.concatenate(([0.0], np.cumsum(cells)))


def _cdf_knots(m):
    # cumulative Simpson integral at the grid points (the trapezoid rule's
    # O(h^2) end-point bias is visible in tail quantiles)
    cdf = np.maximum.accumulate(_cumulative_simpson(m.density, m.grid))
    return cdf / cdf[-1]


def qmarginal(p, m):
    """Quantile by exact inversion of the piecewise-quadratic CDF.

    The density is treated as piecewise linear (consistent with the
    trapezoid normalization), so within each cell the CDF is a quadratic
    that can be inverted in closed form.
    """
    scalar = np.isscalar(p)
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise InvalidProbability("probabilities must lie strictly inside (0, 1)")
    cdf = _cdf_knots(m)
    idx = np.clip(np.searchsorted(cdf, p_arr, side="right") - 1, 0, len(m) - 2)
    x0 = m.grid[idx]
    h = m.grid[idx + 1] - x0
    d0 = m.density[idx]
    d1 = m.density[idx + 1]
    # mass into the cell, rescaled onto the linear-density model so the
    # inversion is exact at the knots
    seg_knot = cdf[idx + 1] - cdf[idx]
    seg_lin = 0.5 * (d0 + d1) * h
    c = (p_arr - cdf[idx]) * np.where(seg_knot > 0, seg_lin / seg_knot, 0.0)
    a = (d1 - d0) / (2.0 * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(np.clip(d0**2 + 4.0 * a * c, 0.0, None))
        t_quad = (disc - d0) / (2.0 * a)
        t_lin = c / np.where(d0 > 0, d0, 1.0)
    t = np.where(np.abs(a) * h > 1e-12 * np.maximum(d0, d1), t_quad, t_lin)
    t = np.clip(t, 0.0, h)
    out = x0 + t
    return float(out[0]) if scalar else out


def marginal_mode(m):
    return float(m.grid[int(np.argmax(m.density))])


@dataclass
class MarginalSummary:
    mean: float
    sd: float
    quantiles: dict
    mode: float


def zmarginal(m):
    """Summary record: mean, sd, standard quantiles and mode."""
    mean = emarginal(lambda x: x, m)
    ex2 = emarginal(lambda x: x * x, m)
    sd = float(np.sqrt(max(ex2 - mean**2, 0.0)))
    qs = qmarginal(np.array(SUMMARY_QUANTILES), m)
    return MarginalSummary(mean, sd, dict(zip(SUMMARY_QUANTILES, qs)), marginal_mode(m))


def transform_marginal(m, forward, dforward):
    """Push a marginal through a strictly monotone map.

    `forward` maps the grid, `dforward` is its derivative; the density picks
    up the usual Jacobian factor and the grid is reordered if the map is
    decreasing.
    """
    new_grid = forward(m.grid)
    jac = np.abs(dforward(m.grid))
    good = jac > 0
    new_grid = new_grid[good]
    dens = m.density[good] / jac[good]
    if new_grid[0] > new_grid[-1]:
        new_grid = new_grid[::-1]
        dens = dens[::-1]
    return MarginalDensity(new_grid, dens)

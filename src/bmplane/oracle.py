"""Brute-force verification of solver results by grid search.

Searches the standard ellipse chart (a, b', theta) with rho^-2 =
a*(1 + u*cos(2*(phi-theta))), u = b'/a < 1, because that box grids cleanly.
For fixed (u, theta) the angular profile of the deviation is shared by the
whole a-line, so a stage costs n_theta*n_b angular scans plus a cheap
combine over the a grid.  The scans are log-free: log is monotone, so the
phi extremes of f + 0.5*log1p(u*c) are f_c + 0.5*log of those of r2*(1 + u*c),
with r2 = exp(2*(f - f_c)) centred on the midrange f_c of f so that it cannot
overflow.  The stage array is laid out (a, u, theta), so its lexicographic
minimum is a plain argmin.  Stages zoom into the incumbent to sharpen the
resolution while keeping the total evaluation count under the cap.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ellipse import EllipseParams, StdEllipseParams
from .errors import EmptyGrid
from .gauge import Gauge, evaluation_grid

__all__ = ["OracleGrid", "OracleResult", "oracle_value", "oracle_uniform"]

_PI = math.pi
_SHRINK = 6.0  # each stage's window is this much narrower than the last


@dataclass(frozen=True)
class OracleGrid:
    """Search-grid resolutions and ranges for oracle_uniform."""

    n_a: int = 128
    n_b: int = 128
    n_theta: int = 128
    n_phi: int = 1024
    a_range: Optional[tuple[float, float]] = None
    stages: int = 4
    eval_cap: float = 1e9
    value_margin: float = 1e-3

    def __post_init__(self):
        if min(self.n_a, self.n_b, self.n_theta, self.n_phi) < 8:
            raise EmptyGrid("all grid resolutions must be at least 8")
        if self.a_range is not None:
            lo, hi = self.a_range
            if not (0.0 < lo < hi < math.inf):
                raise EmptyGrid(f"a_range must be a positive interval, got {self.a_range}")
        if self.stages < 1 or self.eval_cap <= 0.0:
            raise EmptyGrid("stages and eval_cap must be positive")


@dataclass(frozen=True)
class OracleResult:
    std: StdEllipseParams
    value: float
    runner_up_distance: float
    cluster_radius: float
    evaluations: int

    @property
    def params(self) -> EllipseParams:
        return self.std.to_params()


def oracle_value(gauge: Gauge, params: EllipseParams, n_phi: int) -> float:
    """Grid sup of |f - g|: a lower bound on the true deviation.

    Evaluates on the uniform n_phi grid merged with the gauge's kink angles,
    so kink extrema are measured exactly.
    """
    grid = evaluation_grid(gauge, n_phi)
    h = gauge.log_eval(grid) + 0.5 * np.log(params.trig(grid))
    return float(np.abs(h).max())


def _stage_scan(fvals, cos2, sin2, log_a, us, thetas, executor=None, out=None):
    """V[i, k, j] = max_phi |f + 0.5*log(a_i) + 0.5*log1p(u_k*c_j)|, c_j = cos(2*(phi - theta_j)).

    V is C-contiguous, axes (a, u, theta), written into ``out`` when given.
    Per theta, (u, 1).(c_j, 1) rounds u*c_j, then 1 + u*c_j, exact for
    u*c_j <= -1/2: log1p's accuracy near u = 1.
    """
    f_c = 0.5 * float(fvals.max() + fvals.min())
    r2 = np.exp(2.0 * (fvals - f_c))
    u_one, ones = np.column_stack([us, np.ones_like(us)]), np.ones_like(fvals)

    def theta_slice(j):
        ct = cos2 * math.cos(2.0 * thetas[j]) + sin2 * math.sin(2.0 * thetas[j])
        m = u_one @ np.array([ct, ones])
        m *= r2
        return m.max(axis=1), m.min(axis=1)

    mapper = map if executor is None else executor.map
    ext = np.array(list(mapper(theta_slice, range(thetas.size))))  # (n_theta, 2, n_b)
    hmax, hmin = 0.5 * np.log(np.ascontiguousarray(ext.transpose(1, 2, 0)))
    v = np.empty((log_a.size,) + hmax.shape) if out is None else out
    for i, shift in enumerate(f_c + 0.5 * log_a):  # a-line slabs stay in cache
        np.maximum(hmax + shift, -shift - hmin, out=v[i])
    return v


def _argmin_lex(v: np.ndarray) -> tuple[int, int, int]:
    """Index (i, k, j) of the minimum of V, ties broken by smallest (a, u, theta)."""
    return tuple(int(x) for x in np.unravel_index(int(np.argmin(v)), v.shape))


def _uniqueness(v, log_a, us, thetas, best_xyz, best_value, margin):
    """Distances in (a2, b2, c2) to the runner-up, the least value above best_value
    + margin (ties to the smallest (a, u, theta), as in _argmin_lex), and to the
    farthest point within that margin."""

    def dist(i, k, j):
        x, y, z = _cartesian_triple(math.exp(log_a[i]), us[k], thetas[j])
        return np.hypot(x - best_xyz[0], np.hypot(y - best_xyz[1], z - best_xyz[2]))

    runner, runner_value, cluster_radius = None, math.inf, 0.0
    for i in range(log_a.size):
        outside = v[i] > best_value + margin
        masked = np.where(outside, v[i], math.inf)
        k, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
        if masked[k, j] < runner_value:
            runner, runner_value = (i, k, j), masked[k, j]
        cluster_radius = max(cluster_radius, float(dist(i, *np.nonzero(~outside)).max(initial=0.0)))
    return (math.nan if runner is None else float(dist(*runner))), cluster_radius


def _cartesian_triple(a, u, theta):
    bp = u * a  # (a2, b2, c2) of the chart point; broadcasts over index arrays
    return a, bp * np.cos(2.0 * theta), bp * np.sin(2.0 * theta)


def oracle_uniform(
    gauge: Gauge, grid: Optional[OracleGrid] = None, threads: int = 1
) -> OracleResult:
    """Exhaustive search for the best ellipse over the (a, b', theta) grid.

    b' is sampled as u*a with u in [0, 1 - 1e-6], which enforces b' < a on
    every a-line.  Returns the best triple, its grid deviation value, the
    parameter-space distance to the best point outside a small value
    neighborhood of the optimum, and the radius of the near-optimal cluster
    (both measured in (a2, b2, c2) coordinates on the full-range first stage).
    ``threads`` below 1 raises ValueError.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    grid = grid or OracleGrid()
    phis = evaluation_grid(gauge, grid.n_phi)
    fvals = gauge.log_eval(phis)
    cos2, sin2 = np.cos(2.0 * phis), np.sin(2.0 * phis)

    if grid.a_range is not None:
        la_lo, la_hi = math.log(grid.a_range[0]), math.log(grid.a_range[1])
    else:
        pad = 0.5 * float(fvals.max() - fvals.min()) + 1e-9
        la_lo = -2.0 * (float(fvals.max()) + pad)
        la_hi = -2.0 * (float(fvals.min()) - pad)
    full_la = (la_lo, la_hi)

    n_a, n_b, n_t = grid.n_a, grid.n_b, grid.n_theta
    while grid.stages * n_t * n_b * (phis.size + n_a) > grid.eval_cap and max(n_a, n_b, n_t) > 8:
        n_a = max(8, int(n_a * 0.9))
        n_b = max(8, int(n_b * 0.9))
        n_t = max(8, int(n_t * 0.9))

    u_bounds = (0.0, 1.0 - 1e-6)
    t_bounds = (0.0, _PI * (1.0 - 1.0 / n_t))  # stage 1: endpoint-free period
    la_bounds = full_la
    evaluations = 0
    global_stage = None  # stage-1 arrays, kept for the uniqueness diagnostics
    executor = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for stage in range(grid.stages):
            log_a = np.linspace(la_bounds[0], la_bounds[1], n_a)
            us = np.linspace(u_bounds[0], u_bounds[1], n_b)
            thetas = np.linspace(t_bounds[0], t_bounds[1], n_t)
            out = v if stage > 1 else None  # stage 1's V is kept; stages 2-4 share one
            v = _stage_scan(fvals, cos2, sin2, log_a, us, thetas, executor, out=out)
            evaluations += n_t * n_b * (phis.size + n_a)
            i, k, j = _argmin_lex(v)
            if stage == 0:
                global_stage = (v, log_a, us, thetas)
            if stage + 1 < grid.stages:
                # shrink each window around the incumbent; generous overlap with
                # the previous spacing keeps diagonal valleys inside the window
                half_la = 0.5 * (la_bounds[1] - la_bounds[0]) / _SHRINK
                half_u = 0.5 * (u_bounds[1] - u_bounds[0]) / _SHRINK
                half_t = 0.5 * (t_bounds[1] - t_bounds[0]) / _SHRINK
                la_bounds = (
                    max(full_la[0], log_a[i] - half_la),
                    min(full_la[1], log_a[i] + half_la),
                )
                u_bounds = (
                    max(0.0, us[k] - half_u),
                    min(1.0 - 1e-6, us[k] + half_u),
                )
                t_bounds = (thetas[j] - half_t, thetas[j] + half_t)
    finally:
        if executor is not None:
            executor.shutdown()

    best_value = float(v[i, k, j])
    best_a = math.exp(log_a[i])
    best_u = float(us[k])
    best_theta = 0.0 if best_u == 0.0 else float(np.mod(thetas[j], _PI))
    best_xyz = _cartesian_triple(best_a, best_u, thetas[j])

    diagnostics = _uniqueness(*global_stage, best_xyz, best_value, grid.value_margin)
    std = StdEllipseParams(best_a, best_u * best_a, best_theta)
    return OracleResult(std, best_value, *diagnostics, evaluations)

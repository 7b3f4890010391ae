"""Brute-force verification of solver results by grid search.

Searches the standard ellipse chart (a, b', theta) with rho^-2 =
a*(1 + u*cos(2*(phi-theta))), u = b'/a < 1, because that box grids cleanly.
For fixed (u, theta) the angular profile of the deviation is shared by the
whole a-line, so a (u, theta) point costs one angular scan plus a search along
its a-line.  The scans are log-free: log is monotone, so the phi extremes of
f + 0.5*log1p(u*c) are f_c + 0.5*log of those of r2*(1 + u*c), with
r2 = exp(2*(f - f_c)) centred on the midrange f_c of f so that it cannot
overflow.

Over a window [u_lo, u_hi] x [theta_lo, theta_hi] the value of angle phi_j
lies in [lb_j, ub_j], from the range of c = cos(2*(phi_j - theta)) over the
theta interval and the sign that picks u_lo or u_hi.  That range runs between
c at the interval's ends, out to 1 (-1) where c at its midpoint is at least
cos (at most -cos) of the interval's width.  An angle whose ub_j is below
max lb is never the max there, and one whose lb_j is above min ub never the
min, so a scan skips the angles that are neither.  Stages zoom into the
incumbent, so the later windows keep a small share of the angles.

Along an a-line V_i = max(hmax + s_i, -s_i - hmin), s_i = f_c + 0.5*log(a_i),
is the larger of a nondecreasing and a nonincreasing term, rounded or not, so
it falls and then rises.  A walk from where the terms cross, near
s* = -(hmax + hmin)/2, right while V does not rise and then left while it does
not fall, ends on its first minimum.

At u = 0 the ellipse is a circle: r2*(1 + 0*c) is r2 itself for every theta,
so the lines of a u = 0 row are the same floats and the row is searched as one
line, at theta index 0 (the tie rule's pick), whose value is the first
incumbent.  The rest of each stage's (u, theta) grid is searched in
_TILE x _TILE tiles.  On a tile,
hmax >= 0.5*log(max lb) and hmin <= 0.5*log(min ub), so no line there has V
below B = min_i max(0.5*log(max lb) + s_i, -s_i - 0.5*log(min ub)); one
vectorised pass gives every tile's B.  Tiles are scanned in ascending B, each
on its own window's angles, and the search stops at the first tile whose
B - margin is above the incumbent: every line it or a later tile holds is
worse, so none can tie.  The margin covers the rounding of V and B (see
_BOUND_MARGIN).  Most tiles are never scanned.

The result is the full grid's minimum, bit for bit, ties to the least
(a, u, theta) index.  Every kept value is computed as it would be on all
angles, so hmax and hmin are the same floats, and a line's minimum does not
depend on which tile holds it.  That needs elementwise arithmetic: u*c is
rounded, then 1 + u*c, then the product with r2.  A matrix product of (u, 1)
with (c, 1) rounds that way as a BLAS gemm, but numpy sends one with a single
row or column to gemv, which rounds 1 + u*c differently, and a tile can hold
one u point (n_b = 17, say) or keep one angle.  The bounds may round otherwise:
lb and ub are r2 + u*(r2*c), every window's from one matrix product per side,
and _WINDOW_SLACK and _BOUND_MARGIN cover the difference.

No (n_a, n_b, n_theta) stage array is built.  The evaluation count is the
size of the grid searched, n_theta*n_b*(n_phi + n_a) per stage, not the
number of points scanned, and the resolutions are coarsened until all stages
stay under _EVAL_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ellipse import EllipseParams, StdEllipseParams
from .errors import EmptyGrid
from .gauge import Gauge, _reduce, evaluation_grid

__all__ = ["OracleGrid", "OracleResult", "oracle_uniform"]

_PI = math.pi
_SHRINK = 6.0  # each stage's window is this much narrower than the last
_WINDOW_SLACK = 1e-12  # relative to max r2: rounding room in the window bound
_EVAL_CAP = 1e9  # evaluations over all stages; finer grids are coarsened to fit
_TILE = 16  # u and theta points per side of a search tile
# Rounding room between V and a tile's B, per unit of 1 + max|s|.  V comes from
# r2*(1 + u*c) and B from r2 + u*(r2*c), on the same r2, cos2 and sin2 but at
# other u and c.  Near u*c = -1 either loses a few ulps of r2 against a value of
# at least 1e-6*r2, so each is good to about 1e-10 relative, half that after the
# half log, and adding s_i rounds to an ulp of |s_i|.  1e-8 covers both sides with
# room; a wider margin only scans a few more tiles.
_BOUND_MARGIN = 1e-8


@dataclass(frozen=True)
class OracleGrid:
    """Search-grid resolutions for oracle_uniform.  The first stage's range of a
    comes from the body: the a of circles whose log radius lies in the range of
    f = log r, widened by half that range (and 1e-9) on each side."""

    n_a: int = 128
    n_b: int = 128
    n_theta: int = 128
    n_phi: int = 1024
    stages: int = 4

    def __post_init__(self):
        if min(self.n_a, self.n_b, self.n_theta, self.n_phi) < 8:
            raise EmptyGrid("all grid resolutions must be at least 8")
        if self.stages < 1:
            raise EmptyGrid("stages must be positive")


@dataclass(frozen=True)
class OracleResult:
    """The best grid ellipse and its grid deviation value.  ``evaluations`` is
    the size of the grid the search covers, n_theta*n_b*(n_phi + n_a) summed
    over the stages, not the number of points computed: the tile search skips
    most of them."""

    std: StdEllipseParams
    value: float
    evaluations: int

    @property
    def params(self) -> EllipseParams:
        return self.std.to_params()


def _value_range(r2, cos2, sin2, us, thetas):
    """lb, ub per angle: the range of r2*(1 + u*c), c = cos(2*(phi - theta)), over
    the window [us[..., 0], us[..., -1]] x [thetas[..., 0], thetas[..., -1]].
    Leading axes of us index u windows and those of thetas theta windows; lb and
    ub gain both, those of us first."""
    t = np.array([thetas[..., :1], 0.5 * (thetas[..., :1] + thetas[..., -1:]), thetas[..., -1:]])
    trig = np.concatenate([np.cos(2.0 * t), np.sin(2.0 * t)], axis=-1)
    c_first, c_mid, c_last = trig @ np.array([cos2, sin2])
    # 2*(phi - theta) sweeps 2*(phi - t_mid) +- width: c reaches 1 where c_mid >= cos(width)
    # and -1 where c_mid <= -cos(width); from width pi on both, however c_mid rounds
    reach = np.where(t[2] - t[0] < _PI, np.cos(t[2] - t[0]), -np.inf)
    x = r2 * np.array([np.where(c_mid <= -reach, -1.0, np.minimum(c_first, c_last)),
                       np.where(c_mid >= reach, 1.0, np.maximum(c_first, c_last))])
    # r2*(1 + u*c) as r2 + u*x, x = r2*c, u = u_lo where lb's x >= 0 or ub's < 0, else
    # u_hi: per side, one product of (1, u_lo, u_hi) with (r2, the x that takes u_lo, the rest)
    rows = np.empty((2, 3) + x.shape[1:])
    rows[:, 0] = r2
    np.maximum(x[0], 0.0, out=rows[0, 1])
    np.minimum(x[1], 0.0, out=rows[1, 1])
    np.subtract(x, rows[:, 1], out=rows[:, 2])
    basis = np.concatenate([np.ones_like(us[..., :1]), us[..., :1], us[..., -1:]], axis=-1)
    return [(basis @ side.reshape(3, -1)).reshape(basis.shape[:-1] + x.shape[1:]) for side in rows]


def _window_angles(r2, cos2, sin2, us, thetas) -> np.ndarray:
    """Indices of the angles that can give the max or the min of r2*(1 + u*c)
    somewhere in the window spanned by us and thetas."""
    lb, ub = _value_range(r2, cos2, sin2, us, thetas)
    slack = _WINDOW_SLACK * float(r2.max())
    return np.flatnonzero((ub >= lb.max() - slack) | (lb <= ub.min() + slack))


def _stage_extremes(r2, cos2, sin2, us, thetas) -> np.ndarray:
    """hmax, hmin[k, j] = 0.5*log of the max, min over phi of r2*(1 + u_k*c_j),
    c_j = cos(2*(phi - theta_j)); returned stacked, shape (2, n_b, n_theta).

    u*c_j is rounded, then 1 + u*c_j, exact for u*c_j <= -1/2: log1p's
    accuracy near u = 1.
    """
    cos_t = np.array([math.cos(2.0 * t) for t in thetas])[:, None]
    sin_t = np.array([math.sin(2.0 * t) for t in thetas])[:, None]
    m = us[:, None] * (cos2 * cos_t + sin2 * sin_t)[:, None]  # (theta, u, phi)
    m += 1.0
    m *= r2
    ext = np.array([m.max(axis=2), m.min(axis=2)])  # (2, n_theta, n_b)
    return 0.5 * np.log(np.ascontiguousarray(ext.transpose(0, 2, 1)))


def _line_minima(s, hmax, hmin):
    """Least V on every a-line and the first a-index that reaches it, by the walk
    of the module docstring."""

    def v_at(i):
        return np.maximum(hmax + s[i], -s[i] - hmin)

    last = s.size - 1
    i = np.minimum(np.searchsorted(s, -0.5 * (hmax + hmin)), last)
    value = v_at(i)
    for move in (1, -1):
        while True:
            j = np.clip(i + move, 0, last)
            v = v_at(j)
            if not (step := (j != i) & (v <= value)).any():
                break
            i, value = np.where(step, j, i), np.where(step, v, value)
    return value, i


def _argmin_lex(s, hmax, hmin) -> tuple[float, int, int, int]:
    """(V, i, k, j) at the minimum of V, ties broken by smallest (a, u, theta) index."""
    values, index = _line_minima(s, hmax, hmin)
    lines = np.flatnonzero(values.ravel() == values.min())
    line = lines[np.argmin(index.ravel()[lines])]
    k, j = np.unravel_index(line, values.shape)
    return float(values.flat[line]), int(index.flat[line]), int(k), int(j)


def _tile_bounds(r2, cos2, sin2, s, us, thetas) -> np.ndarray:
    """Per window of _value_range's us and thetas, a B that no a-line's V there
    undercuts, up to rounding: with lo = max lb and hi = min ub over the angles,
    hmax >= 0.5*log lo and hmin <= 0.5*log hi on every line."""
    lb, ub = _value_range(r2, cos2, sin2, us, thetas)
    return _line_minima(s, 0.5 * np.log(lb.max(axis=-1)), 0.5 * np.log(ub.min(axis=-1)))[0]


def _tile_search(r2, cos2, sin2, s, us, thetas):
    """(value, i, k, j) of the least V on the stage grid, ties to the least (i, k, j).

    A u = 0 row is one line, searched first at (k, j) = (0, 0): r2*(1 + 0*c) is
    r2 for every theta, so every line of the row ties and the tie rule picks
    j = 0.  Then visits the _TILE x _TILE tiles of the rest of the (u, theta)
    grid in ascending bound and stops at the first whose bound, less the
    rounding margin, is above the incumbent: no line it or a later tile holds
    can reach or tie the incumbent.
    """

    def search(ks: slice, js: slice):
        keep = _window_angles(r2, cos2, sin2, us[ks], thetas[js])
        hmax, hmin = _stage_extremes(r2[keep], cos2[keep], sin2[keep], us[ks], thetas[js])
        value, i, k, j = _argmin_lex(s, hmax, hmin)
        return value, i, ks.start + k, js.start + j

    row0 = int(us[0] == 0.0)
    best = search(slice(0, 1), slice(0, 1)) if row0 else (math.inf, 0, 0, 0)
    k0, j0 = np.arange(row0, us.size, _TILE), np.arange(0, thetas.size, _TILE)
    k1, j1 = np.minimum(k0 + _TILE, us.size), np.minimum(j0 + _TILE, thetas.size)
    u_ends = np.column_stack([us[k0], us[k1 - 1]])
    t_ends = np.column_stack([thetas[j0], thetas[j1 - 1]])
    bound = _tile_bounds(r2, cos2, sin2, s, u_ends, t_ends)
    margin = _BOUND_MARGIN * (1.0 + float(np.abs(s).max()))
    for t in np.argsort(bound, axis=None, kind="stable"):
        tk, tj = divmod(int(t), j0.size)
        if bound[tk, tj] - margin > best[0]:
            break
        best = min(best, search(slice(k0[tk], k1[tk]), slice(j0[tj], j1[tj])))
    return best


def oracle_uniform(
    gauge: Gauge, grid: Optional[OracleGrid] = None, threads: int = 1
) -> OracleResult:
    """Exhaustive search for the best ellipse over the (a, b', theta) grid.

    b' is sampled as u*a with u in [0, 1 - 1e-6], which enforces b' < a on
    every a-line.  Returns the best grid triple and its grid deviation value,
    bit for bit those of a scan of every grid point, and the evaluation count:
    the size of the grid covered, though only the tiles that the bound cannot
    rule out are scanned.  The search is serial: ``threads`` stays only for
    perfbench/run.py's ``threads=1`` call, and any other value raises ValueError.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1: the search is serial, got {threads}")
    grid = grid or OracleGrid()
    phis = evaluation_grid(gauge, grid.n_phi)
    fvals = gauge.log_eval(phis)
    cos2, sin2 = np.cos(2.0 * phis), np.sin(2.0 * phis)
    f_c = 0.5 * float(fvals.max() + fvals.min())
    r2 = np.exp(2.0 * (fvals - f_c))

    pad = 0.5 * float(fvals.max() - fvals.min()) + 1e-9
    full_la = (-2.0 * (float(fvals.max()) + pad), -2.0 * (float(fvals.min()) - pad))

    n_a, n_b, n_t = grid.n_a, grid.n_b, grid.n_theta
    while grid.stages * n_t * n_b * (phis.size + n_a) > _EVAL_CAP and max(n_a, n_b, n_t) > 8:
        n_a = max(8, int(n_a * 0.9))
        n_b = max(8, int(n_b * 0.9))
        n_t = max(8, int(n_t * 0.9))

    u_bounds = (0.0, 1.0 - 1e-6)
    t_bounds = (0.0, _PI * (1.0 - 1.0 / n_t))  # stage 1: endpoint-free period
    la_bounds = full_la
    evaluations = 0
    for stage in range(grid.stages):
        log_a = np.linspace(la_bounds[0], la_bounds[1], n_a)
        us = np.linspace(u_bounds[0], u_bounds[1], n_b)
        thetas = np.linspace(t_bounds[0], t_bounds[1], n_t)
        keep = _window_angles(r2, cos2, sin2, us, thetas)
        s = f_c + 0.5 * log_a
        best_value, i, k, j = _tile_search(r2[keep], cos2[keep], sin2[keep], s, us, thetas)
        evaluations += n_t * n_b * (phis.size + n_a)
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

    best_a = math.exp(log_a[i])
    best_u = float(us[k])
    best_theta = 0.0 if best_u == 0.0 else float(_reduce(thetas[j]))
    std = StdEllipseParams(best_a, best_u * best_a, best_theta)
    return OracleResult(std, best_value, evaluations)

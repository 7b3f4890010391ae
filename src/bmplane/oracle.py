"""Independent check of the defect d* by branch and bound, with a proven lower bound.

The oracle uses neither the alternance nor the solver's exchange, and its grid and
chart start at the body's largest radius.  The anchor t is the angle of
``evaluation_grid`` where f = log r is largest; on a polygon that is a vertex, so
every turn of a polygon gets the same search.  The grid's angles psi_j, in
psi = phi - t, are the uniform k*pi/n merged with the kinks less t, and f is taken
at psi_j + t (``_grid``, which reads a uniform grid rolled instead); at t = 0 this
is the solver's grid.
The oracle charts the ellipses rho^-2 = a2*(1 + p*cos(2*psi) + q*sin(2*psi)) by the
open unit disc p^2 + q^2 < 1 in (p, q) = (b2/a2, c2/a2) and the scale a2 > 0, and
turns its best (p, q) back by 2t into a triple in phi (``_turned``).  On the grid
let H = f + 0.5*log(1 + p*c + q*s), c and s the cos and sin of 2*psi.  For fixed
(p, q) the deviation max|H + 0.5*log a2| is least at 0.5*log a2 = -(max H + min H)/2,
where it is (max H - min H)/2: the scale is in closed form, and the search runs over
the disc alone.  The search is log-free, because H = f_c + 0.5*log m with
m = r2*(1 + p*c + q*s), r2 = exp(2*(f - f_c)) centred on the midrange f_c of f, so
the defect at (p, q) is 0.25*log(max m / min m).

m is linear in (p, q), so over a box of half-width h about (p, q) each m_j lies
in [m_j - d_j, m_j + d_j], d_j = h*r2_j*(|c_j| + |s_j|), exactly; call those
lb_j and ub_j.  At every point of the box max m >= max lb and min m <= min ub,
so no point there has a defect below L = 0.25*log(max lb / min ub).  The slack
shrinks that ratio.  The search holds one (4, n) table of r2, r2*c, r2*s and
r2*(|c| + |s|) per angle and each box as the row (1, p, q): m is the product of
the boxes with the table's first three rows, and d is h times its fourth.  Each
table entry rounds to an ulp of max r2, and |p|, |q| and h are at most 1, so m,
a sum of three products of size at most max r2 in whatever order and with
whatever fused multiply-adds the product uses, rounds to a few ulps of 3*max r2,
and lb and ub to a few more of 5*max r2: about 1e-15*max r2 in all.
1e-12*max r2 taken off max lb and added to min ub covers every rounding.  Every
defect is a max of absolute values, so L is floored at 0; that changes no prune
while the best value exceeds _TOL.

The search is breadth first from the box [-1, 1]^2, whose centre is the circle.
Each round bounds every live box on the angles still kept, drops a box that
misses the disc, takes the defect of each centre inside the disc, and prunes
every box with L >= best - _TOL.  The first round then offers one more
incumbent, the least-squares (p, q) of p*cos 2psi + q*sin 2psi - k/r2 = -1 on
the grid (``_fit``): m is the constant k exactly when the body is an ellipse,
so there the fit is the optimum, defect 0 up to rounding.  It replaces the
circle only when its defect is at most _TOL and below the circle's by more
than _TOL; then every L >= 0 prunes its box, and the search ends in its first
round.  A fit of larger defect is not taken, so on a body of value above _TOL
the search is the same as without the fit, bit for bit.  An angle that is
neither above max lb - slack nor below min ub + slack in any live box is never
the max or the min there, and later rounds drop its column of the table.  The
live boxes split in four, and the search ends in the first round with none.
A round that would compute more than _MAX_VALUES (box, angle) values is not
run, and its boxes count as pruned: the bracket stays sound but is wider than
_TOL.  Flat bodies outside the family can need that many, such as images of
polygons under maps of condition number 1e4, where the live boxes follow a
thin strip along the edge of the disc and keep doubling in number.

``lower`` is the least L of the pruned boxes, so lower <= the least defect on
the anchored grid <= d*: the grid's max |deviation| is a max over a subset of the
angles.  ``value`` is the defect of the best incumbent there, within _TOL of lower.
On a turned square or hexagon the anchor lines the box edges up with the angles
where the deviation peaks, so the boxes about the optimum get exact bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipse import EllipseParams, StdEllipseParams, in_cone
from .errors import EmptyGrid, NoConvergence
from .gauge import Gauge, _base_grid, _grid_table, _merged_table, _reduce

__all__ = ["OracleResult", "oracle_uniform"]

_TOL = 1e-6  # a box is pruned when its bound is within this of the best value
_SLACK = 1e-12  # relative to max r2: rounding room in the box bounds
_MAX_VALUES = 1 << 21  # (box, angle) values one round may compute


@dataclass(frozen=True)
class OracleResult:
    """The best ellipse found, its defect ``value`` on the oracle's grid (``_grid``:
    anchored at the body's largest radius) and a ``lower`` bound on every ellipse's
    defect there, lower <= value <= lower + 1e-6.  ``evaluations`` counts the (box,
    angle) values computed, and the grid's values of the least-squares fit when it
    lies in the disc."""

    params: EllipseParams
    value: float
    lower: float
    evaluations: int

    @property
    def std(self) -> StdEllipseParams:
        return self.params.to_std()


def _fit(r2: np.ndarray, cos2: np.ndarray, sin2: np.ndarray) -> tuple[float, ...] | None:
    """The least-squares (p, q) as an incumbent (value, p, q, max m, min m), or None
    outside the disc; the value is inf when min m <= 0.

    It solves p*cos2 + q*sin2 - k/r2 = -1 on the grid by its 3x3 normal
    equations: m = r2*(1 + p*cos2 + q*sin2) is the constant k exactly when the
    body is an ellipse, so the fit finds a zero defect at once.  Its 3 x n
    arrays are freed on return, before the search's larger rounds.
    """
    a = np.stack([cos2, sin2, -1.0 / r2])
    p, q, _ = np.linalg.solve(a @ a.T, -a.sum(axis=1)).tolist()
    if not math.hypot(p, q) < 1.0:
        return None
    m = r2 * (1.0 + p * cos2 + q * sin2)
    top, bottom = float(m.max()), float(m.min())
    return (0.25 * math.log(top / bottom) if bottom > 0.0 else math.inf), p, q, top, bottom


def _grid(gauge: Gauge, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The oracle's angle grid, anchored at the body's largest radius: (phis, cos2, sin2, f, t).

    t is the angle of ``evaluation_grid(gauge, n_phi)`` where f = log r is largest, the first
    on a tie.  The chart's angles psi are the uniform k*pi/n_phi merged with the body's kinks
    less t, phis = psi + t are those angles in the body's frame and f is log r there; cos2
    and sin2 are cos 2psi and sin 2psi.  At t = 0 this is the solver's grid as it is.  When
    that grid is the uniform one, t is one of its angles and phis is that grid rolled to
    start at t, with its f: the same angles mod pi up to rounding, and no second pass.
    """
    phis, cos2, sin2 = _grid_table(gauge, n_phi)
    fvals = gauge.log_eval(phis)
    k = int(np.argmax(fvals))
    t = float(phis[k])
    if t == 0.0:
        return phis, cos2, sin2, fvals, t
    if phis is _base_grid(n_phi)[0]:
        return np.roll(phis, -k), cos2, sin2, np.roll(fvals, -k), t
    psi, cos2, sin2 = _merged_table(n_phi, _reduce(gauge.critical_angles() - t))
    phis = psi + t
    return phis, cos2, sin2, gauge.log_eval(phis), t


def _turned(a2: float, p: float, q: float, t: float) -> EllipseParams:
    """The chart's ellipse (a2, a2*p, a2*q) in psi = phi - t as a triple in phi.

    Turning (p, q) by 2t keeps |(p, q)| < 1 but rounds it by a few ulps, so a point within
    them of the disc's edge can land on it: such a point is pulled 2^-49 back inside.
    """
    c, s = math.cos(2.0 * t), math.sin(2.0 * t)
    b2, c2 = a2 * (p * c - q * s), a2 * (p * s + q * c)
    if not in_cone(a2, b2, c2):
        b2, c2 = b2 * (1.0 - 2.0**-49), c2 * (1.0 - 2.0**-49)
    return EllipseParams(a2, b2, c2)


def oracle_uniform(gauge: Gauge, n_phi: int = 1024, threads: int = 1) -> OracleResult:
    """Branch and bound for the least defect over the ellipses, on the grid of ``_grid(gauge,
    n_phi)``: ``evaluation_grid`` turned to start at the body's largest radius.  The search
    is serial: ``threads`` stays only for perfbench/run.py's ``threads=1`` call, and any
    other value raises ValueError."""
    if threads != 1:
        raise ValueError(f"threads must be 1: the search is serial, got {threads}")
    if n_phi < 8:
        raise EmptyGrid(f"n_phi must be at least 8, got {n_phi}")
    _, cos2, sin2, fvals, t = _grid(gauge, n_phi)
    span = float(fvals.max() - fvals.min())  # r2 and 1/r2 reach exp(span)
    # _fit sums n squares of 1/r2, grown at most 4-fold by its 3x3 pivoting: 4n*exp(2*span) < max
    if 2.0 * span + math.log(4.0 * fvals.size) >= math.log(np.finfo(float).max):
        raise NoConvergence(f"log r spans {span!r}: the oracle's ratios leave the float range")
    f_c = 0.5 * float(fvals.max() + fvals.min())
    r2 = np.exp(2.0 * (fvals - f_c))
    slack = _SLACK * float(r2.max())
    # per angle: the three terms of m = r2 + p*r2*cos2 + q*r2*sin2, and d/h
    table = np.stack([r2, r2 * cos2, r2 * sin2, r2 * (np.abs(cos2) + np.abs(sin2))])
    split = np.array([[0.0, -1.0, -1.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0], [0.0, 1.0, 1.0]])

    boxes, h = np.array([[1.0, 0.0, 0.0]]), 1.0  # live boxes as rows (1, p, q), and their half-width
    best, lower, evaluations = (math.inf, 0.0, 0.0, 1.0, 1.0), math.inf, 0
    while True:  # a live box's child nearest 0 meets the disc too, exactly: boxes is never empty
        near = np.maximum(np.abs(boxes[:, 1:]) - h, 0.0)  # |p|, |q| of the box's point nearest 0
        meets = np.hypot(near[:, 0], near[:, 1]) < 1.0
        if not meets.all():
            boxes = boxes[meets]
        m = boxes @ table[:3]
        d = h * table[3]
        tops, bottoms = m.max(axis=1), m.min(axis=1)
        evaluations += m.size
        ub = m + d
        lb = np.subtract(m, d, out=m)  # m is done with: lb takes its memory
        lo, hi = lb.max(axis=1) - slack, ub.min(axis=1) + slack

        ps, qs = boxes[:, 1], boxes[:, 2]
        centre = (np.hypot(ps, qs) < 1.0) & (bottoms > 0.0)
        ratio = np.divide(tops, bottoms, out=np.full(tops.size, math.inf), where=centre)
        values = 0.25 * np.log(ratio)
        k = int(np.argmin(values))
        if values[k] < best[0]:
            best = (float(values[k]), float(ps[k]), float(qs[k]), float(tops[k]), float(bottoms[k]))
        if h == 1.0:  # the first round: offer the least-squares fit after the circle
            fit = _fit(r2, cos2, sin2)
            if fit is not None:
                evaluations += r2.size
                if fit[0] <= _TOL and fit[0] < best[0] - _TOL:  # then every box is pruned
                    best = fit

        bound = np.full(lo.size, -math.inf)
        np.log(lo, out=bound, where=lo > 0.0)
        bound = np.maximum(0.25 * (bound - np.log(hi)), 0.0)
        live = bound < best[0] - _TOL
        if not live.all():  # prune before the round's arrays are gathered
            lower = min(lower, float(bound[~live].min()))
            if not live.any():
                break
            boxes, ub, lb, lo, hi, bound = (a[live] for a in (boxes, ub, lb, lo, hi, bound))
        keep = ((ub >= lo[:, None]) | (lb <= hi[:, None])).any(axis=0)
        kept = np.count_nonzero(keep)
        if 4 * len(boxes) * kept > _MAX_VALUES:  # the next round is over budget: stop on the bracket
            lower = min(lower, float(bound.min()))
            break
        if kept < keep.size:
            table = table.compress(keep, axis=1)
        h *= 0.5
        boxes = (boxes[:, None, :] + h * split).reshape(-1, 3)  # children (-,-), (-,+), (+,-), (+,+)

    value, p, q, top, bottom = best
    a2 = math.exp(-2.0 * f_c - 0.5 * (math.log(top) + math.log(bottom)))
    return OracleResult(_turned(a2, p, q, t), value, lower, evaluations)

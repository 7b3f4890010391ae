"""Independent check of the defect d* by branch and bound, with a proven lower bound.

The oracle uses neither the alternance nor the solver's exchange.  It charts the
ellipses rho^-2 = a2*(1 + p*cos(2*phi) + q*sin(2*phi)) by the open unit disc
p^2 + q^2 < 1 in (p, q) = (b2/a2, c2/a2) and the scale a2 > 0.  On the angle grid
phi_j (``evaluation_grid``) let H = f + 0.5*log(1 + p*c + q*s), f = log r, c and s
the cos and sin of 2*phi.  For fixed (p, q) the deviation max|H + 0.5*log a2| is
least at 0.5*log a2 = -(max H + min H)/2, where it is (max H - min H)/2: the
scale is in closed form, and the search runs over the disc alone.  The search
is log-free, because H = f_c + 0.5*log m with m = r2*(1 + p*c + q*s),
r2 = exp(2*(f - f_c)) centred on the midrange f_c of f, so the defect at
(p, q) is 0.25*log(max m / min m).

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
incumbent, the least-squares (p, q) of p*cos 2phi + q*sin 2phi - k/r2 = -1 on
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
the angle grid <= d*: the grid's max |deviation| is a max over a subset of the
angles.  ``value`` is the defect of the best incumbent, within _TOL of lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipse import EllipseParams, StdEllipseParams
from .errors import EmptyGrid, NoConvergence
from .gauge import Gauge, _grid_table

__all__ = ["OracleResult", "oracle_uniform"]

_TOL = 1e-6  # a box is pruned when its bound is within this of the best value
_SLACK = 1e-12  # relative to max r2: rounding room in the box bounds
_MAX_VALUES = 1 << 21  # (box, angle) values one round may compute


@dataclass(frozen=True)
class OracleResult:
    """The best ellipse found, its defect ``value`` on the angle grid and a
    ``lower`` bound on every ellipse's defect there, lower <= value <= lower +
    1e-6.  ``evaluations`` counts the (box, angle) values computed, and the
    grid's values of the least-squares fit when it lies in the disc."""

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


def oracle_uniform(gauge: Gauge, n_phi: int = 1024, threads: int = 1) -> OracleResult:
    """Branch and bound for the least defect over the ellipses, on ``evaluation_grid(gauge,
    n_phi)``.  The search is serial: ``threads`` stays only for perfbench/run.py's
    ``threads=1`` call, and any other value raises ValueError."""
    if threads != 1:
        raise ValueError(f"threads must be 1: the search is serial, got {threads}")
    if n_phi < 8:
        raise EmptyGrid(f"n_phi must be at least 8, got {n_phi}")
    phis, cos2, sin2 = _grid_table(gauge, n_phi)
    fvals = gauge.log_eval(phis)
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
        boxes = boxes[np.hypot(near[:, 0], near[:, 1]) < 1.0]
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
        if not live.all():
            lower = min(lower, float(bound[~live].min()))
        live = np.flatnonzero(live)
        if not live.size:
            break
        keep = ((ub[live] >= lo[live, None]) | (lb[live] <= hi[live, None])).any(axis=0)
        kept = np.count_nonzero(keep)
        if 4 * live.size * kept > _MAX_VALUES:  # the next round is over budget: stop on the bracket
            lower = min(lower, float(bound[live].min()))
            break
        if kept < keep.size:
            table = table.compress(keep, axis=1)
        h *= 0.5
        boxes = (boxes[live, None, :] + h * split).reshape(-1, 3)  # children (-,-), (-,+), (+,-), (+,+)

    value, p, q, top, bottom = best
    a2 = math.exp(-2.0 * f_c - 0.5 * (math.log(top) + math.log(bottom)))
    return OracleResult(EllipseParams(a2, a2 * p, a2 * q), value, lower, evaluations)

"""Minimax approximation of f = log r by log-radial functions of ellipses.

On a grid of ``_GRID_SIZE`` = 4096 angles, the best uniform approximation of f by
g = -1/2 log(a2 + b2*cos(2*phi) + c2*sin(2*phi)) is a linear-fractional
program, and the Charnes-Cooper transform makes it a linear program.  With
R = a2 + b2*cos(2*phi) + c2*sin(2*phi), w = exp(-2*(f - fc)) and fc the
midrange of f,

    minimize t  subject to  w_i <= R_i <= t*w_i  at every grid angle,

has the grid defect 1/4*log(t*), and its triple divided by sqrt(t*) (and
rescaled by exp(-2*fc)) is the uniform best triple; the normalization makes
the body's scale drop out.  The LP has four unknowns, and
(1, cos 2phi, sin 2phi) is a Haar system on [0, pi), so its dual simplex is
Stiefel's one-point exchange on four-angle alternating references, run on
the whole grid with one 4x4 solve and one matvec per round (``linprog``).
Each point set's cos 2phi and sin 2phi are taken once, as two contiguous
arrays that give R of any triple; the LP's table, (1, cos, sin) divided by
w, is built from them once per run.  The grid, the uniform angles k*pi/4096
merged with the body's kinks, and its cos and sin come from the gauge
module's grid table (``gauge._grid_table``).  ``solve_uniform`` runs that
exchange in one loop: first on the grid, then on the extrema of the last
triple's deviation, where its final 4x4 solve is the four-point
equioscillation system.  It evaluates the body on the grid once (``_grid``:
f and f' from one ``Gauge.log_jet``), and each later run takes f at its
points from the scan.  One scan (``_extrema_scan``) returns the extremum
angles, as one set, f there and the sup of |f - g| over them, from the sign
of h' = (f - g)' at the ends of the cells between grid angles (every kink is
one), root-finding h' in a cell where it changes sign; it is exact in closed
form on polygons, where f - g = 1/2 log(p'Mp) is convex along each edge, and
on ellipses.  The scan has no flat case (only the ellipse gauge's candidates
do).  It takes f from the grid pass, the solve's or its own, and at its roots
from the last root-finding ``log_jet``, with no other call.  The loop stops
when the scanned sup-norm of the last triple is within 1e-12 relative (or
the rounding of h) of its level on its points, the de la Vallee Poussin lower
bound on the optimum.

Optimality is certified by the last reference of the exchange run whose
triple is returned, with no search after the loop: four of that run's points
phi1 < psi1 < phi2 < psi2 < phi1+pi (psi2 may exceed pi) at which f - g
alternately equals +l and -l, l = 1/4 log t the run's LP level, to rounding.
That suffices for global optimality and uniqueness within the ellipse family.
A certificate is a bracket on d*: the least of its four signed deviations
bounds d* from below (de la Vallee Poussin; 0 unless they alternate in sign),
and the triple's scanned sup bounds it from above.  A solve whose bracket is
wider than 1e-8 (``_CERT_TOL``) ends in NoAlternance.  ``verify_certificate``
rebuilds the bracket from the body, triple and angles, and checks its width.
The triple, d and the four angles are all that the report (``report.py``)
is built from: the inscribed ellipse is the triple scaled by d2 = exp(2d).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .ellipse import EllipseParams
from .errors import NoAlternance, NoConvergence, NotInCone
from .gauge import _H_ROUNDING, Gauge, _grid_table

__all__ = [
    "AlternanceCertificate",
    "UniformSolution",
    "CertificateVerdict",
    "solve_uniform",
    "certificate_deviations",
    "verify_certificate",
    "distance",
]

_PI = math.pi
_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])  # of f - g at (phi1, psi1, phi2, psi2)
_ROOT_STEPS = 12  # Illinois steps on h' in each cell where it changes sign
_GRID_SIZE = 4096  # the first exchange run's grid, whose cells partition the extremum scan
_CERT_TOL = 1e-8  # the widest bracket a solve's certificate may give, in defect units


@dataclass(frozen=True)
class AlternanceCertificate:
    """Four interleaved angles at which f - g alternately attains +d and -d.

    residuals[i] is the deviation at the i-th point minus the defect, in the
    order (phi1, psi1, phi2, psi2); all four are ~0 for a genuine optimum.
    """

    phi1: float
    psi1: float
    phi2: float
    psi2: float
    residuals: tuple[float, float, float, float]

    def angles(self) -> tuple[float, float, float, float]:
        return (self.phi1, self.psi1, self.phi2, self.psi2)

    def interleaved(self) -> bool:
        return self.phi1 < self.psi1 < self.phi2 < self.psi2 < self.phi1 + _PI


@dataclass(frozen=True)
class UniformSolution:
    params: EllipseParams
    defect: float
    certificate: AlternanceCertificate


@dataclass(frozen=True)
class CertificateVerdict:
    """A bracket lower <= d* <= upper on the optimal defect, passed when it is at most tol wide."""

    passed: bool
    lower: float
    upper: float


def _distinct(values: np.ndarray, *carried: np.ndarray):
    """The sorted distinct values, as ``np.unique(values)`` gives them, by a stable sort
    (``np.unique`` imports numpy.ma on its first call); with carried arrays, the tuple of
    those values and each carried array at the first occurrence of each."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    keep = order[first]
    return (ordered[first], *(c[keep] for c in carried)) if carried else ordered[first]


def _R(params: EllipseParams, cos, sin) -> np.ndarray:
    """R from cos 2phi and sin 2phi, as ``params.trig``; NoConvergence where not finite or <= 0."""
    if params.a2 >= 2.0**1022:  # else |R| < 3*a2, as |b2|, |c2| < a2: R cannot overflow
        with np.errstate(over="ignore", invalid="ignore"):  # an R past the float range raises
            if not np.isfinite(params.a2 + params.b2 * cos + params.c2 * sin).all():
                raise NoConvergence(f"R overflows for the triple {params.triple()}")
    R = np.asarray(params.a2 + params.b2 * cos + params.c2 * sin)
    if not (R > 0.0).all():
        raise NoConvergence(f"R = {float(R.min())!r} <= 0 for the triple {params.triple()}, "
                            "which is on the cone's boundary in floating point")
    return R


def _cos_sin(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos 2phi and sin 2phi, as ``EllipseParams.trig`` takes them."""
    return np.cos(2.0 * phi), np.sin(2.0 * phi)


def _half_log_trig(params: EllipseParams, phi):
    """1/2 log R of the triple at phi."""
    return 0.5 * np.log(_R(params, *_cos_sin(np.asarray(phi, dtype=float))))


def linprog(cos: np.ndarray, sin: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, int, list, list]:
    """Minimize t subject to w <= a2 + b2*cos + c2*sin <= t*w; returns (x, rounds, ref, sign).

    x is (a2, b2, c2, t).  Stiefel's one-point exchange on the whole grid.  A
    reference is four angles in cyclic order with alternating signs: R = t*w
    at the + angles (maxima of f - g) and R = w at the - angles.  It is a
    dual-feasible basis (the Haar property of 1, cos 2phi, sin 2phi), so its
    level t bounds the optimum from below and may be below 1 early on.  The
    exchange starts from four angles a quarter of the grid apart with + at
    the argmax of f.  The table (1, cos, sin)/w is built once, so a round's
    only array work is its 4x4 solve, one matvec giving u = R/w on the grid,
    and u's argmin and argmax: the worst angle is the one of the two with the
    larger violation, v = max(1 - min u, max u - t), on the side of the -
    angles at the least u and of the + angles at the greatest (the + side on
    a tie).  A round stops when v is at most 1e-12*t, or when its worst angle
    is already in the reference: then no exchange can move, and either t >= 1
    and what is left is rounding of R, or R/w lies in [t, 1], where the
    flipped reference is optimal at level 1/t with the same rescaled triple.
    Otherwise the worst angle replaces the reference neighbour of its own
    sign (a dual simplex pivot).  The reference is four (index, sign) pairs in ascending index
    order, held in plain Python.  ref and sign are the final reference, four
    ascending point indices and the signs of f - g there: the round's signs,
    flipped when t < 1.  A round depends only on its reference and signs, so
    a repeated reference is a cycle: it raises NoConvergence at once, as do a
    singular reference, a u past the float range (w spanning it, with no
    warning) and no stop within 16 rounds per bit of n.
    """
    n = w.size
    table = np.empty((3, n))  # R/w = (a2, b2, c2) @ table
    np.divide(1.0, w, out=table[0])
    np.divide(cos, w, out=table[1])
    np.divide(sin, w, out=table[2])
    start, quarter = int(np.argmin(w)), n // 4
    pairs = sorted(((start + quarter * k) % n, 1 - 2 * (k % 2)) for k in range(4))
    t = math.nan
    cap = 16 * n.bit_length()
    seen: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for rounds in range(1, cap + 1):
            ref, sign = [i for i, _ in pairs], [s for _, s in pairs]
            key = (*ref, sign[0])
            if key in seen:
                raise NoConvergence(
                    f"exchange round {rounds} repeats the reference {ref} of round "
                    f"{seen[key]}: the exchange cycles; last level t = {t!r}"
                )
            seen[key] = rounds
            wref = w[ref].tolist()
            system = np.empty((4, 4))
            system[:, 0], system[:, 1], system[:, 2] = 1.0, cos[ref], sin[ref]
            system[:, 3] = [-v if s > 0 else 0.0 for v, s in zip(wref, sign)]
            try:
                x = np.linalg.solve(system, [0.0 if s > 0 else v for v, s in zip(wref, sign)])
            except np.linalg.LinAlgError:
                x = np.full(4, math.nan)
            if not np.isfinite(x).all():
                raise NoConvergence(
                    f"exchange round {rounds}: singular reference {ref}, last level t = {t!r}"
                )
            t = float(x[3])
            u = x[:3] @ table
            lo, hi = int(np.argmin(u)), int(np.argmax(u))
            below, above = 1.0 - float(u[lo]), float(u[hi]) - t
            if not math.isfinite(below + above):
                raise NoConvergence(f"exchange round {rounds}: R/w leaves the float range on the "
                                    f"grid, level t = {t!r}")
            j, s, v = (hi, 1, above) if above >= below else (lo, -1, below)
            if v <= 1e-12 * t or j in ref:
                return x, rounds, ref, [-s for s in sign] if t < 1.0 else sign
            k = bisect.bisect(ref, j)
            pairs[(k - 1) % 4 if sign[(k - 1) % 4] == s else k % 4] = (j, s)
            pairs.sort()
    raise NoConvergence(f"exchange did not settle in {cap} rounds; last level t = {t!r}")


def _minimax_lp(cos: np.ndarray, sin: np.ndarray,
                fvals: np.ndarray) -> tuple[EllipseParams, list, list]:
    """Uniform best triple by ``linprog``, with its final reference and the signs of h there.

    ``cos`` and ``sin`` are cos 2phi and sin 2phi at the points, fvals f
    there.  w = exp(-2(f - fc)) with fc the midrange of f, so the body's
    scale drops out; the triple is rescaled by exp(-2*fc)/sqrt(t).  A body so
    small that exp(-2*fc) overflows, and a triple that is not finite or
    leaves the cone, raise NoConvergence.
    """
    center = 0.5 * float(fvals.max() + fvals.min())
    w = np.exp(-2.0 * (fvals - center))
    x, rounds, ref, sign = linprog(cos, sin, w)
    t = float(x[3])
    try:
        scale = math.exp(-2.0 * center) / math.sqrt(t) if t > 0.0 else math.nan
    except OverflowError:
        raise NoConvergence(f"the triple of a body of scale exp({center!r}) overflows") from None
    a2, b2, c2 = (float(v) * scale for v in x[:3])
    try:
        return EllipseParams(a2, b2, c2), ref, sign
    except NotInCone:
        raise NoConvergence(
            f"minimax triple ({a2!r}, {b2!r}, {c2!r}) at level t = {t!r} after {rounds} "
            "exchange rounds is outside the cone"
        ) from None


@dataclass
class _ExtremaScan:
    angles: np.ndarray
    sup: float
    f: np.ndarray  # f at the angles


class _Grid(NamedTuple):
    """A body's grid of ``_GRID_SIZE`` angles (``evaluation_grid``: h is smooth between them),
    its cos 2phi and sin 2phi (``gauge._grid_table``), the ends of its cells (the grid and its
    first angle plus pi), and f and f' on it from one ``Gauge.log_jet`` pass (f' None on a
    gauge whose extrema are in closed form)."""

    angles: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    ends: np.ndarray
    f: np.ndarray
    slopes: Optional[tuple[np.ndarray, np.ndarray]]


def _grid(gauge: Gauge) -> _Grid:
    """The body's grid and the one pass of the gauge over it."""
    x, cos, sin = _grid_table(gauge, _GRID_SIZE)
    return _Grid(x, cos, sin, np.append(x, x[0] + _PI), *gauge.log_jet(x))


def _illinois(jet, a, b, da, db) -> tuple[np.ndarray, np.ndarray]:
    """Roots of h' between a and b, where da and db, h' at a and b, differ in sign, and f at
    the roots; jet(x) is (f, h') at x.  At most ``_ROOT_STEPS`` false-position steps, halving
    h' at an end kept twice (Illinois), until |h'(b)|*|b - a|, which bounds h(b) - h(root) for
    h' monotone, is below 2^-64 in all.  The roots are the last step's points, and f there is
    that step's."""
    f = np.empty(0)
    for _ in range(_ROOT_STEPS if a.size else 0):
        x = b - db * (b - a) / (db - da)
        f, dx = jet(x)
        flip = np.sign(dx) != np.sign(db)
        a, da = np.where(flip, b, a), np.where(flip, db, 0.5 * da)
        b, db = x, dx
        if (np.abs(db * (b - a)) <= 2.0**-64).all():
            break
    return b, f


def _extrema_scan(gauge: Gauge, params: EllipseParams, grid=None) -> _ExtremaScan:
    """All local extrema of h = f - g for the triple, f there and the sup of |h| over them.

    Every gauge without closed-form extrema (``Gauge.extremum_candidates``, the exact case of
    the same rule) reads them off the sign of h' = f' + (c2*cos 2phi - b2*sin 2phi)/R at the
    ends of the cells of ``grid`` (``_grid``: a solve passes its own; built here when None).
    A grid angle is an extremum where h' turns across it, from >= 0 on its left to <= 0 on
    its right or from <= 0 to >= 0.  A cell whose h' changes sign holds one extremum, found
    by ``_illinois`` on ``Gauge.log_jet``; no cell may hold a maximum and a minimum.  f at
    the grid-angle extrema is the grid's and at the roots the last root-finding step's, with
    no other gauge call; 1/2 log R at the grid angles is taken from the R of h' on the grid.
    NoConvergence when it finds no extremum (h' or the candidates not finite)."""
    phi = gauge.extremum_candidates(params)
    if phi is not None:
        f, half_log = gauge.log_eval(phi), _half_log_trig(params, phi)
    else:
        def g_slope(cos, sin, R=None):  # (1/2 log R)' = -g': h' is f' plus this
            return (params.c2 * cos - params.b2 * sin) / (_R(params, cos, sin) if R is None else R)

        def jet(p):  # f and h' from the right
            f, (_, right) = gauge.log_jet(p)
            return f, right + g_slope(*_cos_sin(p))

        grid = _grid(gauge) if grid is None else grid
        R = _R(params, grid.cos, grid.sin)
        grid_slope = g_slope(grid.cos, grid.sin, R)
        left, right = (s + grid_slope for s in grid.slopes)
        nxt = np.concatenate([left[1:], left[:1]])  # h' at each cell's right end
        turn = ((left >= 0.0) & (right <= 0.0)) | ((left <= 0.0) & (right >= 0.0))
        cells = np.nonzero(np.sign(right) * np.sign(nxt) < 0.0)[0]
        roots, f = _illinois(jet, grid.ends[cells], grid.ends[cells + 1], right[cells], nxt[cells])
        inner = np.mod(roots, _PI)
        phi = np.concatenate([inner, grid.angles[turn]])
        f = np.concatenate([f, grid.f[turn]])
        half_log = np.concatenate([_half_log_trig(params, inner), 0.5 * np.log(R[turn])])
    if not phi.size:
        raise NoConvergence(f"the scan of the triple {params.triple()} finds no extremum")
    return _ExtremaScan(phi, float(np.abs(f + half_log).max()), f)


def certificate_deviations(
    gauge: Gauge, params: EllipseParams, cert: AlternanceCertificate
) -> tuple[float, float, float, float]:
    """f - g at the certificate's angles, signed + at phi1, phi2 and - at psi1, psi2.

    All four equal the defect at an exact optimum.  R <= 0 or not finite at an angle raises
    NoConvergence.
    """
    phi = np.array(cert.angles())
    return tuple(float(v) for v in (gauge.log_eval(phi) + _half_log_trig(params, phi)) * _SIGNS)


def verify_certificate(
    gauge: Gauge, params: EllipseParams, cert: AlternanceCertificate, tol: float
) -> CertificateVerdict:
    """Re-check a certificate from scratch: the bracket on d* that it and its triple prove.

    upper is the sup of |f - g| for the triple over a fresh ``_extrema_scan`` (its cells those
    of the solve's ``_GRID_SIZE`` grid; on a polygon the sup is exact, with no grid), which
    bounds d*, the least sup over all triples, from above.  lower is the least of the four
    signed deviations, at least 0, when the angles interleave, and 0 otherwise: by de la
    Vallee Poussin, f - g >= m > 0 at four interleaved angles with signs (+, -, +, -) bounds
    every triple's sup, so d*, from below by m.  The verdict passes when upper - lower <= tol,
    in the units of d (those of ``_CERT_TOL``, at which every certificate of a solve passes).
    R <= 0 or not finite at a scanned angle, or a scan with no extremum, raises NoConvergence.
    """
    dev = certificate_deviations(gauge, params, cert)
    lower = max(0.0, min(dev)) if cert.interleaved() else 0.0
    upper = _extrema_scan(gauge, params).sup
    return CertificateVerdict(upper - lower <= tol, lower, upper)


def solve_uniform(gauge: Gauge) -> UniformSolution:
    """Best uniform approximation of f = log r over the ellipse family.

    One exchange loop.  Its first run solves the minimax LP on the grid of
    ``_GRID_SIZE`` angles; each of at most 30 later runs solves it on the
    scanned extrema of the previous run's deviation.  Each run's
    level, max |f - g| on its points, is a de la Vallee Poussin lower bound on
    d*, and the scanned sup-norm of its triple an upper bound; the loop stops
    once they agree to 1e-12 relative, or to the rounding of h
    (``_H_ROUNDING`` times max |f| on the grid), and returns the triple of
    least sup.  Its certificate is that triple's run's last reference
    (``linprog``), rotated to start at a maximum, with residuals its signed
    deviations less the defect, from the h the run's level is taken on.
    Raises NoConvergence when the grid run fails (a singular or repeated
    reference, no stop within its round cap, a triple outside the cone,
    R <= 0 or not finite at a point, grid angle or candidate of the scan, or a
    scan with no extremum); a later run that
    fails ends the loop.  Raises NoAlternance when a level exceeds the
    returned sup-norm by more than ``_CERT_TOL`` (the scan missed extrema), or
    when the certificate's bracket, the sup less its least signed deviation
    (at least 0), is wider than ``_CERT_TOL``.
    """
    grid = _grid(gauge)  # the solve's one gauge pass over the grid
    points, cos, sin, f = grid.angles, grid.cos, grid.sin, grid.f
    floor = _H_ROUNDING * float(np.abs(f).max())  # the rounding of sup - level

    # the run of least sup: its triple, scan, reference angles, h there and signs of h there
    best: Optional[tuple[EllipseParams, _ExtremaScan, list, list, list]] = None
    top = -math.inf
    for _ in range(31):
        try:
            params, ref, sign = _minimax_lp(cos, sin, f)
            h = f + 0.5 * np.log(_R(params, cos, sin))
            level = float(np.abs(h).max())
            scan = _extrema_scan(gauge, params, grid)
        except NoConvergence:
            if best is None:
                raise
            break
        top = max(top, level)
        if best is None or scan.sup < best[1].sup:
            best = params, scan, points[ref].tolist(), h[ref].tolist(), sign
        if scan.sup - level <= 1e-12 * scan.sup + floor:
            break
        points, f = _distinct(scan.angles, scan.f)
        if points.size < 4:
            break
        cos, sin = _cos_sin(points)

    params, scan, angles, hvals, sign = best
    if top > scan.sup + _CERT_TOL:
        raise NoAlternance(
            f"exchange level {top!r} exceeds the scanned sup-norm {scan.sup!r}: "
            "the scan missed extrema"
        )
    dev = [s * v for s, v in zip(sign, hvals)]  # the signed deviations
    r = int(sign[0] < 0)  # rotate the reference to start at a maximum
    angles, dev = angles[r:] + [a + _PI for a in angles[:r]], dev[r:] + dev[:r]
    cert = AlternanceCertificate(*angles, tuple(v - scan.sup for v in dev))
    if not cert.interleaved():
        raise NoAlternance(f"degenerate alternation points {cert.angles()}")
    lower = max(0.0, min(dev))
    if scan.sup - lower > _CERT_TOL:
        raise NoAlternance(
            f"the exchange's last reference brackets d* in [{lower!r}, {scan.sup!r}], wider "
            f"than {_CERT_TOL}; the candidate ellipse is not certified"
        )
    return UniformSolution(params, float(scan.sup), cert)


def distance(gauge: Gauge) -> float:
    """Multiplicative distance of the body's normed plane to the Euclidean plane."""
    return math.exp(2.0 * solve_uniform(gauge).defect)

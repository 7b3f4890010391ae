"""Minimax approximation of f = log r by log-radial functions of ellipses.

On an angle grid, the best uniform approximation of f by
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
Each point set's cos 2phi and sin 2phi are taken once, in one table
(``_trig_matrix``): its rows are the LP's matrix and its columns give R of
a triple.  ``solve_uniform`` runs that exchange in one loop: first on the
grid, then on the extrema of the last triple's deviation, where its final
4x4 solve is the four-point equioscillation system.  The extrema come from one scan
(``_extrema_scan``): in closed form on polygons, where f - g = 1/2 log(p'Mp)
is convex along each edge, and refined from the grid otherwise.  The loop
stops when the scanned sup-norm of the last triple is within 1e-12 relative
of its level on its points, the de la Vallee Poussin lower bound on the
optimum.

Optimality is certified by an alternation read off the returned triple's
scan (``_alternation``), with no further exchange: four consecutive extrema
phi1 < psi1 < phi2 < psi2 < phi1+pi at which f - g alternately attains +d
and -d, to within ``cert_tol``, which suffices for global optimality and
uniqueness within the ellipse family.  Every certificate comes that way,
also when d is below ``cert_tol``: a flat deviation offers
(0, pi/4, pi/2, 3pi/4) as its extrema, and a scan with no four alternating
extrema ends in NoAlternance.
The triple, d and the four angles are all that the report (``report.py``)
is built from: the inscribed ellipse is the triple scaled by d2 = exp(2d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ellipse import EllipseParams, in_cone
from .errors import NoAlternance, NoConvergence
from .gauge import Gauge, evaluation_grid

__all__ = [
    "SolverOptions",
    "SolveDiagnostics",
    "AlternanceCertificate",
    "UniformSolution",
    "CertificateVerdict",
    "solve_uniform",
    "extract_certificate",
    "certificate_deviations",
    "verify_certificate",
    "distance",
]

_PI = math.pi
_CANONICAL_ANGLES = (0.0, 0.25 * _PI, 0.5 * _PI, 0.75 * _PI)
_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])  # of f - g at (phi1, psi1, phi2, psi2)
_ROUNDING = 1e-16  # about the rounding of h near its extrema
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # golden-section fraction of the larger side


@dataclass(frozen=True)
class SolverOptions:
    grid_size: int = 4096
    cert_tol: float = 1e-8

    def __post_init__(self):
        if self.grid_size < 64:
            raise ValueError(f"grid_size must be at least 64, got {self.grid_size}")
        if not 0.0 < self.cert_tol < math.inf:
            raise ValueError(f"cert_tol must be positive and finite, got {self.cert_tol}")


@dataclass
class SolveDiagnostics:
    """Counts of one solve.

    ``lp_calls`` is the number of exchange rounds of the first run of the
    exchange loop, the minimax LP on the grid; ``polish_iterations`` the
    number of later runs, each on the scanned extrema of the previous run's
    deviation (0 when the grid optimum already meets the stop).
    """

    lp_calls: int = 0
    polish_iterations: int = 0
    grid_points: int = 0

    def as_dict(self) -> dict:
        return {
            "lp_calls": self.lp_calls,
            "polish_iterations": self.polish_iterations,
            "grid_points": self.grid_points,
        }


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
    diagnostics: SolveDiagnostics


@dataclass(frozen=True)
class CertificateVerdict:
    ordering_ok: bool
    residuals_ok: tuple[bool, bool, bool, bool]
    sup_ok: bool
    passed: bool
    d_hat: float
    deviations: tuple[float, float, float, float]
    sup_norm: float


def _half_log(R: np.ndarray, params: EllipseParams) -> np.ndarray:
    """1/2 log R of the triple; NoConvergence where R rounds to 0 or below."""
    if not (R > 0.0).all():
        raise NoConvergence(f"R = {float(R.min())!r} <= 0 for the triple {params.triple()}, "
                            "which is on the cone's boundary in floating point")
    return 0.5 * np.log(R)


def _half_log_trig(params: EllipseParams, phi):
    """1/2 log R of the triple at phi."""
    return _half_log(np.asarray(params.trig(phi)), params)


def _half_log_table(params: EllipseParams, trig: np.ndarray) -> np.ndarray:
    """1/2 log R of the triple on a ``_trig_matrix`` table, bit for bit ``params.trig``'s R."""
    return _half_log(params.a2 + params.b2 * trig[:, 1] + params.c2 * trig[:, 2], params)


def _deviation_fn(gauge: Gauge, params: EllipseParams):
    """f - g as a vectorized callable; g = -0.5*log R."""
    return lambda phi: gauge.log_eval(phi) + _half_log_trig(params, phi)


def _trig_matrix(points: np.ndarray) -> np.ndarray:
    """The trig table of a point set: rows (1, cos 2phi, sin 2phi).

    R on the points is this times (a2, b2, c2) for the LP, and its columns
    give R of a triple as ``_half_log_table`` reads them.  cos and sin are
    taken on contiguous arrays, as ``EllipseParams.trig`` takes them.
    """
    return np.column_stack([np.ones(points.size), np.cos(2.0 * points), np.sin(2.0 * points)])


def linprog(trig: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimize t subject to w <= trig @ (a2, b2, c2) <= t*w; returns (x, rounds).

    x is (a2, b2, c2, t).  Stiefel's one-point exchange on the whole grid.  A
    reference is four angles in cyclic order with alternating signs: R = t*w
    at the + angles (maxima of f - g) and R = w at the - angles.  It is a
    dual-feasible basis (the Haar property of 1, cos 2phi, sin 2phi), so its
    level t bounds the optimum from below and may be below 1 early on.  The
    exchange starts from four angles a quarter of the grid apart with + at
    the argmax of f.  A round stops when v = max(w - R, R - t*w) / w is at
    most 1e-12*t on the grid, or when its worst angle is already in the
    reference: then no exchange can move, and either t >= 1 and what is left
    is rounding of R, or R/w lies in [t, 1], where the flipped reference is
    optimal at level 1/t with the same rescaled triple.  Otherwise the worst
    angle replaces the reference neighbour of its own sign (a dual simplex
    pivot).  A round depends only on its reference and signs, so a repeated
    reference is a cycle: it raises NoConvergence at once, as do a singular
    reference and no stop within 16 rounds per bit of n.
    """
    n = w.size
    ref, sign = (int(np.argmin(w)) + (n // 4) * np.arange(4)) % n, np.array([1, -1, 1, -1])
    t = math.nan
    cap = 16 * n.bit_length()
    seen: dict = {}
    for rounds in range(1, cap + 1):
        order = np.argsort(ref)
        ref, sign = ref[order], sign[order]
        key = (*ref.tolist(), int(sign[0]))
        if key in seen:
            raise NoConvergence(
                f"exchange round {rounds} repeats the reference {ref.tolist()} of round "
                f"{seen[key]}: the exchange cycles; last level t = {t!r}"
            )
        seen[key] = rounds
        upper = sign > 0
        system = np.column_stack([trig[ref], np.where(upper, -w[ref], 0.0)])
        try:
            x = np.linalg.solve(system, np.where(upper, 0.0, w[ref]))
        except np.linalg.LinAlgError:
            x = np.full(4, math.nan)
        if not np.isfinite(x).all():
            raise NoConvergence(
                f"exchange round {rounds}: singular reference {ref.tolist()}, last level t = {t!r}"
            )
        t = float(x[3])
        R = trig @ x[:3]
        low, high = w - R, R - t * w
        v = np.maximum(low, high) / w
        j = int(np.argmax(v))
        if v[j] <= 1e-12 * t or j in ref:
            return x, rounds
        k = int(np.searchsorted(ref, j))
        s = 1 if high[j] >= low[j] else -1
        ref[(k - 1) % 4 if sign[(k - 1) % 4] == s else k % 4] = j
    raise NoConvergence(f"exchange did not settle in {cap} rounds; last level t = {t!r}")


def _minimax_lp(trig: np.ndarray, fvals: np.ndarray) -> tuple[EllipseParams, int]:
    """Uniform best triple by ``linprog``; returns (params, rounds).

    ``trig`` is the ``_trig_matrix`` of the points and fvals f on them.  w =
    exp(-2(f - fc)) with fc the midrange of f, so the body's scale drops
    out; the triple is rescaled by exp(-2*fc)/sqrt(t).  A body so small that
    exp(-2*fc) overflows, and a triple that is not finite or leaves the
    cone, raise NoConvergence.
    """
    center = 0.5 * float(fvals.max() + fvals.min())
    w = np.exp(-2.0 * (fvals - center))
    x, rounds = linprog(trig, w)
    t = float(x[3])
    try:
        scale = math.exp(-2.0 * center) / math.sqrt(t) if t > 0.0 else math.nan
    except OverflowError:
        raise NoConvergence(f"the triple of a body of scale exp({center!r}) overflows") from None
    a2, b2, c2 = (float(v) * scale for v in x[:3])
    if not in_cone(a2, b2, c2):
        raise NoConvergence(
            f"minimax triple ({a2!r}, {b2!r}, {c2!r}) at level t = {t!r} after {rounds} "
            "exchange rounds is outside the cone"
        )
    return EllipseParams(a2, b2, c2), rounds


@dataclass
class _ExtremaScan:
    max_angles: np.ndarray
    max_values: np.ndarray
    min_angles: np.ndarray
    min_values: np.ndarray
    sup: float


def _flat(hvals: np.ndarray) -> bool:
    """True when h varies by less than 1e-13 on its points, as on an ellipse of the family."""
    return float(hvals.max() - hvals.min()) < 1e-13


def _refined_extrema(h, grid: np.ndarray, hvals: np.ndarray) -> _ExtremaScan:
    """All local extrema of the pi-periodic h, from its grid values and a few calls of h.

    Each grid extremum x brackets one extremum between its neighbours.  One
    call evaluates h at x -+ eta = sqrt(1e-16/c) (at least 1e-15, with c half
    the second difference of the grid values): the offset at which a smooth
    extremum out of reach rises above rounding.  If neither beats x, x is the
    extremum (every kink is a grid float, see ``evaluation_grid``).  Else h is
    smooth on the side that improved, and Brent's parabolic step with a
    golden-section fallback searches it until the parabola promises at most
    1e-16 or the bracket is 4*eta wide; later calls evaluate only the open
    brackets.  A flat h (the body is an ellipse of the family) has its
    extrema anywhere: the scan offers the canonical maxima (0, pi/2) and
    minima (pi/4, 3pi/4), valued by one call of h, and the grid's sup.
    """
    if _flat(hvals):
        # flat deviation (the body is an ellipse of the family): the canonical angles
        angles = np.array(_CANONICAL_ANGLES)
        values = h(angles)
        return _ExtremaScan(angles[0::2], values[0::2], angles[1::2], values[1::2],
                            float(np.abs(hvals).max()))

    prev, nxt = np.roll(hvals, 1), np.roll(hvals, -1)
    imax = np.nonzero((hvals >= prev) & (hvals >= nxt))[0]
    imin = np.nonzero((hvals <= prev) & (hvals <= nxt))[0]
    k, m, both = imax.size, imax.size + imin.size, np.concatenate([imax, imin])
    sign = np.concatenate([-np.ones(k), np.ones(imin.size)])  # minimize y = sign*h
    x, y = grid[both], sign * hvals[both]
    a = np.where(both == 0, grid[-1] - _PI, grid[both - 1])
    b = np.where(both == grid.size - 1, grid[0] + _PI, grid[(both + 1) % grid.size])
    ya, yb = sign * hvals[both - 1], sign * hvals[(both + 1) % grid.size]
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = ((yb - y) / (b - x) - (y - ya) / (x - a)) / (b - a)
        eta = np.fmin(np.sqrt(_ROUNDING / curv), 1e-2 * np.minimum(x - a, b - x)).clip(1e-15)
    probes = np.concatenate([x - eta, x + eta])
    yp = np.tile(sign, 2) * h(probes)
    yl, yr = yp[:m], yp[m:]
    right = yr < np.minimum(y, yl)
    s = np.nonzero(right | (yl < y))[0]
    r = right[s]
    # per open bracket: its ends lo < hi, and its three best points p, best first
    lo, hi = np.where(r, x[s], a[s]), np.where(r, b[s], x[s])
    p = np.stack([probes[s + r * m], x[s], np.where(r, b[s], a[s])])
    q = np.stack([np.where(r, yr[s], yl[s]), y[s], np.where(r, yb[s], ya[s])])  # their y
    d, e = hi - lo, hi - lo  # Brent's last step and the one before it
    act = np.arange(s.size)
    for _ in range(100):
        P, Q, la, ha, ta = p[:, act], q[:, act], lo[act], hi[act], eta[s[act]]
        with np.errstate(divide="ignore", invalid="ignore"):
            sw, sv = (Q[1:] - Q[0]) / (P[1:] - P[0])
            alpha = (sw - sv) / (P[1] - P[2])
            step = 0.5 * (alpha * (P[1] - P[0]) - sw) / alpha  # to the parabola's vertex
        keep = ~(((alpha > 0.0) & (alpha * step**2 <= _ROUNDING)) | (ha - la <= 4.0 * ta))
        if not keep.any():
            break
        act, P, Q, la, ha, ta, alpha, step = (
            z[..., keep] for z in (act, P, Q, la, ha, ta, alpha, step))
        para = (alpha > 0.0) & (np.abs(step) < 0.5 * np.abs(e[act]))
        para &= (P[0] + step > la + ta) & (P[0] + step < ha - ta)
        gold = np.where(P[0] >= 0.5 * (la + ha), la, ha) - P[0]
        e[act] = np.where(para, d[act], gold)
        d[act] = np.where(para, step, _GOLDEN * gold)
        u = P[0] + np.where(np.abs(d[act]) >= ta, d[act], np.copysign(ta, d[act]))
        yu = sign[s[act]] * h(u)
        better, above = yu <= Q[0], u >= P[0]
        lo[act] = np.where(better == above, np.where(better, P[0], u), la)
        hi[act] = np.where(better != above, np.where(better, P[0], u), ha)
        order = np.argsort(np.vstack([yu, Q]), axis=0, kind="stable")[:3]  # u first on ties
        p[:, act] = np.take_along_axis(np.vstack([u, P]), order, axis=0)
        q[:, act] = np.take_along_axis(np.vstack([yu, Q]), order, axis=0)
    x[s], y[s] = p[0], q[0]
    values = sign * y
    # a maximum below zero (a minimum above) is no larger in size than its grid value
    sup = max(float(np.abs(hvals).max()), float(np.abs(values).max()))
    return _ExtremaScan(np.mod(x[:k], _PI), values[:k], np.mod(x[k:], _PI), values[k:], sup)


def _candidate_extrema(h, max_angles: np.ndarray, min_angles: np.ndarray) -> _ExtremaScan:
    """The extrema of h at a gauge's closed-form candidates, each valued at its own angle.

    One call of h; the sup is the largest |h| among the extrema.
    """
    k = max_angles.size
    values = h(np.concatenate([max_angles, min_angles]))
    return _ExtremaScan(max_angles, values[:k], min_angles, values[k:], float(np.abs(values).max()))


def _extrema_scan(gauge: Gauge, params: EllipseParams, grid_size: int,
                  on_grid: Optional[tuple] = None) -> _ExtremaScan:
    """All local extrema of h = f - g for the triple, and the sup of |h|.

    In closed form where the gauge has one (``Gauge.extremum_candidates``:
    polygons), with no grid; else ``_refined_extrema`` on the evaluation
    grid of ``grid_size`` angles, or on ``on_grid`` = (grid, f on it, h on
    it or None) when the caller has them already.  Where h is flat on the
    grid and the gauge has kinks, the grid may hold only the points where an
    interpolant meets its data, so h is looked at between them too: at the
    grid midpoints, one more call of h, which join the grid if h is not
    flat there.
    """
    h = _deviation_fn(gauge, params)
    candidates = gauge.extremum_candidates(params)
    if candidates is not None:
        return _candidate_extrema(h, *candidates)
    if on_grid is None:
        grid = evaluation_grid(gauge, grid_size)
        on_grid = grid, gauge.log_eval(grid), None
    grid, fvals, hvals = on_grid
    if hvals is None:
        hvals = fvals + _half_log_trig(params, grid)
    if _flat(hvals) and gauge.critical_angles().size:
        mid = 0.5 * (grid + np.append(grid[1:], grid[0] + _PI))
        hmid = h(mid)
        if not _flat(np.append(hvals, hmid)):
            grid = np.column_stack([grid, mid]).ravel()
            hvals = np.column_stack([hvals, hmid]).ravel()
    return _refined_extrema(h, grid, hvals)


def _alternation(dev: np.ndarray, sign: np.ndarray, floor: float) -> Optional[np.ndarray]:
    """Four cyclically consecutive points of alternating sign with dev >= floor, or None.

    dev is the signed deviation sign*h at points in ascending order.  Each
    cyclic run of same-sign points with dev >= floor counts as its largest
    member, so the points kept alternate.  Of the runs of four kept points
    that include the point of largest dev, the one whose least dev is
    largest, in ascending order.
    """
    near = np.nonzero(dev >= floor)[0]
    if near.size < 4:
        return None
    run = np.cumsum(np.append(0, sign[near[1:]] != sign[near[:-1]]))
    if sign[near[0]] == sign[near[-1]]:
        run[run == run[-1]] = 0  # the run across pi is the first one
    order = np.lexsort((-dev[near], run))  # each run's largest member first
    kept = np.sort(near[order[np.unique(run[order], return_index=True)[1]]])
    if kept.size < 4:
        return None
    top = int(np.argmax(dev[kept]))
    runs = kept[(top + np.arange(-3, 1)[:, None] + np.arange(4)) % kept.size]
    return np.sort(runs[int(np.argmax(dev[runs].min(axis=1)))])


def _certificate_from_scan(scan: _ExtremaScan, tol: float) -> AlternanceCertificate:
    """The certificate read off the scan's extrema.

    Four cyclically consecutive extrema of alternating kind within tol of the
    sup, one of them the extremum that attains it (``_alternation``), rotated
    to start at a maximum, are (phi1, psi1, phi2, psi2) (psi2 may exceed pi);
    their residuals are the scan's values there less the sup, so each lies in
    [-tol, 0] up to the rounding of a flat scan's values.  Raises NoAlternance
    when there are no such four extrema (as when the scan has fewer than two
    maxima or two minima) or the angles do not interleave.
    """
    points, first = np.unique(np.concatenate([scan.max_angles, scan.min_angles]), return_index=True)
    hvals = np.concatenate([scan.max_values, scan.min_values])[first]
    kind = np.where(first < scan.max_angles.size, 1, -1)
    ref = _alternation(kind * hvals, kind, scan.sup - tol)
    if ref is None:
        raise NoAlternance(
            f"the scan found {scan.max_angles.size} maxima and {scan.min_angles.size} "
            f"minima, and no four of them alternate within tolerance {tol} of the "
            f"deviation {scan.sup}; the candidate ellipse is not optimal"
        )
    r = int(kind[ref[0]] < 0)  # rotate the reference to start at a maximum
    angles = np.roll(points[ref], -r) + np.array([0.0, 0.0, 0.0, r * _PI])
    res = tuple(float(v) for v in np.roll(hvals[ref], -r) * _SIGNS - scan.sup)
    cert = AlternanceCertificate(*(float(a) for a in angles), res)
    if not cert.interleaved():
        raise NoAlternance(f"degenerate alternation points {cert.angles()}")
    return cert


def extract_certificate(
    gauge: Gauge, params: EllipseParams, tol: float, grid_size: int = 4096
) -> AlternanceCertificate:
    """Four-point alternance certificate of a (near-)optimal ellipse.

    The angles are four consecutive extrema of alternating kind that
    ``_extrema_scan`` finds in f - g, read off by ``_certificate_from_scan``,
    starting at a maximum; a flat deviation (the body is itself an ellipse
    of the family) offers the canonical angles (0, pi/4, pi/2, 3pi/4).
    Raises NoAlternance when no four alternate within ``tol`` of the
    sup-norm, NoConvergence when R <= 0 in the scan.
    """
    scan = _extrema_scan(gauge, params, grid_size)
    return _certificate_from_scan(scan, tol)


def certificate_deviations(
    gauge: Gauge, params: EllipseParams, cert: AlternanceCertificate
) -> tuple[float, float, float, float]:
    """f - g at the certificate's angles, signed + at phi1, phi2 and - at psi1, psi2.

    All four equal the defect at an exact optimum.  R <= 0 at an angle raises
    NoConvergence.
    """
    h = _deviation_fn(gauge, params)
    return tuple(float(v) for v in h(np.array(cert.angles())) * _SIGNS)


def verify_certificate(
    gauge: Gauge,
    params: EllipseParams,
    cert: AlternanceCertificate,
    tol: float,
    grid_size: int = 4096,
) -> CertificateVerdict:
    """Re-check a certificate from scratch.

    The implied defect d_hat is the mean of the four signed deviations; the
    verdict requires strict interleaving, each deviation within tol of d_hat,
    and the sup of |f - g| over a fresh ``_extrema_scan`` at most d_hat + tol;
    on a polygon that sup is exact, with no grid.  A passing verdict makes
    the ellipse the unique minimizer up to those tolerances.  R <= 0 at a
    scanned angle raises NoConvergence.
    """
    dev = certificate_deviations(gauge, params, cert)
    d_hat = sum(dev) / 4.0
    residuals_ok = tuple(abs(v - d_hat) <= tol for v in dev)
    ordering_ok = cert.interleaved()
    sup = _extrema_scan(gauge, params, grid_size).sup
    sup_ok = sup <= d_hat + tol
    passed = ordering_ok and all(residuals_ok) and sup_ok
    return CertificateVerdict(ordering_ok, residuals_ok, sup_ok, passed, d_hat, dev, sup)


def solve_uniform(gauge: Gauge, opts: Optional[SolverOptions] = None) -> UniformSolution:
    """Best uniform approximation of f = log r over the ellipse family.

    One exchange loop.  Its first run solves the minimax LP on the evaluation
    grid (its exchange rounds counted in ``lp_calls``); every later run solves
    it on the scanned extrema of the previous run's deviation (these runs
    counted in ``polish_iterations``, at most 30).  Each run's level, max |f - g|
    on its points, is a de la Vallee Poussin lower bound on d*, and the
    scanned sup-norm of its triple an upper bound; the loop stops once they
    agree to 1e-12 relative and returns the triple of least sup, certified
    as by ``extract_certificate`` from that triple's scan, with no exchange
    run of its own.  Raises NoConvergence when the grid run fails (a singular
    or repeated reference, no stop within its round cap, a triple outside the
    cone, or R <= 0 at a point, grid angle or probe of the scan); a later run
    that fails ends the loop.  Raises NoAlternance when a level exceeds the
    returned sup-norm by more than ``cert_tol`` (the scan missed extrema) or
    no certificate exists within ``cert_tol``.
    """
    opts = opts or SolverOptions()
    grid = evaluation_grid(gauge, opts.grid_size)
    fvals = gauge.log_eval(grid)
    diag = SolveDiagnostics(grid_points=grid.size)

    points, f = grid, fvals
    best: Optional[tuple[EllipseParams, _ExtremaScan]] = None
    top = -math.inf
    for run in range(31):
        try:
            trig = _trig_matrix(points)
            params, rounds = _minimax_lp(trig, f)
            dev = f + _half_log_table(params, trig)
            del trig  # released before the scan's probes are evaluated
            level = float(np.abs(dev).max())
            # on the grid run, dev is h on the grid, which the scan refines
            scan = _extrema_scan(gauge, params, opts.grid_size,
                                 (grid, fvals, dev if points is grid else None))
        except NoConvergence:
            if best is None:
                raise
            break
        if best is None:
            diag.lp_calls = rounds
        else:
            diag.polish_iterations = run
        top = max(top, level)
        if best is None or scan.sup < best[1].sup:
            best = params, scan
        if scan.sup - level <= 1e-12 * scan.sup:
            break
        points = np.unique(np.concatenate([scan.max_angles, scan.min_angles]))
        if points.size < 4:
            break
        f = gauge.log_eval(points)

    params, scan = best
    if top > scan.sup + opts.cert_tol:
        raise NoAlternance(
            f"exchange level {top!r} exceeds the scanned sup-norm {scan.sup!r}: "
            "the scan missed extrema"
        )
    cert = _certificate_from_scan(scan, opts.cert_tol)
    return UniformSolution(params, float(scan.sup), cert, diag)


def distance(gauge: Gauge, opts: Optional[SolverOptions] = None) -> float:
    """Multiplicative distance of the body's normed plane to the Euclidean plane."""
    return math.exp(2.0 * solve_uniform(gauge, opts).defect)

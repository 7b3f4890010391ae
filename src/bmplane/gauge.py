"""Planar symmetric star bodies as radial functions.

A body is described by its boundary radius r(phi) > 0, pi-periodic and
continuous; evaluation always reduces the angle mod pi, so r(phi + pi) =
r(phi) holds exactly no matter how the body was entered.  The logarithm
f = log(r) is what the solver approximates.

Supported inputs: star-shaped polygons (optionally symmetrized), lp unit
balls, radial samples on a uniform angle grid, ellipses of the solver's own
family, and circles.
"""

from __future__ import annotations

import math
from functools import cache
from numbers import Real
from typing import Optional, Sequence

import numpy as np

from .ellipse import EllipseParams
from .errors import (
    InputError,
    InvalidExponent,
    NonPositiveSample,
    NotStarShaped,
    NotSymmetric,
    OriginOutside,
    TooFewSamples,
)

__all__ = [
    "Gauge",
    "polygon_gauge",
    "lp_gauge",
    "sample_gauge",
    "ellipse_gauge",
    "circle_gauge",
    "gauge_from_descriptor",
    "evaluation_grid",
]

_PI = math.pi
_H_ROUNDING = 2.0**-50  # h = f - g rounds by about eps*|f|: this bounds it, relative to max|f|


def _reduce(phi) -> np.ndarray:
    """Angles mod pi into [0, pi), tolerant of negatives and rounding; -0.0 becomes +0.0.

    Angles already in [0, pi) are that value, so only the others pay np.mod.
    """
    phi = np.asarray(phi, dtype=float)
    red = np.asarray(phi + 0.0)  # +0.0 for -0.0, the value of np.mod there
    if phi.size and 0.0 <= phi.min() and phi.max() < _PI:  # NaN fails both
        return red
    out = ~((phi >= 0.0) & (phi < _PI))  # NaN too, which np.mod keeps
    wrapped = np.mod(phi[out], _PI)
    red[out] = np.where(wrapped >= _PI, 0.0, wrapped)
    return red


class Gauge:
    """Radial function of a symmetric star body.  Immutable after construction."""

    def eval(self, phi):
        """Boundary radius r(phi); accepts scalars or arrays."""
        arr = np.asarray(phi, dtype=float)
        out = self._radius(np.atleast_1d(_reduce(arr)))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def log_eval(self, phi):
        """f(phi) = log r(phi); accepts scalars or arrays."""
        arr = np.asarray(phi, dtype=float)
        out = self._log_radius(np.atleast_1d(_reduce(arr)))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def log_slopes(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """f' on an angle array: its limits from the left and the right, which differ at kinks."""
        return self._jet(np.atleast_1d(_reduce(phi)), f=False)[1]

    def log_jet(self, phi) -> tuple[np.ndarray, Optional[tuple[np.ndarray, np.ndarray]]]:
        """f and f' (as ``log_slopes``) on an angle array, from one pass over it; f and None on
        a gauge whose extrema are in closed form (``extremum_candidates``)."""
        return self._jet(np.atleast_1d(_reduce(phi)))

    def critical_angles(self) -> np.ndarray:
        """Angles in [0, pi) where r may have a kink; empty for smooth bodies."""
        return np.empty(0)

    def extremum_candidates(self, params: EllipseParams):
        """Closed-form local extrema of f - g for the triple, or None where there is none.

        One array of angles, each taken mod pi.
        """
        return None

    def descriptor(self) -> dict:
        raise NotImplementedError

    # subclasses implement _radius on a reduced, at-least-1d angle array
    def _radius(self, red: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log_radius(self, red: np.ndarray) -> np.ndarray:
        return np.log(self._radius(red))

    # a gauge scanned by its slopes implements _jet: f (None when not asked for) and f'
    def _jet(self, red: np.ndarray, f: bool = True):
        if not f:
            raise NotImplementedError
        return self._log_radius(red), None


class _PolygonGauge(Gauge):
    def __init__(self, vertices: np.ndarray, original: np.ndarray, symmetrize: bool):
        # vertices: validated, CCW, rolled so vertex angles ascend from the minimum
        self._original = original
        self._symmetrize = symmetrize
        self._vertices = vertices
        self._theta = np.mod(np.arctan2(vertices[:, 1], vertices[:, 0]), 2.0 * _PI)
        self._edge = np.roll(vertices, -1, axis=0) - vertices
        # v x e, not v x nxt (which cancels): each edge's line passes through its own vertex
        self._cross = vertices[:, 0] * self._edge[:, 1] - vertices[:, 1] * self._edge[:, 0]

    def _radius(self, red: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._theta, red, side="right") - 1
        ex, ey = self._edge[idx, 0], self._edge[idx, 1]
        denom = np.cos(red) * ey - np.sin(red) * ex
        return self._cross[idx] / denom

    def critical_angles(self) -> np.ndarray:
        # _radius switches edges at these; folding the vertices past pi could miss them by ulps
        return self._theta[self._theta < _PI]

    def extremum_candidates(self, params: EllipseParams):
        """Local extrema of f - g = 1/2 log(p'Mp) over the boundary points p of _radius.

        With M the triple's form (``EllipseParams.matrix``), p'Mp is a convex
        quadratic along each edge p = v + s*e, with slope sign that of p'Me.
        Mod pi the boundary is the edges out of the vertices below pi; the
        last of them ends at the antipode of vertex 0, so it covers the angles
        from the last vertex below pi through pi (0) up to vertex 0 in one
        piece.  A vertex is an extremum where the slope turns across it, from
        >= 0 to <= 0 or from <= 0 to >= 0, at its own angle, a kink of
        _radius.  An edge whose slope rises from < 0 to > 0 has its minimum
        inside, at s = -v'Me / e'Me.  Every angle is in [0, pi).  A form whose
        slopes leave the float range gives NaN slopes and no candidate there,
        with no RuntimeWarning.
        """
        th = self.critical_angles()
        v, e = self._vertices[: th.size], self._edge[: th.size]
        with np.errstate(over="ignore", invalid="ignore"):
            me = e @ params.matrix()
            start = np.einsum("ij,ij->i", v, me)  # slopes at the edges' ends
            eme = np.einsum("ij,ij->i", e, me)
            end = start + eme
        before = np.roll(end, 1)
        inner = (start < 0.0) & (end > 0.0)
        p = v[inner] - (start[inner] / eme[inner])[:, None] * e[inner]
        turn = ((before >= 0.0) & (start <= 0.0)) | ((before <= 0.0) & (start >= 0.0))
        return np.concatenate([th[turn], _reduce(np.arctan2(p[:, 1], p[:, 0]))])

    def descriptor(self) -> dict:
        d = {"kind": "polygon", "vertices": self._original.tolist()}
        if self._symmetrize:
            d["symmetrize"] = True
        return d


class _LpGauge(Gauge):
    def __init__(self, p: float):
        self._p = p

    def _radius(self, red: np.ndarray) -> np.ndarray:
        return np.exp(self._log_radius(red))

    def _log_radius(self, red: np.ndarray) -> np.ndarray:
        return self._jet(red, slopes=False)[0]

    def _jet(self, red: np.ndarray, f: bool = True, slopes: bool = True):
        """f and f' from one cos and sin, each None when not asked for."""
        cos, s = np.cos(red), np.abs(np.sin(red))
        c = np.abs(cos)
        m = np.maximum(c, s)
        t = np.minimum(c, s) / m  # of c/m and s/m, one is 1 and the other t, exactly
        logr = -np.log(m) if f else None
        if f and not math.isinf(self._p):  # max-normalized for stability at large p
            logr = logr - np.log(1.0 + t**self._p) / self._p
        if not slopes:
            return logr, None
        # f' = sign(cos*(|cos| - sin))*(t - t^(p-1))/(1 + t^p)
        sign = np.sign(cos * (c - s))
        if math.isinf(self._p):  # t^inf is 0 below t = 1, and the sign is 0 at t = 1
            slope = sign * t
        else:
            tp = t ** (self._p - 1.0)
            slope = sign * (t - tp) / (1.0 + t * tp)
        if 1.0 < self._p < math.inf:
            return logr, (slope, slope)
        # every kink (p = 1 or inf) is a corner of r with slopes +1 on its left and -1 on its right
        first, second = self.critical_angles()
        kink = (red == first) | (red == second)
        return logr, (np.where(kink, 1.0, slope), np.where(kink, -1.0, slope))

    def critical_angles(self) -> np.ndarray:
        if math.isinf(self._p):
            return np.array([0.25 * _PI, 0.75 * _PI])
        if self._p == 1.0:
            return np.array([0.0, 0.5 * _PI])
        return np.empty(0)

    def descriptor(self) -> dict:
        return {"kind": "lp", "p": "inf" if math.isinf(self._p) else self._p}


class _SampleGauge(Gauge):
    def __init__(self, values: np.ndarray, interp: str):
        self._values = values
        self._interp = interp
        self._n = values.size
        # the cell ends k*pi/N and pi, against which linear cells are found and measured
        self._nodes = np.append(np.arange(self._n) * _PI / self._n, _PI)
        self._nodes.flags.writeable = False
        self._slopes = (np.roll(values, -1) - values) / np.diff(self._nodes)  # r' on each cell
        self._cubics = self._pchip_cubics() if interp == "pchip" else None

    def _pchip_cubics(self) -> tuple[np.ndarray, np.ndarray]:
        """Knots k*pi/N (k = 0 ... N + 1) and the power-form coefficients (c0, c1, c2, c3) of
        r = c3 + c2*s + c1*s^2 + c0*s^3, s the angle less its knot, on the cells between them.

        These are scipy's ``PchipInterpolator`` on the periodically padded samples, bit for bit:
        Fritsch-Carlson derivatives (the weighted harmonic mean of the slopes on either side, 0
        where they differ in sign or one is 0) and ``CubicHermiteSpline``'s coefficients.  One
        sample past each end knot gives every knot a slope on either side, so scipy's rule for
        the derivative at an end, which only its padded end cells use, is never needed.
        """
        n = self._n
        k = np.arange(-1, n + 3)
        x, y = k * _PI / n, self._values[np.mod(k, n)]
        h = np.diff(x)
        m = np.diff(y) / h
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        mono = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
        d = np.zeros(n + 2)  # at the knots
        d[mono] = 1.0 / ((w1[mono] / m[:-1][mono] + w2[mono] / m[1:][mono]) / (w1 + w2)[mono])
        h, m, y = h[1:-1], m[1:-1], y[1:-2]
        t = (d[:-1] + d[1:] - 2 * m) / h
        return x[1:-1], np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y])

    def _pchip(self, red: np.ndarray, slope: bool = False):
        """r, or r and r', on angles in [0, pi), summed as scipy's ``PPoly`` sums them."""
        knots, coef = self._cubics
        # NaN sorts past the last knot: in the last cell it stays NaN, as scipy's does
        i = np.minimum(np.searchsorted(knots, red, side="right"), knots.size - 1) - 1
        s = red - knots[i]
        c0, c1, c2, c3 = coef[:, i]
        r = c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)
        return (r, c2 + c1 * s * 2.0 + c0 * (s * s) * 3.0) if slope else r

    def _cell(self, red: np.ndarray) -> np.ndarray:
        """The linear cell k of each angle: nodes[k] <= red < nodes[k + 1]; the last for NaN."""
        k = np.fmin(red * (self._n / _PI), self._n - 1).astype(int)
        k -= red < self._nodes[k]
        k += red >= self._nodes[k + 1]
        return k

    def _radius(self, red: np.ndarray) -> np.ndarray:
        if self._cubics is not None:
            return self._pchip(red)
        return self._linear(red, self._cell(red))

    def _linear(self, red: np.ndarray, k: np.ndarray) -> np.ndarray:
        """r on angles in their linear cells k."""
        frac = (red - self._nodes[k]) / (self._nodes[k + 1] - self._nodes[k])
        nxt = k + 1  # the next sample, the first after the last
        nxt[nxt == self._n] = 0
        return self._values[k] * (1.0 - frac) + self._values[nxt] * frac

    def _jet(self, red: np.ndarray, f: bool = True):
        """f (None when not asked for) and f' from one cell lookup or cubic."""
        if self._cubics is not None:  # C1: both limits agree
            r, dr = self._pchip(red, slope=True)
            grad = (dr / r,) * 2
        else:
            k = self._cell(red)
            r = self._linear(red, k)
            # a node's left limit is the slope of the cell before it (-1: the last, before 0)
            grad = self._slopes[k - (red == self._nodes[k])] / r, self._slopes[k] / r
        return (np.log(r) if f else None), grad

    def critical_angles(self) -> np.ndarray:
        return self._nodes[:-1]  # read-only

    def descriptor(self) -> dict:
        d = {"kind": "samples", "samples": self._values.tolist()}
        if self._interp != "linear":
            d["interp"] = self._interp
        return d


class _EllipseGauge(Gauge):
    def __init__(self, params: EllipseParams):
        self._params = params

    def _radius(self, red: np.ndarray) -> np.ndarray:
        return self._params.trig(red) ** -0.5

    def _log_radius(self, red: np.ndarray) -> np.ndarray:
        return -0.5 * np.log(self._params.trig(red))

    def extremum_candidates(self, params: EllipseParams):
        """f - g = 1/2 log(p'Mp / p'M_e p) at p = (cos, sin), with M_e the body's M: its extrema
        are the generalized eigenvectors of (M, M_e), unless M is M_e scaled to its rounding or h
        spreads less than 1e-13 plus its rounding over them and the canonical angles, which then
        stand in for their noise (the scan's one flatness rule)."""
        m, me, phi = params.matrix(), self._params.matrix(), np.arange(4) * (0.25 * _PI)
        # R <= 0 is not flat, nor is a form past the float range (inf or NaN): _R raises on both
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = np.trace(m) / np.trace(me)
            if np.abs(m - me * ratio).max() <= _H_ROUNDING * np.abs(m).max():
                return phi
            chol = np.linalg.cholesky(me)
            _, u = np.linalg.eigh(np.linalg.solve(chol, np.linalg.solve(chol, m).T))
            phi = np.append(phi, _reduce(np.arctan2(*np.linalg.solve(chol.T, u)[::-1])))
            f = self._log_radius(phi)
            h = f + 0.5 * np.log(params.trig(phi))
            flat = h.max() - h.min() < 1e-13 + _H_ROUNDING * np.abs(f).max()
        return phi[:4] if flat else phi[4:]

    def descriptor(self) -> dict:
        return {"kind": "ellipse", "params": list(self._params.triple())}


def _winding_number(vertices: np.ndarray) -> float:
    theta = np.arctan2(vertices[:, 1], vertices[:, 0])
    step = np.diff(np.append(theta, theta[0]))
    step = np.mod(step + _PI, 2.0 * _PI) - _PI
    return float(step.sum() / (2.0 * _PI))


def _validate_star(vertices: np.ndarray) -> np.ndarray:
    """Check star-shapedness about a strictly interior origin; return CCW order."""
    scale = float(np.max(np.hypot(vertices[:, 0], vertices[:, 1])))
    if np.min(np.hypot(vertices[:, 0], vertices[:, 1])) <= 1e-12 * scale:
        raise OriginOutside("a vertex coincides with the origin")

    nxt = np.roll(vertices, -1, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused next
        cross = vertices[:, 0] * nxt[:, 1] - vertices[:, 1] * nxt[:, 0]
        clockwise = float(cross.sum()) < 0.0
    if not (scale * scale > 0.0 and 1e-14 * scale * scale < math.inf and np.isfinite(cross).all()):
        raise InputError(f"largest vertex radius {scale!r}: cross products leave the float range")
    if clockwise:  # flip orientation
        vertices = vertices[::-1].copy()
        nxt = np.roll(vertices, -1, axis=0)
        cross = vertices[:, 0] * nxt[:, 1] - vertices[:, 1] * nxt[:, 0]

    if np.any(cross <= 1e-14 * scale * scale):
        if abs(_winding_number(vertices)) < 0.5:
            raise OriginOutside("origin is not strictly inside the polygon")
        raise NotStarShaped(
            "some ray from the origin misses the boundary or crosses it twice"
        )

    winding = _winding_number(vertices)
    if abs(winding - 1.0) > 1e-9:
        raise NotStarShaped(f"boundary winds {winding:g} times around the origin")
    return vertices


def polygon_gauge(vertices: Sequence, symmetrize: bool = False) -> Gauge:
    """Gauge of a star-shaped polygon given by its boundary vertices.

    The polygon must be star-shaped about the origin with the origin strictly
    inside.  With ``symmetrize`` the antipodes of all vertices are appended
    (and the combined set ordered by angle); without it the vertex set must
    already equal its antipodal image to within 1e-12.  On both paths a vertex within
    1e-9 times the largest vertex radius of the next one in the cycle, such as the
    first repeated at the end, counts once.
    """
    original = np.asarray(vertices, dtype=float)
    if original.ndim != 2 or original.shape[1] != 2:
        raise InputError(f"vertices must be an (n, 2) array, got shape {original.shape}")
    if not np.isfinite(original).all():
        raise InputError("vertices contain non-finite coordinates")
    if original.shape[0] < 3:
        raise NotStarShaped("need at least 3 vertices")

    scale = float(np.max(np.hypot(original[:, 0], original[:, 1])))
    if scale == 0.0:
        raise OriginOutside("all vertices at the origin")

    pts = original
    if symmetrize:
        pts = np.vstack([original, -original])
        pts = pts[np.argsort(np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * _PI), kind="stable")]
    # a vertex within 1e-9*scale of the next in the cycle (as a closed ring repeats its first
    # at the end, to rounding) counts once
    work = pts[np.hypot(*(pts - np.roll(pts, -1, axis=0)).T) > 1e-9 * scale]
    if work.shape[0] < 3:
        raise NotStarShaped("need at least 3 distinct vertices")

    work = _validate_star(work)
    theta = np.mod(np.arctan2(work[:, 1], work[:, 0]), 2.0 * _PI)
    work = np.roll(work, -int(np.argmin(theta)), axis=0)
    if not symmetrize:
        # in ascending angle order each vertex's antipode is half the count on
        n = work.shape[0]
        gap = np.hypot(*(work + np.roll(work, n // 2, axis=0)).T)
        if n % 2 or gap.max() > 1e-12 * max(1.0, scale):
            i = int(np.argmax(gap))
            raise NotSymmetric(
                f"vertex {work[i].tolist()} has no antipodal partner: the vertex {n // 2} "
                f"places on in angle order is {gap[i]:.3g} from its antipode; "
                "pass symmetrize=True to symmetrize"
            )
    return _PolygonGauge(work, original, symmetrize)


def lp_gauge(p: float) -> Gauge:
    """Gauge of the lp unit ball: r = (|cos|^p + |sin|^p)^(-1/p), p in [1, inf]."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidExponent(f"exponent must satisfy p >= 1, got {p}")
    return _LpGauge(p)


def sample_gauge(values: Sequence[float], interp: str = "linear") -> Gauge:
    """Gauge interpolating positive radial samples at phi_k = k*pi/N.

    Linear interpolation (default) preserves positivity unconditionally; the
    monotone-cubic option is smoother but still overshoot-free.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise InputError(f"samples must be a 1-d array, got shape {v.shape}")
    if v.size < 8:
        raise TooFewSamples(f"need at least 8 samples, got {v.size}")
    if not np.isfinite(v).all() or np.any(v <= 0.0):
        raise NonPositiveSample("all samples must be finite and strictly positive")
    if interp not in ("linear", "pchip"):
        raise InputError(f"interp must be 'linear' or 'pchip', got {interp!r}")
    return _SampleGauge(v.copy(), interp)


def ellipse_gauge(params: EllipseParams) -> Gauge:
    """Gauge whose body is an ellipse of the solver's own family."""
    return _EllipseGauge(params)


def circle_gauge(radius: float = 1.0) -> Gauge:
    """Gauge of the circle of the given radius: the ellipse (radius**-2, 0, 0)."""
    with np.errstate(over="ignore", divide="ignore"):
        a2 = float(np.float64(radius) ** -2.0)
    if not (radius > 0.0 and 0.0 < a2 < math.inf):
        raise InputError(f"radius**-2 must be positive and finite, got radius {radius}")
    return _EllipseGauge(EllipseParams(a2, 0.0, 0.0))


def _json_numbers(payload, field: str):
    """The payload, a JSON number or nested lists of them; a boolean, a string or null
    raises InputError.  A float or an int, what JSON numbers load as, passes without
    the ``Real`` check, which costs about 0.3 us a number."""
    stack = [payload]
    while stack:
        v = stack.pop()
        if type(v) is float or type(v) is int:
            continue
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif isinstance(v, bool) or not isinstance(v, Real):
            raise InputError(f"{field} must hold JSON numbers only, got {v!r}")
    return payload


def _number_array(payload, field: str) -> np.ndarray:
    """A descriptor payload of nested lists of JSON numbers (``_json_numbers``) as a float
    array; lists that do not nest regularly raise InputError."""
    try:
        return np.asarray(_json_numbers(payload, field), dtype=float)
    except (ValueError, OverflowError):
        raise InputError(f"{field} must be a regular array of float-sized numbers") from None


_DESCRIPTOR_KEYS = {"kind", "vertices", "p", "samples", "params", "symmetrize", "interp"}
_PAYLOAD_FOR_KIND = {"polygon": "vertices", "lp": "p", "samples": "samples", "ellipse": "params"}


def gauge_from_descriptor(d: dict) -> Gauge:
    """Build a gauge from the JSON body descriptor.

    Schema: {"kind": "polygon"|"lp"|"samples"|"ellipse", payload,
    "symmetrize"?: bool (polygon only), "interp"?: str (samples only)}.
    Exactly one payload field (vertices / p / samples / params) must be
    present and it must match the kind; symmetrize or interp on another kind
    is an error.  symmetrize must be a JSON boolean, p a JSON number or
    "inf", and vertices, samples and params (nested) lists of JSON numbers.
    """
    if not isinstance(d, dict):
        raise InputError(f"body descriptor must be an object, got {type(d).__name__}")
    unknown = set(d) - _DESCRIPTOR_KEYS
    if unknown:
        raise InputError(f"unknown descriptor fields: {sorted(unknown)}")
    kind = d.get("kind")
    if kind not in _PAYLOAD_FOR_KIND:
        raise InputError(f"kind must be one of {sorted(_PAYLOAD_FOR_KIND)}, got {kind!r}")
    payload_fields = [k for k in ("vertices", "p", "samples", "params") if k in d]
    if payload_fields != [_PAYLOAD_FOR_KIND[kind]]:
        raise InputError(
            f"kind {kind!r} requires exactly the payload field "
            f"{_PAYLOAD_FOR_KIND[kind]!r}, got {payload_fields}"
        )

    for key, owner in (("symmetrize", "polygon"), ("interp", "samples")):
        if key in d and kind != owner:
            raise InputError(f"{key!r} applies to kind {owner!r} only, not {kind!r}")
    if kind == "polygon":
        symmetrize = d.get("symmetrize", False)
        if not isinstance(symmetrize, bool):
            raise InputError(f"symmetrize must be true or false, got {symmetrize!r}")
        return polygon_gauge(_number_array(d["vertices"], "vertices"), symmetrize=symmetrize)
    if kind == "lp":
        p = d["p"]
        if isinstance(p, str) and p.lower() in ("inf", "infinity"):
            p = math.inf
        elif isinstance(p, bool) or not isinstance(p, Real):
            raise InputError(f"p must be a number or 'inf', got {p!r}")
        return lp_gauge(p)
    if kind == "samples":
        samples = _number_array(d["samples"], "samples")
        return sample_gauge(samples, interp=d.get("interp", "linear"))
    params = d["params"]
    if not (isinstance(params, (list, tuple)) and len(params) == 3):
        raise InputError(f"params must be a list [a2, b2, c2], got {params!r}")
    return ellipse_gauge(EllipseParams(*_number_array(params, "params")))


def _merge_kinks(base: np.ndarray, kinks: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The uniform angles base = k*pi/n (k < n) merged with kink angles in [0, pi).

    Returns (new, order): the merged grid is concatenate([base, new])[order], or base itself
    when order is None.  A kink within 1e-13 above another is dropped, and a base angle
    within 1e-13 of a kink gives way to it.  A kink equal to a base angle is that angle,
    bit for bit, so only the others are new; with no new kink the grid is base.  Each kink
    is placed by its nearest base angle, k = rint(kink*n/pi), with no search: the base
    spacing is far above 1e-13 and the rounding of k, and the two sorted parts merge by one
    stable argsort.
    """
    if kinks.size == 0:
        return kinks, None
    crit = np.sort(kinks, kind="stable")  # stable: a linear merge on already sorted kinks
    crit = crit[np.append(True, np.diff(crit) > 1e-13)]
    n = base.size
    near = np.minimum(np.rint(crit * (n / _PI)).astype(np.intp), n - 1)
    gap = crit - base[near]
    off = np.flatnonzero(gap)
    if off.size == 0:
        return crit[:0], None
    new, near, gap = crit[off], near[off], gap[off]
    kept = np.delete(np.arange(n), near[np.abs(gap) <= 1e-13])
    order = np.argsort(np.concatenate([base[kept], new]), kind="stable")
    return new, np.concatenate([kept, n + np.arange(new.size)])[order]


@cache
def _base_grid(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uniform grid k*pi/n (the grid of a body with no kinks) and its cos 2phi and
    sin 2phi, taken once per process for each n and shared, read-only, by every body's grid."""
    angles = np.arange(n) * (_PI / n)
    shared = (angles, np.cos(2.0 * angles), np.sin(2.0 * angles))
    for a in shared:
        a.flags.writeable = False
    return shared


def _grid_table(gauge: Gauge, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``evaluation_grid(gauge, n)``, its cos 2phi and its sin 2phi, three contiguous arrays:
    ``_base_grid`` merged with the kinks, of which only those off every base angle get a fresh
    cos and sin.  With no such kink they are the shared read-only arrays themselves."""
    base = _base_grid(n)
    new, order = _merge_kinks(base[0], gauge.critical_angles())
    if order is None:
        return base
    fresh = (new, np.cos(2.0 * new), np.sin(2.0 * new))
    return tuple(np.concatenate(pair)[order] for pair in zip(base, fresh))


def evaluation_grid(gauge: Gauge, n: int) -> np.ndarray:
    """Uniform n-point grid k*pi/n over [0, pi) merged with the gauge's kink angles
    (``_merge_kinks``), bit for bit: a uniform angle within 1e-13 of a kink gives way to
    it, as does a kink within 1e-13 above another.  Read-only when it is the uniform grid.
    """
    return _grid_table(gauge, n)[0]

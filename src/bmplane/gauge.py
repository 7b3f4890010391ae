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
from typing import Sequence

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


def _reduce(phi) -> np.ndarray:
    """Angles mod pi into [0, pi), tolerant of negatives and rounding."""
    red = np.mod(np.asarray(phi, dtype=float), _PI)
    return np.where(red >= _PI, 0.0, red)


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

    def critical_angles(self) -> np.ndarray:
        """Angles in [0, pi) where r may have a kink; empty for smooth bodies."""
        return np.empty(0)

    def descriptor(self) -> dict:
        raise NotImplementedError

    # subclasses implement _radius on a reduced, at-least-1d angle array
    def _radius(self, red: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log_radius(self, red: np.ndarray) -> np.ndarray:
        return np.log(self._radius(red))


class _PolygonGauge(Gauge):
    def __init__(self, vertices: np.ndarray, original: np.ndarray, symmetrize: bool):
        # vertices: validated, CCW, rolled so vertex angles ascend from the minimum
        self._original = original
        self._symmetrize = symmetrize
        nxt = np.roll(vertices, -1, axis=0)
        self._theta = np.mod(np.arctan2(vertices[:, 1], vertices[:, 0]), 2.0 * _PI)
        self._cross = vertices[:, 0] * nxt[:, 1] - vertices[:, 1] * nxt[:, 0]
        self._edge = nxt - vertices

    def _radius(self, red: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._theta, red, side="right") - 1
        ex, ey = self._edge[idx, 0], self._edge[idx, 1]
        denom = np.cos(red) * ey - np.sin(red) * ex
        return self._cross[idx] / denom

    def critical_angles(self) -> np.ndarray:
        # _radius switches edges at these; folding the vertices past pi could miss them by ulps
        return self._theta[self._theta < _PI]

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
        c, s = np.abs(np.cos(red)), np.abs(np.sin(red))
        m = np.maximum(c, s)
        if math.isinf(self._p):
            return -np.log(m)
        # max-normalized for stability at large p
        inner = (c / m) ** self._p + (s / m) ** self._p
        return -np.log(m) - np.log(inner) / self._p

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
        if interp == "pchip":
            from scipy.interpolate import PchipInterpolator

            pad = 3
            n = self._n
            k = np.arange(-pad, n + pad + 1)
            self._pchip = PchipInterpolator(k * _PI / n, values[np.mod(k, n)])
        else:
            self._pchip = None

    def _radius(self, red: np.ndarray) -> np.ndarray:
        if self._pchip is not None:
            return self._pchip(red)
        x = red * self._n / _PI
        k = np.minimum(np.floor(x).astype(int), self._n - 1)
        frac = x - k
        v = self._values
        return v[k] * (1.0 - frac) + v[np.mod(k + 1, self._n)] * frac

    def critical_angles(self) -> np.ndarray:
        return np.arange(self._n) * _PI / self._n

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
    cross = vertices[:, 0] * nxt[:, 1] - vertices[:, 1] * nxt[:, 0]
    if float(cross.sum()) < 0.0:  # clockwise input; flip orientation
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
    already equal its antipodal image to within 1e-12.
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

    if symmetrize:
        pts = np.vstack([original, -original])
        order = np.argsort(np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * _PI), kind="stable")
        pts = pts[order]
        keep = [0]
        for i in range(1, pts.shape[0]):
            if np.hypot(*(pts[i] - pts[keep[-1]])) > 1e-9 * scale:
                keep.append(i)
        if np.hypot(*(pts[keep[-1]] - pts[keep[0]])) <= 1e-9 * scale:
            keep.pop()
        work = pts[keep]
    else:
        # antipodal pairing within 1e-12, else the body is not symmetric
        for v in original:
            if np.min(np.hypot(original[:, 0] + v[0], original[:, 1] + v[1])) > 1e-12 * max(
                1.0, scale
            ):
                raise NotSymmetric(
                    f"vertex {v.tolist()} has no antipodal partner; "
                    "pass symmetrize=True to symmetrize"
                )
        work = original.copy()

    work = _validate_star(work)
    theta = np.mod(np.arctan2(work[:, 1], work[:, 0]), 2.0 * _PI)
    work = np.roll(work, -int(np.argmin(theta)), axis=0)
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


_DESCRIPTOR_KEYS = {"kind", "vertices", "p", "samples", "params", "symmetrize", "interp"}
_PAYLOAD_FOR_KIND = {"polygon": "vertices", "lp": "p", "samples": "samples", "ellipse": "params"}


def gauge_from_descriptor(d: dict) -> Gauge:
    """Build a gauge from the JSON body descriptor.

    Schema: {"kind": "polygon"|"lp"|"samples"|"ellipse", payload, "symmetrize"?:
    bool}.  Exactly one payload field (vertices / p / samples / params) must be
    present and it must match the kind.
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

    if kind == "polygon":
        return polygon_gauge(d["vertices"], symmetrize=bool(d.get("symmetrize", False)))
    if kind == "lp":
        p = d["p"]
        if isinstance(p, str):
            if p.lower() not in ("inf", "infinity"):
                raise InputError(f"p must be a number or 'inf', got {p!r}")
            p = math.inf
        return lp_gauge(p)
    if kind == "samples":
        return sample_gauge(d["samples"], interp=d.get("interp", "linear"))
    params = d["params"]
    if not (isinstance(params, (list, tuple)) and len(params) == 3):
        raise InputError(f"params must be a list [a2, b2, c2], got {params!r}")
    return ellipse_gauge(EllipseParams(*params))


def evaluation_grid(gauge: Gauge, n: int) -> np.ndarray:
    """Uniform n-point grid over [0, pi) merged with the gauge's kink angles."""
    base = np.arange(n) * (_PI / n)
    crit = gauge.critical_angles()
    if crit.size == 0:
        return base
    merged = np.union1d(base, crit)
    keep = np.ones(merged.size, dtype=bool)
    keep[1:] = np.diff(merged) > 1e-13
    return merged[keep]

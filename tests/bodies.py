"""Shared body generators and independent geometric oracles for the tests."""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

from bmplane.ellipse import EllipseParams, PDMatrix2


def regular_polygon(n: int, circumradius: float = 1.0, phase: float = 0.0) -> np.ndarray:
    ang = phase + 2.0 * math.pi * np.arange(n) / n
    return circumradius * np.column_stack([np.cos(ang), np.sin(ang)])


def hexagon_inradius_1() -> np.ndarray:
    return regular_polygon(6, circumradius=2.0 / math.sqrt(3.0), phase=math.pi / 6.0)


def square_vertices() -> np.ndarray:
    return np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def diamond_vertices() -> np.ndarray:
    """The square rotated by pi/4: the inradius-1 'diamond'."""
    s = math.sqrt(2.0)
    return np.array([[s, 0.0], [0.0, s], [-s, 0.0], [0.0, -s]])


def random_star_polygon(
    rng: np.random.Generator,
    n_half: int = 10,
    r_lo: float = 1.0,
    r_hi: float = 1.2,
    max_gap: float = 0.8,
) -> np.ndarray:
    """Symmetric star polygon: random angles/radii on a half-period plus antipodes.

    The defaults keep the full radial ratio below sqrt(2) even along edges
    (edges dip below the vertex radii by at most cos(max_gap / 2)), so the
    distance of these possibly non-convex bodies provably stays within the
    sqrt(2) bound: the constant-ellipse baseline gives d2 <= r_max / r_min.
    """
    while True:
        ang = np.sort(rng.uniform(0.0, math.pi, n_half))
        gaps = np.append(np.diff(ang), ang[0] + math.pi - ang[-1])
        if n_half > 1 and (gaps.min() < 0.03 or gaps.max() > max_gap):
            continue
        radii = rng.uniform(r_lo, r_hi, n_half)
        half = radii[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        return np.vstack([half, -half])


def random_convex_polygon(rng: np.random.Generator, n_half: int = 8) -> np.ndarray:
    """Symmetric convex polygon: hull of random points and their antipodes."""
    pts = rng.normal(size=(n_half, 2))
    pts = np.vstack([pts, -pts])
    hull = ConvexHull(pts)
    return pts[hull.vertices]


def polar_polygon(vertices: np.ndarray) -> np.ndarray:
    """Vertices of the polar of a convex polygon around 0: per edge, a with a'v = 1 at both ends."""
    v = np.asarray(vertices, dtype=float)
    ends = np.stack([v, np.roll(v, -1, axis=0)], axis=1)  # (edge, end, xy)
    return np.linalg.solve(ends, np.ones((v.shape[0], 2, 1)))[..., 0]


def jittered_star_polygon(rng: np.random.Generator, n_half: int) -> np.ndarray:
    """Symmetric star polygon with one jittered vertex angle per slot, radii in [1, 1.2]."""
    slot = math.pi / n_half
    ang = (np.arange(n_half) + rng.uniform(0.1, 0.9, n_half)) * slot
    half = rng.uniform(1.0, 1.2, n_half)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    return np.vstack([half, -half])


def smooth_samples(rng: np.random.Generator, n: int, modes: int = 6) -> np.ndarray:
    """Radii exp(sum of random pi-periodic modes with 1/k amplitudes) at n angles."""
    phi = np.arange(n) * math.pi / n
    k = np.arange(1, modes + 1)[:, None]
    amp = 0.06 * rng.normal(size=(modes, 1)) / k
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(modes, 1))
    return np.exp((amp * np.cos(2.0 * k * phi + phase)).sum(axis=0))


def random_pd_matrix(rng: np.random.Generator) -> PDMatrix2:
    a = rng.normal(size=(2, 2))
    s = a @ a.T + 0.05 * np.eye(2)
    return PDMatrix2(s[0, 0], s[0, 1], s[1, 1])


def random_incone_params(rng: np.random.Generator, max_ecc: float = 0.85) -> EllipseParams:
    a2 = math.exp(rng.uniform(-0.8, 0.8))
    u = rng.uniform(0.0, max_ecc)
    t = rng.uniform(0.0, 2.0 * math.pi)
    return EllipseParams(a2, a2 * u * math.cos(t), a2 * u * math.sin(t))


def random_invertible_map(rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(m)) >= 0.3:
            return m


def point_in_polygon(vertices: np.ndarray, point) -> bool:
    """Winding-number membership test, independent of the gauge machinery."""
    v = np.asarray(vertices, dtype=float) - np.asarray(point, dtype=float)
    ang = np.arctan2(v[:, 1], v[:, 0])
    step = np.diff(np.append(ang, ang[0]))
    step = np.mod(step + math.pi, 2.0 * math.pi) - math.pi
    return abs(step.sum()) > math.pi  # winding +-1 vs 0


def ray_radius_by_bisection(vertices: np.ndarray, angle: float, hi: float = 100.0) -> float:
    """Boundary radius along a ray, found by bisecting point-in-polygon."""
    d = np.array([math.cos(angle), math.sin(angle)])
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if point_in_polygon(vertices, mid * d):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def polygon_deviation_sup(vertices: np.ndarray, params: EllipseParams) -> float:
    """sup of |f - g| = |1/2 log p'Mp| over the polygon's boundary, from its vertices alone.

    With M = [[a2 + b2, c2], [c2, a2 - b2]], p'Mp is a convex quadratic along
    each edge p = v + s*d, so its maximum over the boundary is at a vertex
    and its minimum at one of the edge minimizers s = clip(-v'Md / d'Md, 0, 1).
    """
    v = np.asarray(vertices, dtype=float)
    d = np.roll(v, -1, axis=0) - v
    m = np.array([[params.a2 + params.b2, params.c2], [params.c2, params.a2 - params.b2]])
    s = np.clip(-np.einsum("ij,jk,ik->i", v, m, d) / np.einsum("ij,jk,ik->i", d, m, d), 0.0, 1.0)
    p = np.vstack([v, v + s[:, None] * d])
    return float(np.abs(0.5 * np.log(np.einsum("ij,jk,ik->i", p, m, p))).max())

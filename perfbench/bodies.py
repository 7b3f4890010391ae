"""Seeded benchmark bodies.

Every body is built from the workload seed alone, so the same seed gives the
same gauges and descriptor files.  Each entry carries the closed-form d2 where
one exists; the output checks compare against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull

from bmplane import EllipseParams, circle_gauge, ellipse_gauge, lp_gauge, polygon_gauge, sample_gauge
from bmplane.gauge import Gauge


@dataclass(frozen=True)
class Body:
    name: str
    kind: str
    size: int  # vertex count, sample count, or 0 for analytic bodies
    gauge: Gauge
    d2_exact: Optional[float]  # closed-form distance, None when unknown


def _regular_polygon(n: int, phase: float = 0.0) -> np.ndarray:
    ang = phase + 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _star_polygon(rng: np.random.Generator, n_half: int) -> np.ndarray:
    """Symmetric star polygon: one jittered angle per slot, radii in [1, 1.2]."""
    slot = math.pi / n_half
    ang = (np.arange(n_half) + rng.uniform(0.1, 0.9, n_half)) * slot
    half = rng.uniform(1.0, 1.2, n_half)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    return np.vstack([half, -half])


def _convex_polygon(rng: np.random.Generator, n_half: int = 8) -> np.ndarray:
    pts = rng.normal(size=(n_half, 2))
    pts = np.vstack([pts, -pts])
    return pts[ConvexHull(pts).vertices]


def _rough_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Independent radii in [1, 1.2]: an extremum near every sample."""
    return 1.0 + 0.2 * rng.random(n)


def _smooth_samples(rng: np.random.Generator, n: int, modes: int = 6) -> np.ndarray:
    """Radii exp(sum of random pi-periodic modes with 1/k amplitudes)."""
    phi = np.arange(n) * math.pi / n
    k = np.arange(1, modes + 1)[:, None]
    amp = 0.06 * rng.normal(size=(modes, 1)) / k
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(modes, 1))
    return np.exp((amp * np.cos(2.0 * k * phi + phase)).sum(axis=0))


def _lp(p: float) -> Body:
    return Body(f"l{p:g}", "lp", 0, lp_gauge(p), 2.0 ** abs(1.0 / p - 0.5))


def _polygon(name: str, vertices: np.ndarray, d2_exact: Optional[float]) -> Body:
    return Body(name, "polygon", len(vertices), polygon_gauge(vertices), d2_exact)


def corpus_bodies(seed: int) -> list[Body]:
    """Small bodies on which the LP stage dominates a solve."""
    rng = np.random.default_rng([seed, 1])
    hexagon = _regular_polygon(6, math.pi / 6.0) * (2.0 / math.sqrt(3.0))
    return [
        Body("circle", "circle", 0, circle_gauge(), 1.0),
        Body("square", "lp", 0, lp_gauge(math.inf), math.sqrt(2.0)),
        _lp(1.5),
        _lp(3.0),
        _polygon("hexagon", hexagon, 2.0 / math.sqrt(3.0)),
        Body("ellipse", "ellipse", 0, ellipse_gauge(EllipseParams(1.0, 0.2, 0.1)), 1.0),
        Body("samples128", "samples", 128, sample_gauge(_smooth_samples(rng, 128)), None),
        Body("pchip128", "samples", 128, sample_gauge(_smooth_samples(rng, 128), interp="pchip"), None),
        _polygon("star20", _star_polygon(rng, 10), None),
        _polygon("convex", _convex_polygon(rng), None),
    ]


def large_bodies(seed: int) -> list[Body]:
    """Bodies whose kinks reach or exceed the default 4096-angle grid."""
    rng = np.random.default_rng([seed, 2])
    return [
        _polygon("star2000", _star_polygon(rng, 1000), None),
        _polygon("regular2000", _regular_polygon(2000), 1.0 / math.cos(math.pi / 2000.0)),
        Body("samples4096", "samples", 4096, sample_gauge(_rough_samples(rng, 4096)), None),
        Body("samples8192", "samples", 8192, sample_gauge(_rough_samples(rng, 8192)), None),
    ]


def oracle_bodies(seed: int) -> list[Body]:
    """Bodies with a closed-form d2: some fixed, some seeded lp, ellipse or turned polygon."""
    rng = np.random.default_rng([seed, 3])
    p = rng.uniform(1.2, 4.0)
    a2 = rng.uniform(0.5, 2.0)
    r, t = a2 * rng.uniform(0.1, 0.3), rng.uniform(0.0, 2.0 * math.pi)
    square = _regular_polygon(4, rng.uniform(0.0, math.pi)) * rng.uniform(0.5, 2.0)
    hexagon = _regular_polygon(6, rng.uniform(0.0, math.pi)) * rng.uniform(0.5, 2.0)
    return [
        Body("circle", "circle", 0, circle_gauge(), 1.0),
        Body("square", "lp", 0, lp_gauge(math.inf), math.sqrt(2.0)),
        Body("ellipse", "ellipse", 0, ellipse_gauge(EllipseParams(1.0, 0.2, 0.1)), 1.0),
        _lp(3.0),
        Body("lp_seeded", "lp", 0, lp_gauge(p), 2.0 ** abs(1.0 / p - 0.5)),
        Body("ellipse_seeded", "ellipse", 0,
             ellipse_gauge(EllipseParams(a2, r * math.cos(t), r * math.sin(t))), 1.0),
        _polygon("square_turned", square, math.sqrt(2.0)),
        _polygon("hexagon_turned", hexagon, 2.0 / math.sqrt(3.0)),
    ]


def cli_bodies(seed: int) -> list[Body]:
    """The two descriptors the command-line workload solves and verifies."""
    del seed  # fixed bodies: the CLI workload measures process cost, not shape
    return [
        Body("circle", "circle", 0, circle_gauge(), 1.0),
        Body("square", "lp", 0, lp_gauge(math.inf), math.sqrt(2.0)),
    ]

"""Origin-centered ellipses in polar form, their matrix representations, and
the interpolation/perturbation constructions used by the minimax solver.

An ellipse is stored through the coefficients of its inverse squared radius,

    rho(phi)^-2 = a2 + b2*cos(2*phi) + c2*sin(2*phi),

which is a genuine ellipse exactly when the triple lies in the open cone
a2 > 0, a2^2 > b2^2 + c2^2.  The logarithm g = log(rho) = -0.5*log(...) is
the object the solver approximates with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import BadAngleOrder, LeftCone, NotInCone, NotPD

__all__ = [
    "EllipseParams",
    "OutOfConeTriple",
    "StdEllipseParams",
    "PDMatrix2",
    "in_cone",
    "trig_eval",
    "trig_slope",
    "trig_to_log_slope",
    "log_to_trig_slope",
    "interpolate_three_points",
    "interpolate_tangent",
    "three_point_matrix",
    "tangent_matrix",
    "perturb",
    "pd_sqrt",
    "pd_sqrt_inverse",
    "params_to_matrix",
    "matrix_to_params",
]


def in_cone(a2: float, b2: float, c2: float) -> bool:
    """True when the triple encodes a genuine ellipse; both inequalities are strict."""
    return a2 > 0.0 and a2 * a2 - (b2 * b2 + c2 * c2) > 0.0


def trig_eval(a: float, b: float, c: float, phi):
    """a + b*cos(2*phi) + c*sin(2*phi), scalar or vectorized in phi."""
    phi = np.asarray(phi, dtype=float)
    out = a + b * np.cos(2.0 * phi) + c * np.sin(2.0 * phi)
    return out if out.ndim else float(out)


def trig_slope(a: float, b: float, c: float, phi):
    """Derivative of the trig form: -2b*sin(2*phi) + 2c*cos(2*phi)."""
    phi = np.asarray(phi, dtype=float)
    out = -2.0 * b * np.sin(2.0 * phi) + 2.0 * c * np.cos(2.0 * phi)
    return out if out.ndim else float(out)


def trig_to_log_slope(value: float, slope: float) -> float:
    """Slope of g = -0.5*log(R) from the value and slope of R."""
    return -0.5 * slope / value


def log_to_trig_slope(value: float, log_slope: float) -> float:
    """Slope of R from its value and the slope of g = -0.5*log(R)."""
    return -2.0 * log_slope * value


@dataclass(frozen=True)
class EllipseParams:
    """Coefficient triple of rho^-2; always strictly inside the cone."""

    a2: float
    b2: float
    c2: float

    def __post_init__(self):
        object.__setattr__(self, "a2", float(self.a2))
        object.__setattr__(self, "b2", float(self.b2))
        object.__setattr__(self, "c2", float(self.c2))
        if not np.isfinite([self.a2, self.b2, self.c2]).all():
            raise NotInCone(f"non-finite triple {(self.a2, self.b2, self.c2)}")
        if not in_cone(self.a2, self.b2, self.c2):
            raise NotInCone(
                f"triple ({self.a2!r}, {self.b2!r}, {self.c2!r}) violates "
                "a2 > 0, a2^2 > b2^2 + c2^2"
            )

    def triple(self) -> tuple[float, float, float]:
        return (self.a2, self.b2, self.c2)

    def trig(self, phi):
        """The inverse squared radius a2 + b2*cos(2*phi) + c2*sin(2*phi)."""
        return trig_eval(self.a2, self.b2, self.c2, phi)

    def rho(self, phi):
        """Polar radius of the ellipse boundary, scalar or vectorized."""
        return self.trig(phi) ** -0.5

    def log_rho(self, phi):
        """g(phi) = log(rho) = -0.5*log(a2 + b2*cos(2*phi) + c2*sin(2*phi))."""
        return -0.5 * np.log(self.trig(phi))

    def scaled(self, factor: float) -> "EllipseParams":
        """Triple scaled by a positive factor; rho scales by factor^-1/2."""
        return EllipseParams(self.a2 * factor, self.b2 * factor, self.c2 * factor)

    def to_std(self) -> "StdEllipseParams":
        """Standard form (a, b', theta) with rho^-2 = a + b'*cos(2*(phi-theta))."""
        bprime = math.hypot(self.b2, self.c2)
        if bprime == 0.0:
            theta = 0.0
        else:
            theta = 0.5 * math.atan2(self.c2, self.b2) % math.pi
        return StdEllipseParams(self.a2, bprime, theta)

    def to_matrix(self) -> "PDMatrix2":
        return params_to_matrix(self)


@dataclass(frozen=True)
class OutOfConeTriple:
    """Raw solution of an interpolation system that left the cone.

    The linear solve always succeeds; this marker carries the coefficients so
    the caller can inspect how far outside the cone the data forced them.
    """

    a2: float
    b2: float
    c2: float

    def triple(self) -> tuple[float, float, float]:
        return (self.a2, self.b2, self.c2)

    def trig(self, phi):
        return trig_eval(self.a2, self.b2, self.c2, phi)


InterpolationResult = Union[EllipseParams, OutOfConeTriple]


@dataclass(frozen=True)
class StdEllipseParams:
    """Standard-form chart (a, b', theta): rho^-2 = a + b'*cos(2*(phi-theta))."""

    a: float
    bprime: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "bprime", float(self.bprime))
        object.__setattr__(self, "theta", float(self.theta))
        if not (self.a > self.bprime >= 0.0):
            raise NotInCone(f"need a > b' >= 0, got a={self.a!r} b'={self.bprime!r}")
        if not (0.0 <= self.theta < math.pi):
            raise NotInCone(f"theta must lie in [0, pi), got {self.theta!r}")

    def to_params(self) -> EllipseParams:
        return EllipseParams(
            self.a,
            self.bprime * math.cos(2.0 * self.theta),
            self.bprime * math.sin(2.0 * self.theta),
        )

    def semi_axes(self) -> tuple[float, float]:
        """(radius along theta, radius along theta + pi/2)."""
        return ((self.a + self.bprime) ** -0.5, (self.a - self.bprime) ** -0.5)


@dataclass(frozen=True)
class PDMatrix2:
    """Symmetric positive definite 2x2 matrix."""

    m11: float
    m12: float
    m22: float

    def __post_init__(self):
        object.__setattr__(self, "m11", float(self.m11))
        object.__setattr__(self, "m12", float(self.m12))
        object.__setattr__(self, "m22", float(self.m22))
        if not np.isfinite([self.m11, self.m12, self.m22]).all():
            raise NotPD("non-finite entries")
        if self.m11 <= 0.0 or self.det() <= 0.0:
            raise NotPD(
                f"[[{self.m11}, {self.m12}], [{self.m12}, {self.m22}]] "
                "is not positive definite"
            )

    @staticmethod
    def from_array(m) -> "PDMatrix2":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise NotPD(f"expected 2x2 array, got shape {m.shape}")
        if abs(m[0, 1] - m[1, 0]) > 1e-9 * (1.0 + abs(m[0, 1])):
            raise NotPD("matrix is not symmetric")
        return PDMatrix2(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m12, self.m22]])

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m12

    def trace(self) -> float:
        return self.m11 + self.m22

    def inverse(self) -> "PDMatrix2":
        d = self.det()
        return PDMatrix2(self.m22 / d, -self.m12 / d, self.m11 / d)

    def square(self) -> "PDMatrix2":
        return PDMatrix2(
            self.m11 * self.m11 + self.m12 * self.m12,
            self.m12 * (self.m11 + self.m22),
            self.m12 * self.m12 + self.m22 * self.m22,
        )

    def apply(self, xy) -> np.ndarray:
        """Matrix-vector product; accepts shape (2,) or (n, 2)."""
        xy = np.asarray(xy, dtype=float)
        return xy @ self.as_array().T

    def operator_norm(self) -> float:
        """Largest eigenvalue (spectral norm of an SPD matrix)."""
        t, d = self.trace(), self.det()
        return 0.5 * (t + math.sqrt(max(t * t - 4.0 * d, 0.0)))


def pd_sqrt(s: PDMatrix2) -> PDMatrix2:
    """Unique SPD square root, via the closed 2x2 form (S + sqrt(det)*I)/norm."""
    root_det = math.sqrt(s.det())
    scale = math.sqrt(s.trace() + 2.0 * root_det)
    return PDMatrix2(
        (s.m11 + root_det) / scale,
        s.m12 / scale,
        (s.m22 + root_det) / scale,
    )


def pd_sqrt_inverse(s: PDMatrix2) -> PDMatrix2:
    """Inverse of the SPD square root: the unique SPD R with R^-2 = S."""
    return pd_sqrt(s).inverse()


def params_to_matrix(e: EllipseParams) -> PDMatrix2:
    """The SPD operator mapping the unit circle onto the ellipse of ``e``.

    The ellipse is the level set x^t M x = 1 with M = [[a2+b2, c2], [c2, a2-b2]],
    so the operator is the inverse SPD square root of M.
    """
    m = PDMatrix2(e.a2 + e.b2, e.c2, e.a2 - e.b2)
    return pd_sqrt_inverse(m)


def matrix_to_params(t: PDMatrix2) -> EllipseParams:
    """Inverse of params_to_matrix: read the trig coefficients off M = T^-2."""
    m = t.square().inverse()
    a1, b1, c1 = m.m11, m.m12, m.m22
    return EllipseParams(0.5 * (a1 + c1), 0.5 * (a1 - c1), b1)


def three_point_matrix(phi1: float, phi2: float, phi3: float) -> np.ndarray:
    """Collocation matrix of the trig form at three angles."""
    phis = np.array([phi1, phi2, phi3], dtype=float)
    return np.column_stack([np.ones(3), np.cos(2.0 * phis), np.sin(2.0 * phis)])


def tangent_matrix(phi1: float, phi2: float) -> np.ndarray:
    """Collocation matrix for value+slope at phi1 and value at phi2."""
    return np.array(
        [
            [1.0, math.cos(2.0 * phi1), math.sin(2.0 * phi1)],
            [0.0, -2.0 * math.sin(2.0 * phi1), 2.0 * math.cos(2.0 * phi1)],
            [1.0, math.cos(2.0 * phi2), math.sin(2.0 * phi2)],
        ]
    )


def _classify(a2: float, b2: float, c2: float) -> InterpolationResult:
    if in_cone(a2, b2, c2):
        return EllipseParams(a2, b2, c2)
    return OutOfConeTriple(a2, b2, c2)


def interpolate_three_points(
    phi1: float,
    phi2: float,
    phi3: float,
    r1: float,
    r2: float,
    r3: float,
) -> InterpolationResult:
    """Unique trig triple with R(phi_i) = r_i for phi1 < phi2 < phi3 < phi1 + pi.

    The collocation determinant is 4*sin(phi2-phi1)*sin(phi3-phi1)*sin(phi3-phi2),
    strictly positive under the ordering precondition, so the solve never fails.
    Triples that land outside the cone are returned as OutOfConeTriple.
    """
    if not (phi1 < phi2 < phi3 < phi1 + math.pi):
        raise BadAngleOrder(
            f"need phi1 < phi2 < phi3 < phi1 + pi, got {(phi1, phi2, phi3)}"
        )
    sol = np.linalg.solve(three_point_matrix(phi1, phi2, phi3), [r1, r2, r3])
    return _classify(*sol)


def interpolate_tangent(
    phi1: float,
    r1: float,
    r1_slope: float,
    phi2: float,
    r2: float,
) -> InterpolationResult:
    """Trig triple matching value+slope of R at phi1 and value at phi2.

    Inputs are value and slope of the trig form itself; convert from the log
    scale with log_to_trig_slope if needed.  Determinant 4*sin^2(phi2-phi1).
    """
    gap = abs(phi2 - phi1)
    if not (0.0 < gap < math.pi):
        raise BadAngleOrder(f"need 0 < |phi1 - phi2| < pi, got {gap}")
    sol = np.linalg.solve(tangent_matrix(phi1, phi2), [r1, r1_slope, r2])
    return _classify(*sol)


def perturb(e: EllipseParams, alpha: float, beta: float, t: float) -> EllipseParams:
    """Ellipse agreeing with ``e`` at alpha and beta, pushed down by t at the midpoint.

    The result g_t satisfies g_t(alpha) = g(alpha), g_t(beta) = g(beta) and
    g_t((alpha+beta)/2) = g((alpha+beta)/2) - t; consequently g_t < g on
    (alpha, beta) and g_t > g on (beta, alpha + pi).
    """
    if not (alpha < beta < alpha + math.pi):
        raise BadAngleOrder(f"need alpha < beta < alpha + pi, got {(alpha, beta)}")
    if t < 0.0:
        raise ValueError(f"perturbation size must be nonnegative, got {t}")
    if t == 0.0:
        return e
    gamma = 0.5 * (alpha + beta)
    rhs = [e.trig(alpha), math.exp(2.0 * t) * e.trig(gamma), e.trig(beta)]
    sol = np.linalg.solve(three_point_matrix(alpha, gamma, beta), rhs)
    if not in_cone(*sol):
        raise LeftCone(
            f"perturbation t={t} pushes {e.triple()} out of the cone; shrink t"
        )
    return EllipseParams(*sol)

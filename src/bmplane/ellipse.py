"""Origin-centered ellipses in polar form and their matrix representations.

An ellipse is stored through the coefficients of its inverse squared radius,

    rho(phi)^-2 = a2 + b2*cos(2*phi) + c2*sin(2*phi),

which is a genuine ellipse exactly when the triple lies in the open cone
a2 > |(b2, c2)|, the one rule ``in_cone`` tests.  The logarithm
g = log(rho) = -0.5*log(...) is the object the solver approximates with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInCone, NotPD

__all__ = [
    "EllipseParams",
    "StdEllipseParams",
    "PDMatrix2",
    "in_cone",
    "pd_sqrt",
]


def in_cone(a2: float, b2: float, c2: float) -> bool:
    """True when a finite triple encodes a genuine ellipse: a2 > |(b2, c2)|.

    a2 - |(b2, c2)| is the least of rho^-2 over all angles, so this says rho^-2 > 0
    everywhere.  ``math.hypot`` neither overflows nor underflows, and ``to_std`` takes
    its b' from the same ``hypot``, so every accepted triple has a > b' >= 0 there.
    """
    return a2 > math.hypot(b2, c2)


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
        if not all(map(math.isfinite, (self.a2, self.b2, self.c2))):
            raise NotInCone(f"non-finite triple {(self.a2, self.b2, self.c2)}")
        if not in_cone(self.a2, self.b2, self.c2):
            raise NotInCone(
                f"triple ({self.a2!r}, {self.b2!r}, {self.c2!r}) violates a2 > hypot(b2, c2)"
            )

    def triple(self) -> tuple[float, float, float]:
        return (self.a2, self.b2, self.c2)

    def trig(self, phi):
        """The inverse squared radius a2 + b2*cos(2*phi) + c2*sin(2*phi)."""
        phi = np.asarray(phi, dtype=float)
        out = self.a2 + self.b2 * np.cos(2.0 * phi) + self.c2 * np.sin(2.0 * phi)
        return out if out.ndim else float(out)

    def matrix(self) -> np.ndarray:
        """The form M = [[a2 + b2, c2], [c2, a2 - b2]]: p'Mp = rho^-2 at p = (cos, sin)."""
        return np.array([[self.a2 + self.b2, self.c2], [self.c2, self.a2 - self.b2]])

    def scaled(self, factor: float) -> "EllipseParams":
        """Triple scaled by a positive factor; rho scales by factor^-1/2."""
        return EllipseParams(self.a2 * factor, self.b2 * factor, self.c2 * factor)

    def to_std(self) -> "StdEllipseParams":
        """Standard form (a, b', theta) with rho^-2 = a + b'*cos(2*(phi-theta))."""
        bprime = math.hypot(self.b2, self.c2)
        theta = 0.5 * math.atan2(self.c2, self.b2) % math.pi if bprime else 0.0
        # an angle just below 0 reduces to pi by rounding: that is theta 0
        return StdEllipseParams(self.a2, bprime, 0.0 if theta == math.pi else theta)


@dataclass(frozen=True)
class StdEllipseParams:
    """Standard-form chart (a, b', theta): rho^-2 = a + b'*cos(2*(phi-theta)), with
    a > b' >= 0 and 0 <= theta < pi when it comes from ``EllipseParams.to_std``."""

    a: float
    bprime: float
    theta: float

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
        if not all(map(math.isfinite, (self.m11, self.m12, self.m22))):
            raise NotPD("non-finite entries")
        if self.m11 <= 0.0 or self._scaled()[4] <= 0.0:
            raise NotPD(
                f"[[{self.m11}, {self.m12}], [{self.m12}, {self.m22}]] "
                "is not positive definite"
            )

    @staticmethod
    def from_array(m) -> "PDMatrix2":
        """The matrix of a symmetric 2x2 array-like, its four entries read as floats."""
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise NotPD(f"expected 2x2 array, got shape {m.shape}")
        (m11, m12), (m21, m22) = m.tolist()
        if abs(m12 - m21) > 1e-9 * (1.0 + abs(m12)):
            raise NotPD("matrix is not symmetric")
        return PDMatrix2(m11, 0.5 * (m12 + m21), m22)

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m12, self.m22]])

    def _scaled(self) -> tuple[int, float, float, float, float]:
        """(k, m11, m12 and m22 over 4^k, their det), for the power of four that brings the
        largest entry into [0.5, 2), exactly: the det of the unscaled entries over- or
        underflows on the form of a body scaled past 1e+-77."""
        k = math.frexp(max(abs(self.m11), abs(self.m12), abs(self.m22)))[1] // 2
        a, b, c = (math.ldexp(v, -2 * k) for v in (self.m11, self.m12, self.m22))
        return k, a, b, c, a * c - b * b

    def inverse(self) -> "PDMatrix2":
        """The inverse of S/4^k over 4^k (``_scaled``)."""
        k, a, b, c, d = self._scaled()
        return PDMatrix2(*(math.ldexp(v / d, -2 * k) for v in (c, -b, a)))

    def apply(self, xy) -> np.ndarray:
        """Matrix-vector product; accepts shape (2,) or (n, 2)."""
        xy = np.asarray(xy, dtype=float)
        return xy @ self.as_array().T


def pd_sqrt(s: PDMatrix2) -> PDMatrix2:
    """Unique SPD square root, via the closed 2x2 form (S + sqrt(det)*I)/norm, taken of
    S/4^k (``PDMatrix2._scaled``) and times 2^k."""
    k, a, b, c, d = s._scaled()
    root_det = math.sqrt(d)
    scale = math.ldexp(math.sqrt(a + c + 2.0 * root_det), -k)
    return PDMatrix2((a + root_det) / scale, b / scale, (c + root_det) / scale)

"""The paper's perturbation construction, and the matrix reference computations of the tests.

The paper proves its characterisation of the optimal ellipse by pushing an ellipse down
between two angles: the result agrees with it at both and lies inside it between them and
outside it beyond.  bmplane certifies the optimum another way (the exchange's four-point
alternance and ``verify_certificate``'s de la Vallee Poussin bracket), so no solve uses the
construction; acceptance criteria 10 and 11 and the perturbation tests check it here.
Criterion 12 checks ``pd_sqrt`` against ``square`` at a tolerance scaled by ``operator_norm``.
"""

from __future__ import annotations

import math

import numpy as np

from bmplane.ellipse import EllipseParams, PDMatrix2, in_cone


class BadAngleOrder(ValueError):
    """Interpolation angles do not satisfy the strict ordering inside a pi-window."""


class LeftCone(ValueError):
    """A perturbation step was large enough to push the triple out of the cone."""


def log_rho(e: EllipseParams, phi):
    """g(phi) = log(rho) = -0.5*log(a2 + b2*cos(2*phi) + c2*sin(2*phi))."""
    return -0.5 * np.log(e.trig(phi))


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


def square(s: PDMatrix2) -> PDMatrix2:
    """S @ S."""
    return PDMatrix2(
        s.m11 * s.m11 + s.m12 * s.m12,
        s.m12 * (s.m11 + s.m22),
        s.m12 * s.m12 + s.m22 * s.m22,
    )


def operator_norm(s: PDMatrix2) -> float:
    """Largest eigenvalue (spectral norm of an SPD matrix), that of S/4^k
    (``PDMatrix2._scaled``) times 4^k."""
    k, a, _, c, d = s._scaled()
    t = a + c
    return math.ldexp(0.5 * (t + math.sqrt(max(t * t - 4.0 * d, 0.0))), 2 * k)

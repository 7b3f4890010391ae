import math

import numpy as np
import pytest

from bmplane.ellipse import EllipseParams, PDMatrix2, in_cone, pd_sqrt
from bmplane.errors import NotInCone, NotPD
from bmplane.gauge import ellipse_gauge

import bodies
from perturbation import (
    BadAngleOrder,
    LeftCone,
    log_rho,
    operator_norm,
    perturb,
    square,
    tangent_matrix,
    three_point_matrix,
)


class TestParams:
    def test_rho_values(self):
        # the polar radius of the triple's ellipse, as its gauge evaluates it
        assert ellipse_gauge(EllipseParams(1, 0, 0)).eval(0.73) == pytest.approx(1.0)
        assert ellipse_gauge(EllipseParams(0.5, 0, 0)).eval(-1.1) == pytest.approx(math.sqrt(2.0))
        assert ellipse_gauge(EllipseParams(1, 0.3, 0)).eval(0.0) == pytest.approx(1.3**-0.5)
        assert ellipse_gauge(EllipseParams(1, 0, 0)).log_eval(0.2) == 0.0

    def test_cone_enforced(self):
        with pytest.raises(NotInCone):
            EllipseParams(1.0, 0.8, 0.7)
        with pytest.raises(NotInCone, match=r"^non-finite triple \(1\.0, nan, 0\.0\)$"):
            EllipseParams(1.0, math.nan, 0.0)
        with pytest.raises(NotInCone, match=r"^non-finite triple \(inf, 0\.0, 0\.0\)$"):
            EllipseParams(math.inf, 0.0, 0.0)
        with pytest.raises(NotInCone):
            EllipseParams(-1.0, 0.0, 0.0)
        with pytest.raises(NotInCone):
            EllipseParams(1.0, 1.0, 0.0)

    def test_std_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            e = bodies.random_incone_params(rng)
            std = e.to_std()
            assert std.a == e.a2
            assert std.a > std.bprime >= 0.0
            assert 0.0 <= std.theta < math.pi
            # a + b'*cos(2*(phi - theta)) is the triple (a, b'*cos 2theta, b'*sin 2theta)
            two_theta = 2.0 * std.theta
            back = (std.a, std.bprime * math.cos(two_theta), std.bprime * math.sin(two_theta))
            assert back == pytest.approx(e.triple(), abs=1e-14)

    def test_std_circle_theta_zero(self):
        assert EllipseParams(2.0, 0.0, 0.0).to_std().theta == 0.0

    def test_cone_edge_is_one_rule(self):
        # EllipseParams accepts a triple exactly when a2 > hypot(b2, c2), the b' of to_std,
        # so every accepted triple has a > b' >= 0 in the standard chart
        rng = np.random.default_rng(4)
        edge = (0.5476477220476769, -0.5397953050481846, 0.09240701332662364)
        draws = [edge]
        for scale in (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300):
            for k in range(13, 18):
                for _ in range(40):
                    t = rng.uniform(0.0, 2.0 * math.pi)
                    r = scale * (1.0 - rng.uniform(0.1, 1.0) * 10.0**-k)
                    draws.append((scale, r * math.cos(t), r * math.sin(t)))
        accepted = 0
        for a2, b2, c2 in draws:
            inside = a2 > math.hypot(b2, c2)
            try:
                std = EllipseParams(a2, b2, c2).to_std()
            except NotInCone:
                assert not inside, (a2, b2, c2)
                continue
            assert inside, (a2, b2, c2)
            assert std.a > std.bprime >= 0.0 and 0.0 <= std.theta < math.pi
            accepted += 1
        assert 0 < accepted < len(draws)
        with pytest.raises(NotInCone, match=r"violates a2 > hypot\(b2, c2\)$"):
            EllipseParams(*edge)

    @pytest.mark.parametrize("triple, inside", [
        ((math.inf, 1.0, 0.0), True),  # a2 = inf passes the comparison: EllipseParams refuses
        ((math.inf, math.inf, 0.0), False),
        ((1.0, math.inf, 0.0), False),
        ((1.0, 0.0, -math.inf), False),
        ((-math.inf, 0.0, 0.0), False),
        ((math.nan, 0.0, 0.0), False),
        ((1.0, math.nan, 0.0), False),
        ((1.0, 0.0, math.nan), False),
        ((math.inf, math.nan, 0.0), False),
    ])
    def test_in_cone_non_finite(self, triple, inside):
        assert in_cone(*triple) is inside
        with pytest.raises(NotInCone, match="^non-finite triple"):
            EllipseParams(*triple)

    @pytest.mark.parametrize("c2", [-1e-17, -1e-300, -5e-324])
    def test_tiny_negative_theta_is_zero(self, c2):
        # 0.5*atan2(c2, b2) is just below 0, and reduced mod pi it rounds to pi: that is theta 0
        std = EllipseParams(1.0, 0.2, c2).to_std()
        assert std.theta == 0.0 and math.copysign(1.0, std.theta) == 1.0
        assert std.bprime == 0.2


class TestMatrixLayer:
    def test_pd_sqrt_examples(self):
        assert pd_sqrt(PDMatrix2(1, 0, 1)).as_array() == pytest.approx(np.eye(2))
        assert pd_sqrt(PDMatrix2(4, 0, 9)).as_array() == pytest.approx(np.diag([2.0, 3.0]))
        r = pd_sqrt(PDMatrix2(2, 1, 2))
        assert r.as_array() == pytest.approx(
            np.array([[1.3660254037844386, 0.3660254037844386],
                      [0.3660254037844386, 1.3660254037844386]]), abs=1e-12)

    def test_pd_sqrt_roundtrip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            s = bodies.random_pd_matrix(rng)
            r = pd_sqrt(s)
            err = np.abs(square(r).as_array() - s.as_array()).max()
            assert err <= 1e-12 * max(1.0, operator_norm(s))
            ri = pd_sqrt(s).inverse()
            assert np.abs((r.as_array() @ ri.as_array()) - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_sqrt_and_inverse_at_extreme_scale(self, scale):
        # both work on the form over 4^k (``_scaled``): its det (about scale^2) would overflow
        # or underflow, and the results are the unit ones' scaled exactly
        s = PDMatrix2(4.0 * scale, 0.0, scale)
        assert pd_sqrt(s).as_array().tolist() == [[2.0 * math.sqrt(scale), 0.0],
                                                  [0.0, math.sqrt(scale)]]
        assert s.inverse().as_array() == pytest.approx(np.diag([0.25, 1.0]) / scale, rel=1e-15)
        s = PDMatrix2(2.0 * scale, scale, 2.0 * scale)
        assert square(pd_sqrt(s)).as_array() == pytest.approx(s.as_array(), rel=1e-15)
        assert s.inverse().as_array() @ s.as_array() == pytest.approx(np.eye(2), abs=1e-15)

    def test_sqrt_and_inverse_scale_by_powers_of_two(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = bodies.random_pd_matrix(rng)
            for e in (-150, 150):
                big = PDMatrix2(*(math.ldexp(v, 2 * e) for v in (s.m11, s.m12, s.m22)))
                root, inverse = pd_sqrt(s), s.inverse()
                assert pd_sqrt(big).as_array().tolist() == [
                    [math.ldexp(v, e) for v in row] for row in root.as_array().tolist()]
                assert big.inverse().as_array().tolist() == [
                    [math.ldexp(v, -2 * e) for v in row] for row in inverse.as_array().tolist()]

    def test_not_pd(self):
        with pytest.raises(NotPD):
            PDMatrix2(1.0, 2.0, 1.0)
        with pytest.raises(NotPD):
            PDMatrix2(-1.0, 0.0, -2.0)
        for entries in ((math.nan, 0.0, 1.0), (1.0, math.inf, 1.0), (1.0, 0.0, -math.inf)):
            with pytest.raises(NotPD, match="^non-finite entries$"):
                PDMatrix2(*entries)

    def test_matrix_maps_circle_to_ellipse(self):
        # the operator build_report takes: the inverse SPD root of M = [[a2+b2, c2], [c2, a2-b2]]
        rng = np.random.default_rng(3)
        e = bodies.random_incone_params(rng)
        t = pd_sqrt(PDMatrix2(e.a2 + e.b2, e.c2, e.a2 - e.b2)).inverse()
        ang = rng.uniform(0, 2 * math.pi, 32)
        pts = t.apply(np.column_stack([np.cos(ang), np.sin(ang)]))
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        assert np.hypot(pts[:, 0], pts[:, 1]) == pytest.approx(e.trig(phi) ** -0.5, rel=1e-12)


def _interpolate(matrix: np.ndarray, rhs) -> EllipseParams:
    """The trig triple that solves a collocation system."""
    return EllipseParams(*np.linalg.solve(matrix, rhs))


class TestInterpolation:
    def test_three_point_roundtrip(self):
        r = _interpolate(three_point_matrix(0.0, math.pi / 3, 2 * math.pi / 3), [1.3, 0.85, 0.85])
        assert r.triple() == pytest.approx((1.0, 0.3, 0.0), abs=1e-14)

    def test_constant_gives_circle(self):
        r = _interpolate(three_point_matrix(0.0, math.pi / 4, math.pi / 2), [1.0, 1.0, 1.0])
        assert r.triple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_reproduces_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            base = rng.uniform(-math.pi, math.pi)
            gaps = rng.uniform(0.05, 1.0, 2)
            if gaps.sum() >= math.pi - 0.05:
                continue
            phis = (base, base + gaps[0], base + gaps[0] + gaps[1])
            targets = rng.uniform(0.2, 3.0, 3)
            a2, b2, c2 = np.linalg.solve(three_point_matrix(*phis), targets)
            got = [a2 + b2 * math.cos(2 * p) + c2 * math.sin(2 * p) for p in phis]
            assert got == pytest.approx(list(targets), abs=1e-12 * max(targets))

    def test_determinant_identity(self):
        phis = (0.0, math.pi / 3, 2 * math.pi / 3)
        det = np.linalg.det(three_point_matrix(*phis))
        expect = 4 * math.sin(math.pi / 3) * math.sin(2 * math.pi / 3) * math.sin(math.pi / 3)
        assert det == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(3.0 * math.sqrt(3.0) / 2.0)

    def test_bad_order(self):
        e = EllipseParams(1.0, 0.0, 0.0)
        with pytest.raises(BadAngleOrder):
            perturb(e, 0.5, 0.4, 0.01)
        with pytest.raises(BadAngleOrder):
            perturb(e, 0.0, 4.0, 0.01)
        with pytest.raises(BadAngleOrder):
            perturb(e, 0.3, 0.3, 0.01)

    def test_tangent_examples(self):
        r = _interpolate(tangent_matrix(0.0, math.pi / 2), [1.3, 0.0, 0.7])
        assert r.triple() == pytest.approx((1.0, 0.3, 0.0), abs=1e-14)
        r = _interpolate(tangent_matrix(0.0, math.pi / 3), [1.0, 0.0, 1.0])
        assert r.triple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)

    def test_tangent_recovers_forward_data(self):
        # the middle row is the slope of the trig form, checked by a central difference
        e = EllipseParams(1.0, 0.2, 0.1)
        phi1, phi2 = math.pi / 4, math.pi / 4 + 1.1
        hstep = 1e-6
        slope = (e.trig(phi1 + hstep) - e.trig(phi1 - hstep)) / (2 * hstep)
        r = _interpolate(tangent_matrix(phi1, phi2), [e.trig(phi1), slope, e.trig(phi2)])
        assert r.triple() == pytest.approx(e.triple(), abs=1e-9)

    def test_tangent_determinant_identity(self):
        d = np.linalg.det(tangent_matrix(0.2, 1.3))
        assert d == pytest.approx(4 * math.sin(1.1) ** 2, abs=1e-12)


class TestPerturb:
    def test_hand_example(self):
        p = perturb(EllipseParams(1, 0, 0), 0.0, math.pi / 2, 0.1)
        assert p.triple() == pytest.approx((1.0, 0.0, math.exp(0.2) - 1.0), abs=1e-12)

    def test_zero_t_identity(self):
        e = EllipseParams(1.0, 0.2, 0.1)
        assert perturb(e, 0.3, 1.9, 0.0) is e

    def test_leaves_cone(self):
        with pytest.raises(LeftCone):
            perturb(EllipseParams(1, 0, 0), 0.0, math.pi / 2, 0.4)

    def test_matches_three_point_solve(self):
        # same construction through the collocation system at alpha, the midpoint and beta
        e = EllipseParams(1.0, -0.15, 0.25)
        alpha, beta, t = 0.4, 2.1, 0.07
        gamma = 0.5 * (alpha + beta)
        direct = _interpolate(
            three_point_matrix(alpha, gamma, beta),
            [e.trig(alpha), math.exp(2 * t) * e.trig(gamma), e.trig(beta)])
        p = perturb(e, alpha, beta, t)
        assert p.triple() == pytest.approx(direct.triple(), abs=1e-13)

    def test_interpolation_conditions(self):
        e = EllipseParams(1.0, 0.1, -0.2)
        alpha, beta, t = -0.2, 1.4, 0.05
        gamma = 0.5 * (alpha + beta)
        p = perturb(e, alpha, beta, t)
        assert log_rho(p, alpha) == pytest.approx(log_rho(e, alpha), abs=1e-12)
        assert log_rho(p, beta) == pytest.approx(log_rho(e, beta), abs=1e-12)
        assert log_rho(p, gamma) == pytest.approx(log_rho(e, gamma) - t, abs=1e-12)

    def test_sign_pattern_random(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 100:
            e = bodies.random_incone_params(rng, max_ecc=0.7)
            alpha = rng.uniform(-math.pi, math.pi)
            beta = alpha + rng.uniform(0.2, math.pi - 0.2)
            t = rng.uniform(1e-3, 0.02)
            try:
                p = perturb(e, alpha, beta, t)
            except LeftCone:
                continue
            inner = np.linspace(alpha, beta, 130)[1:-1]
            outer = np.linspace(beta, alpha + math.pi, 130)[1:-1]
            d_in = log_rho(p, inner) - log_rho(e, inner)
            d_out = log_rho(p, outer) - log_rho(e, outer)
            assert d_in.max() < 0.0
            assert d_out.min() > 0.0
            assert abs(log_rho(p, alpha) - log_rho(e, alpha)) < 1e-12
            assert abs(log_rho(p, beta) - log_rho(e, beta)) < 1e-12
            done += 1

import math

import numpy as np
import pytest

from bmplane import jsonio
from bmplane.errors import InputError
from bmplane.gauge import circle_gauge, lp_gauge
from bmplane.report import (
    SolveReport,
    build_report,
    render_svg,
    report_from_dict,
    report_to_dict,
    verify_theorem1,
)
from bmplane.solver import solve_uniform


@pytest.fixture(scope="module")
def square_report(solved_corpus):
    g, sol = solved_corpus["square"]
    return build_report(g, sol)


@pytest.fixture(scope="module")
def circle_report():
    g = circle_gauge()
    return build_report(g, solve_uniform(g))


class TestBuildReport:
    def test_circle(self, circle_report):
        r = circle_report
        assert r.d2 == pytest.approx(1.0, abs=1e-9)
        assert r.T_hat.as_array() == pytest.approx(np.eye(2), abs=1e-9)
        assert r.cone_condition_ok

    def test_square_geometry(self, square_report):
        r = square_report
        assert r.d2 == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert r.params_inscribed.triple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-6)
        assert r.T_hat.as_array() == pytest.approx(np.eye(2), abs=1e-6)
        assert r.T_tilde.as_array() == pytest.approx(np.eye(2), abs=1e-6)
        # extremal points at the vertices, contact points at edge midpoints
        assert r.x_points == pytest.approx(np.array([[1.0, 1.0], [-1.0, 1.0]]), abs=1e-4)
        assert r.y_points == pytest.approx(np.array([[0.0, 1.0], [-1.0, 0.0]]), abs=1e-4)
        assert r.cone_condition_ok

    def test_inverse_pair(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            r = build_report(g, sol)
            prod = r.T_hat.as_array() @ r.T_tilde.as_array()
            assert np.abs(prod - np.eye(2)).max() < 1e-10, name

    def test_point_norms_on_corpus(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            r = build_report(g, sol)
            tx = r.T_hat.apply(r.x_points)
            ty = r.T_hat.apply(r.y_points)
            assert np.hypot(tx[:, 0], tx[:, 1]) == pytest.approx(r.d2, abs=1e-6), name
            assert np.hypot(ty[:, 0], ty[:, 1]) == pytest.approx(1.0, abs=1e-6), name

    def test_operator_norm_is_d2(self, solved_corpus):
        # body_samples include the certificate and kink directions, so the
        # discrete max/min land exactly on the extremal and contact points
        for name, (g, sol) in solved_corpus.items():
            r = build_report(g, sol)
            pts = np.asarray(r.diagnostics["body_samples"])
            norms = np.hypot(*(r.T_hat.apply(pts).T))
            assert norms.max() == pytest.approx(r.d2, abs=1e-6), name
            assert norms.min() == pytest.approx(1.0, abs=1e-6), name


class TestVerifyTheorem:
    def test_corpus_passes(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            verdict = verify_theorem1(build_report(g, sol), tol=1e-6)
            assert verdict.passed, (name, verdict)

    def test_antipodal_relabeling(self, square_report):
        r = square_report
        flipped = SolveReport(
            **{**r.__dict__, "y_points": np.array([r.y_points[0], -r.y_points[1]])}
        )
        assert verify_theorem1(flipped, tol=1e-6).passed

    def test_radial_perturbation_fails_x_norm(self, square_report):
        r = square_report
        bad = SolveReport(
            **{**r.__dict__, "x_points": np.array([r.x_points[0] * 1.001, r.x_points[1]])}
        )
        verdict = verify_theorem1(bad, tol=1e-6)
        assert not verdict.x_norms_ok and not verdict.passed


class TestSerialization:
    def test_roundtrip(self, square_report):
        d = report_to_dict(square_report)
        back = report_from_dict(jsonio.loads(jsonio.dumps(d)))
        assert back.d2 == square_report.d2
        assert back.defect == square_report.defect
        assert back.params_uniform.triple() == square_report.params_uniform.triple()
        assert np.array_equal(back.x_points, square_report.x_points)
        assert back.certificate.angles() == square_report.certificate.angles()

    def test_seventeen_digit_floats(self):
        text = jsonio.dumps({"v": 1.0 / 3.0})
        assert "0.33333333333333331" in text
        assert jsonio.loads(text)["v"] == 1.0 / 3.0

    def test_malformed_reports(self, square_report):
        d = report_to_dict(square_report)
        bad = dict(d)
        del bad["certificate"]
        with pytest.raises(InputError):
            report_from_dict(bad)
        bad = dict(d)
        bad["params_uniform"] = [1.0, 2.0, 0.0]  # out of cone
        with pytest.raises(InputError):
            report_from_dict(bad)


class TestRender:
    def test_deterministic_bytes(self, square_report):
        assert render_svg(square_report, "body") == render_svg(square_report, "body")
        assert render_svg(square_report, "image") == render_svg(square_report, "image")

    def test_circle_layers_have_one_circle_each(self, circle_report):
        svg = render_svg(circle_report, "body")
        for layer in ("inscribed", "scaled"):
            seg = svg.split(f'<g id="{layer}">')[1].split("</g>")[0]
            assert seg.count("<circle") == 1
            assert seg.count("<ellipse") == 0

    def test_square_views(self, square_report):
        body = render_svg(square_report, "body")
        image = render_svg(square_report, "image")
        assert body.startswith("<?xml")
        assert '<g id="body">' in body and '<g id="points">' in body
        assert body.count("<rect") == 8  # 4 certificate points plus antipodes
        # for the square the optimal operator is the identity, so both views
        # draw the same geometry
        assert image == body

    def test_views_differ_for_generic_body(self, solved_corpus):
        g, sol = solved_corpus["convex"]
        r = build_report(g, sol)
        assert render_svg(r, "image") != render_svg(r, "body")

    def test_ellipse_body_uses_ellipse_elements(self, solved_corpus):
        g, sol = solved_corpus["ellipse"]
        svg = render_svg(build_report(g, sol), "body")
        assert svg.count("<ellipse") == 2  # inscribed and scaled copies

    def test_bad_view(self, square_report):
        with pytest.raises(InputError):
            render_svg(square_report, "top")

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from bmplane import jsonio
from bmplane.cli import main
from bmplane.errors import InputError, NoConvergence
from bmplane.gauge import circle_gauge, lp_gauge, polygon_gauge, sample_gauge
from bmplane.report import (
    _THEOREM1_TOL,
    TheoremVerdict,
    _boundary_samples,
    build_report,
    render_svg,
    report_from_dict,
    report_mismatches,
    report_to_dict,
    verify_theorem1,
)
from bmplane.solver import solve_uniform

import bodies


@pytest.fixture(scope="module")
def square_gauge(solved_corpus):
    return solved_corpus["square"][0]


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
        assert r.certificate.interleaved()

    def test_square_geometry(self, square_report):
        r = square_report
        assert r.d2 == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert r.params_inscribed.triple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-6)
        assert r.T_hat.as_array() == pytest.approx(np.eye(2), abs=1e-6)
        assert r.T_tilde.as_array() == pytest.approx(np.eye(2), abs=1e-6)
        # extremal points at the vertices, contact points at edge midpoints
        assert r.x_points == pytest.approx(np.array([[1.0, 1.0], [-1.0, 1.0]]), abs=1e-4)
        assert r.y_points == pytest.approx(np.array([[0.0, 1.0], [-1.0, 0.0]]), abs=1e-4)
        assert r.certificate.interleaved()

    def test_gauge_only_at_the_certificate_angles(self, solved_corpus, monkeypatch):
        # no grid after the solve: the body is evaluated at the four certificate angles
        for name, (g, sol) in solved_corpus.items():
            seen = []
            for attr in ("_radius", "_log_radius"):
                inner = getattr(g, attr)
                monkeypatch.setattr(
                    g, attr, lambda red, inner=inner: seen.append(np.copy(red)) or inner(red))
            build_report(g, sol)
            monkeypatch.undo()
            angles = np.concatenate(seen)
            assert angles.size <= 8, name  # _radius may call _log_radius, or the reverse
            assert np.unique(angles).size == 4, name

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

    def test_inscribed_triple_past_the_float_range_is_typed(self):
        # the square of vertex radius 1e-154 solves, but its uniform triple (a2 ~ 1.4e308)
        # scaled by d2 = sqrt 2 overflows
        g = polygon_gauge(1e-154 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
        sol = solve_uniform(g)
        message = (r"^the form of the inscribed triple, the uniform one times "
                   r"d2 = 1\.414213562373056, overflows: its a2 is 2\^1024\.154$")
        with pytest.raises(NoConvergence, match=message):
            build_report(g, sol)

    def test_operator_norm_is_d2(self, solved_corpus):
        # the rendered boundary includes the certificate and kink directions,
        # so the discrete max/min land exactly on the extremal and contact points
        for name, (g, sol) in solved_corpus.items():
            r = build_report(g, sol)
            pts = _boundary_samples(g, r.certificate)
            norms = np.hypot(*(r.T_hat.apply(pts).T))
            assert norms.max() == pytest.approx(r.d2, abs=1e-6), name
            assert norms.min() == pytest.approx(1.0, abs=1e-6), name


def _numpy_verify_theorem1(report) -> TheoremVerdict:
    """``verify_theorem1`` as it was on numpy arrays, the reference of the float one."""

    def cross(u, v) -> float:
        return float(u[0] * v[1] - u[1] * v[0])

    def sine(u, v):
        return cross(u, v) / (np.hypot(*u) * np.hypot(*v))

    tx = report.T_hat.apply(report.x_points)
    ty = report.T_hat.apply(report.y_points)
    x_norms = tuple(float(v) for v in np.hypot(tx[:, 0], tx[:, 1]))
    y_norms = tuple(float(v) for v in np.hypot(ty[:, 0], ty[:, 1]))
    x_ok = all(abs(v - report.d2) <= _THEOREM1_TOL for v in x_norms)
    y_ok = all(abs(v - 1.0) <= _THEOREM1_TOL for v in y_norms)
    x1, x2 = np.asarray(report.x_points, dtype=float)
    y1, y2 = np.asarray(report.y_points, dtype=float)
    base = math.atan2(x1[1], x1[0])
    window = [x1]
    for p in (y1, x2, y2):
        if not 0.0 <= (math.atan2(p[1], p[0]) - base) % (2.0 * math.pi) < math.pi:
            p = -p
        window.append(p)
    x1, y1, x2, y2 = window
    margins = (sine(x1, y1), sine(y1, x2), sine(x2, y2), sine(y2, -x1))
    cone_ok = bool(min(margins) > -1e-12)
    distinct_ok = bool(abs(sine(x1, x2)) > 1e-6 and abs(sine(y1, y2)) > 1e-6)
    passed = x_ok and y_ok and cone_ok and distinct_ok
    return TheoremVerdict(x_ok, y_ok, cone_ok, distinct_ok, passed, x_norms, y_norms)


def _theorem_mutations(r) -> dict:
    """The report and reports that break Theorem 1, or only seem to, each in one way."""
    (x1, x2), (y1, y2) = r.x_points, r.y_points
    minus = lambda p: (-p[0], -p[1])  # noqa: E731
    turned = (-y1[1], y1[0])  # y1 turned by pi/2, past x2 and out of cone{x1, x2}
    return {
        "as built": r,
        "x1 radially perturbed": replace(r, x_points=((1.001 * x1[0], 1.001 * x1[1]), x2)),
        "y2 antipodal": replace(r, y_points=(y1, minus(y2))),
        "x1 and y1 antipodal": replace(r, x_points=(minus(x1), x2), y_points=(minus(y1), y2)),
        "x and y swapped": replace(r, x_points=r.y_points, y_points=r.x_points),
        "x2 parallel to x1": replace(r, x_points=(x1, minus(x1))),
        "y1 out of its cone": replace(r, y_points=(turned, y2)),
    }


class TestVerifyTheorem:
    def test_corpus_passes(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            verdict = verify_theorem1(build_report(g, sol))
            assert verdict.passed, (name, verdict)

    def test_antipodal_relabeling(self, square_report):
        r = square_report
        flipped = replace(r, y_points=(r.y_points[0], tuple(-v for v in r.y_points[1])))
        assert verify_theorem1(flipped).passed

    def test_radial_perturbation_fails_x_norm(self, square_report):
        r = square_report
        bad = replace(r, x_points=(tuple(1.001 * v for v in r.x_points[0]), r.x_points[1]))
        verdict = verify_theorem1(bad)
        assert not verdict.x_norms_ok and not verdict.passed

    def test_point_at_the_origin_fails(self, square_report):
        # a report may hold the origin as a point; no angle is measured there, so the
        # verdict fails, whichever point it is
        r = square_report
        for key in ("x_points", "y_points"):
            for i in (0, 1):
                points = list(getattr(r, key))
                points[i] = (0.0, 0.0)
                verdict = verify_theorem1(replace(r, **{key: tuple(points)}))
                assert not verdict.cone_ok and not verdict.distinct_ok, (key, i, verdict)
                assert not verdict.passed

    def test_matches_numpy_reference(self, solved_corpus):
        # the flags are the numpy reference's; the norms within 4 ulps, as numpy's 2x2
        # product may fuse its multiply-adds and np.hypot round apart from math.hypot
        failing = set()
        for name, (g, sol) in solved_corpus.items():
            for mutation, report in _theorem_mutations(build_report(g, sol)).items():
                got, want = verify_theorem1(report), _numpy_verify_theorem1(report)
                flags = ("x_norms_ok", "y_norms_ok", "cone_ok", "distinct_ok", "passed")
                assert [getattr(got, f) for f in flags] == [getattr(want, f) for f in flags], (
                    name, mutation, got, want)
                for a, b in zip(got.x_norms + got.y_norms, want.x_norms + want.y_norms):
                    assert abs(a - b) <= 4.0 * math.ulp(b), (name, mutation, a, b)
                if not got.passed:
                    failing.add(mutation)
        # every mutation but the antipodal ones fails on some body
        assert failing == {"x1 radially perturbed", "x and y swapped", "x2 parallel to x1",
                           "y1 out of its cone"}

    def test_verdict_fields_are_python_values(self, square_report):
        # every flag is a bool, not numpy's, so a verdict dumps to JSON as it stands
        verdict = verify_theorem1(square_report)
        flags = (verdict.x_norms_ok, verdict.y_norms_ok, verdict.cone_ok, verdict.distinct_ok,
                 verdict.passed)
        assert all(type(v) is bool for v in flags)
        assert all(type(v) is float for v in verdict.x_norms + verdict.y_norms)
        assert json.loads(json.dumps(verdict.__dict__))["passed"] is True


class TestSerialization:
    def test_roundtrip(self, solved_corpus):
        # the shortest round-trip repr carries every float, so the report read back is the
        # report, field for field
        for name, (g, sol) in solved_corpus.items():
            r = build_report(g, sol)
            back = report_from_dict(jsonio.loads(jsonio.dumps(report_to_dict(r))))
            for f in fields(r):
                assert getattr(back, f.name) == getattr(r, f.name), (name, f.name)

    def test_reports_carry_no_boundary_samples(self, solved_corpus):
        # a report's size does not grow with its body's: 8192 rough samples stay under 4 KB
        big = sample_gauge(1.0 + 0.2 * np.random.default_rng(8192).random(8192))
        for name, (g, sol) in {**solved_corpus, "samples8192": (big, solve_uniform(big))}.items():
            text = jsonio.dumps(report_to_dict(build_report(g, sol)))
            assert "body_samples" not in text, name
            assert len(text.encode()) < 4096, name

    def test_seventeen_digit_floats(self):
        # reports written with 17 significant digits and whole floats as ints load to the
        # floats they were written from, and dump again in the shortest round-trip repr
        text = jsonio.dumps(jsonio.loads('{"v": 0.33333333333333331, "d2": 1}'))
        assert text == '{"v": 0.3333333333333333, "d2": 1}\n'
        assert jsonio.loads(text)["v"] == 1.0 / 3.0
        folder = Path(__file__).parent / "data" / "17-digit-reports"
        for name in ("square", "circle", "hexagon-turned"):
            stored = (folder / f"{name}.report.json").read_text()
            old = report_from_dict(jsonio.loads(stored))
            text = jsonio.dumps(report_to_dict(old))
            assert text != stored, name
            new = report_from_dict(jsonio.loads(text))
            # repr tells -0.0 from 0.0, so signs are compared too
            assert repr(report_to_dict(new)) == repr(report_to_dict(old)), name

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
        # a list of another length, or nested another way, is refused, not cut or kept
        for path, value in [
            (("certificate", "phi"), [0.1, 0.2, 0.3]),
            (("certificate", "psi"), [0.1]),
            (("certificate", "residuals"), [0.0] * 3),
            (("certificate", "residuals"), [0.0] * 5),
            (("certificate", "residuals"), [[0.0, 0.0]] * 2),
            (("d2",), [1.5]),
            (("params_uniform",), [[1.0, 0.0, 0.0]]),
            (("T_hat",), [1.0, 0.0, 0.0, 1.0]),
            (("T_hat",), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            (("x_points",), [[1.0, 0.0], [0.0, 1.0, 0.0]]),
            (("y_points",), [1.0, 0.0]),
        ]:
            bad = report_to_dict(square_report)
            *parents, last = path
            node = bad
            for key in parents:
                node = node[key]
            node[last] = value
            with pytest.raises(InputError, match="malformed report"):
                report_from_dict(bad)

    @pytest.mark.parametrize("key, value, message", [
        ("T_hat", [[1.0, 0.5], [0.0, 1.0]], "matrix is not symmetric"),
        ("x_points", [[math.nan, 0.0], [0.0, 1.0]], "x_points must be two finite planar points"),
        ("params_uniform", [math.nan, 0.0, 0.0], r"non-finite triple \(nan, 0\.0, 0\.0\)"),
    ], ids=["asymmetric-T_hat", "nan-x_points", "nan-params_uniform"])
    def test_invalid_values_are_malformed(self, square_report, key, value, message):
        bad = report_to_dict(square_report)
        bad[key] = value
        with pytest.raises(InputError, match=f"^malformed report: {message}$"):
            report_from_dict(bad)

    @pytest.mark.parametrize("path", [
        ("d2",), ("defect",), ("params_uniform", 0), ("T_hat", 0, 1), ("x_points", 1, 0),
        ("certificate", "phi", 0), ("certificate", "residuals", 3),
    ])
    def test_numbers_must_be_json_numbers(self, square_report, path):
        # a string, a boolean or null in place of a number is malformed, as in a body descriptor
        for bad_value in (lambda v: repr(v), lambda v: True, lambda v: None):
            bad = jsonio.loads(jsonio.dumps(report_to_dict(square_report)))
            *parents, last = path
            node = bad
            for key in parents:
                node = node[key]
            node[last] = bad_value(node[last])
            with pytest.raises(InputError, match="JSON numbers"):
                report_from_dict(bad)

    def test_missing_t_tilde_is_malformed(self, square_report, square_gauge, tmp_path, capsys):
        bad = report_to_dict(square_report)
        del bad["T_tilde"]
        with pytest.raises(InputError, match="T_tilde"):
            report_from_dict(bad)
        body, report = tmp_path / "square.json", tmp_path / "square.report.json"
        body.write_text(jsonio.dumps(square_gauge.descriptor()))
        report.write_text(jsonio.dumps(bad))
        for command in (["verify"], ["render", "--out", str(tmp_path / "square.svg")]):
            assert main(command + ["--input", str(body), "--report", str(report)]) == 2
            assert "T_tilde" in capsys.readouterr().err


class TestReportMismatches:
    def test_corpus_rebuilds_to_rounding(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            stored = jsonio.loads(jsonio.dumps(report_to_dict(build_report(g, sol))))
            assert report_mismatches(g, report_from_dict(stored), stored, 1e-12) == [], name

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_rescaled_points_differ_at_any_scale(self, scale):
        # |T_hat x| is unchanged, so only the rebuild sees this
        g = polygon_gauge(scale * bodies.hexagon_inradius_1())
        stored = report_to_dict(build_report(g, solve_uniform(g)))
        stored["T_hat"] = (np.array(stored["T_hat"]) / 1.1).tolist()
        for key in ("x_points", "y_points"):
            stored[key] = (1.1 * np.array(stored[key])).tolist()
        assert report_mismatches(g, report_from_dict(stored), stored, 1e-6) == [
            "T_hat", "x_points", "y_points"]

    def test_fields_on_one_side_only_differ(self, square_report, square_gauge):
        stored = report_to_dict(square_report)
        stored["certificate"]["one_sided_angle"] = stored["certificate"]["phi"][0]
        stored["one_sided_value"] = 2 * stored["defect"]
        assert report_mismatches(square_gauge, report_from_dict(stored), stored, 1e-6) == [
            "certificate.one_sided_angle", "one_sided_value"]

    def test_failed_rebuild_is_a_mismatch(self, square_report, square_gauge, tmp_path):
        # the phi1/psi1 swap, and each angle moved by 2 pi: the last four keep the
        # report's points, but the angles no longer interleave, so the rebuild raises
        swapped = report_to_dict(square_report)
        cert = swapped["certificate"]
        cert["phi"][0], cert["psi"][0] = cert["psi"][0], cert["phi"][0]
        reports = {"swap": swapped}
        for key in ("phi", "psi"):
            for i in (0, 1):
                turned = report_to_dict(square_report)
                turned["certificate"][key][i] += 2.0 * math.pi
                reports[f"{key}{i + 1} + 2pi"] = turned
        for name, stored in reports.items():
            [mismatch] = report_mismatches(square_gauge, report_from_dict(stored), stored, 1e-6)
            assert mismatch.startswith("rebuild (ConeViolation: "), name
        body, report = tmp_path / "square.json", tmp_path / "square.report.json"
        body.write_text(jsonio.dumps(square_gauge.descriptor()))
        report.write_text(jsonio.dumps(reports["psi1 + 2pi"]))
        assert main(["verify", "--input", str(body), "--report", str(report)]) == 1
        svg = tmp_path / "square.svg"
        assert main(["render", "--input", str(body), "--report", str(report),
                     "--out", str(svg)]) == 2
        assert not svg.exists()

    def test_older_reports_with_solver_counts_differ(self, square_report, square_gauge,
                                                      tmp_path, capsys):
        # reports once carried cone_condition_ok and diagnostics (the cone margins, the
        # image-plane points and, earlier still, the solve's counts); no rebuild has them,
        # so such a report is one-sided: verify fails it and render refuses it
        body = tmp_path / "square.json"
        body.write_text(jsonio.dumps(square_gauge.descriptor()))
        r = square_report
        for solver in (False, True):
            stored = report_to_dict(r)
            stored["cone_condition_ok"] = True
            stored["diagnostics"] = {
                "cone_margins": [0.7071067811865476] * 4,
                "u_points": (r.T_hat.apply(r.x_points) / r.d2).tolist(),
                "v_points": r.T_hat.apply(r.y_points).tolist(),
            }
            one_sided = ["cone_condition_ok", "diagnostics.cone_margins",
                         "diagnostics.u_points", "diagnostics.v_points"]
            if solver:
                stored["diagnostics"]["solver"] = {"lp_calls": 5, "polish_iterations": 0}
                one_sided += ["diagnostics.solver.lp_calls",
                              "diagnostics.solver.polish_iterations"]
            parsed = report_from_dict(stored)
            assert report_mismatches(square_gauge, parsed, stored, 1e-6) == one_sided
            report = tmp_path / f"square-{solver}.report.json"
            report.write_text(jsonio.dumps(stored))
            capsys.readouterr()
            assert main(["verify", "--input", str(body), "--report", str(report)]) == 1
            assert f"fields unlike the rebuilt report: {', '.join(one_sided)}\n" in (
                capsys.readouterr().out)
            svg = tmp_path / f"square-{solver}.svg"
            assert main(["render", "--input", str(body), "--report", str(report),
                         "--out", str(svg)]) == 2
            assert not svg.exists()


class TestRender:
    def test_deterministic_bytes(self, square_report, square_gauge):
        for view in ("body", "image"):
            first = render_svg(square_report, square_gauge, view)
            assert render_svg(square_report, square_gauge, view) == first

    def test_circle_layers_have_one_circle_each(self, circle_report):
        svg = render_svg(circle_report, circle_gauge(), "body")
        for layer in ("inscribed", "scaled"):
            seg = svg.split(f'<g id="{layer}">')[1].split("</g>")[0]
            assert seg.count("<circle") == 1
            assert seg.count("<ellipse") == 0

    def test_square_views(self, square_report, square_gauge):
        body = render_svg(square_report, square_gauge, "body")
        image = render_svg(square_report, square_gauge, "image")
        assert body.startswith("<?xml")
        assert '<g id="body">' in body and '<g id="points">' in body
        assert body.count("<rect") == 8  # 4 certificate points plus antipodes
        # for the square the optimal operator is the identity, so both views
        # draw the same geometry
        assert image == body

    def test_views_differ_for_generic_body(self, solved_corpus):
        g, sol = solved_corpus["convex"]
        r = build_report(g, sol)
        assert render_svg(r, g, "image") != render_svg(r, g, "body")

    def test_ellipse_body_uses_ellipse_elements(self, solved_corpus):
        g, sol = solved_corpus["ellipse"]
        svg = render_svg(build_report(g, sol), g, "body")
        assert svg.count("<ellipse") == 2  # inscribed and scaled copies

    def test_bad_view(self, square_report, square_gauge):
        with pytest.raises(InputError):
            render_svg(square_report, square_gauge, "top")

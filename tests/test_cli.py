import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bmplane
from bmplane import circle_gauge, jsonio, polygon_gauge, sample_gauge
from bmplane.cli import build_parser, main
from bmplane.ellipse import EllipseParams
from bmplane.report import _BODY_SCALED, _leaves, build_report, report_to_dict
from bmplane.solver import (
    AlternanceCertificate,
    UniformSolution,
    certificate_deviations,
    solve_uniform,
)

import bodies


@pytest.fixture(scope="module")
def square_body(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "square.json"
    path.write_text(jsonio.dumps({"kind": "lp", "p": "inf"}))
    return path


@pytest.fixture(scope="module")
def square_solved(square_body, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-out") / "report.json"
    code = main(["solve", "--input", str(square_body), "--out", str(out)])
    assert code == 0
    return out


class TestSolve:
    def test_report_content(self, square_solved):
        rep = json.loads(square_solved.read_text())
        assert rep["d2"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert rep["params_inscribed"] == pytest.approx([1.0, 0.0, 0.0], abs=1e-6)
        assert set(rep) == {"d2", "defect", "params_uniform", "params_inscribed", "T_hat",
                            "T_tilde", "x_points", "y_points", "certificate"}
        assert len(rep["certificate"]["phi"]) == 2
        assert len(rep["certificate"]["psi"]) == 2
        assert len(rep["certificate"]["residuals"]) == 4

    def test_polygon_body_with_svg(self, tmp_path):
        body = tmp_path / "diamond.json"
        body.write_text(jsonio.dumps(
            {"kind": "polygon", "vertices": bodies.diamond_vertices().tolist()}))
        out = tmp_path / "r.json"
        svg = tmp_path / "r.svg"
        assert main(["solve", "--input", str(body), "--out", str(out)]) == 0
        assert main(["render", "--input", str(body), "--report", str(out),
                     "--out", str(svg), "--view", "body"]) == 0
        assert svg.read_text().startswith("<?xml")
        rep = json.loads(out.read_text())
        assert rep["d2"] == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_deterministic_bytes(self, square_body, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", "--input", str(square_body), "--out", str(a)]) == 0
        assert main(["solve", "--input", str(square_body), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_schema_violation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(jsonio.dumps({"kind": "polygon", "p": 2}))
        assert main(["solve", "--input", str(bad), "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("descriptor", [
        {"kind": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]], "symmetrize": "false"},
        {"kind": "lp", "p": True},
        {"kind": "ellipse", "params": [True, 0, 0]},
        {"kind": "ellipse", "params": [1, "0", 0]},
        {"kind": "samples", "samples": "abc"},
        {"kind": "polygon", "vertices": [[1, "a"], [0, 1], [-1, 0], [0, -1]]},
        {"kind": "lp", "p": 2, "interp": "pchip"},
    ])
    def test_descriptor_value_types(self, tmp_path, descriptor):
        bad = tmp_path / "bad.json"
        bad.write_text(jsonio.dumps(descriptor))
        out = tmp_path / "r.json"
        assert main(["solve", "--input", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_invalid_polygon(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(jsonio.dumps(
            {"kind": "polygon", "vertices": [[1, 1], [-1, -1], [1, -1], [-1, 1]]}))
        assert main(["solve", "--input", str(bad), "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("flag", [["--grid", "256"], ["--cert-tol", "1e-8"],
                                      ["--svg", "r.svg"], ["--view", "body"]],
                             ids=["grid", "cert-tol", "svg", "view"])
    def test_grid_and_tolerance_are_not_options(self, square_body, tmp_path, flag):
        # nor is drawing: render is the one way to draw a report
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(square_body), "--out", str(out), *flag])
        assert exc.value.code == 2
        assert not out.exists()


class TestVerify:
    def test_pass(self, square_body, square_solved):
        assert main(["verify", "--input", str(square_body),
                     "--report", str(square_solved)]) == 0

    def test_bracket_holds_sqrt2(self, square_body, square_solved, capsys):
        # the d2 bracket is printed before the checks and the verdict, in 17 digits
        capsys.readouterr()
        assert main(["verify", "--input", str(square_body), "--report", str(square_solved)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("d2 bracket: [") and out[-1] == "verdict: pass", out
        low, high = map(float, out[0].removeprefix("d2 bracket: [").rstrip("]").split(", "))
        assert low <= math.sqrt(2.0) <= high <= low * (1.0 + 1e-14), out[0]

    def test_placeholder_bracket_below_tol(self, tmp_path, capsys):
        # the regular 20000-gon's triple with the flat angles (0, pi/4, pi/2, 3pi/4), where h is
        # +6.2e-9 at all four: they prove only d* >= 0, so the bracket is [1, exp(2*6.2e-9)],
        # which holds the report's d2 and is within the default tol of 1e-6
        g = polygon_gauge(bodies.regular_polygon(20000))
        sol = solve_uniform(g)
        flat = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi)
        body, report = tmp_path / "body.json", tmp_path / "report.json"
        body.write_text(jsonio.dumps(g.descriptor()))
        report.write_text(jsonio.dumps(_consistent_report(g, sol.params, sol.defect, flat)))
        capsys.readouterr()
        assert main(["verify", "--input", str(body), "--report", str(report)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("d2 bracket: [1.0, 1.00000001233"), line

    def test_verify_solve_roundtrip_corpus(self, corpus, tmp_path):
        for name, gauge in corpus.items():
            body = tmp_path / f"{name}.json"
            body.write_text(jsonio.dumps(gauge.descriptor()))
            report = tmp_path / f"{name}-report.json"
            assert main(["solve", "--input", str(body), "--out", str(report)]) == 0, name
            assert main(["verify", "--input", str(body), "--report", str(report)]) == 0, name

    def test_tampered_d2(self, square_body, square_solved, tmp_path):
        rep = json.loads(square_solved.read_text())
        rep["d2"] *= 1.001
        bad = tmp_path / "tampered.json"
        bad.write_text(jsonio.dumps(rep))
        assert main(["verify", "--input", str(square_body), "--report", str(bad)]) == 1

    def test_tampered_params(self, square_body, square_solved, tmp_path):
        rep = json.loads(square_solved.read_text())
        rep["params_uniform"] = [v * 1.02 for v in rep["params_uniform"]]
        bad = tmp_path / "tampered.json"
        bad.write_text(jsonio.dumps(rep))
        assert main(["verify", "--input", str(square_body), "--report", str(bad)]) == 1

    def test_bracket_past_the_float_range_fails(self, square_body, square_solved, tmp_path,
                                                capsys):
        # a triple scaled by 1e-320 puts |f - g| near 370, so exp(2*upper) is past the float range
        rep = json.loads(square_solved.read_text())
        rep["params_uniform"] = [v * 1e-320 for v in rep["params_uniform"]]
        bad = tmp_path / "tiny.json"
        bad.write_text(jsonio.dumps(rep))
        capsys.readouterr()
        assert main(["verify", "--input", str(square_body), "--report", str(bad)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(", inf]") and "certificate: FAIL" in out, out

    def test_defect_past_the_float_range_is_a_mismatch(self, square_body, square_solved,
                                                       tmp_path, capsys):
        # d2 = exp(2*400) overflows in the rebuild: verify fails it, render refuses it
        rep = json.loads(square_solved.read_text())
        rep["defect"] = 400.0
        bad = tmp_path / "overflow.json"
        bad.write_text(jsonio.dumps(rep))
        capsys.readouterr()
        assert main(["verify", "--input", str(square_body), "--report", str(bad)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "fields unlike the rebuilt report: rebuild (OverflowError: math range error)" in out
        assert out[-1] == "verdict: FAIL", out
        svg = tmp_path / "overflow.svg"
        assert main(["render", "--input", str(square_body), "--report", str(bad),
                     "--out", str(svg)]) == 2
        assert "rebuild (OverflowError" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize("tamper", ["rescaled", "t-tilde", "residual"])
    def test_tampered_report_fails(self, tmp_path, capsys, tamper):
        body = tmp_path / "l3.json"
        body.write_text(jsonio.dumps({"kind": "lp", "p": 3.0}))
        report = tmp_path / "l3.report.json"
        assert main(["solve", "--input", str(body), "--out", str(report)]) == 0
        rep = json.loads(report.read_text())
        if tamper == "rescaled":  # |T_hat x| and |T_hat y| are unchanged
            rep["T_hat"] = (np.array(rep["T_hat"]) / 1.1).tolist()
            for key in ("x_points", "y_points"):
                rep[key] = (1.1 * np.array(rep[key])).tolist()
        elif tamper == "t-tilde":
            rep["T_tilde"] = [[7.0, 0.0], [0.0, 7.0]]
        else:
            rep["certificate"]["residuals"][2] += 1e-3
        report.write_text(jsonio.dumps(rep))
        capsys.readouterr()
        assert main(["verify", "--input", str(body), "--report", str(report)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "rebuilt-report: FAIL" in out and out[-1] == "verdict: FAIL"

    def test_malformed_report(self, square_body, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text(jsonio.dumps({"d2": 1.0}))
        assert main(["verify", "--input", str(square_body), "--report", str(bad)]) == 2

    @pytest.mark.parametrize("key, size", [("phi", 3), ("psi", 1), ("residuals", 3),
                                           ("residuals", 5)])
    def test_certificate_lists_of_another_length_are_malformed(
            self, square_body, square_solved, tmp_path, capsys, key, size):
        # not cut to length or kept as given, which verify would fail as a mismatch and
        # render would take for another body's report
        rep = json.loads(square_solved.read_text())
        rep["certificate"][key] = (rep["certificate"][key] * 3)[:size]
        bad = tmp_path / "another-length.json"
        bad.write_text(jsonio.dumps(rep))
        capsys.readouterr()
        assert main(["verify", "--input", str(square_body), "--report", str(bad)]) == 2
        assert main(["render", "--input", str(square_body), "--report", str(bad),
                     "--out", str(tmp_path / "another-length.svg")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(f"malformed report: certificate.{key}" in line
                                     for line in err), err
        assert not (tmp_path / "another-length.svg").exists()

    def test_deep_nesting_is_malformed(self, square_body, tmp_path, capsys):
        # past the recursion limit the JSON decoder raises RecursionError, not ValueError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000)
        capsys.readouterr()
        assert main(["solve", "--input", str(deep), "--out", str(tmp_path / "r.json")]) == 2
        assert main(["verify", "--input", str(square_body), "--report", str(deep)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("is not valid JSON" in line for line in err), err
        assert not (tmp_path / "r.json").exists()

    def test_report_without_t_tilde_is_malformed(self, square_body, square_solved, tmp_path, capsys):
        rep = json.loads(square_solved.read_text())
        del rep["T_tilde"]
        bad = tmp_path / "no-t-tilde.json"
        bad.write_text(jsonio.dumps(rep))
        capsys.readouterr()
        assert main(["verify", "--input", str(square_body), "--report", str(bad)]) == 2
        assert main(["render", "--input", str(square_body), "--report", str(bad),
                     "--out", str(tmp_path / "no-t-tilde.svg")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("malformed report" in line and "T_tilde" in line for line in err)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_are_not_json(self, square_body, square_solved, tmp_path, capsys,
                                             value):
        # jsonio.dumps refuses NaN and Infinity, so no command reads them: a report or a body
        # that holds one is malformed input, not a failed verification or a max-norm ball
        rep = json.loads(square_solved.read_text())
        rep["d2"] = value
        report, body, out = tmp_path / "r.json", tmp_path / "body.json", tmp_path / "out.json"
        report.write_text(json.dumps(rep))
        body.write_text(json.dumps({"kind": "lp", "p": value}))
        capsys.readouterr()
        assert main(["verify", "--input", str(square_body), "--report", str(report)]) == 2
        assert main(["render", "--input", str(square_body), "--report", str(report),
                     "--out", str(tmp_path / "r.svg")]) == 2
        assert main(["solve", "--input", str(body), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all("is not valid JSON" in line for line in err)

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "9" * 400], ids=["1e400", "-1e400", "int400"])
    def test_numbers_that_overflow_a_float_are_not_json(self, square_body, square_solved, tmp_path,
                                                       capsys, literal):
        # 1e400 would read as inf: p = 1e400 would solve as the max-norm ball, d2 = 1e400 would
        # fail verification, and a 400-digit p would overflow in float(); all three are malformed
        rep = json.loads(square_solved.read_text())
        rep["d2"] = "NUMBER"
        report, body, out = tmp_path / "r.json", tmp_path / "body.json", tmp_path / "out.json"
        report.write_text(json.dumps(rep).replace('"NUMBER"', literal))
        body.write_text('{"kind": "lp", "p": %s}' % literal)
        capsys.readouterr()
        assert main(["verify", "--input", str(square_body), "--report", str(report)]) == 2
        assert main(["solve", "--input", str(body), "--out", str(out)]) == 2
        assert main(["oracle", "--input", str(body), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all("is not valid JSON" in line for line in err)

    def test_string_numbers_are_malformed(self, square_body, square_solved, tmp_path, capsys):
        # numbers of the report written as JSON strings: verify and render must not take them
        rep = json.loads(square_solved.read_text())
        for key in ("d2", "params_uniform", "T_hat"):
            rep[key] = json.loads(json.dumps(rep[key]), parse_float=str)
        rep["defect"] = repr(rep["defect"])
        rep["certificate"]["phi"] = [repr(v) for v in rep["certificate"]["phi"]]
        bad = tmp_path / "strings.json"
        bad.write_text(jsonio.dumps(rep))
        capsys.readouterr()
        assert main(["verify", "--input", str(square_body), "--report", str(bad)]) == 2
        assert main(["render", "--input", str(square_body), "--report", str(bad),
                     "--out", str(tmp_path / "strings.svg")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("JSON numbers" in line for line in err)


class TestTolerances:
    @pytest.mark.parametrize("command, value", [("verify", v) for v in ("nan", "-1", "0", "inf")])
    def test_out_of_range_is_input_error(self, square_body, square_solved, command, value):
        assert main([command, "--input", str(square_body), "--report", str(square_solved),
                     "--tol", value]) == 2


class TestOracleCommand:
    def test_square(self, square_body, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--input", str(square_body), "--out", str(out), "--nphi", "512"]) == 0
        res = json.loads(out.read_text())
        assert res["value"] == pytest.approx(0.25 * math.log(2.0), abs=2e-3)
        assert res["d2"] == pytest.approx(math.sqrt(2.0), abs=5e-3)
        assert res["lower"] <= res["value"] <= res["lower"] + 1e-6

    @pytest.mark.parametrize("flags", [["--nphi", "4"], ["--nphi", "-1"]])
    def test_invalid_grid_is_input_error(self, square_body, tmp_path, flags):
        out = tmp_path / "o.json"
        assert main(["oracle", "--input", str(square_body), "--out", str(out), *flags]) == 2
        assert not out.exists()

    def test_span_past_the_float_range_is_a_numerical_failure(self, tmp_path, capsys):
        # the oracle refuses the body before its search, whose value would be inf: d2 = inf
        # is not JSON, and the output's dump would end in a traceback
        body = tmp_path / "samples.json"
        body.write_text(jsonio.dumps({"kind": "samples", "samples": [1e78, 1e-78] * 4}))
        out = tmp_path / "o.json"
        assert main(["oracle", "--input", str(body), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: NoConvergence"), err
        assert "Traceback" not in err
        assert not out.exists()

    def test_output_keys(self, tmp_path):
        body = tmp_path / "circle.json"
        body.write_text(jsonio.dumps({"kind": "ellipse", "params": [1.0, 0.0, 0.0]}))
        out = tmp_path / "o.json"
        assert main(["oracle", "--input", str(body), "--out", str(out), "--nphi", "64"]) == 0
        assert set(json.loads(out.read_text())) == {"std", "params", "value", "lower", "d2",
                                                    "evaluations"}

    def test_tiny_negative_theta_is_zero(self, tmp_path, monkeypatch):
        # a best point with c2 just below 0: its theta reduced mod pi is 0, not pi
        import bmplane.oracle as oracle_mod

        best = oracle_mod.OracleResult(EllipseParams(1.0, 0.2, -1e-17), 0.0, 0.0, 0)
        monkeypatch.setattr(oracle_mod, "oracle_uniform", lambda gauge, n_phi: best)
        body = tmp_path / "ellipse.json"
        body.write_text(jsonio.dumps({"kind": "ellipse", "params": [1.0, 0.2, 0.0]}))
        out = tmp_path / "o.json"
        assert main(["oracle", "--input", str(body), "--out", str(out), "--nphi", "64"]) == 0
        theta = json.loads(out.read_text())["std"]["theta"]
        assert theta == 0.0 and math.copysign(1.0, theta) == 1.0

    @pytest.mark.parametrize("flag", ["--na", "--nb", "--ntheta", "--stages"])
    def test_grid_options_are_gone(self, square_body, tmp_path, flag):
        # the branch and bound has no (a, u, theta) grid and no stages
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--input", str(square_body), "--out", str(out), flag, "16"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_value_margin_is_not_an_option(self, square_body, tmp_path):
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--input", str(square_body), "--out", str(out), "--value-margin", "1"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_threads_is_not_an_option(self, square_body, tmp_path):
        # the search is serial
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--input", str(square_body), "--out", str(out), "--threads", "1"])
        assert exc.value.code == 2
        assert not out.exists()


class TestRenderCommand:
    def test_render_both_views(self, square_body, square_solved, tmp_path):
        for view in ("body", "image"):
            out = tmp_path / f"{view}.svg"
            assert main(["render", "--input", str(square_body), "--report", str(square_solved),
                         "--out", str(out), "--view", view]) == 0
            assert "<svg" in out.read_text()

    def test_render_rejects_another_bodys_report(self, square_solved, tmp_path):
        # an ellipse drawn with the square's certificate points: they are off its boundary
        body = tmp_path / "el.json"
        body.write_text(jsonio.dumps({"kind": "ellipse", "params": [1.0, 0.2, 0.1]}))
        out = tmp_path / "el.svg"
        assert main(["render", "--input", str(body), "--report", str(square_solved),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_render_needs_the_body(self, square_solved, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--report", str(square_solved), "--out", str(tmp_path / "x.svg")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.svg").exists()


class TestReportIsReadOnce:
    """``bmplane verify`` and ``render`` read and check the stored report once, and the
    rebuild compares against that reading."""

    @staticmethod
    def _count_reads(monkeypatch) -> list:
        import bmplane.cli as cli_mod
        import bmplane.report as report_mod

        calls, read = [], report_mod.report_from_dict

        def counted(d):
            calls.append(d)
            return read(d)

        monkeypatch.setattr(report_mod, "report_from_dict", counted)
        monkeypatch.setattr(cli_mod, "report_from_dict", counted)
        return calls

    def test_verify(self, square_body, square_solved, tmp_path, capsys, monkeypatch):
        calls = self._count_reads(monkeypatch)
        rescaled = json.loads(square_solved.read_text())
        rescaled["T_hat"] = [[v / 1.1 for v in row] for row in rescaled["T_hat"]]
        (tmp_path / "rescaled.json").write_text(json.dumps(rescaled))
        capsys.readouterr()
        for report, code, last in ((square_solved, 0, ["rebuilt-report: pass", "verdict: pass"]),
                                   (tmp_path / "rescaled.json", 1,
                                    ["rebuilt-report: FAIL", "fields unlike the rebuilt report: "
                                     "T_hat", "verdict: FAIL"])):
            calls.clear()
            assert main(["verify", "--input", str(square_body), "--report", str(report)]) == code
            assert len(calls) == 1
            out = capsys.readouterr().out.splitlines()
            assert out[0].startswith("d2 bracket: [") and out[-len(last):] == last, out

    def test_render(self, square_body, square_solved, tmp_path, monkeypatch):
        calls = self._count_reads(monkeypatch)
        svg = tmp_path / "square.svg"
        assert main(["render", "--input", str(square_body), "--report", str(square_solved),
                     "--out", str(svg)]) == 0
        assert len(calls) == 1 and "<svg" in svg.read_text()
        calls.clear()
        ellipse = tmp_path / "ellipse.json"
        ellipse.write_text(jsonio.dumps({"kind": "ellipse", "params": [1.0, 0.2, 0.1]}))
        assert main(["render", "--input", str(ellipse), "--report", str(square_solved),
                     "--out", str(tmp_path / "ellipse.svg")]) == 2
        assert len(calls) == 1 and not (tmp_path / "ellipse.svg").exists()


def _consistent_report(gauge, params, defect: float, angles) -> dict:
    """The report of a claimed solve, as ``build_report`` makes it: residuals and all, it is
    its own rebuild, so only the certificate check can tell that the claim is wrong."""
    cert = AlternanceCertificate(*angles, (0.0, 0.0, 0.0, 0.0))
    dev = certificate_deviations(gauge, params, cert)
    cert = AlternanceCertificate(*angles, tuple(v - defect for v in dev))
    return report_to_dict(build_report(gauge, UniformSolution(params, defect, cert)))


def _turned(params: EllipseParams, t: float) -> EllipseParams:
    """The triple's ellipse turned by t: (b2, c2) turns by 2t."""
    c, s = math.cos(2.0 * t), math.sin(2.0 * t)
    return EllipseParams(params.a2, c * params.b2 - s * params.c2, s * params.b2 + c * params.c2)


class TestVerifyGate:
    """Wrong reports that ``bmplane verify`` must fail (exit 1).  All but the mutations are
    self-consistent: built by ``build_report`` around a wrong claim, so each passes the
    rebuild and fails on the certificate alone."""

    @staticmethod
    def _verify(gauge, report: dict, tmp_path, capsys, tol=None) -> list[str]:
        body, path = tmp_path / "body.json", tmp_path / "report.json"
        body.write_text(jsonio.dumps(gauge.descriptor()))
        path.write_text(jsonio.dumps(report))
        capsys.readouterr()
        args = ["verify", "--input", str(body), "--report", str(path)]
        code = main(args + (["--tol", str(tol)] if tol else []))
        out = capsys.readouterr().out.splitlines()
        assert code == 1 and out[-1] == "verdict: FAIL", out
        return out

    def _claim_fails(self, gauge, params, defect, angles, tmp_path, capsys, tol=None):
        out = self._verify(gauge, _consistent_report(gauge, params, defect, angles), tmp_path,
                           capsys, tol)
        assert "rebuilt-report: pass" in out and "certificate: FAIL" in out, out

    def test_placeholder_angles(self, tmp_path, capsys):
        # the regular 2000-gon's solved triple with the flat deviation's angles: h = +6.2e-7
        # at all four, so they do not alternate, and the bracket [0, 6.2e-7] is too wide
        flat = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi)
        g = polygon_gauge(bodies.regular_polygon(2000))
        sol = solve_uniform(g)
        self._claim_fails(g, sol.params, sol.defect, flat, tmp_path, capsys)
        # the 20000-gon's h is +6.2e-9 there: its bracket [0, 6.2e-9] pins d2 to 1.2e-8, so it
        # fails at --tol 1e-8 (and passes at the default, test_placeholder_bracket_below_tol)
        g = polygon_gauge(bodies.regular_polygon(20000))
        sol = solve_uniform(g)
        self._claim_fails(g, sol.params, sol.defect, flat, tmp_path, capsys, tol=1e-8)

    def test_turned_triples(self, solved_corpus, tmp_path, capsys):
        bodies_ = {name: solved_corpus[name] for name in ("ellipse", "samples", "star", "convex")}
        g = sample_gauge(bodies.smooth_samples(np.random.default_rng(3), 64), interp="pchip")
        bodies_["pchip"] = g, solve_uniform(g)
        for name, (g, sol) in bodies_.items():
            for t in (0.01, 0.02, 0.03, 0.04):
                self._claim_fails(g, _turned(sol.params, t), sol.defect,
                                  sol.certificate.angles(), tmp_path, capsys)

    def test_shifted_defects(self, solved_corpus, tmp_path, capsys):
        for name in ("square", "hexagon", "ellipse", "samples", "convex"):
            g, sol = solved_corpus[name]
            for shift in (-2e-6, 2e-6, 1e-4):
                self._claim_fails(g, sol.params, sol.defect + shift, sol.certificate.angles(),
                                  tmp_path, capsys)

    def test_moved_angles(self, solved_corpus, tmp_path, capsys):
        for name in ("square", "hexagon", "samples", "star", "convex"):
            g, sol = solved_corpus[name]
            angles = np.array(sol.certificate.angles())
            for moved in (angles + 0.01, angles - 0.01, angles + [0.0, 0.0, 0.02, 0.0]):
                self._claim_fails(g, sol.params, sol.defect, tuple(moved), tmp_path, capsys)

    def test_single_field_mutations(self, solved_corpus, tmp_path, capsys):
        # each entry of each numeric field moved by 1e-5 and 1e-3 of the field's largest entry
        # (at least 1 for the scale-free fields); a symmetric matrix's off-diagonal pair moves
        # as one entry
        for name in ("square", "hexagon", "ellipse", "samples", "convex"):
            g, sol = solved_corpus[name]
            report = report_to_dict(build_report(g, sol))
            fields = {k: v for k, v in _leaves(report).items() if not isinstance(v, bool)}
            for path, value in fields.items():
                value = np.array(value, dtype=float)
                scale = float(np.abs(value).max())
                if path not in _BODY_SCALED:
                    scale = max(scale, 1.0)
                entries = [(i,) for i in np.ndindex(value.shape)]
                if path in ("T_hat", "T_tilde"):
                    entries = [((0, 0),), ((1, 1),), ((0, 1), (1, 0))]
                for entry in entries:
                    for step in (-1e-3, -1e-5, 1e-5, 1e-3):
                        mutated = value.copy()
                        for i in entry:
                            mutated[i] += step * scale
                        bad = json.loads(jsonio.dumps(report))
                        *parents, leaf = path.split(".")
                        holder = bad
                        for key in parents:
                            holder = holder[key]
                        holder[leaf] = mutated.tolist()
                        self._verify(g, bad, tmp_path, capsys)


class TestReadme:
    def test_synopsis_matches_the_parser(self):
        # every subcommand's line in README.md's "## Command line" block shows its options
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        shown = {}
        for line in block.replace("\n ", " ").splitlines():  # indented lines continue a command
            _, command, *rest = line.split()
            shown[command] = {word.strip("[]") for word in rest if word.startswith(("--", "[--"))}
        parser = build_parser()
        [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            command: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
            for command, sub in subparsers.choices.items()
        }
        assert shown == options

    def test_report_keys_match_report_to_dict(self):
        # the keys README.md's "### Report JSON" paragraph lists, nested ones after their
        # parent, are the keys of a report in the order it writes them
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = readme.split("### Report JSON", 1)[1].split("`solve` emits `", 1)[1]
        shown = re.findall(r'"(\w+)"', listed.split("`", 1)[0])
        g = circle_gauge()
        report = report_to_dict(build_report(g, solve_uniform(g)))
        keys = [k for key, value in report.items()
                for k in [key, *(value if isinstance(value, dict) else ())]]
        assert shown == keys


class TestImports:
    def test_cli_leaves_out_the_thread_pool(self):
        # importing the CLI loads no concurrent.futures: the oracle's search is serial
        src = str(Path(bmplane.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = "import sys, bmplane.cli; sys.exit('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_oracle_is_imported_on_first_use(self):
        src = str(Path(bmplane.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = ("import sys, bmplane; assert 'bmplane.oracle' not in sys.modules; "
                  "from bmplane import oracle_uniform; import bmplane.oracle; "
                  "assert oracle_uniform is bmplane.oracle.oracle_uniform")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr

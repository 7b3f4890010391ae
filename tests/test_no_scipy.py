"""The command line and library with numpy alone: every body kind solves, verifies and renders,
and the oracle runs, with scipy blocked.

One child process blocks scipy (``sys.modules["scipy"] = None``: any scipy import raises
ImportError), turns RuntimeWarning into an error as pyproject.toml's ``filterwarnings`` does
for pytest, and runs the steps below in order in one temporary directory, where a step reads
the files that the steps before it wrote.  A step calls ``bmplane.cli.main`` for each command,
as the ``bmplane`` script does, and checks its exit code, its output lines and the files it
writes.  The child writes one result per step, None or the traceback of its failure, and each
step is one test id.  The first step runs before any oracle command, so that its check that
solve, verify and render load neither numpy.ma nor the oracle sees only what they load.

With scipy blocked in the pytest process too::

    python -c "import sys; sys.modules['scipy'] = None; import pytest; sys.exit(pytest.main(['-q', 'tests/test_no_scipy.py']))"
"""

import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

import bmplane
from bmplane import circle_gauge, jsonio, lp_gauge, polygon_gauge, sample_gauge
from bmplane import solve_uniform, verify_certificate
from bmplane.cli import main
from bmplane.report import build_report, report_to_dict
from bmplane.solver import AlternanceCertificate, UniformSolution, certificate_deviations

STEPS = {}  # name -> step, in the order the child runs them

_CHILD = """
import sys, warnings
sys.modules["scipy"] = None  # any scipy import now raises ImportError
warnings.simplefilter("error", RuntimeWarning)
sys.path.insert(0, sys.argv[1])
import test_no_scipy
test_no_scipy.run_steps(sys.argv[2])
"""

_SQRT2_BRACKET = r"^d2 bracket: \[1\.41421356237309[0-9]*, 1\.41421356237309[0-9]*\]$"


def run_steps(results: str) -> None:
    """Run every step in order in the working directory, and write {name: None, or the
    traceback of the step's failure} to the JSON file ``results``."""
    done = {}
    for name, step in STEPS.items():
        try:
            step()
            done[name] = None
        except Exception:
            done[name] = traceback.format_exc()
    Path(results).write_text(json.dumps(done))


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    work = tmp_path_factory.mktemp("no-scipy")
    src = str(Path(bmplane.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent), "results.json"],
        cwd=work, capture_output=True, text=True, env=env, timeout=600,
    )
    if not (work / "results.json").exists():
        pytest.fail(f"the child wrote no results (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads((work / "results.json").read_text())


def _step(fn):
    STEPS[fn.__name__] = fn
    return fn


def _bmplane(*args: str) -> tuple[int, list[str], list[str]]:
    """``bmplane`` with the arguments, in this process: its exit code and the lines of its
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


def _ok(*args: str) -> list[str]:
    """The stdout lines of ``bmplane`` with the arguments, which must exit 0."""
    code, out, err = _bmplane(*args)
    assert code == 0, (args, code, out, err)
    return out


def _grep(pattern: str, lines: list[str]) -> bool:
    return any(re.search(pattern, line) for line in lines)


def _dump(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


@_step
def solve_verify_and_render_load_neither_numpy_ma_nor_the_oracle():
    """solve, verify and render pass six bodies of every kind, and none of them loads the
    oracle or numpy.ma (which np.unique imports on its first call)"""
    nodes = np.arange(64) * math.pi / 64
    wobble = 1.0 + 0.1 * np.cos(2 * nodes) + 0.04 * np.sin(6 * nodes)
    # half of bodies.random_convex_polygon(np.random.default_rng(5)), which needs scipy to build
    half = np.array([[-1.1360465324896427, -0.10970639932180819],
                     [-0.7487457707345911, -1.6347830429585775],
                     [0.2028824405086084, -1.7321348424395848],
                     [0.9582652054360887, -1.6000190889991115]])
    convex = np.vstack([half, -half])
    edge = np.roll(convex, -1, axis=0) - convex
    nxt = np.roll(edge, -1, axis=0)
    turn = edge[:, 0] * nxt[:, 1] - edge[:, 1] * nxt[:, 0]
    assert (turn > 0.0).all(), turn  # every corner turns left: convex
    gauges = {
        "circle": circle_gauge(),
        "square": lp_gauge(math.inf),
        "l1.5": lp_gauge(1.5),
        "convex": polygon_gauge(convex),
        "samples": sample_gauge(wobble),
        "pchip": sample_gauge(wobble, interp="pchip"),
    }
    for name, g in gauges.items():
        body, report = f"six-{name}.json", f"six-{name}.report.json"
        Path(body).write_text(jsonio.dumps(g.descriptor()))
        _ok("solve", "--input", body, "--out", report)
        assert _ok("verify", "--input", body, "--report", report).count("verdict: pass") == 1, name
        _ok("render", "--input", body, "--report", report, "--out", f"six-{name}.svg")
    loaded = [name for name in ("numpy.ma", "bmplane.oracle") if name in sys.modules]
    assert not loaded, loaded


@_step
def solve_and_verify_the_linf_ball():
    """Solve and verify the l-infinity ball"""
    Path("square.json").write_text('{"kind": "lp", "p": "inf"}\n')
    _ok("solve", "--input", "square.json", "--out", "square.report.json")
    out = _ok("verify", "--input", "square.json", "--report", "square.report.json")
    assert "verdict: pass" in out, out
    assert _grep(_SQRT2_BRACKET, out), out


@_step
def oracle_finds_the_linf_defect_and_writes_its_six_keys():
    """The oracle runs on numpy alone, finds the l-infinity defect and writes its six keys"""
    _ok("oracle", "--input", "square.json", "--out", "oracle.json", "--nphi", "256")
    v = _load("oracle.json")["value"]
    assert abs(v - 0.25 * math.log(2.0)) <= 2e-3, v
    k = sorted(_load("oracle.json"))
    assert k == sorted(["std", "params", "value", "lower", "d2", "evaluations"]), k


@_step
def oracle_finds_the_circle_at_its_first_box_centre():
    """The oracle finds the circle at its first box centre, at b' = 0 and theta = 0"""
    Path("circle.json").write_text('{"kind": "ellipse", "params": [1, 0, 0]}\n')
    _ok("oracle", "--input", "circle.json", "--out", "circle.oracle.json", "--nphi", "256")
    r = _load("circle.oracle.json")
    assert r["value"] <= 1e-6 and r["std"]["bprime"] == 0 and r["std"]["theta"] == 0, r


@_step
def oracle_finds_the_off_axis_ellipse():
    """The oracle finds the off-axis ellipse"""
    Path("ellipse.json").write_text('{"kind": "ellipse", "params": [1, 0.2, 0.1]}\n')
    _ok("oracle", "--input", "ellipse.json", "--out", "ellipse.oracle.json", "--nphi", "256")
    v = _load("ellipse.oracle.json")["value"]
    assert v <= 1e-4, v


@_step
def oracle_closes_on_a_flat_in_family_ellipse_in_its_first_round():
    """The oracle closes on the defect 0 of an in-family ellipse 1e-14 from flat in its first
    round"""
    e = 1.0 - 1e-14
    _dump("flat.json", {"kind": "ellipse", "params": [1, e * math.cos(0.7), e * math.sin(0.7)]})
    _ok("oracle", "--input", "flat.json", "--out", "flat.oracle.json", "--nphi", "1024")
    r = _load("flat.oracle.json")
    assert r["value"] <= 1e-6 and r["lower"] == 0 and r["evaluations"] <= 2048, r


@_step
def circle_report_has_its_nine_keys_and_its_own_bytes():
    """The circle's report has exactly its nine keys and loads and dumps to its own bytes,
    signed zeros included"""
    _ok("solve", "--input", "circle.json", "--out", "circle.report.json")
    t = Path("circle.report.json").read_text()
    r = jsonio.loads(t)
    assert jsonio.dumps(r) == t
    assert "-0.0" in t
    assert list(r) == ["d2", "defect", "params_uniform", "params_inscribed", "T_hat", "T_tilde",
                       "x_points", "y_points", "certificate"], list(r)


@_step
def square_at_1e100_and_1e_minus_100_solves_verifies_and_renders():
    """The square scaled by 1e100 and by 1e-100 solves, verifies and renders"""
    for s in ("1e100", "1e-100"):
        x = float(s)
        _dump(f"square{s}.json",
              {"kind": "polygon", "vertices": [[x, x], [-x, x], [-x, -x], [x, -x]]})
        _ok("solve", "--input", f"square{s}.json", "--out", f"square{s}.report.json")
        out = _ok("verify", "--input", f"square{s}.json", "--report", f"square{s}.report.json")
        assert "verdict: pass" in out, (s, out)
        _ok("render", "--input", f"square{s}.json", "--report", f"square{s}.report.json",
            "--out", f"square{s}.svg")
        assert "<svg" in Path(f"square{s}.svg").read_text(), s


@_step
def pchip_samples_solve_verify_and_render():
    """64 pchip samples solve, verify and render"""
    n = 64
    _dump("pchip64.json", {"kind": "samples", "interp": "pchip", "samples": [
        1.0 + 0.1 * math.cos(2 * k * math.pi / n) + 0.04 * math.sin(6 * k * math.pi / n)
        for k in range(n)]})
    _ok("solve", "--input", "pchip64.json", "--out", "pchip64.report.json")
    out = _ok("verify", "--input", "pchip64.json", "--report", "pchip64.report.json")
    assert "verdict: pass" in out, out
    _ok("render", "--input", "pchip64.json", "--report", "pchip64.report.json",
        "--out", "pchip64.svg")
    assert "<svg" in Path("pchip64.svg").read_text()


@_step
def flat_h_bodies_solve_to_d2_one_exactly_and_verify():
    """The l2 ball and 64 constant samples, linear and pchip, on which h is flat, solve to
    d2 = 1 exactly and verify"""
    Path("l2.json").write_text('{"kind": "lp", "p": 2}\n')
    _dump("ones64.json", {"kind": "samples", "samples": [1.0] * 64})
    _dump("ones64pchip.json", {"kind": "samples", "interp": "pchip", "samples": [1.0] * 64})
    for body in ("l2", "ones64", "ones64pchip"):
        _ok("solve", "--input", f"{body}.json", "--out", f"{body}.report.json")
        d2 = _load(f"{body}.report.json")["d2"]
        assert d2 == 1.0, (body, d2)
        out = _ok("verify", "--input", f"{body}.json", "--report", f"{body}.report.json")
        assert "verdict: pass" in out, (body, out)


@_step
def render_the_linf_ball():
    """Render the l-infinity ball from its body and report"""
    _ok("render", "--input", "square.json", "--report", "square.report.json",
        "--out", "square.svg")
    assert "<svg" in Path("square.svg").read_text()


@_step
def verify_fails_the_rescaled_linf_report():
    """Verify fails the l-infinity report with T_hat, x and y rescaled"""
    rep = _load("square.report.json")
    rep["T_hat"] = [[v / 1.1 for v in row] for row in rep["T_hat"]]
    for key in ("x_points", "y_points"):
        rep[key] = [[1.1 * v for v in p] for p in rep[key]]
    _dump("rescaled.report.json", rep)
    status, out, _ = _bmplane("verify", "--input", "square.json",
                              "--report", "rescaled.report.json")
    assert status == 1, (status, out)
    assert "verdict: FAIL" in out, out


@_step
def verify_fails_defect_400_past_the_float_range():
    """Verify fails the l-infinity report with defect 400, whose d2 is past the float range"""
    r = _load("square.report.json")
    r["defect"] = 400.0
    _dump("overflow.report.json", r)
    status, out, _ = _bmplane("verify", "--input", "square.json",
                              "--report", "overflow.report.json")
    assert status == 1, (status, out)
    assert "verdict: FAIL" in out, out


@_step
def verify_refuses_a_fifth_residual_as_malformed():
    """Verify refuses the l-infinity report with a fifth residual as malformed input"""
    r = _load("square.report.json")
    r["certificate"]["residuals"].append(0.0)
    _dump("residuals5.report.json", r)
    status, _, err = _bmplane("verify", "--input", "square.json",
                              "--report", "residuals5.report.json")
    assert status == 2, (status, err)
    assert _grep("malformed report", err), err


@_step
def body_nested_200000_deep_is_malformed():
    """A body nested 200000 deep is malformed input"""
    Path("deep.json").write_text("[" * 200000)
    status, _, err = _bmplane("solve", "--input", "deep.json", "--out", "deep.report.json")
    assert status == 2, (status, err)
    assert not Path("deep.report.json").exists()


@_step
def hexagon_solves_to_2_over_sqrt3_and_verifies():
    """A regular hexagon solves to 2/sqrt(3) within 1e-14 relative and verifies"""
    Path("hexagon.json").write_text(
        '{"kind": "polygon", "vertices": [[1, 0.5773502691896258], [0, 1.1547005383792517], '
        '[-1, 0.5773502691896258], [-1, -0.5773502691896258], [0, -1.1547005383792517], '
        '[1, -0.5773502691896258]]}\n')
    _ok("solve", "--input", "hexagon.json", "--out", "hexagon.report.json")
    d2 = _load("hexagon.report.json")["d2"]
    err = abs(d2 - 2.0 / math.sqrt(3.0))
    assert err <= 1e-14 * d2, (d2, err)
    out = _ok("verify", "--input", "hexagon.json", "--report", "hexagon.report.json")
    assert "verdict: pass" in out, out


@_step
def square_with_edge_midpoints_solves_to_sqrt2_and_verifies():
    """The square with a vertex at each edge midpoint, at phase 0 and turned by 0.3 rad, solves
    to sqrt(2) and verifies"""
    for phase in (0.0, 0.3):
        c, s = math.cos(phase), math.sin(phase)
        v = [[1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1], [1, 0]]
        _dump("midpoints.json",
              {"kind": "polygon", "vertices": [[c * x - s * y, s * x + c * y] for x, y in v]})
        _ok("solve", "--input", "midpoints.json", "--out", "midpoints.report.json")
        out = _ok("verify", "--input", "midpoints.json", "--report", "midpoints.report.json")
        assert "verdict: pass" in out, (phase, out)
        assert _grep(_SQRT2_BRACKET, out), (phase, out)


@_step
def inflated_hexagon_ellipse_fails_verify():
    """The hexagon's ellipse inflated by 5% of its defect fails verify at the solve's
    certificate, by at least 0.09 of the defect"""
    g = polygon_gauge(_load("hexagon.json")["vertices"])
    sol = solve_uniform(g)
    v = verify_certificate(g, sol.params.scaled(math.exp(0.1 * sol.defect)), sol.certificate, 1e-8)
    assert not v.passed and v.upper - v.lower >= 0.09 * sol.defect, (v, sol.defect)


@_step
def oracle_finds_the_hexagon_defect_with_a_lower_bound_below_it():
    """The oracle finds the hexagon's defect, and its lower bound is below the solved one"""
    _ok("oracle", "--input", "hexagon.json", "--out", "hexagon.oracle.json", "--nphi", "256")
    r = _load("hexagon.oracle.json")
    d = _load("hexagon.report.json")["defect"]
    assert abs(r["value"] - d) <= 1e-4 and r["lower"] <= d + 1e-12, (r["value"], r["lower"], d)


@_step
def samples_of_a_10_to_1_ellipse_verify_and_not_at_d2_one():
    """Linear samples of a 10:1 ellipse on every grid angle solve and verify, never at d2 = 1"""
    n = 4096
    _dump("ellipse10.json", {"kind": "samples", "samples": [
        1.0 / math.hypot(math.cos(k * math.pi / n), 10.0 * math.sin(k * math.pi / n))
        for k in range(n)]})
    _ok("solve", "--input", "ellipse10.json", "--out", "ellipse10.report.json")
    d2 = _load("ellipse10.report.json")["d2"]
    assert d2 - 1.0 > 1e-9, d2
    out = _ok("verify", "--input", "ellipse10.json", "--report", "ellipse10.report.json")
    assert "verdict: pass" in out, out
    # the sampled ellipse's own report, the d2 = 1 answer, must fail on the samples
    Path("exact10.json").write_text('{"kind": "ellipse", "params": [50.5, -49.5, 0]}\n')
    _ok("solve", "--input", "exact10.json", "--out", "exact10.report.json")
    status, out, _ = _bmplane("verify", "--input", "ellipse10.json",
                              "--report", "exact10.report.json")
    assert status == 1, (status, out)
    assert "verdict: FAIL" in out, out


@_step
def samples_of_a_2_to_1_ellipse_certify_d2_to_1e_12():
    """Linear samples of a 2:1 ellipse on every grid angle certify d2 to 1e-12 relative"""
    n = 4096
    _dump("ellipse2.json", {"kind": "samples", "samples": [
        1.0 / math.hypot(math.cos(k * math.pi / n), 2.0 * math.sin(k * math.pi / n))
        for k in range(n)]})
    _ok("solve", "--input", "ellipse2.json", "--out", "ellipse2.report.json")
    out = _ok("verify", "--input", "ellipse2.json", "--report", "ellipse2.report.json")
    assert "verdict: pass" in out, out
    low, high = ast.literal_eval(
        next(line for line in out if line.startswith("d2 bracket: "))[len("d2 bracket: "):])
    assert high - low <= 1e-12 * low, (low, high, (high - low) / low)


@_step
def rough_samples_on_8192_angles_solve_and_verify():
    """Rough linear samples on 8192 angles, whose ~5500 grid extrema the first scan values from
    the grid run's h, solve and verify"""
    _dump("rough8192.json", {"kind": "samples", "samples": (
        1.0 + 0.2 * np.random.default_rng(8192).random(8192)).tolist()})
    _ok("solve", "--input", "rough8192.json", "--out", "rough8192.report.json")
    out = _ok("verify", "--input", "rough8192.json", "--report", "rough8192.report.json")
    assert "verdict: pass" in out, out


@_step
def regular_2000_gon_solves_to_its_closed_form_and_verifies():
    """The regular 2000-gon, whose 2000 extrema tie, solves to 1/cos(pi/2000) and verifies, at
    phase 0 and 0.3"""
    for phase in (0.0, 0.3):
        n = 2000
        _dump("regular2000.json", {"kind": "polygon", "vertices": [
            [math.cos(phase + 2.0 * math.pi * k / n), math.sin(phase + 2.0 * math.pi * k / n)]
            for k in range(n)]})
        _ok("solve", "--input", "regular2000.json", "--out", "regular2000.report.json")
        out = _ok("verify", "--input", "regular2000.json", "--report", "regular2000.report.json")
        assert "verdict: pass" in out, (phase, out)
        d2 = _load("regular2000.report.json")["d2"]
        err = abs(d2 - 1.0 / math.cos(math.pi / 2000.0))
        assert err <= 1e-14 * d2, (phase, d2, err)


@_step
def regular_20000_gon_certificate_residuals_within_1e_8_and_verifies():
    """The regular 20000-gon, whose defect is below the 1e-8 certificate tolerance, gets a
    certificate whose residuals are within 1e-8 and that verifies"""
    n = 20000
    _dump("regular20000.json", {"kind": "polygon", "vertices": [
        [math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n)] for k in range(n)]})
    _ok("solve", "--input", "regular20000.json", "--out", "regular20000.report.json")
    r = _load("regular20000.report.json")["certificate"]["residuals"]
    assert max(map(abs, r)) <= 1e-8, r
    out = _ok("verify", "--input", "regular20000.json", "--report", "regular20000.report.json")
    assert "verdict: pass" in out, out


@_step
def verify_fails_the_regular_2000_gon_with_placeholder_angles():
    """Verify fails the regular 2000-gon's solved triple with the placeholder angles (0, pi/4,
    pi/2, 3pi/4), where f - g does not alternate"""
    n = 2000
    g = polygon_gauge([[math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n)]
                       for k in range(n)])
    sol = solve_uniform(g)
    flat = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi)
    dev = certificate_deviations(g, sol.params, AlternanceCertificate(*flat, (0.0,) * 4))
    cert = AlternanceCertificate(*flat, tuple(v - sol.defect for v in dev))
    report = build_report(g, UniformSolution(sol.params, sol.defect, cert))
    Path("placeholder2000.json").write_text(jsonio.dumps(g.descriptor()))
    Path("placeholder2000.report.json").write_text(jsonio.dumps(report_to_dict(report)))
    status, out, _ = _bmplane("verify", "--input", "placeholder2000.json",
                              "--report", "placeholder2000.report.json")
    assert status == 1, (status, out)
    assert "certificate: FAIL" in out, out
    assert "verdict: FAIL" in out, out


@_step
def past_the_float_range_ends_typed_with_no_traceback_and_no_output():
    """Past the float range the oracle's 1e+-78 samples and the 2^-499 thin rhombus are
    numerical failures and the square at 1e200 an input error, with no traceback and no output"""
    _dump("span78.json", {"kind": "samples", "samples": [1e78, 1e-78] * 4})
    status, _, err = _bmplane("oracle", "--input", "span78.json", "--out", "span78.oracle.json")
    assert status == 3, (status, err)
    assert _grep("^numerical failure: NoConvergence", err), err
    assert not _grep("Traceback", err), err
    assert not Path("span78.oracle.json").exists()
    s = 2.0**-499
    _dump("rhombus499.json",
          {"kind": "polygon", "vertices": [[s, 0.0], [0.0, 1e-4 * s], [-s, 0.0], [0.0, -1e-4 * s]]})
    status, _, err = _bmplane("solve", "--input", "rhombus499.json",
                              "--out", "rhombus499.report.json")
    assert status == 3, (status, err)
    assert _grep("^numerical failure: NoConvergence", err), err
    assert not _grep("Traceback", err), err
    assert not Path("rhombus499.report.json").exists()
    s = 1e200
    _dump("square1e200.json", {"kind": "polygon", "vertices": [[s, s], [-s, s], [-s, -s], [s, -s]]})
    status, _, err = _bmplane("solve", "--input", "square1e200.json",
                              "--out", "square1e200.report.json")
    assert status == 2, (status, err)
    assert _grep(r"^input error: largest vertex radius 1\.414213562373095e\+200: cross products "
                 "leave the float range", err), err
    assert not Path("square1e200.report.json").exists()


@_step
def rendering_the_hexagon_with_the_squares_report_is_an_input_error():
    """Rendering the hexagon with the square's report is an input error"""
    status, _, err = _bmplane("render", "--input", "hexagon.json", "--report",
                              "square.report.json", "--out", "mismatch.svg")
    assert status == 2, (status, err)
    assert not Path("mismatch.svg").exists()


@pytest.mark.parametrize("step", list(STEPS))
def test_step(results, step):
    assert results[step] is None, f"{STEPS[step].__doc__}\n{results[step]}"

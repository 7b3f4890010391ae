"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import math
import time

import numpy as np

from bmplane.ellipse import pd_sqrt
from bmplane.gauge import (
    circle_gauge,
    ellipse_gauge,
    evaluation_grid,
    lp_gauge,
    polygon_gauge,
)
from bmplane.oracle import oracle_uniform
from bmplane.report import build_report, verify_theorem1
from bmplane.solver import (
    _extrema_scan,
    _half_log_trig,
    AlternanceCertificate,
    distance,
    solve_uniform,
    verify_certificate,
)

import bodies
from perturbation import (
    LeftCone,
    log_rho,
    operator_norm,
    perturb,
    square,
    tangent_matrix,
    three_point_matrix,
)

SQRT2 = math.sqrt(2.0)
_MODULE_T0 = time.perf_counter()


def criterion(number, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {text}")
                raise
            print(f"[PASS] criterion {number}: {text}" + (f" ({detail})" if detail else ""))

        return wrapper

    return deco


@criterion(1, "circle solves to distance 1, defect 0, under 1 s")
def test_criterion_01_circle():
    t0 = time.perf_counter()
    sol = solve_uniform(circle_gauge())
    elapsed = time.perf_counter() - t0
    d2 = math.exp(2.0 * sol.defect)
    assert abs(d2 - 1.0) <= 1e-9
    assert sol.defect <= 5e-10
    assert elapsed < 1.0
    return f"d2-1 = {d2 - 1:.2e}, {elapsed:.2f} s"


@criterion(2, "solver recovers 20 random in-cone ellipse bodies")
def test_criterion_02_ellipse_identity():
    rng = np.random.default_rng(1002)
    worst_rel, worst_defect = 0.0, 0.0
    for _ in range(20):
        e = bodies.random_incone_params(rng)
        sol = solve_uniform(ellipse_gauge(e))
        rel = max(abs(g - t) for g, t in zip(sol.params.triple(), e.triple())) / e.a2
        worst_rel = max(worst_rel, rel)
        worst_defect = max(worst_defect, sol.defect)
        assert rel <= 1e-6
        assert sol.defect <= 1e-8
    return f"worst rel err {worst_rel:.2e}, worst defect {worst_defect:.2e}"


@criterion(3, "square and diamond: distance sqrt(2), inscribed unit circle, certified")
def test_criterion_03_square_and_diamond():
    cases = {
        "square": (lp_gauge(math.inf), (0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi)),
        "diamond": (
            polygon_gauge(bodies.diamond_vertices()),
            (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi),
        ),
    }
    details = []
    for name, (gauge, expected_angles) in cases.items():
        # reproduce the frozen value with the independent branch-and-bound oracle first
        oracle = oracle_uniform(gauge)
        assert abs(oracle.value - 0.25 * math.log(2.0)) <= 2e-3
        t0 = time.perf_counter()
        sol = solve_uniform(gauge)
        elapsed = time.perf_counter() - t0
        d2 = math.exp(2.0 * sol.defect)
        assert abs(d2 - SQRT2) <= 1e-6
        assert d2 <= SQRT2 + 1e-6
        inscribed = build_report(gauge, sol).params_inscribed
        assert np.allclose(inscribed.triple(), (1.0, 0.0, 0.0), atol=1e-6)
        got = np.array(sol.certificate.angles())
        assert np.abs(got - np.array(expected_angles)).max() <= 1e-4
        assert elapsed < 5.0
        details.append(f"{name}: |d2-sqrt2| = {abs(d2 - SQRT2):.2e}, {elapsed:.2f} s")
    # the lp ball at p=1 is a linear image of the square, so the same distance
    assert abs(distance(lp_gauge(1.0)) - SQRT2) <= 1e-6
    return "; ".join(details)


@criterion(4, "regular hexagon: distance 2/sqrt(3), oracle-reproduced")
def test_criterion_04_hexagon():
    gauge = polygon_gauge(bodies.hexagon_inradius_1())
    expected = 2.0 / math.sqrt(3.0)
    t0 = time.perf_counter()
    oracle = oracle_uniform(gauge, n_phi=2048)
    oracle_elapsed = time.perf_counter() - t0
    assert oracle_elapsed < 120.0
    assert abs(oracle.value - 0.5 * math.log(expected)) <= 2e-3
    assert oracle.std.bprime <= 1e-2 * oracle.std.a  # minimizer is a circle
    d2 = distance(gauge)
    assert abs(d2 - expected) <= 1e-6
    return f"|d2-2/sqrt3| = {abs(d2 - expected):.2e}, oracle {oracle_elapsed:.1f} s"


@criterion(5, "100 random star polygons stay within the universal bounds")
def test_criterion_05_universal_bound():
    rng = np.random.default_rng(1005)
    lo, hi = math.inf, 0.0
    for _ in range(100):
        verts = bodies.random_star_polygon(rng, n_half=int(rng.integers(5, 14)))
        d2 = distance(polygon_gauge(verts))
        lo, hi = min(lo, d2), max(hi, d2)
        assert 1.0 - 1e-9 <= d2 <= SQRT2 + 1e-6
    return f"range [{lo:.6f}, {hi:.6f}]"


@criterion(6, "solver agrees with the oracle on 50 random convex polygons")
def test_criterion_06_oracle_agreement():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(50):
        verts = bodies.random_convex_polygon(rng, n_half=int(rng.integers(4, 12)))
        gauge = polygon_gauge(verts)
        sol = solve_uniform(gauge)
        oracle = oracle_uniform(gauge)
        gap = abs(sol.defect - oracle.value)
        worst = max(worst, gap)
        assert gap <= 1e-4, (sol.defect, oracle.value)
        assert oracle.lower <= sol.defect + 1e-12, (sol.defect, oracle.lower)
    return f"worst |defect - oracle| = {worst:.2e}"


@criterion(7, "distance is invariant under 20 random invertible linear maps")
def test_criterion_07_linear_invariance():
    rng = np.random.default_rng(1007)
    base_verts = bodies.random_convex_polygon(rng, n_half=7)
    base = distance(polygon_gauge(base_verts))
    worst = 0.0
    for _ in range(20):
        m = bodies.random_invertible_map(rng)
        mapped = distance(polygon_gauge(base_verts @ m.T))
        worst = max(worst, abs(mapped - base))
        assert abs(mapped - base) <= 1e-6
    return f"base d2 = {base:.9f}, worst drift {worst:.2e}"


@criterion(8, "one-sided shift: the inscribed ellipse lies under the body, f - g peaks at 2*defect")
def test_criterion_08_one_sided(solved_corpus):
    for name, (gauge, sol) in solved_corpus.items():
        inscribed = build_report(gauge, sol).params_inscribed
        scan = _extrema_scan(gauge, inscribed)
        h = gauge.log_eval(scan.angles) + _half_log_trig(inscribed, scan.angles)
        assert h.min() >= -1e-9, name
        assert abs(h.max() - 2.0 * sol.defect) <= 1e-8, name
    return f"{len(solved_corpus)} bodies"


@criterion(9, "certificates verify at 1e-6; 5%-inflated candidates are rejected")
def test_criterion_09_certificates(solved_corpus):
    # the inflated triple's sup is 1.05*d*, and by de la Vallee Poussin any four interleaved
    # angles bound d* from below: so its bracket is at least 0.05*d* wide, whatever the angles
    rng = np.random.default_rng(909)
    rejected = 0
    for name, (gauge, sol) in solved_corpus.items():
        verdict = verify_certificate(gauge, sol.params, sol.certificate, 1e-6)
        assert verdict.passed, (name, verdict)
        assert sol.certificate.interleaved(), name
        if sol.defect > 1e-6:
            inflated = sol.params.scaled(math.exp(2.0 * 0.05 * sol.defect))
            assert not verify_certificate(gauge, inflated, sol.certificate, 1e-8).passed, name
            for _ in range(20):
                gaps = rng.dirichlet(np.ones(4)) * math.pi
                angles = rng.uniform(0.0, math.pi) + np.append(0.0, np.cumsum(gaps[:3]))
                cert = AlternanceCertificate(*angles.tolist(), (0.0,) * 4)
                assert cert.interleaved(), (name, angles)
                assert not verify_certificate(gauge, inflated, cert, 1e-8).passed, (name, angles)
            rejected += 1
    assert rejected >= 5
    return f"{len(solved_corpus)} certified, {rejected} inflated candidates rejected"


@criterion(10, "interpolation determinants match the closed forms at 1e-12")
def test_criterion_10_determinants():
    rng = np.random.default_rng(1010)
    worst3, worst2 = 0.0, 0.0
    for _ in range(1000):
        base = rng.uniform(-math.pi, math.pi)
        g1, g2 = rng.uniform(0.01, 1.5, 2)
        if g1 + g2 >= math.pi - 0.01:
            continue
        p1, p2, p3 = base, base + g1, base + g1 + g2
        det = np.linalg.det(three_point_matrix(p1, p2, p3))
        expect = 4.0 * math.sin(p2 - p1) * math.sin(p3 - p1) * math.sin(p3 - p2)
        worst3 = max(worst3, abs(det - expect))
        assert abs(det - expect) <= 1e-12
    for _ in range(1000):
        p1 = rng.uniform(-math.pi, math.pi)
        p2 = p1 + rng.uniform(0.01, math.pi - 0.01)
        det = np.linalg.det(tangent_matrix(p1, p2))
        expect = 4.0 * math.sin(p2 - p1) ** 2
        worst2 = max(worst2, abs(det - expect))
        assert abs(det - expect) <= 1e-12
    return f"worst gaps {worst3:.1e}, {worst2:.1e}"


@criterion(11, "perturbation sign pattern holds; no perturbation beats an optimum")
def test_criterion_11_perturbation(solved_corpus):
    rng = np.random.default_rng(1011)
    done = 0
    while done < 100:
        e = bodies.random_incone_params(rng, max_ecc=0.7)
        alpha = rng.uniform(-math.pi, math.pi)
        beta = alpha + rng.uniform(0.15, math.pi - 0.15)
        t = rng.uniform(1e-3, 0.02)
        try:
            p = perturb(e, alpha, beta, t)
        except LeftCone:
            continue
        inner = np.linspace(alpha, beta, 1026)[1:-1]
        outer = np.linspace(beta, alpha + math.pi, 1026)[1:-1]
        assert (log_rho(p, inner) - log_rho(e, inner)).max() < 0.0
        assert (log_rho(p, outer) - log_rho(e, outer)).min() > 0.0
        assert abs(log_rho(p, alpha) - log_rho(e, alpha)) <= 1e-12
        assert abs(log_rho(p, beta) - log_rho(e, beta)) <= 1e-12
        done += 1

    gauge, sol = solved_corpus["convex"]
    grid = np.concatenate(
        [evaluation_grid(gauge, 2048), np.mod(sol.certificate.angles(), math.pi)]
    )
    fvals = gauge.log_eval(grid)
    probes = 0
    while probes < 50:
        alpha = rng.uniform(0.0, math.pi)
        beta = alpha + rng.uniform(0.1, math.pi - 0.1)
        t = rng.uniform(1e-4, 0.05)
        try:
            cand = perturb(sol.params, alpha, beta, t)
        except LeftCone:
            continue
        sup = float(np.abs(fvals + 0.5 * np.log(cand.trig(grid))).max())
        assert sup >= sol.defect - 1e-9
        probes += 1
    return "100 sign patterns, 50 optimum probes"


@criterion(12, "matrix layer round-trips; operator relations hold on the corpus")
def test_criterion_12_matrix_and_report(solved_corpus):
    rng = np.random.default_rng(1012)
    for _ in range(500):
        s = bodies.random_pd_matrix(rng)
        err = np.abs(square(pd_sqrt(s)).as_array() - s.as_array()).max()
        assert err <= 1e-12 * max(1.0, operator_norm(s))
    worst_x, worst_y = 0.0, 0.0
    for name, (gauge, sol) in solved_corpus.items():
        report = build_report(gauge, sol)
        verdict = verify_theorem1(report)
        assert verdict.passed, (name, verdict)
        worst_x = max(worst_x, max(abs(v - report.d2) for v in verdict.x_norms))
        worst_y = max(worst_y, max(abs(v - 1.0) for v in verdict.y_norms))
    return f"worst |T x| gap {worst_x:.1e}, worst |T y| gap {worst_y:.1e}"


def test_acceptance_runtime_budget():
    elapsed = time.perf_counter() - _MODULE_T0
    print(f"[INFO] acceptance module wall time: {elapsed:.0f} s")
    assert elapsed < 25 * 60.0

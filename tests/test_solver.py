import dataclasses
import importlib.util
import math
import sys
import warnings
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from scipy.optimize import linprog as highs_linprog

from bmplane import jsonio
from bmplane.ellipse import EllipseParams, in_cone
from bmplane.errors import BmplaneError, NoAlternance, NoConvergence
from bmplane.gauge import (
    Gauge,
    _base_grid,
    _grid_table,
    circle_gauge,
    ellipse_gauge,
    evaluation_grid,
    lp_gauge,
    polygon_gauge,
    sample_gauge,
)
from bmplane.report import (
    build_report,
    render_svg,
    report_from_dict,
    report_mismatches,
    report_to_dict,
    verify_theorem1,
)
from bmplane.solver import (
    AlternanceCertificate,
    CertificateVerdict,
    certificate_deviations,
    distance,
    linprog,
    solve_uniform,
    _CERT_TOL,
    _distinct,
    _ExtremaScan,
    _extrema_scan,
    _GRID_SIZE,
    _H_ROUNDING,
    _cos_sin,
    _R,
    _half_log_trig,
    _minimax_lp,
    _PI,
    _Pieces,
    _ROOT_STEPS,
    verify_certificate,
)

import bodies
from perturbation import LeftCone, perturb

SQUARE_DEFECT = 0.25 * math.log(2.0)  # forced by 4-fold symmetry: ln(sqrt(2))/2

CLOSED_FORM_D2 = {
    "circle": 1.0,
    "square": math.sqrt(2.0),
    "square-polygon": math.sqrt(2.0),
    "diamond": math.sqrt(2.0),
    "l1": math.sqrt(2.0),
    "hexagon": 2.0 / math.sqrt(3.0),
    "ellipse": 1.0,
}


def _rotation(t: float) -> np.ndarray:
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _trig(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rows (1, cos 2phi, sin 2phi) at each point: R there is this times (a2, b2, c2)."""
    return np.column_stack([np.ones(cos.size), cos, sin])


def _watch_linprog(monkeypatch) -> list:
    """The exchange rounds of every ``linprog`` call the solver makes from now on, in order:
    one call per run of the solve's exchange loop, the first on the grid."""
    import bmplane.solver as solver_mod

    rounds, lp = [], solver_mod.linprog

    def watched(*args, **kwargs):
        out = lp(*args, **kwargs)
        rounds.append(out[1])
        return out

    monkeypatch.setattr(solver_mod, "linprog", watched)
    return rounds


def _watch_runs(monkeypatch) -> list:
    """(cos, sin, triple, reference, signs of h there) of every exchange run the solver makes
    from now on, in order, as ``_minimax_lp`` returns them with the cos 2phi and sin 2phi it
    was given."""
    import bmplane.solver as solver_mod

    runs, minimax = [], solver_mod._minimax_lp

    def watched(cos, sin, *args, **kwargs):
        out = minimax(cos, sin, *args, **kwargs)
        runs.append((cos, sin, *out))
        return out

    monkeypatch.setattr(solver_mod, "_minimax_lp", watched)
    return runs


def _rounding_of_h(g) -> float:
    """The rounding of h on the body's grid: the solve's floor on sup - level, plus 2^-52 for
    the rounding of f = log r where r is near 1, which that floor, relative to max |f|, leaves out."""
    return _H_ROUNDING * float(np.abs(g.log_eval(evaluation_grid(g, _GRID_SIZE))).max()) + 2.0**-52


def _residual_slack(g, params) -> float:
    """How far a certificate's residual may lie from the signed deviation recomputed at its
    angle less the defect: twice the rounding of h, plus the change of h over 1e-15 rad (twice
    the rounding of phi + pi, when psi2 is a reference angle plus pi), with h's slope bounded
    by its largest difference quotient between grid neighbours."""
    grid = evaluation_grid(g, _GRID_SIZE)
    h = g.log_eval(grid) + _half_log_trig(params, grid)
    slope = float((np.abs(np.diff(h)) / np.diff(grid)).max())
    return 2.0 * _rounding_of_h(g) + 1e-15 * slope


def _verify_on_grid(size: int, gauge, params, cert, tol: float):
    """``verify_certificate`` with its scan on the cells of a grid of ``size`` angles."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("bmplane.solver._GRID_SIZE", size)
        return verify_certificate(gauge, params, cert, tol)


def _highs(objective, rows: np.ndarray, b: np.ndarray):
    """HiGHS dual simplex on rows @ x <= b with x free: the independent LP reference."""
    res = highs_linprog(
        objective, A_ub=rows, b_ub=b, bounds=[(None, None)] * 4, method="highs-ds"
    )
    assert res.status == 0, res.message
    return res


def _full_grid_minimax_lp(grid: np.ndarray, fvals: np.ndarray):
    """Uniform best triple on the grid from one HiGHS LP over every angle; returns (params, x)."""
    center = 0.5 * float(fvals.max() + fvals.min())
    w = np.exp(-2.0 * (fvals - center))
    trig = _trig(*_cos_sin(grid))
    rows = np.block([[-trig, np.zeros((grid.size, 1))], [trig, -w[:, None]]])
    b = np.concatenate([-w, np.zeros(grid.size)])
    res = _highs([0.0, 0.0, 0.0, 1.0], rows, b)
    scale = math.exp(-2.0 * center) / math.sqrt(res.x[3])  # t* >= 1, since R >= w > 0
    a2, b2, c2 = (float(v) * scale for v in res.x[:3])
    assert in_cone(a2, b2, c2)
    return EllipseParams(a2, b2, c2), res.x


def feasible_at(gauge, d: float, grid) -> Optional[EllipseParams]:
    """Ellipse triple with ||f - g||_inf <= d on the grid, or None.

    ``grid`` is an array of angles, or an int for a uniform grid of that size
    merged with the gauge's kink angles.  Each angle gives the pair

        exp(-2d - 2f) <= a2 + b2*cos(2*phi) + c2*sin(2*phi) <= exp(2d - 2f),

    and the returned triple maximizes the minimum constraint slack, so it sits
    as deep inside the feasible set as the level d allows.  This level-set
    test is independent of the minimax exchange that ``solve_uniform`` uses.
    """
    if d < 0.0:
        return None
    if np.ndim(grid) == 0:
        grid = evaluation_grid(gauge, int(grid))
    grid = np.asarray(grid, dtype=float)
    fvals = gauge.log_eval(grid)
    trig = _trig(*_cos_sin(grid))
    one = np.ones((grid.size, 1))
    rows = np.block([[-trig, one], [trig, one]])  # R - m >= lo and R + m <= hi
    b = np.concatenate([-np.exp(-2.0 * d - 2.0 * fvals), np.exp(2.0 * d - 2.0 * fvals)])
    res = _highs([0.0, 0.0, 0.0, -1.0], rows, b)
    a2, b2, c2 = (float(v) for v in res.x[:3])
    if -float(res.fun) < 0.0 or not in_cone(a2, b2, c2):
        return None
    return EllipseParams(a2, b2, c2)


def _batched_ternary_max(fun, lo: np.ndarray, hi: np.ndarray, rounds: int = 60):
    """Vectorized ternary maximization on per-element brackets."""
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    for _ in range(rounds):
        third = (b - a) / 3.0
        m1 = a + third
        m2 = b - third
        left = fun(m1) >= fun(m2)
        b = np.where(left, m2, b)
        a = np.where(left, a, m1)
    xm = 0.5 * (a + b)
    return xm, fun(xm)


@dataclasses.dataclass
class _TwoCallExtrema:
    """The reference's maxima and minima, each with h there, and its sup of |h|."""

    max_angles: np.ndarray
    max_values: np.ndarray
    min_angles: np.ndarray
    min_values: np.ndarray
    sup: float


def _refined_extrema_two_calls(h, grid: np.ndarray, hvals: np.ndarray) -> _TwoCallExtrema:
    """The refinement with separate ternary searches for maxima and minima: reference."""
    if float(hvals.max() - hvals.min()) < 1e-13:
        # flat: the canonical maxima (0, pi/2) and minima (pi/4, 3pi/4), and the grid's sup
        ang = np.arange(4) * (0.25 * math.pi)
        val = h(ang)
        return _TwoCallExtrema(ang[0::2], val[0::2], ang[1::2], val[1::2],
                               float(np.abs(hvals).max()))

    prev = np.roll(hvals, 1)
    nxt = np.roll(hvals, -1)
    lo_bracket = np.roll(grid, 1)
    lo_bracket[0] -= _PI
    hi_bracket = np.roll(grid, -1)
    hi_bracket[-1] += _PI

    imax = np.nonzero((hvals >= prev) & (hvals >= nxt))[0]
    imin = np.nonzero((hvals <= prev) & (hvals <= nxt))[0]
    max_angles, max_values = _batched_ternary_max(h, lo_bracket[imax], hi_bracket[imax])

    def neg(phi):
        return -h(phi)

    min_angles, min_neg = _batched_ternary_max(neg, lo_bracket[imin], hi_bracket[imin])
    min_values = -min_neg

    sup = max(
        float(np.abs(hvals).max()),
        float(max_values.max()) if max_values.size else -math.inf,
        float(-min_values.min()) if min_values.size else -math.inf,
    )
    return _TwoCallExtrema(
        np.mod(max_angles, _PI), max_values, np.mod(min_angles, _PI), min_values, sup
    )


def _deviation_fn(gauge, params):
    """f - g as a vectorized callable; g = -0.5*log R."""
    return lambda phi: gauge.log_eval(phi) + _half_log_trig(params, phi)


def _active_set_bodies(corpus) -> dict:
    """The conftest corpus plus seeded bodies whose kinks fill the default grid."""
    rng = np.random.default_rng(2000)
    return {
        **corpus,
        "2000-gon": polygon_gauge(bodies.regular_polygon(2000, phase=rng.uniform(0.0, math.pi))),
        "star-2000": polygon_gauge(bodies.jittered_star_polygon(rng, 1000)),
        "rough-4096": sample_gauge(1.0 + 0.2 * rng.random(4096)),
    }


class TestExchangeLP:
    def test_matches_full_grid_lp(self, corpus):
        for name, g in _active_set_bodies(corpus).items():
            grid = evaluation_grid(g, 4096)
            fvals = g.log_eval(grid)
            cos, sin = _cos_sin(grid)
            trig = _trig(cos, sin)
            w = np.exp(-2.0 * (fvals - 0.5 * float(fvals.max() + fvals.min())))

            def violation(x):
                # the stop rule's relative violation, divided by t
                R = trig @ x[:3]
                return np.maximum(w - R, R - x[3] * w) / w / x[3]

            def grid_sup(p):
                return float(np.abs(fvals + 0.5 * np.log(p.trig(grid))).max())

            x = linprog(cos, sin, w)[0]
            params = _minimax_lp(cos, sin, fvals)[0]
            ref, x_ref = _full_grid_minimax_lp(grid, fvals)

            # every grid row holds to the stop tolerance, and no worse than HiGHS's point
            assert violation(x).max() <= 1e-12, name
            assert grid_sup(params) <= grid_sup(ref) + 1e-13, name
            if violation(x_ref).max() <= 1e-12:
                # both points are feasible on the whole grid, so both are its optimum
                assert grid_sup(params) >= grid_sup(ref) - 1e-13, name

    def test_returns_its_final_reference(self, corpus):
        # on each grid run: four ascending indices with alternating signs, the signs of h
        # (the LP's own, flipped when t < 1); the 4x4 system of that reference with the LP's
        # signs gives x bit for bit, and x meets the stop rule
        for name, g in corpus.items():
            points, cos, sin = _Pieces(g).grid
            fvals = g.log_eval(points)
            trig = _trig(cos, sin)
            w = np.exp(-2.0 * (fvals - 0.5 * float(fvals.max() + fvals.min())))
            x, _, ref, sign = linprog(cos, sin, w)
            assert len(ref) == 4 and all(0 <= i < w.size for i in ref), name
            assert all(a < b for a, b in zip(ref, ref[1:])), name
            assert sign in ([1, -1, 1, -1], [-1, 1, -1, 1]), name
            t = float(x[3])
            upper = np.array(sign) * (1 if t >= 1.0 else -1) > 0
            system = np.column_stack([trig[ref], np.where(upper, -w[ref], 0.0)])
            assert np.linalg.solve(system, np.where(upper, 0.0, w[ref])).tobytes() == x.tobytes()
            R = trig @ x[:3]
            v = np.maximum(w - R, R - t * w) / w
            assert v.max() <= 1e-12 * t or int(np.argmax(v)) in ref, name

    def test_smooth_samples_at_scale(self, monkeypatch):
        # 10^5 samples put 104064 angles on the grid
        g = sample_gauge(bodies.smooth_samples(np.random.default_rng(100000), 100000))
        n = evaluation_grid(g, _GRID_SIZE).size
        rounds = _watch_linprog(monkeypatch)
        sol = solve_uniform(g)
        assert rounds[0] <= 16 * n.bit_length()
        assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed

    def test_singular_reference_is_typed(self, monkeypatch):
        levels = []
        solve = np.linalg.solve

        def singular_after_one(a, b):
            if levels:
                raise np.linalg.LinAlgError("Singular matrix")
            x = solve(a, b)
            levels.append(float(x[3]))
            return x

        monkeypatch.setattr(np.linalg, "solve", singular_after_one)
        with pytest.raises(NoConvergence) as err:
            solve_uniform(polygon_gauge(bodies.hexagon_inradius_1()))
        assert "round 2" in str(err.value)
        assert f"level t = {levels[0]!r}" in str(err.value)

    @pytest.mark.parametrize(
        "x",
        [
            (math.nan, 0.0, 0.0, 1.0),
            (1.0, 0.0, 0.0, math.inf),
            (1.0, 0.0, 0.0, -1.0),
            (1.0, 2.0, 0.0, 1.0),
        ],
        ids=["nan-triple", "inf-level", "negative-level", "out-of-cone"],
    )
    def test_bad_result_is_typed(self, monkeypatch, x):
        import bmplane.solver as solver_mod

        monkeypatch.setattr(solver_mod, "linprog",
                            lambda cos, sin, w: (np.array(x), 1, [0, 1, 2, 3], [1, -1, 1, -1]))
        with pytest.raises(NoConvergence):
            solve_uniform(lp_gauge(math.inf))

    def test_repeated_reference_is_typed(self, monkeypatch):
        # polygon 199 of the rng-99 sequence below (kappa = 1e8) brings its round-1 reference
        # back at round 3; the exchange must stop there instead of cycling to its 208-round cap
        rng = np.random.default_rng(99)
        for _ in range(200):
            v = bodies.random_convex_polygon(rng)
            t1, t2 = rng.uniform(0.0, math.pi, 2)
        g = polygon_gauge(v @ (_rotation(t1) @ np.diag([1.0, 1e-8]) @ _rotation(t2).T).T)
        calls, solve = [], np.linalg.solve

        def counting(a, b):
            calls.append(1)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        with pytest.raises(NoConvergence, match="repeats the reference"):
            solve_uniform(g)
        assert len(calls) <= 3

    def test_flat_in_family_ellipse(self, monkeypatch):
        # every grid row ties at d* = 0, so the rounding of R alone picks the worst angle:
        # the exchange must stop on its stalled reference instead of cycling to the cap
        e = EllipseParams(1.0, 0.999999, 0.0)
        rounds = _watch_linprog(monkeypatch)
        sol = solve_uniform(ellipse_gauge(e))
        assert rounds[0] <= 2
        assert sol.params.triple() == pytest.approx(e.triple(), rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("e, t", [
        (1.0 - 1e-9, 2.3134244410118656),
        (1.0 - 1e-10, 0.048033872840139734),
        (1.0 - 1e-11, 0.7980930684821934),
        (1.0 - 1e-14, 3.1345670500063334),
    ])
    def test_in_family_ellipse_near_the_cone_edge(self, e, t):
        # the solved triple is the body's own, scaled, to its rounding: h is flat, and the
        # ellipse gauge's candidates are then (0, pi/4, pi/2, 3pi/4), since the generalized
        # eigenvectors of (M, M_e) are rounding noise.  Without that branch all four end in
        # NoAlternance, on brackets 5.6e-8 to 1.1e-2 wide
        g = ellipse_gauge(EllipseParams(1.0, e * math.cos(2.0 * t), e * math.sin(2.0 * t)))
        sol = solve_uniform(g)
        assert verify_certificate(g, sol.params, sol.certificate, 1e-8).passed
        assert sol.defect <= 2e-12

    def test_in_family_ellipse_just_outside_the_matrix_test(self):
        # M is not M_e scaled to 2^-50 here, but h spreads less than 1e-13 over the canonical
        # and the eigenvector angles, so the ellipse gauge's spread test gives the canonical
        # angles.  This pins its defect; without the test the eigenvectors, where h is 0.0,
        # would give 0.0.  Both lie below max |h| on the grid (5.5e-13): the flat rule's own
        # under-report, which waits for a per-point rounding bound
        e, t = 1.0 - 1e-4, 2.403386929658889
        g = ellipse_gauge(EllipseParams(1.0, e * math.cos(2.0 * t), e * math.sin(2.0 * t)))
        sol = solve_uniform(g)
        assert sol.defect == float.fromhex("0x1.198p-46")
        assert verify_certificate(g, sol.params, sol.certificate, 1e-8).upper == sol.defect

    def test_constant_samples_report_the_grid_sup(self):
        # the linear interpolant of 64 samples of 2.5 rounds off 2.5 between the nodes: the
        # defect is max |h| over the scan's extrema, which is max |h| on the grid, 1.25*2^-51
        g = sample_gauge(np.full(64, 2.5))
        sol = solve_uniform(g)
        grid = evaluation_grid(g, _GRID_SIZE)
        sup = float(np.abs(g.log_eval(grid) + _half_log_trig(sol.params, grid)).max())
        assert sol.defect == sup == 1.25 * 2.0**-51

    def test_stalled_reference_below_one_flips(self):
        # four angles a quarter apart are the whole problem and the start reference, with + at
        # the least w: its level t = (w1 + w3)/(w0 + w2) is below 1, and no exchange can move.
        # R/w then lies in [t, 1], so the flipped reference is optimal at level 1/t
        grid = np.arange(4) * (0.25 * math.pi)
        (cos, sin), w = _cos_sin(grid), np.array([0.5, 1.0, 10.0, 1.0])
        trig = _trig(cos, sin)
        x, rounds, ref, sign = linprog(cos, sin, w)
        assert rounds == 1
        assert ref == [0, 1, 2, 3] and sign == [-1, 1, -1, 1]  # the signs of h: flipped
        assert x[3] == pytest.approx(2.0 / 10.5, rel=1e-14)
        rows = np.block([[-trig, np.zeros((4, 1))], [trig, -w[:, None]]])
        best = _highs([0.0, 0.0, 0.0, 1.0], rows, np.concatenate([-w, np.zeros(4)]))
        assert best.x[3] == pytest.approx(1.0 / x[3], rel=1e-12)
        # the rescaled triple meets the flipped reference's equalities: R = w/t at +, R = w at -
        sign = np.array(sign)
        R = trig @ (x[:3] / x[3])
        assert np.where(sign > 0, R - w / x[3], R - w) == pytest.approx(np.zeros(4), abs=1e-12)


def _refinement_bodies(corpus) -> dict:
    """The corpus, the large-style bodies and rough linear and pchip samples."""
    rng = np.random.default_rng(7001)
    return {
        **_active_set_bodies(corpus),
        "regular-2000": polygon_gauge(bodies.regular_polygon(2000)),
        "rough-8192": sample_gauge(1.0 + 0.2 * rng.random(8192)),
        "rough-100000": sample_gauge(1.0 + 0.2 * rng.random(100000)),
        "rough-pchip-300": sample_gauge(1.0 + 0.2 * rng.random(300), interp="pchip"),
    }


def _calls_per_scan(monkeypatch, g) -> list:
    """[calls of h, calls of h' by the root-find] per extremum scan of a solve and its verification.

    h is evaluated as f - g, so its calls are the gauge's ``log_eval`` calls inside a scan.
    """
    import bmplane.solver as solver_mod
    from bmplane.gauge import Gauge

    counts, inside = [], []
    scan, roots, log_eval = solver_mod._extrema_scan, solver_mod._illinois, Gauge.log_eval

    def counted_scan(*args, **kwargs):
        counts.append([0, 0])
        inside.append(True)
        try:
            return scan(*args, **kwargs)
        finally:
            inside.pop()

    def counted_log_eval(self, phi):
        if inside:
            counts[-1][0] += 1
        return log_eval(self, phi)

    def counted_roots(fn, *args):
        def call(phi):
            counts[-1][1] += 1
            return fn(phi)

        return roots(call, *args)

    monkeypatch.setattr(solver_mod, "_extrema_scan", counted_scan)
    monkeypatch.setattr(Gauge, "log_eval", counted_log_eval)
    monkeypatch.setattr(solver_mod, "_illinois", counted_roots)
    sol = solve_uniform(g)
    assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed
    return counts


def _assert_scan_calls(monkeypatch, g):
    """Each scan calls h once; a polygon's is closed-form, any other root-finds within the cap."""
    counts = np.array(_calls_per_scan(monkeypatch, g))
    assert counts.size and (counts[:, 0] == 1).all()
    if g.descriptor()["kind"] == "polygon":
        assert (counts[:, 1] == 0).all()
    else:
        assert counts[:, 1].max() <= _ROOT_STEPS


def _lp_triple(g):
    """(grid, f on it, the grid minimax triple)."""
    grid = evaluation_grid(g, 4096)
    fvals = g.log_eval(grid)
    params = _minimax_lp(*_cos_sin(grid), fvals)[0]
    return grid, fvals, params


def _lp_deviation(g):
    """(grid, h, hvals, params) of the deviation of the grid minimax triple."""
    grid, fvals, params = _lp_triple(g)
    return grid, _deviation_fn(g, params), fvals + 0.5 * np.log(params.trig(grid)), params


def _nearest(ref_angles: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Index into angles of the one nearest each reference angle, mod pi."""
    order = np.argsort(angles)
    ring = np.concatenate([angles[order[-1:]] - math.pi, angles[order],
                           angles[order[:1]] + math.pi])
    ref = np.mod(ref_angles, math.pi)
    above = np.searchsorted(ring, ref).clip(1, ring.size - 1)
    pick = np.where(ref - ring[above - 1] <= ring[above] - ref, above - 1, above)
    return order[(pick - 1) % angles.size]


class TestRefinement:
    def test_matches_two_call_refinement(self, corpus):
        # the ternary search from the grid is the reference: one scan angle per extremum of
        # either sign, h at the one nearest each no less extreme by more than 1e-14, and a sup
        # no lower by more than 1e-15
        for name, g in _refinement_bodies(corpus).items():
            grid, h, hvals, params = _lp_deviation(g)
            scan = _extrema_scan(g, params, _Pieces(g))
            ref = _refined_extrema_two_calls(h, grid, hvals)
            values = h(scan.angles)
            assert _distinct(scan.angles).size == ref.max_values.size + ref.min_values.size, name
            i = _nearest(ref.max_angles, scan.angles)
            assert np.all(values[i] >= ref.max_values - 1e-14), name
            i = _nearest(ref.min_angles, scan.angles)
            assert np.all(values[i] <= ref.min_values + 1e-14), name
            assert scan.sup >= ref.sup - 1e-15, name
            # the sup is |h| at a scan angle, bit for bit, so a higher sup is a value of h: on
            # star-2000 two edge lines miss each other by 2.4e-15 at a vertex, and the scan's
            # float next to it sees the higher one
            assert float(np.abs(values).max()) == scan.sup, name

    @pytest.mark.parametrize(
        "g",
        [
            lp_gauge(math.inf),
            sample_gauge(bodies.smooth_samples(np.random.default_rng(0), 128)),
            polygon_gauge(bodies.jittered_star_polygon(np.random.default_rng(0), 1000)),
        ],
        ids=["square", "samples128", "star-2000"],
    )
    def test_kinks_take_one_probe(self, monkeypatch, g):
        # the reference puts every extremum on a grid angle (a kink, or the square's axes):
        # to rounding at a kink, to about its square root at a smooth extremum; the scan
        # values them all by one call of h, and root-finds h' within its step cap
        grid, h, hvals, _ = _lp_deviation(g)
        ref = _refined_extrema_two_calls(h, grid, hvals)
        for ang in (ref.max_angles, ref.min_angles):
            gap = np.abs(ang[:, None] - np.concatenate([grid, [math.pi]])[None, :]).min(axis=1)
            assert gap.max() < 1e-7
        _assert_scan_calls(monkeypatch, g)

    @pytest.mark.parametrize(
        "g",
        [
            *(lp_gauge(p) for p in (1.0, 1.5, 3.0, 7.0)),
            *(sample_gauge(bodies.smooth_samples(np.random.default_rng(i), 128), interp="pchip")
              for i in range(3)),
            sample_gauge(1.0 + 0.2 * np.random.default_rng(300).random(300), interp="pchip"),
            *(polygon_gauge(bodies.regular_polygon(n, phase=0.3)) for n in (60, 400, 2000)),
        ],
        ids=["l1", "l1.5", "l3", "l7", "pchip-0", "pchip-1", "pchip-2", "rough-pchip",
             "60-gon", "400-gon", "2000-gon"],
    )
    def test_smooth_extrema_call_cap(self, monkeypatch, g):
        # the root-find on h' settles smooth extrema within its step cap, and one call of h
        # values them; the polygons' minima are in closed form, with no root-find
        _assert_scan_calls(monkeypatch, g)

    def test_polygon_scan_matches_references(self, corpus):
        # at least as extreme as the ternary search at each of its extrema, and the sup of the
        # boundary's own quadratic
        for name, g in _refinement_bodies(corpus).items():
            descriptor = g.descriptor()
            if descriptor["kind"] != "polygon":
                continue
            grid, fvals, params = _lp_triple(g)
            h = _deviation_fn(g, params)
            ref = _refined_extrema_two_calls(h, grid, fvals + 0.5 * np.log(params.trig(grid)))
            scan = _extrema_scan(g, params, _Pieces(g))
            # one extremum per turn of the slope; the edge across 0 and pi is one piece
            values = h(scan.angles)
            assert _distinct(scan.angles).size == ref.max_angles.size + ref.min_angles.size, name
            i = _nearest(ref.max_angles, scan.angles)
            assert np.all(values[i] >= ref.max_values - 1e-14), name
            i = _nearest(ref.min_angles, scan.angles)
            assert np.all(values[i] <= ref.min_values + 1e-14), name
            exact = bodies.polygon_deviation_sup(np.array(descriptor["vertices"]), params)
            assert scan.sup == pytest.approx(exact, rel=0.0, abs=1e-15), name


class TestOneEvaluationPerAngle:
    def test_trig_table_gives_params_trig_bits(self, solved_corpus):
        # R from the grid's shared cos 2phi and sin 2phi is the bits of EllipseParams.trig's R
        rng = np.random.default_rng(16)
        triples = [sol.params for _, sol in solved_corpus.values()]
        triples += [bodies.random_incone_params(rng) for _ in range(5)]
        for g, _ in solved_corpus.values():
            grid = evaluation_grid(g, 4096)
            _, cos, sin = _Pieces(g).grid
            for p in triples:
                assert _R(p, cos, sin).tobytes() == p.trig(grid).tobytes()

    def test_certificate_is_the_returned_runs_reference(self, corpus, monkeypatch):
        # the certificate is the last reference of the exchange run whose triple the solve
        # returns, rotated to start at a + point, and it passes at _CERT_TOL: also on the
        # 20000-gon, the 30000-gon and the wobble, whose defect is below _CERT_TOL
        tol = _CERT_TOL
        rng = np.random.default_rng(7001)
        nodes = np.arange(4096) * math.pi / 4096
        runs = _watch_runs(monkeypatch)
        for name, g in {
            **_active_set_bodies(corpus),
            "regular-2000": polygon_gauge(bodies.regular_polygon(2000)),
            "rough-8192": sample_gauge(1.0 + 0.2 * rng.random(8192)),
            "regular-20000": polygon_gauge(bodies.regular_polygon(20000)),
            "regular-30000": polygon_gauge(bodies.regular_polygon(30000, phase=0.3)),
            "wobble-4096": sample_gauge(1.0 + 1e-9 * np.cos(6.0 * nodes)),
            "l2": lp_gauge(2.0),
            "ones-64": sample_gauge(np.ones(64)),
            "ones-64-pchip": sample_gauge(np.ones(64), interp="pchip"),
            "ones-4096": sample_gauge(np.ones(4096)),
        }.items():
            runs.clear()
            sol = solve_uniform(g)
            cert = sol.certificate
            cos, sin, _, ref, sign = next(run for run in runs if run[2] == sol.params)
            assert ref == sorted(ref) and len(set(ref)) == 4, name
            r = int(sign[0] < 0)
            assert np.roll(sign, -r).tolist() == [1, -1, 1, -1], name
            # cos 2phi and sin 2phi at its angles are the run's at its reference
            rows = np.roll(np.column_stack([cos[ref], sin[ref]]), -r, axis=0)
            assert np.abs(rows - np.column_stack(_cos_sin(np.array(cert.angles())))).max() \
                <= 1e-15, name
            assert cert.interleaved() and (cert.psi2 < math.pi) == (r == 0), name
            verdict = verify_certificate(g, sol.params, cert, tol)
            assert verdict.passed and sol.defect == verdict.upper, name
            # its residuals are the signed deviations of the returned triple less the defect
            floor = _rounding_of_h(g)
            dev = np.array(certificate_deviations(g, sol.params, cert))
            assert np.abs(dev - sol.defect - cert.residuals).max() \
                <= _residual_slack(g, sol.params), name
            assert all(-tol <= v <= floor for v in cert.residuals), name
            if name in ("circle", "ones-64", "ones-64-pchip", "ones-4096"):
                # f is constant: the exchange stops on its start reference, the canonical angles
                assert cert.angles() == (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi), name
            if sol.defect > floor:  # h has the signs (+, -, +, -) there
                assert dev.min() > 0.0, name
            else:
                assert name in ("circle", "ellipse", "l2", "ones-64", "ones-64-pchip",
                                "ones-4096"), name

    @pytest.mark.parametrize(
        "g",
        [
            *(sample_gauge(1.0 + 0.2 * np.random.default_rng(n).random(n)) for n in (4096, 8192)),
            polygon_gauge(bodies.jittered_star_polygon(np.random.default_rng(2000), 1000)),
        ],
        ids=["rough-4096", "rough-8192", "star-2000"],
    )
    def test_one_exchange_run_per_loop_run(self, monkeypatch, g):
        # the certificate runs no exchange of its own: linprog is called by the grid run and
        # by each later run of the loop, each of which scans its triple once, and by nothing else
        import bmplane.solver as solver_mod

        scans, scan = [], solver_mod._extrema_scan

        def counted(*args, **kwargs):
            scans.append(1)
            return scan(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "_extrema_scan", counted)
        rounds = _watch_linprog(monkeypatch)
        sol = solve_uniform(g)
        assert len(rounds) == len(scans)
        assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed

    @pytest.mark.parametrize(
        "g",
        [
            lp_gauge(1.5),
            sample_gauge(bodies.smooth_samples(np.random.default_rng(3), 128)),
            sample_gauge(bodies.smooth_samples(np.random.default_rng(1), 128), interp="pchip"),
            polygon_gauge(bodies.hexagon_inradius_1()),
        ],
        ids=["l1.5", "samples128", "pchip128", "hexagon"],
    )
    def test_one_gauge_pass_over_the_grid(self, monkeypatch, g):
        # the solve hands its grid to the gauge once, for f and, on a gauge scanned by its
        # slopes, f' too; every other call is a scan's, so the later runs take f from the scan
        rounds = _watch_linprog(monkeypatch)
        calls = _gauge_calls(monkeypatch, g)
        grid = _Pieces(g).grid[0]
        on_grid = [i for i, (phi, _) in enumerate(calls) if np.array_equal(phi, grid)]
        outside = [i for i, (_, in_scan) in enumerate(calls) if not in_scan]
        assert on_grid == outside == [0]
        assert len(rounds) >= (1 if g.descriptor()["kind"] == "lp" else 2)

    @pytest.mark.parametrize(
        "g, runs",
        [
            (lp_gauge(1.5), 1),
            (sample_gauge(bodies.smooth_samples(np.random.default_rng(3), 128)), 2),
            (sample_gauge(1.0 + 0.2 * np.random.default_rng(8192).random(8192)), 1),
            (sample_gauge(bodies.smooth_samples(np.random.default_rng(1), 128), interp="pchip"), 2),
            (sample_gauge(1.0 + 0.2 * np.random.default_rng(300).random(300), interp="pchip"), 2),
        ],
        ids=["l1.5", "samples128", "rough-8192", "pchip128", "rough-pchip"],
    )
    def test_scans_value_grid_extrema_from_the_grid_pass(self, monkeypatch, g, runs):
        # every scan of a solve (runs of them at least), the later runs' too, calls the gauge's
        # log_eval once, at its roots only: f at its grid-angle extrema is the grid pass's.
        # verify_certificate's scan, which holds no grid f, calls it once, at its grid-angle
        # extrema too.  Without the grid f a scan returns the same angles, f
        # and sup, bit for bit
        import bmplane.solver as solver_mod

        records = []  # [params, pieces, scan, log_eval's angles, raw roots] of each scan
        inside, scan, illinois = [], solver_mod._extrema_scan, solver_mod._illinois
        log_eval = g.log_eval

        def watched_scan(gauge, params, pieces):
            records.append([params, pieces, None, [], []])
            inside.append(True)
            try:
                records[-1][2] = scan(gauge, params, pieces)
            finally:
                inside.pop()
            return records[-1][2]

        def watched_log_eval(phi):
            if inside:
                records[-1][3].append(np.array(phi))
            return log_eval(phi)

        def watched_roots(*args):
            records[-1][4].append(illinois(*args))
            return records[-1][4][-1]

        monkeypatch.setattr(solver_mod, "_extrema_scan", watched_scan)
        monkeypatch.setattr(solver_mod, "_illinois", watched_roots)
        monkeypatch.setattr(g, "log_eval", watched_log_eval)
        sol = solve_uniform(g)
        assert len(records) >= runs
        runs = len(records)
        assert verify_certificate(g, sol.params, sol.certificate, 1e-8).passed
        assert len(records) == runs + 1
        for i, (_, pieces, out, calls, roots) in enumerate(records):
            assert (pieces.f is not None) == (i < runs)
            assert len(calls) == len(roots) == 1
            off = np.mod(roots[0], math.pi)
            assert calls[0][:off.size].tobytes() == off.tobytes()
            turns = calls[0][off.size:]
            assert turns.size == 0 if i < runs else np.isin(turns, pieces.grid[0]).all()
        for params, _, out, *_ in records[:runs]:
            plain = scan(g, params, _Pieces(g))
            for a, b in ((plain.angles, out.angles), (plain.f, out.f)):
                assert a.tobytes() == b.tobytes()
            assert plain.sup == out.sup

    @pytest.mark.parametrize(
        "g",
        [
            *(lp_gauge(p) for p in (1.0, 1.5, 3.0, 50.0, math.inf)),
            sample_gauge(bodies.smooth_samples(np.random.default_rng(0), 128)),
            sample_gauge(1.0 + 0.2 * np.random.default_rng(8192).random(8192)),
            sample_gauge(bodies.smooth_samples(np.random.default_rng(1), 128), interp="pchip"),
            sample_gauge(1.0 + 0.2 * np.random.default_rng(300).random(300), interp="pchip"),
            polygon_gauge(bodies.hexagon_inradius_1()),
            ellipse_gauge(EllipseParams(1.0, 0.2, 0.1)),
        ],
        ids=["l1", "l1.5", "l3", "l50", "linf", "samples128", "rough-8192", "pchip128",
             "rough-pchip", "hexagon", "ellipse"],
    )
    def test_grid_f_and_slopes_are_log_eval_and_log_slopes(self, monkeypatch, g):
        # the f that the grid run solves on is log_eval's, bit for bit, and the scan's slopes
        # on the grid are log_slopes'; a gauge with closed-form extrema takes no slopes
        import bmplane.solver as solver_mod

        seen, minimax, scan = [], solver_mod._minimax_lp, solver_mod._extrema_scan

        def first_f(cos, sin, fvals, *args, **kwargs):
            seen.append(fvals)
            return minimax(cos, sin, fvals, *args, **kwargs)

        def first_pieces(gauge, params, pieces, *args, **kwargs):
            seen.append(pieces)
            return scan(gauge, params, pieces, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "_minimax_lp", first_f)
        monkeypatch.setattr(solver_mod, "_extrema_scan", first_pieces)
        solve_uniform(g)
        fvals, pieces = seen[:2]
        grid = pieces.grid[0]
        assert fvals.tobytes() == g.log_eval(grid).tobytes()
        if g.extremum_candidates(EllipseParams(1.0, 0.0, 0.0)) is None:
            for ours, ref in zip(pieces.slopes, g.log_slopes(grid)):
                assert ours.tobytes() == ref.tobytes()
        else:
            assert pieces.slopes is None


def _gauge_calls(monkeypatch, g) -> list:
    """(angles, inside a scan) of each call the solve makes to the gauge's eval, log_eval,
    log_slopes or log_jet, in order, counting a call made inside another as part of it."""
    import bmplane.solver as solver_mod

    calls, depth, scans = [], [], []
    scan = solver_mod._extrema_scan

    def counted_scan(*args, **kwargs):
        scans.append(True)
        try:
            return scan(*args, **kwargs)
        finally:
            scans.pop()

    for name in ("eval", "log_eval", "log_slopes", "log_jet"):
        def counted(phi, method=getattr(g, name)):
            if not depth:
                calls.append((np.array(phi), bool(scans)))
            depth.append(True)
            try:
                return method(phi)
            finally:
                depth.pop()

        monkeypatch.setattr(g, name, counted)
    monkeypatch.setattr(solver_mod, "_extrema_scan", counted_scan)
    solve_uniform(g)
    return calls


def _evaluation_grid_by_search(kinks: np.ndarray, n: int) -> np.ndarray:
    """The merge rule as a search: every base angle's nearest kinks found by searchsorted,
    and the merged grid by a full sort."""
    base = np.arange(n) * (math.pi / n)
    crit = np.sort(kinks)
    if crit.size == 0:
        return base
    crit = crit[np.append(True, np.diff(crit) > 1e-13)]
    ends = np.concatenate([[-math.inf], crit, [math.inf]])
    i = np.searchsorted(crit, base)  # base lies between ends[i] and ends[i + 1]
    far = np.minimum(base - ends[i], ends[i + 1] - base) > 1e-13
    return np.sort(np.concatenate([base[far], crit]))


class _Kinks(Gauge):
    def __init__(self, kinks):
        self._kinks = np.asarray(kinks, dtype=float)

    def critical_angles(self) -> np.ndarray:
        return self._kinks


def _bench_bodies(seed: int) -> list:
    """Every body of the benchmark's workloads at this seed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bodies.py"
    spec = importlib.util.spec_from_file_location("bench_bodies", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # its dataclass looks itself up in sys.modules
    return [b for make in (module.corpus_bodies, module.large_bodies, module.oracle_bodies,
                           module.cli_bodies) for b in make(seed)]


class TestGrid:
    """A body's grid is the shared uniform grid merged with its kinks: bit for bit the angles
    of ``evaluation_grid`` and their np.cos and np.sin of 2phi, in three contiguous arrays."""

    @staticmethod
    def _assert_grid(g, n: int = _GRID_SIZE):
        angles, cos, sin = _Pieces(g).grid if n == _GRID_SIZE else _grid_table(g, n)
        ref = evaluation_grid(g, n)
        by_search = _evaluation_grid_by_search(g.critical_angles(), n)
        assert ref.tobytes() == by_search.tobytes()
        assert angles.tobytes() == ref.tobytes()
        assert cos.tobytes() == np.cos(2.0 * ref).tobytes()
        assert sin.tobytes() == np.sin(2.0 * ref).tobytes()
        assert all(a.flags.c_contiguous for a in (angles, cos, sin))

    @pytest.mark.parametrize("seed", [1, 7, 901])
    def test_bench_bodies(self, seed):
        # also at the oracle's grid sizes: its table is the same function's
        for b in _bench_bodies(seed):
            for n in (_GRID_SIZE, 256, 1000, 1024):
                self._assert_grid(b.gauge, n)

    def test_synthetic_kink_sets(self):
        n = _GRID_SIZE
        base = np.arange(n) * (math.pi / n)
        rng = np.random.default_rng(33)
        # 1e-13 is exactly the distance of 1e-13 from the base angle 0 and from the kink 0
        sets = [[0.0], [1e-13], [0.0, 1e-13], [math.pi - 5e-14],
                np.arange(8192) * (math.pi / 8192), np.sort(rng.uniform(0.0, math.pi, 8192))]
        for _ in range(60):
            on = base[rng.integers(0, n, int(rng.integers(1, 40)))]
            near = on + rng.uniform(-2e-13, 2e-13, on.size)
            sets += [
                on,  # on base angles: the base itself
                near,  # within +-2e-13 of one: some give way
                np.concatenate([on, on + rng.uniform(0.0, 1e-13, on.size)]),  # duplicates
                np.concatenate([near, near - rng.uniform(0.0, 1e-13, near.size), [0.0]]),
                np.concatenate([on + 1e-13, on - 1e-13, np.nextafter(on + 1e-13, 4.0),
                                np.nextafter(on - 1e-13, -1.0)]),  # at the 1e-13 edge
                rng.permutation(np.concatenate([near, rng.uniform(0.0, math.pi, 20)])),
            ]
        for kinks in sets:
            kinks = np.asarray(kinks, dtype=float)
            self._assert_grid(_Kinks(kinks[(kinks >= 0.0) & (kinks < math.pi)]))

    def test_kinks_on_base_angles_share_the_base(self):
        # no kinks, or kinks that are base angles bit for bit: the shared read-only arrays, for
        # the solve's grid, evaluation_grid and the oracle's table alike
        nodes = np.arange(128) * math.pi / 128
        for n in (_GRID_SIZE, 1024):
            shared = _base_grid(n)
            assert shared[0].tobytes() == (np.arange(n) * (math.pi / n)).tobytes()
            for g in (lp_gauge(3.0), lp_gauge(1.0), lp_gauge(math.inf),
                      sample_gauge(1.0 + 0.1 * np.cos(nodes)), _Kinks(shared[0])):
                assert _grid_table(g, n) is shared and evaluation_grid(g, n) is shared[0]
                assert n != _GRID_SIZE or _Pieces(g).grid is shared
        for a in shared:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestFeasibleAt:
    def test_circle_at_zero(self):
        params = feasible_at(circle_gauge(), 0.0, 512)
        assert params is not None
        assert params.triple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)

    def test_square_below_optimum_empty(self):
        assert feasible_at(lp_gauge(math.inf), 0.9 * SQUARE_DEFECT, 2048) is None

    def test_square_above_optimum_feasible(self):
        params = feasible_at(lp_gauge(math.inf), 1.1 * SQUARE_DEFECT, 2048)
        assert params is not None
        assert params.a2 == pytest.approx(2.0 ** -0.5, rel=0.1)

    def test_monotone_feasibility(self):
        g = lp_gauge(math.inf)
        grid = evaluation_grid(g, 1024)
        pattern = [
            feasible_at(g, t * SQUARE_DEFECT, grid) is not None
            for t in (0.25, 0.5, 0.9, 0.999, 1.001, 1.2, 2.0, 5.0)
        ]
        assert pattern == sorted(pattern)  # False..False then True..True
        assert pattern[-1] and not pattern[0]

    def test_negative_level_empty(self):
        assert feasible_at(circle_gauge(), -0.1, 256) is None

    def test_level_set_brackets_solver_defect(self, solved_corpus):
        # the max-margin level set, an LP independent of the solver's, flips at d*
        for name, (g, sol) in solved_corpus.items():
            if CLOSED_FORM_D2.get(name) == 1.0:
                continue  # d* = 0: the solved defect is rounding, not a level
            grid = evaluation_grid(g, 4096)
            assert feasible_at(g, sol.defect * (1.0 + 1e-6), grid) is not None, name
            assert feasible_at(g, sol.defect * (1.0 - 1e-6), grid) is None, name


class TestSolveUniform:
    def test_circle(self):
        sol = solve_uniform(circle_gauge())
        assert sol.defect <= 1e-10
        assert sol.params.triple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)
        assert sol.certificate.angles() == pytest.approx(
            (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4))

    def test_ellipse_identity(self):
        e = EllipseParams(1.0, 0.2, 0.1)
        sol = solve_uniform(ellipse_gauge(e))
        assert sol.defect <= 1e-8
        assert sol.params.triple() == pytest.approx(e.triple(), abs=1e-6)

    def test_square(self):
        sol = solve_uniform(lp_gauge(math.inf))
        assert sol.defect == pytest.approx(SQUARE_DEFECT, abs=1e-9)
        assert sol.params.triple() == pytest.approx((2.0 ** -0.5, 0.0, 0.0), abs=1e-6)

    def test_kink_bodies_stop_after_the_grid_run(self, monkeypatch):
        # every extremum is a kink on the grid, so the grid optimum is the continuum one
        rng = np.random.default_rng(1000)
        rounds = _watch_linprog(monkeypatch)
        for g in (
            lp_gauge(math.inf),
            polygon_gauge(bodies.jittered_star_polygon(rng, 1000)),
            sample_gauge(1.0 + 0.2 * rng.random(4096)),
        ):
            rounds.clear()
            solve_uniform(g)
            assert len(rounds) == 1

    def test_closed_forms(self, solved_corpus):
        for name, d2 in CLOSED_FORM_D2.items():
            sol = solved_corpus[name][1]
            assert math.exp(2.0 * sol.defect) == pytest.approx(d2, rel=1e-12, abs=0.0), name

    def test_grid_size_invariance(self, solved_corpus, monkeypatch):
        # the exchange runs on refined extrema until sup and level agree, whatever the grid
        monkeypatch.setattr("bmplane.solver._GRID_SIZE", 256)
        for name, (g, sol) in solved_corpus.items():
            coarse = solve_uniform(g)
            assert math.exp(2.0 * coarse.defect) == pytest.approx(
                math.exp(2.0 * sol.defect), rel=1e-12, abs=0.0), name

    # at 1e+-100 and 1e+-150 the squares of the triple's entries, and the products of the
    # report's form's entries, over- or underflow unless in_cone and PDMatrix2 scale first
    @pytest.mark.parametrize("scale", [1e8, 1e-8, 1e100, 1e-100, 1e150, 1e-150])
    def test_extreme_scale(self, solved_corpus, scale):
        # every corpus body with a size: polygons and samples scaled, the ellipse's triple
        # times scale**-2, the circle of radius scale; the lp balls have the unit size.  Each
        # solves, certifies, and reports, and its stored report rebuilds and renders
        for name, (g, sol) in solved_corpus.items():
            d = g.descriptor()
            if name == "circle":
                scaled = circle_gauge(scale)
            elif d["kind"] == "polygon":
                scaled = polygon_gauge(scale * np.array(d["vertices"]))
            elif d["kind"] == "samples":
                scaled = sample_gauge(scale * np.array(d["samples"]))
            elif d["kind"] == "ellipse":
                scaled = ellipse_gauge(EllipseParams(*(scale**-2.0 * np.array(d["params"]))))
            else:
                continue
            scaled_sol = solve_uniform(scaled)
            assert math.exp(2.0 * scaled_sol.defect) == pytest.approx(
                math.exp(2.0 * sol.defect), rel=1e-12, abs=0.0), name
            assert verify_certificate(scaled, scaled_sol.params, scaled_sol.certificate,
                                      1e-6).passed, name
            report = build_report(scaled, scaled_sol)
            assert verify_theorem1(report).passed, name
            stored = jsonio.loads(jsonio.dumps(report_to_dict(report)))
            assert report_mismatches(scaled, report_from_dict(stored), stored, 1e-12) == [], name
            for view in ("body", "image"):
                assert render_svg(report, scaled, view).startswith("<?xml"), name
            if name == "square-polygon":
                assert math.exp(2.0 * scaled_sol.defect) == pytest.approx(
                    math.sqrt(2.0), rel=1e-12, abs=0.0)

    def test_tiny_scale_is_typed(self):
        # below a scale of about 1.6e-154 the triple's rescaling exp(-2*fc) overflows
        for g in (
            polygon_gauge(1e-160 * bodies.square_vertices()),
            sample_gauge(1e-160 * (1.0 + 0.1 * np.cos(np.arange(16)))),
        ):
            with pytest.raises(NoConvergence, match="overflows"):
                solve_uniform(g)

    def test_thin_rhombus_past_the_float_range_is_typed(self):
        # at s = 2^-499 the solved triple's R = a2 + b2*cos + c2*sin overflows on the grid, and
        # that triple's form M overflows too, so the polygon's slopes are NaN and its scan has
        # no candidate: the solve and the scan each end typed, with no RuntimeWarning (pytest
        # makes one an error)
        s = 2.0**-499
        g = polygon_gauge(s * np.array([[1.0, 0.0], [0.0, 1e-4], [-1.0, 0.0], [0.0, -1e-4]]))
        with pytest.raises(NoConvergence, match=r"^R overflows for the triple \(1\.50130"):
            solve_uniform(g)
        triple = EllipseParams(1.5013079965082733e308, -1.5013079664821137e308,
                               -2.6621999302410755e292)
        with pytest.raises(NoConvergence, match="no extremum"):
            _extrema_scan(g, triple, _Pieces(g))

    @pytest.mark.parametrize("body, triple, ending", [
        ("square", (1e308, 0.0, 0.0), "the scan of the triple .* finds no extremum"),
        ("square", (1.5e308, -1.4e308, 1e300), "the scan of the triple .* finds no extremum"),
        ("ellipse", (1e308, 0.0, 0.0), (0.0, "0x1.62b982d20d70bp+8")),
        ("ellipse", (1.5e308, -1.4e308, 1e300), "^R overflows"),
        ("circle", (1e308, 0.0, 0.0), (0.0, "0x1.62991d5d62a5ep+8")),
        ("circle", (1.5e308, -1.4e308, 1e300), "^R overflows"),
    ], ids=[f"{body}-{a2:g}" for body in ("square", "ellipse", "circle")
            for a2 in (1e308, 1.5e308)])
    def test_foreign_triple_past_the_float_range_ends_without_a_warning(self, body, triple,
                                                                        ending):
        # a triple whose form overflows on a closed-form gauge (the polygon's edge slopes, the
        # ellipse's trace and R) ends in a verdict or NoConvergence, with no RuntimeWarning
        g = {"square": polygon_gauge(bodies.square_vertices()),
             "ellipse": ellipse_gauge(EllipseParams(1.0, 0.2, 0.1)),
             "circle": circle_gauge()}[body]
        cert = AlternanceCertificate(0.01, 0.02, 0.03, 0.04, (0.0,) * 4)
        if isinstance(ending, str):
            with pytest.raises(NoConvergence, match=ending):
                verify_certificate(g, EllipseParams(*triple), cert, 1e-8)
        else:
            verdict = verify_certificate(g, EllipseParams(*triple), cert, 1e-8)
            assert verdict == CertificateVerdict(False, ending[0], float.fromhex(ending[1]))

    def test_grid_sup_matches_defect(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            grid = evaluation_grid(g, 4096)
            h = g.log_eval(grid) + 0.5 * np.log(sol.params.trig(grid))
            sup = float(np.abs(h).max())
            assert sol.defect - 1e-8 <= sup <= sol.defect + 1e-8, name

    def test_defect_and_certificate_come_from_the_final_params(self, solved_corpus):
        # the defect is the sup of sol.params' scan, and the certificate is the reference of
        # the run that gave sol.params: its residuals are sol.params' signed deviations at its
        # angles less the defect, to the rounding of h, and it brackets d* within _CERT_TOL
        for name, (g, sol) in solved_corpus.items():
            verdict = verify_certificate(g, sol.params, sol.certificate, _CERT_TOL)
            assert sol.defect == verdict.upper, name
            assert verdict.passed, name
            dev = np.array(certificate_deviations(g, sol.params, sol.certificate))
            assert verdict.lower == max(0.0, float(dev.min())), name
            assert np.abs(dev - sol.defect - sol.certificate.residuals).max() \
                <= _residual_slack(g, sol.params), name

    def test_regular_2000gon(self):
        # thousands of extrema in the point set of the exchange on refined extrema
        g = polygon_gauge(bodies.regular_polygon(2000))
        d2 = 1.0 / math.cos(math.pi / 2000.0)
        assert distance(g) == pytest.approx(d2, rel=1e-14, abs=0.0)

    def test_rotated_2000gon(self):
        # t* - 1 is only 2.5e-6 here: an LP point off by its solver's tolerance shows in d2
        rng = np.random.default_rng(7)
        d2 = 1.0 / math.cos(math.pi / 2000.0)
        for _ in range(10):
            g = polygon_gauge(bodies.regular_polygon(2000, phase=rng.uniform(0.0, math.pi)))
            assert distance(g) == pytest.approx(d2, rel=1e-14, abs=0.0)

    def test_ill_conditioned_polygons_end_typed(self):
        # images under Q diag(1, 1e-8) Q': every body must end in a verified certificate or a
        # typed error, never a raw exception or a numpy warning
        rng = np.random.default_rng(99)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(60):
                v = bodies.random_convex_polygon(rng)
                t1, t2 = rng.uniform(0.0, math.pi, 2)
                g = polygon_gauge(v @ (_rotation(t1) @ np.diag([1.0, 1e-8]) @ _rotation(t2).T).T)
                try:
                    sol = solve_uniform(g)
                except BmplaneError:
                    continue
                assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed

    def test_triple_on_the_cone_boundary_in_floats_is_typed(self):
        # a triple just inside the cone whose R rounds to 0.0 at one angle
        r, t, phi = 1.0 - 2.0**-53, 5.109927617709579, 0.9841674820598936
        e = EllipseParams(1.0, r * math.cos(t), r * math.sin(t))
        cert = AlternanceCertificate(phi, phi, phi, phi, (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(NoConvergence, match=r"R = 0\.0 <= 0"):
            certificate_deviations(circle_gauge(), e, cert)

    def test_stress_linear_images(self):
        # images under rot(t1) diag(1, 1/kappa) rot(t2) of 25 polygons per kappa, drawn in one
        # sequence: up to kappa = 1e3 the solve matches the unmapped body; at 1e4 the rounding of
        # R may end a solve typed, but verify's upper end must agree with the boundary's own sup
        # to that rounding: R cancels to 1/kappa^2 of its terms, so within 2*eps*kappa^2
        rng = np.random.default_rng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kappa in (10.0, 1e2, 1e3, 1e4):
                for i in range(25):
                    v = bodies.random_convex_polygon(rng)
                    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
                    image = v @ (_rotation(t1) @ np.diag([1.0, 1.0 / kappa]) @ _rotation(t2)).T
                    g = polygon_gauge(image)
                    try:
                        sol = solve_uniform(g)
                    except BmplaneError:
                        assert kappa == 1e4, i
                        continue
                    verdict = verify_certificate(g, sol.params, sol.certificate, 1e-6)
                    exact = bodies.polygon_deviation_sup(image, sol.params)
                    assert abs(verdict.upper - exact) <= 4.4e-16 * kappa**2, (kappa, i)
                    if kappa <= 1e3:
                        assert verdict.passed, (kappa, i)
                        assert math.exp(2.0 * sol.defect) == pytest.approx(
                            distance(polygon_gauge(v)), rel=1e-9, abs=0.0), (kappa, i)

    def test_five_point_pchip_optimum_certifies(self):
        # the optimum alternates at five extrema, so two maxima are neighbours across pi: the
        # certificate is the four of them that the exchange's last reference holds
        g = sample_gauge([1.0, 1.2, 1.0, 1.3, 1.0, 1.2, 1.0, 1.1], interp="pchip")
        sol = solve_uniform(g)
        assert math.exp(2.0 * sol.defect) == pytest.approx(1.2695616833, rel=1e-10, abs=0.0)
        assert _verify_on_grid(2**18, g, sol.params, sol.certificate, 1e-6).passed

    def test_kappa_1e4_images_certify(self):
        # kappa = 1e4 images with extrema between the grid angles: each is a vertex or an edge
        # minimizer, so they certify, off the unmapped body by the rounding of R (1.1e-8 on 9)
        rng = np.random.default_rng(7)
        for i in range(25):
            v = bodies.random_convex_polygon(rng)
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            if i in (9, 11, 12):
                g = polygon_gauge(v @ (_rotation(t1) @ np.diag([1.0, 1e-4]) @ _rotation(t2)).T)
                sol = solve_uniform(g)
                assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed, i
                assert distance(polygon_gauge(v)) == pytest.approx(
                    math.exp(2.0 * sol.defect), rel=1.2e-8, abs=0.0), i

    def test_level_above_sup_is_typed(self, monkeypatch):
        # a scan that misses the extrema at the top of |h|: the exchange level on the grid, a
        # lower bound on d*, then exceeds the scanned sup, and the solve must not return
        import bmplane.solver as solver_mod

        scan = solver_mod._extrema_scan

        def missing_top(gauge, params, *args, **kwargs):
            s = scan(gauge, params, *args, **kwargs)
            values = np.abs(gauge.log_eval(s.angles) + _half_log_trig(params, s.angles))
            keep = values < s.sup - 1e-6
            return _ExtremaScan(s.angles[keep], float(values[keep].max()), s.f[keep])

        monkeypatch.setattr(solver_mod, "_extrema_scan", missing_top)
        g = sample_gauge(bodies.smooth_samples(np.random.default_rng(0), 128))
        with pytest.raises(NoAlternance, match="exchange level"):
            solve_uniform(g)

    def test_wide_bracket_is_typed(self, monkeypatch):
        # a scan whose sup sits 1e-7 above the true one: the loop never stops on it, and the
        # bracket of the returned run's reference, at least 1e-7 wide, exceeds _CERT_TOL
        import bmplane.solver as solver_mod

        scan = solver_mod._extrema_scan

        def raised_sup(*args, **kwargs):
            s = scan(*args, **kwargs)
            return dataclasses.replace(s, sup=s.sup + 1e-7)

        monkeypatch.setattr(solver_mod, "_extrema_scan", raised_sup)
        for g in (polygon_gauge(bodies.hexagon_inradius_1()),
                  sample_gauge(bodies.smooth_samples(np.random.default_rng(0), 128))):
            with pytest.raises(NoAlternance, match="not certified"):
                solve_uniform(g)

    def test_stalled_reference_below_one_certifies(self):
        # kappa = 1e4 image 0 of the rng-7 sequence over kappa = 10, 1e2, 1e3, 1e4; linprog's
        # flip of a reference stalled below t = 1 is test_stalled_reference_below_one_flips
        rng = np.random.default_rng(7)
        for _ in range(76):
            v = bodies.random_convex_polygon(rng)
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        g = polygon_gauge(v @ (_rotation(t1) @ np.diag([1.0, 1e-4]) @ _rotation(t2)).T)
        sol = solve_uniform(g)
        assert math.exp(2.0 * sol.defect) == pytest.approx(1.2076543415, rel=1e-9, abs=0.0)
        assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed

    def test_rough_samples_certify(self):
        rng = np.random.default_rng(4096)
        g = sample_gauge(1.0 + 0.2 * rng.random(4096))
        sol = solve_uniform(g)
        assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed

    @staticmethod
    def _linear_ellipse_samples(n: int, ratio: float = 10.0):
        phi = np.arange(n) * math.pi / n
        return sample_gauge(1.0 / np.hypot(np.cos(phi), ratio * np.sin(phi)))

    def test_samples_on_every_grid_angle_are_not_flat(self):
        # 4096 linear samples of a 10:1 ellipse: on the grid h sees only the samples, where the
        # interpolant meets the ellipse, but between them h reaches 7.3e-6 for its triple
        g = self._linear_ellipse_samples(4096)
        ellipse = EllipseParams(50.5, -49.5, 0.0)  # 1/r^2 = cos^2 + 100 sin^2
        cert = AlternanceCertificate(0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi,
                                     (0.0, 0.0, 0.0, 0.0))
        verdict = verify_certificate(g, ellipse, cert, 1e-8)
        assert not verdict.passed and verdict.upper > 7e-6
        sol = solve_uniform(g)
        assert _verify_on_grid(2**16, g, sol.params, sol.certificate, 1e-8).passed

    def test_coarse_interpolating_samples_keep_their_answer(self):
        # the sup of the solved triple by a long-double sweep (2^22 angles, then 20001 points
        # around each of the top 64) is 5.81851302332151e-05.  The defect is below it by the
        # rounding of R where a2 ~ 50.5 and b2 ~ -49.5 cancel: 1.3e-11 relative in d, 1.6e-15
        # in d2; the grid scan reported 5.8185130232718936e-05 for a triple whose sweep gives
        # 5.81851302331297e-05
        g = self._linear_ellipse_samples(1024)
        sol = solve_uniform(g)
        assert sol.defect == pytest.approx(5.8185130232434875e-05, rel=1e-12, abs=0.0)
        assert _verify_on_grid(2**16, g, sol.params, sol.certificate, 1e-8).passed

    @staticmethod
    def _sampled_ellipses() -> dict:
        """Linear samples of ellipses whose extrema all tie, and the rng-5 near-circular draws."""
        out = {f"{r:g}:1 at {n}": TestSolveUniform._linear_ellipse_samples(n, r)
               for r, n in ((10.0, 4096), (2.0, 4096), (100.0, 4096), (1000.0, 4096), (10.0, 8192))}
        rng, nodes = np.random.default_rng(5), np.arange(4096) * math.pi / 4096
        for i in range(20):
            a2 = rng.uniform(0.5, 2.0)
            r, t = a2 * rng.uniform(0.0, 0.95), rng.uniform(0.0, 6.3)
            e = EllipseParams(a2, r * math.cos(t), r * math.sin(t))
            out[f"rng5-{i}"] = sample_gauge(e.trig(nodes) ** -0.5)
        return out

    def test_sampled_ellipses_certify(self):
        # h' changes sign between the samples, where the grid sees nothing: every body solves,
        # verifies, and its d2 agrees to 1e-12 with a 2^20-angle sweep of h, which holds every
        # sample angle (on d itself the two differ by the rounding of h, up to 2e-15)
        phi = np.arange(2**20) * (math.pi / 2**20)
        for name, g in self._sampled_ellipses().items():
            sol = solve_uniform(g)
            verdict = _verify_on_grid(2**16, g, sol.params, sol.certificate, 1e-8)
            assert verdict.passed, name
            sweep = float(np.abs(g.log_eval(phi) + _half_log_trig(sol.params, phi)).max())
            assert math.exp(2.0 * sol.defect) == pytest.approx(
                math.exp(2.0 * sweep), rel=1e-12, abs=0.0), name

    def test_tied_extrema_stop_at_the_rounding_of_h(self, monkeypatch):
        # all extrema tie here, so sup - level stalls at the rounding of h (2e-16), above
        # 1e-12*d; the stop's floor at that rounding ends the loop instead of the 30-run cap
        rounds = _watch_linprog(monkeypatch)
        for ratio in (2.0, 10.0):
            g = self._linear_ellipse_samples(4096, ratio)
            rounds.clear()
            sol = solve_uniform(g)
            assert len(rounds) <= 4, ratio
            assert verify_certificate(g, sol.params, sol.certificate, 1e-8).passed, ratio

    def test_deterministic(self):
        a = solve_uniform(lp_gauge(1.0))
        b = solve_uniform(lp_gauge(1.0))
        assert a.params.triple() == b.params.triple()
        assert a.defect == b.defect


class TestCertificate:
    def test_distinct_is_np_unique(self):
        # np.unique is the reference, on ties, integers and the empty array
        rng = np.random.default_rng(19)
        for _ in range(500):
            n = int(rng.integers(0, 40))
            for values in (rng.integers(0, 8, n), rng.integers(0, 8, n) * (math.pi / 8)):
                got, ref = _distinct(values), np.unique(values)
                assert got.tobytes() == ref.tobytes() and got.dtype == ref.dtype, values

    def test_distinct_carries_arrays_from_first_occurrences(self):
        # each carried array at np.unique's first index of each value, on ties and the empty array
        rng = np.random.default_rng(38)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            values = rng.integers(0, 8, n) * (math.pi / 8)
            carried = rng.random(n)
            got, got_carried = _distinct(values, carried)
            ref, first = np.unique(values, return_index=True)
            assert got.tobytes() == ref.tobytes(), values
            assert got_carried.tobytes() == carried[first].tobytes(), values

    def test_square_certificate_at_vertex_and_midpoint_directions(self):
        cert = solve_uniform(lp_gauge(math.inf)).certificate
        assert sorted(a % math.pi for a in cert.angles()) == pytest.approx(
            (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4), abs=1e-6)
        assert max(abs(r) for r in cert.residuals) < 1e-9

    def test_suboptimal_scaled_circle_has_no_alternance(self):
        # at the square's own alternance the scaled circle's bracket is log(1/0.9) wide
        g = lp_gauge(math.inf)
        cert = solve_uniform(g).certificate
        assert not verify_certificate(g, EllipseParams(0.9 * 2.0 ** -0.5, 0, 0), cert, 1e-8).passed

    def test_wrong_shape_has_no_alternance(self):
        g = lp_gauge(math.inf)
        cert = solve_uniform(g).certificate
        assert not verify_certificate(g, EllipseParams(2.0 ** -0.5, 0.2, 0.0), cert, 1e-8).passed

    def test_corpus_passes_verification(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            verdict = verify_certificate(g, sol.params, sol.certificate, 1e-6)
            assert verdict.passed, (name, verdict)
            assert sol.certificate.interleaved(), name
            # a passing certificate brackets the defect it reports, within tol
            assert verdict.lower <= sol.defect <= verdict.upper <= verdict.lower + 1e-6, name

    def test_ordering_violation_fails(self, solved_corpus):
        g, sol = solved_corpus["square"]
        c = sol.certificate
        bad = AlternanceCertificate(c.phi1, c.psi1, c.phi2, c.phi1 + math.pi + 0.1, c.residuals)
        verdict = verify_certificate(g, sol.params, bad, 1e-6)
        assert verdict.lower == 0.0 and not verdict.passed

    def test_residual_violation_fails(self, solved_corpus):
        g, sol = solved_corpus["square"]
        # lowering g by 10*tol raises h by 10*tol: the + deviations and the sup grow by it and
        # the - deviations shrink by it, so the bracket is 20*tol wide
        off = sol.params.scaled(math.exp(2.0 * 1e-5))
        verdict = verify_certificate(g, off, sol.certificate, 1e-6)
        assert verdict.lower == pytest.approx(sol.defect - 1e-5, rel=0.0, abs=1e-12)
        assert verdict.upper == pytest.approx(sol.defect + 1e-5, rel=0.0, abs=1e-12)
        assert not verdict.passed

    def test_sampled_ellipses_below_cert_tol_alternate_or_end_typed(self):
        # linear samples of ellipses (draws of rng 5) whose defect is below _CERT_TOL: each
        # solves, and its certificate has f - g of signs (+, -, +, -) at its angles
        tol = _CERT_TOL
        rng, nodes = np.random.default_rng(5), np.arange(4096) * math.pi / 4096
        draws = []
        for _ in range(11):
            a2 = rng.uniform(0.5, 2.0)
            r, t = a2 * rng.uniform(0.0, 0.95), rng.uniform(0.0, 6.3)
            draws.append(EllipseParams(a2, r * math.cos(t), r * math.sin(t)))
        for i in (1, 2, 6, 10):
            g = sample_gauge(draws[i].trig(nodes) ** -0.5)
            sol = solve_uniform(g)
            assert min(certificate_deviations(g, sol.params, sol.certificate)) > 0.0, i
            assert max(map(abs, sol.certificate.residuals)) <= tol, i
            assert verify_certificate(g, sol.params, sol.certificate, tol).passed, i


def _with_collinear_vertices(p: np.ndarray) -> np.ndarray:
    """Each edge p -> q as p, p + 0.3*(q - p) and (p + q)/2: the same polygon."""
    q = np.roll(p, -1, axis=0)
    return np.stack([p, p + 0.3 * (q - p), 0.5 * (p + q)], axis=1).reshape(-1, 2)


class TestSmoothVertex:
    """A polygon vertex where h is smooth, inside a straight side, is one extremum."""

    def test_rotated_midpoint_square(self):
        # each edge midpoint of the square is a vertex; turned by 0.3 rad, the slopes at the
        # midpoints round to (0, -2.8e-17), which lists each as a maximum at the angle of the
        # minimum just inside the next edge
        square = np.array([[1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1], [1, 0]],
                          dtype=float)
        c, s = math.cos(0.3), math.sin(0.3)
        g = polygon_gauge(square @ np.array([[c, s], [-s, c]]))
        sol = solve_uniform(g)
        assert math.exp(2.0 * sol.defect) == pytest.approx(math.sqrt(2.0), rel=0.0, abs=1e-12)
        assert verify_certificate(g, sol.params, sol.certificate, _CERT_TOL).passed

    def test_candidates_list_each_vertex_once(self):
        # the midpoint square's edge midpoints, where the slope is 0 on both sides, used to be
        # listed as a maximum and as a minimum: 6 entries for 4 angles at the circle triple
        square = np.array([[1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1], [1, 0]],
                          dtype=float)
        cand = polygon_gauge(square).extremum_candidates(EllipseParams(1.0, 0.0, 0.0))
        assert np.sort(cand).tolist() == (np.arange(4) * (0.25 * math.pi)).tolist()
        # turned by 0.3, at its solved triple: four vertices once each and two edge minima, one
        # a float past the midpoint at 0.3 and one rounding onto the midpoint at 0.3 + pi/2
        c, s = math.cos(0.3), math.sin(0.3)
        g = polygon_gauge(square @ np.array([[c, s], [-s, c]]))
        cand = g.extremum_candidates(solve_uniform(g).params)
        assert cand.size == 6 and _distinct(cand).size == 5
        values, counts = np.unique(cand, return_counts=True)
        assert values[counts > 1].tolist() == [0.3 + 0.5 * math.pi]
        assert np.isin(values[counts > 1], g.critical_angles()).all()

    @pytest.mark.parametrize("turn", [0.0, 0.3, 1.1])
    def test_collinear_vertices_keep_the_polygons_answer(self, turn):
        # at turn 0 the draw at index 26 used to end in NoAlternance: its optimum's minimum on
        # one edge lies at the midpoint, where both slopes are exactly 0
        rng = np.random.default_rng(5)
        c, s = math.cos(turn), math.sin(turn)
        for i in range(50):
            p = bodies.random_convex_polygon(rng) @ np.array([[c, s], [-s, c]])
            d2 = math.exp(2.0 * solve_uniform(polygon_gauge(p)).defect)
            g = polygon_gauge(_with_collinear_vertices(p))
            sol = solve_uniform(g)
            assert math.exp(2.0 * sol.defect) == pytest.approx(d2, rel=1e-12, abs=0.0), i
            assert verify_certificate(g, sol.params, sol.certificate, _CERT_TOL).passed, i

    def test_closed_ring_square(self):
        square = bodies.square_vertices()
        for ring in (np.vstack([square, square[:1]]), np.repeat(square, 2, axis=0)):
            sol = solve_uniform(polygon_gauge(ring))
            assert math.exp(2.0 * sol.defect) == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0.0)


class TestOneSided:
    """The report's inscribed ellipse: the uniform triple scaled by d2 = exp(2*defect)."""

    def test_circle(self):
        g = circle_gauge()
        sol = solve_uniform(g)
        assert sol.defect == pytest.approx(0.0, abs=1e-10)
        assert build_report(g, sol).params_inscribed.triple() == pytest.approx(
            (1.0, 0.0, 0.0), abs=1e-9)

    def test_square_inscribed_unit_circle(self):
        g = lp_gauge(math.inf)
        sol = solve_uniform(g)
        assert 2.0 * sol.defect == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
        assert build_report(g, sol).params_inscribed.triple() == pytest.approx(
            (1.0, 0.0, 0.0), abs=1e-6)

    def test_ellipse_identity(self):
        e = EllipseParams(1.0, -0.15, 0.2)
        g = ellipse_gauge(e)
        sol = solve_uniform(g)
        assert sol.defect == pytest.approx(0.0, abs=1e-8)
        assert build_report(g, sol).params_inscribed.triple() == pytest.approx(e.triple(), rel=1e-6)

    def test_corpus_consistency(self, solved_corpus):
        # an independent scan of the inscribed triple: f - g lies in [0, 2*defect]
        for name, (g, sol) in solved_corpus.items():
            inscribed = build_report(g, sol).params_inscribed
            assert inscribed.triple() == sol.params.scaled(math.exp(2.0 * sol.defect)).triple()
            scan = _extrema_scan(g, inscribed, _Pieces(g))
            h = g.log_eval(scan.angles) + _half_log_trig(inscribed, scan.angles)
            assert h.min() >= -1e-9, name
            assert h.max() == pytest.approx(2.0 * sol.defect, abs=1e-8), name


class TestDistance:
    def test_circle(self):
        assert distance(circle_gauge()) == pytest.approx(1.0, abs=1e-9)

    def test_square(self):
        assert distance(lp_gauge(math.inf)) == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_within_universal_bounds(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            d2 = math.exp(2.0 * sol.defect)
            assert 1.0 - 1e-9 <= d2 <= math.sqrt(2.0) + 1e-6, name

    def test_scale_and_rotation_invariance(self):
        verts = bodies.random_convex_polygon(np.random.default_rng(77), n_half=6)
        base = distance(polygon_gauge(verts))
        assert distance(polygon_gauge(3.7 * verts)) == pytest.approx(base, rel=1e-12, abs=0.0)
        rot = verts @ _rotation(0.3).T
        assert distance(polygon_gauge(rot)) == pytest.approx(base, rel=1e-12, abs=0.0)
        # d2 is invariant under every invertible linear map, here of condition number kappa
        rng = np.random.default_rng(7)
        for i in range(25):
            v = bodies.random_convex_polygon(rng)
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            base = distance(polygon_gauge(v))
            for kappa in (10.0, 100.0):
                image = v @ (_rotation(t1) @ np.diag([1.0, 1.0 / kappa]) @ _rotation(t2)).T
                assert distance(polygon_gauge(image)) == pytest.approx(
                    base, rel=1e-11, abs=0.0), (i, kappa)


    def test_polar_duality(self):
        # the polar body of a symmetric convex body is its dual norm's ball: d2(P) = d2(P polar)
        rng = np.random.default_rng(5)
        for i in range(100):
            v = bodies.random_convex_polygon(rng, n_half=int(rng.integers(2, 40)))
            assert distance(polygon_gauge(bodies.polar_polygon(v))) == pytest.approx(
                distance(polygon_gauge(v)), rel=1e-12, abs=0.0), i


class TestPerturbationProbe:
    def test_no_perturbation_beats_optimum(self, solved_corpus):
        rng = np.random.default_rng(11)
        g, sol = solved_corpus["square-polygon"]
        grid = evaluation_grid(g, 2048)
        grid = np.concatenate([grid, np.mod(sol.certificate.angles(), math.pi)])
        fvals = g.log_eval(grid)
        done = 0
        while done < 50:
            alpha = rng.uniform(0, math.pi)
            beta = alpha + rng.uniform(0.1, math.pi - 0.1)
            t = rng.uniform(1e-4, 0.05)
            try:
                cand = perturb(sol.params, alpha, beta, t)
            except LeftCone:
                continue
            sup = float(np.abs(fvals + 0.5 * np.log(cand.trig(grid))).max())
            assert sup >= sol.defect - 1e-9
            done += 1

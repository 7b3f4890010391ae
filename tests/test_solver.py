import math
import warnings
from typing import Optional

import numpy as np
import pytest
from scipy.optimize import linprog as highs_linprog

from bmplane.ellipse import EllipseParams, in_cone
from bmplane.errors import BmplaneError, NoAlternance, NoConvergence
from bmplane.gauge import (
    circle_gauge,
    ellipse_gauge,
    evaluation_grid,
    lp_gauge,
    polygon_gauge,
    sample_gauge,
)
from bmplane.solver import (
    AlternanceCertificate,
    SolverOptions,
    distance,
    extract_certificate,
    linprog,
    solve_uniform,
    to_one_sided,
    _deviation_fn,
    _ExtremaScan,
    _minimax_lp,
    _PI,
    _refined_extrema,
    _trig_matrix,
    verify_certificate,
)

import bodies

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
    trig = _trig_matrix(grid)
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
    trig = _trig_matrix(grid)
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


def _refined_extrema_two_calls(h, grid: np.ndarray, hvals: np.ndarray) -> _ExtremaScan:
    """The refinement with separate ternary searches for maxima and minima: reference."""
    if float(hvals.max() - hvals.min()) < 1e-13:
        i = int(np.argmax(hvals))
        ang = grid[i : i + 1]
        val = hvals[i : i + 1]
        return _ExtremaScan(ang, val, ang, val, float(np.abs(hvals).max()))

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
    return _ExtremaScan(
        np.mod(max_angles, _PI), max_values, np.mod(min_angles, _PI), min_values, sup
    )


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
            trig = _trig_matrix(grid)
            w = np.exp(-2.0 * (fvals - 0.5 * float(fvals.max() + fvals.min())))

            def violation(x):
                # the stop rule's relative violation, divided by t
                R = trig @ x[:3]
                return np.maximum(w - R, R - x[3] * w) / w / x[3]

            def grid_sup(p):
                return float(np.abs(fvals + 0.5 * np.log(p.trig(grid))).max())

            x, _, _, rounds = linprog(trig, w)
            params, _, _, lp_rounds = _minimax_lp(grid, fvals)
            assert lp_rounds == rounds, name
            ref, x_ref = _full_grid_minimax_lp(grid, fvals)

            # every grid row holds to the stop tolerance, and no worse than HiGHS's point
            assert violation(x).max() <= 1e-12, name
            assert grid_sup(params) <= grid_sup(ref) + 1e-13, name
            if violation(x_ref).max() <= 1e-12:
                # both points are feasible on the whole grid, so both are its optimum
                assert grid_sup(params) >= grid_sup(ref) - 1e-13, name

    def test_smooth_samples_at_scale(self):
        # 10^5 samples put 104064 angles on the grid
        g = sample_gauge(bodies.smooth_samples(np.random.default_rng(100000), 100000))
        n = evaluation_grid(g, SolverOptions().grid_size).size
        sol = solve_uniform(g)
        assert sol.diagnostics.lp_calls <= 16 * n.bit_length()
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

        result = (np.array(x), np.arange(4), np.array([1, -1, 1, -1]), 1)
        monkeypatch.setattr(solver_mod, "linprog", lambda trig, w: result)
        with pytest.raises(NoConvergence):
            solve_uniform(lp_gauge(math.inf))

    def test_repeated_reference_is_typed(self, monkeypatch):
        # polygon 49 of the rng-99 sequence below (kappa = 1e8) brings its round-1 reference
        # back at round 3; the exchange must stop there instead of cycling to its 208-round cap
        rng = np.random.default_rng(99)
        for _ in range(50):
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
        assert len(calls) <= 4

    def test_flat_in_family_ellipse(self):
        # every grid row ties at d* = 0, so the rounding of R alone picks the worst angle:
        # the exchange must stop on its stalled reference instead of cycling to the cap
        e = EllipseParams(1.0, 0.999999, 0.0)
        sol = solve_uniform(ellipse_gauge(e))
        assert sol.diagnostics.lp_calls <= 2
        assert sol.params.triple() == pytest.approx(e.triple(), rel=0.0, abs=1e-15)


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
    """Calls of h made by each extremum scan of a solve and of its verification."""
    import bmplane.solver as solver_mod

    refine, counts = solver_mod._refined_extrema, []

    def counting(h, grid, hvals):
        counts.append(0)

        def counted(phi):
            counts[-1] += 1
            return h(phi)

        return refine(counted, grid, hvals)

    monkeypatch.setattr(solver_mod, "_refined_extrema", counting)
    sol = solve_uniform(g)
    assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed
    return counts


def _lp_deviation(g):
    """(grid, h, hvals) of the deviation of the grid minimax triple."""
    grid = evaluation_grid(g, 4096)
    fvals = g.log_eval(grid)
    params, *_ = _minimax_lp(grid, fvals)
    return grid, _deviation_fn(g, params), fvals + 0.5 * np.log(params.trig(grid))


class TestRefinement:
    def test_matches_two_call_refinement(self, corpus):
        # the ternary search is the reference: as many extrema of each sign, none less
        # extreme by more than 1e-14, and a sup no lower by more than 1e-15
        for name, g in _refinement_bodies(corpus).items():
            grid, h, hvals = _lp_deviation(g)
            scan = _refined_extrema(h, grid, hvals)
            ref = _refined_extrema_two_calls(h, grid, hvals)
            assert scan.max_values.size == ref.max_values.size, name
            assert scan.min_values.size == ref.min_values.size, name
            assert np.all(scan.max_values >= ref.max_values - 1e-14), name
            assert np.all(scan.min_values <= ref.min_values + 1e-14), name
            assert scan.sup >= ref.sup - 1e-15, name
            # a higher sup is a value of h: on star-2000 two edge lines miss each other
            # by 2.4e-15 at a vertex, and the scan's float next to it sees the higher one
            angles = np.concatenate([scan.max_angles, scan.min_angles])
            top = angles[np.argmax(np.abs(np.concatenate([scan.max_values, scan.min_values])))]
            assert abs(float(h(top))) == pytest.approx(scan.sup, rel=0.0, abs=1e-15), name

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
        # to rounding at a kink, to about its square root at a smooth extremum
        grid, h, hvals = _lp_deviation(g)
        ref = _refined_extrema_two_calls(h, grid, hvals)
        for ang in (ref.max_angles, ref.min_angles):
            gap = np.abs(ang[:, None] - np.concatenate([grid, [math.pi]])[None, :]).min(axis=1)
            assert gap.max() < 1e-7
        assert max(_calls_per_scan(monkeypatch, g)) <= 2

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
        # a parabolic step from the grid values settles smooth extrema in a few calls
        assert max(_calls_per_scan(monkeypatch, g)) <= 20


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

    def test_kink_bodies_stop_after_the_grid_run(self):
        # every extremum is a kink on the grid, so the grid optimum is the continuum one
        rng = np.random.default_rng(1000)
        for g in (
            lp_gauge(math.inf),
            polygon_gauge(bodies.jittered_star_polygon(rng, 1000)),
            sample_gauge(1.0 + 0.2 * rng.random(4096)),
        ):
            assert solve_uniform(g).diagnostics.polish_iterations == 0

    def test_closed_forms(self, solved_corpus):
        for name, d2 in CLOSED_FORM_D2.items():
            sol = solved_corpus[name][1]
            assert math.exp(2.0 * sol.defect) == pytest.approx(d2, rel=1e-12, abs=0.0), name

    def test_grid_size_invariance(self, solved_corpus):
        # the exchange runs on refined extrema until sup and level agree, whatever the grid
        for name, (g, sol) in solved_corpus.items():
            coarse = solve_uniform(g, SolverOptions(grid_size=256))
            assert math.exp(2.0 * coarse.defect) == pytest.approx(
                math.exp(2.0 * sol.defect), rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize("scale", [1e8, 1e-8])
    def test_extreme_scale(self, scale):
        g = polygon_gauge(scale * bodies.square_vertices())
        sol = solve_uniform(g)
        assert math.exp(2.0 * sol.defect) == pytest.approx(math.sqrt(2.0), rel=1e-12, abs=0.0)
        assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed

    def test_tiny_scale_is_typed(self):
        # below a scale of about 1.6e-154 the triple's rescaling exp(-2*fc) overflows
        for g in (
            polygon_gauge(1e-160 * bodies.square_vertices()),
            sample_gauge(1e-160 * (1.0 + 0.1 * np.cos(np.arange(16)))),
        ):
            with pytest.raises(NoConvergence, match="overflows"):
                solve_uniform(g)

    def test_grid_sup_matches_defect(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            grid = evaluation_grid(g, 4096)
            h = g.log_eval(grid) + 0.5 * np.log(sol.params.trig(grid))
            sup = float(np.abs(h).max())
            assert sol.defect - 1e-8 <= sup <= sol.defect + 1e-8, name

    def test_defect_and_certificate_come_from_the_final_params(self, solved_corpus):
        # the exchange loop hands its scan on to the certificate: it must be the scan of sol.params
        for name, (g, sol) in solved_corpus.items():
            verdict = verify_certificate(g, sol.params, sol.certificate, 1e-6)
            assert sol.defect == verdict.sup_norm, name
            cert = extract_certificate(g, sol.params, SolverOptions().cert_tol)
            assert cert == sol.certificate, name

    def test_regular_2000gon(self):
        # thousands of extrema in the point set of the exchange on refined extrema
        g = polygon_gauge(bodies.regular_polygon(2000))
        d2 = 1.0 / math.cos(math.pi / 2000.0)
        assert distance(g) == pytest.approx(d2, rel=1e-12, abs=0.0)

    def test_rotated_2000gon(self):
        # t* - 1 is only 2.5e-6 here: an LP point off by its solver's tolerance shows in d2
        rng = np.random.default_rng(7)
        d2 = 1.0 / math.cos(math.pi / 2000.0)
        for _ in range(10):
            g = polygon_gauge(bodies.regular_polygon(2000, phase=rng.uniform(0.0, math.pi)))
            assert distance(g) == pytest.approx(d2, rel=1e-11, abs=0.0)

    def test_ill_conditioned_polygons_end_typed(self):
        # images under Q diag(1, 1e-8) Q': every body must end in a verified certificate or a
        # typed error, never a raw exception or a numpy warning; on bodies 37 and 42 the grid
        # run's triple has R <= 0 in floats at a grid angle or probe of its scan
        rng = np.random.default_rng(99)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(60):
                v = bodies.random_convex_polygon(rng)
                t1, t2 = rng.uniform(0.0, math.pi, 2)
                g = polygon_gauge(v @ (_rotation(t1) @ np.diag([1.0, 1e-8]) @ _rotation(t2).T).T)
                if i in (37, 42):
                    with pytest.raises(NoConvergence, match=r"R = \S+ <= 0"):
                        solve_uniform(g)
                    continue
                try:
                    sol = solve_uniform(g)
                except BmplaneError:
                    continue
                assert verify_certificate(g, sol.params, sol.certificate, 1e-6).passed

    def test_five_point_pchip_optimum_certifies(self):
        # the optimum alternates at five extrema; the exchange on them picks the best four
        g = sample_gauge([1.0, 1.2, 1.0, 1.3, 1.0, 1.2, 1.0, 1.1], interp="pchip")
        sol = solve_uniform(g)
        assert math.exp(2.0 * sol.defect) == pytest.approx(1.2695616833, rel=1e-10, abs=0.0)
        assert verify_certificate(g, sol.params, sol.certificate, 1e-6, grid_size=2**18).passed

    def test_level_above_sup_is_typed(self):
        # at kappa = 1e4 the scans of these three images miss extrema: the exchange level on
        # S, a lower bound on d*, then exceeds the scanned sup, and the solve must not return
        rng = np.random.default_rng(7)
        for i in range(25):
            v = bodies.random_convex_polygon(rng)
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            if i in (9, 11, 12):
                g = polygon_gauge(v @ (_rotation(t1) @ np.diag([1.0, 1e-4]) @ _rotation(t2)).T)
                with pytest.raises(NoAlternance, match="exchange level"):
                    solve_uniform(g)

    def test_stalled_reference_below_one_certifies(self):
        # kappa = 1e4 image 0 of the rng-7 sequence over kappa = 10, 1e2, 1e3, 1e4: the exchange
        # on its refined extrema stalls at a level t < 1, where the flipped reference is optimal
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

    def test_deterministic(self):
        a = solve_uniform(lp_gauge(1.0))
        b = solve_uniform(lp_gauge(1.0))
        assert a.params.triple() == b.params.triple()
        assert a.defect == b.defect


class TestCertificate:
    def test_square_certificate_at_vertex_and_midpoint_directions(self):
        cert = extract_certificate(lp_gauge(math.inf), EllipseParams(2.0 ** -0.5, 0, 0), 1e-8)
        assert cert.angles() == pytest.approx(
            (math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi), abs=1e-6)
        assert max(abs(r) for r in cert.residuals) < 1e-9

    def test_suboptimal_scaled_circle_has_no_alternance(self):
        with pytest.raises(NoAlternance):
            extract_certificate(lp_gauge(math.inf), EllipseParams(0.9 * 2.0 ** -0.5, 0, 0), 1e-8)

    def test_wrong_shape_has_no_alternance(self):
        with pytest.raises(NoAlternance):
            extract_certificate(lp_gauge(math.inf), EllipseParams(2.0 ** -0.5, 0.2, 0.0), 1e-8)

    def test_corpus_passes_verification(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            verdict = verify_certificate(g, sol.params, sol.certificate, 1e-6)
            assert verdict.passed, (name, verdict)
            assert sol.certificate.interleaved(), name
            # a passing certificate pins the sup-norm near the optimal defect
            assert abs(verdict.sup_norm - sol.defect) <= 2e-6, name

    def test_ordering_violation_fails(self, solved_corpus):
        g, sol = solved_corpus["square"]
        c = sol.certificate
        bad = AlternanceCertificate(c.phi1, c.psi1, c.phi2, c.phi1 + math.pi + 0.1, c.residuals)
        verdict = verify_certificate(g, sol.params, bad, 1e-6)
        assert not verdict.ordering_ok and not verdict.passed

    def test_residual_violation_fails(self, solved_corpus):
        g, sol = solved_corpus["square"]
        # lowering g by 10*tol skews the four deviations away from their mean
        off = sol.params.scaled(math.exp(2.0 * 1e-5))
        verdict = verify_certificate(g, off, sol.certificate, 1e-6)
        assert not all(verdict.residuals_ok)
        assert not verdict.passed


class TestOneSided:
    def test_circle(self):
        g = circle_gauge()
        one = to_one_sided(g, solve_uniform(g))
        assert one.value == pytest.approx(0.0, abs=1e-10)
        assert one.params.triple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)

    def test_square_inscribed_unit_circle(self):
        g = lp_gauge(math.inf)
        one = to_one_sided(g, solve_uniform(g))
        assert one.value == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
        assert one.params.triple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-6)

    def test_ellipse_identity(self):
        e = EllipseParams(1.0, -0.15, 0.2)
        g = ellipse_gauge(e)
        one = to_one_sided(g, solve_uniform(g))
        assert one.value == pytest.approx(0.0, abs=1e-8)
        assert one.params.triple() == pytest.approx(e.triple(), rel=1e-6)

    def test_corpus_consistency(self, solved_corpus):
        for name, (g, sol) in solved_corpus.items():
            one = to_one_sided(g, sol)
            assert one.value == pytest.approx(2.0 * sol.defect, abs=1e-12), name
            assert one.min_deviation >= -1e-9, name
            assert one.max_deviation == pytest.approx(2.0 * sol.defect, abs=1e-8), name


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


class TestPerturbationProbe:
    def test_no_perturbation_beats_optimum(self, solved_corpus):
        from bmplane.ellipse import perturb
        from bmplane.errors import LeftCone

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

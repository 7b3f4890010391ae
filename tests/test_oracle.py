import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bmplane.ellipse import EllipseParams, in_cone
from bmplane.errors import EmptyGrid, NoConvergence
from bmplane.gauge import circle_gauge, ellipse_gauge, lp_gauge, polygon_gauge, sample_gauge
from bmplane.oracle import OracleResult, _grid, _turned, oracle_uniform
from bmplane.solver import solve_uniform

import bodies

SQUARE_DEFECT = 0.25 * math.log(2.0)


def _bench_bodies(seed: int) -> list:
    """The benchmark's ``oracle``, ``corpus`` and ``large`` bodies at this seed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bodies.py"
    spec = importlib.util.spec_from_file_location("bench_bodies", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # its dataclass looks itself up in sys.modules
    return [b for make in (module.oracle_bodies, module.corpus_bodies, module.large_bodies)
            for b in make(seed)]


def _grid_defects(gauge, ps, qs, n_phi=1024):
    """The defect on the oracle's angle grid of every ellipse rho^-2 = a2*(1 + p*cos 2phi +
    q*sin 2phi), at its best a2: half the spread of f + 0.5*log1p(p*cos 2phi + q*sin 2phi)."""
    phis = _grid(gauge, n_phi)[0]
    h = gauge.log_eval(phis) + 0.5 * np.log1p(np.multiply.outer(ps, np.cos(2.0 * phis))
                                              + np.multiply.outer(qs, np.sin(2.0 * phis)))
    return 0.5 * (h.max(axis=-1) - h.min(axis=-1))


def _hex(res: OracleResult) -> list:
    return [v.hex() for v in (res.value, res.lower, *res.params.triple())]


def _rotation(t: float) -> np.ndarray:
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _in_family(e: float, angle: float = 0.7):
    return ellipse_gauge(EllipseParams(1.0, e * math.cos(angle), e * math.sin(angle)))


class TestOracleUniform:
    def test_circle(self):
        res = oracle_uniform(circle_gauge(), n_phi=256)
        assert res.value <= 1e-6
        assert res.std.bprime == 0.0
        assert res.std.theta == 0.0
        assert res.std.a == pytest.approx(1.0, abs=1e-4)

    def test_tiny_negative_theta_is_zero(self):
        # a best point with c2 just below 0 has 0.5*atan2 just below 0, which mod pi rounds to pi
        res = OracleResult(EllipseParams(1.0, 0.2, -1e-17), 0.0, 0.0, 0)
        assert res.std.theta == 0.0 and math.copysign(1.0, res.std.theta) == 1.0
        # the least-squares fit lands on c2 = -1.0e-12 here: theta is just under pi
        res = oracle_uniform(ellipse_gauge(EllipseParams(1.0, 0.2, -1e-12)), n_phi=64)
        assert 0.0 <= res.std.theta < math.pi and res.params.c2 < 0.0

    def test_ellipse_identity_recovers_point(self):
        e = EllipseParams(1.0, 0.2, 0.1)
        res = oracle_uniform(ellipse_gauge(e))
        assert res.value <= 1e-4
        assert res.params.triple() == pytest.approx(e.triple(), abs=1e-3)

    def test_square_matches_analytic_value(self):
        res = oracle_uniform(lp_gauge(math.inf))
        assert res.value == pytest.approx(SQUARE_DEFECT, abs=2e-3)
        assert res.std.bprime <= 1e-3 * res.std.a

    def test_agreement_with_solver(self, solved_corpus):
        for name in ("square", "diamond", "convex"):
            g, sol = solved_corpus[name]
            res = oracle_uniform(g)
            assert abs(res.value - sol.defect) <= 1e-4, (name, res.value, sol.defect)

    def test_agreement_on_50_star_polygons(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(50):
            g = polygon_gauge(bodies.random_star_polygon(rng, n_half=int(rng.integers(5, 12))))
            sol = solve_uniform(g)
            res = oracle_uniform(g)
            worst = max(worst, abs(res.value - sol.defect))
            assert abs(res.value - sol.defect) <= 1e-4, (res.value, sol.defect)
            assert res.lower <= sol.defect + 1e-12, (res.lower, sol.defect)
        assert worst > 0.0  # the two routes are genuinely independent

    @pytest.mark.parametrize("threads", [0, -1, 2, 3])
    def test_bad_thread_count(self, threads):
        # the search is serial: threads=1 stays only for the benchmark's call
        with pytest.raises(ValueError, match="threads must be 1"):
            oracle_uniform(circle_gauge(), threads=threads)

    def test_grid_validation(self):
        with pytest.raises(EmptyGrid):
            oracle_uniform(circle_gauge(), n_phi=4)

    @pytest.mark.parametrize("e", [77, 78])
    def test_span_past_the_float_range_is_no_convergence(self, e):
        # 8 linear samples alternating between 10^e and 10^-e: the fit's normal equations would
        # overflow at both, and at 78 the ratio max m / min m too, for a value of inf
        with pytest.raises(NoConvergence, match="leave the float range"):
            oracle_uniform(sample_gauge([10.0**e, 10.0**-e] * 4))

    def test_span_within_the_float_range_keeps_its_bits(self):
        res = oracle_uniform(sample_gauge([1e76, 1e-76] * 4))
        assert (res.value, res.lower, res.evaluations) == (174.99646706754748, 6.907755278981881,
                                                          1189888)
        assert res.params.triple() == (1.0, 0.0, 0.0)


class TestBracket:
    """lower <= the least defect on the angle grid <= value <= lower + 1e-6."""

    @pytest.mark.parametrize("seed", [1, 7, 901])
    def test_bench_bodies(self, seed):
        for b in _bench_bodies(seed):
            res = oracle_uniform(b.gauge)
            assert 0.0 <= res.lower <= res.value <= res.lower + 1e-6, (b.name, res)
            if b.d2_exact is not None:
                assert res.lower <= 0.5 * math.log(b.d2_exact), (b.name, res.lower, b.d2_exact)

    def test_closed_form_bodies(self):
        exact = {
            "circle": (circle_gauge(), 1.0),
            "square": (lp_gauge(math.inf), math.sqrt(2.0)),
            "l1": (lp_gauge(1.0), math.sqrt(2.0)),
            "l3": (lp_gauge(3.0), 2.0 ** (0.5 - 1.0 / 3.0)),
            "diamond": (polygon_gauge(bodies.diamond_vertices()), math.sqrt(2.0)),
            "hexagon": (polygon_gauge(bodies.hexagon_inradius_1()), 2.0 / math.sqrt(3.0)),
            "ellipse10": (ellipse_gauge(EllipseParams(50.5, -49.5, 0.0)), 1.0),
        }
        for name, (g, d2) in exact.items():
            res = oracle_uniform(g)
            assert res.lower <= 0.5 * math.log(d2) <= res.value + 1e-4, (name, res, d2)

    @pytest.mark.parametrize("body", ["star", "samples", "hexagon", "kappa100"])
    def test_lower_is_below_every_sampled_ellipse(self, body):
        # kappa100, a flat image whose search runs about 2.5M (box, angle) values, is where the
        # rounding of m, a product over the angle table, moves the bracket most
        rng = np.random.default_rng(29)
        if body == "kappa100":
            v = bodies.random_convex_polygon(rng)
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            g = polygon_gauge(v @ (_rotation(t1) @ np.diag([1.0, 1e-2]) @ _rotation(t2)).T)
        else:
            g = {"star": polygon_gauge(bodies.random_star_polygon(rng)),
                 "samples": sample_gauge(bodies.smooth_samples(rng, 128), interp="pchip"),
                 "hexagon": polygon_gauge(bodies.hexagon_inradius_1())}[body]
        ps, qs = np.meshgrid(np.linspace(-1.0, 1.0, 129), np.linspace(-1.0, 1.0, 129))
        inside = np.hypot(ps, qs) < 1.0
        defects = _grid_defects(g, ps[inside], qs[inside])
        res = oracle_uniform(g)
        assert res.lower <= defects.min(), (res.lower, defects.min())
        assert res.value <= defects.min() + 1e-6

    def test_value_is_the_defect_of_params(self):
        # the scale in closed form: the deviation's max and -min on the grid are both the value
        for b in _bench_bodies(7):
            res = oracle_uniform(b.gauge)
            phis = _grid(b.gauge, 1024)[0]
            dev = b.gauge.log_eval(phis) + 0.5 * np.log(res.params.trig(phis))
            assert abs(dev.max() - res.value) <= 1e-12, (b.name, dev.max(), res.value)
            assert abs(-dev.min() - res.value) <= 1e-12, (b.name, dev.min(), res.value)

    @pytest.mark.parametrize("e", [0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-7, 1.0 - 1e-8, 1.0 - 1e-14])
    def test_eccentric_in_family_ellipse(self, e):
        # defect 0, 1 - e from the edge of the disc: the least-squares fit is exact there, and
        # the bounds floored at 0 prune every box in the first round; at every angle of the
        # axes the fit, turned back from the anchored chart, stays inside the cone
        for k in range(8):
            res = oracle_uniform(_in_family(e, 0.7 + 0.25 * math.pi * k))
            assert res.lower == 0.0 and res.value <= 1e-6 and res.evaluations <= 2 * 1024, (k, res)

    def test_flat_ellipse_whose_fit_turns_onto_the_edge_stays_in_the_cone(self):
        # 1e-15 from flat the fit lies a few ulps inside the disc, and here turning it back
        # from the anchored chart rounds it onto the edge: it is pulled back into the cone.
        # Whether the fit closes the search this near the edge depends on its rounding, so
        # only the cone and the bracket's lower end are asked for
        res = oracle_uniform(_in_family(1.0 - 1e-15, 0.7 + math.pi / 8.0))
        assert res.lower == 0.0 and in_cone(*res.params.triple()), res

    def test_budget_stop_is_sound(self):
        # a kappa = 1e4 image of a convex polygon: its live boxes keep doubling until the next
        # round is over _MAX_VALUES, and the search stops on the bracket as it stands
        rng = np.random.default_rng(7)
        v = bodies.random_convex_polygon(rng)
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        image = v @ (_rotation(t1) @ np.diag([1.0, 1e-4]) @ _rotation(t2)).T
        res = oracle_uniform(polygon_gauge(image))
        assert res.value > res.lower + 1e-6, res  # the budget, not the bracket, ended it
        assert res.lower <= solve_uniform(polygon_gauge(v)).defect + 1e-12, res

    @pytest.mark.parametrize("seed", [1, 901])
    def test_fit_leaves_every_search_above_tol_alone(self, seed, monkeypatch):
        # a body of value above _TOL gets the same value, lower and params without the fit,
        # bit for bit, and only the fit's values on the grid are missing from evaluations
        import bmplane.oracle as oracle_mod

        bench = _bench_bodies(seed)
        with_fit = [oracle_uniform(b.gauge) for b in bench]
        monkeypatch.setattr(oracle_mod, "_fit", lambda *args: None)
        compared = 0
        for b, res in zip(bench, with_fit):
            if res.value > 1e-6:
                bare = oracle_uniform(b.gauge)
                assert _hex(bare) == _hex(res), b.name
                assert res.evaluations == bare.evaluations + _grid(b.gauge, 1024)[0].size
                compared += 1
        assert compared >= 15


class TestAnchor:
    """The grid and the chart start at the body's largest radius: every turn of a polygon gets
    the same search, and the turned bench polygons the exact bounds of the upright ones."""

    def test_every_turn_of_a_polygon_gets_one_search(self):
        rng = np.random.default_rng(52)
        polygons = [bodies.square_vertices(), bodies.hexagon_inradius_1()]
        polygons += [bodies.random_convex_polygon(rng) for _ in range(5)]
        polygons += [bodies.random_star_polygon(rng) for _ in range(5)]
        for k, v in enumerate(polygons):
            runs = [oracle_uniform(polygon_gauge(v @ _rotation(t).T))
                    for t in rng.uniform(0.0, 2.0 * math.pi, 8)]
            assert len({r.evaluations for r in runs}) == 1, (k, [r.evaluations for r in runs])
            for field in ("value", "lower"):
                got = [getattr(r, field) for r in runs]
                assert max(got) - min(got) <= 1e-15, (k, field, got)

    @pytest.mark.parametrize("seed", [1, 7, 901])
    def test_turned_bench_polygons_reach_their_defect(self, seed):
        turned = [b for b in _bench_bodies(seed) if b.name in ("square_turned", "hexagon_turned")]
        assert len(turned) == 2
        for b in turned:
            res = oracle_uniform(b.gauge)
            assert abs(res.value - 0.5 * math.log(b.d2_exact)) <= 1e-15, (b.name, res)

    @pytest.mark.parametrize("p, q, t", [
        (0.9489846115750945, -0.31532238581119937, 1.4452744299731493),
        (0.04854268277352062, -0.9988211090826771, 1.5626994858727365),
        (-0.9458581767194083, -0.3245802050850242, 1.8658679085771126),
    ])
    def test_turn_keeps_a_point_an_ulp_inside_the_disc_in_the_cone(self, p, q, t):
        # |(p, q)| < 1 by an ulp, and the turn by 2t rounds it onto the edge: the triple is
        # pulled back inside, by no more than its rounding
        assert math.hypot(p, q) < 1.0
        c, s = math.cos(2.0 * t), math.sin(2.0 * t)
        assert not math.hypot(p * c - q * s, p * s + q * c) < 1.0
        for a2 in (1.0, 3e-200, 7e250):
            params = _turned(a2, p, q, t)
            assert 1.0 - 1e-14 < math.hypot(params.b2, params.c2) / a2 < 1.0, (a2, params)


class TestMemory:
    def test_square_peak_stays_small(self):
        g = lp_gauge(math.inf)
        tracemalloc.start()
        try:
            oracle_uniform(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # a round's arrays are (live boxes, kept angles)

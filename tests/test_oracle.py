import math

import numpy as np
import pytest

from bmplane import oracle
from bmplane.ellipse import EllipseParams
from bmplane.errors import EmptyGrid
from bmplane.gauge import circle_gauge, ellipse_gauge, evaluation_grid, lp_gauge, polygon_gauge
from bmplane.oracle import OracleGrid, _argmin_lex, _uniqueness, oracle_uniform, oracle_value

import bodies

SQUARE_DEFECT = 0.25 * math.log(2.0)


def _stage_scan_log1p(fvals, cos2, sin2, log_a, us, thetas, executor=None):
    """Deviation value for every (theta, u, a) triple of the stage.

    Returns V with axes (theta, u, a); V[j, k, i] = max_phi |f + 0.5*log(a_i)
    + 0.5*log1p(u_k * cos(2*(phi - theta_j)))|.
    """
    sa = 0.5 * log_a

    def theta_slice(j):
        ct = cos2 * math.cos(2.0 * thetas[j]) + sin2 * math.sin(2.0 * thetas[j])
        prof = fvals + 0.5 * np.log1p(us[:, None] * ct[None, :])
        hmax = prof.max(axis=1)
        hmin = prof.min(axis=1)
        return np.maximum(hmax[:, None] + sa[None, :], -(hmin[:, None] + sa[None, :]))

    if executor is None:
        slices = [theta_slice(j) for j in range(thetas.size)]
    else:
        slices = list(executor.map(theta_slice, range(thetas.size)))
    return np.stack(slices, axis=0)


class TestOracleValue:
    def test_circle_zero(self):
        assert oracle_value(circle_gauge(), EllipseParams(1, 0, 0), 512) == 0.0

    def test_circle_offset(self):
        v = oracle_value(circle_gauge(), EllipseParams(0.5, 0, 0), 512)
        assert v == pytest.approx(0.5 * math.log(2.0), abs=1e-14)

    def test_square_best_circle(self):
        v = oracle_value(lp_gauge(math.inf), EllipseParams(2.0 ** -0.5, 0, 0), 4096)
        assert v == pytest.approx(SQUARE_DEFECT, abs=1e-6)

    def test_lower_bound_of_true_sup(self):
        g = polygon_gauge(bodies.diamond_vertices())
        e = EllipseParams(1.1, 0.05, -0.02)
        coarse = oracle_value(g, e, 64)
        fine = oracle_value(g, e, 8192)
        assert coarse <= fine + 1e-15


class TestOracleUniform:
    def test_circle(self):
        res = oracle_uniform(circle_gauge(), OracleGrid(n_phi=256))
        assert res.value <= 1e-6
        assert res.std.bprime == 0.0
        assert res.std.theta == 0.0
        assert res.std.a == pytest.approx(1.0, abs=1e-4)

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
        from bmplane.solver import solve_uniform

        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(50):
            g = polygon_gauge(bodies.random_star_polygon(rng, n_half=int(rng.integers(5, 12))))
            sol = solve_uniform(g)
            res = oracle_uniform(g)
            worst = max(worst, abs(res.value - sol.defect))
            assert abs(res.value - sol.defect) <= 1e-4, (res.value, sol.defect)
        assert worst > 0.0  # the two routes are genuinely independent

    def test_cluster_shrinks_with_margin(self):
        g = polygon_gauge(bodies.random_convex_polygon(np.random.default_rng(9)))
        radii = [
            oracle_uniform(g, OracleGrid(value_margin=m)).cluster_radius
            for m in (1e-1, 1e-2, 1e-3)
        ]
        assert radii[0] >= radii[1] >= radii[2]
        assert radii[2] < 0.25

    def test_runner_up_outside_neighborhood(self):
        res = oracle_uniform(lp_gauge(math.inf))
        assert np.isfinite(res.runner_up_distance)
        assert res.runner_up_distance > 0.0

    def test_threads_deterministic(self):
        g = polygon_gauge(bodies.hexagon_inradius_1())
        grid = OracleGrid(n_a=32, n_b=32, n_theta=32, n_phi=256, stages=2)
        r1 = oracle_uniform(g, grid, threads=1)
        r3 = oracle_uniform(g, grid, threads=3)
        assert r1.value == r3.value
        assert (r1.std.a, r1.std.bprime, r1.std.theta) == (r3.std.a, r3.std.bprime, r3.std.theta)
        assert r1.runner_up_distance == r3.runner_up_distance
        assert r1.cluster_radius == r3.cluster_radius

    @pytest.mark.parametrize("threads", [0, -1])
    def test_bad_thread_count(self, threads):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            oracle_uniform(circle_gauge(), threads=threads)

    def test_eval_cap_coarsens(self):
        grid = OracleGrid(n_a=256, n_b=256, n_theta=256, n_phi=512, eval_cap=2e7)
        res = oracle_uniform(circle_gauge(), grid)
        assert res.evaluations <= 2e7
        assert res.value <= 1e-3

    def test_grid_validation(self):
        with pytest.raises(EmptyGrid):
            OracleGrid(n_a=4)
        with pytest.raises(EmptyGrid):
            OracleGrid(a_range=(2.0, 1.0))
        with pytest.raises(EmptyGrid):
            OracleGrid(a_range=(-1.0, 1.0))
        with pytest.raises(EmptyGrid):
            OracleGrid(stages=0)

    def test_explicit_a_range(self):
        res = oracle_uniform(circle_gauge(), OracleGrid(n_a=64, n_b=16, n_theta=16,
                                                        n_phi=256, a_range=(0.5, 2.0)))
        assert res.std.a == pytest.approx(1.0, abs=1e-3)


class TestLogFreeScan:
    """The log-free (a, u, theta) stage scan against the log1p (theta, u, a) reference."""

    GRID = OracleGrid(n_a=48, n_b=48, n_theta=48, n_phi=512)

    def test_matches_log1p_scan(self, corpus, monkeypatch):
        rng = np.random.default_rng(4242)
        stars = {f"star{n}": polygon_gauge(bodies.random_star_polygon(rng)) for n in range(10)}
        log_free_scan = oracle._stage_scan
        stages = []

        def reference(*args, out=None):
            # the oracle passes a spent stage array as ``out``; the reference returns its own
            ref = _stage_scan_log1p(*args).transpose(2, 1, 0)
            new = log_free_scan(*args)
            assert new.flags.c_contiguous
            stages.append(float(np.abs(new - ref).max()))
            return ref

        for name, g in {**corpus, **stars}.items():
            res = oracle_uniform(g, self.GRID)
            with monkeypatch.context() as mp:
                mp.setattr(oracle, "_stage_scan", reference)
                ref = oracle_uniform(g, self.GRID)
            assert abs(res.value - ref.value) <= 1e-14, (name, res.value, ref.value)
            assert res.evaluations == ref.evaluations, name
        assert len(stages) == 20 * self.GRID.stages
        assert max(stages) <= 1e-13

    def test_out_buffer_is_filled_in_place(self, corpus):
        g = corpus["star"]
        phis = evaluation_grid(g, 256)
        args = (g.log_eval(phis), np.cos(2.0 * phis), np.sin(2.0 * phis),
                np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 0.9, 10), np.linspace(0.0, 3.0, 11))
        fresh = oracle._stage_scan(*args)
        buf = np.full_like(fresh, np.nan)
        assert oracle._stage_scan(*args, out=buf) is buf
        assert np.array_equal(buf, fresh)


class TestTieRule:
    """Exact ties resolve to the smallest (a, u, theta) index, in the minimum and the runner-up."""

    TIES = [(3, 0, 0), (2, 4, 1), (2, 1, 6), (2, 1, 5), (4, 5, 6)]  # smallest: (2, 1, 5)

    def test_argmin_lex(self):
        v = np.ones((5, 6, 7))
        for idx in self.TIES:
            v[idx] = 0.25
        assert _argmin_lex(v) == (2, 1, 5)

    def test_runner_up(self):
        log_a = np.linspace(-0.5, 0.5, 5)
        us = np.linspace(0.0, 0.9, 6)
        thetas = np.linspace(0.0, 3.0, 7)

        def xyz(i, k, j):
            a = math.exp(log_a[i])
            bp = us[k] * a
            return np.array([a, bp * math.cos(2.0 * thetas[j]), bp * math.sin(2.0 * thetas[j])])

        v = np.ones((5, 6, 7))
        v[0, 2, 3] = v[1, 3, 2] = 0.0  # the cluster within the margin
        for idx in self.TIES:
            v[idx] = 0.5
        best = xyz(0, 2, 3)
        runner_dist, cluster_radius = _uniqueness(v, log_a, us, thetas, best, 0.0, 0.1)
        assert len({round(float(np.linalg.norm(xyz(*t) - best)), 12) for t in self.TIES}) == 5
        assert runner_dist == pytest.approx(np.linalg.norm(xyz(2, 1, 5) - best), rel=1e-14)
        assert cluster_radius == pytest.approx(np.linalg.norm(xyz(1, 3, 2) - best), rel=1e-14)

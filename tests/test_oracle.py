import math
import tracemalloc

import numpy as np
import pytest

from bmplane import oracle
from bmplane.ellipse import EllipseParams, StdEllipseParams
from bmplane.errors import EmptyGrid
from bmplane.gauge import (
    _reduce, circle_gauge, ellipse_gauge, evaluation_grid, lp_gauge, polygon_gauge, sample_gauge,
)
from bmplane.oracle import OracleGrid, OracleResult, _argmin_lex, oracle_uniform

import bodies

SQUARE_DEFECT = 0.25 * math.log(2.0)


def _stage_scan_log1p(fvals, cos2, sin2, log_a, us, thetas):
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

    return np.stack([theta_slice(j) for j in range(thetas.size)], axis=0)


# -- the dense reference: every stage fills the whole (a, u, theta) array V,
# scans every angle, and takes the minimum from V


def _dense_stage_scan(fvals, cos2, sin2, log_a, us, thetas):
    """V[i, k, j] = max_phi |f + 0.5*log(a_i) + 0.5*log1p(u_k*c_j)|, c_j = cos(2*(phi - theta_j)),
    C-contiguous, axes (a, u, theta), from the log-free scan of every angle."""
    f_c = 0.5 * float(fvals.max() + fvals.min())
    r2 = np.exp(2.0 * (fvals - f_c))
    u_one, ones = np.column_stack([us, np.ones_like(us)]), np.ones_like(fvals)

    def theta_slice(j):
        ct = cos2 * math.cos(2.0 * thetas[j]) + sin2 * math.sin(2.0 * thetas[j])
        m = u_one @ np.array([ct, ones])
        m *= r2
        return m.max(axis=1), m.min(axis=1)

    ext = np.array([theta_slice(j) for j in range(thetas.size)])  # (n_theta, 2, n_b)
    hmax, hmin = 0.5 * np.log(np.ascontiguousarray(ext.transpose(1, 2, 0)))
    v = np.empty((log_a.size,) + hmax.shape)
    for i, shift in enumerate(f_c + 0.5 * log_a):
        np.maximum(hmax + shift, -shift - hmin, out=v[i])
    return v


def _dense_argmin_lex(v):
    return tuple(int(x) for x in np.unravel_index(int(np.argmin(v)), v.shape))


def _dense_oracle_uniform(gauge, grid, scan=_dense_stage_scan):
    """oracle_uniform's search on the dense stage array V made by ``scan``."""
    phis = evaluation_grid(gauge, grid.n_phi)
    fvals = gauge.log_eval(phis)
    cos2, sin2 = np.cos(2.0 * phis), np.sin(2.0 * phis)
    pad = 0.5 * float(fvals.max() - fvals.min()) + 1e-9
    full_la = (-2.0 * (float(fvals.max()) + pad), -2.0 * (float(fvals.min()) - pad))
    n_a, n_b, n_t = grid.n_a, grid.n_b, grid.n_theta
    while grid.stages * n_t * n_b * (phis.size + n_a) > oracle._EVAL_CAP and max(n_a, n_b, n_t) > 8:
        n_a, n_b, n_t = max(8, int(n_a * 0.9)), max(8, int(n_b * 0.9)), max(8, int(n_t * 0.9))

    u_bounds, t_bounds, la_bounds = (0.0, 1.0 - 1e-6), (0.0, math.pi * (1.0 - 1.0 / n_t)), full_la
    evaluations = 0
    for stage in range(grid.stages):
        log_a = np.linspace(la_bounds[0], la_bounds[1], n_a)
        us = np.linspace(u_bounds[0], u_bounds[1], n_b)
        thetas = np.linspace(t_bounds[0], t_bounds[1], n_t)
        v = scan(fvals, cos2, sin2, log_a, us, thetas)
        evaluations += n_t * n_b * (phis.size + n_a)
        i, k, j = _dense_argmin_lex(v)
        half_la = 0.5 * (la_bounds[1] - la_bounds[0]) / oracle._SHRINK
        half_u = 0.5 * (u_bounds[1] - u_bounds[0]) / oracle._SHRINK
        half_t = 0.5 * (t_bounds[1] - t_bounds[0]) / oracle._SHRINK
        la_bounds = (max(full_la[0], log_a[i] - half_la), min(full_la[1], log_a[i] + half_la))
        u_bounds = (max(0.0, us[k] - half_u), min(1.0 - 1e-6, us[k] + half_u))
        t_bounds = (thetas[j] - half_t, thetas[j] + half_t)

    best_value = float(v[i, k, j])
    best_a, best_u = math.exp(log_a[i]), float(us[k])
    best_theta = 0.0 if best_u == 0.0 else float(_reduce(thetas[j]))
    return OracleResult(StdEllipseParams(best_a, best_u * best_a, best_theta), best_value,
                        evaluations)


def _elementwise_range(r2, phis, cos2, sin2, us, thetas):
    """lb, ub over a 1-D window, elementwise: c reaches 1 (-1) where phi - theta passes q*pi
    ((q + 1/2)*pi), found by ceil, and each bound is r2*(1 + u*c)."""
    t_lo, t_hi = thetas[0], thetas[-1]
    c_first = cos2 * math.cos(2.0 * t_lo) + sin2 * math.sin(2.0 * t_lo)
    c_last = cos2 * math.cos(2.0 * t_hi) + sin2 * math.sin(2.0 * t_hi)
    top = math.pi * np.ceil((phis - t_hi) / math.pi) <= phis - t_lo
    bottom = math.pi * (np.ceil((phis - t_hi) / math.pi - 0.5) + 0.5) <= phis - t_lo
    c_hi = np.where(top, 1.0, np.maximum(c_first, c_last))
    c_lo = np.where(bottom, -1.0, np.minimum(c_first, c_last))
    ub = r2 * (1.0 + np.where(c_hi >= 0.0, us[-1], us[0]) * c_hi)
    lb = r2 * (1.0 + np.where(c_lo >= 0.0, us[0], us[-1]) * c_lo)
    return lb, ub


def _bits(result):
    """Every OracleResult field, floats as their exact hex form (-0.0 and nan included)."""
    fields = (result.std.a, result.std.bprime, result.std.theta, result.value)
    return tuple(float(x).hex() for x in fields) + (result.evaluations,)


def _bench_style_bodies(seed: int) -> dict:
    """Bodies with a closed-form d2, some fixed, some seeded, as the oracle benchmark draws them."""
    rng = np.random.default_rng([seed, 3])
    p, a2 = rng.uniform(1.2, 4.0), rng.uniform(0.5, 2.0)
    r, t = a2 * rng.uniform(0.1, 0.3), rng.uniform(0.0, 2.0 * math.pi)
    square = bodies.regular_polygon(4, rng.uniform(0.5, 2.0), rng.uniform(0.0, math.pi))
    hexagon = bodies.regular_polygon(6, rng.uniform(0.5, 2.0), rng.uniform(0.0, math.pi))
    return {
        "circle": circle_gauge(),
        "square": lp_gauge(math.inf),
        "ellipse": ellipse_gauge(EllipseParams(1.0, 0.2, 0.1)),
        "l3": lp_gauge(3.0),
        "lp_seeded": lp_gauge(p),
        "ellipse_seeded": ellipse_gauge(EllipseParams(a2, r * math.cos(t), r * math.sin(t))),
        "square_turned": polygon_gauge(square),
        "hexagon_turned": polygon_gauge(hexagon),
    }


def _stars(n: int) -> dict:
    rng = np.random.default_rng(4242)
    return {f"star{i}": polygon_gauge(bodies.random_star_polygon(rng)) for i in range(n)}


def _sweep_bodies() -> dict:
    """Stars, 10:1 to 1000:1 in-family ellipses, and a square and a hexagon at extreme scales."""
    cases = _stars(4)
    for ratio in (10.0, 100.0, 1000.0):
        e = EllipseParams(0.5 * (1.0 + ratio**2), 0.5 * (1.0 - ratio**2), 0.0)
        cases[f"ellipse{ratio:g}"] = ellipse_gauge(e)
    for scale in (1e-100, 1e-8, 1e8, 1e100):
        cases[f"square{scale:g}"] = polygon_gauge(scale * bodies.square_vertices())
        cases[f"hexagon{scale:g}"] = polygon_gauge(scale * bodies.hexagon_inradius_1())
    return cases


class TestOracleUniform:
    def test_circle(self):
        res = oracle_uniform(circle_gauge(), OracleGrid(n_phi=256))
        assert res.value <= 1e-6
        assert res.std.bprime == 0.0
        assert res.std.theta == 0.0
        assert res.std.a == pytest.approx(1.0, abs=1e-4)

    def test_tiny_negative_theta_is_zero(self):
        # the last stage's best theta is -8.7e-19, which np.mod(theta, pi) rounds to pi
        grid = OracleGrid(n_a=16, n_b=8, n_theta=27, n_phi=64, stages=4)
        g = ellipse_gauge(EllipseParams(1.0, 0.2, 0.0))
        res = oracle_uniform(g, grid)
        assert res.std.theta == 0.0 and math.copysign(1.0, res.std.theta) == 1.0
        assert _bits(res) == _bits(_dense_oracle_uniform(g, grid))

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

    @pytest.mark.parametrize("threads", [0, -1, 2, 3])
    def test_bad_thread_count(self, threads):
        # the search is serial: threads=1 stays only for the benchmark's call
        with pytest.raises(ValueError, match="threads must be 1"):
            oracle_uniform(circle_gauge(), threads=threads)

    def test_eval_cap_coarsens(self, monkeypatch):
        monkeypatch.setattr(oracle, "_EVAL_CAP", 2e7)
        grid = OracleGrid(n_a=256, n_b=256, n_theta=256, n_phi=512)
        res = oracle_uniform(circle_gauge(), grid)
        assert res.evaluations <= 2e7 < grid.stages * 256 * 256 * (512 + 256)
        assert res.value <= 1e-3

    def test_grid_validation(self):
        with pytest.raises(EmptyGrid):
            OracleGrid(n_a=4)
        with pytest.raises(EmptyGrid):
            OracleGrid(stages=0)


class TestLogFreeScan:
    """The log-free scan against the log1p (theta, u, a) reference."""

    GRID = OracleGrid(n_a=48, n_b=48, n_theta=48, n_phi=512)

    def test_matches_log1p_scan(self, corpus):
        stages = []

        def log1p_scan(*args):
            ref = _stage_scan_log1p(*args).transpose(2, 1, 0)
            stages.append(float(np.abs(_dense_stage_scan(*args) - ref).max()))
            return ref

        for name, g in {**corpus, **_stars(10)}.items():
            res = oracle_uniform(g, self.GRID)
            ref = _dense_oracle_uniform(g, self.GRID, scan=log1p_scan)
            assert abs(res.value - ref.value) <= 1e-14, (name, res.value, ref.value)
            assert res.evaluations == ref.evaluations, name
        assert len(stages) == 20 * self.GRID.stages
        assert max(stages) <= 1e-13


class TestDenseReference:
    """Every OracleResult field is the dense reference's, bit for bit."""

    GRIDS = {
        "default": OracleGrid(),
        "48": OracleGrid(n_a=48, n_b=48, n_theta=48, n_phi=512),
        "one-stage": OracleGrid(n_a=48, n_b=48, n_theta=48, n_phi=512, stages=1),
        "eval-cap": OracleGrid(n_a=64, n_b=64, n_theta=64, n_phi=256),  # under a 2e6 cap
    }

    @pytest.mark.parametrize("grid_name", list(GRIDS))
    def test_bitwise_equal(self, corpus, grid_name, monkeypatch):
        grid = self.GRIDS[grid_name]
        if grid_name == "eval-cap":
            monkeypatch.setattr(oracle, "_EVAL_CAP", 2e6)
        cases = {f"bench-{k}": g for k, g in _bench_style_bodies(7).items()}
        # the default grid costs 0.3 s a body: the bench bodies carry it
        if grid_name != "default":
            cases.update({**corpus, **_stars(10)})
        for name, g in cases.items():
            res = oracle_uniform(g, grid)
            assert _bits(res) == _bits(_dense_oracle_uniform(g, grid)), name
        if grid_name == "eval-cap":
            assert res.evaluations < grid.stages * 64 * 64 * (256 + 64)


class TestTileSearch:
    @staticmethod
    def _tiles(corpus):
        """(name, width, phis, r2, cos2, sin2, s, us, thetas) of 50 tiles a body: 1 to 16
        points a side, in windows as wide as each stage's and narrower, with u up to
        1 - 1e-6, where 1 + u*c nears 1e-6 and rounds worst."""
        rng = np.random.default_rng(19)
        for name, g in {**corpus, **_sweep_bodies()}.items():
            phis = evaluation_grid(g, 512)
            fvals = g.log_eval(phis)
            cos2, sin2 = np.cos(2.0 * phis), np.sin(2.0 * phis)
            f_c = 0.5 * float(fvals.max() + fvals.min())
            r2 = np.exp(2.0 * (fvals - f_c))
            la = -2.0 * float(fvals.max()) - 1.0, -2.0 * float(fvals.min()) + 1.0
            for width in (1.0, 1.0 / 6, 1.0 / 36, 1.0 / 216, 1e-6):
                for _ in range(10):
                    u_mid, t_mid, la_mid = rng.uniform(-0.2, 1.2), rng.uniform(0.0, math.pi), rng.uniform(*la)
                    u_ends = np.clip([u_mid - 0.5 * width, u_mid + 0.5 * width], 0.0, 1.0 - 1e-6)
                    us = np.linspace(u_ends[0], u_ends[1], 128)
                    thetas = np.linspace(t_mid - 0.5 * math.pi * width, t_mid + 0.5 * math.pi * width, 128)
                    half = 0.5 * width * (la[1] - la[0])
                    s = f_c + 0.5 * np.linspace(max(la[0], la_mid - half), min(la[1], la_mid + half), 128)
                    k, j = rng.integers(0, 128, 2)
                    us, thetas = us[k:k + rng.integers(1, 17)], thetas[j:j + rng.integers(1, 17)]
                    yield name, width, phis, r2, cos2, sin2, s, us, thetas

    def test_bound_is_rigorous(self, corpus):
        tiles = 0
        for name, width, _, r2, cos2, sin2, s, us, thetas in self._tiles(corpus):
            bound = oracle._tile_bounds(r2, cos2, sin2, s, us, thetas)
            hmax, hmin = oracle._stage_extremes(r2, cos2, sin2, us, thetas)
            margin = oracle._BOUND_MARGIN * (1.0 + np.abs(s).max())
            assert bound - margin <= _dense_v(s, hmax, hmin).min(), (name, width, us, thetas)
            tiles += 1
        assert tiles == 50 * 25

    def test_bound_matches_elementwise_reference(self, corpus):
        # as tight as the elementwise bound: on the tiles of test_bound_is_rigorous, B is within
        # 1e-12 of it, plus two ulps of max r2 against the smaller of max lb and min ub: near
        # u*c = -1 (u up to 1 - 1e-6) either rounding of r2*(1 + u*c) keeps no more
        excess = []
        for _, _, phis, r2, cos2, sin2, s, us, thetas in self._tiles(corpus):
            bound = oracle._tile_bounds(r2, cos2, sin2, s, us, thetas)
            lb, ub = _elementwise_range(r2, phis, cos2, sin2, us, thetas)
            ref = oracle._line_minima(s, 0.5 * np.log(lb.max()), 0.5 * np.log(ub.min()))[0]
            ulps = 2.0 * np.finfo(float).eps * r2.max() / min(lb.max(), ub.min())
            excess.append(abs(bound - ref) - (1e-12 + ulps))
        assert len(excess) == 50 * 25
        assert max(excess) <= 0.0, max(excess)

    GRIDS = {
        "33x37": OracleGrid(n_a=40, n_b=33, n_theta=37, n_phi=256),  # a one-row last u tile
        "17x8": OracleGrid(n_a=24, n_b=17, n_theta=8, n_phi=256),
        "9x8-six-stages": OracleGrid(n_a=16, n_b=9, n_theta=8, n_phi=128, stages=6),
    }

    @pytest.mark.parametrize("grid_name", list(GRIDS))
    def test_partial_tiles_bitwise_equal(self, corpus, grid_name):
        grid = self.GRIDS[grid_name]
        rng = np.random.default_rng(16)
        rough = {f"rough{n}": sample_gauge(1.0 + 0.2 * rng.random(n)) for n in (16, 64)}
        for name, g in {**corpus, **_sweep_bodies(), **rough}.items():
            assert _bits(oracle_uniform(g, grid)) == _bits(_dense_oracle_uniform(g, grid)), name

    def test_scans_a_small_share_of_the_grid(self, monkeypatch):
        # a count of the (u, theta, phi) points scanned, not a wall time: it repeats exactly
        scanned = []
        stage_extremes = oracle._stage_extremes

        def counting(r2, cos2, sin2, us, thetas):
            scanned.append(r2.size * us.size * thetas.size)
            return stage_extremes(r2, cos2, sin2, us, thetas)

        monkeypatch.setattr(oracle, "_stage_extremes", counting)
        grid = OracleGrid()
        full = grid.stages * grid.n_b * grid.n_theta * grid.n_phi
        total = 0
        for name, g in _bench_style_bodies(7).items():
            scanned.clear()
            oracle_uniform(g, grid)
            assert sum(scanned) <= 0.05 * full, (name, sum(scanned) / full)
            if name == "circle":  # its optimum is the u = 0 row, searched as one line
                assert sum(scanned) <= 0.001 * full, sum(scanned) / full
            total += sum(scanned)
        # the count with the elementwise bound of _elementwise_range: a looser bound scans more
        assert total == 2_595_924, total


class TestWindowAngles:
    def test_value_range_is_tight(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            phis = np.sort(rng.uniform(0.0, math.pi, 64))
            r2 = 1.0 + 0.3 * rng.random(64)
            width = 10.0 ** rng.uniform(-2.0, 0.3)  # up to a theta window wider than pi
            u_mid, t_mid = rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi)
            us = np.linspace(max(0.0, u_mid - 0.5 * width), min(1.0 - 1e-6, u_mid + 0.5 * width), 9)
            thetas = np.linspace(t_mid - 0.5 * math.pi * width, t_mid + 0.5 * math.pi * width, 9)
            lb, ub = oracle._value_range(r2, np.cos(2.0 * phis), np.sin(2.0 * phis), us, thetas)
            fine = np.linspace(thetas[0], thetas[-1], 1025)
            v = r2 * (1.0 + us[:, None, None] * np.cos(2.0 * (phis - fine[:, None])))
            assert (v >= lb - 1e-12).all() and (v <= ub + 1e-12).all()
            assert np.abs(v.min(axis=(0, 1)) - lb).max() <= 1e-4
            assert np.abs(v.max(axis=(0, 1)) - ub).max() <= 1e-4

    @pytest.mark.parametrize("width", [math.pi, math.pi + 1e-9, 2.0 * math.pi])
    def test_value_range_clamps_from_width_pi(self, width):
        # a window this wide passes c = 1 and c = -1 at every angle, also where c at its
        # midpoint rounds past -1 or 1: some of the angles within 2e-7 of t_mid + q*pi/2
        rng = np.random.default_rng(23)
        for t_mid in rng.uniform(0.0, math.pi, 20):
            near = t_mid + 0.5 * math.pi * np.arange(4)[:, None] + 1e-9 * np.arange(-200, 201)
            phis = np.sort(np.mod(np.append(near, rng.uniform(0.0, math.pi, 64)), math.pi))
            r2 = 1.0 + 0.3 * rng.random(phis.size)
            thetas = np.linspace(t_mid - 0.5 * width, t_mid + 0.5 * width, 9)
            for u_hi in (0.5, 1.0 - 1e-6):
                us = np.linspace(0.25 * u_hi, u_hi, 9)
                lb, ub = oracle._value_range(r2, np.cos(2.0 * phis), np.sin(2.0 * phis), us, thetas)
                ulps = 4.0 * np.spacing(r2)  # r2 + u*(r2*c) against r2*(1 + u*c)
                assert (np.abs(lb - r2 * (1.0 - u_hi)) <= ulps).all(), (t_mid, u_hi)
                assert (np.abs(ub - r2 * (1.0 + u_hi)) <= ulps).all(), (t_mid, u_hi)

    def test_keeps_every_extreme(self, corpus):
        rng = np.random.default_rng(11)
        shares = []
        for name, g in {**corpus, **_stars(4)}.items():
            phis = evaluation_grid(g, 512)
            fvals = g.log_eval(phis)
            cos2, sin2 = np.cos(2.0 * phis), np.sin(2.0 * phis)
            r2 = np.exp(2.0 * (fvals - 0.5 * (fvals.max() + fvals.min())))
            for width in (1.0, 1.0 / 6, 1.0 / 36, 1.0 / 216):  # the stage windows' relative size
                u_mid, t_mid = rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi)
                us = np.linspace(max(0.0, u_mid - 0.5 * width), min(1.0 - 1e-6, u_mid + 0.5 * width), 12)
                thetas = np.linspace(t_mid - 0.5 * math.pi * width, t_mid + 0.5 * math.pi * width, 12)
                keep = oracle._window_angles(r2, cos2, sin2, us, thetas)
                extremes = np.zeros(phis.size, dtype=bool)
                for theta in thetas:
                    ct = cos2 * math.cos(2.0 * theta) + sin2 * math.sin(2.0 * theta)
                    m = r2 * (1.0 + us[:, None] * ct)
                    extremes |= (m == m.max(axis=1, keepdims=True)).any(axis=0)
                    extremes |= (m == m.min(axis=1, keepdims=True)).any(axis=0)
                missed = np.setdiff1d(np.flatnonzero(extremes), keep)
                assert missed.size == 0, (name, width, missed)
                if width < 0.1:
                    shares.append(keep.size / phis.size)
        assert np.mean(shares) < 0.25  # narrow windows skip most angles


class TestMemory:
    def test_square_peak_stays_small(self):
        g = lp_gauge(math.inf)
        tracemalloc.start()
        try:
            oracle_uniform(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # a (128, 128, 128) stage array alone is 16 MiB


def _dense_v(s, hmax, hmin):
    return np.maximum(hmax[None] + s[:, None, None], -s[:, None, None] - hmin[None])


class TestTieRule:
    """Exact ties resolve to the smallest (a, u, theta) index."""

    TIES = [(3, 0, 0), (2, 4, 1), (2, 1, 6), (2, 1, 5), (4, 5, 6)]  # smallest: (2, 1, 5)
    S = np.arange(5.0) - 2.0  # s_i along every a-line

    def _lines(self, minima, plateau=()):
        """hmax, hmin of (6, 7) lines: V_i = w + |s_i - s_m| on the line (k, j) of (m, k, j) -> w
        in minima, and 1 + |s_i - s_0| elsewhere; a line in plateau also takes w at m + 1."""
        hmax, hmin = np.full((6, 7), 1.0 - self.S[0]), np.full((6, 7), -1.0 - self.S[0])
        for (m, k, j), w in minima.items():
            hmax[k, j] = w - self.S[m + 1 if (k, j) in plateau else m]
            hmin[k, j] = -w - self.S[m]
        return hmax, hmin

    def test_argmin_lex(self):
        # line (1, 5) reaches 0.25 at a-index 2 and again at 3: its first minimum wins
        hmax, hmin = self._lines({idx: 0.25 for idx in self.TIES}, plateau=[(1, 5)])
        v = _dense_v(self.S, hmax, hmin)
        assert v[3, 1, 5] == v[2, 1, 5] == v.min() == 0.25
        assert _argmin_lex(self.S, hmax, hmin) == (0.25, *_dense_argmin_lex(v)) == (0.25, 2, 1, 5)

    @pytest.mark.parametrize("offset", [0.0, 0.25, 0.75, 100.0])
    def test_quarter_grid_ties_match_dense(self, offset):
        # values on a quarter grid, every one shifted by offset: ties within and across lines
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = np.sort(0.25 * rng.integers(-4, 5, 9))  # repeats: as a-values closer than an ulp give
            hmax = 0.25 * rng.integers(-6, 6, (6, 7))
            hmin = hmax - 0.25 * rng.integers(0, 8, (6, 7))
            hmax, hmin = hmax + offset, hmin - offset
            v = _dense_v(s, hmax, hmin)
            assert _argmin_lex(s, hmax, hmin) == (v.min(), *_dense_argmin_lex(v))


class TestLineMinima:
    """_line_minima against the dense V on every line: the least value and its first index."""

    @staticmethod
    def _assert_dense(s, hmax, hmin):
        v = _dense_v(s, hmax, hmin)
        values, index = oracle._line_minima(s, hmax, hmin)
        assert np.array_equal(values, v.min(axis=0)), (s, hmax, hmin)
        assert np.array_equal(index, v.argmin(axis=0)), (s, hmax, hmin)

    @pytest.mark.parametrize("n_a", [1, 2, 9, 40])
    def test_quarter_grid_lines(self, n_a):
        # repeated s and quarter-grid h give plateaus at the bottom and on both slopes; the
        # crossing's guess -(hmax + hmin)/2 runs from far below s[0] to far above s[-1]
        rng = np.random.default_rng(31)
        guesses = []
        for _ in range(20):
            s = np.sort(0.25 * rng.integers(-4, 5, n_a))
            hmax = 0.25 * rng.integers(-24, 24, (6, 7))
            hmin = hmax - 0.25 * rng.integers(0, 8, (6, 7))
            guesses.append(np.searchsorted(s, -0.5 * (hmax + hmin)))
            self._assert_dense(s, hmax, hmin)
        assert {0, n_a} <= set(np.concatenate(guesses).ravel())

    def test_plateaus(self):
        # V = 1 + |s - x| on s = -2 -2 -1 -1 0 0 0 1 1 2 2 has plateaus at the bottom and on both
        # slopes; its crossing x runs from below s[0] to above s[-1], on and between the s values
        s = np.array([-2.0, -2.0, -1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        x = np.arange(-3.0, 3.25, 0.25)[None]
        self._assert_dense(s, 1.0 - x, -1.0 - x)

    def test_scalar_line(self):
        # _tile_bounds' reference takes one line, as 0-d hmax and hmin
        s = np.linspace(-1.0, 1.0, 9)
        value, index = oracle._line_minima(s, np.float64(0.3), np.float64(-0.1))
        v = np.maximum(0.3 + s, -s + 0.1)
        assert (value, index) == (v.min(), v.argmin())

import math
import re
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from bmplane.ellipse import EllipseParams
from bmplane.errors import (
    InputError,
    InvalidExponent,
    NonPositiveSample,
    NotStarShaped,
    NotSymmetric,
    OriginOutside,
    TooFewSamples,
)
from bmplane.gauge import (
    _reduce,
    circle_gauge,
    ellipse_gauge,
    evaluation_grid,
    gauge_from_descriptor,
    lp_gauge,
    polygon_gauge,
    sample_gauge,
)
from bmplane.solver import distance

import bodies

SQRT2 = math.sqrt(2.0)
_UNIT_SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])  # vertex radius 1


class TestPolygon:
    def test_square_radii(self):
        g = polygon_gauge(bodies.square_vertices())
        assert g.eval(0.0) == pytest.approx(1.0, abs=1e-14)
        assert g.eval(math.pi / 4) == pytest.approx(SQRT2, abs=1e-14)

    def test_hexagon_min_max(self):
        g = polygon_gauge(bodies.hexagon_inradius_1())
        grid = np.linspace(0.0, math.pi, 20001)
        r = g.eval(grid)
        assert r.min() == pytest.approx(1.0, abs=1e-12)
        assert r.max() == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_flat_diamond_edge_radius_matches_bisection_oracle(self):
        # independent oracle: bisect point-in-polygon along the pi/4 ray
        verts = np.array([[2.0, 0.0], [0.0, 1.0], [-2.0, 0.0], [0.0, -1.0]])
        oracle = bodies.ray_radius_by_bisection(verts, math.pi / 4)
        hand = 2.0 * SQRT2 / 3.0  # 2 / (cos + 2 sin) at pi/4
        assert oracle == pytest.approx(hand, abs=1e-12)
        g = polygon_gauge(verts)
        assert g.eval(math.pi / 4) == pytest.approx(hand, abs=1e-13)
        assert g.eval(0.0) == pytest.approx(2.0)
        assert g.eval(math.pi / 2) == pytest.approx(1.0)
        assert g.log_eval(math.pi / 4) == pytest.approx(math.log(hand), abs=1e-13)

    def test_vertex_roundtrip(self):
        rng = np.random.default_rng(3)
        wild_star = bodies.random_star_polygon(rng, r_lo=0.55, r_hi=1.9)
        for verts in (wild_star, bodies.random_convex_polygon(rng)):
            g = polygon_gauge(verts)
            for v in verts:
                phi = math.atan2(v[1], v[0])
                assert g.eval(phi) == pytest.approx(np.hypot(*v), abs=1e-10)

    def test_vertex_radii_within_two_ulps(self):
        # each edge's line passes through its own vertex: the vertices of a regular polygon
        # are on the unit circle to rounding, and so are the radii at their angles
        g = polygon_gauge(bodies.regular_polygon(2000, phase=0.3))
        r = g.eval(g.critical_angles())
        assert np.abs(r - 1.0).max() <= 2.0 * np.spacing(1.0)

    def test_scaling_exact(self):
        rng = np.random.default_rng(4)
        verts = bodies.random_star_polygon(rng, r_lo=0.55, r_hi=1.9)
        g1 = polygon_gauge(verts)
        g2 = polygon_gauge(2.5 * verts)
        phis = rng.uniform(-5, 5, 64)
        assert np.allclose(g2.eval(phis), 2.5 * g1.eval(phis), rtol=1e-12, atol=0.0)

    def test_symmetrize_appends_antipodes(self):
        g = polygon_gauge([(1.0, 0.2), (0.1, 1.0), (-1.0, 0.3)], symmetrize=True)
        phis = np.linspace(0, 2 * math.pi, 37)
        assert np.allclose(g.eval(phis), g.eval(phis + math.pi), atol=0.0)

    def test_asymmetric_rejected_without_flag(self):
        with pytest.raises(NotSymmetric):
            polygon_gauge([(1.0, 0.2), (0.1, 1.0), (-1.0, -0.1), (-0.1, -1.0), (0.5, -0.5)])

    def test_moved_vertex_rejected_without_flag(self):
        verts = bodies.random_star_polygon(np.random.default_rng(12))
        polygon_gauge(verts)
        verts[3] += 1e-9
        with pytest.raises(NotSymmetric):
            polygon_gauge(verts)

    def test_not_star_shaped(self):
        # symmetric bowtie traversal: angular order is violated
        with pytest.raises(NotStarShaped):
            polygon_gauge([(1, 1), (-1, -1), (1, -1), (-1, 1)])

    def test_nonconvex_star_is_supported(self):
        verts = [(2, 0), (0.5, 0.5), (0, 2), (-0.5, 0.5), (-2, 0), (-0.5, -0.5), (0, -2), (0.5, -0.5)]
        g = polygon_gauge(verts)
        assert g.eval(math.pi / 2) == pytest.approx(2.0, abs=1e-12)
        assert g.eval(math.pi / 4) == pytest.approx(math.hypot(0.5, 0.5), abs=1e-12)
        # and against the independent bisection oracle at an off-vertex angle
        oracle = bodies.ray_radius_by_bisection(np.asarray(verts, float), 0.4)
        assert g.eval(0.4) == pytest.approx(oracle, abs=1e-10)

    def test_origin_outside(self):
        # symmetric figure-eight: the two lobes cancel, winding 0 about the origin
        off = [(6, 1), (6, 2), (5, 2), (5, 1), (-5, -2), (-6, -2), (-6, -1), (-5, -1)]
        with pytest.raises(OriginOutside):
            polygon_gauge(off)
        # vertex at the origin
        with pytest.raises(OriginOutside):
            polygon_gauge([(0, 0), (1, 0), (0, 1)], symmetrize=True)

    @pytest.mark.parametrize("vertices, error, message", [
        ([1.0, 2.0, 3.0], InputError, r"vertices must be an \(n, 2\) array, got shape \(3,\)"),
        (np.ones((4, 3)), InputError, r"vertices must be an \(n, 2\) array, got shape \(4, 3\)"),
        ([[math.nan, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], InputError,
         "vertices contain non-finite coordinates"),
        ([[1.0, 0.0], [0.0, math.inf], [-1.0, 0.0], [0.0, -1.0]], InputError,
         "vertices contain non-finite coordinates"),
        (np.zeros((4, 2)), OriginOutside, "all vertices at the origin"),
        # 10 unit vectors 108 degrees apart: each turn is a left turn, and they wind 3 times
        (np.column_stack([np.cos(np.radians(108.0 * np.arange(10))),
                          np.sin(np.radians(108.0 * np.arange(10)))]),
         NotStarShaped, "boundary winds 3 times around the origin"),
    ], ids=["1-d", "3-columns", "nan", "inf", "all-at-origin", "winds-3-times"])
    def test_invalid_vertices(self, vertices, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            polygon_gauge(vertices)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e-162, 1e-170])
    def test_past_the_float_range_is_input_error(self, scale):
        # the star test's cross products of neighbouring vertices (up to scale^2) overflow, or
        # its bound 1e-14*scale^2 underflows to 0: it would read either as a ray that misses
        # the boundary, or pass a polygon whose radii are inf
        with pytest.raises(InputError, match=f"^largest vertex radius {re.escape(repr(scale))}: "
                                             "cross products leave the float range$"):
            polygon_gauge(scale * _UNIT_SQUARE)

    @pytest.mark.parametrize("scale", [1e-154, 1e154])
    def test_at_the_ends_of_the_float_range_solves(self, scale):
        # the cross products are scale^2 = 1e+-308, inside the float range
        assert distance(polygon_gauge(scale * _UNIT_SQUARE)) == pytest.approx(SQRT2, rel=1e-12)

    def test_too_few_vertices(self):
        with pytest.raises(NotStarShaped):
            polygon_gauge([(1, 0), (-1, 0)])
        with pytest.raises(NotStarShaped, match="3 distinct vertices"):
            polygon_gauge([(1, 0), (1, 0), (-1, 0), (-1, 0)])

    def test_repeated_vertices_count_once(self):
        # a closed ring repeats its first vertex at the end; the descriptor keeps the input
        square = bodies.square_vertices()
        ref = polygon_gauge(square)
        phis = np.linspace(0.0, 2.0 * math.pi, 101)
        for verts in (np.vstack([square, square[:1]]), np.vstack([square[:2], square[1:]]),
                      np.repeat(square, 3, axis=0)):
            g = polygon_gauge(verts)
            assert g.critical_angles().tobytes() == ref.critical_angles().tobytes()
            assert g.eval(phis).tobytes() == ref.eval(phis).tobytes()
            assert g.descriptor()["vertices"] == verts.tolist()

    @pytest.mark.parametrize("offset", [0.0, 1e-16, 1e-13, 1e-10])
    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_near_repeated_vertex_counts_once(self, offset, symmetrize):
        # a closed ring whose last vertex is the first moved by up to 1e-9 of the radius
        square = bodies.square_vertices()
        ring = np.vstack([square, square[:1] + offset])
        assert distance(polygon_gauge(ring, symmetrize=symmetrize)) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)


class TestLp:
    def test_euclidean(self):
        g = lp_gauge(2.0)
        phis = np.linspace(-3, 9, 101)
        assert np.allclose(g.eval(phis), 1.0, atol=1e-15)

    def test_linf_vertex(self):
        g = lp_gauge(math.inf)
        assert g.eval(math.pi / 4) == pytest.approx(SQRT2, abs=1e-15)
        assert g.log_eval(math.pi / 4) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_l1_diagonal(self):
        g = lp_gauge(1.0)
        assert g.eval(math.pi / 4) == pytest.approx(1.0 / SQRT2, abs=1e-15)

    @pytest.mark.parametrize("p", [0.5, 0.999, float("nan")])
    def test_invalid_exponent(self, p):
        with pytest.raises(InvalidExponent):
            lp_gauge(p)

    def test_large_p_stable(self):
        g = lp_gauge(800.0)
        r = g.eval(np.linspace(0, math.pi, 1001))
        assert np.isfinite(r).all() and r.min() > 0.99

    def test_linf_slopes_match_the_general_formula_bitwise(self):
        # the max-norm ball skips t^(p - 1) = t^inf; its slopes must be the general formula's floats
        g = lp_gauge(math.inf)
        corners = [x for c in (0.25 * math.pi, 0.75 * math.pi)
                   for x in (np.nextafter(c, -math.inf), c, np.nextafter(c, math.inf))]
        phis = np.concatenate([evaluation_grid(g, 4096), np.random.default_rng(3).uniform(-7.0, 7.0, 200_000),
                               np.array(corners), 0.25 * math.pi * np.arange(-8, 9)])
        red = _reduce(phis)
        cos, s = np.cos(red), np.sin(red)
        t = np.minimum(np.abs(cos), s) / np.maximum(np.abs(cos), s)
        tp = t ** math.inf
        slope = np.sign(cos * (np.abs(cos) - s)) * (t - tp) / (1.0 + t * tp)
        kink = np.isin(red, g.critical_angles())
        left, right = g.log_jet(phis)[1]
        assert left.tobytes() == np.where(kink, 1.0, slope).tobytes()
        assert right.tobytes() == np.where(kink, -1.0, slope).tobytes()

    @pytest.mark.parametrize("p", [1.0, 1.0 + 1e-12, 1.01, 1.5, 2.0, 3.0, 7.5, 50.0, 1e3, 1e6, 1e9])
    def test_one_power_per_evaluation_is_the_two_power_sum_bitwise(self, p):
        # f takes (c/m)^p + (s/m)^p as 1 + t^p: with m = max(c, s) one ratio is exactly 1 and the
        # other exactly t = min(c, s)/m, so the two forms are the same floats
        g = lp_gauge(p)
        corners = [np.nextafter(0.25 * math.pi, -math.inf), 0.25 * math.pi,
                   np.nextafter(0.25 * math.pi, math.inf), 0.0, 0.5 * math.pi, 0.75 * math.pi]
        phis = np.concatenate([evaluation_grid(g, 4096),
                               np.random.default_rng(5).uniform(0.0, math.pi, 200_000), corners])
        c, s = np.abs(np.cos(phis)), np.abs(np.sin(phis))
        m = np.maximum(c, s)
        f = -np.log(m) - np.log((c / m) ** p + (s / m) ** p) / p
        assert g.log_eval(phis).tobytes() == f.tobytes()
        assert g.log_jet(phis)[0].tobytes() == f.tobytes()


class TestSamples:
    def test_constant(self):
        g = sample_gauge(np.ones(16))
        assert np.allclose(g.eval(np.linspace(0, 7, 50)), 1.0, atol=0.0)

    def test_nodes_exact_for_ellipse_samples(self):
        e = EllipseParams(1.0, 0.25, -0.1)
        nodes = np.arange(64) * math.pi / 64
        rho = e.trig(nodes) ** -0.5
        g = sample_gauge(rho)
        assert np.allclose(g.eval(nodes), rho, atol=1e-15)

    @pytest.mark.parametrize("n", [1000, 4096, 100_000])
    def test_linear_samples_pass_through_their_samples(self, n):
        # the kinks are the node floats k*pi/N, the interpolant takes the samples there, and
        # the evaluation grid holds every one of them bit for bit
        values = 1.0 + 0.2 * np.random.default_rng(n).random(n)
        g = sample_gauge(values)
        nodes = g.critical_angles()
        assert not nodes.flags.writeable
        assert nodes.tobytes() == (np.arange(n) * math.pi / n).tobytes()
        assert g.eval(nodes).tobytes() == values.tobytes()
        assert np.isin(nodes, evaluation_grid(g, 4096)).all()

    def test_cosine_profile_linear_interp(self):
        k = np.arange(256) * math.pi / 256
        g = sample_gauge(1.0 + 0.1 * np.cos(2.0 * k))
        assert g.eval(math.pi / 8) == pytest.approx(1.0 + 0.1 * math.cos(math.pi / 4), abs=1e-6)

    def test_pchip_option(self):
        k = np.arange(64) * math.pi / 64
        g = sample_gauge(1.0 + 0.1 * np.cos(2.0 * k), interp="pchip")
        assert g.eval(math.pi / 8) == pytest.approx(1.0 + 0.1 * math.cos(math.pi / 4), abs=1e-4)
        phis = np.linspace(-2, 5, 301)
        assert np.allclose(g.eval(phis), g.eval(phis + math.pi), atol=1e-15)

    @pytest.mark.parametrize("n", [8, 9, 13, 64, 257, 1000, 4096])
    @pytest.mark.parametrize("rough", [False, True], ids=["smooth", "rough"])
    def test_pchip_is_scipys_bit_for_bit(self, n, rough):
        # r and r' are scipy's PCHIP through the samples padded by 3 periods' nodes on each side
        rng = np.random.default_rng(n)
        nodes = np.arange(n) * math.pi / n
        if rough:
            values = 1.0 + 0.2 * rng.random(n)
        else:
            values = np.exp(0.3 * np.cos(2.0 * nodes + rng.uniform(0.0, math.pi))
                            + 0.05 * np.sin(6.0 * nodes))
        g = sample_gauge(values, interp="pchip")
        k = np.arange(-3, n + 4)
        ref = PchipInterpolator(k * math.pi / n, values[np.mod(k, n)])
        phi = np.concatenate([nodes, rng.uniform(0.0, math.pi, 2000)])
        r, dr = g._pchip(phi, slope=True)
        assert r.tobytes() == g.eval(phi).tobytes() == ref(phi).tobytes()
        assert dr.tobytes() == ref(phi, 1).tobytes()
        left, right = g.log_jet(phi)[1]
        assert left.tobytes() == right.tobytes() == (ref(phi, 1) / ref(phi)).tobytes()
        assert math.isnan(g.eval(math.nan))

    @pytest.mark.parametrize("interp", ["linear", "pchip"])
    def test_nan_angle_is_nan(self, interp):
        # a NaN angle stays NaN on both interpolants, with no warning and no index error
        g = sample_gauge(1.0 + 0.1 * np.cos(np.arange(16)), interp=interp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(g.eval(math.nan)) and math.isnan(g.log_eval(math.nan))
            phi = np.array([math.nan, 0.0, 0.5])
            f, (left, right) = g.log_jet(phi)
            assert np.isnan(f[0]) and np.isnan(left[0]) and np.isnan(right[0])
            assert np.isfinite(f[1:]).all()
            assert np.isfinite(left[1:]).all() and np.isfinite(right[1:]).all()
            assert np.isnan(g.eval(phi)).tolist() == [True, False, False]

    def test_errors(self):
        with pytest.raises(TooFewSamples):
            sample_gauge(np.ones(7))
        with pytest.raises(NonPositiveSample):
            sample_gauge([1, 1, 1, 1, 0, 1, 1, 1])
        with pytest.raises(NonPositiveSample):
            sample_gauge([1, 1, 1, 1, math.nan, 1, 1, 1])
        with pytest.raises(InputError, match=r"^samples must be a 1-d array, got shape \(2, 8\)$"):
            sample_gauge(np.ones((2, 8)))
        with pytest.raises(InputError, match="^interp must be 'linear' or 'pchip', got 'cubic'$"):
            sample_gauge(np.ones(8), interp="cubic")
        # circle_gauge's rule at the least and the largest sample: r**-2 positive and finite,
        # checked with no RuntimeWarning (pytest makes one an error); bodies just inside it stay
        for interp in ("linear", "pchip"):
            for values in ([1e308, 1e307] * 8, [1e-300, 1e300] * 8, [1e-160] * 16):
                span = re.escape(f"[{min(values)!r}, {max(values)!r}]")
                with pytest.raises(InputError, match=rf"^samples span {span}: r\*\*-2 must be"):
                    sample_gauge(values, interp=interp)
            for scale in (8e-155, 5e161):
                sample_gauge(scale * np.ones(16), interp=interp)


class TestGeneric:
    def test_circle(self):
        g = circle_gauge()
        assert g.eval(0.37) == 1.0
        assert g.log_eval(-2.0) == 0.0
        assert circle_gauge(2.0).descriptor() == {"kind": "ellipse", "params": [0.25, 0.0, 0.0]}

    @pytest.mark.parametrize("params", [(1.7e308, 1e308, 0.0), (1e308, 0.0, 9e307),
                                        (1.79e308, -1e306, 1e306)])
    def test_ellipse_whose_r_overflows_is_input_error(self, params):
        # R's largest value a2 + |(b2, c2)| is past the float range: the solve would warn of
        # the overflow and end in a singular reference, naming neither the body nor the range
        with pytest.raises(InputError, match=f"^ellipse {re.escape(repr(params))}: R = .* "
                                             "past the float range$"):
            ellipse_gauge(EllipseParams(*params))

    @pytest.mark.parametrize("params", [(1e308, 0.0, 0.0), (1e308, 5e307, 1e307),
                                        (8.98e307, 8e307, 0.0)])
    def test_ellipse_near_the_top_of_the_float_range_solves(self, params):
        # R stays below the largest float; warnings are errors here
        assert distance(ellipse_gauge(EllipseParams(*params))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, 1e-200, 1e200])
    def test_circle_radius_out_of_range(self, radius):
        # radius**-2 must be a positive finite a2
        with pytest.raises(InputError):
            circle_gauge(radius)

    def test_positive_and_periodic_on_grid(self, corpus):
        # angles in [pi, 2pi): x - pi is exact in floats, so the reductions of
        # x and x - pi are bit-identical and the radii must agree exactly
        grid = math.pi + np.arange(4096) * math.pi / 4096
        for name, g in corpus.items():
            r = g.eval(grid)
            assert r.min() > 0.0, name
            assert np.abs(g.eval(grid - math.pi) - r).max() == 0.0, name
            # adding pi rounds the argument; the radii move by about one ulp of
            # angle times the radial slope
            assert np.abs(g.eval(grid + math.pi) - r).max() < 5e-14, name

    def test_ellipse_gauge_log(self):
        e = EllipseParams(1.0, 0.2, 0.1)
        g = ellipse_gauge(e)
        phis = np.linspace(0, math.pi, 33)
        assert np.allclose(g.log_eval(phis), -0.5 * np.log(e.trig(phis)), atol=1e-15)

    def test_evaluation_grid_includes_kinks(self):
        g = polygon_gauge(bodies.diamond_vertices())
        grid = evaluation_grid(g, 100)
        for ang in g.critical_angles():
            assert np.min(np.abs(grid - ang)) < 1e-15


class TestReduce:
    @staticmethod
    def _by_mod(phi):
        red = np.mod(np.asarray(phi, dtype=float), math.pi)
        return np.where(red >= math.pi, 0.0, red)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, -1e-300, np.nextafter(math.pi, 0.0), math.pi, 2.0 * math.pi, 1e6, math.nan,
        1.0, -3.0,
    ])
    def test_bitwise_np_mod(self, value):
        # angles in [0, pi) skip np.mod; the result must still be its bits, +0.0 for -0.0
        for phi in (value, np.array(value), np.array([value, 0.5, -value, 4.0])):
            ours, ref = _reduce(phi), self._by_mod(phi)
            assert type(ours) is type(ref) and ours.shape == ref.shape
            assert ours.tobytes() == ref.tobytes(), phi

    def test_early_return(self, monkeypatch):
        # an array wholly in [0, pi) returns before np.mod with its own bits, +0.0 for -0.0;
        # pi maps to 0 and NaN stays NaN on the other path, and the empty array passes
        inside = np.array([-0.0, 0.0, 1e-300, 0.5, np.nextafter(math.pi, 0.0)])
        cases = [(phi, self._by_mod(phi)) for phi in (inside, inside[:1], -0.0, np.array(-0.0))]
        with monkeypatch.context() as m:
            m.setattr(np, "mod", None)
            for phi, ref in cases:
                ours = _reduce(phi)
                assert ours.tobytes() == ref.tobytes(), phi
                assert not np.signbit(ours).any(), phi
        assert _reduce(np.array([0.5, math.pi])).tolist() == [0.5, 0.0]
        assert _reduce(math.pi).tobytes() == np.array(0.0).tobytes()
        red = _reduce(np.array([0.5, math.nan, -0.0]))
        assert red[0] == 0.5 and math.isnan(red[1]) and red[2:].tobytes() == np.zeros(1).tobytes()
        empty = _reduce(np.empty(0))
        assert empty.shape == (0,) and empty.dtype == np.float64

    def test_grid_is_its_own_reduction(self):
        grid = evaluation_grid(sample_gauge(1.0 + 0.1 * np.cos(np.arange(100))), 4096)
        assert _reduce(grid).tobytes() == self._by_mod(grid).tobytes() == grid.tobytes()


class TestJet:
    """``log_jet``: f and f' from one pass, f the bits of ``log_eval``, and both taken angle by
    angle, so a grid pass and a root-finding step agree on the angles they share."""

    @pytest.mark.parametrize(
        "g",
        [
            *(lp_gauge(p) for p in (1.0, 1.0001, 1.5, 2.0, 3.0, 50.0, math.inf)),
            sample_gauge(bodies.smooth_samples(np.random.default_rng(0), 128)),
            sample_gauge(1.0 + 0.2 * np.random.default_rng(8192).random(8192)),
            sample_gauge(bodies.smooth_samples(np.random.default_rng(1), 128), interp="pchip"),
            sample_gauge(1.0 + 0.2 * np.random.default_rng(300).random(300), interp="pchip"),
        ],
        ids=["l1", "l1.0001", "l1.5", "l2", "l3", "l50", "linf", "samples128", "rough-8192",
             "pchip128", "rough-pchip"],
    )
    def test_smooth_kinds(self, g):
        rng = np.random.default_rng(38)
        scattered = rng.uniform(-7.0, 7.0, 10_000)
        scattered[[17, 4711]] = math.pi, -0.0
        for phi in (evaluation_grid(g, 4096), scattered):
            f, slopes = g.log_jet(phi)
            assert f.tobytes() == g.log_eval(phi).tobytes()
            back, back_slopes = g.log_jet(phi[::-1])
            assert back[::-1].tobytes() == f.tobytes()
            for ours, ref in zip(slopes, back_slopes, strict=True):
                assert ours.tobytes() == ref[::-1].tobytes()

    @pytest.mark.parametrize(
        "g",
        [polygon_gauge(bodies.hexagon_inradius_1()), ellipse_gauge(EllipseParams(1.0, 0.2, 0.1))],
        ids=["hexagon", "ellipse"],
    )
    def test_closed_form_kinds_take_no_slopes(self, g):
        phi = evaluation_grid(g, 4096)
        f, slopes = g.log_jet(phi)
        assert f.tobytes() == g.log_eval(phi).tobytes() and slopes is None


class TestDescriptor:
    def test_roundtrip_all_kinds(self, corpus):
        phis = np.linspace(0, math.pi, 17)
        for name, g in corpus.items():
            g2 = gauge_from_descriptor(g.descriptor())
            assert np.allclose(g2.eval(phis), g.eval(phis), rtol=1e-15), name

    def test_payload_must_match_kind(self):
        with pytest.raises(InputError):
            gauge_from_descriptor({"kind": "lp", "samples": [1] * 8})
        with pytest.raises(InputError):
            gauge_from_descriptor({"kind": "lp", "p": 2, "samples": [1] * 8})
        with pytest.raises(InputError):
            gauge_from_descriptor({"kind": "square", "p": 2})
        with pytest.raises(InputError):
            gauge_from_descriptor({"kind": "ellipse", "params": [1, 0]})

    @pytest.mark.parametrize("descriptor, message", [
        ([{"kind": "lp", "p": 2}], "body descriptor must be an object, got list"),
        ("lp", "body descriptor must be an object, got str"),
        ({"kind": "lp", "p": 2, "colour": "red"}, r"unknown descriptor fields: \['colour'\]"),
    ], ids=["list", "string", "unknown-field"])
    def test_not_a_descriptor(self, descriptor, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            gauge_from_descriptor(descriptor)

    @pytest.mark.parametrize("descriptor", [
        {"kind": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]], "symmetrize": "false"},
        {"kind": "polygon", "vertices": [[1, 0], [0, 1]], "symmetrize": 1},
        {"kind": "lp", "p": 2, "symmetrize": None},
        {"kind": "lp", "p": True},
        {"kind": "lp", "p": False},
        {"kind": "lp", "p": None},
        {"kind": "lp", "p": [2]},
    ])
    def test_json_bool_and_number_only(self, descriptor):
        # bool("false") is True and True == 1 would read as the l1 ball
        with pytest.raises(InputError):
            gauge_from_descriptor(descriptor)

    @pytest.mark.parametrize("descriptor", [
        {"kind": "ellipse", "params": [True, 0, 0]},
        {"kind": "ellipse", "params": [1, "0", 0]},
        {"kind": "ellipse", "params": [1, None, 0]},
        {"kind": "samples", "samples": "abc"},
        {"kind": "samples", "samples": [1.0] * 7 + [False]},
        {"kind": "polygon", "vertices": [[1, "a"], [0, 1], [-1, 0], [0, -1]]},
        {"kind": "polygon", "vertices": [[1, 0], [0], [-1, 0], [0, -1]]},
    ], ids=["params-bool", "params-string", "params-null", "samples-string", "samples-bool",
            "vertex-string", "vertex-ragged"])
    def test_payloads_are_json_numbers(self, descriptor):
        # True == 1 and float("0") == 0 would read these as the unit circle or raise ValueError
        with pytest.raises(InputError):
            gauge_from_descriptor(descriptor)

    @pytest.mark.parametrize("descriptor", [
        {"kind": "lp", "p": 2, "interp": "pchip"},
        {"kind": "lp", "p": 2, "symmetrize": True},
        {"kind": "samples", "samples": [1.0, 1.1, 1.0, 0.9], "symmetrize": True},
        {"kind": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]], "interp": "pchip"},
        {"kind": "ellipse", "params": [1, 0, 0], "interp": "linear"},
    ], ids=["lp-interp", "lp-symmetrize", "samples-symmetrize", "polygon-interp", "ellipse-interp"])
    def test_fields_of_another_kind(self, descriptor):
        # symmetrize belongs to polygons and interp to samples; elsewhere they were ignored
        with pytest.raises(InputError, match="applies to kind"):
            gauge_from_descriptor(descriptor)

    def test_symmetrize_false_on_a_polygon(self):
        square = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
        g = gauge_from_descriptor({"kind": "polygon", "vertices": square, "symmetrize": False})
        assert g.eval(math.pi / 4) == pytest.approx(SQRT2)

    def test_inf_spellings(self):
        assert gauge_from_descriptor({"kind": "lp", "p": "inf"}).eval(math.pi / 4) == pytest.approx(SQRT2)

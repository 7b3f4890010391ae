import math

import numpy as np
import pytest

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
    circle_gauge,
    ellipse_gauge,
    evaluation_grid,
    gauge_from_descriptor,
    lp_gauge,
    polygon_gauge,
    sample_gauge,
)

import bodies

SQRT2 = math.sqrt(2.0)


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

    def test_too_few_vertices(self):
        with pytest.raises(NotStarShaped):
            polygon_gauge([(1, 0), (-1, 0)])


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


class TestSamples:
    def test_constant(self):
        g = sample_gauge(np.ones(16))
        assert np.allclose(g.eval(np.linspace(0, 7, 50)), 1.0, atol=0.0)

    def test_nodes_exact_for_ellipse_samples(self):
        e = EllipseParams(1.0, 0.25, -0.1)
        nodes = np.arange(64) * math.pi / 64
        g = sample_gauge(e.rho(nodes))
        assert np.allclose(g.eval(nodes), e.rho(nodes), atol=1e-15)

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

    def test_errors(self):
        with pytest.raises(TooFewSamples):
            sample_gauge(np.ones(7))
        with pytest.raises(NonPositiveSample):
            sample_gauge([1, 1, 1, 1, 0, 1, 1, 1])
        with pytest.raises(NonPositiveSample):
            sample_gauge([1, 1, 1, 1, math.nan, 1, 1, 1])


class TestGeneric:
    def test_circle(self):
        g = circle_gauge()
        assert g.eval(0.37) == 1.0
        assert g.log_eval(-2.0) == 0.0
        assert circle_gauge(2.0).descriptor() == {"kind": "ellipse", "params": [0.25, 0.0, 0.0]}

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
        assert np.allclose(g.log_eval(phis), e.log_rho(phis), atol=1e-15)

    def test_evaluation_grid_includes_kinks(self):
        g = polygon_gauge(bodies.diamond_vertices())
        grid = evaluation_grid(g, 100)
        for ang in g.critical_angles():
            assert np.min(np.abs(grid - ang)) < 1e-15


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

    def test_inf_spellings(self):
        assert gauge_from_descriptor({"kind": "lp", "p": "inf"}).eval(math.pi / 4) == pytest.approx(SQRT2)

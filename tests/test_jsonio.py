import hashlib
import json
import math

import numpy as np
import pytest

from bmplane import jsonio
from bmplane.gauge import circle_gauge, lp_gauge, polygon_gauge
from bmplane.report import build_report, report_to_dict
from bmplane.solver import solve_uniform

import bodies


def _render_by_element(obj, out: list):
    """The element-by-element renderer that ``jsonio.dumps`` used before, with negative zero
    written -0.0: the byte reference."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError(f"non-finite float {obj} is not representable in JSON")
        out.append("-0.0" if obj == 0.0 and math.copysign(1.0, obj) < 0.0 else format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _render_by_element(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            out.append(json.dumps(key))
            out.append(": ")
            _render_by_element(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _sha1_pair(payload) -> tuple[str, str]:
    out: list = []
    _render_by_element(payload, out)
    out.append("\n")
    ref = hashlib.sha1("".join(out).encode()).hexdigest()
    return hashlib.sha1(jsonio.dumps(payload).encode()).hexdigest(), ref


class TestDumps:
    def test_reports_match_element_renderer(self, solved_corpus):
        reports = {name: build_report(g, sol) for name, (g, sol) in solved_corpus.items()}
        g = polygon_gauge(bodies.regular_polygon(2000, phase=0.1))
        reports["2000-gon"] = build_report(g, solve_uniform(g))
        for name, report in reports.items():
            new, ref = _sha1_pair(report_to_dict(report))
            assert new == ref, name

    def test_float_arrays_of_any_shape(self):
        rng = np.random.default_rng(17)
        for shape in [(), (0,), (3,), (4, 2), (2, 0), (2, 3, 2)]:
            arr = np.asarray(rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape))
            payload = {"a": arr, "neg_zero": np.array([-0.0, 0.0]), "ints": np.arange(3)}
            new, ref = _sha1_pair(payload)
            assert new == ref, shape

    def test_negative_zero_reads_back_as_itself(self):
        text = jsonio.dumps({"z": [-0.0, 0.0, np.float64(-0.0)], "i": 0})
        assert text == '{"z": [-0.0, 0, -0.0], "i": 0}\n'
        back = jsonio.loads(text)
        assert type(back["z"][0]) is float and math.copysign(1.0, back["z"][0]) == -1.0
        assert jsonio.dumps(back) == text

    def test_reports_round_trip_bytes(self, solved_corpus):
        # a stored report loads and dumps to its own bytes: the circle's holds signed zeros
        solved = dict(solved_corpus)
        for name, g in (("circle-r2", circle_gauge(2.0)), ("lp3", lp_gauge(3.0)),
                        ("hexagon-turned", polygon_gauge(bodies.regular_polygon(6, phase=0.4)))):
            solved[name] = (g, solve_uniform(g))
        for name, (g, sol) in solved.items():
            text = jsonio.dumps(report_to_dict(build_report(g, sol)))
            assert jsonio.dumps(jsonio.loads(text)) == text, name
        assert "-0.0" in jsonio.dumps(report_to_dict(build_report(*solved["circle"])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_array_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps({"a": np.array([[1.0, 2.0], [bad, 3.0]])})


class TestLoads:
    @pytest.mark.parametrize("text", ["NaN", "[1.0, Infinity]", '{"d2": -Infinity}'])
    def test_non_finite_constants_raise(self, text):
        # dumps refuses non-finite floats, so loads does not take them either
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.loads(text)

    @pytest.mark.parametrize("text", ["1e400", "[1.0, -1e400]", '{"d2": 2e308}', "9" * 400, "-" + "9" * 400],
                             ids=["1e400", "-1e400", "2e308", "int400", "-int400"])
    def test_numbers_that_overflow_a_float_raise(self, text):
        # a float literal past the float range would read as inf, which dumps refuses
        with pytest.raises(ValueError, match="overflows a float"):
            jsonio.loads(text)

    def test_numbers_within_the_float_range_parse_as_before(self):
        text = '[1.7976931348623157e308, -1e-400, 5e-324, %s, -3, 0]' % ("9" * 308)
        assert jsonio.loads(text) == json.loads(text)
        assert type(jsonio.loads("7")) is int

import json
import math

import pytest

from bmplane import jsonio
from bmplane.gauge import circle_gauge, lp_gauge, polygon_gauge
from bmplane.report import build_report, report_to_dict
from bmplane.solver import solve_uniform

import bodies


def _render_by_element(obj) -> str:
    """A reference for ``jsonio.dumps``'s text, element by element: each float its repr,
    the shortest round trip, with the encoder's separators."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_render_by_element(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_render_by_element, obj)) + "]"
    return json.dumps(obj)


class TestDumps:
    def test_reports_match_element_renderer(self, solved_corpus):
        reports = {name: build_report(g, sol) for name, (g, sol) in solved_corpus.items()}
        g = polygon_gauge(bodies.regular_polygon(2000, phase=0.1))
        reports["2000-gon"] = build_report(g, solve_uniform(g))
        for name, report in reports.items():
            payload = report_to_dict(report)
            assert jsonio.dumps(payload) == _render_by_element(payload) + "\n", name

    def test_negative_zero_reads_back_as_itself(self):
        text = jsonio.dumps({"z": [-0.0, 0.0], "i": 0})
        assert text == '{"z": [-0.0, 0.0], "i": 0}\n'
        back = jsonio.loads(text)
        assert type(back["z"][0]) is float and math.copysign(1.0, back["z"][0]) == -1.0
        assert math.copysign(1.0, back["z"][1]) == 1.0 and type(back["i"]) is int
        assert jsonio.dumps(back) == text

    def test_text_is_the_stdlib_shortest_repr(self):
        # floats in their shortest round-trip repr: whole ones keep their ".0" and negative
        # zero its sign, so each reads back as the float it was, and the text as itself
        payload = {"third": 1.0 / 3.0, "zeros": [-0.0, 0.0], "one": 1.0, "tiny": 5e-324,
                   "max": 1.7976931348623157e308, "int": 7, "name": "ellipse \u00e9",
                   "nested": {"a": [1, {"b": -2.5}]}}
        text = jsonio.dumps(payload)
        assert text == ('{"third": 0.3333333333333333, "zeros": [-0.0, 0.0], "one": 1.0, '
                        '"tiny": 5e-324, "max": 1.7976931348623157e+308, "int": 7, '
                        '"name": "ellipse \\u00e9", "nested": {"a": [1, {"b": -2.5}]}}\n')
        back = jsonio.loads(text)
        assert back == payload and type(back["one"]) is float and type(back["int"]) is int
        assert math.copysign(1.0, back["zeros"][0]) == -1.0
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
        # JSON has no number for NaN or infinity, anywhere in a nested array
        with pytest.raises(ValueError, match="Out of range float"):
            jsonio.dumps({"a": [[1.0, 2.0], [bad, 3.0]]})


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

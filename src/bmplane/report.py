"""Geometric form of a solve: the optimal operator, its contact and extremal
points on the body, verification of their defining relations, and SVG views.

Conventions: the inscribed ellipse (the uniform optimum's triple scaled by
d2 = exp(2*defect)) is T_tilde(S^1) for the SPD operator T_tilde; T_hat =
T_tilde^-1 maps the body so that the unit circle is inscribed in the image
and the circle of radius d2 circumscribes it.  The certificate angles give
the extremal points x_i (where |T_hat x| = d2) and the contact points y_i
(where |T_hat y| = 1).  The angles interleave, phi1 < psi1 < phi2 < psi2 <
phi1 + pi, which is the statement that y1 lies in cone{x1, x2} and y2 in
cone{-x1, x2}; ``build_report`` raises ConeViolation when they do not.

A report is a function of the body, the uniform triple, its defect and the
certificate angles, and holds nothing else: the image-plane points T_hat x
and T_hat y are one product of its own fields away.  ``report_mismatches``
rebuilds it from those with ``build_report`` and names every stored field
that differs from the rebuild; ``bmplane verify`` and ``bmplane render``
check reports that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ellipse import EllipseParams, PDMatrix2, pd_sqrt
from .errors import BmplaneError, ConeViolation, InputError, NoConvergence
from .gauge import Gauge, _json_numbers
from .solver import AlternanceCertificate, UniformSolution, _distinct, certificate_deviations

__all__ = [
    "SolveReport",
    "TheoremVerdict",
    "build_report",
    "verify_theorem1",
    "render_svg",
    "report_to_dict",
    "report_from_dict",
    "report_mismatches",
]


@dataclass(frozen=True)
class SolveReport:
    d2: float
    defect: float
    params_uniform: EllipseParams
    params_inscribed: EllipseParams
    T_hat: PDMatrix2
    T_tilde: PDMatrix2
    x_points: tuple[tuple[float, float], tuple[float, float]]  # extremal boundary points
    y_points: tuple[tuple[float, float], tuple[float, float]]  # contact boundary points
    certificate: AlternanceCertificate


@dataclass(frozen=True)
class TheoremVerdict:
    x_norms_ok: bool
    y_norms_ok: bool
    cone_ok: bool
    distinct_ok: bool
    passed: bool
    x_norms: tuple[float, float]
    y_norms: tuple[float, float]


def build_report(gauge: Gauge, sol: UniformSolution) -> SolveReport:
    """Assemble the geometric report from a solved body.

    Reads the solution's triple, defect and certificate; the gauge is
    evaluated at the four certificate angles and nowhere else.  Raises
    ConeViolation when the certificate angles do not interleave, and
    NoConvergence when the inscribed triple's form overflows.
    """
    d2 = math.exp(2.0 * sol.defect)
    a2, b2 = sol.params.a2, sol.params.b2
    if not math.isfinite(a2 * d2 + abs(b2 * d2)):  # the form's largest entry; |c2| < a2
        raise NoConvergence(f"the form of the inscribed triple, the uniform one times d2 = "
                            f"{d2!r}, overflows: its a2 is 2^{math.log2(a2) + math.log2(d2):.3f}")
    inscribed = sol.params.scaled(d2)
    # quadratic form of the inscribed ellipse; T_hat is its SPD square root
    form = PDMatrix2(*inscribed.matrix().flat[[0, 1, 3]])
    t_hat = pd_sqrt(form)
    t_tilde = t_hat.inverse()

    cert = sol.certificate
    if not cert.interleaved():
        raise ConeViolation(f"certificate angles do not interleave: {cert.angles()}")
    angles = np.array(cert.angles())
    radii = gauge.eval(angles)
    x1, y1, x2, y2 = zip((radii * np.cos(angles)).tolist(), (radii * np.sin(angles)).tolist())
    return SolveReport(
        d2=d2,
        defect=sol.defect,
        params_uniform=sol.params,
        params_inscribed=inscribed,
        T_hat=t_hat,
        T_tilde=t_tilde,
        x_points=(x1, x2),
        y_points=(y1, y2),
        certificate=cert,
    )


_THEOREM1_TOL = 1e-6  # absolute, on |T_hat x_i| = d2 and |T_hat y_i| = 1


def verify_theorem1(report: SolveReport) -> TheoremVerdict:
    """Numerically re-check the defining relations of the optimal operator.

    Checks |T_hat x_i| = d2 and |T_hat y_i| = 1 within _THEOREM1_TOL, the two cone
    memberships, and that neither point pair is (anti)parallel.  The
    antipodal representatives are first normalized into one pi-window (the
    cone statement is invariant under p -> -p).  The data are two-by-two, so the
    arithmetic is on floats: numpy's per-call cost would be most of it.
    """
    t = report.T_hat

    def image_norm(p) -> float:
        return math.hypot(t.m11 * p[0] + t.m12 * p[1], t.m12 * p[0] + t.m22 * p[1])

    (x1, x2), (y1, y2) = report.x_points, report.y_points
    x_norms = (image_norm(x1), image_norm(x2))
    y_norms = (image_norm(y1), image_norm(y2))
    x_ok = all(abs(v - report.d2) <= _THEOREM1_TOL for v in x_norms)
    y_ok = all(abs(v - 1.0) <= _THEOREM1_TOL for v in y_norms)

    # each of y1, x2, y2, or its antipode, in the pi-window that starts at x1
    base = math.atan2(x1[1], x1[0])
    y1, x2, y2 = (p if 0.0 <= (math.atan2(p[1], p[0]) - base) % (2.0 * math.pi) < math.pi
                  else (-p[0], -p[1]) for p in (y1, x2, y2))

    def sine(u, v) -> float:
        """The sine of the angle from u to v; NaN, which fails every test below, where
        either is the origin."""
        lengths = math.hypot(*u) * math.hypot(*v)
        return (u[0] * v[1] - u[1] * v[0]) / lengths if lengths else math.nan

    # y1 in cone{x1, x2} and y2 in cone{-x1, x2}
    margins = (sine(x1, y1), sine(y1, x2), sine(x2, y2), sine(y2, (-x1[0], -x1[1])))
    cone_ok = all(m > -1e-12 for m in margins)
    distinct_ok = abs(sine(x1, x2)) > 1e-6 and abs(sine(y1, y2)) > 1e-6
    passed = x_ok and y_ok and cone_ok and distinct_ok
    return TheoremVerdict(x_ok, y_ok, cone_ok, distinct_ok, passed, x_norms, y_norms)


# -- serialization -----------------------------------------------------------

def report_to_dict(report: SolveReport) -> dict:
    cert = report.certificate
    return {
        "d2": report.d2,
        "defect": report.defect,
        "params_uniform": list(report.params_uniform.triple()),
        "params_inscribed": list(report.params_inscribed.triple()),
        "T_hat": report.T_hat.as_array().tolist(),
        "T_tilde": report.T_tilde.as_array().tolist(),
        "x_points": [list(p) for p in report.x_points],
        "y_points": [list(p) for p in report.y_points],
        "certificate": {
            "phi": [cert.phi1, cert.phi2],
            "psi": [cert.psi1, cert.psi2],
            "residuals": list(cert.residuals),
        },
    }


def _floats(value, shape: tuple[int, ...], name: str):
    """A report field of JSON numbers as a float for shape (), or as a tuple of floats, or
    of tuples of floats, for a shape of one or two lengths; any other shape is a malformed
    report."""
    _json_numbers(value, name)
    try:  # a TypeError is a list where a number belongs, or the reverse
        if not shape:
            return float(value)
        if len(value) == shape[0]:
            if len(shape) == 1:
                return tuple(map(float, value))
            if all(len(row) == shape[1] for row in value):
                return tuple(tuple(map(float, row)) for row in value)
    except TypeError:
        pass
    what = " x ".join(map(str, shape)) + " numbers" if shape else "a number"
    raise InputError(f"malformed report: {name} must be {what}, got {value!r}")


def report_from_dict(d: dict) -> SolveReport:
    """The report of its JSON dict.  Its numbers must be JSON numbers, as in a body
    descriptor, and each field must have its shape (a number, 3 for a triple, 2 x 2 for
    an operator or a point pair, 2 angles each for phi and psi, 4 residuals), else
    InputError; fields past the nine of a report are not read."""
    try:
        d2, defect = (_floats(d[key], (), key) for key in ("d2", "defect"))
        uniform, inscribed = (EllipseParams(*_floats(d[key], (3,), key))
                              for key in ("params_uniform", "params_inscribed"))
        t_hat, t_tilde = (PDMatrix2.from_array(_floats(d[key], (2, 2), key))
                          for key in ("T_hat", "T_tilde"))
        x_points, y_points = (_floats(d[key], (2, 2), key) for key in ("x_points", "y_points"))
        for key, points in (("x_points", x_points), ("y_points", y_points)):
            if not all(map(math.isfinite, points[0] + points[1])):
                raise InputError(f"malformed report: {key} must be two finite planar points")
        cert = d["certificate"]
        (phi1, phi2), (psi1, psi2) = (_floats(cert[key], (2,), f"certificate.{key}")
                                      for key in ("phi", "psi"))
        residuals = _floats(cert["residuals"], (4,), "certificate.residuals")
        return SolveReport(d2, defect, uniform, inscribed, t_hat, t_tilde, x_points, y_points,
                           AlternanceCertificate(phi1, psi1, phi2, psi2, residuals))
    except InputError:
        raise
    except (KeyError, TypeError, OverflowError, BmplaneError) as exc:
        raise InputError(f"malformed report: {exc}") from exc


# fields that scale with the body compare relative to their own size; the
# other numbers are scale-free (log units, angles, image-plane points) and
# compare relative to at least 1
_BODY_SCALED = frozenset(
    {"params_uniform", "params_inscribed", "T_hat", "T_tilde", "x_points", "y_points"}
)


def _leaves(d: dict, prefix: str = "") -> dict:
    """Dotted path -> value of the fields of a report dict."""
    out = {}
    for key, value in d.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_leaves(value, f"{path}."))
        else:
            out[path] = value
    return out


def _differs(stored, rebuilt, tol: float, floor: float) -> bool:
    try:
        a = np.asarray(stored, dtype=float)
    except (TypeError, ValueError):
        return True
    b = np.asarray(rebuilt, dtype=float)
    if a.shape != b.shape:
        return True
    scale = max(float(np.abs(b).max(initial=0.0)), floor)
    return not float(np.abs(a - b).max(initial=0.0)) <= tol * scale


def report_mismatches(gauge: Gauge, report: SolveReport, stored: dict, tol: float) -> list[str]:
    """The fields of a stored report that differ from its rebuild, as dotted paths.

    ``report`` is ``report_from_dict(stored)``, which the caller has read once.
    The rebuild is ``build_report`` on the body from the report's uniform
    triple, defect and certificate angles; its certificate residuals are the
    ``certificate_deviations`` there minus the defect.  Every field is
    compared, as numbers, within ``tol`` relative to the largest magnitude of
    the rebuilt field (at least 1 for the scale-free fields); a field on one
    side only differs.  A rebuild that raises a BmplaneError, or an OverflowError
    (a defect past 354.9), is one mismatch, "rebuild", with the error.
    """
    try:
        dev = certificate_deviations(gauge, report.params_uniform, report.certificate)
        cert = replace(report.certificate, residuals=tuple(v - report.defect for v in dev))
        sol = UniformSolution(report.params_uniform, report.defect, cert)
        rebuilt = _leaves(report_to_dict(build_report(gauge, sol)))
    except (BmplaneError, OverflowError) as exc:
        return [f"rebuild ({type(exc).__name__}: {exc})"]
    given = _leaves(stored)
    return [
        path for path in {**rebuilt, **given}
        if path not in given or path not in rebuilt
        or _differs(given[path], rebuilt[path], tol, 0.0 if path in _BODY_SCALED else 1.0)
    ]


# -- rendering ---------------------------------------------------------------

_CANVAS = 800.0
_MARGIN = 40.0


def _fmt(v: float) -> str:
    s = f"{v:.4f}"
    return "0.0000" if s == "-0.0000" else s


class _Frame:
    def __init__(self, extent: float):
        self.scale = (0.5 * _CANVAS - _MARGIN) / extent

    def raw(self, x: float, y: float) -> tuple[float, float]:
        return (0.5 * _CANVAS + self.scale * x, 0.5 * _CANVAS - self.scale * y)

    def pt(self, x: float, y: float) -> tuple[str, str]:
        rx, ry = self.raw(x, y)
        return _fmt(rx), _fmt(ry)

    def ln(self, v: float) -> str:
        return _fmt(self.scale * v)


def _path(frame: _Frame, points: np.ndarray) -> str:
    parts = []
    for i, (x, y) in enumerate(points):
        px, py = frame.pt(x, y)
        parts.append(f"{'M' if i == 0 else 'L'} {px} {py}")
    parts.append("Z")
    return " ".join(parts)


def _ellipse_element(frame: _Frame, params: EllipseParams, scale: float, style: str) -> str:
    """Ellipse rho(phi)*scale as a circle or rotated ellipse element."""
    std = params.to_std()
    r_minor, r_major = std.semi_axes()
    cx, cy = frame.pt(0.0, 0.0)
    if std.bprime <= 1e-12 * std.a:
        return f'<circle cx="{cx}" cy="{cy}" r="{frame.ln(scale * r_minor)}" {style}/>'
    rx = frame.ln(scale * r_minor)
    ry = frame.ln(scale * r_major)
    deg = _fmt(math.degrees(-std.theta))
    return (
        f'<ellipse cx="{cx}" cy="{cy}" rx="{rx}" ry="{ry}" '
        f'transform="rotate({deg} {cx} {cy})" {style}/>'
    )


def _marker(frame: _Frame, p, size: float, style: str, diamond: bool) -> str:
    rx, ry = frame.raw(p[0], p[1])
    x0, y0 = _fmt(rx - size / 2.0), _fmt(ry - size / 2.0)
    rot = f' transform="rotate(45 {_fmt(rx)} {_fmt(ry)})"' if diamond else ""
    return f'<rect x="{x0}" y="{y0}" width="{_fmt(size)}" height="{_fmt(size)}"{rot} {style}/>'


def _boundary_samples(gauge: Gauge, cert: AlternanceCertificate) -> np.ndarray:
    """Boundary points (n, 2) at 720 uniform angles, the certificate angles and
    the gauge's critical angles, each with its antipode, ascending in [0, 2pi)."""
    angles = np.array(cert.angles())
    crit = gauge.critical_angles()
    phi = _distinct(np.concatenate([
        np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False),
        np.mod(np.concatenate([angles, angles + math.pi]), 2.0 * math.pi), crit, crit + math.pi,
    ]))
    return gauge.eval(phi)[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])


def render_svg(report: SolveReport, gauge: Gauge, view: str = "body") -> str:
    """Deterministic SVG of the solution in the body or image plane; the boundary
    is sampled from ``gauge``, the body the report solves.

    The body view shows the boundary, the inscribed ellipse, and its
    d2-scaled circumscribing copy, with extremal points as squares and
    contact points as diamonds.  The image view is the same drawing under the
    optimal operator T_hat: the mapped boundary and points, the unit circle
    (the inscribed ellipse's image) and the circle of radius d2.
    """
    if view not in ("body", "image"):
        raise InputError(f"view must be 'body' or 'image', got {view!r}")
    # the image view is the body view under T_hat, which maps the inscribed ellipse to S^1
    inscribed, mapped = ((report.params_inscribed, np.asarray) if view == "body"
                         else (EllipseParams(1.0, 0.0, 0.0), report.T_hat.apply))
    curve = mapped(_boundary_samples(gauge, report.certificate))
    outer_radius = report.d2 * max(inscribed.to_std().semi_axes())
    frame = _Frame(max(float(np.hypot(curve[:, 0], curve[:, 1]).max()), outer_radius))

    body_style = 'fill="none" stroke="#202020" stroke-width="2"'
    inner_style = 'fill="none" stroke="#1f6fbf" stroke-width="1.5"'
    outer_style = 'fill="none" stroke="#bf3f3f" stroke-width="1.5"'
    x_style = 'fill="#bf3f3f" stroke="none"'
    y_style = 'fill="#1f6fbf" stroke="none"'

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
        f'height="{_CANVAS:.0f}" viewBox="0 0 {_CANVAS:.0f} {_CANVAS:.0f}">',
        f'<g id="body"><path d="{_path(frame, curve)}" {body_style}/></g>',
        f'<g id="inscribed">{_ellipse_element(frame, inscribed, 1.0, inner_style)}</g>',
        f'<g id="scaled">{_ellipse_element(frame, inscribed, report.d2, outer_style)}</g>',
    ]
    markers = []
    for p in mapped(report.x_points):
        markers.append(_marker(frame, p, 9.0, x_style, diamond=False))
        markers.append(_marker(frame, -p, 9.0, x_style, diamond=False))
    for p in mapped(report.y_points):
        markers.append(_marker(frame, p, 9.0, y_style, diamond=True))
        markers.append(_marker(frame, -p, 9.0, y_style, diamond=True))
    lines.append(f'<g id="points">{"".join(markers)}</g>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

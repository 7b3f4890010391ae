"""Geometric form of a solve: the optimal operator, its contact and extremal
points on the body, verification of their defining relations, and SVG views.

Conventions: the inscribed ellipse (one-sided shift of the uniform optimum)
is T_tilde(S^1) for the SPD operator T_tilde; T_hat = T_tilde^-1 maps the
body so that the unit circle is inscribed in the image and the circle of
radius d2 circumscribes it.  The certificate angles give the extremal points
x_i (where |T_hat x| = d2) and the contact points y_i (where |T_hat y| = 1);
all four directions are taken inside one pi-window starting at the first
certificate angle, which makes y1 lie in cone{x1, x2} and y2 in
cone{-x1, x2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipse import EllipseParams, PDMatrix2, pd_sqrt, pd_sqrt_inverse
from .errors import BmplaneError, ConeViolation, InputError
from .gauge import Gauge
from .solver import AlternanceCertificate, UniformSolution, to_one_sided

__all__ = [
    "SolveReport",
    "TheoremVerdict",
    "build_report",
    "verify_theorem1",
    "render_svg",
    "report_to_dict",
    "report_from_dict",
]


@dataclass(frozen=True)
class SolveReport:
    d2: float
    defect: float
    params_uniform: EllipseParams
    params_inscribed: EllipseParams
    T_hat: PDMatrix2
    T_tilde: PDMatrix2
    x_points: np.ndarray  # (2, 2): extremal boundary points
    y_points: np.ndarray  # (2, 2): contact boundary points
    certificate: AlternanceCertificate
    cone_condition_ok: bool
    diagnostics: dict


@dataclass(frozen=True)
class TheoremVerdict:
    x_norms_ok: bool
    y_norms_ok: bool
    cone_ok: bool
    distinct_ok: bool
    passed: bool
    x_norms: tuple[float, float]
    y_norms: tuple[float, float]


def _cross(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _cone_margins(x1, y1, x2, y2) -> tuple[float, ...]:
    """Normalized sine margins of y1 in cone{x1,x2} and y2 in cone{-x1,x2}."""

    def s(u, v):
        return _cross(u, v) / (np.hypot(*u) * np.hypot(*v))

    return (s(x1, y1), s(y1, x2), s(x2, y2), s(y2, -np.asarray(x1)))


def build_report(gauge: Gauge, sol: UniformSolution) -> SolveReport:
    """Assemble the geometric report from a solved body."""
    one_sided = to_one_sided(gauge, sol)
    inscribed = one_sided.params
    # quadratic form of the inscribed ellipse; T_hat is its SPD square root
    form = PDMatrix2(inscribed.a2 + inscribed.b2, inscribed.c2, inscribed.a2 - inscribed.b2)
    t_hat = pd_sqrt(form)
    t_tilde = pd_sqrt_inverse(form)
    d2 = math.exp(2.0 * sol.defect)

    cert = sol.certificate
    angles = np.array(cert.angles())
    radii = gauge.eval(angles)
    pts = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    x_points = pts[[0, 2]]
    y_points = pts[[1, 3]]

    margins = _cone_margins(x_points[0], y_points[0], x_points[1], y_points[1])
    cone_ok = bool(min(margins) > 0.0)
    if min(margins) < -1e-9:
        raise ConeViolation(
            f"certificate points violate the interleaving cones (margins {margins})"
        )

    tx = t_hat.apply(x_points)
    ty = t_hat.apply(y_points)
    u_points = tx / np.hypot(tx[:, 0], tx[:, 1])[:, None]

    body_angles = np.union1d(
        np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False),
        np.mod(np.concatenate([angles, angles + math.pi]), 2.0 * math.pi),
    )
    crit = gauge.critical_angles()
    if crit.size:
        body_angles = np.union1d(body_angles, np.concatenate([crit, crit + math.pi]))
    body_r = gauge.eval(body_angles)
    body = body_r[:, None] * np.column_stack([np.cos(body_angles), np.sin(body_angles)])

    diagnostics = {
        "solver": sol.diagnostics.as_dict(),
        "one_sided_value": one_sided.value,
        "one_sided_max_deviation": one_sided.max_deviation,
        "one_sided_min_deviation": one_sided.min_deviation,
        "cone_margins": [float(m) for m in margins],
        "u_points": u_points.tolist(),
        "v_points": ty.tolist(),
        "body_samples": body,
    }
    return SolveReport(
        d2=d2,
        defect=sol.defect,
        params_uniform=sol.params,
        params_inscribed=inscribed,
        T_hat=t_hat,
        T_tilde=t_tilde,
        x_points=x_points,
        y_points=y_points,
        certificate=cert,
        cone_condition_ok=cone_ok,
        diagnostics=diagnostics,
    )


def _window_representatives(x1, y1, x2, y2):
    """Flip antipodes so all four angles lie in one pi-window starting at x1."""
    base = math.atan2(x1[1], x1[0])
    out = [np.asarray(x1, dtype=float)]
    for p in (y1, x2, y2):
        ang = math.atan2(p[1], p[0])
        if not 0.0 <= (ang - base) % (2.0 * math.pi) < math.pi:
            p = -np.asarray(p, dtype=float)
        out.append(np.asarray(p, dtype=float))
    return out[0], out[1], out[2], out[3]


def verify_theorem1(report: SolveReport, tol: float = 1e-6) -> TheoremVerdict:
    """Numerically re-check the defining relations of the optimal operator.

    Checks |T_hat x_i| = d2 and |T_hat y_i| = 1 within tol, the two cone
    memberships, and that neither point pair is (anti)parallel.  The
    antipodal representatives are first normalized into one pi-window (the
    cone statement is invariant under p -> -p).
    """
    tx = report.T_hat.apply(report.x_points)
    ty = report.T_hat.apply(report.y_points)
    x_norms = tuple(float(v) for v in np.hypot(tx[:, 0], tx[:, 1]))
    y_norms = tuple(float(v) for v in np.hypot(ty[:, 0], ty[:, 1]))
    x_ok = all(abs(v - report.d2) <= tol for v in x_norms)
    y_ok = all(abs(v - 1.0) <= tol for v in y_norms)

    x1, x2 = report.x_points
    y1, y2 = report.y_points
    x1, y1, x2, y2 = _window_representatives(x1, y1, x2, y2)
    margins = _cone_margins(x1, y1, x2, y2)
    cone_ok = min(margins) > -1e-12

    def sep(u, v) -> float:
        return abs(_cross(u, v)) / (np.hypot(*u) * np.hypot(*v))

    distinct_ok = sep(x1, x2) > 1e-6 and sep(y1, y2) > 1e-6
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
        "x_points": report.x_points.tolist(),
        "y_points": report.y_points.tolist(),
        "certificate": {
            "phi": [cert.phi1, cert.phi2],
            "psi": [cert.psi1, cert.psi2],
            "residuals": list(cert.residuals),
        },
        "cone_condition_ok": report.cone_condition_ok,
        "diagnostics": report.diagnostics,
    }


def _as_points(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2, 2) or not np.isfinite(arr).all():
        raise InputError(f"{name} must be two finite planar points")
    return arr


def report_from_dict(d: dict) -> SolveReport:
    try:
        cert_d = d["certificate"]
        cert = AlternanceCertificate(
            phi1=float(cert_d["phi"][0]),
            psi1=float(cert_d["psi"][0]),
            phi2=float(cert_d["phi"][1]),
            psi2=float(cert_d["psi"][1]),
            residuals=tuple(float(r) for r in cert_d["residuals"]),
        )
        t_hat = PDMatrix2.from_array(d["T_hat"])
        t_tilde = (
            PDMatrix2.from_array(d["T_tilde"]) if "T_tilde" in d else t_hat.inverse()
        )
        return SolveReport(
            d2=float(d["d2"]),
            defect=float(d["defect"]),
            params_uniform=EllipseParams(*d["params_uniform"]),
            params_inscribed=EllipseParams(*d["params_inscribed"]),
            T_hat=t_hat,
            T_tilde=t_tilde,
            x_points=_as_points(d["x_points"], "x_points"),
            y_points=_as_points(d["y_points"], "y_points"),
            certificate=cert,
            cone_condition_ok=bool(d["cone_condition_ok"]),
            diagnostics=dict(d.get("diagnostics", {})),
        )
    except InputError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, BmplaneError) as exc:
        raise InputError(f"malformed report: {exc}") from exc


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
    if std.bprime <= 1e-12 * std.a:
        cx, cy = frame.pt(0.0, 0.0)
        return f'<circle cx="{cx}" cy="{cy}" r="{frame.ln(scale * r_minor)}" {style}/>'
    cx, cy = frame.pt(0.0, 0.0)
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


def render_svg(report: SolveReport, view: str = "body") -> str:
    """Deterministic SVG of the solution in the body or image plane.

    The body view shows the boundary, the inscribed ellipse, and its
    d2-scaled circumscribing copy, with extremal points as squares and
    contact points as diamonds.  The image view applies the optimal operator:
    the unit circle, the circle of radius d2, and the mapped boundary.
    """
    if view not in ("body", "image"):
        raise InputError(f"view must be 'body' or 'image', got {view!r}")
    body = np.asarray(report.diagnostics.get("body_samples", []), dtype=float)
    if body.size == 0:
        raise InputError("report carries no body samples; re-run solve to render")

    inscribed = report.params_inscribed
    std = inscribed.to_std()
    outer_radius = report.d2 * max(std.semi_axes())

    if view == "body":
        extent = max(float(np.hypot(body[:, 0], body[:, 1]).max()), outer_radius)
        frame = _Frame(extent)
        curve = body
        x_pts = report.x_points
        y_pts = report.y_points
    else:
        curve = report.T_hat.apply(body)
        extent = max(float(np.hypot(curve[:, 0], curve[:, 1]).max()), report.d2)
        frame = _Frame(extent)
        x_pts = report.T_hat.apply(report.x_points)
        y_pts = report.T_hat.apply(report.y_points)

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
    ]
    if view == "body":
        lines.append(f'<g id="inscribed">{_ellipse_element(frame, inscribed, 1.0, inner_style)}</g>')
        lines.append(f'<g id="scaled">{_ellipse_element(frame, inscribed, report.d2, outer_style)}</g>')
    else:
        cx, cy = frame.pt(0.0, 0.0)
        lines.append(f'<g id="inscribed"><circle cx="{cx}" cy="{cy}" r="{frame.ln(1.0)}" {inner_style}/></g>')
        lines.append(f'<g id="scaled"><circle cx="{cx}" cy="{cy}" r="{frame.ln(report.d2)}" {outer_style}/></g>')
    markers = []
    for p in x_pts:
        markers.append(_marker(frame, p, 9.0, x_style, diamond=False))
        markers.append(_marker(frame, -p, 9.0, x_style, diamond=False))
    for p in y_pts:
        markers.append(_marker(frame, p, 9.0, y_style, diamond=True))
        markers.append(_marker(frame, -p, 9.0, y_style, diamond=True))
    lines.append(f'<g id="points">{"".join(markers)}</g>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

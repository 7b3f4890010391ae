"""Banach-Mazur distance from a planar normed (or symmetric star-body) space
to the Euclidean plane, computed by minimax approximation of the log-radial
function over the ellipse family, with the optimal ellipse and its four-point
alternance certificate.

The top level exports the library API; everything else is importable from
its submodule (``bmplane.ellipse``, ``bmplane.errors``, ``bmplane.gauge``,
``bmplane.oracle``, ``bmplane.report``, ``bmplane.solver``).
"""

from .ellipse import EllipseParams
from .errors import BmplaneError
from .gauge import circle_gauge, ellipse_gauge, lp_gauge, polygon_gauge, sample_gauge
from .report import build_report, report_from_dict, report_to_dict, verify_theorem1
from .solver import distance, solve_uniform, verify_certificate

__version__ = "0.1.0"


def __getattr__(name: str):
    # the oracle is imported on first use: solve, verify and render never run it
    if name == "oracle_uniform":
        from .oracle import oracle_uniform

        return oracle_uniform
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

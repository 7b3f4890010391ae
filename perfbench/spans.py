"""In-memory spans around calls into bmplane, and the two wrapped boundaries.

A span records its name, start, end, parent span and operation id.  The
benchmark opens spans around the public calls it makes; during a traced pass
it also wraps ``Gauge.log_eval`` and the ``linprog`` name that
``bmplane.solver`` calls, the solver-to-HiGHS boundary.  Spans stay in memory
until the run ends and are then written out as JSON.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class BoundaryMissing(RuntimeError):
    """A boundary the traced pass must wrap is not where the benchmark expects it."""


@dataclass
class Span:
    sid: int
    name: str
    op: int
    parent: int  # -1 for a root span
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1].sid if self._stack else -1
        sp = Span(len(self.spans), name, self.op, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def totals(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: count, total duration, self time, and summed attributes.

        With ``root``, only spans whose outermost ancestor has that name count.
        """
        child_time = defaultdict(float)
        root_of: list[str] = []  # a parent always precedes its children
        for sp in self.spans:
            root_of.append(root_of[sp.parent] if sp.parent >= 0 else sp.name)
            if sp.parent >= 0:
                child_time[sp.parent] += sp.duration
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sp in self.spans:
            if root is not None and root_of[sp.sid] != root:
                continue
            t = out[sp.name]
            t["count"] += 1
            t["total_s"] += sp.duration
            t["self_s"] += sp.duration - child_time[sp.sid]
            for k, v in sp.attrs.items():
                t[k] += v
        return out

    def write(self, path) -> None:
        rows = [
            {"id": s.sid, "name": s.name, "op": s.op, "parent": s.parent,
             "start": s.start, "end": s.end, **s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))


@contextmanager
def wrapped_boundaries(tracer: Tracer):
    """Wrap Gauge.log_eval (and subclass overrides) and bmplane.solver.linprog.

    Raises BoundaryMissing if a boundary is gone, and also if the traced code
    never reached it: no call to ``log_eval``, or ``solve_uniform`` spans with
    no ``linprog`` call under any of them (the solver reaches HiGHS some other
    way, and the LP time would hide in ``solver.self_s``).
    """
    import bmplane.gauge as gauge_mod
    import bmplane.solver as solver_mod

    if not callable(getattr(solver_mod, "linprog", None)):
        raise BoundaryMissing("bmplane.solver no longer calls a module-level linprog")
    owners = [gauge_mod.Gauge]
    pending = list(gauge_mod.Gauge.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "log_eval" in vars(cls):
            owners.append(cls)
    if "log_eval" not in vars(gauge_mod.Gauge):
        raise BoundaryMissing("bmplane.gauge.Gauge has no log_eval method")

    originals = {cls: vars(cls)["log_eval"] for cls in owners}
    linprog = solver_mod.linprog

    def wrap_log_eval(fn):
        def log_eval(self, phi):
            with tracer.span("gauge.log_eval", points=int(np.size(phi))):
                return fn(self, phi)
        return log_eval

    def traced_linprog(c, A_ub=None, *args, **kwargs):
        rows = 0 if A_ub is None else int(np.shape(A_ub)[0])
        with tracer.span("solver.lp", rows=rows):
            return linprog(c, A_ub, *args, **kwargs)

    try:
        for cls, fn in originals.items():
            cls.log_eval = wrap_log_eval(fn)
        solver_mod.linprog = traced_linprog
        yield
    finally:
        for cls, fn in originals.items():
            cls.log_eval = fn
        solver_mod.linprog = linprog
    names = {sp.name for sp in tracer.spans}
    if "gauge.log_eval" not in names:
        raise BoundaryMissing("the traced pass made no call to Gauge.log_eval")
    if "solver.solve_uniform" in names and "solver.lp" not in names:
        raise BoundaryMissing("solve_uniform ran but never called bmplane.solver.linprog")

#!/usr/bin/env python3
"""Benchmark of the bmplane solver, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus|large|check|oracle|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every workload is a closed loop with one client: operations run
one after another in this process, and the ``cli`` workload starts one child
at a time.  BLAS/OpenMP threads are pinned to 1 here and in every child, and
the oracle runs with ``threads=1``.  ``PYTHONHASHSEED`` is fixed the same
way, so that peak memory depends on the workload seed alone.

Workloads and their operation (``op``):
  corpus  solve one small body in-process, gauge to report bytes
  large   the same on bodies whose kinks fill or exceed the 4096-angle grid
  check   the in-process work of ``bmplane verify`` on one stored report
          (set-up solved the corpus bodies once)
  oracle  ``oracle_uniform`` on one body whose d2 has a closed form
  cli     one child ``python -m bmplane.cli solve|verify``, import included

The measuring phase runs whole passes over the workload's bodies until
``--seconds`` have passed, so every run times the same body mix.  Every
operation's output is checked: the certificate passes ``verify_certificate``
at 1e-6 and ``verify_theorem1`` holds, d2 matches its closed form to 1e-9
where one exists, the oracle value is within 1e-4 of the exact defect, a
child exits 0 and ``verify`` prints ``verdict: pass``, and a body's report
bytes never change between passes, between traced and untraced passes, or
between the library and the command line.

With ``--trace 0`` the last line carries the end-to-end metrics: ops per
second of the measuring phase (at least two passes on ``cli`` and
``oracle``, whose single passes last about as long as ``--seconds``), set-up seconds (median of three children that
only import bmplane, plus the median of three builds of the inputs, plus on
``check`` the one solve of each body that makes the stored reports) and the peak resident memory of this process or its largest child.
The median and tail seconds per op are printed too, but are per-layer
numbers: from run to run they moved more than ops per second and the tail
more than a tenth.

With ``--trace 1`` the run measures the same untraced phase and then makes
one traced pass with spans; the last line carries the per-layer metrics, all
per body of the traced pass unless named otherwise, and 0 for a layer the
workload does not call.  The ``gauge.log_eval`` figures count only the calls
made inside the workload's own op (the solve, the check or the oracle), not
those of the output checks.  On ``cli`` the traced pass also solves each body
in-process, to compare its bytes with the child's; the ``solver``,
``report`` and ``jsonio.dumps`` figures there come from that library solve,
not from the children, whose cost shows only as ``cli.command_s``.  If a
wrapped boundary (``Gauge.log_eval``, the ``linprog`` that
``bmplane.solver`` calls) is gone or never reached, the run exits 2 without
a result.  Spans and a full result record are written to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads, inherited by every child
    os.environ[_var] = "1"
# The str hash seed orders sets and dicts, hence the allocation order, and
# moves the oracle workload's peak RSS between two levels 10% apart.  Fix it
# for this process (by starting it again) and every child, so that one
# workload seed always gives the same peak.
HASH_SEED = "0"
if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKDIR = OUT / f"tmp-{os.getpid()}"  # the cli workload's descriptor and report files
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_TIMEOUT_S = 170.0

CHECK_TOL = 1e-6  # verify_certificate tolerance, as `bmplane verify` uses
D2_REL_TOL = 1e-9  # d2 against its closed form
ORACLE_TOL = 1e-4  # oracle value against the exact defect
IMPORT_PROBES = 3
SETUP_REPEATS = 3

# typed errors counted per class; any other BmplaneError counts as the base class
ERROR_NAMES = (
    "NoConvergence",
    "NoAlternance",
    "ConeViolation",
    "NotInCone",
    "NotPD",
    "EmptyGrid",
    "InputError",
    "BmplaneError",
)
FAILURE_KINDS = ("failed_check", "nonzero_exit", "bytes_mismatch")


def _import_program():
    """Import bmplane from this checkout's src/, or stop without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import bmplane
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bmplane from {SRC}: {exc}")
    if Path(bmplane.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: bmplane was imported from {bmplane.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from bmplane import (  # noqa: E402
    build_report,
    jsonio,
    oracle_uniform,
    report_from_dict,
    report_to_dict,
    solve_uniform,
    verify_certificate,
    verify_theorem1,
)
from bmplane.errors import BmplaneError  # noqa: E402
from bmplane.gauge import evaluation_grid, gauge_from_descriptor  # noqa: E402

import bodies as body_sets  # noqa: E402
from spans import BoundaryMissing, Tracer, wrapped_boundaries  # noqa: E402


# -- bookkeeping ---------------------------------------------------------------


class Tally:
    """Operations attempted and failed, failures by kind, accuracy extremes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()
        self.certified = 0
        self.certificates = 0
        self.d2_rel_err_max = 0.0
        self.cert_residual_max = 0.0
        self.report_bytes: dict[str, str] = {}

    def begin(self, tr: Tracer):
        tr.op += 1
        self.attempted += 1

    def error(self, exc: BmplaneError):
        name = type(exc).__name__
        self.errors[name if name in ERROR_NAMES else "BmplaneError"] += 1
        self.failed += 1
        print(f"# error: {name}: {exc}")

    def same_bytes(self, key: str, text: str) -> bool:
        """Report bytes for a body must never change within a run."""
        first = self.report_bytes.setdefault(key, text)
        if first != text:
            self.errors["bytes_mismatch"] += 1
            print(f"# failure: report bytes of {key} changed")
            return False
        return True


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _tail(xs):
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n).

    With fewer than 11 samples no such percentile exists; the maximum is
    returned, labelled as the 100th percentile.
    """
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    s = sorted(xs)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


# -- operations ----------------------------------------------------------------


def solve_to_bytes(tr: Tracer, gauge) -> str:
    """What `bmplane solve` does after import: gauge to report bytes."""
    with tr.span("solve"):
        with tr.span("solver.solve_uniform"):
            sol = solve_uniform(gauge)
        with tr.span("report.build_report"):
            report = build_report(gauge, sol)
        with tr.span("report.report_to_dict"):
            payload = report_to_dict(report)
        with tr.span("jsonio.dumps"):
            return jsonio.dumps(payload)


def check_bytes(tally: Tally, tr: Tracer, body, text: str, timings: dict, diags: list) -> bool:
    """The in-process work of `bmplane verify`, timed, then the output checks."""
    t0 = time.perf_counter()
    with tr.span("check"):
        with tr.span("jsonio.loads"):
            payload = jsonio.loads(text)
        with tr.span("report.report_from_dict"):
            report = report_from_dict(payload)
        with tr.span("solver.verify_certificate"):
            verdict = verify_certificate(
                body.gauge, report.params_uniform, report.certificate, CHECK_TOL
            )
        with tr.span("report.verify_theorem1"):
            theorem = verify_theorem1(report)
    timings["check"].append(time.perf_counter() - t0)

    tally.certificates += 1
    tally.certified += int(verdict.passed)
    tally.cert_residual_max = max(
        tally.cert_residual_max, max(abs(r) for r in report.certificate.residuals)
    )
    diags.append(payload.get("diagnostics", {}).get("solver", {}))
    d2_ok = True
    if body.d2_exact is not None:
        err = abs(report.d2 - body.d2_exact) / body.d2_exact
        tally.d2_rel_err_max = max(tally.d2_rel_err_max, err)
        d2_ok = err <= D2_REL_TOL
    ok = verdict.passed and theorem.passed and d2_ok
    if not ok:
        tally.errors["failed_check"] += 1
        print(
            f"# failure: {body.name} check: certificate {verdict.passed}, "
            f"theorem {theorem.passed}, d2 {report.d2!r} vs {body.d2_exact!r}"
        )
    return ok


def run_child(tr: Tracer, args: list[str], name: str):
    t0 = time.perf_counter()
    with tr.span(name):
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    return proc, time.perf_counter() - t0


def import_probe(probes: int = IMPORT_PROBES) -> float:
    """Median wall time of a child that only imports bmplane."""
    times = []
    for _ in range(probes):
        proc, dt = run_child(Tracer(False), ["-c", "import bmplane"], "import")
        if proc.returncode != 0:
            sys.exit(f"perfbench: child cannot import bmplane: {proc.stderr.strip()}")
        times.append(dt)
    return _median(times)


# -- set-up --------------------------------------------------------------------


@dataclass
class Inputs:
    bodies: list
    grid_points: dict[str, int]
    parts: dict[str, float]  # set-up time by part, seconds
    reports: dict[str, str] = field(default_factory=dict)  # stored report bytes
    defects: dict[str, float] = field(default_factory=dict)  # exact defects


def build_inputs(make, seed: int, tally: Tally) -> Inputs:
    """The bodies and their grids, built SETUP_REPEATS times; the median counts."""
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = make(seed)
        grid_points = {b.name: int(evaluation_grid(b.gauge, 4096).size) for b in built}
        builds.append(time.perf_counter() - t0)
    return Inputs(built, grid_points, {"build_s": _median(builds)})


def build_stored_reports(make, seed: int, tally: Tally) -> Inputs:
    """The bodies, and one solve of each whose report bytes the loop reads."""
    inputs = build_inputs(make, seed, tally)
    t0 = time.perf_counter()
    for b in inputs.bodies:
        tally.attempted += 1
        try:
            text = solve_to_bytes(Tracer(False), b.gauge)
        except BmplaneError as exc:  # the body is left out of the loop
            tally.error(exc)
            continue
        inputs.reports[b.name] = text
    inputs.parts["fixture_solve_s"] = time.perf_counter() - t0
    return inputs


def build_exact_defects(make, seed: int, tally: Tally) -> Inputs:
    """The bodies and their defects, log(d2)/2, from the closed forms."""
    inputs = build_inputs(make, seed, tally)
    inputs.defects = {b.name: 0.5 * math.log(b.d2_exact) for b in inputs.bodies}
    return inputs


def build_descriptor_files(make, seed: int, tally: Tally) -> Inputs:
    """The bodies as the command line reads them, and their descriptor files."""
    inputs = build_inputs(make, seed, tally)
    inputs.bodies = [
        body_sets.Body(b.name, b.kind, b.size,
                       gauge_from_descriptor(b.gauge.descriptor()), b.d2_exact)
        for b in inputs.bodies
    ]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    for b in inputs.bodies:
        (WORKDIR / f"{b.name}.body.json").write_text(jsonio.dumps(b.gauge.descriptor()))
    return inputs


# -- one pass of each workload -------------------------------------------------


def solve_pass(inputs: Inputs, tally: Tally, tr: Tracer, timings: dict, diags: list):
    for b in inputs.bodies:
        tally.begin(tr)
        t0 = time.perf_counter()
        try:
            text = solve_to_bytes(tr, b.gauge)
            dt = time.perf_counter() - t0
            ok = check_bytes(tally, tr, b, text, timings, diags)
        except BmplaneError as exc:
            tally.error(exc)
            continue
        timings["op"].append(dt)
        timings["solve"].append(dt)
        tally.failed += int(not (tally.same_bytes(b.name, text) and ok))
        if tr.enabled:
            timings["report_bytes"].append(len(text))


def check_pass(inputs: Inputs, tally: Tally, tr: Tracer, timings: dict, diags: list):
    for b in inputs.bodies:
        text = inputs.reports.get(b.name)
        if text is None:  # its set-up solve failed and was counted there
            continue
        tally.begin(tr)
        try:
            ok = check_bytes(tally, tr, b, text, timings, diags)
        except BmplaneError as exc:
            tally.error(exc)
            continue
        timings["op"].append(timings["check"][-1])
        tally.failed += int(not ok)
        if tr.enabled:
            timings["report_bytes"].append(len(text))


def oracle_pass(inputs: Inputs, tally: Tally, tr: Tracer, timings: dict, diags: list):
    for b in inputs.bodies:
        tally.begin(tr)
        t0 = time.perf_counter()
        try:
            with tr.span("oracle.oracle_uniform") as sp:
                result = oracle_uniform(b.gauge, threads=1)
                if sp is not None:
                    sp.attrs["evaluations"] = result.evaluations
        except BmplaneError as exc:
            tally.error(exc)
            continue
        dt = time.perf_counter() - t0
        timings["op"].append(dt)
        timings["oracle"].append(dt)
        defect = inputs.defects[b.name]
        if abs(result.value - defect) > ORACLE_TOL:
            tally.errors["failed_check"] += 1
            tally.failed += 1
            print(f"# failure: {b.name} oracle {result.value!r} vs defect {defect!r}")


def cli_pass(inputs: Inputs, tally: Tally, tr: Tracer, timings: dict, diags: list):
    for b in inputs.bodies:
        body_path = WORKDIR / f"{b.name}.body.json"
        report_path = WORKDIR / f"{b.name}.report.json"
        for command in ("solve", "verify"):
            # traced: an import just before the child, so that their
            # difference is the command's own cost at the same host speed
            import_s = import_probe(1) if tr.enabled else 0.0
            tally.begin(tr)
            args = ["-m", "bmplane.cli", command, "--input", str(body_path)]
            args += ["--out" if command == "solve" else "--report", str(report_path)]
            proc, dt = run_child(tr, args, f"cli.{command}")
            timings["op"].append(dt)
            timings[f"cli_{command}"].append(dt)
            if tr.enabled:
                timings["cli_command"].append(dt - import_s)
            ok = proc.returncode == 0
            if not ok:
                tally.errors["nonzero_exit"] += 1
                print(f"# failure: {command} {b.name} exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}")
            elif command == "verify":
                ok = "verdict: pass" in proc.stdout.splitlines()
                if not ok:
                    tally.errors["failed_check"] += 1
                    print(f"# failure: verify {b.name}: {proc.stdout.strip()}")
            else:
                text = report_path.read_text()
                try:
                    checked = check_bytes(tally, tr, b, text, timings, diags)
                except BmplaneError as exc:
                    tally.error(exc)
                    continue
                ok = checked and tally.same_bytes(b.name, text)
                if tr.enabled:
                    timings["report_bytes"].append(len(text))
                    # the library route must give the command's bytes
                    ok = tally.same_bytes(b.name, solve_to_bytes(tr, b.gauge)) and ok
            tally.failed += int(not ok)


class Workload(NamedTuple):
    make_bodies: Callable  # seed -> list of bodies
    setup: Callable  # (bodies, seed, tally) -> Inputs
    run_pass: Callable  # (inputs, tally, tracer, timings, diags) -> None
    op_span: str  # the root span of the op, whose gauge calls are counted
    min_passes: int = 1


WORKLOADS = {
    "corpus": Workload(body_sets.corpus_bodies, build_inputs, solve_pass, "solve"),
    "large": Workload(body_sets.large_bodies, build_inputs, solve_pass, "solve"),
    "check": Workload(body_sets.corpus_bodies, build_stored_reports, check_pass, "check"),
    "oracle": Workload(body_sets.oracle_bodies, build_exact_defects, oracle_pass,
                       "oracle.oracle_uniform", 2),
    "cli": Workload(body_sets.cli_bodies, build_descriptor_files, cli_pass, "solve", 2),
}


# -- measuring -----------------------------------------------------------------


def measure(wl: Workload, inputs: Inputs, tally: Tally, tr: Tracer, seconds: float,
            passes: int = 0):
    """Exactly `passes` whole passes, or whole passes until `seconds` have passed
    and the workload's `min_passes` are done."""
    timings, diags = defaultdict(list), []
    t0 = time.perf_counter()
    done = 0
    while True:
        wl.run_pass(inputs, tally, tr, timings, diags)
        done += 1
        if passes:
            if done >= passes:
                break
        elif done >= wl.min_passes and time.perf_counter() - t0 >= seconds:
            break
    return timings, diags, time.perf_counter() - t0, done


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(timings: dict, wall: float, setup_s: float) -> dict:
    return {
        "ops_per_s": (len(timings["op"]) / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def op_seconds(timings: dict) -> dict:
    """Median and tail seconds per op; per-layer, as they repeat less well."""
    return {"op_s.p50": (_median(timings["op"]), "s"), "op_s.tail": (_tail(timings["op"])[0], "s")}


def named_metrics(timings: dict, wall: float) -> dict:
    """Seconds per solve, check, oracle call or child, by name, printed for reading."""
    out = dict(op_seconds(timings))
    for key in ("solve", "check", "oracle", "cli_solve", "cli_verify"):
        if not timings[key]:
            continue
        out[f"{key}_s.p50"] = (_median(timings[key]), "s")
        if key in ("solve", "check"):
            value, pct, n = _tail(timings[key])
            out[f"{key}_s.tail(p{pct:.1f},n={n})"] = (value, "s")
    if timings["solve"]:
        out["solves_per_s"] = (len(timings["solve"]) / wall, "1/s")
    return out


def per_layer(wl: Workload, inputs: Inputs, tally: Tally, tr: Tracer, traced: dict,
              diags: list, untraced: dict) -> dict:
    tot = tr.totals()
    in_op = tr.totals(root=wl.op_span)
    n_bodies = len(inputs.bodies)

    def per_body(name, key="total_s", totals=tot):
        return totals[name][key] / n_bodies if name in totals else 0.0

    def diag_mean(key):
        vals = [d[key] for d in diags if key in d]
        return sum(vals) / len(vals) if vals else 0.0

    solve_total = tot["solve"]["total_s"] if "solve" in tot else 0.0
    lp_total = tot["solver.lp"]["total_s"] if "solver.lp" in tot else 0.0
    m = {
        "gauge.log_eval.calls": (per_body("gauge.log_eval", "count", in_op), "count"),
        "gauge.log_eval.points": (per_body("gauge.log_eval", "points", in_op), "count"),
        "gauge.log_eval.self_s": (per_body("gauge.log_eval", "self_s", in_op), "s"),
        "gauge.grid_points": (max(inputs.grid_points.values()), "count"),
        "solver.lp.calls": (per_body("solver.lp", "count"), "count"),
        "solver.lp.rows": (per_body("solver.lp", "rows"), "count"),
        "solver.lp.self_s": (per_body("solver.lp", "self_s"), "s"),
        "solver.lp.share": (lp_total / solve_total if solve_total else 0.0, "ratio"),
        "solver.self_s": (per_body("solver.solve_uniform", "self_s"), "s"),
        "solver.bisect_iterations": (diag_mean("bisect_iterations"), "count"),
        "solver.polish_iterations": (diag_mean("polish_iterations"), "count"),
        "solver.lp_calls": (diag_mean("lp_calls"), "count"),
        "solver.verify_certificate_s": (per_body("solver.verify_certificate"), "s"),
        "solver.certified_ratio": (tally.certified / max(tally.certificates, 1), "ratio"),
        "solver.d2_rel_err_max": (tally.d2_rel_err_max, "ratio"),
        "solver.cert_residual_max": (tally.cert_residual_max, "1"),
        "report.build_report_s": (per_body("report.build_report"), "s"),
        "report.verify_theorem1_s": (per_body("report.verify_theorem1"), "s"),
        "jsonio.dumps_s": (per_body("jsonio.dumps"), "s"),
        "jsonio.loads_s": (per_body("jsonio.loads"), "s"),
        "jsonio.report_bytes": (_median(traced["report_bytes"]), "bytes"),
        "oracle.oracle_uniform_s": (per_body("oracle.oracle_uniform"), "s"),
        "oracle.evaluations": (per_body("oracle.oracle_uniform", "evaluations"), "count"),
        "cli.import_s": (inputs.parts["import_s"], "s"),
        "cli.command_s": (_median(traced["cli_command"]), "s"),
    }
    for name in ERROR_NAMES + FAILURE_KINDS:
        m[f"errors.{name}.count"] = (tally.errors[name], "count")
    m["failed_share"] = (tally.failed / max(tally.attempted, 1), "ratio")
    m.update(op_seconds(untraced))
    m["trace.overhead_share"] = (_median(traced["op"]) / _median(untraced["op"]) - 1.0, "ratio")
    return m


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "PYTHONHASHSEED": os.environ["PYTHONHASHSEED"],
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    tally = Tally()
    try:
        import_s = import_probe()
        inputs = wl.setup(wl.make_bodies, args.seed, tally)
        inputs.parts["import_s"] = import_s
        setup_s = sum(inputs.parts.values())
        timings, diags, wall, passes = measure(wl, inputs, tally, Tracer(False), args.seconds)
        if args.trace:
            tr = Tracer(True)
            try:
                with wrapped_boundaries(tr):
                    traced, traced_diags, _, _ = measure(wl, inputs, tally, tr, 0.0, passes=1)
            except BoundaryMissing as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    env = environment()
    e2e = end_to_end(timings, wall, setup_s)
    named = named_metrics(timings, wall)
    layers = (per_layer(wl, inputs, tally, tr, traced, traced_diags, timings)
              if args.trace else {})

    print(f"# workload {args.workload}, seed {args.seed}, {passes} pass(es), "
          f"{len(timings['op'])} ops in {wall:.3f} s; set-up parts {inputs.parts}")
    print(f"# environment {json.dumps(env)}")
    print("# bodies " + ", ".join(
        f"{b.name}({b.kind},{b.size},grid={inputs.grid_points[b.name]})" for b in inputs.bodies))
    for section, metrics in (("end-to-end", e2e), ("named", named), ("per-layer", layers)):
        for name, (value, unit) in metrics.items():
            print(f"{section:10s} {name:36s} {value!r} {unit}")
    print(f"failed_share {tally.failed}/{tally.attempted}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr.write(OUT / f"{stem}-spans.json")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "environment": env,
        "bodies": [
            {"name": b.name, "kind": b.kind, "size": b.size,
             "grid_points": inputs.grid_points[b.name]}
            for b in inputs.bodies
        ],
        "setup_parts": inputs.parts,
        "timings": timings,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **named, **layers}.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over two sets of seeds and check it against its bounds.

    python3 perfbench/spread.py --seeds 901-910 --repeat-seeds 1001-1010 \
        --traced-seed 911 --out perfbench/baseline.json

Every workload in ``BENCHMARK.json`` runs ``perfbench/run.py --trace 0`` for
``run_seconds`` on each seed of the first set, then on each seed of the
second.  For each end-to-end metric and set it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median, and how much worse the second median is than the first.
A metric passes if both spreads (except that of ``setup_s``) and the change
of median stay within its bound.  The median and tail seconds per op, kept as
per-layer numbers, are summarized the same way without a bound.  Then each
workload runs twice with ``--trace 1`` on the traced seed; the per-layer
metrics of the first run are kept and the counts must repeat exactly in the
second.  The summary, with each workload's bodies and the environment, is
written as JSON; the exit code is 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# per-layer counts that must repeat exactly on the same seed
COUNTS = ("solver.lp.calls", "solver.lp.rows", "gauge.log_eval.points",
          "oracle.evaluations", "jsonio.report_bytes")


def _seeds(text: str) -> list[int]:
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first set, e.g. 901-910")
    parser.add_argument("--repeat-seeds", required=True, help="second set, e.g. 1001-1010")
    parser.add_argument("--traced-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sets = (_seeds(args.seeds), _seeds(args.repeat_seeds))
    runs = [{w: [_run(w, s, seconds, 0) for s in seeds] for w in workloads} for seeds in sets]

    summary = {"command": " ".join(["python3", "perfbench/spread.py", *sys.argv[1:]]),
               "seeds": sets[0], "repeat_seeds": sets[1], "traced_seed": args.traced_seed,
               "seconds": seconds, "environment": None, "workloads": {}}
    accepted = True
    for workload in workloads:
        both = runs[0][workload] + runs[1][workload]
        entry = {
            "why": next(w["why"] for w in bench["workloads"] if w["name"] == workload),
            "bodies": both[-1]["record"]["bodies"],
            "failed": sum(r["result"]["failed"] for r in both),
            "attempted": sum(r["result"]["attempted"] for r in both),
            "end_to_end": {},
        }
        summary["environment"] = both[-1]["record"]["environment"]
        accepted &= entry["failed"] == 0
        print(f"{workload}: {entry['failed']}/{entry['attempted']} failed")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (_spread([r["result"]["metrics"][name]["value"] for r in rs])
                             for rs in (runs[0][workload], runs[1][workload]))
            change = (second["median"] - first["median"]) / first["median"]
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= bound and (name == "setup_s" or max(
                first["spread"], second["spread"]) <= bound)
            accepted &= ok
            entry["end_to_end"][name] = {"unit": metric["unit"], "bound": bound, "first": first,
                                         "second": second, "worse_than_first": worse, "ok": ok}
            print(f"  {name:12s} median {first['median']:.6g} / {second['median']:.6g} "
                  f"{metric['unit']:4s} spread {first['spread']:.4f} / {second['spread']:.4f} "
                  f"worse {worse:+.4f} (bound {bound}) {'ok' if ok else 'FAIL'}")
        for name in ("op_s.p50", "op_s.tail"):
            first, second = (_spread([r["record"]["metrics"][name]["value"] for r in rs])
                             for rs in (runs[0][workload], runs[1][workload]))
            entry[name] = {"first": first, "second": second}
            print(f"  {name:12s} median {first['median']:.6g} / {second['median']:.6g} s    "
                  f"spread {first['spread']:.4f} / {second['spread']:.4f} (per-layer)")
        traced, again = (_run(workload, args.traced_seed, seconds, 1) for _ in range(2))
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["named"] = {k: v["value"] for k, v in traced["record"]["metrics"].items()
                          if k not in entry["per_layer"]}
        entry["counts_repeat"] = all(
            traced["result"]["metrics"][k] == again["result"]["metrics"][k] for k in COUNTS)
        accepted &= entry["counts_repeat"] and traced["result"]["failed"] == 0
        print(f"  counts repeat on seed {args.traced_seed}: {entry['counts_repeat']}")
        summary["workloads"][workload] = entry

    summary["accepted"] = accepted
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"{'accepted' if accepted else 'NOT accepted'}; summary -> {args.out}")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())

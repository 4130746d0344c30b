#!/usr/bin/env python3
"""Paired benchmark record: `perfbench/run.py` on two checkouts, alternating.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --runs freqdomain:1-10 langevin:1-5 artifacts:1-5 \
        --claim freqdomain:wall_s:0.30 --out BENCH_23.json

For every workload and seed it runs ``perfbench/run.py --trace 0`` once in
each checkout, the parent first on odd pairs and the change first on even
ones, and keeps each run's JSON result, its failures and its measured times.
The output file is rewritten after every run, so an interrupted record
keeps the runs made. A run that exits nonzero is recorded with its exit
code and the last lines of its stderr, and the record stops there with
one line on stderr. Per workload and metric it holds both sides' medians
and quartiles, the pairs the change won (ties count for neither side), the
bound from BENCHMARK.json and whether the change's median is within it,
and the failed ops per seed. A ``--claim WORKLOAD:METRIC:FRACTION`` is met
when the change wins nine tenths of the pairs, its median is at least
FRACTION better, and the medians differ by more than the parent's IQR.

``--control PATH`` adds a third side to every pair: a second copy of the
parent, run from its own checkout. The three sides rotate which runs
first, and each metric also holds the control's quartiles, its ratio to
the parent's median and the pairs it won, so a difference between two
copies of the same code (checkout bias) reads beside the change's.

``src_lines`` holds each side's line count of ``src/optocool/*.py`` (the
sum of ``wc -l``), so the code size reads from the same record as the times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL = 20  # stderr lines kept from a run that exits nonzero


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(checkout, workload, seed, seconds):
    """One untraced run; its JSON result plus the failure lines, or for a
    run that exits nonzero only ``error``: its exit code and the last
    STDERR_TAIL lines of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": {"exit_code": proc.returncode,
                          "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL:]}}
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["failures"] = [ln for ln in lines if ln.startswith("failure [")]
    return result


def src_lines(checkout):
    """``wc -l`` summed over the checkout's ``src/optocool/*.py``."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "optocool").glob("*.py"))


def quartiles(values):
    if len(values) < 2:  # statistics.quantiles needs two points
        values = values * 2
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarise(runs, bounds, claims, sides):
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and "error" not in r["result"]:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = {s: p for s, p in pairs.items() if len(p) == len(sides)}
        if not pairs:
            continue
        entry = {"pairs": len(pairs), "seeds": sorted(pairs)}
        for metric, spec in bounds.items():
            par = [p["parent"]["metrics"][metric]["value"] for p in pairs.values()]
            chg = [p["change"]["metrics"][metric]["value"] for p in pairs.values()]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            won = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
            lost = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
            p_q, c_q = quartiles(par), quartiles(chg)
            entry[metric] = {
                "unit": spec["unit"], "parent": p_q, "change": c_q,
                "change_over_parent": c_q["median"] / p_q["median"] - 1.0,
                "change_better_pairs": f"{won}/{len(pairs)}",
                "change_worse_pairs": f"{lost}/{len(pairs)}",
                "bound": spec["bound"],
                "within_bound": (sign * (c_q["median"] - p_q["median"])
                                 <= spec["bound"] * p_q["median"]),
            }
            if "control" in sides:
                ctl = [p["control"]["metrics"][metric]["value"]
                       for p in pairs.values()]
                k_q = quartiles(ctl)
                won = sum(sign * (k - p) < 0 for p, k in zip(par, ctl))
                entry[metric].update({
                    "control": k_q,
                    "control_over_parent": k_q["median"] / p_q["median"] - 1.0,
                    "control_better_pairs": f"{won}/{len(pairs)}",
                })
        entry["failed_ops"] = {
            side: {str(s): {"failed": p[side]["failed"],
                            "attempted": p[side]["attempted"],
                            "correct": p[side]["correct"]}
                   for s, p in sorted(pairs.items())}
            for side in sides}
        summary[workload] = entry
    for claim in claims:
        workload, metric, fraction = claim.split(":")
        got = summary.get(workload, {}).get(metric)
        if got is None:
            continue
        won, n = map(int, got["change_better_pairs"].split("/"))
        p_med, c_med = got["parent"]["median"], got["change"]["median"]
        iqr = got["parent"]["q3"] - got["parent"]["q1"]
        got["claim"] = {
            "fraction": float(fraction), "parent_iqr_width": iqr,
            "median_gap": abs(p_med - c_med),
            "met": (won >= 0.9 * n and abs(p_med - c_med) > iqr
                    and abs(c_med / p_med - 1.0) >= float(fraction)
                    and (c_med < p_med) == (bounds[metric]["better"] == "lower")),
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--control", type=Path,
                        help="a copy of the parent, run as a third side")
    parser.add_argument("--runs", nargs="+", required=True,
                        help="WORKLOAD:SEEDS, seeds as N or N-M")
    parser.add_argument("--claim", nargs="*", default=[],
                        help="WORKLOAD:METRIC:FRACTION")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {
        "command": (f"python3 perfbench/run.py --workload W --seed N "
                    f"--seconds {args.seconds:g} --trace 0"),
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "design": ("parent and change alternate which runs first; each side "
                   "runs from its own checkout"),
        "runs": [], "summary": {},
    }
    checkouts = {"parent": args.parent, "change": args.change}
    if args.control is not None:
        checkouts["control"] = args.control
        record["design"] = ("parent, change and control (a copy of the "
                            "parent) rotate which runs first; each side "
                            "runs from its own checkout")
    sides = tuple(checkouts)
    record["src_lines"] = {side: src_lines(path)
                           for side, path in checkouts.items()}
    order = 0
    for item in args.runs:
        workload, _, seed_text = item.partition(":")
        for i, seed in enumerate(seeds(seed_text)):
            k = i % len(sides)
            for side in sides[k:] + sides[:k]:
                order += 1
                result = run_one(checkouts[side], workload, seed, args.seconds)
                record["runs"].append({"order": order, "side": side,
                                       "workload": workload, "seed": seed,
                                       "result": result})
                record["summary"] = summarise(record["runs"], bounds,
                                              args.claim, sides)
                args.out.write_text(json.dumps(record, indent=1) + "\n")
                where = f"{order} {workload} seed {seed} {side}"
                if "error" in result:
                    sys.exit(f"{where}: exited {result['error']['exit_code']}"
                             f"; its stderr tail is in {args.out}")
                print(f"{where}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4g}", flush=True)


if __name__ == "__main__":
    main()

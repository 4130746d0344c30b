#!/usr/bin/env python3
"""Wall time of each default CLI command, each run in a fresh process.

    python3 tools/cli_times.py [--checkout DIR ...] [--runs 15] [--out FILE]

Runs ``python -m optocool`` from ``<checkout>/src`` for every command that
needs no argument, with the built-in config, and for ``psd`` of the default
``simulate`` trace, which the first checkout writes once first and every
checkout reads. ``--checkout`` may be given more than once to compare
checkouts (default: this one). Each round runs every command once in every
checkout: the commands take turns, each command runs in all checkouts back
to back, and the checkout that runs first moves on by one each round, so a
slow spell of the host falls on all of them alike rather than on one
checkout. Every run writes into a new directory under one temporary
directory, removed at the end, and is timed from the start of its process
to its exit. It prints, and writes to ``--out`` if given, one JSON object:
per checkout and per command its times in ms, their median and quartiles,
and the number of runs. A command that exits nonzero ends the rounds: the
object then also holds, under ``failed``, its checkout, command, exit code
and the last lines of its stderr, the times measured before it are kept,
and the script stops with one line. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL = 20  # stderr lines kept from a command that exits nonzero

COMMANDS = {
    "susceptibility": ["susceptibility"],
    "noise-budget": ["noise-budget"],
    "cool sweep": ["cool", "sweep"],
    "cool optimum": ["cool", "optimum"],
    "cascade run": ["cascade", "run"],
    "simulate": ["simulate"],
    "psd": ["psd", "--input", "{trace}"],
    "chain report": ["chain", "report"],
    "paper-report": ["paper-report"],
}


class Failed(Exception):
    """A command that exited nonzero; its one argument is its record."""


def run(checkout, argv, out):
    """Seconds from the start of one ``python -m optocool`` to its exit;
    `Failed` if it exits nonzero."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    env.pop("OPTOCOOL_OUT", None)
    cmd = [sys.executable, "-m", "optocool", "--out", str(out), *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise Failed({"checkout": str(checkout), "command": " ".join(argv),
                      "exit_code": proc.returncode,
                      "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL:]})
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, action="append",
                        help="checkout to time; repeat to compare several")
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs: quartiles need at least 2 runs")
    checkouts = args.checkout or [ROOT]
    labels = [str(c) for c in checkouts]
    if len(set(labels)) < len(labels):
        parser.error("--checkout: each checkout once")

    times = {label: {name: [] for name in COMMANDS} for label in labels}
    failed = None
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            run(checkouts[0], ["simulate"], tmp / "trace")
            trace = tmp / "trace" / "trace.csv"
            for i in range(args.runs):
                first = i % len(checkouts)
                order = list(range(first, len(checkouts))) + list(range(first))
                for j, (name, command) in enumerate(COMMANDS.items()):
                    command = [a.format(trace=trace) for a in command]
                    for k in order:
                        out = tmp / f"run{i}" / str(j) / str(k)
                        times[labels[k]][name].append(
                            run(checkouts[k], command, out))
    except Failed as exc:
        failed = exc.args[0]
    summary = {}
    for label, commands in times.items():
        summary[label] = {}
        for name, values in commands.items():
            entry = summary[label][name] = {
                "runs": len(values), "times_ms": [1e3 * v for v in values]}
            if len(values) >= 2:  # the quartiles need two
                q1, median, q3 = statistics.quantiles(values, n=4,
                                                      method="inclusive")
                entry.update(median_ms=1e3 * median, q1_ms=1e3 * q1,
                             q3_ms=1e3 * q3)
    record = {"python": sys.version.split()[0], "checkouts": summary}
    if failed is not None:
        record["failed"] = failed
    text = json.dumps(record, indent=1)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    if failed is not None:
        sys.exit(f"{failed['checkout']}: {failed['command']}: exited "
                 f"{failed['exit_code']}; its stderr tail is in the record")


if __name__ == "__main__":
    main()

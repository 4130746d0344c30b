#!/usr/bin/env python3
"""optocool benchmark: one entry point for every workload.

    python3 perfbench/run.py --workload freqdomain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; optocool is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics. setup_s is the median wall
time of fresh interpreters that import optocool, load the workload's
config, build its models and generate its seeded inputs. The workload's
fixed job is then repeated in-process until ``--seconds`` is used up;
wall_s is the median job, and op_p50_ms and op_tail_ms are percentiles
over the ops of each op's median repetition.

Every time behind an end-to-end metric is normalised to a reference host
speed by the probe of ``hostclock.py``: the host is shared and its speed
drifts by up to a factor 1.5 over minutes. The measured times are printed
in the ``info`` line.

``--trace 1`` runs the job once untraced and once with every optocool
layer wrapped by the span tracer, and reports the per-layer metrics.

Every op is checked. Failures are counted with their reasons and the job
goes on; ``correct`` is false when a failure is not one of the labelled
known defects. The last line of standard output is the JSON result.
``--smoke`` shrinks every workload to a few ops for the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostclock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
WORKLOAD_NAMES = ("freqdomain", "langevin", "artifacts")
SETUP_REPEATS = 3
MAX_JOBS = 50
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops per workload, one setup probe")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_checkout_source():
    """Put the checkout's src/ first on sys.path, or fail without a result."""
    if not (SRC / "optocool" / "__init__.py").is_file():
        raise SystemExit(f"error: no optocool sources under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))


def workdir_for(args):
    return SCRATCH / f"{args.workload}-{os.getpid()}"


def setup_probe(args):
    """Body of one fresh-interpreter setup; prints its stage timings."""
    probe_start = hostclock.probe_s()
    before = len(sys.modules)
    t0 = time.perf_counter()
    import optocool  # noqa: F401  (timed import)
    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - before
    import workloads

    workdir = workdir_for(args)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_s = 0.5 * (probe_start + hostclock.probe_s())
    print(json.dumps({"import_s": import_s, "modules": modules,
                      **{f"{k}_s": v for k, v in w.stage_s.items()},
                      "probe_s": probe_s}))


def measure_setup(args):
    """Median normalised wall time of fresh-interpreter setups, the median
    measured one, and the stage timings each setup interpreter printed.

    Each setup's wall time is normalised by the mean of the host probes its
    interpreter ran at its start and end.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    walls, normalised, probes = [], [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit("error: setup probe failed: "
                             + proc.stderr.strip()[-800:])
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        normalised.append(walls[-1] * hostclock.REFERENCE_S / probes[-1]["probe_s"])
    return statistics.median(normalised), statistics.median(walls), probes


def environment(args):
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": args.seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def tally(checks, jobs):
    """Ops attempted and distinct failures of one pass over the inputs.

    Every job runs the same inputs, so attempted counts the once-per-run
    checks and one job; a failure repeated by later jobs counts once.
    """
    passes = jobs if checks is None else [checks] + jobs
    attempted = jobs[0].attempted + (0 if checks is None else checks.attempted)
    failures = list(dict.fromkeys(f for p in passes for f in p.failures))
    return attempted, failures


def untraced_metrics(w, args, setup, probes):
    """Repeat the job until --seconds is used up; report medians.

    Every job runs the same ops in the same order, each followed by a host
    probe. wall_s is the median of the jobs' normalised wall times; each
    op's latency is the median of its normalised repetitions, and p50 and
    the tail percentile are taken over the ops.
    """
    import workloads

    setup_s, measured_setup_s = setup
    checks = w.validate()
    jobs, spans = [], []
    start = time.perf_counter()
    while len(jobs) < MAX_JOBS:
        t0 = time.perf_counter()
        jobs.append(w.run(clock=hostclock.HostClock()))
        spans.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if args.smoke or elapsed + statistics.median(spans) > args.seconds:
            break
    per_op = [statistics.median(times) for times in zip(*(j.norm_op_s for j in jobs))]
    p50, tail, percentile = workloads.op_stats(per_op)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(j.norm_wall_s for j in jobs),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured_ops = [statistics.median(times) for times in zip(*(j.op_s for j in jobs))]
    measured_p50, measured_tail, _ = workloads.op_stats(measured_ops)
    probe_ms = [1e3 * p for j in jobs for p in j.clock.probes]
    notes = {"setup_stages_s": {k: statistics.median(p[k] for p in probes)
                                for k in probes[0]},
             "jobs": len(jobs), "ops_per_job": len(per_op),
             "tail_percentile": f"p{percentile}",
             "measured": {"setup_s": measured_setup_s,
                          "wall_s": statistics.median(j.wall_s for j in jobs),
                          "op_p50_ms": measured_p50, "op_tail_ms": measured_tail},
             "job_wall_s": [round(j.wall_s, 4) for j in jobs],
             "probe_ms": {"reference": 1e3 * hostclock.REFERENCE_S,
                          "median": statistics.median(probe_ms),
                          "min": min(probe_ms), "max": max(probe_ms)}}
    if checks is not None:
        notes["checks"] = checks.counters
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return tally(checks, jobs), metrics, notes


def traced_metrics(w, args, probes):
    """The faster of two untraced jobs, then setup, checks and one job
    under the tracer."""
    import layers
    import workloads
    from tracer import Tracer

    untraced = min((w.run(), w.run()), key=lambda job: job.wall_s)
    tracer = Tracer(layers.PROBES)
    with tracer:
        traced_w = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                                      workdir_for(args))
        checks = traced_w.validate(tracer)
        traced = traced_w.run(tracer)
    values = layers.layer_metrics(tracer, untraced, traced, probes)
    own = {layer: values[f"{layer}.self_ms"] for layer in layers.SELF_TIME_LAYERS}
    total = sum(own.values()) or 1.0
    ranked = sorted(own.items(), key=lambda kv: -kv[1])
    notes = {"dominant_self_time": [f"{k} {100 * v / total:.1f}%"
                                    for k, v in ranked[:4]],
             "top_spans": [f"{n}: {calls} calls, {1e3 * tot:.1f} ms total, "
                           f"{1e3 * own_s:.1f} ms self"
                           for n, calls, tot, own_s in tracer.table(12)]}
    metrics = {k: (v, layers.PER_LAYER[k]) for k, v in values.items()}
    return tally(checks, [traced, untraced]), metrics, notes


def run(args):
    use_checkout_source()
    if args.setup_probe:
        setup_probe(args)
        return None
    *setup, probes = measure_setup(args)
    import optocool
    import workloads

    if not Path(optocool.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported optocool from {optocool.__file__}, "
                         f"not from {SRC}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = workdir_for(args)
    try:
        w = cls(args.seed, args.smoke, workdir)
        if args.trace:
            counts, metrics, notes = traced_metrics(w, args, probes)
        else:
            counts, metrics, notes = untraced_metrics(w, args, setup, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    attempted, failures = counts
    by_label = Counter(label for label, _ in failures)
    unknown = [label for label in by_label if label not in workloads.KNOWN_DEFECTS]
    info = {"workload": args.workload, "why": cls.why, "exposes": cls.exposes,
            "leaves_unchanged": cls.unchanged, **environment(args), **notes,
            "failures_by_label": by_label}
    print("info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} ops)")
    for label, reason in failures[:40]:
        tag = "known" if label in workloads.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"failure [{label}, {tag}] {reason}")
    return {"correct": not unknown and attempted > 0, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    result = run(parse_args(sys.argv[1:] if argv is None else argv))
    if result is not None:
        print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()

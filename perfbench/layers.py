"""Per-layer metrics of a traced job, derived from the tracer's aggregates.

The layers are the optocool modules plus ``import`` (measured in the
fresh-interpreter setup probes), ``bench`` (the benchmark's own checking
time inside the job), ``proc`` and ``trace``.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import ROOT_PARENT
from workloads import Langevin

CONTROLLERS = Langevin.CONTROLLERS

CONFIG_BUILDERS = tuple(
    f"config.ExperimentConfig.{m}" for m in (
        "resonator", "fpi", "hli", "chain", "cascade_config", "sim_resonator",
        "sim_config", "imprecision_psd", "external_force_psd"))

# name -> unit; BENCHMARK.json lists the same names
PER_LAYER = {
    "import.optocool_s": "s",
    "import.modules": "count",
    "config.load_ms": "ms",
    "config.build_ms": "ms",
    "config.self_ms": "ms",
    "resonator.calls": "count",
    "resonator.self_ms": "ms",
    "cooling.variance_calls": "count",
    "cooling.variance_ms": "ms",
    "cooling.self_ms": "ms",
    "cooling.susceptibility_calls": "count",
    "cooling.omega_points": "count",
    "cooling.optimal_gain_ms": "ms",
    "cooling.numerical_errors": "count",
    "cascade.plan_ms": "ms",
    "cascade.stages": "count",
    "cascade.variance_at_us": "us",
    "cascade.self_ms": "ms",
    "feedback.self_ms": "ms",
    "readout.output_spectrum_ms": "ms",
    "readout.self_ms": "ms",
    "simulate.steps": "count",
    "simulate.ns_per_step.off": "ns",
    "simulate.ns_per_step.derivative": "ns",
    "simulate.ns_per_step.chain": "ns",
    "simulate.mc_s_per_seed": "s",
    "simulate.self_ms": "ms",
    "psd.calls": "count",
    "psd.ns_per_sample": "ns",
    "psd.self_ms": "ms",
    "spectrum.write_ms": "ms",
    "spectrum.interp_calls": "count",
    "spectrum.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "cli.read_mb_per_s": "MB/s",
    "cli.errors": "count",
    "bench.self_ms": "ms",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}

SELF_TIME_LAYERS = ("config", "resonator", "cooling", "cascade", "feedback",
                    "readout", "simulate", "psd", "spectrum", "cli")


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _omega_points(counters, args, kwargs, result, dur):
    omega = args[2] if len(args) > 2 else kwargs["omega"]
    _add(counters, "omega_points", int(np.size(omega)))


def _simulate(counters, args, kwargs, result, dur):
    controller = (args[0] if args else kwargs["cfg"]).controller
    _add(counters, f"steps.{controller}", int(result.x.size))
    _add(counters, f"simulate_s.{controller}", dur)


def _monte_carlo(counters, args, kwargs, result, dur):
    _add(counters, "mc_seeds", len(result.per_seed))
    _add(counters, "mc_s", dur)


def _plan_cascade(counters, args, kwargs, result, dur):
    _add(counters, "cascade_stages", len(result.stages))


def _estimate_psd(counters, args, kwargs, result, dur):
    _add(counters, "psd_samples", int(np.size(args[0] if args else kwargs["x"])))


PROBES = {
    "cooling.effective_susceptibility": _omega_points,
    "simulate.simulate": _simulate,
    "simulate.monte_carlo_variance": _monte_carlo,
    "cascade.plan_cascade": _plan_cascade,
    "psd.estimate_psd": _estimate_psd,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, untraced, traced, setup_probes):
    """Every PER_LAYER value for one traced job and its untraced twin."""
    tr = tracer
    c = tr.counters
    mb = 1e-6
    variance_at = "cascade.CascadeSchedule.variance_at"
    out = {
        "import.optocool_s": statistics.median(p["import_s"] for p in setup_probes),
        "import.modules": setup_probes[0]["modules"],
        "config.load_ms": 1e3 * tr.inclusive_s(("config.load_config",
                                                "config.parse_config")),
        "config.build_ms": 1e3 * tr.inclusive_s(CONFIG_BUILDERS),
        "resonator.calls": sum(calls for (_, _, n), (calls, _, _) in tr.spans.items()
                               if n.startswith("resonator.")),
        "cooling.variance_calls": tr.calls("cooling.closed_loop_variance"),
        "cooling.variance_ms": 1e3 * tr.inclusive_s("cooling.closed_loop_variance"),
        "cooling.susceptibility_calls": tr.calls("cooling.effective_susceptibility"),
        "cooling.omega_points": c.get("omega_points", 0),
        "cooling.optimal_gain_ms": 1e3 * tr.inclusive_s("cooling.optimal_gain"),
        "cooling.numerical_errors": tr.error_count("cooling", "NumericalError"),
        "cascade.plan_ms": 1e3 * tr.inclusive_s("cascade.plan_cascade"),
        "cascade.stages": c.get("cascade_stages", 0),
        "cascade.variance_at_us": 1e6 * _ratio(tr.inclusive_s(variance_at),
                                               tr.calls(variance_at)),
        "readout.output_spectrum_ms": 1e3 * tr.inclusive_s(
            "readout.FpiReadout.output_spectrum"),
        "simulate.steps": sum(c.get(f"steps.{k}", 0) for k in CONTROLLERS),
        "simulate.mc_s_per_seed": _ratio(c.get("mc_s", 0.0), c.get("mc_seeds", 0)),
        "psd.calls": tr.calls("psd.estimate_psd"),
        "psd.ns_per_sample": 1e9 * _ratio(tr.inclusive_s("psd.estimate_psd"),
                                          c.get("psd_samples", 0)),
        "spectrum.write_ms": 1e3 * tr.inclusive_s("spectrum.write_spectrum_csv"),
        "spectrum.interp_calls": tr.calls("spectrum.SpectrumRecord.interp"),
        "cli.bytes_written": traced.counters.get("cli.bytes_written", 0),
        # cli self time of a command is its argument parsing plus the CSV
        # formatting and file I/O that no other layer does for it
        "cli.write_mb_per_s": mb * _ratio(
            traced.counters.get("cli.simulate_bytes_written", 0),
            tr.self_s("cli", tag="simulate")),
        "cli.read_mb_per_s": mb * _ratio(
            traced.counters.get("cli.psd_bytes_read", 0),
            tr.self_s("cli", tag="psd")),
        "cli.errors": traced.counters.get("cli.errors", 0),
        "bench.self_ms": 1e3 * (traced.wall_s - sum(
            total for (t, p, _), (_, total, _) in tr.spans.items()
            if p == ROOT_PARENT and t != "setup" and not t.startswith("validate"))),
        "proc.cpu_s": untraced.cpu_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    for ctrl in CONTROLLERS:
        out[f"simulate.ns_per_step.{ctrl}"] = 1e9 * _ratio(
            c.get(f"simulate_s.{ctrl}", 0.0), c.get(f"steps.{ctrl}", 0))
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * tr.self_s(layer)
    return {name: out[name] for name in PER_LAYER}

"""Command-line harness: config loading, dispatch, artifact generation.

Each ``_cmd_*`` command yields ``(file name, header lines, body)``
artifacts and touches no file or stdout; a table's body is a dict of its
columns, as `format_artifact` takes it. `run_command` formats them all,
then creates the out directory, writes each under a temporary name there,
renames them all and prints one ``wrote <path>`` line per file, so a command
that fails writes nothing, and a write that fails leaves no temporary file.
A command that yields one file name twice is refused the same way, and so
is an out directory whose name holds a line break (it would split a
``wrote`` line); `main` writes any refusal, a usage error included, as
one stderr line. A refusal is stated once, in the model that meets it, and
`refusals_named` names its config key (`_RUN_KEYS`, ``[sim]``, the
planner's ``cascade.power``) or option (``--seed``, ``--segment``,
``--g0``); any other passes through as it is.
Artifacts are made again from the config and the seed, so nothing is
flushed for a power loss: an existing file is unlinked just before its new
text is renamed over the name, as a rename over it would flush the new data
first, and a crash during the renames can leave a file missing.

`build_parser` builds the parser once per process. The parsed command path
(``cool sweep``) names its ``_cmd_*`` function, looked up on this module when
it runs so that a test's stand-in takes effect, and heads every artifact.

Every artifact (CSV or structured text) starts with ``#`` header lines
carrying the command, the fully resolved configuration, and the seed, so a
rerun with the same inputs is byte identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import plan_cascade
from .config import ExperimentConfig, load_config
from .constants import TWO_PI
from .cooling import (CoolingSetup, closed_loop_variance,
                      effective_susceptibility, effective_temperature,
                      effective_temperature_floor, noise_temperature,
                      optimal_gain)
from .errors import ConfigError, DomainError
from .feedback import actuator_gain
from .psd import estimate_psd
from .resonator import fit_q_from_ringdown
from .simulate import simulate, steady_state_variance
from .spectrum import (format_artifact, read_columns, spectrum_table,
                       uniform_rate)

OUT_DIR_ENV = "OPTOCOOL_OUT"

MATCH_TOLERANCE = 0.10  # relative deviation separating MATCH from DEVIATION

# the model fields whose refusal, while a command runs, only one key causes
_RUN_KEYS = {"temperature": "resonator.temperature",
             "bias_angle": "chain.bias_angle", "dac_gain": "chain.dac_gain"}

_STAGE_COLUMNS = {"stage": "index", "g": "gain", "gdac_v_per_rad": "dac_gain",
                  "t_start_s": "start", "duration_s": "duration",
                  "x2_exit_m2": "variance_out", "teff_exit_K": "t_eff_out"}


def _command_path(args) -> str:
    """The parsed command, such as ``cool sweep`` or ``noise-budget``."""
    return f"{args.command} {getattr(args, 'subcommand', '')}".rstrip()


def _handler(args):
    """The parsed command's function: ``cool sweep`` runs `_cmd_cool_sweep`."""
    return globals()["_cmd_" + re.sub("[ -]", "_", _command_path(args))]


def _header_lines(args, cfg: ExperimentConfig, qualifiers="", seed=None):
    lines = [f"optocool {__version__} {_command_path(args)}{qualifiers}"]
    if seed is not None:
        lines.append(f"seed = {seed}")
    lines.extend(cfg.echo())
    return lines


def _format_gain(g: float) -> str:
    return f"{g:g}".replace("+", "")


def _gain_grid(res, g: float) -> np.ndarray:
    """Log band plus a linear window resolving the closed-loop line."""
    w0 = res.omega0
    gamma_eff = (1.0 + g) * res.gamma0
    broad = np.logspace(math.log10(w0 / 10), math.log10(10 * w0), 1001)
    half = min(12.0 * gamma_eff, 0.5 * w0)
    narrow = np.linspace(w0 - half, w0 + half, 1001)
    grid = np.unique(np.concatenate([broad, narrow]))
    return grid[grid > 0.0]


# -- subcommands ---------------------------------------------------------


def _cmd_susceptibility(args, cfg: ExperimentConfig):
    res = cfg.resonator()
    for g in _parse_float_list(args.gains, "--gains"):
        omega = _gain_grid(res, g)
        chi = effective_susceptibility(res, g, omega)
        yield (f"susceptibility_g{_format_gain(g)}.csv",
               _header_lines(args, cfg, f" g={g:g}"),
               {"freq_hz": omega / TWO_PI, "value": chi,
                "unit": ["m/N"] * chi.size})


def _cmd_noise_budget(args, cfg: ExperimentConfig):
    res = cfg.resonator()
    fpi = cfg.fpi()
    g = cfg.get("cooling", "gain")
    omega = _gain_grid(res, g)
    quiet = replace(fpi, readout_noise=None)
    total = fpi.output_spectrum(res, g, omega=omega).values
    thermal = quiet.output_spectrum(res, g, omega=omega).values
    readout = fpi.noise_asd(omega)
    yield ("noise_budget.csv", _header_lines(args, cfg),
           {"freq_hz": omega / TWO_PI, "total_hz_rthz": total,
            "thermal_hz_rthz": thermal, "readout_hz_rthz": readout})


def _cmd_cool_sweep(args, cfg: ExperimentConfig):
    res = cfg.resonator()
    if args.gains is not None:
        gains = _parse_float_list(args.gains, "--gains")
    else:
        gains = np.logspace(0, 5, 51).tolist()
    if args.noise is not None:
        noises = _parse_float_list(args.noise, "--noise")
        bad = [asd for asd in noises
               if not (0.0 < asd * asd < math.inf or asd == 0.0)]
        if bad:
            raise ConfigError(f"--noise: an ASD must be 0 or have a finite, "
                              f"nonzero square, got {bad[0]!r}")
    else:
        noises = [cfg.hli().imprecision_asd]
    external = cfg.get("cooling", "external_force_psd")
    for asd in noises:
        nums = [closed_loop_variance(CoolingSetup(
            res, g, imprecision_psd=asd ** 2,
            external_force_psd=external)).numeric for g in gains]
        t_eff, x2, thermal, feedthrough = np.array(
            [(n.t_eff, n.variance, n.thermal, n.feedthrough) for n in nums]).T
        yield (f"cool_sweep_noise{asd:g}.csv",
               _header_lines(args, cfg, f" noise={asd:g}"),
               {"g": np.array(gains), "T_eff_K": t_eff, "x2_m2": x2,
                "thermal_m2": thermal, "feedthrough_m2": feedthrough})


def _cmd_cool_optimum(args, cfg: ExperimentConfig):
    res = cfg.resonator()
    s_n = cfg.imprecision_psd()
    got = optimal_gain(res, s_n)
    t_n = noise_temperature(res, s_n)
    floor = effective_temperature_floor(res, t_n)
    body = [
        "cool optimum",
        ("imprecision_asd_m_rthz", math.sqrt(s_n)),
        ("g_opt_closed_form", got.closed_form),
        ("g_opt_numeric_minimizer", got.minimized),
        ("noise_temperature_K", t_n),
        ("t_eff_at_g_opt_K", effective_temperature(res, got.closed_form, t_n)),
        ("t_eff_floor_K", floor),
    ]
    yield "cool_optimum.txt", _header_lines(args, cfg), body


def _cmd_cascade_run(args, cfg: ExperimentConfig):
    res = cfg.resonator()
    chain = cfg.chain()
    hli = cfg.hli()
    fpi = cfg.fpi()
    base = cfg.cascade_config()
    g0_list = (_parse_float_list(args.g0, "--g0") if args.g0 is not None
               else [base.initial_gain])
    # the planner re-powers the chain's modulator at cascade.power
    fields = {"max_power": cfg.fields("cascade")["power"],
              "damage_threshold": cfg.fields("chain")["damage_threshold"]}
    for g0 in g0_list:
        with cfg.refusals_named({**fields, "initial_gain": ("--g0", g0)}):
            ccfg = replace(base, initial_gain=g0)
            schedule = plan_cascade(ccfg, chain, res, hli, fpi)
        tag = _format_gain(g0)
        header = _header_lines(args, cfg, f" g0={g0:g}")
        yield (f"cascade_g{tag}.csv", header,
               {name: np.array([getattr(s, field) for s in schedule.stages])
                for name, field in _STAGE_COLUMNS.items()})

        t_lo = schedule.stages[0].duration / 100.0
        times = np.logspace(math.log10(t_lo), math.log10(schedule.total_time),
                            400)
        x2 = np.array([schedule.variance_at(t) for t in times])
        yield (f"cascade_g{tag}_timeseries.csv", header,
               {"t_s": times, "x2_m2": x2, "teff_K": schedule.teff_scale * x2})

        comparison = schedule.compare_single_step(
            schedule.stages[-1].gain, ccfg, chain, res)
        body = [
            ("initial_gain", g0),
            ("optical_power_W", schedule.power),
            ("stages", len(schedule.stages)),
            ("termination", schedule.termination),
            ("handover_stage", schedule.handover_stage),
            ("total_time_s", schedule.total_time),
            ("final_gain", schedule.stages[-1].gain),
            ("final_t_eff_K", schedule.final_t_eff),
            ("single_step_power_W", comparison.single_power),
            ("single_step_time_s", comparison.single_time),
            ("single_step_exceeds_threshold",
             comparison.single_exceeds_threshold),
            ("power_ratio_cascade_over_single", comparison.power_ratio),
            ("time_ratio_cascade_over_single", comparison.time_ratio),
            ("reciprocity_product", comparison.reciprocity),
        ]
        yield f"cascade_g{tag}.txt", header, body


def _cmd_simulate(args, cfg: ExperimentConfig):
    res = cfg.sim_resonator()
    sim_cfg = cfg.sim_config()
    chain = cfg.chain() if sim_cfg.controller == "chain" else None
    # a refusal names its [sim] key, --seed or an auto step's frequency
    fields = {**cfg.fields("sim"), "omega0": cfg.fields("resonator")["omega0"]}
    if args.seed is not None:
        fields["seed"] = ("--seed", args.seed)
    with cfg.refusals_named(fields):
        trace = simulate(replace(sim_cfg, seed=fields["seed"][1]), res,
                         chain=chain, hli=cfg.hli())

    table = {"t_s": trace.t, "x_m": trace.x, "y_m": trace.y}
    if trace.control_voltage is not None:
        table.update(v_volt=trace.control_voltage, p_watt=trace.power)
    table["f_fb_newton"] = trace.feedback_force
    header = _header_lines(args, cfg, seed=trace.config.seed)
    yield "trace.csv", header, table

    variance = steady_state_variance(trace)
    body = [
        ("steps", trace.x.size),
        ("dt_s", float(trace.t[1] - trace.t[0])),
        ("steady_state_variance_m2", variance),
        ("steady_state_rms_m", math.sqrt(variance)),
    ]
    yield "simulate.txt", header, body


def _cmd_psd(args, cfg: ExperimentConfig):
    t, x = read_columns(args.input, ("t_s", args.column))
    square = float(np.mean(x * x))  # not normal: PSD of 0s, rounding or inf
    if not sys.float_info.min <= square < math.inf:
        why = ("is all zero" if not x.any() else
               f"has mean square {square!r}, not a finite normal double")
        raise ConfigError(f"{args.input}: column {args.column!r} {why}; it "
                          "has no spectrum to estimate")
    with cfg.refusals_named({"segment_length": ("--segment", args.segment),
                             "overlap": ("--overlap", args.overlap)}):
        rec = estimate_psd(x, uniform_rate(args.input, t), args.segment,
                           overlap=args.overlap, unit=f"({args.column})^2/Hz")
    header = _header_lines(args, cfg, f" input={args.input} column="
                           f"{args.column} segment={args.segment}")
    header += [f"segments = {rec.meta['segments']}",
               f"parseval_ratio = {rec.meta['parseval_ratio']!r}"]
    yield f"psd_{args.column}.csv", header, spectrum_table(rec)


def _cmd_ringdown_fit(args, cfg: ExperimentConfig):
    hint = args.frequency
    if hint is not None and not 0.0 < hint < math.inf:
        raise ConfigError(f"--frequency must be finite and > 0, got {hint!r}")
    t, x = read_columns(args.input, ("t_s", args.column))
    omega0 = TWO_PI * hint if hint is not None else None
    fit = fit_q_from_ringdown(t, x, omega0=omega0)
    body = [
        ("input", args.input),
        ("q", fit.q),
        ("omega0_rad_s", fit.omega0),
        ("decay_rate_rad_s", fit.decay_rate),
        ("amplitude0", fit.amplitude0),
        ("residual_rms", fit.residual_rms),
        ("n_points", fit.n_points),
    ]
    yield "ringdown_fit.txt", _header_lines(args, cfg), body


def _cmd_chain_report(args, cfg: ExperimentConfig):
    res = cfg.resonator()
    chain = cfg.chain()
    g = chain.gain_factor(res)
    body = [
        "composed feedback chain gains",
        ("actuator_gain_N_per_W", actuator_gain()),
        ("eoam_gain_W_per_V", chain.eoam.gain()),
        ("dac_gain_V_per_rad", chain.dac_gain),
        ("phase_per_displacement_rad_per_m", TWO_PI / chain.wavelength),
        ("static_feedback_gain_N_per_m", chain.static_gain()),
        ("optical_power_W", chain.eoam.max_power),
        ("damage_threshold_W", chain.eoam.damage_threshold),
        ("gain_factor", g),
        ("power_for_unity_gain_W", chain.required_power(res, 1.0)),
    ]
    yield "chain_report.txt", _header_lines(args, cfg), body


def _paper_report_rows(cfg: ExperimentConfig) -> list:
    """Computed values against the published reference numbers."""
    res = cfg.resonator()
    fpi = cfg.fpi()
    chain = cfg.chain()
    s_n = cfg.imprecision_psd()

    g_opt = optimal_gain(res, s_n).closed_form
    p_unity = chain.required_power(res, 1.0)
    p_opt = chain.required_power(res, g_opt)
    a_th = float(res.thermal_accel_asd(res.omega0))
    delta_l = fpi.dynamic_range()
    gamma_m = res.gamma0
    equivalent = fpi.acceleration_equivalent(res)

    rows = [
        ("g_opt", "", g_opt, 3.40e4),
        ("P0_for_g1", "W", p_unity, 1.16e-3),
        ("P0_for_g_opt", "W", p_opt, 34.43),
        ("a_th_at_resonance", "m s^-2/rtHz", a_th, 1e-11),
        ("dynamic_range", "m", delta_l, 1.8e-6),
        ("gamma_m", "rad/s", gamma_m, TWO_PI * 10e-6),
        ("equiv_accel_as_written", "g/rtHz", equivalent["as_written_g"], 8e-9),
        ("equiv_accel_dimensional", "g/rtHz", equivalent["dimensional_g"], 8e-9),
    ]
    out = []
    for name, unit, computed, reference in rows:
        ratio = computed / reference
        flag = "MATCH" if abs(ratio - 1.0) <= MATCH_TOLERANCE else "DEVIATION"
        out.append((name, unit, computed, reference, ratio, flag))
    return out


def _cmd_paper_report(args, cfg: ExperimentConfig):
    body = ["quantity | unit | computed | reference | ratio | flag"]
    for name, unit, computed, reference, ratio, flag in _paper_report_rows(cfg):
        if not math.isfinite(ratio):  # computed is not, or it overflows
            raise DomainError(f"paper_report.txt: {name}: computed "
                              f"{computed!r} and ratio {ratio!r} must be "
                              "finite")
        body.append(f"{name} | {unit} | {computed!r} | {reference!r} | "
                    f"{ratio!r} | {flag}")
    yield "paper_report.txt", _header_lines(args, cfg), body


# -- dispatch ------------------------------------------------------------


def _parse_float_list(text: str, option: str) -> list:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{option}: bad numeric list {text!r}") from exc
    if not values:
        raise ConfigError(f"{option}: empty list {text!r}")
    if not all(0.0 <= v < math.inf for v in values):
        raise ConfigError(f"{option}: values must be finite and >= 0: {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise `ConfigError`, so that `main`
    writes them as its one stderr line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="optocool",
        description="Feedback-cooling toolkit for a low-frequency "
                    "optomechanical inertial sensor")
    parser.add_argument("--config", default=None,
                        help="config file (defaults to built-in parameters)")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default ${OUT_DIR_ENV} "
                             "or ./optocool_out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("susceptibility",
                       help="closed-loop susceptibility curves")
    p.add_argument("--gains", default="0,2500,5000,10000",
                   help="comma list of gain factors")

    sub.add_parser("noise-budget",
                   help="frequency-readout noise decomposition")

    p = sub.add_parser("cool", help="cooling analysis")
    csub = p.add_subparsers(dest="subcommand", required=True)
    ps = csub.add_parser("sweep", help="effective temperature vs gain")
    ps.add_argument("--gains", default=None, help="comma list of gains")
    ps.add_argument("--noise", default=None,
                    help="comma list of imprecision ASDs, m/rtHz")
    csub.add_parser("optimum", help="optimal gain summary")

    p = sub.add_parser("cascade", help="cascaded cooling")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pr = csub.add_parser("run", help="plan a cascade schedule")
    pr.add_argument("--g0", default=None,
                    help="comma list of initial gain factors")

    sub.add_parser("simulate", help="time-domain loop simulation")

    p = sub.add_parser("psd", help="Welch PSD of a trace column")
    p.add_argument("--input", required=True, help="trace CSV path")
    p.add_argument("--column", default="x_m")
    p.add_argument("--segment", type=int, default=4096)
    p.add_argument("--overlap", type=float, default=0.5)

    p = sub.add_parser("ringdown-fit", help="fit Q from a decay record")
    p.add_argument("--input", required=True, help="CSV with t_s,value rows")
    p.add_argument("--column", default="value")
    p.add_argument("--frequency", type=float, default=None,
                   help="resonance frequency hint, Hz")

    p = sub.add_parser("chain", help="feedback chain")
    csub = p.add_subparsers(dest="subcommand", required=True)
    csub.add_parser("report", help="composed gains with units")

    sub.add_parser("paper-report",
                   help="computed values against published references")
    return parser


def run_command(argv) -> int:
    args = build_parser().parse_args(argv)
    out = args.out or os.environ.get(OUT_DIR_ENV) or "optocool_out"
    if "\n" in out or "\r" in out:  # it would split a "wrote" line
        where = "--out" if args.out else OUT_DIR_ENV
        raise ConfigError(f"{where}: line break in {out!r}")
    cfg = load_config(args.config)
    out = Path(out)
    texts = {}
    run_keys = {field: (key, cfg.get(*key.split(".")))
                for field, key in _RUN_KEYS.items()}
    with cfg.refusals_named(run_keys):
        for name, header, body in _handler(args)(args, cfg):
            path = out / name
            if path in texts:
                raise ConfigError(f"{path}: {_command_path(args)!r} makes "
                                  "it twice; list values equal to 6 digits "
                                  "share a file name")
            texts[path] = format_artifact(path, header, body)
    out.mkdir(parents=True, exist_ok=True)
    temps = {}
    try:
        for path, text in texts.items():
            temps[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            # UTF-8, and an undecodable byte of a path written back as is
            with open(temps[path], "w", newline="", encoding="utf-8",
                      errors="surrogateescape") as fh:
                fh.write(text)
        for path, temp in temps.items():
            path.unlink(missing_ok=True)  # a rename over it would flush
            temp.replace(path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
    for path in texts:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    """Run one command; a refusal is one stderr line, its line breaks
    escaped, and exit 2 for a `ConfigError`, else 1. NumPy does not warn,
    which would add lines: the writer refuses a non-finite cell. A character
    stderr cannot encode is backslash-escaped, but for a path's own bytes."""
    try:
        with np.errstate(all="ignore"):
            return run_command(sys.argv[1:] if argv is None else argv)
    except Exception as exc:  # single-line machine-parsable failure
        kind = ("config" if isinstance(exc, ConfigError)
                else type(exc).__name__)
        text = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        line = f"error: {kind}: {text}\n"
        if hasattr(sys.stderr, "buffer"):  # a path's undecodable bytes
            sys.stderr.flush()  # (lone surrogates, the odd parts) as they are
            line = b"".join(part.encode(sys.stderr.encoding, (
                "backslashreplace", "surrogateescape")[i % 2]) for i, part
                in enumerate(re.split("([\udc80-\udcff]+)", line)))
        getattr(sys.stderr, "buffer", sys.stderr).write(line)
        sys.stderr.flush()
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())

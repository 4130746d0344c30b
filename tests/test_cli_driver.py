"""The CLI driver: commands yield artifacts, `run_command` writes all or none."""

import argparse
import csv
import errno
import inspect
import math
import numbers
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from optocool import cli
from optocool.cli import main
from optocool.config import DEFAULT_CONFIG, load_config
from optocool.simulate import stream_rng
from optocool.spectrum import format_artifact, read_columns, uniform_rate


def _config(tmp_path, section=None, **lines):
    """DEFAULT_CONFIG with each ``key = value`` line replaced, as a file:
    the key's first line, or its first after the ``[section]`` header."""
    text = DEFAULT_CONFIG
    start = text.index(f"[{section}]") if section else 0
    for key, value in lines.items():
        text = text[:start] + re.sub(rf"^{key} = .*$", f"{key} = {value}",
                                     text[start:], count=1, flags=re.M)
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return path


def _trace(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    return path


def _sine_trace(scale=1.0):
    return "t_s,x_m\n" + "".join(
        f"{0.1 * i!r},{scale * math.sin(0.7 * i)!r}\n" for i in range(64))


class TestAllOrNothing:
    def test_failing_list_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "cascade", "run",
                     "--g0", "1,1000"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: PowerLimitError: g = 1000")
        assert captured.out == ""
        assert not out.exists()

    def test_failing_list_leaves_existing_directory_empty(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--out", str(out), "cascade", "run",
                     "--g0", "1,1000"]) == 1
        assert list(out.iterdir()) == []

    def test_one_wrote_line_per_file_in_yield_order(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "cascade", "run",
                     "--g0", "1,0.5"]) == 0
        names = [f"cascade_g{tag}{suffix}" for tag in ("1", "0.5")
                 for suffix in (".csv", "_timeseries.csv", ".txt")]
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)

    def test_failed_write_leaves_no_file(self, tmp_path, capsys,
                                         monkeypatch):
        opened = []

        def open_failing_second(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            opened.append(path)
            if len(opened) == 2:
                fh.close()
                raise OSError(errno.ENOSPC, "No space left on device")
            return fh

        monkeypatch.setattr(cli, "open", open_failing_second, raising=False)
        out = tmp_path / "out"
        assert main(["--out", str(out), "cascade", "run", "--g0", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: OSError: ")
        assert len(opened) == 2
        assert all(path.parent == out for path in opened)
        assert list(out.iterdir()) == []

    def test_rerun_replaces_every_file(self, tmp_path):
        # the rerun unlinks each old file before its rename: every file is
        # the new text, whatever was there, and no temporary file is left
        out = tmp_path / "out"
        argv = ["--out", str(out), "cascade", "run", "--g0", "1,0.5"]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        for path in out.iterdir():
            path.write_text("stale\n")
        assert main(argv) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first


class TestPsdHeader:
    def test_header_carries_segments_and_parseval_ratio(self, tmp_path):
        trace = _trace(tmp_path, _sine_trace())
        out = tmp_path / "out"
        assert main(["--out", str(out), "psd", "--input", str(trace),
                     "--segment", "16"]) == 0
        path = out / "psd_x_m.csv"
        tags = dict(line[2:].split(" = ", 1)
                    for line in path.read_text().splitlines()
                    if line.startswith(("# segments", "# parseval_ratio")))
        assert int(tags["segments"]) == 7
        assert float(tags["parseval_ratio"]) == pytest.approx(1.0, abs=0.2)
        _, value = read_columns(path, ("freq_hz", "value"))
        assert value.size == 8

    def test_all_zero_column_refused(self, tmp_path, capsys):
        # its PSD is all zero and its Parseval ratio 0 / 0: the file held
        # "# parseval_ratio = nan" over a table of zeros
        trace = _trace(tmp_path, _sine_trace(scale=0.0))
        out = tmp_path / "out"
        assert main(["--out", str(out), "psd", "--input", str(trace),
                     "--segment", "16"]) == 2
        assert capsys.readouterr().err == (
            f"error: config: {trace}: column 'x_m' is all zero; it has no "
            "spectrum to estimate\n")
        assert not out.exists()

    @pytest.mark.parametrize("scale, square", [(1e-165, 0.0), (1e155, math.inf)])
    def test_mean_square_not_normal_refused(self, tmp_path, capsys, scale,
                                            square):
        # squares that underflow wrote "# parseval_ratio = nan" over a table
        # of zeros and exit 0; squares that overflow reached the writer,
        # which named the output column "value"
        trace = _trace(tmp_path, _sine_trace(scale=scale))
        out = tmp_path / "out"
        assert main(["--out", str(out), "psd", "--input", str(trace),
                     "--segment", "16"]) == 2
        assert capsys.readouterr().err == (
            f"error: config: {trace}: column 'x_m' has mean square "
            f"{square!r}, not a finite normal double; it has no spectrum to "
            "estimate\n")
        assert not out.exists()


LOSSLESS_COMMANDS = [
    (["chain", "report"], "q100"), (["cool", "optimum"], "q100"),
    (["paper-report"], "q100"), (["cascade", "run"], "q100"),
    (["cool", "sweep", "--gains", "1,10"], "q100"),
    (["susceptibility"], "q100"), (["noise-budget"], "q100"),
    (["simulate"], "q100"), (["simulate"], "none")]


class TestLosslessResonator:
    @pytest.mark.parametrize(
        "command, preset", LOSSLESS_COMMANDS,
        ids=[" ".join(argv[:2]) + f" preset={preset}"
             for argv, preset in LOSSLESS_COMMANDS])
    def test_refused(self, tmp_path, capsys, command, preset):
        cfg = _config(tmp_path, q_internal="inf", preset=preset)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)] + command) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config: resonator.q_internal:")
        assert "\n" not in err
        assert not out.exists()

    def test_viscous_damping_allowed(self, tmp_path):
        cfg = _config(tmp_path, q_internal="inf", viscous_rate="1 mHz")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "cool", "optimum"]) == 0
        text = (out / "cool_optimum.txt").read_text()
        assert "# resonator.q_internal = inf\n" in text


class TestBadTraceInput:
    @pytest.mark.parametrize("text, message", [
        ("t_s,x_m\n0.0,1.0\n", "1 data rows"),
        ("t_s,x_m\n", "0 data rows"),
        ("t_s,x_m\n0.0,1.0\n0.0,2.0\n", "t_s must increase"),
        ("t_s,x_m\n0.0,1.0\n0.1,abc\n", "bad or missing cell"),
        ("t_s,x_m\n0.0,1.0\n0.1\n", "bad or missing cell"),
    ], ids=["one-row", "header-only", "equal-times", "non-numeric",
            "missing-cell"])
    def test_psd_names_the_file(self, tmp_path, capsys, text, message):
        trace = _trace(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--out", str(out), "psd", "--input", str(trace)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: config: {trace}: ")
        assert message in err
        assert not out.exists()

    def test_ringdown_fit_names_the_file(self, tmp_path, capsys):
        trace = _trace(tmp_path, "t_s,value\n0.0,1.0\n0.1,abc\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "ringdown-fit",
                     "--input", str(trace)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config: {trace}: bad or missing cell")
        assert not out.exists()

    @pytest.mark.parametrize("times, message", [
        ([0.0] * 30, "t_s must increase, got 0.0 then 0.0"),
        ([3.0 - 0.1 * i for i in range(30)],
         "t_s must increase, got 3.0 then 2.9"),
    ], ids=["constant-times", "decreasing-times"])
    def test_ringdown_fit_refuses_unordered_times(self, tmp_path, capsys,
                                                  times, message):
        trace = _trace(tmp_path, "t_s,value\n" + "".join(
            f"{t!r},{math.exp(-0.1 * i)!r}\n" for i, t in enumerate(times)))
        out = tmp_path / "out"
        assert main(["--out", str(out), "ringdown-fit", "--input", str(trace),
                     "--frequency", "4.72"]) == 2
        assert capsys.readouterr().err == (
            f"error: config: {trace}: {message}\n")
        assert not out.exists()

    def test_psd_refuses_irregular_times(self, tmp_path, capsys):
        t = np.sort(stream_rng(11, 0).uniform(0.0, 50.0, 5000))
        trace = _trace(tmp_path, "t_s,x_m\n" + "".join(
            f"{float(ti)!r},{math.sin(ti)!r}\n" for ti in t))
        out = tmp_path / "out"
        assert main(["--out", str(out), "psd", "--input", str(trace),
                     "--segment", "256"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: config: {trace}: t_s must be evenly spaced, step ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_simulate_trace_times_accepted(self, tmp_path):
        # t = dt * i written by repr: its steps differ from dt by ulps
        out = tmp_path / "out"
        assert main(["--out", str(out), "simulate"]) == 0
        (t,) = read_columns(out / "trace.csv", ("t_s",))
        assert np.ptp(np.diff(t)) > 0.0
        assert uniform_rate(out / "trace.csv", t) == 1.0 / (t[1] - t[0])
        assert main(["--out", str(out), "psd", "--input",
                     str(out / "trace.csv")]) == 0

    @pytest.mark.parametrize("segment", ["0", "-5", "1"])
    def test_short_segment_refused(self, tmp_path, capsys, segment):
        trace = _trace(tmp_path, _sine_trace())
        out = tmp_path / "out"
        assert main(["--out", str(out), "psd", "--input", str(trace),
                     "--segment", segment]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: config: segment length must be >= 2, got {segment}")
        assert not out.exists()


class TestRefusedValues:
    """Bad option, key and path values: exit 2 with one line, no out dir."""

    def _refused(self, capsys, argv, out, message):
        assert main(["--out", str(out)] + argv) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value, shown", [
        ("0 s", "0.0"), ("-1 s", "-1.0"), ("nan s", "nan"), ("inf s", "inf"),
    ])
    def test_bad_sim_dt(self, tmp_path, capsys, value, shown):
        # a non-finite value is refused as the config loads, as any key's
        reason = ("must be finite" if shown in ("nan", "inf")
                  else "must be finite and > 0")
        cfg = _config(tmp_path, dt=value)
        self._refused(capsys, ["--config", str(cfg), "simulate"],
                      tmp_path / "out", f"sim.dt: {reason}, got {shown}")

    @pytest.mark.parametrize("value, shown", [
        ("-4.72", "-4.72"), ("0", "0.0"), ("nan", "nan"), ("inf", "inf"),
    ])
    def test_bad_ringdown_frequency(self, tmp_path, capsys, value, shown):
        # -4.72 fitted a negative q, nan failed on int(nan), 0 read as no hint
        trace = _trace(tmp_path, "t_s,value\n" + "".join(
            f"{0.1 * i!r},{math.exp(-0.1 * i) * math.cos(3.0 * i)!r}\n"
            for i in range(64)))
        self._refused(capsys, ["ringdown-fit", "--input", str(trace),
                               "--frequency", value], tmp_path / "out",
                      f"--frequency must be finite and > 0, got {shown}")

    @pytest.mark.parametrize("command", [["psd"], ["ringdown-fit"]],
                             ids=["psd", "ringdown-fit"])
    def test_missing_input_file(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.csv"
        self._refused(capsys, command + ["--input", str(missing)],
                      tmp_path / "out",
                      f"{missing}: No such file or directory")

    @pytest.mark.parametrize("command", [["psd"], ["ringdown-fit"]],
                             ids=["psd", "ringdown-fit"])
    def test_undecodable_input_file(self, tmp_path, capsys, command):
        # a UTF-16 file starts with the bytes 0xff 0xfe
        path = tmp_path / "utf16.csv"
        path.write_bytes("t_s,x_m,value\n0.0,1.0,1.0\n".encode("utf-16"))
        self._refused(capsys, command + ["--input", str(path)],
                      tmp_path / "out",
                      f"{path}: not utf-8 text: invalid start byte at byte 0")

    @pytest.mark.parametrize("command", [["psd"], ["ringdown-fit"]],
                             ids=["psd", "ringdown-fit"])
    def test_cell_over_csv_field_limit(self, tmp_path, capsys, command):
        # csv refuses the cell even in a column the command does not read
        limit = csv.field_size_limit()
        path = _trace(tmp_path, "t_s,x_m,value,note\n" + "".join(
            f"{0.1 * i!r},{math.sin(0.7 * i)!r},{math.exp(-0.1 * i)!r},"
            f"{'n' * 140_000 if i == 5 else 'ok'}\n" for i in range(64)))
        self._refused(capsys, command + ["--input", str(path)],
                      tmp_path / "out",
                      f"{path}: field larger than field limit ({limit})")

    def test_underflowing_sweep_floor_refused(self, tmp_path, capsys):
        # the sweep read the key raw and wrote feedthrough_m2 = 0.0 rows
        cfg = _config(tmp_path, imprecision_asd="1e-170 m/rtHz")
        self._refused(capsys, ["--config", str(cfg), "cool", "sweep"],
                      tmp_path / "out",
                      "hli.imprecision_asd: must be > 0 with a finite, "
                      "nonzero square, got 1e-170")

    def test_underflowing_sweep_noise_refused(self, tmp_path, capsys):
        self._refused(capsys, ["cool", "sweep", "--noise", "5e-12,1e-170"],
                      tmp_path / "out",
                      "--noise: an ASD must be 0 or have a finite, nonzero "
                      "square, got 1e-170")

    def test_zero_sweep_noise_is_a_noiseless_readout(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "cool", "sweep", "--gains", "1,10",
                     "--noise", "0"]) == 0
        _, feedthrough = read_columns(out / "cool_sweep_noise0.csv",
                                      ("g", "feedthrough_m2"))
        assert np.all(feedthrough == 0.0)

    @pytest.mark.parametrize("g0", ["0", "1,0", "-0"])
    def test_zero_g0_refused(self, tmp_path, capsys, g0):
        self._refused(capsys, ["cascade", "run", "--g0", g0],
                      tmp_path / "out",
                      f"--g0: initial gains must be > 0: {g0!r}")

    def test_zero_configured_initial_gain_refused(self, tmp_path, capsys):
        cfg = _config(tmp_path, initial_gain="0")
        self._refused(capsys, ["--config", str(cfg), "cascade", "run"],
                      tmp_path / "out",
                      "cascade.initial_gain: must be > 0, got 0.0")

    @pytest.mark.parametrize("key, value, reason, shown", [
        ("target_gain", "0", "must be finite and > 0", "0.0"),
        ("n_settle", "0.5", "must be >= 1", "0.5"),
        ("n_settle", "nan", "must be finite", "nan"),  # as the file loads
        ("max_stages", "0", "must be >= 1", "0"),
        ("safety_factor", "0.5", "must be >= 1", "0.5"),
        ("initial_span", "0 m", "must be > 0", "0.0"),
        ("power", "0 W", "must be > 0", "0.0"),
        # these ran on: a one-stage schedule from zero variance, a
        # zero-transduction or modulator DomainError, a non-finite duration
        ("safety_factor", "inf", "must be finite", "inf"),
        ("initial_span", "inf m", "must be finite", "inf"),
        ("n_settle", "inf", "must be finite", "inf"),
        ("power", "inf W", "must be finite", "inf"),
        ("power", "1 W", "must be <= chain.damage_threshold = 0.1", "1.0"),
    ], ids=["target_gain", "n_settle", "n_settle-nan", "max_stages",
            "safety_factor", "initial_span", "power", "safety_factor-inf",
            "initial_span-inf", "n_settle-inf", "power-inf",
            "power-over-damage-threshold"])
    def test_bad_cascade_value(self, tmp_path, capsys, key, value, reason,
                               shown):
        cfg = _config(tmp_path, **{key: value})
        self._refused(capsys, ["--config", str(cfg), "cascade", "run"],
                      tmp_path / "out", f"cascade.{key}: {reason}, got {shown}")

    @pytest.mark.parametrize("section, lines, reason, shown", [
        ("resonator", {"mass": "0 g"}, "must be > 0", "0.0"),
        ("resonator", {"frequency": "0 Hz"}, "must be > 0", "0.0"),
        # nan and inf are refused as the file loads, as any key's
        ("resonator", {"temperature": "nan K"}, "must be finite", "nan"),
        ("resonator", {"q_internal": "-1"}, "must be > 0", "-1.0"),
        ("resonator", {"loss_exponent": "inf"}, "must be finite", "inf"),
        ("chain", {"half_wave_voltage": "0 V"}, "must be > 0", "0.0"),
        ("chain", {"max_power": "1 W", "damage_threshold": "100 mW"},
         "must give 0 < max_power <= damage_threshold", "1.0, 0.1"),
        ("chain", {"bias_angle": "100 deg"}, "must be in [0, pi/2]",
         repr(100 * math.pi / 180)),
        ("chain", {"dac_gain": "-1 V/rad"}, "must be >= 0", "-1.0"),
        ("chain", {"displacement_span": "0 um"}, "must be > 0", "0.0"),
        # these blamed max_power, or failed at format time on an inf cell
        ("chain", {"damage_threshold": "0 W"}, "must be finite and > 0",
         "0.0"),
        ("chain", {"damage_threshold": "-1 W"}, "must be finite and > 0",
         "-1.0"),
        ("chain", {"damage_threshold": "inf W"}, "must be finite", "inf"),
        # the chain read it raw and FeedbackChain refused it naming no key
        ("hli", {"wavelength": "0 nm"}, "must be > 0", "0.0"),
        ("sim", {"duration": "inf s"}, "must be finite", "inf"),
        ("sim", {"bandpass_quality": "0"}, "must be finite and > 0", "0.0"),
        ("sim", {"dac_bits": "0"}, "must be >= 1", "0"),
        ("sim", {"initial_position": "nan m"}, "must be finite", "nan"),
        # a capture range wavelength/finesse of 0.53 um tops the 0.18 um
        # dynamic range of a 1 GHz tuning range
        ("fpi", {"finesse": "2", "wavelength": "1064 nm",
                 "cavity_length": "50 mm", "tuning_range": "1 GHz"},
         "must put the capture range wavelength/finesse below the dynamic "
         "range", "2.0, 1.064e-06, 0.05, 1000000000.0"),
    ], ids=["resonator.mass", "resonator.frequency", "resonator.temperature",
            "resonator.q_internal", "resonator.loss_exponent",
            "chain.half_wave_voltage", "chain.max_power", "chain.bias_angle",
            "chain.dac_gain", "chain.displacement_span",
            "chain.damage_threshold", "chain.damage_threshold-negative",
            "chain.damage_threshold-inf", "hli.wavelength", "sim.duration",
            "sim.bandpass_quality", "sim.dac_bits", "sim.initial_position",
            "fpi.finesse"])
    def test_bad_model_value(self, tmp_path, capsys, section, lines, reason,
                             shown):
        # these exited 1 naming no key, or 2 naming the model's field
        commands = {"resonator": [["chain", "report"]],
                    "chain": [["chain", "report"], ["cascade", "run"]],
                    "hli": [["chain", "report"], ["cascade", "run"],
                            ["paper-report"]],
                    "sim": [["simulate"]], "fpi": [["noise-budget"]]}[section]
        # the keys the model refuses: a relation between keys names each
        keys = ", ".join(f"{section}.{key}" for key in lines)
        cfg = _config(tmp_path, section, **lines)
        for command in commands:
            self._refused(capsys, ["--config", str(cfg)] + command,
                          tmp_path / "out", f"{keys}: {reason}, got {shown}")

    def test_undecodable_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_bytes(DEFAULT_CONFIG.encode("utf-16"))
        self._refused(capsys, ["--config", str(path), "chain", "report"],
                      tmp_path / "out",
                      f"cannot read config {path}: 'utf-8' codec can't "
                      "decode byte 0xff in position 0: invalid start byte")

    @pytest.mark.parametrize("text", ["", ","], ids=["blank", "comma"])
    @pytest.mark.parametrize("option, command", [
        ("--gains", ["susceptibility"]), ("--gains", ["cool", "sweep"]),
        ("--noise", ["cool", "sweep"]), ("--g0", ["cascade", "run"])],
        ids=["susceptibility", "sweep-gains", "sweep-noise", "cascade"])
    def test_empty_list_option(self, tmp_path, capsys, option, command,
                               text):
        self._refused(capsys, command + [option, text], tmp_path / "out",
                      f"{option}: empty list {text!r}")

    @pytest.mark.parametrize("command, name", [
        (["cool", "sweep", "--gains", "1,10",
          "--noise", "1e-12,1.0000001e-12"], "cool_sweep_noise1e-12.csv"),
        (["cascade", "run", "--g0", "1,1"], "cascade_g1.csv"),
        (["susceptibility", "--gains", "2500,2500.0001"],
         "susceptibility_g2500.csv"),
    ], ids=["sweep-noise", "cascade-g0", "susceptibility-gains"])
    def test_repeated_artifact_name(self, tmp_path, capsys, command, name):
        # file names format list values with :g, so a later artifact of
        # the same name would replace an earlier one without a word
        out = tmp_path / "out"
        shown = " ".join(arg for arg in command[:2] if arg.isalpha())
        self._refused(capsys, command, out,
                      f"{out / name}: {shown!r} makes it twice; list values "
                      "equal to 6 digits share a file name")


@pytest.mark.parametrize("where", ["psd", "ringdown-fit", "config"])
def test_line_break_in_a_path_refused(tmp_path, capsys, where):
    # the path split a header or text line, so the artifact held a line
    # that was neither a # comment nor data, and could not be read back
    odd = tmp_path / "a\nb"
    odd.mkdir()
    trace = _trace(odd, "t_s,value\n" + "".join(
        f"{0.1 * i!r},{math.exp(-0.1 * i) * math.cos(3.0 * i)!r}\n"
        for i in range(64)))
    cfg = odd / "cfg.ini"
    cfg.write_text(DEFAULT_CONFIG)
    argv, name, line = {
        "psd": (["psd", "--input", str(trace), "--column", "value",
                 "--segment", "32"], "psd_value.csv",
                f"# optocool {cli.__version__} psd input={trace} "
                "column=value segment=32"),
        "ringdown-fit": (["ringdown-fit", "--input", str(trace)],
                         "ringdown_fit.txt", f"input = {trace}"),
        "config": (["--config", str(cfg), "chain", "report"],
                   "chain_report.txt", f"# config = {cfg}"),
    }[where]
    out = tmp_path / "out"
    assert main(["--out", str(out)] + argv) == 1
    assert capsys.readouterr().err == (
        f"error: DomainError: {out / name}: line break in {line!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("where", ["--out", cli.OUT_DIR_ENV])
def test_line_break_in_the_out_directory_refused(tmp_path, capsys,
                                                  monkeypatch, where):
    # each written path was printed raw: "wrote o" and "x/chain_report.txt"
    # on two lines
    monkeypatch.chdir(tmp_path)
    argv = ["chain", "report"]
    if where == "--out":
        argv = ["--out", "o\nx"] + argv
    else:
        monkeypatch.setenv(cli.OUT_DIR_ENV, "o\rx")
    assert main(argv) == 2
    captured = capsys.readouterr()
    text = "'o\\nx'" if where == "--out" else "'o\\rx'"
    assert captured.err == f"error: config: {where}: line break in {text}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_line_break_in_a_refusal_escaped(tmp_path, capsys):
    missing = tmp_path / "no\nsuch.csv"
    out = tmp_path / "out"
    assert main(["--out", str(out), "psd", "--input", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "\r" not in err
    assert err == (f"error: config: {tmp_path}/no\\nsuch.csv: "
                   "No such file or directory\n")
    assert not out.exists()


DEFAULT_FILES = [
    (["susceptibility"], ["susceptibility_g0.csv", "susceptibility_g2500.csv",
                          "susceptibility_g5000.csv",
                          "susceptibility_g10000.csv"]),
    (["noise-budget"], ["noise_budget.csv"]),
    (["cool", "sweep"], ["cool_sweep_noise5e-12.csv"]),
    (["cool", "optimum"], ["cool_optimum.txt"]),
    (["cascade", "run"], ["cascade_g1.csv", "cascade_g1_timeseries.csv",
                          "cascade_g1.txt"]),
    (["simulate"], ["trace.csv", "simulate.txt"]),
    (["psd", "--input", "TRACE"], ["psd_x_m.csv"]),
    (["ringdown-fit", "--input", "TRACE", "--column", "x_m"],
     ["ringdown_fit.txt"]),
    (["chain", "report"], ["chain_report.txt"]),
    (["paper-report"], ["paper_report.txt"]),
]


def test_default_commands_write_their_files(tmp_path, capsys):
    cfg = _config(tmp_path, duration="25 s", initial_position="100 um")
    trace = str(tmp_path / "simulate" / "trace.csv")
    for argv, names in DEFAULT_FILES:
        out = tmp_path / "-".join(a for a in argv[:2] if a[0] != "-")
        argv = [trace if arg == "TRACE" else arg for arg in argv]
        assert main(["--config", str(cfg), "--out", str(out)] + argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)


class TestCachedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_every_leaf_runs_its_command(self):
        def leaves(parser, path):
            subs = [action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)]
            if not subs:
                yield path
            for choices in subs:
                for word, child in choices.items():
                    yield from leaves(child, path + [word])

        handlers = {}
        for path in leaves(cli.build_parser(), []):
            needs = path[0] in ("psd", "ringdown-fit")
            args = cli.build_parser().parse_args(
                path + ["--input", "t.csv"] * needs)
            assert cli._command_path(args) == " ".join(path)
            handlers[" ".join(path)] = cli._handler(args)
        assert len(handlers) == 10
        assert {name: fn.__name__ for name, fn in handlers.items()} == {
            name: "_cmd_" + re.sub("[ -]", "_", name) for name in handlers}
        assert set(handlers.values()) == {
            fn for name, fn in inspect.getmembers(cli, inspect.isfunction)
            if name.startswith("_cmd_")}

    def _header(self, path):
        return [line for line in path.read_text().splitlines()
                if line.startswith("#")]

    def test_no_option_leaks_into_the_next_call(self, tmp_path):
        cfg = _config(tmp_path, duration="25 s")
        out = tmp_path / "out"
        run = ["--config", str(cfg), "--out", str(out)]
        trace = str(out / "trace.csv")
        assert main(run + ["--seed", "7", "simulate"]) == 0
        assert "# seed = 7" in self._header(out / "trace.csv")
        assert main(run + ["simulate"]) == 0
        assert "# seed = 12345" in self._header(out / "trace.csv")
        for argv, segment in ((["--segment", "1024"], 1024), ([], 4096)):
            assert main(run + ["psd", "--input", trace] + argv) == 0
            assert any(line.endswith(f" segment={segment}")
                       for line in self._header(out / "psd_x_m.csv"))


def test_every_numeric_column_is_an_array(tmp_path):
    # a float64 or complex128 array is the formatter's one-pass column;
    # a list of numbers would be written cell by cell
    cfg = load_config(_config(tmp_path, duration="25 s",
                              initial_position="100 um"))
    trace = tmp_path / "trace.csv"
    runs = [["susceptibility"], ["noise-budget"],
            ["cool", "sweep", "--noise", "2e-13,5e-12"], ["cool", "optimum"],
            ["cascade", "run", "--g0", "1,0.5"], ["simulate"],
            ["psd", "--input", str(trace), "--segment", "1024"],
            ["ringdown-fit", "--input", str(trace), "--column", "x_m"],
            ["chain", "report"], ["paper-report"]]
    commands, arrays = set(), []
    for argv in runs:
        args = cli.build_parser().parse_args(argv)
        handler = cli._handler(args)
        commands.add(handler.__name__)
        for name, header, body in handler(args, cfg):
            if name == "trace.csv":
                trace.write_text(format_artifact(trace, header, body))
            if not isinstance(body, dict):
                continue
            for column, cells in body.items():
                if isinstance(cells, np.ndarray):
                    arrays.append((name, column, cells.dtype.kind))
                else:
                    assert not any(isinstance(cell, numbers.Number)
                                   for cell in cells), (name, column)
    assert commands == {name for name, _ in inspect.getmembers(cli)
                        if name.startswith("_cmd_")}
    assert ("cascade_g1.csv", "stage", "i") in arrays
    assert {kind for _, _, kind in arrays} == {"i", "f", "c"}


def test_cascade_summary_compares_the_written_schedule(tmp_path):
    # g0 = 1e-9 stops at its imprecision floor after one stage, so the
    # cascade it writes is the single step itself
    assert main(["--out", str(tmp_path), "cascade", "run",
                 "--g0", "1e-9"]) == 0
    text = (tmp_path / "cascade_g1e-09.txt").read_text()
    summary = dict(line.split(" = ", 1) for line in text.splitlines()
                   if not line.startswith("#"))
    assert (summary["stages"], summary["termination"]) == (
        "1", "imprecision_floor")
    ratio = (float(summary["total_time_s"])
             / float(summary["single_step_time_s"]))
    assert float(summary["time_ratio_cascade_over_single"]) == ratio == 1.0


def test_overflowing_band_integral_fails_in_one_line(tmp_path):
    # at g = 1e300 the feedthrough integrand overflows; no numpy warning
    # may reach stderr before the one error line
    def run(gains):
        return subprocess.run(
            [sys.executable, "-m", "optocool", "--out", str(tmp_path),
             "cool", "sweep", "--gains", gains],
            capture_output=True, text=True)

    failed = run("1e300")
    assert failed.returncode == 1
    assert failed.stderr.splitlines() == [
        "error: NumericalError: feedthrough integral is not finite at "
        "g = 1e+300"]
    assert run("1e150").returncode == 0


@pytest.mark.parametrize("key, value, command, message", [
    ("mass", "1e300 kg", "noise-budget",
     "DomainError: {out}/noise_budget.csv: column total_hz_rthz: "
     "non-finite value inf"),
    # 1e-150 Hz: the resonator is built, but the FPI output's thermal term
    # overflows at resonance
    ("frequency", "1e-150 Hz", "noise-budget",
     "DomainError: {out}/noise_budget.csv: column total_hz_rthz: "
     "non-finite value inf")], ids=["huge-mass", "tiny-frequency"])
def test_numpy_warning_never_reaches_stderr(tmp_path, key, value, command,
                                            message):
    # NumPy warns of the overflow or division by zero before the writer
    # refuses the cell; pytest would capture a warning in process
    out = tmp_path / "out"
    failed = subprocess.run(
        [sys.executable, "-m", "optocool", "--config",
         str(_config(tmp_path, **{key: value})), "--out", str(out), command],
        capture_output=True, text=True)
    assert failed.returncode == 1
    assert failed.stderr.splitlines() == [
        "error: " + message.format(out=out)]
    assert not out.exists()


class TestUtf8WhateverTheLocale:
    """Files are UTF-8 text under an ASCII locale too, where argv holds a
    non-ASCII path surrogate-escaped."""

    ASCII = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                 PYTHONCOERCECLOCALE="0")

    def _run(self, *argv):
        return subprocess.run([sys.executable, "-m", "optocool", *argv],
                              env=self.ASCII, capture_output=True)

    @pytest.mark.parametrize("comment", ["", "# résumé\n"],
                             ids=["ascii-text", "non-ascii-comment"])
    def test_non_ascii_config(self, tmp_path, comment):
        path = os.fsencode(tmp_path) + "/cfg_é.ini".encode()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(comment + DEFAULT_CONFIG)
        out = tmp_path / "out"
        done = self._run("--config", path, "--out", str(out), "chain",
                         "report")
        assert (done.returncode, done.stderr) == (0, b"")
        # the header names the file by its own bytes
        assert (b"# config = " + path + b"\n"
                in (out / "chain_report.txt").read_bytes())

    def test_error_line_names_a_path_by_its_bytes(self, tmp_path):
        # stderr wrote the surrogate escapes: "n\udcc3\udca9.csv"
        path = os.fsencode(tmp_path) + "/né.csv".encode()
        done = self._run("--out", str(tmp_path / "out"), "psd", "--input",
                         path)
        assert done.returncode == 2
        assert done.stderr == (b"error: config: " + path
                               + b": No such file or directory\n")
        assert b"n\xc3\xa9.csv" in done.stderr

    def test_non_ascii_cell_in_an_unread_column(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_bytes("".join(line + ",é\n" for line in
                                  _sine_trace().splitlines()).encode())
        done = self._run("--out", str(tmp_path / "out"), "psd", "--input",
                         str(trace), "--segment", "16")
        assert (done.returncode, done.stderr) == (0, b"")

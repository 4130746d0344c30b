import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optocool import ConfigError
from optocool.cli import _gain_grid, main, run_command
from optocool.config import DEFAULT_CONFIG, load_config, parse_config
from optocool.spectrum import read_columns, read_rows

# the three noise-density keys, each with its unit
DENSITY_KEYS = [("hli", "imprecision_asd", "m/rtHz"),
                ("cooling", "external_force_psd", "N^2/Hz"),
                ("fpi", "readout_noise_asd", "Hz/rtHz")]


def _default_with(key: str, value: str) -> str:
    """DEFAULT_CONFIG with the one line of ``key`` set to ``value``."""
    return re.sub(rf"^{key} = .*$", f"{key} = {value}", DEFAULT_CONFIG,
                  count=1, flags=re.M)


MINIMAL = """\
[resonator]
mass = 2.6 g
frequency = 4.72 Hz
q_internal = 4.77e5
temperature = 300 K

[fpi]
cavity_length = 50 mm
wavelength = 1064 nm
tuning_range = 10 GHz

[hli]
wavelength = 1064 nm
imprecision_asd = 5e-12 m/rtHz

[chain]
half_wave_voltage = 200 V
max_power = 1.16 mW
"""


class TestConfigParsing:
    def test_default_config_is_complete(self):
        cfg = parse_config(DEFAULT_CONFIG)
        res = cfg.resonator()
        assert res.mass == pytest.approx(2.6e-3)
        assert res.omega0 == pytest.approx(2 * math.pi * 4.72)
        assert cfg.fpi().dynamic_range() == pytest.approx(1.7746e-6, rel=1e-3)
        assert cfg.hli().imprecision_asd == pytest.approx(5e-12)
        assert cfg.chain().dac_gain == pytest.approx(0.16934085944977667)
        assert cfg.chain().eoam.bias_angle == pytest.approx(math.pi / 4)

    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL, "minimal")
        assert cfg.get("resonator", "viscous_rate") == 0.0
        assert cfg.get("cascade", "n_settle") == 7.0
        assert cfg.get("sim", "seed") == 12345
        assert cfg.cascade_config().power is None

    def test_unit_conversions(self):
        text = MINIMAL.replace("mass = 2.6 g", "mass = 0.0026 kg") \
                      .replace("frequency = 4.72 Hz",
                               "frequency = 29.656634649887646 rad/s")
        cfg = parse_config(text)
        assert cfg.resonator().mass == pytest.approx(2.6e-3)
        assert cfg.resonator().omega0 == pytest.approx(2 * math.pi * 4.72)

    def test_angle_in_degrees(self):
        text = MINIMAL + "bias_angle = 30 deg\n"
        cfg = parse_config(text)
        assert cfg.chain().eoam.bias_angle == pytest.approx(math.pi / 6)

    def test_missing_required_key_names_path(self):
        broken = MINIMAL.replace("mass = 2.6 g\n", "")
        with pytest.raises(ConfigError, match="resonator.mass"):
            parse_config(broken)

    def test_unknown_key_rejected(self):
        text = MINIMAL.replace("[fpi]", "colour = blue\n\n[fpi]")
        with pytest.raises(ConfigError, match="resonator.colour"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="laser"):
            parse_config(MINIMAL + "\n[laser]\npower = 1 W\n")

    def test_missing_unit_suffix_rejected(self):
        with pytest.raises(ConfigError, match="resonator.mass"):
            parse_config(MINIMAL.replace("mass = 2.6 g", "mass = 2.6"))

    def test_wrong_unit_rejected(self):
        with pytest.raises(ConfigError, match="fpi.cavity_length"):
            parse_config(MINIMAL.replace("cavity_length = 50 mm",
                                         "cavity_length = 50 K"))

    def test_bad_choice_rejected(self):
        with pytest.raises(ConfigError, match="cascade.termination"):
            parse_config(MINIMAL + "\n[cascade]\ntermination = never\n")

    def test_lpf_corner_guard(self):
        low = MINIMAL + "lpf_corner = 50 Hz\n"
        low = low.replace("imprecision_asd = 5e-12 m/rtHz",
                          "imprecision_asd = 5e-12 m/rtHz\nlpf_corner = 50 Hz")
        with pytest.raises(ConfigError, match="lpf_corner"):
            parse_config(low.replace("\nlpf_corner = 50 Hz\n\n", "\n\n", 1)).hli()

    @pytest.mark.parametrize("raw", ["-5", "nan", "inf"])
    @pytest.mark.parametrize("section, key", [
        ("cooling", "gain"), ("cascade", "initial_gain"),
        ("cascade", "target_gain"), ("sim", "gain")])
    def test_bad_gain_names_key(self, section, key, raw):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(MINIMAL + f"\n[{section}]\n{key} = {raw}\n")

    @pytest.mark.parametrize("number", ["-5e-12", "nan", "inf"])
    @pytest.mark.parametrize("section, key, unit", DENSITY_KEYS)
    def test_bad_density_names_key(self, section, key, unit, number):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(_default_with(key, f"{number} {unit}"))

    def test_zero_density_accepted(self):
        for section, key, unit in DENSITY_KEYS:
            cfg = parse_config(_default_with(key, f"0 {unit}"))
            assert cfg.get(section, key) == 0.0

    def test_echo_contains_every_key(self):
        cfg = parse_config(MINIMAL)
        echo = "\n".join(cfg.echo())
        for path in ("resonator.mass", "fpi.finesse", "hli.lpf_corner",
                     "chain.dac_gain", "cooling.gain",
                     "cascade.initial_gain", "sim.seed"):
            assert path in echo

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "paper-report"]) == 0
        assert main(["--config", "/nonexistent.ini", "--out", str(tmp_path),
                     "paper-report"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config:")
        assert "\n" not in err

    def test_runtime_error_single_line(self, tmp_path, capsys):
        # fit on a constant series fails with a one-line error
        trace = tmp_path / "flat.csv"
        trace.write_text("t_s,value\n" + "".join(
            f"{i * 0.1},1.0\n" for i in range(100)))
        code = main(["--out", str(tmp_path), "ringdown-fit",
                     "--input", str(trace), "--frequency", "4.72"])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: FitError:")
        assert "\n" not in err

    def test_paper_report_flags(self, tmp_path):
        run_command(["--out", str(tmp_path), "paper-report"])
        text = (tmp_path / "paper_report.txt").read_text()
        flags = {}
        for line in text.splitlines():
            if "|" in line and not line.startswith("#") \
                    and not line.startswith("quantity"):
                parts = [p.strip() for p in line.split("|")]
                flags[parts[0]] = parts[-1]
        assert flags["g_opt"] == "DEVIATION"
        assert flags["P0_for_g1"] == "DEVIATION"
        assert flags["P0_for_g_opt"] == "DEVIATION"
        assert flags["a_th_at_resonance"] == "DEVIATION"
        assert flags["dynamic_range"] == "MATCH"
        assert flags["gamma_m"] == "MATCH"

    def test_paper_report_values(self, tmp_path):
        run_command(["--out", str(tmp_path), "paper-report"])
        text = (tmp_path / "paper_report.txt").read_text()
        rows = {}
        for line in text.splitlines():
            if "|" in line and not line.startswith(("#", "quantity")):
                parts = [p.strip() for p in line.split("|")]
                rows[parts[0]] = float(parts[2])
        assert rows["g_opt"] == pytest.approx(2158.996682860589, rel=1e-9)
        assert rows["P0_for_g1"] == pytest.approx(0.045747728, rel=1e-6)
        assert rows["a_th_at_resonance"] == pytest.approx(1.99043195e-11,
                                                          rel=1e-6)
        assert rows["dynamic_range"] == pytest.approx(1.77456099e-6, rel=1e-6)

    def test_susceptibility_artifacts(self, tmp_path):
        run_command(["--out", str(tmp_path), "susceptibility",
                     "--gains", "0,2500"])
        f0 = 4.72

        def peak(name):
            header, *rows = read_rows(tmp_path / name)
            assert header == ["freq_hz", "value", "unit"]
            freq = np.array([float(row[0]) for row in rows])
            chi = np.array([complex(row[1]) for row in rows])
            assert {row[2] for row in rows} == {"m/N"}
            return abs(np.interp(f0, freq, chi.real)
                       + 1j * np.interp(f0, freq, chi.imag))

        peak_open = peak("susceptibility_g0.csv")
        peak_cooled = peak("susceptibility_g2500.csv")
        assert peak_cooled / peak_open == pytest.approx(1 / 2501, rel=1e-3)

    def test_cool_sweep_columns(self, tmp_path):
        run_command(["--out", str(tmp_path), "cool", "sweep",
                     "--gains", "1,10", "--noise", "5e-12"])
        lines = [l for l in
                 (tmp_path / "cool_sweep_noise5e-12.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "g,T_eff_K,x2_m2,thermal_m2,feedthrough_m2"
        assert len(lines) == 3

    def test_cascade_artifacts(self, tmp_path):
        run_command(["--out", str(tmp_path), "cascade", "run", "--g0", "1"])
        stage_lines = [l for l in
                       (tmp_path / "cascade_g1.csv").read_text().splitlines()
                       if not l.startswith("#")]
        assert stage_lines[0] == ("stage,g,gdac_v_per_rad,t_start_s,"
                                  "duration_s,x2_exit_m2,teff_exit_K")
        assert len(stage_lines) > 3
        summary = (tmp_path / "cascade_g1.txt").read_text()
        assert "termination = reached_target_gain" in summary
        series = [l for l in
                  (tmp_path / "cascade_g1_timeseries.csv").read_text().splitlines()
                  if not l.startswith("#")]
        assert series[0] == "t_s,x2_m2,teff_K"

    def test_cascade_uses_configured_power(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + "\n[cascade]\npower = 50 mW\n")
        run_command(["--config", str(cfg_path), "--out", str(tmp_path),
                     "cascade", "run"])
        summary = (tmp_path / "cascade_g1.txt").read_text().splitlines()
        assert "optical_power_W = 0.05" in summary

    def test_cascade_infeasible_power_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + "\n[cascade]\npower = 1 uW\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "cascade", "run"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: InfeasibleError:")
        assert "minimum power" in err
        assert "\n" not in err
        assert list(out.glob("cascade_g1*")) == []

    def test_nan_temperature_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL.replace("temperature = 300 K",
                                            "temperature = nan K"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "simulate"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: config: resonator.temperature: must be >= 0, "
                       "got nan\n")
        assert not out.exists()

    def test_infinite_duration_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + "\n[sim]\nduration = inf s\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "simulate"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config:")
        assert "\n" not in err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        ("controller = derivative\ngain = 2000\nbandpass_quality = 0.3\n",
         "derivative loop unstable at gain = 2000, bandpass_quality = 0.3: "
         "spectral radius 1.01786 >= 1"),
        ("initial_position = nan m\n",
         "sim.initial_position: must be finite, got nan"),
        ("seed = -5\n", "sim.seed: must be in [0, 2**64), got -5"),
        (f"seed = {2 ** 64}\n",
         f"sim.seed: must be in [0, 2**64), got {2 ** 64}"),
        ("controller = chain\ndac_bits = 1100\n",  # was an OverflowError
         "sim.dac_bits: must be <= 1023, so that 2**dac_bits is a finite "
         "float, got 1100")])
    def test_bad_sim_run_refused(self, tmp_path, capsys, lines, message):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + "\n[sim]\nduration = 40 s\n" + lines)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "simulate"]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: config: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_flag_out_of_range_refused(self, tmp_path, capsys, seed):
        # masked to 64 bits, these ran as seeds 2**64 - 1 and 0
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", str(seed),
                     "simulate"]) == 2
        assert capsys.readouterr().err == (
            f"error: config: --seed: must be in [0, 2**64), got {seed}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["psd"], "optocool psd: the following arguments are required: "
                  "--input"),
        (["psd", "--input", "trace.csv", "--segment", "x"],
         "optocool psd: argument --segment: invalid int value: 'x'"),
        (["frobnicate"], "optocool: argument command: invalid choice: "
                         "'frobnicate' (choose from ")],
        ids=["missing-input", "bad-segment", "unknown-command"])
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv, message):
        assert main(["--out", str(tmp_path / "out"), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["psd", "--help"])
        assert exc.value.code == 0
        assert "--input" in capsys.readouterr().out

    @pytest.mark.parametrize("section, key, command", [
        ("cooling", "gain", ["noise-budget"]),
        ("cascade", "target_gain", ["cascade", "run"])])
    def test_negative_gain_refused(self, tmp_path, capsys, section, key,
                                   command):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + f"\n[{section}]\n{key} = -5\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     *command]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: config: {section}.{key}:")
        assert "\n" not in err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("key, value, command", [
        ("imprecision_asd", "-5e-12 m/rtHz", ["cool", "optimum"]),
        ("readout_noise_asd", "-3 Hz/rtHz", ["cascade", "run"]),
        ("external_force_psd", "-1e-30 N^2/Hz",
         ["cool", "sweep", "--gains", "1,10"]),
        ("readout_noise_asd", "-3 Hz/rtHz", ["noise-budget"])])
    def test_negative_density_refused(self, tmp_path, capsys, key, value,
                                      command):
        # with handover termination the cascade reads the FPI readout noise
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(_default_with(key, value).replace(
            "termination = gain", "termination = handover"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     *command]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config: ")
        assert f".{key}:" in err
        assert "\n" not in err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("noise", ["-5e-12", "5e-12,-5e-12"])
    def test_negative_sweep_noise_refused(self, tmp_path, capsys, noise):
        out = tmp_path / "out"
        assert main(["--out", str(out), "cool", "sweep", "--gains", "1,10",
                     f"--noise={noise}"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config: --noise")
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("option, command", [
        ("--gains", ["susceptibility", "--gains", "0,-1"]),
        ("--gains", ["cool", "sweep", "--gains", "1,-1"]),
        ("--g0", ["cascade", "run", "--g0", "1,-0.5"])])
    def test_negative_gain_list_refused(self, tmp_path, capsys, option,
                                        command):
        out = tmp_path / "out"
        assert main(["--out", str(out), *command]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: config: {option}: ")
        assert "\n" not in err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("line", ["bandpass_quality = inf", "dac_bits = 0",
                                      "dac_bits = -3"])
    def test_feedback_disabling_sim_key_refused(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + "\n[sim]\nduration = 40 s\n"
                            f"controller = chain\n{line}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "simulate"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: config: sim.{line.split()[0]}: must be")
        assert "\n" not in err
        assert list(out.glob("*")) == []

    def test_overflowing_sweep_noise_refused(self, tmp_path, capsys):
        # 1e200 squares to inf; the 5e-12 file must not be written first
        out = tmp_path / "out"
        assert main(["--out", str(out), "cool", "sweep", "--gains", "1,10",
                     "--noise=5e-12,1e200"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config: --noise")
        assert list(out.glob("*")) == []

    def test_overflowing_configured_noise_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(_default_with("imprecision_asd", "1e200 m/rtHz"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "cool",
                     "sweep", "--gains", "1,10"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config: hli.imprecision_asd:")
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("section, key, value, command", [
        ("fpi", "readout_noise_asd", "1e160 Hz/rtHz", ["noise-budget"]),
        ("hli", "imprecision_asd", "1e160 m/rtHz", ["cool", "optimum"])])
    def test_overflowing_asd_refused_at_parse(self, tmp_path, capsys, section,
                                              key, value, command):
        # a finite ASD whose square overflows is refused before any command
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(_default_with(key, value))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     *command]) == 2
        err = capsys.readouterr().err.strip()
        assert err == (f"error: config: {section}.{key}: an ASD must have a "
                       f"finite square, got {value!r}")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["noise-budget"],
                                         ["cascade", "run"]])
    def test_underflowing_readout_noise_refused(self, tmp_path, capsys,
                                                command):
        # 1e-170 Hz/rtHz is a displacement floor whose square underflows to
        # 0; a handover cascade stopped at the handover as if noiseless
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(_default_with(
            "readout_noise_asd", "1e-170 Hz/rtHz").replace(
            "termination = gain", "termination = handover"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     *command]) == 2
        err = capsys.readouterr().err.strip()
        assert err == ("error: config: fpi.readout_noise_asd: must be 0 or "
                       "give a nonzero imprecision_psd, not one that "
                       "underflows to 0, got 1e-170")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["cool", "optimum"], ["paper-report"],
                                         ["cascade", "run"]])
    def test_zero_hli_imprecision_refused(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(_default_with("imprecision_asd", "0 m/rtHz"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     *command]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config: hli.imprecision_asd:")
        assert "\n" not in err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command", [["cool", "optimum"], ["paper-report"],
                                         ["cascade", "run"], ["simulate"]])
    def test_underflowing_hli_imprecision_refused(self, tmp_path, capsys,
                                                  command):
        # 1e-170 m/rtHz squares to a zero PSD; HliReadout refuses it
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(_default_with("imprecision_asd", "1e-170 m/rtHz"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     *command]) == 2
        err = capsys.readouterr().err.strip()
        assert err == ("error: config: hli.imprecision_asd: must be > 0 with "
                       "a finite, nonzero square, got 1e-170")
        assert not out.exists()

    def test_removed_fpi_imprecision_key_refused(self, tmp_path, capsys):
        # the Fabry-Perot floor is [fpi] readout_noise_asd, converted
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(DEFAULT_CONFIG.replace(
            "[sim]", "fpi_imprecision_asd = 2e-13 m/rtHz\n\n[sim]"))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "cascade", "run"]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: config: unknown key cascade.fpi_imprecision_asd")

    def test_simulate_and_psd_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + "\n[sim]\nduration = 40 s\nseed = 7\n")
        run_command(["--config", str(cfg_path), "--out", str(tmp_path),
                     "simulate"])
        header = [l for l in (tmp_path / "trace.csv").read_text().splitlines()
                  if l.startswith("#")]
        assert any("seed = 7" in l for l in header)
        run_command(["--config", str(cfg_path), "--out", str(tmp_path),
                     "psd", "--input", str(tmp_path / "trace.csv"),
                     "--column", "x_m", "--segment", "1024"])
        _, value = read_columns(tmp_path / "psd_x_m.csv",
                                ("freq_hz", "value"))
        assert value.size > 100

    def test_simulate_chain_controller_columns(self, tmp_path):
        # the chain controller adds the modulator drive and optical power
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + "\n[sim]\nduration = 20 s\nseed = 7\n"
                            "controller = chain\n")
        run_command(["--config", str(cfg_path), "--out", str(tmp_path),
                     "simulate"])
        rows = [l for l in (tmp_path / "trace.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "t_s,x_m,y_m,v_volt,p_watt,f_fb_newton"
        run_command(["--config", str(cfg_path), "--out", str(tmp_path),
                     "psd", "--input", str(tmp_path / "trace.csv"),
                     "--column", "p_watt", "--segment", "1024"])
        _, value = read_columns(tmp_path / "psd_p_watt.csv",
                                ("freq_hz", "value"))
        assert value.size > 100

    def test_seed_override_changes_trace(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + "\n[sim]\nduration = 20 s\nseed = 1\n")
        for out, seed in ((a, None), (b, "5"), (c, "5")):
            argv = ["--config", str(cfg_path), "--out", str(out)]
            if seed:
                argv += ["--seed", seed]
            run_command(argv + ["simulate"])
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()
        assert (b / "trace.csv").read_bytes() == (c / "trace.csv").read_bytes()

    def test_sweep_multiple_noise_levels(self, tmp_path):
        run_command(["--out", str(tmp_path), "cool", "sweep",
                     "--gains", "10,100", "--noise", "2e-13,5e-12,1e-10"])
        for asd in ("2e-13", "5e-12", "1e-10"):
            assert (tmp_path / f"cool_sweep_noise{asd}.csv").exists()

    def test_ringdown_fit_command(self, tmp_path, resonator):
        gamma = float(resonator.damping_rate(resonator.omega0))
        t = np.linspace(0, 6 / gamma, 200)
        env = resonator.ringdown_envelope(1e-6, t)
        path = tmp_path / "decay.csv"
        path.write_text("t_s,value\n" + "".join(
            f"{float(ti)!r},{float(vi)!r}\n" for ti, vi in zip(t, env)))
        run_command(["--out", str(tmp_path), "ringdown-fit",
                     "--input", str(path), "--frequency", "4.72"])
        text = (tmp_path / "ringdown_fit.txt").read_text()
        q = float([l for l in text.splitlines()
                   if l.startswith("q = ")][0].split("=")[1])
        assert q == pytest.approx(4.77e5, rel=1e-3)

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_command(["--out", str(out), "paper-report"])
            run_command(["--out", str(out), "cool", "optimum"])
            run_command(["--out", str(out), "susceptibility", "--gains", "100"])
            run_command(["--out", str(out), "simulate"])
            run_command(["--out", str(out), "noise-budget"])
            run_command(["--out", str(out), "cool", "sweep",
                         "--gains", "1,30,3000", "--noise", "5e-12"])
            run_command(["--out", str(out), "cascade", "run"])
            run_command(["--out", str(out), "chain", "report"])
            # one input for both runs: the psd header names its input path
            run_command(["--out", str(out), "psd",
                         "--input", str(a / "trace.csv")])
        for name in ("paper_report.txt", "cool_optimum.txt",
                     "susceptibility_g100.csv", "trace.csv", "simulate.txt",
                     "noise_budget.csv", "cool_sweep_noise5e-12.csv",
                     "cascade_g1.csv", "cascade_g1_timeseries.csv",
                     "cascade_g1.txt", "chain_report.txt", "psd_x_m.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_noise_budget_counts_readout_noise_once(self, tmp_path):
        # far above resonance the total is the 1e3 Hz/rtHz readout floor
        config = tmp_path / "noisy.ini"
        config.write_text(MINIMAL.replace(
            "tuning_range = 10 GHz\n",
            "tuning_range = 10 GHz\nreadout_noise_asd = 1e3 Hz/rtHz\n"))
        run_command(["--config", str(config), "--out", str(tmp_path),
                     "noise-budget"])
        lines = [l for l in
                 (tmp_path / "noise_budget.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
        freq, total, thermal, readout = np.array(
            [[float(c) for c in l.split(",")] for l in lines]).T
        assert np.all(readout == 1e3)
        np.testing.assert_allclose(total, np.hypot(thermal, readout),
                                   rtol=1e-12)
        # bit for bit the noisy readout's own sum of its noise terms
        cfg = load_config(config)
        res = cfg.resonator()
        noisy = cfg.fpi().output_spectrum(res, 0.0, _gain_grid(res, 0.0))
        assert np.array_equal(total, noisy.values)
        top = np.argmax(freq)
        assert thermal[top] < 1.0
        assert total[top] == pytest.approx(1e3, rel=1e-3)

    def test_headers_embed_config(self, tmp_path):
        run_command(["--out", str(tmp_path), "noise-budget"])
        header = [l for l in
                  (tmp_path / "noise_budget.csv").read_text().splitlines()
                  if l.startswith("#")]
        text = "\n".join(header)
        assert "resonator.mass" in text
        assert "sim.seed" in text


def _interleave_comments(text: str, every: int = 7) -> str:
    """Put a blank line and an indented ``#`` comment between data rows."""
    lines = text.splitlines(keepends=True)
    out = []
    for i, line in enumerate(lines):
        out.append(line)
        if i % every == every - 1:
            out.append("\n   # a note, with a comma\n")
    return "".join(out)


def _body(path) -> list:
    """Artifact lines that name neither the header nor the input path."""
    return [l for l in path.read_text().splitlines()
            if not l.startswith(("#", "input = "))]


class TestArtifactFormat:
    def test_nan_gain_refused(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "susceptibility",
                     "--gains", "nan"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config:")
        assert "\n" not in err
        assert list(tmp_path.glob("*.csv")) == []

    def test_infinite_mass_refused(self, tmp_path, capsys):
        config = tmp_path / "heavy.ini"
        config.write_text(MINIMAL.replace("mass = 2.6 g", "mass = inf g"))
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out),
                     "cool", "optimum"]) == 2
        assert capsys.readouterr().err == (
            "error: config: resonator.mass: must be finite, got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, command, message", [
        ("bias_angle = 45 deg", "bias_angle = nan deg", ["cool", "optimum"],
         "chain.bias_angle: must be finite, got nan"),
        ("tuning_range = 10 GHz", "tuning_range = 1e300 GHz",  # overflows
         ["noise-budget"], "fpi.tuning_range: must be finite, got inf"),
        ("lpf_corner = 500 Hz", "lpf_corner = inf Hz", ["cool", "optimum"],
         "hli.lpf_corner: must be finite, got inf")],
        ids=["nan-bias-angle", "overflowing-tuning-range", "inf-lpf-corner"])
    def test_non_finite_value_never_echoed(self, tmp_path, capsys, old, new,
                                           command, message):
        # each command accepts the value, so only the header could hold it
        config = tmp_path / "cfg.ini"
        config.write_text(DEFAULT_CONFIG.replace(old, new))
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out)]
                    + command) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fpi", [
        {"tuning_range = 10 GHz": "tuning_range = 1e300 GHz"},  # parses to inf
        {"cavity_length = 50 mm": "cavity_length = 1e100 m",
         "tuning_range = 10 GHz": "tuning_range = 1e299 GHz"}])
    def test_infinite_dynamic_range_refused(self, tmp_path, capsys, fpi):
        # the report formats its own rows, so format_artifact never saw inf
        text = MINIMAL
        for old, new in fpi.items():
            text = text.replace(old, new)
        config = tmp_path / "wide.ini"
        config.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out),
                     "paper-report"]) == 1
        assert capsys.readouterr().err == (
            "error: DomainError: paper_report.txt: dynamic_range: computed "
            "inf and ratio inf must be finite\n")
        assert not out.exists()

    def test_comments_between_rows_psd(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL + "\n[sim]\nduration = 40 s\nseed = 7\n")
        clean, messy = tmp_path / "clean", tmp_path / "messy"
        run_command(["--config", str(cfg_path), "--out", str(clean),
                     "simulate"])
        trace = clean / "trace.csv"
        messy_trace = tmp_path / "messy_trace.csv"
        messy_trace.write_text(_interleave_comments(trace.read_text()))
        for out, path in ((clean, trace), (messy, messy_trace)):
            run_command(["--config", str(cfg_path), "--out", str(out), "psd",
                         "--input", str(path), "--segment", "1024"])
        assert _body(clean / "psd_x_m.csv") == _body(messy / "psd_x_m.csv")

    def test_comments_between_rows_ringdown(self, tmp_path, resonator):
        gamma = float(resonator.damping_rate(resonator.omega0))
        t = np.linspace(0, 6 / gamma, 200)
        env = resonator.ringdown_envelope(1e-6, t)
        text = "t_s,value\n" + "".join(
            f"{float(ti)!r},{float(vi)!r}\n" for ti, vi in zip(t, env))
        clean, messy = tmp_path / "clean", tmp_path / "messy"
        for out, body in ((clean, text), (messy, _interleave_comments(text))):
            out.mkdir()
            (out / "decay.csv").write_text(body)
            run_command(["--out", str(out), "ringdown-fit",
                         "--input", str(out / "decay.csv"),
                         "--frequency", "4.72"])
        assert (_body(clean / "ringdown_fit.txt")
                == _body(messy / "ringdown_fit.txt"))

    def test_psd_empty_input(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n\n")
        assert main(["--out", str(tmp_path), "psd",
                     "--input", str(path)]) == 2
        assert "empty file" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="empty file"):
            run_command(["--out", str(tmp_path), "psd", "--input", str(path)])

    def test_psd_missing_column(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text("t_s,x_m\n0.0,1.0\n0.1,2.0\n")
        assert main(["--out", str(tmp_path), "psd", "--input", str(path),
                     "--column", "y_m"]) == 2
        assert "no column 'y_m'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="no column"):
            run_command(["--out", str(tmp_path), "psd", "--input", str(path),
                         "--column", "y_m"])


def _echo_as_config(cfg):
    """Config text holding the 'section.key = value unit' lines of echo()."""
    sections = {}
    for line in cfg.echo()[1:]:
        path, value = line.split(" = ", 1)
        section, key = path.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n" + "".join(lines)
                   for section, lines in sections.items())


_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestSchemaDefaults:
    def test_omitted_keys_equal_default_config(self):
        assert (parse_config(MINIMAL).values
                == parse_config(DEFAULT_CONFIG).values)

    def test_sentinel_words_parse_to_none(self):
        cfg = parse_config(MINIMAL + "\n[sim]\ndt = none\ndac_bits = auto\n")
        assert cfg.get("sim", "dt") is None
        assert cfg.get("sim", "dac_bits") is None
        assert cfg.sim_config().dt is None
        assert cfg.sim_config().dac_bits is None
        # echoed as each key's default word
        assert "sim.dt = auto" in cfg.echo()
        assert "sim.dac_bits = none" in cfg.echo()

    @settings(max_examples=60, deadline=None)
    @given(mass=_finite, frequency=_finite, span=_finite, duration=_finite,
           dt=st.one_of(st.sampled_from(["auto", "none"]),
                        _finite.map(lambda v: f"{v!r} ms")),
           dac_bits=st.one_of(st.sampled_from(["auto", "none"]),
                              st.integers(0, 64).map(str)))
    def test_echo_round_trip(self, mass, frequency, span, duration, dt,
                             dac_bits):
        text = (MINIMAL.replace("mass = 2.6 g", f"mass = {mass!r} g")
                .replace("frequency = 4.72 Hz",
                         f"frequency = {frequency!r} Hz")
                + f"displacement_span = {span!r} um\n"
                + f"\n[sim]\nduration = {duration!r} min\ndt = {dt}\n"
                + f"dac_bits = {dac_bits}\n")
        cfg = parse_config(text)
        # a finite number can overflow to inf in SI units; echo refuses it
        assume(all(math.isfinite(value) for keys in cfg.values.values()
                   for value in keys.values() if isinstance(value, float)))
        again = parse_config(_echo_as_config(cfg))
        assert again.values == cfg.values
        assert again.echo()[1:] == cfg.echo()[1:]

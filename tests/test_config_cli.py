import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optocool import ConfigError
from optocool.cli import main, run_command
from optocool.config import DEFAULT_CONFIG, load_config, parse_config
from optocool.spectrum import read_spectrum_csv

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
        open_loop = read_spectrum_csv(tmp_path / "susceptibility_g0.csv",
                                      kind="response")
        cooled = read_spectrum_csv(tmp_path / "susceptibility_g2500.csv",
                                   kind="response")
        w0 = 2 * math.pi * 4.72
        peak_open = np.abs(open_loop.interp(w0))
        peak_cooled = np.abs(cooled.interp(w0))
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
                     "simulate"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: DomainError: temperature")
        assert "\n" not in err
        assert not (out / "trace.csv").exists()

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
        rec = read_spectrum_csv(tmp_path / "psd_x_m.csv", kind="psd")
        assert rec.values.size > 100

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
                     "cool", "optimum"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: DomainError:")
        assert "cool_optimum.txt" in err
        assert "\n" not in err
        assert not (out / "cool_optimum.txt").exists()

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
        again = parse_config(_echo_as_config(cfg))
        assert again.values == cfg.values
        assert again.echo()[1:] == cfg.echo()[1:]

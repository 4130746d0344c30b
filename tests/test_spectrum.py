import math

import numpy as np
import pytest

from optocool import ConfigError, DomainError, SpectrumRecord, phase_from_csv
from optocool.spectrum import read_noise_csv, read_spectrum_csv, write_spectrum_csv
from optocool.spectrum import psd_lookup


def _record(kind="asd"):
    omega = 2 * math.pi * np.array([0.1, 1.0, 10.0, 100.0])
    values = np.array([4.0, 3.0, 2.0, 1.0])
    return SpectrumRecord(omega, values, kind, "m/rtHz")


def test_rejects_unsorted_grid():
    with pytest.raises(DomainError):
        SpectrumRecord(np.array([2.0, 1.0]), np.array([1.0, 1.0]), "asd", "x")


def test_rejects_nonpositive_frequency():
    with pytest.raises(DomainError):
        SpectrumRecord(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "asd", "x")


def test_rejects_negative_density():
    with pytest.raises(DomainError):
        SpectrumRecord(np.array([1.0, 2.0]), np.array([1.0, -1.0]), "psd", "x")


def test_asd_psd_round_trip():
    rec = _record()
    psd = rec.to_psd()
    assert np.allclose(psd.values, rec.values ** 2)
    assert psd.unit == "(m/rtHz)^2"


def test_interp_inside_band():
    rec = _record()
    mid = rec.interp(2 * math.pi * 1.0)
    assert mid == pytest.approx(3.0)


def test_interp_outside_band_raises():
    rec = _record()
    with pytest.raises(DomainError):
        rec.interp(2 * math.pi * 1e4)


def test_csv_round_trip(tmp_path):
    rec = _record()
    path = tmp_path / "spec.csv"
    write_spectrum_csv(rec, path, header_lines=["seed = 7"])
    text = path.read_text()
    assert text.startswith("# seed = 7\nfreq_hz,value,unit\n")
    back = read_spectrum_csv(path, kind="asd")
    assert np.allclose(back.omega, rec.omega)
    assert np.allclose(back.values, rec.values)
    assert back.unit == "m/rtHz"


def test_noise_csv_import(tmp_path):
    path = tmp_path / "floor.csv"
    path.write_text("# unit: Hz/rtHz\nfreq_hz,asd\n1.0,2e-13\n10.0,1e-13\n")
    rec = read_noise_csv(path)
    assert rec.unit == "Hz/rtHz"
    assert rec.values[0] == pytest.approx(2e-13)
    assert rec.omega[0] == pytest.approx(2 * math.pi)


def _interleave_comments(text: str) -> str:
    """Put a blank line and an indented ``#`` comment after every data row."""
    return "".join(line + "\n   # a note, with a comma\n"
                   for line in text.splitlines(keepends=True))


def test_csv_round_trip_skips_comments(tmp_path):
    rec = _record()
    path = tmp_path / "spec.csv"
    write_spectrum_csv(rec, path, header_lines=["seed = 7"])
    messy = tmp_path / "messy.csv"
    messy.write_text(_interleave_comments(path.read_text()))
    a, b = read_spectrum_csv(path), read_spectrum_csv(messy)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.values, b.values)
    assert a.unit == b.unit


def test_noise_csv_skips_comments(tmp_path):
    text = "# unit: Hz/rtHz\nfreq_hz,asd\n1.0,2e-13\n10.0,1e-13\n"
    clean, messy = tmp_path / "clean.csv", tmp_path / "messy.csv"
    clean.write_text(text)
    messy.write_text(_interleave_comments(text))
    a, b = read_noise_csv(clean), read_noise_csv(messy)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.values, b.values)
    assert a.unit == b.unit == "Hz/rtHz"


def test_phase_csv_skips_comments(tmp_path):
    fs, f_het = 1e5, 1e4
    t = np.arange(4000) / fs
    beat = np.cos(2 * math.pi * f_het * t + 0.3)
    text = "t_s,value\n" + "".join(
        f"{float(ti)!r},{float(vi)!r}\n" for ti, vi in zip(t, beat))
    clean, messy = tmp_path / "clean.csv", tmp_path / "messy.csv"
    clean.write_text(text)
    messy.write_text(_interleave_comments(text))
    t_a, phase_a = phase_from_csv(clean, f_het, 20.0)
    t_b, phase_b = phase_from_csv(messy, f_het, 20.0)
    assert np.array_equal(t_a, t_b)
    assert np.array_equal(phase_a, phase_b)


def test_spectrum_csv_bad_header(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("# header\nfrequency,value,unit\n1.0,2.0,m\n")
    with pytest.raises(DomainError, match="expected header"):
        read_spectrum_csv(path)


def test_noise_csv_without_data(tmp_path):
    path = tmp_path / "floor.csv"
    path.write_text("# unit: Hz/rtHz\nfreq_hz,asd\n\n")
    with pytest.raises(DomainError, match="no data rows"):
        read_noise_csv(path)


def test_phase_csv_needs_two_samples(tmp_path):
    path = tmp_path / "beat.csv"
    path.write_text("# one sample\nt_s,value\n0.0,1.0\n")
    with pytest.raises(ConfigError, match="two samples"):
        phase_from_csv(path, 1e4, 20.0)


def test_non_finite_value_not_written(tmp_path):
    omega = 2 * math.pi * np.array([1.0, 2.0, 3.0])
    rec = SpectrumRecord(omega, np.array([1.0, float("nan"), 2.0]), "psd", "x")
    path = tmp_path / "spec.csv"
    with pytest.raises(DomainError, match="spec.csv: column value"):
        write_spectrum_csv(rec, path)
    assert not path.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_psd_lookup_refuses_non_finite_density(bad):
    # 1e200 is a finite ASD whose square overflows
    omega = 2 * math.pi * np.array([0.1, 1.0, 10.0])
    rec = SpectrumRecord(omega, np.array([1.0, bad, 1.0]), "asd", "m/rtHz")
    with pytest.raises(DomainError, match="external_accel"):
        psd_lookup(rec, "external_accel")


def test_psd_lookup_refuses_infinite_flat_density():
    with pytest.raises(DomainError, match="imprecision_psd"):
        psd_lookup(math.inf, "imprecision_psd")

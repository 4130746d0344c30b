import csv
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optocool import ConfigError, DomainError, SpectrumRecord
from optocool import spectrum
from optocool.spectrum import (format_artifact, psd_lookup, read_columns,
                               spectrum_table)


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


def _interleave_comments(text: str) -> str:
    """Put a blank line and an indented ``#`` comment after every data row."""
    return "".join(line + "\n   # a note, with a comma\n"
                   for line in text.splitlines(keepends=True))


def test_phase_csv_skips_comments(tmp_path):
    fs, f_het = 1e5, 1e4
    t = np.arange(4000) / fs
    beat = np.cos(2 * math.pi * f_het * t + 0.3)
    text = "t_s,value\n" + "".join(
        f"{float(ti)!r},{float(vi)!r}\n" for ti, vi in zip(t, beat))
    clean, messy = tmp_path / "clean.csv", tmp_path / "messy.csv"
    clean.write_text(text)
    messy.write_text(_interleave_comments(text))
    t_a, beat_a = read_columns(clean, ("t_s", "value"))
    t_b, beat_b = read_columns(messy, ("t_s", "value"))
    assert np.array_equal(t_a, t) and np.array_equal(beat_a, beat)
    assert np.array_equal(t_a, t_b)
    assert np.array_equal(beat_a, beat_b)


def test_spectrum_csv_bad_header(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("# header\nfrequency,value,unit\n1.0,2.0,m\n")
    with pytest.raises(ConfigError, match="no column 'freq_hz'"):
        read_columns(path, ("freq_hz", "value"))


def test_noise_csv_without_data(tmp_path):
    path = tmp_path / "floor.csv"
    path.write_text("# unit: Hz/rtHz\nfreq_hz,asd\n\n")
    with pytest.raises(ConfigError, match="0 data rows"):
        read_columns(path, ("freq_hz", "asd"))


def test_phase_csv_needs_two_samples(tmp_path):
    path = tmp_path / "beat.csv"
    path.write_text("# one sample\nt_s,value\n0.0,1.0\n")
    with pytest.raises(ConfigError, match="1 data rows, need at least 2"):
        read_columns(path, ("t_s", "value"))


@pytest.mark.parametrize("times, message", [
    ("0.0,0.0,0.0", "t_s must increase, got 0.0 then 0.0"),
    ("0.0,-1e-05,-2e-05", "t_s must increase, got 0.0 then -1e-05"),
], ids=["equal", "decreasing"])
def test_phase_csv_refuses_unordered_times(tmp_path, times, message):
    path = tmp_path / "beat.csv"
    path.write_text("t_s,value\n" + "".join(
        f"{t},1.0\n" for t in times.split(",")))
    with pytest.raises(ConfigError) as info:
        read_columns(path, ("t_s", "value"))
    assert str(info.value) == f"{path}: {message}"


# three input layouts, each up to the value cell of its last row, what
# follows that cell, and the columns read: a text column after the value,
# a comment row before the header, and two columns
_LAYOUTS = {
    "spectrum": ("freq_hz,value,unit\n1.0,2.0,m\n2.0", ",m",
                 ("freq_hz", "value")),
    "noise": ("# unit: Hz/rtHz\nfreq_hz,asd\n1.0,2e-13\n2.0", "",
              ("freq_hz", "asd")),
    "beat": ("t_s,value\n0.0,1.0\n1e-05", "", ("t_s", "value")),
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("cell, reason", [
    (",abc", "could not convert string to float: 'abc'"),
    (",", "could not convert string to float: ''"),
    ("", "list index out of range"),
    (",nan", "non-finite value"),
    (",-inf", "non-finite value"),
], ids=["non-numeric", "empty", "short-row", "nan", "inf"])
def test_readers_refuse_bad_cells(tmp_path, layout, cell, reason):
    head, tail, names = _LAYOUTS[layout]
    path = tmp_path / "input.csv"
    path.write_text(head + cell + (tail if cell else "") + "\n")
    with pytest.raises(ConfigError) as info:
        read_columns(path, names)
    assert str(info.value) == (
        f"{path}: bad or missing cell in column {names[1]!r} ({reason})")


def test_non_finite_value_not_written(tmp_path):
    omega = 2 * math.pi * np.array([1.0, 2.0, 3.0])
    rec = SpectrumRecord(omega, np.array([1.0, float("nan"), 2.0]), "psd", "x")
    path = tmp_path / "spec.csv"
    with pytest.raises(DomainError, match="spec.csv: column value"):
        format_artifact(path, [], spectrum_table(rec))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_psd_lookup_refuses_non_finite_density(bad):
    # 1e200 is a finite ASD whose square overflows
    omega = 2 * math.pi * np.array([0.1, 1.0, 10.0])
    rec = SpectrumRecord(omega, np.array([1.0, bad, 1.0]), "asd", "m/rtHz")
    with pytest.raises(DomainError, match="imprecision_psd"):
        psd_lookup(rec, "imprecision_psd")


def test_psd_lookup_refuses_infinite_flat_density():
    with pytest.raises(DomainError, match="imprecision_psd"):
        psd_lookup(math.inf, "imprecision_psd")


# -- the C pass of read_columns against the cell-by-cell reader -----------

NAMES = ("t_s", "x_m")


def _read(path, c_pass=True):
    """read_columns' columns as bit patterns, or the type and message of
    its refusal; ``c_pass=False`` reads cell by cell."""
    with mock.patch.object(spectrum, "_read_floats",
                           spectrum._read_floats if c_pass else
                           lambda path, names: None):
        try:
            columns = read_columns(path, NAMES)
        except (ConfigError, csv.Error) as exc:
            return type(exc), str(exc)
    return [column.view(np.int64).tolist() for column in columns]


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
          -1e308, 1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(t=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                  min_size=2, max_size=40, unique=True).map(sorted),
       values=st.lists(st.one_of(st.sampled_from(_EDGES),
                                 st.floats(allow_nan=False,
                                           allow_infinity=False)),
                       min_size=40, max_size=40),
       header=st.lists(st.text(st.characters(
           blacklist_categories=("Cs",), blacklist_characters="\r\n"),
           max_size=20), max_size=4))
def test_written_float_table_reads_back_bit_identical(tmp_path_factory, t,
                                                      values, header):
    path = tmp_path_factory.mktemp("table") / "trace.csv"
    table = {"t_s": np.array(t), "x_m": np.array(values[:len(t)])}
    path.write_text(format_artifact(path, header, table), encoding="utf-8")
    got = _read(path)
    assert got == [column.view(np.int64).tolist()
                   for column in table.values()]
    assert got == _read(path, c_pass=False)
    # with no quote in the header, the C pass reads the file itself
    quoted = any('"' in line for line in header)
    assert (spectrum._read_floats(path, NAMES) is None) == quoted


@pytest.mark.parametrize("text, c_pass", [
    ("# a\nt_s,x_m\n0.0,1.0\n# mid\n1.0,2.0\n  # indented\n2.0,3.0\n",
     False),
    ("\nt_s,x_m\n\n0.0,1.0\n\n1.0,2.0\n\n", True),
    ("t_s,x_m\n0.0,1.0\n   \n1.0,2.0\n", False),
    ("# c\r\nt_s,x_m\r\n0.0,1.0\r\n\r\n1.0,2.0\r\n", True),
    ("t_s,x_m\r0.0,1.0\r1.0,2.0\r", True),
    ('t_s,x_m\n0.0,"1.0"\n1.0,2.0\n', False),
    ("t_s,x_m\n0.0,1#0\n1.0,2.0\n", False),
    ("t_s,x_m\n0.0,1.0\n1.0\n", False),
    ("x_m,note,t_s,y\n1.0,a,0.0,5\n2.0,b,1.0,6,7\n", True),
    ("t_s,x_m\n0.0,1_0\n1.0,2.0\n", True),
    (" t_s , x_m \n 0.0 , 1.0 \n\t1.0,\xa02.0\t\n", True),
    ('t_s,x_m,note\n0.0,1.0,"a\n2.0,3.0,b"\n1.0,2.0,c\n', False),
    ("n,t_s,x_m\n1,0.0,1.0\n#2,0.5,9.0\n3,1.0,2.0\n", False),
    ("t_s,x_m\n0.0,\u0661\n1.0,2.0\n", True),
    ("t_s,x_m\n0.0,nan\n1.0,2.0\n", False),
    ("t_s,x_m\n0.0,1e999\n1.0,2.0\n", False),
    ("t_s,x_m\n1.0,1.0\n0.0,2.0\n", False),
    ("t_s,x_m\n0.0,1.0\n", False),
    ("t_s,x_m\n", False),
    ("t_s,x_m\n0.0,1.0\n1.0,2.0", True),
    ("t_s,y_m\n0.0,1.0\n1.0,2.0\n", False),
    ("", False),
    ("t_s,x_m,note\n0.0,1.0,a\n1.0,2.0," + "n" * 140_000 + "\n2.0,3.0,c\n",
     False),
    ("t_s,x_m\n0.0,1.0\n1.0,0." + "0" * 140_000 + "1\n2.0,3.0\n", False),
], ids=["interleaved-comments", "blank-rows", "whitespace-row", "crlf",
        "cr", "quoted-number", "hash-in-cell", "short-row",
        "extra-columns-any-order", "underscore", "space-padded",
        "quoted-line-break", "comment-row-after-numeric-first-column",
        "arabic-indic-digit", "nan", "overflow", "decreasing", "one-row",
        "header-only", "no-final-line-break", "missing-column", "empty",
        "over-long-text-cell", "over-long-number"])
def test_messy_input_reads_as_cell_by_cell(tmp_path, text, c_pass):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read(path) == _read(path, c_pass=False)
    assert (spectrum._read_floats(path, NAMES) is not None) == c_pass


def test_undecodable_input_refused_as_cell_by_cell(tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes("t_s,x_m\n0.0,1.0\n1.0,2.0\n".encode("utf-16"))
    assert spectrum._read_floats(path, NAMES) is None
    assert _read(path) == _read(path, c_pass=False)
    assert _read(path)[1].startswith(f"{path}: not utf-8 text")


# -- the block pass's number parser against float() -----------------------

_FORMATS = ("{!r}", "%.17g", "%.18e", "%.20e", "%.3g", "%.6f")
_BITS = st.one_of(
    st.integers(0, 2 ** 64 - 1),  # any bit pattern, nan and inf too
    st.integers(0, 2 ** 52 - 1),  # subnormals and +0
    st.integers(1, 2046).map(lambda e: e << 52),  # powers of two
    st.sampled_from([1 << 63] + [
        int(np.float64(x).view(np.int64)) + d
        for x in spectrum._MADE for d in (-1, 0, 1)]))  # -0, _MADE's ends


def _text(bits, form, sign, pad=(0, 0)):
    value = float(np.int64(bits - (bits >> 63 << 64)).view(np.float64))
    value = math.copysign(value, -1.0) if sign else value
    text = form.format(value) if form[0] == "{" else form % value
    return " " * pad[0] + text + " " * pad[1]


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(st.tuples(
    _BITS, st.sampled_from(_FORMATS), st.booleans(),
    st.tuples(st.sampled_from([0, 0, 1, 3, 9, 17]),
              st.sampled_from([0, 0, 1, 8, 12]))), min_size=2, max_size=60))
def test_every_cell_reads_as_float_reads_it(tmp_path_factory, cells):
    texts = [_text(*cell) for cell in cells]
    path = tmp_path_factory.mktemp("cells") / "input.csv"
    path.write_text("t_s,x_m\n" + "".join(
        f"{i}.0,{text}\n" for i, text in enumerate(texts)))
    got = _read(path)
    assert got == _read(path, c_pass=False)
    finite = all(math.isfinite(float(text)) for text in texts)
    assert (spectrum._read_floats(path, NAMES) is not None) == finite
    if finite:
        assert got[1] == [np.float64(float(text)).view(np.int64).item()
                          for text in texts]


@pytest.mark.parametrize("cell", [
    "9007199254740993",  # a tie: 2**53 + 1 rounds to even, 2**53
    "9007199254740995",  # a tie: 2**53 + 3 rounds to even, 2**53 + 4
    "2.4703282292062328e-324",  # just above half the least subnormal
    "1.7976931348623158e308",  # rounds down to the largest double
    "-0.0", "5.", "-.5", "1E+05",
    "1.7976931348623159e308",  # rounds to inf: both readers refuse
    "9999999999999999999",  # 19 digits, above 2**63
    "-9.999999999999999999e-301",  # 19 digits, 26 bytes
    "123456789012345678901234",  # 24 digits, cut to 19
    "1234567890.12345678901234",  # 24 digits and a point
    "1234567890123456789012345",  # 25 digits: read by float
    "  -2.5e-3", "1.5   ", "   \t 7 ", " +.5e+1 ",  # padded
    "    ", "1 2", "- 5", "1e", "e5", ".", "1.2.3",  # refused by both
])
def test_edge_cells_read_as_float_reads_them(tmp_path, cell):
    path = tmp_path / "input.csv"
    path.write_text(f"t_s,x_m\n0.0,{cell}\n1.0,2.0\n")
    got = _read(path)
    assert got == _read(path, c_pass=False)
    try:
        value = float(cell)
    except ValueError:
        assert "bad or missing cell in column 'x_m'" in got[1]
        assert spectrum._read_floats(path, NAMES) is None
        return
    if math.isfinite(value):
        assert got[1][0] == np.float64(value).view(np.int64).item()
        assert spectrum._read_floats(path, NAMES) is not None
    else:
        assert got[1].endswith(f"column 'x_m' (non-finite value)")
        assert spectrum._read_floats(path, NAMES) is None


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(
    st.floats(-1e6, 1e6), st.sampled_from(["", "a", "µm", "été"]),
    st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n"])),
    min_size=2, max_size=80), chunk=st.sampled_from([16, 23, 64, 100]),
    long_comments=st.integers(0, 2), final_break=st.booleans())
def test_chunks_split_anywhere(tmp_path_factory, rows, chunk, long_comments,
                               final_break):
    # lines, line breaks and UTF-8 characters cross the chunk boundaries;
    # comment lines before the header may be longer than a chunk, and the
    # last line may have no line break
    path = tmp_path_factory.mktemp("chunks") / "input.csv"
    text = ("# a comment\r\n" + f"# {'-' * 120}\n" * long_comments
            + "x_m,t_s,note\n" + "".join(
                f"{x!r},{float(i)!r},{note}{eol}"
                for i, (x, note, eol) in enumerate(rows)))
    if not final_break:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(spectrum, "_CHUNK", chunk):
        got = _read(path)
        fast = spectrum._read_floats(path, NAMES) is not None
    assert got == _read(path, c_pass=False)
    longest = max(map(len, text.encode("utf-8").splitlines()))
    assert fast == (longest < chunk)


def _tie(text):
    """Whether the decimal ``text`` lies halfway between two doubles."""
    exact, x = Fraction(text), float(text)
    other = math.nextafter(x, math.inf if exact > x else -math.inf)
    return 2 * exact == Fraction(x) + Fraction(other)


def test_written_cells_read_without_float(tmp_path, monkeypatch):
    # the pass itself reads repr's, np.savetxt's and printf's cells of
    # ordinary values, padded or not; of these only ties go to float
    rng = np.random.default_rng(3)
    values = rng.standard_normal(400) * 10.0 ** rng.integers(-20, 20, 400)
    texts = [form.format(x) if form[0] == "{" else form % x
             for form in ("{!r}", "%.17g", "%.6e", "%.9g", "%.15g", "%.18e",
                          "%.20e", "%26.18e", "{!r:<25}", "{!r:^27}")
             for x in values.tolist()]
    texts += ["%12.6f" % x for x in (1e3 * values / abs(values) ** 0.9)]
    path = tmp_path / "input.csv"
    path.write_text("t_s,x_m\n" + "".join(
        f"{i}.0,{text}\n" for i, text in enumerate(texts)))
    read = []
    monkeypatch.setattr(spectrum, "float",
                        lambda text: read.append(text) or float(text),
                        raising=False)
    columns = spectrum._read_floats(path, NAMES)
    monkeypatch.undo()
    assert len(read) < 10 and all(map(_tie, read))
    assert columns[1].tolist() == list(map(float, texts))

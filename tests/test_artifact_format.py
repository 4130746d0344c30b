"""Artifact text: `format_artifact` against the cell-by-cell csv writer.

The oracle below is the formatter as it was before tables were written
column by column: every cell through `_oracle_cell`, every row of the
table's columns, zipped, through `csv.writer`. Tables must come out byte
for byte the same, and a refused value must be refused with the same
message.
"""

import cmath
import csv
import inspect
import io
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optocool
from optocool import cli, spectrum
from optocool.config import DEFAULT_CONFIG, load_config
from optocool.errors import DomainError
from optocool.spectrum import ROW_BLOCK, format_artifact

WHERE = "out/table.csv"


def _oracle_cell(value, where):
    if isinstance(value, (float, np.floating)):
        value = float(value)
    elif isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
    elif isinstance(value, np.integer):
        return int(value)
    else:
        return value
    if not cmath.isfinite(value):
        raise DomainError(f"{where}: non-finite value {value!r}")
    return repr(value)


def _oracle(where, header_lines, body):
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    if not isinstance(body, dict):
        for line in body:
            if not isinstance(line, str):
                key, value = line
                line = f"{key} = {_oracle_cell(value, f'{where}: {key}')}"
            buf.write(line + "\n")
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(body)
        labels = [f"{where}: column {name}" for name in body]
        for row in zip(*body.values()):
            writer.writerow(list(map(_oracle_cell, row, labels)))
    return buf.getvalue()


def _outcome(format_, table):
    """The text's lines, or the type and message of the refusal.

    Lines, not one string: pytest explains a mismatch of two long strings
    by a diff that takes minutes, of two lists by their first difference.
    """
    try:
        text = format_(WHERE, ["optocool test"], table)
    except DomainError as exc:
        return type(exc), str(exc)
    return text.splitlines(keepends=True)


# -- property: any table formats as the oracle does ------------------------

_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5,
                                1e-4, 1e22, 0.1, 1.7976931348623157e308])
_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n#\t;')), max_size=6)


def _float_cells(finite):
    value = _EDGE_FLOATS | st.floats(allow_nan=not finite,
                                     allow_infinity=not finite)
    return value | value.map(np.float64)


def _complex_cells(finite):
    value = st.complex_numbers(allow_nan=not finite,
                               allow_infinity=not finite)
    value |= st.builds(complex, _EDGE_FLOATS, _EDGE_FLOATS)
    return value | value.map(np.complex128)


def _other_cells():
    return (st.integers(-2 ** 70, 2 ** 70) | st.integers(-9, 9).map(np.int64)
            | st.booleans() | _TEXT)


@st.composite
def _tables(draw):
    """``(name, cells, dtype)`` of 1-4 equal-length columns.

    Each column is all float, all complex, or mixed; ``dtype`` is the array
    type a float or complex column is built as, or None for a list.
    """
    finite = draw(st.booleans())
    kinds = {"float": _float_cells(finite), "complex": _complex_cells(finite),
             "other": _other_cells()}
    kinds["mixed"] = st.one_of(*kinds.values())
    picked = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                           max_size=4))
    n = draw(st.integers(0, 12))
    names = draw(st.lists(_TEXT, min_size=len(picked), max_size=len(picked),
                          unique=True))
    dtypes = {"float": float, "complex": complex}
    return [(name, draw(st.lists(kinds[kind], min_size=n, max_size=n)),
             draw(st.sampled_from([None, dtypes.get(kind)])))
            for name, kind in zip(names, picked)]


@settings(max_examples=200, deadline=None)
@given(_tables(), st.sampled_from([1, 1, 1, ROW_BLOCK // 3 + 1]))
def test_table_matches_oracle(columns, repeat):
    """``repeat`` > 1 makes a body of several blocks out of a few rows."""
    table = {name: cells * repeat if dtype is None
             else np.array(cells * repeat, dtype=dtype)
             for name, cells, dtype in columns}
    assert (_outcome(format_artifact, table)
            == _outcome(_oracle, table))


@pytest.mark.parametrize("table, text", [
    ({"": [""]}, '""\n""\n'),
    ({"a": [""], "b": [""]}, "a,b\n,\n"),
    ({"t_s": [], "x_m": np.array([])}, "t_s,x_m\n"),
    ({"x": np.array([-0.0, 5e-324, 1e16, 1e-5])},
     "x\n-0.0\n5e-324\n1e+16\n1e-05\n"),
    ({"u": ['a,"b"'], "v": ["x\ny"]}, 'u,v\n"a,""b""","x\ny"\n'),
    ({"u": ["x\x00y", "é"], "v": np.array([1.5, -2.0])},
     "u,v\nx\x00y,1.5\né,-2.0\n"),
], ids=["lone-empty-cell", "two-empty-cells", "empty-body", "floats",
        "quoted-text", "nul-and-utf8-text"])
def test_edge_tables(table, text):
    expected = ("# optocool test\n" + text).splitlines(keepends=True)
    assert _outcome(format_artifact, table) == expected
    assert _outcome(_oracle, table) == expected


# -- float cells: the vectorised digits against repr itself ----------------

def _float_lines(values):
    """The data lines of a one-column float table."""
    cells = np.asarray(values, dtype=float)
    return format_artifact(WHERE, [], {"x": cells}).splitlines()[1:]


def _reprs(values):
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def test_float_edges_match_repr():
    # powers of two have a lopsided rounding interval, powers of ten and
    # their neighbours sit on each decimal point position's boundary (the
    # exponent form starts at 1e-05 and at 1e+16)
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    values = np.concatenate([
        [0.0, 5e-324, np.finfo(float).smallest_normal, 1e16, 1e-16, 1e-4,
         1e-5, 9.999999999999999e-06, 0.30000000000000004,
         1.7976931348623157e308, 0.1, 1.5, 123456789012345678.0],
        2.0 ** np.arange(-1074, 1024), tens, np.nextafter(tens, 0.0),
        np.nextafter(tens, np.inf)[:-1]])
    values = np.concatenate([values, -values])
    assert _float_lines(values) == _reprs(values)


def test_random_floats_match_repr():
    rng = np.random.default_rng(28)
    bits = np.frombuffer(rng.bytes(8 * 210_000), np.float64)
    values = np.concatenate([
        bits[np.isfinite(bits)],  # every exponent, mostly 17 digits
        rng.normal(size=50_000) * 1e-7,  # a trace's scale
        np.round(rng.normal(size=50_000) * 1e4, 3),  # few digits
        np.arange(50_000) * 1e-3])
    assert values.size > 350_000
    assert _float_lines(values) == _reprs(values)


# each repr shape: the point position if it is written fixed, else the
# exponent's sign and digit count; each with the exponents that bound it
_SHAPE_EXPONENTS = {decpt: [decpt - 1] for decpt in range(-3, 17)} | {
    ("+", 2): [16, 99], ("-", 2): [-5, -99], ("+", 3): [100, 269],
    ("-", 3): [-100, -269]}


def _shape(text):
    """(form, digit count, sign) of a nonzero float's repr."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = whole + fraction
    if exponent:
        form = (exponent[0], len(exponent) - 1)
    else:
        form = len(whole) - (len(digits) - len(digits.lstrip("0")))
    return form, len(digits.strip("0")), text.startswith("-")


def test_every_repr_shape_matches_repr(monkeypatch):
    # one value per shape and exponent, found in a seeded stream of digit
    # strings, that the kernel lays out itself: a cell it leaves to repr
    # (a power of two, a near tie) is logged in ``left`` and not taken
    left = []
    monkeypatch.setattr(spectrum, "repr", lambda v: left.append(v) or repr(v),
                        raising=False)
    rng = np.random.default_rng(30)
    shapes = [(form, count, negative) for form in _SHAPE_EXPONENTS
              for count in range(1, 18) for negative in (False, True)]
    values = []
    for form, count, negative in shapes:
        for exponent in _SHAPE_EXPONENTS[form]:
            for _ in range(1000):
                digits = rng.integers([1] + [0] * (count - 2) + [1], 10)
                text = "".join(map(str, digits[-count:]))
                value = float(f"{'-' * negative}{text[0]}.{text[1:]}"
                              f"e{exponent}")
                left.clear()
                _float_lines([value])
                if _shape(repr(value)) == (form, count, negative) and not left:
                    values.append(value)
                    break
            else:
                pytest.fail(f"no value of shape {(form, count, negative)} "
                            f"and exponent {exponent}")
    assert len(set(shapes)) == 24 * 17 * 2
    assert {_shape(text) for text in _reprs(values)} == set(shapes)
    left.clear()
    assert _float_lines(values) == _reprs(values)
    assert not left


def test_threads_format_alike():
    # the layouts are built once; threads that format blocks of many
    # shapes at once must each get their own text
    rng = np.random.default_rng(7)
    blocks = [rng.random(ROW_BLOCK) * 10.0 ** rng.integers(-3 * i - 3, 3 * i)
              for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            lines = [None] * len(blocks)

            def format_block(i):
                lines[i] = _float_lines(blocks[i])

            threads = [threading.Thread(target=format_block, args=(i,))
                       for i in range(len(blocks))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert lines == list(map(_reprs, blocks))
    finally:
        sys.setswitchinterval(interval)


def test_seeded_trace_columns_match_repr():
    args = cli.build_parser().parse_args(["--seed", "7", "simulate"])
    (_, _, table), _ = cli._handler(args)(args, load_config(None))
    for name, cells in table.items():
        assert _float_lines(cells) == _reprs(cells), name


# -- traffic: every command's real output formats as the oracle does -------

def _short_config(tmp_path, controller="off"):
    """The default config with a 25 s simulate that rings down from 100 um."""
    path = tmp_path / f"short_{controller}.ini"
    text = DEFAULT_CONFIG
    for key, value in (("duration", "25 s"), ("initial_position", "100 um"),
                       ("controller", controller)):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1,
                      flags=re.M)
    path.write_text(text)
    return str(path)


def test_every_command_formats_as_oracle(tmp_path):
    config = _short_config(tmp_path)
    chain = _short_config(tmp_path, controller="chain")
    trace = tmp_path / "trace.csv"
    runs = [(config, argv) for argv in [
        ["susceptibility"], ["noise-budget"],
        ["cool", "sweep", "--noise", "2e-13,5e-12"], ["cool", "optimum"],
        ["cascade", "run", "--g0", "1,0.5"], ["simulate"],
        ["psd", "--input", str(trace), "--segment", "1024"],
        ["ringdown-fit", "--input", str(trace), "--column", "x_m"],
        ["chain", "report"], ["paper-report"],
    ]] + [(chain, ["simulate"]),
          (chain, ["psd", "--input", str(trace), "--column", "p_watt",
                   "--segment", "1024"])]
    commands, traces = set(), []
    for path, argv in runs:
        args = cli.build_parser().parse_args(["--config", path] + argv)
        handler = cli._handler(args)
        commands.add(handler.__name__)
        cfg = load_config(args.config)
        # the parsed path, then only the command's own ``key=value`` words
        first = re.compile(rf"optocool {re.escape(optocool.__version__)} "
                           rf"{re.escape(cli._command_path(args))}( \w+=\S+)*")
        for name, header, body in handler(args, cfg):
            assert first.fullmatch(header[0]), (name, header[0])
            text = format_artifact(tmp_path / name, header, body)
            want = _oracle(tmp_path / name, header, body)
            assert text.splitlines(True) == want.splitlines(True)
            if name == "trace.csv":
                trace.write_text(text)
                traces.append(list(body))
    assert commands == {name for name, _ in inspect.getmembers(cli)
                        if name.startswith("_cmd_")}
    assert traces == [["t_s", "x_m", "y_m", "f_fb_newton"],
                      ["t_s", "x_m", "y_m", "v_volt", "p_watt",
                       "f_fb_newton"]]


# -- refusals -------------------------------------------------------------

COLUMNS = ["t_s", "z", "x_m"]


def _float_table(n, bad=()):
    """``n`` rows of a float array, a complex list and a float array
    (`COLUMNS`); ``bad`` maps (row, col) -> value."""
    i = np.arange(n)
    cells = [0.5 * i, [complex(k, -k) for k in range(n)], 1e-3 * i]
    for (row, col), value in dict(bad).items():
        cells[col][row] = value
    return dict(zip(COLUMNS, cells))


@pytest.mark.parametrize("col, value, shown", [
    (0, math.nan, "nan"), (0, math.inf, "inf"), (2, -math.inf, "-inf"),
    (2, np.float64("nan"), "nan"),
    (1, complex(math.nan, 0.0), "(nan+0j)"),
    (1, complex(1.0, math.inf), "(1+infj)"),
    (1, np.complex128(complex(-math.inf, 2.0)), "(-inf+2j)"),
])
@pytest.mark.parametrize("row", [3, ROW_BLOCK + 5], ids=["first-block",
                                                        "second-block"])
def test_non_finite_cell_refused(row, col, value, shown):
    table = _float_table(ROW_BLOCK + 20, {(row, col): value})
    expected = (DomainError,
                f"{WHERE}: column {COLUMNS[col]}: non-finite value {shown}")
    assert _outcome(format_artifact, table) == expected
    assert _outcome(_oracle, table) == expected


@pytest.mark.parametrize("bad, column", [
    ({(ROW_BLOCK + 9, 0): math.nan, (ROW_BLOCK + 2, 2): math.inf}, "x_m"),
    ({(ROW_BLOCK + 2, 2): math.inf, (ROW_BLOCK + 2, 1): complex(math.nan)},
     "z"),
    ({(7, 2): math.nan, (ROW_BLOCK + 1, 0): math.inf}, "x_m"),
], ids=["later-column-earlier-row", "same-row", "different-blocks"])
def test_first_bad_cell_in_row_order_is_named(bad, column):
    table = _float_table(2 * ROW_BLOCK + 3, bad)
    got = _outcome(format_artifact, table)
    assert got == _outcome(_oracle, table)
    assert got[1].startswith(f"{WHERE}: column {column}: non-finite value")


def _chain_report_yields(monkeypatch, table):
    """Make ``chain report`` yield a text artifact, then ``table``."""
    def cmd(args, cfg):
        yield "good.txt", ["h"], [("a", 1.0)]
        yield "bad.csv", ["h"], table

    monkeypatch.setattr(cli, "_cmd_chain_report", cmd)


@pytest.mark.parametrize("col, length", [
    (0, 0), (1, ROW_BLOCK + 5), (2, ROW_BLOCK + 3), (2, 1),
], ids=["empty-first", "longer-middle", "one-short-last", "one-cell-last"])
def test_unequal_columns_refused(tmp_path, capsys, monkeypatch, col, length):
    """The row-by-row writer cut such a table at its shortest column."""
    table = _float_table(ROW_BLOCK + 4)
    table[COLUMNS[col]] = _float_table(length)[COLUMNS[col]]
    lengths = {name: len(cells) for name, cells in table.items()}
    assert _outcome(format_artifact, table) == (
        DomainError, f"{WHERE}: columns of unequal length {lengths}")
    _chain_report_yields(monkeypatch, table)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "chain", "report"]) == 1
    assert capsys.readouterr().err == (
        f"error: DomainError: {out / 'bad.csv'}: columns of unequal length "
        f"{lengths}\n")
    assert not out.exists()


def test_refused_table_writes_nothing(tmp_path, capsys, monkeypatch):
    _chain_report_yields(monkeypatch, _float_table(
        ROW_BLOCK + 9, {(ROW_BLOCK + 8, 1): complex(0.0, math.nan)}))
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "chain", "report"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: DomainError: {out / 'bad.csv'}: column z: "
                            "non-finite value nanj\n")
    assert not out.exists()


# -- memory ---------------------------------------------------------------

def test_formatting_a_long_trace_holds_one_block():
    """Peak traced memory of a default-length 4-column trace stays near its
    text: formatting each column whole, not a block at a time, would hold
    every cell's text as well."""
    n = 141_601
    table = {"t_s": np.arange(n) * 1e-3} | {
        name: np.sin(np.arange(n) * k) * 1e-7
        for name, k in (("x_m", 0.1), ("y_m", 0.2), ("f", 0.3))}
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = format_artifact(WHERE, [], table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)

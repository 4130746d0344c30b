"""Artifact text: `format_artifact` against the cell-by-cell csv writer.

The oracle below is the formatter as it was before tables were written
column by column: every cell through `_oracle_cell`, every row through
`csv.writer`. Tables must come out byte for byte the same, and a refused
value must be refused with the same message.
"""

import cmath
import csv
import inspect
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optocool import cli
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


def _oracle(where, header_lines, body, columns):
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    if columns is None:
        for line in body:
            if not isinstance(line, str):
                key, value = line
                line = f"{key} = {_oracle_cell(value, f'{where}: {key}')}"
            buf.write(line + "\n")
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        labels = [f"{where}: column {name}" for name in columns]
        for row in body:
            writer.writerow(list(map(_oracle_cell, row, labels)))
    return buf.getvalue()


def _outcome(format_, body, columns):
    """The text's lines, or the type and message of the refusal.

    Lines, not one string: pytest explains a mismatch of two long strings
    by a diff that takes minutes, of two lists by their first difference.
    """
    try:
        text = format_(WHERE, ["optocool test"], list(body), columns)
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
    """Rows of 1-4 columns; each column all float, all complex, or mixed."""
    finite = draw(st.booleans())
    kinds = {"float": _float_cells(finite), "complex": _complex_cells(finite),
             "other": _other_cells()}
    kinds["mixed"] = st.one_of(*kinds.values())
    cells = [kinds[name] for name in draw(st.lists(
        st.sampled_from(sorted(kinds)), min_size=1, max_size=4))]
    rows = draw(st.lists(st.tuples(*cells), max_size=12))
    columns = draw(st.lists(_TEXT, min_size=len(cells),
                            max_size=len(cells)))
    return rows, columns


@settings(max_examples=200, deadline=None)
@given(_tables(), st.sampled_from([1, 1, 1, ROW_BLOCK // 3 + 1]))
def test_table_matches_oracle(table, repeat):
    """``repeat`` > 1 makes a body of several blocks out of a few rows."""
    rows, columns = table
    rows = rows * repeat
    assert (_outcome(format_artifact, rows, columns)
            == _outcome(_oracle, rows, columns))


@pytest.mark.parametrize("rows, columns, text", [
    ([("",)], [""], '""\n""\n'),
    ([("", "")], ["", ""], ",\n,\n"),
    ([], ["t_s", "x_m"], "t_s,x_m\n"),
    ([(-0.0,), (5e-324,), (1e16,), (1e-5,)], ["x"],
     "x\n-0.0\n5e-324\n1e+16\n1e-05\n"),
    ([('a,"b"', "x\ny")], ["u", "v"], 'u,v\n"a,""b""","x\ny"\n'),
], ids=["lone-empty-cell", "two-empty-cells", "empty-body", "floats",
        "quoted-text"])
def test_edge_tables(rows, columns, text):
    expected = ("# optocool test\n" + text).splitlines(keepends=True)
    assert _outcome(format_artifact, rows, columns) == expected
    assert _outcome(_oracle, rows, columns) == expected


# -- traffic: every command's real output formats as the oracle does -------

def _short_config(tmp_path):
    """The default config with a 25 s simulate that rings down from 100 um."""
    path = tmp_path / "short.ini"
    text = re.sub(r"^duration = .*$", "duration = 25 s", DEFAULT_CONFIG,
                  count=1, flags=re.M)
    text = re.sub(r"^initial_position = .*$", "initial_position = 100 um",
                  text, count=1, flags=re.M)
    path.write_text(text)
    return str(path)


def test_every_command_formats_as_oracle(tmp_path):
    config = _short_config(tmp_path)
    trace = tmp_path / "trace.csv"
    argvs = [
        ["susceptibility"], ["noise-budget"],
        ["cool", "sweep", "--noise", "2e-13,5e-12"], ["cool", "optimum"],
        ["cascade", "run", "--g0", "1,0.5"], ["simulate"],
        ["psd", "--input", str(trace), "--segment", "1024"],
        ["ringdown-fit", "--input", str(trace), "--column", "x_m"],
        ["chain", "report"], ["paper-report"],
    ]
    commands = set()
    for argv in argvs:
        args = cli.build_parser().parse_args(["--config", config] + argv)
        commands.add(args.func.__name__)
        cfg = load_config(args.config)
        for name, header, body, columns in args.func(args, cfg):
            body = list(body)
            text = format_artifact(tmp_path / name, header, body, columns)
            want = _oracle(tmp_path / name, header, body, columns)
            assert text.splitlines(True) == want.splitlines(True)
            if name == "trace.csv":
                trace.write_text(text)
    assert commands == {name for name, _ in inspect.getmembers(cli)
                        if name.startswith("_cmd_")}


# -- refusals -------------------------------------------------------------

def _float_table(n, bad=()):
    """``n`` rows of (float, complex, float); ``bad`` maps (row, col) -> value."""
    rows = [[0.5 * i, complex(i, -i), 1e-3 * i] for i in range(n)]
    for (i, j), value in dict(bad).items():
        rows[i][j] = value
    return [tuple(row) for row in rows]


COLUMNS = ["t_s", "z", "x_m"]


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
    rows = _float_table(ROW_BLOCK + 20, {(row, col): value})
    expected = (DomainError,
                f"{WHERE}: column {COLUMNS[col]}: non-finite value {shown}")
    assert _outcome(format_artifact, rows, COLUMNS) == expected
    assert _outcome(_oracle, rows, COLUMNS) == expected


@pytest.mark.parametrize("bad, column", [
    ({(ROW_BLOCK + 9, 0): math.nan, (ROW_BLOCK + 2, 2): math.inf}, "x_m"),
    ({(ROW_BLOCK + 2, 2): math.inf, (ROW_BLOCK + 2, 1): complex(math.nan)},
     "z"),
    ({(7, 2): math.nan, (ROW_BLOCK + 1, 0): math.inf}, "x_m"),
], ids=["later-column-earlier-row", "same-row", "different-blocks"])
def test_first_bad_cell_in_row_order_is_named(bad, column):
    rows = _float_table(2 * ROW_BLOCK + 3, bad)
    got = _outcome(format_artifact, rows, COLUMNS)
    assert got == _outcome(_oracle, rows, COLUMNS)
    assert got[1].startswith(f"{WHERE}: column {column}: non-finite value")


@pytest.mark.parametrize("row, cells", [
    (0, (1.0, 2.0)), (5, (1.0, 2.0, 3.0, 4.0)), (ROW_BLOCK + 1, ()),
    (ROW_BLOCK, (1.0,)),
])
def test_ragged_row_refused(row, cells):
    """The cell-by-cell writer wrote such a row as it was, or cut it short."""
    rows = _float_table(ROW_BLOCK + 4)
    rows[row] = cells
    assert _outcome(format_artifact, rows, COLUMNS) == (
        DomainError, f"{WHERE}: a row of {len(cells)} cells under 3 columns")


def test_refused_table_writes_nothing(tmp_path, capsys, monkeypatch):
    def cmd(args, cfg):
        yield "good.txt", ["h"], [("a", 1.0)], None
        yield "bad.csv", ["h"], _float_table(
            ROW_BLOCK + 9, {(ROW_BLOCK + 8, 1): complex(0.0, math.nan)}), \
            COLUMNS

    monkeypatch.setattr(cli, "_cmd_chain_report", cmd)
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
    text: transposing the whole table at once would hold every cell's text
    as well."""
    n = 141_601
    series = [np.arange(n) * 1e-3] + [
        np.sin(np.arange(n) * k) * 1e-7 for k in (0.1, 0.2, 0.3)]
    columns = [s.tolist() for s in series]
    tracemalloc.start()
    try:
        rows = zip(*columns)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = format_artifact(WHERE, [], rows, ["t_s", "x_m", "y_m", "f"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)

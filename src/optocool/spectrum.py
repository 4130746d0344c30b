"""Spectral-density carrier and the artifact file format.

Conventions used throughout the toolkit:

* All spectral densities are single-sided.
* Frequency grids are angular (rad/s) internally; every external file
  carries plain frequency in Hz (``freq_hz = omega / 2 pi``).
* A variance is recovered from a PSD as ``integral S(omega) d omega / 2 pi``,
  i.e. densities are "per Hz" regardless of the grid being angular.

Every artifact is formatted by `format_artifact` and written by
`cli.run_command`. An artifact is ``# `` header lines, then ``key = value``
lines or a CSV table. Floats and complex values are written by ``repr``,
and a non-finite one is refused with a `DomainError` naming the file, the
column (or key) and the value of the first one in row order, so no file
full of ``nan`` is ever written. A table is a dict of columns, formatted in
blocks of `ROW_BLOCK` rows: a float64 or complex128 array gets one finite
check and one ``repr`` pass, any other column (a list, an integer array) is
written cell by cell as `csv.writer` writes it, and columns of unequal
length are refused.

The one input the CLI reads is a sampled trace, and `read_columns` is the
only code that turns its cells into numbers. Its header is the first row
that is neither blank nor a ``#`` comment, and a missing, undecodable or
malformed file is refused with a `ConfigError` naming it. Float columns are
parsed in one C pass, `_read_floats` (`np.loadtxt` over the rows after the
header, rounding as `float` does); a file that pass might read otherwise
than the cell-by-cell reader, or that it would refuse, goes to the
cell-by-cell reader, which alone decides every refusal and its message.
`uniform_rate` refuses a time column whose steps are not even.
"""

from __future__ import annotations

import cmath
import csv
import io
import os
import re
import warnings
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

import numpy as np

from .constants import TWO_PI
from .errors import ConfigError, DomainError

KIND_ASD = "asd"
KIND_PSD = "psd"
_KINDS = (KIND_ASD, KIND_PSD)

ROW_BLOCK = 4096  # table rows per join: bounds the cell texts' memory
_SPECIAL = re.compile(r'[,"\r\n]')  # cells that csv may quote


@dataclass(frozen=True, eq=False)
class SpectrumRecord:
    """Samples of a spectral density on an angular grid.

    omega   : strictly increasing angular frequencies, rad/s, all > 0
    values  : non-negative reals
    kind    : "asd" or "psd"
    unit    : unit label of the values, e.g. "m/rtHz"
    meta    : free-form diagnostics attached by producers (not serialized)
    """

    omega: np.ndarray
    values: np.ndarray
    kind: str
    unit: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        if self.kind not in _KINDS:
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        if omega.ndim != 1 or omega.size == 0:
            raise DomainError("frequency grid must be a non-empty 1-d array")
        if values.shape != omega.shape:
            raise DomainError("values and frequency grid must have equal length")
        if not np.all(np.isfinite(omega)) or np.any(omega <= 0.0):
            raise DomainError("frequencies must be finite and > 0")
        if np.any(np.diff(omega) <= 0.0):
            raise DomainError("frequencies must be strictly increasing")
        if np.any(values < 0.0):
            raise DomainError(f"{self.kind} values must be non-negative")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)

    @property
    def freq_hz(self) -> np.ndarray:
        return self.omega / TWO_PI

    def interp(self, omega) -> np.ndarray:
        """Linear interpolation onto ``omega`` (rad/s); grid must be covered."""
        omega = np.asarray(omega, dtype=float)
        if np.any(omega < self.omega[0]) or np.any(omega > self.omega[-1]):
            raise DomainError(
                "requested band [{:.4g}, {:.4g}] rad/s not covered by record "
                "band [{:.4g}, {:.4g}] rad/s".format(
                    float(np.min(omega)), float(np.max(omega)),
                    self.omega[0], self.omega[-1])
            )
        return np.interp(omega, self.omega, self.values)

    def to_psd(self) -> "SpectrumRecord":
        if self.kind == KIND_PSD:
            return self
        return SpectrumRecord(self.omega, self.values ** 2, KIND_PSD,
                              f"({self.unit})^2", dict(self.meta))


def psd_lookup(value, what: str):
    """Turn None, a flat PSD value or a SpectrumRecord into a PSD of omega.

    None reads as zero; densities must be finite and a flat value >= 0.
    An ASD record is squared once, here, so the callable interpolates in PSD.
    """
    if isinstance(value, SpectrumRecord):
        psd = value.to_psd()
        if not np.all(np.isfinite(psd.values)):
            raise DomainError(f"{what} has a non-finite density")
        return psd.interp
    value = 0.0 if value is None else float(value)
    if not 0.0 <= value < np.inf:
        raise DomainError(f"{what} must be finite and >= 0")
    return lambda omega: np.full_like(np.asarray(omega, dtype=float), value)


def format_artifact(where, header_lines, body) -> str:
    """Text of ``# `` header lines, then a CSV table or text lines.

    A dict body is a table, ``{column name: cells}`` with each column's
    cells an ndarray or a list; any other body is text, each item a plain
    line or a ``(key, value)`` pair. ``where`` (the file's path) prefixes
    the message of a refused non-finite value or unequal column lengths.
    """
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    if not isinstance(body, dict):
        for line in body:
            if not isinstance(line, str):
                key, value = line
                line = f"{key} = {_cell(value, f'{where}: {key}')}"
            buf.write(line + "\n")
        return buf.getvalue()
    lengths = {name: len(cells) for name, cells in body.items()}
    if len(set(lengths.values())) > 1:
        raise DomainError(f"{where}: columns of unequal length {lengths}")
    buf.write(_lines([[_text(name)] for name in body]))
    labels = [f"{where}: column {name}" for name in body]
    for start in range(0, max(lengths.values(), default=0), ROW_BLOCK):
        block = [cells[start:start + ROW_BLOCK] for cells in body.values()]
        texts = list(map(_column, block))
        if None in texts:
            for row in zip(*block):
                list(map(_cell, row, labels))  # raises at the first bad cell
        buf.write(_lines(texts))
    return buf.getvalue()


def _column(cells):
    """Texts of one column's cells, or None if one is a non-finite number.

    A float64 or complex128 ndarray is checked by one `np.isfinite` and
    written by ``repr``; any other column goes through `_cell` and `_text`,
    each distinct ``str`` cell (a spectrum's repeated unit) once. Numbers
    are never keys: ``0.0 == -0.0 == False`` would share one text.
    """
    if not (isinstance(cells, np.ndarray)
            and cells.dtype.type in (np.float64, np.complex128)):
        texts = {s: _text(s) for s in {c for c in cells if type(c) is str}}
        try:
            return [texts[cell] if type(cell) is str
                    else _text(_cell(cell, "")) for cell in cells]
        except DomainError:
            return None
    if not np.isfinite(cells).all():
        return None
    return list(map(repr, cells.tolist()))


def _text(value) -> str:
    """A cell as `csv.writer` writes it with its default minimal quoting.

    A cell holding a delimiter, quote or line break is written by `csv`
    itself, so its quoting rules are not restated here.
    """
    text = "" if value is None else str(value)
    if _SPECIAL.search(text):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text])
        text = buf.getvalue()[:-1]
    return text


def _lines(columns) -> str:
    """CSV lines of text columns; one empty cell alone is ``""`` as in csv."""
    if len(columns) == 1:
        columns = [[text or '""' for text in columns[0]]]
    return "".join([",".join(row) + "\n" for row in zip(*columns)])


def _cell(value, where: str):
    """One written value: floats and complex by ``repr``, finite only."""
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


def read_rows(path):
    """Data rows of an artifact, as lists of strings.

    Blank rows and comment rows are dropped; a row is a comment when its
    first cell starts with ``#`` after leading whitespace. A file that
    cannot be read, decoded or split by `csv` (a cell over
    `csv.field_size_limit`) is a `ConfigError` naming it.
    """
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh)
                    if row and not row[0].lstrip().startswith("#")]
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not {exc.encoding} text: {exc.reason} "
                          f"at byte {exc.start}") from exc
    except csv.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_columns(path, names):
    """The named float columns of an input CSV, as arrays.

    The header must name every column, and at least two data rows must
    follow, each with a finite number in every named column. The first
    column (``t_s``) must strictly increase; anything else is a
    `ConfigError` naming the file.
    """
    columns = _read_floats(path, names)
    if columns is not None:
        return columns
    rows = read_rows(path)
    if not rows:
        raise ConfigError(f"{path}: empty file")
    header, data = [cell.strip() for cell in rows[0]], rows[1:]
    for name in names:
        if name not in header:
            raise ConfigError(
                f"{path}: no column {name!r}; available: {header}")
    if len(data) < 2:
        raise ConfigError(f"{path}: {len(data)} data rows, need at least 2")
    columns = []
    for name in names:
        cells = map(itemgetter(header.index(name)), data)
        try:
            column = np.array(list(map(float, cells)))
            if not np.isfinite(column).all():
                raise ValueError("non-finite value")
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}: bad or missing cell in column "
                              f"{name!r} ({exc})") from exc
        columns.append(column)
    t = columns[0]
    i = np.argmin(np.diff(t) > 0.0)  # the first step that does not rise
    if not t[i + 1] > t[i]:
        raise ConfigError(f"{path}: {names[0]} must increase, got "
                          f"{float(t[i])!r} then {float(t[i + 1])!r}")
    return columns


def _read_floats(path, names):
    """`read_columns` of float columns by one `np.loadtxt` pass, or None.

    None hands the file to the cell-by-cell reader, which alone decides
    each refusal and its message. That happens for a file that is not a
    regular file (a pipe cannot be read twice), that holds a ``"`` anywhere
    (csv quoting can join lines or cells that this pass splits) or a line
    that may hold a cell longer than `csv.field_size_limit`, or that has a
    ``#`` row after the header (the first column is parsed too, so such a
    row fails), a cell numpy does not parse (``1_0``, which `float` takes),
    a short row, a non-finite value, fewer than two rows or a first column
    that does not increase. On any other file both readers split the same
    cells and round them alike, so the arrays are bit-identical.
    """
    if not os.path.isfile(path):
        return None
    try:
        with open(path, "rb") as fh:
            # a line long enough for a cell over csv's limit holds a whole
            # chunk of half that limit with no line break in it
            size = csv.field_size_limit() // 2
            for chunk in iter(partial(fh.read, size), b""):
                if b'"' in chunk or not (b"\n" in chunk or b"\r" in chunk):
                    return None
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if row and not row[0].lstrip().startswith("#"):
                    break
            else:
                return None
            header = [cell.strip() for cell in row]
            indices = [header.index(name) for name in names]
            usecols = list(dict.fromkeys([0, *indices]))
            with warnings.catch_warnings():  # "no data": refused below
                warnings.simplefilter("ignore")
                data = np.loadtxt(fh, delimiter=",", comments=None,
                                  usecols=usecols, ndmin=2)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    if len(data) < 2 or not np.isfinite(data).all():
        return None
    columns = np.ascontiguousarray(data.T)[list(map(usecols.index, indices))]
    if not (np.diff(columns[0]) > 0.0).all():
        return None
    return list(columns)


def uniform_rate(path, t) -> float:
    """Sample rate 1/(t[1] - t[0]) of a time column read from ``path``.

    A step that differs from the first by more than 1e-6 of it is a
    `ConfigError` naming the file: a Welch spectrum of irregular samples
    would have a wrong frequency axis.
    """
    steps = np.diff(t)
    i = int(np.argmax(np.abs(steps - steps[0])))
    if abs(steps[i] - steps[0]) > 1e-6 * steps[0]:
        raise ConfigError(
            f"{path}: t_s must be evenly spaced, step {i} is "
            f"{float(steps[i])!r} against {float(steps[0])!r}")
    return 1.0 / float(steps[0])


def spectrum_table(record: SpectrumRecord) -> dict:
    """A record's ``freq_hz,value,unit`` table, as columns."""
    return {"freq_hz": record.freq_hz, "value": record.values,
            "unit": [record.unit] * record.values.size}

"""Spectral-density carrier and the artifact file format.

Conventions used throughout the toolkit:

* All spectral densities are single-sided.
* Frequency grids are angular (rad/s) internally; every external file
  carries plain frequency in Hz (``freq_hz = omega / 2 pi``).
* A variance is recovered from a PSD as ``integral S(omega) d omega / 2 pi``,
  i.e. densities are "per Hz" regardless of the grid being angular.

Every artifact is formatted by `format_artifact` and written by
`cli.run_command`. An artifact is ``# `` header lines, then ``key = value``
lines or a CSV table. Floats and complex values are written as ``repr``
writes them, and a non-finite one is refused with a `DomainError` naming
the file, the column (or key) and the value of the first one in row order,
so no file full of ``nan`` is ever written. A header or text line holding a
line break is refused too: it would split into a line that is not a
comment. A table is a dict of columns, formatted in blocks of `ROW_BLOCK`
rows, and columns of unequal length are refused. Each column of a block
becomes a byte matrix of UTF-8 cells padded with `_PAD` (0xFF, a byte UTF-8
never uses); the matrices are joined with ``,`` and line breaks, and one
``bytes.replace`` drops the padding. A float64 array gets one finite check
and `_float_bytes`, a vectorised kernel whose text is ``repr``'s byte for
byte; it hands a power of two, an |x| outside [1e-270, 1e270] but 0, and a
cell within 1e-9 of a rounding tie or of its rounding interval's edge to
``repr`` itself, and lays every other cell out through one fixed table of
the 816 text shapes ``repr`` writes, built once with its other tables: no
layout is made at first use, and formatting changes no module state. A
complex128 array is written by ``repr``, and any other column (a list, an
integer array) cell by cell as `csv.writer` writes it.

The one input the CLI reads is a sampled trace, and `read_columns` is the
only code that turns its cells into numbers. Its header is the first row
that is neither blank nor a ``#`` comment, and a missing, undecodable or
malformed file is refused with a `ConfigError` naming it. Float columns
are parsed by one `np.loadtxt` call over the rows after the header,
`_read_floats`, which reads each cell as `float` does. A file it might
read otherwise, or would refuse, goes cell by cell through `csv` and
`float`, which alone decide every refusal and its message: one with a
``"`` anywhere, a ``#`` or a byte 0x1c-0x1f after the header, a line of
half `csv.field_size_limit`, a cell loadtxt refuses (``1_0``, ``\u0661``,
a short row), a non-finite value, fewer than two rows or times that do
not increase. `uniform_rate` refuses a time column whose steps are
not even.
"""

from __future__ import annotations

import cmath
import csv
import io
import os
import re
import warnings
from dataclasses import dataclass, field
from functools import cache, partial
from operator import itemgetter

import numpy as np

from .constants import TWO_PI
from .errors import ConfigError, DomainError

KIND_ASD = "asd"
KIND_PSD = "psd"
_KINDS = (KIND_ASD, KIND_PSD)

ROW_BLOCK = 4096  # table rows per join: bounds the cell texts' memory
_SPECIAL = re.compile(r'[,"\r\n]')  # cells that csv may quote
# bytes after a trace's header that `_read_floats` leaves to csv and float
_SCREENED = (b'"', b"#", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_LINE = re.compile(rb"[^\r\n]*")  # a line's bytes before its break


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
    the message of a refused non-finite value, header or text line holding
    a line break, or unequal column lengths.
    """
    lines = [f"# {line}" for line in header_lines]
    if not isinstance(body, dict):
        for line in body:
            if not isinstance(line, str):
                key, value = line
                line = f"{key} = {_cell(value, f'{where}: {key}')}"
            lines.append(line)
    for line in lines:
        if "\n" in line or "\r" in line:
            raise DomainError(f"{where}: line break in {line!r}")
    buf = io.StringIO()
    buf.writelines(line + "\n" for line in lines)
    if not isinstance(body, dict):
        return buf.getvalue()
    lengths = {name: len(cells) for name, cells in body.items()}
    if len(set(lengths.values())) > 1:
        raise DomainError(f"{where}: columns of unequal length {lengths}")
    buf.write(_rows([_encoded([_text(name)]) for name in body]))
    labels = [f"{where}: column {name}" for name in body]
    for start in range(0, max(lengths.values(), default=0), ROW_BLOCK):
        block = [cells[start:start + ROW_BLOCK] for cells in body.values()]
        columns = list(map(_column, block))
        if any(cells is None for cells in columns):
            for row in zip(*block):
                list(map(_cell, row, labels))  # raises at the first bad cell
        buf.write(_rows(columns))
    return buf.getvalue()


def _column(cells):
    """One column's cells as a `_PAD`-padded byte matrix, or None if one is
    a non-finite number.

    A float64 ndarray is checked by one `np.isfinite` and written by
    `_float_bytes`, a complex128 one by ``repr``; any other column goes
    through `_cell` and `_text`, each distinct ``str`` cell (a spectrum's
    repeated unit) once. Numbers are never keys: ``0.0 == -0.0 == False``
    would share one text.
    """
    if isinstance(cells, np.ndarray) and cells.dtype.type in (np.float64,
                                                               np.complex128):
        if not np.isfinite(cells).all():
            return None
        if cells.dtype.type is np.float64:
            return _float_bytes(cells)
        return _encoded(list(map(repr, cells.tolist())))
    texts = {s: _text(s) for s in {c for c in cells if type(c) is str}}
    try:
        return _encoded([texts[cell] if type(cell) is str
                         else _text(_cell(cell, "")) for cell in cells])
    except DomainError:
        return None


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


def _encoded(texts) -> np.ndarray:
    """Texts as the rows of a byte matrix: UTF-8, padded with `_PAD`."""
    data = [text.encode("utf-8", "surrogatepass") for text in texts]
    width = max(map(len, data), default=0)
    padded = b"".join([cell.ljust(width, _PAD_BYTE) for cell in data])
    return np.frombuffer(padded, np.uint8).reshape(len(data), width)


def _rows(columns) -> str:
    """CSV lines of byte-matrix columns; one empty cell alone is ``""`` as
    in csv. The padding goes in one `bytes.replace`."""
    n = len(columns[0]) if columns else 0
    if len(columns) == 1:
        cells = columns[0]
        empty = ~(cells[:, :1] != _PAD).any(axis=1)
        if empty.any():
            cells = np.pad(cells, ((0, 0), (0, 2)), constant_values=_PAD)
            cells[empty, :2] = np.frombuffer(b'""', np.uint8)
            columns = [cells]
    comma = np.full((n, 1), ord(","), np.uint8)
    parts = [part for cells in columns for part in (cells, comma)]
    parts[-1:] = [np.full((n, 1), ord("\n"), np.uint8)]
    text = np.concatenate(parts, axis=1).tobytes().replace(_PAD_BYTE, b"")
    return text.decode("utf-8", "surrogatepass")


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


# -- float cells: ``repr``'s shortest round-trip digits, a block at once --
#
# A cell's digits are made as a 17-digit integer with the position of its
# decimal point, and its source bytes are a row: digits 1-17, ``000``, the
# four digits of its exponent |point - 1|, ``-.e+`` and padding. Its text is
# gathered from the row by the layout of its shape: its form (the point
# position if ``repr`` writes it fixed, else the exponent's sign and digit
# count), digit count and sign. `_tables` builds every layout once; a cell
# whose digits are not certain here has shape 0 and is written by repr.

_PAD = 0xFF  # pads every cell to its column's width; UTF-8 never uses it
_PAD_BYTE = bytes([_PAD])
_POWERS = range(-256, 289)  # the powers of ten in the tables, 10**p
_MADE = (1e-270, 1e270)  # the |x| whose digits are made here
_MARGIN = 1e-9  # a cell this close to a tie or to its rounding interval's
#                 edge, in units of its 17th digit, is left to repr
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double in halves
_WIDE = 24  # the longest repr of a float: -2.2250738585072014e-308
_DECPTS = range(-300, 300)  # holds 17 - p and 18 - p for each p in _POWERS
_SOURCE = 32  # bytes of a cell's source row, 8 words
# indices in a source row, after digit k at k - 1 for k in 1-17; the
# exponent's 4 digits end at _MINUS
_ZERO, _MINUS, _POINT, _E, _PLUS, _BLANK = 17, 24, 25, 26, 27, 28


def _layout(decpt: int, digits: int, negative: int) -> list:
    """Source row indices of a text, laid out as ``repr`` does: with an
    exponent if the point position ``decpt`` is <= -4 or > 16, else fixed,
    with a leading ``0.`` or a trailing ``.0`` where needed."""
    text = list(range(digits))
    if decpt <= -4 or decpt > 16:
        text[1:1] = [_POINT] if digits > 1 else []
        text += [_E, _MINUS if decpt < 1 else _PLUS]
        text += range(_MINUS - len(f"{abs(decpt - 1):02d}"), _MINUS)
    elif decpt <= 0:
        text = [_ZERO, _POINT] + [_ZERO] * -decpt + text
    elif decpt < digits:
        text.insert(decpt, _POINT)
    else:
        text += [_ZERO] * (decpt - digits) + [_POINT, _ZERO]
    return [_MINUS] * negative + text


@cache
def _tables():
    """10**p for p in `_POWERS` as double-doubles (hi, lo), hi split in
    halves; the ASCII text and trailing zero count of each 4-digit group;
    the source words of ``-.e+`` and padding; per point position in
    `_DECPTS`, its exponent's source word and 34 * its form - 1, where
    positions whose 17-digit texts lay out alike share a form; and the
    layout of each shape 34 form + 2 digits + negative - 1 and of shape 0,
    padded with `_BLANK`, and its width."""
    hi, lo = [], []
    for p in _POWERS:
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        high = num / den  # correctly rounded
        top, bottom = high.as_integer_ratio()
        hi.append(high)
        lo.append((num * bottom - top * den) / (den * bottom))
    hi = np.array(hi)
    split = _SPLIT * hi
    hi_high = split - (split - hi)
    places = np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    texts = (places + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros = (places[:, ::-1] == 0).cumprod(axis=1).sum(axis=1)
    signs = np.frombuffer(b"-.e+".ljust(8, _PAD_BYTE), np.uint32)
    forms, starts = {}, []  # a form's 17-digit layout -> (form, a decpt)
    for decpt in _DECPTS:
        form, _ = forms.setdefault(tuple(_layout(decpt, 17, 0)),
                                   (len(forms), decpt))
        starts.append(34 * form - 1)
    made = [[]] + [_layout(decpt, digits, negative)
                   for _, decpt in forms.values()
                   for digits in range(1, 18) for negative in (0, 1)]
    layouts = np.array([text + [_BLANK] * (_WIDE - len(text))
                        for text in made])
    return (hi, np.array(lo), hi_high, hi - hi_high, texts, zeros,
            signs,
            texts.take(np.abs(np.array(_DECPTS) - 1)), np.array(starts),
            layouts, np.array(list(map(len, made))))


def _scaled(a, at, hi, lo, hi_high, hi_low):
    """a * 10**p, with p at index ``at`` of the tables, as its floor and
    fraction: Dekker's exact product of a and hi, plus a * lo. The floor
    is exact and the fraction good to about 1e-14."""
    split = _SPLIT * a
    a_high = split - (split - a)
    a_low = a - a_high
    high, low = hi_high.take(at), hi_low.take(at)
    product = a * hi.take(at)
    error = a_high * high - product
    error += a_high * low
    error += a_low * high
    error += a_low * low
    error += a * lo.take(at)
    floor = np.floor(error)
    error -= floor
    return product.astype(np.int64) + floor.astype(np.int64), error


def _digits(x, hi, lo, hi_high, hi_low):
    """The digits of each cell's ``repr`` as a 17-digit integer, the
    position of their decimal point, and which cells ``repr`` must write.

    For |x| in `_MADE` whose mantissa field is not zero, |x| * 10**(16 - e)
    is formed as a double-double with e its decade, so that its floor f17
    has 17 digits. ``repr`` is the nearest 15-digit decimal, f17 // 100
    rounded and stripped of trailing zeros, if it lies strictly inside x's
    rounding interval (half an ulp either side); else the nearest 16-digit
    one if that is inside; else the nearest 17-digit one. A decimal of at
    most 15 digits that rounds to x is its nearest one, and the interval is
    symmetric, so the nearest candidate is inside whenever any is. A power
    of two (its interval is lopsided), any other |x| but 0 and a cell within
    `_MARGIN` of a tie or of the interval's edge go to ``repr``.
    """
    a = np.abs(x)
    made = (a >= _MADE[0]) & (a <= _MADE[1])
    made &= x.view(np.uint64) << np.uint64(12) != 0
    a[~made] = 1.0
    at = 16 - np.floor(np.log10(a)).astype(np.int64) - _POWERS.start
    f17, frac = _scaled(a, at, hi, lo, hi_high, hi_low)
    moved = np.flatnonzero((f17 < 10 ** 16) | (f17 >= 10 ** 17))
    if moved.size:  # log10 rounded across a power of ten
        at[moved] += np.where(f17[moved] < 10 ** 16, 1, -1)
        f17[moved], frac[moved] = _scaled(a[moved], at[moved], hi, lo,
                                          hi_high, hi_low)
    ulp = (a.view(np.uint64) & np.uint64(0x7FF << 52)) - np.uint64(52 << 52)
    half = 0.5 * ulp.view(np.float64) * hi.take(at)
    f16 = f17 // 10
    f15 = f16 // 10
    # |x| above f16 * 10 and f15 * 100, and to the nearest candidates
    rest16 = (f17 - 10 * f16) + frac
    rest15 = (f16 - 10 * f15) * 10 + rest16
    off15 = np.minimum(rest15, 100.0 - rest15)
    off16 = np.minimum(rest16, 10.0 - rest16)
    off17 = np.minimum(frac, 1.0 - frac)
    inside15 = off15 < half - _MARGIN
    inside16 = off16 < half - _MARGIN
    unsure = inside15 != (off15 < half + _MARGIN)
    unsure |= inside16 != (off16 < half + _MARGIN)
    unsure |= off17 >= half - _MARGIN
    unsure |= off16 > 5.0 - _MARGIN  # ties
    unsure |= off17 > 0.5 - _MARGIN
    digits17 = np.where(inside15, (f15 + (rest15 > 50.0)) * 100,
                        np.where(inside16, (f16 + (rest16 > 5.0)) * 10,
                                 f17 + (frac > 0.5)))
    carry = digits17 >= 10 ** 17  # rounded up to the next power of ten
    digits17[carry] = 10 ** 16
    zero = x == 0.0
    digits17[zero] = 0
    decpt = 17 - _POWERS.start + carry - at
    decpt[zero] = 1
    return digits17, decpt, unsure | ~(made | zero)


def _float_bytes(x) -> np.ndarray:
    """``repr`` of each cell of a finite float64 block of at most
    `ROW_BLOCK` cells, as a `_PAD`-padded byte matrix: `_digits` laid out
    by `_tables`, in a call of its own so its arrays go before the gather."""
    tables = _tables()
    digits17, decpt, left = _digits(x, *tables[:4])
    texts, zeros, signs, exponents, starts, layouts, widths = tables[4:]
    upper = digits17 // 10 ** 9
    lower = digits17 - upper * 10 ** 9
    g0 = upper // 10 ** 4
    g1 = upper - g0 * 10 ** 4
    tens = lower // 10
    g2 = tens // 10 ** 4
    g3 = tens - g2 * 10 ** 4
    d17 = lower - tens * 10
    at_decpt = decpt - _DECPTS.start
    source = np.empty((len(x), _SOURCE // 4), np.uint32)
    for word, group in enumerate((g0, g1, g2, g3, d17 * 1000)):
        texts.take(group, out=source[:, word])
    exponents.take(at_decpt, out=source[:, 5])
    source[:, 6:] = signs
    trailing = zeros.take(g1) + (g1 == 0) * zeros.take(g0)
    trailing = zeros.take(g2) + (g2 == 0) * trailing
    trailing = zeros.take(g3) + (g3 == 0) * trailing
    digits = np.maximum(17 - (d17 == 0) * (1 + trailing), 1)  # 0 has 1
    shapes = starts.take(at_decpt) + 2 * digits + np.signbit(x)
    shapes[left] = 0
    slow = np.flatnonzero(left)
    fallback = _encoded(list(map(repr, x.take(slow).tolist())))
    width = max(int(widths.take(shapes).max(initial=0)), fallback.shape[1])
    offsets = layouts[:, :width].take(shapes, axis=0)
    offsets += _SOURCE * np.arange(len(x))[:, None]
    cells = source.view(np.uint8).ravel().take(offsets)
    cells[slow, :fallback.shape[1]] = fallback
    return cells


def read_rows(path):
    """Data rows of an artifact, as lists of strings.

    Blank rows and comment rows are dropped; a row is a comment when its
    first cell starts with ``#`` after leading whitespace. A file that
    cannot be read, decoded or split by `csv` (a cell over
    `csv.field_size_limit`) is a `ConfigError` naming it.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    """`read_columns` of float columns by one `np.loadtxt` call, or None.

    The header, the first row that `csv` splits to neither blank nor a
    comment, is read as text, and the bytes after it are screened
    `csv.field_size_limit` // 2 at a time. None hands the file to the
    cell-by-cell reader, which alone decides each refusal and its message:
    for a file that is not a regular file (a pipe cannot be read twice) or
    not UTF-8 text, that holds a ``"`` (csv quoting can join lines or cells
    that loadtxt splits), a ``#`` after the header (a comment row in a
    column loadtxt does not read), a byte 0x1c-0x1f (loadtxt strips them
    off a cell, `float` does not) or a line of half the field size limit
    (it may hold a cell over that limit; characters up to the header,
    then bytes), and for a cell loadtxt refuses (a short row, ``1_0``,
    ``\u0661``, which `float` reads), a non-finite value, fewer than two
    rows or a first column that does not increase. loadtxt reads every
    other cell, less the whitespace at its ends, as `float` does:
    bit-identical arrays.
    """
    if not os.path.isfile(path):
        return None
    limit = csv.field_size_limit() // 2
    skip = offset = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            while True:
                line = fh.readline(limit)
                if '"' in line or not line.endswith(("\n", "\r")):
                    return None  # quoted, too long, or the file ends
                skip += 1
                offset += len(line.encode("utf-8"))
                row = next(csv.reader([line]), None)
                if row and not row[0].lstrip().startswith("#"):
                    break
            header = [cell.strip() for cell in row]
            usecols = list(map(header.index, names))
            fh.buffer.seek(offset)  # tell() may be a decoder cookie
            run = 0  # the bytes of the line the next chunk continues
            for chunk in iter(partial(fh.buffer.read, limit), b""):
                if any(byte in chunk for byte in _SCREENED):
                    return None
                if run + _LINE.match(chunk).end() >= limit:
                    return None
                run = len(chunk) - 1 - max(chunk.rfind(b"\n"),
                                           chunk.rfind(b"\r"))
        with warnings.catch_warnings():  # "no data": refused below
            warnings.simplefilter("ignore")
            columns = np.loadtxt(path, delimiter=",", skiprows=skip,
                                 usecols=usecols, comments=None,
                                 quotechar=None, encoding="utf-8", ndmin=2,
                                 unpack=True)
    # a missing name, not UTF-8, a bad cell; csv refuses NUL before 3.11
    except (OSError, ValueError, csv.Error):
        return None
    if (columns.shape[1] < 2 or not np.isfinite(columns).all()
            or not (np.diff(columns[0]) > 0.0).all()):
        return None
    # contiguous, as the cell-by-cell reader's: BLAS rounds a product of
    # strided columns otherwise
    return list(np.ascontiguousarray(columns))


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

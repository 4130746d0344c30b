"""Spectral-density carrier and the artifact file format.

Conventions used throughout the toolkit:

* All spectral densities are single-sided.
* Frequency grids are angular (rad/s) internally; every external file
  carries plain frequency in Hz (``freq_hz = omega / 2 pi``).
* A variance is recovered from a PSD as ``integral S(omega) d omega / 2 pi``,
  i.e. densities are "per Hz" regardless of the grid being angular.

Every artifact is written by `write_artifact` and read by `read_rows`, the
only code that knows the format: a block of ``# `` header lines, then
either ``key = value`` text lines or a CSV table under a header row. Floats
and complex values are written by ``repr``, and a non-finite one is refused
with a `DomainError`, so no file full of ``nan`` is ever written. Readers
skip blank rows and rows whose first cell starts with ``#``.
"""

from __future__ import annotations

import cmath
import csv
import io
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .constants import TWO_PI
from .errors import DomainError

KIND_ASD = "asd"
KIND_PSD = "psd"
KIND_RESPONSE = "response"
_KINDS = (KIND_ASD, KIND_PSD, KIND_RESPONSE)


@dataclass(frozen=True, eq=False)
class SpectrumRecord:
    """Samples of a spectral density or complex response on an angular grid.

    omega   : strictly increasing angular frequencies, rad/s, all > 0
    values  : non-negative reals for kind "asd"/"psd", complex for "response"
    kind    : one of "asd", "psd", "response"
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
        if self.kind == KIND_RESPONSE:
            values = np.asarray(self.values, dtype=complex)
        else:
            values = np.asarray(self.values, dtype=float)
        if omega.ndim != 1 or omega.size == 0:
            raise DomainError("frequency grid must be a non-empty 1-d array")
        if values.shape != omega.shape:
            raise DomainError("values and frequency grid must have equal length")
        if not np.all(np.isfinite(omega)) or np.any(omega <= 0.0):
            raise DomainError("frequencies must be finite and > 0")
        if np.any(np.diff(omega) <= 0.0):
            raise DomainError("frequencies must be strictly increasing")
        if self.kind != KIND_RESPONSE and np.any(values < 0.0):
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
        if self.kind == KIND_RESPONSE:
            re = np.interp(omega, self.omega, self.values.real)
            im = np.interp(omega, self.omega, self.values.imag)
            return re + 1j * im
        return np.interp(omega, self.omega, self.values)

    def to_psd(self) -> "SpectrumRecord":
        if self.kind == KIND_PSD:
            return self
        if self.kind != KIND_ASD:
            raise DomainError("only an ASD can be squared into a PSD")
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


def write_artifact(path, header_lines, body=(), columns=None) -> None:
    """Write ``# `` header lines, then a CSV table or text lines.

    With ``columns`` the body is table rows; without, each body item is a
    plain line or a ``(key, value)`` pair. The file is opened only once
    the whole of it is formatted, so a refused value writes nothing.
    """
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    if columns is None:
        for line in body:
            if not isinstance(line, str):
                key, value = line
                line = f"{key} = {_cell(value, f'{path}: {key}')}"
            buf.write(line + "\n")
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        where = [f"{path}: column {name}" for name in columns]
        for row in body:
            writer.writerow(list(map(_cell, row, where)))
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


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
    """Data rows and ``#`` comment rows of an artifact, as lists of strings.

    Blank rows are dropped; a row is a comment when its first cell starts
    with ``#`` after leading whitespace.
    """
    rows, comments = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                (comments if row[0].lstrip().startswith("#")
                 else rows).append(row)
    return rows, comments


def write_spectrum_csv(record: SpectrumRecord, path, header_lines=()) -> None:
    """Write ``freq_hz,value,unit`` rows, preceded by ``#`` header lines."""
    rows = zip(record.freq_hz.tolist(), record.values.tolist(),
               repeat(record.unit))
    write_artifact(path, header_lines, rows,
                   columns=["freq_hz", "value", "unit"])


def read_spectrum_csv(path, kind=KIND_ASD) -> SpectrumRecord:
    """Read a ``freq_hz,value,unit`` CSV back into a record."""
    rows, _ = read_rows(path)
    if not rows or [c.strip() for c in rows[0][:2]] != ["freq_hz", "value"]:
        raise DomainError(f"{path}: expected header 'freq_hz,value,unit'")
    freqs, vals, unit = [], [], ""
    for row in rows[1:]:
        freqs.append(float(row[0]))
        vals.append(complex(row[1]) if kind == KIND_RESPONSE else float(row[1]))
        unit = row[2] if len(row) > 2 else unit
    omega = TWO_PI * np.asarray(freqs)
    return SpectrumRecord(omega, np.asarray(vals), kind, unit)


def read_noise_csv(path) -> SpectrumRecord:
    """Import a measured noise floor from a ``freq_hz,asd`` CSV.

    The unit may be tagged with a ``# unit: <label>`` comment line;
    otherwise it is ``m/rtHz``.
    """
    rows, comments = read_rows(path)
    unit = "m/rtHz"
    for row in comments:
        tag = row[0].lstrip().lstrip("#").strip()
        if tag.lower().startswith("unit") and ":" in tag:
            unit = tag.split(":", 1)[1].strip()
    rows = [row for row in rows if row[0].lstrip() != "freq_hz"]
    if not rows:
        raise DomainError(f"{path}: no data rows")
    freqs = [float(row[0]) for row in rows]
    vals = [float(row[1]) for row in rows]
    return SpectrumRecord(TWO_PI * np.asarray(freqs), np.asarray(vals),
                          KIND_ASD, unit)

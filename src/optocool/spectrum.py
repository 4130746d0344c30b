"""Spectral-density carrier and CSV input/output.

Conventions used throughout the toolkit:

* All spectral densities are single-sided.
* Frequency grids are angular (rad/s) internally; every external file
  carries plain frequency in Hz (``freq_hz = omega / 2 pi``).
* A variance is recovered from a PSD as ``integral S(omega) d omega / 2 pi``,
  i.e. densities are "per Hz" regardless of the grid being angular.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

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

    def __len__(self) -> int:
        return self.omega.size

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
                              _squared_unit(self.unit), dict(self.meta))

    def to_asd(self) -> "SpectrumRecord":
        if self.kind == KIND_ASD:
            return self
        if self.kind != KIND_PSD:
            raise DomainError("only a PSD can be rooted into an ASD")
        return SpectrumRecord(self.omega, np.sqrt(self.values), KIND_ASD,
                              _root_unit(self.unit), dict(self.meta))


def _squared_unit(unit: str) -> str:
    return f"({unit})^2"


def _root_unit(unit: str) -> str:
    if unit.startswith("(") and unit.endswith(")^2"):
        return unit[1:-3]
    return f"sqrt({unit})"


def psd_lookup(value, what: str):
    """Turn None, a flat PSD value or a SpectrumRecord into a PSD of omega.

    None reads as zero; a flat value must be >= 0. An ASD record is squared
    once, here, so the returned callable interpolates in PSD.
    """
    if isinstance(value, SpectrumRecord):
        return value.to_psd().interp
    value = 0.0 if value is None else float(value)
    if value < 0.0:
        raise DomainError(f"{what} must be >= 0")
    return lambda omega: np.full_like(np.asarray(omega, dtype=float), value)


def write_spectrum_csv(record: SpectrumRecord, path, header_lines=()) -> None:
    """Write ``freq_hz,value,unit`` rows, preceded by ``#`` header lines."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["freq_hz", "value", "unit"])
    for nu, val in zip(record.freq_hz, record.values):
        writer.writerow([repr(float(nu)), _format_value(val), record.unit])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _format_value(val):
    if isinstance(val, complex) or np.iscomplexobj(val):
        return repr(complex(val))
    return repr(float(val))


def read_spectrum_csv(path, kind=KIND_ASD) -> SpectrumRecord:
    """Read a ``freq_hz,value,unit`` CSV back into a record."""
    freqs, vals, unit = [], [], ""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh)
                if r and not r[0].lstrip().startswith("#")]
    if not rows or [c.strip() for c in rows[0][:2]] != ["freq_hz", "value"]:
        raise DomainError(f"{path}: expected header 'freq_hz,value,unit'")
    for row in rows[1:]:
        freqs.append(float(row[0]))
        vals.append(complex(row[1]) if kind == KIND_RESPONSE else float(row[1]))
        unit = row[2] if len(row) > 2 else unit
    omega = TWO_PI * np.asarray(freqs)
    return SpectrumRecord(omega, np.asarray(vals), kind, unit)


def read_noise_csv(path, default_unit="m/rtHz") -> SpectrumRecord:
    """Import a measured noise floor from a ``freq_hz,asd`` CSV.

    The unit may be tagged with a ``# unit: <label>`` comment line;
    otherwise ``default_unit`` applies.
    """
    freqs, vals = [], []
    unit = default_unit
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            first = row[0].lstrip()
            if first.startswith("#"):
                tag = first.lstrip("#").strip()
                if tag.lower().startswith("unit"):
                    unit = tag.split(":", 1)[1].strip() if ":" in tag else unit
                continue
            if first == "freq_hz":
                continue
            freqs.append(float(row[0]))
            vals.append(float(row[1]))
    if not freqs:
        raise DomainError(f"{path}: no data rows")
    return SpectrumRecord(TWO_PI * np.asarray(freqs), np.asarray(vals),
                          KIND_ASD, unit)

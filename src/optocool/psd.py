"""Welch power spectral density estimation (single-sided), in NumPy."""

from __future__ import annotations

import numpy as np

from .constants import TWO_PI
from .errors import DomainError
from .spectrum import KIND_PSD, SpectrumRecord


def estimate_psd(x, sample_rate: float, segment_length: int,
                 overlap: float = 0.5, unit: str = "1/Hz") -> SpectrumRecord:
    """Welch-averaged single-sided PSD with a Hann window.

    ``overlap`` is the segment overlap fraction. The record's ``meta``
    carries the segment count and the Parseval ratio (integrated PSD over
    series variance, close to 1 for well-resolved spectra). A refused
    argument raises ``DomainError("<argument> <reason>")``.
    """
    x = np.asarray(x, dtype=float)
    if segment_length < 2:
        raise DomainError("segment_length must be >= 2")
    if x.size < 2 * segment_length:
        raise DomainError(f"segment_length must be at most half the series "
                          f"length {x.size}")
    if not 0.0 <= overlap < 1.0:
        raise DomainError("overlap must be in [0, 1)")
    step = segment_length - int(overlap * segment_length)
    window = np.hanning(segment_length + 1)[:-1]  # periodic Hann
    segments = np.lib.stride_tricks.sliding_window_view(
        x, segment_length)[::step]
    spectra = np.fft.rfft(segments * window, axis=1)
    pxx = np.mean(spectra.real ** 2 + spectra.imag ** 2, axis=0)
    pxx /= sample_rate * np.sum(window ** 2)
    pxx[1:(segment_length + 1) // 2] *= 2.0  # all but DC and Nyquist
    freqs = np.fft.rfftfreq(segment_length, 1.0 / sample_rate)
    power = float(np.trapezoid(pxx, freqs))
    second_moment = float(np.mean(x ** 2))
    meta = {
        "segments": len(segments),
        "parseval_ratio": power / second_moment if second_moment > 0 else float("nan"),
    }
    keep = freqs > 0.0
    return SpectrumRecord(TWO_PI * freqs[keep], pxx[keep], KIND_PSD, unit, meta)


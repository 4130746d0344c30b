"""Welch power spectral density estimation (single-sided)."""

from __future__ import annotations

import numpy as np

from .constants import TWO_PI
from .errors import ConfigError
from .spectrum import KIND_PSD, SpectrumRecord

HANN_ENBW_BINS = 1.5  # equivalent noise bandwidth of the Hann window


def estimate_psd(x, sample_rate: float, segment_length: int,
                 overlap: float = 0.5, unit: str = "1/Hz") -> SpectrumRecord:
    """Welch-averaged single-sided PSD with a Hann window.

    ``overlap`` is the segment overlap fraction. The record's ``meta``
    carries the segment count, the window's equivalent noise bandwidth in
    bins, and the Parseval ratio (integrated PSD over series variance,
    close to 1 for well-resolved spectra).
    """
    x = np.asarray(x, dtype=float)
    if segment_length < 2:
        raise ConfigError(f"segment length must be >= 2, got {segment_length}")
    if x.size < 2 * segment_length:
        raise ConfigError(
            f"series length {x.size} must be at least twice the segment "
            f"length {segment_length}")
    if not 0.0 <= overlap < 1.0:
        raise ConfigError("overlap fraction must be in [0, 1)")
    noverlap = int(overlap * segment_length)
    # imported here so that `import optocool` loads no scipy
    from scipy.signal import welch
    freqs, pxx = welch(x, fs=sample_rate, window="hann",
                       nperseg=segment_length, noverlap=noverlap,
                       detrend=False, scaling="density")
    n_segments = 1 + (x.size - segment_length) // (segment_length - noverlap)
    power = float(np.trapezoid(pxx, freqs))
    second_moment = float(np.mean(x ** 2))
    meta = {
        "segments": n_segments,
        "enbw_bins": HANN_ENBW_BINS,
        "parseval_ratio": power / second_moment if second_moment > 0 else float("nan"),
    }
    keep = freqs > 0.0
    return SpectrumRecord(TWO_PI * freqs[keep], pxx[keep], KIND_PSD, unit, meta)

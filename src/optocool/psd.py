"""Welch power spectral density estimation (single-sided), in NumPy, and
`LiftedSystem`, the block recursion of the simulator's linear loops.
It carries the state across its blocks by a doubling scan (Blelloch,
"Prefix sums and their applications", 1990) in ceil(log2 blocks) products.
"""

from __future__ import annotations

import numpy as np

from .constants import TWO_PI
from .errors import ConfigError
from .spectrum import KIND_PSD, SpectrumRecord

_BLOCK = 32  # steps per block of LiftedSystem
_STACK = 8   # blocks per forced- or free-response product, see _stacked_matmul
_SERIAL_MNK = 2 ** 18  # m*n*k of the largest scan product, see _stacked_matmul


def estimate_psd(x, sample_rate: float, segment_length: int,
                 overlap: float = 0.5, unit: str = "1/Hz") -> SpectrumRecord:
    """Welch-averaged single-sided PSD with a Hann window.

    ``overlap`` is the segment overlap fraction. The record's ``meta``
    carries the segment count and the Parseval ratio (integrated PSD over
    series variance, close to 1 for well-resolved spectra).
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


def _stacked_matmul(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix, as one product per _STACK rows.

    Each product then stays below the size at which OpenBLAS hands it to
    worker threads. On 2 CPUs the threaded product made a 40,000-step run
    no faster, and the workers' buffers stayed resident: about 7 MB of peak
    RSS for the process. OpenBLAS threads a product by its m*n*k (on 2
    CPUs a (rows x 7)(7 x 7) product ran threaded from 10,700 rows on,
    m*n*k = 2^19), so the scan in `LiftedSystem` cuts its products to at
    most _SERIAL_MNK = 2^18 multiply-adds instead.
    """
    stacks = rows.reshape(-1, _STACK, rows.shape[1])
    return (stacks @ matrix).reshape(rows.shape[0], matrix.shape[1])


class LiftedSystem:
    """z_{i+1} = A z_i + B w_{i+1}, read out as C z, in blocks of L = _BLOCK
    steps.

    Built once from (A, B, C): the L-step free response, the forced-response
    kernel of one block and A^L. `response` only applies them, so a system
    run many times (the chain loop's relaxation passes) pays the build once.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray):
        size = _BLOCK
        n_out, nz = c.shape
        powers = [np.eye(nz)]
        for _ in range(size):
            powers.append(a @ powers[-1])
        powers = np.array(powers)
        impulse = c @ powers[:size] @ b                   # (L, outputs, inputs)
        lag = np.arange(size)[:, None] - np.arange(size)[None, :]
        forced = np.where((lag >= 0)[:, None, :, None],
                          impulse[np.maximum(lag, 0)].transpose(0, 2, 1, 3), 0.0)
        carry = (powers[size - 1::-1] @ b).transpose(1, 0, 2).reshape(nz, -1)
        self._n_in, self._n_out = b.shape[1], n_out
        self._free = (c @ powers[1:]).reshape(n_out * size, nz).T
        self._kernel = np.concatenate((forced.reshape(n_out * size, -1), carry)).T
        # A^L, A^2L, A^4L, ..., one per scan pass, squared as a run first
        # needs them; the last square is kept in np.longdouble (80-bit on
        # x86-64): squared in float64, its rounding grows through a
        # non-normal loop matrix, and the q100 derivative traces of
        # TestBlockRecursion drifted from the stepped loop by 6.5e-11 of
        # their rms instead of 2.6e-12
        self._jumps = [powers[size]]
        self._square = powers[size].astype(np.longdouble)

    def response(self, z0: np.ndarray, w: tuple | np.ndarray) -> np.ndarray:
        """Rows C z_1 .. C z_N from the start state z0 and w, one series per
        input.

        The inputs are zero-padded to whole stacks of blocks: one matmul
        gives every block's forced response and its end-state increment
        e_k, a doubling scan solves s_{k+1} = A^L s_k + e_k for the block
        start states, and a second matmul adds each block's free response.
        Empty series give an empty (0, outputs) array.
        """
        size, n_out = _BLOCK, self._n_out
        n = len(w[0])
        if n == 0:
            return np.empty((0, n_out))
        blocks = _STACK * -(-n // (size * _STACK))
        padded = np.zeros((blocks * size, self._n_in))
        for j, series in enumerate(w):
            padded[:n, j] = series
        response = _stacked_matmul(padded.reshape(blocks, -1), self._kernel)
        del padded  # not held through the scan: it lowers the peak memory
        # Hillis-Steele scan: after the pass with stride d and J = A^{L d},
        # column k holds sum_{j > k-2d} A^{L(k-j)} e_j, with e_0 += A^L z0,
        # so at the end column k is the end state s_{k+1} of block k
        ends = response[:, n_out * size:].T.copy()
        ends[:, 0] += self._jumps[0] @ z0
        chunk = max(1, _SERIAL_MNK // self._square.size)  # columns per product
        stride = 1
        for k in range(max(0, blocks - 1).bit_length()):
            if k == len(self._jumps):
                self._square = self._square @ self._square
                self._jumps.append(self._square.astype(float))
            jump = self._jumps[k]
            # e_k += J e_{k-stride}, a chunk at a time from the last column
            # down, so each product reads only columns not yet updated
            for hi in range(blocks, stride, -chunk):
                lo = max(stride, hi - chunk)
                ends[:, lo:hi] += jump @ ends[:, lo - stride:hi - stride]
            stride *= 2
        starts = np.concatenate((z0[None], ends[:, :-1].T))
        out = _stacked_matmul(starts, self._free)
        out += response[:, :n_out * size]
        return out.reshape(blocks * size, n_out)[:n]

"""Seeded stochastic time-domain simulation of the cooling loop.

The equation of motion

    m x'' = -m omega0^2 x - m gamma x' + F_th(t) + F_ext(t) + F_fb(t)

is integrated with semi-implicit (symplectic) Euler. Structural damping has
no exact time-domain form, so runs use the viscous-equivalent rate
gamma = gamma_m(omega0); near-resonant dynamics dominate everything the
simulation is used to validate.

Thermal force and readout imprecision are independent white streams drawn
from counter-based generators keyed by (seed, stream id), so a trace is
bit-exact reproducible from (config, seed). Per-sample standard deviations
follow the single-sided convention sigma^2 = S * f_s / 2.

The controller path mirrors the digital loop. The apparent position
y_i = x_i + n_i gives the velocity estimate u_i = (y_i - y_{i-2}) / (2 dt),
an RBJ constant-peak-gain biquad bandpass at omega0 (unity gain, zero phase:
the near-resonant filter plus 90 degree shift of the real loop) turns it into
vel_i, and the force set from vel_i (-m g gamma vel_i, or the chain's DAC,
cos^2 modulator and radiation pressure) acts from step i + 1: one sample of
latency. Warm-up: the force during step 0 is 0, vel_0 = 0 without stepping
the bandpass, and y_{-1} = y_0, so u_1 = (y_1 - y_0) / (2 dt); the force
latched for step 1 is the one set from vel_0.

Semi-implicit Euler stays the defining recursion; only its evaluation
differs by controller. A smooth loop is linear, z_{i+1} = A z_i +
B [f_in, n]_{i+1}, over its own variables (x, v, y_i, y_{i-1}, the two
bandpass states, the latched force and the vel it was set from), with the
force a fixed multiple of vel: -m g gamma for ``derivative``, 0 for ``off``
and the modulator's bias slope for ``chain``. `_linear_step` writes A, B
and the state after the warm-up step, and `LiftedSystem`, built once per
run, evaluates the recursion in blocks of 32 steps by matrix products (the
lifted state-space form of Franklin, Powell & Workman, *Digital Control of
Dynamic Systems*), carrying the state across the blocks by a doubling scan
(Blelloch, "Prefix sums and their applications", 1990) in ceil(log2
blocks) products. The products run over chunks of 32,768 steps, each
written straight into the run's output and the blocks' end states (8
doubles per block, 2 bytes per step), and the scan runs once over the
whole run's end states. With each array dropped once dead, an ``off`` or
``derivative`` run holds at most 40 bytes per step (the 32 of its trace
and one more series) plus about 1.1 MB of chunk scratch, and a ``chain``
run 80. A derivative loop whose A has spectral radius >= 1 is refused
before the first step.

The ``chain`` controller's cos^2 modulator is memoryless but nonlinear.
With a smooth DAC (``dac_bits`` None), `_relaxed_chain` runs it by waveform
relaxation (Lelarasmee, Ruehli & Sangiovanni-Vincentelli, IEEE Trans. CAD
1, 131 (1982)) on the loop's own lifted system, the modulator's force
beyond its bias slope entering as an input, and its traces agree with the
stepped loop to about 1e-11 of their rms; the loops it refuses run
`_chain_loop`, which steps the loop sample by sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import TWO_PI
from .cooling import open_loop_thermal_variance
from .errors import ConfigError, DivergenceError, DomainError
from .feedback import FeedbackChain, actuator_gain
from .readout import HliReadout
from .resonator import MechanicalResonator

STREAM_THERMAL = 0
STREAM_IMPRECISION = 1

PRESET_QUALITIES = {"q100": 100.0, "q1e3": 1.0e3, "q1e5": 1.0e5}
CONTROLLERS = ("off", "derivative", "chain")
_CHAIN_STORE = 4096  # chain steps per store of the listed values to the trace
_SETTLE = 2.0 ** -40  # chain relaxation stops at this update / force scale
_MAX_PASSES = 16      # chain relaxation passes before it falls back
_BLOCK = 32  # steps per block of LiftedSystem
_STACK = 8   # blocks per forced- or free-response product, see _stacked_matmul
_CHUNK = 128  # stacks per chunk of LiftedSystem.response: 32,768 steps
_SERIAL_MNK = 2 ** 18  # m*n*k of the largest scan product, see _stacked_matmul


def preset_resonator(base: MechanicalResonator, q: float) -> MechanicalResonator:
    """Desk-scale copy of ``base``: same omega0 and mass, viscous damping
    omega0/q so closed-loop statistics converge in seconds."""
    if not q > 0.0:
        raise DomainError("q must be > 0")
    return replace(base, q_internal=math.inf, gamma_viscous=base.omega0 / q,
                   loss_exponent=0.0)


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for an independent stream of a seeded run."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Time-domain run description.

    duration        : s
    dt              : s; None picks 1/(100 f0)
    seed            : stream seed, an integer in [0, 2**64)
    x0              : initial position, m (the mass starts at rest)
    ext_samples     : external force on each step, N; None means no drive
    controller      : "off", "derivative", or "chain"
    gain            : unitless g of the derivative controller
    bandpass_quality: quality of the velocity-estimate bandpass
    dac_bits        : optional DAC quantization depth for the chain controller

    A refused value raises ``DomainError("<field> <reason>")``.
    """

    duration: float
    dt: float | None = None
    seed: int = 0
    x0: float = 0.0
    ext_samples: np.ndarray | None = None
    controller: str = "off"
    gain: float = 0.0
    bandpass_quality: float = 10.0
    dac_bits: int | None = None

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise DomainError("duration must be finite and > 0")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise DomainError("dt must be finite and > 0")
        if self.controller not in CONTROLLERS:
            raise DomainError(f"controller must be one of {list(CONTROLLERS)}")
        if self.controller == "derivative" and not self.gain >= 0.0:
            raise DomainError("gain must be >= 0")
        # a non-finite input would spoil a whole block of the recursion
        if not math.isfinite(self.x0):
            raise DomainError("x0 must be finite")
        if (self.ext_samples is not None
                and not np.all(np.isfinite(self.ext_samples))):
            raise DomainError("ext_samples must be finite")
        if not 0.0 < self.bandpass_quality < math.inf:
            raise DomainError("bandpass_quality must be finite and > 0")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must be in [0, 2**64)")
        if self.dac_bits is not None and not self.dac_bits >= 1:
            raise DomainError("dac_bits must be >= 1")
        if self.dac_bits is not None and self.dac_bits > 1023:
            raise DomainError("dac_bits must be <= 1023, so that 2**dac_bits "
                              "is a finite float")

    def resolve_dt(self, res: MechanicalResonator) -> float:
        f0 = res.omega0 / TWO_PI
        dt = self.dt if self.dt is not None else 1.0 / (100.0 * f0)
        if dt > 1.0 / (20.0 * f0):
            raise ConfigError(
                f"dt = {dt:g} s undersamples the oscillation; need "
                f"dt <= {1.0 / (20.0 * f0):g} s (20 samples per period)")
        if self.duration < 100.0 * dt:
            raise ConfigError("duration must cover at least 100 steps")
        return dt


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Uniformly sampled loop record; reproducible from (config, seed)."""

    t: np.ndarray
    x: np.ndarray                    # true position, m
    y: np.ndarray                    # apparent position, m
    feedback_force: np.ndarray       # N
    control_voltage: np.ndarray | None  # V (chain controller only)
    power: np.ndarray | None         # W (chain controller only)
    config: SimConfig

    @property
    def sample_rate(self) -> float:
        return 1.0 / (self.t[1] - self.t[0])


def _external_force(cfg: SimConfig, n: int) -> np.ndarray:
    samples = np.asarray(cfg.ext_samples, dtype=float)
    if samples.size < n:
        raise ConfigError(
            f"ext_samples has {samples.size} samples, run needs {n}")
    return samples[:n]


def _bandpass(res: MechanicalResonator, cfg: SimConfig, dt: float):
    """RBJ constant-peak-gain bandpass at omega0: (b0, b2, a1, a2)."""
    w = res.omega0 * dt
    alpha = math.sin(w) / (2.0 * cfg.bandpass_quality)
    norm = 1.0 + alpha
    return (alpha / norm, -alpha / norm, -2.0 * math.cos(w) / norm,
            (1.0 - alpha) / norm)


def _linear_step(res: MechanicalResonator, cfg: SimConfig, dt: float,
                 force_per_velocity: float, w0: tuple):
    """The loop step as z' = A z + B w, and the state z0 after step 0.

    z = (x, v, y_i, y_{i-1}, s1, s2, F, vel): position, velocity, the last
    two apparent positions, the bandpass states, the force latched for the
    next step and the bandpass output it was set from; w = (f_in, n) of the
    step. Each statement of the loop is a row over (z, w), so A and B are
    the loop written as a matrix. z0 is the warm-up step from rest at x0
    with the inputs w0, and F = 0 latched for step 1 (the force set from
    vel_0 = 0).
    """
    m = res.mass
    w2 = res.omega0 ** 2
    gamma = res.gamma0
    b0, b2, a1, a2 = _bandpass(res, cfg, dt)
    x, v, y1, y2, s1, s2, f_fb, _, f_in, noise = np.eye(10)
    v = v + dt * ((f_in + f_fb) / m - w2 * x - gamma * v)
    x = x + dt * v
    y = x + noise
    u = (y - y2) / (2.0 * dt)
    vel = b0 * u + s1
    step = np.array([x, v, y, y1, -a1 * vel + s2, b2 * u - a2 * vel,
                     force_per_velocity * vel, vel])
    a, b = step[:, :8], step[:, 8:]
    z0 = a[:, 0] * cfg.x0 + b @ w0
    z0[3], z0[4:] = z0[2], 0.0  # y_{-1} = y_0, vel_0 = 0
    return a, b, z0


def _spectral_radius(a: np.ndarray) -> float:
    """Largest |eigenvalue| of the loop matrix A: stable below 1."""
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _chain_map(res: MechanicalResonator, chain: FeedbackChain):
    """The chain's map of vel to force, 2/c P0 cos^2(theta + pi V / Vpi)
    with V = vel times volts per vel: (volts per vel, Vpi, theta, P0, 2/c)."""
    return (chain.dac_gain * TWO_PI / chain.wavelength / res.omega0,
            chain.eoam.half_wave_voltage, chain.eoam.bias_angle,
            chain.eoam.max_power, actuator_gain())


def _stacked_matmul(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix, as one product per _STACK rows.

    OpenBLAS threads a product by its m*n*k: on 2 CPUs a (rows x 7)(7 x 7)
    product ran threaded from 10,700 rows on (2^19), made a 40,000-step run
    no faster, and left about 7 MB of worker buffers in the peak RSS. So
    each product stays below that size, and the scan in `LiftedSystem`
    cuts its own to at most _SERIAL_MNK = 2^18 multiply-adds.
    """
    stacks = rows.reshape(-1, _STACK, rows.shape[1])
    return (stacks @ matrix).reshape(rows.shape[0], matrix.shape[1])


class LiftedSystem:
    """z_{i+1} = A z_i + B w_{i+1}, read out as C z, in blocks of L = _BLOCK
    steps, for input series of n samples.

    Built once from (A, B, C, n): the L-step free response, the forced-response
    kernel of one block, and the scan's jumps A^L, A^2L, A^4L, ..., one per
    pass over the run's blocks. `response` only applies them, so a system
    run many times (the chain loop's relaxation passes) pays the build once.
    It applies the kernel and the free response over chunks of _CHUNK
    stacks of blocks, and the scan over all blocks' end states at once: its
    working memory is the output, the end states (2 bytes per step) and one
    chunk's scratch. The chunks issue the products an unchunked run would,
    so the output is bit-identical for any chunk size.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int):
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
        self._n, self._n_in, self._n_out = n, b.shape[1], n_out
        self._blocks = _STACK * -(-n // (size * _STACK))
        self._free = (c @ powers[1:]).reshape(n_out * size, nz).T
        self._kernel = np.concatenate((forced.reshape(n_out * size, -1), carry)).T
        # all but the first squared in np.longdouble (80-bit on x86-64):
        # squared in float64 through a non-normal loop matrix, the q100
        # derivative traces drifted by 6.5e-11 of their rms, not 2.6e-12
        self._jumps = [powers[size]]
        square = powers[size].astype(np.longdouble)
        for _ in range(1, (self._blocks - 1).bit_length()):
            square = square @ square
            self._jumps.append(square.astype(float))

    def response(self, z0: np.ndarray, w: tuple | np.ndarray) -> np.ndarray:
        """Rows C z_1 .. C z_n from the start state z0 and w, one series of
        n samples per input.

        The inputs are zero-padded to whole stacks of blocks and run in
        chunks of _CHUNK stacks: one matmul per chunk gives its blocks'
        forced responses, written to the output, and their end-state
        increments e_k; a doubling scan over the whole run solves
        s_{k+1} = A^L s_k + e_k for the block start states; and a second
        matmul per chunk adds each block's free response.
        """
        size, n_out, n, blocks = _BLOCK, self._n_out, self._n, self._blocks
        if any(len(series) != n for series in w):
            raise ValueError(f"the system is built for series of {n} samples")
        chunk = _CHUNK * _STACK  # blocks per chunk
        out = np.empty((blocks, n_out * size))
        ends = np.empty((self._free.shape[0], blocks))
        for lo in range(0, blocks, chunk):
            hi = min(blocks, lo + chunk)
            padded = np.zeros(((hi - lo) * size, self._n_in))
            for j, series in enumerate(w):
                part = series[lo * size:hi * size]
                padded[:len(part), j] = part
            response = _stacked_matmul(padded.reshape(hi - lo, -1),
                                       self._kernel)
            out[lo:hi] = response[:, :n_out * size]
            ends[:, lo:hi] = response[:, n_out * size:].T
        del padded, response  # not held through the scan
        # Hillis-Steele scan: after the pass with stride d and J = A^{L d},
        # column k holds sum_{j > k-2d} A^{L(k-j)} e_j, with e_0 += A^L z0,
        # so at the end column k is the end state s_{k+1} of block k
        ends[:, 0] += self._jumps[0] @ z0
        columns = max(1, _SERIAL_MNK // self._jumps[0].size)  # per product
        stride = 1
        for jump in self._jumps:
            # e_k += J e_{k-stride}, `columns` at a time from the last column
            # down, so each product reads only columns not yet updated
            for hi in range(blocks, stride, -columns):
                lo = max(stride, hi - columns)
                ends[:, lo:hi] += jump @ ends[:, lo - stride:hi - stride]
            stride *= 2
        for lo in range(0, blocks, chunk):
            hi = min(blocks, lo + chunk)
            starts = np.empty((hi - lo, z0.size))
            starts[0] = ends[:, lo - 1] if lo else z0
            starts[1:] = ends[:, lo:hi - 1].T
            out[lo:hi] += _stacked_matmul(starts, self._free)
        return out.reshape(blocks * size, n_out)[:n]


def simulate(cfg: SimConfig, res: MechanicalResonator,
             chain: FeedbackChain | None = None,
             hli: HliReadout | None = None) -> SimTrace:
    """Integrate the loop and return the trace.

    The apparent position carries white imprecision of density
    ``hli.imprecision_psd``; without ``hli`` the readout is noiseless.
    Raises ``ConfigError`` when the derivative loop is unstable, and
    ``DivergenceError`` when |x| exceeds one million times the initial bound
    (the larger of |x0| and the equilibrium thermal rms).
    """
    dt = cfg.resolve_dt(res)
    n = int(round(cfg.duration / dt))
    fs = 1.0 / dt

    if cfg.controller == "chain" and chain is None:
        raise ConfigError("chain controller requires a FeedbackChain")

    # independent seeded streams, one draw block per stream, each scaled in
    # place; every array below is dropped once dead, to bound the memory
    if res.temperature > 0.0:
        sigma_f = math.sqrt(res.thermal_force_psd(res.omega0) * fs / 2.0)
        f_in = stream_rng(cfg.seed, STREAM_THERMAL).standard_normal(n)
        f_in *= sigma_f
    else:
        f_in = np.zeros(n)
    if hli is not None:
        sigma_y = math.sqrt(hli.imprecision_psd * fs / 2.0)
        noise_y = stream_rng(cfg.seed, STREAM_IMPRECISION).standard_normal(n)
        noise_y *= sigma_y
    else:
        noise_y = np.zeros(n)
    if cfg.ext_samples is not None:
        f_in += _external_force(cfg, n)

    thermal_rms = math.sqrt(open_loop_thermal_variance(res))
    bound = 1.0e6 * max(abs(cfg.x0), thermal_rms, 1.0e-12)

    if cfg.controller == "chain":
        x_out, v_out, p_out = (
            _relaxed_chain(cfg, res, chain, dt, f_in, noise_y)
            or _chain_loop(cfg, res, chain, dt, bound, f_in, noise_y))
        del f_in
        # the force set at step i acts during step i + 1
        f_out = np.concatenate(([0.0], actuator_gain() * p_out[:-1]))
    else:
        force_per_velocity = (-res.mass * cfg.gain * res.gamma0
                              if cfg.controller == "derivative" else 0.0)
        a, b, z0 = _linear_step(res, cfg, dt, force_per_velocity,
                                (f_in[0], noise_y[0]))
        # without feedback A is the bare oscillator: stable when damped and
        # marginal (radius 1) when lossless, a run the recursion still carries
        if force_per_velocity != 0.0:
            radius = _spectral_radius(a)
            if not radius < 1.0:
                raise ConfigError(
                    f"derivative loop unstable at gain = {cfg.gain:g}, "
                    f"bandpass_quality = {cfg.bandpass_quality:g}: "
                    f"spectral radius {radius:.6g} >= 1")
        out = LiftedSystem(a, b, np.eye(8)[[0, 6]], n - 1).response(
            z0, (f_in[1:], noise_y[1:]))
        del f_in
        x_out = np.concatenate(([z0[0]], out[:, 0]))
        f_out = np.concatenate(([0.0, z0[6]], out[:-1, 1]))
        del out
        v_out = p_out = None
    outside = np.flatnonzero(~((-bound < x_out) & (x_out < bound)))
    if outside.size:
        raise DivergenceError(
            f"|x| exceeded {bound:.3g} m at step {outside[0]}")

    y = noise_y
    y += x_out
    t = np.arange(n, dtype=float)
    t *= dt
    return SimTrace(t=t, x=x_out, y=y, feedback_force=f_out,
                    control_voltage=v_out, power=p_out, config=cfg)


def _relaxed_chain(cfg: SimConfig, res: MechanicalResonator,
                   chain: FeedbackChain, dt: float, f_in: np.ndarray,
                   noise_y: np.ndarray):
    """The smooth chain loop's (x, V, P) by waveform relaxation, or None
    where `_chain_loop` has to step it.

    The loop is the linear one at the modulator's bias slope k, driven by
    the force q_i = phi(vel_i) - k vel_i beyond that slope, where phi is
    `_chain_loop`'s DAC, cos^2 modulator and radiation pressure; q_i acts in
    step i + 1 as f_in does, q_0 = phi(0) from vel_0 = 0. Each pass runs the
    loop's one lifted system on f_in + q from the previous pass's vel (the
    first with vel = 0), until q moves by at most _SETTLE of the force scale
    2 P0 / c, and the settling pass's x and modulator power are the
    trace's. None for a quantised DAC, for a linear loop with spectral
    radius >= 1, and once an update is not finite, does not shrink, or,
    shrinking by its ratio to the one before on each pass left of
    _MAX_PASSES, cannot reach _SETTLE: where the passes converge that
    slowly, stepping is the faster path.
    """
    if cfg.dac_bits is not None:
        return None
    volt_per_velocity, vpi, theta, p0, rp = _chain_map(res, chain)
    slope = -rp * chain.eoam.gain() * volt_per_velocity
    a, b, z0 = _linear_step(res, cfg, dt, slope, (f_in[0], noise_y[0]))
    if not _spectral_radius(a) < 1.0:
        return None

    def power(volt):
        return p0 * np.cos(theta + np.pi * volt / vpi) ** 2

    system = LiftedSystem(a, b, np.eye(8)[[0, 7]], f_in.size - 1)
    q = np.full(f_in.size, rp * (p0 * math.cos(theta) ** 2))  # q_i from vel_i
    tol = _SETTLE * rp * p0
    last = math.inf
    with np.errstate(all="ignore"):
        for left in reversed(range(_MAX_PASSES)):
            x = vel = p = q_next = None  # the last pass's, freed first
            x, vel = system.response(z0, (f_in[1:] + q[:-1], noise_y[1:])).T
            p = power(volt_per_velocity * vel)
            q_next = rp * p - slope * vel
            update = float(np.max(np.abs(q_next - q[1:])))
            if update <= tol:
                break
            # the update, shrinking by its last ratio on each pass left
            if not (update < last
                    and update * (update / last) ** left <= tol):
                return None
            last, q[1:] = update, q_next
    volt = volt_per_velocity * np.concatenate(([0.0], vel))
    return (np.concatenate(([z0[0]], x)), volt,
            np.concatenate((power(volt[:1]), p)))


def _chain_loop(cfg: SimConfig, res: MechanicalResonator,
                chain: FeedbackChain, dt: float, bound: float,
                f_in: np.ndarray, noise_y: np.ndarray):
    """Step the chain controller sample by sample into (x, V, P): the path
    for a quantised DAC and for the loops `_relaxed_chain` refuses, and the
    reference its tests compare with."""
    n = f_in.size
    w2 = res.omega0 ** 2
    gamma = res.gamma0
    b0, b2, a1, a2 = _bandpass(res, cfg, dt)
    inv_2dt = 1.0 / (2.0 * dt)
    volt_per_velocity, vpi, theta, p0, rp = _chain_map(res, chain)
    lsb = vpi / 2 ** cfg.dac_bits if cfg.dac_bits is not None else None

    f_in_l = f_in.tolist()
    noise_y_l = noise_y.tolist()
    inv_m = 1.0 / res.mass
    neg_a1 = -a1
    cos, pi = math.cos, math.pi
    x = float(cfg.x0)
    v = 0.0
    s1 = s2 = 0.0  # transposed direct form II states
    # step 0 (warm-up): no force yet, vel_0 = 0 without stepping the
    # bandpass, y_{-1} = y_0
    v += dt * (f_in_l[0] * inv_m - w2 * x - gamma * v)
    x += dt * v
    if not -bound < x < bound:
        raise DivergenceError(f"|x| exceeded {bound:.3g} m at step 0")
    y1 = y2 = x + noise_y_l[0]
    volt = volt_per_velocity * 0.0
    if lsb is not None:
        volt = round(volt / lsb) * lsb
    power = p0 * cos(theta + pi * volt / vpi) ** 2
    x_out, v_out, p_out = np.empty((3, n))
    x_out[0], v_out[0], p_out[0] = x, volt, power
    # steps go to lists, one array store per _CHAIN_STORE steps: a list
    # append is cheaper than an array item store, and the lists' float
    # objects stay few
    for lo in range(1, n, _CHAIN_STORE):
        hi = min(n, lo + _CHAIN_STORE)
        xs, volts, powers = [], [], []
        for i in range(lo, hi):
            f_fb = rp * power
            v += dt * ((f_in_l[i] + f_fb) * inv_m - w2 * x - gamma * v)
            x += dt * v
            if not -bound < x < bound:
                raise DivergenceError(
                    f"|x| exceeded {bound:.3g} m at step {i}")
            xs.append(x)
            y = x + noise_y_l[i]
            u = (y - y2) * inv_2dt
            vel = b0 * u + s1
            s1 = neg_a1 * vel + s2
            s2 = b2 * u - a2 * vel
            y2 = y1
            y1 = y
            volt = volt_per_velocity * vel
            if lsb is not None:
                volt = round(volt / lsb) * lsb
            power = p0 * cos(theta + pi * volt / vpi) ** 2
            volts.append(volt)
            powers.append(power)
        x_out[lo:hi], v_out[lo:hi], p_out[lo:hi] = xs, volts, powers
    return x_out, v_out, p_out


@dataclass(frozen=True)
class MonteCarloResult:
    """Across-seed steady-state variance statistics."""

    mean: float            # m^2
    ci_halfwidth: float    # 95 percent, normal approximation
    per_seed: tuple        # per-seed steady-state variances
    stationary: bool       # False when the steady window still drifts


def _steady_window(trace: SimTrace) -> np.ndarray:
    """The second half of the trace: the transient is discarded."""
    return trace.x[trace.x.size // 2:]


def steady_state_variance(trace: SimTrace) -> float:
    """Variance of the steady-state window of the trace."""
    return float(np.var(_steady_window(trace)))


def monte_carlo_variance(cfg: SimConfig, res: MechanicalResonator,
                         n_seeds: int,
                         chain: FeedbackChain | None = None,
                         hli: HliReadout | None = None) -> MonteCarloResult:
    """Steady-state variance over ``n_seeds`` independent runs.

    Seeds are cfg.seed, cfg.seed + 1, ... The per-seed estimate uses the
    second half of each trace; the run must last at least 20 closed-loop
    relaxation times so that window is stationary. Stationarity is checked
    by splitting the steady window into quarters and comparing their
    across-seed means at three standard errors.
    """
    if n_seeds < 10:
        raise ConfigError("n_seeds must be >= 10")
    gamma = res.gamma0
    if cfg.controller == "derivative":
        g = cfg.gain
    elif cfg.controller == "chain":
        g = chain.gain_factor(res) if chain is not None else 0.0
    else:
        g = 0.0
    min_duration = 20.0 / ((1.0 + g) * gamma)
    if cfg.duration < min_duration:
        raise ConfigError(
            f"duration {cfg.duration:g} s too short for stationarity; "
            f"need >= {min_duration:g} s at g = {g:g}")

    # one trace alive at a time; per seed, the variance of the steady window
    # (steady_state_variance's value) and of its two halves
    variances, q3, q4 = np.empty((3, n_seeds))
    for k in range(n_seeds):
        tail = _steady_window(simulate(replace(cfg, seed=cfg.seed + k), res,
                                       chain=chain, hli=hli))
        half = tail.size // 2
        variances[k] = np.var(tail)
        q3[k] = np.var(tail[:half])
        q4[k] = np.var(tail[half:])

    mean = float(np.mean(variances))
    sem = float(np.std(variances, ddof=1) / math.sqrt(n_seeds))
    drift = abs(float(np.mean(q3) - np.mean(q4)))
    drift_sem = math.sqrt((np.var(q3, ddof=1) + np.var(q4, ddof=1)) / n_seeds)
    stationary = bool(drift <= 3.0 * drift_sem) if drift_sem > 0 else True
    return MonteCarloResult(mean=mean, ci_halfwidth=1.96 * sem,
                            per_seed=tuple(variances.tolist()),
                            stationary=stationary)

"""Experiment configuration: sectioned key = value text with unit suffixes.

Unit errors are the dominant failure mode in this domain, so every physical
value in a config file must carry a unit suffix from the key's allowed set
(e.g. ``frequency = 4.72 Hz``, ``mass = 2.6 g``). Resonance and damping
frequencies convert to angular units internally; plain-frequency keys
(corners, tuning ranges) stay in Hz. Unknown sections or keys are rejected
and missing required keys are reported with their full path. The resolved
SI values are echoed into every output artifact.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .cascade import CascadeConfig
from .constants import TWO_PI
from .errors import ConfigError
from .feedback import Eoam, FeedbackChain, max_dac_gain
from .readout import FpiReadout, HliReadout
from .resonator import MechanicalResonator
from .simulate import PRESET_QUALITIES, SimConfig, preset_resonator

# suffix -> factor, per quantity kind; angular kinds store rad/s. The
# factor-1.0 suffix of each kind is its SI label in `ExperimentConfig.echo`.
_UNITS = {
    "mass": {"kg": 1.0, "g": 1e-3, "mg": 1e-6},
    "angular_frequency": {"rad/s": 1.0, "Hz": TWO_PI, "mHz": TWO_PI * 1e-3,
                          "uHz": TWO_PI * 1e-6},
    "plain_frequency": {"Hz": 1.0, "mHz": 1e-3, "kHz": 1e3, "MHz": 1e6,
                        "GHz": 1e9},
    "length": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9, "pm": 1e-12},
    "temperature": {"K": 1.0},
    "voltage": {"V": 1.0, "kV": 1e3, "mV": 1e-3},
    "power": {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "kW": 1e3},
    "angle": {"rad": 1.0, "deg": math.pi / 180.0},
    "time": {"s": 1.0, "ms": 1e-3, "min": 60.0, "hour": 3600.0,
             "day": 86400.0},
    "displacement_asd": {"m/rtHz": 1.0},
    "frequency_asd": {"Hz/rtHz": 1.0},
    "force_psd": {"N^2/Hz": 1.0},
    "dac_gain": {"V/rad": 1.0},
}

_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    kind: str                    # a _UNITS kind, "number", "integer", or "choice"
    default: object = _REQUIRED
    choices: tuple = ()
    allow_auto: bool = False     # literal "auto" resolves later


_SCHEMA = {
    "resonator": {
        "mass": _Key("mass"),
        "frequency": _Key("angular_frequency"),
        "q_internal": _Key("number"),
        "viscous_rate": _Key("angular_frequency", default=0.0),
        "temperature": _Key("temperature"),
        "loss_exponent": _Key("number", default=0.0),
    },
    "fpi": {
        "cavity_length": _Key("length"),
        "wavelength": _Key("length"),
        "tuning_range": _Key("plain_frequency"),
        "finesse": _Key("number", default=1000.0),
        "readout_noise_asd": _Key("frequency_asd", default=0.0),
    },
    "hli": {
        "wavelength": _Key("length"),
        "imprecision_asd": _Key("displacement_asd"),
        "lpf_corner": _Key("plain_frequency", default=500.0),
        "heterodyne_frequency": _Key("plain_frequency", default=1e4),
    },
    "chain": {
        "half_wave_voltage": _Key("voltage"),
        "max_power": _Key("power"),
        "bias_angle": _Key("angle", default=math.pi / 4.0),
        "damage_threshold": _Key("power", default=0.1),
        "dac_gain": _Key("dac_gain", default="auto", allow_auto=True),
        "displacement_span": _Key("length", default=200e-6),
    },
    "cooling": {
        "gain": _Key("number", default=0.0),
        "external_force_psd": _Key("force_psd", default=0.0),
    },
    "cascade": {
        "initial_gain": _Key("number", default=1.0),
        "power": _Key("power", default="auto", allow_auto=True),
        "n_settle": _Key("number", default=7.0),
        "safety_factor": _Key("number", default=5.0),
        "termination": _Key("choice", default="gain",
                            choices=("gain", "handover")),
        "max_stages": _Key("integer", default=64),
        "initial_span": _Key("length", default=200e-6),
        "target_gain": _Key("number", default="auto", allow_auto=True),
        "fpi_imprecision_asd": _Key("displacement_asd", default=0.0),
    },
    "sim": {
        "preset": _Key("choice", default="q100",
                       choices=("q100", "q1e3", "q1e5", "none")),
        "duration": _Key("time", default=300.0),
        "dt": _Key("time", default="auto", allow_auto=True),
        "seed": _Key("integer", default=12345),
        "controller": _Key("choice", default="off",
                           choices=("off", "derivative", "chain")),
        "gain": _Key("number", default=0.0),
        "bandpass_quality": _Key("number", default=10.0),
        "dac_bits": _Key("integer", default="none", allow_auto=True),
        "initial_position": _Key("length", default=0.0),
    },
}

DEFAULT_CONFIG = """\
# Default parameters: 2.6 g fused-silica flexure resonator with dual
# optical readout and a radiation-pressure feedback chain.

[resonator]
mass = 2.6 g
frequency = 4.72 Hz
q_internal = 4.77e5
viscous_rate = 0 rad/s
temperature = 300 K
loss_exponent = 0

[fpi]
cavity_length = 50 mm
wavelength = 1064 nm
tuning_range = 10 GHz
finesse = 1000
readout_noise_asd = 0 Hz/rtHz

[hli]
wavelength = 1064 nm
imprecision_asd = 5e-12 m/rtHz
lpf_corner = 500 Hz
heterodyne_frequency = 10 kHz

[chain]
half_wave_voltage = 200 V
max_power = 1.16 mW
bias_angle = 45 deg
damage_threshold = 100 mW
dac_gain = auto
displacement_span = 200 um

[cooling]
gain = 0
external_force_psd = 0 N^2/Hz

[cascade]
initial_gain = 1
power = auto
n_settle = 7
safety_factor = 5
termination = gain
max_stages = 64
initial_span = 200 um
target_gain = auto
fpi_imprecision_asd = 0 m/rtHz

[sim]
preset = q100
duration = 300 s
dt = auto
seed = 12345
controller = off
gain = 0
bandpass_quality = 10
dac_bits = none
initial_position = 0 m
"""


def _parse_value(section: str, key: str, raw: str, spec: _Key):
    path = f"{section}.{key}"
    raw = raw.strip()
    if spec.allow_auto and raw in ("auto", "none"):
        return raw
    if spec.kind == "choice":
        if raw not in spec.choices:
            raise ConfigError(
                f"{path}: {raw!r} is not one of {list(spec.choices)}")
        return raw
    if spec.kind == "integer":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: expected an integer, got {raw!r}") from exc
    if spec.kind == "number":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{path}: expected a bare number, got {raw!r}") from exc
    units = _UNITS[spec.kind]
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigError(
            f"{path}: expected '<number> <unit>' with unit in "
            f"{sorted(units)}, got {raw!r}")
    num, suffix = parts
    if suffix not in units:
        raise ConfigError(
            f"{path}: unit {suffix!r} not allowed; use one of {sorted(units)}")
    try:
        return float(num) * units[suffix]
    except ValueError as exc:
        raise ConfigError(f"{path}: bad number {num!r}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration (SI values, angular frequencies)."""

    values: dict
    source: str  # file path or "builtin-default"

    def get(self, section: str, key: str):
        return self.values[section][key]

    def echo(self) -> list:
        """Deterministic 'section.key = value unit' lines for artifact headers."""
        lines = [f"config = {self.source}"]
        for section in _SCHEMA:
            for key, spec in _SCHEMA[section].items():
                val = self.values[section][key]
                if isinstance(val, str):
                    rendered = val
                elif spec.kind in _UNITS:
                    si = next(u for u, f in _UNITS[spec.kind].items() if f == 1.0)
                    rendered = f"{val!r} {si}"
                else:
                    rendered = repr(val)
                lines.append(f"{section}.{key} = {rendered}")
        return lines

    # -- model builders -------------------------------------------------

    def resonator(self) -> MechanicalResonator:
        r = self.values["resonator"]
        return MechanicalResonator(
            mass=r["mass"], omega0=r["frequency"],
            q_internal=r["q_internal"], gamma_viscous=r["viscous_rate"],
            temperature=r["temperature"], loss_exponent=r["loss_exponent"])

    def fpi(self) -> FpiReadout:
        f = self.values["fpi"]
        noise = f["readout_noise_asd"] or None
        return FpiReadout(cavity_length=f["cavity_length"],
                          wavelength=f["wavelength"],
                          tuning_range=f["tuning_range"],
                          finesse=f["finesse"], readout_noise=noise)

    def hli(self) -> HliReadout:
        h = self.values["hli"]
        hli = HliReadout(wavelength=h["wavelength"],
                         imprecision_asd=h["imprecision_asd"],
                         lpf_corner=h["lpf_corner"],
                         heterodyne_frequency=h["heterodyne_frequency"])
        corner_ratio = hli.lpf_corner / (self.get("resonator", "frequency") / TWO_PI)
        if corner_ratio < 100.0:
            raise ConfigError(
                "hli.lpf_corner: phasemeter corner must sit at least 100x "
                f"above the resonance ({corner_ratio:.1f}x configured)")
        return hli

    def chain(self) -> FeedbackChain:
        c = self.values["chain"]
        eoam = Eoam(half_wave_voltage=c["half_wave_voltage"],
                    max_power=c["max_power"], bias_angle=c["bias_angle"],
                    damage_threshold=c["damage_threshold"])
        dac = c["dac_gain"]
        if isinstance(dac, str):
            dac = max_dac_gain(c["half_wave_voltage"],
                               self.get("hli", "wavelength"),
                               c["displacement_span"])
        return FeedbackChain(eoam=eoam, dac_gain=dac,
                             wavelength=self.get("hli", "wavelength"))

    def imprecision_psd(self) -> float:
        return self.get("hli", "imprecision_asd") ** 2

    def external_force_psd(self):
        val = self.get("cooling", "external_force_psd")
        return val if val > 0.0 else None

    def cascade_config(self) -> CascadeConfig:
        c = self.values["cascade"]
        fpi_psd = c["fpi_imprecision_asd"] ** 2 or None
        return CascadeConfig(
            initial_gain=c["initial_gain"],
            power=None if isinstance(c["power"], str) else c["power"],
            n_settle=c["n_settle"], safety_factor=c["safety_factor"],
            termination=c["termination"], max_stages=c["max_stages"],
            initial_span=c["initial_span"],
            target_gain=(None if isinstance(c["target_gain"], str)
                         else c["target_gain"]),
            fpi_imprecision_psd=fpi_psd)

    def sim_resonator(self) -> MechanicalResonator:
        res = self.resonator()
        preset = self.get("sim", "preset")
        if preset == "none":
            return res
        return preset_resonator(res, PRESET_QUALITIES[preset])

    def sim_config(self, seed: int | None = None) -> SimConfig:
        s = self.values["sim"]
        return SimConfig(
            duration=s["duration"],
            dt=None if isinstance(s["dt"], str) else s["dt"],
            seed=s["seed"] if seed is None else seed,
            x0=s["initial_position"],
            controller=s["controller"], gain=s["gain"],
            bandpass_quality=s["bandpass_quality"],
            dac_bits=None if isinstance(s["dac_bits"], str) else s["dac_bits"])


def parse_config(text: str, source: str = "builtin-default") -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    values = {}
    for section, keys in _SCHEMA.items():
        values[section] = {}
        for key, spec in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                values[section][key] = _parse_value(section, key, raw, spec)
            elif spec.default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                values[section][key] = spec.default
    return ExperimentConfig(values=values, source=source)


def load_config(path=None) -> ExperimentConfig:
    """Load a config file; None loads the built-in default parameters."""
    if path is None:
        return parse_config(DEFAULT_CONFIG, "builtin-default")
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, str(path))

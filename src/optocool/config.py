"""Experiment configuration: sectioned key = value text with unit suffixes.

Unit errors are the dominant failure mode in this domain, so every physical
value in a config file must carry a unit suffix from the key's allowed set
(e.g. ``frequency = 4.72 Hz``, ``mass = 2.6 g``). Resonance and damping
frequencies convert to angular units internally; plain-frequency keys
(corners, tuning ranges) stay in Hz. Unknown sections or keys are rejected
and missing required keys are reported with their full path. The resolved
SI values, finite but for an infinite Q, are echoed into every artifact.

``_SCHEMA`` is the one statement of each key, its default and its allowed
words; ``DEFAULT_CONFIG`` is generated from it, and a key a file leaves out
is parsed from its schema default exactly like a value from a file. Each
model is built from its section's values by `ExperimentConfig._build`, so
a value the model refuses reads ``<section>.<key>: <reason>, got <value>``.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

from .cascade import TERMINATE_GAIN, TERMINATE_HANDOVER, CascadeConfig
from .constants import TWO_PI
from .errors import ConfigError, DomainError
from .feedback import Eoam, FeedbackChain, max_dac_gain
from .readout import FpiReadout, HliReadout
from .resonator import MechanicalResonator
from .simulate import CONTROLLERS, PRESET_QUALITIES, SimConfig, preset_resonator

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

# a key whose default is one of these words accepts either; both parse to None
_SENTINELS = ("auto", "none")


@dataclass(frozen=True)
class _Key:
    kind: str          # a _UNITS kind, "number", "gain", "integer", or
                       # "choice"; gains and noise densities are finite, >= 0,
                       # and an ASD's square is finite
    default: str       # exactly as DEFAULT_CONFIG writes it
    choices: tuple = ()
    required: bool = False
    infinite: bool = False  # whether inf is a value (a loss-free Q)


_SCHEMA = {
    "resonator": {
        "mass": _Key("mass", "2.6 g", required=True),
        "frequency": _Key("angular_frequency", "4.72 Hz", required=True),
        "q_internal": _Key("number", "4.77e5", required=True, infinite=True),
        "viscous_rate": _Key("angular_frequency", "0 rad/s"),
        "temperature": _Key("temperature", "300 K", required=True),
        "loss_exponent": _Key("number", "0"),
    },
    "fpi": {
        "cavity_length": _Key("length", "50 mm", required=True),
        "wavelength": _Key("length", "1064 nm", required=True),
        "tuning_range": _Key("plain_frequency", "10 GHz", required=True),
        "finesse": _Key("number", "1000"),
        "readout_noise_asd": _Key("frequency_asd", "0 Hz/rtHz"),
    },
    "hli": {
        "wavelength": _Key("length", "1064 nm", required=True),
        "imprecision_asd": _Key("displacement_asd", "5e-12 m/rtHz", required=True),
        "lpf_corner": _Key("plain_frequency", "500 Hz"),
        "heterodyne_frequency": _Key("plain_frequency", "10 kHz"),
    },
    "chain": {
        "half_wave_voltage": _Key("voltage", "200 V", required=True),
        "max_power": _Key("power", "1.16 mW", required=True),
        "bias_angle": _Key("angle", "45 deg"),
        "damage_threshold": _Key("power", "100 mW"),
        "dac_gain": _Key("dac_gain", "auto"),
        "displacement_span": _Key("length", "200 um"),
    },
    "cooling": {
        "gain": _Key("gain", "0"),
        "external_force_psd": _Key("force_psd", "0 N^2/Hz"),
    },
    "cascade": {
        "initial_gain": _Key("gain", "1"),
        "power": _Key("power", "auto"),
        "n_settle": _Key("number", "7"),
        "safety_factor": _Key("number", "5"),
        "termination": _Key("choice", TERMINATE_GAIN,
                            (TERMINATE_GAIN, TERMINATE_HANDOVER)),
        "max_stages": _Key("integer", "64"),
        "initial_span": _Key("length", "200 um"),
        "target_gain": _Key("gain", "auto"),
    },
    "sim": {
        "preset": _Key("choice", "q100", (*PRESET_QUALITIES, "none")),
        "duration": _Key("time", "300 s"),
        "dt": _Key("time", "auto"),
        "seed": _Key("integer", "12345"),
        "controller": _Key("choice", "off", CONTROLLERS),
        "gain": _Key("gain", "0"),
        "bandpass_quality": _Key("number", "10"),
        "dac_bits": _Key("integer", "none"),
        "initial_position": _Key("length", "0 m"),
    },
}

DEFAULT_CONFIG = (
    "# Default parameters: 2.6 g fused-silica flexure resonator with dual\n"
    "# optical readout and a radiation-pressure feedback chain.\n"
    + "".join(f"\n[{section}]\n"
              + "".join(f"{key} = {spec.default}\n" for key, spec in keys.items())
              for section, keys in _SCHEMA.items()))


def _parse_value(section: str, key: str, raw: str, spec: _Key):
    path = f"{section}.{key}"
    raw = raw.strip()
    if spec.default in _SENTINELS and raw in _SENTINELS:
        return None
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
    if spec.kind in ("number", "gain"):
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{path}: expected a bare number, got {raw!r}") from exc
    else:
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
            value = float(num) * units[suffix]
        except ValueError as exc:
            raise ConfigError(f"{path}: bad number {num!r}") from exc
    if (spec.kind in ("gain", "displacement_asd", "frequency_asd", "force_psd")
            and not 0.0 <= value < math.inf):
        raise ConfigError(f"{path}: {spec.kind} must be finite and >= 0, got {raw!r}")
    if spec.kind.endswith("_asd") and not math.isfinite(value * value):
        raise ConfigError(f"{path}: an ASD must have a finite square, got {raw!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration (SI values, angular frequencies)."""

    values: dict
    source: str  # file path or "builtin-default"

    def get(self, section: str, key: str):
        return self.values[section][key]

    def echo(self) -> list:
        """Deterministic 'section.key = value unit' lines for artifact
        headers; a nan or infinite value, but an infinite Q, is refused."""
        lines = [f"config = {self.source}"]
        for section in _SCHEMA:
            for key, spec in _SCHEMA[section].items():
                val = self.values[section][key]
                if isinstance(val, float) and not (math.isfinite(val) or (
                        spec.infinite and val == math.inf)):
                    raise ConfigError(
                        f"{section}.{key}: must be finite, got {val!r}")
                if val is None:
                    rendered = spec.default
                elif spec.kind in _UNITS:
                    si = next(u for u, f in _UNITS[spec.kind].items() if f == 1.0)
                    rendered = f"{val!r} {si}"
                else:
                    rendered = str(val)
                lines.append(f"{section}.{key} = {rendered}")
        return lines

    # -- model builders -------------------------------------------------

    def _build(self, section: str, model, **names):
        """model of the section's values, each passed as the argument its
        key names, or as ``names[key]`` where the two differ; a key named
        None is not passed. A refusal ``DomainError("<argument> <reason>")``
        becomes ``ConfigError("<section>.<key>: <reason>, got <value>")``;
        one that names no key passes through."""
        values = self.values[section]
        names = {key: names.get(key, key) for key in values}
        try:
            return model(**{name: values[key] for key, name in names.items()
                            if name is not None})
        except DomainError as exc:
            field, reason = str(exc).split(" ", 1)
            key = next((k for k, name in names.items() if name == field), None)
            if key is None:
                raise
            raise ConfigError(
                f"{section}.{key}: {reason}, got {values[key]!r}") from exc

    def resonator(self) -> MechanicalResonator:
        r = self.values["resonator"]
        if r["q_internal"] == math.inf and r["viscous_rate"] == 0.0:
            raise ConfigError("resonator.q_internal: an infinite Q needs "
                              "viscous_rate > 0, or nothing damps the mass")
        return self._build("resonator", MechanicalResonator,
                           frequency="omega0", viscous_rate="gamma_viscous")

    def fpi(self) -> FpiReadout:
        return self._build("fpi", FpiReadout,
                           readout_noise_asd="readout_noise")

    def hli(self) -> HliReadout:
        hli = self._build("hli", HliReadout)
        corner_ratio = hli.lpf_corner / (self.get("resonator", "frequency") / TWO_PI)
        if corner_ratio < 100.0:
            raise ConfigError(
                "hli.lpf_corner: phasemeter corner must sit at least 100x "
                f"above the resonance ({corner_ratio:.1f}x configured)")
        return hli

    def chain(self) -> FeedbackChain:
        wavelength = self.hli().wavelength

        def build(half_wave_voltage, max_power, bias_angle, damage_threshold,
                  dac_gain, x_pp):
            eoam = Eoam(half_wave_voltage, max_power, bias_angle,
                        damage_threshold)
            if dac_gain is None:
                dac_gain = max_dac_gain(half_wave_voltage, wavelength, x_pp)
            return FeedbackChain(eoam, dac_gain, wavelength)

        return self._build("chain", build, displacement_span="x_pp")

    def imprecision_psd(self) -> float:
        return self.hli().imprecision_psd

    def cascade_config(self) -> CascadeConfig:
        cascade = self._build("cascade", CascadeConfig)
        # the planner re-powers the chain's modulator at cascade.power
        threshold = self.get("chain", "damage_threshold")
        if cascade.power is not None and cascade.power > threshold:
            raise ConfigError(
                "cascade.power: must be <= chain.damage_threshold = "
                f"{threshold!r}, got {cascade.power!r}")
        return cascade

    def sim_resonator(self) -> MechanicalResonator:
        res = self.resonator()
        preset = self.get("sim", "preset")
        if preset == "none":
            return res
        return preset_resonator(res, PRESET_QUALITIES[preset])

    def sim_config(self, seed: int | None = None) -> SimConfig:
        """The [sim] run; ``seed`` (the CLI's ``--seed``) overrides it."""
        sim = self._build("sim", SimConfig, initial_position="x0", preset=None)
        if seed is None:
            return sim
        try:
            return replace(sim, seed=seed)
        except DomainError as exc:
            reason = str(exc).split(" ", 1)[1]
            raise ConfigError(f"--seed: {reason}, got {seed!r}") from exc


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
            if spec.required and not parser.has_option(section, key):
                raise ConfigError(f"missing required key {section}.{key}")
            raw = parser.get(section, key, fallback=spec.default)
            values[section][key] = _parse_value(section, key, raw, spec)
    return ExperimentConfig(values=values, source=source)


def load_config(path=None) -> ExperimentConfig:
    """Load a config file; None loads the built-in default parameters."""
    if path is None:
        return parse_config(DEFAULT_CONFIG, "builtin-default")
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, str(path))

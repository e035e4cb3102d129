"""Line-oriented scenario configuration: parse, validate, render.

The format is INI-shaped: `[section]` headers, `key = value` lines, `#`
comments. Parsing is hand-rolled so every diagnostic can name the offending
key and line, and so duplicate keys can follow the documented last-wins rule
while still leaving a warning for the run summary. An empty file is valid and
yields the default 60 GHz profile with the canonical point-target scene.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigError, ParameterError
from .fxp import FixedPointFormat, FxpMode
from .params import PulseShape, WaveformParams
from .scene import PathLoss
from .waveform import ScheduleKind

_SECTIONS: dict[str, set[str]] = {
    "radar": {
        "carrier_freq_hz",
        "bandwidth_hz",
        "pri_s",
        "cpi_s",
        "packets",
        "code_length",
        "amplitude",
        "pulse_shape",
        "pulse_rolloff",
        "chirp_duration_s",
    },
    "run": {"waveforms", "output_dir", "oracle"},
    "scene": {
        "target",
        "position_m",
        "velocity_mps",
        "radial_speed_mps",
        "rcs_dbsm",
        "scatterer_count",
        "snr_db",
        "path_loss",
        "seed_code",
        "seed_noise",
        "seed_scene",
    },
    "doppler": {"bins"},
    "fixedpoint": {"formats", "mode"},
    "benchmark": {"enabled", "repeats"},
}

_ALL_WAVEFORMS = (
    ScheduleKind.FMCW,
    ScheduleKind.PMCW,
    ScheduleKind.GOLAY_STANDARD,
    ScheduleKind.GOLAY_DOPPLER_RESILIENT,
)

_GOLAY_WAVEFORMS = (ScheduleKind.GOLAY_STANDARD, ScheduleKind.GOLAY_DOPPLER_RESILIENT)

# Largest |snr_db| and |rcs_dbsm| the scene accepts.
MAX_DB = 300.0


@dataclass(frozen=True)
class ScenarioConfig:
    params: WaveformParams = WaveformParams()
    waveforms: tuple[ScheduleKind, ...] = _ALL_WAVEFORMS
    target_kind: str = "single_point"  # single_point | pedestrian | car | none
    position_m: tuple[float, float, float] = (12.0, 9.0, 0.0)
    velocity_mps: tuple[float, float, float] | None = None  # explicit vector
    radial_speed_mps: float | None = 2.0  # receding speed along the sight line
    rcs_dbsm: float = 0.0
    scatterer_count: int = 64  # car cluster size
    snr_db: float | None = None  # None = noise off
    path_loss: PathLoss = PathLoss.INVERSE_SQUARE
    seed_code: int = 7
    seed_noise: int = 11
    seed_scene: int = 3
    doppler_bins: int | None = None  # None = FFT grid with J = P
    fxp_formats: tuple[FixedPointFormat, ...] = ()
    fxp_mode: FxpMode = FxpMode.FULL_CHAIN
    output_dir: str = "out"
    run_oracle: bool = False
    bench_enabled: bool = False
    bench_repeats: int = 5
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        # Rules that must hold after a CLI override as well.
        try:
            _to_output_dir(self.output_dir)
        except ValueError as exc:
            raise ConfigError(f"invalid output directory: {exc}") from None
        n = self.params.code_length
        golay = [k.value for k in self.waveforms if k in _GOLAY_WAVEFORMS]
        if golay and n & (n - 1):
            raise ConfigError(f"{golay[0]} needs a power-of-two 'code_length', got {n}")
        if self.target_kind == "car" and self.scatterer_count < 4:
            raise ConfigError(
                f"a car target needs 'scatterer_count' >= 4, got {self.scatterer_count}"
            )


_BOOL_WORDS = {
    "true": True,
    "yes": True,
    "on": True,
    "1": True,
    "false": False,
    "no": False,
    "off": False,
    "0": False,
}


def _to_bool(raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _to_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


def _to_db(raw: str) -> float:
    value = _to_float(raw)
    if abs(value) > MAX_DB:  # 10 ** (dB / 10) would overflow or underflow
        raise ValueError(f"expected a dB value within +-{MAX_DB:g}, got {raw.strip()!r}")
    return value


def _to_seed(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {raw.strip()!r}")
    return value


def _to_vector(raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {raw!r}")
    return tuple(_to_float(p) for p in parts)  # type: ignore[return-value]


def _to_output_dir(raw: str) -> str:
    """A directory name that `render_config` can echo and parse back."""
    if "#" in raw:
        reason = "contains '#', which starts a comment"
    elif raw != raw.strip():
        reason = "has leading or trailing whitespace, which the parser strips"
    elif any(unicodedata.category(ch) in ("Cc", "Zl", "Zp") for ch in raw):
        reason = "contains a line break or another control character"
    else:
        return raw
    raise ValueError(f"{raw!r} {reason}")


def _to_formats(raw: str) -> tuple[FixedPointFormat, ...]:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    out = []
    for item in items:
        body = item.strip("<>")
        sep = ":" if ":" in body else ","
        fields = body.split(sep)
        if len(fields) != 2:
            raise ValueError(f"expected word:integer bits, got {item!r}")
        out.append(FixedPointFormat(word_bits=int(fields[0]), integer_bits=int(fields[1])))
    return tuple(out)


def parse_waveform_list(raw: str) -> tuple[ScheduleKind, ...]:
    """Comma-separated waveform names as schedule kinds (CLI and config)."""
    names = [p.strip().lower() for p in raw.split(",") if p.strip()]
    if not names:
        raise ValueError("waveform list is empty")
    kinds = []
    for name in names:
        try:
            kinds.append(ScheduleKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in ScheduleKind)
            raise ValueError(f"unknown waveform {name!r}; valid: {valid}") from None
    return tuple(kinds)


class _Entries:
    """Parsed (section, key) -> (raw value, line) with typed accessors."""

    def __init__(self):
        self.values: dict[tuple[str, str], tuple[str, int]] = {}
        self.warnings: list[str] = []

    def put(self, section: str, key: str, raw: str, line: int):
        if (section, key) in self.values:
            self.warnings.append(
                f"line {line}: duplicate key '{key}' in [{section}]; last value wins"
            )
        self.values[(section, key)] = (raw, line)

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self.values

    def line(self, section: str, key: str) -> int:
        return self.values[(section, key)][1]

    def get(self, section: str, key: str, conv: Callable, default):
        if (section, key) not in self.values:
            return default
        raw, line = self.values[(section, key)]
        try:
            return conv(raw)
        except (ValueError, ParameterError) as exc:
            raise ConfigError(f"invalid value for '{key}': {exc}", line) from None

    def require_positive(self, section: str, key: str, value: float):
        if self.has(section, key) and value <= 0:
            raise ConfigError(f"'{key}' must be positive", self.line(section, key))


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate configuration text into a ScenarioConfig.

    Diagnostics carry the 1-based line number and the offending key. Unknown
    sections and keys are errors; duplicate keys keep the last value and add
    a warning that the run summary reproduces.
    """
    entries = _Entries()
    section: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated [section] header", lineno)
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                known = ", ".join(sorted(_SECTIONS))
                raise ConfigError(f"unknown section [{name}]; known sections: {known}", lineno)
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ConfigError("key appears before any [section] header", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]", lineno)
        entries.put(section, key, value, lineno)

    defaults = ScenarioConfig()
    base = defaults.params

    carrier = entries.get("radar", "carrier_freq_hz", _to_float, base.carrier_freq_hz)
    entries.require_positive("radar", "carrier_freq_hz", carrier)
    bandwidth = entries.get("radar", "bandwidth_hz", _to_float, base.bandwidth_hz)
    entries.require_positive("radar", "bandwidth_hz", bandwidth)
    pri = entries.get("radar", "pri_s", _to_float, base.pri_s)
    entries.require_positive("radar", "pri_s", pri)
    if entries.has("radar", "cpi_s") and entries.has("radar", "packets"):
        raise ConfigError(
            "'cpi_s' and 'packets' are mutually exclusive", entries.line("radar", "packets")
        )
    if entries.has("radar", "packets"):
        packets = entries.get("radar", "packets", int, None)
        if packets < 1:
            raise ConfigError("'packets' must be at least 1", entries.line("radar", "packets"))
        cpi = packets * pri
    else:
        cpi = entries.get("radar", "cpi_s", _to_float, base.cpi_s)
        entries.require_positive("radar", "cpi_s", cpi)
    code_length = entries.get("radar", "code_length", int, base.code_length)
    amplitude = entries.get("radar", "amplitude", _to_float, base.amplitude)
    pulse_shape = entries.get("radar", "pulse_shape", PulseShape, base.pulse_shape)
    pulse_rolloff = entries.get("radar", "pulse_rolloff", _to_float, base.pulse_rolloff)

    def chirp_conv(raw: str):
        word = raw.strip().lower()
        if word == "pri":
            return None
        if word == "window":
            return code_length / bandwidth
        return _to_float(raw)

    chirp = entries.get("radar", "chirp_duration_s", chirp_conv, base.chirp_duration_s)

    try:
        params = WaveformParams(
            carrier_freq_hz=carrier,
            bandwidth_hz=bandwidth,
            pri_s=pri,
            cpi_s=cpi,
            code_length=code_length,
            amplitude=amplitude,
            pulse_shape=pulse_shape,
            pulse_rolloff=pulse_rolloff,
            chirp_duration_s=chirp,
        )
    except ParameterError as exc:
        raise ConfigError(f"invalid radar parameters: {exc}") from None

    target_kind = entries.get("scene", "target", str.lower, defaults.target_kind)
    if target_kind not in {"single_point", "pedestrian", "car", "none"}:
        raise ConfigError(
            f"unknown target kind {target_kind!r}", entries.line("scene", "target")
        )
    if entries.has("scene", "velocity_mps") and entries.has("scene", "radial_speed_mps"):
        raise ConfigError(
            "'velocity_mps' and 'radial_speed_mps' are mutually exclusive",
            entries.line("scene", "velocity_mps"),
        )
    velocity = entries.get("scene", "velocity_mps", _to_vector, None)
    if velocity is not None:
        radial_speed = None
    else:
        radial_speed = entries.get(
            "scene", "radial_speed_mps", _to_float, defaults.radial_speed_mps
        )

    def snr_conv(raw: str):
        return None if raw.strip().lower() == "off" else _to_db(raw)

    bins_line = entries.line("doppler", "bins") if entries.has("doppler", "bins") else None

    def bins_conv(raw: str):
        word = raw.strip().lower()
        if word == "default":
            return None
        return int(raw)

    doppler_bins = entries.get("doppler", "bins", bins_conv, defaults.doppler_bins)
    if doppler_bins is not None and (doppler_bins < 3 or doppler_bins % 2 == 0):
        raise ConfigError("'bins' must be 'default' or an odd integer >= 3", bins_line)

    scatterer_count = entries.get("scene", "scatterer_count", int, defaults.scatterer_count)
    if scatterer_count < 1:
        raise ConfigError(
            "'scatterer_count' must be positive", entries.line("scene", "scatterer_count")
        )
    repeats = entries.get("benchmark", "repeats", int, defaults.bench_repeats)
    if repeats < 1:
        raise ConfigError("'repeats' must be at least 1", entries.line("benchmark", "repeats"))

    return ScenarioConfig(
        params=params,
        waveforms=entries.get("run", "waveforms", parse_waveform_list, defaults.waveforms),
        target_kind=target_kind,
        position_m=entries.get("scene", "position_m", _to_vector, defaults.position_m),
        velocity_mps=velocity,
        radial_speed_mps=radial_speed,
        rcs_dbsm=entries.get("scene", "rcs_dbsm", _to_db, defaults.rcs_dbsm),
        scatterer_count=scatterer_count,
        snr_db=entries.get("scene", "snr_db", snr_conv, defaults.snr_db),
        path_loss=entries.get("scene", "path_loss", PathLoss, defaults.path_loss),
        seed_code=entries.get("scene", "seed_code", _to_seed, defaults.seed_code),
        seed_noise=entries.get("scene", "seed_noise", _to_seed, defaults.seed_noise),
        seed_scene=entries.get("scene", "seed_scene", _to_seed, defaults.seed_scene),
        doppler_bins=doppler_bins,
        fxp_formats=entries.get("fixedpoint", "formats", _to_formats, defaults.fxp_formats),
        fxp_mode=entries.get("fixedpoint", "mode", FxpMode, defaults.fxp_mode),
        output_dir=entries.get("run", "output_dir", _to_output_dir, defaults.output_dir),
        run_oracle=entries.get("run", "oracle", _to_bool, defaults.run_oracle),
        bench_enabled=entries.get("benchmark", "enabled", _to_bool, defaults.bench_enabled),
        bench_repeats=repeats,
        warnings=tuple(entries.warnings),
    )


def render_config(cfg: ScenarioConfig) -> str:
    """Canonical text for a config; parse_config(render_config(c)) == c."""
    p = cfg.params
    lines = [
        "[radar]",
        f"carrier_freq_hz = {p.carrier_freq_hz!r}",
        f"bandwidth_hz = {p.bandwidth_hz!r}",
        f"pri_s = {p.pri_s!r}",
        f"cpi_s = {p.cpi_s!r}",
        f"code_length = {p.code_length}",
        f"amplitude = {p.amplitude!r}",
        f"pulse_shape = {p.pulse_shape.value}",
        f"pulse_rolloff = {p.pulse_rolloff!r}",
        "chirp_duration_s = "
        + ("pri" if p.chirp_duration_s is None else repr(p.chirp_duration_s)),
        "",
        "[run]",
        "waveforms = " + ", ".join(k.value for k in cfg.waveforms),
        f"output_dir = {cfg.output_dir}",
        f"oracle = {'true' if cfg.run_oracle else 'false'}",
        "",
        "[scene]",
        f"target = {cfg.target_kind}",
        "position_m = " + ", ".join(repr(v) for v in cfg.position_m),
    ]
    if cfg.velocity_mps is not None:
        lines.append("velocity_mps = " + ", ".join(repr(v) for v in cfg.velocity_mps))
    elif cfg.radial_speed_mps is not None:
        lines.append(f"radial_speed_mps = {cfg.radial_speed_mps!r}")
    lines += [
        f"rcs_dbsm = {cfg.rcs_dbsm!r}",
        f"scatterer_count = {cfg.scatterer_count}",
        "snr_db = " + ("off" if cfg.snr_db is None else repr(cfg.snr_db)),
        f"path_loss = {cfg.path_loss.value}",
        f"seed_code = {cfg.seed_code}",
        f"seed_noise = {cfg.seed_noise}",
        f"seed_scene = {cfg.seed_scene}",
        "",
        "[doppler]",
        "bins = " + ("default" if cfg.doppler_bins is None else str(cfg.doppler_bins)),
        "",
        "[fixedpoint]",
        "formats = " + ", ".join(f"{f.word_bits}:{f.integer_bits}" for f in cfg.fxp_formats),
        f"mode = {cfg.fxp_mode.value}",
        "",
        "[benchmark]",
        f"enabled = {'true' if cfg.bench_enabled else 'false'}",
        f"repeats = {cfg.bench_repeats}",
        "",
    ]
    return "\n".join(lines)

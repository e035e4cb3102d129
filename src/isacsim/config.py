"""Line-oriented scenario configuration: parse, validate, render.

The format is INI-shaped: `[section]` headers, `key = value` lines, `#`
comments. Parsing is hand-rolled so every diagnostic can name the offending
key and line, and so duplicate keys can follow the documented last-wins rule
while still leaving a warning for the run summary. An empty file is valid and
yields the default 60 GHz profile with the canonical point-target scene.

`_KEYS` is the one description of the format: one row per key, in file
order, giving its section, the config field it sets, how its value parses
and range-checks, and how it renders. `_SECTIONS`, `parse_config` and
`render_config` are loops over it, so adding a key is adding a row. The
rules that span keys (`cpi_s`/`packets`, `chirp_duration_s = window`,
`velocity_mps`/`radial_speed_mps`) follow the loop in `parse_config`.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .errors import ConfigError, ParameterError
from .fxp import FixedPointFormat, FxpMode
from .params import PulseShape, WaveformParams
from .scene import PathLoss
from .waveform import ScheduleKind

_ALL_WAVEFORMS = (
    ScheduleKind.FMCW,
    ScheduleKind.PMCW,
    ScheduleKind.GOLAY_STANDARD,
    ScheduleKind.GOLAY_DOPPLER_RESILIENT,
)

_GOLAY_WAVEFORMS = (ScheduleKind.GOLAY_STANDARD, ScheduleKind.GOLAY_DOPPLER_RESILIENT)

# Largest |snr_db| and |rcs_dbsm| the scene accepts.
MAX_DB = 300.0

# Fewest fast-time samples a PRI may hold: PSLR's +-2 bin mainlobe, wherever
# the peak falls, must leave at least one sidelobe bin in the range cut.
MIN_SAMPLES_PER_PRI = 6


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
        # A vector target has no separate radial speed, and a target given
        # neither motion stands still; spelled out so that the rendered
        # config parses back to an equal one.
        if self.velocity_mps is not None:
            object.__setattr__(self, "radial_speed_mps", None)
        elif self.radial_speed_mps is None:
            object.__setattr__(self, "radial_speed_mps", 0.0)
        # Rules that must hold after a CLI override as well.
        try:
            _to_output_dir(self.output_dir)
        except ValueError as exc:
            raise ConfigError(f"invalid output directory: {exc}") from None
        q = self.params.samples_per_pri
        if q < MIN_SAMPLES_PER_PRI:
            raise ConfigError(
                f"'pri_s' * 'bandwidth_hz' gives {q} fast-time samples per PRI; PSLR needs "
                f"at least {MIN_SAMPLES_PER_PRI}, a +-2 bin mainlobe and a sidelobe bin beside it"
            )
        n = self.params.code_length
        golay = [k.value for k in self.waveforms if k in _GOLAY_WAVEFORMS]
        if golay and not (2 <= n <= 1 << 16 and n & (n - 1) == 0):
            raise ConfigError(
                f"{golay[0]} needs a power-of-two 'code_length' from 2 to 65536, got {n}"
            )
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
        fields = item.strip("<>").split(":")
        if len(fields) != 2:
            raise ValueError(f"expected word:integer bits, got {item!r}")
        fmt = FixedPointFormat(word_bits=int(fields[0]), integer_bits=int(fields[1]))
        if fmt in out:
            raise ValueError(f"format {fmt.word_bits}:{fmt.integer_bits} is listed twice")
        out.append(fmt)
    return tuple(out)


def _to_target(raw: str) -> str:
    kind = raw.lower()
    if kind not in ("single_point", "pedestrian", "car", "none"):
        raise ValueError(f"unknown target kind {kind!r}")
    return kind


def parse_waveform_list(raw: str) -> tuple[ScheduleKind, ...]:
    """Comma-separated waveform names as schedule kinds (CLI and config);
    each name at most once."""
    names = [p.strip().lower() for p in raw.split(",") if p.strip()]
    if not names:
        raise ValueError("waveform list is empty")
    kinds = []
    for name in names:
        try:
            kind = ScheduleKind(name)
        except ValueError:
            valid = ", ".join(k.value for k in ScheduleKind)
            raise ValueError(f"unknown waveform {name!r}; valid: {valid}") from None
        if kind in kinds:
            raise ValueError(f"waveform {name!r} is listed twice")
        kinds.append(kind)
    return tuple(kinds)


class _OutOfRange(ValueError):
    """A well-formed value outside its key's range; the message is the rule."""


def _checked(conv: Callable[[str], Any], ok: Callable[[Any], bool], rule: str):
    def parse(raw: str):
        value = conv(raw)
        if not ok(value):
            raise _OutOfRange(rule)
        return value

    return parse


def _positive(conv: Callable[[str], Any]):
    return _checked(conv, lambda v: v > 0, "must be positive")


_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "must be at least 1")


def _word(word: str, meaning: Any, conv: Callable[[str], Any]):
    """Parse `word` as `meaning` and any other value with `conv`."""
    return lambda raw: meaning if raw.lower() == word else conv(raw)


def _unless_none(word: str | None, render: Callable[[Any], str]):
    """Render None as `word`; a None word leaves the key's line out."""
    return lambda value: word if value is None else render(value)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _enum(value) -> str:
    return value.value


def _vector(values) -> str:
    return ", ".join(repr(v) for v in values)


class _Key(NamedTuple):
    section: str
    name: str
    parse: Callable[[str], Any]  # raises ValueError, _OutOfRange for a range rule
    render: Callable[[Any], str | None] | None  # None: never rendered
    field: str | None = None  # ScenarioConfig field ([radar]: WaveformParams); None: name


_KEYS = (
    _Key("radar", "carrier_freq_hz", _positive(_to_float), repr),
    _Key("radar", "bandwidth_hz", _positive(_to_float), repr),
    _Key("radar", "pri_s", _positive(_to_float), repr),
    _Key("radar", "cpi_s", _positive(_to_float), repr),
    _Key("radar", "packets", _AT_LEAST_1, None),  # becomes cpi_s = packets * pri_s
    _Key("radar", "code_length", int, str),
    _Key("radar", "amplitude", _to_float, repr),
    _Key("radar", "pulse_shape", PulseShape, _enum),
    _Key("radar", "pulse_rolloff", _to_float, repr),
    _Key(
        "radar",
        "chirp_duration_s",
        _word("pri", None, _word("window", "window", _to_float)),  # window: N / BW
        _unless_none("pri", repr),
    ),
    _Key("run", "waveforms", parse_waveform_list, lambda kinds: ", ".join(k.value for k in kinds)),
    _Key("run", "output_dir", _to_output_dir, str),
    _Key("run", "oracle", _to_bool, _flag, "run_oracle"),
    _Key("scene", "target", _to_target, str, "target_kind"),
    _Key("scene", "position_m", _to_vector, _vector),
    _Key("scene", "velocity_mps", _to_vector, _unless_none(None, _vector)),
    _Key("scene", "radial_speed_mps", _to_float, _unless_none(None, repr)),  # None under a vector
    _Key("scene", "rcs_dbsm", _to_db, repr),
    _Key("scene", "scatterer_count", _positive(int), str),
    _Key("scene", "snr_db", _word("off", None, _to_db), _unless_none("off", repr)),
    _Key("scene", "path_loss", PathLoss, _enum),
    _Key("scene", "seed_code", _to_seed, str),
    _Key("scene", "seed_noise", _to_seed, str),
    _Key("scene", "seed_scene", _to_seed, str),
    _Key(
        "doppler",
        "bins",
        _checked(
            _word("default", None, int),
            lambda v: v is None or (v >= 3 and v % 2 == 1),
            "must be 'default' or an odd integer >= 3",
        ),
        _unless_none("default", str),
        "doppler_bins",
    ),
    _Key(
        "fixedpoint",
        "formats",
        _to_formats,
        lambda formats: ", ".join(f"{f.word_bits}:{f.integer_bits}" for f in formats),
        "fxp_formats",
    ),
    _Key("fixedpoint", "mode", FxpMode, _enum, "fxp_mode"),
    _Key("benchmark", "enabled", _to_bool, _flag, "bench_enabled"),
    _Key("benchmark", "repeats", _AT_LEAST_1, str, "bench_repeats"),
)

_SECTIONS: dict[str, set[str]] = {
    section: {key.name for key in _KEYS if key.section == section}
    for section in dict.fromkeys(key.section for key in _KEYS)
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate configuration text into a ScenarioConfig.

    Diagnostics carry the 1-based line number and the offending key. Unknown
    sections and keys are errors; duplicate keys keep the last value and add
    a warning that the run summary reproduces.
    """
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    warnings: list[str] = []
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
        if (section, key) in entries:
            warnings.append(f"line {lineno}: duplicate key '{key}' in [{section}]; last value wins")
        entries[(section, key)] = (value, lineno)

    radar: dict[str, Any] = {}
    scene: dict[str, Any] = {}
    lines: dict[str, int] = {}
    for key in _KEYS:
        if (key.section, key.name) not in entries:
            continue
        raw, lines[key.name] = entries[(key.section, key.name)]
        try:
            value = key.parse(raw)
        except _OutOfRange as exc:
            raise ConfigError(f"'{key.name}' {exc}", lines[key.name]) from None
        except (ValueError, ParameterError) as exc:
            raise ConfigError(f"invalid value for '{key.name}': {exc}", lines[key.name]) from None
        (radar if key.section == "radar" else scene)[key.field or key.name] = value

    base = WaveformParams()
    if "packets" in radar:
        if "cpi_s" in radar:
            raise ConfigError("'cpi_s' and 'packets' are mutually exclusive", lines["packets"])
        radar["cpi_s"] = radar.pop("packets") * radar.get("pri_s", base.pri_s)
    if radar.get("chirp_duration_s") == "window":
        code_length = radar.get("code_length", base.code_length)
        radar["chirp_duration_s"] = code_length / radar.get("bandwidth_hz", base.bandwidth_hz)
    if "velocity_mps" in scene and "radial_speed_mps" in scene:
        raise ConfigError(
            "'velocity_mps' and 'radial_speed_mps' are mutually exclusive",
            lines["velocity_mps"],
        )
    try:
        params = WaveformParams(**radar)
    except ParameterError as exc:
        raise ConfigError(f"invalid radar parameters: {exc}") from None
    return ScenarioConfig(params=params, warnings=tuple(warnings), **scene)


def render_config(cfg: ScenarioConfig) -> str:
    """Canonical text for a config; parse_config(render_config(c)) == c."""
    lines: list[str] = []
    section = None
    for key in _KEYS:
        if key.section != section:
            section = key.section
            lines += ["", f"[{section}]"]
        if key.render is None:
            continue
        text = key.render(getattr(cfg.params if section == "radar" else cfg, key.field or key.name))
        if text is not None:
            lines.append(f"{key.name} = {text}")
    return "\n".join([*lines[1:], ""])

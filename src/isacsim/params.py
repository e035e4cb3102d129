"""Radar timing and bandwidth parameters with their derived grid quantities.

Defaults reproduce the simulated 60 GHz / 1.76 GHz profile: 2 us PRI
(Q = 3520 fast-time samples at critical sampling) and a 4 ms CPI
(P = 2000 packets). Tests and the CLI's scaled profile shorten the CPI to
128 us (P = 64) so runs finish in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .errors import ParameterError

SPEED_OF_LIGHT_MPS = 299792458.0


class PulseShape(Enum):
    IDENTITY = "identity"
    RAISED_COSINE = "raised_cosine"


@dataclass(frozen=True)
class WaveformParams:
    carrier_freq_hz: float = 60e9        # f_c
    bandwidth_hz: float = 1.76e9         # BW; also the sample rate (critical sampling)
    pri_s: float = 2e-6                  # pulse repetition interval
    cpi_s: float = 4e-3                  # coherent processing interval
    code_length: int = 512               # N active chips per pulse
    amplitude: float = 1.0               # sqrt(A_s), per-chip magnitude
    pulse_shape: PulseShape = PulseShape.IDENTITY
    pulse_rolloff: float = 0.25          # raised-cosine rolloff, used only when enabled
    # Chirp sweep duration for the FMCW frame. None means the sweep spans the
    # full PRI (slope BW/pri_s); the frame is still gated to the active
    # window, so the transmitted segment covers BW*code_length/Q of the band.
    # Set to code_length*sample_period_s for an equal time-bandwidth-product
    # chirp that sweeps the full band inside the window.
    chirp_duration_s: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("float") and value is not None and not math.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value}")
        if self.carrier_freq_hz <= 0:
            raise ParameterError("carrier_freq_hz must be positive")
        if self.bandwidth_hz <= 0:
            raise ParameterError("bandwidth_hz must be positive")
        if self.pri_s <= 0:
            raise ParameterError("pri_s must be positive")
        if self.cpi_s < self.pri_s:
            raise ParameterError("cpi_s must cover at least one PRI")
        # Q and P are rounded from these quotients, which finite inputs can
        # still overflow.
        for name, quotient in (
            ("pri_s * bandwidth_hz (samples per PRI)", self.pri_s / self.sample_period_s),
            ("cpi_s / pri_s (packets per CPI)", self.cpi_s / self.pri_s),
        ):
            if not math.isfinite(quotient):
                raise ParameterError(f"{name} overflows to {quotient}")
        if self.code_length < 1:
            raise ParameterError("code_length must be at least 1")
        if self.code_length > self.samples_per_pri:
            raise ParameterError(
                f"code_length {self.code_length} exceeds samples per PRI "
                f"{self.samples_per_pri}; the pulse must fit inside the PRI"
            )
        if self.amplitude <= 0:
            raise ParameterError("amplitude must be positive")
        if not 0.0 <= self.pulse_rolloff <= 1.0:
            raise ParameterError("pulse_rolloff must lie in [0, 1]")
        if self.chirp_duration_s is not None and self.chirp_duration_s <= 0:
            raise ParameterError("chirp_duration_s must be positive")
        # Q is rounded from the PRI; the two must agree to one sample.
        if abs(self.sample_period_s * self.samples_per_pri - self.pri_s) > self.sample_period_s:
            raise ParameterError("pri_s is not an integer number of sample periods")
        # Finite inputs can still overflow what is derived from them, and an
        # inf here would reach the FMCW frame or the Doppler axis. The chirp's
        # phase pi * slope * (q T_s)^2, in generate_fmcw's order, peaks at
        # the last chip.
        slope = self.bandwidth_hz / self.chirp_sweep_duration_s
        t_last = (self.code_length - 1) * self.sample_period_s
        if not math.isfinite(math.pi * slope * (t_last * t_last)):
            raise ParameterError(
                f"chirp_duration_s {self.chirp_duration_s!r} makes the chirp's phase overflow "
                f"(its slope bandwidth_hz / chirp_duration_s is {slope})"
            )
        for name in ("wavelength_m", "max_unambiguous_velocity_mps", "velocity_resolution_mps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(
                    f"carrier_freq_hz {self.carrier_freq_hz!r} makes {name} overflow to {value}"
                )

    # --- sampling grid ---------------------------------------------------
    @property
    def sample_period_s(self) -> float:
        """T_s = 1/BW (critical sampling)."""
        return 1.0 / self.bandwidth_hz

    @property
    def samples_per_pri(self) -> int:
        """Q, fast-time samples per PRI."""
        return round(self.pri_s / self.sample_period_s)

    @property
    def packets_per_cpi(self) -> int:
        """P, slow-time packets per CPI."""
        return round(self.cpi_s / self.pri_s)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_MPS / self.carrier_freq_hz

    @property
    def chirp_sweep_duration_s(self) -> float:
        """Effective chirp duration: explicit value or the full PRI."""
        return self.chirp_duration_s if self.chirp_duration_s is not None else self.pri_s

    # --- derived radar quantities ----------------------------------------
    @property
    def range_resolution_m(self) -> float:
        """c / (2 BW), also the width of one range bin."""
        return SPEED_OF_LIGHT_MPS / (2.0 * self.bandwidth_hz)

    @property
    def max_unambiguous_velocity_mps(self) -> float:
        """lambda / (4 T_pri); Doppler ambiguity limit."""
        return self.wavelength_m / (4.0 * self.pri_s)

    @property
    def velocity_resolution_mps(self) -> float:
        """lambda / (2 T_CPI)."""
        return self.wavelength_m / (2.0 * self.cpi_s)

    @property
    def doppler_max_hz(self) -> float:
        """1 / (2 T_pri), the unambiguous Doppler half-span."""
        return 1.0 / (2.0 * self.pri_s)

    @property
    def max_range_listening_m(self) -> float:
        """Range covered by an echo whose full pulse still fits the PRI
        after the active window: c * N * T_s / 2."""
        return SPEED_OF_LIGHT_MPS * self.code_length * self.sample_period_s / 2.0

    @property
    def max_range_pri_m(self) -> float:
        """Range covered by the full PRI listening time: c * T_pri / 2."""
        return SPEED_OF_LIGHT_MPS * self.pri_s / 2.0

    def range_axis_m(self) -> np.ndarray:
        """Range value of each fast-time bin: r_q = q * c * T_s / 2."""
        return np.arange(self.samples_per_pri) * (SPEED_OF_LIGHT_MPS * self.sample_period_s / 2.0)


def scaled_profile(params: WaveformParams, packets: int) -> WaveformParams:
    """Same radar parameters with the CPI shortened/stretched to `packets` PRIs."""
    if packets < 1:
        raise ParameterError("packets must be at least 1")
    return replace(params, cpi_s=packets * params.pri_s)


def round_sig(x: float, digits: int) -> float:
    """Round to a number of significant digits (reporting helper)."""
    if x == 0 or not math.isfinite(x):
        return x
    return round(x, digits - 1 - math.floor(math.log10(abs(x))))

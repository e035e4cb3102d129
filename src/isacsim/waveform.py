"""Transmit frames for the four compared waveforms and their CPI schedules.

Each frame is one PRI of complex baseband samples: an active window of
`code_length` unit-modulus chips scaled by the amplitude, followed by zeros
(listening time). A schedule is the set of distinct frames plus a packet map
naming the frame each of the P packets carries; the receiver correlates every
packet against the frame it carried.

The two Golay schedules differ only in how the complementary pair (a, b) is
spread across packets: the standard schedule alternates a, b, a, b, ... so
adjacent packets form the complementary sum, while the Doppler-resilient
schedule orders the pair by the Prouhet-Thue-Morse sequence, which pushes the
residual Doppler modulation error to a higher-order spectral null.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
from .params import PulseShape, WaveformParams


class ScheduleKind(Enum):
    FMCW = "fmcw"
    PMCW = "pmcw"
    GOLAY_STANDARD = "golay_standard"
    GOLAY_DOPPLER_RESILIENT = "golay_doppler_resilient"


@dataclass(frozen=True)
class GolayPair:
    """Complementary pair: R_a[k] + R_b[k] = 2N * delta[k], exactly, in ints."""

    a: np.ndarray  # +-1 int64, length N
    b: np.ndarray


@dataclass(frozen=True)
class FrameSchedule:
    """Transmit schedule over one CPI: packet p carries frames[packet_map[p]]."""

    kind: ScheduleKind
    frames: np.ndarray      # U x Q complex, the distinct transmit frames
    packet_map: np.ndarray  # P ints into frames

    def __post_init__(self):
        if self.frames.ndim != 2 or self.packet_map.ndim != 1:
            raise ParameterError("a schedule needs a U x Q frame array and a packet vector")

    def __len__(self) -> int:
        return self.packet_map.size


def aperiodic_autocorrelation(x: np.ndarray) -> np.ndarray:
    """R_x[k] = sum_n x[n+k] * conj(x[n]) for k = -(N-1) .. N-1.

    Integer inputs stay exact in int64 (numpy's correlate conjugates its
    second argument, which is a no-op for real codes).
    """
    x = np.asarray(x)
    out = np.correlate(x, x, mode="full")
    if np.issubdtype(x.dtype, np.integer):
        return out.astype(np.int64)
    return out


def golay_pair(n_log2: int) -> GolayPair:
    """Length 2**n_log2 complementary pair via recursive doubling.

    Starting from a = b = [+1], each step maps (a, b) -> (a||b, a||-b);
    complementarity is preserved exactly at every step.
    """
    if not 1 <= n_log2 <= 16:
        raise ParameterError(f"n_log2 must lie in [1, 16], got {n_log2}")
    a = np.array([1], dtype=np.int64)
    b = np.array([1], dtype=np.int64)
    for _ in range(n_log2):
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return GolayPair(a=a, b=b)


def ptm_sequence(length: int) -> np.ndarray:
    """First `length` bits of the Prouhet-Thue-Morse sequence: bit p is the
    parity of the popcount of p."""
    if length < 1:
        raise ParameterError("length must be at least 1")
    return np.array([p.bit_count() & 1 for p in range(length)], dtype=np.int64)


def _shape_chips(active: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Apply the pulse-shaping filter to the active chip window.

    At critical sampling a time-domain raised-cosine interpolation pulse is a
    delta at every sample instant, so the option is realized as a spectral
    raised-cosine taper (identity at rolloff 0, cosine-squared shoulder folded
    at the band edge). The shaped window is rescaled so no sample exceeds the
    configured amplitude.
    """
    if params.pulse_shape is PulseShape.IDENTITY or params.pulse_rolloff == 0.0:
        return active
    n = active.size
    f = np.abs(np.fft.fftfreq(n))  # cycles/sample, in [0, 1/2]
    beta = params.pulse_rolloff
    lo = (1.0 - beta) / 2.0
    taper = np.ones(n)
    shoulder = f > lo
    taper[shoulder] = 0.5 * (1.0 + np.cos(np.pi / beta * (f[shoulder] - lo)))
    shaped = np.fft.ifft(np.fft.fft(active) * taper)
    peak = np.abs(shaped).max()
    if peak > 0:
        shaped *= np.abs(active).max() / peak
    return shaped


def _frame_from_active(active: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Scale, shape, and zero-pad an active window into a full-Q frame."""
    q = params.samples_per_pri
    samples = np.zeros(q, dtype=np.complex128)
    samples[: active.size] = _shape_chips(params.amplitude * active.astype(np.complex128), params)
    return samples


def generate_fmcw(params: WaveformParams) -> np.ndarray:
    """Linear chirp gated to the active window.

    samples[q] = amplitude * exp(j*pi*(BW/T_chirp)*(q*T_s)^2) for q inside the
    window, zero afterwards. The default sweep duration is the full PRI (the
    per-PRI chirp slope BW/T_pri), so the transmitted window covers
    BW*code_length/Q of the band; set chirp_duration_s to
    code_length*sample_period_s to sweep the full band inside the window.
    """
    n = params.code_length
    ts = params.sample_period_s
    slope = params.bandwidth_hz / params.chirp_sweep_duration_s
    q = np.arange(n)
    active = np.exp(1j * np.pi * slope * (q * ts) ** 2)
    return _frame_from_active(active, params)


def generate_pmcw(params: WaveformParams, seed: int) -> np.ndarray:
    """Differentially encoded binary phase code.

    A seeded pseudo-random chip sequence c in {0,1}^N is encoded as d[0] = +1,
    d[k] = d[k-1] * (-1)**c[k]; the frame carries amplitude * d.
    """
    n = params.code_length
    rng = np.random.default_rng(seed)
    chips = rng.integers(0, 2, size=n)
    signs = np.where(chips == 1, -1.0, 1.0)
    signs[0] = 1.0  # d[0] is pinned to +1; c[0] is not consumed
    d = np.cumprod(signs)
    return _frame_from_active(d, params)


def _golay_frames(params: WaveformParams) -> np.ndarray:
    """The pair's frames as rows: a, then b."""
    n = params.code_length
    n_log2 = n.bit_length() - 1
    if 2**n_log2 != n:
        raise ParameterError(f"Golay schedules need a power-of-two code_length, got {n}")
    pair = golay_pair(n_log2)
    return np.stack([_frame_from_active(pair.a, params), _frame_from_active(pair.b, params)])


def build_schedule(kind: ScheduleKind, params: WaveformParams, seed: int = 0) -> FrameSchedule:
    """Distinct frames and packet map over the CPI for the requested waveform.

    FMCW/PMCW repeat a single frame. The standard Golay schedule alternates
    the pair members a, b, a, b, ... across packets; the Doppler-resilient
    schedule carries a on packets whose Prouhet-Thue-Morse bit is 0 and b on
    those where it is 1.
    """
    p_count = params.packets_per_cpi
    if kind is ScheduleKind.FMCW:
        frames = generate_fmcw(params)[None, :]
        packet_map = np.zeros(p_count, dtype=np.int64)
    elif kind is ScheduleKind.PMCW:
        frames = generate_pmcw(params, seed)[None, :]
        packet_map = np.zeros(p_count, dtype=np.int64)
    elif kind is ScheduleKind.GOLAY_STANDARD:
        frames = _golay_frames(params)
        packet_map = np.arange(p_count, dtype=np.int64) % 2
    elif kind is ScheduleKind.GOLAY_DOPPLER_RESILIENT:
        frames = _golay_frames(params)
        packet_map = ptm_sequence(p_count)
    else:
        raise ParameterError(f"unknown schedule kind {kind!r}")
    return FrameSchedule(kind, frames, packet_map)

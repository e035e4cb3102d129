"""Fixed-point emulation of the matched-filter chain.

`precision_sweep` is the one entry: it runs the quantized chain once per
format and scores each map against the double-precision map of the same
cube. Every stage applies `quantize`'s arithmetic in place.

Signals are quantized to a two's-complement <word,integer> grid with
round-to-nearest-even and saturation. `quantize` returns the values already
on that grid, in the input's units, with the count of clipped components; no
mantissa array is kept. The quantized map is `rsp`'s own range-Doppler
chain, run with a stage hook that quantizes at the boundaries a hardware
implementation would expose: the input cube, the stored reference
spectra, the steering (twiddle) factors, and the outputs of the FFT, the
steering accumulation, and the final IFFT. Each quantization point uses
max-abs normalization (the block-floating-point scale a fixed-point design
would set per stage), with scales folded back so the quantized map stays in
the units of the double-precision map. The FFTs themselves run in double on
grid-quantized data; butterfly-internal effects are out of scope.

The steering stage always applies the dense quantized twiddle matrix, even on
FFT-aligned grids, because the point is to model quantized multipliers. The
chain splits its passes across ISACSIM_THREADS threads as the double filter
does; every map and report is the same to the bit for any thread count.

The chain hands its hook only buffers it owns, so every stage is quantized
in place. Each chain consumes a cube of its own: the sweep asks its `cubes`
callable for a fresh cube once per format, so it allocates no P x Q buffer
of its own and holds one format's cube at a time. FULL_CHAIN quantizes that
cube as the "input" stage, and with at most P Doppler bins the chain
transforms and steers in the cube and writes the format's map over it, and
the sweep scores the map's error in the map's own memory. The sweep detects
and scores the double-precision map once and shares that score across its
formats, so a row's runtime_s covers its own cube, quantized run and
scoring.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, ParameterError, ProcessingError
from .rsp import DopplerGrid, RangeDopplerMap, _chain, detect_peak, pslr_db
from .scene import DataCube
from .waveform import FrameSchedule


class FxpMode(Enum):
    FULL_CHAIN = "full_chain"  # quantize every stage listed above
    CORE_ONLY = "core_only"    # quantize only the matched-filter core (reference,
    #                            its input spectra, twiddles, steering output)


@dataclass(frozen=True)
class FixedPointFormat:
    """<word_bits, integer_bits> two's complement; integer bits include sign."""

    word_bits: int
    integer_bits: int

    def __post_init__(self):
        if not 2 <= self.word_bits <= 64:
            raise ParameterError(f"word_bits must lie in [2, 64], got {self.word_bits}")
        if not 1 <= self.integer_bits <= self.word_bits:
            raise ParameterError(
                f"integer_bits must lie in [1, word_bits], got {self.integer_bits}"
            )

    @property
    def fraction_bits(self) -> int:
        return self.word_bits - self.integer_bits

    @property
    def step(self) -> float:
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_value(self) -> float:
        return 2.0 ** (self.integer_bits - 1) - self.step

    @property
    def min_value(self) -> float:
        return -(2.0 ** (self.integer_bits - 1))

    def __str__(self) -> str:
        return f"<{self.word_bits},{self.integer_bits}>"


# Components per chunk of the quantizer's elementwise passes: 512 KB of
# float64, which stays in a core's L2 cache between passes.
_CHUNK = 1 << 16


def _mantissa_limits(fmt: FixedPointFormat) -> tuple[float, float]:
    top = 2.0 ** (fmt.word_bits - 1) - 1.0
    if top >= 2.0 ** (fmt.word_bits - 1):  # rounded up past int64 territory (W > 53)
        top = np.nextafter(2.0 ** (fmt.word_bits - 1), 0.0)
    return -(2.0 ** (fmt.word_bits - 1)), top


def _components(x: np.ndarray) -> np.ndarray:
    """The re/im components of a C- or F-contiguous complex128 array, as one
    flat float64 view of its buffer in memory order."""
    return (x.T if x.flags.f_contiguous else x).reshape(-1).view(np.float64)


def _quantize_into(comps: np.ndarray, out: np.ndarray, fmt: FixedPointFormat) -> int:
    """Quantize the components `comps` into `out` (which may be `comps`
    itself) and return the number of clipped components.

    NaN and inf show in the max-abs, so no separate finiteness pass runs. A
    max-abs so small that the step `unit` underflows to zero raises
    DataError too, since no float can hold that grid.
    Division and rint are monotone, so a component can clip only when the
    max-abs mantissa rint(m / unit) does; that scalar test decides whether
    the count and clip passes run at all (in practice only from W = 53 on).
    The elementwise passes run chunk by chunk, so each chunk stays in cache
    from the division to the final multiply.
    """
    m = max(comps.max(initial=0.0), -comps.min(initial=0.0))
    if not math.isfinite(m):
        raise DataError("quantizer input contains non-finite values")
    scale = m / fmt.max_value if m > 0.0 else 1.0
    bot, top = _mantissa_limits(fmt)
    unit = fmt.step * scale
    if unit == 0.0:  # the grid's step lies below the smallest float
        raise DataError(
            f"quantizer input max-abs {m:.3g} is too small for {fmt}: its step underflows"
        )
    # -m's mantissa is the negation of +m's, and bot < -top, so only +m's
    # can pass a limit
    clips = np.rint(m / unit) > top
    saturated = 0
    for lo in range(0, comps.size, _CHUNK):
        o = out[lo : lo + _CHUNK]
        np.divide(comps[lo : lo + _CHUNK], unit, out=o)
        np.rint(o, out=o)
        if clips:
            saturated += int(np.count_nonzero(o > top)) + int(np.count_nonzero(o < bot))
            np.clip(o, bot, top, out=o)
        o += 0.0  # -0.0 -> +0.0, as an integer mantissa would read
        o *= unit
    return saturated


def quantize(signal: np.ndarray, fmt: FixedPointFormat) -> tuple[np.ndarray, int]:
    """Round-to-nearest-even quantization onto the format grid, max-abs scaled.

    The scale maps the largest |re|/|im| component onto the format's maximum
    value. Returns (values, saturated): the quantized signal as a new
    complex128 array of the input's shape and units, each component an
    integer mantissa (never -0.0) times step * scale, and the number of
    clipped re/im components; only float rounding can push a component past
    the top mantissa (W >= 53). The input is never written.
    """
    x = np.asarray(signal, dtype=np.complex128)
    if not (x.flags.c_contiguous or x.flags.f_contiguous):
        x = np.ascontiguousarray(x)
    values = np.empty_like(x)  # x's memory order, so both flatten alike
    return values, _quantize_into(_components(x), _components(values), fmt)


@dataclass(frozen=True)
class FxpReport:
    format: FixedPointFormat
    mode: FxpMode
    sqnr_db: float               # quantized map vs double map
    peak_bin_agree: bool         # range and Doppler bins both identical
    pslr_double_db: float
    pslr_fxp_db: float
    pslr_delta_db: float         # fxp - double; +inf when fxp has no sidelobes
    pslr_agree: bool             # |delta| <= 0.5 dB, or quantization improved
    saturation_counts: dict[str, int]
    saturation_fraction: float
    warning: str | None


@dataclass(frozen=True)
class SweepRow:
    report: FxpReport
    runtime_s: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    monotone_sqnr: bool  # SQNR non-decreasing in word length for fixed integer
    #                      bits, within a 3 dB measurement allowance


def precision_sweep(
    cubes: Callable[[], DataCube],
    schedule: FrameSchedule,
    grid: DopplerGrid,
    formats,
    mode: FxpMode = FxpMode.FULL_CHAIN,
    *,
    double_map: RangeDopplerMap,
) -> SweepResult:
    """One quantized run per format, with timing, plus an SQNR monotonicity
    summary across word lengths. Every row is scored against `double_map`,
    the double-precision map of the cube, whose detection, PSLR and power
    the sweep computes once for all formats.

    `cubes` is a callable that returns a fresh `DataCube` of the schedule's
    echo on each call. Each format calls it once and consumes the cube it
    gets: its chain quantizes and transforms that cube in place, so the
    sweep allocates no P x Q buffer of its own, and a row's runtime_s covers
    the call, the quantized run and its scoring. A format's map is a view of
    the buffer its chain ran in; the sweep detects on it, takes its PSLR,
    then overwrites it with its squared error against `double_map`, and
    drops it and its cube before the next format runs, so the sweep holds
    one format's buffers at a time. A `double_map` whose shape is not the
    grid's bins by the schedule's range bins raises ProcessingError before
    any format runs, and so does a cube that does not match the schedule or
    the grid, before its format's row is produced.

    PSLR agreement is one-sided around the 0.5 dB budget: a quantized PSLR
    that is *better* than double precision (including the no-sidelobe
    sentinel, which occurs when roundoff-level sidelobes fall below half an
    output LSB) counts as agreement; degradation beyond 0.5 dB does not.
    """
    formats = list(formats)
    if not formats:
        raise ParameterError("precision_sweep needs at least one format")
    shape = (len(grid), schedule.frames.shape[1])
    if double_map.values.shape != shape:
        raise ProcessingError(
            f"double_map is {double_map.values.shape}, but the grid and schedule make {shape}"
        )
    det_d = detect_peak(double_map)
    pslr_d = pslr_db(double_map.range_cut(det_d.doppler_bin))
    power = float(np.sum(double_map.values**2))
    full = mode is FxpMode.FULL_CHAIN

    def run(fmt: FixedPointFormat) -> FxpReport:
        counts: dict[str, int] = {}
        sizes: dict[str, int] = {}  # re and im components

        def stage(name: str, x: np.ndarray) -> None:
            if full or name not in ("input", "post_ifft"):
                comps = _components(x)
                sizes[name] = comps.size
                counts[name] = _quantize_into(comps, comps, fmt)

        data = cubes()
        stage("input", data.samples)
        fxp_map = RangeDopplerMap(
            values=_chain(data, schedule, grid, True, stage),
            range_axis_m=double_map.range_axis_m,
            doppler_axis_mps=double_map.doppler_axis_mps,
        )
        det_f = detect_peak(fxp_map)
        pslr_f = pslr_db(fxp_map.range_cut(det_f.doppler_bin))
        err = np.subtract(double_map.values, fxp_map.values, out=fxp_map.values)
        err *= err
        err_power = float(np.sum(err))
        delta = pslr_f - pslr_d
        frac = sum(counts.values()) / sum(sizes.values())
        return FxpReport(
            format=fmt,
            mode=mode,
            sqnr_db=math.inf if err_power == 0.0 else 10.0 * math.log10(power / err_power),
            peak_bin_agree=(det_d.range_bin, det_d.doppler_bin)
            == (det_f.range_bin, det_f.doppler_bin),
            pslr_double_db=pslr_d,
            pslr_fxp_db=pslr_f,
            pslr_delta_db=delta,
            pslr_agree=(math.isfinite(delta) and abs(delta) <= 0.5) or pslr_f >= pslr_d,
            saturation_counts=counts,
            saturation_fraction=frac,
            warning=(
                f"pervasive saturation: {frac:.2%} of quantized components clipped"
                if frac > 0.01
                else None
            ),
        )

    rows = []
    for fmt in formats:
        start = time.perf_counter()
        report = run(fmt)
        rows.append(SweepRow(report=report, runtime_s=time.perf_counter() - start))
    monotone = True
    by_int: dict[int, list[SweepRow]] = {}
    for row in rows:
        by_int.setdefault(row.report.format.integer_bits, []).append(row)
    for group in by_int.values():
        group = sorted(group, key=lambda r: r.report.format.word_bits)
        for prev, cur in zip(group, group[1:]):
            if cur.report.sqnr_db < prev.report.sqnr_db - 3.0:
                monotone = False
    return SweepResult(rows=tuple(rows), monotone_sqnr=monotone)

"""Fixed-point emulation of the matched-filter chain.

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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, ParameterError
from .rsp import DopplerGrid, RangeDopplerMap, _chain, detect_peak, matched_filter_rd, pslr_db
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


def _mantissa_limits(fmt: FixedPointFormat) -> tuple[float, float]:
    top = 2.0 ** (fmt.word_bits - 1) - 1.0
    if top >= 2.0 ** (fmt.word_bits - 1):  # rounded up past int64 territory (W > 53)
        top = np.nextafter(2.0 ** (fmt.word_bits - 1), 0.0)
    return -(2.0 ** (fmt.word_bits - 1)), top


def quantize(signal: np.ndarray, fmt: FixedPointFormat) -> tuple[np.ndarray, int]:
    """Round-to-nearest-even quantization onto the format grid, max-abs scaled.

    The scale maps the largest |re|/|im| component onto the format's maximum
    value. Returns (values, saturated): the quantized signal as a new
    complex128 array of the input's shape and units, each component an
    integer mantissa (never -0.0) times step * scale, and the number of
    clipped re/im components; only float rounding can push a component past
    the top mantissa (W >= 53).
    """
    x = np.asarray(signal, dtype=np.complex128)
    # interleaved re/im components; a copy only for strided views
    comps = np.ascontiguousarray(x).reshape(-1).view(np.float64)
    if not np.isfinite(comps).all():
        raise DataError("quantizer input contains non-finite values")
    values = np.empty_like(comps)  # the one output, worked in place below
    m = np.abs(comps, out=values).max(initial=0.0)
    scale = m / fmt.max_value if m > 0.0 else 1.0
    bot, top = _mantissa_limits(fmt)
    unit = fmt.step * scale
    np.divide(comps, unit, out=values)
    np.rint(values, out=values)
    saturated = int(np.count_nonzero(values > top)) + int(np.count_nonzero(values < bot))
    np.clip(values, bot, top, out=values)
    values += 0.0  # -0.0 -> +0.0, as an integer mantissa would read
    values *= unit
    return values.view(np.complex128).reshape(x.shape), saturated


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


def quantized_matched_filter(
    cube: DataCube,
    schedule: FrameSchedule,
    grid: DopplerGrid,
    fmt: FixedPointFormat,
    mode: FxpMode = FxpMode.FULL_CHAIN,
    double_map: RangeDopplerMap | None = None,
) -> tuple[RangeDopplerMap, FxpReport]:
    """Range-Doppler map computed on the fixed-point grid plus an accuracy
    report against the double-precision map of the same inputs
    (`double_map`, computed here when not given).

    PSLR agreement is one-sided around the 0.5 dB budget: a quantized PSLR
    that is *better* than double precision (including the no-sidelobe
    sentinel, which occurs when roundoff-level sidelobes fall below half an
    output LSB) counts as agreement; degradation beyond 0.5 dB does not.
    """
    if double_map is None:
        double_map = matched_filter_rd(cube, schedule, grid)
    counts: dict[str, int] = {}
    sizes: dict[str, int] = {}
    skipped = ("input", "post_ifft") if mode is FxpMode.CORE_ONLY else ()

    def stage(name: str, x: np.ndarray) -> np.ndarray:
        if name in skipped:
            return x
        values, counts[name] = quantize(x, fmt)
        sizes[name] = 2 * x.size  # re and im components
        return values

    fxp_map = RangeDopplerMap(
        values=_chain(cube, schedule, grid, True, stage),
        range_axis_m=double_map.range_axis_m,
        doppler_axis_mps=double_map.doppler_axis_mps,
    )

    err = double_map.values - fxp_map.values
    err_power = float(np.sum(err**2))
    sig_power = float(np.sum(double_map.values**2))
    sqnr = math.inf if err_power == 0.0 else 10.0 * math.log10(sig_power / err_power)
    det_d = detect_peak(double_map)
    det_f = detect_peak(fxp_map)
    agree = det_d.range_bin == det_f.range_bin and det_d.doppler_bin == det_f.doppler_bin
    pslr_d = pslr_db(double_map.range_cut(det_d.doppler_bin))
    pslr_f = pslr_db(fxp_map.range_cut(det_f.doppler_bin))
    delta = pslr_f - pslr_d
    pslr_ok = (math.isfinite(delta) and abs(delta) <= 0.5) or pslr_f >= pslr_d
    total = sum(counts.values())
    components = sum(sizes.values())
    frac = total / components if components else 0.0
    warning = (
        f"pervasive saturation: {frac:.2%} of quantized components clipped"
        if frac > 0.01
        else None
    )
    report = FxpReport(
        format=fmt,
        mode=mode,
        sqnr_db=sqnr,
        peak_bin_agree=agree,
        pslr_double_db=pslr_d,
        pslr_fxp_db=pslr_f,
        pslr_delta_db=delta,
        pslr_agree=pslr_ok,
        saturation_counts=counts,
        saturation_fraction=frac,
        warning=warning,
    )
    return fxp_map, report


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
    cube: DataCube,
    schedule: FrameSchedule,
    grid: DopplerGrid,
    formats,
    mode: FxpMode = FxpMode.FULL_CHAIN,
    double_map: RangeDopplerMap | None = None,
) -> SweepResult:
    """One quantized run per format, with timing, plus an SQNR monotonicity
    summary across word lengths. The double-precision map of the cube is
    computed once, before the timed runs, unless `double_map` passes it in."""
    formats = list(formats)
    if not formats:
        raise ParameterError("precision_sweep needs at least one format")
    if double_map is None:
        double_map = matched_filter_rd(cube, schedule, grid)
    rows = []
    for fmt in formats:
        start = time.perf_counter()
        _, report = quantized_matched_filter(cube, schedule, grid, fmt, mode, double_map)
        elapsed = time.perf_counter() - start
        rows.append(SweepRow(report=report, runtime_s=elapsed))
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

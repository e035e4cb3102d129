"""Range-Doppler processing chain and its brute-force verification oracle.

The fast path works in the fast-time frequency domain: FFT each packet,
multiply by the conjugate reference spectrum, steer across slow time for each
Doppler hypothesis, sum over packets, and IFFT back to range. Steering uses
the conjugate of the echo's Doppler rotation, exp(+j 2 pi f_j p T_pri). When
the Doppler grid coincides with the slow-time FFT bins the steering collapses
to an IFFT across packets; otherwise the steering matrix is applied directly.
The cube is P x Q, one packet per row. The FFT passes and products run in
contiguous blocks on ISACSIM_THREADS threads (every CPU the process may use
when it is unset); the map does not depend on the thread count. `fxp` runs
the same chain with quantizing hooks.

The oracle computes the same map by rolling time-domain references under each
packet, which is deliberately slow and shares no FFT code with the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import for_blocks
from .errors import DataError, NoDetectionError, OracleGuardError, ParameterError, ProcessingError
from .params import WaveformParams
from .scene import DataCube
from .waveform import FrameSchedule

# Largest Q*P*J the brute-force oracle will accept.
ORACLE_GUARD = 4_194_304


@dataclass(frozen=True)
class DopplerGrid:
    frequencies_hz: np.ndarray  # J hypotheses, uniform, monotone increasing
    spacing_hz: float
    fft_aligned: bool  # default_grid's J = P bins: steered by a slow-time IFFT

    def __post_init__(self):
        f = self.frequencies_hz
        if f.ndim != 1 or f.size < 1:
            raise ParameterError("Doppler grid must be a non-empty vector")
        if not np.isfinite(f).all():
            raise ParameterError("Doppler grid frequencies must be finite")
        if not (math.isfinite(self.spacing_hz) and self.spacing_hz > 0):
            raise ParameterError(
                f"Doppler grid spacing must be finite and positive, got {self.spacing_hz}"
            )
        if not np.allclose(np.diff(f), self.spacing_hz, rtol=1e-12, atol=0.0):
            raise ParameterError("Doppler grid must be uniform and increasing")

    def __len__(self) -> int:
        return self.frequencies_hz.size

    @property
    def zero_bin(self) -> int:
        """Index of the exact-zero Doppler hypothesis."""
        return int(self.frequencies_hz.size // 2)


def default_grid(params: WaveformParams) -> DopplerGrid:
    """FFT-equivalent grid: J = P bins at spacing 1/(P*T_pri), zero at J//2.

    Spans [-f_max, f_max - spacing] with f_max = 1/(2*T_pri).
    """
    p = params.packets_per_cpi
    spacing = 1.0 / (p * params.pri_s)
    freqs = (np.arange(p) - p // 2) * spacing
    return DopplerGrid(frequencies_hz=freqs, spacing_hz=spacing, fft_aligned=True)


def symmetric_grid(params: WaveformParams, bins: int) -> DopplerGrid:
    """Custom grid with an odd number of bins spanning [-f_max, +f_max]
    inclusive, zero at the center. Never FFT-aligned: its spacing
    1/((bins-1)*T_pri) differs from the FFT's 1/(P*T_pri) even at bins = P."""
    if bins < 3 or bins % 2 == 0:
        raise ParameterError("a custom Doppler grid needs an odd bin count >= 3")
    f_max = params.doppler_max_hz
    spacing = 2.0 * f_max / (bins - 1)
    freqs = (np.arange(bins) - bins // 2) * spacing
    return DopplerGrid(frequencies_hz=freqs, spacing_hz=spacing, fft_aligned=False)


@dataclass(frozen=True)
class RangeDopplerMap:
    values: np.ndarray           # J x Q magnitudes
    range_axis_m: np.ndarray     # Q entries
    doppler_axis_mps: np.ndarray # J entries

    def __post_init__(self):
        j, q = self.values.shape
        if self.range_axis_m.shape != (q,) or self.doppler_axis_mps.shape != (j,):
            raise ParameterError("axis lengths must match the map dimensions")

    def range_cut(self, doppler_bin: int) -> np.ndarray:
        """Range profile at one Doppler hypothesis."""
        return self.values[doppler_bin]


@dataclass(frozen=True)
class Detection:
    range_m: float
    velocity_mps: float
    peak_magnitude: float
    range_bin: int
    doppler_bin: int


def _axes(params: WaveformParams, grid: DopplerGrid) -> tuple[np.ndarray, np.ndarray]:
    range_axis = params.range_axis_m()
    doppler_axis = grid.frequencies_hz * params.wavelength_m / 2.0
    return range_axis, doppler_axis


def _check_schedule(cube: DataCube, schedule: FrameSchedule):
    """Raise ProcessingError unless the schedule's frames and packets match the cube."""
    p_len, q_len = cube.samples.shape
    if schedule.frames.shape[1] != q_len or len(schedule) != p_len:
        raise ProcessingError(
            f"schedule of {len(schedule.frames)} x {schedule.frames.shape[1]} frames over "
            f"{len(schedule)} packets does not match a {p_len} x {q_len} cube"
        )


def _chain(
    cube: DataCube,
    schedule: FrameSchedule,
    grid: DopplerGrid,
    dense: bool,
    stage,
    overwrite: bool = False,
):
    """The range-Doppler chain of both matched filters; returns the J x Q map.

    `overwrite` alone decides who owns the P x Q cube. When it is set, the
    fast-time FFT runs in place on `cube.samples`, which holds intermediate
    spectra afterwards; otherwise the FFT writes a P x Q buffer of the
    chain's own and the cube is only read. That one buffer carries the
    matched spectra and, on the FFT grid, the steered profiles. Dense
    steering writes Q x J sums instead, and the chain drops its names for the
    P x Q buffer and the P x J twiddles once steering is done, before the map
    is allocated.

    At each stage boundary the chain calls stage(name, x) on a C- or
    F-contiguous buffer it owns, which the hook may edit in place (`fxp`
    quantizes there); its return value is ignored. In order: "reference"
    (conjugate frame spectra), "post_fft" (P x Q), "twiddle" (dense only),
    "post_steering" and "post_ifft" (one Doppler hypothesis per row; in
    slow-time FFT order when not dense).

    Dense steering applies the P x J matrix; otherwise the grid must be
    `default_grid`'s and steering is a slow-time IFFT. Each pass runs in
    contiguous blocks on the ISACSIM_THREADS cores (`_threads.for_blocks`),
    and each block does the arithmetic of one whole pass, so no bit depends
    on the thread count.
    """
    params = cube.params
    p_len, q_len = cube.samples.shape
    j_len = len(grid)
    _check_schedule(cube, schedule)
    if not dense and not np.array_equal(grid.frequencies_hz, default_grid(params).frequencies_hz):
        raise ParameterError(
            f"a Doppler grid marked fft_aligned must be default_grid's {p_len} bins; "
            "build any other grid with fft_aligned=False"
        )
    ref = np.conj(np.fft.fft(schedule.frames, axis=1))  # U x Q
    stage("reference", ref)
    spectra = cube.samples if overwrite else np.empty((p_len, q_len), dtype=np.complex128)

    def fast_time(b):  # packets b
        np.fft.fft(cube.samples[b], axis=1, out=spectra[b])

    for_blocks(fast_time, p_len)
    stage("post_fft", spectra)

    def match(b):  # packets b: times the carried frames' reference
        spectra[b] *= ref[schedule.packet_map[b]]

    for_blocks(match, p_len)
    if dense:
        p_idx = np.arange(p_len) * params.pri_s
        w = np.exp(2j * np.pi * np.outer(p_idx, grid.frequencies_hz))  # P x J
        stage("twiddle", w)
        steered = np.empty((q_len, j_len), dtype=np.complex128)

        def steer(r):  # range bins r; a one-row product would take GEMV's path
            np.matmul(spectra[:, r].T, w, out=steered[r])

        for_blocks(steer, q_len, min_block=2)
        del spectra, w  # the steered sums replace them
        steered, shift = steered.T, 0  # J x Q view, no copy; bin j is row j
    else:
        # sum_p M[p,q] exp(+2 pi i p (j - J//2) / P) == P * ifft_p(M) reordered
        def steer(r):  # range bins r, in place
            np.fft.ifft(spectra[:, r], axis=0, out=spectra[:, r])
            spectra[:, r] *= p_len

        for_blocks(steer, q_len)
        steered, shift = spectra, j_len // 2  # bin j is row (j - J//2) % P
    stage("post_steering", steered)

    def range_ifft(b):  # Doppler rows b, in place
        np.fft.ifft(steered[b], axis=1, out=steered[b])

    for_blocks(range_ifft, len(steered))
    stage("post_ifft", steered)
    values = np.empty((j_len, q_len))

    def magnitude(b):  # Doppler bins b: one run of rows, or two where the rotation wraps
        start = (b.start - shift) % len(steered)
        split = min(b.stop, b.start + len(steered) - start)
        np.abs(steered[start : start + split - b.start], out=values[b.start : split])
        if split < b.stop:
            np.abs(steered[: b.stop - split], out=values[split : b.stop])

    for_blocks(magnitude, j_len)
    return values


def matched_filter_rd(
    cube: DataCube, schedule: FrameSchedule, grid: DopplerGrid, *, overwrite_cube: bool = False
) -> RangeDopplerMap:
    """Frequency-domain matched filter with Doppler steering.

    Each packet's spectrum is multiplied by the conjugate spectrum of the
    frame it carried. For each hypothesis f_j the matched spectra are weighted
    by exp(+j 2 pi f_j p T_pri), summed over packets, and IFFT'd to a range
    profile; the map stores magnitudes as J x Q.

    `cube.samples` is never written unless `overwrite_cube` is set: then the
    filter transforms the cube in place instead of a P x Q copy, and the cube
    holds intermediate spectra afterwards. The map is the same either way.
    """
    values = _chain(
        cube, schedule, grid, not grid.fft_aligned, lambda name, x: None, overwrite_cube
    )
    return RangeDopplerMap(values, *_axes(cube.params, grid))


def time_domain_oracle(
    cube: DataCube, schedule: FrameSchedule, grid: DopplerGrid
) -> RangeDopplerMap:
    """Brute-force reference: circular time-domain correlation per packet,
    then a directly accumulated Doppler-steered sum. Refuses instances with
    Q*P*J beyond ORACLE_GUARD."""
    params = cube.params
    q_len, p_len = params.samples_per_pri, params.packets_per_cpi
    j_len = len(grid)
    if q_len * p_len * j_len > ORACLE_GUARD:
        raise OracleGuardError(
            f"oracle instance Q*P*J = {q_len * p_len * j_len} exceeds the guard {ORACLE_GUARD}"
        )
    _check_schedule(cube, schedule)
    corr = np.empty((q_len, p_len), dtype=np.complex128)
    for u, ref in enumerate(schedule.frames):
        cols = np.nonzero(schedule.packet_map == u)[0]
        sub = cube.samples[cols].T.copy()  # Q x packets, fast time down the columns
        for k in range(q_len):
            rolled = np.conj(np.roll(ref, k))
            corr[k, cols] = rolled @ sub
    p_idx = np.arange(p_len) * params.pri_s
    w = np.exp(2j * np.pi * np.outer(p_idx, grid.frequencies_hz))  # P x J
    steered = corr @ w  # Q x J
    range_axis, doppler_axis = _axes(params, grid)
    return RangeDopplerMap(
        values=np.abs(steered).T.copy(),
        range_axis_m=range_axis,
        doppler_axis_mps=doppler_axis,
    )


def detect_peak(rd_map: RangeDopplerMap) -> Detection:
    """Global maximum of the map; ties break toward the smallest range bin,
    then the smallest Doppler bin. Raises DataError on a non-finite peak.

    One pass over the map takes the row maxima; only the Doppler rows that
    hold the peak are searched again, each for its first peak column.
    """
    values = rd_map.values
    row_peaks = values.max(axis=1)
    peak = row_peaks.max()
    if not np.isfinite(peak):
        raise DataError(f"range-Doppler map holds non-finite values (its maximum is {peak})")
    if peak == 0.0:
        raise NoDetectionError("range-Doppler map is identically zero")
    js = np.flatnonzero(row_peaks == peak)
    qs = (values[js] == peak).argmax(axis=1)  # first peak column of each row
    k = int(qs.argmin())  # smallest range bin, and of its rows the first
    j, q = int(js[k]), int(qs[k])
    return Detection(
        range_m=float(rd_map.range_axis_m[q]),
        velocity_mps=float(rd_map.doppler_axis_mps[j]),
        peak_magnitude=float(peak),
        range_bin=q,
        doppler_bin=j,
    )


def pslr_db(profile: np.ndarray, mainlobe_halfwidth_bins: int = 2) -> float:
    """Peak-to-sidelobe ratio of a range cut, in dB.

    20*log10(peak / max outside +-halfwidth bins around the peak). Returns
    +inf when everything outside the mainlobe is exactly zero (no sidelobe).
    """
    profile = np.asarray(profile, dtype=np.float64)
    hw = mainlobe_halfwidth_bins
    if hw < 0:
        raise ParameterError("mainlobe halfwidth must be non-negative")
    if profile.size < 2 * hw + 1:
        raise ParameterError(
            f"profile of {profile.size} bins cannot hold a +-{hw} bin mainlobe"
        )
    peak_bin = int(np.argmax(profile))
    peak = profile[peak_bin]
    mask = np.ones(profile.size, dtype=bool)
    mask[max(0, peak_bin - hw) : peak_bin + hw + 1] = False
    if not mask.any():
        raise ParameterError("mainlobe exclusion covers the whole profile")
    side = profile[mask].max()
    if side == 0.0:
        return math.inf
    return float(20.0 * np.log10(peak / side))


def peak_cut_pslr_db(rd_map: RangeDopplerMap, mainlobe_halfwidth_bins: int = 2) -> float:
    """PSLR of the range cut through the map's detected peak."""
    det = detect_peak(rd_map)
    return pslr_db(rd_map.range_cut(det.doppler_bin), mainlobe_halfwidth_bins)


def map_relative_deviation(a: RangeDopplerMap, b: RangeDopplerMap) -> float:
    """max |a - b| / max |b|; the oracle-equivalence metric."""
    denom = b.values.max()
    if denom == 0.0:
        return float(np.abs(a.values).max())
    return float(np.abs(a.values - b.values).max() / denom)

"""Range-Doppler processing chain and its brute-force verification oracle.

The fast path works in the fast-time frequency domain: FFT each packet,
multiply by the conjugate reference spectrum, steer across slow time for each
Doppler hypothesis, sum over packets, and IFFT back to range. Steering uses
the conjugate of the echo's Doppler rotation, exp(+j 2 pi f_j p T_pri). When
the Doppler grid is the FFT grid (`DopplerGrid(params)`, J = P bins on the
slow-time FFT's frequencies) the steering collapses to an IFFT across
packets; otherwise the steering matrix is applied directly. A grid is its
radar parameters and bin count, so a grid built for other parameters than
the cube's is refused.
The cube is P x Q, one packet per row. The FFT passes and products run in
contiguous blocks on ISACSIM_THREADS threads (every CPU the process may use
when it is unset); the map does not depend on the thread count. The filter
consumes its cube: every grid steers in one complex buffer and writes the
map over it, the cube itself when the grid has at most P bins, so such a
filter allocates no P x Q or J x Q array, and otherwise a J x Q buffer of
the chain's own. Every `DataCube` is C-contiguous complex128, so the chain
may own any cube it is handed. `fxp` runs the same chain with quantizing
hooks.

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

# Half-width of the range mainlobe `pslr_db` excludes around the peak, in bins.
PSLR_MAINLOBE_BINS = 2

# Packet rows per block of the dense twiddle's float64 phases: the phases
# of one block, not of all P rows, sit beside the P x J complex twiddle.
_TWIDDLE_ROWS = 64


@dataclass(frozen=True)
class DopplerGrid:
    """The J Doppler hypotheses of the matched-filter bank for `params`,
    uniform and increasing, zero at J//2.

    `bins` None is the FFT grid: J = P bins at spacing 1/(P*T_pri) over
    [-f_max, f_max - spacing] with f_max = 1/(2*T_pri), steered by a
    slow-time IFFT. An odd `bins` >= 3 spans [-f_max, +f_max] inclusive and
    is steered densely: its spacing 1/((bins-1)*T_pri) differs from the
    FFT's 1/(P*T_pri) even at bins = P.
    """

    params: WaveformParams
    bins: int | None = None

    def __post_init__(self):
        if self.bins is not None and (self.bins < 3 or self.bins % 2 == 0):
            raise ParameterError("a custom Doppler grid needs an odd bin count >= 3")

    @property
    def fft_aligned(self) -> bool:
        return self.bins is None

    def __len__(self) -> int:
        return self.params.packets_per_cpi if self.bins is None else self.bins

    @property
    def spacing_hz(self) -> float:
        if self.bins is None:
            return 1.0 / (self.params.packets_per_cpi * self.params.pri_s)
        return 2.0 * self.params.doppler_max_hz / (self.bins - 1)

    @property
    def frequencies_hz(self) -> np.ndarray:
        return (np.arange(len(self)) - self.zero_bin) * self.spacing_hz

    @property
    def zero_bin(self) -> int:
        """Index of the exact-zero Doppler hypothesis."""
        return len(self) // 2


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


def _check_inputs(cube: DataCube, schedule: FrameSchedule, grid: DopplerGrid):
    """Raise ProcessingError unless the schedule's frames and packets and
    the grid's radar parameters match the cube."""
    if grid.params != cube.params:
        raise ProcessingError(
            "the Doppler grid was built for other radar parameters than the cube's"
        )
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
):
    """The range-Doppler chain of both matched filters; returns the J x Q map.

    The chain consumes the cube and works in one complex buffer, `buf`.
    With at most P bins `buf` is `cube.samples` (C-contiguous complex128,
    as `DataCube` makes every cube) and the fast-time FFT runs in place;
    otherwise (J > P) it is a J x Q buffer of the chain's own, into which
    the fast-time FFT reads the cube. Its first P rows carry the
    matched spectra and its first J rows the steered profiles, bin j in row
    (j - J//2) % J on every grid; `_magnitude_over` then writes the map over
    it, so the map is a C-contiguous float64 view of `buf`. A map of the
    chain's own buffer keeps that buffer alive, twice the map's bytes. The
    matched multiply scales each packet's row in place by the
    reference row of the frame it carried: it copies no block of packets or
    of reference rows, and a row stays in cache from its read to its write.

    At each stage boundary the chain calls stage(name, x) on a C-contiguous
    buffer it owns, which the hook may edit in place (`fxp` quantizes
    there); its return value is ignored. In order: "reference" (conjugate
    frame spectra), "post_fft" (P x Q), "twiddle" (P x J, dense only),
    "post_steering" and "post_ifft" (J x Q, one Doppler hypothesis per row
    in the rotated order above). All but "reference" and "twiddle" are rows
    of `buf`.

    Dense steering applies the P x J matrix to each block of range columns
    and writes the block's sums back into `buf` rotated; otherwise the grid
    must be the FFT grid and steering is a slow-time IFFT, whose bins
    come out in that order already. Each pass runs in contiguous blocks on
    the ISACSIM_THREADS cores (`_threads.for_blocks`), cut by the pass's
    length alone. So no bit depends on the thread count, even where a
    blocked product's bits depend on its block, as dense steering's do on
    some BLAS kernels; they may differ between kernels.
    """
    params = cube.params
    p_len, q_len = cube.samples.shape
    j_len = len(grid)
    _check_inputs(cube, schedule, grid)
    ref = np.conj(np.fft.fft(schedule.frames, axis=1))  # U x Q
    stage("reference", ref)
    buf = cube.samples if j_len <= p_len else np.empty((j_len, q_len), dtype=np.complex128)
    spectra = buf[:p_len]

    def fast_time(b):  # packets b
        np.fft.fft(cube.samples[b], axis=1, out=spectra[b])

    for_blocks(fast_time, p_len)
    stage("post_fft", spectra)

    frame_of = schedule.packet_map.tolist()

    def match(b):  # packets b, a row at a time: times its frame's reference row
        for p in range(b.start, b.stop):
            spectra[p] *= ref[frame_of[p]]

    for_blocks(match, p_len)
    steered = buf[:j_len]
    if dense:
        p_idx = np.arange(p_len) * params.pri_s
        w = np.empty((p_len, j_len), dtype=np.complex128)
        for lo in range(0, p_len, _TWIDDLE_ROWS):  # phases a block of rows at a time
            b = slice(lo, lo + _TWIDDLE_ROWS)
            np.multiply(2j * np.pi, np.outer(p_idx[b], grid.frequencies_hz), out=w[b])
        np.exp(w, out=w)
        stage("twiddle", w)
        h = j_len // 2

        def steer(r):  # range bins r; a one-row product would take GEMV's path
            sums = np.matmul(spectra[:, r].T, w)  # bins r x J
            steered[: j_len - h, r] = sums[:, h:].T
            steered[j_len - h :, r] = sums[:, :h].T

        for_blocks(steer, q_len, min_block=2)
    else:
        # sum_p M[p,q] exp(+2 pi i p (j - J//2) / P) == P * ifft_p(M) reordered
        def steer(r):  # range bins r, in place
            np.fft.ifft(spectra[:, r], axis=0, out=spectra[:, r])
            spectra[:, r] *= p_len

        for_blocks(steer, q_len)
    stage("post_steering", steered)

    def range_ifft(b):  # Doppler rows b, in place
        np.fft.ifft(steered[b], axis=1, out=steered[b])

    for_blocks(range_ifft, j_len)
    stage("post_ifft", steered)
    return _magnitude_over(buf, j_len)


def _magnitude_over(buf: np.ndarray, j_len: int) -> np.ndarray:
    """The J x Q map, written over the C-contiguous complex buffer whose
    first J rows hold the steered profiles, bin j in row (j - J//2) % J:
    map row j = |buf[(j - J//2) % J]|.

    Seen as slots of Q float64s, complex row s fills slots 2s and 2s + 1
    and map row j slot j, so the map is the first J slots, a C-contiguous
    view of the buffer.
    """
    q_len = buf.shape[1]
    shift = j_len // 2
    slots = buf.view(np.float64).reshape(-1, q_len)
    temp = np.empty(q_len)
    # Sources s < J - shift go to slot s + shift, the highest first. With
    # shift = J // 2 >= s, 2s <= s + shift < J: a write lands neither below
    # 2s, in the slots of the sources still unread below s, nor from
    # 2(J - shift) >= J on, in those of the sources read last. Only a
    # destination within s's own slots (2s or 2s + 1) needs the temporary:
    # numpy does not buffer a destination that starts inside its source.
    for s in range(j_len - shift - 1, -1, -1):
        if s + shift <= 2 * s + 1:
            np.abs(buf[s], out=temp)
            slots[s + shift] = temp
        else:
            np.abs(buf[s], out=slots[s + shift])
    # Sources s >= J - shift go to slots [0, shift); theirs start at
    # 2(J - shift) >= J, beyond every destination.
    for s in range(j_len - shift, j_len):
        np.abs(buf[s], out=slots[s + shift - j_len])
    return slots[:j_len]


def matched_filter_rd(
    cube: DataCube, schedule: FrameSchedule, grid: DopplerGrid
) -> RangeDopplerMap:
    """Frequency-domain matched filter with Doppler steering.

    Each packet's spectrum is multiplied by the conjugate spectrum of the
    frame it carried. For each hypothesis f_j the matched spectra are weighted
    by exp(+j 2 pi f_j p T_pri), summed over packets, and IFFT'd to a range
    profile; the map stores magnitudes as J x Q.

    The filter consumes `cube`, as `scipy.fft`'s `overwrite_x` lets a
    transform do: on a grid of at most P bins it transforms `cube.samples`
    in place and writes the map over it, so the map's values are a view of
    the cube's memory; on more bins it writes the map over a buffer of its
    own, which the map keeps alive. Afterwards nothing may read or write
    `cube.samples`; pass a copy to keep the echo.
    """
    values = _chain(cube, schedule, grid, not grid.fft_aligned, lambda name, x: None)
    return RangeDopplerMap(values, *_axes(cube.params, grid))


def check_oracle_guard(grid: DopplerGrid):
    """Raise OracleGuardError when the oracle's Q*P*J on `grid`'s radar
    parameters exceeds ORACLE_GUARD, before any cube needs to exist."""
    work = grid.params.samples_per_pri * grid.params.packets_per_cpi * len(grid)
    if work > ORACLE_GUARD:
        raise OracleGuardError(f"oracle instance Q*P*J = {work} exceeds the guard {ORACLE_GUARD}")


def time_domain_oracle(
    cube: DataCube, schedule: FrameSchedule, grid: DopplerGrid
) -> RangeDopplerMap:
    """Brute-force reference: circular time-domain correlation per packet,
    then a directly accumulated Doppler-steered sum. Refuses instances with
    Q*P*J beyond ORACLE_GUARD."""
    check_oracle_guard(grid)
    _check_inputs(cube, schedule, grid)
    params = cube.params
    q_len, p_len = params.samples_per_pri, params.packets_per_cpi
    corr = np.empty((q_len, p_len), dtype=np.complex128)
    for u, ref in enumerate(schedule.frames):
        cols = np.nonzero(schedule.packet_map == u)[0]
        sub = cube.samples[cols].T.copy()  # Q x packets, fast time down the columns
        for k in range(q_len):
            rolled = np.conj(np.roll(ref, k))
            corr[k, cols] = rolled @ sub
    del sub  # the last frame's packets, dead before the steering product
    p_idx = np.arange(p_len) * params.pri_s
    w = np.exp(2j * np.pi * np.outer(p_idx, grid.frequencies_hz))  # P x J
    range_axis, doppler_axis = _axes(params, grid)
    return RangeDopplerMap(
        values=np.abs(corr @ w).T.copy(),  # the Q x J steered sums, dead after abs
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


def pslr_db(profile: np.ndarray) -> float:
    """Peak-to-sidelobe ratio of a range cut, in dB.

    20*log10(peak / max outside +-PSLR_MAINLOBE_BINS bins around the peak).
    Returns +inf when everything outside the mainlobe is exactly zero (no
    sidelobe).
    """
    profile = np.asarray(profile, dtype=np.float64)
    hw = PSLR_MAINLOBE_BINS
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


def map_relative_deviation(a: RangeDopplerMap, b: RangeDopplerMap) -> float:
    """max |a - b| / max |b|; the oracle-equivalence metric."""
    denom = b.values.max()
    if denom == 0.0:
        return float(np.abs(a.values).max())
    return float(np.abs(a.values - b.values).max() / denom)

"""Property tests over random packet counts, all four schedules and random
scenes: the packet map, echo synthesis of point and cluster targets, the
shared noise block against the per-packet draw, oracle equivalence,
localization of on-grid point targets within one bin, the one-pass peak
detector against a sorted search over every peak cell, the quantizer
against its mantissa round trip, and the block-parallel double and
fixed-point matched filters against their serial forms; the CSV formatter
and its threaded writer against np.savetxt; and the config text, which
renders and parses back to the same config and rejects any other input with a
ConfigError only."""

import dataclasses
import io
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import isacsim as iz
import isacsim._csvformat as csvformat
from isacsim import fxp, rsp
from isacsim._csvformat import CHUNK_VALUES, DIGITS, write_rows
from isacsim._threads import slices
from isacsim.config import _SECTIONS, MIN_SAMPLES_PER_PRI
from oracle_cases import KINDS, map_of, random_case

PRI_S = 512 / 1.76e9  # Q = 512

kinds = st.sampled_from(KINDS)
packets = st.integers(min_value=1, max_value=300)
deterministic = settings(max_examples=40, deadline=None, derandomize=True)


def params_for(p_count: int) -> iz.WaveformParams:
    return iz.WaveformParams(pri_s=PRI_S, cpi_s=p_count * PRI_S, code_length=128)


@deterministic
@given(kind=kinds, p_count=packets)
def test_packet_map_orders_the_frames(kind, p_count):
    sched = iz.build_schedule(kind, params_for(p_count), seed=7)
    transmitted = sched.frames[sched.packet_map]
    assert transmitted.shape == (p_count, 512)
    if kind in (iz.ScheduleKind.FMCW, iz.ScheduleKind.PMCW):
        assert len(sched.frames) == 1
        assert (transmitted == transmitted[0]).all()
        return
    pair = iz.golay_pair(7)
    a, b = sched.frames
    assert np.array_equal(a[:128], pair.a) and np.array_equal(b[:128], pair.b)
    if kind is iz.ScheduleKind.GOLAY_STANDARD:
        carries_b = np.arange(p_count) % 2 == 1  # a, b, a, b, ...
    else:
        carries_b = iz.ptm_sequence(p_count) == 1
    for p in range(p_count):
        assert np.array_equal(transmitted[p], b if carries_b[p] else a)


def reference_echo(schedule, targets, params, path_loss=iz.PathLoss.INVERSE_SQUARE):
    """Per packet and per scatterer: the carried frame, delayed and rotated."""
    q_len, p_len = params.samples_per_pri, params.packets_per_cpi
    transmitted = schedule.frames[schedule.packet_map]
    cube = np.zeros((q_len, p_len), dtype=np.complex128)
    for target in targets:
        for sc in target.scatterers:
            r0 = sc.range_m
            qb = iz.delay_bin(r0, params)
            sigma = sc.reflectivity
            if path_loss is iz.PathLoss.INVERSE_SQUARE:
                sigma = sigma / r0**2
            for p in range(p_len):
                r_p = np.linalg.norm(sc.position_m + sc.velocity_mps * p * params.pri_s)
                rotation = np.exp(-4j * np.pi * (r_p - r0) / params.wavelength_m)
                cube[qb:, p] += sigma * transmitted[p, : q_len - qb] * rotation
    return cube


@deterministic
@given(
    kind=kinds,
    p_count=st.integers(min_value=1, max_value=40),
    ranges=st.lists(st.floats(min_value=1.0, max_value=20.0), min_size=1, max_size=3),
    speed=st.floats(min_value=-200.0, max_value=200.0),
)
def test_synthesis_matches_per_scatterer_reference(kind, p_count, ranges, speed):
    params = params_for(p_count)
    sched = iz.build_schedule(kind, params, seed=3)
    positions = [np.array([r, 1.0, 0.0]) for r in ranges]
    targets = [iz.point_target(pos, speed * pos / np.linalg.norm(pos)) for pos in positions]
    cube = iz.synthesize_echo(sched, targets, params)
    expected = reference_echo(sched, targets, params)
    # ranges round to about 1e-15 m, and 4 pi / lambda turns that into a
    # phase error near 1e-11 rad
    tolerance = 1e-10 * np.abs(expected).max()
    np.testing.assert_allclose(cube.samples.T, expected, rtol=0, atol=tolerance)


@deterministic
@given(
    kind=kinds,
    p_count=st.integers(min_value=1, max_value=40),
    cluster=st.sampled_from(["car", "pedestrian"]),
    count=st.integers(min_value=4, max_value=16),
    distance=st.floats(min_value=5.0, max_value=20.0),
    azimuth=st.floats(min_value=-np.pi, max_value=np.pi),
    speed=st.floats(min_value=-30.0, max_value=30.0),
    seed=st.integers(min_value=0, max_value=2**16),
    path_loss=st.sampled_from(list(iz.PathLoss)),
)
def test_cluster_synthesis_matches_per_scatterer_reference(
    kind, p_count, cluster, count, distance, azimuth, speed, seed, path_loss
):
    params = params_for(p_count)
    sched = iz.build_schedule(kind, params, seed=3)
    center = np.array([distance * np.cos(azimuth), distance * np.sin(azimuth), 0.5])
    if cluster == "car":
        target = iz.make_car(center, seed=seed, speed_mps=speed, count=count)
    else:
        target = iz.make_pedestrian(center, seed=seed, speed_mps=speed)
    cube = iz.synthesize_echo(sched, [target], params, path_loss=path_loss).samples.T
    expected = reference_echo(sched, [target], params, path_loss)
    tolerance = 1e-10 * np.abs(expected).max()
    np.testing.assert_allclose(cube, expected, rtol=0, atol=tolerance)
    nearest = min(iz.delay_bin(sc.range_m, params) for sc in target.scatterers)
    assert not cube[:nearest].any()


@deterministic
@given(kind=kinds, p_count=packets)
def test_empty_scene_synthesizes_an_exactly_zero_cube(kind, p_count):
    params = params_for(p_count)
    sched = iz.build_schedule(kind, params, seed=3)
    assert not iz.synthesize_echo(sched, [], params).samples.any()


def serial_noisy_cube(schedule, targets, params, snr_db, seed, path_loss):
    """The reference: the clean echo plus noise drawn one packet column at a
    time, as synthesis did before the noise became one shared block."""
    cube = iz.synthesize_echo(schedule, targets, params, path_loss=path_loss).samples.T.copy()
    sigmas = []
    for target in targets:
        for sc in target.scatterers:
            sigma = sc.reflectivity
            if path_loss is iz.PathLoss.INVERSE_SQUARE:
                sigma = sigma / sc.range_m**2
            sigmas.append(sigma)
    strongest = max((abs(sigma) for sigma in sigmas), default=0.0)
    q_len, p_len = params.samples_per_pri, params.packets_per_cpi
    ref_power = params.amplitude**2 * (strongest**2 if strongest > 0 else 1.0)
    noise_power = ref_power / 10.0 ** (snr_db / 10.0)
    scale = np.sqrt(noise_power / 2.0)
    child_seeds = np.random.SeedSequence(seed).spawn(p_len)
    for p, ss in enumerate(child_seeds):
        rng = np.random.default_rng(ss)
        cube[:, p] += scale * (rng.standard_normal(q_len) + 1j * rng.standard_normal(q_len))
    return cube


@pytest.mark.parametrize("threads", ["1", "2", "3", "5"])
@pytest.mark.parametrize("scene", ["none", "point", "pedestrian"])
@pytest.mark.parametrize("path_loss", list(iz.PathLoss))
def test_shared_noise_block_equals_the_per_packet_draw(threads, scene, path_loss):
    targets = {
        "none": [],
        "point": [iz.point_target([6.0, 2.0, 0.0], [1.5, 0.5, 0.0], rcs_dbsm=3.0)],
        "pedestrian": [iz.make_pedestrian([0.0, 8.0, 0.0], seed=4, speed_mps=-1.0)],
    }[scene]
    before = threading.active_count()
    for p_count, kind in zip([2, 3, 13, 37], KINDS):
        params = params_for(p_count)
        sched = iz.build_schedule(kind, params, seed=5)
        expected = serial_noisy_cube(sched, targets, params, 7.5, 19, path_loss)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ISACSIM_THREADS", threads)
            block = iz.noise_block(targets, params, 7.5, 19, path_loss)
            own = iz.synthesize_echo(
                sched, targets, params, path_loss=path_loss,
                noise=iz.noise_block(targets, params, 7.5, 19, path_loss),
            )
            shared = iz.synthesize_echo(sched, targets, params, path_loss=path_loss, noise=block)
        assert block.T.shape == (params.samples_per_pri, p_count)
        assert np.array_equal(own.samples.T, expected)
        assert np.array_equal(shared.samples.T, expected)
        if not targets:
            assert np.array_equal(block.T, expected)
    assert threading.active_count() == before


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fast_path_matches_the_oracle(seed):
    cube, schedule, grid = random_case(np.random.default_rng(seed))
    slow = iz.time_domain_oracle(cube, schedule, grid)  # before the filter consumes the cube
    fast = iz.matched_filter_rd(cube, schedule, grid)
    assert iz.map_relative_deviation(fast, slow) < 1e-6


LOCALIZATION_PARAMS = iz.WaveformParams(pri_s=PRI_S, cpi_s=16 * PRI_S, code_length=256)


@deterministic
@given(
    delay=st.integers(min_value=1, max_value=512 - 256),  # the echo stays in the window
    doppler=st.integers(min_value=-7, max_value=7),  # FFT bins inside the ambiguity limit
    azimuth=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_on_grid_point_targets_are_located_within_one_bin(delay, doppler, azimuth):
    params = LOCALIZATION_PARAMS
    grid = iz.DopplerGrid(params)
    distance = delay * iz.SPEED_OF_LIGHT_MPS * params.sample_period_s / 2.0
    unit = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
    speed = grid.frequencies_hz[grid.zero_bin + doppler] * params.wavelength_m / 2.0
    targets = [iz.point_target(distance * unit, speed * unit)]  # noise off
    for kind in KINDS:
        sched = iz.build_schedule(kind, params, seed=11)
        cube = iz.synthesize_echo(sched, targets, params)
        det = iz.detect_peak(iz.matched_filter_rd(cube, sched, grid))
        assert abs(det.range_bin - delay) <= 1, kind
        assert abs(det.doppler_bin - (grid.zero_bin + doppler)) <= 1, kind


def reference_detect_peak(rd_map):
    """The reference: every cell equal to the maximum from np.nonzero, sorted
    by range bin and then Doppler bin with np.lexsort."""
    values = rd_map.values
    peak = values.max()
    if not np.isfinite(peak):
        raise iz.DataError(f"range-Doppler map holds non-finite values (its maximum is {peak})")
    if peak == 0.0:
        raise iz.NoDetectionError("range-Doppler map is identically zero")
    js, qs = np.nonzero(values == peak)
    order = np.lexsort((js, qs))
    j, q = int(js[order[0]]), int(qs[order[0]])
    return iz.Detection(
        range_m=float(rd_map.range_axis_m[q]),
        velocity_mps=float(rd_map.doppler_axis_mps[j]),
        peak_magnitude=float(peak),
        range_bin=q,
        doppler_bin=j,
    )


@st.composite
def peak_maps(draw):
    """A J x Q map of at most three levels, so the peak ties across rows and
    columns (one level: an all-equal map, zero among them), with up to two
    planted NaN or +-inf cells; C or Fortran order, on the FFT grid of its
    shape."""
    j, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    levels = draw(
        st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0]), min_size=1, max_size=3)
    )
    values = np.array(draw(st.lists(st.sampled_from(levels), min_size=j * q, max_size=j * q)))
    values = values.reshape(j, q)
    for bad in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2)):
        values[draw(st.integers(0, j - 1)), draw(st.integers(0, q - 1))] = bad
    if draw(st.booleans()):
        values = np.asfortranarray(values)
    return map_of(values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(peak_maps())
def test_one_pass_detect_peak_equals_the_sorted_search(rd_map):
    try:
        expected = reference_detect_peak(rd_map)
    except (iz.DataError, iz.NoDetectionError) as exc:
        with pytest.raises(type(exc)) as info:
            iz.detect_peak(rd_map)
        assert str(info.value) == str(exc)
        return
    assert iz.detect_peak(rd_map) == expected


def blocked_product(a, b):
    """a @ b, its rows cut as the filter cuts its range bins: the bits of a
    BLAS product may depend on the rows it is given, but not on the thread
    count that runs the blocks."""
    return np.concatenate([a[r] @ b for r in slices(len(a), 2)])


def serial_matched_filter(cube, schedule, grid):
    """The reference: the matched filter as one pass per stage on one
    thread, the dense steering product cut into the filter's row blocks."""
    params = cube.params
    p_len = params.packets_per_cpi
    spectra = np.fft.fft(cube.samples.T, axis=0)
    ref = np.conj(np.fft.fft(schedule.frames, axis=1))
    matched = spectra
    matched *= ref[schedule.packet_map].T
    j_len = len(grid)
    if grid.fft_aligned:
        steered_all = np.fft.ifft(matched, axis=1)
        steered_all *= p_len
        cols = (np.arange(j_len) - j_len // 2) % p_len
        steered = steered_all[:, cols]
    else:
        p_idx = np.arange(p_len) * params.pri_s
        w = np.exp(2j * np.pi * np.outer(p_idx, grid.frequencies_hz))
        steered = blocked_product(matched, w)
    profiles = np.fft.ifft(steered, axis=0)
    return np.abs(profiles).T.copy()


PRIMES_TO_40 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def noise_or_none(params, snr_db, targets):
    """The scene's noise block under seed 11, None with the noise off."""
    if snr_db is None:
        return None
    return iz.noise_block(targets, params, snr_db, 11)


@deterministic
@given(
    kind=kinds,
    p_count=st.one_of(st.sampled_from(PRIMES_TO_40), st.integers(min_value=2, max_value=40)),
    bins=st.one_of(st.none(), st.integers(min_value=1, max_value=40).map(lambda k: 2 * k + 1)),
    threads=st.sampled_from(["1", "2", "3", "5"]),
    distance=st.floats(min_value=1.0, max_value=30.0),
    speed=st.floats(min_value=-200.0, max_value=200.0),
    snr_db=st.one_of(st.none(), st.floats(min_value=-10.0, max_value=30.0)),
)
def test_block_parallel_filter_equals_the_serial_filter(
    kind, p_count, bins, threads, distance, speed, snr_db
):
    params = params_for(p_count)
    sched = iz.build_schedule(kind, params, seed=5)
    grid = iz.DopplerGrid(params, bins)
    pos = np.array([distance, 2.0, 0.0])
    target = iz.point_target(pos, speed * pos / np.linalg.norm(pos))
    cube = iz.synthesize_echo(sched, [target], params, noise=noise_or_none(params, snr_db, [target]))
    expected = serial_matched_filter(cube, sched, grid)
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ISACSIM_THREADS", threads)
        values = iz.matched_filter_rd(cube, sched, grid).values
    assert threading.active_count() == before
    assert values.shape == expected.shape and values.dtype == expected.dtype
    assert np.array_equal(values, expected)


@deterministic
@given(
    kind=kinds,
    p_count=st.integers(min_value=1, max_value=40),
    code_length=st.sampled_from([2, 4, 8, 128]),
    distance=st.floats(min_value=2.0, max_value=20.0),
    speed=st.floats(min_value=-30.0, max_value=30.0),
    seed=st.integers(min_value=0, max_value=2**16),
    bins=st.integers(min_value=1, max_value=40).map(lambda k: 2 * k + 1),
)
def test_row_blocked_products_do_not_depend_on_the_thread_count(
    kind, p_count, code_length, distance, speed, seed, bins
):
    # a pedestrian's 27 scatterers span about 25 delay bins, so with short
    # codes the synthesis band is a few dozen rows and 5 workers cut it into
    # blocks of one or two: every block must still take the GEMM's path
    params = iz.WaveformParams(pri_s=PRI_S, cpi_s=p_count * PRI_S, code_length=code_length)
    sched = iz.build_schedule(kind, params, seed=3)
    targets = [iz.make_pedestrian([distance, 1.0, 0.0], seed=seed, speed_mps=speed)]
    grid = iz.DopplerGrid(params, bins)
    cubes, maps = [], []
    for threads in ("1", "2", "5"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ISACSIM_THREADS", threads)
            cube = iz.synthesize_echo(sched, targets, params)
            cubes.append(cube.samples)
            maps.append(iz.matched_filter_rd(cube, sched, grid).values)
    assert all(np.array_equal(cubes[0], cube) for cube in cubes[1:])
    assert all(np.array_equal(maps[0], values) for values in maps[1:])


@pytest.mark.parametrize("cluster", ["pedestrian", "car"])
def test_ci_scale_cluster_cube_and_dense_map_do_not_depend_on_the_thread_count(
    cluster, ci_params
):
    center = np.array([18.0, 6.0, 0.0])
    if cluster == "car":
        target = iz.make_car(center, seed=301, speed_mps=10.0, count=64)
    else:
        target = iz.make_pedestrian(center, seed=3, speed_mps=2.0)
    noise = iz.noise_block([target], ci_params, 20.0, 11)
    grid = iz.DopplerGrid(ci_params, 63)
    for kind in KINDS:
        sched = iz.build_schedule(kind, ci_params, seed=7)
        cubes, maps = [], []
        for threads in ("1", "2", "5"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("ISACSIM_THREADS", threads)
                cube = iz.synthesize_echo(sched, [target], ci_params, noise=noise)
                cubes.append(cube.samples)
                maps.append(iz.matched_filter_rd(cube, sched, grid).values)
        assert all(np.array_equal(cubes[0], cube) for cube in cubes[1:]), kind
        assert all(np.array_equal(maps[0], values) for values in maps[1:]), kind


def reference_quantize(signal, fmt):
    """The reference: the quantizer as integer-valued float64 mantissas per
    component, each rounded, counted and clipped in its own arrays, then
    (re + 1j * im) * step * scale under the max-abs scale."""
    x = np.asarray(signal, dtype=np.complex128)
    if not np.all(np.isfinite(x.real)) or not np.all(np.isfinite(x.imag)):
        raise iz.DataError("quantizer input contains non-finite values")
    m = max(np.abs(x.real).max(initial=0.0), np.abs(x.imag).max(initial=0.0))
    scale = m / fmt.max_value if m > 0.0 else 1.0
    bot = -(2.0 ** (fmt.word_bits - 1))
    top = 2.0 ** (fmt.word_bits - 1) - 1.0
    if top >= 2.0 ** (fmt.word_bits - 1):  # W > 53: the largest float below 2**(W-1)
        top = np.nextafter(2.0 ** (fmt.word_bits - 1), 0.0)
    unit = fmt.step * scale
    saturated = 0
    mants = []
    for comp in (x.real, x.imag):
        raw = comp / unit
        np.rint(raw, out=raw)
        clipped = (raw > top) | (raw < bot)
        saturated += int(clipped.sum())
        np.clip(raw, bot, top, out=raw)
        raw += 0.0
        mants.append(raw)
    return (mants[0] + 1j * mants[1]) * unit, saturated


@st.composite
def quantizer_inputs(draw):
    """A format and a signal of zeros, -0.0, half-step ties and magnitudes
    from 1e-30 to 1e30, laid out as a 0-d, contiguous or strided array (the
    view and the array it views).

    A pinned signal holds a component of magnitude s * max_value, s a power
    of two, and none larger, so the max-abs scale is exactly s and the
    half-step values are exact ties on the format grid."""
    word_bits = draw(st.integers(min_value=2, max_value=64))
    fmt = iz.FixedPointFormat(word_bits, draw(st.integers(min_value=1, max_value=word_bits)))
    pinned = draw(st.booleans())
    if pinned:
        scale = 2.0 ** draw(st.integers(min_value=-20, max_value=20))
    else:
        scale = draw(st.floats(min_value=1e-6, max_value=1e6))
    unit = fmt.step * scale
    component = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.builds(
            lambda sign, mag: sign * mag,
            st.sampled_from([-1.0, 1.0]),
            st.floats(min_value=1e-30, max_value=1e30),
        ),
        st.integers(min_value=-(2**10), max_value=2**10).map(lambda k: (k + 0.5) * unit),
    )
    layout = draw(st.sampled_from(["0-d", "contiguous", "strided", "transposed"]))
    shape = () if layout == "0-d" else (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = math.prod(shape)
    re = draw(st.lists(component, min_size=n, max_size=n))
    im = draw(st.lists(component, min_size=n, max_size=n))
    if pinned:
        top = scale * fmt.max_value
        re, im = ([min(max(c, -top), top) for c in comps] for comps in (re, im))
        # element 0 lies in every view below
        draw(st.sampled_from([re, im]))[0] = draw(st.sampled_from([top, -top]))
    base = (np.array(re) + 1j * np.array(im)).reshape(shape)
    if layout == "strided":
        return fmt, base, base[:, ::2]
    if layout == "transposed":
        return fmt, base, base.T
    return fmt, base, base


@settings(max_examples=300, deadline=None, derandomize=True)
@given(quantizer_inputs())
def test_quantize_equals_the_mantissa_round_trip(case):
    fmt, base, x = case
    before = base.tobytes()
    values, saturated = iz.quantize(x, fmt)
    # the reference's out= passes reject the 0-d scalars a 0-d input divides into
    flat = x.reshape(x.shape or (1,))
    expected, expected_saturated = reference_quantize(flat, fmt)
    expected = expected.reshape(x.shape)
    assert base.tobytes() == before  # the input is never written
    assert values.shape == x.shape and values.dtype == np.complex128
    assert values.tobytes() == expected.tobytes()  # -0.0 and +0.0 differ here
    assert saturated == expected_saturated


@pytest.mark.parametrize("word_bits", [12, 24, 52, 53, 56, 60, 64])
def test_max_abs_scaling_clips_only_past_float_precision(word_bits):
    """Max-abs scaling puts the largest component on the top mantissa, so a
    component clips only when float rounding lifts it past that mantissa:
    never at W <= 52, sometimes from W = 53 on."""
    rng = np.random.default_rng(word_bits)
    fmt = iz.FixedPointFormat(word_bits, 1)
    total = 0
    for _ in range(50):
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        values, saturated = iz.quantize(x, fmt)
        expected, expected_saturated = reference_quantize(x, fmt)
        assert values.tobytes() == expected.tobytes()
        assert saturated == expected_saturated
        total += saturated
    assert (total > 0) == (word_bits >= 53)


@pytest.mark.parametrize(
    "max_abs, word_bits, integer_bits",
    [
        (1e-310, 8, 1),  # a subnormal max-abs and unit
        (1e-310, 24, 3),
        (1e-310, 40, 1),  # a unit of a few smallest subnormals
        (5e-324, 2, 1),  # the smallest subnormal: unit 5e-324, mantissas -2..1
        (5e-324, 2, 2),
        (1.0, 64, 1),  # a normal max-abs over a unit of 1e-19
    ],
)
def test_quantize_at_subnormal_scales_equals_the_mantissa_round_trip(
    max_abs, word_bits, integer_bits
):
    """Products of a mantissa and a subnormal unit: small negatives, -0.0
    and ties must come out as the reference's, never as -0.0."""
    fmt = iz.FixedPointFormat(word_bits, integer_bits)
    rng = np.random.default_rng(word_bits)
    comps = max_abs * rng.uniform(-1.0, 1.0, 200)
    comps[:8] = [max_abs, -max_abs, 0.0, -0.0, -max_abs / 3, max_abs / 2, -5e-324, 5e-324]
    x = comps[:100] + 1j * comps[100:]
    values, saturated = iz.quantize(x, fmt)
    expected, expected_saturated = reference_quantize(x, fmt)
    assert fmt.step * (max_abs / fmt.max_value) > 0.0  # a unit of zero is out of range
    assert values.tobytes() == expected.tobytes()
    assert saturated == expected_saturated
    assert not np.signbit(values.real[values.real == 0.0]).any()
    assert not np.signbit(values.imag[values.imag == 0.0]).any()


@pytest.mark.parametrize("word_bits", [16, 53, 60, 64])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_quantize_across_chunks_equals_the_mantissa_round_trip(word_bits, layout):
    """An array of several of the quantizer's chunks. At <64,1> the max-abs
    8.0 lands on mantissa 2**63, one past the top, so each planted +8.0
    clips, in every chunk; its -8.0 lands on the bottom mantissa."""
    fmt = iz.FixedPointFormat(word_bits, 1)
    rng = np.random.default_rng(word_bits)
    base = rng.standard_normal((3, 50_000)) + 1j * rng.standard_normal((3, 50_000))
    base[:, ::997] = 8.0 - 8.0j
    x = base.T if layout == "transposed" else base
    before = base.tobytes()
    values, saturated = iz.quantize(x, fmt)
    expected, expected_saturated = reference_quantize(x, fmt)
    assert base.tobytes() == before
    assert values.tobytes() == expected.tobytes()
    assert saturated == expected_saturated
    if word_bits == 16:
        assert saturated == 0
    if word_bits == 64:
        assert saturated == base[:, ::997].size


def serial_quantized_chain(cube, schedule, grid, fmt, mode):
    """The reference: the fixed-point chain as one pass per stage on one
    thread, with its own FFTs, gather, twiddle and magnitude pass; the
    steering product is cut into the filter's row blocks."""
    params = cube.params
    double_map = iz.matched_filter_rd(iz.DataCube(cube.samples.copy(), params), schedule, grid)
    counts, sizes = {}, {}

    def quantized(x, name):
        values, counts[name] = reference_quantize(x, fmt)
        sizes[name] = 2 * x.size
        return values

    x = cube.samples.T
    if mode is iz.FxpMode.FULL_CHAIN:
        x = quantized(x, "input")
    ref = quantized(np.conj(np.fft.fft(schedule.frames, axis=1)), "reference")
    spectra = quantized(np.fft.fft(x, axis=0), "post_fft")
    matched = spectra * ref[schedule.packet_map].T
    p_idx = np.arange(params.packets_per_cpi) * params.pri_s
    twiddle = np.exp(2j * np.pi * np.outer(p_idx, grid.frequencies_hz))
    twiddle = quantized(twiddle, "twiddle")
    steered = quantized(blocked_product(matched, twiddle), "post_steering")
    profiles = np.fft.ifft(steered, axis=0)
    if mode is iz.FxpMode.FULL_CHAIN:
        profiles = quantized(profiles, "post_ifft")
    values = np.abs(profiles).T.copy()

    err = double_map.values - values
    err_power = float(np.sum(err**2))
    sig_power = float(np.sum(double_map.values**2))
    sqnr = math.inf if err_power == 0.0 else 10.0 * math.log10(sig_power / err_power)
    fxp_map = iz.RangeDopplerMap(values, double_map.grid)
    det_d, det_f = iz.detect_peak(double_map), iz.detect_peak(fxp_map)
    pslr_d = iz.pslr_db(double_map.range_cut(det_d.doppler_bin))
    pslr_f = iz.pslr_db(values[det_f.doppler_bin])
    delta = pslr_f - pslr_d
    frac = sum(counts.values()) / sum(sizes.values())
    report = iz.FxpReport(
        format=fmt,
        mode=mode,
        sqnr_db=sqnr,
        peak_bin_agree=(det_d.range_bin, det_d.doppler_bin) == (det_f.range_bin, det_f.doppler_bin),
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
    return values, report


@deterministic
@given(
    kind=kinds,
    p_count=st.one_of(st.sampled_from(PRIMES_TO_40), st.integers(min_value=2, max_value=40)),
    bins=st.one_of(st.none(), st.integers(min_value=1, max_value=40).map(lambda k: 2 * k + 1)),
    mode=st.sampled_from(list(iz.FxpMode)),
    word_bits=st.sampled_from([8, 16, 24, 53]),
    integer_bits=st.integers(min_value=1, max_value=4),
    threads=st.sampled_from(["1", "2", "3", "5"]),
    pedestrian=st.booleans(),
    distance=st.floats(min_value=1.0, max_value=30.0),
    speed=st.floats(min_value=-200.0, max_value=200.0),
    snr_db=st.one_of(st.none(), st.floats(min_value=-10.0, max_value=30.0)),
)
def test_quantized_chain_equals_the_serial_quantized_filter(
    kind, p_count, bins, mode, word_bits, integer_bits, threads, pedestrian, distance, speed,
    snr_db,
):
    params = params_for(p_count)
    sched = iz.build_schedule(kind, params, seed=5)
    grid = iz.DopplerGrid(params, bins)
    pos = np.array([distance, 2.0, 0.0])
    if pedestrian:
        target = iz.make_pedestrian(pos, seed=9, speed_mps=speed)
    else:
        target = iz.point_target(pos, speed * pos / np.linalg.norm(pos))
    cube = iz.synthesize_echo(sched, [target], params, noise=noise_or_none(params, snr_db, [target]))
    fmt = iz.FixedPointFormat(word_bits, integer_bits)
    expected_values, expected_report = serial_quantized_chain(
        cube, sched, grid, fmt, mode
    )
    double_map = iz.matched_filter_rd(iz.DataCube(cube.samples.copy(), params), sched, grid)
    seen = []  # the sweep detects on the double map, then on the quantized one

    def keeping(rd_map):  # the sweep then scores its map's error over its values
        seen.append((rd_map, rd_map.values.copy()))
        return iz.detect_peak(rd_map)

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ISACSIM_THREADS", threads)
        mp.setattr(fxp, "detect_peak", keeping)
        sweep = iz.precision_sweep(lambda: cube, sched, grid, [fmt], mode, double_map=double_map)
    assert threading.active_count() == before
    report = sweep.rows[0].report
    assert report == expected_report
    assert list(report.saturation_counts) == list(expected_report.saturation_counts)
    assert len(seen) == 2 and seen[0][0] is double_map
    fxp_values = seen[1][1]
    assert fxp_values.dtype == expected_values.dtype
    assert fxp_values.shape == expected_values.shape
    assert fxp_values.tobytes() == expected_values.tobytes()


def savetxt_bytes(values) -> bytes:
    """The reference: np.savetxt with the artifacts' format."""
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.9g", delimiter=",")
    return buf.getvalue().encode()


def csv_bytes(values) -> bytes:
    """What write_rows writes for `values`."""
    buf = io.BytesIO()
    write_rows(buf, values)
    return buf.getvalue()


def value_ends(text: bytes) -> np.ndarray:
    """Offset of the end of each value's text, its separator included: the
    text of the first k values is text[: value_ends(text)[k - 1]]."""
    raw = np.frombuffer(text, dtype=np.uint8)
    return np.flatnonzero((raw == ord(",")) | (raw == ord("\n"))) + 1


def _near_power_of_ten(k, step):
    p = float(f"1e{k}")
    return float(np.nextafter(p, np.inf * step)) if step else p


def _half_way(n, k):
    """Nearest float to n.5e(k - 1): a tie at the ninth significant digit,
    exact for small k, within an ulp of one otherwise."""
    if 0 <= k <= 6:
        return (2 * n + 1) * 10**k / 2
    return float(f"{n}.5e{k}")


def _below_one(mantissa, exponent, sign):
    """sign * 0.<zeros>mantissa with 1e-4 <= |x| < 1: fixed notation with as
    many significant digits as `mantissa` has."""
    return sign * float(f"{mantissa}e{exponent - len(str(mantissa)) + 1}")


below_one = st.builds(
    _below_one,
    st.one_of([st.integers(10 ** (nd - 1), 10**nd - 1) for nd in range(1, DIGITS + 1)]),
    st.integers(-4, -1),
    st.sampled_from([-1, 1]),
)

adversarial = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    below_one,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.builds(
        _near_power_of_ten, st.integers(-300, 300), st.sampled_from([-1, 0, 1])
    ),
    st.builds(
        _half_way, st.integers(10**8, 10**9 - 1), st.integers(-300, 290)
    ),
    st.builds(lambda x, sign: sign * x, st.floats(1e-6, 1e10), st.sampled_from([-1, 1])),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=adversarial,
    )
)
def test_csv_text_matches_savetxt(values):
    assert csv_bytes(values) == savetxt_bytes(values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12), elements=below_one))
def test_csv_text_below_one_matches_savetxt(values):
    """Fixed notation below 1 ("0.", the zeros and d0 in one run of the
    field) in every sign, exponent and digit count."""
    assert csv_bytes(values) == savetxt_bytes(values)


def test_csv_text_below_one_covers_every_layout():
    # each exponent -4..-1, digit count 1..9 and sign, with a nonzero last
    # digit, then the notation's edges: 1e-4, the largest float below 1
    # (prints "1"), and 9.99999999e-5 and 9.999999995e-5 either side of the
    # rounding up to 0.0001
    rng = np.random.default_rng(11)
    values = []
    for exponent in range(-4, 0):
        for nd in range(1, DIGITS + 1):
            for mantissa in rng.integers(10 ** (nd - 1), 10**nd, 4):
                mantissa = int(mantissa) // 10 * 10 + int(rng.integers(1, 10))
                values += [_below_one(mantissa, exponent, sign) for sign in (-1, 1)]
    values += [1e-4, -1e-4, np.nextafter(1.0, 0.0), 9.99999999e-5, 9.999999995e-5, -9.999999995e-5]
    values = np.array(values).reshape(-1, 6)
    assert csv_bytes(values) == savetxt_bytes(values)


@pytest.mark.parametrize(
    "value",
    [
        1.23456789e-12, -1.23456789e47, 9.87654321e-123, -1.23456789e250,
        1.23456789, -0.00123456789, 1234.56789, -12345678.9,
    ],
)
def test_a_nine_digit_value_is_one_run_of_its_field(value):
    """After the sign byte, the kept bytes of a value with a 9-digit
    mantissa, in scientific notation with two- or three-digit exponents of
    either sign or in fixed notation, are one contiguous run, and its comma
    lies in the field's last word."""
    fields = csvformat._fields(np.array([value]), csvformat._Scratch(1))
    raw = fields.view(np.uint8).reshape(-1)
    kept = np.flatnonzero(raw[1:]) + 1
    assert (np.diff(kept) == 1).all()
    assert raw.tobytes().index(b",") >= 16
    assert raw[kept].tobytes() == ("%.9g," % abs(value)).encode()


@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1)])
def test_csv_text_edge_shapes(shape):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    assert csv_bytes(values) == savetxt_bytes(values)


MAP_COLS = 3520
SPAN = CHUNK_VALUES  # values per span of every map


def test_write_rows_streams_spans_of_values_across_rows():
    # 40 map rows of Q = 3520: four spans of SPAN values, each ending
    # mid-row, then the rest
    rows, cols = 40, MAP_COLS
    values = np.random.default_rng(6).random((rows, cols)) * 1e3
    spans = []

    class Recorder(io.BytesIO):
        def write(self, data):
            text = bytes(data)
            spans.append((text.count(b",") + text.count(b"\n"), text.count(b"\n")))
            return super().write(data)

    buf = Recorder()
    write_rows(buf, values)
    assert buf.getvalue() == savetxt_bytes(values)
    full = rows * cols // SPAN
    assert [size for size, _ in spans] == [SPAN] * full + [rows * cols - full * SPAN]
    assert SPAN % cols  # so spans end mid-row
    assert sum(lines for _, lines in spans) == rows


@pytest.mark.parametrize(
    "shape", [(1 << 20, 1), (1, 1 << 20), (298, 3520), (297, 3520), (2000, 3520), (1, 37), (0, 5)]
)
def test_spans_hold_chunk_values_on_any_shape(monkeypatch, shape):
    """Every array goes out in spans of CHUNK_VALUES values, whatever its
    size and row length; each worker's scratch holds one span, or the
    whole array when it is smaller."""
    size = shape[0] * shape[1]
    span = CHUNK_VALUES
    calls = []

    def record(produce, consume, n, scratch):
        calls.append((n, scratch().fields.shape[0]))

    monkeypatch.setattr(csvformat, "ordered", record)
    write_rows(io.BytesIO(), np.zeros(shape))
    assert calls == [(-(-size // span), min(span, size))]


def chunked_map(chunks):
    """A map of `chunks` spans, the last one partial, whose spans end
    mid-row; its values span 24 decades, with zeros, ties and non-finite
    values for the slow path."""
    rows = -(-(SPAN * (chunks - 1) + SPAN // 2) // MAP_COLS)
    rng = np.random.default_rng(chunks)
    shape = (rows, MAP_COLS)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 9.9999999995, 123456789.5, 1e-5]
    hits = rng.integers(0, values.size, 8 * chunks)
    values.flat[hits] = rng.choice(special, hits.size)
    assert -(-values.size // SPAN) == chunks
    return values


@pytest.fixture(scope="module")
def chunked_maps():
    """chunks -> (map, its np.savetxt bytes), each built once."""
    cache = {}

    def get(chunks):
        if chunks not in cache:
            values = chunked_map(chunks)
            cache[chunks] = values, savetxt_bytes(values)
        return cache[chunks]

    return get


@pytest.mark.parametrize("threads", ["1", "2", "5"])
@pytest.mark.parametrize("chunks", [1, 2, 3, 40])
def test_write_rows_on_any_thread_count_equals_savetxt(monkeypatch, chunked_maps, threads, chunks):
    monkeypatch.setenv("ISACSIM_THREADS", threads)
    values, expected = chunked_maps(chunks)
    before = threading.active_count()
    assert csv_bytes(values) == expected
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", ["1", "2", "5"])
@pytest.mark.parametrize("span", [13, MAP_COLS - 1, MAP_COLS, MAP_COLS + 1, None, "whole"])
def test_write_rows_equals_savetxt_for_any_span(monkeypatch, chunked_maps, threads, span):
    """Spans of 13 values, of a row and one value either side, of
    the default SPAN and of the whole map: the same bytes, on any thread
    count."""
    monkeypatch.setenv("ISACSIM_THREADS", threads)
    values, expected = chunked_maps(3)
    span = {None: SPAN, "whole": values.size}.get(span, span)
    monkeypatch.setattr(csvformat, "CHUNK_VALUES", span)
    assert csv_bytes(values) == expected


@pytest.mark.parametrize("shape", [(1, 5000), (3, 1700), (7, 1)])
@pytest.mark.parametrize("span", [1, 3, 999, 1700])
def test_rows_longer_than_a_span_equal_savetxt(monkeypatch, shape, span):
    """A row split across several spans, down to a single row of 5000
    values, keeps its commas and its one newline."""
    rng = np.random.default_rng(span)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    monkeypatch.setattr(csvformat, "CHUNK_VALUES", span)
    assert csv_bytes(values) == savetxt_bytes(values)


# Bytes per value that formatting one span of a map may take: the scratch
# (24 bytes of field, 40 of planes and 3 of flags a value) and what the
# span allocates, its text (at most 17 bytes a value) and, before the
# text, the 8-byte indices of the subsets its fix-ups run on.
SCRATCH_BYTES_PER_VALUE = 24 + 40 + 3
CHUNK_BYTES_PER_VALUE = SCRATCH_BYTES_PER_VALUE + 24


@pytest.mark.parametrize("decades", [(1, 9), (1, 2), (8, 9)])
def test_a_span_from_10_up_allocates_only_its_text(decades):
    """A span of values from 10 up in fixed notation, whose dot lies among
    the digits, shifts those digits in the scratch's planes: the span
    allocates its text, at most 17 bytes a value, and no per-value array of
    digits or exponents beside it."""
    rng = np.random.default_rng(decades[0])
    values = 10.0 ** rng.uniform(*decades, (1, CHUNK_VALUES))
    span = values.reshape(-1)
    scratch = csvformat._Scratch(span.size)
    csvformat._text(span, 0, span.size, scratch)  # first-call caches
    tracemalloc.start()
    try:
        text = csvformat._text(span, 0, span.size, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.tobytes() == savetxt_bytes(values)
    assert peak <= 17 * span.size


def test_one_span_formats_within_its_memory_budget():
    # a span of a table1 map that starts and ends mid-row, from 24 decades
    rng = np.random.default_rng(7)
    shape = (12, MAP_COLS)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    start = MAP_COLS + 1000
    span = values.reshape(-1)[start : start + CHUNK_VALUES]
    scratch = csvformat._Scratch(span.size)
    scratch_bytes = scratch.fields.nbytes + scratch.planes.nbytes + scratch.flags.nbytes
    tracemalloc.start()
    try:
        text = csvformat._text(span, start % MAP_COLS, MAP_COLS, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = savetxt_bytes(values)
    ends = value_ends(expected)
    assert text.tobytes() == expected[ends[start - 1] : ends[start + span.size - 1]]
    assert scratch_bytes == SCRATCH_BYTES_PER_VALUE * span.size
    assert scratch_bytes + peak <= CHUNK_BYTES_PER_VALUE * span.size


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_long_row_formats_in_scratch_of_one_span(monkeypatch, threads):
    """A 1 x 4 CHUNK_VALUES row goes out in spans like any other array:
    each worker formats in scratch of one span, and the whole write stays
    within a span's budget per worker."""
    monkeypatch.setenv("ISACSIM_THREADS", threads)
    rng = np.random.default_rng(8)
    values = rng.standard_normal((1, 4 * CHUNK_VALUES)) * 10.0 ** rng.integers(-12, 12)
    expected = savetxt_bytes(values)
    span = CHUNK_VALUES
    sizes = []

    class Recorded(csvformat._Scratch):
        def __init__(self, n):
            sizes.append(n)
            super().__init__(n)

    monkeypatch.setattr(csvformat, "_Scratch", Recorded)
    tracemalloc.start()
    try:
        text = csv_bytes(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == expected
    assert sizes == [span] * int(threads)
    # the text itself (BytesIO's buffer) is the one allocation that grows
    # with the row
    assert peak <= int(threads) * CHUNK_BYTES_PER_VALUE * span + 2 * len(expected)


def _filter_peak_alloc(params, bins):
    """tracemalloc's peak over one P = 64 matched filter of a PMCW echo, in
    units of one P x Q complex buffer."""
    grid = iz.DopplerGrid(params, bins)
    target = [iz.point_target(np.array([12.0, 9.0, 0.0]), np.array([1.6, 1.2, 0.0]))]
    sched = iz.build_schedule(iz.ScheduleKind.PMCW, params, seed=7)
    cube = iz.synthesize_echo(sched, target, params)
    tracemalloc.start()
    try:
        iz.matched_filter_rd(cube, sched, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / cube.samples.nbytes


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("bins", [None, 63])
def test_the_filter_consuming_its_cube_within_its_memory_budget(
    monkeypatch, ci_params, threads, bins
):
    """At P = 64, a filter on a grid of at most P bins allocates less than a
    quarter of one P x Q complex buffer on either grid: it steers in the
    cube and writes the map over it."""
    monkeypatch.setenv("ISACSIM_THREADS", threads)
    assert _filter_peak_alloc(ci_params, bins) < 0.25


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("bins", [65, 129])
def test_the_filter_on_more_bins_than_packets_allocates_one_buffer(
    monkeypatch, ci_params, threads, bins
):
    """At P = 64, a filter on a grid of J > P bins allocates less than half
    of one P x Q complex buffer beyond the J x Q buffer it steers in, which
    then holds the map: the twiddle and each worker's block of sums, and no
    map or steered sums of all the range bins beside it."""
    monkeypatch.setenv("ISACSIM_THREADS", threads)
    assert _filter_peak_alloc(ci_params, bins) < bins / ci_params.packets_per_cpi + 0.5


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind", [iz.ScheduleKind.PMCW, iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT])
def test_the_matched_multiply_and_steering_allocate_no_block_copy(monkeypatch, threads, kind):
    """At P = 512, the chain allocates less than 1 MiB between
    its "post_fft" and "post_steering" hooks: the matched multiply scales
    each packet's row in place by its frame's reference row, with no copy
    of a block of packets, also when the frame changes from packet to
    packet."""
    monkeypatch.setenv("ISACSIM_THREADS", threads)
    params = iz.WaveformParams(cpi_s=512 * 2e-6)
    sched = iz.build_schedule(kind, params, seed=7)
    target = [iz.point_target(np.array([12.0, 9.0, 0.0]), np.array([1.6, 1.2, 0.0]))]
    cube = iz.synthesize_echo(sched, target, params)
    marks = {}

    def stage(name, x):
        if name == "post_fft":
            tracemalloc.reset_peak()
            marks[name] = tracemalloc.get_traced_memory()[0]
        elif name == "post_steering":
            marks[name] = tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        rsp._chain(cube, sched, iz.DopplerGrid(params), False, stage)
    finally:
        tracemalloc.stop()
    assert marks["post_steering"] - marks["post_fft"] < 1 << 20


@pytest.mark.parametrize("threads", ["1", "2", "5"])
@pytest.mark.parametrize("k", [1, 4])
def test_a_failing_span_stops_write_rows_before_it(monkeypatch, chunked_maps, threads, k):
    """_fields raising on its k-th call re-raises in the caller, and the file
    holds whole spans in order, none from the failing span on."""
    monkeypatch.setenv("ISACSIM_THREADS", threads)
    values, expected = chunked_maps(12)
    fields, calls, failed, lock = csvformat._fields, [], [], threading.Lock()
    later = threading.Event()  # a call after the k-th has formatted its span
    base = values.ctypes.data

    def failing_fields(x, scratch):
        with lock:
            calls.append(None)
            call = len(calls)
        if call == k:
            failed.append((x.ctypes.data - base) // x.itemsize // SPAN)
            if threads != "1":  # so a later span is ready and waits its turn
                later.wait(timeout=10)
            raise RuntimeError("span failed")
        out = fields(x, scratch)
        if call > k:
            later.set()
        return out

    monkeypatch.setattr(csvformat, "_fields", failing_fields)
    buf, raised = io.BytesIO(), []

    def write():
        try:
            write_rows(buf, values)
        except RuntimeError as exc:
            raised.append(exc)

    before = threading.active_count()
    # daemon, and so are the workers it starts: a hang cannot outlive the run
    caller = threading.Thread(target=write, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "write_rows hung after a failing span"
    assert threading.active_count() == before
    assert [str(exc) for exc in raised] == ["span failed"]
    ends = value_ends(expected)
    span_ends = [0] + [int(ends[SPAN * c - 1]) for c in range(1, failed[0] + 1)]
    assert len(buf.getvalue()) in span_ends
    assert expected.startswith(buf.getvalue())
    if threads == "1":  # the k-th call is span k - 1, after spans 0 .. k - 2
        assert failed == [k - 1]
        assert len(buf.getvalue()) == span_ends[-1]


# --- the config text: render/parse round trip, and errors on any input ---

finite = st.floats(allow_nan=False, allow_infinity=False)
db_values = st.floats(min_value=-300.0, max_value=300.0)
seeds = st.integers(min_value=0, max_value=2**64)
GOLAY = {iz.ScheduleKind.GOLAY_STANDARD, iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT}


def _is_echoable_dir(name):
    try:
        dataclasses.replace(iz.ScenarioConfig(), output_dir=name)
    except iz.ConfigError:
        return False
    return True


@st.composite
def radar_params(draw, power_of_two_code):
    bandwidth = draw(st.floats(min_value=1e6, max_value=1e10))
    # fewer samples per PRI, or a one-chip Golay code, is a config error
    samples = draw(st.integers(min_value=MIN_SAMPLES_PER_PRI, max_value=4096))
    pri = samples / bandwidth
    if power_of_two_code:
        code_length = 2 ** draw(st.integers(min_value=1, max_value=samples.bit_length() - 1))
    else:
        code_length = draw(st.integers(min_value=1, max_value=samples))
    return iz.WaveformParams(
        carrier_freq_hz=draw(st.floats(min_value=1e6, max_value=1e12)),
        bandwidth_hz=bandwidth,
        pri_s=pri,
        cpi_s=pri * draw(st.floats(min_value=1.0, max_value=1e4)),
        code_length=code_length,
        amplitude=draw(st.floats(min_value=1e-6, max_value=1e6)),
        pulse_shape=draw(st.sampled_from(list(iz.PulseShape))),
        pulse_rolloff=draw(st.floats(min_value=0.0, max_value=1.0)),
        chirp_duration_s=draw(st.none() | st.floats(min_value=1e-12, max_value=1.0)),
    )


@st.composite
def scenario_configs(draw):
    # a waveform or format listed twice is a config error: draw each once
    waveforms = tuple(draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4, unique=True)))
    target = draw(st.sampled_from(["single_point", "pedestrian", "car", "none"]))
    # "vector and radial": a library caller may set both; the vector wins
    motion = draw(st.sampled_from(["vector", "vector and radial", "radial", "static"]))
    return iz.ScenarioConfig(
        params=draw(radar_params(power_of_two_code=bool(GOLAY.intersection(waveforms)))),
        waveforms=waveforms,
        target_kind=target,
        position_m=tuple(draw(st.lists(finite, min_size=3, max_size=3))),
        velocity_mps=tuple(draw(st.lists(finite, min_size=3, max_size=3))) if motion.startswith("vector") else None,
        radial_speed_mps=draw(finite) if motion.endswith("radial") else None,
        rcs_dbsm=draw(db_values),
        scatterer_count=draw(st.integers(min_value=4 if target == "car" else 1, max_value=10**6)),
        snr_db=draw(st.none() | db_values),
        path_loss=draw(st.sampled_from(list(iz.PathLoss))),
        seed_code=draw(seeds),
        seed_noise=draw(seeds),
        seed_scene=draw(seeds),
        doppler_bins=draw(st.none() | st.integers(min_value=1, max_value=5000).map(lambda k: 2 * k + 1)),
        fxp_formats=tuple(
            draw(
                st.lists(
                    st.integers(min_value=2, max_value=64).flatmap(
                        lambda w: st.builds(
                            iz.FixedPointFormat, st.just(w), st.integers(min_value=1, max_value=w)
                        )
                    ),
                    max_size=4,
                    unique=True,
                )
            )
        ),
        fxp_mode=draw(st.sampled_from(list(iz.FxpMode))),
        output_dir=draw(st.text(max_size=20).filter(_is_echoable_dir)),
        run_oracle=draw(st.booleans()),
        bench_enabled=draw(st.booleans()),
        bench_repeats=draw(st.integers(min_value=1, max_value=1000)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario_configs())
def test_rendered_config_parses_back_to_itself(cfg):
    assert iz.parse_config(iz.render_config(cfg)) == cfg


CONFIG_KEYS = sorted({key for keys in _SECTIONS.values() for key in keys})
config_values = st.one_of(
    st.text(max_size=20),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    finite.map(repr),
    st.sampled_from(
        ["nan", "-inf", "1e400", "9" * 5000, "off", "pri", "window", "default", "true",
         "16:1, 99:1", "<24,1>", "0:0", "1, 2", "1, 2, 3", "5e-324", "0x10", "1_000", "٣"]
    ),
)


def config_section(name):
    entry = st.builds(
        lambda key, value: f"{key} = {value}", st.sampled_from(sorted(_SECTIONS[name])), config_values
    )
    return st.lists(entry, max_size=6).map(lambda lines: "\n".join([f"[{name}]", *lines]))


config_text = st.lists(
    st.one_of(
        st.sampled_from(sorted(_SECTIONS)).flatmap(config_section),
        st.text(max_size=30),
        st.builds(lambda key, value: f"{key} = {value}", st.sampled_from(CONFIG_KEYS), config_values),
    ),
    max_size=8,
).map("\n".join)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(config_text)
def test_parse_config_raises_only_config_errors(text):
    try:
        iz.parse_config(text)
    except iz.ConfigError:
        pass

"""Property tests over random packet counts, all four schedules and random
scenes: the packet map, echo synthesis of point and cluster targets, oracle
equivalence and the block-parallel matched filter against its serial form;
and the CSV formatter against np.savetxt."""

import io
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import isacsim as iz
from isacsim._csvformat import CHUNK_VALUES, format_rows, write_rows
from oracle_cases import KINDS, random_case

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
    np.testing.assert_allclose(cube.samples, expected, rtol=0, atol=tolerance)


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
    cube = iz.synthesize_echo(sched, [target], params, path_loss=path_loss).samples
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


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fast_path_matches_the_oracle(seed):
    cube, schedule, grid = random_case(np.random.default_rng(seed))
    fast = iz.matched_filter_rd(cube, schedule, grid)
    slow = iz.time_domain_oracle(cube, schedule, grid)
    assert iz.map_relative_deviation(fast, slow) < 1e-6


def serial_matched_filter(cube, schedule, grid):
    """The reference: the matched filter as one pass per stage on one thread."""
    params = cube.params
    p_len = params.packets_per_cpi
    spectra = np.fft.fft(cube.samples, axis=0)
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
        steered = matched @ w
    profiles = np.fft.ifft(steered, axis=0)
    return np.abs(profiles).T.copy()


PRIMES_TO_40 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


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
    grid = iz.default_grid(params) if bins is None else iz.symmetric_grid(params, bins)
    pos = np.array([distance, 2.0, 0.0])
    target = iz.point_target(pos, speed * pos / np.linalg.norm(pos))
    cube = iz.synthesize_echo(sched, [target], params, snr_db=snr_db, noise_seed=11)
    expected = serial_matched_filter(cube, sched, grid)
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ISACSIM_THREADS", threads)
        values = iz.matched_filter_rd(cube, sched, grid).values
    assert threading.active_count() == before
    assert values.shape == expected.shape and values.dtype == expected.dtype
    assert np.array_equal(values, expected)


def savetxt_bytes(values) -> bytes:
    """The reference: np.savetxt with the artifacts' format."""
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.9g", delimiter=",")
    return buf.getvalue().encode()


def _near_power_of_ten(k, step):
    p = float(f"1e{k}")
    return float(np.nextafter(p, np.inf * step)) if step else p


def _half_way(n, k):
    """Nearest float to n.5e(k - 1): a tie at the ninth significant digit,
    exact for small k, within an ulp of one otherwise."""
    if 0 <= k <= 6:
        return (2 * n + 1) * 10**k / 2
    return float(f"{n}.5e{k}")


adversarial = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
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
def test_format_rows_matches_savetxt(values):
    assert format_rows(values) == savetxt_bytes(values)


@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1)])
def test_format_rows_edge_shapes(shape):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    assert format_rows(values) == savetxt_bytes(values)


def test_write_rows_streams_partial_chunks():
    # 20 map rows of Q = 3520 go out in blocks of 9, 9 and 2 rows
    rows, cols = 20, 3520
    step = CHUNK_VALUES // cols
    assert rows % step != 0
    values = np.random.default_rng(6).random((rows, cols)) * 1e3
    blocks = []

    class Recorder(io.BytesIO):
        def write(self, data):
            blocks.append(data.count(b"\n"))
            return super().write(data)

    buf = Recorder()
    write_rows(buf, values)
    assert buf.getvalue() == savetxt_bytes(values)
    assert blocks == [step] * (rows // step) + [rows % step]

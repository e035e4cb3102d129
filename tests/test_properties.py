"""Property tests over random packet counts, all four schedules and random
scenes: the packet map, echo synthesis of point and cluster targets, and
oracle equivalence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import isacsim as iz
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

"""Randomized guard-compliant scenes for fast-path vs oracle equivalence,
and hand-made values as a map on a real grid."""

import numpy as np

import isacsim as iz
from isacsim.params import SPEED_OF_LIGHT_MPS

KINDS = (
    iz.ScheduleKind.FMCW,
    iz.ScheduleKind.PMCW,
    iz.ScheduleKind.GOLAY_STANDARD,
    iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT,
)


def random_case(rng: np.random.Generator):
    """One scene with Q <= 512, P <= 64, J <= 65 and Q*P*J under the guard.

    Returns (cube, schedule, grid). Targets, speeds, noise, waveform kind and
    grid style are all drawn from the generator, so a seeded sweep covers the
    four waveforms and both steering paths.
    """
    q_len = int(rng.choice([256, 512]))
    code = int(rng.choice([64, 128] if q_len == 256 else [64, 128, 256]))
    pri = q_len / 1.76e9
    packets = int(rng.integers(4, 33))
    params = iz.WaveformParams(pri_s=pri, cpi_s=packets * pri, code_length=code)
    kind = KINDS[int(rng.integers(0, len(KINDS)))]
    schedule = iz.build_schedule(kind, params, seed=int(rng.integers(0, 1000)))

    bins = None if rng.random() < 0.5 else int(rng.choice([5, 9, 17, 33, 65]))
    grid = iz.DopplerGrid(params, bins)
    assert q_len * packets * len(grid) <= iz.ORACLE_GUARD

    max_range = SPEED_OF_LIGHT_MPS * q_len * params.sample_period_s / 2.0
    targets = []
    for _ in range(int(rng.integers(1, 4))):
        r = rng.uniform(2.0, 0.8 * max_range)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        pos = np.array([r * np.cos(theta), r * np.sin(theta), 0.0])
        speed = rng.uniform(-500.0, 500.0)
        vel = speed * pos / np.linalg.norm(pos)
        targets.append(iz.point_target(pos, vel, rcs_dbsm=rng.uniform(-5.0, 5.0)))

    snr = float(rng.uniform(-5.0, 25.0)) if rng.random() < 0.5 else None
    noise_seed = int(rng.integers(0, 10_000))
    noise = None
    if snr is not None:
        noise = iz.noise_block(targets, params, snr, noise_seed)
    cube = iz.synthesize_echo(schedule, targets, params, noise=noise)
    return cube, schedule, grid


def map_of(values: np.ndarray) -> iz.RangeDopplerMap:
    """J x Q `values` as a map on the FFT grid of radar parameters with
    Q = q samples per PRI and P = J packets, for any J, Q >= 1."""
    j, q = values.shape
    bw = 1.76e9
    params = iz.WaveformParams(pri_s=q / bw, cpi_s=j * q / bw, bandwidth_hz=bw, code_length=1)
    return iz.RangeDopplerMap(values, iz.DopplerGrid(params))

"""Shared fixtures: parameter profiles and canonical scenes."""

import isacsim.cli

# Cap the thread pools from ISACSIM_THREADS before numpy loads, as the CLI
# does, so the suite runs the BLAS pool a CLI run would get. A malformed
# value leaves the pools alone here and fails the CLI tests instead.
isacsim.cli._apply_thread_env()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import isacsim as iz  # noqa: E402

CI_PACKETS = 64


@pytest.fixture(scope="session")
def ci_params():
    """Full-size fast-time profile (Q = 3520) with a CI-sized 64-packet CPI."""
    return iz.WaveformParams(cpi_s=CI_PACKETS * 2e-6)


@pytest.fixture(scope="session")
def small_params():
    """Oracle-sized profile: Q = 512, P = 16, N = 256."""
    pri = 512 / 1.76e9
    return iz.WaveformParams(pri_s=pri, cpi_s=16 * pri, code_length=256)


@pytest.fixture(scope="session")
def point_scene():
    """Single scatterer at 15 m slant range receding at 2 m/s."""
    pos = np.array([12.0, 9.0, 0.0])
    vel = 2.0 * pos / np.linalg.norm(pos)
    return [iz.point_target(pos, vel)]


@pytest.fixture(scope="session")
def all_kinds():
    return (
        iz.ScheduleKind.FMCW,
        iz.ScheduleKind.PMCW,
        iz.ScheduleKind.GOLAY_STANDARD,
        iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT,
    )

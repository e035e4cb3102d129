"""Seeded scenario configs for the benchmark workloads, with their truth.

Every scenario is an isacsim config text that spells out the radar timing,
scene, grid, fixed-point formats and seeds (so a change of those program
defaults cannot silently change a workload), plus the facts the output gate
checks against: the delay-bin extent of the scene and the Doppler
hypothesis nearest the bulk radial speed. The truth is computed
here from geometry alone, with no isacsim code, so the gate never grades the
program with its own arithmetic.

Scenario k of workload w under seed s depends only on (w, s, k); the same
seed therefore gives the same sequence of configs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

C_MPS = 299792458.0
CARRIER_HZ = 60e9
BANDWIDTH_HZ = 1.76e9
# In the paper's PSLR order, weakest sidelobe suppression first.
WAVEFORMS = ("fmcw", "pmcw", "golay_standard", "golay_doppler_resilient")


@dataclass(frozen=True)
class Profile:
    """Radar timing shared by every scenario of one run of the benchmark."""

    pri_s: float
    code_length: int
    packets: int | None  # None keeps each workload's own packet count
    max_range_m: float   # caps the workloads' drawn target ranges

    @property
    def samples(self) -> int:
        return round(self.pri_s * BANDWIDTH_HZ)


# The paper's 60 GHz / 1.76 GHz / 2 us profile: Q = 3520.
PAPER = Profile(pri_s=2e-6, code_length=512, packets=None, max_range_m=35.0)
# Self-test profile: Q = 512, P = 16, targets inside the 128-chip listening range.
TINY = Profile(pri_s=512 / BANDWIDTH_HZ, code_length=128, packets=16, max_range_m=9.0)


@dataclass(frozen=True)
class Workload:
    name: str
    packets: int
    target: str            # single_point | pedestrian | car
    range_m: tuple[float, float]    # drawn target range
    speed_mps: tuple[float, float]  # drawn receding bulk speed
    doppler_bins: int | None
    formats: tuple[str, ...]
    snr_db: float | None


# Why each workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_point",
            packets=2000,
            target="single_point",
            range_m=(5.0, 35.0),
            speed_mps=(0.5, 5.0),
            doppler_bins=None,
            formats=(),
            snr_db=None,
        ),
        Workload(
            "car_cluster",
            packets=512,
            target="car",
            range_m=(8.0, 35.0),
            speed_mps=(2.0, 15.0),
            doppler_bins=None,
            formats=(),
            snr_db=10.0,
        ),
        Workload(
            "ci_fxp",
            packets=64,
            target="pedestrian",
            range_m=(3.0, 35.0),
            speed_mps=(0.5, 3.0),
            doppler_bins=63,
            formats=("12:1", "16:1", "24:1"),
            snr_db=20.0,
        ),
    )
}

CAR_HALF_LENGTH_M, CAR_HALF_WIDTH_M, CAR_SCATTERERS = 2.2, 0.85, 64
PEDESTRIAN_HALF_BOX_M = (0.25, 0.15, 0.9)
PEDESTRIAN_SCATTERERS = 27


@dataclass(frozen=True)
class Scenario:
    workload: str
    index: int
    text: str                     # the config handed to the program
    samples: int                  # Q
    packets: int                  # P
    doppler_bins: int             # J
    scatterers: int               # S
    formats: tuple[str, ...]
    range_bins: tuple[int, int]   # truth: nearest and farthest delay bin
    doppler_bin: int              # truth: hypothesis nearest the bulk speed
    range_tolerance: dict[str, int]  # bins a detection may lie outside range_bins

    @property
    def waveforms(self) -> int:
        return len(WAVEFORMS)

    @property
    def cube_samples(self) -> int:
        """Q * P * waveforms: cube samples one run synthesizes and filters."""
        return self.samples * self.packets * self.waveforms


def delay_bin(range_m: float) -> int:
    return round(2.0 * range_m * BANDWIDTH_HZ / C_MPS)


def nearest_hypothesis(speed_mps: float, packets: int, bins: int | None, pri_s: float) -> int:
    """Index of the Doppler hypothesis nearest the echo of a receding speed."""
    doppler_hz = 2.0 * speed_mps * CARRIER_HZ / C_MPS
    if bins is None:  # FFT grid: J = P, spacing 1/(P T), zero at P//2
        return round(doppler_hz * packets * pri_s) + packets // 2
    spacing = 2.0 * (1.0 / (2.0 * pri_s)) / (bins - 1)  # symmetric grid over +-f_max
    return round(doppler_hz / spacing) + bins // 2


def _box_range_extent(center, half) -> tuple[float, float]:
    """Nearest and farthest distance from the origin to an axis-aligned box."""
    near = math.sqrt(sum(max(abs(c) - h, 0.0) ** 2 for c, h in zip(center, half)))
    far = math.sqrt(sum((abs(c) + h) ** 2 for c, h in zip(center, half)))
    return near, far


def _car_range_extent(range_m: float) -> tuple[float, float]:
    """The car is a rectangle with its long axis along the sight line, so a
    point (along, across) of it lies at sqrt((r + along)^2 + across^2)."""
    near = range_m - CAR_HALF_LENGTH_M
    far = math.hypot(range_m + CAR_HALF_LENGTH_M, CAR_HALF_WIDTH_M)
    return near, far


def scenario(workload: str, seed: int, index: int, profile: Profile = PAPER) -> Scenario:
    """Scenario `index` of `workload` under `seed`, on the given radar profile."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{index}")
    packets = profile.packets or w.packets
    high = min(w.range_m[1], profile.max_range_m)
    range_m = round(rng.uniform(min(w.range_m[0], high / 2), high), 4)
    azimuth = rng.uniform(-math.pi / 3, math.pi / 3)
    # Round the position first so the truth uses exactly the coordinates
    # the config text carries.
    position = (round(range_m * math.cos(azimuth), 4), round(range_m * math.sin(azimuth), 4), 0.0)
    range_m = math.hypot(position[0], position[1])
    speed = round(rng.uniform(*w.speed_mps), 4)
    seeds = [rng.randrange(1, 10_000) for _ in range(3)]

    if w.target == "single_point":
        near = far = range_m
        scatterers = 1
    elif w.target == "car":
        near, far = _car_range_extent(range_m)
        scatterers = CAR_SCATTERERS
    else:
        near, far = _box_range_extent(position, PEDESTRIAN_HALF_BOX_M)
        scatterers = PEDESTRIAN_SCATTERERS

    # A cluster's echo sums its scatterers' range responses, so where a
    # waveform resolves more coarsely than one bin, interference can put the
    # peak up to one resolution cell outside the cluster. The FMCW frame is a
    # full-PRI chirp gated to the code window: it sweeps N/Q of the band and
    # resolves Q/N bins. The phase codes resolve one bin.
    fmcw_cell = 1 if scatterers == 1 else math.ceil(profile.samples / profile.code_length)
    range_tolerance = {w: 1 for w in WAVEFORMS} | {"fmcw": fmcw_cell}

    lines = [
        f"# perfbench {workload} seed {seed} scenario {index}",
        "[radar]",
        f"carrier_freq_hz = {CARRIER_HZ!r}",
        f"bandwidth_hz = {BANDWIDTH_HZ!r}",
        f"pri_s = {profile.pri_s!r}",
        f"packets = {packets}",
        f"code_length = {profile.code_length}",
        "[run]",
        "waveforms = " + ", ".join(WAVEFORMS),
        "[scene]",
        f"target = {w.target}",
        "position_m = " + ", ".join(repr(v) for v in position),
        f"radial_speed_mps = {speed!r}",
        f"rcs_dbsm = {10.0 if w.target == 'car' else 0.0!r}",
        f"scatterer_count = {CAR_SCATTERERS}",
        "snr_db = " + ("off" if w.snr_db is None else repr(w.snr_db)),
        "path_loss = inverse_square",
        f"seed_code = {seeds[0]}",
        f"seed_noise = {seeds[1]}",
        f"seed_scene = {seeds[2]}",
        "[doppler]",
        "bins = " + ("default" if w.doppler_bins is None else str(w.doppler_bins)),
        "[fixedpoint]",
        "formats = " + ", ".join(w.formats),
        "mode = full_chain",
        "",
    ]
    return Scenario(
        workload=workload,
        index=index,
        text="\n".join(lines),
        samples=profile.samples,
        packets=packets,
        doppler_bins=w.doppler_bins or packets,
        scatterers=scatterers,
        formats=w.formats,
        range_bins=(delay_bin(near), delay_bin(far)),
        doppler_bin=nearest_hypothesis(speed, packets, w.doppler_bins, profile.pri_s),
        range_tolerance=range_tolerance,
    )

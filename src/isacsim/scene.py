"""Point/extended targets and synthesis of the received fast/slow-time cube.

The receiver sits at the origin. Each scatterer contributes a delayed copy of
every packet's transmit frame, weighted by reflectivity (optionally with
inverse-square two-way path loss) and rotated by the slow-time Doppler phase
that its advancing range implies. Delays are rounded to the sample grid and
held at their CPI-start value (stop-and-hop: the worst-case range migration
over a CPI here is centimeters, below one range bin).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, ScenarioError
from .params import SPEED_OF_LIGHT_MPS, WaveformParams
from .waveform import FrameSchedule


class PathLoss(Enum):
    OFF = "off"
    INVERSE_SQUARE = "inverse_square"


@dataclass(frozen=True)
class PointScatterer:
    position_m: np.ndarray    # 3-vector, Cartesian
    velocity_mps: np.ndarray  # 3-vector
    reflectivity: complex     # linear amplitude

    def __post_init__(self):
        object.__setattr__(self, "position_m", np.asarray(self.position_m, dtype=np.float64))
        object.__setattr__(self, "velocity_mps", np.asarray(self.velocity_mps, dtype=np.float64))
        if self.position_m.shape != (3,) or self.velocity_mps.shape != (3,):
            raise ParameterError("scatterer position and velocity must be 3-vectors")
        if self.range_m <= 0:
            raise ScenarioError("scatterer must sit strictly away from the receiver")

    @property
    def range_m(self) -> float:
        return float(np.linalg.norm(self.position_m))

    @property
    def radial_velocity_mps(self) -> float:
        """Positive when receding (range increasing)."""
        return float(self.position_m @ self.velocity_mps / self.range_m)


@dataclass(frozen=True)
class TargetModel:
    scatterers: tuple[PointScatterer, ...]

    def total_reflected_power(self) -> float:
        return float(sum(abs(s.reflectivity) ** 2 for s in self.scatterers))


@dataclass(frozen=True)
class DataCube:
    samples: np.ndarray  # Q x P complex
    params: WaveformParams
    noise_seed: int
    snr_db: float | None

    def __post_init__(self):
        q, p = self.params.samples_per_pri, self.params.packets_per_cpi
        if self.samples.shape != (q, p):
            raise ParameterError(f"cube must be {q} x {p}, got {self.samples.shape}")


def point_target(position_m, velocity_mps, rcs_dbsm: float = 0.0) -> TargetModel:
    """Single scatterer whose reflected power matches the given RCS."""
    sigma = np.sqrt(10.0 ** (rcs_dbsm / 10.0))
    scatterer = PointScatterer(
        position_m=np.asarray(position_m, dtype=np.float64),
        velocity_mps=np.asarray(velocity_mps, dtype=np.float64),
        reflectivity=complex(sigma),
    )
    return TargetModel(scatterers=(scatterer,))


def radial_unit(position_m: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(position_m)
    if r == 0:
        raise ScenarioError("cannot take a radial direction at the origin")
    return np.asarray(position_m, dtype=np.float64) / r


def make_pedestrian(
    position_m, seed: int = 0, speed_mps: float = 2.0, rcs_dbsm: float = 0.0
) -> TargetModel:
    """Synthetic walking-person cluster: 27 scatterers on a 3x3x3 lattice in a
    0.5 x 0.3 x 1.8 m box, moving radially at the bulk speed with seeded
    per-scatterer perturbations within +-1 m/s standing in for limb motion.

    Reflected power is split uniformly so the total matches the bulk RCS;
    per-scatterer phases are drawn from the same seeded generator.
    """
    center = np.asarray(position_m, dtype=np.float64)
    u = radial_unit(center)
    rng = np.random.default_rng(seed)
    offsets = np.array(
        [
            (dx, dy, dz)
            for dx in (-0.25, 0.0, 0.25)
            for dy in (-0.15, 0.0, 0.15)
            for dz in (-0.9, 0.0, 0.9)
        ]
    )
    total = 10.0 ** (rcs_dbsm / 10.0)
    amp = np.sqrt(total / len(offsets))
    perturb = rng.uniform(-1.0, 1.0, size=len(offsets))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(offsets))
    scatterers = tuple(
        PointScatterer(
            position_m=center + off,
            velocity_mps=(speed_mps + dv) * u,
            reflectivity=amp * np.exp(1j * ph),
        )
        for off, dv, ph in zip(offsets, perturb, phases)
    )
    return TargetModel(scatterers=scatterers)


def make_car(
    position_m,
    seed: int = 0,
    speed_mps: float = 10.0,
    rcs_dbsm: float = 10.0,
    count: int = 64,
) -> TargetModel:
    """Synthetic car cluster: `count` scatterers over a 4.4 x 1.7 m footprint
    whose long axis points radially, moving rigidly at the bulk speed.

    Power is split uniformly to match the bulk RCS; phases are seeded.
    """
    if count < 4:
        raise ParameterError("car cluster needs at least 4 scatterers")
    center = np.asarray(position_m, dtype=np.float64)
    u = radial_unit(center)
    w = np.array([-u[1], u[0], 0.0])
    if np.linalg.norm(w) == 0:  # radial direction is vertical; pick any lateral axis
        w = np.array([1.0, 0.0, 0.0])
    else:
        w /= np.linalg.norm(w)
    length, width = 4.4, 1.7
    ny = max(2, round(np.sqrt(count * width / length)))
    nx = count // ny
    rem = count - nx * ny
    along = np.linspace(-length / 2.0, length / 2.0, nx)
    across = np.linspace(-width / 2.0, width / 2.0, ny)
    offsets = [a * u + c * w for a in along for c in across]
    # leftover points go on the centerline, away from the occupied endpoints
    extra = np.linspace(-length / 2.0, length / 2.0, rem + 2)[1:-1]
    offsets.extend(a * u for a in extra)
    rng = np.random.default_rng(seed)
    total = 10.0 ** (rcs_dbsm / 10.0)
    amp = np.sqrt(total / count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    scatterers = tuple(
        PointScatterer(
            position_m=center + off,
            velocity_mps=speed_mps * u,
            reflectivity=amp * np.exp(1j * ph),
        )
        for off, ph in zip(offsets, phases)
    )
    return TargetModel(scatterers=scatterers)


def delay_bin(range_m: float, params: WaveformParams) -> int:
    """q_b = round(2 r / (c T_s)), the rounded two-way delay in samples."""
    return round(2.0 * range_m / (SPEED_OF_LIGHT_MPS * params.sample_period_s))


def synthesize_echo(
    schedule: FrameSchedule,
    targets,
    params: WaveformParams,
    snr_db: float | None = None,
    noise_seed: int = 0,
    path_loss: PathLoss = PathLoss.INVERSE_SQUARE,
) -> DataCube:
    """Received Q x P cube for the given schedule and targets.

    Each scatterer adds sigma' * s_p[q - q_b] * exp(j phi_p) where sigma' is
    the (optionally path-loss weighted) reflectivity and phi_p =
    -(4 pi / lambda) * (r_b(p) - r_b(0)) is the phase of the advancing range
    r_b(p) = ||position + velocity * p * T_pri||. For radial motion this
    equals the textbook -2 pi f_D p T_pri with f_D = 2 v / lambda, exactly.

    When snr_db is set, circular complex white Gaussian noise is added,
    calibrated so the per-sample SNR of the strongest scatterer's echo equals
    snr_db (reference power amplitude^2 when there are no scatterers). The
    generator is partitioned per packet from the master seed, so parallel and
    serial synthesis produce identical cubes.
    """
    q_len = params.samples_per_pri
    p_len = params.packets_per_cpi
    if len(schedule) != p_len:
        raise ScenarioError(
            f"schedule carries {len(schedule)} packets but the CPI holds {p_len}"
        )
    cube = np.zeros((q_len, p_len), dtype=np.complex128)
    # Q x P with packet p's frame in column p, in C order like the cube, so
    # the per-scatterer sums below run over contiguous rows
    frames = np.take(schedule.frames.T, schedule.packet_map, axis=1)
    pri = params.pri_s
    lam = params.wavelength_m
    v_max = params.max_unambiguous_velocity_mps
    max_range = SPEED_OF_LIGHT_MPS * q_len * params.sample_period_s / 2.0
    packet_idx = np.arange(p_len)

    strongest = 0.0
    for target in targets:
        for sc in target.scatterers:
            r0 = sc.range_m
            if r0 >= max_range:
                raise ScenarioError(
                    f"scatterer at {r0:.2f} m is beyond the unambiguous range {max_range:.2f} m"
                )
            if abs(sc.radial_velocity_mps) > v_max:
                raise ScenarioError(
                    f"radial speed {sc.radial_velocity_mps:.2f} m/s exceeds the "
                    f"ambiguity limit {v_max:.2f} m/s"
                )
            qb = delay_bin(r0, params)
            if qb >= q_len:
                raise ScenarioError(f"delay bin {qb} falls outside the PRI ({q_len} samples)")
            sigma = sc.reflectivity
            if path_loss is PathLoss.INVERSE_SQUARE:
                sigma = sigma / r0**2
            strongest = max(strongest, abs(sigma))
            # advancing range drives the slow-time phase; delay stays put
            r_p = np.linalg.norm(
                sc.position_m[None, :] + sc.velocity_mps[None, :] * (packet_idx[:, None] * pri),
                axis=1,
            )
            phase = np.exp(-1j * (4.0 * np.pi / lam) * (r_p - r0))
            keep = q_len - qb
            cube[qb:, :] += sigma * frames[:keep, :] * phase[None, :]

    if snr_db is not None:
        ref_power = params.amplitude**2 * (strongest**2 if strongest > 0 else 1.0)
        noise_power = ref_power / 10.0 ** (snr_db / 10.0)
        scale = np.sqrt(noise_power / 2.0)
        child_seeds = np.random.SeedSequence(noise_seed).spawn(p_len)
        for p, ss in enumerate(child_seeds):
            rng = np.random.default_rng(ss)
            cube[:, p] += scale * (rng.standard_normal(q_len) + 1j * rng.standard_normal(q_len))

    return DataCube(samples=cube, params=params, noise_seed=noise_seed, snr_db=snr_db)

"""Point/extended targets and synthesis of the received fast/slow-time cube.

The receiver sits at the origin. Each scatterer contributes a delayed copy of
every packet's transmit frame, weighted by reflectivity (optionally with
inverse-square two-way path loss) and rotated by the slow-time Doppler phase
that its advancing range implies. Delays are rounded to the sample grid and
held at their CPI-start value (stop-and-hop: the worst-case range migration
over a CPI here is centimeters, below one range bin).

Because the delay only moves a frame in fast time and the Doppler phase only
rotates it in slow time, the echo of S scatterers under a schedule of U
distinct frames is one matrix product, cube = Shifts (Q x U*S) @ Phases
(U*S x P): column u*S + s of Shifts is frame u delayed and weighted for
scatterer s, and row u*S + s of Phases is s's slow-time rotation on the
packets that carry frame u and zero on the others.

Receiver noise belongs to the scene, not to the waveform: its seed, its
per-packet streams and its scale (set by the strongest scatterer) are the
same for every schedule. `noise_block` draws it once as a Q x P block, the
cube's shape, and `synthesize_echo` adds a block it is handed to each echo,
so a comparison run draws the noise once for all its waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._threads import for_blocks
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


def _weighted_reflectivity(sc: PointScatterer, path_loss: PathLoss):
    """sigma': the reflectivity, over r0^2 under inverse-square path loss."""
    if path_loss is PathLoss.INVERSE_SQUARE:
        return sc.reflectivity / sc.range_m**2
    return sc.reflectivity


def strongest_amplitude(targets, path_loss: PathLoss = PathLoss.INVERSE_SQUARE) -> float:
    """Largest |sigma'| over the scene's scatterers, 0.0 for an empty scene."""
    return max(
        (abs(_weighted_reflectivity(sc, path_loss)) for t in targets for sc in t.scatterers),
        default=0.0,
    )


def noise_block(
    params: WaveformParams, snr_db: float, seed: int, strongest: float
) -> np.ndarray:
    """Scaled receiver noise as a Q x P complex block, the cube's shape.

    Circular complex white Gaussian noise, calibrated so the per-sample SNR
    of an echo of amplitude `strongest` equals snr_db (reference power
    amplitude^2 when `strongest` is 0). Packet p's column is drawn from its
    own stream, SeedSequence(seed).spawn(P)[p], so the block does not depend
    on how its packets are split across the ISACSIM_THREADS workers. Each
    draw fills one row of a packet-major buffer, returned transposed.
    """
    q_len = params.samples_per_pri
    p_len = params.packets_per_cpi
    ref_power = params.amplitude**2 * (strongest**2 if strongest > 0 else 1.0)
    noise_power = ref_power / 10.0 ** (snr_db / 10.0)
    scale = np.sqrt(noise_power / 2.0)
    child_seeds = np.random.SeedSequence(seed).spawn(p_len)
    block = np.empty((p_len, q_len), dtype=np.complex128)

    def draw(rows: slice):
        for p in range(rows.start, rows.stop):
            rng = np.random.default_rng(child_seeds[p])
            block[p] = scale * (rng.standard_normal(q_len) + 1j * rng.standard_normal(q_len))

    for_blocks(draw, p_len)
    return block.T


def delay_bin(range_m: float, params: WaveformParams) -> int:
    """q_b = round(2 r / (c T_s)), the rounded two-way delay in samples."""
    return round(2.0 * range_m / (SPEED_OF_LIGHT_MPS * params.sample_period_s))


def _checked_delay_bin(sc: PointScatterer, params: WaveformParams) -> int:
    """The scatterer's delay bin; ScenarioError when its echo does not fit
    the PRI or its radial speed exceeds the Doppler ambiguity limit."""
    q_len = params.samples_per_pri
    max_range = SPEED_OF_LIGHT_MPS * q_len * params.sample_period_s / 2.0
    r0 = sc.range_m
    if r0 >= max_range:
        raise ScenarioError(
            f"scatterer at {r0:.2f} m is beyond the unambiguous range {max_range:.2f} m"
        )
    v_max = params.max_unambiguous_velocity_mps
    if abs(sc.radial_velocity_mps) > v_max:
        raise ScenarioError(
            f"radial speed {sc.radial_velocity_mps:.2f} m/s exceeds the "
            f"ambiguity limit {v_max:.2f} m/s"
        )
    qb = delay_bin(r0, params)
    if qb >= q_len:
        raise ScenarioError(f"delay bin {qb} falls outside the PRI ({q_len} samples)")
    return qb


def check_scene(targets, params: WaveformParams) -> None:
    """Raise the ScenarioError `synthesize_echo` would raise for this scene."""
    for target in targets:
        for sc in target.scatterers:
            _checked_delay_bin(sc, params)


def synthesize_echo(
    schedule: FrameSchedule,
    targets,
    params: WaveformParams,
    path_loss: PathLoss = PathLoss.INVERSE_SQUARE,
    noise: np.ndarray | None = None,
) -> DataCube:
    """Received Q x P cube for the given schedule and targets.

    Each scatterer adds sigma' * s_p[q - q_b] * exp(j phi_p) where sigma' is
    the (optionally path-loss weighted) reflectivity and phi_p =
    -(4 pi / lambda) * (r_b(p) - r_b(0)) is the phase of the advancing range
    r_b(p) = ||position + velocity * p * T_pri||. For radial motion this
    equals the textbook -2 pi f_D p T_pri with f_D = 2 v / lambda, exactly.

    The sum over scatterers is the single product Shifts @ Phases described
    in the module docstring, one code path for one (FMCW, PMCW) or two
    (Golay) distinct frames. It runs only over the rows [min q_b, max q_b +
    support), where support ends at the last nonzero sample of any frame;
    every other row of the echo is exactly zero.

    `noise`, a Q x P block from `noise_block`, is added as it is; without
    one the echo is noise-free.
    """
    q_len = params.samples_per_pri
    p_len = params.packets_per_cpi
    if len(schedule) != p_len:
        raise ScenarioError(
            f"schedule carries {len(schedule)} packets but the CPI holds {p_len}"
        )
    pri = params.pri_s
    lam = params.wavelength_m
    packet_idx = np.arange(p_len)

    delays, sigmas, rotations = [], [], []
    for target in targets:
        for sc in target.scatterers:
            qb = _checked_delay_bin(sc, params)
            r0 = sc.range_m
            sigma = _weighted_reflectivity(sc, path_loss)
            # advancing range drives the slow-time phase; delay stays put
            r_p = np.linalg.norm(
                sc.position_m[None, :] + sc.velocity_mps[None, :] * (packet_idx[:, None] * pri),
                axis=1,
            )
            delays.append(qb)
            sigmas.append(sigma)
            rotations.append(np.exp(-1j * (4.0 * np.pi / lam) * (r_p - r0)))

    cube = np.zeros((q_len, p_len), dtype=np.complex128)
    # Every frame is zero past its last active sample, so only rows
    # [min q_b, max q_b + support) can hold echo; the product fills that band.
    active = np.flatnonzero(schedule.frames.any(axis=0))
    if delays and active.size:
        frames = schedule.frames
        u_len, s_len = len(frames), len(delays)
        lo = min(delays)
        hi = min(q_len, max(delays) + int(active[-1]) + 1)
        # shifts[q, u, s] = sigma_s * frames[u, q - q_s]: column u*S + s of Shifts
        shifts = np.zeros((hi - lo, u_len, s_len), dtype=np.complex128)
        for s, (qb, sigma) in enumerate(zip(delays, sigmas)):
            keep = hi - qb
            shifts[qb - lo :, :, s] = sigma * frames[:, :keep].T
        # phases[u, s, p] = rotation_s[p] where packet p carries frame u, else 0
        carries = schedule.packet_map == np.arange(u_len)[:, None, None]
        phases = np.where(carries, np.array(rotations), 0.0)
        np.matmul(
            shifts.reshape(hi - lo, u_len * s_len),
            phases.reshape(u_len * s_len, p_len),
            out=cube[lo:hi],
        )

    if noise is not None:
        if noise.shape != (q_len, p_len):
            raise ParameterError(f"noise block must be {q_len} x {p_len}, got {noise.shape}")
        cube += noise

    return DataCube(samples=cube, params=params)

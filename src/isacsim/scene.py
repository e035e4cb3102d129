"""Point/extended targets and synthesis of the received fast/slow-time cube.

The receiver sits at the origin. Each scatterer contributes a delayed copy of
every packet's transmit frame, weighted by reflectivity (optionally with
inverse-square two-way path loss) and rotated by the slow-time Doppler phase
that its advancing range implies. Delays are rounded to the sample grid and
held at their CPI-start value (stop-and-hop: the worst-case range migration
over a CPI here is centimeters, below one range bin).

Because the delay only moves a frame in fast time and the Doppler phase only
rotates it in slow time, the echo of S scatterers under a schedule of U
distinct frames is one matrix product, Shifts (Q x U*S) @ Phases (U*S x P):
column u*S + s of Shifts is frame u delayed and weighted for scatterer s,
and row u*S + s of Phases is s's slow-time rotation on the packets that
carry frame u and zero on the others. The cube stores that product's
transpose: it is P x Q, row p holding packet p's fast time, so every
per-packet pass of the matched filter reads contiguous memory.

Receiver noise belongs to the scene, not to the waveform: its seed, its
per-packet streams and its scale (set by the strongest scatterer) are the
same for every schedule. `noise_block` draws it once as a P x Q block, the
cube's shape, and a noisy echo from `synthesize_echo` starts as a copy of the
block it is handed, so a comparison run draws the noise once for all its
waveforms.

`check_scene` walks the scene once for both: it gives each scatterer's delay
bin and weighted reflectivity and rejects a scene that cannot run, before
`noise_block` draws or `synthesize_echo` multiplies anything.
"""

from __future__ import annotations

import math
import mmap
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
    samples: np.ndarray  # P x Q complex: row p is packet p's fast time
    params: WaveformParams

    def __post_init__(self):
        p, q = self.params.packets_per_cpi, self.params.samples_per_pri
        if self.samples.shape != (p, q):
            raise ParameterError(f"cube must be {p} x {q}, got {self.samples.shape}")


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


def _noise_power(params: WaveformParams, snr_db: float, sigmas) -> float:
    """Complex noise power per sample that puts an echo of the strongest
    amplitude max |sigma'| at snr_db (reference power amplitude^2 for an
    empty scene); math.inf when a square passes the float range."""
    strongest = max(map(abs, sigmas), default=0.0)
    try:
        ref_power = params.amplitude**2 * (strongest**2 if strongest > 0 else 1.0)
    except OverflowError:
        return math.inf
    return ref_power / 10.0 ** (snr_db / 10.0)


def _zeroed_cube(p_len: int, q_len: int) -> np.ndarray:
    """A zeroed P x Q complex array in a private anonymous mapping.

    Its 4 KB pages become resident only where they are written. numpy's own
    allocator asks for transparent huge pages, so a noise-free echo, which
    writes a band of every packet row, would make every 2 MB page resident;
    a shared mapping (mmap's default) would also fault pages in on reads.
    Faulting 4 KB pages costs time, so only a noise-free echo uses this.
    """
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    buf = mmap.mmap(-1, max(1, 16 * p_len * q_len), flags=flags)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.complex128, count=p_len * q_len).reshape(p_len, q_len)


def noise_block(
    targets,
    params: WaveformParams,
    snr_db: float,
    seed: int,
    path_loss: PathLoss = PathLoss.INVERSE_SQUARE,
) -> np.ndarray:
    """The scene's receiver noise as a P x Q complex block, the cube's shape.

    Circular complex white Gaussian noise, calibrated so the per-sample SNR
    of the scene's strongest echo, amplitude A * max |sigma'|, equals snr_db
    (reference power A^2 for an empty scene). Packet p's row is drawn from
    its own stream, SeedSequence(seed).spawn(P)[p], so the block does not
    depend on how its packets are split across the ISACSIM_THREADS workers.
    Raises `check_scene`'s ScenarioError before anything is drawn.
    """
    q_len = params.samples_per_pri
    p_len = params.packets_per_cpi
    sigmas = [sigma for _, _, sigma in check_scene(targets, params, path_loss, snr_db)]
    scale = np.sqrt(_noise_power(params, snr_db, sigmas) / 2.0)
    child_seeds = np.random.SeedSequence(seed).spawn(p_len)
    block = np.empty((p_len, q_len), dtype=np.complex128)

    def draw(rows: slice):
        for p in range(rows.start, rows.stop):
            rng = np.random.default_rng(child_seeds[p])
            block[p] = scale * (rng.standard_normal(q_len) + 1j * rng.standard_normal(q_len))

    for_blocks(draw, p_len)
    return block


def delay_bin(range_m: float, params: WaveformParams) -> int:
    """q_b = round(2 r / (c T_s)), the rounded two-way delay in samples."""
    return round(2.0 * range_m / (SPEED_OF_LIGHT_MPS * params.sample_period_s))


def check_scene(
    targets, params: WaveformParams, path_loss: PathLoss, snr_db: float | None
) -> list[tuple[PointScatterer, int, complex]]:
    """The scene as (scatterer, q_b, sigma') per scatterer, in order: its
    delay bin and its reflectivity, over r0^2 under inverse-square path loss.

    The one walk over the scene, run by `noise_block` and `synthesize_echo`.
    It raises ScenarioError for a scatterer whose echo does not fit the PRI
    or whose radial speed exceeds the Doppler ambiguity limit, and for a
    scene whose numbers, with noise at snr_db (None: noise-free), could
    overflow.

    The overflow bound holds before anything is drawn. No echo sample exceeds
    X = A * sum |sigma'| + 10 noise std, with A the chip amplitude (complex
    Gaussian noise passes ten standard deviations with probability e^-100).
    The fast-time FFT gains at most Q, the N-chip reference spectrum N * A,
    the steering sum P and the unscaled inverse FFT Q, so no value of either
    matched filter exceeds B = Q^2 N P A X. B must stay below 1e150: a map
    value (at most B / Q) then squares to below 1e300 / Q^2, so the
    fixed-point sweep's signal power, a sum of J * Q such squares, stays
    finite for any grid of fewer than 1e8 * Q bins.
    """
    q_len, p_len = params.samples_per_pri, params.packets_per_cpi
    max_range = SPEED_OF_LIGHT_MPS * q_len * params.sample_period_s / 2.0
    v_max = params.max_unambiguous_velocity_mps
    inverse_square = path_loss is PathLoss.INVERSE_SQUARE
    scene = []
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
            scene.append((sc, qb, sc.reflectivity / r0**2 if inverse_square else sc.reflectivity))
    sigmas = [sigma for _, _, sigma in scene]
    noise_std = 0.0 if snr_db is None else math.sqrt(_noise_power(params, snr_db, sigmas))
    amp = params.amplitude
    reach = sum(abs(sigma) for sigma in sigmas)
    bound = q_len * q_len * params.code_length * p_len * amp * (amp * reach + 10.0 * noise_std)
    if not bound < 1e150:
        raise ScenarioError(
            f"the echo could overflow: its matched filter may reach {bound:.3g} (limit 1e150)"
        )
    return scene


def synthesize_echo(
    schedule: FrameSchedule,
    targets,
    params: WaveformParams,
    path_loss: PathLoss = PathLoss.INVERSE_SQUARE,
    noise: np.ndarray | None = None,
) -> DataCube:
    """Received P x Q cube for the given schedule and targets.

    Each scatterer adds sigma' * s_p[q - q_b] * exp(j phi_p) where sigma' is
    the (optionally path-loss weighted) reflectivity and phi_p =
    -(4 pi / lambda) * (r_b(p) - r_b(0)) is the phase of the advancing range
    r_b(p) = ||position + velocity * p * T_pri||. For radial motion this
    equals the textbook -2 pi f_D p T_pri with f_D = 2 v / lambda, exactly.
    The scene passes `check_scene` without noise first.

    The sum over scatterers is the product Shifts @ Phases described in the
    module docstring, one code path for one (FMCW, PMCW) or two (Golay)
    distinct frames. It runs only over the fast-time band [min q_b, max q_b +
    support), where support ends at the last nonzero sample of any frame;
    every other sample of the echo is exactly zero. The band's rows of
    Shifts are split into `for_blocks` blocks of at least two, and each
    block's product is written transposed into its columns of the cube; a
    row of the product does not depend on the block it is computed in.

    `noise`, a P x Q block from `noise_block`, is where a noisy echo starts:
    the cube is a copy of it and the band is added in. Without one the echo
    is noise-free.
    """
    q_len = params.samples_per_pri
    p_len = params.packets_per_cpi
    if len(schedule) != p_len:
        raise ScenarioError(
            f"schedule carries {len(schedule)} packets but the CPI holds {p_len}"
        )
    scene = check_scene(targets, params, path_loss, None)
    if noise is not None and noise.shape != (p_len, q_len):
        raise ParameterError(f"noise block must be {p_len} x {q_len}, got {noise.shape}")
    # A noisy echo is a copy of its noise, served by numpy's allocator (huge
    # pages, reused heap); a noise-free one writes only the band below.
    if noise is None:
        cube = _zeroed_cube(p_len, q_len)
    else:
        cube = noise.astype(np.complex128, order="C")
    # Every frame is zero past its last active sample, so only fast-time
    # samples [min q_b, max q_b + support) can hold echo; the product fills
    # that band of every packet row.
    active = np.flatnonzero(schedule.frames.any(axis=0))
    if scene and active.size:
        frames = schedule.frames
        u_len, s_len = len(frames), len(scene)
        delays = [qb for _, qb, _ in scene]
        lo = min(delays)
        hi = min(q_len, max(delays) + int(active[-1]) + 1)
        # shifts[q, u, s] = sigma_s * frames[u, q - q_s]: column u*S + s of Shifts
        shifts = np.zeros((hi - lo, u_len, s_len), dtype=np.complex128)
        # rotation_s[p] = exp(-j (4 pi / lambda) (r_s(p) - r_s(0))): the
        # advancing range drives the slow-time phase; the delay stays put
        t_p = np.arange(p_len)[:, None] * params.pri_s
        k = 4.0 * np.pi / params.wavelength_m
        rotations = []
        for s, (sc, qb, sigma) in enumerate(scene):
            shifts[qb - lo :, :, s] = sigma * frames[:, : hi - qb].T
            r_p = np.linalg.norm(sc.position_m + sc.velocity_mps * t_p, axis=1)
            rotations.append(np.exp(-1j * k * (r_p - sc.range_m)))
        # phases[u, s, p] = rotation_s[p] where packet p carries frame u, else 0
        carries = schedule.packet_map == np.arange(u_len)[:, None, None]
        phases = np.where(carries, np.array(rotations), 0.0)
        shifts = shifts.reshape(hi - lo, u_len * s_len)
        phases = phases.reshape(u_len * s_len, p_len)

        def fill(r):  # band rows r, as columns lo + r of every packet row
            if noise is None:
                cube[:, lo + r.start : lo + r.stop] = (shifts[r] @ phases).T
            else:
                cube[:, lo + r.start : lo + r.stop] += (shifts[r] @ phases).T

        # Two or more rows keep every block on the GEMM path: a one-row
        # product goes through GEMV, whose bits can differ.
        for_blocks(fill, hi - lo, min_block=2)

    return DataCube(samples=cube, params=params)

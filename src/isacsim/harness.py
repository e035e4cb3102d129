"""End-to-end comparison runs: synthesis, processing, metrics, artifacts.

`run_comparison` executes every configured waveform against the configured
scene, writes one range-Doppler map CSV and one peak-cut range profile CSV
per waveform plus a machine-readable `summary.json`, and reports per-waveform
detections, PSLR, optional oracle deviations, and optional fixed-point
accuracy rows with each quantized stage's clip count. CSV artifacts are
deterministic for a fixed configuration (timings live only in the summary):
every number is the text of `'%.9g' % x`, produced a span of values at a
time by the vectorized formatter in `_csvformat`, which formats the spans on
the ISACSIM_THREADS workers and writes them in order, so the bytes do not
depend on the thread count.

The run streams: it draws the scene's receiver noise once
(`noise_block`), then `run_waveform` takes one waveform at a time from its
schedule through synthesis, the matched filter, the optional oracle,
detection and PSLR, the optional fixed-point sweep (scored against the
run's own double map), the CSVs and the optional `run_benchmarks` timings.
Only then is the next waveform started, and its cubes and map are gone: a
`WaveformResult` holds no array. Every cube has one reader, which consumes
it. The waveform's `echo()` synthesizes each from the same schedule,
targets and noise block (the same bytes): the filter's, which the filter
transforms in place and, with at most P Doppler bins, writes the map over,
so one P x Q buffer is in memory at a time besides the shared P x Q noise
block; the oracle's, once its guard has passed; each fixed-point format's,
once the run has copied the J x Q map out of the filter's cube and dropped
that cube; and each benchmark repeat's, made outside the timed call after
the CSVs are written and the map is dropped. Each waveform's
summary times its synthesis (without the shared noise draw, which the
run-level `timings_s.noise` times), the filter alone and artifact writing;
a fixed-point row's `runtime_s` covers its cube's synthesis. The summary
starts with its `schema_version`; its `tool.version` is
`isacsim.__version__`, the one place the version is written, and its
`environment` block records what produced the numbers.

`noise_block` and `synthesize_echo` both run `scene.check_scene` first, so a
scene that cannot run fails at the noise draw, or with noise off at the
first echo. The output directory is made only when the first artifact is
about to be written, so a run that fails before then leaves none behind.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._csvformat import write_rows
from ._threads import blas_core, blas_pool_size, thread_count
from .config import ScenarioConfig, render_config
from .errors import NoDetectionError, OracleGuardError
from .fxp import SweepResult, precision_sweep
from .params import WaveformParams, round_sig, scaled_profile
from .rsp import (
    ORACLE_GUARD,
    Detection,
    DopplerGrid,
    RangeDopplerMap,
    check_oracle_guard,
    detect_peak,
    map_relative_deviation,
    matched_filter_rd,
    pslr_db,
    time_domain_oracle,
)
from .scene import (
    DataCube,
    TargetModel,
    make_car,
    make_pedestrian,
    noise_block,
    point_target,
    radial_unit,
    synthesize_echo,
)
from .waveform import FrameSchedule, ScheduleKind, build_schedule

TOOL_NAME = "isacsim"
# The layout of summary.json; raised whenever a field is renamed or removed.
SCHEMA_VERSION = 1


def build_targets(cfg: ScenarioConfig) -> list[TargetModel]:
    """Materialize the configured scene as target models."""
    if cfg.target_kind == "none":
        return []
    pos = np.asarray(cfg.position_m, dtype=np.float64)
    unit = radial_unit(pos)
    if cfg.velocity_mps is not None:
        vel = np.asarray(cfg.velocity_mps, dtype=np.float64)
        speed = float(vel @ unit)
    else:
        speed = float(cfg.radial_speed_mps)
        vel = speed * unit
    if cfg.target_kind == "single_point":
        return [point_target(pos, vel, rcs_dbsm=cfg.rcs_dbsm)]
    if cfg.target_kind == "pedestrian":
        return [
            make_pedestrian(pos, seed=cfg.seed_scene, speed_mps=speed, rcs_dbsm=cfg.rcs_dbsm)
        ]
    return [
        make_car(
            pos,
            seed=cfg.seed_scene,
            speed_mps=speed,
            rcs_dbsm=cfg.rcs_dbsm,
            count=cfg.scatterer_count,
        )
    ]


def derived_parameters(params: WaveformParams) -> dict:
    """Resolution and coverage figures, with notes on the two quantities whose
    first-principles values disagree with the commonly quoted nominals."""
    vres = params.velocity_resolution_mps
    vres_4ms = params.wavelength_m / (2.0 * 4e-3)
    listen = params.max_range_listening_m
    ambig = params.max_range_pri_m
    notes = [
        (
            f"velocity resolution wavelength/(2*CPI) is {round_sig(vres, 4)} m/s for this "
            f"run; a 4 ms CPI yields {round_sig(vres_4ms, 3)} m/s, about twice the "
            f"nominal 0.3 m/s figure"
        ),
        (
            f"maximum range is capped by the {params.code_length}-sample listening window "
            f"at {round_sig(listen, 4)} m (nominally quoted as 44 m); the PRI alone "
            f"would allow {round_sig(ambig, 4)} m"
        ),
    ]
    return {
        "range_resolution_m": params.range_resolution_m,
        "max_unambiguous_velocity_mps": params.max_unambiguous_velocity_mps,
        "velocity_resolution_mps": vres,
        "max_range_listening_m": listen,
        "max_range_pri_m": ambig,
        "notes": notes,
    }


@dataclass
class WaveformResult:
    """What one waveform leaves once its artifacts are written: figures and
    file names, no cube, map or other array."""

    kind: ScheduleKind
    detection: Detection | None
    pslr_db: float | None
    synth_s: float
    process_s: float
    write_s: float
    artifacts: dict[str, str]
    oracle_deviation: float | None = None
    oracle_note: str | None = None
    sweep: SweepResult | None = None
    benchmark: dict | None = None  # run_benchmarks' entry under --bench
    failure: str | None = None


@dataclass
class RunOutcome:
    summary: dict
    results: list[WaveformResult]
    out_dir: Path
    exit_code: int  # 0 = clean, 4 = at least one waveform failed


def write_rd_map_csv(path: Path, rd_map: RangeDopplerMap):
    """Two header lines (range axis in m, Doppler-velocity axis in m/s), then
    one row of %.9g magnitudes per Doppler bin."""
    with open(path, "wb") as fh:
        write_rows(fh, rd_map.range_axis_m[None, :])
        write_rows(fh, rd_map.doppler_axis_mps[None, :])
        write_rows(fh, rd_map.values)


def write_range_profile_csv(path: Path, rd_map: RangeDopplerMap, doppler_bin: int):
    """Same header convention as the map; the second line holds the single
    velocity of the extracted Doppler cut."""
    with open(path, "wb") as fh:
        write_rows(fh, rd_map.range_axis_m[None, :])
        write_rows(fh, [[rd_map.doppler_axis_mps[doppler_bin]]])
        write_rows(fh, rd_map.range_cut(doppler_bin)[None, :])


def _json_float(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def run_waveform(
    cfg: ScenarioConfig,
    kind: ScheduleKind,
    targets: list[TargetModel],
    grid: DopplerGrid,
    out_path: Path,
    noise: np.ndarray | None = None,
) -> WaveformResult:
    """Full pipeline for one waveform: schedule, echo (plus the run's shared
    `noise` block), matched filter, the optional oracle, peak detection and
    PSLR, the optional fixed-point sweep, the two CSVs in `out_path` and the
    optional benchmark timings.

    `echo()` is the one source of cubes, and each cube has one reader, which
    consumes it: the filter gets the first, which it overwrites and, with at
    most P Doppler bins, writes the map over. The oracle gets one once its
    guard has passed. With formats the map is copied out and the filter's
    cube dropped before the sweep, which calls `echo()` once per format.
    The benchmark calls it for each of its repeats once the CSVs are
    written and the map is dropped. The map and the cubes die with this
    call; `out_path` is made, if need be, just before the CSVs are written."""
    params = cfg.params
    t0 = time.perf_counter()
    schedule = build_schedule(kind, params, seed=cfg.seed_code)

    def echo() -> DataCube:
        return synthesize_echo(schedule, targets, params, path_loss=cfg.path_loss, noise=noise)

    cube = echo()
    synth_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    rd_map = matched_filter_rd(cube, schedule, grid)
    process_s = time.perf_counter() - t1
    del cube  # consumed: on at most P bins the map is written over it

    oracle_deviation = oracle_note = None
    if cfg.run_oracle:
        try:
            check_oracle_guard(grid)  # before a cube is made for it
            oracle_map = time_domain_oracle(echo(), schedule, grid)
            oracle_deviation = map_relative_deviation(rd_map, oracle_map)
        except OracleGuardError as exc:
            oracle_note = f"oracle skipped: {exc}"

    detection = pslr = failure = None
    try:
        detection = detect_peak(rd_map)
        pslr = pslr_db(rd_map.range_cut(detection.doppler_bin))
    except NoDetectionError as exc:
        failure = str(exc)

    sweep = None
    if cfg.fxp_formats and failure is None:
        # the map's own copy, so the cube it was written over can go
        rd_map = RangeDopplerMap(rd_map.values.copy(), rd_map.range_axis_m, rd_map.doppler_axis_mps)
        sweep = precision_sweep(
            echo, schedule, grid, cfg.fxp_formats, cfg.fxp_mode, double_map=rd_map
        )

    artifacts = {
        "rd_map_csv": f"{kind.value}_rd_map.csv",
        "range_profile_csv": f"{kind.value}_range_profile.csv",
    }
    out_path.mkdir(parents=True, exist_ok=True)
    t2 = time.perf_counter()
    write_rd_map_csv(out_path / artifacts["rd_map_csv"], rd_map)
    cut_bin = detection.doppler_bin if detection is not None else grid.zero_bin
    write_range_profile_csv(out_path / artifacts["range_profile_csv"], rd_map, cut_bin)
    write_s = time.perf_counter() - t2
    del rd_map

    benchmark = run_benchmarks(cfg, echo, schedule, grid) if cfg.bench_enabled else None
    if benchmark is not None and sweep is not None:
        benchmark["fixed_point"] = [
            {"format": str(row.report.format), "runtime_s": row.runtime_s} for row in sweep.rows
        ]

    return WaveformResult(
        kind=kind,
        detection=detection,
        pslr_db=pslr,
        synth_s=synth_s,
        process_s=process_s,
        write_s=write_s,
        artifacts=artifacts,
        oracle_deviation=oracle_deviation,
        oracle_note=oracle_note,
        sweep=sweep,
        benchmark=benchmark,
        failure=failure,
    )


def _waveform_summary(result: WaveformResult) -> dict:
    entry: dict = {"waveform": result.kind.value}
    if result.detection is not None:
        det = result.detection
        entry["detection"] = {
            "range_m": det.range_m,
            "velocity_mps": det.velocity_mps,
            "range_bin": det.range_bin,
            "doppler_bin": det.doppler_bin,
            "peak_magnitude": det.peak_magnitude,
        }
        entry["pslr_db"] = _json_float(result.pslr_db)
        if result.pslr_db is not None and math.isinf(result.pslr_db):
            entry["pslr_note"] = "no nonzero sidelobes in the peak range cut"
    else:
        entry["detection"] = None
        entry["pslr_db"] = None
        entry["error"] = result.failure
    entry["timings_s"] = {
        "synthesize": result.synth_s,
        "process": result.process_s,
        "write": result.write_s,
    }
    if result.oracle_deviation is not None:
        entry["oracle_max_relative_deviation"] = result.oracle_deviation
    if result.oracle_note is not None:
        entry["oracle_note"] = result.oracle_note
    if result.sweep is not None:
        rows = []
        for row in result.sweep.rows:
            rep = row.report
            rows.append(
                {
                    "format": str(rep.format),
                    "mode": rep.mode.value,
                    "sqnr_db": _json_float(rep.sqnr_db),
                    "peak_bin_agree": rep.peak_bin_agree,
                    "pslr_double_db": _json_float(rep.pslr_double_db),
                    "pslr_fxp_db": _json_float(rep.pslr_fxp_db),
                    "pslr_delta_db": _json_float(rep.pslr_delta_db),
                    "pslr_agree": rep.pslr_agree,
                    "saturation_fraction": rep.saturation_fraction,
                    "saturation_counts": dict(rep.saturation_counts),
                    "warning": rep.warning,
                    "runtime_s": row.runtime_s,
                }
            )
        entry["fixed_point"] = {
            "rows": rows,
            "sqnr_non_decreasing": result.sweep.monotone_sqnr,
        }
    entry["artifacts"] = result.artifacts
    return entry


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (2^20 bytes).

    This is the lifetime ru_maxrss, so a process that runs several
    comparisons reads the largest earlier run's peak here, not this run's.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB on Linux
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


_THP_MODE = "/sys/kernel/mm/transparent_hugepage/enabled"


def _transparent_hugepage() -> str | None:
    """The kernel's transparent huge page mode: the bracketed word of
    `_THP_MODE` ("always", "madvise" or "never"), None where it cannot be
    read. Under "always" or "madvise" the large arrays numpy allocates fault
    in 2 MB at a time."""
    try:
        with open(_THP_MODE) as fh:
            words = fh.read().split()
    except OSError:
        return None
    return next((w[1:-1] for w in words if w.startswith("[") and w.endswith("]")), None)


def _environment() -> dict:
    """What produced the run's numbers: versions, the thread rule's inputs
    and outcome, the BLAS pool size and CPU kernel read back from OpenBLAS
    and the transparent huge page mode (each None when it cannot be read)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "isacsim_threads": os.environ.get("ISACSIM_THREADS"),
        "thread_count": thread_count(),
        "blas_threads": blas_pool_size(),
        "blas_core": blas_core(),
        "cpu_count": os.cpu_count(),
        "transparent_hugepage": _transparent_hugepage(),
        "peak_rss_note": (
            "peak_rss_mb is the process's lifetime peak (ru_maxrss): after earlier "
            "runs in the same process it reads the largest of them"
        ),
    }


def run_comparison(cfg: ScenarioConfig, out_dir: Path | str | None = None) -> RunOutcome:
    """Run every configured waveform, write artifacts, and build the summary.

    Exit code semantics: 0 when every waveform produced a detection, 4 when
    at least one failed while the run itself completed. Scenario-level errors
    (impossible geometry and the like) propagate as exceptions.
    """
    started = time.perf_counter()
    out_path = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)

    targets = build_targets(cfg)
    grid = DopplerGrid(cfg.params, cfg.doppler_bins)
    results: list[WaveformResult] = []
    waveform_entries = []
    partial = []
    runtime_warnings: list[str] = list(cfg.warnings)

    noise, noise_s = None, 0.0
    if cfg.snr_db is not None:  # one draw for every waveform
        t0 = time.perf_counter()
        noise = noise_block(targets, cfg.params, cfg.snr_db, cfg.seed_noise, cfg.path_loss)
        noise_s = time.perf_counter() - t0

    for kind in cfg.waveforms:
        result = run_waveform(cfg, kind, targets, grid, out_path, noise)
        results.append(result)
        waveform_entries.append(_waveform_summary(result))
        if result.failure is not None:
            partial.append({"waveform": kind.value, "error": result.failure})
        if result.sweep is not None:
            for row in result.sweep.rows:
                if row.report.warning:
                    runtime_warnings.append(
                        f"{kind.value} {row.report.format}: {row.report.warning}"
                    )

    scatterer_total = sum(len(t.scatterers) for t in targets)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "environment": _environment(),
        "config_echo": render_config(cfg).splitlines(),
        "warnings": runtime_warnings,
        "derived": derived_parameters(cfg.params),
        "scene": {
            "target": cfg.target_kind,
            "position_m": list(cfg.position_m),
            "velocity_mps": list(cfg.velocity_mps) if cfg.velocity_mps is not None else None,
            "radial_speed_mps": cfg.radial_speed_mps,
            "rcs_dbsm": cfg.rcs_dbsm,
            "scatterers": scatterer_total,
            "snr_db": cfg.snr_db,
            "path_loss": cfg.path_loss.value,
            "seeds": {
                "code": cfg.seed_code,
                "noise": cfg.seed_noise,
                "scene": cfg.seed_scene,
            },
        },
        "doppler_bins": len(grid),
        "waveforms": waveform_entries,
        "partial_failures": partial,
    }

    if cfg.bench_enabled:
        summary["benchmark"] = {
            "repeats": cfg.bench_repeats,
            "warmup": 1,
            "waveforms": [result.benchmark for result in results],
        }

    summary["timings_s"] = {"total": time.perf_counter() - started, "noise": noise_s}
    summary["peak_rss_mb"] = _peak_rss_mb()
    out_path.mkdir(parents=True, exist_ok=True)  # a run of no waveform made none
    with open(out_path / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")

    return RunOutcome(
        summary=summary,
        results=results,
        out_dir=out_path,
        exit_code=4 if partial else 0,
    )


def _median_seconds(fn, make, repeats: int) -> float:
    """Median wall time of `repeats` calls fn(make()), after one warm-up
    call that is excluded. Each argument is made outside the timed call and
    dropped before the next is made, so fn may consume it."""
    times = []
    for _ in range(repeats + 1):
        arg = make()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
        del arg
    return statistics.median(times[1:])


def _oracle_bench(
    cubes: Callable[[], DataCube], schedule: FrameSchedule, grid: DopplerGrid, repeats: int
) -> dict:
    """Time the oracle on the largest guard-compliant prefix of a cube.

    The full instance usually violates the Q*P*J work guard, so the oracle is
    timed on a copy of the first P' packet rows of one cube from `cubes`,
    under the schedule's first P' entries, with a matching P'-bin grid. Its
    work is Q*Q*P multiply-adds of correlation plus Q*P*J of steering; the
    scaled estimate multiplies the measured time by the ratio of that work
    at full size to the work of the timed instance. When Q alone exceeds the guard
    not even one packet can be timed: no cube is made, and the entry reports
    0 packets and bins, no times, and a note that names the guard.
    """
    params = grid.params
    q_len, p_len = params.samples_per_pri, params.packets_per_cpi
    # J tracks P' on the FFT grid, so solve Q * P' * P' <= guard.
    max_p = int(math.floor(math.sqrt(ORACLE_GUARD / q_len)))
    if max_p < 1:
        note = (
            f"oracle not timed: Q = {q_len} fast-time samples alone exceed "
            f"the work guard ORACLE_GUARD = {ORACLE_GUARD} on Q*P*J"
        )
        return dict(packets_used=0, bins_used=0, median_s=None, scaled_estimate_s=None, note=note)
    p_used = min(p_len, max_p)
    sub_params = scaled_profile(params, p_used)
    sub_schedule = FrameSchedule(schedule.kind, schedule.frames, schedule.packet_map[:p_used])
    # the oracle only reads, so every repeat reads this copy of one cube's
    # first P' rows, and the cube itself goes at once
    sub_cube = DataCube(samples=cubes().samples[:p_used].copy(), params=sub_params)
    sub_grid = DopplerGrid(sub_params)
    median = _median_seconds(
        lambda c: time_domain_oracle(c, sub_schedule, sub_grid), lambda: sub_cube, repeats
    )
    ratio = (q_len * q_len * p_len + q_len * p_len * len(grid)) / (
        q_len * q_len * p_used + q_len * p_used * len(sub_grid)
    )
    note = None
    if p_used < p_len:
        note = (
            f"oracle timed on the first {p_used} of {p_len} packets with a "
            f"{len(sub_grid)}-bin grid (work guard); the estimate scales that time by "
            f"the ratio {ratio:.4g} of the oracle's work Q*Q*P + Q*P*J at full size "
            f"to its work on the timed instance"
        )
    return {
        "packets_used": p_used,
        "bins_used": len(sub_grid),
        "median_s": median,
        "scaled_estimate_s": median * ratio,
        "note": note,
    }


def run_benchmarks(
    cfg: ScenarioConfig, cubes: Callable[[], DataCube], schedule: FrameSchedule, grid: DopplerGrid
) -> dict:
    """Median-of-`cfg.bench_repeats` wall times (one warmup excluded) for one
    waveform's FFT processor and time-domain oracle: the waveform's entry of
    the summary's benchmark, to which `run_waveform` adds each fixed-point
    row's single-run `runtime_s` (not re-timed).

    `cubes` returns a fresh cube of the waveform's echo on each call, as
    `run_waveform`'s `echo` does. Each filter call, warmup included,
    consumes a cube of its own, made outside the timed call, so the timed
    filter is the in-place one the run uses and one cube is alive at a
    time; the oracle's repeats read one more cube."""
    fft_median = _median_seconds(
        lambda c: matched_filter_rd(c, schedule, grid), cubes, cfg.bench_repeats
    )
    oracle = _oracle_bench(cubes, schedule, grid, cfg.bench_repeats)
    return {
        "waveform": schedule.kind.value,
        "fft_median_s": fft_median,
        "oracle": oracle,
        "speedup_vs_oracle": (
            oracle["scaled_estimate_s"] / fft_median
            if fft_median > 0 and oracle["scaled_estimate_s"] is not None
            else None
        ),
    }

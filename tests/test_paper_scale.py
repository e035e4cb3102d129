"""The paper's results at paper scale (P = 2000), pinned against a golden file.

A point target at [12, 9, 0] m recedes at 0, 2, 10 and 30 m/s under the
table1 profile. All four waveforms run the library chain (schedule, echo,
matched filter, detection, peak-cut PSLR) on the FFT grid, and once more at
2 m/s on the 1999-bin dense grid. The extended targets of the sample config
(`seed_scene = 3`) stand at the same place: a car of 64 scatterers and a
pedestrian, each at 2 and 10 m/s on the FFT grid; their echo is one
synthesis GEMM with an inner dimension of U x 64 or U x 27. One fixed-point
run is pinned too: a <16,1> full_chain sweep of pmcw at 2 m/s on the FFT
grid, its quantized chain steering densely over P x P twiddles.

Detection bins are asserted under any numpy and BLAS, and so is the paper's
PSLR order: fmcw < pmcw < golay_standard <= golay_doppler_resilient for the
point target, and fmcw < pmcw < either Golay schedule for the car, whose two
Golay values are compared through the golden file only. The pedestrian's
order does not hold (its extent lies inside the mainlobe), so only its
detections are pinned. The map bytes and the exact PSLR depend on the FFT
build and on the CPU kernel OpenBLAS runs, so they are compared only under
the numpy version and the BLAS core the golden file was captured with, as
are the fixed-point run's SQNR and clip counts; its peak agreement is
asserted under any build.

Regenerate the golden file (only for a change that moves maps on purpose):

    PYTHONPATH=src python tests/test_paper_scale.py
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import isacsim as iz
from isacsim._threads import blas_core

GOLDEN = Path(__file__).with_name("paper_scale_golden.json")
KINDS = ("fmcw", "pmcw", "golay_standard", "golay_doppler_resilient")
SPEEDS_MPS = (0.0, 2.0, 10.0, 30.0)
DENSE_BINS = 1999
DENSE_SPEED_MPS = 2.0
SEED_CODE = 7  # configs/point_target.ini
SEED_SCENE = 3  # configs/point_target.ini
EXTENDED = ("car", "pedestrian")
EXTENDED_SPEEDS_MPS = (2.0, 10.0)
FXP_FORMAT = iz.FixedPointFormat(16, 1)
FXP_LABEL = "pmcw-16:1-full_chain-fft-2mps"


def _runs():
    """(label, target, speed, bins) of every pinned run; bins None is the FFT
    grid."""
    runs = [(f"fft-{speed:g}mps", "point", speed, None) for speed in SPEEDS_MPS]
    runs.append((f"dense{DENSE_BINS}-{DENSE_SPEED_MPS:g}mps", "point", DENSE_SPEED_MPS, DENSE_BINS))
    for target in EXTENDED:
        runs += [(f"{target}-fft-{speed:g}mps", target, speed, None) for speed in EXTENDED_SPEEDS_MPS]
    return runs


def make_target(target: str, speed_mps: float):
    position = np.array([12.0, 9.0, 0.0])
    if target == "car":
        return iz.make_car(position, seed=SEED_SCENE, speed_mps=speed_mps, rcs_dbsm=0.0, count=64)
    if target == "pedestrian":
        return iz.make_pedestrian(position, seed=SEED_SCENE, speed_mps=speed_mps, rcs_dbsm=0.0)
    return iz.point_target(position, speed_mps * position / np.linalg.norm(position))


def compute_run(target: str, speed_mps: float, bins: int | None) -> dict:
    """Detection, PSLR and map sha1 of each waveform for one run."""
    params = iz.scaled_profile(iz.WaveformParams(), 2000)
    targets = [make_target(target, speed_mps)]
    grid = iz.DopplerGrid(params, bins)
    out = {}
    for kind in KINDS:
        schedule = iz.build_schedule(iz.ScheduleKind(kind), params, seed=SEED_CODE)
        cube = iz.synthesize_echo(schedule, targets, params)
        rd_map = iz.matched_filter_rd(cube, schedule, grid)
        del cube
        det = iz.detect_peak(rd_map)
        out[kind] = {
            "range_bin": det.range_bin,
            "doppler_bin": det.doppler_bin,
            "pslr_db": iz.pslr_db(rd_map.range_cut(det.doppler_bin)),
            "map_sha1": hashlib.sha1(rd_map.values.tobytes()).hexdigest(),
        }
    return out


def compute_fixed_point() -> dict:
    """SQNR, peak agreement and clip counts of the pinned fixed-point run,
    scored against the filter's map of the same cube."""
    params = iz.scaled_profile(iz.WaveformParams(), 2000)
    schedule = iz.build_schedule(iz.ScheduleKind.PMCW, params, seed=SEED_CODE)
    cube = iz.synthesize_echo(schedule, [make_target("point", 2.0)], params)
    grid = iz.DopplerGrid(params)
    rd_map = iz.matched_filter_rd(cube, schedule, grid)
    sweep = iz.precision_sweep(
        lambda: cube, schedule, grid, [FXP_FORMAT], iz.FxpMode.FULL_CHAIN, double_map=rd_map
    )
    report = sweep.rows[0].report
    return {
        "sqnr_db": report.sqnr_db,
        "peak_bin_agree": report.peak_bin_agree,
        "saturation_counts": report.saturation_counts,
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label, target, speed, bins", _runs(), ids=[r[0] for r in _runs()])
def test_paper_scale_run_matches_the_golden_file(label, target, speed, bins):
    golden = _golden()
    expected = golden["runs"][label]
    got = compute_run(target, speed, bins)
    same_build = (np.__version__, blas_core()) == (golden["numpy"], golden["blas_core"])
    for kind in KINDS:
        want, have = expected[kind], got[kind]
        assert (have["range_bin"], have["doppler_bin"]) == (
            want["range_bin"],
            want["doppler_bin"],
        ), kind
        if same_build:
            assert have["map_sha1"] == want["map_sha1"], kind
            assert have["pslr_db"] == want["pslr_db"], kind
    pslr = [got[kind]["pslr_db"] for kind in KINDS]
    assert all(math.isfinite(x) for x in pslr), pslr
    if target == "point":
        # the paper's order: fmcw < pmcw < golay_standard <= golay_doppler_resilient
        assert pslr[0] < pslr[1] < pslr[2] <= pslr[3], pslr
    elif target == "car":
        assert pslr[0] < pslr[1] < min(pslr[2], pslr[3]), pslr


def test_paper_scale_fixed_point_run_matches_the_golden_file():
    golden = _golden()
    want = golden["fixed_point"][FXP_LABEL]
    have = compute_fixed_point()
    assert have["peak_bin_agree"]
    if (np.__version__, blas_core()) == (golden["numpy"], golden["blas_core"]):
        assert have == want


def main() -> int:
    runs = {label: compute_run(*run) for label, *run in _runs()}
    golden = {
        "numpy": np.__version__,
        "blas_core": blas_core(),
        "runs": runs,
        "fixed_point": {FXP_LABEL: compute_fixed_point()},
    }
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

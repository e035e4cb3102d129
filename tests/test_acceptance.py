"""Acceptance gate: nine end-to-end criteria at their stated tolerances.

Each criterion is one test (one pass/fail line under -v); every test also
prints a `criterion N PASS: ...` line with the measured values (shown with
-s, or automatically for failures) and asserts the criterion at the
documented tolerance. The canonical comparison
scene (point scatterer at [12, 9, 0], 15 m slant range, receding at 2 m/s,
noise off, Q = 3520, P = 64) is computed once and shared.
"""

import dataclasses
import filecmp
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

import isacsim as iz
from oracle_cases import random_case

KINDS = (
    iz.ScheduleKind.FMCW,
    iz.ScheduleKind.PMCW,
    iz.ScheduleKind.GOLAY_STANDARD,
    iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT,
)


@dataclass
class CanonicalRun:
    params: iz.WaveformParams
    grid: object
    detections: dict
    maps: dict
    cubes: dict
    schedules: dict
    pslr: dict
    elapsed_s: float


@pytest.fixture(scope="module")
def canonical():
    params = iz.WaveformParams(cpi_s=64 * 2e-6)
    pos = np.array([12.0, 9.0, 0.0])
    vel = 2.0 * pos / np.linalg.norm(pos)
    targets = [iz.point_target(pos, vel)]
    grid = iz.DopplerGrid(params)
    detections, maps, cubes, schedules, pslr = {}, {}, {}, {}, {}
    start = time.perf_counter()
    for kind in KINDS:
        schedule = iz.build_schedule(kind, params, seed=7)
        cube = iz.synthesize_echo(schedule, targets, params)  # noise off
        # the filter consumes its cube; criterion 7 sweeps copies of this one
        rd_map = iz.matched_filter_rd(iz.DataCube(cube.samples.copy(), params), schedule, grid)
        det = iz.detect_peak(rd_map)
        detections[kind], maps[kind] = det, rd_map
        cubes[kind], schedules[kind] = cube, schedule
        pslr[kind] = iz.pslr_db(rd_map.range_cut(det.doppler_bin))
    elapsed = time.perf_counter() - start
    return CanonicalRun(params, grid, detections, maps, cubes, schedules, pslr, elapsed)


def test_criterion_1_golay_identity_exact():
    start = time.perf_counter()
    for n_log2 in range(1, 10):  # N = 2 .. 512
        n = 2**n_log2
        pair = iz.golay_pair(n_log2)
        s = iz.aperiodic_autocorrelation(pair.a) + iz.aperiodic_autocorrelation(pair.b)
        expected = np.zeros(2 * n - 1, dtype=np.int64)
        expected[n - 1] = 2 * n
        assert np.array_equal(s, expected), f"complementarity broken at N={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: Golay sums exact for N=2..512 in {elapsed:.3f} s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        cube, schedule, grid = random_case(rng)
        slow = iz.time_domain_oracle(cube, schedule, grid)  # before the filter consumes the cube
        fast = iz.matched_filter_rd(cube, schedule, grid)
        worst = max(worst, iz.map_relative_deviation(fast, slow))
        assert worst < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 2 PASS: 20 scenes, worst fast-vs-oracle deviation "
        f"{worst:.3e} in {elapsed:.1f} s"
    )


def test_criterion_3_localization(canonical):
    grid = canonical.grid
    f_d = 2.0 * 2.0 / canonical.params.wavelength_m  # 800.55 Hz
    expected_doppler = grid.zero_bin + f_d / grid.spacing_hz
    for kind in KINDS:
        det = canonical.detections[kind]
        assert abs(det.range_bin - 176) <= 1, f"{kind.value} range bin {det.range_bin}"
        assert abs(det.doppler_bin - expected_doppler) <= 1.0, (
            f"{kind.value} doppler bin {det.doppler_bin} vs {expected_doppler:.2f}"
        )
    assert canonical.elapsed_s < 30.0
    print(
        f"criterion 3 PASS: all four peaks at range bin 176 (15 m) within one "
        f"Doppler bin of {f_d:.1f} Hz, computed in {canonical.elapsed_s:.2f} s"
    )


def test_criterion_4_pslr_values_and_ordering(canonical):
    p = canonical.pslr
    fmcw = p[iz.ScheduleKind.FMCW]
    pmcw = p[iz.ScheduleKind.PMCW]
    std = p[iz.ScheduleKind.GOLAY_STANDARD]
    dr = p[iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT]
    soft = [
        ("fmcw", fmcw, 8.0, 3.0),
        ("pmcw", pmcw, 13.0, 3.0),
        ("golay_standard", std, 43.0, 5.0),
    ]
    report = []
    for name, value, center, tol in soft:
        hit = abs(value - center) <= tol
        report.append(f"{name} {value:.2f} dB ({center}+-{tol}: {'hit' if hit else 'miss'})")
    report.append(f"golay_doppler_resilient {dr:.2f} dB (>= standard: "
                  f"{'hit' if dr >= std else 'miss'})")
    # hard criterion regardless of the soft windows: strict ordering
    assert fmcw < pmcw < std <= dr, f"ordering violated: {fmcw} {pmcw} {std} {dr}"
    assert dr >= std
    print("criterion 4 PASS: ordering fmcw < pmcw < standard <= resilient holds; "
          "soft windows: " + "; ".join(report))


def test_criterion_5_doppler_resilience(canonical):
    dr = canonical.pslr[iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT]
    std = canonical.pslr[iz.ScheduleKind.GOLAY_STANDARD]
    dr_sidelobe_db = -dr  # relative to peak
    assert dr_sidelobe_db <= -60.0, f"resilient sidelobes at {dr_sidelobe_db:.1f} dB"
    gap = dr - std
    assert gap >= 5.0, f"gap {gap:.1f} dB"
    print(
        f"criterion 5 PASS: 2 m/s mover, resilient sidelobes {dr_sidelobe_db:.1f} dB; "
        f"standard schedule {gap:.1f} dB worse"
    )


def test_criterion_6_static_complementarity(canonical):
    params = canonical.params
    grid = canonical.grid
    static = [iz.point_target(np.array([12.0, 9.0, 0.0]), np.zeros(3))]
    levels = {}
    for kind in (iz.ScheduleKind.GOLAY_STANDARD, iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT):
        schedule = iz.build_schedule(kind, params, seed=7)
        cube = iz.synthesize_echo(schedule, static, params)
        rd_map = iz.matched_filter_rd(cube, schedule, grid)
        det = iz.detect_peak(rd_map)
        sidelobe_db = -iz.pslr_db(rd_map.range_cut(det.doppler_bin))
        levels[kind.value] = sidelobe_db
        assert sidelobe_db <= -250.0, f"{kind.value} sidelobes {sidelobe_db:.1f} dB"
    printable = ", ".join(f"{k} {v:.1f} dB" for k, v in levels.items())
    print(f"criterion 6 PASS: static-target sidelobes cancel to roundoff ({printable})")


def test_criterion_7_fixed_point(canonical):
    fmt24 = iz.FixedPointFormat(24, 1)
    sweep_formats = [iz.FixedPointFormat(w, 1) for w in (16, 24, 32)]
    details = []
    for kind in KINDS:
        cube, schedule = canonical.cubes[kind], canonical.schedules[kind]
        rd_map = canonical.maps[kind]

        def copied():  # each format consumes a cube, and the fixture's is shared
            return iz.DataCube(samples=cube.samples.copy(), params=cube.params)

        report = iz.precision_sweep(
            copied, schedule, canonical.grid, [fmt24], iz.FxpMode.FULL_CHAIN, double_map=rd_map
        ).rows[0].report
        assert report.peak_bin_agree, f"{kind.value}: quantized peak moved"
        assert report.pslr_agree, (
            f"{kind.value}: PSLR {report.pslr_fxp_db:.2f} vs "
            f"{report.pslr_double_db:.2f} dB"
        )
        sweep = iz.precision_sweep(
            copied, schedule, canonical.grid, sweep_formats, double_map=rd_map
        )
        sqnrs = [row.report.sqnr_db for row in sweep.rows]
        assert sweep.monotone_sqnr
        assert sqnrs[0] <= sqnrs[1] <= sqnrs[2], f"{kind.value}: SQNR not monotone {sqnrs}"
        delta = report.pslr_delta_db
        delta_text = "no sidelobes left" if np.isinf(delta) else f"{delta:+.3f} dB"
        details.append(f"{kind.value} delta {delta_text}, sweep {[round(s, 1) for s in sqnrs]}")
    print(
        "criterion 7 PASS: <24,1> full chain keeps every peak bin and PSLR "
        "within budget; SQNR non-decreasing over <16,1>/<24,1>/<32,1>. "
        + "; ".join(details)
    )


def test_criterion_8_derived_parameters(tmp_path):
    params = iz.WaveformParams()  # design-table profile
    res = iz.round_sig(params.range_resolution_m, 3)
    vmax = iz.round_sig(params.max_unambiguous_velocity_mps, 3)
    assert res == pytest.approx(0.0852)
    assert vmax == pytest.approx(625.0)
    # the two documented discrepancies must surface in a real run summary
    # (design-table fast-time profile; short CPI only to keep the run quick)
    cfg = dataclasses.replace(
        iz.parse_config(""),
        params=iz.WaveformParams(cpi_s=16 * 2e-6),
        waveforms=(iz.ScheduleKind.PMCW,),
    )
    iz.run_comparison(cfg, tmp_path)
    notes = json.loads((tmp_path / "summary.json").read_text())["derived"]["notes"]
    velocity_note = next(n for n in notes if "velocity resolution" in n)
    range_note = next(n for n in notes if "maximum range" in n)
    assert "0.3" in velocity_note and "0.625" in velocity_note
    assert "44" in range_note and "43.6" in range_note and "299.8" in range_note
    print(
        f"criterion 8 PASS: range resolution {res} m and max velocity {vmax} m/s "
        f"match to 3 significant figures; velocity-resolution and max-range "
        f"discrepancies reported verbatim in the summary"
    )


def test_criterion_9_deterministic_artifacts(tmp_path):
    pri = 512 / 1.76e9
    cfg = dataclasses.replace(
        iz.parse_config(""),
        params=iz.WaveformParams(pri_s=pri, cpi_s=16 * pri, code_length=256),
        snr_db=10.0,  # noise exercises the seeded generator too
    )
    a, b = tmp_path / "a", tmp_path / "b"
    iz.run_comparison(cfg, a)
    iz.run_comparison(cfg, b)
    compared = 0
    for path in sorted(a.iterdir()):
        if path.suffix == ".csv":
            assert filecmp.cmp(path, b / path.name, shallow=False), path.name
            compared += 1
    assert compared == 2 * len(cfg.waveforms)
    print(
        f"criterion 9 PASS: {compared} CSV artifacts byte-identical across "
        f"re-runs with identical seeds"
    )

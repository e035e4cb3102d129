"""Matched filter, Doppler steering, oracle equivalence, peak metrics."""

import math

import numpy as np
import pytest

import isacsim as iz
from isacsim import rsp
from oracle_cases import random_case


class TestGrids:
    def test_default_grid_matches_slow_time_fft(self, small_params):
        grid = iz.default_grid(small_params)
        p = small_params.packets_per_cpi
        assert len(grid) == p
        assert grid.fft_aligned
        assert grid.spacing_hz == pytest.approx(1.0 / (p * small_params.pri_s))
        assert grid.frequencies_hz[grid.zero_bin] == 0.0

    def test_symmetric_grid_spans_the_ambiguity_band(self, small_params):
        grid = iz.symmetric_grid(small_params, 9)
        f_max = 1.0 / (2.0 * small_params.pri_s)
        assert len(grid) == 9
        assert grid.frequencies_hz[0] == pytest.approx(-f_max)
        assert grid.frequencies_hz[-1] == pytest.approx(f_max)
        assert grid.frequencies_hz[4] == 0.0
        assert not grid.fft_aligned
        # one bin per packet is still not the FFT grid: the span ends at +f_max
        odd = iz.scaled_profile(small_params, 63)
        assert not iz.symmetric_grid(odd, 63).fft_aligned

    def test_symmetric_grid_rejects_even_or_tiny_bin_counts(self, small_params):
        for bins in (2, 4, 1):
            with pytest.raises(iz.ParameterError):
                iz.symmetric_grid(small_params, bins)

    def test_grid_must_be_uniform(self):
        with pytest.raises(iz.ParameterError):
            iz.DopplerGrid(
                frequencies_hz=np.array([0.0, 1.0, 3.0]), spacing_hz=1.0, fft_aligned=False
            )

    @pytest.mark.parametrize("bins", [1, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_grid_frequencies_must_be_finite(self, bins, bad):
        freqs = np.arange(bins, dtype=np.float64)
        freqs[-1] = bad
        with pytest.raises(iz.ParameterError, match="finite"):
            iz.DopplerGrid(frequencies_hz=freqs, spacing_hz=1.0, fft_aligned=False)

    @pytest.mark.parametrize("bins", [1, 3])
    @pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf])
    def test_grid_spacing_must_be_finite_and_positive(self, bins, spacing):
        freqs = np.arange(bins) * (spacing if math.isfinite(spacing) else 1.0)
        with pytest.raises(iz.ParameterError, match="spacing"):
            iz.DopplerGrid(frequencies_hz=freqs, spacing_hz=spacing, fft_aligned=False)

    def test_a_one_bin_grid_takes_any_finite_positive_spacing(self):
        grid = iz.DopplerGrid(frequencies_hz=np.array([0.0]), spacing_hz=5.0, fft_aligned=False)
        assert len(grid) == 1


class TestMatchedFilter:
    def test_static_point_peaks_at_its_bins(self, ci_params, point_scene, all_kinds):
        static = [iz.point_target(np.array([12.0, 9.0, 0.0]), np.zeros(3))]
        grid = iz.default_grid(ci_params)
        for kind in all_kinds:
            sched = iz.build_schedule(kind, ci_params, seed=7)
            cube = iz.synthesize_echo(sched, static, ci_params)
            det = iz.detect_peak(iz.matched_filter_rd(cube, sched, grid))
            assert det.range_bin == 176
            assert det.doppler_bin == grid.zero_bin == 32

    def test_on_grid_doppler_lands_in_the_right_bin(self, small_params):
        # v = k * spacing * lambda / 2 coherently integrates at bin zero + k
        grid = iz.default_grid(small_params)
        k = 3
        v = k * grid.spacing_hz * small_params.wavelength_m / 2.0
        pos = np.array([10.0, 0.0, 0.0])
        target = [iz.point_target(pos, np.array([v, 0.0, 0.0]))]
        sched = iz.build_schedule(iz.ScheduleKind.PMCW, small_params, seed=7)
        cube = iz.synthesize_echo(sched, target, small_params)
        det = iz.detect_peak(iz.matched_filter_rd(cube, sched, grid))
        assert det.doppler_bin == grid.zero_bin + k
        assert det.range_bin == iz.delay_bin(10.0, small_params)
        assert det.velocity_mps == pytest.approx(v)

    def test_fft_and_dense_steering_paths_agree(self, small_params, all_kinds):
        aligned = iz.default_grid(small_params)
        dense = iz.DopplerGrid(
            frequencies_hz=aligned.frequencies_hz,
            spacing_hz=aligned.spacing_hz,
            fft_aligned=False,
        )
        target = [
            iz.point_target(np.array([6.0, 8.0, 0.0]), np.array([30.0, 40.0, 0.0]))
        ]
        noise = iz.noise_block(target, small_params, 10.0, 0)
        for kind in all_kinds:
            sched = iz.build_schedule(kind, small_params, seed=7)
            cube = iz.synthesize_echo(sched, target, small_params, noise=noise)
            a = iz.matched_filter_rd(cube, sched, aligned)
            b = iz.matched_filter_rd(cube, sched, dense)
            assert iz.map_relative_deviation(a, b) < 1e-9

    def test_rejects_mismatched_schedule(self, small_params, ci_params):
        sched_small = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        sched_big = iz.build_schedule(iz.ScheduleKind.FMCW, ci_params)
        cube = iz.synthesize_echo(sched_small, [], small_params)
        with pytest.raises(iz.ProcessingError, match="does not match a 16 x 512 cube"):
            iz.matched_filter_rd(cube, sched_big, iz.default_grid(small_params))

    @pytest.mark.parametrize("bins,shift_hz", [(31, 0.0), (None, 1.0)])
    def test_rejects_a_grid_mislabeled_fft_aligned(self, small_params, bins, shift_hz):
        # the slow-time IFFT yields only default_grid's P bins: a 31-bin grid
        # would be read modulo P, and P bins shifted by 1 Hz would be mislabeled
        if bins is None:
            other = iz.default_grid(small_params)
        else:
            other = iz.symmetric_grid(small_params, bins)
        mislabeled = iz.DopplerGrid(
            frequencies_hz=other.frequencies_hz + shift_hz,
            spacing_hz=other.spacing_hz,
            fft_aligned=True,
        )
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        cube = iz.synthesize_echo(sched, [], small_params)
        with pytest.raises(iz.ParameterError, match="fft_aligned") as exc:
            iz.matched_filter_rd(cube, sched, mislabeled)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("packets", [15, 16])
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("cuts", ["whole", "single", "uneven"])
    def test_magnitude_runs_equal_the_per_row_loop(
        self, monkeypatch, small_params, packets, dense, cuts
    ):
        """The magnitude pass takes each block of Doppler bins as one or two
        runs of profile rows; a block across the FFT order's wrap from row
        P - 1 to row 0 takes two. Its map equals the per-row loop over the
        same profiles for any cut of the bins into blocks."""
        params = iz.scaled_profile(small_params, packets)
        if dense:
            grid = iz.symmetric_grid(params, 2 * (packets // 2) + 1)
        else:
            grid = iz.default_grid(params)
        target = [iz.point_target(np.array([6.0, 8.0, 0.0]), np.array([30.0, 40.0, 0.0]))]
        noise = iz.noise_block(target, params, 10.0, 0)
        sched = iz.build_schedule(iz.ScheduleKind.PMCW, params, seed=7)
        cube = iz.synthesize_echo(sched, target, params, noise=noise)

        def cut_blocks(fn, n, min_block=1):  # every pass, cut into `cuts` blocks
            if cuts == "whole" or min_block > 1:
                edges = [0, n]
            elif cuts == "single":
                edges = list(range(n + 1))
            else:
                edges = [0, 1, n // 2 - 1, n // 2 + 2, n]
            for lo, hi in zip(edges, edges[1:]):
                fn(slice(lo, hi))

        profiles = []

        def keep_profiles(name, x):
            if name == "post_ifft":
                profiles.append(x.copy())

        monkeypatch.setattr(rsp, "for_blocks", cut_blocks)
        values = rsp._chain(cube, sched, grid, dense, keep_profiles)
        j_len, p_len = len(grid), len(profiles[0])
        rows = np.arange(j_len) if dense else (np.arange(j_len) - j_len // 2) % p_len
        expected = np.empty_like(values)
        for j in range(j_len):
            expected[j] = np.abs(profiles[0][rows[j]])
        assert np.array_equal(values, expected)

    @staticmethod
    def noisy_echo(params, kind):
        target = [iz.point_target(np.array([6.0, 8.0, 0.0]), np.array([3.0, 4.0, 0.0]))]
        sched = iz.build_schedule(kind, params, seed=7)
        noise = iz.noise_block(target, params, 10.0, 5)
        return sched, iz.synthesize_echo(sched, target, params, noise=noise)

    @pytest.mark.parametrize("bins", [None, 15])
    def test_the_filter_only_reads_the_cube_by_default(self, small_params, bins):
        grid = iz.default_grid(small_params) if bins is None else iz.symmetric_grid(small_params, bins)
        sched, cube = self.noisy_echo(small_params, iz.ScheduleKind.PMCW)
        before = cube.samples.tobytes()
        iz.matched_filter_rd(cube, sched, grid)
        assert cube.samples.tobytes() == before

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("bins", [None, 15])
    def test_overwriting_the_cube_gives_the_same_map(
        self, monkeypatch, small_params, all_kinds, threads, bins
    ):
        monkeypatch.setenv("ISACSIM_THREADS", threads)
        grid = iz.default_grid(small_params) if bins is None else iz.symmetric_grid(small_params, bins)
        for kind in all_kinds:
            sched, cube = self.noisy_echo(small_params, kind)
            kept = iz.matched_filter_rd(cube, sched, grid)
            own = iz.DataCube(samples=cube.samples.copy(), params=small_params)
            overwritten = iz.matched_filter_rd(own, sched, grid, overwrite_cube=True)
            assert np.array_equal(overwritten.values, kept.values)
            assert not np.array_equal(own.samples, cube.samples)  # it was written

    @pytest.mark.parametrize("bins", [None, 15])
    def test_the_hook_sees_only_buffers_the_chain_owns(self, small_params, bins):
        """`overwrite` alone decides ownership: without it no stage buffer
        shares memory with the cube; with it the fast-time FFT writes the
        cube's own memory. The cube itself is never a stage."""
        dense = bins is not None
        grid = iz.symmetric_grid(small_params, bins) if dense else iz.default_grid(small_params)
        sched, cube = self.noisy_echo(small_params, iz.ScheduleKind.PMCW)
        names = ["reference", "post_fft", "twiddle", "post_steering", "post_ifft"]
        if not dense:
            names.remove("twiddle")
        for overwrite in (False, True):
            own = iz.DataCube(samples=cube.samples.copy(), params=small_params)
            seen = {}

            def record(name, x):
                seen[name] = x

            rsp._chain(own, sched, grid, dense, record, overwrite)
            assert list(seen) == names
            shared = {name for name, x in seen.items() if np.shares_memory(x, own.samples)}
            if not overwrite:
                assert shared == set()
            elif dense:  # the steered sums are a Q x J buffer of their own
                assert shared == {"post_fft"}
            else:  # the FFT grid steers and transforms the cube in place
                assert shared == {"post_fft", "post_steering", "post_ifft"}

    def test_range_axis_spacing_is_the_range_resolution(self, small_params):
        axis = small_params.range_axis_m()
        steps = np.diff(axis)
        np.testing.assert_allclose(steps, small_params.range_resolution_m, rtol=1e-12)


class TestOracleEquivalence:
    def test_randomized_scenes_match_to_tolerance(self):
        rng = np.random.default_rng(2024)
        for _ in range(6):
            cube, schedule, grid = random_case(rng)
            fast = iz.matched_filter_rd(cube, schedule, grid)
            slow = iz.time_domain_oracle(cube, schedule, grid)
            assert iz.map_relative_deviation(fast, slow) < 1e-6

    def test_guard_refuses_oversized_instances(self, ci_params):
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, ci_params)
        cube = iz.synthesize_echo(sched, [], ci_params)
        grid = iz.default_grid(ci_params)
        assert ci_params.samples_per_pri * len(sched) * len(grid) > iz.ORACLE_GUARD
        with pytest.raises(iz.OracleGuardError):
            iz.time_domain_oracle(cube, sched, grid)

    def test_oracle_rejects_schedule_mismatch(self, small_params):
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        cube = iz.synthesize_echo(sched, [], small_params)
        shorter = iz.FrameSchedule(sched.kind, sched.frames, sched.packet_map[:-1])
        with pytest.raises(iz.ProcessingError, match="over 15 packets does not match a 16 x 512"):
            iz.time_domain_oracle(cube, shorter, iz.default_grid(small_params))


class TestCanonicalPslr:
    def test_frozen_reference_values(self, ci_params, all_kinds):
        # regression pins for the 15 m / 2 m/s comparison scene (noise off);
        # the resilient schedule's sidelobes are a roundoff-level residue, so
        # only a floor is asserted there
        pos = np.array([12.0, 9.0, 0.0])
        vel = 2.0 * pos / np.linalg.norm(pos)
        targets = [iz.point_target(pos, vel)]
        grid = iz.default_grid(ci_params)
        expected = {
            iz.ScheduleKind.FMCW: 2.93,
            iz.ScheduleKind.PMCW: 18.34,
            iz.ScheduleKind.GOLAY_STANDARD: 65.67,
        }
        for kind in all_kinds:
            sched = iz.build_schedule(kind, ci_params, seed=7)
            cube = iz.synthesize_echo(sched, targets, ci_params)
            rd_map = iz.matched_filter_rd(cube, sched, grid)
            value = iz.peak_cut_pslr_db(rd_map)
            if kind in expected:
                assert value == pytest.approx(expected[kind], abs=0.05), kind.value
            else:
                assert value >= 150.0, kind.value


def _map_from(values: np.ndarray) -> iz.RangeDopplerMap:
    j, q = values.shape
    return iz.RangeDopplerMap(
        values=values,
        range_axis_m=np.arange(q, dtype=np.float64),
        doppler_axis_mps=np.arange(j, dtype=np.float64) - j // 2,
    )


class TestDetectPeak:
    def test_tie_breaks_toward_smaller_range_then_doppler(self):
        values = np.zeros((3, 5))
        values[2, 1] = 1.0
        values[0, 3] = 1.0
        det = iz.detect_peak(_map_from(values))
        assert (det.range_bin, det.doppler_bin) == (1, 2)
        values[1, 1] = 1.0  # same range bin, smaller Doppler bin wins
        det = iz.detect_peak(_map_from(values))
        assert (det.range_bin, det.doppler_bin) == (1, 1)

    def test_zero_map_raises(self):
        with pytest.raises(iz.NoDetectionError):
            iz.detect_peak(_map_from(np.zeros((3, 5))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_raises_a_one_line_data_error(self, bad):
        values = np.ones((3, 5))
        values[1, 2] = bad
        with pytest.raises(iz.DataError) as info:
            iz.detect_peak(_map_from(values))
        assert "non-finite" in str(info.value) and "\n" not in str(info.value)

    def test_detection_reports_axis_values(self):
        values = np.zeros((3, 5))
        values[2, 4] = 2.5
        det = iz.detect_peak(_map_from(values))
        assert det.range_m == 4.0
        assert det.velocity_mps == 1.0
        assert det.peak_magnitude == 2.5


class TestPslr:
    def test_isolated_peak_has_no_sidelobe(self):
        profile = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert iz.pslr_db(profile) == math.inf

    def test_exclusion_swallowing_the_profile_raises(self):
        with pytest.raises(iz.ParameterError):
            iz.pslr_db(np.array([0.0, 0.0, 1.0, 0.0, 0.0]))

    def test_twenty_db_example(self):
        profile = np.array([0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 0.1])
        assert iz.pslr_db(profile) == pytest.approx(20.0)

    def test_zero_halfwidth_counts_neighbours(self):
        profile = np.array([0.5, 1.0, 0.5])
        assert iz.pslr_db(profile, mainlobe_halfwidth_bins=0) == pytest.approx(
            20.0 * math.log10(2.0)
        )

    def test_profile_too_short_raises(self):
        with pytest.raises(iz.ParameterError):
            iz.pslr_db(np.array([1.0, 0.5]))

    def test_peak_cut_helper_matches_manual_cut(self, small_params):
        target = [iz.point_target(np.array([8.0, 0.0, 0.0]), np.zeros(3))]
        sched = iz.build_schedule(iz.ScheduleKind.PMCW, small_params, seed=7)
        cube = iz.synthesize_echo(sched, target, small_params)
        rd_map = iz.matched_filter_rd(cube, sched, iz.default_grid(small_params))
        det = iz.detect_peak(rd_map)
        assert iz.peak_cut_pslr_db(rd_map) == iz.pslr_db(rd_map.range_cut(det.doppler_bin))

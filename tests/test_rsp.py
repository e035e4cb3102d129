"""Matched filter, Doppler steering, oracle equivalence, peak metrics."""

import dataclasses
import math

import numpy as np
import pytest

import isacsim as iz
from isacsim import config, rsp
from oracle_cases import random_case


class TestGrids:
    def test_the_fft_grid_matches_slow_time_fft(self, small_params):
        grid = iz.DopplerGrid(small_params)
        p = small_params.packets_per_cpi
        spacing = 1.0 / (p * small_params.pri_s)
        assert len(grid) == p
        assert grid.fft_aligned
        assert grid.spacing_hz == spacing
        assert grid.frequencies_hz.tobytes() == ((np.arange(p) - p // 2) * spacing).tobytes()
        assert grid.frequencies_hz[grid.zero_bin] == 0.0

    def test_an_odd_grid_spans_the_ambiguity_band(self, small_params):
        grid = iz.DopplerGrid(small_params, 9)
        f_max = 1.0 / (2.0 * small_params.pri_s)
        assert len(grid) == 9
        assert grid.spacing_hz == 2.0 * small_params.doppler_max_hz / 8
        assert grid.frequencies_hz[0] == pytest.approx(-f_max)
        assert grid.frequencies_hz[-1] == pytest.approx(f_max)
        assert grid.frequencies_hz[4] == 0.0
        assert not grid.fft_aligned
        # one bin per packet is still not the FFT grid: the span ends at +f_max
        odd = iz.scaled_profile(small_params, 63)
        assert not iz.DopplerGrid(odd, 63).fft_aligned

    @pytest.mark.parametrize("bins", [2, 4, 1, 0, -1, -3])
    def test_a_grid_rejects_even_or_tiny_bin_counts(self, small_params, bins):
        with pytest.raises(iz.ParameterError, match="odd bin count >= 3"):
            iz.DopplerGrid(small_params, bins)

    def test_the_smallest_odd_grid_is_minus_zero_plus_f_max(self, small_params):
        grid = iz.DopplerGrid(small_params, 3)
        f_max = small_params.doppler_max_hz
        assert grid.spacing_hz == f_max
        assert grid.frequencies_hz.tolist() == [-f_max, 0.0, f_max]
        assert grid.zero_bin == 1

    @pytest.mark.parametrize("bins", [None, 9])
    def test_grids_of_equal_parameters_are_equal_and_hash_alike(self, small_params, bins):
        a = iz.DopplerGrid(small_params, bins)
        b = iz.DopplerGrid(dataclasses.replace(small_params), bins)
        assert a == b and hash(a) == hash(b)
        assert a != iz.DopplerGrid(small_params, 15)
        assert a != iz.DopplerGrid(iz.scaled_profile(small_params, 32), bins)


class TestMatchedFilter:
    def test_static_point_peaks_at_its_bins(self, ci_params, point_scene, all_kinds):
        static = [iz.point_target(np.array([12.0, 9.0, 0.0]), np.zeros(3))]
        grid = iz.DopplerGrid(ci_params)
        for kind in all_kinds:
            sched = iz.build_schedule(kind, ci_params, seed=7)
            cube = iz.synthesize_echo(sched, static, ci_params)
            det = iz.detect_peak(iz.matched_filter_rd(cube, sched, grid))
            assert det.range_bin == 176
            assert det.doppler_bin == grid.zero_bin == 32

    def test_on_grid_doppler_lands_in_the_right_bin(self, small_params):
        # v = k * spacing * lambda / 2 coherently integrates at bin zero + k
        grid = iz.DopplerGrid(small_params)
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
        grid = iz.DopplerGrid(small_params)
        target = [
            iz.point_target(np.array([6.0, 8.0, 0.0]), np.array([30.0, 40.0, 0.0]))
        ]
        noise = iz.noise_block(target, small_params, 10.0, 0)
        for kind in all_kinds:
            sched = iz.build_schedule(kind, small_params, seed=7)
            cube = iz.synthesize_echo(sched, target, small_params, noise=noise)
            a = rsp._chain(cube, sched, grid, False, lambda name, x: None)
            b = rsp._chain(cube, sched, grid, True, lambda name, x: None)
            assert np.abs(a - b).max() / b.max() < 1e-9

    def test_rejects_mismatched_schedule(self, small_params, ci_params):
        sched_small = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        sched_big = iz.build_schedule(iz.ScheduleKind.FMCW, ci_params)
        cube = iz.synthesize_echo(sched_small, [], small_params)
        with pytest.raises(iz.ProcessingError, match="does not match a 16 x 512 cube"):
            iz.matched_filter_rd(cube, sched_big, iz.DopplerGrid(small_params))

    @pytest.mark.parametrize("bins", [None, 15])
    def test_rejects_a_grid_built_for_another_pri(self, small_params, bins):
        """A grid of the cube's P and bin count built for twice the PRI
        would steer with half the frequencies: the filter and the oracle
        refuse it."""
        slower = dataclasses.replace(
            small_params, pri_s=2 * small_params.pri_s, cpi_s=2 * small_params.cpi_s
        )
        grid = iz.DopplerGrid(slower, bins)
        assert len(grid) == len(iz.DopplerGrid(small_params, bins))
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        cube = iz.synthesize_echo(sched, [], small_params)
        for run in (iz.matched_filter_rd, iz.time_domain_oracle):
            with pytest.raises(iz.ProcessingError, match="other radar parameters") as exc:
                run(cube, sched, grid)
            assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("bins", [None, 15])
    def test_rejects_a_grid_built_for_another_carrier(self, small_params, bins):
        """A grid built for another carrier steers with the cube's
        frequencies but would label the map's velocity axis with the other
        wavelength: the filter and the oracle refuse it."""
        other = dataclasses.replace(small_params, carrier_freq_hz=77e9)
        grid = iz.DopplerGrid(other, bins)
        own = iz.DopplerGrid(small_params, bins)
        assert grid.frequencies_hz.tobytes() == own.frequencies_hz.tobytes()
        sched = iz.build_schedule(iz.ScheduleKind.PMCW, small_params, seed=7)
        cube = iz.synthesize_echo(sched, [], small_params)
        for run in (iz.matched_filter_rd, iz.time_domain_oracle):
            with pytest.raises(iz.ProcessingError, match="other radar parameters"):
                run(cube, sched, grid)

    @pytest.mark.parametrize("packets", [15, 16])
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("cuts", ["whole", "single", "uneven"])
    def test_magnitude_runs_equal_the_per_row_loop(
        self, monkeypatch, small_params, packets, dense, cuts
    ):
        """Every grid leaves bin j's profile in row (j - J//2) % J, dense
        steering by writing each block's sums back rotated. The map written
        over the profiles equals the per-row loop over them for any cut of
        the chain's passes into blocks."""
        params = iz.scaled_profile(small_params, packets)
        grid = iz.DopplerGrid(params, 2 * (packets // 2) + 1 if dense else None)
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
        j_len = len(grid)
        rows = (np.arange(j_len) - j_len // 2) % j_len
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
    def test_the_filter_consumes_its_cube(self, small_params, bins):
        """On a grid of at most P bins the filter transforms the cube in
        place and writes the map over it, and the map is the one a copy of
        the cube gives."""
        grid = iz.DopplerGrid(small_params, bins)
        sched, cube = self.noisy_echo(small_params, iz.ScheduleKind.PMCW)
        echo = cube.samples.copy()
        expected = iz.matched_filter_rd(iz.DataCube(echo.copy(), small_params), sched, grid)
        rd_map = iz.matched_filter_rd(cube, sched, grid)
        assert np.shares_memory(rd_map.values, cube.samples)
        assert not np.array_equal(cube.samples, echo)
        assert rd_map.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("bins", [None, 15, 33])
    def test_a_consumed_cube_gives_the_map_of_a_copy(
        self, monkeypatch, small_params, all_kinds, threads, bins
    ):
        """On the FFT grid, on a dense grid of P - 1 bins and on one of
        2P + 1, which steers into a 2P + 1 row buffer of the chain's own and
        only reads the cube."""
        monkeypatch.setenv("ISACSIM_THREADS", threads)
        grid = iz.DopplerGrid(small_params, bins)
        for kind in all_kinds:
            sched, cube = self.noisy_echo(small_params, kind)
            echo = cube.samples.copy()
            expected = iz.matched_filter_rd(iz.DataCube(echo.copy(), small_params), sched, grid)
            consumed = iz.matched_filter_rd(cube, sched, grid)
            assert np.array_equal(consumed.values, expected.values)
            # written in place unless the grid's bins outnumber the cube's rows
            assert np.array_equal(cube.samples, echo) == (len(grid) > len(echo))
            assert np.shares_memory(consumed.values, cube.samples) == (len(grid) <= len(echo))

    @pytest.mark.parametrize("threads", ["1", "2", "5"])
    def test_the_map_written_over_the_cube_is_the_rotated_magnitude(
        self, monkeypatch, all_kinds, threads
    ):
        """On the FFT grid the filter writes its map over the cube's own
        rows, the ones below P // 2 from the highest down and then the rest;
        for every P from 1 to 20, odd and even, map row j is the magnitude
        of the chain's range profiles in row (j - P // 2) % P."""
        monkeypatch.setenv("ISACSIM_THREADS", threads)
        pri = 128 / 1.76e9
        base = iz.WaveformParams(pri_s=pri, cpi_s=16 * pri, code_length=64)
        target = [iz.point_target(np.array([6.0, 8.0, 0.0]), np.array([3.0, 4.0, 0.0]))]
        profiles = []

        def keep_profiles(name, x):
            if name == "post_ifft":
                profiles.append(x.copy())

        for packets in range(1, 21):
            params = iz.scaled_profile(base, packets)
            grid = iz.DopplerGrid(params)
            noise = iz.noise_block(target, params, 10.0, packets)
            rows = (np.arange(packets) - packets // 2) % packets
            for kind in all_kinds:
                sched = iz.build_schedule(kind, params, seed=7)
                for block in (None, noise):
                    cube = iz.synthesize_echo(sched, target, params, noise=block)
                    profiles.clear()
                    values = rsp._chain(cube, sched, grid, False, keep_profiles)
                    assert np.shares_memory(values, cube.samples)
                    expected = np.abs(profiles[0][rows])
                    assert np.array_equal(values, expected), (packets, kind)

    @pytest.mark.parametrize("packets", [1, 64, 130])
    def test_the_twiddle_built_in_row_blocks_is_the_one_shot_twiddle(self, packets):
        """The dense twiddle's phases are filled a block of rows at a time;
        over a partial block, one block and several it is the twiddle of
        one P x J phase matrix, to the bit."""
        pri = 64 / 1.76e9
        params = iz.WaveformParams(pri_s=pri, cpi_s=packets * pri, code_length=16)
        grid = iz.DopplerGrid(params, 15)
        target = [iz.point_target(np.array([1.2, 0.9, 0.0]), np.array([1.6, 1.2, 0.0]))]
        sched = iz.build_schedule(iz.ScheduleKind.PMCW, params, seed=7)
        cube = iz.synthesize_echo(sched, target, params)
        seen = {}

        def record(name, x):
            if name == "twiddle":
                seen[name] = x.copy()

        rsp._chain(cube, sched, grid, True, record)
        p_idx = np.arange(packets) * pri
        expected = np.exp(2j * np.pi * np.outer(p_idx, grid.frequencies_hz))
        assert seen["twiddle"].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bins", [None, 15, 33])
    def test_the_hook_sees_only_buffers_the_chain_owns(self, small_params, bins):
        """The chain consumes its cube: every grid of at most P bins
        transforms and steers in the cube's own memory, and the map is a
        view of it; a grid of more bins steers in a buffer of the chain's
        own, and no stage buffer shares memory with the cube. The cube
        itself is never a stage."""
        dense = bins is not None
        grid = iz.DopplerGrid(small_params, bins)
        sched, cube = self.noisy_echo(small_params, iz.ScheduleKind.PMCW)
        names = ["reference", "post_fft", "twiddle", "post_steering", "post_ifft"]
        if not dense:
            names.remove("twiddle")
        in_place = len(grid) <= len(cube.samples)
        seen = {}

        def record(name, x):
            seen[name] = x

        values = rsp._chain(cube, sched, grid, dense, record)
        assert values.flags.c_contiguous
        assert np.shares_memory(values, cube.samples) == in_place
        assert list(seen) == names
        shared = {name for name, x in seen.items() if np.shares_memory(x, cube.samples)}
        assert shared == ({"post_fft", "post_steering", "post_ifft"} if in_place else set())

    def test_range_axis_spacing_is_the_range_resolution(self, small_params):
        axis = small_params.range_axis_m()
        steps = np.diff(axis)
        np.testing.assert_allclose(steps, small_params.range_resolution_m, rtol=1e-12)


class TestOracleEquivalence:
    def test_randomized_scenes_match_to_tolerance(self):
        rng = np.random.default_rng(2024)
        for _ in range(6):
            cube, schedule, grid = random_case(rng)
            slow = iz.time_domain_oracle(cube, schedule, grid)  # before the filter consumes the cube
            fast = iz.matched_filter_rd(cube, schedule, grid)
            assert iz.map_relative_deviation(fast, slow) < 1e-6

    def test_guard_refuses_oversized_instances(self, ci_params):
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, ci_params)
        cube = iz.synthesize_echo(sched, [], ci_params)
        grid = iz.DopplerGrid(ci_params)
        assert ci_params.samples_per_pri * len(sched) * len(grid) > iz.ORACLE_GUARD
        with pytest.raises(iz.OracleGuardError):
            iz.time_domain_oracle(cube, sched, grid)

    def test_oracle_rejects_schedule_mismatch(self, small_params):
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        cube = iz.synthesize_echo(sched, [], small_params)
        shorter = iz.FrameSchedule(sched.kind, sched.frames, sched.packet_map[:-1])
        with pytest.raises(iz.ProcessingError, match="over 15 packets does not match a 16 x 512"):
            iz.time_domain_oracle(cube, shorter, iz.DopplerGrid(small_params))


class TestCanonicalPslr:
    def test_frozen_reference_values(self, ci_params, all_kinds):
        # regression pins for the 15 m / 2 m/s comparison scene (noise off);
        # the resilient schedule's sidelobes are a roundoff-level residue, so
        # only a floor is asserted there
        pos = np.array([12.0, 9.0, 0.0])
        vel = 2.0 * pos / np.linalg.norm(pos)
        targets = [iz.point_target(pos, vel)]
        grid = iz.DopplerGrid(ci_params)
        expected = {
            iz.ScheduleKind.FMCW: 2.93,
            iz.ScheduleKind.PMCW: 18.34,
            iz.ScheduleKind.GOLAY_STANDARD: 65.67,
        }
        for kind in all_kinds:
            sched = iz.build_schedule(kind, ci_params, seed=7)
            cube = iz.synthesize_echo(sched, targets, ci_params)
            rd_map = iz.matched_filter_rd(cube, sched, grid)
            value = iz.pslr_db(rd_map.range_cut(iz.detect_peak(rd_map).doppler_bin))
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

    def test_the_mainlobe_spans_its_constant_bins_on_each_side(self):
        hw = rsp.PSLR_MAINLOBE_BINS
        profile = np.zeros(2 * hw + 3)
        profile[hw + 1] = 1.0
        profile[1] = profile[2 * hw + 1] = 0.9  # the mainlobe's edges: excluded
        profile[0] = 0.1  # the one bin beyond them
        assert iz.pslr_db(profile) == pytest.approx(20.0)

    def test_min_samples_per_pri_leaves_a_sidelobe_bin_for_any_peak(self):
        """A range profile of config's least Q keeps a bin outside the
        +-PSLR_MAINLOBE_BINS mainlobe wherever its peak lies; one bin less
        and a centred peak's mainlobe covers it all."""
        hw = rsp.PSLR_MAINLOBE_BINS
        q = config.MIN_SAMPLES_PER_PRI
        assert q == 2 * hw + 2
        for peak_bin in range(q):
            profile = np.full(q, 0.1)
            profile[peak_bin] = 1.0
            assert iz.pslr_db(profile) == pytest.approx(20.0)
        short = np.full(q - 1, 0.1)
        short[hw] = 1.0
        with pytest.raises(iz.ParameterError, match="covers the whole profile"):
            iz.pslr_db(short)

    def test_profile_too_short_raises(self):
        with pytest.raises(iz.ParameterError):
            iz.pslr_db(np.array([1.0, 0.5]))

"""Scene synthesis: delay placement, slow-time phase, noise, clusters."""

import dataclasses

import numpy as np
import pytest

import isacsim as iz
from isacsim.params import SPEED_OF_LIGHT_MPS
from isacsim.scene import check_scene


class TestDelayBin:
    def test_eight_and_a_half_meters(self):
        params = iz.WaveformParams()
        assert iz.delay_bin(8.5, params) == 100

    def test_fifteen_meters(self):
        params = iz.WaveformParams()
        assert iz.delay_bin(15.0, params) == 176

    def test_round_trip_against_axis(self):
        params = iz.WaveformParams()
        axis = params.range_axis_m()
        for qb in (0, 1, 176, 3519):
            assert iz.delay_bin(axis[qb], params) == qb


class TestEchoPlacement:
    def test_static_target_lands_at_its_delay_bin(self, ci_params):
        pos = np.array([12.0, 9.0, 0.0])
        sched = iz.build_schedule(iz.ScheduleKind.PMCW, ci_params, seed=7)
        cube = iz.synthesize_echo(
            sched, [iz.point_target(pos, np.zeros(3))], ci_params, path_loss=iz.PathLoss.OFF
        )
        qb = iz.delay_bin(15.0, ci_params)
        assert qb == 176
        assert np.all(cube.samples.T[:qb, :] == 0)
        # echo is the frame shifted down by qb (reflectivity 1, no loss)
        frame = sched.frames[0]
        keep = ci_params.samples_per_pri - qb
        np.testing.assert_allclose(cube.samples.T[qb:, 0], frame[:keep], atol=1e-12)

    def test_path_loss_scales_by_inverse_range_squared(self, ci_params):
        pos = np.array([12.0, 9.0, 0.0])
        sched = iz.build_schedule(iz.ScheduleKind.PMCW, ci_params, seed=7)
        free = iz.synthesize_echo(
            sched, [iz.point_target(pos, np.zeros(3))], ci_params, path_loss=iz.PathLoss.OFF
        )
        lossy = iz.synthesize_echo(
            sched,
            [iz.point_target(pos, np.zeros(3))],
            ci_params,
            path_loss=iz.PathLoss.INVERSE_SQUARE,
        )
        np.testing.assert_allclose(lossy.samples, free.samples / 15.0**2, atol=1e-15)

    def test_radial_motion_phase_matches_doppler_frequency(self, ci_params):
        # exp(-j 2 pi f_D p T_pri) with f_D = 2 v / lambda, exactly, for
        # purely radial motion (the slow-time phase uses the advancing range)
        pos = np.array([12.0, 9.0, 0.0])
        vel = 2.0 * pos / np.linalg.norm(pos)
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, ci_params)
        cube = iz.synthesize_echo(
            sched, [iz.point_target(pos, vel)], ci_params, path_loss=iz.PathLoss.OFF
        )
        qb = 176
        f_d = 2.0 * 2.0 / ci_params.wavelength_m
        assert f_d == pytest.approx(800.55, abs=0.01)
        p = np.arange(ci_params.packets_per_cpi)
        expected = cube.samples.T[qb, 0] * np.exp(-2j * np.pi * f_d * p * ci_params.pri_s)
        np.testing.assert_allclose(cube.samples.T[qb, :], expected, atol=1e-9)

    def test_superposition_of_two_scatterers(self, small_params):
        sched = iz.build_schedule(iz.ScheduleKind.PMCW, small_params, seed=7)
        t1 = iz.point_target(np.array([5.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        t2 = iz.point_target(np.array([0.0, 9.0, 0.0]), np.array([0.0, -2.0, 0.0]))
        both = iz.synthesize_echo(sched, [t1, t2], small_params)
        one = iz.synthesize_echo(sched, [t1], small_params)
        two = iz.synthesize_echo(sched, [t2], small_params)
        np.testing.assert_allclose(both.samples, one.samples + two.samples, atol=1e-15)

    def test_no_targets_no_noise_is_silent(self, small_params):
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        cube = iz.synthesize_echo(sched, [], small_params)
        assert np.all(cube.samples == 0)


class TestNoise:
    def test_variance_calibration_without_targets(self, ci_params):
        # reference power falls back to amplitude^2 = 1, so the per-sample
        # complex noise power equals 10**(-snr/10)
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, ci_params)
        snr = 7.0
        noise = iz.noise_block([], ci_params, snr, 11)
        cube = iz.synthesize_echo(sched, [], ci_params, noise=noise)
        n = cube.samples.size
        assert n >= 100_000
        measured = np.mean(np.abs(cube.samples) ** 2)
        assert measured == pytest.approx(10.0 ** (-snr / 10.0), rel=0.02)

    def test_variance_references_strongest_scatterer(self, ci_params):
        pos = np.array([12.0, 9.0, 0.0])
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, ci_params)
        target = iz.point_target(pos, np.zeros(3))
        clean = iz.synthesize_echo(sched, [target], ci_params)
        block = iz.noise_block([target], ci_params, 0.0, 11)
        noisy = iz.synthesize_echo(sched, [target], ci_params, noise=block)
        noise = noisy.samples - clean.samples
        sigma_prime = 1.0 / 15.0**2  # unit reflectivity, inverse-square loss
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(sigma_prime**2, rel=0.02)

    def test_car_cube_is_bit_identical_across_calls(self, ci_params, all_kinds):
        # a 64-scatterer car is large enough for the synthesis product to run
        # in several blocks; re-runs must still agree to the bit
        car = iz.make_car(np.array([20.0, 5.0, 0.0]), seed=301, speed_mps=10.0, count=64)
        for kind in all_kinds:
            sched = iz.build_schedule(kind, ci_params, seed=7)
            a = iz.synthesize_echo(
                sched, [car], ci_params, noise=iz.noise_block([car], ci_params, 10.0, 5)
            )
            b = iz.synthesize_echo(
                sched, [car], ci_params, noise=iz.noise_block([car], ci_params, 10.0, 5)
            )
            assert np.array_equal(a.samples, b.samples)

    def test_seed_determinism(self, small_params):
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        a, b, c = (
            iz.synthesize_echo(
                sched, [], small_params, noise=iz.noise_block([], small_params, 10.0, seed)
            )
            for seed in (11, 11, 12)
        )
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_overflowing_noise_raises_the_scene_check_error(self, small_params):
        params = dataclasses.replace(small_params, amplitude=1e200)  # amplitude**2 overflows
        with pytest.raises(iz.ScenarioError) as drawn:
            iz.noise_block([], params, 10.0, 11)
        with pytest.raises(iz.ScenarioError) as checked:
            check_scene([], params, iz.PathLoss.INVERSE_SQUARE, 10.0)
        assert str(drawn.value) == str(checked.value)
        assert "could overflow" in str(drawn.value) and "\n" not in str(drawn.value)

    def test_noise_check_bounds_the_summed_reflectivity(self, small_params):
        # the strongest of 400 scatterers stays under the bound, their sum does not
        params = dataclasses.replace(small_params, amplitude=1e70)
        car = iz.make_car(np.array([6.0, 0.0, 0.0]), rcs_dbsm=10.0, count=400)
        off = iz.PathLoss.OFF
        with pytest.raises(iz.ScenarioError) as drawn:
            iz.noise_block([car], params, 10.0, 11, off)
        with pytest.raises(iz.ScenarioError) as checked:
            check_scene([car], params, off, 10.0)
        assert str(drawn.value) == str(checked.value)
        assert "could overflow" in str(drawn.value)

    def test_rejects_a_fast_time_major_block(self, small_params):
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        q_len, p_len = small_params.samples_per_pri, small_params.packets_per_cpi
        assert q_len != p_len
        block = np.zeros((q_len, p_len), dtype=np.complex128)
        with pytest.raises(iz.ParameterError) as exc:
            iz.synthesize_echo(sched, [], small_params, noise=block)
        message = str(exc.value)
        assert f"{p_len} x {q_len}" in message
        assert str((q_len, p_len)) in message


class TestDataCube:
    @pytest.mark.parametrize("layout", ["fortran", "complex64"])
    def test_a_cube_of_another_layout_is_a_copy_its_owners_may_write(self, small_params, layout):
        """A C-contiguous complex128 array is the cube itself; any other is
        copied into one, so an overwriting filter and a sweep write the
        copy, never the caller's array, and their maps are those of a
        C-contiguous complex128 cube of the same values."""
        target = [iz.point_target(np.array([6.0, 8.0, 0.0]), np.array([3.0, 4.0, 0.0]))]
        sched = iz.build_schedule(iz.ScheduleKind.PMCW, small_params, seed=7)
        noise = iz.noise_block(target, small_params, 10.0, 5)
        echo = iz.synthesize_echo(sched, target, small_params, noise=noise).samples
        samples = np.asfortranarray(echo) if layout == "fortran" else echo.astype(np.complex64)
        before = samples.tobytes()
        values = samples.astype(np.complex128, order="C")
        assert iz.DataCube(samples=values, params=small_params).samples is values
        grid = iz.DopplerGrid(small_params)
        kept = iz.matched_filter_rd(iz.DataCube(values.copy(), small_params), sched, grid)
        fmt = [iz.FixedPointFormat(16, 1)]
        expected = iz.precision_sweep(
            lambda: iz.DataCube(values.copy(), small_params), sched, grid, fmt, double_map=kept
        )

        cube = iz.DataCube(samples=samples, params=small_params)
        assert cube.samples.flags.c_contiguous and cube.samples.dtype == np.complex128
        assert not np.shares_memory(cube.samples, samples)
        rd_map = iz.matched_filter_rd(cube, sched, grid, overwrite_cube=True)
        assert np.shares_memory(rd_map.values, cube.samples)
        assert np.array_equal(rd_map.values, kept.values)
        sweep = iz.precision_sweep(
            lambda: iz.DataCube(samples=samples, params=small_params),
            sched,
            grid,
            fmt,
            double_map=kept,
        )
        assert sweep.rows[0].report == expected.rows[0].report
        assert samples.tobytes() == before


class TestClusters:
    def test_pedestrian_layout_and_power(self):
        pos = np.array([0.0, 20.0, 0.0])
        ped = iz.make_pedestrian(pos, seed=3, speed_mps=2.0)
        assert len(ped.scatterers) == 27
        total = sum(abs(s.reflectivity) ** 2 for s in ped.scatterers)
        assert total == pytest.approx(1.0)
        for s in ped.scatterers:
            offset = s.position_m - pos
            assert np.all(np.abs(offset) <= np.array([0.25, 0.15, 0.9]) + 1e-12)
            # limb perturbations stay within +-1 m/s of the bulk speed
            assert abs(s.radial_velocity_mps - 2.0) <= 1.0 + 1e-12

    def test_pedestrian_seeded_determinism(self):
        pos = np.array([0.0, 20.0, 0.0])
        a = iz.make_pedestrian(pos, seed=3)
        b = iz.make_pedestrian(pos, seed=3)
        c = iz.make_pedestrian(pos, seed=4)
        assert all(
            np.array_equal(x.velocity_mps, y.velocity_mps)
            for x, y in zip(a.scatterers, b.scatterers)
        )
        assert any(
            not np.array_equal(x.velocity_mps, y.velocity_mps)
            for x, y in zip(a.scatterers, c.scatterers)
        )

    def test_car_rigid_motion_and_power(self):
        pos = np.array([25.0, 0.0, 0.0])
        car = iz.make_car(pos, seed=3, speed_mps=10.0, rcs_dbsm=10.0, count=64)
        assert len(car.scatterers) == 64
        total = sum(abs(s.reflectivity) ** 2 for s in car.scatterers)
        assert total == pytest.approx(10.0)
        for s in car.scatterers:
            np.testing.assert_allclose(s.velocity_mps, [10.0, 0.0, 0.0], atol=1e-12)

    def test_car_spans_many_range_bins(self):
        params = iz.WaveformParams()
        pos = np.array([25.0, 0.0, 0.0])
        car = iz.make_car(pos, seed=3, count=64)
        bins = {iz.delay_bin(s.range_m, params) for s in car.scatterers}
        # 4.4 m long axis pointed radially: about 4.4 / 0.0852 = 52 bins
        assert max(bins) - min(bins) >= 45

    def test_car_minimum_size(self):
        with pytest.raises(iz.ParameterError):
            iz.make_car(np.array([25.0, 0.0, 0.0]), count=3)


class TestScenarioLimits:
    def test_rejects_range_beyond_listening_window(self, ci_params):
        max_range = SPEED_OF_LIGHT_MPS * ci_params.samples_per_pri * ci_params.sample_period_s / 2
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, ci_params)
        target = iz.point_target(np.array([max_range + 1.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(iz.ScenarioError):
            iz.synthesize_echo(sched, [target], ci_params)

    def test_rejects_ambiguous_radial_speed(self, ci_params):
        v = ci_params.max_unambiguous_velocity_mps + 1.0
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, ci_params)
        target = iz.point_target(np.array([10.0, 0.0, 0.0]), np.array([v, 0.0, 0.0]))
        with pytest.raises(iz.ScenarioError):
            iz.synthesize_echo(sched, [target], ci_params)

    def test_rejects_an_echo_that_could_overflow(self, small_params):
        params = dataclasses.replace(small_params, amplitude=1e140)
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, params)
        target = iz.point_target(np.array([3.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(iz.ScenarioError, match="could overflow"):
            iz.synthesize_echo(sched, [target], params, path_loss=iz.PathLoss.OFF)

    def test_rejects_schedule_cpi_mismatch(self, ci_params, small_params):
        sched = iz.build_schedule(iz.ScheduleKind.FMCW, small_params)
        with pytest.raises(iz.ScenarioError):
            iz.synthesize_echo(sched, [], ci_params)

    def test_point_target_reflected_power_matches_rcs(self):
        t = iz.point_target(np.array([3.0, 4.0, 0.0]), np.zeros(3), rcs_dbsm=6.0)
        power = sum(abs(sc.reflectivity) ** 2 for sc in t.scatterers)
        assert power == pytest.approx(10.0 ** 0.6)
        assert t.scatterers[0].range_m == pytest.approx(5.0)

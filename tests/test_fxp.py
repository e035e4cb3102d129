"""Fixed-point formats, quantizer semantics, and quantized-chain accuracy."""

import math

import numpy as np
import pytest

import isacsim as iz
from isacsim.fxp import Scaling


def small_pipeline(params, kind=iz.ScheduleKind.PMCW, snr_db=None):
    pos = np.array([6.0, 8.0, 0.0])
    vel = 2.0 * pos / np.linalg.norm(pos)
    sched = iz.build_schedule(kind, params, seed=7)
    cube = iz.synthesize_echo(sched, [iz.point_target(pos, vel)], params, snr_db=snr_db)
    return cube, sched, iz.default_grid(params)


class TestFormat:
    def test_field_derivations(self):
        fmt = iz.FixedPointFormat(24, 1)
        assert fmt.fraction_bits == 23
        assert fmt.step == 2.0**-23
        assert fmt.max_value == 1.0 - 2.0**-23
        assert fmt.min_value == -1.0
        assert str(fmt) == "<24,1>"

    def test_validation(self):
        with pytest.raises(iz.ParameterError):
            iz.FixedPointFormat(1, 1)
        with pytest.raises(iz.ParameterError):
            iz.FixedPointFormat(65, 1)
        with pytest.raises(iz.ParameterError):
            iz.FixedPointFormat(16, 0)
        with pytest.raises(iz.ParameterError):
            iz.FixedPointFormat(16, 17)


class TestQuantize:
    def test_zero_stays_zero(self):
        qc = iz.quantize(np.zeros(4, dtype=np.complex128), iz.FixedPointFormat(16, 1))
        assert np.all(qc.re_mantissa == 0)
        assert np.all(qc.im_mantissa == 0)
        assert qc.saturation_count == 0
        assert np.all(qc.dequantize() == 0)

    def test_max_value_round_trips_at_unit_scale(self):
        fmt = iz.FixedPointFormat(24, 1)
        x = np.array([fmt.max_value + 0.0j])
        qc = iz.quantize(x, fmt, scaling=Scaling.FIXED, scale=1.0)
        assert qc.saturation_count == 0
        assert qc.dequantize()[0] == fmt.max_value

    def test_overflow_saturates_and_is_counted(self):
        fmt = iz.FixedPointFormat(24, 1)
        x = np.array([1.0 + 2.0**-24 + 0.0j])
        qc = iz.quantize(x, fmt, scaling=Scaling.FIXED, scale=1.0)
        assert qc.saturation_count == 1
        assert qc.dequantize()[0] == fmt.max_value

    def test_max_abs_scaling_never_saturates(self):
        rng = np.random.default_rng(5)
        x = 100.0 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        fmt = iz.FixedPointFormat(12, 1)
        qc = iz.quantize(x, fmt)
        assert qc.saturation_count == 0
        # the largest component sits exactly on the format maximum
        peak = max(np.abs(x.real).max(), np.abs(x.imag).max())
        assert peak / qc.scale == pytest.approx(fmt.max_value)

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        fmt = iz.FixedPointFormat(16, 1)
        qc = iz.quantize(x, fmt)
        err = x - qc.dequantize()
        half = fmt.step * qc.scale / 2.0
        assert np.abs(err.real).max() <= half * (1 + 1e-12)
        assert np.abs(err.imag).max() <= half * (1 + 1e-12)

    def test_requantization_is_idempotent(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        fmt = iz.FixedPointFormat(16, 1)
        first = iz.quantize(x, fmt, scaling=Scaling.FIXED, scale=0.25)
        second = iz.quantize(first.dequantize(), fmt, scaling=Scaling.FIXED, scale=0.25)
        assert np.array_equal(first.re_mantissa, second.re_mantissa)
        assert np.array_equal(first.im_mantissa, second.im_mantissa)

    def test_round_half_to_even(self):
        fmt = iz.FixedPointFormat(8, 1)  # step 2**-7
        # 1.5 and 2.5 steps round to the even mantissas 2 and 2
        x = np.array([1.5 * fmt.step + 0j, 2.5 * fmt.step + 0j])
        qc = iz.quantize(x, fmt, scaling=Scaling.FIXED, scale=1.0)
        assert qc.re_mantissa.tolist() == [2, 2]

    def test_rejects_non_finite_input(self):
        fmt = iz.FixedPointFormat(16, 1)
        with pytest.raises(iz.DataError):
            iz.quantize(np.array([np.nan + 0j]), fmt)
        with pytest.raises(iz.DataError):
            iz.quantize(np.array([1j * np.inf]), fmt)

    def test_wide_word_mantissa_limits_stay_in_int64(self):
        fmt = iz.FixedPointFormat(64, 2)
        x = np.array([fmt.max_value + 0j, fmt.min_value + 0j])
        qc = iz.quantize(x, fmt, scaling=Scaling.FIXED, scale=1.0)
        assert qc.re_mantissa.dtype == np.int64
        assert (qc.re_mantissa >= np.iinfo(np.int64).min).all()


class TestQuantizedChain:
    def test_double_like_format_is_transparent(self, small_params):
        cube, sched, grid = small_pipeline(small_params)
        _, report = iz.quantized_matched_filter(cube, sched, grid, iz.FixedPointFormat(53, 2))
        assert report.sqnr_db > 200.0
        assert report.peak_bin_agree
        assert report.pslr_agree

    def test_24_bit_full_chain_matches_peak(self, small_params):
        cube, sched, grid = small_pipeline(small_params, snr_db=15.0)
        _, report = iz.quantized_matched_filter(cube, sched, grid, iz.FixedPointFormat(24, 1))
        assert report.peak_bin_agree
        assert report.pslr_agree
        assert report.sqnr_db > 60.0
        assert report.saturation_fraction == 0.0  # max-abs stages cannot clip

    def test_8_bit_survives_and_reports_degradation(self, small_params):
        cube, sched, grid = small_pipeline(small_params)
        fxp_map, report = iz.quantized_matched_filter(
            cube, sched, grid, iz.FixedPointFormat(8, 1)
        )
        assert np.all(np.isfinite(fxp_map.values))
        assert report.sqnr_db < 40.0

    def test_core_only_skips_io_stages(self, small_params):
        cube, sched, grid = small_pipeline(small_params)
        _, full = iz.quantized_matched_filter(
            cube, sched, grid, iz.FixedPointFormat(16, 1), iz.FxpMode.FULL_CHAIN
        )
        _, core = iz.quantized_matched_filter(
            cube, sched, grid, iz.FixedPointFormat(16, 1), iz.FxpMode.CORE_ONLY
        )
        assert "input" in full.saturation_counts
        assert "post_ifft" in full.saturation_counts
        assert "input" not in core.saturation_counts
        assert "post_ifft" not in core.saturation_counts
        assert core.mode is iz.FxpMode.CORE_ONLY

    def test_sweep_sqnr_grows_with_word_length(self, small_params):
        cube, sched, grid = small_pipeline(small_params)
        formats = [iz.FixedPointFormat(w, 1) for w in (8, 16, 24, 32)]
        sweep = iz.precision_sweep(cube, sched, grid, formats)
        sqnrs = [row.report.sqnr_db for row in sweep.rows]
        assert sweep.monotone_sqnr
        assert all(b > a for a, b in zip(sqnrs, sqnrs[1:]))
        assert all(row.runtime_s >= 0.0 for row in sweep.rows)

    def test_sweep_requires_formats(self, small_params):
        cube, sched, grid = small_pipeline(small_params)
        with pytest.raises(iz.ParameterError):
            iz.precision_sweep(cube, sched, grid, [])

    def test_sweep_reuses_the_given_double_map(self, small_params, monkeypatch):
        import isacsim.fxp as fxp

        cube, sched, grid = small_pipeline(small_params, snr_db=20.0)
        formats = [iz.FixedPointFormat(w, 1) for w in (12, 24)]
        calls = []
        real = fxp.matched_filter_rd
        monkeypatch.setattr(fxp, "matched_filter_rd", lambda *a: calls.append(a) or real(*a))
        computed = iz.precision_sweep(cube, sched, grid, formats)
        assert len(calls) == 1  # once per sweep, not once per format
        given = iz.precision_sweep(
            cube, sched, grid, formats, double_map=real(cube, sched, grid)
        )
        assert len(calls) == 1
        assert [r.report for r in given.rows] == [r.report for r in computed.rows]
        for row in given.rows:
            single = fxp.quantized_matched_filter(cube, sched, grid, row.format)[1]
            assert single == row.report

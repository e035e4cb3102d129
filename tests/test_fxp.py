"""Fixed-point formats, quantizer semantics, and quantized-chain accuracy."""

import math
import tracemalloc

import numpy as np
import pytest

import isacsim as iz


def small_pipeline(params, kind=iz.ScheduleKind.PMCW, snr_db=None):
    pos = np.array([6.0, 8.0, 0.0])
    vel = 2.0 * pos / np.linalg.norm(pos)
    targets = [iz.point_target(pos, vel)]
    sched = iz.build_schedule(kind, params, seed=7)
    noise = None
    if snr_db is not None:
        noise = iz.noise_block(targets, params, snr_db, 0)
    cube = iz.synthesize_echo(sched, targets, params, noise=noise)
    grid = iz.DopplerGrid(params)
    return cube, sched, grid, iz.matched_filter_rd(copied(cube), sched, grid)


def copied(cube):
    """A cube of the same samples for a sweep to consume."""
    return iz.DataCube(samples=cube.samples.copy(), params=cube.params)


def copies(cube):
    """The sweep's `cubes`: a fresh copy of `cube` on each call."""
    return lambda: copied(cube)


def sweep_report(cube, sched, grid, fmt, mode=iz.FxpMode.FULL_CHAIN, *, double_map):
    """The report of a one-format sweep of a copy of `cube`."""
    sweep = iz.precision_sweep(copies(cube), sched, grid, [fmt], mode, double_map=double_map)
    return sweep.rows[0].report


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
        fmt = iz.FixedPointFormat(16, 1)
        values, saturated = iz.quantize(np.zeros(4, dtype=np.complex128), fmt)
        mantissas = values / fmt.step  # scale 1.0 for an all-zero signal
        assert np.all(mantissas.real == 0)
        assert np.all(mantissas.imag == 0)
        assert saturated == 0
        assert np.all(values == 0)

    def test_max_value_round_trips_at_unit_scale(self):
        fmt = iz.FixedPointFormat(24, 1)
        x = np.array([fmt.max_value + 0.0j])
        values, saturated = iz.quantize(x, fmt)
        assert saturated == 0
        assert values[0] == fmt.max_value

    def test_max_abs_scaling_never_saturates(self):
        rng = np.random.default_rng(5)
        x = 100.0 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        fmt = iz.FixedPointFormat(12, 1)
        values, saturated = iz.quantize(x, fmt)
        assert saturated == 0
        # the largest component sits exactly on the format maximum
        scale = max(np.abs(x.real).max(), np.abs(x.imag).max()) / fmt.max_value
        mantissas = values / (fmt.step * scale)
        top = max(np.abs(mantissas.real).max(), np.abs(mantissas.imag).max())
        assert top * fmt.step == pytest.approx(fmt.max_value)

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        fmt = iz.FixedPointFormat(16, 1)
        values, _ = iz.quantize(x, fmt)
        err = x - values
        scale = max(np.abs(x.real).max(), np.abs(x.imag).max()) / fmt.max_value
        half = fmt.step * scale / 2.0
        assert np.abs(err.real).max() <= half * (1 + 1e-12)
        assert np.abs(err.imag).max() <= half * (1 + 1e-12)

    def test_requantization_is_idempotent(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        fmt = iz.FixedPointFormat(16, 1)
        # pin the max-abs scale to 0.25: one component at 0.25 * max_value,
        # every other one within it
        x *= 0.2 / max(np.abs(x.real).max(), np.abs(x.imag).max())
        x[0] = 0.25 * fmt.max_value
        first, _ = iz.quantize(x, fmt)
        second, _ = iz.quantize(first, fmt)
        unit = fmt.step * 0.25
        assert np.array_equal((first / unit).real, (second / unit).real)
        assert np.array_equal((first / unit).imag, (second / unit).imag)

    def test_round_half_to_even(self):
        fmt = iz.FixedPointFormat(8, 1)  # step 2**-7
        # 1.5 and 2.5 steps round to the even mantissas 2 and 2; the third
        # component, the format maximum, pins the max-abs scale to 1.0
        x = np.array([1.5 * fmt.step + 0j, 2.5 * fmt.step + 0j, fmt.max_value + 0j])
        values, _ = iz.quantize(x, fmt)
        assert (values / (fmt.step * 1.0)).real.tolist() == [2, 2, 127]

    def test_small_negatives_quantize_to_positive_zero(self):
        # as an integer mantissa would: no -0.0 leaves the quantizer
        fmt = iz.FixedPointFormat(8, 1)
        # the format maximum pins the max-abs scale to 1.0
        x = np.array([-0.25 * fmt.step - 0.25j * fmt.step, -0.0 - 0.0j, fmt.max_value + 0j])
        values, _ = iz.quantize(x, fmt)
        mantissas = values / (fmt.step * 1.0)
        for mant in (mantissas.real, mantissas.imag):
            assert not np.signbit(mant).any()
        assert not np.signbit(values.real).any()

    def test_rejects_non_finite_input(self):
        fmt = iz.FixedPointFormat(16, 1)
        with pytest.raises(iz.DataError):
            iz.quantize(np.array([np.nan + 0j]), fmt)
        with pytest.raises(iz.DataError):
            iz.quantize(np.array([1j * np.inf]), fmt)

    @pytest.mark.parametrize(
        "max_abs, word_bits", [(5e-324, 16), (1e-320, 24), (1e-310, 64)]
    )
    def test_a_step_below_the_smallest_float_raises_instead_of_nan(self, max_abs, word_bits):
        """Once step * scale underflows to zero no float holds the grid: the
        quantizer raises DataError before it divides, so neither a NaN nor
        a divide-by-zero warning (an error under the suite's filter) comes
        out."""
        fmt = iz.FixedPointFormat(word_bits, 1)
        assert fmt.step * (max_abs / fmt.max_value) == 0.0
        with pytest.raises(iz.DataError, match="underflows"):
            iz.quantize(np.array([max_abs, -max_abs, 0j]), fmt)

    def test_wide_word_mantissa_limits_stay_in_int64(self):
        fmt = iz.FixedPointFormat(64, 2)
        # max_value rounds to 2.0 = |min_value| in float64: the max-abs scale is 1.0
        x = np.array([fmt.max_value + 0j, fmt.min_value + 0j])
        values, _ = iz.quantize(x, fmt)
        mantissas = (values / (fmt.step * 1.0)).real
        # integer-valued float64 mantissas, each exactly representable in an int64
        assert mantissas.dtype == np.float64
        assert (mantissas >= np.iinfo(np.int64).min).all()
        assert (mantissas < 2.0**63).all()
        assert np.array_equal(mantissas.astype(np.int64), mantissas)


class TestQuantizedChain:
    def test_double_like_format_is_transparent(self, small_params):
        cube, sched, grid, double_map = small_pipeline(small_params)
        report = sweep_report(cube, sched, grid, iz.FixedPointFormat(53, 2), double_map=double_map)
        assert report.sqnr_db > 200.0
        assert report.peak_bin_agree
        assert report.pslr_agree

    def test_24_bit_full_chain_matches_peak(self, small_params):
        cube, sched, grid, double_map = small_pipeline(small_params, snr_db=15.0)
        report = sweep_report(cube, sched, grid, iz.FixedPointFormat(24, 1), double_map=double_map)
        assert report.peak_bin_agree
        assert report.pslr_agree
        assert report.sqnr_db > 60.0
        assert report.saturation_fraction == 0.0  # max-abs stages cannot clip

    def test_8_bit_survives_and_reports_degradation(self, small_params, monkeypatch):
        """The sweep's second detection is the one of the quantized map."""
        from isacsim import fxp

        cube, sched, grid, double_map = small_pipeline(small_params)
        seen = []

        def keeping(rd_map):
            seen.append(rd_map)
            return iz.detect_peak(rd_map)

        monkeypatch.setattr(fxp, "detect_peak", keeping)
        report = sweep_report(cube, sched, grid, iz.FixedPointFormat(8, 1), double_map=double_map)
        assert seen[0] is double_map and len(seen) == 2
        assert np.all(np.isfinite(seen[1].values))
        assert report.sqnr_db < 40.0

    def test_core_only_skips_io_stages(self, small_params):
        cube, sched, grid, double_map = small_pipeline(small_params)
        fmt = iz.FixedPointFormat(16, 1)
        full = sweep_report(cube, sched, grid, fmt, iz.FxpMode.FULL_CHAIN, double_map=double_map)
        core = sweep_report(cube, sched, grid, fmt, iz.FxpMode.CORE_ONLY, double_map=double_map)
        assert "input" in full.saturation_counts
        assert "post_ifft" in full.saturation_counts
        assert "input" not in core.saturation_counts
        assert "post_ifft" not in core.saturation_counts
        assert core.mode is iz.FxpMode.CORE_ONLY

    def test_sweep_sqnr_grows_with_word_length(self, small_params):
        cube, sched, grid, double_map = small_pipeline(small_params)
        formats = [iz.FixedPointFormat(w, 1) for w in (8, 16, 24, 32)]
        sweep = iz.precision_sweep(copies(cube), sched, grid, formats, double_map=double_map)
        sqnrs = [row.report.sqnr_db for row in sweep.rows]
        assert sweep.monotone_sqnr
        assert all(b > a for a, b in zip(sqnrs, sqnrs[1:]))
        assert all(row.runtime_s >= 0.0 for row in sweep.rows)

    def test_sweep_requires_formats(self, small_params):
        cube, sched, grid, double_map = small_pipeline(small_params)
        with pytest.raises(iz.ParameterError):
            iz.precision_sweep(copies(cube), sched, grid, [], double_map=double_map)

    def test_sweep_rejects_a_double_map_of_another_shape(self, small_params, monkeypatch):
        """A 15-bin double map against the 16-bin grid fails with both shapes
        named, before any cube is made or any quantized chain runs."""
        from isacsim import fxp

        cube, sched, grid, _ = small_pipeline(small_params)
        other = iz.matched_filter_rd(copied(cube), sched, iz.DopplerGrid(small_params, 15))
        made, chains = [], []
        monkeypatch.setattr(fxp, "_chain", lambda *args, **kwargs: chains.append(args))
        with pytest.raises(iz.ProcessingError, match=r"\(15, 512\).*\(16, 512\)"):
            iz.precision_sweep(
                lambda: made.append(copied(cube)), sched, grid, [iz.FixedPointFormat(16, 1)],
                double_map=other,
            )
        assert made == [] and chains == []

    @pytest.mark.parametrize("mode", list(iz.FxpMode))
    def test_sweep_rejects_a_cube_of_another_shape(self, small_params, monkeypatch, mode):
        """A cube of half the schedule's packets (a `DataCube` matches its
        own parameters) raises ProcessingError from the chain's input check:
        no quantized map is detected, so no row is produced."""
        from isacsim import fxp

        cube, sched, grid, double_map = small_pipeline(small_params)
        short = small_pipeline(iz.scaled_profile(small_params, 8))[0]
        seen = []

        def keeping(rd_map):
            seen.append(rd_map)
            return iz.detect_peak(rd_map)

        monkeypatch.setattr(fxp, "detect_peak", keeping)
        formats = [iz.FixedPointFormat(w, 1) for w in (16, 24)]
        with pytest.raises(iz.ProcessingError, match="other radar parameters than the cube's"):
            iz.precision_sweep(copies(short), sched, grid, formats, mode, double_map=double_map)
        assert seen == [double_map]

    @pytest.mark.parametrize("mode", list(iz.FxpMode))
    def test_sweep_reuses_the_given_double_map(self, small_params, mode):
        """Each row equals the report of a one-format sweep of its format:
        a report does not depend on the formats run before it."""
        cube, sched, grid, double_map = small_pipeline(small_params, snr_db=20.0)
        formats = [iz.FixedPointFormat(w, 1) for w in (12, 24)]
        sweep = iz.precision_sweep(
            copies(cube), sched, grid, formats, mode, double_map=double_map
        )
        for row in sweep.rows:
            single = sweep_report(cube, sched, grid, row.report.format, mode, double_map=double_map)
            assert single == row.report

    @pytest.mark.parametrize("count", [1, 3])
    def test_sweep_scores_the_double_map_once(self, small_params, monkeypatch, count):
        """F formats take F + 1 detections: one of the double map, shared by
        every row, and one of each quantized map."""
        from isacsim import fxp

        cube, sched, grid, double_map = small_pipeline(small_params)
        seen = []

        def counting(rd_map):
            seen.append(rd_map)
            return iz.detect_peak(rd_map)

        monkeypatch.setattr(fxp, "detect_peak", counting)
        formats = [iz.FixedPointFormat(w, 1) for w in (12, 16, 24)[:count]]
        iz.precision_sweep(copies(cube), sched, grid, formats, double_map=double_map)
        assert len(seen) == count + 1
        assert sum(rd_map is double_map for rd_map in seen) == 1

    @pytest.mark.parametrize("mode", list(iz.FxpMode))
    @pytest.mark.parametrize("count", [1, 3])
    def test_each_format_consumes_a_cube_of_its_own(self, small_params, mode, count):
        """The sweep calls `cubes` once per format and writes every cube it
        gets; each report is the one a one-format sweep of its format gives."""
        cube, sched, grid, double_map = small_pipeline(small_params, snr_db=20.0)
        formats = [iz.FixedPointFormat(w, 1) for w in (12, 16, 24)[:count]]
        made = []

        def cubes():
            made.append(copied(cube))
            return made[-1]

        sweep = iz.precision_sweep(cubes, sched, grid, formats, mode, double_map=double_map)
        assert len(made) == count
        assert all(not np.array_equal(own.samples, cube.samples) for own in made)
        for row in sweep.rows:
            single = sweep_report(cube, sched, grid, row.report.format, mode, double_map=double_map)
            assert single == row.report

    @pytest.mark.parametrize("mode", list(iz.FxpMode))
    def test_no_format_allocates_a_cube_of_the_sweeps_own(self, ci_params, mode):
        """On a 15-bin grid at P = 64 each format quantizes and transforms
        the cube `cubes` hands it, so a one- and a two-format sweep both
        allocate less than half of one P x Q complex buffer, dense steering
        sums and maps included, besides the cubes themselves (made here
        before tracing starts)."""
        cube, sched, _, _ = small_pipeline(ci_params)
        grid = iz.DopplerGrid(ci_params, 15)
        double_map = iz.matched_filter_rd(copied(cube), sched, grid)
        peaks = {}
        for count in (1, 2):
            formats = [iz.FixedPointFormat(w, 1) for w in (16, 24)[:count]]
            own = [copied(cube) for _ in formats]
            tracemalloc.start()
            try:
                iz.precision_sweep(own.pop, sched, grid, formats, mode, double_map=double_map)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert own == []
        assert max(peaks.values()) < cube.samples.nbytes // 2

    @pytest.mark.parametrize("mode", list(iz.FxpMode))
    def test_chain_stages_keep_the_schedule_and_the_double_map(self, small_params, mode):
        """Chain-owned stages, the consumed cube's among them, are quantized
        in place; the schedule and the double map the caller passes are
        never written, also under CORE_ONLY, whose chain takes the cube
        unquantized."""
        cube, sched, grid, double_map = small_pipeline(small_params, snr_db=15.0)
        before = [a.tobytes() for a in (sched.frames, double_map.values)]
        iz.precision_sweep(
            lambda: cube, sched, grid, [iz.FixedPointFormat(12, 1)], mode, double_map=double_map
        )
        after = [a.tobytes() for a in (sched.frames, double_map.values)]
        assert after == before

"""Transmit frame generators, Golay pairs, and CPI schedules."""

import numpy as np
import pytest

import isacsim as iz


def complementary_sum(pair):
    return iz.aperiodic_autocorrelation(pair.a) + iz.aperiodic_autocorrelation(pair.b)


class TestGolayPairs:
    def test_shortest_pair(self):
        pair = iz.golay_pair(1)
        assert pair.a.tolist() == [1, 1]
        assert pair.b.tolist() == [1, -1]

    def test_length_four_pair(self):
        pair = iz.golay_pair(2)
        assert pair.a.tolist() == [1, 1, 1, -1]
        assert pair.b.tolist() == [1, 1, -1, 1]

    def test_complementarity_is_exact_in_integers(self):
        # 2N at zero lag, exactly zero at every other lag, for N = 2 .. 512
        for n_log2 in range(1, 10):
            n = 2**n_log2
            s = complementary_sum(iz.golay_pair(n_log2))
            assert s.dtype == np.int64
            expected = np.zeros(2 * n - 1, dtype=np.int64)
            expected[n - 1] = 2 * n
            assert np.array_equal(s, expected)

    def test_entries_are_unimodular(self):
        pair = iz.golay_pair(9)
        assert set(np.unique(pair.a)) <= {-1, 1}
        assert set(np.unique(pair.b)) <= {-1, 1}

    def test_rejects_out_of_range_order(self):
        with pytest.raises(iz.ParameterError):
            iz.golay_pair(0)
        with pytest.raises(iz.ParameterError):
            iz.golay_pair(17)


class TestPtmSequence:
    def test_first_eight_bits(self):
        assert iz.ptm_sequence(8).tolist() == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_prefix_property(self):
        long = iz.ptm_sequence(64)
        short = iz.ptm_sequence(16)
        assert np.array_equal(long[:16], short)

    def test_doubling_recurrences(self):
        bits = iz.ptm_sequence(128)
        k = np.arange(64)
        assert np.array_equal(bits[2 * k], bits[k])
        assert np.array_equal(bits[2 * k + 1], 1 - bits[k])


class TestFmcw:
    def test_starts_at_unit_amplitude(self):
        frame = iz.generate_fmcw(iz.WaveformParams())
        assert frame[0] == pytest.approx(1.0 + 0.0j)

    def test_active_window_then_silence(self):
        params = iz.WaveformParams()
        frame = iz.generate_fmcw(params)
        n, q = params.code_length, params.samples_per_pri
        assert frame.shape == (q,)
        assert np.all(np.abs(frame[:n]) > 0)
        assert np.all(frame[n:] == 0)

    def test_window_sweep_phase_is_quadratic_in_window_fraction(self):
        # with the sweep compressed into the N-sample window, the phase is
        # pi * q^2 / N, i.e. the instantaneous frequency crosses the whole band
        params = iz.WaveformParams(chirp_duration_s=512 / 1.76e9)
        frame = iz.generate_fmcw(params)
        q = np.arange(params.code_length)
        expected = np.exp(1j * np.pi * q**2 / params.code_length)
        np.testing.assert_allclose(frame[: q.size], expected, atol=1e-9)

    def test_default_sweep_spans_the_pri(self):
        # slope BW/T_pri: phase pi * q^2 / Q over the active window
        params = iz.WaveformParams()
        frame = iz.generate_fmcw(params)
        n, q_len = params.code_length, params.samples_per_pri
        q = np.arange(n)
        expected = np.exp(1j * np.pi * q**2 / q_len)
        np.testing.assert_allclose(frame[:n], expected, atol=1e-9)

    def test_chip_rate_phase_increment(self):
        # adjacent-sample phase steps grow linearly with the chirp slope
        params = iz.WaveformParams(chirp_duration_s=512 / 1.76e9)
        frame = iz.generate_fmcw(params)
        n = params.code_length
        steps = np.angle(frame[1:n] * np.conj(frame[: n - 1]))
        increments = np.diff(np.unwrap(steps))
        slope = params.bandwidth_hz / params.chirp_sweep_duration_s
        expected = 2 * np.pi * slope * params.sample_period_s**2
        np.testing.assert_allclose(increments, expected, rtol=1e-2)


class TestPmcw:
    def test_differential_encoding_identities(self):
        params = iz.WaveformParams()
        frame = iz.generate_pmcw(params, seed=7)
        n = params.code_length
        d = frame[:n].real
        assert d[0] == pytest.approx(1.0)
        assert np.all(np.isin(d, [-1.0, 1.0]))
        assert np.all(frame[:n].imag == 0)
        # transitions reproduce the seeded chip stream (c[0] unused)
        chips = np.random.default_rng(7).integers(0, 2, size=n)
        transitions = (d[1:] != d[:-1]).astype(int)
        assert np.array_equal(transitions, chips[1:])

    def test_seed_determinism(self):
        params = iz.WaveformParams()
        a = iz.generate_pmcw(params, seed=7)
        b = iz.generate_pmcw(params, seed=7)
        c = iz.generate_pmcw(params, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def golay_frames(params):
    """Frames a and b of the Golay pair, built here from the code itself."""
    n = params.code_length
    pair = iz.golay_pair(n.bit_length() - 1)
    frames = np.zeros((2, params.samples_per_pri), dtype=np.complex128)
    frames[0, :n], frames[1, :n] = pair.a, pair.b
    return frames


class TestSchedules:
    def test_single_frame_kinds_repeat(self, small_params):
        for kind in (iz.ScheduleKind.FMCW, iz.ScheduleKind.PMCW):
            sched = iz.build_schedule(kind, small_params, seed=7)
            assert len(sched) == small_params.packets_per_cpi
            transmitted = sched.frames[sched.packet_map]
            for p in range(1, len(transmitted)):
                assert np.array_equal(transmitted[p], transmitted[0])

    def test_standard_golay_alternates(self, small_params):
        sched = iz.build_schedule(iz.ScheduleKind.GOLAY_STANDARD, small_params)
        a, b = golay_frames(small_params)
        for p, frame in enumerate(sched.frames[sched.packet_map]):
            assert np.array_equal(frame, a if p % 2 == 0 else b)

    def test_resilient_golay_follows_ptm(self, small_params):
        sched = iz.build_schedule(iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT, small_params)
        a, b = golay_frames(small_params)
        bits = iz.ptm_sequence(len(sched))
        assert np.array_equal(sched.packet_map, bits)
        for p, frame in enumerate(sched.frames[sched.packet_map]):
            assert np.array_equal(frame, b if bits[p] else a)

    def test_schedules_differ_between_arrangements(self, small_params):
        std = iz.build_schedule(iz.ScheduleKind.GOLAY_STANDARD, small_params)
        res = iz.build_schedule(iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT, small_params)
        assert not np.array_equal(std.frames[std.packet_map], res.frames[res.packet_map])

    def test_frames_and_packet_map_roundtrip(self, small_params, all_kinds):
        # the distinct frames are exactly the frames the packets carry
        for kind in all_kinds:
            sched = iz.build_schedule(kind, small_params, seed=7)
            transmitted = sched.frames[sched.packet_map]
            assert transmitted.shape == (len(sched), small_params.samples_per_pri)
            unique = np.unique(transmitted, axis=0)
            assert len(unique) == len(sched.frames)
            for u, frame in enumerate(sched.frames):
                assert np.array_equal(transmitted[np.argmax(sched.packet_map == u)], frame)

    @pytest.mark.parametrize("kind", list(iz.ScheduleKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "shaping",
        [
            {},
            {"pulse_shape": iz.PulseShape.RAISED_COSINE, "pulse_rolloff": 0.5},
            {"chirp_duration_s": 256 / 1.76e9},
        ],
        ids=["identity", "raised_cosine", "chirp_duration"],
    )
    def test_a_shorter_cpi_schedules_the_prefix(self, kind, shaping):
        # the oracle benchmark times the first P' packets under the first P'
        # entries of the run's schedule, in place of a P'-packet rebuild
        pri = 512 / 1.76e9
        params = iz.WaveformParams(pri_s=pri, cpi_s=64 * pri, code_length=256, **shaping)
        full = iz.build_schedule(kind, params, seed=7)
        for packets in (1, 2, 3, 37, 64):
            short = iz.build_schedule(kind, iz.scaled_profile(params, packets), seed=7)
            assert np.array_equal(short.frames, full.frames)
            assert np.array_equal(short.packet_map, full.packet_map[:packets])

    def test_golay_needs_power_of_two(self):
        params = iz.WaveformParams(code_length=384)
        with pytest.raises(iz.ParameterError):
            iz.build_schedule(iz.ScheduleKind.GOLAY_STANDARD, params)

    def test_reference_equals_transmit(self, small_params, all_kinds):
        # the matched filter correlates each packet against the frame it carried
        static = [iz.point_target(np.array([8.0, 0.0, 0.0]), np.zeros(3))]
        grid = iz.DopplerGrid(small_params)
        for kind in all_kinds:
            sched = iz.build_schedule(kind, small_params, seed=7)
            cube = iz.synthesize_echo(sched, static, small_params, path_loss=iz.PathLoss.OFF)
            det = iz.detect_peak(iz.matched_filter_rd(cube, sched, grid))
            energy = np.sum(np.abs(sched.frames[sched.packet_map]) ** 2)
            assert det.peak_magnitude == pytest.approx(energy, rel=1e-9)


class TestPulseShaping:
    def test_zero_rolloff_is_identity(self):
        base = iz.WaveformParams()
        shaped = iz.WaveformParams(pulse_shape=iz.PulseShape.RAISED_COSINE, pulse_rolloff=0.0)
        a = iz.generate_pmcw(base, seed=7)
        b = iz.generate_pmcw(shaped, seed=7)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_taper_caps_peak_at_amplitude(self):
        params = iz.WaveformParams(
            pulse_shape=iz.PulseShape.RAISED_COSINE, pulse_rolloff=0.25, amplitude=2.0
        )
        frame = iz.generate_pmcw(params, seed=7)
        assert np.abs(frame).max() == pytest.approx(2.0)

    def test_taper_changes_the_waveform(self):
        base = iz.WaveformParams()
        shaped = iz.WaveformParams(pulse_shape=iz.PulseShape.RAISED_COSINE, pulse_rolloff=0.5)
        a = iz.generate_pmcw(base, seed=7)
        b = iz.generate_pmcw(shaped, seed=7)
        assert not np.allclose(a, b)


class TestAutocorrelation:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        r = iz.aperiodic_autocorrelation(x)
        n = x.size
        for k in range(-(n - 1), n):
            direct = sum(
                x[m + k] * np.conj(x[m]) for m in range(n) if 0 <= m + k < n
            )
            assert r[k + n - 1] == pytest.approx(direct)

    def test_zero_lag_is_energy(self):
        x = np.array([1, -1, 1, 1], dtype=np.int64)
        r = iz.aperiodic_autocorrelation(x)
        assert r[x.size - 1] == 4

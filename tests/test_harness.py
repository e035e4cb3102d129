"""Harness artifacts, summary contract, benchmarks, and the CLI."""

import dataclasses
import filecmp
import json
import os

import numpy as np
import pytest

import isacsim as iz
import isacsim.cli as cli


def small_cfg(**overrides):
    """Oracle-sized scenario (Q = 512, P = 16) with the default point scene."""
    cfg = iz.parse_config("")
    pri = 512 / 1.76e9
    params = iz.WaveformParams(pri_s=pri, cpi_s=16 * pri, code_length=256)
    return dataclasses.replace(cfg, params=params, **overrides)


SMALL_INI = """\
[radar]
pri_s = 2.909090909090909e-07
packets = 16
code_length = 256
"""


class TestRunComparison:
    def test_writes_all_artifacts(self, tmp_path):
        outcome = iz.run_comparison(small_cfg(), tmp_path)
        assert outcome.exit_code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        expected = sorted(
            [f"{k.value}_rd_map.csv" for k in iz.ScheduleKind]
            + [f"{k.value}_range_profile.csv" for k in iz.ScheduleKind]
            + ["summary.json"]
        )
        assert names == expected
        assert all((tmp_path / n).stat().st_size > 0 for n in names)

    def test_csv_layout_matches_the_map(self, tmp_path):
        cfg = small_cfg(waveforms=(iz.ScheduleKind.PMCW,))
        outcome = iz.run_comparison(cfg, tmp_path)
        result = outcome.results[0]
        lines = (tmp_path / "pmcw_rd_map.csv").read_text().splitlines()
        j, q = result.rd_map.values.shape
        assert len(lines) == 2 + j
        header_range = np.array([float(v) for v in lines[0].split(",")])
        header_vel = np.array([float(v) for v in lines[1].split(",")])
        assert header_range.shape == (q,)
        assert header_vel.shape == (j,)
        np.testing.assert_allclose(header_range, result.rd_map.range_axis_m, rtol=1e-8)
        np.testing.assert_allclose(header_vel, result.rd_map.doppler_axis_mps, rtol=1e-8)
        data = np.loadtxt(tmp_path / "pmcw_rd_map.csv", delimiter=",", skiprows=2)
        np.testing.assert_allclose(data, result.rd_map.values, rtol=1e-6, atol=1e-12)

    def test_range_profile_is_the_peak_cut(self, tmp_path):
        cfg = small_cfg(waveforms=(iz.ScheduleKind.GOLAY_STANDARD,))
        outcome = iz.run_comparison(cfg, tmp_path)
        result = outcome.results[0]
        lines = (tmp_path / "golay_standard_range_profile.csv").read_text().splitlines()
        assert len(lines) == 3
        cut_velocity = float(lines[1])
        assert cut_velocity == pytest.approx(result.detection.velocity_mps, rel=1e-8)
        profile = np.array([float(v) for v in lines[2].split(",")])
        np.testing.assert_allclose(
            profile,
            result.rd_map.range_cut(result.detection.doppler_bin),
            rtol=1e-6,
            atol=1e-12,
        )

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = small_cfg(snr_db=10.0)  # exercise the seeded noise path too
        a, b = tmp_path / "a", tmp_path / "b"
        iz.run_comparison(cfg, a)
        iz.run_comparison(cfg, b)
        for name in os.listdir(a):
            if name.endswith(".csv"):
                assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_summary_contract(self, tmp_path):
        cfg = small_cfg()
        outcome = iz.run_comparison(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["tool"]["name"] == "isacsim"
        # the echoed config re-parses to the very configuration that ran
        echoed = iz.parse_config("\n".join(summary["config_echo"]))
        assert echoed == cfg
        derived = summary["derived"]
        assert derived["range_resolution_m"] == pytest.approx(0.08516831, rel=1e-6)
        assert len(derived["notes"]) == 2
        assert "0.3" in derived["notes"][0]
        assert "44" in derived["notes"][1]
        for entry in summary["waveforms"]:
            assert entry["detection"]["range_bin"] == 176
            assert entry["pslr_db"] is None or entry["pslr_db"] > 0
            assert set(entry["artifacts"]) == {"rd_map_csv", "range_profile_csv"}
        assert summary["partial_failures"] == []

    def test_zero_target_reports_partial_failure(self, tmp_path):
        cfg = small_cfg(target_kind="none")
        outcome = iz.run_comparison(cfg, tmp_path)
        assert outcome.exit_code == 4
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["partial_failures"]) == len(cfg.waveforms)
        for entry in summary["waveforms"]:
            assert entry["detection"] is None
            assert "error" in entry

    def test_oracle_deviation_recorded_when_requested(self, tmp_path):
        cfg = small_cfg(run_oracle=True)
        outcome = iz.run_comparison(cfg, tmp_path)
        for entry in outcome.summary["waveforms"]:
            assert entry["oracle_max_relative_deviation"] < 1e-6

    def test_oracle_guard_note_on_oversized_instances(self, tmp_path):
        cfg = dataclasses.replace(
            iz.parse_config("[radar]\npackets = 64\n"),
            run_oracle=True,
            waveforms=(iz.ScheduleKind.PMCW,),
        )
        outcome = iz.run_comparison(cfg, tmp_path)
        entry = outcome.summary["waveforms"][0]
        assert "oracle_max_relative_deviation" not in entry
        assert "oracle skipped" in entry["oracle_note"]

    def test_fixed_point_rows_in_summary(self, tmp_path):
        cfg = small_cfg(
            waveforms=(iz.ScheduleKind.PMCW,),
            fxp_formats=(iz.FixedPointFormat(16, 1), iz.FixedPointFormat(24, 1)),
        )
        outcome = iz.run_comparison(cfg, tmp_path)
        block = outcome.summary["waveforms"][0]["fixed_point"]
        assert [r["format"] for r in block["rows"]] == ["<16,1>", "<24,1>"]
        assert block["rows"][1]["sqnr_db"] > block["rows"][0]["sqnr_db"]
        assert block["sqnr_non_decreasing"] is True


class TestBuildTargets:
    def test_none_yields_empty_scene(self):
        assert iz.build_targets(small_cfg(target_kind="none")) == []

    def test_single_point_radial_velocity(self):
        targets = iz.build_targets(small_cfg())
        assert len(targets) == 1
        sc = targets[0].scatterers[0]
        np.testing.assert_allclose(sc.velocity_mps, [1.6, 1.2, 0.0], atol=1e-12)
        assert sc.radial_velocity_mps == pytest.approx(2.0)

    def test_explicit_velocity_vector(self):
        cfg = small_cfg(velocity_mps=(0.0, 1.0, 0.0), radial_speed_mps=None)
        sc = iz.build_targets(cfg)[0].scatterers[0]
        np.testing.assert_allclose(sc.velocity_mps, [0.0, 1.0, 0.0], atol=1e-12)

    def test_cluster_kinds_and_counts(self):
        ped = iz.build_targets(small_cfg(target_kind="pedestrian"))[0]
        assert len(ped.scatterers) == 27
        car_cfg = small_cfg(
            target_kind="car", position_m=(30.0, 0.0, 0.0), scatterer_count=48
        )
        car = iz.build_targets(car_cfg)[0]
        assert len(car.scatterers) == 48


class TestPedestrianProfile:
    def test_resilient_golay_confines_energy_to_the_target_extent(self, tmp_path):
        # cluster spread over a few range bins; outside that, the profile
        # drops more than 40 dB below the peak
        cfg = dataclasses.replace(
            iz.parse_config("[radar]\npackets = 64\n"),
            target_kind="pedestrian",
            position_m=(0.0, 20.0, 0.0),
            waveforms=(iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT,),
        )
        outcome = iz.run_comparison(cfg, tmp_path)
        result = outcome.results[0]
        det = result.detection
        profile = result.rd_map.range_cut(det.doppler_bin)
        bins = [
            iz.delay_bin(s.range_m, cfg.params)
            for s in iz.build_targets(cfg)[0].scatterers
        ]
        lo, hi = min(bins) - 3, max(bins) + 3
        assert lo <= det.range_bin <= hi
        outside = np.concatenate([profile[:lo], profile[hi + 1 :]])
        assert outside.max() < profile[det.range_bin] * 10.0 ** (-40.0 / 20.0)


class TestBenchmark:
    def test_fft_path_beats_the_oracle(self, tmp_path):
        pri = 512 / 1.76e9
        params = iz.WaveformParams(pri_s=pri, cpi_s=64 * pri, code_length=256)
        cfg = dataclasses.replace(
            iz.parse_config(""),
            params=params,
            waveforms=(iz.ScheduleKind.PMCW,),
            bench_enabled=True,
            bench_repeats=2,
        )
        outcome = iz.run_comparison(cfg, tmp_path)
        bench = outcome.summary["benchmark"]
        assert bench["repeats"] == 2
        row = bench["waveforms"][0]
        assert row["fft_median_s"] > 0
        # Q*P*J = 512*64*64 fits the guard, so the oracle runs in full
        assert row["oracle"]["packets_used"] == 64
        assert row["oracle"]["note"] is None
        assert row["oracle"]["scaled_estimate_s"] == row["oracle"]["median_s"]
        assert row["speedup_vs_oracle"] > 1.0

    def test_truncated_oracle_scales_by_its_work(self, tmp_path):
        # Q*P*P = 512*128*128 exceeds the guard, so the oracle is timed on
        # P' = 90 packets; its work is Q*Q*P + Q*P*J with J = P
        pri = 512 / 1.76e9
        params = iz.WaveformParams(pri_s=pri, cpi_s=128 * pri, code_length=256)
        cfg = dataclasses.replace(
            iz.parse_config(""),
            params=params,
            waveforms=(iz.ScheduleKind.PMCW,),
            bench_enabled=True,
            bench_repeats=1,
        )
        oracle = iz.run_comparison(cfg, tmp_path).summary["benchmark"]["waveforms"][0]["oracle"]
        q, p, p_used = 512, 128, 90
        assert (oracle["packets_used"], oracle["bins_used"]) == (p_used, p_used)
        ratio = (q * q * p + q * p * p) / (q * q * p_used + q * p_used * p_used)
        assert oracle["scaled_estimate_s"] == pytest.approx(oracle["median_s"] * ratio)
        assert f"{ratio:.4g}" in oracle["note"]

    def test_disabled_benchmark_leaves_no_table(self, tmp_path):
        outcome = iz.run_comparison(small_cfg(), tmp_path)
        assert "benchmark" not in outcome.summary


class TestCli:
    def write_ini(self, tmp_path, text=SMALL_INI):
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        return str(path)

    def test_run_succeeds_and_prints_detections(self, tmp_path, capsys):
        code = cli.main(
            ["run", self.write_ini(tmp_path), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        out = capsys.readouterr().out
        for kind in iz.ScheduleKind:
            assert kind.value in out
        assert "artifacts written" in out

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "nope.ini")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_value_exits_2_with_line_number(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, "[radar]\nbandwidth_hz = -1\n")
        assert cli.main(["run", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_impossible_scene_exits_3(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI + "[scene]\nposition_m = 900, 0, 0\n")
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert "scenario error" in capsys.readouterr().err

    def expect_one_line_error(self, capsys, code, argv, fragment):
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert fragment in err

    def test_golay_with_odd_code_length_exits_2(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI.replace("256", "500"))
        self.expect_one_line_error(capsys, 2, ["run", path], "power-of-two 'code_length'")

    def test_golay_chosen_on_the_command_line_exits_2(self, tmp_path, capsys):
        text = SMALL_INI.replace("256", "500") + "[run]\nwaveforms = fmcw\n"
        argv = ["run", self.write_ini(tmp_path, text), "--waveforms", "golay_doppler_resilient"]
        self.expect_one_line_error(capsys, 2, argv, "golay_doppler_resilient needs")

    def test_small_car_exits_2(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI + "[scene]\ntarget = car\nscatterer_count = 3\n")
        self.expect_one_line_error(capsys, 2, ["run", path], "'scatterer_count' >= 4")

    def test_target_at_the_origin_exits_3(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI + "[scene]\nposition_m = 0, 0, 0\n")
        argv = ["run", path, "--out", str(tmp_path / "out")]
        self.expect_one_line_error(capsys, 3, argv, "scenario error")

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("a file where the output directory should go\n")
        argv = ["run", self.write_ini(tmp_path), "--out", str(blocker)]
        self.expect_one_line_error(capsys, 2, argv, "File exists")

    def test_zero_target_exits_4(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI + "[scene]\ntarget = none\n")
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 4
        assert "FAILED" in capsys.readouterr().out

    def test_waveform_filter_and_oracle_flag(self, tmp_path, capsys):
        path = self.write_ini(tmp_path)
        out_dir = tmp_path / "out"
        code = cli.main(
            ["run", path, "--out", str(out_dir), "--waveforms", "pmcw", "--oracle"]
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [w["waveform"] for w in summary["waveforms"]] == ["pmcw"]
        assert summary["waveforms"][0]["oracle_max_relative_deviation"] < 1e-6

    def test_ci_preset_shrinks_the_cpi(self, tmp_path):
        path = self.write_ini(tmp_path, "[radar]\ncpi_s = 4e-3\n[scene]\nsnr_db = off\n")
        out_dir = tmp_path / "out"
        code = cli.main(["run", path, "--out", str(out_dir), "--preset", "ci"])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        echoed = iz.parse_config("\n".join(summary["config_echo"]))
        assert echoed.params.packets_per_cpi == 64

    def test_duplicate_key_warning_reaches_stdout_and_summary(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI + "code_length = 256\n")
        out_dir = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out_dir)]) == 0
        assert "duplicate key 'code_length'" in capsys.readouterr().out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert any("duplicate key" in w for w in summary["warnings"])

    def test_thread_env_applied_before_numeric_imports(self, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("ISACSIM_THREADS", "2")
        cli._apply_thread_env()
        for var in cli._THREAD_VARS:
            assert os.environ[var] == "2"

    @pytest.mark.parametrize("threads", ["abc", "0", "-3"])
    def test_malformed_thread_cap_exits_2(self, tmp_path, capsys, monkeypatch, threads):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("ISACSIM_THREADS", threads)
        argv = ["run", self.write_ini(tmp_path), "--out", str(tmp_path / "out")]
        message = f"config error: ISACSIM_THREADS must be a positive integer, got '{threads}'"
        self.expect_one_line_error(capsys, 2, argv, message)
        assert not (tmp_path / "out").exists()
        for var in cli._THREAD_VARS:
            assert var not in os.environ

"""Harness artifacts, summary contract, benchmarks, and the CLI."""

import dataclasses
import filecmp
import json
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from test_properties import CHUNK_BYTES_PER_VALUE

import isacsim as iz
import isacsim._csvformat as csvformat
import isacsim.cli as cli
import isacsim.fxp as fxp
import isacsim.harness as harness
import isacsim.scene as scene


def small_cfg(**overrides):
    """Oracle-sized scenario (Q = 512, P = 16) with the default point scene."""
    cfg = iz.parse_config("")
    pri = 512 / 1.76e9
    params = iz.WaveformParams(pri_s=pri, cpi_s=16 * pri, code_length=256)
    return dataclasses.replace(cfg, params=params, **overrides)


def rebuild_echo(cfg, kind):
    """The schedule and cube a run of `cfg` synthesized for `kind`."""
    schedule = iz.build_schedule(kind, cfg.params, seed=cfg.seed_code)
    targets = iz.build_targets(cfg)
    noise = None
    if cfg.snr_db is not None:
        noise = iz.noise_block(targets, cfg.params, cfg.snr_db, cfg.seed_noise, cfg.path_loss)
    cube = iz.synthesize_echo(
        schedule, targets, cfg.params, path_loss=cfg.path_loss, noise=noise
    )
    return schedule, cube


def rebuild_map(cfg, kind):
    """The map a run of `cfg` wrote for `kind`, rebuilt through the library:
    run results keep no maps."""
    schedule, cube = rebuild_echo(cfg, kind)
    return iz.matched_filter_rd(cube, schedule, iz.DopplerGrid(cfg.params, cfg.doppler_bins))


def traced_run_peak(cfg, tmp_path):
    """The traced allocation peak of a run of `cfg`, after a warm-up run
    has done the imports and first-call caches."""
    iz.run_comparison(cfg, tmp_path / "warm")
    tracemalloc.start()
    try:
        iz.run_comparison(cfg, tmp_path / "run")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_budget(buffer, threads, snr_db):
    """One P x Q complex `buffer`, each writer worker's span of a P x Q map,
    an eighth of a buffer of slack and, with noise on, the noise block."""
    span = min(csvformat.CHUNK_VALUES, buffer // 16)
    noise = buffer if snr_db is not None else 0
    return buffer + int(threads) * CHUNK_BYTES_PER_VALUE * span + buffer // 8 + noise


class CubeReaders:
    """Every cube `harness.synthesize_echo` makes, kept alive so that no two
    share an address, and every call of a cube's readers: the filter and
    the oracle as the harness calls them, the run's and the benchmark's
    alike, and the fixed-point chain. `calls` holds (reader, index of the
    made cube the reader was handed, or None for a cube made otherwise)."""

    READERS = ((harness, "matched_filter_rd"), (harness, "time_domain_oracle"), (fxp, "_chain"))

    def __init__(self, monkeypatch):
        self.made, self.calls, self.handed = [], [], []
        synthesize = harness.synthesize_echo

        def made(*args, **kwargs):
            self.made.append(synthesize(*args, **kwargs))
            return self.made[-1]

        monkeypatch.setattr(harness, "synthesize_echo", made)
        for module, name in self.READERS:
            monkeypatch.setattr(module, name, self.reader(name, getattr(module, name)))

    def reader(self, name, fn):
        def read(cube, *args, **kwargs):
            index = next((k for k, c in enumerate(self.made) if c is cube), None)
            self.calls.append((name, index))
            self.handed.append(cube)
            return fn(cube, *args, **kwargs)

        return read

    def readers(self, k: int) -> list[str]:
        """The readers made cube k was handed to, one entry per call."""
        return [name for name, index in self.calls if index == k]


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
        iz.run_comparison(cfg, tmp_path)
        rd_map = rebuild_map(cfg, iz.ScheduleKind.PMCW)
        lines = (tmp_path / "pmcw_rd_map.csv").read_text().splitlines()
        j, q = rd_map.values.shape
        assert len(lines) == 2 + j
        header_range = np.array([float(v) for v in lines[0].split(",")])
        header_vel = np.array([float(v) for v in lines[1].split(",")])
        assert header_range.shape == (q,)
        assert header_vel.shape == (j,)
        np.testing.assert_allclose(header_range, rd_map.range_axis_m, rtol=1e-8)
        np.testing.assert_allclose(header_vel, rd_map.doppler_axis_mps, rtol=1e-8)
        data = np.loadtxt(tmp_path / "pmcw_rd_map.csv", delimiter=",", skiprows=2)
        np.testing.assert_allclose(data, rd_map.values, rtol=1e-6, atol=1e-12)

    def test_range_profile_is_the_peak_cut(self, tmp_path):
        cfg = small_cfg(waveforms=(iz.ScheduleKind.GOLAY_STANDARD,))
        outcome = iz.run_comparison(cfg, tmp_path)
        result = outcome.results[0]
        rd_map = rebuild_map(cfg, iz.ScheduleKind.GOLAY_STANDARD)
        lines = (tmp_path / "golay_standard_range_profile.csv").read_text().splitlines()
        assert len(lines) == 3
        cut_velocity = float(lines[1])
        assert cut_velocity == pytest.approx(result.detection.velocity_mps, rel=1e-8)
        profile = np.array([float(v) for v in lines[2].split(",")])
        np.testing.assert_allclose(
            profile,
            rd_map.range_cut(result.detection.doppler_bin),
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

    def test_csv_bytes_match_the_savetxt_writer(self, tmp_path):
        # CI-preset PMCW map (Q 3520 x P 64); the reference is the earlier
        # writer: f-string axis lines and np.savetxt rows
        cfg = iz.parse_config("")
        cfg = dataclasses.replace(
            cfg,
            params=iz.scaled_profile(cfg.params, 64),
            waveforms=(iz.ScheduleKind.PMCW,),
        )
        result = iz.run_comparison(cfg, tmp_path).results[0]
        rd_map, cut = rebuild_map(cfg, iz.ScheduleKind.PMCW), result.detection.doppler_bin

        def axis_line(values):
            return ",".join(f"{v:.9g}" for v in values)

        ref_map, ref_profile = tmp_path / "ref_map.csv", tmp_path / "ref_profile.csv"
        with open(ref_map, "w", newline="") as fh:
            fh.write(axis_line(rd_map.range_axis_m) + "\n")
            fh.write(axis_line(rd_map.doppler_axis_mps) + "\n")
            np.savetxt(fh, rd_map.values, fmt="%.9g", delimiter=",")
        with open(ref_profile, "w", newline="") as fh:
            fh.write(axis_line(rd_map.range_axis_m) + "\n")
            fh.write(f"{rd_map.doppler_axis_mps[cut]:.9g}\n")
            np.savetxt(fh, rd_map.range_cut(cut)[None, :], fmt="%.9g", delimiter=",")
        written = (tmp_path / "pmcw_rd_map.csv").read_bytes()
        assert written == ref_map.read_bytes()
        assert (tmp_path / "pmcw_range_profile.csv").read_bytes() == ref_profile.read_bytes()

    def test_summary_times_the_artifact_writes(self, tmp_path):
        iz.run_comparison(small_cfg(), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        spent = 0.0
        for entry in summary["waveforms"]:
            timings = entry["timings_s"]
            assert set(timings) == {"synthesize", "process", "write"}
            assert timings["write"] >= 0.0
            spent += sum(timings.values())
        assert spent <= summary["timings_s"]["total"]

    @pytest.mark.parametrize("path_loss", list(iz.PathLoss))
    def test_shared_noise_gives_every_waveform_its_own_draws_cube(
        self, tmp_path, monkeypatch, path_loss
    ):
        # the run draws the noise once; each cube must equal the echo of a
        # block drawn for that waveform alone
        cubes = {}
        match = harness.matched_filter_rd

        def recorded_match(cube, schedule, grid, **kwargs):
            cubes[schedule.kind] = cube.samples.copy()
            return match(cube, schedule, grid, **kwargs)

        monkeypatch.setattr(harness, "matched_filter_rd", recorded_match)
        cfg = small_cfg(snr_db=3.0, seed_noise=23, path_loss=path_loss, target_kind="pedestrian")
        iz.run_comparison(cfg, tmp_path)
        assert list(cubes) == list(cfg.waveforms)
        targets = iz.build_targets(cfg)
        for kind, samples in cubes.items():
            own = iz.synthesize_echo(
                iz.build_schedule(kind, cfg.params, seed=cfg.seed_code),
                targets,
                cfg.params,
                path_loss=path_loss,
                noise=iz.noise_block(targets, cfg.params, 3.0, 23, path_loss),
            )
            assert np.array_equal(samples, own.samples)

    def test_impossible_noisy_scene_fails_before_the_noise_draw(self, tmp_path, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("noise drawn for a scene that cannot run")

        monkeypatch.setattr(scene, "for_blocks", no_draw)  # the draw's only way in
        cfg = small_cfg(snr_db=10.0, position_m=(900.0, 0.0, 0.0))
        with pytest.raises(iz.ScenarioError, match="beyond the unambiguous range"):
            iz.run_comparison(cfg, tmp_path)

    def test_summary_reports_the_noise_draw_and_peak_memory(self, tmp_path):
        quiet = iz.run_comparison(small_cfg(), tmp_path / "quiet").summary
        assert quiet["timings_s"]["noise"] == 0.0
        noisy = iz.run_comparison(small_cfg(snr_db=10.0), tmp_path / "noisy").summary
        assert 0.0 < noisy["timings_s"]["noise"] < noisy["timings_s"]["total"]
        assert list(noisy)[-2:] == ["timings_s", "peak_rss_mb"]
        assert noisy["peak_rss_mb"] > 1.0

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_a_streaming_run_holds_one_buffer_per_waveform(
        self, tmp_path, monkeypatch, ci_params, threads, snr_db
    ):
        """A CI-scale run with no oracle, formats or benchmark holds one P x Q
        complex buffer at a time, the cube that its map is written over,
        besides each writer worker's span and, with noise on, the shared
        noise block: no second cube or map."""
        monkeypatch.setenv("ISACSIM_THREADS", threads)
        cfg = dataclasses.replace(iz.parse_config(""), params=ci_params, snr_db=snr_db)
        assert not (cfg.run_oracle or cfg.fxp_formats or cfg.bench_enabled)
        buffer = ci_params.packets_per_cpi * ci_params.samples_per_pri * 16
        assert traced_run_peak(cfg, tmp_path) <= run_budget(buffer, threads, snr_db)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_a_run_with_formats_holds_one_cube_and_the_map(
        self, tmp_path, monkeypatch, ci_params, threads, snr_db
    ):
        """A CI-scale run with two formats holds one P x Q complex cube at a
        time and the J x Q map copied out of the filter's, besides each
        writer worker's span and, with noise on, the shared noise block: no
        work copy for the sweep, and no filter buffer beside a cube."""
        monkeypatch.setenv("ISACSIM_THREADS", threads)
        formats = (iz.FixedPointFormat(12, 1), iz.FixedPointFormat(16, 1))
        cfg = dataclasses.replace(
            iz.parse_config(""), params=ci_params, snr_db=snr_db, fxp_formats=formats
        )
        assert cfg.doppler_bins is None and not (cfg.run_oracle or cfg.bench_enabled)
        buffer = ci_params.packets_per_cpi * ci_params.samples_per_pri * 16
        map_bytes = buffer // 2  # J = P real values
        assert traced_run_peak(cfg, tmp_path) <= run_budget(buffer, threads, snr_db) + map_bytes

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_a_benchmarked_run_holds_one_cube_and_the_map(
        self, tmp_path, monkeypatch, ci_params, threads, snr_db
    ):
        """A CI-scale --bench run holds one P x Q complex cube at a time, or
        the cube its map is written over: each filter call of the benchmark
        consumes a cube of its own, made once the CSVs are written and the
        map is dropped, and the benchmark's oracle reads a copy of one
        cube's first rows. So it stays within a formats run's budget: one
        cube and the J x Q map, besides each writer worker's span and, with
        noise on, the shared noise block."""
        monkeypatch.setenv("ISACSIM_THREADS", threads)
        cfg = dataclasses.replace(
            iz.parse_config(""), params=ci_params, snr_db=snr_db, bench_enabled=True,
            bench_repeats=1, waveforms=(iz.ScheduleKind.PMCW,),
        )
        assert cfg.doppler_bins is None and not (cfg.run_oracle or cfg.fxp_formats)
        buffer = ci_params.packets_per_cpi * ci_params.samples_per_pri * 16
        map_bytes = buffer // 2  # J = P real values
        assert traced_run_peak(cfg, tmp_path) <= run_budget(buffer, threads, snr_db) + map_bytes

    @pytest.mark.parametrize("snr_db", [None, 10.0])
    @pytest.mark.parametrize("bins", [None, 15])
    @pytest.mark.parametrize("reader", ["oracle", "bench", "formats"])
    def test_every_filter_call_of_the_run_consumes_a_cube_of_its_own(
        self, tmp_path, monkeypatch, snr_db, bins, reader
    ):
        """The oracle, each benchmark repeat and each format get a cube of
        their own, so the waveform's filter and every other filter call
        is handed a cube that no other call is handed. Every run writes a
        plain run's bytes."""
        base = small_cfg(snr_db=snr_db, doppler_bins=bins)
        read = {
            "oracle": dict(run_oracle=True),
            "bench": dict(bench_enabled=True, bench_repeats=1),
            "formats": dict(fxp_formats=(iz.FixedPointFormat(16, 1),)),
        }[reader]
        iz.run_comparison(base, tmp_path / "plain")
        seen = CubeReaders(monkeypatch)
        iz.run_comparison(dataclasses.replace(base, **read), tmp_path / "read")
        filtered = [k for name, k in seen.calls if name == "matched_filter_rd"]
        repeats = 2 if reader == "bench" else 0  # warmup and one timed
        assert len(filtered) == (1 + repeats) * len(base.waveforms)
        assert None not in filtered
        assert all(seen.readers(k) == ["matched_filter_rd"] for k in filtered)
        names = sorted(p.name for p in (tmp_path / "read").glob("*.csv"))
        assert len(names) == 2 * len(base.waveforms)
        for name in names:
            read_bytes = (tmp_path / "read" / name).read_bytes()
            assert read_bytes == (tmp_path / "plain" / name).read_bytes()

    def test_each_cube_of_a_run_has_exactly_one_reader(self, tmp_path, monkeypatch):
        """With the oracle, the benchmark and two formats on, each waveform
        makes seven cubes: one for its filter, one for the oracle, one for
        each format, one for each of the benchmark's two filter calls
        (warmup and repeat) and one whose first rows the benchmark's oracle
        copies and reads twice. Each cube is handed to one reader call, but
        that last one, which reaches none."""
        cfg = small_cfg(
            snr_db=10.0,
            run_oracle=True,
            bench_enabled=True,
            bench_repeats=1,
            fxp_formats=(iz.FixedPointFormat(12, 1), iz.FixedPointFormat(16, 1)),
        )
        seen = CubeReaders(monkeypatch)
        outcome = iz.run_comparison(cfg, tmp_path)
        assert outcome.exit_code == 0
        waveforms = len(cfg.waveforms)
        assert len(seen.made) == 7 * waveforms
        readers = [seen.readers(k) for k in range(len(seen.made))]
        per_waveform = [
            sorted(r[0] for r in readers[7 * w : 7 * w + 7] if r) for w in range(waveforms)
        ]
        expected = sorted(["matched_filter_rd"] * 3 + ["time_domain_oracle"] + ["_chain"] * 2)
        assert per_waveform == [expected] * waveforms
        assert all(len(r) == 1 for r in readers if r)
        unread = [seen.made[k] for k, r in enumerate(readers) if not r]
        assert len(unread) == waveforms
        copies = [c for (name, k), c in zip(seen.calls, seen.handed) if k is None]
        assert len(copies) == 2 * waveforms
        for cube in copies:  # of all 16 rows: the guard admits the whole instance
            rows = len(cube.samples)
            assert not any(cube is c for c in seen.made)
            assert any(np.array_equal(u.samples[:rows], cube.samples) for u in unread)

    def test_a_refused_oracle_makes_no_cube(self, tmp_path, monkeypatch):
        """Q*P*J = 512 * 128 * 128 exceeds the oracle's guard: the run notes
        the refusal and synthesizes the filter's cube alone."""
        pri = 512 / 1.76e9
        params = iz.WaveformParams(pri_s=pri, cpi_s=128 * pri, code_length=256)
        cfg = dataclasses.replace(small_cfg(run_oracle=True), params=params)
        seen = CubeReaders(monkeypatch)
        summary = iz.run_comparison(cfg, tmp_path).summary
        assert all("oracle skipped" in w["oracle_note"] for w in summary["waveforms"])
        assert len(seen.made) == len(cfg.waveforms)
        assert [name for name, _ in seen.calls] == ["matched_filter_rd"] * len(cfg.waveforms)

    @pytest.mark.parametrize("count", [1, 3])
    def test_the_sweep_synthesizes_one_cube_per_format(self, tmp_path, monkeypatch, count):
        """Each waveform synthesizes its cube once for the filter and once
        for each format, every time the same bytes."""
        made = {}
        synthesize = harness.synthesize_echo

        def recorded_synthesis(schedule, *args, **kwargs):
            cube = synthesize(schedule, *args, **kwargs)
            made.setdefault(schedule.kind, []).append(cube.samples.tobytes())
            return cube

        monkeypatch.setattr(harness, "synthesize_echo", recorded_synthesis)
        formats = tuple(iz.FixedPointFormat(w, 1) for w in (12, 16, 24)[:count])
        cfg = small_cfg(snr_db=10.0, fxp_formats=formats)
        iz.run_comparison(cfg, tmp_path)
        assert list(made) == list(cfg.waveforms)
        for kind, cubes in made.items():
            assert len(cubes) == 1 + count
            assert cubes == [rebuild_echo(cfg, kind)[1].samples.tobytes()] * (1 + count)

    def test_a_benchmarked_sweep_reports_what_a_plain_one_does(self, tmp_path):
        """The benchmark times the filter and the oracle before the sweep
        consumes the cube: the CSVs and the fixed-point rows but their
        timings are the same with and without it, and the benchmark entry
        lists each row's runtime_s under its format."""
        formats = (iz.FixedPointFormat(16, 1), iz.FixedPointFormat(24, 1))
        base = small_cfg(snr_db=15.0, run_oracle=True, fxp_formats=formats)
        benched = dataclasses.replace(base, bench_enabled=True, bench_repeats=1)
        rows, summaries = {}, {}
        for name, cfg in (("plain", base), ("benched", benched)):
            summary = summaries[name] = iz.run_comparison(cfg, tmp_path / name).summary
            rows[name] = [
                {k: v for k, v in row.items() if k != "runtime_s"}
                for w in summary["waveforms"]
                for row in w["fixed_point"]["rows"]
            ]
        assert len(rows["plain"]) == len(formats) * len(base.waveforms)
        assert rows["plain"] == rows["benched"]
        for path in (tmp_path / "benched").glob("*.csv"):
            assert path.read_bytes() == (tmp_path / "plain" / path.name).read_bytes()
        summary = summaries["benched"]
        for w, entry in zip(summary["waveforms"], summary["benchmark"]["waveforms"]):
            assert list(entry) == [
                "waveform", "fft_median_s", "oracle", "speedup_vs_oracle", "fixed_point"
            ]
            assert entry["fixed_point"] == [
                {"format": row["format"], "runtime_s": row["runtime_s"]}
                for row in w["fixed_point"]["rows"]
            ]

    def test_summary_reports_the_transparent_hugepage_mode(self, tmp_path, monkeypatch):
        env = iz.run_comparison(small_cfg(), tmp_path).summary["environment"]
        assert env["transparent_hugepage"] in (None, "always", "madvise", "never")
        mode = tmp_path / "enabled"
        mode.write_text("always [madvise] never\n")
        monkeypatch.setattr(harness, "_THP_MODE", str(mode))
        assert harness._transparent_hugepage() == "madvise"
        monkeypatch.setattr(harness, "_THP_MODE", str(tmp_path / "missing"))
        assert harness._transparent_hugepage() is None

    @pytest.mark.parametrize("formats", [0, 1], ids=["no-formats", "formats"])
    @pytest.mark.parametrize("bench", [False, True])
    def test_each_waveform_drops_its_cube_and_map(self, tmp_path, monkeypatch, bench, formats):
        # when a waveform's range profile is written, every cube made so far
        # is collected, the filter's too, whose samples live on only as its
        # map's memory, and every map but the waveform's own; with formats so
        # is that one, since the map written is a copy. The benchmark's cubes
        # and maps come after the CSVs.
        cubes, filtered, checks = [], [], []
        synthesize = harness.synthesize_echo
        match = harness.matched_filter_rd
        write_profile = harness.write_range_profile_csv

        def recorded_synthesis(*args, **kwargs):
            cube = synthesize(*args, **kwargs)
            cubes.append(weakref.ref(cube))
            return cube

        def recorded_match(cube, schedule, grid):
            rd_map = match(cube, schedule, grid)
            filtered.append((weakref.ref(cube), weakref.ref(rd_map)))
            return rd_map

        def checked_write(path, rd_map, doppler_bin):
            own_map = filtered[-1][1]  # the waveform's own filter call
            earlier = cubes + [m for _, m in filtered[:-1]]
            checks.append(
                all(ref() is None for ref in earlier) and (own_map() is None) == bool(formats)
            )
            write_profile(path, rd_map, doppler_bin)

        monkeypatch.setattr(harness, "synthesize_echo", recorded_synthesis)
        monkeypatch.setattr(harness, "matched_filter_rd", recorded_match)
        monkeypatch.setattr(harness, "write_range_profile_csv", checked_write)
        cfg = small_cfg(
            snr_db=10.0,
            run_oracle=True,
            fxp_formats=(iz.FixedPointFormat(16, 1),) * formats,
            bench_enabled=bench,
            bench_repeats=1,
        )
        outcome = iz.run_comparison(cfg, tmp_path)
        assert checks == [True] * len(cfg.waveforms)
        # the filter's, the oracle's, the formats' and, under --bench, two
        # filter calls' and the benchmark oracle's
        assert len(filtered) == (1 + 2 * bench) * len(cfg.waveforms)
        assert len(cubes) == (2 + formats + 3 * bench) * len(cfg.waveforms)
        assert all(ref() is None for ref in cubes + [m for _, m in filtered])

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                return 1
            if dataclasses.is_dataclass(obj):
                obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
            elif isinstance(obj, dict):
                obj = list(obj.values())
            elif not isinstance(obj, (list, tuple)):
                return 0
            return sum(arrays(item) for item in obj)

        assert arrays(outcome.results) == 0

    @pytest.mark.parametrize("run", ["plain", "bench_oracle", "formats", "guarded"])
    def test_the_summary_validates_against_its_schema(self, tmp_path, run):
        """`tests/summary.schema.json` describes every key a summary may
        hold at its `schema_version`: a plain run's, a `--bench --oracle`
        run's, a run with formats and one whose oracle the guard refuses."""
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((Path(__file__).parent / "summary.schema.json").read_text())
        jsonschema.Draft202012Validator.check_schema(schema)
        pri = 512 / 1.76e9
        cfg = {
            "plain": small_cfg(),
            "bench_oracle": small_cfg(
                snr_db=10.0, run_oracle=True, bench_enabled=True, bench_repeats=1
            ),
            "formats": small_cfg(
                fxp_formats=(iz.FixedPointFormat(12, 1), iz.FixedPointFormat(56, 1)),
                bench_enabled=True,
                bench_repeats=1,
            ),
            "guarded": dataclasses.replace(
                small_cfg(run_oracle=True, waveforms=(iz.ScheduleKind.PMCW,)),
                params=iz.WaveformParams(pri_s=pri, cpi_s=128 * pri, code_length=256),
            ),
        }[run]
        iz.run_comparison(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema_version"] == harness.SCHEMA_VERSION == 1
        assert list(summary)[0] == "schema_version"
        jsonschema.Draft202012Validator(schema).validate(summary)

    def test_summary_contract(self, tmp_path):
        cfg = small_cfg()
        outcome = iz.run_comparison(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["tool"] == {"name": "isacsim", "version": iz.__version__}
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

    def test_fixed_point_rows_carry_the_clip_count_of_each_stage(self, tmp_path):
        # 56 bits are finer than a double's mantissa: the max-abs sample
        # rounds past the top of the range and clips
        fmt = iz.FixedPointFormat(56, 1)
        cfg = small_cfg(waveforms=(iz.ScheduleKind.PMCW,), fxp_formats=(fmt,))
        iz.run_comparison(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        row = summary["waveforms"][0]["fixed_point"]["rows"][0]
        schedule, cube = rebuild_echo(cfg, iz.ScheduleKind.PMCW)
        grid = iz.DopplerGrid(cfg.params, cfg.doppler_bins)
        double_map = rebuild_map(cfg, iz.ScheduleKind.PMCW)
        sweep = iz.precision_sweep(
            lambda: cube, schedule, grid, [fmt], cfg.fxp_mode, double_map=double_map
        )
        counts = sweep.rows[0].report.saturation_counts
        assert list(row["saturation_counts"].items()) == list(counts.items())
        assert list(counts) == [  # chain order; fxp steers through its quantized twiddle
            "input", "reference", "post_fft", "twiddle", "post_steering", "post_ifft"
        ]
        assert sum(counts.values()) > 0
        assert row["saturation_fraction"] == sweep.rows[0].report.saturation_fraction

    def test_fixed_point_row_keys_and_their_order(self, tmp_path):
        cfg = small_cfg(
            waveforms=(iz.ScheduleKind.PMCW,), fxp_formats=(iz.FixedPointFormat(16, 1),)
        )
        iz.run_comparison(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        (row,) = summary["waveforms"][0]["fixed_point"]["rows"]
        assert list(row) == [
            "format", "mode", "sqnr_db", "peak_bin_agree", "pslr_double_db", "pslr_fxp_db",
            "pslr_delta_db", "pslr_agree", "saturation_fraction", "saturation_counts",
            "warning", "runtime_s",
        ]
        # the summary records each result's own fields, in their order
        assert list(row) == [f.name for f in dataclasses.fields(iz.FxpReport)] + ["runtime_s"]
        detection = summary["waveforms"][0]["detection"]
        assert list(detection) == [
            "range_m", "velocity_mps", "range_bin", "doppler_bin", "peak_magnitude",
        ]
        assert list(detection) == [f.name for f in dataclasses.fields(iz.Detection)]


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
        det = outcome.results[0].detection
        rd_map = rebuild_map(cfg, iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT)
        profile = rd_map.range_cut(det.doppler_bin)
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

    def test_a_fast_time_length_past_the_guard_leaves_the_oracle_untimed(
        self, tmp_path, monkeypatch
    ):
        # Q = 512 alone exceeds a guard of 511, so not even one packet fits
        monkeypatch.setattr("isacsim.rsp.ORACLE_GUARD", 511)
        monkeypatch.setattr(harness, "ORACLE_GUARD", 511)
        cfg = small_cfg(waveforms=(iz.ScheduleKind.PMCW,), bench_enabled=True, bench_repeats=1)
        outcome = iz.run_comparison(cfg, tmp_path)
        assert outcome.exit_code == 0
        row = json.loads((tmp_path / "summary.json").read_text())["benchmark"]["waveforms"][0]
        assert row["fft_median_s"] > 0
        assert row["speedup_vs_oracle"] is None
        oracle = row["oracle"]
        assert list(oracle) == [
            "packets_used", "bins_used", "median_s", "scaled_estimate_s", "note"
        ]
        assert (oracle["packets_used"], oracle["bins_used"]) == (0, 0)
        assert (oracle["median_s"], oracle["scaled_estimate_s"]) == (None, None)
        assert "ORACLE_GUARD = 511" in oracle["note"]

    def test_benchmark_table_keeps_its_shape(self, tmp_path):
        cfg = small_cfg(
            waveforms=(iz.ScheduleKind.GOLAY_STANDARD, iz.ScheduleKind.PMCW),
            fxp_formats=(iz.FixedPointFormat(16, 1), iz.FixedPointFormat(24, 1)),
            bench_enabled=True,
            bench_repeats=1,
        )
        summary = iz.run_comparison(cfg, tmp_path).summary
        assert list(summary)[-3:] == ["benchmark", "timings_s", "peak_rss_mb"]
        bench = summary["benchmark"]
        assert list(bench) == ["repeats", "warmup", "waveforms"]
        assert (bench["repeats"], bench["warmup"]) == (1, 1)
        assert [row["waveform"] for row in bench["waveforms"]] == ["golay_standard", "pmcw"]
        for row in bench["waveforms"]:
            assert list(row) == [
                "waveform", "fft_median_s", "oracle", "speedup_vs_oracle", "fixed_point"
            ]
            assert list(row["oracle"]) == [
                "packets_used", "bins_used", "median_s", "scaled_estimate_s", "note"
            ]
            assert [list(f) for f in row["fixed_point"]] == [["format", "runtime_s"]] * 2
            assert [f["format"] for f in row["fixed_point"]] == ["<16,1>", "<24,1>"]

    def test_disabled_benchmark_leaves_no_table(self, tmp_path):
        outcome = iz.run_comparison(small_cfg(), tmp_path)
        assert "benchmark" not in outcome.summary


class TestCli:
    def write_ini(self, tmp_path, text=SMALL_INI):
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        return str(path)

    # --out "" names the working directory, as an empty output_dir key does
    @pytest.mark.parametrize("out_dir", ["out", ""], ids=["named", "empty"])
    def test_run_succeeds_and_prints_detections(self, tmp_path, capsys, monkeypatch, out_dir):
        monkeypatch.chdir(tmp_path)
        path = self.write_ini(tmp_path, SMALL_INI + "[run]\noutput_dir = from_config\n")
        code = cli.main(["run", path, "--out", out_dir])
        assert code == 0
        out = capsys.readouterr().out
        for kind in iz.ScheduleKind:
            assert kind.value in out
        assert "artifacts written" in out
        assert (tmp_path / out_dir / "summary.json").exists()
        assert not (tmp_path / "from_config").exists()

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "nope.ini")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes("# caf\u00e9\n".encode("latin-1") + SMALL_INI.encode())
        out_dir = tmp_path / "out"
        argv = ["run", str(path), "--out", str(out_dir)]
        fragment = f"config error: config file {str(path)!r} is not UTF-8: "
        self.expect_one_line_error(capsys, 2, argv, fragment)
        assert not out_dir.exists()

    def test_config_file_with_a_byte_order_mark_runs_as_without_it(self, tmp_path, capsys):
        text = SMALL_INI + "[run]\nwaveforms = pmcw\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for path in (plain, marked):
            assert cli.main(["run", str(path), "--out", str(tmp_path / path.stem)]) == 0
        assert "config error" not in capsys.readouterr().err
        names = ["pmcw_rd_map.csv", "pmcw_range_profile.csv"]
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "plain", tmp_path / "marked", names, shallow=False
        )
        assert (match, mismatch, errors) == (names, [], [])

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

    @pytest.mark.parametrize(
        "waveforms, reason",
        [("pmcw,fmcw,pmcw", "waveform 'pmcw' is listed twice"), ("", "waveform list is empty")],
        ids=["duplicate", "empty"],
    )
    def test_bad_waveform_list_on_the_command_line_exits_2(self, tmp_path, capsys, waveforms, reason):
        out = tmp_path / "out"
        argv = ["run", self.write_ini(tmp_path), "--waveforms", waveforms, "--out", str(out)]
        self.expect_one_line_error(capsys, 2, argv, f"config error: invalid --waveforms: {reason}")
        assert not out.exists()

    def test_golay_with_odd_code_length_exits_2(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI.replace("256", "500"))
        self.expect_one_line_error(capsys, 2, ["run", path], "power-of-two 'code_length'")

    def test_golay_chosen_on_the_command_line_exits_2(self, tmp_path, capsys):
        text = SMALL_INI.replace("256", "500") + "[run]\nwaveforms = fmcw\n"
        argv = ["run", self.write_ini(tmp_path, text), "--waveforms", "golay_doppler_resilient"]
        self.expect_one_line_error(capsys, 2, argv, "golay_doppler_resilient needs")

    @pytest.mark.parametrize("samples", [4, 5])
    def test_a_pri_too_short_for_pslr_exits_2(self, tmp_path, capsys, samples):
        """A PRI of Q < 6 samples leaves PSLR's +-2 bin mainlobe no sidelobe
        bin wherever the peak falls: at Q = 4 always, at Q = 5 with the
        peak in bin 2, where a one-chip echo from 0.17 m lands."""
        text = (
            f"[radar]\npri_s = {samples / 1.76e9!r}\ncode_length = {samples - 3}\npackets = 4\n"
            "[scene]\nposition_m = 0.17, 0, 0\nradial_speed_mps = 0\n"
        )
        out = tmp_path / "out"
        argv = ["run", self.write_ini(tmp_path, text), "--out", str(out)]
        fragment = (
            f"config error: 'pri_s' * 'bandwidth_hz' gives {samples} fast-time samples per "
            "PRI; PSLR needs at least 6, a +-2 bin mainlobe and a sidelobe bin beside it"
        )
        self.expect_one_line_error(capsys, 2, argv, fragment)
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, fragment",
        [
            (
                "chirp_duration_s = 1e-300",
                "chirp_duration_s 1e-300 makes the chirp's phase overflow "
                "(its slope bandwidth_hz / chirp_duration_s is inf)",
            ),
            ("carrier_freq_hz = 1e-300", "carrier_freq_hz 1e-300 makes wavelength_m overflow to inf"),
            (
                "carrier_freq_hz = 1e-299",
                "carrier_freq_hz 1e-299 makes max_unambiguous_velocity_mps overflow to inf",
            ),
        ],
        ids=["chirp-slope", "wavelength", "velocity"],
    )
    def test_finite_keys_whose_derived_values_overflow_exit_2(
        self, tmp_path, capsys, line, fragment
    ):
        """An overflowing chirp phase makes the FMCW frame NaN, and an
        overflowing wavelength or velocity an inf Doppler axis: the config
        is refused before any file is written."""
        out = tmp_path / "out"
        argv = ["run", self.write_ini(tmp_path, SMALL_INI + line + "\n"), "--out", str(out)]
        self.expect_one_line_error(
            capsys, 2, argv, f"config error: invalid radar parameters: {fragment}"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, preset, fragment",
        [
            (
                "[radar]\nbandwidth_hz = 1e200\npri_s = 1e200\npackets = 4\n",
                None,
                "invalid radar parameters: pri_s * bandwidth_hz (samples per PRI) overflows to inf",
            ),
            (
                "[radar]\nbandwidth_hz = 1e10\npri_s = 1e-9\ncpi_s = 1e300\ncode_length = 8\n",
                None,
                "invalid radar parameters: cpi_s / pri_s (packets per CPI) overflows to inf",
            ),
            (
                "[radar]\ncpi_s = 1e300\n",
                None,
                "a CPI of ~1e305 packets of 3520 samples is too large to address",
            ),
            (
                "[radar]\npackets = 8\n[doppler]\nbins = 1000000000000001\n",
                None,
                "a CPI of 8 packets of 3520 samples on ~1e15 Doppler bins is too large",
            ),
            (
                "[radar]\npackets = 8\n[doppler]\nbins = 10000000000000000001\n",
                None,
                "a CPI of 8 packets of 3520 samples on ~1e19 Doppler bins is too large",
            ),
            (
                "[radar]\npri_s = 1e5\nbandwidth_hz = 1e10\npackets = 1\ncode_length = 16\n",
                "table1",
                "a CPI of 2000 packets of ~1e15 samples is too large to address",
            ),
        ],
        ids=["samples-per-pri", "packets-per-cpi", "cube", "buffer", "grid-length", "preset"],
    )
    def test_a_cpi_too_large_to_count_or_address_exits_2(
        self, tmp_path, capsys, text, preset, fragment
    ):
        """A count rounded from an inf quotient, or a cube, map or twiddle
        of more bytes than an index holds, is refused before any file or
        directory is written; one that is addressable but does not fit in
        memory is a scenario error (exit 3)."""
        out = tmp_path / "out"
        argv = ["run", self.write_ini(tmp_path, text), "--out", str(out)]
        argv += ["--preset", preset] if preset else []
        self.expect_one_line_error(capsys, 2, argv, f"config error: {fragment}")
        assert not out.exists()

    def test_golay_with_a_one_chip_code_exits_2(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI.replace("256", "1"))
        self.expect_one_line_error(capsys, 2, ["run", path], "from 2 to 65536, got 1")

    def test_small_car_exits_2(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI + "[scene]\ntarget = car\nscatterer_count = 3\n")
        self.expect_one_line_error(capsys, 2, ["run", path], "'scatterer_count' >= 4")

    @pytest.mark.parametrize("key", ["seed_code", "seed_noise", "seed_scene"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, key):
        path = self.write_ini(tmp_path, SMALL_INI + f"[scene]\n{key} = -1\n")
        fragment = f"line 6: invalid value for '{key}': expected a non-negative integer"
        self.expect_one_line_error(capsys, 2, ["run", path], fragment)

    @pytest.mark.parametrize(
        "key,value",
        [("snr_db", "1e308"), ("snr_db", "-1e308"), ("rcs_dbsm", "1e308"), ("rcs_dbsm", "-300.5")],
    )
    def test_db_value_beyond_300_exits_2(self, tmp_path, capsys, key, value):
        path = self.write_ini(tmp_path, SMALL_INI + f"[scene]\n{key} = {value}\n")
        fragment = f"line 6: invalid value for '{key}': expected a dB value within +-300"
        self.expect_one_line_error(capsys, 2, ["run", path], fragment)

    @pytest.mark.parametrize("snr_db,rcs_dbsm", [("300", "-300"), ("-300", "300")])
    def test_db_extremes_run_clean(self, tmp_path, snr_db, rcs_dbsm):
        # a numpy RuntimeWarning (overflow, division by zero) fails the test
        text = SMALL_INI + f"[scene]\nsnr_db = {snr_db}\nrcs_dbsm = {rcs_dbsm}\n"
        text += "[fixedpoint]\nformats = 12:1, 24:1\n"
        argv = ["run", self.write_ini(tmp_path, text), "--oracle", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("out", ["run#3", " x ", "x\t", "a\nb", "a\u2028b"])
    def test_output_dir_the_echo_cannot_carry_exits_2(self, tmp_path, capsys, out):
        argv = ["run", self.write_ini(tmp_path), "--out", out]
        self.expect_one_line_error(capsys, 2, argv, "config error: invalid output directory")
        assert not (tmp_path / out).exists()

    def test_output_dir_key_with_a_control_character_exits_2(self, tmp_path, capsys):
        path = self.write_ini(tmp_path, SMALL_INI + "[run]\noutput_dir = a\x07b\n")
        fragment = "line 6: invalid value for 'output_dir': 'a\\x07b' contains a line break"
        self.expect_one_line_error(capsys, 2, ["run", path], fragment)

    @pytest.mark.parametrize(
        "extra",
        [
            "[scene]\nposition_m = 0, 0, 0\n",
            "amplitude = 1e200\n",  # an echo past the float range
            "amplitude = 1e200\n[scene]\nsnr_db = 10\n",  # and its noise power
            "[scene]\nposition_m = 1e-150, 0, 0\nrcs_dbsm = 100\n",
        ],
    )
    def test_scene_that_cannot_run_exits_3(self, tmp_path, capsys, extra):
        path = self.write_ini(tmp_path, SMALL_INI + extra)
        out_dir = tmp_path / "out"
        argv = ["run", path, "--out", str(out_dir)]
        self.expect_one_line_error(capsys, 3, argv, "scenario error")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text, fragment",
        [
            (
                "[scene]\nposition_m = 5000.0, 0.0, 0.0\n",
                "scenario error: scatterer at 5000.00 m is beyond the unambiguous range 299.79 m",
            ),
            (
                "[radar]\npri_s = 1e5\nbandwidth_hz = 1e10\npackets = 1\ncode_length = 16\n",
                "scenario error: out of memory: Unable to allocate 14.2 PiB",
            ),
        ],
        ids=["far", "too-large"],
    )
    def test_a_run_that_exits_3_makes_no_output_directory(self, tmp_path, capsys, text, fragment):
        """The scene check and the first waveform's allocations run before
        the output directory is made; one that exists already is left as
        it was."""
        out_dir = tmp_path / "out"
        argv = ["run", self.write_ini(tmp_path, text), "--out", str(out_dir)]
        self.expect_one_line_error(capsys, 3, argv, fragment)
        assert not out_dir.exists()
        out_dir.mkdir()
        (out_dir / "kept.txt").write_text("from an earlier run\n")
        self.expect_one_line_error(capsys, 3, argv, fragment)
        assert [p.name for p in out_dir.iterdir()] == ["kept.txt"]

    def test_run_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_memory(cfg):
            raise MemoryError("Unable to allocate 105. GiB for an array")

        monkeypatch.setattr(harness, "run_comparison", no_memory)
        argv = ["run", self.write_ini(tmp_path), "--out", str(tmp_path / "out")]
        self.expect_one_line_error(capsys, 3, argv, "scenario error: out of memory")

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
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.setenv("ISACSIM_THREADS", "2")
        cli._apply_thread_env()
        for var in cli._THREAD_VARS:  # ISACSIM_THREADS is the one source of concurrency
            assert os.environ[var] == "1"

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

"""isacsim benchmark: end-to-end and per-layer figures of `isacsim run`.

    python3 perfbench/run.py --workload paper_point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of an isacsim checkout; the program is imported from
`src/`. The workload's configs are generated from `--seed`, written to
`.perfbench_out/`, and handed to the user entry point `isacsim.cli.main`
as `isacsim run <config> --out <dir>`.

One process runs the workload. It imports the CLI and the numpy stack once,
then serves each run from a fork of itself, so imports are warm, every run
starts from the same state, and the fork's peak RSS is that run's peak.
Runs go in pairs of one config: the second run must reproduce every CSV
byte for byte. Pairs repeat, closed loop, until `--seconds` have passed.

With `--trace 0` every run is untraced and the last line of stdout carries
the end-to-end metrics. With `--trace 1` the second run of each pair is
traced (see tracing.py) and the last line carries the per-layer metrics,
including the tracing overhead against the pair's untraced run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

import gate
import tracing
import workloads
from tracing import MB

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
THREADS = str(min(2, os.cpu_count() or 1))
# The pool variables isacsim.cli derives from ISACSIM_THREADS. Set here too,
# because this process and the set-up probes import numpy before any
# `isacsim.cli.main` call could apply them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_STARTS = 11
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import isacsim.cli, isacsim.harness; from isacsim.config import parse_config; "
    "parse_config(open(sys.argv[2]).read()); print('ready', flush=True)"
)


@dataclass
class RunRecord:
    """What one served run reports back to the workload process."""

    exit_code: int | None = None
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    error: str | None = None
    spans: list = field(default_factory=list)
    retained_bytes: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    cube_samples: int = 0  # Q * P * waveforms of the run's config (computed)


def _serve(config: Path, out_dir: Path, traced: bool) -> RunRecord:
    """Run `isacsim run config --out out_dir` in a fork of this process."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the fork serves the run and reports through the pipe
        record = RunRecord()
        try:
            os.close(read_fd)
            from isacsim import cli

            tracer = None
            if traced:
                tracer = tracing.Tracer()
                record.missing = tracing.install(tracer)
            sink = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(sink), redirect_stderr(sink):
                record.exit_code = cli.main(["run", str(config), "--out", str(out_dir)])
            record.wall_s = time.perf_counter() - start
            record.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if record.exit_code != 0:
                record.error = f"exit code {record.exit_code}: {sink.getvalue()[-500:]}"
            if tracer is not None:
                record.spans = [asdict(s) for s in tracer.spans]
                record.retained_bytes = tracer.retained_bytes
        except BaseException:  # reported to the parent, which counts the failure
            record.error = traceback.format_exc(limit=5)
        finally:
            payload = json.dumps(asdict(record)).encode()
            view = memoryview(payload)
            while view:
                view = view[os.write(write_fd, view):]
            os._exit(0)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as pipe:
        while chunk := pipe.read(1 << 16):
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if not chunks:
        return RunRecord(error=f"run process ended with status {status} and no report")
    return RunRecord(**json.loads(b"".join(chunks)))


def _measure_setup(config: Path) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported the CLI
    and the numpy stack and parsed the workload's config."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def _tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def _environment(scenario) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    llc = -1
    if sys.platform == "linux":  # 194 is glibc's _SC_LEVEL3_CACHE_SIZE, absent from sysconf_names
        try:
            llc = os.sysconf(os.sysconf_names.get("SC_LEVEL3_CACHE_SIZE", 194))
        except (ValueError, OSError):
            pass
    cube_mb = scenario.samples * scenario.packets * 16 / MB
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "thread_caps": {v: os.environ.get(v) for v in ("ISACSIM_THREADS", *THREAD_VARS)},
        "size": {
            "Q": scenario.samples,
            "P": scenario.packets,
            "J": scenario.doppler_bins,
            "waveforms": scenario.waveforms,
            "scatterers": scenario.scatterers,
            "formats": list(scenario.formats),
            "cube_mb_per_waveform (computed)": round(cube_mb, 3),
            "last_level_cache_mb": round(llc / MB, 3) if llc > 0 else None,
        },
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    first = workloads.scenario(workload, seed, 0)
    first_config = work / "scenario0.ini"
    first_config.write_text(first.text)
    setup = _measure_setup(first_config)

    import isacsim.cli  # noqa: F401  (warm imports for every fork)
    import isacsim.harness  # noqa: F401

    untraced, traced, layer_runs, spans_out = [], [], [], []
    missing: set[str] = set()  # layer functions the program no longer has
    attempted = failed = 0
    failures: list[str] = []
    index = 0
    start = time.perf_counter()
    while index == 0 or time.perf_counter() - start < seconds:
        scenario = workloads.scenario(workload, seed, index)
        config = work / f"scenario{index}.ini"
        config.write_text(scenario.text)
        hashes = []
        for rerun in (False, True):
            out_dir = work / f"out{index}{'b' if rerun else 'a'}"
            traced_run = trace and rerun
            record = _serve(config, out_dir, traced_run)
            attempted += scenario.waveforms
            if record.error is not None:
                bad = {w: record.error for w in workloads.WAVEFORMS}
            else:
                bad = gate.check_run(scenario, out_dir)
                hashes.append(gate.artifact_hashes(out_dir))
                if rerun and len(hashes) == 2:
                    bad.update(gate.compare_hashes(hashes[0], hashes[1]))
                if traced_run:
                    spans = [tracing.Span(**s) for s in record.spans]
                    layers = tracing.summarize(spans, record.retained_bytes, record.wall_s)
                    layers["harness.artifact_mb"] = sum(s for _, s in hashes[-1].values()) / MB
                    layers["trace.run_s"] = record.wall_s
                    layer_runs.append(layers)
                    spans_out.append({"scenario": index, "wall_s": record.wall_s,
                                      "spans": record.spans})
                    missing.update(record.missing)
                record.cube_samples = scenario.cube_samples
                (traced if traced_run else untraced).append(record)
            shutil.rmtree(out_dir, ignore_errors=True)
            failed += len(bad)
            failures += [f"scenario {index} {'re-run' if rerun else 'run'} {w}: {r}"
                         for w, r in sorted(bad.items())]
        index += 1

    if spans_out:  # spans are kept in memory and written out once, at the end
        (WORK / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(spans_out))
    shutil.rmtree(work, ignore_errors=True)
    return {
        "scenario": first,
        "setup": setup,
        "untraced": untraced,
        "traced": traced,
        "layer_runs": layer_runs,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "scenarios": index,
        "missing": sorted(missing),
    }


def _report(workload: str, seed: int, trace: bool, res: dict) -> dict:
    runs = res["untraced"]
    walls = [r.wall_s for r in runs]
    print(f"# environment: {json.dumps(_environment(res['scenario']))}")
    print(f"# workload {workload}, seed {seed}: {res['scenarios']} configs, "
          f"{len(runs) + len(res['traced'])} runs, closed loop, one run at a time")
    for name in res["missing"]:
        print(f"# not traced: the program has no {name}; its metrics read 0")
    for line in res["failures"][:20]:
        print(f"# FAILED {line}")
    correct = res["failed"] == 0 and bool(walls)

    end_to_end = {}
    if walls:
        end_to_end = {
            "run_s": (statistics.median(walls), "s"),
            "msamples_per_s": (sum(r.cube_samples for r in runs) / sum(walls) / 1e6, "Msample/s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
            "setup_s": (statistics.median(res["setup"]), "s"),
        }
    for name, (value, unit) in end_to_end.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {res['failed'] / res['attempted']:.6g} "
          f"(failed {res['failed']} of {res['attempted']} waveform-runs)")
    print("run walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    tail = _tail_percentile(walls)
    print("run_s tail: " + (f"p{tail[0]} = {tail[1]:.6g} s (n = {len(walls)})" if tail else
                            f"n/a: {len(walls)} runs, a percentile needs 10 beyond it"))
    if not trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
        return _result(correct, res, metrics)

    layer_runs = res["layer_runs"]
    if not (layer_runs and walls):
        return _result(False, res, {})
    metrics = {
        key: {"value": statistics.median(run[key] for run in layer_runs),
              "unit": LAYER_UNITS.get(key, "s")}
        for key in layer_runs[0]
    }
    overhead = metrics["trace.run_s"]["value"] - statistics.median(walls)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    worst = max(abs(1.0 - run["trace.self_time_coverage"]) for run in layer_runs)
    if worst > COVERAGE_TOLERANCE:
        correct = False
        print(f"# FAILED span self times miss the traced wall time by {worst:.1%} "
              f"(tolerance {COVERAGE_TOLERANCE:.0%})")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}" + (" (computed)" if key in COMPUTED else ""))
    return _result(correct, res, metrics)


def _result(correct: bool, res: dict, metrics: dict) -> dict:
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


COVERAGE_TOLERANCE = 0.05
COMPUTED = {
    "scene.synthesize_echo.scatterer_passes",
    "rsp.matched_filter_rd.dense_steer_calls",
    "rsp.matched_filter_rd.steer_gmacs",
    "fxp.double_map_recomputes",
    "harness.artifact_mb",
}
LAYER_UNITS = {
    "harness.artifact_mb": "MB",
    "harness.retained_mb": "MB",
    "scene.synthesize_echo.peak_alloc_mb": "MB",
    "scene.synthesize_echo.scatterer_passes": "count",
    "rsp.matched_filter_rd.peak_alloc_mb": "MB",
    "rsp.matched_filter_rd.dense_steer_calls": "count",
    "rsp.matched_filter_rd.steer_gmacs": "GMAC",
    "fxp.double_map_recomputes": "count",
    "fxp.precision_sweep.peak_alloc_mb": "MB",
    "trace.self_time_coverage": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "isacsim" / "cli.py").is_file():
        print(f"perfbench: no isacsim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ["ISACSIM_THREADS"] = THREADS
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))

    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = _report(args.workload, args.seed, bool(args.trace), res)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

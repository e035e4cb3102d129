"""Self-test of the benchmark on a tiny profile (Q = 512, P = 16).

    python3 perfbench/run.py --self-test

Checks the span and self-time arithmetic, that one seed always generates the
same configs, and that the output gate passes real outputs of every workload
and rejects planted wrong answers. Prints one line per check and exits
nonzero when any fails.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gate
import tracing
import workloads

WORK = Path(__file__).resolve().parent.parent / ".perfbench_out" / "selftest"


class Clock:
    """Deterministic clock: each reading returns the next scripted tick."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def check_span_arithmetic():
    # run 0..10 holds a 1..4 and b 5..9; b holds c 6..8.
    tracer = tracing.Tracer(clock=Clock([0, 1, 4, 5, 6, 8, 9, 10]))
    run = tracer.begin("harness.run_comparison")
    a = tracer.begin("a")
    tracer.end(a)
    b = tracer.begin("b")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(b)
    tracer.end(run)
    own = tracing.self_times(tracer.spans)
    assert own == {run.id: 3, a.id: 3, b.id: 2, c.id: 2}, own
    assert [s.parent for s in tracer.spans] == [None, run.id, run.id, b.id]
    layers = tracing.summarize(tracer.spans, [], wall_s=12.5)
    assert layers["harness.run_comparison.self_s"] == 3
    assert layers["trace.self_time_coverage"] == 10 / 12.5

    # A wrapped function that raises still closes its span, under its parent.
    tracer = tracing.Tracer(clock=Clock([0, 1, 2, 3]))

    def fails():
        raise ValueError("planted")

    outer = tracer.begin("outer")
    try:
        tracer.wrap("inner", fails)()
    except ValueError:
        pass
    tracer.end(outer)
    inner = tracer.spans[1]
    assert (inner.parent, inner.start, inner.end) == (outer.id, 1, 2)
    assert tracing.self_times(tracer.spans)[outer.id] == 2


def check_same_seed_same_configs():
    for name in workloads.WORKLOADS:
        first = [workloads.scenario(name, 5, k) for k in range(3)]
        again = [workloads.scenario(name, 5, k) for k in range(3)]
        assert first == again, name
        assert len({s.text for s in first}) == 3, f"{name}: scenarios repeat within a seed"
        assert workloads.scenario(name, 6, 0).text != first[0].text, f"{name}: seed ignored"


def _run_tiny(name: str, out: Path, traced: bool = False):
    from isacsim import cli, harness

    scenario = workloads.scenario(name, 3, 0, workloads.TINY)
    config = WORK / f"{name}.ini"
    config.write_text(scenario.text)
    tracer = tracing.Tracer()
    if traced:
        assert tracing.install(tracer) == []
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(config), "--out", str(out)])
    finally:
        tracing.uninstall(tracer)
    assert harness.run_comparison.__module__ == "isacsim.harness", "wrappers left in place"
    assert code == 0, f"{name}: exit code {code}"
    return scenario, tracer


def _rewrite_json(path: Path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def check_gate_on_tiny_runs():
    for name in workloads.WORKLOADS:
        out_a, out_b = WORK / f"{name}-a", WORK / f"{name}-b"
        scenario, tracer = _run_tiny(name, out_a, traced=True)
        _run_tiny(name, out_b)
        assert gate.check_run(scenario, out_a) == {}, (name, gate.check_run(scenario, out_a))
        hashes = gate.artifact_hashes(out_a)
        assert gate.compare_hashes(hashes, gate.artifact_hashes(out_b)) == {}, name
        roots = [s for s in tracer.spans if s.parent is None]
        assert [s.name for s in roots] == ["config.parse_config", "harness.run_comparison"]
        own = tracing.self_times(tracer.spans)
        assert abs(sum(own.values()) - sum(s.duration for s in roots)) < 1e-9
        assert min(own.values()) >= 0.0
        names = {s.name for s in tracer.spans}
        assert ("fxp.precision_sweep" in names) == bool(scenario.formats), name
    return scenario, out_a, hashes


def check_gate_rejects_planted_errors(scenario, out: Path, hashes):
    """`scenario` is a ci_fxp run with a passing output directory `out`."""
    # Truth moved past the scene's far edge by more than any waveform's tolerance.
    _, far = scenario.range_bins
    beyond = far + 2 * max(scenario.range_tolerance.values()) + 2
    moved = dataclasses.replace(scenario, range_bins=(beyond, beyond))
    assert set(gate.check_run(moved, out)) == set(workloads.WAVEFORMS), "range truth"
    moved = dataclasses.replace(scenario, doppler_bin=scenario.doppler_bin + 2)
    assert set(gate.check_run(moved, out)) == set(workloads.WAVEFORMS), "Doppler truth"

    # A map whose peak sits one bin off the reported detection.
    profile = out / "fmcw_range_profile.csv"
    original = profile.read_text()
    lines = original.splitlines()
    values = lines[2].split(",")
    peak = max(range(len(values)), key=lambda i: float(values[i]))
    values[peak], values[peak + 1] = values[peak + 1], values[peak]
    profile.write_text("\n".join(lines[:2] + [",".join(values)]) + "\n")
    assert "range profile peaks" in gate.check_run(scenario, out).get("fmcw", ""), "moved peak"
    profile.write_text(original)

    summary = out / "summary.json"
    saved = summary.read_text()
    _rewrite_json(summary, lambda d: d["waveforms"][1]["fixed_point"]["rows"][1].update(
        peak_bin_agree=False))
    assert set(gate.check_run(scenario, out)) == {"pmcw"}, "16-bit disagreement"
    summary.write_text(saved)
    _rewrite_json(summary, lambda d: d["waveforms"][1]["fixed_point"]["rows"][0].update(
        peak_bin_agree=False))
    assert gate.check_run(scenario, out) == {}, "12-bit disagreement is allowed"
    summary.write_text(saved)
    _rewrite_json(summary, lambda d: d["waveforms"][2].update(detection=None))
    assert set(gate.check_run(scenario, out)) == {"golay_standard"}, "missing detection"
    summary.write_text(saved)

    # The paper's PSLR order, checked on a paper_point run of the tiny profile.
    point = dataclasses.replace(scenario, workload="paper_point", formats=())
    _rewrite_json(summary, lambda d: [w.update(pslr_db=p) for w, p in
                                      zip(d["waveforms"], (3.0, 18.0, 90.0, 290.0))])
    assert gate.check_run(point, out) == {}, "PSLR order holds"
    _rewrite_json(summary, lambda d: d["waveforms"][3].update(pslr_db=80.0))
    assert set(gate.check_run(point, out)) == set(workloads.WAVEFORMS), "PSLR order"
    summary.write_text(saved)

    changed = dict(hashes)
    digest, size = changed["pmcw_rd_map.csv"]
    changed["pmcw_rd_map.csv"] = (digest[::-1], size)
    assert set(gate.compare_hashes(hashes, changed)) == {"pmcw"}, "byte identity"
    summary.unlink()
    assert set(gate.check_run(scenario, out)) == set(workloads.WAVEFORMS), "no summary"


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    failures = 0
    tiny = None
    checks = [
        ("span and self-time arithmetic", check_span_arithmetic),
        ("same seed, same configs", check_same_seed_same_configs),
        ("gate passes real tiny runs of every workload", check_gate_on_tiny_runs),
        ("gate rejects planted wrong answers", lambda: check_gate_rejects_planted_errors(*tiny)),
    ]
    for label, check in checks:
        try:
            result = check()
            if result is not None:
                tiny = result
            print(f"PASS {label}")
        except Exception:  # report every check, then fail the self-test
            failures += 1
            print(f"FAIL {label}\n{traceback.format_exc(limit=3)}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failures else 0

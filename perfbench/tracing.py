"""Spans around isacsim's layer functions, recorded from outside the program.

`install` replaces layer functions with timing wrappers at the places the
program looks them up at call time: attributes of `isacsim.harness`,
`isacsim.fxp` and `isacsim.config`. The real `run_comparison` therefore runs
unchanged; each wrapper records a span (name, start, end, parent) in memory,
and the caller writes the spans out when the run ends.

Three spans also measure the peak of memory allocated while they are open,
with `tracemalloc` switched on only inside them: tracing every allocation
would make the CSV writers (millions of small Python objects) about 35 times
slower and the timings worthless.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
import tracemalloc
import weakref
from dataclasses import dataclass, field

MB = float(1 << 20)

# (module, attribute, span name): every place the program looks a layer up.
PATCHES = (
    ("isacsim.config", "parse_config", "config.parse_config"),
    ("isacsim.harness", "run_comparison", "harness.run_comparison"),
    ("isacsim.harness", "run_waveform", "harness.run_waveform"),
    ("isacsim.harness", "build_schedule", "waveform.build_schedule"),
    ("isacsim.harness", "synthesize_echo", "scene.synthesize_echo"),
    ("isacsim.harness", "build_reference_bank", "rsp.build_reference_bank"),
    ("isacsim.harness", "matched_filter_rd", "rsp.matched_filter_rd"),
    ("isacsim.harness", "detect_peak", "rsp.detect_peak"),
    ("isacsim.harness", "pslr_db", "rsp.pslr_db"),
    ("isacsim.harness", "precision_sweep", "fxp.precision_sweep"),
    ("isacsim.harness", "write_rd_map_csv", "harness.write_rd_map_csv"),
    ("isacsim.harness", "write_range_profile_csv", "harness.write_range_profile_csv"),
    ("isacsim.fxp", "quantized_matched_filter", "fxp.quantized_matched_filter"),
    ("isacsim.fxp", "matched_filter_rd", "rsp.matched_filter_rd"),
    ("isacsim.fxp", "detect_peak", "rsp.detect_peak"),
    ("isacsim.fxp", "pslr_db", "rsp.pslr_db"),
)
MEMORY_SPANS = frozenset({"scene.synthesize_echo", "rsp.matched_filter_rd", "fxp.precision_sweep"})


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    peak_alloc_bytes: int | None = None
    counts: dict = field(default_factory=dict)  # computed work, from the call's arguments

    @property
    def duration(self) -> float:
        return self.end - self.start


def _steering_counts(args) -> dict:
    """Doppler steering work of one matched_filter_rd(cube, bank, grid) call."""
    cube, _, grid = args[:3]
    q, p = cube.samples.shape
    if grid.fft_aligned:
        return {"dense_steer_calls": 0, "steer_macs": 0}
    return {"dense_steer_calls": 1, "steer_macs": q * p * len(grid)}


def _scatterer_counts(args) -> dict:
    """synthesize_echo(schedule, targets, ...) makes one cube pass per scatterer."""
    return {"scatterer_passes": sum(len(t.scatterers) for t in args[1])}


def _format_counts(args) -> dict:
    """precision_sweep(cube, bank, grid, formats, ...) runs once per format."""
    return {"formats": len(args[3])}


COUNTERS = {
    "rsp.matched_filter_rd": _steering_counts,
    "scene.synthesize_echo": _scatterer_counts,
    "fxp.precision_sweep": _format_counts,
}


def held_array_bytes(roots) -> int:
    """Bytes of the distinct arrays reachable from `roots` through dataclass
    fields, tuples, lists and dicts (a view counts as its base)."""
    owners: dict[int, int] = {}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj).__name__ == "ndarray":
            while type(obj.base).__name__ == "ndarray":
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return sum(owners.values())


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.retained_bytes: list[int] = []
        self._open: list[Span] = []
        self._memory_open: list[list[int]] = []  # [base, high water] per open memory span
        self._results: list[weakref.ref] = []
        self.patched: list[tuple] = []  # (module, attribute, original) per wrapper installed

    def begin(self, name: str, memory: bool = False) -> Span:
        span = Span(
            id=len(self.spans),
            name=name,
            parent=self._open[-1].id if self._open else None,
            start=self.clock(),
        )
        if memory:
            self._memory_begin()
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span, memory: bool = False):
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if memory:
            span.peak_alloc_bytes = self._memory_end()
        span.end = self.clock()

    def _memory_begin(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._memory_open:  # keep the enclosing span's high water before resetting
            self._memory_open[-1][1] = max(self._memory_open[-1][1], peak)
        tracemalloc.reset_peak()
        self._memory_open.append([current, current])

    def _memory_end(self) -> int:
        base, high = self._memory_open.pop()
        high = max(high, tracemalloc.get_traced_memory()[1])
        if self._memory_open:
            self._memory_open[-1][1] = max(self._memory_open[-1][1], high)
        else:
            tracemalloc.stop()
        return high - base

    def wrap(self, name: str, fn):
        memory = name in MEMORY_SPANS
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self.begin(name, memory)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span, memory)
            if counter is not None:
                span.counts = counter(args)
            if name == "harness.run_waveform":
                self._results.append(weakref.ref(result))
            elif name.startswith("harness.write_"):
                self._record_retained()
            return result

        return traced

    def _record_retained(self):
        """Array bytes the harness still holds through the waveform results
        it has received so far (sampled after each artifact is written)."""
        alive = [r() for r in self._results]
        self.retained_bytes.append(held_array_bytes([a for a in alive if a is not None]))


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function in PATCHES, in place, and return the ones
    the program lacks. The wrappers stay until `uninstall`; the benchmark
    traces in a fork that exits after its run."""
    missing = []
    for module_name, attr, span_name in PATCHES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        tracer.patched.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(span_name, fn))
    return missing


def uninstall(tracer: Tracer):
    """Put back every function `install` wrapped for this tracer."""
    while tracer.patched:
        module, attr, fn = tracer.patched.pop()
        setattr(module, attr, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def summarize(spans: list[Span], retained_bytes: list[int], wall_s: float) -> dict:
    """Per-layer figures of one traced run (before taking medians over runs)."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def calls(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in calls(name))

    def peak_mb(name):
        return max((s.peak_alloc_bytes or 0 for s in calls(name)), default=0) / MB

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in calls(name))

    sweep_s = total("fxp.precision_sweep")
    formats = count("fxp.precision_sweep", "formats")
    mf = calls("rsp.matched_filter_rd")
    return {
        "harness.write_rd_map_csv.s": total("harness.write_rd_map_csv"),
        "harness.write_range_profile_csv.s": total("harness.write_range_profile_csv"),
        "harness.run_comparison.self_s": sum(
            own[s.id] for s in calls("harness.run_comparison")
        ),
        "harness.retained_mb": max(retained_bytes, default=0) / MB,
        "scene.synthesize_echo.s": total("scene.synthesize_echo"),
        "scene.synthesize_echo.peak_alloc_mb": peak_mb("scene.synthesize_echo"),
        "scene.synthesize_echo.scatterer_passes": count("scene.synthesize_echo", "scatterer_passes"),
        "rsp.matched_filter_rd.s": total("rsp.matched_filter_rd"),
        "rsp.matched_filter_rd.peak_alloc_mb": peak_mb("rsp.matched_filter_rd"),
        "rsp.matched_filter_rd.dense_steer_calls": count("rsp.matched_filter_rd", "dense_steer_calls"),
        "rsp.matched_filter_rd.steer_gmacs": count("rsp.matched_filter_rd", "steer_macs") / 1e9,
        "rsp.build_reference_bank.s": total("rsp.build_reference_bank"),
        "rsp.detect_peak.s": total("rsp.detect_peak"),
        "rsp.pslr_db.s": total("rsp.pslr_db"),
        "waveform.build_schedule.s": total("waveform.build_schedule"),
        "config.parse_config.s": total("config.parse_config"),
        "fxp.precision_sweep.s": sweep_s,
        "fxp.precision_sweep.s_per_format": sweep_s / formats if formats else 0.0,
        "fxp.quantized_matched_filter.s": total("fxp.quantized_matched_filter"),
        "fxp.double_map_recomputes": sum(
            1 for s in mf if s.parent is not None and by_id[s.parent].name.startswith("fxp.")
        ),
        "fxp.precision_sweep.peak_alloc_mb": peak_mb("fxp.precision_sweep"),
        "trace.self_time_coverage": sum(own.values()) / wall_s,
    }

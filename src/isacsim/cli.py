"""Command line front end.

`isacsim run <config> [--out DIR] [--preset table1|ci] [--waveforms LIST]
[--bench] [--oracle]` executes a comparison run. Exit codes: 0 on success,
2 for configuration problems (including an output directory that cannot be
written), 3 for scenario problems (impossible geometry, an echo that could
overflow, a run that does not fit in memory), 4 when the run completed but
at least one waveform failed. The config file is read as UTF-8 whatever the
locale, after an optional byte-order mark; one that is not UTF-8 exits 2.

The environment variable ISACSIM_THREADS is the run's one source of
concurrency: the synthesis, the matched filter and the fixed-point sweep split
their passes across that many threads (across the CPUs the process may use
when it is unset; see `_threads.thread_count`). The BLAS, OpenMP, MKL and
numexpr pools are set to one thread before the numeric stack is imported, so
no second pool competes with those threads for the cores. A value that is not
a positive integer exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._threads import thread_count
from .errors import ParameterError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_PRESET_PACKETS = {"table1": 2000, "ci": 64}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isacsim",
        description="Range-Doppler waveform comparison simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a comparison run from a config file")
    run.add_argument("config", help="path to the scenario configuration file")
    run.add_argument("--out", help="output directory (overrides the config)")
    run.add_argument(
        "--preset",
        choices=sorted(_PRESET_PACKETS),
        help="override the CPI length: 'table1' = 2000 packets, 'ci' = 64 packets",
    )
    run.add_argument(
        "--waveforms",
        help="comma-separated subset of waveforms to run (overrides the config)",
    )
    run.add_argument("--bench", action="store_true", help="collect benchmark timings")
    run.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check each map against the time-domain oracle",
    )
    return parser


def _apply_thread_env() -> str | None:
    """Set each pool variable to one thread; return an error message, and set
    nothing, unless ISACSIM_THREADS is unset or a positive integer."""
    try:
        thread_count()
    except ParameterError as exc:
        return str(exc)
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    return None


def main(argv=None) -> int:
    thread_error = _apply_thread_env()
    if thread_error:
        print(f"config error: {thread_error}", file=sys.stderr)
        return 2
    args = _build_parser().parse_args(argv)

    # Imported only after the thread caps are in place: these pull in numpy.
    from dataclasses import replace

    from .config import parse_config, parse_waveform_list
    from .errors import ConfigError, ScenarioError
    from .harness import run_comparison
    from .params import scaled_profile

    try:
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config!r} is not UTF-8: {exc}") from None
        cfg = parse_config(text)
        if args.preset:
            cfg = replace(cfg, params=scaled_profile(cfg.params, _PRESET_PACKETS[args.preset]))
        if args.waveforms is not None:
            try:
                cfg = replace(cfg, waveforms=parse_waveform_list(args.waveforms))
            except ValueError as exc:
                raise ConfigError(f"invalid --waveforms: {exc}") from None
        if args.out is not None:
            cfg = replace(cfg, output_dir=args.out)
        if args.bench:
            cfg = replace(cfg, bench_enabled=True)
        if args.oracle:
            cfg = replace(cfg, run_oracle=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        outcome = run_comparison(cfg)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a CPI too large to hold
        print(f"scenario error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # only the artifact writers touch the file system
        print(f"config error: cannot write to {cfg.output_dir!r}: {exc}", file=sys.stderr)
        return 2

    for warning in outcome.summary["warnings"]:
        print(f"warning: {warning}")
    for entry in outcome.summary["waveforms"]:
        name = entry["waveform"]
        det = entry["detection"]
        if det is None:
            print(f"{name}: FAILED ({entry.get('error', 'no detection')})")
            continue
        pslr = entry["pslr_db"]
        pslr_text = f"{pslr:.2f} dB" if pslr is not None else "no sidelobes"
        line = (
            f"{name}: peak {det['range_m']:.3f} m at {det['velocity_mps']:.3f} m/s "
            f"(bins {det['range_bin']}, {det['doppler_bin']}), PSLR {pslr_text}"
        )
        if "oracle_max_relative_deviation" in entry:
            line += f", oracle deviation {entry['oracle_max_relative_deviation']:.3g}"
        print(line)
    print(f"artifacts written to {outcome.out_dir}")
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())

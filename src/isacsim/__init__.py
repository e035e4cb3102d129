"""Deterministic range-Doppler simulator comparing joint sensing waveforms.

Four schedules over a shared pulsed-radar profile: a linear chirp (FMCW), a
differentially encoded binary phase code (PMCW), and Golay complementary
pairs in both the standard alternating arrangement and the Doppler-resilient
Prouhet-Thue-Morse arrangement. The package covers scene synthesis, a
frequency-domain matched filter with Doppler steering, a brute-force
time-domain oracle, fixed-point emulation of the processing chain, and a CLI
harness with CSV/JSON artifacts.

Submodules are imported lazily so the CLI can pin the numeric thread pools
before the numeric stack loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # params
    "SPEED_OF_LIGHT_MPS": ".params",
    "PulseShape": ".params",
    "WaveformParams": ".params",
    "scaled_profile": ".params",
    "round_sig": ".params",
    # errors
    "SimError": ".errors",
    "ParameterError": ".errors",
    "ScenarioError": ".errors",
    "ProcessingError": ".errors",
    "NoDetectionError": ".errors",
    "DataError": ".errors",
    "OracleGuardError": ".errors",
    "ConfigError": ".errors",
    # waveform
    "ScheduleKind": ".waveform",
    "GolayPair": ".waveform",
    "FrameSchedule": ".waveform",
    "aperiodic_autocorrelation": ".waveform",
    "golay_pair": ".waveform",
    "ptm_sequence": ".waveform",
    "generate_fmcw": ".waveform",
    "generate_pmcw": ".waveform",
    "build_schedule": ".waveform",
    # scene
    "PathLoss": ".scene",
    "PointScatterer": ".scene",
    "TargetModel": ".scene",
    "DataCube": ".scene",
    "point_target": ".scene",
    "make_pedestrian": ".scene",
    "make_car": ".scene",
    "delay_bin": ".scene",
    "synthesize_echo": ".scene",
    "noise_block": ".scene",
    # rsp
    "ORACLE_GUARD": ".rsp",
    "DopplerGrid": ".rsp",
    "RangeDopplerMap": ".rsp",
    "Detection": ".rsp",
    "matched_filter_rd": ".rsp",
    "time_domain_oracle": ".rsp",
    "detect_peak": ".rsp",
    "pslr_db": ".rsp",
    "map_relative_deviation": ".rsp",
    # fxp
    "FxpMode": ".fxp",
    "FixedPointFormat": ".fxp",
    "quantize": ".fxp",
    "FxpReport": ".fxp",
    "precision_sweep": ".fxp",
    # config
    "ScenarioConfig": ".config",
    "parse_config": ".config",
    "render_config": ".config",
    "parse_waveform_list": ".config",
    # harness
    "run_comparison": ".harness",
    "run_benchmarks": ".harness",
    "build_targets": ".harness",
    "derived_parameters": ".harness",
    "WaveformResult": ".harness",
    "RunOutcome": ".harness",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module, __name__), name)


def __dir__():
    return sorted(__all__)

"""Output gate: decides, per waveform, whether a run's artifacts are right.

A waveform-run fails when the run raised or exited nonzero, when it has no
detection, when the detection lies outside the scenario's truth by more than
one Doppler bin or more than the waveform's range tolerance (one bin, or
one FMCW resolution cell on a cluster; see workloads.py), when the range-profile CSV disagrees with
the detection in summary.json, or when a workload-specific check fails:
the paper's strict PSLR order on paper_point, SQNR monotonicity and peak-bin
agreement at 16 bits and more on ci_fxp. A re-run of the same config must
also reproduce every CSV byte for byte (`compare_hashes`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import WAVEFORMS, Scenario

DOPPLER_TOLERANCE_BINS = 1
AGREE_MIN_WORD_BITS = 16


def check_run(scenario: Scenario, out_dir: Path) -> dict[str, str]:
    """Failure reason per waveform (empty when every waveform passes)."""
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return {w: f"summary.json unreadable: {exc}" for w in WAVEFORMS}
    entries = {e.get("waveform"): e for e in summary.get("waveforms", [])}
    failures: dict[str, str] = {}
    for name in WAVEFORMS:
        entry = entries.get(name)
        try:
            reason = "missing from summary.json" if entry is None else _check_waveform(
                scenario, entry, out_dir
            )
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"summary.json entry malformed: {exc!r}"
        if reason:
            failures[name] = reason
    if scenario.workload == "paper_point" and not failures:
        pslr = [entries[w]["pslr_db"] for w in WAVEFORMS]
        finite = [float("inf") if p is None else p for p in pslr]
        if any(a >= b for a, b in zip(finite, finite[1:])):
            order = ", ".join(f"{w} {p}" for w, p in zip(WAVEFORMS, pslr))
            failures.update({w: f"PSLR order broken: {order}" for w in WAVEFORMS})
    return failures


def _check_waveform(scenario: Scenario, entry: dict, out_dir: Path) -> str | None:
    det = entry.get("detection")
    if det is None:
        return f"no detection: {entry.get('error')}"
    lo, hi = scenario.range_bins
    slack = scenario.range_tolerance[entry["waveform"]]
    if not lo - slack <= det["range_bin"] <= hi + slack:
        return f"range bin {det['range_bin']} outside truth {lo}..{hi} +-{slack}"
    if abs(det["doppler_bin"] - scenario.doppler_bin) > DOPPLER_TOLERANCE_BINS:
        return (f"Doppler bin {det['doppler_bin']} not within {DOPPLER_TOLERANCE_BINS} "
                f"of {scenario.doppler_bin}")
    reason = _check_profile(entry, det, out_dir)
    if reason:
        return reason
    if scenario.formats:
        return _check_fixed_point(scenario, entry.get("fixed_point"))
    return None


def _check_profile(entry: dict, det: dict, out_dir: Path) -> str | None:
    """The peak-cut CSV must be the cut the summary says was detected."""
    name = entry.get("artifacts", {}).get("range_profile_csv")
    try:
        lines = (out_dir / str(name)).read_text().splitlines()
        velocity = float(lines[1])
        values = [float(v) for v in lines[2].split(",")]
    except (OSError, ValueError, IndexError) as exc:
        return f"range profile CSV unreadable: {exc}"
    peak = max(range(len(values)), key=values.__getitem__)
    if peak != det["range_bin"]:
        return f"range profile peaks at bin {peak}, summary reports {det['range_bin']}"
    if velocity != float(f"{det['velocity_mps']:.9g}"):
        return f"range profile cut at {velocity} m/s, summary reports {det['velocity_mps']}"
    if values[peak] != float(f"{det['peak_magnitude']:.9g}"):
        return f"range profile peak {values[peak]} differs from {det['peak_magnitude']}"
    return None


def _check_fixed_point(scenario: Scenario, fixed: dict | None) -> str | None:
    if fixed is None:
        return "fixed-point sweep missing"
    formats = [row["format"] for row in fixed["rows"]]
    expected = ["<{},{}>".format(*f.split(":")) for f in scenario.formats]
    if formats != expected:
        return f"fixed-point formats {formats}, expected {expected}"
    if fixed["sqnr_non_decreasing"] is not True:
        return "SQNR decreases with word length"
    for row, fmt in zip(fixed["rows"], scenario.formats):
        if int(fmt.split(":")[0]) >= AGREE_MIN_WORD_BITS and row["peak_bin_agree"] is not True:
            return f"{row['format']} peak bin disagrees with double precision"
    return None


def artifact_hashes(out_dir: Path) -> dict[str, tuple[str, int]]:
    """sha256 and size of every CSV artifact (summary.json carries timings)."""
    out = {}
    for path in sorted(out_dir.glob("*.csv")):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 22):
                digest.update(chunk)
        out[path.name] = (digest.hexdigest(), path.stat().st_size)
    return out


def compare_hashes(first: dict, second: dict) -> dict[str, str]:
    """Failure reason per waveform whose CSVs differ between two runs."""
    failures = {}
    for name in WAVEFORMS:
        files = sorted(f for f in first.keys() | second.keys() if f.startswith(name + "_"))
        changed = [f for f in files if first.get(f) != second.get(f)]
        if changed or not files:
            failures[name] = "re-run not byte-identical: " + (", ".join(changed) or "no CSVs")
    return failures

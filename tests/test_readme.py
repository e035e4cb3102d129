"""The README's library example runs and every value it documents parses."""

import re
from pathlib import Path

import pytest

import isacsim as iz
from isacsim.config import _SECTIONS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# (section, key, value): each enumerated value a config key accepts
DOCUMENTED = (
    [("radar", "pulse_shape", s.value) for s in iz.PulseShape]
    + [("radar", "chirp_duration_s", word) for word in ("pri", "window")]
    + [("run", "waveforms", k.value) for k in iz.ScheduleKind]
    + [("scene", "target", t) for t in ("none", "single_point", "pedestrian", "car")]
    + [("scene", "snr_db", "off")]
    + [("scene", "path_loss", p.value) for p in iz.PathLoss]
    + [("doppler", "bins", "default")]
    + [("fixedpoint", "mode", m.value) for m in iz.FxpMode]
)


def test_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("peak ")


@pytest.mark.parametrize(
    "section,key,value", DOCUMENTED, ids=[f"{k}={v}" for _, k, v in DOCUMENTED]
)
def test_documented_value_parses(section, key, value):
    assert re.search(rf"`({key} = )?{value}`", README), f"{key} = {value} is undocumented"
    iz.parse_config(f"[{section}]\n{key} = {value}\n")


def test_every_key_is_documented():
    section = re.search(r"^## Configuration file\n(.*?)^## ", README, re.S | re.M).group(1)
    keys = sorted(key for names in _SECTIONS.values() for key in names)
    missing = [key for key in keys if not re.search(rf"`{key}( = [^`]*)?`", section)]
    assert not missing, f"keys not named in the README's configuration section: {missing}"


def test_listed_values_parse():
    # "`key` (`a`, `b` or `c`)": every listed word that is not itself a key
    keys = {key: section for section, names in _SECTIONS.items() for key in names}
    checked = 0
    for key, section in keys.items():
        listing = re.search(rf"`{key}` \(([^)]*)\)", README)
        for word in re.findall(r"`(\w+)`", listing.group(1) if listing else ""):
            if word not in keys:
                iz.parse_config(f"[{section}]\n{key} = {word}\n")
                checked += 1
    assert checked >= 9

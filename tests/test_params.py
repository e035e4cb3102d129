"""Radar parameter validation."""

import math
import re

import numpy as np
import pytest

import isacsim as iz

FLOAT_FIELDS = [
    "carrier_freq_hz", "bandwidth_hz", "pri_s", "cpi_s", "amplitude", "pulse_rolloff",
    "chirp_duration_s",
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_finite_float_fields_raise_a_parameter_error(field, value):
    with pytest.raises(iz.ParameterError, match=f"^{field} must be finite"):
        iz.WaveformParams(**{field: value})


@pytest.mark.parametrize(
    "bandwidth_hz, pri_s, chirp_duration_s",
    [(1.76e9, 2e-6, 1e-300), (1.0, 100.0, 1e-306)],
    ids=["infinite-slope", "finite-slope"],
)
def test_a_chirp_whose_phase_overflows_raises_a_parameter_error(
    bandwidth_hz, pri_s, chirp_duration_s
):
    """The slope bandwidth_hz / chirp_duration_s overflows, or stays finite
    while its phase at the last chip does not: either frame would be NaN."""
    with pytest.raises(iz.ParameterError, match="makes the chirp's phase overflow"):
        iz.WaveformParams(
            bandwidth_hz=bandwidth_hz,
            pri_s=pri_s,
            cpi_s=8 * pri_s,
            code_length=64,
            chirp_duration_s=chirp_duration_s,
        )
    # one step longer, every chip's phase is finite
    params = iz.WaveformParams(
        bandwidth_hz=bandwidth_hz,
        pri_s=pri_s,
        cpi_s=8 * pri_s,
        code_length=64,
        chirp_duration_s=chirp_duration_s * 1e10,
    )
    assert np.isfinite(iz.generate_fmcw(params)).all()


@pytest.mark.parametrize(
    "radar, name",
    [
        (
            dict(bandwidth_hz=1e200, pri_s=1e200, cpi_s=4e200),
            "pri_s * bandwidth_hz (samples per PRI)",
        ),
        (
            dict(bandwidth_hz=1e10, pri_s=1e-9, cpi_s=1e300, code_length=8),
            "cpi_s / pri_s (packets per CPI)",
        ),
    ],
    ids=["samples-per-pri", "packets-per-cpi"],
)
def test_a_count_whose_quotient_overflows_raises_a_parameter_error(radar, name):
    """Q and P are rounded from pri_s / sample_period_s and cpi_s / pri_s;
    finite keys can make either quotient inf, which no count can hold."""
    with pytest.raises(iz.ParameterError, match=f"^{re.escape(name)} overflows to inf$"):
        iz.WaveformParams(**radar)


@pytest.mark.parametrize(
    "carrier_freq_hz, cpi_s, name",
    [
        (1e-300, 4e-3, "wavelength_m"),
        (1e-299, 4e-3, "max_unambiguous_velocity_mps"),
        (2.5e-295, 2e-6, "velocity_resolution_mps"),
    ],
    ids=["wavelength", "velocity", "resolution"],
)
def test_a_carrier_whose_derived_values_overflow_raises_a_parameter_error(
    carrier_freq_hz, cpi_s, name
):
    """A finite carrier low enough makes the wavelength, or a velocity
    derived from it, inf. With one packet per CPI, lambda / (2 T_CPI) is
    twice lambda / (4 T_pri) and overflows alone."""
    with pytest.raises(iz.ParameterError, match=f"makes {name} overflow to inf$"):
        iz.WaveformParams(carrier_freq_hz=carrier_freq_hz, cpi_s=cpi_s)
    # 1e10 times the carrier, every derived value is finite
    params = iz.WaveformParams(carrier_freq_hz=1e10 * carrier_freq_hz, cpi_s=cpi_s)
    assert math.isfinite(params.velocity_resolution_mps)
    assert math.isfinite(params.max_unambiguous_velocity_mps)

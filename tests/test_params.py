"""Radar parameter validation."""

import math

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

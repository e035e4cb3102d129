"""Config parsing: defaults, diagnostics, round-trips."""

import dataclasses
from pathlib import Path

import pytest

import isacsim as iz
from isacsim.config import _SECTIONS

SAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "point_target.ini"

# render_config(parse_config(<SAMPLE_CONFIG>)), byte for byte
SAMPLE_ECHO = "\n".join(
    [
        "[radar]",
        "carrier_freq_hz = 60000000000.0",
        "bandwidth_hz = 1760000000.0",
        "pri_s = 2e-06",
        "cpi_s = 0.000128",
        "code_length = 512",
        "amplitude = 1.0",
        "pulse_shape = identity",
        "pulse_rolloff = 0.25",
        "chirp_duration_s = pri",
        "",
        "[run]",
        "waveforms = fmcw, pmcw, golay_standard, golay_doppler_resilient",
        "output_dir = out",
        "oracle = false",
        "",
        "[scene]",
        "target = single_point",
        "position_m = 12.0, 9.0, 0.0",
        "radial_speed_mps = 2.0",
        "rcs_dbsm = 0.0",
        "scatterer_count = 64",
        "snr_db = off",
        "path_loss = inverse_square",
        "seed_code = 7",
        "seed_noise = 11",
        "seed_scene = 3",
        "",
        "[doppler]",
        "bins = default",
        "",
        "[fixedpoint]",
        "formats = ",
        "mode = full_chain",
        "",
        "[benchmark]",
        "enabled = false",
        "repeats = 5",
        "",
    ]
)

CONFIG_KEYS = sorted((section, key) for section, keys in _SECTIONS.items() for key in keys)
# one malformed value per key; every key not named here rejects "abc"
MALFORMED = {"output_dir": "a\x01b", "position_m": "1, 2", "velocity_mps": "1, 2"}


class TestDefaults:
    def test_empty_text_yields_the_design_profile(self):
        cfg = iz.parse_config("")
        p = cfg.params
        assert p.carrier_freq_hz == 60e9
        assert p.bandwidth_hz == 1.76e9
        assert p.pri_s == 2e-6
        assert p.cpi_s == 4e-3
        assert p.code_length == 512
        assert p.samples_per_pri == 3520
        assert p.packets_per_cpi == 2000
        assert len(cfg.waveforms) == 4
        assert cfg.target_kind == "single_point"
        assert cfg.position_m == (12.0, 9.0, 0.0)
        assert cfg.radial_speed_mps == 2.0
        assert cfg.snr_db is None
        assert (cfg.seed_code, cfg.seed_noise, cfg.seed_scene) == (7, 11, 3)
        assert cfg.doppler_bins is None
        assert cfg.fxp_formats == ()
        assert cfg.warnings == ()

    def test_comments_and_blank_lines_are_ignored(self):
        cfg = iz.parse_config(
            "\n# leading comment\n[radar]\n\ncode_length = 128  # inline note\n"
        )
        assert cfg.params.code_length == 128


class TestValues:
    def test_packets_shorthand_sets_the_cpi(self):
        cfg = iz.parse_config("[radar]\npackets = 64\n")
        assert cfg.params.cpi_s == pytest.approx(64 * 2e-6)
        assert cfg.params.packets_per_cpi == 64

    def test_snr_off_keyword(self):
        assert iz.parse_config("[scene]\nsnr_db = off\n").snr_db is None
        assert iz.parse_config("[scene]\nsnr_db = 12.5\n").snr_db == 12.5

    def test_chirp_duration_keywords(self):
        assert iz.parse_config("[radar]\nchirp_duration_s = pri\n").params.chirp_duration_s is None
        windowed = iz.parse_config("[radar]\nchirp_duration_s = window\n")
        assert windowed.params.chirp_duration_s == pytest.approx(512 / 1.76e9)
        explicit = iz.parse_config("[radar]\nchirp_duration_s = 1e-6\n")
        assert explicit.params.chirp_duration_s == 1e-6

    def test_waveform_subset(self):
        cfg = iz.parse_config("[run]\nwaveforms = pmcw, golay_doppler_resilient\n")
        assert cfg.waveforms == (
            iz.ScheduleKind.PMCW,
            iz.ScheduleKind.GOLAY_DOPPLER_RESILIENT,
        )

    def test_fixed_point_format_list(self):
        cfg = iz.parse_config("[fixedpoint]\nformats = 16:1, 24:1, 32:1\nmode = core_only\n")
        assert [str(f) for f in cfg.fxp_formats] == ["<16,1>", "<24,1>", "<32,1>"]
        assert cfg.fxp_mode is iz.FxpMode.CORE_ONLY

    def test_velocity_vector_clears_radial_speed(self):
        cfg = iz.parse_config("[scene]\nvelocity_mps = 1.6, 1.2, 0\n")
        assert cfg.velocity_mps == (1.6, 1.2, 0.0)
        assert cfg.radial_speed_mps is None

    def test_sections_and_keys_are_case_insensitive(self):
        cfg = iz.parse_config("[RADAR]\nCODE_LENGTH = 64\n")
        assert cfg.params.code_length == 64

    def test_doppler_bins(self):
        assert iz.parse_config("[doppler]\nbins = default\n").doppler_bins is None
        assert iz.parse_config("[doppler]\nbins = 65\n").doppler_bins == 65


class TestDiagnostics:
    def expect_error(self, text, fragment, line=None):
        with pytest.raises(iz.ConfigError) as err:
            iz.parse_config(text)
        message = str(err.value)
        assert fragment in message
        if line is not None:
            assert message.startswith(f"line {line}:")

    def test_unknown_section(self):
        self.expect_error("\n[nonsense]\n", "unknown section [nonsense]", line=2)

    def test_unknown_key_names_section_and_line(self):
        self.expect_error("[radar]\nbogus = 1\n", "unknown key 'bogus' in section [radar]", line=2)

    def test_key_before_any_section(self):
        self.expect_error("code_length = 64\n", "before any [section]", line=1)

    def test_unterminated_header(self):
        self.expect_error("[radar\n", "unterminated", line=1)

    def test_line_without_equals(self):
        self.expect_error("[radar]\njust words\n", "expected 'key = value'", line=2)

    def test_negative_bandwidth_names_the_key(self):
        self.expect_error(
            "[radar]\nbandwidth_hz = -1e9\n", "'bandwidth_hz' must be positive", line=2
        )

    def test_unparseable_number_names_the_key(self):
        self.expect_error("[radar]\npri_s = fast\n", "invalid value for 'pri_s'", line=2)

    def test_unknown_waveform_lists_the_valid_names(self):
        self.expect_error("[run]\nwaveforms = chirpy\n", "unknown waveform 'chirpy'", line=2)

    def test_duplicate_waveform_names_the_duplicate(self):
        self.expect_error(
            "[run]\nwaveforms = pmcw, fmcw, PMCW\n", "waveform 'pmcw' is listed twice", line=2
        )

    def test_duplicate_format_names_the_duplicate(self):
        self.expect_error(
            "[fixedpoint]\nformats = 16:1, 24:1, <16:1>\n", "format 16:1 is listed twice", line=2
        )

    def test_cpi_and_packets_conflict(self):
        self.expect_error(
            "[radar]\ncpi_s = 4e-3\npackets = 64\n", "mutually exclusive", line=3
        )

    def test_velocity_and_radial_speed_conflict(self):
        self.expect_error(
            "[scene]\nvelocity_mps = 1, 0, 0\nradial_speed_mps = 2\n",
            "mutually exclusive",
            line=2,
        )

    def test_even_doppler_bins_rejected(self):
        self.expect_error("[doppler]\nbins = 64\n", "odd integer", line=2)

    def test_bad_target_kind(self):
        self.expect_error("[scene]\ntarget = drone\n", "unknown target kind", line=2)

    def test_bad_format_string(self):
        self.expect_error("[fixedpoint]\nformats = 24\n", "invalid value for 'formats'", line=2)

    @pytest.mark.parametrize(
        "text",
        [
            "[scene]\nsnr_db = nan\n",
            "[scene]\nrcs_dbsm = inf\n",
            "[scene]\nposition_m = nan,1,0\n",
        ],
        ids=["snr_nan", "rcs_inf", "position_nan"],
    )
    def test_non_finite_numbers_rejected(self, text):
        self.expect_error(text, "expected a finite number", line=2)

    @pytest.mark.parametrize("section,key", CONFIG_KEYS, ids=[key for _, key in CONFIG_KEYS])
    def test_malformed_value_names_its_line(self, section, key):
        text = f"[{section}]\n{key} = {MALFORMED.get(key, 'abc')}\n"
        self.expect_error(text, "", line=2)

    def test_nonpositive_counts(self):
        self.expect_error("[scene]\nscatterer_count = 0\n", "must be positive", line=2)
        self.expect_error("[benchmark]\nrepeats = 0\n", "at least 1", line=2)


class TestDuplicates:
    def test_last_value_wins_with_a_warning(self):
        cfg = iz.parse_config("[radar]\ncode_length = 64\ncode_length = 128\n")
        assert cfg.params.code_length == 128
        assert len(cfg.warnings) == 1
        assert "duplicate key 'code_length'" in cfg.warnings[0]
        assert cfg.warnings[0].startswith("line 3:")


class TestRoundTrip:
    def test_default_config_round_trips(self):
        cfg = iz.parse_config("")
        assert iz.parse_config(iz.render_config(cfg)) == cfg

    def test_customized_config_round_trips(self):
        text = """
[radar]
carrier_freq_hz = 79e9
bandwidth_hz = 1e9
pri_s = 3e-6
packets = 32
code_length = 256
amplitude = 0.5
pulse_shape = raised_cosine
pulse_rolloff = 0.35
chirp_duration_s = window

[run]
waveforms = fmcw, golay_standard
output_dir = artifacts
oracle = true

[scene]
target = car
position_m = 30, 5, 0
velocity_mps = -8, 1, 0
rcs_dbsm = 10
scatterer_count = 48
snr_db = 18
path_loss = off
seed_code = 2
seed_noise = 4
seed_scene = 6

[doppler]
bins = 33

[fixedpoint]
formats = 16:1, 24:1
mode = core_only

[benchmark]
enabled = true
repeats = 3
"""
        cfg = iz.parse_config(text)
        again = iz.parse_config(iz.render_config(cfg))
        assert again == cfg

    def test_sample_config_renders_canonically(self):
        assert iz.render_config(iz.parse_config(SAMPLE_CONFIG.read_text())) == SAMPLE_ECHO

    def test_warnings_do_not_break_round_trip_equality(self):
        cfg = iz.parse_config("[radar]\ncode_length = 64\ncode_length = 64\n")
        assert cfg.warnings  # duplicate recorded
        rendered = iz.parse_config(iz.render_config(cfg))
        assert rendered == cfg  # equality ignores the warning channel
        assert rendered.warnings == ()

    def test_scaled_profile_rescales_only_the_cpi(self):
        cfg = iz.parse_config("")
        scaled = dataclasses.replace(cfg, params=iz.scaled_profile(cfg.params, 64))
        assert scaled.params.packets_per_cpi == 64
        assert scaled.params.pri_s == cfg.params.pri_s
        assert scaled.waveforms == cfg.waveforms

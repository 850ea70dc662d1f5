"""Config file parsing, schema enforcement, and error reporting."""

import math

import pytest

import plenax as px
from plenax.configio import ConfigError

VALID = """\
[sensor]
pixel_pitch_mm = 0.009
micro_image_px = 13

[mla]
lenses_h = 281
lenses_v = 188
pitch_mm = 0.125
f_s_mm = 2.75

[main_lens]
f_u_mm = 197.1264
exit_pupil_inf_mm = 100.5
h1h2_mm = 147.4618

[focus]
d_f_mm = inf
"""


class TestParseConfig:
    def test_valid_text(self):
        config = px.parse_config(VALID)
        assert config.sensor.micro_image_px == 13
        assert config.focus.at_infinity
        assert config.main_lens.front_vertex_to_h1_mm is None

    def test_all_bundled_fixtures_load(self):
        names = px.fixture_names()
        assert len(names) == 13
        for name in names:
            config = px.load_fixture(name)
            px.derive_focus_state(config)

    def test_fixture_path_exists(self):
        path = px.fixture_path("f197_mla2_inf")
        assert path.is_file()
        with pytest.raises(KeyError):
            px.fixture_path("no_such_rig")

    def test_prescription_derives_focal_length(self):
        text = VALID.replace(
            "f_s_mm = 2.75",
            "r1_mm = 1.54715\nr2_mm = -inf\nt_mm = 1.1\nn = 1.5626",
        )
        config = px.parse_config(text)
        f, gap = px.mla_cardinal_points(1.1, 1.5626, 1.54715, -math.inf)
        assert config.mla.focal_length_mm == f
        assert config.mla.principal_gap_mm == gap

    def test_finite_focus(self):
        config = px.parse_config(VALID.replace("d_f_mm = inf", "d_f_mm = 3000.0"))
        assert config.focus.d_f_mm == 3000.0


class TestSchemaErrors:
    def test_unknown_key_lists_allowed(self):
        text = VALID + "pixel_size = 1\n"
        with pytest.raises(ConfigError, match="pixel_size"):
            px.parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="aperture"):
            px.parse_config(VALID + "\n[aperture]\nd = 1\n")

    def test_missing_section(self):
        text = VALID.replace("[focus]\nd_f_mm = inf\n", "")
        with pytest.raises(ConfigError, match="focus"):
            px.parse_config(text)

    def test_missing_required_key(self):
        text = VALID.replace("pixel_pitch_mm = 0.009\n", "")
        with pytest.raises(ConfigError, match="pixel_pitch_mm"):
            px.parse_config(text)

    def test_non_numeric_value(self):
        text = VALID.replace("f_u_mm = 197.1264", "f_u_mm = wide")
        with pytest.raises(ConfigError, match="f_u_mm"):
            px.parse_config(text)

    def test_partial_prescription_rejected(self):
        text = VALID.replace("f_s_mm = 2.75", "f_s_mm = 2.75\nr1_mm = 1.54715")
        with pytest.raises(ConfigError, match="r2_mm"):
            px.parse_config(text)

    def test_origin_appears_in_message(self, tmp_path):
        path = tmp_path / "rig.cfg"
        path.write_text(VALID.replace("micro_image_px = 13", "micro_image_px = 12"))
        with pytest.raises(ConfigError, match="rig.cfg"):
            px.load_config(path)

    def test_validation_errors_are_config_errors(self):
        text = VALID.replace("pitch_mm = 0.125", "pitch_mm = -0.125")
        with pytest.raises(ConfigError):
            px.parse_config(text)

    def test_unfocusable_distance_rejected_at_load(self, tmp_path):
        # f_u + h1h2 = 344.59 mm < d_f < 4 f_u + h1h2 = 935.97 mm: the thin
        # lens equation has no real image distance.
        path = tmp_path / "near.cfg"
        path.write_text(VALID.replace("d_f_mm = inf", "d_f_mm = 600.0"))
        with pytest.raises(ConfigError, match=r"d_f_mm=600\.0 .*935\.9674 mm"):
            px.load_config(path)

    def test_nonexistent_path(self, tmp_path):
        with pytest.raises((ConfigError, OSError)):
            px.load_config(tmp_path / "missing.cfg")

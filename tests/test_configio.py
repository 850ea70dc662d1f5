"""Config file parsing, schema enforcement, and error reporting."""

import configparser
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plenax as px
from plenax.configio import _KEYS, ConfigError
from plenax.optics import _thick_lens

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
        assert config.focus == math.inf
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
        lens = _thick_lens(1.1, 1.5626, 1.54715, -math.inf)
        assert config.mla.focal_length_mm == lens.focal_length
        assert config.mla.lens.principal_gap == lens.principal_gap

    def test_finite_focus(self):
        config = px.parse_config(VALID.replace("d_f_mm = inf", "d_f_mm = 3000.0"))
        assert config.focus == 3000.0


class TestSchemaErrors:
    def test_unknown_key_lists_allowed(self):
        text = VALID + "pixel_size = 1\n"
        with pytest.raises(ConfigError, match="pixel_size"):
            px.parse_config(text)

    def test_focus_key_has_one_spelling(self):
        text = VALID.replace("d_f_mm = inf", "d_f = inf")
        with pytest.raises(ConfigError, match=r"unknown key 'd_f' \(allowed: d_f_mm\)"):
            px.parse_config(text)

    def test_image_distance_at_infinity_is_not_a_key(self):
        # The focus solve gives b_u = f_u at infinity; a key beside it could
        # only move the exit pupil off exit_pupil_inf_mm.
        text = VALID.replace("h1h2_mm = 147.4618\n", "h1h2_mm = 147.4618\nb_u_inf_mm = 198\n")
        with pytest.raises(ConfigError) as info:
            px.parse_config(text, origin="rig.cfg")
        assert str(info.value) == (
            "rig.cfg: [main_lens] has unknown key 'b_u_inf_mm' "
            "(allowed: exit_pupil_inf_mm, f_u_mm, h1h2_mm, v1h1_mm)"
        )

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

    def test_non_positive_focus_names_the_key(self, tmp_path):
        path = tmp_path / "rig.cfg"
        path.write_text(VALID.replace("d_f_mm = inf", "d_f_mm = -1"))
        with pytest.raises(ConfigError) as info:
            px.load_config(path)
        assert str(info.value) == f"{path}: [focus] d_f_mm must be > 0 or infinite, got -1.0"

    def test_nonexistent_path(self, tmp_path):
        with pytest.raises((ConfigError, OSError)):
            px.load_config(tmp_path / "missing.cfg")


class TestPrescriptionErrors:
    # Without f_s_mm the focal length comes from the surfaces, so a bad
    # surface fails while the nominal focal length is derived.
    @pytest.mark.parametrize(
        "edit, key",
        [(("n = 1.5626", "n = 0.5"), "n"), (("r1_mm = 0.70325", "r1_mm = 0"), "r1_mm")],
    )
    def test_derived_focal_length_names_file_and_key(self, tmp_path, edit, key):
        text = px.fixture_path("f193_mla1_1p5m").read_text()
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace("f_s_mm = 1.25\n", "").replace(*edit))
        with pytest.raises(ConfigError) as info:
            px.load_config(path)
        message = str(info.value)
        assert message.startswith(f"{path}: [mla] ")
        assert re.search(rf"\b{key}\b", message), message

    def test_negative_derived_focal_length_names_the_prescription(self):
        # The file holds no f_s_mm, so the error names the keys it does hold.
        text = px.fixture_path("f197_mla2_inf").read_text()
        text = _with_key(_with_key(text, "mla", "f_s_mm", None), "mla", "r1_mm", "-1.54715")
        with pytest.raises(ConfigError, match=r"^<config>: \[mla\] ") as info:
            px.parse_config(text)
        message = str(info.value)
        assert "t_mm, n, r1_mm, r2_mm" in message, message
        assert "f_s_mm" not in message, message


def _with_key(text, section, key, value):
    """text with key set to value, removed when value is None, added if absent.

    Fixture keys are unique across sections, so a line match is enough.
    """
    line = re.compile(rf"^{key}\s*=.*\n", re.M)
    if line.search(text):
        return line.sub("" if value is None else f"{key} = {value}\n", text)
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


def _keys(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return [(section, key) for section in parser.sections() for key in parser.options(section)]


_INT_KEYS = {"micro_image_px", "lenses_h", "lenses_v"}
_INF_ALLOWED = {"r1_mm", "r2_mm", "d_f_mm"}
_POSITIVE_LENGTHS = [
    ("sensor", "pixel_pitch_mm"),
    ("mla", "pitch_mm"),
    ("mla", "f_s_mm"),
    ("main_lens", "f_u_mm"),
    ("main_lens", "exit_pupil_inf_mm"),
    ("focus", "d_f_mm"),
]


def _not_a_number(value):
    try:
        float(value)
    except ValueError:
        return True
    return False


@st.composite
def malformed_configs(draw):
    """(text, section, key): a fixture's text with one key made invalid."""
    text = px.fixture_path(draw(st.sampled_from(px.fixture_names()))).read_text()
    keys = _keys(text)
    case = draw(st.sampled_from(
        ["missing", "non-numeric", "non-finite", "non-positive", "even", "unknown"]
    ))
    if case == "missing":
        optional = {"v1h1_mm"} | ({"f_s_mm"} if "t_mm" in text else set())
        section, key = draw(st.sampled_from([k for k in keys if k[1] not in optional]))
        value = None
    elif case == "non-numeric":
        section, key = draw(st.sampled_from(keys))
        value = draw(st.text("abcxyz_-,", max_size=6).filter(_not_a_number))
    elif case == "non-finite":
        section, key = draw(st.sampled_from([k for k in keys if k[1] not in _INT_KEYS]))
        spellings = ["nan", "NaN"] if key in _INF_ALLOWED else ["nan", "inf", "-inf", "1e400"]
        value = draw(st.sampled_from(spellings))
    elif case == "non-positive":
        lengths = _POSITIVE_LENGTHS + ([("mla", "t_mm")] if "t_mm" in text else [])
        section, key = draw(st.sampled_from(lengths))
        top = 0.0 if key != "t_mm" else -1e-9  # a zero thickness is a thin lens
        value = repr(draw(st.floats(max_value=top, allow_nan=False, allow_infinity=False)))
    elif case == "even":
        section, key = draw(st.sampled_from([("sensor", "micro_image_px"), ("mla", "lenses_h")]))
        value = str(2 * draw(st.integers(-3, 600)))
    else:
        section = draw(st.sampled_from(sorted(_KEYS)))
        key = draw(st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True).filter(
            lambda k: all(k not in allowed for allowed in _KEYS.values())
        ))
        value = "1.0"
    return _with_key(text, section, key, value), section, key


class TestMalformedConfigs:
    @settings(max_examples=300, deadline=None)
    @given(malformed_configs())
    def test_error_names_section_and_key(self, case):
        text, section, key = case
        with pytest.raises(ConfigError) as info:
            px.parse_config(text, origin="rig.cfg")
        message = str(info.value)
        assert message.startswith("rig.cfg: ")
        assert f"[{section}]" in message, message
        assert re.search(rf"\b{key}\b", message), message

"""Camera description files.

A camera is described by a small sectioned key/value document:

    [sensor]
    pixel_pitch_mm = 0.009
    micro_image_px = 13

    [mla]
    lenses_h = 281
    lenses_v = 188
    pitch_mm = 0.125
    f_s_mm = 2.75            # optional with a full prescription
    r1_mm = 1.54715          # prescription: all of r1_mm, r2_mm, t_mm, n
    r2_mm = -inf             # or none of them
    t_mm = 1.1
    n = 1.5626

    [main_lens]
    f_u_mm = 197.1264
    exit_pupil_inf_mm = 100.5
    h1h2_mm = 147.4618
    v1h1_mm = 383.41         # optional

    [focus]
    d_f_mm = inf             # or a distance in mm

One table, _KEYS, lists every key: the spec field it sets, its kind
(integer, finite, or number-or-inf) and whether it is required. Unknown
sections or keys are rejected so that typos surface as errors instead of
silently falling back to defaults, and spec errors name the file key.
Without f_s_mm the lenslet focal length is the one the prescription
implies; the lenslet's principal gap is always derived, never read.
"""

from __future__ import annotations

import configparser
import math
import re
from pathlib import Path

from .optics import CameraConfig, FocusSetting, MainLensSpec, MicroLensSpec, SensorSpec


class ConfigError(ValueError):
    """A camera description that cannot be loaded, with the field named."""


_INT, _FINITE, _NUMBER_OR_INF = "an integer", "finite", "a number or inf"
# section -> file key -> (spec field, kind, required).
_KEYS = {
    "sensor": {
        "pixel_pitch_mm": ("pixel_pitch_mm", _FINITE, True),
        "micro_image_px": ("micro_image_px", _INT, True),
    },
    "mla": {
        "lenses_h": ("count_h", _INT, True),
        "lenses_v": ("count_v", _INT, True),
        "pitch_mm": ("pitch_mm", _FINITE, True),
        # Optional only with a full prescription; MicroLensSpec says so.
        "f_s_mm": ("focal_length_mm", _FINITE, False),
        "r1_mm": ("radius_front_mm", _NUMBER_OR_INF, False),
        "r2_mm": ("radius_back_mm", _NUMBER_OR_INF, False),
        "t_mm": ("thickness_mm", _FINITE, False),
        "n": ("refractive_index", _FINITE, False),
    },
    "main_lens": {
        "f_u_mm": ("focal_length_mm", _FINITE, True),
        "b_u_inf_mm": ("b_u_inf_mm", _FINITE, False),
        "exit_pupil_inf_mm": ("exit_pupil_inf_mm", _FINITE, True),
        "h1h2_mm": ("principal_gap_mm", _FINITE, True),
        "v1h1_mm": ("front_vertex_to_h1_mm", _FINITE, False),
    },
    "focus": {"d_f_mm": ("d_f_mm", _NUMBER_OR_INF, True)},
}
# The spec each section builds; CameraConfig takes them under the same names.
_SPECS = dict(sensor=SensorSpec, mla=MicroLensSpec, main_lens=MainLensSpec, focus=FocusSetting)


def load_config(path: str | Path) -> CameraConfig:
    """Read and validate a camera description file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    return parse_config(text, origin=str(path))


def parse_config(text: str, origin: str = "<config>") -> CameraConfig:
    """Validate a camera description given as text."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KEYS[section]:
                allowed = ", ".join(sorted(_KEYS[section]))
                raise ConfigError(
                    f"{origin}: [{section}] has unknown key {key!r} (allowed: {allowed})"
                )
    for section in _KEYS:
        if not parser.has_section(section):
            raise ConfigError(f"{origin}: missing section [{section}]")

    def read(section, key, kind):
        raw = parser.get(section, key)
        try:
            value = int(raw) if kind == _INT else float(raw)
        except ValueError as exc:
            what = kind if kind == _INT else "a number"
            raise ConfigError(f"{origin}: [{section}] {key} = {raw!r} is not {what}") from exc
        if kind != _INT and (math.isnan(value) or (math.isinf(value) and kind == _FINITE)):
            raise ConfigError(f"{origin}: [{section}] {key} must be {kind}, got {raw!r}")
        return value

    def build(factory, section, **kwargs):
        try:
            return factory(**kwargs)
        except ValueError as exc:
            message = str(exc)
            for key, (field, _, _) in _KEYS[section].items():
                message = re.sub(rf"\b{field}\b", key, message)
            raise ConfigError(f"{origin}: [{section}] {message}") from exc

    specs = {}
    for section, keys in _KEYS.items():
        kwargs = {}
        for key, (field, kind, required) in keys.items():
            if parser.has_option(section, key):
                kwargs[field] = read(section, key, kind)
            elif required:
                raise ConfigError(f"{origin}: [{section}] is missing key {key!r}")
            else:
                kwargs[field] = None
        specs[section] = build(_SPECS[section], section, **kwargs)
    # A focus the main lens cannot reach fails here.
    return build(CameraConfig, "focus", **specs)

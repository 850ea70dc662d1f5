"""Camera description files.

A camera is described by a small sectioned key/value document:

    [sensor]
    pixel_pitch_mm = 0.009
    micro_image_px = 13

    [mla]
    lenses_h = 281
    lenses_v = 188
    pitch_mm = 0.125
    f_s_mm = 2.75            # or a prescription: r1_mm, r2_mm, t_mm, n

    [main_lens]
    f_u_mm = 197.1264
    exit_pupil_inf_mm = 100.5
    h1h2_mm = 147.4618
    v1h1_mm = 383.41         # optional

    [focus]
    d_f_mm = inf             # or a distance in mm

Unknown sections or keys are rejected so that typos surface as errors
instead of silently falling back to defaults.
"""

from __future__ import annotations

import configparser
import math
import re
from pathlib import Path

from .optics import (
    CameraConfig,
    FocusSetting,
    MainLensSpec,
    MicroLensSpec,
    SensorSpec,
    mla_cardinal_points,
)


class ConfigError(ValueError):
    """A camera description that cannot be loaded, with the field named."""


_PRESCRIPTION_KEYS = ("r1_mm", "r2_mm", "t_mm", "n")
_ALLOWED = {
    "sensor": {"pixel_pitch_mm", "micro_image_px"},
    "mla": {"lenses_h", "lenses_v", "pitch_mm", "f_s_mm", *_PRESCRIPTION_KEYS},
    "main_lens": {"f_u_mm", "b_u_inf_mm", "exit_pupil_inf_mm", "h1h2_mm", "v1h1_mm"},
    "focus": {"d_f_mm"},
}
# Spec fields the file spells differently, so that errors name the key.
_KEY_OF_FIELD = {
    "mla": {
        "focal_length_mm": "f_s_mm",
        "count_h": "lenses_h",
        "count_v": "lenses_v",
        "thickness_mm": "t_mm",
        "refractive_index": "n",
        "radius_front_mm": "r1_mm",
        "radius_back_mm": "r2_mm",
    },
    "main_lens": {
        "focal_length_mm": "f_u_mm",
        "principal_gap_mm": "h1h2_mm",
        "front_vertex_to_h1_mm": "v1h1_mm",
    },
}


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
        if section not in _ALLOWED:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _ALLOWED[section]:
                allowed = ", ".join(sorted(_ALLOWED[section]))
                raise ConfigError(
                    f"{origin}: [{section}] has unknown key {key!r} (allowed: {allowed})"
                )
    for section in _ALLOWED:
        if not parser.has_section(section):
            raise ConfigError(f"{origin}: missing section [{section}]")

    def get_float(section, key, required=True, allow_inf=False):
        if not parser.has_option(section, key):
            if required:
                raise ConfigError(f"{origin}: [{section}] is missing key {key!r}")
            return None
        raw = parser.get(section, key)
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{origin}: [{section}] {key} = {raw!r} is not a number"
            ) from exc
        if math.isnan(value) or (math.isinf(value) and not allow_inf):
            kind = "a number or inf" if allow_inf else "finite"
            raise ConfigError(f"{origin}: [{section}] {key} must be {kind}, got {raw!r}")
        return value

    def get_int(section, key):
        raw = parser.get(section, key, fallback=None)
        if raw is None:
            raise ConfigError(f"{origin}: [{section}] is missing key {key!r}")
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{origin}: [{section}] {key} = {raw!r} is not an integer"
            ) from exc

    def build(factory, section, **kwargs):
        try:
            return factory(**kwargs)
        except ValueError as exc:
            message = str(exc)
            for field, key in _KEY_OF_FIELD.get(section, {}).items():
                message = re.sub(rf"\b{field}\b", key, message)
            raise ConfigError(f"{origin}: [{section}] {message}") from exc

    sensor = build(
        SensorSpec,
        "sensor",
        pixel_pitch_mm=get_float("sensor", "pixel_pitch_mm"),
        micro_image_px=get_int("sensor", "micro_image_px"),
    )

    prescription = {key: parser.has_option("mla", key) for key in _PRESCRIPTION_KEYS}
    if any(prescription.values()) and not all(prescription.values()):
        missing = ", ".join(k for k, present in prescription.items() if not present)
        raise ConfigError(f"{origin}: [mla] prescription is incomplete, missing {missing}")
    has_prescription = all(prescription.values())
    f_s = get_float("mla", "f_s_mm", required=not has_prescription)
    if f_s is None:
        # Nominal focal length defaults to the one the surfaces imply.
        f_s, _ = build(
            mla_cardinal_points,
            "mla",
            thickness_mm=get_float("mla", "t_mm"),
            refractive_index=get_float("mla", "n"),
            radius_front_mm=get_float("mla", "r1_mm", allow_inf=True),
            radius_back_mm=get_float("mla", "r2_mm", allow_inf=True),
        )
    mla = build(
        MicroLensSpec,
        "mla",
        focal_length_mm=f_s,
        pitch_mm=get_float("mla", "pitch_mm"),
        count_h=get_int("mla", "lenses_h"),
        count_v=get_int("mla", "lenses_v"),
        thickness_mm=get_float("mla", "t_mm") if has_prescription else None,
        refractive_index=get_float("mla", "n") if has_prescription else None,
        radius_front_mm=get_float("mla", "r1_mm", allow_inf=True) if has_prescription else None,
        radius_back_mm=get_float("mla", "r2_mm", allow_inf=True) if has_prescription else None,
    )

    main_lens = build(
        MainLensSpec,
        "main_lens",
        focal_length_mm=get_float("main_lens", "f_u_mm"),
        exit_pupil_inf_mm=get_float("main_lens", "exit_pupil_inf_mm"),
        principal_gap_mm=get_float("main_lens", "h1h2_mm"),
        b_u_inf_mm=get_float("main_lens", "b_u_inf_mm", required=False),
        front_vertex_to_h1_mm=get_float("main_lens", "v1h1_mm", required=False),
    )

    focus = build(FocusSetting, "focus", d_f_mm=get_float("focus", "d_f_mm", allow_inf=True))
    # A focus the main lens cannot reach fails here.
    return build(CameraConfig, "focus", sensor=sensor, mla=mla, main_lens=main_lens, focus=focus)

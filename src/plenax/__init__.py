"""Virtual camera model of a standard plenoptic camera.

A camera with a micro lens array one focal length in front of the sensor
behaves like a row of small cameras sitting on the main lens's entrance
pupil. This package computes that equivalent array from the optical
parameters: viewpoint positions, baselines, axis tilts, and the distances
a disparity between two viewpoints triangulates to. Around the model sit
the tools to use it: raw capture decoding into per-viewpoint images, block
matching, an independent ray-trace check, and a synthetic scene renderer.

Importing the package loads none of its modules: each public name, and
each module named as an attribute, loads its module on first use.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_MODULES = {
    "configio": ["ConfigError", "load_config", "parse_config"],
    "disparity": [
        "DisparityMap", "MatchParams", "block_match", "read_map_csv", "to_graymap",
        "write_map_csv",
    ],
    "lightfield": [
        "RawLightFieldImage", "SubApertureImage", "decode", "extract_all_views",
        "extract_view", "read_pgm", "view_filename", "write_pgm",
    ],
    "optics": [
        "CameraConfig", "FocusState", "MainLensSpec", "MicroLensSpec", "SensorSpec",
        "derive_focus_state", "solve_image_distance",
    ],
    "oracle": [
        "ScenePlane", "VirtualCameraSimulation", "parse_scene", "render_synthetic_scene",
        "simulate_distance", "simulate_virtual_cameras",
    ],
    "presets": [
        "REFERENCE_VALUES", "fixture_names", "fixture_path", "load_fixture",
        "run_consistency_checks", "run_factory_checks",
    ],
    "raymodel": [
        "ChiefRay", "StereoRig", "TriangulationQuery", "VirtualCameraArray",
        "build_virtual_camera_array", "disparity_for_distance", "entrance_pupil_distance",
        "measure_baseline", "measure_tilt", "object_ray", "stereo_depth", "triangulate",
    ],
}
_OWNER = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    # Looked up on every access and never stored here, so a function
    # replaced in its module (by a tracer, say) is replaced here too.
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    # AttributeError lets `from plenax import cli` import the submodule.
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __all__

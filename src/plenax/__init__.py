"""Virtual camera model of a standard plenoptic camera.

A camera with a micro lens array one focal length in front of the sensor
behaves like a row of small cameras sitting on the main lens's entrance
pupil. This package computes that equivalent array from the optical
parameters: viewpoint positions, baselines, axis tilts, and the distances
a disparity between two viewpoints triangulates to. Around the model sit
the tools to use it: raw capture decoding into per-viewpoint images, block
matching, an independent ray-trace check, and a synthetic scene renderer.
"""

__version__ = "0.1.0"

from .configio import ConfigError, load_config, parse_config
from .disparity import (
    DisparityMap,
    MatchParams,
    block_match,
    read_map_csv,
    to_graymap,
    write_map_csv,
)
from .lightfield import (
    RawLightFieldImage,
    SubApertureImage,
    decode,
    extract_all_views,
    extract_view,
    read_pgm,
    view_filename,
    write_pgm,
)
from .optics import (
    CameraConfig,
    FocusState,
    MainLensSpec,
    MicroLensSpec,
    SensorSpec,
    derive_focus_state,
    solve_image_distance,
)
from .oracle import (
    ScenePlane,
    VirtualCameraSimulation,
    parse_scene,
    render_synthetic_scene,
    simulate_distance,
    simulate_virtual_cameras,
)
from .presets import (
    REFERENCE_VALUES,
    fixture_names,
    fixture_path,
    load_fixture,
    run_consistency_checks,
    run_factory_checks,
)
from .raymodel import (
    ChiefRay,
    StereoRig,
    TriangulationQuery,
    VirtualCameraArray,
    build_virtual_camera_array,
    disparity_for_distance,
    entrance_pupil_distance,
    measure_baseline,
    measure_tilt,
    object_ray,
    stereo_depth,
    triangulate,
)

__all__ = [
    "__version__",
    "CameraConfig",
    "ChiefRay",
    "ConfigError",
    "DisparityMap",
    "FocusState",
    "MainLensSpec",
    "MatchParams",
    "MicroLensSpec",
    "RawLightFieldImage",
    "REFERENCE_VALUES",
    "ScenePlane",
    "SensorSpec",
    "StereoRig",
    "SubApertureImage",
    "TriangulationQuery",
    "VirtualCameraArray",
    "VirtualCameraSimulation",
    "block_match",
    "build_virtual_camera_array",
    "decode",
    "derive_focus_state",
    "disparity_for_distance",
    "entrance_pupil_distance",
    "extract_all_views",
    "extract_view",
    "fixture_names",
    "fixture_path",
    "load_config",
    "load_fixture",
    "measure_baseline",
    "measure_tilt",
    "object_ray",
    "parse_config",
    "parse_scene",
    "read_map_csv",
    "read_pgm",
    "render_synthetic_scene",
    "run_consistency_checks",
    "run_factory_checks",
    "simulate_distance",
    "simulate_virtual_cameras",
    "solve_image_distance",
    "stereo_depth",
    "to_graymap",
    "triangulate",
    "view_filename",
    "write_map_csv",
    "write_pgm",
]

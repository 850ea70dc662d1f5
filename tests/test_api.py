"""The package's public names: growing or shrinking them is a reviewed diff."""

import plenax as px

PUBLIC = [
    "CameraConfig",
    "ChiefRay",
    "ConfigError",
    "DisparityMap",
    "FocusSetting",
    "FocusState",
    "INFINITY",
    "MainLensSpec",
    "MatchParams",
    "MicroLensSpec",
    "REFERENCE_VALUES",
    "RawLightFieldImage",
    "ScenePlane",
    "SensorSpec",
    "StereoRig",
    "SubApertureImage",
    "TriangulationQuery",
    "VirtualCameraArray",
    "VirtualCameraSimulation",
    "__version__",
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


def test_public_names_are_pinned():
    assert sorted(px.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in px.__all__:
        assert getattr(px, name) is not None

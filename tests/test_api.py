"""The package's public names: growing or shrinking them is a reviewed diff."""

import ast
import inspect
from pathlib import Path

import pytest

import plenax as px

PUBLIC = [
    "CameraConfig",
    "ChiefRay",
    "ConfigError",
    "DisparityMap",
    "FocusState",
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


@pytest.mark.parametrize("name, params", [
    ("simulate_virtual_cameras", ["config"]),
    ("simulate_distance", ["config", "gap", "delta_x_px"]),
    ("render_synthetic_scene", ["config", "planes", "base_dir", "background", "maxval"]),
])
def test_oracle_takes_only_the_camera(name, params):
    # The oracle solves the focus itself: a focus state passed beside the
    # config could belong to another camera.
    assert list(inspect.signature(getattr(px, name)).parameters) == params


# Private names one plenax module takes from another, as (importer, name).
# New coupling shows up here as a diff, as a new public name does above.
PRIVATE_IMPORTS = [
    ("cli", "lightfield._GraymapWriter"),
    ("cli", "lightfield._extract_pgm"),
    ("cli", "oracle._render_rows"),
    ("oracle", "lightfield._BLOCK_BYTES"),
    ("oracle", "lightfield._body_dtype"),
    ("oracle", "lightfield._check_maxval"),
]


def _private_imports():
    """Every `from .m import _x` and `m._x` (after `from . import m`) in the package."""
    found = set()
    for path in Path(px.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.name)
                    elif alias.name.startswith("_"):
                        found.add((path.stem, f"{node.module}.{alias.name}"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
            ):
                found.add((path.stem, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_cross_module_private_names_are_pinned():
    assert _private_imports() == PRIVATE_IMPORTS

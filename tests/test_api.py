"""The public names and what importing them loads: changing either is a reviewed diff."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plenax as px
from conftest import rig_file

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
    ("render_synthetic_scene", ["config", "planes", "base_dir", "maxval"]),
])
def test_oracle_takes_only_the_camera(name, params):
    # The oracle solves the focus itself: a focus state passed beside the
    # config could belong to another camera.
    assert list(inspect.signature(getattr(px, name)).parameters) == params


# An option that only tests set is a constant: the raw is rotated by
# reversing its samples, the graymap's maxval is stated and the factory
# checks name their camera. render_synthetic_scene is pinned above.
NO_DEFAULT = inspect.Parameter.empty


@pytest.mark.parametrize("name, params", [
    ("decode", [("raw", NO_DEFAULT)]),
    ("write_pgm", [("path", NO_DEFAULT), ("samples", NO_DEFAULT), ("maxval", NO_DEFAULT)]),
    ("run_factory_checks", [("name", NO_DEFAULT), ("config", NO_DEFAULT)]),
])
def test_signatures_carry_no_test_only_option(name, params):
    parameters = inspect.signature(getattr(px, name)).parameters.values()
    assert [(p.name, p.default) for p in parameters] == params


# Private names one plenax module takes from another, as (importer, name).
# New coupling shows up here as a diff, as a new public name does above.
PRIVATE_IMPORTS = [
    ("cli", "lightfield._extract_pgm"),
    ("cli", "lightfield._write_graymap"),
    ("cli", "oracle._render_rows"),
    ("oracle", "lightfield._BLOCK_BYTES"),
    ("oracle", "lightfield._body_dtype"),
    ("oracle", "lightfield._check_maxval"),
    ("oracle", "lightfield._lens_columns"),
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


class TestLazyRoot:
    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from plenax import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
        assert set(px.__all__) <= set(dir(px))

    @pytest.mark.parametrize("module, name", [
        ("configio", "load_config"),
        ("disparity", "block_match"),
        ("lightfield", "decode"),
        ("optics", "CameraConfig"),
        ("oracle", "render_synthetic_scene"),
        ("presets", "REFERENCE_VALUES"),
        ("raymodel", "triangulate"),
    ])
    def test_name_is_its_module_attribute(self, module, name):
        assert getattr(px, name) is getattr(importlib.import_module(f"plenax.{module}"), name)

    def test_root_follows_a_replaced_function(self, monkeypatch):
        # bench/spans.py swaps traced functions in their modules and restores
        # only what it replaced: a name cached at the root would stay wrapped.
        from plenax import disparity

        assert px.block_match is disparity.block_match
        monkeypatch.setattr(disparity, "block_match", lambda *args: None)
        assert px.block_match is disparity.block_match

    def test_unknown_name_names_the_package(self):
        with pytest.raises(AttributeError, match="module 'plenax' has no attribute 'no_such_name'"):
            px.no_such_name


def _loaded_after(*lines):
    """plenax's modules, and numpy if loaded, in a fresh interpreter after lines."""
    src = str(Path(px.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "\n".join([
        *lines,
        "import sys",
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'plenax'))",
    ])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


class TestImportFootprint:
    # A CLI user waits for every import: each command loads what it runs.
    def test_import_plenax_loads_no_module(self):
        assert _loaded_after("import plenax") == ["plenax"]

    def test_module_attribute_loads_that_module(self):
        loaded = _loaded_after("import plenax", "plenax.raymodel.triangulate")
        assert loaded == ["numpy", "plenax", "plenax.optics", "plenax.raymodel"]

    def test_version_loads_no_numpy(self):
        loaded = _loaded_after(
            "import contextlib",
            "from plenax import cli",
            "with contextlib.suppress(SystemExit): cli.main(['--version'])",
        )
        assert loaded == ["plenax", "plenax.cli", "plenax.configio", "plenax.optics"]

    def test_predict_loads_only_the_ray_model(self):
        cfg = str(px.fixture_path("f197_mla2_inf"))
        loaded = _loaded_after(
            "from plenax import cli",
            f"assert cli.main(['predict', {cfg!r}, '--gaps', '1,2', '--disparities', '1']) == 0",
        )
        assert loaded == [
            "numpy", "plenax", "plenax.cli", "plenax.configio", "plenax.optics", "plenax.raymodel",
        ]

    def test_render_loads_no_matcher_presets_or_ray_model(self, tmp_path):
        cfg = rig_file(tmp_path, 5, 7, 4)
        scene = tmp_path / "scene.txt"
        scene.write_text("plane 1500 checker 0.9\n")
        out = str(tmp_path / "raw.pgm")
        loaded = _loaded_after(
            "from plenax import cli",
            f"assert cli.main(['render', {cfg!r}, {str(scene)!r}, {out!r}]) == 0",
        )
        assert "plenax.oracle" in loaded
        assert not {"plenax.disparity", "plenax.presets", "plenax.raymodel"} & set(loaded)

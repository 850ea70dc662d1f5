"""The README's Python examples run, and print what the README says they do."""

import ast
import math
import re
from pathlib import Path

import pytest

import plenax as px
from conftest import rig

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)


def _run(block, namespace):
    """Execute a block statement by statement; return each bare expression's value."""
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def _tour(namespace):
    return _run(_blocks()[0], namespace)


def test_three_python_examples():
    assert len(_blocks()) == 3


def test_library_tour_reproduces_its_quoted_values():
    block = _blocks()[0]
    for quoted in ("4.2748 mm", "0.001424 rad", "0.0816 deg", "514.15 mm"):
        assert quoted in block
    baseline, tilt, distance, depths = _tour({})
    assert baseline == pytest.approx(4.2748, abs=5e-5)
    assert tilt == pytest.approx(0.001424, abs=5e-7)
    assert math.degrees(tilt) == pytest.approx(0.0816, abs=5e-5)
    assert distance == pytest.approx(514.15, abs=5e-3)
    assert depths.tolist() == [distance]


def test_capture_example_runs_on_a_rendered_raw(tmp_path, monkeypatch):
    config = rig(5, 41, 33)
    plane = px.ScenePlane(depth_mm=2000.0, texture="checker", argument_mm=3.0)
    raw = px.render_synthetic_scene(config, [plane])
    px.write_pgm(tmp_path / "capture.pgm", raw.samples, maxval=65535)
    monkeypatch.chdir(tmp_path)
    namespace = {"px": px, "config": config}
    _run(_blocks()[1], namespace)
    assert namespace["disparity"].values.shape == (33, 41)


def test_oracle_example_runs_on_the_tour_camera():
    namespace = {}
    distance = _tour(namespace)[2]
    (traced,) = _run(_blocks()[2], namespace)
    assert len(namespace["sim"].positions_mm) == namespace["config"].sensor.micro_image_px
    assert traced == pytest.approx(distance, rel=1e-9)

"""Shared fixtures: loaded rigs and rendered scenes reused across test modules."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import plenax as px

# Depth in front of the entrance pupil whose G=4 disparity is exactly 2 px
# for the f197 rig focused at infinity.
CHECKER_DEPTH_MM = 2034.788993120814


def rig(m, count_h, count_v):
    """A rig with M = m pixels per micro image and count_h x count_v lenses."""
    return px.CameraConfig(
        sensor=px.SensorSpec(pixel_pitch_mm=0.009, micro_image_px=m),
        mla=px.MicroLensSpec(
            focal_length_mm=2.75, pitch_mm=0.125, count_h=count_h, count_v=count_v
        ),
        main_lens=px.MainLensSpec(
            focal_length_mm=197.1264, exit_pupil_inf_mm=100.5, principal_gap_mm=147.4618
        ),
        focus=math.inf,
    )


def rig_file(directory, m, count_h, count_v):
    """A camera file for the f197 rig resized to M = m and count_h x count_v lenses."""
    text = px.fixture_path("f197_mla2_inf").read_text()
    for key, value in (("micro_image_px", m), ("lenses_h", count_h), ("lenses_v", count_v)):
        text = re.sub(rf"^{key} = \d+$", f"{key} = {value}", text, flags=re.M)
    path = directory / f"rig_{m}_{count_h}x{count_v}.cfg"
    path.write_text(text)
    return str(path)


def flatten(views):
    """Inverse of decode: the raw mosaic, bit-exact, on a rig of its geometry."""
    m, _, count_v, count_h = views.shape
    mosaic = views.transpose(2, 1, 3, 0).reshape(count_v * m, count_h * m)
    return px.RawLightFieldImage(
        samples=np.ascontiguousarray(mosaic), config=rig(m, count_h, count_v)
    )


@pytest.fixture(scope="session")
def configs():
    return {name: px.load_fixture(name) for name in px.fixture_names()}


@pytest.fixture(scope="session")
def states(configs):
    return {name: px.derive_focus_state(cfg) for name, cfg in configs.items()}


@pytest.fixture(scope="session")
def f197(configs, states):
    config = configs["f197_mla2_inf"]
    state = states["f197_mla2_inf"]
    array = px.build_virtual_camera_array(state, config)
    z_a = px.entrance_pupil_distance(state, config)
    # Sampling pitch of one view at the checker depth: adjacent-lens spacing
    # of the i=0 grid projected onto the plane.
    r0 = px.object_ray(140, 0, state, config)
    r1 = px.object_ray(141, 0, state, config)
    grid = abs(r1.height_at(z_a + CHECKER_DEPTH_MM) - r0.height_at(z_a + CHECKER_DEPTH_MM))
    return SimpleNamespace(config=config, state=state, array=array, z_a=z_a, grid_mm=grid)


@pytest.fixture(scope="session")
def checker_lightfield(f197):
    # Period deliberately incommensurate with the view sampling grid: a period
    # of exactly 8 samples puts every eighth sample on a cell edge, where the
    # rendered value flips on float noise and the match statistics degrade.
    plane = px.ScenePlane(
        depth_mm=CHECKER_DEPTH_MM, texture="checker", argument_mm=6.7 * f197.grid_mm
    )
    # The renderer returns the 16-bit raw that `plenax render` writes.
    raw = px.render_synthetic_scene(f197.config, [plane])
    return px.decode(raw)


def smooth_tile(n):
    """Seamless low-frequency n x n texture, 16-bit.

    Integer cycle counts keep the wrap continuous, and smooth gradients
    exercise the subpixel interpolation.
    """
    yy, xx = np.mgrid[0:n, 0:n].astype(float) / n
    t = (
        0.30 * np.sin(2 * np.pi * (5 * xx + 0.11)) * np.cos(2 * np.pi * 7 * yy)
        + 0.25 * np.sin(2 * np.pi * (11 * xx + 0.37))
        + 0.25 * np.cos(2 * np.pi * (9 * yy + 0.21)) * np.sin(2 * np.pi * 3 * xx)
        + 0.20 * np.cos(2 * np.pi * 4 * (xx + yy))
    )
    t = (t - t.min()) / (t.max() - t.min())
    return np.round(t * 65535).astype(np.uint16)


@pytest.fixture(scope="session")
def smooth_lightfield(f197, tmp_path_factory):
    n = 512
    tile_dir = tmp_path_factory.mktemp("texture")
    px.write_pgm(tile_dir / "tile.pgm", smooth_tile(n), maxval=65535)
    mm_per_px = 10.0 * f197.grid_mm * 11 / n
    plane = px.ScenePlane(
        depth_mm=CHECKER_DEPTH_MM, texture="file", argument_mm=mm_per_px, path="tile.pgm"
    )
    raw = px.render_synthetic_scene(f197.config, [plane], base_dir=tile_dir)
    return px.decode(raw)


def match_views(lf, i_left, i_right, **overrides):
    left = px.extract_view(lf, i_left, 0).pixels.astype(float)
    right = px.extract_view(lf, i_right, 0).pixels.astype(float)
    return px.block_match(left, right, px.MatchParams(**overrides)).values

"""Render, decode and match on generated rigs, against the closed-form disparity."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import plenax as px

from conftest import smooth_tile

# The tile's 1024 texels span this many view pixels at the plane's depth, so
# its shortest period is about 10 view pixels and a texel about 0.1.
TILE_PX, TILE_SPAN_VIEW_PX = 1024, 110
BLOCK = 15
# The parabola fit on SAD costs is biased by up to about 0.09 px at nearest
# sampling (ROADMAP item 4): 0.098 px was the worst of 6,000 drawn pairs.
# The rest is margin.
BOUND_PX = 0.15
# Largest disparity drawn, and the search range: the narrowest view, 41 px,
# keeps 11 columns clear of the block and search margins.
MOST_PX, MAXD = 5, 8


@pytest.fixture(scope="module")
def tile_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pipeline_texture")
    px.write_pgm(directory / "tile.pgm", smooth_tile(TILE_PX), maxval=65535)
    return directory


@st.composite
def pipeline_cases(draw):
    """(config, depth_mm, rotate_180, pairs): a small rig and what to match on it.

    Odd M of 5-13 pixels across the shipped 117 um micro image, odd lens
    counts of 41-121, a thin or prescribed lenslet, and a shipped main lens
    focused at infinity or at 1.5-5 m. Nearer focus tilts the axes enough
    for the closed form's tan(Phi_b - Phi_a) to miss the trace by 0.065 px
    at gap 4 (1 m, M = 5; ROADMAP item 1). The plane lies where the oracle,
    not the model, traces a gap-1 disparity of 0.3-1.2 px of either sign.
    The pairs, as (first viewpoint, gap), are the centred gap-1 pair, a
    non-centred pair and a centred pair, each gap seeing at most MOST_PX.
    """
    m = draw(st.sampled_from([5, 7, 9, 11, 13]))
    lenses = st.integers(20, 60).map(lambda k: 2 * k + 1)
    count_h, count_v = draw(lenses), draw(lenses)
    mla = px.load_fixture(draw(st.sampled_from(["f193_mla1_inf", "f193_mla2_inf"]))).mla
    if draw(st.booleans()):
        mla = px.MicroLensSpec(mla.focal_length_mm, mla.pitch_mm, count_h, count_v)
    else:
        mla = dataclasses.replace(mla, count_h=count_h, count_v=count_v)
    lens = draw(st.sampled_from(["f193_mla2_inf", "f197_mla2_inf", "f90_mla2_inf"]))
    config = px.CameraConfig(
        sensor=px.SensorSpec(pixel_pitch_mm=0.009 * 13 / m, micro_image_px=m),
        mla=mla,
        main_lens=px.load_fixture(lens).main_lens,
        focus=draw(st.one_of(st.just(math.inf), st.floats(1500.0, 5000.0))),
    )
    d1 = draw(st.floats(0.3, 1.2)) * draw(st.sampled_from([-1.0, 1.0]))
    depth_mm = px.simulate_distance(config, 1, d1)
    assume(0 < depth_mm < math.inf)  # in front of the camera
    c, reach = config.sensor.half_span, int(MOST_PX / abs(d1))
    gap = draw(st.integers(1, min(2 * c - 1, reach)))
    first = draw(st.integers(-c, c - gap).filter(lambda i: i != -(gap // 2)))
    wide = draw(st.integers(2, min(2 * c, reach)))
    pairs = [(0, 1), (first, gap), (-(wide // 2), wide)]
    return config, depth_mm, draw(st.booleans()), pairs


class TestGeneratedRigPipeline:
    @settings(max_examples=100, deadline=None)
    @given(case=pipeline_cases())
    def test_matched_disparity_follows_the_model(self, tile_dir, case):
        config, depth_mm, rotate, pairs = case
        array = px.build_virtual_camera_array(px.derive_focus_state(config), config)
        want = {gap: px.disparity_for_distance(array, gap, depth_mm) for _, gap in pairs}
        plane = px.ScenePlane(
            depth_mm=depth_mm,
            texture="file",
            # One view pixel spans p_n * Z at the plane: every i = 0 ray
            # passes through the pupil's centre.
            argument_mm=array.virtual_pixel_pitch_mm * depth_mm * TILE_SPAN_VIEW_PX / TILE_PX,
            path="tile.pgm",
        )
        raw = px.render_synthetic_scene(config, [plane], base_dir=tile_dir)
        if rotate:  # a capture projected upside down
            raw = px.RawLightFieldImage(samples=raw.samples[::-1, ::-1], config=config)
        views = px.decode(raw)
        params = px.MatchParams(block_size=BLOCK, max_disparity=MAXD)
        for first, gap in pairs:
            # Rotated, view (i, g) is (-i, -g) read backwards: the pair
            # (first, first + gap) is (-first - gap, -first) mirrored, a pair
            # of the same gap, with the same disparity.
            left = px.extract_view(views, first, 0).pixels
            right = px.extract_view(views, first + gap, 0).pixels
            got = np.nanmedian(px.block_match(left, right, params).values)
            assert got == pytest.approx(want[gap], abs=BOUND_PX), (first, gap)

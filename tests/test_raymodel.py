"""Chief ray geometry, virtual camera placement, and triangulation."""

import dataclasses
import math

import numpy as np
import pytest

import plenax as px


def _lens_and_slope(f197, j, i):
    """Lenslet height s_j and image-side slope m of sample (j, i).

    With the image distance set to zero the object ray's intercept is s_j,
    exactly; adding the main lens's power back to its slope gives m.
    """
    state = dataclasses.replace(f197.state, b_u_mm=0.0)
    ray = px.object_ray(j, i, state, f197.config)
    s_j = ray.intercept_mm
    return s_j, ray.slope + s_j / f197.config.main_lens.focal_length_mm


def _sample(f197, j, i):
    """Sensor position u of sample (j, i), one lenslet focal length behind s_j."""
    s_j, m = _lens_and_slope(f197, j, i)
    return s_j - m * f197.config.mla.focal_length_mm


class TestChiefRayChain:
    def test_micro_lens_height_is_centred(self, f197):
        assert _lens_and_slope(f197, 140, 0)[0] == 0.0
        assert _lens_and_slope(f197, 141, 0)[0] == 0.125
        assert _lens_and_slope(f197, 139, 0)[0] == -0.125

    def test_mic_position_magnifies_lens_height(self, f197):
        # The centre ray from the exit pupil continues past the lens by the
        # focal length, scaling the lens height by (f_s/d_ap + 1).
        assert _sample(f197, 141, 0) == pytest.approx(0.12842039800995025, abs=1e-15)
        assert _sample(f197, 140, 0) == 0.0

    def test_micro_image_sample_offsets_by_pixels(self, f197):
        mic = _sample(f197, 141, 0)
        assert _sample(f197, 141, 3) == pytest.approx(mic + 3 * 0.009, abs=1e-15)

    def test_chief_slope_spans_pupil_to_lens(self, f197):
        # Sensor-side chief ray: from the pupil centre down to the lens. The
        # micro image centre under lens 139 mirrors the one under lens 141.
        slope = _lens_and_slope(f197, 139, 0)[1]
        assert slope == pytest.approx((-0.125 + 0.12842039800995025) / 2.75, rel=1e-12)

    @pytest.mark.parametrize(
        "j, i, slope, intercept",
        [
            (141, 3, "-0.0006341109054900807", "-2.0556049259158753"),
            (0, -6, "0.08877552676861142", "20.69633821004063"),
            (280, 6, "-0.08877552676861142", "-20.69633821004063"),
        ],
        ids=["lens141-offset3", "lens0-offset-6", "lens280-offset6"],
    )
    def test_object_ray_pins(self, f197, j, i, slope, intercept):
        # The chain from lens height to refraction, bit for bit.
        ray = px.object_ray(j, i, f197.state, f197.config)
        assert (repr(ray.slope), repr(ray.intercept_mm)) == (slope, intercept)

    @pytest.mark.parametrize(
        "j, i, message",
        [
            (-1, 0, r"micro lens index -1 outside \[0, 281\)"),
            (281, 0, r"micro lens index 281 outside \[0, 281\)"),
            (140, 7, r"viewpoint offset 7 outside \[-6, 6\]"),
        ],
        ids=["lens-1", "lens281", "offset7"],
    )
    def test_indices_outside_the_rig_rejected(self, f197, j, i, message):
        with pytest.raises(ValueError, match=message):
            px.object_ray(j, i, f197.state, f197.config)

    def test_object_ray_reference_plane(self, f197):
        ray = px.object_ray(141, 2, f197.state, f197.config)
        assert ray.height_at(0.0) == ray.intercept_mm

    def test_central_ray_at_infinity_is_axial(self, f197):
        # Focused at infinity the central viewpoint's central ray leaves the
        # lens parallel to the axis with zero height, exactly in floats.
        ray = px.object_ray(140, 0, f197.state, f197.config)
        assert ray.slope == 0.0
        assert ray.intercept_mm == 0.0


class TestEntrancePupil:
    EXPECTED = {
        "f193_mla2_inf": -143.20627071782653,
        "f90_mla2_inf": -5.6117911658627015,
        "f197_mla2_inf": -189.52850126328357,
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_position_pins(self, configs, states, name):
        z_a = px.entrance_pupil_distance(states[name], configs[name])
        assert z_a == pytest.approx(self.EXPECTED[name], abs=1e-9)

    @pytest.mark.parametrize("base", ["f193_mla2", "f90_mla2"])
    def test_focus_invariant(self, configs, states, base):
        values = [
            px.entrance_pupil_distance(states[f"{base}_{focus}"], configs[f"{base}_{focus}"])
            for focus in ("inf", "3m", "1p5m")
        ]
        assert max(values) - min(values) < 1e-9

    def test_front_vertex_composition(self, configs, states):
        config = configs["f193_mla2_inf"]
        z_a = px.entrance_pupil_distance(states["f193_mla2_inf"], config)
        v1 = config.main_lens.front_vertex_to_h1_mm + z_a
        assert v1 == pytest.approx(240.2113, abs=1e-6)


class TestVirtualCameraArray:
    def test_central_camera_on_axis(self, f197):
        assert f197.array.position(0) == 0.0
        assert f197.array.tilt(0) == 0.0

    def test_position_pin_at_infinity(self, f197):
        # At infinity focus the offset per viewpoint collapses to
        # -p_p * f_u / f_s, independent of the pupil distances.
        expected = -0.009 * 197.1264 / 2.75
        assert f197.array.position(1) == pytest.approx(expected, abs=1e-12)
        assert f197.array.position(1) == pytest.approx(-0.6451409454545454, abs=1e-12)

    def test_tilts_are_antisymmetric(self, configs, states):
        config = configs["f193_mla2_3m"]
        array = px.build_virtual_camera_array(states["f193_mla2_3m"], config)
        c = config.sensor.half_span
        for i in range(1, c + 1):
            assert array.tilt(-i) == -array.tilt(i)

    def test_positions_equally_spaced(self, configs, states):
        for name in ("f193_mla2_3m", "f90_mla2_1p5m", "f197_mla2_inf"):
            array = px.build_virtual_camera_array(states[name], configs[name])
            steps = np.diff(array.positions_mm)
            assert np.all(np.abs(steps - steps[0]) <= 1e-12 * abs(steps[0]))

    def test_half_span_bounds_index(self, f197):
        with pytest.raises(ValueError):
            f197.array.position(7)
        with pytest.raises(ValueError):
            f197.array.tilt(-7)


class TestTriangulation:
    def test_query_validation(self, f197):
        with pytest.raises(ValueError):
            px.TriangulationQuery(gap=0, disparity_px=1.0)
        with pytest.raises(ValueError):
            px.triangulate(f197.array, px.TriangulationQuery(gap=13, disparity_px=1.0))

    def test_reference_distance(self, f197):
        z = px.triangulate(f197.array, px.TriangulationQuery(gap=4, disparity_px=2.0))
        assert z == pytest.approx(2034.788993120814, abs=1e-9)

    def test_zero_disparity_at_infinity_focus(self, f197):
        z = px.triangulate(f197.array, px.TriangulationQuery(gap=4, disparity_px=0.0))
        assert math.isinf(z) and z > 0

    def test_zero_disparity_lands_on_focused_plane(self, configs, states):
        # The zero-disparity surface coincides with the plane the main lens
        # is focused on, measured from the object-side principal plane. The
        # adjacent pair is exact; wider pairs inherit the small dependence of
        # the pinhole tilt on the pair anchor, so they get a looser bound.
        for name in ("f193_mla2_3m", "f90_mla2_1p5m", "f193_mla1_3m"):
            config, state = configs[name], states[name]
            array = px.build_virtual_camera_array(state, config)
            z_a = px.entrance_pupil_distance(state, config)
            z0 = px.triangulate(array, px.TriangulationQuery(gap=1, disparity_px=0.0))
            assert z0 + z_a == pytest.approx(state.a_u_mm, rel=1e-12)
            z0_wide = px.triangulate(array, px.TriangulationQuery(gap=6, disparity_px=0.0))
            assert z0_wide + z_a == pytest.approx(state.a_u_mm, rel=1e-5)

    def test_baseline_independent_of_anchor(self, f197):
        array = f197.array
        baselines = {abs(array.position(i + 4) - array.position(i)) for i in range(-6, 3)}
        assert max(baselines) - min(baselines) <= 1e-12

    def test_round_trips(self, configs, states):
        config, state = configs["f193_mla1_1p5m"], states["f193_mla1_1p5m"]
        array = px.build_virtual_camera_array(state, config)
        for gap, z in ((1, 700.0), (3, 2500.0), (6, 12000.0)):
            dx = px.disparity_for_distance(array, gap, z)
            back = px.triangulate(array, px.TriangulationQuery(gap, dx))
            assert back == pytest.approx(z, rel=1e-9)
            query = px.TriangulationQuery(gap, dx)
            b = px.measure_baseline(query, z, array)
            assert b == pytest.approx(array.pair(gap).baseline_mm, rel=1e-9)
            phi = px.measure_tilt(query, z, b, array)
            assert phi == pytest.approx(array.pair(gap).tilt_rad, abs=1e-9)


class TestStereoRig:
    def test_depth_from_disparity(self):
        rig = px.StereoRig(baseline_mm=5000.0)
        # Similar triangles at unit image distance: Z = B / disparity.
        assert px.stereo_depth(rig, 5.0) == pytest.approx(1000.0, rel=1e-12)

    def test_parallel_rig_zero_disparity_is_infinite(self):
        rig = px.StereoRig(baseline_mm=5000.0)
        assert math.isinf(px.stereo_depth(rig, 0.0))

    def test_converged_rig(self):
        # Matches the plenoptic pair: tilt shifts the zero-disparity plane in
        # to B / tan(phi).
        rig = px.StereoRig(
            baseline_mm=0.7124741166898071,
            tilt_rad=math.atan(0.00023737670735555832),
        )
        assert px.stereo_depth(rig, 0.0) == pytest.approx(3001.4491507063362, abs=1e-6)

    def test_array_disparities(self):
        rig = px.StereoRig(baseline_mm=5000.0)
        dx = np.array([[5.0, 0.0], [np.nan, np.inf], [-np.inf, -5.0]])
        depth = px.stereo_depth(rig, dx)
        assert depth.shape == dx.shape
        assert depth[0, 0] == px.stereo_depth(rig, 5.0) == 1000.0
        assert depth[0, 1] == np.inf
        assert np.isnan(depth[1:, 0]).all() and np.isnan(depth[1, 1])
        assert depth[2, 1] == -1000.0
        assert math.isnan(px.stereo_depth(rig, math.inf))
        assert type(px.stereo_depth(rig, 5.0)) is float

    def test_subnormal_disparity_overflows_to_infinity(self):
        # B / dx overflows: the rays are parallel to within float range.
        rig = px.StereoRig(baseline_mm=5000.0)
        assert px.stereo_depth(rig, 2.225073858507203e-309) == math.inf
        assert px.stereo_depth(rig, np.array([-1e-310])).tolist() == [-math.inf]


def _previous_triangulate(array, gap, dx):
    """triangulate as written before it called stereo_depth: the bit reference.

    It carried a virtual image distance b_n, always 1.0 in use.
    """
    i_low = -(gap // 2)
    b = abs(array.position(i_low + gap) - array.position(i_low))
    phi = abs(array.tilt(i_low + gap) - array.tilt(i_low))
    b_n = 1.0
    denominator = dx * array.virtual_pixel_pitch_mm + b_n * math.tan(phi)
    if denominator == 0:
        return math.inf
    return b_n * b / denominator


def _previous_depth_map(array, gap, values):
    """The depth command's map before it called stereo_depth."""
    i_low = -(gap // 2)
    b = abs(array.position(i_low + gap) - array.position(i_low))
    phi = abs(array.tilt(i_low + gap) - array.tilt(i_low))
    b_n = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        denominator = values * array.virtual_pixel_pitch_mm + b_n * math.tan(phi)
        depth = np.where(denominator != 0, b_n * b / denominator, np.inf)
    depth[~np.isfinite(values)] = np.nan
    return depth


class TestPair:
    def test_centred_pair(self, configs, states):
        config, state = configs["f193_mla1_1p5m"], states["f193_mla1_1p5m"]
        array = px.build_virtual_camera_array(state, config)
        for gap in range(1, 13):
            rig = array.pair(gap)
            i = -(gap // 2)
            assert rig.baseline_mm == abs(array.position(i + gap) - array.position(i))
            assert rig.tilt_rad == abs(array.tilt(i + gap) - array.tilt(i))

    @pytest.mark.parametrize("gap", [0, -1, 13])
    def test_gap_outside_span_rejected(self, f197, gap):
        with pytest.raises(ValueError, match=rf"\[1, 12\].*got {gap}"):
            f197.array.pair(gap)

    @pytest.mark.parametrize("gap", [1.5, 2.0, "2"])
    def test_non_integer_gap_rejected(self, f197, gap):
        # 1.5 used to fail as a bare "tuple indices must be integers".
        with pytest.raises(ValueError, match=rf"gap must be an integer, got {gap!r}"):
            f197.array.pair(gap)

    def test_numpy_integer_gap_accepted(self, f197):
        assert f197.array.pair(np.int64(4)) == f197.array.pair(4)

    def test_kernel_keeps_the_bits(self, configs, states):
        # triangulate and the depth map both reduce to stereo_depth on
        # array.pair(gap): the same operations in the same order, less the
        # multiplications by b_n = 1.0, which are exact.
        values = np.array([-2.75, -1.0, 0.0, 0.5, 1.0, 2.0, 3.3, 16.0, np.nan, np.inf])
        for name, config in configs.items():
            array = px.build_virtual_camera_array(states[name], config)
            for gap in range(1, 2 * array.half_span + 1):
                for dx in values[:-2]:
                    got = px.triangulate(array, px.TriangulationQuery(gap, float(dx)))
                    assert repr(got) == repr(_previous_triangulate(array, gap, float(dx)))
                rig = array.pair(gap)
                got_map = px.stereo_depth(rig, values * array.virtual_pixel_pitch_mm)
                assert got_map.tobytes() == _previous_depth_map(array, gap, values).tobytes()

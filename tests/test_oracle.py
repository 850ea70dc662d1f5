"""Surface-by-surface ray trace checks and the synthetic scene renderer."""

import math
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import plenax as px
from plenax import oracle
from plenax.cli import main
from plenax.optics import _thick_lens
from plenax.oracle import (
    _chief_rays,
    _intersect,
    _quantize,
    _texture_sampler,
    _through_lenslet,
)


def _thin(focal_length_mm):
    return px.MicroLensSpec(focal_length_mm, pitch_mm=0.125, count_h=3, count_v=3).lens


class TestTraceElements:
    def test_refraction_bends_about_surface_centre(self):
        h, u = _through_lenslet(2.0, 0.0, _thin(2.0))
        assert h == 2.0
        assert u == -1.0
        _, shifted = _through_lenslet(2.0, 0.0, _thin(2.0), center_mm=2.0)
        assert shifted == 0.0

    def test_arrays_broadcast(self):
        heights = np.array([0.0, 1.0, 2.0])
        _, u = _through_lenslet(heights, 0.0, _thin(2.0))
        assert np.allclose(u, [0.0, -0.5, -1.0])


class TestLensletElements:
    def test_thick_prescription_focuses_at_derived_length(self):
        mla = px.MicroLensSpec(
            focal_length_mm=1.25,
            pitch_mm=0.125,
            count_h=3,
            count_v=3,
            thickness_mm=1.1,
            refractive_index=1.5626,
            radius_front_mm=0.70325,
            radius_back_mm=-math.inf,
        )
        h, u = _through_lenslet(0.01, 0.0, mla.lens)
        crossing = -h / u
        # A parallel ray must cross the axis one focal length behind the
        # image-side principal plane; for a flat back that plane sits t/n
        # inside the glass.
        assert crossing + 1.1 / 1.5626 == pytest.approx(mla.lens.focal_length, rel=1e-12)

    def test_thin_fallback_matches_focal_length(self):
        h, u = _through_lenslet(0.01, 0.0, _thin(2.75))
        assert -h / u == pytest.approx(2.75, rel=1e-12)

    def test_decentred_lenslet_leaves_central_ray_straight(self):
        _, u = _through_lenslet(0.5, 0.0, _thin(2.75), center_mm=0.5)
        assert u == 0.0


def _prescribed_fixtures():
    return [n for n in px.fixture_names() if "t_mm" in px.fixture_path(n).read_text()]


@st.composite
def curved_back_configs(draw):
    """A prescribed fixture's text with a generated lenslet in place of its
    own: a finite back radius of either sign, and no f_s_mm."""
    text = px.fixture_path(draw(st.sampled_from(_prescribed_fixtures()))).read_text()
    prescription = {
        "t_mm": draw(st.floats(0.2, 2.0)),
        "n": draw(st.floats(1.4, 1.9)),
        "r1_mm": draw(st.floats(0.5, 4.0)),
        "r2_mm": draw(st.floats(1.0, 20.0)) * draw(st.sampled_from([-1.0, 1.0])),
    }
    try:
        f = _thick_lens(*prescription.values()).focal_length
    except ValueError:
        # Zero net power, e.g. t = n = r1 with r2 = 1: no focal length.
        reject()
    assume(0.5 <= f <= 6.0)
    text = re.sub(r"^f_s_mm = .*\n", "", text, flags=re.M)
    for key, value in prescription.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value!r}", text, flags=re.M)
    return text


class TestCurvedBackLenslets:
    # Every shipped lenslet is plano-convex, so the thick-lens cross term
    # front * back * t / n is zero on all of them; these are not.
    @settings(max_examples=40, deadline=None)
    @given(curved_back_configs())
    def test_trace_focuses_and_agrees(self, text):
        config = px.parse_config(text)
        mla = config.mla
        assert math.isfinite(mla.radius_back_mm) and "f_s_mm" not in text
        h, u = _through_lenslet(0.01, 0.0, mla.lens)
        # A parallel ray crosses the axis one focal length behind the
        # image-side principal plane, which sits h2 behind the back vertex.
        crossing = -h / u
        assert crossing - mla.lens.h2_from_back == pytest.approx(mla.focal_length_mm, rel=1e-12)
        outcomes = px.run_consistency_checks(config)
        assert all(o.passed for o in outcomes), [o for o in outcomes if not o.passed]

    @settings(max_examples=40, deadline=None)
    @given(curved_back_configs())
    def test_trace_toward_scene_focuses_in_front(self, text):
        lens = px.parse_config(text).mla.lens
        h, u = _through_lenslet(0.01, 0.0, lens, toward_scene=True)
        # Entering from the sensor side, a parallel ray leaves the front
        # vertex and crosses the axis one focal length in front of the
        # object-side principal plane, which sits h1 behind the front vertex.
        assert -h / u + lens.h1_from_front == pytest.approx(lens.focal_length, rel=1e-12)


def _loop_simulate_virtual_cameras(config):
    """simulate_virtual_cameras as it was: one chief-ray trace per viewpoint."""
    c = config.sensor.half_span
    count = config.mla.count_h
    apart = count // 2
    j = np.arange(count)
    positions = []
    tilts = []
    spread = 0.0
    z_all = []
    for i in range(-c, c + 1):
        q, u = _chief_rays(i, j, config)
        z, x = _intersect(q[:-apart], u[:-apart], q[apart:], u[apart:])
        x_mean = x.mean()
        spread = max(spread, np.abs(x - x_mean).max())
        z_all.append(z)
        positions.append(float(x_mean))
        tilts.append(float(np.arctan(q[(count - 1) // 2])))
    z_all = np.concatenate(z_all)
    z_mean = z_all.mean()
    spread = max(spread, np.abs(z_all - z_mean).max())
    return px.VirtualCameraSimulation(
        entrance_pupil_to_h1_mm=float(z_mean),
        positions_mm=tuple(positions),
        tilt_angles_rad=tuple(tilts),
        intersection_spread_mm=float(spread),
    )


class TestVirtualCameraSimulation:
    def test_broadcast_trace_equals_per_viewpoint_loop(self, configs):
        for name, config in configs.items():
            got = px.simulate_virtual_cameras(config)
            assert got == _loop_simulate_virtual_cameras(config), name

    def test_matches_closed_form(self, configs, states):
        name = "f193_mla2_3m"
        config, state = configs[name], states[name]
        sim = px.simulate_virtual_cameras(config)
        array = px.build_virtual_camera_array(state, config)
        z_a = px.entrance_pupil_distance(state, config)
        assert sim.intersection_spread_mm < 1e-9
        assert sim.entrance_pupil_to_h1_mm == pytest.approx(z_a, abs=1e-9)
        for i in range(-6, 7):
            assert sim.positions_mm[i + 6] == pytest.approx(
                array.position(i), abs=1e-9
            )
            assert sim.tilt_angles_rad[i + 6] == pytest.approx(
                array.tilt(i), abs=1e-12
            )

    def test_zero_disparity_intersection_is_exact(self, configs, states):
        # Same-lens rays from two viewpoints cross exactly on the focused
        # plane; the trace reproduces that without the pinhole approximation.
        for name in ("f193_mla2_3m", "f90_mla2_1p5m"):
            config, state = configs[name], states[name]
            z_a = px.entrance_pupil_distance(state, config)
            for gap in (1, 3, 6):
                z = px.simulate_distance(config, gap, 0.0)
                assert z + z_a == pytest.approx(state.a_u_mm, rel=1e-9)


@st.composite
def valid_rigs(draw):
    """Thin-lenslet rigs with odd M of 3-15, odd count_h of 51-401,
    f_s of 0.02-3 mm, f_u of 20-300 mm, focused at infinity or finitely."""
    m = 2 * draw(st.integers(1, 7)) + 1
    count = 2 * draw(st.integers(25, 200)) + 1
    f_s = draw(st.floats(0.02, 3.0))
    f_u = draw(st.floats(20.0, 300.0))
    pixel = draw(st.floats(0.001, 0.01))
    pitch = m * pixel * draw(st.floats(1.0, 1.1))
    h1h2 = f_u * draw(st.floats(-0.5, 0.8))
    # Finite focus runs from just beyond the nearest, 4 f_u + h1h2, outward.
    reach = draw(st.one_of(st.just(math.inf), st.floats(1.001, 30.0)))
    return px.CameraConfig(
        sensor=px.SensorSpec(pixel, m),
        mla=px.MicroLensSpec(f_s, pitch, count, 1),
        main_lens=px.MainLensSpec(f_u, f_u * draw(st.floats(0.5, 1.5)), h1h2),
        focus=reach * (4.0 * f_u + h1h2),
    )


def _rounding_spread(config, sim):
    """Crossing spread that rounding each traced line to float64 can cause.

    A line's height at the main lens sums the lenslet position and the
    traced offset from it, and its slope is rounded too. Each error of an
    ulp moves a crossing by itself over the smallest slope difference of
    the pairs crossed.
    """
    c = config.sensor.half_span
    count = config.mla.count_h
    q, u = _chief_rays(np.arange(-c, c + 1)[:, None], np.arange(count)[None, :], config)
    apart = count // 2
    dq = np.abs(q[:, :-apart] - q[:, apart:]).min()
    heights = np.abs(u).max() + count * config.mla.pitch_mm / 2
    z = abs(sim.entrance_pupil_to_h1_mm)
    return np.finfo(float).eps * (heights + z * np.abs(q).max()) / dq


class TestFloat64Agreement:
    def test_fixture_spread_far_below_the_bound(self, configs):
        for name, config in configs.items():
            sim = px.simulate_virtual_cameras(config)
            assert sim.intersection_spread_mm <= 1e-10, name

    @settings(max_examples=60, deadline=None)
    @given(valid_rigs())
    def test_generated_rigs_agree(self, config):
        outcomes = px.run_consistency_checks(config)
        assert all(o.passed for o in outcomes), [o for o in outcomes if not o.passed]
        sim = px.simulate_virtual_cameras(config)
        # Within a few ulps of the lines themselves: the trace loses no
        # precision of its own, wherever the lenslet sits.
        assert sim.intersection_spread_mm <= 16 * _rounding_spread(config, sim)

    def test_spread_check_catches_one_displaced_ray(self, configs, monkeypatch):
        trace = oracle._chief_rays

        def displaced(i, j, config):
            q, u = trace(i, j, config)
            u = np.array(u)
            u.flat[u.size // 3] += 2e-9  # mm, twice the bound
            return q, u

        monkeypatch.setattr(oracle, "_chief_rays", displaced)
        for name, config in configs.items():
            failed = [o.label for o in px.run_consistency_checks(config) if not o.passed]
            assert "ray intersection spread" in failed, name


class TestSimulateDistance:
    def test_reference_distances(self, configs):
        z = px.simulate_distance(configs["f193_mla2_inf"], 1, 2.0)
        assert z == pytest.approx(489.1075, abs=0.05)
        z = px.simulate_distance(configs["f90_mla2_1p5m"], 1, 2.0)
        assert z == pytest.approx(113.2965, abs=0.01)

    def test_parallel_rays_give_infinity(self, configs):
        z = px.simulate_distance(configs["f197_mla2_inf"], 2, 0.0)
        assert math.isinf(z) and z > 0

    def test_gap_validation(self, configs):
        with pytest.raises(ValueError):
            px.simulate_distance(configs["f197_mla2_inf"], 0, 1.0)
        with pytest.raises(ValueError):
            px.simulate_distance(configs["f197_mla2_inf"], 13, 1.0)

    @pytest.mark.parametrize("gap", [1.5, 2.0, "2"])
    def test_non_integer_gap_rejected(self, configs, gap):
        # 1.5 used to trace a fractional viewpoint and return 1148.84 mm.
        with pytest.raises(ValueError, match=rf"gap must be an integer >= 1, got {gap!r}"):
            px.simulate_distance(configs["f193_mla2_3m"], gap, 1.0)

    def test_numpy_integer_gap_accepted(self, configs):
        config = configs["f193_mla2_3m"]
        assert px.simulate_distance(config, np.int64(3), 1.0) == px.simulate_distance(
            config, 3, 1.0
        )


class TestGeneratedRigTriangulation:
    @settings(max_examples=200, deadline=None)
    @given(valid_rigs(), st.floats(-5.0, 5.0))
    def test_gap_one_distance_matches_trace(self, config, dx):
        # Exact at gap 1, where one of the pair's axes is the main axis.
        state = px.derive_focus_state(config)
        array = px.build_virtual_camera_array(state, config)
        z = px.triangulate(array, px.TriangulationQuery(1, dx))
        # Past 1e5 baselines the rays are so near parallel that rounding in
        # either route, not the model, sets the difference.
        assume(abs(z) <= 1e5 * array.pair(1).baseline_mm)
        traced = px.simulate_distance(config, 1, dx)
        assert abs(z - traced) <= 1e-9 * max(1.0, abs(z), abs(traced)), (z, traced)

    @settings(max_examples=200, deadline=None)
    @given(valid_rigs(), st.floats(10.0, 1e5), st.data())
    def test_inverse_relations_round_trip(self, config, z, data):
        array = px.build_virtual_camera_array(px.derive_focus_state(config), config)
        gap = data.draw(st.integers(1, 2 * array.half_span), label="gap")
        rig = array.pair(gap)
        query = px.TriangulationQuery(gap, px.disparity_for_distance(array, gap, z))
        assert px.triangulate(array, query) == pytest.approx(z, rel=1e-9)
        baseline = px.measure_baseline(query, z, array)
        assert baseline == pytest.approx(rig.baseline_mm, rel=1e-9)
        # measure_tilt is an arctangent, so it gives the tilt modulo a half
        # turn: generated rigs reach tilts past pi/2 at wide gaps.
        phi = px.measure_tilt(query, z, baseline, array)
        assert abs(math.remainder(phi - rig.tilt_rad, math.pi)) <= 1e-9, (phi, rig.tilt_rad)


_TOKEN = st.text(string.ascii_letters + string.digits + "._-+/", min_size=1, max_size=8)


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


@st.composite
def scene_lines(draw):
    """One scene line as (text, what parse_scene must make of it).

    The second item is the ScenePlane a valid line describes, "skip" for a
    blank or comment line, and None for a line that must be rejected.
    """
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["", "   ", "# note", "  # plane 5 checker 1"])), "skip"
    depth = draw(st.floats(1e-3, 1e6))
    scale = draw(st.floats(1e-6, 1e3))
    kind = draw(st.sampled_from(["checker", "file"]))
    path = draw(_TOKEN) if kind == "file" else None
    band = None
    if draw(st.booleans()):
        band = tuple(sorted(draw(st.sets(st.floats(-1e4, 1e4), min_size=2, max_size=2))))
    tokens = ["plane", repr(depth), kind] + ([path] if path else []) + [repr(scale)]
    scale_at = len(tokens) - 1
    if band:
        tokens += ["band", repr(band[0]), repr(band[1])]
    numbers = [1, scale_at] + ([len(tokens) - 2, len(tokens) - 1] if band else [])
    fault = draw(st.sampled_from([
        None, None, None, "keyword", "truncated", "not_a_number", "non_positive",
        "non_finite", "kind", "trailing", "empty_band",
    ]))
    if fault == "keyword":
        tokens[0] = draw(_TOKEN.filter(lambda t: t != "plane"))
    elif fault == "truncated":
        tokens = tokens[: draw(st.integers(1, scale_at))]
    elif fault == "not_a_number":
        tokens[draw(st.sampled_from(numbers))] = draw(_TOKEN.filter(lambda t: not _is_number(t)))
    elif fault == "non_positive":
        value = draw(st.floats(max_value=0.0, allow_infinity=False))
        tokens[draw(st.sampled_from([1, scale_at]))] = repr(value)
    elif fault == "non_finite":
        value = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
        tokens[draw(st.sampled_from([1, scale_at]))] = value
    elif fault == "kind":
        tokens[2] = draw(_TOKEN.filter(lambda t: t not in ("checker", "file")))
    elif fault == "trailing":
        word = draw(_TOKEN.filter(lambda t: t != "band"))
        tokens += draw(st.sampled_from([
            [word], ["band", "1"], ["band", "1", "2", "3"], [word, "1", "2"],
        ]))
    elif fault == "empty_band":
        edge = draw(st.floats(-1e4, 1e4))
        tokens = tokens[: scale_at + 1] + ["band", repr(edge), repr(edge - draw(st.floats(0, 10)))]
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    text = draw(st.sampled_from(["", " "])) + sep.join(tokens)
    if fault is not None:
        return text, None
    return text, px.ScenePlane(
        depth_mm=depth, texture=kind, argument_mm=scale, path=path, band=band
    )


class TestSceneParsing:
    def test_checker_and_file_planes(self):
        planes = px.parse_scene(
            "# a scene\n"
            "plane 2000.0 checker 8.5\n"
            "plane 900.0 file tex.pgm 0.25 band -10.0 35.0\n"
        )
        assert len(planes) == 2
        assert planes[0].texture == "checker"
        assert planes[0].argument_mm == 8.5
        assert planes[1].path == "tex.pgm"
        assert planes[1].band == (-10.0, 35.0)

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            px.parse_scene("# only comments\n")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            px.parse_scene("plane 100 checker 4\nplane nope checker 4\n")
        with pytest.raises(ValueError, match="line 1"):
            px.parse_scene("plane 100 marble 4\n")

    @settings(max_examples=400, deadline=None)
    @given(
        lines=st.lists(scene_lines(), min_size=1, max_size=6),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_lines_parse_exactly_or_are_named(self, lines, newline):
        text = newline.join(line for line, _ in lines)
        bad = [n for n, (_, want) in enumerate(lines, start=1) if want is None]
        planes = tuple(want for _, want in lines if isinstance(want, px.ScenePlane))
        if bad:
            with pytest.raises(ValueError, match=rf"^scene line {bad[0]}: "):
                px.parse_scene(text)
        elif planes:
            assert px.parse_scene(text) == planes
        else:
            with pytest.raises(ValueError, match="^scene describes no planes$"):
                px.parse_scene(text)

    def test_plane_validation(self):
        with pytest.raises(ValueError):
            px.ScenePlane(depth_mm=-5.0, texture="checker", argument_mm=1.0)
        with pytest.raises(ValueError):
            px.ScenePlane(depth_mm=math.inf, texture="checker", argument_mm=1.0)
        with pytest.raises(ValueError):
            px.ScenePlane(depth_mm=100.0, texture="checker", argument_mm=0.0)
        with pytest.raises(ValueError):
            px.ScenePlane(depth_mm=100.0, texture="checker", argument_mm=1.0, band=(5.0, -5.0))


class TestRenderer:
    def test_frontal_plane_has_uniform_disparity(self, checker_lightfield, f197):
        # Geometry check on the mosaic itself: between views two steps apart,
        # the lit pattern shifts by a whole number of lenslets, so matching
        # with no subpixel step must recover one constant everywhere.
        left = px.extract_view(checker_lightfield, -2, 0).pixels.astype(float)
        right = px.extract_view(checker_lightfield, 2, 0).pixels.astype(float)
        d = px.block_match(
            left, right, px.MatchParams(block_size=29, max_disparity=5, subpixel=False)
        ).values
        v = d[np.isfinite(d)]
        assert (v == 2.0).mean() > 0.95

    def test_nearer_plane_occludes(self, f197, tmp_path):
        # Far plane bright everywhere, near plane dark over a band on the
        # right half: band columns must show the near plane.
        far = px.ScenePlane(depth_mm=3000.0, texture="checker", argument_mm=1e9)
        near = px.ScenePlane(
            depth_mm=1000.0, texture="checker", argument_mm=1e9, band=(20.0, 1e9)
        )
        raw = px.render_synthetic_scene(f197.config, [far, near], background=0.5)
        # A plane with a huge checker period is a constant field: floor(x/p)
        # is 0 on one side of the origin and -1 on the other.
        assert raw.samples.shape == (188 * 13, 281 * 13)
        left_edge = raw.samples[:, :100]
        right_edge = raw.samples[:, -100:]
        assert not np.array_equal(left_edge, right_edge)

    def test_background_fills_uncovered_columns(self, f197):
        near_only = px.ScenePlane(
            depth_mm=1000.0, texture="checker", argument_mm=50.0, band=(0.0, 30.0)
        )
        raw = px.render_synthetic_scene(f197.config, [near_only], background=0.25)
        assert (raw.samples == np.rint(0.25 * 65535)).any()

    def test_traced_allocation_peak(self, f197, tmp_path):
        # Quantizing the texture tables before the column gather, one row
        # block at a time, leaves the 17.9 MB integer raw as the only
        # frame-sized allocation. Gathering a float frame first peaked at
        # 93.9 MB on this scene, whole-frame tables at 25.0 MB; now 22.5 MB.
        planes = _two_plane_scene(tmp_path)
        tracemalloc.start()
        try:
            raw = px.render_synthetic_scene(f197.config, planes, base_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raw.samples.dtype == np.uint16
        assert peak < 23e6

    def test_cli_render_streams_the_library_raw(self, f197, tmp_path):
        # `plenax render` writes each row block as it is made: 4.9 MB traced
        # on this scene, where holding the raw and frame-tall tables took
        # 21.6 MB. Its bytes are write_pgm's of the library's raw.
        planes = _two_plane_scene(tmp_path)
        scene = tmp_path / "scene.txt"
        scene.write_text(
            "plane 1500 checker 0.7 band -20 10\nplane 3000 file tile.pgm 0.1\n"
        )
        out = tmp_path / "raw.pgm"
        argv = ["render", str(px.fixture_path("f197_mla2_inf")), str(scene), str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        raw = px.render_synthetic_scene(f197.config, planes, base_dir=tmp_path)
        px.write_pgm(tmp_path / "want.pgm", raw.samples, maxval=65535)
        assert out.read_bytes() == (tmp_path / "want.pgm").read_bytes()

    def test_maxval_sets_integer_type_and_range(self, f197):
        plane = px.ScenePlane(depth_mm=1000.0, texture="checker", argument_mm=0.7)
        raw = px.render_synthetic_scene(f197.config, [plane], maxval=255)
        assert raw.samples.dtype == np.uint8
        assert set(np.unique(raw.samples)) == {0, 255}
        for maxval in (0, 65536):
            with pytest.raises(ValueError, match="maxval"):
                px.render_synthetic_scene(f197.config, [plane], maxval=maxval)

    def test_missing_texture_file_reports_path(self, f197, tmp_path):
        plane = px.ScenePlane(
            depth_mm=1000.0, texture="file", argument_mm=0.1, path="absent.pgm"
        )
        with pytest.raises((OSError, ValueError)):
            px.render_synthetic_scene(f197.config, [plane], base_dir=tmp_path)


def _two_plane_scene(directory):
    """A banded checker before a 512-texel tile, which is written to directory."""
    rng = np.random.default_rng(8)
    px.write_pgm(directory / "tile.pgm", rng.integers(0, 65536, size=(512, 512)), maxval=65535)
    return [
        px.ScenePlane(depth_mm=1500.0, texture="checker", argument_mm=0.7, band=(-20.0, 10.0)),
        px.ScenePlane(depth_mm=3000.0, texture="file", argument_mm=0.1, path="tile.pgm"),
    ]


class TestQuantize:
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_matches_round_of_clipped_scale(self, maxval):
        ties = (np.arange(maxval) + 0.5) / maxval
        edges = np.array([-np.inf, -1.0, -1e-9, -0.0, 0.0, 0.5, 1.0, 1.0 + 1e-9, 7.0, np.inf])
        samples = np.concatenate([ties, edges, np.linspace(-0.2, 1.2, 1001)])
        scaled = np.clip(samples, 0.0, 1.0) * maxval
        assert (scaled % 1.0 == 0.5).sum() > maxval // 2
        reference = np.round(scaled).astype(np.uint16 if maxval > 255 else np.uint8)
        got = _quantize(samples.copy(), maxval)
        assert got.dtype == reference.dtype
        assert np.array_equal(got, reference)


def dense_checker(x, y, period):
    """The outer-product checker the renderer sampled before it went separable."""
    cells = np.floor(x[None, :] / period) + np.floor(y[:, None] / period)
    return (cells % 2.0).astype(np.float64)


class TestTextureSamplers:
    @pytest.mark.parametrize("period", [0.37, 1.0, 2.5, 1e9])
    def test_checker_matches_dense_parity(self, period):
        # Negative coordinates, exact period multiples and their float
        # neighbours, where floor() changes cell.
        k = np.arange(-6.0, 7.0)
        edges = k * period
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-0.0, -period / 3, 0.4 * period - 5 * period],
        ])
        y = np.concatenate([edges[::-1], np.nextafter(edges, -np.inf), [-0.0, 1e-300]])
        plane = px.ScenePlane(depth_mm=1000.0, texture="checker", argument_mm=period)
        index, width, table_rows = _texture_sampler(plane, None)(x)
        table = table_rows(y)
        assert table.shape == (len(y), width)
        got = table[:, index]
        assert got.tobytes() == dense_checker(x, y, period).tobytes()

    def test_file_texture_matches_dense_lookup(self, tmp_path):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, size=(7, 11))
        px.write_pgm(tmp_path / "tile.pgm", image, maxval=255)
        scale = 0.3
        plane = px.ScenePlane(
            depth_mm=1000.0, texture="file", argument_mm=scale, path="tile.pgm"
        )
        x = np.linspace(-9.0, 9.0, 53)
        y = np.linspace(-4.0, 6.0, 29)
        index, width, table_rows = _texture_sampler(plane, tmp_path)(x)
        table = table_rows(y)
        assert table.shape == (len(y), width)
        col = np.floor(x / scale).astype(np.int64) % 11
        row = np.floor(y / scale).astype(np.int64) % 7
        dense = (image / 255.0)[row[:, None], col[None, :]]
        assert table.shape[1] <= 11
        assert table[:, index].tobytes() == dense.tobytes()

    def test_each_column_comes_from_its_nearest_plane(self, f197, tmp_path):
        rng = np.random.default_rng(6)
        px.write_pgm(tmp_path / "tile.pgm", rng.integers(0, 256, size=(64, 64)), maxval=255)
        far = px.ScenePlane(
            depth_mm=3000.0, texture="file", argument_mm=0.2, path="tile.pgm"
        )
        near = px.ScenePlane(depth_mm=1000.0, texture="checker", argument_mm=0.7)
        banded = px.ScenePlane(
            depth_mm=1000.0, texture="checker", argument_mm=0.7, band=(-10.0, 5.0)
        )

        def render(planes):
            return px.render_synthetic_scene(
                f197.config, planes, base_dir=tmp_path, background=0.5
            ).samples

        both = render([far, banded])
        from_near = (both == render([near])).all(axis=0)
        from_far = (both == render([far])).all(axis=0)
        assert (from_near | from_far).all()
        assert from_near.any() and from_far.any() and not from_near.all()

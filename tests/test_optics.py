"""Focus solver, pupil bookkeeping, and lenslet prescription reduction."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plenax as px
from plenax.optics import _thick_lens


def _fixed_point_image_distance(f, gap, d_f, tol=1e-9, max_iterations=1000):
    """The focus solve before the closed form: b = 1/(1/f - 1/(d_f - b - gap))."""
    if math.isinf(d_f):
        return f
    b = f
    for _ in range(max_iterations):
        b_next = 1.0 / (1.0 / f - 1.0 / (d_f - b - gap))
        if abs(b_next - b) < tol:
            return b_next
        b = b_next
    raise ValueError(f"no convergence within {max_iterations} steps")


class TestSolveImageDistance:
    def test_infinity_returns_focal_length_exactly(self):
        assert px.solve_image_distance(193.2935, -65.5563, math.inf) == 193.2935

    def test_finite_focus_pins(self):
        # Self-consistency fixed points of b = 1/(1/f - 1/(d_f - b - gap)).
        b = px.solve_image_distance(197.1264, 147.4618, 4000.0)
        assert b == pytest.approx(208.39958825403212, abs=1e-9)
        b = px.solve_image_distance(193.2935, -65.5563, 3000.0)
        assert b == pytest.approx(207.3134, abs=5e-4)

    def test_result_satisfies_thin_lens_relation(self):
        f, gap, d_f = 90.4036, -1.2273, 1500.0
        b = px.solve_image_distance(f, gap, d_f)
        a = d_f - b - gap
        assert 1.0 / b + 1.0 / a == pytest.approx(1.0 / f, rel=1e-12)

    def test_object_inside_focal_length_rejected(self):
        with pytest.raises(ValueError):
            px.solve_image_distance(50.0, 0.0, 80.0)

    def test_non_positive_focal_length_rejected(self):
        with pytest.raises(ValueError):
            px.solve_image_distance(0.0, 0.0, math.inf)

    def test_nearest_focus_is_twice_the_focal_length(self, configs):
        # D = d_f - h1h2 = 4 f_u is a double root; the fixed point crawled
        # toward it and gave up after 1000 steps.
        assert px.solve_image_distance(50.0, 0.0, 200.0) == 100.0
        config = configs["f197_mla2_inf"]
        near = dataclasses.replace(config, focus=935.9674)
        assert px.derive_focus_state(near).b_u_mm == pytest.approx(2 * 197.1264, rel=1e-7)
        # Just past the bound the root is exact where the loop fell short.
        assert px.solve_image_distance(50.0, 0.0, 201.0) == pytest.approx(
            (201.0 - math.sqrt(201.0)) / 2.0, rel=1e-15
        )
        with pytest.raises(ValueError, match="too close to focus"):
            px.solve_image_distance(50.0, 0.0, math.nextafter(200.0, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(
        f=st.floats(1.0, 1000.0),
        gap=st.floats(-300.0, 300.0),
        ratio=st.one_of(st.just(1.0), st.floats(1.0, 1e6)),
    )
    def test_root_satisfies_thin_lens_relation(self, f, gap, ratio):
        d_f = gap + 4.0 * f * ratio
        if d_f - gap < 4.0 * f:
            with pytest.raises(ValueError):
                px.solve_image_distance(f, gap, d_f)
            return
        b = px.solve_image_distance(f, gap, d_f)
        a = d_f - b - gap
        assert f <= b <= 2.0 * f
        assert 1.0 / b + 1.0 / a == pytest.approx(1.0 / f, rel=1e-12)

    def test_agrees_with_fixed_point_on_fixtures(self, configs):
        for config in configs.values():
            lens = config.main_lens
            args = (lens.focal_length_mm, lens.principal_gap_mm, config.focus)
            assert px.solve_image_distance(*args) == pytest.approx(
                _fixed_point_image_distance(*args), abs=1e-9
            )


class TestMlaCardinalPoints:
    def test_plano_convex_prescriptions(self):
        lens = _thick_lens(1.1, 1.5626, 0.70325, -math.inf)
        assert lens.focal_length == pytest.approx(1.25, abs=1e-3)
        assert lens.principal_gap == pytest.approx(0.39604505311660065, abs=1e-12)
        lens2 = _thick_lens(1.1, 1.5626, 1.54715, -math.inf)
        assert lens2.focal_length == pytest.approx(2.75, abs=1e-3)
        # Flat-backed lenslets share the principal separation regardless of
        # front curvature: the front surface carries all the power.
        assert lens2.principal_gap == pytest.approx(lens.principal_gap, rel=1e-12)

    def test_symmetric_biconvex_has_symmetric_planes(self):
        lens = _thick_lens(1.0, 1.5, 2.0, -2.0)
        f = lens.focal_length
        assert f > 0
        # h1 offset from the front equals h2 offset from the back by symmetry,
        # so the principal separation is thickness minus twice that offset.
        p1 = (1.5 - 1.0) / 2.0
        h1 = f * p1 * 1.0 / 1.5
        assert lens.principal_gap == pytest.approx(1.0 - 2 * h1, rel=1e-12)

    def test_invalid_prescription_rejected(self):
        with pytest.raises(ValueError):
            _thick_lens(-1.0, 1.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            _thick_lens(1.0, 0.9, 1.0, -1.0)
        with pytest.raises(ValueError):
            # Zero net power has no focal length.
            _thick_lens(0.0, 1.5, math.inf, math.inf)

    @pytest.mark.parametrize("field", range(4))
    def test_nan_prescription_rejected(self, field):
        # A NaN radius used to pass as a flat surface, a NaN thickness as
        # a NaN principal gap that MicroLensSpec then accepted.
        prescription = [1.1, 1.5626, 0.70325, -math.inf]
        prescription[field] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            _thick_lens(*prescription)
        with pytest.raises(ValueError, match="NaN"):
            px.MicroLensSpec(1.25, 0.125, 3, 3, *prescription)


class TestExitPupil:
    def test_tracks_image_distance_shift(self, configs, states):
        # b_u - d_ap is a property of the main lens, whatever the focus.
        offsets = {}
        for name, config in configs.items():
            state = states[name]
            offsets.setdefault(config.main_lens, []).append(state.b_u_mm - state.d_ap_mm)
        # The f193, f197 and f90 lenses each come at several focus settings.
        assert sorted(len(values) for values in offsets.values()) == [1, 1, 2, 3, 6]
        for values in offsets.values():
            assert len(set(values)) == 1, values

    def test_at_infinity_is_identity(self, configs, states):
        at_inf = [name for name, config in configs.items() if config.focus == math.inf]
        assert len(at_inf) == 6
        for name in at_inf:
            assert states[name].d_ap_mm == configs[name].main_lens.exit_pupil_inf_mm, name


class TestSpecs:
    def test_sensor_requires_odd_micro_image(self):
        with pytest.raises(ValueError):
            px.SensorSpec(pixel_pitch_mm=0.009, micro_image_px=12)
        with pytest.raises(ValueError):
            px.SensorSpec(pixel_pitch_mm=-0.009, micro_image_px=13)

    def test_half_span(self):
        assert px.SensorSpec(0.009, 13).half_span == 6

    def test_micro_lens_spec_validation(self):
        with pytest.raises(ValueError):
            px.MicroLensSpec(focal_length_mm=0.0, pitch_mm=0.125, count_h=3, count_v=3)
        with pytest.raises(ValueError):
            px.MicroLensSpec(focal_length_mm=1.25, pitch_mm=0.125, count_h=0, count_v=3)

    def test_prescription_alone_sets_focal_length_and_gap(self):
        prescription = (1.1, 1.5626, 0.70325, -math.inf)
        mla = px.MicroLensSpec(None, 0.125, 3, 3, *prescription)
        lens = _thick_lens(*prescription)
        assert mla.lens == lens
        assert mla.focal_length_mm == lens.focal_length
        assert mla.lens.principal_gap == lens.principal_gap

    def test_principal_gap_is_derived_not_given(self):
        # A given gap would replace the derived one, which the oracle traces.
        with pytest.raises(TypeError, match="principal_gap_mm"):
            px.MicroLensSpec(
                1.25, 0.125, 3, 3, 1.1, 1.5626, 0.70325, -math.inf, principal_gap_mm=5.0
            )
        assert px.MicroLensSpec(1.25, 0.125, 3, 3).lens.principal_gap == 0.0

    def test_focal_length_needs_a_full_prescription(self):
        with pytest.raises(ValueError, match="focal_length_mm is required"):
            px.MicroLensSpec(None, 0.125, 3, 3)
        with pytest.raises(ValueError, match="missing refractive_index, radius_back_mm$"):
            px.MicroLensSpec(None, 0.125, 3, 3, thickness_mm=1.1, radius_front_mm=0.70325)

    def test_thin_lenslet_is_all_front_power(self):
        lens = px.MicroLensSpec(2.5, 0.125, 3, 3).lens
        assert lens.power_front == 1.0 / 2.5
        surfaces = (
            lens.power_back,
            lens.thickness,
            lens.reduced_thickness,
            lens.h1_from_front,
            lens.h2_from_back,
        )
        assert surfaces == (0.0,) * 5

    def test_focus_setting(self, configs):
        # The focus is the plain distance d_f; the camera checks it.
        for d_f in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=rf"^d_f_mm must be > 0 or infinite, got {d_f}$"):
                dataclasses.replace(configs["f197_mla2_inf"], focus=d_f)


class TestDeriveFocusState:
    def test_accounting_closes(self, configs, states):
        config = configs["f193_mla2_3m"]
        state = states["f193_mla2_3m"]
        total = state.b_u_mm + config.main_lens.principal_gap_mm + state.a_u_mm
        assert total == pytest.approx(config.focus, abs=1e-9)

    def test_infinity_state(self, configs, states):
        state = states["f197_mla2_inf"]
        assert state.b_u_mm == configs["f197_mla2_inf"].main_lens.focal_length_mm
        assert math.isinf(state.a_u_mm)

    def test_image_dimensions(self, configs):
        config = configs["f197_mla2_inf"]
        assert config.image_width_px == 281 * 13
        assert config.image_height_px == 188 * 13

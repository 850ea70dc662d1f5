"""Block matching, subpixel refinement, and disparity map I/O."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import plenax as px

from conftest import match_views


def brute_force_match(left, right, params):
    """Direct per-pixel reference: same candidate order, scalar costs."""
    hb = params.block_size // 2
    maxd = params.max_disparity
    height, width = left.shape
    out = np.full((height, width), np.nan)
    order = [0]
    for d in range(1, maxd + 1):
        order += [-d, d]
    for y in range(hb, height - hb):
        for x in range(hb + maxd, width - hb - maxd):
            costs = {
                d: px.sad_cost(left, right, x, y, d, params.block_size)
                for d in range(-maxd, maxd + 1)
            }
            best, best_cost = 0, np.inf
            for d in order:
                if costs[d] < best_cost:
                    best, best_cost = d, costs[d]
            value = float(best)
            if params.subpixel and abs(best) < maxd:
                value += px.subpixel_refine(costs[best - 1], costs[best], costs[best + 1])
            out[y, x] = value
    return out


class TestMatchParams:
    def test_defaults(self):
        p = px.MatchParams()
        assert p.block_size == 29 and p.max_disparity == 5 and p.subpixel

    def test_validation(self):
        with pytest.raises(ValueError):
            px.MatchParams(block_size=28)
        with pytest.raises(ValueError):
            px.MatchParams(block_size=-3)
        with pytest.raises(ValueError):
            px.MatchParams(max_disparity=0)


class TestSubpixelRefine:
    def test_symmetric_costs_centre(self):
        assert px.subpixel_refine(5.0, 1.0, 5.0) == 0.0

    def test_asymmetric_costs_shift_toward_cheaper_side(self):
        assert px.subpixel_refine(4.0, 1.0, 2.0) == pytest.approx(0.25)
        assert px.subpixel_refine(2.0, 1.0, 4.0) == pytest.approx(-0.25)

    def test_flat_or_inverted_parabola_stays_put(self):
        assert px.subpixel_refine(1.0, 1.0, 1.0) == 0.0
        assert px.subpixel_refine(1.0, 5.0, 1.0) == 0.0

    def test_offset_clamped_inside_half_step(self):
        assert px.subpixel_refine(1.0, 0.0, 0.0) == pytest.approx(0.499)
        assert px.subpixel_refine(0.0, 0.0, 1.0) == pytest.approx(-0.499)


class TestSadCost:
    def test_manual_window(self):
        left = np.arange(25, dtype=float).reshape(5, 5)
        right = left + 2.0
        # 3x3 window at the centre, shift 0: every pixel differs by 2.
        assert px.sad_cost(left, right, 2, 2, 0, 3) == 18.0

    def test_shift_indexes_right_image(self):
        left = np.zeros((5, 7))
        right = np.zeros((5, 7))
        right[:, 2] = 1.0
        # d=2 compares left[.,x] with right[.,x-2]; window centred at x=4
        # covers right columns 2..4, picking up the lit column once per row.
        assert px.sad_cost(left, right, 4, 2, 2, 3) == 3.0
        assert px.sad_cost(left, right, 4, 2, 0, 3) == 0.0


class TestBlockMatch:
    def test_matches_brute_force_on_random_images(self):
        rng = np.random.default_rng(123)
        for _ in range(3):
            left = rng.integers(0, 256, size=(32, 32)).astype(float)
            right = rng.integers(0, 256, size=(32, 32)).astype(float)
            params = px.MatchParams(block_size=7, max_disparity=3)
            got = px.block_match(left, right, params).values
            want = brute_force_match(left, right, params)
            assert np.allclose(got, want, equal_nan=True)

    def test_recovers_integer_shift_everywhere(self):
        rng = np.random.default_rng(42)
        img = rng.integers(0, 256, size=(60, 90)).astype(float)
        for sigma in (1, 3, -2):
            right = np.roll(img, -sigma, axis=1)
            d = px.block_match(
                img, right, px.MatchParams(block_size=9, max_disparity=5, subpixel=False)
            ).values
            valid = d[np.isfinite(d)]
            assert valid.size > 0
            assert (valid == sigma).mean() >= 0.99

    def test_ties_resolve_toward_smaller_magnitude(self):
        # Identical flat images: every candidate costs zero, so the winner
        # must be the zero shift rather than an arbitrary argmin.
        flat = np.ones((20, 30))
        d = px.block_match(flat, flat, px.MatchParams(block_size=5, max_disparity=3)).values
        assert np.all(d[np.isfinite(d)] == 0.0)

    def test_validity_band_is_content_independent(self):
        rng = np.random.default_rng(5)
        params = px.MatchParams(block_size=7, max_disparity=2)
        a = px.block_match(
            rng.random((25, 40)), rng.random((25, 40)), params
        ).values
        b = px.block_match(np.zeros((25, 40)), np.ones((25, 40)), params).values
        assert np.array_equal(np.isnan(a), np.isnan(b))
        hb, maxd = 3, 2
        mask = np.isnan(a)
        assert mask[:hb].all() and mask[-hb:].all()
        assert mask[:, : hb + maxd].all() and mask[:, -(hb + maxd):].all()
        inner = mask[hb:-hb, hb + maxd : -(hb + maxd)]
        assert not inner.any()

    def test_disparity_map_accessors(self):
        rng = np.random.default_rng(9)
        d = px.block_match(
            rng.random((20, 30)), rng.random((20, 30)), px.MatchParams(block_size=5, max_disparity=2)
        )
        assert d.width == 30 and d.height == 20
        assert d.valid.shape == (20, 30)
        assert d.valid.sum() == np.isfinite(d.values).sum()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_view_rejected(self, side):
        # One NaN used to spread through the window sums and turn 540 of
        # the 1,800 outputs of this 40x60 pair into a finite 0.0.
        rng = np.random.default_rng(3)
        views = {"left": rng.random((40, 60))}
        views["right"] = np.roll(views["left"], 2, axis=1)
        views[side][20, 30] = np.nan
        with pytest.raises(ValueError, match=f"{side} view"):
            px.block_match(views["left"], views["right"], px.MatchParams(block_size=5))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            px.block_match(np.zeros((10, 10)), np.zeros((10, 11)), px.MatchParams(block_size=5))


class TestSceneProperties:
    def test_swapping_views_negates_disparity(self, smooth_lightfield):
        forward = match_views(smooth_lightfield, -2, 2)
        backward = match_views(smooth_lightfield, 2, -2)
        both = np.isfinite(forward) & np.isfinite(backward)
        assert both.any()
        # Swapped matching may land on the neighbouring integer candidate, so
        # agreement is required only within one refinement step.
        assert np.abs(forward[both] + backward[both]).max() <= 1.0
        assert abs(forward[both].mean() + backward[both].mean()) < 0.02

    def test_disparity_proportional_to_gap(self, smooth_lightfield):
        narrow = match_views(smooth_lightfield, -1, 1)
        wide = match_views(smooth_lightfield, -2, 2)
        n = narrow[np.isfinite(narrow)].mean()
        w = wide[np.isfinite(wide)].mean()
        assert abs(2.0 * n - w) < 0.1

    def test_same_gap_different_anchor_agrees(self, smooth_lightfield):
        centred = match_views(smooth_lightfield, -1, 1)
        shifted = match_views(smooth_lightfield, 0, 2)
        both = np.isfinite(centred) & np.isfinite(shifted)
        assert np.abs(centred[both] - shifted[both]).max() < 0.1

    def test_adjacent_pair_half_pixel(self, smooth_lightfield):
        d = match_views(smooth_lightfield, 0, 1)
        v = d[np.isfinite(d)]
        assert v.mean() == pytest.approx(0.5, abs=0.1)


def reference_csv_text(values, header):
    """The per-cell formatter write_map_csv used before it formatted in C."""

    def cell(v):
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.6f}"

    lines = [f"# {key}: {value}" for key, value in header.items()]
    lines += [f"# rows: {values.shape[0]}", f"# cols: {values.shape[1]}"]
    lines += [",".join(cell(v) for v in row) for row in values]
    return "\n".join(lines) + "\n"


SPECIAL_CELLS = [np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, -0.0, 1e300, 1e-7]


class TestMapIo:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        values=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
            elements=st.one_of(st.floats(), st.sampled_from(SPECIAL_CELLS)),
        )
    )
    @example(values=np.zeros((0, 0)))
    @example(values=np.zeros((3, 0)))
    @example(values=np.zeros((0, 3)))
    @example(values=np.array([SPECIAL_CELLS]))
    def test_csv_bytes_match_per_cell_reference(self, tmp_path, values):
        header = {"left": "views/v-2.pgm", "gap": 4}
        path = tmp_path / "map.csv"
        px.write_map_csv(path, values, header=header)
        assert path.read_bytes() == reference_csv_text(values, header).encode("ascii")

    def test_csv_round_trip_with_specials(self, tmp_path):
        values = np.array([[1.25, np.nan, -3.5], [np.inf, 0.0, -np.inf]])
        path = tmp_path / "map.csv"
        px.write_map_csv(path, values, header={"camera": "demo", "gap": 4})
        text = path.read_text()
        assert text.startswith("#")
        assert "# camera: demo" in text
        back = px.read_map_csv(path)
        assert back.shape == values.shape
        assert np.allclose(back, values, equal_nan=True)

    def test_byte_stable(self, tmp_path):
        values = np.linspace(-2, 2, 12).reshape(3, 4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        px.write_map_csv(a, values, header={"gap": 2})
        px.write_map_csv(b, values, header={"gap": 2})
        assert a.read_bytes() == b.read_bytes()


class TestGraymap:
    def test_linear_scale_and_invalid_to_zero(self):
        values = np.array([[0.0, 1.0, 2.0], [np.nan, np.inf, 1.0]])
        g = px.to_graymap(values, maxval=100)
        assert g.dtype == np.uint8
        assert g[0, 0] == 0 and g[0, 2] == 100 and g[0, 1] == 50
        assert g[1, 0] == 0 and g[1, 1] == 0
        assert px.to_graymap(values).dtype == np.uint16

    def test_constant_map_maps_to_mid_scale(self):
        g = px.to_graymap(np.full((2, 2), 3.7), maxval=1000)
        assert np.all(g == 500)

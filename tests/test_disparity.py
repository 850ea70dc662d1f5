"""Block matching, subpixel refinement, and disparity map I/O."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import plenax as px
from plenax import disparity
from plenax.disparity import _subpixel_refine

from conftest import match_views, rig


def sad_cost(left, right, x, y, d, block_size):
    """Window cost of matching left at (x, y) against right shifted by d.

    Reference implementation, one window at a time. The window must lie
    fully inside both images after the shift.
    """
    if block_size < 1 or block_size % 2 == 0:
        raise ValueError(f"block_size must be odd, got {block_size}")
    half = block_size // 2
    height, width = left.shape
    if not (half <= y < height - half):
        raise ValueError(f"row {y} leaves no full window in height {height}")
    if not (half <= x < width - half and half <= x - d < width - half):
        raise ValueError(f"column {x} with shift {d} leaves the image")
    lwin = left[y - half : y + half + 1, x - half : x + half + 1]
    rwin = right[y - half : y + half + 1, x - d - half : x - d + half + 1]
    return float(np.abs(lwin.astype(np.float64) - rwin.astype(np.float64)).sum())


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
                d: sad_cost(left, right, x, y, d, params.block_size)
                for d in range(-maxd, maxd + 1)
            }
            best, best_cost = 0, np.inf
            for d in order:
                if costs[d] < best_cost:
                    best, best_cost = d, costs[d]
            value = float(best)
            if params.subpixel and abs(best) < maxd:
                value += _subpixel_refine(costs[best - 1], costs[best], costs[best + 1])
            out[y, x] = value
    return out


def _reference_window_sums(image, block_size):
    integral = np.zeros((image.shape[0] + 1, image.shape[1] + 1), dtype=np.float64)
    np.cumsum(np.cumsum(image, axis=0), axis=1, out=integral[1:, 1:])
    b = block_size
    return (
        integral[b:, b:]
        - integral[:-b, b:]
        - integral[b:, :-b]
        + integral[:-b, :-b]
    )


def _reference_block_match(left, right, params):
    """The matcher before it worked in place: one full cost plane per shift.

    Kept as the bit-exact reference for block_match on finite views.
    """
    height, width = left.shape
    half = params.block_size // 2
    maxd = params.max_disparity
    margin = half + maxd
    if width <= 2 * margin or height <= 2 * half:
        return np.full((height, width), np.nan)

    lf = left.astype(np.float64, copy=False)
    rf = right.astype(np.float64, copy=False)

    shifts = [0]
    for d in range(1, maxd + 1):
        shifts.extend((-d, d))

    inner_h = height - 2 * half
    inner_w = width - 2 * half
    best_cost = np.full((inner_h, inner_w), np.inf)
    best_shift = np.zeros((inner_h, inner_w), dtype=np.int64)
    neighbor_costs = {}
    for d in shifts:
        lo = max(0, d)
        hi = width + min(0, d)
        cost = np.full((inner_h, inner_w), np.inf)
        sums = _reference_window_sums(
            np.abs(lf[:, lo:hi] - rf[:, lo - d : hi - d]), params.block_size
        )
        cost[:, lo : lo + sums.shape[1]] = sums
        neighbor_costs[d] = cost
        better = cost < best_cost
        best_cost[better] = cost[better]
        best_shift[better] = d

    values = np.full((height, width), np.nan)
    inner = values[half : height - half, half : width - half]
    inner[:] = best_shift
    inner[:, :maxd] = np.nan
    inner[:, inner_w - maxd :] = np.nan

    if params.subpixel:
        refinable = (
            np.isfinite(inner)
            & (np.abs(best_shift) < maxd)
            & np.isfinite(best_cost)
        )
        ys, xs = np.nonzero(refinable)
        d_won = best_shift[ys, xs]
        stack = np.stack([neighbor_costs[d] for d in range(-maxd, maxd + 1)])
        c_minus = stack[d_won - 1 + maxd, ys, xs]
        c_centre = best_cost[ys, xs]
        c_plus = stack[d_won + 1 + maxd, ys, xs]
        curvature = c_minus - 2.0 * c_centre + c_plus
        offset = np.zeros(len(ys))
        curved = curvature > 0
        offset[curved] = (c_minus[curved] - c_plus[curved]) / (2.0 * curvature[curved])
        np.clip(offset, -0.499, 0.499, out=offset)
        inner[ys, xs] = d_won + offset

    return values


@st.composite
def match_cases(draw):
    """Whole-valued float views whose width sits at or just past 2*margin."""
    block = draw(st.sampled_from([1, 3, 5, 7, 9]))
    maxd = draw(st.integers(1, 6))
    params = px.MatchParams(block_size=block, max_disparity=maxd, subpixel=draw(st.booleans()))
    width = 2 * (block // 2 + maxd) + draw(st.integers(0, 3))
    height = draw(st.integers(1, block + 4))
    whole = st.integers(-(10**6), 10**6).map(float)
    left = draw(hnp.arrays(np.float64, (height, width), elements=whole))
    right = draw(hnp.arrays(np.float64, (height, width), elements=whole))
    return left, right, params


@st.composite
def tie_cases(draw):
    """Views from {0, 1, 2} or constant views, where equal costs are common.

    Same block, maxd, width and subpixel ranges as match_cases.
    """
    block = draw(st.sampled_from([1, 3, 5, 7, 9]))
    maxd = draw(st.integers(1, 6))
    params = px.MatchParams(block_size=block, max_disparity=maxd, subpixel=draw(st.booleans()))
    width = 2 * (block // 2 + maxd) + draw(st.integers(0, 3))
    height = draw(st.integers(1, block + 4))
    if draw(st.booleans()):
        levels = st.sampled_from([0.0, 1.0, 2.0])
        left = draw(hnp.arrays(np.float64, (height, width), elements=levels))
        right = draw(hnp.arrays(np.float64, (height, width), elements=levels))
    else:
        left = np.full((height, width), draw(st.sampled_from([0.0, 1.0, 2.0])))
        right = np.full((height, width), draw(st.sampled_from([0.0, 1.0, 2.0])))
    return left, right, params


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

    def test_negative_odd_block_names_the_rule(self):
        # -1 is odd: the message states both halves of the rule.
        with pytest.raises(ValueError, match=r"^block_size must be odd and >= 1, got -1$"):
            px.MatchParams(block_size=-1)


class TestSubpixelRefine:
    def test_symmetric_costs_centre(self):
        assert _subpixel_refine(5.0, 1.0, 5.0) == 0.0

    def test_asymmetric_costs_shift_toward_cheaper_side(self):
        assert _subpixel_refine(4.0, 1.0, 2.0) == pytest.approx(0.25)
        assert _subpixel_refine(2.0, 1.0, 4.0) == pytest.approx(-0.25)

    def test_flat_or_inverted_parabola_stays_put(self):
        assert _subpixel_refine(1.0, 1.0, 1.0) == 0.0
        assert _subpixel_refine(1.0, 5.0, 1.0) == 0.0

    def test_offset_clamped_inside_half_step(self):
        assert _subpixel_refine(1.0, 0.0, 0.0) == pytest.approx(0.499)
        assert _subpixel_refine(0.0, 0.0, 1.0) == pytest.approx(-0.499)


class TestSadCost:
    def test_manual_window(self):
        left = np.arange(25, dtype=float).reshape(5, 5)
        right = left + 2.0
        # 3x3 window at the centre, shift 0: every pixel differs by 2.
        assert sad_cost(left, right, 2, 2, 0, 3) == 18.0

    def test_shift_indexes_right_image(self):
        left = np.zeros((5, 7))
        right = np.zeros((5, 7))
        right[:, 2] = 1.0
        # d=2 compares left[.,x] with right[.,x-2]; window centred at x=4
        # covers right columns 2..4, picking up the lit column once per row.
        assert sad_cost(left, right, 4, 2, 2, 3) == 3.0
        assert sad_cost(left, right, 4, 2, 0, 3) == 0.0


@st.composite
def integer_cases(draw):
    """Views at the edges of the accepted dtypes, sized like match_cases.

    Negative integer-valued floats and uint8 left with float64 right are
    matched. Integer-valued float views with one value moved off an integer
    by 0.5 or 1e-9 are rejected; the case then names the moved side.
    """
    block = draw(st.sampled_from([1, 3, 5, 7, 9]))
    maxd = draw(st.integers(1, 6))
    params = px.MatchParams(block_size=block, max_disparity=maxd, subpixel=draw(st.booleans()))
    shape = (draw(st.integers(1, block + 4)), 2 * (block // 2 + maxd) + draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([3, 256, 70000]))
    kind = draw(st.sampled_from(["negative", "mixed", "off_integer"]))
    moved = None
    if kind == "negative":
        left, right = (-rng.integers(0, levels, shape).astype(np.float64) for _ in range(2))
    elif kind == "mixed":
        left = rng.integers(0, min(levels, 256), shape, dtype=np.uint8)
        right = rng.integers(0, min(levels, 256), shape).astype(np.float64)
    else:
        sides = ("left", "right")
        views = {side: rng.integers(0, levels, shape).astype(np.float64) for side in sides}
        moved = draw(st.sampled_from(sides))
        views[moved][rng.integers(0, shape[0]), rng.integers(0, shape[1])] += draw(
            st.sampled_from([0.5, 1e-9])
        )
        left, right = views["left"], views["right"]
    return left, right, params, moved


@st.composite
def banded_cases(draw):
    """Integer views up to 30 valid rows: up to 7 bands, many below block rows."""
    block = draw(st.sampled_from([1, 3, 5, 7, 9]))
    maxd = draw(st.integers(1, 6))
    params = px.MatchParams(block_size=block, max_disparity=maxd, subpixel=draw(st.booleans()))
    shape = (block - 1 + draw(st.integers(1, 30)), 2 * (block // 2 + maxd) + draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([3, 65536]))
    left, right = (rng.integers(0, levels, shape, dtype=np.uint16) for _ in range(2))
    return left, right, params


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
            rng.integers(0, 256, (25, 40)), rng.integers(0, 256, (25, 40)), params
        ).values
        b = px.block_match(np.zeros((25, 40)), np.ones((25, 40)), params).values
        assert np.array_equal(np.isnan(a), np.isnan(b))
        hb, maxd = 3, 2
        mask = np.isnan(a)
        assert mask[:hb].all() and mask[-hb:].all()
        assert mask[:, : hb + maxd].all() and mask[:, -(hb + maxd):].all()
        inner = mask[hb:-hb, hb + maxd : -(hb + maxd)]
        assert not inner.any()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_view_rejected(self, side):
        # One NaN used to spread through the window sums and turn 540 of
        # the 1,800 outputs of this 40x60 pair into a finite 0.0.
        rng = np.random.default_rng(3)
        views = {"left": rng.integers(0, 256, (40, 60)).astype(np.float64)}
        views["right"] = np.roll(views["left"], 2, axis=1)
        views[side][20, 30] = np.nan
        with pytest.raises(ValueError, match=f"{side} view"):
            px.block_match(views["left"], views["right"], px.MatchParams(block_size=5))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_complex_view_rejected(self, side):
        # The float64 copy used to drop the imaginary part with only a
        # warning and match the real parts.
        rng = np.random.default_rng(3)
        views = {"left": rng.random((40, 60))}
        views["right"] = np.roll(views["left"], 2, axis=1)
        views[side] = views[side] + 0.5j
        with pytest.raises(ValueError, match=f"{side} view has complex dtype complex128"):
            px.block_match(views["left"], views["right"], px.MatchParams(block_size=5))

    @settings(max_examples=300, deadline=None)
    @given(case=match_cases())
    def test_bytes_match_reference(self, case):
        left, right, params = case
        got = px.block_match(left, right, params).values
        want = _reference_block_match(left, right, params)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=tie_cases())
    def test_bytes_match_reference_on_tied_costs(self, case):
        left, right, params = case
        got = px.block_match(left, right, params).values
        want = _reference_block_match(left, right, params)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_overflowing_view_rejected(self, side):
        # Finite but huge views used to overflow the integral image and come
        # back as 1,632 plausible 0.0 disparities of this 40x60 pair. 2**63
        # is whole but has no int64, so it is the first value rejected.
        rng = np.random.default_rng(3)
        views = {s: rng.integers(0, 256, (40, 60)).astype(np.float64) for s in ("left", "right")}
        views[side][20, 30] = 2.0**63
        message = f"{side} view holds values that are not whole numbers in [-2**63, 2**63)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            px.block_match(views["left"], views["right"], px.MatchParams(block_size=5))

    def test_views_at_span_bound_keep_exact_costs(self):
        # The worst case for int64 costs: span * 9**2 one step below 2**63,
        # windows nearly as large as the view, opposite signs, so costs
        # approach span * 81. float64 would round them; the winners must be
        # those of exact Python-int costs.
        rng = np.random.default_rng(4)
        params = px.MatchParams(block_size=9, max_disparity=2, subpixel=False)
        shape = (9, 14)
        top = (2**63 - 1) // (2 * 81)
        left = rng.integers(-top, top + 1, shape)
        left[0, 0], left[1, 1] = top, -top
        right = -left
        d = px.block_match(left, right, params).values
        valid = d[4, 6:8]
        assert np.isfinite(d).sum() == valid.size == 1 * (shape[1] - 2 * (4 + 2))
        for x, got in zip(range(6, 8), valid):
            window = left[:, x - 4 : x + 5].astype(object)
            costs = {
                s: int(np.abs(window - right[:, x - s - 4 : x - s + 5]).sum())
                for s in range(-2, 3)
            }
            # Ties to the smaller |s|, then to -s: the first minimum in this order.
            assert got == min(sorted(costs, key=abs), key=costs.get)

    def test_peak_memory_on_lytro_views(self):
        # 329x329 float64 copies of 16-bit views at block 29, maxd 16, as the
        # Lytro bench matches.
        rng = np.random.default_rng(6)
        left = rng.integers(0, 65536, (329, 329)).astype(np.float64)
        right = np.roll(left, 3, axis=1)
        params = px.MatchParams(block_size=29, max_disparity=16)
        tracemalloc.start()
        try:
            px.block_match(left, right, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @staticmethod
    def _traced_peak(left, right, params):
        tracemalloc.start()
        try:
            px.block_match(left, right, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @classmethod
    def _lytro_peak(cls, max_disparity):
        rng = np.random.default_rng(6)
        left = rng.integers(0, 65536, (329, 329)).astype(np.float64)
        right = np.roll(left, 3, axis=1)
        params = px.MatchParams(block_size=29, max_disparity=max_disparity)
        return cls._traced_peak(left, right, params)

    def test_peak_memory_does_not_grow_with_search_range(self):
        # A (2*maxd + 1)-plane cost volume alone is 21 MB at maxd 16 and
        # 6.2 MB at maxd 4; the chunked matcher holds a fixed few planes.
        wide = self._lytro_peak(16)
        narrow = self._lytro_peak(4)
        assert wide < 16e6
        assert wide < 1.25 * narrow

    def test_int32_costs_peak_a_third_below_int64(self):
        # uint16 Lytro-sized views have int32 costs and integral buffers and
        # uint16 shifted views. The same views times 64 (span 4,194,240,
        # whose span * 29**2 passes 2**31) have int64 costs, buffers and
        # shifted views.
        rng = np.random.default_rng(6)
        left = rng.integers(0, 65536, size=(329, 329), dtype=np.uint16)
        right = np.roll(left, 3, axis=1)
        params = px.MatchParams(block_size=29, max_disparity=16)
        with pytest.MonkeyPatch.context() as patch:
            # Two bands, as on a two-core host; each band adds block_size
            # rows of integral buffer, so the peak depends on the count.
            patch.setattr(disparity, "_band_count", lambda rows, block: 2)
            int32_peak = self._traced_peak(left, right, params)
            int64_peak = self._traced_peak(left * np.int32(64), right * np.int32(64), params)
        assert int32_peak < int64_peak * 2 / 3

    @settings(max_examples=300, deadline=None)
    @given(case=integer_cases())
    def test_integer_edge_cases_match_reference(self, case):
        left, right, params, moved = case
        if moved:
            with pytest.raises(ValueError, match=f"^{moved} view holds values that are not whole"):
                px.block_match(left, right, params)
            return
        got = px.block_match(left, right, params).values
        want = _reference_block_match(left, right, params)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=12, deadline=None)
    @given(
        block=st.sampled_from([181, 183]),
        maxd=st.integers(1, 3),
        extra=st.tuples(st.integers(0, 3), st.integers(1, 3)),
        pattern=st.sampled_from(["bits", "opposite"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_int32_bound(self, block, maxd, extra, pattern, seed):
        # 65535 * 181**2 is just below 2**31, 65535 * 183**2 above it: the
        # first has int32 costs, the second int64. "opposite" puts every
        # window sum at 65535 * block**2.
        shape = (block + extra[0], 2 * (block // 2 + maxd) + extra[1])
        if pattern == "bits":
            rng = np.random.default_rng(seed)
            left, right = (rng.integers(0, 2, shape, dtype=np.uint16) * 65535 for _ in range(2))
        else:
            left = np.full(shape, 65535, dtype=np.uint16)
            right = np.zeros(shape, dtype=np.uint16)
        params = px.MatchParams(block_size=block, max_disparity=maxd)
        calls, dtypes = [], []
        match_rows = disparity._match_rows
        with pytest.MonkeyPatch.context() as patch:
            # Both sides of the bound run in two bands.
            patch.setattr(
                disparity, "_band_count", lambda rows, b: calls.append(rows) or 2
            )
            patch.setattr(
                disparity, "_match_rows",
                lambda *job: dtypes.append(job[4].dtype) or match_rows(*job),
            )
            got = px.block_match(left, right, params).values
        assert len(calls) == 1
        assert dtypes == [np.dtype(np.int32 if block == 181 else np.int64)] * 2
        want = _reference_block_match(left, right, params)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, shift", [
        (np.int64, 2**60), (np.int64, -(2**62)), (np.int64, 2**53 + 1), (np.uint64, 2**63),
        (np.uint64, 2**63 + 5), (np.uint64, 2**64 - 2000),
    ])
    def test_large_integer_shift_does_not_change_bytes(self, dtype, shift):
        # The costs do not depend on a shift common to both views. Shifted
        # through float64, values above 2**53 rounded and moved the map.
        rng = np.random.default_rng(3)
        left = rng.integers(0, 1000, (40, 60))
        right = np.roll(left, 2, axis=1) + rng.integers(0, 50, (40, 60))
        params = px.MatchParams(block_size=7, max_disparity=4)
        left, right = left.astype(dtype), right.astype(dtype)
        want = px.block_match(left, right, params).values
        got = px.block_match(left + dtype(shift), right + dtype(shift), params).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shift", [2**60, 2**53 + 1])
    @pytest.mark.parametrize("float_side", ["left", "right"])
    def test_mixed_pair_matches_its_integer_twin(self, shift, float_side):
        # An int64 view beside a whole-valued float64 one used to be shifted
        # in float64, which rounded it: at 2**60, 1,564 pixels of this pair
        # moved, by up to 0.027 px.
        rng = np.random.default_rng(0)
        left = rng.integers(0, 1000, (40, 60)) + shift
        views = {"left": left, "right": np.roll(left, 2, axis=1)}
        params = px.MatchParams(block_size=7, max_disparity=4)
        views[float_side] = views[float_side].astype(np.float64)
        got = px.block_match(views["left"], views["right"], params).values
        # The twin holds the same whole values, as int64.
        views[float_side] = views[float_side].astype(np.int64)
        want = px.block_match(views["left"], views["right"], params).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bands", [1, 2, 3, 7])
    @settings(max_examples=60, deadline=None)
    @given(case=banded_cases())
    def test_band_count_does_not_change_bytes(self, bands, case):
        left, right, params = case
        interval = sys.getswitchinterval()
        # Switch threads often, so bands that shared a row would show it.
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(disparity, "_band_count", lambda rows, block: bands)
                got = px.block_match(left, right, params).values
        finally:
            sys.setswitchinterval(interval)
        want = _reference_block_match(left, right, params)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint16, np.float64])
    def test_strided_views_match_their_contiguous_copies(self, dtype):
        # decode's views are strided slices of the raw, here of uint16 or of
        # whole-valued float64 samples.
        m, count_h, count_v = 5, 61, 41
        rng = np.random.default_rng(17)
        samples = np.floor(rng.random((count_v * m, count_h * m)) * 4000).astype(dtype)
        lf = px.decode(px.RawLightFieldImage(samples=samples, config=rig(m, count_h, count_v)))
        left, right = (px.extract_view(lf, i, 0).pixels for i in (-1, 1))
        assert not left.flags.c_contiguous and not right.flags.c_contiguous
        params = px.MatchParams(block_size=7, max_disparity=4)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(disparity, "_band_count", lambda rows, b: calls.append(rows) or 2)
            got = px.block_match(left, right, params).values
            want = px.block_match(
                np.ascontiguousarray(left), np.ascontiguousarray(right), params
            ).values
        assert len(calls) == 2
        assert np.isfinite(got).any()
        assert got.tobytes() == want.tobytes()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            px.block_match(np.zeros((10, 10)), np.zeros((10, 11)), px.MatchParams(block_size=5))

    def test_span_past_int64_costs_rejected_before_allocating(self):
        # span 2**63: no window of 3x3 can hold its sums in int64.
        left = np.full((40, 60), 2**62, dtype=np.int64)
        left[::2] = -(2**62)
        right = np.roll(left, 1, axis=0)
        tracemalloc.start()
        try:
            message = "view span 9223372036854775808 times block_size**2 (3**2) reaches 2**63"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                px.block_match(left, right, px.MatchParams(block_size=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Less than one view: no cost plane, shifted view or buffer was made.
        assert peak < left.nbytes

    def test_bool_views_match_their_uint8_copies(self):
        rng = np.random.default_rng(9)
        left = rng.random((30, 40)) < 0.5
        right = np.roll(left, 2, axis=1)
        params = px.MatchParams(block_size=5, max_disparity=3)
        got = px.block_match(left, right, params).values
        want = px.block_match(left.astype(np.uint8), right.astype(np.uint8), params).values
        assert np.isfinite(got).any()
        assert got.tobytes() == want.tobytes()


class TestBandCount:
    def test_without_affinity_uses_cpu_count(self, monkeypatch):
        # macOS has no os.sched_getaffinity.
        monkeypatch.delattr(disparity.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(disparity.os, "cpu_count", lambda: 3)
        assert disparity._band_count(100, 5) == 3

    def test_unknown_cpu_count_gives_one_band(self, monkeypatch):
        monkeypatch.delattr(disparity.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(disparity.os, "cpu_count", lambda: None)
        assert disparity._band_count(100, 5) == 1

    def test_fewer_rows_than_block_give_one_band(self, monkeypatch):
        monkeypatch.setattr(disparity.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert disparity._band_count(4, 5) == 1


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

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
    def test_zero_size_map_keeps_its_declared_shape(self, tmp_path, shape):
        path = tmp_path / "map.csv"
        px.write_map_csv(path, np.zeros(shape))
        assert px.read_map_csv(path).shape == shape

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), ()])
    def test_non_2d_map_names_path_and_shape(self, tmp_path, shape):
        path = tmp_path / "map.csv"
        with pytest.raises(ValueError) as info:
            px.write_map_csv(path, np.zeros(shape))
        assert str(info.value) == f"{path}: a map must be 2-D, got shape {shape}"
        assert not path.exists()

    def test_body_must_match_declared_shape(self, tmp_path):
        path = tmp_path / "map.csv"
        px.write_map_csv(path, np.ones((2, 3)))
        text = path.read_text()
        path.write_text(text + "1.0,1.0,1.0\n")
        with pytest.raises(ValueError, match=r"declares a 2x3 map, the body holds 3x3"):
            px.read_map_csv(path)
        path.write_text(text.replace("# cols: 3", "# cols: x"))
        with pytest.raises(ValueError, match=r"map\.csv:2: cols must be a count, got 'x'"):
            px.read_map_csv(path)

    @pytest.mark.parametrize("text", ["", "# gap: 1\n", "# rows: 0\n"])
    def test_map_without_rows_or_declared_shape_names_path(self, tmp_path, text):
        # An empty file used to read as a 0x0 map.
        path = tmp_path / "map.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            px.read_map_csv(path)
        assert str(info.value) == f"{path}: no map rows, and no declared rows and cols"

    def test_map_without_shape_lines_reads_as_written(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("# gap: 1\n1.0,2.0\n3.0,4.0\n")
        assert px.read_map_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_byte_stable(self, tmp_path):
        values = np.linspace(-2, 2, 12).reshape(3, 4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        px.write_map_csv(a, values, header={"gap": 2})
        px.write_map_csv(b, values, header={"gap": 2})
        assert a.read_bytes() == b.read_bytes()


class TestGraymap:
    def test_linear_scale_and_invalid_to_zero(self):
        values = np.array([[0.0, 1.0, 2.0], [np.nan, np.inf, 1.0]])
        g = px.to_graymap(values)
        assert g.dtype == np.uint16
        assert g[0, 0] == 0 and g[0, 2] == 65535 and g[0, 1] == 32768
        assert g[1, 0] == 0 and g[1, 1] == 0

    def test_span_past_float_range_still_scales(self):
        # hi - lo overflows here; the pytest config turns its warning into a failure.
        g = px.to_graymap(np.array([[-1e308, 0.0, 1e308]]))
        assert g.tolist() == [[0, 32768, 65535]]

    def test_constant_map_maps_to_mid_scale(self):
        g = px.to_graymap(np.full((2, 2), 3.7))
        assert np.all(g == 32767)

    def test_all_nan_grid_maps_to_zeros(self):
        g = px.to_graymap(np.full((2, 3), np.nan))
        assert g.dtype == np.uint16
        assert g.tolist() == [[0, 0, 0], [0, 0, 0]]


class TestShapeChecks:
    def test_block_match_rejects_three_dimensional_views(self):
        views = np.zeros((2, 3, 4))
        with pytest.raises(ValueError) as info:
            px.block_match(views, views, px.MatchParams())
        assert str(info.value) == "views must be 2-D, got shape (2, 3, 4)"

    def test_read_map_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError) as info:
            px.read_map_csv(path)
        assert str(info.value) == f"{path}: ragged rows with widths [1, 2]"

    def test_disparity_map_must_be_two_dimensional(self):
        with pytest.raises(ValueError) as info:
            px.DisparityMap(values=np.zeros(5))
        assert str(info.value) == "values must be 2-D, got shape (5,)"

"""Block-matching disparity between two sub-aperture views.

Plain sum-of-absolute-differences matching: for every pixel the right view
is searched over integer shifts d in [-max_disparity, +max_disparity], the
cost summed over an odd square window, the best shift refined to sub-pixel
precision with a parabola through the three costs around the minimum.

Disparity sign: a value d at pixel x means the right view shows the same
scene content at x - d. With the left view taken from the lower viewpoint
index of a pair, objects nearer than the plane where the paired optical
axes cross come out positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SUBPIXEL_CLAMP = 0.499
# Shifts whose integral images block_match sums together in one buffer.
_SHIFT_CHUNK = 4


@dataclass(frozen=True)
class MatchParams:
    """Block matcher settings.

    Attributes:
        block_size: Odd window edge length in pixels.
        max_disparity: Largest absolute integer shift searched.
        subpixel: Parabolic refinement of the winning shift.
    """

    block_size: int = 29
    max_disparity: int = 5
    subpixel: bool = True

    def __post_init__(self) -> None:
        if self.block_size < 1 or self.block_size % 2 == 0:
            raise ValueError(f"block_size must be odd, got {self.block_size}")
        if self.max_disparity < 1:
            raise ValueError(
                f"max_disparity must be >= 1, got {self.max_disparity}"
            )


@dataclass(frozen=True)
class DisparityMap:
    """Per-pixel signed disparity; NaN marks pixels with no valid match."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")


def subpixel_refine(
    cost_minus: float | np.ndarray,
    cost_centre: float | np.ndarray,
    cost_plus: float | np.ndarray,
) -> float | np.ndarray:
    """Fractional offset of the cost parabola's vertex, in (-0.5, 0.5).

    Fits a parabola through the costs at shifts d-1, d, d+1 and returns the
    vertex offset (cost_minus - cost_plus) / (2*(cost_minus - 2*cost_centre
    + cost_plus)), clamped. A flat triple has no curvature and yields 0; a
    NaN cost yields NaN. Scalars give a float, arrays an array of their
    broadcast shape.
    """
    curvature = np.asarray(cost_minus - 2.0 * cost_centre + cost_plus, dtype=np.float64)
    offset = np.zeros(curvature.shape)
    np.divide(
        np.subtract(cost_minus, cost_plus), 2.0 * curvature, out=offset,
        where=~(curvature <= 0),
    )
    np.clip(offset, -_SUBPIXEL_CLAMP, _SUBPIXEL_CLAMP, out=offset)
    return float(offset) if offset.ndim == 0 else offset


def block_match(
    left: np.ndarray, right: np.ndarray, params: MatchParams
) -> DisparityMap:
    """Dense disparity of left against right.

    Winner-take-all over the shift range, then optional parabolic sub-pixel
    refinement. Ties go to the smaller |d|, and between -d and +d to -d.
    Pixels whose window leaves either image for any searched shift are
    invalid (NaN); validity never depends on image content.

    Memory: no cost volume is kept, so memory does not grow with maxd.
    Shifts are summed in chunks of four through one integral buffer of
    (height + 1) * 4 * (width - maxd + 1) * 8 bytes, 3.3 MB for 329x329
    views at maxd 16. Besides it come a fixed six 8-byte and three 1-byte
    planes of (height - 2*half) * (width - 2*margin) cells over the valid
    pixels, with half = block_size // 2 and margin = half + maxd: the
    current and previous cost, the best cost and shift, the costs of the
    best shift's two neighbours, and the masks of where this and the
    previous shift won and of ties.

    Bit stability: shifts run in ascending order from -maxd to +maxd, and
    each runs the same fixed sequence of elementwise float64 passes
    (absolute difference; integral image by sequential running sums down
    the columns, then along the rows, starting at the first column where
    the views overlap; window sum as ((A - B) - C) + D), so equal inputs
    give equal bits on every run. The running argmin applies the tie rule
    exactly: shift d <= 0 takes a pixel at equal cost, shift d > 0 only
    from a best below -d. The parabola's neighbour costs are tracked on
    the way: a pixel's cost at d - 1 is kept when d takes it, its cost at
    d + 1 when the next shift runs.

    Args:
        left: Reference view, (height, width).
        right: Other view of the same size.
        params: Matcher settings.

    Returns:
        DisparityMap of left's geometry.

    Raises:
        ValueError: The views differ in shape, are not 2-D, either holds a
            non-finite value (it would spread through the window sums and
            leave wrong but finite disparities), or either holds a value
            so large that the costs could overflow float64.
    """
    if left.shape != right.shape:
        raise ValueError(f"view sizes differ: {left.shape} vs {right.shape}")
    if left.ndim != 2:
        raise ValueError(f"views must be 2-D, got shape {left.shape}")
    height, width = left.shape
    if left.size:
        # Every integral-image entry and cost is at most
        # (max|l| + max|r|)*h*w, and the parabola's largest term,
        # 2*curvature, is at most four costs: 8*max|v|*h*w below the
        # float64 maximum keeps every intermediate finite.
        bound = np.finfo(np.float64).max / (8.0 * height * width)
        for name, view in (("left", left), ("right", right)):
            top, bottom = float(view.max()), float(view.min())
            if not (np.isfinite(top) and np.isfinite(bottom)):
                raise ValueError(f"{name} view holds non-finite values")
            if max(top, -bottom) > bound:
                raise ValueError(
                    f"{name} view magnitude {max(top, -bottom):.6g} exceeds "
                    f"{bound:.6g} (float64 max / (8*{height}*{width})); "
                    "its matching costs could overflow"
                )
    half = params.block_size // 2
    maxd = params.max_disparity
    margin = half + maxd
    values = np.full((height, width), np.nan)
    if width <= 2 * margin or height <= 2 * half:
        return DisparityMap(values=values)

    lf = left.astype(np.float64, copy=False)
    rf = right.astype(np.float64, copy=False)

    b = params.block_size
    inner_h = height - 2 * half
    valid_w = width - 2 * margin
    # integral[:, s] is the integral image of shift s of the current chunk,
    # with a zero first row and column; row-major over (row, shift) so one
    # add per image row runs the column sums of the whole chunk.
    integral = np.zeros((height + 1, _SHIFT_CHUNK, width - maxd + 1))
    # Planes over the valid pixels only: the columns every shift reaches.
    cost, prev_cost = np.zeros((2, inner_h, valid_w))
    best_cost = np.full((inner_h, valid_w), np.inf)
    cost_minus = np.zeros((inner_h, valid_w))
    cost_plus = np.zeros((inner_h, valid_w))
    best_shift = np.zeros((inner_h, valid_w), dtype=np.int64)
    # won: pixels whose best the current shift took; prev_won: the shift before.
    won, prev_won = np.zeros((2, inner_h, valid_w), dtype=bool)
    tie = np.empty((inner_h, valid_w), dtype=bool)

    for first in range(-maxd, maxd + 1, _SHIFT_CHUNK):
        chunk = range(first, min(first + _SHIFT_CHUNK, maxd + 1))
        block = integral[:, : len(chunk)]
        for s, d in enumerate(chunk):
            # Left columns lo.. meet right columns lo - d..; the integral
            # starts at lo and stops after the last column a valid window
            # uses. Columns past it are zeroed so they stay finite.
            lo = max(0, d)
            n = width - maxd - lo
            area = block[1:, s, 1 : n + 1]
            np.subtract(lf[:, lo : lo + n], rf[:, lo - d : lo - d + n], out=area)
            np.abs(area, out=area)
            block[1:, s, n + 1 :] = 0.0
        # Running sum down the columns, row by row: the additions of
        # np.cumsum(axis=0) in the same order, on every shift at once.
        for row in range(1, height):
            np.add(block[row], block[row + 1], out=block[row + 1])
        np.cumsum(block, axis=2, out=block)

        for s, d in enumerate(chunk):
            k = maxd - max(0, d)
            sums = block[:, s]
            cost, prev_cost = prev_cost, cost
            won, prev_won = prev_won, won
            np.subtract(
                sums[b:, b + k : b + k + valid_w],
                sums[: height + 1 - b, b + k : b + k + valid_w],
                out=cost,
            )
            cost -= sums[b:, k : k + valid_w]
            cost += sums[: height + 1 - b, k : k + valid_w]
            # Where the shift before won, this is its right neighbour.
            np.copyto(cost_plus, cost, where=prev_won)
            # Shifts ascend, so on equal cost d <= 0 always has the smaller
            # |d| and wins; d > 0 wins only over shifts below -d.
            if d <= 0:
                np.less_equal(cost, best_cost, out=won)
            else:
                np.less(cost, best_cost, out=won)
                np.equal(cost, best_cost, out=tie)
                tie &= best_shift < -d
                won |= tie
            np.copyto(best_cost, cost, where=won)
            np.copyto(best_shift, d, where=won)
            # A new winner's left neighbour is the shift before it.
            np.copyto(cost_minus, prev_cost, where=won)

    valid = values[half : height - half, margin : width - margin]
    valid[:] = best_shift
    if params.subpixel:
        np.add(
            valid,
            subpixel_refine(cost_minus, best_cost, cost_plus),
            out=valid,
            where=np.abs(best_shift) < maxd,
        )

    return DisparityMap(values=values)


def write_map_csv(path: str | Path, values: np.ndarray, header: dict | None = None) -> None:
    """Write a float grid as comma-separated rows with '#' header lines.

    Every cell is printed as %.6f, which writes invalid cells as nan and
    infinities as inf/-inf.
    """
    lines = [f"# {key}: {value}" for key, value in (header or {}).items()]
    arr = np.asarray(values, dtype=np.float64)
    rows, cols = arr.shape
    lines.append(f"# rows: {rows}")
    lines.append(f"# cols: {cols}")
    # One C-level format call per row: as fast as one call over the whole
    # grid, without holding every cell as a Python float at once.
    row_template = ",".join(["%.6f"] * cols) + "\n"
    body = "".join(row_template % tuple(row.tolist()) for row in arr)
    Path(path).write_text("\n".join(lines) + "\n" + body, encoding="ascii")


def read_map_csv(path: str | Path) -> np.ndarray:
    """Read a grid written by write_map_csv (header lines ignored)."""
    rows = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([float(cell) for cell in line.split(",")])
    if not rows:
        return np.zeros((0, 0))
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows with widths {sorted(widths)}")
    return np.array(rows, dtype=np.float64)


def to_graymap(values: np.ndarray, maxval: int = 65535) -> np.ndarray:
    """Scale a disparity or depth grid to integers for graymap export.

    Finite values map linearly onto [0, maxval]; NaN and infinities map to
    0. A constant grid maps to mid-scale.
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    out = np.zeros(arr.shape, dtype=np.uint16 if maxval > 255 else np.uint8)
    if not finite.any():
        return out
    lo = arr[finite].min()
    hi = arr[finite].max()
    if hi == lo:
        out[finite] = maxval // 2
    else:
        scaled = (arr[finite] - lo) / (hi - lo) * maxval
        out[finite] = np.round(scaled).astype(out.dtype)
    return out

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

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.values)


def sad_cost(
    left: np.ndarray,
    right: np.ndarray,
    x: int,
    y: int,
    d: int,
    block_size: int,
) -> float:
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

    Memory: the cost volume of every shift over the valid pixels holds
    (2*maxd + 1) * (height - 2*half) * (width - 2*margin) * 8 bytes, with
    half = block_size // 2 and margin = half + maxd; 21 MB for 329x329
    views at block 29, maxd 16. Everything else is a few single planes.

    Bit stability: each shift runs the same fixed sequence of elementwise
    float64 passes (absolute difference; integral image by sequential
    running sums, starting at the first column where the views overlap;
    window sum as ((A - B) - C) + D), so equal inputs give equal bits on
    every run.

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
    # costs[d + maxd] covers the valid pixels only: the columns every shift
    # reaches. integral keeps a zero first row and column for every shift.
    costs = np.empty((2 * maxd + 1, inner_h, valid_w))
    diff = np.empty((height, width))
    integral = np.zeros((height + 1, width + 1))
    best_cost = np.full((inner_h, valid_w), np.inf)
    best_shift = np.zeros((inner_h, valid_w), dtype=np.int64)
    better = np.empty((inner_h, valid_w), dtype=bool)

    # Shift order 0, -1, +1, -2, ... so the running argmin keeps the
    # smallest |d| on ties without a second pass.
    shifts = [0]
    for d in range(1, maxd + 1):
        shifts.extend((-d, d))
    for d in shifts:
        # Left columns lo.. meet right columns lo - d..; the integral image
        # starts at lo and stops after the last column a valid window uses.
        lo = max(0, d)
        n = width - maxd - lo
        k = maxd - lo
        np.subtract(lf[:, lo : lo + n], rf[:, lo - d : lo - d + n], out=diff[:, :n])
        np.abs(diff[:, :n], out=diff[:, :n])
        area = integral[1:, 1 : n + 1]
        np.cumsum(diff[:, :n], axis=0, out=area)
        np.cumsum(area, axis=1, out=area)
        cost = costs[d + maxd]
        np.subtract(
            integral[b:, b + k : b + k + valid_w],
            integral[: height + 1 - b, b + k : b + k + valid_w],
            out=cost,
        )
        cost -= integral[b:, k : k + valid_w]
        cost += integral[: height + 1 - b, k : k + valid_w]
        np.less(cost, best_cost, out=better)
        np.copyto(best_cost, cost, where=better)
        np.copyto(best_shift, d, where=better)

    valid = values[half : height - half, margin : width - margin]
    valid[:] = best_shift
    if params.subpixel:
        ys, xs = np.nonzero(np.abs(best_shift) < maxd)
        d_won = best_shift[ys, xs]
        valid[ys, xs] = d_won + subpixel_refine(
            costs[d_won - 1 + maxd, ys, xs],
            best_cost[ys, xs],
            costs[d_won + 1 + maxd, ys, xs],
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

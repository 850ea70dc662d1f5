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


def subpixel_refine(cost_minus: float, cost_centre: float, cost_plus: float) -> float:
    """Fractional offset of the cost parabola's vertex, in (-0.5, 0.5).

    Fits a parabola through the costs at shifts d-1, d, d+1 and returns the
    vertex offset (cost_minus - cost_plus) / (2*(cost_minus - 2*cost_centre
    + cost_plus)), clamped. A flat triple has no curvature and yields 0.
    """
    curvature = cost_minus - 2.0 * cost_centre + cost_plus
    if curvature <= 0:
        return 0.0
    offset = (cost_minus - cost_plus) / (2.0 * curvature)
    return float(np.clip(offset, -_SUBPIXEL_CLAMP, _SUBPIXEL_CLAMP))


def _window_sums(image: np.ndarray, block_size: int) -> np.ndarray:
    """Sum over every full block_size window, via an integral image.

    Input (h, w) gives output (h - block_size + 1, w - block_size + 1).
    """
    integral = np.zeros((image.shape[0] + 1, image.shape[1] + 1), dtype=np.float64)
    np.cumsum(np.cumsum(image, axis=0), axis=1, out=integral[1:, 1:])
    b = block_size
    return (
        integral[b:, b:]
        - integral[:-b, b:]
        - integral[b:, :-b]
        + integral[:-b, :-b]
    )


def block_match(
    left: np.ndarray, right: np.ndarray, params: MatchParams
) -> DisparityMap:
    """Dense disparity of left against right.

    Winner-take-all over the shift range with ties broken toward the
    smaller absolute shift, then optional parabolic sub-pixel refinement.
    Pixels whose window leaves either image for any searched shift are
    invalid (NaN); validity never depends on image content.

    Args:
        left: Reference view, (height, width).
        right: Other view of the same size.
        params: Matcher settings.

    Returns:
        DisparityMap of left's geometry.

    Raises:
        ValueError: The views differ in shape, are not 2-D, or either
            holds a non-finite value, which would spread through the
            window sums and leave wrong but finite disparities.
    """
    if left.shape != right.shape:
        raise ValueError(f"view sizes differ: {left.shape} vs {right.shape}")
    if left.ndim != 2:
        raise ValueError(f"views must be 2-D, got shape {left.shape}")
    for name, view in (("left", left), ("right", right)):
        if not np.isfinite(view).all():
            raise ValueError(f"{name} view holds non-finite values")
    height, width = left.shape
    half = params.block_size // 2
    maxd = params.max_disparity
    margin = half + maxd
    if width <= 2 * margin or height <= 2 * half:
        return DisparityMap(values=np.full((height, width), np.nan))

    lf = left.astype(np.float64, copy=False)
    rf = right.astype(np.float64, copy=False)

    # Shift order 0, -1, +1, -2, ... so the running argmin keeps the
    # smallest |d| on ties without a second pass.
    shifts = [0]
    for d in range(1, maxd + 1):
        shifts.extend((-d, d))

    inner_h = height - 2 * half
    inner_w = width - 2 * half
    best_cost = np.full((inner_h, inner_w), np.inf)
    best_shift = np.zeros((inner_h, inner_w), dtype=np.int64)
    neighbor_costs: dict[int, np.ndarray] = {}
    for d in shifts:
        lo = max(0, d)
        hi = width + min(0, d)
        cost = np.full((inner_h, inner_w), np.inf)
        sums = _window_sums(np.abs(lf[:, lo:hi] - rf[:, lo - d : hi - d]), params.block_size)
        cost[:, lo : lo + sums.shape[1]] = sums
        neighbor_costs[d] = cost
        better = cost < best_cost
        best_cost[better] = cost[better]
        best_shift[better] = d

    values = np.full((height, width), np.nan)
    inner = values[half : height - half, half : width - half]
    inner[:] = best_shift
    # Uniform validity: the full shift range must have been comparable.
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
        np.clip(offset, -_SUBPIXEL_CLAMP, _SUBPIXEL_CLAMP, out=offset)
        inner[ys, xs] = d_won + offset

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

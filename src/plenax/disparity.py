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

import os
from concurrent.futures import ThreadPoolExecutor
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
            raise ValueError(f"block_size must be odd and >= 1, got {self.block_size}")
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


def _subpixel_refine(
    cost_minus: float | np.ndarray,
    cost_centre: float | np.ndarray,
    cost_plus: float | np.ndarray,
) -> float | np.ndarray:
    """Fractional offset of the cost parabola's vertex, in (-0.5, 0.5).

    Fits a parabola through the costs at shifts d-1, d, d+1 and returns the
    vertex offset (cost_minus - cost_plus) / (2*(cost_minus - 2*cost_centre
    + cost_plus)), clamped. A flat triple has no curvature and yields 0; a
    NaN cost yields NaN. Scalars give a float, arrays an array of their
    broadcast shape. The arithmetic is float64 whatever the costs' dtype.
    """
    shape = np.broadcast_shapes(np.shape(cost_minus), np.shape(cost_centre), np.shape(cost_plus))
    # In place, in float64: (-2*c0 + c-) + c+ has the bits of c- - 2*c0 + c+.
    curvature = np.multiply(cost_centre, -2.0, out=np.empty(shape))
    curvature += cost_minus
    curvature += cost_plus
    curved = ~(curvature <= 0)
    offset = np.zeros(shape)
    np.subtract(cost_minus, cost_plus, out=offset, where=curved, dtype=np.float64)
    curvature *= 2.0
    np.divide(offset, curvature, out=offset, where=curved)
    np.clip(offset, -_SUBPIXEL_CLAMP, _SUBPIXEL_CLAMP, out=offset)
    return float(offset) if offset.ndim == 0 else offset


def _band_count(rows: int, block: int) -> int:
    """Row bands for block_match: one per usable core, each >= block rows."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform, e.g. macOS
        cores = os.cpu_count() or 1
    return max(1, min(cores, rows // block))


def _match_rows(
    left: np.ndarray,
    right: np.ndarray,
    b: int,
    maxd: int,
    integral: np.ndarray,
    costs: np.ndarray,
    best_shift: np.ndarray,
    masks: np.ndarray,
) -> None:
    """Run the shift search for one band of rows, in place.

    left and right hold the band's image rows; costs (five planes),
    best_shift and masks (four planes) are the band's rows of the valid
    pixels, and integral its (rows + b, _SHIFT_CHUNK, width - maxd + 1)
    buffer. Only in-place ufuncs run here, so no buffer is allocated.
    """
    width = left.shape[1]
    rows, valid_w = best_shift.shape
    cost, prev_cost, best_cost, cost_minus, cost_plus = costs
    # won: pixels whose best the current shift took; prev_won: the shift before.
    won, prev_won, tie, below = masks
    for first in range(-maxd, maxd + 1, _SHIFT_CHUNK):
        chunk = range(first, min(first + _SHIFT_CHUNK, maxd + 1))
        block = integral[:, : len(chunk)]
        for s, d in enumerate(chunk):
            # Left columns lo.. meet right columns lo - d..; the integral
            # starts at lo and stops after the last column a valid window
            # uses. Columns past it keep stale sums that no window reads.
            lo = max(0, d)
            n = width - maxd - lo
            area = block[1:, s, 1 : n + 1]
            np.subtract(
                left[:, lo : lo + n], right[:, lo - d : lo - d + n], out=area, dtype=area.dtype
            )
            np.abs(area, out=area)
        # Running sum down the columns, row by row: the additions of
        # np.cumsum(axis=0) in the same order, on every shift at once.
        image_rows = list(block[1:])
        for above, row in zip(image_rows, image_rows[1:]):
            np.add(above, row, out=row)
        np.cumsum(block, axis=2, dtype=block.dtype, out=block)

        for s, d in enumerate(chunk):
            k = maxd - max(0, d)
            sums = block[:, s]
            cost, prev_cost = prev_cost, cost
            won, prev_won = prev_won, won
            np.subtract(
                sums[b:, b + k : b + k + valid_w], sums[:rows, b + k : b + k + valid_w], out=cost
            )
            cost -= sums[b:, k : k + valid_w]
            cost += sums[:rows, k : k + valid_w]
            # Where the shift before won, this is its right neighbour.
            np.copyto(cost_plus, cost, where=prev_won)
            # Shifts ascend, so on equal cost d <= 0 always has the smaller
            # |d| and wins; d > 0 wins only over shifts below -d.
            if d <= 0:
                np.less_equal(cost, best_cost, out=won)
            else:
                np.less(cost, best_cost, out=won)
                np.equal(cost, best_cost, out=tie)
                np.less(best_shift, -d, out=below)
                tie &= below
                won |= tie
            # Where d won, its cost is the smaller or an equal one.
            np.minimum(best_cost, cost, out=best_cost)
            np.copyto(best_shift, d, where=won)
            # A new winner's left neighbour is the shift before it.
            np.copyto(cost_minus, prev_cost, where=won)


def block_match(
    left: np.ndarray, right: np.ndarray, params: MatchParams
) -> DisparityMap:
    """Dense disparity of left against right.

    Winner-take-all over the shift range, then optional parabolic sub-pixel
    refinement. Ties go to the smaller |d|, and between -d and +d to -d.
    Pixels whose window leaves either image for any searched shift are
    invalid (NaN); validity never depends on image content.

    Costs are exact integers; there is no float64 cost path. A view must
    have an integer or bool dtype, or a float one whose values are all
    whole and lie in [-2**63, 2**63). Both views are read as int64 and
    shifted by their joint minimum modulo 2**64, which puts every value
    exactly in [0, span], span = max(both views) - min(both views), so the
    map depends neither on the views' dtypes nor on a shift common to both.
    No window sum exceeds span * block_size**2: the costs run in int32
    while that stays below 2**31, else in int64. The integral image may
    wrap, but ((A - B) - C) + D still comes out as the exact window sum,
    so the map's bits depend neither on summation order nor on the bands.

    Bands: an exact window sum does not depend on the row where its
    integral image starts, so the valid rows are split into one band per
    usable core, at least block_size rows each, with its own integral
    buffer and rows of the result planes. The calling thread allocates
    every buffer, then matches the first band and a thread pool made for
    the call the others; the bands run only in-place ufuncs.

    Memory: no cost volume is kept, so memory does not grow with maxd.
    Shifts are summed in chunks of four through one integral buffer per
    band of (band rows + block_size) * 4 * (width - maxd + 1) cells of the
    cost type: for 329x329 views at maxd 16, 1.8 MB in two int32 bands.
    Besides it come the two shifted views (uint16 when span < 2**16, else
    the cost type) and, over the (height - 2*half) * (width - 2*margin)
    valid pixels (half = block_size // 2, margin = half + maxd), five cost
    planes, one int32 and four 1-byte planes: the current and previous
    cost, the best cost, the costs of the best shift's two neighbours, the
    best shift, and the masks of where this and the previous shift won, of
    ties and of shifts below -d. The parabola computes in float64.

    Ties: shifts run in ascending order from -maxd to +maxd, and the running
    argmin applies the tie rule exactly: shift d <= 0 takes a pixel at equal
    cost, shift d > 0 only from a best below -d. The parabola's neighbour
    costs are tracked on the way: a pixel's cost at d - 1 is kept when d
    takes it, its cost at d + 1 when the next runs.

    Args:
        left: Reference view, (height, width).
        right: Other view of the same size.
        params: Matcher settings.

    Returns:
        DisparityMap of left's geometry.

    Raises:
        ValueError: Either view is complex, the views differ in shape or
            are not 2-D, either holds a value that is not a whole number
            in [-2**63, 2**63) (NaN and infinities included), or
            span * block_size**2 reaches 2**63.
    """
    for name, view in (("left", left), ("right", right)):
        # astype(float64) would keep only the real part.
        if np.iscomplexobj(view):
            raise ValueError(f"{name} view has complex dtype {view.dtype}; views must be real")
    if left.shape != right.shape:
        raise ValueError(f"view sizes differ: {left.shape} vs {right.shape}")
    if left.ndim != 2:
        raise ValueError(f"views must be 2-D, got shape {left.shape}")
    height, width = left.shape
    views, tops, bottoms = [], [], []
    for name, view in (("left", left), ("right", right)):
        if view.dtype.kind not in "biuf":
            view = view.astype(np.float64)
        if view.size:
            top, bottom = view.max(), view.min()
            # NaN fails every comparison; infinities fail the range.
            if view.dtype.kind == "f" and not (
                -(2.0**63) <= bottom and top < 2.0**63 and np.all(np.trunc(view) == view)
            ):
                raise ValueError(
                    f"{name} view holds values that are not whole numbers in [-2**63, 2**63)"
                )
            # Extremes as Python ints: as floats they round above 2**53.
            tops.append(int(top))
            bottoms.append(int(bottom))
        views.append(view)
    b = params.block_size
    half = b // 2
    maxd = params.max_disparity
    margin = half + maxd
    if width <= 2 * margin or height <= 2 * half:
        return DisparityMap(values=np.full((height, width), np.nan))

    inner_h = height - 2 * half
    valid_w = width - 2 * margin
    offset = min(bottoms)
    span = max(tops) - offset
    if span * b * b >= 2**63:
        raise ValueError(f"view span {span} times block_size**2 ({b}**2) reaches 2**63")
    dtype = np.int32 if span * b * b < 2**31 else np.int64
    # Read as int64 and shifted modulo 2**64: exact, uint64 above 2**63 too.
    store = np.uint16 if span < 2**16 else dtype
    shift = np.int64((offset + 2**63) % 2**64 - 2**63)
    lv, rv = (
        np.subtract(v, shift, out=np.empty(v.shape, store), dtype=np.int64, casting="unsafe")
        for v in views
    )
    bands = _band_count(inner_h, b)

    # Planes over the valid pixels only: the columns every shift reaches.
    # costs: current, previous and best cost, then the best shift's left
    # and right neighbour costs.
    costs = np.zeros((5, inner_h, valid_w), dtype)
    costs[2] = np.iinfo(dtype).max
    best_shift = np.zeros((inner_h, valid_w), dtype=np.int32)
    masks = np.zeros((4, inner_h, valid_w), dtype=bool)
    edges = [inner_h * k // bands for k in range(bands + 1)]
    # integral[:, s] is the integral image of shift s of the current chunk,
    # with a zero first row and column; row-major over (row, shift) so one
    # add per image row runs the column sums of the whole chunk.
    jobs = [
        (
            lv[r0 : r1 + b - 1],
            rv[r0 : r1 + b - 1],
            b,
            maxd,
            np.zeros((r1 - r0 + b, _SHIFT_CHUNK, width - maxd + 1), dtype),
            costs[:, r0:r1],
            best_shift[r0:r1],
            masks[:, r0:r1],
        )
        for r0, r1 in zip(edges, edges[1:])
    ]
    with ThreadPoolExecutor(max_workers=max(1, bands - 1)) as pool:
        futures = [pool.submit(_match_rows, *job) for job in jobs[1:]]
        _match_rows(*jobs[0])
        for future in futures:
            future.result()
    # Free the views, integral buffers and masks before the parabola.
    del jobs, views, lv, rv, masks

    values = np.full((height, width), np.nan)
    valid = values[half : height - half, margin : width - margin]
    valid[:] = best_shift
    if params.subpixel:
        # Integer cost planes are read as they are: the parabola computes
        # in float64, where int32 costs convert exactly.
        _, _, best_cost, cost_minus, cost_plus = costs
        np.add(
            valid,
            _subpixel_refine(cost_minus, best_cost, cost_plus),
            out=valid,
            where=np.abs(best_shift) < maxd,
        )

    return DisparityMap(values=values)


def write_map_csv(path: str | Path, values: np.ndarray, header: dict | None = None) -> None:
    """Write a float grid as comma-separated rows with '#' header lines.

    Every cell is printed as %.6f, which writes invalid cells as nan and
    infinities as inf/-inf. A grid that is not 2-D raises ValueError naming
    the path and the shape, and no file is written.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{path}: a map must be 2-D, got shape {arr.shape}")
    lines = [f"# {key}: {value}" for key, value in (header or {}).items()]
    rows, cols = arr.shape
    lines.append(f"# rows: {rows}")
    lines.append(f"# cols: {cols}")
    # One C-level format call per row: as fast as one call over the whole
    # grid, without holding every cell as a Python float at once.
    row_template = ",".join(["%.6f"] * cols) + "\n"
    body = "".join(row_template % tuple(row.tolist()) for row in arr)
    Path(path).write_text("\n".join(lines) + "\n" + body, encoding="ascii")


def read_map_csv(path: str | Path) -> np.ndarray:
    """Read a grid written by write_map_csv.

    A cell that is not a number raises ValueError naming the path and line,
    and so does a byte that is not ASCII. When the header declares the
    grid's rows and cols, a body of another shape (a truncated file, say)
    raises ValueError naming the path and both shapes, and an empty body
    comes back at the declared zero-size shape. An empty body without that
    declaration raises ValueError naming the path. Other header lines are
    ignored.
    """
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        # A ValueError too, but one that names no file.
        number = exc.object.count(b"\n", 0, exc.start) + 1
        byte = exc.object[exc.start]
        raise ValueError(f"{path}:{number}: byte {byte:#04x} is not ASCII") from None
    rows = []
    declared = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = (part.strip() for part in line[1:].partition(":"))
            if sep and key in ("rows", "cols"):
                if not value.isdigit():
                    raise ValueError(f"{path}:{number}: {key} must be a count, got {value!r}")
                declared[key] = int(value)
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError(f"{path}: ragged rows with widths {sorted(widths)}")
    grid = np.array(rows, dtype=np.float64) if rows else np.zeros((0, 0))
    if declared.keys() == {"rows", "cols"}:
        shape = (declared["rows"], declared["cols"])
        if not rows and 0 in shape:
            return np.zeros(shape)
        if grid.shape != shape:
            raise ValueError(
                f"{path}: header declares a {shape[0]}x{shape[1]} map, "
                f"the body holds {grid.shape[0]}x{grid.shape[1]}"
            )
    elif not rows:
        raise ValueError(f"{path}: no map rows, and no declared rows and cols")
    return grid


def to_graymap(values: np.ndarray) -> np.ndarray:
    """Scale a disparity or depth grid onto 0..65535 for graymap export.

    Finite values map linearly onto [0, 65535] as uint16; NaN and infinities
    map to 0. A constant grid maps to mid-scale.
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    out = np.zeros(arr.shape, dtype=np.uint16)
    if not finite.any():
        return out
    lo = arr[finite].min()
    hi = arr[finite].max()
    if hi == lo:
        out[finite] = 65535 // 2
        return out
    if hi / 2 - lo / 2 <= np.finfo(np.float64).max / 2:
        scaled = (arr[finite] - lo) / (hi - lo) * 65535
    else:
        # hi - lo would overflow; halving is exact for normal floats.
        scaled = (arr[finite] / 2 - lo / 2) / (hi / 2 - lo / 2) * 65535
    out[finite] = np.round(scaled).astype(out.dtype)
    return out

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
    """Row bands for the integer path: one per usable core, each >= block rows."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform, e.g. macOS
        cores = os.cpu_count() or 1
    return max(1, min(cores, rows // block))


def _holds_integers(view: np.ndarray) -> bool:
    """True when every value of view is a whole number."""
    if np.issubdtype(view.dtype, np.integer):
        return True
    return np.issubdtype(view.dtype, np.floating) and bool(np.all(np.trunc(view) == view))


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
            # uses. Columns past it are zeroed so they stay finite.
            lo = max(0, d)
            n = width - maxd - lo
            area = block[1:, s, 1 : n + 1]
            np.subtract(
                left[:, lo : lo + n], right[:, lo - d : lo - d + n], out=area, dtype=area.dtype
            )
            np.abs(area, out=area)
            block[1:, s, n + 1 :] = 0
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

    Exact integer costs: when both views hold only integers (an integer
    dtype, or a float dtype whose values are all whole), every cost and
    window sum is an exact integer, so any summation order gives the same
    costs, argmin, ties and parabola. With span = max(both views) -
    min(both views), no window sum exceeds span * block_size**2. While that
    stays below 2**31, the views are shifted by their joint minimum (uint16
    when span < 2**16, int32 otherwise) and the costs run in int32. When
    both views have integer dtypes they are shifted in integer arithmetic,
    so int64 or uint64 views above 2**53 shift exactly, and their map does
    not depend on a shift common to both. The integral image may wrap modulo 2**32, but
    ((A - B) - C) + D still comes out as the exact window sum. The int32
    path is taken only where the float64 path is exact too (every integral
    entry, at most span * height * width, below 2**53), so for views that
    float64 holds exactly both give the same bits. All other views,
    integers above the int32 bound among them, run in float64.

    Bands: an exact window sum does not depend on the row where its
    integral image starts. So on the int32 path the valid rows are split
    into one band per usable core, with at least block_size rows per band.
    Each band has its own integral buffer and its own rows of the result
    planes. The calling thread matches the first band and a thread pool
    made for the call matches the others. Every buffer is allocated in the
    calling thread before the bands start; the bands run only in-place
    ufuncs. The float64 path runs as one band in the calling thread.

    Memory: no cost volume is kept, so memory does not grow with maxd.
    Shifts are summed in chunks of four through one integral buffer per
    band of (band rows + block_size) * 4 * (width - maxd + 1) cells: for
    329x329 views at maxd 16, 3.3 MB in float64 and 1.8 MB in two int32
    bands. Besides it come a fixed five cost planes (8 or 4 bytes), one
    int32 and four 1-byte planes of (height - 2*half) * (width - 2*margin)
    cells over the valid pixels, with half = block_size // 2 and margin =
    half + maxd: the current and previous cost, the best cost, the costs
    of the best shift's two neighbours, the best shift, and the masks of
    where this and the previous shift won, of ties and of shifts below -d.
    The int32 path also holds its two shifted views. The parabola reads
    the int32 cost planes directly and computes in float64.

    Bit stability: shifts run in ascending order from -maxd to +maxd, and
    each runs the same fixed sequence of elementwise passes (absolute
    difference; integral image by sequential running sums down the
    columns, then along the rows, starting at the first column where the
    views overlap; window sum as ((A - B) - C) + D), so equal inputs give
    equal bits on every run and for any number of bands. The running
    argmin applies the tie rule exactly: shift d <= 0 takes a pixel at
    equal cost, shift d > 0 only from a best below -d. The parabola's
    neighbour costs are tracked on the way: a pixel's cost at d - 1 is
    kept when d takes it, its cost at d + 1 when the next shift runs.

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
    tops, bottoms = [], []
    if left.size:
        # Every integral-image entry and cost is at most
        # (max|l| + max|r|)*h*w, and the parabola's largest term,
        # 2*curvature, is at most four costs: 8*max|v|*h*w below the
        # float64 maximum keeps every intermediate finite.
        bound = np.finfo(np.float64).max / (8.0 * height * width)
        for name, view in (("left", left), ("right", right)):
            top, bottom = view.max(), view.min()
            if not (np.isfinite(top) and np.isfinite(bottom)):
                raise ValueError(f"{name} view holds non-finite values")
            magnitude = max(float(top), -float(bottom))
            if magnitude > bound:
                raise ValueError(
                    f"{name} view magnitude {magnitude:.6g} exceeds "
                    f"{bound:.6g} (float64 max / (8*{height}*{width})); "
                    "its matching costs could overflow"
                )
            tops.append(top)
            bottoms.append(bottom)
    half = params.block_size // 2
    maxd = params.max_disparity
    margin = half + maxd
    if width <= 2 * margin or height <= 2 * half:
        return DisparityMap(values=np.full((height, width), np.nan))

    b = params.block_size
    inner_h = height - 2 * half
    valid_w = width - 2 * margin
    integer = all(np.issubdtype(v.dtype, np.integer) for v in (left, right))
    # Integer extremes as Python ints: as floats they round above 2**53.
    exact_value = int if integer else float
    offset = min(map(exact_value, bottoms))
    span = max(map(exact_value, tops)) - offset
    exact = (
        span * b * b < 2**31
        and span * height * width < 2**53
        and _holds_integers(left)
        and _holds_integers(right)
    )
    if exact:
        dtype = np.int32
        # The shifted views lie in [0, span]: PGM views fit uint16. Integer
        # views are shifted modulo 2**64, which is exact there; whole values
        # in float64 minus a whole offset are exact too.
        store = np.uint16 if span < 2**16 else np.int32
        shift, work = (np.uint64(offset % 2**64), np.uint64) if integer else (offset, np.float64)
        lv, rv = (
            np.subtract(v, shift, out=np.empty(v.shape, store), dtype=work, casting="unsafe")
            for v in (left, right)
        )
        bands = _band_count(inner_h, b)
    else:
        dtype = np.float64
        lv = left.astype(np.float64, copy=False)
        rv = right.astype(np.float64, copy=False)
        bands = 1

    # Planes over the valid pixels only: the columns every shift reaches.
    # costs: current, previous and best cost, then the best shift's left
    # and right neighbour costs.
    costs = np.zeros((5, inner_h, valid_w), dtype)
    costs[2] = np.iinfo(dtype).max if exact else np.inf
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
    del jobs, lv, rv, masks

    values = np.full((height, width), np.nan)
    valid = values[half : height - half, margin : width - margin]
    valid[:] = best_shift
    if params.subpixel:
        # Integer cost planes are read as they are: the parabola computes
        # in float64, where they convert exactly.
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
    comes back at the declared zero-size shape. Other header lines are
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

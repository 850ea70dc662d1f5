"""Raw capture to sub-aperture views, and PGM I/O.

A calibrated raw image tiles the sensor with J x H micro images of exactly
M x M pixels, the centre pixel of each sitting on its micro image centre.
Flat sensor coordinates (k, l) and 4-D coordinates (j, h, i, g) are related
by k = j*M + c + i and l = h*M + c + g with c = (M-1)/2. Collecting, from
every micro image, the pixel at one fixed offset (i, g) yields the
sub-aperture view for that offset, one pixel per micro lens. That is a pure
reindexing, so decode returns the light field view-major, indexed
[c + i, c + g, h, j], as a read-only strided view of the raw that copies
nothing. `plenax extract` reads the raw one row offset at a time,
straight from the file, gathers that offset's views through the same map
and writes each view file whole, one file at a time, so it holds neither
the raw nor all the views.
Every P5 file, `plenax render`'s raw and each view included, is written by
one function, _write_graymap, from an iterable of row blocks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .optics import CameraConfig


@dataclass(frozen=True)
class RawLightFieldImage:
    """Calibrated raw capture plus the camera that produced it.

    samples is a (height, width) array, any scalar dtype.
    """

    samples: np.ndarray
    config: CameraConfig

    def __post_init__(self) -> None:
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {self.samples.shape}")
        height, width = self.samples.shape
        _check_raw_size(self.config, width, height)


def _check_raw_size(config: CameraConfig, width: int, height: int, path=None) -> None:
    if width != config.image_width_px or height != config.image_height_px:
        where = "" if path is None else f"{path}: "
        raise ValueError(
            f"{where}raw is {width}x{height} px but the config requires "
            f"{config.image_width_px}x{config.image_height_px} "
            "(micro image size times lens count)"
        )


@dataclass(frozen=True)
class SubApertureImage:
    """One viewpoint's image: a (count_v, count_h) pixel grid."""

    viewpoint: tuple[int, int]
    pixels: np.ndarray


def decode(raw: RawLightFieldImage) -> np.ndarray:
    """Reindex a raw capture into its sub-aperture views, losslessly.

    Returns a read-only (M, M, count_v, count_h) view of raw.samples, in
    which views[c + i, c + g] is viewpoint (i, g). Nothing is copied: the
    views are strided and share the raw's storage, so changing the raw
    afterwards changes them. `plenax extract` writes the same views to
    files without holding the raw.

    Captures are projected upside down through the main lens: decode
    samples[::-1, ::-1], a view that copies nothing either, for upright
    views.
    """
    views = _view_major(raw.samples, raw.config.sensor.micro_image_px)
    views.flags.writeable = False
    return views


def _view_major(samples: np.ndarray, m: int) -> np.ndarray:
    """View-major (M, M, lens rows, lens columns) view of whole micro images.

    The one implementation of the map from raw pixel (h*M + g', j*M + i') to
    views[i', g', h, j]. It only splits and permutes axes, so it never
    copies, whatever the samples' strides.
    """
    height, width = samples.shape
    # (h, g', i', j) -> (i', g', h, j)
    return _lens_columns(samples.reshape(height // m, m, width), m).transpose(2, 1, 0, 3)


def _lens_columns(rows: np.ndarray, m: int) -> np.ndarray:
    """Split the last axis, raw column j*M + i', into (i', j), without copying."""
    return rows.reshape(*rows.shape[:-1], rows.shape[-1] // m, m).swapaxes(-1, -2)


def extract_view(views: np.ndarray, i: int, g: int) -> SubApertureImage:
    """Sub-aperture view at offset (i, g), one pixel per micro lens.

    The pixels are views[c + i, c + g] of decode's array: a read-only,
    strided (count_v, count_h) view of the raw, not copied and not
    contiguous. Copy them before changing them.
    """
    c = views.shape[0] // 2
    if abs(i) > c or abs(g) > c:
        raise ValueError(f"viewpoint ({i}, {g}) outside [-{c}, {c}]^2")
    return SubApertureImage(viewpoint=(i, g), pixels=views[c + i, c + g])


def extract_all_views(views: np.ndarray) -> dict[tuple[int, int], SubApertureImage]:
    """Every sub-aperture view of decode's array, keyed by (i, g)."""
    c = views.shape[0] // 2
    return {
        (i, g): extract_view(views, i, g)
        for g in range(-c, c + 1)
        for i in range(-c, c + 1)
    }


def view_filename(i: int, g: int) -> str:
    """Canonical file name for one view, signed indices."""
    return f"view_{i:+d}_{g:+d}.pgm"


def _read_header(f, path) -> tuple[bool, int, int, int]:
    """Parse magic, width, height and maxval, leaving f at the first sample.

    Tokens are whitespace-separated, with '#' comments running to end of
    line; the single whitespace byte after maxval is consumed.
    """
    magic = f.read(2)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path} is not a P2/P5 portable graymap")
    values = []
    for field in ("width", "height", "maxval"):
        token = b""
        while True:
            ch = f.read(1)
            if not ch or ch.isspace():
                if token:
                    break
                if not ch:
                    raise ValueError(f"{path}: truncated header, no {field}")
            elif ch == b"#" and not token:
                f.readline()
            else:
                token += ch
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"{path}: {field} {token!r} is not an integer") from None
    width, height, maxval = values
    _check_size(path, width, height)
    _check_maxval(path, maxval)
    return magic == b"P5", width, height, maxval


def _check_size(path, width: int, height: int) -> None:
    """The one size rule, for reading and writing: both sides positive."""
    for field, value in (("width", width), ("height", height)):
        if value <= 0:
            raise ValueError(f"{path}: {field} {value} must be positive")


def _check_maxval(path, maxval: int) -> None:
    """The one maxval rule, for reading, writing and rendering: 0 < maxval < 65536."""
    if not (0 < maxval < 65536):
        raise ValueError(f"{path}: maxval {maxval} outside (0, 65536)")


def _body_dtype(maxval: int) -> np.dtype:
    """Sample type of a P5 body: big-endian 16 bits above 255, else 8 bits."""
    return np.dtype(">u2") if maxval > 255 else np.dtype("u1")


def _check_body_length(f, path, width: int, height: int, dtype: np.dtype) -> None:
    need = width * height * dtype.itemsize
    available = os.fstat(f.fileno()).st_size - f.tell()
    if available < need:
        raise ValueError(
            f"{path}: truncated body, {width}x{height} samples need "
            f"{need} bytes, {available} present"
        )


def _check_peak(path, samples: np.ndarray, maxval: int) -> None:
    """Reject a sample above maxval."""
    # An unsigned type whose maximum is maxval or less cannot exceed it.
    if samples.dtype.kind == "u" and 256**samples.dtype.itemsize - 1 <= maxval:
        return
    if samples.size:
        peak = samples.max()
        if peak > maxval:
            raise ValueError(f"{path}: sample {int(peak)} exceeds maxval {maxval}")


def _read_ascii_body(f, path, count: int, maxval: int) -> np.ndarray:
    """The first count samples of a P2 body, as a flat native array."""
    values = f.read().split()
    if len(values) < count:
        raise ValueError(f"{path}: expected {count} samples, got {len(values)}")
    try:
        ints = [int(v) for v in values[:count]]
    except ValueError:
        raise ValueError(f"{path}: samples must be integers") from None
    bad = next((v for v in ints if not 0 <= v <= maxval), None)
    if bad is not None:
        raise ValueError(f"{path}: sample {bad} outside [0, {maxval}]")
    return np.array(ints, dtype=_body_dtype(maxval).newbyteorder("="))


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a portable graymap (P2 ascii or P5 binary).

    A P5 body is read straight into the returned array and byte-swapped in
    place. Malformed input raises ValueError naming the path and the field:
    a non-integer or non-positive dimension, a truncated header or body, or
    a sample above maxval.

    Returns:
        (samples, maxval) with samples as a (height, width) array, uint16
        when maxval > 255 and uint8 otherwise.
    """
    with open(path, "rb") as f:
        binary, width, height, maxval = _read_header(f, path)
        if not binary:
            samples = _read_ascii_body(f, path, width * height, maxval)
            return samples.reshape(height, width), maxval
        dtype = _body_dtype(maxval)
        _check_body_length(f, path, width, height, dtype)
        samples = np.fromfile(f, dtype=dtype, count=width * height)
    if not dtype.isnative:
        samples = samples.byteswap(inplace=True).view(dtype.newbyteorder())
    _check_peak(path, samples, maxval)
    return samples.reshape(height, width), maxval


# Largest block buffer any streamed stage holds, but extract's view gather,
# which takes twice this; a row longer than this gets a buffer of one.
_BLOCK_BYTES = 1 << 20


def _extract_pgm(path: str | Path, config: CameraConfig, out_dir: Path, rotate_180: bool) -> int:
    """Write the views of the raw graymap at path into out_dir, holding no frame.

    The files are byte for byte those write_pgm writes for each view of
    decode(RawLightFieldImage(samples, config)), samples being read_pgm's,
    reversed in both axes with rotate_180, named by view_filename and
    carrying the raw's maxval. Errors name the path as read_pgm's do, and
    so does a raw whose size is not the config's; the header, size, body
    length and samples are all checked before out_dir is made. A maxval
    below the sample type's maximum costs one scan of a P5 body first, a
    block of at most _BLOCK_BYTES at a time.

    The raw is walked one row offset g' = c + g at a time. Raw row h*M + g'
    holds row h of the M views (i, g), so each of its count_v rows is read
    once, with one positioned read into a one-row buffer, and split through
    decode's map into an (M, count_v, count_h) buffer in the file's sample
    type. When that buffer would pass 2 * _BLOCK_BYTES the views go in
    groups that fit, of one view at least, each re-reading the rows. Each
    view file is then opened, written whole in one write and closed before
    the next, so one file is open at a time. With rotate_180, view (i, g)
    is view (-i, -g) read backwards. A P2 body goes through read_pgm's
    parser, then the same gather. An OS error part-way leaves the views
    already written complete and removes the one in progress.

    Returns:
        The number of views written.
    """
    m, c = config.sensor.micro_image_px, config.sensor.half_span
    count_v, count_h = config.mla.count_v, config.mla.count_h
    with open(path, "rb", buffering=0) as f:
        binary, width, height, maxval = _read_header(f, path)
        _check_raw_size(config, width, height, path)
        dtype = _body_dtype(maxval)
        if binary:
            _check_body_length(f, path, width, height, dtype)
            body = f.tell()
            if maxval < np.iinfo(dtype).max:
                step = max(1, _BLOCK_BYTES // (width * dtype.itemsize))
                for first in range(0, height, step):
                    count = min(step, height - first) * width
                    _check_peak(path, np.fromfile(f, dtype, count), maxval)
            row = np.empty(width, dtype)

            def raw_row(r: int) -> np.ndarray:
                f.seek(body + r * row.nbytes)
                f.readinto(row)
                return row
        else:
            samples = _read_ascii_body(f, path, width * height, maxval).reshape(height, width)
            raw_row = samples.__getitem__

        out_dir.mkdir(parents=True, exist_ok=True)
        group = max(1, min(m, 2 * _BLOCK_BYTES // (count_v * count_h * dtype.itemsize)))
        gathered = np.empty((group, count_v, count_h), dtype)
        for g_raw in range(m):
            for first in range(0, m, group):
                part = gathered[: min(group, m - first)]
                for h, r in enumerate(range(g_raw, height, m)):
                    part[:, h] = _lens_columns(raw_row(r), m)[first : first + len(part)]
                for i_raw, view in enumerate(part, first):
                    i, g = i_raw - c, g_raw - c
                    if rotate_180:
                        i, g, view = -i, -g, view[::-1, ::-1]
                    _write_graymap(out_dir / view_filename(i, g), count_h, count_v, maxval, [view])
    return m * m


def _write_graymap(path: str | Path, width: int, height: int, maxval: int, blocks) -> None:
    """Write a binary (P5) graymap from an iterable of row blocks: the one P5 writer.

    The size and maxval are checked before the file is opened. Each block is
    checked against maxval, then written in the file's sample type
    (big-endian for 16 bits): as it stands when it already has that type and
    is contiguous, else converted through one reused buffer. An error, or a
    row count other than the height, removes the file.
    """
    _check_size(path, width, height)
    _check_maxval(path, maxval)
    path, dtype = Path(path), _body_dtype(maxval)
    rows, buffer = 0, None
    # Unbuffered: the header and each block go out in one write each, never
    # copied through a file buffer.
    with path.open("wb", buffering=0) as f:
        try:
            _write_all(f, f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
            for block in blocks:
                if block.shape[1:] != (width,):
                    raise ValueError(f"{path}: a {block.shape} block is not {width} wide")
                _check_peak(path, block, maxval)
                if block.dtype != dtype or not block.flags.c_contiguous:
                    if buffer is None or len(buffer) < len(block):
                        buffer = np.empty(block.shape, dtype)
                    out = buffer[: len(block)]
                    np.copyto(out, block, casting="unsafe")
                    block = out
                _write_all(f, block)
                rows += len(block)
            if rows != height:
                raise ValueError(f"{path}: wrote {rows} of {height} rows")
        except BaseException:
            f.close()
            path.unlink(missing_ok=True)
            raise


def _write_all(f, data) -> None:
    """Write every byte of data to the unbuffered file f."""
    view = memoryview(data).cast("B")
    while view:  # a raw write may take fewer bytes than it is given
        view = view[f.write(view) :]


def write_pgm(path: str | Path, samples: np.ndarray, maxval: int) -> None:
    """Write a (height, width) integer array as a binary (P5) portable graymap.

    The size and every sample are checked before the file is opened, one
    row block of at most 1 MiB at a time, so float checks make block-sized
    temporaries only. The blocks then go to _write_graymap, the one P5
    writer, which `plenax render` and `plenax extract` call too. It converts
    them to the file's sample type (big-endian for 16 bits) in one reused
    buffer, so no frame-sized copy is made; the bytes are those of
    astype(dtype).tofile.

    Args:
        path: Destination file.
        samples: Nonnegative whole values, each <= maxval: bool, integer or
            float. Float samples must hold whole numbers; they are never
            rounded.
        maxval: Declared maximum, 1 to 65535; it sets the sample type,
            16 bits above 255.

    Raises:
        ValueError: naming the path, for anything read_pgm would reject or
            read back differently, an empty array included.
    """
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise ValueError(f"{path}: samples must be 2-D, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{path}: graymap samples must be numeric, got dtype {arr.dtype}")
    height, width = arr.shape
    rows = max(1, _BLOCK_BYTES // max(1, width * max(arr.dtype.itemsize, 2)))
    blocks = [arr[start : start + rows] for start in range(0, height, rows)]
    peak = 0
    for block in blocks:
        if block.dtype.kind == "f":
            whole = np.isfinite(block) & (np.floor(block) == block)
            if not whole.all():
                bad = block[~whole][0]
                raise ValueError(f"{path}: graymap samples must be finite integers, got {bad}")
        if block.size:
            if block.min() < 0:
                raise ValueError(f"{path}: graymap samples must be nonnegative")
            peak = max(peak, int(block.max()))
    _check_maxval(path, maxval)
    if peak > maxval:
        raise ValueError(f"{path}: sample {peak} exceeds maxval {maxval}")
    _write_graymap(path, width, height, maxval, blocks)

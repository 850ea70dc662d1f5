"""Raw capture to sub-aperture views, and PGM I/O.

A calibrated raw image tiles the sensor with J x H micro images of exactly
M x M pixels, the centre pixel of each sitting on its micro image centre.
Flat sensor coordinates (k, l) and 4-D coordinates (j, h, i, g) are related
by k = j*M + c + i and l = h*M + c + g with c = (M-1)/2. Collecting, from
every micro image, the pixel at one fixed offset (i, g) yields the
sub-aperture view for that offset, one pixel per micro lens. decode stores
the light field view-major, as one array indexed [c + i, c + g, h, j], and
fills it one lens row (M raw rows) at a time; `plenax extract` streams those
lens rows straight from the file, so it never holds the raw as well.
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


def decode(raw: RawLightFieldImage, rotate_180: bool = False) -> np.ndarray:
    """Reindex a raw capture into its sub-aperture views, losslessly.

    Copies the raw once, one lens row (M raw rows) at a time, into a new
    read-only C-contiguous array of shape (M, M, count_v, count_h) where
    views[c + i, c + g] is viewpoint (i, g); views extracted from it share
    that storage. Only the returned array is frame-sized.

    Args:
        raw: Calibrated raw image.
        rotate_180: Rotate the raw by 180 degrees first. Captures are
            projected upside down through the main lens; rotating before
            decoding yields upright views. Applying the flag twice restores
            the original orientation.
    """
    m = raw.config.sensor.micro_image_px
    views = _empty_views(raw.config, raw.samples.dtype)
    for row in range(raw.config.mla.count_v):
        _place_lens_row(views, row, raw.samples[row * m : (row + 1) * m], rotate_180)
    views.flags.writeable = False
    return views


def _empty_views(config: CameraConfig, dtype) -> np.ndarray:
    m = config.sensor.micro_image_px
    return np.empty((m, m, config.mla.count_v, config.mla.count_h), dtype=dtype)


def _place_lens_row(views: np.ndarray, row: int, block: np.ndarray, rotate_180: bool) -> None:
    """Copy lens row `row` of the raw, its (M, count_h * M) block, into views.

    The one implementation of the map from raw pixel (h*M + g', j*M + i') to
    views[i', g', h, j]. Rotated by 180 degrees, lens row h lands flipped at
    count_v - 1 - h.
    """
    m, _, count_v, count_h = views.shape
    if rotate_180:
        row, block = count_v - 1 - row, block[::-1, ::-1]
    # (g', j, i') -> (i', g', j)
    views[:, :, row] = block.reshape(m, count_h, m).transpose(2, 0, 1)


def extract_view(views: np.ndarray, i: int, g: int) -> SubApertureImage:
    """Sub-aperture view at offset (i, g), one pixel per micro lens.

    The pixels are the contiguous (count_v, count_h) block views[c + i, c + g]
    of decode's array, read-only and not copied: copy them before changing
    them.
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
    for field, value in (("width", width), ("height", height)):
        if value <= 0:
            raise ValueError(f"{path}: {field} {value} must be positive")
    _check_maxval(path, maxval)
    return magic == b"P5", width, height, maxval


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
    """Reject a native integer sample above maxval."""
    # maxval 255 and 65535 fill the dtype, so no sample can exceed them.
    if maxval != np.iinfo(samples.dtype).max:
        peak = int(samples.max())
        if peak > maxval:
            raise ValueError(f"{path}: sample {peak} exceeds maxval {maxval}")


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
    return np.array(ints, dtype=np.uint16 if maxval > 255 else np.uint8)


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


def _decode_pgm(
    path: str | Path, config: CameraConfig, rotate_180: bool = False
) -> tuple[np.ndarray, int]:
    """decode(RawLightFieldImage(read_pgm(path))) without holding the raw.

    A P5 body is read one lens row (M raw rows) at a time into one reused
    block, which is byte-swapped in place, checked against maxval and placed
    into the views, so the views are the only frame-sized array. A P2 body
    goes through read_pgm's parser and decode. Errors name the path, as
    read_pgm's do, and so does a raw whose size is not the config's.

    Returns:
        (views, maxval), views as decode returns them.
    """
    with open(path, "rb") as f:
        binary, width, height, maxval = _read_header(f, path)
        _check_raw_size(config, width, height, path)
        if not binary:
            samples = _read_ascii_body(f, path, width * height, maxval)
            raw = RawLightFieldImage(samples=samples.reshape(height, width), config=config)
            return decode(raw, rotate_180), maxval
        dtype = _body_dtype(maxval)
        _check_body_length(f, path, width, height, dtype)
        block = np.empty((config.sensor.micro_image_px, width), dtype.newbyteorder("="))
        views = _empty_views(config, block.dtype)
        for row in range(config.mla.count_v):
            f.readinto(block)
            if not dtype.isnative:
                block.byteswap(inplace=True)
            _check_peak(path, block, maxval)
            _place_lens_row(views, row, block, rotate_180)
    views.flags.writeable = False
    return views, maxval


# Largest conversion buffer write_pgm holds; a row longer than this gets a
# buffer of one row.
_BLOCK_BYTES = 1 << 20


def write_pgm(path: str | Path, samples: np.ndarray, maxval: int | None = None) -> None:
    """Write a (height, width) integer array as a binary (P5) portable graymap.

    Every sample is checked before the file is opened. The samples are then
    converted to the file's sample type (big-endian for 16 bits) one row
    block at a time, through one reused buffer of at most 1 MiB, so no
    frame-sized copy is made; the bytes are those of astype(dtype).tofile.
    Float checks run per block too, with block-sized temporaries.

    Args:
        path: Destination file.
        samples: Nonnegative whole values, each <= maxval: bool, integer or
            float. Float samples must hold whole numbers; they are never
            rounded.
        maxval: Declared maximum, 1 to 65535; defaults to 255 or 65535
            depending on the data's actual maximum.

    Raises:
        ValueError: naming the path, for anything read_pgm would reject or
            read back differently.
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
    if maxval is None:
        maxval = 255 if peak <= 255 else 65535
    _check_maxval(path, maxval)
    if peak > maxval:
        raise ValueError(f"{path}: sample {peak} exceeds maxval {maxval}")
    buffer = np.empty((min(rows, height), width), dtype=_body_dtype(maxval))
    with Path(path).open("wb") as f:
        f.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        for block in blocks:
            out = buffer[: len(block)]
            np.copyto(out, block, casting="unsafe")
            out.tofile(f)

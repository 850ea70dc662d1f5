"""Raw capture to sub-aperture views, and PGM I/O.

A calibrated raw image tiles the sensor with J x H micro images of exactly
M x M pixels, the centre pixel of each sitting on its micro image centre.
Flat sensor coordinates (k, l) and 4-D coordinates (j, h, i, g) are related
by k = j*M + c + i and l = h*M + c + g with c = (M-1)/2. Collecting, from
every micro image, the pixel at one fixed offset (i, g) yields the
sub-aperture view for that offset, one pixel per micro lens. decode stores
the light field view-major, as one array indexed [c + i, c + g, h, j].
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
        if width != self.config.image_width_px or height != self.config.image_height_px:
            raise ValueError(
                f"raw is {width}x{height} px but the config requires "
                f"{self.config.image_width_px}x{self.config.image_height_px} "
                "(micro image size times lens count)"
            )


@dataclass(frozen=True)
class SubApertureImage:
    """One viewpoint's image: a (count_v, count_h) pixel grid."""

    viewpoint: tuple[int, int]
    pixels: np.ndarray


def decode(raw: RawLightFieldImage, rotate_180: bool = False) -> np.ndarray:
    """Reindex a raw capture into its sub-aperture views, losslessly.

    Makes one copy of the raw, into a read-only C-contiguous array of shape
    (M, M, count_v, count_h) where views[c + i, c + g] is viewpoint (i, g);
    views extracted from it share that storage.

    Args:
        raw: Calibrated raw image.
        rotate_180: Rotate the raw by 180 degrees first. Captures are
            projected upside down through the main lens; rotating before
            decoding yields upright views. Applying the flag twice restores
            the original orientation.
    """
    m = raw.config.sensor.micro_image_px
    count_h = raw.config.mla.count_h
    count_v = raw.config.mla.count_v
    samples = raw.samples
    if rotate_180:
        samples = samples[::-1, ::-1]
    # (l, k) -> (h, g', j, i') -> view-major (i', g', h, j): the one copy.
    views = np.ascontiguousarray(samples.reshape(count_v, m, count_h, m).transpose(3, 1, 0, 2))
    # Flag a view, so the caller's raw stays writable even if it came back uncopied.
    views = views.view()
    views.flags.writeable = False
    return views


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
        count = width * height
        if binary:
            dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
            available = os.fstat(f.fileno()).st_size - f.tell()
            if available < count * dtype.itemsize:
                raise ValueError(
                    f"{path}: truncated body, {width}x{height} samples need "
                    f"{count * dtype.itemsize} bytes, {available} present"
                )
            samples = np.fromfile(f, dtype=dtype, count=count)
            if not dtype.isnative:
                samples = samples.byteswap(inplace=True).view(dtype.newbyteorder())
            # maxval 255 and 65535 fill the dtype, so no sample can exceed them.
            if maxval != np.iinfo(dtype).max:
                peak = int(samples.max())
                if peak > maxval:
                    raise ValueError(f"{path}: sample {peak} exceeds maxval {maxval}")
        else:
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
            samples = np.array(ints, dtype=np.uint16 if maxval > 255 else np.uint8)
    return samples.reshape(height, width), maxval


def write_pgm(path: str | Path, samples: np.ndarray, maxval: int | None = None) -> None:
    """Write a (height, width) integer array as a binary (P5) portable graymap.

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
    if arr.dtype.kind == "f":
        whole = np.isfinite(arr) & (np.floor(arr) == arr)
        if not whole.all():
            bad = arr[~whole][0]
            raise ValueError(f"{path}: graymap samples must be finite integers, got {bad}")
    if arr.size and (arr.min() < 0):
        raise ValueError(f"{path}: graymap samples must be nonnegative")
    peak = int(arr.max()) if arr.size else 0
    if maxval is None:
        maxval = 255 if peak <= 255 else 65535
    _check_maxval(path, maxval)
    if peak > maxval:
        raise ValueError(f"{path}: sample {peak} exceeds maxval {maxval}")
    height, width = arr.shape
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with Path(path).open("wb") as f:
        f.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        arr.astype(dtype).tofile(f)

"""Raw capture to 4-D light field to sub-aperture views.

A calibrated raw image tiles the sensor with J x H micro images of exactly
M x M pixels, the centre pixel of each sitting on its micro image centre.
Flat sensor coordinates (k, l) and 4-D coordinates (j, h, i, g) are related
by k = j*M + c + i and l = h*M + c + g with c = (M-1)/2. Collecting, from
every micro image, the pixel at one fixed offset (i, g) yields the
sub-aperture view for that offset, one pixel per micro lens.
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
class LightField4D:
    """Decoded samples indexed [j, h, i + c, g + c].

    The samples are stored view-major, as one C-contiguous array indexed
    [i + c, g + c, h, j], so each sub-aperture view is a contiguous
    (count_v, count_h) block. samples is a transposed, read-only view of
    that storage. Samples given in any other layout are copied into it once.
    """

    samples: np.ndarray
    config: CameraConfig

    def __post_init__(self) -> None:
        m = self.config.sensor.micro_image_px
        expected = (self.config.mla.count_h, self.config.mla.count_v, m, m)
        if self.samples.shape != expected:
            raise ValueError(
                f"samples shape {self.samples.shape} does not match {expected}"
            )
        views = np.ascontiguousarray(self.samples.transpose(2, 3, 1, 0)).view()
        views.flags.writeable = False
        object.__setattr__(self, "samples", views.transpose(3, 2, 0, 1))


@dataclass(frozen=True)
class SubApertureImage:
    """One viewpoint's image: a (count_v, count_h) pixel grid."""

    viewpoint: tuple[int, int]
    pixels: np.ndarray


def decode(raw: RawLightFieldImage, rotate_180: bool = False) -> LightField4D:
    """Reindex a raw capture into the 4-D light field, losslessly.

    Makes one copy of the raw, into the view-major storage LightField4D
    describes; views extracted from the result share it.

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
    return LightField4D(samples=views.transpose(3, 2, 0, 1), config=raw.config)


def flatten(lf: LightField4D) -> RawLightFieldImage:
    """Inverse of decode: reassemble the raw sensor image bit-exactly."""
    m = lf.config.sensor.micro_image_px
    count_h = lf.config.mla.count_h
    count_v = lf.config.mla.count_v
    raw = lf.samples.transpose(1, 3, 0, 2).reshape(count_v * m, count_h * m)
    return RawLightFieldImage(samples=np.ascontiguousarray(raw), config=lf.config)


def extract_view(lf: LightField4D, i: int, g: int) -> SubApertureImage:
    """Sub-aperture view at offset (i, g), one pixel per micro lens.

    The pixels are the contiguous (count_v, count_h) block of the light
    field's view-major storage, read-only and not copied: copy them before
    changing them.
    """
    c = lf.config.sensor.half_span
    if abs(i) > c or abs(g) > c:
        raise ValueError(f"viewpoint ({i}, {g}) outside [-{c}, {c}]^2")
    pixels = lf.samples.transpose(2, 3, 1, 0)[c + i, c + g]
    return SubApertureImage(viewpoint=(i, g), pixels=pixels)


def extract_all_views(lf: LightField4D) -> dict[tuple[int, int], SubApertureImage]:
    """Every sub-aperture view, keyed by (i, g)."""
    c = lf.config.sensor.half_span
    return {
        (i, g): extract_view(lf, i, g)
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
    if not (0 < maxval < 65536):
        raise ValueError(f"{path}: maxval {maxval} outside (0, 65536)")
    return magic == b"P5", width, height, maxval


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


# Rows converted to the file's sample type at a time, so the big-endian copy
# of a frame never exceeds this many bytes (one row at least).
_WRITE_BLOCK_BYTES = 1 << 20


def write_pgm(
    path: str | Path,
    samples: np.ndarray,
    maxval: int | None = None,
    binary: bool = True,
) -> None:
    """Write a (height, width) integer array as a portable graymap.

    Args:
        path: Destination file.
        samples: Nonnegative integer values, each <= maxval.
        maxval: Declared maximum; defaults to 255 or 65535 depending on the
            data's actual maximum.
        binary: P5 when true, ascii P2 otherwise. P5 samples are converted
            to the file's type in blocks of rows of at most 1 MiB.
    """
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise ValueError(f"samples must be 2-D, got shape {arr.shape}")
    if arr.size and (arr.min() < 0):
        raise ValueError("graymap samples must be nonnegative")
    peak = int(arr.max()) if arr.size else 0
    if maxval is None:
        maxval = 255 if peak <= 255 else 65535
    if peak > maxval:
        raise ValueError(f"sample {peak} exceeds maxval {maxval}")
    height, width = arr.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n"
    path = Path(path)
    if binary:
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        rows = max(1, _WRITE_BLOCK_BYTES // max(1, width * dtype.itemsize))
        with path.open("wb") as f:
            f.write(header.encode("ascii"))
            for top in range(0, height, rows):
                f.write(np.ascontiguousarray(arr[top : top + rows], dtype=dtype))
    else:
        lines = "\n".join(" ".join(str(v) for v in row) for row in arr.tolist())
        path.write_text(header + lines + "\n", encoding="ascii")

"""Raw capture to 4-D light field to sub-aperture views.

A calibrated raw image tiles the sensor with J x H micro images of exactly
M x M pixels, the centre pixel of each sitting on its micro image centre.
Flat sensor coordinates (k, l) and 4-D coordinates (j, h, i, g) are related
by k = j*M + c + i and l = h*M + c + g with c = (M-1)/2. Collecting, from
every micro image, the pixel at one fixed offset (i, g) yields the
sub-aperture view for that offset, one pixel per micro lens.
"""

from __future__ import annotations

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
    """Decoded samples indexed [j, h, i + c, g + c]."""

    samples: np.ndarray
    config: CameraConfig

    def __post_init__(self) -> None:
        m = self.config.sensor.micro_image_px
        expected = (self.config.mla.count_h, self.config.mla.count_v, m, m)
        if self.samples.shape != expected:
            raise ValueError(
                f"samples shape {self.samples.shape} does not match {expected}"
            )


@dataclass(frozen=True)
class SubApertureImage:
    """One viewpoint's image: a (count_v, count_h) pixel grid."""

    viewpoint: tuple[int, int]
    pixels: np.ndarray

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def index_translate(j: int, i: int, micro_image_px: int) -> int:
    """Flat sensor index k for micro lens j at viewpoint offset i."""
    c = (micro_image_px - 1) // 2
    if abs(i) > c:
        raise ValueError(f"viewpoint offset {i} outside [-{c}, {c}]")
    if j < 0:
        raise ValueError(f"micro lens index must be >= 0, got {j}")
    return j * micro_image_px + c + i


def index_invert(k: int, micro_image_px: int) -> tuple[int, int]:
    """Micro lens index and viewpoint offset for flat sensor index k."""
    if k < 0:
        raise ValueError(f"flat index must be >= 0, got {k}")
    c = (micro_image_px - 1) // 2
    j, rem = divmod(k, micro_image_px)
    return j, rem - c


def decode(raw: RawLightFieldImage, rotate_180: bool = False) -> LightField4D:
    """Reindex a raw capture into the 4-D light field, losslessly.

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
    # (l, k) -> (h, g', j, i') -> (j, h, i', g')
    four_d = samples.reshape(count_v, m, count_h, m).transpose(2, 0, 3, 1)
    return LightField4D(samples=np.ascontiguousarray(four_d), config=raw.config)


def flatten(lf: LightField4D) -> RawLightFieldImage:
    """Inverse of decode: reassemble the raw sensor image bit-exactly."""
    m = lf.config.sensor.micro_image_px
    count_h = lf.config.mla.count_h
    count_v = lf.config.mla.count_v
    raw = lf.samples.transpose(1, 3, 0, 2).reshape(count_v * m, count_h * m)
    return RawLightFieldImage(samples=np.ascontiguousarray(raw), config=lf.config)


def extract_view(lf: LightField4D, i: int, g: int) -> SubApertureImage:
    """Sub-aperture view at offset (i, g), one pixel per micro lens."""
    c = lf.config.sensor.half_span
    if abs(i) > c or abs(g) > c:
        raise ValueError(f"viewpoint ({i}, {g}) outside [-{c}, {c}]^2")
    pixels = lf.samples[:, :, c + i, c + g].T
    return SubApertureImage(viewpoint=(i, g), pixels=np.ascontiguousarray(pixels))


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


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a portable graymap (P2 ascii or P5 binary).

    Returns:
        (samples, maxval) with samples as a (height, width) integer array.
    """
    data = Path(path).read_bytes()
    if data[:2] not in (b"P2", b"P5"):
        raise ValueError(f"{path} is not a P2/P5 portable graymap")
    binary = data[:2] == b"P5"

    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments running to end of line.
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(int(data[pos:end]))
            pos = end
    width, height, maxval = tokens
    if not (0 < maxval < 65536):
        raise ValueError(f"{path}: maxval {maxval} outside (0, 65536)")

    if binary:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height
        samples = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        samples = samples.astype(np.uint16 if maxval > 255 else np.uint8)
    else:
        values = data[pos:].split()
        if len(values) < width * height:
            raise ValueError(f"{path}: expected {width * height} samples")
        samples = np.array(
            [int(v) for v in values[: width * height]],
            dtype=np.uint16 if maxval > 255 else np.uint8,
        )
    return samples.reshape(height, width), maxval


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
        binary: P5 when true, ascii P2 otherwise.
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
        # Stream the samples after the header: joining them into one bytes
        # object would add two more frame-sized copies (18 MB each for f197).
        with path.open("wb") as f:
            f.write(header.encode("ascii"))
            arr.astype(dtype, copy=False).tofile(f)
    else:
        lines = "\n".join(" ".join(str(v) for v in row) for row in arr.tolist())
        path.write_text(header + lines + "\n", encoding="ascii")

"""Independent ray-trace check of the virtual camera model, plus a renderer.

Everything in this module deliberately avoids the closed-form expressions in
raymodel. Rays are pushed through the optical train one step at a time:
free-space advances, and every micro lens traced as the front surface, glass
path and back surface of MicroLensSpec.lens, the one lenslet model. Then
quantities such as the pupil location, camera positions, baselines and
triangulated distances are recovered by brute-force intersection of the
traced object-space lines. Agreement between the two routes is a regression
check on both.

Every entry point takes only the camera, and _geometry solves its focus, so
no trace can pair one camera with another camera's focus state.

The trace state is (height, slope) with slopes stored as reduced angles, so a
translation inside glass advances by thickness / index and a surface applies
slope -= (height - center) * power. In air the reduced angle equals the
geometric slope.

The same machinery renders synthetic raw images: textured frontal planes are
sampled along every traced chief ray and assembled into the mosaic layout
that lightfield.decode expects, which gives the matching pipeline a ground
truth with a known disparity. Every texture is one integer image, quantized
once onto the raw's range: a file texture is its graymap, a checker the 2x2
image [[0, 1], [1, 0]]. Both are tiled and sampled nearest-neighbour by the
same rule, _texel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lightfield import (
    _BLOCK_BYTES,
    RawLightFieldImage,
    _body_dtype,
    _check_maxval,
    _lens_columns,
    read_pgm,
)
from .optics import CameraConfig, derive_focus_state


def _through_lenslet(h, u, lens, toward_scene=False):
    """Trace (height, slope) through a MicroLensSpec.lens in traversal order.

    One surface, the reduced-thickness advance, then the other surface: the
    front first on the way to the sensor, the back first on the way to the
    scene. Heights are measured from the lenslet's own axis. A thin lenslet
    has all its power at the front and no thickness, so its back surface and
    advance pass the ray through unchanged. Heights and slopes may be arrays;
    every step then acts elementwise.
    """
    first, second = lens.power_front, lens.power_back
    if toward_scene:
        first, second = second, first
    u = u - h * first
    h = h + u * lens.reduced_thickness
    u = u - h * second
    return h, u


@dataclass(frozen=True)
class _Geometry:
    """Axial positions (z from the sensor, increasing toward the scene) and
    the exit pupil distance d_ap, as the camera's focus fixes them."""

    exit_vertex_z_mm: float  # last lenslet surface on the scene side
    lens_plane_z_mm: float  # aim target: object-side principal plane column
    pupil_z_mm: float
    main_lens_z_mm: float
    sensor_gap_mm: float  # sensor to first lenslet surface
    d_ap_mm: float  # lenslet principal plane to exit pupil


def _geometry(config: CameraConfig) -> _Geometry:
    """The camera's axial layout at its focus; the oracle's one focus solve."""
    state = derive_focus_state(config)
    mla = config.mla
    # The sensor sits one focal length behind the image-side principal
    # plane; the vertices and the object-side plane follow from it.
    sensor_gap = mla.focal_length_mm + mla.lens.h2_from_back
    exit_vertex = sensor_gap + mla.lens.thickness
    lens_plane = exit_vertex - mla.lens.h1_from_front
    return _Geometry(
        exit_vertex_z_mm=exit_vertex,
        lens_plane_z_mm=lens_plane,
        pupil_z_mm=lens_plane + state.d_ap_mm,
        main_lens_z_mm=lens_plane + state.b_u_mm,
        sensor_gap_mm=sensor_gap,
        d_ap_mm=state.d_ap_mm,
    )


def _micro_image_centers(s, config: CameraConfig, geom: _Geometry):
    """Sensor landing points of the pupil-center rays, one per lenslet.

    Traced from the pupil center back through the lenslet surfaces; the
    aiming line passes each lenslet's principal point, which is the traced
    counterpart of a pinhole at the lenslet center. Heights are measured
    from the axis of the lenslet at s, so the pupil center sits at -s.
    """
    u = s / geom.d_ap_mm
    h = -s + u * (geom.pupil_z_mm - geom.exit_vertex_z_mm)
    h, u = _through_lenslet(h, u, config.mla.lens)
    return h + u * geom.sensor_gap_mm


def _chief_rays(i, j, config: CameraConfig):
    """Object-space chief rays for micro image samples (i, j).

    i and j broadcast. Returns (slope, height at the main lens object-side
    principal plane), so each ray is the line slope * z + height with z
    measured from that plane.

    The chief ray through sensor point u is pinned down by aiming: its
    object-side line must cross the lenslet principal plane at the lenslet
    center. The trace is affine in the launch slope, so two trial traces
    solve the aim exactly.

    Up to the main lens, heights are measured from each lenslet's own axis.
    A sensor point's rounding error reaches the main lens magnified by
    b_u / f_s, so it must be a few pixels wide, not up to half the array.
    """
    offset = (config.mla.count_h - 1) / 2.0
    s = (np.asarray(j, dtype=float) - offset) * config.mla.pitch_mm
    i, s = np.broadcast_arrays(np.asarray(i, dtype=float), s)
    geom = _geometry(config)
    u = _micro_image_centers(s, config, geom) + i * config.sensor.pixel_pitch_mm

    reach_back = geom.lens_plane_z_mm - geom.exit_vertex_z_mm

    def line_height_at_plane(slope):
        # Sensor to the back vertex, then through the lenslet to the scene.
        h, slope = _through_lenslet(
            u + slope * geom.sensor_gap_mm, slope, config.mla.lens, toward_scene=True
        )
        return h + slope * reach_back, h, slope

    h0 = line_height_at_plane(np.zeros_like(u))[0]
    h1 = line_height_at_plane(np.ones_like(u))[0]
    gain = h1 - h0
    if np.any(gain == 0):
        raise ValueError("degenerate lenslet geometry, cannot aim chief rays")
    _, h_out, slope_out = line_height_at_plane(-h0 / gain)

    reach_main = geom.main_lens_z_mm - geom.exit_vertex_z_mm
    height_at_main = s + (h_out + slope_out * reach_main)
    slope_obj = slope_out - height_at_main / config.main_lens.focal_length_mm
    return slope_obj, height_at_main


def _intersect(q1, u1, q2, u2):
    dq = q1 - q2
    if np.any(dq == 0):
        raise ValueError("parallel rays do not intersect")
    z = (u2 - u1) / dq
    return z, q1 * z + u1


@dataclass(frozen=True)
class VirtualCameraSimulation:
    """Brute-force reconstruction of the virtual camera array.

    positions_mm[c + i] is viewpoint i; intersection_spread_mm is the widest
    deviation of any ray crossing from its viewpoint mean, in either
    coordinate. Each crossing pairs the rays through lenslets count_h // 2
    apart.
    """

    entrance_pupil_to_h1_mm: float
    positions_mm: tuple
    tilt_angles_rad: tuple
    intersection_spread_mm: float


def simulate_virtual_cameras(config: CameraConfig) -> VirtualCameraSimulation:
    """Locate every viewpoint by intersecting its rays pairwise.

    The ray through lenslet j is crossed with the ray through lenslet
    j + count_h // 2. Rays through adjacent lenslets are nearly parallel,
    so their crossing would magnify float64 rounding by the inverse of
    their small slope difference; half the array apart keeps the crossings
    well conditioned and still covers every lenslet.
    """
    c = config.sensor.half_span
    count = config.mla.count_h
    apart = count // 2

    # Row c + i holds viewpoint i's rays through every lenslet.
    q, u = _chief_rays(np.arange(-c, c + 1)[:, None], np.arange(count)[None, :], config)
    z, x = _intersect(q[:, :-apart], u[:, :-apart], q[:, apart:], u[:, apart:])
    x_mean = x.mean(axis=1)
    z_mean = z.ravel().mean()
    spread = max(np.abs(x - x_mean[:, None]).max(), np.abs(z - z_mean).max())
    return VirtualCameraSimulation(
        entrance_pupil_to_h1_mm=float(z_mean),
        positions_mm=tuple(float(v) for v in x_mean),
        tilt_angles_rad=tuple(float(v) for v in np.arctan(q[:, (count - 1) // 2])),
        intersection_spread_mm=float(spread),
    )


def simulate_distance(config: CameraConfig, gap: int, delta_x_px: float) -> float:
    """Distance at which two viewpoints see one point delta_x pixels apart.

    Intersects the chief ray of viewpoint i through the central lenslet with
    the ray of viewpoint i + gap through the lenslet delta_x further down,
    for the centred pair i = -(gap // 2), where gap is an integer whose
    pair lies inside the micro image span. The intersection is referred to
    the traced entrance pupil. Rays whose slopes agree to within float
    resolution are parallel and the point is at infinity.
    """
    if not isinstance(gap, numbers.Integral) or gap < 1:
        raise ValueError(f"gap must be an integer >= 1, got {gap!r}")
    if not math.isfinite(delta_x_px):
        raise ValueError(f"delta_x must be finite, got {delta_x_px}")
    i_low = -(gap // 2)
    if abs(i_low) > config.sensor.half_span or abs(i_low + gap) > config.sensor.half_span:
        raise ValueError(f"gap {gap} exceeds the micro image span")
    centre = (config.mla.count_h - 1) / 2.0
    q1, u1 = _chief_rays(i_low, centre, config)
    q2, u2 = _chief_rays(i_low + gap, centre - delta_x_px, config)
    if abs(q1 - q2) <= 1e-12 * max(1.0, abs(q1), abs(q2)):
        return math.inf
    z = (u2 - u1) / (q1 - q2)
    pupil = simulate_virtual_cameras(config).entrance_pupil_to_h1_mm
    return float(z - pupil)


# ---------------------------------------------------------------------------
# Synthetic scenes


@dataclass(frozen=True)
class ScenePlane:
    """Textured frontal plane at depth_mm in front of the entrance pupil.

    Either texture is one image, tiled with argument_mm per texel and
    sampled nearest-neighbour: "file" is the graymap at path, "checker" the
    2x2 image [[0, 1], [1, 0]], so argument_mm is its square period.
    band, when set, restricts the plane to x in [band[0], band[1]] mm and
    leaves everything outside transparent.
    """

    depth_mm: float
    texture: str
    argument_mm: float
    path: str | None = None
    band: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.depth_mm) and self.depth_mm > 0):
            raise ValueError(f"plane depth must lie in front of the pupil, got {self.depth_mm}")
        if self.texture not in ("checker", "file"):
            raise ValueError(f"unknown texture {self.texture!r}")
        if not (math.isfinite(self.argument_mm) and self.argument_mm > 0):
            raise ValueError(f"texture scale must be positive, got {self.argument_mm}")
        if self.texture == "file" and not self.path:
            raise ValueError("file texture needs a path")
        if self.band is not None and not self.band[0] < self.band[1]:
            raise ValueError(f"empty band {self.band}")


def parse_scene(text: str) -> tuple[ScenePlane, ...]:
    """Parse a scene description.

    One plane per line:
        plane <depth_mm> checker <period_mm> [band <x_from> <x_to>]
        plane <depth_mm> file <path> <mm_per_pixel> [band <x_from> <x_to>]
    Blank lines and lines starting with '#' are skipped.
    """
    planes = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if tokens[0] != "plane":
                raise ValueError(f"expected 'plane', got {tokens[0]!r}")
            depth = float(tokens[1])
            kind = tokens[2]
            if kind == "checker":
                plane = dict(depth_mm=depth, texture="checker", argument_mm=float(tokens[3]))
                rest = tokens[4:]
            elif kind == "file":
                plane = dict(
                    depth_mm=depth, texture="file", path=tokens[3], argument_mm=float(tokens[4])
                )
                rest = tokens[5:]
            else:
                raise ValueError(f"unknown texture {kind!r}")
            if rest:
                if rest[0] != "band" or len(rest) != 3:
                    raise ValueError(f"trailing tokens {rest}")
                plane["band"] = (float(rest[1]), float(rest[2]))
            planes.append(ScenePlane(**plane))
        except (IndexError, ValueError) as exc:
            raise ValueError(f"scene line {lineno}: {exc}") from exc
    if not planes:
        raise ValueError("scene describes no planes")
    return tuple(planes)


def _texture_image(plane: ScenePlane, base_dir: Path | None, maxval: int) -> np.ndarray:
    """The plane's texture quantized onto 0..maxval in a P5 body's sample type.

    A checker's colour is |parity(y) - parity(x)| of its cell indices: the
    2x2 image below. A file texture is its graymap over its own maxval,
    which lies in [0, 1], rounded as rint(v * maxval).
    """
    dtype = _body_dtype(maxval)
    if plane.texture == "checker":
        return np.array([[0, maxval], [maxval, 0]], dtype)
    path = Path(plane.path)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    samples, file_maxval = read_pgm(path)
    image = samples / file_maxval
    image *= maxval  # in place: one float copy of the texture, not two
    return np.rint(image, out=image).astype(dtype)


def _texel(coords: np.ndarray, scale: float, count: int) -> np.ndarray:
    """Tiled texel index of each coordinate: floor(coords / scale) mod count.

    The remainder is taken in float64, where it is exact, so a coordinate
    far beyond int64's range in texels still maps to a valid texel. A scale
    so fine that coords / scale passes float64's range is an error.
    """
    with np.errstate(over="ignore"):
        cells = coords / scale
    if not np.isfinite(cells).all():
        raise ValueError(
            f"texture scale {scale!r} mm is too fine: coordinates over it pass float64's range"
        )
    return (np.floor(cells) % count).astype(np.int64)


def render_synthetic_scene(
    config: CameraConfig,
    planes,
    base_dir: str | Path | None = None,
    maxval: int = 65535,
) -> RawLightFieldImage:
    """Project textured planes through every viewpoint into a raw mosaic.

    Each raw pixel holds the texel where its traced chief ray meets the
    nearest plane covering it; rays that miss every plane read 0. The
    texture values (a file texture's samples over its own maxval, a
    checker's 0 and 1) are quantized once, before sampling, onto 0..maxval
    as rint(v * maxval), so the raw comes back as integers, uint16 when
    maxval > 255 and uint8 otherwise: the samples a P5 graymap of that
    maxval holds. Inverse of lightfield.decode by construction: sample
    (i, g) under lenslet column j, row h lands at mosaic position
    (h * m + c + g, j * m + c + i). The raw is filled from the row blocks
    `plenax render` writes as they come.
    """
    blocks = _render_rows(config, planes, base_dir, maxval)
    shape = (config.image_height_px, config.image_width_px)
    raw = np.empty(shape, _body_dtype(maxval).newbyteorder("="))
    start = 0
    for block in blocks:
        raw[start : start + len(block)] = block
        start += len(block)
    return RawLightFieldImage(samples=raw, config=config)


def _render_rows(
    config: CameraConfig,
    planes,
    base_dir: str | Path | None = None,
    maxval: int = 65535,
):
    """render_synthetic_scene's raw as an iterator of row blocks, top to bottom.

    The textures are loaded, the rays traced and the column work done
    before this returns, so a bad scene fails before anything is written.
    Each block is a (rows, width) view of one reused buffer of at most
    _BLOCK_BYTES, in a P5 body's sample type (big-endian for 16 bits), so a
    graymap writer takes it as it stands: use it before taking the next.
    """
    _check_maxval("render_synthetic_scene", maxval)
    planes = sorted(planes, key=lambda p: p.depth_mm)
    base = Path(base_dir) if base_dir is not None else None
    images = [_texture_image(p, base, maxval) for p in planes]

    pupil_z = simulate_virtual_cameras(config).entrance_pupil_to_h1_mm
    c = config.sensor.half_span
    i_all = np.arange(-c, c + 1, dtype=np.float64)
    j_all = np.arange(config.mla.count_h, dtype=np.float64)
    h_all = np.arange(config.mla.count_v, dtype=np.float64)

    # x depends only on the mosaic column, y only on the row, so each plane
    # is sampled on an outer product of two 1-D coordinate arrays.
    qx, ux = _chief_rays(i_all[:, None], j_all[None, :], config)
    # Row geometry mirrors column geometry about the (possibly fractional)
    # vertical centre; reuse of the column trace keeps one code path.
    row_offset = (config.mla.count_v - config.mla.count_h) / 2.0
    qy, uy = _chief_rays(i_all[:, None], h_all[None, :] - row_offset, config)

    m = config.sensor.micro_image_px
    width = config.image_width_px
    height = config.image_height_px
    cols = np.empty((len(planes), width))
    rows = np.empty((len(planes), height))
    for p, plane in enumerate(planes):
        # Trace row c + i is viewpoint i, placed where decode reads it.
        z_plane = pupil_z + plane.depth_mm
        _lens_columns(cols[p], m)[...] = qx * z_plane + ux
        _lens_columns(rows[p], m)[...] = qy * z_plane + uy

    # Every mosaic column takes its texel from the nearest plane covering
    # it, so each row block is one column gather from a table of the
    # planes' quantized texels. Table column 0 is 0, for the columns no
    # plane covers; each plane adds the texel columns it uses, once, and
    # each block takes their rows.
    index = np.zeros(width, dtype=np.int64)
    owned = np.zeros(width, dtype=bool)
    parts = []  # (plane's texel rows, first table column, its used texel columns)
    table_width = 1
    for p, plane in enumerate(planes):
        free = ~owned
        if plane.band is not None:
            free &= (cols[p] >= plane.band[0]) & (cols[p] <= plane.band[1])
        owned |= free
        if free.any():
            image = images[p]
            texel_cols = _texel(cols[p, free], plane.argument_mm, image.shape[1])
            used, plane_index = np.unique(texel_cols, return_inverse=True)
            index[free] = table_width + plane_index
            texel_rows = _texel(rows[p], plane.argument_mm, image.shape[0])
            parts.append((texel_rows, table_width, image[:, used]))
            table_width += len(used)

    dtype = _body_dtype(maxval)
    step = max(1, _BLOCK_BYTES // (max(width, table_width) * dtype.itemsize))
    table = np.zeros((min(step, height), table_width), dtype)
    out = np.empty((min(step, height), width), dtype)

    def blocks():
        for start in range(0, height, step):
            stop = min(start + step, height)
            block = table[: stop - start]
            for texel_rows, first, texels in parts:
                block[:, first : first + texels.shape[1]] = texels[texel_rows[start:stop]]
            # Every index is valid, and the table has out's type: mode="clip"
            # then spares take a buffered copy of out.
            yield np.take(block, index, axis=1, out=out[: stop - start], mode="clip")

    return blocks()


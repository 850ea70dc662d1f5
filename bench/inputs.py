"""Seeded inputs for the benchmark workloads, and their exact ground truth.

Everything a workload feeds to plenax is made here from the seed: a
smoothed texture tile, the scene description, the plane depths and the
checker period. The ground-truth disparity of every view pair comes from
the closed-form model, raymodel.disparity_for_distance, at the depth of
the plane each pixel sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from plenax import lightfield, presets, raymodel
from plenax.optics import derive_focus_state

SCENE_FILE = "scene.txt"
TILE_FILE = "tile.pgm"
TILE_PX = 512
# Gaussian smoothing of the texture noise, in texels, and the texel size in
# view pixels at the plane: features span a few view pixels, enough for a
# 29-pixel SAD window to lock on without leaving sub-pixel structure.
TILE_SIGMA_TEXELS = 2.0
TEXEL_VIEW_PX = 0.7


@dataclass(frozen=True)
class Rig:
    """A shipped camera and the stereo pair the workloads match on it.

    gap is the widest gap matched; max_disparity the matcher's search
    range; truth_px the range the seeded plane depths map to at that gap,
    inside the search range so that every truth is reachable.
    """

    fixture: str
    gap: int
    max_disparity: int
    block_size: int
    truth_px: tuple[float, float]

    def camera(self):
        config = presets.load_fixture(self.fixture)
        state = derive_focus_state(config)
        return config, state, raymodel.build_virtual_camera_array(state, config)


F197 = Rig("f197_mla2_inf", gap=4, max_disparity=5, block_size=29, truth_px=(1.0, 4.0))
LYTRO = Rig("lytro_f51p4", gap=8, max_disparity=16, block_size=29, truth_px=(6.0, 13.0))


def truth_disparity(rig: Rig, gap: int, depth_mm: float) -> float:
    """Exact disparity of a frontal plane at depth_mm for the centred pair."""
    _, _, array = rig.camera()
    return raymodel.disparity_for_distance(array, gap, depth_mm)


def depth_for_disparity(rig: Rig, gap: int, disparity_px: float) -> float:
    _, _, array = rig.camera()
    return raymodel.triangulate(array, raymodel.TriangulationQuery(gap, disparity_px))


def view_pitch_mm(rig: Rig, depth_mm: float) -> float:
    """Spacing of adjacent view pixels projected onto a plane at depth_mm."""
    config, state, _ = rig.camera()
    z = raymodel.entrance_pupil_distance(state, config) + depth_mm
    o = (config.mla.count_h - 1) // 2
    r0 = raymodel.object_ray(o, 0, state, config)
    r1 = raymodel.object_ray(o + 1, 0, state, config)
    return abs(r1.height_at(z) - r0.height_at(z))


def texture_tile(rng: np.random.Generator) -> np.ndarray:
    """Seamless smoothed-noise tile as 16-bit samples.

    Smoothing is a periodic Gaussian applied in the frequency domain, so the
    tile wraps without a seam when the renderer repeats it.
    """
    noise = rng.standard_normal((TILE_PX, TILE_PX))
    f = np.fft.fftfreq(TILE_PX)
    kernel = np.exp(-2.0 * (math.pi * TILE_SIGMA_TEXELS) ** 2 * (f[:, None] ** 2 + f[None, :] ** 2))
    smooth = np.fft.ifft2(np.fft.fft2(noise) * kernel).real
    smooth = (smooth - smooth.min()) / (smooth.max() - smooth.min())
    return np.round(smooth * 65535).astype(np.uint16)


def _incommensurate(rng: np.random.Generator, low: float, high: float) -> float:
    # A checker cell of a whole or half number of view pixels puts samples on
    # cell edges, where the rendered value flips on float noise.
    while True:
        k = rng.uniform(low, high)
        if abs(2.0 * k - round(2.0 * k)) > 0.2:
            return k


@dataclass(frozen=True)
class Plane:
    """One scene plane as written to the scene file."""

    depth_mm: float
    line: str
    band_mm: tuple[float, float] | None = None


@dataclass(frozen=True)
class Scene:
    """A generated scene: its rig, its planes (nearest first) and the tile."""

    rig: Rig
    planes: tuple[Plane, ...]
    tile: np.ndarray

    def write(self, directory: Path) -> None:
        """Write the tile and the scene file into directory."""
        lightfield.write_pgm(directory / TILE_FILE, self.tile, maxval=65535)
        text = "".join(p.line + "\n" for p in self.planes)
        (directory / SCENE_FILE).write_text(text, encoding="ascii")

    def truth_map(self, i_low: int, gap: int, shape: tuple[int, int]) -> np.ndarray:
        """Ground-truth disparity per pixel of the left view (i_low, 0).

        A banded plane owns the view columns whose chief ray meets it inside
        the band. Columns within the matcher's reach of a band edge, where
        the window straddles two depths, are NaN.
        """
        config, state, array = self.rig.camera()
        z_pupil = raymodel.entrance_pupil_distance(state, config)
        width = shape[1]
        owner = np.full(width, -1)
        for p, plane in reversed(list(enumerate(self.planes))):
            x = np.array([
                raymodel.object_ray(j, i_low, state, config).height_at(z_pupil + plane.depth_mm)
                for j in range(width)
            ])
            inside = np.ones(width, dtype=bool)
            if plane.band_mm is not None:
                inside = (x >= plane.band_mm[0]) & (x <= plane.band_mm[1])
            owner[inside] = p
        reach = self.rig.block_size // 2 + self.rig.max_disparity + 1
        truth = np.full(width, np.nan)
        for p, plane in enumerate(self.planes):
            mine = owner == p
            # Erode: a column is clean when every column in reach shares its owner.
            clean = np.array([
                mine[max(0, j - reach) : j + reach + 1].all() for j in range(width)
            ])
            truth[clean] = raymodel.disparity_for_distance(array, gap, plane.depth_mm)
        return np.broadcast_to(truth, shape).copy()


def f197_scene(seed: int) -> Scene:
    """Banded checker in front of a file-texture plane, on the f197 rig."""
    rng = np.random.default_rng([seed, 197])
    low, high = F197.truth_px
    # Checker nearer (larger disparity) than the texture behind it.
    d_checker = rng.uniform(0.5 * (low + high) + 0.5, high)
    d_texture = rng.uniform(low, 0.5 * (low + high) - 0.5)
    z_checker = depth_for_disparity(F197, F197.gap, d_checker)
    z_texture = depth_for_disparity(F197, F197.gap, d_texture)
    pitch_c = view_pitch_mm(F197, z_checker)
    # Cell of 5.3-7.7 view pixels: the 2-cell period then exceeds the
    # 2*maxd + 1 shifts searched, so the matcher cannot lock on an alias.
    period = _incommensurate(rng, 5.3, 7.7) * pitch_c
    config = presets.load_fixture(F197.fixture)
    half_width = 0.5 * config.mla.count_h * pitch_c
    centre = rng.uniform(-0.1, 0.1) * half_width
    band = (centre - 0.35 * half_width, centre + 0.35 * half_width)
    texel = TEXEL_VIEW_PX * view_pitch_mm(F197, z_texture)
    planes = (
        Plane(
            z_checker,
            f"plane {z_checker!r} checker {period!r} band {band[0]!r} {band[1]!r}",
            band,
        ),
        Plane(z_texture, f"plane {z_texture!r} file {TILE_FILE} {texel!r}"),
    )
    return Scene(F197, planes, texture_tile(rng))


def lytro_scene(seed: int) -> Scene:
    """One file-texture plane on the Lytro rig."""
    rng = np.random.default_rng([seed, 51])
    z = depth_for_disparity(LYTRO, LYTRO.gap, rng.uniform(*LYTRO.truth_px))
    texel = TEXEL_VIEW_PX * view_pitch_mm(LYTRO, z)
    return Scene(LYTRO, (Plane(z, f"plane {z!r} file {TILE_FILE} {texel!r}"),), texture_tile(rng))


def predict_disparities(seed: int, count: int = 17) -> list[float]:
    """Seeded disparities for the predict table, in [-2, 16] px, 3 decimals."""
    rng = np.random.default_rng([seed, 17])
    return [round(float(v), 3) for v in np.sort(rng.uniform(-2.0, 16.0, count))]

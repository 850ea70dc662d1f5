"""Chief ray geometry of the standard plenoptic camera.

Each pixel under a micro lens, taken together with that lens's optical
centre, fixes a chief ray. Rays sharing the same intra-micro-image offset i
leave the main lens through one common point on the entrance pupil, so every
viewpoint behaves like a pinhole camera sitting on the pupil. The module
follows that one chain in closed form: object_ray takes a sample to its
object-space ray, build_virtual_camera_array puts each viewpoint's pinhole
and axis on the pupil, VirtualCameraArray.pair gives a pair's baseline B
and relative tilt phi, and triangulate turns a disparity into a distance Z.

Coordinate conventions: the optical axis is z, increasing from the sensor
toward object space. Object-side ray heights are evaluated at a distance z
from the main lens's object-side principal plane. Lateral positions are x in
mm. Angles are radians internally.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .optics import CameraConfig, FocusState, derive_focus_state


@dataclass(frozen=True)
class ChiefRay:
    """A ray as a linear height function of z.

    Attributes:
        slope: Rise in x per unit z.
        intercept_mm: Height where the ray crosses the main lens's
            object-side principal plane, where z is measured from.
    """

    slope: float
    intercept_mm: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept_mm)):
            raise ValueError("ChiefRay requires finite slope and intercept")

    def height_at(self, z_mm: float) -> float:
        """Ray height x at axial distance z from the reference plane."""
        return self.slope * z_mm + self.intercept_mm


@dataclass(frozen=True)
class StereoRig:
    """Classical two-camera rig with optionally converging axes.

    Disparities on it are measured on an image plane 1 mm behind the
    pinholes, so a rig needs no image distance of its own.
    """

    baseline_mm: float
    tilt_rad: float = 0.0

    def __post_init__(self) -> None:
        if not self.baseline_mm > 0:
            raise ValueError(f"baseline_mm must be > 0, got {self.baseline_mm}")


def stereo_depth(rig: StereoRig, delta_x_mm: float | np.ndarray) -> float | np.ndarray:
    """Depth of a point from its disparity on a classical stereo rig.

    Args:
        rig: Baseline and relative inward tilt of the two cameras.
        delta_x_mm: Disparity as a displacement on an image plane 1 mm
            behind the pinholes, a scalar or an array.

    Returns:
        Z = B / (dx + tan(phi)) elementwise: inf where the denominator
        vanishes (the rays run parallel), an infinity of Z's sign where Z
        overflows, NaN where dx is not finite. A scalar dx gives a float,
        an array an array of its shape.
    """
    dx = np.asarray(delta_x_mm, dtype=np.float64)
    denominator = dx + math.tan(rig.tilt_rad)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        depth = np.where(denominator != 0, rig.baseline_mm / denominator, np.inf)
    depth = np.where(np.isfinite(dx), depth, np.nan)
    return float(depth) if depth.ndim == 0 else depth


def _check_state(state: FocusState, config: CameraConfig) -> None:
    """Reject a focus state other than the camera's own, naming both b_u."""
    if state != (own := derive_focus_state(config)):
        raise ValueError(
            f"focus state is another camera's: its b_u is {state.b_u_mm!r} mm, "
            f"this camera's is {own.b_u_mm!r} mm"
        )


def object_ray(j: float, i: int, state: FocusState, config: CameraConfig) -> ChiefRay:
    """Object-space continuation of the chief ray from sample (j, i).

    One chain, in this order, with J lenses of pitch p_m and focal length
    f_s, pixel pitch p_p, exit pupil distance d_ap, image distance b_u and
    main lens focal length f_u:

        s_j = (j - (J - 1) / 2) * p_m     height of lens j's optical centre
        mic = (s_j / d_ap) * f_s + s_j    micro image centre, where the ray
                                          from the exit pupil's centre
                                          through the lens meets the sensor
        u = mic + i * p_p                 the sample i pixels from mic
        m = (s_j - u) / f_s               image-side slope, sample to lens
        x = m * b_u + s_j                 height at the main lens
        slope = m - x / f_u               one refraction with its power

    The returned ray has intercept x and maps z (distance from the
    object-side principal plane, positive toward the scene) to height.

    Raises:
        ValueError: j outside [0, J), |i| above the sensor's half span, or a
            state other than derive_focus_state(config).
    """
    _check_state(state, config)
    return _object_ray(j, i, state, config)


def _object_ray(j: float, i: int, state: FocusState, config: CameraConfig) -> ChiefRay:
    """object_ray for a state already checked against config."""
    mla = config.mla
    if not 0 <= j < mla.count_h:
        raise ValueError(f"micro lens index {j} outside [0, {mla.count_h})")
    c = config.sensor.half_span
    if abs(i) > c:
        raise ValueError(f"viewpoint offset {i} outside [-{c}, {c}]")
    s_j = (j - (mla.count_h - 1) / 2.0) * mla.pitch_mm
    mic = (s_j / state.d_ap_mm) * mla.focal_length_mm + s_j
    u = mic + i * config.sensor.pixel_pitch_mm
    m = (s_j - u) / mla.focal_length_mm
    intercept = m * state.b_u_mm + s_j
    slope = m - intercept / config.main_lens.focal_length_mm
    return ChiefRay(slope=slope, intercept_mm=intercept)


def entrance_pupil_distance(state: FocusState, config: CameraConfig) -> float:
    """Signed z of the entrance pupil from the object-side principal plane.

    All object-space rays of one viewpoint meet in a single axial plane; its
    position follows from intersecting the rays of two neighbouring micro
    lenses and is independent of the viewpoint, the lens pair, and the focus
    setting. Negative values place the pupil on the sensor side of the
    principal plane.

    Raises:
        ValueError: Degenerate optics with the pupil at infinity, or a state
            other than derive_focus_state(config).
    """
    _check_state(state, config)
    f_u = config.main_lens.focal_length_mm
    # delta is the focus-invariant offset between the exit pupil and the
    # image distance; see derive_focus_state.
    delta = state.d_ap_mm - state.b_u_mm
    if f_u + delta == 0:
        raise ValueError("entrance pupil lies at infinity for this lens")
    return f_u * delta / (f_u + delta)


@dataclass(frozen=True)
class VirtualCameraArray:
    """The viewpoints of one plenoptic capture as pinholes on the pupil.

    Attributes:
        positions_mm: A_i for i in [-c, c], lateral pinhole positions on the
            entrance pupil plane, ordered by i.
        tilt_angles_rad: Phi_i, each camera's optical axis angle. Positive
            tilt turns the axis of a positive-i camera toward the main axis.
        virtual_pixel_pitch_mm: p_n, one sub-aperture pixel projected onto
            a virtual image plane 1 mm behind the pupil. The plane's distance
            is arbitrary: p_n scales with it, so no triangulated result
            depends on it.
    """

    positions_mm: tuple[float, ...]
    tilt_angles_rad: tuple[float, ...]
    virtual_pixel_pitch_mm: float

    def __post_init__(self) -> None:
        n = len(self.positions_mm)
        if n != len(self.tilt_angles_rad) or n < 3 or n % 2 == 0:
            raise ValueError("positions and tilts must share an odd length >= 3")
        steps = [
            self.positions_mm[k + 1] - self.positions_mm[k] for k in range(n - 1)
        ]
        if max(steps) - min(steps) > 1e-9:
            raise ValueError("virtual cameras are not equally spaced")
        if steps[0] == 0:
            raise ValueError("virtual cameras are degenerate (zero spacing)")

    @property
    def half_span(self) -> int:
        """Largest viewpoint index c."""
        return (len(self.positions_mm) - 1) // 2

    def _offset(self, i: int) -> int:
        c = self.half_span
        if abs(i) > c:
            raise ValueError(f"viewpoint index {i} outside [-{c}, {c}]")
        return i + c

    def position(self, i: int) -> float:
        """Pinhole position A_i on the pupil plane."""
        return self.positions_mm[self._offset(i)]

    def tilt(self, i: int) -> float:
        """Optical axis angle Phi_i in radians."""
        return self.tilt_angles_rad[self._offset(i)]

    def pair(self, gap: int) -> StereoRig:
        """The centred viewpoint pair spanning gap, as a classical stereo rig.

        The pair is viewpoints i and i + gap with i = -floor(gap / 2): valid
        for every integer gap in [1, 2c], and the adjacent pair (0, 1) at
        gap 1. The rig carries the pair's baseline B = |A_(i+gap) - A_i|
        and the relative tilt phi = |Phi_(i+gap) - Phi_i|.
        The two axes turn toward each other whenever the camera focuses
        closer than infinity, so phi is a magnitude, zero exactly at
        infinity focus.
        """
        if not isinstance(gap, numbers.Integral):
            raise ValueError(f"gap must be an integer, got {gap!r}")
        span = 2 * self.half_span
        if not 1 <= gap <= span:
            raise ValueError(f"gap must lie in [1, {span}], the array's span, got {gap}")
        i = -(gap // 2)
        return StereoRig(
            baseline_mm=abs(self.position(i + gap) - self.position(i)),
            tilt_rad=abs(self.tilt(i + gap) - self.tilt(i)),
        )


def build_virtual_camera_array(state: FocusState, config: CameraConfig) -> VirtualCameraArray:
    """Locate every viewpoint's pinhole and axis on the entrance pupil.

    For each offset i the ray through the central micro lens is evaluated at
    the pupil plane, giving the pinhole position A_i; its slope gives the
    axis tilt. A virtual image plane 1 mm behind the pupil carries the
    projected pixel pitch p_n used to convert disparities to millimetres.
    A state other than derive_focus_state(config) raises ValueError.
    """
    z_pupil = entrance_pupil_distance(state, config)  # checks the state, once
    o = (config.mla.count_h - 1) / 2.0
    c = config.sensor.half_span

    positions = []
    tilts = []
    for i in range(-c, c + 1):
        ray = _object_ray(o, i, state, config)
        positions.append(ray.height_at(z_pupil))
        tilts.append(math.atan(ray.slope))

    # One sub-aperture pixel spans one micro lens: the step from the central
    # lens's axial ray to its neighbour's, on the plane 1 mm behind the pupil.
    pitch_n = abs(_object_ray(o + 1, 0, state, config).slope)

    return VirtualCameraArray(
        positions_mm=tuple(positions),
        tilt_angles_rad=tuple(tilts),
        virtual_pixel_pitch_mm=pitch_n,
    )


@dataclass(frozen=True)
class TriangulationQuery:
    """A stereo pair selection and an observed disparity.

    Attributes:
        gap: Viewpoint separation G >= 1 between the paired views.
        disparity_px: Horizontal disparity in sub-aperture pixels; may be
            fractional and negative.
    """

    gap: int
    disparity_px: float

    def __post_init__(self) -> None:
        if self.gap < 1:
            raise ValueError(f"gap must be >= 1, got {self.gap}")
        if not math.isfinite(self.disparity_px):
            raise ValueError("disparity_px must be finite")


def triangulate(array: VirtualCameraArray, query: TriangulationQuery) -> float:
    """Object distance from the entrance pupil for an observed disparity.

    Uses the centred viewpoint pair spanning query.gap (see
    VirtualCameraArray.pair). Distances follow

        Z = B / (dx * p_n + tan(phi))

    with the pair's baseline B, relative tilt phi and the virtual pixel
    pitch p_n.

    Returns:
        Z in mm; math.inf when the denominator vanishes (rays parallel); a
        negative value when the rays only intersect behind the cameras.
    """
    return stereo_depth(
        array.pair(query.gap), query.disparity_px * array.virtual_pixel_pitch_mm
    )


def disparity_for_distance(
    array: VirtualCameraArray, gap: int, z_mm: float
) -> float:
    """Disparity in sub-aperture pixels for an object at distance z_mm.

    Inverse of triangulate over the same centred pair. Objects beyond the
    plane where the paired axes cross come out negative; an object exactly
    there maps to zero.
    """
    if z_mm == 0:
        raise ValueError("z_mm must be nonzero")
    rig = array.pair(gap)
    dx_mm = rig.baseline_mm / z_mm - math.tan(rig.tilt_rad)
    return dx_mm / array.virtual_pixel_pitch_mm


def measure_baseline(
    query: TriangulationQuery, z_mm: float, array: VirtualCameraArray
) -> float:
    """Baseline implied by observing disparity query.disparity_px at z_mm.

    Algebraic inversion of triangulate: feeding back a triangulated distance
    recovers the geometric baseline exactly.
    """
    if not z_mm > 0:
        raise ValueError(f"z_mm must be > 0, got {z_mm}")
    rig = array.pair(query.gap)
    dx_mm = query.disparity_px * array.virtual_pixel_pitch_mm
    return z_mm * (dx_mm + math.tan(rig.tilt_rad))


def measure_tilt(
    query: TriangulationQuery,
    z_mm: float,
    baseline_mm: float,
    array: VirtualCameraArray,
) -> float:
    """Relative tilt implied by a distance, disparity, and known baseline.

    The second inversion of triangulate, solved for the tilt term. As an
    arctangent it lies in (-pi/2, pi/2): a relative tilt past pi/2 comes
    back a half turn lower.
    """
    if not z_mm > 0:
        raise ValueError(f"z_mm must be > 0, got {z_mm}")
    array.pair(query.gap)  # rejects a gap outside the array's span
    dx_mm = query.disparity_px * array.virtual_pixel_pitch_mm
    return math.atan(baseline_mm / z_mm - dx_mm)

"""Camera parameter types, micro lens cardinal points, and the focus solver.

All lengths are millimetres. Distances along the optical axis are positive
toward object space. The image distance b_u and the exit pupil distance d_ap
are measured from the micro lens array (MLA) plane toward the main lens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

INFINITY = math.inf


@dataclass(frozen=True)
class SensorSpec:
    """Image sensor behind the MLA.

    Attributes:
        pixel_pitch_mm: Pixel pitch p_p.
        micro_image_px: Pixels per micro image along one axis (M). Must be
            odd so a central pixel exists under each micro lens.
    """

    pixel_pitch_mm: float
    micro_image_px: int

    def __post_init__(self) -> None:
        if not self.pixel_pitch_mm > 0:
            raise ValueError(f"pixel_pitch_mm must be > 0, got {self.pixel_pitch_mm}")
        if self.micro_image_px < 3 or self.micro_image_px % 2 == 0:
            raise ValueError(
                f"micro_image_px must be odd and >= 3, got {self.micro_image_px}"
            )

    @property
    def half_span(self) -> int:
        """Largest viewpoint offset c = (M - 1) / 2."""
        return (self.micro_image_px - 1) // 2


@dataclass(frozen=True)
class MicroLensSpec:
    """Micro lens array geometry, optionally with the full lens prescription.

    The lenslet model lives here: the surface powers and principal planes
    below are what the oracle traces. A thin lenslet has all its power at
    the front surface, no thickness and its principal planes at its vertex.

    Attributes:
        focal_length_mm: Micro lens focal length f_s. May be None when a
            full prescription is given; it is then the focal length the
            surfaces imply.
        pitch_mm: Lens pitch p_m.
        count_h: Number of lenses along the horizontal axis (J). Must be odd
            so the central lens sits on the optical axis.
        count_v: Number of lenses along the vertical axis (H). May be even;
            the vertical axis needs no central lens.
        thickness_mm, refractive_index, radius_front_mm, radius_back_mm:
            Optional physical prescription, all four or none. The focal
            length derived from it must agree with focal_length_mm within
            1e-3 mm.
        principal_gap_mm: Separation of the lens's principal planes, derived
            from the prescription; None for a thin lenslet. Not an argument.
    """

    focal_length_mm: float | None
    pitch_mm: float
    count_h: int
    count_v: int
    thickness_mm: float | None = None
    refractive_index: float | None = None
    radius_front_mm: float | None = None
    radius_back_mm: float | None = None
    principal_gap_mm: float | None = field(init=False, default=None)
    _lens: _ThickLens = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = ("thickness_mm", "refractive_index", "radius_front_mm", "radius_back_mm")
        missing = [name for name in names if getattr(self, name) is None]
        if 0 < len(missing) < len(names):
            raise ValueError(f"a lens prescription is incomplete, missing {', '.join(missing)}")
        lens = None if missing else _thick_lens(*(getattr(self, name) for name in names))
        if self.focal_length_mm is None:
            if lens is None:
                raise ValueError("focal_length_mm is required without a full lens prescription")
            if not lens.focal_length > 0:
                raise ValueError(
                    f"the prescription {', '.join(names)} gives focal length "
                    f"{lens.focal_length}, which must be > 0"
                )
            object.__setattr__(self, "focal_length_mm", lens.focal_length)
        if not self.focal_length_mm > 0:
            raise ValueError(f"focal_length_mm must be > 0, got {self.focal_length_mm}")
        if not self.pitch_mm > 0:
            raise ValueError(f"pitch_mm must be > 0, got {self.pitch_mm}")
        if self.count_h < 1 or self.count_h % 2 == 0:
            raise ValueError(f"count_h must be odd and >= 1, got {self.count_h}")
        if self.count_v < 1:
            raise ValueError(f"count_v must be >= 1, got {self.count_v}")
        if lens is None:
            # All power at the front, no glass, both planes at the vertex.
            f_s = self.focal_length_mm
            lens = _ThickLens(1.0 / f_s, 0.0, 0.0, 0.0, f_s, 0.0, 0.0)
        elif abs(lens.focal_length - self.focal_length_mm) > 1e-3:
            raise ValueError(
                f"prescription yields focal length {lens.focal_length:.6f} mm, "
                f"disagreeing with focal_length_mm={self.focal_length_mm}"
            )
        else:
            object.__setattr__(self, "principal_gap_mm", lens.principal_gap)
        object.__setattr__(self, "_lens", lens)

    @property
    def power_front_per_mm(self) -> float:
        """Power of the front (object-side) surface."""
        return self._lens.power_front

    @property
    def power_back_per_mm(self) -> float:
        """Power of the back (sensor-side) surface."""
        return self._lens.power_back

    @property
    def axial_thickness_mm(self) -> float:
        """Centre thickness, 0 for a thin lenslet."""
        return self._lens.thickness

    @property
    def reduced_thickness_mm(self) -> float:
        """Centre thickness over the index: the glass path in reduced angles."""
        return self._lens.reduced_thickness

    @property
    def h1_from_front_mm(self) -> float:
        """Object-side principal plane from the front vertex, + toward the sensor."""
        return self._lens.h1_from_front

    @property
    def h2_from_back_mm(self) -> float:
        """Image-side principal plane from the back vertex, + toward the sensor."""
        return self._lens.h2_from_back


@dataclass(frozen=True)
class MainLensSpec:
    """Main (objective) lens cardinal data.

    Attributes:
        focal_length_mm: Focal length f_u.
        exit_pupil_inf_mm: MLA-to-exit-pupil distance when focused at
            infinity.
        principal_gap_mm: Signed separation of the object- and image-side
            principal planes. Negative when they are crossed.
        b_u_inf_mm: Image distance at infinity focus. Defaults to the focal
            length, where the infinity image forms.
        front_vertex_to_h1_mm: Optional distance from the lens's front vertex
            to the object-side principal plane. Needed only to express pupil
            positions relative to the physical front of the lens.
    """

    focal_length_mm: float
    exit_pupil_inf_mm: float
    principal_gap_mm: float
    b_u_inf_mm: float | None = None
    front_vertex_to_h1_mm: float | None = None

    def __post_init__(self) -> None:
        if not self.focal_length_mm > 0:
            raise ValueError(f"focal_length_mm must be > 0, got {self.focal_length_mm}")
        if not self.exit_pupil_inf_mm > 0:
            raise ValueError(
                f"exit_pupil_inf_mm must be > 0, got {self.exit_pupil_inf_mm}"
            )
        if self.b_u_inf_mm is not None and not self.b_u_inf_mm > 0:
            raise ValueError(f"b_u_inf_mm must be > 0, got {self.b_u_inf_mm}")

    @property
    def image_distance_inf_mm(self) -> float:
        """Image distance at infinity focus (b_u_inf_mm or the focal length)."""
        return self.b_u_inf_mm if self.b_u_inf_mm is not None else self.focal_length_mm


@dataclass(frozen=True)
class FocusSetting:
    """Where the camera is focused.

    Attributes:
        d_f_mm: Distance from the MLA's front vertex to the focused object
            plane. Use math.inf for infinity focus.
    """

    d_f_mm: float

    def __post_init__(self) -> None:
        if not (self.d_f_mm > 0):
            raise ValueError(f"d_f_mm must be > 0 or infinite, got {self.d_f_mm}")

    @property
    def at_infinity(self) -> bool:
        return math.isinf(self.d_f_mm)


@dataclass(frozen=True)
class FocusState:
    """Quantities derived from a focus setting.

    Attributes:
        b_u_mm: Main lens image distance.
        d_ap_mm: MLA-to-exit-pupil distance at this focus.
        a_u_mm: Object distance from the object-side principal plane
            (math.inf at infinity focus).
    """

    b_u_mm: float
    d_ap_mm: float
    a_u_mm: float


@dataclass(frozen=True)
class CameraConfig:
    """Complete description of one plenoptic camera at one focus setting."""

    sensor: SensorSpec
    mla: MicroLensSpec
    main_lens: MainLensSpec
    focus: FocusSetting

    def __post_init__(self) -> None:
        # A focus with no real image distance fails here, at load.
        solve_image_distance(
            self.main_lens.focal_length_mm,
            self.main_lens.principal_gap_mm,
            self.focus.d_f_mm,
        )

    @property
    def image_width_px(self) -> int:
        """Raw sensor width K = J * M."""
        return self.mla.count_h * self.sensor.micro_image_px

    @property
    def image_height_px(self) -> int:
        """Raw sensor height L = H * M."""
        return self.mla.count_v * self.sensor.micro_image_px


class _ThickLens(NamedTuple):
    """One lenslet: two surface powers, the glass path between them, the
    focal length and each principal plane's offset from its own vertex."""

    power_front: float
    power_back: float
    thickness: float
    reduced_thickness: float
    focal_length: float
    h1_from_front: float
    h2_from_back: float

    @property
    def principal_gap(self) -> float:
        return (self.thickness + self.h2_from_back) - self.h1_from_front


def _thick_lens(thickness_mm, refractive_index, radius_front_mm, radius_back_mm) -> _ThickLens:
    """The lens model behind mla_cardinal_points, which documents it."""
    prescription = (thickness_mm, refractive_index, radius_front_mm, radius_back_mm)
    if any(math.isnan(v) for v in prescription):
        raise ValueError("a lens prescription must not contain NaN")
    if thickness_mm < 0:
        raise ValueError(f"thickness_mm must be >= 0, got {thickness_mm}")
    if refractive_index <= 1:
        raise ValueError(f"refractive_index must be > 1, got {refractive_index}")
    if radius_front_mm == 0 or radius_back_mm == 0:
        raise ValueError(
            f"surface radii must be nonzero, got radius_front_mm={radius_front_mm}, "
            f"radius_back_mm={radius_back_mm}"
        )
    n = refractive_index
    power_front = (n - 1.0) / radius_front_mm if math.isfinite(radius_front_mm) else 0.0
    power_back = (1.0 - n) / radius_back_mm if math.isfinite(radius_back_mm) else 0.0
    reduced_thickness = thickness_mm / n
    power = power_front + power_back - power_front * power_back * reduced_thickness
    if power == 0:
        raise ValueError("prescription has zero optical power and cannot focus")
    f = 1.0 / power
    # Principal plane offsets from the respective vertices, standard
    # thick-lens relations in the reduced-angle convention.
    h1_from_front = f * power_back * reduced_thickness
    h2_from_back = -f * power_front * reduced_thickness
    return _ThickLens(
        power_front, power_back, thickness_mm, reduced_thickness, f, h1_from_front, h2_from_back
    )


def mla_cardinal_points(
    thickness_mm: float,
    refractive_index: float,
    radius_front_mm: float,
    radius_back_mm: float,
) -> tuple[float, float]:
    """Effective focal length and principal plane gap of a single lens.

    Composes two paraxial refractions separated by the reduced glass path.
    An infinite radius denotes a flat surface.

    Args:
        thickness_mm: Centre thickness.
        refractive_index: Glass index n, must be > 1.
        radius_front_mm: Signed front surface radius (positive bulging toward
            the object). Must be nonzero.
        radius_back_mm: Signed back surface radius, may be +/- infinity.

    Returns:
        (focal_length_mm, principal_gap_mm) where the gap is the axial
        distance from the object-side to the image-side principal plane.

    Raises:
        ValueError: Non-physical inputs or zero combined optical power.
    """
    lens = _thick_lens(thickness_mm, refractive_index, radius_front_mm, radius_back_mm)
    return lens.focal_length, lens.principal_gap


def solve_image_distance(
    focal_length_mm: float, principal_gap_mm: float, d_f_mm: float
) -> float:
    """Image distance b_u for a lens focused at a given distance.

    Object and image distance share the span D = d_f - principal_gap, so
    a_u = D - b_u and the thin lens equation 1/a_u + 1/b_u = 1/f_u becomes
    b_u^2 - D * b_u + f_u * D = 0. The smaller root is returned, in the
    cancellation-free form

        b_u = 2 * f_u / (1 + sqrt(1 - 4 * f_u / D)),

    which is f_u exactly at infinity focus and 2 * f_u exactly at the
    nearest focusable distance, D = 4 * f_u.

    Args:
        focal_length_mm: Main lens focal length f_u.
        principal_gap_mm: Signed principal plane separation.
        d_f_mm: Focus distance from the MLA front vertex, may be math.inf.

    Raises:
        ValueError: A non-positive focal length, or D < 4 * f_u, where no
            real image distance exists.
    """
    if not focal_length_mm > 0:
        raise ValueError(f"focal_length_mm must be > 0, got {focal_length_mm}")
    span = d_f_mm - principal_gap_mm
    if not span >= 4.0 * focal_length_mm:
        raise ValueError(
            f"d_f_mm={d_f_mm} is too close to focus: no real image distance "
            f"exists below 4*f_u + h1h2 = {4.0 * focal_length_mm + principal_gap_mm:.4f} mm"
        )
    return 2.0 * focal_length_mm / (1.0 + math.sqrt(1.0 - 4.0 * focal_length_mm / span))


def derive_focus_state(config: CameraConfig) -> FocusState:
    """Solve the focus-dependent distances for a camera configuration."""
    lens = config.main_lens
    b_u = solve_image_distance(
        lens.focal_length_mm, lens.principal_gap_mm, config.focus.d_f_mm
    )
    # The exit pupil rides with the image distance: b_u - d_ap is a
    # lens-internal constant, fixed by the infinity-focus pair. MainLensSpec
    # has checked both of those, and b_u is positive.
    d_ap = b_u - (lens.image_distance_inf_mm - lens.exit_pupil_inf_mm)
    # The object distance closes the span, inf at infinity focus.
    a_u = config.focus.d_f_mm - b_u - lens.principal_gap_mm
    return FocusState(b_u_mm=b_u, d_ap_mm=d_ap, a_u_mm=a_u)

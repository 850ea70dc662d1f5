"""Shipped camera fixtures and their factory reference values.

Every fixture is a complete camera description file bundled with the
package. The reference tables below hold the values each fixture must
reproduce: focus solutions, lenslet cardinal points, viewpoint baselines
and tilts, and triangulated distances for known disparities. They are the
data behind the verify command; each entry carries its own measure, a
function of the camera, its focus state and its viewpoint array, and its
own tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import oracle, raymodel
from .configio import load_config
from .optics import CameraConfig, derive_focus_state


def fixture_names() -> tuple[str, ...]:
    files = resources.files("plenax").joinpath("fixtures")
    return tuple(sorted(p.name[: -len(".cfg")] for p in files.iterdir() if p.name.endswith(".cfg")))


def fixture_path(name: str) -> Path:
    path = resources.files("plenax").joinpath("fixtures", f"{name}.cfg")
    if not path.is_file():
        known = ", ".join(fixture_names())
        raise KeyError(f"no fixture {name!r} (shipped: {known})")
    return Path(str(path))


def load_fixture(name: str) -> CameraConfig:
    return load_config(fixture_path(name))


@dataclass(frozen=True)
class ReferenceCheck:
    """One factory value: how to measure it, what to expect, how closely.

    measure(config, state, array) returns the value, or None when the camera
    lacks what it needs; the check is then skipped with skip_note.
    """

    label: str
    measure: Callable[..., float | None]
    expected: float
    tolerance: float
    relative: bool = False
    skip_note: str = ""


@dataclass(frozen=True)
class CheckOutcome:
    label: str
    expected: float
    got: float
    tolerance: float
    passed: bool
    note: str = ""


def _focus(b_u: float, d_ap: float) -> list[ReferenceCheck]:
    return [
        ReferenceCheck("image distance b_U", lambda cfg, st, arr: st.b_u_mm, b_u, 5e-4),
        ReferenceCheck("exit pupil distance d_A'", lambda cfg, st, arr: st.d_ap_mm, d_ap, 5e-4),
    ]


def _mla(f_s: float) -> list[ReferenceCheck]:
    return [
        # The lenslet's thick-lens model; f_s itself for a thin lenslet.
        ReferenceCheck(
            "lenslet focal length", lambda cfg, st, arr: cfg.mla.lens.focal_length, f_s, 1e-3
        ),
        ReferenceCheck(
            "lenslet principal plane gap",
            lambda cfg, st, arr: (
                None if cfg.mla.thickness_mm is None else cfg.mla.lens.principal_gap
            ),
            0.396, 1e-3, skip_note="skipped: no lens prescription to derive it from",
        ),
    ]


def _pair(gap: int, b: float | None = None, phi_deg: float | None = None) -> list[ReferenceCheck]:
    checks = []
    if b is not None:
        checks.append(ReferenceCheck(
            f"baseline B_{gap}", lambda cfg, st, arr: arr.pair(gap).baseline_mm, b, 5e-4
        ))
    if phi_deg is not None:
        checks.append(ReferenceCheck(
            f"tilt Phi_{gap}", lambda cfg, st, arr: math.degrees(arr.pair(gap).tilt_rad),
            phi_deg, 5e-4,
        ))
    return checks


def _rounded_baseline(gap: int, b: float) -> ReferenceCheck:
    """A baseline quoted to 4 decimals, which it must match exactly."""
    return ReferenceCheck(
        f"baseline B_{gap}", lambda cfg, st, arr: round(arr.pair(gap).baseline_mm, 4), b, 0.0
    )


def _dist(dx: float, z: float, tolerance: float = 1e-4, relative: bool = True) -> ReferenceCheck:
    query = raymodel.TriangulationQuery(gap=1, disparity_px=dx)
    return ReferenceCheck(
        f"distance, gap 1, disparity {dx:g} px",
        # Looked up per call, so a wrapped raymodel.triangulate sees the call.
        lambda cfg, st, arr: raymodel.triangulate(arr, query), z, tolerance, relative,
    )


def _front_pupil(expected: float) -> ReferenceCheck:
    def measure(cfg, st, arr):
        v1h1 = cfg.main_lens.front_vertex_to_h1_mm
        return None if v1h1 is None else v1h1 + raymodel.entrance_pupil_distance(st, cfg)

    return ReferenceCheck(
        "front vertex to entrance pupil", measure, expected, 1e-6,
        skip_note="skipped: front vertex position not given",
    )


REFERENCE_VALUES: dict[str, tuple[ReferenceCheck, ...]] = {
    "f193_mla2_inf": tuple(
        _focus(193.2935, 111.0324) + _mla(2.75)
        + _pair(6, b=3.7956, phi_deg=0.0)
        + [_dist(1, 978.2150), _dist(2, 489.1075), _dist(0, math.inf), _front_pupil(240.2113)]
    ),
    "f193_mla2_3m": tuple(
        _focus(207.3134, 125.0523) + _mla(2.75)
        + _pair(6, b=4.2748, phi_deg=0.0816)
        + [_dist(0, 3001.4530), _dist(1, 877.9068), _dist(2, 514.1456), _front_pupil(240.2113)]
    ),
    "f193_mla2_1p5m": tuple(
        _focus(225.8852, 143.6241) + _mla(2.75)
        + _pair(6, b=4.9097, phi_deg=0.1897)
        + [_dist(-1, 15770.8729, tolerance=2.0, relative=False), _dist(0, 1482.8768),
           _dist(1, 778.0154), _dist(2, 527.3487), _front_pupil(240.2113)]
    ),
    "f193_mla1_inf": tuple(
        _focus(193.2935, 111.0324) + _mla(1.25)
        + _pair(6, b=8.3503, phi_deg=0.0)
        + [_dist(1, 2152.0729), _dist(2, 1076.0365), _front_pupil(240.2113)]
    ),
    "f193_mla1_3m": tuple(
        _focus(207.3134, 125.0523) + _mla(1.25)
        + _pair(6, b=9.4047, phi_deg=0.1795)
        + [_dist(0, 3001.4530), _dist(1, 1429.6116), _dist(2, 938.2541), _front_pupil(240.2113)]
    ),
    "f193_mla1_1p5m": tuple(
        _focus(225.8852, 143.6241) + _mla(1.25)
        + _pair(6, b=10.8014, phi_deg=0.4173)
        + [_dist(-1, 2521.0686), _dist(0, 1482.8768), _dist(1, 1050.3402),
           _dist(2, 813.1535), _front_pupil(240.2113)]
    ),
    "f90_mla2_inf": tuple(
        _focus(90.4036, 85.1198) + _mla(2.75)
        + _pair(6, b=1.7752, phi_deg=0.0)
        + [_dist(1, 213.9790), _dist(2, 106.9895), _front_pupil(27.4627)]
    ),
    "f90_mla2_3m": tuple(
        _focus(93.3043, 88.0205) + _mla(2.75)
        + _pair(6, b=1.8357, phi_deg=0.0361)
        + [_dist(0, 2913.5460), _dist(1, 212.1505), _dist(2, 110.0831), _front_pupil(27.4627)]
    ),
    "f90_mla2_1p5m": tuple(
        _focus(96.6224, 91.3386) + _mla(2.75)
        + _pair(6, b=1.9049, phi_deg=0.0774)
        + [_dist(0, 1410.2257), _dist(1, 209.7424), _dist(2, 113.2965), _front_pupil(27.4627)]
    ),
    "f197_mla2_inf": tuple(
        _focus(197.1264, 100.5000) + _mla(2.75)
        + _pair(4, b=2.5806) + _pair(8, b=5.1611) + [_dist(0, math.inf)]
    ),
    "f197_mla2_4m": tuple(
        _focus(208.3930, 111.7666) + _mla(2.75)
        + _pair(4, phi_deg=0.0429) + _pair(8, phi_deg=0.0857)
    ),
    "lytro_f6p45": (_rounded_baseline(1, 0.3612), _rounded_baseline(8, 2.8896)),
    "lytro_f51p4": (_rounded_baseline(1, 2.8784), _rounded_baseline(8, 23.0272)),
}


def _evaluate(check: ReferenceCheck, config: CameraConfig, state, array) -> CheckOutcome:
    got = check.measure(config, state, array)
    if got is None:
        return CheckOutcome(
            check.label, check.expected, math.nan, check.tolerance, True, check.skip_note
        )
    if math.isinf(check.expected):
        passed = math.isinf(got) and got > 0
    else:
        bound = check.tolerance * (abs(check.expected) if check.relative else 1.0)
        # Zero tolerance means match at the printed precision.
        passed = abs(got - check.expected) <= max(bound, 1e-12)
    return CheckOutcome(check.label, check.expected, got, check.tolerance, passed)


def run_factory_checks(name: str, config: CameraConfig | None = None) -> list[CheckOutcome]:
    """Evaluate a fixture's reference values against a camera.

    config defaults to the shipped fixture itself; passing a modified camera
    shows where it departs from the factory values.
    """
    if name not in REFERENCE_VALUES:
        known = ", ".join(sorted(REFERENCE_VALUES))
        raise KeyError(f"no reference values for {name!r} (known: {known})")
    if config is None:
        config = load_fixture(name)
    state = derive_focus_state(config)
    array = raymodel.build_virtual_camera_array(state, config)
    return [_evaluate(check, config, state, array) for check in REFERENCE_VALUES[name]]


def run_consistency_checks(config: CameraConfig) -> list[CheckOutcome]:
    """Cross-check the closed-form viewpoint model against the ray tracer.

    Both routes compute the entrance pupil distance, the viewpoint
    positions and tilts; they must agree to 1e-9 (relative, with an
    absolute floor for values at zero), and the traced ray intersections
    for one viewpoint must cluster within 1e-9 mm.
    """
    state = derive_focus_state(config)
    array = raymodel.build_virtual_camera_array(state, config)
    sim = oracle.simulate_virtual_cameras(config)
    tol = 1e-9

    def agree(label: str, closed: float, traced: float) -> CheckOutcome:
        close = abs(closed - traced) <= tol * max(1.0, abs(closed), abs(traced))
        return CheckOutcome(label, closed, traced, tol, close)

    spread = sim.intersection_spread_mm
    outcomes = [
        agree(
            "entrance pupil distance, traced vs closed form",
            raymodel.entrance_pupil_distance(state, config),
            sim.entrance_pupil_to_h1_mm,
        ),
        CheckOutcome("ray intersection spread", 0.0, spread, tol, spread < tol),
    ]
    c = config.sensor.half_span
    for i in range(-c, c + 1):
        outcomes.append(
            agree(f"viewpoint position, i = {i:+d}", array.position(i), sim.positions_mm[c + i])
        )
        outcomes.append(
            agree(f"viewpoint tilt, i = {i:+d}", array.tilt(i), sim.tilt_angles_rad[c + i])
        )
    return outcomes

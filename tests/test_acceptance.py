"""Acceptance gate: every published reference number the model must hit.

Expected values are frozen from an independent derivation; tolerances are the
contract, not a convenience. Each test covers one criterion end to end.
"""

import math

import numpy as np
import pytest

import plenax as px

from conftest import CHECKER_DEPTH_MM, flatten, match_views
from test_disparity import brute_force_match

# (image distance b_u, exit pupil distance d_ap) per rig, +-5e-4 mm.
FOCUS_REFERENCE = {
    "f193_mla2_inf": (193.2935, 111.0324),
    "f193_mla2_3m": (207.3134, 125.0523),
    "f193_mla2_1p5m": (225.8852, 143.6241),
    "f193_mla1_inf": (193.2935, 111.0324),
    "f193_mla1_3m": (207.3134, 125.0523),
    "f193_mla1_1p5m": (225.8852, 143.6241),
    "f90_mla2_inf": (90.4036, 85.1198),
    "f90_mla2_3m": (93.3043, 88.0205),
    "f90_mla2_1p5m": (96.6224, 91.3386),
    "f197_mla2_inf": (197.1264, 100.5000),
    "f197_mla2_4m": (208.3930, 111.7666),
}

# Six-viewpoint baselines (mm) and tilt magnitudes (deg), +-5e-4 each.
WIDE_PAIR_REFERENCE = {
    "f193_mla2_inf": (3.7956, 0.0),
    "f90_mla2_inf": (1.7752, 0.0),
    "f193_mla1_inf": (8.3503, 0.0),
    "f193_mla2_3m": (4.2748, 0.0816),
    "f90_mla2_3m": (1.8357, 0.0361),
    "f193_mla1_3m": (9.4047, 0.1795),
    "f193_mla2_1p5m": (4.9097, 0.1897),
    "f90_mla2_1p5m": (1.9049, 0.0774),
    "f193_mla1_1p5m": (10.8014, 0.4173),
}

# Triangulated distances (mm) for single-gap pairs, relative 1e-4 except the
# near-parallel negative-disparity case which carries +-2 mm.
DISTANCE_REFERENCE = {
    "f193_mla2_inf": {1: 978.2150, 2: 489.1075, 0: px.INFINITY},
    "f90_mla2_inf": {1: 213.9790, 2: 106.9895, 0: px.INFINITY},
    "f193_mla1_inf": {1: 2152.0729, 2: 1076.0365, 0: px.INFINITY},
    "f193_mla2_3m": {0: 3001.4530, 1: 877.9068, 2: 514.1456},
    "f90_mla2_3m": {0: 2913.5460, 1: 212.1505, 2: 110.0831},
    "f193_mla1_3m": {0: 3001.4530, 1: 1429.6116, 2: 938.2541},
    "f193_mla2_1p5m": {-1: 15770.8729, 0: 1482.8768, 1: 778.0154, 2: 527.3487},
    "f90_mla2_1p5m": {0: 1410.2257, 1: 209.7424, 2: 113.2965},
    "f193_mla1_1p5m": {-1: 2521.0686, 0: 1482.8768, 1: 1050.3402, 2: 813.1535},
}

# Bench measurements on the physical rigs: pupil position from the front
# vertex, six-viewpoint baseline, tilt magnitude. Sanity band only.
MEASURED_PAIRS = {
    "f193_mla2_inf": (240.1483, 3.7949, 0.0000),
    "f90_mla2_inf": (27.4081, 1.7748, 0.0001),
    "f193_mla1_inf": (239.3988, 8.3450, 0.0000),
    "f193_mla2_3m": (239.8612, 4.2738, 0.0816),
    "f90_mla2_3m": (27.3309, 1.8352, 0.0360),
    "f193_mla1_3m": (238.9043, 9.3964, 0.1795),
    "f193_mla2_1p5m": (239.6932, 4.9078, 0.1897),
    "f90_mla2_1p5m": (27.2150, 1.9042, 0.0773),
    "f193_mla1_1p5m": (238.1212, 10.7866, 0.4173),
}

MEASURED_DISTANCES = {
    "f193_mla2_inf": {1: 978.2797, 2: 489.1026},
    "f90_mla2_inf": {1: 213.9573, 2: 106.9431},
    "f193_mla1_inf": {1: 2151.2840, 2: 1075.1177},
    "f193_mla2_3m": {0: 3000.8133, 1: 877.4653, 2: 513.8952},
    "f90_mla2_3m": {0: 2923.2193, 1: 212.0285, 2: 109.9610},
    "f193_mla1_3m": {0: 2999.3120, 1: 1427.8084, 2: 937.1572},
    "f193_mla2_1p5m": {-1: 15764.1482, 0: 1482.3969, 1: 777.8168, 2: 527.0279},
    "f90_mla2_1p5m": {0: 1412.2221, 1: 209.5320, 2: 113.0602},
    "f193_mla1_1p5m": {-1: 2517.6509, 0: 1481.1620, 1: 1049.3327, 2: 811.8298},
}

MEASURED_FRONT_PUPIL = {"f193": 240.2113, "f90": 27.4627}


def test_focus_solver_reproduces_reference_image_distances(configs, states):
    for name, (b_u, d_ap) in FOCUS_REFERENCE.items():
        state = states[name]
        assert state.b_u_mm == pytest.approx(b_u, abs=5e-4), name
        assert state.d_ap_mm == pytest.approx(d_ap, abs=5e-4), name


def test_lens_prescriptions_recover_focal_length_and_principal_gap():
    for radius, f_s in ((0.70325, 1.25), (1.54715, 2.75)):
        mla = px.MicroLensSpec(None, 0.125, 3, 3, 1.1, 1.5626, radius, -math.inf)
        assert mla.focal_length_mm == pytest.approx(f_s, abs=1e-3)
        assert mla.principal_gap_mm == pytest.approx(0.396, abs=1e-3)


def test_reference_baselines(configs, states):
    array = px.build_virtual_camera_array(
        states["f197_mla2_inf"], configs["f197_mla2_inf"]
    )
    assert array.pair(4).baseline_mm == pytest.approx(2.5806, abs=5e-4)
    assert array.pair(8).baseline_mm == pytest.approx(5.1611, abs=5e-4)
    for name, (b_6, _) in WIDE_PAIR_REFERENCE.items():
        array = px.build_virtual_camera_array(states[name], configs[name])
        assert array.pair(6).baseline_mm == pytest.approx(b_6, abs=5e-4), name


def test_reference_tilt_angles(configs, states):
    array = px.build_virtual_camera_array(
        states["f197_mla2_4m"], configs["f197_mla2_4m"]
    )
    phi_4 = math.degrees(array.pair(4).tilt_rad)
    phi_8 = math.degrees(array.pair(8).tilt_rad)
    assert phi_4 == pytest.approx(0.0429, abs=5e-4)
    assert phi_8 == pytest.approx(0.0857, abs=5e-4)
    for name, (_, phi_6) in WIDE_PAIR_REFERENCE.items():
        array = px.build_virtual_camera_array(states[name], configs[name])
        got = math.degrees(array.pair(6).tilt_rad)
        assert got == pytest.approx(phi_6, abs=5e-4), name


def test_triangulated_distances(configs, states):
    for name, rows in DISTANCE_REFERENCE.items():
        array = px.build_virtual_camera_array(states[name], configs[name])
        for dx, expected in rows.items():
            got = px.triangulate(array, px.TriangulationQuery(gap=1, disparity_px=dx))
            if math.isinf(expected):
                assert math.isinf(got) and got > 0, (name, dx)
            elif abs(expected) > 15000:
                # Near-parallel pair: absolute band instead of relative.
                assert got == pytest.approx(expected, abs=2.0), (name, dx)
            else:
                assert got == pytest.approx(expected, rel=1e-4), (name, dx)


def test_compact_camera_baseline_estimates(configs, states):
    expected = {
        "lytro_f6p45": (0.3612, 2.8896),
        "lytro_f51p4": (2.8784, 23.0272),
    }
    for name, (b_1, b_8) in expected.items():
        array = px.build_virtual_camera_array(states[name], configs[name])
        assert round(array.pair(1).baseline_mm, 4) == b_1, name
        assert round(array.pair(8).baseline_mm, 4) == b_8, name


def test_ray_trace_oracle_agrees_with_closed_form(configs, states):
    def close(a, b, tol=1e-9):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    for name in WIDE_PAIR_REFERENCE:
        config, state = configs[name], states[name]
        sim = px.simulate_virtual_cameras(config, state)
        array = px.build_virtual_camera_array(state, config)
        assert sim.intersection_spread_mm < 1e-9, name
        assert close(
            sim.entrance_pupil_to_h1_mm, px.entrance_pupil_distance(state, config)
        ), name
        c = config.sensor.half_span
        for i in range(-c, c + 1):
            assert close(sim.positions_mm[i + c], array.position(i)), (name, i)
            assert close(sim.tilt_angles_rad[i + c], array.tilt(i)), (name, i)
        traced_b6 = abs(sim.positions_mm[c + 3] - sim.positions_mm[c - 3])
        assert close(traced_b6, array.pair(6).baseline_mm), name


def test_model_property_suite(configs, states):
    config, state = configs["f193_mla2_3m"], states["f193_mla2_3m"]

    # Virtual cameras sit on a uniform grid.
    array = px.build_virtual_camera_array(state, config)
    steps = np.diff(array.positions_mm)
    assert np.all(np.abs(steps - steps[0]) <= 1e-12 * abs(steps[0]))

    # Distance, baseline, and tilt recover their inputs through the inverse
    # relations.
    for gap, z in ((1, 900.0), (4, 2500.0), (6, 40000.0)):
        dx = px.disparity_for_distance(array, gap, z)
        assert px.triangulate(array, px.TriangulationQuery(gap, dx)) == pytest.approx(
            z, rel=1e-9
        )
        q = px.TriangulationQuery(gap, dx)
        b = px.measure_baseline(q, z, array)
        assert b == pytest.approx(array.pair(gap).baseline_mm, rel=1e-9)
        phi = px.measure_tilt(q, z, b, array)
        assert phi == pytest.approx(array.pair(gap).tilt_rad, abs=1e-9)

    # Mosaic decode and flatten are mutually inverse, bit for bit.
    rng = np.random.default_rng(99)
    raw = px.RawLightFieldImage(
        samples=rng.integers(0, 65536, size=(188 * 13, 281 * 13), dtype=np.uint16),
        config=config,
    )
    assert np.array_equal(flatten(px.decode(raw)).samples, raw.samples)

    # The vectorized matcher is the scalar reference, exactly.
    for seed in (1, 2, 3):
        r = np.random.default_rng(seed)
        left = r.integers(0, 256, size=(32, 32)).astype(float)
        right = r.integers(0, 256, size=(32, 32)).astype(float)
        params = px.MatchParams(block_size=7, max_disparity=3)
        got = px.block_match(left, right, params).values
        assert np.allclose(got, brute_force_match(left, right, params), equal_nan=True)


def test_end_to_end_disparity_and_depth_recovery(checker_lightfield, f197):
    disparity = match_views(checker_lightfield, -2, 2)
    finite = disparity[np.isfinite(disparity)]
    assert finite.size > 30000
    assert finite.mean() == pytest.approx(2.0, abs=0.25)

    # Feed the measured mean back through the depth mapping and require it to
    # land inside the band the disparity tolerance implies.
    z = px.triangulate(
        f197.array, px.TriangulationQuery(gap=4, disparity_px=float(finite.mean()))
    )
    low = px.triangulate(f197.array, px.TriangulationQuery(4, 2.25))
    high = px.triangulate(f197.array, px.TriangulationQuery(4, 1.75))
    assert low < z < high
    assert low < CHECKER_DEPTH_MM < high


def test_bench_measurements_within_one_percent(configs, states):
    def sane(predicted, measured, label):
        band = max(0.01 * abs(measured), 1e-3)
        assert abs(predicted - measured) <= band, (label, predicted, measured)

    for name, (front_pupil, b_6, phi_6) in MEASURED_PAIRS.items():
        config, state = configs[name], states[name]
        array = px.build_virtual_camera_array(state, config)
        v1 = config.main_lens.front_vertex_to_h1_mm + px.entrance_pupil_distance(
            state, config
        )
        sane(v1, front_pupil, (name, "front pupil"))
        sane(array.pair(6).baseline_mm, b_6, (name, "baseline"))
        sane(math.degrees(array.pair(6).tilt_rad), phi_6, (name, "tilt"))
    for name, rows in MEASURED_DISTANCES.items():
        array = px.build_virtual_camera_array(states[name], configs[name])
        for dx, measured in rows.items():
            got = px.triangulate(array, px.TriangulationQuery(1, dx))
            sane(got, measured, (name, dx))

"""Command line behaviour: outputs, exit codes, and the full pipeline."""

import hashlib
import math
import re

import numpy as np
import pytest

import plenax as px
from plenax import oracle
from plenax.cli import main

from conftest import smooth_tile
from test_disparity import _reference_block_match


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="session")
def f197_cfg_path():
    return str(px.fixture_path("f197_mla2_inf"))


class TestPredict:
    def test_reference_row(self, capsys, f197_cfg_path):
        code, out, _ = run(
            capsys, "predict", f197_cfg_path, "--gaps", "4", "--disparities", "2"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "G,dx,B_mm,Phi_deg,Z_mm"
        fields = lines[1].split(",")
        assert fields[0] == "4" and fields[1] == "2"
        assert float(fields[2]) == pytest.approx(2.5806, abs=5e-4)
        assert float(fields[3]) == pytest.approx(0.0, abs=5e-4)
        assert float(fields[4]) == pytest.approx(2034.8, abs=0.05)

    def test_zero_disparity_at_infinity_prints_inf(self, capsys, f197_cfg_path):
        code, out, _ = run(
            capsys, "predict", f197_cfg_path, "--gaps", "2", "--disparities", "0"
        )
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("2,0,")][0]
        assert row.split(",")[4] == "inf"

    def test_empty_gap_list_gives_header_only(self, capsys, f197_cfg_path):
        code, out, _ = run(capsys, "predict", f197_cfg_path, "--gaps", "")
        assert code == 0
        data = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert data == ["G,dx,B_mm,Phi_deg,Z_mm"]

    def test_byte_stable(self, capsys, f197_cfg_path, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["predict", f197_cfg_path, "--out", str(out_a)]) == 0
        assert main(["predict", f197_cfg_path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text().startswith("#")

    def test_metadata_lines_are_comments(self, capsys, f197_cfg_path):
        code, out, _ = run(capsys, "predict", f197_cfg_path, "--gaps", "1")
        header = [l for l in out.splitlines() if l.startswith("#")]
        assert any("b_u_mm" in l for l in header)
        assert any("entrance_pupil_mm" in l for l in header)

    def test_pupil_diameter_warning(self, capsys, f197_cfg_path):
        code, out, err = run(
            capsys, "predict", f197_cfg_path, "--gaps", "12", "--pupil-diameter-mm", "5.0"
        )
        assert code == 0
        assert "exceeds" in err

    @pytest.mark.parametrize("diameter", ["nan", "inf", "0", "-1"])
    def test_bad_pupil_diameter_is_usage_error(self, capsys, tmp_path, diameter):
        # nan used to pass silently, so the baseline warning could never fire.
        missing = tmp_path / "missing.cfg"
        with pytest.raises(SystemExit) as info:
            main(["predict", str(missing), "--gaps", "12", f"--pupil-diameter-mm={diameter}"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --pupil-diameter-mm: must be positive and finite" in err
        assert "missing.cfg" not in err

    @pytest.mark.parametrize("gaps", ["0,2", "2,-1", "0"])
    def test_gap_below_one_rejected_before_writing(self, capsys, f197_cfg_path, tmp_path, gaps):
        # "--gaps 0,2" used to exit 0 with a silent row "0,,0.000000,0.000000,".
        out = tmp_path / "table.csv"
        code, _, err = run(capsys, "predict", f197_cfg_path, "--gaps", gaps, "--out", str(out))
        assert code == 1
        bad = [g for g in gaps.split(",") if int(g) < 1][0]
        assert err.startswith("error: --gaps") and f"got {bad}" in err
        assert not out.exists()

    @pytest.mark.parametrize("disparities", ["nan", "1,inf"])
    def test_non_finite_disparity_rejected(self, capsys, f197_cfg_path, disparities):
        with pytest.raises(SystemExit) as info:
            main(["predict", f197_cfg_path, "--disparities", disparities])
        assert info.value.code == 2
        assert "--disparities: must be finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--disparities", "nan", "must be finite numbers"),
            ("--disparities", "1,x", "must be a comma-separated number list"),
            ("--gaps", "x", "must be a comma-separated integer list"),
        ],
    )
    def test_malformed_list_is_usage_error_before_reading(
        self, capsys, tmp_path, flag, value, message
    ):
        # The config does not exist: the flag is rejected before it is read.
        missing = tmp_path / "missing.cfg"
        with pytest.raises(SystemExit) as info:
            main(["predict", str(missing), flag, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: {message}, got {value!r}" in err
        assert "missing.cfg" not in err

    def test_bad_config_reports_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[sensor]\npixel_pitch_mm = 0.009\n")
        code, out, err = run(capsys, "predict", str(bad))
        assert code == 1
        assert err.startswith("error:")


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory, f197_cfg_path):
    root = tmp_path_factory.mktemp("pipeline")
    scene = root / "scene.txt"
    # Period chosen off the sampling lattice; the matched pair then sees
    # clean two-pixel structure (see conftest for the rationale).
    scene.write_text("plane 2034.788993120814 checker 8.644888669090911\n")
    raw = root / "raw.pgm"
    views = root / "views"
    assert main(["render", str(f197_cfg_path), str(scene), str(raw)]) == 0
    assert main(["extract", str(f197_cfg_path), str(raw), str(views)]) == 0
    return root


class TestRenderExtractPipeline:
    def test_views_written(self, pipeline):
        views = pipeline / "views"
        files = sorted(p.name for p in views.iterdir())
        assert len(files) == 169
        assert "view_+0_+0.pgm" in files
        assert "view_-6_-6.pgm" in files

    def test_disparity_and_depth(self, pipeline, f197_cfg_path):
        views = pipeline / "views"
        disp = pipeline / "disp.csv"
        gray = pipeline / "disp.pgm"
        code = main([
            "disparity",
            str(views / "view_-2_+0.pgm"),
            str(views / "view_+2_+0.pgm"),
            "--out", str(disp),
            "--graymap", str(gray),
        ])
        assert code == 0
        values = px.read_map_csv(disp)
        finite = values[np.isfinite(values)]
        assert finite.mean() == pytest.approx(2.0, abs=0.25)
        img, maxval = px.read_pgm(gray)
        assert maxval == 65535 and img.shape == values.shape

        depth = pipeline / "depth.csv"
        code = main([
            "depth", f197_cfg_path, str(disp), "--gap", "4", "--out", str(depth)
        ])
        assert code == 0
        z = px.read_map_csv(depth)
        zf = z[np.isfinite(z) & (z > 0)]
        # Band the disparity tolerance maps to through the triangulation.
        config = px.load_fixture("f197_mla2_inf")
        state = px.derive_focus_state(config)
        array = px.build_virtual_camera_array(state, config)
        low = px.triangulate(array, px.TriangulationQuery(4, 2.25))
        high = px.triangulate(array, px.TriangulationQuery(4, 1.75))
        assert low < zf.mean() < high

    def test_tilted_pair_disparity_and_depth(self, tmp_path):
        # f193_mla1_1p5m focuses at 1.5 m: its gap-1 axes converge at a
        # tilt worth 4.9 px of disparity, so a wrong tilt sign or size
        # misses the 0.15 px bound. One smooth texture plane at 1,100 mm,
        # on the rig cut to 81 x 61 lenses.
        text = px.fixture_path("f193_mla1_1p5m").read_text()
        text = re.sub(r"^lenses_h = \d+$", "lenses_h = 81", text, flags=re.M)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(re.sub(r"^lenses_v = \d+$", "lenses_v = 61", text, flags=re.M))
        px.write_pgm(tmp_path / "tile.pgm", smooth_tile(256), maxval=65535)
        depth_mm, gap, bound_px = 1100.0, 1, 0.15
        scene = tmp_path / "scene.txt"
        scene.write_text(f"plane {depth_mm} file tile.pgm 0.12\n")
        raw, views = tmp_path / "raw.pgm", tmp_path / "views"
        disp, depth = tmp_path / "disp.csv", tmp_path / "depth.csv"
        assert main(["render", str(cfg), str(scene), str(raw)]) == 0
        assert main(["extract", str(cfg), str(raw), str(views)]) == 0
        # The centred pair of a gap starts at viewpoint -(gap // 2).
        left, right = (views / px.view_filename(i - gap // 2, 0) for i in (0, gap))
        assert main([
            "disparity", str(left), str(right), "--block", "15", "--maxd", "5", "--out", str(disp)
        ]) == 0
        assert main(["depth", str(cfg), str(disp), "--gap", str(gap), "--out", str(depth)]) == 0

        config = px.load_config(cfg)
        array = px.build_virtual_camera_array(px.derive_focus_state(config), config)
        want = px.disparity_for_distance(array, gap, depth_mm)
        assert np.nanmedian(px.read_map_csv(disp)) == pytest.approx(want, abs=bound_px)
        # The same bound in mm: nearer for a larger disparity.
        near = px.triangulate(array, px.TriangulationQuery(gap, want + bound_px))
        far = px.triangulate(array, px.TriangulationQuery(gap, want - bound_px))
        assert near < np.nanmedian(px.read_map_csv(depth)) < far

    def test_extract_rejects_non_divisible_raw(self, capsys, tmp_path, f197_cfg_path):
        odd = tmp_path / "odd.pgm"
        px.write_pgm(odd, np.zeros((10, 10), dtype=np.uint16), maxval=255)
        code, _, err = run(capsys, "extract", f197_cfg_path, str(odd), str(tmp_path / "v"))
        assert code == 1
        assert "error:" in err

    def test_extract_names_a_raw_of_the_wrong_size(self, capsys, tmp_path, f197_cfg_path):
        odd = tmp_path / "odd.pgm"
        px.write_pgm(odd, np.zeros((10, 10), dtype=np.uint16), maxval=255)
        code, _, err = run(capsys, "extract", f197_cfg_path, str(odd), str(tmp_path / "v"))
        assert code == 1
        assert err == (
            f"error: {odd}: raw is 10x10 px but the config requires 3653x2444 "
            "(micro image size times lens count)\n"
        )

    def test_render_names_a_scene_that_is_not_utf8(self, capsys, tmp_path, f197_cfg_path):
        # The decode error used to print without the file's name.
        scene = tmp_path / "scene.txt"
        scene.write_bytes(b"plane 100 checker 4 \xff\n")
        code, _, err = run(
            capsys, "render", f197_cfg_path, str(scene), str(tmp_path / "o.pgm")
        )
        assert code == 1
        assert err.startswith(f"error: {scene}: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "o.pgm").exists()

    def test_render_rejects_bad_scene(self, capsys, tmp_path, f197_cfg_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("plane -5 checker 1\n")
        code, _, err = run(
            capsys, "render", f197_cfg_path, str(scene), str(tmp_path / "o.pgm")
        )
        assert code == 1
        assert "error:" in err


def _render_small_scene(tmp_path, fixture, maxval):
    """SHA-256 of `plenax render` on a fixture cut to 23 x 16 lenslets."""
    text = px.fixture_path(fixture).read_text()
    text = re.sub(r"^lenses_h = \d+$", "lenses_h = 23", text, flags=re.M)
    cfg = tmp_path / "small.cfg"
    cfg.write_text(re.sub(r"^lenses_v = \d+$", "lenses_v = 16", text, flags=re.M))
    rng = np.random.default_rng(2024)
    px.write_pgm(tmp_path / "tile.pgm", rng.integers(0, 1001, size=(24, 24)), maxval=1000)
    scene = tmp_path / "scene.txt"
    scene.write_text("plane 1500 checker 0.9 band -1 1\nplane 2500 file tile.pgm 0.05\n")
    out = tmp_path / "raw.pgm"
    assert main(["render", str(cfg), str(scene), str(out), "--maxval", str(maxval)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestRenderBytes:
    # SHA-256 of the graymap `plenax render` wrote for this scene when it
    # still rendered a float frame and quantized it afterwards. A seeded
    # tile with maxval 1000 puts fractional values and rounding on the path.
    @pytest.mark.parametrize("maxval, digest", [
        (65535, "09ab42a8b6681cbb1e37e0a34c364d1a3dca031f70bd5a451587c84a2e0c4bed"),
        (255, "fa0ab54848af960de9b7241ad60c0fe7fd8a7a1503f49699495675a6684a8871"),
    ])
    def test_small_scene_bytes_pinned(self, tmp_path, maxval, digest):
        assert _render_small_scene(tmp_path, "f197_mla2_inf", maxval) == digest

    # The same scene through thin lenslets, pinned when the oracle still
    # traced them as a single surface.
    @pytest.mark.parametrize("maxval, digest", [
        (65535, "4093c55a7790078898607e1b50d39fd74ca7f701a6bee5b5cf1a407411e3451c"),
        (255, "6256e5e264879709102588d32579be6c797a895704e340494afc9aab96974804"),
    ])
    def test_thin_lenslet_scene_bytes_pinned(self, tmp_path, maxval, digest):
        assert _render_small_scene(tmp_path, "lytro_f51p4", maxval) == digest

    @pytest.mark.parametrize("maxval", [65535, 1000, 255])
    def test_row_block_size_does_not_change_bytes(self, tmp_path, monkeypatch, maxval):
        # The pinned scene's 208 rows fit one block. Blocks of 3,400 bytes
        # hold 5 rows at 16 bits and 11 at 8 bits, with a short last block.
        whole = _render_small_scene(tmp_path, "f197_mla2_inf", maxval)
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", 3400)
        assert _render_small_scene(tmp_path, "f197_mla2_inf", maxval) == whole

    def test_maxval_out_of_range_is_an_error(self, capsys, tmp_path, f197_cfg_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("plane 1500 checker 0.9\n")
        out = tmp_path / "o.pgm"
        with pytest.raises(SystemExit) as info:
            main(["render", f197_cfg_path, str(scene), str(out), "--maxval", "70000"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --maxval: must be an integer in (0, 65536), got 70000" in err
        assert not out.exists()

    @pytest.mark.parametrize("maxval", ["0", "65536", "x"])
    def test_maxval_is_usage_error_before_reading(self, capsys, tmp_path, maxval):
        # Neither the config nor the scene exists: the flag fails first.
        out = tmp_path / "o.pgm"
        with pytest.raises(SystemExit) as info:
            main(["render", str(tmp_path / "missing.cfg"), str(tmp_path / "missing.txt"),
                  str(out), "--maxval", maxval])
        assert info.value.code == 2
        err = capsys.readouterr().err
        # "x" used to name the private parser: "invalid _maxval value: 'x'".
        assert f"argument --maxval: must be an integer in (0, 65536), got {maxval}" in err
        assert "missing" not in err and not out.exists()


class TestDisparityCommand:
    def test_even_block_is_usage_error(self, tmp_path):
        img = tmp_path / "x.pgm"
        px.write_pgm(img, np.zeros((40, 40), dtype=np.uint16), maxval=255)
        with pytest.raises(SystemExit) as info:
            main([
                "disparity", str(img), str(img), "--block", "28",
                "--out", str(tmp_path / "d.csv"),
            ])
        assert info.value.code == 2

    @pytest.mark.parametrize("block", ["28", "-1", "0", "x"])
    def test_bad_block_is_usage_error_before_reading(self, capsys, tmp_path, block):
        left, right = tmp_path / "l.pgm", tmp_path / "r.pgm"
        with pytest.raises(SystemExit) as info:
            main([
                "disparity", str(left), str(right), f"--block={block}",
                "--out", str(tmp_path / "d.csv"),
            ])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --block: must be odd and >= 1, got {block}" in err
        assert "l.pgm" not in err and not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("maxd", ["0", "-3"])
    def test_maxd_below_one_is_usage_error_before_reading(self, capsys, tmp_path, maxd):
        # The views do not exist: the flag is rejected before either is read.
        left, right = tmp_path / "l.pgm", tmp_path / "r.pgm"
        with pytest.raises(SystemExit) as info:
            main([
                "disparity", str(left), str(right), f"--maxd={maxd}",
                "--out", str(tmp_path / "d.csv"),
            ])
        assert info.value.code == 2
        assert f"argument --maxd: must be >= 1, got {maxd}" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_no_subpixel_yields_integers(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 255, size=(40, 60), dtype=np.uint16)
        left, right = tmp_path / "l.pgm", tmp_path / "r.pgm"
        px.write_pgm(left, a, maxval=255)
        px.write_pgm(right, np.roll(a, -1, axis=1), maxval=255)
        out = tmp_path / "d.csv"
        code = main([
            "disparity", str(left), str(right),
            "--block", "9", "--maxd", "3", "--no-subpixel", "--out", str(out),
        ])
        assert code == 0
        values = px.read_map_csv(out)
        finite = values[np.isfinite(values)]
        assert np.all(finite == np.round(finite))
        assert (finite == 1.0).mean() > 0.95


    def test_csv_bytes_match_float64_reference(self, tmp_path):
        # PGM views reach block_match as uint16 and take the int32 path.
        rng = np.random.default_rng(8)
        a = rng.integers(0, 65536, size=(45, 70), dtype=np.uint16)
        left, right = tmp_path / "l.pgm", tmp_path / "r.pgm"
        px.write_pgm(left, a, maxval=65535)
        px.write_pgm(right, np.roll(a, 2, axis=1), maxval=65535)
        out = tmp_path / "d.csv"
        code = main([
            "disparity", str(left), str(right), "--block", "9", "--maxd", "5", "--out", str(out),
        ])
        assert code == 0
        l_view, _ = px.read_pgm(left)
        r_view, _ = px.read_pgm(right)
        params = px.MatchParams(block_size=9, max_disparity=5)
        header = {
            "left": str(left), "right": str(right), "block": 9, "max_disparity": 5,
            "subpixel": True,
        }
        want = tmp_path / "want.csv"
        px.write_map_csv(
            want,
            _reference_block_match(l_view.astype(np.float64), r_view.astype(np.float64), params),
            header=header,
        )
        assert out.read_bytes() == want.read_bytes()


    def test_views_of_different_maxval_rejected(self, capsys, tmp_path):
        # A 16-bit and an 8-bit view used to be matched silently.
        a = np.random.default_rng(4).integers(0, 256, size=(40, 40), dtype=np.uint16)
        left, right = tmp_path / "l.pgm", tmp_path / "r.pgm"
        px.write_pgm(left, a, maxval=65535)
        px.write_pgm(right, a, maxval=255)
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, "disparity", str(left), str(right), "--out", str(out))
        assert code == 1
        assert err == f"error: view maxvals differ: {left} has 65535, {right} has 255\n"
        assert not out.exists()

    def test_views_of_different_size_name_both_files(self, capsys, tmp_path):
        left, right = tmp_path / "l.pgm", tmp_path / "r.pgm"
        px.write_pgm(left, np.zeros((40, 40), dtype=np.uint16), maxval=255)
        px.write_pgm(right, np.zeros((40, 41), dtype=np.uint16), maxval=255)
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, "disparity", str(left), str(right), "--out", str(out))
        assert code == 1
        assert err == f"error: view sizes differ: {left} is 40x40, {right} is 41x40\n"
        assert not out.exists()


class TestDepthCommand:
    def test_non_ascii_byte_names_path_and_line(self, capsys, tmp_path, f197_cfg_path):
        disp = tmp_path / "bad.csv"
        disp.write_bytes(b"# header\n1.0,2.0\n1.0,\xe9\n")
        out = tmp_path / "z.csv"
        code, _, err = run(
            capsys, "depth", f197_cfg_path, str(disp), "--gap", "1", "--out", str(out)
        )
        assert code == 1
        assert err == f"error: {disp}:3: byte 0xe9 is not ASCII\n"
        assert not out.exists()

    def test_bad_cell_names_path_and_line(self, capsys, tmp_path, f197_cfg_path):
        disp = tmp_path / "bad.csv"
        disp.write_text("# header\n1.0,2.0\n1.0,x\n")
        out = tmp_path / "z.csv"
        code, _, err = run(
            capsys, "depth", f197_cfg_path, str(disp), "--gap", "1", "--out", str(out)
        )
        assert code == 1
        assert f"{disp}:3: could not convert string to float: 'x'" in err
        assert not out.exists()

    def test_nan_propagates_and_inf_for_zero(self, tmp_path, f197_cfg_path):
        disp = tmp_path / "d.csv"
        px.write_map_csv(disp, np.array([[0.0, np.nan], [2.0, 4.0]]))
        out = tmp_path / "z.csv"
        assert main(["depth", f197_cfg_path, str(disp), "--gap", "4", "--out", str(out)]) == 0
        z = px.read_map_csv(out)
        assert math.isinf(z[0, 0]) and z[0, 0] > 0
        assert math.isnan(z[0, 1])
        assert z[1, 0] == pytest.approx(2034.788993120814, rel=1e-9)
        assert z[1, 1] == pytest.approx(z[1, 0] / 2, rel=1e-6)

    def test_header_names_config_and_gap(self, tmp_path, f197_cfg_path):
        disp = tmp_path / "d.csv"
        px.write_map_csv(disp, np.array([[1.0]]))
        out = tmp_path / "z.csv"
        main(["depth", f197_cfg_path, str(disp), "--gap", "2", "--out", str(out)])
        text = out.read_text()
        assert "# gap: 2" in text
        assert "baseline_mm" in text

    def test_truncated_map_rejected_before_writing(self, capsys, tmp_path, f197_cfg_path):
        # It used to exit 0 with a depth map of the rows that were left.
        disp = tmp_path / "d.csv"
        px.write_map_csv(disp, np.ones((4, 3)))
        lines = disp.read_text().splitlines(keepends=True)
        disp.write_text("".join(lines[:-2]))
        out = tmp_path / "z.csv"
        code, _, err = run(capsys, "depth", f197_cfg_path, str(disp), "--gap", "1", "--out", str(out))
        assert code == 1
        assert err == f"error: {disp}: header declares a 4x3 map, the body holds 2x3\n"
        assert not out.exists()

    def test_empty_map_rejected_before_writing(self, capsys, tmp_path, f197_cfg_path):
        # It used to exit 0 with a 0x0 depth map.
        disp = tmp_path / "d.csv"
        disp.write_text("")
        out = tmp_path / "z.csv"
        code, _, err = run(capsys, "depth", f197_cfg_path, str(disp), "--gap", "1", "--out", str(out))
        assert code == 1
        assert err == f"error: {disp}: no map rows, and no declared rows and cols\n"
        assert not out.exists()

    @pytest.mark.parametrize("gap", ["0", "-1", "13"])
    def test_gap_outside_span_rejected_before_writing(self, capsys, tmp_path, f197_cfg_path, gap):
        # "--gap 0" used to exit 0 with a zero baseline and zero depths.
        disp = tmp_path / "d.csv"
        px.write_map_csv(disp, np.array([[1.0]]))
        out = tmp_path / "z.csv"
        code, _, err = run(capsys, "depth", f197_cfg_path, str(disp), "--gap", gap, "--out", str(out))
        assert code == 1
        assert err.startswith("error: gap must lie in [1, 12]") and f"got {gap}" in err
        assert not out.exists()


class TestVerify:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_each_fixture_is_loaded_once(self, capsys, monkeypatch):
        loaded = []

        def load_config(path):
            loaded.append(path)
            return px.load_config(path)

        monkeypatch.setattr(px.presets, "load_config", load_config)
        code, _, _ = run(capsys, "verify")
        assert code == 0
        assert sorted(loaded) == sorted(map(px.fixture_path, px.fixture_names()))

    def test_single_fixture(self, capsys):
        code, out, _ = run(capsys, "verify", "f90_mla2_3m")
        assert code == 0
        assert "f90_mla2_3m" in out

    def test_unknown_fixture_errors(self, capsys):
        code, _, err = run(capsys, "verify", "not_a_rig")
        assert code == 1
        assert "error:" in err

    def test_unknown_fixture_fails_before_any_report(self, capsys):
        code, out, err = run(capsys, "verify", "f90_mla2_3m", "nosuch")
        assert code == 1
        assert out == ""
        known = ", ".join(px.fixture_names())
        assert err == f"error: no fixture 'nosuch' (shipped: {known})\n"

    def test_unknown_reference_message_is_unquoted(self, capsys, f197_cfg_path):
        code, out, err = run(capsys, "verify", "--config", f197_cfg_path, "--reference", "nosuch")
        assert code == 1
        assert out == ""
        assert err.startswith("error: no reference values for 'nosuch' (known: f193_mla1_1p5m,")
        assert err.endswith(")\n")

    def test_perturbed_focal_length_fails(self, capsys, tmp_path):
        text = px.fixture_path("f193_mla2_inf").read_text()
        text = text.replace("r1_mm", "# r1_mm").replace("r2_mm", "# r2_mm")
        text = text.replace("t_mm", "# t_mm").replace("n =", "# n =")
        text = text.replace("f_s_mm = 2.75", "f_s_mm = 2.7775")
        bad = tmp_path / "drifted.cfg"
        bad.write_text(text if "f_s_mm" in text else text + "\nf_s_mm = 2.7775\n")
        code, out, _ = run(
            capsys, "verify", "--config", str(bad), "--reference", "f193_mla2_inf"
        )
        assert code == 1
        assert "FAIL" in out

    def test_missing_front_vertex_skips_with_notice(self, capsys, tmp_path):
        text = px.fixture_path("f193_mla2_inf").read_text()
        lines = [l for l in text.splitlines() if not l.startswith("v1h1_mm")]
        trimmed = tmp_path / "no_vertex.cfg"
        trimmed.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, "verify", "--config", str(trimmed), "--reference", "f193_mla2_inf"
        )
        assert code == 0
        assert "SKIP" in out
        assert "front vertex" in out

    def test_thin_lenslet_camera_skips_both_prescription_checks(self, capsys):
        lytro = str(px.fixture_path("lytro_f51p4"))
        code, out, _ = run(
            capsys, "verify", "--config", lytro, "--reference", "f193_mla2_inf"
        )
        assert code == 1
        skips = [line for line in out.splitlines() if line.startswith("SKIP")]
        assert skips == [
            "SKIP lenslet principal plane gap: skipped: no lens prescription to derive it from",
            "SKIP front vertex to entrance pupil: skipped: front vertex position not given",
        ]
        # The two skips are counted apart, not as passes.
        assert out.splitlines()[-2:] == ["2 checks skipped", "22/28 checks passed"]
        outcomes = px.run_factory_checks("f193_mla2_inf", px.load_fixture("lytro_f51p4"))
        skipped = [o for o in outcomes if o.note]
        assert len(skipped) == 2
        assert all(o.passed and math.isnan(o.got) for o in skipped)

    def test_every_outcome_records_builtin_floats(self):
        # --verbose prints repr(got); an np.float64 or int would change it.
        names = px.fixture_names()
        assert len(names) == 13
        outcomes = []
        for name in names:
            outcomes += px.run_factory_checks(name)
            outcomes += px.run_consistency_checks(px.load_fixture(name))
        assert len(outcomes) == 455
        for o in outcomes:
            assert type(o.got) is float and type(o.expected) is float, o

    def test_config_without_reference_runs_consistency(self, capsys, f197_cfg_path):
        code, out, _ = run(capsys, "verify", "--config", f197_cfg_path)
        assert code == 0
        assert "checks passed" in out

    def test_reference_without_config_errors(self, capsys):
        code, _, err = run(capsys, "verify", "--reference", "f90_mla2_3m")
        assert code == 1
        assert "--config" in err

    def test_fixture_names_conflict_with_config(self, capsys, f197_cfg_path):
        code, _, err = run(capsys, "verify", "f90_mla2_3m", "--config", f197_cfg_path)
        assert code == 1
        assert "not both" in err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

"""Raw mosaic decoding, view extraction, and PGM round trips."""

import numpy as np
import pytest

import plenax as px


@pytest.fixture()
def small_config():
    return px.CameraConfig(
        sensor=px.SensorSpec(pixel_pitch_mm=0.009, micro_image_px=5),
        mla=px.MicroLensSpec(focal_length_mm=2.75, pitch_mm=0.125, count_h=7, count_v=4),
        main_lens=px.MainLensSpec(
            focal_length_mm=197.1264, exit_pupil_inf_mm=100.5, principal_gap_mm=147.4618
        ),
        focus=px.FocusSetting(px.INFINITY),
    )


@pytest.fixture()
def small_raw(small_config):
    rng = np.random.default_rng(7)
    samples = rng.integers(0, 65536, size=(4 * 5, 7 * 5), dtype=np.uint16)
    return px.RawLightFieldImage(samples=samples, config=small_config)


class TestIndexing:
    def test_translate_centres_viewpoint(self):
        assert px.index_translate(0, 0, 13) == 6
        assert px.index_translate(3, -2, 13) == 3 * 13 + 4

    def test_translate_invert_round_trip(self):
        for j in range(5):
            for i in range(-6, 7):
                k = px.index_translate(j, i, 13)
                assert px.index_invert(k, 13) == (j, i)

    def test_out_of_range_offset_rejected(self):
        with pytest.raises(ValueError):
            px.index_translate(0, 7, 13)


class TestDecode:
    def test_shape_validation(self, small_config):
        with pytest.raises(ValueError):
            px.RawLightFieldImage(samples=np.zeros((19, 35)), config=small_config)
        with pytest.raises(ValueError):
            px.LightField4D(samples=np.zeros((7, 4, 5, 4)), config=small_config)

    def test_round_trip_bit_exact(self, small_raw):
        lf = px.decode(small_raw)
        back = px.flatten(lf)
        assert back.samples.dtype == small_raw.samples.dtype
        assert np.array_equal(back.samples, small_raw.samples)

    def test_decode_places_micro_images(self, small_raw, small_config):
        lf = px.decode(small_raw)
        m = small_config.sensor.micro_image_px
        # Sample (j, h, i, g) must come from mosaic row h*M+c+g, col j*M+c+i.
        c = small_config.sensor.half_span
        assert lf.samples[3, 2, c + 1, c - 2] == small_raw.samples[2 * m + c - 2, 3 * m + c + 1]

    def test_rotate_180_double_apply_is_identity(self, small_raw):
        once = px.decode(small_raw, rotate_180=True)
        raw_back = px.flatten(once)
        twice = px.decode(raw_back, rotate_180=True)
        assert np.array_equal(twice.samples, px.decode(small_raw).samples)

    def test_rotate_180_flips_mosaic(self, small_raw):
        rotated = px.decode(small_raw, rotate_180=True)
        flipped = px.RawLightFieldImage(
            samples=small_raw.samples[::-1, ::-1].copy(), config=small_raw.config
        )
        assert np.array_equal(rotated.samples, px.decode(flipped).samples)


class TestViews:
    def test_extract_view_layout(self, small_raw, small_config):
        lf = px.decode(small_raw)
        view = px.extract_view(lf, 1, -2)
        assert view.viewpoint == (1, -2)
        assert view.pixels.shape == (4, 7)
        c = small_config.sensor.half_span
        assert np.array_equal(view.pixels, lf.samples[:, :, c + 1, c - 2].T)

    def test_extract_all_views_covers_span(self, small_raw):
        views = px.extract_all_views(px.decode(small_raw))
        assert len(views) == 25
        assert (0, 0) in views and (-2, 2) in views

    def test_view_filename(self):
        assert px.view_filename(-2, 0) == "view_-2_+0.pgm"
        assert px.view_filename(3, -1) == "view_+3_-1.pgm"

    def test_offset_outside_span_rejected(self, small_raw):
        with pytest.raises(ValueError):
            px.extract_view(px.decode(small_raw), 3, 0)


class TestPgm:
    def test_binary_16bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 65536, size=(9, 14), dtype=np.uint16)
        path = tmp_path / "img.pgm"
        px.write_pgm(path, img, maxval=65535)
        back, maxval = px.read_pgm(path)
        assert maxval == 65535
        assert np.array_equal(back, img)

    def test_binary_8bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        img = rng.integers(0, 256, size=(5, 6), dtype=np.uint16)
        path = tmp_path / "img8.pgm"
        px.write_pgm(path, img, maxval=255)
        back, maxval = px.read_pgm(path)
        assert maxval == 255
        assert np.array_equal(back, img)

    @pytest.mark.parametrize("maxval, dtype", [(255, "u1"), (65535, ">u2")])
    def test_binary_bytes_of_strided_samples(self, tmp_path, maxval, dtype):
        # A transposed, every-other-column view: the file holds its rows in
        # order, big-endian for 16 bits.
        rng = np.random.default_rng(13)
        img = rng.integers(0, maxval + 1, size=(12, 7), dtype=np.uint16).T[:, ::2]
        path = tmp_path / "strided.pgm"
        px.write_pgm(path, img, maxval=maxval)
        header = f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii")
        assert path.read_bytes() == header + np.ascontiguousarray(img).astype(dtype).tobytes()

    def test_ascii_round_trip(self, tmp_path):
        img = np.arange(12, dtype=np.uint16).reshape(3, 4)
        path = tmp_path / "ascii.pgm"
        px.write_pgm(path, img, maxval=100, binary=False)
        back, maxval = px.read_pgm(path)
        assert maxval == 100
        assert np.array_equal(back, img)

    def test_reads_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n3 2\n# another\n9\n1 2 3\n4 5 6\n")
        img, maxval = px.read_pgm(path)
        assert maxval == 9
        assert np.array_equal(img, [[1, 2, 3], [4, 5, 6]])

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            px.read_pgm(path)

    def test_value_above_maxval_rejected(self, tmp_path):
        img = np.array([[300]], dtype=np.uint16)
        with pytest.raises(ValueError):
            px.write_pgm(tmp_path / "over.pgm", img, maxval=255)

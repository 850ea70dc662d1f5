"""Raw mosaic decoding, view extraction, and PGM round trips."""

import contextlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import plenax as px
from plenax.cli import main

from conftest import flatten, rig, rig_file


@pytest.fixture()
def small_config():
    return rig(5, 7, 4)


@pytest.fixture()
def small_raw(small_config):
    rng = np.random.default_rng(7)
    samples = rng.integers(0, 65536, size=(4 * 5, 7 * 5), dtype=np.uint16)
    return px.RawLightFieldImage(samples=samples, config=small_config)


class TestDecode:
    def test_shape_validation(self, small_config):
        with pytest.raises(ValueError):
            px.RawLightFieldImage(samples=np.zeros((19, 35)), config=small_config)
        with pytest.raises(ValueError, match=r"^samples must be 2-D, got shape \(5,\)$"):
            px.RawLightFieldImage(samples=np.zeros(5), config=small_config)

    def test_round_trip_bit_exact(self, small_raw):
        views = px.decode(small_raw)
        back = flatten(views)
        assert back.samples.dtype == small_raw.samples.dtype
        assert np.array_equal(back.samples, small_raw.samples)

    def test_decode_places_micro_images(self, small_raw, small_config):
        views = px.decode(small_raw)
        m = small_config.sensor.micro_image_px
        # Sample (j, h, i, g) must come from mosaic row h*M+c+g, col j*M+c+i.
        c = small_config.sensor.half_span
        assert views[c + 1, c - 2, 2, 3] == small_raw.samples[2 * m + c - 2, 3 * m + c + 1]

    def test_rotate_180_double_apply_is_identity(self, small_raw):
        once = px.decode(_rotated(small_raw))
        raw_back = flatten(once)
        twice = px.decode(_rotated(raw_back))
        assert np.array_equal(twice, px.decode(small_raw))

    def test_rotate_180_reverses_each_view_and_its_offset(self, small_raw):
        # What `plenax extract --rotate-180` writes: view (i, g) of the
        # reversed raw is view (-i, -g) read backwards.
        rotated = px.decode(_rotated(small_raw))
        upright = px.decode(small_raw)
        assert np.array_equal(rotated, upright[::-1, ::-1, ::-1, ::-1])
        assert np.shares_memory(rotated, small_raw.samples)


def _rotated(raw):
    """raw turned by 180 degrees: its samples reversed in both axes, not copied."""
    return px.RawLightFieldImage(samples=raw.samples[::-1, ::-1], config=raw.config)


class TestViewMajorDecode:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.sampled_from([3, 5, 7, 9]),
        count_h=st.sampled_from([1, 3, 5, 7]),
        count_v=st.integers(1, 6),
        dtype=st.sampled_from([np.uint8, np.uint16, np.float64]),
        layout=st.sampled_from(["C", "F", "column slice"]),
        rotate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_views_match_strided_formula(self, m, count_h, count_v, dtype, layout, rotate, seed):
        config = rig(m, count_h, count_v)
        rng = np.random.default_rng(seed)
        shape = (count_v * m, count_h * m)
        if layout == "column slice":  # neither C- nor Fortran-contiguous
            wide = (rng.random((shape[0], shape[1] + 7)) * 255).astype(dtype)
            samples = wide[:, 3 : 3 + shape[1]]
        else:
            samples = (rng.random(shape) * 255).astype(dtype, order=layout)
        raw = px.RawLightFieldImage(samples=samples, config=config)
        views = px.decode(_rotated(raw) if rotate else raw)
        assert views.shape == (m, m, count_v, count_h)
        assert np.shares_memory(views, samples) and not views.flags.writeable
        assert samples.flags.writeable
        mosaic = samples[::-1, ::-1] if rotate else samples
        c = (m - 1) // 2
        for g in range(-c, c + 1):
            for i in range(-c, c + 1):
                expected = np.ascontiguousarray(mosaic[c + g :: m, c + i :: m]).tobytes()
                assert views[c + i, c + g].tobytes() == expected
                pixels = px.extract_view(views, i, g).pixels
                assert np.shares_memory(pixels, samples) and not pixels.flags.writeable
                assert pixels.shape == (count_v, count_h)
                assert pixels.tobytes() == expected
        back = flatten(px.decode(raw)).samples
        assert back.dtype == samples.dtype
        assert back.tobytes() == samples.tobytes()
        with pytest.raises(ValueError):
            views[0, 0, 0, 0] = 1
        with pytest.raises(ValueError):
            px.extract_view(views, 0, 0).pixels[0, 0] = 1

    @pytest.mark.parametrize("rotate", [False, True])
    def test_decode_copies_no_frame(self, rotate):
        # f197 size: the 17.9 MB raw is reindexed in place, not copied.
        config = px.load_fixture("f197_mla2_inf")
        samples = np.zeros((config.image_height_px, config.image_width_px), dtype=np.uint16)
        raw = px.RawLightFieldImage(samples=samples, config=config)
        tracemalloc.start()
        try:
            views = px.decode(_rotated(raw) if rotate else raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert np.shares_memory(views, samples)

    def test_views_share_the_decoded_storage(self):
        # f197 size: the 169 views are slices of the 17.9 MB raw, where the
        # strided copies they replaced allocated 17.9 MB.
        config = px.load_fixture("f197_mla2_inf")
        samples = np.zeros((config.image_height_px, config.image_width_px), dtype=np.uint16)
        decoded = px.decode(px.RawLightFieldImage(samples=samples, config=config))
        tracemalloc.start()
        try:
            views = px.extract_all_views(decoded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(views) == 169
        assert peak < 1e6
        assert all(np.shares_memory(v.pixels, decoded) for v in views.values())


class TestViews:
    def test_extract_view_layout(self, small_raw, small_config):
        view = px.extract_view(px.decode(small_raw), 1, -2)
        assert view.viewpoint == (1, -2)
        assert view.pixels.shape == (4, 7)
        m = small_config.sensor.micro_image_px
        c = small_config.sensor.half_span
        assert np.array_equal(view.pixels, small_raw.samples[c - 2 :: m, c + 1 :: m])

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

    @pytest.mark.parametrize(
        "maxval, dtype, size",
        [
            pytest.param(255, "u1", (12, 7), id="255-u1"),
            pytest.param(65535, ">u2", (12, 7), id="65535->u2"),
            # 1.2 MB written: more than one 1 MiB block of the former writer.
            pytest.param(65535, ">u2", (1200, 1000), id="65535->u2-1.2MB"),
        ],
    )
    def test_binary_bytes_of_strided_samples(self, tmp_path, maxval, dtype, size):
        # A transposed, every-other-column view: the file holds its rows in
        # order, big-endian for 16 bits.
        rng = np.random.default_rng(13)
        img = rng.integers(0, maxval + 1, size=size, dtype=np.uint16).T[:, ::2]
        path = tmp_path / "strided.pgm"
        px.write_pgm(path, img, maxval=maxval)
        header = f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii")
        assert path.read_bytes() == header + np.ascontiguousarray(img).astype(dtype).tobytes()

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

    @pytest.mark.parametrize("maxval", [0, 65536, 70000])
    def test_maxval_outside_read_range_rejected(self, tmp_path, maxval):
        # read_pgm rejects these; 16 bits would store the sample 70000 as 4464.
        img = np.array([[0, 70000]]) if maxval == 70000 else np.zeros((2, 2), np.uint16)
        with pytest.raises(ValueError, match=rf"m\.pgm: maxval {maxval} outside"):
            px.write_pgm(tmp_path / "m.pgm", img, maxval=maxval)

    @pytest.mark.parametrize("value", [2.7, math.nan, math.inf, -math.inf])
    def test_non_integer_samples_rejected(self, tmp_path, value):
        # A cast would store 2.7 as 2; NaN and inf have no integer at all.
        with pytest.raises(ValueError, match=r"f\.pgm: graymap samples must be finite integers"):
            px.write_pgm(tmp_path / "f.pgm", np.array([[1.0, value]]), maxval=255)

    @pytest.mark.parametrize("samples", [np.array([["a"]]), np.array([[1 + 2j]])])
    def test_non_numeric_samples_rejected(self, tmp_path, samples):
        path = tmp_path / "n.pgm"
        with pytest.raises(ValueError, match=r"n\.pgm: graymap samples must be numeric"):
            px.write_pgm(path, samples, maxval=255)
        assert not path.exists()

    @pytest.mark.parametrize("shape, field", [((0, 5), "height 0"), ((3, 0), "width 0")])
    def test_empty_array_rejected_before_the_file_opens(self, tmp_path, shape, field):
        # read_pgm rejects the `P5\n5 0\n255\n` such an array would give.
        path = tmp_path / "e.pgm"
        with pytest.raises(ValueError, match=rf"e\.pgm: {field} must be positive"):
            px.write_pgm(path, np.zeros(shape, np.uint16), maxval=255)
        assert not path.exists()

    def test_whole_float_samples_round_trip(self, tmp_path):
        path = tmp_path / "w.pgm"
        px.write_pgm(path, np.array([[0.0, 7.0], [300.0, 2.0]]), maxval=65535)
        back, maxval = px.read_pgm(path)
        assert maxval == 65535
        assert np.array_equal(back, [[0, 7], [300, 2]])


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the Python/numpy allocations it made."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedWrite:
    def test_f197_raw_write_makes_no_frame_copy(self, tmp_path):
        # A whole-frame astype('>u2') of this raw took 17.9 MB.
        config = px.load_fixture("f197_mla2_inf")
        shape = (config.image_height_px, config.image_width_px)
        raw = np.random.default_rng(14).integers(0, 65536, size=shape, dtype=np.uint16)
        path = tmp_path / "raw.pgm"
        _, peak = _traced_peak(px.write_pgm, path, raw, 65535)
        assert peak < 2e6
        header = f"P5\n{shape[1]} {shape[0]}\n65535\n".encode("ascii")
        with open(path, "rb") as f:
            assert f.read(len(header)) == header
            assert np.array_equal(np.fromfile(f, dtype=">u2").reshape(shape), raw)

    def test_float_frame_is_checked_in_blocks(self, tmp_path):
        # 9.6 MB of float64, whose whole-frame floor() alone took 9.6 MB.
        samples = (np.arange(1200 * 1000, dtype=np.float64) % 65536).reshape(1200, 1000)
        path = tmp_path / "f.pgm"
        _, peak = _traced_peak(px.write_pgm, path, samples, 65535)
        assert peak < 3e6
        header = b"P5\n1000 1200\n65535\n"
        assert path.read_bytes() == header + samples.astype(">u2").tobytes()

    @pytest.mark.parametrize("value, message", [
        pytest.param(0.5, "finite integers, got 0.5", id="fraction"),
        pytest.param(-1.0, "must be nonnegative", id="negative"),
        pytest.param(70000.0, "sample 70000 exceeds maxval 65535", id="above"),
    ])
    def test_fault_in_the_last_block_stops_the_write(self, tmp_path, value, message):
        samples = np.zeros((1200, 1000))
        samples[-1, -1] = value
        path = tmp_path / "late.pgm"
        with pytest.raises(ValueError, match=rf"late\.pgm: .*{re.escape(message)}"):
            px.write_pgm(path, samples, maxval=65535)
        assert not path.exists()


class TestGraymapWriter:
    def test_rows_short_of_the_height_remove_the_file(self, tmp_path):
        path = tmp_path / "short.pgm"
        with pytest.raises(ValueError, match=r"short\.pgm: wrote 2 of 3 rows"):
            px.lightfield._write_graymap(path, 4, 3, 255, [np.zeros((2, 4), np.uint8)])
        assert not path.exists()

    def test_a_block_above_maxval_stops_the_stream(self, tmp_path):
        path = tmp_path / "over.pgm"
        with pytest.raises(ValueError, match=r"over\.pgm: sample 1001 exceeds maxval 1000"):
            blocks = [np.array([[0, 1000]], np.uint16), np.array([[1001, 0]], np.uint16)]
            px.lightfield._write_graymap(path, 2, 2, 1000, blocks)
        assert not path.exists()

    def test_an_interrupt_mid_stream_removes_the_file(self, tmp_path):
        def blocks():
            yield np.zeros((1, 4), np.uint8)
            raise KeyboardInterrupt

        path = tmp_path / "cut.pgm"
        with pytest.raises(KeyboardInterrupt):
            px.lightfield._write_graymap(path, 4, 3, 255, blocks())
        assert not path.exists()

    @pytest.mark.parametrize("width, maxval, message", [
        pytest.param(0, 255, "width 0 must be positive", id="size"),
        pytest.param(4, 65536, "maxval 65536 outside", id="maxval"),
    ])
    def test_a_bad_header_leaves_an_existing_file(self, tmp_path, width, maxval, message):
        path = tmp_path / "kept.pgm"
        path.write_bytes(b"kept")
        with pytest.raises(ValueError, match=message):
            px.lightfield._write_graymap(path, width, 3, maxval, [])
        assert path.read_bytes() == b"kept"

    def test_a_block_of_the_wrong_width_removes_the_file(self, tmp_path):
        path = tmp_path / "narrow.pgm"
        with pytest.raises(ValueError) as info:
            px.lightfield._write_graymap(path, 4, 2, 255, [np.zeros((2, 3), np.uint8)])
        assert str(info.value) == f"{path}: a (2, 3) block is not 4 wide"
        assert not path.exists()

    def test_write_pgm_rejects_a_non_2d_array(self, tmp_path):
        path = tmp_path / "cube.pgm"
        with pytest.raises(ValueError) as info:
            px.write_pgm(path, np.zeros((2, 2, 2), np.uint8), maxval=255)
        assert str(info.value) == f"{path}: samples must be 2-D, got shape (2, 2, 2)"
        assert not path.exists()


@st.composite
def graymap_files(draw):
    """Graymap bytes, and the samples they hold when well formed, else None."""
    binary = draw(st.booleans())
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    maxval = draw(st.sampled_from([1, 100, 255, 256, 1000, 65535]))
    count = width * height
    values = np.array(
        draw(st.lists(st.integers(0, maxval), min_size=count, max_size=count))
    ).reshape(height, width)
    fields = [str(width), str(height), str(maxval)]
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    defect = draw(st.sampled_from(["none", "trailing", "field", "header", "body", "sample"]))
    if defect == "sample" and binary and maxval == np.iinfo(dtype).max:
        defect = "none"  # such a body cannot hold a sample above maxval
    stored = values.ravel().tolist()
    if defect == "field":
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from(["0", "-3", "x", "1.5", "65536"]))
    elif defect == "sample":
        stored[draw(st.integers(0, count - 1))] = draw(
            st.sampled_from([maxval + 1] if binary else [maxval + 1, -1, 10**30])
        )
    comment = draw(st.sampled_from(["", "# note\n", "#\n"]))
    header = f"{'P5' if binary else 'P2'}\n{comment}{' '.join(fields)}\n"
    if defect == "header":
        header = f"{'P5' if binary else 'P2'} {' '.join(fields[: draw(st.integers(0, 2))])}"
    if binary:
        body = np.array(stored).astype(dtype).tobytes()
    else:
        body = " ".join(str(v) for v in stored).encode("ascii") + b"\n"
    if defect == "body":
        body = body[: -draw(st.integers(1, 2))] if binary else body.rsplit(b" ", 1)[0]
        if not binary and count == 1:
            body = b""
    elif defect == "trailing":
        body += draw(st.binary(max_size=8)) if binary else b" 7 x\n"
    well_formed = defect in ("none", "trailing")
    return header.encode("ascii") + (b"" if defect == "header" else body), (
        (values, maxval) if well_formed else None
    )


class TestPgmMalformed:
    @pytest.mark.parametrize("content, field", [
        pytest.param(b"P5 -3 2 255\n" + bytes(6), "width -3", id="negative-width"),
        pytest.param(b"P5 3 0 255\n", "height 0", id="zero-height"),
        pytest.param(b"P5 x 2 255\n" + bytes(6), "width b'x'", id="non-integer-width"),
        pytest.param(b"P5 3 2", "no maxval", id="truncated-header"),
        pytest.param(b"P5 4 4 65535\n" + bytes(10), "truncated body", id="truncated-body"),
        pytest.param(b"P2 2 1 9\n3 -1\n", "sample -1", id="ascii-negative"),
        pytest.param(b"P2 2 1 9\n3 10\n", "sample 10", id="ascii-above-maxval"),
        pytest.param(b"P2 2 1 9\n3 1.5\n", "integers", id="ascii-non-integer"),
        pytest.param(b"P2 3 1 9\n3 1\n", "expected 3 samples", id="ascii-short"),
        pytest.param(b"P5 2 1 100\n\x05\xc8", "sample 200 exceeds maxval 100", id="8bit-above"),
        pytest.param(
            b"P5 1 1 1000\n\x07\xd0", "sample 2000 exceeds maxval 1000", id="16bit-above"
        ),
    ])
    def test_named_value_error(self, tmp_path, content, field):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            px.read_pgm(path)
        assert str(path) in str(info.value)
        assert field in str(info.value)

    def test_cli_reports_out_of_range_ascii_sample(self, capsys, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2 2 1 9\n3 -1\n")
        code = main(["disparity", str(path), str(path), "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert str(path) in capsys.readouterr().err

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=graymap_files())
    def test_reads_exactly_or_names_the_file(self, tmp_path, case):
        content, expected = case
        path = tmp_path / "img.pgm"
        path.write_bytes(content)
        if expected is None:
            with pytest.raises(ValueError, match=re.escape(str(path))):
                px.read_pgm(path)
            return
        samples, maxval = px.read_pgm(path)
        values, expected_maxval = expected
        assert maxval == expected_maxval
        assert samples.dtype == (np.uint16 if maxval > 255 else np.uint8)
        assert np.array_equal(samples, values)


# TestPgmMalformed's cases at the 3x6 px raw of an M = 3 rig with one lens
# column and two lens rows. A bad sample sits in the second lens row.
MALFORMED_RAWS = [
    pytest.param(b"P5 -3 6 255\n" + bytes(18), "width -3", id="negative-width"),
    pytest.param(b"P5 3 0 255\n", "height 0", id="zero-height"),
    pytest.param(b"P5 x 6 255\n" + bytes(18), "width b'x'", id="non-integer-width"),
    pytest.param(b"P5 3 6", "no maxval", id="truncated-header"),
    pytest.param(b"P5 3 6 65535\n" + bytes(35), "truncated body", id="truncated-body"),
    pytest.param(b"P2 3 6 9\n" + b"1 " * 16 + b"3 -1\n", "sample -1", id="ascii-negative"),
    pytest.param(b"P2 3 6 9\n" + b"1 " * 16 + b"3 10\n", "sample 10", id="ascii-above-maxval"),
    pytest.param(b"P2 3 6 9\n" + b"1 " * 16 + b"3 1.5\n", "integers", id="ascii-non-integer"),
    pytest.param(b"P2 3 6 9\n" + b"1 " * 16 + b"3\n", "expected 18 samples", id="ascii-short"),
    pytest.param(
        b"P5 3 6 100\n" + bytes(16) + b"\x05\xc8", "sample 200 exceeds maxval 100",
        id="8bit-above",
    ),
    pytest.param(
        b"P5 3 6 1000\n" + bytes(34) + b"\x07\xd0", "sample 2000 exceeds maxval 1000",
        id="16bit-above",
    ),
]


@pytest.fixture(scope="module")
def f197_raw(tmp_path_factory):
    """A full-range uint16 raw of the f197 rig, 3653x2444 px."""
    config = px.load_fixture("f197_mla2_inf")
    shape = (config.image_height_px, config.image_width_px)
    raw = tmp_path_factory.mktemp("f197") / "raw.pgm"
    samples = np.random.default_rng(15).integers(0, 65536, size=shape, dtype=np.uint16)
    px.write_pgm(raw, samples, maxval=65535)
    return raw


def _assert_extract_writes_decoded_views(tmp_path, cfg, raw, rotate):
    """`plenax extract` writes write_pgm's bytes for each view of read_pgm + decode."""
    flags = ["--rotate-180"] if rotate else []
    assert main(["extract", cfg, str(raw), str(tmp_path / "got"), *flags]) == 0
    read, read_maxval = px.read_pgm(raw)
    config = px.load_config(cfg)
    if rotate:
        read = read[::-1, ::-1]
    views = px.decode(px.RawLightFieldImage(samples=read, config=config))
    assert len(list((tmp_path / "got").iterdir())) == views.shape[0] * views.shape[1]
    for (i, g), view in px.extract_all_views(views).items():
        want = tmp_path / "want.pgm"
        px.write_pgm(want, view.pixels, maxval=read_maxval)
        assert (tmp_path / "got" / px.view_filename(i, g)).read_bytes() == want.read_bytes()


class TestStreamedExtract:
    """`plenax extract` streams lens-row blocks from the file into the view files."""

    @pytest.mark.parametrize("rotate", [False, True], ids=["upright", "rotate-180"])
    @pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
    @pytest.mark.parametrize("maxval", [255, 1000, 65535])
    def test_views_match_read_pgm_and_decode(self, tmp_path, binary, maxval, rotate):
        cfg = rig_file(tmp_path, 5, 7, 4)
        rng = np.random.default_rng(maxval)
        samples = rng.integers(0, maxval + 1, size=(20, 35), dtype=np.uint16)
        raw = tmp_path / "raw.pgm"
        if binary:
            px.write_pgm(raw, samples, maxval=maxval)
        else:
            rows = "\n".join(" ".join(str(v) for v in row) for row in samples)
            raw.write_text(f"P2\n35 20\n{maxval}\n{rows}\n")
        _assert_extract_writes_decoded_views(tmp_path, cfg, raw, rotate)

    @pytest.mark.parametrize("rotate", [False, True], ids=["upright", "rotate-180"])
    def test_f197_extract_holds_one_frame(self, tmp_path, f197_raw, rotate):
        # One row offset's 13 views go to the files: 1.6 MB traced, where
        # holding the views took 18.1 MB and read_pgm + decode 36 MB.
        argv = ["extract", str(px.fixture_path("f197_mla2_inf")), str(f197_raw),
                str(tmp_path / "v")] + (["--rotate-180"] if rotate else [])
        code, peak = _traced_peak(main, argv)
        assert code == 0
        assert peak < 2e6
        assert len(list((tmp_path / "v").iterdir())) == 169

    @pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
    @pytest.mark.parametrize("rotate", [False, True], ids=["upright", "rotate-180"])
    @pytest.mark.parametrize("maxval", [255, 1000, 65535])
    @pytest.mark.parametrize("lens_rows", [1, 3], ids=["1-lens-row", "3-lens-rows"])
    def test_grouped_passes_and_partial_blocks(self, tmp_path, monkeypatch, maxval, rotate,
                                               lens_rows, binary):
        # A budget of one (three) of the 40 lens rows gathers each row
        # offset's 5 views in groups of 1 (3, which does not divide 5), each
        # group re-reading the rows; the maxval scan's 3-lens-row blocks do
        # not divide the 40 lens rows either.
        cfg = rig_file(tmp_path, 5, 7, 40)
        samples = np.random.default_rng(maxval).integers(0, maxval + 1, size=(200, 35))
        raw = tmp_path / "raw.pgm"
        if binary:
            px.write_pgm(raw, samples, maxval=maxval)
        else:
            rows = "\n".join(" ".join(str(v) for v in row) for row in samples)
            raw.write_text(f"P2\n35 200\n{maxval}\n{rows}\n")
        lens_row_bytes = 5 * 35 * (2 if maxval > 255 else 1)
        monkeypatch.setattr(px.lightfield, "_BLOCK_BYTES", lens_rows * lens_row_bytes)
        _assert_extract_writes_decoded_views(tmp_path, cfg, raw, rotate)

    @pytest.mark.parametrize("rotate", [False, True], ids=["upright", "rotate-180"])
    @pytest.mark.parametrize("rig_name", ["5x7x4", "f197"])
    def test_each_view_is_one_write_with_one_file_open(self, tmp_path, monkeypatch, f197_raw,
                                                       rig_name, rotate):
        if rig_name == "f197":
            cfg, raw, views = str(px.fixture_path("f197_mla2_inf")), f197_raw, 169
        else:
            cfg, raw, views = rig_file(tmp_path, 5, 7, 4), tmp_path / "raw.pgm", 25
            px.write_pgm(raw, np.random.default_rng(3).integers(0, 1001, size=(20, 35)), 1000)
            monkeypatch.setattr(px.lightfield, "_BLOCK_BYTES", 5 * 35 * 2)
        lightfield = px.lightfield
        write_graymap, write_all, path_open = (
            lightfield._write_graymap, lightfield._write_all, Path.open
        )
        blocks, os_writes, open_now, most_open = {}, [], set(), []

        def counted_write_graymap(path, width, height, maxval, parts):
            parts, name = list(parts), Path(path).name
            blocks[name] = blocks.get(name, 0) + len(parts)
            write_graymap(path, width, height, maxval, parts)

        def counted_write_all(f, data):
            os_writes.append(f.name)
            write_all(f, data)

        @contextlib.contextmanager
        def counted(path, f):
            open_now.add(path)
            most_open.append(len(open_now))
            try:
                with f:
                    yield f
            finally:
                open_now.discard(path)

        def counted_open(self, mode="r", *args, **kwargs):
            f = path_open(self, mode, *args, **kwargs)
            return counted(self, f) if "w" in mode else f

        monkeypatch.setattr(lightfield, "_write_graymap", counted_write_graymap)
        monkeypatch.setattr(lightfield, "_write_all", counted_write_all)
        monkeypatch.setattr(Path, "open", counted_open)
        flags = ["--rotate-180"] if rotate else []
        assert main(["extract", cfg, str(raw), str(tmp_path / "v"), *flags]) == 0
        assert sorted(blocks) == sorted(p.name for p in (tmp_path / "v").iterdir())
        assert set(blocks.values()) == {1} and len(blocks) == views
        assert len(os_writes) == 2 * views  # one header and one body per view
        assert max(most_open) == 1

    @pytest.mark.parametrize("rotate", [False, True], ids=["upright", "rotate-180"])
    def test_sample_above_maxval_in_the_last_lens_row(self, capsys, tmp_path, monkeypatch,
                                                      rotate):
        # One lens row per block, so the bad sample is in the last block the
        # maxval scan reads; upright or rotated, no view is written.
        cfg = rig_file(tmp_path, 5, 7, 4)
        samples = np.full((20, 35), 1000, np.uint16)
        samples[-1, -1] = 1001
        raw = tmp_path / "raw.pgm"
        raw.write_bytes(b"P5\n35 20\n1000\n" + samples.astype(">u2").tobytes())
        with pytest.raises(ValueError) as info:
            px.read_pgm(raw)
        assert "sample 1001 exceeds maxval 1000" in str(info.value)
        monkeypatch.setattr(px.lightfield, "_BLOCK_BYTES", 5 * 35 * 2)
        flags = ["--rotate-180"] if rotate else []
        assert main(["extract", cfg, str(raw), str(tmp_path / "v"), *flags]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("content, field", MALFORMED_RAWS)
    def test_malformed_raw_fails_as_read_pgm_does(self, capsys, tmp_path, content, field):
        cfg = rig_file(tmp_path, 3, 1, 2)
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            px.read_pgm(path)
        assert str(path) in str(info.value)
        assert field in str(info.value)
        assert main(["extract", cfg, str(path), str(tmp_path / "v")]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not (tmp_path / "v").exists()

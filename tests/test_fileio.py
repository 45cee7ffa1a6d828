"""Tests for the on-disk formats: flow binaries, netpbm, masks, depth."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nvflow.fileio import (
    FlowFormatError,
    depth_from_pgm,
    depth_to_pgm,
    mask_from_pgm,
    mask_to_pgm,
    read_flow,
    read_pgm,
    read_ppm,
    sha256_file,
    write_flow,
    write_pgm,
    write_ppm,
)
from nvflow.geometry import DepthMap


class TestFlowFiles:
    def test_binary_round_trip_is_bit_exact(self, tmp_path, rng):
        positions = rng.standard_normal((41, 200, 3)).astype(np.float32)
        path = tmp_path / "flow.nvfl"
        stored = write_flow(path, positions, label="ignored in binary")
        back, label = read_flow(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, positions)
        assert stored.dtype == np.float64
        assert np.array_equal(stored, back)
        assert label == ""

    def test_binary_writer_returns_the_float32_values_it_stored(self, tmp_path, rng):
        positions = rng.standard_normal((6, 9, 3))
        path = tmp_path / "flow.nvfl"
        stored = write_flow(path, positions)
        back, _ = read_flow(path)
        assert stored.dtype == np.float64
        assert np.array_equal(stored, back)
        assert not np.array_equal(stored, positions)
        np.testing.assert_allclose(stored, positions, rtol=2**-24)

    def test_json_round_trip_keeps_label_and_precision(self, tmp_path, rng):
        positions = rng.standard_normal((5, 7, 3))
        path = tmp_path / "flow.json"
        stored = write_flow(path, positions, label="mug")
        back, label = read_flow(path)
        assert np.array_equal(back, positions)
        assert stored.dtype == back.dtype == np.float64
        assert np.array_equal(stored, back)
        assert label == "mug"

    def test_truncated_file_reports_unexpected_end(self, tmp_path, rng):
        path = tmp_path / "flow.nvfl"
        write_flow(path, rng.standard_normal((4, 3, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FlowFormatError, match="unexpected end of file"):
            read_flow(path)

    def test_truncated_header_reports_unexpected_end(self, tmp_path):
        path = tmp_path / "flow.nvfl"
        path.write_bytes(b"NVFL\x01\x00")
        with pytest.raises(FlowFormatError, match="unexpected end of file"):
            read_flow(path)

    def test_wrong_magic_reports_not_a_flow_file(self, tmp_path):
        path = tmp_path / "flow.nvfl"
        path.write_bytes(b"JUNKdata here")
        with pytest.raises(FlowFormatError, match="not a flow file"):
            read_flow(path)

    def test_error_carries_byte_offset(self, tmp_path, rng):
        path = tmp_path / "flow.nvfl"
        write_flow(path, rng.standard_normal((2, 3, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob[:20])
        with pytest.raises(FlowFormatError) as excinfo:
            read_flow(path)
        assert excinfo.value.byte_offset == 20

    def test_unsupported_version_rejected(self, tmp_path, rng):
        path = tmp_path / "flow.nvfl"
        write_flow(path, rng.standard_normal((2, 3, 3)))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FlowFormatError, match="version"):
            read_flow(path)

    def test_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError, match="positions"):
            write_flow(tmp_path / "x.nvfl", np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            write_flow(tmp_path / "x.nvfl", np.full((2, 2, 3), np.nan))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(frames=st.integers(1, 8), points=st.integers(1, 16),
           seed=st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, tmp_path, frames, points, seed):
        gen = np.random.default_rng(seed)
        positions = gen.standard_normal((frames, points, 3)).astype(np.float32)
        path = tmp_path / f"{seed}.nvfl"
        stored = write_flow(path, positions)
        back, _ = read_flow(path)
        assert np.array_equal(back, positions)
        assert np.array_equal(stored, back)


class TestNetpbm:
    def test_pgm_8bit_round_trip(self, tmp_path, rng):
        values = rng.integers(0, 256, size=(15, 23)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, values, maxval=255)
        back, maxval = read_pgm(path)
        assert maxval == 255
        assert np.array_equal(back, values)

    def test_pgm_16bit_round_trip(self, tmp_path, rng):
        values = rng.integers(0, 65536, size=(7, 9)).astype(np.uint16)
        path = tmp_path / "img.pgm"
        write_pgm(path, values, maxval=65535)
        back, maxval = read_pgm(path)
        assert maxval == 65535
        assert np.array_equal(back, values)

    def test_pgm_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "img.pgm"
        raster = bytes([5, 6, 7, 8, 9, 10])
        path.write_bytes(b"P5\n# a comment line\n3 2\n255\n" + raster)
        back, maxval = read_pgm(path)
        assert maxval == 255
        assert np.array_equal(back, np.frombuffer(raster, np.uint8).reshape(2, 3))

    def test_pgm_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            write_pgm(tmp_path / "img.pgm", np.array([[300]]), maxval=255)

    def test_pgm_truncated_raster(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(ValueError, match="unexpected end of file"):
            read_pgm(path)

    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(10, 12, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_ppm_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "img.ppm", np.zeros((4, 4, 3), dtype=float))


class TestMasks:
    def test_pgm_mask_round_trip(self, tmp_path, rng):
        mask = rng.random((9, 13)) > 0.5
        path = tmp_path / "mask.pgm"
        mask_to_pgm(path, mask)
        assert np.array_equal(mask_from_pgm(path), mask)


class TestDepth:
    def test_pgm_round_trip_at_millimeter_resolution(self, tmp_path, rng):
        mm = rng.integers(0, 3000, size=(6, 6)).astype(float)
        depth = DepthMap(mm / 1000.0)
        path = tmp_path / "depth.pgm"
        stored = depth_to_pgm(path, depth)
        back = depth_from_pgm(path)
        assert np.allclose(back.values, depth.values, atol=1e-12)
        assert stored.values.tobytes() == back.values.tobytes()

    def test_pgm_quantizes_to_millimeters(self, tmp_path):
        depth = DepthMap(np.array([[1.2344, 0.0]]))
        path = tmp_path / "depth.pgm"
        stored = depth_to_pgm(path, depth)
        back = depth_from_pgm(path)
        assert np.isclose(back.values[0, 0], 1.234)
        assert back.values[0, 1] == 0.0
        assert stored.values.tobytes() == back.values.tobytes()

    def test_pgm_writer_returns_the_depth_the_reader_decodes(self, tmp_path, rng):
        values = rng.uniform(0.2, 3.0, size=(7, 9))     # sub-millimetre sensor depth
        values[rng.random(values.shape) < 0.2] = 0.0    # invalid pixels
        path = tmp_path / "depth.pgm"
        stored = depth_to_pgm(path, DepthMap(values))
        back = depth_from_pgm(path)
        assert stored.values.dtype == back.values.dtype == np.float64
        assert stored.values.tobytes() == back.values.tobytes()
        assert np.abs(stored.values - values).max() <= 0.0005 + 1e-12
        assert np.array_equal(stored.values == 0.0, values == 0.0)

    def test_pgm_rejects_out_of_range_depth(self, tmp_path):
        with pytest.raises(ValueError, match="range"):
            depth_to_pgm(tmp_path / "depth.pgm", DepthMap(np.array([[70.0]])))


def test_sha256_matches_known_digest(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

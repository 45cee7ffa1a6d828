"""Tests for the on-disk formats: JSON, flow binaries, netpbm, masks, depth."""

import ast
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nvflow
from nvflow.fileio import (
    FlowFormatError,
    depth_from_pgm,
    depth_to_pgm,
    mask_from_pgm,
    mask_to_pgm,
    read_flow,
    read_json,
    read_pgm,
    sha256_file,
    write_flow,
    write_json,
    write_pgm,
    write_ppm,
)
from nvflow.geometry import DepthMap


class TestJson:
    @pytest.mark.parametrize("text", ["{not json", "[" * 100_000 + "]" * 100_000,
                                      b"{\"a\": \"\xff\"}"],
                             ids=["unparsable", "nested-too-deep", "not-utf8"])
    def test_a_file_that_does_not_parse_is_named(self, text, tmp_path):
        path = tmp_path / "bad_robot.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(ValueError, match=f"malformed JSON in {path}"):
            read_json(path)

    def test_round_trip_is_indented_and_sorted(self, tmp_path):
        doc = {"b": [1, 2.5], "a": {"d": None, "c": "x"}}
        write_json(tmp_path / "doc.json", doc)
        assert read_json(tmp_path / "doc.json") == doc
        assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2,
                                                                 sort_keys=True) + "\n"

    def test_only_read_json_parses_json(self):
        """One reader for every JSON file, so a failure to parse one names it:
        ``json.load`` and ``json.loads`` appear in nvflow only inside it."""
        found = []
        for path in sorted(Path(nvflow.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {}                   # node -> the outermost function it is in
            for func in ast.walk(tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for node in ast.walk(func):
                        owner.setdefault(node, func.name)
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                        and getattr(node.value, "id", None) == "json"):
                    found.append((path.name, owner.get(node)))
                elif isinstance(node, ast.ImportFrom) and node.module == "json":
                    found += [(path.name, f"from json import {a.name}") for a in node.names]
        assert found == [("fileio.py", "read_json")]


class TestFlowFiles:
    def test_binary_round_trip_is_bit_exact(self, tmp_path, rng):
        positions = rng.standard_normal((41, 200, 3)).astype(np.float32)
        path = tmp_path / "flow.nvfl"
        stored = write_flow(path, positions)
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

    def test_json_flow_is_read_with_its_label_and_precision(self, tmp_path, rng):
        positions = rng.standard_normal((5, 7, 3))
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({"version": 1, "frames": 5, "points": 7,
                                    "label": "mug", "positions": positions.tolist()}))
        back, label = read_flow(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, positions)
        assert label == "mug"

    def test_truncated_file_reports_unexpected_end(self, tmp_path, rng):
        path = tmp_path / "flow.nvfl"
        write_flow(path, rng.standard_normal((4, 3, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FlowFormatError, match="unexpected end of file"):
            read_flow(path)

    def test_trailing_bytes_are_rejected(self, tmp_path, rng):
        path = tmp_path / "flow.nvfl"
        write_flow(path, rng.standard_normal((2, 3, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob + bytes(12))
        with pytest.raises(FlowFormatError, match="trailing data") as excinfo:
            read_flow(path)
        assert excinfo.value.byte_offset == len(blob)

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
        write_pgm(path, values)
        assert path.read_bytes().startswith(b"P5\n23 15\n255\n")
        back = read_pgm(path)
        assert back.dtype == np.uint8
        assert np.array_equal(back, values)

    def test_pgm_16bit_round_trip(self, tmp_path, rng):
        values = rng.integers(0, 65536, size=(7, 9)).astype(np.uint16)
        path = tmp_path / "img.pgm"
        write_pgm(path, values)
        assert path.read_bytes().startswith(b"P5\n9 7\n65535\n")
        back = read_pgm(path)
        assert back.dtype == np.uint16
        assert np.array_equal(back, values)

    def test_pgm_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "img.pgm"
        raster = bytes([5, 6, 7, 8, 9, 10])
        path.write_bytes(b"P5\n# a comment line\n3 2\n255\n" + raster)
        back = read_pgm(path)
        assert back.dtype == np.uint8
        assert np.array_equal(back, np.frombuffer(raster, np.uint8).reshape(2, 3))

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint32, np.float64, bool])
    def test_pgm_rejects_other_sample_types(self, tmp_path, dtype):
        with pytest.raises(ValueError, match="uint8 or uint16"):
            write_pgm(tmp_path / "img.pgm", np.array([[1]], dtype=dtype))

    @pytest.mark.parametrize("maxval", [1, 254, 256, 65534, 65536])
    def test_pgm_rejects_other_maxvals(self, tmp_path, maxval):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n%d\n\0\0\0" % maxval)
        with pytest.raises(ValueError, match="maxval must be 255 or 65535"):
            read_pgm(path)

    def test_pgm_truncated_raster(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(ValueError, match="unexpected end of file"):
            read_pgm(path)

    def test_ppm_is_the_header_then_the_pixel_bytes(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(10, 12, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img[:, ::-1])    # a strided view is written in row order
        assert path.read_bytes() == b"P6\n12 10\n255\n" + img[:, ::-1].tobytes()

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
    def test_millimeter_map_is_written_and_read_back_as_its_samples(self, tmp_path, rng):
        mm = rng.integers(0, 65536, size=(5, 7)).astype(np.uint16)
        mm[0, :2] = 0, 65535
        path = tmp_path / "depth.pgm"
        depth_to_pgm(path, DepthMap(mm))
        assert path.read_bytes() == b"P5\n7 5\n65535\n" + mm.astype(">u2").tobytes()
        back = depth_from_pgm(path)
        assert back.samples.dtype == np.uint16
        assert back.samples.tobytes() == mm.tobytes()

    def test_float_map_is_rejected_not_truncated(self, tmp_path):
        path = tmp_path / "depth.pgm"
        with pytest.raises(ValueError, match="uint16 millimeters"):
            depth_to_pgm(path, DepthMap(np.array([[1.2344, 0.0]])))
        assert not path.exists()


def test_sha256_matches_known_digest(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 2**20 + 1])
def test_sha256_is_hashlib_sha256_of_the_bytes(size, tmp_path, rng):
    """Sizes around the 64 KiB read, and one past a MiB."""
    data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_sha256_holds_one_small_buffer(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(bytes(1 << 20))
    sha256_file(path)                     # first-call caches out of the count
    tracemalloc.start()
    try:
        sha256_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2e6

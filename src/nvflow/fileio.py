"""On-disk formats: flow files and netpbm images (masks, depth, renders).

Formats defined here:

* flow, binary (``.nvfl``): magic ``NVFL``, then little-endian u32 version (=1),
  u32 frame count T, u32 keypoint count K, then T*K*3 float32 positions in
  frame-major, keypoint-minor, xyz order.  The label is not stored.
* flow, JSON (``.json``): ``{"version": 1, "frames": T, "points": K,
  "label": str, "positions": [[[x, y, z] * K] * T]}``.
* mask: the first frame's object mask, one PGM (P5, maxval 255, 255 = object).
* depth: 16-bit PGM (P5, maxval 65535) holding millimeters.  A zero value
  marks an invalid pixel.

A scene bundle (``sim.SceneBundle``) also holds its 3-d tracks in numpy's
own ``.npy`` format, written by ``np.save`` and read without pickles:
``tracks.npy`` (T, M, 3) float64 positions and ``visible.npy`` (T, M) bool.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .geometry import DepthMap, _floats

__all__ = [
    "FlowFormatError",
    "write_flow",
    "read_flow",
    "write_pgm",
    "read_pgm",
    "write_ppm",
    "depth_to_pgm",
    "depth_from_pgm",
    "sha256_file",
]

FLOW_MAGIC = b"NVFL"
FLOW_VERSION = 1


class FlowFormatError(ValueError):
    """Malformed flow file; ``byte_offset`` points at the offending byte."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def write_flow(path, positions: np.ndarray, label: str = "") -> np.ndarray:
    """Write a flow to ``path``; JSON when the suffix is ``.json``, else binary.

    ``positions`` must be a finite (T, K, 3) array.  The binary layout stores
    float32 positions and no label; the JSON layout keeps full precision and
    the label.  Returns the positions :func:`read_flow` gives back, as
    float64: the float32 values for the binary layout, ``positions`` for JSON.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 3 or pos.shape[2] != 3 or pos.shape[0] < 1 or pos.shape[1] < 1:
        raise ValueError(f"flow positions must be (T, K, 3) with T, K >= 1, got {pos.shape}")
    if not np.isfinite(pos).all():
        raise ValueError("flow positions contain non-finite values")
    path = Path(path)
    frames, points = pos.shape[0], pos.shape[1]
    if path.suffix == ".json":
        doc = {
            "version": FLOW_VERSION,
            "frames": frames,
            "points": points,
            "label": label,
            "positions": pos.tolist(),
        }
        path.write_text(json.dumps(doc) + "\n")
        return pos
    stored = pos.astype("<f4")
    header = FLOW_MAGIC + struct.pack("<III", FLOW_VERSION, frames, points)
    path.write_bytes(header + stored.tobytes(order="C"))
    return stored.astype(float)


def read_flow(path) -> tuple[np.ndarray, str]:
    """Read a flow file; returns (positions (T, K, 3) float32-exact, label).

    Binary reads are bit-exact round-trips of :func:`write_flow`; the binary
    layout carries no label, so it comes back empty.
    """
    path = Path(path)
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        if doc.get("version") != FLOW_VERSION:
            raise FlowFormatError(f"unsupported flow version {doc.get('version')}", 0)
        pos = _floats(doc["positions"])
        if pos.shape != (doc["frames"], doc["points"], 3):
            raise FlowFormatError(
                f"positions shape {pos.shape} does not match header "
                f"({doc['frames']}, {doc['points']}, 3)", 0)
        return pos, str(doc.get("label", ""))
    blob = path.read_bytes()
    if len(blob) < 4 or blob[:4] != FLOW_MAGIC:
        raise FlowFormatError("not a flow file (bad magic)", 0)
    if len(blob) < 16:
        raise FlowFormatError("unexpected end of file in header", len(blob))
    version, frames, points = struct.unpack_from("<III", blob, 4)
    if version != FLOW_VERSION:
        raise FlowFormatError(f"unsupported flow version {version}", 4)
    expected = 16 + frames * points * 12
    if len(blob) < expected:
        raise FlowFormatError("unexpected end of file", len(blob))
    pos = np.frombuffer(blob, dtype="<f4", count=frames * points * 3, offset=16)
    return pos.reshape(frames, points, 3).astype(np.float32), ""


# -- netpbm ------------------------------------------------------------------

def write_pgm(path, values: np.ndarray, maxval: int = 255) -> None:
    """Write a P5 PGM; 16-bit samples are big-endian per the netpbm spec."""
    v = np.asarray(values)
    if v.ndim != 2:
        raise ValueError(f"PGM data must be 2-d, got shape {v.shape}")
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    if v.min() < 0 or v.max() > maxval:
        raise ValueError(f"values out of range for maxval {maxval}")
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n{maxval}\n".encode("ascii")
    dtype = ">u2" if maxval == 65535 else np.uint8
    Path(path).write_bytes(header + v.astype(dtype).tobytes(order="C"))


def _parse_pnm_header(blob: bytes, magic: bytes, fields: int) -> tuple[list[int], int]:
    if blob[:2] != magic:
        raise ValueError(f"not a {magic.decode()} file")
    pos = 2
    values: list[int] = []
    while len(values) < fields:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":  # comment runs to end of line
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated header")
        values.append(int(blob[start:pos]))
    return values, pos + 1  # single whitespace separates header from raster


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a P5 PGM; returns (values as uint8 or uint16, maxval)."""
    blob = Path(path).read_bytes()
    (width, height, maxval), offset = _parse_pnm_header(blob, b"P5", 3)
    dtype = ">u2" if maxval > 255 else np.uint8
    count = width * height
    if len(blob) - offset < count * np.dtype(dtype).itemsize:
        raise ValueError("unexpected end of file in PGM raster")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    out = data.reshape(height, width)
    return (out.astype(np.uint16) if maxval > 255 else out.copy()), maxval


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an 8-bit binary P6 PPM from an (H, W, 3) uint8 array."""
    img = np.asarray(rgb)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"PPM data must be (H, W, 3) uint8, got {img.shape} {img.dtype}")
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes(order="C"))


def read_ppm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    (width, height, maxval), offset = _parse_pnm_header(blob, b"P6", 3)
    if maxval != 255:
        raise ValueError("only 8-bit PPM is supported")
    count = width * height * 3
    if len(blob) - offset < count:
        raise ValueError("unexpected end of file in PPM raster")
    data = np.frombuffer(blob, dtype=np.uint8, count=count, offset=offset)
    return data.reshape(height, width, 3).copy()


# -- masks -------------------------------------------------------------------

def mask_to_pgm(path, mask: np.ndarray) -> None:
    m = np.asarray(mask)
    if m.dtype != bool:
        raise ValueError("mask must be boolean")
    write_pgm(path, m.astype(np.uint8) * 255, maxval=255)


def mask_from_pgm(path) -> np.ndarray:
    values, _ = read_pgm(path)
    return values > 127


# -- depth -------------------------------------------------------------------

def _depth_from_mm(mm: np.ndarray) -> DepthMap:
    return DepthMap(mm.astype(float) / 1000.0)


def depth_to_pgm(path, depth: DepthMap) -> DepthMap:
    """Write depth as 16-bit PGM millimeters (rounded; 0 stays invalid).

    Returns the depth map :func:`depth_from_pgm` decodes from the file.
    """
    mm = np.round(depth.values * 1000.0)
    if mm.max(initial=0.0) > 65535:
        raise ValueError("depth exceeds the 65.535 m range of 16-bit millimeters")
    stored = mm.astype(np.uint16)
    write_pgm(path, stored, maxval=65535)
    return _depth_from_mm(stored)


def depth_from_pgm(path) -> DepthMap:
    values, maxval = read_pgm(path)
    if maxval != 65535:
        raise ValueError("depth PGM must be 16-bit (maxval 65535)")
    return _depth_from_mm(values)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()

"""On-disk formats: JSON, flow files and netpbm images (masks, depth, renders).

Formats defined here:

* JSON: every JSON file is read by :func:`read_json`, whose error names it.
* flow, binary (``.nvfl``): magic ``NVFL``, then little-endian u32 version (=1),
  u32 frame count T, u32 keypoint count K, then T*K*3 float32 positions in
  frame-major, keypoint-minor, xyz order.  The label is not stored.  This is
  the layout nvflow writes.
* flow, JSON (``.json``), read only, for flows made elsewhere:
  ``{"version": 1, "frames": T, "points": K, "label": str,
  "positions": [[[x, y, z] * K] * T]}``; ``label`` may be left out, and
  any other key is an error.
* mask: the first frame's object mask, one PGM (P5, maxval 255, 255 = object).
* depth: 16-bit PGM (P5, maxval 65535) holding millimeters.  A zero value
  marks an invalid pixel.  It is read back as a ``DepthMap`` of its uint16
  samples, not converted to meters.

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

from .geometry import DepthMap, _doc_fields, _floats, _int, _str

__all__ = [
    "read_json",
    "read_named",
    "write_json",
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


def read_json(path):
    """The JSON document in the file at ``path``; a file that is not UTF-8
    JSON, or nests deeper than the parser recurses, is a ValueError naming it."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from None


def read_named(root, name: str, read):
    """``read`` of the file ``name`` in ``root``; a file that cannot be opened raises
    as it is, and a malformed one's error begins with ``name`` unless it names it."""
    path = Path(root) / name
    try:
        return read(path)
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
            ValueError) as exc:
        if str(path) in str(exc):
            raise
        raise ValueError(f"{name}: {exc}") from None


def write_json(path, doc) -> None:
    """``doc`` as JSON indented by 2 with sorted keys, then a newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class FlowFormatError(ValueError):
    """Malformed flow file; ``byte_offset`` points at the offending byte."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def write_flow(path, positions: np.ndarray) -> np.ndarray:
    """Write a flow to ``path`` in the binary layout.

    ``positions`` must be a finite (T, K, 3) array; they are stored as
    float32.  Returns the positions :func:`read_flow` gives back, the
    stored float32 values as float64.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 3 or pos.shape[2] != 3 or pos.shape[0] < 1 or pos.shape[1] < 1:
        raise ValueError(f"flow positions must be (T, K, 3) with T, K >= 1, got {pos.shape}")
    if not np.isfinite(pos).all():
        raise ValueError("flow positions contain non-finite values")
    stored = pos.astype("<f4")
    header = FLOW_MAGIC + struct.pack("<III", FLOW_VERSION, pos.shape[0], pos.shape[1])
    Path(path).write_bytes(header + stored.tobytes(order="C"))
    return stored.astype(float)


def read_flow(path) -> tuple[np.ndarray, str]:
    """Read a flow file, JSON when the suffix is ``.json``, else binary;
    returns (positions (T, K, 3), label).

    Binary reads are bit-exact round-trips of :func:`write_flow`, as
    float32; the binary layout carries no label, so it comes back empty.
    JSON positions come back as float64, with the document's label.

    Raises:
        FlowFormatError: a malformed binary layout, or a JSON version or
            shape that does not match.
        TypeError, ValueError: a JSON document with an unknown key or a
            value of the wrong JSON type (see ``geometry._doc_fields``).
    """
    path = Path(path)
    if path.suffix == ".json":
        doc = _doc_fields(read_json(path), {
            "version": _int, "frames": _int, "points": _int, "label": _str,
            "positions": _floats})
        if doc.get("version") != FLOW_VERSION:
            raise FlowFormatError(f"unsupported flow version {doc.get('version')}", 0)
        pos = doc["positions"]
        if pos.shape != (doc["frames"], doc["points"], 3):
            raise FlowFormatError(
                f"positions shape {pos.shape} does not match header "
                f"({doc['frames']}, {doc['points']}, 3)", 0)
        return pos, doc.get("label", "")
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
    if len(blob) > expected:
        raise FlowFormatError("trailing data after the positions", expected)
    pos = np.frombuffer(blob, dtype="<f4", count=frames * points * 3, offset=16)
    return pos.reshape(frames, points, 3).astype(np.float32), ""


# -- netpbm ------------------------------------------------------------------

def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2-d uint8 or uint16 array as a P5 PGM of maxval 255 or 65535."""
    v = np.asarray(values)
    if v.ndim != 2:
        raise ValueError(f"PGM data must be 2-d, got shape {v.shape}")
    if v.dtype not in (np.uint8, np.uint16):
        raise ValueError(f"PGM data must be uint8 or uint16, got {v.dtype}")
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n{np.iinfo(v.dtype).max}\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(np.ascontiguousarray(v, dtype=v.dtype.newbyteorder(">")).data)


def _parse_pnm_header(blob: bytes) -> tuple[list[int], int]:
    if blob[:2] != b"P5":
        raise ValueError("not a P5 file")
    pos = 2
    values: list[int] = []
    while len(values) < 3:
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
        if not blob[start:pos].isdigit():     # no sign, point or digit separator
            raise ValueError(f"bad header field {blob[start:pos][:12]!r}")
        values.append(int(blob[start:pos]))
    return values, pos + 1  # single whitespace separates header from raster


def read_pgm(path) -> np.ndarray:
    """Read a P5 PGM: uint8 samples for maxval 255, uint16 for 65535; any
    other maxval is a ValueError."""
    blob = Path(path).read_bytes()
    (width, height, maxval), offset = _parse_pnm_header(blob)
    if maxval not in (255, 65535):
        raise ValueError(f"PGM maxval must be 255 or 65535, got {maxval}")
    stored = np.dtype(">u2" if maxval == 65535 else np.uint8)
    count = width * height
    if len(blob) - offset < count * stored.itemsize:
        raise ValueError("unexpected end of file in PGM raster")
    data = np.frombuffer(blob, dtype=stored, count=count, offset=offset)
    return data.reshape(height, width).astype(stored.newbyteorder("="))


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an 8-bit binary P6 PPM from an (H, W, 3) uint8 array."""
    img = np.asarray(rgb)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"PPM data must be (H, W, 3) uint8, got {img.shape} {img.dtype}")
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(np.ascontiguousarray(img).data)


# -- masks -------------------------------------------------------------------

def mask_to_pgm(path, mask: np.ndarray) -> None:
    m = np.asarray(mask)
    if m.dtype != bool:
        raise ValueError("mask must be boolean")
    write_pgm(path, m * np.uint8(255))


def mask_from_pgm(path) -> np.ndarray:
    values = read_pgm(path)
    if values.dtype != np.uint8:
        raise ValueError("mask PGM must be 8-bit (maxval 255)")
    return values > 127


# -- depth -------------------------------------------------------------------

def depth_to_pgm(path, depth: DepthMap) -> None:
    """Write a millimeter depth map, as generated depth is, as 16-bit PGM
    samples; :func:`depth_from_pgm` gives them back bit for bit.

    Raises:
        ValueError: ``depth`` is in float meters, which written as samples
            would be truncated.
    """
    if depth.samples.dtype != np.uint16:
        raise ValueError(f"depth to write must be uint16 millimeters, "
                         f"got {depth.samples.dtype}")
    write_pgm(path, depth.samples)


def depth_from_pgm(path) -> DepthMap:
    """The depth map a 16-bit PGM holds, as its uint16 millimeter samples."""
    values = read_pgm(path)
    if values.dtype != np.uint16:
        raise ValueError("depth PGM must be 16-bit (maxval 65535)")
    values.flags.writeable = False    # handed over to the DepthMap, not copied
    return DepthMap(values)


def sha256_file(path) -> str:
    """Hex sha256 of the file at ``path``.

    The file is read into one 64 KiB buffer, reused for every read, so
    hashing holds that much whatever the file's size.
    """
    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()

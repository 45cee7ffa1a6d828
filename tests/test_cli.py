"""End-to-end tests for the command-line pipeline driver.

Every test drives ``nvflow.cli.main`` in-process with an explicit argv, so
exit codes and stderr discipline are asserted exactly as a shell would see
them.  A few run in a subprocess: smoke tests of the installed entry points,
and one whose stderr must hold nothing Python prints itself, as a warning.
"""

import argparse
import ast
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nvflow
import nvflow.cli as cli
import nvflow.trajopt as trajopt
from conftest import demo_scene
from nvflow.cli import main
from nvflow.fileio import (read_flow, read_pgm, sha256_file, write_flow, write_pgm,
                           write_ppm)
from nvflow.flow import TrackSet, calibrate_depth, distill_flow, render_flow_image
from nvflow.sim import ObjectSpec, RopeSpec, SceneBundle, SceneConfig

SUBCOMMANDS = ("simulate", "distill", "plan-rigid", "plan-deformable",
               "optimize-traj", "eval", "run")
# Each flag that run shares with a stage subcommand, or that two stages
# share, and the two subcommands that take it.
SHARED_FLAGS = {"--flow": ("plan-rigid", "plan-deformable"),
                "--candidates": ("distill", "run"),
                "--obstacles": ("plan-rigid", "run"),
                "--steps-per-frame": ("plan-rigid", "run"),
                "--horizon": ("plan-deformable", "run"),
                "--cost-mode": ("plan-deformable", "run")}
# The fewest arguments each subcommand parses with.
MINIMAL_ARGV = {"simulate": [], "distill": ["bundle"],
                "plan-rigid": ["--flow", "f.nvfl", "--robot", "r.json"],
                "plan-deformable": ["--flow", "f.nvfl", "--dynamics", "d.json",
                                    "--state", "s.json"],
                "optimize-traj": [], "eval": ["plan", "scene"], "run": []}


def run_main(argv):
    return main([str(a) for a in argv])


def fixture_path(name):
    return Path(str(resources.files("nvflow") / "fixtures" / name))


def assert_one_error_line(err):
    lines = [line for line in err.strip().splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("nvflow: error:")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def rigid_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs") / "rigid_small.json"
    SceneConfig(scene="rigid", frames=9,
                object=ObjectSpec(surface_samples=24),
                waypoints=demo_scene("scene_rigid_demo.json").waypoints,
                distractor_points=10).save(path)
    return path


@pytest.fixture(scope="module")
def rope_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs") / "rope_small.json"
    SceneConfig(scene="rope", frames=6,
                rope=RopeSpec(particles=8, flow_keypoints=8),
                distractor_points=10).save(path)
    return path


@pytest.fixture(scope="module")
def rope_bundle_dir(rope_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "rope"
    assert run_main(["simulate", "--config", rope_config_path,
                     "--out-dir", out]) == 0
    return out


@pytest.fixture(scope="module")
def rigid_bundle_dir(rigid_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "rigid"
    assert run_main(["simulate", "--config", rigid_config_path,
                     "--out-dir", out]) == 0
    return out


@pytest.fixture(scope="module")
def rigid_run_dir(rigid_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "rigid"
    assert run_main(["run", "--config", rigid_config_path, "--candidates", 1,
                     "--out-dir", out]) == 0
    return out


class MalformedInputs:
    """Builds the files one malformed-input case passes on its command line."""

    def __init__(self, tmp_path, request):
        self.tmp = tmp_path
        self.out = tmp_path / "o"
        self._request = request

    def fixture(self, name):
        return self._request.getfixturevalue(name)

    def write(self, doc, name="input.json"):
        path = self.tmp / name
        path.write_text(json.dumps(doc))
        return path

    def edited(self, path, **changes):
        """A copy of the JSON object at ``path``; a key set to DELETE is removed."""
        doc = {**json.loads(Path(path).read_text()), **changes}
        return self.write({k: v for k, v in doc.items() if v is not DELETE})

    def flow(self):
        path = self.tmp / "flow.nvfl"
        write_flow(path, np.tile([0.0, 0.0, 1.0], (2, 12, 1)))
        return path

    def trajopt(self, **changes):
        return self.edited(fixture_path("trajopt_fixture.json"),
                           **{"robot": str(fixture_path("arm7.json")), **changes})

    def rope_edited(self, **changes):
        path = self.fixture("rope_config_path")
        rope = json.loads(path.read_text())["rope"]
        return self.edited(path, rope={**rope, **changes})

    def rigid_edited(self, part, **changes):
        """The small rigid config with keys of its ``part`` object changed."""
        path = self.fixture("rigid_config_path")
        doc = json.loads(path.read_text())[part]
        return self.edited(path, **{part: {**doc, **changes}})

    def cropped_bundle(self, *names):
        """A copy of the small rigid bundle with the named images cut to 240 x 320."""
        bundle = self.tmp / "bundle"
        shutil.copytree(self.fixture("rigid_bundle_dir"), bundle)
        for name in names:
            write_pgm(bundle / name, read_pgm(bundle / name)[:240, :320])
        return bundle

    def edited_bundle(self, fixture="rigid_bundle_dir", **edits):
        """A copy of the small rigid bundle, or of the bundle ``fixture``
        names, with files replaced.

        ``edits`` maps a file's stem (``tracks`` for ``tracks.npy``,
        ``gt_poses`` for ``gt_poses.json``) to a function of its array or
        JSON document that returns what takes its place: raw bytes, None to
        delete the file, or an array or document to save (pickled if it
        must be).
        """
        bundle = self.tmp / "bundle"
        shutil.copytree(self.fixture(fixture), bundle)
        for stem, edit in edits.items():
            path = next(bundle.glob(f"{stem}.*"))
            is_json = path.suffix == ".json"
            value = edit(json.loads(path.read_text()) if is_json else np.load(path))
            if value is None:
                path.unlink()
            elif isinstance(value, bytes):
                path.write_bytes(value)
            elif is_json:
                path.write_text(json.dumps(value))
            else:
                np.save(path, value, allow_pickle=True)
        return bundle

    def rigid_plan(self, plan_doc):
        plan = self.tmp / "plan"
        plan.mkdir()
        (plan / "plan.json").write_text(json.dumps(plan_doc))
        (plan / "joint_traj.csv").write_text("t,q0\n0,0\n1,0\n2,0\n")
        return plan


def _plan_rigid(c, flow):
    return ["plan-rigid", "--flow", flow, "--robot", fixture_path("arm7.json"),
            "--out-dir", c.out]


def _optimize_traj(c, **changes):
    return ["optimize-traj", "--config", c.trajopt(**changes), "--out-dir", c.out]


NAN, INF = float("nan"), float("inf")     # written as NaN and Infinity in JSON
DELETE = object()                         # MalformedInputs.edited removes the key


def _simulate(c, config):
    return ["simulate", "--config", config, "--out-dir", c.out]


def _distill(c, bundle):
    return ["distill", bundle, "--out-dir", c.out]


def _npy_bytes(array, save=np.save):
    buffer = io.BytesIO()
    save(buffer, array)
    return buffer.getvalue()


def _plan_deformable(c, **dynamics):
    bundle = c.fixture("rope_bundle_dir")
    return ["plan-deformable", "--flow", bundle / "gt_flow.nvfl",
            "--dynamics", c.edited(bundle / "dynamics.json", **dynamics),
            "--state", bundle / "initial_state.json", "--horizon", 2, "--out-dir", c.out]


def _rope_dynamics(c):
    return json.loads((c.fixture("rope_bundle_dir") / "dynamics.json").read_text())


def _optimize_traj_robot(c, joint=None, sphere=None):
    """The packaged problem at 21 steps on an arm7 copy with joint 0 and sphere 1 edited."""
    robot = json.loads(fixture_path("arm7.json").read_text())
    robot["joints"][0].update(joint or {})
    robot["collision_spheres"][1].update(sphere or {})
    return _optimize_traj(c, steps=21, robot=str(c.write(robot, "robot.json")))


def _stringified_rope_flow(c):
    """The rope bundle's flow as a JSON flow file with its positions as strings."""
    positions, _ = read_flow(c.fixture("rope_bundle_dir") / "gt_flow.nvfl")
    frames, points, _ = positions.shape
    return c.write({"version": 1, "frames": frames, "points": points, "positions": [
        [[str(v) for v in p] for p in frame] for frame in positions.tolist()]}, "f.json")


def _json_flow(c, **changes):
    """The small rigid bundle's flow as a JSON flow file, with ``changes``
    made to its document; a key set to DELETE is removed."""
    positions, _ = read_flow(c.fixture("rigid_bundle_dir") / "gt_flow.nvfl")
    frames, points, _ = positions.shape
    doc = {"version": 1, "frames": frames, "points": points, "label": "box",
           "positions": positions.tolist(), **changes}
    return c.write({k: v for k, v in doc.items() if v is not DELETE}, "f.json")


def _stringified_state(c):
    """The rope bundle's initial particle state with its positions as strings."""
    doc = json.loads((c.fixture("rope_bundle_dir") / "initial_state.json").read_text())
    return {**doc, "positions": [[str(x) for x in p] for p in doc["positions"]]}


def _eval(c, plan_doc):
    return ["eval", c.rigid_plan(plan_doc), c.fixture("rigid_bundle_dir"),
            "--out-dir", c.out]


def _eval_joint_csv_bytes(c, edit):
    """``eval`` of the small rigid run, its joint CSV's bytes replaced by
    ``edit`` of them; None leaves a directory in the file's place."""
    run = c.fixture("rigid_run_dir")
    plan = c.tmp / "plan"
    shutil.copytree(run / "plan", plan)
    path = plan / "joint_traj.csv"
    blob = edit(path.read_bytes())
    path.unlink()
    if blob is None:
        path.mkdir()
    else:
        path.write_bytes(blob)
    return ["eval", plan, run / "scene", "--out-dir", c.out]


def _eval_joint_csv(c, edit):
    """``eval`` of the small rigid run, its joint CSV rows (lists of cells) edited."""
    def rewrite(blob):
        rows = [line.split(",") for line in blob.decode().splitlines()]
        return "".join(",".join(row) + "\n" for row in edit(rows)).encode()
    return _eval_joint_csv_bytes(c, rewrite)


def _eval_plan(c, edit):
    """``eval`` of the small rigid run, its ``plan.json`` document edited."""
    run = c.fixture("rigid_run_dir")
    plan = c.tmp / "plan"
    shutil.copytree(run / "plan", plan)
    path = plan / "plan.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return ["eval", plan, run / "scene", "--out-dir", c.out]


def _deep_json(c, name):
    """A JSON file of 100,000 nested arrays, deeper than json.loads recurses."""
    path = c.tmp / name
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


def _npy_header_end(blob):
    """The offset just past the header of ``blob``, a version 1.0 .npy file."""
    return 10 + int.from_bytes(blob[8:10], "little")


def _npy_shape_cut(blob):
    """``blob``, an .npy file, its header cut off just inside the shape and
    padded back to its length with spaces, so the length field still fits."""
    cut, end = blob.index(b"(") + 1, _npy_header_end(blob)
    return blob[:cut] + b" " * (end - 1 - cut) + blob[end - 1:]


def _first_joint_at_step_0(value):
    return lambda rows: [rows[0], [rows[1][0], value, *rows[1][2:]], *rows[2:]]


def _distill_rewritten_mask(c, header, object_value):
    """``distill`` of the small rigid bundle, its mask rewritten as the header
    ``header % (width, height)`` over the same pixels, ``object_value`` where
    the object is."""
    bundle = c.tmp / "bundle"
    shutil.copytree(c.fixture("rigid_bundle_dir"), bundle)
    path = bundle / "masks/0000.pgm"
    values = read_pgm(path)
    height, width = values.shape
    path.write_bytes(header % (width, height)
                     + ((values > 127) * object_value).astype(np.uint8).tobytes())
    return _distill(c, bundle)


def _padded_flow(c):
    """The small rigid bundle's flow file with 12 bytes after its positions."""
    path = c.tmp / "padded.nvfl"
    path.write_bytes((c.fixture("rigid_bundle_dir") / "gt_flow.nvfl").read_bytes()
                     + bytes(12))
    return path


# Each builds the argv of one malformed input that must exit 2 with one
# error line, never 3 with a bare Python message.
MALFORMED_INPUT_CASES = {
    "simulate-config-list": lambda c: [
        "simulate", "--config", c.write([1]), "--out-dir", c.out],
    "run-config-list": lambda c: [
        "run", "--config", c.write([1]), "--out-dir", c.out],
    "scene-image-list": lambda c: [
        "simulate", "--config", c.edited(c.fixture("rigid_config_path"), image=[]),
        "--out-dir", c.out],
    "scene-noise-number": lambda c: [
        "simulate", "--config", c.edited(c.fixture("rigid_config_path"), noise=5),
        "--out-dir", c.out],
    "scene-rope-list": lambda c: [
        "simulate", "--config", c.edited(c.fixture("rope_config_path"), rope=[1]),
        "--out-dir", c.out],
    "plan-rigid-obstacle-number": lambda c: _plan_rigid(c, c.flow()) + [
        "--obstacles", c.write({"obstacles": [5]})],
    "run-obstacle-list": lambda c: [
        "run", "--config", c.fixture("rigid_config_path"), "--candidates", 1,
        "--obstacles", c.write({"obstacles": [[1]]}), "--out-dir", c.out],
    "trajopt-obstacle-number": lambda c: [
        "optimize-traj", "--config", c.trajopt(obstacles=[7]), "--out-dir", c.out],
    "trajopt-weights-list": lambda c: [
        "optimize-traj", "--config", c.trajopt(weights=[1]), "--out-dir", c.out],
    "trajopt-steps-1": lambda c: _optimize_traj(c, steps=1),
    "trajopt-swept-samples-0": lambda c: _optimize_traj(c, swept_samples=0),
    "trajopt-swept-samples-1": lambda c: _optimize_traj(c, swept_samples=1),
    "trajopt-dt-0": lambda c: _optimize_traj(c, dt=0),
    "trajopt-dt-nan": lambda c: _optimize_traj(c, dt=NAN),
    "trajopt-eps-safe-nan": lambda c: _optimize_traj(c, eps_safe=NAN),
    "trajopt-collision-pad-nan": lambda c: _optimize_traj(c, collision_pad=NAN),
    "trajopt-collision-pad-negative": lambda c: _optimize_traj(c, collision_pad=-0.01),
    "trajopt-weight-nan": lambda c: _optimize_traj(c, weights={"smooth": NAN}),
    "trajopt-weight-negative": lambda c: _optimize_traj(c, weights={"collision": -1.0}),
    "trajopt-box-rotation-scaled": lambda c: _optimize_traj(c, obstacles=[{
        "type": "box", "center": [0.01, 0.0, 0.87], "half_extents": [0.03] * 3,
        "rotation": [2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0]}]),
    "trajopt-sphere-center-nan": lambda c: _optimize_traj(c, obstacles=[{
        "type": "sphere", "center": [0.01, NAN, 0.87], "radius": 0.03}]),
    "trajopt-halfspace-normal-inf": lambda c: _optimize_traj(c, obstacles=[{
        "type": "halfspace", "point": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, INF]}]),
    "eval-plan-list": lambda c: _eval(c, [1]),
    "eval-plan-robot-number": lambda c: _eval(c, {"robot": 3}),
    "eval-joint-csv-nan": lambda c: _eval_joint_csv(c, _first_joint_at_step_0("nan")),
    "eval-joint-csv-overflow": lambda c: _eval_joint_csv(c, _first_joint_at_step_0("1e400")),
    "eval-joint-csv-column-dropped": lambda c: _eval_joint_csv(
        c, lambda rows: [row[:-1] for row in rows]),
    # One step fewer than (flow frames - 1) * steps per frame + 1.
    "eval-joint-csv-last-step-dropped": lambda c: _eval_joint_csv(c, lambda rows: rows[:-1]),
    "eval-joint-csv-first-and-last-steps-swapped": lambda c: _eval_joint_csv(
        c, lambda rows: [rows[0], rows[-1], *rows[2:-1], rows[1]]),
    # Failures of the read itself, not of the values read: a byte that is
    # not UTF-8, a directory, a field past the csv module's limit, a NUL
    # (csv.Error on Python 3.10), nesting past the recursion limit, and
    # bytes np.load cannot parse.
    "eval-joint-csv-not-utf8": lambda c: _eval_joint_csv_bytes(
        c, lambda blob: blob[:40] + b"\xff" + blob[41:]),
    "eval-joint-csv-directory": lambda c: _eval_joint_csv_bytes(c, lambda blob: None),
    "eval-joint-csv-field-too-long": lambda c: _eval_joint_csv_bytes(
        c, lambda blob: blob + b"1" * 200_000 + b"\r\n"),
    "eval-joint-csv-nul": lambda c: _eval_joint_csv_bytes(
        c, lambda blob: blob[:40] + b"\x00" + blob[41:]),
    "simulate-config-deep-json": lambda c: _simulate(c, _deep_json(c, "deep.json")),
    "flow-json-deep": lambda c: _plan_rigid(c, _deep_json(c, "f.json")),
    "bundle-tracks-zip-magic": lambda c: _distill(
        c, c.edited_bundle(tracks=lambda a: b"PK\x03\x04" + _npy_bytes(a)[4:])),
    "bundle-tracks-shape-cut": lambda c: _distill(
        c, c.edited_bundle(tracks=lambda a: _npy_shape_cut(_npy_bytes(a)))),
    # Defects that leave every step's values parsable: a last line cut short
    # (inside its last value) and a NUL in a column name.
    "eval-joint-csv-last-value-cut": lambda c: _eval_joint_csv_bytes(
        c, lambda blob: blob[:-4]),
    "eval-joint-csv-header-nul": lambda c: _eval_joint_csv_bytes(
        c, lambda blob: blob.replace(b"q_3", b"q\x003", 1)),
    "flow-trailing-bytes": lambda c: _plan_rigid(c, _padded_flow(c)),
    "flow-json-without-positions": lambda c: _plan_rigid(
        c, c.write({"version": 1, "frames": 2, "points": 1}, "f.json")),
    "flow-json-list": lambda c: _plan_rigid(c, c.write([1], "f.json")),
    "flow-directory": lambda c: _plan_rigid(c, c.tmp),
    "flow-json-positions-strings": lambda c: [
        "plan-deformable", "--flow", _stringified_rope_flow(c),
        "--dynamics", c.fixture("rope_bundle_dir") / "dynamics.json",
        "--state", c.fixture("rope_bundle_dir") / "initial_state.json",
        "--horizon", 2, "--out-dir", c.out],
    "flow-json-label-list": lambda c: _plan_rigid(c, _json_flow(c, label=[3])),
    "flow-json-version-2": lambda c: _plan_rigid(c, _json_flow(c, version=2)),
    "flow-json-points-disagree": lambda c: _plan_rigid(c, _json_flow(c, points=5)),
    "flow-json-one-frame": lambda c: _plan_rigid(c, c.write(
        {"version": 1, "frames": 1, "points": 1, "positions": [[[0.0, 0.0, 1.0]]]},
        "f.json")),
    "run-rope-horizon-0": lambda c: [
        "run", "--config", c.fixture("rope_config_path"), "--candidates", 1,
        "--horizon", 0, "--out-dir", c.out],
    "plan-deformable-dynamics-directory": lambda c: [
        "plan-deformable", "--flow", c.fixture("rope_bundle_dir") / "gt_flow.nvfl",
        "--dynamics", c.tmp, "--state", c.fixture("rope_bundle_dir") / "initial_state.json",
        "--out-dir", c.out],
    "plan-deformable-horizon-0": lambda c: [
        "plan-deformable", "--flow", c.fixture("rope_bundle_dir") / "gt_flow.nvfl",
        "--dynamics", c.fixture("rope_bundle_dir") / "dynamics.json",
        "--state", c.fixture("rope_bundle_dir") / "initial_state.json",
        "--horizon", 0, "--out-dir", c.out],
    # A state of 3 particles for the 8-particle rope.
    "plan-deformable-state-particle-count": lambda c: _fuzz_state(c, c.write(
        {"positions": [[0.0, 0.0, 1.0]] * 3, "velocities": [[0.0, 0.0, 0.0]] * 3})),
    "trajopt-steps-inf": lambda c: _optimize_traj(c, steps=INF),
    "trajopt-swept-samples-inf": lambda c: _optimize_traj(c, swept_samples=INF),
    "trajopt-max-iters-inf": lambda c: _optimize_traj(c, max_iters=INF),
    "scene-frames-inf": lambda c: _simulate(
        c, c.edited(c.fixture("rigid_config_path"), frames=INF)),
    "scene-rope-particles-inf": lambda c: _simulate(c, c.rope_edited(particles=INF)),
    "run-seed-flag-negative": lambda c: [
        "run", "--config", c.fixture("rope_config_path"), "--candidates", 1,
        "--seed", -1, "--out-dir", c.out],
    "scene-seed-negative": lambda c: _simulate(
        c, c.edited(c.fixture("rigid_config_path"), seed=-1)),
    "trajopt-max-iters-negative": lambda c: _optimize_traj(c, max_iters=-5),
    "trajopt-q-start-nan": lambda c: _optimize_traj(c, q_start=[0.0, NAN, 0.0, -1.0,
                                                                0.0, -1.0, 0.0]),
    "trajopt-q-rest-nan": lambda c: _optimize_traj(c, q_rest=[NAN] * 7),
    "trajopt-q-rest-2-vector": lambda c: _optimize_traj(c, q_rest=[0.0, 0.0]),
    "trajopt-q-start-out-of-limits": lambda c: _optimize_traj(c, q_start=[10.0] * 7),
    "trajopt-robot-directory": lambda c: _optimize_traj(c, robot=str(c.tmp)),
    "scene-object-size-nan": lambda c: _simulate(
        c, c.rigid_edited("object", size=[0.08, NAN, 0.05])),
    "scene-waypoint-position-nan": lambda c: _simulate(c, c.edited(
        c.fixture("rigid_config_path"), motion_script=[
            {"time": 0.0, "position": [0.4, 0.0, 0.025]},
            {"time": 1.0, "position": [0.5, NAN, 0.025]}])),
    "scene-waypoint-yaw-inf": lambda c: _simulate(c, c.edited(
        c.fixture("rigid_config_path"), motion_script=[
            {"time": 0.0, "position": [0.4, 0.0, 0.025]},
            {"time": 1.0, "position": [0.5, 0.0, 0.025], "yaw": INF}])),
    "scene-rope-length-nan": lambda c: _simulate(c, c.rope_edited(length=NAN)),
    "scene-rope-center-inf": lambda c: _simulate(c, c.rope_edited(center=[INF, 0.0])),
    "scene-rope-center-1-vector": lambda c: _simulate(c, c.rope_edited(center=[0.45])),
    "scene-rope-script-nan": lambda c: _simulate(c, c.rope_edited(
        script=[[0.0, 3.0, 0.0, 0.0, 0.0], [0.5, NAN, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 0.0]])),
    "scene-noise-track-sigma-nan": lambda c: _simulate(
        c, c.rigid_edited("noise", track_sigma=NAN)),
    "scene-image-focal-inf": lambda c: _simulate(c, c.rigid_edited("image", focal=INF)),
    "scene-motion-script-object": lambda c: _simulate(
        c, c.edited(c.fixture("rigid_config_path"), motion_script={})),
    "trajopt-obstacles-object": lambda c: _optimize_traj(c, steps=11, obstacles={}),
    "bundle-mask-cropped": lambda c: _distill(c, c.cropped_bundle("masks/0000.pgm")),
    "bundle-mask-maxval-1": lambda c: _distill_rewritten_mask(c, b"P5\n%d %d\n1\n", 1),
    "bundle-mask-width-negative": lambda c: _distill_rewritten_mask(
        c, b"P5\n-%d %d\n255\n", 255),
    "bundle-depth-cropped": lambda c: _distill(
        c, c.cropped_bundle("depth/0000.pgm", "depth_ref.pgm")),
    "bundle-tracks-empty": lambda c: _distill(c, c.edited_bundle(tracks=lambda a: b"")),
    "bundle-tracks-truncated": lambda c: _distill(
        c, c.edited_bundle(tracks=lambda a: _npy_bytes(a)[:-24])),
    "bundle-visible-header-truncated": lambda c: _distill(
        c, c.edited_bundle(visible=lambda a: _npy_bytes(a)[:40])),
    "bundle-tracks-pickled-objects": lambda c: _distill(
        c, c.edited_bundle(tracks=lambda a: a.astype(object))),
    "bundle-tracks-zip-archive": lambda c: _distill(
        c, c.edited_bundle(tracks=lambda a: _npy_bytes(a, np.savez))),
    "bundle-tracks-missing": lambda c: _distill(c, c.edited_bundle(tracks=lambda a: None)),
    "bundle-visible-missing": lambda c: _distill(c, c.edited_bundle(visible=lambda a: None)),
    "bundle-tracks-float32": lambda c: _distill(
        c, c.edited_bundle(tracks=lambda a: a.astype(np.float32))),
    "bundle-visible-uint8": lambda c: _distill(
        c, c.edited_bundle(visible=lambda a: a.astype(np.uint8))),
    "bundle-tracks-xy-only": lambda c: _distill(
        c, c.edited_bundle(tracks=lambda a: a[..., :2])),
    "bundle-visible-one-track-short": lambda c: _distill(
        c, c.edited_bundle(visible=lambda a: a[:, :-1])),
    "bundle-frames-fewer-than-config": lambda c: _distill(
        c, c.edited_bundle(tracks=lambda a: a[:-3], visible=lambda a: a[:-3])),
    "bundle-gt-poses-fewer-than-config": lambda c: _distill(c, c.edited_bundle(
        gt_poses=lambda doc: {**doc, "poses": doc["poses"][:-3]})),
    "dynamics-stiffness-nan": lambda c: _plan_deformable(c, stiffness=NAN),
    "dynamics-damping-nan": lambda c: _plan_deformable(c, damping=NAN),
    "dynamics-mass-inf": lambda c: _plan_deformable(c, mass=INF),
    # JSON values of the wrong type that int(), float() and bool() would coerce
    "dynamics-substeps-true": lambda c: _plan_deformable(c, substeps=True),
    "dynamics-stiffness-string": lambda c: _plan_deformable(c, stiffness="500"),
    "scene-rope-pinned-string-false": lambda c: _simulate(c, c.rope_edited(pinned="false")),
    "scene-rope-particles-fraction": lambda c: _simulate(c, c.rope_edited(particles=20.5)),
    "scene-frames-string": lambda c: _simulate(
        c, c.edited(c.fixture("rigid_config_path"), frames="8")),
    "scene-frames-fraction": lambda c: _simulate(
        c, c.edited(c.fixture("rigid_config_path"), frames=8.9)),
    "scene-seed-true": lambda c: _simulate(
        c, c.edited(c.fixture("rigid_config_path"), seed=True)),
    "scene-image-focal-string": lambda c: _simulate(
        c, c.rigid_edited("image", focal="600")),
    "trajopt-steps-fraction": lambda c: _optimize_traj(c, steps=21.7),
    "trajopt-swept-samples-fraction": lambda c: _optimize_traj(c, swept_samples=2.9),
    "trajopt-max-iters-fraction": lambda c: _optimize_traj(c, max_iters=2.5),
    "trajopt-dt-string": lambda c: _optimize_traj(c, dt="0.1"),
    "trajopt-eps-safe-true": lambda c: _optimize_traj(c, eps_safe=True),
    "trajopt-weight-string": lambda c: _optimize_traj(c, weights={"smooth": "10"}),
    "trajopt-sphere-radius-string": lambda c: _optimize_traj(c, obstacles=[{
        "type": "sphere", "center": [0.01, 0.0, 0.87], "radius": "0.03"}]),
    "dynamics-edge-fraction": lambda c: _plan_deformable(
        c, edges=[[0, 1.6]] + _rope_dynamics(c)["edges"][1:]),
    "dynamics-edge-three-indices": lambda c: _plan_deformable(
        c, edges=[[0, 1, 2]] + _rope_dynamics(c)["edges"][1:]),
    "dynamics-attachment-fraction": lambda c: _plan_deformable(c, attachment=[0.5]),
    "dynamics-pinned-string": lambda c: _plan_deformable(c, pinned=["7"]),
    "robot-sphere-link-fraction": lambda c: _optimize_traj_robot(c, sphere={"link": 1.7}),
    "robot-joint-q-min-string": lambda c: _optimize_traj_robot(c, joint={"q_min": "-2.9"}),
    "robot-joint-velocity-limit-nan": lambda c: _optimize_traj_robot(
        c, joint={"velocity_limit": NAN}),
    "robot-joint-q-max-inf": lambda c: _optimize_traj_robot(c, joint={"q_max": INF}),
    "robot-joint-q-min-inf": lambda c: _optimize_traj_robot(c, joint={"q_min": -INF}),
    # array elements of the wrong type that np.asarray(..., dtype=float) would coerce
    "dynamics-rest-lengths-strings": lambda c: _plan_deformable(
        c, rest_lengths=[str(x) for x in _rope_dynamics(c)["rest_lengths"]]),
    "dynamics-rest-lengths-true": lambda c: _plan_deformable(
        c, rest_lengths=[True] + _rope_dynamics(c)["rest_lengths"][1:]),
    "state-positions-strings": lambda c: _plan_deformable(c) + ["--state", c.write(
        _stringified_state(c), "state.json")],
    "robot-joint-axis-strings": lambda c: _optimize_traj_robot(
        c, joint={"axis": ["0", "0", "1"]}),
    "robot-joint-origin-translation-true": lambda c: _optimize_traj_robot(c, joint={
        "origin": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, True]}}),
    "robot-sphere-center-string": lambda c: _optimize_traj_robot(
        c, sphere={"center": ["0.0", 0.0, 0.1]}),
    "trajopt-box-rotation-strings": lambda c: _optimize_traj(c, obstacles=[{
        "type": "box", "center": [0.01, 0.0, 0.87], "half_extents": [0.03] * 3,
        "rotation": ["1", 0, 0, 0, "1", 0, 0, 0, "1"]}]),
    "trajopt-sphere-center-string": lambda c: _optimize_traj(c, obstacles=[{
        "type": "sphere", "center": ["0.01", 0.0, 0.87], "radius": 0.03}]),
    "trajopt-q-end-true": lambda c: _optimize_traj(c, q_end=[True, 0.0, 0.0, -1.0,
                                                             0.0, -1.0, 0.0]),
    "scene-camera-translation-string": lambda c: _simulate(
        c, c.rigid_edited("camera", translation=["0.45", 0.0, 0.9])),
    "scene-object-size-strings": lambda c: _simulate(
        c, c.rigid_edited("object", size=["0.08", "0.06", "0.05"])),
    "scene-rope-script-true": lambda c: _simulate(c, c.rope_edited(
        script=[[0.0, 3.0, 0.0, 0.0, 0.0], [True, 0.0, 0.0, 0.0, 0.0]])),
    "eval-gt-poses-world": lambda c: [
        "eval", c.fixture("rigid_run_dir") / "plan",
        c.edited_bundle(gt_poses=lambda doc: {**doc, "frame": "world"}), "--out-dir", c.out],
}


def _run_rigid(c, *flags):
    return ["run", "--config", c.fixture("rigid_config_path"), "--candidates", 1,
            *flags, "--out-dir", c.out]


def _misspelled_spheres(c):
    robot = json.loads(fixture_path("arm7.json").read_text())
    robot["colision_spheres"] = robot.pop("collision_spheres")
    return c.write(robot, "robot.json")


# A key no reader names, at each level of each document a user writes, and
# the key the one error line must name.  Read leniently, each would plan
# with the default in its place (no collision spheres, a perfect sensor).
MISSPELLED_KEY_CASES = {
    "run-robot-colision-spheres": (
        lambda c: _run_rigid(c, "--robot", _misspelled_spheres(c)), "colision_spheres"),
    "robot-joint-qmin": (lambda c: _optimize_traj_robot(c, joint={"qmin": -2.9}), "qmin"),
    "robot-sphere-radious": (
        lambda c: _optimize_traj_robot(c, sphere={"radious": 0.03}), "radious"),
    "run-obstacle-file-obstacle": (lambda c: _run_rigid(c, "--obstacles", c.write(
        {"obstacle": [{"type": "sphere", "center": [0.01, 0.0, 0.87], "radius": 0.03}]},
        "obstacles.json")), "obstacle"),
    "trajopt-sphere-radiuss": (lambda c: _optimize_traj(c, obstacles=[{
        "type": "sphere", "center": [0.01, 0.0, 0.87], "radius": 0.03, "radiuss": 0.1}]),
        "radiuss"),
    "trajopt-max-iter": (lambda c: _optimize_traj(c, max_iter=2), "max_iter"),
    "trajopt-weights-smoth": (lambda c: _optimize_traj(c, weights={"smoth": 1.0}), "smoth"),
    "scene-noize": (lambda c: _simulate(c, c.edited(
        c.fixture("rigid_config_path"), noize={"depth_sigma": 0.0})), "noize"),
    "scene-noise-track-sigam": (
        lambda c: _simulate(c, c.rigid_edited("noise", track_sigam=0.0)), "track_sigam"),
    "scene-image-focl": (lambda c: _simulate(c, c.rigid_edited("image", focl=600.0)), "focl"),
    "scene-object-sise": (
        lambda c: _simulate(c, c.rigid_edited("object", sise=[0.1, 0.1, 0.1])), "sise"),
    "scene-waypoint-positon": (lambda c: _simulate(c, c.edited(
        c.fixture("rigid_config_path"), motion_script=[
            {"time": 0.0, "position": [0.4, 0.0, 0.025]},
            {"time": 1.0, "positon": [0.5, 0.0, 0.025]}])), "positon"),
    "scene-rope-pinnd": (lambda c: _simulate(c, c.rope_edited(pinnd=False)), "pinnd"),
    "scene-camera-translaton": (lambda c: _simulate(c, c.rigid_edited(
        "camera", translaton=[0.45, 0.0, 0.9])), "translaton"),
    "bundle-gt-poses-rotaton": (lambda c: _distill(c, c.edited_bundle(
        gt_poses=lambda doc: {**doc, "poses": [
            {**doc["poses"][0], "rotaton": doc["poses"][0]["rotation"]}, *doc["poses"][1:]]})),
        "rotaton"),
    "eval-plan-steps-per-flow-fram": (lambda c: _eval_plan(c, lambda doc: {
        **doc, "steps_per_flow_fram": doc["steps_per_flow_frame"]}), "steps_per_flow_fram"),
    "flow-json-lable": (
        lambda c: _plan_rigid(c, _json_flow(c, label=DELETE, lable="box")), "lable"),
    "dynamics-stifness": (lambda c: _plan_deformable(c, stifness=500.0), "stifness"),
    "state-velocity": (lambda c: _plan_deformable(c) + ["--state", c.write({**json.loads(
        (c.fixture("rope_bundle_dir") / "initial_state.json").read_text()), "velocity": []},
        "state.json")], "velocity"),
}
MALFORMED_INPUT_CASES.update(
    {case: build for case, (build, _) in MISSPELLED_KEY_CASES.items()})


def _sphere_less_robot(c):
    robot = json.loads(fixture_path("arm7.json").read_text())
    del robot["collision_spheres"]
    return c.write(robot, "robot.json")


# Obstacles with a robot that has no collision spheres, whose collision
# term would read 0 whatever the motion: one case per command that plans.
SPHERE_LESS_ROBOT_CASES = {
    "run-robot-without-spheres": lambda c: _run_rigid(c, "--robot", _sphere_less_robot(c)),
    "plan-rigid-robot-without-spheres": lambda c: [
        "plan-rigid", "--flow", c.fixture("rigid_bundle_dir") / "gt_flow.nvfl",
        "--robot", _sphere_less_robot(c), "--obstacles", fixture_path("obstacles_demo.json"),
        "--out-dir", c.out],
    "trajopt-robot-without-spheres": lambda c: _optimize_traj(
        c, steps=21, robot=str(_sphere_less_robot(c))),
}
MALFORMED_INPUT_CASES.update(SPHERE_LESS_ROBOT_CASES)


def _unlisted(c, fixture, name):
    """A copy of the bundle ``fixture`` whose manifest does not list ``name``."""
    return c.edited_bundle(fixture, manifest=lambda doc: {
        **doc, "files": {k: v for k, v in doc["files"].items() if k != name}})


# Refused inputs and what the one error line must name: an object of another
# shape than the box, a rigid scene with no motion, an obstacle file that is a
# bare list, a bundle without the ground truth its scene kind grades against,
# from each stage that reads one, a rope keyframe of three numbers, the
# gravity and ground keys that older rope bundles wrote into dynamics.json,
# and an obstacle entry that is not an object.  nvflow once read all but the
# last; eval reads the bundle before any plan file, so the rope case needs no
# plan.
REFUSED_INPUT_CASES = {
    "scene-object-cylinder": (lambda c: _simulate(
        c, c.rigid_edited("object", shape="cylinder", size=[0.03, 0.08])), "'cylinder'"),
    "scene-rigid-without-motion-script": (lambda c: _simulate(
        c, c.edited(c.fixture("rigid_config_path"), motion_script=DELETE)), "motion_script"),
    "run-rigid-without-motion-script": (lambda c: [
        "run", "--config", c.edited(c.fixture("rigid_config_path"), motion_script=DELETE),
        "--out-dir", c.out], "motion_script"),
    "plan-rigid-obstacle-list": (lambda c: _plan_rigid(c, c.flow()) + [
        "--obstacles", c.write(json.loads(fixture_path("obstacles_demo.json").read_text())[
            "obstacles"])], "expected a JSON object"),
    "run-obstacle-bare-list": (lambda c: _run_rigid(c, "--obstacles", c.write([])),
                               "expected a JSON object"),
    "distill-rigid-bundle-without-gt-poses": (lambda c: _distill(
        c, _unlisted(c, "rigid_bundle_dir", "gt_poses.json")), "needs gt_poses.json"),
    "eval-rigid-bundle-without-gt-poses": (lambda c: [
        "eval", c.fixture("rigid_run_dir") / "plan",
        _unlisted(c, "rigid_bundle_dir", "gt_poses.json"), "--out-dir", c.out],
        "needs gt_poses.json"),
    "distill-rope-bundle-without-dynamics": (lambda c: _distill(
        c, _unlisted(c, "rope_bundle_dir", "dynamics.json")), "needs dynamics.json"),
    "eval-rope-bundle-without-initial-state": (lambda c: [
        "eval", c.tmp, _unlisted(c, "rope_bundle_dir", "initial_state.json"),
        "--out-dir", c.out], "needs initial_state.json"),
    "scene-rope-three-number-keyframe": (lambda c: _simulate(c, c.rope_edited(
        script=[[0.0, 3.0, 0.0], [1.0, 0.0, 0.0]])), "(time, bend, turn, dx, dy)"),
    "dynamics-gravity-false": (lambda c: _plan_deformable(c, gravity=False),
                               "unknown key 'gravity'"),
    "dynamics-ground-height": (lambda c: _plan_deformable(c, ground_height=-1.0),
                               "unknown key 'ground_height'"),
    **{case: (MALFORMED_INPUT_CASES[case], f"obstacle 0: expected a JSON object, got {kind}")
       for case, kind in [("plan-rigid-obstacle-number", "int"), ("run-obstacle-list", "list"),
                          ("trajopt-obstacle-number", "int")]},
}
MALFORMED_INPUT_CASES.update(
    {case: build for case, (build, _) in REFUSED_INPUT_CASES.items()})


def _not_json(c, name):
    path = c.tmp / name
    path.write_text("{not json")
    return path


def _distill_manifest(c, **changes):
    """``distill`` of the small rigid bundle, its manifest's keys changed; a
    key set to DELETE is removed."""
    return _distill(c, c.edited_bundle(manifest=lambda doc: {
        k: v for k, v in {**doc, **changes}.items() if v is not DELETE}))


# A file another input names, and the bundle manifest, each malformed, and
# the file the one error line must name: the one that failed, not the input
# given on the command line.
NAMED_FILE_CASES = {
    "trajopt-robot-file-not-json": (
        lambda c: _optimize_traj(c, robot=str(_not_json(c, "bad_robot.json"))),
        "bad_robot.json"),
    # A JSON file given on the command line, which the parse error names itself.
    "simulate-config-not-json": (lambda c: _simulate(c, _not_json(c, "bad_scene.json")),
                                 "bad_scene.json"),
    "plan-rigid-robot-not-json": (lambda c: [
        "plan-rigid", "--flow", c.flow(), "--robot", _not_json(c, "bad_arm.json"),
        "--out-dir", c.out], "bad_arm.json"),
    "bundle-dynamics-not-json": (lambda c: _distill(c, c.edited_bundle(
        "rope_bundle_dir", dynamics=lambda doc: b"{not json")), "dynamics.json"),
    "bundle-manifest-seed-fraction": (lambda c: _distill_manifest(c, seed=7.9),
                                      "manifest.json"),
    "bundle-manifest-unknown-key": (lambda c: _distill_manifest(c, sed=0), "manifest.json"),
    "bundle-manifest-label-number": (lambda c: _distill_manifest(c, label=5),
                                     "manifest.json"),
    "bundle-manifest-scene-rope": (lambda c: _distill_manifest(c, scene="rope"),
                                   "manifest.json"),
    "bundle-manifest-frames-wrong": (lambda c: _distill_manifest(c, frames=10),
                                     "manifest.json"),
    "bundle-manifest-seed-missing": (lambda c: _distill_manifest(c, seed=DELETE),
                                     "manifest.json"),
    # A semantic fault in a file another input names: an unknown key.
    "trajopt-robot-file-unknown-key": (lambda c: _optimize_traj(c, robot=str(c.write(
        {**json.loads(fixture_path("arm7.json").read_text()), "colour": "red"},
        "robot.json"))), "robot.json"),
    "bundle-gt-poses-unknown-key": (lambda c: _distill(c, c.edited_bundle(
        gt_poses=lambda doc: {**doc, "poses": [{**doc["poses"][0], "rotaton": 0},
                                               *doc["poses"][1:]]})), "gt_poses.json"),
    "bundle-dynamics-unknown-key": (lambda c: _distill(c, c.edited_bundle(
        "rope_bundle_dir", dynamics=lambda doc: {**doc, "stifness": 1.0})), "dynamics.json"),
    "bundle-initial-state-unknown-key": (lambda c: _distill(c, c.edited_bundle(
        "rope_bundle_dir", initial_state=lambda doc: {**doc, "velocity": 0})),
        "initial_state.json"),
    "bundle-scene-config-unknown-key": (lambda c: _distill(c, c.edited_bundle(
        scene_config=lambda doc: {**doc, "sceen": "rigid"})), "scene_config.json"),
    # An array that disagrees with the bundle's config in size or frame count.
    "bundle-depth-smaller-than-config": (
        lambda c: _distill(c, c.cropped_bundle("depth/0000.pgm")), "depth/0000.pgm"),
    "bundle-depth-ref-smaller-than-config": (
        lambda c: _distill(c, c.cropped_bundle("depth_ref.pgm")), "depth_ref.pgm"),
    "bundle-mask-smaller-than-config": (
        lambda c: _distill(c, c.cropped_bundle("masks/0000.pgm")), "masks/0000.pgm"),
    "bundle-tracks-fewer-frames-than-config": (
        lambda c: _distill(c, c.edited_bundle(tracks=lambda a: a[:-3])), "tracks.npy"),
    "bundle-visible-fewer-frames-than-config": (
        lambda c: _distill(c, c.edited_bundle(visible=lambda a: a[:-3])), "visible.npy"),
}
MALFORMED_INPUT_CASES.update({case: build for case, (build, _) in NAMED_FILE_CASES.items()})

# Every top-level key of the two documents a user writes by hand, each
# deleted or set to every one of these values.
BAD_VALUES = {"deleted": DELETE, "string": "x", "list": [], "object": {},
              "null": None, "nan": NAN, "inf": INF, "minus-1": -1}
# The JSON type of each key of a trajectory problem; float is any number.
PROBLEM_TYPES = {"robot": (dict, str), "q_start": list, "q_end": list, "steps": int,
                 "q_rest": list, "weights": dict, "eps_safe": float,
                 "collision_pad": float, "swept_samples": int, "dt": float,
                 "obstacles": list, "max_iters": int}
PROBLEM_KEYS = tuple(PROBLEM_TYPES)
# Each scene key maps to the small config it is edited in: "rope" is read
# only in a rope scene, "object" and "motion_script" only in a rigid one.
SCENE_KEYS = {"scene": "rigid", "seed": "rigid", "frames": "rigid", "image": "rigid",
              "camera": "rigid", "object": "rigid", "motion_script": "rigid",
              "distractor_points": "rigid", "noise": "rigid", "rope": "rope"}
READER_TABLE = {
    **{f"problem-{key}-{name}": (lambda c, key=key, value=value: _optimize_traj(
        c, **{"steps": 11, key: value})) for key in PROBLEM_KEYS
       for name, value in BAD_VALUES.items()},
    **{f"scene-{key}-{name}": (lambda c, key=key, value=value, kind=kind: _simulate(
        c, c.edited(c.fixture(f"{kind}_config_path"), **{key: value})))
       for key, kind in SCENE_KEYS.items() for name, value in BAD_VALUES.items()},
}


def _has_json_type(value, kind) -> bool:
    """Whether ``value`` is JSON of ``kind``: true and false are no number,
    and an integer is a number too."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


@st.composite
def _mistyped_problem_key(draw):
    """A problem key and a value for it of another JSON type, or non-finite."""
    key = draw(st.sampled_from(PROBLEM_KEYS))
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 30),
                        st.floats(-10.0, 10.0), st.text(max_size=4))
    values = st.one_of(scalars, st.lists(scalars, max_size=3),
                       st.dictionaries(st.text(max_size=3), scalars, max_size=2))
    return key, draw(st.one_of(
        values.filter(lambda value: not _has_json_type(value, PROBLEM_TYPES[key])),
        st.sampled_from([NAN, INF, -INF])))


# The JSON readers fuzzed at every level of their documents; the reader
# table above edits only the top-level keys of a scene or problem.  Each
# maps to the command that reads its document from a path, the JSON type of
# every key it reads, wherever the key sits in the document, and the keys it
# cannot do without: those with no default.  Keys a reader lets pass unread
# (a ``description``, a plan's ``version``) are in no table.
_POSE_TYPES = {"rotation": list, "translation": list}
_ROBOT_TYPES = {"joints": list, "ee_offset": dict, "collision_spheres": list,
                "base_pose": dict, "name": str, "axis": list, "origin": dict,
                "q_min": float, "q_max": float, "velocity_limit": float, "link": int,
                "center": list, "radius": float, **_POSE_TYPES}
_ROBOT_REQUIRED = set(_ROBOT_TYPES) - {"collision_spheres", "base_pose", "name"}


_SCENE_TYPES = {"scene": str, "seed": int, "frames": int, "distractor_points": int,
                "image": dict, "width": int, "height": int, "focal": float,
                "camera": dict, "noise": dict, "track_sigma": float, "depth_sigma": float,
                "dropout_prob": float, "depth_scale": float, **_POSE_TYPES}
_RIGID_SCENE_TYPES = {**_SCENE_TYPES, "object": dict, "shape": str, "size": list,
                      "surface_samples": int, "label": str, "motion_script": list,
                      "time": float, "position": list, "yaw": float}
# A rope scene's "height" is also the rope's, which takes any number.
_ROPE_SCENE_TYPES = {**_SCENE_TYPES, "rope": dict, "length": float, "particles": int,
                     "flow_keypoints": int, "center": list, "height": float,
                     "pinned": bool, "script": list}
_OBSTACLE_TYPES = {"obstacles": list, "type": str, "center": list, "radius": float,
                   "half_extents": list, "rotation": list, "point": list, "normal": list}
_OBSTACLE_REQUIRED = {"type", "center", "radius", "half_extents", "point", "normal"}


def _obstacles():
    """One obstacle of each type, a fresh list for each document a defect edits."""
    return [
        {"type": "sphere", "center": [0.01, 0.0, 0.87], "radius": 0.03},
        {"type": "box", "center": [0.3, 0.2, 0.9], "half_extents": [0.02] * 3,
         "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        {"type": "halfspace", "point": [0.0, 0.0, 1.2], "normal": [0.0, 0.0, -1.0]}]


def _problem_doc(c):
    """The packaged problem at 11 steps, with every optional key given."""
    doc = json.loads(fixture_path("trajopt_fixture.json").read_text())
    doc.update(steps=11, robot=str(fixture_path("arm7.json")), q_rest=doc["q_start"],
               weights={"smooth": 10.0, "rest": 0.1, "limits": 100.0, "collision": 15.0},
               collision_pad=0.005, max_iters=5, obstacles=_obstacles())
    return doc


def _fuzz_scene(c, path):
    return _simulate(c, path)


def _fuzz_problem(c, path):
    return ["optimize-traj", "--config", path, "--out-dir", c.out]


def _fuzz_robot(c, path):
    return _optimize_traj(c, steps=11, robot=str(path))


def _fuzz_obstacles(c, path):
    return _run_rigid(c, "--obstacles", path)


def _fuzz_dynamics(c, path, state=None):
    bundle = c.fixture("rope_bundle_dir")
    return ["plan-deformable", "--flow", bundle / "gt_flow.nvfl", "--dynamics", path,
            "--state", state or bundle / "initial_state.json", "--horizon", 2,
            "--out-dir", c.out]


def _fuzz_state(c, path):
    return _fuzz_dynamics(c, c.fixture("rope_bundle_dir") / "dynamics.json", path)


def _fuzz_plan(c, path):
    run = c.fixture("rigid_run_dir")
    plan = c.tmp / "plan"
    plan.mkdir(exist_ok=True)
    shutil.copy(path, plan / "plan.json")
    shutil.copy(run / "plan" / "joint_traj.csv", plan / "joint_traj.csv")
    return ["eval", plan, run / "scene", "--out-dir", c.out]


FUZZED_READERS = {
    "robot": (lambda c: json.loads(fixture_path("arm7.json").read_text()), _fuzz_robot,
              _ROBOT_TYPES, _ROBOT_REQUIRED),
    "obstacles": (lambda c: {"description": "one of each type", "obstacles": _obstacles()},
                  _fuzz_obstacles, _OBSTACLE_TYPES, _OBSTACLE_REQUIRED),
    "scene-rigid": (lambda c: json.loads(c.fixture("rigid_config_path").read_text()),
                    _fuzz_scene, _RIGID_SCENE_TYPES,
                    {"motion_script", "time", "position", "rotation", "translation"}),
    "scene-rope": (lambda c: json.loads(c.fixture("rope_config_path").read_text()),
                   _fuzz_scene, _ROPE_SCENE_TYPES, {"rotation", "translation"}),
    "problem": (_problem_doc, _fuzz_problem,
                {"robot": (dict, str), "q_start": list, "q_end": list, "steps": int,
                 "q_rest": list, "weights": dict, "smooth": float, "rest": float,
                 "limits": float, "collision": float, "eps_safe": float,
                 "collision_pad": float, "swept_samples": int, "dt": float,
                 "max_iters": int, **_OBSTACLE_TYPES},
                {"robot", "q_start", "q_end", "steps"} | _OBSTACLE_REQUIRED),
    "dynamics": (_rope_dynamics, _fuzz_dynamics,
                 {"n_particles": int, "edges": list, "rest_lengths": list,
                  "stiffness": float, "damping": float, "mass": float, "dt": float,
                  "substeps": int, "attachment": list, "pinned": list},
                 {"n_particles", "edges", "rest_lengths"}),
    "state": (lambda c: json.loads(
        (c.fixture("rope_bundle_dir") / "initial_state.json").read_text()), _fuzz_state,
        {"positions": list, "velocities": list}, {"positions", "velocities"}),
    "plan": (lambda c: json.loads(
        (c.fixture("rigid_run_dir") / "plan" / "plan.json").read_text()), _fuzz_plan,
        {"robot": dict, "grasp": dict, "steps_per_flow_frame": int, **_ROBOT_TYPES},
        {"robot", "grasp", "steps_per_flow_frame"} | _ROBOT_REQUIRED),
}
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 30),
                          st.floats(-10.0, 10.0), st.text(max_size=4))
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2))


def _objects(doc, path=()):
    """The path of every JSON object in ``doc``, ``doc`` itself first."""
    if isinstance(doc, dict):
        yield path
        for key, value in doc.items():
            yield from _objects(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _objects(value, path + (index,))


def _with_defect(draw, doc, types, required):
    """``doc`` with one defect that ``draw`` picks, as (name, document)."""
    holders = list(_objects(doc))
    keys = [(path, key) for path in holders for key in _at(doc, path)]
    defect = draw(st.sampled_from(["extra-key", "wrong-type", "missing-key",
                                   "not-an-object"]))
    if defect == "not-an-object":
        return defect, draw(_JSON_SCALARS)
    if defect == "extra-key":
        path = draw(st.sampled_from(holders))
        key = "unread_" + draw(st.text(max_size=4))
        _at(doc, path)[key] = draw(_JSON_VALUES)
        return defect, doc
    path, key = draw(st.sampled_from([(p, k) for p, k in keys
                                      if (k in required if defect == "missing-key"
                                          else k in types)]))
    if defect == "missing-key":
        del _at(doc, path)[key]
    else:
        _at(doc, path)[key] = draw(_JSON_VALUES.filter(
            lambda value: not _has_json_type(value, types[key])))
    return defect, doc


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


# A valid .nvfl of 2 frames and 4 keypoints: more keypoints than the pose fit
# needs, so each defect below is all that is wrong with it.
_FLOW_VALUES = np.linspace(0.1, 1.0, 2 * 4 * 3, dtype="<f4")


def _nvfl(magic=b"NVFL", version=1, frames=2, points=4, body=_FLOW_VALUES.tobytes()):
    return magic + struct.pack("<III", version, frames, points) + body


def _nvfl_with_value(index_and_value):
    index, value = index_and_value
    values = _FLOW_VALUES.copy()
    values[index] = value
    return _nvfl(body=values.tobytes())


_VALID_NVFL = _nvfl()
# One defect each; every other byte is as the writer made it.
MALFORMED_NVFL = {
    "magic": st.binary(min_size=4, max_size=4).filter(lambda m: m != b"NVFL").map(
        lambda magic: _nvfl(magic=magic)),
    "version": st.integers(0, 2**32 - 1).filter(lambda v: v != 1).map(
        lambda v: _nvfl(version=v)),
    "header-cut": st.integers(0, 15).map(lambda n: _VALID_NVFL[:n]),
    "body-cut": st.integers(16, len(_VALID_NVFL) - 1).map(lambda n: _VALID_NVFL[:n]),
    "body-long": st.binary(min_size=1, max_size=24).map(lambda tail: _VALID_NVFL + tail),
    "non-finite": st.tuples(st.integers(0, _FLOW_VALUES.size - 1),
                            st.sampled_from([NAN, INF, -INF])).map(_nvfl_with_value),
    "frames-under-2": st.integers(0, 1).map(
        lambda t: _nvfl(frames=t, body=_FLOW_VALUES[:12 * t].tobytes())),
    "points-0": st.just(_nvfl(points=0, body=b"")),
}
BUNDLE_PGMS = ("masks/0000.pgm", "depth/0000.pgm", "depth_ref.pgm")
PGM_DEFECTS = ("header-cut", "raster-cut", "magic", "width-non-integer",
               "height-non-integer", "width-oversized", "height-oversized", "maxval")


@st.composite
def _malformed_pgm(draw, blob, defect):
    """``blob``, a P5 PGM as write_pgm writes it, with the named defect."""
    magic, dims, maxval, raster = blob.split(b"\n", 3)
    width, height = dims.split()
    header = len(blob) - len(raster)

    def pgm(magic=magic, width=width, height=height, maxval=maxval):
        return b"%s\n%s %s\n%s\n" % (magic, width, height, maxval) + raster

    non_integer = st.text("0123456789.ex+-_", min_size=1, max_size=6).filter(
        lambda token: not token.isdigit()).map(str.encode)
    oversize = st.integers(1, 10**6)
    maxvals = st.one_of(st.sampled_from([0, 1, 254, 255, 256, 65534, 65535, 65536]),
                        st.integers(0, 70000)).filter(lambda v: v != int(maxval))
    return draw({
        "header-cut": st.integers(0, header - 1).map(lambda n: blob[:n]),
        "raster-cut": st.integers(header, len(blob) - 1).map(lambda n: blob[:n]),
        "magic": st.binary(min_size=2, max_size=2).filter(lambda m: m != b"P5").map(
            lambda m: pgm(magic=m)),
        "width-non-integer": non_integer.map(lambda w: pgm(width=w)),
        "height-non-integer": non_integer.map(lambda h: pgm(height=h)),
        "width-oversized": oversize.map(lambda n: pgm(width=b"%d" % (int(width) + n))),
        "height-oversized": oversize.map(lambda n: pgm(height=b"%d" % (int(height) + n))),
        "maxval": maxvals.map(lambda v: pgm(maxval=b"%d" % v)),
    }[defect])


class TestArgumentSurface:
    def test_no_command_returns_2_with_usage(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage" in err
        assert "Traceback" not in err

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" in out
        assert "--out-dir" in out

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("nvflow")

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["teleport"])
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan-rigid", "--out-dir", "x"])
        assert excinfo.value.code == 2
        assert "--flow" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", sorted(SHARED_FLAGS))
    def test_shared_flag_parses_alike(self, flag):
        """Chaining the stages with default flags must give run's bytes, so a
        flag two subcommands share has one default, type and set of choices."""
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction)).choices
        first, second = (next(action for action in subparsers[name]._actions
                              if flag in action.option_strings)
                         for name in SHARED_FLAGS[flag])
        assert (first.default, first.type, first.choices, first.required) == \
            (second.default, second.type, second.choices, second.required)
        parsed = [getattr(cli.build_parser().parse_args([name, *MINIMAL_ARGV[name]]), first.dest)
                  for name in SHARED_FLAGS[flag]]
        assert parsed[0] == parsed[1]

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_seed_default(self, name):
        """Stage subcommands read no config, so their seed is 0 unless given;
        simulate and run leave it unset for the scene config's."""
        parse = cli.build_parser().parse_args
        expected = None if name in ("simulate", "run") else 0
        assert parse([name, *MINIMAL_ARGV[name]]).seed == expected
        assert parse([name, *MINIMAL_ARGV[name], "--seed", "7"]).seed == 7


class TestConfigErrors:
    def test_simulate_without_config(self, tmp_path, capsys):
        assert run_main(["simulate", "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "--config" in err

    def test_missing_config_file_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.json"
        assert run_main(["simulate", "--config", missing,
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"no such file: {missing}" in err

    def test_malformed_json_config(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert run_main(["simulate", "--config", bad,
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "malformed JSON" in err

    def test_semantically_bad_scene_config(self, tmp_path, rigid_config_path,
                                           capsys):
        doc = json.loads(rigid_config_path.read_text())
        doc["scene"] = "hexapod"
        bad = tmp_path / "bad_scene.json"
        bad.write_text(json.dumps(doc))
        assert run_main(["simulate", "--config", bad,
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "bad scene config" in err

    def test_simulate_without_out_dir(self, rigid_config_path, capsys):
        assert run_main(["simulate", "--config", rigid_config_path]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "--out-dir" in err

    def test_distill_rejects_non_bundle_dir(self, tmp_path, capsys):
        assert run_main(["distill", tmp_path / "empty",
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "manifest.json" in err

    def test_distill_rejects_zero_candidates(self, rope_bundle_dir, tmp_path,
                                             capsys):
        assert run_main(["distill", rope_bundle_dir, "--candidates", 0,
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "--candidates" in err

    def test_plan_deformable_missing_flow(self, tmp_path, capsys):
        missing = tmp_path / "ghost.nvfl"
        assert run_main(["plan-deformable", "--flow", missing,
                         "--dynamics", tmp_path / "dyn.json", "--state", tmp_path / "s.json",
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"no such file: {missing}" in err

    def test_plan_deformable_missing_dynamics(self, tmp_path, capsys):
        flow_path = tmp_path / "tiny.nvfl"
        write_flow(flow_path, np.zeros((2, 3, 3)))
        missing = tmp_path / "ghost_dyn.json"
        assert run_main(["plan-deformable", "--flow", flow_path,
                         "--dynamics", missing, "--state", tmp_path / "s.json",
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"no such file: {missing}" in err

    def test_corrupt_flow_file(self, tmp_path, rope_bundle_dir, capsys):
        junk = tmp_path / "junk.nvfl"
        junk.write_bytes(b"JUNKDATAJUNKDATA")
        assert run_main(["plan-deformable", "--flow", junk,
                         "--dynamics", rope_bundle_dir / "dynamics.json",
                         "--state", rope_bundle_dir / "initial_state.json",
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "bad flow file" in err

    def test_plan_deformable_requires_state(self, tmp_path, rope_bundle_dir, capsys):
        """No initial state is made up from the flow: --state is required,
        as --flow and --dynamics are."""
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as excinfo:
            main(["plan-deformable", "--flow", str(rope_bundle_dir / "gt_flow.nvfl"),
                  "--dynamics", str(rope_bundle_dir / "dynamics.json"), "--out-dir", str(out)])
        assert excinfo.value.code == 2
        assert "--state" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,bound", [({"substeps": 1}, "h*c/m"),
                                            ({"stiffness": 1e5}, "lambda_max(L_free)")])
    def test_plan_deformable_rejects_unstable_integrator(
            self, tmp_path, rope_bundle_dir, capsys, edit, bound):
        dynamics = json.loads((rope_bundle_dir / "dynamics.json").read_text())
        dynamics.update(edit)
        path = tmp_path / "dynamics.json"
        path.write_text(json.dumps(dynamics))
        out = tmp_path / "o"
        assert run_main(["plan-deformable",
                         "--flow", rope_bundle_dir / "gt_flow.nvfl", "--dynamics", path,
                         "--state", rope_bundle_dir / "initial_state.json",
                         "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "unstable integrator" in err and bound in err
        assert not out.exists()      # rejected before any planning

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUT_CASES))
    def test_malformed_input_exits_2(self, case, tmp_path, request, capsys):
        inputs = MalformedInputs(tmp_path, request)
        argv = MALFORMED_INPUT_CASES[case](inputs)
        capsys.readouterr()          # drop what building the inputs printed
        assert run_main(argv) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not inputs.out.exists()

    @pytest.mark.parametrize("case", sorted(READER_TABLE))
    def test_reader_table_never_exits_3(self, case, tmp_path, request, capsys):
        argv = READER_TABLE[case](MalformedInputs(tmp_path, request))
        capsys.readouterr()
        code = run_main(argv)
        assert code in (0, 2)
        if code == 2:
            assert_one_error_line(capsys.readouterr().err)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_mistyped_problem_key())
    @example(case=("max_iters", 0))
    @example(case=("max_iters", True))
    @example(case=("max_iters", 2.5))
    @example(case=("max_iters", "3"))
    def test_mistyped_problem_key_exits_2(self, case, tmp_path, capsys):
        key, value = case
        doc = json.loads(fixture_path("trajopt_fixture.json").read_text())
        doc.update(steps=11, robot=str(fixture_path("arm7.json")))
        doc[key] = value
        config = tmp_path / "problem.json"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_main(["optimize-traj", "--config", config,
                         "--out-dir", tmp_path / "o"]) == 2
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("reader", sorted(FUZZED_READERS))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_document_exits_2(self, reader, data, tmp_path, request, capsys):
        """One defect in a valid robot, obstacle, dynamics, particle-state,
        plan, scene or trajectory-problem document: an extra key at any
        level, a value of another JSON type, a key the reader needs deleted,
        or no object at all."""
        build, argv_of, types, required = FUZZED_READERS[reader]
        inputs = MalformedInputs(tmp_path, request)
        defect, doc = _with_defect(data.draw, build(inputs), types, required)
        argv = argv_of(inputs, inputs.write(doc, "fuzzed.json"))
        capsys.readouterr()
        assert run_main(argv) == 2, defect
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("case", sorted(MISSPELLED_KEY_CASES))
    def test_error_names_the_unknown_key(self, case, tmp_path, request, capsys):
        build, key = MISSPELLED_KEY_CASES[case]
        argv = build(MalformedInputs(tmp_path, request))
        capsys.readouterr()
        assert run_main(argv) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(REFUSED_INPUT_CASES))
    def test_refused_input_is_named(self, case, tmp_path, request, capsys):
        build, text = REFUSED_INPUT_CASES[case]
        argv = build(MalformedInputs(tmp_path, request))
        capsys.readouterr()
        assert run_main(argv) == 2
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(NAMED_FILE_CASES))
    def test_error_names_the_failing_file(self, case, tmp_path, request, capsys):
        build, name = NAMED_FILE_CASES[case]
        argv = build(MalformedInputs(tmp_path, request))
        capsys.readouterr()
        assert run_main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.count(name) == 1

    @pytest.mark.parametrize("build, missing", [
        (lambda c: _distill(c, c.edited_bundle(gt_poses=lambda doc: None)),
         "bundle/gt_poses.json"),
        (lambda c: _optimize_traj(c, robot=str(c.tmp / "ghost_robot.json")), "ghost_robot.json"),
    ], ids=["bundle-gt-poses", "trajopt-robot"])
    def test_missing_nested_file_is_named(self, build, missing, tmp_path, request, capsys):
        """A missing file that another input names is reported as missing, by its path."""
        argv = build(MalformedInputs(tmp_path, request))
        capsys.readouterr()
        assert run_main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"no such file: {tmp_path / missing}\n" in err

    @pytest.mark.parametrize("case", ["run-rope-horizon-0", "run-obstacle-list",
                                      "run-seed-flag-negative", "run-robot-colision-spheres"])
    def test_run_rejects_input_before_any_stage(self, case, tmp_path, request, capsys):
        inputs = MalformedInputs(tmp_path, request)
        argv = MALFORMED_INPUT_CASES[case](inputs)
        capsys.readouterr()
        assert run_main(argv) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not (inputs.out / "scene").exists()
        assert not (inputs.out / "flow").exists()

    @pytest.mark.parametrize("case", sorted(SPHERE_LESS_ROBOT_CASES))
    def test_sphere_less_robot_with_obstacles_writes_nothing(self, case, tmp_path,
                                                              request, capsys):
        inputs = MalformedInputs(tmp_path, request)
        argv = SPHERE_LESS_ROBOT_CASES[case](inputs)
        capsys.readouterr()
        assert run_main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "no collision spheres" in err
        assert not inputs.out.exists()

    def test_pose_file_outside_the_camera_frame_is_named(self, tmp_path, request, capsys):
        argv = MALFORMED_INPUT_CASES["eval-gt-poses-world"](MalformedInputs(tmp_path, request))
        capsys.readouterr()
        assert run_main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "camera frame" in err and "'world'" in err

    @pytest.mark.parametrize("case", sorted(c for c in MALFORMED_INPUT_CASES
                                            if c.startswith("eval-")))
    def test_eval_rejects_a_plan_before_making_out_dir(self, case, tmp_path, request,
                                                       capsys):
        inputs = MalformedInputs(tmp_path, request)
        argv = MALFORMED_INPUT_CASES[case](inputs)
        capsys.readouterr()
        assert run_main(argv) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not inputs.out.exists()

    @pytest.mark.parametrize("case", ["robot-joint-velocity-limit-nan", "robot-joint-q-max-inf",
                                      "robot-joint-q-min-inf"])
    def test_non_finite_joint_limit_is_rejected_before_making_out_dir(
            self, case, tmp_path, request, capsys):
        inputs = MalformedInputs(tmp_path, request)
        argv = MALFORMED_INPUT_CASES[case](inputs)
        capsys.readouterr()
        assert run_main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "must be finite" in err
        assert not inputs.out.exists()

    def test_only_load_catches_input_failures(self):
        """The one input boundary: no function of cli.py but ``_load`` names
        ``_MALFORMED``, a missing-file error or any failure it lists in an
        ``except`` clause, so no reader decides on its own what bad input is."""
        caught = {"_MALFORMED", "FileNotFoundError", "IsADirectoryError", "JSONDecodeError",
                  *(error.__name__ for error in cli._MALFORMED)}
        tree = ast.parse(Path(cli.__file__).read_text())

        def catchers(node):
            return [handler for handler in ast.walk(node)
                    if isinstance(handler, ast.ExceptHandler) and handler.type
                    and caught & {getattr(name, "id", getattr(name, "attr", None))
                                  for name in ast.walk(handler.type)}]

        load = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "_load")
        assert catchers(load)
        assert catchers(tree) == catchers(load)

    def test_optimize_traj_without_config(self, tmp_path, capsys):
        assert run_main(["optimize-traj", "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "--config" in err

    def test_eval_missing_run_dir(self, rope_bundle_dir, tmp_path, capsys):
        assert run_main(["eval", tmp_path / "no_run", rope_bundle_dir]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "no such directory" in err

    @pytest.mark.parametrize("argv", [
        ["distill", "bundle"],
        ["plan-rigid", "--flow", "f.nvfl", "--robot", "r.json"],
        ["plan-deformable", "--flow", "f.nvfl", "--dynamics", "d.json", "--state", "s.json"],
        ["eval", "plan", "scene"],
    ], ids=lambda argv: argv[0])
    def test_config_flag_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--config", "x.json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err


JOINT_CSV_DEFECTS = ("cut", "byte-0xff", "byte-nul")
NPY_DEFECTS = ("cut", "header-cut", "byte-0xff", "byte-nul", "zip-magic")


@st.composite
def _malformed_bytes(draw, blob, defect, flip_end):
    """``blob`` with the named defect; a byte is flipped only before ``flip_end``
    and ``header-cut`` cuts there too."""
    def flipped(value):
        return st.integers(0, flip_end - 1).filter(lambda i: blob[i] != value).map(
            lambda i: blob[:i] + bytes([value]) + blob[i + 1:])

    return draw({
        "cut": st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
        "header-cut": st.integers(0, flip_end - 1).map(lambda n: blob[:n]),
        "byte-0xff": flipped(0xFF),
        "byte-nul": flipped(0),
        "zip-magic": st.sampled_from([b"PK\x03\x04", b"PK\x05\x06"]).map(
            lambda magic: magic + blob[4:]),
    }[defect])


def _assert_rejected(path, blob, argv, capsys):
    """``argv``, run with ``blob`` in the place of ``path``'s bytes, exits 2
    with one error line and makes no output directory (its last argument);
    ``path`` gets its own bytes back after."""
    original = path.read_bytes()
    path.write_bytes(blob)
    try:
        capsys.readouterr()
        assert run_main(argv) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not Path(argv[-1]).exists()
    finally:
        path.write_bytes(original)


class TestReaderFuzzing:
    """Malformed flow, joint CSV and bundle bytes exit 2 with one error line.

    A byte of an .npy's data is a value (a NUL in ``visible.npy`` is a valid
    False), so an array's bytes are flipped only in its header; a byte of a
    joint CSV is flipped anywhere.
    """

    @pytest.mark.parametrize("defect", sorted(MALFORMED_NVFL))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_flow_file_exits_2(self, defect, data, tmp_path, capsys):
        path, out = tmp_path / "flow.nvfl", tmp_path / "o"
        path.write_bytes(data.draw(MALFORMED_NVFL[defect]))
        capsys.readouterr()
        assert run_main(["plan-rigid", "--flow", path,
                         "--robot", fixture_path("arm7.json"), "--out-dir", out]) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("defect", PGM_DEFECTS)
    @pytest.mark.parametrize("name", BUNDLE_PGMS)
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_bundle_pgm_exits_2(self, name, defect, data, rigid_bundle_dir,
                                          tmp_path, capsys):
        bundle = tmp_path / "bundle"
        if not bundle.exists():       # one copy for every example; each restores its file
            shutil.copytree(rigid_bundle_dir, bundle)
        path = bundle / name
        _assert_rejected(path, data.draw(_malformed_pgm(path.read_bytes(), defect)),
                         ["distill", bundle, "--out-dir", tmp_path / "o"], capsys)

    @pytest.mark.parametrize("defect", NPY_DEFECTS)
    @pytest.mark.parametrize("name", ["tracks.npy", "visible.npy"])
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_bundle_array_exits_2(self, name, defect, data, rigid_bundle_dir,
                                            tmp_path, capsys):
        bundle = tmp_path / "bundle"
        if not bundle.exists():
            shutil.copytree(rigid_bundle_dir, bundle)
        path = bundle / name
        blob = path.read_bytes()
        blob = data.draw(_malformed_bytes(blob, defect, _npy_header_end(blob)))
        _assert_rejected(path, blob, ["distill", bundle, "--out-dir", tmp_path / "o"], capsys)

    @pytest.mark.parametrize("defect", JOINT_CSV_DEFECTS)
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_joint_csv_exits_2(self, defect, data, rigid_run_dir, tmp_path,
                                         capsys):
        plan = tmp_path / "plan"
        if not plan.exists():
            shutil.copytree(rigid_run_dir / "plan", plan)
        path = plan / "joint_traj.csv"
        blob = path.read_bytes()
        _assert_rejected(path, data.draw(_malformed_bytes(blob, defect, len(blob))),
                         ["eval", plan, rigid_run_dir / "scene", "--out-dir", tmp_path / "o"],
                         capsys)


class TestRuntimeErrors:
    def test_unreachable_flow_exits_3(self, tmp_path, capsys, rng):
        cluster = np.array([5.0, 0.0, 5.0]) + 0.01 * rng.standard_normal((16, 3))
        flow_path = tmp_path / "far.nvfl"
        write_flow(flow_path, np.stack([cluster, cluster]))
        assert run_main(["plan-rigid", "--flow", flow_path,
                         "--robot", fixture_path("arm7.json"),
                         "--out-dir", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "unreachable" in err

    def test_no_grasp_exits_3_with_one_stderr_line(self, tmp_path):
        """An object wider than the gripper along both axes: the one error
        line is all a shell sees, with no warning printed before it."""
        side = np.linspace(-0.1, 0.1, 5)
        grid = np.array([[x, y, 0.5 + 0.01 * x] for x in side for y in side])
        flow_path = tmp_path / "wide.nvfl"
        write_flow(flow_path, np.stack([grid, grid]))
        src = str(Path(nvflow.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH", "")])))
        argv = ["plan-rigid", "--flow", flow_path, "--robot", fixture_path("arm7.json"),
                "--out-dir", tmp_path / "o"]
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "nvflow.cli",
                               *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert_one_error_line(proc.stderr)
        assert "no feasible grasp" in proc.stderr

    def test_non_finite_jacobian_exits_3(self, tmp_path, capsys, monkeypatch):
        """A NaN collision gradient makes one Jacobian entry NaN; the solve
        stops there and says so, instead of failing later on the residual."""
        doc = json.loads(fixture_path("trajopt_fixture.json").read_text())
        doc.update(steps=21, robot=str(fixture_path("arm7.json")))
        config = tmp_path / "problem.json"
        config.write_text(json.dumps(doc))
        monkeypatch.setattr(trajopt.SphereObstacle, "gradient",
                            lambda self, points: np.full(np.shape(points), np.nan))
        assert run_main(["optimize-traj", "--config", config,
                         "--out-dir", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "non-finite Jacobian" in err


class TestSimulate:
    def test_simulate_writes_bundle_and_manifest(self, rigid_config_path,
                                                 tmp_path):
        out = tmp_path / "scene"
        assert run_main(["simulate", "--config", rigid_config_path,
                         "--out-dir", out]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 0
        assert "run_manifest.json" not in manifest["files"]
        assert "timings.json" not in manifest["files"]
        assert "manifest.json" in manifest["files"]
        for rel, digest in list(manifest["files"].items())[:3]:
            assert sha256_file(out / rel) == digest
        timings = json.loads((out / "timings.json").read_text())
        assert timings["total"] > 0.0
        assert [name for name, _ in timings["stages"]] == ["simulate",
                                                           "write_bundle"]

    def test_same_seed_gives_byte_identical_track_arrays(self, rigid_config_path, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run_main(["simulate", "--config", rigid_config_path,
                             "--seed", 3, "--out-dir", out]) == 0
        for name in ("tracks.npy", "visible.npy", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_seed_flag_overrides_config_seed(self, rigid_config_path,
                                             tmp_path):
        out = tmp_path / "scene7"
        assert run_main(["simulate", "--config", rigid_config_path,
                         "--seed", 7, "--out-dir", out]) == 0
        run_manifest = json.loads((out / "run_manifest.json").read_text())
        bundle_manifest = json.loads((out / "manifest.json").read_text())
        assert run_manifest["seed"] == 7
        assert bundle_manifest["seed"] == 7


class TestDistill:
    def test_distill_writes_scored_candidates(self, rope_bundle_dir,
                                              tmp_path):
        out = tmp_path / "flow"
        assert run_main(["distill", rope_bundle_dir, "--candidates", 4,
                         "--out-dir", out]) == 0

        scores = json.loads((out / "scores.json").read_text())
        assert [c["id"] for c in scores["candidates"]] == [0, 1, 2, 3]
        assert scores["selected"] == 0
        assert scores["depth_scale"] == pytest.approx(1.0)
        keypoint_counts = {c["keypoints"] for c in scores["candidates"]}
        assert len(keypoint_counts) == 1

        positions, _ = read_flow(out / "flow.nvfl")
        assert positions.shape[0] == 6
        assert positions.shape[1] == next(iter(keypoint_counts))
        assert sorted(p.name for p in out.glob("*.ppm")) == ["flow_00.ppm"]

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "distill"
        assert set(manifest["files"]) == {"flow.nvfl", "scores.json", "flow_00.ppm"}

    def test_default_candidates_are_runs(self, tmp_path):
        """`distill` and `run` share one default candidate count, so `distill`
        with default flags on the scene of `run --seed 0` writes run's flow."""
        run, out = tmp_path / "run", tmp_path / "flow"
        assert run_main(["run", "--seed", 0, "--out-dir", run]) == 0
        assert run_main(["distill", run / "scene", "--out-dir", out]) == 0
        written = {p.name: p.read_bytes() for p in (run / "flow").iterdir()}
        assert set(written) == {"flow.nvfl", "scores.json", "flow_00.ppm"}
        for name, blob in written.items():
            assert (out / name).read_bytes() == blob, name
        assert len(json.loads(written["scores.json"])["candidates"]) == 8


class TestPlanDeformable:
    def test_plan_from_bundle_files(self, rope_bundle_dir, tmp_path):
        out = tmp_path / "plan"
        assert run_main(["plan-deformable",
                         "--flow", rope_bundle_dir / "gt_flow.nvfl",
                         "--dynamics", rope_bundle_dir / "dynamics.json",
                         "--state", rope_bundle_dir / "initial_state.json",
                         "--horizon", 2, "--out-dir", out]) == 0

        actions = json.loads((out / "actions.json").read_text())
        assert actions["substeps_per_frame"] == 1
        assert len(actions["actions"]) == 5
        assert all(len(row) == 3 for row in actions["actions"])

        lines = (out / "costs.csv").read_text().strip().splitlines()
        assert lines[0] == "t,flow_cost"
        assert len(lines) == 7

        final = json.loads((out / "final_state.json").read_text())
        assert np.asarray(final["positions"]).shape == (8, 3)
        assert np.isfinite(np.asarray(final["velocities"])).all()

    def test_eval_manifest_follows_a_rewritten_final_state(self, rope_bundle_dir,
                                                            tmp_path):
        plan = tmp_path / "plan"
        assert run_main(["plan-deformable",
                         "--flow", rope_bundle_dir / "gt_flow.nvfl",
                         "--dynamics", rope_bundle_dir / "dynamics.json",
                         "--state", rope_bundle_dir / "initial_state.json",
                         "--horizon", 2, "--out-dir", plan]) == 0
        assert run_main(["eval", plan, rope_bundle_dir, "--out-dir", tmp_path / "a"]) == 0
        state = plan / "final_state.json"
        state.write_text(json.dumps(json.loads(state.read_text()), indent=1))
        assert run_main(["eval", plan, rope_bundle_dir, "--out-dir", tmp_path / "b"]) == 0
        # Same values, so the same metrics; the graded bytes changed, so the
        # manifest must too.
        assert ((tmp_path / "a" / "metrics.json").read_bytes()
                == (tmp_path / "b" / "metrics.json").read_bytes())
        before = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
        after = json.loads((tmp_path / "b" / "run_manifest.json").read_text())
        assert before["inputs"]["graded"] != after["inputs"]["graded"]
        assert after["inputs"]["graded"] == {"final_state.json": sha256_file(state)}

    def test_same_seed_same_plan(self, rope_bundle_dir, tmp_path):
        args = ["plan-deformable",
                "--flow", rope_bundle_dir / "gt_flow.nvfl",
                "--dynamics", rope_bundle_dir / "dynamics.json",
                "--state", rope_bundle_dir / "initial_state.json",
                "--horizon", 2, "--seed", 3]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_main(args + ["--out-dir", out_a]) == 0
        assert run_main(args + ["--out-dir", out_b]) == 0
        assert ((out_a / "actions.json").read_bytes()
                == (out_b / "actions.json").read_bytes())
        assert ((out_a / "run_manifest.json").read_bytes()
                == (out_b / "run_manifest.json").read_bytes())


class TestOptimizeTraj:
    def test_packaged_problem_solves(self, tmp_path):
        out = tmp_path / "traj"
        assert run_main(["optimize-traj",
                         "--config", fixture_path("trajopt_fixture.json"),
                         "--out-dir", out]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["converged"] is True
        assert result["min_clearance"] >= 0.02 - 1e-4
        rows = (out / "joint_traj.csv").read_text().strip().splitlines()
        assert len(rows) == 82
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest["files"]) == {"joint_traj.csv", "result.json"}


    def test_max_iters_from_the_problem_document(self, tmp_path):
        doc = json.loads(fixture_path("trajopt_fixture.json").read_text())
        doc["robot"] = str(fixture_path("arm7.json"))
        iterations = {}
        for max_iters in (None, 2):
            if max_iters is not None:
                doc["max_iters"] = max_iters
            config = tmp_path / f"problem_{max_iters}.json"
            config.write_text(json.dumps(doc))
            out = tmp_path / f"traj_{max_iters}"
            assert run_main(["optimize-traj", "--config", config, "--out-dir", out]) == 0
            iterations[max_iters] = json.loads((out / "result.json").read_text())["iterations"]
        assert iterations[None] > 2 and iterations[2] <= 2


class TestFullRun:
    def test_rigid_pipeline_succeeds(self, rigid_config_path, tmp_path,
                                     capsys):
        out = tmp_path / "run"
        assert run_main(["run", "--config", rigid_config_path,
                         "--candidates", 3, "--out-dir", out]) == 0
        assert capsys.readouterr().err == ""

        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["success"] is True
        assert (out / "scene" / "manifest.json").exists()
        assert (out / "flow" / "scores.json").exists()
        assert (out / "plan" / "joint_traj.csv").exists()
        assert (out / "plan" / "plan.json").exists()

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "run"
        assert "timings.json" not in manifest["files"]
        assert "run_manifest.json" not in manifest["files"]
        assert "metrics.json" in manifest["files"]
        assert "scene/manifest.json" in manifest["files"]

    @pytest.mark.parametrize("command", ["run-rigid", "run-rope", "simulate"])
    def test_manifest_digests_are_those_of_the_files(self, command, rigid_config_path,
                                                     rope_config_path, tmp_path):
        """The digests of scene files come from the bundle manifest, not
        from hashing them again: each still matches the file on disk."""
        out = tmp_path / "out"
        argv = {"run-rigid": ["run", "--config", rigid_config_path, "--candidates", 2],
                "run-rope": ["run", "--config", rope_config_path, "--horizon", 2],
                "simulate": ["simulate", "--config", rigid_config_path]}[command]
        assert run_main(argv + ["--out-dir", out]) == 0
        files = json.loads((out / "run_manifest.json").read_text())["files"]
        assert command == "simulate" or "scene/tracks.npy" in files
        for rel, digest in files.items():
            assert digest == hashlib.sha256((out / rel).read_bytes()).hexdigest(), rel

    def test_run_without_config_runs_the_packaged_rigid_demo(self, tmp_path):
        default, packaged = tmp_path / "default", tmp_path / "packaged"
        assert run_main(["run", "--candidates", 1, "--out-dir", default]) == 0
        assert run_main(["run", "--config", fixture_path("scene_rigid_demo.json"),
                         "--candidates", 1, "--out-dir", packaged]) == 0
        assert ((default / "run_manifest.json").read_bytes()
                == (packaged / "run_manifest.json").read_bytes())

    def test_rigid_run_manifest_is_reproducible(self, rigid_config_path,
                                                tmp_path):
        args = ["run", "--config", rigid_config_path, "--candidates", 2,
                "--seed", 11]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_main(args + ["--out-dir", out_a]) == 0
        assert run_main(args + ["--out-dir", out_b]) == 0
        assert ((out_a / "run_manifest.json").read_bytes()
                == (out_b / "run_manifest.json").read_bytes())

    def test_rope_pipeline_runs(self, rope_config_path, tmp_path):
        out = tmp_path / "rope_run"
        assert run_main(["run", "--config", rope_config_path,
                         "--candidates", 2, "--horizon", 2,
                         "--out-dir", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert isinstance(metrics["success"], bool)
        assert metrics["final_correspondence_rmse_mm"] is not None
        assert (out / "plan" / "final_state.json").exists()

    @pytest.mark.parametrize("kind", ["rigid-noisy", "rope-flow", "rope-chamfer_final"])
    def test_run_equals_its_subcommands_chained(self, kind, rope_config_path, tmp_path):
        """Each stage of `run` consumes what the stage before it wrote."""
        if kind.startswith("rope"):
            config = rope_config_path
            plan_args = ["--horizon", 2, "--cost-mode", kind.partition("-")[2]]
        else:
            config = tmp_path / "rigid_noisy.json"
            SceneConfig(scene="rigid", frames=9, object=ObjectSpec(surface_samples=24),
                        waypoints=demo_scene("scene_rigid_demo.json").waypoints,
                        distractor_points=10,
                        noise=demo_scene("scene_rigid_demo.json").noise).save(config)
            plan_args = []
        seed = ["--seed", 3]
        run, chain = tmp_path / "run", tmp_path / "chain"
        assert run_main(["run", "--config", config, "--candidates", 3,
                         "--out-dir", run] + plan_args + seed) == 0
        scene = chain / "scene"
        assert run_main(["simulate", "--config", config, "--out-dir", scene] + seed) == 0
        assert run_main(["distill", scene, "--candidates", 3,
                         "--out-dir", chain / "flow"] + seed) == 0
        flow = ["--flow", chain / "flow" / "flow.nvfl", "--out-dir", chain / "plan"]
        if kind.startswith("rope"):
            assert run_main(["plan-deformable", *flow, "--dynamics", scene / "dynamics.json",
                             "--state", scene / "initial_state.json"]
                            + plan_args + seed) == 0
        else:
            assert run_main(["plan-rigid", *flow, "--robot", fixture_path("arm7.json"),
                             "--obstacles", fixture_path("obstacles_demo.json")]
                            + seed) == 0
        assert run_main(["eval", chain / "plan", scene, "--out-dir", chain / "eval"]) == 0

        def outputs(root):    # a subcommand's own manifest and timings aside
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()
                    and p.name not in ("run_manifest.json", "timings.json")}

        for stage in ("scene", "flow", "plan"):
            written, chained = outputs(run / stage), outputs(chain / stage)
            assert written.keys() == chained.keys(), stage
            for rel, blob in written.items():
                assert blob == chained[rel], f"{stage}/{rel}"
        assert (run / "metrics.json").read_bytes() == \
            (chain / "eval" / "metrics.json").read_bytes()

    def test_run_draws_only_the_selected_candidate(self, tmp_path):
        out = tmp_path / "run"
        assert run_main(["run", "--seed", 1, "--candidates", 8, "--out-dir", out]) == 0
        scores = json.loads((out / "flow" / "scores.json").read_text())
        selected = scores["selected"]
        name = f"flow_{selected:02d}.ppm"
        assert sorted(p.name for p in (out / "flow").glob("*.ppm")) == [name]
        assert selected == 0          # the clean candidate wins on this seed

        # The clean candidate rebuilt from the scene, as distill builds it.
        bundle = SceneBundle.read(out / "scene")
        intr = bundle.config.intrinsics
        scale = calibrate_depth(bundle.depth, bundle.depth_ref)
        assert scale == scores["depth_scale"]
        flow = distill_flow(TrackSet(bundle.tracks.positions * scale, bundle.tracks.visible),
                            bundle.mask, intr, label=bundle.gt_flow.label)
        assert np.array_equal(read_flow(out / "flow" / "flow.nvfl")[0],
                              flow.positions.astype(np.float32))
        write_ppm(tmp_path / name, render_flow_image(flow, intr, candidate_id=selected))
        assert (out / "flow" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_rerun_with_the_other_scene_kind_grades_that_kind(
            self, rigid_config_path, rope_config_path, tmp_path):
        out = tmp_path / "run"
        assert run_main(["run", "--config", rigid_config_path,
                         "--candidates", 1, "--out-dir", out]) == 0
        assert run_main(["run", "--config", rope_config_path, "--candidates", 1,
                         "--horizon", 2, "--out-dir", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["final_correspondence_rmse_mm"] is not None
        assert "translation_error_mm" not in metrics

    def test_rerun_after_a_rope_run_grades_the_rigid_scene(
            self, rigid_config_path, rope_config_path, tmp_path):
        out = tmp_path / "run"
        assert run_main(["run", "--config", rope_config_path, "--candidates", 1,
                         "--horizon", 2, "--out-dir", out]) == 0
        assert run_main(["run", "--config", rigid_config_path,
                         "--candidates", 1, "--out-dir", out]) == 0
        assert (out / "plan" / "final_state.json").exists()    # left by the rope run
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["translation_error_mm"] is not None
        assert "final_correspondence_rmse_mm" not in metrics

    def test_rerun_with_fewer_candidates_lists_only_its_files(self, rigid_config_path,
                                                              tmp_path):
        args = ["run", "--config", rigid_config_path, "--seed", 1]
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run_main(args + ["--candidates", 8, "--out-dir", out]) == 0
        # A candidate image as a run that drew every candidate left it.
        shutil.copy(out / "flow" / "flow_00.ppm", out / "flow" / "flow_07.ppm")
        assert run_main(args + ["--candidates", 2, "--out-dir", out]) == 0
        assert run_main(args + ["--candidates", 2, "--out-dir", fresh]) == 0
        assert (out / "flow" / "flow_07.ppm").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert [rel for rel in manifest["files"] if rel.endswith(".ppm")] == [
            "flow/flow_00.ppm"]
        assert (out / "run_manifest.json").read_bytes() == \
            (fresh / "run_manifest.json").read_bytes()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_rope_after_rigid_lists_only_rope_files(self, command, rigid_config_path,
                                                    rope_config_path, tmp_path):
        extra = ["--candidates", 1, "--horizon", 2] if command == "run" else []
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_main([command, "--config", rigid_config_path, "--out-dir", out]
                        + extra) == 0
        assert run_main([command, "--config", rope_config_path, "--out-dir", out]
                        + extra) == 0
        assert run_main([command, "--config", rope_config_path, "--out-dir", fresh]
                        + extra) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert not any(rel.endswith(("gt_poses.json", "plan.json", "joint_traj.csv"))
                       for rel in manifest["files"])
        assert (out / "run_manifest.json").read_bytes() == \
            (fresh / "run_manifest.json").read_bytes()

    def test_eval_of_a_rigid_bundle_needs_a_rigid_plan(
            self, rope_bundle_dir, rigid_bundle_dir, tmp_path, capsys):
        plan = tmp_path / "plan"
        assert run_main(["plan-deformable", "--flow", rope_bundle_dir / "gt_flow.nvfl",
                         "--dynamics", rope_bundle_dir / "dynamics.json",
                         "--state", rope_bundle_dir / "initial_state.json",
                         "--horizon", 1, "--out-dir", plan]) == 0
        capsys.readouterr()
        assert run_main(["eval", plan, rigid_bundle_dir,
                         "--out-dir", tmp_path / "eval"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "plan.json" in err

    def test_eval_manifest_does_not_depend_on_the_path_spelling(
            self, rigid_config_path, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run_main(["run", "--config", rigid_config_path,
                         "--candidates", 1, "--out-dir", out]) == 0
        monkeypatch.chdir(tmp_path)
        assert run_main(["eval", "run/plan", "run/scene", "--out-dir", "rel"]) == 0
        assert run_main(["eval", out / "plan", out / "scene",
                         "--out-dir", tmp_path / "abs"]) == 0
        manifest = (tmp_path / "rel" / "run_manifest.json").read_bytes()
        assert manifest == (tmp_path / "abs" / "run_manifest.json").read_bytes()
        assert json.loads(manifest)["inputs"]["graded"] == {
            name: sha256_file(out / "plan" / name)
            for name in ("plan.json", "joint_traj.csv")}

    def test_eval_without_out_dir_leaves_plan_untouched(
            self, rigid_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_main(["run", "--config", rigid_config_path,
                         "--candidates", 1, "--out-dir", out]) == 0
        plan = tmp_path / "plan"
        assert run_main(["plan-rigid", "--flow", out / "flow" / "flow.nvfl",
                         "--robot", fixture_path("arm7.json"),
                         "--out-dir", plan]) == 0
        manifest = (plan / "run_manifest.json").read_bytes()
        capsys.readouterr()
        assert run_main(["eval", plan, out / "scene"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "--out-dir" in err
        assert (plan / "run_manifest.json").read_bytes() == manifest
        assert not (plan / "metrics.json").exists()


# The argv of each command, and the stages it times in run order: the names
# timings.json lists and --verbose narrates.
STAGE_CASES = {
    "run-rigid": (lambda c: ["run", "--config", c.fixture("rigid_config_path"),
                             "--candidates", 2, "--out-dir", c.out],
                  ["simulate", "write_bundle", "calibrate", "distill", "corrupt", "score",
                   "write_flow", "poses", "grasp", "ik", "optimize", "write_plan",
                   "evaluate"]),
    "run-rope": (lambda c: ["run", "--config", c.fixture("rope_config_path"),
                            "--candidates", 2, "--horizon", 2, "--out-dir", c.out],
                 ["simulate", "write_bundle", "calibrate", "distill", "corrupt", "score",
                  "write_flow", "mpc", "write_plan", "evaluate"]),
    "simulate": (lambda c: _simulate(c, c.fixture("rope_config_path")),
                 ["simulate", "write_bundle"]),
    "distill": (lambda c: _distill(c, c.fixture("rigid_bundle_dir")),
                ["calibrate", "distill", "corrupt", "score", "write_flow"]),
    "plan-rigid": (lambda c: _plan_rigid(c, c.fixture("rigid_run_dir") / "flow/flow.nvfl"),
                   ["poses", "grasp", "ik", "optimize", "write_plan"]),
    "plan-deformable": (_plan_deformable, ["mpc", "write_plan"]),
    "eval": (lambda c: ["eval", c.fixture("rigid_run_dir") / "plan",
                        c.fixture("rigid_run_dir") / "scene", "--out-dir", c.out],
             ["evaluate"]),
    "optimize-traj": (lambda c: _optimize_traj(c, steps=11), ["optimize", "write_result"]),
}


class TestStageTimings:
    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_timings_and_verbose_name_the_stages_in_order(self, case, tmp_path, request,
                                                          capsys):
        build, stages = STAGE_CASES[case]
        inputs = MalformedInputs(tmp_path, request)
        argv = build(inputs)
        capsys.readouterr()
        assert run_main(argv + ["--verbose"]) == 0
        timings = json.loads((inputs.out / "timings.json").read_text())
        assert [name for name, _ in timings["stages"]] == stages
        assert all(seconds >= 0.0 for _, seconds in timings["stages"])
        assert timings["total"] == sum(seconds for _, seconds in timings["stages"])
        narrated = [f"[nvflow] {name} ..." for name in stages]
        if case.startswith("run"):        # both small scenes succeed
            narrated.append("[nvflow] success=True")
        assert capsys.readouterr().err.splitlines() == narrated


class TestInstalledEntryPoints:
    def test_module_invocation(self):
        src = str(Path(nvflow.__file__).resolve().parent.parent)
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-m", "nvflow.cli", "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("nvflow")

    def test_runs_never_import_numpy_ma(self, tmp_path):
        """numpy.ma costs 11-14 ms to import; no stage of a rigid or rope run needs it.

        np.median, np.quantile, np.setdiff1d and np.unique import it on first use.
        """
        src = str(Path(nvflow.__file__).resolve().parent.parent)
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        rope = fixture_path("scene_rope.json")
        script = (
            "import sys\n"
            "from nvflow.cli import main\n"
            f"codes = [main(['run', '--seed', '0', '--candidates', '1', '--out-dir', "
            f"{str(tmp_path / 'rigid')!r}]), main(['run', '--config', {str(rope)!r}, "
            f"'--horizon', '2', '--out-dir', {str(tmp_path / 'rope')!r}])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0] False"

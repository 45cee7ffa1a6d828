"""End-to-end tests for the command-line pipeline driver.

Every test drives ``nvflow.cli.main`` in-process with an explicit argv, so
exit codes and stderr discipline are asserted exactly as a shell would see
them.  One subprocess smoke test checks the installed entry points.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import nvflow
from nvflow.cli import main
from nvflow.fileio import read_flow, read_pgm, sha256_file, write_flow, write_pgm
from nvflow.sim import DEFAULT_SENSOR_NOISE, ObjectSpec, RopeSpec, SceneConfig

SUBCOMMANDS = ("simulate", "distill", "plan-rigid", "plan-deformable",
               "optimize-traj", "eval", "run")


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
            values, maxval = read_pgm(bundle / name)
            write_pgm(bundle / name, values[:240, :320], maxval=maxval)
        return bundle

    def edited_bundle(self, **edits):
        """A copy of the small rigid bundle with files replaced.

        ``edits`` maps a file's stem (``tracks`` for ``tracks.npy``,
        ``gt_poses`` for ``gt_poses.json``) to a function of its array or
        JSON document that returns what takes its place: raw bytes, None to
        delete the file, or an array or document to save (pickled if it
        must be).
        """
        bundle = self.tmp / "bundle"
        shutil.copytree(self.fixture("rigid_bundle_dir"), bundle)
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
            "--horizon", 2, "--out-dir", c.out]


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


def _stringified_state(c):
    """The rope bundle's initial particle state with its positions as strings."""
    doc = json.loads((c.fixture("rope_bundle_dir") / "initial_state.json").read_text())
    return {**doc, "positions": [[str(x) for x in p] for p in doc["positions"]]}


def _eval(c, plan_doc):
    return ["eval", c.rigid_plan(plan_doc), c.fixture("rigid_bundle_dir"),
            "--out-dir", c.out]


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
        "--obstacles", c.write([5])],
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
    "flow-json-without-positions": lambda c: _plan_rigid(
        c, c.write({"version": 1, "frames": 2, "points": 1}, "f.json")),
    "flow-json-list": lambda c: _plan_rigid(c, c.write([1], "f.json")),
    "flow-directory": lambda c: _plan_rigid(c, c.tmp),
    "flow-json-positions-strings": lambda c: [
        "plan-deformable", "--flow", _stringified_rope_flow(c),
        "--dynamics", c.fixture("rope_bundle_dir") / "dynamics.json",
        "--horizon", 2, "--out-dir", c.out],
    "flow-json-one-frame": lambda c: _plan_rigid(c, c.write(
        {"version": 1, "frames": 1, "points": 1, "positions": [[[0.0, 0.0, 1.0]]]},
        "f.json")),
    "run-rope-horizon-0": lambda c: [
        "run", "--config", c.fixture("rope_config_path"), "--candidates", 1,
        "--horizon", 0, "--out-dir", c.out],
    "plan-deformable-dynamics-directory": lambda c: [
        "plan-deformable", "--flow", c.fixture("rope_bundle_dir") / "gt_flow.nvfl",
        "--dynamics", c.tmp, "--out-dir", c.out],
    "plan-deformable-horizon-0": lambda c: [
        "plan-deformable", "--flow", c.fixture("rope_bundle_dir") / "gt_flow.nvfl",
        "--dynamics", c.fixture("rope_bundle_dir") / "dynamics.json",
        "--horizon", 0, "--out-dir", c.out],
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
        script=[[0.0, 3.0, 0.0], [0.5, NAN, 0.0], [1.0, 0.0, 0.0]])),
    "scene-noise-track-sigma-nan": lambda c: _simulate(
        c, c.rigid_edited("noise", track_sigma=NAN)),
    "scene-image-focal-inf": lambda c: _simulate(c, c.rigid_edited("image", focal=INF)),
    "scene-motion-script-object": lambda c: _simulate(
        c, c.edited(c.fixture("rigid_config_path"), motion_script={})),
    "trajopt-obstacles-object": lambda c: _optimize_traj(c, steps=11, obstacles={}),
    "bundle-mask-cropped": lambda c: _distill(c, c.cropped_bundle("masks/0000.pgm")),
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
    "dynamics-ground-height-nan": lambda c: _plan_deformable(c, ground_height=NAN),
    # JSON values of the wrong type that int(), float() and bool() would coerce
    "dynamics-gravity-string-false": lambda c: _plan_deformable(c, gravity="false"),
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
        script=[[0.0, 3.0, 0.0], [True, 0.0, 0.0]])),
}

# Every top-level key of the two documents a user writes by hand, each
# deleted or set to every one of these values.
BAD_VALUES = {"deleted": DELETE, "string": "x", "list": [], "object": {},
              "null": None, "nan": NAN, "inf": INF, "minus-1": -1}
PROBLEM_KEYS = ("robot", "q_start", "q_end", "steps", "q_rest", "weights", "eps_safe",
                "collision_pad", "swept_samples", "dt", "obstacles", "max_iters")
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
                         "--dynamics", tmp_path / "dyn.json",
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"no such file: {missing}" in err

    def test_plan_deformable_missing_dynamics(self, tmp_path, capsys):
        flow_path = tmp_path / "tiny.nvfl"
        write_flow(flow_path, np.zeros((2, 3, 3)))
        missing = tmp_path / "ghost_dyn.json"
        assert run_main(["plan-deformable", "--flow", flow_path,
                         "--dynamics", missing,
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"no such file: {missing}" in err

    def test_corrupt_flow_file(self, tmp_path, rope_bundle_dir, capsys):
        junk = tmp_path / "junk.nvfl"
        junk.write_bytes(b"JUNKDATAJUNKDATA")
        assert run_main(["plan-deformable", "--flow", junk,
                         "--dynamics", rope_bundle_dir / "dynamics.json",
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "bad flow file" in err

    def test_plan_deformable_needs_state_on_count_mismatch(
            self, tmp_path, rope_bundle_dir, capsys):
        flow_path = tmp_path / "three_points.nvfl"
        write_flow(flow_path, np.zeros((2, 3, 3)))
        assert run_main(["plan-deformable", "--flow", flow_path,
                         "--dynamics", rope_bundle_dir / "dynamics.json",
                         "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "--state" in err

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
                         "--flow", rope_bundle_dir / "gt_flow.nvfl",
                         "--dynamics", path, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "unstable integrator" in err and bound in err
        assert not out.exists()      # rejected before any planning

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUT_CASES))
    def test_malformed_input_exits_2(self, case, tmp_path, request, capsys):
        argv = MALFORMED_INPUT_CASES[case](MalformedInputs(tmp_path, request))
        capsys.readouterr()          # drop what building the inputs printed
        assert run_main(argv) == 2
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("case", sorted(READER_TABLE))
    def test_reader_table_never_exits_3(self, case, tmp_path, request, capsys):
        argv = READER_TABLE[case](MalformedInputs(tmp_path, request))
        capsys.readouterr()
        code = run_main(argv)
        assert code in (0, 2)
        if code == 2:
            assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("case", ["run-rope-horizon-0", "run-obstacle-list",
                                      "run-seed-flag-negative"])
    def test_run_rejects_input_before_any_stage(self, case, tmp_path, request, capsys):
        inputs = MalformedInputs(tmp_path, request)
        argv = MALFORMED_INPUT_CASES[case](inputs)
        capsys.readouterr()
        assert run_main(argv) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not (inputs.out / "scene").exists()
        assert not (inputs.out / "flow").exists()

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
        ["plan-deformable", "--flow", "f.nvfl", "--dynamics", "d.json"],
        ["eval", "plan", "scene"],
    ], ids=lambda argv: argv[0])
    def test_config_flag_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--config", "x.json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err


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
        for k in range(4):
            assert (out / f"flow_{k:02d}.ppm").exists()

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "distill"
        assert set(manifest["files"]) == {
            "flow.nvfl", "scores.json",
            "flow_00.ppm", "flow_01.ppm", "flow_02.ppm", "flow_03.ppm"}


class TestPlanDeformable:
    def test_plan_from_bundle_files(self, rope_bundle_dir, tmp_path):
        out = tmp_path / "plan"
        assert run_main(["plan-deformable",
                         "--flow", rope_bundle_dir / "gt_flow.nvfl",
                         "--dynamics", rope_bundle_dir / "dynamics.json",
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
                        distractor_points=10, noise=DEFAULT_SENSOR_NOISE).save(config)
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
        assert run_main(args + ["--candidates", 2, "--out-dir", out]) == 0
        assert run_main(args + ["--candidates", 2, "--out-dir", fresh]) == 0
        assert (out / "flow" / "flow_07.ppm").exists()        # left by the first run
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert [rel for rel in manifest["files"] if rel.endswith(".ppm")] == [
            "flow/flow_00.ppm", "flow/flow_01.ppm"]
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

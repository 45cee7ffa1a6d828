"""End-to-end tests for the command-line pipeline driver.

Every test drives ``nvflow.cli.main`` in-process with an explicit argv, so
exit codes and stderr discipline are asserted exactly as a shell would see
them.  One subprocess smoke test checks the installed entry points.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import nvflow
from nvflow.cli import main
from nvflow.fileio import read_flow, sha256_file, write_flow
from nvflow.sim import ObjectSpec, RopeSpec, SceneConfig

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
        doc = json.loads(Path(path).read_text())
        doc.update(changes)
        return self.write(doc)

    def flow(self):
        path = self.tmp / "flow.nvfl"
        write_flow(path, np.tile([0.0, 0.0, 1.0], (2, 12, 1)))
        return path

    def trajopt(self, **changes):
        return self.edited(fixture_path("trajopt_fixture.json"),
                           robot=str(fixture_path("arm7.json")), **changes)

    def rigid_plan(self, plan_doc):
        plan = self.tmp / "plan"
        plan.mkdir()
        (plan / "plan.json").write_text(json.dumps(plan_doc))
        (plan / "joint_traj.csv").write_text("t,q0\n0,0\n1,0\n2,0\n")
        return plan


def _plan_rigid(c, flow):
    return ["plan-rigid", "--flow", flow, "--robot", fixture_path("arm7.json"),
            "--out-dir", c.out]


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
    "eval-plan-list": lambda c: _eval(c, [1]),
    "eval-plan-robot-number": lambda c: _eval(c, {"robot": 3}),
    "flow-json-without-positions": lambda c: _plan_rigid(
        c, c.write({"version": 1, "frames": 2, "points": 1}, "f.json")),
    "flow-json-list": lambda c: _plan_rigid(c, c.write([1], "f.json")),
    "flow-directory": lambda c: _plan_rigid(c, c.tmp),
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

    @pytest.mark.parametrize("case", ["run-rope-horizon-0", "run-obstacle-list"])
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

    def test_eval_subcommand_matches_pipeline_metrics(self, rigid_config_path,
                                                      tmp_path):
        out = tmp_path / "run"
        assert run_main(["run", "--config", rigid_config_path,
                         "--candidates", 2, "--out-dir", out]) == 0
        eval_out = tmp_path / "regraded"
        assert run_main(["eval", out / "plan", out / "scene",
                         "--out-dir", eval_out]) == 0
        regraded = json.loads((eval_out / "metrics.json").read_text())
        pipeline = json.loads((out / "metrics.json").read_text())
        assert regraded == pipeline

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

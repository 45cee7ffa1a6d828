"""Command-line pipeline driver.

Subcommands: simulate | distill | plan-rigid | plan-deformable | optimize-traj
| eval | run.  Every invocation writes a run manifest (inputs, seed, versions
and a content hash for every output file) into its output directory; stage
wall-clock times go to a separate timings.json so the manifest itself is
byte-reproducible for a fixed seed.

Exit codes: 0 success, 2 missing/malformed configuration or input files,
3 runtime failure.  Errors print a one-line message, never a traceback.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .deformable import (
    MassSpringModel,
    MPCConfig,
    ParticleState,
    build_correspondence,
    mpc_rollout,
)
from .fileio import read_flow, sha256_file, write_flow, write_ppm
from .flow import (
    ActionableFlow,
    FlowCandidate,
    TrackSet,
    calibrate_depth,
    distill_flow,
    render_flow_image,
    score_flow,
    select_candidate,
)
from .geometry import SE3Pose
from .kinematics import (
    IKOptions,
    RobotModel,
    forward_kinematics,
    robot_from_doc,
    robot_to_doc,
    solve_ik,
)
from .rigid import (
    ObjectPoseTrajectory,
    compose_ee_trajectory,
    flow_to_pose_trajectory,
    propose_grasp,
)
from .sim import (
    DEFAULT_SENSOR_NOISE,
    SceneBundle,
    SceneConfig,
    corrupt_flow,
    evaluate_deformable,
    evaluate_rigid,
)
from .trajopt import (
    TrajOptProblem,
    obstacles_from_doc,
    optimize_trajectory,
    problem_from_doc,
    result_to_doc,
)

__all__ = ["ConfigError", "main"]


class ConfigError(Exception):
    """Bad usage, missing file, or malformed configuration (exit code 2)."""


# What a document that parses but does not build into its type raises: a
# wrong type or shape, a missing key, a file it names that cannot be read,
# or a value out of range (Infinity in an integer field overflows).
_MALFORMED = (AttributeError, KeyError, OSError, OverflowError, TypeError, ValueError)


def _load_doc(path, what: str, build):
    """``build`` applied to the JSON document at ``path``.

    Every JSON file named on the command line, or found in a plan directory,
    is read here, so a missing, unparsable or malformed one is always a
    ConfigError (exit 2).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"expected a file, got a directory: {path}") from None
    except ValueError as exc:    # not JSON, or not text at all
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    try:
        return build(doc)
    except _MALFORMED as exc:
        raise ConfigError(f"bad {what} {path}: {exc}") from None


def _obstacles_from_doc(doc) -> tuple:
    """An obstacle file is a list of obstacles or an object holding one."""
    return obstacles_from_doc(doc.get("obstacles", []) if isinstance(doc, dict) else doc)


def _load_flow_file(path) -> ActionableFlow:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such file: {path}")
    if path.is_dir():
        raise ConfigError(f"expected a file, got a directory: {path}")
    try:
        positions, label = read_flow(path)
        return ActionableFlow(np.asarray(positions, dtype=float), label=label)
    except _MALFORMED as exc:  # FlowFormatError is a ValueError
        raise ConfigError(f"bad flow file {path}: {exc}") from None


def _load_bundle(path) -> SceneBundle:
    root = Path(path)
    if not (root / "manifest.json").exists():
        raise ConfigError(f"not a scene bundle (no manifest.json): {root}")
    try:
        return SceneBundle.read(root)
    except _MALFORMED as exc:
        raise ConfigError(f"bad scene bundle {root}: {exc}") from None


def _seed(text: str) -> int:
    """Type of ``--seed``: numpy's generators take only non-negative integers."""
    if not text.isdecimal():
        raise ConfigError(f"--seed must be a non-negative integer, got {text!r}")
    return int(text)


def _check_at_least_one(value: int, flag: str) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1")


def _fixture_path(name: str) -> Path:
    return Path(str(resources.files("nvflow") / "fixtures" / name))


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _doc_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class _Stages:
    """Collects (name, seconds) wall-clock pairs; optionally narrates them."""

    def __init__(self, verbose: bool):
        self.verbose = verbose
        self.timings: list[tuple[str, float]] = []

    def run(self, name: str, fn):
        if self.verbose:
            print(f"[nvflow] {name} ...", file=sys.stderr)
        start = time.perf_counter()
        out = fn()
        self.timings.append((name, time.perf_counter() - start))
        return out


def _finish(out_dir: Path, subcommand: str, seed: int, inputs: dict,
            files: list[str], stages: _Stages) -> None:
    """Write the run manifest and, beside it, the stage timings.

    The manifest holds only reproducible content (inputs, seed, library
    versions, output hashes); wall-clock stage timings go to timings.json so
    re-running with the same seed yields a byte-identical manifest.
    """
    _write_json(out_dir / "run_manifest.json", {
        "version": 1,
        "subcommand": subcommand,
        "config_hash": _doc_hash(inputs),
        "seed": seed,
        "versions": {"nvflow": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "inputs": inputs,
        "files": {rel: sha256_file(out_dir / rel) for rel in sorted(files)},
    })
    _write_json(out_dir / "timings.json", {
        "stages": [[name, sec] for name, sec in stages.timings],
        "total": sum(sec for _, sec in stages.timings),
    })


def _out_dir(args) -> Path:
    if not args.out_dir:
        raise ConfigError("an output directory is required (--out-dir)")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- simulate ----------------------------------------------------------------------

def _do_simulate(config: SceneConfig, seed: int, out: Path,
                 stages: _Stages) -> tuple[SceneBundle, list[str]]:
    """Generate and write a bundle.

    Returns it as ``distill`` will read it back, and the files written: those
    its manifest lists, and the manifest.
    """
    from .sim import generate_scene
    bundle = stages.run("simulate", lambda: generate_scene(config, seed))
    stored = stages.run("write_bundle", lambda: bundle.write(out))
    listed = json.loads((out / "manifest.json").read_text())["files"]
    return stored, [*listed, "manifest.json"]


def cmd_simulate(args) -> None:
    if not args.config:
        raise ConfigError("simulate requires a scene config (--config)")
    config = _load_doc(args.config, "scene config", SceneConfig.from_doc)
    seed = config.seed if args.seed is None else args.seed
    out = _out_dir(args)
    stages = _Stages(args.verbose)
    _, files = _do_simulate(config, seed, out, stages)
    inputs = {"scene_config": _doc_hash(config.to_doc()), "seed": seed}
    _finish(out, "simulate", seed, inputs, files, stages)


# -- distill -----------------------------------------------------------------------

def _candidate_sigmas(count: int) -> list[float]:
    """Noise ladder for the corrupted candidates (count - 1 rungs)."""
    if count <= 1:
        return []
    return [float(s) for s in np.linspace(0.02, 0.15, count - 1)]


def _do_distill(bundle: SceneBundle, out: Path, candidates: int, seed: int,
                stages: _Stages) -> tuple[ActionableFlow, list[str]]:
    """Returns the selected flow as ``flow.nvfl`` stores it, and the files written."""
    intr = bundle.config.intrinsics

    def calibrate():
        scale = calibrate_depth(bundle.depth, bundle.depth_ref)
        tracks = TrackSet(bundle.tracks.positions * scale, bundle.tracks.visible)
        return tracks, scale

    tracks, scale = stages.run("calibrate", calibrate)
    clean = stages.run("distill", lambda: distill_flow(
        tracks, bundle.mask, intr, label=bundle.gt_flow.label))

    def corrupt_ladder():
        flows = [clean]
        for k, sigma in enumerate(_candidate_sigmas(candidates), start=1):
            flows.append(corrupt_flow(clean, sigma=sigma, seed=seed * 1000 + k))
        return flows

    flows = stages.run("corrupt", corrupt_ladder)

    scored = stages.run("score", lambda: [
        FlowCandidate(k, f, score_flow(f, intr)) for k, f in enumerate(flows)])
    selected = select_candidate(scored)

    def write_outputs():
        files = []
        stored = write_flow(out / "flow.nvfl", scored[selected].flow.positions)
        files.append("flow.nvfl")
        for cand in scored:
            rel = f"flow_{cand.candidate_id:02d}.ppm"
            write_ppm(out / rel, render_flow_image(cand.flow, intr,
                                                   candidate_id=cand.candidate_id))
            files.append(rel)
        _write_json(out / "scores.json", {
            "version": 1,
            "selected": scored[selected].candidate_id,
            "depth_scale": scale,
            "candidates": [
                {"id": c.candidate_id, "score": c.score, "keypoints": c.flow.keypoints}
                for c in scored
            ],
        })
        files.append("scores.json")
        return ActionableFlow(stored), files

    return stages.run("write_flow", write_outputs)


def cmd_distill(args) -> None:
    _check_at_least_one(args.candidates, "--candidates")
    bundle = _load_bundle(args.bundle_dir)
    seed = 0 if args.seed is None else args.seed
    out = _out_dir(args)
    stages = _Stages(args.verbose)
    _, files = _do_distill(bundle, out, args.candidates, seed, stages)
    inputs = {"bundle_manifest": sha256_file(Path(args.bundle_dir) / "manifest.json"),
              "candidates": args.candidates, "seed": seed}
    _finish(out, "distill", seed, inputs, files, stages)


# -- rigid planning ----------------------------------------------------------------

def _do_plan_rigid(flow: ActionableFlow, model: RobotModel, obstacles: tuple,
                   out: Path, steps_per_frame: int, seed: int,
                   stages: _Stages) -> list[str]:
    poses = stages.run("poses", lambda: flow_to_pose_trajectory(flow))

    def grasp_stage():
        proposals = propose_grasp(flow.positions[0])
        if not proposals:
            raise RuntimeError("no feasible grasp for this object")
        return proposals[0]

    grasp = stages.run("grasp", grasp_stage)
    ee_targets = compose_ee_trajectory(poses, grasp.grasp_pose)

    def ik_stage():
        options = IKOptions(seed=seed)
        q_start = solve_ik(model, ee_targets[0], options=options)
        q_end = solve_ik(model, ee_targets[-1], seed_config=q_start, options=options)
        return q_start, q_end

    q_start, q_end = stages.run("ik", ik_stage)

    steps = (len(ee_targets) - 1) * steps_per_frame + 1
    problem = TrajOptProblem(model=model, q_start=q_start, q_end=q_end,
                             steps=steps, obstacles=obstacles)
    result = stages.run("optimize", lambda: optimize_trajectory(problem))

    def write_outputs():
        files = []
        ObjectPoseTrajectory(tuple(ee_targets), frame="camera").to_json(out / "ee_traj.json")
        files.append("ee_traj.json")
        result.trajectory.to_csv(out / "joint_traj.csv")
        files.append("joint_traj.csv")
        _write_json(out / "result.json", result_to_doc(result))
        files.append("result.json")
        _write_json(out / "plan.json", {
            "version": 1,
            "robot": robot_to_doc(model),
            "grasp": {**grasp.grasp_pose.to_doc(),
                      "width": grasp.width, "quality": grasp.quality},
            "steps_per_flow_frame": steps_per_frame,
            "flow_frames": flow.frames,
        })
        files.append("plan.json")
        return files

    return stages.run("write_plan", write_outputs)


def cmd_plan_rigid(args) -> None:
    _check_at_least_one(args.steps_per_frame, "--steps-per-frame")
    flow = _load_flow_file(args.flow)
    model = _load_doc(args.robot, "robot model", robot_from_doc)
    obstacles = _load_doc(args.obstacles, "obstacle file",
                          _obstacles_from_doc) if args.obstacles else ()
    seed = 0 if args.seed is None else args.seed
    out = _out_dir(args)
    stages = _Stages(args.verbose)
    files = _do_plan_rigid(flow, model, obstacles, out, args.steps_per_frame,
                           seed, stages)
    inputs = {"flow": sha256_file(args.flow), "robot": sha256_file(args.robot),
              "obstacles": sha256_file(args.obstacles) if args.obstacles else None,
              "steps_per_frame": args.steps_per_frame, "seed": seed}
    _finish(out, "plan-rigid", seed, inputs, files, stages)


# -- deformable planning -----------------------------------------------------------

def _do_plan_deformable(flow: ActionableFlow, model: MassSpringModel,
                        state: ParticleState, out: Path, horizon: int,
                        seed: int, cost_mode: str, stages: _Stages) -> list[str]:
    config = MPCConfig(horizon=horizon, seed=seed)
    correspondence = build_correspondence(flow, state.positions)
    rollout = stages.run("mpc", lambda: mpc_rollout(
        model, state, flow, config, correspondence, cost_mode=cost_mode))

    def write_outputs():
        files = []
        _write_json(out / "actions.json", {
            "version": 1,
            "dt": model.dt,
            "substeps_per_frame": 1,
            "actions": [[float(v) for v in row] for row in rollout.actions],
        })
        files.append("actions.json")
        with open(out / "costs.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "flow_cost"])
            for t, cost in enumerate(rollout.costs):
                writer.writerow([str(t), f"{cost:.9g}"])
        files.append("costs.csv")
        _write_json(out / "final_state.json", rollout.states[-1].to_doc())
        files.append("final_state.json")
        return files

    return stages.run("write_plan", write_outputs)


def cmd_plan_deformable(args) -> None:
    _check_at_least_one(args.horizon, "--horizon")
    flow = _load_flow_file(args.flow)
    model = _load_doc(args.dynamics, "dynamics file", MassSpringModel.from_doc)
    if args.state:
        state = _load_doc(args.state, "particle state", ParticleState.from_doc)
    elif flow.keypoints == model.n_particles:
        state = ParticleState.at_rest(flow.positions[0])
    else:
        raise ConfigError(
            f"--state is required when flow keypoints ({flow.keypoints}) differ "
            f"from model particles ({model.n_particles})")
    if state.count != model.n_particles:
        raise ConfigError(f"state has {state.count} particles, model expects "
                          f"{model.n_particles}")
    seed = 0 if args.seed is None else args.seed
    out = _out_dir(args)
    stages = _Stages(args.verbose)
    files = _do_plan_deformable(flow, model, state, out, args.horizon, seed,
                                args.cost_mode, stages)
    inputs = {"flow": sha256_file(args.flow), "dynamics": sha256_file(args.dynamics),
              "state": sha256_file(args.state) if args.state else None,
              "horizon": args.horizon, "cost_mode": args.cost_mode, "seed": seed}
    _finish(out, "plan-deformable", seed, inputs, files, stages)


# -- standalone trajectory optimization ----------------------------------------------

def cmd_optimize_traj(args) -> None:
    if not args.config:
        raise ConfigError("optimize-traj requires a problem file (--config)")
    problem = _load_doc(args.config, "problem file", lambda doc: problem_from_doc(
        doc, base_dir=Path(args.config).parent))
    out = _out_dir(args)
    stages = _Stages(args.verbose)
    result = stages.run("optimize", lambda: optimize_trajectory(problem))

    def write_outputs():
        result.trajectory.to_csv(out / "joint_traj.csv")
        _write_json(out / "result.json", result_to_doc(result))
        return ["joint_traj.csv", "result.json"]

    files = stages.run("write_result", write_outputs)
    seed = 0 if args.seed is None else args.seed
    inputs = {"problem": sha256_file(args.config), "seed": seed}
    _finish(out, "optimize-traj", seed, inputs, files, stages)


# -- evaluation ---------------------------------------------------------------------

def _read_joint_csv(path) -> np.ndarray:
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    if len(rows) < 3 or not rows[0] or rows[0][0] != "t":
        raise ConfigError(f"bad joint trajectory CSV: {path}")
    try:
        return np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    except ValueError as exc:
        raise ConfigError(f"bad joint trajectory CSV {path}: {exc}") from None


def _plan_from_doc(doc: dict) -> tuple[RobotModel, SE3Pose, int]:
    """The robot, grasp and trajectory steps per flow frame of a rigid plan."""
    return (robot_from_doc(doc["robot"]), SE3Pose.from_doc(doc["grasp"]),
            int(doc["steps_per_flow_frame"]))


def _executed_object_poses(model: RobotModel, grasp: SE3Pose, spf: int,
                           configs: np.ndarray, frames: int) -> ObjectPoseTrajectory:
    """Object poses implied by the executed joint trajectory.

    The grasped object moves rigidly with the gripper, so its pose at flow
    frame t is the forward-kinematics end-effector pose at that frame's
    trajectory index composed with the inverse grasp transform.
    """
    expected = (frames - 1) * spf + 1
    if configs.shape[0] != expected:
        raise ConfigError(f"joint trajectory has {configs.shape[0]} steps, "
                          f"expected {expected} for {frames} flow frames")
    grasp_inv = grasp.inverse()
    poses = []
    for t in range(frames):
        ee, _ = forward_kinematics(model, configs[t * spf])
        poses.append(ee.compose(grasp_inv))
    return ObjectPoseTrajectory(tuple(poses), frame="camera")


def _do_eval(run_dir: Path, bundle: SceneBundle, out: Path, stages: _Stages):
    """Grade a plan directory as the bundle's scene kind asks; writes metrics.json.

    Returns the metrics and the plan files it graded.
    """
    if bundle.config.scene == "rigid":
        graded = ["plan.json", "joint_traj.csv"]
        model, grasp, spf = _load_doc(run_dir / "plan.json", "plan file", _plan_from_doc)
        configs = _read_joint_csv(run_dir / "joint_traj.csv")
        if bundle.gt_poses is None:
            raise ConfigError("ground-truth bundle has no object poses to grade against")

        def grade():
            executed = _executed_object_poses(model, grasp, spf, configs,
                                              bundle.config.frames)
            return evaluate_rigid(executed, bundle.gt_poses)
    else:
        graded = ["final_state.json"]
        final = _load_doc(run_dir / "final_state.json", "particle state",
                          ParticleState.from_doc)
        if bundle.initial_state is None:
            raise ConfigError("ground-truth bundle has no particle state to grade against")

        def grade():
            corr = build_correspondence(bundle.gt_flow, bundle.initial_state.positions)
            return evaluate_deformable(final, bundle.gt_flow, corr)

    metrics = stages.run("evaluate", grade)
    _write_json(out / "metrics.json", metrics.to_doc())
    return metrics, graded


def cmd_eval(args) -> None:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"no such directory: {run_dir}")
    bundle = _load_bundle(args.gt_dir)
    out = _out_dir(args)
    stages = _Stages(args.verbose)
    _, graded = _do_eval(run_dir, bundle, out, stages)
    seed = 0 if args.seed is None else args.seed
    inputs = {"gt_manifest": sha256_file(Path(args.gt_dir) / "manifest.json"),
              "graded": {name: sha256_file(run_dir / name) for name in graded},
              "seed": seed}
    _finish(out, "eval", seed, inputs, ["metrics.json"], stages)


# -- full pipeline ------------------------------------------------------------------

def cmd_run(args) -> None:
    """Every option and input file is checked before the first stage runs."""
    if args.config:
        config = _load_doc(args.config, "scene config", SceneConfig.from_doc)
    else:
        config = SceneConfig.rigid_demo(noise=DEFAULT_SENSOR_NOISE)
    _check_at_least_one(args.candidates, "--candidates")
    if config.scene == "rigid":
        _check_at_least_one(args.steps_per_frame, "--steps-per-frame")
        model = _load_doc(args.robot or _fixture_path("arm7.json"), "robot model",
                          robot_from_doc)
        obstacles = _load_doc(args.obstacles or _fixture_path("obstacles_demo.json"),
                              "obstacle file", _obstacles_from_doc)
    else:
        _check_at_least_one(args.horizon, "--horizon")
    seed = config.seed if args.seed is None else args.seed
    out = _out_dir(args)
    stages = _Stages(args.verbose)

    bundle, scene_files = _do_simulate(config, seed, out / "scene", stages)
    flow, flow_files = _do_distill(bundle, _mkdir(out / "flow"), args.candidates,
                                   seed, stages)

    if config.scene == "rigid":
        plan_files = _do_plan_rigid(flow, model, obstacles, _mkdir(out / "plan"),
                                    args.steps_per_frame, seed, stages)
    else:
        plan_files = _do_plan_deformable(flow, bundle.dynamics, bundle.initial_state,
                                         _mkdir(out / "plan"), args.horizon, seed,
                                         args.cost_mode, stages)

    metrics, _ = _do_eval(out / "plan", bundle, out, stages)

    # Only what this run wrote: files an earlier command left in --out-dir
    # are not hashed into the manifest.
    files = ([f"scene/{rel}" for rel in scene_files]
             + [f"flow/{rel}" for rel in flow_files]
             + [f"plan/{rel}" for rel in plan_files] + ["metrics.json"])
    inputs = {"scene_config": _doc_hash(config.to_doc()),
              "candidates": args.candidates, "seed": seed}
    _finish(out, "run", seed, inputs, files, stages)
    if args.verbose:
        print(f"[nvflow] success={metrics.success}", file=sys.stderr)


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- argument parsing ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=None,
                        help="seed for all randomness (recorded in the manifest)")
    common.add_argument("--out-dir", default=None, help="output directory")
    common.add_argument("--verbose", action="store_true",
                        help="narrate pipeline stages on stderr")

    parser = argparse.ArgumentParser(
        prog="nvflow",
        description="Plan robot motion from 3-d object flow.")
    parser.add_argument("--version", action="version", version=f"nvflow {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("simulate", parents=[common],
                       help="render a synthetic scene bundle from a config")
    p.add_argument("--config", default=None, help="scene config JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("distill", parents=[common],
                       help="distill, score and select an object flow from a bundle")
    p.add_argument("bundle_dir", help="scene bundle directory")
    p.add_argument("--candidates", type=int, default=1,
                   help="candidate count: the clean flow plus N-1 corrupted rungs")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("plan-rigid", parents=[common],
                       help="plan a grasp-and-carry joint trajectory from a flow")
    p.add_argument("--flow", required=True, help="flow file (.nvfl or .json)")
    p.add_argument("--robot", required=True, help="robot model JSON")
    p.add_argument("--obstacles", default=None, help="obstacle list JSON")
    p.add_argument("--steps-per-frame", type=int, default=4,
                   help="trajectory steps per flow frame")
    p.set_defaults(func=cmd_plan_rigid)

    p = sub.add_parser("plan-deformable", parents=[common],
                       help="receding-horizon particle control toward a flow")
    p.add_argument("--flow", required=True, help="flow file (.nvfl or .json)")
    p.add_argument("--dynamics", required=True, help="particle model JSON")
    p.add_argument("--state", default=None,
                   help="initial particle state JSON (defaults to the first "
                        "flow frame at rest when counts match)")
    p.add_argument("--horizon", type=int, default=5, help="planning horizon in frames")
    p.add_argument("--cost-mode", choices=("flow", "chamfer_final"), default="flow",
                   help="tracking objective (chamfer_final ignores correspondences)")
    p.set_defaults(func=cmd_plan_deformable)

    p = sub.add_parser("optimize-traj", parents=[common],
                       help="solve one trajectory optimization problem file")
    p.add_argument("--config", default=None, help="trajectory problem JSON")
    p.set_defaults(func=cmd_optimize_traj)

    p = sub.add_parser("eval", parents=[common],
                       help="grade a plan directory against a ground-truth bundle")
    p.add_argument("run_dir", help="directory with plan outputs")
    p.add_argument("gt_dir", help="ground-truth scene bundle directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", parents=[common],
                       help="full pipeline: simulate, distill, plan, evaluate")
    p.add_argument("--config", default=None,
                   help="scene config JSON (default: the rigid demo scene)")
    p.add_argument("--robot", default=None,
                   help="robot model JSON (default: the packaged 7-dof arm)")
    p.add_argument("--obstacles", default=None,
                   help="obstacle list JSON (default: the packaged demo obstacle)")
    p.add_argument("--candidates", type=int, default=8,
                   help="flow candidates to score during distillation")
    p.add_argument("--steps-per-frame", type=int, default=4,
                   help="trajectory steps per flow frame (rigid scenes)")
    p.add_argument("--horizon", type=int, default=5,
                   help="planning horizon in frames (rope scenes)")
    p.add_argument("--cost-mode", choices=("flow", "chamfer_final"), default="flow",
                   help="tracking objective for rope scenes")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)    # a bad --seed raises ConfigError here
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 2
        args.func(args)
    except ConfigError as exc:
        print(f"nvflow: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"nvflow: error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

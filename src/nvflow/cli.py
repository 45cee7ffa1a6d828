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
import contextlib
import csv
import functools
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
from .fileio import read_flow, read_json, sha256_file, write_flow, write_json, write_ppm
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
from .geometry import CameraIntrinsics, SE3Pose, _doc_fields, _int
from .kinematics import (
    IKOptions,
    RobotModel,
    forward_kinematics,
    read_joint_csv,
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


# What reading a malformed input file raises: a wrong type or shape, a
# missing key, a file it names that cannot be read or parsed, a value out
# of range (Infinity in an integer field overflows), a CSV field past the
# csv module's limit, or a document nested too deep to build.
_MALFORMED = (AttributeError, KeyError, OSError, OverflowError, TypeError, ValueError,
              csv.Error, RecursionError)


def _load(path, what: str, read):
    """``read(path)``: the ``what`` the file or bundle at ``path`` holds.

    Every input a command reads goes through here, so a missing, unparsable
    or malformed one is always a ConfigError (exit 2).  A missing file or a
    directory is named as the file that failed, which may be one that the
    input at ``path`` names, and so is a JSON file that does not parse.  A
    message that already names ``path`` as the file that failed, as
    ``read_json``'s does, is not prefixed with it again.
    """
    path = Path(path)
    try:
        return read(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"no such file: {exc.filename}") from None
    except IsADirectoryError as exc:
        raise ConfigError(f"expected a file, got a directory: {exc.filename}") from None
    except _MALFORMED as exc:
        if f" {path}: " in f" {exc}":
            raise ConfigError(str(exc)) from None
        raise ConfigError(f"bad {what} {path}: {exc}") from None


def _load_doc(path, what: str, build):
    """``build`` applied to the JSON document at ``path``."""
    return _load(path, what, lambda file: build(read_json(file)))


def _obstacles_from_doc(doc) -> tuple:
    """An obstacle file is an object holding a list of ``obstacles``, with an
    optional ``description``."""
    return _doc_fields(doc, {"obstacles": obstacles_from_doc},
                       extra=("description",)).get("obstacles", ())


def _load_flow_file(path) -> ActionableFlow:
    return _load(path, "flow file", lambda file: ActionableFlow(*read_flow(file)))


def _seed(text: str) -> int:
    """Type of ``--seed``: numpy's generators take only non-negative integers."""
    if not text.isdecimal():
        raise ConfigError(f"--seed must be a non-negative integer, got {text!r}")
    return int(text)


def _check_at_least_one(value: int, flag: str) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1")


def _check_collision_model(model: RobotModel, obstacles) -> None:
    """Obstacles need a robot with collision spheres: without them the
    collision term would read 0 whatever the motion."""
    if obstacles and not model.collision_spheres:
        raise ConfigError("obstacles are given, but the robot has no collision spheres")


def _rigid_inputs(steps_per_frame: int, robot, obstacles) -> tuple[RobotModel, tuple]:
    """The robot and obstacles the rigid planner reads, with its options
    checked; no obstacle file means no obstacles."""
    _check_at_least_one(steps_per_frame, "--steps-per-frame")
    model = _load_doc(robot, "robot model", robot_from_doc)
    obstacles = _load_doc(obstacles, "obstacle file",
                          _obstacles_from_doc) if obstacles else ()
    _check_collision_model(model, obstacles)
    return model, obstacles


def _fixture_path(name: str) -> Path:
    return Path(str(resources.files("nvflow") / "fixtures" / name))


def _doc_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class _Stages:
    """Collects (name, seconds) wall-clock pairs; optionally narrates them.

    ``with stages("distill"):`` times its block; a block that raises records
    nothing.
    """

    def __init__(self, verbose: bool):
        self.verbose = verbose
        self.timings: list[tuple[str, float]] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        if self.verbose:
            print(f"[nvflow] {name} ...", file=sys.stderr)
        start = time.perf_counter()
        yield
        self.timings.append((name, time.perf_counter() - start))


def _finish(out_dir: Path, subcommand: str, seed: int, inputs: dict,
            files: list[str], stages: _Stages, digests: dict | None = None) -> None:
    """Write the run manifest and, beside it, the stage timings.

    The manifest holds only reproducible content (inputs, which record
    ``seed`` too, seed, library versions, output hashes); wall-clock stage
    timings go to timings.json so re-running with the same seed yields a
    byte-identical manifest.
    ``digests`` gives the sha256 of files already hashed, a scene bundle's
    as its manifest lists them; only the other files are read and hashed.
    """
    digests = digests or {}
    inputs = {**inputs, "seed": seed}
    write_json(out_dir / "run_manifest.json", {
        "version": 1,
        "subcommand": subcommand,
        "config_hash": _doc_hash(inputs),
        "seed": seed,
        "versions": {"nvflow": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "inputs": inputs,
        "files": {rel: digests.get(rel) or sha256_file(out_dir / rel)
                  for rel in sorted(files)},
    })
    write_json(out_dir / "timings.json", {
        "stages": [[name, sec] for name, sec in stages.timings],
        "total": sum(sec for _, sec in stages.timings),
    })


def _out_path(path) -> Path:
    """``path`` as a Path; ``--out-dir`` may not be left out."""
    if not path:
        raise ConfigError("an output directory is required (--out-dir)")
    return Path(path)


def _out_dir(path) -> Path:
    """``path``, created if it does not exist; ``--out-dir`` may not be left out."""
    out = _out_path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- simulate ----------------------------------------------------------------------

def _do_simulate(config: SceneConfig, seed: int, out: Path,
                 stages: _Stages) -> tuple[SceneBundle, dict[str, str]]:
    """Generate and write a bundle.

    Returns it as ``distill`` will read it back, and the sha256 of each file
    its manifest lists, as listed there; the manifest itself is written too.
    """
    from .sim import generate_scene   # looked up per call, so a patched sim.generate_scene is seen
    with stages("simulate"):
        bundle = generate_scene(config, seed)
    with stages("write_bundle"):
        return bundle.write(out)


def cmd_simulate(args, stages: _Stages) -> None:
    if not args.config:
        raise ConfigError("simulate requires a scene config (--config)")
    config = _load_doc(args.config, "scene config", SceneConfig.from_doc)
    seed = config.seed if args.seed is None else args.seed
    out = _out_dir(args.out_dir)
    _, digests = _do_simulate(config, seed, out, stages)
    inputs = {"scene_config": _doc_hash(config.to_doc())}
    _finish(out, "simulate", seed, inputs, [*digests, "manifest.json"], stages, digests)


# -- distill -----------------------------------------------------------------------

def _candidate_sigmas(count: int) -> list[float]:
    """Noise ladder for the corrupted candidates (count - 1 rungs)."""
    if count <= 1:
        return []
    return [float(s) for s in np.linspace(0.02, 0.15, count - 1)]


def _calibrate(bundle: SceneBundle, stages: _Stages) -> tuple[TrackSet, float]:
    """The calibrate stage: the bundle's depth scale, and its tracks times it.

    No later stage reads the depth maps, so a caller lets go of the bundle
    once this returns.
    """
    with stages("calibrate"):
        scale = calibrate_depth(bundle.depth, bundle.depth_ref)
        return TrackSet(bundle.tracks.positions * scale, bundle.tracks.visible), scale


def _do_distill(tracks: TrackSet, mask: np.ndarray, intr: CameraIntrinsics, label: str,
                scale: float, out: Path, candidates: int, seed: int,
                stages: _Stages) -> tuple[ActionableFlow, list[str]]:
    """Distill the flow from the calibrated ``tracks``, then corrupt, score,
    select and write it; ``scale`` is the depth scale they were calibrated by.

    Returns the selected flow as ``flow.nvfl`` stores it, and the files
    written.  Once the candidates are scored, only the selected one and the
    rows of scores.json are kept.
    """
    with stages("distill"):
        flows = [distill_flow(tracks, mask, intr, label=label)]
    with stages("corrupt"):
        for k, sigma in enumerate(_candidate_sigmas(candidates), start=1):
            flows.append(corrupt_flow(flows[0], sigma=sigma, seed=seed * 1000 + k))
    with stages("score"):
        scored = [FlowCandidate(k, f, score_flow(f, intr)) for k, f in enumerate(flows)]
    best = scored[select_candidate(scored)]
    rows = [{"id": c.candidate_id, "score": c.score, "keypoints": c.flow.keypoints}
            for c in scored]
    del flows, scored
    image = f"flow_{best.candidate_id:02d}.ppm"
    with stages("write_flow"):
        stored = write_flow(out / "flow.nvfl", best.flow.positions)
        # Only the kept candidate is drawn; scores.json lists every score.
        write_ppm(out / image, render_flow_image(best.flow, intr,
                                                 candidate_id=best.candidate_id))
        write_json(out / "scores.json", {
            "version": 1,
            "selected": best.candidate_id,
            "depth_scale": scale,
            "candidates": rows,
        })
    return ActionableFlow(stored), ["flow.nvfl", image, "scores.json"]


def cmd_distill(args, stages: _Stages) -> None:
    _check_at_least_one(args.candidates, "--candidates")
    bundle = _load(args.bundle_dir, "scene bundle", SceneBundle.read)
    out = _out_dir(args.out_dir)
    tracks, scale = _calibrate(bundle, stages)
    mask, intr, label = bundle.mask, bundle.config.intrinsics, bundle.gt_flow.label
    del bundle
    _, files = _do_distill(tracks, mask, intr, label, scale, out, args.candidates,
                           args.seed, stages)
    inputs = {"bundle_manifest": sha256_file(Path(args.bundle_dir) / "manifest.json"),
              "candidates": args.candidates}
    _finish(out, "distill", args.seed, inputs, files, stages)


# -- rigid planning ----------------------------------------------------------------

def _do_plan_rigid(flow: ActionableFlow, model: RobotModel, obstacles: tuple,
                   out: Path, steps_per_frame: int, seed: int,
                   stages: _Stages) -> list[str]:
    with stages("poses"):
        poses = flow_to_pose_trajectory(flow)
    with stages("grasp"):
        proposals = propose_grasp(flow.positions[0])
        if not proposals:
            raise RuntimeError("no feasible grasp for this object")
    grasp = proposals[0]
    ee_targets = compose_ee_trajectory(poses, grasp.grasp_pose)
    with stages("ik"):
        options = IKOptions(seed=seed)
        q_start = solve_ik(model, ee_targets[0], options=options)
        q_end = solve_ik(model, ee_targets[-1], seed_config=q_start, options=options)

    steps = (len(ee_targets) - 1) * steps_per_frame + 1
    problem = TrajOptProblem(model=model, q_start=q_start, q_end=q_end,
                             steps=steps, obstacles=obstacles)
    with stages("optimize"):
        result = optimize_trajectory(problem)
    with stages("write_plan"):
        ObjectPoseTrajectory(tuple(ee_targets)).to_json(out / "ee_traj.json")
        result.trajectory.to_csv(out / "joint_traj.csv")
        write_json(out / "result.json", result_to_doc(result))
        write_json(out / "plan.json", {
            "version": 1,
            "robot": robot_to_doc(model),
            "grasp": {**grasp.grasp_pose.to_doc(),
                      "width": grasp.width, "quality": grasp.quality},
            "steps_per_flow_frame": steps_per_frame,
            "flow_frames": flow.frames,
        })
    return ["ee_traj.json", "joint_traj.csv", "result.json", "plan.json"]


def cmd_plan_rigid(args, stages: _Stages) -> None:
    model, obstacles = _rigid_inputs(args.steps_per_frame, args.robot, args.obstacles)
    flow = _load_flow_file(args.flow)
    out = _out_dir(args.out_dir)
    files = _do_plan_rigid(flow, model, obstacles, out, args.steps_per_frame,
                           args.seed, stages)
    inputs = {"flow": sha256_file(args.flow), "robot": sha256_file(args.robot),
              "obstacles": sha256_file(args.obstacles) if args.obstacles else None,
              "steps_per_frame": args.steps_per_frame}
    _finish(out, "plan-rigid", args.seed, inputs, files, stages)


# -- deformable planning -----------------------------------------------------------

def _do_plan_deformable(flow: ActionableFlow, model: MassSpringModel,
                        state: ParticleState, out: Path, horizon: int,
                        seed: int, cost_mode: str, stages: _Stages) -> list[str]:
    config = MPCConfig(horizon=horizon, seed=seed)
    with stages("mpc"):
        rollout = mpc_rollout(model, state, flow, config, cost_mode=cost_mode)
    with stages("write_plan"):
        write_json(out / "actions.json", {
            "version": 1,
            "dt": model.dt,
            "substeps_per_frame": 1,
            "actions": rollout.actions.tolist(),
        })
        with open(out / "costs.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "flow_cost"])
            for t, cost in enumerate(rollout.costs):
                writer.writerow([str(t), f"{cost:.9g}"])
        write_json(out / "final_state.json", rollout.states[-1].to_doc())
    return ["actions.json", "costs.csv", "final_state.json"]


def cmd_plan_deformable(args, stages: _Stages) -> None:
    _check_at_least_one(args.horizon, "--horizon")
    flow = _load_flow_file(args.flow)
    model = _load_doc(args.dynamics, "dynamics file", MassSpringModel.from_doc)
    state = _load_doc(args.state, "particle state", ParticleState.from_doc)
    if state.count != model.n_particles:
        raise ConfigError(f"state has {state.count} particles, model expects "
                          f"{model.n_particles}")
    out = _out_dir(args.out_dir)
    files = _do_plan_deformable(flow, model, state, out, args.horizon, args.seed,
                                args.cost_mode, stages)
    inputs = {"flow": sha256_file(args.flow), "dynamics": sha256_file(args.dynamics),
              "state": sha256_file(args.state),
              "horizon": args.horizon, "cost_mode": args.cost_mode}
    _finish(out, "plan-deformable", args.seed, inputs, files, stages)


# -- standalone trajectory optimization ----------------------------------------------

def cmd_optimize_traj(args, stages: _Stages) -> None:
    if not args.config:
        raise ConfigError("optimize-traj requires a problem file (--config)")
    problem = _load_doc(args.config, "problem file", functools.partial(
        problem_from_doc, base_dir=Path(args.config).parent))
    _check_collision_model(problem.model, problem.obstacles)
    out = _out_dir(args.out_dir)
    with stages("optimize"):
        result = optimize_trajectory(problem)
    with stages("write_result"):
        result.trajectory.to_csv(out / "joint_traj.csv")
        write_json(out / "result.json", result_to_doc(result))
    inputs = {"problem": sha256_file(args.config)}
    _finish(out, "optimize-traj", args.seed, inputs, ["joint_traj.csv", "result.json"], stages)


# -- evaluation ---------------------------------------------------------------------

def _plan_from_doc(doc: dict) -> tuple[RobotModel, SE3Pose, int]:
    """The robot, grasp and trajectory steps per flow frame of a rigid plan."""
    plan = _doc_fields(doc, {
        "robot": robot_from_doc,
        "grasp": lambda grasp: SE3Pose.from_doc(grasp, extra=("width", "quality")),
        "steps_per_flow_frame": _int}, extra=("version", "flow_frames"))
    return plan["robot"], plan["grasp"], plan["steps_per_flow_frame"]


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
    if configs.shape[1] != model.dof:
        raise ConfigError(f"joint trajectory has {configs.shape[1]} joints, "
                          f"the plan's robot has {model.dof}")
    grasp_inv = grasp.inverse()
    poses = []
    for t in range(frames):
        poses.append(forward_kinematics(model, configs[t * spf]).compose(grasp_inv))
    return ObjectPoseTrajectory(tuple(poses))


def _do_eval(run_dir: Path, config: SceneConfig, gt_flow: ActionableFlow,
             gt_poses: ObjectPoseTrajectory | None, initial_state: ParticleState | None,
             out: Path, stages: _Stages):
    """Grade a plan directory against a scene's ground truth, as its kind asks;
    writes metrics.json.

    A rigid plan is graded against ``gt_poses``, a rope plan against
    ``gt_flow`` from ``initial_state``.  ``out`` is created only once the
    plan files are read and graded, so a malformed plan leaves no output
    directory.  Returns the metrics and the plan files it graded.
    """
    if config.scene == "rigid":
        graded = ["plan.json", "joint_traj.csv"]
        model, grasp, spf = _load_doc(run_dir / "plan.json", "plan file", _plan_from_doc)
        configs = _load(run_dir / "joint_traj.csv", "joint trajectory CSV", read_joint_csv)
        with stages("evaluate"):
            executed = _executed_object_poses(model, grasp, spf, configs, config.frames)
            metrics = evaluate_rigid(executed, gt_poses)
    else:
        graded = ["final_state.json"]
        final = _load_doc(run_dir / "final_state.json", "particle state",
                          ParticleState.from_doc)
        with stages("evaluate"):
            corr = build_correspondence(gt_flow, initial_state.positions)
            metrics = evaluate_deformable(final, gt_flow, corr)
    write_json(_out_dir(out) / "metrics.json", metrics.to_doc())
    return metrics, graded


def cmd_eval(args, stages: _Stages) -> None:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"no such directory: {run_dir}")
    bundle = _load(args.gt_dir, "scene bundle", SceneBundle.read)
    out = _out_path(args.out_dir)
    _, graded = _do_eval(run_dir, bundle.config, bundle.gt_flow, bundle.gt_poses,
                         bundle.initial_state, out, stages)
    inputs = {"gt_manifest": sha256_file(Path(args.gt_dir) / "manifest.json"),
              "graded": {name: sha256_file(run_dir / name) for name in graded}}
    _finish(out, "eval", args.seed, inputs, ["metrics.json"], stages)


# -- full pipeline ------------------------------------------------------------------

def cmd_run(args, stages: _Stages) -> None:
    """Every option and input file is checked before the first stage runs."""
    config = _load_doc(args.config or _fixture_path("scene_rigid_demo.json"),
                       "scene config", SceneConfig.from_doc)
    _check_at_least_one(args.candidates, "--candidates")
    if config.scene == "rigid":
        model, obstacles = _rigid_inputs(
            args.steps_per_frame, args.robot or _fixture_path("arm7.json"),
            args.obstacles or _fixture_path("obstacles_demo.json"))
    else:
        _check_at_least_one(args.horizon, "--horizon")
    seed = config.seed if args.seed is None else args.seed
    out = _out_dir(args.out_dir)

    bundle, scene_digests = _do_simulate(config, seed, out / "scene", stages)
    tracks, scale = _calibrate(bundle, stages)
    # Distilling reads the tracks, the mask and the label, and planning and
    # grading the ground truth; the depth maps go now, before distilling.
    mask, label = bundle.mask, bundle.gt_flow.label
    gt_flow, gt_poses = bundle.gt_flow, bundle.gt_poses
    dynamics, initial_state = bundle.dynamics, bundle.initial_state
    del bundle
    flow, flow_files = _do_distill(tracks, mask, config.intrinsics, label, scale,
                                   _out_dir(out / "flow"), args.candidates, seed, stages)
    del tracks, mask

    if config.scene == "rigid":
        plan_files = _do_plan_rigid(flow, model, obstacles, _out_dir(out / "plan"),
                                    args.steps_per_frame, seed, stages)
    else:
        plan_files = _do_plan_deformable(flow, dynamics, initial_state,
                                         _out_dir(out / "plan"), args.horizon, seed,
                                         args.cost_mode, stages)

    metrics, _ = _do_eval(out / "plan", config, gt_flow, gt_poses, initial_state, out,
                          stages)

    # Only what this run wrote: files an earlier command left in --out-dir
    # are not hashed into the manifest.
    digests = {f"scene/{rel}": digest for rel, digest in scene_digests.items()}
    files = ([*digests, "scene/manifest.json"]
             + [f"flow/{rel}" for rel in flow_files]
             + [f"plan/{rel}" for rel in plan_files] + ["metrics.json"])
    inputs = {"scene_config": _doc_hash(config.to_doc()), "candidates": args.candidates}
    _finish(out, "run", seed, inputs, files, stages, digests)
    if args.verbose:
        print(f"[nvflow] success={metrics.success}", file=sys.stderr)


# -- argument parsing ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    flags = functools.partial(argparse.ArgumentParser, add_help=False)
    # Flags that run shares with a stage subcommand, each declared once, so
    # that the stages chained with default flags give run's bytes.
    flow = flags()
    flow.add_argument("--flow", required=True, help="flow file (.nvfl or .json)")
    candidates = flags()
    candidates.add_argument("--candidates", type=int, default=8,
                            help="flow candidates: the clean flow plus N-1 corrupted rungs")
    rigid = flags()
    rigid.add_argument("--obstacles", default=None,
                       help="obstacle file JSON (run's default: the packaged demo obstacle)")
    rigid.add_argument("--steps-per-frame", type=int, default=4,
                       help="trajectory steps per flow frame (rigid scenes)")
    rope = flags()
    rope.add_argument("--horizon", type=int, default=5,
                      help="planning horizon in frames (rope scenes)")
    rope.add_argument("--cost-mode", choices=("flow", "chamfer_final"), default="flow",
                      help="tracking objective (chamfer_final ignores correspondences)")

    parser = argparse.ArgumentParser(
        prog="nvflow",
        description="Plan robot motion from 3-d object flow.")
    parser.add_argument("--version", action="version", version=f"nvflow {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def common(seed: int | None) -> argparse.ArgumentParser:
        """The flags every subcommand takes, with --seed defaulting to ``seed``: one parent
        per default, as set_defaults on a subcommand would change its parent's action."""
        parent = flags()
        parent.add_argument("--seed", type=_seed,
                            help="seed for all randomness (recorded in the manifest)")
        parent.add_argument("--out-dir", default=None, help="output directory")
        parent.add_argument("--verbose", action="store_true",
                            help="narrate pipeline stages on stderr")
        parent.set_defaults(seed=seed)
        return parent

    # Stages read no scene config, so their seed is 0; simulate and run take the config's.
    stage, configured = common(0), common(None)

    def add(name: str, func, summary: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    p = add("simulate", cmd_simulate, "render a synthetic scene bundle from a config",
            configured)
    p.add_argument("--config", default=None, help="scene config JSON")

    p = add("distill", cmd_distill,
            "distill, score and select an object flow from a bundle", stage, candidates)
    p.add_argument("bundle_dir", help="scene bundle directory")

    p = add("plan-rigid", cmd_plan_rigid,
            "plan a grasp-and-carry joint trajectory from a flow", stage, flow, rigid)
    p.add_argument("--robot", required=True, help="robot model JSON")

    p = add("plan-deformable", cmd_plan_deformable,
            "receding-horizon particle control toward a flow", stage, flow, rope)
    p.add_argument("--dynamics", required=True, help="particle model JSON")
    p.add_argument("--state", required=True, help="initial particle state JSON")

    p = add("optimize-traj", cmd_optimize_traj,
            "solve one trajectory optimization problem file", stage)
    p.add_argument("--config", default=None, help="trajectory problem JSON")

    p = add("eval", cmd_eval, "grade a plan directory against a ground-truth bundle", stage)
    p.add_argument("run_dir", help="directory with plan outputs")
    p.add_argument("gt_dir", help="ground-truth scene bundle directory")

    p = add("run", cmd_run, "full pipeline: simulate, distill, plan, evaluate",
            configured, candidates, rigid, rope)
    p.add_argument("--config", default=None,
                   help="scene config JSON (default: the packaged rigid demo scene)")
    p.add_argument("--robot", default=None,
                   help="robot model JSON (default: the packaged 7-dof arm)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)    # a bad --seed raises ConfigError here
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 2
        args.func(args, _Stages(args.verbose))
    except ConfigError as exc:
        print(f"nvflow: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"nvflow: error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

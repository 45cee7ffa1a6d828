"""Output checks made apart from nvflow: plain numpy and the standard library.

Nothing here imports nvflow.  The arm's kinematics, the flow file layout,
the trajectory objective and the tracking cost are re-derived from their
documented definitions, so a fault in the program does not hide itself by
also living in its own check.  Every check function returns a list of
failure strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

CLEARANCE_SLACK = 1e-4  # metres below eps_safe a clearance may sit, as the optimizer allows


# -- readers ---------------------------------------------------------------------

def read_json(path: Path):
    return json.loads(Path(path).read_text())


def read_nvfl(path: Path) -> np.ndarray:
    """Binary flow file: magic ``NVFL``, <u32 version, frames, points>, float32 xyz."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"NVFL":
        raise ValueError(f"{path}: not a flow file")
    _, frames, points = struct.unpack_from("<III", blob, 4)
    data = np.frombuffer(blob, dtype="<f4", count=frames * points * 3, offset=16)
    return data.reshape(frames, points, 3).astype(float)


def read_joint_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


# -- the arm, re-derived from its JSON description ---------------------------------

def _rotation(doc) -> np.ndarray:
    return np.asarray(doc["rotation"], dtype=float).reshape(3, 3)


class Arm:
    """Serial chain of revolute joints: offset, then rotation about the joint axis."""

    def __init__(self, doc: dict):
        base = doc.get("base_pose", {"rotation": np.eye(3).ravel(), "translation": [0, 0, 0]})
        self.base_rot = _rotation(base)
        self.base_pos = np.asarray(base["translation"], dtype=float)
        joints = doc["joints"]
        self.axes = [np.asarray(j["axis"], dtype=float) for j in joints]
        self.origin_rot = [_rotation(j["origin"]) for j in joints]
        self.origin_pos = [np.asarray(j["origin"]["translation"], dtype=float) for j in joints]
        self.q_min = np.array([j["q_min"] for j in joints], dtype=float)
        self.q_max = np.array([j["q_max"] for j in joints], dtype=float)
        self.v_max = np.array([j["velocity_limit"] for j in joints], dtype=float)
        self.ee_rot = _rotation(doc["ee_offset"])
        self.ee_pos = np.asarray(doc["ee_offset"]["translation"], dtype=float)
        spheres = doc.get("collision_spheres", [])
        self.sphere_link = [int(s["link"]) for s in spheres]
        self.sphere_center = [np.asarray(s["center"], dtype=float) for s in spheres]
        self.sphere_radius = np.array([s["radius"] for s in spheres], dtype=float)

    def links(self, q: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-link rotations (B, 3, 3) and origins (B, 3) for configs (B, dof)."""
        q = np.atleast_2d(q)
        rot = np.broadcast_to(self.base_rot, (len(q), 3, 3))
        pos = np.broadcast_to(self.base_pos, (len(q), 3))
        rots, poss = [], []
        for j, axis in enumerate(self.axes):
            pos = pos + rot @ self.origin_pos[j]
            rot = rot @ self.origin_rot[j]
            k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                          [-axis[1], axis[0], 0.0]])
            s = np.sin(q[:, j])[:, None, None]
            c = np.cos(q[:, j])[:, None, None]
            rot = rot @ (np.eye(3) + s * k + (1.0 - c) * (k @ k))
            rots.append(rot)
            poss.append(pos)
        return rots, poss

    def ee_pose(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rots, poss = self.links(q[None])
        return rots[-1][0] @ self.ee_rot, poss[-1][0] + rots[-1][0] @ self.ee_pos

    def sphere_centers(self, q: np.ndarray) -> np.ndarray:
        rots, poss = self.links(q)
        return np.stack([poss[l] + rots[l] @ c
                         for l, c in zip(self.sphere_link, self.sphere_center)], axis=1)


def swept_min_distance(arm: Arm, traj: np.ndarray, obstacles: list[dict],
                       samples: int) -> np.ndarray:
    """Min signed sphere-to-obstacle distance per (segment, obstacle) over the sweep."""
    s = np.linspace(0.0, 1.0, samples)
    swept = traj[:-1, None, :] + s[None, :, None] * np.diff(traj, axis=0)[:, None, :]
    centers = arm.sphere_centers(swept.reshape(-1, traj.shape[1]))
    out = np.empty((len(traj) - 1, len(obstacles)))
    for i, obs in enumerate(obstacles):
        if obs["type"] != "sphere":
            raise ValueError(f"obstacle type {obs['type']!r} is not used by the benchmark")
        d = np.linalg.norm(centers - np.asarray(obs["center"], dtype=float), axis=-1)
        d = d - float(obs["radius"]) - arm.sphere_radius
        out[:, i] = d.reshape(len(traj) - 1, -1).min(axis=1)
    return out


def trajectory_terms(arm: Arm, traj: np.ndarray, problem: dict, obstacles: list[dict]) -> dict:
    """The documented objective C = smooth + rest + limits + velocity + collision."""
    w = {"smooth": 10.0, "rest": 0.1, "limits": 100.0, "collision": 15.0}
    w.update(problem.get("weights", {}))
    q_rest = np.asarray(problem["q_rest"], dtype=float) if "q_rest" in problem \
        else 0.5 * (arm.q_min + arm.q_max)
    dt = float(problem.get("dt", 0.1))
    boundary = float(problem.get("eps_safe", 0.02)) + float(problem.get("collision_pad", 0.005))
    dq = np.diff(traj, axis=0)
    dmin = swept_min_distance(arm, traj, obstacles, int(problem.get("swept_samples", 5)))
    return {
        "smooth": w["smooth"] * float(np.sum(dq ** 2)),
        "rest": w["rest"] * float(np.sum((traj - q_rest) ** 2)),
        "limits": w["limits"] * float(np.sum(np.maximum(traj - arm.q_max, 0.0) ** 2)
                                      + np.sum(np.maximum(arm.q_min - traj, 0.0) ** 2)),
        "velocity": w["limits"] * float(np.sum(
            np.maximum(np.abs(dq) - arm.v_max * dt, 0.0) ** 2)),
        "collision": w["collision"] * float(np.sum(np.maximum(boundary - dmin, 0.0) ** 2)),
    }


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _rotation_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    cos = (np.trace(a @ b.T) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


# -- checks shared by every workload ---------------------------------------------

def check_manifest_hashes(out: Path) -> list[str]:
    """Every file hash in run_manifest.json, recomputed with hashlib."""
    manifest = read_json(out / "run_manifest.json")
    bad = [rel for rel, digest in manifest["files"].items()
           if hashlib.sha256((out / rel).read_bytes()).hexdigest() != digest]
    return [f"hash: {len(bad)} file(s) differ from run_manifest.json, first {bad[0]}"] \
        if bad else []


def check_limits(arm: Arm, traj: np.ndarray, what: str) -> list[str]:
    excess = max(float((traj - arm.q_max).max()), float((arm.q_min - traj).max()))
    return [f"limits: {what} leaves the joint limits by {excess:.3g} rad"] if excess > 0.0 else []


def check_clearance(arm: Arm, traj: np.ndarray, obstacles: list[dict], eps_safe: float,
                    samples: int) -> list[str]:
    """Clearance from a dense sweep, as the optimizer reports it (twice its sampling)."""
    clearance = float(swept_min_distance(arm, traj, obstacles, 2 * samples).min())
    if clearance < eps_safe - CLEARANCE_SLACK:
        return [f"clearance: {clearance:.4g} m below eps_safe {eps_safe}"]
    return []


# -- per-workload checks ----------------------------------------------------------

def check_rigid(out: Path, arm: Arm, obstacles: list[dict]) -> tuple[list[str], dict]:
    """``nvflow run`` on a rigid scene: pose error, clearance, limits, hashes."""
    fails = check_manifest_hashes(out)
    plan = read_json(out / "plan" / "plan.json")
    result = read_json(out / "plan" / "result.json")
    traj = np.asarray(result["trajectory"], dtype=float)
    fails += check_limits(arm, read_joint_csv(out / "plan" / "joint_traj.csv"), "joint_traj.csv")
    fails += check_clearance(arm, traj, obstacles, 0.02, 5)

    # The grasped object rides with the gripper: object = ee * grasp^-1.
    grasp_rot = np.asarray(plan["grasp"]["rotation"], dtype=float).reshape(3, 3)
    grasp_pos = np.asarray(plan["grasp"]["translation"], dtype=float)
    ee_rot, ee_pos = arm.ee_pose(traj[-1])
    obj_rot = ee_rot @ grasp_rot.T
    obj_pos = ee_pos - obj_rot @ grasp_pos
    gt = read_json(out / "scene" / "gt_poses.json")["poses"][-1]
    trans_mm = 1000.0 * float(np.linalg.norm(obj_pos - np.asarray(gt["translation"])))
    rot_deg = _rotation_angle_deg(obj_rot, _rotation(gt))
    if trans_mm > 5.0 or rot_deg > 2.0:
        fails.append(f"pose: final error {trans_mm:.3f} mm / {rot_deg:.3f} deg "
                     "exceeds 5 mm / 2 deg")
    return fails, {"final_cost": float(result["final_cost"]),
                   "final_trans_err_mm": trans_mm, "final_rot_err_deg": rot_deg}


def check_rope(out: Path) -> tuple[list[str], dict]:
    """``nvflow run`` on a rope scene: the straightening property of the method."""
    fails = check_manifest_hashes(out)
    flow = read_nvfl(out / "scene" / "gt_flow.nvfl")
    initial = np.asarray(read_json(out / "scene" / "initial_state.json")["positions"], dtype=float)
    final = np.asarray(read_json(out / "plan" / "final_state.json")["positions"], dtype=float)
    # Each particle is tracked by its nearest first-frame keypoint (lowest index on ties).
    dist = np.linalg.norm(initial[:, None, :] - flow[0][None, :, :], axis=-1)
    goal = flow[-1][dist.argmin(axis=1)]
    initial_cost = float(np.sum((initial - goal) ** 2))
    final_cost = float(np.sum((final - goal) ** 2))
    if not final_cost <= 0.10 * initial_cost:
        fails.append(f"straighten: final cost {final_cost:.4g} above 0.10 x initial "
                     f"{initial_cost:.4g}")
    with open(out / "plan" / "costs.csv", newline="") as handle:
        costs = [float(row[1]) for row in list(csv.reader(handle))[1:]]
    if not costs or not all(math.isfinite(c) for c in costs):
        fails.append("costs: costs.csv is empty or holds a non-finite value")
    return fails, {"final_cost": costs[-1] if costs else math.nan,
                   "track_rmse_mm": 1000.0 * math.sqrt(final_cost / len(final))}


def check_trajopt(out: Path, problem: dict, arm: Arm) -> tuple[list[str], dict]:
    """``nvflow optimize-traj``: endpoints, limits, clearance, objective terms."""
    fails = check_manifest_hashes(out)
    result = read_json(out / "result.json")
    traj = np.asarray(result["trajectory"], dtype=float)
    if traj.shape[0] != problem["steps"] or list(traj[0]) != list(problem["q_start"]) \
            or list(traj[-1]) != list(problem["q_end"]):
        fails.append("endpoints: trajectory endpoints differ from the problem file")
    fails += check_limits(arm, traj, "result trajectory")
    obstacles = problem.get("obstacles", [])
    fails += check_clearance(arm, traj, obstacles, float(problem.get("eps_safe", 0.02)),
                             int(problem.get("swept_samples", 5)))
    terms = trajectory_terms(arm, traj, problem, obstacles)
    for name in ("smooth", "rest"):
        if not _rel_close(terms[name], result["term_costs"][name], 1e-9):
            fails.append(f"terms: recomputed {name} {terms[name]!r} != reported "
                         f"{result['term_costs'][name]!r}")
    objective = sum(terms.values())
    if not _rel_close(objective, result["final_cost"], 1e-6):
        fails.append(f"objective: recomputed {objective!r} != final_cost {result['final_cost']!r}")
    line = np.linspace(0.0, 1.0, problem["steps"])[:, None]
    q_start = np.asarray(problem["q_start"], dtype=float)
    q_end = np.asarray(problem["q_end"], dtype=float)
    start_cost = sum(trajectory_terms(arm, q_start + line * (q_end - q_start),
                                      problem, obstacles).values())
    if not result["final_cost"] <= start_cost:
        fails.append(f"descent: final cost {result['final_cost']:.6g} above the "
                     f"straight-line start {start_cost:.6g}")
    return fails, {"final_cost": float(result["final_cost"])}


def check_repeat(first: bytes, again: bytes) -> list[str]:
    """Same command, same inputs: the run manifest must be byte-identical."""
    return [] if first == again else \
        ["repeat: run_manifest.json differs from an earlier run of the same inputs"]

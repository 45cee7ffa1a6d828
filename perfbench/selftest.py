"""Self-test: each output check accepts a real output and rejects a tampered one.

    python3 perfbench/run.py --self-test

Every workload runs once at reduced size; its output is kept, copied, and
each copy is tampered with in one way.  The check named for that tamper must
report a failure, and the untampered output must pass.  The benchmark's
metric tables are also compared with ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import checks
from workloads import WORKLOADS


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _straight_line(doc: dict) -> None:
    """Replace the trajectory by the straight joint-space line, which hits the obstacle."""
    traj = doc["trajectory"]
    a, b = traj[0], traj[-1]
    n = len(traj) - 1
    doc["trajectory"] = [[x + (y - x) * t / n for x, y in zip(a, b)] for t in range(n + 1)]


def _break_limit(doc: dict) -> None:
    doc["trajectory"][1][0] = 3.5   # every joint of the arm stops short of 3.0 rad


def _changed_hash(out: Path) -> None:
    _edit_json(out / "run_manifest.json",
               lambda d: d["files"].update({next(iter(d["files"])): "0" * 64}))


def _csv_past_limit(out: Path) -> None:
    path = out / "plan" / "joint_traj.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "3.5"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _moved_gt_pose(out: Path) -> None:
    def edit(doc: dict) -> None:
        doc["poses"][-1]["translation"][0] += 0.01
    _edit_json(out / "scene" / "gt_poses.json", edit)


def _scaled_final_state(out: Path) -> None:
    _edit_json(out / "plan" / "final_state.json",
               lambda d: d.update(positions=[[1.5 * v for v in p] for p in d["positions"]]))


def _nan_cost(out: Path) -> None:
    path = out / "plan" / "costs.csv"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].split(",")[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")


def _moved_endpoint(out: Path) -> None:
    def edit(doc: dict) -> None:
        doc["trajectory"][0][0] += 1e-9
    _edit_json(out / "result.json", edit)


def _changed_smooth(out: Path) -> None:
    _edit_json(out / "result.json",
               lambda d: d["term_costs"].update(smooth=d["term_costs"]["smooth"] * (1 + 1e-6)))


def _raised_cost(out: Path) -> None:
    _edit_json(out / "result.json", lambda d: d.update(final_cost=1e9))


TAMPERS = {
    "rigid-pick-place": [
        ("changed file hash", "hash:", _changed_hash),
        ("joint_traj.csv past a joint limit", "limits:", _csv_past_limit),
        ("moved ground-truth final pose", "pose:", _moved_gt_pose),
        ("trajectory through the obstacle", "clearance:",
         lambda out: _edit_json(out / "plan" / "result.json", _straight_line)),
    ],
    "rope-straighten": [
        ("scaled final_state.json", "straighten:", _scaled_final_state),
        ("non-finite cost in costs.csv", "costs:", _nan_cost),
    ],
    "trajopt-long-horizon": [
        ("moved endpoint", "endpoints:", _moved_endpoint),
        ("trajectory past a joint limit", "limits:",
         lambda out: _edit_json(out / "result.json", _break_limit)),
        ("trajectory through the obstacle", "clearance:",
         lambda out: _edit_json(out / "result.json", _straight_line)),
        ("changed smooth term", "terms:", _changed_smooth),
        ("final cost above the straight-line start", "descent:", _raised_cost),
    ],
}


def _check_tables(root: Path, end_to_end: dict, per_layer: dict) -> list[str]:
    doc = json.loads((root / "BENCHMARK.json").read_text())
    fails = []
    for key, table in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        listed = {m["name"]: m["unit"] for m in doc[key]}
        if listed != table:
            fails.append(f"BENCHMARK.json {key} differs from the metrics run.py prints")
    if sorted(w["name"] for w in doc["workloads"]) != sorted(WORKLOADS):
        fails.append("BENCHMARK.json workloads differ from workloads.py")
    return fails


def run(src: Path, work: Path, runner_cls, root: Path, end_to_end: dict,
        per_layer: dict) -> int:
    problems = _check_tables(root, end_to_end, per_layer)
    if checks.check_repeat(b"manifest", b"manifest") or \
            not checks.check_repeat(b"manifest", b"manifesT"):
        problems.append("repeat: the manifest comparison does not tell bytes apart")
    for name, tampers in TAMPERS.items():
        workload = WORKLOADS[name](src, work, seed=0, smoke=True)
        kept = work / f"{name}.kept"
        result = runner_cls(src, work).op(workload, workload.round()[0], keep=kept)
        if result.fails:
            problems.append(f"{name}: the untampered output fails: {'; '.join(result.fails)}")
            continue
        print(f"self-test {name}: untampered output passes")
        for label, prefix, tamper in tampers:
            copy = work / "tampered"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(kept, copy)
            tamper(copy)
            fails, _ = workload.check(copy)
            hit = [f for f in fails if f.startswith(prefix)]
            if hit:
                print(f"self-test {name} / {label}: rejected ({hit[0]})")
            else:
                problems.append(f"{name} / {label}: not rejected by '{prefix}' "
                                f"(failures: {fails})")
    for problem in problems:
        print(f"self-test FAILED {problem}")
    print(f"self-test: {len(problems)} problem(s)")
    return 0 if not problems else 1

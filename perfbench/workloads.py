"""The three workloads: what each runs, in which rounds, and how it is checked.

A round is the fixed list of nvflow commands a run repeats until its time is
up, so every run attempts the same mix.  The benchmark seed orders a round
(``optimize-traj``, which has no randomness, only records it); the nvflow
seeds themselves are fixed sets on which every check passes, so quality
figures are comparable between runs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

import checks

# Screened: nvflow seeds 0-15 all pass every rigid check (largest final error
# 4.3 mm / 0.29 deg, on seed 14); the set keeps four of them.
RIGID_SEEDS = (0, 1, 2, 3)
ROPE_SEEDS = (0, 1)
# The packaged rope scene has 24 frames (about 12 s a command); at 8 a
# 30-second run holds six commands, not two, so its median is steadier.
ROPE_FRAMES = 8
TRAJOPT_STEPS = 241   # the packaged problem has 81; the dense LM solve grows with it


@dataclass(frozen=True)
class Op:
    key: str                # the inputs; equal keys must give byte-identical manifests
    argv: tuple[str, ...]   # nvflow command line without --out-dir


class Workload:
    name = ""

    def __init__(self, src: Path, work: Path, seed: int, smoke: bool = False):
        self.fixtures = src / "nvflow" / "fixtures"
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)

    def round(self) -> list[Op]:
        raise NotImplementedError

    def check(self, out: Path) -> tuple[list[str], dict]:
        raise NotImplementedError


class RigidPickPlace(Workload):
    """Every rigid module; time spread over rendering, scene I/O and LM; no deformables."""

    name = "rigid-pick-place"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seeds = RIGID_SEEDS[:1] if self.smoke else RIGID_SEEDS
        self.candidates = 2 if self.smoke else 8
        self.arm = checks.Arm(checks.read_json(self.fixtures / "arm7.json"))
        self.obstacles = checks.read_json(self.fixtures / "obstacles_demo.json")["obstacles"]

    def _op(self, seed: int) -> Op:
        return Op(f"seed {seed}", ("run", "--seed", str(seed),
                                   "--candidates", str(self.candidates)))

    def round(self) -> list[Op]:
        order = list(self.seeds)
        self.rng.shuffle(order)
        # The closing repeat of the first seed checks byte-identical manifests.
        return [self._op(s) for s in order] + [self._op(self.seeds[0])]

    def check(self, out: Path) -> tuple[list[str], dict]:
        return checks.check_rigid(out, self.arm, self.obstacles)


class RopeStraighten(Workload):
    """CEM over the batched spring step dominates; no LM or IK, rendering about 1%."""

    name = "rope-straighten"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seeds = ROPE_SEEDS[:1] if self.smoke else ROPE_SEEDS
        doc = checks.read_json(self.fixtures / "scene_rope.json")
        doc["frames"] = 8 if self.smoke else ROPE_FRAMES
        self.config = self.work / f"scene_rope_{doc['frames']}.json"
        self.config.write_text(json.dumps(doc, indent=2))
        self.extra: tuple[str, ...] = ("--horizon", "2") if self.smoke else ()

    def round(self) -> list[Op]:
        order = list(self.seeds)
        self.rng.shuffle(order)
        return [Op(f"seed {s}", ("run", "--config", str(self.config), "--seed", str(s))
                   + self.extra) for s in order]

    def check(self, out: Path) -> tuple[list[str], dict]:
        return checks.check_rope(out)


class TrajoptLongHorizon(Workload):
    """The dense LM solve dominates and grows with the horizon; no flow or scene I/O."""

    name = "trajopt-long-horizon"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.problem = checks.read_json(self.fixtures / "trajopt_fixture.json")
        self.problem["steps"] = 41 if self.smoke else TRAJOPT_STEPS
        self.problem["robot"] = os.path.relpath(self.fixtures / self.problem["robot"],
                                                self.work)
        self.path = self.work / f"trajopt_{self.problem['steps']}.json"
        self.path.write_text(json.dumps(self.problem, indent=2))
        self.arm = checks.Arm(checks.read_json(self.fixtures / "arm7.json"))

    def round(self) -> list[Op]:
        return [Op("problem", ("optimize-traj", "--config", str(self.path),
                               "--seed", str(self.seed)))]

    def check(self, out: Path) -> tuple[list[str], dict]:
        return checks.check_trajopt(out, self.problem, self.arm)


WORKLOADS = {w.name: w for w in (RigidPickPlace, RopeStraighten, TrajoptLongHorizon)}

"""Deformable-object tracking: mass-spring dynamics and sampling-based MPC.

A deformable object is a particle set with spring edges; a gripper drags a
subset of "attached" particles by a bounded 3-d delta per frame.  Planning is
receding-horizon: at every frame a cross-entropy method (CEM) searches action
sequences whose simulated rollouts stay close to the keypoint flow, and only
the first action is executed.

The per-frame tracking objective is the summed squared distance between
particles and their corresponded flow keypoints; a correspondence-free
symmetric Chamfer objective against the final flow frame is provided as the
baseline it is compared against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flow import ActionableFlow
from .geometry import _doc_fields, _doc_list, _float, _floats, _frozen, _int

__all__ = [
    "DegenerateEdgeError",
    "ParticleState",
    "MassSpringModel",
    "Correspondence",
    "MPCConfig",
    "RolloutResult",
    "mass_spring_step",
    "flow_cost",
    "chamfer_cost",
    "build_correspondence",
    "plan_actions",
    "mpc_rollout",
]


class DegenerateEdgeError(RuntimeError):
    """Two particles joined by a spring (near-)coincide; forces are undefined."""


@dataclass(frozen=True, eq=False)
class ParticleState:
    positions: np.ndarray    # (N, 3) meters
    velocities: np.ndarray   # (N, 3) m/s

    def __post_init__(self) -> None:
        pos = _frozen(self.positions)
        vel = _frozen(self.velocities)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if vel.shape != pos.shape:
            raise ValueError(f"velocities shape {vel.shape} does not match positions")
        if not (np.isfinite(pos).all() and np.isfinite(vel).all()):
            raise ValueError("particle state contains non-finite values")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    def to_doc(self) -> dict:
        return {"positions": self.positions.tolist(),
                "velocities": self.velocities.tolist()}

    @classmethod
    def from_doc(cls, doc: dict) -> "ParticleState":
        return cls(**_doc_fields(doc, {"positions": _floats, "velocities": _floats}))

    @classmethod
    def at_rest(cls, positions: np.ndarray) -> "ParticleState":
        pos = np.asarray(positions, dtype=float)
        return cls(pos, np.zeros_like(pos))

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class MassSpringModel:
    """Particle-spring dynamics integrated with semi-implicit Euler substeps.

    Spring force on particle i from edge (i, j) is k (|d| - L0) d_hat with
    d = p_j - p_i, plus a linear velocity drag -c v per particle.  Attached
    particles ignore forces and move kinematically by the commanded delta,
    spread uniformly over substeps.  Pinned particles are clamped in place
    (a fixture holding part of the object).  There is no gravity and no
    ground plane: the rope scenes' models live in the camera frame, where +z
    points at the table (``sim.CAMERA_IN_WORLD``), so a pull along -z would
    lift the rope toward the camera and a floor on z would bound its depth.
    """

    n_particles: int
    edges: np.ndarray           # (E, 2) int particle indices
    rest_lengths: np.ndarray    # (E,) meters
    stiffness: float = 500.0    # N/m
    damping: float = 1.0        # N s/m
    mass: float = 0.01          # kg per particle
    dt: float = 1.0 / 16.0      # seconds per control step
    substeps: int = 20
    attachment: tuple[int, ...] = ()
    pinned: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        edges = _frozen(self.edges, dtype=int)
        rest = _frozen(self.rest_lengths)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be (E, 2), got {edges.shape}")
        if rest.shape != (edges.shape[0],):
            raise ValueError("one rest length per edge is required")
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if edges.size and (edges.min() < 0 or edges.max() >= self.n_particles):
            raise ValueError("edge indices out of range")
        if edges.size and (edges[:, 0] == edges[:, 1]).any():
            raise ValueError("self-edges are not allowed")
        if not (np.isfinite(rest).all() and (rest > 0.0).all()):
            raise ValueError("rest lengths must be positive and finite")
        # Every comparison with NaN is false, so the range checks below and
        # the stability check would let a non-finite scalar through.
        if not np.isfinite([self.stiffness, self.damping, self.mass, self.dt]).all():
            raise ValueError("stiffness, damping, mass and dt must be finite")
        if self.stiffness < 0.0 or self.damping < 0.0:
            raise ValueError("stiffness and damping must be non-negative")
        if self.mass <= 0.0 or self.dt <= 0.0 or self.substeps < 1:
            raise ValueError("mass and dt must be positive, substeps >= 1")
        attachment = tuple(int(i) for i in self.attachment)
        pinned = tuple(int(i) for i in self.pinned)
        if any(not 0 <= i < self.n_particles for i in attachment + pinned):
            raise ValueError("attachment or pinned indices out of range")
        if set(attachment) & set(pinned):
            raise ValueError("a particle cannot be both attached and pinned")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "rest_lengths", rest)
        object.__setattr__(self, "attachment", attachment)
        object.__setattr__(self, "pinned", pinned)
        self._check_stable()

    def _check_stable(self) -> None:
        """Reject a substep that makes semi-implicit Euler unstable.

        Linearized, each mode of the free particles is a damped oscillator of
        stiffness k * lam, with lam an eigenvalue of the edge-graph Laplacian
        restricted to free particles (attached and pinned ones are fixed).  One
        substep of length h then has characteristic polynomial
        z^2 - (2 - a - b) z + (1 - a), with a = h c / m and b = h^2 k lam / m,
        and Jury's criterion makes it stable iff a < 2 and b < 4 - 2 a.
        """
        h = self.dt / self.substeps
        a = h * self.damping / self.mass
        if a >= 2.0:
            raise ValueError(
                f"unstable integrator: h*c/m = {a:.4g} must be < 2 "
                f"(h = dt/substeps = {h:.4g} s); raise substeps")
        free = np.ones(self.n_particles, dtype=bool)
        free[list(self.attachment + self.pinned)] = False
        lam_max = 0.0
        if self.edges.size and free.any():
            inc = self.incidence()[free]
            lam_max = float(np.linalg.eigvalsh(inc @ inc.T)[-1])
        b = h * h * self.stiffness * lam_max / self.mass
        if b >= 4.0 - 2.0 * a:
            raise ValueError(
                f"unstable integrator: h^2*k*lambda_max(L_free)/m = {b:.4g} must be "
                f"< 4 - 2*h*c/m = {4.0 - 2.0 * a:.4g} (h = dt/substeps = {h:.4g} s); "
                f"raise substeps or lower stiffness")

    def to_doc(self) -> dict:
        return {
            "n_particles": self.n_particles,
            "edges": [[int(i), int(j)] for i, j in self.edges],
            "rest_lengths": [float(x) for x in self.rest_lengths],
            "stiffness": self.stiffness,
            "damping": self.damping,
            "mass": self.mass,
            "dt": self.dt,
            "substeps": self.substeps,
            "attachment": list(self.attachment),
            "pinned": list(self.pinned),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "MassSpringModel":
        return cls(**_doc_fields(doc, {
            "n_particles": _int,
            "edges": lambda edges: np.array([_edge(e) for e in _doc_list(edges)],
                                            dtype=int).reshape(-1, 2),
            "rest_lengths": _floats,
            "stiffness": _float, "damping": _float, "mass": _float, "dt": _float,
            "substeps": _int, "attachment": _indices, "pinned": _indices,
        }))

    def incidence(self) -> np.ndarray:
        """Dense (N, E) incidence matrix: -1 at the edge tail, +1 at its head."""
        inc = np.zeros((self.n_particles, self.edges.shape[0]))
        inc[self.edges[:, 0], np.arange(self.edges.shape[0])] = -1.0
        inc[self.edges[:, 1], np.arange(self.edges.shape[0])] = 1.0
        return inc

    @cached_property
    def _signed_slots(self) -> np.ndarray:
        """Each particle's incident edges as a padded (N, D) table of rows of a
        (2E + 1)-row signed force buffer, D the max degree.

        Row e of the buffer holds edge e's force, row E + e its negation and
        row 2E the padding term (edge 0's force times 0.0).  Row i of the table
        names, in increasing edge index, row e where i is edge e's tail and
        row E + e where it is its head, then pads with row 2E.  Summed along a
        row in slot order, the named terms add the nonzero terms of
        ``-incidence() @ edge_force`` in the order the dense product adds
        them.  Only models with edges use it.
        """
        n_edges = self.edges.shape[0]
        ends = self.edges.T.ravel()            # tails, then heads: buffer rows 0..2E-1
        order = np.lexsort((np.tile(np.arange(n_edges), 2), ends))   # by particle, then edge
        particle = ends[order]
        degree = np.bincount(ends, minlength=self.n_particles)
        first = np.cumsum(degree) - degree
        slots = np.full((self.n_particles, int(degree.max()) if n_edges else 0), 2 * n_edges)
        slots[particle, np.arange(ends.size) - first[particle]] = order
        return slots


def _edge(doc) -> tuple[int, int]:
    """A JSON array of two particle indices."""
    pair = _doc_list(doc)
    if len(pair) != 2:
        raise ValueError(f"an edge is two particle indices, got {doc!r}")
    return _int(pair[0]), _int(pair[1])


def _indices(doc) -> tuple[int, ...]:
    return tuple(_int(i) for i in _doc_list(doc))


def _step_batch(model: MassSpringModel, positions: np.ndarray, velocities: np.ndarray,
                deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a batch of states one control step.

    Takes (B, N, 3) positions and velocities and (B, 3) gripper deltas, and
    returns new C-contiguous (B, N, 3) positions and velocities with a (B,)
    mask of dead samples.  The substeps run on (N, 3, B) copies, batch
    innermost, so that every operation is a contiguous loop over the batch
    rather than numpy's inner loop over a length-3 axis.

    Spring vectors are gathered per edge as ``pos[head] - pos[tail]``.  Edge
    forces are scattered back through the model's incident-edge table: each
    slot's signed term is read from a buffer holding every edge force, its
    negation and the padding term, and the slots are added in slot order from
    +0.0.  That adds the same terms in the same order, from the same +0.0
    start, as the dense product with the (N, E) incidence matrix, so the
    result is bit-identical to it without building one.  The spring length is
    ``sqrt((x^2 + y^2) + z^2)``, in that order, because that is the order in
    which ``np.linalg.norm`` reduces a length-3 axis (``np.add.reduce`` over
    the (E, 3, B) middle axis adds in the same order); any other grouping
    changes the last bit of some lengths.

    A sample with a spring shorter than 1e-9 m is dead: its forces are not
    evaluated (no division by the zero length) and it is frozen at its state
    from the substep where the collapse was seen.
    """
    h = model.dt / model.substeps
    n_edges = model.edges.shape[0]
    ends_of = model.edges.T
    attached = np.array(model.attachment, dtype=np.intp)
    pinned = np.array(model.pinned, dtype=np.intp)
    # np.array copies even where the transpose is already contiguous (B = 1)
    pos = np.array(positions.transpose(1, 2, 0), order="C")
    vel = np.array(velocities.transpose(1, 2, 0), order="C")
    batch = pos.shape[2]
    dead = np.zeros(batch, dtype=bool)
    any_dead = False
    kinematic_vel = (deltas / model.dt).T  # (3, B)
    rest = model.rest_lengths[:, None]
    if n_edges:
        slots = model._signed_slots
        signed = np.empty((2 * n_edges + 1, 3, batch))
        edge_force = signed[:n_edges]
    for _ in range(model.substeps):
        prev_pos, prev_vel = pos, vel
        if n_edges:
            ends = pos[ends_of]            # (2, E, 3, B): tails, then heads
            d = ends[1] - ends[0]
            lengths = np.sqrt(np.add.reduce(d * d, axis=1))
            short = lengths < 1e-9
            if np.count_nonzero(short):
                dead |= short.any(axis=0)
                any_dead = True
                lengths[:, dead] = 1.0   # any nonzero length; dead samples are reset below
            stretch = model.stiffness * (lengths - rest)
            np.multiply((stretch / lengths)[:, None, :], d, out=edge_force)
            np.multiply(edge_force, -1.0, out=signed[n_edges:-1])
            np.multiply(edge_force[0], 0.0, out=signed[-1])
            # (N, D, 3, B) terms, summed over the D slots in order from +0.0
            force = np.add.reduce(signed[slots], axis=1, initial=0.0)
        else:
            force = np.zeros_like(pos)
        force -= model.damping * vel
        vel = vel + (h / model.mass) * force
        vel[attached] = kinematic_vel
        vel[pinned] = 0.0
        pos = pos + h * vel
        if any_dead:
            pos[..., dead] = prev_pos[..., dead]
            vel[..., dead] = prev_vel[..., dead]
    return (np.ascontiguousarray(pos.transpose(2, 0, 1)),
            np.ascontiguousarray(vel.transpose(2, 0, 1)), dead)


def mass_spring_step(model: MassSpringModel, state: ParticleState,
                     delta: np.ndarray) -> ParticleState:
    """One control step: attached particles translate by ``delta``, rest simulate.

    Raises:
        DegenerateEdgeError: when spring endpoints (near-)coincide.
    """
    d = np.asarray(delta, dtype=float)
    if d.shape != (3,):
        raise ValueError(f"action delta must be (3,), got {d.shape}")
    if state.count != model.n_particles:
        raise ValueError(f"state has {state.count} particles, model expects "
                         f"{model.n_particles}")
    pos, vel, dead = _step_batch(model, state.positions[None], state.velocities[None],
                                 d[None])
    if dead[0]:
        raise DegenerateEdgeError("degenerate edge: spring endpoints coincide")
    return ParticleState(pos[0], vel[0])


# -- costs and correspondence ---------------------------------------------------

def flow_cost(state: ParticleState, flow_frame: np.ndarray,
              correspondence: np.ndarray) -> float:
    """Summed squared distance from particles to their corresponded keypoints."""
    target = np.asarray(flow_frame, dtype=float)
    idx = np.asarray(correspondence, dtype=int)
    if idx.shape != (state.count,):
        raise ValueError(f"correspondence must map all {state.count} particles, "
                         f"got shape {idx.shape}")
    if target.ndim != 2 or target.shape[1] != 3:
        raise ValueError(f"flow frame must be (K, 3), got {target.shape}")
    if idx.min() < 0 or idx.max() >= target.shape[0]:
        raise ValueError("correspondence index out of range")
    diff = state.positions - target[idx]
    return float(np.sum(diff ** 2))


def chamfer_cost(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Symmetric Chamfer: mean min squared distance, both directions, summed."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 3 or b.shape[1] != 3:
        raise ValueError("point sets must be (N, 3) and (M, 3)")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("point sets must be non-empty")
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


@dataclass(frozen=True, eq=False)
class Correspondence:
    indices: np.ndarray      # (N,) keypoint index per particle

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", _frozen(self.indices, dtype=int))


def build_correspondence(flow: ActionableFlow, particles: np.ndarray) -> Correspondence:
    """Assign each particle its nearest first-frame keypoint (ties: lowest index)."""
    pts = np.asarray(particles, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"particles must be (N, 3), got {pts.shape}")
    first = flow.positions[0]
    d = np.linalg.norm(pts[:, None, :] - first[None, :, :], axis=-1)
    return Correspondence(d.argmin(axis=1))  # argmin returns the lowest index on ties


# -- planning --------------------------------------------------------------------

@dataclass(frozen=True)
class MPCConfig:
    horizon: int = 5              # flow frames per planning window
    population: int = 64
    elites: int = 8
    iterations: int = 5
    init_std: float = 0.02        # meters, initial action noise
    min_std: float = 1e-4
    action_cap: float = 0.05      # max |delta| per control step, meters
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.elites <= self.population:
            raise ValueError("need 1 <= elites <= population")
        if self.population < 2:
            raise ValueError("population must be >= 2: the zero and mean plans are "
                             "in every population")
        if self.horizon < 1 or self.iterations < 1:
            raise ValueError("horizon and iterations must be positive")
        if self.action_cap <= 0.0 or self.init_std <= 0.0 or self.min_std <= 0.0:
            raise ValueError("action_cap, init_std and min_std must be positive")


def _cap_actions(seqs: np.ndarray, cap: float) -> np.ndarray:
    norms = np.linalg.norm(seqs, axis=-1, keepdims=True)
    scale = np.minimum(1.0, cap / np.maximum(norms, 1e-12))
    return seqs * scale


def _batch_costs(model: MassSpringModel, state: ParticleState, seqs: np.ndarray,
                 targets: np.ndarray, final_goal: np.ndarray | None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative tracking cost of action sequences (B, H, 3) -> (B,).

    Also returns the (B, N, 3) positions and velocities after each
    sequence's first action, the state a rollout executes.  A sequence whose
    rollout collapses a spring costs +inf.
    """
    batch = seqs.shape[0]
    pos = np.broadcast_to(state.positions, (batch,) + state.positions.shape).copy()
    vel = np.broadcast_to(state.velocities, (batch,) + state.velocities.shape).copy()
    costs = np.zeros(batch)
    for j in range(seqs.shape[1]):
        pos, vel, dead = _step_batch(model, pos, vel, seqs[:, j])
        if j == 0:
            first_pos, first_vel = pos, vel
        if final_goal is None:
            diff = pos - targets[j]
            costs += np.sum(diff ** 2, axis=(1, 2))
        else:
            d2 = np.sum((pos[:, :, None, :] - final_goal[None, None, :, :]) ** 2, axis=-1)
            costs += d2.min(axis=2).mean(axis=1) + d2.min(axis=1).mean(axis=1)
        costs[dead] = np.inf
    return costs, first_pos, first_vel


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence takes an int: 32-bit words, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(const: int, mult: int):
    """SeedSequence's running hash constant: (before, after) each multiply."""
    while True:
        following = const * mult & _MASK32
        yield np.uint32(const), np.uint32(following)
        const = following


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _cem_noise(seed: int, t: int, iterations: int, population: int,
               steps: int) -> np.ndarray:
    """Every CEM sample's noise for frame ``t``, (iterations, population, steps, 3).

    Row k >= 2 of iteration i is
    ``np.random.default_rng([seed, t, i, k]).standard_normal((steps, 3))`` bit
    for bit.  Rows 0 and 1, which the zero and mean plans replace, are zero.

    Instead of one ``SeedSequence`` and ``PCG64`` per sample, it runs
    SeedSequence's entropy mixing and ``generate_state(4, np.uint64)`` as
    uint32 array arithmetic over every stream of the frame at once, takes
    PCG64's seeding step ``state = (inc + initstate) * MULT + inc`` in Python
    ints, and sets that state on one generator before each stream's draw.
    The entropy is seed's and t's words, then i's and k's (one word each, as
    any array index is below 2^32), so it is never shorter than the pool of
    four words.  A negative seed raises ``ValueError``, as numpy's does.
    """
    entropy = _uint32_words(seed) + _uint32_words(t)
    noise = np.zeros((iterations, population, steps, 3))
    streams = iterations * (population - 2)
    iteration, sample = np.divmod(np.arange(streams, dtype=np.uint32),
                                  np.uint32(population - 2))
    words = ([np.full(streams, word, dtype=np.uint32) for word in entropy]
             + [iteration, sample + np.uint32(2)])
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[j % 4], constants).astype(np.uint64) for j in range(8)]
    # little-endian word pairs: initstate's high and low halves, then initseq's
    halves = [(state[2 * m] | state[2 * m + 1] << np.uint64(32)).tolist()
              for m in range(4)]
    generator = np.random.default_rng(0)
    bit_generator = generator.bit_generator
    rows = (noise[i, k] for i in range(iterations) for k in range(2, population))
    for row, seed_hi, seed_lo, seq_hi, seq_lo in zip(rows, *halves):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        initstate = seed_hi << 64 | seed_lo
        bit_generator.state = {
            "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": ((inc + initstate) * _PCG64_MULT + inc) & _MASK128,
                      "inc": inc}}
        generator.standard_normal(out=row)
    return noise


def _plan(model: MassSpringModel, state: ParticleState, flow: ActionableFlow,
          t: int, config: MPCConfig, correspondence: Correspondence,
          cost_mode: str) -> tuple[np.ndarray, ParticleState]:
    """``plan_actions``'s plan, with the state its first action leads to.

    That state is the one the planner simulated when it scored the plan, and
    equals ``mass_spring_step(model, state, plan[0])`` bit for bit: a batch
    row of ``_step_batch`` does not depend on the rest of the batch.
    """
    if not 1 <= t < flow.frames:
        raise ValueError(f"frame index t must be in [1, {flow.frames - 1}], got {t}")
    if cost_mode not in ("flow", "chamfer_final"):
        raise ValueError(f"unknown cost mode {cost_mode!r}")
    steps = min(config.horizon, flow.frames - t)
    if cost_mode == "flow":
        targets = flow.positions[t:t + steps][:, correspondence.indices, :]
        final_goal = None
    else:
        targets = np.zeros((steps, 1, 3))
        final_goal = flow.positions[-1]

    mean = np.zeros((steps, 3))
    std = np.full((steps, 3), config.init_std)
    best_seq = np.zeros((steps, 3))
    best_cost = np.inf
    best_next = None
    noise = _cem_noise(config.seed, t, config.iterations, config.population, steps)

    for iteration in range(config.iterations):
        samples = _cap_actions(mean + std * noise[iteration], config.action_cap)
        samples[0] = 0.0                          # the do-nothing plan
        samples[1] = _cap_actions(mean[None], config.action_cap)[0]
        costs, next_pos, next_vel = _batch_costs(model, state, samples, targets,
                                                 final_goal)
        order = np.argsort(costs, kind="stable")
        if costs[order[0]] == np.inf:
            raise DegenerateEdgeError(
                "degenerate edge: every sampled action sequence collapses a spring")
        if costs[order[0]] < best_cost:
            best_cost = float(costs[order[0]])
            best_seq = samples[order[0]].copy()
            best_next = next_pos[order[0]], next_vel[order[0]]
        elite = samples[order[:config.elites]]
        mean = elite.mean(axis=0)
        std = np.maximum(elite.std(axis=0), config.min_std)

    final = _cap_actions(mean[None], config.action_cap)[0]
    final_costs, next_pos, next_vel = _batch_costs(model, state, final[None], targets,
                                                   final_goal)
    if float(final_costs[0]) <= best_cost:
        return final, ParticleState(next_pos[0], next_vel[0])
    if best_next is None:     # no sample ever scored below +inf (NaN costs)
        return best_seq, mass_spring_step(model, state, best_seq[0])
    return best_seq, ParticleState(*best_next)


def plan_actions(model: MassSpringModel, state: ParticleState, flow: ActionableFlow,
                 t: int, config: MPCConfig, correspondence: Correspondence,
                 cost_mode: str = "flow") -> np.ndarray:
    """Plan a gripper action sequence toward flow frames t, t+1, ...

    Returns an (H, 3) sequence of per-frame gripper deltas with H =
    min(horizon, frames - t); the rollout executes only its first action.  The
    zero sequence is injected into every population, so the returned plan
    never costs more than doing nothing.  A sample whose rollout collapses a
    spring costs +inf; when every sample of an iteration does,
    ``DegenerateEdgeError`` is raised.  ``cost_mode="chamfer_final"`` scores
    rollouts against the final flow frame with the symmetric Chamfer distance
    instead of corresponded tracking.

    Deterministic: each sample draws from its own stream, numpy's
    ``default_rng([seed, t, iteration, k])`` for frame index t and sample
    index k, so results do not depend on evaluation order.  All of a frame's
    streams are built in one vectorized seeding pass (``_cem_noise``), not one
    generator per sample.
    """
    return _plan(model, state, flow, t, config, correspondence, cost_mode)[0]


@dataclass(frozen=True, eq=False)
class RolloutResult:
    """What a rollout executed, for a flow of T frames.

    One control step is taken per flow frame: ``actions[t - 1]`` moves the
    gripper from ``states[t - 1]`` to ``states[t]``.
    """

    states: tuple[ParticleState, ...]   # length T (one state per flow frame)
    actions: np.ndarray                 # (T-1, 3) gripper deltas, meters
    costs: np.ndarray                   # (T,) corresponded flow cost per frame

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", _frozen(self.actions))
        object.__setattr__(self, "costs", _frozen(self.costs))


def mpc_rollout(model: MassSpringModel, initial: ParticleState, flow: ActionableFlow,
                config: MPCConfig, correspondence: Correspondence | None = None,
                cost_mode: str = "flow") -> RolloutResult:
    """Receding-horizon rollout across all flow frames.

    At each frame the planner is re-run from the current state and only the
    first action of its plan is executed: the next state is the one the
    planner simulated for that action.  The recorded per-frame cost
    is always the corresponded flow cost, so rollouts under different planning
    objectives stay comparable.  Without a ``correspondence``, each particle
    of ``initial`` is matched to its nearest first-frame keypoint.
    """
    if correspondence is None:
        correspondence = build_correspondence(flow, initial.positions)
    states = [initial]
    actions = np.zeros((flow.frames - 1, 3))
    costs = np.zeros(flow.frames)
    costs[0] = flow_cost(initial, flow.positions[0], correspondence.indices)
    state = initial
    for t in range(1, flow.frames):
        plan, state = _plan(model, state, flow, t, config, correspondence, cost_mode)
        actions[t - 1] = plan[0]
        states.append(state)
        costs[t] = flow_cost(state, flow.positions[t], correspondence.indices)
    return RolloutResult(tuple(states), actions, costs)

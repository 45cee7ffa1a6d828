"""Tests for particle dynamics, tracking costs, and the CEM planner."""

import json
from importlib import resources

import numpy as np
import pytest

from nvflow import deformable
from nvflow.deformable import (
    Correspondence,
    DegenerateEdgeError,
    MassSpringModel,
    MPCConfig,
    ParticleState,
    build_correspondence,
    chamfer_cost,
    flow_cost,
    load_dynamics,
    mass_spring_step,
    mpc_rollout,
    plan_actions,
    save_dynamics,
)
from nvflow.flow import ActionableFlow
from nvflow.sim import SceneConfig, generate_scene


def chain(n=5, spacing=0.1, **overrides):
    """A straight particle chain along x at its spring rest lengths.

    Rest lengths are measured from the positions rather than set to
    ``spacing`` so that the chain is bitwise force-free (0.3 - 0.2 is one
    ulp away from 0.1 in binary floating point).
    """
    positions = np.zeros((n, 3))
    positions[:, 0] = spacing * np.arange(n)
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    rest = np.linalg.norm(np.diff(positions, axis=0), axis=-1)
    model = MassSpringModel(n_particles=n, edges=edges, rest_lengths=rest,
                            **overrides)
    return model, ParticleState.at_rest(positions)


def spring_energy(model: MassSpringModel, state: ParticleState) -> float:
    kinetic = 0.5 * model.mass * float(np.sum(state.velocities ** 2))
    d = state.positions[model.edges[:, 1]] - state.positions[model.edges[:, 0]]
    stretch = np.linalg.norm(d, axis=-1) - model.rest_lengths
    return kinetic + 0.5 * model.stiffness * float(np.sum(stretch ** 2))


def constant_flow(positions: np.ndarray, frames: int) -> ActionableFlow:
    return ActionableFlow(np.tile(positions, (frames, 1, 1)))


def einsum_step(model: MassSpringModel, positions: np.ndarray,
                velocities: np.ndarray, deltas: np.ndarray):
    """Reference control step: springs through the dense (N, E) incidence.

    This is the formulation ``_step_batch`` replaced; the edge gather and the
    incident-edge scatter must reproduce it bit for bit.
    """
    h = model.dt / model.substeps
    inc = model.incidence()
    pos = positions.copy()
    vel = velocities.copy()
    kinematic_vel = deltas / model.dt
    for _ in range(model.substeps):
        if model.edges.size:
            d = np.einsum("ne,bnc->bec", inc, pos)
            lengths = np.linalg.norm(d, axis=-1)
            stretch = model.stiffness * (lengths - model.rest_lengths)
            edge_force = (stretch / lengths)[..., None] * d
            force = np.einsum("ne,bec->bnc", -inc, edge_force)
        else:
            force = np.zeros_like(pos)
        force -= model.damping * vel
        if model.gravity:
            force[..., 2] -= 9.81 * model.mass
        vel = vel + (h / model.mass) * force
        if model.attachment:
            vel[:, list(model.attachment), :] = kinematic_vel[:, None, :]
        if model.pinned:
            vel[:, list(model.pinned), :] = 0.0
        pos = pos + h * vel
        below = pos[..., 2] < model.ground_height
        if below.any():
            pos[..., 2] = np.maximum(pos[..., 2], model.ground_height)
            vel[..., 2] = np.where(below, np.maximum(vel[..., 2], 0.0), vel[..., 2])
    return pos, vel


def packaged_rope_scene(frames=None):
    """The packaged rope scene, optionally cut to fewer frames."""
    doc = json.loads((resources.files("nvflow") / "fixtures" / "scene_rope.json").read_text())
    if frames is not None:
        doc["frames"] = frames
    return generate_scene(SceneConfig.from_doc(doc))


def packaged_rope():
    bundle = packaged_rope_scene()
    return bundle.dynamics, bundle.initial_state.positions


def dense_random_graph(seed=0, n=12):
    """Particle 0 joins every other particle (degree n - 1), plus random edges."""
    rng = np.random.default_rng(seed)
    positions = 0.3 * rng.random((n, 3))
    pairs = {(0, j) for j in range(1, n)}
    for i, j in rng.integers(0, n, size=(3 * n, 2)):
        if i != j:
            pairs.add((int(i), int(j)))        # either orientation, any order
    edges = rng.permutation(sorted(pairs))
    lengths = np.linalg.norm(positions[edges[:, 1]] - positions[edges[:, 0]], axis=-1)
    model = MassSpringModel(n_particles=n, edges=edges,
                            rest_lengths=lengths * rng.uniform(0.8, 1.2, len(edges)),
                            stiffness=20.0, attachment=(1,))
    return model, positions


def gravity_chain():
    """Falls onto the ground plane while its head is dragged down into it."""
    model, state = chain(n=6, gravity=True, ground_height=-0.003,
                         attachment=(0,), pinned=(5,))
    return model, state.positions


def edgeless():
    model = MassSpringModel(n_particles=3, edges=np.zeros((0, 2), dtype=int),
                            rest_lengths=np.zeros(0), gravity=True,
                            ground_height=0.0, attachment=(2,))
    return model, np.array([[0.0, 0.0, 0.01], [0.1, 0.0, 0.2], [0.2, 0.0, 0.0]])


class TestMassSpringStep:
    def test_rest_configuration_is_a_fixed_point(self):
        model, state = chain()
        after = mass_spring_step(model, state, np.zeros(3))
        assert np.array_equal(after.positions, state.positions)
        assert np.array_equal(after.velocities, state.velocities)

    def test_attached_particle_moves_exactly_by_delta(self):
        model = MassSpringModel(n_particles=1, edges=np.zeros((0, 2), dtype=int),
                                rest_lengths=np.zeros(0), attachment=(0,))
        state = ParticleState.at_rest(np.array([[0.2, 0.0, 0.0]]))
        delta = np.array([0.01, 0.0, 0.0])
        after = mass_spring_step(model, state, delta)
        np.testing.assert_allclose(after.positions[0],
                                   state.positions[0] + delta, atol=1e-12)
        again = mass_spring_step(model, after, delta)
        np.testing.assert_allclose(again.positions[0],
                                   state.positions[0] + 2 * delta, atol=1e-12)

    def test_attached_head_drags_a_chain(self):
        model, state = chain(n=4, attachment=(0,))
        s = state
        for _ in range(3):
            s = mass_spring_step(model, s, np.array([0.01, 0.0, 0.0]))
        np.testing.assert_allclose(s.positions[0, 0], 0.03, atol=1e-12)
        assert 0.0 < s.positions[1, 0] - state.positions[1, 0] < 0.03

    def test_pinned_particle_never_moves(self):
        model, state = chain(n=3, attachment=(0,), pinned=(2,))
        s = state
        for _ in range(10):
            s = mass_spring_step(model, s, np.array([0.0, 0.02, 0.0]))
        assert np.array_equal(s.positions[2], state.positions[2])

    def test_energy_drift_stays_under_one_percent(self):
        model = MassSpringModel(n_particles=2, edges=np.array([[0, 1]]),
                                rest_lengths=np.array([0.1]), stiffness=50.0,
                                damping=0.0, mass=0.01, dt=1e-3, substeps=10)
        state = ParticleState.at_rest(np.array([[0.0, 0.0, 0.0],
                                                [0.12, 0.0, 0.0]]))
        e0 = spring_energy(model, state)
        assert e0 > 0
        worst = 0.0
        for step in range(1000):
            state = mass_spring_step(model, state, np.zeros(3))
            if step % 50 == 49:
                worst = max(worst, abs(spring_energy(model, state) - e0) / e0)
        assert worst < 0.01

    def test_gravity_pulls_free_particles_down(self):
        model = MassSpringModel(n_particles=1, edges=np.zeros((0, 2), dtype=int),
                                rest_lengths=np.zeros(0), gravity=True,
                                damping=0.0)
        state = ParticleState.at_rest(np.array([[0.0, 0.0, 0.5]]))
        after = mass_spring_step(model, state, np.zeros(3))
        assert after.positions[0, 2] < 0.5

    def test_ground_plane_clamps_z(self):
        model = MassSpringModel(n_particles=1, edges=np.zeros((0, 2), dtype=int),
                                rest_lengths=np.zeros(0), gravity=True,
                                damping=0.0, ground_height=0.0)
        state = ParticleState.at_rest(np.array([[0.0, 0.0, 0.001]]))
        for _ in range(30):
            state = mass_spring_step(model, state, np.zeros(3))
        assert state.positions[0, 2] >= 0.0

    def test_degenerate_edge_raises(self):
        model = MassSpringModel(n_particles=2, edges=np.array([[0, 1]]),
                                rest_lengths=np.array([0.1]))
        state = ParticleState.at_rest(np.zeros((2, 3)))
        with pytest.raises(DegenerateEdgeError, match="degenerate edge"):
            mass_spring_step(model, state, np.zeros(3))

    def test_action_shape_validation(self):
        model, state = chain()
        with pytest.raises(ValueError, match="delta"):
            mass_spring_step(model, state, np.zeros(2))
        small = ParticleState.at_rest(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="particles"):
            mass_spring_step(model, small, np.zeros(3))


def assert_same_bits(got, want):
    """Equal values and equal bytes: a flipped signed zero fails too."""
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


class TestSpringStepOracle:
    """``_step_batch`` against the dense-incidence step, compared bit for bit."""

    @pytest.mark.parametrize("batch", [1, 64, 256])
    @pytest.mark.parametrize("build", [
        packaged_rope, dense_random_graph, lambda: dense_random_graph(seed=1, n=30),
        gravity_chain, edgeless], ids=["rope", "graph12", "graph30", "gravity", "edgeless"])
    def test_bit_identical_to_einsum_step(self, build, batch):
        model, start = build()
        rng = np.random.default_rng(batch)
        pos = np.broadcast_to(start, (batch,) + start.shape).copy()
        pos += 0.002 * rng.standard_normal(pos.shape)
        vel = 0.01 * rng.standard_normal(pos.shape)
        ref_pos, ref_vel = pos, vel
        for _ in range(6):
            deltas = 0.01 * rng.standard_normal((batch, 3))
            deltas[:, 2] -= 0.004             # drives the gravity chain into the ground
            given = pos.copy(), vel.copy(), deltas.copy()
            new_pos, new_vel, dead = deformable._step_batch(model, pos, vel, deltas)
            for before, after in zip(given, (pos, vel, deltas)):
                assert_same_bits(after, before)      # the caller's arrays are untouched
            pos, vel = new_pos, new_vel
            ref_pos, ref_vel = einsum_step(model, ref_pos, ref_vel, deltas)
            assert not dead.any()
            for out in (pos, vel):
                assert out.shape == (batch, model.n_particles, 3)
                assert out.flags.c_contiguous
            assert_same_bits(pos, ref_pos)
            assert_same_bits(vel, ref_vel)

    def test_read_only_single_state(self):
        """``mass_spring_step`` passes a read-only (1, N, 3) view of its state."""
        model, start = packaged_rope()
        state = ParticleState(start + 0.002, np.full(start.shape, 0.01))
        pos, vel = state.positions[None], state.velocities[None]
        assert not pos.flags.writeable and not vel.flags.writeable
        deltas = np.array([[0.01, -0.004, 0.002]])
        ref_pos, ref_vel = einsum_step(model, pos, vel, deltas)
        out_pos, out_vel, dead = deformable._step_batch(model, pos, vel, deltas)
        assert not dead.any()
        assert_same_bits(out_pos, ref_pos)
        assert_same_bits(out_vel, ref_vel)
        after = mass_spring_step(model, state, deltas[0])
        assert_same_bits(after.positions, ref_pos[0])
        assert_same_bits(after.velocities, ref_vel[0])

    def test_oracle_models_cover_the_cases(self):
        rope, _ = packaged_rope()
        assert rope.incidence().shape == (20, 37)
        graph, _ = dense_random_graph()
        assert graph._incident_edges[0].shape[1] >= 8
        model, start = gravity_chain()
        pos = start[None]
        for _ in range(3):
            pos, _, _ = deformable._step_batch(model, pos, np.zeros_like(pos),
                                               np.array([[0.0, 0.0, -0.004]]))
        assert (pos[0, :, 2] == model.ground_height).any()

    def test_incident_edge_table(self):
        model = MassSpringModel(n_particles=4, edges=np.array([[2, 0], [0, 1], [1, 2]]),
                                rest_lengths=np.ones(3))
        table, signs = model._incident_edges
        assert table.tolist() == [[0, 1], [1, 2], [0, 2], [0, 0]]
        assert signs.tolist() == [[-1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]


def point_on_a_pin(gap):
    """An attached particle ``gap`` meters along x from a pinned one, joined by a spring."""
    model = MassSpringModel(n_particles=2, edges=np.array([[0, 1]]),
                            rest_lengths=np.array([2e-9]), attachment=(0,), pinned=(1,))
    return model, ParticleState.at_rest(np.array([[0.0, 0.0, 0.0], [gap, 0.0, 0.0]]))


class TestDegenerateSamples:
    def test_dead_sample_is_frozen_and_leaves_the_batch_alone(self):
        model, state = point_on_a_pin(2e-9)
        onto_pin = np.array([2e-9, 0.0, 0.0])
        away = np.array([-1e-9, 0.0, 0.0])
        pos = np.stack([state.positions] * 2)
        with np.errstate(divide="raise", invalid="raise"):
            out_pos, out_vel, dead = deformable._step_batch(
                model, pos, np.zeros_like(pos), np.stack([onto_pin, away]))
        assert dead.tolist() == [True, False]
        assert np.isfinite(out_pos).all() and np.isfinite(out_vel).all()
        assert np.linalg.norm(out_pos[0, 1] - out_pos[0, 0]) < 1e-9
        alone = mass_spring_step(model, state, away)
        assert np.array_equal(out_pos[1], alone.positions)
        assert np.array_equal(out_vel[1], alone.velocities)
        with pytest.raises(DegenerateEdgeError, match="degenerate edge"):
            mass_spring_step(model, state, onto_pin)

    def test_planner_survives_a_collapsing_sample(self, monkeypatch):
        model, state = point_on_a_pin(2e-9)
        positions = np.tile(state.positions, (4, 1, 1))
        positions[:, 0, 0] += 1.5e-9 * np.arange(4)   # the flow drags 0 past the pin
        flow = ActionableFlow(positions)
        corr = Correspondence(np.arange(2), 0.0)
        config = MPCConfig(horizon=3, population=32, elites=4, iterations=3,
                           init_std=2e-9, min_std=1e-12, action_cap=1e-8, seed=0)
        batch_costs = deformable._batch_costs
        seen = []

        def spy(*args):
            scored = batch_costs(*args)
            seen.append(scored[0])       # the costs; the first-step states follow
            return scored

        monkeypatch.setattr(deformable, "_batch_costs", spy)
        with np.errstate(divide="raise", invalid="raise"):
            plan = plan_actions(model, state, flow, 1, config, corr)
        scored = np.concatenate(seen)
        assert np.isinf(scored).any() and np.isfinite(scored).any()
        assert np.isfinite(plan).all()
        replay = state
        for delta in plan:       # raises if the returned plan collapses the spring
            replay = mass_spring_step(model, replay, delta)

    def test_planner_raises_when_every_sample_collapses(self):
        model, state = point_on_a_pin(5e-10)
        flow = constant_flow(state.positions, frames=3)
        corr = Correspondence(np.arange(2), 0.0)
        config = MPCConfig(horizon=2, population=8, elites=2, iterations=1)
        with pytest.raises(DegenerateEdgeError, match="every sampled"):
            plan_actions(model, state, flow, 1, config, corr)


class TestModelContainers:
    def test_validation(self):
        no_edges = dict(edges=np.zeros((0, 2), dtype=int), rest_lengths=np.zeros(0))
        with pytest.raises(ValueError, match="self-edges"):
            MassSpringModel(n_particles=2, edges=np.array([[1, 1]]),
                            rest_lengths=np.array([0.1]))
        with pytest.raises(ValueError, match="rest lengths"):
            MassSpringModel(n_particles=2, edges=np.array([[0, 1]]),
                            rest_lengths=np.array([0.0]))
        with pytest.raises(ValueError, match="out of range"):
            MassSpringModel(n_particles=2, edges=np.array([[0, 2]]),
                            rest_lengths=np.array([0.1]))
        with pytest.raises(ValueError, match="attached and pinned"):
            MassSpringModel(n_particles=2, attachment=(0,), pinned=(0,), **no_edges)
        with pytest.raises(ValueError, match="out of range"):
            MassSpringModel(n_particles=2, attachment=(5,), **no_edges)
        with pytest.raises(ValueError, match="particle"):
            MassSpringModel(n_particles=0, **no_edges)
        with pytest.raises(ValueError, match="substeps"):
            MassSpringModel(n_particles=1, substeps=0, **no_edges)

    def test_stability_bound_on_a_pinned_spring(self):
        # One free particle on a spring to a pinned one: L_free = [1], so with
        # no damping the bound is h^2 k / m < 4, i.e. h < 0.00894 s here.
        # dt / 7 (h^2 k / m = 3.99) passes and a small stretch stays bounded
        # over 200 steps, though near the bound it swings about 17x wider;
        # dt / 6 is rejected.
        spring = dict(n_particles=2, edges=np.array([[0, 1]]),
                      rest_lengths=np.array([0.1]), stiffness=500.0, damping=0.0,
                      mass=0.01, dt=1.0 / 16.0, pinned=(0,))
        model = MassSpringModel(substeps=7, **spring)
        state = ParticleState.at_rest(np.array([[0.0, 0.0, 0.0], [0.1001, 0.0, 0.0]]))
        swing = 0.0
        for _ in range(200):
            state = mass_spring_step(model, state, np.zeros(3))
            swing = max(swing, abs(state.positions[1, 0] - 0.1))
        assert swing <= 0.005
        with pytest.raises(ValueError, match=r"h\^2\*k\*lambda_max\(L_free\)/m"):
            MassSpringModel(substeps=6, **spring)
        # Damping alone: h c / m < 2 needs h < 0.02 s at c / m = 100.
        drag = {**spring, "damping": 1.0, "stiffness": 0.0}
        MassSpringModel(substeps=4, **drag)
        with pytest.raises(ValueError, match=r"h\*c/m = 2\.083 must be < 2"):
            MassSpringModel(substeps=3, **drag)

    def test_particle_state_validation(self):
        with pytest.raises(ValueError, match="positions"):
            ParticleState(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="velocities"):
            ParticleState(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            ParticleState(np.full((1, 3), np.nan), np.zeros((1, 3)))

    def test_state_arrays_are_frozen(self):
        state = ParticleState.at_rest(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            state.positions[0, 0] = 1.0

    def test_dynamics_round_trip(self, tmp_path):
        model, _ = chain(n=4, stiffness=123.5, damping=0.25, mass=0.02,
                         dt=0.05, substeps=7, gravity=True, ground_height=-0.5,
                         attachment=(0,), pinned=(3,))
        path = tmp_path / "dynamics.json"
        save_dynamics(model, path)
        back = load_dynamics(path)
        assert back.n_particles == model.n_particles
        assert np.array_equal(back.edges, model.edges)
        assert np.array_equal(back.rest_lengths, model.rest_lengths)
        for field in ("stiffness", "damping", "mass", "dt", "substeps",
                      "gravity", "ground_height", "attachment", "pinned"):
            assert getattr(back, field) == getattr(model, field), field


class TestCosts:
    def test_flow_cost_zero_at_target(self):
        state = ParticleState.at_rest(np.array([[0.1, 0.2, 0.3]]))
        frame = np.array([[0.1, 0.2, 0.3]])
        assert flow_cost(state, frame, np.array([0])) == 0.0

    def test_flow_cost_known_offset(self):
        state = ParticleState.at_rest(np.array([[0.01, 0.0, 0.0]]))
        frame = np.array([[0.0, 0.0, 0.0]])
        assert flow_cost(state, frame, np.array([0])) == pytest.approx(1e-4,
                                                                       rel=1e-12)

    def test_flow_cost_matches_loop_oracle(self, rng):
        state = ParticleState.at_rest(rng.standard_normal((6, 3)))
        frame = rng.standard_normal((9, 3))
        idx = rng.integers(0, 9, size=6)
        expected = 0.0
        for i, k in enumerate(idx):
            diff = state.positions[i] - frame[k]
            expected += float(diff @ diff)
        assert flow_cost(state, frame, idx) == pytest.approx(expected, rel=1e-12)

    def test_flow_cost_validation(self):
        state = ParticleState.at_rest(np.zeros((2, 3)))
        frame = np.zeros((3, 3))
        with pytest.raises(ValueError, match="correspondence"):
            flow_cost(state, frame, np.array([0]))
        with pytest.raises(ValueError, match="out of range"):
            flow_cost(state, frame, np.array([0, 5]))
        with pytest.raises(ValueError, match="flow frame"):
            flow_cost(state, np.zeros((3, 2)), np.array([0, 1]))

    def test_chamfer_identical_sets_cost_zero(self, rng):
        pts = rng.standard_normal((20, 3))
        assert chamfer_cost(pts, pts.copy()) == 0.0

    def test_chamfer_permutation_invariant(self, rng):
        a = rng.standard_normal((15, 3))
        b = rng.standard_normal((30, 3))
        shuffled = b[rng.permutation(30)]
        assert chamfer_cost(a, shuffled) == pytest.approx(chamfer_cost(a, b),
                                                          rel=1e-12)

    def test_chamfer_known_asymmetric_value(self):
        a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 0.0]])
        assert chamfer_cost(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_chamfer_symmetric_in_arguments(self, rng):
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((11, 3))
        assert chamfer_cost(a, b) == pytest.approx(chamfer_cost(b, a), rel=1e-14)

    def test_chamfer_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            chamfer_cost(np.zeros((0, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            chamfer_cost(np.zeros((2, 2)), np.zeros((1, 3)))


class TestBuildCorrespondence:
    def test_identity_when_particles_sit_on_keypoints(self):
        first = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
        flow = constant_flow(first, frames=3)
        corr = build_correspondence(flow, first.copy())
        assert np.array_equal(corr.indices, [0, 1, 2])
        assert corr.total_distance == 0.0

    def test_robust_to_millimetre_noise(self, rng):
        first = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [1.5, 0.0, 0.0]])
        flow = constant_flow(first, frames=2)
        jittered = first + 0.001 * rng.standard_normal(first.shape)
        corr = build_correspondence(flow, jittered)
        assert np.array_equal(corr.indices, [0, 1, 2, 3])
        assert corr.total_distance > 0.0

    def test_tie_breaks_to_lowest_index(self):
        first = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        flow = constant_flow(first, frames=2)
        corr = build_correspondence(flow, np.array([[1.0, 0.0, 0.0]]))
        assert corr.indices[0] == 0

    def test_particle_shape_validation(self):
        flow = constant_flow(np.zeros((2, 3)), frames=2)
        with pytest.raises(ValueError, match="particles"):
            build_correspondence(flow, np.zeros((3, 2)))


def rollout_tracking_cost(model, state, flow, corr, t, plan):
    """Replay an action plan and accumulate per-frame corresponded cost."""
    cost = 0.0
    current = state
    for j in range(plan.shape[0]):
        current = mass_spring_step(model, current, plan[j])
        cost += flow_cost(current, flow.positions[t + j], corr.indices)
    return cost


class TestPlanActions:
    def test_static_flow_keeps_the_gripper_still(self):
        model, state = chain(n=4, attachment=(0,))
        flow = constant_flow(state.positions, frames=4)
        corr = build_correspondence(flow, state.positions)
        config = MPCConfig(horizon=3, population=16, elites=4, iterations=2,
                           seed=0)
        plan = plan_actions(model, state, flow, 1, config, corr)
        assert plan.shape == (3, 3)
        assert np.array_equal(plan, np.zeros((3, 3)))

    def test_recovers_known_straight_line_action(self):
        model = MassSpringModel(n_particles=1, edges=np.zeros((0, 2), dtype=int),
                                rest_lengths=np.zeros(0), attachment=(0,))
        state = ParticleState.at_rest(np.zeros((1, 3)))
        frames = 6
        positions = np.zeros((frames, 1, 3))
        positions[:, 0, 0] = 0.01 * np.arange(frames)
        flow = ActionableFlow(positions)
        corr = build_correspondence(flow, state.positions)
        # A generous search budget: this asserts the planner's optimum, not
        # the default budget's sampling noise.
        config = MPCConfig(population=256, elites=16, iterations=12)
        plan = plan_actions(model, state, flow, 1, config, corr)
        np.testing.assert_allclose(plan[0], [0.01, 0.0, 0.0], atol=1e-3)

    def test_plan_cost_at_most_zero_action_cost(self, rng):
        model, state = chain(n=4, attachment=(0,))
        frames = 5
        walk = np.cumsum(0.01 * rng.standard_normal((frames, 4, 3)), axis=0)
        flow = ActionableFlow(state.positions[None] + walk)
        corr = Correspondence(np.arange(4), 0.0)
        config = MPCConfig(horizon=3, population=16, elites=4, iterations=2,
                           seed=3)
        plan = plan_actions(model, state, flow, 1, config, corr)
        plan_cost = rollout_tracking_cost(model, state, flow, corr, 1, plan)
        zero_cost = rollout_tracking_cost(model, state, flow, corr, 1,
                                          np.zeros_like(plan))
        assert plan_cost <= zero_cost + 1e-9

    def test_actions_respect_the_cap(self, rng):
        model, state = chain(n=4, attachment=(0,))
        target = state.positions + np.array([1.0, 0.0, 0.0])  # far away
        positions = np.stack([state.positions, target, target])
        flow = ActionableFlow(positions)
        corr = Correspondence(np.arange(4), 0.0)
        config = MPCConfig(horizon=2, population=16, elites=4, iterations=3,
                           action_cap=0.05, seed=1)
        plan = plan_actions(model, state, flow, 1, config, corr)
        assert np.all(np.linalg.norm(plan, axis=-1) <= 0.05 + 1e-12)

    def test_deterministic_for_fixed_seed(self):
        model, state = chain(n=4, attachment=(0,))
        positions = np.tile(state.positions, (4, 1, 1))
        positions[:, :, 0] += 0.01 * np.arange(4)[:, None]
        flow = ActionableFlow(positions)
        corr = Correspondence(np.arange(4), 0.0)
        config = MPCConfig(horizon=3, population=16, elites=4, iterations=2,
                           seed=9)
        first = plan_actions(model, state, flow, 1, config, corr)
        second = plan_actions(model, state, flow, 1, config, corr)
        assert np.array_equal(first, second)

    def test_frame_index_validation(self):
        model, state = chain(n=2)
        flow = constant_flow(state.positions, frames=3)
        corr = Correspondence(np.arange(2), 0.0)
        with pytest.raises(ValueError, match="frame index"):
            plan_actions(model, state, flow, 0, MPCConfig(), corr)
        with pytest.raises(ValueError, match="frame index"):
            plan_actions(model, state, flow, 3, MPCConfig(), corr)
        with pytest.raises(ValueError, match="cost mode"):
            plan_actions(model, state, flow, 1, MPCConfig(), corr,
                         cost_mode="bogus")


class TestMPCConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="elites"):
            MPCConfig(population=4, elites=8)
        with pytest.raises(ValueError, match="population must be >= 2"):
            MPCConfig(population=1, elites=1)
        with pytest.raises(ValueError, match="horizon"):
            MPCConfig(horizon=0)
        with pytest.raises(ValueError, match="positive"):
            MPCConfig(init_std=0.0)


def reference_plan(model, state, flow, t, config, correspondence, cost_mode="flow"):
    """The planner drawing each sample into its own row, one stream at a time.

    This is the sampling loop ``plan_actions`` replaced, scoring through the
    same ``_batch_costs``; ``reference_rollout`` replays its first action with
    ``mass_spring_step``.  The planner must reproduce both bit for bit.
    """
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
    for iteration in range(config.iterations):
        samples = np.empty((config.population, steps, 3))
        for k in range(config.population):
            rng = np.random.default_rng([config.seed, t, iteration, k])
            samples[k] = mean + std * rng.standard_normal((steps, 3))
        samples = deformable._cap_actions(samples, config.action_cap)
        samples[0] = 0.0
        samples[1] = deformable._cap_actions(mean[None], config.action_cap)[0]
        costs = deformable._batch_costs(model, state, samples, targets, final_goal)[0]
        order = np.argsort(costs, kind="stable")
        if costs[order[0]] < best_cost:
            best_cost = float(costs[order[0]])
            best_seq = samples[order[0]].copy()
        elite = samples[order[:config.elites]]
        mean = elite.mean(axis=0)
        std = np.maximum(elite.std(axis=0), config.min_std)
    final = deformable._cap_actions(mean[None], config.action_cap)[0]
    final_cost = deformable._batch_costs(model, state, final[None], targets, final_goal)[0]
    return final if float(final_cost[0]) <= best_cost else best_seq


def reference_rollout(model, initial, flow, config, correspondence, cost_mode):
    states, actions = [initial], []
    for t in range(1, flow.frames):
        plan = reference_plan(model, states[-1], flow, t, config, correspondence, cost_mode)
        actions.append(plan[0])
        states.append(mass_spring_step(model, states[-1], plan[0]))
    return states, np.array(actions)


class TestPlannerOracle:
    """The rollout against the per-sample planner and the replayed executed step."""

    @pytest.mark.parametrize("cost_mode", ["flow", "chamfer_final"])
    def test_bit_identical_to_the_reference_rollout(self, cost_mode):
        bundle = packaged_rope_scene(frames=4)
        model, initial, flow = bundle.dynamics, bundle.initial_state, bundle.gt_flow
        corr = build_correspondence(flow, initial.positions)
        config = MPCConfig(horizon=2, seed=3)
        result = mpc_rollout(model, initial, flow, config, corr, cost_mode=cost_mode)
        states, actions = reference_rollout(model, initial, flow, config, corr, cost_mode)
        assert_same_bits(result.actions, actions)
        assert len(result.states) == len(states) == flow.frames
        for got, want in zip(result.states, states):
            assert_same_bits(got.positions, want.positions)
            assert_same_bits(got.velocities, want.velocities)
        for t in range(1, flow.frames):
            replay = mass_spring_step(model, result.states[t - 1], result.actions[t - 1])
            assert_same_bits(result.states[t].positions, replay.positions)
            assert_same_bits(result.states[t].velocities, replay.velocities)
        assert not np.array_equal(result.actions, np.zeros_like(result.actions))

    def test_plan_actions_equals_the_reference_plan(self):
        bundle = packaged_rope_scene(frames=4)
        model, initial, flow = bundle.dynamics, bundle.initial_state, bundle.gt_flow
        corr = build_correspondence(flow, initial.positions)
        config = MPCConfig(horizon=2, population=16, elites=4, iterations=3, seed=8)
        for t in (1, 3):
            assert_same_bits(plan_actions(model, initial, flow, t, config, corr),
                             reference_plan(model, initial, flow, t, config, corr))


class TestMPCRollout:
    @staticmethod
    def drifting_flow(state, frames=4, per_frame=0.005):
        positions = np.tile(state.positions, (frames, 1, 1))
        positions[:, :, 0] += per_frame * np.arange(frames)[:, None]
        return ActionableFlow(positions)

    def test_shapes_and_initial_cost(self):
        model, state = chain(n=4, attachment=(0,))
        flow = self.drifting_flow(state)
        config = MPCConfig(horizon=2, population=16, elites=4, iterations=2,
                           seed=11)
        result = mpc_rollout(model, state, flow, config)
        assert len(result.states) == flow.frames
        assert result.actions.shape == (flow.frames - 1, 3)
        assert result.costs.shape == (flow.frames,)
        corr = build_correspondence(flow, state.positions)
        assert result.costs[0] == flow_cost(state, flow.positions[0],
                                            corr.indices)

    def test_bit_identical_across_runs(self):
        model, state = chain(n=4, attachment=(0,))
        flow = self.drifting_flow(state)
        config = MPCConfig(horizon=2, population=16, elites=4, iterations=2,
                           seed=5)
        a = mpc_rollout(model, state, flow, config)
        b = mpc_rollout(model, state, flow, config)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.costs, b.costs)
        assert np.array_equal(a.states[-1].positions, b.states[-1].positions)

    def test_chamfer_final_mode_reports_corresponded_costs(self):
        model, state = chain(n=4, attachment=(0,))
        flow = self.drifting_flow(state)
        config = MPCConfig(horizon=2, population=16, elites=4, iterations=2,
                           seed=2)
        result = mpc_rollout(model, state, flow, config,
                             cost_mode="chamfer_final")
        assert np.all(np.isfinite(result.costs))
        assert len(result.states) == flow.frames

    def test_tracking_reduces_final_cost_against_doing_nothing(self):
        model, state = chain(n=4, attachment=(0,))
        flow = self.drifting_flow(state, frames=5, per_frame=0.01)
        config = MPCConfig(horizon=3, population=32, elites=6, iterations=3,
                           seed=4)
        result = mpc_rollout(model, state, flow, config)
        corr = build_correspondence(flow, state.positions)
        idle_cost = flow_cost(state, flow.positions[-1], corr.indices)
        assert result.costs[-1] < idle_cost

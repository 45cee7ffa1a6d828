"""Tests for particle dynamics, tracking costs, and the CEM planner."""

import numpy as np
import pytest

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
        with pytest.raises(ValueError, match="horizon"):
            MPCConfig(horizon=0)
        with pytest.raises(ValueError, match="optimizer"):
            MPCConfig(optimizer="adam")
        with pytest.raises(ValueError, match="substeps_per_frame"):
            MPCConfig(substeps_per_frame=0)
        with pytest.raises(ValueError, match="positive"):
            MPCConfig(init_std=0.0)


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

    def test_substeps_multiply_action_count(self):
        model, state = chain(n=4, attachment=(0,))
        flow = self.drifting_flow(state)
        config = MPCConfig(horizon=2, population=16, elites=4, iterations=2,
                           substeps_per_frame=2, seed=11)
        result = mpc_rollout(model, state, flow, config)
        assert result.actions.shape == ((flow.frames - 1) * 2, 3)
        assert len(result.states) == flow.frames

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

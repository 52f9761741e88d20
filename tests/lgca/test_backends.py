"""Backend selection, the stepper contract, and bitplane/reference equivalence.

The load-bearing guarantee of the backend system is that every backend
computes the *same evolution* — the hypothesis properties here drive
both backends for several generations over random states, every
boundary condition, obstacle maps, and every chirality policy, and
require bit-identical trajectories.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lgca.automaton import LatticeGasAutomaton, ObstacleMap
from repro.lgca.backends import (
    BACKENDS,
    BitplaneStepper,
    KernelStepper,
    ReferenceStepper,
    evolve,
    make_stepper,
)
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel
from repro.util.errors import ConfigError

GENERATIONS = 8  # enough for propagation to wrap small lattices


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert BACKENDS == ("bitplane", "reference")

    def test_make_stepper_builds_the_named_class(self):
        model = HPPModel(4, 4)
        assert type(make_stepper(model, backend="reference")) is ReferenceStepper
        assert type(make_stepper(model, backend="bitplane")) is BitplaneStepper

    def test_unknown_backend_lists_choices_sorted(self):
        with pytest.raises(ConfigError, match="bitplane, reference"):
            make_stepper(HPPModel(4, 4), backend="vectorized")

    def test_make_stepper_satisfies_protocol(self):
        model = HPPModel(4, 4)
        for name in ("reference", "bitplane"):
            assert isinstance(make_stepper(model, backend=name), KernelStepper)

    def test_automaton_rejects_unknown_backend(self):
        model = HPPModel(4, 4)
        state = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="unknown backend"):
            LatticeGasAutomaton(model, state, backend="nope")


def _trajectories_equal(model, state, *, obstacles=None):
    """Step both backends side by side; assert bit-identity each generation."""
    ref = LatticeGasAutomaton(model, state, obstacles=obstacles)
    bit = LatticeGasAutomaton(model, state, obstacles=obstacles, backend="bitplane")
    for t in range(GENERATIONS):
        np.testing.assert_array_equal(
            ref.step(), bit.step(), err_msg=f"diverged at generation {t}"
        )
    # the block-run path packs once and steps in plane space throughout
    ref2 = LatticeGasAutomaton(model, state, obstacles=obstacles)
    bit2 = LatticeGasAutomaton(model, state, obstacles=obstacles, backend="bitplane")
    np.testing.assert_array_equal(ref2.run(GENERATIONS), bit2.run(GENERATIONS))


def _state(seed, rows, cols, channels, density=0.35):
    return uniform_random_state(
        rows, cols, channels, density, np.random.default_rng(seed)
    )


# Sizes straddle the 64-column word boundary: below one word, exact,
# one over, and multi-word with a partial tail.
col_strategy = st.sampled_from([3, 17, 63, 64, 65, 100, 130])
boundary_strategy = st.sampled_from(["periodic", "null", "reflecting"])


class TestBitplaneEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(2, 12),
        cols=col_strategy,
        boundary=boundary_strategy,
    )
    def test_hpp(self, seed, rows, cols, boundary):
        model = HPPModel(rows, cols, boundary=boundary)
        _trajectories_equal(model, _state(seed, rows, cols, 4))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.sampled_from([2, 4, 6, 10]),
        cols=col_strategy,
        boundary=boundary_strategy,
        rest=st.booleans(),
    )
    def test_fhp_alternate(self, seed, rows, cols, boundary, rest):
        model = FHPModel(rows, cols, boundary=boundary, rest_particles=rest)
        _trajectories_equal(model, _state(seed, rows, cols, model.num_channels))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        chirality=st.sampled_from(["left", "right"]),
    )
    def test_fhp_fixed_chirality(self, seed, chirality):
        model = FHPModel(6, 65, chirality=chirality)
        _trajectories_equal(model, _state(seed, 6, 65, 6))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rng_seed=st.integers(0, 2**31 - 1),
    )
    def test_fhp_random_chirality(self, seed, rng_seed):
        """Both backends read the same seeded chirality draw."""
        model = FHPModel(6, 70, chirality="random", seed=rng_seed)
        _trajectories_equal(model, _state(seed, 6, 70, 6))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fhp_saturated(self, seed):
        model = FHPModel(6, 66, rest_particles=True, saturated=True)
        _trajectories_equal(model, _state(seed, 6, 66, 7))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        obstacle_seed=st.integers(0, 2**31 - 1),
        boundary=boundary_strategy,
    )
    def test_obstacles(self, seed, obstacle_seed, boundary):
        rows, cols = 8, 67
        mask = np.random.default_rng(obstacle_seed).random((rows, cols)) < 0.15
        model = HPPModel(rows, cols, boundary=boundary)
        _trajectories_equal(model, _state(seed, rows, cols, 4),
                            obstacles=ObstacleMap(mask))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fhp_obstacles(self, seed):
        rows, cols = 8, 64
        mask = np.random.default_rng(seed + 1).random((rows, cols)) < 0.15
        model = FHPModel(rows, cols, rest_particles=True)
        _trajectories_equal(model, _state(seed, rows, cols, 7),
                            obstacles=ObstacleMap(mask))


class TestStepperContracts:
    def test_reference_run_does_not_mutate_input(self):
        model = HPPModel(6, 6)
        state = _state(0, 6, 6, 4)
        before = state.copy()
        evolve(make_stepper(model), state, 5)
        np.testing.assert_array_equal(state, before)

    def test_bitplane_run_does_not_mutate_input(self):
        model = HPPModel(6, 6)
        state = _state(0, 6, 6, 4)
        before = state.copy()
        evolve(make_stepper(model, backend="bitplane"), state, 5)
        np.testing.assert_array_equal(state, before)

    def test_run_equals_repeated_step(self):
        for backend in BACKENDS:
            model = FHPModel(6, 20)
            state = _state(3, 6, 20, 6)
            stepped = LatticeGasAutomaton(model, state, backend=backend)
            for _ in range(5):
                stepped.step()
            ran = LatticeGasAutomaton(model, state, backend=backend).run(5)
            np.testing.assert_array_equal(ran, stepped.state, err_msg=backend)

    def test_reference_chained_steps_match_fresh_stepper(self):
        """``load`` replaces the whole lattice: a reused stepper forgets
        what it held and evolves like a fresh one."""
        model = FHPModel(6, 20)
        state = _state(7, 6, 20, 6)
        reused = make_stepper(model)
        evolve(reused, _state(8, 6, 20, 6), 3)
        expected = evolve(make_stepper(model), state, 6)
        np.testing.assert_array_equal(evolve(reused, state, 6), expected)

    def test_automaton_time_advances_once_per_run(self):
        model = HPPModel(6, 6)
        auto = LatticeGasAutomaton(model, _state(0, 6, 6, 4), backend="bitplane")
        auto.run(7)
        assert auto.time == 7

    def test_mass_conserved_periodic(self):
        from repro.lgca.observables import total_mass

        model = FHPModel(8, 65)
        auto = LatticeGasAutomaton(model, _state(5, 8, 65, 6), backend="bitplane")
        mass0 = auto.particle_count()
        auto.run(20)
        assert total_mass(auto.state, 6) == mass0


class TestResidentState:
    """The stepper holds its lattice: ``load``, ``advance``, row traffic."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "model",
        [
            HPPModel(8, 67, boundary="null"),
            FHPModel(8, 65),
            FHPModel(8, 130, rest_particles=True, boundary="reflecting"),
            FHPModel(6, 66, rest_particles=True, saturated=True),
        ],
        ids=["hpp-null", "fhp6", "fhp7-reflecting", "fhp-saturated"],
    )
    def test_advance_matches_run(self, backend, model):
        rows, cols = model.rows, model.cols
        mask = np.random.default_rng(11).random((rows, cols)) < 0.1
        state = _state(4, rows, cols, model.num_channels)
        state[mask] = 0
        expected = LatticeGasAutomaton(model, state, obstacles=ObstacleMap(mask)).run(
            GENERATIONS
        )
        stepper = make_stepper(model, obstacles=mask, backend=backend)
        stepper.load(state)
        for t in range(GENERATIONS):
            stepper.advance(t)
        np.testing.assert_array_equal(stepper.read_rows(0, rows), expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_chirality_is_pure_in_time(self, backend):
        """run(7) then run(13) equals a fresh start at time 7 from that state."""
        model = FHPModel(6, 70, chirality="random", seed=9)
        auto = LatticeGasAutomaton(model, _state(2, 6, 70, 6), backend=backend)
        at_seven = auto.run(7).copy()
        auto.run(13)
        fresh = LatticeGasAutomaton(model, at_seven, time=7, backend=backend)
        np.testing.assert_array_equal(fresh.run(13), auto.state)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_row_writes_and_reads(self, backend):
        model = FHPModel(8, 100, rest_particles=True)
        state = _state(5, 8, 100, 7)
        stepper = make_stepper(model, backend=backend)
        stepper.load(state)
        rows = _state(6, 2, 100, 7)
        stepper.write_rows(3, rows)
        stepper.clear_rows(6, 8)
        expected = state.copy()
        expected[3:5] = rows
        expected[6:8] = 0
        np.testing.assert_array_equal(stepper.read_rows(0, 8), expected)
        np.testing.assert_array_equal(stepper.read_rows(3, 5), rows)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_holds_its_own_copy(self, backend):
        model = HPPModel(6, 20)
        state = _state(1, 6, 20, 4)
        before = state.copy()
        stepper = make_stepper(model, backend=backend)
        stepper.load(state)
        state[...] = 0
        read = stepper.read_rows(0, 6)
        np.testing.assert_array_equal(read, before)
        read[...] = 0  # reads are fresh arrays, not views of the storage
        np.testing.assert_array_equal(stepper.read_rows(0, 6), before)

    def test_resident_rejects_invalid_states(self):
        model = HPPModel(4, 4)
        bad = np.full((4, 4), 0xFF, dtype=np.uint8)
        for backend in BACKENDS:
            stepper = make_stepper(model, backend=backend)
            with pytest.raises(ValueError):
                stepper.load(bad)
            with pytest.raises(ValueError):
                stepper.load(np.zeros((4, 5), dtype=np.uint8))

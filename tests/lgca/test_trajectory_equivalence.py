"""Seeded bit-identity of the reference and bit-plane backends."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel


def _state(seed, rows, cols, channels, density=0.4):
    return uniform_random_state(
        rows, cols, channels, density, np.random.default_rng(seed)
    )


class TestTrajectoryEquivalence:
    """Seeded bit-identity across backends (the runtime ground truth)."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_hpp_backends_bit_identical(self, seed):
        model = HPPModel(6, 70, boundary="periodic")
        state = _state(seed, 6, 70, 4)
        ref = LatticeGasAutomaton(model, state)
        bit = LatticeGasAutomaton(model, state, backend="bitplane")
        for t in range(6):
            np.testing.assert_array_equal(
                ref.step(), bit.step(), err_msg=f"diverged at generation {t}"
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fhp_backends_bit_identical(self, seed):
        model = FHPModel(6, 65, boundary="null")
        state = _state(seed, 6, 65, 6)
        ref = LatticeGasAutomaton(model, state)
        bit = LatticeGasAutomaton(model, state, backend="bitplane")
        np.testing.assert_array_equal(ref.run(6), bit.run(6))

"""The PE stage's double buffer: bit-exact call after call.

This is the run-time form of the read-*t*/write-*t+1* discipline: a
stage that read the buffer it writes would diverge from the model here,
in the golden digests and in the ``source_index`` stream oracles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.pe import make_rule
from repro.engines.pipeline import PipelineStage, SerialPipelineEngine
from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel


def _state(seed, rows, cols, channels, density=0.4):
    return uniform_random_state(
        rows, cols, channels, density, np.random.default_rng(seed)
    )


class TestPipelineStageBuffering:
    """The allocation-free stage must stay bit-exact call after call."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_stage_matches_model_step_over_generations(self, seed):
        model = FHPModel(8, 10, boundary="null", chirality="alternate")
        stage = PipelineStage(make_rule(model))
        frame = _state(seed, 8, 10, 6)
        stream = frame.ravel()
        expected = frame
        # Repeated calls exercise the internal double buffer: each
        # result is consumed (copied) before the buffer cycles back.
        for t in range(5):
            out = stage.process(stream, t).copy()
            expected = model.step(expected, t)
            np.testing.assert_array_equal(out.reshape(8, 10), expected)
            stream = out

    def test_consecutive_results_use_distinct_buffers(self):
        # The documented aliasing contract: a result stays valid until
        # the next-but-one call, because process ping-pongs two buffers.
        model = HPPModel(6, 6, boundary="null")
        stage = PipelineStage(make_rule(model))
        frame = _state(0, 6, 6, 4)
        first = stage.process(frame.ravel(), 0)
        second = stage.process(first.copy(), 1)
        assert not np.shares_memory(first, second)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_engine_run_matches_automaton(self, seed):
        # streamed engines implement null boundaries only
        model = HPPModel(8, 8, boundary="null")
        frame = _state(seed, 8, 8, 4)
        engine = SerialPipelineEngine(model)
        result, _ = engine.run(frame, 6)
        expected = LatticeGasAutomaton(model, frame).run(6)
        np.testing.assert_array_equal(result, expected)

"""Engine simulators have one evolution path: the PE stream.

There is no kernel-backend selector on an engine; the fast bit-plane
evolution lives on :class:`~repro.lgca.automaton.LatticeGasAutomaton`.
"""

import numpy as np
import pytest

from repro import machines
from repro.engines.extensible import ExtensibleSerialEngine
from repro.engines.pipeline import SerialPipelineEngine
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel
from repro.util.errors import ConfigError


def _state(model, seed=0):
    return uniform_random_state(
        model.rows, model.cols, model.num_channels, 0.3, np.random.default_rng(seed)
    )


@pytest.mark.parametrize("spec", machines.specs(), ids=lambda spec: spec.name)
def test_registry_rejects_backend_parameter(spec):
    model = HPPModel(8, 32, boundary="null")
    with pytest.raises(ConfigError, match="backend"):
        machines.create(spec.name, model, backend="bitplane")


def test_output_detached_from_internal_buffers():
    """Successive runs must not overwrite previously returned frames."""
    model = HPPModel(8, 32, boundary="null")
    engine = SerialPipelineEngine(model)
    state = _state(model)
    out1, _ = engine.run(state, 3)
    snapshot = out1.copy()
    engine.run(state, 4)
    np.testing.assert_array_equal(out1, snapshot)


class TestExtensibleBackendSupport:
    """WSA-E inherits fault-hook and tickwise support from the shared
    streaming core."""

    def test_fault_hook_accepted_on_reference_backend(self):
        model = HPPModel(8, 32, boundary="null")
        calls = []

        def hook(values, r, c, t):
            calls.append(t)
            return values

        engine = ExtensibleSerialEngine(model, post_collide=hook)
        out, _ = engine.run(_state(model), 3)
        assert calls  # the hook actually ran
        np.testing.assert_array_equal(
            out, ExtensibleSerialEngine(model).run(_state(model), 3)[0]
        )

    def test_tickwise_matches_vectorized(self):
        model = HPPModel(6, 24, boundary="null")
        state = _state(model)
        out_vec, _ = ExtensibleSerialEngine(model, pipeline_depth=2).run(state, 3)
        out_tick, _ = ExtensibleSerialEngine(model, pipeline_depth=2).run(
            state, 3, tickwise=True
        )
        np.testing.assert_array_equal(out_vec, out_tick)


"""Engine simulators must compute identical evolutions on every backend."""

import numpy as np
import pytest

from repro.engines.extensible import ExtensibleSerialEngine
from repro.engines.partitioned import PartitionedEngine
from repro.engines.pipeline import SerialPipelineEngine
from repro.engines.wide_serial import WideSerialEngine
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel


def _state(model, seed=0):
    return uniform_random_state(
        model.rows, model.cols, model.num_channels, 0.3, np.random.default_rng(seed)
    )


def _engines(model, backend):
    return [
        SerialPipelineEngine(model, pipeline_depth=2, backend=backend),
        WideSerialEngine(model, lanes=3, pipeline_depth=2, backend=backend),
        PartitionedEngine(model, slice_width=8, pipeline_depth=2, backend=backend),
        ExtensibleSerialEngine(model, pipeline_depth=2, backend=backend),
    ]


@pytest.mark.parametrize(
    "model",
    [HPPModel(10, 66, boundary="null"), FHPModel(10, 66, boundary="null")],
    ids=["hpp", "fhp6"],
)
def test_bitplane_engines_match_reference(model):
    state = _state(model)
    for ref, fast in zip(_engines(model, "reference"), _engines(model, "bitplane")):
        out_ref, stats_ref = ref.run(state, 5)
        out_fast, stats_fast = fast.run(state, 5)
        np.testing.assert_array_equal(out_ref, out_fast, err_msg=ref.name)
        # stats model the hardware, not the software backend
        assert stats_ref == stats_fast


def test_stats_accounting_independent_of_backend():
    model = FHPModel(8, 32, boundary="null")
    state = _state(model)
    _, ref_stats = SerialPipelineEngine(model, pipeline_depth=3).run(state, 7)
    _, fast_stats = SerialPipelineEngine(
        model, pipeline_depth=3, backend="bitplane"
    ).run(state, 7)
    assert ref_stats.ticks == fast_stats.ticks
    assert ref_stats.io_bits_main == fast_stats.io_bits_main
    assert ref_stats.site_updates == fast_stats.site_updates


def test_partitioned_exchange_accounting_independent_of_backend():
    model = FHPModel(8, 32, boundary="null")
    ref = PartitionedEngine(model, slice_width=8)
    fast = PartitionedEngine(model, slice_width=8, backend="bitplane")
    assert ref.exchange_per_stage_pass() == fast.exchange_per_stage_pass()
    assert (
        ref.boundary_bits_per_site_update() == fast.boundary_bits_per_site_update()
    )


def test_bitplane_engine_converts_once_per_run(monkeypatch):
    """The frame is packed once and unpacked once per ``run``, however
    many passes the run takes (depth 2 over 7 generations is 4 passes)."""
    import repro.lgca.bitplane as bitplane

    model = FHPModel(8, 70, boundary="null")
    engine = SerialPipelineEngine(model, pipeline_depth=2, backend="bitplane")
    state = _state(model)
    converted = []
    pack, unpack = bitplane.pack_state, bitplane.unpack_state

    def counting_pack(state, num_channels):
        converted.append(("pack", state.shape[0]))
        return pack(state, num_channels)

    def counting_unpack(planes, cols, out=None):
        converted.append(("unpack", planes.shape[1]))
        return unpack(planes, cols, out=out)

    monkeypatch.setattr(bitplane, "pack_state", counting_pack)
    monkeypatch.setattr(bitplane, "unpack_state", counting_unpack)
    out, stats = engine.run(state, 7)
    assert converted == [("pack", 8), ("unpack", 8)]
    assert stats.site_updates == 7 * 8 * 70
    monkeypatch.undo()
    np.testing.assert_array_equal(out, SerialPipelineEngine(model).run(state, 7)[0])


def test_reference_engine_builds_no_stepper(monkeypatch):
    """The reference engine streams through its PE stage; validating the
    backend name must not allocate a kernel stepper's lattice buffers."""
    import repro.lgca.backends as backends

    def no_stepper(*args, **kwargs):
        raise AssertionError("a stepper was built")

    monkeypatch.setitem(backends._STEPPERS, "reference", no_stepper)
    model = HPPModel(8, 32, boundary="null")
    for engine in _engines(model, "reference"):
        engine.run(_state(model), 3)


def test_output_detached_from_internal_buffers():
    """Successive runs must not overwrite previously returned frames."""
    model = HPPModel(8, 32, boundary="null")
    engine = SerialPipelineEngine(model, backend="bitplane")
    state = _state(model)
    out1, _ = engine.run(state, 3)
    snapshot = out1.copy()
    engine.run(state, 4)
    np.testing.assert_array_equal(out1, snapshot)


def test_tickwise_requires_reference_backend():
    model = FHPModel(8, 32, boundary="null")
    state = _state(model)
    with pytest.raises(ValueError, match="tickwise"):
        SerialPipelineEngine(model, backend="bitplane").run(state, 2, tickwise=True)
    with pytest.raises(ValueError, match="tickwise"):
        WideSerialEngine(model, backend="bitplane").run(state, 2, tickwise=True)


def test_fault_hooks_require_reference_backend():
    model = FHPModel(8, 32, boundary="null")

    def hook(values, r, c, t):
        return values

    with pytest.raises(ValueError, match="fault-injection"):
        SerialPipelineEngine(model, post_collide=hook, backend="bitplane")
    with pytest.raises(ValueError, match="fault-injection"):
        PartitionedEngine(model, slice_width=8, post_collide=hook, backend="bitplane")


def test_unknown_backend_rejected_uniformly():
    model = HPPModel(8, 32, boundary="null")
    with pytest.raises(ValueError, match="unknown backend"):
        SerialPipelineEngine(model, backend="gpu")
    with pytest.raises(ValueError, match="unknown backend"):
        WideSerialEngine(model, backend="gpu")
    with pytest.raises(ValueError, match="unknown backend"):
        PartitionedEngine(model, slice_width=8, backend="gpu")
    with pytest.raises(ValueError, match="unknown backend"):
        ExtensibleSerialEngine(model, backend="gpu")


class TestExtensibleBackendSupport:
    """WSA-E inherits backend, fault-hook, and tickwise support from the
    shared streaming core — previously it only had the reference path."""

    def test_bitplane_matches_reference(self):
        model = FHPModel(10, 66, boundary="null")
        state = _state(model)
        out_ref, stats_ref = ExtensibleSerialEngine(model, pipeline_depth=2).run(
            state, 5
        )
        out_fast, stats_fast = ExtensibleSerialEngine(
            model, pipeline_depth=2, backend="bitplane"
        ).run(state, 5)
        np.testing.assert_array_equal(out_ref, out_fast)
        assert stats_ref == stats_fast

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

    def test_fault_hook_rejected_on_bitplane_backend(self):
        model = HPPModel(8, 32, boundary="null")
        with pytest.raises(ValueError, match="fault-injection"):
            ExtensibleSerialEngine(
                model, post_collide=lambda v, r, c, t: v, backend="bitplane"
            )

    def test_tickwise_matches_vectorized(self):
        model = HPPModel(6, 24, boundary="null")
        state = _state(model)
        out_vec, _ = ExtensibleSerialEngine(model, pipeline_depth=2).run(state, 3)
        out_tick, _ = ExtensibleSerialEngine(model, pipeline_depth=2).run(
            state, 3, tickwise=True
        )
        np.testing.assert_array_equal(out_vec, out_tick)

    def test_tickwise_rejected_on_bitplane_backend(self):
        model = HPPModel(8, 32, boundary="null")
        with pytest.raises(ValueError, match="tickwise"):
            ExtensibleSerialEngine(model, backend="bitplane").run(
                _state(model), 2, tickwise=True
            )

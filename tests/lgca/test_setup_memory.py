"""Set-up memory of the reference model and the SPA engine, and the
memory of bit-plane conversion.

Propagation is slice shifts of channel planes, so building a model or an
engine keeps no per-site index table, and packing or unpacking planes
works in row blocks.  ``tracemalloc`` sees numpy's array buffers, so its
traced peak is the bound checked here.  The steady-state bound of every
hot path is ``tests/test_hot_paths.py``.
"""

import tracemalloc

import numpy as np
import pytest

from repro import machines
from repro.lgca.backends import BitplaneStepper
from repro.lgca.bitplane import pack_state, unpack_state
from repro.lgca.fhp import FHPModel

MIB = 1 << 20


def traced_peak(call) -> int:
    """Peak traced bytes while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("boundary", ["periodic", "null"])
def test_fhp7_model_build_keeps_no_site_tables(boundary):
    peak = traced_peak(
        lambda: FHPModel(2048, 2048, rest_particles=True, boundary=boundary)
    )
    assert peak < 1 * MIB, f"FHPModel(2048, 2048) traced {peak / MIB:.1f} MiB"


def test_spa_engine_set_up_at_1024():
    peak = traced_peak(
        lambda: machines.create(
            "spa", FHPModel(1024, 1024, boundary="null"),
            pipeline_depth=4, slice_width=32,
        )
    )
    assert peak < 32 * MIB, f"SPA set-up traced {peak / MIB:.1f} MiB"


class TestConversionMemory:
    """Conversions take their output plus one row block, not C bytes a site."""

    @pytest.fixture(params=[(2048, 2048, 7), (1024, 2048, 6)], ids=["fhp7", "fhp6-slab"])
    def field(self, request):
        rows, cols, channels = request.param
        rng = np.random.default_rng(rows)
        state = rng.integers(0, 1 << channels, size=(rows, cols), dtype=np.uint8)
        return state, channels

    def test_pack_and_unpack(self, field):
        state, channels = field
        planes = pack_state(state, channels)
        assert traced_peak(lambda: pack_state(state, channels)) < planes.nbytes + MIB
        assert traced_peak(lambda: unpack_state(planes, state.shape[1])) < state.nbytes + MIB

    def test_stepper_packs_into_its_planes(self, field):
        state, channels = field
        rows, cols = state.shape
        stepper = BitplaneStepper(FHPModel(rows, cols, rest_particles=channels == 7))
        assert traced_peak(lambda: stepper.load(state)) < MIB
        assert traced_peak(lambda: stepper.write_rows(8, state[: rows // 2])) < MIB
        assert traced_peak(lambda: stepper.read_rows(0, rows)) < state.nbytes + MIB
        expected = state.copy()
        expected[8 : 8 + rows // 2] = state[: rows // 2]
        assert np.array_equal(stepper.read_rows(0, rows), expected)

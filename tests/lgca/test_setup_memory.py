"""Set-up memory of the reference model and the SPA engine.

Propagation is slice shifts of channel planes, so building a model or an
engine keeps no per-site index table.  ``tracemalloc`` sees numpy's
array buffers, so its traced peak is the bound checked here.  The
steady-state bound of every hot path is ``tests/test_hot_paths.py``.
"""

import tracemalloc

import pytest

from repro import machines
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

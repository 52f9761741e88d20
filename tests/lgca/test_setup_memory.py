"""Set-up and steady-state memory of the reference model and the PE stage.

Propagation is slice shifts of channel planes, so building a model or an
engine keeps no per-site index table, and a warmed-up generation
allocates nothing that grows with the lattice.  ``tracemalloc`` sees
numpy's array buffers, so its traced peak is the bound checked here.
"""

import tracemalloc

import numpy as np
import pytest

from repro import machines
from repro.engines.streaming_core import PipelineStage
from repro.engines.pe import make_rule
from repro.lgca.backends import make_stepper
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state

KIB = 1 << 10
MIB = 1 << 20


def traced_peak(call) -> int:
    """Peak traced bytes while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_frame(rows: int, cols: int, channels: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return uniform_random_state(rows, cols, channels, 0.3, rng)


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


def test_pipeline_stage_process_is_allocation_free_once_warm():
    model = FHPModel(1024, 1024, boundary="null")
    stage = PipelineStage(make_rule(model))
    stream = random_frame(1024, 1024, 6).ravel()
    stream = stage.process(stage.process(stream, 0), 1).copy()  # both parities
    peak = traced_peak(lambda: stage.process(stream, 2))
    assert peak < 64 * KIB, f"PipelineStage.process traced {peak / KIB:.0f} KiB"


@pytest.mark.parametrize("with_obstacle", [False, True])
def test_reference_stepper_advance_is_allocation_free_once_warm(with_obstacle):
    model = FHPModel(512, 512, rest_particles=True)
    obstacles = None
    if with_obstacle:
        obstacles = np.zeros((512, 512), dtype=bool)
        obstacles[200:240, 100:140] = True
    stepper = make_stepper(model, obstacles=obstacles, backend="reference")
    stepper.load(random_frame(512, 512, 7))
    stepper.advance(0)
    stepper.advance(1)
    peak = traced_peak(lambda: stepper.advance(2))
    assert peak < 64 * KIB, f"ReferenceStepper.advance traced {peak / KIB:.0f} KiB"

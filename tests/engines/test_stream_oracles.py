"""Scalar oracles for the slice-shift propagation and the SPA's exchange counts.

Propagation (``FHPModel.propagate``, ``HPPModel.propagate``, the PE
stage's gather) and the SPA's side-channel accounting are all computed
with whole-plane slice shifts or closed forms.  The oracles here walk
the lattice one site and one channel at a time through
:meth:`repro.engines.pe.StreamStencil.source_index`, the stencil's
definition, so the fast paths are checked against it, not against
each other.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.engines.partitioned import PartitionedEngine
from repro.engines.pe import StreamStencil, make_rule
from repro.engines.streaming_core import PipelineStage
from repro.lgca.fhp import FHPModel
from repro.lgca.hpp import HPPModel

SHAPES = [(8, 10), (64, 66), (7, 9), (2, 3), (5, 1), (1, 5), (6, 2), (33, 17)]
KINDS = ["fhp6", "fhp7", "hpp"]
BOUNDARIES = ["periodic", "null", "reflecting"]


def build(kind: str, rows: int, cols: int, boundary: str):
    if kind == "hpp":
        return HPPModel(rows, cols, boundary=boundary)
    return FHPModel(rows, cols, rest_particles=kind == "fhp7", boundary=boundary)


def stencil_of(kind: str, rows: int, cols: int) -> StreamStencil:
    return make_rule(build(kind, rows, cols, "null")).stencil


def source(stencil: StreamStencil, r: int, c: int, ch: int, periodic: bool):
    """``source_index``, wrapped on a torus when ``periodic``.

    The torus is the frame tiled 3×3: the centre copy's sources all lie
    inside the tiling.  Periodic hexagonal frames have an even row count,
    so a tile's row parities are the frame's.
    """
    if not periodic:
        return stencil.source_index(r, c, ch)
    rows, cols = stencil.rows, stencil.cols
    tiled = replace(stencil, rows=3 * rows, cols=3 * cols)
    r_src, c_src = tiled.source_index(r + rows, c + cols, ch)
    return r_src % rows, c_src % cols


def oracle_propagate(
    stencil: StreamStencil, state: np.ndarray, boundary: str
) -> np.ndarray:
    """Move every particle site by site; reflecting walls bounce in place."""
    rows, cols = state.shape
    moving = stencil.num_moving_channels
    periodic = boundary == "periodic"
    out = np.zeros_like(state)
    has_target = np.zeros((moving, rows, cols), dtype=bool)
    for r in range(rows):
        for c in range(cols):
            for ch in range(moving):
                src = source(stencil, r, c, ch, periodic)
                if src is None:
                    continue
                has_target[ch][src] = True
                if state[src] >> ch & 1:
                    out[r, c] |= 1 << ch
            for ch in stencil.self_channels:
                out[r, c] |= state[r, c] & (1 << ch)
    if boundary == "reflecting":
        for ch in range(moving):
            opposite = (ch + moving // 2) % moving
            for r, c in zip(*np.nonzero((state >> ch & 1) & ~has_target[ch])):
                out[r, c] |= 1 << opposite
    return out


def random_state(rows: int, cols: int, channels: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << channels, size=(rows, cols)).astype(np.uint8)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("rows, cols", SHAPES)
def test_model_propagate_matches_the_scalar_oracle(kind, boundary, rows, cols):
    if kind != "hpp" and boundary == "periodic" and rows % 2:
        pytest.skip("periodic FHP lattices need an even row count")
    model = build(kind, rows, cols, boundary)
    stencil = stencil_of(kind, rows, cols)
    state = random_state(rows, cols, model.num_channels, rows * 100 + cols)
    expected = oracle_propagate(stencil, state, boundary)
    assert np.array_equal(model.propagate(state), expected)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows, cols", SHAPES)
def test_stage_gather_matches_the_scalar_oracle(kind, rows, cols):
    model = build(kind, rows, cols, "null")
    stage = PipelineStage(make_rule(model))
    state = random_state(rows, cols, model.num_channels, rows * 7 + cols)
    for t in (0, 1, 2):  # both chirality parities, then the cached one again
        expected = oracle_propagate(stage.rule.stencil, model.collide(state, t), "null")
        got = stage.process(state.ravel(), t).reshape(rows, cols)
        assert np.array_equal(got, expected), t


def brute_force_exchange(stencil: StreamStencil, width: int):
    """Per-boundary (leftward, rightward) bits and the worst site's count."""
    slices = -(-stencil.cols // width)
    leftward = [0] * (slices - 1)
    rightward = [0] * (slices - 1)
    worst = 0
    for r in range(stencil.rows):
        for c in range(stencil.cols):
            crossings = 0
            for ch in range(stencil.num_moving_channels):
                src = stencil.source_index(r, c, ch)
                if src is None:
                    continue
                dst_slice, src_slice = c // width, src[1] // width
                if src_slice == dst_slice + 1:
                    leftward[dst_slice] += 1
                elif src_slice == dst_slice - 1:
                    rightward[src_slice] += 1
                else:
                    assert src_slice == dst_slice
                    continue
                crossings += 1
            worst = max(worst, crossings)
    return leftward, rightward, worst


EXCHANGE_CASES = [
    # rows, cols, W, failed slices; 12x50 at W=16 leaves a 2-column last slice
    (7, 40, 8, ()),
    (16, 64, 32, ()),
    (12, 50, 16, ()),
    (12, 50, 16, (1, 3)),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows, cols, width, failed", EXCHANGE_CASES)
def test_exchange_counts_match_brute_force(kind, rows, cols, width, failed):
    engine = PartitionedEngine(
        build(kind, rows, cols, "null"), slice_width=width, failed_slices=failed
    )
    leftward, rightward, worst = brute_force_exchange(
        stencil_of(kind, rows, cols), width
    )
    records = engine.exchange_per_stage_pass()
    assert [rec.boundary for rec in records] == list(range(len(leftward)))
    assert [rec.bits_leftward for rec in records] == leftward
    assert [rec.bits_rightward for rec in records] == rightward
    assert engine.side_bits_per_stage_pass() == sum(leftward) + sum(rightward)
    assert engine.boundary_bits_per_site_update() == worst
    assert engine.mean_boundary_bits_per_edge_site() == leftward[0] / rows
    if kind != "hpp":
        assert worst == 3  # the paper's E for the hexagonal stencil

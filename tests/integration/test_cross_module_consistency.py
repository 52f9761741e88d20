"""Cross-module consistency: independent implementations must agree.

The geometry module, the LGCA propagation kernels, the engine stencils,
and the pebbling graph each encode the lattice neighborhoods separately
(by design — the engines are *checked against* the reference, not built
from it).  These tests pin them to each other.
"""

import math

import numpy as np

from repro.engines.pe import make_rule
from repro.lattice.geometry import HexagonalLattice, OrthogonalLattice
from repro.lgca.fhp import FHPModel
from repro.lgca.hpp import HPPModel
from repro.pebbling.graph import ComputationGraph


class TestFHPGeometryAgreement:
    def test_propagation_matches_hexagonal_lattice(self):
        """A particle sent along direction ch from (r, c) lands exactly
        where HexagonalLattice.neighbor says it should."""
        rows, cols = 8, 8
        model = FHPModel(rows, cols, boundary="null")
        hex_ = HexagonalLattice(rows, cols)
        for r in range(rows):
            for c in range(cols):
                for ch in range(6):
                    state = np.zeros((rows, cols), dtype=np.uint8)
                    state[r, c] = 1 << ch
                    out = model.propagate(state)
                    target = hex_.neighbor((r, c), ch)
                    if target is None:
                        assert out.sum() == 0, (r, c, ch)
                    else:
                        assert out[target] == 1 << ch, (r, c, ch, target)

    def test_engine_stencil_matches_geometry(self):
        """The engine's stream stencil inverts the lattice neighbor map:
        source_index(target, ch) == origin for every edge."""
        rows, cols = 6, 7
        model = FHPModel(rows, cols, boundary="null")
        hex_ = HexagonalLattice(rows, cols)
        stencil = make_rule(model).stencil
        for r in range(rows):
            for c in range(cols):
                for ch in range(6):
                    target = hex_.neighbor((r, c), ch)
                    if target is None:
                        continue
                    assert stencil.source_index(target[0], target[1], ch) == (r, c)


class TestHPPGeometryAgreement:
    def test_offsets_match_velocities(self):
        """Every model's stencil moves each channel by its velocity.

        Site ``(r, c)`` sits at ``x = c + shift·(r odd)``, ``y = -pitch·r``:
        the square grid (shift 0, pitch 1) for HPP and the offset-hex
        grid (odd rows half a cell right, pitch sqrt(3)/2) for FHP.  From
        an even and an odd source row, the physical step of ``(dr, dc)``
        must equal the channel's velocity; channels past the stencil
        rest and must have zero velocity."""
        hex_pitch = math.sqrt(3) / 2
        layouts = [
            (HPPModel(4, 4), 0.0, 1.0),
            (FHPModel(4, 4), 0.5, hex_pitch),
            (FHPModel(4, 4, rest_particles=True), 0.5, hex_pitch),
        ]
        for model, shift, pitch in layouts:

            def position(r, c):
                return np.array([c + shift * (r % 2), -pitch * r])

            stencil = model.stencil
            velocities = model.velocities
            for r in (2, 3):  # an even and an odd source row
                col_offsets = stencil.col_offsets_odd if r % 2 else stencil.col_offsets_even
                for ch, (dr, dc) in enumerate(zip(stencil.row_offsets, col_offsets)):
                    step = position(r + dr, 2 + dc) - position(r, 2)
                    assert np.allclose(step, velocities[ch]), (model, ch, r)
            assert np.all(velocities[stencil.num_moving :] == 0)


class TestGraphMatchesModelDependencies:
    def test_graph_predecessors_match_orthogonal_neighborhood(self):
        """The pebbling graph's arcs are exactly the lattice N(x) the
        models' update rules read."""
        lattice = OrthogonalLattice((4, 5))
        graph = ComputationGraph(lattice, generations=2)
        for site_idx in range(lattice.num_sites):
            site = lattice.site(site_idx)
            v = graph.vertex(site, 1)
            pred_sites = {graph.site_of(int(u)) for u in graph.predecessors(v)}
            assert pred_sites == set(lattice.neighborhood(site))

    def test_graph_in_degree_matches_stencil_size(self):
        """HPP's stencil touches exactly the graph's in-degree sites."""
        lattice = OrthogonalLattice((6, 6))
        graph = ComputationGraph(lattice, generations=1)
        interior = graph.vertex((3, 3), 1)
        assert graph.in_degree(interior) == 5  # self + 4 — HPP's full stencil


class TestNDHPPMatchesOrthogonalLattice:
    def test_propagation_follows_lattice_axes(self):
        from repro.lgca.ndim import NDHPPModel

        lattice = OrthogonalLattice((4, 4, 4))
        model = NDHPPModel((4, 4, 4), boundary="null")
        origin = (2, 2, 2)
        for ch in range(6):
            axis, step = ch // 2, 1 if ch % 2 == 0 else -1
            state = np.zeros((4, 4, 4), dtype=np.uint8)
            state[origin] = 1 << ch
            out = model.propagate(state)
            expected = list(origin)
            expected[axis] += step
            assert out[tuple(expected)] == 1 << ch
            assert lattice.distance(origin, tuple(expected)) == 1

"""Unit tests for macroscopic observables."""

import numpy as np
import pytest

from repro.lgca.fhp import FHP_VELOCITIES, FHPModel
from repro.lgca.observables import (
    channel_counts,
    coarse_grain,
    density_field,
    fhp_viscosity,
    galilean_factor,
    mean_velocity_field,
    momentum_field,
    reynolds_number,
    total_mass,
    total_momentum,
)


class TestDensityField:
    def test_counts_particles(self):
        s = np.array([[0b000011, 0]], dtype=np.uint8)
        d = density_field(s, 6)
        assert d[0, 0] == 2 and d[0, 1] == 0

    def test_dtype_float(self):
        assert density_field(np.zeros((2, 2), dtype=np.uint8), 6).dtype == np.float64


class TestMomentumField:
    def test_single_particle(self):
        s = np.zeros((2, 2), dtype=np.uint8)
        s[0, 0] = 1 << 1  # FHP channel 1: (0.5, sqrt(3)/2)
        m = momentum_field(s, FHP_VELOCITIES)
        assert np.allclose(m[0, 0], FHP_VELOCITIES[1])
        assert np.allclose(m[1, 1], 0)

    def test_opposite_pair_cancels(self):
        s = np.zeros((1, 1), dtype=np.uint8)
        s[0, 0] = (1 << 0) | (1 << 3)
        m = momentum_field(s, FHP_VELOCITIES)
        assert np.allclose(m[0, 0], 0, atol=1e-12)

    def test_totals(self):
        s = np.full((3, 3), 1 << 0, dtype=np.uint8)
        assert total_mass(s, 6) == 9
        assert np.allclose(total_momentum(s, FHP_VELOCITIES), [9.0, 0.0])

    def test_channel_counts_exact(self, rng):
        s = rng.integers(0, 64, size=(7, 9)).astype(np.uint8)
        counts = channel_counts(s, 6)
        assert counts.dtype == np.int64
        expected = [int(((s >> ch) & 1).sum()) for ch in range(6)]
        assert counts.tolist() == expected
        assert total_mass(s, 6) == sum(expected)
        assert np.allclose(
            total_momentum(s, FHP_VELOCITIES),
            momentum_field(s, FHP_VELOCITIES).sum(axis=(0, 1)),
        )

    def test_channel_counts_rejects_bits_above_the_channels(self):
        s = np.zeros((8, 8), dtype=np.uint8)
        s[3, 4] = 0x40  # bit 6 in a 6-channel frame
        with pytest.raises(ValueError, match="fit in 6 bits"):
            channel_counts(s, 6)
        with pytest.raises(ValueError, match="fit in 6 bits"):
            total_mass(s, 6)


class TestCoarseGrain:
    def test_scalar_field(self):
        f = np.arange(16, dtype=float).reshape(4, 4)
        g = coarse_grain(f, 2)
        assert g.shape == (2, 2)
        assert g[0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_vector_field(self):
        f = np.ones((4, 4, 2))
        g = coarse_grain(f, 2)
        assert g.shape == (2, 2, 2)
        assert np.allclose(g, 1.0)

    def test_window_one_identity(self):
        f = np.random.default_rng(0).random((3, 3))
        assert np.allclose(coarse_grain(f, 1), f)

    def test_rejects_non_dividing(self):
        with pytest.raises(ValueError, match="divisible"):
            coarse_grain(np.zeros((5, 4)), 2)


class TestMeanVelocityField:
    def test_uniform_drift(self):
        s = np.full((4, 4), 1 << 0, dtype=np.uint8)  # everyone moving +x
        u = mean_velocity_field(s, FHP_VELOCITIES, 6, window=2)
        assert np.allclose(u[..., 0], 1.0)
        assert np.allclose(u[..., 1], 0.0, atol=1e-12)

    def test_empty_cells_zero(self):
        s = np.zeros((2, 2), dtype=np.uint8)
        u = mean_velocity_field(s, FHP_VELOCITIES, 6)
        assert np.allclose(u, 0.0)


class TestViscosityAndReynolds:
    def test_viscosity_positive_at_typical_density(self):
        assert fhp_viscosity(1.0 / 6.0) > 0

    def test_viscosity_decreases_then_increases(self):
        # nu(d) has a minimum inside (0, 1); check it is not monotone.
        ds = np.linspace(0.05, 0.6, 12)
        nus = [fhp_viscosity(float(d)) for d in ds]
        assert min(nus) < nus[0] and min(nus) < nus[-1]

    def test_viscosity_rejects_bad_density(self):
        with pytest.raises(ValueError):
            fhp_viscosity(0.0)
        with pytest.raises(ValueError):
            fhp_viscosity(1.0)

    def test_fhp7_viscosity_smaller(self):
        d = 1.0 / 7.0
        assert fhp_viscosity(d, rest_particles=True) < fhp_viscosity(d)

    def test_galilean_factor_half_density_zero(self):
        assert galilean_factor(0.5) == pytest.approx(0.0)

    def test_reynolds_scales_linearly_with_lattice(self):
        """The paper's scaling argument: Re grows linearly in L, so
        'very large Reynolds Numbers will require huge lattices'."""
        r1 = reynolds_number(100, 0.1)
        r2 = reynolds_number(1000, 0.1)
        assert r2 == pytest.approx(10 * r1)

    def test_reynolds_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reynolds_number(0, 0.1)

    def test_viscosity_positive_across_densities(self):
        """Both Boltzmann viscosities stay positive over (0, 1) — the
        guard in reynolds_number is purely defensive."""
        for d in np.linspace(0.02, 0.98, 25):
            assert fhp_viscosity(float(d)) > 0
            assert fhp_viscosity(float(d), rest_particles=True) > 0


class TestPhysicalRelaxation:
    def test_shear_decays(self, rng):
        """Momentum shear relaxes under FHP dynamics (viscosity > 0)."""
        from repro.lgca.flows import shear_flow_state

        m = FHPModel(32, 32)
        s = shear_flow_state(32, 32, m.velocities, 0.3, 0.25, rng)

        def shear_amplitude(state):
            mom = momentum_field(state, m.velocities)
            top = mom[:16, :, 0].mean()
            bottom = mom[16:, :, 0].mean()
            return top - bottom

        a0 = shear_amplitude(s)
        for t in range(60):
            s = m.step(s, t)
        a1 = shear_amplitude(s)
        assert abs(a1) < abs(a0) * 0.8

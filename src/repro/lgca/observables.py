"""Macroscopic observables of a lattice gas.

The whole point of an LGCA (section 2 of the paper) is that microscopic
boolean dynamics yield macroscopic fluid fields after coarse-graining.
This module computes the conserved quantities the collision rules are
verified against (mass, momentum) and the coarse-grained density /
velocity fields the flow examples visualize, plus the Reynolds-number
scaling relation of reference [10] (Orszag & Yakhot) that the paper uses
to argue "very large Reynolds numbers will require huge lattices".
"""

from __future__ import annotations

import numpy as np

from repro.lgca.bits import occupancy_table, popcount, unpack_channels
from repro.util.validation import check_positive

__all__ = [
    "density_field",
    "momentum_field",
    "channel_counts",
    "total_mass",
    "total_momentum",
    "coarse_grain",
    "mean_velocity_field",
    "reynolds_number",
    "fhp_viscosity",
    "galilean_factor",
]


def density_field(state: np.ndarray, num_channels: int) -> np.ndarray:
    """Particles per site: the microscopic density field."""
    return popcount(np.asarray(state), num_channels).astype(np.float64)


def momentum_field(state: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Per-site momentum vectors, shape ``state.shape + (d,)``."""
    velocities = np.asarray(velocities, dtype=np.float64)
    channels = unpack_channels(np.asarray(state), velocities.shape[0])
    out = np.zeros(np.asarray(state).shape + (velocities.shape[1],), dtype=np.float64)
    for ch in range(velocities.shape[0]):
        out += channels[ch][..., None] * velocities[ch]
    return out


def channel_counts(state: np.ndarray, num_channels: int) -> np.ndarray:
    """Exact int64 particle count of every channel, shape ``(C,)``.

    The state histogram times :func:`~repro.lgca.bits.occupancy_table`:
    one pass over the field, then O(2^C · C) work.  Mass and momentum of
    the whole field are linear in these counts.  Raises ``ValueError``
    if a site has a bit set above its ``C`` channels.
    """
    table = occupancy_table(num_channels)
    histogram = np.bincount(np.asarray(state).ravel(), minlength=table.shape[0])
    if histogram.size > table.shape[0]:
        raise ValueError(f"state values must fit in {num_channels} bits")
    return histogram @ table


def total_mass(state: np.ndarray, num_channels: int) -> int:
    """Total particle count — conserved exactly by collide and propagate."""
    return int(channel_counts(state, num_channels).sum())


def total_momentum(state: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Total momentum ``(d,)`` vector — conserved on periodic lattices."""
    velocities = np.asarray(velocities, dtype=np.float64)
    return channel_counts(state, velocities.shape[0]) @ velocities


def coarse_grain(field: np.ndarray, window: int) -> np.ndarray:
    """Average ``field`` over non-overlapping ``window x window`` blocks.

    Trailing component axes (e.g. the 2-vector of a momentum field) are
    preserved.  Grid dimensions must be divisible by ``window``.
    """
    window = check_positive(window, "window", integer=True)
    field = np.asarray(field, dtype=np.float64)
    rows, cols = field.shape[0], field.shape[1]
    if rows % window or cols % window:
        raise ValueError(
            f"field shape {(rows, cols)} not divisible by window={window}"
        )
    shape = (rows // window, window, cols // window, window) + field.shape[2:]
    return field.reshape(shape).mean(axis=(1, 3))


def mean_velocity_field(
    state: np.ndarray,
    velocities: np.ndarray,
    num_channels: int,
    window: int = 1,
) -> np.ndarray:
    """Coarse-grained fluid velocity u = <momentum> / <density>.

    Empty coarse cells get velocity 0 (a convention, noted rather than
    NaN-propagated, since benches difference these fields).
    """
    rho = coarse_grain(density_field(state, num_channels), window)
    mom = coarse_grain(momentum_field(state, velocities), window)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = mom / rho[..., None]
    u[~np.isfinite(u)] = 0.0
    return u


def fhp_viscosity(density_per_channel: float, *, rest_particles: bool = False) -> float:
    """Boltzmann-approximation kinematic shear viscosity of the FHP gas.

    For FHP-I (6 channels) the lattice-Boltzmann result is

        nu(d) = (1 / 12) * 1 / (d (1 - d)^3)  -  1 / 8

    with ``d`` the mean occupation per channel (Frisch et al. 1987,
    Complex Systems 1:649).  The 7-bit model has a smaller viscosity
    because the extra collisions relax stress faster; we use the FHP-II
    coefficient 1/28 d(1-d)^3 with its own propagation correction.

    This is used by the Reynolds-scaling helper below; the reproduction
    does not depend on the absolute value, only on its density shape.
    """
    d = float(density_per_channel)
    if not 0.0 < d < 1.0:
        raise ValueError(f"density_per_channel={d} must lie strictly in (0, 1)")
    if rest_particles:
        return (1.0 / 28.0) / (d * (1.0 - d) ** 3) - 1.0 / 8.0
    return (1.0 / 12.0) / (d * (1.0 - d) ** 3) - 1.0 / 8.0


def galilean_factor(density_per_channel: float) -> float:
    """The g(d) factor restoring Galilean invariance for FHP.

    ``g(d) = (3 - 6d) / (3 - 3d)`` (FHP-I form).  Appears in the
    effective Reynolds number: Re = g(d) u L / nu(d).
    """
    d = float(density_per_channel)
    if not 0.0 < d < 1.0:
        raise ValueError(f"density_per_channel={d} must lie strictly in (0, 1)")
    return (3.0 - 6.0 * d) / (3.0 - 3.0 * d)


def reynolds_number(
    lattice_size: float,
    flow_speed: float,
    density_per_channel: float = 1.0 / 7.0,
    *,
    rest_particles: bool = False,
) -> float:
    """Effective Reynolds number of an FHP flow (reference [10] scaling).

    Re = g(d) * u * L / nu(d).  The paper's point — that Reynolds number
    grows only linearly in lattice size, so "very large Reynolds Numbers
    will require huge lattices and correspondingly huge computation
    rates" — is benchmark E12's second panel.
    """
    lattice_size = check_positive(lattice_size, "lattice_size")
    flow_speed = check_positive(flow_speed, "flow_speed")
    nu = fhp_viscosity(density_per_channel, rest_particles=rest_particles)
    if nu <= 0:
        raise ValueError(
            f"viscosity {nu} not positive at density {density_per_channel}"
        )
    return galilean_factor(density_per_channel) * flow_speed * lattice_size / nu

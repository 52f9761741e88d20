"""Shared utilities: argument validation and table rendering.

These helpers keep the numerical modules free of boilerplate.  They are
deliberately tiny: validation raises early with a precise message (the
numerical code then never has to re-check), and :mod:`repro.util.tables`
renders the fixed-width rows the benchmark harness prints so every bench
produces paper-style output through one code path.
"""

from repro.util.backoff import BackoffPolicy
from repro.util.errors import (
    ReproError,
    ConfigError,
    FaultDetectedError,
    CheckpointError,
)
from repro.util.validation import (
    check_positive,
    check_nonnegative,
    check_in_range,
    check_integer,
    check_probability,
)
from repro.util.tables import Table, format_quantity, format_rate
from repro.util.timeout import WallClockTimeout, wall_clock_limit
from repro.util.render import shade_map, speed_map, spacetime_diagram

__all__ = [
    "BackoffPolicy",
    "ReproError",
    "ConfigError",
    "FaultDetectedError",
    "CheckpointError",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_integer",
    "check_probability",
    "Table",
    "WallClockTimeout",
    "format_quantity",
    "format_rate",
    "wall_clock_limit",
    "shade_map",
    "speed_map",
    "spacetime_diagram",
]

"""Runtime invariant checks behind ``repro sanitize``.

Three families, matching the three places the paper's physics can rot:

* **Collision tables** (§2) — every rule table is verified over *all*
  ``2^C`` input states for mass and per-axis momentum conservation,
  plus the structural properties the kernels rely on (permutation of
  the state space; involution where the rule is its own inverse).
* **Pebbling legality** (§7) — the schedule generators are replayed
  through the rule-enforcing :class:`~repro.pebbling.game.RedBluePebbleGame`
  and their measured I/O is compared against the Hong–Kung floor.
* **Design algebra / engines** (§4–6) — the closed-form WSA and SPA
  throughput and bandwidth formulas are cross-checked against the
  cycle-counting engine simulators on small configurations.

Every check returns a :class:`CheckResult`; nothing raises, so one
broken invariant cannot mask another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CheckResult",
    "check_table_exhaustive",
    "check_hpp_table",
    "check_fhp_tables",
    "check_ndim_tables",
    "check_pebble_legality",
    "check_wsa_engine_formulas",
    "check_spa_engine_formulas",
    "check_machine_registry",
    "check_design_algebra",
]

#: Pipeline fill/drain latency makes measured engine rates fall short of
#: the steady-state closed forms on small configs; 35% covers the worst
#: small-lattice case exercised here while still catching a wrong formula
#: (which is off by an integer factor, not a fill constant).
_ENGINE_RATE_RTOL = 0.35


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one sanitizer check.

    Attributes
    ----------
    name:
        Stable check identifier, e.g. ``"hpp/conservation"``.
    passed:
        Whether the invariant held.
    detail:
        What was verified (on pass) or what broke and where (on fail).
    """

    name: str
    passed: bool
    detail: str

    @property
    def status(self) -> str:
        """``"PASS"`` or ``"FAIL"``."""
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {"name": self.name, "status": self.status, "detail": self.detail}


# -- collision tables ----------------------------------------------------------


def check_table_exhaustive(
    name: str,
    table: np.ndarray,
    velocities: np.ndarray,
    *,
    expect_permutation: bool = True,
    expect_involution: bool = False,
) -> CheckResult:
    """Exhaustively verify one rule table over all ``2^C`` states.

    Works on *raw* arrays and runs the same
    :func:`~repro.lgca.collision.verify_conservation` that
    :class:`~repro.lgca.collision.CollisionTable` construction runs, but
    a corrupted table yields a failed :class:`CheckResult` instead of an
    exception, which is what a diagnostic harness needs.

    Parameters
    ----------
    name:
        Check name used in the result.
    table:
        ``(2^C,)`` integer lookup array.
    velocities:
        ``(C, d)`` per-channel velocity vectors (any dimension).
    expect_permutation:
        Also require the table to be a bijection on the state space
        (deterministic microdynamics must not merge states).
    expect_involution:
        Also require ``table[table] == identity`` (two-body rules with
        fixed chirality are their own inverse).
    """
    from repro.lgca.collision import verify_conservation

    try:
        verify_conservation(table, velocities)
    except ValueError as exc:  # includes ConservationError
        return CheckResult(name, False, str(exc))
    out = np.asarray(table).astype(np.int64)
    size = out.size
    checked = ["mass", "momentum"]
    if expect_permutation:
        if np.unique(out).size != size:
            return CheckResult(
                name, False, "table is not a permutation of the state space"
            )
        checked.append("bijectivity")
    if expect_involution:
        if not np.array_equal(out[out], np.arange(size)):
            return CheckResult(name, False, "table is not an involution")
        checked.append("involution")
    return CheckResult(
        name, True, f"{size}/{size} states conserve {' + '.join(checked)}"
    )


def check_hpp_table() -> list[CheckResult]:
    """All 16 HPP states conserve mass/momentum; the rule is an involution."""
    from repro.lgca.hpp import hpp_collision_table

    table = hpp_collision_table()
    return [
        check_table_exhaustive(
            "hpp/conservation",
            np.asarray(table.table),
            np.asarray(table.velocities),
            expect_involution=True,
        )
    ]


def check_fhp_tables() -> list[CheckResult]:
    """Both chiralities of FHP-I (64), FHP-II (128), and FHP-III (128)."""
    from repro.lgca.fhp import (
        fhp6_collision_tables,
        fhp7_collision_tables,
        fhp_saturated_tables,
    )

    results = []
    variants = [
        ("fhp6", fhp6_collision_tables()),
        ("fhp7", fhp7_collision_tables()),
        ("fhp-sat", fhp_saturated_tables()),
    ]
    for label, (left, right) in variants:
        for chirality, table in (("left", left), ("right", right)):
            results.append(
                check_table_exhaustive(
                    f"{label}/{chirality}/conservation",
                    np.asarray(table.table),
                    np.asarray(table.velocities),
                )
            )
        # The two chiralities rotate scattering outcomes by +60° and
        # -60°; composing them must restore every state exactly.
        size = left.num_states
        inverse_ok = np.array_equal(
            np.asarray(left.table)[np.asarray(right.table)], np.arange(size)
        )
        results.append(
            CheckResult(
                f"{label}/chirality-inverse",
                inverse_ok,
                "left and right tables are mutual inverses"
                if inverse_ok
                else "left∘right is not the identity — chiralities diverge",
            )
        )
    return results


def check_ndim_tables(max_dimension: int = 4) -> list[CheckResult]:
    """d-dimensional HPP tables for d = 1 … ``max_dimension``."""
    from repro.lgca.ndim import ndhpp_collision_table

    results = []
    for d in range(1, max_dimension + 1):
        table = ndhpp_collision_table(d)
        results.append(
            check_table_exhaustive(
                f"ndim/d={d}/conservation",
                np.asarray(table.table),
                np.asarray(table.velocities),
                # the axis-cycling scatter is an involution only for d <= 2
                expect_involution=d <= 2,
            )
        )
    return results


# -- pebbling ------------------------------------------------------------------


def check_pebble_legality(
    dimension: int = 2, side: int = 6, generations: int = 3
) -> list[CheckResult]:
    """Replay every schedule generator through the legality-checking game.

    Each schedule must be a *complete computation* (all outputs
    blue-pebbled) made of individually legal moves within its declared
    red-pebble budget, and its measured I/O must sit on or above the
    Hong–Kung lower bound.
    """
    from repro.lattice.geometry import OrthogonalLattice
    from repro.pebbling.bounds import io_per_update_lower_bound
    from repro.pebbling.game import IllegalMoveError
    from repro.pebbling.graph import ComputationGraph
    from repro.pebbling.schedules import (
        lru_cache_schedule,
        measure_schedule,
        per_site_schedule,
        row_cache_schedule,
        row_cache_storage_needed,
        trapezoid_schedule,
        trapezoid_storage_needed,
    )

    graph = ComputationGraph(
        OrthogonalLattice.cube(dimension, side), generations=generations
    )
    lru_storage = max(2 * dimension + 2, side * 2)
    candidates = [
        ("per-site", per_site_schedule(graph), 2 * dimension + 2),
        ("row-cache", row_cache_schedule(graph, 2), row_cache_storage_needed(graph, 2)),
        (
            "trapezoid",
            trapezoid_schedule(graph, max(2, side // 2), 2),
            trapezoid_storage_needed(graph, max(2, side // 2), 2),
        ),
        ("lru", lru_cache_schedule(graph, lru_storage), lru_storage),
    ]
    results = []
    for label, moves, storage in candidates:
        name = f"pebble/{label}"
        try:
            report = measure_schedule(graph, moves, storage, name=label)
        except (IllegalMoveError, ValueError) as exc:
            results.append(CheckResult(name, False, f"illegal schedule: {exc}"))
            continue
        floor = io_per_update_lower_bound(graph, report.max_red)
        if report.io_per_update < floor - 1e-9:
            results.append(
                CheckResult(
                    name,
                    False,
                    f"I/O {report.io_per_update:.4f}/update beats the "
                    f"Hong-Kung floor {floor:.4f} — accounting is broken",
                )
            )
            continue
        results.append(
            CheckResult(
                name,
                True,
                f"{len(moves)} moves legal within S={report.max_red}, "
                f"I/O {report.io_per_update:.3f}/update >= floor {floor:.3f}",
            )
        )
    return results


# -- design formulas vs engines ------------------------------------------------


def check_wsa_engine_formulas(
    rows: int = 12, cols: int = 16, lanes: int = 4, depth: int = 2
) -> list[CheckResult]:
    """Closed-form WSA rate/bandwidth vs the cycle-counting engine.

    Steady state predicts ``P·k`` updates per tick and ``2·D·P`` main
    memory bits per tick; the measured values run below by pipeline
    fill only.
    """
    from repro import machines
    from repro.lgca.fhp import FHPModel
    from repro.lgca.flows import uniform_random_state

    model = FHPModel(rows, cols, boundary="null")
    engine = machines.create("wsa", model, lanes=lanes, pipeline_depth=depth)
    state = uniform_random_state(
        rows, cols, model.num_channels, 0.3, np.random.default_rng(7)
    )
    _, stats = engine.run(state, 2 * depth)
    results = [
        _compare_rate(
            "wsa/updates-per-tick",
            measured=stats.updates_per_tick,
            predicted=float(lanes * depth),
            formula="R/F = P*k",
        ),
        _compare_rate(
            "wsa/memory-bandwidth",
            measured=stats.main_bandwidth_bits_per_tick,
            predicted=2.0 * model.bits_per_site * lanes,
            formula="2*D*P bits/tick",
        ),
    ]
    return results


def check_spa_engine_formulas(
    rows: int = 12, cols: int = 16, slice_width: int = 4, depth: int = 2
) -> list[CheckResult]:
    """Closed-form SPA rate/bandwidth vs the cycle-counting engine.

    With ``L/W`` slices streaming in lock-step the closed forms are
    ``k·L/W`` updates per tick and ``2·D·L/W`` main-memory bits per tick.
    """
    from repro import machines
    from repro.lgca.fhp import FHPModel
    from repro.lgca.flows import uniform_random_state

    model = FHPModel(rows, cols, boundary="null")
    engine = machines.create(
        "spa", model, slice_width=slice_width, pipeline_depth=depth
    )
    state = uniform_random_state(
        rows, cols, model.num_channels, 0.3, np.random.default_rng(7)
    )
    _, stats = engine.run(state, 2 * depth)
    num_slices = math.ceil(cols / slice_width)
    return [
        _compare_rate(
            "spa/updates-per-tick",
            measured=stats.updates_per_tick,
            predicted=float(depth * num_slices),
            formula="R/F = k*L/W",
        ),
        _compare_rate(
            "spa/memory-bandwidth",
            measured=stats.main_bandwidth_bits_per_tick,
            predicted=2.0 * model.bits_per_site * num_slices,
            formula="2*D*L/W bits/tick",
        ),
    ]


def check_machine_registry(
    rows: int = 16, cols: int = 16, generations: int = 3
) -> list[CheckResult]:
    """Registry completeness plus simulator-vs-design-model cycle counts.

    Three invariants per registered machine: the engine constructed
    through the registry runs; its measured ``stats.ticks`` equals the
    paired design model's closed-form prediction *exactly*; and its
    measured updates per tick never exceed the architectural peak of
    one update per PE per tick.  A fourth, global check asserts every
    engine class exported by :mod:`repro.engines` is claimed by a spec
    — a machine left out of the registry fails here (and in CI).
    """
    from repro import machines
    from repro.lgca.flows import uniform_random_state
    from repro.lgca.hpp import HPPModel

    results = []
    missing = machines.unregistered_engines()
    results.append(
        CheckResult(
            "machines/registry-complete",
            not missing,
            "every exported engine class has a registered spec"
            if not missing
            else f"engines missing from the registry: {', '.join(missing)}",
        )
    )
    state = uniform_random_state(rows, cols, 4, 0.3, np.random.default_rng(11))
    for spec in machines.specs():
        model = HPPModel(rows, cols, boundary="null")
        engine = spec.create(model, pipeline_depth=2)
        _, stats = engine.run(state, generations)
        predicted = spec.predicted_ticks(engine, generations)
        results.append(
            CheckResult(
                f"machines/{spec.name}/ticks",
                stats.ticks == predicted,
                f"measured {stats.ticks} ticks vs design model {predicted} "
                f"for {generations} generations on {rows}x{cols}",
            )
        )
        peak = spec.steady_updates_per_tick(engine)
        results.append(
            CheckResult(
                f"machines/{spec.name}/throughput-bound",
                stats.updates_per_tick <= peak + 1e-9,
                f"measured {stats.updates_per_tick:.3f} updates/tick vs "
                f"peak {peak:.3f} (one per PE per tick)",
            )
        )
    return results


def _compare_rate(
    name: str, measured: float, predicted: float, formula: str
) -> CheckResult:
    """Measured engine rate must sit within fill-latency of the formula."""
    if predicted <= 0:
        return CheckResult(name, False, f"non-positive prediction {predicted}")
    ratio = measured / predicted
    if ratio > 1.0 + 1e-9:
        return CheckResult(
            name,
            False,
            f"engine measured {measured:.3f} EXCEEDS closed form "
            f"{formula} = {predicted:.3f} — formula or accounting is wrong",
        )
    if ratio < 1.0 - _ENGINE_RATE_RTOL:
        return CheckResult(
            name,
            False,
            f"engine measured {measured:.3f} vs closed form {formula} = "
            f"{predicted:.3f} (ratio {ratio:.2f}) — beyond fill latency",
        )
    return CheckResult(
        name,
        True,
        f"measured {measured:.3f} vs {formula} = {predicted:.3f} "
        f"(ratio {ratio:.2f})",
    )


def check_design_algebra() -> list[CheckResult]:
    """Pin/area algebra of the optimal WSA and SPA designs.

    The published operating points must be feasible, *tight* (one more
    PE breaks a constraint), and satisfy the paper's R/N identity.
    """
    from repro.core.spa import SPAModel
    from repro.core.technology import PAPER_TECHNOLOGY
    from repro.core.wsa import WSADesign, WSAModel

    results = []
    tech = PAPER_TECHNOLOGY
    wsa = WSAModel(tech).optimal_design()
    if not wsa.is_feasible():
        results.append(
            CheckResult(
                "design/wsa-feasible",
                False,
                f"optimal WSA violates constraints: {wsa.infeasibility_reasons()}",
            )
        )
    else:
        bumped = WSADesign(
            technology=tech,
            lattice_size=wsa.lattice_size,
            pes_per_chip=wsa.pes_per_chip + 1,
            pipeline_depth=wsa.pipeline_depth,
        )
        tight = not bumped.is_feasible()
        results.append(
            CheckResult(
                "design/wsa-feasible",
                tight,
                f"P={wsa.pes_per_chip}, L={wsa.lattice_size}: pins "
                f"{wsa.pins_used}/{tech.Pi}, area {wsa.chip_area_used:.4f}/1"
                + ("" if tight else " — but P+1 is still feasible (not optimal)"),
            )
        )
    spa = SPAModel(tech).optimal_design(lattice_size=785)
    if not spa.is_feasible():
        results.append(
            CheckResult(
                "design/spa-feasible",
                False,
                f"optimal SPA violates constraints: {spa.infeasibility_reasons()}",
            )
        )
    else:
        identity_ok = math.isclose(
            spa.throughput_per_chip,
            tech.F * spa.pes_wide * spa.pes_deep,
            rel_tol=1e-9,
        )
        results.append(
            CheckResult(
                "design/spa-feasible",
                identity_ok,
                f"P_w={spa.pes_wide}, P_k={spa.pes_deep}, W={spa.slice_width}: "
                f"pins {spa.pins_used}/{tech.Pi}, area {spa.chip_area_used:.4f}/1, "
                "R/N = F*Pw*Pk "
                + ("holds" if identity_ok else "VIOLATED"),
            )
        )
    return results

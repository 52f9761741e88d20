"""The built-in machine catalog: the paper's four architectures.

Importing this module (which :mod:`repro.machines` does) registers one
:class:`~repro.machines.spec.MachineSpec` per architecture, binding

* the engine simulator (:mod:`repro.engines`),
* the closed-form design model (:mod:`repro.core.wsa` /
  :mod:`repro.core.spa` / :mod:`repro.core.wsa_e`),
* exact predicted cycle counts the simulators must reproduce, and
* the capability flags (tickwise, side channels, graceful
  degradation).

The predicted-ticks formulas mirror the pass loop of
:class:`~repro.engines.streaming_core.StreamingEngineCore`: a run of
``G`` generations takes ``⌈G / k⌉`` passes, and every generation
contributes one stage drain, so the totals below are exact — the
registry round-trip tests assert ``stats.ticks`` equality, not a
bound.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.comparison import (
    ArchitectureSummary,
    compare_extensible,
    compare_optimal_designs,
)
from repro.core.design_space import DesignCurve
from repro.core.spa import SPAModel
from repro.core.technology import ChipTechnology
from repro.core.wsa import WSADesign, WSAModel
from repro.core.wsa_e import WSAEModel
from repro.engines.extensible import ExtensibleSerialEngine
from repro.engines.partitioned import PartitionedEngine
from repro.engines.pipeline import SerialPipelineEngine
from repro.engines.streaming_core import StreamingEngineCore
from repro.engines.wide_serial import WideSerialEngine
from repro.machines.registry import register
from repro.machines.spec import MachineCapabilities, MachineSpec

__all__ = ["SERIAL", "WSA", "SPA", "WSA_E"]


def _passes(generations: int, pipeline_depth: int) -> int:
    """Passes needed to retire ``generations`` through a depth-k pipeline."""
    return -(-generations // pipeline_depth)


# -- predicted cycle counts (exact, per architecture) ----------------------------


def _serial_predicted_ticks(engine: StreamingEngineCore, generations: int) -> int:
    """⌈G/k⌉ streaming passes of n sites plus one stage drain per generation."""
    if generations <= 0:
        return 0
    passes = _passes(generations, engine.pipeline_depth)
    return passes * engine.num_sites + generations * engine.stage.latency_ticks


def _wsa_predicted_ticks(engine: StreamingEngineCore, generations: int) -> int:
    """Serial timing compressed by P: ⌈n/P⌉ per pass, ⌈latency/P⌉ per drain."""
    assert isinstance(engine, WideSerialEngine)
    if generations <= 0:
        return 0
    passes = _passes(generations, engine.pipeline_depth)
    stream = math.ceil(engine.num_sites / engine.lanes)
    drain = math.ceil(engine.stage.latency_ticks / engine.lanes)
    return passes * stream + generations * drain


def _spa_predicted_ticks(engine: StreamingEngineCore, generations: int) -> int:
    """rows·W per pass round (slices stream in parallel), W+1 per drain.

    With failed slices the survivors take the dead slices' work
    round-robin: ``⌈slices / healthy⌉`` rounds per pass.
    """
    assert isinstance(engine, PartitionedEngine)
    if generations <= 0:
        return 0
    passes = _passes(generations, engine.pipeline_depth)
    widest = min(engine.slice_width, engine.model.cols)
    rounds = math.ceil(engine.num_slices / engine.num_healthy_slices)
    return passes * rounds * engine.model.rows * widest + generations * (widest + 1)


def _peak_updates_per_tick(engine: StreamingEngineCore) -> float:
    """Architectural peak: each PE retires at most one update per tick."""
    return float(engine.num_pes)


# -- closed-form design summaries ------------------------------------------------


def _serial_design(
    technology: ChipTechnology, lattice_size: int | None
) -> Mapping[str, object]:
    """The serial pipeline is the P = 1 point of the WSA design plane."""
    model = WSAModel(technology)
    size = lattice_size if lattice_size is not None else model.max_lattice_size(1)
    design = WSADesign(technology=technology, lattice_size=size, pes_per_chip=1)
    return {
        "design_model": "WSAModel (P = 1)",
        "lattice_size": design.lattice_size,
        "pes_per_chip": design.pes_per_chip,
        "pins_used": design.pins_used,
        "pin_budget": technology.Pi,
        "chip_area_used": design.chip_area_used,
        "feasible": design.is_feasible(),
        "updates_per_chip_per_second": design.updates_per_chip_per_second,
        "main_memory_bandwidth_bits_per_tick": (
            design.main_memory_bandwidth_bits_per_tick
        ),
    }


def _wsa_design(
    technology: ChipTechnology, lattice_size: int | None
) -> Mapping[str, object]:
    """The throughput-optimal WSA corner (P = 4, L = 785 for the paper)."""
    model = WSAModel(technology)
    design = model.optimal_design()
    if lattice_size is not None:
        design = WSADesign(
            technology=technology,
            lattice_size=lattice_size,
            pes_per_chip=design.pes_per_chip,
        )
    corner = model.corner()
    return {
        "design_model": "WSAModel",
        "lattice_size": design.lattice_size,
        "pes_per_chip": design.pes_per_chip,
        "pins_used": design.pins_used,
        "pin_budget": technology.Pi,
        "chip_area_used": design.chip_area_used,
        "feasible": design.is_feasible(),
        "updates_per_chip_per_second": design.updates_per_chip_per_second,
        "main_memory_bandwidth_bits_per_tick": (
            design.main_memory_bandwidth_bits_per_tick
        ),
        "corner": {"lattice_size": corner.x, "pes_per_chip": corner.p},
    }


def _spa_design(
    technology: ChipTechnology, lattice_size: int | None
) -> Mapping[str, object]:
    """The pin-optimal SPA split at the WSA-optimal lattice by default."""
    size = (
        lattice_size
        if lattice_size is not None
        else WSAModel(technology).optimal_design().lattice_size
    )
    design = SPAModel(technology).optimal_design(lattice_size=size)
    return {
        "design_model": "SPAModel",
        "lattice_size": design.lattice_size,
        "slice_width": design.slice_width,
        "pes_wide": design.pes_wide,
        "pes_deep": design.pes_deep,
        "pes_per_chip": design.pes_per_chip,
        "pins_used": design.pins_used,
        "pin_budget": technology.Pi,
        "chip_area_used": design.chip_area_used,
        "feasible": design.is_feasible(),
        "throughput_per_chip": design.throughput_per_chip,
        "main_memory_bandwidth_bits_per_tick": (
            design.main_memory_bandwidth_bits_per_tick
        ),
        "storage_area_per_pe": design.storage_area_per_pe,
    }


def _wsa_e_design(
    technology: ChipTechnology, lattice_size: int | None
) -> Mapping[str, object]:
    """The extensible design at a large lattice (L = 1000 by default)."""
    size = lattice_size if lattice_size is not None else 1000
    design = WSAEModel(technology).design(lattice_size=size)
    return {
        "design_model": "WSAEModel",
        "lattice_size": design.lattice_size,
        "pes_per_chip": design.pes_per_chip,
        "pins_used": design.pins_used,
        "pin_budget": technology.Pi,
        "feasible": design.is_feasible(),
        "delay_sites_per_stage": design.delay_sites_per_stage,
        "storage_area_per_pe": design.storage_area_per_pe,
        "storage_area_per_pe_commercial": design.storage_area_per_pe_commercial,
        "update_rate": design.update_rate,
        "main_memory_bandwidth_bits_per_tick": (
            design.main_memory_bandwidth_bits_per_tick
        ),
    }


# -- design curves and comparison rows -------------------------------------------


def _wsa_curves(technology: ChipTechnology) -> list[DesignCurve]:
    """The (L, P) constraint curves of the section 6.1 figure."""
    return WSAModel(technology).design_curves()


def _spa_curves(technology: ChipTechnology) -> list[DesignCurve]:
    """The (W, P) constraint curves of the section 6.2 figure."""
    return SPAModel(technology).design_curves()


def _wsa_summary(
    technology: ChipTechnology, lattice_size: int
) -> ArchitectureSummary:
    """WSA comparison row, always at its own optimal operating point."""
    return compare_optimal_designs(technology).wsa_summary


def _spa_summary(
    technology: ChipTechnology, lattice_size: int
) -> ArchitectureSummary:
    """SPA comparison row at the WSA-optimal lattice (the E5 pairing)."""
    return compare_optimal_designs(technology).spa_summary


def _wsa_e_summary(
    technology: ChipTechnology, lattice_size: int
) -> ArchitectureSummary:
    """WSA-E comparison row at the requested lattice (the E6 pairing)."""
    wsa_e = compare_extensible(
        lattice_size=lattice_size, technology=technology
    ).wsa_e
    return ArchitectureSummary(
        name="WSA-E",
        pes_per_chip=wsa_e.pes_per_chip,
        throughput_per_chip=technology.F,
        bandwidth_bits_per_tick=wsa_e.main_memory_bandwidth_bits_per_tick,
        storage_area_per_pe=wsa_e.storage_area_per_pe,
        lattice_size=wsa_e.lattice_size,
        access_pattern="strict raster scan",
        extensible=True,
        notes="delay line off-chip; 1 PE/chip by pin constraint",
    )


# -- the registry entries --------------------------------------------------------

SERIAL = register(
    MachineSpec(
        name="serial",
        title="Serial pipelined architecture",
        paper_section="3",
        engine_cls=SerialPipelineEngine,
        capabilities=MachineCapabilities(),
        parameters=(
            "pipeline_depth",
            "clock_hz",
            "post_collide",
            "recorder",
        ),
        design_summary=_serial_design,
        predicted_ticks=_serial_predicted_ticks,
        steady_updates_per_tick=_peak_updates_per_tick,
    )
)

WSA = register(
    MachineSpec(
        name="wsa",
        title="Wide serial architecture",
        paper_section="4",
        engine_cls=WideSerialEngine,
        capabilities=MachineCapabilities(),
        parameters=(
            "lanes",
            "pipeline_depth",
            "clock_hz",
            "post_collide",
            "recorder",
        ),
        design_summary=_wsa_design,
        predicted_ticks=_wsa_predicted_ticks,
        steady_updates_per_tick=_peak_updates_per_tick,
        design_curves=_wsa_curves,
        summary=_wsa_summary,
    )
)

SPA = register(
    MachineSpec(
        name="spa",
        title="Sternberg partitioned architecture",
        paper_section="5",
        engine_cls=PartitionedEngine,
        capabilities=MachineCapabilities(
            tickwise=False, side_channel=True, degradable=True
        ),
        parameters=(
            "slice_width",
            "pipeline_depth",
            "clock_hz",
            "post_collide",
            "failed_slices",
            "recorder",
        ),
        default_params={"slice_width": 8},
        design_summary=_spa_design,
        predicted_ticks=_spa_predicted_ticks,
        steady_updates_per_tick=_peak_updates_per_tick,
        design_curves=_spa_curves,
        summary=_spa_summary,
    )
)

WSA_E = register(
    MachineSpec(
        name="wsa-e",
        title="Extensible serial architecture (off-chip delay)",
        paper_section="6.3",
        engine_cls=ExtensibleSerialEngine,
        capabilities=MachineCapabilities(),
        parameters=(
            "pipeline_depth",
            "commercial_density",
            "clock_hz",
            "post_collide",
            "recorder",
        ),
        design_summary=_wsa_e_design,
        predicted_ticks=_serial_predicted_ticks,
        steady_updates_per_tick=_peak_updates_per_tick,
        summary=_wsa_e_summary,
    )
)

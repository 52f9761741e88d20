"""Functional + cycle-level simulators of the paper's engine architectures.

Each engine consumes lattice frames as raster streams and advances them
through a pipeline of processing stages, exactly as the hardware of
sections 3–5 does:

* :mod:`repro.engines.pe` — the site-update rule a PE implements
  (collision lookup + stream-coordinate neighborhood gather).
* :mod:`repro.engines.shiftreg` — the delay-line storage model; the
  tick-accurate stage uses it and *proves by construction* that the
  paper's ``2L + 3``-site window suffices.
* :mod:`repro.engines.streaming_core` — the shared
  :class:`StreamingEngineCore` base: one ``run()`` loop that streams
  every site through the PE stage, fault-hook plumbing, and stats
  production for all engines.
* :mod:`repro.engines.pipeline` — the serial pipelined architecture
  (section 3): one site per tick, k chained stages.
* :mod:`repro.engines.wide_serial` — the WSA (section 4): P sites per
  tick per stage.
* :mod:`repro.engines.partitioned` — the SPA (section 5): columnar
  slices with synchronous side channels.
* :mod:`repro.engines.extensible` — the WSA-E (section 6.3): off-chip
  delay lines at commercial memory density.
* :mod:`repro.engines.memory` — main-memory / host bandwidth accounting.
* :mod:`repro.engines.stats` — cycle, I/O-bit, and throughput reports.

All engines are verified bit-identical against the reference
:class:`repro.lgca.automaton.LatticeGasAutomaton` by the integration
tests (experiment E11).  The machine registry in :mod:`repro.machines`
pairs each engine with its closed-form design model; new code should
construct engines through it rather than importing classes from here.
"""

from repro.engines.pe import SiteUpdateRule, StreamStencil
from repro.engines.shiftreg import ShiftRegister, WindowOverrunError
from repro.engines.streaming_core import StreamingEngineCore
from repro.engines.pipeline import PipelineStage, SerialPipelineEngine
from repro.engines.wide_serial import WideSerialEngine
from repro.engines.partitioned import PartitionedEngine, SliceExchangeRecord
from repro.engines.extensible import ExtensibleSerialEngine
from repro.engines.ca_pipeline import CAPipelineEngine
from repro.engines.streaming import StreamingRowUpdater, stream_rows
from repro.engines.memory import MainMemory, HostInterface
from repro.engines.stats import EngineRunStats, ThroughputReport

__all__ = [
    "SiteUpdateRule",
    "StreamStencil",
    "ShiftRegister",
    "WindowOverrunError",
    "StreamingEngineCore",
    "PipelineStage",
    "SerialPipelineEngine",
    "WideSerialEngine",
    "PartitionedEngine",
    "SliceExchangeRecord",
    "ExtensibleSerialEngine",
    "CAPipelineEngine",
    "StreamingRowUpdater",
    "stream_rows",
    "MainMemory",
    "HostInterface",
    "EngineRunStats",
    "ThroughputReport",
]

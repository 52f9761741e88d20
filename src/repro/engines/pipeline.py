"""The serial pipelined architecture (section 3).

One stage = one PE + one delay line.  Sites of generation ``t`` enter as
a raster stream, one per tick; the stage collides each site as it
arrives, holds collided values in a ``2L + 3``-site shift register, and
assembles the stream of generation ``t+1`` with a fixed latency of
``L + 1`` ticks.  ``k`` chained stages advance the lattice ``k``
generations per pass with *no additional main-memory traffic* — "each
succeeding PE using the data from the previous PE without the need for
further external data".

Two implementations of a stage:

* :meth:`PipelineStage.process` — vectorized (NumPy slice shifts), used by
  benches.
* :meth:`PipelineStage.process_tickwise` — a genuine tick-by-tick
  simulation through :class:`repro.engines.shiftreg.ShiftRegister` whose
  hard capacity *proves* the window size claim.

The equivalence of the two, and of both against the reference
automaton, is experiment E11.

The stage model and the shared pass loop live in
:mod:`repro.engines.streaming_core`; this module re-exports
:class:`PipelineStage` from there and contributes only the serial
geometry (which *is* the base class's default).
"""

from __future__ import annotations

from repro.engines.streaming_core import (
    PipelineStage,  # re-exported: pre-registry code imports it from here
    StreamingEngineCore,
)

__all__ = ["PipelineStage", "SerialPipelineEngine"]


class SerialPipelineEngine(StreamingEngineCore):
    """A k-stage serial pipeline over a lattice model.

    The serial machine is the base architecture: one lane, one site per
    tick, ``2L + 3`` delay sites and one PE-chip per stage — exactly the
    defaults of :class:`~repro.engines.streaming_core.StreamingEngineCore`,
    whose constructor parameters (``model``, ``pipeline_depth``,
    ``clock_hz``, ``post_collide``, ``recorder``) and :meth:`run` it
    inherits unchanged.
    """

    @property
    def name(self) -> str:
        """Engine identifier used in stats and tables."""
        return f"serial-pipeline(k={self.pipeline_depth})"

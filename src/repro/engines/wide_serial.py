"""The wide-serial architecture engine (section 4).

A WSA stage is a serial pipeline stage with ``P`` lanes: every tick it
accepts ``P`` consecutive stream sites, updates ``P`` sites, and emits
``P`` sites to the next stage.  The delay line grows only by the
incremental window ("the most attractive feature of this scheme is that
performance is increased, but at a cost of only the incremental amount
of memory needed to store the extra sites"), while the stream pins and
main-memory bandwidth grow linearly in P — the trade the design model in
:mod:`repro.core.wsa` quantifies.

Functionally a WSA stage computes exactly what the serial stage
computes; the lane structure changes *timing and bandwidth*, which is
what this engine accounts for (and the integration tests check the
functional part against the reference automaton).  The pass loop and
all cross-cutting plumbing come from
:class:`~repro.engines.streaming_core.StreamingEngineCore`; this module
adds only the lane geometry and the lane-accurate tickwise stage.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engines.pe import PostCollideHook
from repro.engines.shiftreg import ShiftRegister
from repro.engines.streaming_core import StreamingEngineCore
from repro.lgca.automaton import SiteModel
from repro.telemetry import Recorder
from repro.util.validation import check_positive

__all__ = ["WideSerialEngine"]


class WideSerialEngine(StreamingEngineCore):
    """A k-stage, P-lane wide-serial pipeline.

    Parameters
    ----------
    model:
        Reference model (null boundary, deterministic chirality).
    lanes:
        P — site updates per stage per tick.
    pipeline_depth:
        k — stages in series (one chip per stage).
    clock_hz:
        Major cycle rate.
    post_collide:
        Optional fault-injection hook applied at every PE output.
    """

    def __init__(
        self,
        model: SiteModel,
        lanes: int = 2,
        pipeline_depth: int = 1,
        clock_hz: float = 10e6,
        post_collide: PostCollideHook | None = None,
        recorder: "Recorder | None" = None,
    ):
        self.lanes = check_positive(lanes, "lanes", integer=True)
        super().__init__(
            model,
            pipeline_depth=pipeline_depth,
            clock_hz=clock_hz,
            post_collide=post_collide,
            recorder=recorder,
        )

    @property
    def name(self) -> str:
        """Engine identifier used in stats and tables."""
        return f"wide-serial(P={self.lanes},k={self.pipeline_depth})"

    @property
    def storage_sites_per_stage(self) -> int:
        """The paper's 2L + 7P + 3 budget.

        The serial window is 2L + 3; each extra lane adds 7 cells (its
        own hexagonal window taps, one column further along the stream).
        """
        return self.stage.storage_sites + 7 * (self.lanes - 1)

    @property
    def storage_sites(self) -> int:
        """Total delay-line site values across all stages."""
        return self.pipeline_depth * self.storage_sites_per_stage

    @property
    def num_pes(self) -> int:
        """P lanes on each of the k stage chips."""
        return self.pipeline_depth * self.lanes

    def ticks_per_pass(self, span: int) -> int:
        """Stream the frame through ``span`` stages at P sites per tick."""
        n_ticks_stream = math.ceil(self.num_sites / self.lanes)
        lane_latency = math.ceil(self.stage.latency_ticks / self.lanes)
        return n_ticks_stream + span * lane_latency

    def _advance_stream(
        self, stream: np.ndarray, generation: int, tickwise: bool
    ) -> np.ndarray:
        """One stage; the tickwise path is the lane-accurate simulation."""
        if tickwise:
            # Lane-accurate diagnostic path, not a streaming rate model.
            return self.process_stage_tickwise(stream, generation)
        return self.stage.process(stream, generation)

    def process_stage_tickwise(
        self, stream: np.ndarray, generation: int
    ) -> np.ndarray:
        """Lane-accurate tick simulation of one WSA stage.

        Per tick, ``P`` consecutive collided sites enter the shared
        delay line and ``P`` lanes each assemble one output site from
        their taps.  The hard register capacity is ``2L + 3 + (P − 1)``
        — the serial window plus one cell per extra lane — proving by
        construction that the *cells* needed grow only by P − 1.  (The
        paper's area term ``2L + 7P + 3`` is larger because its layout
        replicates the 7 window taps into per-PE latches: a shift-
        register cell has one read port, so P lanes reading 7 taps each
        buy their bandwidth with copies, not extra delay.)
        """
        stream = np.asarray(stream)
        n = stream.size
        stencil = self.stage.rule.stencil
        cols = stencil.cols
        reach = stencil.window_reach()
        lanes = self.lanes
        capacity = 2 * reach + 1 + (lanes - 1)
        line = ShiftRegister(capacity=capacity)
        out = np.zeros_like(stream)
        # per tick: push `lanes` collided inputs, emit `lanes` outputs;
        # output block at tick τ is [τP − reach, (τ+1)P − 1 − reach],
        # whose oldest source has age 2·reach + P − 1 — exactly capacity.
        total_ticks = -(-(n + reach) // lanes)
        pushed = 0
        for tick in range(total_ticks):
            for _ in range(lanes):
                if pushed < n:
                    r, c = divmod(pushed, cols)
                    collided = int(
                        self.stage.collide_sites(
                            np.array([stream[pushed]]),
                            np.array([r]),
                            np.array([c]),
                            generation,
                        )[0]
                    )
                    line.push(collided)
                else:
                    line.push(0)
                pushed += 1
            base = tick * lanes - reach
            for lane in range(lanes):
                s_out = base + lane
                if not 0 <= s_out < n:
                    continue
                r, c = divmod(s_out, cols)
                value = 0
                for ch in range(stencil.num_moving_channels):
                    src = stencil.source_index(r, c, ch)
                    if src is None:
                        continue
                    flat = src[0] * cols + src[1]
                    age = (pushed - 1) - flat
                    if (line.tap(age) >> ch) & 1:
                        value |= 1 << ch
                for ch in stencil.self_channels:
                    age = (pushed - 1) - s_out
                    if (line.tap(age) >> ch) & 1:
                        value |= 1 << ch
                out[s_out] = value
        return out

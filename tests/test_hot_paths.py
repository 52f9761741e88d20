"""Run-time allocation gate for every streaming hot path.

The paper's engines, CAM-8 and the GPU lattice-gas codes in PAPERS.md
are all bound by memory traffic, so a hot path that allocates a
lattice-sized temporary per generation quietly turns a kernel benchmark
into an allocator benchmark.  Each case below calls one hot path warm
at two lattice sizes under ``tracemalloc`` and asserts three things:

* **The traced peak does not grow with the lattice.**
  ``peak(LARGE) - peak(SMALL) <= allowance * (sites(LARGE) -
  sites(SMALL)) + SLACK``.  A fixed constant (NumPy's ufunc buffers,
  Python ints, array view objects) cancels in the difference, so the
  bound needs no per-case tuning and any O(sites) temporary fails it,
  wherever in the call chain it hides.
* **Nothing is kept.**  Bytes still traced after the call returns stay
  under ``MAX_RETAINED`` (state that grows call by call).
* **Nothing is printed or logged.**

The allowance is 0 B/site for every case except random chirality,
which gets 1/8 B/site: ``np.random.Philox.random_raw`` has no ``out=``,
so each generation's draw is a fresh word per 64 sites.

Sizes: below 1024x1024 the bit-plane kernel's peak still grows (87,872
B at 512x512, 198,416 B at 1024x1024, 198,704 B at 2048x1024).  That is
NumPy's fixed ufunc buffer, 3 operands x 8192 elements x 8 B, taken by
``dst[:, 1:] |= carry[:, :-1]`` in ``_shift_cols_into`` (an unaligned
in-place operation); it stops growing once a plane holds at least 8192
words, which both sizes here do.

The parameter list is the registry of hot paths: a new one gets a case
here.  The cases together cover HPP, FHP-6 and FHP-7; periodic, null
and reflecting boundaries; an obstacle mask; and both ``alternate`` and
``random`` chirality.
"""

import itertools
import logging
import tracemalloc

import numpy as np
import pytest

from repro import machines
from repro.engines.pe import make_rule
from repro.engines.streaming_core import PipelineStage
from repro.lgca.backends import make_stepper
from repro.lgca.bitplane import BitplaneKernel
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import ShardRunner, plan_shards

KIB = 1 << 10
SMALL = (1024, 1024)
LARGE = (2048, 1024)
SLACK = 16 * KIB
MAX_RETAINED = 1 * KIB
#: B/site for the Philox words of a random-chirality generation.
PHILOX = 1 / 8


def warm_peak(call):
    """Two warm-up calls, then one traced call: ``(peak, retained)`` bytes."""
    call()
    call()
    tracemalloc.start()
    try:
        call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained


def check_hot_path(build, allowance, capsys, caplog):
    """The gate: ``build(rows, cols)`` returns the warm call to trace."""
    caplog.set_level(logging.DEBUG)
    (small_peak, small_kept), (large_peak, large_kept) = (
        warm_peak(build(*size)) for size in (SMALL, LARGE)
    )
    assert capsys.readouterr() == ("", ""), "a hot path printed"
    assert not caplog.records, "a hot path logged"
    growth = large_peak - small_peak
    bound = allowance * (LARGE[0] * LARGE[1] - SMALL[0] * SMALL[1]) + SLACK
    assert growth <= bound, (
        f"peak grew {small_peak:,} -> {large_peak:,} B with the lattice "
        f"(bound {bound:,.0f} B)"
    )
    assert max(small_kept, large_kept) <= MAX_RETAINED, (
        f"kept {max(small_kept, large_kept):,} B after returning"
    )


# -- case builders: each returns ``build(rows, cols) -> call`` -----------------


def _model(kind, rows, cols, **kw):
    if kind == "hpp":
        return HPPModel(rows, cols, **kw)
    return FHPModel(rows, cols, rest_particles=kind == "fhp7", **kw)


def _frame(model):
    rng = np.random.default_rng(7)
    return uniform_random_state(model.rows, model.cols, model.num_channels, 0.3, rng)


def _obstacle(rows, cols):
    mask = np.zeros((rows, cols), dtype=bool)
    mask[rows // 4 : rows // 4 + 40, cols // 4 : cols // 4 + 40] = True
    return mask


def _kernel(method, kind, obstacle=False, **model_kw):
    def build(rows, cols):
        model = _model(kind, rows, cols, **model_kw)
        kernel = BitplaneKernel(model, _obstacle(rows, cols) if obstacle else None)
        planes = (kernel.pack(_frame(model)), kernel.alloc_planes())
        generation = itertools.count()

        def call():
            t = next(generation)
            src, dst = planes[t % 2], planes[1 - t % 2]
            if method == "propagate_into":
                kernel.propagate_into(src, dst)
            else:
                getattr(kernel, method)(src, dst, t)

        return call

    return build


def _stepper(backend, kind, obstacle=False, **model_kw):
    def build(rows, cols):
        model = _model(kind, rows, cols, **model_kw)
        mask = _obstacle(rows, cols) if obstacle else None
        stepper = make_stepper(model, obstacles=mask, backend=backend)
        stepper.load(_frame(model))
        generation = itertools.count()
        return lambda: stepper.advance(next(generation))

    return build


def _shard(backend, kind):
    def build(rows, cols):
        spec = ModelSpec(kind=kind, rows=rows, cols=cols)
        shard = plan_shards(rows, 2)[0]
        init = spec.initial_state(0.3, 4)[shard.row_start : shard.row_stop]
        model = spec.build(rows=shard.local_rows)
        return ShardRunner(model, shard, init, backend=backend).step

    return build


def _streamed(advance, model):
    """Chain ``stream = advance(stream, t)`` one generation per call."""
    stream = [_frame(model).ravel()]
    generation = itertools.count()

    def call():
        stream[0] = advance(stream[0], next(generation))

    return call


def _stage(kind):
    def build(rows, cols):
        model = _model(kind, rows, cols, boundary="null")
        return _streamed(PipelineStage(make_rule(model)).process, model)

    return build


def _engine(name, kind="fhp6", **params):
    def build(rows, cols):
        model = _model(kind, rows, cols, boundary="null")
        engine = machines.create(name, model, **params)
        return _streamed(lambda s, t: engine._advance_stream(s, t, False), model)

    return build


CASES = [
    pytest.param(_kernel("step_into", "fhp6"), 0, id="BitplaneKernel.step_into-fhp6-periodic"),
    pytest.param(
        _kernel("step_into", "fhp7", obstacle=True, boundary="reflecting", chirality="random"),
        PHILOX,
        id="BitplaneKernel.step_into-fhp7-reflecting-obstacle-random",
    ),
    pytest.param(
        _kernel("collide_into", "hpp", obstacle=True, boundary="null"),
        0,
        id="BitplaneKernel.collide_into-hpp-null-obstacle",
    ),
    pytest.param(
        _kernel("propagate_into", "hpp", boundary="reflecting"),
        0,
        id="BitplaneKernel.propagate_into-hpp-reflecting",
    ),
    pytest.param(
        _kernel("propagate_into", "fhp7", boundary="null"),
        0,
        id="BitplaneKernel.propagate_into-fhp7-null",
    ),
    pytest.param(_stepper("bitplane", "fhp6"), 0, id="BitplaneStepper.advance-fhp6-periodic"),
    pytest.param(
        _stepper("reference", "fhp7", chirality="random"),
        PHILOX,
        id="ReferenceStepper.advance-fhp7-periodic-random",
    ),
    pytest.param(_stepper("reference", "fhp7"), 0, id="ReferenceStepper.advance-fhp7-periodic"),
    pytest.param(
        _stepper("reference", "fhp7", obstacle=True),
        0,
        id="ReferenceStepper.advance-fhp7-periodic-obstacle",
    ),
    pytest.param(
        _stepper("reference", "fhp7", obstacle=True, boundary="reflecting"),
        0,
        id="ReferenceStepper.advance-fhp7-reflecting-obstacle",
    ),
    pytest.param(_stepper("reference", "hpp"), 0, id="ReferenceStepper.advance-hpp-periodic"),
    pytest.param(
        _stepper("reference", "hpp", boundary="reflecting"),
        0,
        id="ReferenceStepper.advance-hpp-reflecting",
    ),
    pytest.param(_shard("bitplane", "fhp7"), 0, id="ShardRunner.step-bitplane-fhp7"),
    pytest.param(_shard("reference", "fhp6"), 0, id="ShardRunner.step-reference-fhp6"),
    pytest.param(_stage("fhp6"), 0, id="PipelineStage.process-fhp6-null"),
    pytest.param(_engine("serial", "hpp"), 0, id="_advance_stream-serial-hpp"),
    pytest.param(_engine("wsa", lanes=4), 0, id="_advance_stream-wsa-fhp6"),
    pytest.param(_engine("spa", slice_width=32), 0, id="_advance_stream-spa-fhp6"),
    pytest.param(_engine("wsa-e", "fhp7"), 0, id="_advance_stream-wsa-e-fhp7"),
]


@pytest.mark.parametrize("build, allowance", CASES)
def test_hot_path(build, allowance, capsys, caplog):
    check_hot_path(build, allowance, capsys, caplog)


# -- self-tests: the gate rejects what the retired lint rules flagged ---------

logger = logging.getLogger(__name__)


def _make_scratch(n):
    return np.zeros(n, dtype=np.uint8)


def _prepare(field):
    return _make_scratch(field.size)


class HiddenAllocKernel:
    """A lattice-sized scratch per call, allocated two calls deep."""

    def __init__(self, rows, cols):
        self.src = np.ones(rows * cols, dtype=np.uint8)
        self.dst = np.empty_like(self.src)

    def step_into(self):
        np.bitwise_or(self.src, _prepare(self.src), out=self.dst)


class ChattyKernel:
    """Copies ``src`` to ``dst`` with one impure habit on the side."""

    def __init__(self, rows, cols, habit):
        self.src = np.ones(rows * cols, dtype=np.uint8)
        self.dst = np.empty_like(self.src)
        self.habit = habit
        self.history = []

    def step_into(self):
        if self.habit == "print":
            print("stepping")
        elif self.habit == "log":
            logger.debug("stepping")
        else:
            self.history.append(self.src[: 4 * KIB].copy())
        np.copyto(self.dst, self.src)


@pytest.mark.parametrize(
    "build, reason",
    [
        pytest.param(
            lambda r, c: HiddenAllocKernel(r, c).step_into, "peak grew", id="hidden-alloc"
        ),
        pytest.param(lambda r, c: ChattyKernel(r, c, "print").step_into, "printed", id="print"),
        pytest.param(lambda r, c: ChattyKernel(r, c, "log").step_into, "logged", id="log"),
        pytest.param(lambda r, c: ChattyKernel(r, c, "grow").step_into, "kept", id="grow"),
    ],
)
def test_gate_rejects_a_misbehaving_kernel(build, reason, capsys, caplog):
    with pytest.raises(AssertionError, match=reason):
        check_hot_path(build, 0, capsys, caplog)


def test_gate_rejects_a_random_chirality_leak_above_the_philox_words(capsys, caplog):
    """2 B/site, the old reference random-chirality offset, exceeds 1/8."""

    def build(rows, cols):
        return lambda: np.zeros(2 * rows * cols, dtype=np.uint8)

    with pytest.raises(AssertionError, match="peak grew"):
        check_hot_path(build, PHILOX, capsys, caplog)

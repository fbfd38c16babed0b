"""One launch body: ``mmo_tiled``, ``execute_compiled`` and graph nodes agree.

All three dispatch paths run :func:`repro.runtime.kernels._launch`, so a
launch looks the same on the trace and fails with the same typed error
whichever door it came through.  A one-split ``mmo_tiled_split_k`` is a
single :class:`~repro.sched.graph.LaunchStep` run by the scheduler, which
stands in for every graph-built launch here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.base import (
    BackendError,
    capable_backends,
    get_backend,
    is_planning_backend,
    list_backends,
)
from repro.compile.lower import resolve_opcode
from repro.core import SEMIRINGS
from repro.plan.autotune import AutotuneTable
from repro.runtime import ExecutionContext, Trace
from repro.runtime.api import RuntimeError_
from repro.runtime.context import resolve_context
from repro.runtime.kernels import (
    OperandValidationError,
    compile_in_context,
    execute_compiled,
    mmo_tiled,
    mmo_tiled_split_k,
)
from tests.conftest import make_ring_inputs


def _incapable_pair() -> tuple[str, str]:
    """A (concrete backend, ring) pair the backend declares it cannot run."""
    for ring in sorted(SEMIRINGS):
        capable = set(capable_backends(ring))
        for name in list_backends():
            if name not in capable and not is_planning_backend(get_backend(name)):
                return name, ring
    pytest.skip("every registered backend runs every ring")


def _via_mmo_tiled(ring, a, b, c, ctx):
    return mmo_tiled(ring, a, b, c, context=ctx)


def _via_execute_compiled(ring, a, b, c, ctx):
    # The artifact is backend-agnostic: lower it on the vectorized backend
    # so an incapable context backend is rejected at launch, not compile.
    opcode = resolve_opcode(ring)
    compiled, _ = compile_in_context(
        ctx, get_backend("vectorized"), opcode, 16, 16, 16,
        has_accumulator=c is not None,
    )
    return execute_compiled(compiled, a, b, c, context=ctx)


def _via_graph_node(ring, a, b, c, ctx):
    out, stats = mmo_tiled_split_k(ring, a, b, c, splits=1, context=ctx)
    return out, stats[0]


ENTRIES = {
    "mmo_tiled": _via_mmo_tiled,
    "execute_compiled": _via_execute_compiled,
    "graph_node": _via_graph_node,
}


def _record_fields(record):
    return (
        record.backend, record.ring, record.shape, record.tiles,
        record.optimizer_removed,
    )


@pytest.mark.parametrize("backend", ["vectorized", "emulate", "auto"])
@pytest.mark.parametrize("ring_name", ["min-plus", "plus-mul", "or-and"])
def test_same_launch_record_on_every_path(backend, ring_name, rng):
    # No accumulator: split-k folds C in a reduce node, not in its launch.
    a, b, c = make_ring_inputs(
        SEMIRINGS[ring_name], 16, 16, 16, rng, with_c=False
    )
    fields = {}
    results = {}
    for entry, launch in ENTRIES.items():
        trace = Trace()
        # A private cold table per path: "auto" then ranks by the cost
        # model alone, so every path plans the same backend.
        ctx = resolve_context(ExecutionContext(
            backend=backend, trace=trace, autotune=AutotuneTable()
        ))
        out, stats = launch(ring_name, a, b, c, ctx)
        assert len(trace.records) == 1, entry
        fields[entry] = _record_fields(trace.records[0])
        results[entry] = (out, stats.tiles_m, stats.tiles_n, stats.tiles_k)
    assert len(set(fields.values())) == 1, fields
    concrete = fields["mmo_tiled"][0]
    assert not is_planning_backend(get_backend(concrete))
    reference = results["mmo_tiled"]
    for entry, got in results.items():
        np.testing.assert_array_equal(got[0], reference[0], err_msg=entry)
        assert got[1:] == reference[1:], entry


def _poisoned(ring_name, rng):
    a, b, c = make_ring_inputs(SEMIRINGS[ring_name], 16, 16, 16, rng)
    a[2, 3] = np.nan
    return a, b, c


def _bad_accumulator(ring_name, rng):
    a, b, _ = make_ring_inputs(SEMIRINGS[ring_name], 16, 16, 16, rng)
    return a, b, np.zeros((16, 8))


class TestSameErrorOnEveryPath:
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_incapable_backend(self, entry, rng):
        backend, ring_name = _incapable_pair()
        a, b, c = make_ring_inputs(SEMIRINGS[ring_name], 16, 16, 16, rng)
        ctx = resolve_context(ExecutionContext(backend=backend))
        with pytest.raises(BackendError) as info:
            ENTRIES[entry](ring_name, a, b, c, ctx)
        assert type(info.value) is BackendError

    @pytest.mark.parametrize("backend", ["vectorized", "auto"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize(
        "make, error",
        [(_poisoned, OperandValidationError),
         (_bad_accumulator, OperandValidationError)],
        ids=["nan-min-plus", "bad-accumulator"],
    )
    def test_operand_rejections(self, make, error, entry, backend, rng):
        a, b, c = make("min-plus", rng)
        ctx = resolve_context(ExecutionContext(backend=backend))
        with pytest.raises(error) as info:
            ENTRIES[entry]("min-plus", a, b, c, ctx)
        assert type(info.value) is error


class TestErrorOrder:
    def test_bad_shapes_outrank_an_unknown_backend(self):
        with pytest.raises(RuntimeError_) as info:
            mmo_tiled(
                "min-plus", np.ones((4, 3)), np.ones((5, 4)),
                backend="no-such-backend",
            )
        assert type(info.value) is RuntimeError_
        assert "bad mmo operand shapes" in str(info.value)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_empty_output_on_incapable_backend(self, entry):
        backend, ring_name = _incapable_pair()
        ctx = resolve_context(ExecutionContext(backend=backend))
        a = np.ones((0, 16))
        b = np.ones((16, 16))
        with pytest.raises(BackendError):
            ENTRIES[entry](ring_name, a, b, None, ctx)

    def test_empty_output_records_a_degenerate_launch(self):
        trace = Trace()
        ctx = resolve_context(ExecutionContext(trace=trace))
        for launch in ENTRIES.values():
            out, stats = launch("min-plus", np.ones((0, 16)), np.ones((16, 16)),
                                None, ctx)
            assert out.shape == (0, 16)
            assert stats.mmo_instructions == 0
        assert [r.cache_hit for r in trace.records] == [None, None, None]

"""Every retry-policy knob holds on every recovery entry point.

One matrix: the knobs of :class:`RetryPolicy` and :class:`ExecutionBudget`
against the entry points that accept a retry policy — the single-device
fallback walk (``resilient_mmo``), the scheduler's retried launch nodes
(``mmo_tiled_multi_device(retry=…)`` under the serial and the thread-pool
executor) and ``resilient_closure`` on top of each.  Every run drops the
launch with fault ordinal 0 (band 0 on the multi-device paths) and reads
time from a :class:`VirtualClock`, so each cell is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import MmoBackend, register_backend
from repro.backends.base import _REGISTRY
from repro.core import SEMIRINGS, mmo
from repro.hw.device import Simd2Device
from repro.resilience import (
    BudgetExhausted,
    DeadlineExceeded,
    ExecutionBudget,
    FallbackChain,
    FaultPlan,
    InjectedFault,
    ResilienceExhausted,
    RetryPolicy,
    VirtualClock,
    resilient_closure,
    resilient_mmo,
)
from repro.runtime import ExecutionContext, OperandValidationError, Trace, closure
from repro.runtime.multidevice import mmo_tiled_multi_device
from repro.sched import ThreadPoolExecutor
from tests.conftest import make_ring_inputs

MIN_PLUS = SEMIRINGS["min-plus"]
A, B, _ = make_ring_inputs(
    MIN_PLUS, 32, 16, 32, np.random.default_rng(11), with_c=False
)


def _adjacency(n: int = 32) -> np.ndarray:
    rng = np.random.default_rng(5)
    adj = rng.integers(1, 9, size=(n, n)).astype(np.float64)
    adj[rng.random((n, n)) < 0.7] = np.inf
    np.fill_diagonal(adj, 0.0)
    return adj


ADJ = _adjacency()
NO_FALLBACK = FallbackChain(backends=(), fallback_on=(Exception,))


def _devices() -> list[Simd2Device]:
    return [Simd2Device(), Simd2Device()]


def _resilient_mmo(ctx, policy):
    result, _ = resilient_mmo(
        "min-plus", A, B, context=ctx, retry=policy, fallback=NO_FALLBACK
    )
    return result


def _multi_device(ctx, policy):
    result, _ = mmo_tiled_multi_device(
        "min-plus", A, B, devices=_devices(), context=ctx, retry=policy
    )
    return result


def _closure(ctx, policy):
    return resilient_closure(
        "min-plus", ADJ, context=ctx, retry=policy, fallback=NO_FALLBACK
    ).matrix


def _closure_on_devices(ctx, policy):
    return resilient_closure(
        "min-plus", ADJ, devices=_devices(), context=ctx, retry=policy
    ).matrix


#: (runner, scheduler) — every entry point that takes a retry policy.
ENTRY_POINTS = [
    pytest.param(_resilient_mmo, None, id="resilient_mmo"),
    pytest.param(_multi_device, None, id="multi_device-serial"),
    pytest.param(
        _multi_device, ThreadPoolExecutor(max_workers=2),
        id="multi_device-threaded",
    ),
    pytest.param(_closure, None, id="resilient_closure"),
    pytest.param(_closure_on_devices, None, id="resilient_closure-devices"),
    pytest.param(
        _closure_on_devices, ThreadPoolExecutor(max_workers=2),
        id="resilient_closure-devices-threaded",
    ),
]


def _expected(run) -> np.ndarray:
    if run in (_closure, _closure_on_devices):
        return closure("min-plus", ADJ, backend="vectorized").matrix
    return mmo("min-plus", A, B)


def _run(run, scheduler, policy, *, budget=None, backend="vectorized", plan=True):
    """``(clock, trace, call)`` for one cell; ``call()`` runs the entry point."""
    clock = VirtualClock()
    trace = Trace()
    ctx = ExecutionContext(
        backend=backend,
        fault_plan=FaultPlan(drop=(0,)) if plan else None,
        clock=clock,
        budget=budget,
        trace=trace,
        scheduler=scheduler,
    )
    return clock, trace, lambda: run(ctx, policy)


@pytest.mark.parametrize(("run", "scheduler"), ENTRY_POINTS)
class TestKnobMatrix:
    def test_retry_budget_of_zero_raises(self, run, scheduler):
        _clock, trace, call = _run(
            run, scheduler, RetryPolicy(),
            budget=ExecutionBudget(max_retries=0),
        )
        with pytest.raises(BudgetExhausted, match="retry budget of 0"):
            call()
        assert trace.summary().retries == 0

    def test_empty_retry_on_never_retries(self, run, scheduler):
        _clock, trace, call = _run(run, scheduler, RetryPolicy(retry_on=()))
        with pytest.raises((InjectedFault, ResilienceExhausted)):
            call()
        assert trace.summary().retries == 0

    def test_backoff_sleeps_on_the_context_clock(self, run, scheduler):
        clock, trace, call = _run(
            run, scheduler, RetryPolicy(backoff_base_s=1.0)
        )
        result = call()
        np.testing.assert_array_equal(result, _expected(run))
        assert trace.summary().retries == 1
        assert clock.now() == 1.0
        assert clock.slept_s == 1.0

    def test_deadline_shorter_than_backoff_raises(self, run, scheduler):
        clock, trace, call = _run(
            run, scheduler, RetryPolicy(backoff_base_s=1.0),
            budget=ExecutionBudget(deadline_s=0.5),
        )
        with pytest.raises(DeadlineExceeded, match="retry backoff"):
            call()
        assert trace.summary().retries == 1
        assert clock.slept_s == 0.5  # cut short at the deadline

    def test_permanent_errors_never_retried(self, run, scheduler, rejecting):
        policy = RetryPolicy(max_retries=3, retry_on=(Exception,))
        _clock, trace, call = _run(
            run, scheduler, policy, backend=rejecting.name, plan=False
        )
        with pytest.raises(OperandValidationError, match="rejected"):
            call()
        assert trace.summary().retries == 0
        # One launch per band at most: nothing was relaunched.
        assert 1 <= rejecting.calls <= len(_devices())


class RejectingBackend(MmoBackend):
    """Compiles normally, then deterministically rejects every launch."""

    name = "test-rejecting"

    def __init__(self):
        self.calls = 0

    def execute(self, compiled, a, b, c, *, context):
        self.calls += 1
        raise OperandValidationError("operands rejected")


@pytest.fixture
def rejecting():
    backend = register_backend(RejectingBackend())
    try:
        yield backend
    finally:
        _REGISTRY.pop(backend.name, None)

"""Recovery policies: bounded retries and backend fallback chains.

The resilience layer separates *detection* (fault plan events, ABFT
checksums, hardware errors) from *response*.  This module owns the
response side for single launches:

- :class:`RetryPolicy` — how many times to relaunch after a retryable
  failure (an injected drop, a detected corruption), and how long to
  back off between attempts (exponential with seeded deterministic
  jitter, slept on the context's injectable clock and charged against
  its deadline).  Retries are loud: every attempt lands as a ``retry``
  :class:`~repro.runtime.trace.ResilienceEvent` on the context's trace.
- :class:`FallbackChain` — which backends to degrade through when a
  backend keeps failing (e.g. ``vectorized → emulate``: if the fast path
  is corrupt or the emulated device faults, fall back to the other
  substrate and keep serving).  Each hop records a ``fallback`` event.
- :func:`attempt` — the one retry loop: relaunch, ABFT-verify, charge the
  budget, back off and emit ``retry`` events per the policy.  Both
  :func:`resilient_mmo` and the scheduler's checked/retried launch nodes
  (:mod:`repro.sched.executor`) run their launches through it, so every
  knob holds identically on the single-device and the graph paths.
- :func:`resilient_mmo` — the two composed: checked (optional) launches
  under the context's backend, retried per policy, falling back down the
  chain, raising :class:`ResilienceExhausted` only when every avenue is
  spent.  When the context carries a
  :class:`~repro.resilience.breaker.BreakerBoard`, open backends are
  skipped outright (``breaker_open`` event, :class:`~repro.resilience
  .breaker.BreakerOpen` cause) and every failure/verified-success feeds
  the board.

The failure **taxonomy** is explicit: :data:`PERMANENT` errors
(malformed operands, compilation bugs) are deterministic — relaunching
reruns the same rejection, so :meth:`RetryPolicy.should_retry` and
:meth:`FallbackChain.should_fall_back` refuse them no matter what
``retry_on``/``fallback_on`` tuples say.  :data:`TRANSIENT` errors
(injected faults, detected corruption, device failures) are the ones
recovery can outrun.  :func:`classify` names the bucket.

Multi-device recovery (band repartitioning) lives with the partitioner in
:mod:`repro.runtime.multidevice`; its band retries run through
:func:`attempt` on the scheduler's launch nodes.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.compile.artifact import CompileError
from repro.hooks.pipeline import emit_event
from repro.hw.errors import HardwareError
from repro.resilience.budget import BudgetError
from repro.resilience.checksum import (
    CheckedLaunch,
    CorruptionDetected,
    MmoChecksums,
    mmo_checksums,
)
from repro.resilience.clock import resolve_clock
from repro.resilience.faults import DeviceFailure, InjectedFault, ResilienceError
from repro.runtime.kernels import OperandValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.semiring import Semiring
    from repro.isa.opcodes import MmoOpcode
    from repro.resilience.breaker import BreakerBoard
    from repro.runtime.context import ExecutionContext
    from repro.runtime.kernels import KernelStats

__all__ = [
    "FallbackChain",
    "PERMANENT",
    "ResilienceExhausted",
    "RetryPolicy",
    "TRANSIENT",
    "classify",
    "resilient_mmo",
]

#: Failures a retry on the same backend can plausibly outrun: transient
#: injected faults and detected output corruption.
RETRYABLE = (CorruptionDetected, InjectedFault)

#: Failures that justify degrading to the next backend in the chain:
#: everything retryable plus hard device faults.
FALLBACK_ON = RETRYABLE + (HardwareError, DeviceFailure)

#: Deterministic failures no relaunch can outrun: value-poisoned or
#: malformed operands and compilation bugs rerun identically, so retry
#: and fallback refuse them even when a custom ``retry_on``/``fallback_on``
#: tuple would match (e.g. a blanket ``(Exception,)``).
PERMANENT = (OperandValidationError, CompileError)

#: Failures recovery can plausibly outrun: the retryable set plus hard
#: device faults (a relaunch lands on a healthy substrate or a fallback
#: backend).
TRANSIENT = FALLBACK_ON


def classify(exc: BaseException) -> str:
    """``"permanent"``, ``"transient"``, or ``"unknown"`` for a failure.

    Permanence wins when both match (a hypothetical subclass): retrying
    a deterministic rejection cannot help, whatever else it subclasses.
    """
    if isinstance(exc, PERMANENT):
        return "permanent"
    if isinstance(exc, TRANSIENT):
        return "transient"
    return "unknown"


class ResilienceExhausted(ResilienceError):
    """Every retry and every fallback backend failed.

    ``causes`` holds the terminal exception per attempted backend, in
    chain order, so callers can see the whole degradation path.
    """

    def __init__(self, causes: list[tuple[str, BaseException]]):
        chain = "; ".join(f"{name}: {exc}" for name, exc in causes)
        super().__init__(f"all recovery avenues exhausted ({chain})")
        self.causes = tuple(causes)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded relaunch of a failed launch on the same backend.

    ``max_retries`` counts *extra* attempts: ``max_retries=2`` allows up
    to three launches.  ``retry_on`` is the tuple of exception types worth
    retrying — defaults to transient faults and detected corruption
    (:data:`PERMANENT` errors are refused regardless: retrying a shape
    mismatch or a compiler bug reruns the same rejection).

    Backoff is exponential and off by default (``backoff_base_s=0.0``
    sleeps nothing, preserving the historical retry-immediately
    behaviour): the delay before the retry following 0-based attempt
    ``n`` is ``min(backoff_base_s * backoff_factor**n, backoff_max_s)``,
    widened by a symmetric jitter fraction drawn from a PRNG seeded from
    ``seed`` and ``n`` — the schedule is a pure function of the policy, so
    chaos runs replay byte-identically.  Sleeps flow through the
    context's :class:`~repro.resilience.clock.Clock` and are charged
    against its deadline (see :meth:`~repro.resilience.budget
    .ExecutionBudget.charge_sleep`).
    """

    max_retries: int = 2
    retry_on: tuple[type[BaseException], ...] = RETRYABLE
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ResilienceError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0.0:
            raise ResilienceError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ResilienceError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max_s < 0.0:
            raise ResilienceError(
                f"backoff_max_s must be >= 0, got {self.backoff_max_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether ``attempt`` (0-based) may be followed by another."""
        if isinstance(exc, PERMANENT):
            return False
        return attempt + 1 < self.max_attempts and isinstance(
            exc, self.retry_on
        )

    def backoff_s(self, attempt: int) -> float:
        """Deterministic delay before the retry after 0-based ``attempt``."""
        if self.backoff_base_s <= 0.0:
            return 0.0
        delay = self.backoff_base_s * (self.backoff_factor ** attempt)
        delay = min(delay, self.backoff_max_s)
        if self.jitter > 0.0:
            rng = random.Random(self.seed * 0x9E3779B1 + attempt)
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


@dataclasses.dataclass(frozen=True)
class FallbackChain:
    """Ordered backends to degrade through when one keeps failing.

    The chain is consulted *after* the context's own backend; backends
    already tried are skipped, so ``FallbackChain(("vectorized",
    "emulate"))`` under a vectorized context degrades straight to the
    emulator.

    ``backends=None`` (the default) consumes the planner's ranked order
    for the launch (:func:`repro.plan.planner.planner_order`): fallback
    degrades cheapest-capable-first, density-aware when the launch
    operands are known, instead of walking a hard-coded pair — so a
    sparse launch falls back through ``sparse`` before the emulator, and
    rings the sparse backend cannot run never route through it at all.
    """

    backends: tuple[str, ...] | None = None
    fallback_on: tuple[type[BaseException], ...] = FALLBACK_ON

    def plan(
        self,
        first: str,
        *,
        ring: "Semiring | str | MmoOpcode | None" = None,
        a: np.ndarray | None = None,
        b: np.ndarray | None = None,
        c: np.ndarray | None = None,
    ) -> tuple[str, ...]:
        """The full backend order for a launch starting at ``first``.

        With an explicit ``backends`` tuple the keywords are ignored;
        otherwise they parameterise the planner's ranking (ring-only
        calls get a capability-filtered static order, full operands a
        density-aware one).
        """
        if self.backends is not None:
            chain: tuple[str, ...] = self.backends
        else:
            from repro.plan.planner import planner_order  # lazy: peer layer

            chain = planner_order(ring, a, b, c)
        order = [first]
        for name in chain:
            if name not in order:
                order.append(name)
        return tuple(order)

    def should_fall_back(self, exc: BaseException) -> bool:
        if isinstance(exc, PERMANENT):
            return False  # deterministic rejection: every backend agrees
        return isinstance(exc, self.fallback_on)


def attempt(
    launch: "Callable[[int], tuple[np.ndarray, KernelStats]]",
    policy: RetryPolicy,
    *,
    context: "ExecutionContext",
    api: str,
    check: "tuple[CheckedLaunch, MmoChecksums] | None" = None,
    board: "BreakerBoard | None" = None,
    label: str = "",
    device_index: int | None = None,
) -> "tuple[np.ndarray, KernelStats]":
    """Run one launch under ``policy`` on one backend: the retry primitive.

    ``launch(n)`` performs 0-based attempt ``n`` (callers use ``n`` to keep
    a build-time fault ordinal on the first attempt only).  Each result is
    verified against ``check``'s ABFT checksums when given.  A failure the
    policy refuses (:data:`PERMANENT`, outside ``retry_on``, or the last
    attempt) propagates unchanged; otherwise the context's budget is
    charged a retry slot, a ``retry`` event lands on the trace, and the
    policy's backoff is slept on the context's clock — charged against the
    deadline when the context carries a budget.

    ``board`` opts into breaker feedback for ``context.backend``: every
    transient failure emits a ``backend_failure`` event and a verified
    success records a full health reset.  Every recovery path — the
    single-device fallback walk in :func:`resilient_mmo` and the
    scheduler's checked/retried launch nodes — goes through here.
    """
    budget = context.budget
    clock = resolve_clock(context)
    prefix = f"{label} " if label else ""
    for attempt in range(policy.max_attempts):
        try:
            result, stats = launch(attempt)
            if check is not None:
                checker, sums = check
                checker.verify(sums, result, context=context, api=api)
                if board is not None:
                    # Verified evidence: reset the backend's failure
                    # count (the hook's probe_only success cannot).
                    board.record_success(context.backend)
            return result, stats
        except Exception as exc:  # noqa: BLE001 - classified below
            if board is not None and classify(exc) == "transient":
                emit_event(
                    context, kind="backend_failure", api=api,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            if not policy.should_retry(exc, attempt):
                raise
            if budget is not None:
                budget.charge_retry(clock)
            emit_event(
                context, kind="retry", api=api, attempt=attempt + 1,
                device_index=device_index,
                detail=f"{prefix}attempt {attempt + 1} failed: {exc}",
            )
            delay = policy.backoff_s(attempt)
            if budget is not None:
                budget.charge_sleep(clock, delay)
            elif delay > 0.0:
                clock.sleep(delay)
    raise AssertionError("unreachable: the last attempt returns or raises")


def resilient_mmo(
    ring: "Semiring | str | MmoOpcode",
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    context: "ExecutionContext | None" = None,
    retry: RetryPolicy | None = None,
    fallback: FallbackChain | None = None,
    checked: bool = True,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    api: str = "resilient_mmo",
    validate_inputs: bool = True,
) -> "tuple[np.ndarray, KernelStats]":
    """``mmo_tiled`` with ABFT verification, retries, and backend fallback.

    Attempts the launch on the context's backend up to ``retry.max_attempts``
    times, verifying the ABFT invariant after each launch when ``checked``
    (checksums are computed once, before the first launch).  When a backend
    exhausts its retries on a fallback-worthy failure, the next backend in
    ``fallback`` takes over.  Raises :class:`ResilienceExhausted` when the
    whole chain fails; non-recoverable errors (shape validation, unknown
    rings) propagate immediately.

    SLO integration, all opt-in through context fields:

    - ``ctx.breakers`` — backends whose breaker is open are skipped with
      a ``breaker_open`` event (the :class:`~repro.resilience.breaker
      .BreakerOpen` lands in the exhaustion causes); transient failures
      emit ``backend_failure`` events that feed the board through the
      hook pipeline, and a *verified* success records the full health
      reset (an unverified one only closes a half-open probe).
    - ``ctx.budget`` — each retry spends a retry slot
      (:class:`~repro.resilience.budget.BudgetExhausted` propagates
      typed) and backoff sleeps are charged against the deadline.
    - ``ctx.clock`` — backoff sleeps flow through the injectable clock,
      so a virtual clock replays the whole schedule deterministically.
    """
    from repro.compile.lower import resolve_opcode
    from repro.resilience.breaker import BreakerOpen
    from repro.runtime.context import resolve_context
    from repro.runtime.kernels import mmo_tiled

    opcode = resolve_opcode(ring)
    ctx = resolve_context(context)
    retry = retry if retry is not None else RetryPolicy()
    fallback = fallback if fallback is not None else FallbackChain()
    check = (
        (
            CheckedLaunch(rtol=rtol, atol=atol),
            mmo_checksums(opcode.semiring, a, b, c, rtol=rtol, atol=atol),
        )
        if checked
        else None
    )
    board = ctx.breakers

    def order() -> Iterator[str]:
        # The fallback order is priced only once the context's own
        # backend has failed (or its breaker is open): a first-try
        # success never pays for a plan it does not walk.
        yield ctx.backend
        yield from fallback.plan(ctx.backend, ring=opcode, a=a, b=b, c=c)[1:]

    causes: list[tuple[str, BaseException]] = []
    for backend_name in order():
        if board is not None and not board.try_acquire(backend_name):
            skip = BreakerOpen(backend_name, state=board.state_of(backend_name))
            emit_event(
                ctx, kind="breaker_open", api=api, backend=backend_name,
                detail=str(skip),
            )
            causes.append((backend_name, skip))
            continue
        attempt_ctx = ctx
        if backend_name != ctx.backend:
            attempt_ctx = ctx.replace(backend=backend_name)
            emit_event(
                ctx, kind="fallback", api=api, backend=backend_name,
                detail=f"degrading {causes[-1][0]} -> {backend_name}: "
                       f"{causes[-1][1]}",
            )
        try:
            return attempt(
                lambda _n: mmo_tiled(
                    opcode, a, b, c, context=attempt_ctx, api=api,
                    validate_inputs=validate_inputs,
                ),
                retry, context=attempt_ctx, api=api, check=check, board=board,
            )
        except BudgetError:
            raise  # spent budget is never outrun by another backend
        except Exception as exc:  # noqa: BLE001 - classified below
            if not fallback.should_fall_back(exc):
                raise  # non-recoverable: propagate as-is
            causes.append((backend_name, exc))
    raise ResilienceExhausted(causes)

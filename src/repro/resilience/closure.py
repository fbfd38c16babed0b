"""Fault-tolerant semiring closure: the whole resilience stack in one loop.

:func:`resilient_closure` is the end-to-end composition the paper-scale
graph workloads need: the Figure-7 iteration ``D ← D ⊕ (D ⊗ X)`` where
every mmo is ABFT-checked, detected corruption is retried, dead devices
are blacklisted and their row bands repartitioned across the survivors,
and a :class:`~repro.resilience.watchdog.ClosureWatchdog` guards the
iterates themselves.  Because ⊕-fold checksums verify each band against
its *inputs*, a recovered run is bit-identical to a fault-free run — the
property ``benchmarks/bench_resilience.py`` proves end to end.

Single-device callers get the same loop with
:func:`~repro.resilience.policy.resilient_mmo` (retry + backend fallback)
in place of the multi-device partitioner.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.resilience.policy import FallbackChain, RetryPolicy, resilient_mmo
from repro.resilience.watchdog import ClosureDiagnostics, ClosureWatchdog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.device import Simd2Device
    from repro.runtime.context import ExecutionContext
    from repro.runtime.multidevice import DeviceShare

__all__ = ["ResilientClosureResult", "resilient_closure"]


@dataclasses.dataclass(frozen=True)
class ResilientClosureResult:
    """Outcome of a fault-tolerant closure iteration.

    ``blacklist`` is the final set of failed device indices (empty for
    single-device runs); ``device_shares`` is the last iteration's
    partition, showing which surviving device owned which row band.
    """

    matrix: np.ndarray
    iterations: int
    converged: bool
    method: str
    mmo_calls: int
    diagnostics: "ClosureDiagnostics | None"
    blacklist: frozenset[int]
    device_shares: "tuple[DeviceShare, ...]"


def resilient_closure(
    ring: Semiring | str,
    adjacency: np.ndarray,
    *,
    method: str = "leyzorek",
    convergence_check: bool = True,
    max_iterations: int | None = None,
    devices: "list[Simd2Device] | None" = None,
    backend: str | None = None,
    context: "ExecutionContext | None" = None,
    checked: bool = True,
    retry: RetryPolicy | None = None,
    fallback: FallbackChain | None = None,
    on_device_failure: str = "repartition",
    blacklist: set[int] | None = None,
    watchdog: bool | ClosureWatchdog = True,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> ResilientClosureResult:
    """Iterate ``D ← D ⊕ (D ⊗ X)`` to a fixpoint, surviving faults.

    With ``devices`` the mmo is partitioned row-wise across them
    (:func:`~repro.runtime.multidevice.mmo_tiled_multi_device`) with
    ``checked`` bands and ``on_device_failure`` recovery; the
    ``blacklist`` set persists across iterations, so a device that died
    in iteration 2 is never asked again in iteration 3.  Without
    ``devices`` each iteration runs through
    :func:`~repro.resilience.policy.resilient_mmo` (retry + ``fallback``
    backend chain).

    The ``watchdog`` observes every iterate; on a trip the loop stops
    with the structured diagnosis instead of burning the iteration cap.
    """
    from repro.runtime.closure import fixpoint, matrices_equal
    from repro.runtime.context import resolve_context
    from repro.runtime.multidevice import mmo_tiled_multi_device

    ring = get_semiring(ring)
    ctx = resolve_context(context, backend=backend)
    blacklist = blacklist if blacklist is not None else set()
    shares: "tuple[DeviceShare, ...]" = ()

    def step(
        current: np.ndarray, operand: np.ndarray, _iteration: int
    ) -> tuple[np.ndarray, bool]:
        nonlocal shares
        # In-loop launches skip ring-input validation: iterates may carry
        # NaN/±inf legitimately (fault studies, NaN fixpoints) — the
        # watchdog and ABFT checksums own in-loop poison detection.
        if devices is not None:
            updated, share_list = mmo_tiled_multi_device(
                ring, current, operand, current,
                devices=devices, context=ctx,
                checked=checked, retry=retry,
                on_device_failure=on_device_failure,
                blacklist=blacklist, rtol=rtol, atol=atol,
                validate_inputs=False,
            )
            shares = tuple(share_list)
        else:
            updated, _stats = resilient_mmo(
                ring, current, operand, current,
                context=ctx, retry=retry, fallback=fallback,
                checked=checked, rtol=rtol, atol=atol,
                api="resilient_closure", validate_inputs=False,
            )
        return updated, convergence_check and matrices_equal(updated, current)

    fixed = fixpoint(
        np.asarray(adjacency, dtype=ring.output_dtype), step,
        ring=ring, method=method, convergence_check=convergence_check,
        max_iterations=max_iterations, watchdog=watchdog, context=ctx,
        api="resilient_closure",
    )
    return ResilientClosureResult(
        matrix=fixed.matrix,
        iterations=fixed.iterations,
        converged=fixed.converged,
        method=method,
        mmo_calls=fixed.iterations,
        diagnostics=fixed.diagnostics,
        blacklist=frozenset(blacklist),
        device_shares=shares,
    )

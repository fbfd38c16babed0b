"""Multi-device work partitioning for whole-matrix mmos.

The paper notes that MXU programming models "perform work partitioning and
tiling to execute a larger GEMM with multiple MXUs in a system or across
systems".  This module implements the across-devices level for SIMD²:
:func:`mmo_tiled_multi_device` splits the output rows of one mmo across a
list of emulated devices (each device gets a contiguous row band, B is
broadcast), runs each band on its device, and reassembles the result —
with per-device statistics so tests can assert the partition is balanced
and that the union of executed work equals the single-device run exactly.

Resilience (all opt-in, defaults preserve the plain fail-fast behaviour):

- ``checked=True`` verifies every band against its semiring ABFT
  checksums (:mod:`repro.resilience.checksum`) and retries detected
  corruption per ``retry`` (a :class:`~repro.resilience.policy
  .RetryPolicy`);
- ``on_device_failure="repartition"`` survives hard device failures
  (injected via the context's :class:`~repro.resilience.faults.FaultPlan`
  or surfaced as emulator :class:`~repro.hw.errors.HardwareError`\\ s): the
  failed device is blacklisted and the *entire row space* is repartitioned
  across the survivors, so the reassembled result is bit-identical to a
  fault-free run;
- ``blacklist`` is a caller-owned mutable set of failed device indices —
  pass the same set across calls (e.g. every iteration of a closure) and
  a dead device stays dead instead of being rediscovered each launch.

Every failure, retry, and repartition lands as a
:class:`~repro.runtime.trace.ResilienceEvent` on the context's trace.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.core.tiles import TILE, ceil_div
from repro.hooks.pipeline import emit_event
from repro.hw.device import Simd2Device
from repro.isa.opcodes import MmoOpcode
from repro.runtime.api import RuntimeError_
from repro.runtime.context import ExecutionContext, resolve_context
from repro.runtime.kernels import (
    KernelStats,
    _validate_operands,
    _validate_ring_inputs,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.policy import RetryPolicy

__all__ = ["DeviceShare", "mmo_tiled_multi_device"]


@dataclasses.dataclass(frozen=True)
class DeviceShare:
    """One device's slice of the partitioned mmo."""

    device_index: int
    row_start: int
    row_stop: int
    stats: KernelStats

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start


def _run_partition(
    roster: list[tuple[int, Simd2Device]],
    semiring: Semiring,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None,
    ctx: ExecutionContext,
    *,
    checked: bool,
    retry: "RetryPolicy | None",
    wrap_hw_errors: bool,
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, list[DeviceShare]]:
    """Run one banding of the rows over ``roster``; raise DeviceFailure on loss.

    The banding is lowered onto a :class:`~repro.sched.graph.LaunchGraph`
    — one launch node per device band carrying the device and the
    resilience policy (ABFT checking, retries, hardware-error wrapping),
    plus a gather node with pinned row windows — and run by the
    context's scheduler.  Band nodes are independent, so a thread-pool
    scheduler runs devices concurrently with bit-identical results.
    A device the fault plan hard-fails raises at *build* time, in band
    order, so the ordinals of bands built before it are preserved across
    the repartition rebuild.
    """
    m, k = a.shape
    n = b.shape[1]
    if m == 0:
        out = (
            semiring.full((m, n)) if c is None
            else np.asarray(c, semiring.output_dtype)
        )
        return out, []

    # Lazy: repro.sched orchestrates this module's loops.
    from repro.sched.builders import multidevice_graph
    from repro.sched.executor import resolve_scheduler

    graph, out_ref, bands = multidevice_graph(
        roster, semiring, a, b, c, ctx,
        checked=checked, retry=retry, wrap_hw_errors=wrap_hw_errors,
        rtol=rtol, atol=atol,
    )
    result = resolve_scheduler(ctx).run(graph, context=ctx)
    shares = [
        DeviceShare(
            device_index=index,
            row_start=row_start,
            row_stop=row_stop,
            stats=result.stats_of(ref),
        )
        for index, row_start, row_stop, ref in bands
    ]
    return np.asarray(result[out_ref]), shares


def mmo_tiled_multi_device(
    ring: Semiring | str | MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    devices: list[Simd2Device],
    backend: str | None = None,
    context: ExecutionContext | None = None,
    checked: bool = False,
    retry: "RetryPolicy | None" = None,
    on_device_failure: str = "abort",
    blacklist: set[int] | None = None,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    validate_inputs: bool = True,
) -> tuple[np.ndarray, list[DeviceShare]]:
    """``D = C ⊕ (A ⊗ B)`` partitioned row-wise across devices.

    Rows are split into floor-balanced tile-aligned bands (multiples of
    16, via :func:`~repro.backends.tiling.partition_bands`) so no tile
    straddles a device boundary; some devices may receive nothing when
    there are fewer row tiles than devices.

    This is a device-centric API, so the default backend is ``"emulate"``
    unless an explicit ``backend`` or ``context`` overrides it; each band
    runs under the resolved context with its own device swapped in.

    Parameters (resilience, all opt-in)
    -----------------------------------
    checked:
        Verify every band against its ⊕-fold ABFT checksums; a detected
        corruption is retried per ``retry`` and raises
        :class:`~repro.resilience.checksum.CorruptionDetected` when the
        retries are spent.
    retry:
        :class:`~repro.resilience.policy.RetryPolicy` for transient band
        failures (detected corruption, injected drops).  Defaults to the
        policy's defaults when ``checked`` is set.  Every knob holds as on
        :func:`~repro.resilience.policy.resilient_mmo`: ``retry_on`` and
        the permanent-error taxonomy, the context budget's retry quota,
        and backoff slept on the context clock against its deadline.
    on_device_failure:
        ``"abort"`` (default) propagates the failure; ``"repartition"``
        blacklists the failed device and redistributes *all* rows across
        the surviving devices, raising only when none survive.
    blacklist:
        Caller-owned set of failed device indices, updated in place —
        share it across calls so dead devices stay blacklisted.
    validate_inputs:
        Reject value-poisoned operands (NaN, oppositely-signed inf) once
        over the full matrices up front, exactly as
        :func:`~repro.runtime.kernels.mmo_tiled` does; the per-band
        launches skip re-validation.  ``False`` opts out for
        deliberately poisoned loops.
    """
    if on_device_failure not in ("abort", "repartition"):
        raise RuntimeError_(
            f"on_device_failure must be 'abort' or 'repartition', "
            f"got {on_device_failure!r}"
        )
    if not devices:
        raise RuntimeError_("need at least one device")
    if backend is None and context is None:
        backend = "emulate"
    ctx = resolve_context(context, backend=backend)
    if isinstance(ring, MmoOpcode):
        semiring = ring.semiring
    else:
        semiring = get_semiring(ring)
    # Shared shape validation: a bad accumulator raises the same
    # named-operand OperandValidationError (also a ValueError) here as on
    # every other entry point, instead of a bare RuntimeError_.
    a, b, c, m, n, _ = _validate_operands(a, b, c)
    if validate_inputs:
        # One poison scan over the full operands; bands skip re-checking.
        _validate_ring_inputs(semiring, a, b, c)

    blacklist = blacklist if blacklist is not None else set()
    repartition = on_device_failure == "repartition"
    while True:
        roster = [
            (index, device)
            for index, device in enumerate(devices)
            if index not in blacklist
        ]
        if not roster:
            raise RuntimeError_(
                f"no surviving devices: all {len(devices)} blacklisted "
                f"({sorted(blacklist)})"
            )
        try:
            return _run_partition(
                roster, semiring, a, b, c, ctx,
                checked=checked, retry=retry,
                wrap_hw_errors=repartition,
                rtol=rtol, atol=atol,
            )
        except Exception as exc:
            from repro.resilience.faults import DeviceFailure

            if not (repartition and isinstance(exc, DeviceFailure)):
                raise
            blacklist.add(exc.device_index)
            emit_event(
                ctx, kind="device_failure", api="mmo_tiled_multi_device",
                device_index=exc.device_index, detail=str(exc),
            )
            survivors = len(devices) - len(blacklist)
            emit_event(
                ctx, kind="repartition", api="mmo_tiled_multi_device",
                detail=f"redistributing {ceil_div(m, TILE)} row tiles "
                       f"across {survivors} surviving device(s) "
                       f"(blacklist {sorted(blacklist)})",
            )

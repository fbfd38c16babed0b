"""Deterministic fault injection at the execute boundary.

The loud-fault discipline of accelerator emulation (arXiv:1811.08309)
applied to SIMD²: every failure mode the resilience layer claims to
survive must be *injectable on demand, deterministically*, so recovery can
be proven end-to-end and bit-for-bit.  A :class:`FaultPlan` rides on the
:class:`~repro.runtime.context.ExecutionContext` and is consulted at the
one launch body in :mod:`repro.runtime.kernels` — *after* the backend
ran — so the same plan corrupts all three backends identically:

- **output corruption** (:class:`FaultSpec`): seeded bit-flips, NaN
  poisoning, or a stuck output tile, applied to chosen launch ordinals;
- **dropped launches**: the launch raises :class:`InjectedFault` instead
  of returning (a lost kernel, a timeout);
- **per-device hard failures**: :meth:`FaultPlan.device_should_fail`
  makes :func:`~repro.runtime.multidevice.mmo_tiled_multi_device` raise
  :class:`DeviceFailure` for the chosen device indices.

Launches are numbered by one monotone ordinal per plan (the plan is
mutable even though the context is frozen), so "corrupt launch 3" means
the same launch on every run — and a retry, which advances the ordinal,
deterministically escapes a transient fault.  Ordinal assignment and
drop admission are two separate steps (:meth:`FaultPlan.reserve` /
:meth:`FaultPlan.admit`): the scheduler's graph builders reserve
ordinals at *graph-build* time, in node order, so a threaded executor
injects exactly the faults a serial run would — launch numbering never
depends on thread interleaving.  Ad-hoc launches (``mmo_tiled`` outside
a graph) still claim both in one step via :meth:`FaultPlan.begin_launch`.
Every injection emits a
:class:`~repro.runtime.trace.ResilienceEvent` through the context hook
pipeline's ``on_event`` channel (landing on the trace via ``TraceHook``).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.hooks.pipeline import emit_event
from repro.runtime.api import RuntimeError_

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext

__all__ = [
    "DeviceFailure",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ResilienceError",
]


class ResilienceError(RuntimeError_):
    """Base class of every error the resilience layer raises."""


class InjectedFault(ResilienceError):
    """An injected loud fault: the launch was dropped by the fault plan."""


class DeviceFailure(ResilienceError):
    """A device hard-failed (injected or surfaced from the emulator).

    Carries the failing device's index so the multi-device partitioner can
    blacklist it and repartition the work across the survivors.
    """

    def __init__(self, device_index: int, reason: str):
        super().__init__(f"device {device_index} failed: {reason}")
        self.device_index = device_index
        self.reason = reason


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One output corruption to inject into a launch's result tile.

    Parameters
    ----------
    kind:
        ``"bitflip"`` (flip one mantissa/sign bit of one element),
        ``"nan"`` (poison the tile with NaN), or ``"stuck"`` (freeze the
        whole tile to ``value`` — a stuck-at datapath).
    tile:
        ``(tile_row, tile_col)`` of the 16×16 output tile to corrupt;
        ``None`` picks a seeded tile from the launch's grid.
    value:
        The stuck-at value for ``kind="stuck"``.
    """

    kind: str = "bitflip"
    tile: tuple[int, int] | None = None
    value: float = 0.0

    _KINDS = ("bitflip", "nan", "stuck")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; expected one of {self._KINDS}"
            )


class FaultPlan:
    """A seeded, repeatable schedule of faults for one execution run.

    Parameters
    ----------
    seed:
        Seeds the RNG that picks corrupted elements/bits/tiles, so two
        runs of the same plan inject byte-identical faults.
    corrupt:
        Maps launch ordinal → :class:`FaultSpec` (or an iterable of specs)
        to apply to that launch's output.  Ordinals count every launch
        executed under a context carrying this plan, starting at 0.
    drop:
        Launch ordinals that raise :class:`InjectedFault` instead of
        executing.
    fail_devices:
        Device indices (as enumerated by ``mmo_tiled_multi_device``) that
        hard-fail with :class:`DeviceFailure` when asked to run a band.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        corrupt: Mapping[int, FaultSpec | Iterable[FaultSpec]] | None = None,
        drop: Iterable[int] = (),
        fail_devices: Iterable[int] = (),
    ):
        self.seed = int(seed)
        self._corrupt: dict[int, tuple[FaultSpec, ...]] = {}
        for ordinal, specs in (corrupt or {}).items():
            if isinstance(specs, FaultSpec):
                specs = (specs,)
            self._corrupt[int(ordinal)] = tuple(specs)
        self.drop = frozenset(int(o) for o in drop)
        self.fail_devices = frozenset(int(d) for d in fail_devices)
        self._lock = threading.Lock()
        self._next_ordinal = 0
        #: Counters of what the plan actually injected, for assertions.
        self.injected_corruptions = 0
        self.injected_drops = 0
        self.injected_device_failures = 0

    # ------------------------------------------------------------------
    # the seam API used by the dispatch layer
    # ------------------------------------------------------------------
    def reserve(self, count: int = 1) -> int:
        """Claim ``count`` consecutive launch ordinals; return the first.

        Graph builders call this at *build* time (one ordinal per launch
        node, in node order), which pins the fault schedule before any
        executor — serial or threaded — touches a kernel.  Reserved
        ordinals are spent even if the launch never runs (an aborted
        banding burns its ordinals rather than renumbering later ones).
        """
        if count <= 0:
            raise ResilienceError(f"reserve needs a positive count, got {count}")
        with self._lock:
            ordinal = self._next_ordinal
            self._next_ordinal += count
        return ordinal

    def admit(self, ordinal: int, context: "ExecutionContext", api: str) -> int:
        """Admit a reserved ordinal for execution; raise if it is dropped."""
        if ordinal in self.drop:
            self.injected_drops += 1
            emit_event(
                context, kind="fault_injected", api=api,
                detail=f"launch {ordinal} dropped", launch_ordinal=ordinal,
            )
            raise InjectedFault(f"fault plan dropped launch {ordinal}")
        return ordinal

    def begin_launch(self, context: "ExecutionContext", api: str) -> int:
        """Claim the next launch ordinal; raise if this launch is dropped."""
        return self.admit(self.reserve(), context, api)

    def corrupt_output(
        self, ordinal: int, result: np.ndarray, context: "ExecutionContext", api: str
    ) -> np.ndarray:
        """Apply this ordinal's scheduled corruptions to a launch result."""
        specs = self._corrupt.get(ordinal)
        if not specs:
            return result
        corrupted = np.array(result, copy=True)
        for index, spec in enumerate(specs):
            rng = np.random.default_rng((self.seed, ordinal, index))
            detail = _apply_spec(corrupted, spec, rng)
            self.injected_corruptions += 1
            emit_event(
                context, kind="fault_injected", api=api,
                detail=f"launch {ordinal}: {detail}", launch_ordinal=ordinal,
            )
        return corrupted

    def device_should_fail(self, device_index: int) -> bool:
        """Whether the plan hard-fails this device (multi-device seam)."""
        return device_index in self.fail_devices

    def record_device_failure(
        self, context: "ExecutionContext", api: str, device_index: int
    ) -> None:
        self.injected_device_failures += 1
        emit_event(
            context, kind="fault_injected", api=api,
            detail=f"device {device_index} hard failure",
            device_index=device_index,
        )

    @property
    def launches_seen(self) -> int:
        with self._lock:
            return self._next_ordinal

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(seed={self.seed}, corrupt={sorted(self._corrupt)}, "
            f"drop={sorted(self.drop)}, fail_devices={sorted(self.fail_devices)})"
        )


def _apply_spec(out: np.ndarray, spec: FaultSpec, rng: np.random.Generator) -> str:
    """Mutate ``out`` in place per ``spec``; returns a human-readable detail."""
    from repro.core.tiles import TILE, ceil_div

    m, n = out.shape
    tiles_m = max(1, ceil_div(m, TILE))
    tiles_n = max(1, ceil_div(n, TILE))
    if spec.tile is not None:
        ti, tj = spec.tile
        if not (0 <= ti < tiles_m and 0 <= tj < tiles_n):
            raise ResilienceError(
                f"fault tile {spec.tile} outside the {tiles_m}x{tiles_n} grid"
            )
    else:
        ti = int(rng.integers(tiles_m))
        tj = int(rng.integers(tiles_n))
    rows = slice(ti * TILE, min(m, (ti + 1) * TILE))
    cols = slice(tj * TILE, min(n, (tj + 1) * TILE))

    if spec.kind == "stuck":
        out[rows, cols] = spec.value
        return f"stuck tile ({ti},{tj}) = {spec.value}"
    # pick one element of the tile for point corruptions
    i = rows.start + int(rng.integers(rows.stop - rows.start))
    j = cols.start + int(rng.integers(cols.stop - cols.start))
    if spec.kind == "nan":
        if out.dtype == np.dtype(bool):
            out[i, j] = not out[i, j]
            return f"flipped boolean ({i},{j}) in tile ({ti},{tj})"
        out[i, j] = np.nan
        return f"NaN poison at ({i},{j}) in tile ({ti},{tj})"
    # bitflip
    if out.dtype == np.dtype(bool):
        out[i, j] = not out[i, j]
        return f"flipped boolean ({i},{j}) in tile ({ti},{tj})"
    flat = out.view(np.uint32) if out.dtype == np.dtype(np.float32) else None
    if flat is None:
        # non-fp32 numeric output: perturb the value instead of a raw bit
        out[i, j] = out[i, j] + 1 if np.isfinite(out[i, j]) else 0.0
        return f"perturbed ({i},{j}) in tile ({ti},{tj})"
    bit = int(rng.integers(0, 23))  # mantissa bits: loud but finite
    flat[i, j] ^= np.uint32(1 << bit)
    return f"bit {bit} flipped at ({i},{j}) in tile ({ti},{tj})"

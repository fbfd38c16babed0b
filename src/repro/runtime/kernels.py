"""High-level whole-matrix SIMD² kernels (paper Figure 6).

:func:`mmo_tiled` is the Python analogue of the paper's ``simd2_minplus``
family: it accepts arbitrarily-shaped matrices, handles tiling/padding
implicitly, and computes ``D = C ⊕ (A ⊗ B)`` in two phases:

1. **compile** — the launch shape is lowered (through the context's
   :class:`~repro.compile.cache.PlanCache`) into an immutable
   :class:`~repro.compile.artifact.CompiledMmo`: resolved opcode, tile
   grid, optimiser-cleaned warp program, shared-memory layout;
2. **execute** — a registered backend (see :mod:`repro.backends`) runs
   the artifact against the validated operands:

   - ``"vectorized"`` — the cuASR/CUTLASS-like CUDA-core backend: NumPy
     vectorised semiring arithmetic with identical padding and precision.
   - ``"emulate"`` — the instruction-level backend: replays the compiled
     warp program per output tile on the
     :class:`~repro.hw.device.Simd2Device` emulator, returning exact
     dynamic instruction statistics.
   - ``"sparse"`` — Gustavson spGEMM over CSR operands, for the paper's
     Section 6.5 sparse datapath.

All backends produce matching results (bit-for-bit for the min/max/or
rings and for integer-valued data; up to summation-order ulps otherwise),
which is exactly the cross-validation the paper's framework performs.

This module owns the *dispatch seam*: shape validation, backend
resolution through the :class:`~repro.runtime.context.ExecutionContext`,
and cached compilation.  Every cross-cutting per-launch concern — input
validation, fault injection, trace recording (including whether the plan
cache hit and what the optimiser removed) — runs through the context's
:class:`~repro.hooks.pipeline.HookPipeline`: the compile step is
bracketed by ``pre_compile``/``post_compile`` hooks and the backend call
by ``pre_execute``/``post_execute`` hooks, identically on the
:func:`mmo_tiled` and :func:`execute_compiled` paths.  Loop-shaped entry
points (:func:`~repro.runtime.closure.closure`, batched, split-k,
multi-device, :class:`~repro.runtime.host.HostRuntime`) compile once up
front and replay the artifact per iteration via :func:`execute_compiled`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.compile.lower import compile_mmo, resolve_opcode
from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.core.tiles import TILE, ceil_div
from repro.hw.device import Simd2Device
from repro.hw.warp import ExecutionStats
from repro.isa.opcodes import MmoOpcode
from repro.runtime.api import RuntimeError_
from repro.runtime.context import ExecutionContext, resolve_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import Backend
    from repro.compile.artifact import CompiledMmo
    from repro.hooks.pipeline import Launch
    from repro.sparse.spgemm import SpgemmStats

__all__ = [
    "KernelStats",
    "OperandValidationError",
    "compile_in_context",
    "execute_compiled",
    "mmo_tiled",
    "mmo_tiled_split_k",
]


class OperandValidationError(RuntimeError_, ValueError):
    """An operand carries values the ring cannot combine soundly.

    Subclasses ``ValueError`` so callers catching either the runtime's
    error family or plain ``ValueError`` see the rejection.
    """


_DEFAULT_CLOCK = None


def _launch_clock(context: ExecutionContext):
    """The clock launch wall times are read on: the context's, else shared.

    Keeps a cached reference to the shared monotonic clock so the static
    fast path pays one attribute check, not an import, per launch.
    """
    clock = context.clock
    if clock is not None:
        return clock
    global _DEFAULT_CLOCK
    if _DEFAULT_CLOCK is None:
        # Lazy: repro.resilience sits above repro.runtime in the layering.
        from repro.resilience.clock import default_clock

        _DEFAULT_CLOCK = default_clock()
    return _DEFAULT_CLOCK


@dataclasses.dataclass(frozen=True)
class KernelStats:
    """Static tiling statistics of one whole-matrix mmo kernel call.

    These are the counts the paper's validation flow collects to check the
    performance-emulation backend issues exactly the expected number of
    SIMD² operations; the timing model consumes them as well.

    Convention: ``tiles_k`` is the number of inner tile steps each
    output-tile program performs — ``ceil(k / 16)`` for ``k > 0`` and ``1``
    for ``k == 0`` (a single identity-padded step the reduction absorbs).
    Degenerate calls with an empty output (``m == 0`` or ``n == 0``) report
    the same ``tiles_k`` even though no program runs, so
    ``mmo_instructions == tiles_m * tiles_n * tiles_k`` is zero there.

    Backend-specific counters ride along: ``execution`` carries the
    dynamic emulator statistics (emulate backend), ``spgemm`` the spGEMM
    work counters (sparse backend).
    """

    m: int
    n: int
    k: int
    tiles_m: int
    tiles_n: int
    tiles_k: int
    execution: ExecutionStats | None = None
    spgemm: "SpgemmStats | None" = None

    @property
    def warp_programs(self) -> int:
        """One warp program per output tile."""
        return self.tiles_m * self.tiles_n

    @property
    def mmo_instructions(self) -> int:
        return self.tiles_m * self.tiles_n * self.tiles_k

    @property
    def load_instructions(self) -> int:
        """Per program: the C tile plus an (A, B) tile pair per inner step."""
        return self.warp_programs * (1 + 2 * self.tiles_k)

    @property
    def store_instructions(self) -> int:
        return self.warp_programs

    @property
    def unit_ops(self) -> int:
        """4×4×4 unit operations: 64 per 16×16×16 warp-level mmo."""
        return self.mmo_instructions * (TILE // 4) ** 3


def compile_in_context(
    ctx: ExecutionContext,
    impl: "Backend",
    opcode: MmoOpcode,
    m: int,
    n: int,
    k: int,
    *,
    has_accumulator: bool,
    api: str = "mmo_tiled",
) -> "tuple[CompiledMmo, bool]":
    """Compile (or replay from the plan cache) through the hook pipeline.

    The single compile seam: :func:`~repro.compile.lower.compile_mmo`
    bracketed by the pipeline's ``pre_compile``/``post_compile`` hooks.
    Loop entry points that compile once up front use this too, so compile
    observers (cache metering, the future autotuner) see every lowering
    regardless of which entry point requested it.
    """
    pipeline = ctx.pipeline
    pipeline.pre_compile(ctx, api, opcode, m, n, k, has_accumulator)
    compiled, cache_hit = compile_mmo(
        impl, opcode, m, n, k, has_accumulator=has_accumulator, context=ctx
    )
    pipeline.post_compile(ctx, api, compiled, cache_hit)
    return compiled, cache_hit


def _validate_operands(
    a: np.ndarray, b: np.ndarray, c: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int, int, int]:
    """Shared shape validation: ``(m,k) × (k,n) [⊕ (m,n)]``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise RuntimeError_(
            f"bad mmo operand shapes A{a.shape} x B{b.shape}"
        )
    m, k = a.shape
    n = b.shape[1]
    if c is not None:
        c = np.asarray(c)
        if c.shape != (m, n):
            # OperandValidationError is also a ValueError, so plain-ValueError
            # callers see the rejection too.
            raise OperandValidationError(
                f"accumulator shape {c.shape} != {(m, n)}: operand C must "
                f"match the A{a.shape} x B{b.shape} output"
            )
    return a, b, c, m, n, k


def _validate_ring_inputs(
    semiring: Semiring, a: np.ndarray, b: np.ndarray, c: np.ndarray | None
) -> None:
    """Reject input values that silently poison ±inf-identity rings.

    On rings whose ⊕ identity is ``±inf`` (the min/max family), the
    identity itself is legitimate data ("no edge"), but a NaN input
    propagates through every ⊕-selection and corrupts whole tiles without
    raising; for min-plus/max-plus the *oppositely*-signed infinity is
    equally poisonous, because ``⊗ = +`` maps it against identity padding
    to NaN (``-inf + inf``).  Both are rejected here, up front, with the
    offending operand named — a :class:`OperandValidationError` (also a
    ``ValueError``) instead of silently-wrong tiles.

    Rings with finite identities (plus-mul, plus-norm, or-and) accept any
    value NumPy accepts, unchanged.
    """
    identity = semiring.oplus_identity
    if isinstance(identity, bool) or np.isfinite(identity):
        return
    poison_inf = None
    if semiring.otimes is np.add:
        poison_inf = -identity  # the infinity of the opposite sign
    for name, operand in (("A", a), ("B", b), ("C", c)):
        if operand is None or not np.issubdtype(operand.dtype, np.floating):
            continue
        if np.isnan(operand).any():
            raise OperandValidationError(
                f"operand {name} contains NaN, which poisons the "
                f"{semiring.name} ring's ⊕-selection; sanitise inputs first"
            )
        if poison_inf is not None and name in ("A", "B"):
            if (operand == poison_inf).any():
                raise OperandValidationError(
                    f"operand {name} contains {poison_inf}, which maps to "
                    f"NaN against the {semiring.name} ring's "
                    f"{identity} padding (⊗ is +); sanitise inputs first"
                )


def _degenerate_result(
    semiring: Semiring, m: int, n: int, k: int, c: np.ndarray | None
) -> tuple[np.ndarray, KernelStats]:
    """The empty-output fast path (``m == 0`` or ``n == 0``)."""
    empty = (
        semiring.full((m, n)) if c is None else np.asarray(c, semiring.output_dtype)
    )
    return empty, KernelStats(m, n, k, 0, 0, ceil_div(k, TILE) if k else 1)


def _apply_selection(
    ctx: ExecutionContext,
    impl: "Backend",
    opcode: MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None,
    *,
    api: str,
) -> "tuple[ExecutionContext, Backend, tuple[float, float]]":
    """Run a planning backend's selection stage at the dispatch seam.

    A backend exposing ``select_backend`` (the ``"auto"`` backend, see
    :mod:`repro.plan.backend`) is a *planning stage*, not an executor:
    it ranks the capable concrete backends for these operands, the
    decision is surfaced through the pipeline's ``on_plan`` channel, and
    the context is rewritten to the chosen backend — so the launch
    records, fault ordinals and autotune observations all name the
    backend that actually ran.  The rewritten context always carries an
    autotune table (the context's own or the process-wide default), so
    the selected launch's wall time feeds back into the next plan.

    Returns the plan's operand density estimates alongside so the caller
    can hand them to the launch carrier (``AutotuneHook`` then buckets
    the observation without re-estimating).  The rewritten context is
    memoised on the base context per chosen backend — a stable workload
    replans every launch but rebuilds its context (and hook pipeline)
    only on a backend change.
    """
    chosen, plan = impl.select_backend(  # type: ignore[attr-defined]
        opcode, a, b, c, context=ctx
    )
    pipeline = ctx.pipeline
    if pipeline.wants_plans:
        from repro.runtime.trace import PlanRecord

        pipeline.emit_plan(
            ctx,
            PlanRecord(
                api=api,
                backend=chosen,
                ring=plan.ring,
                opcode=plan.opcode,
                shape=plan.shape,
                density_a=plan.density_a,
                density_b=plan.density_b,
                candidates=plan.candidates,
                refined=plan.refined,
                probe=plan.probe,
                breaker_skipped=getattr(plan, "breaker_skipped", ()),
            ),
        )
    cache: dict[str, ExecutionContext] | None = ctx.__dict__.get(
        "_selection_cache"
    )
    if cache is None:
        cache = {}
        object.__setattr__(ctx, "_selection_cache", cache)
    selected = cache.get(chosen)
    if selected is None:
        overrides: dict[str, object] = {"backend": chosen}
        if ctx.autotune is None:
            from repro.plan.autotune import default_autotune_table  # lazy: plan sits above runtime

            overrides["autotune"] = default_autotune_table()
        selected = ctx.replace(**overrides)
        cache[chosen] = selected
    from repro.backends.base import get_backend  # lazy: backends import us

    return selected, get_backend(chosen), (plan.density_a, plan.density_b)


def _note_plan_densities(
    launch: "Launch | None", densities: tuple[float, float] | None
) -> None:
    """Hand the plan's density estimates to the launch carrier.

    ``AutotuneHook`` buckets its observation with these instead of
    re-estimating both operands at ``post_execute``.
    """
    if launch is None or densities is None:
        return
    if launch.notes is None:
        launch.notes = {}
    launch.notes["plan_densities"] = densities


def execute_compiled(
    compiled: "CompiledMmo",
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    context: ExecutionContext,
    api: str = "mmo_tiled",
    cache_hit: bool | None = True,
    validate_inputs: bool = True,
    fault_ordinal: int | None = None,
) -> tuple[np.ndarray, KernelStats]:
    """Replay a compiled artifact against fresh operands.

    This is the execute half of the split, used by loop-shaped entry
    points (closure iteration, batched launches, multi-device bands) that
    compile once up front: operands are validated against the artifact's
    operand-shape spec, the context's hook pipeline brackets the backend
    call (ring-input validation, fault injection, trace recording — the
    same hooks, in the same order, as :func:`mmo_tiled`), and the launch
    is recorded with ``cache_hit`` (callers pass the compile call's hit
    flag for the first iteration and ``True`` for replays).

    ``validate_inputs=False`` opts out of ring-input poison validation,
    exactly as on :func:`mmo_tiled` — loop entry points that deliberately
    iterate non-finite state (NaN fixpoints, fault studies) validate once
    up front, or not at all, and disable the per-replay check.

    ``fault_ordinal`` hands the launch a pre-reserved fault-plan ordinal
    (a :mod:`repro.sched` graph node numbered at build time); ``None``
    keeps today's claim-at-execute numbering.  Degenerate launches ignore
    it — they never claim an ordinal.

    The context must already be resolved (backend validated).
    """
    from repro.backends.base import (  # lazy: backends import us
        check_backend_capability,
        get_backend,
    )

    a, b, c, m, n, k = _validate_operands(a, b, c)
    opcode = compiled.opcode
    pipeline = context.pipeline
    if m == 0 or n == 0:
        launch = pipeline.begin_launch(
            context, api, opcode, a, b, c,
            validate_inputs=validate_inputs, degenerate=True,
        )
        empty, stats = _degenerate_result(opcode.semiring, m, n, k, c)
        return pipeline.finish_launch(launch, empty, stats, 0.0), stats
    compiled.validate_operands(m, n, k, has_accumulator=c is not None)
    impl = get_backend(context.backend)
    densities = None
    if callable(getattr(impl, "select_backend", None)):
        # Re-select per replay: loop entry points that compiled once under
        # backend="auto" re-plan every iteration, so closure loops migrate
        # backends as the iterate's density drifts across the crossover.
        context, impl, densities = _apply_selection(
            context, impl, opcode, a, b, c, api=api
        )
        pipeline = context.pipeline
    else:
        check_backend_capability(
            impl, opcode.semiring, has_accumulator=c is not None
        )

    launch = pipeline.begin_launch(
        context, api, opcode, a, b, c,
        validate_inputs=validate_inputs,
        cache_hit=cache_hit,
        optimizer_removed=compiled.optimizer_removed,
        fault_ordinal=fault_ordinal,
    )
    _note_plan_densities(launch, densities)
    clock = _launch_clock(context)
    start = clock.now()
    result, stats = impl.execute(compiled, a, b, c, context=context)
    elapsed = clock.now() - start
    return pipeline.finish_launch(launch, result, stats, elapsed), stats


def mmo_tiled(
    ring: Semiring | str | MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    backend: str | None = None,
    device: Simd2Device | None = None,
    context: ExecutionContext | None = None,
    api: str = "mmo_tiled",
    validate_inputs: bool = True,
    fault_ordinal: int | None = None,
) -> tuple[np.ndarray, KernelStats]:
    """Whole-matrix ``D = C ⊕ (A ⊗ B)`` with implicit 16×16 tiling.

    Parameters
    ----------
    ring:
        Semiring, semiring name, or mmo opcode.
    a, b, c:
        ``(m, k)``, ``(k, n)`` and optional ``(m, n)`` matrices.
    backend:
        Registry name of the execution backend (``"vectorized"``,
        ``"emulate"``, ``"sparse"``, or anything registered).  ``None``
        defers to the ambient :func:`~repro.runtime.context
        .default_context` (whose default is ``"vectorized"``).
    device:
        Device for device-oriented backends (``"emulate"``); carried in
        the context and ignored by backends that do not emulate hardware.
    context:
        Explicit :class:`~repro.runtime.context.ExecutionContext`; the
        ``backend``/``device`` keywords override its fields when given.
    api:
        Label recorded in trace records (entry points pass their name).
    validate_inputs:
        Reject value-poisoned operands (NaN, and oppositely-signed inf on
        min-plus/max-plus) with a :class:`OperandValidationError` before
        launching — see :func:`_validate_ring_inputs`.  Loop entry points
        that deliberately iterate non-finite state may disable it.
    fault_ordinal:
        Pre-reserved fault-plan ordinal for this launch (graph nodes are
        numbered at build time by :mod:`repro.sched`); ``None`` claims
        the next ordinal at execute time as before.

    Returns
    -------
    (D, KernelStats)
        The result cropped to ``(m, n)`` plus tiling statistics (with
        dynamic :class:`ExecutionStats` attached for the emulate backend
        and :class:`~repro.sparse.spgemm.SpgemmStats` for the sparse one).
    """
    opcode = resolve_opcode(ring)
    semiring = opcode.semiring
    a, b, c, m, n, k = _validate_operands(a, b, c)

    # Resolve + validate the backend once, up front — even for degenerate
    # shapes, so a typo (or a capability violation) fails identically on
    # every input.
    ctx = resolve_context(context, backend=backend, device=device)
    from repro.backends.base import (  # lazy: backends import us
        check_backend_capability,
        get_backend,
    )

    impl = get_backend(ctx.backend)
    planning = callable(getattr(impl, "select_backend", None))
    if not planning:
        check_backend_capability(impl, semiring, has_accumulator=c is not None)
    pipeline = ctx.pipeline

    if m == 0 or n == 0:
        launch = pipeline.begin_launch(
            ctx, api, opcode, a, b, c,
            validate_inputs=validate_inputs, degenerate=True,
        )
        empty, stats = _degenerate_result(semiring, m, n, k, c)
        return pipeline.finish_launch(launch, empty, stats, 0.0), stats

    densities = None
    if planning:
        # Planning backends select per launch; the empty-output path above
        # never reaches here (nothing runs, so there is nothing to plan).
        ctx, impl, densities = _apply_selection(ctx, impl, opcode, a, b, c, api=api)
        pipeline = ctx.pipeline

    compiled, hit = compile_in_context(
        ctx, impl, opcode, m, n, k, has_accumulator=c is not None, api=api
    )
    launch = pipeline.begin_launch(
        ctx, api, opcode, a, b, c,
        validate_inputs=validate_inputs,
        cache_hit=hit,
        optimizer_removed=compiled.optimizer_removed,
        fault_ordinal=fault_ordinal,
    )
    _note_plan_densities(launch, densities)
    clock = _launch_clock(ctx)
    start = clock.now()
    result, stats = impl.execute(compiled, a, b, c, context=ctx)
    elapsed = clock.now() - start
    return pipeline.finish_launch(launch, result, stats, elapsed), stats


def mmo_tiled_split_k(
    ring: Semiring | str | MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    splits: int = 2,
    backend: str | None = None,
    device: Simd2Device | None = None,
    context: ExecutionContext | None = None,
    validate_inputs: bool = True,
) -> tuple[np.ndarray, list[KernelStats]]:
    """Split-k scheduling: partition the inner dimension across kernels.

    Deep reductions limit parallelism when the ``m×n`` tile grid is small;
    GPUs then split k across concurrent kernels, each producing a partial
    result, and combine the partials — valid for *every* SIMD² ring since
    ⊕ is associative and commutative (the same property the reduction tree
    relies on).  The accumulator ``C`` is folded in exactly once, and its
    shape is validated up front so a bad ``C`` fails before any kernel
    runs (exactly like :func:`mmo_tiled`).  Ring-input poison validation
    likewise runs **once** over the full operands up front (one scan, not
    one per split) and is disabled on the per-split launches; pass
    ``validate_inputs=False`` to opt out entirely, as on
    :func:`mmo_tiled`.

    Zero-width partitions (possible when ``splits`` exceeds ``k``, e.g.
    for ``k == 0``) are skipped rather than launched as ``k = 0``
    kernels; when every partition is empty the whole call degenerates to
    a single ``k = 0`` launch.  Equal-width partitions share one
    compiled artifact through the context's plan cache.

    The partial launches and the pinned ⊕ fold are built as a
    :class:`~repro.sched.graph.LaunchGraph` and run by the context's
    scheduler — the partials are independent nodes, so a thread-pool
    scheduler runs them concurrently with bit-identical results.

    Returns the combined result and per-split kernel statistics.
    """
    opcode = resolve_opcode(ring)
    semiring = opcode.semiring
    if splits <= 0:
        raise RuntimeError_(f"splits must be positive, got {splits}")
    a, b, c, m, n, k = _validate_operands(a, b, c)
    if validate_inputs:
        _validate_ring_inputs(semiring, a, b, c)
    if c is not None:
        c = np.asarray(c, dtype=semiring.output_dtype)
    splits = min(splits, k) if k else 1
    ctx = resolve_context(context, backend=backend, device=device)

    # Lazy: repro.sched orchestrates this module's kernels.
    from repro.sched.builders import split_k_graph
    from repro.sched.executor import resolve_scheduler

    graph, out_ref, launch_refs = split_k_graph(
        ctx, opcode, a, b, c, splits=splits
    )
    result = resolve_scheduler(ctx).run(graph, context=ctx)
    stats_list = [result.stats_of(ref) for ref in launch_refs]
    combined = np.asarray(result[out_ref])
    return combined, stats_list

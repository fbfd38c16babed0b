"""Per-launch observability: structured records of every mmo dispatch.

The paper's evaluation framework (Section 5.1) hinges on reconciling three
views of the same launch: the static tiling prediction (how many SIMD²
instructions *should* issue), the dynamic emulator counters (how many
*did*), and the timing model (what they cost).  This module gives that
reconciliation a durable shape: whenever an :class:`~repro.runtime.context.
ExecutionContext` carries a :class:`Trace`, the dispatch layer appends one
:class:`LaunchRecord` per kernel launch — opcode, shape, tile grid, wall
time, the backend that ran it, and every statistics object the launch
produced.  :class:`TraceSummary` folds a trace into the aggregate counters
the bench harness reports.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.hw.warp import ExecutionStats
    from repro.plan.planner import PlanCandidate
    from repro.runtime.kernels import KernelStats
    from repro.sparse.spgemm import SpgemmStats

__all__ = [
    "CompileRecord",
    "LaunchRecord",
    "PlanRecord",
    "ResilienceEvent",
    "Trace",
    "TraceSummary",
]


@dataclasses.dataclass(frozen=True)
class CompileRecord:
    """One pass through the compile seam, with its verification stats.

    Appended by the trace hook at ``post_compile`` — one record per
    compile *request*, whether the plan cache served it (``cache_hit``)
    or the launch paid for a fresh lowering.  The verification fields are
    read off the artifact's cached
    :class:`~repro.isa.verifier.VerificationReport`; ``verified`` is
    ``None`` for artifacts produced by backends that bypass the verified
    lowering path.
    """

    api: str
    backend: str
    opcode: str
    tiles: tuple[int, int, int]  # (tiles_m, tiles_n, tiles_k)
    cache_hit: bool
    verified: bool | None = None
    verifier_warnings: int = 0
    dead_stores: int = 0
    registers_used: int = 0
    shared_memory_bytes: int = 0
    deterministic: bool | None = None


@dataclasses.dataclass(frozen=True)
class ResilienceEvent:
    """One resilience-layer occurrence, as observed at the dispatch seam.

    ``kind`` is one of:

    - ``"fault_injected"`` — the context's fault plan corrupted an output,
      dropped a launch, or hard-failed a device;
    - ``"corruption_detected"`` — an ABFT checksum verification failed;
    - ``"retry"`` — a recovery policy relaunched after a failure;
    - ``"fallback"`` — a fallback chain degraded to another backend;
    - ``"device_failure"`` — a device was blacklisted by the partitioner;
    - ``"repartition"`` — multi-device work was redistributed across the
      surviving devices;
    - ``"watchdog"`` — the closure watchdog terminated an iteration;
    - ``"backend_failure"`` — a breaker-tracked context saw a transient
      failure on the named backend (feeds its circuit breaker);
    - ``"breaker_open"`` — a launch skipped a backend whose circuit
      breaker is open;
    - ``"brownout"`` — a budget-exhausted closure returned its partial
      fixpoint instead of raising (``on_budget="brownout"``).

    ``detail`` is human-readable; ``attempt``/``device_index``/
    ``launch_ordinal`` carry the structured coordinates when applicable.
    """

    kind: str
    api: str
    backend: str
    detail: str
    attempt: int = 0
    device_index: int | None = None
    launch_ordinal: int | None = None


@dataclasses.dataclass(frozen=True)
class PlanRecord:
    """One adaptive-dispatch decision, as surfaced through ``on_plan``.

    Appended by the trace hook whenever the dispatch seam consulted the
    planner (``backend="auto"``): ``backend`` is the concrete choice the
    launch ran on, ``candidates`` the full ranked
    :class:`~repro.plan.planner.PlanCandidate` tuple behind it.
    ``refined`` says at least one candidate was priced from autotune
    observations rather than the cold cost model; ``probe`` marks a
    bounded exploration pick (see :data:`repro.plan.MODEL_ERROR_BAND`);
    ``breaker_skipped`` names backends the context's circuit breakers
    removed from the ranking before the choice.
    """

    api: str
    backend: str
    ring: str
    opcode: str
    shape: tuple[int, int, int]  # (m, n, k)
    density_a: float
    density_b: float
    candidates: "tuple[PlanCandidate, ...]"
    refined: bool = False
    probe: bool = False
    breaker_skipped: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class LaunchRecord:
    """One dispatched mmo launch, as observed at the backend seam.

    ``kernel_stats`` carries the full statistics bundle: the static tiling
    counts always, the dynamic :class:`~repro.hw.warp.ExecutionStats` when
    the emulate backend ran, and the
    :class:`~repro.sparse.spgemm.SpgemmStats` when the sparse backend ran.
    ``cycle_estimate`` is the timing model's price for the launch (total
    unit cycles from :func:`~repro.timing.cycles.kernel_cycle_estimate`).

    ``cache_hit`` reports the compilation half of the launch: ``True``
    when the plan cache served the compiled artifact (or a precompiled
    artifact was replayed), ``False`` when this launch paid for a fresh
    lowering, and ``None`` when no compilation happened at all (a
    degenerate launch with an empty output).
    ``optimizer_removed`` counts the instructions
    :func:`repro.isa.optimizer.optimize_program` dropped from the
    artifact's warp program.
    """

    api: str  # entry point that launched: "mmo_tiled", "mmo_tiled_split_k", ...
    backend: str
    ring: str
    opcode: str
    shape: tuple[int, int, int]  # (m, n, k)
    tiles: tuple[int, int, int]  # (tiles_m, tiles_n, tiles_k)
    wall_time_s: float
    kernel_stats: "KernelStats"
    cycle_estimate: float
    cache_hit: bool | None = None
    optimizer_removed: int = 0

    @property
    def mmo_instructions(self) -> int:
        return self.kernel_stats.mmo_instructions

    @property
    def warp_programs(self) -> int:
        return self.kernel_stats.warp_programs

    @property
    def unit_ops(self) -> int:
        return self.kernel_stats.unit_ops

    @property
    def execution(self) -> "ExecutionStats | None":
        """Dynamic emulator counters (emulate backend only)."""
        return self.kernel_stats.execution

    @property
    def spgemm(self) -> "SpgemmStats | None":
        """spGEMM work counters (sparse backend only)."""
        return self.kernel_stats.spgemm


class Trace:
    """An append-only sink of :class:`LaunchRecord`\\ s and resilience events.

    Attach one to an execution context (``use_context(trace=Trace())``) and
    every launch under that context records itself here; the resilience
    layer (fault injector, ABFT verifier, recovery policies, watchdog)
    appends :class:`ResilienceEvent`\\ s alongside.

    Appends and reads take an internal lock, so one trace can sink
    records from concurrent launches (parallel multi-device bands, the
    kernel tier's worker threads) without losing entries; ``summary``,
    ``events_of`` and iteration observe a consistent snapshot.
    """

    def __init__(self) -> None:
        self.records: list[LaunchRecord] = []
        self.events: list[ResilienceEvent] = []
        self.compiles: list[CompileRecord] = []
        self.plans: list[PlanRecord] = []
        self._lock = threading.Lock()

    def record(self, launch: LaunchRecord) -> None:
        with self._lock:
            self.records.append(launch)

    def record_event(self, event: ResilienceEvent) -> None:
        with self._lock:
            self.events.append(event)

    def record_compile(self, compile_record: CompileRecord) -> None:
        with self._lock:
            self.compiles.append(compile_record)

    def record_plan(self, plan_record: PlanRecord) -> None:
        with self._lock:
            self.plans.append(plan_record)

    def events_of(self, kind: str) -> list[ResilienceEvent]:
        """Every recorded event of one ``kind`` (see :class:`ResilienceEvent`)."""
        with self._lock:
            return [event for event in self.events if event.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self.records.clear()
            self.events.clear()
            self.compiles.clear()
            self.plans.clear()

    def summary(self) -> "TraceSummary":
        with self._lock:
            records = list(self.records)
            events = tuple(self.events)
            compiles = tuple(self.compiles)
            plans = tuple(self.plans)
        return TraceSummary.from_records(records, events, compiles, plans)

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)

    def __iter__(self) -> Iterator[LaunchRecord]:
        with self._lock:
            return iter(tuple(self.records))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({len(self)} launches)"


@dataclasses.dataclass(frozen=True)
class TraceSummary:
    """Aggregate counters of a trace — what the bench harness reports."""

    launches: int
    by_backend: dict[str, int]
    by_ring: dict[str, int]
    mmo_instructions: int
    warp_programs: int
    unit_ops: int
    spgemm_products: int
    wall_time_s: float
    cycle_estimate: float
    cache_hits: int = 0
    cache_misses: int = 0
    optimizer_removed: int = 0
    #: Resilience-event counts by kind (``faults_injected`` etc. read it).
    by_event: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Compile-seam traffic: requests observed, how many carried a passing
    #: verification report, and the verifier warnings across them.
    compile_requests: int = 0
    programs_verified: int = 0
    verifier_warnings: int = 0
    #: Adaptive-dispatch traffic: planner decisions observed, how many
    #: were priced from autotune observations, how many were exploration
    #: probes.
    plan_decisions: int = 0
    plans_refined: int = 0
    plan_probes: int = 0

    @property
    def resilience_events(self) -> int:
        """Total resilience events observed alongside the launches."""
        return sum(self.by_event.values())

    @property
    def faults_injected(self) -> int:
        return self.by_event.get("fault_injected", 0)

    @property
    def corruptions_detected(self) -> int:
        return self.by_event.get("corruption_detected", 0)

    @property
    def retries(self) -> int:
        return self.by_event.get("retry", 0)

    @property
    def fallbacks(self) -> int:
        return self.by_event.get("fallback", 0)

    @property
    def device_failures(self) -> int:
        return self.by_event.get("device_failure", 0)

    @property
    def repartitions(self) -> int:
        return self.by_event.get("repartition", 0)

    @property
    def watchdog_trips(self) -> int:
        return self.by_event.get("watchdog", 0)

    @property
    def backend_failures(self) -> int:
        return self.by_event.get("backend_failure", 0)

    @property
    def breaker_skips(self) -> int:
        return self.by_event.get("breaker_open", 0)

    @property
    def brownouts(self) -> int:
        return self.by_event.get("brownout", 0)

    @property
    def cache_lookups(self) -> int:
        """Launches that went through the compile layer at all."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of compiled launches served from cache (0.0 when none)."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    @classmethod
    def from_records(
        cls,
        records: list[LaunchRecord],
        events: "list[ResilienceEvent] | tuple[ResilienceEvent, ...]" = (),
        compiles: "list[CompileRecord] | tuple[CompileRecord, ...]" = (),
        plans: "list[PlanRecord] | tuple[PlanRecord, ...]" = (),
    ) -> "TraceSummary":
        by_backend: dict[str, int] = {}
        by_ring: dict[str, int] = {}
        mmos = programs = unit_ops = products = 0
        hits = misses = removed = 0
        wall = cycles = 0.0
        for rec in records:
            by_backend[rec.backend] = by_backend.get(rec.backend, 0) + 1
            by_ring[rec.ring] = by_ring.get(rec.ring, 0) + 1
            mmos += rec.mmo_instructions
            programs += rec.warp_programs
            unit_ops += rec.unit_ops
            if rec.spgemm is not None:
                products += rec.spgemm.products
            if rec.cache_hit is True:
                hits += 1
            elif rec.cache_hit is False:
                misses += 1
            removed += rec.optimizer_removed
            wall += rec.wall_time_s
            cycles += rec.cycle_estimate
        by_event: dict[str, int] = {}
        for event in events:
            by_event[event.kind] = by_event.get(event.kind, 0) + 1
        verified = sum(1 for comp in compiles if comp.verified)
        verifier_warnings = sum(comp.verifier_warnings for comp in compiles)
        return cls(
            launches=len(records),
            by_backend=by_backend,
            by_ring=by_ring,
            mmo_instructions=mmos,
            warp_programs=programs,
            unit_ops=unit_ops,
            spgemm_products=products,
            wall_time_s=wall,
            cycle_estimate=cycles,
            cache_hits=hits,
            cache_misses=misses,
            optimizer_removed=removed,
            by_event=by_event,
            compile_requests=len(compiles),
            programs_verified=verified,
            verifier_warnings=verifier_warnings,
            plan_decisions=len(plans),
            plans_refined=sum(1 for plan in plans if plan.refined),
            plan_probes=sum(1 for plan in plans if plan.probe),
        )

    def as_row(self) -> dict[str, object]:
        """Flatten to a bench-table row (see ``repro.bench.reporting``)."""
        return {
            "launches": self.launches,
            "backends": "+".join(sorted(self.by_backend)) or "-",
            "rings": "+".join(sorted(self.by_ring)) or "-",
            "mmo_instructions": self.mmo_instructions,
            "warp_programs": self.warp_programs,
            "unit_ops": self.unit_ops,
            "spgemm_products": self.spgemm_products,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "optimizer_removed": self.optimizer_removed,
            "resilience_events": self.resilience_events,
            "plan_decisions": self.plan_decisions,
            "programs_verified": self.programs_verified,
            "wall_time_s": self.wall_time_s,
            "cycle_estimate": self.cycle_estimate,
        }

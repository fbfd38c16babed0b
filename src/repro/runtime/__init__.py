"""SIMD² programming model: tile API, whole-matrix kernels, closure loops."""

from repro.runtime.api import MatrixHandle, RuntimeError_, TileProgramBuilder
from repro.runtime.context import (
    ExecutionContext,
    default_context,
    resolve_context,
    use_context,
)
from repro.runtime.trace import LaunchRecord, ResilienceEvent, Trace, TraceSummary
from repro.runtime.kernels import (
    KernelStats,
    OperandValidationError,
    execute_compiled,
    mmo_tiled,
    mmo_tiled_split_k,
)
from repro.runtime.closure import (
    ClosureResult,
    closure,
    matrices_equal,
    max_iterations_for,
)
from repro.runtime.host import HostClosureOutcome, HostEvent, HostRuntime
from repro.runtime.batched import BatchStats, batched_mmo
from repro.runtime.vector import VectorResult, reachable_from, sssp, vxm
from repro.runtime.multidevice import DeviceShare, mmo_tiled_multi_device

__all__ = [
    "MatrixHandle",
    "RuntimeError_",
    "TileProgramBuilder",
    "ExecutionContext",
    "default_context",
    "resolve_context",
    "use_context",
    "LaunchRecord",
    "ResilienceEvent",
    "Trace",
    "TraceSummary",
    "KernelStats",
    "OperandValidationError",
    "execute_compiled",
    "mmo_tiled",
    "mmo_tiled_split_k",
    "ClosureResult",
    "closure",
    "matrices_equal",
    "max_iterations_for",
    "HostClosureOutcome",
    "HostEvent",
    "HostRuntime",
    "BatchStats",
    "batched_mmo",
    "VectorResult",
    "reachable_from",
    "sssp",
    "vxm",
    "DeviceShare",
    "mmo_tiled_multi_device",
]

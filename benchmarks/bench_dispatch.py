"""Backend-registry health check: parity smoke plus dispatch overhead.

Standalone script (not a pytest benchmark), wired to ``make check-backends``
and CI.  Four gates:

1. **Parity smoke** — every *registered* backend (including ones added
   after this script was written) agrees with the vectorized reference on
   a representative plus-based and idempotent ring.
2. **Dispatch overhead** — the full ``mmo_tiled`` path (context
   resolution, registry lookup, plan-cache lookup, trace hook) must stay
   within 5 % of calling the backend directly on a 512² mmo.  The
   registry refactor is supposed to be free; this keeps it that way.
3. **Hooks overhead** — the lifecycle hook pipeline on a *default*
   context (validation only: no trace, no faults) must dispatch
   launchless, and its per-call cost over a bare backend ``execute``
   must stay within 5 % of the 512² kernel it brackets.  The pipeline
   refactor replaced the hand-threaded seams; this keeps it free.
4. **Closure relaunch** — relaunching one deep-k shape many times (the
   shape of a closure loop) with the plan cache enabled must beat the
   same loop with memoization disabled (``PlanCache(maxsize=0)``, the
   compile-every-launch seed behaviour): ratio < 1.0.  Plan-cache
   hit/miss counts for both loops land in the artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_dispatch.py
    PYTHONPATH=src python benchmarks/bench_dispatch.py \
        --out benchmarks/results/dispatch.json          # artifact
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.backends import get_backend, list_backends
from repro.compile import PlanCache
from repro.compile.lower import compile_mmo, resolve_opcode
from repro.core import SEMIRINGS
from repro.runtime import ExecutionContext, mmo_tiled

DISPATCH_N = 512
DISPATCH_REPEATS = 5
TINY_REPEATS = 300
MAX_OVERHEAD_RATIO = 1.05
MAX_HOOKS_OVERHEAD_RATIO = 1.05

# Closure-relaunch experiment: a small output with a deep reduction, so the
# per-launch lowering (program length grows with tiles_k) is a visible
# fraction of the launch — the shape class where compile-once-replay pays.
RELAUNCH_M = RELAUNCH_N = 16
RELAUNCH_K = 4096
RELAUNCH_ITERS = 20
RELAUNCH_REPEATS = 5
MAX_RELAUNCH_RATIO = 1.0


def _operands(ring, m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    if ring.is_boolean():
        return rng.random((m, k)) < 0.4, rng.random((k, n)) < 0.4
    # [0.5, 8.5): continuous (fold order matters) and never colliding
    # with any ring's ⊕ identity, so the sparse backend stays non-trivial.
    return rng.uniform(0.5, 8.5, (m, k)), rng.uniform(0.5, 8.5, (k, n))


def parity_smoke(records: list[dict]) -> None:
    """Every registered backend vs the vectorized reference, two rings."""
    for name in ("plus-mul", "min-plus"):
        ring = SEMIRINGS[name]
        a, b = _operands(ring, 48, 64, 32, seed=3)
        expected, ref_stats = mmo_tiled(name, a, b, backend="vectorized")
        for backend in list_backends():
            got, stats = mmo_tiled(name, a, b, backend=backend)
            if ring.oplus is np.add:
                # Backends fold the k-reduction in different orders
                # (spGEMM left-fold vs dense pairwise); fp32 reassociation
                # error grows with k, so match to rounding, not bits.
                ok = np.allclose(
                    got.astype(np.float64), expected.astype(np.float64),
                    rtol=1e-4,
                )
            else:
                ok = np.array_equal(got, expected)
            if not ok:
                raise SystemExit(
                    f"parity: backend {backend!r} disagrees with the "
                    f"vectorized reference on ring {name!r}"
                )
            if stats.mmo_instructions != ref_stats.mmo_instructions:
                raise SystemExit(
                    f"parity: backend {backend!r} reports "
                    f"{stats.mmo_instructions} mmos on {name!r}, reference "
                    f"reports {ref_stats.mmo_instructions}"
                )
            records.append(
                {"case": "parity", "ring": name, "backend": backend, "ok": True}
            )
            print(f"parity  {name:10s} {backend:12s} ok "
                  f"(mmos={stats.mmo_instructions})")


def _interleaved_mins(fn_a, fn_b, repeats: int) -> tuple[float, float]:
    """min-of-repeats for two fns, alternating so drift hits both alike."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def _direct(impl, opcode, a, b, context):
    """A bare backend call: compile through the plan cache, then execute."""
    m, k = a.shape
    compiled, _ = compile_mmo(
        impl, opcode, m, b.shape[1], k, has_accumulator=False, context=context
    )
    return impl.execute(compiled, a, b, None, context=context)


def dispatch_overhead(records: list[dict]) -> None:
    """Context-path cost over a direct backend call on a 512² mmo.

    Dispatch (context resolution, registry lookup, trace hook) is a
    per-call cost of a few µs, independent of operand size; a 512² mmo
    kernel runs for hundreds of ms with several percent of machine
    noise, so timing the two full paths head-to-head at 512² measures
    the noise, not the dispatch.  Instead: isolate the per-call overhead
    on a 16×16 mmo (~30 µs, min-of-many is stable to sub-µs), then hold
    it against the measured 512² kernel time — the gate the refactor
    must pass is that the *measured* dispatch cost is within 5 % of the
    *measured* kernel it decorates.  Full-path 512² timings are still
    recorded for reference.
    """
    ring = SEMIRINGS["plus-mul"]
    impl = get_backend("vectorized")
    opcode = resolve_opcode("plus-mul")
    context = ExecutionContext()

    # (1) Per-call dispatch overhead, measured where it is measurable.
    ta, tb = _operands(ring, 16, 16, 16, seed=5)
    _direct(impl, opcode, ta, tb, context)  # warm lazy imports
    mmo_tiled("plus-mul", ta, tb)
    tiny_direct, tiny_context = _interleaved_mins(
        lambda: _direct(impl, opcode, ta, tb, context),
        lambda: mmo_tiled("plus-mul", ta, tb),
        TINY_REPEATS,
    )
    overhead = max(0.0, tiny_context - tiny_direct)

    # (2) The kernel the overhead budget is expressed against.
    n = DISPATCH_N
    a, b = _operands(ring, n, n, n, seed=17)
    direct, dispatched = _interleaved_mins(
        lambda: _direct(impl, opcode, a, b, context),
        lambda: mmo_tiled("plus-mul", a, b),
        DISPATCH_REPEATS,
    )
    ratio = (direct + overhead) / direct
    records.append(
        {
            "case": "dispatch_overhead", "n": n,
            "tiny_direct_seconds": tiny_direct,
            "tiny_context_seconds": tiny_context,
            "overhead_seconds_per_call": overhead,
            "direct_seconds": direct, "context_seconds": dispatched,
            "ratio": round(ratio, 6), "max_ratio": MAX_OVERHEAD_RATIO,
        }
    )
    print(f"dispatch per-call overhead {overhead * 1e6:6.1f}us  "
          f"(tiny {tiny_direct * 1e6:.1f}us -> {tiny_context * 1e6:.1f}us)")
    print(f"dispatch {n}²  direct {direct * 1e3:7.2f}ms  "
          f"context {dispatched * 1e3:7.2f}ms  "
          f"overhead ratio {ratio:.6f}")
    if ratio > MAX_OVERHEAD_RATIO:
        raise SystemExit(
            f"dispatch overhead {ratio:.3f}x exceeds the "
            f"{MAX_OVERHEAD_RATIO}x budget"
        )


def hooks_overhead(records: list[dict]) -> None:
    """Hook-pipeline cost on a default context vs the kernel it brackets.

    The lifecycle pipeline replaced the hand-threaded trace/fault/
    validation seams with ``begin_launch``/``finish_launch`` around every
    backend call.  On a default context (validation hook only) it must be
    free twice over: structurally — ``begin_launch`` takes the
    allocation-free path and returns no ``Launch`` carrier — and in time,
    measured like :func:`dispatch_overhead`: isolate the per-call delta
    of the pipelined ``execute_compiled`` path over a bare backend
    ``execute`` on a 16² mmo, then hold it against the 512² kernel of
    the relaunch loop.
    """
    from repro.runtime import execute_compiled
    from repro.runtime.kernels import compile_in_context

    ring = SEMIRINGS["plus-mul"]
    impl = get_backend("vectorized")
    opcode = resolve_opcode("plus-mul")
    context = ExecutionContext(plan_cache=PlanCache())

    # Structural gate: the default pipeline dispatches launchless.
    probe_a, probe_b = _operands(ring, 16, 16, 16, seed=5)
    launchless = (
        context.pipeline.begin_launch(
            context, "bench", opcode, probe_a, probe_b, None
        )
        is None
    )
    if not launchless:
        raise SystemExit(
            "hooks: default pipeline allocated a Launch carrier — the "
            "no-observer hot path must be allocation-free"
        )

    # (1) Per-call pipeline overhead, measured where it is measurable.
    tiny, _ = compile_in_context(
        context, impl, opcode, 16, 16, 16, has_accumulator=False
    )
    impl.execute(tiny, probe_a, probe_b, None, context=context)  # warm
    execute_compiled(tiny, probe_a, probe_b, context=context)
    tiny_direct, tiny_piped = _interleaved_mins(
        lambda: impl.execute(tiny, probe_a, probe_b, None, context=context),
        lambda: execute_compiled(tiny, probe_a, probe_b, context=context),
        TINY_REPEATS,
    )
    overhead = max(0.0, tiny_piped - tiny_direct)

    # (2) The 512² relaunch kernel the overhead budget is expressed against.
    n = DISPATCH_N
    a, b = _operands(ring, n, n, n, seed=23)
    compiled, _ = compile_in_context(
        context, impl, opcode, n, n, n, has_accumulator=False
    )
    direct, piped = _interleaved_mins(
        lambda: impl.execute(compiled, a, b, None, context=context),
        lambda: execute_compiled(compiled, a, b, context=context),
        DISPATCH_REPEATS,
    )
    ratio = (direct + overhead) / direct
    records.append(
        {
            "case": "hooks_overhead", "n": n,
            "launchless": launchless,
            "tiny_direct_seconds": tiny_direct,
            "tiny_pipeline_seconds": tiny_piped,
            "overhead_seconds_per_call": overhead,
            "direct_seconds": direct, "pipeline_seconds": piped,
            "ratio": round(ratio, 6),
            "max_ratio": MAX_HOOKS_OVERHEAD_RATIO,
        }
    )
    print(f"hooks   per-call overhead {overhead * 1e6:6.1f}us  "
          f"(tiny {tiny_direct * 1e6:.1f}us -> {tiny_piped * 1e6:.1f}us, "
          f"launchless={launchless})")
    print(f"hooks   {n}²  direct {direct * 1e3:7.2f}ms  "
          f"pipeline {piped * 1e3:7.2f}ms  overhead ratio {ratio:.6f}")
    if ratio > MAX_HOOKS_OVERHEAD_RATIO:
        raise SystemExit(
            f"hooks overhead {ratio:.3f}x exceeds the "
            f"{MAX_HOOKS_OVERHEAD_RATIO}x budget"
        )


def closure_relaunch(records: list[dict]) -> None:
    """Cached relaunch of one shape vs recompiling on every launch.

    Runs the same deep-k mmo ``RELAUNCH_ITERS`` times — the launch pattern
    of a closure loop — under two private plan caches: a real one (one
    miss, then hits) and ``PlanCache(maxsize=0)`` (memoization disabled,
    every launch pays the lowering, i.e. the pre-split behaviour).  The
    cached loop must win outright.
    """
    ring = SEMIRINGS["min-plus"]
    a, b = _operands(ring, RELAUNCH_M, RELAUNCH_K, RELAUNCH_N, seed=11)

    def run_loop(maxsize: int) -> PlanCache:
        cache = PlanCache(maxsize=maxsize)
        context = ExecutionContext(plan_cache=cache)
        for _ in range(RELAUNCH_ITERS):
            mmo_tiled("min-plus", a, b, context=context)
        return cache

    # Warm lazy imports and NumPy dispatch before timing; each timed call
    # builds a fresh cache, so the cached loop's single compile is *inside*
    # its measurement.
    cached_stats = run_loop(128).stats()
    uncached_stats = run_loop(0).stats()
    cached, uncached = _interleaved_mins(
        lambda: run_loop(128), lambda: run_loop(0), RELAUNCH_REPEATS
    )
    ratio = cached / uncached
    records.append(
        {
            "case": "closure_relaunch",
            "m": RELAUNCH_M, "n": RELAUNCH_N, "k": RELAUNCH_K,
            "iterations": RELAUNCH_ITERS,
            "cached_seconds": cached,
            "uncached_seconds": uncached,
            "ratio": round(ratio, 6), "max_ratio": MAX_RELAUNCH_RATIO,
            "cached_cache": {
                "hits": cached_stats.hits, "misses": cached_stats.misses,
                "hit_rate": round(cached_stats.hit_rate, 6),
            },
            "uncached_cache": {
                "hits": uncached_stats.hits, "misses": uncached_stats.misses,
                "hit_rate": round(uncached_stats.hit_rate, 6),
            },
        }
    )
    print(f"relaunch {RELAUNCH_M}x{RELAUNCH_K}x{RELAUNCH_N} "
          f"x{RELAUNCH_ITERS}  cached {cached * 1e3:6.1f}ms "
          f"(hit rate {cached_stats.hit_rate:.2f})  "
          f"uncached {uncached * 1e3:6.1f}ms  ratio {ratio:.3f}")
    if cached_stats.misses != 1 or cached_stats.hits != RELAUNCH_ITERS - 1:
        raise SystemExit(
            f"relaunch: expected 1 miss + {RELAUNCH_ITERS - 1} hits on the "
            f"cached loop, got {cached_stats}"
        )
    if ratio >= MAX_RELAUNCH_RATIO:
        raise SystemExit(
            f"relaunch: cached loop at {ratio:.3f}x of uncached — the plan "
            f"cache must beat recompiling every launch "
            f"(< {MAX_RELAUNCH_RATIO}x)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON artifact here (default: print to stdout)",
    )
    args = parser.parse_args(argv)

    records: list[dict] = []
    parity_smoke(records)
    dispatch_overhead(records)
    hooks_overhead(records)
    closure_relaunch(records)

    artifact = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends": list(list_backends()),
        "records": records,
    }
    payload = json.dumps(artifact, indent=2)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())

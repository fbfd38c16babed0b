#!/usr/bin/env python3
"""Closed-loop benchmark of the SIMD² reproduction's execution stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tile_stream --seed 1 --seconds 24 --trace 0

One caller runs ops back to back on the default serial scheduler for
``--seconds`` seconds (and at least ``--min-ops`` ops), checking every
output against an independent oracle.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates traced and untraced ops and prints the
per-layer metrics, writing the recorded spans to ``perfbench/out/``.  The
last line of standard output is the result as one JSON object; the line
before it holds the run context.  See ``perfbench/README.md``.
"""

import time

_START = time.perf_counter()  # before numpy and repro are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Every run times at least this many ops, so the p90 has ≥10 samples
#: beyond it.
MIN_OPS = 100
#: Set-ups per untraced run (this process plus child processes); the
#: reported ``setup_s`` is their median.
SETUPS = 3
#: Warm-up gives up settling after this many passes over the pool.
SETTLE_PASSES = 12
CHILD_TIMEOUT_S = 60
#: The host probe's time is the best of this many repeats: the first may
#: run on caches the op just evicted.
PROBE_REPEATS = 3


def settle(workload, layers) -> tuple[int, bool]:
    """Warm up until one full pass over the pool is clean.

    Clean means no plan-cache miss and no planner probe: ``pool_size``
    consecutive ops, which visit every pool item once.  Only the compile
    and plan entry points are wrapped, and both lie outside every launch's
    timed region, so counting does not bias the wall times the autotuner
    learns from.  Returns the ops run and whether the pass came clean.
    """
    tracer = layers.Tracer(layers.SETTLE_TARGETS, keep_ops=0)
    size = len(workload.pool)
    clean = ops = 0
    while clean < size and ops < SETTLE_PASSES * size:
        tracer.begin_op()
        try:
            workload.op(ops % size)
        finally:
            totals = tracer.end_op()
        clean = clean + 1 if totals.settled else 0
        ops += 1
    return ops, clean >= size


def make_probe(np):
    """A fixed host-speed probe: a 24×24 min-plus NumPy broadcast and a
    1500-step Python loop, about 0.1 ms on a quiet host.  It is not code of
    the program, so its time follows only the host's speed.  Returns a
    function giving the probe's wall time."""
    a = np.random.default_rng(0).random((24, 24), dtype=np.float32)
    clock = time.perf_counter

    def probe() -> float:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            began = clock()
            np.min(a[:, :, None] + a[None, :, :], axis=1)
            total = 0
            for i in range(1500):
                total += i * i
            best = min(best, clock() - began)
        return best

    return probe


def host_ratios(latencies: list[float], probes: list[float]) -> list[float]:
    """Each op's latency in probe times: over the mean of the probes just
    before and just after it (``probes[i]`` and ``probes[i + 1]``).  A
    shared host slows the op and the probes next to it alike, so the ratio
    keeps the program's speed and cancels the host's."""
    return [
        latency * 2 / (probes[i] + probes[i + 1])
        for i, latency in enumerate(latencies)
    ]


def measure(workload, seconds: float, min_ops: int, tracer=None) -> dict:
    """Run ops back to back; time each and check it against its oracle.

    A host probe runs before the first op and after every op, outside the
    ops' timed intervals (see :func:`host_ratios`).

    With a ``tracer``, ops go in pairs on the same input, one traced and
    one untraced, alternating which runs first, so the tracing overhead is
    measured under the same host drift as the traced numbers.
    """
    import numpy as np

    probe = make_probe(np)
    size = len(workload.pool)
    latencies: list[float] = []
    probes: list[float] = [probe()]
    traced_s: list[float] = []
    untraced_s: list[float] = []
    correct = 0
    errors: dict[str, int] = {}
    clock = time.perf_counter
    start = clock()
    pair = 0
    while clock() - start < seconds or len(latencies) < min_ops:
        index = pair % size
        if tracer is None:
            modes = (False,)
        else:
            modes = (True, False) if pair % 2 == 0 else (False, True)
        for traced in modes:
            began = clock()
            output = None
            try:
                if traced:
                    tracer.begin_op()
                try:
                    output = workload.op(index)
                finally:
                    if traced:
                        tracer.end_op()
            except Exception as exc:  # a failed op counts; the run goes on
                name = type(exc).__name__
                errors[name] = errors.get(name, 0) + 1
            ended = clock()
            probes.append(probe())
            try:
                ok = output is not None and workload.check(index, output)
            except (ValueError, TypeError, IndexError) as exc:
                name = f"check:{type(exc).__name__}"
                errors[name] = errors.get(name, 0) + 1
                ok = False
            correct += ok
            latencies.append(ended - began)
            if tracer is not None:
                (traced_s if traced else untraced_s).append(ended - began)
        pair += 1
    return {
        "latencies": latencies,
        "correct": correct,
        "probes": probes,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "errors": errors,
    }


def calibrate(np) -> tuple[float, float]:
    """Median ms of a fixed NumPy kernel and of a fixed pure-Python loop.

    Taken before and after every run: a shift in these between runs is
    the host, not the program.
    """
    rng = np.random.default_rng(0)
    a = rng.random((128, 64), dtype=np.float32)
    b = rng.random((64, 128), dtype=np.float32)
    numpy_ms, python_ms = [], []
    for _ in range(5):
        began = time.perf_counter()
        np.min(a[:, :, None] + b[None, :, :], axis=1)
        numpy_ms.append((time.perf_counter() - began) * 1e3)
        began = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        python_ms.append((time.perf_counter() - began) * 1e3)
    return statistics.median(numpy_ms), statistics.median(python_ms)


def _commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    """Lines of Python under ``src/repro``."""
    total = 0
    for folder, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _child_setup(args) -> float:
    """``setup_s`` of a fresh process running this workload's set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS,
                        help="time at least this many ops (smoke tests lower it)")
    parser.add_argument("--setups", type=int, default=SETUPS,
                        help="set-ups whose median is setup_s (smoke tests use 1)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s and exit (used internally)")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package at {os.path.join(SRC, 'repro')}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    settle_ops, settled = settle(workload, layers)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    began = time.perf_counter()
    workload.compute_references()
    reference_s = time.perf_counter() - began

    tracer = layers.Tracer() if args.trace else None
    calib_before = calibrate(np)
    run = measure(workload, args.seconds, args.min_ops, tracer)
    calib_after = calibrate(np)

    latencies = run["latencies"]
    attempted = len(latencies)
    correct = run["correct"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_repro_lines": _src_lines(),
        "settle_ops": settle_ops,
        "settled": settled,
        "reference_s": reference_s,
        "calib_before_ms": calib_before,
        "calib_after_ms": calib_after,
        "errors": run["errors"],
        "probe_ms": {
            f"p{q}": _percentile(run["probes"], q) * 1e3 for q in (10, 50, 90)
        },
    }
    calib = list(zip(calib_before, calib_after))

    if args.trace:
        metrics = layers.layer_metrics(tracer.totals)
        traced = statistics.fmean(run["traced_s"])
        untraced = statistics.fmean(run["untraced_s"])
        # Traced ÷ untraced wall-clock ops/s.
        metrics["trace.overhead_ratio"] = (untraced / traced, "ratio")
        metrics["host.calib_numpy_ms"] = (statistics.fmean(calib[0]), "ms")
        metrics["host.calib_python_ms"] = (statistics.fmean(calib[1]), "ms")
        context["traced_ops"] = tracer.totals.ops
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({
                "context": context,
                "span_fields": ["op", "layer", "func", "start", "end", "parent", "note"],
                "spans": tracer.kept,
                "metrics": {k: v for k, (v, _) in metrics.items()},
            }, fh)
    else:
        setups = [setup_s] + [_child_setup(args) for _ in range(args.setups - 1)]
        context["setup_samples_s"] = setups
        # The gated timings are in probe times (see host_ratios); the wall
        # times, which follow the host's load, go into the context.
        ratios = host_ratios(latencies, run["probes"])
        context["wall"] = {
            "ops_per_s": correct / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": _percentile(latencies, 90) * 1e3,
        }
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_kprobe": (1e3 * correct / sum(ratios), "1/kprobe"),
            "op_p50_probes": (statistics.median(ratios), "probe"),
            "op_p90_probes": (_percentile(ratios, 90), "probe"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_ratio": (correct / attempted, "ratio"),
        }

    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct == attempted,
        "attempted": attempted,
        "failed": attempted - correct,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

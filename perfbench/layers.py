"""Per-layer tracing of the ``repro`` execution stack, from outside it.

The program itself is not instrumented.  Instead, :class:`Tracer` wraps the
public function of each layer at every name its callers look it up by: a
function imported with ``from module import name`` lives on in several
module namespaces, so every ``repro.*`` module attribute that *is* the
original function is replaced, and methods are replaced on their class.
Wrappers are installed around one op at a time and removed afterwards, so
untraced ops run the unmodified program.

Each wrapped call records a span ``(layer, func, start, end, parent,
note)``, where ``note`` is a count read from the call's arguments or
result.  A span's self time is its duration minus the durations of its
direct children; summed over every span of an op (the op's own root span
included) the self times add up to the op's wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

#: ``(layer, owner, attribute)``.  ``owner`` is ``module`` for a module
#: function or ``module:Class`` for a method.
LAYER_TARGETS = (
    ("apps", "repro.apps.apsp", "apsp_simd2"),
    ("apps", "repro.apps.knn", "knn_simd2"),
    ("resilience", "repro.resilience.policy", "resilient_mmo"),
    ("runtime", "repro.runtime.closure", "closure"),
    ("runtime", "repro.runtime.kernels", "mmo_tiled"),
    ("runtime", "repro.runtime.kernels", "mmo_tiled_split_k"),
    ("runtime", "repro.runtime.kernels", "execute_compiled"),
    ("compile", "repro.runtime.kernels", "compile_mmo"),
    ("plan", "repro.plan.backend:AutoBackend", "select_backend"),
    ("sparse.density", "repro.sparse.density", "estimate_density"),
    ("sched", "repro.sched.executor:SerialExecutor", "run"),
    ("hooks", "repro.hooks.pipeline:HookPipeline", "begin_launch"),
    ("hooks", "repro.hooks.pipeline:HookPipeline", "finish_launch"),
    ("backends.vectorized", "repro.backends.vectorized:VectorizedBackend", "execute"),
    ("backends.sparse", "repro.backends.sparse:SparseBackend", "execute"),
    ("core", "repro.core.ops", "mmo"),
    ("sparse.spgemm", "repro.sparse.spgemm", "spgemm"),
)

#: The two wrappers the settling warm-up needs: they sit outside every
#: launch's timed region, so counting through them does not bias the wall
#: times the autotuner learns from.
SETTLE_TARGETS = tuple(
    t for t in LAYER_TARGETS if t[0] in ("compile", "plan")
)

#: Layers in report order; ``op`` is the benchmark's own code around calls.
LAYERS = (
    "op", "apps", "resilience", "runtime", "compile", "plan",
    "sparse.density", "sched", "hooks", "backends.vectorized",
    "backends.sparse", "core", "sparse.spgemm",
)

#: Modules whose import binds a target by name; imported before patching
#: so no module first imported mid-op captures a wrapper for good.
_BINDING_MODULES = (
    "repro", "repro.core", "repro.runtime", "repro.sched.builders",
    "repro.sched.executor", "repro.backends", "repro.backends.sparse",
    "repro.backends.vectorized", "repro.plan", "repro.plan.backend",
    "repro.resilience", "repro.apps", "repro.sparse",
)


def _note(func: str, args: tuple, kwargs: dict, result: object) -> object:
    """The count a span carries, read from its call's arguments/result."""
    if func == "compile_mmo":
        return bool(result[1])  # plan-cache hit
    if func == "select_backend":
        chosen, plan = result
        return chosen, bool(plan.probe)
    if func == "mmo":  # core.ops.mmo(ring, a, b, c=None)
        a, b = args[1], args[2]
        c = args[3] if len(args) > 3 else kwargs.get("c")
        m, k = a.shape
        n = b.shape[1]
        nbytes = a.nbytes + b.nbytes + result.nbytes
        if c is not None:
            nbytes += c.nbytes
        return m * n * k, nbytes
    if func == "spgemm":
        return result[1].products
    if func == "run":  # SerialExecutor.run(self, graph)
        return len(args[1].nodes)
    return None


_NOTED = frozenset(("compile_mmo", "select_backend", "mmo", "spgemm", "run"))


class Tracer:
    """Records spans around the calls into each layer of the stack.

    ``begin_op`` installs the wrappers and opens the op's root span;
    ``end_op`` closes it, removes the wrappers, folds the op's spans into
    running totals and returns them.  Raw spans are kept for the first
    ``keep_ops`` ops only, so memory stays bounded on long runs.
    """

    def __init__(self, targets=LAYER_TARGETS, keep_ops: int = 64):
        self.keep_ops = keep_ops
        self.kept: list[tuple] = []
        self.totals = Totals()
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._active = False
        self._sites = self._find_sites(targets)

    # -- wrapping -------------------------------------------------------
    def _find_sites(self, targets) -> list[tuple[object, str, object, object]]:
        for name in _BINDING_MODULES:
            importlib.import_module(name)
        sites = []
        for layer, owner, attr in targets:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                sites.append((cls, attr, original, self._wrap(layer, attr, original)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, attr, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "repro" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        sites.append((mod, key, original, wrapper))
        return sites

    def _wrap(self, layer: str, func: str, original):
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter
        noted = func in _NOTED

        def wrapper(*args, **kwargs):
            if not self._active:  # a binding taken while installed, used later
                return original(*args, **kwargs)
            index = len(spans)
            span = [layer, func, clock(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
                if noted:
                    span[5] = _note(func, args, kwargs, result)
                return result
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    # -- per op ---------------------------------------------------------
    def begin_op(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self._active = True
        self._spans.clear()
        self._stack[:] = [0]
        self._spans.append(["op", "op", time.perf_counter(), 0.0, -1, None])

    def end_op(self) -> "Totals":
        self._spans[0][3] = time.perf_counter()
        self._active = False
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)
        spans = [tuple(span) for span in self._spans]
        op = self.totals.ops
        if op < self.keep_ops:
            self.kept.extend((op,) + span for span in spans)
        op_totals = Totals()
        op_totals.add(spans)
        self.totals.merge(op_totals)
        return op_totals


def self_times(spans) -> list[float]:
    """Each span's duration minus its direct children's durations.

    ``spans`` are ``(layer, func, start, end, parent, note)`` tuples whose
    ``parent`` indexes the same list (``-1`` for a root).
    """
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Totals:
    """Per-layer self time and the counts the metrics are built from."""

    def __init__(self):
        self.ops = 0
        self.wall = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, spans) -> None:
        own = self_times(spans)
        self.ops += 1
        self.wall += spans[0][3] - spans[0][2]
        launches_under: dict[int, int] = defaultdict(int)
        for layer, func, start, end, parent, note in spans:
            if parent >= 0 and layer == "runtime":
                launches_under[parent] += 1
        for index, (layer, func, start, end, parent, note) in enumerate(spans):
            self.self_s[layer] += own[index]
            self.total_s[layer] += end - start
            self.calls[layer] += 1
            if func == "compile_mmo":
                self.counts["compile.hits"] += note
            elif func == "select_backend":
                self.counts["plan.sparse"] += note[0] == "sparse"
                self.counts["plan.probes"] += note[1]
            elif func == "mmo":
                self.counts["core.unit_ops"] += note[0]
                self.counts["core.bytes"] += note[1]
            elif func == "spgemm":
                self.counts["sparse.products"] += note
            elif func == "run":
                self.counts["sched.nodes"] += note
                if parent >= 0 and spans[parent][1] == "closure":
                    self.counts["closure.iterations"] += 1
            elif func == "resilient_mmo":
                # One launch per attempt: every launch past the first retried.
                self.counts["resilience.retries"] += max(launches_under[index] - 1, 0)

    def merge(self, other: "Totals") -> None:
        self.ops += other.ops
        self.wall += other.wall
        for mine, theirs in (
            (self.self_s, other.self_s), (self.total_s, other.total_s),
            (self.calls, other.calls), (self.counts, other.counts),
        ):
            for key, value in theirs.items():
                mine[key] += value

    @property
    def settled(self) -> bool:
        """No plan-cache miss and no planner probe."""
        misses = self.calls["compile"] - self.counts["compile.hits"]
        return misses == 0 and self.counts["plan.probes"] == 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: Totals) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from traced-op totals.

    A layer that never ran on the workload reports 0.
    """
    t, s, calls, n = totals.total_s, totals.self_s, totals.calls, totals.counts
    ops = max(totals.ops, 1)
    launches = calls["backends.vectorized"] + calls["backends.sparse"]
    lookups = calls["compile"]
    plans = calls["plan"]
    metrics = {
        "apps.self_ms_per_op": (s["apps"] / ops * 1e3, "ms"),
        "runtime.self_us_per_launch": (_ratio(s["runtime"], launches) * 1e6, "us"),
        "runtime.launches_per_op": (launches / ops, "count"),
        "runtime.closure_iterations_per_op": (n["closure.iterations"] / ops, "count"),
        "hooks.us_per_launch": (_ratio(t["hooks"], launches) * 1e6, "us"),
        "compile.us_per_lookup": (_ratio(t["compile"], lookups) * 1e6, "us"),
        "compile.hit_ratio": (_ratio(n["compile.hits"], lookups), "ratio"),
        "compile.misses": (lookups - n["compile.hits"], "count"),
        "plan.us_per_plan": (_ratio(t["plan"], plans) * 1e6, "us"),
        "plan.probes": (n["plan.probes"], "count"),
        "plan.share_sparse": (_ratio(n["plan.sparse"], plans), "ratio"),
        "sched.self_us_per_graph": (_ratio(s["sched"], calls["sched"]) * 1e6, "us"),
        "sched.nodes_per_graph": (_ratio(n["sched.nodes"], calls["sched"]), "count"),
        "backends.vectorized.self_us_per_call": (
            _ratio(s["backends.vectorized"], calls["backends.vectorized"]) * 1e6, "us"),
        "backends.vectorized.calls_per_op": (calls["backends.vectorized"] / ops, "count"),
        "backends.sparse.self_ms_per_call": (
            _ratio(s["backends.sparse"], calls["backends.sparse"]) * 1e3, "ms"),
        "backends.sparse.calls_per_op": (calls["backends.sparse"] / ops, "count"),
        "core.ms_per_call": (_ratio(t["core"], calls["core"]) * 1e3, "ms"),
        "core.share": (_ratio(s["core"], totals.wall), "ratio"),
        "core.unit_ops_per_s": (_ratio(n["core.unit_ops"], t["core"]), "1/s"),
        "core.computed_bytes_per_call": (_ratio(n["core.bytes"], calls["core"]), "B"),
        "core.ops_per_byte": (_ratio(n["core.unit_ops"], n["core.bytes"]), "1/B"),
        "sparse.spgemm_ms_per_call": (
            _ratio(t["sparse.spgemm"], calls["sparse.spgemm"]) * 1e3, "ms"),
        "sparse.products_per_call": (
            _ratio(n["sparse.products"], calls["sparse.spgemm"]), "count"),
        "sparse.density_us_per_call": (
            _ratio(t["sparse.density"], calls["sparse.density"]) * 1e6, "us"),
        "resilience.self_us_per_checked_launch": (
            _ratio(s["resilience"], calls["resilience"]) * 1e6, "us"),
        "resilience.retries": (n["resilience.retries"], "count"),
    }
    for layer in LAYERS:
        if layer != "core":
            metrics[f"{layer}.self_share"] = (_ratio(s[layer], totals.wall), "ratio")
    return metrics

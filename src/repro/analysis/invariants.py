"""AST-level invariant lint: the repository's cross-cutting contracts.

The IR verifier (:mod:`repro.isa.verifier`) proves properties of *lowered
programs*; this module proves properties of the *source tree* that no
unit test pins down because they are conventions spanning many files:

- **trace-writes** — :class:`~repro.runtime.trace.Trace` is written only
  through the hook pipeline (:mod:`repro.hooks`); dispatch code that
  hand-appends records resurrects exactly the seam drift the pipeline
  refactor removed;
- **launch-bracketing** — every runtime function that invokes a backend
  (``.execute``, or a reintroduced single-shot ``.run_mmo``) must bracket
  the call with the pipeline's
  ``begin_launch``/``finish_launch``, so no dispatch path escapes
  validation, fault injection or tracing;
- **raw-matmul** — backends and the sparse tier may not use raw numpy
  matrix products (``@``, ``np.dot``, ``np.matmul``, ``np.einsum``):
  every product must flow through a semiring fold so non-(+,×) rings
  cannot silently fall back to GEMM semantics;
- **lock-discipline** — the attributes :class:`PlanCache`,
  :class:`Trace` and :class:`~repro.plan.autotune.AutotuneTable`
  document as lock-protected are touched only inside ``with
  self._lock:`` (``__init__``, which runs before the object is shared,
  is exempt);
- **backend-resolution** — runtime and resilience dispatch sites resolve
  backends through the context/planner/registry, never by string
  literal: no ``get_backend("<name>")`` calls and no ``.backend ==
  "<name>"`` dispatch comparisons outside :mod:`repro.plan` — hardcoded
  names at dispatch sites are exactly what adaptive dispatch replaced;
- **scheduler-loops** — outside :mod:`repro.sched`, no raw loops over
  ``execute_compiled``: loop-shaped entry points lower onto a
  :class:`~repro.sched.graph.LaunchGraph` so every replay flows through
  the scheduler (backend locks, deterministic ordering, per-node
  resilience) instead of a hand-rolled ``for`` loop;
- **clock-discipline** — outside ``repro/resilience/clock.py`` (the one
  adapter over the stdlib), no raw ``time.time()`` /
  ``time.monotonic()`` / ``time.perf_counter()`` / ``time.sleep()``
  calls and no ``from time import ...``: wall time flows through the
  injectable :class:`~repro.resilience.clock.Clock` so deadlines,
  backoff and launch timings replay deterministically under a virtual
  clock;
- **import-layering** — see :mod:`repro.analysis.layering`.

Each rule is a :class:`Rule` subclass; :func:`lint_paths` applies every
applicable rule to every ``.py`` file under the given roots and returns
:class:`Violation`\\ s.  ``python -m repro.analysis`` (or
``tools/check_invariants.py`` / ``make check-static``) runs the full set
and exits non-zero on any violation — the tree is expected to lint clean
with **zero suppressions**.

Adding a rule: subclass :class:`Rule`, implement ``applies_to`` (path
filter) and ``check`` (AST walk yielding violations), and append an
instance in :func:`default_rules`.  Keep rules syntactic and
allowlist-free where possible; a rule that needs per-file exemptions is
usually describing a convention the code should change to meet instead.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "BackendResolutionRule",
    "ClockDisciplineRule",
    "LaunchBracketRule",
    "LockDisciplineRule",
    "RawMatmulRule",
    "Rule",
    "SchedulerLoopRule",
    "TraceWriteRule",
    "Violation",
    "default_rules",
    "lint_file",
    "lint_paths",
]


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach, pointing at the offending source line."""

    path: str  # POSIX-style path relative to the source root ("repro/...")
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Rule:
    """Base class of invariant-lint rules.

    ``applies_to`` filters by repository-relative POSIX path (cheap, runs
    per file); ``check`` walks the parsed module of an applicable file
    and yields violations.  Rules are stateless — one instance serves
    every file.
    """

    #: Identifier shown in diagnostics and used by tests.
    name: str = ""
    #: One-line statement of the invariant (docs list these).
    description: str = ""

    def applies_to(self, relpath: str) -> bool:
        raise NotImplementedError

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, relpath: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=relpath,
            line=getattr(node, "lineno", 0),
            rule=self.name,
            message=message,
        )


def _call_attr(node: ast.AST) -> str | None:
    """The attribute name of a method-style call, or ``None``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class TraceWriteRule(Rule):
    """Trace records are appended only by the hook pipeline.

    The whole point of the lifecycle-hook refactor is that dispatch code
    never hand-threads observability: a ``trace.record(...)`` call in an
    entry point is a seam regression even if it happens to work today.
    Writes are allowed in :mod:`repro.hooks` (the pipeline's sinks) and
    in ``repro/runtime/trace.py`` itself (the definitions).
    """

    name = "trace-writes"
    description = (
        "Trace.record / record_event / record_compile are called only from "
        "repro/hooks/ (the pipeline) and repro/runtime/trace.py"
    )

    _WRITERS = frozenset(
        {"record", "record_event", "record_compile", "record_plan"}
    )
    _ALLOWED_PREFIXES = ("repro/hooks/",)
    _ALLOWED_FILES = frozenset({"repro/runtime/trace.py"})

    def applies_to(self, relpath: str) -> bool:
        if relpath in self._ALLOWED_FILES:
            return False
        return not relpath.startswith(self._ALLOWED_PREFIXES)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            attr = _call_attr(node)
            if attr not in self._WRITERS:
                continue
            receiver = ast.unparse(node.func.value)  # type: ignore[union-attr]
            # ``.record`` is a common name; only flag it on trace-shaped
            # receivers.  The distinctive writers flag unconditionally.
            if attr == "record" and not (
                receiver == "trace" or receiver.endswith(".trace")
            ):
                continue
            yield self.violation(
                relpath,
                node,
                f"{receiver}.{attr}(...) writes a trace outside the hook "
                f"pipeline; emit through repro.hooks instead",
            )


class LaunchBracketRule(Rule):
    """Backend invocations in the runtime go through the hook pipeline.

    A function under ``repro/runtime/`` that calls ``.execute(...)`` or
    ``.run_mmo(...)`` must also call ``begin_launch`` and
    ``finish_launch`` — otherwise that dispatch path skips validation,
    fault injection and trace recording for every launch it issues.
    """

    name = "launch-bracketing"
    description = (
        "runtime functions calling backend .execute/.run_mmo also call "
        "pipeline begin_launch and finish_launch"
    )

    #: ``execute`` is the one backend entry the dispatch seam calls;
    #: ``run_mmo`` (the deleted single-shot path) stays listed so a
    #: resurrected compile-and-run call cannot dodge the pipeline either.
    _BACKEND_CALLS = frozenset({"execute", "run_mmo"})

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("repro/runtime/")

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called: set[str] = set()
            backend_calls: list[ast.AST] = []
            for sub in ast.walk(node):
                attr = _call_attr(sub)
                if attr is None:
                    continue
                called.add(attr)
                if attr in self._BACKEND_CALLS:
                    backend_calls.append(sub)
            if not backend_calls:
                continue
            missing = {"begin_launch", "finish_launch"} - called
            for call in backend_calls:
                if missing:
                    yield self.violation(
                        relpath,
                        call,
                        f"{node.name}() invokes a backend without calling "
                        f"{' and '.join(sorted(missing))} — every dispatch "
                        f"path must run the hook pipeline",
                    )


class RawMatmulRule(Rule):
    """No raw numpy matrix products in backends or the sparse tier.

    ``A @ B`` / ``np.dot`` / ``np.matmul`` / ``np.einsum`` hardcode the
    (+,×) ring.  Backend inner loops must express products through the
    semiring's ⊗/⊕ callables (``repro.core.semiring``) so min-plus and
    friends compute min-plus, not GEMM.  A helper that legitimately
    reduces with numpy primitives *on behalf of a semiring* can be
    designated in :data:`SEMIRING_FOLD_HELPERS` (``"<relpath>::<func>"``)
    — the set is intentionally empty today.
    """

    name = "raw-matmul"
    description = (
        "no @, np.dot, np.matmul or np.einsum in repro/backends/ or "
        "repro/sparse/ outside designated semiring fold helpers"
    )

    #: Qualified "relpath::function" names exempt from the rule.
    SEMIRING_FOLD_HELPERS: frozenset[str] = frozenset()
    _PRODUCTS = frozenset({"dot", "matmul", "einsum"})

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(("repro/backends/", "repro/sparse/"))

    def _exempt(self, relpath: str, func_stack: tuple[str, ...]) -> bool:
        return any(
            f"{relpath}::{name}" in self.SEMIRING_FOLD_HELPERS
            for name in func_stack
        )

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        def visit(node: ast.AST, stack: tuple[str, ...]) -> Iterator[Violation]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack = stack + (node.name,)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                if not self._exempt(relpath, stack):
                    yield self.violation(
                        relpath,
                        node,
                        "raw `@` matrix product hardcodes the (+,x) ring; "
                        "fold through the semiring instead",
                    )
            attr = _call_attr(node)
            if attr in self._PRODUCTS:
                receiver = ast.unparse(node.func.value)  # type: ignore[union-attr]
                if receiver in ("np", "numpy") and not self._exempt(relpath, stack):
                    yield self.violation(
                        relpath,
                        node,
                        f"{receiver}.{attr}(...) hardcodes the (+,x) ring; "
                        f"fold through the semiring instead",
                    )
            for child in ast.iter_child_nodes(node):
                yield from visit(child, stack)

        yield from visit(tree, ())


class LockDisciplineRule(Rule):
    """Documented lock-protected attributes are only touched under the lock.

    :class:`~repro.compile.cache.PlanCache` and
    :class:`~repro.runtime.trace.Trace` promise thread-safety; the
    promise holds only if every read and write of their shared state is
    lexically inside ``with self._lock:``.  ``__init__`` runs before the
    object can be shared, so it is exempt.
    """

    name = "lock-discipline"
    description = (
        "PlanCache/Trace protected attributes accessed only under "
        "`with self._lock:` (outside __init__)"
    )

    #: {(relpath, class name): attributes the class's lock protects}.
    PROTECTED: dict[tuple[str, str], frozenset[str]] = {
        ("repro/compile/cache.py", "PlanCache"): frozenset(
            {"_entries", "_hits", "_misses", "_evictions"}
        ),
        ("repro/runtime/trace.py", "Trace"): frozenset(
            {"records", "events", "compiles", "plans"}
        ),
        ("repro/plan/autotune.py", "AutotuneTable"): frozenset(
            {"_entries", "_plans", "_version"}
        ),
        ("repro/resilience/breaker.py", "BreakerBoard"): frozenset(
            {"_breakers"}
        ),
    }

    def applies_to(self, relpath: str) -> bool:
        return any(path == relpath for path, _ in self.PROTECTED)

    @staticmethod
    def _is_lock_guard(stmt: ast.With) -> bool:
        return any(
            isinstance(item.context_expr, ast.Attribute)
            and item.context_expr.attr == "_lock"
            and isinstance(item.context_expr.value, ast.Name)
            and item.context_expr.value.id == "self"
            for item in stmt.items
        )

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        targets = {
            cls: attrs
            for (path, cls), attrs in self.PROTECTED.items()
            if path == relpath
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name not in targets:
                continue
            protected = targets[node.name]
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__":
                    continue
                yield from self._check_body(
                    method, protected, relpath, node.name, method.name, False
                )

    def _check_body(
        self,
        node: ast.AST,
        protected: frozenset[str],
        relpath: str,
        cls: str,
        method: str,
        under_lock: bool,
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.With) and self._is_lock_guard(child):
                yield from self._check_body(
                    child, protected, relpath, cls, method, True
                )
                continue
            if (
                not under_lock
                and isinstance(child, ast.Attribute)
                and child.attr in protected
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"
            ):
                yield self.violation(
                    relpath,
                    child,
                    f"{cls}.{method} touches self.{child.attr} outside "
                    f"`with self._lock:` — torn reads/lost updates under "
                    f"concurrent launches",
                )
            yield from self._check_body(
                child, protected, relpath, cls, method, under_lock
            )


class BackendResolutionRule(Rule):
    """Dispatch sites resolve backends via the planner/registry, not names.

    With the planning stage in place, a runtime or resilience code path
    that looks up a backend by string literal — ``get_backend("sparse")``
    or ``if ctx.backend == "emulate":`` — is re-growing exactly the
    hardcoded dispatch the planner replaced: the choice stops flowing
    through capabilities, cost ranking and the autotune table.  Backend
    names as *configuration defaults* (dataclass field defaults,
    ``ExecutionContext(backend=...)`` construction) stay legal; only
    resolution (`get_backend`) and equality dispatch on ``.backend`` are
    flagged.
    """

    name = "backend-resolution"
    description = (
        "no get_backend(<string literal>) calls and no `.backend == "
        "<literal>` dispatch comparisons under repro/runtime/ or "
        "repro/resilience/ — backend choice flows through the "
        "context/planner/registry"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(("repro/runtime/", "repro/resilience/"))

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                fname = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None
                )
                if (
                    fname == "get_backend"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    yield self.violation(
                        relpath,
                        node,
                        f"get_backend({node.args[0].value!r}) hardcodes a "
                        f"backend at a dispatch site; resolve through the "
                        f"context or the planner instead",
                    )
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                names_backend = any(
                    isinstance(o, ast.Attribute) and o.attr == "backend"
                    for o in operands
                )
                literal = next(
                    (
                        o.value
                        for o in operands
                        if isinstance(o, ast.Constant)
                        and isinstance(o.value, str)
                    ),
                    None,
                )
                if (
                    names_backend
                    and literal is not None
                    and all(
                        isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
                    )
                ):
                    yield self.violation(
                        relpath,
                        node,
                        f"comparing .backend against {literal!r} dispatches "
                        f"on a hardcoded name; use capabilities or the "
                        f"planner's ranking instead",
                    )


class SchedulerLoopRule(Rule):
    """Loop-shaped launch replay goes through the LaunchGraph scheduler.

    A ``for``/``while`` loop that calls ``execute_compiled`` per
    iteration is a hand-rolled scheduler: it re-grows exactly the five
    divergent orchestration loops the :mod:`repro.sched` refactor
    collapsed — no deterministic node ordinals, no backend thread-safety
    locks, no per-node resilience policy.  Outside :mod:`repro.sched`
    (the one place allowed to drive the seam; its retried nodes relaunch
    through :func:`repro.resilience.policy.attempt`),
    replays must be expressed as launch nodes on a
    :class:`~repro.sched.graph.LaunchGraph` and handed to the context's
    scheduler.
    """

    name = "scheduler-loops"
    description = (
        "no execute_compiled calls inside for/while loops outside "
        "repro/sched/ — loop-shaped entry points orchestrate via a "
        "LaunchGraph run by the scheduler"
    )

    _LOOPS = (ast.For, ast.AsyncFor, ast.While)

    def applies_to(self, relpath: str) -> bool:
        if relpath.startswith("repro/sched/"):
            return False
        return relpath.startswith("repro/")

    @staticmethod
    def _is_execute_compiled(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "execute_compiled"
        return isinstance(func, ast.Attribute) and func.attr == "execute_compiled"

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, self._LOOPS):
                continue
            # Only the loop body/else replay per iteration; the iterable
            # expression evaluates once and walks separately anyway.
            for sub in ast.walk(node):
                if self._is_execute_compiled(sub):
                    yield self.violation(
                        relpath,
                        sub,
                        "execute_compiled called inside a loop — lower "
                        "the iteration onto a LaunchGraph and run it "
                        "through the scheduler (repro.sched) instead",
                    )


class ClockDisciplineRule(Rule):
    """Wall-clock reads and sleeps flow through the injectable Clock.

    A raw ``time.perf_counter()`` in dispatch code is invisible to the
    virtual clock: deadline tests flake, backoff schedules stop
    replaying, and chaos runs lose byte-identical determinism.  The one
    adapter over the stdlib is ``repro/resilience/clock.py``
    (:class:`~repro.resilience.clock.MonotonicClock`); everything else
    reads time through the context's
    :class:`~repro.resilience.clock.Clock`.  ``from time import ...`` is
    flagged wholesale — aliasing ``sleep`` locally is exactly the bypass
    the rule exists to catch.
    """

    name = "clock-discipline"
    description = (
        "no time.time/monotonic/perf_counter/sleep calls (or "
        "`from time import ...`) under repro/ outside "
        "repro/resilience/clock.py — wall time flows through the "
        "injectable Clock"
    )

    _BANNED = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "sleep",
        }
    )
    _ALLOWED_FILES = frozenset({"repro/resilience/clock.py"})

    def applies_to(self, relpath: str) -> bool:
        if relpath in self._ALLOWED_FILES:
            return False
        return relpath.startswith("repro/")

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                yield self.violation(
                    relpath,
                    node,
                    "`from time import ...` bypasses the injectable Clock; "
                    "read time through repro.resilience.clock instead",
                )
                continue
            attr = _call_attr(node)
            if attr not in self._BANNED:
                continue
            receiver = ast.unparse(node.func.value)  # type: ignore[union-attr]
            if receiver == "time":
                yield self.violation(
                    relpath,
                    node,
                    f"time.{attr}(...) bypasses the injectable Clock — "
                    f"deadlines and backoff stop replaying under a virtual "
                    f"clock; use repro.resilience.clock instead",
                )


def default_rules() -> tuple[Rule, ...]:
    """Every invariant the repository enforces, in reporting order."""
    from repro.analysis.layering import ImportLayeringRule

    return (
        TraceWriteRule(),
        LaunchBracketRule(),
        RawMatmulRule(),
        LockDisciplineRule(),
        BackendResolutionRule(),
        SchedulerLoopRule(),
        ClockDisciplineRule(),
        ImportLayeringRule(),
    )


def lint_file(
    path: Path, relpath: str, rules: Iterable[Rule]
) -> list[Violation]:
    """Apply every applicable rule to one source file."""
    applicable = [rule for rule in rules if rule.applies_to(relpath)]
    if not applicable:
        return []
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(
                path=relpath,
                line=exc.lineno or 0,
                rule="parse",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    violations: list[Violation] = []
    for rule in applicable:
        violations.extend(rule.check(tree, relpath))
    return violations


def lint_paths(
    src_root: Path | str, rules: Iterable[Rule] | None = None
) -> list[Violation]:
    """Lint every ``.py`` file under ``src_root`` (the dir holding ``repro``).

    Returns violations sorted by path then line; an empty list means the
    tree satisfies every invariant.
    """
    root = Path(src_root)
    active = tuple(rules) if rules is not None else default_rules()
    violations: list[Violation] = []
    for path in sorted((root / "repro").rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        violations.extend(lint_file(path, relpath, active))
    violations.sort(key=lambda v: (v.path, v.line))
    return violations

"""The repo-specific lint rules: one executable contract per past incident.

Each rule class documents the invariant it encodes and the commit/review
finding that motivated it.  Rules are lexical (AST-level) by design: they
check the *shape* the concurrency and determinism contracts require, not
runtime behaviour — the runtime half lives in :mod:`repro.analysis.lockgraph`
and the test suites.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.lint import LintRule, ModuleSource

# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #


def path_components(path: str) -> List[str]:
    """The posix path split into components (for layer matching)."""
    return [part for part in path.split("/") if part]


def basename(path: str) -> str:
    return path_components(path)[-1] if path_components(path) else ""


def walk_excluding_defs(nodes: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk ``nodes`` depth-first without entering nested function bodies.

    Code inside a nested ``def``/``lambda`` executes later, outside the
    lexical scope being analysed (e.g. a callback defined under a lock does
    not *run* under it), so scope-sensitive rules skip those subtrees.
    """
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue        # the def statement itself is in scope; its body is not
        stack.extend(ast.iter_child_nodes(node))


def call_name(node: ast.Call) -> str:
    """The trailing name of a call target (``a.b.c()`` -> ``"c"``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def is_self_attribute(node: ast.AST, attrs: Set[str]) -> bool:
    """Whether ``node`` is ``self.<attr>`` for one of ``attrs``."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in attrs)


def lock_with_bodies(tree: ast.Module,
                     lock_attrs: Set[str]) -> Iterator[Tuple[ast.AST, List[ast.stmt]]]:
    """Every ``with self.<lock>:`` statement and its body, file-wide."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if is_self_attribute(item.context_expr, lock_attrs):
                    yield node, node.body
                    break


# --------------------------------------------------------------------------- #
# lock-discipline: no slow work under the pool lock        (incident: fcf99ca)
# --------------------------------------------------------------------------- #


class LockDisciplineRule:
    """No known-slow call lexically inside a ``with self._lock:`` block.

    The PR-6 review found ``SessionPool`` holding its (single, global) lock
    across ``prepare()`` and ``close()`` — one tenant's cache miss stalled
    every other tenant's lookup, and an eviction could block behind an
    in-flight run (fixed in fcf99ca by moving slow work outside the lock
    behind per-key once-guards).  This rule keeps that shape: in the
    serving-layer files, the pool-lock scope may only contain cheap
    bookkeeping — never planning, execution, or session teardown.
    """

    name = "lock-discipline"
    #: attribute names treated as the "cheap bookkeeping only" pool lock.
    LOCK_ATTRS = {"_lock", "_pool_lock"}
    #: operations that plan, execute, wait, or tear down — never under it.
    SLOW_CALLS = {"prepare", "close", "infer", "infer_many", "plan",
                  "execute", "flush_deltas", "apply_delta"}

    def applies_to(self, path: str) -> bool:
        return (basename(path) in {"pool.py", "session.py", "gateway.py"}
                or "serving" in path_components(path)[:-1])

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not self.applies_to(module.path):
            return
        for _, body in lock_with_bodies(module.tree, self.LOCK_ATTRS):
            for node in walk_excluding_defs(body):
                if isinstance(node, ast.Call) and call_name(node) in self.SLOW_CALLS:
                    yield module.finding(
                        node, self.name,
                        f"slow operation {call_name(node)}() called while "
                        f"holding the pool lock; move it outside the "
                        f"`with self._lock:` block (one tenant's slow path "
                        f"must never stall every other tenant's lookup)")


# --------------------------------------------------------------------------- #
# determinism: compute kernels must be replayable
# --------------------------------------------------------------------------- #


class DeterminismRule:
    """No wall-clock, global RNG, or hash-ordered iteration in compute paths.

    The executor contract (PR 5) promises bit-identical scores across the
    serial and process substrates, and incremental inference (PR 3) promises
    bit-identity against full recomputes — both break the moment a kernel
    consults ``time.time()``, an unseeded global RNG, or iterates a hash-set
    while accumulating.  ``time.perf_counter()`` is permitted only where its
    value is *assigned* (metrics timing), never where it feeds computation.
    """

    name = "determinism"
    COMPUTE_DIRS = {"pregel", "tensor", "gnn"}
    #: np.random functions that produce *seeded* generators when given args.
    SEEDABLE = {"default_rng", "Generator", "SeedSequence", "RandomState"}

    def applies_to(self, path: str) -> bool:
        return bool(self.COMPUTE_DIRS & set(path_components(path)[:-1]))

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not self.applies_to(module.path):
            return
        parents = {id(child): parent for parent in ast.walk(module.tree)
                   for child in ast.iter_child_nodes(parent)}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, parents)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_loop(module, node)

    def _check_call(self, module: ModuleSource, node: ast.Call,
                    parents: Dict[int, ast.AST]) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        # time.time / datetime.now / datetime.utcnow
        if isinstance(owner, ast.Name) and owner.id == "time":
            if func.attr == "time":
                yield module.finding(
                    node, self.name,
                    "time.time() in a compute path breaks replay determinism; "
                    "use time.perf_counter() for metrics timing")
            elif func.attr == "perf_counter" and not self._is_assigned(node, parents):
                yield module.finding(
                    node, self.name,
                    "time.perf_counter() may only be assigned to a metrics "
                    "variable/field in compute paths, never fed into "
                    "computation")
        elif (isinstance(owner, ast.Name) and owner.id == "datetime"
              and func.attr in {"now", "utcnow", "today"}):
            yield module.finding(
                node, self.name,
                f"datetime.{func.attr}() in a compute path breaks replay "
                f"determinism")
        # bare random.<fn>: the process-global, unseeded-per-worker RNG
        elif isinstance(owner, ast.Name) and owner.id == "random":
            yield module.finding(
                node, self.name,
                f"random.{func.attr}() uses the process-global RNG; compute "
                f"paths must thread an explicitly seeded Generator instead")
        # np.random.<fn>: global-state numpy RNG, or unseeded constructors
        elif (isinstance(owner, ast.Attribute) and owner.attr == "random"
              and isinstance(owner.value, ast.Name)
              and owner.value.id in {"np", "numpy"}):
            if func.attr not in self.SEEDABLE:
                yield module.finding(
                    node, self.name,
                    f"np.random.{func.attr}() draws from numpy's global RNG; "
                    f"compute paths must use an explicitly seeded "
                    f"np.random.default_rng(seed)")
            elif not node.args and not node.keywords:
                yield module.finding(
                    node, self.name,
                    f"np.random.{func.attr}() without a seed is entropy-"
                    f"seeded; compute paths must pass an explicit seed")

    @staticmethod
    def _is_assigned(node: ast.Call, parents: Dict[int, ast.AST]) -> bool:
        """Whether the call value lands in an assignment or keyword argument.

        ``started = time.perf_counter()`` and
        ``record(measured_seconds=time.perf_counter() - started)`` are the
        two sanctioned metrics-timing shapes.
        """
        current: ast.AST = node
        while True:
            parent = parents.get(id(current))
            if parent is None:
                return False
            if isinstance(parent, ast.keyword):
                return True
            if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                return True
            if isinstance(parent, ast.stmt):
                return False
            current = parent

    def _check_loop(self, module: ModuleSource,
                    node: ast.For) -> Iterator[Finding]:
        iterated = node.iter
        is_set_literal = isinstance(iterated, ast.Set)
        is_set_call = (isinstance(iterated, ast.Call)
                       and isinstance(iterated.func, ast.Name)
                       and iterated.func.id in {"set", "frozenset"})
        if is_set_literal or is_set_call:
            yield module.finding(
                node, self.name,
                "iterating a hash-set in a compute path visits elements in "
                "hash order, which differs across processes/seeds and makes "
                "any accumulation order-dependent; iterate sorted(...) "
                "instead")


# --------------------------------------------------------------------------- #
# broad-except hygiene
# --------------------------------------------------------------------------- #

_BROAD_NAMES = {"Exception", "BaseException"}


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    names = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(isinstance(name, ast.Name) and name.id in _BROAD_NAMES
               for name in names)


def _comment_text(line: str) -> str:
    """The justification content of a line's comment, pragmas stripped.

    ``# pragma: no cover`` and ``# noqa[:CODES]`` markers alone are tool
    directives, not justifications; text beyond them counts.
    """
    if "#" not in line:
        return ""
    comment = line.split("#", 1)[1]
    for marker in ("pragma: no cover", "pragma:no cover"):
        comment = comment.replace(marker, "")
    words = [w for w in comment.replace("-", " ").replace(":", " ").split()
             if not (w == "noqa" or w.isupper())]
    return " ".join(words)


class BroadExceptRule:
    """Every ``except Exception`` must re-raise or justify itself.

    A swallowed broad exception converted two real bugs into silent
    degradation before this repo grew its serving tier (a typo'd backend
    hook name and a worker-cleanup error both vanished into ``pass``
    blocks).  Best-effort handlers are legitimate — worker teardown must
    not mask the original failure — but each one must say so in a comment
    on the ``except`` line (or the line just above/below it), so the next
    reader can tell intent from accident.
    """

    name = "broad-except"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _handler_is_broad(node):
                continue
            if any(isinstance(inner, ast.Raise)
                   for inner in walk_excluding_defs(node.body)):
                continue
            if self._has_justification(module, node):
                continue
            caught = ("bare except" if node.type is None else
                      f"except {ast.unparse(node.type)}")
            yield module.finding(
                node, self.name,
                f"{caught} neither re-raises nor carries a justification "
                f"comment; narrow it to the concrete exception types, or "
                f"add a comment explaining why best-effort is correct here")

    @staticmethod
    def _has_justification(module: ModuleSource,
                           handler: ast.ExceptHandler) -> bool:
        first_body_line = (handler.body[0].lineno if handler.body
                           else handler.lineno)
        candidates = range(handler.lineno - 1, first_body_line + 1)
        return any(_comment_text(module.line_text(lineno))
                   for lineno in candidates)


#: every rule :func:`~repro.analysis.lint.run_analysis` runs (rules are stateless).
RULES: Tuple[LintRule, ...] = (
    LockDisciplineRule(),
    DeterminismRule(),
    BroadExceptRule(),
)

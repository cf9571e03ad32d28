"""Whole-program concurrency static analysis for the runtime itself.

The codebase is genuinely concurrent: ``repro.obs`` runs a threaded
``MetricsServer`` against a lock-guarded :class:`MetricsRegistry`,
``repro.stream`` mutates tracker/outbox/checkpoint state from a
long-lived loop while other threads snapshot it, and ``repro.serve``
guards its registry and tenants with locks that the sweep and the
metrics scrapes both take.  This module
applies the paper's own thesis — semantic models of execution catch
errors that surface inspection misses — to our runtime: it builds a
static model of locks, shared attributes and process-boundary captures
from the AST, then analyzes the model for contradictions.

The model (:class:`ProgramModel`, built by :func:`build_program`):

* a per-class attribute table — which ``self.*`` attributes each method
  mutates, and under which locks (``with self._lock:`` blocks and
  ``acquire()``/``release()`` pairs are tracked, including locks reached
  through private helper methods that are only ever called with the
  lock held);
* a lock inventory per class (``threading.Lock/RLock/Condition/...``
  created locally or received via an annotated constructor parameter),
  merged through base classes;
* thread-shared classification by **usage evidence**: the class defines
  a lock, instances or bound methods are passed to
  ``threading.Thread``, the class is exported from the concurrent
  subsystems (``repro.obs`` / ``repro.stream``), or an instance is
  stored in a module-level singleton;
* a fork-safety table: classes holding locks, open files, sockets or a
  metrics registry (directly, or through an attribute of such a class)
  must never cross a process boundary;
* per-function facts: executor ``submit``/``map`` calls with resolved
  argument classes, thread/queue handoffs, and calls made while holding
  locks.

Rules (codes registered in :mod:`repro.analysis.diagnostics`; each rule
is a :class:`ConcurrencyRule` object, mirroring the astlint
:class:`~repro.analysis.astlint.LintRule` shape):

* ``RACE001`` — an attribute written both under a lock and without it
  (outside ``__init__``) in the same class;
* ``RACE002`` — a cycle in the cross-class lock-acquisition graph, or a
  non-reentrant lock re-acquired while already held;
* ``RACE003`` — a fork-unsafe object passed to
  ``ProcessPoolExecutor.submit``/``map``;
* ``RACE004`` — an object mutated after being handed to another thread,
  queue or executor;
* ``RACE005`` — a blocking call (``time.sleep``, file/socket IO,
  ``subprocess``) made while holding a lock.

Findings are suppressed per line and per code with the shared
``# repro: allow=CODE -- reason`` pragma (:mod:`repro.analysis.suppress`);
the justification is mandatory.  Like every analysis here this is a
*heuristic* model — single-level type inference from constructor calls
and annotations, lexical ordering for handoff checks — tuned so the
repo's own tree analyzes cleanly with zero unjustified suppressions
(the pytest gate and the ``lint-concurrency`` CI job keep it that way).

CLI: ``repro lint-concurrency [paths...] [--json]`` or
``python tools/run_concurrency.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .diagnostics import Diagnostic, DiagnosticReport
from .suppress import SuppressionIndex, scan_pragmas

__all__ = [
    "AttrWrite",
    "ClassModel",
    "ConcurrencyRule",
    "ConcurrencyAnalyzer",
    "DEFAULT_CONCURRENCY_RULES",
    "ProgramModel",
    "analyze_paths",
    "analyze_source",
    "build_program",
    "iter_python_files",
    "main",
]

# -- vocabulary -------------------------------------------------------------

#: threading factory -> lock kind; Condition/RLock are reentrant.
_LOCK_FACTORIES = {
    "Lock": "Lock",
    "RLock": "RLock",
    "Condition": "Condition",
    "Semaphore": "Semaphore",
    "BoundedSemaphore": "BoundedSemaphore",
}
_REENTRANT_KINDS = frozenset({"RLock", "Condition"})

#: Constructors whose result must never cross a fork/pickle boundary.
_RESOURCE_FACTORIES = {
    "open": "open file",
    "socket": "socket",
    "create_connection": "socket",
    "MetricsRegistry": "metrics registry",
    "ThreadingHTTPServer": "socket server",
    "HTTPServer": "socket server",
}

#: Queue-like constructors whose ``.put(x)`` is a cross-thread handoff.
_QUEUE_FACTORIES = frozenset(
    {"Queue", "SimpleQueue", "LifoQueue", "JoinableQueue"}
)

_EXECUTOR_NAMES = frozenset({"ProcessPoolExecutor"})

#: Mutating method names: calling one of these on an object counts as a
#: write to it (list/dict/set/deque mutators).
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popleft", "popitem",
    "clear", "add", "discard", "update", "setdefault", "appendleft",
    "extendleft", "sort", "reverse",
})

#: Dotted-name suffixes of calls that block: sleeping, subprocesses,
#: direct socket/url IO.
_BLOCKING_SUFFIXES: tuple[tuple[str, ...], ...] = (
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("socket", "create_connection"),
    ("request", "urlopen"),
)

#: IO methods that block when invoked on a file/socket-typed receiver.
_BLOCKING_IO_METHODS = frozenset({
    "read", "readline", "readlines", "write", "writelines", "flush",
    "recv", "send", "sendall", "connect", "accept",
})


def _dotted(node: ast.AST) -> tuple[str, ...]:
    """Trailing dotted names of an expression (``a.b.c`` -> (a, b, c))."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.extend(reversed(_dotted(node.func)))
    return tuple(reversed(parts))


def _expr_key(node: ast.AST) -> str | None:
    """Stable key for a handoff-trackable expression: a bare name or a
    ``obj.attr`` path; None for anything more complex."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_key(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _annotation_names(node: ast.AST | None) -> set[str]:
    """Every dotted-name component mentioned in an annotation."""
    names: set[str] = set()
    if node is None:
        return names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotation: "IntelLog | None" and friends.
            for raw in sub.value.replace("|", " ").replace("[", " ") \
                    .replace("]", " ").replace(",", " ").split():
                names.add(raw.split(".")[-1].strip("'\""))
    return names


# -- model dataclasses ------------------------------------------------------


@dataclass(slots=True)
class AttrWrite:
    """One mutation of ``self.<attr>`` inside a method."""

    attr: str
    method: str
    lineno: int
    #: Lock attribute names held at the write site (raw ``with self.X``
    #: names; rules intersect this with the class lock table).
    held: frozenset[str]
    is_init: bool
    how: str  # "assign" | "augassign" | "item" | "call:<mutator>" | "del"


@dataclass(slots=True)
class MethodCall:
    """A method call observed inside a class body (held or not)."""

    method: str
    lineno: int
    held: frozenset[str]
    dotted: tuple[str, ...]
    #: "self" | "self.<attr>" | "<name>" | "<name>.<attr>" | None.
    receiver: str | None


@dataclass(slots=True)
class ExecutorCall:
    """One ``submit``/``map`` on a ProcessPoolExecutor."""

    function: str
    lineno: int
    op: str  # "submit" | "map"
    #: Payload expressions with their statically resolved class names
    #: (None when unresolvable): [(expr, class_name)].
    payload: list[tuple[str, str | None]]


@dataclass(slots=True)
class Handoff:
    """An object handed to another thread/queue/executor."""

    function: str
    lineno: int
    expr: str
    via: str  # "thread" | "queue" | "executor"


@dataclass(slots=True)
class ObjMutation:
    """A mutation of a non-``self`` object (for RACE004 ordering)."""

    function: str
    lineno: int
    expr: str
    how: str


@dataclass(slots=True)
class ClassModel:
    """Static facts about one class."""

    name: str
    module: str
    path: str
    lineno: int
    bases: tuple[str, ...] = ()
    #: lock attr -> kind ("Lock", "RLock", ...), own (pre-inheritance).
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: resource attr -> kind ("open file", "socket", ...).
    resource_attrs: dict[str, str] = field(default_factory=dict)
    #: attr -> class name it was constructed from (single-level).
    attr_types: dict[str, str] = field(default_factory=dict)
    writes: list[AttrWrite] = field(default_factory=list)
    #: method -> lock attrs it acquires anywhere in its body.
    acquires: dict[str, set[str]] = field(default_factory=dict)
    calls: list[MethodCall] = field(default_factory=list)
    #: Direct lock nesting observed: (outer attr, inner attr, lineno).
    nestings: list[tuple[str, str, int]] = field(default_factory=list)
    methods: set[str] = field(default_factory=set)
    #: Why the class is considered thread-shared (empty = private).
    shared_evidence: list[str] = field(default_factory=list)


@dataclass(slots=True)
class ProgramModel:
    """The whole-program model the rules run against."""

    classes: dict[str, ClassModel] = field(default_factory=dict)
    #: Simple-name index (first definition wins on collisions).
    by_name: dict[str, ClassModel] = field(default_factory=dict)
    #: (path, call) pairs, in scan order.
    executor_calls: list[tuple[str, ExecutorCall]] = field(
        default_factory=list
    )
    handoffs: list[tuple[str, Handoff]] = field(default_factory=list)
    mutations: list[tuple[str, ObjMutation]] = field(default_factory=list)
    #: Lock-held calls from module-level (class-less) functions.
    free_held_calls: list[tuple[str, MethodCall]] = field(
        default_factory=list
    )
    suppressions: dict[str, SuppressionIndex] = field(default_factory=dict)
    parse_errors: list[Diagnostic] = field(default_factory=list)

    # -- derived facts ----------------------------------------------------

    def merged_locks(self, cls: ClassModel) -> dict[str, str]:
        """Lock table of ``cls`` including inherited lock attributes."""
        merged: dict[str, str] = {}
        seen: set[str] = set()
        stack = [cls.name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            model = self.by_name.get(name)
            if model is None:
                continue
            for attr in sorted(model.lock_attrs):
                merged.setdefault(attr, model.lock_attrs[attr])
            stack.extend(model.bases)
        return merged

    def fork_unsafe(self, class_name: str) -> str | None:
        """Why instances of ``class_name`` must not cross a fork
        boundary, or None when they may."""
        return self._fork_unsafe(class_name, frozenset())

    def _fork_unsafe(
        self, class_name: str, visiting: frozenset[str]
    ) -> str | None:
        if class_name in visiting:
            return None
        cls = self.by_name.get(class_name)
        if cls is None:
            return None
        locks = self.merged_locks(cls)
        if locks:
            attr = sorted(locks)[0]
            return f"holds a threading.{locks[attr]} ({attr!r})"
        if cls.resource_attrs:
            attr = sorted(cls.resource_attrs)[0]
            return f"holds an {cls.resource_attrs[attr]} ({attr!r})"
        visiting = visiting | {class_name}
        for attr in sorted(cls.attr_types):
            inner = self._fork_unsafe(cls.attr_types[attr], visiting)
            if inner:
                return (
                    f"attribute {attr!r} is a {cls.attr_types[attr]} "
                    f"which {inner}"
                )
        for base in cls.bases:
            inner = self._fork_unsafe(base, visiting)
            if inner:
                return inner
        return None

    def caller_guarded(self, cls: ClassModel, method: str) -> bool:
        """True when ``method`` is a private helper that every
        intra-class call site invokes with a lock held (so its writes
        inherit the callers' guard)."""
        if not method.startswith("_") or method.startswith("__"):
            return False
        sites = [
            call for call in cls.calls
            if call.receiver == "self" and call.dotted[-1:] == (method,)
        ]
        if not sites:
            return False
        locks = self.merged_locks(cls)
        return all(
            any(h in locks for h in sorted(call.held)) for call in sites
        )


# -- per-module scanning ----------------------------------------------------


class _ModuleScanner:
    """Extracts model facts from one module's AST.

    Driven by :func:`build_program` in two passes: class *registration*
    first (so program-wide usage evidence can attach to any class
    regardless of module order), then body scanning.
    """

    def __init__(self, program: ProgramModel, path: str) -> None:
        self.program = program
        self.path = path
        self.module = Path(path).stem
        #: local import tables: name -> module / (module, attr).
        self.import_mod: dict[str, str] = {}
        self.import_from: dict[str, tuple[str, str]] = {}
        self.exports: set[str] = set()
        #: classes registered from this module, by simple name.
        self.own_classes: dict[str, ClassModel] = {}

    # -- pass 1: imports + class registration ------------------------------

    def register(self, tree: ast.Module) -> None:
        for node in tree.body:
            self._scan_import(node)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self._register_class(node)

    def _scan_import(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.import_mod[alias.asname or alias.name.split(".")[0]] \
                    = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                self.import_from[alias.asname or alias.name] = (
                    node.module, alias.name
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        for elt in node.value.elts:
                            if isinstance(elt, ast.Constant) and \
                                    isinstance(elt.value, str):
                                self.exports.add(elt.value)

    def _register_class(self, node: ast.ClassDef) -> None:
        cls = ClassModel(
            name=node.name,
            module=self.module,
            path=self.path,
            lineno=node.lineno,
            bases=tuple(
                self._resolve(_dotted(b))[-1]
                for b in node.bases
                if _dotted(b)
            ),
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods.add(item.name)
        self.program.classes[f"{self.path}::{node.name}"] = cls
        self.program.by_name.setdefault(node.name, cls)
        self.own_classes[node.name] = cls

    # -- pass 2: bodies, singletons, export evidence -----------------------

    def scan_bodies(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                cls = self.own_classes.get(node.name)
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        _FunctionScanner(self, cls, item).run()
                if cls is not None and cls.lock_attrs:
                    cls.shared_evidence.append("defines a lock attribute")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionScanner(self, None, node).run()
            elif isinstance(node, ast.Assign):
                self._scan_module_assign(node)
        self._apply_export_evidence()

    def _scan_module_assign(self, node: ast.Assign) -> None:
        """Module-level singleton: ``X = ClassName(...)`` marks the
        class thread-shared (the instance outlives any one caller)."""
        cls_name = self._constructed_class(node.value)
        if cls_name is None:
            return
        model = self.program.by_name.get(cls_name)
        if model is not None:
            model.shared_evidence.append(
                f"stored in a module-level singleton ({self.module})"
            )

    def _apply_export_evidence(self) -> None:
        normalised = self.path.replace("\\", "/")
        if not any(
            frag in normalised for frag in ("repro/obs", "repro/stream")
        ):
            return
        for name in sorted(self.own_classes):
            if name in self.exports:
                self.own_classes[name].shared_evidence.append(
                    "exported from a concurrent subsystem "
                    f"({self.module})"
                )

    # -- name resolution --------------------------------------------------

    def _resolve(self, dotted: tuple[str, ...]) -> tuple[str, ...]:
        """Resolve the head of a dotted path through the import tables:
        ``sp.run`` with ``import subprocess as sp`` -> (subprocess, run);
        ``Thread`` with ``from threading import Thread`` ->
        (threading, Thread)."""
        if not dotted:
            return dotted
        head = dotted[0]
        if head in self.import_from:
            module, attr = self.import_from[head]
            return (module.split(".")[-1], attr) + dotted[1:]
        if head in self.import_mod:
            return (self.import_mod[head].split(".")[-1],) + dotted[1:]
        return dotted

    def _constructed_class(self, value: ast.AST) -> str | None:
        """Class name a value is constructed from, if syntactically a
        constructor call of a simple name (``Foo(...)``, ``m.Foo(...)``)."""
        if not isinstance(value, ast.Call):
            return None
        dotted = self._resolve(_dotted(value.func))
        if not dotted:
            return None
        name = dotted[-1]
        # Heuristic: constructors are CapWords names.
        if name[:1].isupper():
            return name
        return None

    def _lock_kind(self, value: ast.AST) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        dotted = self._resolve(_dotted(value.func))
        if dotted and dotted[-1] in _LOCK_FACTORIES:
            if len(dotted) == 1 or dotted[-2] in (
                "threading", "multiprocessing"
            ):
                return _LOCK_FACTORIES[dotted[-1]]
        return None

    def _resource_kind(self, value: ast.AST) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        dotted = self._resolve(_dotted(value.func))
        if dotted and dotted[-1] in _RESOURCE_FACTORIES:
            return _RESOURCE_FACTORIES[dotted[-1]]
        return None


class _FunctionScanner:
    """Walks one function body tracking the set of held locks."""

    def __init__(
        self,
        module: _ModuleScanner,
        cls: ClassModel | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.module = module
        self.program = module.program
        self.cls = cls
        self.node = node
        self.name = node.name
        self.qualname = (
            f"{cls.name}.{node.name}" if cls is not None else node.name
        )
        self.is_init = node.name in ("__init__", "__new__", "__post_init__")
        #: local name -> constructed class name.
        self.local_types: dict[str, str] = {}
        #: local name / "self.attr" -> special kind ("executor" | "queue"
        #: | "resource").
        self.local_kinds: dict[str, str] = {}
        #: lock-annotated parameters (for ``self._lock = lock``).
        self.lock_params: dict[str, str] = {}
        self._seed_param_types()

    def _seed_param_types(self) -> None:
        args = self.node.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            names = _annotation_names(arg.annotation)
            lock_kinds = sorted(names & set(_LOCK_FACTORIES))
            if lock_kinds:
                self.lock_params[arg.arg] = lock_kinds[0]
                continue
            if names & _EXECUTOR_NAMES:
                self.local_kinds[arg.arg] = "executor"
                continue
            known = sorted(
                n for n in names
                if n[:1].isupper() and n not in _EXECUTOR_NAMES
            )
            if known and arg.arg != "self":
                self.local_types.setdefault(arg.arg, known[0])

    # -- driving ----------------------------------------------------------

    def run(self) -> None:
        self._scan_block(self.node.body, held=())

    def _scan_block(
        self, stmts: Sequence[ast.stmt], held: tuple[str, ...]
    ) -> None:
        current = held
        for stmt in stmts:
            current = self._scan_stmt(stmt, current)

    def _scan_stmt(
        self, stmt: ast.stmt, held: tuple[str, ...]
    ) -> tuple[str, ...]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return held  # deferred execution: not this lock context
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner_held = held
            for item in stmt.items:
                self._scan_expr(item.context_expr, inner_held)
                if item.optional_vars is not None:
                    # ``with ProcessPoolExecutor() as ex:`` /
                    # ``with open(p) as fp:`` bind types like assignments.
                    self._infer_assignment(
                        [item.optional_vars], item.context_expr
                    )
                lock = self._with_lock_attr(item.context_expr)
                if lock is not None:
                    for outer in inner_held:
                        if self.cls is not None:
                            self.cls.nestings.append(
                                (outer, lock, stmt.lineno)
                            )
                    inner_held = inner_held + (lock,)
            self._scan_block(stmt.body, inner_held)
            return held
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, held)
            self._scan_block(stmt.body, held)
            self._scan_block(stmt.orelse, held)
            return held
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, held)
            self._record_writes(stmt.target, held, how="assign")
            self._scan_block(stmt.body, held)
            self._scan_block(stmt.orelse, held)
            return held
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, held)
            self._scan_block(stmt.body, held)
            self._scan_block(stmt.orelse, held)
            return held
        if isinstance(stmt, ast.Try):
            self._scan_block(stmt.body, held)
            for handler in stmt.handlers:
                self._scan_block(handler.body, held)
            self._scan_block(stmt.orelse, held)
            self._scan_block(stmt.finalbody, held)
            return held
        match_type = getattr(ast, "Match", None)
        if match_type is not None and isinstance(stmt, match_type):
            self._scan_expr(stmt.subject, held)
            for case in stmt.cases:
                self._scan_block(case.body, held)
            return held

        # -- simple statements -------------------------------------------
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_writes(target, held, how="assign")
            self._infer_assignment(stmt.targets, stmt.value)
            self._scan_expr(stmt.value, held)
            return held
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_writes(stmt.target, held, how="assign")
                self._infer_assignment([stmt.target], stmt.value)
                self._scan_expr(stmt.value, held)
            return held
        if isinstance(stmt, ast.AugAssign):
            self._record_writes(stmt.target, held, how="augassign")
            self._scan_expr(stmt.value, held)
            return held
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_writes(target, held, how="del")
            return held
        if isinstance(stmt, ast.Expr):
            new_held = self._acquire_release(stmt.value, held)
            self._scan_expr(stmt.value, held)
            return new_held
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                self._scan_expr(child, held)
            return held
        return held

    # -- lock tracking ----------------------------------------------------

    def _with_lock_attr(self, expr: ast.AST) -> str | None:
        """``with self.X:`` -> ``X`` (candidate lock attribute)."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            self._note_acquire(expr.attr)
            return expr.attr
        return None

    def _acquire_release(
        self, expr: ast.AST, held: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Track ``self.X.acquire()`` / ``self.X.release()`` statements."""
        if not isinstance(expr, ast.Call):
            return held
        func = expr.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("acquire", "release")
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            attr = func.value.attr
            if func.attr == "acquire":
                self._note_acquire(attr)
                for outer in held:
                    if self.cls is not None:
                        self.cls.nestings.append(
                            (outer, attr, expr.lineno)
                        )
                return held + (attr,)
            return tuple(h for h in held if h != attr)
        return held

    def _note_acquire(self, attr: str) -> None:
        if self.cls is not None:
            self.cls.acquires.setdefault(self.name, set()).add(attr)

    # -- writes -----------------------------------------------------------

    def _record_writes(
        self, target: ast.AST, held: tuple[str, ...], how: str
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_writes(elt, held, how)
            return
        if isinstance(target, ast.Starred):
            self._record_writes(target.value, held, how)
            return
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                self._add_self_write(target.attr, target.lineno, held, how)
            else:
                key = _expr_key(base)
                if key is not None and not key.startswith("self"):
                    self._add_obj_mutation(key, target.lineno, how)
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                self._add_self_write(base.attr, target.lineno, held, "item")
            else:
                key = _expr_key(base)
                if key is not None and not key.startswith("self"):
                    self._add_obj_mutation(key, target.lineno, "item")

    def _add_self_write(
        self, attr: str, lineno: int, held: tuple[str, ...], how: str
    ) -> None:
        if self.cls is None:
            return
        self.cls.writes.append(AttrWrite(
            attr=attr,
            method=self.name,
            lineno=lineno,
            held=frozenset(held),
            is_init=self.is_init,
            how=how,
        ))

    def _add_obj_mutation(self, expr: str, lineno: int, how: str) -> None:
        self.program.mutations.append((
            self.module.path,
            ObjMutation(
                function=self.qualname, lineno=lineno, expr=expr, how=how
            ),
        ))

    # -- type inference ---------------------------------------------------

    def _infer_assignment(
        self, targets: Sequence[ast.AST], value: ast.AST
    ) -> None:
        lock_kind = self.module._lock_kind(value)
        resource = self.module._resource_kind(value)
        cls_name = self.module._constructed_class(value)
        queue_like = cls_name in _QUEUE_FACTORIES
        executor = cls_name in _EXECUTOR_NAMES
        param_lock = (
            self.lock_params.get(value.id)
            if isinstance(value, ast.Name) else None
        )
        if cls_name is None and isinstance(value, ast.Name):
            # ``self.origin = origin`` where the parameter (or an
            # earlier local) carries a known class type.
            cls_name = self.local_types.get(value.id)
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.cls is not None
            ):
                if lock_kind is not None:
                    self.cls.lock_attrs.setdefault(target.attr, lock_kind)
                elif param_lock is not None:
                    self.cls.lock_attrs.setdefault(target.attr, param_lock)
                elif resource is not None:
                    self.cls.resource_attrs.setdefault(
                        target.attr, resource
                    )
                elif executor:
                    self.local_kinds[f"self.{target.attr}"] = "executor"
                elif cls_name is not None:
                    self.cls.attr_types.setdefault(target.attr, cls_name)
            elif isinstance(target, ast.Name):
                if executor:
                    self.local_kinds[target.id] = "executor"
                elif queue_like:
                    self.local_kinds[target.id] = "queue"
                elif resource is not None:
                    self.local_kinds[target.id] = "resource"
                elif cls_name is not None:
                    self.local_types[target.id] = cls_name

    def _payload_class(self, node: ast.AST) -> tuple[str, str | None]:
        """(display expr, resolved class name) for an executor payload."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return "self", self.cls.name
            return node.id, self.local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            key = _expr_key(node) or "<expr>"
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.cls is not None
            ):
                # self.attr payload, or a bound method self.meth.
                if node.attr in self.cls.methods:
                    return key, self.cls.name
                return key, self.cls.attr_types.get(node.attr)
            base = key.split(".", 1)[0]
            base_cls = self.local_types.get(base)
            if base_cls is not None and "." in key:
                # Bound method of a typed local: obj.method.
                model = self.program.by_name.get(base_cls)
                if model is not None and node.attr in model.methods:
                    return key, base_cls
            return key, None
        return "<expr>", None

    # -- expression scan --------------------------------------------------

    def _scan_expr(self, node: ast.AST, held: tuple[str, ...]) -> None:
        for sub in self._walk(node):
            if isinstance(sub, ast.Call):
                self._scan_call(sub, held)

    def _walk(self, node: ast.AST) -> Iterator[ast.AST]:
        """ast.walk without descending into deferred-execution bodies."""
        stack: list[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.Lambda, ast.FunctionDef,
                                    ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield current
            stack.extend(ast.iter_child_nodes(current))

    def _scan_call(self, call: ast.Call, held: tuple[str, ...]) -> None:
        dotted = self.module._resolve(_dotted(call.func))
        receiver = self._receiver_of(call.func)
        if self.cls is not None and (receiver is not None or held):
            # Record every resolvable call, held or not: lock-free call
            # sites feed the helper-propagation check, lock-holding
            # ones feed RACE002/RACE005.
            self.cls.calls.append(MethodCall(
                method=self.name,
                lineno=call.lineno,
                held=frozenset(held),
                dotted=dotted,
                receiver=receiver,
            ))
        elif self.cls is None and held:
            self.program.free_held_calls.append((
                self.module.path,
                MethodCall(
                    method=self.qualname,
                    lineno=call.lineno,
                    held=frozenset(held),
                    dotted=dotted,
                    receiver=receiver,
                ),
            ))
        self._scan_mutator_call(call, held)
        self._scan_thread_call(call, dotted)
        self._scan_queue_put(call)
        self._scan_executor_call(call)

    @staticmethod
    def _receiver_of(func: ast.AST) -> str | None:
        if isinstance(func, ast.Attribute):
            return _expr_key(func.value)
        return None

    def _scan_mutator_call(
        self, call: ast.Call, held: tuple[str, ...]
    ) -> None:
        """``self.x.append(...)`` / ``obj.items.append(...)`` are writes."""
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
            return
        base = func.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            self._add_self_write(
                base.attr, call.lineno, held, f"call:{func.attr}"
            )
        else:
            key = _expr_key(base)
            if key is not None and not key.startswith("self"):
                self._add_obj_mutation(
                    key, call.lineno, f"call:{func.attr}"
                )

    def _scan_thread_call(
        self, call: ast.Call, dotted: tuple[str, ...]
    ) -> None:
        if not (dotted and dotted[-1] == "Thread"):
            return
        payload_exprs: list[ast.AST] = []
        for kw in call.keywords:
            if kw.arg == "target":
                payload_exprs.append(kw.value)
            elif kw.arg == "args" and isinstance(
                kw.value, (ast.Tuple, ast.List)
            ):
                payload_exprs.extend(kw.value.elts)
        if len(call.args) >= 2:  # Thread(group, target, ...)
            payload_exprs.append(call.args[1])
        for expr in payload_exprs:
            self._mark_thread_shared(expr, call.lineno)

    def _mark_thread_shared(self, expr: ast.AST, lineno: int) -> None:
        cls_name: str | None = None
        key: str | None = None
        if isinstance(expr, ast.Attribute):
            # obj.method / self.attr: the receiver escapes to the thread.
            key = _expr_key(expr.value)
            base = expr.value
            if isinstance(base, ast.Name):
                if base.id == "self" and self.cls is not None:
                    cls_name = self.cls.name
                else:
                    cls_name = self.local_types.get(base.id)
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and self.cls is not None
            ):
                cls_name = self.cls.attr_types.get(base.attr)
        elif isinstance(expr, ast.Name):
            key = expr.id
            cls_name = self.local_types.get(expr.id)
        if cls_name is not None:
            model = self.program.by_name.get(cls_name)
            if model is not None:
                evidence = (
                    f"passed to threading.Thread "
                    f"({self.qualname}:{lineno})"
                )
                if evidence not in model.shared_evidence:
                    model.shared_evidence.append(evidence)
        if key is not None and not key.startswith("self"):
            self.program.handoffs.append((
                self.module.path,
                Handoff(
                    function=self.qualname,
                    lineno=lineno,
                    expr=key,
                    via="thread",
                ),
            ))

    def _scan_queue_put(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr != "put":
            return
        base_key = _expr_key(func.value)
        if base_key is None or self.local_kinds.get(base_key) != "queue":
            return
        for arg in call.args[:1]:
            key = _expr_key(arg)
            if key is not None and not key.startswith("self"):
                self.program.handoffs.append((
                    self.module.path,
                    Handoff(
                        function=self.qualname,
                        lineno=call.lineno,
                        expr=key,
                        via="queue",
                    ),
                ))

    def _scan_executor_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in ("submit", "map"):
            return
        base_key = _expr_key(func.value)
        is_executor = (
            base_key is not None
            and self.local_kinds.get(base_key) == "executor"
        )
        if not is_executor and isinstance(func.value, ast.Call):
            is_executor = (
                self.module._constructed_class(func.value)
                in _EXECUTOR_NAMES
            )
        if not is_executor:
            return
        payload = [self._payload_class(arg) for arg in call.args]
        for kw in call.keywords:
            payload.append(self._payload_class(kw.value))
        self.program.executor_calls.append((
            self.module.path,
            ExecutorCall(
                function=self.qualname,
                lineno=call.lineno,
                op=func.attr,
                payload=payload,
            ),
        ))
        for expr, _cls in payload:
            if expr != "<expr>" and not expr.startswith("self"):
                self.program.handoffs.append((
                    self.module.path,
                    Handoff(
                        function=self.qualname,
                        lineno=call.lineno,
                        expr=expr,
                        via="executor",
                    ),
                ))


# -- rules ------------------------------------------------------------------


class ConcurrencyRule:
    """One whole-program concurrency rule (astlint-style shape)."""

    code: str = ""

    def check(self, program: ProgramModel) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, message: str, *, subject: str, path: str, lineno: int
    ) -> Diagnostic:
        return Diagnostic.make(
            self.code, message, subject=subject,
            location=f"{path}:{lineno}",
        )


class UnguardedWriteRule(ConcurrencyRule):
    """RACE001: mixed guarded/unguarded writes to one attribute."""

    code = "RACE001"

    def check(self, program: ProgramModel) -> Iterator[Diagnostic]:
        for cls in _sorted_classes(program):
            locks = program.merged_locks(cls)
            if not locks:
                continue
            lock_names = frozenset(locks)
            by_attr: dict[str, list[AttrWrite]] = {}
            for write in cls.writes:
                if write.attr in lock_names:
                    continue  # rebinding the lock itself is not a race
                by_attr.setdefault(write.attr, []).append(write)
            for attr in sorted(by_attr):
                writes = by_attr[attr]
                guarded = [
                    w for w in writes
                    if not w.is_init and (w.held & lock_names)
                ]
                if not guarded:
                    continue
                guards = sorted(
                    {h for w in guarded for h in w.held if h in lock_names}
                )
                for write in writes:
                    if write.is_init or (write.held & lock_names):
                        continue
                    if program.caller_guarded(cls, write.method):
                        continue
                    yield self.diagnostic(
                        f"attribute '{attr}' of {cls.name} is written "
                        f"under {'/'.join(guards)} in "
                        f"{_guard_sites(guarded)} but without the lock "
                        f"in {write.method}() ({write.how})",
                        subject=f"{cls.name}.{attr}",
                        path=cls.path,
                        lineno=write.lineno,
                    )


def _guard_sites(writes: list[AttrWrite]) -> str:
    methods = sorted({w.method for w in writes})
    shown = ", ".join(f"{m}()" for m in methods[:3])
    if len(methods) > 3:
        shown += ", ..."
    return shown


class LockOrderRule(ConcurrencyRule):
    """RACE002: cycles in the lock-acquisition graph, and non-reentrant
    re-acquisition of a held lock."""

    code = "RACE002"

    def check(self, program: ProgramModel) -> Iterator[Diagnostic]:
        graph: dict[tuple[str, str], set[tuple[str, str]]] = {}
        edge_sites: dict[
            tuple[tuple[str, str], tuple[str, str]],
            list[tuple[str, str, int]],
        ] = {}
        self_deadlocks: list[Diagnostic] = []

        def note_pair(
            outer_cls: ClassModel, outer_attr: str,
            inner_cls: ClassModel, inner_attr: str,
            where: str, lineno: int,
        ) -> None:
            outer = (outer_cls.name, outer_attr)
            inner = (inner_cls.name, inner_attr)
            if outer == inner:
                kind = program.merged_locks(outer_cls).get(
                    outer_attr, "Lock"
                )
                if kind not in _REENTRANT_KINDS:
                    self_deadlocks.append(Diagnostic.make(
                        self.code,
                        f"non-reentrant threading.{kind} "
                        f"'{outer_cls.name}.{outer_attr}' re-acquired "
                        f"while already held ({where}) — self-deadlock",
                        subject=f"{outer_cls.name}.{outer_attr}",
                        location=f"{outer_cls.path}:{lineno}",
                    ))
                return
            graph.setdefault(outer, set()).add(inner)
            edge_sites.setdefault((outer, inner), []).append(
                (outer_cls.path, where, lineno)
            )

        for cls in _sorted_classes(program):
            locks = program.merged_locks(cls)
            if not locks:
                continue
            lock_names = frozenset(locks)
            for outer, inner, lineno in cls.nestings:
                if outer in lock_names and inner in lock_names:
                    note_pair(
                        cls, outer, cls, inner,
                        f"nested in {cls.name}", lineno,
                    )
            for call in cls.calls:
                held_locks = sorted(call.held & lock_names)
                if not held_locks:
                    continue
                target_cls, method = self._resolve_callee(
                    program, cls, call
                )
                if target_cls is None or method is None:
                    continue
                acquired = sorted(target_cls.acquires.get(method, ()))
                target_locks = program.merged_locks(target_cls)
                for held in held_locks:
                    for inner in acquired:
                        if inner not in target_locks:
                            continue
                        note_pair(
                            cls, held, target_cls, inner,
                            f"{cls.name}.{call.method} calls "
                            f"{target_cls.name}.{method}",
                            call.lineno,
                        )

        yield from self_deadlocks

        for cycle in _find_cycles(graph):
            names = [f"{c}.{a}" for c, a in cycle]
            sites: list[tuple[str, str, int]] = []
            for i in range(len(cycle)):
                nxt = cycle[(i + 1) % len(cycle)]
                sites.extend(edge_sites.get((cycle[i], nxt), ()))
            if not sites:
                continue
            path, where, lineno = min(sites)
            yield self.diagnostic(
                "lock-order cycle: "
                + " -> ".join(names + [names[0]])
                + f" (e.g. {where}); threads acquiring in different "
                "orders can deadlock",
                subject=" -> ".join(names),
                path=path,
                lineno=lineno,
            )

    @staticmethod
    def _resolve_callee(
        program: ProgramModel, cls: ClassModel, call: MethodCall
    ) -> tuple[ClassModel | None, str | None]:
        if not call.dotted:
            return None, None
        method = call.dotted[-1]
        if call.receiver == "self":
            return (cls if method in cls.methods else None), method
        if call.receiver is not None and call.receiver.startswith("self."):
            attr = call.receiver.split(".", 1)[1]
            target_name = cls.attr_types.get(attr)
            if target_name is not None:
                target = program.by_name.get(target_name)
                if target is not None and method in target.methods:
                    return target, method
        return None, None


def _find_cycles(
    graph: dict[tuple[str, str], set[tuple[str, str]]]
) -> list[list[tuple[str, str]]]:
    """Simple cycles of the lock graph, each found once, rooted at its
    smallest node (only nodes > start may extend a path)."""
    cycles: list[list[tuple[str, str]]] = []

    def dfs(
        start: tuple[str, str],
        node: tuple[str, str],
        path: list[tuple[str, str]],
        visited: set[tuple[str, str]],
    ) -> None:
        for nxt in sorted(graph.get(node, ())):
            if nxt == start and len(path) > 1:
                cycles.append(list(path))
            elif nxt > start and nxt not in visited:
                visited.add(nxt)
                dfs(start, nxt, path + [nxt], visited)
                visited.discard(nxt)

    for start in sorted(graph):
        dfs(start, start, [start], {start})
    return cycles


class ForkCaptureRule(ConcurrencyRule):
    """RACE003: fork-unsafe objects shipped to process-pool workers."""

    code = "RACE003"

    def check(self, program: ProgramModel) -> Iterator[Diagnostic]:
        for path, call in program.executor_calls:
            for expr, cls_name in call.payload:
                if cls_name is None:
                    continue
                why = program.fork_unsafe(cls_name)
                if why is None:
                    continue
                yield self.diagnostic(
                    f"{expr!r} ({cls_name}) is passed to "
                    f"ProcessPoolExecutor.{call.op}() but {why}; locks "
                    f"and live OS handles do not survive "
                    f"pickling/forking — ship plain data instead",
                    subject=f"{call.function}:{expr}",
                    path=path,
                    lineno=call.lineno,
                )


class HandoffMutationRule(ConcurrencyRule):
    """RACE004: mutation after handing an object to another thread."""

    code = "RACE004"

    def check(self, program: ProgramModel) -> Iterator[Diagnostic]:
        earliest: dict[tuple[str, str, str], Handoff] = {}
        for path, handoff in program.handoffs:
            key = (path, handoff.function, handoff.expr)
            existing = earliest.get(key)
            if existing is None or handoff.lineno < existing.lineno:
                earliest[key] = handoff
        for path, mutation in program.mutations:
            handoff = self._matching(earliest, path, mutation)
            if handoff is None or mutation.lineno <= handoff.lineno:
                continue
            yield self.diagnostic(
                f"{mutation.expr!r} is mutated ({mutation.how}, line "
                f"{mutation.lineno}) after being handed to another "
                f"{handoff.via} at line {handoff.lineno}; the consumer "
                f"may observe the object mid-update — hand off an "
                f"immutable snapshot instead",
                subject=f"{mutation.function}:{mutation.expr}",
                path=path,
                lineno=mutation.lineno,
            )

    @staticmethod
    def _matching(
        earliest: dict[tuple[str, str, str], Handoff],
        path: str,
        mutation: ObjMutation,
    ) -> Handoff | None:
        # A mutation of `box` or `box.items` both race a handoff of
        # `box`: match the expression or any dotted prefix of it.
        parts = mutation.expr.split(".")
        for end in range(len(parts), 0, -1):
            prefix = ".".join(parts[:end])
            handoff = earliest.get((path, mutation.function, prefix))
            if handoff is not None:
                return handoff
        return None


class BlockingUnderLockRule(ConcurrencyRule):
    """RACE005: blocking calls while holding a lock."""

    code = "RACE005"

    def check(self, program: ProgramModel) -> Iterator[Diagnostic]:
        for cls in _sorted_classes(program):
            locks = program.merged_locks(cls)
            if not locks:
                continue
            lock_names = frozenset(locks)
            for call in cls.calls:
                held = sorted(call.held & lock_names)
                if not held:
                    continue
                what = self._blocking(cls, call)
                if what is None:
                    continue
                yield self.diagnostic(
                    f"{what} while holding "
                    f"{cls.name}.{'/'.join(held)} in {call.method}() — "
                    f"every thread contending for the lock stalls "
                    f"behind the IO; move the blocking work outside "
                    f"the guarded region",
                    subject=f"{cls.name}.{call.method}",
                    path=cls.path,
                    lineno=call.lineno,
                )
        for path, call in program.free_held_calls:
            what = self._blocking(None, call)
            if what is not None:
                yield self.diagnostic(
                    f"{what} while holding {'/'.join(sorted(call.held))} "
                    f"in {call.method}()",
                    subject=call.method,
                    path=path,
                    lineno=call.lineno,
                )

    @staticmethod
    def _blocking(
        cls: ClassModel | None, call: MethodCall
    ) -> str | None:
        dotted = call.dotted
        for suffix in _BLOCKING_SUFFIXES:
            if dotted[-len(suffix):] == suffix:
                return f"blocking call {'.'.join(suffix)}()"
        if dotted == ("open",):
            return "file open()"
        if dotted and dotted[-1] in _BLOCKING_IO_METHODS:
            receiver = call.receiver
            if (
                receiver is not None
                and cls is not None
                and receiver.startswith("self.")
            ):
                attr = receiver.split(".", 1)[1]
                kind = cls.resource_attrs.get(attr)
                if kind is not None:
                    return f"{kind} IO ({receiver}.{dotted[-1]}())"
        return None


def _sorted_classes(program: ProgramModel) -> list[ClassModel]:
    return sorted(
        program.classes.values(), key=lambda c: (c.path, c.lineno)
    )


DEFAULT_CONCURRENCY_RULES: tuple[type[ConcurrencyRule], ...] = (
    UnguardedWriteRule,
    LockOrderRule,
    ForkCaptureRule,
    HandoffMutationRule,
    BlockingUnderLockRule,
)


# -- driver -----------------------------------------------------------------


def build_program(files: Iterable[tuple[str, str]]) -> ProgramModel:
    """Build the whole-program model from ``(path, source)`` pairs.

    Classes from *every* module are registered before any body is
    scanned, so cross-module usage evidence (thread targets, module
    singletons) resolves regardless of file order.
    """
    program = ProgramModel()
    scanners: list[tuple[_ModuleScanner, ast.Module]] = []
    for path, source in files:
        program.suppressions[path] = scan_pragmas(source, path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            program.parse_errors.append(Diagnostic.make(
                "PY002",
                f"file does not parse: {exc.msg}",
                subject=path,
                location=f"{path}:{exc.lineno or 0}",
            ))
            continue
        scanners.append((_ModuleScanner(program, path), tree))
    for scanner, tree in scanners:
        scanner.register(tree)
    for scanner, tree in scanners:
        scanner.scan_bodies(tree)
    return program


class ConcurrencyAnalyzer:
    """Runs the registered rules over a built program model."""

    def __init__(
        self,
        rules: Sequence[type[ConcurrencyRule]] = DEFAULT_CONCURRENCY_RULES,
    ) -> None:
        self.rules: list[ConcurrencyRule] = [rule() for rule in rules]

    def analyze(self, program: ProgramModel) -> DiagnosticReport:
        report = DiagnosticReport()
        report.extend(program.parse_errors)
        for path in sorted(program.suppressions):
            report.extend(program.suppressions[path].diagnostics)
        findings: list[Diagnostic] = []
        for rule in self.rules:
            for diag in rule.check(program):
                if not self._suppressed(program, diag):
                    findings.append(diag)
        findings.sort(key=lambda d: (d.location, d.code, d.message))
        report.extend(findings)
        return report

    @staticmethod
    def _suppressed(program: ProgramModel, diag: Diagnostic) -> bool:
        path, _, line_text = diag.location.rpartition(":")
        try:
            line = int(line_text)
        except ValueError:
            return False
        index = program.suppressions.get(path)
        return index is not None and index.allows(line, diag.code)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, sorted, deduplicated."""
    seen: set[Path] = set()
    for entry in paths:
        root = Path(entry)
        if not root.exists():
            raise FileNotFoundError(f"no such file or directory: {entry!r}")
        candidates = (
            sorted(root.rglob("*.py")) if root.is_dir() else [root]
        )
        for candidate in candidates:
            if candidate.suffix == ".py" and candidate not in seen:
                seen.add(candidate)
                yield candidate


def analyze_paths(paths: Iterable[str | Path]) -> DiagnosticReport:
    """Analyze every ``.py`` file under ``paths`` as one program."""
    files = [
        (str(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files(paths)
    ]
    return ConcurrencyAnalyzer().analyze(build_program(files))


def analyze_source(source: str, path: str = "<string>") -> DiagnosticReport:
    """Analyze a single module (fixtures, tests)."""
    return ConcurrencyAnalyzer().analyze(build_program([(path, source)]))


def describe_classes(program: ProgramModel) -> str:
    """Human-readable dump of the class model (``--dump-model``)."""
    lines: list[str] = []
    for cls in _sorted_classes(program):
        locks = ", ".join(
            f"{a}:{k}" for a, k in sorted(cls.lock_attrs.items())
        ) or "-"
        evidence = "; ".join(cls.shared_evidence) or "not thread-shared"
        unsafe = program.fork_unsafe(cls.name)
        lines.append(
            f"{cls.path}:{cls.lineno} class {cls.name} "
            f"[locks: {locks}] [{evidence}]"
            + (f" [fork-unsafe: {unsafe}]" if unsafe else "")
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``tools/run_concurrency.py``)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="lint-concurrency",
        description="Race / lock-order / fork-safety static analysis "
                    "for the repro runtime.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print machine-readable diagnostics to stdout",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="additionally write the JSON report to PATH",
    )
    parser.add_argument(
        "--dump-model", action="store_true",
        help="print the per-class lock/sharing model before findings",
    )
    args = parser.parse_args(argv)
    try:
        files = [
            (str(path), path.read_text(encoding="utf-8"))
            for path in iter_python_files(args.paths)
        ]
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    program = build_program(files)
    report = ConcurrencyAnalyzer().analyze(program)
    if args.dump_model:
        print(describe_classes(program))
    payload = report.to_dict()
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if report:
            print(report.render())
        print(report.summary())
    return 1 if report else 0

"""AST-based determinism and hygiene lint for the codebase itself.

The simulators' determinism contract — every random draw flows through a
seeded ``np.random.Generator``, no wall-clock time in library code — was
enforced only by convention.  This module makes it mechanical: a small
AST-walker framework with repo-specific rules, runnable as
``repro lint-code [paths...]``, via ``tools/run_astlint.py``, and as a
pytest-collected check (``tests/test_astlint.py``) so it rides tier-1.

Rules (codes registered in :mod:`repro.analysis.diagnostics`):

* ``DET001`` — unseeded ``np.random.default_rng()`` call, or any use of
  the stdlib ``random`` module;
* ``DET002`` — wall-clock time sources: ``time.time()``,
  ``time.time_ns()``, ``datetime.now()``, ``datetime.utcnow()``,
  ``datetime.today()``, ``date.today()``;
* ``DET003`` — iteration over a ``set``/``frozenset`` expression in an
  order-sensitive context (``for`` loops, list/dict/generator
  comprehensions, ``list()``/``tuple()``/``enumerate()``): the order
  varies with ``PYTHONHASHSEED``, so models trained from it would not be
  byte-stable — sort first.  In ``repro/detection`` and ``repro/graph``,
  whose iteration orders reach reports, an attribute annotated
  ``set[...]``/``frozenset[...]`` (``x.attr``), or an item of one
  annotated ``dict[..., set[...]]`` (``x.attr[k]``, ``x.attr.get(k)``),
  counts as a set too;
* ``PY001`` — mutable default argument (list/dict/set literal or
  constructor call);
* ``PY002`` — bare ``except:``, or ``except Exception:`` whose body is
  only ``pass`` (error swallowing).

A finding is suppressed per line either by ``# noqa: CODE`` or by the
shared ``# repro: allow=CODE -- reason`` pragma
(:mod:`repro.analysis.suppress`) that the concurrency analyzer honours
too; the pragma's justification is mandatory and malformed/unknown
pragmas surface as ``SUP001``/``SUP002`` findings.  Whole subsystems
with a sanctioned exemption can be listed in :data:`PATH_ALLOWLIST`,
but the list is empty today — the previous ``repro/obs`` DET002 entry
was replaced by an inline pragma on the one sanctioned wall-clock line
(more precise: new wall-clock calls in obs are flagged again).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .diagnostics import Diagnostic, DiagnosticReport
from .suppress import SuppressionIndex, scan_pragmas

__all__ = [
    "LintRule", "Linter", "PATH_ALLOWLIST", "lint_source", "lint_paths",
    "main",
]

#: Per-rule path allowlist: a finding is dropped when the module path
#: contains one of the listed fragments (POSIX separators; matched
#: against the normalised path, so it works from any checkout root).
#: Empty today: standing exemptions live on the exact sanctioned line
#: as per-line ``allow=CODE -- reason`` suppression pragmas instead,
#: which is both more precise and self-documenting.  The mechanism
#: stays for cases a per-line pragma cannot express (generated trees).
PATH_ALLOWLIST: dict[str, tuple[str, ...]] = {}


def _path_allowlisted(code: str, path: str) -> bool:
    fragments = PATH_ALLOWLIST.get(code)
    if not fragments:
        return False
    normalised = path.replace("\\", "/")
    return any(fragment in normalised for fragment in fragments)


#: Wall-clock call suffixes flagged by DET002: dotted-name endings.
_WALL_CLOCK_SUFFIXES = (
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
)


@dataclass(slots=True)
class ModuleContext:
    """Per-module facts gathered in a pre-pass over the tree."""

    path: str
    source_lines: list[str]
    #: Local names bound to the stdlib ``random`` module.
    random_aliases: set[str] = field(default_factory=set)
    #: Local names bound to ``numpy.random.default_rng``.
    default_rng_aliases: set[str] = field(default_factory=set)
    #: Parsed suppression pragmas for this module (see suppress.py).
    pragmas: SuppressionIndex | None = None
    #: Set-typed attribute names DET003 sees in this module
    #: (:func:`set_attributes`); empty outside its scope.
    set_attrs: dict[str, str] = field(default_factory=dict)
    #: ids of generator expressions passed straight to an
    #: order-insensitive call (``sorted(x for x in s)``).
    unordered_generators: set[int] = field(default_factory=set)

    def suppressed(self, line: int, code: str) -> bool:
        if self.pragmas is not None and self.pragmas.allows(line, code):
            return True
        if 1 <= line <= len(self.source_lines):
            text = self.source_lines[line - 1]
            if "# noqa" in text:
                tail = text.split("# noqa", 1)[1]
                return not tail.strip(": ") or code in tail
        return False


class LintRule:
    """One lint rule: a code plus per-node checks.

    Subclasses set :attr:`code` and override :meth:`check`; the linter
    calls :meth:`check` for every node whose type is in
    :attr:`node_types`.
    """

    code: str = ""
    #: AST node classes this rule wants to see (dispatch filter).
    node_types: tuple[type, ...] = ()

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, message: str, node: ast.AST, ctx: ModuleContext
    ) -> Diagnostic:
        line = getattr(node, "lineno", 0)
        return Diagnostic.make(
            self.code, message,
            subject=ctx.path,
            location=f"{ctx.path}:{line}",
        )


def _dotted_suffix(func: ast.AST) -> tuple[str, ...]:
    """Trailing dotted names of a call target, e.g. ``a.b.c`` -> (a,b,c)."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


class UnseededRandomRule(LintRule):
    """DET001: unseeded ``default_rng()`` / stdlib ``random`` use."""

    code = "DET001"
    node_types = (ast.Call, ast.ImportFrom)

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Diagnostic]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                names = ", ".join(a.name for a in node.names)
                yield self.diagnostic(
                    f"import of stdlib random primitives ({names}); use a "
                    f"seeded np.random.Generator instead",
                    node, ctx,
                )
            return
        assert isinstance(node, ast.Call)
        dotted = _dotted_suffix(node.func)
        if not dotted:
            return
        # Unseeded np.random.default_rng() (any alias of numpy).
        is_default_rng = (
            (len(dotted) == 1 and dotted[0] in ctx.default_rng_aliases)
            or (len(dotted) > 1 and dotted[-1] == "default_rng"
                and (dotted[0] in ("np", "numpy")
                     or dotted[-2] == "random"))
        )
        if is_default_rng:
            if not node.args and not node.keywords:
                yield self.diagnostic(
                    "np.random.default_rng() called without a seed "
                    "(non-deterministic generator)",
                    node, ctx,
                )
            return
        # Any call through the stdlib random module (random.random(), ...).
        if len(dotted) >= 2 and dotted[0] in ctx.random_aliases:
            yield self.diagnostic(
                f"call through stdlib random module "
                f"('{'.'.join(dotted)}'); use a seeded "
                f"np.random.Generator instead",
                node, ctx,
            )


class WallClockRule(LintRule):
    """DET002: wall-clock time sources in library code."""

    code = "DET002"
    node_types = (ast.Call,)

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Diagnostic]:
        assert isinstance(node, ast.Call)
        dotted = _dotted_suffix(node.func)
        if len(dotted) < 2:
            return
        for suffix in _WALL_CLOCK_SUFFIXES:
            if dotted[-2:] == suffix:
                yield self.diagnostic(
                    f"wall-clock call '{'.'.join(dotted)}' — timestamps "
                    f"must come from the simulated event clock or the "
                    f"input records",
                    node, ctx,
                )
                return


#: Calls whose result does not depend on the order of the iterable
#: they consume (a generator expression passed to one is not flagged).
_ORDER_INSENSITIVE_CALLS = frozenset({
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len",
})

#: Packages whose set-typed attributes DET003 tracks: their iteration
#: orders reach detection reports and model bytes.
SET_ATTR_SCOPE = ("repro/detection/", "repro/graph/")

#: Attribute kinds :func:`set_attributes` records.
_SET, _DICT_OF_SET = "set", "dict of set"


def _in_set_attr_scope(path: str) -> bool:
    normalised = path.replace("\\", "/")
    return any(fragment in normalised for fragment in SET_ATTR_SCOPE)


def _annotation_kind(node: ast.AST | None) -> str | None:
    """``_SET`` for a set/frozenset annotation, ``_DICT_OF_SET`` for a
    dict whose values are one (``| None`` is looked through)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [node.left, node.right]
        kinds = {
            _annotation_kind(side) for side in sides
            if not (isinstance(side, ast.Constant) and side.value is None)
        }
        return kinds.pop() if len(kinds) == 1 else None
    head = node.value if isinstance(node, ast.Subscript) else node
    name = _dotted_suffix(head)[-1:] if head is not None else ()
    if name and name[0] in ("set", "frozenset", "Set", "FrozenSet"):
        return _SET
    if (
        name and name[0] in ("dict", "Dict", "defaultdict", "DefaultDict")
        and isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Tuple)
        and len(node.slice.elts) == 2
        and _annotation_kind(node.slice.elts[1]) == _SET
    ):
        return _DICT_OF_SET
    return None


def set_attributes(trees: Iterable[ast.AST]) -> dict[str, str]:
    """Attribute name -> kind, for every attribute the ``trees``
    annotate as a set or a dict of sets: class-body annotations
    (dataclass fields) and ``self.name: ...`` in methods.  Names are
    matched without their class, so a name annotated with two kinds,
    or with a non-set type anywhere, is left out."""
    kinds: dict[str, set[str | None]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                targets = [
                    (stmt.target.id, stmt.annotation)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
            ):
                targets = [(node.target.attr, node.annotation)]
            else:
                continue
            for name, annotation in targets:
                kinds.setdefault(name, set()).add(
                    _annotation_kind(annotation)
                )
    attrs: dict[str, str] = {}
    for name, found in sorted(kinds.items()):
        kind = found.pop() if len(found) == 1 else None
        if kind is not None:
            attrs[name] = kind
    return attrs


class SetIterationRule(LintRule):
    """DET003: set iteration where the resulting *order* is observable.

    Flags expressions that are sets *by construction* — ``{a, b}``
    literals, set comprehensions and bare ``set(...)`` / ``frozenset(...)``
    calls — and, in :data:`SET_ATTR_SCOPE`, attributes annotated as
    sets or items of dicts annotated as holding sets
    (``ModuleContext.set_attrs``), feeding an order-sensitive consumer.
    Other set-typed *variables* are invisible to a per-node syntactic
    rule; the golden suite's PYTHONHASHSEED runs are the behavioural
    backstop for those.  ``sorted(set(...))``, membership tests and
    aggregations (``sum``, ``max``...) are order-insensitive and stay
    clean, and so does a generator expression handed straight to one
    (``sorted(str(x) for x in s)``).
    """

    code = "DET003"
    node_types = (ast.For, ast.AsyncFor, ast.ListComp, ast.DictComp,
                  ast.GeneratorExp, ast.Call)

    _order_sensitive_calls = {"list", "tuple", "enumerate"}

    @staticmethod
    def _set_expr(node: ast.AST, ctx: ModuleContext) -> str | None:
        """A description of ``node`` when it is a set by construction,
        or a set-typed attribute or dict item that ``ctx`` tracks."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return f"a {node.func.id}() call"
        attrs = ctx.set_attrs
        if not attrs:
            return None
        if isinstance(node, ast.Attribute) and attrs.get(node.attr) == _SET:
            return f"the set attribute '{node.attr}'"
        if isinstance(node, ast.Subscript):
            holder = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
        ):
            holder = node.func.value
        else:
            return None
        if (
            isinstance(holder, ast.Attribute)
            and attrs.get(holder.attr) == _DICT_OF_SET
        ):
            return f"a set item of '{holder.attr}'"
        return None

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Diagnostic]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            what = self._set_expr(node.iter, ctx)
            if what:
                yield self.diagnostic(
                    f"for-loop iterates {what}; iteration order depends "
                    f"on PYTHONHASHSEED — iterate sorted(...) instead",
                    node, ctx,
                )
        elif isinstance(node, (ast.ListComp, ast.DictComp,
                               ast.GeneratorExp)):
            if id(node) in ctx.unordered_generators:
                return
            for gen in node.generators:
                what = self._set_expr(gen.iter, ctx)
                if what:
                    yield self.diagnostic(
                        f"comprehension iterates {what}; element order "
                        f"depends on PYTHONHASHSEED — iterate "
                        f"sorted(...) instead",
                        node, ctx,
                    )
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in self._order_sensitive_calls
                and node.args
            ):
                what = self._set_expr(node.args[0], ctx)
                if what:
                    yield self.diagnostic(
                        f"{node.func.id}() materialises {what} in hash "
                        f"order (varies with PYTHONHASHSEED) — use "
                        f"sorted(...) instead",
                        node, ctx,
                    )


class MutableDefaultRule(LintRule):
    """PY001: mutable default arguments."""

    code = "PY001"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    _mutable_calls = {"list", "dict", "set", "defaultdict", "OrderedDict"}

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                ast.DictComp, ast.SetComp)):
            return True
        if isinstance(default, ast.Call):
            dotted = _dotted_suffix(default.func)
            return bool(dotted) and dotted[-1] in self._mutable_calls
        return False

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Diagnostic]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(
            positional[len(positional) - len(args.defaults):],
            args.defaults,
        ):
            if self._is_mutable(default):
                yield self.diagnostic(
                    f"mutable default for argument '{arg.arg}' of "
                    f"'{node.name}' is shared across calls",
                    default, ctx,
                )
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None and self._is_mutable(kw_default):
                yield self.diagnostic(
                    f"mutable default for argument '{arg.arg}' of "
                    f"'{node.name}' is shared across calls",
                    kw_default, ctx,
                )


class SwallowedExceptionRule(LintRule):
    """PY002: bare except / ``except Exception: pass``."""

    code = "PY002"
    node_types = (ast.ExceptHandler,)

    def _broad(self, expr: ast.AST | None) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in ("Exception", "BaseException")
        if isinstance(expr, ast.Tuple):
            return any(self._broad(el) for el in expr.elts)
        return False

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Diagnostic]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield self.diagnostic(
                "bare 'except:' catches SystemExit/KeyboardInterrupt too; "
                "name the exception type",
                node, ctx,
            )
            return
        body_is_pass = all(
            isinstance(stmt, ast.Pass) for stmt in node.body
        )
        if body_is_pass and self._broad(node.type):
            yield self.diagnostic(
                "'except Exception: pass' silently swallows errors; "
                "narrow the type or handle/log the failure",
                node, ctx,
            )


DEFAULT_RULES: tuple[type[LintRule], ...] = (
    UnseededRandomRule,
    WallClockRule,
    SetIterationRule,
    MutableDefaultRule,
    SwallowedExceptionRule,
)


class Linter:
    """Walks Python sources once, dispatching nodes to registered rules."""

    def __init__(
        self,
        rules: Sequence[type[LintRule]] = DEFAULT_RULES,
        set_attrs: dict[str, str] | None = None,
    ) -> None:
        self.rules: list[LintRule] = [rule() for rule in rules]
        #: Set-typed attributes of the linted package
        #: (:func:`set_attributes`); without them, a module in scope is
        #: checked against its own annotations.
        self.set_attrs = set_attrs or {}

    # -- context pre-pass ---------------------------------------------------

    @staticmethod
    def _gather_context(tree: ast.Module, ctx: ModuleContext) -> None:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE_CALLS
                and node.args
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                ctx.unordered_generators.add(id(node.args[0]))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        ctx.random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("numpy.random", "numpy"):
                    for alias in node.names:
                        if alias.name == "default_rng":
                            ctx.default_rng_aliases.add(
                                alias.asname or alias.name
                            )

    # -- linting ------------------------------------------------------------

    def lint_tree(
        self, tree: ast.Module, ctx: ModuleContext
    ) -> list[Diagnostic]:
        self._gather_context(tree, ctx)
        findings: list[Diagnostic] = []
        for node in ast.walk(tree):
            for rule in self.rules:
                if not isinstance(node, rule.node_types):
                    continue
                if _path_allowlisted(rule.code, ctx.path):
                    continue
                for diag in rule.check(node, ctx):
                    line = getattr(node, "lineno", 0)
                    if not ctx.suppressed(line, rule.code):
                        findings.append(diag)
        findings.sort(key=lambda d: (d.location, d.code))
        return findings

    def lint_source(self, source: str, path: str) -> list[Diagnostic]:
        pragmas = scan_pragmas(source, path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [Diagnostic.make(
                "PY002",
                f"file does not parse: {exc.msg}",
                subject=path,
                location=f"{path}:{exc.lineno or 0}",
            )]
        ctx = ModuleContext(
            path=path,
            source_lines=source.splitlines(),
            pragmas=pragmas,
        )
        if _in_set_attr_scope(path):
            ctx.set_attrs = self.set_attrs or set_attributes([tree])
        # Pragma errors (unknown code, missing justification) are
        # findings themselves — a broken suppression must not pass CI.
        return list(pragmas.diagnostics) + self.lint_tree(tree, ctx)

    def lint_file(self, path: Path) -> list[Diagnostic]:
        return self.lint_source(
            path.read_text(encoding="utf-8"), str(path)
        )


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


def lint_source(source: str, path: str = "<string>") -> DiagnosticReport:
    report = DiagnosticReport()
    report.extend(Linter().lint_source(source, path))
    return report


def _package_files(files: list[Path]) -> list[Path]:
    """Every module of the ``repro`` package holding a linted module in
    :data:`SET_ATTR_SCOPE`: attribute names are matched without their
    class, so the whole package decides which of them are sets."""
    roots: set[Path] = set()
    for path in files:
        if _in_set_attr_scope(str(path)):
            parts = path.resolve().parts
            anchor = len(parts) - 1 - parts[::-1].index("repro")
            roots.add(Path(*parts[:anchor + 1]))
    return sorted({module for root in roots for module in root.rglob("*.py")})


def lint_paths(paths: Iterable[str | Path]) -> DiagnosticReport:
    """Lint every ``.py`` file under ``paths`` with the default rules."""
    files = list(iter_python_files(paths))
    trees: list[ast.Module] = []
    for module in _package_files(files):
        try:
            trees.append(ast.parse(module.read_text(encoding="utf-8")))
        except SyntaxError:
            continue  # reported when the module itself is linted
    linter = Linter(set_attrs=set_attributes(trees))
    report = DiagnosticReport()
    for path in files:
        report.extend(linter.lint_file(path))
    return report


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``tools/run_astlint.py`` delegates here)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="astlint",
        description="Determinism & hygiene lint for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    args = parser.parse_args(argv)
    try:
        report = lint_paths(args.paths)
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    if report:
        print(report.render())
    print(report.summary())
    return 1 if report else 0

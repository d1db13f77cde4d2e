"""Repo-specific AST lint pass (``python -m repro lint``).

General-purpose linters cannot know this repository's contracts; these
rules encode them:

======= ==================== =====================================================
rule id name                 contract
======= ==================== =====================================================
RPR001  raw-minplus          inside ``repro/core/`` (outside ``core/backends/``),
                             min-plus products must go through the
                             :class:`~repro.core.engine.KernelEngine` — no raw
                             ``np.minimum(C, A[:, :, None] + B[None, :, :])``-style
                             broadcasts that bypass the compiled kernels and the
                             operand contract
RPR002  float64-into-engine  engine call sites (``minplus``, ``minplus_update``,
                             ``.update``, ``.fw_inplace``) must not be fed inline
                             float64 array constructors (``np.full(...)`` without
                             ``dtype=``, or an explicit float64 dtype): a float64
                             accumulator silently falls off the fast float32 path
RPR003  wall-clock-bench     benchmark code (``repro/bench/``) must time with
                             ``time.perf_counter``, never ``time.time`` (coarse,
                             non-monotonic)
RPR004  mutable-default      no mutable default arguments (list/dict/set
                             displays or constructor calls)
RPR005  missing-all          public modules that define public top-level names
                             must declare ``__all__``
RPR007  dead-event           a ``.record(...)`` whose event no reachable
                             ``.wait(...)`` in the module consumes orders
                             nothing: either leftover scaffolding or a dropped
                             synchronisation edge (the source-level twin of the
                             plan verifier's dead-event check)
RPR008  ffi-contract         every function reference taken from a
                             ``ctypes.CDLL`` handle must declare **both**
                             ``argtypes`` and ``restype`` somewhere in the
                             module; an undeclared C entry point defaults to
                             int-sized marshalling and corrupts 64-bit
                             pointers/strides silently
RPR009  unchecked-ndarray-ffi a raw ``arr.ctypes.data`` pointer handed to a C
                             call site needs a statically-evident dtype +
                             contiguity guard on ``arr`` in the same function
                             (``_checked_operand``/``ascontiguousarray``/
                             ``np.require``) — the C kernels assume unit inner
                             stride and a specific element width
RPR011  stale-dist-mutation  solved state is immutable outside its owner: no
                             in-place subscript stores to a ``.dist`` matrix
                             outside ``repro/dynamic/`` (route mutations
                             through :class:`repro.dynamic.DynamicAPSP` so the
                             patch is scheduled, proven O(n²), and the cache
                             fingerprint rotates), none to the frozen CSR
                             arrays ``.weights``/``.indptr``/``.indices``
                             anywhere (rebuild via ``apply_edge_updates``),
                             and none to a result's ``.store.data`` outside
                             ``repro/core/`` — a silent in-place write leaves
                             every downstream consumer (caches, selectors,
                             checkpoints) holding stale answers
======= ==================== =====================================================

Run over paths with :func:`lint_paths`; each finding is a
:class:`Violation` carrying ``rule``, ``file``, ``line`` and ``col``.
Fix the code, don't suppress the rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["Violation", "lint_file", "lint_paths", "format_violations", "RULES"]

#: rule id -> (name, summary); :class:`Violation` names come from here
RULES: dict[str, tuple[str, str]] = {
    "RPR001": ("raw-minplus", "raw broadcast min-plus bypassing the KernelEngine in core/"),
    "RPR002": ("float64-into-engine", "float64 array constructor fed to an engine call site"),
    "RPR003": ("wall-clock-bench", "time.time() used in bench/ (use time.perf_counter)"),
    "RPR004": ("mutable-default", "mutable default argument"),
    "RPR005": ("missing-all", "public module defines public names but no __all__"),
    "RPR007": ("dead-event", "record() whose event no reachable wait() consumes"),
    "RPR008": ("ffi-contract", "CDLL function used without declared argtypes/restype"),
    "RPR009": ("unchecked-ndarray-ffi", "ndarray pointer reaches C without dtype/contiguity guard"),
    "RPR011": ("stale-dist-mutation", "in-place write to solved dist/CSR state outside its owner"),
}

#: engine entry points whose operands RPR002 inspects
_ENGINE_CALLEES = {"minplus", "minplus_update", "update", "fw_inplace"}

#: numpy constructors that default to float64 when dtype is omitted
_F64_DEFAULT_CTORS = ("full", "zeros", "ones", "empty")

_MUTABLE_CTORS = {"list", "dict", "set"}


@dataclass(frozen=True)
class Violation:
    """One lint finding at ``file:line:col``."""

    rule: str
    name: str
    file: str
    line: int
    col: int
    message: str

    def describe(self) -> str:
        """``file:line:col: RPRnnn name: message`` — editor-clickable."""
        return f"{self.file}:{self.line}:{self.col}: {self.rule} {self.name}: {self.message}"


def _is_np_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _subscript_has_none(node: ast.AST) -> bool:
    """True for ``x[..., None, ...]``-style new-axis subscripts."""
    if not isinstance(node, ast.Subscript):
        return False
    idx = node.slice
    elts = idx.elts if isinstance(idx, ast.Tuple) else [idx]
    return any(isinstance(e, ast.Constant) and e.value is None for e in elts)


def _is_broadcast_minplus_arg(node: ast.AST) -> bool:
    """``A[:, :, None] + B[None, :, :]`` (or any Add of subscript views)."""
    if not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.Add):
        return False
    return _subscript_has_none(node.left) or _subscript_has_none(node.right)


def _is_float64_dtype(node: ast.AST) -> bool:
    if _is_np_attr(node, "float64"):
        return True
    if isinstance(node, ast.Constant) and node.value in ("float64", "f8"):
        return True
    return isinstance(node, ast.Name) and node.id == "float"


def _constructs_float64(node: ast.AST) -> bool:
    """An inline array constructor whose result dtype is float64."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    ctor = func.attr if isinstance(func, ast.Attribute) else None
    if ctor is None or not _is_np_attr(func, ctor):
        return False
    dtype_kw = next((kw.value for kw in node.keywords if kw.arg == "dtype"), None)
    if dtype_kw is not None:
        return _is_float64_dtype(dtype_kw)
    # dtype omitted: np.full/zeros/ones/empty default to float64
    return ctor in _F64_DEFAULT_CTORS


class _Checker(ast.NodeVisitor):
    """Single-pass visitor applying every location-scoped rule."""

    def __init__(self, path: Path, rel: str) -> None:
        self.path = path
        self.rel = rel.replace("\\", "/")
        self.violations: list[Violation] = []
        self.in_core = "/core/" in f"/{self.rel}" and "/backends/" not in self.rel
        self.in_bench = "/bench/" in f"/{self.rel}"
        self.in_dynamic = "/dynamic/" in f"/{self.rel}"
        self.in_core_pkg = "/core/" in f"/{self.rel}"

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        name, _ = RULES[rule]
        self.violations.append(
            Violation(
                rule=rule,
                name=name,
                file=str(self.path),
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # -- RPR001 / RPR002 / RPR003 --------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.in_core and _is_np_attr(node.func, "minimum"):
            if any(_is_broadcast_minplus_arg(arg) for arg in node.args):
                self._flag(
                    "RPR001", node,
                    "raw broadcast min-plus product; route it through the "
                    "KernelEngine (repro.core.engine) instead",
                )
        callee = None
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        if callee in _ENGINE_CALLEES:
            for arg in node.args:
                if _constructs_float64(arg):
                    self._flag(
                        "RPR002", arg,
                        f"float64 array constructed inline at {callee}() call "
                        "site; pass dtype=DIST_DTYPE (float32) so the operand "
                        "stays on the fast path",
                    )
        func = node.func
        if (
            self.in_bench
            and isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self._flag(
                "RPR003", node,
                "time.time() in benchmark code; use time.perf_counter()",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.in_bench and node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    self._flag(
                        "RPR003", node,
                        "wall-clock `from time import time` in benchmark code; "
                        "import perf_counter instead",
                    )
        self.generic_visit(node)

    # -- RPR004 --------------------------------------------------------
    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CTORS
            )
            if mutable:
                self._flag(
                    "RPR004", default,
                    f"mutable default argument in {node.name}(); "
                    "default to None and construct inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- RPR011 --------------------------------------------------------
    #: CSR arrays frozen by contract — no in-place element stores anywhere
    _FROZEN_CSR_ATTRS = ("weights", "indptr", "indices")

    def _check_solved_store(self, target: ast.AST) -> None:
        """Flag ``<obj>.dist[...] = …`` / ``<obj>.weights[...] = …``-style
        in-place stores to solved or frozen state (see RPR011)."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_solved_store(elt)
            return
        if not isinstance(target, ast.Subscript) or not isinstance(
            target.value, ast.Attribute
        ):
            return
        attr = target.value.attr
        if attr in self._FROZEN_CSR_ATTRS and not self.in_dynamic:
            self._flag(
                "RPR011", target,
                f"in-place store to frozen CSR array .{attr}[...]; graphs "
                "are immutable — build the mutated graph with "
                "repro.dynamic.apply_edge_updates instead",
            )
        elif attr == "dist" and not self.in_dynamic:
            self._flag(
                "RPR011", target,
                "in-place store to a solved .dist matrix outside the "
                "repro.dynamic API; the write bypasses the verified patch "
                "schedule and leaves content-hash caches stale — go "
                "through repro.dynamic.DynamicAPSP.apply",
            )
        elif (
            attr == "data"
            and isinstance(target.value.value, ast.Attribute)
            and target.value.value.attr == "store"
            and not self.in_core_pkg
        ):
            self._flag(
                "RPR011", target,
                "in-place store to a result's .store.data outside "
                "repro/core/; solved stores are immutable once returned",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_solved_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_solved_store(node.target)
        self.generic_visit(node)


def _base_name(node: ast.AST) -> str | None:
    """The root ``Name`` under nested subscripts (``a[i][j]`` -> ``a``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _check_dead_events(tree: ast.Module, checker: _Checker) -> None:
    """RPR007 — module-wide: every ``.record(...)`` needs a consumer.

    A record call is *live* when its result is consumed by a ``.wait()``
    (directly, through a variable/container a wait reads, or via the
    event object it was given), or when it escapes local analysis
    (returned, stored on an attribute, passed to another call). Only the
    provably dead shapes are flagged: a bare expression statement that
    discards the event, and an assignment to a name no wait in the
    module ever references.
    """
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    wait_names: set[str] = set()
    records: list[ast.Call] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "wait":
            for arg in node.args:
                base = _base_name(arg)
                if base is not None:
                    wait_names.add(base)
        elif node.func.attr == "record":
            records.append(node)
    for rc in records:
        # the event object handed to record() is itself waited on somewhere
        if any(_base_name(arg) in wait_names for arg in rc.args
               if _base_name(arg) is not None):
            continue
        parent = parents.get(rc)
        dead = False
        if isinstance(parent, ast.Expr):
            dead = True  # result discarded — nothing can ever wait
        elif isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                parent.targets if isinstance(parent, ast.Assign) else [parent.target]
            )
            plain = [t for t in targets if isinstance(t, (ast.Name, ast.Subscript))]
            if len(plain) == len(targets) and not any(
                _base_name(t) in wait_names for t in plain
            ):
                dead = True  # bound to name(s) no wait() ever reads
        if dead:
            checker._flag(
                "RPR007", rc,
                "record() whose event no reachable wait() consumes; the "
                "edge orders nothing — wait on it, or drop the record",
            )


def _dotted(node: ast.AST) -> str | None:
    """Render a Name/Attribute chain as ``a.b.c`` (None when not a chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_cdll_ctor(node: ast.AST) -> bool:
    """``ctypes.CDLL(...)`` / ``CDLL(...)`` / ``ctypes.cdll.LoadLibrary(...)``."""
    if not isinstance(node, ast.Call):
        return False
    name = _dotted(node.func)
    return name in ("CDLL", "ctypes.CDLL", "cdll.LoadLibrary", "ctypes.cdll.LoadLibrary")


def _is_cdll_annotation(node: ast.AST | None) -> bool:
    return node is not None and _dotted(node) in ("CDLL", "ctypes.CDLL")


def _check_ffi_contracts(tree: ast.Module, checker: _Checker) -> None:
    """RPR008 — module-wide: CDLL function refs need argtypes *and* restype.

    Tracks CDLL handles (``lib = ctypes.CDLL(...)`` and parameters
    annotated ``ctypes.CDLL``), the function references taken from them
    (``self.f = lib.foo``), and the contract assignments
    (``self.f.argtypes = …`` / ``.restype = …``). A reference — or a
    direct ``lib.foo(...)`` call — with either half of the contract
    missing module-wide is flagged.
    """
    cdll_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if value is not None and _is_cdll_ctor(value):
                for t in targets:
                    name = _dotted(t)
                    if name is not None:
                        cdll_names.add(name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in node.args.args + node.args.kwonlyargs:
                if _is_cdll_annotation(arg.annotation):
                    cdll_names.add(arg.arg)
    if not cdll_names:
        return
    # refs: dotted target -> (line, col, C symbol); declared: target -> halves
    refs: dict[str, tuple[int, int, str]] = {}
    declared: dict[str, set[str]] = {}
    direct_calls: list[tuple[str, ast.Call]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and _dotted(value.value) in cdll_names
            ):
                for t in node.targets:
                    name = _dotted(t)
                    if name is not None:
                        refs.setdefault(name, (node.lineno, node.col_offset, value.attr))
            for t in node.targets:
                if isinstance(t, ast.Attribute) and t.attr in ("argtypes", "restype"):
                    owner = _dotted(t.value)
                    if owner is not None:
                        declared.setdefault(owner, set()).add(t.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = _dotted(node.func.value)
            if owner in cdll_names:
                direct_calls.append((f"{owner}.{node.func.attr}", node))
    for target, (line, col, symbol) in refs.items():
        missing = {"argtypes", "restype"} - declared.get(target, set())
        if missing:
            checker.violations.append(
                Violation(
                    rule="RPR008", name=RULES["RPR008"][0],
                    file=str(checker.path), line=line, col=col,
                    message=f"C function {symbol!r} bound to {target} without "
                    f"{' or '.join(sorted(missing))}; an undeclared FFI "
                    "contract truncates 64-bit pointers/strides",
                )
            )
    for qualified, call in direct_calls:
        if {"argtypes", "restype"} - declared.get(qualified, set()):
            checker._flag(
                "RPR008", call,
                f"direct call through {qualified} without declared "
                "argtypes/restype",
            )


_NDARRAY_GUARDS = {"_checked_operand", "ascontiguousarray", "require"}


def _check_ndarray_ffi(tree: ast.Module, checker: _Checker) -> None:
    """RPR009 — per function: ``x.ctypes.data`` call args need a guard on x.

    Every ``x.ctypes.data`` occurrence counts as a raw pointer escaping
    to C (directly as a call argument, or packed into an args tuple).
    The guard must be statically evident in the same function: ``x``
    passed to ``_checked_operand``/``np.ascontiguousarray``/
    ``np.require`` (any of which pins dtype and layout before the raw
    pointer crosses the FFI boundary).
    """
    funcs = [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    covered: set[ast.AST] = set()
    for fn in funcs:
        for inner in ast.walk(fn):
            if inner is not fn and isinstance(
                inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                covered.add(inner)
    for fn in funcs:
        if fn in covered:
            continue  # nested defs are walked with their own scope below
        _check_ndarray_ffi_scope(fn, checker)


def _check_ndarray_ffi_scope(fn: ast.AST, checker: _Checker) -> None:
    guarded: set[str] = set()
    raw_uses: list[tuple[str, ast.Attribute]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            callee = node.func
            cname = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None
            )
            if cname in _NDARRAY_GUARDS:
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        guarded.add(arg.id)
        use = _raw_pointer_use(node)
        if use is not None:
            raw_uses.append(use)
    for owner, node in raw_uses:
        if owner not in guarded:
            checker._flag(
                "RPR009", node,
                f"{owner}.ctypes.data crosses the FFI boundary without a "
                f"dtype/contiguity guard on {owner!r} in this function "
                "(route it through _checked_operand or np.ascontiguousarray)",
            )


def _raw_pointer_use(node: ast.AST) -> tuple[str, ast.Attribute] | None:
    """Match ``<name>.ctypes.data`` and return (name, node)."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "data"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "ctypes"
        and isinstance(node.value.value, ast.Name)
    ):
        return node.value.value.id, node
    return None


def _module_public_names(tree: ast.Module) -> list[str]:
    """Top-level public defs/classes/assignments (imports excluded)."""
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    names.append(target.id)
    return names


def _declares_all(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return True
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "__all__"
        ):
            return True
    return False


def lint_file(path: Path, root: Path | None = None) -> list[Violation]:
    """Lint one python file; returns its violations (possibly empty)."""
    path = Path(path)
    try:
        rel = str(path.resolve().relative_to((root or Path.cwd()).resolve()))
    except ValueError:
        rel = str(path)
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(
                rule="RPR000", name="syntax-error", file=str(path),
                line=exc.lineno or 1, col=exc.offset or 0,
                message=str(exc.msg),
            )
        ]
    checker = _Checker(path, rel)
    checker.visit(tree)
    violations = checker.violations
    # RPR007 needs module-wide wait()-reachability, not a single-node view
    _check_dead_events(tree, checker)
    # RPR008/RPR009 — module-wide FFI contract + per-function operand guards
    _check_ffi_contracts(tree, checker)
    _check_ndarray_ffi(tree, checker)
    # RPR005 is module-shaped, not node-shaped
    module_name = path.stem
    exempt = module_name.startswith("_") and module_name != "__init__"
    if not exempt and _module_public_names(tree) and not _declares_all(tree):
        checker._flag("RPR005", tree.body[0] if tree.body else tree,
                      "module defines public names but no __all__")
    return violations


def _iter_py_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[Path], root: Path | None = None) -> list[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    violations: list[Violation] = []
    for path in _iter_py_files(paths):
        violations.extend(lint_file(path, root=root))
    return violations


def format_violations(violations: list[Violation]) -> str:
    """Render findings one per line, stable order."""
    ordered = sorted(violations, key=lambda v: (v.file, v.line, v.col, v.rule))
    return "\n".join(v.describe() for v in ordered)

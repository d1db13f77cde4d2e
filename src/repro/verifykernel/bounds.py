"""Symbolic bounds proofs for the JIT kernel templates.

Interprets each parsed kernel (:mod:`repro.verifykernel.cparse`) over a
symbolic domain and proves every array subscript in bounds — across the
main register-blocked tiles and the remainder loops — for *all*
nonnegative values of the size/stride parameters, not just the shapes a
test happens to run.

The value domain is a canonical polynomial over nonnegative atoms:
parameters (``bi``, ``cs``, …), per-loop-instance variables, and the
opaque-but-monotone ``Min``/``Max`` operators that the kernels' ternary
tile bounds (``k0 + tile < bk ? k0 + tile : bk``) introduce. Loop
variables are eliminated innermost-first by monotone endpoint
substitution (``Min``/``Max`` are nondecreasing in their arguments),
then :func:`prove_ge0` discharges the comparison with case splits over
``Min``/``Max`` (an atom pointwise *equals* one of its arguments) and
branch facts gathered from guards (``if (hi > lo)`` refines
``hi − lo ≥ 1`` inside the branch).

Every access must decompose as ``base + row·stride + col`` against the
array's declared stride symbol with ``0 ≤ row < rows`` and
``0 ≤ col < cols`` — the *strong* per-row contract (a 1-D array
declares ``len`` instead, and its subscript must lie in ``[0, len)``).
This is strictly stronger than what ASan can observe: a subscript that
walks out of its logical row but lands inside the allocation (the
classic strided-view bug) fails the proof here while never touching a
redzone.

**Data-dependent subscripts.** An array may declare the range of its
*values* (``"values": "[0, n)"``). Each read of such an array yields a
fresh symbol that carries the range, and the range is eliminated like a
loop variable's; each write into it must be proven inside the range, so
a declared range is a proof obligation of the kernel, plus a
precondition on the initial contents that the caller discharges.

**Scalars the analysis cannot follow.** Values are tracked per program
point, never widened silently: at the join after an ``if``, a scalar
whose value differs between the two paths gets a fresh value, and
before a loop body every scalar the body assigns gets one (the value it
has at an arbitrary iteration), again after the loop. A fresh value is
a nonnegative symbol only when nonnegativity is proven — on both paths
into a join, or for a loop *counter* (nonnegative at entry and assigned
only by ``++``, ``+=`` or ``=`` of an integer literal); anything else
becomes opaque, since every atom is assumed ``≥ 0``.

Nothing here proves that the iterations of a parallel loop write
disjoint regions, so a ``#pragma omp parallel`` loop is itself a
finding: a kernel cannot pass the static pass with a thread split no
proof covers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.verifykernel import cparse
from repro.verifykernel.cparse import (
    Assign,
    Bin,
    Block,
    Break,
    Call,
    Cast,
    Continue,
    CParseError,
    Decl,
    For,
    FuncDef,
    If,
    Index,
    Num,
    Return,
    Ternary,
    Unary,
    Var,
)

__all__ = [
    "Access",
    "Finding",
    "KernelAnalysis",
    "LoopFrame",
    "Poly",
    "analyze_kernel",
    "check_kernel_bounds",
    "eliminate",
    "prove_ge0",
    "prove_le",
]

_uid_counter = itertools.count(1)


# ---------------------------------------------------------------------------
# Atoms and canonical polynomials
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Sym:
    """A nonnegative kernel parameter."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LoopSym:
    """One loop instance's induction variable (unique per loop entry)."""

    name: str
    uid: int

    def __repr__(self) -> str:
        return f"{self.name}#{self.uid}"


@dataclass(frozen=True)
class FreshSym:
    """A nonnegative value the analysis knows nothing else about."""

    name: str
    uid: int

    def __repr__(self) -> str:
        return f"{self.name}~{self.uid}"


@dataclass(frozen=True)
class ValSym:
    """One read of an array whose values lie in the declared ``[lo, hi]``."""

    array: str
    uid: int
    lo: "Poly"
    hi: "Poly"  # inclusive

    def __repr__(self) -> str:
        return f"{self.array}@{self.uid}"


@dataclass(frozen=True)
class MinAtom:
    args: tuple["Poly", ...]

    def __repr__(self) -> str:
        return f"min({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class MaxAtom:
    args: tuple["Poly", ...]

    def __repr__(self) -> str:
        return f"max({', '.join(map(repr, self.args))})"


Atom = Sym | LoopSym | FreshSym | ValSym | MinAtom | MaxAtom

#: a monomial: sorted ((atom, exponent), ...)
Mono = tuple[tuple[Atom, int], ...]


@dataclass(frozen=True)
class Poly:
    """Canonical sum of integer-coefficient monomials over atoms."""

    terms: tuple[tuple[Mono, int], ...]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = "*".join(
                repr(a) if e == 1 else f"{a!r}^{e}" for a, e in mono
            )
            parts.append(f"{coeff}*{factors}" if factors else str(coeff))
        return " + ".join(parts)

    def __add__(self, other: "Poly | int") -> "Poly":
        other = _as_poly(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms:
            merged[mono] = merged.get(mono, 0) + coeff
        return _from_dict(merged)

    def __sub__(self, other: "Poly | int") -> "Poly":
        return self + _as_poly(other) * -1

    def __mul__(self, other: "Poly | int") -> "Poly":
        other = _as_poly(other)
        out: dict[Mono, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                exps: dict[Atom, int] = {}
                for a, e in m1 + m2:
                    exps[a] = exps.get(a, 0) + e
                mono = tuple(sorted(exps.items(), key=lambda kv: repr(kv[0])))
                out[mono] = out.get(mono, 0) + c1 * c2
        return _from_dict(out)

    @property
    def const_value(self) -> int | None:
        """The integer value when constant, else ``None``."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return self.terms[0][1]
        return None

    def atoms(self) -> set[Atom]:
        return {a for mono, _ in self.terms for a, _ in mono}

    def contains(self, sym: Atom) -> bool:
        def in_atom(a: Atom) -> bool:
            if a == sym:
                return True
            if isinstance(a, (MinAtom, MaxAtom)):
                return any(arg.contains(sym) for arg in a.args)
            return False

        return any(in_atom(a) for mono, _ in self.terms for a, _ in mono)


def _from_dict(terms: dict[Mono, int]) -> Poly:
    items = tuple(
        sorted(
            ((m, c) for m, c in terms.items() if c != 0),
            key=lambda mc: repr(mc[0]),
        )
    )
    return Poly(items)


def _as_poly(value: "Poly | int") -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly((((), value),)) if value else Poly(())


def P(value: int) -> Poly:
    return _as_poly(value)


def _atom_poly(atom: Atom) -> Poly:
    return Poly(((((atom, 1),), 1),))


def make_min(a: Poly, b: Poly) -> Poly:
    if a == b:
        return a
    args = tuple(sorted((a, b), key=repr))
    return _atom_poly(MinAtom(args))


def make_max(a: Poly, b: Poly) -> Poly:
    if a == b:
        return a
    args = tuple(sorted((a, b), key=repr))
    return _atom_poly(MaxAtom(args))


# ---------------------------------------------------------------------------
# The prover
# ---------------------------------------------------------------------------
def _substitute_atom(p: Poly, target: Atom, value: Poly) -> Poly:
    """Replace every occurrence of ``target`` (also nested) with ``value``."""
    out = P(0)
    for mono, coeff in p.terms:
        term = P(coeff)
        for a, e in mono:
            if a == target:
                base: Poly = value
            elif isinstance(a, MinAtom):
                base = _remake_min(
                    tuple(_substitute_atom(arg, target, value) for arg in a.args)
                )
            elif isinstance(a, MaxAtom):
                base = _remake_max(
                    tuple(_substitute_atom(arg, target, value) for arg in a.args)
                )
            else:
                base = _atom_poly(a)
            for _ in range(e):
                term = term * base
        out = out + term
    return out


def _remake_min(args: tuple[Poly, ...]) -> Poly:
    if len(set(args)) == 1:
        return args[0]
    return _atom_poly(MinAtom(tuple(sorted(set(args), key=repr))))


def _remake_max(args: tuple[Poly, ...]) -> Poly:
    if len(set(args)) == 1:
        return args[0]
    return _atom_poly(MaxAtom(tuple(sorted(set(args), key=repr))))


def _linear_decompose(p: Poly, atom: Atom) -> tuple[Poly, Poly] | None:
    """``p == q*atom + rest`` with ``atom`` absent from q and rest, or None."""
    q_terms: dict[Mono, int] = {}
    rest_terms: dict[Mono, int] = {}
    for mono, coeff in p.terms:
        exps = dict(mono)
        e = exps.pop(atom, 0)
        reduced = tuple(sorted(exps.items(), key=lambda kv: repr(kv[0])))
        if e == 0:
            if any(
                isinstance(a, (MinAtom, MaxAtom))
                and _atom_poly(a).contains(atom)
                for a, _ in mono
            ):
                return None  # atom nested inside another atom — not linear
            rest_terms[mono] = rest_terms.get(mono, 0) + coeff
        elif e == 1:
            if any(_atom_poly(a).contains(atom) for a, _ in reduced):
                return None
            q_terms[reduced] = q_terms.get(reduced, 0) + coeff
        else:
            return None
    return _from_dict(q_terms), _from_dict(rest_terms)


def prove_ge0(p: Poly, facts: tuple[Poly, ...] = (), depth: int = 6) -> bool:
    """Soundly prove ``p >= 0`` for all nonnegative atom values.

    ``facts`` are polynomials known nonnegative on this path (from branch
    guards). Incomplete by design: ``False`` means "not proven", and the
    caller reports a finding — never "proven unsafe".
    """
    if depth <= 0:
        return False
    # fast path: every coefficient nonnegative over nonnegative atoms
    if all(coeff >= 0 for _, coeff in p.terms):
        return True
    if p.const_value is not None:
        return p.const_value >= 0
    # case split on a Min/Max atom: pointwise the atom equals one of its
    # arguments, so substituting each argument everywhere and proving all
    # (conjunction) is always sound; when the atom's coefficients all
    # pull one way a single branch suffices (disjunction)
    for atom in sorted(p.atoms(), key=repr):
        if isinstance(atom, (MinAtom, MaxAtom)):
            coeffs = [
                coeff for mono, coeff in p.terms if atom in dict(mono)
            ]
            branches = [
                prove_ge0(_substitute_atom(p, atom, arg), facts, depth - 1)
                for arg in atom.args
            ]
            all_neg = all(c < 0 for c in coeffs)
            all_pos = all(c > 0 for c in coeffs)
            if isinstance(atom, MinAtom) and all_neg and any(branches):
                return True  # -Min >= -arg for every arg
            if isinstance(atom, MaxAtom) and all_pos and any(branches):
                return True  # +Max >= +arg for every arg
            if all(branches):
                return True  # pointwise split
    # spend a branch fact: p >= fact + (p - fact), fact >= 0
    for fact in facts:
        if prove_ge0(p - fact, facts, depth - 1):
            return True
    return False


def prove_le(a: Poly, b: Poly, facts: tuple[Poly, ...] = ()) -> bool:
    return prove_ge0(b - a, facts)


# ---------------------------------------------------------------------------
# Monotone endpoint elimination of loop variables
# ---------------------------------------------------------------------------
def _bound_atom(a: Atom, sym: LoopSym, lo: Poly, hi: Poly, upper: bool) -> Poly | None:
    """Rebuild one atom with ``sym`` eliminated toward the wanted bound."""
    if isinstance(a, MinAtom) or isinstance(a, MaxAtom):
        new_args = []
        for arg in a.args:
            sub = bound_subst(arg, sym, lo, hi, upper)  # Min/Max nondecreasing
            if sub is None:
                return None
            new_args.append(sub)
        return (
            _remake_min(tuple(new_args))
            if isinstance(a, MinAtom)
            else _remake_max(tuple(new_args))
        )
    return _atom_poly(a)


def bound_subst(
    p: Poly, sym: LoopSym, lo: Poly | None, hi: Poly | None, upper: bool
) -> Poly | None:
    """An upper (or lower) bound of ``p`` over ``sym ∈ [lo, hi]``.

    Sound because every expression the kernels build is affine in each
    loop variable, with variables nested only inside monotone atoms; a
    shape outside that (``sym`` squared, or multiplied into an atom that
    also contains it) returns ``None`` and becomes a finding.
    """
    out = P(0)
    for mono, coeff in p.terms:
        direct = dict(mono).get(sym, 0)
        nested = [
            a
            for a, _ in mono
            if isinstance(a, (MinAtom, MaxAtom)) and _atom_poly(a).contains(sym)
        ]
        if direct > 1 or (direct and nested):
            return None
        term = P(coeff)
        for a, e in mono:
            if a == sym:
                endpoint = hi if (upper == (coeff > 0)) else lo
                if endpoint is None:
                    return None
                base: Poly = endpoint
            elif a in nested:
                rebuilt = _bound_atom(a, sym, lo or P(0), hi or P(0), upper == (coeff > 0))
                if rebuilt is None or (
                    (hi is None or lo is None) and _atom_poly(a).contains(sym)
                ):
                    return None
                base = rebuilt
            else:
                base = _atom_poly(a)
            for _ in range(e):
                term = term * base
        out = out + term
    return out


@dataclass(frozen=True)
class LoopFrame:
    atom: LoopSym
    lo: Poly | None
    hi: Poly | None  # inclusive


def _value_atoms(p: Poly) -> list[ValSym]:
    """Every array-value symbol in ``p``, also inside ``Min``/``Max``."""
    found: dict[ValSym, None] = {}
    for a in p.atoms():
        if isinstance(a, ValSym):
            found[a] = None
        elif isinstance(a, (MinAtom, MaxAtom)):
            for arg in a.args:
                found.update(dict.fromkeys(_value_atoms(arg)))
    return list(found)


def eliminate(
    p: Poly, frames: tuple[LoopFrame, ...], upper: bool
) -> Poly | None:
    """Eliminate loop variables innermost-first, then array values, toward a bound.

    A loop bound may hold an array value (``e < indptr[v + 1]``), and a
    value range holds only parameters, so this order leaves neither.
    """
    out: Poly | None = p
    for frame in reversed(frames):
        if out is None:
            return None
        if not out.contains(frame.atom):
            continue
        out = bound_subst(out, frame.atom, frame.lo, frame.hi, upper)
    if out is None:
        return None
    for atom in _value_atoms(out):
        out = bound_subst(out, atom, atom.lo, atom.hi, upper)
        if out is None:
            return None
    return out


# ---------------------------------------------------------------------------
# Abstract interpretation of a kernel body
# ---------------------------------------------------------------------------
class _Opaque:
    def __repr__(self) -> str:
        return "<opaque>"


OPAQUE = _Opaque()


@dataclass(frozen=True)
class PtrVal:
    root: str
    offset: Poly


@dataclass(frozen=True)
class RangeVal:
    lo: Poly | None
    hi: Poly | None


Value = Poly | PtrVal | RangeVal | _Opaque


@dataclass(frozen=True)
class Access:
    array: str
    offset: Poly
    write: bool
    line: int
    frames: tuple[LoopFrame, ...]
    facts: tuple[Poly, ...]
    #: the value a write stores (``None`` for a read)
    value: "Value | None" = None


@dataclass(frozen=True)
class Finding:
    check: str
    kernel: str
    line: int
    message: str

    def describe(self) -> str:
        return f"{self.kernel}:{self.line}: [{self.check}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "kernel": self.kernel,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class KernelAnalysis:
    """Everything the interpreter learned about one kernel body."""

    name: str
    fn: FuncDef
    accesses: list[Access] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)


#: marks a name a block's declaration shadowed while it was unbound
_UNBOUND = object()


def _assigned_scalars(block: Block) -> dict[str, bool]:
    """Each scalar assigned anywhere in ``block`` (loop steps included),
    mapped to whether every assignment to it is a counter step — ``x++``,
    ``x += <literal>`` or ``x = <literal>`` — which keeps ``x >= 0``."""
    out: dict[str, bool] = {}

    def walk(stmt: cparse.Stmt | None) -> None:
        if isinstance(stmt, Assign) and isinstance(stmt.target, Var):
            step = stmt.op == "++" or (stmt.op in ("+=", "=") and isinstance(stmt.value, Num))
            out[stmt.target.name] = out.get(stmt.target.name, True) and step
        elif isinstance(stmt, Block):
            for inner in stmt.stmts:
                walk(inner)
        elif isinstance(stmt, If):
            walk(stmt.then)
            walk(stmt.other)
        elif isinstance(stmt, For):
            walk(stmt.init)
            walk(stmt.step)
            walk(stmt.body)

    walk(block)
    return out


def _exits(block: Block) -> bool:
    """Whether control never falls off the end of ``block``."""
    return bool(block.stmts) and isinstance(block.stmts[-1], (Return, Continue, Break))


def _value_range(text: str) -> tuple[Poly, Poly]:
    """``"[lo, hi)"`` or ``"[lo, hi]"`` as inclusive ``(lo, hi)`` polynomials."""
    text = text.strip()
    if not (text[:1] == "[" and text[-1:] in ")]" and text.count(",") == 1):
        raise CParseError(f"unsupported value range {text!r}")
    lo_text, hi_text = text[1:-1].split(",")
    hi = _extent_poly(hi_text)
    return _extent_poly(lo_text), hi - 1 if text.endswith(")") else hi


class _Interpreter:
    def __init__(self, fn: FuncDef, arrays: dict[str, dict[str, str]] | None = None) -> None:
        self.fn = fn
        self.result = KernelAnalysis(fn.name, fn)
        self.env: dict[str, Value] = {}
        self.int_typed: set[str] = set()
        self.frames: list[LoopFrame] = []
        self.facts: list[Poly] = []
        #: per open block, the bindings its declarations shadowed
        self.scopes: list[dict[str, object]] = []
        #: declared value range of each array parameter that has one
        self.ranges: dict[str, tuple[Poly, Poly]] = {}
        #: set while a condition is re-evaluated only for its facts
        self.quiet = False
        for name, spec in (arrays or {}).items():
            if "values" in spec:
                self.ranges[name] = _value_range(spec["values"])
        for p in fn.params:
            if p.pointer:
                self.env[p.name] = PtrVal(p.name, P(0))
            elif p.ctype in cparse.INT_TYPES:
                self.env[p.name] = _atom_poly(Sym(p.name))
                self.int_typed.add(p.name)
            else:
                self.env[p.name] = OPAQUE
        for name, (lo, _hi) in self.ranges.items():
            if not prove_ge0(lo):
                # every atom is assumed nonnegative, a read value included
                self.flag("contract", fn.line, f"value range of {name!r} may be negative")

    # -- bookkeeping -------------------------------------------------------
    def flag(self, check: str, line: int, message: str) -> None:
        if not self.quiet:
            self.result.findings.append(Finding(check, self.fn.name, line, message))

    def record_access(
        self, base: Value, index: Value, write: bool, line: int, value: "Value | None" = None
    ) -> None:
        if self.quiet:
            return
        if not isinstance(base, PtrVal):
            self.flag("bounds", line, "subscript on an unresolvable pointer")
            return
        if not isinstance(index, Poly):
            self.flag("bounds", line, "subscript index is not affine in loop variables")
            return
        self.result.accesses.append(
            Access(
                base.root,
                base.offset + index,
                write,
                line,
                tuple(self.frames),
                tuple(self.facts),
                value,
            )
        )

    def fresh(self, name: str, nonneg: bool) -> Value:
        """A new value for ``name``: a nonnegative symbol, or opaque."""
        return _atom_poly(FreshSym(name, next(_uid_counter))) if nonneg else OPAQUE

    def nonneg(self, value: Value, facts: list[Poly]) -> bool:
        if isinstance(value, Poly):
            return prove_ge0(value, tuple(facts))
        if isinstance(value, RangeVal):
            return value.lo is not None and prove_ge0(value.lo, tuple(facts))
        return False

    # -- expression evaluation --------------------------------------------
    def eval(self, e: cparse.Expr) -> Value:
        if isinstance(e, Num):
            return P(e.value)
        if isinstance(e, Var):
            if e.name in self.env:
                return self.env[e.name]
            if e.name == "INT32_MAX":
                return P(2**31 - 1)
            self.flag("parse", e.line, f"unknown identifier {e.name!r}")
            return OPAQUE
        if isinstance(e, Cast):
            val = self.eval(e.expr)
            return val if e.ctype in cparse.INT_TYPES and isinstance(val, Poly) else (
                val if isinstance(val, Poly) else OPAQUE
            )
        if isinstance(e, Unary):
            val = self.eval(e.expr)
            if e.op == "-" and isinstance(val, Poly):
                return val * -1
            return OPAQUE
        if isinstance(e, Bin):
            return self._eval_bin(e)
        if isinstance(e, Ternary):
            return self._eval_ternary(e)
        if isinstance(e, Index):
            base = self.eval(e.base)
            index = self.eval(e.index)
            self.record_access(base, index, write=False, line=e.line)
            if isinstance(base, PtrVal) and base.root in self.ranges:
                lo, hi = self.ranges[base.root]
                return _atom_poly(ValSym(base.root, next(_uid_counter), lo, hi))
            return OPAQUE
        if isinstance(e, Call):
            for arg in e.args:
                self.eval(arg)
            return OPAQUE
        raise CParseError(f"unhandled expression node {e!r}")

    def _eval_bin(self, e: Bin) -> Value:
        left = self.eval(e.left)
        right = self.eval(e.right)
        if e.op == "+":
            if isinstance(left, PtrVal) and isinstance(right, Poly):
                return PtrVal(left.root, left.offset + right)
            if isinstance(right, PtrVal) and isinstance(left, Poly):
                return PtrVal(right.root, right.offset + left)
            if isinstance(left, Poly) and isinstance(right, Poly):
                return left + right
        elif e.op == "-":
            if isinstance(left, PtrVal) and isinstance(right, Poly):
                return PtrVal(left.root, left.offset - right)
            if isinstance(left, Poly) and isinstance(right, Poly):
                return left - right
        elif e.op == "*":
            if isinstance(left, Poly) and isinstance(right, Poly):
                return left * right
        return OPAQUE

    def _eval_ternary(self, e: Ternary) -> Value:
        then = self.eval(e.then)
        other = self.eval(e.other)
        if (
            isinstance(e.cond, Bin)
            and e.cond.op in ("<", "<=", ">", ">=")
            and isinstance(then, Poly)
            and isinstance(other, Poly)
        ):
            lhs = self.eval(e.cond.left)
            rhs = self.eval(e.cond.right)
            if isinstance(lhs, Poly) and isinstance(rhs, Poly):
                smaller_first = e.cond.op in ("<", "<=")
                if then == lhs and other == rhs:
                    return make_min(lhs, rhs) if smaller_first else make_max(lhs, rhs)
                if then == rhs and other == lhs:
                    return make_max(lhs, rhs) if smaller_first else make_min(lhs, rhs)
        else:
            self.eval(e.cond)
        return OPAQUE

    # -- branch facts ------------------------------------------------------
    def _cond_facts(self, cond: cparse.Expr, negate: bool) -> list[Poly]:
        """``>= 0`` facts implied by ``cond`` being true (or false)."""
        if isinstance(cond, Unary) and cond.op == "!":
            return self._cond_facts(cond.expr, not negate)
        if isinstance(cond, Bin) and cond.op == "&&":
            if not negate:
                return self._cond_facts(cond.left, False) + self._cond_facts(
                    cond.right, False
                )
            return []  # ¬(a && b) is a disjunction — no single fact
        if isinstance(cond, Bin) and cond.op == "||":
            if negate:
                return self._cond_facts(cond.left, True) + self._cond_facts(
                    cond.right, True
                )
            return []
        if isinstance(cond, Bin) and cond.op in ("<", "<=", ">", ">=", "==", "!="):
            left = self.eval(cond.left)
            right = self.eval(cond.right)
            if not (isinstance(left, Poly) and isinstance(right, Poly)):
                return []
            op = cond.op
            if negate:
                op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}[op]
            if op == "<":
                return [right - left - 1]
            if op == "<=":
                return [right - left]
            if op == ">":
                return [left - right - 1]
            if op == ">=":
                return [left - right]
            if op == "==":
                return [left - right, right - left]
            return []  # != carries no one-sided fact
        if isinstance(cond, Var):
            val = self.eval(cond)
            if isinstance(val, Poly):
                # truthy nonnegative integer means >= 1; falsy means == 0
                return [val - 1] if not negate else [val * -1, val]
            return []
        return []

    def _usable_facts(self, facts: list[Poly]) -> list[Poly]:
        """Keep only loop-variable-free facts (valid at any program point)."""
        live = {f.atom for f in self.frames}
        out = []
        for f in facts:
            if not any(f.contains(a) for a in live) and not any(
                isinstance(a, LoopSym) for a in f.atoms()
            ):
                out.append(f)
        return out

    # -- statements --------------------------------------------------------
    def run(self) -> KernelAnalysis:
        try:
            self.exec_block(self.fn.body)
        except CParseError as exc:
            self.flag("parse", 0, str(exc))
        return self.result

    def exec_block(self, block: Block) -> None:
        self.scopes.append({})
        for stmt in block.stmts:
            self.exec_stmt(stmt)
        self._close_scope()

    def _close_scope(self) -> None:
        """Leave a block: its declarations go out of scope."""
        for name, old in self.scopes.pop().items():
            if old is _UNBOUND:
                self.env.pop(name, None)
            else:
                self.env[name] = old  # type: ignore[assignment]

    def exec_stmt(self, stmt: cparse.Stmt) -> None:
        if isinstance(stmt, Decl):
            self.exec_decl(stmt)
        elif isinstance(stmt, Assign):
            self.exec_assign(stmt)
        elif isinstance(stmt, If):
            self.exec_if(stmt)
        elif isinstance(stmt, For):
            self.exec_for(stmt)
        elif isinstance(stmt, (Return, Continue, Break)):
            pass
        elif isinstance(stmt, Block):
            self.exec_block(stmt)
        else:
            raise CParseError(f"unhandled statement {stmt!r}")

    def exec_decl(self, stmt: Decl) -> None:
        numeric = stmt.ctype in cparse.INT_TYPES
        for item in stmt.items:
            value: Value = RangeVal(None, None)
            if item.init is not None:
                value = self.eval(item.init)
            if self.scopes and item.name not in self.scopes[-1]:
                self.scopes[-1][item.name] = self.env.get(item.name, _UNBOUND)
            if item.pointer:
                self.env[item.name] = value if isinstance(value, PtrVal) else OPAQUE
            elif numeric:
                self.env[item.name] = value if isinstance(value, Poly) else (
                    value if isinstance(value, RangeVal) else OPAQUE
                )
                self.int_typed.add(item.name)
            else:
                self.env[item.name] = OPAQUE

    def exec_assign(self, stmt: Assign) -> None:
        if isinstance(stmt.target, Index):
            base = self.eval(stmt.target.base)
            index = self.eval(stmt.target.index)
            value: Value = OPAQUE
            if stmt.value is not None:
                value = self.eval(stmt.value)
            if stmt.op != "=":
                self.record_access(base, index, write=False, line=stmt.line)
                value = OPAQUE  # a compound update's result is not tracked
            self.record_access(base, index, write=True, line=stmt.line, value=value)
            return
        assert isinstance(stmt.target, Var)
        name = stmt.target.name
        if stmt.op == "=":
            value = self.eval(stmt.value) if stmt.value is not None else OPAQUE
            if name in self.int_typed and not isinstance(value, (Poly, RangeVal)):
                value = OPAQUE
            self.env[name] = value
        elif stmt.op in ("+=", "-=", "++", "--"):
            cur = self.env.get(name, OPAQUE)
            delta: Value = P(1) if stmt.op in ("++", "--") else (
                self.eval(stmt.value) if stmt.value is not None else OPAQUE
            )
            if isinstance(cur, Poly) and isinstance(delta, Poly):
                sign = 1 if stmt.op in ("+=", "++") else -1
                self.env[name] = cur + delta * sign
            else:
                self.env[name] = OPAQUE
        else:
            self.env[name] = OPAQUE

    def exec_if(self, stmt: If) -> None:
        self.eval(stmt.cond)  # the condition's own array reads, recorded once
        self.quiet = True
        then_facts = self._usable_facts(self._cond_facts(stmt.cond, negate=False))
        else_facts = self._usable_facts(self._cond_facts(stmt.cond, negate=True))
        self.quiet = False
        entry_env = dict(self.env)
        entry_facts = list(self.facts)
        self.facts = entry_facts + then_facts
        self.exec_block(stmt.then)
        then_env, then_end = self.env, self.facts
        self.env = dict(entry_env)
        self.facts = entry_facts + else_facts
        if stmt.other is not None:
            self.exec_block(stmt.other)
        else_env, else_end = self.env, self.facts
        then_exits = _exits(stmt.then)
        else_exits = stmt.other is not None and _exits(stmt.other)
        self.facts = list(entry_facts)
        if then_exits and else_exits:
            self.env = entry_env  # nothing after the if is reached
        elif then_exits:
            self.env = else_env
            self.facts.extend(else_facts)
        elif else_exits:
            self.env = then_env
            self.facts.extend(then_facts)
        else:
            # join: a scalar the paths disagree on gets a fresh value
            self.env = {}
            for name, value in then_env.items():
                other = else_env.get(name, OPAQUE)
                if value == other:
                    self.env[name] = value
                else:
                    nonneg = self.nonneg(value, then_end) and self.nonneg(other, else_end)
                    self.env[name] = self.fresh(name, nonneg)

    def _havoc(self, names: set[str], nonneg: set[str]) -> None:
        """Give each bound name in ``names`` a fresh value, nonnegative if in ``nonneg``."""
        for name in sorted(names):
            if name in self.env:
                self.env[name] = self.fresh(name, name in nonneg)

    def exec_for(self, stmt: For) -> None:
        self.scopes.append({})  # the init's declaration is the loop's own
        if stmt.init is not None:
            self.exec_stmt(stmt.init)
        if stmt.step is None or not isinstance(stmt.step.target, Var):
            self.flag("parse", stmt.line, "for loop without a recognizable step")
            self._close_scope()
            return
        var = stmt.step.target.name
        if stmt.step.op not in ("+=", "++"):
            self.flag("parse", stmt.line, f"unsupported loop step {stmt.step.op!r}")
            self._close_scope()
            return
        entry = self.env.get(var, OPAQUE)
        lo: Poly | None
        if isinstance(entry, Poly):
            lo = entry
        elif isinstance(entry, RangeVal):
            lo = entry.lo
        else:
            lo = None
        steps = _assigned_scalars(stmt.body)
        if var in steps:
            self.flag("bounds", stmt.line, f"loop variable {var!r} is assigned in the loop body")
        # every scalar the body assigns holds, at the guard, the value of
        # an arbitrary iteration; a counter nonnegative at entry stays so
        assigned = set(steps) - {var}
        counters = {
            name for name in assigned
            if steps[name] and name in self.env and self.nonneg(self.env[name], self.facts)
        }
        entry_facts = list(self.facts)
        self._havoc(assigned, counters)
        atom = LoopSym(var, next(_uid_counter))
        hi = self._loop_upper(stmt.cond, atom, var) if stmt.cond is not None else None
        if hi is None:
            self.flag(
                "bounds", stmt.line, f"cannot bound loop variable {var!r} from its guard"
            )
        if stmt.step.op == "+=":
            step = self.eval(stmt.step.value) if stmt.step.value is not None else OPAQUE
            if not self.nonneg(step, self.facts):
                self.flag("bounds", stmt.line, f"cannot prove the step of {var!r} nonnegative")
        if stmt.pragma and "parallel" in stmt.pragma:
            self.flag(
                "parallel",
                stmt.line,
                f"parallel loop over {var!r}: no proof that its iterations "
                f"write disjoint regions",
            )
        self.env[var] = _atom_poly(atom)
        self.int_typed.add(var)
        self.frames.append(LoopFrame(atom, lo, hi))
        self.exec_block(stmt.body)
        self.frames.pop()
        # after the loop: facts of the body no longer hold, and the
        # assigned scalars hold whatever the last iteration left
        self.facts = entry_facts
        self._havoc(assigned, counters)
        self.env[var] = RangeVal(lo, None)
        self._close_scope()

    def _loop_upper(self, cond: cparse.Expr, atom: LoopSym, var: str) -> Poly | None:
        """Inclusive upper bound of the loop variable from its guard."""
        if not (isinstance(cond, Bin) and cond.op in ("<", "<=")):
            return None
        saved = self.env.get(var)
        self.env[var] = _atom_poly(atom)
        left = self.eval(cond.left)
        right = self.eval(cond.right)
        if saved is not None:
            self.env[var] = saved
        if not (isinstance(left, Poly) and isinstance(right, Poly)):
            return None
        if right.contains(atom):
            return None
        decomp = _linear_decompose(left, atom)
        if decomp is None:
            return None
        q, rest = decomp
        if q.const_value != 1:
            return None
        # var + rest < right  →  var <= right - rest - 1
        bound = right - rest
        if cond.op == "<":
            bound = bound - 1
        return bound


def analyze_kernel(fn: FuncDef, arrays: dict[str, dict[str, str]] | None = None) -> KernelAnalysis:
    """Interpret one kernel body; returns its accesses and findings.

    ``arrays`` is the kernel's declared contract; only its value ranges
    matter here (reads of a ranged array yield range-carrying symbols).
    """
    return _Interpreter(fn, arrays).run()


# ---------------------------------------------------------------------------
# Bounds checking against declared contracts
# ---------------------------------------------------------------------------
def decompose_offset(offset: Poly, stride: str) -> tuple[Poly, Poly] | None:
    """Split ``offset`` into ``(row, col)`` against a stride symbol."""
    return _linear_decompose(offset, Sym(stride))


def _extent_poly(expr_text: str) -> Poly:
    """Parse a contract extent expression (parameter names and + - *)."""
    tokens = cparse._tokenize(expr_text)
    parser = cparse._Parser(tokens)
    parsed = parser.parse_expr()

    def conv(e: cparse.Expr) -> Poly:
        if isinstance(e, Num):
            return P(e.value)
        if isinstance(e, Var):
            return _atom_poly(Sym(e.name))
        if isinstance(e, Bin):
            left, right = conv(e.left), conv(e.right)
            if e.op == "+":
                return left + right
            if e.op == "-":
                return left - right
            if e.op == "*":
                return left * right
        raise CParseError(f"unsupported contract extent {expr_text!r}")

    return conv(parsed)


def _extent(spec: dict[str, str], offset: Poly) -> tuple[Poly, Poly, Poly, Poly] | None:
    """``(row, col, rows, cols)`` of an access, or ``None`` if it does not decompose."""
    if "stride" not in spec:  # a 1-D array of ``len`` elements
        return P(0), offset, P(1), _extent_poly(spec["len"])
    decomp = decompose_offset(offset, spec["stride"])
    if decomp is None:
        return None
    return decomp[0], decomp[1], _extent_poly(spec["rows"]), _extent_poly(spec["cols"])


def check_access_bounds(
    analysis: KernelAnalysis, arrays: dict[str, dict[str, str]]
) -> list[Finding]:
    """Prove every recorded element access inside its declared extent,
    and every value written into a ranged array inside its range."""
    findings: list[Finding] = []

    def finding(check: str, acc: Access, message: str) -> None:
        findings.append(Finding(check, analysis.name, acc.line, message))

    def prove_within(
        check: str, acc: Access, what: str, expr: Poly, lo: Poly, hi: Poly, hi_text: str
    ) -> None:
        top = eliminate(expr, acc.frames, upper=True)
        bottom = eliminate(expr, acc.frames, upper=False)
        if top is None or bottom is None:
            finding(check, acc, f"{what} has no computable bound")
            return
        if not prove_le(lo, bottom, acc.facts):
            finding(check, acc, f"cannot prove {what} >= {lo!r} (lower bound {bottom!r})")
        if not prove_le(top, hi, acc.facts):
            finding(check, acc, f"cannot prove {what} < {hi_text} (upper bound {top!r})")

    for acc in analysis.accesses:
        spec = arrays.get(acc.array)
        if spec is None:
            finding("contract", acc, f"access to undeclared array {acc.array!r}")
            continue
        if acc.write and spec["mode"] == "r":
            finding("contract", acc, f"write to read-only array {acc.array!r}")
        kind = "write" if acc.write else "read"
        extent = _extent(spec, acc.offset)
        if extent is None:
            finding(
                "bounds", acc,
                f"offset into {acc.array!r} does not decompose as row*{spec['stride']} + col",
            )
        else:
            row, col, rows, cols = extent
            for part, expr, size in (("row", row, rows), ("column", col, cols)):
                prove_within(
                    "bounds", acc, f"{kind} {part} index of {acc.array!r}", expr, P(0),
                    size - 1, expr_text_of(size),
                )
        if acc.write and "values" in spec:
            lo, hi = _value_range(spec["values"])
            if not isinstance(acc.value, Poly):
                finding("values", acc, f"value written into {acc.array!r} is not tracked")
            else:
                prove_within(
                    "values", acc, f"value written into {acc.array!r}", acc.value, lo, hi,
                    expr_text_of(hi + 1),
                )
    return findings


def expr_text_of(p: Poly) -> str:
    return repr(p)


def check_kernel_bounds(
    template, parsed: FuncDef
) -> tuple[KernelAnalysis, list[Finding]]:
    """Full bounds pass for one kernel: every element access."""
    analysis = analyze_kernel(parsed, template.arrays)
    findings = list(analysis.findings)
    findings += check_access_bounds(analysis, template.arrays)
    return analysis, findings

"""Parser for the C subset the JIT kernel templates are written in.

The kernels in :mod:`repro.core.backends.jit` deliberately use a small,
regular C dialect — scalar/pointer declarations, assignments,
``for``/``if``/ternary control flow with ``return``, ``continue`` and
``break``, array subscripts, calls inside expressions (``isinf``,
``floor``) and ``#pragma`` hints on loops; no other preprocessor line.
This module tokenizes and parses exactly that subset into a small AST
that :mod:`repro.verifykernel.bounds` interprets symbolically. Anything
outside the subset is a hard :class:`CParseError` — a kernel the
verifier cannot read is a kernel the verifier cannot prove, so parse
failures surface as findings rather than silent skips.

The grammar is C-faithful where it matters for index math: operator
precedence (ternary < logical < comparison < additive < multiplicative <
unary < postfix), left-associativity of ``*``/``/``, and declaration
initialisers referring to earlier declarators in the same statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "Assign",
    "Bin",
    "Block",
    "Break",
    "Call",
    "CParseError",
    "Cast",
    "Continue",
    "Decl",
    "For",
    "FuncDef",
    "If",
    "Index",
    "Num",
    "Param",
    "Pragma",
    "Return",
    "Ternary",
    "Unary",
    "Var",
    "parse_kernel",
    "preprocess",
]


class CParseError(ValueError):
    """The source stepped outside the supported C subset."""


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Num:
    value: int
    line: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    line: int = 0


@dataclass(frozen=True)
class Cast:
    ctype: str
    expr: "Expr"
    line: int = 0


@dataclass(frozen=True)
class Unary:
    op: str
    expr: "Expr"
    line: int = 0


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"
    line: int = 0


@dataclass(frozen=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    other: "Expr"
    line: int = 0


@dataclass(frozen=True)
class Index:
    base: "Expr"
    index: "Expr"
    line: int = 0


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]
    line: int = 0


Expr = Num | Var | Cast | Unary | Bin | Ternary | Index | Call


@dataclass(frozen=True)
class Declarator:
    name: str
    pointer: bool
    init: Expr | None


@dataclass(frozen=True)
class Decl:
    ctype: str
    const: bool
    items: tuple[Declarator, ...]
    line: int = 0


@dataclass(frozen=True)
class Assign:
    target: Expr  # Var or Index
    op: str  # "=", "+=", "-=", "++", "--"
    value: Expr | None
    line: int = 0


@dataclass(frozen=True)
class If:
    cond: Expr
    then: "Block"
    other: "Block | None"
    line: int = 0


@dataclass(frozen=True)
class For:
    init: "Decl | Assign | None"
    cond: Expr | None
    step: Assign | None
    body: "Block"
    pragma: str | None = None
    line: int = 0


@dataclass(frozen=True)
class Return:
    value: Expr | None
    line: int = 0


@dataclass(frozen=True)
class Continue:
    line: int = 0


@dataclass(frozen=True)
class Break:
    line: int = 0


@dataclass(frozen=True)
class Pragma:
    text: str
    line: int = 0


@dataclass(frozen=True)
class Block:
    stmts: tuple["Stmt", ...]


Stmt = Decl | Assign | If | For | Return | Continue | Break | Block


@dataclass(frozen=True)
class Param:
    ctype: str
    name: str
    pointer: bool
    const: bool


@dataclass(frozen=True)
class FuncDef:
    name: str
    params: tuple[Param, ...]
    body: Block
    line: int = 0


# ---------------------------------------------------------------------------
# Preprocessing: strip comments, refuse every directive but #pragma
# ---------------------------------------------------------------------------
def preprocess(source: str) -> str:
    """Drop comments; raise on any preprocessor line other than ``#pragma``.

    Line structure is preserved (comments become blanks) so AST line
    numbers match the template source.
    """
    source = re.sub(
        r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)), source, flags=re.S
    )
    source = re.sub(r"//[^\n]*", "", source)
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("#") and not stripped.startswith("#pragma"):
            raise CParseError(f"unsupported preprocessor line: {stripped!r}")
    return source


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    (?P<pragma>\#pragma[^\n]*)
  | (?P<num>0[xX][0-9a-fA-F]+|\d+(\.\d+)?([fF])?)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op><=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|[-+*/%<>=!?:;,.(){}\[\]&])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.X,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "pragma" | "num" | "name" | "op"
    text: str
    line: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup or ""
        text = m.group(0)
        if kind == "ws":
            line += text.count("\n")
            continue
        if kind == "bad":
            raise CParseError(f"line {line}: unexpected character {text!r}")
        tokens.append(Token(kind if kind != "pragma" else "pragma", text, line))
    return tokens


_TYPE_NAMES = {"i64", "int32_t", "int", "float", "double", "long", "void"}
#: scalar C types whose values participate in index arithmetic
INT_TYPES = {"i64", "int32_t", "int", "long"}


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------
class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise CParseError("unexpected end of source")
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise CParseError(f"line {tok.line}: expected {text!r}, got {tok.text!r}")
        return tok

    def at(self, text: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok is not None and tok.text == text

    def _at_type(self) -> bool:
        tok = self.peek()
        if tok is None or tok.kind != "name":
            return False
        if tok.text == "const":
            nxt = self.peek(1)
            return nxt is not None and nxt.text in _TYPE_NAMES
        return tok.text in _TYPE_NAMES

    # -- function definition ----------------------------------------------
    def parse_function(self) -> FuncDef:
        line = self.next().line  # return type (void)
        name = self.next().text
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                const = False
                if self.at("const"):
                    const = True
                    self.next()
                ctype = self.next().text
                if ctype not in _TYPE_NAMES:
                    raise CParseError(f"unsupported parameter type {ctype!r}")
                pointer = False
                if self.at("*"):
                    pointer = True
                    self.next()
                pname = self.next().text
                params.append(Param(ctype, pname, pointer, const))
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        body = self.parse_block()
        return FuncDef(name, tuple(params), body, line)

    # -- statements --------------------------------------------------------
    def parse_block(self) -> Block:
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return Block(tuple(stmts))

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok is None:
            raise CParseError("unexpected end of source in statement")
        if tok.kind == "pragma":
            self.next()
            nxt = self.peek()
            if nxt is not None and nxt.text == "for":
                loop = self.parse_stmt()
                assert isinstance(loop, For)
                return For(
                    loop.init, loop.cond, loop.step, loop.body, tok.text, loop.line
                )
            # pragma not attached to a loop (e.g. before a block): keep as
            # a marker only when followed by '{'
            raise CParseError(
                f"line {tok.line}: #pragma must precede a for loop in this subset"
            )
        if tok.text == "{":
            return self.parse_block()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "return":
            self.next()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return Return(value, tok.line)
        if tok.text == "continue":
            self.next()
            self.expect(";")
            return Continue(tok.line)
        if tok.text == "break":
            self.next()
            self.expect(";")
            return Break(tok.line)
        if self._at_type():
            decl = self.parse_decl()
            self.expect(";")
            return decl
        stmt = self.parse_simple()
        self.expect(";")
        return stmt

    def parse_decl(self) -> Decl:
        tok = self.peek()
        assert tok is not None
        const = False
        if self.at("const"):
            const = True
            self.next()
        ctype = self.next().text
        items: list[Declarator] = []
        while True:
            pointer = False
            if self.at("*"):
                pointer = True
                self.next()
            name = self.next().text
            init = None
            if self.at("="):
                self.next()
                init = self.parse_expr()
            items.append(Declarator(name, pointer, init))
            if self.at(","):
                self.next()
                continue
            break
        return Decl(ctype, const, tuple(items), tok.line)

    def parse_simple(self) -> Assign:
        """Assignment, compound assignment or ``x++``."""
        expr = self.parse_unary_postfix()
        tok = self.peek()
        if tok is not None and tok.text in ("=", "+=", "-=", "*=", "/="):
            if not isinstance(expr, (Var, Index)):
                raise CParseError(f"line {tok.line}: unsupported assignment target")
            self.next()
            value = self.parse_expr()
            return Assign(expr, tok.text, value, tok.line)
        if tok is not None and tok.text in ("++", "--"):
            if not isinstance(expr, Var):
                raise CParseError(f"line {tok.line}: unsupported {tok.text} target")
            self.next()
            return Assign(expr, tok.text, None, tok.line)
        raise CParseError(
            f"line {tok.line if tok else 0}: expression statement is not an assignment"
        )

    def parse_if(self) -> If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self._stmt_as_block()
        other = None
        if self.at("else"):
            self.next()
            other = self._stmt_as_block()
        return If(cond, then, other, tok.line)

    def parse_for(self) -> For:
        tok = self.expect("for")
        self.expect("(")
        init: Decl | Assign | None = None
        if not self.at(";"):
            init = self.parse_decl() if self._at_type() else self.parse_simple()
        self.expect(";")
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        step = None if self.at(")") else self.parse_simple()
        self.expect(")")
        body = self._stmt_as_block()
        return For(init, cond, step, body, None, tok.line)

    def _stmt_as_block(self) -> Block:
        stmt = self.parse_stmt()
        return stmt if isinstance(stmt, Block) else Block((stmt,))

    # -- expressions (precedence climbing) ---------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> Expr:
        cond = self.parse_logic_or()
        if self.at("?"):
            line = self.next().line
            then = self.parse_expr()
            self.expect(":")
            other = self.parse_ternary()
            return Ternary(cond, then, other, line)
        return cond

    def _binop_level(self, ops: tuple[str, ...], sub) -> Expr:
        left = sub()
        while True:
            tok = self.peek()
            if tok is None or tok.text not in ops:
                return left
            self.next()
            left = Bin(tok.text, left, sub(), tok.line)

    def parse_logic_or(self) -> Expr:
        return self._binop_level(("||",), self.parse_logic_and)

    def parse_logic_and(self) -> Expr:
        return self._binop_level(("&&",), self.parse_equality)

    def parse_equality(self) -> Expr:
        return self._binop_level(("==", "!="), self.parse_relational)

    def parse_relational(self) -> Expr:
        return self._binop_level(("<", ">", "<=", ">="), self.parse_additive)

    def parse_additive(self) -> Expr:
        return self._binop_level(("+", "-"), self.parse_multiplicative)

    def parse_multiplicative(self) -> Expr:
        return self._binop_level(("*", "/", "%"), self.parse_unary_postfix)

    def parse_unary_postfix(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise CParseError("unexpected end of source in expression")
        if tok.text in ("!", "-"):
            self.next()
            return Unary(tok.text, self.parse_unary_postfix(), tok.line)
        if tok.text == "(":
            nxt = self.peek(1)
            after = self.peek(2)
            if (
                nxt is not None
                and nxt.text in _TYPE_NAMES
                and after is not None
                and after.text == ")"
            ):
                self.next()
                ctype = self.next().text
                self.expect(")")
                return Cast(ctype, self.parse_unary_postfix(), tok.line)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            if self.at("["):
                line = self.next().line
                index = self.parse_expr()
                self.expect("]")
                expr = Index(expr, index, line)
            elif self.at("(") and isinstance(expr, Var):
                line = self.next().line
                args: list[Expr] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if self.at(","):
                            self.next()
                            continue
                        break
                self.expect(")")
                expr = Call(expr.name, tuple(args), line)
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            text = tok.text.rstrip("fF")
            if "." in text:
                raise CParseError(
                    f"line {tok.line}: float literals not allowed in index math"
                )
            return Num(int(text, 0), tok.line)
        if tok.kind == "name":
            return Var(tok.text, tok.line)
        if tok.text == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise CParseError(f"line {tok.line}: unexpected token {tok.text!r}")


def parse_kernel(source: str) -> FuncDef:
    """Parse one kernel template (a single function definition)."""
    tokens = _tokenize(preprocess(source))
    parser = _Parser(tokens)
    fn = parser.parse_function()
    if parser.peek() is not None:
        tok = parser.peek()
        assert tok is not None
        raise CParseError(f"line {tok.line}: trailing tokens after function body")
    return fn

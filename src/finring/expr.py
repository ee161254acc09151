"""The ring-construction expression language.

Grammar (whitespace-insensitive between tokens, keywords uppercase,
`x` the right-associative product for both rings and groups):

    Expr   := Term { "x" Term } ;
    Term   := "Z" "/" INT | "GF" "(" INT "," INT ")" | "M" "(" INT "," Expr ")"
            | "UT" "(" INT "," Expr ")" | "TE" "(" Expr ")" | "BT" "(" Expr ")"
            | "NIL" "(" Expr "," INT ")" | "POLYQ" "(" Expr "," "[" INT {"," INT} "]" ")"
            | "GR" "(" Expr "," GExpr ")" | "MODJ" "(" Expr ")"
            | "CORNER" "(" Expr "," INT ")" | "QUOT" "(" Expr "," "[" INT {"," INT} "]" ")"
            | "(" Expr ")" ;
    GExpr  := GTerm { "x" GTerm } ;
    GTerm  := "C" INT | "S3" | "D4" | "Q8" | "(" GExpr ")" ;

POLYQ coefficients are little-endian canonical element indices whose
last entry must be the index of 1 (monic modulus).  CORNER and QUOT
take canonical element indices; use the CLI `table` command to discover
them.  Parse errors never raise bare exceptions out of the module: they
are ParseError values carrying a byte offset and the expected tokens.
Expressions nest at most MAX_NESTING levels deep; every parenthesised
or constructor argument and every further product factor is one level.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import build
from .analysis import ideal_closure, jacobson
from .core import DEFAULT_LIMITS, FiniteRing, Limits
from .groups import NAMED_GROUPS, GroupTable, cyclic, group_product

# Parsing, formatting and evaluation recurse once per level.
MAX_NESTING = 200


class ParseError(ValueError):
    """Lexical, syntax, or bound error with a byte offset."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        self.message = message
        self.position = position
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {position}{suffix}")


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Zmod:
    n: int

@dataclass(frozen=True)
class GF:
    p: int
    k: int

@dataclass(frozen=True)
class Product:
    left: object
    right: object

@dataclass(frozen=True)
class Matrix:
    m: int
    inner: object

@dataclass(frozen=True)
class UpperTri:
    m: int
    inner: object

@dataclass(frozen=True)
class TE:
    inner: object

@dataclass(frozen=True)
class BT:
    inner: object

@dataclass(frozen=True)
class Nil:
    inner: object
    p: int

@dataclass(frozen=True)
class PolyQ:
    inner: object
    coeffs: tuple

@dataclass(frozen=True)
class GroupRing:
    inner: object
    group: object

@dataclass(frozen=True)
class ModJ:
    inner: object

@dataclass(frozen=True)
class Corner:
    inner: object
    index: int

@dataclass(frozen=True)
class Quot:
    inner: object
    gens: tuple

@dataclass(frozen=True)
class CyclicG:
    n: int

@dataclass(frozen=True)
class GProd:
    left: object
    right: object

@dataclass(frozen=True)
class NamedG:
    name: str


RING_NODES = (Zmod, GF, Product, Matrix, UpperTri, TE, BT, Nil, PolyQ,
              GroupRing, ModJ, Corner, Quot)
GROUP_NODES = (CyclicG, GProd, NamedG)


# -- lexer -------------------------------------------------------------------

_KEYWORDS = ["CORNER", "POLYQ", "MODJ", "QUOT", "NIL", "GF", "GR", "UT",
             "TE", "BT", "S3", "D4", "Q8", "Z", "C", "M"]
_PUNCT = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
          ",": "COMMA", "/": "SLASH", "x": "PROD"}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # what int() reads; isdigit() also admits '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # more digits than int() converts
                raise ParseError(f"integer literal of {j - i} digits is too long", i) from None
            tokens.append(_Token("INT", value, i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        for kw in _KEYWORDS:
            if text.startswith(kw, i):
                tokens.append(_Token("KW", kw, i))
                i += len(kw)
                break
        else:
            raise ParseError(f"unknown token {ch!r}", i)
    tokens.append(_Token("EOF", None, n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value=None, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = expected or (value if value is not None else kind)
            raise ParseError(f"unexpected {self._describe(tok)}", tok.pos, (str(want),))
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "EOF" else f"token {tok.value!r}"

    def expect_int(self, what: str, minimum: int | None = None) -> int:
        tok = self.expect("INT", expected=f"integer ({what})")
        if minimum is not None and tok.value < minimum:
            raise ParseError(f"{what} must be >= {minimum}, got {tok.value}", tok.pos)
        return tok.value

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} levels deep",
                             self.peek().pos)

    def parse_expr(self):
        outer = self.depth
        self.deeper()
        terms = [self.parse_term()]
        while self.peek().kind == "PROD":
            self.advance()
            self.deeper()
            terms.append(self.parse_term())
        self.depth = outer
        node = terms[-1]
        for t in reversed(terms[:-1]):
            node = Product(t, node)
        return node

    def parse_int_list(self, what: str) -> tuple:
        self.expect("LBRACK")
        values = [self.expect_int(what)]
        while self.peek().kind == "COMMA":
            self.advance()
            values.append(self.expect_int(what))
        self.expect("RBRACK")
        return tuple(values)

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect("RPAREN")
            return node
        if tok.kind != "KW":
            raise ParseError(f"unexpected {self._describe(tok)}", tok.pos,
                             ("a ring term",))
        kw = self.advance().value
        if kw == "Z":
            self.expect("SLASH")
            return Zmod(self.expect_int("modulus", 2))
        if kw == "GF":
            self.expect("LPAREN")
            p = self.expect_int("characteristic", 2)
            self.expect("COMMA")
            k = self.expect_int("extension degree", 1)
            self.expect("RPAREN")
            return GF(p, k)
        if kw == "M":
            self.expect("LPAREN")
            m = self.expect_int("matrix size", 1)
            self.expect("COMMA")
            inner = self.parse_expr()
            self.expect("RPAREN")
            return Matrix(m, inner)
        if kw == "UT":
            self.expect("LPAREN")
            m = self.expect_int("matrix size", 2)
            self.expect("COMMA")
            inner = self.parse_expr()
            self.expect("RPAREN")
            return UpperTri(m, inner)
        if kw in ("TE", "BT", "MODJ"):
            self.expect("LPAREN")
            inner = self.parse_expr()
            self.expect("RPAREN")
            return {"TE": TE, "BT": BT, "MODJ": ModJ}[kw](inner)
        if kw == "NIL":
            self.expect("LPAREN")
            inner = self.parse_expr()
            self.expect("COMMA")
            p = self.expect_int("nilpotency degree", 1)
            self.expect("RPAREN")
            return Nil(inner, p)
        if kw == "POLYQ":
            self.expect("LPAREN")
            inner = self.parse_expr()
            self.expect("COMMA")
            coeffs = self.parse_int_list("coefficient index")
            if len(coeffs) < 2:
                raise ParseError("polynomial modulus needs degree >= 1", tok.pos)
            self.expect("RPAREN")
            return PolyQ(inner, coeffs)
        if kw == "GR":
            self.expect("LPAREN")
            inner = self.parse_expr()
            self.expect("COMMA")
            group = self.parse_gexpr()
            self.expect("RPAREN")
            return GroupRing(inner, group)
        if kw == "CORNER":
            self.expect("LPAREN")
            inner = self.parse_expr()
            self.expect("COMMA")
            index = self.expect_int("idempotent index", 0)
            self.expect("RPAREN")
            return Corner(inner, index)
        if kw == "QUOT":
            self.expect("LPAREN")
            inner = self.parse_expr()
            self.expect("COMMA")
            gens = self.parse_int_list("generator index")
            self.expect("RPAREN")
            return Quot(inner, gens)
        raise ParseError(f"unexpected keyword {kw!r} in ring position", tok.pos,
                         ("a ring term",))

    def parse_gexpr(self):
        outer = self.depth
        self.deeper()
        terms = [self.parse_gterm()]
        while self.peek().kind == "PROD":
            self.advance()
            self.deeper()
            terms.append(self.parse_gterm())
        self.depth = outer
        node = terms[-1]
        for t in reversed(terms[:-1]):
            node = GProd(t, node)
        return node

    def parse_gterm(self):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_gexpr()
            self.expect("RPAREN")
            return node
        if tok.kind != "KW":
            raise ParseError(f"unexpected {self._describe(tok)}", tok.pos,
                             ("a group term",))
        kw = self.advance().value
        if kw == "C":
            return CyclicG(self.expect_int("cyclic order", 1))
        if kw in NAMED_GROUPS:
            return NamedG(kw)
        raise ParseError(f"unexpected keyword {kw!r} in group position", tok.pos,
                         ("a group term",))


def parse(text: str):
    """Parse a ring expression to its AST."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {parser._describe(tok)} after expression", tok.pos,
                         ("end of input",))
    return node


# -- formatting --------------------------------------------------------------


def format_expr(node) -> str:
    """Canonical text; parse(format_expr(e)) is structurally equal to e."""
    if isinstance(node, Zmod):
        return f"Z/{node.n}"
    if isinstance(node, GF):
        return f"GF({node.p}, {node.k})"
    if isinstance(node, Product):
        left = format_expr(node.left)
        if isinstance(node.left, Product):
            left = f"({left})"
        return f"{left} x {format_expr(node.right)}"
    if isinstance(node, Matrix):
        return f"M({node.m}, {format_expr(node.inner)})"
    if isinstance(node, UpperTri):
        return f"UT({node.m}, {format_expr(node.inner)})"
    if isinstance(node, TE):
        return f"TE({format_expr(node.inner)})"
    if isinstance(node, BT):
        return f"BT({format_expr(node.inner)})"
    if isinstance(node, Nil):
        return f"NIL({format_expr(node.inner)}, {node.p})"
    if isinstance(node, PolyQ):
        coeffs = ", ".join(str(c) for c in node.coeffs)
        return f"POLYQ({format_expr(node.inner)}, [{coeffs}])"
    if isinstance(node, GroupRing):
        return f"GR({format_expr(node.inner)}, {format_group(node.group)})"
    if isinstance(node, ModJ):
        return f"MODJ({format_expr(node.inner)})"
    if isinstance(node, Corner):
        return f"CORNER({format_expr(node.inner)}, {node.index})"
    if isinstance(node, Quot):
        gens = ", ".join(str(g) for g in node.gens)
        return f"QUOT({format_expr(node.inner)}, [{gens}])"
    raise TypeError(f"not a ring expression node: {node!r}")


def format_group(node) -> str:
    if isinstance(node, CyclicG):
        return f"C{node.n}"
    if isinstance(node, NamedG):
        return node.name
    if isinstance(node, GProd):
        left = format_group(node.left)
        if isinstance(node.left, GProd):
            left = f"({left})"
        return f"{left} x {format_group(node.right)}"
    raise TypeError(f"not a group expression node: {node!r}")


# -- evaluation --------------------------------------------------------------


def evaluate_group(node, limits: Limits = DEFAULT_LIMITS) -> GroupTable:
    if isinstance(node, CyclicG):
        return cyclic(node.n, group_max=limits.group_max)
    if isinstance(node, NamedG):
        return NAMED_GROUPS[node.name]()
    if isinstance(node, GProd):
        return group_product(
            evaluate_group(node.left, limits),
            evaluate_group(node.right, limits),
            group_max=limits.group_max,
        )
    raise TypeError(f"not a group expression node: {node!r}")


def evaluate(node, limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """Build the ring an expression denotes; the label is format_expr(node)."""
    label = format_expr(node)
    if isinstance(node, Zmod):
        return build.zmod(node.n, label=label, limits=limits)
    if isinstance(node, GF):
        return build.gf(node.p, node.k, label=label, limits=limits)
    if isinstance(node, Product):
        return build.product(
            evaluate(node.left, limits), evaluate(node.right, limits),
            label=label, limits=limits)
    if isinstance(node, Matrix):
        return build.matrix_ring(node.m, evaluate(node.inner, limits),
                                 label=label, limits=limits)
    if isinstance(node, UpperTri):
        return build.upper_triangular(node.m, evaluate(node.inner, limits),
                                      label=label, limits=limits)
    if isinstance(node, TE):
        return build.trivial_extension(evaluate(node.inner, limits),
                                       label=label, limits=limits)
    if isinstance(node, BT):
        return build.bt(evaluate(node.inner, limits), label=label, limits=limits)
    if isinstance(node, Nil):
        inner = evaluate(node.inner, limits)
        limits.check_power(inner.order, node.p, label)
        coeffs = [0] * node.p + [inner.one]
        return build.poly_quotient(inner, coeffs, label=label, limits=limits)
    if isinstance(node, PolyQ):
        return build.poly_quotient(evaluate(node.inner, limits), list(node.coeffs),
                                   label=label, limits=limits)
    if isinstance(node, GroupRing):
        return build.group_ring(evaluate(node.inner, limits),
                                evaluate_group(node.group, limits),
                                label=label, limits=limits)
    if isinstance(node, ModJ):
        inner = evaluate(node.inner, limits)
        return build.quotient(inner, jacobson(inner), label=label, limits=limits).ring
    if isinstance(node, Corner):
        inner = evaluate(node.inner, limits)
        return build.corner(inner, node.index, label=label, limits=limits).ring
    if isinstance(node, Quot):
        inner = evaluate(node.inner, limits)
        ideal = ideal_closure(inner, node.gens)
        return build.quotient(inner, ideal, label=label, limits=limits).ring
    raise TypeError(f"not a ring expression node: {node!r}")


def parse_and_build(text: str, limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    return evaluate(parse(text), limits)

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

`parse` returns `Term(keyword, args)` nodes.  Apart from Z/n and the
infix product, a construction is one `_TERMS` entry and its builder:
the parser, `format_expr`, `evaluate` and the lexer read the table.
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


@dataclass(frozen=True)
class Term:
    """An expression node: ``keyword`` is "Z", "x" (a ring or group
    product), "C", a named group or a `_TERMS` keyword, and ``args`` holds
    its arguments in grammar order, subexpressions as Terms and INT lists
    as tuples."""
    keyword: str
    args: tuple


# -- the term table ----------------------------------------------------------

# Argument kinds of a keyword term KW "(" arg {"," arg} ")".
_RING, _GROUP = "Expr", "GExpr"


@dataclass(frozen=True)
class _Int:
    """An INT argument, named ``what`` in errors, at least ``minimum``."""
    what: str
    minimum: int | None = None


@dataclass(frozen=True)
class _IntList:
    """A bracketed INT list; one of fewer than ``shortest`` entries is the
    error ``too_short`` at the term's keyword."""
    what: str
    shortest: int = 1
    too_short: str = ""


def _nil(inner: FiniteRing, p: int, *, label: str, limits: Limits) -> FiniteRing:
    # x^p has p + 1 coefficients, so bound p before building them
    limits.check_power(inner.order, p, label)
    return build.poly_quotient(inner, [0] * p + [inner.one], label=label, limits=limits)


# keyword -> (argument kinds in grammar order, builder).  The builder
# takes the arguments, ring and group arguments evaluated, plus label=
# and limits=.
_TERMS = {
    "GF": ((_Int("characteristic", 2), _Int("extension degree", 1)), build.gf),
    "M": ((_Int("matrix size", 1), _RING), build.matrix_ring),
    "UT": ((_Int("matrix size", 2), _RING), build.upper_triangular),
    "TE": ((_RING,), build.trivial_extension),
    "BT": ((_RING,), build.bt),
    "NIL": ((_RING, _Int("nilpotency degree", 1)), _nil),
    "POLYQ": ((_RING, _IntList("coefficient index", 2, "polynomial modulus needs degree >= 1")),
              build.poly_quotient),
    "GR": ((_RING, _GROUP), build.group_ring),
    "MODJ": ((_RING,), lambda r, **kw: build.quotient(r, jacobson(r), **kw).ring),
    "CORNER": ((_RING, _Int("idempotent index", 0)),
               lambda r, e, **kw: build.corner(r, e, **kw).ring),
    "QUOT": ((_RING, _IntList("generator index")),
             lambda r, gens, **kw: build.quotient(r, ideal_closure(r, gens), **kw).ring),
}


# -- lexer -------------------------------------------------------------------

# longest first, so that a keyword wins over its prefix (CORNER over C)
_KEYWORDS = sorted([*_TERMS, "Z", "C", *NAMED_GROUPS], key=len, reverse=True)
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
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {self._describe(tok)}", tok.pos, (expected or kind,))
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

    def parse_chain(self, parse_term):
        """Term { "x" Term } with "(" chain ")" as a term, right-associated."""
        outer = self.depth
        terms = []
        while True:
            self.deeper()
            if self.peek().kind == "LPAREN":
                self.advance()
                terms.append(self.parse_chain(parse_term))
                self.expect("RPAREN")
            else:
                terms.append(parse_term())
            if self.peek().kind != "PROD":
                break
            self.advance()
        self.depth = outer
        node = terms[-1]
        for t in reversed(terms[:-1]):
            node = Term("x", (t, node))
        return node

    def parse_int_list(self, what: str) -> tuple:
        self.expect("LBRACK")
        values = [self.expect_int(what)]
        while self.peek().kind == "COMMA":
            self.advance()
            values.append(self.expect_int(what))
        self.expect("RBRACK")
        return tuple(values)

    def keyword(self, position: str, accepted) -> _Token:
        """The keyword that starts a ring or group term."""
        tok = self.advance()
        if tok.kind != "KW":
            raise ParseError(f"unexpected {self._describe(tok)}", tok.pos,
                             (f"a {position} term",))
        if tok.value not in accepted:
            raise ParseError(f"unexpected keyword {tok.value!r} in {position} position",
                             tok.pos, (f"a {position} term",))
        return tok

    def parse_term(self):
        tok = self.keyword("ring", {"Z", *_TERMS})
        if tok.value == "Z":
            self.expect("SLASH")
            return Term("Z", (self.expect_int("modulus", 2),))
        kinds, _ = _TERMS[tok.value]
        self.expect("LPAREN")
        args = []
        for kind in kinds:
            if args:
                self.expect("COMMA")
            if kind is _RING:
                args.append(self.parse_chain(self.parse_term))
            elif kind is _GROUP:
                args.append(self.parse_chain(self.parse_gterm))
            elif isinstance(kind, _Int):
                args.append(self.expect_int(kind.what, kind.minimum))
            else:
                args.append(self.parse_int_list(kind.what))
                if len(args[-1]) < kind.shortest:
                    raise ParseError(kind.too_short, tok.pos)
        self.expect("RPAREN")
        return Term(tok.value, tuple(args))

    def parse_gterm(self):
        tok = self.keyword("group", {"C", *NAMED_GROUPS})
        if tok.value == "C":
            return Term("C", (self.expect_int("cyclic order", 1),))
        return Term(tok.value, ())


def parse(text: str):
    """Parse a ring expression to its AST."""
    parser = _Parser(text)
    node = parser.parse_chain(parser.parse_term)
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {parser._describe(tok)} after expression", tok.pos,
                         ("end of input",))
    return node


# -- formatting --------------------------------------------------------------


def _format_arg(value) -> str:
    if isinstance(value, Term):
        return format_expr(value)
    return f"[{', '.join(map(str, value))}]" if isinstance(value, tuple) else str(value)


def format_expr(node: Term) -> str:
    """Canonical text; parse(format_expr(e)) is structurally equal to e.
    Ring and group keywords are disjoint and "x" reads the same in both,
    so this formats group expressions too."""
    kw, args = node.keyword, node.args
    if kw == "x":  # the parser right-associates, so a product on the left needs parentheses
        left, right = map(format_expr, args)
        return f"({left}) x {right}" if args[0].keyword == "x" else f"{left} x {right}"
    if kw == "Z":
        return f"Z/{args[0]}"
    if kw == "C":
        return f"C{args[0]}"
    if kw in NAMED_GROUPS:
        return kw
    return f"{kw}({', '.join(map(_format_arg, args))})"


# -- evaluation --------------------------------------------------------------


def evaluate_group(node: Term) -> GroupTable:
    if node.keyword == "x":
        return group_product(*map(evaluate_group, node.args))
    if node.keyword == "C":
        return cyclic(node.args[0])
    return NAMED_GROUPS[node.keyword]()


def evaluate(node: Term, limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """Build the ring an expression denotes, labelled format_expr(node);
    subexpressions are built in argument order, left before right."""
    label = format_expr(node)
    if node.keyword == "Z":
        return build.zmod(node.args[0], label=label, limits=limits)
    if node.keyword == "x":
        return build.product(*(evaluate(r, limits) for r in node.args), label=label, limits=limits)
    kinds, builder = _TERMS[node.keyword]
    args = [evaluate(v, limits) if kind is _RING else evaluate_group(v) if kind is _GROUP else v
            for kind, v in zip(kinds, node.args)]
    return builder(*args, label=label, limits=limits)


def parse_and_build(text: str, limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    return evaluate(parse(text), limits)

import random
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finring import (
    ArgumentError,
    LimitError,
    Limits,
    ParseError,
    classify,
    evaluate,
    format_expr,
    parse,
    parse_and_build,
)
from finring.expr import _TERMS, MAX_NESTING, Term
from finring.groups import NAMED_GROUPS

from helpers import random_ring_expr


def Z(n):
    return Term("Z", (n,))


def C(n):
    return Term("C", (n,))


def test_parse_examples():
    assert parse("Z/4") == Z(4)
    assert parse("GR(Z/9, C2 x C2)") == Term("GR", (Z(9), Term("x", (C(2), C(2)))))
    assert parse("M(2, Z/2 x Z/3)") == Term("M", (2, Term("x", (Z(2), Z(3)))))
    assert parse("TE(GF(3, 2))") == Term("TE", (Term("GF", (3, 2)),))
    assert parse("  Z/2xZ/3  ") == Term("x", (Z(2), Z(3)))


def test_product_right_associates():
    node = parse("Z/2 x Z/3 x Z/5")
    assert node == Term("x", (Z(2), Term("x", (Z(3), Z(5)))))
    assert format_expr(node) == "Z/2 x Z/3 x Z/5"
    nested = Term("x", (Term("x", (Z(2), Z(3))), Z(5)))
    assert format_expr(nested) == "(Z/2 x Z/3) x Z/5"
    assert parse(format_expr(nested)) == nested


def test_format_examples():
    assert format_expr(Z(4)) == "Z/4"
    assert format_expr(Term("GR", (Z(2), C(3)))) == "GR(Z/2, C3)"
    assert format_expr(parse("POLYQ( Z/2 , [0,0,1] )")) == "POLYQ(Z/2, [0, 0, 1])"
    assert format_expr(parse("QUOT(Z/12,[4])")) == "QUOT(Z/12, [4])"


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("Z/")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("Z/4 )")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("M(2 Z/2)")
    assert err.value.expected
    with pytest.raises(ParseError):
        parse("W/3")
    with pytest.raises(ParseError):
        parse("")


# (text, message, position, expected): at least one malformed input per
# keyword, plus stray tokens, trailing input and end of input.
PARSE_ERROR_CASES = [
    ("Z/", "unexpected end of input", 2, ("integer (modulus)",)),
    ("Z/1", "modulus must be >= 2, got 1", 2, ()),
    ("M(2 Z/2)", "unexpected token 'Z'", 4, ("COMMA",)),
    ("M(2, Z/2", "unexpected end of input", 8, ("RPAREN",)),
    ("M(0, Z/2)", "matrix size must be >= 1, got 0", 2, ()),
    ("GF(2)", "unexpected token ')'", 4, ("COMMA",)),
    ("GF(1, 2)", "characteristic must be >= 2, got 1", 3, ()),
    ("GF(2, 0)", "extension degree must be >= 1, got 0", 6, ()),
    ("UT(1, Z/2)", "matrix size must be >= 2, got 1", 3, ()),
    ("TE Z/2", "unexpected token 'Z'", 3, ("LPAREN",)),
    ("BT(Z/2", "unexpected end of input", 6, ("RPAREN",)),
    ("MODJ()", "unexpected token ')'", 5, ("a ring term",)),
    ("NIL(Z/2, 0)", "nilpotency degree must be >= 1, got 0", 9, ()),
    ("NIL(Z/2)", "unexpected token ')'", 7, ("COMMA",)),
    ("POLYQ(Z/2, [1])", "polynomial modulus needs degree >= 1", 0, ()),
    ("POLYQ(Z/2, [1)", "unexpected token ')'", 13, ("RBRACK",)),
    ("POLYQ(Z/2, 1)", "unexpected token 1", 11, ("LBRACK",)),
    ("QUOT(Z/4, [])", "unexpected token ']'", 11, ("integer (generator index)",)),
    ("QUOT(Z/4, [2,])", "unexpected token ']'", 13, ("integer (generator index)",)),
    ("CORNER(Z/4 1)", "unexpected token 1", 11, ("COMMA",)),
    ("CORNER(Z/4, )", "unexpected token ')'", 12, ("integer (idempotent index)",)),
    ("GR(Z/2, M)", "unexpected keyword 'M' in group position", 8, ("a group term",)),
    ("GR(Z/2, C0)", "cyclic order must be >= 1, got 0", 9, ()),
    ("GR(Z/2, (C2 x S3)", "unexpected end of input", 17, ("RPAREN",)),
    ("GR(Z/2 x, C2)", "unexpected token ','", 8, ("a ring term",)),
    ("S3", "unexpected keyword 'S3' in ring position", 0, ("a ring term",)),
    ("C2", "unexpected keyword 'C' in ring position", 0, ("a ring term",)),
    ("Z/4 )", "unexpected token ')' after expression", 4, ("end of input",)),
    ("Z/2 x", "unexpected end of input", 5, ("a ring term",)),
    ("[1]", "unexpected token '['", 0, ("a ring term",)),
    ("W/3", "unknown token 'W'", 0, ()),
    ("", "unexpected end of input", 0, ("a ring term",)),
]


def test_parse_error_paths():
    for text, message, position, expected in PARSE_ERROR_CASES:
        with pytest.raises(ParseError) as err:
            parse(text)
        got = (err.value.message, err.value.position, err.value.expected)
        assert got == (message, position, expected), text


def test_parse_bound_errors():
    for bad in ("Z/1", "Z/0", "UT(1, Z/2)", "GF(1, 2)", "GF(2, 0)", "M(0, Z/2)", "C0",
                "GR(Z/2, C0)", "NIL(Z/2, 0)", "POLYQ(Z/2, [1])"):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_never_raises_anything_else():
    rng = random.Random(20240817)
    alphabet = string.ascii_uppercase + string.digits + "x/,()[] "
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        try:
            parse(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)
        # anything else propagates and fails the test


# Keywords, punctuation, integers (small, at and beyond the size limits,
# and past int()'s digit limit), spaces and a few stray characters.
SOUP_TOKENS = (["Z", "GF", "M", "UT", "TE", "BT", "NIL", "POLYQ", "GR", "MODJ", "CORNER",
                "QUOT", "C", "S3", "D4", "Q8", "(", ")", "[", "]", ",", "/", "x", " "]
               + [str(v) for v in (0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 30, 255, 257, 10 ** 6, 10 ** 20)]
               + ["9" * 5000, "\u00b2", "\u0663", "#", "-"])
FUZZ_LIMITS = Limits(max_order=256)


def _fuzz(text):
    try:
        parse(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
    try:
        parse_and_build(text, FUZZ_LIMITS)
    except (ParseError, ArgumentError, LimitError):
        pass
    # anything else propagates and fails the test


@settings(max_examples=300)
@given(st.text(max_size=30))
def test_random_text_raises_only_documented_errors(text):
    _fuzz(text)


@settings(max_examples=400)
@given(st.lists(st.sampled_from(SOUP_TOKENS), max_size=24).map("".join))
def test_token_soup_raises_only_documented_errors(text):
    _fuzz(text)


def test_size_parameters_are_limited_before_any_work():
    # unless checked before any work that grows with the size parameter,
    # each of these would run for minutes or exhaust memory
    for text in ("M(1000, Z/2)", "UT(3000, Z/2)", "NIL(Z/2, 100000)", "GF(2, 99999999999)",
                 "GF(1000000000000000003, 1)"):
        with pytest.raises(LimitError, match="exceeds the limit 256"):
            parse_and_build(text, FUZZ_LIMITS)
    # int() reads decimal digits of any script, but not '\u00b2' and not
    # more than its digit limit
    assert parse("Z/\u0663") == Z(3)
    for text in ("Z/\u00b2", "Z/" + "9" * 5000):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == 2


def test_nesting_depth_cap():
    at_cap = "(" * (MAX_NESTING - 1) + "Z/2" + ")" * (MAX_NESTING - 1)
    assert parse(at_cap) == Z(2)
    assert parse_and_build(at_cap).order == 2
    chain = " x ".join(["Z/2"] * MAX_NESTING)
    assert format_expr(parse(chain)) == chain
    group_chain = "GR(Z/2, " + " x ".join(["C1"] * (MAX_NESTING - 1)) + ")"
    assert parse(group_chain).args[0] == Z(2)
    for past_cap in ("(" + at_cap + ")", chain + " x Z/2", group_chain.replace("C1)", "C1 x C1)")):
        with pytest.raises(ParseError, match="nested more than"):
            parse(past_cap)
    with pytest.raises(ParseError):
        parse("(" * 2000 + "Z/2" + ")" * 2000)
    with pytest.raises(ParseError):
        parse("TE(" * 2000 + "Z/2" + ")" * 2000)


def test_roundtrip_random_asts():
    rng = random.Random(1)
    for _ in range(1000):
        node = random_ring_expr(rng, rng.randint(0, 4))
        text = format_expr(node)
        assert parse(text) == node


def test_evaluate_examples():
    assert parse_and_build("TE(Z/2)").order == 4
    # Z/12 mod J(Z/12) = Z/12 mod {0, 6}, a ring of order 6
    modj = parse_and_build("MODJ(Z/12)")
    assert modj.order == 6
    assert classify(modj).verdicts == classify(parse_and_build("Z/6")).verdicts
    modj4 = parse_and_build("MODJ(Z/4)")
    assert modj4.order == 2
    corner = parse_and_build("CORNER(M(2, Z/2), 1)")
    assert corner.order == 2
    quot = parse_and_build("QUOT(Z/12, [4])")
    assert quot.order == 4
    assert classify(quot).verdicts == classify(parse_and_build("Z/4")).verdicts
    # NIL(e, p) is POLYQ(e, x^p)
    a = parse_and_build("NIL(Z/3, 2)")
    b = parse_and_build("POLYQ(Z/3, [0, 0, 1])")
    assert np.array_equal(a.mul_table, b.mul_table)


def test_evaluate_sets_canonical_label():
    ring = parse_and_build("GR( Z/2 , C2xC2 )")
    assert ring.label == "GR(Z/2, C2 x C2)"


def test_evaluate_deterministic():
    a = parse_and_build("UT(2, Z/3)")
    b = parse_and_build("UT(2, Z/3)")
    assert np.array_equal(a.add_table, b.add_table)
    assert np.array_equal(a.mul_table, b.mul_table)


def test_limit_error_names_offending_subexpression():
    with pytest.raises(LimitError) as err:
        evaluate(parse("TE(Z/2) x M(2, M(2, Z/4))"))
    assert "M(2, M(2, Z/4))" in str(err.value)
    with pytest.raises(LimitError):
        parse_and_build("Z/4", Limits(max_order=3))


def test_evaluate_argument_errors_propagate():
    from finring import ArgumentError
    with pytest.raises(ArgumentError):
        parse_and_build("GF(6, 2)")  # 6 is not prime
    with pytest.raises(ArgumentError):
        parse_and_build("CORNER(M(2, Z/2), 2)")  # E12 is not idempotent
    with pytest.raises(ArgumentError):
        parse_and_build("POLYQ(Z/4, [1, 2])")  # non-monic
    with pytest.raises(ArgumentError):
        parse_and_build("QUOT(Z/12, [99])")  # index out of range


def _readme_grammar() -> dict:
    """Rule name -> alternatives of the grammar block in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Expression language", 1)[1].split("```")[1]
    rules = re.findall(r"^(\w+)\s*:=(.*?)(?=^\w+\s*:=|\Z)", block, re.M | re.S)
    return {name: [alt.strip() for alt in body.split("|")] for name, body in rules}


def test_readme_grammar_lists_every_keyword():
    # each alternative of Term and GTerm, filled in, parses to its keyword
    # and round-trips once, so the README and the term table cannot drift
    grammar = _readme_grammar()
    fill = {"[INT, ...]": "[0, 1]", "INT": "2", "GExpr": "C2", "Expr": "Z/2"}
    found = set()
    for rule, wrap in (("Term", "{}"), ("GTerm", "GR(Z/2, {})")):
        for alt in grammar[rule]:
            if alt.startswith('"("'):
                continue
            for hole, value in fill.items():
                alt = alt.replace(hole, value)
            node = parse(wrap.format(alt))
            assert parse(format_expr(node)) == node, alt
            found.add(node.keyword if rule == "Term" else node.args[1].keyword)
    assert found == {"Z", *_TERMS, "C", *NAMED_GROUPS}

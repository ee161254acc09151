"""The generator-reduced analysis paths against the general ones.

J(R) is {x in N(R) : x*S inside N(R)} for an additive generating set
S, and N(R) itself exactly when N(R) is an ideal; the center is the
commutant of S, ideal tests run from S, and generated ideals and
subrings are additive spans of generator products.  Each is compared
here with a computation from the definitions: J(R) with
quasi-regularity, also on relabelled copies of rings whose J(R) is
smaller than N(R), where S is no longer made of matrix units or group
elements.
"""

import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import finring.analysis as fa
from finring import (
    ArgumentError,
    LimitError,
    Limits,
    center,
    format_expr,
    generators,
    ideal_closure,
    jacobson,
    nilpotents,
    parse_and_build,
    quotient,
    sqrt_jacobson,
    subring_closure,
    zmod,
)
from finring.analysis import closure, ideal_violation
from finring.harness import DEFAULT_CORPUS_LINES, _principal_ideals_in_j

from helpers import (
    LAZY,
    TABLE,
    additive_span,
    full_commutant,
    full_scan_ideal_violation,
    quasi_regular_radical,
    random_ring_expr,
    relabelled,
    round_based_closure,
)

# the rings of the benchmark's analyze-table workload, orders 81 to 1024
ANALYZE_TABLE = (
    "GR(Z/3, C2 x C2)", "M(2, Z/4)", "UT(3, Z/3)", "TE(Z/27)", "BT(Z/5)",
    "M(2, Z/5)", "GR(Z/4, C5)", "NIL(Z/4, 5)", "GF(2, 10)", "Z/32 x Z/32",
    "TE(Z/32)", "GR(Z/2, D4)", "MODJ(UT(2, Z/8))", "CORNER(M(2, Z/5), 1)",
    "QUOT(TE(Z/27), [81])",
)


def assert_matches_general_path(ring):
    n = ring.order
    assert additive_span(ring, generators(ring)) == set(range(n))
    assert center(ring).members == full_commutant(ring)
    nil, j = nilpotents(ring), jacobson(ring)
    nil_is_ideal = full_scan_ideal_violation(ring, nil.members) is None
    assert (j is nil) == nil_is_ideal  # the shortcut runs exactly when N is an ideal
    assert j.members == quasi_regular_radical(ring)
    if nil_is_ideal:
        assert sqrt_jacobson(ring) is nil
    rng = random.Random(n)
    outside = sorted(set(range(n)) - j.members)
    candidates = [j.members, nil.members]
    every = np.arange(n)
    for x in rng.sample(range(n), min(2, n)):  # the ideal, right ideal and left ideal of x
        candidates.append(ideal_closure(ring, [x]).members)
        candidates.append(frozenset(ring.mul_arr(x, every).tolist()))
        candidates.append(frozenset(ring.mul_arr(every, x).tolist()))
    candidates += [j.members | {x} for x in rng.sample(outside, min(2, len(outside)))]
    candidates += [j.members - {x} for x in rng.sample(sorted(j.members), min(2, len(j)))]
    for members in candidates:
        assert ideal_violation(ring, members) == full_scan_ideal_violation(ring, members)


def assert_closures_match_rounds(table, lazy):
    """Generated ideals and subrings of a table ring and its lazy twin, on
    seed sets of one and two elements with and without 1, against the
    round-based closure on the table ring."""
    rng = random.Random(table.order)
    x, y = rng.sample(range(table.order), 2)
    one = table.one
    for seeds in ([x], [x, y], [one], [one, x]):
        for ideal in (True, False):
            expected = round_based_closure(table, [0] + seeds, ideal=ideal).tolist()
            for ring in (table, lazy):
                assert closure(ring, seeds, ideal=ideal).tolist() == expected, (ring.mode, seeds, ideal)
    expected_ideal = round_based_closure(table, [0, x, y], ideal=True).tolist()
    expected_sub = tuple(round_based_closure(table, [0, one, x], ideal=False).tolist())
    for ring in (table, lazy):
        assert ideal_closure(ring, [x, y]).indices() == expected_ideal
        assert subring_closure(ring, [x], limits=LAZY).embedding == expected_sub


# rings whose J(R) is a strict subset of N(R), also checked under seeded
# relabellings: each changes S, so J is found from generating sets other
# than the matrix units and group elements
RELABELLED = ("M(2, Z/2)", "M(2, Z/3)", "M(3, Z/2)", "GR(Z/2, S3)")


@pytest.mark.parametrize("text", list(dict.fromkeys([*DEFAULT_CORPUS_LINES, *ANALYZE_TABLE, *RELABELLED])))
def test_corpus_and_benchmark_rings_match_general_path(text):
    ring = parse_and_build(text)
    assert_matches_general_path(ring)
    if text in RELABELLED:
        for seed in range(3):
            assert_matches_general_path(relabelled(ring, seed))


@pytest.mark.parametrize("text", list(dict.fromkeys([*DEFAULT_CORPUS_LINES, *ANALYZE_TABLE, "UT(2, Z/11)"])))
def test_closures_match_round_based_closure(text):
    table, lazy = parse_and_build(text), parse_and_build(text, Limits(table_threshold=1))
    assert lazy.mode == "lazy"
    if table.mode == "lazy":  # UT(2, Z/11), order 1331: its table twin
        table = table.relabelled(table.label, Limits(table_threshold=table.order))
    assert_closures_match_rounds(table, lazy)


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_random_expressions_match_general_path(seed, depth):
    text = format_expr(random_ring_expr(random.Random(seed), depth))
    try:
        table = parse_and_build(text, Limits(max_order=256))
    except (LimitError, ArgumentError):
        assume(False)
    lazy = parse_and_build(text, Limits(max_order=256, table_threshold=1))
    assert lazy.mode == "lazy"
    for ring in (table, lazy):
        assert_matches_general_path(ring)
    assert_closures_match_rounds(table, lazy)


@pytest.mark.parametrize("text, shortcut", [
    ("UT(3, Z/2)", True), ("TE(Z/9)", True), ("Z/12", True),
    ("M(2, Z/2)", False), ("GR(Z/2, S3)", False),
])
def test_which_rings_take_the_shortcut(text, shortcut):
    ring = parse_and_build(text)
    assert (jacobson(ring) is nilpotents(ring)) == shortcut
    assert "units" not in ring._cache  # J needs no units on any ring


def test_additive_generators_by_doubling(monkeypatch):
    for limits in (Limits(), Limits(table_threshold=1)):
        m = parse_and_build("M(2, Z/4)", limits)
        assert generators(m).tolist() == [1, 4, 16, 64]
    assert generators(zmod(12)).tolist() == [1]
    # a product is given s*|R2| for s in S(R1) and t for t in S(R2) when
    # it is built, and no span is grown over its own elements
    spanned = []
    grow = fa.grow_span
    monkeypatch.setattr(fa, "grow_span", lambda r, *rest: spanned.append(r) or grow(r, *rest))
    for limits in (Limits(), Limits(table_threshold=1)):
        for text, gens in (("Z/2 x Z/4", [1, 4]), ("M(2, Z/2) x Z/3", [1, 3, 6, 12, 24])):
            ring = parse_and_build(text, limits)
            assert "generators" in ring._cache
            assert generators(ring).tolist() == gens
            assert not any(r is ring for r in spanned)


def test_quotient_words_the_first_violation():
    m2 = parse_and_build("M(2, Z/2)")  # E11 = 1, E12 = 2, E21 = 4, E22 = 8
    for members, message in (
        ([2, 4, 15], "0 is missing"),
        ([0, 2, 4, 15], "not closed under addition: 2 + 4 = 6"),  # N(R)
        ([0, 2], "not closed under left multiplication: 4 * 2 = 8"),
        ([0, 1, 2, 3], "not closed under left multiplication: 4 * 1 = 4"),  # E11*R
        ([0, 1, 4, 5], "not closed under right multiplication: 1 * 2 = 2"),  # R*E11
    ):
        with pytest.raises(ArgumentError, match=re.escape(message) + "$"):
            quotient(m2, members)


@pytest.mark.parametrize("limits", [TABLE, LAZY], ids=["table", "lazy"])
def test_ideal_test_matches_pair_scan_on_corpus_ideals_and_failing_sets(limits):
    # the span test against the |I|^2 pair scan, on C2's ideals of every
    # corpus ring up to order 256 and on sets that fail each law in turn:
    # 0 left out, {0, 1} and J + 1 (addition), x*R and R*x (a one-sided
    # multiplication law where x*R is not two-sided)
    words = set()
    for text in DEFAULT_CORPUS_LINES:
        ring = parse_and_build(text, limits)
        n, every = ring.order, np.arange(ring.order)
        if n > 256:
            continue
        j = jacobson(ring).members
        sets = [ideal.members for _, ideal in _principal_ideals_in_j(ring)]
        sets += [frozenset(range(n)), frozenset(range(1, n)), frozenset({0, ring.one}),
                 frozenset(ring.add_arr(ring.one, np.array(sorted(j))).tolist()) | {0}]
        for x in range(1, min(n, 6)):
            sets += [frozenset(ring.mul_arr(x, every).tolist()), frozenset(ring.mul_arr(every, x).tolist())]
        for members in sets:
            got = ideal_violation(ring, members)
            assert got == full_scan_ideal_violation(ring, members), (ring, sorted(members))
            words.add(got and got.split(":")[0])
    assert words == {None, "0 is missing", "not closed under addition",
                     "not closed under left multiplication", "not closed under right multiplication"}

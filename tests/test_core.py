from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finring import (
    ArgumentError,
    ElementSet,
    FiniteRing,
    default_corpus,
    dump_tables,
    parse_and_build,
    parse_table_dump,
    verify_axioms,
    zmod,
)
from finring.build import group_ring, matrix_ring, trivial_extension
from finring.core import AXIOM_BLOCK_ELEMENTS, grow_span
from finring.groups import cyclic

from helpers import full_cube_ternary_checks, magma_closure


def test_element_ops_zmod4():
    r = zmod(4)
    assert r.add(3, 3) == 2
    assert r.mul(2, 2) == 0
    assert r.sub(1, 3) == 2
    assert r.neg(3) == 1
    for x in range(4):
        assert r.mul(r.one, x) == x
        assert r.mul(x, r.one) == x
        assert r.add(x, r.neg(x)) == 0


def test_index_out_of_range():
    r = zmod(4)
    with pytest.raises(ArgumentError):
        r.add(4, 0)
    with pytest.raises(ArgumentError):
        r.mul(0, -1)
    with pytest.raises(ArgumentError):
        r.neg(7)


def test_element_set_range_check():
    r = zmod(4)
    with pytest.raises(ArgumentError) as err:
        ElementSet(r, frozenset({7, 1, -2, 4}))
    assert str(err.value) == "indices [-2, 4, 7] out of range for Z/4"
    empty = ElementSet(r, frozenset())
    assert len(empty) == 0 and empty.indices() == [] and 0 not in empty


def test_pow():
    assert zmod(12).pow(2, 3) == 8
    assert zmod(9).pow(3, 2) == 0
    m2 = matrix_ring(2, zmod(2))
    e12 = 2  # coordinates (0,1,0,0)
    assert m2.pow(e12, 2) == 0
    r = zmod(7)
    assert r.pow(3, 1) == 3
    # repeated-squaring result agrees with iteration
    for x in range(7):
        acc = x
        for k in range(1, 10):
            assert r.pow(x, k) == acc
            acc = r.mul(acc, x)
    with pytest.raises(ArgumentError):
        r.pow(3, 0)


def test_power_orbit():
    assert zmod(12).power_orbit(2) == [2, 4, 8]
    assert zmod(4).power_orbit(2) == [2, 0]
    r = zmod(36)
    assert r.power_orbit(r.one) == [r.one]
    for x in range(r.order):
        orbit = r.power_orbit(x)
        assert len(orbit) == len(set(orbit))
        assert len(orbit) <= r.order
        # the successor power of the last entry has appeared already
        assert r.mul(orbit[-1], x) in orbit


def test_characteristic():
    assert zmod(6).characteristic() == 6
    assert matrix_ring(2, zmod(2)).characteristic() == 2
    from finring import gf
    assert gf(3, 2).characteristic() == 3
    r = trivial_extension(zmod(9))
    c = r.characteristic()
    assert c == 9
    # c * 1 = 0 and (c/p) * 1 != 0 for every prime p | c
    def times(k):
        acc = 0
        for _ in range(k):
            acc = r.add(acc, r.one)
        return acc
    assert times(c) == 0
    assert times(c // 3) != 0


@pytest.mark.parametrize("ring", [
    zmod(6),
    group_ring(zmod(4), cyclic(2)),
    matrix_ring(2, zmod(3)),
    group_ring(zmod(2), cyclic(2), materialize=False),  # lazy, exhaustive ternary
    zmod(300, materialize=False),                       # lazy, sampled ternary
])
def test_axioms_pass(ring):
    report = verify_axioms(ring)
    assert report.passed, report.failures()


def test_axioms_catch_corrupted_identity():
    r = zmod(6)
    mul = np.array(r.mul_table)
    mul[1, 1] = 2  # break 1*1
    broken = FiniteRing(6, 1, "broken", add_table=r.add_table, mul_table=mul)
    report = verify_axioms(broken)
    bad = {c.name for c in report.failures()}
    assert "one-is-identity" in bad
    witness = [c.witness for c in report.failures() if c.name == "one-is-identity"][0]
    assert witness is not None


def test_axioms_sampled_policy_above_cutoff():
    r = zmod(300)
    report = verify_axioms(r)
    assert report.passed
    policies = {c.name: c.policy for c in report.checks}
    assert policies["mul-associative"] == "sampled"
    assert policies["add-commutative"] == "exhaustive"
    # sampling is seeded: identical reports on reruns
    again = verify_axioms(r)
    assert [c.policy for c in report.checks] == [c.policy for c in again.checks]


def _corrupted(ring, faults):
    """``ring`` with table entries (table, x, y) moved to (value + 1) mod n."""
    tables = {"add": np.array(ring.add_table), "mul": np.array(ring.mul_table)}
    for table, x, y in faults:
        tables[table][x, y] = (tables[table][x, y] + 1) % ring.order
    return FiniteRing(ring.order, ring.one, "corrupted",
                      add_table=tables["add"], mul_table=tables["mul"])


def test_blocked_axioms_match_full_cube_on_corpus():
    rings = [ring for _, ring in default_corpus().rings() if ring.order <= 256]
    assert max(ring.order for ring in rings) == 256
    for ring in rings:
        assert verify_axioms(ring).checks[-4:] == full_cube_ternary_checks(ring), ring.label


def test_blocked_axioms_match_full_cube_on_corrupted_tables():
    m = parse_and_build("M(2, Z/4)")
    n = m.order
    rows = AXIOM_BLOCK_ELEMENTS // (n * n)
    assert 1 < rows < n
    first, middle, last = 3, (n // rows // 2) * rows + 2, n - 6
    cases = [[(table, x, 7)] for table in ("add", "mul") for x in (first, middle, last)]
    cases.append([("mul", last, 7), ("mul", middle, 200)])
    for faults in cases:
        ring = _corrupted(m, faults)
        report = verify_axioms(ring)
        assert report.checks[-4:] == full_cube_ternary_checks(ring), faults
        if faults[0][0] == "mul":
            # a MUL fault in row x first breaks left distributivity at x,
            # so these witnesses lie in the first, a middle and the last block
            left = next(c for c in report.checks if c.name == "left-distributive")
            assert left.witness[0] == min(x for _, x, _ in faults), faults


def _laws_failing_separately():
    """(ring, verdicts) pairs whose tables fail the ternary laws in different
    combinations; verdicts follow checks[-4:]: add-associative,
    mul-associative, left- and right-distributive."""
    m2 = matrix_ring(2, zmod(2))
    n = m2.order
    lie = [[m2.sub(m2.mul(x, y), m2.mul(y, x)) for y in range(n)] for x in range(n)]
    z5 = zmod(5)
    return [
        # the Lie bracket: both distributive laws hold, so the reduced
        # mul-associativity check itself must catch the failure
        (FiniteRing(n, 1, "lie", add_table=m2.add_table, mul_table=lie),
         [True, False, True, True]),
        # x * y = x: left distributivity fails, so mul-associativity is
        # decided by the blocked scan
        (FiniteRing(5, 1, "left-projection", add_table=z5.add_table,
                    mul_table=[[x] * 5 for x in range(5)]),
         [True, True, False, True]),
        # x + y = x - y is not associative, so every other law is decided
        # by the blocked scan
        (FiniteRing(5, 1, "difference", add_table=[[(x - y) % 5 for y in range(5)] for x in range(5)],
                    mul_table=z5.mul_table),
         [False, True, True, True]),
        # x * y = f(y) on (Z/2)^3 under XOR, with f additive along 1 but
        # f(2 + 4) != f(2) + f(4): left distributivity holds for s = 1 and
        # fails for s = 2, so every generator in S = {1, 2, 4} counts
        (FiniteRing(8, 1, "xor", add_table=np.bitwise_xor.outer(range(8), range(8)),
                    mul_table=[[0, 1, 2, 3, 4, 5, 0, 1]] * 8),
         [True, True, False, False]),
    ]


def test_reduced_axioms_match_full_cube_where_laws_fail_separately():
    for ring, verdicts in _laws_failing_separately():
        report = verify_axioms(ring)
        assert report.checks[-4:] == full_cube_ternary_checks(ring), ring.label
        assert [c.passed for c in report.checks[-4:]] == verdicts, ring.label


def _axiom_generators(ring):
    """S as verify_axioms takes it: the candidates grow_span takes from {0}
    over every element, then 0."""
    reached = np.zeros(ring.order, dtype=bool)
    reached[0] = True
    return grow_span(ring, reached, np.arange(ring.order)) + [0]


# Z/3 with its addition table corrupted so that no sum is 0: on {0, 1, 2},
# {1, 2} add as Z/2 with identity 1, 0 + y = y, x + 0 = x + 2 and 0 + 0 = 1.
# + is associative on every triple except those with 0 in the middle, such
# as (1 + 0) + 1 = 2 != 1 = 1 + (0 + 1), so a generating set without 0
# would pass Light's test.
ZERO_ONLY_AS_SEED = FiniteRing(3, 1, "zero only as a seed", add_table=[[1, 1, 2], [2, 1, 2], [1, 2, 1]],
                               mul_table=zmod(3).mul_table)


def test_additive_generators():
    m = parse_and_build("M(2, Z/4)")
    assert _axiom_generators(m) == [1, 4, 16, 64, 0]
    # x + y = x reaches nothing beyond its arguments, 0 included
    left = FiniteRing(4, 1, "left", add_table=np.repeat(np.arange(4)[:, None], 4, axis=1),
                      mul_table=zmod(4).mul_table)
    assert _axiom_generators(left) == [1, 2, 3, 0]
    assert _axiom_generators(ZERO_ONLY_AS_SEED) == [1, 2, 0]
    assert magma_closure(ZERO_ONLY_AS_SEED.add_table, [1, 2]) == {1, 2}


def test_axiom_generators_generate_the_addition_magma():
    rings = [ring for _, ring in default_corpus().rings() if ring.order <= 256]
    rings += [ring for ring, _ in _laws_failing_separately()] + [ZERO_ONLY_AS_SEED]
    for ring in rings:
        ADD = ring.row_block("add", 0, ring.order)
        assert magma_closure(ADD, _axiom_generators(ring)) == set(range(ring.order)), ring.label
    report = verify_axioms(ZERO_ONLY_AS_SEED)
    assert report.checks[-4:] == full_cube_ternary_checks(ZERO_ONLY_AS_SEED)
    assert report.checks[-4].name == "add-associative"
    assert report.checks[-4].witness == (0, 0, 0)  # (0 + 0) + 0 = 2 != 1 = 0 + (0 + 0)


@cache
def _small_corpus():
    return [ring for _, ring in default_corpus().rings() if ring.order <= 27]


@settings(max_examples=150)
@given(st.data())
def test_reduced_axioms_match_full_cube_on_random_corruptions(data):
    rings = _small_corpus()
    ring = rings[data.draw(st.integers(0, len(rings) - 1))]
    n = ring.order
    entry = st.tuples(st.sampled_from(["add", "mul"]), st.integers(0, n - 1),
                      st.integers(0, n - 1), st.integers(0, n - 1))
    tables = {"add": np.array(ring.add_table), "mul": np.array(ring.mul_table)}
    for table, x, y, value in data.draw(st.lists(entry, min_size=1, max_size=2)):
        tables[table][x, y] = value
    corrupted = FiniteRing(n, ring.one, "corrupted",
                           add_table=tables["add"], mul_table=tables["mul"])
    assert verify_axioms(corrupted).checks[-4:] == full_cube_ternary_checks(corrupted)


def test_axioms_lazy_twin_of_corrupted_tables_agrees():
    r = zmod(6)
    # breaks 0 + 3, leaves row 2 without a zero (so no inverse), breaks 5 * 1
    table = _corrupted(r, [("add", 3, 0), ("add", 2, 4), ("mul", 5, 1)])
    lazy = FiniteRing(6, 1, "lazy twin",
                      add_fn=lambda x, y: table.add_table[x, y],
                      mul_fn=lambda x, y: table.mul_table[x, y],
                      neg_fn=lambda x: table.neg_table[x])
    table_report, lazy_report = verify_axioms(table), verify_axioms(lazy)
    assert table_report.checks == lazy_report.checks
    failed = {c.name: c for c in table_report.failures()}
    assert failed["zero-is-additive-identity"].witness == (3,)
    assert failed["additive-inverse"].witness == (2,)
    assert failed["one-is-identity"].witness == (5,)
    assert failed["one-is-identity"].checked == 6


def test_axioms_reject_negative_seed():
    for ring in (zmod(4), zmod(300)):
        with pytest.raises(ArgumentError, match="seed"):
            verify_axioms(ring, seed=-1)


def test_lazy_and_table_modes_agree_small():
    for make in (lambda m: zmod(12, materialize=m),
                 lambda m: trivial_extension(zmod(4), materialize=m),
                 lambda m: group_ring(zmod(3), cyclic(2), materialize=m)):
        table = make(True)
        lazy = make(False)
        assert table.mode == "table" and lazy.mode == "lazy"
        n = table.order
        for x in range(n):
            assert table.neg(x) == lazy.neg(x)
            for y in range(n):
                assert table.add(x, y) == lazy.add(x, y)
                assert table.mul(x, y) == lazy.mul(x, y)


def test_dump_format_shape_and_roundtrip():
    r = zmod(4)
    text = dump_tables(r)
    lines = text.splitlines()
    assert lines[0] == "order 4"
    assert lines[1] == "one 1"
    assert lines[2:6] == ["0 1 2 3", "1 2 3 0", "2 3 0 1", "3 0 1 2"]
    assert lines[6] == ""
    assert lines[7] == "0 0 0 0"
    back = parse_table_dump(text)
    assert np.array_equal(back.add_table, r.add_table)
    assert np.array_equal(back.mul_table, r.mul_table)
    assert back.one == r.one


def test_dump_roundtrip_structured():
    r = group_ring(zmod(2), cyclic(3))
    back = parse_table_dump(dump_tables(r))
    assert np.array_equal(back.add_table, r.add_table)
    assert np.array_equal(back.mul_table, r.mul_table)


def test_parse_table_dump_rejects_garbage():
    with pytest.raises(ArgumentError):
        parse_table_dump("not a dump")
    with pytest.raises(ArgumentError):
        parse_table_dump("order 2\none 1\n0 1\n1 0\n\n0 0\n0 5\n")  # entry out of range
    with pytest.raises(ArgumentError, match="header"):
        parse_table_dump("order x\none 1\n")
    with pytest.raises(ArgumentError):
        parse_table_dump("order 2\none 1\n0 1\n1 a\n\n0 0\n0 1\n")  # entry not an integer


def test_ring_validation():
    with pytest.raises(ArgumentError):
        zmod(1)
    with pytest.raises(ArgumentError):
        FiniteRing(4, 0, "bad-one", add_table=zmod(4).add_table, mul_table=zmod(4).mul_table)


def test_constructor_leaves_the_callers_tables_alone():
    z = zmod(4)
    add, mul = np.array(z.add_table), np.array(z.mul_table)
    ring = FiniteRing(4, 1, "x", add_table=add, mul_table=mul)
    add[0, 0] = 1
    mul[1, 1] = 0
    assert add.flags.writeable and mul.flags.writeable
    assert ring.add_table[0, 0] == 0 and ring.mul_table[1, 1] == 1
    # read-only tables handed over by a construction are kept, not copied
    assert FiniteRing(4, 1, "y", add_table=z.add_table, mul_table=z.mul_table).add_table is z.add_table


def test_ring_rejects_table_entries_out_of_range():
    z4 = zmod(4)
    for value in (7, -1):
        add = z4.add_table.copy()
        add[2, 3] = value
        with pytest.raises(ArgumentError, match="0..3"):
            FiniteRing(4, 1, "bad-entry", add_table=add, mul_table=z4.mul_table)
        neg = z4.neg_table.copy()
        neg[1] = value
        with pytest.raises(ArgumentError, match="0..3"):
            FiniteRing(4, 1, "bad-neg", add_table=z4.add_table, mul_table=z4.mul_table,
                       neg_table=neg)
    with pytest.raises(ArgumentError, match="negation table"):
        FiniteRing(4, 1, "short-neg", add_table=z4.add_table, mul_table=z4.mul_table,
                   neg_table=[0, 3, 2])
    # each is checked before the cast to the int16 table dtype, which
    # would wrap 2^32 + 1 to 1 and truncate 1.5 to 1
    wide = z4.add_table.astype(np.int64)
    wide[2, 3] = 2 ** 32 + 1
    with pytest.raises(ArgumentError, match="0..3"):
        FiniteRing(4, 1, "wide-entry", add_table=wide, mul_table=z4.mul_table)
    with pytest.raises(ArgumentError, match="integers"):
        FiniteRing(4, 1, "float-entry", add_table=z4.add_table + 0.5, mul_table=z4.mul_table)
    with pytest.raises(ArgumentError, match="needs add_table and mul_table"):
        FiniteRing(4, 1, "no-mul", add_table=z4.add_table)
    ragged = [[0, 1, 2, 3], [1, 2, 3], [2, 3, 0, 1], [3, 0, 1, 2]]
    with pytest.raises(ArgumentError, match="order x order"):
        FiniteRing(4, 1, "ragged", add_table=ragged, mul_table=z4.mul_table)

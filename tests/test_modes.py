"""Table and lazy storage agree on every algorithm that reads a ring.

Both modes run the same block algorithms; these tests compare their
results on a lazy ring spanning several row blocks and on random
grammar expressions built once with tables and once entirely lazy.
"""

import ast
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from finring import (
    ArgumentError,
    FiniteRing,
    LimitError,
    Limits,
    center,
    classify,
    corner,
    default_corpus,
    dump_tables,
    format_expr,
    ideal_closure,
    idempotents,
    jacobson,
    matrix_ring,
    nilpotents,
    parse_and_build,
    quotient,
    run_suite,
    sqrt_jacobson,
    subring_closure,
    trivial_extension,
    unit_inverses,
    units,
    upper_triangular,
    verify_axioms,
    zmod,
)
import finring
from finring.core import block_rows

from helpers import LAZY, TABLE, random_ring_expr

SETS = (units, jacobson, sqrt_jacobson, nilpotents, idempotents, center)


def structural_sets(ring):
    return [fn(ring).members for fn in SETS]


def test_lazy_ring_of_two_blocks_agrees_with_table_twin():
    lazy = upper_triangular(2, zmod(7), limits=LAZY)
    table = upper_triangular(2, zmod(7), limits=TABLE)
    assert lazy.mode == "lazy" and table.mode == "table"
    n = lazy.order
    assert n == 343 and -(-n // block_rows(n)) == 2
    # Closed forms on (a, b; 0, d) = a + 7 b + 49 d, so a bug shared by
    # both modes (a block offset, say) shows too.
    x = np.arange(n)
    a, b, d = x % 7, x // 7 % 7, x // 49

    def where(cond):
        return frozenset(np.flatnonzero(cond).tolist())

    radical = where((a == 0) & (d == 0))
    assert structural_sets(lazy) == structural_sets(table) == [
        where((a != 0) & (d != 0)), radical, radical, radical,
        where((a * a % 7 == a) & (d * d % 7 == d) & (b * (a + d - 1) % 7 == 0)),
        where((b == 0) & (a == d)),
    ]
    assert unit_inverses(lazy) == unit_inverses(table)
    assert classify(lazy) == classify(table)
    verdicts = classify(lazy).verdicts
    assert verdicts.pop("dedekind-finite") and not any(verdicts.values())
    assert set(classify(lazy).witnesses.values()) == {51}  # diag(2, 1)

    ql, qt = quotient(lazy, jacobson(lazy)), quotient(table, jacobson(table))
    assert ql.projection == qt.projection
    assert dump_tables(ql.ring) == dump_tables(qt.ring)
    q_lazy = quotient(lazy, jacobson(lazy), limits=LAZY)
    assert q_lazy.ring.mode == "lazy" and dump_tables(q_lazy.ring) == dump_tables(qt.ring)

    e = 1  # the matrix unit e11
    cl, ct = corner(lazy, e), corner(table, e)
    assert cl.embedding == ct.embedding and dump_tables(cl.ring) == dump_tables(ct.ring)
    sl, st_ = subring_closure(lazy, [8]), subring_closure(table, [8])  # e11 + e12
    assert sl.embedding == st_.embedding and dump_tables(sl.ring) == dump_tables(st_.ring)
    # the same derived rings kept lazy: their operations go through the
    # parent's formula and the member lookup
    for derived, twin in ((corner(lazy, e, limits=LAZY), ct),
                          (subring_closure(lazy, [8], limits=LAZY), st_)):
        assert derived.ring.mode == "lazy" and derived.embedding == twin.embedding
        assert dump_tables(derived.ring) == dump_tables(twin.ring)
    for gens in ([7], [8], [1, 49]):
        assert ideal_closure(lazy, gens).members == ideal_closure(table, gens).members


def test_lazy_subring_closure_closes_its_seeds():
    # 0 and 1 alone generate the prime subring, which here is all of Z/3
    for ring in (zmod(3, limits=LAZY), zmod(3)):
        assert subring_closure(ring, []).embedding == (0, 1, 2)


def test_axiom_reports_agree_across_modes():
    for make in (lambda m: zmod(1100, limits=m),
                 lambda m: matrix_ring(2, zmod(3), limits=m)):
        assert verify_axioms(make(LAZY)).checks == verify_axioms(make(TABLE)).checks
    # a corrupted row of Z/1100: the sampled checks fail, and the lazy twin
    # draws the same triples (three seeded rng.integers calls), so it
    # reports the same witnesses
    z = zmod(1100, limits=TABLE)
    mul = np.array(z.mul_table)
    mul[7] = (mul[7] + 1) % 1100
    table = FiniteRing(1100, 1, "corrupted", add_table=z.add_table, mul_table=mul)
    lazy = FiniteRing(1100, 1, "corrupted", add_fn=lambda x, y: z.add_table[x, y],
                      mul_fn=lambda x, y: mul[x, y], neg_fn=lambda x: z.neg_table[x])
    report = verify_axioms(table)
    assert not report.passed and report.checks == verify_axioms(lazy).checks
    sampled = {c.name: c.witness for c in report.failures() if c.policy == "sampled"}
    assert sampled == {"mul-associative": (76, 7, 465), "left-distributive": (7, 152, 309),
                       "right-distributive": (76, 7, 465)}


ALL_LAZY = Limits(max_order=256, table_threshold=1)


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_random_expressions_agree_with_all_lazy_twin(seed, depth):
    text = format_expr(random_ring_expr(random.Random(seed), depth))
    try:
        table = parse_and_build(text, Limits(max_order=256))
    except (LimitError, ArgumentError):
        assume(False)
    lazy = parse_and_build(text, ALL_LAZY)
    assert lazy.mode == "lazy"
    sets = structural_sets(table)
    assert structural_sets(lazy) == sets
    assert classify(lazy) == classify(table)
    assert verify_axioms(lazy).checks == verify_axioms(table).checks
    u, j, sqrt_j, nil = sets[:4]
    assert not u & sqrt_j
    assert nil | j <= sqrt_j
    # the paper's C9: sqrtJU iff 2-sqrtJU and 1 + 1 in J
    verdicts = classify(table).verdicts
    two = table.add(table.one, table.one)
    assert verdicts["sqrtJU"] == (verdicts["2-sqrtJU"] and two in j)
    # TE(R) = R + M with M^2 = 0: (x, m) -> x * |R| + m is a unit iff x
    # is, and lies in J iff x does
    if table.order <= 16:
        te = trivial_extension(table)
        q = table.order
        assert units(te).members == {x * q + m for x in u for m in range(q)}
        assert jacobson(te).members == {x * q + m for x in j for m in range(q)}


def test_block_offsets_in_reported_witnesses():
    # Not a ring: add(x, y) = 7 exactly when x > y >= 1000, else 0.  At
    # order 1500 a block holds fewer than 1000 rows, and row 1000 is not
    # the first of its block, so both first failures lie inside a later
    # block.
    n = 1500
    odd = FiniteRing(n, 1, "odd", add_fn=lambda x, y: np.where((x > y) & (y >= 1000), 7, 0),
                     mul_fn=lambda x, y: 0 * (x + y), neg_fn=lambda x: 0 * x)
    rows = block_rows(n)
    assert rows < 1000 and 1000 % rows
    commutative = verify_axioms(odd).checks[0]
    assert commutative.name == "add-commutative" and commutative.witness == (1000, 1001)
    with pytest.raises(ArgumentError, match=r"not closed under addition: 1001 \+ 1000 = 7$"):
        quotient(odd, set(range(n)) - {7})


def storage_reads(path: Path) -> list[str]:
    """Each attribute read of a ring's storage mode or stored tables, or of
    ``table_threshold``, the setting that picks the mode, in ``path``, as
    "file:line .attr"."""
    storage = {"mode", "add_table", "mul_table", "neg_table", "table_threshold"}
    return [f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in storage]


def test_only_core_reads_the_storage_mode():
    # Everything outside core.py reads a ring through add_arr/mul_arr/
    # neg_arr and blocks(), and builds one through core.stored_ring, so the
    # rule that picks a ring's mode is written once; passing tables to
    # FiniteRing(...) as keyword arguments is no read.
    package = Path(finring.__file__).parent
    reads = [r for path in sorted(package.glob("*.py")) if path.name != "core.py"
             for r in storage_reads(path)]
    assert reads == []
    # the scan sees what it looks for
    attrs = {r.split(".")[-1] for r in storage_reads(package / "core.py")}
    assert attrs >= {"mode", "table_threshold"}


def test_verify_suite_agrees_across_modes():
    # every corpus ring lazy: each claim instance, quotient by {0}, corner
    # at 1 and subring equal to R computes through a lazy parent
    table = run_suite(default_corpus())
    lazy = run_suite(default_corpus(), limits=LAZY)
    strip = lambda report: [(r.claim_id, r.title, r.domain, r.records) for r in report.results]
    assert table.all_passed and len(table.results) == 19
    assert strip(lazy) == strip(table)
    assert lazy.axiom_records == table.axiom_records

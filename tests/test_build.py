from math import lcm

import numpy as np
import pytest

from finring import (
    ArgumentError,
    FiniteRing,
    LimitError,
    Limits,
    bt,
    classify,
    corner,
    gf,
    group_ring,
    jacobson,
    matrix_ring,
    poly_quotient,
    product,
    quotient,
    subring_closure,
    trivial_extension,
    upper_triangular,
    zmod,
)
from finring import core
from finring.build import smallest_irreducible
from finring.core import table_dtype
from finring.groups import cyclic, symmetric_3

from helpers import group_ring_mul_oracle, mat_decode, mat_index, mat_mul_oracle


def same_verdicts(r1, r2) -> bool:
    return classify(r1).verdicts == classify(r2).verdicts


def test_zmod():
    r = zmod(5)
    assert (r.order, r.zero, r.one) == (5, 0, 1)
    assert r.label == "Z/5"
    with pytest.raises(ArgumentError):
        zmod(0)


def test_gf_irreducible_choice():
    assert smallest_irreducible(2, 2) == [1, 1, 1]        # x^2 + x + 1
    assert smallest_irreducible(3, 2) == [1, 0, 1]        # x^2 + 1
    assert smallest_irreducible(2, 3) == [1, 1, 0, 1]     # x^3 + x + 1
    assert smallest_irreducible(2, 1) == [0, 1]           # x


def test_gf_fields():
    f4 = gf(2, 2)
    assert f4.order == 4
    # every nonzero element invertible, multiplicative group cyclic of order 3
    assert all(any(f4.mul(x, y) == 1 for y in range(4)) for x in range(1, 4))
    g = 2  # the residue x
    assert f4.mul(g, g) == 3  # x^2 = x + 1
    f9 = gf(3, 2)
    assert f9.order == 9 and f9.characteristic() == 3
    # GF(p, 1) has the same tables as Z/p
    f3 = gf(3, 1)
    assert np.array_equal(f3.mul_table, zmod(3).mul_table)
    with pytest.raises(ArgumentError):
        gf(4, 2)
    with pytest.raises(LimitError):
        gf(2, 20)


def test_product_encoding_and_characteristic():
    p = product(zmod(2), zmod(3))
    assert p.order == 6
    assert p.one == 1 * 3 + 1
    # (1, 2) + (1, 2) = (0, 1)
    assert p.add(5, 5) == 1
    for n in (3, 4, 9):
        r = product(zmod(n), zmod(2))
        assert r.characteristic() == lcm(n, 2)
    assert same_verdicts(product(zmod(2), zmod(3)), zmod(6))


def test_matrix_ring_against_inline_oracle():
    q, m = 3, 2
    ring = matrix_ring(m, zmod(q))
    assert ring.order == 81
    assert ring.one == mat_index((1, 0, 0, 1), q)
    for a in range(81):
        fa = mat_decode(a, m, q)
        for b in range(81):
            fb = mat_decode(b, m, q)
            assert ring.mul(a, b) == mat_index(mat_mul_oracle(fa, fb, m, q), q)
            assert ring.add(a, b) == mat_index(tuple((x + y) % q for x, y in zip(fa, fb)), q)


def test_matrix_ring_m1_is_base():
    base = zmod(7)
    ring = matrix_ring(1, base)
    assert np.array_equal(ring.add_table, base.add_table)
    assert np.array_equal(ring.mul_table, base.mul_table)
    assert ring.one == base.one


def test_upper_triangular_against_inline_oracle():
    q = 3
    ring = upper_triangular(2, zmod(q))
    assert ring.order == 27
    # coords (a, b, d) for [[a, b], [0, d]], a least significant
    def enc(a, b, d):
        return a + b * q + d * q * q
    def dec(i):
        return (i % q, (i // q) % q, i // (q * q))
    assert ring.one == enc(1, 0, 1)
    for i in range(27):
        a1, b1, d1 = dec(i)
        for j in range(27):
            a2, b2, d2 = dec(j)
            expected = enc((a1 * a2) % q, (a1 * b2 + b1 * d2) % q, (d1 * d2) % q)
            assert ring.mul(i, j) == expected


def test_trivial_extension_units_have_explicit_inverse():
    r = trivial_extension(zmod(9))
    q = 9
    # (1, m) * (1, -m) = (1, 0) = one
    for m in range(q):
        lhs = r.mul(1 * q + m, 1 * q + (9 - m) % 9)
        assert lhs == r.one == 1 * q + 0


def test_trivial_extension_mul_formula():
    base = zmod(4)
    r = trivial_extension(base)
    for x in range(4):
        for m in range(4):
            for y in range(4):
                for n in range(4):
                    got = r.mul(x * 4 + m, y * 4 + n)
                    expected = (x * y % 4) * 4 + (x * n + m * y) % 4
                    assert got == expected


def test_bt_is_nested_trivial_extension():
    base = zmod(3)
    b = bt(base)
    nested = trivial_extension(trivial_extension(base))
    assert b.order == 81
    assert np.array_equal(b.add_table, nested.add_table)
    assert np.array_equal(b.mul_table, nested.mul_table)
    assert b.one == nested.one == 27


def test_first_coordinate_projection_is_hom():
    # TE and BT project onto the base ring through their leading coordinate
    base = zmod(4)
    te = trivial_extension(base)
    q = base.order
    proj = lambda i: i // q
    assert sorted({proj(i) for i in range(te.order)}) == list(range(q))
    for a in range(te.order):
        for b in range(te.order):
            assert proj(te.add(a, b)) == base.add(proj(a), proj(b))
            assert proj(te.mul(a, b)) == base.mul(proj(a), proj(b))
    b4 = bt(zmod(2))
    projb = lambda i: i // 8
    for a in range(b4.order):
        for c in range(b4.order):
            assert projb(b4.mul(a, c)) == zmod(2).mul(projb(a), projb(c))


def test_poly_quotient():
    r = poly_quotient(zmod(2), [0, 0, 1])  # x^2
    assert r.order == 4
    assert same_verdicts(r, trivial_extension(zmod(2)))
    field = poly_quotient(zmod(2), [1, 1, 1])  # x^2 + x + 1 irreducible
    assert all(any(field.mul(x, y) == 1 for y in range(4)) for x in range(1, 4))
    degree1 = poly_quotient(zmod(6), [0, 1])  # R[x]/(x)
    assert same_verdicts(degree1, zmod(6))
    with pytest.raises(ArgumentError):
        poly_quotient(zmod(4), [0, 2])  # non-monic
    with pytest.raises(ArgumentError):
        poly_quotient(zmod(4), [1])  # degree 0


def test_poly_quotient_nontrivial_reduction():
    # modulus x^2 - 1 over Z/5: multiplication must fold x^2 back to 1
    r = poly_quotient(zmod(5), [zmod(5).neg(1), 0, 1])
    x = 5  # the residue x = coords (0, 1)
    assert r.mul(x, x) == 1
    # modulus x^3 = x + 1 over Z/2: x * x^2 reduces through the table
    f8 = poly_quotient(zmod(2), [1, 1, 0, 1])
    x = 2
    assert f8.mul(f8.mul(x, x), x) == 3  # x^3 = 1 + x -> coords (1, 1, 0)


def test_group_ring_against_inline_oracle():
    base = zmod(3)
    g = symmetric_3()
    ring = group_ring(base, g, materialize=False)
    assert ring.order == 3 ** 6 and ring.mode == "lazy"
    table = [[g.op(i, j) for j in range(6)] for i in range(6)]
    rng = np.random.default_rng(7)
    def dec(i):
        return tuple((i // 3 ** t) % 3 for t in range(6))
    def enc(c):
        return sum(v * 3 ** t for t, v in enumerate(c))
    for a, b in rng.integers(0, ring.order, size=(200, 2)):
        expected = enc(group_ring_mul_oracle(dec(int(a)), dec(int(b)), table, 3))
        assert ring.mul(int(a), int(b)) == expected


def test_group_ring_small_values():
    r = group_ring(zmod(2), cyclic(2))
    assert r.order == 4 and r.one == 1
    g = 2  # 0 + 1*g
    assert r.mul(g, g) == 1
    assert r.add(1, 2) == 3  # 1 + g


def test_quotient():
    q = quotient(zmod(12), [0, 4, 8])
    assert q.ring.order == 4
    assert same_verdicts(q.ring, zmod(4))
    assert q.projection[0] == 0 and q.projection[4] == 0
    # projection is a surjective homomorphism with kernel exactly I
    parent = zmod(12)
    for a in range(12):
        for b in range(12):
            assert q.projection[parent.add(a, b)] == q.ring.add(q.projection[a], q.projection[b])
            assert q.projection[parent.mul(a, b)] == q.ring.mul(q.projection[a], q.projection[b])
    assert {x for x in range(12) if q.projection[x] == 0} == {0, 4, 8}

    trivial = quotient(zmod(6), [0])
    assert np.array_equal(trivial.ring.add_table, zmod(6).add_table)

    z4 = zmod(4)
    qj = quotient(z4, jacobson(z4))
    assert qj.ring.order == 2

    with pytest.raises(ArgumentError) as err:
        quotient(zmod(12), [0, 4])  # not closed under addition
    assert "not closed" in str(err.value)
    with pytest.raises(ArgumentError):
        quotient(zmod(12), range(12))  # contains 1: zero ring


def test_corner():
    m2 = matrix_ring(2, zmod(2))
    c = corner(m2, 1)  # E11
    assert c.ring.order == 2
    assert c.embedding == (0, 1)
    assert same_verdicts(c.ring, zmod(2))
    whole = corner(m2, m2.one)
    assert whole.ring.order == 16
    p = product(zmod(2), zmod(3))
    cp = corner(p, 3)  # the idempotent (1, 0)
    assert same_verdicts(cp.ring, zmod(2))
    with pytest.raises(ArgumentError):
        corner(m2, 0)
    with pytest.raises(ArgumentError):
        corner(m2, 2)  # E12 is not idempotent
    # the embedding preserves both operations and maps 1 to e
    sub = corner(m2, 1)
    emb = sub.embedding
    assert emb[sub.ring.one] == 1
    for a in range(sub.ring.order):
        for b in range(sub.ring.order):
            assert emb[sub.ring.add(a, b)] == m2.add(emb[a], emb[b])
            assert emb[sub.ring.mul(a, b)] == m2.mul(emb[a], emb[b])


def test_subring_closure():
    m2 = matrix_ring(2, zmod(2))
    s = subring_closure(m2, [2])  # E12
    assert s.embedding == (0, 2, 9, 11)
    prime = subring_closure(zmod(12), [])
    assert prime.ring.order == zmod(12).characteristic() == 12
    prime8 = subring_closure(matrix_ring(2, zmod(2)), [])
    assert prime8.ring.order == 2
    s6 = subring_closure(zmod(6), [3])
    assert s6.embedding == (0, 1, 2, 3, 4, 5)
    # embedding is a ring homomorphism fixing 1
    emb = s.embedding
    assert emb[s.ring.one] == m2.one
    for a in range(s.ring.order):
        for b in range(s.ring.order):
            assert emb[s.ring.add(a, b)] == m2.add(emb[a], emb[b])
            assert emb[s.ring.mul(a, b)] == m2.mul(emb[a], emb[b])


def test_order_limits():
    with pytest.raises(LimitError):
        matrix_ring(2, zmod(11))  # 11^4 = 14641 > 10000
    with pytest.raises(LimitError):
        bt(zmod(11))
    with pytest.raises(LimitError):
        group_ring(zmod(10), cyclic(5))


def test_encoding_roundtrip():
    # decode/encode identity for the documented positional encodings,
    # and componentwise addition read through them
    cases = [
        (matrix_ring(2, zmod(3)), [(1, 3), (3, 3), (9, 3), (27, 3)]),
        (group_ring(zmod(4), cyclic(2)), [(1, 4), (4, 4)]),
        (trivial_extension(zmod(5)), [(5, 5), (1, 5)]),
        (product(zmod(4), zmod(3)), [(3, 4), (1, 3)]),
    ]
    for ring, layout in cases:
        def decode(idx):
            return [(idx // w) % r for w, r in layout]
        def encode(coords):
            return sum(c * w for c, (w, _) in zip(coords, layout))
        for idx in range(ring.order):
            assert encode(decode(idx)) == idx
        for a in range(0, ring.order, 7):
            for b in range(0, ring.order, 5):
                got = decode(ring.add(a, b))
                expected = [(ca + cb) % r for ca, cb, (_, r) in zip(decode(a), decode(b), layout)]
                assert got == expected


def op_tables(ring):
    return ring.add_table, ring.mul_table, ring.neg_table


def scalar_op_tables(ring):
    n = range(ring.order)
    return (np.array([[ring.add(x, y) for y in n] for x in n]),
            np.array([[ring.mul(x, y) for y in n] for x in n]),
            np.array([ring.neg(x) for x in n]))


# One input per coordinate construction, orders <= 81.  TE has the
# weights [q, 1]; bases with q >= 3 fill rows c * e_i with c >= 2.
AGREEMENT_CASES = {
    "M(2, Z/3)": lambda m: matrix_ring(2, zmod(3), materialize=m),
    "UT(3, Z/2)": lambda m: upper_triangular(3, zmod(2), materialize=m),
    "TE(Z/9)": lambda m: trivial_extension(zmod(9), materialize=m),
    "BT(Z/3)": lambda m: bt(zmod(3), materialize=m),
    "GF(3, 3)": lambda m: gf(3, 3, materialize=m),
    "NIL(Z/4, 3)": lambda m: poly_quotient(zmod(4), [0, 0, 0, 1], materialize=m),
    "POLYQ(Z/4, [1, 1, 1])": lambda m: poly_quotient(zmod(4), [1, 1, 1], materialize=m),
    "GR(Z/2, S3)": lambda m: group_ring(zmod(2), symmetric_3(), materialize=m),
    # a non-cyclic base additive group (c up to 8), and a noncommutative base
    "TE(GF(3, 2))": lambda m: trivial_extension(gf(3, 2), materialize=m),
    "TE(UT(2, Z/2))": lambda m: trivial_extension(upper_triangular(2, zmod(2)), materialize=m),
    # products: a Kronecker sum of the factor tables in table mode
    "M(2, Z/2) x UT(2, Z/3)": lambda m: product(
        matrix_ring(2, zmod(2)), upper_triangular(2, zmod(3)), materialize=m),
    "Z/2 x (TE(Z/2) x Z/3)": lambda m: product(
        zmod(2), product(trivial_extension(zmod(2)), zmod(3)), materialize=m),
}


def test_modes_agree_matrix():
    # The lazy ring runs the coordinate formula pair by pair, so it is an
    # independent reference for the table build's distributive fill.
    for label, make in AGREEMENT_CASES.items():
        table, lazy = make(True), make(False)
        assert table.mode == "table" and lazy.mode == "lazy", label
        for got, want in zip(op_tables(table), scalar_op_tables(lazy)):
            assert np.array_equal(got, want), label


def test_blocked_fill_matches_formula(monkeypatch):
    # At 200 entries a block the fill of an order-n ring runs 200 // n rows
    # a block (2 at order 81), so its upper weight steps take several
    # blocks for each generator row.  The lazy twin's broadcast formula is
    # the reference.
    monkeypatch.setattr(core, "AXIOM_BLOCK_ELEMENTS", 200)
    for label, make in AGREEMENT_CASES.items():
        table, lazy = make(True), make(False)
        every = np.arange(table.order)
        for op in ("add", "mul"):
            assert np.array_equal(table.row_block(op, 0, table.order),
                                  lazy.row_block(op, 0, lazy.order)), (label, op)
        assert np.array_equal(table.neg_table, lazy.neg_arr(every)), label


def test_table_build_runs_formula_on_generator_pairs_only():
    # The multiplication formula runs on G x G, G = {0} u {c * e_i} of
    # 1 + (q - 1) * k elements; distributivity fills the rest.  A lazy base
    # that records the size of every multiplication it is asked for bounds
    # the number of pairs the formula saw.
    z3 = zmod(3, materialize=False)
    sizes = []

    def counting_mul(x, y):
        sizes.append(np.broadcast(x, y).size)
        return z3.mul_arr(x, y)

    base = FiniteRing(3, 1, "Z/3", add_fn=z3.add_arr, mul_fn=counting_mul, neg_fn=z3.neg_arr)
    cases = [
        ("M(2, Z/3)", 4, lambda b: matrix_ring(2, b, materialize=True)),
        ("UT(2, Z/3)", 3, lambda b: upper_triangular(2, b, materialize=True)),
        ("TE(Z/3)", 2, lambda b: trivial_extension(b, materialize=True)),
        ("NIL(Z/3, 3)", 3, lambda b: poly_quotient(b, [0, 0, 0, 1], materialize=True)),
    ]
    for label, k, make in cases:
        sizes.clear()
        ring = make(base)
        assert sizes and max(sizes) <= (1 + 2 * k) ** 2, label
        for got, want in zip(op_tables(ring), op_tables(make(zmod(3)))):
            assert np.array_equal(got, want), label


def test_table_ring_over_lazy_base_matches_table_twin():
    pairs = [
        (trivial_extension(zmod(9, materialize=False), materialize=True),
         trivial_extension(zmod(9))),
        (upper_triangular(2, zmod(5, materialize=False), materialize=True),
         upper_triangular(2, zmod(5))),
        (product(upper_triangular(2, zmod(3), materialize=False), zmod(4), materialize=True),
         product(upper_triangular(2, zmod(3)), zmod(4))),
    ]
    for over_lazy, twin in pairs:
        assert over_lazy.mode == "table" and twin.mode == "table"
        for got, want in zip(op_tables(over_lazy), op_tables(twin)):
            assert np.array_equal(got, want), twin.label


def test_derived_rings_from_lazy_parent_match_table_twin():
    # quotient, corner, and subring closure must work off scalar ops too
    table = group_ring(zmod(2), cyclic(2), materialize=True)
    lazy = group_ring(zmod(2), cyclic(2), materialize=False)
    qt = quotient(table, [0, 3])
    ql = quotient(lazy, [0, 3])
    assert ql.projection == qt.projection
    assert np.array_equal(ql.ring.add_table, qt.ring.add_table)
    assert np.array_equal(ql.ring.mul_table, qt.ring.mul_table)
    with pytest.raises(ArgumentError):
        quotient(lazy, [0, 1])

    ptable = product(zmod(2), zmod(3), materialize=True)
    plazy = product(zmod(2), zmod(3), materialize=False)
    ct, cl = corner(ptable, 3), corner(plazy, 3)
    assert ct.embedding == cl.embedding
    assert np.array_equal(ct.ring.mul_table, cl.ring.mul_table)
    st, sl = subring_closure(ptable, [3]), subring_closure(plazy, [3])
    assert st.embedding == sl.embedding
    assert np.array_equal(st.ring.add_table, sl.ring.add_table)


def test_tables_are_int16_and_read_only():
    assert table_dtype(32767) == np.int16 and table_dtype(32768) == np.int32
    m2 = matrix_ring(2, zmod(3))
    rings = [
        zmod(7), m2, gf(2, 4), trivial_extension(zmod(4)), upper_triangular(2, zmod(3)),
        group_ring(zmod(2), symmetric_3()), product(zmod(4), m2),
        product(zmod(3, materialize=False), zmod(5), materialize=True),
        quotient(zmod(12), [0, 4, 8]).ring, corner(m2, 1).ring, subring_closure(m2, [2]).ring,
    ]
    for ring in rings:
        assert ring.mode == "table", ring.label
        for table in op_tables(ring):
            assert table.dtype == np.int16 and not table.flags.writeable, ring.label


def test_lazy_product_beyond_int16_indices():
    # Z/200 x Z/200 has order 40000 > 32767 over int16 factor tables, so
    # a * 200 + b must be formed in a wider dtype than the factors' values.
    ring = product(zmod(200), zmod(200), limits=Limits(max_order=40000))
    assert ring.mode == "lazy" and zmod(200).add_table.dtype == np.int16
    x, y = np.random.default_rng(40000).integers(0, 40000, size=(2, 3000))
    (a, b), (c, d) = divmod(x, 200), divmod(y, 200)
    assert np.array_equal(ring.add_arr(x, y), (a + c) % 200 * 200 + (b + d) % 200)
    assert np.array_equal(ring.mul_arr(x, y), a * c % 200 * 200 + b * d % 200)
    assert np.array_equal(ring.neg_arr(x), -a % 200 * 200 + -b % 200)
    for i in range(20):
        assert ring.mul(int(x[i]), int(y[i])) == a[i] * c[i] % 200 * 200 + b[i] * d[i] % 200

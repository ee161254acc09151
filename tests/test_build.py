import io
import tracemalloc
from math import lcm

import numpy as np
import pytest

from finring import (
    DEFAULT_LIMITS,
    ArgumentError,
    FiniteRing,
    LimitError,
    Limits,
    bt,
    classify,
    corner,
    default_corpus,
    dump_tables,
    generators,
    gf,
    group_ring,
    is_division,
    jacobson,
    matrix_ring,
    parse_and_build,
    poly_quotient,
    product,
    quotient,
    subring_closure,
    trivial_extension,
    units,
    upper_triangular,
    verify_axioms,
    zmod,
)
from finring import analysis, build, cli, core
from finring.build import smallest_irreducible
from finring.core import grow_span, table_dtype
from finring.groups import cyclic, group_product, symmetric_3

from helpers import (
    LAZY,
    TABLE,
    c3_pairs,
    componentwise_sum,
    coset_representatives,
    every_principal_ideal_in_j,
    group_ring_mul_oracle,
    group_ring_mul_over,
    little_endian_coords,
    mat_decode,
    mat_index,
    mat_mul_oracle,
    matrix_mul_over,
    poly_mul_over,
    relabelled,
    stored_tables,
    trivial_extension_mul_over,
    upper_triangular_mul_over,
)


def same_verdicts(r1, r2) -> bool:
    return classify(r1).verdicts == classify(r2).verdicts


def test_zmod():
    r = zmod(5)
    assert (r.order, r.zero, r.one) == (5, 0, 1)
    assert r.label == "Z/5"
    with pytest.raises(ArgumentError):
        zmod(0)


# The canonical modulus of every GF(p, k), k >= 2, within the default
# order limit, as the encoding integer of its lower coefficients (read
# little-endian in base p).  It fixes every GF element encoding, table
# dump and witness index, so these values are part of the interface.
GF_MODULI = {
    (2, 2): 3, (2, 3): 3, (2, 4): 3, (2, 5): 5, (2, 6): 3, (2, 7): 3, (2, 8): 27,
    (2, 9): 3, (2, 10): 9, (2, 11): 5, (2, 12): 9, (2, 13): 27,
    (3, 2): 1, (3, 3): 7, (3, 4): 5, (3, 5): 7, (3, 6): 5, (3, 7): 11, (3, 8): 11,
    (5, 2): 2, (5, 3): 6, (5, 4): 2, (5, 5): 21, (7, 2): 1, (7, 3): 2, (7, 4): 8,
    (11, 2): 1, (11, 3): 15, (13, 2): 2, (13, 3): 2, (17, 2): 3, (17, 3): 20,
    (19, 2): 1, (19, 3): 2, (23, 2): 1, (29, 2): 2, (31, 2): 1, (37, 2): 2,
    (41, 2): 3, (43, 2): 1, (47, 2): 1, (53, 2): 2, (59, 2): 1, (61, 2): 2,
    (67, 2): 1, (71, 2): 1, (73, 2): 5, (79, 2): 1, (83, 2): 1, (89, 2): 3,
    (97, 2): 5,
}


def test_gf_irreducible_choice():
    cases = {(p, k) for p in range(2, 101) if build.is_prime(p) for k in range(2, 14)
             if p ** k <= DEFAULT_LIMITS.max_order}
    assert set(GF_MODULI) == cases and len(cases) == 51
    for (p, k), enc in GF_MODULI.items():
        assert smallest_irreducible(p, k) == [*little_endian_coords(enc, k, p), 1], (p, k)
    assert smallest_irreducible(2, 2) == [1, 1, 1]        # x^2 + x + 1
    assert smallest_irreducible(3, 2) == [1, 0, 1]        # x^2 + 1
    assert smallest_irreducible(2, 3) == [1, 1, 0, 1]     # x^3 + x + 1
    assert smallest_irreducible(2, 1) == [0, 1]           # x


def test_irreducible_exactly_when_the_quotient_is_a_field():
    # F_p[x]/(f) is a division ring iff the monic f is irreducible: checked
    # for every monic f of degree k >= 2 with p^k <= 64, and the first
    # such f in encoding order is the canonical modulus
    checked = 0
    for p, k in [(p, k) for p in (2, 3, 5, 7) for k in range(2, 7) if p ** k <= 64]:
        polys = [[*little_endian_coords(enc, k, p), 1] for enc in range(p ** k)]
        fields = [f for f in polys if is_division(poly_quotient(zmod(p), f))]
        for f in polys:
            assert build._is_irreducible(tuple(f), p) == (f in fields), (p, f)
        assert fields[0] == smallest_irreducible(p, k), (p, k)
        checked += len(polys)
    assert checked == 234


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
    # p < 2 is no prime, whatever the degree; the size check reads p as a
    # base >= 2, so it must not see it first
    for p, k in [(1, 100000), (-3, 14), (0, 2)]:
        with pytest.raises(ArgumentError, match=f"GF needs a prime, got {p}$"):
            gf(p, k)


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
    # R[x]/(x - 1): x = 1, and a product of constants has no slot of
    # degree 1 to fold, so the tables are Z/6's in both modes
    for limits in (TABLE, LAZY):
        shifted = poly_quotient(zmod(6), [5, 1], limits=limits)
        for got, want in zip(scalar_op_tables(shifted), op_tables(zmod(6))):
            assert np.array_equal(got, want), limits
    # non-monic, degree 0, and coefficients outside the centre {0, 5} of
    # UT(2, Z/2) and {0, 9} of M(2, Z/2)
    for base, coeffs in ((zmod(4), [0, 2]), (zmod(4), [1]),
                         (upper_triangular(2, zmod(2)), [2, 0, 5]),
                         (matrix_ring(2, zmod(2)), [2, 0, 9])):
        with pytest.raises(ArgumentError, match="monic|degree|index 2 is not central"):
            poly_quotient(base, coeffs)


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
    ring = group_ring(base, g, limits=LAZY)
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


# UT(2, Z/2) is the smallest noncommutative base: coordinates (a, b, d) of
# [[a, b], [0, d]], index a + 2b + 4d, identity 5, centre {0, 5}.
UT2 = upper_triangular(2, zmod(2))
NONCOMMUTATIVE_BASE_CASES = {
    # label: (build in a mode, k, oracle on little-endian coordinate tuples)
    "M(2, UT(2, Z/2))": (lambda m: matrix_ring(2, UT2, limits=m), 4,
                         lambda a, b: matrix_mul_over(UT2, a, b, 2)),
    "UT(2, UT(2, Z/2))": (lambda m: upper_triangular(2, UT2, limits=m), 3,
                          lambda a, b: upper_triangular_mul_over(UT2, a, b, 2)),
    # TE's little-endian coordinates are (m, x)
    "TE(UT(2, Z/2))": (lambda m: trivial_extension(UT2, limits=m), 2,
                       lambda a, b: trivial_extension_mul_over(UT2, a[::-1], b[::-1])[::-1]),
    # x^3 + x + 1, central coefficients; products reach x^4, so two slots fold
    "POLYQ(UT(2, Z/2), [5, 5, 0, 5])": (
        lambda m: poly_quotient(UT2, [5, 5, 0, 5], limits=m), 3,
        lambda a, b: poly_mul_over(UT2, a, b, [5, 5, 0, 5])),
    "GR(UT(2, Z/2), C3)": (lambda m: group_ring(UT2, cyclic(3), limits=m), 3,
                           lambda a, b: group_ring_mul_over(UT2, a, b, cyclic(3))),
}


@pytest.mark.parametrize("label", NONCOMMUTATIVE_BASE_CASES)
def test_base_products_are_taken_x_then_y(label):
    # Over a commutative base a construction equals the same construction
    # over the opposite ring, so only a noncommutative base pins the order
    # of the base products.  Every product on order 64, a seeded sample
    # above; M(2, UT(2, Z/2)) (order 4096) is lazy only.
    make, k, oracle = NONCOMMUTATIVE_BASE_CASES[label]
    for limits in (TABLE, LAZY) if UT2.order ** k <= 512 else (LAZY,):
        ring = make(limits)
        if ring.order <= 64:
            x, y = (a.ravel() for a in np.indices((ring.order, ring.order)))
        else:
            x, y = np.random.default_rng(2026).integers(0, ring.order, size=(2, 1500))
        got = ring.mul_arr(x, y)
        for a, b, ab in zip(x.tolist(), y.tolist(), got.tolist()):
            want = oracle(little_endian_coords(a, k, 8), little_endian_coords(b, k, 8))
            assert ab == mat_index(want, 8), (label, ring.mode, a, b)


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


def _assert_quotient_matches_oracle(ring, members):
    # the same representatives, so the same labels
    q = quotient(ring, members)
    rep = coset_representatives(ring, np.asarray(members))
    reps, proj = np.unique(rep, return_inverse=True)
    assert q.projection == tuple(proj.tolist()), (ring.label, len(members))
    assert q.ring.order == len(reps)


def test_coset_representatives_match_all_sums():
    # every quotient verify's C2 takes of the default corpus, and the
    # ideals of seeded pairs from J(R) in two lazy rings of order above
    # 4096, some with several additive generators
    for _, ring in default_corpus().rings(DEFAULT_LIMITS):
        for _, ideal in every_principal_ideal_in_j(ring):
            _assert_quotient_matches_oracle(ring, ideal.array)
    rng = np.random.default_rng(8192)
    for ring in (zmod(8192), trivial_extension(zmod(81))):
        assert ring.mode == "lazy"
        for seeds in rng.choice(jacobson(ring).array, size=(4, 2)).tolist():
            _assert_quotient_matches_oracle(ring, analysis.ideal_closure(ring, seeds).array)


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
    # a coordinate ring too large to count is worded as q^k, as M and GF are
    with pytest.raises(LimitError, match=r"^GR\(Z/3, C64\): order 3\^64 exceeds the limit 10000$"):
        parse_and_build("GR(Z/3, C64)")


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


# One input per coordinate construction, orders <= 256, each laid out
# little-endian; bases with q >= 3 fill rows c * e_i with c >= 2.
AGREEMENT_CASES = {
    "M(2, Z/3)": lambda m: matrix_ring(2, zmod(3), limits=m),
    "UT(3, Z/2)": lambda m: upper_triangular(3, zmod(2), limits=m),
    "TE(Z/9)": lambda m: trivial_extension(zmod(9), limits=m),
    "BT(Z/3)": lambda m: bt(zmod(3), limits=m),
    "GF(3, 3)": lambda m: gf(3, 3, limits=m),
    "NIL(Z/4, 3)": lambda m: poly_quotient(zmod(4), [0, 0, 0, 1], limits=m),
    "POLYQ(Z/4, [1, 1, 1])": lambda m: poly_quotient(zmod(4), [1, 1, 1], limits=m),
    "GR(Z/2, S3)": lambda m: group_ring(zmod(2), symmetric_3(), limits=m),
    # fifteen heads c * e_i a weight, several in one row-fill block; k = 1,
    # a single weight; group-ring slots over q = 3
    "TE(Z/16)": lambda m: trivial_extension(zmod(16), limits=m),
    "POLYQ(Z/7, [3, 1])": lambda m: poly_quotient(zmod(7), [3, 1], limits=m),
    "GR(Z/3, C2 x C2)": lambda m: group_ring(zmod(3), group_product(cyclic(2), cyclic(2)),
                                             limits=m),
    # a non-cyclic base additive group (c up to 8), and a noncommutative base
    "TE(GF(3, 2))": lambda m: trivial_extension(gf(3, 2), limits=m),
    "TE(UT(2, Z/2))": lambda m: trivial_extension(upper_triangular(2, zmod(2)), limits=m),
    # bases that add bit fields, so the fill sums bitwise: carry fields of
    # j > 1 bits, XOR only, and fields of two widths
    "TE(Z/8)": lambda m: trivial_extension(zmod(8), limits=m),
    "TE(GF(2, 2))": lambda m: trivial_extension(gf(2, 2), limits=m),
    "TE(M(2, Z/2))": lambda m: trivial_extension(matrix_ring(2, zmod(2)), limits=m),
    "TE(Z/2 x Z/4)": lambda m: trivial_extension(product(zmod(2), zmod(4)), limits=m),
    # order 8 whose table adds no bit fields, so the fill gathers from ADD
    "TE(Z/8 relabelled 1)": lambda m: trivial_extension(relabelled(zmod(8), 1), limits=m),
    "TE(Z/8 relabelled 2)": lambda m: trivial_extension(relabelled(zmod(8), 2), limits=m),
    # products: a Kronecker sum of the factor tables in table mode
    "M(2, Z/2) x UT(2, Z/3)": lambda m: product(
        matrix_ring(2, zmod(2)), upper_triangular(2, zmod(3)), limits=m),
    "Z/2 x (TE(Z/2) x Z/3)": lambda m: product(
        zmod(2), product(trivial_extension(zmod(2)), zmod(3)), limits=m),
}


# Table rings whose MUL core.stored_ring fills from the multiplication
# formula: Z/n, a quotient, a corner, a generated subring (the diagonal of
# UT(2, Z/4)) and the table twin of a lazy ring.
FORMULA_CASES = {
    "Z/12": lambda m: zmod(12, limits=m),
    "TE(Z/9) mod ideal(9)": lambda m: quotient(
        trivial_extension(zmod(9, limits=m), limits=m), range(9), limits=m).ring,
    "CORNER(M(2, Z/3), 1)": lambda m: corner(matrix_ring(2, zmod(3, limits=m), limits=m), 1,
                                             limits=m).ring,
    "subring(1) of UT(2, Z/4)": lambda m: subring_closure(
        upper_triangular(2, zmod(4, limits=m), limits=m), [1], limits=m).ring,
    "Z/10 twin": lambda m: zmod(10, limits=LAZY).relabelled("Z/10 twin", m),
}


@pytest.mark.parametrize("limits", [DEFAULT_LIMITS, TABLE], ids=["default", "table"])
def test_formula_filled_rings_store_only_mul_and_neg(limits):
    # ADD is stored only where a MUL build makes it, so these rings hold
    # MUL and NEG for life, and each add_table read fills a new table
    for label, make in FORMULA_CASES.items():
        ring = make(limits)
        held = stored_tables(ring)
        assert ring.mode == "table" and len(held) == 2, label
        assert held[0] is ring.mul_table and held[1] is ring.neg_table, label
        sums = ring.add_table
        assert ring.add_table is not sums and np.array_equal(ring.add_table, sums), label


@pytest.mark.parametrize("limits", [TABLE, LAZY], ids=["table", "lazy"])
def test_what_a_ring_stores_is_fixed_at_construction(limits, monkeypatch):
    # the axiom check, the analyses, the table dumps and an add_table read
    # store nothing on the ring: what it stores is fixed when it is built
    def ids(objects):
        return [(k, id(v)) for k, v in objects if k != "_cache"]

    for make in {**AGREEMENT_CASES, **FORMULA_CASES}.values():
        ring = make(limits)
        held, attrs = stored_tables(ring), dict(vars(ring))  # kept alive, so ids stay unique
        verify_axioms(ring)
        classify(ring)
        dump_tables(ring)
        monkeypatch.setattr(cli, "parse_and_build", lambda expr, limits: ring)
        for argv in (["table", "R", "add"], ["table", "--json", "R", "add"]):
            assert cli.main(argv, out=io.StringIO()) == 0, (ring.label, argv)
        ring.add_table
        assert ids(enumerate(stored_tables(ring))) == ids(enumerate(held)), ring.label
        assert ids(vars(ring).items()) == ids(attrs.items()), ring.label


def test_modes_agree_matrix():
    # The lazy ring runs the coordinate formula pair by pair, so it is an
    # independent reference for the table build's distributive fill.
    for label, make in AGREEMENT_CASES.items():
        table, lazy = make(TABLE), make(LAZY)
        assert table.mode == "table" and lazy.mode == "lazy", label
        for got, want in zip(op_tables(table), scalar_op_tables(lazy)):
            assert np.array_equal(got, want), label


def assert_fill_matches_formula(label, make):
    # the lazy twin's broadcast formula is the reference
    table, lazy = make(TABLE), make(LAZY)
    every = np.arange(table.order)
    for op in ("add", "mul"):
        assert np.array_equal(table.row_block(op, 0, table.order),
                              lazy.row_block(op, 0, lazy.order)), (label, op)
    assert np.array_equal(table.neg_table, lazy.neg_arr(every)), label


def test_blocked_fill_matches_formula(monkeypatch):
    # At the library's own block size, M(2, Z/5)'s largest weight step,
    # 125 rows of 625 entries, crosses a block boundary and ends in a
    # partial block.
    rows = core.block_rows(625)
    assert rows < 125 and 125 % rows
    assert_fill_matches_formula("M(2, Z/5)", lambda m: matrix_ring(2, zmod(5), limits=m))
    # At 200 entries a block the fill of an order-n ring runs 200 // n rows
    # a block (2 at order 81), so its upper weight steps take several
    # blocks for each generator row.
    monkeypatch.setattr(core, "BLOCK_ELEMENTS", 200)
    for label, make in AGREEMENT_CASES.items():
        assert_fill_matches_formula(label, make)


def test_add_paths_agree():
    # a table ring's add_arr (stored ADD or the formula), its add_table
    # (stored or filled on each read) and the lazy twin's add_arr, on all
    # pairs
    for label, make in {**AGREEMENT_CASES, **FORMULA_CASES}.items():
        table, lazy = make(TABLE), make(LAZY)
        every = np.arange(table.order)
        sums = table.add_table
        assert sums.dtype == np.int16 and not sums.flags.writeable, label
        for ring in (table, lazy):
            assert np.array_equal(ring.add_arr(every[:, None], every), sums), (label, ring.mode)
        assert (table.add_table is sums) == (len(stored_tables(table)) == 3), label


def test_bitwise_sum_matches_componentwise_oracle():
    # the digit sum of k-digit indices over each bit-field base, against
    # scalar base additions digit by digit
    bases = [zmod(2), zmod(4), zmod(8), gf(2, 2), gf(2, 3), matrix_ring(2, zmod(2)),
             product(zmod(2), zmod(4))]
    for base in bases:
        q = base.order
        for k in (1, 2, 3):
            n = q ** k
            if n > 64:
                continue
            j = q.bit_length() - 1
            high = sum(build._carry_tops(base) << (i * j) for i in range(k))  # top in every digit
            digit_sum = build._bitfield_sum(high, j * k)
            every = np.arange(n)
            got = digit_sum(every[:, None], every)
            want = [[componentwise_sum(base, x, y, k) for y in range(n)] for x in range(n)]
            assert np.array_equal(got, want), (base.label, k)
            assert digit_sum(n - 1, 1) == want[n - 1][1], (base.label, k)  # plain ints


def test_fill_adds_bitwise_exactly_when_the_base_table_adds_bit_fields():
    # The carry-field tops are read from the base's own addition table,
    # so the AGREEMENT_CASES above run both fill paths.
    bit_fields = {"Z/2": (zmod(2), 0b1), "Z/8": (zmod(8), 0b100), "GF(2, 2)": (gf(2, 2), 0b11),
                  "M(2, Z/2)": (matrix_ring(2, zmod(2)), 0b1111),
                  "Z/2 x Z/4": (product(zmod(2), zmod(4)), 0b110),
                  "Z/4 x Z/2": (product(zmod(4), zmod(2)), 0b101)}
    for label, (base, top) in bit_fields.items():
        assert build._carry_tops(base) == top, label
    others = [zmod(9), zmod(6), gf(3, 2)] + [relabelled(zmod(8), s) for s in (1, 2)]
    for base in others:
        assert build._carry_tops(base) is None, base.label


def whole_table_carry_tops(base_add):
    """The carry-field tops of ``base_add`` read by one int64 comparison
    of the whole table: the reference for the blocked check."""
    q = len(base_add)
    if q & (q - 1):
        return None
    top = sum(1 << i for i in range(q.bit_length() - 1) if base_add[1 << i, 1 << i] == 0)
    b = np.arange(q)
    a = b[:, None]
    return top if np.array_equal(base_add, ((a & ~top) + (b & ~top)) ^ ((a ^ b) & top)) else None


def test_carry_tops_by_blocks_matches_the_whole_table_check(monkeypatch):
    # every base an AGREEMENT_CASES build checks, the case rings themselves
    # (several fields a digit), a lazy base, and bases that add no bit
    # fields, against the check of every pair
    inner, bases = build._carry_tops, []
    monkeypatch.setattr(build, "_carry_tops", lambda base: bases.append(base) or inner(base))
    rings = [make(TABLE) for make in AGREEMENT_CASES.values()]
    assert bases  # the recorder saw the builds
    bases += rings + [zmod(1024), zmod(3), zmod(8, limits=LAZY)]
    bases += [relabelled(zmod(8), s) for s in (1, 2)]
    for base in bases:
        every = base.row_block("add", 0, base.order)
        assert inner(base) == whole_table_carry_tops(every), base.label
    # the check holds a few blocks of x + s, not q x q arrays
    base = zmod(1024)
    tracemalloc.start()
    try:
        assert inner(base) == 512
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= core.BLOCK_ELEMENTS * 10, peak


# one factor of size 1, runs of 2 and 3 entries, and T1's rows over
# several blocks: (256, 4), (512, 2) and (64, 3)
@pytest.mark.parametrize("n1, n2", [(128, 2), (2, 128), (3, 1), (1, 3), (7, 5), (2, 2), (16, 16),
                                    (32, 32), (4, 256), (2, 512), (256, 4), (512, 2), (64, 3)])
def test_kron_sum_matches_int64_reference(n1, n2):
    rng = np.random.default_rng(n1 * 1000 + n2)
    t1 = rng.integers(0, n1, size=(n1, n1)).astype(np.int16)
    t2 = rng.integers(0, n2, size=(n2, n2)).astype(np.int16)
    want = t1.astype(np.int64)[:, None, :, None] * n2 + t2[None, :, None, :]
    got = build._kron_sum(t1, t2)
    assert got.dtype == table_dtype(n1 * n2) and not got.flags.writeable
    assert np.array_equal(got, want.reshape(n1 * n2, n1 * n2))


@pytest.mark.parametrize("n1, n2", [(512, 2), (256, 4)])
def test_kron_sum_holds_t1_and_row_blocks_above_its_table(n1, n2):
    # Above the table it returns, a Kronecker sum holds T1 * |T2| and the
    # repeated rows of T1 it adds, one block at a time: at most two int16
    # row blocks of BLOCK_ELEMENTS entries.
    t1 = np.arange(n1 * n1, dtype=np.int16).reshape(n1, n1) % n1
    t2 = np.arange(n2 * n2, dtype=np.int16).reshape(n2, n2) % n2
    tracemalloc.start()
    try:
        table = build._kron_sum(t1, t2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = t1.size * table.itemsize + 2 * core.BLOCK_ELEMENTS * 2
    assert peak - table.nbytes <= bound, peak - table.nbytes


def test_table_build_runs_formula_on_generator_pairs_only(monkeypatch):
    # The table build writes its head rows c * e_i from the base's q x q
    # products, and distributivity fills the rest.  A lazy base that
    # records the size of every multiplication it is asked for bounds the
    # pairs it saw, and the number of its calls inside the build: one for
    # the products and one for the folds of POLYQ's reduce, whatever q is,
    # so no loop over c or over the terms asks the base.
    inner, reduce_len, sizes = build._coord_ring, [], []

    def coord_ring(base, k, one_coords, terms, label, limits, reduce=()):
        sizes.clear()  # the build's own calls, not POLYQ's centrality check
        reduce_len.append(len(reduce))
        return inner(base, k, one_coords, terms, label, limits, reduce)

    monkeypatch.setattr(build, "_coord_ring", coord_ring)
    for q in (3, 5):
        zq = zmod(q, limits=LAZY)

        def counting_mul(x, y):
            sizes.append(np.broadcast(x, y).size)
            return zq.mul_arr(x, y)

        base = FiniteRing(q, 1, f"Z/{q}", add_fn=zq.add_arr, mul_fn=counting_mul,
                          neg_fn=zq.neg_arr)
        cases = [
            ("M(2)", 4, lambda b: matrix_ring(2, b, limits=TABLE)),
            ("UT(2)", 3, lambda b: upper_triangular(2, b, limits=TABLE)),
            ("TE", 2, lambda b: trivial_extension(b, limits=TABLE)),
            ("NIL(3)", 3, lambda b: poly_quotient(b, [0, 0, 0, 1], limits=TABLE)),
        ]
        for label, k, make in cases:
            ring = make(base)
            assert sizes and max(sizes) <= (1 + (q - 1) * k) ** 2, (label, q)
            assert len(sizes) <= 1 + reduce_len[-1], (label, q, len(sizes))
            for got, want in zip(op_tables(ring), op_tables(make(zmod(q)))):
                assert np.array_equal(got, want), (label, q)
    assert reduce_len.count(2) == 4  # NIL(3) folds x^3 and x^4, over each base


def test_table_builds_never_negate_every_element(monkeypatch):
    # A product's and a coordinate ring's table builders return NEG, so
    # neither ring calls its neg_fn over every element; a ring with no
    # builder (Z/n, a quotient, a corner, a subring, a lazy ring's table
    # twin) reads NEG off it.
    inner, sizes = core.stored_ring, []

    def stored_ring(order, one, label, limits, add_fn, mul_fn, neg_fn, tables=None):
        def counting_neg(x):
            sizes.append((label, np.size(x)))
            return neg_fn(x)
        return inner(order, one, label, limits, add_fn, mul_fn, counting_neg, tables=tables)

    for module in (build, core):
        monkeypatch.setattr(module, "stored_ring", stored_ring)
    for label, make in {**AGREEMENT_CASES, **FORMULA_CASES}.items():
        sizes.clear()
        ring = make(TABLE)
        assert ring.mode == "table", label
        negated_all = (ring.label, ring.order) in sizes
        assert negated_all == (label in FORMULA_CASES), label


def test_table_build_sums_repeated_basis_pairs():
    # A term list may hold a pair (i, j) twice, and the formula then sums
    # both products, as the head rows sum every term of e_i.  Seeded term
    # lists, each with a repeated pair and a term in every slot (the
    # formula reads each), some with a folded slot, agree with the formula
    # over Z/2, Z/4 and Z/3, whose sums are XOR, carry fields and ADD.
    rng = np.random.default_rng(37)
    for base in (zmod(2), zmod(4), zmod(3)):
        for k in (1, 2, 3):
            reduce = rng.integers(0, base.order, size=(int(rng.integers(0, 2)), k)).tolist()
            slots = k + len(reduce)
            terms = [(*rng.integers(0, k, size=2).tolist(), s) for s in range(slots)]
            terms += [tuple(rng.integers(0, (k, k, slots)).tolist()) for _ in range(k)]
            terms.append(terms[0][:2] + (int(rng.integers(0, slots)),))
            rng.shuffle(terms)
            label = f"{terms} over {base.label}, reduce {reduce}"
            assert_fill_matches_formula(label, lambda m: build._coord_ring(
                base, k, [1] + [0] * (k - 1), terms, label, m, reduce))


def test_table_build_reads_an_empty_slot_as_zero():
    # Seeded term lists that leave one coordinate slot and one folded slot
    # without a term: the table build starts MUL at zeros, and the formula
    # reads an empty slot as 0.  Every fold coefficient is nonzero, so the
    # formula reads the empty folded slot too.
    rng = np.random.default_rng(38)
    for base in (zmod(2), zmod(4), zmod(3)):
        for k in (2, 3):
            reduce = rng.integers(1, base.order, size=(2, k)).tolist()
            empty = {int(rng.integers(0, k)), k + int(rng.integers(0, 2))}
            slots = [s for s in range(k + 2) if s not in empty]
            terms = [(*rng.integers(0, k, size=2).tolist(), int(s))
                     for s in slots + rng.choice(slots, size=k).tolist()]
            label = f"{terms} over {base.label}, reduce {reduce}"
            assert_fill_matches_formula(label, lambda m: build._coord_ring(
                base, k, [1] + [0] * (k - 1), terms, label, m, reduce))


def test_table_ring_over_lazy_base_matches_table_twin():
    pairs = [
        (trivial_extension(zmod(9, limits=LAZY), limits=TABLE),
         trivial_extension(zmod(9))),
        (upper_triangular(2, zmod(5, limits=LAZY), limits=TABLE),
         upper_triangular(2, zmod(5))),
        (product(upper_triangular(2, zmod(3), limits=LAZY), zmod(4), limits=TABLE),
         product(upper_triangular(2, zmod(3)), zmod(4))),
    ]
    for over_lazy, twin in pairs:
        assert over_lazy.mode == "table" and twin.mode == "table"
        for got, want in zip(op_tables(over_lazy), op_tables(twin)):
            assert np.array_equal(got, want), twin.label


def test_derived_rings_from_lazy_parent_match_table_twin():
    # quotient, corner, and subring closure must work off scalar ops too
    table = group_ring(zmod(2), cyclic(2), limits=TABLE)
    lazy = group_ring(zmod(2), cyclic(2), limits=LAZY)
    qt = quotient(table, [0, 3])
    ql = quotient(lazy, [0, 3])
    assert ql.projection == qt.projection
    assert np.array_equal(ql.ring.add_table, qt.ring.add_table)
    assert np.array_equal(ql.ring.mul_table, qt.ring.mul_table)
    with pytest.raises(ArgumentError):
        quotient(lazy, [0, 1])

    ptable = product(zmod(2), zmod(3), limits=TABLE)
    plazy = product(zmod(2), zmod(3), limits=LAZY)
    ct, cl = corner(ptable, 3), corner(plazy, 3)
    assert ct.embedding == cl.embedding
    assert np.array_equal(ct.ring.mul_table, cl.ring.mul_table)
    st, sl = subring_closure(ptable, [3]), subring_closure(plazy, [3])
    assert st.embedding == sl.embedding
    assert np.array_equal(st.ring.add_table, sl.ring.add_table)


def identity_derived(ring, limits):
    """R/{0}, the corner at 1 and the subring generated by every element,
    each all of ``ring``, built under ``limits``."""
    every = range(ring.order)
    return {"quotient": quotient(ring, [0], limits=limits).ring,
            "corner": corner(ring, ring.one, limits=limits).ring,
            "subring": subring_closure(ring, every, limits=limits).ring}


def test_identity_derived_table_rings_share_storage_with_a_cache_of_their_own():
    # UT(2, Z/4) stores MUL and NEG, UT(2, Z/3) its ADD as well
    for parent in (upper_triangular(2, zmod(4)), upper_triangular(2, zmod(3))):
        parent_units = units(parent)
        for name, ring in identity_derived(parent, DEFAULT_LIMITS).items():
            assert ring.mode == "table" and ring.label != parent.label, name
            assert list(map(id, stored_tables(ring))) == list(map(id, stored_tables(parent))), name
            assert (ring.order, ring.one) == (parent.order, parent.one)
            assert units(ring) is not parent_units
            assert units(ring).indices() == parent_units.indices()
            assert same_verdicts(ring, parent), name


@pytest.mark.parametrize("parent_limits, derived_limits, mode", [
    (LAZY, LAZY, "lazy"), (LAZY, DEFAULT_LIMITS, "table"), (DEFAULT_LIMITS, LAZY, "lazy")])
def test_identity_derived_ring_mode_follows_its_order_and_limits(parent_limits, derived_limits,
                                                                mode):
    # a lazy twin computes through the parent's formulas; a table twin of
    # a lazy parent (order 64 <= 1024) fills tables of its own
    parent = upper_triangular(2, zmod(4), limits=parent_limits)
    twin = upper_triangular(2, zmod(4), limits=TABLE)
    x = np.arange(parent.order)
    for name, ring in identity_derived(parent, derived_limits).items():
        assert ring.mode == mode, name
        assert np.array_equal(ring.add_arr(x[:, None], x), twin.add_table), name
        assert np.array_equal(ring.mul_arr(x[:, None], x), twin.mul_table), name
        assert np.array_equal(ring.neg_arr(x), twin.neg_table), name
        assert units(ring) is not units(parent) and same_verdicts(ring, parent), name


def boundary_builds(parent_limits):
    """One build of each path through core.stored_ring, keyed by name,
    each a function of the limits the ring is built under; the parents of
    derived rings are built under ``parent_limits``."""
    ut = upper_triangular(2, zmod(4, limits=parent_limits), limits=parent_limits)
    z43 = product(zmod(4), zmod(3), limits=parent_limits)  # (a, b) is a * 3 + b
    return {
        "zmod": lambda m: zmod(12, limits=m),
        "product": lambda m: product(zmod(2), zmod(6), limits=m),
        "coordinate": lambda m: trivial_extension(zmod(3), limits=m),
        "quotient": lambda m: quotient(z43, [0, 6], limits=m).ring,  # by 2Z/4 x 0
        "corner": lambda m: corner(z43, 3, limits=m).ring,  # at (1, 0)
        "subring": lambda m: subring_closure(ut, [2], limits=m).ring,
        **{f"identity {name}": (lambda m, name=name: identity_derived(ut, m)[name])
           for name in ("quotient", "corner", "subring")},
    }


@pytest.mark.parametrize("parent_limits", [DEFAULT_LIMITS, LAZY], ids=["table", "lazy"])
def test_storage_mode_switches_at_the_ring_order(parent_limits):
    # a threshold equal to the ring's order gives tables, one less gives
    # the formula, on every path through the one function that picks it
    for name, make in boundary_builds(parent_limits).items():
        n = make(DEFAULT_LIMITS).order
        table, lazy = make(Limits(table_threshold=n)), make(Limits(table_threshold=n - 1))
        assert (table.mode, lazy.mode) == ("table", "lazy"), name
        every = np.arange(n)
        for op in ("add", "mul"):
            assert np.array_equal(table.row_block(op, 0, n), lazy.row_block(op, 0, n)), name
        assert np.array_equal(table.neg_table, lazy.neg_arr(every)), name


def test_lazy_rings_never_run_the_table_builders(monkeypatch):
    # A case's inner rings built under the default limits are smaller table
    # rings, so a builder fails only when asked for the case's own order.
    cases = {**AGREEMENT_CASES, "Z/4 x Z/5": lambda m: product(zmod(4), zmod(5), limits=m)}
    orders = {label: make(TABLE).order for label, make in cases.items()}
    order = None

    def guard(builder, size):
        def guarded(*args):
            assert size(*args) != order, f"{builder.__name__} ran for a lazy ring"
            return builder(*args)
        return guarded

    monkeypatch.setattr(build, "_coord_tables",
                        guard(build._coord_tables, lambda base, k, *_: base.order ** k))
    monkeypatch.setattr(build, "_kron_sum", guard(build._kron_sum, lambda t1, t2: len(t1) * len(t2)))
    for label, make in cases.items():
        order = orders[label]
        assert make(LAZY).mode == "lazy", label
        with pytest.raises(AssertionError, match="ran for a lazy ring"):  # the guards are live
            make(TABLE)


def test_tables_are_int16_and_read_only():
    assert table_dtype(32767) == np.int16 and table_dtype(32768) == np.int32
    m2 = matrix_ring(2, zmod(3))
    rings = [
        zmod(7), m2, gf(2, 4), trivial_extension(zmod(4)), upper_triangular(2, zmod(3)),
        group_ring(zmod(2), symmetric_3()), product(zmod(4), m2),
        product(zmod(3, limits=LAZY), zmod(5), limits=TABLE),
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


def test_zmod_adds_table_values_without_overflow():
    # A table Z/n adds by its formula, also on int16 values read from its
    # tables; up to n = 32767 their sum must not wrap.  Shown on a lazy
    # Z/32767, as its table would take 2 GB.
    n = 32767
    ring = zmod(n, limits=Limits(max_order=n))
    x, y = np.random.default_rng(n).integers(0, n, size=(2, 3000))
    want = (x + y) % n
    assert np.array_equal(ring.add_arr(x.astype(np.int16), y.astype(np.int16)), want)
    assert ring.add_arr(np.int16(n - 1), np.int16(n - 1)) == n - 2


@pytest.mark.parametrize("limits", [TABLE, LAZY], ids=["table", "lazy"])
def test_coordinate_generators_are_handed_down(limits):
    # S(base) * q^i in each coordinate i: read-only, ascending, and what
    # grow_span takes from {0} over every element; the relabelled bases
    # have an S of their own, from grow_span
    rings = [make(limits) for make in AGREEMENT_CASES.values()]
    rings += [trivial_extension(relabelled(zmod(8), s), limits=limits) for s in (1, 2)]
    for ring in rings:
        s = generators(ring)
        assert not s.flags.writeable and (np.diff(s) > 0).all(), ring
        reached = np.zeros(ring.order, dtype=bool)
        reached[0] = True
        assert np.array_equal(s, grow_span(ring, reached, np.arange(ring.order))), ring


def test_table_build_working_set_stays_within_two_blocks():
    # Above the tables the finished ring stores, a build holds at most one
    # intp index block and one int16 block of BLOCK_ELEMENTS entries.  A
    # degree-1 POLYQ over a big base writes all of its table as head rows,
    # by blocks.  TE(Z/50), UT(2, Z/20), TE(Z/45) and M(2, Z/10) sum
    # through ADD, as their bases add no bit fields; head rows a whole
    # block at a time take TE(Z/50) above the bound, and a NEG read off
    # every element's coordinates takes the last two there.
    bound = core.BLOCK_ELEMENTS * (8 + 2)
    z1024, z50, z20 = zmod(1024), zmod(50, limits=TABLE), zmod(20, limits=TABLE)
    z45, z10 = zmod(45, limits=TABLE), zmod(10, limits=TABLE)
    builds = {
        "TE(Z/50)": lambda: trivial_extension(z50, limits=TABLE),
        "UT(2, Z/20)": lambda: upper_triangular(2, z20, limits=TABLE),
        "TE(Z/45)": lambda: trivial_extension(z45, limits=TABLE),
        "M(2, Z/10)": lambda: matrix_ring(2, z10, limits=TABLE),
        "GF(2, 10)": lambda: gf(2, 10), "TE(Z/32)": lambda: trivial_extension(zmod(32)),
        "TE(Z/27)": lambda: trivial_extension(zmod(27)), "BT(Z/5)": lambda: bt(zmod(5)),
        "UT(3, Z/3)": lambda: upper_triangular(3, zmod(3)),
        "Z/32 x Z/32": lambda: product(zmod(32), zmod(32)),
        "POLYQ(Z/1024, [3, 1])": lambda: poly_quotient(z1024, [3, 1]),
    }
    for label, make in builds.items():
        tracemalloc.start()
        try:
            ring = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = sum(table.nbytes for table in stored_tables(ring))
        assert ring.mode == "table" and peak - tables <= bound, (label, peak - tables)


def test_analysis_holds_no_addition_table():
    # Over a bit-field base and for a product the build stores no ADD, and
    # the structural sets and the classification read only sums they ask
    # for: the peak stays within MUL, NEG and two blocks.
    bound = core.BLOCK_ELEMENTS * (8 + 2)
    sets = (analysis.units, analysis.jacobson, analysis.sqrt_jacobson, analysis.nilpotents,
            analysis.idempotents, analysis.center)
    for label, make in {"GF(2, 10)": lambda: gf(2, 10),
                        "Z/32 x Z/32": lambda: product(zmod(32), zmod(32))}.items():
        tracemalloc.start()
        try:
            ring = make()
            for fn in sets:
                fn(ring)
            classify(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = stored_tables(ring)
        assert len(held) == 2, label  # MUL and NEG
        tables = ring.mul_table.nbytes + ring.neg_table.nbytes
        assert peak - tables <= bound, (label, peak - tables)


@pytest.mark.parametrize("limits", [TABLE, LAZY], ids=["table", "lazy"])
def test_product_generators_ascend_and_span(limits):
    # S(R2) followed by S(R1)*|R2| on every product verify's C3 builds:
    # strictly ascending, the sorted union, and a span of the product
    for r1, r2 in c3_pairs([r for _, r in default_corpus().rings(limits)]):
        ring = product(r1, r2, limits=limits)
        s = generators(ring)
        assert (np.diff(s) > 0).all()
        assert np.array_equal(s, np.union1d(generators(r1) * r2.order, generators(r2)))
        reached = np.zeros(ring.order, dtype=bool)
        reached[0] = True
        grow_span(ring, reached, s)
        assert reached.all(), ring

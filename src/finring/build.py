"""Ring constructions with documented canonical element encodings.

Every structured element is a coordinate vector over a base ring,
encoded positionally: index = sum(coord[i] * weight[i]).  The weights
per construction are part of the stable interface (table dumps and
witness indices are read through them):

- ``zmod(n)``: element i is the residue i.
- ``gf(p, k)``: little-endian base-p coefficient vector of the residue
  polynomial, read as an integer; the modulus is the irreducible monic
  polynomial of degree k whose encoding integer is smallest.
- ``product(R1, R2)``: (a, b) -> a * |R2| + b.
- ``matrix_ring(m, R)``: row-major entries, entry (0,0) least
  significant: index = sum a[r][c] * |R|^(r*m+c).
- ``upper_triangular(m, R)``: row-major upper-triangle entries
  (0,0),(0,1),...,(m-1,m-1), first entry least significant.
- ``trivial_extension(R)``: (x, m) -> x * |R| + m, with
  (x,m)(y,n) = (xy, xn + my).
- ``bt(R)``: the nested trivial extension TE(TE(R)); the quadruple
  (x, p, y, q) therefore encodes as ((x*|R| + p)*|R| + y)*|R| + q.
- ``poly_quotient(R, f)``: little-endian coefficient vector, c0 least
  significant.
- ``group_ring(R, G)``: coefficient vector indexed by group element,
  identity coefficient least significant.

M, UT, TE (so BT), POLYQ (so GF and NIL) and GR are the coordinate
constructions: free modules over the base whose basis elements e_i
commute with the base's elements.  Each lists its k coordinates
little-endian, coordinate i at weight |R|^i (TE lists (m, x)), and all
of them multiply by one formula, x*y = sum x_i*y_j*(e_i*e_j), with every
base product taken x first, then y.  A construction passes that formula
only data: the triples (i, j, s) with e_i*e_j = e_s, and for POLYQ the
coefficients of x^s mod f for the slots s >= deg f, which fold back
into the coordinates with the coefficient on the right (see
:func:`_coord_ring`).

Every ring a call builds, the inner rings of ``bt`` and ``gf`` and the
quotients, corners and generated subrings too, is stored by
:func:`finring.core.stored_ring`, the one table path: numpy operation
tables up to ``limits.table_threshold``, the same formulas on demand
above it, and ADD stored only where the MUL build makes it (the rule
is stated in :mod:`finring.core`): here, over a coordinate base that
adds no bit fields.  Each table builder here, :func:`_coord_tables` and
:func:`product`'s, returns one (ADD or None, MUL, NEG) triple.

A coordinate construction's multiplication table starts from its head
rows, (c*e_i)*y for c = 1..q-1 and every y, written from the terms: the
formula at x = c*e_i is the sum of (c*y_j)*e_s over the terms (i, j, s),
as its other terms have a zero factor and vanish in a ring base
(0*d = 0, 0 + v = v), whatever the term list.  Right distributivity
fills every other row from rows already built, one weight q^i at a
time: MUL[x' + c*e_i] = MUL[x'] + MUL[c*e_i], which needs only that x*y
is additive in x.  The head rows and the fill equal the formula whenever
the base is a ring, which every base built by this module or parsed
from an expression is; run ``verify_axioms`` on a hand-made
``FiniteRing`` before using it as a base.  The formula itself serves the
on-demand mode, and is the tests' reference for the tables.
Over a base whose addition adds bit fields (:func:`_carry_tops`): Z/2^j,
XOR groups such as GF(2, k) or M(m, Z/2), and products of these, x + y
is a few bitwise operations on x and y (:func:`_bitfield_sum`), which
is then the ring's addition in both modes and the build's sum.  Over any
other base the build takes its sums from ADD, the k-fold Kronecker sum of
the base's addition table.  A coordinate ring's additive generators
(:func:`finring.analysis.generators`) are its base's, S*q^i in each
coordinate i.  A direct product's MUL is the Kronecker sum of its
factors' (see :func:`product`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt

import numpy as np

from .analysis import closure, generators, ideal_violation
from .core import (
    DEFAULT_LIMITS,
    ArgumentError,
    FiniteRing,
    InternalConsistencyError,
    Limits,
    block_rows,
    first_failure,
    grow_span,
    member_mask,
    read_only,
    stored_ring,
    table_dtype,
)
from .groups import GroupTable

__all__ = [
    "zmod", "gf", "product", "matrix_ring", "upper_triangular",
    "trivial_extension", "bt", "poly_quotient", "group_ring",
    "quotient", "corner", "subring_closure", "Subring", "QuotientRing",
]


@dataclass(frozen=True)
class Subring:
    """An embedded subring: ``embedding[i]`` is the parent index of sub index i."""

    ring: FiniteRing
    parent: FiniteRing
    embedding: tuple


@dataclass(frozen=True)
class QuotientRing:
    """A quotient ring with its projection: parent index -> quotient index."""

    ring: FiniteRing
    parent: FiniteRing
    projection: tuple


def _encode(coords, q: int):
    """The index sum(coords[i] * q^i) of little-endian coordinates, as int32."""
    acc = 0
    for c in reversed(coords):
        acc = acc * q + np.asarray(c, dtype=np.int64)
    return acc.astype(np.int32)


def _kron_sum(t1, t2) -> np.ndarray:
    """The Kronecker sum T[(a, b), (c, d)] = T1[a, c] * |T2| + T2[b, d] of
    two square operation tables, into a read-only table of
    :func:`table_dtype`.  T1's values may be narrower than the result's
    indices, so T1 * |T2| is formed in that dtype.

    Each addition runs its innermost loop along a whole table row: row
    (0, b) is T2[b] repeated across the columns (T1[0, c] * |T2| added
    last), and row (a, b) is row (0, b) plus T1[a] with each entry
    repeated |T2| times, built a block of a at a time
    (:func:`finring.core.block_rows`) as the one temporary, so about n
    loops start for the n^2 entries.  On the small shapes of verify's
    products the cost is mostly per call: about 9 us a table at (2, 2)
    and (3, 3), 12.5 ms for C3's 638 tables, and 0.9 ms at (512, 2),
    where the repeated runs are 2 entries long (best of 5 on a 2-vCPU
    VM).  One 4-axis broadcast addition would save about 5 us a small
    table, 1 ms of C3, which the benchmark cannot resolve."""
    n1, n2 = len(t1), len(t2)
    n = n1 * n2
    dtype = table_dtype(n)
    high = np.multiply(t1, n2, dtype=dtype)
    table = np.empty((n, n), dtype=dtype)
    rows = table.reshape(n1, n2, n)  # rows[a, b] is row a * n2 + b
    first = rows[0]
    first.reshape(n2, n1, n2)[...] = t2[:, None, :]  # T2[b, d] at column c * n2 + d
    step = block_rows(n)
    for lo in range(1, n1, step):
        np.add(first, np.repeat(high[lo:lo + step], n2, axis=1)[:, None, :],
               out=rows[lo:lo + step])
    first += np.repeat(high[0], n2)
    table.setflags(write=False)  # handed over, so FiniteRing need not copy it
    return table


def _kron_neg(neg1, neg2) -> np.ndarray:
    """The negation vector N[(a, b)] = N1[a] * |N2| + N2[b] of a direct
    product from its factors' vectors, read-only in :func:`table_dtype`."""
    dtype = table_dtype(len(neg1) * len(neg2))
    return read_only(np.add.outer(np.multiply(neg1, len(neg2), dtype=dtype), neg2,
                                  dtype=dtype).ravel())


def _carry_tops(base: FiniteRing) -> int | None:
    """The mask ``top`` of the bits i with 2^i + 2^i = 0, when the addition
    of the ring ``base`` adds bit fields: each field's lower bits add with
    carry into its top bit, and top bits add by XOR, so a + b is
    :func:`_bitfield_sum` with tops ``top`` for every pair.  None when
    q = |base| is not a power of two or some sum differs.

    The law is checked on x + s for every x and every additive generator
    s (:func:`finring.analysis.generators`), by blocks, q * |S| sums in
    all.  That decides every pair: both operations are associative (the
    bit-field sum is addition in a product of cyclic groups 2^w, and
    plain addition on any bits above the last top), so x + y, with y a
    sum s1 + ... + sm of generators, is (..(x + s1) + ..) + sm on either
    side, and y itself the same sum from 0."""
    q = base.order
    if q & (q - 1):
        return None
    bits = 1 << np.arange(q.bit_length() - 1)
    top = int(bits[base.add_arr(bits, bits) == 0].sum())
    want = _bitfield_sum(top, q.bit_length() - 1)
    return top if first_failure(lambda a, b: base.add_arr(a, b) != want(a, b), np.arange(q),
                                generators(base)) is None else None


def _bitfield_sum(high: int, width: int):
    """The sum of ``width``-bit indices whose bit fields end in the tops
    ``high``: ((x & low) + (y & low)) ^ ((x ^ y) & high), with
    ``low`` = (2^width - 1) & ~high; x ^ y when ``low`` is 0.  It
    broadcasts like a numpy ufunc and writes into ``out`` when given."""
    low = ((1 << width) - 1) & ~high
    if low == 0:
        return np.bitwise_xor

    # ``out`` may hold y's own rows (a row fill at x' = 0), so x and y are
    # read in full before the first write
    def digit_sum(x, y, out=None):
        tops = np.bitwise_xor(x, y)
        tops &= high
        out = np.add(x & low, y & low, out=out)
        out ^= tops
        return out

    return digit_sum


def _coord_ring(base, k, one_coords, terms, label, limits, reduce=()):
    """Build a ring whose elements are k coordinates over ``base``, listed
    little-endian: index = sum(coord[i] * q^i), q = |base|.

    Coordinate i is the coefficient of a basis element e_i that commutes
    with the base, so one formula multiplies every such ring:
    x*y = sum x_i*y_j*(e_i*e_j), each base product taken x first, then y.
    ``terms`` lists the triples (i, j, s) with e_i*e_j = e_s, and the
    products of a slot s are summed there; a slot with no term is 0.  A
    slot s >= k is a power beyond the basis: ``reduce[s - k]`` lists its
    coefficients over e_0..e_(k-1), and the slot folds into coordinate t
    as slot * reduce[s - k][t], coefficient on the right.  Addition and
    negation are componentwise.  The formula is written with the base's
    broadcasting ``add_arr``/``mul_arr``, so it evaluates index arrays of
    any shape; it is the on-demand mode's multiplication.

    When q = 2^j and the base's addition adds bit fields, with carry-field
    tops ``top`` (:func:`_carry_tops`), the ring adds by
    :func:`_bitfield_sum` with ``top`` in every j-bit digit, in both
    storage modes.  That is exact: a field's lower bits sum with carry at
    most into its top bit, which both addends have cleared, so no carry
    crosses into the next field or digit; the top bits then add by XOR,
    as 2^i + 2^i = 0 there.  Every sum stays below q^k, so it fits the
    table's dtype.  Over any other base the ring adds by the componentwise
    formula.

    In table mode MUL and NEG are built without the formula
    (:func:`_coord_tables`), a build that makes ADD over a base that adds
    no bit fields.

    In both modes the additive generators S (:func:`finring.analysis.generators`)
    are handed down: S(base)*q^i for i < k, ascending as no S holds 0.
    That is what ``grow_span`` takes from {0}: the indices below q^(i+1)
    are the elements with coordinates i+1 and above zero, so it takes the
    base's own S in coordinate 0, then in coordinate 1, and so on.
    """
    q = base.order
    order = limits.check_power(q, k, label)
    top = _carry_tops(base)
    digit_sum = None if top is None else _bitfield_sum(int(_encode([top] * k, q)),
                                                       order.bit_length() - 1)

    @cache
    def dec():  # dec()[i][x]: coordinate i of x; made on first use, after a table build
        return np.unravel_index(np.arange(order), (q,) * k, order="F")

    def add_fn(x, y):
        return _encode([base.add_arr(a[x], a[y]) for a in dec()], q)

    def mul_fn(x, y):
        xc, yc = [a[x] for a in dec()], [a[y] for a in dec()]
        slots = {}
        for i, j, s in terms:
            term = base.mul_arr(xc[i], yc[j])
            slots[s] = base.add_arr(slots[s], term) if s in slots else term
        zc = [slots.get(s, 0) for s in range(k)]
        for s, coeffs in enumerate(reduce, start=k):
            for t, c in enumerate(coeffs):
                if c and s in slots:
                    zc[t] = base.add_arr(zc[t], base.mul_arr(slots[s], c))
        return _encode(zc, q)

    def neg_fn(x):
        return _encode([base.neg_arr(a[x]) for a in dec()], q)

    ring = stored_ring(order, int(_encode(one_coords, q)), label, limits, digit_sum or add_fn,
                       mul_fn, neg_fn,
                       tables=lambda: _coord_tables(base, k, terms, reduce, digit_sum))
    ring.cached("generators",
                lambda: read_only(np.concatenate([generators(base) * q ** i for i in range(k)])))
    return ring


def _coord_tables(base, k, terms, reduce, digit_sum):
    """(ADD or None, MUL, NEG) of :func:`_coord_ring`'s ring, built
    without the formula.  The sums are by ``digit_sum``, the ring's
    :func:`_bitfield_sum`, when given, and ADD is then not built; else ADD
    is the k-fold Kronecker sum of the base's addition table, and each
    sum is taken from ADD through one intp index array of its block.

    MUL starts as zeros.  Each term (i, j, s) adds (c*y_j)*e_s to the head
    rows c*e_i, at index c*q^i: that is the base product c*d at d = y_j,
    an index of slot s, folded by ``reduce[s - k]`` for s >= k, coefficient
    on the right, and broadcast over the columns y with that digit j.
    Right distributivity then fills every other row in ascending weight
    order w = q^i: row c*w + x' is MUL[x'] + MUL[c*w] for x' < w, an index
    sum as x' has no coordinate at weight w or above (see the module
    docstring for why both equal the formula).  Every call writes into
    the final table through ``out`` and takes as many heads as fit its
    block (:func:`finring.core.block_rows`, read at call time); a weight
    step longer than a block takes several blocks per head.  A head call
    takes half a block, as on the take path it holds, beside the intp
    index array, the copy ``np.take`` makes of its strided ``out``.

    NEG is componentwise, so it is the k-fold :func:`_kron_neg` of the
    base's negation vector: NEG[x] = sum neg(x_i)*q^i."""
    q = base.order
    order = q ** k
    dtype = table_dtype(order)
    add_t = None
    if digit_sum is None:
        # ADD is componentwise over one base table, so it is the k-fold
        # Kronecker sum of the base's addition table, read in int16 as it
        # stays alive through the MUL fill.
        base_add = base.table("add")
        add_t = np.zeros((1, 1), dtype=np.int16)
        for _ in range(k):
            add_t = _kron_sum(base_add, add_t)
        flat_add = add_t.ravel()

        def digit_sum(x, y, out=None):
            idx = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.intp)
            np.multiply(x, order, out=idx, dtype=np.intp)
            idx += y
            # in range; a mode other than "raise" writes ``out`` unbuffered
            return np.take(flat_add, idx, out=out, mode="wrap")
    # enc[s][v]: the index of v placed at slot s, folded by reduce[s - k]
    # for s >= k
    every, weights = np.arange(q), q ** np.arange(k)
    enc = np.empty((k + len(reduce), q), dtype=dtype)
    enc[:k] = weights[:, None] * every
    if reduce:  # folded[v, r, t] = v * reduce[r][t]
        folded = base.mul_arr(every[:, None, None], np.array(reduce)[None])
        enc[k:] = (folded * weights).sum(axis=2).T
    prods = base.row_block("mul", 0, q)
    mul_t = np.zeros((order, order), dtype=dtype)
    heads = block_rows(2 * order)
    for i, j, s in terms:
        w, v = q ** i, q ** j
        for c in range(1, q, heads):
            # rows c*w.., with column y split as (y // (q*v), y_j, y % v)
            out = mul_t.reshape(-1, q, w, order // (q * v), q, v)[0, c:c + heads, 0]
            digit_sum(out, enc[s][prods[c:c + heads, None, :, None]], out=out)
    # Row c*w + x' is MUL[x'] + MUL[c*w]; at w = 1 every row is a head, so
    # the fill starts at w = q.  A call takes the heads c*w of consecutive
    # c that fit a block (at least one), and a head's rows several blocks
    # when w exceeds one.
    step = block_rows(order)
    for w in weights.tolist()[1:]:
        heads, rows = max(1, step // w), min(w, step)
        for c in range(1, q, heads):
            h = min(heads, q - c)
            out = mul_t[c * w:(c + h) * w].reshape(h, w, order)
            for lo in range(0, w, rows):
                hi = min(w, lo + rows)
                digit_sum(mul_t[None, lo:hi], mul_t[c * w:(c + h) * w:w, None], out=out[:, lo:hi])
    mul_t.setflags(write=False)  # handed over, so FiniteRing need not copy it
    neg_base, neg = base.neg_arr(every), np.zeros(1, dtype=dtype)
    for _ in range(k):  # the next coordinate, above the ones so far
        neg = _kron_neg(neg_base, neg)
    return add_t, mul_t, neg


# ---------------------------------------------------------------------------
# Leaf constructions


def zmod(n: int, *, label: str | None = None, limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """Integers modulo n; element i is the residue i, one = 1."""
    if n < 2:
        raise ArgumentError(f"Z/n needs n >= 2, got {n}")
    label = label or f"Z/{n}"
    limits.check_order(n, label)
    # x - (n - y) lies in (-n, n), so int16 table values add without overflow
    return stored_ring(n, 1, label, limits, add_fn=lambda x, y: (x - (n - y)) % n,
                       mul_fn=lambda x, y: (x * y) % n, neg_fn=lambda x: (-x) % n)


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _poly_mod(a: tuple, b: tuple, p: int) -> tuple:
    """Remainder of a by the monic polynomial b, coefficients mod p."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    while len(a) > 1 and a[-1] % p == 0:
        a.pop()
    return tuple(v % p for v in a[:db])


def _monic_polys(p: int, d: int):
    for enc in range(p ** d):
        coeffs, e = [], enc
        for _ in range(d):
            coeffs.append(e % p)
            e //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(f: tuple, p: int) -> bool:
    """Whether the monic f leaves a nonzero remainder by every monic g of
    degree 1..deg f / 2: a reducible f has a factor among them, as its
    factors' degrees sum to deg f."""
    return all(any(_poly_mod(f, g, p))
               for d in range(1, (len(f) - 1) // 2 + 1) for g in _monic_polys(p, d))


def smallest_irreducible(p: int, k: int) -> list[int]:
    """Monic irreducible of degree k over F_p with the smallest encoding
    integer (little-endian base-p reading of the lower coefficients)."""
    for f in _monic_polys(p, k):
        if _is_irreducible(f, p):
            return list(f)
    raise ArgumentError(f"no irreducible polynomial of degree {k} over F_{p}")  # unreachable


def gf(p: int, k: int, *, label: str | None = None, limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """The field of order p^k as F_p[x] modulo its canonical irreducible."""
    if k < 1:
        raise ArgumentError(f"GF needs extension degree >= 1, got {k}")
    label = label or f"GF({p}, {k})"
    if p < 2:  # before check_power, which reads p as a base >= 2
        raise ArgumentError(f"GF needs a prime, got {p}")
    limits.check_power(p, k, label)  # before is_prime, so p is small enough to test
    if not is_prime(p):
        raise ArgumentError(f"GF needs a prime, got {p}")
    f = smallest_irreducible(p, k)
    base = zmod(p, limits=limits)
    return poly_quotient(base, f, label=label, limits=limits)


# ---------------------------------------------------------------------------
# Coordinate constructions


def product(r1: FiniteRing, r2: FiniteRing, *, label: str | None = None,
            limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """Direct product; (a, b) is encoded as a * |R2| + b and one = (1, 1).

    In table mode MUL is the Kronecker sum of the factors' tables,
    MUL[(a, b), (c, d)] = MUL1[a, c] * |R2| + MUL2[b, d] (:func:`_kron_sum`),
    and NEG that of their negation vectors (:func:`_kron_neg`).
    The formulas form a * |R2| in intp, as the factors' values may be
    narrower than the product's indices.  The additive generators S of
    the product (:func:`finring.analysis.generators`) come from its
    factors': (0, t) and (s, 0) generate (R1 x R2, +), and S(R2)
    followed by S(R1)*|R2| is already ascending, as no S holds 0.
    """
    label = label or f"{r1.label} x {r2.label}"
    order = r1.order * r2.order
    limits.check_order(order, label)
    n1, n2 = r1.order, r2.order

    def pair(a, b):
        return np.multiply(a, n2, dtype=np.intp) + b

    ring = stored_ring(
        order, r1.one * n2 + r2.one, label, limits,
        add_fn=lambda x, y: pair(r1.add_arr(x // n2, y // n2), r2.add_arr(x % n2, y % n2)),
        mul_fn=lambda x, y: pair(r1.mul_arr(x // n2, y // n2), r2.mul_arr(x % n2, y % n2)),
        neg_fn=lambda x: pair(r1.neg_arr(x // n2), r2.neg_arr(x % n2)),
        tables=lambda: (None, _kron_sum(r1.row_block("mul", 0, n1), r2.row_block("mul", 0, n2)),
                        _kron_neg(r1.neg_arr(np.arange(n1)), r2.neg_arr(np.arange(n2)))),
    )
    ring.cached("generators", lambda: read_only(np.concatenate([generators(r2), generators(r1) * n2])))
    return ring


def matrix_ring(m: int, base: FiniteRing, *, label: str | None = None,
                limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """m x m matrices over ``base``, row-major encoding, one = identity matrix."""
    if m < 1:
        raise ArgumentError(f"matrix size must be >= 1, got {m}")
    label = label or f"M({m}, {base.label})"
    k = m * m
    limits.check_power(base.order, k, label)
    one_coords = [base.one if r == c else 0 for r in range(m) for c in range(m)]
    # the matrix units: E_rt * E_tc = E_rc
    terms = [(r * m + t, t * m + c, r * m + c)
             for r in range(m) for c in range(m) for t in range(m)]
    return _coord_ring(base, k, one_coords, terms, label, limits)


def upper_triangular(m: int, base: FiniteRing, *, label: str | None = None,
                     limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """Upper-triangular m x m matrices over ``base`` (m >= 2)."""
    if m < 2:
        raise ArgumentError(f"upper-triangular size must be >= 2, got {m}")
    label = label or f"UT({m}, {base.label})"
    limits.check_power(base.order, m * (m + 1) // 2, label)
    cells = [(i, j) for i in range(m) for j in range(i, m)]
    pos = {cell: i for i, cell in enumerate(cells)}
    one_coords = [base.one if i == j else 0 for (i, j) in cells]
    terms = [(pos[i, t], pos[t, j], pos[i, j]) for (i, j) in cells for t in range(i, j + 1)]
    return _coord_ring(base, len(cells), one_coords, terms, label, limits)


def trivial_extension(base: FiniteRing, *, label: str | None = None,
                      limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """Pairs (x, m) with (x,m)(y,n) = (xy, xn + my); one = (1, 0).

    The coordinates are listed (m, x), little-endian like every coordinate
    construction, so (x, m) is encoded as x * |R| + m: e_0 = (0, 1) and
    the identity e_1 = (1, 0), with e_1*e_1 = e_1, e_1*e_0 = e_0*e_1 = e_0
    and e_0*e_0 = 0.
    """
    label = label or f"TE({base.label})"
    terms = [(1, 1, 1), (1, 0, 0), (0, 1, 0)]
    return _coord_ring(base, 2, [0, base.one], terms, label, limits)


def bt(base: FiniteRing, *, label: str | None = None,
       limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """The nested trivial extension TE(TE(R)) on quadruples (x, p, y, q).

    Defined literally as the iterated construction, so its tables equal
    trivial_extension(trivial_extension(R)) entry for entry.
    """
    label = label or f"BT({base.label})"
    limits.check_power(base.order, 4, label)
    inner = trivial_extension(base, limits=limits)
    return trivial_extension(inner, label=label, limits=limits)


def poly_quotient(base: FiniteRing, coeffs, *, label: str | None = None,
                  limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """R[x] modulo a monic polynomial, little-endian coefficient encoding.

    ``coeffs`` lists the modulus little-endian as base element indices;
    the last entry must be the index of 1 (monic, so reduction is
    division-free).  The adjoined x is central, so every coefficient
    must be central in ``base``.
    """
    coeffs = [int(c) for c in coeffs]
    d = len(coeffs) - 1
    if d < 1:
        raise ArgumentError("polynomial modulus must have degree >= 1")
    if coeffs[-1] != base.one:
        raise ArgumentError(
            f"polynomial modulus must be monic (last coefficient index {coeffs[-1]}, "
            f"expected {base.one})")
    for c in coeffs:
        if not 0 <= c < base.order:
            raise ArgumentError(f"coefficient index {c} out of range for {base.label}")
    label = label or f"POLYQ({base.label}, [{', '.join(str(c) for c in coeffs)}])"
    limits.check_power(base.order, d, label)
    # x is central, so f must be: by distributivity, c commutes with R
    # once it commutes with R's additive generators
    gens = generators(base)
    for c in coeffs[:d]:
        if not np.array_equal(base.mul_arr(c, gens), base.mul_arr(gens, c)):
            raise ArgumentError(f"coefficient index {c} is not central in {base.label}")
    one_coords = [base.one] + [0] * (d - 1)
    terms = [(i, j, i + j) for i in range(d) for j in range(d)]
    # x^s mod f, as base element index vectors, for the slots s = d .. 2d-2
    # of a product; x^(s+1) = x * x^s, whose top term folds back by x^d = -f
    negf = base.neg_arr(np.array(coeffs[:d]))
    reduce, power = [], negf
    for _ in range(d - 1):
        reduce.append(power.tolist())
        power = base.add_arr(np.concatenate(([0], power[:-1])), base.mul_arr(power[-1], negf))
    return _coord_ring(base, d, one_coords, terms, label, limits, reduce)


def group_ring(base: FiniteRing, group: GroupTable, *, label: str | None = None,
               limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
    """Formal sums over ``group`` with coefficients in ``base``.

    Coefficient vectors are indexed by group element, identity
    coefficient least significant; multiplication is convolution over
    the Cayley table; one = 1 * e.
    """
    label = label or f"GR({base.label}, {group.label})"
    k = group.order
    one_coords = [base.one] + [0] * (k - 1)
    terms = [(i, j, group.op(i, j)) for i in range(k) for j in range(k)]
    return _coord_ring(base, k, one_coords, terms, label, limits)


# ---------------------------------------------------------------------------
# Derived rings: quotients, corners, generated subrings


def _induced_ring(ring: FiniteRing, lift: np.ndarray, down: np.ndarray, one: int, label: str,
                  limits: Limits) -> FiniteRing:
    """The ring on 0..len(lift)-1 with a op b = down[lift[a] op lift[b]]
    and identity down[one], stored by :func:`finring.core.stored_ring`.

    When the derived ring is all of ``ring`` (len(lift) == ring.order:
    R/{0}, the corner at 1, a subring equal to R), lift and down are the
    identity (down[one] is then ``ring``'s own one, as in any ring), so
    the result is :meth:`FiniteRing.relabelled`, with no lift/down
    gathers.  Its cache starts empty, so whatever is asked of it is
    computed afresh."""
    if len(lift) == ring.order and down[one] == ring.one:
        return ring.relabelled(label, limits)
    try:
        return stored_ring(len(lift), int(down[one]), label, limits,
                           add_fn=lambda a, b: down[ring.add_arr(lift[a], lift[b])],
                           mul_fn=lambda a, b: down[ring.mul_arr(lift[a], lift[b])],
                           neg_fn=lambda a: down[ring.neg_arr(lift[a])])
    except ArgumentError:  # a -1 from down: an operation left the lifted set
        raise InternalConsistencyError(
            f"{label}: member set is not closed under the inherited operations") from None


def quotient(ring: FiniteRing, ideal, *, label: str | None = None,
             limits: Limits = DEFAULT_LIMITS) -> QuotientRing:
    """R/I for a two-sided ideal I, with the projection map.

    Coset representatives are the smallest index in each coset, and the
    quotient relabels representatives in ascending order (so the coset
    of 0 is element 0).  rep[x] = min(x + I) comes from doubling along
    each generator g of I that :func:`finring.core.grow_span` takes, with
    rep the minimum over x + J, J the span of the generators before g:
    rep <- min(rep, rep[x + 2^k*g]) for k = 0, 1, .. until a step changes
    nothing, when rep is invariant under x -> x + 2^k*g and so the minimum
    over x + J + <g>.  That is O(n log |I|) sums, not n*|I|.
    """
    members = np.unique(ring.index_array(ideal))
    violation = ideal_violation(ring, frozenset(members.tolist()))
    if violation is not None:
        raise ArgumentError(f"{members.tolist()} is not an ideal of {ring.label}: {violation}")
    every = np.arange(ring.order)
    rep = ring.add_arr(every, 0)  # x + 0, min(x + {0}), in the dtype of the ring's sums
    for shift in grow_span(ring, member_mask(ring.order, [0]), members):
        while not np.array_equal(rep, step := np.minimum(rep, rep[ring.add_arr(every, shift)])):
            rep, shift = step, ring.add_arr(shift, shift)
    reps, proj = np.unique(rep, return_inverse=True)
    if proj[ring.one] == proj[0]:
        raise ArgumentError(f"ideal of {ring.label} contains 1; the quotient is the zero ring")
    label = label or f"{ring.label} mod ideal({len(members)})"
    return QuotientRing(_induced_ring(ring, reps, proj, ring.one, label, limits), ring,
                        tuple(proj.tolist()))


def _inherited_subring(ring: FiniteRing, members: np.ndarray, one_parent: int, label: str,
                       limits: Limits) -> Subring:
    """The subring on the sorted parent indices ``members``."""
    lookup = np.full(ring.order, -1)
    lookup[members] = np.arange(len(members))
    return Subring(_induced_ring(ring, members, lookup, one_parent, label, limits), ring,
                   tuple(members.tolist()))


def corner(ring: FiniteRing, e: int, *, label: str | None = None,
           limits: Limits = DEFAULT_LIMITS) -> Subring:
    """The corner ring eRe for a nonzero idempotent e; its identity is e."""
    ring._check_index(e)
    if e == 0:
        raise ArgumentError("corner needs a nonzero idempotent; got 0")
    if ring.mul(e, e) != e:
        raise ArgumentError(f"{e} is not idempotent in {ring.label}: e*e = {ring.mul(e, e)}")
    members = np.unique(ring.mul_arr(ring.mul_arr(e, np.arange(ring.order)), e))
    label = label or f"CORNER({ring.label}, {e})"
    return _inherited_subring(ring, members, e, label, limits)


def subring_closure(ring: FiniteRing, gens, *, label: str | None = None,
                    limits: Limits = DEFAULT_LIMITS) -> Subring:
    """Smallest subring containing gens together with 0 and 1."""
    gens = ring.index_array(gens).tolist()
    label = label or f"subring({', '.join(str(g) for g in gens)}) of {ring.label}"
    return _inherited_subring(ring, closure(ring, [ring.one] + gens, ideal=False), ring.one, label,
                              limits)

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

Constructions at or below the table threshold materialize full numpy
operation tables; larger ones compute operations on demand through the
same coordinate formulas.  A coordinate construction's addition table is
the k-fold Kronecker sum of its base's addition table (addition is
componentwise), and its multiplication formula runs only on G x G, where
G is 0 and the (q-1)*k generators c*e_i (one nonzero coordinate).  The
rest of MUL is a two-sided distributive fill from entries already built:
MUL[g, y' + c*e_i] = ADD[MUL[g, y'], MUL[g, c*e_i]] for g in G, then
MUL[x' + c*e_i] = ADD[MUL[x'], MUL[c*e_i]] for every other row.  The fill
equals the formula whenever the base is a ring, which every base built by
this module or parsed from an expression is; run ``verify_axioms`` on a
hand-made ``FiniteRing`` before using it as a base.  A direct product's
tables are the Kronecker sum of its factors' tables (see :func:`product`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import closure, generators, ideal_violation
from .core import (
    DEFAULT_LIMITS,
    ArgumentError,
    FiniteRing,
    InternalConsistencyError,
    Limits,
    block_rows,
    table_dtype,
)
from .groups import (
    NAMED_GROUPS,
    GroupTable,
    cyclic,
    cyclic_subgroups,
    group_product,
    subgroup_generated,
)

__all__ = [
    "zmod", "gf", "product", "matrix_ring", "upper_triangular",
    "trivial_extension", "bt", "poly_quotient", "group_ring",
    "quotient", "corner", "subring_closure", "Subring", "QuotientRing",
    "cyclic", "group_product", "subgroup_generated", "cyclic_subgroups",
    "NAMED_GROUPS", "GroupTable",
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

    def project(self, x: int) -> int:
        return self.projection[x]


def _decode_matrix(order: int, radices, weights) -> np.ndarray:
    idx = np.arange(order, dtype=np.int64)
    dec = np.empty((order, len(radices)), dtype=np.int64)
    for i, (r, w) in enumerate(zip(radices, weights)):
        dec[:, i] = (idx // w) % r
    return dec

def _encode_arrays(coords, weights):
    acc = None
    for c, w in zip(coords, weights):
        term = np.asarray(c, dtype=np.int64) * w
        acc = term if acc is None else acc + term
    return acc.astype(np.int32)


def _kron_sum(t1, t2) -> np.ndarray:
    """The Kronecker sum T[(a, b), (c, d)] = T1[a, c] * |T2| + T2[b, d] of
    two square operation tables, as one broadcast addition into a
    read-only table of :func:`table_dtype`.  T1's values may be narrower
    than the result's indices, so T1 * |T2| is formed in that dtype."""
    n1, n2 = len(t1), len(t2)
    dtype = table_dtype(n1 * n2)
    high = np.multiply(t1, n2, dtype=dtype)
    table = np.empty((n1 * n2, n1 * n2), dtype=dtype)
    np.add(high[:, None, :, None], t2[None, :, None, :], out=table.reshape(n1, n2, n1, n2))
    table.setflags(write=False)  # handed over, so FiniteRing need not copy it
    return table


def _coord_ring(base, k, weights, one_coords, mul_coords, label, limits, materialize):
    """Build a ring whose elements are k coordinates over ``base``.

    Addition and negation are componentwise; multiplication comes from
    ``mul_coords(xc, yc) -> zc``, written with the base ring's
    broadcasting ``add_arr``/``mul_arr``/``neg_arr`` so the same formula
    serves on-demand evaluation on index arrays and the table build.
    ``weights`` must be the powers q^0..q^(k-1) in some order.

    In table mode ADD is the k-fold Kronecker sum of the base's addition
    table (:func:`_kron_sum`), and the formula runs only on G x G, G = {0}
    u {c*e_i}.  Left distributivity fills the other columns of the rows in
    G, and right distributivity the other rows, in ascending weight order.
    The row fill runs per generator row and block of about
    ``AXIOM_BLOCK_ELEMENTS`` entries, each block gathered straight into
    the final table of :func:`table_dtype`, so its temporaries stay a few
    MB at any order.  The fill equals the formula when ``base`` is a ring
    (see the module docstring).  The negation table is the componentwise
    formula on every element, O(n*k).
    """
    q = base.order
    order = q ** k
    limits.check_order(order, label)
    table_mode = materialize if materialize is not None else order <= limits.table_threshold
    dec = _decode_matrix(order, [q] * k, weights)
    one_index = int(_encode_arrays(one_coords, weights))

    def coords(x):
        return [dec[x, i] for i in range(k)]

    def add_fn(x, y):
        return _encode_arrays([base.add_arr(a, b) for a, b in zip(coords(x), coords(y))], weights)

    def mul_fn(x, y):
        return _encode_arrays(mul_coords(coords(x), coords(y)), weights)

    def neg_fn(x):
        return _encode_arrays([base.neg_arr(a) for a in coords(x)], weights)

    if not table_mode:
        return FiniteRing(order, one_index, label, add_fn=add_fn, mul_fn=mul_fn, neg_fn=neg_fn)

    # ADD is componentwise over one base table, so it is the k-fold
    # Kronecker sum of the base's addition table, whatever the weights'
    # order.  The base goes first so that the broadcast's inner axis is the
    # long one.
    base_add = base.row_block("add", 0, q)
    add_t = np.zeros((1, 1), dtype=np.int16)
    for _ in range(k):
        add_t = _kron_sum(base_add, add_t)
    # G = {0} u {c*w}.  Column y' + c*w of a row g in G, for y' < w, is
    # MUL[g, y'] + MUL[g, c*w] by left distributivity, and row g + x' is
    # MUL[x'] + MUL[g] by right distributivity (x' + c*w is an index sum,
    # as x' has no coordinate at weight w or above).  Ascending w keeps
    # the columns, then the rows, below w filled.
    steps = sorted(weights)
    gens = np.array([0] + [c * w for w in steps for c in range(1, q)])
    mul_t = np.empty((order, order), dtype=table_dtype(order))
    mul_t[gens[:, None], gens[None, :]] = mul_fn(gens[:, None], gens[None, :])
    for w in steps:
        for g in range(w, q * w, w):
            mul_t[gens, g:g + w] = add_t[mul_t[gens, :w], mul_t[gens, g][:, None]]
    step = block_rows(order)
    for w in steps:
        for g in range(w, q * w, w):
            for lo in range(0, w, step):
                hi = min(w, lo + step)
                mul_t[g + lo:g + hi] = add_t[mul_t[lo:hi], mul_t[g]]
    mul_t.setflags(write=False)  # handed over, so FiniteRing need not copy it
    return FiniteRing(order, one_index, label, add_table=add_t, mul_table=mul_t,
                      neg_table=neg_fn(np.arange(order)))


def _little_endian_weights(q: int, k: int) -> list[int]:
    return [q ** i for i in range(k)]


# ---------------------------------------------------------------------------
# Leaf constructions


def zmod(n: int, *, label: str | None = None, limits: Limits = DEFAULT_LIMITS,
         materialize: bool | None = None) -> FiniteRing:
    """Integers modulo n; element i is the residue i, one = 1."""
    if n < 2:
        raise ArgumentError(f"Z/n needs n >= 2, got {n}")
    label = label or f"Z/{n}"
    limits.check_order(n, label)
    table_mode = materialize if materialize is not None else n <= limits.table_threshold
    ring = FiniteRing(
        n, 1, label,
        add_fn=lambda x, y: (x + y) % n,
        mul_fn=lambda x, y: (x * y) % n,
        neg_fn=lambda x: (-x) % n,
    )
    return ring.materialized() if table_mode else ring


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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
    """Whether the monic f has no monic factor of degree 1..deg f / 2;
    a reducible f has one of them, as its factors' degrees sum to deg f."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            rem = _poly_mod(f, g, p)
            if all(c == 0 for c in rem):
                return False
    return True


def smallest_irreducible(p: int, k: int) -> list[int]:
    """Monic irreducible of degree k over F_p with the smallest encoding
    integer (little-endian base-p reading of the lower coefficients)."""
    for f in _monic_polys(p, k):
        if _is_irreducible(f, p):
            return list(f)
    raise ArgumentError(f"no irreducible polynomial of degree {k} over F_{p}")  # unreachable


def gf(p: int, k: int, *, label: str | None = None, limits: Limits = DEFAULT_LIMITS,
       materialize: bool | None = None) -> FiniteRing:
    """The field of order p^k as F_p[x] modulo its canonical irreducible."""
    if k < 1:
        raise ArgumentError(f"GF needs extension degree >= 1, got {k}")
    label = label or f"GF({p}, {k})"
    limits.check_power(p, k, label)  # first, so p is small enough to test
    if not is_prime(p):
        raise ArgumentError(f"GF needs a prime, got {p}")
    f = smallest_irreducible(p, k)
    base = zmod(p, limits=limits)
    return poly_quotient(base, f, label=label, limits=limits, materialize=materialize)


# ---------------------------------------------------------------------------
# Coordinate constructions


def product(r1: FiniteRing, r2: FiniteRing, *, label: str | None = None,
            limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """Direct product; (a, b) is encoded as a * |R2| + b and one = (1, 1).

    In table mode each table is the Kronecker sum of the factors' tables,
    OP[(a, b), (c, d)] = OP1[a, c] * |R2| + OP2[b, d] (:func:`_kron_sum`).
    The lazy formulas and the negation table form a * |R2| in intp, as the
    factors' values may be narrower than the product's indices.  The
    additive generators S of the product
    (:func:`finring.analysis.generators`) come from its factors': (s, 0)
    and (0, t) generate (R1 x R2, +).
    """
    label = label or f"{r1.label} x {r2.label}"
    order = r1.order * r2.order
    limits.check_order(order, label)
    n1, n2 = r1.order, r2.order
    one_index = r1.one * n2 + r2.one
    table_mode = materialize if materialize is not None else order <= limits.table_threshold

    def pair(a, b):
        return np.multiply(a, n2, dtype=np.intp) + b

    if table_mode:
        def kron(op):
            return _kron_sum(r1.row_block(op, 0, n1), r2.row_block(op, 0, n2))

        neg = pair(r1.neg_arr(np.arange(n1))[:, None], r2.neg_arr(np.arange(n2))[None, :])
        ring = FiniteRing(order, one_index, label, add_table=kron("add"),
                          mul_table=kron("mul"), neg_table=neg.reshape(order))
    else:
        ring = FiniteRing(
            order, one_index, label,
            add_fn=lambda x, y: pair(r1.add_arr(x // n2, y // n2), r2.add_arr(x % n2, y % n2)),
            mul_fn=lambda x, y: pair(r1.mul_arr(x // n2, y // n2), r2.mul_arr(x % n2, y % n2)),
            neg_fn=lambda x: pair(r1.neg_arr(x // n2), r2.neg_arr(x % n2)),
        )
    ring.cached("generators", lambda: np.union1d(generators(r1) * n2, generators(r2)))
    return ring


def matrix_ring(m: int, base: FiniteRing, *, label: str | None = None,
                limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """m x m matrices over ``base``, row-major encoding, one = identity matrix."""
    if m < 1:
        raise ArgumentError(f"matrix size must be >= 1, got {m}")
    label = label or f"M({m}, {base.label})"
    k = m * m
    limits.check_power(base.order, k, label)
    weights = _little_endian_weights(base.order, k)
    one_coords = [base.one if r == c else 0 for r in range(m) for c in range(m)]

    def mul_coords(xc, yc):
        zc = []
        for r in range(m):
            for c in range(m):
                acc = None
                for t in range(m):
                    term = base.mul_arr(xc[r * m + t], yc[t * m + c])
                    acc = term if acc is None else base.add_arr(acc, term)
                zc.append(acc)
        return zc

    return _coord_ring(base, k, weights, one_coords, mul_coords, label, limits, materialize)


def upper_triangular(m: int, base: FiniteRing, *, label: str | None = None,
                     limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """Upper-triangular m x m matrices over ``base`` (m >= 2)."""
    if m < 2:
        raise ArgumentError(f"upper-triangular size must be >= 2, got {m}")
    label = label or f"UT({m}, {base.label})"
    limits.check_power(base.order, m * (m + 1) // 2, label)
    cells = [(i, j) for i in range(m) for j in range(i, m)]
    pos = {cell: i for i, cell in enumerate(cells)}
    k = len(cells)
    weights = _little_endian_weights(base.order, k)
    one_coords = [base.one if i == j else 0 for (i, j) in cells]

    def mul_coords(xc, yc):
        zc = []
        for (i, j) in cells:
            acc = None
            for t in range(i, j + 1):
                term = base.mul_arr(xc[pos[(i, t)]], yc[pos[(t, j)]])
                acc = term if acc is None else base.add_arr(acc, term)
            zc.append(acc)
        return zc

    return _coord_ring(base, k, weights, one_coords, mul_coords, label, limits, materialize)


def trivial_extension(base: FiniteRing, *, label: str | None = None,
                      limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """Pairs (x, m) with (x,m)(y,n) = (xy, xn + my); one = (1, 0)."""
    label = label or f"TE({base.label})"
    q = base.order
    weights = [q, 1]  # (x, m) -> x*q + m
    one_coords = [base.one, 0]

    def mul_coords(xc, yc):
        x, xm = xc
        y, ym = yc
        return [base.mul_arr(x, y), base.add_arr(base.mul_arr(x, ym), base.mul_arr(xm, y))]

    return _coord_ring(base, 2, weights, one_coords, mul_coords, label, limits, materialize)


def bt(base: FiniteRing, *, label: str | None = None,
       limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """The nested trivial extension TE(TE(R)) on quadruples (x, p, y, q).

    Defined literally as the iterated construction, so its tables equal
    trivial_extension(trivial_extension(R)) entry for entry.
    """
    label = label or f"BT({base.label})"
    limits.check_order(base.order ** 4, label)
    inner = trivial_extension(base, limits=limits)
    return trivial_extension(inner, label=label, limits=limits, materialize=materialize)


def poly_quotient(base: FiniteRing, coeffs, *, label: str | None = None,
                  limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """R[x] modulo a monic polynomial, little-endian coefficient encoding.

    ``coeffs`` lists the modulus little-endian as base element indices;
    the last entry must be the index of 1 (monic, so reduction is
    division-free).  The adjoined x is central.
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
    q = base.order
    weights = _little_endian_weights(q, d)
    one_coords = [base.one] + [0] * (d - 1)

    # x^t mod f for t = d .. 2d-2, as base element index vectors
    negf = [base.neg(c) for c in coeffs[:d]]
    reductions = {d: list(negf)}
    for t in range(d, 2 * d - 2):
        prev = reductions[t]
        shifted = [0] + prev[: d - 1]
        top = prev[d - 1]
        reductions[t + 1] = [base.add(s, base.mul(top, nf)) for s, nf in zip(shifted, negf)]

    def mul_coords(xc, yc):
        conv = [None] * (2 * d - 1)
        for i in range(d):
            for j in range(d):
                term = base.mul_arr(xc[i], yc[j])
                t = i + j
                conv[t] = term if conv[t] is None else base.add_arr(conv[t], term)
        zc = list(conv[:d])
        for t in range(d, 2 * d - 1):
            c = conv[t]
            for s, rc in enumerate(reductions[t]):
                if rc != 0:
                    zc[s] = base.add_arr(zc[s], base.mul_arr(c, rc))
        return zc

    return _coord_ring(base, d, weights, one_coords, mul_coords, label, limits, materialize)


def group_ring(base: FiniteRing, group: GroupTable, *, label: str | None = None,
               limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """Formal sums over ``group`` with coefficients in ``base``.

    Coefficient vectors are indexed by group element, identity
    coefficient least significant; multiplication is convolution over
    the Cayley table; one = 1 * e.
    """
    label = label or f"GR({base.label}, {group.label})"
    k = group.order
    weights = _little_endian_weights(base.order, k)
    one_coords = [base.one] + [0] * (k - 1)
    pairs_for = [[] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            pairs_for[group.op(i, j)].append((i, j))

    def mul_coords(xc, yc):
        zc = []
        for t in range(k):
            acc = None
            for i, j in pairs_for[t]:
                term = base.mul_arr(xc[i], yc[j])
                acc = term if acc is None else base.add_arr(acc, term)
            zc.append(acc)
        return zc

    return _coord_ring(base, k, weights, one_coords, mul_coords, label, limits, materialize)


# ---------------------------------------------------------------------------
# Derived rings: quotients, corners, generated subrings


def quotient(ring: FiniteRing, ideal, *, label: str | None = None,
             limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> QuotientRing:
    """R/I for a two-sided ideal I, with the projection map.

    Coset representatives are the smallest index in each coset, and the
    quotient relabels representatives in ascending order (so the coset
    of 0 is element 0).
    """
    members = frozenset(int(x) for x in ideal)
    for x in members:
        ring._check_index(x)
    violation = ideal_violation(ring, members)
    if violation is not None:
        raise ArgumentError(f"{sorted(members)} is not an ideal of {ring.label}: {violation}")
    # the coset of x is x + I, so its smallest index is min(add(x, I))
    rep = np.concatenate([block.min(axis=1) for _, block in
                          ring.blocks("add", np.arange(ring.order), np.array(sorted(members)))])
    reps, proj = np.unique(rep, return_inverse=True)
    m = len(reps)
    if proj[ring.one] == proj[0]:
        raise ArgumentError(f"ideal of {ring.label} contains 1; the quotient is the zero ring")
    label = label or f"{ring.label} mod ideal({len(members)})"
    table_mode = materialize if materialize is not None else m <= limits.table_threshold
    out = FiniteRing(
        m, int(proj[ring.one]), label,
        add_fn=lambda a, b: proj[ring.add_arr(reps[a], reps[b])],
        mul_fn=lambda a, b: proj[ring.mul_arr(reps[a], reps[b])],
        neg_fn=lambda a: proj[ring.neg_arr(reps[a])],
    )
    return QuotientRing(out.materialized() if table_mode else out, ring, tuple(proj.tolist()))


def _inherited_subring(ring: FiniteRing, members: np.ndarray, one_parent: int, label: str,
                       limits: Limits, materialize: bool | None) -> Subring:
    """The subring on the sorted parent indices ``members``."""
    m = len(members)
    lookup = np.full(ring.order, -1)
    lookup[members] = np.arange(m)
    out = FiniteRing(
        m, int(lookup[one_parent]), label,
        add_fn=lambda a, b: lookup[ring.add_arr(members[a], members[b])],
        mul_fn=lambda a, b: lookup[ring.mul_arr(members[a], members[b])],
        neg_fn=lambda a: lookup[ring.neg_arr(members[a])],
    )
    table_mode = materialize if materialize is not None else m <= limits.table_threshold
    if table_mode:
        try:
            out = out.materialized()
        except ArgumentError:  # a -1 from lookup: an operation left the member set
            raise InternalConsistencyError(
                f"{label}: member set is not closed under the inherited operations") from None
    return Subring(out, ring, tuple(members.tolist()))


def corner(ring: FiniteRing, e: int, *, label: str | None = None,
           limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> Subring:
    """The corner ring eRe for a nonzero idempotent e; its identity is e."""
    ring._check_index(e)
    if e == 0:
        raise ArgumentError("corner needs a nonzero idempotent; got 0")
    if ring.mul(e, e) != e:
        raise ArgumentError(f"{e} is not idempotent in {ring.label}: e*e = {ring.mul(e, e)}")
    members = np.unique(ring.mul_arr(ring.mul_arr(e, np.arange(ring.order)), e))
    label = label or f"CORNER({ring.label}, {e})"
    return _inherited_subring(ring, members, e, label, limits, materialize)


def subring_closure(ring: FiniteRing, gens, *, label: str | None = None,
                    limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> Subring:
    """Smallest subring containing gens together with 0 and 1."""
    gens = [int(x) for x in gens]
    for x in gens:
        ring._check_index(x)
    label = label or f"subring({', '.join(str(g) for g in gens)}) of {ring.label}"
    members = closure(ring, [ring.one] + gens, ideal=False)
    return _inherited_subring(ring, members, ring.one, label, limits, materialize)

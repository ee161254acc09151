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
same coordinate formulas.  A coordinate construction's table build runs
its formula only on row 0 and the (q-1)*k generator rows c*e_i (one
nonzero coordinate) and fills every other row x = x' + c*e_i from rows
already built: ADD[x] = ADD[x', ADD[c*e_i]] and, by right
distributivity, MUL[x] = ADD[MUL[x'], MUL[c*e_i]].  The fill equals the
formula whenever the base is a ring, which every base built by this
module or parsed from an expression is; run ``verify_axioms`` on a
hand-made ``FiniteRing`` before using it as a base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_LIMITS,
    ArgumentError,
    FiniteRing,
    InternalConsistencyError,
    Limits,
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

    def image(self) -> frozenset:
        return frozenset(self.embedding)


@dataclass(frozen=True)
class QuotientRing:
    """A quotient ring with its projection: parent index -> quotient index."""

    ring: FiniteRing
    parent: FiniteRing
    projection: tuple

    def project(self, x: int) -> int:
        return self.projection[x]


class _Ops:
    """Elementwise base-ring arithmetic accepting ints or numpy arrays.

    Table-backed rings go through numpy indexing (which broadcasts);
    lazy rings only support the scalar forms.
    """

    def __init__(self, add, mul, neg, one):
        self.add = add
        self.mul = mul
        self.neg = neg
        self.one = one

    @staticmethod
    def for_ring(ring: FiniteRing) -> "_Ops":
        if ring.mode == "table":
            A, M, N = ring.add_table, ring.mul_table, ring.neg_table
            return _Ops(lambda a, b: A[a, b], lambda a, b: M[a, b], lambda a: N[a], ring.one)
        return _Ops(
            lambda a, b: ring._add_fn(int(a), int(b)),
            lambda a, b: ring._mul_fn(int(a), int(b)),
            lambda a: ring._neg_fn(int(a)),
            ring.one,
        )


def _decode_matrix(order: int, radices, weights) -> np.ndarray:
    idx = np.arange(order, dtype=np.int64)
    dec = np.empty((order, len(radices)), dtype=np.int64)
    for i, (r, w) in enumerate(zip(radices, weights)):
        dec[:, i] = (idx // w) % r
    return dec

def _encode_scalar(coords, weights) -> int:
    return int(sum(int(c) * w for c, w in zip(coords, weights)))

def _encode_arrays(coords, weights):
    acc = None
    for c, w in zip(coords, weights):
        term = np.asarray(c, dtype=np.int64) * w
        acc = term if acc is None else acc + term
    return acc.astype(np.int32)


def _coord_ring(base, k, weights, one_coords, mul_coords, label, limits, materialize):
    """Build a ring whose elements are k coordinates over ``base``.

    Addition and negation are componentwise; multiplication comes from
    ``mul_coords(ops, xc, yc) -> zc``, written purely in terms of
    ``ops.add``/``ops.mul``/``ops.neg`` so the same formula serves the
    vectorized table build and on-demand scalar evaluation.  ``weights``
    must be the powers q^0..q^(k-1) in some order.

    In table mode the formula runs on row 0 and the generator rows c*e_i
    only: broadcast over the base tables, or through the scalar
    functions over a lazy base.  The other rows are filled in ascending
    weight order, one block gather per coordinate and table, so each
    table costs O(n^2) once instead of once per formula term.  The fill
    equals the formula when ``base`` is a ring (see the module
    docstring); the negation table is read off the addition table.
    """
    q = base.order
    order = q ** k
    limits.check_order(order, label)
    table_mode = materialize if materialize is not None else order <= limits.table_threshold
    radices = [q] * k
    dec = _decode_matrix(order, radices, weights)
    one_index = _encode_scalar(one_coords, weights)
    ops = _Ops.for_ring(base)

    def add_fn(x, y):
        xc, yc = dec[x], dec[y]
        return _encode_scalar([ops.add(int(a), int(b)) for a, b in zip(xc, yc)], weights)

    def mul_fn(x, y):
        xc = [int(v) for v in dec[x]]
        yc = [int(v) for v in dec[y]]
        return _encode_scalar(mul_coords(ops, xc, yc), weights)

    def neg_fn(x):
        return _encode_scalar([ops.neg(int(a)) for a in dec[x]], weights)

    if not table_mode:
        return FiniteRing(order, one_index, label, add_fn=add_fn, mul_fn=mul_fn, neg_fn=neg_fn)

    steps = sorted(weights)
    rows = np.array([0] + [c * w for w in steps for c in range(1, q)])
    add_t = np.empty((order, order), dtype=np.int32)
    mul_t = np.empty((order, order), dtype=np.int32)
    if base.mode == "table":
        xs = [dec[rows, i].reshape(-1, 1) for i in range(k)]
        ys = [dec[:, i].reshape(1, -1) for i in range(k)]
        add_t[rows] = _encode_arrays([ops.add(x, y) for x, y in zip(xs, ys)], weights)
        mul_t[rows] = _encode_arrays(mul_coords(ops, xs, ys), weights)
    else:
        add_t[rows] = [[add_fn(int(x), y) for y in range(order)] for x in rows]
        mul_t[rows] = [[mul_fn(int(x), y) for y in range(order)] for x in rows]
    # Row c*w + x' (x' < w) is x' + g for g = c*w, so by associativity and
    # right distributivity ADD[x] = ADD[x', ADD[g]] and MUL[x] =
    # ADD[MUL[x'], MUL[g]].  Ascending w keeps rows below w filled; MUL
    # waits for the whole of ADD because it reads arbitrary ADD rows.
    for w in steps:
        g = np.arange(1, q) * w
        add_t[w:q * w] = add_t[np.arange(w)[:, None], add_t[g][:, None, :]].reshape(-1, order)
    for w in steps:
        g = np.arange(1, q) * w
        mul_t[w:q * w] = add_t[mul_t[None, :w], mul_t[g][:, None, :]].reshape(-1, order)
    return FiniteRing(order, one_index, label, add_table=add_t, mul_table=mul_t)


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
    if table_mode:
        idx = np.arange(n)
        return FiniteRing(
            n, 1, label,
            add_table=(idx[:, None] + idx[None, :]) % n,
            mul_table=(idx[:, None] * idx[None, :]) % n,
            neg_table=(-idx) % n,
        )
    return FiniteRing(
        n, 1, label,
        add_fn=lambda x, y: (x + y) % n,
        mul_fn=lambda x, y: (x * y) % n,
        neg_fn=lambda x: (-x) % n,
    )


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
    deg = len(f) - 1
    for d in range(1, deg):
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
    if not is_prime(p):
        raise ArgumentError(f"GF needs a prime, got {p}")
    if k < 1:
        raise ArgumentError(f"GF needs extension degree >= 1, got {k}")
    label = label or f"GF({p}, {k})"
    limits.check_order(p ** k, label)
    f = smallest_irreducible(p, k)
    base = zmod(p, limits=limits)
    return poly_quotient(base, f, label=label, limits=limits, materialize=materialize)


# ---------------------------------------------------------------------------
# Coordinate constructions


def product(r1: FiniteRing, r2: FiniteRing, *, label: str | None = None,
            limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """Direct product; (a, b) is encoded as a * |R2| + b and one = (1, 1)."""
    label = label or f"{r1.label} x {r2.label}"
    order = r1.order * r2.order
    limits.check_order(order, label)
    n2 = r2.order
    one_index = r1.one * n2 + r2.one
    table_mode = materialize if materialize is not None else order <= limits.table_threshold
    if table_mode and r1.mode == "table" and r2.mode == "table":
        idx = np.arange(order)
        a, b = idx // n2, idx % n2
        ax, ay = a[:, None], a[None, :]
        bx, by = b[:, None], b[None, :]
        add_t = r1.add_table[ax, ay].astype(np.int64) * n2 + r2.add_table[bx, by]
        mul_t = r1.mul_table[ax, ay].astype(np.int64) * n2 + r2.mul_table[bx, by]
        neg_t = r1.neg_table[a].astype(np.int64) * n2 + r2.neg_table[b]
        return FiniteRing(order, one_index, label, add_table=add_t, mul_table=mul_t, neg_table=neg_t)

    def add_fn(x, y):
        return r1.add(x // n2, y // n2) * n2 + r2.add(x % n2, y % n2)

    def mul_fn(x, y):
        return r1.mul(x // n2, y // n2) * n2 + r2.mul(x % n2, y % n2)

    def neg_fn(x):
        return r1.neg(x // n2) * n2 + r2.neg(x % n2)

    if not table_mode:
        return FiniteRing(order, one_index, label, add_fn=add_fn, mul_fn=mul_fn, neg_fn=neg_fn)
    add_t = [[add_fn(x, y) for y in range(order)] for x in range(order)]
    mul_t = [[mul_fn(x, y) for y in range(order)] for x in range(order)]
    neg_t = [neg_fn(x) for x in range(order)]
    return FiniteRing(order, one_index, label, add_table=add_t, mul_table=mul_t, neg_table=neg_t)


def matrix_ring(m: int, base: FiniteRing, *, label: str | None = None,
                limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """m x m matrices over ``base``, row-major encoding, one = identity matrix."""
    if m < 1:
        raise ArgumentError(f"matrix size must be >= 1, got {m}")
    label = label or f"M({m}, {base.label})"
    k = m * m
    weights = _little_endian_weights(base.order, k)
    one_coords = [base.one if r == c else 0 for r in range(m) for c in range(m)]

    def mul_coords(ops, xc, yc):
        zc = []
        for r in range(m):
            for c in range(m):
                acc = None
                for t in range(m):
                    term = ops.mul(xc[r * m + t], yc[t * m + c])
                    acc = term if acc is None else ops.add(acc, term)
                zc.append(acc)
        return zc

    return _coord_ring(base, k, weights, one_coords, mul_coords, label, limits, materialize)


def upper_triangular(m: int, base: FiniteRing, *, label: str | None = None,
                     limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> FiniteRing:
    """Upper-triangular m x m matrices over ``base`` (m >= 2)."""
    if m < 2:
        raise ArgumentError(f"upper-triangular size must be >= 2, got {m}")
    label = label or f"UT({m}, {base.label})"
    cells = [(i, j) for i in range(m) for j in range(i, m)]
    pos = {cell: i for i, cell in enumerate(cells)}
    k = len(cells)
    weights = _little_endian_weights(base.order, k)
    one_coords = [base.one if i == j else 0 for (i, j) in cells]

    def mul_coords(ops, xc, yc):
        zc = []
        for (i, j) in cells:
            acc = None
            for t in range(i, j + 1):
                term = ops.mul(xc[pos[(i, t)]], yc[pos[(t, j)]])
                acc = term if acc is None else ops.add(acc, term)
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

    def mul_coords(ops, xc, yc):
        x, xm = xc
        y, ym = yc
        return [ops.mul(x, y), ops.add(ops.mul(x, ym), ops.mul(xm, y))]

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

    def mul_coords(ops, xc, yc):
        conv = [None] * (2 * d - 1)
        for i in range(d):
            for j in range(d):
                term = ops.mul(xc[i], yc[j])
                t = i + j
                conv[t] = term if conv[t] is None else ops.add(conv[t], term)
        zc = list(conv[:d])
        for t in range(d, 2 * d - 1):
            c = conv[t]
            for s, rc in enumerate(reductions[t]):
                if rc != 0:
                    zc[s] = ops.add(zc[s], ops.mul(c, rc))
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

    def mul_coords(ops, xc, yc):
        zc = []
        for t in range(k):
            acc = None
            for i, j in pairs_for[t]:
                term = ops.mul(xc[i], yc[j])
                acc = term if acc is None else ops.add(acc, term)
            zc.append(acc)
        return zc

    return _coord_ring(base, k, weights, one_coords, mul_coords, label, limits, materialize)


# ---------------------------------------------------------------------------
# Derived rings: quotients, corners, generated subrings


def _ideal_violation(ring: FiniteRing, members: frozenset) -> str | None:
    """None if ``members`` is a two-sided ideal, else a violation message."""
    if 0 not in members:
        return "0 is missing"
    if ring.mode == "table":
        arr = np.array(sorted(members))
        mask = np.zeros(ring.order, dtype=bool)
        mask[arr] = True
        sums = ring.add_table[np.ix_(arr, arr)]
        ok = mask[sums]
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            return f"not closed under addition: {int(arr[i])} + {int(arr[j])} = {int(sums[i, j])}"
        negs = ring.neg_table[arr]
        ok = mask[negs]
        if not ok.all():
            i = int(np.argwhere(~ok)[0][0])
            return f"not closed under negation: -{int(arr[i])} = {int(negs[i])}"
        left = ring.mul_table[:, arr]
        ok = mask[left]
        if not ok.all():
            r, i = np.argwhere(~ok)[0]
            return f"not closed under left multiplication: {int(r)} * {int(arr[i])} = {int(left[r, i])}"
        right = ring.mul_table[arr, :]
        ok = mask[right]
        if not ok.all():
            i, r = np.argwhere(~ok)[0]
            return f"not closed under right multiplication: {int(arr[i])} * {int(r)} = {int(right[i, r])}"
        return None
    for x in members:
        for y in members:
            if ring.add(x, y) not in members:
                return f"not closed under addition: {x} + {y} = {ring.add(x, y)}"
        if ring.neg(x) not in members:
            return f"not closed under negation: -{x} = {ring.neg(x)}"
        for r in range(ring.order):
            if ring.mul(r, x) not in members:
                return f"not closed under left multiplication: {r} * {x} = {ring.mul(r, x)}"
            if ring.mul(x, r) not in members:
                return f"not closed under right multiplication: {x} * {r} = {ring.mul(x, r)}"
    return None


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
    violation = _ideal_violation(ring, members)
    if violation is not None:
        raise ArgumentError(f"{sorted(members)} is not an ideal of {ring.label}: {violation}")
    n = ring.order
    ideal_list = sorted(members)
    rep = [-1] * n
    for x in range(n):
        if rep[x] != -1:
            continue
        for i in ideal_list:
            rep[ring.add(x, i)] = x
    reps = sorted(set(rep))
    pos = {r: i for i, r in enumerate(reps)}
    proj = tuple(pos[r] for r in rep)
    m = len(reps)
    if proj[ring.one] == proj[0]:
        raise ArgumentError(f"ideal of {ring.label} contains 1; the quotient is the zero ring")
    label = label or f"{ring.label} mod ideal({len(members)})"
    table_mode = materialize if materialize is not None else m <= limits.table_threshold
    if table_mode:
        if ring.mode == "table":
            proj_arr = np.array(proj)
            reps_arr = np.array(reps)
            add_t = proj_arr[ring.add_table[np.ix_(reps_arr, reps_arr)]]
            mul_t = proj_arr[ring.mul_table[np.ix_(reps_arr, reps_arr)]]
            neg_t = proj_arr[ring.neg_table[reps_arr]]
        else:
            add_t = [[proj[ring.add(a, b)] for b in reps] for a in reps]
            mul_t = [[proj[ring.mul(a, b)] for b in reps] for a in reps]
            neg_t = [proj[ring.neg(a)] for a in reps]
        out = FiniteRing(m, proj[ring.one], label, add_table=add_t, mul_table=mul_t, neg_table=neg_t)
    else:
        out = FiniteRing(
            m, proj[ring.one], label,
            add_fn=lambda a, b: proj[ring.add(reps[a], reps[b])],
            mul_fn=lambda a, b: proj[ring.mul(reps[a], reps[b])],
            neg_fn=lambda a: proj[ring.neg(reps[a])],
        )
    return QuotientRing(out, ring, proj)


def _inherited_subring(ring: FiniteRing, members: list[int], one_parent: int, label: str,
                       limits: Limits, materialize: bool | None) -> Subring:
    pos = {x: i for i, x in enumerate(members)}
    m = len(members)
    table_mode = materialize if materialize is not None else m <= limits.table_threshold
    if table_mode:
        if ring.mode == "table":
            arr = np.array(members)
            lookup = np.full(ring.order, -1)
            lookup[arr] = np.arange(m)
            add_t = lookup[ring.add_table[np.ix_(arr, arr)]]
            mul_t = lookup[ring.mul_table[np.ix_(arr, arr)]]
            neg_t = lookup[ring.neg_table[arr]]
            if min(add_t.min(), mul_t.min(), int(neg_t.min())) < 0:
                raise InternalConsistencyError(
                    f"{label}: member set is not closed under the inherited operations")
        else:
            add_t = [[pos[ring.add(a, b)] for b in members] for a in members]
            mul_t = [[pos[ring.mul(a, b)] for b in members] for a in members]
            neg_t = [pos[ring.neg(a)] for a in members]
        out = FiniteRing(m, pos[one_parent], label, add_table=add_t, mul_table=mul_t, neg_table=neg_t)
    else:
        out = FiniteRing(
            m, pos[one_parent], label,
            add_fn=lambda a, b: pos[ring.add(members[a], members[b])],
            mul_fn=lambda a, b: pos[ring.mul(members[a], members[b])],
            neg_fn=lambda a: pos[ring.neg(members[a])],
        )
    return Subring(out, ring, tuple(members))


def corner(ring: FiniteRing, e: int, *, label: str | None = None,
           limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> Subring:
    """The corner ring eRe for a nonzero idempotent e; its identity is e."""
    ring._check_index(e)
    if e == 0:
        raise ArgumentError("corner needs a nonzero idempotent; got 0")
    if ring.mul(e, e) != e:
        raise ArgumentError(f"{e} is not idempotent in {ring.label}: e*e = {ring.mul(e, e)}")
    if ring.mode == "table":
        exe = ring.mul_table[ring.mul_table[e, :], e]
        members = sorted(int(v) for v in np.unique(exe))
    else:
        members = sorted({ring.mul(ring.mul(e, x), e) for x in range(ring.order)})
    label = label or f"CORNER({ring.label}, {e})"
    return _inherited_subring(ring, members, e, label, limits, materialize)


def subring_closure(ring: FiniteRing, gens, *, label: str | None = None,
                    limits: Limits = DEFAULT_LIMITS, materialize: bool | None = None) -> Subring:
    """Smallest subring containing gens together with 0 and 1."""
    gens = [int(x) for x in gens]
    for x in gens:
        ring._check_index(x)
    if ring.mode == "table":
        cur = np.unique(np.array([0, ring.one] + gens, dtype=np.int64))
        while True:
            sums = ring.add_table[np.ix_(cur, cur)].ravel()
            prods = ring.mul_table[np.ix_(cur, cur)].ravel()
            negs = ring.neg_table[cur]
            new = np.unique(np.concatenate([cur, sums, prods, negs]))
            if len(new) == len(cur):
                break
            cur = new
        members = [int(v) for v in cur]
    else:
        members_set = {0, ring.one}
        frontier = list(gens)
        while frontier:
            w = frontier.pop()
            if w in members_set:
                continue
            members_set.add(w)
            frontier.append(ring.neg(w))
            for s in list(members_set):
                frontier.append(ring.add(w, s))
                frontier.append(ring.mul(w, s))
                frontier.append(ring.mul(s, w))
        members = sorted(members_set)
    label = label or f"subring({', '.join(str(g) for g in gens)}) of {ring.label}"
    return _inherited_subring(ring, members, ring.one, label, limits, materialize)

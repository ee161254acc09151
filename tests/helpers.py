"""Independent brute-force oracles for the test suite.

Everything here recomputes structural data from definitions, using none
of the library's analysis code paths (and for the Z/n oracles, none of
the library at all), so tests compare two genuinely different routes.
The exceptions are the two verify-loop oracles, which replay C2's and
C5's loops without their orbit dedupes over the library's closures, so
that a test pins the dedupes alone.
"""

from __future__ import annotations

import random
from math import gcd

import numpy as np

from finring import build
from finring.analysis import closure, ideal_closure, jacobson
from finring.core import DEFAULT_MAX_ORDER, AxiomCheck, FiniteRing, Limits
from finring.expr import Term
from finring.harness import PRODUCT_PAIR_CAP

# The storage mode of every ring a construction builds, chosen by the one
# setting that selects it: all tables up to the default order limit, or
# all lazy.
TABLE = Limits(table_threshold=DEFAULT_MAX_ORDER)
LAZY = Limits(table_threshold=1)

# ---------------------------------------------------------------------------
# Oracles over a FiniteRing (definition-level scans via ring ops only)


def brute_units(ring) -> dict:
    """Unit -> inverse by scanning all pairs both ways."""
    out = {}
    n, one = ring.order, ring.one
    for x in range(n):
        for y in range(n):
            if ring.mul(x, y) == one and ring.mul(y, x) == one:
                out[x] = y
                break
    return out


def brute_jacobson(ring) -> set:
    unit_set = set(brute_units(ring))
    n, one = ring.order, ring.one
    return {
        x for x in range(n)
        if all(ring.sub(one, ring.mul(r, x)) in unit_set for r in range(n))
    }


def brute_power_set(ring, targets) -> set:
    """Elements with some power x^m, 1 <= m <= order, inside ``targets``."""
    out = set()
    for x in range(ring.order):
        p = x
        for _ in range(ring.order):
            if p in targets:
                out.add(x)
                break
            p = ring.mul(p, x)
    return out


def brute_sqrt_jacobson(ring) -> set:
    return brute_power_set(ring, brute_jacobson(ring))


def brute_nilpotents(ring) -> set:
    return brute_power_set(ring, {0})


def brute_idempotents(ring) -> set:
    return {x for x in range(ring.order) if ring.mul(x, x) == x}


def brute_center(ring) -> set:
    n = ring.order
    return {x for x in range(n) if all(ring.mul(x, y) == ring.mul(y, x) for y in range(n))}


def full_commutant(ring) -> set:
    """Elements x with x*y == y*x for every y, one n x n product array."""
    every = np.arange(ring.order)
    table = ring.mul_arr(every[:, None], every[None, :])
    return set(np.flatnonzero((table == table.T).all(axis=1)).tolist())


def quasi_regular_radical(ring) -> frozenset:
    """J(R) by quasi-regularity: x is in J(R) iff 1 - r*x is a unit for
    every r, with the units read off one n x n product array as the x
    that have a y with x*y = y*x = 1."""
    every = np.arange(ring.order)
    table = ring.mul_arr(every[:, None], every[None, :])  # table[r, x] = r * x
    unit_mask = ((table == ring.one) & (table.T == ring.one)).any(axis=1)
    one_minus = ring.add_arr(ring.one, ring.neg_arr(every))  # 1 - t for every t
    return frozenset(np.flatnonzero(unit_mask[one_minus[table]].all(axis=0)).tolist())


def power_law_mod_j(ring, k: int) -> bool:
    """True iff x^k - x lies in J(R) for every x, J(R) read from
    :func:`quasi_regular_radical`: no units enter.

    The units-free criteria for the six unit classes of a finite ring:
    UU = UJ = sqrtJU iff k = 2 holds (R/J(R) is Boolean), and
    2-UU = 2-UJ = 2-sqrtJU iff k = 3 holds (R/J(R) is a product of
    copies of F_2 and F_3)."""
    in_j = np.zeros(ring.order, dtype=bool)
    in_j[list(quasi_regular_radical(ring))] = True
    every = power = np.arange(ring.order)
    for _ in range(k - 1):
        power = ring.mul_arr(power, every)
    return bool(in_j[ring.add_arr(power, ring.neg_arr(every))].all())


def relabelled(ring, seed: int) -> FiniteRing:
    """A table ring isomorphic to ``ring`` under a seeded random
    permutation of the indices that fixes 0, so its additive generating
    set S is no longer the one the construction's order gives."""
    n = ring.order
    sigma = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])
    every = np.arange(n)[:, None]

    def relabel(op):  # table[sigma[x], sigma[y]] = sigma[op(x, y)]
        table = np.empty((n, n), dtype=np.intp)
        table[np.ix_(sigma, sigma)] = sigma[op(every, every.T)]
        return table

    return FiniteRing(n, int(sigma[ring.one]), f"{ring.label} relabelled {seed}",
                      add_table=relabel(ring.add_arr), mul_table=relabel(ring.mul_arr))


def additive_span(ring, gens) -> set:
    """Everything reached from 0 by adding elements of ``gens``."""
    reached = np.zeros(ring.order, dtype=bool)
    reached[0] = True
    gens = np.asarray(gens, dtype=np.intp)
    while True:
        hit = ring.add_arr(np.flatnonzero(reached)[:, None], gens[None, :])
        if reached[hit].all():
            return set(np.flatnonzero(reached).tolist())
        reached[hit] = True


def magma_closure(ADD, S) -> set:
    """The closure of ``S`` under the binary operation table ``ADD``: every
    sum of elements of S, however bracketed, and nothing else (0 only
    if S or such a sum holds it)."""
    ADD = np.asarray(ADD)
    reached = set(int(s) for s in S)
    while True:
        cur = sorted(reached)
        sums = set(ADD[np.ix_(cur, cur)].ravel().tolist())
        if sums <= reached:
            return reached
        reached |= sums


def round_based_closure(ring, seeds, *, ideal: bool) -> np.ndarray:
    """Sorted indices of the smallest set holding ``seeds`` that is closed
    under addition, negation and multiplication on both sides by its own
    members, or by every element when ``ideal``.  Each round combines
    only the elements first reached in the round before with the rest."""
    every = np.arange(ring.order)
    inside = np.zeros(ring.order, dtype=bool)
    new = np.unique(np.asarray(seeds, dtype=np.intp))
    while len(new):
        inside[new] = True
        cur = np.flatnonzero(inside)
        scope = every if ideal else cur
        reached = np.zeros(ring.order, dtype=bool)
        reached[ring.neg_arr(new)] = True
        for op, xs, ys in (("add", new, cur), ("add", cur, new), ("mul", scope, new), ("mul", new, scope)):
            for _, block in ring.blocks(op, xs, ys):
                reached[block] = True
        new = np.flatnonzero(reached & ~inside)
    return np.flatnonzero(inside)


def full_scan_ideal_violation(ring, members) -> str | None:
    """The first failing ideal law of ``members`` over all of I x I, -I,
    R x I and I x R, in that order, worded as ``quotient`` words it.
    This is the |I|^2 pair scan for closure under addition that the
    span test of ``ideal_violation`` is compared with."""
    if 0 not in members:
        return "0 is missing"
    arr = np.array(sorted(members))
    every = np.arange(ring.order)
    inside = np.zeros(ring.order, dtype=bool)
    inside[arr] = True

    def first_outside(op, xs, ys):
        values = op(xs[:, None], ys[None, :])
        outside = ~inside[values]
        if outside.any():
            i, j = np.unravel_index(int(np.argmax(outside)), outside.shape)
            return int(xs[i]), int(ys[j]), int(values[i, j])
        return None

    bad = first_outside(ring.add_arr, arr, arr)
    if bad:
        return "not closed under addition: {} + {} = {}".format(*bad)
    negs = ring.neg_arr(arr)
    if not inside[negs].all():
        i = int(np.argmin(inside[negs]))
        return f"not closed under negation: -{int(arr[i])} = {int(negs[i])}"
    bad = first_outside(ring.mul_arr, every, arr)
    if bad:
        return "not closed under left multiplication: {} * {} = {}".format(*bad)
    bad = first_outside(ring.mul_arr, arr, every)
    if bad:
        return "not closed under right multiplication: {} * {} = {}".format(*bad)
    return None


def c3_pairs(rings) -> list:
    """The pairs (R1, R2) whose products verify's C3 builds from the
    corpus ``rings``: unordered, R1 first in corpus order, and
    |R1|*|R2| <= PRODUCT_PAIR_CAP."""
    return [(r1, r2) for i, r1 in enumerate(rings) for r2 in rings[i:]
            if r1.order * r2.order <= PRODUCT_PAIR_CAP]


def every_principal_ideal_in_j(ring) -> list:
    """C2's ideals by one closure for every z of J(R), ascending: the
    distinct (smallest generator, ideal) pairs, then (None, J(R)) unless
    J(R) is already among them."""
    j = jacobson(ring)
    seen = {}
    for z in j.indices():
        ideal = ideal_closure(ring, [z])
        seen.setdefault(ideal.members, (z, ideal))
    seen.setdefault(j.members, (None, j))
    return list(seen.values())


def coset_representatives(ring, members) -> np.ndarray:
    """rep[x] = min(x + I) for the ideal I with sorted index array
    ``members``, from all n*|I| sums, by row blocks."""
    return np.concatenate([block.min(axis=1) for _, block in
                           ring.blocks("add", np.arange(ring.order), members)])


def every_single_generator_subring(ring):
    """C5's subrings by one closure for every x of R, ascending, and a
    second one, in ``build.subring_closure``, for each new subring:
    yields (smallest x, subring generated by 1 and x)."""
    seen = set()
    for x in range(ring.order):
        key = closure(ring, [ring.one, x], ideal=False).tobytes()
        if key in seen:
            continue
        seen.add(key)
        yield x, build.subring_closure(ring, [x])


def unit_square_sum_scan(ring) -> str:
    """C11's failure text by scanning every unit pair (u, v) for
    u^2 + v = 1 in row-major order: the first pair found, or ""."""
    us = np.array(sorted(brute_units(ring)))
    for lo, block in ring.blocks("add", ring.mul_arr(us, us), us):  # u^2 + v
        hit = block == ring.one
        if hit.any():
            i, j = np.unravel_index(int(np.argmax(hit)), hit.shape)
            return f"u={us[lo + i]}, v={us[j]} gives u^2 + v = 1"
    return ""


def brute_unit_square_class(ring, target: set) -> bool:
    one = ring.one
    for u in brute_units(ring):
        if ring.sub(ring.mul(u, u), one) not in target:
            return False
    return True


# ---------------------------------------------------------------------------
# Pure-integer oracles for Z/n (library-free)


def zn_units(n: int) -> set:
    return {u for u in range(n) if gcd(u, n) == 1}


def zn_jacobson(n: int) -> set:
    us = zn_units(n)
    return {x for x in range(n) if all((1 - r * x) % n in us for r in range(n))}


def zn_sqrt_jacobson(n: int) -> set:
    j = zn_jacobson(n)
    out = set()
    for x in range(n):
        p = x % n
        for _ in range(n):
            if p in j:
                out.add(x)
                break
            p = (p * x) % n
    return out


def zn_two_sqrt_ju(n: int) -> bool:
    """Direct unit-square scan over the integers mod n."""
    sj = zn_sqrt_jacobson(n)
    return all((u * u - 1) % n in sj for u in zn_units(n))


def radical(n: int) -> int:
    """Product of the distinct primes dividing n."""
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            out *= d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out *= n
    return out


def is_2a3b(n: int) -> bool:
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


# ---------------------------------------------------------------------------
# Inline construction oracles (independent of finring.build internals)


def mat_mul_oracle(a, b, m: int, q: int):
    """Multiply m x m matrices over Z/q given as flat row-major tuples."""
    return tuple(
        sum(a[r * m + t] * b[t * m + c] for t in range(m)) % q
        for r in range(m) for c in range(m)
    )


def mat_index(flat, q: int) -> int:
    """Row-major little-endian encoding: entry (0,0) least significant."""
    return sum(v * q ** i for i, v in enumerate(flat))


def mat_decode(idx: int, m: int, q: int):
    return tuple((idx // q ** i) % q for i in range(m * m))


def group_ring_mul_oracle(a, b, table, q: int):
    """Convolve coefficient tuples over a group Cayley table, mod q."""
    k = len(a)
    out = [0] * k
    for i in range(k):
        if a[i] == 0:
            continue
        for j in range(k):
            out[table[i][j]] = (out[table[i][j]] + a[i] * b[j]) % q
    return tuple(out)


def little_endian_coords(idx: int, k: int, q: int) -> tuple:
    """The k base-q digits of ``idx``, least significant first."""
    return tuple((idx // q ** i) % q for i in range(k))


def componentwise_sum(base, x: int, y: int, k: int) -> int:
    """x + y for k-digit indices over ``base``, by scalar ``base.add`` on
    each little-endian digit."""
    q = base.order
    digits = zip(little_endian_coords(x, k, q), little_endian_coords(y, k, q))
    return sum(base.add(a, b) * q ** i for i, (a, b) in enumerate(digits))


def stored_tables(ring) -> list:
    """The tables a table ring stores: MUL, NEG, and ADD where its build
    made one.  ``add_table`` of a ring that stores no ADD is a new table
    on each read, so this looks at the stored one."""
    return [t for t in (ring._stored_add, ring.mul_table, ring.neg_table) if t is not None]


# ---------------------------------------------------------------------------
# Schoolbook construction oracles over any base ring, by scalar base.mul and
# base.add.  Each base product is taken x first, then y, so over a
# noncommutative base they tell a construction from the same construction
# over the opposite ring, which is a ring too.


def base_sum(base, values) -> int:
    acc = 0
    for v in values:
        acc = base.add(acc, v)
    return acc


def matrix_mul_over(base, a, b, m: int) -> tuple:
    """Multiply m x m matrices over ``base`` given as flat row-major tuples."""
    return tuple(base_sum(base, (base.mul(a[r * m + t], b[t * m + c]) for t in range(m)))
                 for r in range(m) for c in range(m))


def upper_triangular_mul_over(base, a, b, m: int) -> tuple:
    """Multiply upper-triangular matrices given by their row-major
    upper-triangle entries, as full matrices with zeros below the diagonal."""
    cells = [(i, j) for i in range(m) for j in range(i, m)]

    def full(entries):
        flat = [0] * (m * m)
        for (i, j), v in zip(cells, entries):
            flat[i * m + j] = v
        return flat

    prod = matrix_mul_over(base, full(a), full(b), m)
    return tuple(prod[i * m + j] for i, j in cells)


def trivial_extension_mul_over(base, a, b) -> tuple:
    """(x, m)(y, n) = (xy, xn + my) over ``base``."""
    (x, m), (y, n) = a, b
    return base.mul(x, y), base.add(base.mul(x, n), base.mul(m, y))


def poly_mul_over(base, a, b, f) -> tuple:
    """Multiply coefficient vectors (c0 first) over ``base`` with x central,
    then reduce by long division by the monic ``f``: the top term c*x^s
    becomes c*x^(s-d) * (x^d - f)."""
    d = len(f) - 1
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
    for s in range(2 * d - 2, d - 1, -1):
        for t in range(d):
            prod[s - d + t] = base.sub(prod[s - d + t], base.mul(prod[s], f[t]))
    return tuple(prod[:d])


def group_ring_mul_over(base, a, b, group) -> tuple:
    """Convolve coefficient tuples over ``group``'s Cayley table."""
    out = [0] * group.order
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            g = group.op(i, j)
            out[g] = base.add(out[g], base.mul(ai, bj))
    return tuple(out)


# ---------------------------------------------------------------------------
# Cyclic subgroups by a frontier closure over scalar group.op


def subgroup_closure(group, a: int) -> list[int]:
    """The sorted members of the subgroup generated by ``a``: a frontier
    of products, both ways, with every member found so far."""
    members = {0}
    frontier = [a]
    while frontier:
        x = frontier.pop()
        if x in members:
            continue
        members.add(x)
        for y in list(members):
            frontier.append(group.op(x, y))
            frontier.append(group.op(y, x))
    return sorted(members)


def group_product_oracle(g, h) -> np.ndarray:
    """The Cayley table of g x h, (a, b) at a * |H| + b, by gathering
    each factor's table at every pair of the product's coordinates."""
    every = np.arange(g.order * h.order)
    a, b = every // h.order, every % h.order
    return g.table[np.ix_(a, a)].astype(np.int64) * h.order + h.table[np.ix_(b, b)]


def cyclic_subgroups_oracle(group) -> list[tuple]:
    """(label, order, table) of each distinct <a> in order of its first
    generator a, relabeled on its sorted members, then of the group
    itself unless some <a> is all of it."""
    seen = set()
    out = []
    for a in range(group.order):
        sub = subgroup_closure(group, a)
        if tuple(sub) in seen:
            continue
        seen.add(tuple(sub))
        pos = {x: i for i, x in enumerate(sub)}
        out.append((f"<{a}> of {group.label}", len(sub), [[pos[group.op(x, y)] for y in sub] for x in sub]))
    if not any(len(s) == group.order for s in seen):
        out.append((group.label, group.order, group.table.tolist()))
    return out


# ---------------------------------------------------------------------------
# Random expression trees for round-trip property tests


def random_group_expr(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.55:
        choice = rng.randrange(4)
        if choice == 0:
            return Term(rng.choice(["S3", "D4", "Q8"]), ())
        return Term("C", (rng.randint(1, 8),))
    return Term("x", (random_group_expr(rng, depth - 1), random_group_expr(rng, depth - 1)))


def random_ring_expr(rng: random.Random, depth: int):
    """A structurally valid AST (parse/format round trips only; the big
    ones are far outside evaluation limits on purpose)."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return Term("Z", (rng.randint(2, 64),))
        return Term("GF", (rng.choice([2, 3, 5, 7]), rng.randint(1, 3)))
    kind = rng.randrange(11)
    inner = random_ring_expr(rng, depth - 1)
    if kind == 0:
        return Term("x", (inner, random_ring_expr(rng, depth - 1)))
    if kind == 1:
        return Term("M", (rng.randint(1, 3), inner))
    if kind == 2:
        return Term("UT", (rng.randint(2, 3), inner))
    if kind == 3:
        return Term("TE", (inner,))
    if kind == 4:
        return Term("BT", (inner,))
    if kind == 5:
        return Term("NIL", (inner, rng.randint(1, 4)))
    if kind == 6:
        return Term("GR", (inner, random_group_expr(rng, depth - 1)))
    if kind == 7:
        return Term("POLYQ", (inner, tuple(rng.randint(0, 8) for _ in range(rng.randint(2, 5)))))
    if kind == 8:
        return Term("MODJ", (inner,))
    if kind == 9:
        return Term("CORNER", (inner, rng.randint(0, 30)))
    return Term("QUOT", (inner, tuple(rng.randint(0, 30) for _ in range(rng.randint(1, 3)))))


# ---------------------------------------------------------------------------
# Full-cube reference for the exhaustive table-mode ternary axiom checks


def full_cube_ternary_checks(ring) -> tuple:
    """Associativity and distributivity of a table ring over whole n^3 cubes.

    The straightforward form of ``verify_axioms``'s exhaustive ternary
    branch: each side is one cube indexed [x, y, z], in the smallest dtype
    that holds the indices 0..n-1, and the witness is the first failing
    triple in lexicographic (C) order, the flat position of ``np.argmax``
    over the failures unravelled to [x, y, z].
    """
    dtype = np.min_scalar_type(ring.order - 1)
    ADD, MUL = ring.add_table.astype(dtype), ring.mul_table.astype(dtype)
    checks = []

    def ternary(name, lhs, rhs):
        mask = lhs == rhs
        holds = bool(mask.all())
        witness = None if holds else tuple(
            int(v) for v in np.unravel_index(np.argmax(~mask), mask.shape))
        checks.append(AxiomCheck(name, holds, witness, mask.size, "exhaustive"))

    def inner_right(T, U):
        # [x, y, z] -> T[x, U[y, z]], built C-contiguous like the other side
        # (T[:, U] is strided, and comparing it with a C-order cube is slow)
        return T[np.arange(len(T))[:, None, None], U[None]]

    ternary("add-associative", ADD[ADD, :], inner_right(ADD, ADD))
    ternary("mul-associative", MUL[MUL, :], inner_right(MUL, MUL))
    ternary("left-distributive", inner_right(MUL, ADD),
            ADD[MUL[:, :, None], MUL[:, None, :]])
    ternary("right-distributive", MUL[ADD, :],
            ADD[MUL[:, None, :], MUL[None, :, :]])
    return tuple(checks)

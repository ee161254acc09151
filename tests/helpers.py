"""Independent brute-force oracles for the test suite.

Everything here recomputes structural data from definitions, using none
of the library's analysis code paths (and for the Z/n oracles, none of
the library at all), so tests compare two genuinely different routes.
"""

from __future__ import annotations

import random
from math import gcd

import numpy as np

from finring.core import AxiomCheck
from finring.expr import (
    BT,
    GF,
    Corner,
    CyclicG,
    GProd,
    GroupRing,
    Matrix,
    ModJ,
    NamedG,
    Nil,
    PolyQ,
    Product,
    Quot,
    TE,
    UpperTri,
    Zmod,
)

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
    R x I and I x R, in that order, worded as ``quotient`` words it."""
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


# ---------------------------------------------------------------------------
# Random expression trees for round-trip property tests


def random_group_expr(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.55:
        choice = rng.randrange(4)
        if choice == 0:
            return NamedG(rng.choice(["S3", "D4", "Q8"]))
        return CyclicG(rng.randint(1, 8))
    return GProd(random_group_expr(rng, depth - 1), random_group_expr(rng, depth - 1))


def random_ring_expr(rng: random.Random, depth: int):
    """A structurally valid AST (parse/format round trips only; the big
    ones are far outside evaluation limits on purpose)."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return Zmod(rng.randint(2, 64))
        return GF(rng.choice([2, 3, 5, 7]), rng.randint(1, 3))
    kind = rng.randrange(11)
    inner = random_ring_expr(rng, depth - 1)
    if kind == 0:
        return Product(inner, random_ring_expr(rng, depth - 1))
    if kind == 1:
        return Matrix(rng.randint(1, 3), inner)
    if kind == 2:
        return UpperTri(rng.randint(2, 3), inner)
    if kind == 3:
        return TE(inner)
    if kind == 4:
        return BT(inner)
    if kind == 5:
        return Nil(inner, rng.randint(1, 4))
    if kind == 6:
        return GroupRing(inner, random_group_expr(rng, depth - 1))
    if kind == 7:
        return PolyQ(inner, tuple(rng.randint(0, 8) for _ in range(rng.randint(2, 5))))
    if kind == 8:
        return ModJ(inner)
    if kind == 9:
        return Corner(inner, rng.randint(0, 30))
    return Quot(inner, tuple(rng.randint(0, 30) for _ in range(rng.randint(1, 3))))


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

    ternary("add-associative", ADD[ADD, :], ADD[:, ADD])
    ternary("mul-associative", MUL[MUL, :], MUL[:, MUL])
    ternary("left-distributive", MUL[:, ADD],
            ADD[MUL[:, :, None], MUL[:, None, :]])
    ternary("right-distributive", MUL[ADD, :],
            ADD[MUL[:, None, :], MUL[None, :, :]])
    return tuple(checks)

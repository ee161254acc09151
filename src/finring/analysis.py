"""Structural subsets of a finite ring, computed lazily and cached.

The sets of interest are the unit group U(R) with its inverse map, the
Jacobson radical J(R), the power-radical sqrtJ(R) = {x : x^m in J(R)
for some m >= 1}, the nilpotents N(R), the idempotents Id(R), and the
center C(R).

Precondition: the operations obey the ring axioms, as in every ring the
constructions and the grammar build (the same precondition as the table
fill in :mod:`finring.build`); run ``verify_axioms`` on a hand-made
``FiniteRing`` first.  The shortcuts below use distributivity and
associativity.

Algorithm notes (one code path for both storage modes, reading the
ring through ``add_arr``/``mul_arr``/``neg_arr`` and row blocks of
about ``BLOCK_ELEMENTS`` table entries, see :class:`FiniteRing`):

- Units come from the scan "find y with x*y = 1, then confirm
  y*x = 1", one multiplication-table row block at a time: one argmax
  over ``block == one`` gives the first hit of every row, and a row
  whose entry there is not 1 has no hit, so x is no unit.  The y found
  are confirmed in one call.  A failed confirmation is an
  InternalConsistencyError (finite rings are Dedekind finite, so it
  cannot legitimately happen).  This is the one n^2 pass of an
  analysis.  U and its inverses are cached as index arrays; the dict
  of :func:`unit_inverses` is built afresh from them on each request.
- An additive generating set S of the group (R, +) (cached under
  ``"generators"``): take the smallest element g not reached yet and
  extend the reached subgroup H to H + <g> by doubling.  After k
  doublings the reached set is H + {0, .., 2^k - 1}*g; its shift by
  2^k*g meets it exactly when 2^(k+1) exceeds the index m of H in
  H + <g>, and the union is then all of H + <g>.  That is O(log n)
  array calls in all, each of at most n entries.  S = [1, 4, 16, 64]
  for M(2, Z/4).  This is :func:`finring.core.grow_span` over every
  element, the routine ``verify_axioms`` also takes its S from.  A
  direct product R1 x R2 is given S by its construction instead:
  t for t in S(R2), then s*|R2| for s in S(R1), as (0, t) and (s, 0)
  generate its additive group (S = [1, 4] for Z/2 x Z/4).  Neither S
  holds 0, so every t is below |R2| and every s*|R2| at least |R2|:
  the concatenation is ascending and distinct as it stands.  A
  coordinate ring over R (M, UT, TE, POLYQ, GR) is given S(R)*|R|^i
  for each coordinate i the same way (S = [1, 4, 16, 64] for M(2, Z/4)
  again), which is what the search takes (see
  :func:`finring.build._coord_ring`).
- C(R) is the commutant of S: x*s = s*x for every s in S makes x
  commute with every sum of generators, by distributivity, so n*|S|
  products decide it instead of n^2.
- An additive subgroup I is a two-sided ideal iff S*I and I*S lie in
  I, again by distributivity.  One function, :func:`ideal_violation`,
  gives both the verdict and the message: only a set that fails this
  test is scanned against all of R, to word its first violation.  Every
  such test and scan is :func:`finring.core.first_failure` over a grid
  of pairs, which stops at its first failing block.
- A generated ideal or subring is an additive span of generator
  products (:func:`closure`).  The span V grows from the seeds by the
  doubling above, and each candidate that enlarges it joins a set T
  (at most log2 n of them, as each at least doubles V).  For an ideal
  every new t in T is multiplied on both sides by S, for a subring by
  all of T, and the products are the next candidates.  Once no product
  leaves V, V is closed: it is the span of T, every r in R is a sum of
  elements of S, so by distributivity S*T and T*S in V put R*V and V*R
  in V, and T*T in V puts V*V in V.
- sqrtJ and N use repeated squaring.  J(R) and {0} are ideals, so once
  a power x^m lies in one of them every higher power does too, and the
  powers of x take at most n distinct values, so x is in sqrtJ (in N)
  iff x^(2^k) is in J (is 0) for 2^k >= n.  The squaring map
  :func:`squares` is one ``mul_arr`` call over every element, cached;
  as x^(2^(i+1)) = squares[x^(2^i)], the array of every x^(2^k) is
  k - 1 gathers from it, cached too, and N and sqrtJ both read it.
  The idempotents (x*x = x) and the unit-class test's u^2 read
  :func:`squares` as well.
- J(R) = {x in N(R) : x*s in N(R) for every s in S}: one pass of
  |N|*|S| products.  J(R) is nilpotent in a finite ring, so it lies in
  N(R), and J(R)*S lies in J(R), so J(R) lies in the set.  Conversely
  take x with every x*s nilpotent.  R/J(R) is finite and semisimple,
  so by Wedderburn-Artin a product of rings M_k(F_q); each image of
  x*s is nilpotent, so its trace is 0 in every factor.  S spans
  (R, +), so tr(x*a) = 0 there for every a, and the trace form of
  M_k(F_q) is nondegenerate, so x maps to 0: x is in J(R).  J(R) is
  also the largest nil ideal (Lam, *A First Course in Noncommutative
  Rings*, Lemma 4.11 and Thm 4.12), so J(R) = N(R) exactly when N(R)
  is an ideal (every commutative ring, UT(n, R) over a commutative R);
  then every x passes, and the cached nilpotents are returned as J(R)
  = sqrtJ(R).  M(2, R) and GR(Z/2, S3) keep a strict subset of N(R).

Each set is a plain function of the ring, cached by
:meth:`FiniteRing.cached` under the function's name (``"units"`` holds
U with the array of its inverses): concurrent requests for the same set see a
single computation.  Every cached value is immutable: an
:class:`ElementSet`, or an array marked read-only where it is made.
"""

from __future__ import annotations

import numpy as np

from .core import (ElementSet, FiniteRing, InternalConsistencyError, first_failure, grow_span,
                   member_mask, read_only)


def generators(ring: FiniteRing) -> np.ndarray:
    """An additive generating set S of (R, +), ascending (see the module
    docstring)."""
    def compute():
        reached = np.zeros(ring.order, dtype=bool)
        reached[0] = True
        return read_only(np.array(grow_span(ring, reached, np.arange(ring.order))))
    return ring.cached("generators", compute)


def squares(ring: FiniteRing) -> np.ndarray:
    """x*x at every index x, by one ``mul_arr`` call; cached."""
    return ring.cached("squares", lambda: read_only(ring.mul_arr(np.arange(ring.order), np.arange(ring.order))))


def _high_powers(ring: FiniteRing) -> np.ndarray:
    """x^(2^k) at every index x, for the least k >= 1 with 2^k >= n, by
    k - 1 gathers from :func:`squares` (module docstring); cached."""
    def compute():
        sq = p = squares(ring)
        for _ in range((ring.order - 1).bit_length() - 1):
            p = sq[p]
        return read_only(p)
    return ring.cached("high_powers", compute)


def _units_and_inverses(ring: FiniteRing) -> tuple:
    """U and the inverse of each unit, as an index array in U's order."""
    one = ring.one
    us, invs = [], []
    for lo, block in ring.blocks("mul"):
        first = np.argmax(block == one, axis=1)
        rows = np.flatnonzero(block[np.arange(len(block)), first] == one)
        us.append(lo + rows)
        invs.append(first[rows])
    us, invs = np.concatenate(us), np.concatenate(invs)
    one_sided = ring.mul_arr(invs, us) != one
    if one_sided.any():
        bad = us[np.argmax(one_sided)]
        raise InternalConsistencyError(
            f"{ring.label}: one-sided inverse of {int(bad)} is not two-sided")
    return ElementSet(ring, us), read_only(invs)


def units(ring: FiniteRing) -> ElementSet:
    return ring.cached("units", lambda: _units_and_inverses(ring))[0]


def unit_inverses(ring: FiniteRing) -> dict:
    """A new dict from each unit to its inverse, built from the cached arrays."""
    u, invs = ring.cached("units", lambda: _units_and_inverses(ring))
    return dict(zip(u.indices(), invs.tolist()))


def jacobson(ring: FiniteRing) -> ElementSet:
    """The x of N(R) with x*S inside N(R) (module docstring); the cached
    nilpotents themselves when that is all of N(R), an ideal."""
    def compute():
        nil = nilpotents(ring)
        xs = nil.array
        in_nil = member_mask(ring.order, xs)[ring.mul_arr(xs[:, None], generators(ring)[None, :])]
        return nil if in_nil.all() else ElementSet(ring, xs[in_nil.all(axis=1)])
    return ring.cached("jacobson", compute)


def sqrt_jacobson(ring: FiniteRing) -> ElementSet:
    def compute():
        j = jacobson(ring)
        if j is nilpotents(ring):  # J = N, so sqrtJ = N
            return j
        return ElementSet(ring, np.flatnonzero(member_mask(ring.order, j.array)[_high_powers(ring)]))
    return ring.cached("sqrt_jacobson", compute)


def nilpotents(ring: FiniteRing) -> ElementSet:
    return ring.cached("nilpotents", lambda: ElementSet(ring, np.flatnonzero(_high_powers(ring) == 0)))


def idempotents(ring: FiniteRing) -> ElementSet:
    return ring.cached("idempotents",
                       lambda: ElementSet(ring, np.flatnonzero(squares(ring) == np.arange(ring.order))))


def center(ring: FiniteRing) -> ElementSet:
    def compute():
        every, gens = np.arange(ring.order), generators(ring)
        central = np.empty(ring.order, dtype=bool)
        for lo, block in ring.blocks("mul", every, gens):  # x*s against s*x
            xs = every[lo:lo + len(block)]
            central[xs] = (block == ring.mul_arr(gens[None, :], xs[:, None])).all(axis=1)
        return ElementSet(ring, np.flatnonzero(central))
    return ring.cached("center", compute)


def closure(ring: FiniteRing, seeds, *, ideal: bool) -> np.ndarray:
    """Sorted indices of the smallest additive subgroup V holding
    ``seeds`` with R*V and V*R inside V when ``ideal``, else with V*V
    inside V (a subring when the seeds hold 1).

    V is the additive span of a set T that grows from the seeds: each
    candidate that enlarges the span joins T and is multiplied on both
    sides by the additive generators S (``ideal``) or by all of T, and
    the products are the next candidates (see the module docstring)."""
    reached = np.zeros(ring.order, dtype=bool)
    reached[0] = True
    new = grow_span(ring, reached, np.asarray(seeds, dtype=np.intp))
    taken = list(new)
    while new:
        ts = np.array(new)[:, None]
        factors = generators(ring) if ideal else np.array(taken)
        products = np.concatenate([ring.mul_arr(ts, factors[None, :]).ravel(),
                                   ring.mul_arr(factors[None, :], ts).ravel()])
        new = grow_span(ring, reached, products)
        taken += new
    return np.flatnonzero(reached)


def _first_outside(ring: FiniteRing, mask: np.ndarray, op: str, xs, ys) -> tuple | None:
    """The first (x, y, op(x, y)) over xs x ys, in that order, whose
    value lies outside ``mask``; None if there is none."""
    fn = ring.add_arr if op == "add" else ring.mul_arr
    pair = first_failure(lambda x, y: ~mask[fn(x, y)], xs, ys)
    return None if pair is None else (*pair, int(fn(*pair)))


def ideal_violation(ring: FiniteRing, members: frozenset) -> str | None:
    """None if ``members`` is a two-sided ideal, else its first violation,
    worded.

    In order: 0 is a member; closure under addition, so the set is an
    additive subgroup I, since -x = (k - 1)*x for the additive order k of
    x in a finite ring; S*I and I*S lie in I for the additive generators
    S (:func:`generators`), which by distributivity puts R*I and I*R in
    I.  Closure under addition is decided from the additive span of the
    set grown from {0} by :func:`finring.core.grow_span`: the span must
    be the set itself, and I + t lie in I for each t the growth took.
    Both hold for any table where + is closed, and in a ring either one
    is enough, as I + t inside I means I + t = I in a finite group and
    the t generate I.  The second costs at most |I| * log2 |I| sums in a
    ring; on a table whose + is no group, where the span can be the set
    although a sum leaves it, it still tests every pair with a taken t.
    Only a set that fails a test pays for the scans, over all pairs of
    the set or over all of R, that word its first violation."""
    if 0 not in members:
        return "0 is missing"
    arr = np.array(sorted(members))
    mask = member_mask(ring.order, arr)
    span = member_mask(ring.order, [0])
    taken = np.array(grow_span(ring, span, arr), dtype=np.intp)
    if span.sum() != len(arr) or _first_outside(ring, mask, "add", arr, taken):
        return "not closed under addition: {} + {} = {}".format(*_first_outside(ring, mask, "add", arr, arr))
    gens = generators(ring)
    if (_first_outside(ring, mask, "mul", gens, arr) is None
            and _first_outside(ring, mask, "mul", arr, gens) is None):
        return None
    every = np.arange(ring.order)
    bad = _first_outside(ring, mask, "mul", every, arr)
    if bad:
        return "not closed under left multiplication: {} * {} = {}".format(*bad)
    bad = _first_outside(ring, mask, "mul", arr, every)
    if bad:
        return "not closed under right multiplication: {} * {} = {}".format(*bad)
    return None


def ideal_closure(ring: FiniteRing, gens) -> ElementSet:
    """Smallest two-sided ideal containing ``gens``."""
    return ElementSet(ring, closure(ring, ring.index_array(gens), ideal=True))


def is_unit_closed_subring(sub) -> bool:
    """True iff U(S) equals U(R) intersected with the image of S."""
    sub_units = units(sub.ring)
    image_units = {sub.embedding[u] for u in sub_units.members}
    parent_units = units(sub.parent).members
    return image_units == (parent_units & set(sub.embedding))

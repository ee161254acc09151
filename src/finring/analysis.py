"""Structural subsets of a finite ring, computed lazily and cached.

The sets of interest are the unit group U(R) with its inverse map, the
Jacobson radical J(R), the power-radical sqrtJ(R) = {x : x^m in J(R)
for some m >= 1}, the nilpotents N(R), the idempotents Id(R), and the
center C(R).

Algorithm notes (one code path for both storage modes, reading the
ring through ``add_arr``/``mul_arr``/``neg_arr`` and row blocks of
about ``AXIOM_BLOCK_ELEMENTS`` table entries, see :class:`FiniteRing`):

- Units come from the scan "find y with x*y = 1, then confirm
  y*x = 1", one multiplication-table row block at a time.  A failed
  confirmation is an InternalConsistencyError (finite rings are
  Dedekind finite, so it cannot legitimately happen).
- J(R) uses quasi-regularity: x is in J(R) iff 1 - r*x is a unit for
  every r.  The computed set is then verified to be a two-sided ideal;
  a verification failure raises InternalConsistencyError because it can
  only mean a bug, never bad input.
- sqrtJ and N use repeated squaring.  J(R) and {0} are ideals, so once
  a power x^m lies in one of them every higher power does too, and the
  powers of x take at most n distinct values, so x is in sqrtJ (in N)
  iff x^(2^k) is in J (is 0) for 2^k >= n: ceil(log2 n) squarings of
  every element at once.

Each ring carries one cache; concurrent requests for the same set see a
single computation (a per-ring lock guards the cache), and all returned
sets are immutable.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ElementSet,
    FiniteRing,
    InternalConsistencyError,
    closure,
    element_set,
    member_mask,
)


class RingAnalysis:
    """Lazy, once-only cache of structural sets for one ring."""

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.compute_counts: dict = {}

    def _get(self, key, compute):
        cache = self.ring._analysis_cache
        with self.ring._analysis_lock:
            if key not in cache:
                cache[key] = compute()
                self.compute_counts[key] = self.compute_counts.get(key, 0) + 1
            return cache[key]

    # -- units ---------------------------------------------------------

    def _compute_units(self):
        ring, one = self.ring, self.ring.one
        us, invs = [], []
        for lo, block in ring.blocks("mul"):
            hits = block == one
            rows = np.flatnonzero(hits.any(axis=1))
            us.append(lo + rows)
            invs.append(np.argmax(hits[rows], axis=1))
        us, invs = np.concatenate(us), np.concatenate(invs)
        one_sided = ring.mul_arr(invs, us) != one
        if one_sided.any():
            bad = us[np.argmax(one_sided)]
            raise InternalConsistencyError(
                f"{ring.label}: one-sided inverse of {int(bad)} is not two-sided")
        return element_set(ring, us), dict(zip(us.tolist(), invs.tolist()))

    def units(self) -> ElementSet:
        return self._get("units", self._compute_units)[0]

    def unit_inverses(self) -> dict:
        return self._get("units", self._compute_units)[1]

    # -- Jacobson radical ----------------------------------------------

    def _verify_ideal(self, members: frozenset) -> None:
        from .build import _ideal_violation

        violation = _ideal_violation(self.ring, members)
        if violation is not None:
            raise InternalConsistencyError(
                f"computed Jacobson radical of {self.ring.label} is not an ideal: {violation}")

    def _compute_jacobson(self):
        ring = self.ring
        n = ring.order
        unit_mask = member_mask(n, self.units().members)
        one_minus = ring.add_arr(ring.one, ring.neg_arr(np.arange(n)))  # 1 - t for every t
        jm = np.ones(n, dtype=bool)
        for _, block in ring.blocks("mul"):  # block[r, x] = r * x
            jm &= unit_mask[one_minus[block]].all(axis=0)
        members = frozenset(np.flatnonzero(jm).tolist())
        self._verify_ideal(members)
        return element_set(ring, members)

    def jacobson(self) -> ElementSet:
        return self._get("jacobson", self._compute_jacobson)

    def in_jacobson(self, x: int) -> bool:
        self.ring._check_index(x)
        return x in self.jacobson().members

    # -- power-radical sets --------------------------------------------

    def _power_hits(self, ideal: frozenset) -> frozenset:
        """Elements with some power x^m (m >= 1) in the two-sided
        ``ideal``, by repeated squaring (see the module docstring)."""
        ring = self.ring
        p = np.arange(ring.order)
        for _ in range((ring.order - 1).bit_length()):
            p = ring.mul_arr(p, p)
        return frozenset(np.flatnonzero(member_mask(ring.order, ideal)[p]).tolist())

    def sqrt_jacobson(self) -> ElementSet:
        def compute():
            return element_set(self.ring, self._power_hits(self.jacobson().members))
        return self._get("sqrt_jacobson", compute)

    def in_sqrt_jacobson(self, x: int) -> bool:
        self.ring._check_index(x)
        return x in self.sqrt_jacobson().members

    def nilpotents(self) -> ElementSet:
        def compute():
            return element_set(self.ring, self._power_hits(frozenset([0])))
        return self._get("nilpotents", compute)

    # -- pointwise sets -------------------------------------------------

    def idempotents(self) -> ElementSet:
        def compute():
            every = np.arange(self.ring.order)
            return element_set(self.ring, np.flatnonzero(self.ring.mul_arr(every, every) == every))
        return self._get("idempotents", compute)

    def center(self) -> ElementSet:
        def compute():
            ring = self.ring
            every = np.arange(ring.order)
            central = np.empty(ring.order, dtype=bool)
            for lo, block in ring.blocks("mul"):  # rows x*y against columns y*x
                xs = every[lo:lo + len(block)]
                central[xs] = (block == ring.mul_arr(every[None, :], xs[:, None])).all(axis=1)
            return element_set(ring, np.flatnonzero(central))
        return self._get("center", compute)


def analysis(ring: FiniteRing) -> RingAnalysis:
    """The per-ring analysis cache (created on first use)."""
    with ring._analysis_lock:
        obj = ring._analysis_cache.get("__analysis__")
        if obj is None:
            obj = RingAnalysis(ring)
            ring._analysis_cache["__analysis__"] = obj
        return obj


def units(ring: FiniteRing) -> ElementSet:
    return analysis(ring).units()


def unit_inverses(ring: FiniteRing) -> dict:
    return analysis(ring).unit_inverses()


def jacobson(ring: FiniteRing) -> ElementSet:
    return analysis(ring).jacobson()


def in_jacobson(ring: FiniteRing, x: int) -> bool:
    return analysis(ring).in_jacobson(x)


def sqrt_jacobson(ring: FiniteRing) -> ElementSet:
    return analysis(ring).sqrt_jacobson()


def in_sqrt_jacobson(ring: FiniteRing, x: int) -> bool:
    return analysis(ring).in_sqrt_jacobson(x)


def nilpotents(ring: FiniteRing) -> ElementSet:
    return analysis(ring).nilpotents()


def idempotents(ring: FiniteRing) -> ElementSet:
    return analysis(ring).idempotents()


def center(ring: FiniteRing) -> ElementSet:
    return analysis(ring).center()


def ideal_closure(ring: FiniteRing, gens) -> ElementSet:
    """Smallest two-sided ideal containing ``gens``."""
    gens = [int(x) for x in gens]
    for x in gens:
        ring._check_index(x)
    return element_set(ring, closure(ring, [0] + gens, ideal=True))


def is_unit_closed_subring(sub) -> bool:
    """True iff U(S) equals U(R) intersected with the image of S."""
    sub_units = units(sub.ring)
    image_units = {sub.embedding[u] for u in sub_units.members}
    parent_units = units(sub.parent).members
    return image_units == (parent_units & set(sub.embedding))

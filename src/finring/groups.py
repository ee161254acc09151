"""Finite groups as validated Cayley tables (identity at index 0).

These feed the group-ring construction.  Validation is exhaustive:
associativity over all triples (:func:`finring.core.first_failure`),
two-sided identity at index 0, and a right inverse in every row (which
makes an associative table with identity a group).  A group is a 2-group
exactly when its order is a power of 2.

The named groups come from one builder, :func:`_from_elements`, which
tabulates the composition of a list of elements, identity first: S3 and
D4 as permutations, Q8 as unit quaternions.  :func:`cyclic_subgroups`
reads the powers a^0..a^(n-1) of every a off one power table, n gathers
from the Cayley table.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .core import DEFAULT_GROUP_MAX, ArgumentError, LimitError, _freeze, first_failure


class GroupTable:
    """A finite group given by its Cayley table on indices 0..order-1."""

    def __init__(self, table, label: str):
        try:
            n = len(table)
        except TypeError:  # a scalar
            n = 0
        shape_error = f"{label}: group table must be square and nonempty"
        if not n:
            raise ArgumentError(shape_error)
        arr = _freeze(table, (n, n), shape_error)  # checked before its cast, as for a FiniteRing
        if not (np.array_equal(arr[0], np.arange(n)) and np.array_equal(arr[:, 0], np.arange(n))):
            raise ArgumentError(f"{label}: index 0 is not a two-sided identity")
        every = np.arange(n)
        bad = first_failure(lambda a, b, c: arr[arr[a, b], c] != arr[a, arr[b, c]], every, every, every)
        if bad:
            raise ArgumentError(f"{label}: operation not associative at {bad}")
        if not (arr == 0).any(axis=1).all():
            raise ArgumentError(f"{label}: some element has no inverse")
        self.order = n
        self.table = arr
        self.identity = 0
        self.label = label

    def __repr__(self):
        return f"GroupTable({self.label!r}, order={self.order})"

    def op(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def is_two_group(self) -> bool:
        return self.order & (self.order - 1) == 0


def _check_group_order(order: int, label: str) -> None:
    if order > DEFAULT_GROUP_MAX:
        raise LimitError(f"{label}: group order {order} exceeds the limit {DEFAULT_GROUP_MAX}")


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise ArgumentError(f"cyclic group order must be >= 1, got {n}")
    _check_group_order(n, f"C{n}")
    idx = np.arange(n)
    return GroupTable((idx[:, None] + idx[None, :]) % n, f"C{n}")


def group_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product; element (a, b) is encoded as a * |H| + b."""
    label = f"{g.label} x {h.label}"
    order = g.order * h.order
    _check_group_order(order, label)
    a = np.arange(order) // h.order
    b = np.arange(order) % h.order
    table = g.table[np.ix_(a, a)] * h.order + h.table[np.ix_(b, b)]
    return GroupTable(table, label)


def _from_elements(elements: list, compose, label: str) -> GroupTable:
    """The group of ``elements`` (identity first) under ``compose``, element i at index i."""
    index = {x: i for i, x in enumerate(elements)}
    return GroupTable([[index[compose(x, y)] for y in elements] for x in elements], label)


def _compose(p: tuple, q: tuple) -> tuple:
    """Permutations composed as (p * q)(i) = p[q[i]]."""
    return tuple(p[i] for i in q)


def _hamilton(x: tuple, y: tuple) -> tuple:
    """The product of quaternions (a, b, c, d) = a + bi + cj + dk."""
    (a, b, c, d), (e, f, g, h) = x, y
    return a*e - b*f - c*g - d*h, a*f + b*e + c*h - d*g, a*g - b*h + c*e + d*f, a*h + b*g - c*f + d*e


def symmetric_3() -> GroupTable:
    """S3 as the six permutations of {0,1,2} in lexicographic order."""
    return _from_elements(list(permutations(range(3))), _compose, "S3")


def dihedral_4() -> GroupTable:
    """D4 (order 8): rotations r^i then reflections r^i s, encoded i + 4j."""
    rotations = [tuple((k + i) % 4 for k in range(4)) for i in range(4)]
    return _from_elements(rotations + [_compose(r, (0, 3, 2, 1)) for r in rotations], _compose, "D4")


def quaternion_8() -> GroupTable:
    """Q8 = {1, -1, i, -i, j, -j, k, -k}, encoded in that order."""
    units = [tuple(sign * (k == axis) for k in range(4)) for axis in range(4) for sign in (1, -1)]
    return _from_elements(units, _hamilton, "Q8")


NAMED_GROUPS = {
    "S3": symmetric_3,
    "D4": dihedral_4,
    "Q8": quaternion_8,
}


def cyclic_subgroups(g: GroupTable) -> list[GroupTable]:
    """One subgroup <a> per distinct cyclic subgroup of g, at its least
    generator a and in that order, relabeled on its sorted members; then g
    itself unless it is cyclic.  <a> = <b> iff each holds the other."""
    n, every = g.order, np.arange(g.order)
    holds = np.zeros((n, n), dtype=bool)  # holds[a, x]: x is a power of a
    power = np.zeros(n, dtype=np.intp)
    for _ in range(n):
        holds[every, power] = True
        power = g.table[power, every]
    first = ~np.tril(holds & holds.T, -1).any(axis=1)  # no b < a has <b> = <a>
    out = []
    for a in np.flatnonzero(first).tolist():
        members = np.flatnonzero(holds[a])
        table = np.searchsorted(members, g.table[np.ix_(members, members)])
        out.append(GroupTable(table, f"<{a}> of {g.label}"))
    if not holds.all(axis=1).any():
        out.append(g)
    return out

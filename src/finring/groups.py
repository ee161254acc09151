"""Finite groups as validated Cayley tables (identity at index 0).

These feed the group-ring construction.  Validation is exhaustive:
associativity over all triples (:func:`finring.core.first_failure`),
two-sided identity at index 0, and existence of inverses.  A group is a
2-group exactly when its order is a power of 2.
"""

from __future__ import annotations

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
        inv = np.argwhere(arr == 0)
        if len(inv) < n or len(set(int(p[0]) for p in inv)) != n:
            raise ArgumentError(f"{label}: some element has no inverse")
        self.order = n
        self.table = arr
        self.identity = 0
        self.label = label
        self._inverse = {int(a): int(b) for a, b in inv}

    def __repr__(self):
        return f"GroupTable({self.label!r}, order={self.order})"

    def op(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return self._inverse[a]

    def is_two_group(self) -> bool:
        n = self.order
        return n & (n - 1) == 0

    def element_order(self, a: int) -> int:
        k, cur = 1, a
        while cur != 0:
            cur = self.op(cur, a)
            k += 1
        return k


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


def _from_permutations(perms: list[tuple], label: str) -> GroupTable:
    # composition (p * q)(i) = p[q[i]]; permutations listed identity-first
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = [[index[tuple(p[q[i]] for i in range(len(p)))] for q in perms] for p in perms]
    return GroupTable(table, label)


def symmetric_3() -> GroupTable:
    """S3 as the six permutations of {0,1,2} in lexicographic order."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return _from_permutations(perms, "S3")


def dihedral_4() -> GroupTable:
    """D4 (order 8): rotations r^i then reflections r^i s, encoded i + 4j."""
    r = (1, 2, 3, 0)       # rotate the square's corners
    s = (0, 3, 2, 1)       # reflect
    def perm_pow(p, k):
        out = tuple(range(4))
        for _ in range(k):
            out = tuple(p[out[i]] for i in range(4))
        return out
    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))
    perms = [perm_pow(r, i) for i in range(4)]
    perms += [compose(perm_pow(r, i), s) for i in range(4)]
    return _from_permutations(perms, "D4")


def quaternion_8() -> GroupTable:
    """Q8 = {1, -1, i, -i, j, -j, k, -k}, encoded in that order."""
    # (sign, axis) with axis 0 = scalar 1, 1 = i, 2 = j, 3 = k
    def decode(x):
        return (-1 if x & 1 else 1), x >> 1
    def encode(sign, axis):
        return (axis << 1) | (1 if sign < 0 else 0)
    mul_axis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }
    table = []
    for x in range(8):
        sx, ax = decode(x)
        row = []
        for y in range(8):
            sy, ay = decode(y)
            sz, az = mul_axis[(ax, ay)]
            row.append(encode(sx * sy * sz, az))
        table.append(row)
    return GroupTable(table, "Q8")


NAMED_GROUPS = {
    "S3": symmetric_3,
    "D4": dihedral_4,
    "Q8": quaternion_8,
}


def subgroup_generated(g: GroupTable, gens) -> GroupTable:
    """The subgroup generated by ``gens``, relabeled on its sorted members."""
    members = {0}
    frontier = [int(x) for x in gens]
    while frontier:
        a = frontier.pop()
        if a in members:
            continue
        members.add(a)
        for b in list(members):
            frontier.append(g.op(a, b))
            frontier.append(g.op(b, a))
    # closure under op implies closure under inverses in a finite group
    sub = sorted(members)
    pos = {x: i for i, x in enumerate(sub)}
    table = [[pos[g.op(a, b)] for b in sub] for a in sub]
    gen_names = ",".join(str(x) for x in gens) or "e"
    return GroupTable(table, f"<{gen_names}> of {g.label}")


def cyclic_subgroups(g: GroupTable) -> list[GroupTable]:
    """One subgroup per distinct cyclic subgroup of g, plus g itself."""
    seen = set()
    out = []
    for a in range(g.order):
        members = frozenset(_orbit(g, a))
        if members in seen:
            continue
        seen.add(members)
        out.append(subgroup_generated(g, [a]))
    if frozenset(range(g.order)) not in seen:
        out.append(g)
    return out


def _orbit(g: GroupTable, a: int) -> list[int]:
    cur, out = 0, [0]
    while True:
        cur = g.op(cur, a)
        if cur == 0:
            return out
        out.append(cur)

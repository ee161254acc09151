from itertools import permutations

import numpy as np
import pytest

from finring import ArgumentError, LimitError
from finring.groups import (
    GroupTable,
    cyclic,
    cyclic_subgroups,
    dihedral_4,
    group_product,
    quaternion_8,
    symmetric_3,
)

from helpers import cyclic_subgroups_oracle, group_product_oracle


def element_orders(g) -> list[int]:
    """The order of each element, by walking its powers through g.table."""
    orders = []
    for a in range(g.order):
        k, cur = 1, a
        while cur != 0:
            cur, k = int(g.table[cur, a]), k + 1
        orders.append(k)
    return orders


def test_cyclic_basics():
    c4 = cyclic(4)
    assert c4.order == 4
    assert c4.identity == 0
    assert c4.op(3, 2) == 1
    assert c4.op(3, 1) == 0  # 1 is the inverse of 3
    assert c4.is_two_group()
    assert not cyclic(6).is_two_group()
    assert cyclic(1).order == 1


def test_named_groups():
    s3 = symmetric_3()
    assert s3.order == 6 and not s3.is_two_group()
    assert sorted(element_orders(s3)) == [1, 2, 2, 2, 3, 3]
    d4 = dihedral_4()
    assert d4.order == 8 and d4.is_two_group()
    q8 = quaternion_8()
    assert q8.order == 8 and q8.is_two_group()
    # exactly one element of order 2 in Q8 (namely -1)
    assert element_orders(q8).count(2) == 1


def test_group_product_encoding():
    klein = group_product(cyclic(2), cyclic(2))
    assert klein.order == 4 and klein.is_two_group()
    # (a1, b1) * (a2, b2) with (a, b) -> a*2 + b
    assert klein.op(1, 2) == 3
    assert all(klein.op(x, x) == 0 for x in range(4))
    # the Kronecker sum of the factor tables, against the gathering oracle
    for g, h in ((cyclic(2), cyclic(2)), (dihedral_4(), cyclic(2)), (quaternion_8(), cyclic(2))):
        assert np.array_equal(group_product(g, h).table, group_product_oracle(g, h)), (g.label, h.label)


def test_validation_rejects_bad_tables():
    with pytest.raises(ArgumentError):
        GroupTable([[0, 1], [1, 1]], "broken")  # 1 has no inverse row
    with pytest.raises(ArgumentError):
        GroupTable([[1, 0], [0, 1]], "no-identity-at-0")
    # non-associative latin square (order 5 loop)
    with pytest.raises(ArgumentError):
        GroupTable(
            [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]],
            "loop",
        )


@pytest.mark.parametrize("table, message", [
    ([[0, 1.5], [1, 0]], "must be integers"),  # not truncated to [[0, 1], [1, 0]]
    ([[0, 1], [1]], "square and nonempty"),  # ragged
    ([[0, 1, 2], [1, 2, 0]], "square and nonempty"),
    ([], "square and nonempty"),
    (0, "square and nonempty"),
    ([[0, 2], [1, 0]], "must lie in 0..1"),
    ([[0, 1], [1, -1]], "must lie in 0..1"),
])
def test_validation_rejects_malformed_tables(table, message):
    with pytest.raises(ArgumentError, match=message):
        GroupTable(table, "bad")


def test_group_limit():
    with pytest.raises(LimitError):
        cyclic(65)
    with pytest.raises(LimitError):
        group_product(cyclic(8), cyclic(9))


def test_subgroups():
    c4 = cyclic(4)
    subs = [(g.label, g.order) for g in cyclic_subgroups(c4)]
    assert subs == [("<0> of C4", 1), ("<1> of C4", 4), ("<2> of C4", 2)]
    s3 = symmetric_3()
    orders = sorted(g.order for g in cyclic_subgroups(s3))
    assert orders == [1, 2, 2, 2, 3, 6]
    # every returned subgroup is a valid group with identity 0
    for g in cyclic_subgroups(s3):
        assert g.op(0, 0) == 0


def test_named_group_encodings():
    # Q8 in the order 1, -1, i, -i, j, -j, k, -k
    q8 = quaternion_8()
    assert q8.op(2, 4) == 6  # ij = k
    assert q8.op(4, 2) == 7  # ji = -k
    assert q8.op(2, 2) == 1  # i^2 = -1
    assert all(q8.op(x, x) == 1 for x in range(2, 8))  # i^2 = j^2 = k^2 = -1
    # D4: r at 1, s at 4, r^i s at i + 4
    d4 = dihedral_4()
    r, s = 1, 4
    r4 = d4.op(d4.op(r, r), d4.op(r, r))
    assert r4 == 0 and d4.op(s, s) == 0
    assert d4.op(d4.op(s, r), s) == 3  # s r s = r^-1 = r^3
    assert [d4.op(i, s) for i in range(4)] == [4, 5, 6, 7]
    # S3 on the permutations of {0,1,2} in lexicographic order, (p q)(i) = p[q[i]]
    perms = list(permutations(range(3)))
    s3 = symmetric_3()
    for x, p in enumerate(perms):
        for y, q in enumerate(perms):
            assert s3.op(x, y) == perms.index(tuple(p[i] for i in q))


@pytest.mark.parametrize("group", [
    *(cyclic(n) for n in (1, 2, 3, 4, 5, 6, 8)),
    symmetric_3(), dihedral_4(), quaternion_8(),
    group_product(cyclic(2), cyclic(2)),
    group_product(cyclic(2), symmetric_3()),
    group_product(quaternion_8(), cyclic(2)),
    group_product(group_product(dihedral_4(), cyclic(2)), cyclic(2)),
], ids=lambda g: g.label)
def test_cyclic_subgroups_match_frontier_closure(group):
    got = [(h.label, h.order, h.table.tolist()) for h in cyclic_subgroups(group)]
    assert got == cyclic_subgroups_oracle(group)

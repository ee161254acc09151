import pytest

from finring import ArgumentError, LimitError
from finring.groups import (
    GroupTable,
    cyclic,
    cyclic_subgroups,
    dihedral_4,
    group_product,
    quaternion_8,
    subgroup_generated,
    symmetric_3,
)


def test_cyclic_basics():
    c4 = cyclic(4)
    assert c4.order == 4
    assert c4.identity == 0
    assert c4.op(3, 2) == 1
    assert c4.inverse(3) == 1
    assert c4.is_two_group()
    assert not cyclic(6).is_two_group()
    assert cyclic(1).order == 1


def test_named_groups():
    s3 = symmetric_3()
    assert s3.order == 6 and not s3.is_two_group()
    assert sorted(s3.element_order(a) for a in range(6)) == [1, 2, 2, 2, 3, 3]
    d4 = dihedral_4()
    assert d4.order == 8 and d4.is_two_group()
    q8 = quaternion_8()
    assert q8.order == 8 and q8.is_two_group()
    # exactly one element of order 2 in Q8 (namely -1)
    assert sum(1 for a in range(8) if q8.element_order(a) == 2) == 1


def test_group_product_encoding():
    klein = group_product(cyclic(2), cyclic(2))
    assert klein.order == 4 and klein.is_two_group()
    # (a1, b1) * (a2, b2) with (a, b) -> a*2 + b
    assert klein.op(1, 2) == 3
    assert all(klein.op(x, x) == 0 for x in range(4))


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
    sub = subgroup_generated(c4, [2])
    assert sub.order == 2
    orders = sorted(g.order for g in cyclic_subgroups(c4))
    assert orders == [1, 2, 4]
    s3 = symmetric_3()
    orders = sorted(g.order for g in cyclic_subgroups(s3))
    assert orders == [1, 2, 2, 2, 3, 6]
    # every returned subgroup is a valid group with identity 0
    for g in cyclic_subgroups(s3):
        assert g.op(0, 0) == 0

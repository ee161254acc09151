import random

import pytest

from finring import (
    ArgumentError,
    LimitError,
    Limits,
    bt,
    check_unit_class,
    classify,
    default_corpus,
    format_expr,
    gf,
    group_ring,
    is_dedekind_finite,
    is_division,
    is_local,
    is_semisimple,
    is_two_sqrt_ju,
    matrix_ring,
    parse_and_build,
    product,
    trivial_extension,
    upper_triangular,
    zmod,
)
from finring.groups import cyclic, group_product, symmetric_3
from finring.predicates import UNIT_CLASSES

from helpers import (
    LAZY,
    brute_sqrt_jacobson,
    brute_unit_square_class,
    power_law_mod_j,
    random_ring_expr,
    relabelled,
)


def test_check_unit_class_examples():
    assert check_unit_class(zmod(3), 2, "sqrtJ") == (True, None)
    assert check_unit_class(zmod(3), 1, "sqrtJ") == (False, 2)
    assert check_unit_class(zmod(5), 2, "sqrtJ") == (False, 2)
    m2 = matrix_ring(2, zmod(2))
    ok, witness = check_unit_class(m2, 2, "sqrtJ")
    assert not ok
    assert witness == 7  # the matrix with rows (1,1),(1,0)
    # smallest witness in UT(2, Z/5) is the diagonal unit (2, 1):
    # coords (2, 0, 1) -> 2 + 0*5 + 1*25
    assert check_unit_class(upper_triangular(2, zmod(5)), 2, "sqrtJ") == (False, 27)


def test_unknown_target_names_the_targets():
    with pytest.raises(ArgumentError, match=r"unknown target set 'C'; expected one of "
                                            r"\('N', 'J', 'sqrtJ'\)"):
        check_unit_class(zmod(3), 1, "C")


def test_two_sqrt_ju_against_brute_force():
    rings = [zmod(n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 12)] + [
        gf(2, 2), matrix_ring(2, zmod(2)), trivial_extension(zmod(3)),
        group_ring(zmod(2), cyclic(3)), upper_triangular(2, zmod(5)), bt(zmod(2)),
    ]
    for ring in rings:
        assert is_two_sqrt_ju(ring) == brute_unit_square_class(ring, brute_sqrt_jacobson(ring))


def test_division():
    assert is_division(gf(2, 2))
    assert not is_division(zmod(4))
    assert not is_division(matrix_ring(2, zmod(2)))


def test_local():
    assert is_local(zmod(9))
    assert not is_local(zmod(6))
    assert is_local(group_ring(zmod(2), cyclic(2)))
    assert is_local(trivial_extension(zmod(2)))


def test_semisimple():
    assert is_semisimple(product(zmod(2), zmod(3)))
    assert not is_semisimple(zmod(4))
    assert is_semisimple(matrix_ring(2, zmod(2)))


def test_dedekind_finite():
    assert is_dedekind_finite(zmod(12))
    assert is_dedekind_finite(matrix_ring(2, zmod(3)))
    assert is_dedekind_finite(upper_triangular(2, zmod(2)))
    assert is_dedekind_finite(group_ring(zmod(2), symmetric_3(), limits=LAZY))


def test_classify_examples():
    rep = classify(zmod(4))
    assert rep.verdicts["2-sqrtJU"] and rep.verdicts["sqrtJU"]
    assert rep.verdicts["local"] and not rep.verdicts["division"]
    rep3 = classify(zmod(3))
    assert rep3.verdicts["2-sqrtJU"] and not rep3.verdicts["sqrtJU"]
    assert rep3.verdicts["division"] and rep3.verdicts["semisimple"]
    assert rep3.witnesses["sqrtJU"] == 2
    repm = classify(matrix_ring(2, zmod(2)))
    assert not repm.verdicts["2-sqrtJU"] and repm.verdicts["semisimple"]


CORPUS_SAMPLE = [
    zmod(2), zmod(3), zmod(4), zmod(5), zmod(6), zmod(8), zmod(9), zmod(12), zmod(36),
    gf(2, 2), gf(3, 2), matrix_ring(2, zmod(2)), matrix_ring(2, zmod(3)),
    upper_triangular(2, zmod(2)), upper_triangular(2, zmod(5)),
    trivial_extension(zmod(2)), trivial_extension(zmod(9)),
    bt(zmod(2)), bt(zmod(3)),
    group_ring(zmod(2), cyclic(2)), group_ring(zmod(2), cyclic(3)),
    group_ring(zmod(4), cyclic(3)), group_ring(zmod(9), cyclic(2)),
    group_ring(zmod(2), group_product(cyclic(2), cyclic(2))),
    product(zmod(2), zmod(5)),
]


@pytest.mark.parametrize("ring", CORPUS_SAMPLE, ids=lambda r: r.label)
def test_implication_diagram(ring):
    rep = classify(ring).verdicts
    assert not rep["sqrtJU"] or rep["2-sqrtJU"]
    assert not rep["UU"] or rep["sqrtJU"]
    assert not rep["UJ"] or rep["sqrtJU"]
    assert not rep["2-UU"] or rep["2-sqrtJU"]
    assert not rep["2-UJ"] or rep["2-sqrtJU"]
    # division => local => (semisimple <=> division)
    assert not rep["division"] or rep["local"]
    if rep["local"]:
        assert rep["semisimple"] == rep["division"]
    assert rep["dedekind-finite"]


@pytest.mark.parametrize("ring", CORPUS_SAMPLE, ids=lambda r: r.label)
def test_failing_unit_class_carries_unit_witness(ring):
    rep = classify(ring)
    from finring import jacobson, nilpotents, sqrt_jacobson, units

    targets = {"N": nilpotents(ring).members, "J": jacobson(ring).members,
               "sqrtJ": sqrt_jacobson(ring).members}
    for name, (power, target) in UNIT_CLASSES.items():
        if rep.verdicts[name]:
            assert name not in rep.witnesses
            continue
        u = rep.witnesses[name]
        assert u in units(ring).members
        w = u if power == 1 else ring.mul(u, u)
        assert ring.sub(w, ring.one) not in targets[target]
        # smallest failing unit: all smaller units satisfy the condition
        for v in units(ring).indices():
            if v >= u:
                break
            wv = v if power == 1 else ring.mul(v, v)
            assert ring.sub(wv, ring.one) in targets[target]


def test_sqrtju_iff_two_in_radical():
    from finring import jacobson
    for ring in CORPUS_SAMPLE:
        two = ring.add(ring.one, ring.one)
        assert check_unit_class(ring, 1, "sqrtJ")[0] == (is_two_sqrt_ju(ring) and two in jacobson(ring).members)


def _assert_units_free_criteria(ring):
    verdicts = classify(ring).verdicts
    square, cube = power_law_mod_j(ring, 2), power_law_mod_j(ring, 3)
    assert verdicts["UU"] == verdicts["UJ"] == verdicts["sqrtJU"] == square, ring.label
    assert verdicts["2-UU"] == verdicts["2-UJ"] == verdicts["2-sqrtJU"] == cube, ring.label


def test_unit_classes_match_units_free_criteria():
    corpus = [ring for _, ring in default_corpus().rings()]
    for ring in corpus:
        _assert_units_free_criteria(ring)
    for ring in corpus:
        if ring.order <= 256:
            for seed in range(2):
                _assert_units_free_criteria(relabelled(ring, seed))
    rng = random.Random(24)
    built = 0
    while built < 150:
        text = format_expr(random_ring_expr(rng, rng.randint(1, 3)))
        try:
            rings = [parse_and_build(text, Limits(max_order=256, table_threshold=t))
                     for t in (256, 1)]
        except (LimitError, ArgumentError):
            continue
        assert [r.mode for r in rings] == ["table", "lazy"]
        for ring in rings:
            _assert_units_free_criteria(ring)
        built += 1

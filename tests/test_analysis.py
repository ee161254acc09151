import gc
import itertools
import random
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import finring
import finring.analysis as fa
from finring import (
    ArgumentError,
    FiniteRing,
    InternalConsistencyError,
    bt,
    center,
    corner,
    default_corpus,
    gf,
    group_ring,
    ideal_closure,
    idempotents,
    is_two_sqrt_ju,
    is_unit_closed_subring,
    jacobson,
    matrix_ring,
    nilpotents,
    product,
    quotient,
    sqrt_jacobson,
    subring_closure,
    trivial_extension,
    unit_inverses,
    units,
    upper_triangular,
    zmod,
)
from finring.groups import cyclic, symmetric_3

from helpers import (
    LAZY,
    TABLE,
    brute_center,
    brute_idempotents,
    brute_jacobson,
    brute_nilpotents,
    brute_sqrt_jacobson,
    brute_units,
    c3_pairs,
    radical,
    zn_jacobson,
)

SAMPLE_RINGS = [
    zmod(4), zmod(6), zmod(12), zmod(27),
    gf(2, 2), gf(3, 2),
    matrix_ring(2, zmod(2)), matrix_ring(2, zmod(3)),
    upper_triangular(2, zmod(3)),
    trivial_extension(zmod(4)),
    group_ring(zmod(2), cyclic(4)),
    group_ring(zmod(3), cyclic(2)),
    product(zmod(4), zmod(3)),
    bt(zmod(2)),
    group_ring(zmod(2), symmetric_3(), limits=LAZY),
    zmod(40, limits=LAZY),
]


@pytest.mark.parametrize("ring", SAMPLE_RINGS, ids=lambda r: f"{r.label}[{r.mode}]")
def test_sets_match_brute_force(ring):
    oracle_units = brute_units(ring)
    assert units(ring).members == set(oracle_units)
    inv = unit_inverses(ring)
    for u, ui in inv.items():
        assert ring.mul(u, ui) == ring.one
        assert ring.mul(ui, u) == ring.one
    assert jacobson(ring).members == brute_jacobson(ring)
    assert sqrt_jacobson(ring).members == brute_sqrt_jacobson(ring)
    assert nilpotents(ring).members == brute_nilpotents(ring)
    assert idempotents(ring).members == brute_idempotents(ring)
    assert center(ring).members == brute_center(ring)


def test_specific_values():
    assert units(zmod(4)).indices() == [1, 3]
    assert jacobson(zmod(12)).indices() == [0, 6]
    assert units(group_ring(zmod(2), cyclic(2))).indices() == [1, 2]
    m2 = matrix_ring(2, zmod(2))
    assert jacobson(m2).indices() == [0]
    assert len(sqrt_jacobson(m2)) == 4
    assert len(units(m2)) == 6
    ut = upper_triangular(2, zmod(2))
    assert jacobson(ut).indices() == [0, 2]
    assert units(ut).indices() == [5, 7]
    assert idempotents(zmod(6)).indices() == [0, 1, 3, 4]
    assert center(m2).indices() == [0, 9]
    assert nilpotents(gf(2, 2)).indices() == [0]


def test_cached_values_are_not_writable():
    m2 = matrix_ring(2, zmod(4))
    units(m2)
    arrays = [fa.generators(m2), fa.squares(m2), fa._high_powers(m2), m2.cached("units", None)[1],
              fa.generators(product(zmod(2), zmod(4))), fa.generators(product(zmod(2), zmod(4), limits=LAZY))]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[:] = 0
    assert (len(jacobson(m2)), len(center(m2))) == (16, 4)
    z5 = zmod(5)
    unit_inverses(z5).clear()
    assert unit_inverses(z5) == {1: 1, 2: 3, 3: 2, 4: 4}


def test_in_jacobson_queries():
    assert 2 in jacobson(zmod(4))
    assert 2 not in jacobson(zmod(6))
    assert 0 in jacobson(zmod(6))
    m2 = matrix_ring(2, zmod(2))
    assert 2 in sqrt_jacobson(m2)      # E12 is nilpotent
    assert 6 not in sqrt_jacobson(m2)  # E12 + E21 is a unit


def test_sqrtj_not_closed_under_addition():
    m2 = matrix_ring(2, zmod(2))
    sj = sqrt_jacobson(m2).members
    assert 2 in sj and 4 in sj
    assert m2.add(2, 4) == 6
    assert 6 in units(m2).members


def test_jacobson_zn_cross_oracles():
    for n in range(2, 65):
        ring = zmod(n)
        expected = {x for x in range(n) if x % radical(n) == 0}
        assert jacobson(ring).members == expected == zn_jacobson(n)


def test_units_plus_radical_stay_units():
    # u + j is a unit for every unit u and radical element j; exhaustive
    # over every default-corpus ring of order <= 256
    from finring import default_corpus

    rings = [r for r in SAMPLE_RINGS] + [r for _, r in default_corpus().rings()]
    checked = 0
    for ring in rings:
        if ring.order > 256:
            continue
        u = units(ring).members
        for x in u:
            for j in jacobson(ring).members:
                assert ring.add(x, j) in u
                checked += 1
    assert checked > 5_000  # the loop really ran, across dozens of rings


def test_ideal_closure():
    assert ideal_closure(zmod(12), [4]).indices() == [0, 4, 8]
    assert ideal_closure(zmod(12), []).indices() == [0]
    assert len(ideal_closure(matrix_ring(2, zmod(2)), [2])) == 16
    ut = upper_triangular(2, zmod(2))
    assert ideal_closure(ut, [2]).indices() == [0, 2]
    # lazy path agrees with the vectorized path
    lazy = group_ring(zmod(2), cyclic(2), limits=LAZY)
    table = group_ring(zmod(2), cyclic(2), limits=TABLE)
    assert ideal_closure(lazy, [3]).members == ideal_closure(table, [3]).members


def test_unit_closed_subrings():
    m2 = matrix_ring(2, zmod(2))
    s = subring_closure(m2, [2])
    assert is_unit_closed_subring(s)
    whole = subring_closure(zmod(6), [3])
    assert is_unit_closed_subring(whole)
    # diagonal copy of Z/4 inside TE(Z/4) is unit closed
    te = trivial_extension(zmod(4))
    diag = subring_closure(te, [])
    assert diag.ring.order == 4
    assert is_unit_closed_subring(diag)


def test_cache_is_once_only_under_concurrency(monkeypatch):
    calls = []
    scan = fa._units_and_inverses
    monkeypatch.setattr(fa, "_units_and_inverses", lambda r: calls.append(r) or scan(r))
    ring = matrix_ring(2, zmod(3))
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: units(ring).members, range(32)))
    assert all(r == results[0] for r in results)
    assert calls == [ring]


def test_analysis_module_is_not_shadowed():
    assert isinstance(fa, types.ModuleType)
    assert fa.units is finring.units


def test_inconsistent_table_is_reported_loudly():
    # a deliberately non-associative "ring" whose one-sided inverses are
    # not two-sided; the unit scan must refuse it rather than mislabel
    add = zmod(4).add_table
    mul = np.array([
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 2, 2],
    ])
    broken = FiniteRing(4, 1, "broken", add_table=add, mul_table=mul)
    with pytest.raises(InternalConsistencyError):
        units(broken)


def test_elementset_reports_sorted_indices():
    s = sqrt_jacobson(matrix_ring(2, zmod(2)))
    assert s.indices() == sorted(s.indices())
    assert 2 in s and 6 not in s
    assert len(s) == 4


def test_product_sample_matches_brute_force_in_both_modes():
    # a seeded sample of the direct products verify's C3 builds, each in
    # table and lazy storage against the oracles on the table product;
    # then the table product's own tables go back through FiniteRing with
    # one entry -1 or n, as int16 (one reduction over the uint16 view)
    # and as int64 (min and max)
    corpus = default_corpus()
    table_pairs, lazy_pairs = (c3_pairs([r for _, r in corpus.rings(m)]) for m in (TABLE, LAZY))
    for k in random.Random(19).sample(range(len(table_pairs)), 20):
        table, lazy = product(*table_pairs[k], limits=TABLE), product(*lazy_pairs[k], limits=LAZY)
        assert (table.mode, lazy.mode) == ("table", "lazy")
        inverses = brute_units(table)
        expected = {units: set(inverses), jacobson: brute_jacobson(table),
                    sqrt_jacobson: brute_sqrt_jacobson(table), nilpotents: brute_nilpotents(table),
                    idempotents: brute_idempotents(table)}
        for ring in (table, lazy):
            assert unit_inverses(ring) == inverses, ring
            for fn, members in expected.items():
                got = fn(ring)
                assert got.members == members, (ring, fn.__name__)
                assert (np.diff(got.array) > 0).all()
                assert got.indices() == sorted(members) == list(got) and len(got) == len(members)
        n = table.order
        for op, value, dtype in itertools.product(("add", "mul"), (-1, n), (np.int16, np.int64)):
            tables = {"add_table": table.add_table.astype(dtype), "mul_table": table.mul_table.astype(dtype)}
            tables[f"{op}_table"][n - 1, n // 2] = value
            with pytest.raises(ArgumentError) as err:
                FiniteRing(n, table.one, "bad", **tables)
            assert str(err.value) == f"table entries must lie in 0..{n - 1}"


def test_analysed_derived_rings_are_freed_without_the_collector():
    # No cached set refers back to its ring, so reference counting alone
    # frees a derived ring, and its filled cache, at its last reference.
    parent = upper_triangular(2, zmod(4))
    derived = {
        "product": lambda: product(zmod(3), parent),
        "lazy product": lambda: product(zmod(3), parent, limits=LAZY),
        "quotient": lambda: quotient(parent, jacobson(parent)).ring,
        "corner": lambda: corner(parent, 1).ring,
        "subring": lambda: subring_closure(parent, [4]).ring,
    }
    gc.disable()
    try:
        for name, make in derived.items():
            ring = make()
            is_two_sqrt_ju(ring)
            ref = weakref.ref(ring)
            del ring
            assert ref() is None, name
    finally:
        gc.enable()

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Expected values are either exact by construction or frozen from the
independent oracles in helpers.py; no tolerances apply anywhere (every
computation here is integer-exact).
"""

import io
import random
import time

import numpy as np

from finring import (
    bt,
    check_unit_class,
    default_corpus,
    format_expr,
    gf,
    group_ring,
    is_division,
    is_two_sqrt_ju,
    jacobson,
    matrix_ring,
    parse,
    poly_quotient,
    run_claim,
    sqrt_jacobson,
    trivial_extension,
    units,
    verify_axioms,
    zmod,
)
from finring.cli import main as cli_main
from finring.groups import cyclic

from helpers import LAZY, TABLE, is_2a3b, radical, random_ring_expr, zn_two_sqrt_ju


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_full_suite_passes_quickly():
    out = io.StringIO()
    start = time.perf_counter()
    code = cli_main(["verify"], out=out, err=out)
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    ok = code == 0 and "19 passed, 0 failed, 2 skipped" in text and elapsed < 120
    _report(1, ok, f"verify: exit {code}, {elapsed:.1f}s (budget 120s), "
                   f"summary line present: {'19 passed, 0 failed, 2 skipped' in text}")


def test_criterion_02_division_characterization():
    fields = [gf(2, 1), gf(3, 1), gf(2, 2), gf(5, 1), gf(7, 1), gf(3, 2)]
    ok = all(is_division(f) for f in fields)
    verdicts = {f.order: is_two_sqrt_ju(f) for f in fields}
    ok = ok and verdicts == {2: True, 3: True, 4: False, 5: False, 7: False, 9: False}
    _report(2, ok, f"2-sqrtJU on GF(q): {verdicts} (expected true exactly for q in {{2, 3}})")


def test_criterion_03_zn_law_against_independent_brute_force():
    mismatches = []
    for n in range(2, 65):
        library = is_two_sqrt_ju(zmod(n))
        oracle = zn_two_sqrt_ju(n)      # pure-integer unit-square scan
        law = is_2a3b(n)
        if not (library == oracle == law):
            mismatches.append((n, library, oracle, law))
    _report(3, not mismatches,
            f"63 moduli agree with the integer oracle and the 2^a*3^b law; mismatches: {mismatches}")


def test_criterion_04_matrix_negative_result():
    failures = []
    for n in (2, 3, 4):
        ring = matrix_ring(2, zmod(n))
        w = 1 + n + n * n  # the matrix with rows (1,1),(1,0)
        verdict, _ = check_unit_class(ring, 2, "sqrtJ")
        unit_ok = w in units(ring).members
        fails = ring.sub(ring.mul(w, w), ring.one) not in sqrt_jacobson(ring).members
        if verdict or not unit_ok or not fails:
            failures.append((n, verdict, unit_ok, fails))
    _report(4, not failures,
            f"M(2, Z/n) fails 2-sqrtJU for n in {{2,3,4}} with witness rows (1,1),(1,0); "
            f"failures: {failures}")


def test_criterion_05_jacobson_oracle_to_512():
    bad = []
    for n in range(2, 513):
        expected = frozenset(range(0, n, radical(n)))
        got = jacobson(zmod(n)).members
        if got != expected:
            bad.append(n)
    _report(5, not bad, f"J(Z/n) = multiples of rad(n) for all n <= 512; failures: {bad}")


def test_criterion_06_sqrtj_not_a_subring():
    m2 = matrix_ring(2, zmod(2))
    e12, e21 = 2, 4
    sj = sqrt_jacobson(m2).members
    s = m2.add(e12, e21)
    ok = e12 in sj and e21 in sj and s in units(m2).members
    _report(6, ok, f"E12 ({e12}) and E21 ({e21}) lie in sqrtJ(M2(F2)) but their sum {s} is a unit")


def test_criterion_07_trivial_extension_formulas():
    details = []
    ok = True
    for n in (2, 3, 4, 9):
        base = zmod(n)
        te = trivial_extension(base)
        u_formula = frozenset(u * n + m for u in units(base).members for m in range(n))
        j_formula = frozenset(j * n + m for j in jacobson(base).members for m in range(n))
        sqrt_a = frozenset(z * n + m for z in sqrt_jacobson(base).members for m in range(n))
        sqrt_b = frozenset(z * n + m for z in jacobson(base).members for m in range(n))
        computed = sqrt_jacobson(te).members
        ok = ok and units(te).members == u_formula and jacobson(te).members == j_formula
        reading_a, reading_b = computed == sqrt_a, computed == sqrt_b
        ok = ok and reading_a
        details.append(f"TE(Z/{n}): U ok, J ok, sqrtJ reading components-in-sqrtJ(R)={reading_a}"
                       + (" (J reading coincides)" if reading_b else ""))
    _report(7, ok, "; ".join(details))


def test_criterion_08_bt_isomorphism():
    failures = []
    for n in (2, 3):
        base = zmod(n)
        inner = poly_quotient(base, [0, 0, base.one])
        src = poly_quotient(inner, [0, 0, inner.one])   # R[x,y]/(x^2, y^2)
        tgt = bt(base)
        phi = lambda s: ((s % n) * n ** 3 + ((s // n) % n) * n ** 2
                         + ((s // n ** 2) % n) * n + s // n ** 3)
        bijective = sorted(phi(s) for s in range(src.order)) == list(range(tgt.order))
        additive = multiplicative = True
        for a in range(src.order):
            for b in range(src.order):
                if phi(src.add(a, b)) != tgt.add(phi(a), phi(b)):
                    additive = False
                if phi(src.mul(a, b)) != tgt.mul(phi(a), phi(b)):
                    multiplicative = False
        if not (bijective and additive and multiplicative and phi(src.one) == tgt.one):
            failures.append((n, bijective, additive, multiplicative))
    _report(8, not failures,
            f"coordinate map Z/n[x,y]/(x^2,y^2) -> BT(Z/n) is a ring isomorphism for n in {{2,3}} "
            f"(exhaustive over 256 and 6561 pairs); failures: {failures}")


def test_criterion_09_group_ring_theorems():
    neg = {f"GR(Z/{n}, C3)": is_two_sqrt_ju(group_ring(zmod(n), cyclic(3))) for n in (4, 2)}
    pos = {f"GR(Z/{n}, C2)": is_two_sqrt_ju(group_ring(zmod(n), cyclic(2))) for n in (9, 3)}
    ok = not any(neg.values()) and all(pos.values())
    _report(9, ok, f"negative instances {neg} (want all False); positive instances {pos} (want all True)")


def test_criterion_10_invariant_claims_exhaustive():
    corpus = default_corpus()
    results = {cid: run_claim(cid, corpus) for cid in ("C1", "C11", "C12")}
    ok = all(r.passed for r in results.values())
    counts = {cid: len(r.records) for cid, r in results.items()}
    _report(10, ok, f"C1/C11/C12 pass with zero counterexamples over every corpus ring "
                    f"(record counts {counts})")


def test_criterion_11_engineering_invariants():
    # (a) table vs on-demand agreement, element for element
    agree = True
    for make in (lambda m: group_ring(zmod(2), cyclic(4), limits=m),
                 lambda m: matrix_ring(2, zmod(4), limits=m)):
        table, lazy = make(TABLE), make(LAZY)
        assert table.mode == "table" and lazy.mode == "lazy"
        x, y = np.arange(table.order)[:, None], np.arange(table.order)[None, :]
        for op in ("add_arr", "mul_arr"):
            agree = agree and np.array_equal(getattr(table, op)(x, y), getattr(lazy, op)(x, y))
    # (b) expression round trip over >= 10^4 generated trees
    rng = random.Random(987654321)
    trips = 10_000
    roundtrip = True
    for _ in range(trips):
        node = random_ring_expr(rng, rng.randint(0, 4))
        if parse(format_expr(node)) != node:
            roundtrip = False
            break
    # (c) axioms across the whole corpus
    axioms = all(verify_axioms(ring).passed for _, ring in default_corpus().rings())
    ok = agree and roundtrip and axioms
    _report(11, ok, f"mode agreement on GR(Z/2, C4) and M(2, Z/4): {agree}; "
                    f"round trip over {trips} ASTs: {roundtrip}; corpus axioms: {axioms}")

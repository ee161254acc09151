import tracemalloc
import weakref

import numpy as np
import pytest

from finring import (
    CLAIMS,
    Corpus,
    CorpusError,
    ElementSet,
    FiniteRing,
    GroupTable,
    Limits,
    bt,
    classify,
    default_corpus,
    load_corpus,
    parse_and_build,
    poly_quotient,
    run_claim,
    run_suite,
    zmod,
)
import finring.build
import finring.expr as expr
import finring.harness as harness
from finring.harness import (
    DEFAULT_CORPUS_LINES,
    SKIPPED_CLAIMS,
    _digit_reversal,
    _first_non_homomorphic_pair,
    _principal_ideals_in_j,
    _single_generator_subrings,
)
from finring.predicates import CLASS_NAMES, is_two_sqrt_ju
from helpers import (
    every_principal_ideal_in_j,
    every_single_generator_subring,
    relabelled,
    unit_square_sum_scan,
)


def test_default_corpus_loads_and_is_varied():
    corpus = default_corpus()
    rings = corpus.rings()
    assert len(rings) == 47
    orders = [ring.order for _, ring in rings]
    assert max(orders) <= 6561
    labels = [label for label, _ in rings]
    assert labels == list(DEFAULT_CORPUS_LINES)
    # at least one ring in and one out of every class (Dedekind
    # finiteness excepted: every finite ring is in)
    reports = [classify(ring).verdicts for _, ring in rings]
    for name in CLASS_NAMES:
        if name == "dedekind-finite":
            assert all(rep[name] for rep in reports)
            continue
        assert any(rep[name] for rep in reports), name
        assert any(not rep[name] for rep in reports), name


def test_corpus_file_roundtrip(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("# comment line\nZ/4\n\nTE(Z/2)  # trailing comment\n")
    corpus = load_corpus(str(path))
    assert corpus.expressions == ["Z/4", "TE(Z/2)"]
    assert [r.order for _, r in corpus.rings()] == [4, 4]


def test_corpus_load_fails_atomically(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Z/4\nZ/1\nZ/6\n")
    corpus = load_corpus(str(path))
    with pytest.raises(CorpusError) as err:
        corpus.rings()
    assert err.value.line_no == 2
    assert "Z/1" in str(err.value)


def test_missing_corpus_file():
    with pytest.raises(CorpusError):
        load_corpus("does-not-exist.txt")


def test_non_utf8_corpus_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"Z/4\n\xff\n")
    with pytest.raises(CorpusError, match="cannot read corpus file"):
        load_corpus(str(path))


def test_unknown_claim_id():
    with pytest.raises(CorpusError):
        run_claim("C99", default_corpus())
    with pytest.raises(CorpusError):
        run_suite(default_corpus(), ["C1", "nope"])


def test_unknown_claim_id_is_worded_once():
    known = "; known: " + ", ".join(CLAIMS)
    with pytest.raises(CorpusError, match=f"^unknown claim id 'C99'{known}$"):
        run_claim("C99", default_corpus())
    with pytest.raises(CorpusError, match=f"^unknown claim id 'nope'{known}$"):
        run_suite(default_corpus(), ["C1", "nope", "C0"])


def test_comment_only_corpus_file_is_refused(tmp_path):
    path = tmp_path / "comments.txt"
    path.write_text("# nothing but comments\n\n   # and blanks\n")
    with pytest.raises(CorpusError, match="contains no expressions"):
        load_corpus(str(path))


def test_c17_skips_a_prebuilt_ring_whose_label_does_not_parse():
    odd = zmod(4, label="Z/4 with a hand-made table (")
    result = run_claim("C17", Corpus("prebuilt", ["GR(Z/2, C2)"], prebuilt=[odd]))
    assert result.passed
    assert [rec.subject for rec in result.records] == ["GR(Z/2, C2) (+2 subgroups)"]


def test_single_claim_run():
    corpus = default_corpus()
    result = run_claim("C1", corpus)
    assert result.claim_id == "C1"
    assert result.passed
    assert len(result.records) == 47


def test_suite_filter_and_determinism():
    corpus = default_corpus()
    r1 = run_suite(corpus, ["C13", "C6"])
    assert [c.claim_id for c in r1.results] == ["C6", "C13"]
    r2 = run_suite(corpus, ["C13", "C6"])
    strip = lambda rep: [(c.claim_id, c.records) for c in rep.results]
    assert strip(r1) == strip(r2)


def test_skipped_claims_reported():
    ids = {s.claim_id for s in SKIPPED_CLAIMS}
    assert ids == {"C-torsion", "C-powerseries"}
    report = run_suite(default_corpus(), ["C13"])
    assert {s.claim_id for s in report.skipped} == ids


def test_corrupted_table_fails_axioms_or_claims():
    base = zmod(6)
    mul = np.array(base.mul_table)
    mul[2, 3] = 1  # 2*3 = 1 breaks associativity/distributivity
    corrupted = FiniteRing(6, 1, "corrupted-Z/6", add_table=base.add_table, mul_table=mul)
    corpus = Corpus("with-corruption", ["Z/4"], prebuilt=[corrupted])
    report = run_suite(corpus, ["C1"])
    assert report.failed_count > 0
    bad = [rec for rec in report.axiom_records if not rec[1]]
    assert bad and bad[0][0] == "corrupted-Z/6"


def test_c14_records_the_sqrtj_reading():
    result = run_claim("C14", default_corpus())
    assert result.passed
    notes = {rec.subject: rec.note for rec in result.records}
    assert "first components in sqrtJ(R)" in notes["TE(M(2, Z/2))"]
    assert "coincide" in notes["TE(Z/4)"]


def test_c19_caps_the_large_instance():
    result = run_claim("C19", default_corpus())
    assert result.passed
    skipped = [rec for rec in result.records if "skipped" in rec.note]
    assert len(skipped) == 1 and "GR(Z/9, C2xC2)" in skipped[0].subject


def test_c17_walks_the_group_rings_of_the_given_corpus():
    result = run_claim("C17", Corpus("x", ["GR(Z/3, C2)"]))
    assert [(rec.subject, rec.ok) for rec in result.records] == [("GR(Z/3, C2) (+2 subgroups)", True)]
    assert run_claim("C17", Corpus("x", ["Z/4"])).records == ()
    # a group ring inside a product is not a GR term at top level
    assert run_claim("C17", Corpus("x", ["GR(Z/2, C2) x Z/3"])).records == ()


def test_every_claim_id_known():
    assert sorted(CLAIMS, key=lambda c: int(c[1:])) == [f"C{i}" for i in range(1, 20)]


def _scalar_first_failure(src, tgt, phi):
    """C16's pair loop: the first (a, b) in row-major order where phi
    fails to carry addition, then multiplication, from src to tgt."""
    for a in range(src.order):
        for b in range(src.order):
            if phi(src.add(a, b)) != tgt.add(phi(a), phi(b)):
                return f"not additive at ({a}, {b})"
            if phi(src.mul(a, b)) != tgt.mul(phi(a), phi(b)):
                return f"not multiplicative at ({a}, {b})"
    return None


@pytest.mark.parametrize("n, faults", [
    (2, []),
    (2, [("mul", 5, 9)]),
    (2, [("add", 5, 9)]),
    (2, [("mul", 5, 9), ("add", 5, 9)]),  # both fail at one pair: additive
    (2, [("add", 7, 3), ("mul", 5, 9)]),
    (2, [("mul", 0, 0), ("add", 15, 15)]),
    (3, [("mul", 80, 80), ("add", 40, 2)]),
])
def test_c16_pair_check_matches_scalar_loop(n, faults):
    base = zmod(n)
    inner = poly_quotient(base, [0, 0, base.one])
    src = poly_quotient(inner, [0, 0, inner.one])
    good = bt(base)
    d = _digit_reversal(np.arange(src.order), n)
    tables = {"add": np.array(good.add_table), "mul": np.array(good.mul_table)}
    for table, a, b in faults:  # break the image of the pair (a, b)
        tables[table][d[a], d[b]] = (tables[table][d[a], d[b]] + 1) % good.order
    tgt = FiniteRing(good.order, good.one, "corrupted BT",
                     add_table=tables["add"], mul_table=tables["mul"])
    expected = _scalar_first_failure(src, tgt, lambda s: int(d[s]))
    assert (expected is None) == (not faults)
    assert _first_non_homomorphic_pair(src, tgt, d) == expected


def _dedupe_cases():
    """Every default-corpus ring, then three seeded relabellings each of
    M(2, Z/3) and GR(Z/2, S3), whose index order no longer follows the
    construction."""
    cases = [pytest.param(text, None, id=text) for text in DEFAULT_CORPUS_LINES]
    for text in ("M(2, Z/3)", "GR(Z/2, S3)"):
        cases += [pytest.param(text, seed, id=f"{text} relabelled {seed}") for seed in range(3)]
    return cases


@pytest.mark.parametrize("text, seed", _dedupe_cases())
def test_orbit_dedupes_match_the_undeduplicated_loops(text, seed):
    ring = parse_and_build(text)
    if seed is not None:
        ring = relabelled(ring, seed)
    got = [(z, ideal.members) for z, ideal in _principal_ideals_in_j(ring)]
    want = [(z, ideal.members) for z, ideal in every_principal_ideal_in_j(ring)]
    assert got == want
    got = [(x, sub.embedding, sub.ring.label) for x, sub in _single_generator_subrings(ring)]
    want = [(x, sub.embedding, sub.ring.label) for x, sub in every_single_generator_subring(ring)]
    assert got == want


def test_c11_membership_matches_the_pair_scan(monkeypatch):
    # C11 tests 1 - u^2 for membership in U; the oracle scans every sum
    # u^2 + v of a unit pair.  With the class predicate forced true, the
    # corpus rings outside the class, where such pairs exist, run the
    # check too, so the failure texts are compared.
    outside = [ring for _, ring in default_corpus().rings() if not is_two_sqrt_ju(ring)]
    monkeypatch.setattr(harness, "is_two_sqrt_ju", lambda ring: True)
    result = run_claim("C11", Corpus("outside the class", [], prebuilt=outside))
    notes = [rec.note for rec in result.records]
    assert notes == [unit_square_sum_scan(ring) for ring in outside]
    assert notes[[ring.label for ring in outside].index("Z/5")] == "u=2, v=2 gives u^2 + v = 1"


def test_c2_and_c5_close_once_per_orbit(monkeypatch):
    calls = {"ideal": 0, "subring": 0}

    def counting(kind, fn):
        def wrapped(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(harness, "ideal_closure", counting("ideal", harness.ideal_closure))
    monkeypatch.setattr(harness, "closure", counting("subring", harness.closure))
    monkeypatch.setattr(finring.build, "closure", counting("subring", finring.build.closure))
    corpus = Corpus("Z/16", ["Z/16"])
    assert run_claim("C2", corpus).passed and run_claim("C5", corpus).passed
    # J(Z/16) is the even residues, U the odd ones: orbits {0}, {8},
    # {4, 12} and {2, 6, 10, 14}
    orbits = {frozenset(u * z % 16 for u in range(1, 16, 2)) for z in range(0, 16, 2)}
    assert calls["ideal"] == len(orbits) == 4
    # Z*1 is all of Z/16, one coset: its own closure, then that of
    # {1, 0}, and the subring is built on the latter's members
    assert calls["subring"] == 2


def test_corpus_rebuilds_rings_under_other_limits():
    corpus = default_corpus()
    assert {ring.mode for _, ring in corpus.rings()} == {"table"}
    assert {ring.mode for _, ring in corpus.rings(Limits(table_threshold=1))} == {"lazy"}


def test_corpus_checks_a_later_smaller_max_order():
    corpus = default_corpus()
    corpus.rings()
    with pytest.raises(CorpusError, match="exceeds the limit 100"):
        corpus.rings(Limits(max_order=100))


def test_suite_peak_memory_stays_bounded():
    # The peak measured 7.1 MB with Python 3.11 and numpy 2.4; the bound
    # leaves room for other versions.
    tracemalloc.start()
    try:
        assert run_suite(default_corpus()).all_passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def count_builds(monkeypatch, names):
    """Count the calls of build.<name> for each name, both direct ones and
    those an expression makes through its ``_TERMS`` builder."""
    calls = dict.fromkeys(names, 0)
    keyword = {"matrix_ring": "M", "group_ring": "GR"}
    for name in names:
        def counting(*args, _name=name, _fn=getattr(finring.build, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(finring.build, name, counting)
        kinds, _ = expr._TERMS[keyword[name]]
        monkeypatch.setitem(expr._TERMS, keyword[name], (kinds, counting))
    return calls


def test_fixed_instances_come_from_the_corpus(monkeypatch):
    corpus = default_corpus()
    corpus.rings()
    calls = count_builds(monkeypatch, ["matrix_ring", "group_ring"])
    assert run_claim("C13", corpus).passed and run_claim("C18", corpus).passed
    assert calls == {"matrix_ring": 0, "group_ring": 0}
    # the counters see a build: a corpus without the instances builds each
    assert run_claim("C13", Corpus("x", ["Z/2"])).passed and run_claim("C18", Corpus("x", ["Z/2"])).passed
    assert calls == {"matrix_ring": 3, "group_ring": 3}


def test_corpus_lookup_never_returns_a_prebuilt_ring():
    # Z/256 under the label of C13's M(2, Z/4) instance would fail C13
    fake = zmod(256, label="M(2, Z/4)")
    corpus = Corpus("fake", ["Z/2"], prebuilt=[fake])
    assert corpus.ring("M(2, Z/4)") is not fake
    assert run_claim("C13", corpus).passed


def test_corpus_lookup_matches_canonical_text_under_the_same_limits():
    corpus = default_corpus()
    lazy = Limits(table_threshold=1)
    entry = DEFAULT_CORPUS_LINES.index("M(2, Z/3)")
    ring = corpus.ring("M(2,Z/3)", lazy)
    assert ring is corpus.rings(lazy)[entry][1] and ring.mode == "lazy"
    assert corpus.ring(" M( 2 , Z/3 )") is corpus.rings()[entry][1]


def test_fresh_claim_instances_are_not_kept(monkeypatch):
    built = []

    def recording(node, limits):
        ring = expr.evaluate(node, limits)
        built.append((ring.label, weakref.ref(ring)))
        return ring

    monkeypatch.setattr(harness, "evaluate", recording)
    corpus = default_corpus()
    assert run_claim("C10", corpus).passed
    # the NIL(Z/n, p) the corpus lacks, NIL(Z/9, 3) among them; no Z/n
    assert "NIL(Z/9, 3)" in dict(built) and all(label.startswith("NIL") for label, _ in built)
    assert [label for label, ref in built if ref() is not None] == []
    assert len(corpus.rings()) == 47


def _zero_set(ring):
    return ElementSet(ring, [0])


def _order(test):
    """A forced 2-sqrtJU verdict read off the order alone."""
    return lambda ring: test(ring.order)


# claim -> (corpus lines, {harness name: replacement}, subject of a
# failing record).  Each recipe breaks one piece the claim relies on, so
# the claim must report the instance it caught.
_FAILING = {
    "C1": (["Z/4"], {"sqrt_jacobson": harness.idempotents}, "Z/4"),
    "C2": (["Z/4"], {"is_two_sqrt_ju": _order(lambda n: n == 4)}, "Z/4"),
    "C2 escape": (["Z/4"], {"ideal_closure": lambda ring, gens: ElementSet(ring, range(ring.order))},
                  "Z/4"),
    "C3": (["Z/2", "Z/3"], {"is_two_sqrt_ju": _order(lambda n: n % 2 == 0)}, "Z/2 x Z/3"),
    "C4": (["Z/6"], {"is_two_sqrt_ju": _order(lambda n: n == 6)}, "Z/6"),
    "C5": (["Z/4"], {"is_two_sqrt_ju": lambda ring: not ring.label.startswith("subring")}, "Z/4"),
    "C6": (["Z/2"], {"is_two_sqrt_ju": _order(lambda n: n % 2 == 0)}, "GF(2, 2)"),
    "C7": (["Z/9"], {"is_two_sqrt_ju": _order(lambda n: n % 2 == 0)}, "Z/9"),
    "C8": (["Z/2"], {"is_two_sqrt_ju": _order(lambda n: n % 2 == 0)}, "GF(3, 1)"),
    "C9": (["GF(2, 2)"], {"is_two_sqrt_ju": _order(lambda n: n % 2 == 0)}, "GF(2, 2)"),
    "C10": (["Z/2"], {"is_two_sqrt_ju": _order(lambda n: n < 10)}, "NIL(Z/4, 2)"),
    "C11": (["Z/5"], {"is_two_sqrt_ju": lambda ring: True}, "Z/5"),
    "C12": (["Z/4"], {"sqrt_jacobson": harness.idempotents}, "Z/4"),
    "C13": (["Z/2"], {"sqrt_jacobson": lambda ring: ElementSet(ring, range(ring.order)),
                      "check_unit_class": lambda ring, power, target: (True, ring.one)}, "M(2, Z/2)"),
    "C13 units": (["Z/2"], {"units": lambda ring: ElementSet(ring, [ring.one])}, "M(2, Z/2)"),
    "C14": (["Z/2"], {"is_two_sqrt_ju": _order(lambda n: n < 10), "units": _zero_set,
                      "jacobson": _zero_set, "sqrt_jacobson": _zero_set}, "TE(Z/4)"),
    "C15": (["Z/2"], {"is_two_sqrt_ju": lambda ring: ring.label.startswith("UT")}, "UT(2, Z/2)"),
    "C16": (["Z/2"], {"is_two_sqrt_ju": _order(lambda n: n < 10),
                      "_digit_reversal": lambda s, q: s // 2}, "BT(Z/2)"),
    "C17": (["GR(Z/2, C2 x C2)"], {"is_two_sqrt_ju": _order(lambda n: n == 16)}, "GR(Z/2, C2 x C2)"),
    "C18": (["Z/2"], {"is_two_sqrt_ju": lambda ring: True, "jacobson": _zero_set},
            "GR(Z/4, C3)"),
    "C19": (["Z/2"], {"is_two_sqrt_ju": lambda ring: False, "jacobson": _zero_set},
            "GR(Z/9, C2)"),
}


@pytest.mark.parametrize("case", list(_FAILING))
def test_each_claim_reports_a_failing_instance(monkeypatch, case):
    lines, patches, subject = _FAILING[case]
    for name, replacement in patches.items():
        monkeypatch.setattr(harness, name, replacement)
    if case in ("C18", "C19"):  # the 2-group hypothesis read the other way round
        is_two_group = GroupTable.is_two_group
        monkeypatch.setattr(GroupTable, "is_two_group", lambda group: not is_two_group(group))
    result = run_claim(case.split()[0], Corpus("broken", lines))
    assert not result.passed
    failing = [rec for rec in result.records if not rec.ok]
    assert any(rec.subject.startswith(subject) for rec in failing), failing

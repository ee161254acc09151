"""Replay the library's theorem claims over a corpus of finite rings.

Each claim quantifies a statement over the corpus, over derived rings
it builds (quotients, corners, generated subrings, products of corpus
pairs under a size cap) or over fixed instances, which are expression
texts; C17 takes the corpus entries whose text is a GR(R, G) term.  A
fixed instance, or the coefficient ring of a group ring, is the corpus's
own ring when the corpus holds the same expression (:meth:`Corpus.ring`),
so its analysis is shared with the claims over the corpus, and is built
afresh otherwise; the records do not depend on which.  Each claim
reports pass/fail per instance with witnesses.  Universally quantified
statements are *checked*, never proven: a passing claim means "no
counterexample found over the listed instances", and every claim
records its quantification domain.  C2 and C5 close one ideal or
subring per orbit of equivalent generators (:func:`_distinct_closures`).

Two claims about infinite objects cannot be exercised on finite
instances and are always reported as SKIPPED: C-powerseries (power
series rings are infinite; their finite shadow R[x]/(x^p) is covered by
C10) and C-torsion (falsifying it needs an infinite group; every finite
group is torsion).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from . import build
from .analysis import (
    center,
    closure,
    ideal_closure,
    idempotents,
    is_unit_closed_subring,
    jacobson,
    sqrt_jacobson,
    squares,
    units,
)
from .core import (DEFAULT_LIMITS, DEFAULT_SEED, ElementSet, FiniteRing, Limits, first_failure,
                   member_mask, verify_axioms)
from .expr import ParseError, evaluate, evaluate_group, format_expr, parse, parse_and_build
from .groups import cyclic_subgroups
from .predicates import (
    check_unit_class,
    is_division,
    is_local,
    is_two_sqrt_ju,
)

# Pair products in C3 are built for |R1|*|R2| up to this cap.
PRODUCT_PAIR_CAP = 256
# Structural analysis of a single derived ring is refused above this
# order: the units scan, the one n^2 pass of an analysis, would blow the
# suite's time budget on a lazy ring this size.  Affected instances are
# reported as skipped inside their (still passing) claim.
ANALYSIS_ORDER_CAP = 4096


class CorpusError(Exception):
    """A corpus file failed to load; carries the offending line."""

    def __init__(self, message: str, line_no: int | None = None, line: str | None = None):
        self.line_no = line_no
        self.line = line
        where = f" (line {line_no}: {line!r})" if line_no is not None else ""
        super().__init__(f"{message}{where}")


DEFAULT_CORPUS_LINES = (
    [f"Z/{n}" for n in list(range(2, 17)) + [18, 24, 27, 36]]
    + ["GF(2, 2)", "GF(3, 2)"]
    + ["M(2, Z/2)", "M(2, Z/3)", "M(2, Z/4)"]
    + ["UT(2, Z/2)", "UT(2, Z/4)", "UT(3, Z/2)", "UT(2, Z/5)"]
    + ["TE(Z/2)", "TE(Z/4)", "TE(Z/3)", "TE(Z/9)"]
    + ["BT(Z/2)", "BT(Z/3)", "BT(Z/5)"]
    + ["NIL(Z/2, 2)", "NIL(Z/2, 3)", "NIL(Z/3, 2)"]
    + ["GR(Z/2, C2)", "GR(Z/2, C3)", "GR(Z/2, C4)", "GR(Z/2, C2 x C2)",
       "GR(Z/4, C2)", "GR(Z/4, C3)", "GR(Z/3, C2)", "GR(Z/9, C2)", "GR(Z/2, S3)"]
)


@dataclass
class Corpus:
    """An ordered list of ring expressions, evaluated on first use.

    A parse/build failure on any line aborts the whole load with the
    offending line (atomic failure).  The rings are built once per
    ``limits`` and kept under them; :meth:`ring` hands them out for the
    claims' fixed instances.  ``prebuilt`` lets tests inject raw rings
    (e.g. corrupted tables) that no expression denotes.
    """

    name: str
    expressions: list
    prebuilt: list = field(default_factory=list)
    _rings: dict = field(default_factory=dict)

    def rings(self, limits: Limits = DEFAULT_LIMITS) -> list:
        if limits not in self._rings:
            out = []
            for i, text in enumerate(self.expressions, start=1):
                try:
                    out.append((text, parse_and_build(text, limits)))
                except Exception as exc:
                    raise CorpusError(f"cannot build corpus entry: {exc}", i, text) from exc
            out.extend((ring.label, ring) for ring in self.prebuilt)
            self._rings[limits] = out
        return self._rings[limits]

    def ring(self, text: str, limits: Limits = DEFAULT_LIMITS) -> FiniteRing:
        """The ring ``text`` denotes under ``limits``: this corpus's own ring
        when an expression entry has the same canonical text
        (``format_expr(parse(text))``, the label :func:`evaluate` gives),
        else a fresh build that the corpus does not keep.  A ``prebuilt``
        ring is never returned, as no expression denotes it."""
        node = parse(text)
        label = format_expr(node)
        for _, ring in self.rings(limits)[:len(self.expressions)]:
            if ring.label == label:
                return ring
        return evaluate(node, limits)


def default_corpus() -> Corpus:
    return Corpus("default", list(DEFAULT_CORPUS_LINES))


def load_corpus(path: str) -> Corpus:
    """UTF-8 text, one expression per line, '#' comments, blanks ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    expressions = []
    for line in raw.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            expressions.append(stripped)
    if not expressions:
        raise CorpusError(f"corpus file {path} contains no expressions")
    return Corpus(path, expressions)


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class InstanceRecord:
    subject: str
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    title: str
    domain: str
    records: tuple
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)


@dataclass(frozen=True)
class SkippedClaim:
    claim_id: str
    reason: str


@dataclass(frozen=True)
class SuiteReport:
    corpus_name: str
    seed: int
    results: tuple
    skipped: tuple
    axiom_records: tuple   # (label, passed, first failing axiom or "")
    notes: tuple
    wall_time: float

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed_count(self) -> int:
        axiom_bad = sum(1 for _, ok, _ in self.axiom_records if not ok)
        return sum(1 for r in self.results if not r.passed) + axiom_bad

    @property
    def all_passed(self) -> bool:
        return self.failed_count == 0


REPORT_NOTES = (
    "C13 checks the negative statement: M(2, R) is never 2-sqrtJU; the matrix with "
    "rows (1,1),(1,0) is verified directly as a failing unit (its square minus 1 is "
    "that same invertible matrix).",
    "C14 compares two candidate descriptions of sqrtJ(TE(R)) -- first components in "
    "sqrtJ(R) vs first components in J(R) -- and records which one the computed set "
    "matches.",
    "C18 reads the hypothesis '2 lies in the Jacobson radical' as 2 in J(R) (the "
    "coefficient ring); C19 reads the unit-square conclusion inside the group ring.",
    "Quantified claims are checked over their stated finite domains; a pass means "
    "no counterexample was found there, not a proof.",
)


# ---------------------------------------------------------------------------
# Claims


def _record(subject: str, problems: list, note: str = "") -> InstanceRecord:
    """Passes iff ``problems`` is empty; the note lists them, else is ``note``."""
    return InstanceRecord(subject, not problems, "; ".join(problems) or note)


def _in_class(rings, records: list, prefix: str = ""):
    """Yield the 2-sqrtJU entries of ``rings``; record the others as passing."""
    for label, ring in rings:
        if is_two_sqrt_ju(ring):
            yield label, ring
        else:
            records.append(InstanceRecord(label, True, f"{prefix}not 2-sqrtJU; nothing to check"))


def _group_ring_parts(corpus: Corpus, text: str, limits: Limits):
    """(R, G) if ``text`` parses to a GR(R, G) term at top level, else
    None; R is looked up in ``corpus`` (:meth:`Corpus.ring`)."""
    try:
        node = parse(text)
    except ParseError:
        return None
    if node.keyword != "GR":
        return None
    return corpus.ring(format_expr(node.args[0]), limits), evaluate_group(node.args[1])


def _claim_c1(corpus, limits):
    """U and sqrtJ disjoint; sqrtJ meets Id only in 0; power-root closure."""
    records = []
    for label, ring in corpus.rings(limits):
        u = units(ring).members
        sj = sqrt_jacobson(ring).members
        idem = idempotents(ring).members
        problems = []
        if u & sj:
            problems.append(f"U and sqrtJ share {sorted(u & sj)[:3]}")
        if (sj & idem) != {0}:
            problems.append(f"sqrtJ and Id share {sorted(sj & idem)[:3]}")
        every = np.arange(ring.order)
        in_sj = member_mask(ring.order, sqrt_jacobson(ring).array)
        powers = [every]
        for _ in range(3):  # x^2, x^3, x^4
            powers.append(ring.mul_arr(powers[-1], every))
        escapes = in_sj[np.stack(powers[1:])] & ~in_sj  # [k - 2, x]
        for x in np.flatnonzero(escapes.any(axis=0)):
            problems.append(f"x={x}: x^{2 + int(np.argmax(escapes[:, x]))} in sqrtJ but x is not")
        records.append(_record(label, problems))
    return "all corpus rings, all elements, powers k in {2,3,4}", records


def _distinct_closures(ring: FiniteRing, walk, orbit, close):
    """Yield (x, close(x)) for each distinct index array close(x) over the
    ascending ``walk``, with its smallest x.  ``orbit(x)`` is x's part of a
    partition of ``walk`` on which ``close`` is constant.  Once x is closed
    its orbit is marked done, so an unmarked x is the smallest element of an
    orbit none of whose elements was walked yet, and an x skipped later has
    a closure already yielded with that orbit's smallest element."""
    done = np.zeros(ring.order, dtype=bool)
    seen = set()
    for x in walk:
        if not done[x]:
            done[orbit(x)] = True
            members = close(x)
            if members.tobytes() not in seen:
                seen.add(members.tobytes())
                yield x, members


def _principal_ideals_in_j(ring: FiniteRing):
    """Distinct ideals generated by single elements of J(R), plus J(R),
    each with its smallest generator, in ascending order of generator.

    One closure per orbit U*z of U(R) acting on J(R) from the left
    (:func:`_distinct_closures`): for a unit u, u*z lies in <z> and
    z = u^-1*(u*z) lies in <u*z>, so <u*z> = <z>."""
    j, us = jacobson(ring), units(ring).array
    ideals = [(z, ElementSet(ring, members)) for z, members in _distinct_closures(
        ring, j.indices(), lambda z: ring.mul_arr(us, z), lambda z: ideal_closure(ring, [z]).array)]
    if j.members not in {ideal.members for _, ideal in ideals}:
        ideals.append((None, j))
    return ideals


def _claim_c2(corpus, limits):
    """2-sqrtJU passes to and lifts from R/I for every ideal I inside J(R)."""
    records = []
    for label, ring in corpus.rings(limits):
        base = is_two_sqrt_ju(ring)
        jm = jacobson(ring).members
        problems = []
        ideals = _principal_ideals_in_j(ring)
        for gen, ideal in ideals:
            if not ideal.members <= jm:
                problems.append(f"ideal({gen}) escapes J(R)")
                break
            q = build.quotient(ring, ideal, limits=limits).ring
            if is_two_sqrt_ju(q) != base:
                problems.append(f"quotient by ideal({gen}) of size {len(ideal)} disagrees: {is_two_sqrt_ju(q)} vs {base}")
                break
        records.append(_record(f"{label} ({len(ideals)} ideals)", problems))
    return "per ring: all principal ideals generated by one element of J(R), plus J(R)", records


def _claim_c3(corpus, limits):
    """2-sqrtJU(R1 x R2) iff both factors are 2-sqrtJU."""
    records = []
    pairs = 0
    rings = corpus.rings(limits)
    for i, (l1, r1) in enumerate(rings):
        for l2, r2 in rings[i:]:
            if r1.order * r2.order > PRODUCT_PAIR_CAP:
                continue
            pairs += 1
            prod = build.product(r1, r2, limits=limits)
            lhs = is_two_sqrt_ju(prod)
            rhs = is_two_sqrt_ju(r1) and is_two_sqrt_ju(r2)
            if lhs != rhs:
                records.append(_record(f"{l1} x {l2}", [
                    f"product verdict {lhs}, factor verdicts {is_two_sqrt_ju(r1)}/{is_two_sqrt_ju(r2)}"]))
    records.append(InstanceRecord(f"{pairs} corpus pairs agreed", True))
    return f"unordered corpus pairs with |R1|*|R2| <= {PRODUCT_PAIR_CAP}", records


def _claim_c4(corpus, limits):
    """A 2-sqrtJU ring passes to every corner eRe."""
    records = []
    for label, ring in _in_class(corpus.rings(limits), records):
        problems = []
        es = [e for e in idempotents(ring).indices() if e != 0]
        for e in es:
            sub = build.corner(ring, e, limits=limits)
            if not is_two_sqrt_ju(sub.ring):
                problems.append(f"corner at e={e} (order {sub.ring.order}) is not 2-sqrtJU")
                break
        records.append(_record(f"{label} ({len(es)} corners)", problems))
    return "nonzero idempotents of every 2-sqrtJU corpus ring", records


def _single_generator_subrings(ring: FiniteRing, limits: Limits = DEFAULT_LIMITS):
    """Yield (x, subring generated by 1 and x) for each distinct such
    subring, with its smallest x, in ascending order of x.

    One closure per coset x + Z*1 of the prime subring
    (:func:`_distinct_closures`): the subring holding 1 and x holds
    x + k*1 and back, so {1, x} and {1, x + k*1} generate the same
    subring.  Each new subring is built on the member array just
    computed."""
    prime = closure(ring, [ring.one], ideal=False)
    for x, members in _distinct_closures(ring, range(ring.order), lambda x: ring.add_arr(x, prime),
                                         lambda x: closure(ring, [ring.one, x], ideal=False)):
        yield x, build._inherited_subring(ring, members, ring.one, f"subring({x}) of {ring.label}",
                                          limits)


def _claim_c5(corpus, limits):
    """Unit-closed subrings of a 2-sqrtJU ring are 2-sqrtJU, over the
    subrings generated by 1 and one x (:func:`_single_generator_subrings`)."""
    records = []
    for label, ring in _in_class(corpus.rings(limits), records):
        problems = []
        tested = 0
        for x, sub in _single_generator_subrings(ring, limits):
            if not is_unit_closed_subring(sub):
                continue
            tested += 1
            if not is_two_sqrt_ju(sub.ring):
                problems.append(f"unit-closed subring generated by {x} (order {sub.ring.order}) fails")
                break
        records.append(_record(f"{label} ({tested} unit-closed subrings)", problems))
    return "single-generator subrings of every 2-sqrtJU corpus ring that are unit-closed", records


def _claim_c6(corpus, limits):
    """A division ring is 2-sqrtJU exactly when it has 2 or 3 elements."""
    records = []
    extras = [(text, corpus.ring(text, limits)) for text in
              ("GF(2, 1)", "GF(3, 1)", "GF(2, 2)", "GF(5, 1)", "GF(7, 1)", "GF(3, 2)")]
    for label, ring in corpus.rings(limits) + extras:
        if not is_division(ring):
            continue
        ok = is_two_sqrt_ju(ring) == (ring.order in (2, 3))
        records.append(_record(f"{label} (order {ring.order})",
                               [] if ok else [f"verdict {is_two_sqrt_ju(ring)} breaks the order-2-or-3 law"]))
    return "division rings among the corpus plus GF(2), GF(3), GF(4), GF(5), GF(7), GF(9)", records


def _claim_c7(corpus, limits):
    """A local ring is 2-sqrtJU exactly when |R/J(R)| is 2 or 3."""
    records = []
    for label, ring in corpus.rings(limits):
        if not is_local(ring):
            continue
        m = ring.order // len(jacobson(ring))  # |R/J(R)|
        ok = is_two_sqrt_ju(ring) == (m in (2, 3))
        records.append(_record(f"{label} (|R/J| = {m})",
                               [] if ok else [f"verdict {is_two_sqrt_ju(ring)} breaks the residue-order law"]))
    return "local rings in the corpus", records


def _claim_c8(corpus, limits):
    """Products of finite fields are 2-sqrtJU iff every factor is F2 or F3."""
    fields = [corpus.ring(text, limits) for text in ("GF(2, 1)", "GF(3, 1)", "GF(2, 2)", "GF(5, 1)")]
    records = []
    built = {}  # combo -> its product, built on the product of combo[:-1]
    for size in (1, 2, 3):
        for combo in combinations_with_replacement(fields, size):
            ring = built[combo] = (combo[0] if size == 1 else
                                   build.product(built[combo[:-1]], combo[-1], limits=limits))
            expected = all(f.order in (2, 3) for f in combo)
            ok = is_two_sqrt_ju(ring) == expected
            label = " x ".join(f.label for f in combo)
            records.append(_record(label, [] if ok else [f"verdict {is_two_sqrt_ju(ring)}, expected {expected}"]))
    return "products of up to three factors from {F2, F3, F4, F5}", records


def _claim_c9(corpus, limits):
    """sqrtJU holds iff the ring is 2-sqrtJU and 2 lies in J(R)."""
    records = []
    for label, ring in corpus.rings(limits):
        two = ring.add(ring.one, ring.one)
        lhs = check_unit_class(ring, 1, "sqrtJ")[0]
        rhs = is_two_sqrt_ju(ring) and two in jacobson(ring).members
        records.append(_record(label, [] if lhs == rhs else [f"sqrtJU={lhs} but 2-sqrtJU&2inJ={rhs}"]))
    return "all corpus rings", records


def _claim_c10(corpus, limits):
    """2-sqrtJU transfers between R and R[x]/(x^p) for p in {2, 3}."""
    records = []
    for n in (2, 3, 4, 5, 6, 9):
        base = is_two_sqrt_ju(corpus.ring(f"Z/{n}", limits))
        for p in (2, 3):
            text = f"NIL(Z/{n}, {p})"
            ext = is_two_sqrt_ju(corpus.ring(text, limits))
            records.append(_record(text, [] if base == ext else [f"base {base} vs extension {ext}"]))
    return "bases Z/n for n in {2,3,4,5,6,9} with n^p <= 729, p in {2,3}", records


def _claim_c11(corpus, limits):
    """In a 2-sqrtJU ring no unit pair satisfies u^2 + v = 1.

    For a unit u only v = 1 - u^2 solves u^2 + v = 1, so each u is tested
    once, by whether 1 - u^2 is a unit; the first such u is the first
    failing pair in row-major order."""
    records = []
    for label, ring in _in_class(corpus.rings(limits), records):
        problems = []
        us = units(ring).array
        vs = ring.add_arr(ring.one, ring.neg_arr(squares(ring)[us]))
        hit = member_mask(ring.order, us)[vs]
        if hit.any():
            i = int(np.argmax(hit))
            problems.append(f"u={us[i]}, v={vs[i]} gives u^2 + v = 1")
        records.append(_record(f"{label} ({len(us)}^2 unit pairs)", problems))
    return "all unit pairs of every 2-sqrtJU corpus ring", records


def _claim_c12(corpus, limits):
    """Central sqrtJ elements already lie in J."""
    records = []
    for label, ring in corpus.rings(limits):
        escaped = (sqrt_jacobson(ring).members & center(ring).members) - jacobson(ring).members
        records.append(_record(label, [f"central sqrtJ elements outside J: {sorted(escaped)[:3]}"] if escaped else []))
    return "all corpus rings", records


def _claim_c13(corpus, limits):
    """M(2, R) is never 2-sqrtJU; the witness matrix (1,1;1,0) fails."""
    records = []
    for n in (2, 3, 4):
        text = f"M(2, Z/{n})"
        ring = corpus.ring(text, limits)
        # rows (1,1),(1,0): coordinates (1,1,1,0), entry (0,0) least significant
        w = 1 + n + n * n
        problems = []
        verdict, reported = check_unit_class(ring, 2, "sqrtJ")
        if verdict:
            problems.append("predicate unexpectedly true")
        if w not in units(ring).members:
            problems.append(f"witness {w} is not a unit")
        elif ring.sub(ring.mul(w, w), ring.one) in sqrt_jacobson(ring).members:
            problems.append(f"witness {w} does not fail the unit-square condition")
        if reported is not None:
            t = ring.sub(ring.mul(reported, reported), ring.one)
            if reported not in units(ring).members or t in sqrt_jacobson(ring).members:
                problems.append(f"reported witness {reported} is not a valid counterexample")
        records.append(_record(f"{text} [witness index {w}]", problems))
    return "M(2, Z/n) for n in {2, 3, 4}", records


def _te_set(base_members, q: int) -> frozenset:
    return frozenset(z * q + m for z in base_members for m in range(q))


def _claim_c14(corpus, limits):
    """TE(R) is 2-sqrtJU iff R is; displayed U/J set formulas; sqrtJ reading."""
    records = []
    for text in ("Z/2", "Z/3", "Z/4", "Z/5", "Z/9", "M(2, Z/2)"):
        base = corpus.ring(text, limits)
        te = corpus.ring(f"TE({text})", limits)
        q = base.order
        problems = []
        if is_two_sqrt_ju(base) != is_two_sqrt_ju(te):
            problems.append(f"iff fails: base {is_two_sqrt_ju(base)}, TE {is_two_sqrt_ju(te)}")
        if units(te).members != _te_set(units(base).members, q):
            problems.append("U(TE) does not match {(u, m): u in U(R)}")
        if jacobson(te).members != _te_set(jacobson(base).members, q):
            problems.append("J(TE) does not match {(j, m): j in J(R)}")
        computed = sqrt_jacobson(te).members
        reading_a = computed == _te_set(sqrt_jacobson(base).members, q)
        reading_b = computed == _te_set(jacobson(base).members, q)
        if not (reading_a or reading_b):
            problems.append("sqrtJ(TE) matches neither candidate description")
        if reading_a and reading_b:
            note = "sqrtJ reading: both candidates coincide (sqrtJ(R) = J(R) here)"
        elif reading_a:
            note = "sqrtJ reading: first components in sqrtJ(R); the J(R) reading fails here"
        else:
            note = "sqrtJ reading: first components in J(R); the sqrtJ(R) reading fails here"
        records.append(_record(f"TE({text})", problems, note))
    return "bases Z/2, Z/3, Z/4, Z/5, Z/9 and M(2, Z/2) (the readings differ only on the last)", records


def _claim_c15(corpus, limits):
    """If UT(n, R) is 2-sqrtJU then so is R."""
    records = []
    for m, n in ((2, 2), (2, 4), (3, 2), (2, 5)):
        text = f"UT({m}, Z/{n})"
        up = is_two_sqrt_ju(corpus.ring(text, limits))
        bp = is_two_sqrt_ju(corpus.ring(f"Z/{n}", limits))
        ok = (not up) or bp
        records.append(InstanceRecord(
            text, ok, f"UT {up}, base {bp}" if not ok else f"UT verdict {up}, base verdict {bp}"))
    return "UT(2, Z/2), UT(2, Z/4), UT(3, Z/2), UT(2, Z/5)", records


def _digit_reversal(s, q: int):
    """The base-q digits of s (an int or an index array) in reverse."""
    d0 = s % q
    d1 = (s // q) % q
    d2 = (s // q ** 2) % q
    d3 = s // q ** 3
    return d0 * q ** 3 + d1 * q ** 2 + d2 * q + d3


def _first_non_homomorphic_pair(src: FiniteRing, tgt: FiniteRing, d: np.ndarray) -> str | None:
    """The first pair (a, b) in row-major order at which the map
    a -> d[a] fails to carry src's addition or multiplication to tgt's,
    worded "not additive" when addition fails there and "not
    multiplicative" otherwise; None if there is none."""
    def not_additive(a, b):
        return d[src.add_arr(a, b)] != tgt.add_arr(d[a], d[b])

    every = np.arange(src.order)
    pair = first_failure(lambda a, b: not_additive(a, b) | (d[src.mul_arr(a, b)] != tgt.mul_arr(d[a], d[b])),
                         every, every)
    return pair and f"not {'additive' if not_additive(*pair) else 'multiplicative'} at {pair}"


def _claim_c16(corpus, limits):
    """BT(R) is 2-sqrtJU iff R is; R[x,y]/(x^2,y^2) is isomorphic to BT(R)."""
    records = []
    for n in (2, 3, 5):
        base = is_two_sqrt_ju(corpus.ring(f"Z/{n}", limits))
        ext = is_two_sqrt_ju(corpus.ring(f"BT(Z/{n})", limits))
        records.append(_record(f"BT(Z/{n}) iff", [] if base == ext else [f"base {base} vs BT {ext}"]))
    for n in (2, 3):
        src = corpus.ring(f"NIL(NIL(Z/{n}, 2), 2)", limits)
        tgt = corpus.ring(f"BT(Z/{n})", limits)
        problems = []
        d = _digit_reversal(np.arange(src.order), n)
        if not np.array_equal(np.sort(d), np.arange(tgt.order)):
            problems.append("coordinate map is not a bijection")
        if d[src.one] != tgt.one:
            problems.append("coordinate map does not preserve 1")
        bad = _first_non_homomorphic_pair(src, tgt, d)
        if bad:
            problems.append(bad)
        records.append(_record(f"Z/{n}[x,y]/(x^2,y^2) -> BT(Z/{n}) ({src.order}^2 pairs)", problems))
    return "iff over bases Z/2, Z/3, Z/5; exhaustive isomorphism check over Z/2, Z/3", records


def _claim_c17(corpus, limits):
    """2-sqrtJU group rings force the coefficient ring and all RH, H <= G."""
    records = []
    rings = corpus.rings(limits)
    parts = {label: _group_ring_parts(corpus, label, limits) for label, _ in rings}
    for label, rg in _in_class([(l, r) for l, r in rings if parts[l]], records, "RG "):
        base, group = parts[label]
        problems = []
        if not is_two_sqrt_ju(base):
            problems.append("coefficient ring fails")
        subgroups = cyclic_subgroups(group)
        for sub in subgroups:
            # H = G is relabelled on its sorted members, the identity, so RH is RG
            rh = rg if sub.order == group.order else build.group_ring(base, sub, limits=limits)
            if not is_two_sqrt_ju(rh):
                problems.append(f"R[{sub.label}] (order {rh.order}) fails")
                break
        records.append(_record(f"{label} (+{len(subgroups)} subgroups)", problems))
    return "corpus group rings; subgroups realized as cyclic subgroups plus G itself", records


def _claim_c18(corpus, limits):
    """2 in J(R) and G not a 2-group force RG out of the class."""
    records = []
    for text in ("GR(Z/4, C3)", "GR(Z/2, C3)", "GR(Z/2, S3)"):
        base, group = _group_ring_parts(corpus, text, limits)
        two = base.add(base.one, base.one)
        problems = []
        if two not in jacobson(base).members:
            problems.append("hypothesis 2 in J(R) does not hold for this instance")
        if group.is_two_group():
            problems.append(f"{group.label} is a 2-group; bad instance")
        rg = corpus.ring(text, limits)
        if is_two_sqrt_ju(rg):
            problems.append(f"{rg.label} is 2-sqrtJU despite the hypotheses")
        records.append(_record(text, problems))
    return "GR(Z/4, C3), GR(Z/2, C3), GR(Z/2, S3)", records


def _claim_c19(corpus, limits):
    """R 2-sqrtJU, 3 in J(R), G a finite 2-group: RG is 2-sqrtJU."""
    records = []
    cap = min(limits.max_order, ANALYSIS_ORDER_CAP)
    for text in ("GR(Z/9, C2)", "GR(Z/3, C2)", "GR(Z/3, C2xC2)", "GR(Z/9, C2xC2)"):
        base, group = _group_ring_parts(corpus, text, limits)
        order = base.order ** group.order
        if order > cap:
            records.append(InstanceRecord(
                text, True, f"instance skipped: order {order} exceeds the analysis cap {cap}"))
            continue
        three = base.add(base.add(base.one, base.one), base.one)
        problems = []
        if not is_two_sqrt_ju(base):
            problems.append("hypothesis: base is not 2-sqrtJU")
        if three not in jacobson(base).members:
            problems.append("hypothesis: 3 not in J(R)")
        if not group.is_two_group():
            problems.append(f"hypothesis: {group.label} is not a 2-group")
        rg = corpus.ring(text, limits)
        if not is_two_sqrt_ju(rg):
            problems.append(f"{rg.label} is not 2-sqrtJU")
        records.append(_record(text, problems))
    return "GR(Z/9, C2), GR(Z/3, C2), GR(Z/3, C2xC2); GR(Z/9, C2xC2) when within caps", records


CLAIMS = {
    "C1": ("sqrt-basic", _claim_c1),
    "C2": ("quotient-iff", _claim_c2),
    "C3": ("product-iff", _claim_c3),
    "C4": ("corner", _claim_c4),
    "C5": ("unit-closed-subring", _claim_c5),
    "C6": ("division-char", _claim_c6),
    "C7": ("local-char", _claim_c7),
    "C8": ("semisimple-char", _claim_c8),
    "C9": ("sqrtju-iff", _claim_c9),
    "C10": ("nilext-iff", _claim_c10),
    "C11": ("unit-square-sum", _claim_c11),
    "C12": ("central-sqrtj", _claim_c12),
    "C13": ("matrix-never", _claim_c13),
    "C14": ("te-iff", _claim_c14),
    "C15": ("tri-implies", _claim_c15),
    "C16": ("bt-iff", _claim_c16),
    "C17": ("groupring-implies", _claim_c17),
    "C18": ("two-group", _claim_c18),
    "C19": ("locally-finite-2group", _claim_c19),
}

SKIPPED_CLAIMS = (
    SkippedClaim("C-powerseries", "power series rings are infinite; the finite shadow "
                                  "R[x]/(x^p) is exercised by C10"),
    SkippedClaim("C-torsion", "every finite group is torsion, so no finite instance can "
                              "falsify the torsion statement"),
)


def _check_claim_ids(claim_ids) -> None:
    for cid in claim_ids:
        if cid not in CLAIMS:
            raise CorpusError(f"unknown claim id {cid!r}; known: {', '.join(CLAIMS)}")


def run_claim(claim_id: str, corpus: Corpus, limits: Limits = DEFAULT_LIMITS) -> ClaimResult:
    _check_claim_ids([claim_id])
    title, fn = CLAIMS[claim_id]
    corpus.rings(limits)  # built before the clock starts
    start = time.perf_counter()
    domain, records = fn(corpus, limits)
    return ClaimResult(claim_id, title, domain, tuple(records), time.perf_counter() - start)


def run_suite(
    corpus: Corpus | None = None,
    claim_ids=None,
    limits: Limits = DEFAULT_LIMITS,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """Run all (or the filtered) claims plus an axiom pre-flight.

    The pre-flight runs verify_axioms on every corpus ring (exhaustive
    ternary checks up to order 1024, seeded sampling above); failures are
    counted like claim failures, and claims are not evaluated over a
    corpus that failed the pre-flight (structural analysis of a non-ring
    would only report nonsense or trip consistency errors).
    """
    corpus = corpus or default_corpus()
    claim_ids = list(CLAIMS if claim_ids is None else claim_ids)
    _check_claim_ids(claim_ids)
    selected = [cid for cid in CLAIMS if cid in claim_ids]  # in id order, each once
    start = time.perf_counter()
    rings = corpus.rings(limits)
    axiom_records = []
    for label, ring in rings:
        report = verify_axioms(ring, seed=seed)
        first_bad = "" if report.passed else report.failures()[0].name + f" (witness {report.failures()[0].witness})"
        axiom_records.append((label, report.passed, first_bad))
    if all(ok for _, ok, _ in axiom_records):
        results = [run_claim(cid, corpus, limits) for cid in selected]
    else:
        results = []
    return SuiteReport(
        corpus_name=corpus.name,
        seed=seed,
        results=tuple(results),
        skipped=SKIPPED_CLAIMS,
        axiom_records=tuple(axiom_records),
        notes=REPORT_NOTES,
        wall_time=time.perf_counter() - start,
    )

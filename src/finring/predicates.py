"""Ring-class membership predicates with deterministic witnesses.

The six unit-condition classes are one operation evaluated at six
(power, target) pairs: a ring is in the class when u^power - 1 lands in
the target set for every unit u.

    UU        power 1, target N(R)
    UJ        power 1, target J(R)
    2-UU      power 2, target N(R)
    2-UJ      power 2, target J(R)
    sqrtJU    power 1, target sqrtJ(R)
    2-sqrtJU  power 2, target sqrtJ(R)

A false verdict carries the smallest failing unit as witness.  The
remaining predicates are structural: division (every nonzero element a
unit), local (R/J(R) a division ring, decided as |U| + |J| = |R|
without building the quotient), semisimple (J(R) = 0; finite rings are
Artinian so this is the right reading), and Dedekind-finite (ab = 1
forces ba = 1; always true on finite rings, kept as a sanity oracle for
the unit machinery).  Dedekind-finiteness follows from the units scan
with no pass of its own: the scan confirms y*a = 1 for the y it finds
with a*y = 1, and if a*b = 1 then b = (y*a)*b = y*(a*b) = y, so b*a = 1.
A scan that finds a one-sided inverse raises InternalConsistencyError
instead of returning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import jacobson, nilpotents, sqrt_jacobson, squares, units
from .core import ArgumentError, FiniteRing, member_mask

_TARGET_SETS = {"N": nilpotents, "J": jacobson, "sqrtJ": sqrt_jacobson}

UNIT_CLASSES = {
    "UU": (1, "N"),
    "UJ": (1, "J"),
    "2-UU": (2, "N"),
    "2-UJ": (2, "J"),
    "sqrtJU": (1, "sqrtJ"),
    "2-sqrtJU": (2, "sqrtJ"),
}

CLASS_NAMES = list(UNIT_CLASSES) + ["division", "local", "semisimple", "dedekind-finite"]

# class name -> key used in CLI JSON output
JSON_KEYS = {
    "UU": "UU", "UJ": "UJ", "2-UU": "2UU", "2-UJ": "2UJ",
    "sqrtJU": "sqrtJU", "2-sqrtJU": "2sqrtJU",
    "division": "division", "local": "local", "semisimple": "semisimple",
    "dedekind-finite": "dedekindFinite",
}


def check_unit_class(ring: FiniteRing, power: int, target: str):
    """(verdict, witness): verdict is True iff u^power - 1 lies in the
    target set for every unit u; witness is the smallest failing unit."""
    if power not in (1, 2):
        raise ArgumentError(f"unit-class power must be 1 or 2, got {power}")
    if target not in _TARGET_SETS:
        raise ArgumentError(f"unknown target set {target!r}; expected one of {tuple(_TARGET_SETS)}")

    def compute():
        tmask = member_mask(ring.order, _TARGET_SETS[target](ring).array)
        us = units(ring).array
        ws = us if power == 1 else squares(ring)[us]
        failing = us[~tmask[ring.add_arr(ws, ring.neg(ring.one))]]
        return (False, int(failing[0])) if len(failing) else (True, None)

    return ring.cached(f"unit-class:{power}:{target}", compute)


def is_two_sqrt_ju(ring: FiniteRing) -> bool:
    """Squares of units land in 1 + sqrtJ(R)."""
    return check_unit_class(ring, 2, "sqrtJ")[0]


def is_division(ring: FiniteRing) -> bool:
    return len(units(ring)) == ring.order - 1


def is_local(ring: FiniteRing) -> bool:
    """R/J(R) is a division ring.  Units are exactly the lifts of units
    of R/J(R), so |U(R)| = |U(R/J)| * |J|, and R/J is a division ring iff
    |U(R)| = (|R/J| - 1) * |J|, that is |U| + |J| = |R|."""
    return len(units(ring)) + len(jacobson(ring)) == ring.order


def is_semisimple(ring: FiniteRing) -> bool:
    return len(jacobson(ring)) == 1


def is_dedekind_finite(ring: FiniteRing) -> bool:
    """Every pair with a*b = 1 also has b*a = 1: true once the units
    scan succeeds (see the module docstring)."""
    units(ring)
    return True


@dataclass(frozen=True)
class ClassReport:
    """Verdicts for every ring class, with witnesses for failing
    unit-condition classes (the smallest failing unit)."""

    ring_label: str
    order: int
    verdicts: dict
    witnesses: dict

    def to_json(self) -> dict:
        return {
            "predicates": {JSON_KEYS[name]: self.verdicts[name] for name in CLASS_NAMES},
            "witnesses": {JSON_KEYS[name]: w for name, w in self.witnesses.items()},
        }


def classify(ring: FiniteRing) -> ClassReport:
    verdicts = {}
    witnesses = {}
    for name, (power, target) in UNIT_CLASSES.items():
        ok, witness = check_unit_class(ring, power, target)
        verdicts[name] = ok
        if witness is not None:
            witnesses[name] = witness
    verdicts["division"] = is_division(ring)
    verdicts["local"] = is_local(ring)
    verdicts["semisimple"] = is_semisimple(ring)
    verdicts["dedekind-finite"] = is_dedekind_finite(ring)
    return ClassReport(ring.label, ring.order, verdicts, witnesses)

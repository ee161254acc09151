"""Finite unital rings on integer element indices.

A ring of order n lives on the indices 0..n-1, with 0 the additive
identity and a designated index ``one`` (never 0) the multiplicative
identity.  Structured constructions either materialize full n x n
numpy operation tables ("table" mode) or keep scalar callables that
compute operations on demand from construction data ("lazy" mode).
The two modes must return identical values on every index pair; the
test suite compares them.

Nothing here checks the ring axioms on construction -- that is what
:func:`verify_axioms` is for (exhaustive up to a cutoff, seeded random
sampling above it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

DEFAULT_MAX_ORDER = 10_000
DEFAULT_TABLE_THRESHOLD = 1024
EXHAUSTIVE_AXIOM_CUTOFF = 256
AXIOM_SAMPLE_COUNT = 100_000
# Triples per block of an exhaustive table-mode ternary axiom check.
AXIOM_BLOCK_ELEMENTS = 1 << 20
# Fixed seed for sampled axiom checks, "R1NG" read as a big-endian int.
DEFAULT_SEED = int.from_bytes(b"R1NG", "big")


class ArgumentError(ValueError):
    """A malformed argument to a ring operation or construction."""


class LimitError(ValueError):
    """A construction exceeds a configured size limit."""


class InternalConsistencyError(RuntimeError):
    """A computed structural fact contradicts finite ring theory.

    Raised loudly instead of being smoothed over: it always signals a
    bug in a table or an analysis routine, never bad user input.
    """


@dataclass(frozen=True)
class Limits:
    """Size limits threaded through constructions and the CLI."""

    max_order: int = DEFAULT_MAX_ORDER
    table_threshold: int = DEFAULT_TABLE_THRESHOLD
    group_max: int = 64

    def check_order(self, order: int, label: str) -> None:
        if order > self.max_order:
            raise LimitError(
                f"{label}: order {order} exceeds the limit {self.max_order}"
            )


DEFAULT_LIMITS = Limits()


def _freeze(table) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
    arr.setflags(write=False)
    return arr


class FiniteRing:
    """A finite unital ring with elements 0..order-1.

    ``add_table``/``mul_table``/``neg_table`` are numpy int32 arrays in
    table mode and None in lazy mode; row r, column c holds op(r, c).
    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(
        self,
        order: int,
        one: int,
        label: str,
        *,
        add_table=None,
        mul_table=None,
        neg_table=None,
        add_fn: Callable[[int, int], int] | None = None,
        mul_fn: Callable[[int, int], int] | None = None,
        neg_fn: Callable[[int], int] | None = None,
    ):
        if order < 2:
            raise ArgumentError(f"ring order must be >= 2, got {order}")
        if not 0 < one < order:
            raise ArgumentError(f"one must be a nonzero index below {order}, got {one}")
        self.order = order
        self.zero = 0
        self.one = one
        self.label = label
        if add_table is not None:
            self.add_table = _freeze(add_table)
            self.mul_table = _freeze(mul_table)
            if neg_table is None:
                neg_table = np.argmax(self.add_table == 0, axis=1)
            self.neg_table = _freeze(neg_table)
            self.mode = "table"
            self._add_fn = None
            self._mul_fn = None
            self._neg_fn = None
            if self.add_table.shape != (order, order) or self.mul_table.shape != (order, order):
                raise ArgumentError("operation tables must be order x order")
        else:
            if add_fn is None or mul_fn is None or neg_fn is None:
                raise ArgumentError("lazy ring needs add_fn, mul_fn and neg_fn")
            self.add_table = None
            self.mul_table = None
            self.neg_table = None
            self.mode = "lazy"
            self._add_fn = add_fn
            self._mul_fn = mul_fn
            self._neg_fn = neg_fn
        self._analysis_lock = threading.RLock()
        self._analysis_cache: dict = {}

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, order={self.order}, mode={self.mode})"

    def _check_index(self, x: int) -> None:
        if not 0 <= x < self.order:
            raise ArgumentError(f"element index {x} out of range for {self.label} (order {self.order})")

    def elements(self) -> range:
        return range(self.order)

    def add(self, x: int, y: int) -> int:
        self._check_index(x)
        self._check_index(y)
        if self.add_table is not None:
            return int(self.add_table[x, y])
        return self._add_fn(x, y)

    def mul(self, x: int, y: int) -> int:
        self._check_index(x)
        self._check_index(y)
        if self.mul_table is not None:
            return int(self.mul_table[x, y])
        return self._mul_fn(x, y)

    def neg(self, x: int) -> int:
        self._check_index(x)
        if self.neg_table is not None:
            return int(self.neg_table[x])
        return self._neg_fn(x)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def pow(self, x: int, k: int) -> int:
        """x multiplied by itself k times, k >= 1 (x^0 is deliberately undefined)."""
        self._check_index(x)
        if k < 1:
            raise ArgumentError(f"pow exponent must be >= 1, got {k}")
        acc = None
        base = x
        while k:
            if k & 1:
                acc = base if acc is None else self.mul(acc, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return acc

    def power_orbit(self, x: int) -> list[int]:
        """Distinct values x, x^2, x^3, ... in order of first appearance.

        Stops at the first repeat; the successor of the last entry is
        therefore already in the list.  Length <= order.
        """
        self._check_index(x)
        seen = set()
        orbit = []
        cur = x
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = self.mul(cur, x)
        return orbit

    def characteristic(self) -> int:
        """Smallest k >= 1 with k * 1 = 0."""
        k = 1
        cur = self.one
        while cur != 0:
            cur = self.add(cur, self.one)
            k += 1
        return k

    def relabel(self, label: str) -> "FiniteRing":
        """A copy of this ring carrying a different display label."""
        if self.mode == "table":
            return FiniteRing(
                self.order, self.one, label,
                add_table=self.add_table, mul_table=self.mul_table, neg_table=self.neg_table,
            )
        return FiniteRing(
            self.order, self.one, label,
            add_fn=self._add_fn, mul_fn=self._mul_fn, neg_fn=self._neg_fn,
        )


@dataclass(frozen=True)
class ElementSet:
    """A subset of a ring's element indices with O(1) membership."""

    ring: FiniteRing
    members: frozenset

    def __post_init__(self):
        bad = [x for x in self.members if not 0 <= x < self.ring.order]
        if bad:
            raise ArgumentError(f"indices {sorted(bad)} out of range for {self.ring.label}")

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __len__(self) -> int:
        return len(self.members)

    def indices(self) -> list[int]:
        """Sorted member indices (the external report form)."""
        return sorted(self.members)


def element_set(ring: FiniteRing, members) -> ElementSet:
    return ElementSet(ring, frozenset(int(x) for x in members))


# ---------------------------------------------------------------------------
# Axiom verification


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: tuple | None
    checked: int
    policy: str  # "exhaustive" | "sampled"


@dataclass(frozen=True)
class AxiomReport:
    ring_label: str
    order: int
    seed: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


def _first_false(mask: np.ndarray) -> tuple | None:
    idx = np.argwhere(~mask)
    if len(idx) == 0:
        return None
    return tuple(int(v) for v in idx[0])


def _blocked_ternary_checks(ring: FiniteRing) -> list[AxiomCheck]:
    """Exhaustive associativity and distributivity of a table ring, by
    blocks of x rows (see :func:`verify_axioms`).

    Blocks run in ascending x and a check stops at its first failing
    block, whose first failing entry is therefore the lexicographically
    first failing triple.
    """
    n = ring.order
    ADD, MUL = ring.add_table.astype(np.intp), ring.mul_table.astype(np.intp)
    small = np.min_scalar_type(n - 1)
    add_v, mul_v = ADD.astype(small), MUL.astype(small)
    add_flat = add_v.ravel()
    rows = max(1, AXIOM_BLOCK_ELEMENTS // (n * n))
    # Each entry maps a row slice s to both sides at [x - s.start, y, z].
    sides = {
        "add-associative": lambda s: (add_v[ADD[s]], add_v[s][:, ADD]),
        "mul-associative": lambda s: (mul_v[MUL[s]], mul_v[s][:, MUL]),
        "left-distributive": lambda s: (mul_v[s][:, ADD],
                                        add_flat[MUL[s, :, None] * n + MUL[s, None, :]]),
        "right-distributive": lambda s: (mul_v[ADD[s]],
                                         add_flat[MUL[s, None, :] * n + MUL[None, :, :]]),
    }
    checks = []
    for name, block in sides.items():
        witness = None
        for start in range(0, n, rows):
            lhs, rhs = block(slice(start, start + rows))
            differ = lhs != rhs
            if differ.any():
                x, y, z = np.unravel_index(int(np.argmax(differ)), differ.shape)
                witness = (start + int(x), int(y), int(z))
                break
        checks.append(AxiomCheck(name, witness is None, witness, n ** 3, "exhaustive"))
    return checks


def verify_axioms(
    ring: FiniteRing,
    *,
    exhaustive_cutoff: int = EXHAUSTIVE_AXIOM_CUTOFF,
    samples: int = AXIOM_SAMPLE_COUNT,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    """Check the ring axioms; failures are reported, never raised.

    Unary and binary axioms are always exhaustive.  The ternary axioms
    (associativity, distributivity) are exhaustive for order <=
    ``exhaustive_cutoff`` and otherwise checked on ``samples`` seeded
    pseudo-random triples.  In table mode the exhaustive ternary checks
    run over blocks of x rows, each block holding all (y, z), in the
    narrowest unsigned dtype that holds n - 1: memory stays near
    ``AXIOM_BLOCK_ELEMENTS`` triples per side (a few MB) rather than four
    int32 n^3 cubes, and a check stops at its first failing block.  Every
    check reports the lexicographically first failing tuple as its
    witness.  Exhaustive lazy-mode checks on large rings are correct but
    slow; they exist for spot checks, not hot paths.  A negative
    ``seed`` raises :class:`ArgumentError`.
    """
    if seed < 0:
        raise ArgumentError(f"axiom seed must be >= 0, got {seed}")
    n = ring.order
    checks = []

    if ring.mode == "table":
        ADD, MUL, NEG = ring.add_table, ring.mul_table, ring.neg_table
        idx = np.arange(n)

        def binary(name, mask):
            checks.append(AxiomCheck(name, bool(mask.all()), _first_false(mask), mask.size, "exhaustive"))

        binary("add-commutative", ADD == ADD.T)
        binary("zero-is-additive-identity", (ADD[0] == idx) & (ADD[:, 0] == idx))
        binary("additive-inverse", ADD[idx, NEG] == 0)
        binary("one-is-identity", (MUL[ring.one] == idx) & (MUL[:, ring.one] == idx))
        checks.append(AxiomCheck("one-differs-from-zero", ring.one != 0, None, 1, "exhaustive"))

        if n <= exhaustive_cutoff:
            checks.extend(_blocked_ternary_checks(ring))
        else:
            rng = np.random.default_rng(seed)
            xs, ys, zs = (rng.integers(0, n, size=samples) for _ in range(3))

            def ternary(name, lhs, rhs):
                mask = lhs == rhs
                if bool(mask.all()):
                    checks.append(AxiomCheck(name, True, None, samples, "sampled"))
                else:
                    i = int(np.argmax(~mask))
                    checks.append(AxiomCheck(name, False, (int(xs[i]), int(ys[i]), int(zs[i])), samples, "sampled"))

            ternary("add-associative", ADD[ADD[xs, ys], zs], ADD[xs, ADD[ys, zs]])
            ternary("mul-associative", MUL[MUL[xs, ys], zs], MUL[xs, MUL[ys, zs]])
            ternary("left-distributive", MUL[xs, ADD[ys, zs]], ADD[MUL[xs, ys], MUL[xs, zs]])
            ternary("right-distributive", MUL[ADD[xs, ys], zs], ADD[MUL[xs, zs], MUL[ys, zs]])
    else:
        add, mul, neg = ring.add, ring.mul, ring.neg

        def scan_binary(name, pred):
            for x in range(n):
                for y in range(n):
                    if not pred(x, y):
                        checks.append(AxiomCheck(name, False, (x, y), n * n, "exhaustive"))
                        return
            checks.append(AxiomCheck(name, True, None, n * n, "exhaustive"))

        def scan_unary(name, pred):
            bad = next((x for x in range(n) if not pred(x)), None)
            checks.append(AxiomCheck(name, bad is None, None if bad is None else (bad,),
                                     n, "exhaustive"))

        scan_binary("add-commutative", lambda x, y: add(x, y) == add(y, x))
        scan_unary("zero-is-additive-identity", lambda x: add(0, x) == x and add(x, 0) == x)
        scan_unary("additive-inverse", lambda x: add(x, neg(x)) == 0)
        scan_unary("one-is-identity", lambda x: mul(ring.one, x) == x and mul(x, ring.one) == x)
        checks.append(AxiomCheck("one-differs-from-zero", ring.one != 0, None, 1, "exhaustive"))

        if n <= exhaustive_cutoff:
            def triples():
                return ((x, y, z) for x in range(n) for y in range(n) for z in range(n))
            count, policy = n ** 3, "exhaustive"
        else:
            sampled = np.random.default_rng(seed).integers(0, n, size=(samples, 3))
            def triples():
                return (tuple(int(v) for v in t) for t in sampled)
            count, policy = samples, "sampled"

        def scan_ternary(name, pred):
            for t in triples():
                if not pred(*t):
                    checks.append(AxiomCheck(name, False, t, count, policy))
                    return
            checks.append(AxiomCheck(name, True, None, count, policy))

        scan_ternary("add-associative", lambda x, y, z: add(add(x, y), z) == add(x, add(y, z)))
        scan_ternary("mul-associative", lambda x, y, z: mul(mul(x, y), z) == mul(x, mul(y, z)))
        scan_ternary("left-distributive", lambda x, y, z: mul(x, add(y, z)) == add(mul(x, y), mul(x, z)))
        scan_ternary("right-distributive", lambda x, y, z: mul(add(x, y), z) == add(mul(x, z), mul(y, z)))

    return AxiomReport(ring.label, n, seed, tuple(checks))


# ---------------------------------------------------------------------------
# Table dump format
#
# line 1: "order n"; line 2: "one i"; then n rows of the addition table,
# a blank line, and n rows of the multiplication table.  Row r, column c
# holds op(r, c).


def dump_tables(ring: FiniteRing) -> str:
    n = ring.order
    lines = [f"order {n}", f"one {ring.one}"]
    for block, op in enumerate((ring.add, ring.mul)):
        if block:
            lines.append("")
        for r in range(n):
            lines.append(" ".join(str(op(r, c)) for c in range(n)))
    return "\n".join(lines) + "\n"


def parse_table_dump(text: str, label: str = "table-ring") -> FiniteRing:
    """Inverse of :func:`dump_tables`; used for raw-table test inputs."""
    raw = text.splitlines()
    if len(raw) < 2 or not raw[0].startswith("order ") or not raw[1].startswith("one "):
        raise ArgumentError("table dump must start with 'order n' and 'one i' lines")
    try:
        n = int(raw[0].split()[1])
        one = int(raw[1].split()[1])
    except (IndexError, ValueError):
        raise ArgumentError(f"malformed table dump header: {raw[0]!r}, {raw[1]!r}") from None
    rows = raw[2:]
    # one blank separator line between the two tables
    expected = 2 * n + 1
    rows = [r for i, r in enumerate(rows) if not (i == n and r.strip() == "")]
    if len(rows) < 2 * n:
        raise ArgumentError(f"table dump needs {expected} table lines, got {len(raw) - 2}")
    def parse_block(block):
        try:
            table = [[int(v) for v in line.split()] for line in block]
        except ValueError:
            raise ArgumentError("table entries must be integers") from None
        if any(len(row) != n for row in table):
            raise ArgumentError("table row length does not match order")
        if any(not 0 <= v < n for row in table for v in row):
            raise ArgumentError("table entry out of range")
        return table
    add = parse_block(rows[:n])
    mul = parse_block(rows[n:2 * n])
    return FiniteRing(n, one, label, add_table=add, mul_table=mul)

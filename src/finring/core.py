"""Finite unital rings on integer element indices.

A ring of order n lives on the indices 0..n-1, with 0 the additive
identity and a designated index ``one`` (never 0) the multiplicative
identity.  Structured constructions either materialize full n x n
numpy operation tables ("table" mode) or keep broadcasting callables
that compute operations on demand from construction data ("lazy"
mode).  The two modes must return identical values on every index
pair; the test suite compares them.  This module is the only one that
knows which mode a ring is in: everything else reads a ring through
``add_arr``/``mul_arr``/``neg_arr`` and :meth:`FiniteRing.blocks`.

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
DEFAULT_GROUP_MAX = 64
EXHAUSTIVE_AXIOM_CUTOFF = 256
AXIOM_SAMPLE_COUNT = 100_000
# Entries per block of every row-block loop over a ring's tables (triples
# per block in the exhaustive ternary axiom checks).
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
    group_max: int = DEFAULT_GROUP_MAX

    def check_order(self, order: int, label: str) -> None:
        if order > self.max_order:
            raise LimitError(
                f"{label}: order {order} exceeds the limit {self.max_order}"
            )

    def check_power(self, base: int, exponent: int, label: str) -> int:
        """The order base ** exponent (base >= 2), checked as by
        :meth:`check_order`.  An exponent too large for any such base is
        refused before the power is computed, so a size parameter from
        user input costs nothing before its limit check."""
        if exponent >= self.max_order.bit_length():
            raise LimitError(f"{label}: order {base}^{exponent} exceeds the limit {self.max_order}")
        order = base ** exponent
        self.check_order(order, label)
        return order


DEFAULT_LIMITS = Limits()


def table_dtype(order: int) -> type:
    """The dtype of a ring's stored tables: int16 while ``order`` <= 32767
    (the int16 maximum), else int32.  Signed, so a table copy can hold -1
    as a marker."""
    return np.int16 if order <= 32767 else np.int32


def block_rows(width: int) -> int:
    """Rows of ``width`` entries per block of about AXIOM_BLOCK_ELEMENTS
    entries, at least one."""
    return max(1, AXIOM_BLOCK_ELEMENTS // width)


def _freeze(table, shape: tuple, shape_error: str) -> np.ndarray:
    """A read-only copy (or view) of ``table`` in ``table_dtype(shape[0])``,
    checked before the cast: the shape, an integer dtype and entries in
    0..shape[0]-1.

    A writable array is copied, so the caller's own array stays writable
    and later writes to it do not reach the ring; a read-only
    C-contiguous array already in that dtype, as the constructions hand
    over, is kept as is."""
    try:
        arr = np.asarray(table)
    except ValueError:  # a ragged nested list
        raise ArgumentError(shape_error) from None
    if arr.shape != shape:
        raise ArgumentError(shape_error)
    if arr.dtype.kind not in "iu":
        raise ArgumentError(f"table entries must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= shape[0]:
        raise ArgumentError(f"table entries must lie in 0..{shape[0] - 1}")
    frozen = np.ascontiguousarray(arr, dtype=table_dtype(shape[0]))
    if frozen is arr and arr.flags.writeable:
        frozen = arr.copy()
    frozen.setflags(write=False)
    return frozen


class FiniteRing:
    """A finite unital ring with elements 0..order-1.

    ``add_table``/``mul_table``/``neg_table`` are read-only numpy arrays
    in table mode, of :func:`table_dtype` (int16, 2 bytes an entry, up to
    order 32767), and None in lazy mode; row r, column c holds op(r, c).
    A value read from a table enters arithmetic only after a cast to a
    wider dtype.  Without ``neg_table`` the negation table is read off
    the addition table, an n^2 pass; the constructions pass theirs.
    In lazy mode ``add_fn``/``mul_fn``/``neg_fn`` compute the operations
    from construction data and must broadcast over numpy int arrays
    (and accept plain ints) like numpy's own operators.

    Every algorithm reads the ring through one storage layer: the
    broadcasting ``add_arr``/``mul_arr``/``neg_arr`` (fancy indexing in
    table mode, the construction's formula in lazy mode) and
    :meth:`blocks`, which walks a table in row blocks of about
    ``AXIOM_BLOCK_ELEMENTS`` entries.  Instances are immutable after
    construction and safe to share across threads; what is derived from
    the operations (the structural sets of :mod:`finring.analysis`, the
    predicates) is kept in the one per-ring cache behind :meth:`cached`.
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
        add_fn: Callable | None = None,
        mul_fn: Callable | None = None,
        neg_fn: Callable | None = None,
    ):
        if order < 2:
            raise ArgumentError(f"ring order must be >= 2, got {order}")
        if not 0 < one < order:
            raise ArgumentError(f"one must be a nonzero index below {order}, got {one}")
        self.order = order
        self.zero = 0
        self.one = one
        self.label = label
        if add_table is not None or mul_table is not None:
            if add_table is None or mul_table is None:
                raise ArgumentError("table ring needs add_table and mul_table")
            square = "operation tables must be order x order"
            self.add_table = _freeze(add_table, (order, order), square)
            self.mul_table = _freeze(mul_table, (order, order), square)
            if neg_table is None:
                neg_table = np.argmax(self.add_table == 0, axis=1)
            self.neg_table = _freeze(neg_table, (order,),
                                     f"the negation table must have shape ({order},)")
            A, M, N = self.add_table, self.mul_table, self.neg_table
            self.mode = "table"
            self.add_arr = lambda x, y: A[x, y]
            self.mul_arr = lambda x, y: M[x, y]
            self.neg_arr = lambda x: N[x]
        else:
            if add_fn is None or mul_fn is None or neg_fn is None:
                raise ArgumentError("lazy ring needs add_fn, mul_fn and neg_fn")
            self.add_table = None
            self.mul_table = None
            self.neg_table = None
            self.mode = "lazy"
            self.add_arr, self.mul_arr, self.neg_arr = add_fn, mul_fn, neg_fn
        self._lock = threading.RLock()
        self._cache: dict = {}

    def cached(self, key, compute: Callable):
        """The value cached under ``key``, set to ``compute()`` on the first
        request.  The lock is reentrant, so ``compute`` may ask for other
        keys; concurrent first requests see a single computation."""
        with self._lock:
            if key not in self._cache:
                self._cache[key] = compute()
            return self._cache[key]

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
        return int(self.add_arr(x, y))

    def mul(self, x: int, y: int) -> int:
        self._check_index(x)
        self._check_index(y)
        return int(self.mul_arr(x, y))

    def neg(self, x: int) -> int:
        self._check_index(x)
        return int(self.neg_arr(x))

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

    def row_block(self, op: str, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of the ``op`` ("add" or "mul") table against every
        column: a slice view of the stored table in table mode, the
        formula evaluated on index arrays in lazy mode."""
        if self.mode == "table":
            return (self.add_table if op == "add" else self.mul_table)[lo:hi]
        fn = self.add_arr if op == "add" else self.mul_arr
        return fn(np.arange(lo, min(hi, self.order))[:, None], np.arange(self.order)[None, :])

    def blocks(self, op: str, xs=None, ys=None) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, block) over ascending blocks of about AXIOM_BLOCK_ELEMENTS
        entries, with block[i, j] = op(xs[lo + i], ys[j]) for index arrays
        ``xs`` and ``ys``.  Without them the blocks are whole rows of the
        table (:meth:`row_block`), so a table ring of order <= 1024 is one
        block."""
        if xs is None:
            step = block_rows(self.order)
            for lo in range(0, self.order, step):
                yield lo, self.row_block(op, lo, lo + step)
            return
        fn = self.add_arr if op == "add" else self.mul_arr
        step = block_rows(max(1, len(ys)))
        for lo in range(0, len(xs), step):
            yield lo, fn(xs[lo:lo + step, None], ys[None, :])

    def materialized(self) -> "FiniteRing":
        """This ring in table mode, its tables filled by row blocks straight
        into :func:`table_dtype`."""
        n = self.order
        tables = {}
        for op in ("add", "mul"):
            tables[op] = np.empty((n, n), dtype=table_dtype(n))
            for lo, block in self.blocks(op):
                tables[op][lo:lo + len(block)] = block
            tables[op].setflags(write=False)
        return FiniteRing(n, self.one, self.label, add_table=tables["add"],
                          mul_table=tables["mul"], neg_table=self.neg_arr(np.arange(n)))


@dataclass(frozen=True)
class ElementSet:
    """A subset of a ring's element indices with O(1) membership."""

    ring: FiniteRing
    members: frozenset

    def __post_init__(self):
        if self.members and not (min(self.members) >= 0 and max(self.members) < self.ring.order):
            bad = sorted(x for x in self.members if not 0 <= x < self.ring.order)
            raise ArgumentError(f"indices {bad} out of range for {self.ring.label}")

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
    """An ElementSet from an index array or list."""
    return ElementSet(ring, frozenset(np.asarray(members).tolist()))


def member_mask(n: int, members) -> np.ndarray:
    """A boolean array over the indices 0..n-1, True exactly at ``members``."""
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


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


def _commutativity_check(ring: FiniteRing) -> AxiomCheck:
    """add(x, y) == add(y, x) over all pairs, by row blocks; the witness
    is the lexicographically first failing pair."""
    every = np.arange(ring.order)
    witness = None
    for lo, block in ring.blocks("add"):
        differ = block != ring.add_arr(every[None, :], every[lo:lo + len(block), None])
        if differ.any():
            x, y = np.unravel_index(int(np.argmax(differ)), differ.shape)
            witness = (lo + int(x), int(y))
            break
    return AxiomCheck("add-commutative", witness is None, witness, ring.order ** 2, "exhaustive")


def grow_span(ring: FiniteRing, reached: np.ndarray, candidates: np.ndarray) -> list[int]:
    """Extend the additive subgroup H marked in ``reached``, in place, to
    the subgroup generated by H and ``candidates``, and return the
    candidates that enlarged it, in the order taken.

    Each step takes the smallest candidate g not reached yet and extends
    H to H + <g> by doubling (see the :mod:`finring.analysis` docstring),
    so each returned candidate at least doubles H: there are at most
    log2 n."""
    taken = []
    while True:
        left = candidates[~reached[candidates]]
        if not len(left):
            return taken
        g = shift = int(left.min())
        taken.append(g)
        while True:  # reached is H + {0, .., 2^k - 1}*g and shift is 2^k*g
            hit = ring.add_arr(reached.nonzero()[0], shift)
            met = reached[hit].any()
            reached[hit] = True
            if met:
                break
            shift = ring.add_arr(shift, shift)
        reached[g] = True  # already so in a group; ends the loop for any table


# Both sides of each ternary ring law at (x, y, z), under broadcasting
# operations add and mul, in the order verify_axioms reports them.
TERNARY_LAWS = {
    "add-associative": lambda add, mul, x, y, z: (add(add(x, y), z), add(x, add(y, z))),
    "mul-associative": lambda add, mul, x, y, z: (mul(mul(x, y), z), mul(x, mul(y, z))),
    "left-distributive": lambda add, mul, x, y, z: (mul(x, add(y, z)), add(mul(x, y), mul(x, z))),
    "right-distributive": lambda add, mul, x, y, z: (mul(add(x, y), z), add(mul(x, z), mul(y, z))),
}


def _first_failure(law, add, mul, xs, ys, zs) -> tuple | None:
    """The lexicographically first (x, y, z) over the grid xs x ys x zs at
    which ``law`` fails, or None.  Runs by blocks of x rows of about
    AXIOM_BLOCK_ELEMENTS triples in ascending x and stops at the first
    failing block."""
    step = block_rows(len(ys) * len(zs))
    for lo in range(0, len(xs), step):
        lhs, rhs = law(add, mul, xs[lo:lo + step, None, None], ys[None, :, None], zs[None, None, :])
        differ = lhs != rhs
        if differ.any():
            i, j, k = np.unravel_index(int(np.argmax(differ)), differ.shape)
            return int(xs[lo + i]), int(ys[j]), int(zs[k])
    return None


def _exhaustive_ternary_checks(ring: FiniteRing) -> list[AxiomCheck]:
    """Associativity and distributivity over all n^3 triples, decided from
    an additive generating set S where the laws allow it (see
    :func:`verify_axioms`), by the blocked scan otherwise."""
    n = ring.order
    twin = ring.materialized()
    add, mul, every = twin.add_arr, twin.mul_arr, np.arange(n)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens = np.array(grow_span(twin, reached, every) + [0])

    def holds(name):  # the law with its middle argument in S
        return _first_failure(TERNARY_LAWS[name], add, mul, every, gens, every) is None

    proved = {"add-associative": holds("add-associative")}
    for name in ("left-distributive", "right-distributive"):
        proved[name] = proved["add-associative"] and holds(name)
    proved["mul-associative"] = (proved["left-distributive"] and proved["right-distributive"]
                                 and holds("mul-associative"))
    checks = []
    for name, law in TERNARY_LAWS.items():
        witness = None if proved[name] else _first_failure(law, add, mul, every, every, every)
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
    pseudo-random triples.

    The exhaustive ternary checks read a table twin of the ring
    (:meth:`FiniteRing.materialized`) and are decided from S + [0], where
    S holds the candidates :func:`grow_span` takes from {0} over every
    element.  Each element it marks is a sum of elements marked before
    and the candidates taken, so S + [0] generates (R, +) as a magma for
    any table, ring or not.  Each law holds on all n^3 triples iff it
    holds with its middle argument in S + [0], given the laws proved
    before it, because the middle arguments that satisfy it are closed
    under addition.  In order:

    1. (x+s)+y == x+(s+y): Light's associativity test (Clifford &
       Preston, *The Algebraic Theory of Semigroups* I, 1961), valid for
       any table;
    2. x(s+z) == xs+xz and (x+s)z == xz+sz, once + is associative;
    3. (xs)z == x(sz), once both distributive laws hold, which make the
       associator additive in its middle argument.

    That is 4*(|S|+1)*n^2 gathered entries instead of 4*n^3.  A check that
    fails, or whose precondition failed, runs the exhaustive scan over
    blocks of x rows, each block holding all (y, z): memory stays near
    ``AXIOM_BLOCK_ELEMENTS`` triples per side (a few MB) rather than four
    n^3 cubes, and the scan stops at its first failing block.  Every
    path, the sampled one too, evaluates the one definition of each law
    in :data:`TERNARY_LAWS`.  Either way a check counts the n^3 triples
    it decided in ``checked``.  Every check reports the lexicographically
    first failing tuple as its witness.  Both storage modes run the same
    code and give the same report.  A negative ``seed`` raises
    :class:`ArgumentError`.
    """
    if seed < 0:
        raise ArgumentError(f"axiom seed must be >= 0, got {seed}")
    n = ring.order
    add, mul, neg = ring.add_arr, ring.mul_arr, ring.neg_arr
    every = np.arange(n)
    checks = [_commutativity_check(ring)]

    def unary(name, mask):
        checks.append(AxiomCheck(name, bool(mask.all()), _first_false(mask), n, "exhaustive"))

    unary("zero-is-additive-identity", (add(0, every) == every) & (add(every, 0) == every))
    unary("additive-inverse", add(every, neg(every)) == 0)
    unary("one-is-identity", (mul(ring.one, every) == every) & (mul(every, ring.one) == every))
    checks.append(AxiomCheck("one-differs-from-zero", ring.one != 0, None, 1, "exhaustive"))

    if n <= exhaustive_cutoff:
        checks.extend(_exhaustive_ternary_checks(ring))
    else:
        rng = np.random.default_rng(seed)
        xs, ys, zs = (rng.integers(0, n, size=samples) for _ in range(3))
        for name, law in TERNARY_LAWS.items():
            failed = np.flatnonzero(np.not_equal(*law(add, mul, xs, ys, zs)))
            witness = (int(xs[failed[0]]), int(ys[failed[0]]), int(zs[failed[0]])) if len(failed) else None
            checks.append(AxiomCheck(name, witness is None, witness, samples, "sampled"))

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
    for i, op in enumerate(("add", "mul")):
        if i:
            lines.append("")
        for _, block in ring.blocks(op):
            lines.extend(" ".join(map(str, row)) for row in block.tolist())
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

"""Finite unital rings on integer element indices.

A ring of order n lives on the indices 0..n-1, with 0 the additive
identity and a designated index ``one`` (never 0) the multiplicative
identity.  Structured constructions either keep n x n numpy operation
tables ("table" mode) or broadcasting callables that compute
operations on demand from construction data ("lazy" mode).  The two
modes must return identical values on every index pair; the test suite
compares them.  This module is the only one that knows which mode a
ring is in, and :func:`stored_ring` the only function that picks it
and the tables a ring stores: everything else reads a ring through
``add_arr``/``mul_arr``/``neg_arr`` and :meth:`FiniteRing.blocks`.

The storage rule: a ring of order at most ``Limits.table_threshold`` is
a table ring, a larger one lazy.  A table ring stores MUL, from its
construction's table builder where it has one and else filled from its
multiplication formula, and NEG from its negation formula.  It stores
ADD only where that MUL build produced it; every other table ring adds
by its formula and fills ``add_table`` from it on first read, as most
analyses read only a few sums.

Nothing here checks the ring axioms on construction -- that is what
:func:`verify_axioms` is for: exact through order
``EXHAUSTIVE_AXIOM_CUTOFF`` (1024, which covers every ring of the default
corpus), from far fewer evaluations than the n^3 triples, and by seeded
random sampling of the ternary laws above it.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator

import numpy as np

DEFAULT_MAX_ORDER = 10_000
DEFAULT_TABLE_THRESHOLD = 1024
DEFAULT_GROUP_MAX = 64
EXHAUSTIVE_AXIOM_CUTOFF = 1024
AXIOM_SAMPLE_COUNT = 100_000
# Entries (triples in the ternary axiom scan) per block of every row-block
# loop over a ring's tables: a block's intp array, 512 KB, fits in L2 cache.
BLOCK_ELEMENTS = 1 << 16
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
    """Rows of ``width`` entries per block of about BLOCK_ELEMENTS
    entries, at least one."""
    return max(1, BLOCK_ELEMENTS // width)


def _freeze(table, shape: tuple, shape_error: str) -> np.ndarray:
    """A read-only copy (or view) of ``table`` in ``table_dtype(shape[0])``,
    checked before the cast: the shape, an integer dtype and entries in
    0..shape[0]-1.  An int16 table of order <= 2^15 is range-checked by
    one reduction, the max of its uint16 view, where a negative entry
    reads as 2^15 or more; a signed table of another dtype by min and max.

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
    checked = arr.view(np.uint16) if arr.dtype == np.int16 and shape[0] <= 1 << 15 else arr
    if (checked.dtype.kind == "i" and checked.min() < 0) or checked.max() >= shape[0]:
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
    A table ring stores MUL and NEG, and ADD when given ``add_table``;
    given ``add_fn`` instead, it adds by that formula until ``add_table``
    is first read, which fills it by row blocks, once, shared with the
    ring's relabelled twins.  A value read from a table enters
    arithmetic only after a cast to a wider dtype.  Without
    ``neg_table`` the negation table is read off the addition table, an
    n^2 pass; the constructions pass theirs.  In lazy mode
    ``add_fn``/``mul_fn``/``neg_fn`` compute the operations from
    construction data and must broadcast over numpy int arrays (and
    accept plain ints) like numpy's own operators.

    Every algorithm reads the ring through one storage layer: the
    broadcasting ``add_arr``/``mul_arr``/``neg_arr`` (fancy indexing of a
    table the ring holds, else the construction's formula) and
    :meth:`blocks`, which walks a table in row blocks of about
    ``BLOCK_ELEMENTS`` entries.  Instances are immutable after
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
        self._lock = threading.RLock()
        self._cache: dict = {}
        if add_table is not None or mul_table is not None:
            if mul_table is None or (add_table is None and add_fn is None):
                raise ArgumentError("table ring needs add_table and mul_table")
            square = "operation tables must be order x order"
            self.mul_table = _freeze(mul_table, (order, order), square)
            # [ADD], or [None] until add_table fills it; a relabelled twin
            # is a shallow copy, so it shares this list and whichever fill
            # of the two comes first
            if add_table is None:
                cell = self._add = [None]

                def add_arr(x, y):
                    table = cell[0]
                    return add_fn(x, y) if table is None else table[x, y]
                self.add_arr = add_arr
            else:
                A = _freeze(add_table, (order, order), square)
                self._add = [A]
                self.add_arr = lambda x, y: A[x, y]
            if neg_table is None:
                neg_table = np.argmax(self.add_table == 0, axis=1)
            self.neg_table = _freeze(neg_table, (order,),
                                     f"the negation table must have shape ({order},)")
            M, N = self.mul_table, self.neg_table
            self.mode = "table"
            self.mul_arr = lambda x, y: M[x, y]
            self.neg_arr = lambda x: N[x]
        else:
            if add_fn is None or mul_fn is None or neg_fn is None:
                raise ArgumentError("lazy ring needs add_fn, mul_fn and neg_fn")
            self._add = None
            self.mul_table = None
            self.neg_table = None
            self.mode = "lazy"
            self.add_arr, self.mul_arr, self.neg_arr = add_fn, mul_fn, neg_fn

    @property
    def add_table(self) -> np.ndarray | None:
        """The addition table in table mode, None in lazy mode.  A ring
        that stores none fills it from ``add_arr`` on first read, once,
        under its lock."""
        cell = self._add
        if cell is not None and cell[0] is None:
            with self._lock:
                if cell[0] is None:
                    cell[0] = _filled(self.order, self.add_arr)
        return None if cell is None else cell[0]

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
        """An int or NumPy integer (not a bool) in 0..order-1, else ArgumentError."""
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise ArgumentError(f"element index {x!r} is not an integer")
        if not 0 <= x < self.order:
            raise ArgumentError(f"element index {x} out of range for {self.label} (order {self.order})")

    def index_array(self, xs) -> np.ndarray:
        """``xs`` (indices or an index array) as an index array, checked at
        once as :meth:`_check_index` checks one: an integer dtype, so bools
        and floats raise ArgumentError, and entries in 0..order-1.  A bool
        among other entries of a list, which NumPy would cast to 0 or 1, is
        rejected as well."""
        if isinstance(xs, np.ndarray):
            arr = xs
        else:
            xs = list(xs)
            if any(isinstance(x, (bool, np.bool_)) for x in xs):
                raise ArgumentError("element indices must be integers, got a bool")
            arr = np.array(xs or np.empty(0, dtype=np.intp))
        if arr.dtype.kind not in "iu":
            raise ArgumentError(f"element indices must be integers, got dtype {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.order):
            bad = arr[(arr < 0) | (arr >= self.order)].tolist()
            raise ArgumentError(f"indices {bad} out of range for {self.label}")
        return arr

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

    def characteristic(self) -> int:
        """Smallest k >= 1 with k * 1 = 0; at most the order in a ring."""
        cur = self.one
        for k in range(1, self.order + 1):
            if cur == 0:
                return k
            cur = self.add(cur, self.one)
        raise ArgumentError(f"{self.label}: no k <= {self.order} has k * 1 = 0; not a ring")

    def row_block(self, op: str, lo: int, hi: int, cols: slice = slice(None)) -> np.ndarray:
        """Rows lo:hi of the ``op`` ("add" or "mul") table against the
        columns ``cols`` (every column by default): a slice view of the
        stored table in table mode, the formula evaluated on index arrays
        in lazy mode."""
        if self.mode == "table":
            return (self.add_table if op == "add" else self.mul_table)[lo:hi, cols]
        fn = self.add_arr if op == "add" else self.mul_arr
        every = np.arange(self.order)
        return fn(every[lo:hi, None], every[None, cols])

    def blocks(self, op: str, xs=None, ys=None) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, block) over ascending blocks of about BLOCK_ELEMENTS
        entries, with block[i, j] = op(xs[lo + i], ys[j]) for index arrays
        ``xs`` and ``ys``.  Without them the blocks are whole rows of the
        table (:meth:`row_block`)."""
        if xs is None:
            step = block_rows(self.order)
            for lo in range(0, self.order, step):
                yield lo, self.row_block(op, lo, lo + step)
            return
        fn = self.add_arr if op == "add" else self.mul_arr
        step = block_rows(max(1, len(ys)))
        for lo in range(0, len(xs), step):
            yield lo, fn(xs[lo:lo + step, None], ys[None, :])

    def relabelled(self, label: str, limits: Limits) -> "FiniteRing":
        """This ring's operations under ``label``, with an empty cache of
        its own, stored by :func:`stored_ring`'s rule; a table twin of a
        table ring shares its tables, the addition table filled on read
        included."""
        if self.mode == "table" and self.order <= limits.table_threshold:
            twin = copy.copy(self)
            twin.label, twin._lock, twin._cache = label, threading.RLock(), {}
            return twin
        return stored_ring(self.order, self.one, label, limits, self.add_arr, self.mul_arr,
                           self.neg_arr)


def _filled(order: int, op: Callable) -> np.ndarray:
    """The order x order table of the broadcasting ``op``, filled by row
    blocks straight into :func:`table_dtype` and range-checked by
    :func:`_freeze`."""
    table = np.empty((order, order), dtype=table_dtype(order))
    every, step = np.arange(order), block_rows(order)
    for lo in range(0, order, step):
        table[lo:lo + step] = op(every[lo:lo + step, None], every[None, :])
    table.setflags(write=False)
    return _freeze(table, (order, order), "operation tables must be order x order")


def stored_ring(order: int, one: int, label: str, limits: Limits, add_fn: Callable,
                mul_fn: Callable, neg_fn: Callable, tables: Callable | None = None) -> FiniteRing:
    """The ring with these broadcasting operations, in table mode when
    ``order`` <= ``limits.table_threshold`` and lazy above it: the one
    place that picks a ring's mode and its tables, by the rule of the
    module docstring.  MUL comes from ``tables``, a construction's faster
    builder returning (ADD or None, MUL), when given, else from ``mul_fn``
    by row blocks; NEG from ``neg_fn`` over every element.  A lazy ring
    never calls ``tables``."""
    if order > limits.table_threshold:
        return FiniteRing(order, one, label, add_fn=add_fn, mul_fn=mul_fn, neg_fn=neg_fn)
    add_table, mul_table = tables() if tables else (None, _filled(order, mul_fn))
    return FiniteRing(order, one, label, add_table=add_table, mul_table=mul_table,
                      neg_table=neg_fn(np.arange(order)), add_fn=add_fn)


class ElementSet:
    """A subset of a ring's element indices, held as its ascending index
    array ``array``.  ``members``, the frozenset behind O(1) membership,
    is built on first use; length, iteration and ``indices`` read the
    array.  Any collection of integer indices is accepted, sorted and
    with repeats dropped; an index array must be ascending and distinct
    already, as the structural sets of :mod:`finring.analysis` hand it
    over, and is kept as a read-only view.  Indices of any other dtype
    (floats, say) raise :class:`ArgumentError` rather than being
    truncated.  The ring is read for the checks only and is not kept, so
    a set cached by its ring forms no reference cycle with it."""

    def __init__(self, ring: FiniteRing, members):
        if not isinstance(members, np.ndarray):
            members = np.unique(ring.index_array(sorted(members)))  # out-of-range ones worded in order
        arr = members.view()
        arr.setflags(write=False)
        # an ascending array needs only its ends range-checked; a failing
        # array is worded by the full check
        if arr.dtype.kind not in "iu" or (len(arr) and (
                arr[0] < 0 or arr[-1] >= ring.order or not (arr[1:] > arr[:-1]).all())):
            ring.index_array(arr)
            raise ArgumentError("element indices must be ascending and distinct")
        self.array = arr

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self.array.tolist())

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __len__(self) -> int:
        return len(self.array)

    def indices(self) -> list[int]:
        """Sorted member indices (the external report form)."""
        return self.array.tolist()


def member_mask(n: int, indices) -> np.ndarray:
    """A boolean array over the indices 0..n-1, True exactly at the index
    array (or list) ``indices``."""
    mask = np.zeros(n, dtype=bool)
    mask[indices] = True
    return mask


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only: a value kept in a ring's cache is shared."""
    arr.setflags(write=False)
    return arr


def first_failure(fails: Callable, *axes) -> tuple | None:
    """The lexicographically first tuple of the grid axes[0] x axes[1] x ...
    at which ``fails`` holds; None if there is none or an axis is empty.
    ``fails`` gets axis i reshaped along dimension i and broadcasts to a
    boolean array with one dimension per axis.  The grid is walked in
    ascending blocks of axes[0] rows of about ``BLOCK_ELEMENTS`` entries,
    up to the first failing block."""
    k = len(axes)
    shaped = [np.asarray(a).reshape((1,) * i + (-1,) + (1,) * (k - 1 - i))
              for i, a in enumerate(axes)]
    width = math.prod(a.size for a in shaped[1:])
    if not width:
        return None
    step = block_rows(width)
    for lo in range(0, shaped[0].size, step):
        failed = fails(shaped[0][lo:lo + step], *shaped[1:])
        if failed.any():
            at = np.unravel_index(int(np.argmax(failed)), failed.shape)
            return tuple(int(a.flat[i]) for a, i in zip(shaped, (lo + at[0], *at[1:])))
    return None


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


def _first_noncommuting_pair(ring: FiniteRing) -> tuple | None:
    """The lexicographically first (x, y) with x + y != y + x, or None.

    Row block lo:hi is compared against columns lo:n only, as
    add(lo:hi, lo:n) against the transpose of add(lo:n, lo:hi), so x + y
    and y + x are evaluated once for each unordered pair {x, y}: n^2
    evaluations in all, against 2n^2 for comparing whole rows.  The first
    failing pair (x, y) has x < y, since (y, x) fails too and x != y, so
    it lies in x's block, and it is that block's first failure: an
    earlier one there would be a failing pair, or the mirror of one, that
    precedes (x, y)."""
    n, lo = ring.order, 0
    while lo < n:
        hi = min(n, lo + block_rows(n - lo))
        sums = ring.row_block("add", lo, hi, slice(lo, None))  # x + y for x in lo:hi, y >= lo
        failed = sums != ring.row_block("add", lo, n, slice(lo, hi)).T
        if failed.any():
            x, y = np.unravel_index(int(np.argmax(failed)), failed.shape)
            return lo + int(x), lo + int(y)
        lo = hi
    return None


def _exhaustive_ternary_checks(ring: FiniteRing, abelian: bool) -> list[AxiomCheck]:
    """Associativity and distributivity over all n^3 triples, decided from
    an additive generating set S + [0] where the laws allow it (see
    :func:`verify_axioms`), by the blocked scan otherwise.  ``abelian``
    says that + is commutative, with 0 as identity and inverses."""
    n, twin = ring.order, ring.relabelled(ring.label, Limits(table_threshold=ring.order))

    def flat(table):  # one flat take at x*n + y: half the cost of table[x, y] in int16
        return lambda x, y: table.ravel().take(np.multiply(x, n, dtype=np.intp) + y)

    add, mul, every = flat(twin.add_table), flat(twin.mul_table), np.arange(n)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens = np.array(grow_span(twin, reached, every) + [0])

    def fails(name):
        law = TERNARY_LAWS[name]
        return lambda x, y, z: np.not_equal(*law(add, mul, x, y, z))

    def holds(name, *axes):
        return first_failure(fails(name), *axes) is None

    middle = (every, gens, every)  # the middle argument in S0
    proved = {"add-associative": holds("add-associative", *middle)}
    proved["right-distributive"] = proved["add-associative"] and holds("right-distributive", *middle)
    proved["left-distributive"] = (abelian and proved["right-distributive"]
                                   and holds("left-distributive", gens, every, gens))
    proved["mul-associative"] = (proved["left-distributive"] and proved["right-distributive"]
                                 and holds("mul-associative", gens, gens, gens))
    checks = []
    for name in TERNARY_LAWS:
        witness = None if proved[name] else first_failure(fails(name), every, every, every)
        checks.append(AxiomCheck(name, witness is None, witness, n ** 3, "exhaustive"))
    return checks


def verify_axioms(ring: FiniteRing, *, seed: int = DEFAULT_SEED) -> AxiomReport:
    """Check the ring axioms; failures are reported, never raised.

    Unary and binary axioms are always exhaustive: a unary witness comes
    from :func:`first_failure` over every element, and commutativity of +
    evaluates each unordered pair once (:func:`_first_noncommuting_pair`).
    The ternary axioms (associativity, distributivity) are exhaustive for
    order <= ``EXHAUSTIVE_AXIOM_CUTOFF`` and otherwise checked on
    ``AXIOM_SAMPLE_COUNT`` pseudo-random triples drawn from ``seed``.

    The exhaustive ternary checks read a table twin of the ring
    (:meth:`FiniteRing.relabelled` at a table threshold of n, which
    shares a table ring's tables) and are decided from S0 = S + [0],
    where S holds the candidates :func:`grow_span` takes from {0} over
    every element.  Each element it marks is a sum of elements marked
    before and the candidates taken, so S0 generates (R, +) as a magma
    for any table, ring or not: a set of elements that holds S0 and is
    closed under + is all of R.  Each reduced check below holds iff its
    law holds on all n^3 triples, given the laws proved before it,
    because the arguments that satisfy it are closed under +.  In order:

    1. (x+s)+y == x+(s+y) over R x S0 x R: Light's associativity test
       (Clifford & Preston, *The Algebraic Theory of Semigroups* I,
       1961), valid for any table;
    2. (x+s)z == xz+sz over R x S0 x R, once + is associative;
    3. s(y+t) == sy+st over S0 x R x S0, once (R, +) is an abelian group
       and (2) holds.  For each s the t that satisfy it for every y are
       closed under +, so L_s: y -> sy is additive; and (2) says
       L_(x1+x2) = L_x1 + L_x2, a sum of additive maps of an abelian
       group, so the x with L_x additive are closed under + too;
    4. (st)u == s(tu) over S0^3, once both distributive laws hold: they
       carry the law from x1 and x2 to x1 + x2 in each argument in turn.

    That is 2*|S0|*n^2 + |S0|^2*n + |S0|^3 gathered entries instead of
    4*n^3.  A check that fails, or whose precondition failed, scans all
    n^3 triples.  The reduced checks and that scan are
    :func:`first_failure` over their grids, by blocks of
    ``BLOCK_ELEMENTS`` triples (512 KB per side as intp) rather than n^3
    cubes, up to the first failing block.  Every path, the sampled one
    too, evaluates the one definition of each law in
    :data:`TERNARY_LAWS`.  Either way a check counts the n^3 triples it
    decided in ``checked``.  Every check reports the lexicographically
    first failing tuple as its witness.  Both storage modes run the same
    code and give the same report.  A negative ``seed`` raises
    :class:`ArgumentError`.
    """
    if seed < 0:
        raise ArgumentError(f"axiom seed must be >= 0, got {seed}")
    n = ring.order
    add, mul, neg = ring.add_arr, ring.mul_arr, ring.neg_arr
    every = np.arange(n)
    witness = _first_noncommuting_pair(ring)
    checks = [AxiomCheck("add-commutative", witness is None, witness, n ** 2, "exhaustive")]

    def unary(name, mask):
        witness = first_failure(lambda x: ~mask[x], every)
        checks.append(AxiomCheck(name, witness is None, witness, n, "exhaustive"))

    unary("zero-is-additive-identity", (add(0, every) == every) & (add(every, 0) == every))
    unary("additive-inverse", add(every, neg(every)) == 0)
    abelian = all(c.passed for c in checks)
    unary("one-is-identity", (mul(ring.one, every) == every) & (mul(every, ring.one) == every))
    checks.append(AxiomCheck("one-differs-from-zero", ring.one != 0, None, 1, "exhaustive"))

    if n <= EXHAUSTIVE_AXIOM_CUTOFF:
        checks.extend(_exhaustive_ternary_checks(ring, abelian))
    else:
        rng = np.random.default_rng(seed)
        xs, ys, zs = (rng.integers(0, n, size=AXIOM_SAMPLE_COUNT) for _ in range(3))
        for name, law in TERNARY_LAWS.items():
            failed = np.flatnonzero(np.not_equal(*law(add, mul, xs, ys, zs)))
            witness = (int(xs[failed[0]]), int(ys[failed[0]]), int(zs[failed[0]])) if len(failed) else None
            checks.append(AxiomCheck(name, witness is None, witness, AXIOM_SAMPLE_COUNT, "sampled"))

    return AxiomReport(ring.label, n, seed, tuple(checks))


# ---------------------------------------------------------------------------
# Table dump format
#
# line 1: "order n"; line 2: "one i"; then n rows of the addition table,
# a blank line, and n rows of the multiplication table.  Row r, column c
# holds op(r, c).


def table_lines(ring: FiniteRing, op: str) -> Iterator[str]:
    """The rows of the ``op`` table as lines, made one row block at a time."""
    for _, block in ring.blocks(op):
        yield from (" ".join(map(str, row)) + "\n" for row in block.tolist())


def dump_lines(ring: FiniteRing) -> Iterator[str]:
    """The lines of :func:`dump_tables`, made one row block at a time."""
    return chain([f"order {ring.order}\none {ring.one}\n"], table_lines(ring, "add"), ["\n"],
                 table_lines(ring, "mul"))


def dump_tables(ring: FiniteRing) -> str:
    return "".join(dump_lines(ring))


def parse_table_dump(text: str, label: str = "table-ring") -> FiniteRing:
    """Inverse of :func:`dump_tables`, for raw-table test inputs: the header
    is exactly ``order n`` (n >= 2) and ``one i``; FiniteRing checks the tables."""
    raw = text.splitlines()
    if len(raw) < 2 or not raw[0].startswith("order ") or not raw[1].startswith("one "):
        raise ArgumentError("table dump must start with 'order n' and 'one i' lines")
    words = raw[0].split() + raw[1].split()
    if len(words) != 4 or not (words[1].isdecimal() and words[3].isdecimal()) or int(words[1]) < 2:
        raise ArgumentError(f"malformed table dump header: {raw[0]!r}, {raw[1]!r}")
    n, one = int(words[1]), int(words[3])
    # one blank separator line between the two tables
    rows = [r for i, r in enumerate(raw[2:]) if not (i == n and r.strip() == "")]
    if len(rows) < 2 * n:
        raise ArgumentError(f"table dump needs {2 * n + 1} table lines, got {len(raw) - 2}")
    if any(r.strip() for r in rows[2 * n:]):
        raise ArgumentError("table dump has lines after the multiplication table")
    try:
        add, mul = ([[int(v) for v in line.split()] for line in block] for block in (rows[:n], rows[n:2 * n]))
    except ValueError:
        raise ArgumentError("table entries must be integers") from None
    return FiniteRing(n, one, label, add_table=add, mul_table=mul)

"""Monotone submodular valuation functions and their query interfaces.

Every auction and optimization routine in this package talks to sellers'
values through a :class:`ValuationOracle`.  An oracle's answers never
change after construction, so one oracle serves many runs: an incentive
check reruns the mechanism on the same oracle for every seller and bid.
The per-run state of a greedy loop (the current set, incremental coverage
counts) lives in a scratch object obtained from
:meth:`ValuationOracle.scratch`.

An oracle still holds mutable state, none of which changes an answer: the
count of value/marginal queries it served, which benchmark harnesses and
the reported ``oracle_queries`` read to compare algorithms by oracle usage,
and the noisy oracle's bounded memo of set values.  The coverage oracle's
array views are caches of the instance, not of the oracle (see below).

The coverage oracle works on canonical covers: sorted and duplicate-free.
``CoverageInstance`` records in its validation pass whether every cover is
already strictly ascending, as ``build_instance`` and ``random_instance``
make them; the oracle then works on the instance itself, and otherwise on
a canonical instance of its own over sorted, duplicate-free copies.

A scratch also answers a whole round at once: ``marginals(idx)`` returns
the marginals of many sellers as an array and charges one query per index.
The coverage scratch keeps its own marginal vector for all n sellers.  The
first ``marginals`` call builds it whole from a padded (width x n) matrix of
cover vertex indices (a sentinel entry points at a 0.0 value), placed with
one fancy-index assignment of the chained covers rather than one slice per
seller.  After one admission or removal, the next call recomputes only the
sellers whose cover holds a vertex that became covered or uncovered, found
through a vertex-to-sellers index (a plain loop: the index is one tuple
per vertex, and making those tuples costs an array build more than the
loop saves); after two changes without a read it builds the vector whole
again.  The matrix, the index, and the payments' cover rows and neighbour
index depend only on the canonical instance, which builds each on first
use and keeps it: an experiment cell's check oracle and every mechanism
oracle on the same instance share one build.

Summation order: every float reduction here adds left to right.  The hot
coverage kernels (the oracle's value and marginal, the scratch's scalar
marginal) sum in one in-frame loop; ``sum_in_order`` is their reference,
over the same terms in the same order, and the sum everywhere else.  The
array kernel adds the masked vertex values column by column in cover
order, which is the same order; adding 0.0 for a covered vertex is exact,
so scalar and array marginals agree bit for bit.  The partial rebuild
recomputes each seller with the scalar kernel rather than subtracting the
flipped values, so it keeps those bits too, and so does the oracle's
``_masked_marginals`` (many marginals against per-row covered masks, for
the lockstep payments), which accumulates each seller's cover values left
to right from a leading 0.0.
Python >= 3.12 ``sum()`` compensates rounding and numpy's ``sum`` is
pairwise, so neither is used for values that reach an output.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


def sum_in_order(values: Iterable[float]) -> float:
    """Left-to-right float sum, the same order on every interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


def welfare(oracle: ValuationOracle, costs: Sequence[float], winners: Sequence[int]) -> float:
    """f(winners) on ``oracle`` minus the winners' costs, summed in order."""
    return oracle.value(winners) - sum_in_order(costs[i] for i in winners)


def canonical_set(members: Iterable[int]) -> tuple[int, ...]:
    """Sorted, duplicate-free tuple of seller indices."""
    return tuple(sorted(set(members)))


#: One packer per part count; the largest key is |S| + 2 for a set S.
_PACKERS: dict[int, struct.Struct] = {}


def stable_hash64(*parts: int) -> int:
    """Deterministic 64-bit hash of a tuple of ints, stable across processes."""
    packer = _PACKERS.get(len(parts))
    if packer is None:
        packer = _PACKERS[len(parts)] = struct.Struct(f"<{len(parts)}q")
    digest = hashlib.blake2b(packer.pack(*parts), digest_size=8).digest()
    return int.from_bytes(digest, "little")


#: The seeds ``stable_hash64`` can pack: signed 64-bit integers.
SEED_RANGE = range(-(2**63), 2**63)


def checked_seed(seed) -> int:
    """``seed`` as a Python int in ``SEED_RANGE``, checked where it enters.

    ``operator.index`` keeps numpy integers and refuses floats, which
    ``int()`` truncates; bools are refused too (``TypeError``).  A seed out
    of range is a ``ValueError`` here rather than a ``struct.error`` at its
    first hash.
    """
    if isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    seed = operator.index(seed)
    if seed not in SEED_RANGE:
        raise ValueError(f"seed must be a signed 64-bit integer, got {seed}")
    return seed


class ValuationOracle:
    """Base class for monotone submodular set functions f with f(empty) = 0.

    Subclasses implement ``_value`` on canonical tuples; ``marginal`` has a
    generic two-evaluation fallback that subclasses override when they can
    do better.

    ``marginals_shrink`` is a fact of the class: every computed f(i | S) is
    at most f(i | T) for T a subset of S, as floats (submodularity, with
    sums whose rounding keeps that order).  The meta loop retires sellers
    only on such an oracle, so a subclass claims it explicitly.
    """

    marginals_shrink = False

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"seller count must be nonnegative, got {n}")
        self.n = n
        self._queries = 0

    # -- query interface -------------------------------------------------

    def value(self, members: Iterable[int]) -> float:
        """f(S) for a set of seller indices."""
        s = self._checked(members)
        self._queries += 1
        return self._value(s)

    def marginal(self, i: int, members: Iterable[int]) -> float:
        """f(i | S) = f(S + i) - f(S).  Requires i not already in S."""
        s = self._checked(members)
        self._check_index(i)
        if i in s:
            raise ValueError(f"seller {i} already in the set")
        self._queries += 1
        return self._marginal(i, s)

    def scratch(self) -> "OracleScratch":
        """Fresh per-run evaluator with incremental marginal queries."""
        return OracleScratch(self)

    @property
    def query_count(self) -> int:
        return self._queries

    def reset_query_count(self) -> None:
        self._queries = 0

    # -- hooks -----------------------------------------------------------

    def _value(self, s: tuple[int, ...]) -> float:
        raise NotImplementedError

    def _marginal(self, i: int, s: tuple[int, ...]) -> float:
        return self._value(canonical_set(s + (i,))) - self._value(s)

    # -- validation ------------------------------------------------------

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"seller index {i} out of range [0, {self.n})")

    def _checked(self, members: Iterable[int]) -> tuple[int, ...]:
        s = canonical_set(members)
        if s and (s[0] < 0 or s[-1] >= self.n):
            raise ValueError(f"seller set {s} not within [0, {self.n})")
        return s


class OracleScratch:
    """Per-run growing set with marginal queries against an oracle.

    The generic version asks the oracle's own ``_marginal`` about the
    current set, so it returns exactly what ``oracle.marginal(i, members)``
    would; the coverage oracle provides an O(|cover|) incremental subclass
    that sums the same terms in the same order.  Each marginal read and
    each add counts one oracle query; ``remove`` and ``copy`` count none.
    """

    def __init__(self, oracle: ValuationOracle):
        self.oracle = oracle
        self._members: set[int] = set()

    @property
    def marginals_shrink(self) -> bool:
        """Whether a read never grows as the set grows: the oracle's class fact."""
        return self.oracle.marginals_shrink

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def __contains__(self, i: int) -> bool:
        return i in self._members

    def marginal(self, i: int) -> float:
        if i in self._members:
            raise ValueError(f"seller {i} already in the set")
        self.oracle._queries += 1
        return self._marginal(i)

    def marginals(self, idx: np.ndarray) -> np.ndarray:
        """Marginals of the sellers in ``idx`` (none of them in the set).

        Charges one query per index, as ``len(idx)`` ``marginal`` calls would.
        """
        self.oracle._queries += len(idx)
        return np.array([self._marginal(i) for i in idx.tolist()], dtype=float)

    def add(self, i: int) -> None:
        """Admit seller i.  Reads no marginal but charges one query, which
        every reported ``oracle_queries`` count includes."""
        if i in self._members:
            raise ValueError(f"seller {i} already in the set")
        self.oracle._queries += 1
        self._members.add(i)
        self._apply_add(i)

    def copy(self) -> "OracleScratch":
        """An independent scratch at the same set; charges no query.

        Payments resume from such a checkpoint of the allocation's scratch.
        The twin comes from ``oracle.scratch()``, so it is the same kind of
        scratch as a fresh one; subclasses copy their own state on top.
        """
        twin = self.oracle.scratch()
        twin._members = set(self._members)
        return twin

    def remove(self, i: int) -> None:
        if i not in self._members:
            raise ValueError(f"seller {i} not in the set")
        self._members.remove(i)
        self._apply_remove(i)

    # -- hooks -----------------------------------------------------------

    def _marginal(self, i: int) -> float:
        return self.oracle._marginal(i, self.members)

    def add_covering(self, i: int) -> list[int]:
        """Admits i as ``add`` does (one query) and returns the vertices it
        newly covered, in cover order, from the same walk over its cover."""
        if i in self._members:
            raise ValueError(f"seller {i} already in the set")
        self.oracle._queries += 1
        self._members.add(i)
        covered: list[int] = []
        self._shift(i, 1, covered)
        return covered

    def _apply_add(self, i: int) -> None:
        pass

    def _apply_remove(self, i: int) -> None:
        pass


# ---------------------------------------------------------------------------
# Coverage functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageInstance:
    """A max-coverage valuation: seller i covers a list of vertices.

    f(S) is the total value of vertices covered by at least one seller in S.
    Vertex ids are ints (numpy integers too), never bools or floats.
    ``canonical`` records, from the validation pass, whether every cover is
    strictly ascending (sorted and duplicate-free), the form the oracle
    works on.

    The array views of a canonical instance (the cover matrix, the vertex
    holders, the cover rows and the neighbour index) depend on nothing
    else, so they are built on first use and kept in ``_cache``, which
    every oracle of the instance shares.
    """

    covers: tuple[tuple[int, ...], ...]
    vertex_values: tuple[float, ...]
    canonical: bool = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        nv = len(self.vertex_values)
        if not set(map(type, chain.from_iterable(self.covers))) <= {int}:
            for i, cov in enumerate(self.covers):
                for v in cov:
                    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
                        raise TypeError(f"set {i} references vertex {v!r}, which is not an integer")
        canonical = True
        for i, cov in enumerate(self.covers):
            prev = -1
            for v in cov:
                if not 0 <= v < nv:
                    raise ValueError(f"set {i} references unknown vertex {v}")
                if v <= prev:
                    canonical = False
                prev = v
        if not all(0.0 <= val < math.inf for val in self.vertex_values):  # False for NaN
            raise ValueError("vertex values must be finite and nonnegative")
        object.__setattr__(self, "canonical", canonical)

    @property
    def n_sets(self) -> int:
        return len(self.covers)

    def to_json(self) -> dict:
        return {
            "n_sets": self.n_sets,
            "covers": [list(c) for c in self.covers],
            "vertex_values": list(self.vertex_values),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CoverageInstance":
        """The instance of a ``to_json`` document; a vertex id that is not a
        JSON integer is refused, not truncated."""
        covers = tuple(map(tuple, doc["covers"]))
        if int(doc["n_sets"]) != len(covers):
            raise ValueError("n_sets does not match the covers list")
        return cls(covers=covers, vertex_values=tuple(float(x) for x in doc["vertex_values"]))

    # The array views below read the covers as canonical: the oracle asks
    # them of its canonical form only.

    def _cover_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(width x n) cover vertex indices and the vertex values, built once.

        Row j holds every seller's j-th cover vertex in cover order; shorter
        covers are padded with the index of a sentinel 0.0 appended to the
        values.  One fancy-index assignment places every cover vertex.
        """
        if "arrays" not in self._cache:
            n = self.n_sets
            lengths = np.fromiter(map(len, self.covers), dtype=np.intp, count=n)
            total = int(lengths.sum())
            vertices = np.fromiter(chain.from_iterable(self.covers), dtype=np.intp, count=total)
            sellers = np.repeat(np.arange(n), lengths)
            positions = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            width = int(lengths.max(initial=0))
            matrix = np.full((width, n), len(self.vertex_values), dtype=np.intp)
            matrix[positions, sellers] = vertices
            values = np.array(self.vertex_values + (0.0,), dtype=float)
            self._cache["arrays"] = (matrix, values)
        return self._cache["arrays"]

    def _vertex_holders(self) -> tuple[tuple[int, ...], ...]:
        """The sellers whose cover holds each vertex, ascending; built once."""
        if "holders" not in self._cache:
            holders: list[list[int]] = [[] for _ in self.vertex_values]
            for i, cov in enumerate(self.covers):
                for v in cov:
                    holders[v].append(i)
            self._cache["holders"] = tuple(map(tuple, holders))
        return self._cache["holders"]

    def _neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR offsets and sellers: the sellers whose cover shares a vertex
        with seller i (i included, when its cover is not empty) are
        ``sellers[offsets[i]:offsets[i + 1]]``, ascending; built once."""
        if "neighbours" not in self._cache:
            n = self.n_sets
            matrix, values = self._cover_arrays()
            holds = matrix < len(values) - 1  # not the sentinel
            vertices, sellers = matrix[holds], np.nonzero(holds)[1]
            by_vertex = np.argsort(vertices, kind="stable")
            degree = np.bincount(vertices, minlength=len(values))
            first = np.cumsum(degree) - degree  # of each vertex's holders in ``by_vertex``
            # Each (seller, vertex) incidence meets every holder of the vertex.
            reps = degree[vertices]
            ends = np.cumsum(reps)
            at = np.arange(reps.sum()) - np.repeat(ends - reps - first[vertices], reps)
            pairs = np.unique(np.repeat(sellers, reps) * n + sellers[by_vertex[at]])
            offsets = np.searchsorted(pairs, np.arange(n + 1) * n)
            self._cache["neighbours"] = (offsets, pairs % n)
        return self._cache["neighbours"]

    def _cover_rows(self) -> np.ndarray:
        """(n x width + 1) cover vertex indices, one row per seller: the
        sentinel first, then the columns of ``_cover_arrays``; built once."""
        if "rows" not in self._cache:
            matrix, values = self._cover_arrays()
            self._cache["rows"] = np.vstack([np.full(self.n_sets, len(values) - 1, dtype=np.intp), matrix]).T.copy()
        return self._cache["rows"]


class CoverageOracle(ValuationOracle):
    """Coverage valuation with incremental marginal support.

    A marginal sums the values of i's uncovered vertices left to right in
    cover order; a larger set leaves a subsequence of those nonnegative
    terms, whose left-to-right sum is never larger, so marginals shrink.

    ``instance`` is the canonical form of the instance it was given (that
    instance itself when it is canonical), and the array views come from
    its cache: every oracle of one canonical instance shares one build of
    them, while each counts its own queries.
    """

    marginals_shrink = True

    def __init__(self, instance: CoverageInstance):
        super().__init__(instance.n_sets)
        if not instance.canonical:
            instance = CoverageInstance(tuple(tuple(sorted(set(c))) for c in instance.covers), instance.vertex_values)
        self.instance = instance
        self.covers = instance.covers
        self.vertex_values = instance.vertex_values

    def _value(self, s: tuple[int, ...]) -> float:
        covered: set[int] = set()
        for i in s:
            covered.update(self.covers[i])
        values = self.vertex_values
        total = 0.0
        for v in covered:  # the set's own order, which the noisy oracle's bits depend on
            total += values[v]
        return total

    def _marginal(self, i: int, s: tuple[int, ...]) -> float:
        covered: set[int] = set()
        for j in s:
            covered.update(self.covers[j])
        values = self.vertex_values
        total = 0.0
        for v in self.covers[i]:
            if v not in covered:
                total += values[v]
        return total

    def scratch(self) -> "CoverageScratch":
        return CoverageScratch(self)

    def _masked_marginals(self, covered: np.ndarray, rows: np.ndarray, sellers: np.ndarray) -> np.ndarray:
        """The marginal of ``sellers[t]`` where the vertices ``covered[rows[t]]``
        are covered, for each t; charges no query.

        ``covered`` is a bool array with one column per vertex and one for
        the sentinel.  Each sum starts at 0.0 and adds the seller's vertex
        values in cover order, 0.0 for a covered vertex, as the whole-vector
        build does, so it keeps the scalar kernel's bits: ``np.add.accumulate``
        adds strictly left to right, over a sentinel column placed first.
        """
        vertices = self.instance._cover_rows()[sellers]
        terms = np.where(covered[rows[:, None], vertices], 0.0, self.instance._cover_arrays()[1][vertices])
        return np.add.accumulate(terms, axis=1)[:, -1]


class CoverageScratch(OracleScratch):
    """Coverage counts per vertex; marginal queries cost O(|cover(i)|).

    ``marginals`` reads a vector of every seller's marginal.  The first read
    builds it whole; the first change after a read records the vertices
    whose coverage flipped (count 0 <-> 1), and the next read recomputes
    only the sellers that hold one, each from scratch with the scalar
    kernel.  A second change before that read drops the vector instead, so
    scratches used only for scalar reads never track flips.  Along a run
    that only admits, each vertex flips at most once, so the partial reads
    of the whole run recompute each seller at most |cover| times.
    """

    def __init__(self, oracle: CoverageOracle):
        super().__init__(oracle)
        self._counts = [0] * len(oracle.vertex_values)
        self._vector: np.ndarray | None = None
        self._flipped: list[int] | None = None

    def _marginal(self, i: int) -> float:
        counts = self._counts
        values = self.oracle.vertex_values
        total = 0.0
        for v in self.oracle.covers[i]:
            if counts[v] == 0:
                total += values[v]
        return total

    def marginals(self, idx: np.ndarray) -> np.ndarray:
        self.oracle._queries += len(idx)
        return self._marginal_vector()[idx]

    def _marginal_vector(self) -> np.ndarray:
        """Every seller's marginal at the set, built or brought up to date;
        charges no query."""
        if self._vector is None:
            matrix, values = self.oracle.instance._cover_arrays()
            live = values.copy()
            live[:-1][np.array(self._counts) > 0] = 0.0
            vector = np.zeros(self.oracle.n)
            for row in matrix:  # one cover position at a time: left to right
                vector += live[row]
            self._vector = vector
        elif self._flipped is not None:
            holders = self.oracle.instance._vertex_holders()
            stale: set[int] = set()
            for v in self._flipped:
                stale.update(holders[v])
            vector = self._vector
            for i in stale:
                vector[i] = self._marginal(i)
            self._flipped = None
        return self._vector

    def copy(self) -> "CoverageScratch":
        """Copies the counts, and the marginal vector with its pending flips:
        each scratch updates its own vector in place."""
        twin = super().copy()
        twin._counts = self._counts.copy()
        if self._vector is not None:
            twin._vector = self._vector.copy()
            twin._flipped = None if self._flipped is None else self._flipped.copy()
        return twin

    def _apply_add(self, i: int) -> None:
        self._shift(i, 1)

    def _apply_remove(self, i: int) -> None:
        self._shift(i, -1)

    def _shift(self, i: int, step: int, log: list[int] | None = None) -> None:
        """Moves the counts of i's cover by ``step`` (+1 admits, -1 removes)
        and appends the vertices whose coverage flipped to ``log``, if given.

        The first change after a read records those vertices (in ``log``
        itself, when given); a second one drops the vector, so the next
        read builds it whole.
        """
        if self._vector is not None and self._flipped is None:
            if log is None:
                log = []
            self._flipped = log
        else:
            self._vector = self._flipped = None
        counts = self._counts
        flipped_at = 1 if step > 0 else 0
        for v in self.oracle.covers[i]:
            counts[v] += step
            if log is not None and counts[v] == flipped_at:
                log.append(v)


# ---------------------------------------------------------------------------
# Small oracles for tests and the online examples
# ---------------------------------------------------------------------------


class AdditiveOracle(ValuationOracle):
    """Modular function f(S) = sum of per-seller weights."""

    marginals_shrink = True  # f(i | S) is the weight of i whatever S is

    def __init__(self, weights: Sequence[float]):
        if not all(0.0 <= w < math.inf for w in weights):
            raise ValueError("weights must be finite and nonnegative")
        super().__init__(len(weights))
        self.weights = tuple(float(w) for w in weights)

    def _value(self, s: tuple[int, ...]) -> float:
        return sum_in_order(self.weights[i] for i in s)

    def _marginal(self, i: int, s: tuple[int, ...]) -> float:
        return self.weights[i]


class AdversarialFamilyOracle(ValuationOracle):
    """The structured family that breaks exact-demand descending auctions.

    With parameter L there are L + 2 sellers.  The first L ("unit") sellers
    contribute value 1 each as long as no special seller is present; the two
    special sellers L and L+1 pin the value at L for any set containing one
    of them:

        f(S) = |S|   if S does not meet {L, L+1}
        f(S) = L     otherwise

    The companion bid profile is 1/L for unit sellers and L - 2 for the two
    special sellers.  Values are small integers, so the generic marginal
    f(S + i) - f(S) is exact, and f is submodular, so marginals shrink.
    """

    marginals_shrink = True

    def __init__(self, L: int):
        if L < 1:
            raise ValueError(f"family parameter must be positive, got {L}")
        super().__init__(L + 2)
        self.L = L
        self.specials = (L, L + 1)

    def bids(self) -> tuple[float, ...]:
        return (1.0 / self.L,) * self.L + (float(self.L - 2),) * 2

    def _value(self, s: tuple[int, ...]) -> float:
        if s and s[-1] >= self.L:
            return float(self.L)
        return float(len(s))


# ---------------------------------------------------------------------------
# Noisy evaluation wrapper
# ---------------------------------------------------------------------------


#: Most seller indices the noisy oracle's memo holds, summed over its keys;
#: a set that would pass it empties the memo first.  A full memo of sets
#: of about 70 sellers took 5 MB (peak RSS 41.5 MB against 36.4 MB).
NOISY_MEMO_MAX_INTS = 1 << 18


class NoisyOracle(ValuationOracle):
    """Multiplicative perturbation of a base oracle.

    F(S) = f(S) * m(S) with m(S) in [1 - eps, 1 + eps] derived from a 64-bit
    hash of (seed, sorted members), so the same set always returns the same
    value.  F is generally neither monotone nor submodular, so ``marginal``
    may return negative numbers; callers that need the trajectory-minimum
    construction handle that themselves.

    ``_value`` memoizes F by canonical set tuple: it looks the tuple up
    first and stores what it computes.  F is a pure function of the tuple
    (the hash, and the base oracle's from-scratch value of the same tuple),
    so a stored value has the bits a fresh computation gives, and no
    output or query count depends on what the memo holds.  An incentive
    check reruns the mechanism on one oracle for every seller and bid, so
    its sets repeat.  The memo is bounded: once its keys would hold more
    than ``NOISY_MEMO_MAX_INTS`` seller indices in total, it is emptied and
    starts over.
    """

    def __init__(self, base: ValuationOracle, epsilon: float, seed: int = 0):
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
        super().__init__(base.n)
        self.base = base
        self.epsilon = float(epsilon)
        self.seed = checked_seed(seed)
        self._memo: dict[tuple[int, ...], float] = {}
        self._memo_ints = 0  # seller indices summed over the memo's keys

    def _value(self, s: tuple[int, ...]) -> float:
        value = self._memo.get(s)
        if value is None:
            u = stable_hash64(self.seed, len(s), *s) / 2.0**64
            value = self.base._value(s) * (1.0 - self.epsilon + 2.0 * self.epsilon * u)
            if self._memo_ints + len(s) > NOISY_MEMO_MAX_INTS:
                self._memo.clear()
                self._memo_ints = 0
            if len(s) <= NOISY_MEMO_MAX_INTS:
                self._memo[s] = value
                self._memo_ints += len(s)
        return value

    def scratch(self) -> "NoisyScratch":
        return NoisyScratch(self)


class NoisyScratch(OracleScratch):
    """Keeps F(S) of the current set: a marginal is F(S + i) - F(S), one
    perturbed value, with the bits of the oracle's own two-value marginal.
    F(empty) = f(empty) * m = 0."""

    def __init__(self, oracle: NoisyOracle):
        super().__init__(oracle)
        self._set_value = 0.0

    def _marginal(self, i: int) -> float:
        # i is never a member (``marginal`` checks, ``marginals`` requires it),
        # so the sorted tuple is already canonical.
        return self.oracle._value(tuple(sorted((*self._members, i)))) - self._set_value

    def copy(self) -> "NoisyScratch":
        twin = super().copy()
        twin._set_value = self._set_value
        return twin

    def _apply_add(self, i: int) -> None:
        self._set_value = self.oracle._value(self.members)

    _apply_remove = _apply_add

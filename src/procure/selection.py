"""The greedy selection engine: the meta loop and its lazy variant.

``_greedy_rounds`` scores every remaining candidate each round and admits
the lexicographically-first argmax while its score is strictly positive;
``_lazy_greedy`` keeps a max-heap of stale scores for diminishing-return
rules and re-scores only the top until its fresh score provably dominates.
Both yield before they admit, so the caller sees the provider (and the
lazy heap) at the set the round was scored on.  The allocation
(``run_meta``, ``run_meta_lazy``) consumes them, and so do the critical-bid
payments of ``sealed_bid``: at each winner's admission the sealed-bid
mechanism copies the provider (``copy()``) and, on the lazy path, the heap
with every entry stamped stale, then resumes the loop from that checkpoint
over the other remaining sellers (``_greedy_rounds(start=k)``, or
``_lazy_greedy`` on the copied heap).  The provider is the oracle's own
scratch; the noisy rule reads it through ``_TrajectoryMinMarginals``, a
running minimum of its marginals, scalar or array alike.

The meta loop's round is an array round: one ``provider.marginals`` call
(on coverage, a gather from the scratch's marginal vector), one
``ScoringRule.scores`` call and ``np.argmax``, whose first maximum is the
lexicographic tie-break because the candidates stay ascending.  Rounds
that score fewer than ``ARRAY_ROUND_MIN`` candidates, and passes that
start with fewer or are stochastic, keep the scalar loop (``_scalar_rounds``,
also the test reference).  On a 2-vCPU Xeon VM, over distorted runs at
n = 100-500 on the synthetic graph (1500, 600), a clean array round cost
6-7 us and one that first recomputes the sellers an admission changed
7-12 us (quartiles; a whole rebuild cost 34-49 us), against 0.46-0.52 us
per candidate for the scalar loop with the in-frame coverage sum.  So the
two meet at 11-27 candidates; a pass builds its vector whole only at its
first read (a payment continuation copies the allocation's), so the
cut-off stays at 32.  The lazy heap's seed scores every candidate once, so
it is an array round too; its re-scores stay scalar reads, a few per
admission.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .scoring import (
    NOT_SAMPLED,
    RandomSeed,
    ScoringRule,
    UnsupportedRuleError,
    _validate_rule,
    as_random_seed,
)
from .valuation import ValuationOracle

#: Fewest scored candidates for which a meta-loop round uses the array
#: kernel; below it numpy's per-call overhead exceeds the scalar loop.
ARRAY_ROUND_MIN = 32

#: Stamp of a lazy-heap entry that must be re-scored before it is trusted.
STALE = -1


@dataclass
class SelectionTrace:
    """Full record of one selection run over n sellers.

    ``order`` holds the admitted sellers in admission order, ``chosen_at``
    their admission rounds and ``scores_at_admission`` the scores that
    admitted them; the tentative sets S_0 .. S_n are derived from these.
    """

    n: int
    order: list[int] = field(default_factory=list)
    chosen_at: dict[int, int] = field(default_factory=dict)
    scores_at_admission: dict[int, float] = field(default_factory=dict)

    def admit(self, i: int, k: int, score: float) -> None:
        self.order.append(i)
        self.chosen_at[i] = k
        self.scores_at_admission[i] = score

    @property
    def winners(self) -> tuple[int, ...]:
        return tuple(sorted(self.order))

    @property
    def tentative_sets(self) -> tuple[tuple[int, ...], ...]:
        """S_0 .. S_n in one pass; a round without an admission reuses S_{k-1}."""
        by_round = {k: i for i, k in self.chosen_at.items()}
        sets: list[tuple[int, ...]] = [()]
        current: list[int] = []
        for k in range(1, self.n + 1):
            if k in by_round:
                bisect.insort(current, by_round[k])
            sets.append(tuple(current) if k in by_round else sets[-1])
        return tuple(sets)

    def to_json(self) -> dict:
        return {
            "tentative_sets": [list(s) for s in self.tentative_sets],
            "chosen_at": {str(i): k for i, k in self.chosen_at.items()},
            "scores_at_admission": {str(i): s for i, s in self.scores_at_admission.items()},
            "winners": list(self.winners),
        }


def _check_bids(bids, n: int) -> list[float]:
    """Bids (or costs) as n floats; rejects a wrong length, NaN and negatives.

    +inf is accepted: such a seller's score is never positive, so it is
    never admitted.
    """
    bids = [float(b) for b in bids]
    if len(bids) != n:
        raise ValueError(f"expected {n} bids, got {len(bids)}")
    if any(math.isnan(b) for b in bids):
        raise ValueError("bids must not be NaN")
    if any(b < 0 for b in bids):
        raise ValueError("bids must be nonnegative")
    return bids


class _TrajectoryMinMarginals:
    """Running minimum of an oracle scratch's marginals over the trajectory.

    The noisy rule scores candidate i in round j with
    min over t <= j of F(i | S_{t-1}); since the tentative set changes only
    on admission, folding the scratch's current marginal into a
    per-candidate minimum every round reproduces that trajectory minimum.
    On a coverage oracle the current marginal is that minimum, bit for bit
    (a left-to-right sum over fewer nonnegative terms is never larger).
    """

    def __init__(self, scratch, minima: np.ndarray | None = None):
        self.scratch = scratch
        self._min = np.full(scratch.oracle.n, math.inf) if minima is None else minima

    def marginal(self, i: int) -> float:
        cur = self.scratch.marginal(i)
        if cur < self._min[i]:
            self._min[i] = cur
            return cur
        return float(self._min[i])

    def marginals(self, idx: np.ndarray) -> np.ndarray:
        best = np.minimum(self._min[idx], self.scratch.marginals(idx))
        self._min[idx] = best
        return best

    def copy(self) -> "_TrajectoryMinMarginals":
        """An independent provider with the same set and running minima."""
        return _TrajectoryMinMarginals(self.scratch.copy(), self._min.copy())

    def add(self, i: int) -> None:
        self.scratch.add(i)


def _marginal_provider(rule: ScoringRule, oracle: ValuationOracle):
    """The oracle scratch, under the trajectory minimum for the noisy rule."""
    scratch = oracle.scratch()
    return _TrajectoryMinMarginals(scratch) if rule.kind == "noisy-distorted" else scratch


def _best_of(rule: ScoringRule, provider, bids, scored, k: int) -> tuple:
    """(argmax, score) over ``scored`` one marginal at a time; the first maximum wins."""
    marginal, score_of = provider.marginal, rule.score_from_marginal
    best_i = None
    best_score = NOT_SAMPLED
    for i in scored:
        sc = score_of(marginal(i), bids[i], k)
        if best_i is None or sc > best_score:
            best_i, best_score = i, sc
    return best_i, best_score


def _scalar_rounds(
    rule: ScoringRule, provider, bids, seed: RandomSeed, candidates, rounds: int, start: int = 1
) -> Iterator[tuple]:
    """The meta loop scored one candidate at a time: small and stochastic passes, and the reference.

    A stochastic round scores its ascending batch's remaining members, so
    the first maximum is still the lexicographically-first argmax.
    """
    n = len(bids)
    remaining = dict.fromkeys(candidates)  # ascending, with O(1) lookup and removal
    for k in range(start, rounds + 1):
        batch = seed.round_batch(k, n) if rule.randomized else None
        scored = remaining if batch is None else [i for i in batch if i in remaining]
        best_i, best_score = _best_of(rule, provider, bids, scored, k)
        yield k, batch, best_i, best_score
        if best_i is not None and best_score > 0.0:
            provider.add(best_i)
            del remaining[best_i]


def _greedy_rounds(
    rule: ScoringRule, provider, bids, seed: RandomSeed, candidates, rounds: int, start: int = 1
) -> Iterator[tuple]:
    """The meta loop: yields (k, batch, argmax, score) for rounds ``start`` .. ``rounds``.

    The argmax (None when no candidate was scored) is admitted when the
    caller resumes, iff its score is strictly positive; until then the
    provider still answers against the set the round was scored on.
    ``candidates`` must be ascending, so the first maximum is the
    lexicographically-first argmax.  A pass with ``start`` > 1 resumes a
    run whose provider holds the set of its first ``start - 1`` rounds.

    A round with at least ``ARRAY_ROUND_MIN`` scored candidates reads their
    marginals with one ``provider.marginals`` call and scores them with
    ``rule.scores``; smaller rounds, and passes that start smaller, use the
    scalar loop.  Both yield the same tuples, as Python ints and floats.  A
    stochastic round scores at most ``STOCHASTIC_BATCH`` = 3 < ``ARRAY_ROUND_MIN``
    candidates, so a randomized rule's whole pass takes the scalar loop.
    """
    if rule.randomized or len(candidates) < ARRAY_ROUND_MIN:
        yield from _scalar_rounds(rule, provider, bids, seed, candidates, rounds, start)
        return
    bid_array = np.array(bids, dtype=float)
    remaining = np.array(candidates, dtype=np.intp)
    for k in range(start, rounds + 1):
        if len(remaining) < ARRAY_ROUND_MIN:
            best_i, best_score = _best_of(rule, provider, bids, remaining.tolist(), k)
        else:
            scores = rule.scores(provider.marginals(remaining), bid_array[remaining], k)
            j = int(np.argmax(scores))
            best_i, best_score = int(remaining[j]), float(scores[j])
        yield k, None, best_i, best_score
        if best_i is not None and best_score > 0.0:
            provider.add(best_i)
            remaining = remaining[remaining != best_i]


def _lazy_heap(rule: ScoringRule, provider, bids, candidates) -> list[tuple[float, int, int]]:
    """The lazy greedy's queue: every candidate scored at the provider's set, stamp 0."""
    if len(candidates) < ARRAY_ROUND_MIN:
        seeds = [rule.score_from_marginal(provider.marginal(i), bids[i], 1) for i in candidates]
    else:  # the seed scores every candidate, like a meta-loop round
        idx = np.array(candidates, dtype=np.intp)
        seeds = rule.scores(provider.marginals(idx), np.array(bids, dtype=float)[idx], 1).tolist()
    heap = [(-score, i, 0) for score, i in zip(seeds, candidates)]
    heapq.heapify(heap)
    return heap


def _stale_copy(heap: list[tuple[float, int, int]]) -> list[tuple[float, int, int]]:
    """The queue with every entry stamped stale; (score, seller) keys keep it a heap."""
    return [(neg, i, STALE) for neg, i, _ in heap]


def _lazy_greedy(rule: ScoringRule, provider, bids, heap: list, limit: int) -> Iterator[tuple[int, float]]:
    """Lazy greedy (Minoux 1978): yields (seller, score) per admission, then admits.

    Stops after ``limit`` admissions or at the first best fresh score that
    is not positive.  Diminishing-return scores only shrink as the set grows
    and ignore the round index, so a stale score bounds the fresh one.

    ``heap`` (from ``_lazy_heap``, or a ``_stale_copy`` of a checkpoint) is
    consumed in place, so at each yield the caller holds the queue as it
    stands at the provider's set.  Its entries carry the admission count at
    which they were scored; an entry popped with a current stamp is already
    fresh, which breaks the re-score cycle that exact score ties would
    otherwise cause.  Which seller is admitted, and its score, depend only
    on the fresh scores, so any queue of valid upper bounds gives the same
    admissions.
    """
    marginal, score_of = provider.marginal, rule.score_from_marginal
    heappop, heappush = heapq.heappop, heapq.heappush
    for admitted in range(limit):
        while heap:
            neg, i, stamp = heappop(heap)
            if stamp == admitted:
                score = -neg
                break
            score = score_of(marginal(i), bids[i], 1)
            runner_up = -heap[0][0] if heap else NOT_SAMPLED
            if score > max(0.0, runner_up) or runner_up < 0.0:
                break
            heappush(heap, (-score, i, admitted))
        else:
            return
        if not score > 0.0:
            return
        yield i, score
        provider.add(i)


def run_meta(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids,
    seed: RandomSeed | int | None = None,
) -> SelectionTrace:
    """One full run of the meta selection algorithm (n rounds, or the rule's cardinality cap)."""
    n = oracle.n
    _validate_rule(rule, oracle)
    bids = _check_bids(bids, n)
    rounds = rule.cardinality if rule.cardinality is not None else n
    provider = _marginal_provider(rule, oracle)
    trace = SelectionTrace(n)
    for k, _, i, score in _greedy_rounds(rule, provider, bids, as_random_seed(seed), range(n), rounds):
        if i is not None and score > 0.0:
            trace.admit(i, k, score)
    return trace


def run_meta_lazy(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids,
    seed: RandomSeed | int | None = None,
) -> SelectionTrace:
    """Lazy-queue implementation; requires a diminishing-return rule.

    Produces the same winner set and admission rounds as ``run_meta``:
    because these rules' scores only shrink as the tentative set grows and
    ignore the round index, admissions happen in consecutive rounds and the
    loop may stop at the first round whose best fresh score is not positive.
    """
    if not rule.diminishing_return:
        raise UnsupportedRuleError(f"rule {rule.kind!r} has no diminishing-return structure")
    n = oracle.n
    bids = _check_bids(bids, n)
    scratch = oracle.scratch()
    heap = _lazy_heap(rule, scratch, bids, range(n))
    trace = SelectionTrace(n)
    for k, (i, score) in enumerate(_lazy_greedy(rule, scratch, bids, heap, n), start=1):
        trace.admit(i, k, score)
    return trace

"""Greedy selection loops: the n-round meta algorithm and its lazy variant.

``run_meta`` scores every remaining candidate each round and admits the
lexicographically-first argmax while its score is strictly positive.  For
rules whose score has a diminishing-return structure, ``run_meta_lazy``
keeps a max-priority queue of stale scores and only re-scores the top until
its fresh score provably dominates, which is where the large-instance
speedups come from.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .scoring import (
    NOT_SAMPLED,
    RandomSeed,
    ScoringRule,
    UnsupportedRuleError,
    as_random_seed,
)
from .valuation import ValuationOracle, canonical_set


@dataclass
class SelectionTrace:
    """Full record of one selection run.

    ``tentative_sets`` holds S_0 .. S_n (padded so every round is present
    even when the loop exited early); ``chosen_at`` maps each admitted
    seller to its admission round, and ``scores_at_admission`` to the score
    that admitted it.
    """

    tentative_sets: tuple[tuple[int, ...], ...]
    chosen_at: dict[int, int] = field(default_factory=dict)
    scores_at_admission: dict[int, float] = field(default_factory=dict)

    @property
    def winners(self) -> tuple[int, ...]:
        return self.tentative_sets[-1]

    @property
    def rounds(self) -> int:
        return len(self.tentative_sets) - 1

    def admissions(self) -> list[tuple[int, int]]:
        """(round, seller) pairs in admission order."""
        return sorted((k, i) for i, k in self.chosen_at.items())

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


class _PlainMarginals:
    """Marginals against the current tentative set, via the oracle scratch."""

    def __init__(self, oracle: ValuationOracle):
        self.scratch = oracle.scratch()

    def begin_round(self, k: int) -> None:
        pass

    def get(self, i: int) -> float:
        return self.scratch.marginal(i)

    def admit(self, i: int) -> None:
        self.scratch.add(i)


class _TrajectoryMinMarginals:
    """Running minimum of noisy marginals over the trajectory of tentatives.

    The noisy rule scores candidate i in round j with
    min over t <= j of F(i | S_{t-1}); since the tentative set changes only
    on admission, folding the current set's marginal into a per-candidate
    minimum every round reproduces that trajectory minimum.
    """

    def __init__(self, oracle: ValuationOracle):
        self.oracle = oracle
        self.members: list[int] = []
        self._value = oracle.value(())
        self._min: dict[int, float] = {}
        self._folded_round = -1
        self._round = 0

    def begin_round(self, k: int) -> None:
        self._round = k

    def get(self, i: int) -> float:
        cur = self.oracle.value(canonical_set(self.members + [i])) - self._value
        best = self._min.get(i, math.inf)
        if cur < best:
            best = cur
            self._min[i] = cur
        return best

    def admit(self, i: int) -> None:
        self.members.append(i)
        self._value = self.oracle.value(self.members)


def _marginal_provider(rule: ScoringRule, oracle: ValuationOracle):
    if rule.kind == "noisy-distorted":
        return _TrajectoryMinMarginals(oracle)
    return _PlainMarginals(oracle)


def _validate_rule(rule: ScoringRule, oracle: ValuationOracle) -> None:
    if not rule.diminishing_return and rule.horizon != oracle.n:
        raise ValueError(
            f"rule horizon {rule.horizon} does not match the {oracle.n}-seller instance"
        )


def run_meta(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids,
    seed: RandomSeed | int | None = None,
    *,
    excluded: int | None = None,
) -> SelectionTrace:
    """One full n-round run of the meta selection algorithm.

    ``excluded`` marks a seller whose bid is treated as raised to infinity
    (it scores below every candidate and is never admitted); payments use
    this instead of a float infinity so ratio rules never see NaNs.
    """
    n = oracle.n
    _validate_rule(rule, oracle)
    bids = _check_bids(bids, n)
    seed = as_random_seed(seed)
    provider = _marginal_provider(rule, oracle)

    rounds = rule.cardinality if rule.cardinality is not None else n
    remaining = [i for i in range(n)]
    tentatives: list[tuple[int, ...]] = [()]
    current: list[int] = []
    chosen_at: dict[int, int] = {}
    scores_at: dict[int, float] = {}

    for k in range(1, rounds + 1):
        provider.begin_round(k)
        batch = seed.round_batch(k, n, rule.batch_size()) if rule.randomized else None
        best_i = None
        best_score = NOT_SAMPLED
        for i in remaining:
            if i == excluded:
                continue
            if batch is not None and i not in batch:
                continue
            sc = rule.score_from_marginal(provider.get(i), bids[i], k)
            if best_i is None or sc > best_score:
                best_i, best_score = i, sc
        if best_i is not None and best_score > 0.0:
            provider.admit(best_i)
            remaining.remove(best_i)
            current.append(best_i)
            chosen_at[best_i] = k
            scores_at[best_i] = best_score
        tentatives.append(canonical_set(current))

    while len(tentatives) < n + 1:
        tentatives.append(tentatives[-1])

    return SelectionTrace(tuple(tentatives), chosen_at, scores_at)


def run_meta_lazy(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids,
    seed: RandomSeed | int | None = None,
    *,
    excluded: int | None = None,
) -> SelectionTrace:
    """Lazy-queue implementation; requires a diminishing-return rule.

    Produces the same winner set and admission rounds as ``run_meta``:
    because these rules' scores only shrink as the tentative set grows and
    ignore the round index, admissions happen in consecutive rounds and the
    loop may stop at the first round whose best fresh score is not positive.

    Queue entries carry the admission count at which they were scored; an
    entry popped with a current stamp is already fresh, which breaks the
    re-score cycle that exact score ties would otherwise cause.
    """
    if not rule.diminishing_return:
        raise UnsupportedRuleError(f"rule {rule.kind!r} has no diminishing-return structure")
    n = oracle.n
    bids = _check_bids(bids, n)
    provider = _PlainMarginals(oracle)

    heap: list[tuple[float, int, int]] = []
    for i in range(n):
        if i == excluded:
            continue
        heap.append((-rule.score_from_marginal(provider.get(i), bids[i], 1), i, 0))
    heapq.heapify(heap)

    tentatives: list[tuple[int, ...]] = [()]
    current: list[int] = []
    chosen_at: dict[int, int] = {}
    scores_at: dict[int, float] = {}
    k = 0

    while k < n and heap:
        best_i = None
        best_score = NOT_SAMPLED
        while heap:
            neg, i, stamp = heapq.heappop(heap)
            if stamp == k:
                best_i, best_score = i, -neg
                break
            fresh = rule.score_from_marginal(provider.get(i), bids[i], k + 1)
            runner_up = -heap[0][0] if heap else NOT_SAMPLED
            if fresh > max(0.0, runner_up) or runner_up < 0.0:
                best_i, best_score = i, fresh
                break
            heapq.heappush(heap, (-fresh, i, k))
        if best_i is None or not best_score > 0.0:
            if best_i is not None:
                heapq.heappush(heap, (-best_score, best_i, k))
            break
        provider.admit(best_i)
        current.append(best_i)
        k += 1
        chosen_at[best_i] = k
        scores_at[best_i] = best_score
        tentatives.append(canonical_set(current))

    while len(tentatives) < n + 1:
        tentatives.append(tentatives[-1])

    return SelectionTrace(tuple(tentatives), chosen_at, scores_at)

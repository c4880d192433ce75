"""The greedy selection engine: the meta loop, run naively or lazily.

``_greedy_rounds`` scores every remaining candidate each round and admits
the lexicographically-first argmax while its score is strictly positive;
``_lazy_rounds`` keeps a max-heap of stale scores and re-scores only the
top until its fresh score provably dominates (Minoux 1978), which is exact
for a diminishing-return rule on a provider whose marginals never grow
(``_lazy_exact``).  Both yield the same (k, batch, argmax, score) tuples,
and yield before they admit, so the caller sees the provider (and the lazy
heap) at the set the round was scored on.  ``run_meta`` and
``sealed_bid.run_sealed_bid`` take the lazy engine exactly where it is
exact (``_allocation``), and so do the critical-bid payments: at each
winner's admission the sealed-bid mechanism copies the provider
(``copy()``) and, on the lazy engine, the heap, then resumes the same
engine from that checkpoint over the other remaining sellers
(``_greedy_rounds(start=k)``, or ``_lazy_rounds`` on the copied heap); a
naive run of a round-indexed deterministic rule on a
coverage oracle with at least ``ARRAY_ROUND_MIN`` sellers instead advances
all those continuations together, one array round per round index, with
the same rounds float for float (``sealed_bid._Lockstep``).  The provider
is the oracle's own scratch; the noisy rule reads it through
``_TrajectoryMinMarginals``, a running minimum of its marginals, scalar or
array alike.

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

A lazy heap entry is stamped with the round whose set scored it (the
seed with round 1), and it is fresh in that round: round k scores at
S_{k-1}, and lazy admissions fall in consecutive rounds.  So a payment
continuation that resumes at round k from a plain copy of the heap keeps
every entry the allocation re-scored in round k, at its own set.  Staleness
is exact on a coverage scratch where the caller keeps ``changed``: each
lazy admission at round k stamps ``changed[w] = k`` on every holder w of a
vertex it newly covers (the vertices come from the scratch's own walk over
the admitted cover, ``CoverageScratch.add_covering``), and an entry
stamped r is fresh while ``changed[w] < r``, since w's marginal then sums
the same terms in the same order, to the same float.  The sealed-bid
mechanism keeps the list when it pays every winner, and each continuation
takes a copy.  ``run_meta`` and a ``focus`` run keep none: with one pass,
or one continuation, to serve, the bookkeeping costs more than the
re-scores it saves (on a 2-vCPU Xeon VM, keeping it made perfbench
alloc-sweep's lazy rules 4-6% slower, and property-check's diminishing
rules, focus runs at n <= 10, about 5%).  Other providers use the stamps
alone.

Dead sellers leave the meta loop.  A seller is dead once a read of its
marginal m gives m <= beta * b (``ScoringRule.retirement_floors``; beta is
2 for cost-scaled, x for the noisy rule and 1 otherwise), which is exactly
"its score at round n, where alpha is 1, is not positive", for all six
deterministic rules, ratio rules, zero and +inf bids included.  alpha_k
never exceeds 1 and, on a provider whose marginals never grow, m never
rises again, so a dead seller is never admitted.  It never binds a payment
either: as the argmax it scores at most 0, so its argmax threshold is at
least the winner's positive threshold and the ``min`` in
``sealed_bid._critical_payment`` keeps the same float.  So a pass drops
the dead from its candidates after each round (in an array round, one mask
``m > floors``, taken only when the round read at a new set or admitted,
since a later read at the same set repeats it), and when none is left it
yields ``(n, None, None, NOT_SAMPLED)`` and ends: the set no longer changes
and alpha never decreases, so round n's positive threshold bounds every
round it skips.  A round-free rule gets there right after its first round
without an admission, and the lazy engine yields the same tuple once its
heap holds no positive score.  Winners, admission rounds, scores, payments
and traces keep their bits; only the query count falls.

Which passes prune, and where a diminishing-return rule runs lazily, is a
class-level fact of the provider (``marginals_shrink``): the coverage,
additive and adversarial-family oracles' scratches, and
``_TrajectoryMinMarginals`` (a running minimum), do; a bare
``NoisyScratch`` and the scratch of any other ``ValuationOracle``
subclass do not.  A stochastic pass never prunes: a
winner's rounds there depend on its batch.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .scoring import (
    NOT_SAMPLED,
    RandomSeed,
    ScoringRule,
    _validate_rule,
    as_random_seed,
)
from .valuation import CoverageScratch, ValuationOracle

#: Fewest scored candidates for which a meta-loop round uses the array
#: kernel; below it numpy's per-call overhead exceeds the scalar loop.
ARRAY_ROUND_MIN = 32


@dataclass
class SelectionTrace:
    """Full record of one selection run over n sellers.

    ``chosen_at`` maps the admitted sellers, in admission order, to their
    admission rounds and ``scores_at_admission`` to the scores that
    admitted them; the tentative sets S_0 .. S_n are derived from these.
    """

    n: int
    chosen_at: dict[int, int] = field(default_factory=dict)
    scores_at_admission: dict[int, float] = field(default_factory=dict)

    def admit(self, i: int, k: int, score: float) -> None:
        self.chosen_at[i] = k
        self.scores_at_admission[i] = score

    @property
    def order(self) -> list[int]:
        return list(self.chosen_at)

    @property
    def winners(self) -> tuple[int, ...]:
        return tuple(sorted(self.chosen_at))

    def _rounds(self, freeze: Callable[[list[int]], Sequence[int]]) -> list:
        """S_0 .. S_n, each made by ``freeze`` from the running sorted list;
        a round without an admission reuses the previous round's object."""
        current: list[int] = []
        sets = [freeze(current)]
        for k, i in sorted(zip(self.chosen_at.values(), self.chosen_at)):
            sets += [sets[-1]] * (k - len(sets))
            bisect.insort(current, i)
            sets.append(freeze(current))
        sets += [sets[-1]] * (self.n + 1 - len(sets))
        return sets

    @property
    def tentative_sets(self) -> tuple[tuple[int, ...], ...]:
        """S_0 .. S_n in one pass over the admissions."""
        return tuple(self._rounds(tuple))

    def to_json(self) -> dict:
        """The trace as a JSON-ready document, to be read and not changed:
        the ``tentative_sets`` lists of consecutive rounds without an
        admission are one list object."""
        return {
            "tentative_sets": self._rounds(list),
            "chosen_at": {str(i): k for i, k in self.chosen_at.items()},
            "scores_at_admission": {str(i): s for i, s in self.scores_at_admission.items()},
            "winners": list(self.winners),
        }


def _check_bids(bids, n: int) -> list[float]:
    """Bids (or costs) as n floats; rejects a wrong length, NaN and negatives.

    +inf is accepted: such a seller's score is never positive, so it is
    never admitted.  The checks are C-level passes (a NaN makes the sum
    NaN; ``min`` of nonnegatives is nonnegative); only a failing input
    takes the per-element loops, which name the error, NaN first.
    """
    bids = list(map(float, bids))
    if len(bids) != n:
        raise ValueError(f"expected {n} bids, got {len(bids)}")
    if bids and not (min(bids) >= 0.0 and not math.isnan(sum(bids))):
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

    The minima are one float64 array: array reads go through numpy, and
    scalar reads through a memoryview of the same buffer, which reads and
    writes Python floats without a numpy scalar.  Like a scratch, the
    provider answers ``marginal`` (checked, one query) and ``_marginal``
    (unchecked, uncharged, for ``_best_of``).

    A running minimum never grows, whatever the oracle, so the provider's
    marginals shrink even on a ``NoisyOracle``.
    """

    marginals_shrink = True

    def __init__(self, scratch, minima: np.ndarray | None = None):
        self.scratch = scratch
        self.oracle = scratch.oracle
        self._min = np.full(scratch.oracle.n, math.inf) if minima is None else minima
        self._scalar_min = memoryview(self._min)

    def marginal(self, i: int) -> float:
        if i in self.scratch:
            raise ValueError(f"seller {i} already in the set")
        self.oracle._queries += 1
        return self._marginal(i)

    def _marginal(self, i: int) -> float:
        cur = self.scratch._marginal(i)
        low = self._scalar_min[i]
        if cur < low:
            self._scalar_min[i] = cur
            return cur
        return low

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


def _prunes(rule: ScoringRule, provider) -> bool:
    """Whether a pass retires dead sellers and jumps to round n: only where
    the provider's marginals never grow and no stochastic batch gates i's
    rounds."""
    return provider.marginals_shrink and not rule.randomized


def _best_of(rule: ScoringRule, provider, bids, scored, k: int, floors) -> tuple:
    """(argmax, score, dead) over ``scored`` one marginal at a time; the first maximum wins.

    No scored candidate is in the set, so, like an array round's
    ``marginals``, the round charges its ``len(scored)`` queries at once and
    reads through the provider's unchecked ``_marginal``.  ``dead`` lists
    the scored sellers whose marginal is at most their floor
    (``ScoringRule.retirement_floors``); with ``floors`` None it stays empty.
    """
    provider.oracle._queries += len(scored)
    marginal, score_of = provider._marginal, rule.score_from_marginal
    best_i = None
    best_score = NOT_SAMPLED
    dead = []
    for i in scored:
        m = marginal(i)
        sc = score_of(m, bids[i], k)
        if best_i is None or sc > best_score:
            best_i, best_score = i, sc
        if floors is not None and m <= floors[i]:
            dead.append(i)
    return best_i, best_score, dead


def _scalar_rounds(rule: ScoringRule, provider, bids, seed: RandomSeed, candidates, start: int = 1) -> Iterator[tuple]:
    """The meta loop scored one candidate at a time: small and stochastic passes, and the reference.

    A stochastic round scores its ascending batch's remaining members, so
    the first maximum is still the lexicographically-first argmax.  Where
    the pass prunes (``_prunes``), a round's dead sellers leave
    ``remaining`` once the caller resumes, and once none is left the pass
    yields round n and ends.
    """
    n = len(bids)
    floors = rule.retirement_floors(bids) if _prunes(rule, provider) else None
    remaining = dict.fromkeys(candidates)  # ascending, with O(1) lookup and removal
    for k in range(start, n + 1):
        if not remaining and floors is not None:
            yield n, None, None, NOT_SAMPLED
            return
        batch = seed.round_batch(k, n) if rule.randomized else None
        scored = remaining if batch is None else [i for i in batch if i in remaining]
        best_i, best_score, dead = _best_of(rule, provider, bids, scored, k, floors)
        yield k, batch, best_i, best_score
        if best_i is not None and best_score > 0.0:
            provider.add(best_i)
            del remaining[best_i]
        for i in dead:
            del remaining[i]


def _greedy_rounds(rule: ScoringRule, provider, bids, seed: RandomSeed, candidates, start: int = 1) -> Iterator[tuple]:
    """The meta loop: yields (k, batch, argmax, score) for rounds ``start`` .. n = ``len(bids)``.

    The argmax (None when no candidate was scored) is admitted when the
    caller resumes, iff its score is strictly positive; until then the
    provider still answers against the set the round was scored on.
    ``candidates`` must be ascending, so the first maximum is the
    lexicographically-first argmax.  A pass with ``start`` > 1 resumes a
    run whose provider holds the set of its first ``start - 1`` rounds.

    Where ``_prunes`` holds, a seller whose marginal read is at most its
    retirement floor is dead: its score is not positive now or in any later
    round, so it leaves the candidates after the round.  When none is left,
    the pass yields ``(n, None, None, NOT_SAMPLED)`` for the rounds that
    remain and ends (see the module docstring).

    A round with at least ``ARRAY_ROUND_MIN`` scored candidates reads their
    marginals with one ``provider.marginals`` call, scores them with
    ``rule.scores`` and retires the dead with one mask; smaller rounds, and
    passes that start smaller, use the scalar loop.  Both yield the same
    tuples, as Python ints and floats.  A stochastic round scores at most
    ``STOCHASTIC_BATCH`` = 3 < ``ARRAY_ROUND_MIN`` candidates, so a
    randomized rule's whole pass takes the scalar loop.
    """
    if rule.randomized or len(candidates) < ARRAY_ROUND_MIN:
        yield from _scalar_rounds(rule, provider, bids, seed, candidates, start)
        return
    remaining = np.array(candidates, dtype=np.intp)
    # The remaining candidates' bids and floors, filtered with them.
    own_bids = np.array(bids, dtype=float)[remaining]
    if _prunes(rule, provider):
        floors = np.array(rule.retirement_floors(bids))[remaining]
    else:  # a floor of -inf retires nobody
        floors = np.full(len(remaining), -math.inf)
    fresh = True  # the round reads at a set no earlier round of the pass read at
    for k in range(start, len(bids) + 1):
        if len(remaining) < ARRAY_ROUND_MIN:
            yield from _scalar_rounds(rule, provider, bids, seed, remaining.tolist(), k)
            return
        m = provider.marginals(remaining)
        scores = rule.scores(m, own_bids, k)
        j = int(np.argmax(scores))
        best_i, best_score = int(remaining[j]), float(scores[j])
        yield k, None, best_i, best_score
        admitted = best_score > 0.0
        if fresh or admitted:  # a later read at the same set repeats this one, which retired its dead
            keep = m > floors
            if admitted:
                provider.add(best_i)
                keep[j] = False
            remaining, own_bids, floors = remaining[keep], own_bids[keep], floors[keep]
        fresh = admitted


def _lazy_heap(rule: ScoringRule, provider, bids, candidates) -> list[tuple[float, int, int]]:
    """The lazy greedy's queue: every candidate scored at the provider's set, stamped round 1."""
    if len(candidates) < ARRAY_ROUND_MIN:
        seeds = [rule.score_from_marginal(provider.marginal(i), bids[i], 1) for i in candidates]
    else:  # the seed scores every candidate, like a meta-loop round
        idx = np.array(candidates, dtype=np.intp)
        seeds = rule.scores(provider.marginals(idx), np.array(bids, dtype=float)[idx], 1).tolist()
    heap = [(-score, i, 1) for score, i in zip(seeds, candidates)]
    heapq.heapify(heap)
    return heap


def _lazy_rounds(
    rule: ScoringRule, provider, bids, heap: list, start: int = 1, changed: list[int] | None = None
) -> Iterator[tuple]:
    """Lazy greedy (Minoux 1978) as meta-loop rounds: yields (k, None, argmax, score) per admission.

    Exact only where ``_lazy_exact`` holds: diminishing-return scores only
    shrink as the set grows and ignore the round index, so a stale score
    bounds the fresh one, and admissions fall in consecutive rounds from
    ``start``.  Once no queued seller has a positive fresh score, no later
    round admits (the set, and so every score, stays), and the pass yields
    ``(n, None, None, NOT_SAMPLED)`` and ends: the naive pruned pass's jump
    to round n.

    ``heap`` (from ``_lazy_heap``, or a copy of a checkpoint's) is consumed
    in place, so at each yield the caller holds the queue as it stands at
    the provider's set, without the argmax.  Each entry carries the round
    whose set scored it: round k scores at S_{k-1}, so an entry stamped k
    is fresh in round k, and a continuation that resumes at round k from a
    copy keeps those entries fresh.  A popped fresh entry breaks the
    re-score cycle that exact score ties would otherwise cause.  With
    ``changed`` (coverage scratches only), the pass also sets
    ``changed[w] = k`` for every holder w of a vertex that round k's
    admission newly covers, and an entry stamped r is fresh as soon as
    ``changed[w] < r``: w's marginal then sums the same terms in the same
    order as when it was scored, so it is the same float.  Which seller is
    admitted, and its score, depend only on the fresh scores, so any queue
    of valid upper bounds gives the same admissions.  A queued seller is
    never in the set, so each re-score charges its query and reads through
    the provider's unchecked ``_marginal``.
    """
    n = len(bids)
    oracle, marginal, score_of = provider.oracle, provider._marginal, rule.score_from_marginal
    heappop, heappush = heapq.heappop, heapq.heappush
    holders = None if changed is None else oracle.instance._vertex_holders()
    for k in range(start, n + 1):
        while heap:
            neg, i, stamp = heappop(heap)
            if stamp == k or (changed is not None and changed[i] < stamp):
                score = -neg
                break
            oracle._queries += 1
            score = score_of(marginal(i), bids[i], 1)
            runner_up = -heap[0][0] if heap else NOT_SAMPLED
            if (score > 0.0 and score > runner_up) or runner_up < 0.0:
                break
            heappush(heap, (-score, i, k))
        else:
            break
        if not score > 0.0:
            break
        yield k, None, i, score
        if changed is None:
            provider.add(i)
        else:
            for v in provider.add_covering(i):
                for w in holders[v]:
                    changed[w] = k
    yield n, None, None, NOT_SAMPLED


def _lazy_exact(rule: ScoringRule, provider) -> bool:
    """Whether the lazy engine admits what the meta loop admits: a
    diminishing-return rule on a provider whose marginals never grow."""
    return rule.diminishing_return and provider.marginals_shrink


def _allocation(
    rule: ScoringRule, oracle: ValuationOracle, bids, seed, lazy: bool | None, track: bool = False
) -> tuple:
    """(bids, seed, provider, queue, changed, rounds) of a checked run's allocation.

    ``lazy`` None picks the engine by ``_lazy_exact``; True or False forces
    it, for the reference checks that compare the two.  ``queue`` is the
    lazy heap, consumed by ``rounds``, and None on the meta loop.  With
    ``track`` set, a lazy run on a coverage scratch keeps ``changed``, the
    last round whose admission changed each seller's marginal (see
    ``_lazy_rounds``); otherwise ``changed`` is None.
    """
    n = oracle.n
    _validate_rule(rule, oracle)
    bids = _check_bids(bids, n)
    seed = as_random_seed(seed)
    provider = _marginal_provider(rule, oracle)
    if lazy is None:
        lazy = _lazy_exact(rule, provider)
    if not lazy:
        return bids, seed, provider, None, None, _greedy_rounds(rule, provider, bids, seed, range(n))
    heap = _lazy_heap(rule, provider, bids, range(n))
    changed = [0] * n if track and isinstance(provider, CoverageScratch) else None
    return bids, seed, provider, heap, changed, _lazy_rounds(rule, provider, bids, heap, 1, changed)


def run_meta(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids,
    seed: RandomSeed | int | None = None,
) -> SelectionTrace:
    """One full run of the meta selection algorithm, over n = ``oracle.n`` rounds.

    Lazy where that is exact (``_lazy_exact``); the meta loop otherwise.
    """
    return _run_meta(rule, oracle, bids, seed)


def _run_meta(rule: ScoringRule, oracle: ValuationOracle, bids, seed=None, lazy: bool | None = None) -> SelectionTrace:
    """``run_meta`` with the engine chosen by ``lazy`` as in ``_allocation``."""
    trace = SelectionTrace(oracle.n)
    for k, _, i, score in _allocation(rule, oracle, bids, seed, lazy)[-1]:
        if i is not None and score > 0.0:
            trace.admit(i, k, score)
    return trace

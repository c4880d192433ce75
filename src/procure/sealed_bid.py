"""Sealed-bid mechanisms: critical-bid payments, an exact optimizer, VCG.

The mechanism construction runs the meta selection loop on the reported
bids and prices each winner at its critical bid: per round, the supremum
bid at which the winner would simultaneously be the argmax and score
positive, with the winner's own bid raised to infinity.  The payment is
the maximum of those round suprema, which makes truthful reporting optimal
(Myerson) while the positive-score gate keeps the auctioneer's surplus
nonnegative.

Payments resume from the admission checkpoint.  Without winner i, rounds
1 .. k-1 before its admission at round k run exactly as in the allocation
(i was not their argmax), and i lost each of them at its own bid, so none
of their suprema exceeds b_i.  So when the allocation yields i at round k,
the mechanism copies the provider (and, on the lazy engine, the heap),
continues the allocation's engine from round k over the remaining sellers
other than i, and drops the copies once i is paid: extra memory is
O(n + vertices), never one state per winner.  One loop,
``_critical_payment``, prices either engine's continuation, and stops it
early once i's positive threshold, nondecreasing in i's shrinking marginal
and in alpha, is no greater than the running payment, wherever the pass
prunes dead sellers (see ``selection``), which every lazy pass does.

A lazy payment on a coverage scratch has two more exact exits (the proof
is in ``_critical_payment``).  Winner i's blockers (``_blockers``) pair
each still uncovered vertex of i's cover with each other seller that holds
it; once no pair has an uncovered vertex and a live seller (``_blocked``),
i's marginal m_i is final, and the payment is the larger of the running
payment and ``threshold_from_marginal(m_i, 0.0, n)``.  The mechanism tests
this at i's checkpoint, before it copies anything, so such a winner takes
no continuation (624 of the 2,066 lazy winners of a perfbench
sealed-payments cycle at seed 0), and a continuation tests it again after
each of its admissions.

A naive run that pays every winner of a round-indexed deterministic rule
on a plain coverage scratch with at least ``ARRAY_ROUND_MIN`` sellers
advances all its continuations in lockstep (``_Lockstep``): per round
index, one array round scores every open continuation's live candidates,
takes each one's first maximum and threshold, retires its dead, admits its
argmax and re-sums only the marginals that admission can change.  The
per-round values are the same floats as in ``_critical_payment``:
candidates stay ascending within a continuation, so its first maximum is
the lexicographic argmax; ``ScoringRule.thresholds`` is
``threshold_from_marginal`` element-wise for these affine rules; and each
re-sum adds the seller's cover values left to right, as the coverage
scratch does, rather than subtracting what was covered.  It charges the
queries the continuations would, so ``oracle_queries`` keeps its counts.
The other runs pay one winner at a time with ``_critical_payment``, the
reference: lazy runs, ``focus`` runs, stochastic runs, the noisy rule's
running minimum, other oracles, and runs with fewer sellers, where the
per-winner passes are faster (distorted on the synthetic graph
(1500, 600), s = 1, on a 2-vCPU Xeon VM: 1.96 against 2.49 ms a run at
n = 24, 4.34 against 4.14 ms at n = 32).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .scoring import RandomSeed, ScoringRule
from .selection import (
    ARRAY_ROUND_MIN,
    SelectionTrace,
    _allocation,
    _check_bids,
    _greedy_rounds,
    _lazy_rounds,
    _prunes,
)
from .valuation import CoverageScratch, ValuationOracle, sum_in_order, welfare


class CapacityError(ValueError):
    """Instance too large for exhaustive optimization; caller must subsample."""


@dataclass
class AuctionOutcome:
    """Winners, payments, and the trace that produced them.

    ``payments`` is indexed by seller and zero for losers; ``value`` is
    f(winners) as reported by the oracle that ran the auction.  ``ticks``
    is the number of clock ticks of a descending auction and None for every
    other mechanism; the CSV does not report it.
    """

    winners: tuple[int, ...]
    payments: tuple[float, ...]
    value: float
    trace: SelectionTrace | None = None
    ticks: int | None = None

    @property
    def total_payment(self) -> float:
        return sum_in_order(self.payments)

    @property
    def auctioneer_surplus(self) -> float:
        return self.value - self.total_payment

    def welfare(self, costs: Sequence[float]) -> float:
        """f(winners) minus the winners' true costs."""
        return self.value - sum_in_order(costs[i] for i in self.winners)


# ---------------------------------------------------------------------------
# Critical-bid payments: each winner's continuation from its admission
# ---------------------------------------------------------------------------


def _blockers(scratch: CoverageScratch, i: int) -> list[tuple[int, int]]:
    """(vertex, seller) pairs that can still change i's marginal: each vertex
    of i's cover that the scratch's set leaves uncovered, with each other
    seller that holds it, ordered by seller."""
    counts, holders = scratch._counts, scratch.oracle._vertex_holders()
    pairs = [(v, w) for v in scratch.oracle.covers[i] if not counts[v] for w in holders[v] if w != i]
    pairs.sort(key=itemgetter(1))
    return pairs


def _blocked(scratch: CoverageScratch, blockers: list[tuple[int, int]], floors: Sequence[float]) -> bool:
    """Whether a blocker lives at the scratch's set, testing the last first.

    A pair drops once its vertex is covered, and all of a seller's pairs
    drop once a read of its marginal is at most its retirement floor: the
    seller is dead, so no pass admits it.  Each read charges its query.
    """
    counts, marginal, oracle = scratch._counts, scratch._marginal, scratch.oracle
    while blockers:
        v, w = blockers[-1]
        if counts[v]:
            blockers.pop()
            continue
        oracle._queries += 1
        if marginal(w) > floors[w]:
            return True
        while blockers and blockers[-1][1] == w:
            blockers.pop()
    return False


def _critical_payment(
    rule: ScoringRule,
    provider,
    rounds: Iterator[tuple],
    bids: Sequence[float],
    i: int,
    blockers: list[tuple[int, int]] | None = None,
    floors: Sequence[float] | None = None,
) -> float:
    """max over rounds k' >= k of sup{ z : i argmax at round k' and score(z) > 0 }.

    ``rounds`` is winner i's continuation, on either engine: the rounds from
    its admission round k over the remaining sellers but i, of
    ``_greedy_rounds`` or ``_lazy_rounds``, on ``provider``, a copy of the
    allocation's at S_{k-1}.  Rounds before k cannot exceed b_i (i lost them
    at its own bid; see the module docstring), and i's marginal is read
    against each round's set before its argmax is admitted.  The supremum
    set is down-closed in z because scores are non-increasing in the bid,
    so it equals min(positive threshold, argmax threshold).

    For a winner the critical bid is at least its own report (it won at
    that report), so the running maximum starts there; this absorbs the
    downward ulp the analytic inversion can introduce at exact score ties.

    Exact early exit, where the pass prunes (``selection._prunes``): every
    later round k' contributes at most i's positive threshold there, which
    is max(0, alpha_k' m' / beta) for the affine rules and max(0, m') for
    the ratio rules, nondecreasing in both alpha and the marginal.  alpha
    never exceeds alpha_n = 1 and i's marginal m' never exceeds today's
    m_i (the provider's marginals never grow), so the round-k' term is at
    most ``threshold_from_marginal(m_i, 0.0, n)``.  Once that bound is no
    greater than the running payment, no later round can raise it, and
    the payment is final.  A pass's jump to round n is the same bound read
    at the last set.

    Both engines give the same float.  A lazy pass yields its admissions,
    each with a positive score, and then the jump to round n.  Against a
    positive target the threshold is at most the positive threshold, also
    as rounded floats (m - t, m - m t and m / (1 + t) are at most m for
    t > 0, and rounding is monotone), so the min is the argmax
    threshold, as on the naive pass.  A naive round whose argmax is not
    positive admits nobody, so every later round repeats it at the final
    set, and it contributes that set's positive threshold, which is what the
    jump reads.  These rules ignore the round index, so k and n price alike.

    Frozen-marginal exit, on a lazy pass over a coverage scratch
    (``blockers`` from ``_blockers`` at the checkpoint, which ``_blocked``
    found alive there): i's marginal sums the values of its uncovered
    vertices, and only the admission of another holder of one of them can
    cover it.  Once ``_blocked`` finds no blocker left, no seller the pass
    can still admit holds an uncovered vertex of i (a dead seller's
    marginal never rises above its floor again, so it never scores
    positive), so every later read of i's marginal sums the same terms in
    the same order as today's: m_i is final, as a float.  Every later
    round's term is then at most ``threshold_from_marginal(m_i, 0.0, n)``
    (these rules ignore the round index), and the pass's jump to round n
    contributes exactly that, so the payment is the larger of it and the
    running payment.  The test runs after each admission of the pass; the
    first round's set is the checkpoint's, where the blockers lived.
    """
    best = bids[i]
    n = len(bids)
    exits_early = _prunes(rule, provider)
    round_free = rule.diminishing_return  # its positive threshold at round j is the one at round n
    threshold = rule.threshold_from_marginal
    admitted = False  # whether the pass has admitted since the checkpoint tested the blockers
    for j, batch, comp_id, comp_score in rounds:
        if batch is not None and i not in batch:
            continue
        m_i = provider.marginal(i)
        z = positive = threshold(m_i, 0.0, j)
        if comp_id is not None:
            argmax = threshold(m_i, comp_score, j, wins_tie=i < comp_id)
            if argmax < z:
                z = argmax
        if z > best:
            best = z
        if exits_early and (positive if round_free else threshold(m_i, 0.0, n)) <= best:
            break
        if blockers is not None and comp_id is not None:
            if admitted and not _blocked(provider, blockers, floors):
                return positive  # above the running payment, and i's marginal is final
            admitted = True
    return best


class _Lockstep:
    """Every naive continuation of one coverage run, advanced one round index at a time.

    A continuation is a row: winner i, its running payment, its own marginal
    m_i, its covered-vertex mask (row ``id`` of ``covered``, where id counts
    the rows opened before it) and its live candidates.  The live candidates
    of all open rows are one flat list of pairs, grouped by row in opening
    order and ascending within a row, each with its key id * n + seller and
    its marginal; ``counts`` holds each row's share.  ``open`` starts a row
    at the allocation's checkpoint: the set S_{k-1} and its marginal vector,
    and every seller not yet admitted but i.  ``_round`` then advances every
    open row by one round with one pass over the pairs, and does for each
    row what ``_critical_payment`` does, float for float and query for
    query; see ``run_sealed_bid``.
    """

    def __init__(self, rule: ScoringRule, scratch, bids: Sequence[float]):
        oracle = scratch.oracle
        self.rule, self.scratch, self.oracle, self.n = rule, scratch, oracle, oracle.n
        self.bids = np.array(bids)
        self.floors = np.array(rule.retirement_floors(bids))
        self.cover_rows = oracle._cover_rows()
        offsets, self.sharers = oracle._neighbours()
        self.share_begin, self.share_len = offsets[:-1], np.diff(offsets)
        self.payments: dict[int, float] = {}
        self.round = 0  # the last round every open row has run
        self.unadmitted = np.ones(self.n, dtype=bool)
        self.allocated = np.zeros(len(oracle.vertex_values) + 1, dtype=bool)  # covered at S_{k-1}, and the sentinel
        self.covered = np.zeros((8, len(self.allocated)), dtype=bool)
        self.opened = 0
        self.fresh = False  # whether a row reads at a set no earlier round of it read at
        # The open rows.
        self.ids = np.zeros(0, dtype=np.intp)
        self.winner = np.zeros(0, dtype=np.intp)
        self.best = np.zeros(0)  # the running payment
        self.own = np.zeros(0)  # m_i
        self.counts = np.zeros(0, dtype=np.intp)
        # Their live candidates.
        self.key = np.zeros(0, dtype=np.intp)
        self.seller = np.zeros(0, dtype=np.intp)
        self.m = np.zeros(0)

    def open(self, i: int, k: int) -> None:
        """Start winner i's continuation at round k; the scratch is at S_{k-1}."""
        self.run_to(k - 1)
        vector = self.scratch._marginal_vector()
        self.unadmitted[i] = False
        others = np.flatnonzero(self.unadmitted)
        if not len(others):  # the pass yields round n at once
            self.oracle._queries += 1
            self.payments[i] = max(self.bids[i].item(), self.rule.threshold_from_marginal(vector[i].item(), 0.0, self.n))
        else:
            row = self.opened
            self.opened += 1
            if row == len(self.covered):
                self.covered = np.concatenate((self.covered, np.zeros_like(self.covered)))
            self.covered[row] = self.allocated
            self.ids = np.concatenate((self.ids, (row,)))
            self.winner = np.concatenate((self.winner, (i,)))
            self.best = np.concatenate((self.best, self.bids[i : i + 1]))
            self.own = np.concatenate((self.own, vector[i : i + 1]))
            self.counts = np.concatenate((self.counts, (len(others),)))
            self.key = np.concatenate((self.key, row * self.n + others))
            self.seller = np.concatenate((self.seller, others))
            self.m = np.concatenate((self.m, vector[others]))
            self.fresh = True
        self.allocated[self.cover_rows[i]] = True

    def run_to(self, last: int) -> None:
        """Runs every open row through round ``last``."""
        for j in range(self.round + 1, last + 1):
            if not len(self.counts):
                break
            self._round(j)
        self.round = max(self.round, last)

    def finish(self) -> dict[int, float]:
        """Each winner's payment, once every row has run to its end."""
        self.run_to(self.n)
        return self.payments

    def _round(self, j: int) -> None:
        """Round j of every open row: ``_critical_payment``'s loop body, then
        the admission and retirements of ``_greedy_rounds``."""
        rule, n, oracle = self.rule, self.n, self.oracle
        counts, seller, m, own = self.counts, self.seller, self.m, self.own
        oracle._queries += len(m) + len(counts)  # every pair's score, and each row's m_i
        scores = rule.scores(m, self.bids[seller], j)
        starts = np.cumsum(counts) - counts
        top = np.maximum.reduceat(scores, starts)
        at_top = np.flatnonzero(scores == np.repeat(top, counts))
        first = at_top[np.searchsorted(at_top, starts)]  # each row's first maximum: its argmax
        rival = seller[first]
        z = np.minimum(rule.thresholds(own, 0.0, j), rule.thresholds(own, top, j))
        best = self.best = np.where(z > self.best, z, self.best)
        done = rule.thresholds(own, 0.0, n) <= best  # the early exit: the payment is final
        admit = top > 0.0
        admit[done] = False
        admits = np.flatnonzero(admit)
        oracle._queries += len(admits)
        if j == n:
            self._close(np.ones(len(counts), dtype=bool))
            return
        ending = done.any()
        if not (self.fresh or len(admits) or ending):
            return  # every row reads at a set an earlier round read at, which retired its dead
        keep = m > self.floors[seller]  # the dead retire
        keep[first[admits]] = False
        if ending:
            keep &= np.repeat(~done, counts)
        self.counts = counts = np.add.reduceat(keep, starts, dtype=np.intp)
        self.key, self.seller, self.m = self.key[keep], seller[keep], m[keep]
        self.fresh = len(admits) > 0
        if self.fresh:
            self._admit(admits, rival[admits])
        ended = counts == 0
        if ended.any():
            last = ended & ~done  # no candidate is left: the pass yields round n
            oracle._queries += int(np.count_nonzero(last))
            z = rule.thresholds(self.own[last], 0.0, n)
            self.best[last] = np.where(z > self.best[last], z, self.best[last])
            self._close(ended)

    def _admit(self, rows: np.ndarray, admitted: np.ndarray) -> None:
        """Covers each row's admitted seller and re-sums the marginals it can
        change: the row's pairs whose seller shares a vertex with it, and m_i."""
        ids = self.ids[rows]
        self.covered[ids[:, None], self.cover_rows[admitted]] = True
        lengths = self.share_len[admitted]
        ends = np.cumsum(lengths)
        at = np.arange(ends[-1]) + np.repeat(self.share_begin[admitted] + lengths - ends, lengths)
        owner = np.repeat(ids, lengths)
        wanted = owner * self.n + self.sharers[at]
        key = self.key
        hit = np.minimum(np.searchsorted(key, wanted), len(key) - 1)
        found = key[hit] == wanted if len(key) else np.zeros(len(wanted), dtype=bool)
        hit, owner = hit[found], owner[found]
        sums = self.oracle._masked_marginals(
            self.covered, np.concatenate((owner, ids)), np.concatenate((self.seller[hit], self.winner[rows]))
        )
        self.m[hit] = sums[: len(hit)]
        self.own[rows] = sums[len(hit) :]

    def _close(self, ended: np.ndarray) -> None:
        self.payments.update(zip(self.winner[ended].tolist(), self.best[ended].tolist()))
        live = ~ended
        self.ids, self.winner, self.best = self.ids[live], self.winner[live], self.best[live]
        self.own, self.counts = self.own[live], self.counts[live]


def _lockstep_eligible(rule: ScoringRule, provider, focus: int | None) -> bool:
    """Whether ``run_sealed_bid`` pays through ``_Lockstep``: every winner is
    paid, the rule draws nothing and uses the round index (the others run
    lazily), the provider is a plain coverage scratch and the run has at
    least ``ARRAY_ROUND_MIN`` sellers."""
    return (
        focus is None
        and not rule.randomized
        and not rule.diminishing_return
        and type(provider) is CoverageScratch
        and provider.oracle.n >= ARRAY_ROUND_MIN
    )


def run_sealed_bid(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids,
    seed: RandomSeed | int | None = None,
    *,
    focus: int | None = None,
) -> AuctionOutcome:
    """Allocate via the meta loop and pay every winner its critical bid.

    Each winner is paid from the allocation's checkpoint at its admission,
    with the same seed as the allocation.  ``focus`` restricts the payment
    computation to one seller, for callers that only need that seller's
    outcome (incentive checks); it must be None or a seller index.  The
    allocation is lazy where that is exact (``selection._lazy_exact``), and
    so is every continuation; on a coverage oracle, a lazy winner whose
    marginal no seller left to admit can change is paid with no
    continuation (see the module docstring).  Runs that
    ``_lockstep_eligible`` admits pay every winner at once through
    ``_Lockstep``; the others pay each winner with ``_critical_payment`` on
    a copy of the provider.
    """
    return _run_sealed_bid(rule, oracle, bids, seed, focus=focus)


def _run_sealed_bid(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids,
    seed: RandomSeed | int | None = None,
    *,
    focus: int | None = None,
    lazy: bool | None = None,
) -> AuctionOutcome:
    """``run_sealed_bid`` with the engine chosen by ``lazy`` as in ``selection._allocation``."""
    n = oracle.n
    if focus is not None and not (isinstance(focus, (int, np.integer)) and 0 <= focus < n):
        raise ValueError(f"focus must be None or a seller index in range({n}), got {focus!r}")
    # A focus run pays one winner: tracking every admission for its one continuation costs more than it saves.
    bids, seed, provider, heap, changed, rounds = _allocation(rule, oracle, bids, seed, lazy, track=focus is None)
    lockstep = _Lockstep(rule, provider, bids) if _lockstep_eligible(rule, provider, focus) else None
    frozen_exits = heap is not None and isinstance(provider, CoverageScratch)
    floors = None  # the retirement floors, once a blocker test needs them
    trace = SelectionTrace(n)
    payments = [0.0] * n
    for k, _, i, score in rounds:
        if i is None or not score > 0.0:
            continue
        trace.admit(i, k, score)
        if lockstep is not None:
            lockstep.open(i, k)
        elif focus is None or i == focus:
            blockers = None
            if frozen_exits:
                floors = floors or rule.retirement_floors(bids)
                blockers = _blockers(provider, i)
                if not _blocked(provider, blockers, floors):  # m_i is final: see _critical_payment
                    payments[i] = max(bids[i], rule.threshold_from_marginal(provider.marginal(i), 0.0, n))
                    continue
            twin = provider.copy()
            if heap is None:
                others = [ell for ell in range(n) if ell not in trace.chosen_at]
                resumed = _greedy_rounds(rule, twin, bids, seed, others, start=k)
            else:
                resumed = _lazy_rounds(rule, twin, bids, heap.copy(), k, None if changed is None else changed.copy())
            payments[i] = _critical_payment(rule, twin, resumed, bids, i, blockers, floors)
    if lockstep is not None:
        for i, paid in lockstep.finish().items():
            payments[i] = paid
    return AuctionOutcome(trace.winners, tuple(payments), value=oracle.value(trace.winners), trace=trace)


# Only perfbench's SEALED_CONFIGS names this; ``run_sealed_bid`` picks the lazy engine itself.  It calls
# the body, not ``run_sealed_bid``, so perfbench's tracer, which wraps both names, sees one call per run.
def run_sealed_bid_lazy(rule, oracle, bids, seed=None, *, focus=None) -> AuctionOutcome:
    return _run_sealed_bid(rule, oracle, bids, seed, focus=focus)


# ---------------------------------------------------------------------------
# Exact welfare optimization (branch and bound over the inclusion tree)
# ---------------------------------------------------------------------------


def best_subset(
    oracle: ValuationOracle,
    costs: Sequence[float],
    candidates: Iterable[int],
    *,
    cap: int,
    prefer_small: bool = False,
) -> tuple[tuple[int, ...], float]:
    """argmax over subsets of ``candidates`` of f(S) - sum of costs.

    Branch and bound over include/exclude decisions; the bound at a node is
    the current welfare plus every undecided candidate's clipped margin
    max(0, f(j|S) - c_j), valid by submodularity.  Pruning is strict, so
    welfare ties are still explored and resolved deterministically: the
    lexicographically-least maximizer wins, preceded by minimal cardinality
    when ``prefer_small`` is set (demand-oracle semantics).  More than
    ``cap`` candidates raise ``CapacityError`` before any query.
    """
    cand = sorted(set(candidates))
    if len(cand) > cap:
        raise CapacityError(f"{len(cand)} candidates exceed the exhaustive cap {cap}")
    margin0 = {i: oracle.marginal(i, ()) for i in cand}
    order = sorted(cand, key=lambda i: (costs[i] - margin0[i], i))
    gains0 = [max(0.0, margin0[i] - costs[i]) for i in order]
    suffix = [0.0] * (len(order) + 1)
    for idx in range(len(order) - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] + gains0[idx]

    scratch = oracle.scratch()
    chosen: list[int] = []
    best = {"w": 0.0, "set": (), "key": (0, ()) if prefer_small else ()}

    def key_of(s: tuple[int, ...]):
        return (len(s), s) if prefer_small else s

    def consider(w: float) -> None:
        s = tuple(sorted(chosen))
        if w > best["w"] or (w == best["w"] and key_of(s) < best["key"]):
            best["w"], best["set"], best["key"] = w, s, key_of(s)

    def rec(idx: int, w: float) -> None:
        consider(w)
        if idx == len(order):
            return
        if w + suffix[idx] < best["w"]:
            return
        tight = w
        for j in range(idx, len(order)):
            tight += max(0.0, scratch.marginal(order[j]) - costs[order[j]])
        if tight < best["w"]:
            return
        i = order[idx]
        gain = scratch.marginal(i) - costs[i]
        scratch.add(i)
        chosen.append(i)
        rec(idx + 1, w + gain)
        chosen.pop()
        scratch.remove(i)
        rec(idx + 1, w)

    rec(0, 0.0)
    winners = best["set"]
    return winners, welfare(oracle, costs, winners)


def exact_opt(
    oracle: ValuationOracle,
    costs: Sequence[float],
    *,
    cap: int = 24,
    exclude: Iterable[int] = (),
) -> tuple[tuple[int, ...], float]:
    """Exact welfare maximizer and its welfare, over sellers not excluded."""
    costs = _check_bids(costs, oracle.n)
    excluded = set(exclude)
    return best_subset(oracle, costs, [i for i in range(oracle.n) if i not in excluded], cap=cap)


def run_vcg(
    oracle: ValuationOracle,
    bids,
    *,
    cap: int = 24,
) -> AuctionOutcome:
    """Welfare-optimal allocation with externality payments.

    p_i = (f(W) - sum of bids of W minus i) - (welfare of the best set
    excluding i); submodularity of f makes the payments sum to at most
    f(W), so the auctioneer's surplus is never negative.
    """
    bids = _check_bids(bids, oracle.n)
    winners, _ = exact_opt(oracle, bids, cap=cap)
    value = oracle.value(winners)
    payments = [0.0] * oracle.n
    for i in winners:
        others_cost = sum_in_order(bids[j] for j in winners if j != i)
        _, welfare_without = exact_opt(oracle, bids, cap=cap, exclude=(i,))
        payments[i] = (value - others_cost) - welfare_without
    return AuctionOutcome(winners, tuple(payments), value=value, trace=None)


# ---------------------------------------------------------------------------
# Mechanism verification
# ---------------------------------------------------------------------------

MechanismRunner = Callable[..., AuctionOutcome]


@dataclass
class IcViolation:
    seller: int
    deviation_bid: float
    truthful_utility: float
    deviated_utility: float


@dataclass
class IcReport:
    violations: list[IcViolation]
    sellers_checked: int
    deviations_checked: int

    @property
    def passed(self) -> bool:
        return not self.violations


def _utility(outcome: AuctionOutcome, i: int, cost: float) -> float:
    return outcome.payments[i] - (cost if i in outcome.winners else 0.0)


def _check_tol(tol: float) -> None:
    """A NaN, negative or infinite tolerance would pass or fail every check."""
    if not 0.0 <= tol < math.inf:  # False for NaN
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def verify_ic(
    runner: MechanismRunner,
    oracle: ValuationOracle,
    costs: Sequence[float],
    grid: int = 20,
    seed: RandomSeed | int | None = None,
    tol: float = 1e-9,
) -> IcReport:
    """Check that no unilateral misreport beats truthful bidding.

    For each seller, every deviation bid on a grid spanning [0, 2 f(i|0)]
    is run against the truthful profile of the others (same seed), and the
    seller's utility at its true cost must not improve beyond ``tol``.
    A grid of fewer than two points, which would check no deviation or
    only the zero bid, raises ``ValueError``, as do a bad ``tol`` and costs
    of the wrong length, NaN or negative, before the runner is called.
    """
    _check_tol(tol)
    if grid < 2:
        raise ValueError(f"the deviation grid needs at least two points, got {grid}")
    n = oracle.n
    costs = _check_bids(costs, n)
    truthful = runner(oracle, costs, seed=seed)
    violations: list[IcViolation] = []
    deviations = 0
    for i in range(n):
        u_true = _utility(truthful, i, costs[i])
        hi = 2.0 * oracle.marginal(i, ())
        for b in np.linspace(0.0, hi, grid):
            dev = costs.copy()
            dev[i] = float(b)
            outcome = runner(oracle, dev, seed=seed, focus=i)
            deviations += 1
            u_dev = _utility(outcome, i, costs[i])
            if u_dev > u_true + tol:
                violations.append(IcViolation(i, float(b), u_true, u_dev))
    return IcReport(violations, sellers_checked=n, deviations_checked=deviations)


def verify_nas(outcome: AuctionOutcome, oracle: ValuationOracle, tol: float = 1e-9) -> bool:
    """True iff the acquired value covers the total payment."""
    _check_tol(tol)
    return oracle.value(outcome.winners) >= outcome.total_payment - tol


def verify_ir(outcome: AuctionOutcome, bids: Sequence[float], tol: float = 1e-9) -> bool:
    """True iff every winner is paid at least its reported bid."""
    _check_tol(tol)
    return all(outcome.payments[i] >= bids[i] - tol for i in outcome.winners)


def sealed_bid_runner(rule: ScoringRule) -> MechanismRunner:
    """Adapter so verification suites can treat the mechanism as a black box."""

    def runner(oracle, bids, seed=None, focus=None):
        return run_sealed_bid(rule, oracle, bids, seed, focus=focus)

    return runner

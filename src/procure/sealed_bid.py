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
the mechanism copies the provider (and, lazily, the heap), continues the
greedy from round k over the remaining sellers other than i, and drops the
copies once i is paid: extra memory is O(n + vertices), never one state
per winner.  The lazy continuation also stops early: i's marginal only
shrinks along it, and i's positive threshold is nondecreasing in that
marginal, so once the threshold is no greater than the running payment no
later round can raise the payment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .scoring import RandomSeed, ScoringRule, UnsupportedRuleError, _validate_rule, as_random_seed
from .selection import (
    SelectionTrace,
    _check_bids,
    _greedy_rounds,
    _lazy_greedy,
    _lazy_heap,
    _marginal_provider,
    _stale_copy,
)
from .valuation import ValuationOracle, sum_in_order, welfare


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
# Critical-bid payments (naive: the meta loop resumed at each admission)
# ---------------------------------------------------------------------------


def _critical_payment(
    rule: ScoringRule,
    provider,
    bids: Sequence[float],
    seed: RandomSeed,
    i: int,
    k: int,
    others: Sequence[int],
) -> float:
    """max over rounds k' >= k of sup{ z : i argmax at round k' and score(z) > 0 }.

    ``provider`` is a copy of the allocation's at S_{k-1}, the set before
    i's admission at round k, and ``others`` the remaining sellers but i,
    ascending.  Rounds before k cannot exceed b_i (i lost them at its own
    bid; see the module docstring), so the meta loop resumes at round k,
    and i's marginal is read against each round's set before the argmax is
    admitted.  The supremum set is down-closed in z because scores are
    non-increasing in the bid, so it equals min(positive threshold, argmax
    threshold).

    For a winner the critical bid is at least its own report (it won at
    that report), so the running maximum starts there; this absorbs the
    downward ulp the analytic inversion can introduce at exact score ties.
    """
    best = bids[i]
    for j, batch, comp_id, comp_score in _greedy_rounds(rule, provider, bids, seed, others, len(bids), start=k):
        if batch is not None and i not in batch:
            continue
        m_i = provider.marginal(i)
        z = rule.threshold_from_marginal(m_i, 0.0, j)
        if comp_id is not None:
            z = min(z, rule.threshold_from_marginal(m_i, comp_score, j, wins_tie=i < comp_id))
        if z > best:
            best = z
    return best


def run_sealed_bid(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids,
    seed: RandomSeed | int | None = None,
    *,
    focus: int | None = None,
) -> AuctionOutcome:
    """Allocate via the meta loop and pay every winner its critical bid.

    Each winner is paid when the allocation admits it, from a copy of the
    allocation's provider; the same seed drives the allocation and every
    resumed pass.  ``focus`` restricts the payment computation to one
    seller, for callers that only need that seller's outcome (incentive
    checks).
    """
    if rule.cardinality is not None:
        raise UnsupportedRuleError("the mechanism runs n rounds; cardinality-capped rules are not supported")
    n = oracle.n
    _validate_rule(rule, oracle)
    bids = _check_bids(bids, n)
    seed = as_random_seed(seed)
    provider = _marginal_provider(rule, oracle)
    trace = SelectionTrace(n)
    payments = [0.0] * n
    for k, _, i, score in _greedy_rounds(rule, provider, bids, seed, range(n), n):
        if i is None or not score > 0.0:
            continue
        trace.admit(i, k, score)
        if focus is None or i == focus:
            others = [ell for ell in range(n) if ell not in trace.chosen_at]
            payments[i] = _critical_payment(rule, provider.copy(), bids, seed, i, k, others)
    return AuctionOutcome(trace.winners, tuple(payments), value=oracle.value(trace.winners), trace=trace)


# ---------------------------------------------------------------------------
# Lazy payments for diminishing-return rules
# ---------------------------------------------------------------------------


def _critical_payment_lazy(
    rule: ScoringRule,
    scratch,
    bids: Sequence[float],
    i: int,
    k: int,
    heap: list,
) -> float:
    """Continue the lazy greedy without i from its admission checkpoint.

    ``scratch`` is a copy of the allocation's at S_{k-1} and ``heap`` its
    queue at that point with every entry stamped stale (still upper bounds
    of the fresh scores, so the continuation admits what a fresh queue
    would).  Rounds before the admission cannot exceed the winner's own bid,
    so the running payment starts at bids[i].  Once the continuation runs
    out of positive competitors the remaining rounds all contribute i's
    positive threshold at the final tentative set, which is added as the
    closing term.  These rules ignore the round index, so every threshold
    is taken at i's admission round.

    Exact early exit: i's marginal never grows along the continuation
    (submodularity; a left-to-right sum of nonnegative floats over fewer
    terms is never larger), and i's positive threshold is nondecreasing in
    the marginal for the four diminishing rules and bounds every later
    argmax threshold (a competitor's positive score only lowers it).  So
    once that threshold is no greater than the payment, neither a later
    round nor the closing term can raise it, and the payment is final.
    """
    payment = bids[i]
    for ell, score in _lazy_greedy(rule, scratch, bids, heap, len(heap)):
        m_i = scratch.marginal(i)
        z = rule.threshold_from_marginal(m_i, score, k, wins_tie=i < ell)
        if z > payment:
            payment = z
        if rule.threshold_from_marginal(m_i, 0.0, k) <= payment:
            return payment
    closing = rule.threshold_from_marginal(scratch.marginal(i), 0.0, k)
    return max(payment, closing)


def run_sealed_bid_lazy(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids,
    seed: RandomSeed | int | None = None,
    *,
    focus: int | None = None,
) -> AuctionOutcome:
    """Same outcome as ``run_sealed_bid`` for diminishing-return rules.

    The lazy allocation pays each winner when it admits it, from copies of
    its scratch and queue; see ``_critical_payment_lazy``.  ``seed`` is
    accepted for a uniform signature; these rules draw nothing.
    """
    if not rule.diminishing_return:
        raise UnsupportedRuleError(f"rule {rule.kind!r} has no diminishing-return structure")
    n = oracle.n
    bids = _check_bids(bids, n)
    scratch = oracle.scratch()
    heap = _lazy_heap(rule, scratch, bids, range(n))
    trace = SelectionTrace(n)
    payments = [0.0] * n
    for k, (i, score) in enumerate(_lazy_greedy(rule, scratch, bids, heap, n), start=1):
        trace.admit(i, k, score)
        if focus is None or i == focus:
            payments[i] = _critical_payment_lazy(rule, scratch.copy(), bids, i, k, _stale_copy(heap))
    return AuctionOutcome(trace.winners, tuple(payments), value=oracle.value(trace.winners), trace=trace)


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

"""Descending auctions driven by a demand oracle and an adversarial schedule.

Prices start at each seller's initial marginal and only ever move down.
While the demand oracle rejects part of the active set, the schedule picks
an undemanded seller and decrements its price; a seller whose price falls
below its bid leaves with payment zero.  The auction ends when everything
active is demanded, paying current prices.

Two demand oracles ship: the exact welfare maximizer, which an adversarial
schedule can drive to arbitrarily poor welfare on the structured family,
and the stateful cost-scaled oracle, which admits the previously
decremented seller once its marginal exceeds twice its price and is immune
to the adversary up to an n*epsilon term.

The clock runs event by event when it can.  The cost-scaled oracle can
admit only the seller just decremented, and between admissions that
seller's marginal f(i|T) is fixed, so the oracle computes it at most once
per seller and admission.  The lexicographic and scripted schedules pick
from the active and demanded sets alone, so they keep picking the same
seller until it drops or is admitted; they share one cursor over the
undemanded active sellers in pick order, which pops each seller at most
once per run.  Under such a pair the loop asks for a demand and a pick
once per event and then steps the picked seller in a tight loop, one
epsilon per tick, until its price falls below its bid or its marginal
exceeds twice its price: O(1) work per tick.  Any other pair (round-robin,
whose cursor moves on every pick; the family adversary, which reads
prices; exact demand) takes one demand call and one pick per tick.  Both
paths decrement prices one epsilon at a time, so they give the same
winners, payments and tick counts.  The online-to-descending conversion
with its tailored schedule gives exactly the posted-price outcome, so it
returns that run's winners and payments.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .online import run_posted_price
from .scoring import ScoringRule
from .sealed_bid import AuctionOutcome, best_subset
from .selection import _check_bids
from .valuation import AdversarialFamilyOracle, ValuationOracle, canonical_set, sum_in_order


class ScheduleError(RuntimeError):
    """A schedule picked a seller outside the undemanded active set."""


class DemandStateError(RuntimeError):
    """A stateful demand oracle was reused across auction runs."""


# ---------------------------------------------------------------------------
# Demand oracles
# ---------------------------------------------------------------------------


class ExactDemand:
    """Welfare-maximizing demanded set at current prices.

    Ties prefer smaller sets (then lexicographic), so a seller priced at
    exactly its marginal is not demanded, matching the strict positive-score
    gates used everywhere else.  More than ``cap`` active sellers raise
    ``CapacityError``.
    """

    def __init__(self, oracle: ValuationOracle, *, cap: int = 24):
        self.oracle = oracle
        self.cap = cap

    def begin_run(self) -> None:
        pass

    def __call__(self, active: frozenset[int], prices: Sequence[float], prev_selected: int | None) -> frozenset[int]:
        demanded, _ = best_subset(self.oracle, prices, active, cap=self.cap, prefer_small=True)
        return frozenset(demanded)


class FamilyExactDemand:
    """Closed-form exact demand for the adversarial family oracle.

    The structured valuation admits a case analysis: the best set is either
    the profitable unit sellers, a single cheapest special seller, or
    nothing.  This keeps the exact-oracle lower-bound run polynomial where
    brute force would be exponential; it agrees with ExactDemand on every
    price vector, which the tests check exhaustively at small L.
    """

    def __init__(self, oracle: AdversarialFamilyOracle):
        self.oracle = oracle

    def begin_run(self) -> None:
        pass

    def __call__(self, active: frozenset[int], prices: Sequence[float], prev_selected: int | None) -> frozenset[int]:
        L = self.oracle.L
        units = tuple(sorted(i for i in active if i < L and prices[i] < 1.0))
        unit_welfare = sum_in_order(1.0 - prices[i] for i in units)
        candidates: list[tuple[float, int, tuple[int, ...]]] = [
            (0.0, 0, ()),
            (unit_welfare, len(units), units),
        ]
        for s in self.oracle.specials:
            if s in active:
                candidates.append((L - prices[s], 1, (s,)))
        best = max(candidates, key=lambda c: (c[0], -c[1], tuple(-x for x in c[2])))
        return frozenset(best[2])


class CostScaledDemand:
    """Stateful demand oracle from the cost-scaled greedy admission test.

    Keeps a tentative set T; on each call the seller decremented in the
    previous iteration joins T if its marginal exceeds twice its current
    price.  Members of T are returned demanded forever, so a compliant
    schedule never decrements them again.  One instance serves one run.
    The returned frozenset is kept between calls and grows only on
    admission.

    ``admission_marginal`` is also the event-loop protocol: a demand oracle
    that has it admits only the seller just decremented, exactly when
    ``admission_marginal(i) > 2 * price``.
    """

    def __init__(self, oracle: ValuationOracle):
        self.oracle = oracle
        self.scratch = oracle.scratch()
        self._demanded: frozenset[int] = frozenset()
        self._marginals: dict[int, float] = {}
        self._started = False

    def begin_run(self) -> None:
        if self._started:
            raise DemandStateError("cost-scaled demand state cannot be reused across runs")
        self._started = True

    def admission_marginal(self, i: int) -> float:
        """f(i|T), one scratch marginal per seller until T next grows."""
        m = self._marginals.get(i)
        if m is None:
            m = self._marginals[i] = self.scratch.marginal(i)
        return m

    def __call__(self, active: frozenset[int], prices: Sequence[float], prev_selected: int | None) -> frozenset[int]:
        i = prev_selected
        if i is not None and i in active and i not in self.scratch and self.admission_marginal(i) > 2.0 * prices[i]:
            self.scratch.add(i)
            self._marginals.clear()
            self._demanded = self._demanded | {i}
        return self._demanded


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


# A schedule with ``picks_from_sets = True`` reads only the active and
# demanded sets, so it repeats its pick until one of them changes.


class _FirstInOrder:
    """Picks the first undemanded active seller in a fixed order, by cursor.

    The pool (active but not demanded) is kept as a stack in pick order,
    first pick on top; a pick pops the entries that have left the pool and
    returns the top.  The stack stays valid while the pool only shrinks, so
    it is kept only when ``active`` is the last call's frozenset or a subset
    of it and ``demanded`` the last call's frozenset or a superset of it,
    and otherwise built again from the two sets.  Along a clock run each
    seller is popped at most once per build.  The state lives in class
    defaults, so the first pick builds the stack, and a schedule reused
    across runs rebuilds when the new run's sets break the test.

    A subclass gives the order as ``_pool_stack(active, demanded)``, the
    pool with the first pick last, and raises its empty-pool error in
    ``_exhausted()``.
    """

    picks_from_sets = True
    _stack: list[int] = []  # never popped: the first pick replaces it
    _active: frozenset[int] | None = None  # None: nothing to keep
    _demanded: frozenset[int] | None = None

    def pick(self, active: set[int], demanded: frozenset[int], prices: Sequence[float]) -> int:
        last = self._active
        if (
            last is None
            or not (active is last or active <= last)
            or not (demanded is self._demanded or demanded >= self._demanded)
        ):
            self._stack = self._pool_stack(active, demanded)
        # A mutable set may change in place, so only frozensets are kept.
        if isinstance(active, frozenset) and isinstance(demanded, frozenset):
            self._active, self._demanded = active, demanded
        else:
            self._active = self._demanded = None
        stack = self._stack
        while stack:
            i = stack[-1]
            if i in active and i not in demanded:
                return i
            stack.pop()
        return self._exhausted()


class LexicographicSchedule(_FirstInOrder):
    """Picks ``min(active - demanded)``: the lowest undemanded active index."""

    def _pool_stack(self, active, demanded) -> list[int]:
        return sorted(active - demanded, reverse=True)

    def _exhausted(self) -> int:
        return min(())  # min's ValueError on an empty pool


class RoundRobinSchedule:
    def __init__(self, n: int):
        self.n = n
        self._cursor = 0

    def pick(self, active: set[int], demanded: frozenset[int], prices: Sequence[float]) -> int:
        for step in range(self.n):
            i = (self._cursor + step) % self.n
            if i in active and i not in demanded:
                self._cursor = (i + 1) % self.n
                return i
        raise ScheduleError("no undemanded active seller")


class ScriptedSchedule(_FirstInOrder):
    """Fixed priority order; picks its first undemanded active entry."""

    def __init__(self, priority: Sequence[int]):
        self.priority = tuple(int(i) for i in priority)

    def _pool_stack(self, active, demanded) -> list[int]:
        return [i for i in reversed(self.priority) if i in active and i not in demanded]

    def _exhausted(self) -> int:
        raise ScheduleError("scripted priority exhausted")


class AdversarialFamilySchedule:
    """The lower-bound adversary for the structured family.

    Phase one hammers the special sellers until one of them is priced below
    L - 1; phase two walks the unit sellers in index order, pressing each
    until it drops or becomes demanded, falling back to whatever special
    remains undemanded at the end.
    """

    def __init__(self, L: int):
        self.L = L

    def pick(self, active: set[int], demanded: frozenset[int], prices: Sequence[float]) -> int:
        L = self.L
        specials = [s for s in (L, L + 1) if s in active]
        pickable_specials = [s for s in specials if s not in demanded]
        if specials and min(prices[s] for s in specials) >= L - 1 and pickable_specials:
            return pickable_specials[0]
        for i in range(L):
            if i in active and i not in demanded:
                return i
        if pickable_specials:
            return pickable_specials[0]
        raise ScheduleError("no undemanded active seller")


def random_scripted_schedules(n: int, count: int, seed: int) -> list[ScriptedSchedule]:
    rng = np.random.default_rng(seed)
    return [ScriptedSchedule(rng.permutation(n)) for _ in range(count)]


def _build_schedule(spec: str, priority: tuple[int, ...] | None, n: int):
    if spec == "lex":
        return LexicographicSchedule()
    if spec == "rr":
        return RoundRobinSchedule(n)
    if spec == "adversarial-family":
        if n < 3:
            raise ValueError("the family schedule needs at least three sellers")
        return AdversarialFamilySchedule(n - 2)
    if priority is not None:
        if sorted(priority) != list(range(n)):
            raise ValueError(f"schedule {spec!r} is not a permutation of the {n} sellers")
        return ScriptedSchedule(priority)
    raise ValueError(f"unknown schedule {spec!r}")


def schedule_factory(spec: str):
    """Parse a CLI-style selector once; returns a picklable ``n -> schedule``.

    Accepts "lex", "rr", "adversarial-family" (valid on family instances
    with n = L + 2 sellers), or "scripted:<path>" with one seller index per
    line giving the priority order, which must be a permutation of
    ``range(n)``.  A scripted file is read here, once; every schedule the
    factory builds is fresh, and an invalid selector raises ``ValueError``
    when a schedule is built.
    """
    priority = None
    if spec.startswith("scripted:"):
        with open(spec.split(":", 1)[1]) as fh:
            priority = tuple(int(line) for line in fh if line.strip())
    return partial(_build_schedule, spec, priority)


# ---------------------------------------------------------------------------
# The auction loop
# ---------------------------------------------------------------------------


def _check_step(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValueError(f"step size must be positive and finite, got {epsilon}")


def _start_prices(oracle: ValuationOracle) -> list[float]:
    """f(i | empty) for every seller, from one scratch read of the whole vector.

    Charges n queries, as n ``oracle.marginal(i, ())`` calls do, with their
    bits: the coverage scratch's vector has the scalar kernel's bits, and
    the generic scratch reads ``oracle._marginal(i, ())``.
    """
    return oracle.scratch().marginals(np.arange(oracle.n)).tolist()


def run_descending(
    oracle: ValuationOracle,
    bids: Sequence[float],
    demand,
    schedule,
    epsilon: float,
) -> AuctionOutcome:
    """Price-descent loop: decrement one undemanded seller per tick.

    Terminates because prices strictly decrease and sellers drop once
    priced below their bids, before the first demand call for a seller
    whose bid is above its starting price, so no demand oracle can keep a
    seller paid below its bid; a generous tick cap guards against a
    non-compliant demand/schedule pair.  The demand oracle and the schedule
    see the same frozenset of active sellers, rebuilt only when one drops.
    The start prices come from one scratch read of the whole marginal
    vector (``_start_prices``), n queries.

    If the demand has ``admission_marginal`` and the schedule sets
    ``picks_from_sets``, the picked seller keeps being stepped until its
    next event, a drop or ``admission_marginal(i) > 2 * price``, with the
    same per-tick decrement, count, cap check and test order as one demand
    call and one pick per tick; other pairs take one of each per tick.
    The lexicographic and scripted schedules pick by cursor: along a run
    each seller leaves the cursor's stack at most once, so a pick costs
    amortized O(1) Python work.  What each event still costs in n is
    C-level set comparisons: the cursor's subset tests and the
    ``demanded <= active`` check below.
    """
    _check_step(epsilon)
    n = oracle.n
    bids = _check_bids(bids, n)
    prices = _start_prices(oracle)
    cap = sum(math.ceil(p / epsilon) + 1 for p in prices) + n + 1
    # A seller priced below its bid from the start leaves before the first demand call.
    active = frozenset(i for i in range(n) if not prices[i] < bids[i])
    prices = [p if i in active else 0.0 for i, p in enumerate(prices)]
    demand.begin_run()
    admission_marginal = getattr(demand, "admission_marginal", None)
    if not getattr(schedule, "picks_from_sets", False):
        admission_marginal = None

    ticks = 0
    prev: int | None = None
    while True:
        demanded = demand(active, prices, prev)
        if not demanded <= active:
            raise ScheduleError(f"demand oracle returned inactive sellers {set(demanded) - active}")
        if demanded == active:
            break
        i = schedule.pick(active, demanded, prices)
        if i not in active or i in demanded:
            raise ScheduleError(f"schedule picked {i}, not an undemanded active seller")
        prev = i
        marginal = None
        while True:
            prices[i] -= epsilon
            ticks += 1
            if ticks > cap:
                raise RuntimeError("descending auction exceeded its iteration cap")
            if prices[i] < bids[i]:
                active = active - {i}
                prices[i] = 0.0
                break
            if admission_marginal is None:
                break
            if marginal is None:
                marginal = admission_marginal(i)
            if marginal > 2.0 * prices[i]:
                break

    winners = canonical_set(active)
    payments = tuple(prices[i] if i in active else 0.0 for i in range(n))
    return AuctionOutcome(winners, payments, value=oracle.value(winners), trace=None, ticks=ticks)


def run_descending_from_online(
    rule: ScoringRule,
    oracle: ValuationOracle,
    bids: Sequence[float],
    order: Iterable[int],
) -> AuctionOutcome:
    """Descending auction under the tailored schedule for an arrival order.

    The schedule takes the sellers in arrival order and lowers seller k's
    price from f(k|0) to the zero of its online score at the sellers kept
    so far; k stays, paid that price, iff its bid is strictly below it.

    Theorem (online to descending): for a diminishing-return rule and any
    arrival order, this auction selects the same winners and pays each of
    them the same price as the posted-price mechanism on that order.  The
    outcome is therefore computed by ``run_posted_price``, which also
    rejects rules that need the round index.
    """
    posted = run_posted_price(rule, oracle, bids, order)
    return AuctionOutcome(posted.winners, posted.payments, value=oracle.value(posted.winners), trace=None)

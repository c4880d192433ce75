"""Online selection and the posted-price mechanism for adversarial arrivals.

Sellers arrive one at a time in an arbitrary order and each decision is
irrevocable.  The posted-price mechanism offers each arrival the bid at
which its score at the current tentative set crosses zero, and the seller
accepts exactly when its cost is strictly below the offer.  The online meta
algorithm admits an arrival iff that score is strictly positive, which is
the same test, so ``run_online_meta`` is the posted-price run's winner set;
the telescoping marginals bound the total payment by the value of the
winners.

``run_posted_price`` is the one arrival loop, also behind the descending
auction's tailored schedule.  It reads each arrival's marginal from the
run's incremental oracle scratch, so an arrival costs one O(|cover(k)|)
query on a coverage oracle (O(1) on the family oracle) rather than a
from-scratch marginal over the admitted set.  The input checks are
C-level passes (``_check_bids``, and ``as_arrival_order``'s length,
distinct-count and min/max test), so the rest of a run is O(1) Python
work per arrival besides that read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .scoring import ScoringRule, UnsupportedRuleError
from .selection import _check_bids
from .valuation import ValuationOracle, canonical_set, sum_in_order, welfare


def as_arrival_order(order: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate that ``order`` is a permutation of [0, n); entries as Python ints.

    One pass collects the entry types; unless every entry is a plain int,
    entries go through ``operator.index``, which keeps numpy integers and
    refuses floats (``int()`` would truncate them) with ``TypeError``;
    bools are refused too.  n distinct entries between 0 and n - 1 are a
    permutation.
    """
    order = tuple(order)
    kinds = set(map(type, order))
    if not kinds <= {int}:
        if bool in kinds:
            raise TypeError("arrival order entries must be integers, not bools")
        order = tuple(map(operator.index, order))
    if len(order) != n or len(set(order)) != n or (n and (min(order) != 0 or max(order) != n - 1)):
        raise ValueError(f"arrival order must be a permutation of 0..{n - 1}")
    return order


def order_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def order_reverse(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1, -1, -1))


def order_random(n: int, seed: int) -> tuple[int, ...]:
    rng = np.random.default_rng(seed)
    return tuple(int(i) for i in rng.permutation(n))


def order_factory(spec: str):
    """Parse an arrival-order selector once; returns a picklable
    ``(n, *, rule=None, oracle=None, costs=None) -> order``.

    Accepts "identity", "reverse", "random:<seed>", "worst-of:<m>" (m >= 1
    samples; an order is then searched for and needs the rule, oracle and
    costs), or "file:<path>" with one seller index per line.  A file is read
    here, once, and an unknown selector or a bad count raises ``ValueError``
    here; a file order that is not a permutation of ``range(n)`` raises when
    the order for n is built.
    """
    kind, _, arg = spec.partition(":")
    if spec in ("identity", "reverse"):
        param = None
    elif kind in ("random", "worst-of") and arg:
        param = int(arg)
        if kind == "worst-of" and param < 1:
            raise ValueError(f"worst-of orders need at least one sample, got {param}")
    elif kind == "file" and arg:
        with open(arg) as fh:
            param = tuple(int(line) for line in fh if line.strip())
    else:
        raise ValueError(f"unknown arrival order {spec!r}")
    return partial(_build_order, kind, param)


def _build_order(kind: str, param, n: int, *, rule=None, oracle=None, costs=None) -> tuple[int, ...]:
    if kind == "identity":
        return order_identity(n)
    if kind == "reverse":
        return order_reverse(n)
    if kind == "random":
        return order_random(n, param)
    if kind == "file":
        return as_arrival_order(param, n)
    if rule is None or oracle is None or costs is None:
        raise ValueError("worst-of orders need the rule, oracle, and costs")
    return worst_sampled_order(rule, oracle, costs, samples=param, seed=0)


@dataclass
class PostedPriceOutcome:
    """Per-arrival offers and responses of one posted-price run.

    A seller accepts iff the posted price strictly exceeds its cost; exact
    ties are rejections.  Payments equal posted prices for winners and are
    zero otherwise.
    """

    winners: tuple[int, ...]
    posted_prices: tuple[float, ...]
    payments: tuple[float, ...]
    accepted: tuple[bool, ...]

    @property
    def total_payment(self) -> float:
        return sum_in_order(self.payments)


def _check_online(rule: ScoringRule) -> None:
    if not rule.diminishing_return:
        raise UnsupportedRuleError(f"rule {rule.kind!r} needs the round index; it cannot run online")


def run_online_meta(
    rule: ScoringRule,
    oracle: ValuationOracle,
    costs: Sequence[float],
    order: Iterable[int],
) -> tuple[int, ...]:
    """Admit each arrival iff its score is strictly positive; irrevocably.

    A positive score is a cost strictly below the score's zero crossing,
    so this is the winner set of ``run_posted_price``.
    """
    return run_posted_price(rule, oracle, costs, order).winners


def run_posted_price(
    rule: ScoringRule,
    oracle: ValuationOracle,
    costs: Sequence[float],
    order: Iterable[int],
) -> PostedPriceOutcome:
    """Offer each arrival the bid at which its score would hit zero.

    The price is ``rule.posted_price`` of the arrival's marginal, read from
    the run's scratch against the sellers admitted so far: O(|cover(k)|)
    per arrival on a coverage oracle.  The run makes n + |winners| oracle
    queries; the n reads go through the scratch's unchecked ``_marginal``
    and are charged in one step.
    """
    _check_online(rule)
    n = oracle.n
    costs = _check_bids(costs, n)
    order = as_arrival_order(order, n)
    scratch = oracle.scratch()
    # Each seller arrives once, before it can be admitted, so no read is of
    # a member: the n reads are charged at once, as ``_best_of`` does.
    oracle._queries += n
    marginal, add, price_of = scratch._marginal, scratch.add, rule.posted_price
    posted = [0.0] * n
    payments = [0.0] * n
    accepted = [False] * n
    admitted: list[int] = []
    for k in order:
        price = price_of(marginal(k))
        posted[k] = price
        if costs[k] < price:
            add(k)
            admitted.append(k)
            payments[k] = price
            accepted[k] = True
    return PostedPriceOutcome(
        winners=canonical_set(admitted),
        posted_prices=tuple(posted),
        payments=tuple(payments),
        accepted=tuple(accepted),
    )


def worst_sampled_order(
    rule: ScoringRule,
    oracle: ValuationOracle,
    costs: Sequence[float],
    samples: int,
    seed: int,
) -> tuple[int, ...]:
    """The welfare-minimizing order among ``samples`` (at least one) random permutations."""
    if samples < 1:
        raise ValueError(f"worst-of orders need at least one sample, got {samples}")
    _check_online(rule)
    worst_order = order_identity(oracle.n)
    worst_welfare = None
    for s in range(samples):
        order = order_random(oracle.n, seed + s)
        winners = run_online_meta(rule, oracle, costs, order)
        achieved = welfare(oracle, costs, winners)
        if worst_welfare is None or achieved < worst_welfare:
            worst_welfare, worst_order = achieved, order
    return worst_order

"""Scoring rules G(i, S, b, k, r) and their analytic bid-space inversions.

Each rule scores a candidate seller from its current marginal contribution
and its bid.  Selection loops admit the top-scoring candidate while the
score is strictly positive; payments and posted prices come from inverting
the score in the bid coordinate, which is exact because every shipped rule
is affine or a ratio in the bid.

Five rules are one affine score, alpha_k f(i|S) - beta b_i, with the
coefficients fixed when the rule is built:

    greedy-margin         alpha_k = 1                   beta = 1
    cost-scaled           alpha_k = 1                   beta = 2
    distorted             alpha_k = (1 - 1/n)^(n-k)     beta = 1
    stochastic-distorted  as distorted, restricted to a per-round random batch
    noisy-distorted       as distorted, on min_t F(i|S_t), beta = x = 1 + 2 eps n + eps

Their score, critical bid and posted price are alpha m - beta b,
max(0, (alpha m - target) / beta) and m / beta.  The other two are ratios
in the bid:

    greedy-rate           (f(i|S) - b_i) / f(i|S)
    roi                   (f(i|S) - b_i) / b_i

``ScoringRule`` is the one pricing path: ``score_from_marginal``,
``threshold_from_marginal`` and ``posted_price`` take a marginal the
caller has already read, in the engines from the run's oracle scratch;
``scores`` is ``score_from_marginal`` over a whole round's arrays, float
for float.  The caller owns the rest of the context: the stochastic batch
gate and, for the noisy rule, the trajectory minimum of the marginals.
``RULE_NAMES`` holds the canonical rule names used by the CLI and
``make_rule``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .valuation import ValuationOracle, checked_seed, stable_hash64

RULE_NAMES = (
    "greedy-margin",
    "greedy-rate",
    "distorted",
    "stochastic-distorted",
    "roi",
    "cost-scaled",
    "noisy-distorted",
)

# Rules whose score does not depend on the round index or horizon.  They are
# exactly the ones with a diminishing-return score structure, which is also
# what lazy evaluation and the online mechanisms require.
ONLINE_CAPABLE_RULES = ("greedy-margin", "greedy-rate", "roi", "cost-scaled")
_ROUND_FREE = frozenset(ONLINE_CAPABLE_RULES)

#: Score of a candidate outside the current stochastic batch.
NOT_SAMPLED = float("-inf")


class UnsupportedRuleError(ValueError):
    """Raised when a rule lacks the structure an operation requires."""


#: Sampling error of the stochastic rule: each round scores a batch of
#: ceil((n/k) ln(1/eps)) sellers drawn with replacement (Mirzasoleiman et al.,
#: "Lazier Than Lazy Greedy", AAAI 2015).  Every mechanism runs k = n rounds,
#: so the batch is ceil(ln 10) = 3 draws whatever n is.
STOCHASTIC_EPSILON = 0.1
STOCHASTIC_BATCH = math.ceil(math.log(1 / STOCHASTIC_EPSILON))


@dataclass(frozen=True)
class RandomSeed:
    """Deterministic source of the per-round draws used by stochastic rules.

    The batch drawn in round k depends only on (seed, k), so allocation and
    payment re-runs sharing a seed see identical draws.  Each batch is drawn
    once per object and kept; the kept batches take no part in equality.
    """

    seed: int = 0
    _batches: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", checked_seed(self.seed))

    def round_batch(self, k: int, n: int) -> tuple[int, ...]:
        """The distinct sellers of ``STOCHASTIC_BATCH`` uniform draws for round k, ascending."""
        batch = self._batches.get((k, n))
        if batch is None:
            rng = np.random.default_rng(stable_hash64(self.seed, k))
            draws = rng.integers(0, n, size=STOCHASTIC_BATCH).tolist()
            batch = self._batches[k, n] = tuple(sorted(set(draws)))
        return batch


def as_random_seed(seed) -> RandomSeed:
    return seed if isinstance(seed, RandomSeed) else RandomSeed(0 if seed is None else seed)


@dataclass(frozen=True)
class ScoringRule:
    """A named scoring rule together with the parameters it needs.

    ``horizon`` is the number of rounds n of the enclosing run; the
    distorted family needs it for the (1 - 1/n)^(n-k) multiplier.
    """

    kind: str
    horizon: int = 0
    noise_epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in RULE_NAMES:
            raise UnsupportedRuleError(f"unknown rule {self.kind!r}; expected one of {RULE_NAMES}")
        if self.kind not in _ROUND_FREE and self.horizon < 1:
            raise ValueError(f"rule {self.kind!r} needs a positive horizon")
        if not 0.0 <= self.noise_epsilon < 1.0:
            raise ValueError(f"noise epsilon must be in [0, 1), got {self.noise_epsilon}")
        # The affine coefficients; round k indexes the alpha tuple directly,
        # over the run's rounds 1 .. n.  Round-free rules carry no tuple:
        # their alpha is 1 in every round.
        online = self.diminishing_return
        alpha = () if online else tuple(self.multiplier(k) for k in range(self.horizon + 1))
        beta = {"cost-scaled": 2.0, "noisy-distorted": self.x}.get(self.kind, 1.0)
        object.__setattr__(self, "_online", online)  # for posted_price, called once per arrival
        object.__setattr__(self, "_affine", self.kind not in ("greedy-rate", "roi"))
        object.__setattr__(self, "_alpha", alpha)
        object.__setattr__(self, "_beta", beta)

    @property
    def diminishing_return(self) -> bool:
        return self.kind in _ROUND_FREE

    @property
    def randomized(self) -> bool:
        return self.kind == "stochastic-distorted"

    @property
    def x(self) -> float:
        """Cost multiplier of the noisy rule: 1 + 2*eps*n + eps."""
        return 1.0 + 2.0 * self.noise_epsilon * self.horizon + self.noise_epsilon

    def multiplier(self, k: int) -> float:
        """Distortion multiplier applied to the marginal in round k."""
        n = self.horizon
        return (1.0 - 1.0 / n) ** (n - k)

    # -- score core ------------------------------------------------------

    def score_from_marginal(self, m: float, bid: float, k: int) -> float:
        """G(i, S, b, k) given the effective marginal m = f(i|S).

        For the noisy rule m must already be the trajectory minimum of the
        noisy marginals.  Batch membership of the stochastic rule is the
        caller's job; this computes the sampled-candidate value.
        """
        if self._affine:
            return (self._alpha[k] if self._alpha else 1.0) * m - self._beta * bid
        if self.kind == "greedy-rate":
            if m <= 0.0:
                return NOT_SAMPLED
            return (m - bid) / m
        # roi
        if bid == 0.0:
            return math.inf if m > 0.0 else -1.0
        if bid == math.inf:
            return -1.0  # the limit; inf / inf would be NaN and block every argmax
        return (m - bid) / bid

    def scores(self, m: np.ndarray, bids: np.ndarray, k: int) -> np.ndarray:
        """``score_from_marginal`` element-wise over arrays, the same float for each.

        A unit coefficient is skipped rather than multiplied: the product
        would be the same array, at the cost of one more array pass.
        """
        if self._affine:
            alpha = self._alpha[k] if self._alpha else 1.0
            if alpha != 1.0:
                m = alpha * m
            return m - (bids if self._beta == 1.0 else self._beta * bids)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.kind == "greedy-rate":
                return np.where(m <= 0.0, NOT_SAMPLED, (m - bids) / m)
            # roi
            at_zero = np.where(m > 0.0, math.inf, -1.0)
            return np.where(bids == 0.0, at_zero, np.where(bids == math.inf, -1.0, (m - bids) / bids))

    def retirement_floors(self, bids) -> list[float]:
        """beta * b per bid: m <= beta * b iff ``score_from_marginal(m, b, n)`` <= 0.

        At round n every alpha is 1, so an affine score is m - beta * b,
        whose rounded sign is the sign of m - beta * b; both ratio rules
        have beta 1, and their scores are positive iff m > b (including
        zero and infinite bids, and m <= 0).  So a seller whose marginal
        is at most its floor scores no more than 0 in any round while its
        marginal does not grow.
        """
        beta = self._beta
        return [beta * b for b in bids]

    def threshold_from_marginal(self, m: float, target: float, k: int, wins_tie: bool = False) -> float:
        """sup{ z >= 0 : score(z) > target }, 0 when the set is empty.

        ``wins_tie`` widens the comparison to >= for the degenerate cases
        where the score is constant in the bid (zero-marginal ratio rules);
        for the strictly decreasing rules the supremum is the same either
        way so the flag never changes it.
        """
        kind = self.kind
        if target == math.inf:
            return 0.0
        if kind == "greedy-rate":
            if m <= 0.0:
                return math.inf if (target == NOT_SAMPLED and wins_tie) else 0.0
            if target == NOT_SAMPLED:
                return math.inf
            # m - m*target, not m*(1 - target): the products cancel exactly
            # when the target is itself a rate (m' - b)/m', keeping ties at
            # the competitor's bid bit-exact.
            return max(0.0, m - m * target)
        if kind == "roi":
            if m <= 0.0:
                beats = -1.0 > target or (target == -1.0 and wins_tie)
                return math.inf if beats else 0.0
            if target <= -1.0:
                return math.inf
            return max(0.0, m / (1.0 + target))
        if target == NOT_SAMPLED:
            return math.inf
        return max(0.0, ((self._alpha[k] if self._alpha else 1.0) * m - target) / self._beta)

    def thresholds(self, m: np.ndarray, target, k: int) -> np.ndarray:
        """``threshold_from_marginal`` element-wise over arrays, for the affine rules.

        ``target`` may be an array or a scalar; ``wins_tie`` never changes
        an affine threshold, so it takes none.  max(0, x) is
        ``x > 0 ? x : 0``, which, like the builtin, gives +0.0 for x = -0.0
        and NaN.  The formula alone gives both special targets' values
        (-inf makes x = +inf; +inf makes x = -inf, or NaN when m is +inf),
        and a unit coefficient is skipped, as in ``scores``.  Only the
        lockstep payments call it, and only for round-indexed rules, which
        are all affine.
        """
        if not self._affine:
            raise UnsupportedRuleError(f"rule {self.kind!r} has no affine threshold")
        alpha = self._alpha[k] if self._alpha else 1.0
        x = (m if alpha == 1.0 else alpha * m) - target
        if self._beta != 1.0:
            x = x / self._beta
        return np.where(x > 0.0, x, 0.0)

    def posted_price(self, m: float) -> float:
        """Bid at which the online score of a seller with marginal m crosses zero.

        The seller is admitted iff its bid is strictly below this price: m / beta
        for the affine rules, and m for both ratio rules, whose beta is 1.
        """
        if not self._online:
            raise UnsupportedRuleError(f"rule {self.kind!r} cannot run online")
        return m / self._beta


def make_rule(name: str, n: int, **kwargs) -> ScoringRule:
    """Build a rule by canonical name for a run over n sellers."""
    return ScoringRule(kind=name, horizon=n, **kwargs)


def _validate_rule(rule: ScoringRule, oracle: ValuationOracle) -> None:
    """A round-indexed rule must be built for the oracle's seller count."""
    if not rule.diminishing_return and rule.horizon != oracle.n:
        raise ValueError(
            f"rule horizon {rule.horizon} does not match the {oracle.n}-seller instance"
        )

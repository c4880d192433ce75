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

(the capped distorted rule uses (1 - 1/cap)^(cap-k)).  Its score, critical
bid and posted price are alpha m - beta b, max(0, (alpha m - target) / beta)
and m / beta.  The other two are ratios in the bid:

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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .valuation import ValuationOracle, canonical_set, stable_hash64

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


@dataclass(frozen=True)
class RandomSeed:
    """Deterministic source of the per-round draws used by stochastic rules.

    The batch drawn in round k depends only on (seed, k), so allocation and
    payment re-runs sharing a seed see identical draws.
    """

    seed: int = 0

    def round_batch(self, k: int, n: int, size: int) -> frozenset[int]:
        """Sample ``size`` sellers uniformly with replacement for round k."""
        rng = np.random.default_rng(stable_hash64(self.seed, k))
        return frozenset(int(x) for x in rng.integers(0, n, size=size))


def as_random_seed(seed) -> RandomSeed:
    if seed is None:
        return RandomSeed(0)
    if isinstance(seed, RandomSeed):
        return seed
    return RandomSeed(int(seed))


@dataclass(frozen=True)
class ScoringRule:
    """A named scoring rule together with the parameters it needs.

    ``horizon`` is the number of rounds n of the enclosing run; the
    distorted family needs it for the (1 - 1/n)^(n-k) multiplier.  The
    optional ``cardinality`` switches the distorted rule to the capacity-
    constrained multiplier (1 - 1/cap)^(cap-k) and caps the run at ``cap``
    admission rounds.
    """

    kind: str
    horizon: int = 0
    cardinality: int | None = None
    stochastic_epsilon: float = 0.1
    stochastic_batch_size: int | None = None
    noise_epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in RULE_NAMES:
            raise UnsupportedRuleError(f"unknown rule {self.kind!r}; expected one of {RULE_NAMES}")
        if self.kind not in _ROUND_FREE and self.horizon < 1:
            raise ValueError(f"rule {self.kind!r} needs a positive horizon")
        if self.cardinality is not None and self.kind != "distorted":
            raise ValueError("the cardinality variant exists only for the distorted rule")
        if self.cardinality is not None and self.cardinality < 1:
            raise ValueError(f"cardinality must be at least 1, got {self.cardinality}")
        if not 0.0 < self.stochastic_epsilon < 1.0:
            raise ValueError("stochastic epsilon must be in (0, 1)")
        if self.stochastic_batch_size is not None and self.stochastic_batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not 0.0 <= self.noise_epsilon < 1.0:
            raise ValueError(f"noise epsilon must be in [0, 1), got {self.noise_epsilon}")
        # The affine coefficients; round k indexes the alpha tuple directly.
        # A run scores rounds 1 .. ``rounds`` and no later one, so the tuple
        # stops there; past a cap the capped multiplier exceeds 1 (at cap = 1
        # it divides by zero).  Round-free rules carry no tuple: their alpha
        # is 1 in every round.
        alpha = () if self.diminishing_return else tuple(self.multiplier(k) for k in range(self.rounds + 1))
        beta = {"cost-scaled": 2.0, "noisy-distorted": self.x}.get(self.kind, 1.0)
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
    def rounds(self) -> int:
        """Number of admission rounds a run of this rule performs."""
        if self.cardinality is not None:
            return self.cardinality
        return self.horizon

    @property
    def x(self) -> float:
        """Cost multiplier of the noisy rule: 1 + 2*eps*n + eps."""
        return 1.0 + 2.0 * self.noise_epsilon * self.horizon + self.noise_epsilon

    def multiplier(self, k: int) -> float:
        """Distortion multiplier applied to the marginal in round k."""
        if self.cardinality is not None:
            cap = self.cardinality
            return (1.0 - 1.0 / cap) ** (cap - k)
        n = self.horizon
        return (1.0 - 1.0 / n) ** (n - k)

    def batch_size(self) -> int:
        """Per-round sample count of the stochastic rule.

        Defaults to ceil((n/k) log(1/eps)); override with
        ``stochastic_batch_size=1`` for the single-draw indicator form.
        """
        if self.stochastic_batch_size is not None:
            return self.stochastic_batch_size
        n, k = self.horizon, self.rounds
        return max(1, math.ceil((n / k) * math.log(1.0 / self.stochastic_epsilon)))

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

    def posted_price(self, m: float) -> float:
        """Bid at which the online score of a seller with marginal m crosses zero.

        The seller is admitted iff its bid is strictly below this price: m / beta
        for the affine rules, and m for both ratio rules, whose beta is 1.
        """
        if not self.diminishing_return:
            raise UnsupportedRuleError(f"rule {self.kind!r} cannot run online")
        return m / self._beta


def make_rule(name: str, n: int, **kwargs) -> ScoringRule:
    """Build a rule by canonical name for a run over n sellers."""
    return ScoringRule(kind=name, horizon=n, **kwargs)


# ---------------------------------------------------------------------------
# Assumption validation
# ---------------------------------------------------------------------------


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    counterexample: str | None = None


@dataclass
class AssumptionReport:
    rule: str
    trials: int
    checks: list[AssumptionCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


Scorer = Callable[[int, tuple[int, ...], Sequence[float], int], float]


def _as_scorer(rule, oracle: ValuationOracle, seed) -> Scorer:
    """Adapt a ScoringRule (or any callable fixture) to a bid-vector scorer.

    A rule's scorer applies the stochastic batch gate of round k, then
    scores i's marginal against the tentative set.
    """
    if callable(rule) and not isinstance(rule, ScoringRule):
        return rule
    seed = as_random_seed(seed)

    def scorer(i: int, tentative: tuple[int, ...], bids: Sequence[float], k: int) -> float:
        if rule.randomized and i not in seed.round_batch(k, oracle.n, rule.batch_size()):
            return NOT_SAMPLED
        return rule.score_from_marginal(oracle.marginal(i, tentative), bids[i], k)

    return scorer


def validate_assumptions(
    rule,
    oracle: ValuationOracle,
    trials: int = 200,
    seed: int = 0,
    grid: int = 12,
) -> AssumptionReport:
    """Randomized check of the three mechanism assumptions.

    (1) the score is non-increasing in the candidate's own bid,
    (2) the score is negative once the bid exceeds the marginal the oracle
        reports, and
    (3) the score does not move when any other seller's bid changes.

    Accepts a ScoringRule or any callable scorer(i, S, bids, k) fixture.
    Each trial scores a random round k in [1, n], or in [1, cap] for a
    capped rule, which never runs a round past its cap.
    """
    rng = np.random.default_rng(seed)
    n = oracle.n
    scorer = _as_scorer(rule, oracle, seed)
    capped = isinstance(rule, ScoringRule) and rule.cardinality is not None
    last_round = rule.cardinality if capped else n
    name = rule.kind if isinstance(rule, ScoringRule) else getattr(rule, "__name__", "custom")
    monotone = AssumptionCheck("non-increasing-in-own-bid", True)
    negative = AssumptionCheck("negative-above-marginal", True)
    invariant = AssumptionCheck("independent-of-other-bids", True)

    for _ in range(trials):
        size = int(rng.integers(0, n))
        tentative = canonical_set(rng.choice(n, size=size, replace=False)) if size else ()
        outside = [i for i in range(n) if i not in tentative]
        if not outside:
            continue
        i = int(rng.choice(outside))
        k = int(rng.integers(1, last_round + 1))
        m = oracle.marginal(i, tentative)
        scale = max(1.0, abs(m))
        bids = np.abs(rng.normal(scale=scale, size=n))

        if monotone.passed:
            grid_bids = np.linspace(0.0, 2.0 * scale, grid)
            prev = math.inf
            for b in grid_bids:
                bids_b = bids.copy()
                bids_b[i] = b
                cur = scorer(i, tentative, bids_b, k)
                if cur > prev + 1e-9:
                    monotone.passed = False
                    monotone.counterexample = f"i={i} S={tentative} bid {b:.4g}: score rose to {cur:.6g}"
                    break
                prev = cur

        if negative.passed:
            bids_hi = bids.copy()
            bids_hi[i] = max(m, 0.0) + 0.1 + float(rng.uniform(0, scale))
            sc = scorer(i, tentative, bids_hi, k)
            if not sc < 0:
                negative.passed = False
                negative.counterexample = (
                    f"i={i} S={tentative} bid {bids_hi[i]:.4g} > marginal {m:.4g} but score {sc:.6g}"
                )

        if invariant.passed and n > 1:
            base = scorer(i, tentative, bids, k)
            bids_perturbed = bids.copy()
            j = int(rng.choice([x for x in range(n) if x != i]))
            bids_perturbed[j] = bids_perturbed[j] + float(rng.uniform(0.1, scale))
            other = scorer(i, tentative, bids_perturbed, k)
            if not (base == other or (math.isinf(base) and math.isinf(other) and base == other)):
                if abs(base - other) > 1e-12:
                    invariant.passed = False
                    invariant.counterexample = f"i={i} S={tentative}: {base:.6g} -> {other:.6g} after moving bid {j}"

    return AssumptionReport(rule=name, trials=trials, checks=[monotone, negative, invariant])

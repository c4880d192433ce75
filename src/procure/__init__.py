"""Procurement auctions built from regularized submodular maximization.

The package turns greedy-style submodular optimization algorithms into
incentive-compatible procurement mechanisms: sealed-bid auctions priced at
critical bids, posted-price mechanisms for adversarial online arrivals,
and descending clock auctions with pluggable demand oracles, together with
a coverage-instance benchmark harness.
"""

from .valuation import (
    AdditiveOracle,
    AdversarialFamilyOracle,
    CoverageInstance,
    CoverageOracle,
    NoisyOracle,
    ValuationOracle,
    canonical_set,
)
from .scoring import (
    NOT_SAMPLED,
    RULE_NAMES,
    RandomSeed,
    ScoringRule,
    UnsupportedRuleError,
    make_rule,
    validate_assumptions,
)
from .selection import SelectionTrace, run_meta, run_meta_lazy
from .sealed_bid import (
    AuctionOutcome,
    CapacityError,
    exact_opt,
    run_sealed_bid,
    run_sealed_bid_lazy,
    run_vcg,
    sealed_bid_runner,
    verify_ic,
    verify_ir,
    verify_nas,
)
from .online import (
    PostedPriceOutcome,
    order_identity,
    order_random,
    order_reverse,
    run_online_meta,
    run_posted_price,
)
from .descending import (
    AdversarialFamilySchedule,
    CostScaledDemand,
    ExactDemand,
    FamilyExactDemand,
    LexicographicSchedule,
    RoundRobinSchedule,
    ScriptedSchedule,
    run_descending,
    run_descending_from_online,
)
from .instances import (
    BipartiteGraph,
    ExperimentConfig,
    active_fraction,
    build_instance,
    parse_edge_list,
    random_instance,
)

__version__ = "0.1.0"

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procure.scoring import (
    NOT_SAMPLED,
    ONLINE_CAPABLE_RULES,
    RULE_NAMES,
    STOCHASTIC_BATCH,
    RandomSeed,
    UnsupportedRuleError,
    _as_scorer,
    make_rule,
    validate_assumptions,
)
from procure.selection import run_meta
from procure.valuation import AdditiveOracle, NoisyOracle
from conftest import random_oracle

ALL_RULES = ("greedy-margin", "greedy-rate", "distorted", "stochastic-distorted", "roi", "cost-scaled")


def sampled(rule, i, k, n, seed):
    """False iff the stochastic rule's round-k batch skips seller i."""
    return not rule.randomized or i in seed.round_batch(k, n)


class TestScoreValues:
    def test_cost_scaled(self):
        oracle = AdditiveOracle([3.0])
        rule = make_rule("cost-scaled", 1)
        assert rule.score_from_marginal(oracle.marginal(0, ()), 1.0, 1) == 1.0

    def test_distorted_round_one_of_two(self):
        oracle = AdditiveOracle([5.0, 0.0])
        rule = make_rule("distorted", 2)
        assert rule.score_from_marginal(oracle.marginal(0, ()), 1.0, 1) == pytest.approx(1.5)

    def test_greedy_margin_zero_at_boundary(self):
        oracle = AdditiveOracle([4.0])
        rule = make_rule("greedy-margin", 1)
        assert rule.score_from_marginal(oracle.marginal(0, ()), 4.0, 1) == 0.0

    def test_greedy_rate_zero_marginal_never_selected(self):
        oracle = AdditiveOracle([0.0])
        rule = make_rule("greedy-rate", 1)
        assert rule.score_from_marginal(oracle.marginal(0, ()), 0.5, 1) == NOT_SAMPLED

    def test_roi_free_positive_seller(self):
        oracle = AdditiveOracle([2.0])
        rule = make_rule("roi", 1)
        assert rule.score_from_marginal(oracle.marginal(0, ()), 0.0, 1) == math.inf

    def test_stochastic_unsampled_sentinel(self):
        oracle = AdditiveOracle([5.0] * 6)
        rule = make_rule("stochastic-distorted", 6)
        seed = RandomSeed(4)
        batch = seed.round_batch(1, 6)
        outside = next(i for i in range(6) if i not in batch)
        inside = batch[0]
        scorer = _as_scorer(rule, oracle, seed)
        assert scorer(outside, (), [1.0] * 6, 1) == NOT_SAMPLED
        expected = rule.multiplier(1) * 5.0 - 1.0
        assert scorer(inside, (), [1.0] * 6, 1) == pytest.approx(expected)

    def test_noisy_uses_trajectory_minimum(self):
        """Each admission score folds the noisy marginals of S_0 .. S_{k-1}."""
        base, costs = random_oracle(9, 6, 6)
        bids = [0.25 * c for c in costs]
        noisy = NoisyOracle(base, 0.3, seed=2)
        rule = make_rule("noisy-distorted", noisy.n, noise_epsilon=0.3)
        trace = run_meta(rule, noisy, bids)
        sets = trace.tentative_sets
        below_current = 0
        for i, k in trace.chosen_at.items():
            m = min(noisy.marginal(i, sets[t]) for t in range(k))
            assert trace.scores_at_admission[i] == rule.multiplier(k) * m - rule.x * bids[i]
            below_current += m < noisy.marginal(i, sets[k - 1])
        assert len(trace.order) == 3 and below_current > 0


class TestThresholds:
    def test_cost_scaled_positive_threshold(self):
        oracle = AdditiveOracle([10.0])
        assert make_rule("cost-scaled", 1).threshold_from_marginal(oracle.marginal(0, ()), 0.0, 1) == 5.0

    def test_zero_marginal_gives_zero(self):
        oracle = AdditiveOracle([0.0])
        for name in ("greedy-margin", "greedy-rate", "roi"):
            assert make_rule(name, 1).threshold_from_marginal(oracle.marginal(0, ()), 0.0, 1) == 0.0

    def test_distorted_last_round_multiplier_one(self):
        oracle = AdditiveOracle([1.0, 0.0])
        rule = make_rule("distorted", 2)
        assert rule.threshold_from_marginal(oracle.marginal(0, ()), 0.0, 2) == pytest.approx(1.0)

    def test_argmax_greedy_margin(self):
        oracle = AdditiveOracle([5.0, 0.0])
        rule = make_rule("greedy-margin", 2)
        assert rule.threshold_from_marginal(oracle.marginal(0, ()), 2.0, 1, wins_tie=True) == 3.0

    def test_argmax_cost_scaled(self):
        oracle = AdditiveOracle([10.0, 0.0])
        rule = make_rule("cost-scaled", 2)
        assert rule.threshold_from_marginal(oracle.marginal(0, ()), 4.0, 1, wins_tie=True) == 3.0

    def test_argmax_no_competitor_is_infinite(self):
        oracle = AdditiveOracle([10.0])
        rule = make_rule("greedy-margin", 1)
        assert rule.threshold_from_marginal(oracle.marginal(0, ()), NOT_SAMPLED, 1) == math.inf


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(ALL_RULES))
def test_positive_threshold_consistency(seed, rule_name):
    """Score just below the threshold is positive; just above is not."""
    oracle, _ = random_oracle(seed, 2, 8)
    rule = make_rule(rule_name, oracle.n)
    rng = np.random.default_rng(seed)
    run_seed = RandomSeed(seed)
    for _ in range(5):
        size = int(rng.integers(0, oracle.n))
        tentative = tuple(sorted(rng.choice(oracle.n, size=size, replace=False))) if size else ()
        outside = [i for i in range(oracle.n) if i not in tentative]
        i = int(rng.choice(outside))
        k = int(rng.integers(1, oracle.n + 1))
        if not sampled(rule, i, k, oracle.n, run_seed):
            continue
        m = oracle.marginal(i, tentative)
        thr = rule.threshold_from_marginal(m, 0.0, k)
        if thr <= 1e-6 or not math.isfinite(thr):
            continue
        assert rule.score_from_marginal(m, thr - 1e-6, k) > 0
        assert not rule.score_from_marginal(m, thr + 1e-6, k) > 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(ALL_RULES))
def test_argmax_threshold_consistency(seed, rule_name):
    """Below the threshold the seller beats the competitor score; above it does not."""
    oracle, costs = random_oracle(seed, 3, 8)
    rule = make_rule(rule_name, oracle.n)
    rng = np.random.default_rng(seed + 1)
    run_seed = RandomSeed(seed)
    for _ in range(5):
        i, j = (int(x) for x in rng.choice(oracle.n, size=2, replace=False))
        k = int(rng.integers(1, oracle.n + 1))
        if not (sampled(rule, i, k, oracle.n, run_seed) and sampled(rule, j, k, oracle.n, run_seed)):
            continue
        comp = rule.score_from_marginal(oracle.marginal(j, ()), float(costs[j]), k)
        if not math.isfinite(comp):
            continue
        m = oracle.marginal(i, ())
        thr = rule.threshold_from_marginal(m, comp, k, wins_tie=i < j)
        if thr <= 1e-6 or not math.isfinite(thr):
            continue
        below = rule.score_from_marginal(m, thr - 1e-6, k)
        above = rule.score_from_marginal(m, thr + 1e-6, k)
        assert below > comp
        assert above < comp or (above == comp and i > j)


class TestOnlinePrice:
    def test_cost_scaled_half(self):
        oracle = AdditiveOracle([10.0])
        assert make_rule("cost-scaled", 1).posted_price(oracle.marginal(0, ())) == 5.0

    def test_margin_full(self):
        oracle = AdditiveOracle([7.0])
        assert make_rule("greedy-margin", 1).posted_price(oracle.marginal(0, ())) == 7.0

    def test_zero_marginal_prices_zero(self):
        oracle = AdditiveOracle([0.0])
        assert make_rule("greedy-margin", 1).posted_price(oracle.marginal(0, ())) == 0.0

    def test_round_indexed_rules_rejected(self):
        oracle = AdditiveOracle([1.0])
        with pytest.raises(UnsupportedRuleError):
            make_rule("distorted", 1).posted_price(oracle.marginal(0, ()))


class TestValidateAssumptions:
    @pytest.mark.parametrize("rule_name", ALL_RULES)
    def test_all_shipped_rules_pass(self, rule_name):
        oracle, _ = random_oracle(23, 4, 8)
        rule = make_rule(rule_name, oracle.n)
        report = validate_assumptions(rule, oracle, trials=150, seed=5)
        assert report.passed, [c.counterexample for c in report.checks if not c.passed]

    def test_noisy_rule_passes_against_its_own_oracle(self):
        base, _ = random_oracle(29, 4, 8)
        noisy = NoisyOracle(base, 0.1, seed=1)
        rule = make_rule("noisy-distorted", base.n, noise_epsilon=0.1)
        report = validate_assumptions(rule, noisy, trials=150, seed=5)
        assert report.passed, [c.counterexample for c in report.checks if not c.passed]

    @pytest.mark.parametrize("cap", [1, 3])
    def test_capped_rule_scores_only_rounds_up_to_its_cap(self, cap):
        oracle, _ = random_oracle(41, 6, 6)
        rule = make_rule("distorted", oracle.n, cardinality=cap)
        report = validate_assumptions(rule, oracle, trials=100, seed=5)
        assert report.passed, [c.counterexample for c in report.checks if not c.passed]

    @pytest.mark.parametrize("rule_name", ["distorted", "stochastic-distorted", "noisy-distorted"])
    @pytest.mark.parametrize("horizon", [3, 9])
    def test_horizon_must_match_the_oracle(self, rule_name, horizon):
        """Too short a horizon would index past the alpha tuple; too long a
        one would check multipliers that no 6-seller run uses."""
        with pytest.raises(ValueError, match="horizon"):
            validate_assumptions(make_rule(rule_name, horizon), AdditiveOracle([1.0] * 6), trials=20)

    def test_increasing_fixture_fails_monotonicity(self):
        oracle, _ = random_oracle(31, 3, 6)

        def bad_rule(i, tentative, bids, k):
            return oracle.marginal(i, tentative) + bids[i]

        report = validate_assumptions(bad_rule, oracle, trials=50, seed=5)
        assert not report.checks[0].passed

    def test_bossy_fixture_fails_independence(self):
        oracle, _ = random_oracle(37, 3, 6)

        def bossy_rule(i, tentative, bids, k):
            return oracle.marginal(i, tentative) - bids[i] - 0.01 * sum(bids)

        report = validate_assumptions(bossy_rule, oracle, trials=50, seed=5)
        assert not report.checks[2].passed

    def test_negativity_above_marginal_direct(self):
        oracle = AdditiveOracle([3.0])
        rule = make_rule("greedy-margin", 1)
        assert rule.score_from_marginal(oracle.marginal(0, ()), 3.1, 1) == pytest.approx(-0.1)


class TestDiminishingFlag:
    def test_flags(self):
        for name in ("greedy-margin", "greedy-rate", "roi", "cost-scaled"):
            rule = make_rule(name, 4)
            assert rule.diminishing_return and name in ONLINE_CAPABLE_RULES
        for name in ("distorted", "stochastic-distorted", "noisy-distorted"):
            rule = make_rule(name, 4)
            assert not rule.diminishing_return and name not in ONLINE_CAPABLE_RULES

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_flagged_rules_scores_shrink_with_set_and_round(self, seed):
        oracle, costs = random_oracle(seed, 3, 8)
        rng = np.random.default_rng(seed)
        i = int(rng.integers(0, oracle.n))
        others = [x for x in range(oracle.n) if x != i]
        small = tuple(sorted(rng.choice(others, size=len(others) // 2, replace=False)))
        big = tuple(sorted(set(small) | set(others)))
        for name in ("greedy-margin", "greedy-rate", "roi", "cost-scaled"):
            rule = make_rule(name, oracle.n)
            early = rule.score_from_marginal(oracle.marginal(i, small), float(costs[i]), 1)
            late = rule.score_from_marginal(oracle.marginal(i, big), float(costs[i]), oracle.n)
            assert late <= early + 1e-12

    def test_distorted_violation_exists(self):
        # Multiplier growth across rounds can raise a score even on a fixed set.
        oracle = AdditiveOracle([4.0, 1.0, 1.0, 1.0])
        rule = make_rule("distorted", 4)
        early = rule.score_from_marginal(oracle.marginal(0, ()), 2.0, 1)
        late = rule.score_from_marginal(oracle.marginal(0, ()), 2.0, 4)
        assert late > early


def test_random_seed_batches_are_stable():
    seed = RandomSeed(123)
    assert seed.round_batch(3, 50) == seed.round_batch(3, 50)
    assert any(seed.round_batch(k, 50) != seed.round_batch(3, 50) for k in range(4, 13))  # rounds draw anew


def test_round_batch_is_an_ascending_tuple_of_at_most_three_sellers():
    assert STOCHASTIC_BATCH == math.ceil(math.log(1 / 0.1)) == 3
    sizes = set()
    for seed in range(20):
        for n in (1, 2, 5, 500):
            for k in range(1, 6):
                batch = RandomSeed(seed).round_batch(k, n)
                assert type(batch) is tuple and all(type(i) is int for i in batch)
                assert list(batch) == sorted(set(batch)) and all(0 <= i < n for i in batch)
                sizes.add(len(batch))
    assert sizes == {1, 2, 3}  # repeated draws collapse


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
def test_seed_must_be_an_integer(seed):
    """A float was truncated (1.5 ran as seed 1); a bool is refused like the CLI's."""
    with pytest.raises(TypeError):
        RandomSeed(seed)
    with pytest.raises(TypeError):
        run_meta(make_rule("stochastic-distorted", 3), AdditiveOracle([1.0, 2.0, 3.0]), [0.5] * 3, seed=seed)


def test_numpy_integer_seed_is_kept():
    seed = RandomSeed(np.int64(7))
    assert type(seed.seed) is int and seed == RandomSeed(7)
    assert seed.round_batch(4, 30) == RandomSeed(7).round_batch(4, 30)


# -- per-rule closed forms, as the rules were first written out ---------------


def reference_score(rule, m, bid, k):
    kind = rule.kind
    if kind == "greedy-margin":
        return m - bid
    if kind == "cost-scaled":
        return m - 2.0 * bid
    if kind == "greedy-rate":
        if m <= 0.0:
            return NOT_SAMPLED
        return (m - bid) / m
    if kind == "roi":
        if bid == 0.0:
            return math.inf if m > 0.0 else -1.0
        if bid == math.inf:
            return -1.0
        return (m - bid) / bid
    if kind in ("distorted", "stochastic-distorted"):
        return rule.multiplier(k) * m - bid
    return rule.multiplier(k) * m - rule.x * bid


def reference_threshold(rule, m, target, k, wins_tie):
    kind = rule.kind
    if target == math.inf:
        return 0.0
    if kind == "greedy-rate":
        if m <= 0.0:
            return math.inf if (target == NOT_SAMPLED and wins_tie) else 0.0
        if target == NOT_SAMPLED:
            return math.inf
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
    if kind == "greedy-margin":
        return max(0.0, m - target)
    if kind == "cost-scaled":
        return max(0.0, (m - target) / 2.0)
    if kind in ("distorted", "stochastic-distorted"):
        return max(0.0, rule.multiplier(k) * m - target)
    return max(0.0, (rule.multiplier(k) * m - target) / rule.x)


def reference_posted_price(rule, m):
    return m / 2.0 if rule.kind == "cost-scaled" else m


def float_bits(values):
    """Floats as hex strings, so that == also tells -0.0 from 0.0."""
    return [float(x).hex() for x in values]


RULE_CASES = {name: (name, {}) for name in RULE_NAMES}
RULE_CASES["noisy-distorted"] = ("noisy-distorted", {"noise_epsilon": 0.1})
RULE_CASES["noisy-distorted-eps0"] = ("noisy-distorted", {"noise_epsilon": 0.0})
RULE_CASES["distorted-cap3"] = ("distorted", {"cardinality": 3})
GRID_M = [-1.5, -0.0, 0.0, 5e-324, 0.3, 1.0, 2.5, 1e300]
GRID_B = [0.0, 5e-324, 0.3, 1.0, 2.5, 1e300, math.inf]
TARGETS = [NOT_SAMPLED, -1.0, 0.0, 0.7, math.inf]


def case_rule(case):
    name, kwargs = RULE_CASES[case]
    return make_rule(name, 7, **kwargs)


def rounds_to_check(rule):
    """First, middle and last round of a run."""
    return (1, (1 + rule.rounds) // 2, rule.rounds)


@pytest.mark.parametrize("case", RULE_CASES)
def test_array_scores_equal_scalar_scores_elementwise(case):
    """``scores`` is ``score_from_marginal`` element by element, and both are the
    rule's closed form, edges included: greedy-rate at m <= 0, roi at bid 0 and
    bid +inf, the noisy x*b, the capped multiplier."""
    rule = case_rule(case)
    m = np.array([x for x in GRID_M for _ in GRID_B])
    bids = np.array([b for _ in GRID_M for b in GRID_B])
    for k in rounds_to_check(rule):
        got = rule.scores(m, bids, k)
        scalar = [rule.score_from_marginal(float(x), float(b), k) for x, b in zip(m, bids)]
        want = [reference_score(rule, float(x), float(b), k) for x, b in zip(m, bids)]
        assert got.dtype == np.float64
        assert float_bits(got) == float_bits(scalar) == float_bits(want)


@pytest.mark.parametrize("case", RULE_CASES)
def test_thresholds_and_posted_prices_equal_closed_forms(case):
    rule = case_rule(case)
    for k in rounds_to_check(rule):
        for wins_tie in (False, True):
            got = [rule.threshold_from_marginal(m, t, k, wins_tie) for m in GRID_M for t in TARGETS]
            want = [reference_threshold(rule, m, t, k, wins_tie) for m in GRID_M for t in TARGETS]
            assert float_bits(got) == float_bits(want)
    if rule.diminishing_return:
        assert float_bits(map(rule.posted_price, GRID_M)) == float_bits(
            reference_posted_price(rule, m) for m in GRID_M
        )
    else:
        with pytest.raises(UnsupportedRuleError):
            rule.posted_price(1.0)


class TestRuleParameters:
    @pytest.mark.parametrize("eps", [math.nan, -5.0, -1e-9, 1.0, 3.0])
    def test_noise_epsilon_outside_unit_interval_rejected(self, eps):
        with pytest.raises(ValueError, match="noise epsilon"):
            make_rule("noisy-distorted", 6, noise_epsilon=eps)

    @pytest.mark.parametrize("cap", [0, -2])
    def test_cardinality_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="cardinality"):
            make_rule("distorted", 6, cardinality=cap)

    def test_coefficients_keep_the_public_values(self):
        rule = make_rule("noisy-distorted", 6, noise_epsilon=0.1)
        assert rule.x == 1.0 + 2.0 * 0.1 * 6 + 0.1
        assert rule.multiplier(2) == (1.0 - 1.0 / 6) ** 4
        assert make_rule("distorted", 6, cardinality=2).multiplier(1) == 0.5

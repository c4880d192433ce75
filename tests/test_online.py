import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procure.online import (
    as_arrival_order,
    order_identity,
    order_random,
    order_reverse,
    run_online_meta,
    run_posted_price,
    worst_sampled_order,
)
from procure.descending import run_descending_from_online
from procure.scoring import UnsupportedRuleError, make_rule
from procure.sealed_bid import exact_opt
from procure.instances import random_instance
from procure.valuation import AdditiveOracle, CoverageOracle
from conftest import posted_price_reference, random_oracle, synthetic_instances

BAD_COSTS = {
    "short": [1.0],
    "long": [1.0, 1.0, 1.0],
    "negative": [1.0, -0.5],
    "nan": [math.nan, 1.0],
}

ONLINE_RULES = ("greedy-margin", "greedy-rate", "roi", "cost-scaled")


class TestOnlineMeta:
    def test_cost_scaled_example(self):
        oracle = AdditiveOracle([10.0, 4.0])
        winners = run_online_meta(make_rule("cost-scaled", 2), oracle, [3.0, 3.0], (0, 1))
        assert winners == (0,)

    def test_zero_costs_admit_all_positive(self):
        oracle = AdditiveOracle([2.0, 0.0, 5.0])
        winners = run_online_meta(make_rule("greedy-margin", 3), oracle, [0.0] * 3, (2, 0, 1))
        assert winners == (0, 2)

    def test_modular_order_invariance(self):
        oracle = AdditiveOracle([4.0, 6.0, 1.0])
        costs = [1.0, 2.0, 3.0]
        rule = make_rule("cost-scaled", 3)
        fwd = run_online_meta(rule, oracle, costs, order_identity(3))
        rev = run_online_meta(rule, oracle, costs, order_reverse(3))
        assert fwd == rev

    def test_distorted_rejected(self):
        oracle = AdditiveOracle([1.0])
        with pytest.raises(UnsupportedRuleError):
            run_online_meta(make_rule("distorted", 1), oracle, [0.5], (0,))

    def test_subnormal_marginal_agrees_across_entry_points(self):
        # The cost-scaled price m/2 underflows to 0.0, so a zero cost does
        # not beat it, although the score m - 2*0 is positive.
        oracle = AdditiveOracle([5e-324])
        rule = make_rule("cost-scaled", 1)
        posted = run_posted_price(rule, oracle, [0.0], (0,))
        assert posted.posted_prices == (0.0,) and posted.winners == ()
        assert run_online_meta(rule, oracle, [0.0], (0,)) == ()
        assert run_descending_from_online(rule, oracle, [0.0], (0,)).winners == ()

    def test_order_validated(self):
        oracle = AdditiveOracle([1.0, 2.0])
        with pytest.raises(ValueError):
            as_arrival_order((0, 0), 2)
        with pytest.raises(ValueError):
            run_online_meta(make_rule("cost-scaled", 2), oracle, [0.1, 0.1], (1, 1))


class TestArrivalOrder:
    @pytest.mark.parametrize("order", [(0, 0, 1), (0, 1, 3), (-1, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3)])
    def test_non_permutations_rejected(self, order):
        with pytest.raises(ValueError, match="permutation"):
            as_arrival_order(order, 3)

    def test_numpy_integers_accepted(self):
        got = as_arrival_order(np.array([2, 0, 1]), 3)
        assert got == (2, 0, 1) and all(type(i) is int for i in got)
        assert as_arrival_order((), 0) == ()

    @pytest.mark.parametrize("order", [(0.5, 1.2), (0.0, 1.0), (True, False), (0, np.True_)])
    def test_non_integer_entries_rejected(self, order):
        # int() would truncate (0.5, 1.2) to the permutation (0, 1).
        with pytest.raises(TypeError):
            as_arrival_order(order, 2)


class TestPostedPrice:
    def test_cost_scaled_example(self):
        oracle = AdditiveOracle([10.0])
        out = run_posted_price(make_rule("cost-scaled", 1), oracle, [3.0], (0,))
        assert out.posted_prices == (5.0,)
        assert out.winners == (0,)
        assert out.payments == (5.0,)

    def test_exact_tie_is_rejected(self):
        oracle = AdditiveOracle([10.0])
        out = run_posted_price(make_rule("cost-scaled", 1), oracle, [5.0], (0,))
        assert out.winners == ()
        assert out.payments == (0.0,)
        assert out.accepted == (False,)

    def test_unaffordable_market(self):
        oracle = AdditiveOracle([1.0, 2.0])
        out = run_posted_price(make_rule("greedy-margin", 2), oracle, [5.0, 6.0], (0, 1))
        assert out.winners == ()
        assert out.total_payment == 0.0

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(ONLINE_RULES))
    def test_same_solution_as_from_scratch_walk(self, seed, rule_name):
        oracle, costs = random_oracle(seed, 2, 12)
        rule = make_rule(rule_name, oracle.n)
        order = order_random(oracle.n, seed)
        winners, _, _ = posted_price_reference(rule, oracle.instance, costs, order)
        assert run_posted_price(rule, oracle, costs, order).winners == winners
        assert run_online_meta(rule, oracle, costs, order) == winners

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(ONLINE_RULES))
    def test_nas_telescopes(self, seed, rule_name):
        oracle, costs = random_oracle(seed, 2, 12)
        rule = make_rule(rule_name, oracle.n)
        out = run_posted_price(rule, oracle, costs, order_random(oracle.n, seed + 1))
        assert out.total_payment <= oracle.value(out.winners) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_acceptance_is_pointwise_optimal(self, seed):
        """Accepting iff price exceeds cost maximizes the seller's utility."""
        oracle, costs = random_oracle(seed, 2, 10)
        rule = make_rule("cost-scaled", oracle.n)
        out = run_posted_price(rule, oracle, costs, order_identity(oracle.n))
        for i in range(oracle.n):
            utility = out.payments[i] - (costs[i] if out.accepted[i] else 0.0)
            assert utility == pytest.approx(max(0.0, out.posted_prices[i] - costs[i]) if out.accepted[i] else 0.0)
            # the rejected branch always yields zero; accepted iff strictly profitable
            assert out.accepted[i] == (out.posted_prices[i] > costs[i])


class TestPostedPriceMatchesFromScratchPricing:
    """The scratch-priced loop against one from-scratch marginal per arrival."""

    @staticmethod
    def _assert_matches_reference(rule_name, instance, costs, order):
        oracle = CoverageOracle(instance)
        rule = make_rule(rule_name, oracle.n)
        out = run_posted_price(rule, oracle, costs, order)
        winners, posted, payments = posted_price_reference(rule, instance, costs, order)
        assert out.winners == winners
        assert out.posted_prices == posted
        assert out.payments == payments
        assert oracle.query_count == oracle.n + len(out.winners)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(ONLINE_RULES))
    def test_random_instances(self, seed, rule_name):
        instance, costs = random_instance(2 + seed % 14, seed)
        self._assert_matches_reference(rule_name, instance, costs, order_random(len(costs), seed))

    @pytest.mark.parametrize("rule_name", ONLINE_RULES)
    def test_synthetic_graph_instances(self, rule_name):
        for j, (instance, costs) in enumerate(synthetic_instances(3)):
            self._assert_matches_reference(rule_name, instance, costs, order_random(len(costs), j))


class TestInputValidation:
    @pytest.mark.parametrize("case", sorted(BAD_COSTS))
    def test_posted_price_rejects_bad_costs(self, case):
        oracle = AdditiveOracle([1.0, 2.0])
        with pytest.raises(ValueError):
            run_posted_price(make_rule("greedy-margin", 2), oracle, BAD_COSTS[case], (0, 1))

    @pytest.mark.parametrize("case", sorted(BAD_COSTS))
    def test_online_meta_rejects_bad_costs(self, case):
        oracle = AdditiveOracle([1.0, 2.0])
        with pytest.raises(ValueError):
            run_online_meta(make_rule("greedy-margin", 2), oracle, BAD_COSTS[case], (0, 1))

    def test_infinite_cost_is_never_admitted(self):
        oracle = AdditiveOracle([1.0, 2.0])
        out = run_posted_price(make_rule("roi", 2), oracle, [math.inf, 1.0], (0, 1))
        assert out.winners == (1,)


def test_cost_scaled_online_guarantee_with_adversarial_orders():
    for seed in range(10):
        oracle, costs = random_oracle(seed + 40, 2, 10)
        rule = make_rule("cost-scaled", oracle.n)
        w, _ = exact_opt(oracle, costs)
        f_opt = oracle.value(w)
        c_opt = sum(costs[i] for i in w)
        orders = [order_random(oracle.n, s) for s in range(10)]
        orders.append(worst_sampled_order(rule, oracle, costs, samples=20, seed=seed))
        for order in orders:
            winners = run_online_meta(rule, oracle, costs, order)
            welfare = oracle.value(winners) - sum(costs[i] for i in winners)
            assert welfare >= 0.5 * f_opt - c_opt - 1e-9

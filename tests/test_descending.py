import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procure.descending import (
    CostScaledDemand,
    DemandStateError,
    ExactDemand,
    FamilyExactDemand,
    LexicographicSchedule,
    RoundRobinSchedule,
    ScriptedSchedule,
    random_scripted_schedules,
    run_descending,
    run_descending_from_online,
)
from procure.online import order_random
from procure.scoring import UnsupportedRuleError, make_rule
from procure.sealed_bid import exact_opt, verify_ir
from procure.instances import ExperimentConfig, build_instance, random_instance, synthetic_bipartite_graph
from procure.valuation import AdditiveOracle, AdversarialFamilyOracle, CoverageInstance, CoverageOracle
from procure.verification import lowerbound_report
from conftest import brute_force_opt, posted_price_reference, random_oracle, synthetic_instances

ONLINE_RULES = ("greedy-margin", "greedy-rate", "roi", "cost-scaled")
BAD_BIDS = {
    "short": [1.0],
    "long": [1.0, 1.0, 1.0],
    "negative": [1.0, -0.5],
    "nan": [math.nan, 1.0],
}
BAD_STEPS = (0.0, -0.25, math.nan, math.inf)


class _CheckedDemand:
    """Wraps a CostScaledDemand and checks its returned set after every call."""

    def __init__(self, inner: CostScaledDemand):
        self.inner = inner
        self.calls = 0

    def begin_run(self):
        self.inner.begin_run()

    def __call__(self, active, prices, prev):
        demanded = self.inner(active, prices, prev)
        assert demanded == frozenset(self.inner.scratch.members)
        self.calls += 1
        return demanded


class _PlainDemand:
    """Forwards to a demand oracle and hides its event-loop protocol."""

    def __init__(self, inner):
        self.inner = inner

    def begin_run(self):
        self.inner.begin_run()

    def __call__(self, active, prices, prev):
        return self.inner(active, prices, prev)


class _PlainSchedule:
    """Forwards to a schedule and hides its event-loop protocol."""

    def __init__(self, inner):
        self.inner = inner

    def pick(self, active, demanded, prices):
        return self.inner.pick(active, demanded, prices)


class _CountingLex(LexicographicSchedule):
    def __init__(self):
        self.picks = 0

    def pick(self, active, demanded, prices):
        self.picks += 1
        return super().pick(active, demanded, prices)


class TestExactDemand:
    def test_tie_goes_to_smaller_set(self):
        oracle = AdditiveOracle([10.0])
        demand = ExactDemand(oracle)
        assert demand(frozenset({0}), [10.0], None) == frozenset()
        assert demand(frozenset({0}), [9.5], None) == frozenset({0})

    def test_family_initial_prices_exclude_specials(self):
        oracle = AdversarialFamilyOracle(3)
        demand = ExactDemand(oracle)
        prices = [oracle.marginal(i, ()) for i in range(oracle.n)]
        demanded = demand(frozenset(range(oracle.n)), prices, None)
        assert not ({3, 4} <= demanded)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_enumeration(self, seed):
        oracle, _ = random_oracle(seed, 2, 7)
        rng = np.random.default_rng(seed)
        prices = [float(rng.uniform(0, 1.2 * max(oracle.marginal(i, ()), 1.0))) for i in range(oracle.n)]
        active = frozenset(int(i) for i in rng.choice(oracle.n, size=max(1, oracle.n - 1), replace=False))
        demanded = ExactDemand(oracle)(active, prices, None)
        brute, _ = brute_force_opt(oracle, prices, prefer_small=True, candidates=active)
        assert tuple(sorted(demanded)) == brute


class TestFamilyExactDemand:
    @pytest.mark.parametrize("L", [3, 4])
    def test_agrees_with_generic_exact_demand(self, L):
        oracle = AdversarialFamilyOracle(L)
        n = oracle.n
        generic = ExactDemand(oracle)
        analytic = FamilyExactDemand(oracle)
        rng = np.random.default_rng(L)
        price_grids = [[oracle.marginal(i, ()) for i in range(n)]]
        for _ in range(60):
            price_grids.append([float(rng.uniform(0, L + 1)) for _ in range(n)])
        for prices in price_grids:
            for r in (n, n - 1, n - 2):
                for active in itertools.combinations(range(n), r):
                    a = frozenset(active)
                    assert analytic(a, prices, None) == generic(a, prices, None), (prices, active)


class TestCostScaledDemand:
    def test_first_call_is_empty(self):
        oracle = AdditiveOracle([10.0])
        state = CostScaledDemand(oracle)
        assert state(frozenset({0}), [4.0], None) == frozenset()

    def test_adds_when_marginal_exceeds_twice_price(self):
        oracle = AdditiveOracle([10.0])
        state = CostScaledDemand(oracle)
        assert state(frozenset({0}), [4.0], 0) == frozenset({0})

    def test_keeps_when_marginal_below_twice_price(self):
        oracle = AdditiveOracle([10.0])
        state = CostScaledDemand(oracle)
        assert state(frozenset({0}), [6.0], 0) == frozenset()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_returned_set_is_the_tentative_set(self, seed):
        oracle, costs = random_oracle(seed, 2, 9)
        eps = max(max(oracle.marginal(i, ()) for i in range(oracle.n)), 1.0) / 30.0
        for schedule in (LexicographicSchedule(), RoundRobinSchedule(oracle.n)):
            demand = _CheckedDemand(CostScaledDemand(oracle))
            run_descending(oracle, costs, demand, schedule, eps)
            assert demand.calls > 0

    def test_state_reuse_rejected(self):
        oracle = AdditiveOracle([10.0])
        state = CostScaledDemand(oracle)
        run_descending(oracle, [3.0], state, LexicographicSchedule(), 0.5)
        with pytest.raises(DemandStateError):
            run_descending(oracle, [3.0], state, LexicographicSchedule(), 0.5)


class TestRunDescending:
    def test_single_seller_exact_oracle_trace(self):
        oracle = AdditiveOracle([10.0])
        out = run_descending(oracle, [3.0], ExactDemand(oracle), LexicographicSchedule(), 0.5)
        assert out.winners == (0,)
        assert out.payments == (9.5,)

    def test_all_bids_above_initial_marginals(self):
        oracle = AdditiveOracle([2.0, 3.0])
        out = run_descending(oracle, [10.0, 10.0], ExactDemand(oracle), LexicographicSchedule(), 0.25)
        assert out.winners == ()
        assert out.payments == (0.0, 0.0)

    def test_invalid_epsilon(self):
        oracle = AdditiveOracle([1.0])
        for step in BAD_STEPS:
            with pytest.raises(ValueError, match="step size"):
                run_descending(oracle, [0.5], ExactDemand(oracle), LexicographicSchedule(), step)

    def test_nan_epsilon_rejected(self):
        oracle = AdditiveOracle([1.0])
        with pytest.raises(ValueError, match="step size"):
            run_descending(oracle, [0.5], ExactDemand(oracle), LexicographicSchedule(), math.nan)

    @pytest.mark.parametrize("case", sorted(BAD_BIDS))
    def test_bad_bids_rejected(self, case):
        oracle = AdditiveOracle([1.0, 2.0])
        with pytest.raises(ValueError):
            run_descending(oracle, BAD_BIDS[case], CostScaledDemand(oracle), LexicographicSchedule(), 0.5)

    def test_seller_bidding_above_its_starting_price_leaves_before_any_demand(self):
        """A demand oracle that demands every active seller ends the clock at
        tick 0; seller 0, whose bid 5 is above its starting price 1, must
        already be gone, not win at a price below its bid."""

        class DemandAll:
            def begin_run(self):
                pass

            def __call__(self, active, prices, prev):
                return active

        oracle = AdditiveOracle([1.0, 2.0])
        out = run_descending(oracle, [5.0, 1.0], DemandAll(), LexicographicSchedule(), 0.25)
        assert (out.winners, out.payments, out.ticks) == ((1,), (0.0, 2.0), 0)
        assert verify_ir(out, [5.0, 1.0], tol=0.0)

    def test_lexicographic_pick_is_smallest_undemanded(self):
        assert LexicographicSchedule().pick(frozenset({4, 1, 7, 2}), frozenset({1}), []) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_ir_by_construction(self, seed):
        oracle, costs = random_oracle(seed, 2, 8)
        eps = max(max(oracle.marginal(i, ()) for i in range(oracle.n)), 1.0) / 30.0
        out = run_descending(oracle, costs, CostScaledDemand(oracle), LexicographicSchedule(), eps)
        for i in out.winners:
            assert out.payments[i] >= costs[i]

    def test_round_robin_and_scripted_schedules_run(self):
        oracle, costs = random_oracle(7, 3, 6)
        eps = 0.5
        for schedule in [RoundRobinSchedule(oracle.n), ScriptedSchedule(range(oracle.n))]:
            out = run_descending(oracle, costs, CostScaledDemand(oracle), schedule, eps)
            assert all(out.payments[i] >= costs[i] for i in out.winners)


def _schedule_makers(n, seed):
    scripted = [s.priority for s in random_scripted_schedules(n, 3, seed)]
    return {
        "lex": LexicographicSchedule,
        "rr": lambda: RoundRobinSchedule(n),
        **{f"scripted{j}": (lambda p=p: ScriptedSchedule(p)) for j, p in enumerate(scripted)},
    }


def _clock_result(make_oracle, bids, make_schedule, epsilon, plain):
    oracle = make_oracle()
    demand, schedule = CostScaledDemand(oracle), make_schedule()
    if plain:
        demand, schedule = _PlainDemand(demand), _PlainSchedule(schedule)
    out = run_descending(oracle, bids, demand, schedule, epsilon)
    return out.winners, out.payments, out.ticks, oracle.query_count


def _reference_clock(oracle, bids, schedule, epsilon):
    """Per-tick cost-scaled clock with a from-scratch marginal on every tick."""
    n = oracle.n
    prices = [oracle.marginal(i, ()) for i in range(n)]
    active = {i for i in range(n) if not prices[i] < bids[i]}  # a bid above the starting price leaves at once
    prices = [p if i in active else 0.0 for i, p in enumerate(prices)]
    tentative, ticks, prev = [], 0, None
    while True:
        if prev in active and oracle.marginal(prev, tentative) > 2.0 * prices[prev]:
            tentative.append(prev)
        if set(tentative) == active:
            break
        prev = schedule.pick(frozenset(active), frozenset(tentative), prices)
        prices[prev] -= epsilon
        ticks += 1
        if prices[prev] < bids[prev]:
            active.discard(prev)
            prices[prev] = 0.0
    return tuple(sorted(active)), tuple(prices[i] if i in active else 0.0 for i in range(n)), ticks


def _assert_event_loop_matches_ticks(make_oracle, bids, epsilon, seed=0):
    """The event loop against the per-tick loop on the same demand and
    schedule (queries included), and both against a from-scratch clock."""
    n = make_oracle().n
    for name, make_schedule in _schedule_makers(n, seed).items():
        event = _clock_result(make_oracle, bids, make_schedule, epsilon, plain=False)
        ticked = _clock_result(make_oracle, bids, make_schedule, epsilon, plain=True)
        assert event == ticked, name
        assert event[:3] == _reference_clock(make_oracle(), bids, make_schedule(), epsilon), name


class TestEventLoop:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_per_tick_loop_on_random_oracles(self, seed):
        oracle, costs = random_oracle(seed, 2, 9)
        instance = oracle.instance
        eps = max(max(oracle.marginal(i, ()) for i in range(oracle.n)), 1.0) / 30.0
        _assert_event_loop_matches_ticks(lambda: CoverageOracle(instance), costs, eps, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from((0.1, 0.3, 1 / 3, 0.25)))
    def test_matches_per_tick_loop_on_random_instances(self, seed, eps):
        instance, costs = random_instance(2 + seed % 14, seed)
        _assert_event_loop_matches_ticks(lambda: CoverageOracle(instance), costs, eps, seed)

    @pytest.mark.parametrize("eps", [0.25, 0.1, 1 / 3])
    def test_edge_case_bids_and_marginals(self, eps):
        reachable = 2.0
        for _ in range(3):
            reachable -= eps
        # Bid 0 on positive and zero weights, bid +inf, a bid equal to the
        # weight, and a bid the price reaches exactly in three ticks.
        weights = [3.0, 0.0, 2.0, 1.7, 0.0, 2.0]
        bids = [0.0, 0.0, math.inf, 1.7, 0.5, reachable]
        _assert_event_loop_matches_ticks(lambda: AdditiveOracle(weights), bids, eps)
        oracle = AdditiveOracle(weights)
        out = run_descending(oracle, bids, CostScaledDemand(oracle), LexicographicSchedule(), eps)
        assert not {1, 2, 3, 4} & set(out.winners)
        # Duplicate covers: once seller 0 is admitted, seller 1's marginal is
        # zero from a positive price, so it is stepped down to its bid.
        instance = CoverageInstance(covers=((0, 1), (0, 1), (1,)), vertex_values=(1.0, 2.0))
        _assert_event_loop_matches_ticks(lambda: CoverageOracle(instance), [0.0, 0.0, 0.5], eps)

    def test_bid_equal_to_reachable_price_is_kept_one_more_tick(self):
        # Price 2.0 falls to exactly the bid 1.5 in two ticks and survives
        # it; f = 2 > 2 * 1.5 fails, so the third tick drops the seller.
        oracle = AdditiveOracle([2.0])
        out = run_descending(oracle, [1.5], CostScaledDemand(oracle), LexicographicSchedule(), 0.25)
        assert (out.winners, out.payments, out.ticks) == ((), (0.0,), 3)

    def test_matches_per_tick_loop_on_a_synthetic_graph_instance(self):
        graph = synthetic_bipartite_graph(1500, 600, seed=0)
        instance, costs = build_instance(graph, ExperimentConfig(n=300, s=2.0, instances=1, seed=5), 0)
        oracle = CoverageOracle(instance)
        eps = max(max(oracle.marginal(i, ()) for i in range(oracle.n)), 1.0) / 50.0
        _assert_event_loop_matches_ticks(lambda: CoverageOracle(instance), costs, eps, seed=5)

    def test_picks_once_per_event_and_computes_each_marginal_once(self):
        instance, costs = random_instance(12, 4)
        oracle = CoverageOracle(instance)
        schedule = _CountingLex()
        out = run_descending(oracle, costs, CostScaledDemand(oracle), schedule, 0.05)
        assert schedule.picks <= oracle.n < out.ticks
        # n initial prices, one marginal per picked seller that survives
        # its first tick, one add per winner and the final value.
        assert oracle.query_count <= oracle.n + schedule.picks + len(out.winners) + 1

    def test_ticks_reported_only_by_the_clock(self):
        oracle = AdditiveOracle([10.0])
        out = run_descending(oracle, [3.0], ExactDemand(oracle), LexicographicSchedule(), 0.5)
        assert out.ticks == 1
        posted = run_descending_from_online(make_rule("cost-scaled", 1), oracle, [3.0], (0,))
        assert posted.ticks is None


class TestCostScaledDescendingBound:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cost_scaled_keeps_half_bound(self, seed):
        oracle, costs = random_oracle(seed, 2, 9)
        n = oracle.n
        eps = max(max(oracle.marginal(i, ()) for i in range(n)), 1.0) / 40.0
        w, _ = exact_opt(oracle, costs)
        f_opt, c_opt = oracle.value(w), sum(costs[i] for i in w)
        schedules = [LexicographicSchedule(), RoundRobinSchedule(n)] + random_scripted_schedules(n, 5, seed)
        for schedule in schedules:
            out = run_descending(oracle, costs, CostScaledDemand(oracle), schedule, eps)
            welfare = out.value - sum(costs[i] for i in out.winners)
            assert welfare >= 0.5 * f_opt - c_opt - n * eps - 1e-9

    def test_nas_under_cost_scaled(self):
        for seed in range(10):
            oracle, costs = random_oracle(seed + 60, 2, 9)
            eps = max(max(oracle.marginal(i, ()) for i in range(oracle.n)), 1.0) / 40.0
            out = run_descending(oracle, costs, CostScaledDemand(oracle), LexicographicSchedule(), eps)
            assert out.total_payment <= out.value + 1e-9


class TestFamilyReproduction:
    @pytest.mark.parametrize("L", [10, 50])
    def test_exact_collapses_cost_scaled_survives(self, L):
        res = lowerbound_report(L, epsilon=1.0 / (2 * L))
        assert res["exact_oracle_welfare"] <= 2.0 + 1e-9
        assert res["cost_scaled_welfare"] >= L / 2.0 - 1.0 - 1e-9
        assert res["opt_welfare"] == L - 1

    @pytest.mark.parametrize("L", [10, 50])
    def test_report_is_pinned(self, L):
        assert lowerbound_report(L, epsilon=1.0 / (2 * L)) == {
            "L": L,
            "epsilon": 1.0 / (2 * L),
            "opt_welfare": float(L - 1),
            "exact_oracle_welfare": 2.0,
            "exact_oracle_winners": [L],
            "cost_scaled_welfare": float(L - 1),
            "cost_scaled_winners": list(range(L)),
        }

    def test_opt_welfare_matches_brute_force_at_small_l(self):
        oracle = AdversarialFamilyOracle(10)
        _, welfare = exact_opt(oracle, oracle.bids())
        assert welfare == pytest.approx(9.0)

    def test_epsilon_precondition(self):
        with pytest.raises(ValueError):
            lowerbound_report(10, epsilon=0.2)


class TestOnlineConversion:
    def test_single_seller_admitted_at_half(self):
        oracle = AdditiveOracle([10.0])
        out = run_descending_from_online(make_rule("cost-scaled", 1), oracle, [3.0], (0,))
        assert out.winners == (0,)
        assert out.payments == (5.0,)

    def test_rejection_branch(self):
        oracle = AdditiveOracle([10.0])
        out = run_descending_from_online(make_rule("cost-scaled", 1), oracle, [6.0], (0,))
        assert out.winners == ()
        assert out.payments == (0.0,)

    def test_round_indexed_rule_rejected(self):
        oracle = AdditiveOracle([1.0])
        with pytest.raises(UnsupportedRuleError):
            run_descending_from_online(make_rule("distorted", 1), oracle, [0.1], (0,))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(("greedy-margin", "greedy-rate", "roi", "cost-scaled")))
    def test_matches_posted_price(self, seed, rule_name):
        from procure.online import run_posted_price

        oracle, costs = random_oracle(seed, 2, 10)
        rule = make_rule(rule_name, oracle.n)
        order = order_random(oracle.n, seed + 2)
        posted = run_posted_price(rule, oracle, costs, order)
        converted = run_descending_from_online(rule, oracle, costs, order)
        assert posted.winners == converted.winners
        assert posted.payments == converted.payments

    @staticmethod
    def _assert_matches_reference(rule_name, instance, costs, order):
        oracle = CoverageOracle(instance)
        rule = make_rule(rule_name, oracle.n)
        out = run_descending_from_online(rule, oracle, costs, order)
        winners, _, payments = posted_price_reference(rule, instance, costs, order)
        assert (out.winners, out.payments) == (winners, payments)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(ONLINE_RULES))
    def test_payments_match_from_scratch_pricing(self, seed, rule_name):
        instance, costs = random_instance(2 + seed % 14, seed)
        self._assert_matches_reference(rule_name, instance, costs, order_random(len(costs), seed))

    @pytest.mark.parametrize("rule_name", ONLINE_RULES)
    def test_synthetic_graph_payments_match(self, rule_name):
        for j, (instance, costs) in enumerate(synthetic_instances(3)):
            self._assert_matches_reference(rule_name, instance, costs, order_random(len(costs), j))

    @pytest.mark.parametrize("case", sorted(BAD_BIDS))
    def test_bad_bids_rejected(self, case):
        oracle = AdditiveOracle([1.0, 2.0])
        with pytest.raises(ValueError):
            run_descending_from_online(make_rule("cost-scaled", 2), oracle, BAD_BIDS[case], (0, 1))

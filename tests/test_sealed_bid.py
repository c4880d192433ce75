import math
from unittest.mock import patch

import pytest
from hypothesis import event, example, given, settings, strategies as st

from procure import sealed_bid
from procure.scoring import ONLINE_CAPABLE_RULES, RULE_NAMES, RandomSeed, make_rule
from procure.sealed_bid import (
    AuctionOutcome,
    CapacityError,
    exact_opt,
    run_sealed_bid,
    run_vcg,
    sealed_bid_runner,
    verify_ic,
    verify_ir,
    verify_nas,
)
from procure.instances import random_instance
from procure.selection import ARRAY_ROUND_MIN, _greedy_rounds, _marginal_provider, run_meta
from procure.verification import critical_bid_bisection
from procure.valuation import (
    AdditiveOracle,
    AdversarialFamilyOracle,
    CoverageInstance,
    CoverageOracle,
    NoisyOracle,
    sum_in_order,
)
from conftest import (
    DYADIC_COSTS,
    NON_DYADIC_COSTS,
    NON_DYADIC_VALUES,
    brute_force_opt,
    edge_case_instances,
    lazy_meta,
    lazy_sealed,
    naive_meta,
    naive_sealed,
    random_oracle,
    rule_and_oracle,
)

DETERMINISTIC = ("greedy-margin", "greedy-rate", "distorted", "roi", "cost-scaled")


class TestSealedBidExamples:
    def test_coverage_hand_trace(self, coverage_pair):
        out = run_sealed_bid(make_rule("greedy-margin", 2), coverage_pair, [1.0, 1.0])
        assert out.winners == (1,)
        assert out.payments == (0.0, 3.0)
        assert out.value == 5.0
        assert out.auctioneer_surplus == pytest.approx(2.0)

    def test_single_seller_cost_scaled(self):
        oracle = AdditiveOracle([10.0])
        out = run_sealed_bid(make_rule("cost-scaled", 1), oracle, [3.0])
        assert out.winners == (0,)
        assert out.payments == (5.0,)

    def test_bids_above_marginals_pay_nothing(self, coverage_pair):
        out = run_sealed_bid(make_rule("greedy-margin", 2), coverage_pair, [50.0, 50.0])
        assert out.winners == ()
        assert out.payments == (0.0, 0.0)

    @pytest.mark.parametrize("mechanism", (naive_sealed, lazy_sealed))
    def test_nan_bid_rejected_by_both_engines(self, coverage_pair, mechanism):
        with pytest.raises(ValueError, match="NaN"):
            mechanism(make_rule("greedy-margin", 2), coverage_pair, [math.nan, 1.0])

    def test_focus_restricts_payments(self, coverage_pair):
        out = run_sealed_bid(make_rule("greedy-margin", 2), coverage_pair, [1.0, 1.0], focus=1)
        assert out.payments[1] == 3.0
        out_other = run_sealed_bid(make_rule("greedy-margin", 2), coverage_pair, [1.0, 1.0], focus=0)
        assert out_other.payments == (0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(DETERMINISTIC))
def test_winner_payment_covers_bid_and_nas(seed, rule_name):
    oracle, costs = random_oracle(seed, 2, 9)
    out = run_sealed_bid(make_rule(rule_name, oracle.n), oracle, costs)
    assert verify_ir(out, costs)
    assert verify_nas(out, oracle)
    for i in range(oracle.n):
        if i not in out.winners:
            assert out.payments[i] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(DETERMINISTIC))
def test_payment_bounded_by_admission_marginal(seed, rule_name):
    oracle, costs = random_oracle(seed, 2, 9)
    out = run_sealed_bid(make_rule(rule_name, oracle.n), oracle, costs)
    for i, k in out.trace.chosen_at.items():
        before = out.trace.tentative_sets[k - 1]
        assert out.payments[i] <= oracle.marginal(i, before) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(DETERMINISTIC))
def test_critical_bid_semantics(seed, rule_name):
    """Raising a winner's bid just past its payment evicts it; lowering keeps it."""
    oracle, costs = random_oracle(seed, 2, 8)
    rule = make_rule(rule_name, oracle.n)
    out = run_sealed_bid(rule, oracle, costs)
    for i in out.winners:
        p = out.payments[i]
        probe = list(costs)
        probe[i] = p + 1e-6
        assert i not in run_meta(rule, oracle, probe).winners
        if p > 1e-6:
            probe[i] = p - 1e-6
            assert i in run_meta(rule, oracle, probe).winners


def test_bisection_cross_check_small():
    for seed in range(15):
        oracle, costs = random_oracle(seed + 100, 2, 8)
        rule_name = DETERMINISTIC[seed % len(DETERMINISTIC)]
        rule = make_rule(rule_name, oracle.n)
        out = run_sealed_bid(rule, oracle, costs)
        for i in out.winners:
            crit = critical_bid_bisection(rule, oracle, costs, i)
            assert out.payments[i] == pytest.approx(crit, abs=1e-6)


def test_stochastic_rule_payments_use_shared_seed():
    oracle, costs = random_oracle(301, 4, 8)
    rule = make_rule("stochastic-distorted", oracle.n)
    out1 = run_sealed_bid(rule, oracle, costs, seed=RandomSeed(8))
    out2 = run_sealed_bid(rule, oracle, costs, seed=RandomSeed(8))
    assert out1.winners == out2.winners and out1.payments == out2.payments
    assert verify_ir(out1, costs) and verify_nas(out1, oracle)


def test_stochastic_run_draws_each_batch_once(monkeypatch):
    """The allocation and every payment pass share the run's seed object,
    so each round's batch is drawn once, however many passes read it."""
    from procure import scoring

    oracle, costs = random_oracle(301, 8, 12)
    rule = make_rule("stochastic-distorted", oracle.n)
    expected = run_sealed_bid(rule, oracle, costs, seed=RandomSeed(8))
    draws = []
    real = scoring.np.random.default_rng

    def counting_rng(seed):
        draws.append(seed)
        return real(seed)

    monkeypatch.setattr(scoring.np.random, "default_rng", counting_rng)
    out = run_sealed_bid(rule, oracle, costs, seed=RandomSeed(8))
    assert (out.winners, out.payments) == (expected.winners, expected.payments)
    assert 0 < len(draws) == len(set(draws)) <= oracle.n


@pytest.mark.parametrize("focus", [-1, 6, 99, 1.5, "0"])
@pytest.mark.parametrize("mechanism", (run_sealed_bid, naive_sealed, lazy_sealed))
def test_bad_focus_rejected_by_both_engines(mechanism, focus):
    instance, costs = random_instance(6, 1)
    with pytest.raises(ValueError, match="focus"):
        mechanism(make_rule("greedy-margin", 6), CoverageOracle(instance), costs, focus=focus)


def _allocation_and_payments(run_meta_with, run_sealed_with, rule, make_oracle, costs):
    """(admissions, allocation queries, payments as float.hex(), sealed-run queries)."""
    oracle = make_oracle()
    trace = run_meta_with(rule, oracle, costs)
    admissions = [(i, k, trace.scores_at_admission[i].hex()) for i, k in trace.chosen_at.items()]
    sealed_oracle = make_oracle()
    out = run_sealed_with(rule, sealed_oracle, costs)
    assert [(i, k) for i, k, _ in admissions] == list(out.trace.chosen_at.items())
    return admissions, oracle.query_count, [p.hex() for p in out.payments], sealed_oracle.query_count


@pytest.mark.parametrize("rule_name", ONLINE_CAPABLE_RULES)
@pytest.mark.parametrize("n", [12, 40])
def test_entry_points_run_diminishing_rules_lazily(rule_name, n):
    """On coverage, ``run_meta`` and ``run_sealed_bid`` charge the lazy
    engine's queries and give the naive engine's winners, admission rounds,
    scores and payments, bit for bit."""
    instance, costs = random_instance(n, 7 * n)
    rule = make_rule(rule_name, n)
    make_oracle = lambda: CoverageOracle(instance)  # noqa: E731
    public = _allocation_and_payments(run_meta, run_sealed_bid, rule, make_oracle, costs)
    naive = _allocation_and_payments(naive_meta, naive_sealed, rule, make_oracle, costs)
    lazy = _allocation_and_payments(lazy_meta, lazy_sealed, rule, make_oracle, costs)
    assert public == lazy
    assert (public[0], public[2]) == (naive[0], naive[2]) and public[0]
    assert public[1] < naive[1] and public[3] < naive[3]


def test_entry_points_keep_the_naive_engine_on_a_noisy_oracle():
    """A bare noisy scratch's marginals can grow, so lazy greedy would not be
    exact: greedy-margin keeps the naive engine's outcome and query count."""
    instance, costs = random_instance(40, 5)
    rule = make_rule("greedy-margin", 40)
    make_oracle = lambda: NoisyOracle(CoverageOracle(instance), 0.01, seed=2)  # noqa: E731
    public = _allocation_and_payments(run_meta, run_sealed_bid, rule, make_oracle, costs)
    assert public == _allocation_and_payments(naive_meta, naive_sealed, rule, make_oracle, costs)
    assert public[0]


class TestLazyEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(("greedy-margin", "greedy-rate", "roi", "cost-scaled")))
    def test_outcomes_identical(self, seed, rule_name):
        oracle, costs = random_oracle(seed, 2, 12)
        rule = make_rule(rule_name, oracle.n)
        naive = naive_sealed(rule, oracle, costs)
        lazy = lazy_sealed(rule, oracle, costs)
        assert naive.winners == lazy.winners
        assert naive.payments == lazy.payments

    def test_single_seller_matches(self):
        oracle = AdditiveOracle([10.0])
        rule = make_rule("cost-scaled", 1)
        assert lazy_sealed(rule, oracle, [3.0]).payments == (5.0,)

    def test_zero_cost_winner_payment_bounds(self):
        oracle, _ = random_oracle(55, 3, 8)
        rule = make_rule("greedy-margin", oracle.n)
        out = lazy_sealed(rule, oracle, [0.0] * oracle.n)
        for i, k in out.trace.chosen_at.items():
            assert 0.0 <= out.payments[i] <= oracle.marginal(i, out.trace.tentative_sets[k - 1]) + 1e-9

    def test_tie_heavy_instances_stay_bit_identical(self):
        """Duplicated sellers, integer values and round bids force exact
        score ties; payments must still match bit for bit and IR must hold
        with zero tolerance."""
        import numpy as np

        from procure.valuation import CoverageInstance, CoverageOracle

        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            n_v = int(rng.integers(1, 5))
            values = tuple(float(v) for v in rng.integers(0, 3, size=n_v))
            covers = []
            for _ in range(n):
                size = int(rng.integers(0, n_v + 1))
                covers.append(tuple(sorted(int(v) for v in rng.choice(n_v, size=size, replace=False))))
            if n >= 3:
                covers[1] = covers[0]
            oracle = CoverageOracle(CoverageInstance(covers=tuple(covers), vertex_values=values))
            bids = [float(b) for b in rng.choice([0.0, 0.5, 1.0, 1.0, 2.0], size=n)]
            for rule_name in ("greedy-margin", "greedy-rate", "roi", "cost-scaled"):
                rule = make_rule(rule_name, n)
                naive = naive_sealed(rule, oracle, bids)
                lazy = lazy_sealed(rule, oracle, bids)
                assert naive.winners == lazy.winners
                assert naive.payments == lazy.payments
                assert verify_ir(naive, bids, tol=0.0)


class TestExactOpt:
    def test_lexicographic_tie(self, coverage_pair):
        winners, welfare = exact_opt(coverage_pair, [1.0, 1.0])
        assert winners == (0, 1)
        assert welfare == pytest.approx(4.0)

    def test_zero_costs_reach_full_value(self):
        oracle, _ = random_oracle(61, 3, 9)
        winners, welfare = exact_opt(oracle, [0.0] * oracle.n)
        assert welfare == pytest.approx(oracle.value(tuple(range(oracle.n))))

    def test_family_instance(self):
        oracle = AdversarialFamilyOracle(3)
        winners, welfare = exact_opt(oracle, oracle.bids())
        assert winners == (0, 1, 2)
        assert welfare == pytest.approx(2.0)

    @pytest.mark.parametrize("costs", [[math.nan, 1.0], [-5.0, 1.0], [1.0, 1.0, 1.0], [1.0]],
                             ids=["nan", "negative", "long", "short"])
    def test_bad_costs_rejected(self, coverage_pair, costs):
        with pytest.raises(ValueError):
            exact_opt(coverage_pair, costs)

    def test_capacity_error(self):
        oracle, costs = random_oracle(71, 5, 8)
        with pytest.raises(CapacityError):
            exact_opt(oracle, costs, cap=3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_enumeration(self, seed):
        oracle, costs = random_oracle(seed, 2, 9)
        pruned = exact_opt(oracle, costs)
        brute = brute_force_opt(oracle, costs)
        assert pruned[1] == pytest.approx(brute[1], abs=1e-9)
        assert pruned[0] == brute[0]


class TestVcg:
    def test_two_disjoint_sellers(self):
        instance = CoverageInstance(covers=((0,), (1,)), vertex_values=(10.0, 8.0))
        out = run_vcg(CoverageOracle(instance), [3.0, 9.0])
        assert out.winners == (0,)
        assert out.payments == (10.0, 0.0)

    def test_single_seller_tight_nas(self):
        oracle = AdditiveOracle([10.0])
        out = run_vcg(oracle, [3.0])
        assert out.payments == (10.0,)
        assert out.auctioneer_surplus == 0.0

    def test_unprofitable_market_clears_empty(self):
        oracle = AdditiveOracle([1.0, 2.0])
        out = run_vcg(oracle, [5.0, 5.0])
        assert out.winners == ()
        assert out.payments == (0.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_welfare_optimal_and_nas(self, seed):
        oracle, costs = random_oracle(seed, 2, 9)
        out = run_vcg(oracle, costs)
        _, opt_welfare = exact_opt(oracle, costs)
        assert out.value - sum_in_order(costs[i] for i in out.winners) == opt_welfare
        assert out.total_payment <= out.value + 1e-9
        assert verify_ir(out, costs)


def _first_price(oracle, bids, seed=None, focus=None):
    """Pay-your-bid control: the greedy-margin allocation, winners paid their bids."""
    trace = run_meta(make_rule("greedy-margin", oracle.n), oracle, bids, seed)
    payments = tuple(bids[i] if i in trace.winners else 0.0 for i in range(oracle.n))
    return AuctionOutcome(trace.winners, payments, value=oracle.value(trace.winners), trace=trace)


class TestVerifyIc:
    def test_sealed_bid_mechanisms_pass(self):
        for seed in range(8):
            oracle, costs = random_oracle(seed + 500, 2, 7)
            rule = make_rule(DETERMINISTIC[seed % len(DETERMINISTIC)], oracle.n)
            report = verify_ic(sealed_bid_runner(rule), oracle, costs, grid=12)
            assert report.passed, report.violations[:2]

    def test_first_price_fixture_fails(self):
        found = False
        for seed in range(20):
            oracle, costs = random_oracle(seed + 900, 2, 7)
            report = verify_ic(_first_price, oracle, costs, grid=12)
            if not report.passed:
                found = True
                break
        assert found, "pay-your-bid control never produced an IC violation"

    @pytest.mark.parametrize("costs", [[1.0, 2.0], [1.0, math.nan, 2.0], [1.0, -0.5, 2.0]],
                             ids=["wrong-length", "nan", "negative"])
    def test_bad_costs_rejected_before_the_runner(self, costs):
        """The costs are checked even when the runner checks no bids itself."""
        calls = []

        def unchecked(oracle, bids, seed=None, focus=None):
            calls.append(bids)
            return AuctionOutcome((), (0.0,) * oracle.n, value=0.0)

        with pytest.raises(ValueError, match="bids"):
            verify_ic(unchecked, AdditiveOracle([3.0, 3.0, 3.0]), costs)
        assert calls == []

    def test_deviation_below_cost_keeps_payment(self):
        oracle = AdditiveOracle([10.0])
        rule = make_rule("greedy-margin", 1)
        runner = sealed_bid_runner(rule)
        truthful = runner(oracle, [4.0])
        shaded = runner(oracle, [1.0])
        assert truthful.payments == shaded.payments == (10.0,)


@pytest.mark.parametrize("mechanism", ["first-price", "sealed"])
class TestVerificationSettings:
    """A NaN, negative or infinite tolerance, or an IC grid of fewer than two
    points, would make a check pass or fail whatever the outcome."""

    @staticmethod
    def _runner(mechanism, oracle):
        return _first_price if mechanism == "first-price" else sealed_bid_runner(make_rule("greedy-margin", oracle.n))

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf])
    def test_bad_tolerance_rejected(self, mechanism, tol):
        oracle, costs = random_oracle(900, 2, 7)
        runner = self._runner(mechanism, oracle)
        truthful = runner(oracle, costs)
        with pytest.raises(ValueError, match="tolerance"):
            verify_ic(runner, oracle, costs, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            verify_ir(truthful, costs, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            verify_nas(truthful, oracle, tol=tol)

    @pytest.mark.parametrize("grid", [-1, 0, 1])
    def test_grid_below_two_rejected(self, mechanism, grid):
        oracle, costs = random_oracle(900, 2, 7)
        with pytest.raises(ValueError, match="two points"):
            verify_ic(self._runner(mechanism, oracle), oracle, costs, grid=grid)


class TestVerifyNas:
    def test_vcg_example_exact_equality(self):
        oracle = AdditiveOracle([10.0])
        assert verify_nas(run_vcg(oracle, [3.0]), oracle)

    def test_empty_outcome(self, coverage_pair):
        out = AuctionOutcome((), (0.0, 0.0), value=0.0)
        assert verify_nas(out, coverage_pair)

    def test_overpaying_fixture_fails(self, coverage_pair):
        out = AuctionOutcome((0, 1), (4.0, 3.0), value=6.0)
        assert not verify_nas(out, coverage_pair)


def test_stochastic_rule_ic_per_realization():
    """With the seed fixed across truthful and deviating runs, the stochastic
    mechanism is incentive compatible realization by realization."""
    for seed in range(6):
        oracle, costs = random_oracle(seed + 1300, 2, 7)
        rule = make_rule("stochastic-distorted", oracle.n)
        report = verify_ic(sealed_bid_runner(rule), oracle, costs, grid=10, seed=RandomSeed(seed))
        assert report.passed, report.violations[:2]


def test_noisy_rule_mechanism_feasible():
    base, costs = random_oracle(77, 3, 8)
    noisy = NoisyOracle(base, 0.05, seed=3)
    rule = make_rule("noisy-distorted", base.n, noise_epsilon=0.05)
    out = run_sealed_bid(rule, noisy, costs)
    assert verify_ir(out, costs)
    assert verify_nas(out, noisy)
    report = verify_ic(sealed_bid_runner(rule), noisy, costs, grid=10)
    assert report.passed, report.violations[:2]


@settings(max_examples=300, deadline=None)
@given(edge_case_instances(), st.sampled_from(ONLINE_CAPABLE_RULES))
@example((CoverageInstance((), (1.0,)), []), "greedy-margin")
@example((CoverageInstance(((),), (1.0,)), [0.0]), "greedy-rate")
@example((CoverageInstance(((0,),), (2.0,)), [0.0]), "roi")
@example((CoverageInstance(((0,), (0,), ()), (2.0,)), [0.0, 0.0, 0.0]), "cost-scaled")
def test_naive_and_lazy_mechanisms_agree_exactly(instance, rule_name):
    """Zero costs, empty and duplicate covers, n in {0, 1}: same winners,
    admission rounds and payments, compared with ==."""
    instance, costs = instance
    rule = make_rule(rule_name, instance.n_sets)
    naive = naive_sealed(rule, CoverageOracle(instance), costs)
    lazy = lazy_sealed(rule, CoverageOracle(instance), costs)
    assert naive.winners == lazy.winners
    assert naive.trace.chosen_at == lazy.trace.chosen_at
    assert naive.payments == lazy.payments


# Seller 4 ties the round-1 winner and loses on index; a payment pass that
# starts at round 1 inverts that tie to one ulp above its bid.
ULP_COVERS = ((1, 3), (0, 1, 3), (0, 1, 3), (), (0, 2, 3), (0, 2, 3), (), (), (0, 1, 2), (0,), (1,), (1,))
ULP_VALUES = (0.1, 0.7, 0.7, 0.7)
ULP_COSTS = [0.3, 1 / 3, 0.3, 0.05, 0.3, 0.3, 1 / 3, 0.2, 0.7, 0.2, 0.0, 0.3]


def test_seller_tied_out_of_round_one_is_paid_the_float_supremum():
    """Seller 4 ties seller 2 in round 1 and loses on index; at bid
    0.30000000000000004 it still ties and loses, so its critical bid is 0.3,
    and the naive and lazy payments agree."""
    instance = CoverageInstance(ULP_COVERS, ULP_VALUES)
    rule = make_rule("greedy-margin", instance.n_sets)
    naive = naive_sealed(rule, CoverageOracle(instance), ULP_COSTS)
    lazy = lazy_sealed(rule, CoverageOracle(instance), ULP_COSTS)
    assert naive.trace.chosen_at == {2: 1, 4: 2}
    assert naive.payments[4] == 0.3
    assert naive.payments == lazy.payments
    probe = list(ULP_COSTS)
    probe[4] = math.nextafter(0.3, math.inf)
    assert 4 not in run_meta(rule, CoverageOracle(instance), probe).winners


@settings(max_examples=300, deadline=None)
@given(
    edge_case_instances(value_grid=NON_DYADIC_VALUES, cost_grid=NON_DYADIC_COSTS),
    st.sampled_from(ONLINE_CAPABLE_RULES),
)
@example((CoverageInstance(ULP_COVERS, ULP_VALUES), ULP_COSTS), "greedy-margin")
def test_naive_and_lazy_agree_exactly_on_non_dyadic_ties(instance, rule_name):
    """Values and bids on a grid whose differences round (0.1, 0.3, 0.7,
    1/3): tied sellers sit an ulp from their thresholds, and the two
    engines must still pay the same floats."""
    instance, costs = instance
    rule = make_rule(rule_name, instance.n_sets)
    naive = naive_sealed(rule, CoverageOracle(instance), costs)
    lazy = lazy_sealed(rule, CoverageOracle(instance), costs)
    assert naive.trace.chosen_at == lazy.trace.chosen_at
    assert naive.payments == lazy.payments
    assert verify_ir(naive, costs, tol=0.0)


# ---------------------------------------------------------------------------
# The resumed payment against a from-round-1 pass
# ---------------------------------------------------------------------------


def _from_round_one(rule, oracle, bids, seed, i, k):
    """The critical bid from a fresh pass over every seller but i from round 1.

    Returns (payment, the largest round supremum before round k): the
    payment as the mechanism computed it before payments resumed from the
    admission checkpoint.
    """
    n = oracle.n
    provider = _marginal_provider(rule, oracle)
    others = [ell for ell in range(n) if ell != i]
    best, before = bids[i], -math.inf
    for j, batch, comp_id, comp_score in _greedy_rounds(rule, provider, bids, seed, others):
        if batch is not None and i not in batch:
            continue
        m_i = provider.marginal(i)
        z = rule.threshold_from_marginal(m_i, 0.0, j)
        if comp_id is not None:
            z = min(z, rule.threshold_from_marginal(m_i, comp_score, j, wins_tie=i < comp_id))
        best = max(best, z)
        if j < k:
            before = max(before, z)
    return best, before


def _resumed_against_reference(rule_name, instance, costs, seed=5) -> list[tuple[int, float, float]]:
    """Compares every winner's payment, naive and (where it exists) lazy,
    with the from-round-1 pass; returns the cases where a round before the
    admission priced the winner above its bid, after asserting that the
    excess is at most one ulp and is the only difference."""
    rule, oracle = rule_and_oracle(rule_name, instance)
    seed = RandomSeed(seed)
    outcomes = [naive_sealed(rule, oracle, costs, seed)]
    if rule.diminishing_return:
        outcomes.append(lazy_sealed(rule, rule_and_oracle(rule_name, instance)[1], costs))
    excess = []
    for i, k in outcomes[0].trace.chosen_at.items():
        reference, before = _from_round_one(rule, rule_and_oracle(rule_name, instance)[1], costs, seed, i, k)
        for outcome in outcomes:
            paid = outcome.payments[i]
            if paid != reference:
                assert costs[i] < before == reference == math.nextafter(costs[i], math.inf), (i, k, paid, reference)
                assert paid < reference
        if before > costs[i]:
            excess.append((i, costs[i], before))
    return excess


@settings(max_examples=300, deadline=None)
@given(edge_case_instances(n_min=1), st.sampled_from(RULE_NAMES))
def test_resumed_payment_matches_from_round_one_on_edge_cases(instance, rule_name):
    instance, costs = instance
    for i, bid, before in _resumed_against_reference(rule_name, instance, costs):
        event(f"{rule_name}: a pre-admission round priced seller {i} one ulp above its bid")


@settings(max_examples=300, deadline=None)
@given(edge_case_instances(n_min=1, value_grid=NON_DYADIC_VALUES, cost_grid=NON_DYADIC_COSTS), st.sampled_from(RULE_NAMES))
def test_resumed_payment_matches_from_round_one_on_non_dyadic_ties(instance, rule_name):
    instance, costs = instance
    for i, bid, before in _resumed_against_reference(rule_name, instance, costs):
        event(f"{rule_name}: a pre-admission round priced seller {i} one ulp above its bid")


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_resumed_payment_matches_from_round_one_on_random_instances(rule_name):
    excess = []
    for seed in range(25):
        instance, costs = random_instance(3 + seed % 10, seed)
        excess += _resumed_against_reference(rule_name, instance, costs, seed)
    assert excess == []


def test_from_round_one_reference_counts_the_known_ulp_case():
    """The one instance known to differ: its excess is reported, not absorbed."""
    instance = CoverageInstance(ULP_COVERS, ULP_VALUES)
    assert _resumed_against_reference("greedy-margin", instance, ULP_COSTS) == [
        (4, 0.3, math.nextafter(0.3, math.inf))
    ]


# ---------------------------------------------------------------------------
# The lockstep payments against one continuation per winner
# ---------------------------------------------------------------------------


def _sealed_bits(rule_name, instance, costs, lockstep: bool):
    """A naive sealed run with the payment engine forced; its winners,
    admission rounds, payments as float.hex() and oracle queries."""
    oracle = CoverageOracle(instance)
    with patch.object(sealed_bid, "_lockstep_eligible", return_value=lockstep):
        out = naive_sealed(make_rule(rule_name, oracle.n), oracle, costs, seed=RandomSeed(2))
    return out.winners, out.trace.chosen_at, [p.hex() for p in out.payments], oracle.query_count


# The deterministic rules with an affine score, the only ones ``ScoringRule.thresholds``
# prices; the lockstep engine runs distorted alone, and the others forced.
AFFINE = ("greedy-margin", "distorted", "cost-scaled")
WITH_INF_COSTS = DYADIC_COSTS + (math.inf,)
# Seller 0 covers the one vertex and 35 sellers cover nothing, at bids 0 and +inf.
ONE_COVER_AMONG_EMPTY = (CoverageInstance(((0,),) + ((),) * 35, (1.0,)), [0.5] + [math.inf, 0.0] * 17 + [0.0])


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        edge_case_instances(n_min=2, n_max=48, cost_grid=WITH_INF_COSTS),
        edge_case_instances(n_min=2, n_max=48, value_grid=NON_DYADIC_VALUES, cost_grid=NON_DYADIC_COSTS + (math.inf,)),
    ),
    st.sampled_from(AFFINE),
)
@example((CoverageInstance(ULP_COVERS, ULP_VALUES), ULP_COSTS), "greedy-margin")
@example(ONE_COVER_AMONG_EMPTY, "distorted")
def test_lockstep_matches_per_winner_payments_on_edge_cases(instance, rule_name):
    """Exact score ties (covers from a pool of at most four), zero marginals,
    zero and +inf bids, on both sides of ``ARRAY_ROUND_MIN``: every bit and
    query agrees.  In the second example every candidate of the one
    continuation covers nothing and scores 0 or -inf, so its argmax is its
    first candidate at bid 0, which is not admitted."""
    instance, costs = instance
    event(f"n {'>=' if len(costs) >= ARRAY_ROUND_MIN else '<'} ARRAY_ROUND_MIN")
    assert _sealed_bits(rule_name, instance, costs, True) == _sealed_bits(rule_name, instance, costs, False)


@pytest.mark.parametrize("rule_name", AFFINE)
def test_lockstep_matches_per_winner_payments_on_random_instances(rule_name):
    for n in (20, 32, 45, 64, 100):
        for seed in range(3):
            instance, costs = random_instance(n, 100 * n + seed)
            assert _sealed_bits(rule_name, instance, costs, True) == _sealed_bits(rule_name, instance, costs, False)


def _engines_used(monkeypatch, run) -> tuple[int, int, int]:
    """(winners, continuations opened in lockstep, per-winner payments) of ``run()``."""
    used = {"lockstep": 0, "per_winner": 0}

    class SpyLockstep(sealed_bid._Lockstep):
        def open(self, i, k):
            used["lockstep"] += 1
            super().open(i, k)

    per_winner = sealed_bid._critical_payment

    def spy_critical_payment(*args):
        used["per_winner"] += 1
        return per_winner(*args)

    monkeypatch.setattr(sealed_bid, "_Lockstep", SpyLockstep)
    monkeypatch.setattr(sealed_bid, "_critical_payment", spy_critical_payment)
    outcome = run()
    return len(outcome.winners), used["lockstep"], used["per_winner"]


def test_eligible_runs_take_the_lockstep_engine(monkeypatch):
    """Only a round-indexed rule pays in lockstep; a diminishing-return rule
    on the naive engine, which no public entry point runs, pays per winner."""
    for rule_name in DETERMINISTIC:
        instance, costs = random_instance(ARRAY_ROUND_MIN + 8, 3)
        rule, oracle = make_rule(rule_name, instance.n_sets), CoverageOracle(instance)
        winners, lockstep, per_winner = _engines_used(monkeypatch, lambda: naive_sealed(rule, oracle, costs))
        expected = (winners, 0) if not rule.diminishing_return else (0, winners)
        assert winners > 0 and (lockstep, per_winner) == expected, rule_name


@pytest.mark.parametrize("case", ["focus", "stochastic", "noisy", "noisy-oracle", "additive", "small"])
def test_other_runs_pay_one_winner_at_a_time(monkeypatch, case):
    n = ARRAY_ROUND_MIN - 1 if case == "small" else ARRAY_ROUND_MIN + 8
    instance, costs = random_instance(n, 3)
    oracle = CoverageOracle(instance)
    rule = make_rule("distorted", n)
    focus = None
    if case == "focus":
        focus = run_meta(rule, CoverageOracle(instance), costs).winners[0]
    elif case == "stochastic":
        rule = make_rule("stochastic-distorted", n)
    elif case.startswith("noisy"):
        rule = make_rule("noisy-distorted", n, noise_epsilon=0.01)
        if case == "noisy-oracle":
            oracle = NoisyOracle(oracle, 0.01, seed=1)
    elif case == "additive":
        oracle = AdditiveOracle([oracle.marginal(i, ()) for i in range(n)])
    winners, lockstep, per_winner = _engines_used(
        monkeypatch, lambda: run_sealed_bid(rule, oracle, costs, seed=RandomSeed(4), focus=focus)
    )
    assert winners > 0 and lockstep == 0
    assert per_winner == (1 if case == "focus" else winners)

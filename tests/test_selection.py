import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from procure import selection
from procure.instances import random_instance
from procure.scoring import RULE_NAMES, RandomSeed, UnsupportedRuleError, make_rule
from procure.sealed_bid import run_sealed_bid, run_sealed_bid_lazy
from procure.selection import ARRAY_ROUND_MIN, _greedy_rounds, _marginal_provider, _scalar_rounds, run_meta, run_meta_lazy
from procure.valuation import AdditiveOracle, CoverageOracle, NoisyOracle
from conftest import edge_case_instances, random_oracle, rule_and_oracle

DIMINISHING = ("greedy-margin", "greedy-rate", "roi", "cost-scaled")


class TestRunMeta:
    def test_hand_trace_greedy_margin(self, coverage_pair):
        trace = run_meta(make_rule("greedy-margin", 2), coverage_pair, [1.0, 1.0])
        assert trace.winners == (1,)
        assert trace.chosen_at == {1: 1}
        assert trace.scores_at_admission[1] == pytest.approx(4.0)
        assert trace.tentative_sets == ((), (1,), (1,))

    def test_huge_bids_select_nobody(self, coverage_pair):
        trace = run_meta(make_rule("greedy-margin", 2), coverage_pair, [100.0, 100.0])
        assert trace.winners == ()
        assert trace.tentative_sets == ((), (), ())

    def test_zero_bids_select_every_positive_marginal(self):
        oracle, _ = random_oracle(3, 4, 9)
        trace = run_meta(make_rule("greedy-margin", oracle.n), oracle, [0.0] * oracle.n)
        expected = {i for i in trace.winners}
        for i in range(oracle.n):
            if i in expected:
                continue
            assert oracle.marginal(i, trace.winners) <= 0.0

    def test_trace_is_increasing_chain(self):
        oracle, costs = random_oracle(11, 4, 10)
        trace = run_meta(make_rule("cost-scaled", oracle.n), oracle, costs)
        assert trace.tentative_sets[0] == ()
        for prev, cur in zip(trace.tentative_sets, trace.tentative_sets[1:]):
            assert set(prev) <= set(cur)
            assert len(cur) - len(prev) <= 1

    def test_bid_length_validated(self, coverage_pair):
        with pytest.raises(ValueError):
            run_meta(make_rule("greedy-margin", 2), coverage_pair, [1.0])

    def test_negative_bid_rejected(self, coverage_pair):
        with pytest.raises(ValueError):
            run_meta(make_rule("greedy-margin", 2), coverage_pair, [1.0, -1.0])

    def test_nan_bid_rejected(self, coverage_pair):
        with pytest.raises(ValueError, match="NaN"):
            run_meta(make_rule("greedy-margin", 2), coverage_pair, [math.nan, 1.0])

    @pytest.mark.parametrize("rule_name", DIMINISHING)
    def test_infinite_bid_never_admitted_nor_blocking(self, coverage_pair, rule_name):
        rule = make_rule(rule_name, 2)
        naive = run_meta(rule, coverage_pair, [math.inf, 1.0])
        assert naive.winners == (1,)
        assert run_meta_lazy(rule, coverage_pair, [math.inf, 1.0]).winners == naive.winners

    def test_horizon_mismatch_rejected(self, coverage_pair):
        with pytest.raises(ValueError):
            run_meta(make_rule("distorted", 5), coverage_pair, [1.0, 1.0])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(DIMINISHING))
def test_admitted_marginals_cover_bids(seed, rule_name):
    """Winners' marginals at admission weakly exceed their bids (assumption 2)."""
    oracle, costs = random_oracle(seed, 2, 10)
    trace = run_meta(make_rule(rule_name, oracle.n), oracle, costs)
    for i, k in trace.chosen_at.items():
        before = trace.tentative_sets[k - 1]
        assert oracle.marginal(i, before) >= costs[i] - 1e-12


def test_admitted_marginals_cover_bids_noisy():
    base, costs = random_oracle(5, 4, 10)
    noisy = NoisyOracle(base, 0.1, seed=7)
    trace = run_meta(make_rule("noisy-distorted", base.n, noise_epsilon=0.1), noisy, costs)
    for i, k in trace.chosen_at.items():
        before = trace.tentative_sets[k - 1]
        assert noisy.marginal(i, before) >= costs[i] - 1e-12


class TestLazy:
    def test_rejects_round_indexed_rules(self, coverage_pair):
        with pytest.raises(UnsupportedRuleError):
            run_meta_lazy(make_rule("distorted", 2), coverage_pair, [1.0, 1.0])

    def test_single_seller_single_pop(self):
        oracle = AdditiveOracle([5.0])
        trace = run_meta_lazy(make_rule("greedy-margin", 1), oracle, [1.0])
        assert trace.winners == (0,)
        assert trace.chosen_at == {0: 1}

    def test_all_nonpositive_terminates_immediately(self):
        oracle = AdditiveOracle([1.0, 2.0])
        trace = run_meta_lazy(make_rule("greedy-margin", 2), oracle, [5.0, 5.0])
        assert trace.winners == ()

    def test_exact_ties_terminate(self):
        # identical sellers with zero bids tie at every score
        oracle = AdditiveOracle([2.0, 2.0, 2.0])
        for name in DIMINISHING:
            trace = run_meta_lazy(make_rule(name, 3), oracle, [0.0, 0.0, 0.0])
            assert trace.winners == (0, 1, 2)
            naive = run_meta(make_rule(name, 3), oracle, [0.0, 0.0, 0.0])
            assert trace.chosen_at == naive.chosen_at

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(DIMINISHING))
    def test_matches_naive(self, seed, rule_name):
        oracle, costs = random_oracle(seed, 2, 14)
        rule = make_rule(rule_name, oracle.n)
        naive = run_meta(rule, oracle, costs)
        lazy = run_meta_lazy(rule, oracle, costs)
        assert naive.winners == lazy.winners
        assert naive.chosen_at == lazy.chosen_at

    def test_matches_naive_up_to_fifty_sellers(self):
        for seed in range(40):
            oracle, costs = random_oracle(seed + 7000, 30, 50)
            for rule_name in DIMINISHING:
                rule = make_rule(rule_name, oracle.n)
                naive = run_meta(rule, oracle, costs)
                lazy = run_meta_lazy(rule, oracle, costs)
                assert naive.winners == lazy.winners
                assert naive.chosen_at == lazy.chosen_at

    def test_fewer_queries_than_naive(self):
        oracle, costs = random_oracle(97, 40, 60)
        rule = make_rule("greedy-margin", oracle.n)
        base = CoverageOracle(oracle.instance)
        run_meta(rule, base, costs)
        naive_queries = base.query_count
        base2 = CoverageOracle(oracle.instance)
        run_meta_lazy(rule, base2, costs)
        assert base2.query_count < naive_queries


class TestStochastic:
    def test_same_seed_same_outcome(self):
        oracle, costs = random_oracle(41, 6, 12)
        rule = make_rule("stochastic-distorted", oracle.n)
        a = run_meta(rule, oracle, costs, seed=RandomSeed(5))
        b = run_meta(rule, oracle, costs, seed=RandomSeed(5))
        assert a.winners == b.winners and a.chosen_at == b.chosen_at

    def test_winners_subset_of_deterministic_support(self):
        oracle, costs = random_oracle(43, 4, 8)
        rule = make_rule("stochastic-distorted", oracle.n)
        trace = run_meta(rule, oracle, costs, seed=RandomSeed(1))
        for i, k in trace.chosen_at.items():
            batch = RandomSeed(1).round_batch(k, oracle.n, rule.batch_size())
            assert i in batch

    def test_single_draw_form_matches_round_pick(self):
        oracle, costs = random_oracle(47, 5, 9)
        rule = make_rule("stochastic-distorted", oracle.n, stochastic_batch_size=1)
        seed = RandomSeed(9)
        trace = run_meta(rule, oracle, costs, seed=seed)
        for i, k in trace.chosen_at.items():
            [pick] = seed.round_batch(k, oracle.n, 1)
            assert i == pick

    def test_sampling_saves_oracle_queries(self):
        oracle, costs = random_oracle(53, 10, 14)
        base = CoverageOracle(oracle.instance)
        run_meta(make_rule("distorted", base.n), base, costs)
        full_queries = base.query_count
        base2 = CoverageOracle(oracle.instance)
        run_meta(make_rule("stochastic-distorted", base2.n), base2, costs, seed=RandomSeed(3))
        assert base2.query_count < full_queries


def test_cardinality_variant_caps_admissions():
    oracle = AdditiveOracle([5.0, 4.0, 3.0, 2.0])
    rule = make_rule("distorted", 4, cardinality=2)
    trace = run_meta(rule, oracle, [0.1] * 4)
    assert len(trace.winners) <= 2
    assert len(trace.tentative_sets) == 5  # padded to n


def test_distorted_admissions_skip_rounds():
    # multiplier 1/2 in round 1 keeps both scores negative; round 2 admits
    trace = run_meta(make_rule("distorted", 2), AdditiveOracle([1.0, 1.0]), [0.6, 0.6])
    assert trace.chosen_at == {0: 2}
    assert trace.tentative_sets == ((), (), (0,))
    assert trace.tentative_sets[1] == () and trace.tentative_sets[2] == (0,)


@settings(max_examples=150, deadline=None)
@given(edge_case_instances(n_min=1, n_max=8), st.booleans())
def test_tentative_sets_derived_from_admission_order(instance, capped):
    """S_0 .. S_n from the admission order, also when admissions skip
    rounds (distorted) or stop at a cardinality cap."""
    instance, costs = instance
    n = instance.n_sets
    rule = make_rule("distorted", n, cardinality=max(1, n // 2) if capped else None)
    trace = run_meta(rule, CoverageOracle(instance), costs)
    sets = trace.tentative_sets
    assert len(sets) == n + 1
    assert sets[0] == () and sets[-1] == trace.winners
    assert all(sets[k] == tuple(sorted(i for i, j in trace.chosen_at.items() if j <= k)) for k in range(n + 1))
    for i, k in trace.chosen_at.items():
        assert i in sets[k] and i not in sets[k - 1]
    assert trace.order == sorted(trace.chosen_at, key=trace.chosen_at.get)
    assert trace.to_json()["tentative_sets"] == [list(s) for s in sets]


# ---------------------------------------------------------------------------
# The array round against the scalar loop
# ---------------------------------------------------------------------------


def _assert_rounds_match(rule_name, instance, costs, capped=False, seed=3):
    """Array and scalar rounds yield the same tuples and charge the same queries."""
    runs = []
    for engine in (_greedy_rounds, _scalar_rounds):
        rule, oracle = rule_and_oracle(rule_name, instance, capped)
        provider = _marginal_provider(rule, oracle)
        rounds = list(engine(rule, provider, list(costs), RandomSeed(seed), range(oracle.n), rule.rounds))
        runs.append((rounds, oracle.query_count))
    assert runs[0] == runs[1]
    for _, _, i, score in runs[0][0]:
        assert i is None or type(i) is int
        assert type(score) is float


def _assert_mechanisms_match(rule_name, instance, costs, capped=False, seed=3):
    """Traces, payments and query counts of the sealed-bid mechanisms, naive
    and lazy, with and without the array round."""
    outcomes = []
    for cutoff in (ARRAY_ROUND_MIN, math.inf):
        with patch.object(selection, "ARRAY_ROUND_MIN", cutoff):
            rule, oracle = rule_and_oracle(rule_name, instance, capped)
            trace = run_meta(rule, oracle, costs, RandomSeed(seed))
            got = [trace.order, trace.chosen_at, trace.scores_at_admission, oracle.query_count]
            if not capped:
                rule, oracle = rule_and_oracle(rule_name, instance)
                got += [run_sealed_bid(rule, oracle, costs, RandomSeed(seed)).payments, oracle.query_count]
            if rule.diminishing_return:  # the lazy heap's seed is an array round too
                rule, oracle = rule_and_oracle(rule_name, instance)
                lazy = run_sealed_bid_lazy(rule, oracle, costs)
                got += [lazy.trace.order, lazy.trace.scores_at_admission, lazy.payments, oracle.query_count]
        outcomes.append(got)
    assert outcomes[0] == outcomes[1]


ARRAY_CASES = [(name, False) for name in RULE_NAMES] + [("distorted", True)]


@settings(max_examples=40, deadline=None)
@given(edge_case_instances(n_min=ARRAY_ROUND_MIN, n_max=ARRAY_ROUND_MIN + 24), st.sampled_from(ARRAY_CASES))
def test_array_rounds_match_scalar_on_edge_cases(instance, case):
    """Duplicate covers give exact score ties and zero marginals above the cutoff."""
    instance, costs = instance
    rule_name, capped = case
    _assert_rounds_match(rule_name, instance, costs, capped)
    _assert_mechanisms_match(rule_name, instance, costs, capped)


@pytest.mark.parametrize("rule_name, capped", ARRAY_CASES)
@pytest.mark.parametrize("n", [40, 120, 200])
def test_array_rounds_match_scalar_on_float_instances(n, rule_name, capped):
    instance, costs = random_instance(n, n + 1)
    _assert_rounds_match(rule_name, instance, costs, capped)
    if n < 200:  # scalar payments at n = 200 take seconds per distorted rule
        _assert_mechanisms_match(rule_name, instance, costs, capped)


def test_noisy_provider_copy_keeps_the_running_minima():
    """The noisy rule's provider copies its set and trajectory minima; the
    copy and the original then evolve independently."""
    base, _ = random_oracle(19, 6, 9)
    provider = _marginal_provider(make_rule("noisy-distorted", base.n, noise_epsilon=0.2), NoisyOracle(base, 0.2, seed=4))
    first = [provider.marginal(i) for i in range(1, base.n)]
    provider.add(0)
    twin = provider.copy()
    assert [twin.marginal(i) for i in range(1, base.n)] == [provider.marginal(i) for i in range(1, base.n)]
    assert all(m <= f for m, f in zip((twin.marginal(i) for i in range(1, base.n)), first))
    twin.add(1)
    assert provider.scratch.members == (0,) and twin.scratch.members == (0, 1)

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procure import selection
from procure.instances import random_instance
from procure.scoring import NOT_SAMPLED, RULE_NAMES, RandomSeed, make_rule
from procure.sealed_bid import run_sealed_bid
from procure.selection import (
    ARRAY_ROUND_MIN,
    _greedy_rounds,
    _lazy_heap,
    _lazy_rounds,
    _marginal_provider,
    _scalar_rounds,
    run_meta,
)
from procure.valuation import AdditiveOracle, CoverageOracle, NoisyOracle
from conftest import (
    DYADIC_COSTS,
    NON_DYADIC_VALUES,
    edge_case_instances,
    lazy_meta,
    lazy_sealed,
    naive_meta,
    naive_sealed,
    random_oracle,
    rule_and_oracle,
)

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
        naive = naive_meta(rule, coverage_pair, [math.inf, 1.0])
        assert naive.winners == (1,)
        assert lazy_meta(rule, coverage_pair, [math.inf, 1.0]).winners == naive.winners

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
    def test_single_seller_single_pop(self):
        oracle = AdditiveOracle([5.0])
        trace = lazy_meta(make_rule("greedy-margin", 1), oracle, [1.0])
        assert trace.winners == (0,)
        assert trace.chosen_at == {0: 1}

    def test_all_nonpositive_terminates_immediately(self):
        oracle = AdditiveOracle([1.0, 2.0])
        trace = lazy_meta(make_rule("greedy-margin", 2), oracle, [5.0, 5.0])
        assert trace.winners == ()

    def test_exact_ties_terminate(self):
        # identical sellers with zero bids tie at every score
        oracle = AdditiveOracle([2.0, 2.0, 2.0])
        for name in DIMINISHING:
            trace = lazy_meta(make_rule(name, 3), oracle, [0.0, 0.0, 0.0])
            assert trace.winners == (0, 1, 2)
            naive = naive_meta(make_rule(name, 3), oracle, [0.0, 0.0, 0.0])
            assert trace.chosen_at == naive.chosen_at

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(DIMINISHING))
    def test_matches_naive(self, seed, rule_name):
        oracle, costs = random_oracle(seed, 2, 14)
        rule = make_rule(rule_name, oracle.n)
        naive = naive_meta(rule, oracle, costs)
        lazy = lazy_meta(rule, oracle, costs)
        assert naive.winners == lazy.winners
        assert naive.chosen_at == lazy.chosen_at

    def test_matches_naive_up_to_fifty_sellers(self):
        for seed in range(40):
            oracle, costs = random_oracle(seed + 7000, 30, 50)
            for rule_name in DIMINISHING:
                rule = make_rule(rule_name, oracle.n)
                naive = naive_meta(rule, oracle, costs)
                lazy = lazy_meta(rule, oracle, costs)
                assert naive.winners == lazy.winners
                assert naive.chosen_at == lazy.chosen_at

    def test_fewer_queries_than_naive(self):
        oracle, costs = random_oracle(97, 40, 60)
        rule = make_rule("greedy-margin", oracle.n)
        base = CoverageOracle(oracle.instance)
        naive_meta(rule, base, costs)
        naive_queries = base.query_count
        base2 = CoverageOracle(oracle.instance)
        lazy_meta(rule, base2, costs)
        assert base2.query_count < naive_queries


@pytest.mark.parametrize("rule_name", DIMINISHING)
@pytest.mark.parametrize("track", [False, True])
def test_lazy_resume_from_a_copy_matches_a_restamped_heap(rule_name, track):
    """At every admission checkpoint, resuming from ``heap.copy()`` (whose
    entries scored at the checkpoint's set stay fresh, and, with ``changed``,
    whose untouched entries do too) yields the same rounds as resuming from
    the same heap with every entry stamped below the resumed round, which
    re-scores them all; it charges no more queries."""
    instance, costs = random_instance(40, 23)
    rule = make_rule(rule_name, 40)
    oracle = CoverageOracle(instance)
    provider = _marginal_provider(rule, oracle)
    heap = _lazy_heap(rule, provider, costs, range(40))
    changed = [0] * 40 if track else None
    checkpoints = 0
    for k, _, i, _ in _lazy_rounds(rule, provider, costs, heap, 1, changed):
        if i is None:
            break
        resumed = []
        for queue in (heap.copy(), [(neg, j, 0) for neg, j, _ in heap]):
            twin = provider.copy()
            before = oracle.query_count
            rounds = list(_lazy_rounds(rule, twin, costs, queue, k, None if changed is None else changed.copy()))
            resumed.append((rounds, oracle.query_count - before))
        assert resumed[0][0] == resumed[1][0]
        assert resumed[0][1] <= resumed[1][1]
        checkpoints += 1
    assert checkpoints > 3


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
            batch = RandomSeed(1).round_batch(k, oracle.n)
            assert i in batch

    def test_sampling_saves_oracle_queries(self):
        oracle, costs = random_oracle(53, 10, 14)
        base = CoverageOracle(oracle.instance)
        run_meta(make_rule("distorted", base.n), base, costs)
        full_queries = base.query_count
        base2 = CoverageOracle(oracle.instance)
        run_meta(make_rule("stochastic-distorted", base2.n), base2, costs, seed=RandomSeed(3))
        assert base2.query_count < full_queries


# ---------------------------------------------------------------------------
# Sealed-bid outputs pinned bit for bit
# ---------------------------------------------------------------------------

# (rule, n, seed) -> each winner's admission round, the winners' payments as
# float.hex() and the oracle queries of a sealed run on random_instance(n, seed):
# stochastic-distorted as recorded when passes over 32 or more sellers still
# took the array rounds; distorted at n >= ARRAY_ROUND_MIN, so array rounds
# and partial rebuilds run; greedy-rate through the lazy payments; and
# noisy-distorted on NoisyOracle(coverage, 0.1, seed).  The kernel's sums
# must not move any of these bits.  The distorted and noisy query counts
# are those of passes that retire dead sellers and end early.
SEALED_PINNED = {
    ("stochastic-distorted", 7, 11): (
        {2: 3, 5: 1},
        {2: "0x1.17050bf7acf6fp+2", 5: "0x1.2e41c8fde0d64p+1"},
        48,
    ),
    ("stochastic-distorted", 20, 12): (
        {0: 15, 8: 19, 11: 3, 12: 9, 13: 16, 14: 12, 15: 20, 16: 5, 17: 4, 18: 14, 19: 2},
        {0: "0x1.1842774f1060ep+3", 8: "0x1.1f839796e8fa4p+3", 11: "0x1.668cd285abd84p+1",
         12: "0x1.69c7549d5e1a1p+2", 13: "0x1.208348b150083p+3", 14: "0x1.0a10e2f6b08a0p+3",
         15: "0x1.46626a322313ap+4", 16: "0x1.f0b5908055fdfp+3", 17: "0x1.02e30fc5fc364p+2",
         18: "0x1.4b4c689ee9849p+4", 19: "0x1.2bb34896d65b8p+4"},
        352,
    ),
    ("stochastic-distorted", 45, 13): (
        {5: 8, 8: 5, 9: 2, 10: 44, 13: 14, 16: 24, 19: 3, 25: 18, 34: 17, 37: 6, 39: 40},
        {5: "0x1.b2a48b90ef2e1p+3", 8: "0x1.89c241ba6ffe6p+3", 9: "0x1.5c006b429e54cp+3",
         10: "0x1.55dc0272c385cp+4", 13: "0x1.e791d18de07a0p+0", 16: "0x1.c5abfd2995eb0p+0",
         19: "0x1.02d82ad748b18p+0", 25: "0x1.7e1c4c982713ap+3", 34: "0x1.65e94e33d0f28p+1",
         37: "0x1.f032fa4ec55f2p+3", 39: "0x1.045288287db99p+3"},
        924,
    ),
    ("distorted", 45, 14): (
        {6: 5, 7: 32, 8: 16, 10: 3, 11: 23, 15: 30, 21: 12, 25: 33, 29: 4, 30: 37, 31: 2, 33: 17, 34: 41,
         35: 35, 37: 31, 38: 21, 43: 1},
        {6: "0x1.82d30acca9c8dp+2", 7: "0x1.4c534c132991ep+0", 8: "0x1.316bc919e39dep+4",
         10: "0x1.b05c6adec67bep+4", 11: "0x1.b6164f268a569p+2", 15: "0x1.86c2f8c3887b8p+2",
         21: "0x1.9bab498db8571p+4", 25: "0x1.77eec5a31d1d9p+4", 29: "0x1.208e848426118p+3",
         30: "0x1.87c2f914d30e8p+4", 31: "0x1.dc7fb6aa055cfp+3", 33: "0x1.41edf6bce65dep+4",
         34: "0x1.2b2dd3087a4dfp+3", 35: "0x1.84eaf372be38fp+1", 37: "0x1.75522a94f8fa2p+3",
         38: "0x1.00181aae49ef5p+5", 43: "0x1.96827475f90a0p+3"},
        4758,
    ),
    ("distorted", 60, 15): (
        {0: 7, 1: 2, 10: 32, 13: 36, 14: 55, 18: 4, 23: 52, 24: 3, 27: 43, 28: 5, 30: 6, 34: 19, 38: 17,
         41: 35, 48: 1, 52: 51, 58: 33},
        {0: "0x1.67ae1a9b94b69p+2", 1: "0x1.5b74d1dd417fbp+3", 10: "0x1.b2a6e030e9326p+3",
         13: "0x1.0adc0137f82bap+1", 14: "0x1.9d0acc2132e10p-4", 18: "0x1.9adcda6a92e5ap+3",
         23: "0x1.c8a5f8463a1c2p+3", 24: "0x1.be627dd06b45ap+3", 27: "0x1.5cb89fe54da12p+4",
         28: "0x1.c19be51475d65p+2", 30: "0x1.e3c7a4e03407ep+1", 34: "0x1.236a3b4a33ddbp+4",
         38: "0x1.752d4af6ed8e2p+1", 41: "0x1.7739e7187b3ffp+4", 48: "0x1.98727ad97eaaep+3",
         52: "0x1.909bed2b6339ep+1", 58: "0x1.d9875b7c5bf6cp+3"},
        5244,
    ),
    ("greedy-rate", 60, 16): (
        {0: 1, 10: 6, 14: 19, 15: 9, 16: 12, 18: 17, 20: 5, 26: 16, 27: 8, 29: 10, 32: 14, 34: 15, 35: 11,
         37: 13, 40: 3, 45: 4, 52: 18, 54: 7, 55: 2, 59: 20},
        {0: "0x1.e5a07e2516016p+3", 10: "0x1.b438a4578e068p+3", 14: "0x1.4a31d74f0409cp+4",
         15: "0x1.5da2b3e5e1b5bp+2", 16: "0x1.1730452e5e566p+4", 18: "0x1.fb06d6296158ep+1",
         20: "0x1.e7a279a17964ap+2", 26: "0x1.a2b814811b577p+3", 27: "0x1.47fc650a7298dp+2",
         29: "0x1.2c94dabc0255cp+2", 32: "0x1.7680d42215ac0p+4", 34: "0x1.d0fd332e04fe9p+3",
         35: "0x1.2d18f3ee16266p+4", 37: "0x1.113dda7623ef3p+3", 40: "0x1.deaa76dbe7c3dp+2",
         45: "0x1.1d1067018b384p+3", 52: "0x1.12e887f14e24fp+5", 54: "0x1.74dca890f83acp+2",
         55: "0x1.93deef4678cabp+2", 59: "0x1.e819b2465958bp+3"},
        508,
    ),
    ("noisy-distorted", 40, 17): (
        {4: 13, 34: 1, 35: 2},
        {4: "0x1.e0c565a9ea0b8p+0", 34: "0x1.e42571cbd7025p+0", 35: "0x1.2c41c922e1a1cp+0"},
        226,
    ),
}


@pytest.mark.parametrize("rule_name, n, seed", sorted(SEALED_PINNED))
def test_sealed_outputs_match_recorded_values(rule_name, n, seed):
    chosen_at, payments, queries = SEALED_PINNED[rule_name, n, seed]
    instance, costs = random_instance(n, seed)
    oracle = CoverageOracle(instance)
    if rule_name == "noisy-distorted":
        rule, oracle = make_rule(rule_name, n, noise_epsilon=0.1), NoisyOracle(oracle, 0.1, seed)
    else:
        rule = make_rule(rule_name, n)
    outcome = run_sealed_bid(rule, oracle, costs, seed=RandomSeed(seed))
    assert outcome.winners == tuple(sorted(chosen_at))
    assert outcome.trace.chosen_at == chosen_at
    assert {i: p.hex() for i, p in enumerate(outcome.payments) if i in chosen_at} == payments
    assert all(p == 0.0 for i, p in enumerate(outcome.payments) if i not in chosen_at)
    assert oracle.query_count == queries


def test_distorted_admissions_skip_rounds():
    # multiplier 1/2 in round 1 keeps both scores negative; round 2 admits
    trace = run_meta(make_rule("distorted", 2), AdditiveOracle([1.0, 1.0]), [0.6, 0.6])
    assert trace.chosen_at == {0: 2}
    assert trace.tentative_sets == ((), (), (0,))
    assert trace.tentative_sets[1] == () and trace.tentative_sets[2] == (0,)


@settings(max_examples=150, deadline=None)
@given(edge_case_instances(n_min=1, n_max=8))
def test_tentative_sets_derived_from_admission_order(instance):
    """S_0 .. S_n from the admission order, also when admissions skip
    rounds (distorted)."""
    instance, costs = instance
    n = instance.n_sets
    rule = make_rule("distorted", n)
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


def _assert_rounds_match(rule_name, instance, costs, seed=3):
    """Array and scalar rounds yield the same tuples and charge the same queries."""
    runs = []
    for engine in (_greedy_rounds, _scalar_rounds):
        rule, oracle = rule_and_oracle(rule_name, instance)
        provider = _marginal_provider(rule, oracle)
        rounds = list(engine(rule, provider, list(costs), RandomSeed(seed), range(oracle.n)))
        runs.append((rounds, oracle.query_count))
    assert runs[0] == runs[1]
    for _, _, i, score in runs[0][0]:
        assert i is None or type(i) is int
        assert type(score) is float


def _assert_mechanisms_match(rule_name, instance, costs, seed=3):
    """Traces, payments and query counts of the sealed-bid mechanisms, naive
    and lazy, with and without the array round."""
    outcomes = []
    for cutoff in (ARRAY_ROUND_MIN, math.inf):
        with patch.object(selection, "ARRAY_ROUND_MIN", cutoff):
            rule, oracle = rule_and_oracle(rule_name, instance)
            trace = naive_meta(rule, oracle, costs, RandomSeed(seed))
            got = [trace.order, trace.chosen_at, trace.scores_at_admission, oracle.query_count]
            rule, oracle = rule_and_oracle(rule_name, instance)
            got += [naive_sealed(rule, oracle, costs, RandomSeed(seed)).payments, oracle.query_count]
            if rule.diminishing_return:  # the lazy heap's seed is an array round too
                rule, oracle = rule_and_oracle(rule_name, instance)
                lazy = lazy_sealed(rule, oracle, costs)
                got += [lazy.trace.order, lazy.trace.scores_at_admission, lazy.payments, oracle.query_count]
        outcomes.append(got)
    assert outcomes[0] == outcomes[1]


@settings(max_examples=40, deadline=None)
@given(edge_case_instances(n_min=ARRAY_ROUND_MIN, n_max=ARRAY_ROUND_MIN + 24), st.sampled_from(RULE_NAMES))
def test_array_rounds_match_scalar_on_edge_cases(instance, rule_name):
    """Duplicate covers give exact score ties and zero marginals above the cutoff."""
    instance, costs = instance
    _assert_rounds_match(rule_name, instance, costs)
    _assert_mechanisms_match(rule_name, instance, costs)


@pytest.mark.parametrize("rule_name", RULE_NAMES)
@pytest.mark.parametrize("n", [40, 120, 200])
def test_array_rounds_match_scalar_on_float_instances(n, rule_name):
    instance, costs = random_instance(n, n + 1)
    _assert_rounds_match(rule_name, instance, costs)
    if n < 200:  # scalar payments at n = 200 take seconds per distorted rule
        _assert_mechanisms_match(rule_name, instance, costs)


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


def _record_reads(provider) -> list[tuple[int, float]]:
    """Wraps the provider's reads, scalar and array, so that each appends
    (seller, marginal) to the returned list; the recomputes of a partial
    vector rebuild inside ``marginals`` are not reads and are not recorded."""
    reads: list[tuple[int, float]] = []
    scalar, array = provider._marginal, provider.marginals

    def _marginal(i):
        m = scalar(i)
        reads.append((i, m))
        return m

    def marginals(idx):
        provider._marginal = scalar
        try:
            out = array(idx)
        finally:
            provider._marginal = _marginal
        reads.extend(zip(idx.tolist(), out.tolist()))
        return out

    provider._marginal, provider.marginals = _marginal, marginals
    return reads


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        edge_case_instances(n_min=1, n_max=8, value_grid=NON_DYADIC_VALUES),
        edge_case_instances(n_min=ARRAY_ROUND_MIN, n_max=ARRAY_ROUND_MIN + 16, value_grid=NON_DYADIC_VALUES),
    ),
    st.sampled_from(RULE_NAMES),
    st.sampled_from([_scalar_rounds, _greedy_rounds]),
)
def test_pass_charges_its_reads_and_admissions(instance, rule_name, engine):
    """A pass charges exactly one query per marginal it reads plus one per
    admission, on the coverage scratch and on the noisy rule's provider.
    Where it prunes, a seller whose read scores it not positive at round n
    is never read again by the pass; elsewhere every round reads every
    remaining candidate (its batch's, for the stochastic rule)."""
    instance, costs = instance
    rule, oracle = rule_and_oracle(rule_name, instance)
    provider = _marginal_provider(rule, oracle)
    reads = _record_reads(provider)
    n, prunes = oracle.n, rule_name != "stochastic-distorted"
    remaining, dead = set(range(n)), set()
    total = admissions = 0
    for _, batch, i, score in engine(rule, provider, costs, RandomSeed(2), range(n)):
        read = {j for j, _ in reads}
        assert len(read) == len(reads) and not read & dead
        if not prunes:
            assert read == (remaining if batch is None else remaining & set(batch))
        dead |= {j for j, m in reads if prunes and rule.score_from_marginal(m, costs[j], n) <= 0.0}
        total += len(reads)
        reads.clear()
        if i is not None and score > 0.0:
            admissions += 1
            remaining.remove(i)
    assert oracle.query_count == total + admissions


# ---------------------------------------------------------------------------
# The pruned engines against a plain reference
# ---------------------------------------------------------------------------


def _plain_marginal(rule, oracle, minima, j, members):
    """``oracle.marginal(j, members)``; for the noisy rule, folded into j's trajectory minimum."""
    m = oracle.marginal(j, members)
    if rule.kind == "noisy-distorted":
        m = minima[j] = min(minima.get(j, math.inf), m)
    return m


def _plain_rounds(rule, oracle, bids, members, minima, candidates, start):
    """Rounds ``start`` .. n of the meta loop, every remaining candidate read
    with ``oracle.marginal`` against ``members`` in every round: no scratch,
    no array, no pruning.  Yields (k, argmax, score) and then admits a
    positive argmax into ``members``."""
    remaining = list(candidates)
    for k in range(start, oracle.n + 1):
        best, best_score = None, NOT_SAMPLED
        for j in remaining:
            score = rule.score_from_marginal(_plain_marginal(rule, oracle, minima, j, members), bids[j], k)
            if best is None or score > best_score:
                best, best_score = j, score
        yield k, best, best_score
        if best is not None and best_score > 0.0:
            members.append(best)
            remaining.remove(best)


def _plain_sealed_bid(rule, oracle, bids):
    """(admissions as (seller, round, score hex), payments as hex) of the
    sealed-bid mechanism: each winner's continuation runs the plain rounds
    without it from its admission round k to n, from a copy of S_{k-1}."""
    n = oracle.n
    members: list[int] = []
    minima: dict[int, float] = {}
    admissions, payments = [], [0.0] * n
    for k, i, score in _plain_rounds(rule, oracle, bids, members, minima, range(n), 1):
        if i is None or not score > 0.0:
            continue
        admissions.append((i, k, score.hex()))
        others = [j for j in range(n) if j not in members and j != i]
        at_k, minima_at_k = list(members), dict(minima)
        paid = bids[i]
        for j, comp, comp_score in _plain_rounds(rule, oracle, bids, at_k, minima_at_k, others, k):
            m_i = _plain_marginal(rule, oracle, minima_at_k, i, at_k)
            z = rule.threshold_from_marginal(m_i, 0.0, j)
            if comp is not None:
                z = min(z, rule.threshold_from_marginal(m_i, comp_score, j, wins_tie=i < comp))
            paid = max(paid, z)
        payments[i] = paid
    return admissions, [p.hex() for p in payments]


DETERMINISTIC = tuple(name for name in RULE_NAMES if name != "stochastic-distorted")
EDGE_COSTS = DYADIC_COSTS + (math.inf,)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        edge_case_instances(n_min=1, n_max=8, cost_grid=EDGE_COSTS),
        edge_case_instances(n_min=ARRAY_ROUND_MIN - 4, n_max=ARRAY_ROUND_MIN + 12, cost_grid=EDGE_COSTS),
    ),
    st.sampled_from(DETERMINISTIC + ("greedy-margin on NoisyOracle",)),
)
def test_pruned_engines_match_a_plain_reference(instance, case):
    """The naive ``run_meta`` and ``run_sealed_bid`` against ``_plain_sealed_bid`` bit
    for bit, over exact ties, zero costs, +inf bids and zero marginals, on
    both sides of ``ARRAY_ROUND_MIN``.  The noisy rule runs on a
    ``NoisyOracle``, and so does greedy-margin in the last case, where the
    bare noisy scratch must not prune: its allocation charges every
    remaining candidate in every round."""
    instance, costs = instance
    rule_name = case.split()[0]
    n = instance.n_sets

    def fresh():
        if case == "greedy-margin on NoisyOracle":
            return make_rule(rule_name, n), NoisyOracle(CoverageOracle(instance), 0.1, seed=n)
        return rule_and_oracle(rule_name, instance)

    rule, reference_oracle = fresh()
    admissions, payments = _plain_sealed_bid(rule, reference_oracle, costs)
    rule, oracle = fresh()
    trace = naive_meta(rule, oracle, costs)
    if case == "greedy-margin on NoisyOracle":
        rounds = [k for _, k, _ in admissions]
        unpruned = sum(n - sum(r < k for r in rounds) for k in range(1, n + 1)) + len(rounds)
        assert oracle.query_count == unpruned
    outcome = naive_sealed(rule, fresh()[1], costs)
    for got in (trace, outcome.trace):
        assert [(i, k, got.scores_at_admission[i].hex()) for i, k in got.chosen_at.items()] == admissions
    assert [p.hex() for p in outcome.payments] == payments


@settings(max_examples=60, deadline=None)
@given(
    edge_case_instances(n_min=2, n_max=8, value_grid=NON_DYADIC_VALUES),
    st.lists(st.sampled_from(["scalar", "unchecked", "array", "add"]), min_size=1, max_size=30),
)
def test_trajectory_minima_equal_after_mixed_reads(instance, steps):
    """Scalar reads (checked or not) and array reads of the noisy rule's
    provider return the same floats and leave the same minima as a provider
    read only through ``marginal``."""
    instance, _ = instance
    rule, oracle = rule_and_oracle("noisy-distorted", instance)
    mixed, scalar = _marginal_provider(rule, oracle), _marginal_provider(rule, oracle)
    for step in steps:
        outside = [i for i in range(oracle.n) if i not in mixed.scratch]
        if not outside:
            break
        if step == "add":
            mixed.add(outside[0])
            scalar.add(outside[0])
            continue
        want = [scalar.marginal(i) for i in outside]
        if step == "array":
            got = mixed.marginals(np.array(outside, dtype=np.intp)).tolist()
        else:
            read = mixed.marginal if step == "scalar" else mixed._marginal
            got = [read(i) for i in outside]
            assert all(type(m) is float for m in got)
        assert [m.hex() for m in got] == [m.hex() for m in want]
        assert mixed._min.tobytes() == scalar._min.tobytes()

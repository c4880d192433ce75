"""Acceptance suite: one test per release criterion, at full trial counts.

Each test prints a PASS line with its elapsed time (visible under -s; the
test name itself carries the criterion number).  Stated runtime budgets are
enforced softly as warnings since wall-clock depends on the host.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from procure import verification as V
from procure.harness import experiment_records, write_csv
from procure.instances import parse_edge_list, synthetic_bipartite_graph
from procure.sealed_bid import exact_opt
from procure.valuation import AdversarialFamilyOracle


def _finish(name: str, t0: float, budget_s: float | None, detail: str = "") -> None:
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.1f}s {detail}")
    if budget_s is not None and elapsed > budget_s:
        warnings.warn(f"{name} exceeded its expected runtime budget ({elapsed:.0f}s > {budget_s:.0f}s)")


def wiki_vote_graph():
    candidates = [os.environ.get("PROCURE_WIKI_VOTE", ""), str(Path(__file__).parent / "data" / "wiki-Vote.txt")]
    for path in candidates:
        if path and Path(path).exists():
            with open(path) as fh:
                return parse_edge_list(fh), True
    return synthetic_bipartite_graph(n_sources=1500, n_targets=600, seed=0), False


def test_criterion_01_feasibility_suite():
    """IC (20-point grid), IR, NAS for 6 rules x 500 instances, zero violations."""
    t0 = time.perf_counter()
    report = V.feasibility_suite(trials=500, seed=7)
    assert report.passed, report.failures[:5]
    _finish("1 feasibility", t0, 120, f"({report.checks} instances x 6 rules)")


def test_criterion_02_critical_bid_cross_check():
    """Closed-form payments match bisection critical bids within 1e-6."""
    t0 = time.perf_counter()
    report = V.critical_bid_suite(trials=200, seed=7)
    assert report.passed, report.failures[:5]
    _finish("2 critical-bids", t0, None, f"({report.checks} winner payments)")


def test_criterion_03_distorted_bi_criteria():
    """(1 - e^-beta, beta + 1/n) simultaneously on the 21-point beta grid."""
    t0 = time.perf_counter()
    report = V.distorted_guarantee_suite(trials=200, seed=7)
    assert report.passed, report.failures[:5]
    _finish("3 distorted-bi-criteria", t0, 60, f"(worst margin {report.extra['worst_margin']:.3g})")


def test_criterion_04_table_guarantees():
    """Cost-scaled (1/2, 1); ROI log bound; noisy distorted welfare bound."""
    t0 = time.perf_counter()
    table = V.table_guarantee_suite(trials=200, seed=7)
    assert table.passed, table.failures[:5]
    noisy = V.noisy_guarantee_suite(trials=200, seed=7)
    assert noisy.passed, noisy.failures[:5]
    _finish("4 table-guarantees", t0, None,
            f"(roi on {table.extra['roi_instances']} eligible; noisy worst margin {noisy.extra['worst_margin']:.3g})")


def test_criterion_05_stochastic_distorted_expectation():
    """Mean welfare over 200 seeds within two standard errors of the bound."""
    t0 = time.perf_counter()
    report = V.stochastic_guarantee_suite(trials=50, seed=7)
    assert report.passed, report.failures[:5]
    _finish("5 stochastic-expectation", t0, None,
            f"({report.extra['failed_instances']}/{report.extra['instances']} outside the band)")


def test_criterion_06_online_equivalence_and_guarantee():
    """Posted-price winners equal a from-scratch posted-price walk; online (1/2, 1) holds."""
    t0 = time.perf_counter()
    report = V.online_equivalence_suite(trials=500, seed=7)
    assert report.passed, report.failures[:5]
    _finish("6 online", t0, None, f"(worst online margin {report.extra['worst_online_margin']:.3g})")


def test_criterion_07_family_reproduction():
    """Exact demand collapses to welfare <= 2; cost-scaled keeps >= L/2 - 1."""
    t0 = time.perf_counter()
    oracle = AdversarialFamilyOracle(10)
    _, opt_welfare = exact_opt(oracle, oracle.bids())
    assert opt_welfare == pytest.approx(9.0)
    report = V.descending_family_suite()
    assert report.passed, report.failures[:5]
    _finish("7 family", t0, 30, str({k: v for k, v in report.extra.items()}))


def test_criterion_08_cost_scaled_descending_bound():
    """Welfare >= f(OPT)/2 - c(OPT) - n*eps under 102 schedules per instance."""
    t0 = time.perf_counter()
    report = V.descending_bound_suite(trials=200, seed=7)
    assert report.passed, report.failures[:5]
    _finish("8 descending-bound", t0, None, f"(worst margin {report.extra['worst_margin']:.3g})")


def test_criterion_09_vcg():
    """VCG welfare equals the exact optimum; payments never exceed value."""
    t0 = time.perf_counter()
    report = V.vcg_suite(trials=500, seed=7)
    assert report.passed, report.failures[:5]
    _finish("9 vcg", t0, None, f"({report.checks} instances)")


def test_criterion_10_lazy_equivalence_and_queries():
    """Lazy loops reproduce naive outcomes exactly and query far less at scale."""
    t0 = time.perf_counter()
    report = V.lazy_equivalence_suite(trials=500, seed=7)
    assert report.passed, report.failures[:5]
    adv = V.lazy_query_advantage(seed=7)
    assert adv["lazy_queries"] < adv["naive_queries"]
    _finish("10 lazy", t0, None,
            f"(n=2000 queries: lazy {adv['lazy_queries']} vs naive {adv['naive_queries']})")


RULE_ORDER = ("greedy-margin", "greedy-rate", "cost-scaled", "distorted")


def test_criterion_11_experiment_reproduction():
    """Coverage-benchmark trends: active fraction falls in s; welfare ordering
    holds as a soft check; the CSV body is deterministic under reruns.

    Runs against the real voting graph when PROCURE_WIKI_VOTE (or
    tests/data/wiki-Vote.txt) is present, otherwise against the seeded
    synthetic stand-in of the same shape.
    """
    t0 = time.perf_counter()
    graph, is_real = wiki_vote_graph()
    if is_real:
        assert abs(graph.n_sources - 7000) <= 0.15 * 7000
        assert abs(graph.n_targets - 2800) <= 0.15 * 2800

    mechanisms = [f"alloc:{r}" for r in RULE_ORDER]
    n_values, s_values, per_cell = [100, 200, 500], [1.0, 2.0, 4.0], 100
    records = experiment_records(graph, n_values, s_values, per_cell, mechanisms, seed=7)
    assert len(records) == len(n_values) * len(s_values) * per_cell * len(mechanisms)

    # (a) active fraction decreases stochastically in s
    per_instance = {(r.n, r.s, r.instance_id): r.active_fraction for r in records}
    scales = [key[1] for key in per_instance]
    fractions = [per_instance[key] for key in per_instance]
    rho = stats.spearmanr(scales, fractions).statistic
    assert rho < 0, f"active fraction did not decrease in s (spearman {rho:.3f})"

    # (b) soft ordering check per n over the three most-populated buckets
    soft_misses = []
    for n in n_values:
        buckets: dict[int, dict[str, list[float]]] = {}
        for r in records:
            if r.n != n or r.welfare is None:
                continue
            b = min(int(r.active_fraction / 0.1), 9)
            buckets.setdefault(b, {}).setdefault(r.rule, []).append(r.welfare)
        top = sorted(buckets, key=lambda b: -sum(len(v) for v in buckets[b].values()))[:3]
        holds = 0
        for b in top:
            means = [float(np.mean(buckets[b].get(rule, [np.nan]))) for rule in RULE_ORDER]
            if all(means[i] >= means[i + 1] - 1e-9 for i in range(len(means) - 1)):
                holds += 1
        if holds < 2:
            soft_misses.append(f"n={n}: ordering held in {holds}/{len(top)} buckets")
    if soft_misses:
        warnings.warn("welfare-ordering soft check missed: " + "; ".join(soft_misses))

    # (c) determinism: regenerate the n=100 slice and compare CSV bodies
    import io

    def slice_csv() -> str:
        recs = experiment_records(graph, [100], s_values, per_cell, mechanisms, seed=7)
        buf = io.StringIO()
        write_csv(recs, buf, include_timing=False)
        return buf.getvalue()

    assert slice_csv() == slice_csv()

    _finish("11 experiment", t0, 600,
            f"({'wiki-Vote' if is_real else 'synthetic graph'}, spearman {rho:.3f},"
            f" soft misses {len(soft_misses)})")

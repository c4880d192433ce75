"""Property suites: feasibility, welfare guarantees, and equivalences.

Each suite draws random instances, exercises one of the published claims
(incentive compatibility, bi-criteria welfare bounds, lazy/naive and
online/posted equivalences, descending-auction bounds) and reports the
failures it saw.  The CLI's ``verify`` command and the acceptance tests
both run these with their own trial counts; every other setting is a
module constant or a literal below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descending import (
    AdversarialFamilySchedule,
    CostScaledDemand,
    FamilyExactDemand,
    LexicographicSchedule,
    RoundRobinSchedule,
    random_scripted_schedules,
    run_descending,
)
from .instances import random_instance
from .online import run_online_meta, run_posted_price, order_random, worst_sampled_order
from .scoring import ONLINE_CAPABLE_RULES, RULE_NAMES, STOCHASTIC_EPSILON, RandomSeed, ScoringRule, make_rule
from .sealed_bid import (
    AuctionOutcome,
    exact_opt,
    run_sealed_bid,
    run_sealed_bid_lazy,
    run_vcg,
    sealed_bid_runner,
    verify_ic,
    verify_ir,
    verify_nas,
)
from .selection import run_meta, run_meta_lazy
from .valuation import CoverageOracle, NoisyOracle, ValuationOracle, stable_hash64, sum_in_order, welfare

#: Rules whose sealed-bid mechanism is deterministic given the bids, in
#: ``RULE_NAMES`` order: the suites pick trial t's rule by its index here.
DETERMINISTIC_RULES = tuple(name for name in RULE_NAMES if not make_rule(name, 1).randomized)

BETA_GRID = tuple(round(0.05 * i, 2) for i in range(21))

#: Slack of the exact welfare bounds: distorted, table, online and descending.
TOL = 1e-9
#: Runs per instance of ``stochastic_guarantee_suite``.
SEEDS_PER_INSTANCE = 200


@dataclass
class SuiteReport:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count one check, recording ``message`` as its failure unless ``ok``."""
        self.checks += 1
        if not ok:
            self.fail(message)
        return ok

    def margin(self, key: str, margin: float, tol: float, message: str) -> None:
        """Check ``margin`` >= -tol, keeping the worst margin as ``extra[key]``
        (which the suite sets to inf before its first check)."""
        self.extra[key] = min(self.extra[key], margin)
        self.check(not margin < -tol, message)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures[:50],
            **self.extra,
        }


def sample_instance(rng: np.random.Generator, n_hi: int):
    """Random coverage oracle and cost vector with n in [2, n_hi]."""
    n = int(rng.integers(2, n_hi + 1))
    instance, costs = random_instance(n, int(rng.integers(0, 2**31)))
    return CoverageOracle(instance), costs


#: The noise level of the noisy rule in the property suites.
SUITE_NOISE_EPSILON = 0.05


def suite_rule(name: str, oracle: ValuationOracle, noise_seed: int = 0):
    """Rule plus the oracle the mechanism should see (noisy rules wrap it)."""
    if name == "noisy-distorted":
        rule = make_rule(name, oracle.n, noise_epsilon=SUITE_NOISE_EPSILON)
        return rule, NoisyOracle(oracle, SUITE_NOISE_EPSILON, seed=noise_seed)
    return make_rule(name, oracle.n), oracle


# ---------------------------------------------------------------------------
# Feasibility: IC, IR, NAS
# ---------------------------------------------------------------------------


def feasibility_suite(trials: int = 500, seed: int = 0, parts: tuple[str, ...] = ("ic", "ir", "nas")) -> SuiteReport:
    """IC on a 20-point deviation grid plus IR and NAS on the truthful run,
    at the verifiers' default tolerance."""
    report = SuiteReport(name="+".join(parts))
    for rule_index, rule_name in enumerate(DETERMINISTIC_RULES):
        rng = np.random.default_rng(stable_hash64(seed, rule_index))
        for t in range(trials):
            base, costs = sample_instance(rng, 10)
            rule, oracle = suite_rule(rule_name, base, noise_seed=t)
            runner = sealed_bid_runner(rule)
            run_seed = RandomSeed(int(rng.integers(0, 2**31)))
            truthful = runner(oracle, costs, seed=run_seed)
            report.check("ir" not in parts or verify_ir(truthful, costs), f"{rule_name}: IR violated on trial {t}")
            if "nas" in parts and not verify_nas(truthful, oracle):
                report.fail(
                    f"{rule_name}: NAS violated on trial {t}: value {oracle.value(truthful.winners):.6g}"
                    f" < payments {truthful.total_payment:.6g}"
                )
            if "ic" in parts:
                ic = verify_ic(runner, oracle, costs, seed=run_seed)
                if not ic.passed:
                    v = ic.violations[0]
                    report.fail(
                        f"{rule_name}: IC violated on trial {t}: seller {v.seller} gains "
                        f"{v.deviated_utility - v.truthful_utility:.3g} bidding {v.deviation_bid:.4g}"
                    )
            if len(report.failures) > 20:
                return report
    return report


# ---------------------------------------------------------------------------
# Welfare guarantees against the exact optimizer
# ---------------------------------------------------------------------------


def _opt(oracle: ValuationOracle, costs) -> tuple[float, float]:
    winners, _ = exact_opt(oracle, costs)
    return oracle.value(winners), sum_in_order(costs[i] for i in winners)


def distorted_guarantee_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Simultaneous (1 - e^-beta, beta + 1/n) bounds for the distorted rule."""
    report = SuiteReport(name="distorted-guarantee", extra={"worst_margin": math.inf})
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        oracle, costs = sample_instance(rng, 12)
        n = oracle.n
        trace = run_meta(make_rule("distorted", n), oracle, costs)
        achieved = welfare(oracle, costs, trace.winners)
        f_opt, c_opt = _opt(oracle, costs)
        for beta in BETA_GRID:
            bound = (1.0 - math.exp(-beta)) * f_opt - (beta + 1.0 / n) * c_opt
            report.margin("worst_margin", achieved - bound, TOL,
                          f"beta={beta}: welfare {achieved:.6g} below bound {bound:.6g}")
    return report


def table_guarantee_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Cost-scaled (1/2, 1) and ROI logarithmic bounds on random instances."""
    report = SuiteReport(name="table-guarantees")
    rng = np.random.default_rng(seed)
    roi_checked = 0
    for _ in range(trials):
        oracle, costs = sample_instance(rng, 12)
        f_opt, c_opt = _opt(oracle, costs)

        trace = run_meta(make_rule("cost-scaled", oracle.n), oracle, costs)
        achieved = welfare(oracle, costs, trace.winners)
        bound = 0.5 * f_opt - c_opt
        report.check(not achieved < bound - TOL, f"cost-scaled: {achieved:.6g} < {bound:.6g}")

        if f_opt >= c_opt > 0:
            roi_checked += 1
            trace = run_meta(make_rule("roi", oracle.n), oracle, costs)
            achieved = welfare(oracle, costs, trace.winners)
            bound = f_opt - (1.0 + math.log(f_opt / c_opt)) * c_opt
            report.check(not achieved < bound - TOL, f"roi: {achieved:.6g} < {bound:.6g}")
    report.extra["roi_instances"] = roi_checked
    return report


def noisy_guarantee_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Noisy distorted greedy welfare bound with the default cost multiplier,
    at eps 0.01 and 0.05.

    Checked form: f(S) - c(S) >= (1-eps)/(1+2*eps*n+eps) (1-1/e) f(OPT) - c(OPT),
    which is what the potential-function derivation yields after dividing by
    the cost multiplier, to within 1e-7.
    """
    report = SuiteReport(name="noisy-guarantee", extra={"worst_margin": math.inf})
    rng = np.random.default_rng(seed)
    for t in range(trials):
        base, costs = sample_instance(rng, 12)
        n = base.n
        f_opt, c_opt = _opt(base, costs)
        for eps in (0.01, 0.05):
            noisy = NoisyOracle(base, eps, seed=t)
            rule = make_rule("noisy-distorted", n, noise_epsilon=eps)
            trace = run_meta(rule, noisy, costs)
            achieved = welfare(base, costs, trace.winners)
            factor = (1.0 - eps) / (1.0 + 2.0 * eps * n + eps) * (1.0 - 1.0 / math.e)
            bound = factor * f_opt - c_opt
            report.margin("worst_margin", achieved - bound, 1e-7,
                          f"eps={eps}: welfare {achieved:.6g} < {bound:.6g}")
    return report


def stochastic_guarantee_suite(trials: int = 50, seed: int = 0) -> SuiteReport:
    """Expected-welfare bound for the stochastic rule, within two standard errors.

    Each of ``trials`` instances averages ``SEEDS_PER_INSTANCE`` runs; the
    suite fails when more than 5% of them leave the band.  The report's
    ``"instances"`` is ``trials``.
    """
    report = SuiteReport(name="stochastic-guarantee")
    rng = np.random.default_rng(seed)
    failed_instances = 0
    for _ in range(trials):
        oracle, costs = sample_instance(rng, 12)
        n = oracle.n
        rule = make_rule("stochastic-distorted", n)
        f_opt, c_opt = _opt(oracle, costs)
        welfares = np.empty(SEEDS_PER_INSTANCE)
        for s in range(SEEDS_PER_INSTANCE):
            trace = run_meta(rule, oracle, costs, seed=RandomSeed(int(rng.integers(0, 2**31))))
            welfares[s] = welfare(oracle, costs, trace.winners)
        mean = float(welfares.mean())
        sem = float(welfares.std(ddof=1)) / math.sqrt(SEEDS_PER_INSTANCE)
        for beta in BETA_GRID:
            bound = (1.0 - STOCHASTIC_EPSILON) * (1.0 - math.exp(-beta)) * f_opt - (beta + 1.0 / n) * c_opt
            report.checks += 1  # a miss is an example; too many missed instances fail the suite
            if mean < bound - 2.0 * sem:
                failed_instances += 1
                report.extra.setdefault("examples", []).append(
                    f"beta={beta}: mean {mean:.6g} < {bound:.6g} - 2sem {2 * sem:.3g}"
                )
                break
    report.extra["failed_instances"] = failed_instances
    report.extra["instances"] = trials
    if failed_instances > 0.05 * trials:
        report.fail(f"{failed_instances}/{trials} instances broke the 2-sigma expectation band")
    return report


# ---------------------------------------------------------------------------
# Equivalences
# ---------------------------------------------------------------------------


def lazy_equivalence_suite(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Lazy allocation and payments must match the naive loops exactly."""
    report = SuiteReport(name="lazy-equivalence")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        oracle, costs = sample_instance(rng, 30)
        for rule_name in ONLINE_CAPABLE_RULES:
            rule = make_rule(rule_name, oracle.n)
            naive = run_sealed_bid(rule, oracle, costs)
            lazy = run_sealed_bid_lazy(rule, oracle, costs)
            if not report.check(naive.winners == lazy.winners,
                                f"{rule_name} trial {t}: winners {naive.winners} != {lazy.winners}"):
                continue
            if naive.trace.chosen_at != lazy.trace.chosen_at:
                report.fail(f"{rule_name} trial {t}: admission rounds differ")
            if naive.payments != lazy.payments:
                worst = max(abs(a - b) for a, b in zip(naive.payments, lazy.payments))
                report.fail(f"{rule_name} trial {t}: payments differ by {worst:.3g}")
        if len(report.failures) > 20:
            return report
    return report


def lazy_query_advantage(seed: int = 0) -> dict:
    """Oracle-query counts of the naive and lazy greedy-margin allocation at n = 2000."""
    n, rule_name = 2000, "greedy-margin"
    instance, costs = random_instance(n, seed)
    rule = make_rule(rule_name, n)

    oracle = CoverageOracle(instance)
    run_meta(rule, oracle, costs)
    naive_queries = oracle.query_count

    oracle = CoverageOracle(instance)
    run_meta_lazy(rule, oracle, costs)
    lazy_queries = oracle.query_count
    return {"n": n, "rule": rule_name, "naive_queries": naive_queries, "lazy_queries": lazy_queries}


def online_equivalence_suite(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Posted-price winners equal a from-scratch posted-price walk; cost-scaled keeps (1/2, 1).

    The walk prices each arrival from ``oracle.marginal`` on the sellers
    admitted so far, independently of the mechanism's scratch.  The bound is
    checked on 20 instances, each under 49 random orders and the worst of
    25 more.
    """
    report = SuiteReport(name="online-equivalence", extra={"worst_online_margin": math.inf})
    rng = np.random.default_rng(seed)
    for t in range(trials):
        oracle, costs = sample_instance(rng, 12)
        rule_name = ONLINE_CAPABLE_RULES[t % len(ONLINE_CAPABLE_RULES)]
        rule = make_rule(rule_name, oracle.n)
        order = order_random(oracle.n, int(rng.integers(0, 2**31)))
        walked: list[int] = []
        for k in order:
            if costs[k] < rule.posted_price(oracle.marginal(k, walked)):
                walked.append(k)
        posted = run_posted_price(rule, oracle, costs, order)
        report.check(tuple(sorted(walked)) == posted.winners,
                     f"trial {t} {rule_name}: {tuple(sorted(walked))} != {posted.winners}")
        if not verify_nas(AuctionOutcome(posted.winners, posted.payments, oracle.value(posted.winners)), oracle):
            report.fail(f"trial {t} {rule_name}: posted-price NAS violated")

    for _ in range(20):
        oracle, costs = sample_instance(rng, 12)
        rule = make_rule("cost-scaled", oracle.n)
        f_opt, c_opt = _opt(oracle, costs)
        orders = [order_random(oracle.n, int(rng.integers(0, 2**31))) for _ in range(49)]
        orders.append(worst_sampled_order(rule, oracle, costs, samples=25, seed=int(rng.integers(0, 2**31))))
        for order in orders:
            margin = welfare(oracle, costs, run_online_meta(rule, oracle, costs, order)) - (0.5 * f_opt - c_opt)
            report.margin("worst_online_margin", margin, TOL,
                          f"online cost-scaled below (1/2, 1) bound by {-margin:.3g}")
    return report


# ---------------------------------------------------------------------------
# Descending auctions
# ---------------------------------------------------------------------------


def descending_bound_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Cost-scaled demand keeps (1/2, 1) up to n*epsilon under any schedule: the
    lexicographic, the round-robin and 100 random scripted ones per instance."""
    report = SuiteReport(name="descending-bound", extra={"worst_margin": math.inf})
    rng = np.random.default_rng(seed)
    for t in range(trials):
        oracle, costs = sample_instance(rng, 12)
        n = oracle.n
        initial = [oracle.marginal(i, ()) for i in range(n)]
        top = max(initial) if initial else 1.0
        epsilon = max(top, 1.0) / 40.0
        f_opt, c_opt = _opt(oracle, costs)
        bound = 0.5 * f_opt - c_opt - n * epsilon
        schedules = [LexicographicSchedule(), RoundRobinSchedule(n)]
        schedules += random_scripted_schedules(n, 100, int(rng.integers(0, 2**31)))
        for schedule in schedules:
            achieved = run_descending(oracle, costs, CostScaledDemand(oracle), schedule, epsilon).welfare(costs)
            report.margin("worst_margin", achieved - bound, TOL,
                          f"trial {t}: welfare {achieved:.6g} below bound {bound:.6g}")
        if len(report.failures) > 20:
            return report
    return report


def lowerbound_report(L: int, epsilon: float | None = None) -> dict:
    """Both demand oracles on the adversarial family under its schedule; the step defaults to 1/(2L)."""
    from .valuation import AdversarialFamilyOracle

    if L < 2:
        raise ValueError("L must be at least 2")
    if epsilon is None:
        epsilon = 1.0 / (2 * L)
    if epsilon >= 1.0 / L:
        raise ValueError(f"step size must be below 1/L = {1.0 / L:.4g}, got {epsilon}")
    oracle = AdversarialFamilyOracle(L)
    bids = oracle.bids()

    exact = run_descending(oracle, bids, FamilyExactDemand(oracle), AdversarialFamilySchedule(L), epsilon)
    exact_welfare = exact.welfare(bids)

    oracle2 = AdversarialFamilyOracle(L)
    scaled = run_descending(oracle2, bids, CostScaledDemand(oracle2), AdversarialFamilySchedule(L), epsilon)
    scaled_welfare = scaled.welfare(bids)

    return {
        "L": L,
        "epsilon": epsilon,
        "opt_welfare": float(L - 1),
        "exact_oracle_welfare": exact_welfare,
        "exact_oracle_winners": list(exact.winners),
        "cost_scaled_welfare": scaled_welfare,
        "cost_scaled_winners": list(scaled.winners),
    }


def lowerbound_failures(res: dict) -> list[str]:
    """Where a ``lowerbound_report`` misses the separation: exact demand
    must end at welfare <= 2, cost-scaled demand at >= L/2 - 1."""
    L, exact, scaled = res["L"], res["exact_oracle_welfare"], res["cost_scaled_welfare"]
    failures = []
    if exact > 2.0 + 1e-9:
        failures.append(f"L={L}: exact-oracle welfare {exact:.4g} > 2")
    if scaled < L / 2.0 - 1.0 - 1e-9:
        failures.append(f"L={L}: cost-scaled welfare {scaled:.4g} < L/2 - 1")
    return failures


def descending_family_suite() -> SuiteReport:
    """Exact demand collapses on the family; cost-scaled demand does not."""
    report = SuiteReport(name="descending-family")
    for L in (10, 50, 100):
        res = lowerbound_report(L)
        report.checks += 1
        report.failures += lowerbound_failures(res)
        report.extra[f"L={L}"] = {
            "exact": res["exact_oracle_welfare"],
            "cost_scaled": res["cost_scaled_welfare"],
            "opt": res["opt_welfare"],
        }
    return report


def descending_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Bundle: adversarial bound, family reproduction."""
    bound = descending_bound_suite(trials=trials, seed=seed)
    family = descending_family_suite()
    report = SuiteReport(name="descending", checks=bound.checks + family.checks)
    report.failures = bound.failures + family.failures
    report.extra = {**bound.extra, **family.extra}
    return report


# ---------------------------------------------------------------------------
# Critical bids against allocation bisection
# ---------------------------------------------------------------------------


def critical_bid_bisection(rule: ScoringRule, oracle: ValuationOracle, bids, i: int) -> float:
    """Largest bid at which seller i still wins, to within 1e-8, found on the
    allocation alone (run unseeded)."""
    bids = [float(b) for b in bids]

    def wins(b: float) -> bool:
        probe = bids.copy()
        probe[i] = b
        return i in run_meta(rule, oracle, probe).winners

    hi = 2.0 * oracle.marginal(i, ()) + 1.0
    if wins(hi):
        raise AssertionError("no losing bid found; assumption (2) violated")
    lo = 0.0
    if not wins(lo):
        return 0.0
    while hi - lo > 1e-8:
        mid = (lo + hi) / 2.0
        if wins(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def critical_bid_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Closed-form payments match bisection critical bids within 1e-6."""
    report = SuiteReport(name="critical-bids")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        base, costs = sample_instance(rng, 10)
        rule_name = DETERMINISTIC_RULES[t % len(DETERMINISTIC_RULES)]
        rule, oracle = suite_rule(rule_name, base, noise_seed=t)
        outcome = run_sealed_bid(rule, oracle, costs)
        for i in outcome.winners:
            crit = critical_bid_bisection(rule, oracle, costs, i)
            report.check(not abs(outcome.payments[i] - crit) > 1e-6,
                         f"trial {t} {rule_name}: payment {outcome.payments[i]:.8g} vs critical {crit:.8g}")
        if len(report.failures) > 20:
            return report
    return report


# ---------------------------------------------------------------------------
# VCG
# ---------------------------------------------------------------------------


def vcg_suite(trials: int = 500, seed: int = 0) -> SuiteReport:
    """VCG attains the exact optimum and never overpays the acquired value."""
    report = SuiteReport(name="vcg")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        oracle, costs = sample_instance(rng, 12)
        outcome = run_vcg(oracle, costs)
        _, opt_welfare = exact_opt(oracle, costs)
        achieved = outcome.welfare(costs)
        report.check(achieved == opt_welfare, f"trial {t}: VCG welfare {achieved!r} != OPT {opt_welfare!r}")
        if outcome.total_payment > outcome.value + 1e-9:
            report.fail(f"trial {t}: VCG payments exceed acquired value")
    return report


SUITES = {
    "ic": lambda trials, seed: feasibility_suite(trials, seed, parts=("ic",)),
    "ir": lambda trials, seed: feasibility_suite(trials, seed, parts=("ir",)),
    "nas": lambda trials, seed: feasibility_suite(trials, seed, parts=("nas",)),
    "guarantees": lambda trials, seed: _guarantee_bundle(trials, seed),
    "lazy-equivalence": lambda trials, seed: lazy_equivalence_suite(trials, seed),
    "online-equivalence": lambda trials, seed: online_equivalence_suite(trials, seed),
    "descending": lambda trials, seed: descending_suite(trials, seed),
}


def _guarantee_bundle(trials: int, seed: int) -> SuiteReport:
    parts = [
        distorted_guarantee_suite(trials, seed),
        table_guarantee_suite(trials, seed),
        noisy_guarantee_suite(max(20, trials // 10), seed),
    ]
    report = SuiteReport(name="guarantees", checks=sum(p.checks for p in parts))
    for p in parts:
        report.failures.extend(f"{p.name}: {f}" for f in p.failures)
        report.extra[p.name] = dict(p.extra)
    return report


def run_suite(name: str, trials: int, seed: int) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return SUITES[name](trials, seed)

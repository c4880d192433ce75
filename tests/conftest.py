import numpy as np
import pytest
from hypothesis import strategies as st

from procure.instances import ExperimentConfig, build_instance, random_instance, synthetic_bipartite_graph
from procure.scoring import make_rule
from procure.valuation import CoverageInstance, CoverageOracle, NoisyOracle

#: Dyadic grids: sums and differences of their values are mostly exact.
DYADIC_VALUES = (0.0, 0.5, 1.0, 2.0, 3.0)
DYADIC_COSTS = (0.0, 0.5, 1.0, 1.5, 2.0)
#: Non-dyadic grids: the score inversions round, so ties sit next to an ulp.
NON_DYADIC_VALUES = (0.1, 0.3, 0.7, 1 / 3)
NON_DYADIC_COSTS = (0.0, 0.1, 0.3, 0.7, 1 / 3)


@pytest.fixture
def coverage_pair():
    """Two sellers: A covers {v1, v2}, B covers {v2, v3}; values (1, 2, 3)."""
    instance = CoverageInstance(covers=((0, 1), (1, 2)), vertex_values=(1.0, 2.0, 3.0))
    return CoverageOracle(instance)


def random_oracle(seed: int, n_lo: int = 2, n_hi: int = 10):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    instance, costs = random_instance(n, int(rng.integers(0, 2**31)))
    return CoverageOracle(instance), costs


@st.composite
def edge_case_instances(
    draw, n_min: int = 0, n_max: int = 6, value_grid=DYADIC_VALUES, cost_grid=DYADIC_COSTS
):
    """Small coverage instances built to hit the engines' edge cases.

    Covers are drawn from a pool of at most four vertex sets, which may be
    empty, so duplicate covers (exact score ties) and zero marginals are
    common; vertex values and costs come from short grids (by default ones
    that include 0), and n may be 0 or 1 (with the default ``n_min``).
    """
    n = draw(st.integers(n_min, n_max))
    n_vertices = draw(st.integers(1, 5))
    values = draw(st.lists(st.sampled_from(value_grid), min_size=n_vertices, max_size=n_vertices))
    pool = draw(st.lists(st.frozensets(st.integers(0, n_vertices - 1)), min_size=1, max_size=4))
    covers = tuple(tuple(sorted(draw(st.sampled_from(pool)))) for _ in range(n))
    costs = draw(st.lists(st.sampled_from(cost_grid), min_size=n, max_size=n))
    return CoverageInstance(covers, tuple(values)), costs


def rule_and_oracle(rule_name, instance, capped=False):
    """The rule over ``instance`` and a fresh oracle for it (noisy for the noisy rule)."""
    n = instance.n_sets
    if rule_name == "noisy-distorted":
        return make_rule(rule_name, n, noise_epsilon=0.1), NoisyOracle(CoverageOracle(instance), 0.1, seed=n)
    if capped:
        return make_rule("distorted", n, cardinality=max(1, n // 3)), CoverageOracle(instance)
    return make_rule(rule_name, n), CoverageOracle(instance)


def brute_force_opt(oracle, costs, prefer_small=False, candidates=None):
    """Independent subset enumeration, kept free of the library optimizer."""
    cand = sorted(candidates) if candidates is not None else list(range(oracle.n))
    best_w, best_s, best_key = 0.0, (), None
    for mask in range(2 ** len(cand)):
        s = tuple(cand[j] for j in range(len(cand)) if mask >> j & 1)
        w = oracle.value(s) - sum(costs[i] for i in s)
        key = (len(s), s) if prefer_small else s
        if best_key is None or w > best_w or (w == best_w and key < best_key):
            best_w, best_s, best_key = w, s, key
    return best_s, best_w


def posted_price_reference(rule, instance, costs, order):
    """Posted-price run priced from one from-scratch marginal per arrival.

    Returns (winners, posted prices, payments) on a fresh oracle; the
    mechanisms must reproduce it bit for bit.
    """
    oracle = CoverageOracle(instance)
    posted = [0.0] * oracle.n
    payments = [0.0] * oracle.n
    admitted: list[int] = []
    for k in order:
        price = rule.posted_price(oracle.marginal(k, admitted))
        posted[k] = price
        if costs[k] < price:
            admitted.append(k)
            payments[k] = price
    return tuple(sorted(admitted)), tuple(posted), tuple(payments)


def synthetic_instances(count: int, n: int = 60):
    """A few degree-based instances cut from a small synthetic graph."""
    graph = synthetic_bipartite_graph(200, 120, seed=3)
    cfg = ExperimentConfig(n=n, s=1.0, instances=count, seed=11)
    return [build_instance(graph, cfg, j) for j in range(count)]

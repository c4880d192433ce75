import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from procure.instances import (
    BipartiteGraph,
    EdgeListParseError,
    ExperimentConfig,
    active_fraction,
    build_instance,
    parse_edge_list,
    random_instance,
    synthetic_bipartite_graph,
)
from procure.valuation import CoverageInstance, CoverageOracle, stable_hash64


class TestParseEdgeList:
    def test_two_edge_file(self):
        graph = parse_edge_list("# hdr\n1 2\n1 3\n")
        assert graph.n_sources == 1
        assert graph.source_covers[1] == (2, 3)
        assert graph.target_in_degree == {2: 1, 3: 1}

    def test_empty_file_empty_graph(self):
        graph = parse_edge_list("")
        assert graph.n_sources == 0
        with pytest.raises(ValueError):
            build_instance(graph, ExperimentConfig(n=1, s=1), 0)

    def test_duplicate_edges_deduplicated(self):
        graph = parse_edge_list("1 2\n1 2\n")
        assert graph.source_covers[1] == (2,)
        assert graph.target_in_degree == {2: 1}

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list("1 2\noops\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("line", [f"{2**63} 1\n", f"1 {2**64}\n"])
    def test_ids_past_int64_rejected(self, line):
        with pytest.raises(EdgeListParseError, match="below 2\\*\\*63"):
            parse_edge_list("1 2\n" + line)
        graph = parse_edge_list(f"{2**63 - 1} {2**63 - 1}\n")
        assert build_instance(graph, ExperimentConfig(n=1, s=1), 0)[0].covers == ((0,),)

    def test_three_fields_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("1 2 3\n")

    def test_tabs_and_blank_lines_ok(self):
        graph = parse_edge_list(io.StringIO("5\t7\n\n6\t7\n"))
        assert graph.target_in_degree[7] == 2


@pytest.mark.parametrize("s", [math.nan, math.inf, 1e200])
def test_experiment_config_rejects_non_finite_cost_scale(s):
    """s = 1e200 is finite, but kappa's upper end s*s overflows."""
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig(n=5, s=s)


def test_experiment_config_rejects_a_seed_past_int64():
    """It used to construct and fail at the first instance with a struct.error."""
    with pytest.raises(ValueError, match="64-bit"):
        ExperimentConfig(n=5, s=1, seed=2**63)


class TestBuildInstance:
    def _graph(self):
        return parse_edge_list("0 10\n0 11\n1 11\n2 12\n2 10\n2 13\n3 14\n")

    def test_degenerate_scale_uses_base_degrees(self):
        graph = self._graph()
        instance, costs = build_instance(graph, ExperimentConfig(n=4, s=1), 0)
        # kappa == 1 exactly, so each cost equals the sampled set's out-degree
        assert sorted(costs) == sorted(
            float(len(cover)) for cover in graph.source_covers.values()
        )

    def test_vertex_values_are_in_degrees(self):
        graph = self._graph()
        instance, _ = build_instance(graph, ExperimentConfig(n=4, s=1), 0)
        oracle = CoverageOracle(instance)
        # vertex 11 has in-degree 2; the set covering {10, 11} is worth 2 + 2
        assert oracle.value(tuple(range(4))) == sum(graph.target_in_degree.values())

    def test_deterministic_per_seed_and_index(self):
        graph = self._graph()
        cfg = ExperimentConfig(n=3, s=2, seed=9)
        a = build_instance(graph, cfg, 4)
        b = build_instance(graph, cfg, 4)
        c = build_instance(graph, cfg, 5)
        assert a == b
        assert a != c

    def test_kappa_within_interval(self):
        graph = self._graph()
        for index in range(20):
            instance, costs = build_instance(graph, ExperimentConfig(n=4, s=3, seed=1), index)
            oracle = CoverageOracle(instance)
            for i in range(4):
                base = len(set(instance.covers[i]))
                if base:
                    kappa = costs[i] / base
                    assert 3.0 <= kappa <= 9.0

    def test_oversampling_rejected(self):
        graph = self._graph()
        with pytest.raises(ValueError):
            build_instance(graph, ExperimentConfig(n=40, s=1), 0)

    def test_zero_out_degree_source(self):
        graph = BipartiteGraph(source_covers={0: (), 1: (5,)}, target_in_degree={5: 1})
        instance, costs = build_instance(graph, ExperimentConfig(n=2, s=2), 0)
        oracle = CoverageOracle(instance)
        empty = [i for i in range(2) if not instance.covers[i]]
        assert len(empty) == 1
        assert costs[empty[0]] == 0.0
        assert oracle.marginal(empty[0], ()) == 0.0


def _per_vertex_build(graph, cfg, index):
    """The per-vertex construction that ``build_instance`` replaced: sample
    the source ids themselves, relabel targets through a dict, and read
    degrees one node at a time.  Returns (covers, values, costs)."""
    sources = sorted(graph.source_covers)
    rng = np.random.default_rng(stable_hash64(cfg.seed, index))
    sampled = sorted(int(s) for s in rng.choice(sources, size=cfg.n, replace=False))
    kappa = float(rng.uniform(cfg.s, cfg.s * cfg.s))
    touched = sorted({t for s in sampled for t in graph.source_covers[s]})
    vertex_index = {t: pos for pos, t in enumerate(touched)}
    covers = tuple(tuple(vertex_index[t] for t in graph.source_covers[s]) for s in sampled)
    values = tuple(float(graph.target_in_degree[t]) for t in touched)
    costs = tuple(kappa * len(graph.source_covers[s]) for s in sampled)
    return covers, values, costs


def _sparse_edge_list(seed: int) -> str:
    """A SNAP-style edge list whose source and target ids are sparse and
    non-contiguous, with repeated edges and comment lines."""
    rng = np.random.default_rng(seed)
    sources = rng.choice(10**6, size=40, replace=False) * 7 + 3
    targets = rng.choice(10**7, size=60, replace=False) * 13 + 5
    lines = ["# FromNodeId\tToNodeId"]
    for _ in range(200):
        lines.append(f"{rng.choice(sources)}\t{rng.choice(targets)}")
    return "\n".join(lines) + "\n"


#: Directly built graphs: one has a source with no targets, the other
#: covers that are unsorted or repeat a target.
_DIRECT_GRAPHS = {
    "zero-out-degree": BipartiteGraph(
        source_covers={4: (), 9: (30, 10), 2: (10,), 7: (20, 30, 40)},
        target_in_degree={10: 2, 20: 1, 30: 2, 40: 1},
    ),
    "unsorted-duplicates": BipartiteGraph(
        source_covers={5: (9, 2, 9), 1: (5, 2), 8: (2,), 3: (5, 5, 9, 2)},
        target_in_degree={2: 4, 5: 2, 9: 2},
    ),
}


def _differential_cases():
    synthetic = synthetic_bipartite_graph(1500, 600, seed=0)
    for n in (1, 100, 1500):
        for s in (1.0, 4.0):
            yield pytest.param(synthetic, n, s, id=f"synthetic-n{n}-s{s:g}")
    for seed in range(3):
        graph = parse_edge_list(_sparse_edge_list(seed))
        for n in (1, graph.n_sources // 2, graph.n_sources):
            yield pytest.param(graph, n, 2.5, id=f"sparse{seed}-n{n}")
    for name, graph in _DIRECT_GRAPHS.items():
        for n in range(1, graph.n_sources + 1):
            yield pytest.param(graph, n, 3.0, id=f"{name}-n{n}")


@pytest.mark.parametrize("graph, n, s", list(_differential_cases()))
def test_build_instance_equals_per_vertex_build(graph, n, s):
    """Same covers, and vertex values and costs with the same bits."""
    for index in range(3):
        cfg = ExperimentConfig(n=n, s=s, seed=5)
        instance, costs = build_instance(graph, cfg, index)
        covers, values, ref_costs = _per_vertex_build(graph, cfg, index)
        assert instance.covers == covers
        assert [v.hex() for v in instance.vertex_values] == [v.hex() for v in values]
        assert [c.hex() for c in costs] == [c.hex() for c in ref_costs]
        assert all(type(v) is int for cov in instance.covers for v in cov)
        assert all(type(x) is float for x in instance.vertex_values + costs)


@pytest.mark.parametrize(
    "in_degree",
    [{1: 1, 2: 1, 5: 9}, {1: 1, 2: 1}, {}],
    ids=["between-known-ids", "past-the-last-id", "no-targets"],
)
def test_cover_target_without_a_degree_raises_key_error(in_degree):
    """Target 4 (and with no targets at all, every target) has no
    in-degree: the build raises the per-vertex build's ``KeyError`` for the
    smallest such id instead of reading a neighbouring target's degree."""
    graph = BipartiteGraph(source_covers={0: (1, 4), 1: (2,)}, target_in_degree=in_degree)
    cfg = ExperimentConfig(n=2, s=1)
    with pytest.raises(KeyError) as reference:
        _per_vertex_build(graph, cfg, 0)
    with pytest.raises(KeyError) as err:
        build_instance(graph, cfg, 0)
    assert err.value.args == reference.value.args


class TestActiveFraction:
    def test_all_zero_costs(self, coverage_pair):
        assert active_fraction(coverage_pair, [0.0, 0.0]) == 1.0

    def test_all_unaffordable(self, coverage_pair):
        assert active_fraction(coverage_pair, [10.0, 10.0]) == 0.0

    def test_mixed(self, coverage_pair):
        assert active_fraction(coverage_pair, [4.0, 1.0]) == 0.5

    @pytest.mark.parametrize("costs", [[1.0], [1.0, 1.0, 1.0], [float("nan"), 1.0], [-1.0, 1.0]])
    def test_bad_costs_raise(self, coverage_pair, costs):
        """Short costs raised IndexError; long ones passed, NaN counted inactive, negative active."""
        with pytest.raises(ValueError):
            active_fraction(coverage_pair, costs)

    def test_accepts_instance(self):
        instance = CoverageInstance(covers=((0,),), vertex_values=(2.0,))
        assert active_fraction(instance, [1.0]) == 1.0

    @pytest.mark.parametrize("source", ["random", "synthetic"])
    def test_equals_the_count_of_scalar_initial_marginals(self, source):
        if source == "random":
            cases = [random_instance(n, seed) for n in (1, 5, 40, 90) for seed in range(3)]
        else:
            graph = synthetic_bipartite_graph(n_sources=300, n_targets=150, seed=3)
            cases = [build_instance(graph, ExperimentConfig(n=n, s=s, seed=2), 0) for n in (20, 60) for s in (1.0, 4.0)]
        for instance, costs in cases:
            oracle = CoverageOracle(instance)
            active = sum(1 for i in range(oracle.n) if oracle.marginal(i, ()) > costs[i])
            assert active_fraction(instance, costs) == active / oracle.n
            assert active_fraction(oracle, costs) == active / oracle.n

    def test_fraction_decreases_in_s(self):
        graph = synthetic_bipartite_graph(n_sources=300, n_targets=150, seed=3)
        s_grid = [1.0, 2.0, 4.0, 8.0]
        fractions, scales = [], []
        for s in s_grid:
            for index in range(40):
                instance, costs = build_instance(graph, ExperimentConfig(n=50, s=s, seed=2), index)
                fractions.append(active_fraction(instance, costs))
                scales.append(s)
        rho = stats.spearmanr(scales, fractions).statistic
        assert rho < 0


class TestRandomInstance:
    def test_single_set(self):
        instance, costs = random_instance(1, 0)
        assert instance.n_sets == 1
        CoverageOracle(instance)

    def test_deterministic(self):
        assert random_instance(6, 42) == random_instance(6, 42)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_generated_instances_are_valid_and_submodular(self, seed, n):
        instance, costs = random_instance(n, seed)
        oracle = CoverageOracle(instance)
        assert len(costs) == n
        assert all(c >= 0 for c in costs)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            size = int(rng.integers(0, n))
            s = tuple(sorted(rng.choice(n, size=size, replace=False))) if size else ()
            bigger = tuple(sorted(set(s) | {int(rng.integers(0, n))}))
            assert oracle.value(s) <= oracle.value(bigger) + 1e-12
            for i in range(n):
                if i in bigger:
                    continue
                assert oracle.marginal(i, s) >= oracle.marginal(i, bigger) - 1e-12


def test_synthetic_graph_shape():
    graph = synthetic_bipartite_graph(n_sources=200, n_targets=80, seed=1)
    assert graph.n_sources == 200
    assert 0 < graph.n_targets <= 80
    assert all(len(c) >= 1 for c in graph.source_covers.values())

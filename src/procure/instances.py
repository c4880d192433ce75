"""Coverage-instance construction from bipartite edge lists.

Experiments sample seller nodes from a SNAP-style directed edge list:
source nodes become coverable sets, target nodes become vertices.  Vertex
values and base costs come from node degrees, and a per-instance multiplier
kappa drawn uniformly from [s, s^2] scales the costs, which is what sweeps
the fraction of active sellers.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .selection import _check_bids
from .valuation import CoverageInstance, CoverageOracle, ValuationOracle, stable_hash64

#: Mean out-degree and target-popularity Zipf exponent of ``synthetic_bipartite_graph``.
MEAN_OUT_DEGREE = 4.0
POPULARITY_SKEW = 0.5


class EdgeListParseError(ValueError):
    def __init__(self, line_no: int, line: str, reason: str):
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no


@dataclass(frozen=True)
class BipartiteGraph:
    """Deduplicated directed bipartite graph: sources cover targets."""

    source_covers: dict[int, tuple[int, ...]]
    target_in_degree: dict[int, int]

    @property
    def n_sources(self) -> int:
        return len(self.source_covers)

    @property
    def n_targets(self) -> int:
        return len(self.target_in_degree)

    def source_out_degree(self, source: int) -> int:
        return len(self.source_covers[source])


def parse_edge_list(stream: TextIO | str | Iterable[str]) -> BipartiteGraph:
    """Parse whitespace-separated "source target" lines; '#' starts a comment."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    covers: dict[int, set[int]] = {}
    in_degree: dict[int, set[int]] = {}
    for line_no, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise EdgeListParseError(line_no, stripped, "expected two whitespace-separated fields")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(line_no, stripped, "fields must be integers") from None
        if src < 0 or dst < 0:
            raise EdgeListParseError(line_no, stripped, "node ids must be nonnegative")
        covers.setdefault(src, set()).add(dst)
        in_degree.setdefault(dst, set()).add(src)
    return BipartiteGraph(
        source_covers={s: tuple(sorted(t)) for s, t in sorted(covers.items())},
        target_in_degree={t: len(srcs) for t, srcs in sorted(in_degree.items())},
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One (n, s) cell of the benchmark grid."""

    n: int
    s: float
    instances: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample size must be at least 1")
        if not math.isfinite(float(self.s) * float(self.s)):  # kappa is drawn from [s, s^2]
            raise ValueError(f"cost-scale base must be finite with a finite square, got {self.s}")
        if self.s < 1:
            raise ValueError("cost-scale base must be at least 1")
        if self.instances < 1:
            raise ValueError("instance count must be at least 1")


def build_instance(
    graph: BipartiteGraph,
    cfg: ExperimentConfig,
    index: int,
) -> tuple[CoverageInstance, tuple[float, ...]]:
    """Sample n set-nodes and derive values/costs from degrees.

    Vertex value = the target node's in-degree in the full graph; a set's
    base cost = its out-degree; costs are the base scaled by one draw of
    kappa ~ U[s, s^2] shared by the whole instance.  Deterministic in
    (cfg.seed, index).
    """
    sources = sorted(graph.source_covers)
    if cfg.n > len(sources):
        raise ValueError(f"cannot sample {cfg.n} of {len(sources)} set nodes")
    rng = np.random.default_rng(stable_hash64(cfg.seed, index))
    sampled = sorted(int(s) for s in rng.choice(sources, size=cfg.n, replace=False))
    kappa = float(rng.uniform(cfg.s, cfg.s * cfg.s))

    touched = sorted({t for s in sampled for t in graph.source_covers[s]})
    vertex_index = {t: pos for pos, t in enumerate(touched)}
    covers = tuple(tuple(vertex_index[t] for t in graph.source_covers[s]) for s in sampled)
    values = tuple(float(graph.target_in_degree[t]) for t in touched)
    costs = tuple(kappa * graph.source_out_degree(s) for s in sampled)
    return CoverageInstance(covers=covers, vertex_values=values), costs


def active_fraction(instance: CoverageInstance | ValuationOracle, costs: Sequence[float]) -> float:
    """Share of sellers whose initial marginal strictly exceeds their cost.

    The costs are checked like bids; the initial marginals are read in one
    ``marginals`` call on a fresh scratch.
    """
    oracle = instance if isinstance(instance, ValuationOracle) else CoverageOracle(instance)
    costs = _check_bids(costs, oracle.n)
    if oracle.n == 0:
        return 0.0
    initial = oracle.scratch().marginals(np.arange(oracle.n)).tolist()
    active = sum(1 for i, m in enumerate(initial) if m > costs[i])
    return active / oracle.n


def random_instance(n: int, seed: int) -> tuple[CoverageInstance, tuple[float, ...]]:
    """Small random coverage instance for property tests.

    Each of the n sets covers a handful of 3n vertices with values in
    [0, 10]; costs land in [0, 1.5 f(i|0)], which mixes profitable and
    unprofitable sellers.
    """
    if n < 1:
        raise ValueError("need at least one set")
    rng = np.random.default_rng(stable_hash64(seed, n))
    n_vertices = 3 * n
    values = tuple(float(v) for v in rng.uniform(0.0, 10.0, size=n_vertices))
    covers = []
    for _ in range(n):
        size = int(rng.integers(0, min(6, n_vertices + 1)))
        chosen = sorted(int(v) for v in rng.choice(n_vertices, size=size, replace=False)) if size else []
        covers.append(tuple(chosen))
    instance = CoverageInstance(covers=tuple(covers), vertex_values=values)
    oracle = CoverageOracle(instance)
    costs = tuple(float(rng.uniform(0.0, 1.5 * oracle.marginal(i, ()))) if covers[i] else 0.0 for i in range(n))
    return instance, costs


def synthetic_bipartite_graph(n_sources: int = 1500, n_targets: int = 1200, seed: int = 0) -> BipartiteGraph:
    """Heavy-tailed stand-in for the public voting graph.

    Used by benchmarks and experiment smoke paths when no SNAP edge list is
    on disk; degree skew comes from Zipf-weighted target popularity.  Active
    fractions over 20 instances at config seed 7 (min, max): on the default
    shape at n = 100, [0.99, 1.0] at s = 1, [0.91, 1.0] at s = 2 and
    [0.19, 0.88] at s = 4 (median 0.34); on (1500, 600) at n = 100-500,
    1.0 at s = 1, at least 0.99 at s = 2 and [0.45, 1.0] at s = 4.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_targets + 1) ** POPULARITY_SKEW
    weights /= weights.sum()
    covers: dict[int, tuple[int, ...]] = {}
    in_degree: dict[int, set[int]] = {}
    for s in range(n_sources):
        size = 1 + int(rng.poisson(MEAN_OUT_DEGREE - 1))
        size = min(size, n_targets)
        targets = sorted(int(t) for t in rng.choice(n_targets, size=size, replace=False, p=weights))
        covers[s] = tuple(targets)
        for t in targets:
            in_degree.setdefault(t, set()).add(s)
    return BipartiteGraph(
        source_covers=covers,
        target_in_degree={t: len(srcs) for t, srcs in sorted(in_degree.items())},
    )

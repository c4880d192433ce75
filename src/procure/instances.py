"""Coverage-instance construction from bipartite edge lists.

Experiments sample seller nodes from a SNAP-style directed edge list:
source nodes become coverable sets, target nodes become vertices.  Vertex
values and base costs come from node degrees, and a per-instance multiplier
kappa drawn uniformly from [s, s^2] scales the costs, which is what sweeps
the fraction of active sellers.

A graph keeps one array view of itself, built on first use: every cover's
targets in one flat array with CSR offsets in ascending source-id order,
and its ascending target ids with their float in-degrees.  ``build_instance``
then samples and relabels with a few whole-array numpy calls instead of
per-seller and per-vertex Python loops, and returns what the per-vertex
construction returned, bit for bit.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence, TextIO

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


class _GraphArrays(NamedTuple):
    """A ``BipartiteGraph`` as arrays: the k-th smallest source id covers
    ``targets[offsets[k]:offsets[k + 1]]``."""

    offsets: np.ndarray  # CSR offsets into ``targets``, one more than there are sources
    targets: np.ndarray  # every source's cover, in source then cover order
    target_ids: np.ndarray  # ascending target ids
    in_degree: np.ndarray  # float in-degree of each of ``target_ids``


@dataclass(frozen=True)
class BipartiteGraph:
    """Deduplicated directed bipartite graph: sources cover targets.

    Treated as immutable: ``_arrays`` is built from the dicts once.
    """

    source_covers: dict[int, tuple[int, ...]]
    target_in_degree: dict[int, int]

    @cached_property
    def _arrays(self) -> _GraphArrays:
        covers = [cover for _, cover in sorted(self.source_covers.items())]
        offsets = np.zeros(len(covers) + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, covers), dtype=np.intp, count=len(covers)), out=offsets[1:])
        target_ids = sorted(self.target_in_degree)
        return _GraphArrays(
            offsets=offsets,
            targets=np.fromiter(chain.from_iterable(covers), dtype=np.int64, count=int(offsets[-1])),
            target_ids=np.array(target_ids, dtype=np.int64),
            in_degree=np.array([float(self.target_in_degree[t]) for t in target_ids], dtype=float),
        )

    @property
    def n_sources(self) -> int:
        return len(self.source_covers)

    @property
    def n_targets(self) -> int:
        return len(self.target_in_degree)


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
        if src >= 2**63 or dst >= 2**63:  # the graph's arrays hold ids as int64
            raise EdgeListParseError(line_no, stripped, "node ids must be below 2**63")
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
    (cfg.seed, index).  Sampling positions in the ascending source ids and
    sorting them is the same draw as sampling the ids themselves.  A cover
    target missing from ``target_in_degree`` raises ``KeyError``.
    """
    if cfg.n > graph.n_sources:
        raise ValueError(f"cannot sample {cfg.n} of {graph.n_sources} set nodes")
    g = graph._arrays
    rng = np.random.default_rng(stable_hash64(cfg.seed, index))
    picked = np.sort(rng.choice(graph.n_sources, size=cfg.n, replace=False))
    kappa = float(rng.uniform(cfg.s, cfg.s * cfg.s))

    starts = g.offsets[picked]
    out_degree = g.offsets[picked + 1] - starts
    bounds = np.zeros(cfg.n + 1, dtype=np.intp)
    np.cumsum(out_degree, out=bounds[1:])
    flat = g.targets[np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], out_degree)]
    touched, vertex = np.unique(flat, return_inverse=True)
    at = np.searchsorted(g.target_ids, touched)
    known = at < len(g.target_ids)
    known[known] = g.target_ids[at[known]] == touched[known]
    if not known.all():
        raise KeyError(int(touched[~known][0]))

    # one int object per vertex, which every cover holding it shares
    vertex, cuts = np.arange(len(touched)).astype(object)[vertex].tolist(), bounds.tolist()
    covers = tuple(tuple(vertex[a:b]) for a, b in zip(cuts, cuts[1:]))
    values = tuple(g.in_degree[at].tolist())
    costs = tuple((kappa * out_degree).tolist())
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

"""Experiment harness: mechanism x rule x instance matrices to CSV.

Every run row records welfare, surplus, payments, winner count, wall time
and oracle-query counts, with the welfare recomputed independently at
report time as a consistency check.  Rows are keyed and sorted so a rerun
with the same config produces the same CSV body; wall-time is the one
column excluded from that determinism contract.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .descending import CostScaledDemand, ExactDemand, _check_step, _start_prices, run_descending, schedule_factory
from .instances import BipartiteGraph, ExperimentConfig, active_fraction, build_instance
from .online import order_factory, order_random, run_posted_price
from .scoring import ONLINE_CAPABLE_RULES, RULE_NAMES, RandomSeed, make_rule
from .selection import run_meta
from .sealed_bid import (
    AuctionOutcome,
    exact_opt,
    run_sealed_bid,
    run_vcg,
)
from .valuation import CoverageInstance, CoverageOracle, stable_hash64, welfare

CSV_SCHEMA = 1

CSV_COLUMNS = (
    "instance_id",
    "n",
    "s",
    "active_fraction",
    "mechanism",
    "rule",
    "welfare",
    "surplus",
    "total_payment",
    "winner_count",
    "wall_time_ms",
    "oracle_queries",
    "seed",
    "skip_reason",
)


@dataclass
class RunRecord:
    instance_id: str
    n: int
    s: float
    active_fraction: float
    mechanism: str
    rule: str
    welfare: float | None
    surplus: float | None
    total_payment: float | None
    winner_count: int | None
    wall_time_ms: float | None
    oracle_queries: int | None
    seed: int
    skip_reason: str = ""

    def key(self):
        return (self.n, self.s, self.instance_id, self.mechanism, self.rule)

    def row(self, include_timing: bool = True) -> list[str]:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return f"{x:.9g}"
            return str(x)

        values = [
            self.instance_id,
            self.n,
            f"{self.s:g}",
            f"{self.active_fraction:.6f}",
            self.mechanism,
            self.rule,
            fmt(self.welfare),
            fmt(self.surplus),
            fmt(self.total_payment),
            fmt(self.winner_count),
            fmt(self.wall_time_ms) if include_timing else "",
            fmt(self.oracle_queries),
            str(self.seed),
            self.skip_reason,
        ]
        return [str(v) for v in values]


@dataclass(frozen=True)
class MechanismSpec:
    """Parsed "name" or "name:rule" mechanism selector."""

    name: str
    rule: str | None = None

    @classmethod
    def parse(cls, text: str) -> "MechanismSpec":
        name, _, rule = text.partition(":")
        spec = cls(name=name, rule=rule or None)
        if spec.name not in ("alloc", "sealed", "posted", "vcg", "opt", "da"):
            raise ValueError(f"unknown mechanism {spec.name!r}")
        if spec.name in ("alloc", "sealed", "posted") and spec.rule not in RULE_NAMES:
            raise ValueError(f"mechanism {text!r} needs a rule name among {RULE_NAMES}")
        if spec.name == "posted" and spec.rule not in ONLINE_CAPABLE_RULES:
            raise ValueError(f"posted-price mechanisms need an online-capable rule, not {spec.rule!r}")
        if spec.name == "da" and spec.rule not in ("exact", "cost-scaled"):
            raise ValueError("da mechanisms take an oracle: da:exact or da:cost-scaled")
        return spec

    def label(self) -> tuple[str, str]:
        return self.name, self.rule or ""


# Allocation-only rows: the welfare comparisons of the experiment matrix do
# not need payments, and the distorted rule has no lazy payment path, so the
# large-n sweeps run the selection loops alone.
DEFAULT_MECHANISMS = (
    "alloc:greedy-margin",
    "alloc:greedy-rate",
    "alloc:cost-scaled",
    "alloc:distorted",
)


def _over_cap(spec: MechanismSpec, n: int, vcg_cap: int) -> bool:
    """Whether the spec needs the exhaustive optimizer and n is past its cap
    (the run is then skipped)."""
    exhaustive = spec.name in ("vcg", "opt") or (spec.name == "da" and spec.rule == "exact")
    return exhaustive and n > vcg_cap


def run_mechanism(
    spec: MechanismSpec,
    instance: CoverageInstance,
    costs: Sequence[float],
    seed: int,
    *,
    vcg_cap: int,
    epsilon: float | None,
    make_order: Callable[..., tuple[int, ...]] | None,
    make_schedule: Callable[[int], object] | None,
) -> tuple[AuctionOutcome | None, int, str]:
    """Run one mechanism on one instance; (outcome, queries, skip_reason).

    ``queries`` counts the mechanism's own oracle queries only, not a ``da:``
    default step's reads or a ``worst-of`` order's search.  ``make_order``
    builds a ``posted:`` run's arrival order (see ``order_factory``; None
    draws a random one from ``seed``) and ``make_schedule`` a ``da:``
    auction's schedule for n sellers (see ``schedule_factory``).
    """
    oracle = CoverageOracle(instance)
    n = oracle.n
    if _over_cap(spec, n, vcg_cap):
        return None, 0, f"exhaustive-optimizer-cap:{vcg_cap}"

    if spec.name == "alloc":
        rule = make_rule(spec.rule, n)
        trace = run_meta(rule, oracle, costs, seed=RandomSeed(seed))
        outcome = AuctionOutcome(trace.winners, (0.0,) * n, value=oracle.value(trace.winners), trace=trace)
    elif spec.name == "vcg":
        outcome = run_vcg(oracle, costs, cap=vcg_cap)
    elif spec.name == "opt":
        winners, _ = exact_opt(oracle, costs, cap=vcg_cap)
        outcome = AuctionOutcome(winners, (0.0,) * n, value=oracle.value(winners))
    elif spec.name == "sealed":
        rule = make_rule(spec.rule, n)
        outcome = run_sealed_bid(rule, oracle, costs, seed=RandomSeed(seed))
    elif spec.name == "posted":
        rule = make_rule(spec.rule, n)
        if make_order is None:
            order = order_random(n, seed)
        else:  # a worst-of search runs on its own oracle: its queries are not the auction's
            order = make_order(n, rule=rule, oracle=CoverageOracle(instance), costs=costs)
        posted = run_posted_price(rule, oracle, costs, order)
        outcome = AuctionOutcome(posted.winners, posted.payments, value=oracle.value(posted.winners))
    else:  # da
        if epsilon is None:
            top = max(_start_prices(oracle), default=1.0)
            epsilon = max(top, 1.0) / 50.0
            oracle.reset_query_count()  # the default step's reads are not the auction's
        if spec.rule == "exact":
            demand = ExactDemand(oracle, cap=vcg_cap)
        else:
            demand = CostScaledDemand(oracle)
        outcome = run_descending(oracle, costs, demand, make_schedule(n), epsilon)
    return outcome, oracle.query_count, ""


def _instance_records(
    graph: BipartiteGraph,
    specs: Sequence[MechanismSpec],
    run: Callable[..., tuple[AuctionOutcome | None, int, str]],
    cell: tuple[ExperimentConfig, int],
    want_traces: bool = False,
) -> tuple[list[RunRecord], list[dict]]:
    """All mechanism rows for one sampled instance; ``run`` is
    ``run_mechanism`` with the experiment's checked settings bound."""
    cfg, index = cell
    n, s = cfg.n, cfg.s
    instance, costs = build_instance(graph, cfg, index)
    check_oracle = CoverageOracle(instance)  # apart from each mechanism's own oracle
    frac = active_fraction(check_oracle, costs)
    instance_id = f"n{n}-s{s:g}-i{index}"
    run_seed = stable_hash64(cfg.seed, n, int(s * 1000), index) % 2**31
    records: list[RunRecord] = []
    traces: list[dict] = []
    for spec in specs:
        t0 = time.perf_counter()
        outcome, queries, skip = run(spec, instance, costs, run_seed)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        mech, rule = spec.label()
        if want_traces and outcome is not None and outcome.trace is not None:
            traces.append(
                {"instance_id": instance_id, "mechanism": mech, "rule": rule,
                 "trace": outcome.trace.to_json()}
            )
        if outcome is None:
            records.append(
                RunRecord(instance_id, n, s, frac, mech, rule, None, None, None, None,
                          elapsed_ms, None, run_seed, skip)
            )
            continue
        achieved = welfare(check_oracle, costs, outcome.winners)
        claimed = outcome.welfare(costs)
        if abs(achieved - claimed) > 1e-9:
            raise AssertionError(
                f"report-time welfare {achieved!r} disagrees with mechanism claim {claimed!r}"
            )
        records.append(
            RunRecord(instance_id, n, s, frac, mech, rule, achieved,
                      outcome.auctioneer_surplus, outcome.total_payment,
                      len(outcome.winners), elapsed_ms, queries, run_seed)
        )
    return records, traces


class ConfigError(ValueError):
    """An experiment setting that fails its check before the first cell."""


def _one_n_only(what: str, spec: str, prefix: str, ns: Sequence[int]) -> None:
    """A ``file:`` arrival order or ``scripted:`` schedule is one permutation,
    so it serves a single n; several n fail here rather than on a length."""
    if spec.startswith(prefix) and len(ns) > 1:
        raise ValueError(f"the {what} {spec!r} is one permutation and cannot serve several n {list(ns)}; "
                         "run one n per experiment")


def experiment_records(
    graph: BipartiteGraph,
    n_values: Sequence[int] = (100,),
    s_values: Sequence[float] = (2.0,),
    instances: int = 10,
    mechanisms: Sequence[str] = DEFAULT_MECHANISMS,
    seed: int = 0,
    *,
    vcg_cap: int = 12,
    epsilon: float | None = None,
    arrival_order: str | None = None,
    da_schedule: str = "lex",
    trace_sink: list | None = None,
    workers: int = 1,
) -> list[RunRecord]:
    """The full mechanism x rule x instance matrix, sorted by record key.

    Per-instance seeds derive from (config seed, n, s, index), and records
    are reduced in key order, so the output is identical across reruns and
    worker counts.

    Every setting is checked once, before the first cell, and a bad one
    raises ``ConfigError``: the mechanism selectors; each (n, s) cell's
    ``ExperimentConfig`` (n >= 1, s finite and >= 1, ``instances`` >= 1)
    with n at most the graph's source count; ``workers`` >= 1; the arrival
    order (a file is read here, once) when a ``posted:`` mechanism runs; and
    ``da_schedule`` (for every n) and ``epsilon`` when a ``da:`` mechanism
    runs below the cap.  A ``file:`` order or ``scripted:`` schedule is one
    permutation, so with several n it fails with that cause.  The cells and
    pool workers all read the one plan built from the checked settings.
    """
    try:
        specs = [MechanismSpec.parse(m) for m in mechanisms]
        configs = [ExperimentConfig(n=int(n), s=float(s), instances=int(instances), seed=seed)
                   for n in n_values for s in s_values]
        if not specs or not configs:
            raise ValueError("an experiment needs at least one mechanism, n and s")
        ns = sorted({cfg.n for cfg in configs})
        if ns[-1] > graph.n_sources:
            raise ValueError(f"cannot sample {ns[-1]} of {graph.n_sources} set nodes")
        vcg_cap, workers = int(vcg_cap), int(workers)
        if workers < 1:
            raise ValueError(f"worker count must be at least 1, got {workers}")
        make_order = make_schedule = None
        if arrival_order is not None and any(s.name == "posted" for s in specs):
            _one_n_only("arrival order", arrival_order, "file:", ns)
            make_order = order_factory(arrival_order)
            if not arrival_order.startswith("worst-of:"):  # a search needs an instance; it yields a permutation
                for n in ns:
                    make_order(n)
        da_ns = [n for n in ns if any(s.name == "da" and not _over_cap(s, n, vcg_cap) for s in specs)]
        if da_ns:
            if epsilon is not None:
                epsilon = float(epsilon)
                _check_step(epsilon)
            _one_n_only("schedule", da_schedule, "scripted:", da_ns)
            make_schedule = schedule_factory(da_schedule)
            for n in da_ns:
                make_schedule(n)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    run = partial(run_mechanism, vcg_cap=vcg_cap, epsilon=epsilon, make_order=make_order, make_schedule=make_schedule)
    plan = partial(_instance_records, graph, specs, run, want_traces=trace_sink is not None)
    cells = [(cfg, index) for cfg in configs for index in range(cfg.instances)]
    if workers > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(cells) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(plan, cells, chunksize=chunk))
    else:
        results = map(plan, cells)
    records: list[RunRecord] = []
    for recs, traces in results:  # in cell order, on either path
        records.extend(recs)
        if trace_sink is not None:
            trace_sink.extend(traces)
    records.sort(key=RunRecord.key)
    return records


def write_csv(records: Sequence[RunRecord], path_or_buf, include_timing: bool = True) -> None:
    close = False
    if isinstance(path_or_buf, (str,)):
        buf = open(path_or_buf, "w", newline="")
        close = True
    else:
        buf = path_or_buf
    try:
        buf.write(f"# schema={CSV_SCHEMA}\n")
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.row(include_timing=include_timing))
    finally:
        if close:
            buf.close()


#: Width of an active-fraction bucket in ``bucket_summary``.
BUCKET_WIDTH = 0.1


def bucket_summary(records: Sequence[RunRecord]) -> list[dict]:
    """Mean welfare grouped by (n, mechanism, rule, active-fraction bucket)."""
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        if rec.welfare is None:
            continue
        bucket = min(int(rec.active_fraction / BUCKET_WIDTH), int(1.0 / BUCKET_WIDTH) - 1)
        groups.setdefault((rec.n, rec.mechanism, rec.rule, bucket), []).append(rec.welfare)
    rows = []
    for (n, mech, rule, bucket), welfares in sorted(groups.items()):
        rows.append(
            {
                "n": n,
                "mechanism": mech,
                "rule": rule,
                "bucket_lo": round(bucket * BUCKET_WIDTH, 3),
                "bucket_hi": round((bucket + 1) * BUCKET_WIDTH, 3),
                "count": len(welfares),
                "mean_welfare": float(np.mean(welfares)),
            }
        )
    return rows

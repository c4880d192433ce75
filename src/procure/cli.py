"""Command-line front end.

Subcommands: experiment, verify, lowerbound, gen-instance, fetch-dataset.
Exit codes: 0 success, 1 property failure, 2 usage error.  Timing and
query counts are measured by the benchmark, ``python3 perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, verification
from .instances import ExperimentConfig, build_instance, parse_edge_list, random_instance, synthetic_bipartite_graph
from .valuation import SEED_RANGE

WIKI_VOTE_URL = "https://snap.stanford.edu/data/wiki-Vote.txt.gz"


def _load_graph(dataset: str, seed: int):
    if dataset == "synthetic":
        return synthetic_bipartite_graph(seed=seed)
    path = Path(dataset)
    if not path.exists():
        print(f"dataset file not found: {path}", file=sys.stderr)
        raise SystemExit(2)
    with open(path) as fh:
        return parse_edge_list(fh)


# Config key -> ``experiment_records`` keyword; every default lives in the
# harness.  "dataset", "output" and "seed" (which also seeds a synthetic
# graph) are read here.
EXPERIMENT_KEYS = {
    "n": "n_values", "s": "s_values", "instances": "instances", "mechanisms": "mechanisms",
    "vcg_cap": "vcg_cap", "epsilon": "epsilon", "arrival_order": "arrival_order",
    "da_schedule": "da_schedule", "workers": "workers",
}


def _cmd_experiment(args) -> int:
    config = {}
    if args.config:
        config = json.loads(Path(args.config).read_text())
    dataset = args.dataset or config.get("dataset", "synthetic")
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    output = args.output or config.get("output", "experiment.csv")
    settings = {EXPERIMENT_KEYS[key]: value for key, value in config.items() if key in EXPERIMENT_KEYS}
    if args.workers is not None:
        settings["workers"] = args.workers
    trace_sink: list | None = [] if args.trace else None
    try:
        unknown = sorted(set(config) - set(EXPERIMENT_KEYS) - {"dataset", "output", "seed"})
        if unknown:
            raise harness.ConfigError(f"unknown config keys {unknown}")
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < SEED_RANGE.stop:
            raise harness.ConfigError(f"seed must be an integer in [0, 2**63), got {seed!r}")
        records = harness.experiment_records(_load_graph(dataset, seed), seed=seed, trace_sink=trace_sink, **settings)
    except harness.ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    harness.write_csv(records, output, include_timing=not args.no_timing)
    print(f"wrote {len(records)} records to {output}")
    if trace_sink is not None:
        trace_path = f"{output}.traces.jsonl"
        with open(trace_path, "w") as fh:
            for entry in trace_sink:
                fh.write(json.dumps(entry) + "\n")
        print(f"wrote {len(trace_sink)} selection traces to {trace_path}")
    for row in harness.bucket_summary(records):
        print(
            f"n={row['n']} {row['mechanism']}:{row['rule']} active [{row['bucket_lo']}, {row['bucket_hi']}) "
            f"mean welfare {row['mean_welfare']:.4g} over {row['count']}"
        )
    return 0


def _cmd_verify(args) -> int:
    report = verification.run_suite(args.suite, trials=args.trials, seed=args.seed)
    print(json.dumps(report.to_json(), indent=2, default=str))
    return 0 if report.passed else 1


def _cmd_lowerbound(args) -> int:
    try:
        reports = [verification.lowerbound_report(L, args.epsilon) for L in args.L]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    for res in reports:
        print(json.dumps(res))
    return 1 if any(verification.lowerbound_failures(res) for res in reports) else 0


def _int_at_least(low: int, below: int | None = None):
    """An argparse type: an integer no smaller than ``low`` (and smaller than
    ``below``, if given), else a usage error (exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its message for a non-integer
    return parse


#: numpy refuses negative seeds, and ``stable_hash64`` packs seeds as signed 64-bit ints.
_seed = _int_at_least(0, SEED_RANGE.stop)


def _cmd_gen_instance(args) -> int:
    if args.random is None and not args.graph:
        print("gen-instance needs --random N or --graph FILE with --n and --s", file=sys.stderr)
        return 2
    try:
        if args.random is not None:
            instance, costs = random_instance(args.random, args.seed)
        else:
            graph = _load_graph(args.graph, args.seed)
            cfg = ExperimentConfig(n=args.n, s=args.s, instances=1, seed=args.seed)
            instance, costs = build_instance(graph, cfg, args.index)
    except ValueError as exc:  # a setting the generator rejects
        print(exc, file=sys.stderr)
        return 2
    doc = {"instance": instance.to_json(), "costs": list(costs)}
    text = json.dumps(doc, indent=2)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote instance to {args.output}")
    else:
        print(text)
    return 0


def _cmd_fetch_dataset(args) -> int:
    import gzip
    import urllib.request

    target = Path(args.output)
    print(f"fetching {args.url} -> {target}")
    with urllib.request.urlopen(args.url) as resp:
        payload = resp.read()
    if args.url.endswith(".gz"):
        payload = gzip.decompress(payload)
    target.write_bytes(payload)
    print(f"wrote {len(payload)} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="procure", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment", help="run a mechanism x rule x instance matrix to CSV")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--dataset", help="SNAP edge list path or 'synthetic'")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--output", help="CSV output path")
    p.add_argument("--no-timing", action="store_true", help="blank the wall-time column for byte-stable output")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--workers", type=int, default=None, help="parallel instance workers (output is identical)")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=sorted(verification.SUITES))
    p.add_argument("--trials", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=_seed, default=7)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("lowerbound", help="adversarial family under both demand oracles, one JSON line per L")
    p.add_argument("L", type=int, nargs="+")
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(fn=_cmd_lowerbound)

    p = sub.add_parser("gen-instance", help="emit an instance JSON with costs")
    p.add_argument("--random", type=int, default=None, help="random instance with N sets")
    p.add_argument("--graph", help="SNAP edge list to sample from")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_gen_instance)

    p = sub.add_parser("fetch-dataset", help="download an edge list (network access required)")
    p.add_argument("--url", default=WIKI_VOTE_URL)
    p.add_argument("--output", default="wiki-Vote.txt")
    p.set_defaults(fn=_cmd_fetch_dataset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

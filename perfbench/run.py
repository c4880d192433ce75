#!/usr/bin/env python3
"""Layered benchmark of procure: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload alloc-sweep --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Run from anywhere; it imports procure from the ``src`` directory next to
this one.  Set-up (import, graph and instance generation) is repeated and
timed; then the workload's job cycle runs back to back, one job at a time,
and runs again while another whole cycle fits in ``--seconds`` calibrated
seconds (see calibration.py).  Every output is checked after the timed
phase.  With ``--trace 1`` one untraced cycle is followed by one
traced cycle, and the per-layer metrics are printed instead.  The last
line of standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".perfbench-out"

HELD_OUT_SEED = 90917  # confirms a claimed gain; never used while tuning a change
SETUP_REPEATS = 5
TAIL_BEYOND = 10
MODULES = ("valuation", "scoring", "selection", "sealed_bid", "online", "descending",
           "instances", "harness", "verification")
TIMED_LAYERS = ("harness", "selection", "sealed_bid", "online", "descending", "verification")

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_procure() -> SimpleNamespace:
    """Import procure afresh from ``src`` (drops any earlier import)."""
    for name in [m for m in sys.modules if m == "procure" or m.startswith("procure.")]:
        del sys.modules[name]
    package = importlib.import_module("procure")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"procure was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"procure.{m}") for m in MODULES})


def set_up(workload: str, seed: int):
    """Repeated set-up; returns the last one's jobs and median calibrated times."""
    totals, builds, raw = [], [], []
    before = calibration.probe()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        P = import_procure()
        jobs, build_s = WORKLOADS[workload](P, seed)
        elapsed = time.perf_counter() - start
        after = calibration.probe()
        totals.append(calibration.scaled(elapsed, before, after))
        builds.append(calibration.scaled(build_s, before, after))
        raw.append(elapsed)
        before = after
    return P, jobs, statistics.median(totals), statistics.median(builds), statistics.median(raw)


# ---------------------------------------------------------------------------
# Timed phase and checks
# ---------------------------------------------------------------------------


class Ledger:
    """Every run's digest or error; the first summary of each job."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.runs: list[tuple[int, str | None, str | None]] = []
        self.first: dict[int, tuple[str, object]] = {}

    def record(self, index: int, raw, exc: Exception | None) -> None:
        digest = None
        error = "".join(traceback.format_exception(exc)) if exc is not None else None
        if error is None:
            try:
                summary = self.jobs[index].summarize(raw)
                digest = summary.digest()
                self.first.setdefault(index, (digest, summary))
            except Exception:
                error = traceback.format_exc()
        self.runs.append((index, digest, error))


def run_cycles(jobs, ledger: Ledger, seconds: float, call=None,
               max_cycles: int | None = None) -> tuple[list[float], list[float]]:
    """Whole cycles over the jobs, one at a time.

    Returns each run's wall seconds and the calibration probe times taken
    before the first run and after every run.  Another cycle starts only if
    it fits, in calibrated time, within ``seconds``, so the cycle count does
    not follow the host's speed.
    """
    clock = time.perf_counter
    durations, probes = [], [calibration.probe()]
    cycles, elapsed = 0, 0.0
    while True:
        first = len(durations)
        for index, job in enumerate(jobs):
            t0 = clock()
            try:
                raw, error = (job.run() if call is None else call(job.run)), None
            except Exception as exc:
                raw, error = None, exc
            durations.append(clock() - t0)
            probes.append(calibration.probe())
            ledger.record(index, raw, error)
        cycles += 1
        cycle = math.fsum(calibration.scale_all(durations[first:], probes[first:]))
        elapsed += cycle
        if max_cycles is not None and cycles >= max_cycles:
            break
        if elapsed + cycle > seconds:
            break
    return durations, probes


def judge(ledger: Ledger, reference: list[str] | None) -> tuple[int, list[str]]:
    """Check each job's first output once, then hold every run to it."""
    jobs = ledger.jobs
    summaries = {jobs[i].key: s for i, (_, s) in ledger.first.items()}
    problems: dict[int, list[str]] = {}
    for i, (digest, summary) in ledger.first.items():
        try:
            found = jobs[i].check(summary, summaries)
        except Exception:
            found = [traceback.format_exc()]
        if reference is not None and reference[i] != digest:
            found.append(f"digest {digest} differs from the recorded {reference[i]}")
        problems[i] = found
    failed, messages = 0, []
    for index, digest, error in ledger.runs:
        if error is not None:
            why = error.strip().splitlines()[-1]
        elif digest != ledger.first[index][0]:
            why = f"output digest {digest} differs from this job's first run ({ledger.first[index][0]})"
        elif problems[index]:
            why = "; ".join(p.strip().splitlines()[-1] for p in problems[index])
        else:
            continue
        failed += 1
        messages.append(f"{jobs[index].key}: {why}")
    return failed, messages


# ---------------------------------------------------------------------------
# Reference digests
# ---------------------------------------------------------------------------


def interpreter_key() -> dict:
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": ".".join(numpy.__version__.split(".")[:2])}


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {"interpreter": interpreter_key(), "digests": {}}


def reference_for(workload: str, seed: int, n_jobs: int) -> tuple[list[str] | None, str]:
    """The recorded per-job digests for this seed, and why there are none."""
    ref = load_reference()
    if ref["interpreter"] != interpreter_key():
        return None, f"incomparable: recorded under {ref['interpreter']}"
    packed = ref["digests"].get(workload, {}).get(str(seed))
    if packed is None:
        return None, "unrecorded seed"
    digests = [packed[i:i + 8] for i in range(0, len(packed), 8)]
    if len(digests) != n_jobs:
        return None, f"stale: {len(digests)} recorded jobs, {n_jobs} in the cycle"
    return digests, "compared"


def record_reference(workload: str, seed: int, digests: list[str]) -> None:
    ref = load_reference()
    if ref["interpreter"] != interpreter_key():
        raise SystemExit(f"reference was recorded under {ref['interpreter']}; not mixing interpreters")
    ref["digests"].setdefault(workload, {})[str(seed)] = "".join(digests)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Environment and metrics
# ---------------------------------------------------------------------------


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(durations, probes, setup_s, attempted, failed) -> tuple[dict, dict]:
    runs = calibration.scale_all(durations, probes)
    tail_s, tail_pct = tail(runs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (len(runs) / math.fsum(runs), "1/s"),
        "run_ms.p50": (statistics.median(runs) * 1e3, "ms"),
        "run_ms.tail": (tail_s * 1e3, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw_tail, _ = tail(durations)
    notes = {
        "tail_percentile": tail_pct, "timed_runs": len(runs), "failed_frac": failed / attempted,
        "uncalibrated": {"runs_per_s": len(durations) / math.fsum(durations),
                         "run_ms.p50": statistics.median(durations) * 1e3, "run_ms.tail": raw_tail * 1e3},
        "probe_ms": {"median": statistics.median(probes) * 1e3, "min": min(probes) * 1e3,
                     "max": max(probes) * 1e3},
    }
    return metrics, notes


def per_layer(tracer: Tracer, build_s: float, untraced, traced) -> tuple[dict, dict]:
    """Per-layer counts for one cycle; times scaled by the traced phase's speed."""
    c = tracer.counts
    v = tracer.valuation_totals()
    queries = c["valuation.program_queries"]
    if c["valuation.uncounted_oracles"]:
        queries = v["scratch_calls"] + v["oracle_calls"]
    speed = calibration.phase_factor(traced[1])
    untraced_s = math.fsum(calibration.scale_all(*untraced))
    traced_s = math.fsum(calibration.scale_all(*traced))
    valuation_s = v["self_s"] * speed
    paid = c["sealed_bid.paid_winners"]
    metrics = {
        "instances.build_s": (build_s, "s"),
        "valuation.oracle_build_s": (tracer.oracle_build_s * speed, "s"),
        "valuation.queries": (queries, "count"),
        "valuation.scratch_calls": (v["scratch_calls"], "count"),
        "valuation.oracle_calls": (v["oracle_calls"], "count"),
        "valuation.self_s": (valuation_s, "s"),
        "valuation.us_per_query": (valuation_s / queries * 1e6 if queries else 0.0, "us"),
        "scoring.online_price_calls": (c["scoring.online_price"], "count"),
        "scoring.online_price_s": (tracer.inclusive_s["scoring.online_price"] * speed, "s"),
        "selection.calls": (c["selection.calls"], "count"),
        "selection.excluded_calls": (c["selection.excluded_calls"], "count"),
        "sealed_bid.queries_per_winner": (v["payment_calls"] / paid if paid else 0.0, "query/winner"),
        "online.arrivals": (c["online.arrivals"], "count"),
        "descending.iterations": (c["descending.schedule"], "count"),
        "descending.demand_calls": (c["descending.demand"], "count"),
        "descending.demand_s": (tracer.inclusive_s["descending.demand"] * speed, "s"),
        "verification.mechanism_runs": (c["verification.mechanism_runs"], "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
    }
    layers = {layer: t * speed for layer, t in tracer.self_s.items()}
    layers["valuation"] = valuation_s
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    layers = {k: t for k, t in layers.items() if t > 0}
    top = max(layers, key=layers.get)
    notes = {
        "largest_self_layer": top,
        "largest_self_share": layers[top] / math.fsum(layers.values()),
        "self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "untraced_cycle_s": untraced_s,
        "traced_cycle_s": traced_s,
        "traced_speed_factor": speed,
        "wrap_overhead_s": tracer.wrap_s * speed,
        "payment_valuation_calls": v["payment_calls"],
        "paid_winners": paid,
        "counts": dict(sorted(c.items())),
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    if not (SRC / "procure" / "__init__.py").is_file():
        print(f"error: no procure sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    P, jobs, setup_s, build_s, raw_setup_s = set_up(args.workload, args.seed)
    ledger = Ledger(jobs)
    # Keep the collector from walking the benchmark's own inputs in timed runs.
    gc.collect()
    gc.freeze()

    if args.trace:
        untraced = run_cycles(jobs, ledger, 0.0, max_cycles=1)
        tracer = Tracer()
        missing = tracer.install()
        try:
            traced = run_cycles(jobs, ledger, 0.0, call=tracer.root, max_cycles=1)
        finally:
            tracer.uninstall()
    else:
        timed = run_cycles(jobs, ledger, float(args.seconds))

    reference, reference_status = reference_for(args.workload, args.seed, len(jobs))
    if args.record_reference:
        reference, reference_status = None, "recording"
    failed, messages = judge(ledger, reference)
    attempted = len(ledger.runs)
    if args.record_reference and not failed:
        record_reference(args.workload, args.seed, [ledger.first[i][0] for i in range(len(jobs))])

    if args.trace:
        metrics, notes = per_layer(tracer, build_s, untraced, traced)
        notes["untraced_missing"] = missing
    else:
        metrics, notes = end_to_end(*timed, setup_s, attempted, failed)
        notes["uncalibrated"]["setup_s"] = raw_setup_s
    details = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "jobs_per_cycle": len(jobs), "attempted": attempted, "failed": failed,
        "reference": reference_status, "setup_s": setup_s, **notes,
        "environment": environment(),
        "failures": messages[:20],
    }
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"details": details, "metrics": metrics, "spans": tracer.span_table()}))
        details["trace_file"] = str(out.relative_to(ROOT))

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {attempted}  failed {failed}  reference {reference_status}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    if args.trace:
        print(f"  largest self-time layer: {notes['largest_self_layer']} "
              f"({notes['largest_self_share']:.0%} of traced time)")
    else:
        print(f"  run_ms.tail is p{notes['tail_percentile']:.1f} of {notes['timed_runs']} runs")
    for message in messages[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record_reference:
            cmd.append("--record-reference")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's output digests as the reference (only when every check passes)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

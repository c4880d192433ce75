import hashlib
import json
import platform
import subprocess
import sys

import numpy as np
import pytest

from procure import verification
from procure.cli import main
from procure.descending import (
    AdversarialFamilySchedule,
    CostScaledDemand,
    ExactDemand,
    LexicographicSchedule,
    RoundRobinSchedule,
    ScriptedSchedule,
    run_descending,
    schedule_factory,
)
from procure.harness import CSV_COLUMNS, DEFAULT_MECHANISMS, MechanismSpec, experiment_records
from procure.instances import ExperimentConfig, build_instance, random_instance, synthetic_bipartite_graph
from procure.online import order_factory, run_posted_price, worst_sampled_order
from procure.scoring import make_rule
from procure.selection import ARRAY_ROUND_MIN
from procure.valuation import CoverageOracle


def run_cli(args):
    return main(args)


class TestExperiment:
    def _config(self, tmp_path, output):
        config = {
            "dataset": "synthetic",
            "n": [20],
            "s": [1, 2],
            "instances": 4,
            "seed": 11,
            "mechanisms": ["alloc:greedy-margin", "alloc:cost-scaled", "vcg", "sealed:greedy-margin"],
            "vcg_cap": 12,
            "output": str(output),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_record_cardinality_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = self._config(tmp_path, out1)
        assert run_cli(["experiment", "--config", str(cfg), "--no-timing"]) == 0
        assert run_cli(["experiment", "--config", str(cfg), "--no-timing", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = [l for l in out1.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) - 1 == 2 * 4 * 4  # (s values) x instances x mechanisms

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        """It used to reach numpy and exit 1 with a traceback."""
        out = tmp_path / "neg.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(["experiment", "--config", str(self._config(tmp_path, out)), "--seed", "-1"])
        assert err.value.code == 2
        assert "at least 0" in capsys.readouterr().err and not out.exists()

    def test_seed_past_int64_is_usage_error(self, tmp_path, capsys):
        """A config seed of 2**63 used to exit 1 with a struct.error at the first cell."""
        out = tmp_path / "big.csv"
        config = {"dataset": "synthetic", "n": [4], "s": [1], "instances": 1, "seed": 2**63,
                  "mechanisms": ["alloc:distorted"], "output": str(out)}
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(["experiment", "--config", str(cfg)]) == 2
        assert "2**63" in capsys.readouterr().err and not out.exists()
        with pytest.raises(SystemExit) as err:
            run_cli(["experiment", "--config", str(cfg), "--seed", str(2**63)])
        assert err.value.code == 2 and not out.exists()

    def test_vcg_skipped_beyond_cap(self, tmp_path):
        out = tmp_path / "skip.csv"
        config = {
            "dataset": "synthetic", "n": [30], "s": [1], "instances": 2,
            "seed": 3, "mechanisms": ["vcg"], "vcg_cap": 12, "output": str(out),
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(["experiment", "--config", str(cfg)]) == 0
        text = out.read_text()
        assert "exhaustive-optimizer-cap:12" in text

    def test_no_timing_gives_byte_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = self._config(tmp_path, out1)
        run_cli(["experiment", "--config", str(cfg), "--no-timing"])
        run_cli(["experiment", "--config", str(cfg), "--no-timing", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_the_body(self, tmp_path):
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        cfg = self._config(tmp_path, out1)
        run_cli(["experiment", "--config", str(cfg), "--no-timing", "--trace", "--workers", "1"])
        run_cli(["experiment", "--config", str(cfg), "--no-timing", "--trace", "--workers", "2", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        traces1 = (tmp_path / "w1.csv.traces.jsonl").read_bytes()
        assert traces1 and traces1 == (tmp_path / "w2.csv.traces.jsonl").read_bytes()


    #: sha256 of the ``--no-timing`` CSV and of the ``--trace`` JSONL of the
    #: default mechanisms at n = 12, 40, 120, s = 1, 2, 2 instances, seed 4,
    #: recorded under Python 3.11 with numpy 2.4 before the coverage arrays
    #: moved onto the instance and the trace document was built in one pass.
    PINNED_INTERPRETER = ("3.11", "2.4")
    PINNED_CSV = "f6d7102ff194aedfb41b822c6247e9d5f166b0b03d955be3f148d50e5b5d4cb7"
    PINNED_TRACES = "2bc1983ec7f31e8a08d09ab612136aeecf201c6893457e600a373c4452a18da8"

    def test_default_mechanisms_keep_their_pinned_bytes(self, tmp_path):
        """The graph and the samples come from numpy's generators, whose
        streams a numpy release may change, so the digests are compared
        under the interpreter that recorded them, as perfbench's are."""
        interpreter = (".".join(platform.python_version_tuple()[:2]), ".".join(np.__version__.split(".")[:2]))
        if interpreter != self.PINNED_INTERPRETER:
            pytest.skip(f"digests recorded under {self.PINNED_INTERPRETER}, running {interpreter}")
        out = tmp_path / "pinned.csv"
        cfg = tmp_path / "pinned.json"
        cfg.write_text(json.dumps({"dataset": "synthetic", "n": [12, 40, 120], "s": [1, 2], "instances": 2, "seed": 4}))
        assert run_cli(["experiment", "--config", str(cfg), "--no-timing", "--trace", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_CSV
        traces = tmp_path / "pinned.csv.traces.jsonl"
        assert hashlib.sha256(traces.read_bytes()).hexdigest() == self.PINNED_TRACES


class TestVerify:
    def test_pass_exit_code(self, capsys):
        assert run_cli(["verify", "nas", "--trials", "5", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    @pytest.mark.parametrize("name", sorted(verification.SUITES))
    def test_every_suite_runs_and_passes(self, name):
        report = verification.run_suite(name, 2, 7)
        assert report.passed and report.checks >= 1, report.failures[:5]

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "bogus", "--trials", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("suite", ["lazy-equivalence", "guarantees", "online-equivalence", "descending"])
    def test_negative_seed_is_usage_error(self, capsys, suite):
        """These suites used to reach numpy and exit 1 with a traceback."""
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", suite, "--trials", "1", "--seed", "-1"])
        assert err.value.code == 2
        assert "at least 0" in capsys.readouterr().err

    def test_seed_past_int64_is_usage_error(self, capsys):
        """It used to exit 1 with a struct.error from the seed's hash."""
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "ic", "--trials", "1", "--seed", str(2**63)])
        assert err.value.code == 2
        assert "must be below" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_usage_error(self, capsys, trials):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "nas", "--trials", trials])
        assert err.value.code == 2
        assert "at least 1" in capsys.readouterr().err


class TestLowerbound:
    def test_report(self, capsys):
        assert run_cli(["lowerbound", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["opt_welfare"] == 9.0
        assert doc["exact_oracle_welfare"] <= 2.0
        assert doc["cost_scaled_welfare"] >= 4.0

    def test_one_line_per_family_size(self, capsys, monkeypatch):
        assert run_cli(["lowerbound", "10", "12"]) == 0
        assert [json.loads(line)["L"] for line in capsys.readouterr().out.splitlines()] == [10, 12]
        monkeypatch.setattr(verification, "lowerbound_failures", lambda res: ["missed"] if res["L"] == 12 else [])
        assert run_cli(["lowerbound", "10", "12"]) == 1
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_epsilon_precondition_usage_error(self, capsys):
        assert run_cli(["lowerbound", "10", "--epsilon", "0.5"]) == 2

    @pytest.mark.parametrize("L", ["1", "0", "-3"])
    def test_family_size_below_two_usage_error(self, capsys, L):
        assert run_cli(["lowerbound", L]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "L must be at least 2" and captured.out == ""

    @pytest.mark.parametrize("L", [1, 0, -3])
    def test_report_rejects_family_size_below_two(self, L):
        with pytest.raises(ValueError, match="L must be at least 2"):
            verification.lowerbound_report(L, 0.01)


class TestGenInstance:
    def test_random_instance_json(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert run_cli(["gen-instance", "--random", "5", "--seed", "3", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["instance"]["n_sets"] == 5
        assert len(doc["costs"]) == 5

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["gen-instance", "--random", "5", "--seed", "-1"])
        assert err.value.code == 2
        assert "at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("source", [["--random", "5"], ["--graph", "unread.txt"]])
    def test_seed_past_int64_is_usage_error(self, capsys, source):
        with pytest.raises(SystemExit) as err:
            run_cli(["gen-instance", *source, "--seed", str(2**63)])
        assert err.value.code == 2
        assert "must be below" in capsys.readouterr().err

    def test_graph_sampling(self, tmp_path):
        edges = tmp_path / "toy.txt"
        edges.write_text("# toy\n0 9\n1 9\n2 8\n")
        out = tmp_path / "inst.json"
        code = run_cli([
            "gen-instance", "--graph", str(edges), "--n", "2", "--s", "2", "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["instance"]["n_sets"] == 2


    @pytest.mark.parametrize(
        "args, message",
        [
            (["--random", "0"], "need at least one set"),
            (["--graph", "GRAPH", "--n", "0"], "sample size must be at least 1"),
            (["--graph", "GRAPH", "--s", "0.5"], "cost-scale base must be at least 1"),
            (["--graph", "GRAPH", "--n", "100000"], "cannot sample 100000 of 3 set nodes"),
            (["--graph", "GRAPH", "--n", "2", "--index", str(2**63)],
             f"instance index must be in [0, 2**63), got {2**63}"),
            (["--graph", "GRAPH", "--n", "2", "--index", "-1"], "instance index must be in [0, 2**63), got -1"),
        ],
    )
    def test_bad_setting_is_usage_error(self, tmp_path, capsys, args, message):
        """A setting the generator rejects prints its message and exits 2, with no traceback."""
        edges = tmp_path / "toy.txt"
        edges.write_text("0 9\n1 9\n2 8\n")
        out = tmp_path / "inst.json"
        args = [str(edges) if a == "GRAPH" else a for a in args]
        assert run_cli(["gen-instance", *args, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message and captured.out == ""
        assert not out.exists()


class TestOrderAndScheduleSelectors:
    def test_named_orders(self, tmp_path):
        assert order_factory("identity")(3) == (0, 1, 2)
        assert order_factory("reverse")(3) == (2, 1, 0)
        assert sorted(order_factory("random:5")(6)) == list(range(6))
        perm = tmp_path / "order.txt"
        perm.write_text("2\n0\n1\n")
        assert order_factory(f"file:{perm}")(3) == (2, 0, 1)
        with pytest.raises(ValueError):
            order_factory("sideways")

    @pytest.mark.parametrize("spec", ["worst-of:0", "worst-of:-3"])
    def test_worst_of_needs_a_sample(self, spec):
        instance, costs = random_instance(6, 1)
        rule, oracle = make_rule("cost-scaled", 6), CoverageOracle(instance)
        with pytest.raises(ValueError, match="at least one sample"):
            order_factory(spec)
        with pytest.raises(ValueError, match="at least one sample"):
            worst_sampled_order(rule, oracle, costs, samples=int(spec.split(":")[1]), seed=0)

    @pytest.mark.parametrize("order", ["worst-of:x", "worst-of:0", "sideways", "file:{missing}", "file:{short}"])
    def test_experiment_rejects_bad_arrival_order_before_running(self, tmp_path, monkeypatch, capsys, order):
        from procure import harness

        short = tmp_path / "short.txt"
        short.write_text("0\n1\n")
        order = order.format(missing=tmp_path / "missing.txt", short=short)

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the configuration was checked")

        monkeypatch.setattr(harness, "_instance_records", no_cell)
        config = self._da_config(tmp_path, mechanisms=["alloc:distorted", "posted:cost-scaled"], arrival_order=order)
        assert run_cli(["experiment", "--config", str(config)]) == 2
        assert capsys.readouterr().err.strip()
        assert not (tmp_path / "da.csv").exists()

    @pytest.mark.parametrize("setting, mechanism", [
        ("arrival_order", "posted:cost-scaled"),
        ("da_schedule", "da:cost-scaled"),
    ])
    def test_one_permutation_file_with_several_n_names_the_cause(self, tmp_path, monkeypatch, capsys, setting, mechanism):
        from procure import harness

        perm = tmp_path / "perm.txt"
        perm.write_text("\n".join(str(i) for i in (5, 3, 1, 0, 2, 4)) + "\n")
        prefix = "file:" if setting == "arrival_order" else "scripted:"

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the configuration was checked")

        monkeypatch.setattr(harness, "_instance_records", no_cell)
        config = self._da_config(tmp_path, n=[6, 8], mechanisms=[mechanism], **{setting: f"{prefix}{perm}"})
        assert run_cli(["experiment", "--config", str(config)]) == 2
        message = capsys.readouterr().err
        assert "one permutation" in message and "several n [6, 8]" in message
        assert "must be a permutation" not in message and "is not a permutation" not in message
        assert not (tmp_path / "da.csv").exists()

    def test_experiment_checks_the_arrival_order_only_when_a_posted_run_uses_it(self, tmp_path):
        config = self._da_config(tmp_path, mechanisms=["alloc:greedy-margin"], arrival_order="worst-of:0")
        assert run_cli(["experiment", "--config", str(config)]) == 0

    def test_named_schedules(self, tmp_path):
        assert isinstance(schedule_factory("lex")(4), LexicographicSchedule)
        assert isinstance(schedule_factory("rr")(4), RoundRobinSchedule)
        assert isinstance(schedule_factory("adversarial-family")(5), AdversarialFamilySchedule)
        script = tmp_path / "sched.txt"
        script.write_text("1\n0\n")
        assert isinstance(schedule_factory(f"scripted:{script}")(2), ScriptedSchedule)
        with pytest.raises(ValueError):
            schedule_factory("chaotic")(4)

    @pytest.mark.parametrize("lines", ["0\n7\n", "0\n1\n", "0\n1\n1\n", "2\n1\n0\n3\n", ""])
    def test_scripted_schedule_must_be_a_permutation(self, tmp_path, lines):
        script = tmp_path / "sched.txt"
        script.write_text(lines)
        with pytest.raises(ValueError, match="permutation"):
            schedule_factory(f"scripted:{script}")(3)

    def _da_config(self, tmp_path, **overrides):
        config = {
            "dataset": "synthetic", "n": [6, 8], "s": [2], "instances": 2, "seed": 5,
            "mechanisms": ["da:cost-scaled"], "output": str(tmp_path / "da.csv"),
        }
        config.update(overrides)
        path = tmp_path / "da.json"
        path.write_text(json.dumps(config))
        return path

    @pytest.mark.parametrize("bad", [
        {"da_schedule": "chaotic"},
        {"da_schedule": "scripted:{script}"},
        {"epsilon": 0.0},
        {"epsilon": float("inf")},
    ])
    def test_experiment_rejects_bad_schedule_or_step_before_running(self, tmp_path, monkeypatch, capsys, bad):
        from procure import harness

        script = tmp_path / "sched.txt"
        script.write_text("0\n7\n")
        bad = {k: v.format(script=script) if isinstance(v, str) else v for k, v in bad.items()}

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the configuration was checked")

        monkeypatch.setattr(harness, "_instance_records", no_cell)
        assert run_cli(["experiment", "--config", str(self._da_config(tmp_path, **bad))]) == 2
        message = capsys.readouterr().err
        assert "schedule" in message or "step size" in message
        assert not (tmp_path / "da.csv").exists()

    @pytest.mark.parametrize("error", [ValueError("cell failed"), OSError("cell failed")])
    def test_error_inside_a_cell_still_raises(self, tmp_path, monkeypatch, error):
        from procure import harness

        def failing_run(*args, **kwargs):
            raise error

        monkeypatch.setattr(harness, "run_mechanism", failing_run)
        with pytest.raises(type(error), match="cell failed"):
            run_cli(["experiment", "--config", str(self._da_config(tmp_path))])
        assert not (tmp_path / "da.csv").exists()

    def test_experiment_checks_da_settings_only_when_a_clock_runs(self, tmp_path):
        config = self._da_config(tmp_path, mechanisms=["posted:cost-scaled"], da_schedule="chaotic", epsilon=0.0)
        assert run_cli(["experiment", "--config", str(config)]) == 0

    def test_scripted_file_is_read_once(self, tmp_path, monkeypatch):
        from procure import descending

        script = tmp_path / "sched.txt"
        script.write_text("\n".join(str(i) for i in (5, 3, 1, 0, 2, 4)) + "\n")
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(descending, "open", counting_open, raising=False)
        config = self._da_config(
            tmp_path, n=[6], instances=3, da_schedule=f"scripted:{script}",
            mechanisms=["da:cost-scaled", "da:exact"],
        )
        assert run_cli(["experiment", "--config", str(config), "--no-timing"]) == 0
        assert opened == [str(script)]

    def test_order_file_is_read_once(self, tmp_path, monkeypatch):
        from procure import online

        order = tmp_path / "order.txt"
        order.write_text("\n".join(str(i) for i in (5, 3, 1, 0, 2, 4)) + "\n")
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(online, "open", counting_open, raising=False)
        config = self._da_config(
            tmp_path, n=[6], s=[1, 2], instances=3, arrival_order=f"file:{order}",
            mechanisms=["posted:cost-scaled", "posted:greedy-margin"],
        )
        assert run_cli(["experiment", "--config", str(config), "--no-timing"]) == 0
        assert opened == [str(order)]

    @pytest.mark.parametrize("bad", [
        {"n": [0]}, {"n": [6, 100000]}, {"s": [0.5]}, {"s": [float("nan")]}, {"instances": 0},
        {"workers": 0}, {"mechanism": ["alloc:distorted"]}, {"mechanisms": ["sealed:nonsense"]},
        {"seed": "x"}, {"seed": 1.5}, {"seed": True}, {"seed": -1}, {"seed": 2**63},
    ])
    def test_experiment_rejects_bad_settings_before_running(self, tmp_path, monkeypatch, capsys, bad):
        from procure import harness

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the configuration was checked")

        monkeypatch.setattr(harness, "_instance_records", no_cell)
        assert run_cli(["experiment", "--config", str(self._da_config(tmp_path, **bad))]) == 2
        assert capsys.readouterr().err.strip()
        assert not (tmp_path / "da.csv").exists()

    def test_experiment_with_posted_and_da(self, tmp_path):
        out = tmp_path / "mix.csv"
        config = {
            "dataset": "synthetic", "n": [8], "s": [2], "instances": 3, "seed": 5,
            "mechanisms": ["posted:cost-scaled", "da:cost-scaled", "da:exact", "opt"],
            "arrival_order": "reverse", "da_schedule": "rr", "vcg_cap": 12,
            "output": str(out),
        }
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(["experiment", "--config", str(cfg)]) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) - 1 == 3 * 4

    def test_trace_flag_writes_jsonl(self, tmp_path):
        out = tmp_path / "traced.csv"
        config = {
            "dataset": "synthetic", "n": [6], "s": [1], "instances": 2, "seed": 5,
            "mechanisms": ["alloc:greedy-margin", "sealed:cost-scaled"],
            "output": str(out),
        }
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(["experiment", "--config", str(cfg), "--trace"]) == 0
        lines = (tmp_path / "traced.csv.traces.jsonl").read_text().splitlines()
        assert len(lines) == 4
        doc = json.loads(lines[0])
        assert doc["trace"]["tentative_sets"][0] == []


def test_mechanism_spec_validation():
    assert MechanismSpec.parse("sealed:roi").rule == "roi"
    assert MechanismSpec.parse("vcg").rule is None
    with pytest.raises(ValueError):
        MechanismSpec.parse("sealed:nonsense")
    with pytest.raises(ValueError):
        MechanismSpec.parse("posted:distorted")
    with pytest.raises(ValueError):
        MechanismSpec.parse("teleport")


@pytest.mark.parametrize("mechanism", ["da:cost-scaled", "da:exact"])
def test_da_row_counts_only_the_auctions_queries(mechanism):
    """A ``da:`` row's oracle_queries is the query count of the same
    ``run_descending`` run on a fresh oracle: the reads that set the
    default step are not charged to the auction."""
    graph = synthetic_bipartite_graph(200, 120, seed=3)
    [record] = experiment_records(graph, [8], [2.0], 1, [mechanism], seed=5)
    instance, costs = build_instance(graph, ExperimentConfig(n=8, s=2.0, instances=1, seed=5), 0)
    probe = CoverageOracle(instance)
    eps = max(max(probe.marginal(i, ()) for i in range(probe.n)), 1.0) / 50.0
    oracle = CoverageOracle(instance)
    demand = ExactDemand(oracle, cap=12) if mechanism == "da:exact" else CostScaledDemand(oracle)
    outcome = run_descending(oracle, costs, demand, LexicographicSchedule(), eps)
    assert record.oracle_queries == oracle.query_count
    assert (record.winner_count, record.total_payment) == (len(outcome.winners), outcome.total_payment)


def test_posted_row_does_not_count_the_worst_of_search():
    """A ``posted:`` row with a ``worst-of`` order counts the run on the chosen
    order, on a fresh oracle, plus the one value read of its winners."""
    graph = synthetic_bipartite_graph(200, 120, seed=3)
    [record] = experiment_records(graph, [12], [2.0], 1, ["posted:cost-scaled"], seed=5, arrival_order="worst-of:4")
    instance, costs = build_instance(graph, ExperimentConfig(n=12, s=2.0, instances=1, seed=5), 0)
    rule = make_rule("cost-scaled", 12)
    order = worst_sampled_order(rule, CoverageOracle(instance), costs, samples=4, seed=0)
    oracle = CoverageOracle(instance)
    posted = run_posted_price(rule, oracle, costs, order)
    assert record.oracle_queries == oracle.query_count + 1
    assert (record.winner_count, record.total_payment) == (len(posted.winners), posted.total_payment)


@pytest.mark.parametrize("mechanisms", [DEFAULT_MECHANISMS, ("alloc:greedy-margin", "sealed:distorted", "posted:cost-scaled")])
def test_each_cell_builds_its_cover_matrix_once(matrix_builds, mechanisms):
    """A cell's check oracle and every mechanism oracle share the instance's
    arrays: one cover matrix per cell, where one per oracle made 1 + m."""
    graph = synthetic_bipartite_graph(200, 120, seed=3)
    records = experiment_records(graph, [ARRAY_ROUND_MIN + 8], [1.0, 2.0], 2, mechanisms, seed=5)
    assert len(records) == 4 * len(mechanisms)
    assert len(matrix_builds) == len({id(instance) for instance in matrix_builds}) == 4


def test_noisy_rows_equal_distorted_rows():
    """The harness runs the noisy rule with eps = 0 on the plain coverage
    oracle, where the running minimum of the scratch's marginals is the
    current marginal: its rows equal the distorted rule's, queries included,
    on both sides of the array-round cut-off."""
    graph = synthetic_bipartite_graph(200, 120, seed=3)
    n_values = [ARRAY_ROUND_MIN - 12, ARRAY_ROUND_MIN + 16]
    mechanisms = ["alloc:distorted", "alloc:noisy-distorted", "sealed:distorted", "sealed:noisy-distorted"]
    records = experiment_records(graph, n_values, [1.0], 2, mechanisms, seed=5)
    rows = {(r.instance_id, r.mechanism, r.rule): r.row(include_timing=False) for r in records}
    assert len(rows) == 16
    rule_column = CSV_COLUMNS.index("rule")
    for (instance_id, mechanism, rule), row in rows.items():
        if rule == "noisy-distorted":
            distorted = rows[instance_id, mechanism, "distorted"]
            assert row[:rule_column] + row[rule_column + 1:] == distorted[:rule_column] + distorted[rule_column + 1:]
    assert any(int(row[CSV_COLUMNS.index("winner_count")]) > 1 for row in rows.values())


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "procure.cli", "verify", "nas", "--trials", "3", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

"""Smoke test of the benchmark harness (collected by the tier-1 command).

Runs all four workloads, untraced and traced, at ``--scale smoke`` (graphs of
a few hundred nodes, three ops each) and checks the *shape* of what comes
out: the result schema against ``BENCHMARK.json``, that exact metrics repeat
exactly, that the seed changes the inputs, and that a wrong score is counted
as a failed op.  There is no wall-clock assertion of any kind in this file.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if BENCH_DIR not in sys.path:           # pytest's rootdir insertion, made explicit
    sys.path.insert(0, BENCH_DIR)

from inferbench import cli, spec  # noqa: E402

SECONDS = 0.5
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: Per-layer metrics that are counts the program must reproduce exactly.
EXACT = ["strategies.threshold", "strategies.hubs", "shadow.mirrors",
         "sim.compute_units", "sim.records_out", "sim.peak_memory_mb",
         "sim.straggler_ratio", "session.replans", "loadgen.input_digest"]
#: Per-layer metrics whose healthy value is 0 on every workload at this scale.
MAY_BE_ZERO = {"session.replans", "pool.evictions", "gateway.refused_share",
               "gateway.ramp.refused_share.r12", "gateway.ramp.refused_share.r24",
               "gateway.ramp.refused_share.r96", "trace.overhead_pct",
               "mapreduce.shuffle_ms", "session.overhead_ms"}

BENCHMARK = spec.load()
WORKLOADS = spec.workload_names(BENCHMARK)


@pytest.fixture(scope="module")
def traced():
    """Traced smoke runs: seed 7 twice, seed 8 once, per workload."""
    return {name: [cli.run_workload(name, seed, SECONDS, True, "smoke")
                   for seed in (7, 7, 8)] for name in WORKLOADS}


@pytest.fixture(scope="module")
def untraced():
    return {name: cli.run_workload(name, 7, SECONDS, False, "smoke")
            for name in WORKLOADS}


def test_benchmark_json_is_within_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert BENCHMARK["command"][-1] == "bench/run.py"
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(set(metric) == {"name", "unit", "better"}
               for metric in BENCHMARK["per_layer"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert set(cli.WORKLOADS) == set(WORKLOADS)


def test_untraced_runs_report_every_end_to_end_metric(untraced):
    for name, result in untraced.items():
        metrics = spec.shape_metrics(BENCHMARK, "end_to_end", result.values)
        assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(metrics)
        # "choose metrics that are never 0": holds on every workload
        assert all(metric["value"] > 0 for metric in metrics.values()), (name, metrics)
        assert result.correct and result.failed == 0 and result.attempted >= 1
        assert result.detail["n"] == result.attempted
        assert result.recorder is None        # end-to-end numbers: tracing off


def test_traced_runs_report_every_per_layer_metric(traced):
    filled = set()
    for name, runs in traced.items():
        result = runs[0]
        metrics = spec.shape_metrics(BENCHMARK, "per_layer", result.values)
        assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
        assert result.correct, (name, result.failed)
        filled |= {key for key, value in result.values.items() if value != 0}
    dead = {m["name"] for m in BENCHMARK["per_layer"]} - filled - MAY_BE_ZERO
    assert not dead, f"no workload gives these per-layer metrics a value: {sorted(dead)}"


def test_span_files_are_parent_linked(traced, tmp_path):
    for name, runs in traced.items():
        recorder = runs[0].recorder
        path = tmp_path / f"trace-{name}.jsonl"
        recorder.write_jsonl(str(path))
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans and {"id", "name", "parent", "op", "start", "end", "self"} <= set(spans[0])
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                assert parent["op"] == span["op"]
    # delta_ticks: the layer spans account for the staged tick
    assert traced["delta_ticks"][0].detail["span_coverage"] >= 0.9


def test_exact_metrics_repeat_and_the_seed_changes_the_inputs(traced):
    for name, (first, again, other) in traced.items():
        for metric in EXACT:
            assert first.values.get(metric, 0.0) == again.values.get(metric, 0.0), (name, metric)
        assert first.values["loadgen.input_digest"] != other.values["loadgen.input_digest"]


def test_simulated_costs_of_a_batch_run_are_exact(untraced):
    for name in ("batch_pregel", "batch_mapreduce"):
        again = cli.run_workload(name, 7, SECONDS, False, "smoke")
        for metric in ("sim_wall_clock_s", "sim_total_bytes", "sim_cpu_min"):
            assert untraced[name].values[metric] == again.values[metric]


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_wrong_score_is_a_failed_op(name):
    def corrupt(scores):
        wrong = scores.copy()
        wrong[0, 0] += 1.0
        return wrong

    result = cli.run_workload(name, 7, SECONDS, False, "smoke", tamper=corrupt)
    assert not result.correct
    assert result.failed == result.attempted >= 1


def _suite(value, failed=0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
    return {"runs": [{"workload": name, "traced": False, "failed": failed,
                      "metrics": metrics} for name in WORKLOADS]}


def test_compare_flags_a_move_beyond_the_bound(capsys):
    assert cli.compare(_suite(100.0), _suite(101.0)) == 0
    # +30% is worse for every lower-is-better metric, better for throughput
    lower = sum(1 for m in BENCHMARK["end_to_end"] if m["better"] == "lower")
    assert cli.compare(_suite(100.0), _suite(130.0)) == lower * len(WORKLOADS)
    assert cli.compare(_suite(100.0), _suite(100.0, failed=1)) == len(WORKLOADS)
    assert "REGRESSED" in capsys.readouterr().out


def test_command_line_prints_the_contract_line_last():
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
               "batch_pregel", "--seed", "3", "--seconds", "1", "--trace", "0",
               "--scale", "smoke"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(set(metric) == {"value", "unit"} for metric in last["metrics"].values())

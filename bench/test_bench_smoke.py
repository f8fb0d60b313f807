"""Smoke test of the harness, collected by tier-1.

Runs every workload of ``BENCHMARK.json`` at ``--scale smoke`` (tens of
ops, one set-up), untraced and traced, each in a subprocess as the driver
would, and checks the contract between the file and the code: names,
limits, no failed op, and that the counts declared exact repeat bit for
bit.  Timing values are not asserted; a smoke run is far too short.
"""

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from bench import compare, loadgen
from bench.core import declaration
from bench.hygiene import REPO_ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Metrics that must repeat bit for bit between two runs of one seed.
EXACT = {
    0: ("qerror_median",),
    1: ("optimizer.rule_firings_per_query", "engine.result_mismatches",
        "engine.intermediate_rows_per_query",
        "runtime.simulated_seconds_total", "serve.cache_evictions",
        "serve.rejected", "serve.failures"),
}


def run_workload(job):
    workload, trace = job
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--scale", "smoke",
         "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


#: Run a second time, to compare the exact metrics: one workload per
#: kind of count, because each run costs a second of tier-1.
REPEATED = [("collect_rewrite", 0), ("collect_rewrite", 1),
            ("train_fit", 0), ("serve_cold", 0)]


@pytest.fixture(scope="module")
def runs():
    """``(workload, trace, repeat) -> result``, two subprocesses at a
    time because the sandbox has two cores."""
    jobs = [(w["name"], trace) for w in declaration()["workloads"]
            for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_workload, jobs + REPEATED))
    keys = [job + (0,) for job in jobs] + [job + (1,) for job in REPEATED]
    return dict(zip(keys, results))


def test_declaration_is_within_the_contract():
    declared = declaration()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in declared[section]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60


def test_emitted_names_and_units_match_the_declaration(runs):
    declared = declaration()
    for (workload, trace, _), result in runs.items():
        section = declared["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: metric["unit"]
                for name, metric in result["metrics"].items()} \
            == {metric["name"]: metric["unit"] for metric in section}, \
            (workload, trace)


def test_no_operation_fails(runs):
    for (workload, trace, _), result in runs.items():
        assert result["correct"] is True, (workload, trace)
        assert result["failed"] == 0 and result["attempted"] >= 1, \
            (workload, trace)
        if not trace:
            assert result["metrics"]["succeeded_share"]["value"] == 1.0


def test_end_to_end_metrics_are_never_zero(runs):
    for (workload, trace, _), result in runs.items():
        if not trace:
            for name, metric in result["metrics"].items():
                assert metric["value"] > 0, (workload, name)


def test_exact_metrics_repeat_bit_for_bit(runs):
    for workload, trace in REPEATED:
        first, again = runs[workload, trace, 0], runs[workload, trace, 1]
        for name in EXACT[trace]:
            assert first["metrics"][name]["value"] \
                == again["metrics"][name]["value"], (workload, name)


def test_each_layer_is_measured_where_it_is_on_the_path(runs):
    def value(workload, name):
        return runs[workload, 1, 0]["metrics"][name]["value"]

    assert value("collect_corpus", "engine.execute_ms") > 0
    assert value("collect_corpus", "optimizer.rewrite_ms") == 0
    assert value("collect_rewrite", "optimizer.rewrite_ms") > 0
    assert value("collect_rewrite", "engine.result_mismatches") == 0
    assert value("train_fit", "nn.train_step_ms_b64") > 0
    assert value("train_fit", "optimizer.plan_ms") == 0
    assert value("serve_warm", "serve.cache_hit_rate") > 0.99
    assert value("serve_warm", "models.forward_ms_b16") > 0
    assert value("serve_cold", "serve.cache_hit_rate") == 0
    assert value("serve_cold", "optimizer.plan_ms") > 0
    shares = sum(value("collect_corpus", f"{layer}.busy_share") for layer in
                 ("sql", "optimizer", "engine", "runtime", "workload"))
    assert 0.9 <= shares <= 1.0 + 1e-9


def test_open_loop_generator_self_test():
    assert loadgen.self_test(verbose=False) == 0


def test_compare_judges_by_bound_and_spread():
    steady_a, steady_b = [100.0, 101.0, 99.0], [120.0, 121.0, 119.0]
    assert compare.judge(100, 120, steady_a, steady_b, "lower", 0.1)[0] \
        == "regressed"
    assert compare.judge(100, 120, steady_a, steady_b, "higher", 0.1)[0] == "ok"
    assert compare.judge(100, 105, steady_a, [105.0, 104.0, 106.0],
                         "lower", 0.1)[0] == "ok"
    noisy = [80.0, 100.0, 130.0]
    assert compare.judge(100, 115, noisy, [90.0, 115.0, 140.0],
                         "lower", 0.1)[0] == "unresolved"
    # Wider than the bound, yet every repeat of B beats every repeat of A.
    assert compare.judge(100, 60, noisy, [50.0, 60.0, 70.0],
                         "lower", 0.1)[0] == "ok"
    # setup_s: half a second where that is more than the bound.
    short_a, short_b = [0.2, 0.21, 0.19], [0.5, 0.51, 0.49]
    assert compare.judge(0.2, 0.5, short_a, short_b, "lower", 0.25)[0] \
        == "regressed"
    assert compare.judge(0.2, 0.5, short_a, short_b, "lower", 0.25,
                         compare.SETUP_SLACK_SECONDS)[0] == "ok"

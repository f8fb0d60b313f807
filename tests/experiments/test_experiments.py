"""Experiment drivers at quick scale: structure, shape and exact numbers.

Most tests assert the *shape* of the paper's results (quick scale is
deliberately small; the benchmark suite runs the same drivers at full
benchmark scale).  ``test_fidelity_matches_golden`` pins every number
the eight drivers return at quick scale **exactly**, in
``tests/experiments/goldens/fidelity.json``: a change that moves a
number of Figure 3, Table 1, the learning curve, few-shot adaptation,
the ablations, resource prediction, cardinality estimation or hardware
transfer fails there, listing each moved key as ``old -> new``.  Each
driver runs once, in its module-scoped fixture, and the shape tests
read the same result.

If a numerical change is *intentional*, regenerate the snapshot and
commit it together with the change::

    PYTHONPATH=src python tests/experiments/test_experiments.py --regen
"""

import dataclasses
import enum
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.ablations import format_ablations, run_ablations
from repro.experiments.cardinality_exp import (
    format_cardinality,
    run_cardinality,
)
from repro.experiments.fewshot_exp import format_fewshot, run_fewshot
from repro.experiments.figure3 import (
    E2E_NAME,
    MSCN_NAME,
    SCALED_COST_NAME,
    ZERO_SHOT_ESTIMATED,
    ZERO_SHOT_EXACT,
    format_figure3,
    run_figure3,
    train_workload_driven_baselines,
)
from repro.experiments import hardware
from repro.experiments.hardware import (
    HOLDOUT_CONFIG,
    TRAIN_CONFIGS,
    format_hardware,
    run_hardware,
)
from repro.experiments.learning_curve import (
    format_learning_curve,
    run_learning_curve,
)
from repro.experiments.resources import format_resources, run_resources
from repro.experiments.setup import ExperimentScale, build_context, score
from repro.experiments.table1 import format_table1, run_table1
from repro.featurize.graph import CardinalitySource
from repro.models import ZeroShotEstimator
from repro.workload import BENCHMARK_NAMES

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "fidelity.json"

REGEN_HINT = (
    "experiment numbers changed; if intentional, regenerate the snapshot "
    "with `PYTHONPATH=src python tests/experiments/test_experiments.py "
    "--regen`, commit it with the change and quote the moved keys in "
    "CHANGES.md"
)

#: Every driver, as one call on the quick context, in the order the
#: tests below first read their results.
DRIVERS = {
    "figure3": lambda context: run_figure3(context=context),
    "table1": lambda context: run_table1(context=context),
    "learning_curve": lambda context: run_learning_curve(context=context),
    "fewshot": lambda context: run_fewshot(context=context),
    "resources": lambda context: run_resources(context=context),
    "cardinality": lambda context: run_cardinality(context=context),
    "hardware": lambda context: run_hardware(context=context),
    "ablations": lambda context: run_ablations(context=context),
}


def flatten(value, path: str) -> dict[str, float]:
    """``{"<path>/<field or key or index>...": number}`` of a driver's
    result: dataclasses by field, dicts by key (enum keys by value),
    lists by index; strings and ``None`` carry no number."""
    if value is None or isinstance(value, str):
        return {}
    if dataclasses.is_dataclass(value):
        items = ((field.name, getattr(value, field.name))
                 for field in dataclasses.fields(value))
    elif isinstance(value, dict):
        items = ((key.value if isinstance(key, enum.Enum) else key, item)
                 for key, item in value.items())
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: float(value)}
    flat = {}
    for key, item in items:
        flat.update(flatten(item, f"{path}/{key}"))
    return flat


def regenerate() -> None:
    os.environ["REPRO_CACHE"] = "0"      # nothing stale from a store
    context = build_context(ExperimentScale.quick())
    numbers = {}
    for name, run in DRIVERS.items():
        numbers.update(flatten(run(context), name))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        # ``json`` writes floats with ``repr``, which round-trips every
        # double exactly.
        json.dump(numbers, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


@pytest.fixture(scope="module")
def quick_context():
    return build_context(ExperimentScale.quick())


@pytest.fixture(scope="module")
def figure3_result(quick_context):
    return DRIVERS["figure3"](quick_context)


@pytest.fixture(scope="module")
def table1_result(quick_context):
    return DRIVERS["table1"](quick_context)


@pytest.fixture(scope="module")
def learning_curve_fits():
    return []


@pytest.fixture(scope="module")
def learning_curve_result(quick_context, learning_curve_fits):
    """The one run; its ``ZeroShotEstimator.fit_graphs`` calls are
    counted into ``learning_curve_fits``."""
    fit_graphs = ZeroShotEstimator.fit_graphs

    def counting_fit(estimator, graphs, *args, **kwargs):
        learning_curve_fits.append(len(graphs))
        return fit_graphs(estimator, graphs, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ZeroShotEstimator, "fit_graphs", counting_fit)
        return DRIVERS["learning_curve"](quick_context)


@pytest.fixture(scope="module")
def fewshot_result(quick_context):
    return DRIVERS["fewshot"](quick_context)


@pytest.fixture(scope="module")
def resources_result(quick_context):
    return DRIVERS["resources"](quick_context)


@pytest.fixture(scope="module")
def cardinality_result(quick_context):
    return DRIVERS["cardinality"](quick_context)


@pytest.fixture(scope="module")
def hardware_calls():
    return {"systems": [], "fits": 0, "holdout": []}


@pytest.fixture(scope="module")
def hardware_result(quick_context, hardware_calls):
    """The one run; into ``hardware_calls`` go the machine assignment of
    each corpus it collects, the number of models it fits and, for each
    workload it executes, the database and the records."""
    collect = hardware.collect_training_corpus
    fit_graphs = ZeroShotEstimator.fit_graphs

    def counting_collect(*args, **kwargs):
        hardware_calls["systems"].append(kwargs.get("system"))
        return collect(*args, **kwargs)

    def counting_fit(estimator, *args, **kwargs):
        hardware_calls["fits"] += 1
        return fit_graphs(estimator, *args, **kwargs)

    class RecordingRunner(hardware.WorkloadRunner):
        def run(self, queries):
            records = super().run(queries)
            hardware_calls["holdout"].append((self.database, records))
            return records

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hardware, "collect_training_corpus", counting_collect)
        patch.setattr(hardware, "WorkloadRunner", RecordingRunner)
        patch.setattr(ZeroShotEstimator, "fit_graphs", counting_fit)
        return DRIVERS["hardware"](quick_context)


@pytest.fixture(scope="module")
def ablations_result(quick_context):
    return DRIVERS["ablations"](quick_context)


class TestSetup:
    def test_context_complete(self, quick_context):
        scale = quick_context.scale
        assert len(quick_context.corpus.databases) == \
            scale.num_training_databases
        assert quick_context.corpus.num_queries == \
            scale.num_training_databases * scale.queries_per_database
        assert set(quick_context.evaluation_records) == set(BENCHMARK_NAMES)
        assert len(quick_context.imdb_pool) == scale.pool_size
        for source in (CardinalitySource.ACTUAL, CardinalitySource.ESTIMATED):
            assert quick_context.zero_shot_models[source].is_fitted

    def test_imdb_not_in_training_fleet(self, quick_context):
        assert "imdb" not in quick_context.corpus.databases

    def test_scale_validation(self):
        """Bad scales fail eagerly at construction, not mid-collection."""
        with pytest.raises(ExperimentError):
            ExperimentScale(num_training_databases=0)
        with pytest.raises(ExperimentError):
            ExperimentScale(queries_per_database=0)
        with pytest.raises(ExperimentError):
            ExperimentScale(queries_per_database=-5)
        with pytest.raises(ExperimentError):
            ExperimentScale(random_indexes_per_database=-1)
        with pytest.raises(ExperimentError):
            ExperimentScale(evaluation_queries=0)
        with pytest.raises(ExperimentError):
            ExperimentScale(training_db_min_rows=0)
        with pytest.raises(ExperimentError):
            ExperimentScale(training_db_min_rows=100,
                            training_db_max_rows=50)
        with pytest.raises(ExperimentError):
            ExperimentScale(seed=-1)
        with pytest.raises(ExperimentError):
            ExperimentScale(training_budgets=())
        with pytest.raises(ExperimentError):
            ExperimentScale(fewshot_budgets=())
        # Every budget must fit the IMDB pool, the largest training
        # budget: the drivers slice the pool without checking.
        with pytest.raises(ExperimentError, match="exceed the IMDB pool"):
            ExperimentScale(training_budgets=(30,), fewshot_budgets=(10, 50))
        # A negative budget once sliced the IMDB pool from its end.
        for budgets in ({"training_budgets": (0, 10)},
                        {"fewshot_budgets": (-5,)}):
            with pytest.raises(ExperimentError):
                ExperimentScale(**budgets)
        # Once failed only later, inside make_imdb_database.
        for imdb_scale in (float("nan"), float("inf"), 0.0, -0.5):
            with pytest.raises(ExperimentError):
                ExperimentScale(imdb_scale=imdb_scale)
        for sigma in ({"training_noise_sigma": -1.0},
                      {"evaluation_noise_sigma": float("nan")},
                      {"training_noise_sigma": float("inf")}):
            with pytest.raises(ExperimentError):
                ExperimentScale(**sigma)

    def test_worker_count_validation(self, monkeypatch):
        """Non-positive worker counts are rejected before any shard runs."""
        from repro.workload import backends
        with pytest.raises(ExperimentError):
            backends.resolve_workers(0)

        def poison(*args, **kwargs):
            raise AssertionError("a shard was run")

        monkeypatch.setattr(backends, "execute_shard", poison)
        monkeypatch.setenv("REPRO_WORKERS", "-1")
        with pytest.raises(ExperimentError):
            build_context(ExperimentScale.quick())

    def test_scale_presets(self):
        assert ExperimentScale.paper().num_training_databases == 19
        assert ExperimentScale.paper().queries_per_database == 5_000
        assert ExperimentScale.quick().pool_size == 100


class TestFigure3:
    @pytest.fixture
    def result(self, figure3_result):
        return figure3_result

    def test_all_series_present(self, result, quick_context):
        assert result.budgets == list(quick_context.scale.training_budgets)
        for benchmark in BENCHMARK_NAMES:
            series = result.baseline_series[benchmark]
            for name in (MSCN_NAME, E2E_NAME, SCALED_COST_NAME):
                assert len(series[name]) == len(result.budgets)
                assert all(m >= 1.0 for m in series[name])
            for label in (ZERO_SHOT_EXACT, ZERO_SHOT_ESTIMATED):
                assert result.zero_shot_medians[benchmark][label] >= 1.0

    def test_execution_time_grows_with_budget(self, result):
        hours = result.execution_hours
        assert all(b > a for a, b in zip(hours, hours[1:]))

    def test_zero_shot_competitive_at_small_budget(self, result):
        """Sanity of the paper's headline claim at quick scale: the
        zero-shot model is within a small factor of the workload-driven
        models at the smallest budget on at least one benchmark.  (The
        benchmark suite asserts the full shape at proper scale.)"""
        wins = 0
        for benchmark in BENCHMARK_NAMES:
            zero_shot = result.zero_shot_medians[benchmark][ZERO_SHOT_EXACT]
            small_budget = min(
                result.baseline_series[benchmark][MSCN_NAME][0],
                result.baseline_series[benchmark][E2E_NAME][0],
            )
            if zero_shot <= small_budget * 2.5:
                wins += 1
        assert wins >= 1

    def test_budget_exceeding_pool_rejected(self, quick_context):
        with pytest.raises(ExperimentError):
            train_workload_driven_baselines(quick_context, 10**9)

    def test_report_renders(self, result):
        text = format_figure3(result)
        assert "Panel: job-light" in text
        assert "Zero-Shot" in text
        assert "execution time" in text


class TestTable1:
    @pytest.fixture
    def result(self, table1_result):
        return table1_result

    def test_all_rows_present(self, result):
        assert tuple(result) == ("Scale", "Synthetic", "JOB-light", "Index")
        for row in result:
            for source in (CardinalitySource.ACTUAL,
                           CardinalitySource.ESTIMATED):
                stats = result[row][source]
                assert 1.0 <= stats.median <= stats.percentile95 <= stats.maximum

    def test_index_row_has_heavier_tail(self, result):
        """The paper: the Index (what-if) row's max error exceeds the
        plain cost-estimation rows'."""
        index_max = result["Index"][CardinalitySource.ACTUAL].maximum
        other_medians = [result[r][CardinalitySource.ACTUAL].median
                         for r in ("Scale", "Synthetic", "JOB-light")]
        assert index_max > max(other_medians)

    def test_report_renders(self, result):
        text = format_table1(result)
        assert "Zero-Shot (Exact Card.)" in text
        assert "Index" in text


class TestLearningCurve:
    @pytest.fixture
    def result(self, learning_curve_result):
        return learning_curve_result

    @pytest.fixture
    def fits(self, learning_curve_fits):
        return learning_curve_fits

    def test_curve_improves(self, quick_context, result):
        assert result.database_counts[-1] == \
            quick_context.scale.num_training_databases
        assert result.median_q_errors[-1] <= result.median_q_errors[0] * 1.3
        assert result.improvement() > 0
        assert "Learning curve" in format_learning_curve(result)

    def test_full_fleet_point_is_the_context_model(self, quick_context,
                                                   result, fits):
        """Every point but the full fleet's trains a model; that one is
        ``context.estimator(ACTUAL)``, so its median is the context
        model's, bit for bit."""
        assert len(fits) == len(result.database_counts) - 1

        source = CardinalitySource.ACTUAL
        plans, truths = quick_context.pooled_evaluation()
        graphs = ZeroShotEstimator(source=source).featurize(
            plans, quick_context.imdb)
        predictions = quick_context.estimator(source).model.predict_runtime(
            graphs)
        assert result.median_q_errors[-1] == score(predictions,
                                                   truths).median

    @pytest.mark.parametrize("counts", [[], [0], [-1], [10**6]],
                             ids=["empty", "zero", "negative", "too-many"])
    def test_impossible_fleet_sizes_rejected(self, quick_context, counts):
        """Every count must name a prefix of the fleet, 1..N databases:
        an empty list once failed inside ``max()``, ``[0]`` trained on the
        whole fleet under the label 0 and ``[-1]`` on all but the last
        database under the label -1."""
        with pytest.raises(ExperimentError):
            run_learning_curve(context=quick_context,
                               database_counts=counts)


class TestFewShot:
    def test_fewshot_beats_scratch_at_small_budget(self, fewshot_result):
        result = fewshot_result
        assert len(result.fewshot_medians) == len(result.budgets)
        # At the smallest budget, fine-tuning must beat training from
        # scratch (the paper's few-shot argument).
        assert result.fewshot_medians[0] <= result.from_scratch_medians[0]
        assert "few-shot" in format_fewshot(result)


class TestResources:
    def test_resource_targets_predicted(self, resources_result):
        result = resources_result
        assert set(result) == {"runtime", "memory", "io"}
        for stats in result.values():
            assert stats.median >= 1.0
        assert "Resource prediction" in format_resources(result)


class TestCardinality:
    @pytest.fixture
    def result(self, cardinality_result):
        return cardinality_result

    def test_learned_no_worse_than_heuristic_on_held_out(self, result):
        """The acceptance gate: on the held-out correlated IMDB data the
        learned head's median per-operator Q-error must not exceed the
        classical heuristics' (and the residual design keeps its tail
        tighter too)."""
        assert result.learned.median <= result.heuristic.median
        assert result.learned.percentile95 <= \
            result.heuristic.percentile95 * 1.1

    def test_all_series_present(self, result):
        for benchmark in BENCHMARK_NAMES:
            entries = result.per_benchmark[benchmark]
            for name in ("heuristic", "learned"):
                assert entries[name].median >= 1.0
        for stats in (result.heuristic, result.learned,
                      result.heuristic_all, result.learned_all):
            assert 1.0 <= stats.median <= stats.percentile95 <= stats.maximum

    def test_plan_quality_reported(self, result, quick_context):
        quality = result.plan_quality
        expected = len(BENCHMARK_NAMES) * \
            quick_context.scale.evaluation_queries
        assert quality.queries == expected
        assert 0 <= quality.changed_plans <= quality.queries
        assert quality.heuristic_seconds > 0
        assert quality.learned_seconds > 0
        assert np.isfinite(quality.runtime_ratio)
        # The enumerator actually consulted the model.
        assert quality.learned_fragments > 0
        assert quality.fallback_fragments == 0

    def test_report_renders(self, result):
        text = format_cardinality(result)
        assert "per-operator Q-error" in text
        assert "heuristic" in text and "learned" in text
        assert "Plan quality" in text


class TestHardware:
    @pytest.fixture
    def result(self, hardware_result):
        return hardware_result

    @pytest.mark.hardware
    def test_multi_config_transfers_better(self, result):
        """The acceptance gate: training across machines (with the
        machine in the featurization) beats the hardware-blind
        single-machine baseline on an unseen machine."""
        assert result.multi_stats.median >= 1.0
        assert result.single_stats.median >= 1.0
        assert result.median_improvement > 1.0
        assert result.multi_stats.median < result.single_stats.median

    @pytest.mark.hardware
    def test_holdout_not_trained_on(self):
        assert HOLDOUT_CONFIG not in TRAIN_CONFIGS

    @pytest.mark.hardware
    def test_only_its_own_work(self, result, hardware_calls, quick_context):
        """The driver collects and fits only the multi-machine fleet; its
        hardware-blind baseline is the context's exact-cardinality model,
        scored on the context's IMDB database."""
        assert hardware_calls["systems"] == [TRAIN_CONFIGS]
        assert hardware_calls["fits"] == 1
        [(database, records)] = hardware_calls["holdout"]
        assert database is quick_context.imdb
        baseline = quick_context.estimator(CardinalitySource.ACTUAL)
        assert result.single_stats == score(
            baseline.predict_runtime([r.plan for r in records], database),
            np.array([r.runtime_seconds for r in records]))

    @pytest.mark.hardware
    def test_second_call_executes_no_shard(self, result, quick_context,
                                           executed_names, monkeypatch):
        """The multi-machine fleet is collected through the artifact
        store: once a call has stored its shards, the next executes none
        and returns the same numbers."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        run_hardware(context=quick_context)   # stores what is missing
        executed_names.clear()
        again = run_hardware(context=quick_context)
        assert executed_names == []
        assert flatten(again, "hardware") == flatten(result, "hardware")

    @pytest.mark.hardware
    def test_advisor_ran_on_holdout(self, result):
        advisor = result.advisor
        assert advisor.baseline_name == HOLDOUT_CONFIG
        assert advisor.baseline_seconds > 0
        assert all(option.predicted_seconds > 0
                   for option in advisor.options)

    @pytest.mark.hardware
    def test_report_renders(self, result):
        text = format_hardware(result)
        assert "Hardware transfer" in text
        assert "multi-config (hardware-aware)" in text
        assert "single-config (blind)" in text
        assert "what-if" in text


class TestAblations:
    def test_ablation_variants(self, ablations_result):
        result = ablations_result
        expected = {"graph (full model)", "graph (estimated cardinalities)",
                    "flat (no message passing)",
                    "graph (no cardinality features)"}
        assert set(result) == expected
        # That removing cardinality features hurts is asserted at default
        # scale, by benchmarks/test_ablations.py.  At quick scale the
        # order of those two medians is noise: six root cardinalities of
        # the corpus moving by one row took the full model 1.79 -> 2.12
        # beside 1.86 without cardinality features.
        assert "Ablations" in format_ablations(result)


@pytest.mark.parametrize("driver", list(DRIVERS))
def test_fidelity_matches_golden(driver, request):
    """Every number the driver returns at quick scale equals the pinned
    one, bit for bit; a failure lists each moved key as ``old -> new``."""
    fresh = flatten(request.getfixturevalue(f"{driver}_result"), driver)
    with open(GOLDEN_PATH) as handle:
        golden = {key: value for key, value in json.load(handle).items()
                  if key.startswith(f"{driver}/")}
    moved = [f"{key}: {golden.get(key)} -> {fresh.get(key)}"
             for key in sorted(golden.keys() | fresh.keys())
             if golden.get(key) != fresh.get(key)]
    assert not moved, "\n".join([REGEN_HINT, *moved])


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(1)

"""Resource accounting in the simulator (§4.3 extension)."""

import numpy as np
import pytest

from repro.engine import execute_plan
from repro.errors import WorkloadError
from repro.optimizer import plan_query
from repro.optimizer.planner import PlannerOptions
from repro.runtime import RuntimeSimulator
from repro.sql import parse_query
from repro.workload import WorkloadRunner, make_benchmark_workload


def trace(db, text, options=None):
    plan = plan_query(db, parse_query(text), options)
    execute_plan(db, plan)
    return RuntimeSimulator(db, noise_sigma=0.0).simulate(plan)


class TestResourceAccounting:
    def test_hash_join_uses_memory(self, tiny_imdb):
        runtime = trace(
            tiny_imdb,
            "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id",
            PlannerOptions(enable_nestloop=False),
        )
        assert runtime.memory_peak_bytes > 0

    def test_seq_scan_reads_pages(self, tiny_imdb):
        runtime = trace(tiny_imdb, "SELECT COUNT(*) FROM cast_info ci")
        assert runtime.io_pages > 0

    def test_bigger_build_more_memory(self, tiny_imdb):
        options = PlannerOptions(enable_nestloop=False)
        small = trace(tiny_imdb, (
            "SELECT COUNT(*) FROM title t, movie_info_idx mi "
            "WHERE t.id = mi.movie_id AND t.production_year > 2020"
        ), options)
        large = trace(tiny_imdb, (
            "SELECT COUNT(*) FROM title t, cast_info ci "
            "WHERE t.id = ci.movie_id"
        ), options)
        assert large.memory_peak_bytes > small.memory_peak_bytes

    def test_records_carry_resources(self, tiny_imdb):
        queries = make_benchmark_workload(tiny_imdb, "scale", 5, seed=3)
        records = WorkloadRunner(tiny_imdb, seed=3).run(queries)
        assert all(r.io_pages >= 0 for r in records)
        assert any(r.memory_peak_bytes > 0 for r in records)


class TestCorpusResourceTargets:
    def test_featurize_targets(self, tiny_imdb):
        from repro.db import generate_training_database_specs
        from repro.featurize import CardinalitySource
        from repro.workload import collect_training_corpus

        specs = generate_training_database_specs(
            1, base_seed=9, min_rows=300, max_rows=1_500)
        corpus = collect_training_corpus(specs, 10, seed=1)
        runtime_graphs = corpus.featurize(CardinalitySource.ACTUAL,
                                          target="runtime")
        memory_graphs = corpus.featurize(CardinalitySource.ACTUAL,
                                         target="memory")
        io_graphs = corpus.featurize(CardinalitySource.ACTUAL, target="io")
        assert len(runtime_graphs) == len(memory_graphs) == len(io_graphs)
        # Labels differ between targets.
        runtime_labels = [g.target_log_runtime for g in runtime_graphs]
        memory_labels = [g.target_log_runtime for g in memory_graphs]
        assert not np.allclose(runtime_labels, memory_labels)
        with pytest.raises(WorkloadError):
            corpus.featurize(CardinalitySource.ACTUAL, target="nope")

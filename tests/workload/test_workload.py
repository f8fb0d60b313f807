"""Workload generator, benchmark workloads, runner, corpus."""

import numpy as np
import pytest

from repro.db import generate_training_database_specs
from repro.errors import WorkloadError
from repro.featurize import CardinalitySource
from repro.sql import validate_query
from repro.workload import (
    BENCHMARK_NAMES,
    WorkloadRunner,
    WorkloadSpec,
    collect_training_corpus,
    generate_workload,
    make_benchmark_workload,
)
from repro.workload.corpus import create_random_indexes


class TestGenerator:
    def test_respects_limits(self, tiny_imdb):
        spec = WorkloadSpec(num_queries=30, max_tables=3, max_predicates=4,
                            seed=1)
        queries = generate_workload(tiny_imdb, spec)
        assert len(queries) == 30
        for query in queries:
            assert 1 <= len(query.tables) <= 3
            assert len(query.predicates) <= 4
            validate_query(tiny_imdb.schema, query)

    def test_deterministic(self, tiny_imdb):
        spec = WorkloadSpec(num_queries=10, seed=3)
        a = generate_workload(tiny_imdb, spec)
        b = generate_workload(tiny_imdb, spec)
        assert [str(q) for q in a] == [str(q) for q in b]

    def test_different_seeds_differ(self, tiny_imdb):
        a = generate_workload(tiny_imdb, WorkloadSpec(num_queries=10, seed=1))
        b = generate_workload(tiny_imdb, WorkloadSpec(num_queries=10, seed=2))
        assert [str(q) for q in a] != [str(q) for q in b]

    def test_produces_joins_and_predicates(self, tiny_imdb):
        queries = generate_workload(tiny_imdb,
                                    WorkloadSpec(num_queries=50, seed=7))
        assert any(q.joins for q in queries)
        assert any(len(q.predicates) >= 2 for q in queries)
        assert any(q.group_by for q in queries)

    def test_requires_analyzed_database(self):
        from repro.db import make_imdb_database
        raw = make_imdb_database(scale=0.02, seed=0)
        raw.statistics.clear()
        with pytest.raises(WorkloadError):
            generate_workload(raw, WorkloadSpec(num_queries=1))

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(num_queries=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(max_tables=0)


class TestBenchmarks:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_valid_queries(self, tiny_imdb, name):
        queries = make_benchmark_workload(tiny_imdb, name, 20, seed=2)
        assert len(queries) == 20
        for query in queries:
            validate_query(tiny_imdb.schema, query)

    def test_job_light_rarely_has_ranges(self, tiny_imdb):
        queries = make_benchmark_workload(tiny_imdb, "job-light", 100, seed=0)
        range_fraction = np.mean([
            any(p.operator.is_range for p in q.predicates) for q in queries
        ])
        assert range_fraction < 0.5

    def test_synthetic_is_range_heavy(self, tiny_imdb):
        """The synthetic workload stresses range selectivities far more
        than JOB-light (the paper's explanation for the E2E gap)."""
        synthetic = make_benchmark_workload(tiny_imdb, "synthetic", 100, seed=0)
        job_light = make_benchmark_workload(tiny_imdb, "job-light", 100, seed=0)

        def range_fraction(queries):
            counts = [sum(p.operator.is_range for p in q.predicates)
                      for q in queries]
            totals = [max(len(q.predicates), 1) for q in queries]
            return np.mean(np.array(counts) / np.array(totals))

        assert range_fraction(synthetic) > 0.5
        assert range_fraction(synthetic) > range_fraction(job_light) * 1.5

    def test_scale_varies_join_count(self, tiny_imdb):
        queries = make_benchmark_workload(tiny_imdb, "scale", 100, seed=0)
        assert len({len(q.joins) for q in queries}) >= 4

    def test_unknown_benchmark(self, tiny_imdb):
        with pytest.raises(WorkloadError):
            make_benchmark_workload(tiny_imdb, "nope", 5)

    def test_requires_imdb_schema(self, small_synthetic_db):
        with pytest.raises(WorkloadError):
            make_benchmark_workload(small_synthetic_db, "scale", 5)


class TestRunner:
    def test_records_complete(self, tiny_imdb):
        queries = make_benchmark_workload(tiny_imdb, "job-light", 5, seed=4)
        runner = WorkloadRunner(tiny_imdb, seed=1)
        records = runner.run(queries)
        assert len(records) == 5
        for record in records:
            assert record.runtime_seconds > 0
            record.plan.require_executed()
            assert record.optimizer_cost > 0
            assert record.database_name == "imdb"

    def test_execution_hours(self, tiny_imdb):
        queries = make_benchmark_workload(tiny_imdb, "job-light", 5, seed=4)
        records = WorkloadRunner(tiny_imdb, seed=1).run(queries)
        hours = WorkloadRunner.total_execution_hours(records)
        assert hours == pytest.approx(
            sum(r.runtime_seconds for r in records) / 3600.0
        )

    def test_empty_workload_rejected(self, tiny_imdb):
        with pytest.raises(WorkloadError):
            WorkloadRunner(tiny_imdb).run([])

    def test_build_side_reuse_is_transparent(self, tiny_imdb):
        """Records must be bit-identical with and without the shared
        build-side cache (reuse only skips redundant work)."""
        queries = make_benchmark_workload(tiny_imdb, "job-light", 8, seed=9)
        # Repeat queries so identical build subtrees actually recur.
        queries = queries + queries[:4]
        cached_runner = WorkloadRunner(tiny_imdb, seed=1,
                                       reuse_build_side=True)
        plain_runner = WorkloadRunner(tiny_imdb, seed=1,
                                      reuse_build_side=False)
        cached = cached_runner.run(queries)
        plain = plain_runner.run(queries)
        for a, b in zip(cached, plain):
            assert a.runtime_seconds == b.runtime_seconds
            assert a.memory_peak_bytes == b.memory_peak_bytes
            assert a.io_pages == b.io_pages
            assert [n.actual_rows for n in a.plan.nodes()] == \
                [n.actual_rows for n in b.plan.nodes()]
        assert cached_runner._executor.build_cache.hits > 0
        assert plain_runner._executor.build_cache is None


class TestCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        specs = generate_training_database_specs(
            2, base_seed=31, min_rows=400, max_rows=2_000
        )
        return collect_training_corpus(specs, 15, seed=0,
                                       random_indexes_per_database=2)

    def test_counts(self, corpus):
        assert corpus.num_databases == 2
        assert corpus.num_queries == 30
        assert len(corpus.all_records()) == 30

    def test_random_indexes_created(self, corpus):
        for database in corpus.databases.values():
            random_indexes = [n for n in database.indexes if n.startswith("rnd_")]
            assert len(random_indexes) == 2

    def test_featurize_both_sources(self, corpus):
        for source in (CardinalitySource.ESTIMATED, CardinalitySource.ACTUAL):
            graphs = corpus.featurize(source)
            assert len(graphs) == 30
            assert all(g.target_log_runtime is not None for g in graphs)

    def test_featurize_subset(self, corpus):
        name = next(iter(corpus.records_by_database))
        graphs = corpus.featurize(CardinalitySource.ACTUAL, [name])
        assert len(graphs) == 15

    def test_featurize_unknown_database(self, corpus):
        with pytest.raises(WorkloadError):
            corpus.featurize(CardinalitySource.ACTUAL, ["ghost"])

    def test_validation(self):
        with pytest.raises(WorkloadError):
            collect_training_corpus([], 5)

    def test_create_random_indexes_skips_duplicates(self, tiny_imdb):
        rng = np.random.default_rng(0)
        before = len(tiny_imdb.indexes)
        created = create_random_indexes(tiny_imdb, 3, rng)
        assert len(created) == 3
        assert len(tiny_imdb.indexes) == before + 3
        for name in created:
            tiny_imdb.drop_index(name)

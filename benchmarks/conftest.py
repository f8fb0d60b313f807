"""Shared benchmark fixtures.

The experiment context (training fleet, corpus, zero-shot models, IMDB
holdout, executed IMDB pool) is built once per session at benchmark
scale and reused by every per-figure/per-table benchmark.
"""

import os

import pytest

from repro.experiments.setup import ExperimentScale, build_context


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Benchmarks measure *this* build of the code: never serve them a
    context pickled by an older build from the user-level store."""
    scratch = tmp_path_factory.mktemp("repro-artifact-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(scratch)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def scale():
    return ExperimentScale.default()


@pytest.fixture(scope="session")
def context(scale, _isolated_artifact_cache):
    return build_context(scale)

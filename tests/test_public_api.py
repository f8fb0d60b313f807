"""The package's public API surface: imports, __all__, docstrings."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = ["repro.db", "repro.sql", "repro.plans", "repro.engine",
               "repro.optimizer", "repro.optimizer.learned_cardinality",
               "repro.runtime", "repro.nn",
               "repro.featurize", "repro.models", "repro.models.api",
               "repro.models.cardinality",
               "repro.workload", "repro.tuning", "repro.tuning.hardware",
               "repro.serve", "repro.serve.server",
               "repro.experiments", "repro.experiments.hardware"]


class TestApiSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_imports_and_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_classes_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"

    def test_error_hierarchy(self):
        from repro import errors
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, Exception)
            if name != "ReproError":
                assert issubclass(exc, errors.ReproError)

    def test_readme_quickstart_names_exist(self):
        """Names used in README snippets must exist in the public API."""
        for name in ("CardinalitySource", "ZeroShotCostModel",
                     "ZeroShotFeaturizer", "collect_training_corpus",
                     "generate_training_database_specs",
                     "make_imdb_database",
                     "make_benchmark_workload", "WorkloadRunner"):
            assert hasattr(repro, name)

"""Doc-parity: every code reference in the documentation must resolve.

Two layers keep README.md / docs/ARCHITECTURE.md / docs/TRAINING.md /
docs/TESTING.md / PAPER.md from rotting:

* every backticked dotted ``repro...`` token in the documents is
  resolved against the real package (modules imported, attributes
  fetched),
* the public symbols the README repo map and quickstart lean on are
  asserted by name,
* every path into the artifact store names the current
  ``CACHE_FORMAT_VERSION``.
"""

import configparser
import importlib
import re
from pathlib import Path

import pytest

import repro
from repro.experiments.cache import CACHE_FORMAT_VERSION

REPO_ROOT = Path(__file__).resolve().parents[1]

DOC_FILES = ["README.md", "docs/ARCHITECTURE.md", "docs/TRAINING.md",
             "docs/TESTING.md", "PAPER.md"]

#: ``repro.foo.bar`` / ``repro.foo.Symbol`` inside backticks.
_REFERENCE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")

#: The format-version directory of a path into the artifact store, as
#: the documents draw it: ``~/.cache/repro/v8/``, the ``└── v8/`` of a
#: layout tree, or "the format-version directory (``v8``, ...)".
_CACHE_VERSION = re.compile(r"(?:\.cache/repro/|└── |directory \(``)(v\d+)\b")

#: Public names the README's repo map and quickstart snippet rely on.
README_SYMBOLS = [
    "BuildSideCache",
    "CardinalitySource",
    "Executor",
    "WorkloadRunner",
    "ZeroShotCostModel",
    "ZeroShotFeaturizer",
    "collect_training_corpus",
    "execute_plan",
    "generate_training_database_specs",
    "make_benchmark_workload",
    "make_imdb_database",
]


def _doc_references(relative_path: str) -> list[str]:
    text = (REPO_ROOT / relative_path).read_text(encoding="utf-8")
    return sorted(set(_REFERENCE.findall(text)))


def _resolve(dotted: str):
    """Import the longest module prefix, then getattr the rest."""
    parts = dotted.split(".")
    module = None
    index = len(parts)
    while index > 0:
        try:
            module = importlib.import_module(".".join(parts[:index]))
            break
        except ModuleNotFoundError:
            index -= 1
    if module is None:
        raise AssertionError(f"no importable prefix in {dotted!r}")
    obj = module
    for attribute in parts[index:]:
        obj = getattr(obj, attribute)
    return obj


class TestDocsExist:
    @pytest.mark.parametrize("path", DOC_FILES)
    def test_document_present_and_substantial(self, path):
        document = REPO_ROOT / path
        assert document.is_file(), f"{path} is missing"
        assert len(document.read_text(encoding="utf-8")) > 1_000, \
            f"{path} looks like a stub"

    def test_readme_covers_all_subpackages(self):
        """The repo map must name every repro subpackage."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        package_root = REPO_ROOT / "src" / "repro"
        subpackages = sorted(
            p.name for p in package_root.iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        )
        assert len(subpackages) >= 12
        for name in subpackages:
            assert f"`repro.{name}`" in readme, \
                f"README repo map does not mention repro.{name}"


class TestMarkerTable:
    def test_testing_doc_lists_exactly_the_registered_markers(self):
        """docs/TESTING.md's marker table and pytest.ini must agree."""
        config = configparser.ConfigParser()
        config.read(REPO_ROOT / "pytest.ini", encoding="utf-8")
        registered = {line.split(":")[0].strip()
                      for line in config["pytest"]["markers"].splitlines()
                      if line.strip()}
        testing = (REPO_ROOT / "docs/TESTING.md").read_text(encoding="utf-8")
        documented = set(re.findall(
            r"^\| `(\w+)` \|.*`-m \"not \1\"` \|$", testing, re.MULTILINE))
        assert documented == registered


class TestReferencesResolve:
    @pytest.mark.parametrize("path", DOC_FILES)
    def test_every_backticked_reference_resolves(self, path):
        references = _doc_references(path)
        assert references, f"{path} contains no repro.* references"
        for dotted in references:
            _resolve(dotted)  # raises if the doc references dead code

    def test_readme_symbols_exported(self):
        import repro.engine
        import repro.workload
        namespaces = (repro, repro.engine, repro.workload)
        for name in README_SYMBOLS:
            assert any(hasattr(ns, name) for ns in namespaces), \
                f"README references {name}, which no public namespace exports"


class TestCachePaths:
    def test_every_cache_path_names_the_current_format(self):
        """A store path in the docs that names an older format version
        sends a reader to a directory the code no longer writes."""
        versions = {path: _CACHE_VERSION.findall(
            (REPO_ROOT / path).read_text(encoding="utf-8"))
            for path in DOC_FILES}
        assert versions["README.md"] and versions["docs/TRAINING.md"]
        stale = {path: found for path, found in versions.items()
                 if set(found) - {CACHE_FORMAT_VERSION}}
        assert not stale, f"docs name a stale store version: {stale}"

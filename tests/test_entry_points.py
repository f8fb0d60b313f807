"""Console entry points: every declared script must resolve to a real
callable, and every experiment driver must be exposed as a script.

``pip install`` is unavailable in the offline test environment, so the
declarations in ``setup.py`` are parsed textually and resolved against
the live package instead of via ``importlib.metadata``.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``name = module:function`` inside the console_scripts block.
_ENTRY = re.compile(r'"([\w-]+)\s*=\s*([\w.]+):(\w+)"')

EXPECTED_SCRIPTS = {
    "repro-cache": "repro.experiments.cache",
    "repro-cardinality": "repro.experiments.cardinality_exp",
    "repro-figure3": "repro.experiments.figure3",
    "repro-table1": "repro.experiments.table1",
    "repro-learning-curve": "repro.experiments.learning_curve",
    "repro-fewshot": "repro.experiments.fewshot_exp",
    "repro-ablations": "repro.experiments.ablations",
    "repro-resources": "repro.experiments.resources",
    "repro-hardware": "repro.experiments.hardware",
}


def _declared_scripts() -> dict[str, tuple[str, str]]:
    text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
    return {name: (module, function)
            for name, module, function in _ENTRY.findall(text)}


def test_all_experiment_drivers_have_scripts():
    declared = _declared_scripts()
    for script, module in EXPECTED_SCRIPTS.items():
        assert script in declared, f"setup.py lacks {script}"
        assert declared[script][0] == module


@pytest.mark.parametrize("script,target", sorted(_declared_scripts().items()))
def test_declared_targets_resolve(script, target):
    module_name, function_name = target
    module = importlib.import_module(module_name)
    function = getattr(module, function_name)
    assert callable(function), f"{script} -> {module_name}:{function_name}"


@pytest.mark.parametrize("module", sorted(EXPECTED_SCRIPTS.values()))
def test_module_runs_once_as_main(module):
    """``python -m repro.experiments.<module>`` must not find the module
    already imported: a package ``__init__`` that imports its drivers
    makes runpy execute each one twice, which it reports as a
    ``RuntimeWarning`` -- an error here."""
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
         "--help"], capture_output=True, text=True, env=environment,
        timeout=120)
    assert completed.returncode == 0, completed.stderr

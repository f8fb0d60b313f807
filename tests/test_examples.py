"""Examples smoke-test: documented entry points must stay runnable.

Runs the README's two headline examples in-process (not via a
subprocess, so coverage and import errors surface normally).  The
examples train real models on small fleets, so these are the slowest
tier-1 tests — but they are exactly what a new user runs first.  The
database tour trains nothing and runs in well under a second.
"""

import importlib.util
import re
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def test_quickstart_runs(capsys):
    _load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "Zero-shot Q-errors on the unseen database" in out
    assert "Sample predictions" in out


def test_plan_selection_runs(capsys):
    _load_example("plan_selection").main()
    out = capsys.readouterr().out
    assert "plans changed by the learned selector" in out
    assert "workload runtime, zero-shot selection" in out


def test_database_tour_runs(capsys):
    """The tour's what-if section shows a hypothetical index changing
    the optimizer's plan, not just repeating it."""
    _load_example("database_tour").main()
    out = capsys.readouterr().out
    before, after = re.search(
        r"optimizer cost: ([\d.]+) -> ([\d.]+) with the hypothetical index",
        out).groups()
    assert before != after
    assert "using whatif_title_votes" in out

"""Dependency hygiene: ``src/repro`` imports stdlib, numpy and itself.

``setup.py`` promises a numpy-only install; an import of anything else
(a stray ``networkx`` or ``scipy``) must fail here, not on a user's
machine.
"""

import ast
import collections
import dataclasses
import functools
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import repro.nn
from repro.models import TrainerConfig, ZeroShotConfig
from repro.models.e2e import E2EConfig
from repro.models.mscn import MSCNConfig
from repro.nn import MLP, RowState, Tensor

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def _top_level_imports(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_source_imports_only_stdlib_numpy_and_repro():
    sources = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE_ROOT}"
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): sorted(foreign)
        for path in sources
        if (foreign := _top_level_imports(path) - ALLOWED)
    }
    assert not offenders, f"third-party imports in src/repro: {offenders}"


def _ufunc_at_uses(path: Path) -> list[str]:
    """``np.<ufunc>.at`` attribute accesses (``np.add.at`` and friends),
    under whatever name the module imported numpy."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }
    return [
        f"{node.value.value.id}.{node.value.attr}.at:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "at"
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id in numpy_names
    ]


def test_source_never_scatters_through_ufunc_at():
    """``ufunc.at`` is ~25x slower than the fancy-index assignment the
    row primitives of ``repro.nn.tensor`` use (``scatter_rows``,
    ``gather_sum``, ``RowState.level``); a new op must build on
    those, not bring the slow scatter back."""
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): uses
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if (uses := _ufunc_at_uses(path))
    }
    assert not offenders, f"ufunc.at under src/repro: {offenders}"


def test_ufunc_at_guard_sees_what_it_guards(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import numpy as np\nimport numpy\n"
                      "np.add.at(a, i, v)\nnumpy.maximum.at(a, i, v)\n"
                      "frame.at[0]\n")
    assert _ufunc_at_uses(sample) == ["np.add.at:3", "numpy.maximum.at:4"]


def _deepcopy_uses(path: Path) -> list[str]:
    """``copy.deepcopy`` calls and ``from copy import deepcopy``,
    under whatever name the module imported ``copy``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    copy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "copy"
    }
    return [
        f"{node.value.id}.deepcopy:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "deepcopy"
        and isinstance(node.value, ast.Name) and node.value.id in copy_names
    ] + [
        f"from copy import deepcopy:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "copy"
        and any(alias.name == "deepcopy" for alias in node.names)
    ]


def test_planner_and_plans_never_deepcopy():
    """Plan nodes are shared by the DP's candidates and a finished plan
    is a tree (``PhysicalPlan`` checks it); copying a subtree per
    candidate was 88 % of planning time.  A new join strategy must
    reference its inputs, not clone them."""
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): uses
        for package in ("optimizer", "plans")
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py"))
        if (uses := _deepcopy_uses(path))
    }
    assert not offenders, f"deepcopy in the planner: {offenders}"


def test_deepcopy_guard_sees_what_it_guards(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import copy\nimport copy as cp\n"
                      "from copy import deepcopy\n"
                      "copy.deepcopy(node)\ncp.deepcopy(node)\n"
                      "copy.copy(node)\nnode.deepcopy()\n")
    assert _deepcopy_uses(sample) == [
        "copy.deepcopy:4", "cp.deepcopy:5", "from copy import deepcopy:3"]


CLOCKS = {"perf_counter", "perf_counter_ns", "time", "time_ns", "monotonic",
          "monotonic_ns"}


def _clock_reads(path: Path) -> list[str]:
    """Calls of a wall clock of ``time`` (under whatever name the module
    imported it or the clock), and test functions that take the
    ``benchmark`` fixture, by line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    time_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "time"
    }
    clock_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "time"
        for alias in node.names if alias.name in CLOCKS
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in CLOCKS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in time_names):
                reads.append((node.lineno, f"{func.value.id}.{func.attr}"))
            elif isinstance(func, ast.Name) and func.id in clock_names:
                reads.append((node.lineno, func.id))
        elif (isinstance(node, ast.FunctionDef)
              and node.name.startswith("test")
              and any(arg.arg == "benchmark" for arg in node.args.args)):
            reads.append((node.lineno, f"{node.name}(benchmark)"))
    return [f"{name}:{line}" for line, name in sorted(reads)]


def test_tests_read_no_wall_clock():
    """Tier-1 checks behaviour; ``python3 -m bench`` measures speed with
    bounds.  A timer in a test re-measures what ``bench`` measures and
    throws the number away, and a ratio asserted on it fails by the
    machine's load.  Assert a count of work or a bit-identity instead."""
    sources = [path for directory in ("tests", "benchmarks")
               for path in sorted((REPO_ROOT / directory).rglob("*.py"))]
    assert sources, f"no tests under {REPO_ROOT}"
    offenders = {
        str(path.relative_to(REPO_ROOT)): reads
        for path in sources if (reads := _clock_reads(path))
    }
    assert not offenders, f"wall-clock reads in tests: {offenders}"


def test_clock_guard_sees_what_it_guards(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import time\nimport time as t\n"
                      "from time import perf_counter as pc, sleep\n"
                      "time.perf_counter()\nt.monotonic()\npc()\n"
                      "time.time()\ntime.sleep(0.1)\nsleep(0.1)\n"
                      "def test_timed(benchmark):\n    benchmark(f)\n"
                      "def helper(benchmark):\n    pass\n")
    assert _clock_reads(sample) == [
        "time.perf_counter:4", "t.monotonic:5", "pc:6", "time.time:7",
        "test_timed(benchmark):10"]


#: Functions every featurizer and batcher must share, not re-define.
SINGLE_DEFINITIONS = ({"levels"}, {"normalized_literal", "_normalized_literal"})


def _function_definitions(path: Path, names: set[str]) -> list[str]:
    """Functions and methods in ``path`` named one of ``names``."""
    return [
        f"{node.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]


def test_levelling_and_literal_normalization_are_defined_once():
    """E2E once carried its own copy of ``PlanGraph.levels`` and both
    baselines their own ``_normalized_literal``; the next baseline
    imports ``repro.featurize.graph.node_levels`` and
    ``repro.featurize.vocabulary`` instead of bringing a third."""
    for names in SINGLE_DEFINITIONS:
        found = {
            str(path.relative_to(PACKAGE_ROOT)): definitions
            for path in sorted(PACKAGE_ROOT.rglob("*.py"))
            if (definitions := _function_definitions(path, names))
        }
        count = sum(len(definitions) for definitions in found.values())
        assert count <= 1, f"{sorted(names)} defined {count} times: {found}"


def test_single_definition_guard_sees_what_it_guards(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def levels(n, edges): ...\n"
                      "class Graph:\n"
                      "    def levels(self): ...\n"
                      "    def _normalized_literal(self): ...\n"
                      "levels = None\nnode_levels = levels\n")
    assert _function_definitions(sample, {"levels"}) == \
        ["levels:1", "levels:3"]
    assert _function_definitions(
        sample, {"normalized_literal", "_normalized_literal"}) == \
        ["_normalized_literal:4"]


def _foreign_private_reads(path: Path) -> list[str]:
    """Reads of an underscore-prefixed attribute the module does not
    itself define — as a function, method or class, a class-body field,
    a ``__slots__`` entry or an attribute it assigns somewhere."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            for statement in node.body:
                targets = (statement.targets
                           if isinstance(statement, ast.Assign)
                           else [statement.target]
                           if isinstance(statement, ast.AnnAssign) else [])
                defined.update(target.id for target in targets
                               if isinstance(target, ast.Name))
                if any(isinstance(target, ast.Name)
                       and target.id == "__slots__" for target in targets):
                    defined.update(ast.literal_eval(statement.value))
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    reads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and node.attr not in defined
    ]
    reads.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.attr}:{node.lineno}" for node in reads]


def test_engine_reads_no_private_attribute_of_another_layer():
    """The executor once read ``Index._sorted_values`` /
    ``._sorted_order`` to spell out a batched lookup itself; what the
    engine needs of ``repro.db`` (or of numpy) it asks for by a public
    name — here ``Index.lookup_many`` — so the owner can change how it
    stores things."""
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): reads
        for path in sorted((PACKAGE_ROOT / "engine").rglob("*.py"))
        if (reads := _foreign_private_reads(path))
    }
    assert not offenders, f"foreign private attributes read: {offenders}"


def test_private_read_guard_sees_what_it_guards(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("class Mine:\n"
                      "    __slots__ = ('_slot',)\n"
                      "    _field: int\n"
                      "    _table = {}\n"
                      "    def __init__(self):\n"
                      "        self._made = 1\n"
                      "    def _helper(self, other, index):\n"
                      "        self._made + other._field + other._slot\n"
                      "        Mine._table, self._helper, self.__dict__\n"
                      "        return index._sorted_values[index._order]\n"
                      "_module_level = 1\n"
                      "def use(thing):\n"
                      "    return thing._module_level\n")
    assert _foreign_private_reads(sample) == [
        "_sorted_values:10", "_order:10", "_module_level:13"]


#: The learned and closed-form core models under the estimator contract.
CORE_MODELS = {"ZeroShotCostModel", "FlatVectorCostModel", "MSCNCostModel",
               "E2ECostModel", "ScaledOptimizerCost"}


def _core_model_imports(path: Path) -> list[str]:
    """Core model classes ``path`` imports or reaches through a module."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom)
            else [node.attr] if isinstance(node, ast.Attribute) else [])
        if name in CORE_MODELS
    ]


def test_consumers_see_only_the_estimator_contract():
    """Plan selection, learned cardinalities and the advisors take a
    fitted ``CostEstimator`` and nothing else; a consumer that imports a
    core model class is about to accept, unwrap or re-wrap one, which is
    how a raw model once bypassed the estimated-cardinality check."""
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): uses
        for package in ("optimizer", "tuning")
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py"))
        if (uses := _core_model_imports(path))
    }
    assert not offenders, (
        f"core model classes imported by a consumer: {offenders}; take a "
        f"CostEstimator (ZeroShotEstimator(model=...) wraps a core model)")


def test_core_model_guard_sees_what_it_guards(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from repro.models.zero_shot import ZeroShotCostModel\n"
                      "from repro.models import ZeroShotEstimator, mscn\n"
                      "import repro.models.optimizer_cost\n"
                      "mscn.MSCNCostModel\n"
                      "repro.models.optimizer_cost.ScaledOptimizerCost()\n"
                      "estimator.model\n")
    assert _core_model_imports(sample) == [
        "ZeroShotCostModel:1", "MSCNCostModel:4", "ScaledOptimizerCost:5"]


# ----------------------------------------------------------------------
# A package holds what its users refer to, and nothing else
# ----------------------------------------------------------------------
def _names_used(source: str, skip_class: str | None = None) -> set[str]:
    """Every name ``source`` refers to outside the body of ``skip_class``:
    variables, attributes, keyword arguments, imported names and string
    constants (an op chosen by name: ``activation="relu"``)."""
    used = set()
    pending = [ast.parse(source)]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ClassDef) and node.name == skip_class:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            used.add(node.arg)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        pending.extend(ast.iter_child_nodes(node))
    return used


def _readme_python_blocks(readme: str) -> list[str]:
    """The fenced ``python`` blocks of ``readme``: the calls it promises."""
    return re.findall(r"^```python\n(.*?)^```", readme,
                      re.DOTALL | re.MULTILINE)


@functools.cache
def _user_sources() -> dict[str, str]:
    """What counts as a user, ``{label: source}``: every module under
    ``src/repro``, ``bench/`` and ``examples/``, and README's ``python``
    blocks.  Tests are not users."""
    paths = sorted(PACKAGE_ROOT.rglob("*.py"))
    for users in ("bench", "examples"):
        paths += sorted((REPO_ROOT / users).rglob("*.py"))
    sources = {str(path): path.read_text(encoding="utf-8") for path in paths}
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for number, block in enumerate(_readme_python_blocks(readme)):
        sources[f"README.md[{number}]"] = block
    return sources


@functools.cache
def _names_by_user() -> dict[str, set[str]]:
    return {label: _names_used(source)
            for label, source in _user_sources().items()}


@functools.cache
def _names_used_outside(package: str, skip_class=None) -> set[str]:
    """:func:`_names_used` over every user outside ``repro/<package>``."""
    inside = str(PACKAGE_ROOT / package) + "/"
    return set().union(*(
        _names_by_user()[label] if skip_class is None
        else _names_used(source, skip_class)
        for label, source in _user_sources().items()
        if not label.startswith(inside)))


def _names_the_users_of_the_learned_stack_use(skip_class=None) -> set[str]:
    used = _names_used_outside("nn", skip_class)
    if "MLP" in used:
        # Building an MLP without naming an activation selects this one.
        used = used | {inspect.signature(MLP).parameters["activation"]
                       .default}
    return used


def _public_methods(cls) -> list[str]:
    return [name for name in vars(cls)
            if not name.startswith("_") and callable(getattr(cls, name))]


CONFIGS = (TrainerConfig, ZeroShotConfig, E2EConfig, MSCNConfig)
#: ``(name, the class whose own body does not count as a user)``.
LEARNED_STACK_NAMES = (
    [pytest.param(name, None, id=f"nn.{name}") for name in repro.nn.__all__]
    + [pytest.param(name, None, id=f"{cls.__name__}.{name}")
       for cls in (Tensor, RowState) for name in _public_methods(cls)]
    + [pytest.param(field.name, cls.__name__,
                    id=f"{cls.__name__}.{field.name}")
       for cls in CONFIGS for field in dataclasses.fields(cls)])


@pytest.mark.parametrize("name, owner", LEARNED_STACK_NAMES)
def test_learned_stack_name_has_a_user_outside_repro_nn(name, owner):
    """An export of ``repro.nn``, a public ``Tensor`` / ``RowState``
    method or a config field that only tests (or ``repro.nn`` itself)
    refer to is deleted, not kept for later: every op is rewritten by
    each change of the tape, every option doubles what must be tested.
    What only ``repro.nn`` uses is imported from its module, not
    exported."""
    assert name in _names_the_users_of_the_learned_stack_use(owner), (
        f"{name!r} is referred to nowhere under src/repro outside repro/nn "
        f"or under bench/ or examples/: delete it (or drop it from "
        f"repro.nn.__all__)")


#: The ops of ``repro.nn.tensor``: the names its ``__all__`` holds and
#: ``repro.nn`` does not re-export (those the rule above holds).
TENSOR_OPS = [pytest.param(name, id=f"nn.tensor.{name}")
              for name in repro.nn.tensor.__all__
              if name not in repro.nn.__all__]


@pytest.mark.parametrize("name", TENSOR_OPS)
def test_tensor_op_has_a_user_outside_its_module(name):
    """The ops took over from the public ``Tensor`` methods, and keep
    their rule one module down: an op that only ``repro.nn.tensor``
    itself (or a test) calls is made private or deleted."""
    module = str(PACKAGE_ROOT / "nn" / "tensor.py")
    assert _user_counts()[name] - (name in _names_by_user()[module]), (
        f"repro.nn.tensor.{name} is referred to nowhere outside its module "
        f"under src/repro, bench/ or examples/: delete it, or prefix it "
        f"with an underscore")


#: Every package but ``repro.nn``, which has the stricter rule above.
GUARDED_PACKAGES = ("db", "engine", "experiments", "featurize", "models",
                    "optimizer", "plans", "runtime", "serve", "sql", "tuning",
                    "workload")
#: ``(package, exported name)`` for the packages held to the same rule.
PACKAGE_EXPORTS = [
    pytest.param(package, name, id=f"{package}.{name}")
    for package in GUARDED_PACKAGES
    for name in importlib.import_module(f"repro.{package}").__all__]


@pytest.mark.parametrize("package, name", PACKAGE_EXPORTS)
def test_package_export_has_a_user_outside_its_package(package, name):
    """A name in a package's ``__all__`` that only the package itself
    (or a test) refers to is imported from its module, not exported."""
    assert name in _names_used_outside(package), (
        f"{name!r} is referred to nowhere under src/repro outside "
        f"repro/{package}, under bench/ or examples/ or in README's python "
        f"blocks: drop it from repro.{package}.__all__ (or delete it)")


def _public_members(cls) -> list[str]:
    """The methods and properties ``cls`` itself defines, by public name."""
    kinds = (staticmethod, classmethod, property, functools.cached_property)
    return [name for name, member in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(member) or isinstance(member, kinds))]


def _source_classes():
    """``(module path, class)`` for every top-level class under src/repro."""
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        module = importlib.import_module(
            ".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ \
                    and cls.__qualname__ == cls.__name__:
                yield path, cls


@functools.cache
def _user_counts() -> collections.Counter:
    """How many users refer to each name."""
    return collections.Counter(
        name for names in _names_by_user().values() for name in names)


@functools.cache
def _names_used_beside(path: Path, class_name: str) -> set[str]:
    return _names_used(_user_sources()[str(path)], class_name)


def _used_outside_class(name: str, path: Path, class_name: str) -> bool:
    """Whether a user refers to ``name`` outside the body of
    ``class_name``: any user but ``path``, the module defining it, or
    ``path`` outside that body."""
    elsewhere = _user_counts()[name] - (name in _names_by_user()[str(path)])
    return elsewhere > 0 or name in _names_used_beside(path, class_name)


PUBLIC_MEMBERS = [
    pytest.param(path, cls.__name__, name, id=f"{cls.__module__[6:]}."
                 f"{cls.__name__}.{name}")
    for path, cls in _source_classes() for name in _public_members(cls)]


@pytest.mark.parametrize("path, class_name, name", PUBLIC_MEMBERS)
def test_public_method_has_a_user_outside_its_class(path, class_name, name):
    """A public method or property that only its own class (or a test)
    calls is deleted, or made private if the class needs it."""
    assert _used_outside_class(name, path, class_name), (
        f"{class_name}.{name} is referred to nowhere outside the body of "
        f"{class_name} under src/repro, bench/ or examples/ or in README's "
        f"python blocks: delete it, or prefix it with an underscore")


def test_learned_stack_guard_sees_what_it_guards():
    sample = ("from repro.nn import Adam, functional as F\n"
              "import repro.nn.serialize\n"
              "class Config:\n"
              "    planted_field: int = 0\n"
              "    def check(self):\n"
              "        return self.planted_field\n"
              "def fit(config, net):\n"
              "    MLP(3, [4], 1, rng, activation='relu')\n"
              "    Adam(net.parameters(), lr=config.learning_rate)\n"
              "    return F.q_loss(out, labels).backward()\n")
    used = _names_used(sample, skip_class="Config")
    assert {"Adam", "functional", "serialize", "MLP", "activation", "relu",
            "parameters", "lr", "learning_rate", "q_loss",
            "backward"} <= used
    # A field only its own dataclass reads; a method nobody calls.
    assert "planted_field" not in used
    assert "planted_field" in _names_used(sample)
    assert "planted_op" not in _names_the_users_of_the_learned_stack_use()
    # A package's own modules are not its users; another package's are.
    assert "JoinHashTable" not in _names_used_outside("engine")
    assert "JoinHashTable" in _names_used_outside("optimizer")
    # The guard guards something: the lists it walks are not empty.
    assert {"RowState", "rank_rounds"} <= set(repro.nn.__all__)
    assert {"abs", "gather_sum", "scatter_rows"} <= {
        param.values[0] for param in TENSOR_OPS}
    assert {"backward", "item"} <= set(_public_methods(Tensor))
    assert "shape" not in _public_methods(Tensor)  # a property, not an op
    assert _public_methods(RowState) == ["level", "hand_over"]

    # A method only its own class calls, beside a private helper: the
    # method is listed and has no user, the helper is not listed.
    planted = ("class Schema:\n"
               "    def only_mine(self):\n"
               "        return self._helper()\n"
               "    @property\n"
               "    def entry(self):\n"
               "        return self.only_mine()\n"
               "    def _helper(self):\n"
               "        return 0\n"
               "Schema().entry\n")
    namespace = {}
    exec(planted, namespace)
    assert _public_members(namespace["Schema"]) == ["only_mine", "entry"]
    outside = _names_used(planted, skip_class="Schema")
    assert "entry" in outside and "only_mine" not in outside
    # The same on the tree: a private method only its class calls.
    index_module = PACKAGE_ROOT / "db" / "index.py"
    assert not _used_outside_class("_is_built", index_module, "Index")
    assert _used_outside_class("lookup_many", index_module, "Index")
    # A name only a README python block uses has a user; other fenced
    # blocks (shell, directory trees) are not code.
    readme = ("```bash\nplanted_shell_name --flag\n```\n"
              "```python\nserver.stats.planted_readme_name\n```\n")
    (block,) = _readme_python_blocks(readme)
    assert "planted_readme_name" in _names_used(block)
    assert "planted_shell_name" not in _names_used(block)
    assert "latency_p99" in _names_used_outside("serve")
    assert not [label for label, names in _names_by_user().items()
                if "latency_p99" in names and not label.startswith("README")]
    # Every package is held to a rule, and the method rule walks every
    # module's classes.
    packages = {path.parent.name
                for path in PACKAGE_ROOT.glob("*/__init__.py")}
    assert packages == set(GUARDED_PACKAGES) | {"nn"}
    classes = {cls.__name__ for _, cls in _source_classes()}
    assert {"Schema", "Tensor", "PredictionServer", "ArtifactStore",
            "ZeroShotNet", "HardwareAdvisor"} <= classes

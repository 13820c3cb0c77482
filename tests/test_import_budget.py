"""What each entry point may import: counts and names, never times.

Every case runs one entry of ``tools/import_report.py`` in a fresh
interpreter and reads back ``sys.modules``.  The README quickstart must
load no feature layer; entering a feature (strict registration, a
journal, instrumentation, a CLI subcommand) may add that feature's
modules and nothing else.  The last test keeps ``import`` statements
out of the functions that run once per step.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
try:
    from import_report import loaded_modules
finally:
    sys.path.pop(0)

#: layers that only a feature-entry function may import
FEATURE_LAYERS = (
    "repro.obs", "repro.store", "repro.shard", "repro.ingest", "repro.lint",
    "repro.analysis", "repro.active", "repro.workloads", "repro.cli",
    "repro.core.persist", "repro.core.adom", "repro.core.future",
    "repro.core.builder", "repro.core.diagnose", "repro.core.explain",
)
HEAVY_STDLIB = (
    "sqlite3", "multiprocessing", "argparse", "platform", "statistics",
    "dataclasses", "inspect",
)


def under(module, prefixes):
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def of_repro(modules):
    return {m for m in modules if under(m, ("repro",))}


@pytest.fixture(scope="module")
def quickstart():
    return set(loaded_modules("quickstart"))


def test_the_quickstart_loads_no_feature_layer(quickstart):
    assert sorted(
        m for m in quickstart if under(m, FEATURE_LAYERS + HEAVY_STDLIB)
    ) == []


def test_the_quickstart_stays_within_its_module_budget(quickstart):
    # 76 repro modules (171 in all) when every package imported eagerly.
    # The entry runs under ``python -S``: no .pth startup hook is counted
    assert "site" not in quickstart
    assert len(of_repro(quickstart)) <= 35
    # 115 counted with a bare ``site``; without ``site`` (``site``,
    # ``_sitebuiltins``) 113
    assert len(quickstart) <= 113


@pytest.mark.parametrize("entry, allowed", [
    ("strict", ("repro.lint", "repro.analysis", "repro.core.bounds")),
    ("journal", ("repro.core.persist", "repro.store")),
    ("instrument", ("repro.obs",)),
])
def test_a_feature_adds_only_its_own_modules(quickstart, entry, allowed):
    loaded = set(loaded_modules(entry))
    added = of_repro(loaded) - of_repro(quickstart)
    assert added, f"{entry} should have imported its feature"
    assert sorted(m for m in added if not under(m, allowed)) == []
    # the journal's checkpoints spill nothing here: no cold tier yet
    assert sorted(m for m in loaded if under(m, HEAVY_STDLIB)) == []


def test_cli_lint_loads_no_run_time_layer():
    loaded = loaded_modules("cli-lint")
    forbidden = ("repro.shard", "repro.store", "repro.ingest", "repro.obs",
                 "repro.core.persist", "repro.core.monitor", "sqlite3",
                 "multiprocessing")
    assert sorted(m for m in loaded if under(m, forbidden)) == []


def test_cli_check_loads_no_layer_it_was_not_asked_for():
    loaded = loaded_modules("cli-check")
    forbidden = ("repro.shard", "repro.store", "repro.ingest", "repro.obs",
                 "repro.core.persist", "sqlite3", "multiprocessing")
    assert sorted(m for m in loaded if under(m, forbidden)) == []


def test_version_and_help_import_no_engine():
    assert sorted(of_repro(loaded_modules("cli-version"))) == [
        "repro", "repro._lazy", "repro.cli", "repro.core", "repro.errors",
    ]


# ----------------------------------------------------------------------
# the step path imports nothing
# ----------------------------------------------------------------------

SRC = ROOT / "src" / "repro"
#: modules where no function may import
STEP_PATH_MODULES = (
    "core/engine.py", "core/views.py", "core/auxiliary.py",
    "core/foeval.py", "db/algebra.py",
)
#: (module, class, method): bodies that may not import
STEP_PATH_METHODS = (
    ("core/monitor.py", "Monitor", "_step"),
    ("shard/worker.py", "ShardServer", "serve"),
)


def imports_within(node):
    return [
        f"line {sub.lineno}" for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    ]


def functions_of(tree):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_no_function_level_import_on_the_step_path():
    # a function-level import is a sys.modules lookup and the import
    # lock on every call: fine where a feature is entered, not per step
    found = {}
    for name in STEP_PATH_MODULES:
        tree = ast.parse((SRC / name).read_text())
        lines = [
            line for function in functions_of(tree)
            for line in imports_within(function)
        ]
        if lines:
            found[name] = lines
    for name, owner, method in STEP_PATH_METHODS:
        tree = ast.parse((SRC / name).read_text())
        bodies = [
            item for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == owner
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == method
        ]
        assert len(bodies) == 1, (name, owner, method)
        if imports_within(bodies[0]):
            found[f"{name}:{owner}.{method}"] = imports_within(bodies[0])
    assert found == {}

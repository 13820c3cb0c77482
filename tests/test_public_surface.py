"""The public surface of the thirteen packages, pinned against a snapshot.

The packages resolve their re-exported names lazily (``repro._lazy``);
this suite keeps the laziness invisible: every name of every
``__all__`` is the object it was when the ``__init__`` files imported
everything eagerly (``tests/data/public_surface.json`` was recorded at
that commit: type, ``__module__`` and ``__qualname__`` per name).
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import repro

SNAPSHOT = json.loads(
    (Path(__file__).parent / "data" / "public_surface.json").read_text()
)
PACKAGES = sorted(SNAPSHOT)
SRC = str(Path(repro.__file__).resolve().parents[1])


def identity(obj):
    return [
        type(obj).__name__,
        getattr(obj, "__module__", None),
        getattr(obj, "__qualname__", None),
    ]


def fresh_interpreter(code):
    done = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def collisions(package):
    """Re-exported names that are also submodules of ``package``."""
    module = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    return sorted(
        name for name in submodules & set(module.__all__)
        if not isinstance(getattr(module, name), ModuleType)
    )


def test_the_snapshot_covers_the_thirteen_packages():
    assert len(PACKAGES) == 13
    assert sum(len(names) for names in SNAPSHOT.values()) == 337


@pytest.mark.parametrize("package", PACKAGES)
class TestSurface:
    def test_all_is_the_snapshot(self, package):
        module = importlib.import_module(package)
        assert sorted(module.__all__) == sorted(SNAPSHOT[package])
        assert len(set(module.__all__)) == len(module.__all__)

    def test_every_name_is_the_object_it_was(self, package):
        module = importlib.import_module(package)
        got = {name: identity(getattr(module, name)) for name in module.__all__}
        assert got == SNAPSHOT[package]

    def test_the_lazy_table_is_all(self, package):
        module = importlib.import_module(package)
        assert set(module.__lazy__) == set(module.__all__)

    def test_dir_lists_every_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import_binds_every_name(self, package):
        # in a fresh interpreter: nothing resolved beforehand
        names = json.loads(fresh_interpreter(
            f"import json\nfrom {package} import *\n"
            f"import {package} as package\n"
            "print(json.dumps(sorted("
            "n for n in package.__all__ if n in globals())))"
        ))
        assert names == sorted(SNAPSHOT[package])

    def test_an_unknown_attribute_names_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"'{package}'.*'no_such_name'"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")


class TestOptions:
    """Every independently settable value of the entry points a run is
    configured through (``tests/data/public_options.json``): a new
    parameter or flag is a diff of that file, not a default nobody
    sees."""

    OPTIONS = json.loads(
        (Path(__file__).parent / "data" / "public_options.json").read_text()
    )

    @staticmethod
    def parameters(qualified):
        import inspect

        from repro.core.checker import IncrementalChecker
        from repro.shard import ShardedMonitor

        owner, _, name = qualified.partition(".")
        function = getattr({
            "Monitor": repro.Monitor,
            "IncrementalChecker": IncrementalChecker,
            "ShardedMonitor": ShardedMonitor,
        }[owner], name)
        return [
            name for name in inspect.signature(function).parameters
            if name != "self"
        ]

    @staticmethod
    def subparsers():
        import argparse

        from repro.cli import build_arg_parser

        (commands,) = (
            action for action in build_arg_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        return commands.choices

    @classmethod
    def option_strings(cls, command):
        return sorted(
            option
            for action in cls.subparsers()[command.split()[-1]]._actions
            for option in action.option_strings
        )

    @pytest.mark.parametrize("qualified", sorted(OPTIONS["parameters"]))
    def test_parameter_names(self, qualified):
        assert self.parameters(qualified) == (
            self.OPTIONS["parameters"][qualified]
        )

    @pytest.mark.parametrize("command", sorted(OPTIONS["options"]))
    def test_command_line_options(self, command):
        assert self.option_strings(command) == (
            self.OPTIONS["options"][command]
        )

    def test_subcommands(self):
        assert sorted(self.subparsers()) == self.OPTIONS["subcommands"]


def test_version_is_a_plain_attribute():
    assert repro.__dict__["__version__"] == repro.__version__ == "1.0.0"


class TestSubmoduleNameCollisions:
    """A re-exported function spelled like the submodule that defines it
    must win over the module the import system binds on the package."""

    COLLIDING = {
        "repro.core": ["diagnose", "explain", "normalize", "optimize"],
        "repro.workloads": ["random_workload"],
    }

    def test_every_collision_is_listed(self):
        found = {package: collisions(package) for package in PACKAGES}
        assert {p: names for p, names in found.items() if names} == (
            self.COLLIDING
        )

    @pytest.mark.parametrize("package, name", [
        (package, name)
        for package, names in sorted(COLLIDING.items()) for name in names
    ])
    @pytest.mark.parametrize("order", ["submodule-first", "attribute-first"])
    def test_both_import_orders(self, package, name, order):
        first = f"import {package}.{name}"
        second = f"from {package} import {name} as by_attribute"
        if order == "attribute-first":
            first, second = second, first
        out = json.loads(fresh_interpreter(
            f"{first}\n{second}\n"
            f"import json, sys, {package} as package\n"
            f"from {package} import {name} as again\n"
            f"from {package}.{name} import {name} as defined\n"
            f"print(json.dumps([again is defined, "
            f"getattr(package, {name!r}) is defined, "
            f"type(sys.modules['{package}.{name}']).__name__]))"
        ))
        assert out == [True, True, "module"]

    def test_a_submodule_exported_as_itself_is_the_module(self):
        import repro.core
        import repro.core.builder as module

        assert repro.core.builder is module
        assert repro.builder is module


def test_values_pickle_in_an_interpreter_that_imported_only_repro():
    out = fresh_interpreter(
        "import pickle\n"
        "import repro\n"
        "from repro.shard import WorkerSpec\n"
        "schema = (repro.DatabaseSchema.builder()\n"
        "          .relation('p', [('k', 'int')]).build())\n"
        "monitor = repro.Monitor(schema)\n"
        "monitor.add_constraint('never', 'NOT p(1)')\n"
        "txn = repro.Transaction.builder().insert('p', (1,)).build()\n"
        "report = monitor.step(1, txn)\n"
        "spec = WorkerSpec(0, schema.to_dict(), [('never', 'NOT p(1)')])\n"
        "values = [txn, report, report.violations[0], spec]\n"
        "back = pickle.loads(pickle.dumps(values))\n"
        "assert back[:3] == values[:3], back\n"
        "assert [type(v) for v in back] == [type(v) for v in values]\n"
        "assert (back[3].shard, back[3].schema, back[3].constraints) == (\n"
        "    spec.shard, spec.schema, spec.constraints)\n"
        "print(' '.join(type(v).__name__ for v in back))\n"
    )
    assert out.split() == [
        "Transaction", "StepReport", "Violation", "WorkerSpec",
    ]

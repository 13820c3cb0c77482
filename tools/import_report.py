#!/usr/bin/env python3
"""What one entry point imports, and what each import costs.

    python3 tools/import_report.py [--entry quickstart|strict|journal|
        instrument|cli-lint|cli-check|cli-version] [--json]

Runs the entry in a fresh interpreter under ``-X importtime``, against a
copy of ``src/`` without ``__pycache__`` and with
``PYTHONDONTWRITEBYTECODE=1`` — as the benchmark runs, so every ``repro``
module is compiled from source — and prints the self time per package,
how many modules were loaded (``repro`` / all) and the ten dearest
modules.  ``--json`` prints the same as one document, for a CI artifact.

The child interpreter starts under ``-S``, without ``site``: the report
counts and prices what the entry imports, not what ``site`` and the
``.pth`` startup hooks of the interpreter's site-packages import (a CA
bundle hook that loads ``certifi``, setuptools'
``distutils-precedence.pth``, an editable install's finder).
``PYTHONPATH`` carries ``src``, and no entry needs site-packages: the
package declares no runtime dependency.  The ``-X importtime`` self times
leave the hook imports out too, so the ``--json`` reports of two
machines compare.

The entries are also what ``tests/test_import_budget.py`` runs: it
asserts *which* modules each one may load (counts, never times).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: the README quickstart up to its first verdict
QUICKSTART = """\
from repro import DatabaseSchema, Monitor, Transaction

schema = (DatabaseSchema.builder()
          .relation("checkout", [("patron", "str"), ("book", "int")])
          .relation("returned", [("patron", "str"), ("book", "int")])
          .build())
monitor = Monitor(schema{options})
monitor.add_constraint(
    "return-window", "returned(p, b) -> ONCE[0,14] checkout(p, b)")
{before_step}
txn = Transaction.builder().insert("checkout", ("ann", 7)).build()
assert monitor.step(1, txn).ok
"""

#: two files and one CLI invocation; the files are written by hand so
#: that nothing of ``repro`` is imported before the command itself
CLI = """\
import json, sys, tempfile
from pathlib import Path

work = Path(tempfile.mkdtemp(prefix="import-report-"))
(work / "schema.json").write_text(json.dumps({{
    "checkout": [["patron", "str"], ["book", "int"]],
    "returned": [["patron", "str"], ["book", "int"]]}}))
(work / "constraints.txt").write_text(
    "return-window: returned(p, b) -> ONCE[0,14] checkout(p, b);\\n")
(work / "history.jsonl").write_text(json.dumps(
    {{"t": 1, "insert": {{"checkout": [["ann", 7]]}}, "delete": {{}}}}) + "\\n")
argv = [a.replace("WORK", str(work)) for a in {argv!r}]
from repro.cli import main
status = main(argv)
import shutil
shutil.rmtree(work)
assert status == 0, status
"""

JOURNAL = """\
import tempfile
journal_dir = tempfile.mkdtemp(prefix="import-report-")
monitor.enable_journal(journal_dir, sync=False)"""

INSTRUMENT = """\
from repro.obs import MetricsRegistry, MonitorInstrumentation, Tracer
monitor.instrument(MonitorInstrumentation(Tracer(), MetricsRegistry()))"""

ENTRIES: Dict[str, str] = {
    "quickstart": QUICKSTART.format(options="", before_step=""),
    "strict": QUICKSTART.format(options=", strict=True", before_step=""),
    "journal": QUICKSTART.format(options="", before_step=JOURNAL)
    + "monitor.journal.close()\n"
    "import shutil\nshutil.rmtree(journal_dir)\n",
    "instrument": QUICKSTART.format(options="", before_step=INSTRUMENT),
    "cli-lint": CLI.format(argv=[
        "lint", "--schema", "WORK/schema.json",
        "--constraints", "WORK/constraints.txt"]),
    "cli-check": CLI.format(argv=[
        "check", "--schema", "WORK/schema.json",
        "--constraints", "WORK/constraints.txt",
        "--history", "WORK/history.jsonl"]),
    "cli-version": (
        "from repro.cli import main\n"
        "try:\n    main(['--version'])\n"
        "except SystemExit as done:\n    assert done.code == 0\n"
    ),
}

#: appended to an entry: the loaded modules, as the last stdout line
REPORT_MODULES = (
    "\nimport json as _json, sys as _sys\n"
    "print(_json.dumps(sorted(_sys.modules)))\n"
)

IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")


def run_entry(entry: str, src: Path = ROOT / "src", importtime: bool = False):
    """Run ``entry`` in a fresh interpreter without ``site``: (loaded
    modules, stderr)."""
    command = [sys.executable, "-S"]
    if importtime:
        command += ["-X", "importtime"]
    command += ["-c", ENTRIES[entry] + REPORT_MODULES]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if done.returncode:
        raise SystemExit(
            f"import_report: entry {entry!r} exited {done.returncode}\n"
            + "".join(done.stderr.splitlines(keepends=True)[-12:]))
    return json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1]), done.stderr


def loaded_modules(entry: str) -> List[str]:
    """Every name in ``sys.modules`` once ``entry`` has run."""
    return run_entry(entry)[0]


def package_of(module: str) -> str:
    parts = module.split(".")
    return ".".join(parts[:2]) if parts[0] == "repro" else parts[0]


def report(entry: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="import-report-") as scratch:
        # a stale __pycache__ would be read, and hide the compile time
        src = Path(scratch, "src")
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        modules, stderr = run_entry(entry, src, importtime=True)
    self_us = {}
    for line in stderr.splitlines():
        match = IMPORTTIME.match(line)
        if match:
            self_us[match.group(4)] = int(match.group(1))
    packages: Dict[str, int] = defaultdict(int)
    for module, micros in self_us.items():
        packages[package_of(module)] += micros
    return {
        "entry": entry,
        "modules": {
            "repro": sum(m == "repro" or m.startswith("repro.") for m in modules),
            "total": len(modules),
        },
        "import_self_ms": round(sum(self_us.values()) / 1000, 2),
        "package_self_ms": {
            name: round(micros / 1000, 2)
            for name, micros in sorted(packages.items(), key=lambda kv: -kv[1])
        },
        "dearest_modules_ms": {
            name: round(micros / 1000, 2)
            for name, micros in sorted(self_us.items(), key=lambda kv: -kv[1])[:10]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--entry", choices=sorted(ENTRIES), default="quickstart")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    result = report(args.entry)
    if args.json:
        print(json.dumps(result, indent=2))
        return 0
    counts = result["modules"]
    print(f"entry {args.entry}: {counts['repro']} repro modules, "
          f"{counts['total']} in all, {result['import_self_ms']} ms importing")
    print("self time per package (ms):")
    for name, millis in result["package_self_ms"].items():
        if millis >= 0.5:
            print(f"  {name:28s} {millis:8.2f}")
    print("dearest modules (ms):")
    for name, millis in result["dearest_modules_ms"].items():
        print(f"  {name:28s} {millis:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""perfbench — the repository's end-to-end and per-layer benchmark.

Six named workloads drive the public API of ``src/repro`` with seeded
traffic (:mod:`perfbench.loadgen`), check every verdict, and report the
end-to-end metrics with tracing off and the per-layer metrics from a
separate traced pass.  ``BENCHMARK.json`` at the repository root names
the command, the workloads and the metrics; ``perfbench/README.md`` is
the glossary.

The benchmark measures the checkout it sits in: ``src/`` next to this
package is put first on ``sys.path`` so that ``python3 -m perfbench``
needs no ``PYTHONPATH`` and never picks up an installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space (journals, traces); listed in .gitignore
OUT = Path(__file__).resolve().parent / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

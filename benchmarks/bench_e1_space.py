"""E1 — auxiliary space is independent of history length.

The paper's headline claim: the incremental checker's stored state
depends on the data and the constraint's metric horizon, not on how
long the history is.  We sweep the history length on the parametric
random workload (whose active domain is capped, so state sizes are
stationary) and record the incremental checker's peak and final
auxiliary tuple counts against the tuple count a full-history store
retains.

Expected shape: the incremental columns are flat (within noise); the
full-history column grows linearly; the ratio diverges.
"""

from repro.analysis.metrics import measure_run
from repro.workloads import random_workload

SEED = 101

PROFILES = {
    "short": [50, 100, 200, 400],
    "full": [50, 100, 200, 400, 800, 1600],
}

WORKLOAD = random_workload(universe_size=6, window=8, constraint_count=2)

HEADERS = [
    "history length",
    "incremental peak aux",
    "incremental final aux",
    "full-history tuples",
    "full/incremental",
]


def _naive_stored_tuples(stream):
    """Tuples a full-history store retains (no checker needed)."""
    history = stream.replay(WORKLOAD.schema)
    return sum(snapshot.state.total_rows for snapshot in history)


def run(recorder, profile="full"):
    lengths = PROFILES[profile]
    for length in lengths:
        stream = WORKLOAD.stream(length, seed=SEED)
        metrics = measure_run(WORKLOAD.checker(), stream)
        stored = _naive_stored_tuples(stream)
        recorder.row(
            HEADERS,
            [
                length,
                metrics.peak_space,
                metrics.final_space,
                stored,
                round(stored / max(1, metrics.peak_space), 1),
            ],
            title="auxiliary space vs history length "
                  f"(random workload, window 8, seed {SEED})",
        )
    recorder.expect_growth(
        "incremental aux space must not grow with history length",
        "incremental peak aux", max_order=0.3,
    )
    recorder.expect_growth(
        "the full-history store must grow linearly",
        "full-history tuples", min_order=0.8,
    )


def test_e1():
    from _experiments import run_for_pytest

    run_for_pytest("e1")

"""The E-series runner (``benchmarks/_experiments.py``): how a declared
paper shape is judged and reported.

``pytest benchmarks/`` is the one way to run the experiments, and a
shape that does not hold must fail that run by name, with the value
that was measured.  The runner is not a package module: it is loaded
from the ``benchmarks`` directory by path, the way its own
``bench_eN_*.py`` modules find it.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"

HEADERS = ["history length", "flat col", "linear col", "label col"]
ROWS = [
    [100, 10.0, 100, "a"],
    [200, 11.0, 200, "b"],
    [400, 10.5, 400, "c"],
    [800, 10.2, 800, "d"],
]


@pytest.fixture(scope="module")
def runner():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield importlib.import_module("_experiments")
    finally:
        sys.path.remove(str(BENCH_DIR))


@pytest.fixture
def recorder(runner):
    recorder = runner.Recorder("eX", "short")
    for row in ROWS:
        recorder.row(HEADERS, row, title="a synthetic sweep")
    return recorder


def failure(recorder):
    with pytest.raises(AssertionError) as raised:
        recorder.assert_shapes()
    return str(raised.value)


class TestPassingShapes:
    def test_every_kind_passes_on_the_shape_it_states(self, recorder):
        recorder.expect_flat("flat stays flat", "flat col")
        recorder.expect_growth(
            "linear grows linearly", "linear col",
            min_order=0.8, max_order=1.2,
        )
        recorder.expect_growth("flat does not grow", "flat col", max_order=0.3)
        recorder.expect_max("flat stays low", "flat col", limit=11.0)
        recorder.check("verdicts agree", True, detail="4 of 4")
        assert recorder.failures() == []
        recorder.assert_shapes()

    def test_nothing_declared_is_nothing_failed(self, recorder):
        recorder.assert_shapes()


class TestFailingShapes:
    def test_flat_broken_by_a_trend(self, recorder):
        recorder.expect_flat("must not trend", "linear col", 3.0)
        message = failure(recorder)
        assert message.startswith("eX: shape expectation(s) failed")
        assert "must not trend (max/min ratio 8.00 vs tolerance 3.0)" in message

    def test_growth_below_its_lower_bound(self, recorder):
        recorder.expect_growth("must grow", "flat col", min_order=0.8)
        message = failure(recorder)
        assert "must grow (fitted order 0.00 vs [0.8, inf])" in message

    def test_growth_above_its_upper_bound(self, recorder):
        recorder.expect_growth("must stay flat", "linear col", max_order=0.3)
        message = failure(recorder)
        assert "must stay flat (fitted order 1.00 vs [-inf, 0.3])" in message

    def test_growth_needs_two_points(self, runner):
        recorder = runner.Recorder("eX", "short")
        recorder.row(HEADERS, ROWS[0])
        recorder.expect_growth("must grow", "linear col", min_order=0.8)
        assert "must grow (fitted order n/a" in failure(recorder)

    def test_max_over_its_limit(self, recorder):
        recorder.expect_max("must stay low", "flat col", limit=10.0)
        assert "must stay low (peak 11 vs limit 10)" in failure(recorder)

    def test_failed_check_reports_its_detail(self, recorder):
        recorder.check("verdicts agree", False, detail="3 of 4 steps equal")
        assert "verdicts agree (3 of 4 steps equal)" in failure(recorder)

    def test_missing_series_is_a_failure_not_a_keyerror(self, recorder):
        recorder.expect_flat("must not trend", "gone")
        assert "must not trend (no column 'gone' in table)" in failure(recorder)

    def test_column_without_numbers_is_a_failure(self, recorder):
        recorder.expect_max("must stay low", "label col", limit=1.0)
        assert "must stay low (series has no data)" in failure(recorder)

    def test_every_failure_is_named(self, recorder):
        recorder.expect_flat("first", "linear col")
        recorder.expect_max("second", "flat col", limit=11.0)  # holds
        recorder.check("third", False)
        message = failure(recorder)
        assert "first" in message and "third" in message
        assert "second" not in message


class TestColumns:
    def test_non_numeric_sweep_falls_back_to_the_row_index(self, runner):
        recorder = runner.Recorder("eX", "short")
        headers = ["window", "peak aux"]
        for window, peak in (("2", 4), ("8", 16), ("*", 64)):
            recorder.row(headers, [window, peak])
        # against x = 0, 1, 2 (clamped, log-scaled) this still grows
        recorder.expect_growth("grows", "peak aux", min_order=0.05)
        recorder.assert_shapes()

    def test_none_cells_are_dropped(self, runner):
        recorder = runner.Recorder("eX", "short")
        headers = ["history length", "overhead ratio"]
        for length, ratio in ((50, None), (100, None), (200, 1.02)):
            recorder.row(headers, [length, ratio])
        recorder.expect_max("cheap", "overhead ratio", limit=1.05)
        recorder.assert_shapes()

    def test_headers_are_fixed_by_the_first_row(self, recorder):
        with pytest.raises(ValueError, match="headers changed"):
            recorder.row(["other"], [1])

    def test_unknown_profile_is_rejected(self, runner):
        with pytest.raises(ValueError, match="profile"):
            runner.Recorder("eX", "medium")


class TestRunExperiment:
    def test_writes_the_table_and_nothing_else(self, runner, tmp_path):
        recorder = runner.run_experiment("e1", "short", tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == ["e1.txt"]
        text = (tmp_path / "e1.txt").read_text()
        assert text.startswith("[e1] auxiliary space vs history length")
        assert "history length" in text and "incremental peak aux" in text
        assert recorder.profile == "short" and len(recorder.rows) == 4
        recorder.assert_shapes()

    def test_the_fifteen_experiments_are_registered(self, runner):
        assert list(runner.EXPERIMENTS) == [f"e{n}" for n in range(1, 16)]
        for module in runner.EXPERIMENTS.values():
            assert (BENCH_DIR / f"{module}.py").is_file()

"""End-to-end tests for the CLI (generate -> analyze -> check)."""

import pytest

from repro.cli import main


@pytest.fixture
def generated(tmp_path):
    out = tmp_path / "wl"
    status = main(
        [
            "generate",
            "--workload", "library",
            "--length", "60",
            "--seed", "3",
            "--violation-rate", "0.4",
            "--out", str(out),
        ]
    )
    assert status == 0
    return out


class TestGenerate:
    def test_writes_all_files(self, generated):
        assert (generated / "schema.json").exists()
        assert (generated / "history.jsonl").exists()
        assert (generated / "constraints.txt").exists()

    def test_all_workloads_generate(self, tmp_path):
        for name in ("library", "orders", "sensors", "random"):
            status = main(
                [
                    "generate", "--workload", name,
                    "--length", "10", "--out", str(tmp_path / name),
                ]
            )
            assert status == 0


class TestCheck:
    def test_detects_violations(self, generated, capsys):
        status = main(
            [
                "check",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "violation(s)" in out
        assert "checked 60 states" in out

    def test_quiet_mode(self, generated, capsys):
        status = main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
            ]
        )
        assert status == 1
        assert capsys.readouterr().out == ""

    def test_clean_history_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "clean"
        main(
            [
                "generate", "--workload", "library", "--length", "40",
                "--violation-rate", "0.0", "--out", str(out),
            ]
        )
        status = main(
            [
                "check",
                "--schema", str(out / "schema.json"),
                "--constraints", str(out / "constraints.txt"),
                "--history", str(out / "history.jsonl"),
            ]
        )
        assert status == 0
        assert "no violations" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["naive", "active"])
    def test_other_engines(self, generated, engine):
        status = main(
            [
                "check", "--quiet", "--engine", engine,
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
            ]
        )
        assert status == 1

    def test_missing_file_reports_cleanly(self, generated, capsys):
        bad = generated / "history.jsonl"
        bad.write_text('{"t": 5}\n{"t": 4}\n')
        status = main(
            [
                "check",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(bad),
            ]
        )
        assert status == 2
        assert "error:" in capsys.readouterr().err


class TestObservabilityFlags:
    def check_args(self, generated, *extra):
        return [
            "check", "--quiet",
            "--schema", str(generated / "schema.json"),
            "--constraints", str(generated / "constraints.txt"),
            "--history", str(generated / "history.jsonl"),
            *extra,
        ]

    def test_trace_is_parseable_jsonl(self, generated, tmp_path):
        from repro.obs import read_trace

        trace = tmp_path / "trace.jsonl"
        status = main(self.check_args(generated, "--trace", str(trace)))
        assert status == 1
        events = read_trace(trace)
        steps = [e for e in events if e["name"] == "step"]
        assert len(steps) == 60
        assert {e["engine"] for e in steps} == {"incremental"}
        assert any(e["name"] == "evaluate" for e in events)

    def test_metrics_prometheus_text(self, generated, tmp_path):
        metrics = tmp_path / "metrics.prom"
        status = main(self.check_args(generated, "--metrics", str(metrics)))
        assert status == 1
        text = metrics.read_text()
        assert "# TYPE repro_step_seconds histogram" in text
        assert 'repro_steps_total{engine="incremental"} 60' in text
        assert "repro_violations_total" in text

    def test_metrics_json(self, generated, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        status = main(self.check_args(generated, "--metrics", str(metrics)))
        assert status == 1
        doc = json.loads(metrics.read_text())
        names = {family["name"] for family in doc["metrics"]}
        assert "repro_step_seconds" in names
        assert "repro_violations_total" in names

    def test_trace_flag_with_other_engine(self, generated, tmp_path):
        from repro.obs import read_trace

        trace = tmp_path / "trace.jsonl"
        status = main(
            self.check_args(
                generated, "--engine", "adom", "--trace", str(trace)
            )
        )
        assert status == 1
        steps = [e for e in read_trace(trace) if e["name"] == "step"]
        assert {e["engine"] for e in steps} == {"adom"}


class TestStats:
    def test_stats_summarises_trace(self, generated, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--trace", str(trace),
            ]
        )
        capsys.readouterr()
        status = main(["stats", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert status == 0
        assert "steps" in out
        assert "incremental" in out
        assert "step latency" in out

    def test_stats_rejects_missing_file(self, tmp_path, capsys):
        status = main(["stats", "--trace", str(tmp_path / "nope.jsonl")])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_empty_trace_is_not_an_error(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        status = main(["stats", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert status == 0
        assert "no spans recorded" in out

    def test_stats_percentiles_flag(self, generated, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--trace", str(trace),
            ]
        )
        capsys.readouterr()
        status = main(["stats", "--trace", str(trace), "--percentiles"])
        out = capsys.readouterr().out
        assert status == 0
        for column in ("p50", "p90", "p99"):
            assert column in out


class TestAnalyze:
    def test_profiles(self, tmp_path, capsys):
        constraints = tmp_path / "c.txt"
        constraints.write_text(
            "ret: returned(p, b) -> ONCE[0,14] checkout(p, b);\n"
            "bad: ONCE NOT returned(p, b)\n"
        )
        status = main(["analyze", "--constraints", str(constraints)])
        out = capsys.readouterr().out
        assert status == 0
        assert "ret" in out
        assert "UNSAFE" in out
        assert "14" in out

    def test_trace_join_adds_runtime_columns(
        self, generated, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--trace", str(trace),
            ]
        )
        capsys.readouterr()
        status = main(
            [
                "analyze",
                "--constraints", str(generated / "constraints.txt"),
                "--trace", str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "evals" in out
        assert "60" in out  # every constraint evaluated once per state


class TestCheckpointFlow:
    def test_split_run_equals_full_run(self, tmp_path, capsys):
        out = tmp_path / "wl"
        main(
            [
                "generate", "--workload", "library", "--length", "80",
                "--seed", "5", "--violation-rate", "0.3", "--out", str(out),
            ]
        )
        # split the history in two files
        lines = (out / "history.jsonl").read_text().splitlines()
        (out / "h1.jsonl").write_text("\n".join(lines[:40]) + "\n")
        (out / "h2.jsonl").write_text("\n".join(lines[40:]) + "\n")

        full = main(
            [
                "check", "--quiet",
                "--schema", str(out / "schema.json"),
                "--constraints", str(out / "constraints.txt"),
                "--history", str(out / "history.jsonl"),
            ]
        )
        first = main(
            [
                "check", "--quiet",
                "--schema", str(out / "schema.json"),
                "--constraints", str(out / "constraints.txt"),
                "--history", str(out / "h1.jsonl"),
                "--save-checkpoint", str(out / "ck.json"),
            ]
        )
        second = main(
            [
                "check",
                "--resume-from", str(out / "ck.json"),
                "--history", str(out / "h2.jsonl"),
            ]
        )
        capsys.readouterr()
        # a violation anywhere makes the full run fail; the split run
        # must catch the same second-half violations
        assert full == 1
        assert second in (0, 1)
        assert (first == 1) or (second == 1)

    def test_check_requires_schema_without_resume(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        history.write_text('{"t": 0}\n')
        status = main(["check", "--history", str(history)])
        assert status == 2
        assert "required" in capsys.readouterr().err


class TestCheckResilience:
    def _dirty_history(self, generated):
        """Corrupt the generated history in place: one unparseable
        line, and one schema-violating record on a valid timestamp."""
        import json

        history = generated / "history.jsonl"
        lines = history.read_text().splitlines()
        lines.insert(3, "this is not json")
        t = json.loads(lines[10])["t"]
        lines[10] = json.dumps({"t": t, "insert": {"ghost": [[1]]}})
        history.write_text("\n".join(lines) + "\n")
        return history

    def test_dirty_history_aborts_without_policy(self, generated, capsys):
        self._dirty_history(generated)
        status = main(
            [
                "check",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
            ]
        )
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_quarantine_policy_survives_dirty_history(
        self, generated, tmp_path, capsys
    ):
        self._dirty_history(generated)
        dead = tmp_path / "dead.jsonl"
        status = main(
            [
                "check",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--fault-policy", "quarantine",
                "--quarantine-log", str(dead),
            ]
        )
        out = capsys.readouterr().out
        assert status in (0, 1)  # survived to a verdict
        assert "faults:" in out
        assert "quarantined" in out
        from repro.resilience import QuarantineLog

        kinds = {r["kind"] for r in QuarantineLog.read(dead)}
        assert "decode" in kinds  # the unparseable line
        assert "schema" in kinds  # the ghost relation

    def test_fault_counters_reach_metrics_dump(
        self, generated, tmp_path, capsys
    ):
        self._dirty_history(generated)
        metrics = tmp_path / "metrics.json"
        main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--fault-policy", "skip",
                "--metrics", str(metrics),
            ]
        )
        assert "repro_faults_total" in metrics.read_text()

    def test_step_deadline_flag_smoke(self, generated, capsys):
        status = main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--step-deadline", "30",
            ]
        )
        assert status in (0, 1)


class TestRecoverCommand:
    def test_journal_then_recover_continues_run(
        self, generated, tmp_path, capsys
    ):
        journal = tmp_path / "journal"
        full = main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--journal", str(journal),
                "--checkpoint-every", "7",
            ]
        )
        capsys.readouterr()
        status = main(
            [
                "recover",
                "--journal", str(journal),
                "--history", str(generated / "history.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert "recovered from" in out
        # the whole history was already processed: nothing to continue,
        # and no violations remain unreported
        assert "continued over 0 remaining state(s)" in out
        assert status == 0
        assert full in (0, 1)

    def test_recover_after_partial_run_finds_tail_violations(
        self, generated, tmp_path, capsys
    ):
        import json as json_module

        journal = tmp_path / "journal"
        history = generated / "history.jsonl"
        lines = [
            line
            for line in history.read_text().splitlines()
            if line.strip()
        ]
        half = tmp_path / "half.jsonl"
        half.write_text("\n".join(lines[:30]) + "\n")
        main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(half),
                "--journal", str(journal),
            ]
        )
        capsys.readouterr()
        status = main(
            [
                "recover",
                "--journal", str(journal),
                "--history", str(history),
            ]
        )
        out = capsys.readouterr().out
        remaining = len(lines) - 30
        assert f"continued over {remaining} remaining state(s)" in out
        assert status in (0, 1)
        last_t = json_module.loads(lines[-1])["t"]
        assert f"now at t=" in out

    def test_recover_missing_journal_reports_cleanly(
        self, tmp_path, capsys
    ):
        status = main(["recover", "--journal", str(tmp_path / "nope")])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_recover_on_a_shard_journal_root(self, tmp_path, capsys):
        """``check --shards --journal ROOT`` points users at ``recover``
        on the journal root: it must go through the shard manifest and
        finish the run with the verdicts the unsharded run reports."""
        wl = tmp_path / "wl"
        main(
            [
                "generate", "--workload", "sensors", "--length", "60",
                "--seed", "3", "--violation-rate", "0.3", "--out", str(wl),
            ]
        )
        lines = (wl / "history.jsonl").read_text().splitlines()
        half = tmp_path / "half.jsonl"
        half.write_text("\n".join(lines[:30]) + "\n")

        def verdict_rows(out):
            table = out[out.index("constraint "):].splitlines()[2:]
            return [row.split() for row in table]

        def check(history, *extra):
            status = main(
                [
                    "check", "--no-lint", "--max-violations", "1000",
                    "--schema", str(wl / "schema.json"),
                    "--constraints", str(wl / "constraints.txt"),
                    "--history", str(history), *extra,
                ]
            )
            out = capsys.readouterr().out
            return status, verdict_rows(out)

        _, whole = check(wl / "history.jsonl")
        root = tmp_path / "root"
        _, before = check(
            half, "--shards", "2", "--shard-key", "sensor",
            "--journal", str(root), "--checkpoint-every", "8",
        )
        assert (root / "shard-plan.json").is_file()
        status = main(
            [
                "recover", "--journal", str(root), "--max-violations",
                "1000", "--history", str(wl / "history.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert f"recovered from {root}" in out and "(2 shards)" in out
        assert f"continued over {len(lines) - 30} remaining state(s)" in out
        after = verdict_rows(out)
        assert before and after and before + after == whole
        assert status == 1
        # everything is covered now: nothing left to continue over
        status = main(
            [
                "recover", "--journal", str(root),
                "--history", str(wl / "history.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert "continued over 0 remaining state(s)" in out
        assert "no new violations" in out
        assert status == 0


class TestIngestCommand:
    @pytest.fixture
    def perturbed(self, tmp_path):
        out = tmp_path / "wl"
        status = main(
            [
                "generate", "--workload", "library",
                "--length", "60", "--seed", "3", "--violation-rate", "0",
                "--out", str(out),
                "--arrivals", "--chaos-seed", "5",
                "--chaos-watermark", "6", "--duplicate-rate", "0.2",
                "--sources", "2", "--max-skew", "3",
            ]
        )
        assert status == 0
        return out

    def test_generate_arrivals_writes_feed_and_manifest(self, perturbed):
        import json

        assert (perturbed / "arrivals.jsonl").exists()
        manifest = json.loads((perturbed / "ingest.json").read_text())
        assert manifest["watermark"] == 6
        assert manifest["arrivals"] > 60  # replays inflate the feed
        assert set(manifest["skews"]) == {"s0", "s1"}

    def test_ingest_reassembles_the_clean_run(
        self, perturbed, tmp_path, capsys
    ):
        import json

        manifest = json.loads((perturbed / "ingest.json").read_text())
        dead = tmp_path / "dead.jsonl"
        args = [
            "ingest",
            "--schema", str(perturbed / "schema.json"),
            "--constraints", str(perturbed / "constraints.txt"),
            "--source", str(perturbed / "arrivals.jsonl"),
            "--watermark", "6",
            "--quarantine-log", str(dead),
        ]
        for name, delta in manifest["skews"].items():
            args += ["--skew", f"{name}={delta}"]
        status = main(args)
        out = capsys.readouterr().out
        assert status == 0
        assert "checked 60 states" in out
        assert "ingest:" in out
        replays = [
            json.loads(line) for line in dead.read_text().splitlines()
        ]
        assert len(replays) == manifest["expected_duplicates"]
        assert all(r["kind"] == "duplicate" for r in replays)

    def test_check_tolerates_bounded_disorder(self, perturbed, capsys):
        import json

        # swap adjacent records: strict check refuses, tolerant reorders
        history = perturbed / "history.jsonl"
        lines = history.read_text().splitlines()
        for i in range(0, len(lines) - 1, 2):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        shuffled = perturbed / "shuffled.jsonl"
        shuffled.write_text("\n".join(lines) + "\n")
        worst = 0
        seen = 0
        for line in lines:
            t = json.loads(line)["t"]
            worst = max(worst, seen - t)
            seen = max(seen, t)
        base = [
            "check", "--quiet",
            "--schema", str(perturbed / "schema.json"),
            "--constraints", str(perturbed / "constraints.txt"),
            "--history", str(shuffled),
        ]
        assert main(base) == 2
        assert "error:" in capsys.readouterr().err
        assert main(base + ["--watermark", str(worst)]) == 0

    def test_missing_source_reports_cleanly(self, perturbed, capsys):
        status = main(
            [
                "ingest",
                "--schema", str(perturbed / "schema.json"),
                "--constraints", str(perturbed / "constraints.txt"),
                "--source", str(perturbed / "nonexistent.jsonl"),
            ]
        )
        assert status == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_history_reports_cleanly(self, perturbed, capsys):
        for extra in ([], ["--tolerate-disorder"]):
            status = main(
                [
                    "check", "--quiet",
                    "--schema", str(perturbed / "schema.json"),
                    "--constraints", str(perturbed / "constraints.txt"),
                    "--history", str(perturbed / "nonexistent.jsonl"),
                ] + extra
            )
            assert status == 2
            assert "no such file" in capsys.readouterr().err

    def test_malformed_skew_rejected(self, perturbed, capsys):
        status = main(
            [
                "ingest",
                "--schema", str(perturbed / "schema.json"),
                "--constraints", str(perturbed / "constraints.txt"),
                "--source", str(perturbed / "arrivals.jsonl"),
                "--skew", "nodelimiter",
            ]
        )
        assert status == 2
        assert "NAME=DELTA" in capsys.readouterr().err


class TestTelemetryFlags:
    """check/ingest --slo/--health and the event-time stats sections."""

    @pytest.fixture
    def slo_file(self, tmp_path):
        import json

        path = tmp_path / "slo.json"
        path.write_text(json.dumps({
            "version": "repro-slo/1",
            "slos": [{
                "name": "verdict-latency",
                "indicator": "verdict_seconds",
                "threshold": 10.0, "target": 0.99,
            }],
        }))
        return path

    def test_check_writes_health_snapshot(
        self, generated, tmp_path, slo_file, capsys
    ):
        from repro.obs import load_health

        health = tmp_path / "health.json"
        status = main(
            [
                "check",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--slo", str(slo_file),
                "--health", str(health),
            ]
        )
        out = capsys.readouterr().out
        assert status == 1  # the workload's violations, not the SLO
        assert "slo verdict-latency: ok" in out
        doc = load_health(health)
        assert doc["steps"]["processed"] == 60
        [slo] = doc["slo"]
        assert slo["name"] == "verdict-latency"
        assert slo["good"] == 60

    def test_check_health_without_slo(self, generated, tmp_path):
        from repro.obs import load_health

        health = tmp_path / "health.json"
        status = main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--health", str(health),
            ]
        )
        assert status == 1
        doc = load_health(health)
        assert doc["stages"]["check"]["count"] == 60
        assert doc["slo"] == []

    def test_resume_path_honours_health_flag(self, generated, tmp_path):
        from repro.obs import load_health

        checkpoint = tmp_path / "ck.json"
        assert main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--save-checkpoint", str(checkpoint),
            ]
        ) == 1
        health = tmp_path / "health.json"
        assert main(
            [
                "check", "--quiet",
                "--resume-from", str(checkpoint),
                "--history", str(generated / "history.jsonl"),
                "--watermark", "100",  # replayed history is all late
                "--health", str(health),
            ]
        ) in (0, 1)
        assert load_health(health)["version"] == "repro-health/1"

    def test_missing_slo_file_reports_cleanly(self, generated, capsys):
        status = main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--slo", str(generated / "nonexistent.json"),
            ]
        )
        assert status == 2
        assert "no such file" in capsys.readouterr().err

    def test_ingest_metrics_health_and_slo(self, tmp_path, slo_file, capsys):
        import json

        from repro.obs import load_health

        out = tmp_path / "wl"
        main(
            [
                "generate", "--workload", "library", "--length", "40",
                "--seed", "7", "--violation-rate", "0", "--out", str(out),
                "--arrivals", "--chaos-seed", "2", "--chaos-watermark", "4",
            ]
        )
        metrics = tmp_path / "metrics.json"
        health = tmp_path / "health.json"
        status = main(
            [
                "ingest",
                "--schema", str(out / "schema.json"),
                "--constraints", str(out / "constraints.txt"),
                "--source", str(out / "arrivals.jsonl"),
                "--watermark", "4",
                "--metrics", str(metrics),
                "--slo", str(slo_file),
                "--health", str(health),
            ]
        )
        assert status == 0
        assert "slo verdict-latency: ok" in capsys.readouterr().out
        # the metrics dump carries both ingest and event-time families
        names = {
            family["name"]
            for family in json.loads(metrics.read_text())["metrics"]
        }
        assert "repro_ingest_watermark_lag" in names
        assert "repro_event_verdict_seconds" in names
        assert "repro_event_frontier_lag" in names
        doc = load_health(health)
        assert doc["ingest"]["emitted"] == 40
        assert doc["stages"]["reorder"]["count"] == 40
        assert doc["lag"]["frontier"]["count"] == 40

    def test_ingest_metrics_prometheus_text(self, tmp_path):
        out = tmp_path / "wl"
        main(
            [
                "generate", "--workload", "library", "--length", "20",
                "--seed", "1", "--violation-rate", "0", "--out", str(out),
                "--arrivals", "--chaos-watermark", "2",
            ]
        )
        metrics = tmp_path / "metrics.prom"
        status = main(
            [
                "ingest", "--quiet",
                "--schema", str(out / "schema.json"),
                "--constraints", str(out / "constraints.txt"),
                "--source", str(out / "arrivals.jsonl"),
                "--watermark", "2",
                "--metrics", str(metrics),
            ]
        )
        assert status == 0
        text = metrics.read_text()
        assert "# TYPE repro_ingest_events_total counter" in text
        assert "repro_steps_total" in text

    def test_stats_event_time_sections(
        self, generated, tmp_path, slo_file, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--trace", str(trace),
                "--metrics", str(metrics),
                "--slo", str(slo_file),
            ]
        )
        capsys.readouterr()
        status = main(
            ["stats", "--trace", str(trace), "--metrics", str(metrics)]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "event-time stage latency (arrival -> verdict)" in out
        assert "verdict" in out


class TestHealthCommand:
    def snapshot(self, generated, tmp_path, name, slo=None):
        health = tmp_path / name
        args = [
            "check", "--quiet",
            "--schema", str(generated / "schema.json"),
            "--constraints", str(generated / "constraints.txt"),
            "--history", str(generated / "history.jsonl"),
            "--health", str(health),
        ]
        if slo is not None:
            args += ["--slo", str(slo)]
        assert main(args) == 1
        return health

    def test_merge_and_render(self, generated, tmp_path, capsys):
        from repro.obs import load_health

        first = self.snapshot(generated, tmp_path, "h1.json")
        second = self.snapshot(generated, tmp_path, "h2.json")
        merged = tmp_path / "merged.json"
        status = main(
            ["health", str(first), str(second), "--merge-out", str(merged)]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "merged 2 snapshot(s)" in out
        assert "120 step(s)" in out
        assert load_health(merged)["steps"]["processed"] == 120

    def test_single_snapshot_renders(self, generated, tmp_path, capsys):
        health = self.snapshot(generated, tmp_path, "h.json")
        assert main(["health", str(health)]) == 0
        out = capsys.readouterr().out
        assert "health (incremental): 60 step(s)" in out
        assert "stage latency (us)" in out

    def test_json_format(self, generated, tmp_path, capsys):
        import json

        health = self.snapshot(generated, tmp_path, "h.json")
        assert main(["health", str(health), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "repro-health/1"

    def test_exhausted_budget_exits_one(self, generated, tmp_path, capsys):
        import json

        # the generated workload violates ~40% of steps; a 99% target
        # on the violations indicator is hopeless by design
        slo = tmp_path / "slo.json"
        slo.write_text(json.dumps({
            "version": "repro-slo/1",
            "slos": [{
                "name": "no-violations", "indicator": "violations",
                "threshold": 0, "target": 0.99,
            }],
        }))
        health = self.snapshot(generated, tmp_path, "h.json", slo=slo)
        status = main(["health", str(health)])
        captured = capsys.readouterr()
        assert status == 1
        assert "exhausted" in captured.out
        assert "FAIL: SLO budget(s) exhausted: no-violations" \
            in captured.err

    def test_invalid_snapshot_reports_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "other/1"}')
        status = main(["health", str(bad)])
        assert status == 2
        assert "version" in capsys.readouterr().err

    def test_mismatched_slos_report_cleanly(
        self, generated, tmp_path, capsys
    ):
        import json

        def slo_file(name, threshold):
            path = tmp_path / name
            path.write_text(json.dumps({
                "version": "repro-slo/1",
                "slos": [{
                    "name": "s", "indicator": "violations",
                    "threshold": threshold, "target": 0.5,
                }],
            }))
            return path

        first = self.snapshot(
            generated, tmp_path, "h1.json", slo=slo_file("a.json", 0)
        )
        second = self.snapshot(
            generated, tmp_path, "h2.json", slo=slo_file("b.json", 5)
        )
        status = main(["health", str(first), str(second)])
        assert status == 2
        assert "threshold differs" in capsys.readouterr().err


class TestStateCommand:
    def state_args(self, generated, mode, *extra):
        return [
            "state", mode,
            "--schema", str(generated / "schema.json"),
            "--constraints", str(generated / "constraints.txt"),
            "--history", str(generated / "history.jsonl"),
            *extra,
        ]

    def test_inspect_renders_and_writes(self, generated, tmp_path, capsys):
        out = tmp_path / "state.json"
        status = main(
            self.state_args(generated, "inspect", "--out", str(out))
        )
        assert status == 0
        text = capsys.readouterr().out
        assert "state observatory: engine incremental" in text
        assert "within bound" in text

        from repro.obs import load_state

        snapshot = load_state(out)
        assert snapshot["steps"] == 60
        assert snapshot["bounds"]

    def test_inspect_json_format(self, generated, capsys):
        import json

        status = main(
            self.state_args(generated, "inspect", "--format", "json")
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "repro-state/1"

    def test_watch_prints_running_totals(self, generated, capsys):
        status = main(
            self.state_args(generated, "watch", "--every", "20")
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "step=20:" in out
        assert "aux tuple(s)" in out

    def test_top_ranks_heavy_hitters(self, generated, capsys):
        status = main(self.state_args(generated, "top", "--top-k", "2"))
        assert status == 0
        assert "weight" in capsys.readouterr().out

    def test_bound_check_passes_on_bounded_workload(
        self, generated, capsys
    ):
        status = main(self.state_args(generated, "bound-check"))
        assert status == 0
        out = capsys.readouterr().out
        assert "within bound" in out
        assert "all temporal nodes stayed within their analytic bounds" \
            in out

    def test_flight_artifact_written_on_violation(
        self, generated, tmp_path, capsys
    ):
        from repro.obs import read_flight

        flight = tmp_path / "box.jsonl"
        status = main(
            self.state_args(generated, "inspect", "--flight", str(flight))
        )
        assert status == 0
        # the generated workload violates (rate 0.4), so the box dumped
        box = read_flight(flight)
        assert box["header"]["reason"] == "violation"
        assert box["evidence"] is not None

    def test_missing_file_reports_cleanly(self, generated, capsys):
        status = main(
            [
                "state", "inspect",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "nope.jsonl"),
            ]
        )
        assert status == 2
        assert "error:" in capsys.readouterr().err


class TestHealthRender:
    """`health render` shows health and state snapshots individually."""

    def state_snapshot(self, generated, tmp_path):
        out = tmp_path / "state.json"
        assert main(
            [
                "state", "inspect",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--out", str(out),
            ]
        ) == 0
        return out

    def test_render_state_snapshot_text(self, generated, tmp_path, capsys):
        snap = self.state_snapshot(generated, tmp_path)
        capsys.readouterr()
        assert main(["health", "render", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "state observatory: engine incremental" in out

    def test_render_json_schema_pinned(self, generated, tmp_path, capsys):
        import json

        snap = self.state_snapshot(generated, tmp_path)
        capsys.readouterr()
        assert main(
            ["health", "render", str(snap), "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        # the repro-state/1 document schema, pinned ("tiers" is the
        # one optional section: engines with storage-tier accounting
        # report it, older snapshots validly omit it)
        assert set(doc) == {
            "version", "engine", "steps", "profile", "bounds",
            "alerts", "heavy_hitters", "tiers",
        }
        assert doc["version"] == "repro-state/1"
        assert doc["engine"] == "incremental"
        assert set(doc["tiers"]) == {"nodes", "totals"}
        for entry in doc["bounds"].values():
            assert set(entry) == {
                "tuples", "valuations", "bound", "within", "breaches",
            }
        for node in doc["profile"]["nodes"].values():
            assert {
                "kind", "tuples", "valuations", "bytes", "oldest",
                "constraints",
            } <= set(node)

    def test_render_health_snapshot_json(self, generated, tmp_path, capsys):
        import json

        health = tmp_path / "h.json"
        main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--health", str(health),
            ]
        )
        capsys.readouterr()
        assert main(
            ["health", "render", str(health), "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "repro-health/1"

    def test_render_malformed_snapshot_reports_cleanly(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        status = main(["health", "render", str(bad)])
        assert status == 2
        assert "error: cannot read snapshot" in capsys.readouterr().err

    def test_render_never_gates(self, generated, tmp_path, capsys):
        # render is for looking, not gating: mixed versions, exit 0
        import json

        snap = self.state_snapshot(generated, tmp_path)
        health = tmp_path / "h.json"
        main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--health", str(health),
            ]
        )
        capsys.readouterr()
        assert main(["health", "render", str(health), str(snap)]) == 0
        out = capsys.readouterr().out
        assert "health (incremental)" in out
        assert "state observatory" in out


class TestCheckStatewatch:
    def test_check_statewatch_and_state_out(
        self, generated, tmp_path, capsys
    ):
        from repro.obs import load_state

        state = tmp_path / "state.json"
        status = main(
            [
                "check",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--statewatch",
                "--state-out", str(state),
            ]
        )
        assert status == 1  # the workload violates; statewatch rides along
        out = capsys.readouterr().out
        assert "state:" in out
        assert "within bound" in out
        assert load_state(state)["steps"] == 60

    def test_check_flight_implies_statewatch(
        self, generated, tmp_path, capsys
    ):
        from repro.obs import read_flight

        flight = tmp_path / "box.jsonl"
        status = main(
            [
                "check", "--quiet",
                "--schema", str(generated / "schema.json"),
                "--constraints", str(generated / "constraints.txt"),
                "--history", str(generated / "history.jsonl"),
                "--flight", str(flight),
            ]
        )
        assert status == 1
        assert read_flight(flight)["header"]["reason"] == "violation"

"""Tests for the ``intellog`` command-line interface."""

import json

import pytest

from repro.cli import main
from repro.simulators import (
    FaultSpec,
    MapReduceConfig,
    MapReduceSimulator,
)


def render_hadoop_lines(job):
    """Serialize a simulated job's records in the hadoop log4j layout."""
    import datetime

    lines = []
    for session in job.sessions:
        for record in session.records:
            stamp = datetime.datetime.utcfromtimestamp(
                record.timestamp + 1_500_000_000
            )
            text = stamp.strftime("%Y-%m-%d %H:%M:%S")
            ms = int((record.timestamp % 1) * 1000)
            lines.append(
                f"{text},{ms:03d} {record.level} "
                f"[{session.session_id}] "
                f"org.apache.hadoop.{record.source}: {record.message}"
            )
    return lines


@pytest.fixture()
def log_files(tmp_path):
    sim = MapReduceSimulator(seed=9)
    train_lines = []
    for i in range(4):
        job = sim.run_job(
            "wordcount", MapReduceConfig(input_gb=2.0),
            base_time=i * 3600.0,
        )
        train_lines.extend(render_hadoop_lines(job))
    train_file = tmp_path / "train.log"
    train_file.write_text("\n".join(train_lines))

    faulty = sim.run_job(
        "wordcount", MapReduceConfig(input_gb=2.0),
        fault=FaultSpec("network", at_fraction=0.4),
        base_time=90_000.0,
    )
    detect_file = tmp_path / "detect.log"
    detect_file.write_text("\n".join(render_hadoop_lines(faulty)))
    return train_file, detect_file, tmp_path


class TestCli:
    def test_train_writes_model(self, log_files, capsys):
        train_file, _, tmp_path = log_files
        model_path = tmp_path / "model.json"
        code = main([
            "train", str(train_file),
            "--model", str(model_path),
            "--formatter", "hadoop",
        ])
        assert code == 0
        model = json.loads(model_path.read_text())
        assert model["log_keys"]
        assert model["hw_graph"]["groups"]
        out = capsys.readouterr().out
        assert "entity groups" in out

    def test_detect_flags_faulty_log(self, log_files, capsys):
        train_file, detect_file, tmp_path = log_files
        model_path = tmp_path / "model.json"
        main(["train", str(train_file), "--model", str(model_path),
              "--formatter", "hadoop"])
        capsys.readouterr()  # drop training output
        code = main([
            "detect", str(detect_file), "--model", str(model_path),
        ])
        assert code == 1  # anomalous input -> non-zero exit
        payload = json.loads(capsys.readouterr().out)
        assert payload["anomalous"] is True

    def test_inspect_renders_graph(self, log_files, capsys):
        train_file, _, tmp_path = log_files
        model_path = tmp_path / "model.json"
        main(["train", str(train_file), "--model", str(model_path),
              "--formatter", "hadoop"])
        code = main(["inspect", "--model", str(model_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "groups:" in out

    def test_inspect_json(self, log_files, capsys):
        train_file, _, tmp_path = log_files
        model_path = tmp_path / "model.json"
        main(["train", str(train_file), "--model", str(model_path),
              "--formatter", "hadoop"])
        capsys.readouterr()  # drop training output
        main(["inspect", "--model", str(model_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert "groups" in payload


class TestSessionAttribution:
    """Raw-line training and detection attribute every record to its
    YARN container: one session per container, never one ``<default>``
    session for the whole file."""

    def _jobs(self):
        sim = MapReduceSimulator(seed=9)
        return [
            sim.run_job(
                "wordcount", MapReduceConfig(input_gb=2.0),
                base_time=i * 3600.0,
            )
            for i in range(4)
        ]

    def test_train_lines_one_session_per_container(self):
        from repro import IntelLog

        jobs = self._jobs()
        lines = [line for job in jobs for line in render_hadoop_lines(job)]
        containers = {
            session.session_id for job in jobs for session in job.sessions
        }
        summary = IntelLog().train_lines(lines, "hadoop")
        assert len(containers) > 1
        assert summary.sessions == len(containers)

    def test_detect_lines_reports_each_container(self):
        from repro import IntelLog

        jobs = self._jobs()
        intellog = IntelLog()
        intellog.train_lines(
            [line for job in jobs[1:] for line in render_hadoop_lines(job)],
            "hadoop",
        )
        report = intellog.detect_lines(render_hadoop_lines(jobs[0]),
                                       "hadoop")
        assert sorted(s.session_id for s in report.sessions) == sorted(
            session.session_id for session in jobs[0].sessions
        )


def test_detect_has_no_workers_flag(tmp_path):
    """Detection runs in one process: ``detect --workers`` is a usage
    error, not a silently ignored knob."""
    with pytest.raises(SystemExit) as exc:
        main(["detect", str(tmp_path / "detect.log"),
              "--model", str(tmp_path / "m.json"), "--workers", "2"])
    assert exc.value.code == 2


def test_train_has_no_workers_flag(tmp_path):
    """Training runs in one process: ``train --workers`` is a usage
    error, not a silently ignored knob."""
    with pytest.raises(SystemExit) as exc:
        main(["train", str(tmp_path / "train.log"),
              "--model", str(tmp_path / "m.json"), "--workers", "2"])
    assert exc.value.code == 2


class TestTrainCli:
    def _canonical(self, path):
        from repro.query.store import ModelStore

        return ModelStore.load_path(path).digest()

    def test_retraining_in_one_process_writes_the_same_model(
        self, log_files, capsys
    ):
        """Nothing of a run outlives it, so training twice in one
        process prints the same summary and writes the same model."""
        train_file, _, tmp_path = log_files
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        main(["train", str(train_file), "--model", str(first),
              "--formatter", "hadoop"])
        main(["train", str(train_file), "--model", str(second),
              "--formatter", "hadoop"])
        summaries = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("trained on ")
        ]
        assert len(summaries) == 2
        assert summaries[0] == summaries[1]
        assert self._canonical(first) == self._canonical(second)

    def test_model_round_trips_through_store(self, log_files, capsys):
        """train → save → load → detect works end to end."""
        train_file, detect_file, tmp_path = log_files
        model_path = tmp_path / "model.json"
        main(["train", str(train_file), "--model", str(model_path),
              "--formatter", "hadoop"])
        capsys.readouterr()
        code = main(["detect", str(detect_file),
                     "--model", str(model_path)])
        assert code == 1  # the faulty log is still flagged
        payload = json.loads(capsys.readouterr().out)
        assert payload["anomalous"] is True


class TestWatch:
    def _train(self, log_files):
        train_file, detect_file, tmp_path = log_files
        model_path = tmp_path / "model.json"
        main(["train", str(train_file), "--model", str(model_path),
              "--formatter", "hadoop"])
        return model_path, detect_file, tmp_path

    def test_watch_once_streams_per_container_reports(self, log_files,
                                                      capsys):
        model_path, detect_file, tmp_path = self._train(log_files)
        capsys.readouterr()  # drop training output
        code = main([
            "watch", "--model", str(model_path),
            "--follow", str(detect_file),
            "--formatter", "hadoop", "--once", "--no-checkpoint",
        ])
        out = capsys.readouterr().out
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports
        # yarn_session_key attributes each report to its container.
        assert all(
            r["session_id"].startswith("container_") for r in reports
        )
        assert all("closed_reason" in r for r in reports)
        anomalous = any(r["anomalous"] for r in reports)
        assert code == (1 if anomalous else 0)

    def test_watch_writes_default_checkpoint(self, log_files, capsys):
        model_path, detect_file, tmp_path = self._train(log_files)
        capsys.readouterr()
        code = main([
            "watch", "--model", str(model_path),
            "--follow", str(detect_file),
            "--formatter", "hadoop", "--once",
        ])
        assert code in (0, 1)
        ckpt = tmp_path / "model.stream-ckpt.json"
        assert ckpt.exists()
        state = json.loads(ckpt.read_text())
        assert state["version"] == 2
        assert state["checksum"]
        assert "offset" in state["source_position"]

    def test_watch_jsonl_output(self, log_files, capsys):
        model_path, detect_file, tmp_path = self._train(log_files)
        out_path = tmp_path / "reports.jsonl"
        main([
            "watch", "--model", str(model_path),
            "--follow", str(detect_file),
            "--formatter", "hadoop", "--once", "--no-checkpoint",
            "--jsonl", str(out_path),
        ])
        lines = out_path.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["session_id"] for line in lines)
        # every delivered report carries its exactly-once identity
        assert all(json.loads(line)["finalization_id"] for line in lines)

    def test_watch_quarantine_flag_collects_garbage(self, log_files,
                                                    capsys):
        model_path, detect_file, tmp_path = self._train(log_files)
        capsys.readouterr()
        garbled = tmp_path / "garbled.log"
        # Leading garbage has no preceding record to fold into, so it
        # must land in the dead-letter file as "unparseable".
        garbled.write_bytes(
            b"not a log line at all\n" + detect_file.read_bytes() + b"\n"
        )
        qpath = tmp_path / "quarantine.jsonl"
        code = main([
            "watch", "--model", str(model_path),
            "--follow", str(garbled),
            "--formatter", "hadoop", "--once", "--no-checkpoint",
            "--quarantine", str(qpath),
        ])
        assert code in (0, 1)
        entries = [json.loads(line)
                   for line in qpath.read_text().splitlines()]
        assert any(e["reason"] == "unparseable" for e in entries)


class TestMetricsFlags:
    def _train(self, log_files, *extra):
        train_file, detect_file, tmp_path = log_files
        model_path = tmp_path / "model.json"
        main(["train", str(train_file), "--model", str(model_path),
              "--formatter", "hadoop", *extra])
        return model_path, detect_file, tmp_path

    def test_train_metrics_out_snapshots_train_spans(self, log_files,
                                                     capsys):
        train_file, _, tmp_path = log_files
        model_path = tmp_path / "model.json"
        snap_path = tmp_path / "train-metrics.json"
        code = main([
            "train", str(train_file), "--model", str(model_path),
            "--formatter", "hadoop", "--metrics-out", str(snap_path),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert f"METRICS written to {snap_path}" in err
        snapshot = json.loads(snap_path.read_text())
        assert snapshot["format"] == "repro-metrics-v1"
        spans = {
            sample["labels"].get("span")
            for sample in snapshot["metrics"]["trace_span_seconds"][
                "samples"
            ]
        }
        assert {
            "train", "train.parse", "train.extract", "train.fold",
            "train.build",
        } <= spans

    def test_detect_metrics_out_counts_every_record(self, log_files,
                                                    capsys):
        model_path, detect_file, tmp_path = self._train(log_files)
        snap_path = tmp_path / "detect-metrics.json"
        capsys.readouterr()
        main(["detect", str(detect_file), "--model", str(model_path),
              "--metrics-out", str(snap_path)])
        report = json.loads(capsys.readouterr().out)
        snapshot = json.loads(snap_path.read_text())
        metrics = snapshot["metrics"]
        records = sum(
            len(s["records"]) if isinstance(s.get("records"), list) else 0
            for s in report.get("sessions", [])
        )
        counted = metrics["detect_records_total"]["samples"][0]["value"]
        assert counted > 0
        assert metrics["detect_sessions_total"]["samples"][0]["value"] \
            == len(report["sessions"])
        hits = sum(
            s["value"]
            for s in metrics["spell_match_attempts_total"]["samples"]
        )
        assert hits == counted

    def test_watch_metrics_out_matches_runtime_stats(self, log_files,
                                                     capsys):
        model_path, detect_file, tmp_path = self._train(log_files)
        snap_path = tmp_path / "watch-metrics.json"
        # A trailing newline so the follower consumes the final line
        # (an unterminated line is a torn write it must withhold).
        detect_file.write_text(detect_file.read_text() + "\n")
        capsys.readouterr()
        code = main([
            "watch", "--model", str(model_path),
            "--follow", str(detect_file),
            "--formatter", "hadoop", "--once", "--no-checkpoint",
            "--metrics-out", str(snap_path),
        ])
        assert code in (0, 1)
        out = capsys.readouterr().out
        reports = [json.loads(line) for line in out.splitlines()]
        snapshot = json.loads(snap_path.read_text())
        metrics = snapshot["metrics"]

        def value(name):
            return metrics[name]["samples"][0]["value"]

        # The registry-backed counters must agree exactly with what the
        # runtime delivered (record-count parity with the tracker).
        n_lines = len(detect_file.read_text().splitlines())
        assert value("stream_records_total") == n_lines
        assert value("stream_reports_total") == len(reports)
        closed = sum(
            s["value"]
            for s in metrics["stream_closed_sessions_total"]["samples"]
        )
        assert closed == len(reports)

    def test_stats_renders_watch_snapshot(self, log_files, capsys):
        model_path, detect_file, tmp_path = self._train(log_files)
        snap_path = tmp_path / "watch-metrics.json"
        main([
            "watch", "--model", str(model_path),
            "--follow", str(detect_file),
            "--formatter", "hadoop", "--once", "--no-checkpoint",
            "--metrics-out", str(snap_path),
        ])
        capsys.readouterr()
        assert main(["stats", str(snap_path)]) == 0
        out = capsys.readouterr().out
        assert "stream_records_total (counter)" in out
        assert "spell_match_seconds (histogram)" in out
        assert "p50=" in out and "p99=" in out

    def test_stats_rejects_non_snapshot_file(self, tmp_path, capsys):
        bogus = tmp_path / "not-metrics.json"
        bogus.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SystemExit):
            main(["stats", str(bogus)])

    def test_watch_metrics_port_serves_scrapes(self, log_files, capsys):
        import re
        import urllib.request

        model_path, detect_file, tmp_path = self._train(log_files)
        capsys.readouterr()

        # Intercept the server the CLI starts (it imports the factory
        # from repro.obs at call time) so we can scrape it while it is
        # alive — watch --once tears it down on exit otherwise.
        from repro import obs as obs_module

        scraped = {}
        real_start = obs_module.start_metrics_server

        def spy_start(registry, port, host="127.0.0.1"):
            server = real_start(registry, port, host)
            with urllib.request.urlopen(server.url, timeout=5) as resp:
                scraped["body"] = resp.read().decode("utf-8")
                scraped["ctype"] = resp.headers["Content-Type"]
            return server

        obs_module.start_metrics_server = spy_start
        try:
            code = main([
                "watch", "--model", str(model_path),
                "--follow", str(detect_file),
                "--formatter", "hadoop", "--once", "--no-checkpoint",
                "--metrics-port", "0",
            ])
        finally:
            obs_module.start_metrics_server = real_start
        assert code in (0, 1)
        err = capsys.readouterr().err
        assert re.search(r"METRICS serving http://127\.0\.0\.1:\d+", err)
        assert "text/plain" in scraped["ctype"]
        assert "# TYPE stream_records_total counter" in scraped["body"]

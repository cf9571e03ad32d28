"""Cold start: the production paths import no third-party package and
no HTTP stack.

Every ``repro`` process pays for what it imports before it reads a
line, and numpy plus networkx cost more than the whole package.  Only
the simulators, the chaos injectors, a jittered retry and
``HWGraph.to_networkx`` need them.  Likewise ``http.server`` pulls in
``http.client``, ``socketserver``, ``email`` and ``ssl`` (about 6.5 MB
of RSS), which only a running metrics endpoint (``MetricsServer``,
``--metrics-port``) needs.  Each test here runs one production path to
completion in a fresh interpreter under ``-X importtime`` and reads
back every module it imported: train, detect, a followed file streamed
to a sink with a checkpoint, a served tenant, and the ``repro detect``
and ``repro watch --once`` CLIs.  Three positive controls show the
probe sees numpy, networkx and ``http`` when they do load.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro import IntelLog, IntelLogConfig
from repro.parsing.records import Session
from repro.query.store import ModelStore

from test_cli import render_hadoop_lines

GOLDEN = Path(__file__).parent / "golden"
CORPUS = GOLDEN / "corpus.jsonl"
DETECT_FIXTURE = GOLDEN / "detect_reports" / "mapreduce.json"
HEAVY = ("numpy", "networkx")
#: ``urllib`` is left out: a site hook may import it before ``repro``.
HTTP_STACK = ("http", "socketserver", "ssl", "email")


def run_fresh(args: list[str], cwd: Path) -> tuple[set[str], str]:
    """Run ``python -X importtime *args`` in a new interpreter; return
    the top-level packages it imported and its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert result.returncode in (0, 1), result.stderr[-2000:]
    imported = {
        line.rsplit("|", 1)[-1].strip().split(".")[0]
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro" in imported
    return imported, result.stdout


def run_script(script: str, cwd: Path, **values: str) -> tuple[set, dict]:
    """Run ``script`` (formatted with ``values``) in a fresh interpreter;
    the script prints one JSON object as its last stdout line."""
    code = textwrap.dedent(script).format(
        **{k: json.dumps(v) for k, v in values.items()}
    )
    imported, stdout = run_fresh(["-c", code], cwd)
    return imported, json.loads(stdout.strip().splitlines()[-1])


def assert_lean(imported: set[str]) -> None:
    assert not [name for name in HEAVY + HTTP_STACK if name in imported]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """A hadoop-layout model and detect log from the mapreduce golden
    fixture, prepared in this process so the children only run."""
    root = tmp_path_factory.mktemp("cold")
    fixture = json.loads(DETECT_FIXTURE.read_text())
    intellog = IntelLog(IntelLogConfig(formatter="hadoop"))
    intellog.train(Session.from_dict(s) for s in fixture["train_sessions"])
    ModelStore.from_intellog(intellog).save(str(root / "model.json"))
    detect = [Session.from_dict(s) for s in fixture["detect_sessions"]]
    lines = render_hadoop_lines(SimpleNamespace(sessions=detect))
    (root / "detect.log").write_text("\n".join(lines) + "\n")
    return root


def test_train_imports_no_third_party(workspace):
    imported, out = run_script("""
        import json
        from repro import IntelLog
        from repro.parsing.records import Session
        from repro.query.store import ModelStore
        with open({corpus}) as fp:
            sessions = [Session.from_dict(json.loads(line)) for line in fp]
        intellog = IntelLog()
        summary = intellog.train(sessions)
        ModelStore.from_intellog(intellog).save("trained.json")
        print(json.dumps({{"groups": summary.entity_groups}}))
    """, workspace, corpus=str(CORPUS))
    assert out["groups"] > 0
    assert_lean(imported)


def test_detect_imports_no_third_party(workspace):
    imported, out = run_script("""
        import json
        from repro.query.store import ModelStore
        intellog = ModelStore.load_path("model.json").to_intellog()
        with open("detect.log") as fp:
            report = intellog.detect_lines(fp, job_id="cold")
        print(json.dumps({{"sessions": len(report.sessions)}}))
    """, workspace)
    assert out["sessions"] > 0
    assert_lean(imported)


def test_stream_run_imports_no_third_party(workspace):
    imported, out = run_script("""
        import json
        from repro.query.store import ModelStore
        from repro.stream import FileFollowSource, JsonLinesSink
        from repro.stream import StreamRuntime, TrackerConfig
        intellog = ModelStore.load_path("model.json").to_intellog()
        sink = JsonLinesSink("stream.reports.jsonl")
        stats = StreamRuntime(
            intellog,
            FileFollowSource("detect.log", formatter="hadoop"),
            sink=sink,
            tracker=TrackerConfig(idle_timeout=1e12),
            checkpoint_path="stream.ckpt.json",
        ).run(once=True)
        sink.close()
        print(json.dumps({{"reports": stats.reports}}))
    """, workspace)
    assert out["reports"] > 0
    assert (workspace / "stream.ckpt.json").exists()
    assert_lean(imported)


def test_serve_imports_no_third_party(workspace):
    imported, out = run_script("""
        import json
        from repro.core import ServeConfig
        from repro.query.store import ModelStore
        from repro.serve import DetectionService, ModelRegistry, TenantSpec
        registry = ModelRegistry("registry")
        registry.publish(ModelStore.load_path("model.json"), "mr")
        service = DetectionService(registry, ServeConfig())
        service.attach(TenantSpec(
            tenant_id="t", model="mr", log_path="detect.log",
            formatter="hadoop", reports_path="serve.reports.jsonl",
            idle_timeout=1e12,
        ))
        status = service.drain()
        service.close()
        print(json.dumps({{"records": status["tenants"][0]["records"]}}))
    """, workspace)
    assert out["records"] > 0
    assert (workspace / "serve.reports.jsonl").read_text()
    assert_lean(imported)


def test_cli_detect_imports_no_third_party(workspace):
    imported, stdout = run_fresh(
        ["-m", "repro.cli", "detect", "detect.log", "--model", "model.json"],
        workspace,
    )
    assert json.loads(stdout)["sessions"]
    assert_lean(imported)


def test_cli_watch_once_imports_no_third_party(workspace):
    imported, stdout = run_fresh(
        ["-m", "repro.cli", "watch", "--model", "model.json",
         "--follow", "detect.log", "--once",
         "--checkpoint", "watch.ckpt.json"],
        workspace,
    )
    assert [json.loads(line) for line in stdout.splitlines()]
    assert (workspace / "watch.ckpt.json").exists()
    assert_lean(imported)


# -- positive controls: the probe sees the packages when they load -------------


def test_simulators_still_import_numpy(tmp_path):
    imported, _ = run_fresh(["-c", "import repro.simulators"], tmp_path)
    assert "numpy" in imported


def test_to_networkx_still_returns_a_digraph(tmp_path):
    imported, out = run_script("""
        import json
        from repro import IntelLog
        from repro.parsing.records import Session
        with open({corpus}) as fp:
            sessions = [Session.from_dict(json.loads(line)) for line in fp]
        intellog = IntelLog()
        intellog.train(sessions)
        graph = intellog.hw_graph()
        exported = graph.to_networkx()
        print(json.dumps({{
            "type": type(exported).__name__,
            "nodes": exported.number_of_nodes(),
            "groups": len(graph.groups),
        }}))
    """, tmp_path, corpus=str(CORPUS))
    assert out["type"] == "DiGraph"
    assert out["nodes"] == out["groups"] > 0
    assert "networkx" in imported


def test_metrics_server_imports_the_http_stack(tmp_path):
    # The scrape is a raw socket request: urllib.request would import
    # http.client itself and hide whether the server loaded the stack.
    imported, out = run_script("""
        import json
        import socket
        import sys
        from repro.obs import MetricsRegistry, MetricsServer
        registry = MetricsRegistry()
        registry.counter("cold_scrapes_total", "probe").inc()
        before = "http.server" in sys.modules
        server = MetricsServer(registry, port=0)
        try:
            address = ("127.0.0.1", server.port)
            with socket.create_connection(address, timeout=10) as conn:
                conn.sendall(b"GET /metrics HTTP/1.0\\r\\n\\r\\n")
                response = b"".join(iter(lambda: conn.recv(65536), b""))
        finally:
            server.stop()
        print(json.dumps({{
            "before": before,
            "after": "http.server" in sys.modules,
            "response": response.decode("utf-8"),
        }}))
    """, tmp_path)
    assert out["response"].startswith("HTTP/1.0 200")
    assert "cold_scrapes_total 1" in out["response"]
    assert (out["before"], out["after"]) == (False, True)
    assert "http" in imported

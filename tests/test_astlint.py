"""AST lint (repro.analysis.astlint): rules, runner, and the repo itself.

``TestRepoIsClean`` is the pytest-collected determinism check: it lints
``src/repro`` on every tier-1 run, so a merge that introduces an unseeded
generator or a wall-clock call fails CI without any extra tooling.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import lint_paths, lint_source
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: One violation of every rule, line-accurate (used by several tests).
FIXTURE = textwrap.dedent(
    """
    import random
    import time
    import numpy as np
    from datetime import datetime

    def bad_rng():
        return np.random.default_rng()

    def bad_random():
        return random.random()

    def bad_time():
        return time.time()

    def bad_now():
        return datetime.now()

    def bad_default(items=[]):
        return items

    def swallow():
        try:
            pass
        except Exception:
            pass

    def bad_set_iter(names):
        return [n for n in set(names)]

    def bare():
        try:
            pass
        except:
            pass
    """
)


class TestRepoIsClean:
    def test_src_repro_has_zero_findings(self):
        report = lint_paths([SRC])
        assert len(report) == 0, report.render()

    def test_tools_are_clean_too(self):
        report = lint_paths([REPO_ROOT / "tools"])
        assert len(report) == 0, report.render()


class TestRules:
    def test_fixture_triggers_every_code(self):
        report = lint_source(FIXTURE, "fixture.py")
        assert report.codes == {
            "DET001", "DET002", "DET003", "PY001", "PY002"
        }

    def test_det001_unseeded_default_rng(self):
        report = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert report.codes == {"DET001"}

    def test_det001_seeded_default_rng_is_fine(self):
        for src in (
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            "import numpy as np\nrng = np.random.default_rng(seed)\n",
            "from numpy.random import default_rng\nr = default_rng(7)\n",
        ):
            assert len(lint_source(src)) == 0, src

    def test_det001_aliased_import(self):
        report = lint_source(
            "from numpy.random import default_rng as rng_of\n"
            "r = rng_of()\n"
        )
        assert report.codes == {"DET001"}

    def test_det001_stdlib_random_module(self):
        report = lint_source(
            "import random\nx = random.randint(0, 9)\n"
        )
        assert report.codes == {"DET001"}

    def test_det001_from_random_import(self):
        report = lint_source("from random import shuffle\n")
        assert report.codes == {"DET001"}

    def test_det001_unrelated_random_attribute_is_fine(self):
        # np.random.<anything> is not the stdlib module.
        report = lint_source(
            "import numpy as np\nx = np.random.Generator\n"
        )
        assert len(report) == 0

    def test_det002_wall_clock_calls(self):
        for src in (
            "import time\nt = time.time()\n",
            "import time\nt = time.time_ns()\n",
            "from datetime import datetime\nt = datetime.now()\n",
            "from datetime import datetime\nt = datetime.utcnow()\n",
            "from datetime import date\nt = date.today()\n",
        ):
            assert lint_source(src).codes == {"DET002"}, src

    def test_det002_strptime_is_fine(self):
        # Parsing a timestamp out of a log line is exactly what the
        # formatters do; only *reading the wall clock* is flagged.
        report = lint_source(
            "from datetime import datetime\n"
            "t = datetime.strptime('2019', '%Y')\n"
        )
        assert len(report) == 0

    def test_det003_for_loop_over_set_call(self):
        report = lint_source(
            "def f(xs):\n"
            "    for x in set(xs):\n"
            "        print(x)\n"
        )
        assert report.codes == {"DET003"}

    def test_det003_for_loop_over_set_literal(self):
        report = lint_source(
            "for x in {'a', 'b'}:\n    print(x)\n"
        )
        assert report.codes == {"DET003"}

    def test_det003_comprehension_over_frozenset(self):
        report = lint_source(
            "def f(xs):\n"
            "    return [x for x in frozenset(xs)]\n"
        )
        assert report.codes == {"DET003"}

    def test_det003_list_and_tuple_materialisation(self):
        for consumer in ("list", "tuple", "enumerate"):
            report = lint_source(f"y = {consumer}(set([1, 2]))\n")
            assert report.codes == {"DET003"}, consumer

    def test_det003_sorted_set_is_fine(self):
        for src in (
            "def f(xs):\n    return sorted(set(xs))\n",
            "def f(xs):\n    return [x for x in sorted(set(xs))]\n",
            "def f(xs):\n    for x in sorted({'a', 'b'}):\n        pass\n",
        ):
            assert len(lint_source(src)) == 0, src

    def test_det003_order_insensitive_consumers_are_fine(self):
        for src in (
            "def f(xs):\n    return sum(set(xs))\n",
            "def f(xs):\n    return max(set(xs))\n",
            "def f(xs):\n    return len(set(xs))\n",
            "def f(xs, y):\n    return y in set(xs)\n",
            # set comprehension over a set: result is unordered anyway
            "def f(xs):\n    return {x for x in set(xs)}\n",
        ):
            assert len(lint_source(src)) == 0, src

    def test_det003_set_typed_variable_is_not_flagged(self):
        # Syntactic rule: only sets *by construction* are visible.
        report = lint_source(
            "def f(xs: set):\n"
            "    return [x for x in xs]\n"
        )
        assert len(report) == 0

    def test_det003_generator_into_sorted_is_fine(self):
        report = lint_source(
            "def f(xs):\n    return sorted(str(x) for x in set(xs))\n"
        )
        assert len(report) == 0

    def test_py001_mutable_defaults(self):
        for default in ("[]", "{}", "set()", "list()", "dict()"):
            report = lint_source(f"def f(x={default}):\n    return x\n")
            assert report.codes == {"PY001"}, default

    def test_py001_kwonly_defaults(self):
        report = lint_source("def f(*, x=[]):\n    return x\n")
        assert report.codes == {"PY001"}

    def test_py001_immutable_defaults_are_fine(self):
        report = lint_source(
            "def f(x=(), y=None, z=0, s='a', fs=frozenset()):\n"
            "    return x\n"
        )
        assert len(report) == 0

    def test_py002_bare_except(self):
        report = lint_source(
            "try:\n    pass\nexcept:\n    pass\n"
        )
        assert report.codes == {"PY002"}

    def test_py002_except_exception_pass(self):
        report = lint_source(
            "try:\n    pass\nexcept Exception:\n    pass\n"
        )
        assert report.codes == {"PY002"}

    def test_py002_handled_broad_except_is_fine(self):
        report = lint_source(
            "try:\n    pass\n"
            "except Exception as exc:\n    print(exc)\n"
        )
        assert len(report) == 0

    def test_py002_narrow_except_pass_is_fine(self):
        report = lint_source(
            "try:\n    pass\nexcept KeyError:\n    pass\n"
        )
        assert len(report) == 0

    def test_det002_pragma_replaces_obs_allowlist(self):
        # The observability exporter's snapshot stamp used to ride a
        # path allowlist; it now carries an inline pragma like any
        # other sanctioned exception, so the same source is flagged
        # everywhere unless the line itself is annotated.
        bare = "import time\nstamp = time.time()\n"
        assert lint_source(bare, path="src/repro/obs/export.py").codes \
            == {"DET002"}
        annotated = (
            "import time\n"
            "stamp = time.time()"
            "  # repro: allow=DET002 -- export stamp\n"
        )
        report = lint_source(annotated, path="src/repro/obs/export.py")
        assert len(report) == 0, report.render()

    def test_path_allowlist_normalises_windows_separators(self):
        # The mechanism survives (empty by default); entries match
        # regardless of host path separator.
        from repro.analysis import astlint

        src = "import time\nstamp = time.time()\n"
        original = dict(astlint.PATH_ALLOWLIST)
        astlint.PATH_ALLOWLIST["DET002"] = ("src/repro/obs/",)
        try:
            report = lint_source(src, path="src\\repro\\obs\\export.py")
            assert len(report) == 0, report.render()
            elsewhere = lint_source(src, path="src/repro/stream/x.py")
            assert elsewhere.codes == {"DET002"}
        finally:
            astlint.PATH_ALLOWLIST.clear()
            astlint.PATH_ALLOWLIST.update(original)

    def test_path_allowlist_is_per_rule(self):
        # Other rules still fire inside an allowlisted tree.
        from repro.analysis import astlint

        original = dict(astlint.PATH_ALLOWLIST)
        astlint.PATH_ALLOWLIST["DET002"] = ("src/repro/obs/",)
        try:
            src = "def bad(items=[]):\n    return items\n"
            report = lint_source(src, path="src/repro/obs/export.py")
            assert report.codes == {"PY001"}
        finally:
            astlint.PATH_ALLOWLIST.clear()
            astlint.PATH_ALLOWLIST.update(original)

    def test_pragma_is_per_code(self):
        # A pragma for one code does not silence another on the line.
        src = (
            "import time\n"
            "t = time.time()  # repro: allow=PY001 -- wrong code\n"
        )
        assert lint_source(src).codes == {"DET002"}

    def test_pragma_unknown_code_reports_sup001(self):
        src = "x = 1  # repro: allow=NOPE999 -- hmm\n"
        assert lint_source(src).codes == {"SUP001"}

    def test_pragma_missing_justification_reports_sup002(self):
        src = (
            "import time\n"
            "t = time.time()  # repro: allow=DET002\n"
        )
        report = lint_source(src)
        # The suppression still works, but the missing reason is
        # itself reported.
        assert report.codes == {"SUP002"}

    def test_noqa_suppression(self):
        report = lint_source(
            "import time\nt = time.time()  # noqa: DET002\n"
        )
        assert len(report) == 0
        # A noqa for a *different* code does not suppress.
        report = lint_source(
            "import time\nt = time.time()  # noqa: PY001\n"
        )
        assert report.codes == {"DET002"}

    def test_syntax_error_is_reported_not_raised(self):
        report = lint_source("def broken(:\n", "broken.py")
        assert len(report) == 1
        assert "does not parse" in report.diagnostics[0].message

    def test_findings_carry_file_and_line(self):
        report = lint_source("import time\nt = time.time()\n", "mod.py")
        assert report.diagnostics[0].location == "mod.py:2"


#: A graph with set-typed attributes, and a detector iterating them
#: in order-sensitive contexts.
SET_ATTR_FIXTURE = textwrap.dedent(
    """
    from dataclasses import dataclass, field

    @dataclass
    class Graph:
        key_groups: dict[str, set[str]] = field(default_factory=dict)
        ignored: frozenset[str] = frozenset()
        names: list[str] = field(default_factory=list)

    class Detector:
        def __init__(self, graph: Graph) -> None:
            self.graph = graph
            self.seen: set[str] | None = None

        def plans(self, key_id):
            return tuple(self.graph.key_groups.get(key_id, ()))

        def labels(self, key_id):
            return [label for label in self.graph.key_groups[key_id]]

        def ignored(self):
            for key in self.graph.ignored:
                print(key)

        def seen_list(self):
            return list(self.seen)
    """
)

#: The same attributes read order-insensitively, or sorted first.
SET_ATTR_CLEAN = textwrap.dedent(
    """
    from dataclasses import dataclass, field

    @dataclass
    class Graph:
        key_groups: dict[str, set[str]] = field(default_factory=dict)
        ignored: frozenset[str] = frozenset()
        names: list[str] = field(default_factory=list)

    def plans(graph, key_id):
        groups = tuple(sorted(graph.key_groups.get(key_id, ())))
        for key in sorted(graph.ignored):
            print(key)
        for name in graph.names:
            print(name)
        for key_id, labels in graph.key_groups.items():
            print(key_id, len(labels))
        return groups, key_id in graph.ignored, sorted(
            label for label in graph.key_groups[key_id]
        )
    """
)


class TestSetTypedAttributes:
    """DET003 on attributes annotated ``set[...]``, ``frozenset[...]``
    or ``dict[..., set[...]]``, in ``repro/detection`` and
    ``repro/graph``."""

    def test_detection_module_is_flagged(self):
        report = lint_source(
            SET_ATTR_FIXTURE, "src/repro/detection/fixture.py"
        )
        assert report.codes == {"DET003"}
        lines = sorted(
            int(d.location.rsplit(":", 1)[1]) for d in report.diagnostics
        )
        source = SET_ATTR_FIXTURE.splitlines()
        assert [source[line - 1].strip() for line in lines] == [
            "return tuple(self.graph.key_groups.get(key_id, ()))",
            "return [label for label in self.graph.key_groups[key_id]]",
            "for key in self.graph.ignored:",
            "return list(self.seen)",
        ]

    def test_graph_module_is_flagged(self):
        report = lint_source(SET_ATTR_FIXTURE, "src/repro/graph/fixture.py")
        assert len(report) == 4

    def test_other_packages_are_not_flagged(self):
        report = lint_source(SET_ATTR_FIXTURE, "src/repro/stream/fixture.py")
        assert len(report) == 0

    def test_sorted_and_unordered_uses_are_clean(self):
        report = lint_source(SET_ATTR_CLEAN, "src/repro/graph/fixture.py")
        assert len(report) == 0, report.render()

    def test_a_name_with_two_kinds_is_left_out(self):
        source = SET_ATTR_FIXTURE.replace(
            "names: list[str]", "ignored_too: list[str]"
        ) + "\nclass Other:\n    ignored: tuple[str, ...] = ()\n"
        report = lint_source(source, "src/repro/detection/fixture.py")
        assert len(report) == 3

    def test_peer_modules_annotate_the_attributes(self, tmp_path):
        """Linting the detector alone still sees the graph package's
        annotations."""
        graph, detection = (
            tmp_path / "repro" / "graph", tmp_path / "repro" / "detection"
        )
        graph.mkdir(parents=True)
        detection.mkdir()
        (graph / "hw.py").write_text(
            "class HW:\n    key_groups: dict[str, set[str]] = {}\n"
        )
        (detection / "det.py").write_text(
            "def plans(graph, key_id):\n"
            "    return tuple(graph.key_groups.get(key_id, ()))\n"
        )
        assert lint_paths([detection / "det.py"]).codes == {"DET003"}


class TestRunners:
    def test_cli_lint_code_clean_exit_zero(self, capsys):
        code = main(["lint-code", str(SRC)])
        assert code == 0
        assert "0 diagnostics" in capsys.readouterr().out

    def test_cli_lint_code_fixture_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(FIXTURE)
        code = main(["lint-code", str(bad)])
        assert code == 1
        out = capsys.readouterr().out
        for expected in ("DET001", "DET002", "PY001", "PY002"):
            assert expected in out

    def test_standalone_runner_module(self, tmp_path):
        # tools/run_astlint.py delegates to astlint.main().
        from repro.analysis.astlint import main as astlint_main

        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert astlint_main([str(bad)]) == 1
        assert astlint_main([str(SRC / "core" / "config.py")]) == 0

    def test_lint_paths_deduplicates(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        report = lint_paths([tmp_path, bad])
        assert len(report) == 1


class TestLintModelCli:
    def _save_model(self, spark_model, tmp_path):
        from repro.query import ModelStore

        path = tmp_path / "model.json"
        ModelStore.from_intellog(spark_model).save(path)
        return path

    def test_clean_model_exit_zero(self, spark_model, tmp_path, capsys):
        path = self._save_model(spark_model, tmp_path)
        code = main(["lint-model", "--model", str(path)])
        assert code == 0
        assert "0 diagnostics" in capsys.readouterr().out

    def test_corrupted_model_exit_nonzero(self, spark_model, tmp_path,
                                          capsys):
        import json

        path = self._save_model(spark_model, tmp_path)
        payload = json.loads(path.read_text())
        groups = payload["hw_graph"]["groups"]
        victim = next(
            label for label, entry in groups.items()
            if entry["parent"] or entry["children"] or entry["before"]
        )
        del groups[victim]
        path.write_text(json.dumps(payload))
        code = main(["lint-model", "--model", str(path)])
        assert code == 1
        assert "HW001" in capsys.readouterr().out

    def test_json_output(self, spark_model, tmp_path, capsys):
        import json

        path = self._save_model(spark_model, tmp_path)
        code = main(["lint-model", "--model", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []

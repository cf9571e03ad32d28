"""Golden-corpus regression suite: the serialized model is byte-stable.

A frozen corpus (``tests/golden/corpus.jsonl``) is trained and the
canonical serialized model (:meth:`ModelStore.canonical_bytes`) must hash
to the pinned digest in ``tests/golden/expected.json`` — across repeated
runs and across interpreter hash randomisation (``PYTHONHASHSEED``).  A
digest change means the trained
model changed: if intentional, regenerate with
``python tools/regen_golden.py`` and commit the diff; if not, this suite
just caught a regression (or nondeterminism).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import IntelLog
from repro.parsing.records import Session
from repro.query.store import ModelStore

GOLDEN_DIR = Path(__file__).parent / "golden"
CORPUS_PATH = GOLDEN_DIR / "corpus.jsonl"
EXPECTED_PATH = GOLDEN_DIR / "expected.json"

REGEN_HINT = (
    "golden model drifted — if the change is intentional, run "
    "`python tools/regen_golden.py` and commit the updated expected.json"
)


def load_corpus() -> list[Session]:
    return [
        Session.from_dict(json.loads(line))
        for line in CORPUS_PATH.read_text().splitlines()
        if line.strip()
    ]


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


@pytest.fixture(scope="module")
def corpus() -> list[Session]:
    return load_corpus()


def train_digest(corpus) -> tuple[str, object]:
    intellog = IntelLog()
    summary = intellog.train(corpus)
    return ModelStore.from_intellog(intellog).digest(), summary


class TestGoldenModel:
    def test_serial_matches_pinned_digest(self, corpus, expected):
        digest, summary = train_digest(corpus)
        assert digest == expected["digest"], REGEN_HINT
        assert summary.sessions == expected["summary"]["sessions"]
        assert summary.messages == expected["summary"]["messages"]
        assert summary.log_keys == expected["summary"]["log_keys"]
        assert summary.intel_keys == expected["summary"]["intel_keys"]
        assert (
            summary.entity_groups == expected["summary"]["entity_groups"]
        )
        assert (
            summary.critical_groups
            == expected["summary"]["critical_groups"]
        )
        assert summary.ignored_keys == expected["summary"]["ignored_keys"]

    def test_repeated_runs_are_byte_identical(self, corpus):
        first, _ = train_digest(corpus)
        second, _ = train_digest(corpus)
        assert first == second

    @pytest.mark.parametrize("hash_seed", ["0", "42"])
    def test_digest_stable_under_hash_randomisation(
        self, expected, hash_seed
    ):
        """Fresh interpreters with different PYTHONHASHSEED values agree:
        no set/dict iteration order leaks into the serialized model."""
        script = (
            "import json, sys; "
            "sys.path.insert(0, {src!r}); "
            "from tests.test_golden_model import load_corpus, "
            "train_digest; "
            "print(train_digest(load_corpus())[0])"
        ).format(src=str(Path(__file__).parents[1] / "src"))
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (
                str(Path(__file__).parents[1] / "src"),
                str(Path(__file__).parents[1]),
                env.get("PYTHONPATH", ""),
            )
            if p
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == expected["digest"], REGEN_HINT


class TestCanonicalSerialization:
    def test_canonical_bytes_round_trip(self, corpus):
        intellog = IntelLog()
        intellog.train(corpus)
        store = ModelStore.from_intellog(intellog)
        restored = ModelStore.from_json(
            store.canonical_bytes().decode("ascii")
        )
        assert restored.digest() == store.digest()

    def test_saved_file_is_the_canonical_form(
        self, corpus, expected, tmp_path
    ):
        """``save`` writes the canonical bytes, and the file reloads to
        a model with the same digest."""
        intellog = IntelLog()
        intellog.train(corpus)
        store = ModelStore.from_intellog(intellog)
        path = tmp_path / "model.json"
        store.save(path)
        assert path.read_bytes() == store.canonical_bytes()
        reloaded = ModelStore.load_path(path)
        assert reloaded.digest() == store.digest() == expected["digest"]
        assert (
            ModelStore.from_intellog(reloaded.to_intellog()).digest()
            == expected["digest"]
        )

    def test_restored_model_serializes_identically(self, corpus, expected):
        """Save → load → save is a fixed point of the serialization."""
        intellog = IntelLog()
        intellog.train(corpus)
        store = ModelStore.from_intellog(intellog)
        again = ModelStore.from_intellog(store.to_intellog())
        assert again.digest() == store.digest() == expected["digest"]

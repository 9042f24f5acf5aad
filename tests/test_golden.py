"""Golden run trees: the SHA-256 of every file a fixed set of CLI runs writes.

The runs are `synth` (8 weeks x 500 messages), `classify`, and on two
corpora `fraction` in plain, soft and hard mode, soft with `flu -shot`,
`simulate` with the default schedule, and `simulate` with its own query,
schedule and trained classifier. The corpora are the synth corpus and a
copy whose texts gain accented, Greek, URL and underscore words, so that no
two texts are equal and both of load_corpus's line layouts are read. Every
path is relative to the working directory, so run.json is the same wherever
the test runs. A failure names the file that differs.

tests/golden.json is regenerated by hand, and only after an intended output
change (say so in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from ilitrack import corpus as corpus_module
from ilitrack.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
QUERY = 'flu cough headache "sore throat"'
SUFFIXES = (" café_{i}", " see http://t.co/x_{i}", " ΣΟΦΊΑ{i} πΣ", " naïve_ß {i}'s")


def hicard(plain: Path, out: Path) -> None:
    """plain's messages with one suffix word each, a third of them written with
    \\u escapes and the rest with raw UTF-8."""
    lines = []
    for i, line in enumerate(plain.read_text(encoding="utf-8").splitlines()):
        record = json.loads(line)
        record["text"] += SUFFIXES[i % len(SUFFIXES)].format(i=i)
        lines.append(json.dumps(record, ensure_ascii=i % 3 == 0))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def corpus_runs(name: str) -> dict[str, list[str]]:
    data = ["--messages", f"{name}/messages.jsonl", "--ili", "synth/ili.csv"]
    fraction = ["fraction", *data, "--seed", "0", "--train-weeks", "1:5", "--eval-weeks", "6:8"]
    classifier = ["--classifier", "classify/classifier.json"]
    simulate = ["simulate", *data, "--seed", "5", "--train-weeks", "1:5"]
    return {
        f"{name}/fraction-plain": [*fraction, "--query", QUERY],
        f"{name}/fraction-soft": [*fraction, "--query", QUERY, "--mode", "soft", *classifier],
        f"{name}/fraction-hard": [*fraction, "--query", QUERY, "--mode", "hard", *classifier],
        f"{name}/fraction-soft-flu-shot": [
            *fraction, "--query", "flu -shot", "--mode", "soft", *classifier,
        ],
        f"{name}/simulate-default": [*simulate, *classifier],
        f"{name}/simulate-custom": [
            *simulate, "--query", "flu cough fever -http",
            "--schedule", '{"pairs": [[8, 300], [7, 0], [6, 5000]]}',
            "--train", "synth/labeled.jsonl", "--lambda", "0.5",
        ],
    }


def run(name: str, argv: list[str]) -> dict[str, str]:
    """SHA-256 of each file the run writes into its directory `name`."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", name])
    assert code == 0, f"{name}: exit {code}"
    return {
        f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(name).iterdir())
    }


def run_all() -> dict[str, str]:
    """Every run's file digests; the working directory must be empty."""
    digests = run("synth", [
        "synth", "--seed", "3", "--weeks", "8", "--messages-per-week", "500",
        "--labeled-pos", "60", "--labeled-neg", "30",
    ])
    digests |= run("classify", ["classify", "--train", "synth/labeled.jsonl", "--seed", "0",
                                "--folds", "5"])
    Path("hicard").mkdir()
    hicard(Path("synth/messages.jsonl"), Path("hicard/messages.jsonl"))
    for name, argv in {**corpus_runs("synth"), **corpus_runs("hicard")}.items():
        digests |= run(name, argv)
    return digests


def differing(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    return sorted(f for f in expected.keys() | got.keys() if expected.get(f) != got.get(f))


def test_run_trees_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_all()
    assert not differing(expected, got), f"files that differ: {differing(expected, got)}"
    # The corpus read in chunks of a few characters, so that every row
    # sits on a chunk boundary, and dealt out to two processes, gives the
    # same outputs.
    monkeypatch.setattr(corpus_module, "_CHUNK_CHARS", 37)
    monkeypatch.setattr(corpus_module, "_SHARES", 2)
    for name, argv in corpus_runs("hicard").items():
        if "fraction-soft" in name or "simulate-default" in name:
            small = run(f"{name}-small-chunks", argv)
            small = {f.replace("-small-chunks/", "/"): d for f, d in small.items()}
            assert small == {f: expected[f] for f in small}, f"{name} with 37-character chunks"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        json.dump(run_all(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")

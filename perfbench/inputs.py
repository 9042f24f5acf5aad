"""Benchmark inputs, generated from the workload seed before any timing.

    python3 perfbench/inputs.py --kind plain|hicard --seed N --out DIR

`plain` writes what `ilitrack synth --weeks 36 --messages-per-week 10000
--noise-sd 0` writes at that seed: messages.jsonl, ili.csv, truth.json,
labeled.jsonl and config.json.

`hicard` writes the same corpus with three extra tokens appended to every
message text, drawn from a generated vocabulary of about 40k words, so that
every text in the corpus is distinct. No vocabulary word can change what the
gate query matches, so the planted match counts, ili.csv and the noiseless
regression stay exactly as in the plain corpus. The derivation verifies its
own invariants and exits non-zero if one breaks.

Runs in its own process so the benchmark driver never holds the corpus.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ilitrack import synth as syn  # noqa: E402
from ilitrack.corpus import Message, tokenize, tokenize_message  # noqa: E402
from ilitrack.query import GATE_QUERY, KNOWN_PHRASES, matches  # noqa: E402
from ilitrack.simulate import DEFAULT_AUTHOR_MARKERS, DEFAULT_TEXT_MARKERS  # noqa: E402

WEEKS = 36
MESSAGES_PER_WEEK = 10000
VOCAB_SIZE = 40000
APPENDED_TOKENS = 3


class InvariantError(RuntimeError):
    """A generated input breaks a property the benchmark relies on."""


def synth_config(seed: int) -> syn.SynthConfig:
    """The config `ilitrack synth` builds from the workload's flags."""
    return syn.SynthConfig(
        seed=seed,
        weeks=WEEKS,
        messages_per_week=MESSAGES_PER_WEEK,
        ili_curve=syn.default_ili_curve(WEEKS),
        noise_sd=0.0,
    )


def reserved_tokens(config: syn.SynthConfig) -> set[str]:
    """Every token an appended word must never be: gate-query tokens, known
    phrases, news markers, template and filler tokens, and the link token."""
    texts = [
        *(" ".join(t.tokens) for t in GATE_QUERY.base_terms),
        *(" ".join(p) for p in KNOWN_PHRASES),
        *DEFAULT_TEXT_MARKERS,
        *DEFAULT_AUTHOR_MARKERS,
        *config.positive_templates,
        *config.negative_templates,
        *config.spurious_templates,
        *syn.FILLER_WORDS,
        "http",
    ]
    return {tok for text in texts for tok in tokenize(text.replace("{}", " "))}


def make_vocabulary(rng: np.random.Generator, reserved: set[str]) -> list[str]:
    """VOCAB_SIZE distinct lowercase words of 5 to 9 letters, none reserved,
    each of which tokenizes to exactly itself."""
    words: list[str] = []
    seen: set[str] = set()
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    while len(words) < VOCAB_SIZE:
        lengths = rng.integers(5, 10, size=VOCAB_SIZE)
        draws = letters[rng.integers(0, 26, size=(VOCAB_SIZE, 9))]
        for row, n in zip(draws, lengths):
            word = row[:n].tobytes().decode("ascii")
            if word in seen or word in reserved or tokenize(word) != [word]:
                continue
            seen.add(word)
            words.append(word)
            if len(words) == VOCAB_SIZE:
                break
    return words


def high_cardinality(
    messages: list[Message], truth: syn.SynthTruth, config: syn.SynthConfig, seed: int
) -> list[Message]:
    """Append APPENDED_TOKENS vocabulary words to every message text and check
    that the corpus keeps its planted counts while every text is distinct."""
    rng = np.random.default_rng([seed, 7])
    reserved = reserved_tokens(config)
    vocab = make_vocabulary(rng, reserved)
    if reserved.intersection(vocab):
        raise InvariantError(f"vocabulary holds reserved tokens {sorted(reserved & set(vocab))[:5]}")
    # Distinct codes give distinct word triples, so no two texts can collide.
    codes = rng.choice(VOCAB_SIZE**APPENDED_TOKENS, size=len(messages), replace=False)
    out: list[Message] = []
    counts = [0] * config.weeks
    for m, code in zip(messages, codes.tolist()):
        words = []
        for _ in range(APPENDED_TOKENS):
            code, digit = divmod(code, VOCAB_SIZE)
            words.append(vocab[digit])
        derived = Message(id=m.id, timestamp=m.timestamp, author=m.author,
                          text=f"{m.text} {' '.join(words)}")
        tm = tokenize_message(derived)
        if list(tm.tokens[-APPENDED_TOKENS:]) != words:
            raise InvariantError(f"{m.id}: appended words {words} do not tokenize as themselves")
        if matches(GATE_QUERY, tm):
            counts[int(m.id[1:3]) - 1] += 1
        out.append(derived)

    distinct = len({m.text for m in out})
    if distinct != len(out):
        raise InvariantError(f"{distinct} distinct texts among {len(out)} messages")
    if tuple(counts) != truth.match_counts:
        raise InvariantError(
            f"gate matches per week {counts} differ from truth {list(truth.match_counts)}"
        )
    return out


def _write(path: Path, text: str) -> None:
    # Flushed to disk now, so write-back never competes with a timed command.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def write_inputs(kind: str, seed: int, out: Path) -> None:
    config = synth_config(seed)
    messages, truth = syn.generate(config)
    if kind == "hicard":
        messages = high_cardinality(messages, truth, config, seed)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "messages.jsonl", syn.messages_jsonl(messages))
    _write(out / "ili.csv", syn.ili_csv(truth))
    _write(out / "truth.json", truth.to_json())
    _write(out / "config.json", config.to_json())
    if kind == "plain":
        _write(out / "labeled.jsonl", syn.labeled_jsonl(syn.generate_labeled(config)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("plain", "hicard"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    try:
        write_inputs(args.kind, args.seed, args.out)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""False-alarm robustness simulation.

Takes real gate-matching news/spurious messages from a corpus, re-injects
them into chosen weeks at increasing volumes, and measures how far each
estimation method (plain keyword fraction, classifier-weighted soft
fraction, classifier-thresholded hard fraction) drifts from its own
un-injected estimates. Reported errors are on the percentage-point scale.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, time, timezone
from typing import Iterable, Mapping, Sequence

import numpy as np

from .classify import bucket_fractions  # noqa: F401  (perfbench/spans.py wraps it here)
from .classify import METHODS, ClassifierModel, WeekScores, method_series, score_tokens
from .corpus import Corpus, Message, TokenizedMessage, WeekBucket, json_int, json_value
from .corpus import tokenize, tokenize_message
from .query import GATE_QUERY, Query, Term, matches, matches_tokens
from .regress import RegressionModel, predict

DEFAULT_AUTHOR_MARKERS = ("news", "reuters")
DEFAULT_TEXT_MARKERS = ("associated press", "ap", "health officials")
DEFAULT_SCHEDULE_COUNTS = (0, 1000, 5000, 10000, 100000)
_GATE = GATE_QUERY.render()  # rendered once: pool_rows runs for every chunk of a file

# Reference mean squared errors (percentage points squared) for the three
# methods under this injection protocol, kept for side-by-side reporting.
REFERENCE_MSE = {
    "keywords": 0.077,
    "classify-soft": 0.035,
    "classify-hard": 0.023,
}


class SimulationError(ValueError):
    """Empty pools, bad schedules, or missing models."""


@dataclass(frozen=True, slots=True)
class SpuriousPool:
    """Gate-matching messages identified as news/spurious by author or text
    markers, kept as their token sequences: all that injection copies and
    scores. Injection draws them by index, so their order is part of the
    result; a corpus's pool is in (timestamp, id) order. source_rule
    records how they were selected."""

    tokens: tuple[tuple[str, ...], ...]
    source_rule: str

    def __post_init__(self) -> None:
        if not self.tokens:
            raise SimulationError(
                "no spurious messages matched, so the pool is empty; widen the author "
                f"or text markers (rule was: {self.source_rule})"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, slots=True)
class InjectionSchedule:
    """Pairs of (week_index, injected_count), one pair per distinct week."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise SimulationError("schedule has no (week, count) pairs")
        weeks = [w for w, _ in self.pairs]
        if len(set(weeks)) != len(weeks):
            raise SimulationError("schedule weeks must be distinct")
        for w, n in self.pairs:
            if n < 0:
                raise SimulationError(f"week {w}: injected count must be >= 0, got {n}")

    @property
    def weeks(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.pairs)

    def to_json(self) -> str:
        return json.dumps({"pairs": [list(p) for p in self.pairs]}, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "InjectionSchedule":
        doc = json_value(text, SimulationError, "bad schedule document")
        try:
            pairs = tuple((json_int(w), json_int(n)) for w, n in doc["pairs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"bad schedule document: {exc}") from None
        return cls(pairs=pairs)

    @classmethod
    def default_for(cls, weeks: Sequence[int]) -> "InjectionSchedule":
        """Escalating counts over the last len(DEFAULT_SCHEDULE_COUNTS) weeks."""
        k = len(DEFAULT_SCHEDULE_COUNTS)
        if len(weeks) < k:
            raise SimulationError(f"need at least {k} weeks for the default schedule")
        tail = list(weeks)[-k:]
        return cls(pairs=tuple(zip(tail, DEFAULT_SCHEDULE_COUNTS)))


def _markers(
    author_markers: Sequence[str], text_markers: Sequence[str]
) -> tuple[list[str], list[Term], str]:
    """The lowercased author markers, the text markers as terms and the
    pool's source_rule."""
    if not author_markers or not text_markers:
        raise SimulationError("author and text marker lists must be non-empty")
    author_lower = [a.lower() for a in author_markers]
    if any(not a for a in author_lower):
        raise SimulationError("author markers must be non-empty strings")
    terms = []
    for m in text_markers:
        tokens = tuple(tokenize(m))
        if not tokens:
            raise SimulationError(f"text marker {m!r} contains no tokens")
        terms.append(Term(tokens=tokens))
    rule = (
        f"gate query [{_GATE}] AND "
        f"(author contains {list(author_markers)} OR "
        f"text has phrase {list(text_markers)})"
    )
    return author_lower, terms, rule


def build_spurious_pool(
    messages: Iterable[Message | TokenizedMessage],
    author_markers: Sequence[str] = DEFAULT_AUTHOR_MARKERS,
    text_markers: Sequence[str] = DEFAULT_TEXT_MARKERS,
) -> SpuriousPool:
    """Collect gate-matching messages that look like news/syndicated content.

    A message qualifies if its author contains any author marker
    (case-insensitive substring) or its text contains any text marker as a
    contiguous token phrase; "ap" matches the token "ap", never "happy".
    """
    author_lower, terms, rule = _markers(author_markers, text_markers)
    pool: list[tuple[str, ...]] = []
    for m in messages:
        tm = m if isinstance(m, TokenizedMessage) else tokenize_message(m)
        if not matches(GATE_QUERY, tm):
            continue
        author = tm.message.author.lower()
        if any(a in author for a in author_lower) or any(t.found_in(tm.tokens) for t in terms):
            pool.append(tm.tokens)
    return SpuriousPool(tokens=tuple(pool), source_rule=rule)


def pool_rows(
    corpus: Corpus,
    gate: np.ndarray,
    author_markers: Sequence[str] = DEFAULT_AUTHOR_MARKERS,
    text_markers: Sequence[str] = DEFAULT_TEXT_MARKERS,
) -> list[tuple[int, str, tuple[str, ...]]]:
    """(POSIX second, id, tokens) of each row of a corpus, such as one chunk
    of a file, that build_spurious_pool keeps, where gate is
    match_rows(GATE_QUERY, corpus): the gate rows whose author holds a
    marker or whose text holds a marker phrase."""
    author_lower, terms, _ = _markers(author_markers, text_markers)
    marked = corpus.rows_with(*(t.tokens for t in terms)) & gate
    rest = np.flatnonzero(gate & ~marked)
    spans = zip(corpus.author_starts[rest].tolist(), corpus.author_starts[rest + 1].tolist())
    marked[rest] = [any(a in corpus.authors[b:e].lower() for a in author_lower) for b, e in spans]
    rows = np.flatnonzero(marked)
    # Equal tokens made one str, which pickle then sends once.
    tokens = (tuple(map(sys.intern, t)) for t in corpus.tokens(rows))
    return list(zip(corpus.seconds[rows].tolist(), map(corpus.id, rows.tolist()), tokens))


def spurious_pool(
    rows: Iterable[tuple[int, str, tuple[str, ...]]],
    author_markers: Sequence[str] = DEFAULT_AUTHOR_MARKERS,
    text_markers: Sequence[str] = DEFAULT_TEXT_MARKERS,
) -> SpuriousPool:
    """build_spurious_pool of a file's messages from the pool_rows of its
    chunks, in (timestamp, id) order: the order bucket_weekly gives them."""
    rule = _markers(author_markers, text_markers)[2]
    return SpuriousPool(tokens=tuple(tokens for *_, tokens in sorted(rows)), source_rule=rule)


def inject(
    buckets: Sequence[WeekBucket],
    pool: SpuriousPool,
    schedule: InjectionSchedule,
    seed: int,
) -> list[WeekBucket]:
    """Return new buckets with pool messages resampled into scheduled weeks.

    Sampling is with replacement. An injected copy is a new message with
    the pool message's tokens, dated at the start of its week's last day,
    and a fresh id ("#inj<ordinal>"); untouched weeks are passed through
    unchanged and the inputs are never mutated.
    """
    by_index = {b.week_index: b for b in buckets}
    missing = [w for w in schedule.weeks if w not in by_index]
    if missing:
        raise SimulationError(f"schedule week(s) {missing} not present in the corpus")
    rng = np.random.default_rng([seed, 2])
    out: list[WeekBucket] = []
    counts = dict(schedule.pairs)
    ordinal = 0
    for bucket in buckets:
        n = counts.get(bucket.week_index, 0)
        if n == 0:
            out.append(bucket)
            continue
        day = datetime.combine(bucket.end_date, time(), timezone.utc)
        injected = []
        for i in rng.integers(0, len(pool), size=n).tolist():
            tokens = pool.tokens[i]
            clone = Message(id=f"#inj{ordinal}", timestamp=day, author="", text=" ".join(tokens))
            injected.append(TokenizedMessage(message=clone, tokens=tokens))
            ordinal += 1
        out.append(replace(bucket, messages=bucket.messages + tuple(injected)))
    return out


# run_simulation draws a week's injected messages this many at a time.
_DRAW_BLOCK = 1 << 13
# run_simulation refuses, before any draw, to inject more messages than this
# into a week: about ten seconds of draws. The default schedule injects at
# most 100,000.
MAX_INJECTED = 10**9


@dataclass(frozen=True, slots=True)
class SimulationReport:
    """Estimates (percent) per method at the scheduled weeks, with and
    without injection. Baselines are each method's own un-injected numbers,
    so a method is judged only against itself."""

    weeks: tuple[int, ...]
    injected_counts: tuple[int, ...]
    estimates: dict[str, tuple[float, ...]]
    baselines: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        n = len(self.weeks)
        for mapping in (self.estimates, self.baselines):
            if set(mapping) != set(METHODS):
                raise SimulationError(f"report must cover methods {METHODS}")
            for name, series in mapping.items():
                if len(series) != n:
                    raise SimulationError(
                        f"method {name}: series length {len(series)} != {n} weeks"
                    )
        if len(self.injected_counts) != n:
            raise SimulationError("injected_counts length mismatch")


def run_simulation(
    scores: Sequence[WeekScores],
    pool: SpuriousPool,
    schedule: InjectionSchedule,
    models: Mapping[str, RegressionModel],
    classifier: ClassifierModel,
    seed: int,
    query: Query = GATE_QUERY,
) -> SimulationReport:
    """Score every method on injected weeks against its own baseline.

    scores are the clean weeks' WeekScores for query and classifier; models
    must supply one fitted regression per method name in METHODS (each
    fitted on its own fraction series from the clean corpus). The injection
    is inject()'s as arithmetic: the same draws pick pool messages, each
    scored once, and an injected week gains n messages and, for each pool
    message matching the query, its probability as many times as it was
    picked. Drawn _DRAW_BLOCK at a time, the picks are those of inject()'s
    one draw a week: numpy keeps a spare 32-bit half in the bit generator.
    """
    missing = [m for m in METHODS if m not in models]
    if missing:
        raise SimulationError(f"missing regression model(s) for: {missing}")
    clean = {s.week_index: s for s in scores}
    absent = sorted(w for w in schedule.weeks if w not in clean)
    if absent:
        raise SimulationError(f"schedule week(s) {absent} not present in the corpus")
    matching = [i for i, tokens in enumerate(pool.tokens) if matches_tokens(query, tokens)]
    probs = [score_tokens(classifier, pool.tokens[i]) for i in matching]
    for week, n in sorted(schedule.pairs):  # before any draw
        if n > MAX_INJECTED:
            raise SimulationError(f"week {week}: cannot draw {n} injected messages")
    rng = np.random.default_rng([seed, 2])
    injected = dict(clean)
    for week, n in sorted(schedule.pairs):  # inject()'s order: by week, no draw for 0
        picks = np.zeros(len(pool), np.int64)
        for start in range(0, n, _DRAW_BLOCK):
            block = rng.integers(0, len(pool), size=min(_DRAW_BLOCK, n - start))
            picks += np.bincount(block, minlength=len(pool))
        if n:
            injected[week] = clean[week] + WeekScores.of(week, n, probs, picks[matching].tolist())

    def estimates(weeks: Mapping[int, WeekScores]) -> dict[str, tuple[float, ...]]:
        series = method_series([weeks[w] for w in schedule.weeks])
        return {
            name: tuple(100.0 * predict(models[name], f) for f in s.values)
            for name, s in series.items()
        }

    return SimulationReport(
        weeks=schedule.weeks,
        injected_counts=tuple(n for _, n in schedule.pairs),
        estimates=estimates(injected),
        baselines=estimates(clean),
    )


def mse_vs_baseline(report: SimulationReport) -> dict[str, float]:
    """Mean squared deviation from baseline per method, in squared
    percentage points."""
    out = {}
    for name in METHODS:
        est = report.estimates[name]
        base = report.baselines[name]
        out[name] = math.fsum((e - b) ** 2 for e, b in zip(est, base)) / len(est)
    return out


def report_csv(report: SimulationReport) -> str:
    lines = ["week,injected,method,estimate,baseline,abs_error"]
    for i, w in enumerate(report.weeks):
        for name in METHODS:
            e = report.estimates[name][i]
            b = report.baselines[name][i]
            lines.append(f"{w},{report.injected_counts[i]},{name},{e!r},{b!r},{abs(e - b)!r}")
    return "\n".join(lines) + "\n"


def summary_json(report: SimulationReport, pool: SpuriousPool, seed: int) -> str:
    doc = {
        "weeks": list(report.weeks),
        "injected_counts": list(report.injected_counts),
        "mse": mse_vs_baseline(report),
        "reference_mse": REFERENCE_MSE,
        "pool_size": len(pool),
        "pool_rule": pool.source_rule,
        "seed": seed,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"

"""Synthetic message corpora with a planted fraction-to-ILI relationship.

Each week w gets a match count n_w chosen so that the realized gate-query
fraction q_w = n_w / N and the emitted true ILI proportion p_w satisfy

    logit(p_w) = beta1 * (logit(q_w) - delta_w) + beta2

exactly, where delta_w is seeded Gaussian noise on the logit of the target
fraction. With noise_sd = 0 the relation is exact and a downstream fit must
recover (beta1, beta2) to float precision; with noise the residuals carry
the planted noise and nothing else. Quantization from rounding n_w never
perturbs the relation because p_w is derived from the realized count.

Matching messages are split into genuine self-reports and spurious matches
(news items and figurative usage); non-matching filler makes up the rest.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields
from datetime import date, datetime, time, timedelta, timezone
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classify import LabeledMessage
from .corpus import Message, json_float, json_int, json_list, json_str, json_value, tokenize
from .corpus import tokenize_message
from .query import GATE_QUERY, matches
from .regress import logit, sigmoid

log = logging.getLogger(__name__)


class SynthError(ValueError):
    """Unsatisfiable or inconsistent generator configuration."""


# Filler words for template slots. None of these may introduce a gate-query
# token, so a template's match status never depends on the slot draw.
FILLER_WORDS: tuple[str, ...] = (
    "today",
    "tonight",
    "again",
    "rn",
    "lol",
    "omg",
    "smh",
    "tbh",
    "for real",
    "honestly",
    "all day",
    "this week",
    "since yesterday",
    "so bad",
    "big time",
)

# Genuine illness self-reports; every instantiation matches the gate query.
DEFAULT_POSITIVE_TEMPLATES: tuple[str, ...] = (
    "ugh i think i caught the flu, been in bed {} feeling awful",
    "woke up with a headache and a sore throat {} :( http",
    "my cough is getting worse {} and i feel feverish",
    "home sick with the flu {} this is miserable",
    "i have a pounding headache {} and the chills, no school for me http",
    "this cough won't quit {} pretty sure i'm coming down with the flu",
    "fever, sore throat, runny nose {} i am definitely sick",
    "day two of the flu, watching movies in bed {} http",
    "i feel terrible, sore throat and stuffy nose {} send soup",
    "still fighting this flu {} chicken soup and tea again http",
)

# Everyday chatter; no instantiation matches the gate query.
DEFAULT_NEGATIVE_TEMPLATES: tuple[str, ...] = (
    "just finished a great workout {} feeling strong",
    "new album dropping {} and i cannot wait",
    "coffee first, everything else later {}",
    "traffic on the bridge is unreal {}",
    "anyone want to grab tacos {}?",
    "my team pulled off the win {} what a game",
    "binge watching this new show {} no regrets",
    "finally finished that book {} totally worth it",
    "weekend plans: absolutely nothing {}",
    "the weather is gorgeous {} get outside http",
)

# Gate matches that are not illness reports: news items (marked by an http
# link and filed under newsy authors) and figurative keyword use.
DEFAULT_SPURIOUS_TEMPLATES: tuple[str, ...] = (
    "more people home sick with the flu this week {} http",
    "half the school is out sick with the flu again {} http",
    "flu shot day at the school, lines down the block {} http",
    "the cough syrup recall is still getting worse {} http",
    "flu season update, day two of the big wave {} http",
    "feeling awful with the flu? the nurse desk is open {} http",
    "this homework is giving me a headache {} lol",
    "got a sore throat from screaming at the concert {} totally worth it",
    "that movie was so funny i nearly choked, cough cough {}",
    "bieber fever got me, sore throat from singing all night {}",
    "my bracket is busted, what a headache {} smh",
    "spreadsheet formulas are giving me a headache {} send help",
)

NEWS_AUTHORS: tuple[str, ...] = (
    "ReutersWire",
    "ap_newsroom",
    "metro_news_daily",
    "HealthDeskNews",
    "city_news_flash",
)

DEFAULT_FIRST_WEEK_END = date(2009, 9, 5)
_WEEK_SECONDS = 7 * 86400


def default_ili_curve(weeks: int = 36) -> tuple[float, ...]:
    """A two-wave seasonal ILI proportion curve: an early peak around week 9
    and a second rise toward the end of the series."""
    values = []
    for w in range(1, weeks + 1):
        v = (
            0.010
            + 0.065 * math.exp(-(((w - 9) / 4.5) ** 2))
            + 0.050 * math.exp(-(((w - 38) / 6.0) ** 2))
        )
        values.append(v)
    return tuple(values)


@dataclass(frozen=True, slots=True)
class SynthConfig:
    seed: int
    weeks: int = 36
    messages_per_week: int = 10000
    first_week_end: date = DEFAULT_FIRST_WEEK_END
    true_beta1: float = 1.1
    true_beta2: float = 0.389
    ili_curve: tuple[float, ...] = field(default_factory=default_ili_curve)
    noise_sd: float = 0.0
    spurious_rate: float = 0.10
    positive_templates: tuple[str, ...] = DEFAULT_POSITIVE_TEMPLATES
    negative_templates: tuple[str, ...] = DEFAULT_NEGATIVE_TEMPLATES
    spurious_templates: tuple[str, ...] = DEFAULT_SPURIOUS_TEMPLATES

    def to_json(self) -> str:
        doc = {f.name: _CONFIG_JSON[f.type][0](getattr(self, f.name)) for f in fields(self)}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SynthConfig":
        doc = json_value(text, SynthError, "bad config document")
        if not isinstance(doc, dict):
            raise SynthError("bad config document: expected a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise SynthError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        if "seed" not in doc:
            raise SynthError("config must set 'seed'")
        try:
            kwargs = {f.name: _CONFIG_JSON[f.type][1](doc[f.name])
                      for f in fields(cls) if f.name in doc}
            if kwargs["seed"] < 0:  # numpy's generators take no negative seed
                raise ValueError(f"seed must be >= 0, got {kwargs['seed']}")
        except (TypeError, ValueError) as exc:
            raise SynthError(f"bad config document: {exc}") from None
        if "ili_curve" not in doc and "weeks" in doc:
            kwargs["ili_curve"] = default_ili_curve(kwargs["weeks"])
        return cls(**kwargs)


# For each type a SynthConfig field has (as annotated), how to_json writes
# a value of it and how from_json reads one back.
_CONFIG_JSON = {
    "int": (lambda value: value, json_int),
    "float": (lambda value: value, json_float),
    "date": (date.isoformat, date.fromisoformat),
    "tuple[float, ...]": (list, lambda value: tuple(map(json_float, json_list(value)))),
    "tuple[str, ...]": (list, lambda value: tuple(map(json_str, json_list(value)))),
}


@dataclass(frozen=True)
class SynthTruth:
    """Ground truth emitted alongside a generated corpus.

    ili holds the true weekly proportions consistent with the realized
    match counts; requested_ili is the curve the config asked for (they
    differ only through count rounding and noise). provenance_by_week holds
    every message's template code, e.g. "pos/3", week by week in
    message-ordinal order; the id for week w, ordinal i is f"w{w:02d}m{i:06d}".
    """

    week_indices: tuple[int, ...]
    end_dates: tuple[date, ...]
    requested_ili: tuple[float, ...]
    ili: tuple[float, ...]
    q_values: tuple[float, ...]
    match_counts: tuple[int, ...]
    totals: tuple[int, ...]
    noise: tuple[float, ...]
    true_beta1: float
    true_beta2: float
    provenance_by_week: tuple[tuple[str, ...], ...]

    @cached_property
    def provenance(self) -> dict[str, str]:
        """Every message id mapped to its template code."""
        return {
            f"w{w:02d}m{i:06d}": code
            for w, codes in zip(self.week_indices, self.provenance_by_week)
            for i, code in enumerate(codes)
        }

    def to_json(self) -> str:
        doc = {
            "weeks": list(self.week_indices),
            "end_dates": [d.isoformat() for d in self.end_dates],
            "requested_ili": list(self.requested_ili),
            "ili": list(self.ili),
            "q": list(self.q_values),
            "matches": list(self.match_counts),
            "totals": list(self.totals),
            "noise": list(self.noise),
            "true_beta1": self.true_beta1,
            "true_beta2": self.true_beta2,
            "provenance_by_week": {
                str(w): list(codes)
                for w, codes in zip(self.week_indices, self.provenance_by_week)
            },
        }
        return json.dumps(doc, sort_keys=True) + "\n"


@dataclass(frozen=True)
class SynthCorpus:
    """A generated corpus as per-message columns, in generation order.

    Row r is message number ordinal[r] of week week[r] (0-based), posted at
    POSIX second seconds[r]; its text and author are indices into the
    tables of distinct values. messages() and jsonl() turn the columns into
    Message objects or into the corpus file.
    """

    week: np.ndarray
    ordinal: np.ndarray
    seconds: np.ndarray
    text: np.ndarray
    author: np.ndarray
    texts: tuple[str, ...]
    authors: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.week)

    def messages(self) -> list[Message]:
        texts, authors = self.texts, self.authors
        return [
            Message(
                id=f"w{w + 1:02d}m{o:06d}",
                timestamp=datetime.fromtimestamp(sec, timezone.utc),
                author=authors[a],
                text=texts[t],
            )
            for w, o, sec, a, t in zip(
                self.week.tolist(),
                self.ordinal.tolist(),
                self.seconds.tolist(),
                self.author.tolist(),
                self.text.tolist(),
            )
        ]

    def jsonl(self) -> Iterator[str]:
        """messages_jsonl(self.messages()), byte for byte when joined, one
        week's lines at a time (a run of rows with the same week), so the
        whole file is never one string.

        Each line is seven pieces looked up in tables of strings formatted
        and escaped once: the week part of the id, the ordinal, the date,
        the hour, the minutes and seconds, the author and the text. A week's
        rows index the tables into one (rows, 7) array, which is joined
        into one string.
        """
        first_day = int(self.seconds.min()) // 86400
        days = int(self.seconds.max()) // 86400 - first_day + 1
        first = date(1970, 1, 1) + timedelta(days=first_day)
        escape = encode_basestring_ascii  # what json.dumps runs on a str
        tables = [
            [f'{{"id": "w{w + 1:02d}m' for w in range(int(self.week.max()) + 1)],
            [f"{o:06d}" for o in range(int(self.ordinal.max()) + 1)],
            [f'", "timestamp": "{first + timedelta(days=d)}T' for d in range(days)],
            [f"{h:02d}:" for h in range(24)],
            [f'{s // 60:02d}:{s % 60:02d}Z", "author": ' for s in range(3600)],
            list(map(escape, self.authors)),
            [f', "text": {escape(t)}}}\n' for t in self.texts],
        ]
        tables = [np.array(table, dtype=object) for table in tables]
        cuts = [0, *(np.flatnonzero(np.diff(self.week)) + 1).tolist(), len(self)]
        for a, b in zip(cuts, cuts[1:]):
            day, second = np.divmod(self.seconds[a:b], 86400)
            hour, second = np.divmod(second, 3600)
            columns = (self.week[a:b], self.ordinal[a:b], day - first_day, hour, second,
                       self.author[a:b], self.text[a:b])
            pieces = np.empty((b - a, len(tables)), dtype=object)
            for k, (table, column) in enumerate(zip(tables, columns)):
                pieces[:, k] = table[column]
            yield "".join(pieces.ravel().tolist())


def _slot_count(template: str) -> int:
    return template.count("{}")


def _instantiate(template: str, fillers: Sequence[str]) -> str:
    k = _slot_count(template)
    return template.format(*fillers[:k]) if k else template


def _validate_templates(config: SynthConfig) -> None:
    gate_terms = [t for t in GATE_QUERY.base_terms]
    for filler in FILLER_WORDS:
        toks = tuple(tokenize(filler))
        for term in gate_terms:
            if term.found_in(toks):
                raise SynthError(f"filler {filler!r} contains gate term {term.render()}")
    groups = (
        ("positive", config.positive_templates, True),
        ("spurious", config.spurious_templates, True),
        ("negative", config.negative_templates, False),
    )
    for name, templates, want_match in groups:
        if not templates:
            raise SynthError(f"{name}_templates must be non-empty")
        for ti, template in enumerate(templates):
            try:  # a fourth slot, a named field or a stray brace
                _instantiate(template, ("",) * 3)
            except (IndexError, KeyError, ValueError) as exc:
                raise SynthError(
                    f"{name} template {ti} must be text with at most 3 {{}} slots "
                    f"({type(exc).__name__}: {exc}): {template!r}"
                ) from None
            for filler in FILLER_WORDS:
                text = _instantiate(template, (filler, filler, filler))
                tm = tokenize_message(
                    Message(
                        id="probe",
                        timestamp=datetime(2009, 9, 1, tzinfo=timezone.utc),
                        author="probe",
                        text=text,
                    )
                )
                if matches(GATE_QUERY, tm) != want_match:
                    raise SynthError(
                        f"{name} template {ti} {'must' if want_match else 'must not'} "
                        f"match the gate query (failed with filler {filler!r}): "
                        f"{template!r}"
                    )


def _validate_config(config: SynthConfig) -> None:
    if config.weeks < 1:
        raise SynthError("weeks must be >= 1")
    if config.messages_per_week < 2:
        raise SynthError("messages_per_week must be >= 2")
    if len(config.ili_curve) != config.weeks:
        raise SynthError(
            f"ili_curve has {len(config.ili_curve)} values for {config.weeks} weeks"
        )
    for w, p in enumerate(config.ili_curve, start=1):
        if not 0.0 < p < 1.0:
            raise SynthError(f"week {w}: ili value {p} outside (0, 1)")
    for name in ("noise_sd", "true_beta1", "true_beta2"):
        if not math.isfinite(getattr(config, name)):
            raise SynthError(f"{name} must be finite, got {getattr(config, name)}")
    if config.noise_sd < 0:
        raise SynthError("noise_sd must be >= 0")
    if not 0.0 <= config.spurious_rate < 1.0:
        raise SynthError("spurious_rate must be in [0, 1)")
    if config.first_week_end.weekday() != 5:
        raise SynthError(f"first_week_end {config.first_week_end} is not a Saturday")
    last_week_ends = (date.max - config.first_week_end).days // 7 + 1
    if config.first_week_end.toordinal() < 7 or config.weeks > last_week_ends:
        raise SynthError(
            f"{config.weeks} weeks ending on {config.first_week_end} onward do not fit "
            f"between {date.min} and {date.max}"
        )
    if config.true_beta1 == 0:
        raise SynthError("true_beta1 must be non-zero")
    _validate_templates(config)


def generate(config: SynthConfig) -> tuple[list[Message], SynthTruth]:
    """Generate a corpus and its ground truth. Fully determined by config."""
    corpus, truth = generate_corpus(config)
    return corpus.messages(), truth


_USERS = 100000  # authors user00000 .. user99999; author codes past them are news desks


def _unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True) for non-negative integers,
    without sorting: a table flags the values present, and its running
    count ranks them.

    The table has values.max() + 1 entries of 9 bytes, so values must be
    small: generate_corpus passes text keys below 15**3 per template
    (about 1 MB for the default 32 templates) and author codes below
    100,005 (0.9 MB).
    """
    present = np.zeros(int(values.max()) + 1, dtype=bool)
    present[values] = True
    rank = np.cumsum(present) - 1
    return np.flatnonzero(present).astype(values.dtype), rank[values]


def generate_corpus(config: SynthConfig) -> tuple[SynthCorpus, SynthTruth]:
    """generate(config) as columns: the same random draws, in the same order,
    without one Message object per message."""
    _validate_config(config)
    rng = np.random.default_rng([config.seed, 0])
    n_weeks = config.weeks
    total = config.messages_per_week
    delta = rng.normal(0.0, config.noise_sd, size=n_weeks) if config.noise_sd > 0 else np.zeros(n_weeks)

    match_counts: list[int] = []
    truth_ili: list[float] = []
    for w in range(n_weeks):
        target_logit_q = (logit(config.ili_curve[w]) - config.true_beta2) / config.true_beta1
        n = int(round(sigmoid(target_logit_q + delta[w]) * total))
        if not 1 <= n <= total - 1:
            raise SynthError(
                f"week {w + 1}: planted match count {n} outside [1, {total - 1}]; "
                "the ili curve or noise is too extreme for messages_per_week"
            )
        match_counts.append(n)
        truth_ili.append(
            sigmoid(
                config.true_beta1 * (logit(n / total) - delta[w]) + config.true_beta2
            )
        )

    # Templates of all three kinds in one list; a message's text is keyed by
    # (template, filler, filler, filler) with the fillers of unused slots
    # zeroed, so equal keys are equal texts.
    groups = (
        ("pos", config.positive_templates),
        ("spur", config.spurious_templates),
        ("neg", config.negative_templates),
    )
    all_templates = [t for _, templates in groups for t in templates]
    firsts = np.cumsum([0] + [len(templates) for _, templates in groups])
    slots = np.array([_slot_count(t) for t in all_templates])
    codes = np.array([f"{code}/{i}" for code, ts in groups for i in range(len(ts))], dtype=object)
    is_news = np.zeros(len(all_templates), dtype=bool)
    is_news[firsts[1]:firsts[2]] = ["http" in t for t in config.spurious_templates]
    n_fill = len(FILLER_WORDS)

    epochs: list[int] = []
    end_dates: list[date] = []
    # Each draw is written into its column as it is made; the columns are
    # narrower than the int64 draws, which keeps the same values and the
    # same random stream (a dtype passed to rng.integers would change it).
    rows = n_weeks * total
    template = np.empty(rows, dtype=np.int32)
    fillers = np.empty((rows, 3), dtype=np.int8)
    author_idx = np.empty(rows, dtype=np.int32)
    offsets = np.empty(rows, dtype=np.int32)
    at = 0
    for w in range(n_weeks):
        end = config.first_week_end + timedelta(days=7 * w)
        end_dates.append(end)
        week_start = datetime.combine(end - timedelta(days=6), time(0), tzinfo=timezone.utc)
        epochs.append(int(week_start.timestamp()))
        n = match_counts[w]
        n_spur = int(round(config.spurious_rate * n))
        counts = (n - n_spur, n_spur, total - n)
        for g, (_, templates) in enumerate(groups):
            count = counts[g]
            if count == 0:
                continue
            drawn = slice(at, at + count)
            at += count
            template[drawn] = rng.integers(0, len(templates), size=count) + firsts[g]
            fillers[drawn] = rng.integers(0, n_fill, size=(count, 3))
            author_idx[drawn] = rng.integers(0, _USERS, size=count)
            offsets[drawn] = rng.integers(0, _WEEK_SECONDS, size=count)

    fillers[np.arange(3) >= slots[template][:, None]] = 0
    keys = template.astype(np.int64)
    for column in fillers.T:
        keys *= n_fill
        keys += column
    del fillers
    keys, text = _unique_inverse(keys)
    texts = []
    for key in keys.tolist():
        key, f2 = divmod(key, n_fill)
        key, f1 = divmod(key, n_fill)
        t, f0 = divmod(key, n_fill)
        texts.append(
            _instantiate(all_templates[t], (FILLER_WORDS[f0], FILLER_WORDS[f1], FILLER_WORDS[f2]))
        )
    # News templates are posted by a news desk, the rest by users.
    news = is_news[template]
    author_idx[news] = _USERS + author_idx[news] % len(NEWS_AUTHORS)
    author_codes, author = _unique_inverse(author_idx)
    authors = [
        NEWS_AUTHORS[a - _USERS] if a >= _USERS else f"user{a:05d}"
        for a in author_codes.tolist()
    ]
    log.info(
        "generate_corpus: %d rows, %d distinct texts, %d distinct authors",
        rows, len(texts), len(authors),
    )
    corpus = SynthCorpus(
        week=np.repeat(np.arange(n_weeks, dtype=np.int32), total),
        ordinal=np.tile(np.arange(total, dtype=np.int32), n_weeks),
        seconds=np.repeat(np.array(epochs, dtype=np.int64), total) + offsets,
        text=text,
        author=author,
        texts=tuple(texts),
        authors=tuple(authors),
    )
    # Message's own checks hold by construction: ids are never empty,
    # timestamps are UTC, and _validate_config has built a Message from
    # every template at its longest instantiation (every slot filled with
    # the same filler, each filler in turn).
    truth = SynthTruth(
        week_indices=tuple(range(1, n_weeks + 1)),
        end_dates=tuple(end_dates),
        requested_ili=tuple(config.ili_curve),
        ili=tuple(truth_ili),
        q_values=tuple(n / total for n in match_counts),
        match_counts=tuple(match_counts),
        totals=tuple([total] * n_weeks),
        noise=tuple(float(d) for d in delta),
        true_beta1=config.true_beta1,
        true_beta2=config.true_beta2,
        provenance_by_week=tuple(
            tuple(codes[template[w * total:(w + 1) * total]].tolist()) for w in range(n_weeks)
        ),
    )
    return corpus, truth


def generate_labeled(
    config: SynthConfig, n_positive: int = 160, n_negative: int = 46
) -> list[LabeledMessage]:
    """Generate a labeled training set for the spurious-match classifier.

    Positives come from the genuine-report templates, negatives from the
    spurious templates; every instance matches the gate query, mirroring how
    candidates reach the classifier in the first place. Templates are dealt
    round-robin so class and template counts are seed-independent; only the
    slot fillers vary with the seed.
    """
    _validate_templates(config)
    if n_positive < 1 or n_negative < 1:
        raise SynthError("need at least one labeled message per class")
    rng = np.random.default_rng([config.seed, 1])
    base_ts = datetime(2010, 6, 6, 12, 0, tzinfo=timezone.utc)
    out: list[LabeledMessage] = []
    plan = (
        ("lab-p", config.positive_templates, n_positive, 1),
        ("lab-n", config.spurious_templates, n_negative, 0),
    )
    minute = 0
    for prefix, templates, count, label in plan:
        fillers = rng.integers(0, len(FILLER_WORDS), size=(count, 3))
        for i in range(count):
            template = templates[i % len(templates)]
            text = _instantiate(
                template,
                (
                    FILLER_WORDS[fillers[i, 0]],
                    FILLER_WORDS[fillers[i, 1]],
                    FILLER_WORDS[fillers[i, 2]],
                ),
            )
            msg = Message(
                id=f"{prefix}{i:04d}",
                timestamp=base_ts + timedelta(minutes=minute),
                author=f"panel{i % 500:03d}",
                text=text,
            )
            out.append(LabeledMessage(message=tokenize_message(msg), label=label))
            minute += 1
    return out


# --- file output -------------------------------------------------------------


def _format_timestamp(ts: datetime) -> str:
    # Same layout as strftime("%Y-%m-%dT%H:%M:%SZ") at a fraction of the cost;
    # strftime shows up in profiles when serializing corpora of this size.
    return (
        f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}"
        f"T{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d}Z"
    )


def messages_jsonl(messages: Iterable[Message]) -> str:
    # Assembled by hand, field by field, because one json.dumps per record
    # is measurably slower at corpus scale. The timestamp needs no escaping;
    # every other field goes through json.dumps, so the bytes are exactly
    # what the dict form would produce.
    lines = []
    dumps = json.dumps
    for m in messages:
        lines.append(
            f'{{"id": {dumps(m.id)}, '
            f'"timestamp": "{_format_timestamp(m.timestamp)}", '
            f'"author": {dumps(m.author)}, "text": {dumps(m.text)}}}'
        )
    return "\n".join(lines) + "\n"


def labeled_jsonl(data: Iterable[LabeledMessage]) -> str:
    lines = []
    for lm in data:
        m = lm.message.message
        lines.append(
            json.dumps(
                {
                    "id": m.id,
                    "timestamp": _format_timestamp(m.timestamp),
                    "author": m.author,
                    "text": m.text,
                    "label": lm.label,
                }
            )
        )
    return "\n".join(lines) + "\n"


def ili_csv(truth: SynthTruth) -> str:
    lines = ["week_ending,ili_pct"]
    for end, p in zip(truth.end_dates, truth.ili):
        lines.append(f"{end.isoformat()},{p * 100.0!r}")
    return "\n".join(lines) + "\n"

"""Synthetic corpus generation: determinism, planted truth, file formats."""

import hashlib
import json
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilitrack.cli import main
from ilitrack.corpus import CorpusError, bucket_weekly, ingest, load_ili_csv, tokenize
from ilitrack.classify import load_labeled_jsonl
from ilitrack.query import GATE_QUERY, matches
from ilitrack.regress import WeeklySeries, fit, logit, sigmoid
from ilitrack.synth import (
    DEFAULT_NEGATIVE_TEMPLATES,
    DEFAULT_POSITIVE_TEMPLATES,
    DEFAULT_SPURIOUS_TEMPLATES,
    FILLER_WORDS,
    NEWS_AUTHORS,
    SynthConfig,
    SynthError,
    _unique_inverse,
    default_ili_curve,
    generate,
    generate_corpus,
    generate_labeled,
    ili_csv,
    labeled_jsonl,
    messages_jsonl,
)

SMALL = SynthConfig(seed=4, weeks=6, messages_per_week=300,
                    ili_curve=default_ili_curve(6))
# Half the matches spurious, from one news template whose text needs JSON
# escapes and one figurative template with two slots.
NEWSY = SynthConfig(
    seed=9, weeks=3, messages_per_week=400, ili_curve=default_ili_curve(3),
    spurious_rate=0.5,
    spurious_templates=('the "flu" désastre, {} schools shut http', "cough cough {} lol {}"),
)


# --- config -------------------------------------------------------------------


def test_default_curve_shape():
    curve = default_ili_curve()
    assert len(curve) == 36
    assert all(0.0 < v < 1.0 for v in curve)
    assert curve.index(max(curve)) == 8  # early-season peak at week 9
    assert curve[35] > curve[25]  # second wave rising at the end


@pytest.mark.parametrize(
    "kwargs,complaint",
    [
        (dict(weeks=0, ili_curve=()), "weeks"),
        (dict(messages_per_week=1), "messages_per_week"),
        (dict(weeks=3, ili_curve=(0.02, 0.02)), "3 weeks"),
        (dict(weeks=2, ili_curve=(0.02, 1.5)), r"outside \(0, 1\)"),
        (dict(noise_sd=-0.1), "noise_sd"),
        (dict(spurious_rate=1.0), "spurious_rate"),
        (dict(first_week_end=date(2009, 9, 4)), "Saturday"),
        (dict(true_beta1=0.0), "non-zero"),
        (dict(noise_sd=math.nan), "noise_sd must be finite"),
        (dict(true_beta1=math.inf), "true_beta1 must be finite"),
        (dict(true_beta2=-math.inf), "true_beta2 must be finite"),
        # A config document holds finite JSON numbers in float fields.
        ('{"seed": 0, "noise_sd": "0.5"}', "bad config document"),
        ('{"seed": 0, "true_beta1": true}', "bad config document"),
        # ... and templates a JSON array of strings: tuple() would read "abc"
        # as ("a", "b", "c"), str() the numbers as ("1", "2").
        ('{"seed": 0, "positive_templates": "abc"}', "bad config document"),
        ('{"seed": 0, "positive_templates": [1, 2]}', "bad config document"),
    ],
)
def test_config_validation(kwargs, complaint):
    with pytest.raises(SynthError, match=complaint):
        if isinstance(kwargs, str):
            SynthConfig.from_json(kwargs)
        else:
            generate(SynthConfig(seed=0, **kwargs))


def test_template_validation_catches_gate_violations():
    bad_neg = SynthConfig(
        seed=0, weeks=2, ili_curve=(0.02, 0.03),
        negative_templates=("i have the flu today {}",),
    )
    with pytest.raises(SynthError, match="negative template 0 must not match"):
        generate(bad_neg)
    bad_pos = SynthConfig(
        seed=0, weeks=2, ili_curve=(0.02, 0.03),
        positive_templates=("perfectly healthy {}",),
    )
    with pytest.raises(SynthError, match="positive template 0 must match"):
        generate(bad_pos)


def test_default_templates_respect_gate():
    for t in DEFAULT_POSITIVE_TEMPLATES + DEFAULT_SPURIOUS_TEMPLATES:
        text = t.replace("{}", FILLER_WORDS[0])
        assert matches(GATE_QUERY, _tok(text)), t
    for t in DEFAULT_NEGATIVE_TEMPLATES:
        text = t.replace("{}", FILLER_WORDS[0])
        assert not matches(GATE_QUERY, _tok(text)), t


def _tok(text):
    from conftest import tmsg

    return tmsg(text)


def test_config_json_round_trip():
    cfg = SynthConfig(seed=12, weeks=4, messages_per_week=500,
                      ili_curve=(0.01, 0.02, 0.03, 0.02), noise_sd=0.05)
    back = SynthConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_from_json_weeks_only_redefaults_curve():
    cfg = SynthConfig.from_json('{"seed": 1, "weeks": 10}')
    assert cfg.weeks == 10
    assert cfg.ili_curve == default_ili_curve(10)


def test_config_from_json_rejects_unknown_and_missing_seed():
    with pytest.raises(SynthError, match="unknown config field"):
        SynthConfig.from_json('{"seed": 1, "wks": 3}')
    with pytest.raises(SynthError, match="seed"):
        SynthConfig.from_json('{"weeks": 3}')


@pytest.mark.parametrize("text", [
    "", "not json", "[1]", '"seed"', '{"seed": "one"}', '{"seed": 1, "ili_curve": 5}',
    '{"seed": 1, "first_week_end": "Saturday"}', '{"seed": 1, "weeks": null}',
])
def test_config_from_json_rejects_malformed_documents(text):
    with pytest.raises(SynthError, match="bad config document"):
        SynthConfig.from_json(text)


# --- generate -----------------------------------------------------------------


def test_generate_is_deterministic():
    m1, t1 = generate(SMALL)
    m2, t2 = generate(SMALL)
    assert messages_jsonl(m1) == messages_jsonl(m2)
    assert t1.to_json() == t2.to_json()


def test_generate_seed_changes_output():
    m1, _ = generate(SMALL)
    m2, _ = generate(SynthConfig(seed=5, weeks=6, messages_per_week=300,
                                 ili_curve=default_ili_curve(6)))
    assert messages_jsonl(m1) != messages_jsonl(m2)


def test_truth_recount_is_exact():
    messages, truth = generate(SMALL)
    buckets = bucket_weekly(messages, SMALL.first_week_end, weeks=SMALL.weeks)
    for b, expected, total in zip(buckets, truth.match_counts, truth.totals):
        assert len(b) == total
        got = sum(1 for tm in b.messages if matches(GATE_QUERY, tm))
        assert got == expected
    assert truth.q_values == tuple(
        n / t for n, t in zip(truth.match_counts, truth.totals)
    )


def test_truth_ili_identity():
    # The emitted truth absorbs count rounding: with zero noise it sits
    # exactly on the logit-logit line through the realized fractions.
    messages, truth = generate(SMALL)
    assert truth.noise == (0.0,) * SMALL.weeks
    for q, p in zip(truth.q_values, truth.ili):
        assert p == sigmoid(SMALL.true_beta1 * logit(q) + SMALL.true_beta2)


def test_truth_ili_identity_with_noise():
    cfg = SynthConfig(seed=9, weeks=6, messages_per_week=400,
                      ili_curve=default_ili_curve(6), noise_sd=0.08)
    _, truth = generate(cfg)
    assert any(d != 0.0 for d in truth.noise)
    for q, d, p in zip(truth.q_values, truth.noise, truth.ili):
        assert p == sigmoid(cfg.true_beta1 * (logit(q) - d) + cfg.true_beta2)


def test_noiseless_fit_recovers_planted_line():
    messages, truth = generate(SMALL)
    fractions = WeeklySeries(week_indices=truth.week_indices, values=truth.q_values)
    ili = WeeklySeries(week_indices=truth.week_indices, values=truth.ili)
    model = fit(fractions, ili, truth.week_indices)
    assert model.beta1 == pytest.approx(SMALL.true_beta1, abs=1e-12)
    assert model.beta2 == pytest.approx(SMALL.true_beta2, abs=1e-12)


def test_provenance_covers_every_message():
    messages, truth = generate(SMALL)
    assert len(truth.provenance) == len(messages)
    spur_seen = 0
    for m in messages:
        code = truth.provenance[m.id]
        kind, _, idx = code.partition("/")
        assert kind in ("pos", "spur", "neg")
        templates = {
            "pos": SMALL.positive_templates,
            "spur": SMALL.spurious_templates,
            "neg": SMALL.negative_templates,
        }[kind]
        assert 0 <= int(idx) < len(templates)
        is_match = matches(GATE_QUERY, _tok(m.text))
        assert is_match == (kind in ("pos", "spur"))
        if kind == "spur":
            spur_seen += 1
    expected_spur = sum(round(SMALL.spurious_rate * n) for n in truth.match_counts)
    assert spur_seen == expected_spur


def test_news_authors_only_on_linky_spurious_messages():
    messages, truth = generate(SMALL)
    news_flags = {i: ("http" in t) for i, t in enumerate(SMALL.spurious_templates)}
    for m in messages:
        kind, _, idx = truth.provenance[m.id].partition("/")
        if kind == "spur" and news_flags[int(idx)]:
            assert m.author in NEWS_AUTHORS
        else:
            assert m.author.startswith("user")


def test_timestamps_fall_inside_their_week():
    messages, truth = generate(SMALL)
    for m in messages:
        w = int(m.id[1:3])
        end = truth.end_dates[w - 1]
        assert end - timedelta(days=6) <= m.timestamp.date() <= end


def test_generate_rejects_unreachable_counts():
    # An ili value so high the implied match count would swallow the week.
    cfg = SynthConfig(seed=0, weeks=2, messages_per_week=10,
                      ili_curve=(0.9999, 0.02))
    with pytest.raises(SynthError, match="outside"):
        generate(cfg)


# --- labeled set --------------------------------------------------------------


def test_generate_labeled_counts_and_gate():
    data = generate_labeled(SMALL, n_positive=25, n_negative=9)
    assert sum(lm.label for lm in data) == 25
    assert sum(1 - lm.label for lm in data) == 9
    for lm in data:
        assert matches(GATE_QUERY, lm.message)
    ids = [lm.message.message.id for lm in data]
    assert len(set(ids)) == len(ids)
    assert ids[0] == "lab-p0000"
    assert ids[-1] == "lab-n0008"


def test_generate_labeled_round_robin_templates():
    data = generate_labeled(SMALL, n_positive=20, n_negative=12)
    n_pos_templates = len(SMALL.positive_templates)
    for i, lm in enumerate(lm for lm in data if lm.label == 1):
        template = SMALL.positive_templates[i % n_pos_templates]
        fixed_prefix = template.split("{}")[0].strip()
        if fixed_prefix:
            assert lm.message.message.text.startswith(fixed_prefix)


def test_generate_labeled_deterministic_and_seeded():
    d1 = generate_labeled(SMALL, 10, 5)
    d2 = generate_labeled(SMALL, 10, 5)
    assert labeled_jsonl(d1) == labeled_jsonl(d2)
    other = SynthConfig(seed=SMALL.seed + 1, weeks=6, messages_per_week=300,
                        ili_curve=default_ili_curve(6))
    d3 = generate_labeled(other, 10, 5)
    assert [lm.label for lm in d3] == [lm.label for lm in d1]  # plan is fixed
    assert labeled_jsonl(d3) != labeled_jsonl(d1)  # fillers differ


def test_generate_labeled_requires_positive_counts():
    with pytest.raises(SynthError, match="at least one"):
        generate_labeled(SMALL, 0, 5)


# --- file formats ----------------------------------------------------------------


def test_messages_jsonl_round_trips_through_ingest(tmp_path):
    messages, truth = generate(SMALL)
    p = tmp_path / "messages.jsonl"
    p.write_text(messages_jsonl(messages), encoding="utf-8")
    first = truth.end_dates[0] - timedelta(days=6)
    last = truth.end_dates[-1]
    back = ingest(p, (first, last))
    assert len(back) == len(messages)
    assert sorted(m.id for m in back) == sorted(m.id for m in messages)
    by_id = {m.id: m for m in messages}
    for m in back:
        assert m == by_id[m.id]


def test_labeled_jsonl_round_trips(tmp_path):
    data = generate_labeled(SMALL, 8, 4)
    p = tmp_path / "labeled.jsonl"
    p.write_text(labeled_jsonl(data), encoding="utf-8")
    back = load_labeled_jsonl(p)
    assert len(back) == 12
    assert [lm.label for lm in back] == [lm.label for lm in data]
    assert [lm.message.message.text for lm in back] == [
        lm.message.message.text for lm in data
    ]


def test_ili_csv_round_trips_exactly(tmp_path):
    _, truth = generate(SMALL)
    p = tmp_path / "ili.csv"
    p.write_text(ili_csv(truth), encoding="utf-8")
    rows = load_ili_csv(p)
    assert [d for d, _ in rows] == list(truth.end_dates)
    # repr round-trip: percentages survive the file bit-for-bit
    assert [pct / 100.0 for _, pct in rows] == pytest.approx(
        list(truth.ili), rel=1e-15, abs=0.0
    )


def test_truth_json_provenance_by_week():
    _, truth = generate(SMALL)
    doc = json.loads(truth.to_json())
    assert doc["true_beta1"] == SMALL.true_beta1
    assert doc["matches"] == list(truth.match_counts)
    codes = doc["provenance_by_week"]["1"]
    assert len(codes) == truth.totals[0]
    assert codes[0].startswith(("pos/", "spur/", "neg/"))


def test_fillers_never_break_the_gate():
    for filler in FILLER_WORDS:
        toks = tokenize(filler)
        assert "flu" not in toks
        assert "cough" not in toks
        assert "headache" not in toks


# --- column-first writer ----------------------------------------------------------


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cfg", [SMALL, NEWSY], ids=["small", "newsy"])
def test_corpus_jsonl_is_the_reference_serialization(cfg):
    corpus, truth = generate_corpus(cfg)
    messages, reference_truth = generate(cfg)
    assert "".join(corpus.jsonl()) == messages_jsonl(messages)
    assert truth == reference_truth
    assert len(corpus) == len(messages) == sum(truth.totals)


# Characters that JSON escapes, or writes as \u escapes: a quote, a
# backslash, control characters, two letters outside ASCII and one outside
# the BMP. Appended after a space, none can form or split a gate-query word.
ESCAPED = '"\\\x00\x01\t\n\x1f\x7féΣ\U0001F600'


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    weeks=st.one_of(st.integers(1, 4), st.integers(100, 102)),
    messages_per_week=st.integers(50, 70),
    # Saturdays from 1950 to 1990, so POSIX days are negative as often as not.
    saturdays_after_1970=st.integers(-1044, 1044),
    suffixes=st.lists(st.text(ESCAPED, max_size=6), min_size=3, max_size=3),
)
@example(seed=1, weeks=101, messages_per_week=50, saturdays_after_1970=-60,
         suffixes=['"\\', "\x00é", "Σ\U0001F600"])
def test_corpus_jsonl_equals_the_reference_on_any_config(
    seed, weeks, messages_per_week, saturdays_after_1970, suffixes
):
    def escaped(templates, suffix):
        return tuple(f"{t} {suffix}" for t in templates)

    cfg = SynthConfig(
        seed=seed, weeks=weeks, messages_per_week=messages_per_week,
        ili_curve=default_ili_curve(weeks),
        first_week_end=date(1970, 1, 3) + timedelta(weeks=saturdays_after_1970),
        positive_templates=escaped(DEFAULT_POSITIVE_TEMPLATES, suffixes[0]),
        negative_templates=escaped(DEFAULT_NEGATIVE_TEMPLATES, suffixes[1]),
        spurious_templates=escaped(DEFAULT_SPURIOUS_TEMPLATES, suffixes[2]),
    )
    assert "".join(generate_corpus(cfg)[0].jsonl()) == messages_jsonl(generate(cfg)[0])


@given(st.lists(st.integers(0, 3000), min_size=1, max_size=200),
       st.sampled_from([np.int16, np.int32, np.int64]))
def test_unique_inverse_is_np_unique(values, dtype):
    values = np.array(values).astype(dtype)
    for got, want in zip(_unique_inverse(values), np.unique(values, return_inverse=True)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_news_config_has_news_desks_and_escaped_text():
    corpus, _ = generate_corpus(NEWSY)
    authors = {corpus.authors[a] for a in corpus.author.tolist()}
    assert authors & set(NEWS_AUTHORS)
    assert '\\"flu\\" d\\u00e9sastre' in "".join(corpus.jsonl())


# SHA-256 of messages.jsonl and truth.json as generate + messages_jsonl +
# SynthTruth.to_json wrote them when generate built one Message per draw,
# before the columns existed.
GOLDEN = {
    "small": (
        "62ef4d5394ab2b012e870169d07a736508a562c4db6c6d608f1d3abb71e16493",
        "4b872c3d31a10c208481d37dffd17985bec86a45113ea4b2e3f278f06312d121",
    ),
    "newsy": (
        "3ce37a8679cf9a4094b924c99cee9ee8c6542ad25137d1fa53b0519b9234b891",
        "f6403b43fdb0a5b891adc36703b31de14dc05dcfa4bc8ddb7a02a40ac25786d2",
    ),
}


@pytest.mark.parametrize("name,cfg", [("small", SMALL), ("newsy", NEWSY)])
def test_generated_files_are_unchanged(name, cfg):
    corpus, truth = generate_corpus(cfg)
    assert (sha256("".join(corpus.jsonl())), sha256(truth.to_json())) == GOLDEN[name]


def test_truth_provenance_agrees_with_its_by_week_form():
    messages, truth = generate(SMALL)
    assert [m.id for m in messages] == list(truth.provenance)
    by_week = [truth.provenance_by_week[int(m.id[1:3]) - 1][int(m.id[4:])] for m in messages]
    assert by_week == list(truth.provenance.values())


def test_overlong_template_still_fails_in_validation(tmp_path, capsys):
    # 1000 characters with the shortest filler, more with any longer one.
    template = "flu " + "x" * 990 + " {}"
    cfg = SynthConfig(seed=1, weeks=2, messages_per_week=50,
                      ili_curve=default_ili_curve(2), positive_templates=(template,))
    for make in (generate, generate_corpus):
        with pytest.raises(CorpusError) as exc:
            make(cfg)
        assert str(exc.value) == "message 'probe': text exceeds 1000 characters"
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    assert main(["synth", "--seed", "1", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: message 'probe': text exceeds 1000 characters\n"

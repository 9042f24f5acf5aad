"""Tokenizer, ingestion, and weekly bucketing."""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilitrack import corpus as corpus_module
from ilitrack.corpus import (
    CorpusError,
    Message,
    _posix_seconds,
    bucket_weekly,
    ingest,
    load_corpus,
    load_ili_csv,
    message_from_record,
    normalize,
    tokenize,
    tokenize_message,
    week_index_for,
)
from ilitrack.query import Query, Term, match_rows, matches

from conftest import msg, tmsg, utc

FIRST_END = date(2009, 9, 5)  # a Saturday


# --- tokenize ----------------------------------------------------------------


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Flu, cough... HEADACHE!") == ["flu", "cough", "headache"]


def test_tokenize_apostrophe_binds():
    assert tokenize("I've got Bieber fever!") == ["i've", "got", "bieber", "fever"]


def test_tokenize_url_collapses_to_http():
    assert tokenize("flu info http://ping.fm/UJ85w") == ["flu", "info", "http"]
    # https and bare "httpanything" collapse too: the rule is prefix-based
    assert tokenize("see https://x.co/a?b=1#c now") == ["see", "http", "now"]


def test_tokenize_underscore_splits():
    assert tokenize("flu_shot today") == ["flu", "shot", "today"]


def test_tokenize_digits_kept():
    assert tokenize("H1N1 day 2") == ["h1n1", "day", "2"]


def test_tokenize_empty_and_whitespace():
    assert tokenize("") == []
    assert tokenize("   \t\n ") == []


def test_tokenize_unicode_letters():
    assert tokenize("gripe fièvre") == ["gripe", "fièvre"]


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_tokenize_idempotent_on_own_output(text):
    # Re-tokenizing the joined token stream must not change it.
    once = tokenize(text)
    again = tokenize(" ".join(once))
    assert again == once


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_tokenize_never_emits_empty_or_uppercase(text):
    for tok in tokenize(text):
        assert tok
        assert tok == tok.lower()
        assert "_" not in tok


# --- Message / records ---------------------------------------------------------


def test_message_requires_id_and_tzaware_timestamp():
    with pytest.raises(CorpusError):
        Message(id="", timestamp=utc(2009, 9, 1), author="a", text="x")
    with pytest.raises(CorpusError):
        Message(id="m", timestamp=datetime(2009, 9, 1), author="a", text="x")


def test_message_text_length_cap():
    Message(id="m", timestamp=utc(2009, 9, 1), author="a", text="x" * 1000)
    with pytest.raises(CorpusError):
        Message(id="m", timestamp=utc(2009, 9, 1), author="a", text="x" * 1001)


def test_message_from_record_round_trip():
    rec = {"id": "a1", "timestamp": "2009-09-01T08:30:00Z", "author": "bo", "text": "hi"}
    m = message_from_record(rec, line_no=3)
    assert m.id == "a1"
    assert m.timestamp == utc(2009, 9, 1, 8, 30)
    assert m.timestamp.tzinfo == timezone.utc


def test_message_from_record_errors_name_the_line():
    with pytest.raises(CorpusError, match="line 7"):
        message_from_record({"id": "a", "timestamp": "nope", "text": "x"}, line_no=7)
    with pytest.raises(CorpusError, match="line 9.*'text'"):
        message_from_record({"id": "a", "timestamp": "2009-09-01T08:30:00Z"}, line_no=9)
    with pytest.raises(CorpusError, match="line 2"):
        message_from_record({"id": 5, "timestamp": "2009-09-01T08:30:00Z", "text": "x"}, 2)


def test_message_author_defaults_empty():
    rec = {"id": "a1", "timestamp": "2009-09-01T08:30:00Z", "text": "hi"}
    assert message_from_record(rec, 1).author == ""


# --- ingest -------------------------------------------------------------------


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def rec(id, ts, text="flu", author="a"):
    return {"id": id, "timestamp": ts, "author": author, "text": text}


def test_ingest_sorts_and_filters_by_date(tmp_path):
    p = tmp_path / "msgs.jsonl"
    write_jsonl(
        p,
        [
            rec("b", "2009-09-02T00:00:00Z"),
            rec("a", "2009-09-02T00:00:00Z"),
            rec("c", "2009-09-01T23:59:59Z"),
            rec("out", "2009-08-29T00:00:00Z"),
        ],
    )
    got = ingest(p, (date(2009, 8, 30), date(2009, 9, 5)))
    assert [m.id for m in got] == ["c", "a", "b"]


def test_ingest_skips_blank_lines(tmp_path):
    p = tmp_path / "msgs.jsonl"
    body = json.dumps(rec("a", "2009-09-01T00:00:00Z")) + "\n\n  \n"
    body += json.dumps(rec("b", "2009-09-01T01:00:00Z")) + "\n"
    p.write_text(body, encoding="utf-8")
    got = ingest(p, (date(2009, 9, 1), date(2009, 9, 1)))
    assert [m.id for m in got] == ["a", "b"]


def test_ingest_duplicate_id_names_both_lines(tmp_path):
    p = tmp_path / "msgs.jsonl"
    write_jsonl(p, [rec("dup", "2009-09-01T00:00:00Z"), rec("dup", "2009-09-02T00:00:00Z")])
    with pytest.raises(CorpusError, match="line 2.*'dup'.*line 1"):
        ingest(p, (date(2009, 9, 1), date(2009, 9, 5)))


def test_ingest_bad_json_names_line(tmp_path):
    p = tmp_path / "msgs.jsonl"
    p.write_text('{"id": "a"}\n{broken\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 1"):
        # line 1 is missing fields, reported before line 2 is reached
        ingest(p, (date(2009, 9, 1), date(2009, 9, 5)))
    p.write_text(json.dumps(rec("a", "2009-09-01T00:00:00Z")) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2.*invalid JSON"):
        ingest(p, (date(2009, 9, 1), date(2009, 9, 5)))


def test_ingest_rejects_reversed_range(tmp_path):
    p = tmp_path / "msgs.jsonl"
    write_jsonl(p, [rec("a", "2009-09-01T00:00:00Z")])
    with pytest.raises(CorpusError, match="after"):
        ingest(p, (date(2009, 9, 5), date(2009, 9, 1)))


def test_ingest_duplicate_outside_range_still_rejected(tmp_path):
    # Validation covers the whole file, not only the retained slice.
    p = tmp_path / "msgs.jsonl"
    write_jsonl(p, [rec("dup", "2008-01-01T00:00:00Z"), rec("dup", "2008-01-02T00:00:00Z")])
    with pytest.raises(CorpusError, match="duplicate"):
        ingest(p, (date(2009, 9, 1), date(2009, 9, 5)))


# --- weekly bucketing -----------------------------------------------------------


def test_week_index_boundaries():
    # Week 1 ends Saturday 2009-09-05; week 2 starts the next calendar day.
    assert week_index_for(utc(2009, 8, 30, 0, 0, 0), FIRST_END) == 1
    assert week_index_for(utc(2009, 9, 5, 23, 59, 59), FIRST_END) == 1
    assert week_index_for(utc(2009, 9, 6, 0, 0, 0), FIRST_END) == 2
    assert week_index_for(utc(2009, 8, 29, 23, 59, 59), FIRST_END) == 0


def test_week_36_ends_2010_05_08():
    assert week_index_for(utc(2010, 5, 8), FIRST_END) == 36
    assert week_index_for(utc(2010, 5, 9), FIRST_END) == 37


def test_bucket_weekly_assigns_and_labels():
    msgs = [
        msg(id="w1", ts=utc(2009, 9, 5, 23, 59, 59)),
        msg(id="w2", ts=utc(2009, 9, 6)),
        msg(id="w3", ts=utc(2009, 9, 19, 5)),
    ]
    buckets = bucket_weekly(msgs, FIRST_END, weeks=3)
    assert [b.week_index for b in buckets] == [1, 2, 3]
    assert [b.end_date for b in buckets] == [
        date(2009, 9, 5),
        date(2009, 9, 12),
        date(2009, 9, 19),
    ]
    assert buckets[0].start_date == date(2009, 8, 30)
    assert [m.message.id for b in buckets for m in b.messages] == ["w1", "w2", "w3"]
    assert [len(b) for b in buckets] == [1, 1, 1]


def test_bucket_weekly_tokenizes():
    b = bucket_weekly([msg(text="Flu!", ts=utc(2009, 9, 1))], FIRST_END, weeks=1)
    assert b[0].messages[0].tokens == ("flu",)


def test_bucket_weekly_infers_weeks_when_none():
    msgs = [msg(id="late", ts=utc(2009, 9, 26))]  # week 4
    buckets = bucket_weekly(msgs, FIRST_END)
    assert len(buckets) == 4
    assert [len(b) for b in buckets] == [0, 0, 0, 1]


def test_bucket_weekly_rejects_non_saturday():
    with pytest.raises(CorpusError, match="not a Saturday"):
        bucket_weekly([], date(2009, 9, 4), weeks=1)


def test_bucket_weekly_rejects_out_of_range_messages():
    early = msg(id="early", ts=utc(2009, 8, 29))
    with pytest.raises(CorpusError, match="before week 1.*'early'"):
        bucket_weekly([early], FIRST_END, weeks=2)
    late = msg(id="late", ts=utc(2009, 9, 20))
    with pytest.raises(CorpusError, match="after week 2.*'late'"):
        bucket_weekly([late], FIRST_END, weeks=2)


def test_bucket_weekly_warns_on_empty_buckets(caplog):
    with caplog.at_level("WARNING"):
        bucket_weekly([msg(ts=utc(2009, 9, 1))], FIRST_END, weeks=3)
    assert "empty week bucket" in caplog.text


# --- ILI csv ---------------------------------------------------------------------


def test_load_ili_csv_happy_path(tmp_path):
    p = tmp_path / "ili.csv"
    p.write_text(
        "week_ending,ili_pct\n2009-09-05,1.25\n2009-09-12,2.5\n",
        encoding="utf-8",
    )
    assert load_ili_csv(p) == [(date(2009, 9, 5), 1.25), (date(2009, 9, 12), 2.5)]


@pytest.mark.parametrize(
    "body,complaint",
    [
        ("week,pct\n2009-09-05,1.0\n", "header"),
        ("week_ending,ili_pct\n2009-09-04,1.0\n", "not a Saturday"),
        ("week_ending,ili_pct\n2009-09-05,0.0\n", r"\(0, 100\)"),
        ("week_ending,ili_pct\n2009-09-05,100.0\n", r"\(0, 100\)"),
        ("week_ending,ili_pct\n2009-09-05,1.0\n2009-09-19,1.0\n", "7 days"),
        ("week_ending,ili_pct\n2009-09-05,abc\n", "bad percentage"),
        ("week_ending,ili_pct\nnotadate,1.0\n", "bad date"),
        # A byte that is not UTF-8 on a later line does not hide the bad one.
        ("week_ending,ili_pct\nnot json\n\udcff\n", "ILI file line 2: expected 2 fields"),
    ],
)
def test_load_ili_csv_rejects(tmp_path, body, complaint):
    p = tmp_path / "ili.csv"
    p.write_text(body, encoding="utf-8", errors="surrogateescape")
    with pytest.raises(CorpusError, match=complaint):
        load_ili_csv(p)


def test_tokenize_message_preserves_message():
    m = msg(text="Sore Throat!!")
    tm = tokenize_message(m)
    assert tm.message is m
    assert tm.tokens == ("sore", "throat")


# --- columnar corpus --------------------------------------------------------------


# load_corpus's chunk size, and sizes so small that every row sits on a
# chunk boundary.
CHUNK_SIZES = (corpus_module._CHUNK_CHARS, 1, 37)
# Each chunk size read by one process, and the default and 37-character
# chunks also dealt out to two. The hypothesis tests read in one process
# only: forking for every example would take most of their time, and more
# processes change no column
# (test_load_corpus_reads_alike_in_any_number_of_processes).
READS = [*((size, 1) for size in CHUNK_SIZES), (corpus_module._CHUNK_CHARS, 2), (37, 2)]


def load_in_chunks(size, path, first_week_end, weeks, shares=1, phrases=None):
    """load_corpus reading chunks of size characters in up to shares
    processes."""
    with mock.patch.multiple(corpus_module, _CHUNK_CHARS=size, _SHARES=shares):
        return load_corpus(path, first_week_end, weeks, phrases)


def weeks_range(weeks):
    return FIRST_END - timedelta(days=6), FIRST_END + timedelta(days=7 * (weeks - 1))


def reference_buckets(path, weeks):
    return bucket_weekly(ingest(path, weeks_range(weeks)), FIRST_END, weeks)


def ids(corpus):
    return [corpus.id(r) for r in range(len(corpus))]


def assert_holds_buckets(corpus, reference):
    """The corpus holds what the reference buckets hold: each row's week,
    POSIX second and author, the weekly totals and end dates, and the same
    tokens in the same (timestamp, id) order for all rows and for a subset
    given in reverse."""
    everything = [tm for b in reference for tm in b.messages]
    assert dict(zip(ids(corpus), corpus.week.tolist())) == {
        tm.message.id: b.week_index for b in reference for tm in b.messages
    }
    assert dict(zip(ids(corpus), corpus.seconds.tolist())) == {
        tm.message.id: int(tm.message.timestamp.timestamp()) for tm in everything
    }
    assert {corpus.id(r): corpus.author(r) for r in range(len(corpus))} == {
        tm.message.id: tm.message.author for tm in everything
    }
    assert corpus.week_totals == tuple(len(b.messages) for b in reference)
    assert corpus.end_dates() == [b.end_date for b in reference]
    assert list(corpus.tokens(range(len(corpus)))) == [list(tm.tokens) for tm in everything]
    some = list(range(len(corpus)))[::-2]
    wanted = {corpus.id(r) for r in some}
    assert list(corpus.tokens(some)) == [
        list(tm.tokens) for tm in everything if tm.message.id in wanted
    ]


# Characters where a tokenizer that works word by word could go wrong:
# Unicode spaces, line separators inside a text, final sigma, a lowercase
# mapping that grows ("İ"), URLs, underscores and apostrophes.
TRICKY = st.sampled_from([
    " ", "\t", "\n", "\u00a0", "\u2028", "\x1c", "\u03a3", "\u0391\u03a3", "\u0130",
    "http", "HTTPS://x.y/_a", "a_b", "_", "i've", "'", "flu", "Flu", ".", ",", "x", "1",
    "\u0301", "fluhttp", "x'",
])
TEXTS = st.one_of(st.text(max_size=40), st.lists(TRICKY, max_size=12).map("".join))
# Tokens that the pieces above produce, for queries over those texts.
TRICKY_TOKENS = ("flu", "x", "x'", "i've", "i", "a", "b", "1", "http", "\u03c3", "\u03c2",
                 "\u03b1\u03c2")
TRICKY_TERMS = st.lists(st.sampled_from(TRICKY_TOKENS), min_size=1, max_size=3).map(
    lambda tokens: Term(tokens=tuple(tokens))
)


@settings(max_examples=150, deadline=None)
@given(st.lists(TEXTS, max_size=10))
def test_load_corpus_tokens_equal_tokenize(texts):
    # Plain ASCII texts are written in messages_jsonl's layout and go
    # through the whole-file reader; escaped ones are decoded line by line.
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "msgs.jsonl"
        write_jsonl(p, [rec(f"m{i}", "2009-09-01T00:00:00Z", text=t) for i, t in enumerate(texts)])
        corpus = load_corpus(p, FIRST_END, 1)
    assert ids(corpus) == [f"m{i}" for i in range(len(texts))]
    # Each row's normalized text, between its offset and the next row's "\n".
    starts = corpus.starts.tolist()
    assert [corpus.normalized[a : b - 1] for a, b in zip(starts, starts[1:])] == [
        normalize(t) for t in texts
    ]
    # One timestamp, so (timestamp, id) order is file order.
    assert list(corpus.tokens(range(len(texts)))) == [tokenize(t) for t in texts]


TERM_GROUPS = st.frozensets(st.frozensets(TRICKY_TERMS, min_size=1, max_size=2), max_size=2)
FLU, FLU_X = Term(("flu",)), Term(("flu", "x"))


@settings(max_examples=300, deadline=None)
@given(st.lists(TEXTS, max_size=10), st.frozensets(TRICKY_TERMS, min_size=1, max_size=3),
       TERM_GROUPS, TERM_GROUPS)
# A newline inside a text separates tokens like a space and does not end the row.
@example(["flu\nx", "flu"], frozenset({FLU_X}), frozenset(), frozenset())
# A phrase whose tokens end one row and begin the next is in neither row.
@example(["a flu", "x b", "flu"], frozenset({FLU_X}), frozenset(), frozenset())
@example(["x flu", "x"], frozenset({Term(("x",))}), frozenset({frozenset({FLU_X})}), frozenset())
# A URL is the one token "http", whatever it spells after that.
@example(["see http://flu.x", "fluhttp://x"], frozenset({FLU}), frozenset(), frozenset())
def test_match_rows_equals_matches(texts, base, required, excluded):
    # A term may not be both required and excluded.
    excluded_terms = frozenset().union(*excluded)
    required = frozenset(group - excluded_terms for group in required) - {frozenset()}
    query = Query(base_terms=base, required=required, excluded=excluded)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "msgs.jsonl"
        write_jsonl(p, [rec(f"m{i}", "2009-09-01T00:00:00Z", text=t) for i, t in enumerate(texts)])
        corpora = [load_in_chunks(size, p, FIRST_END, 1) for size in CHUNK_SIZES]
    expected = [matches(query, tmsg(t, id=f"m{i}")) for i, t in enumerate(texts)]
    for corpus in corpora:  # one chunk, and one chunk per row or a few rows
        assert match_rows(query, corpus).tolist() == expected, query.render()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 24), st.integers(0, 86399), TEXTS), max_size=25))
def test_load_corpus_buckets_equal_bucket_weekly(rows):
    # Days -3..24 around week 1's first day: some messages fall outside
    # the three weeks, and equal timestamps are ordered by id.
    records = [
        rec(f"m{i}", (datetime(2009, 8, 30, tzinfo=timezone.utc)
                      + timedelta(days=day, seconds=sec)).strftime("%Y-%m-%dT%H:%M:%SZ"),
            text=text)
        for i, (day, sec, text) in enumerate(rows)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "msgs.jsonl"
        write_jsonl(p, records)
        reference = reference_buckets(p, 3)
        for size in CHUNK_SIZES:
            assert_holds_buckets(load_in_chunks(size, p, FIRST_END, 3), reference)


def test_corpus_tokens_order_rows_of_one_second_by_id_as_python_does(tmp_path):
    # A numpy "U" array drops trailing NULs, so a sort of one would tie
    # "a" with "a\x00"; bucket_weekly orders them as strs.
    p = tmp_path / "msgs.jsonl"
    ids = ["b", "a\x00", "z", "a", "a\x00\x00", "c\x00", "c"]
    seconds = [1, 1, 0, 1, 1, 2, 2]
    write_jsonl(p, [rec(i, f"2009-09-01T00:00:0{s}Z", text=f"t{n}")
                    for n, (i, s) in enumerate(zip(ids, seconds))])
    assert_holds_buckets(load_corpus(p, FIRST_END, 1), reference_buckets(p, 1))


def test_load_corpus_accepts_lines_in_other_layouts(tmp_path):
    p = tmp_path / "msgs.jsonl"
    lines = [
        json.dumps(rec("a", "2009-09-01T00:00:00Z", text="plain flu")),
        '{"text": "keys reordered", "id": "b", "timestamp": "2009-09-02T00:00:00Z"}',
        json.dumps(rec("c", "2009-09-03T00:00:00Z", text="café \"quoted\" flu")),
        "   ",
        "  " + json.dumps(rec("d", "2009-09-09T00:00:00Z", text="indented")) + "  ",
        json.dumps(rec("e", "2009-09-10T00:00:00Z", text="x", author="é")),
        json.dumps(rec("f", "2008-01-01T00:00:00Z", text="outside the weeks")),
        json.dumps(rec("g", "2000-02-29T23:59:59Z", text="a leap day, outside the weeks")),
        "",
        json.dumps(rec("h", "2009-09-10T00:00:00Z", text="the last line")),
    ]
    # open() ends a line at "\n", "\r\n" or a lone "\r"; the last line may
    # have no line end.
    for ending in ("\n", "\r\n", "\r"):
        for last in (ending, ""):
            p.write_bytes((ending.join(lines) + last).encode("utf-8"))
            reference = reference_buckets(p, 2)
            for size, shares in READS:
                corpus = load_in_chunks(size, p, FIRST_END, 2, shares)
                assert ids(corpus) == ["a", "b", "c", "d", "e", "h"], (ending, last, size, shares)
                assert_holds_buckets(corpus, reference)


def test_load_corpus_reads_alike_in_any_number_of_processes(tmp_path, caplog):
    # Lines in both layouts, some dated outside the weeks, some with
    # characters stored in 2 or 4 bytes: three chunks at the default size,
    # and the first 100 lines, a chunk each, at the small sizes. Read for
    # "flu", two lines in five are kept, so at the small sizes chunks that
    # keep no row fall in every share.
    texts = ["x", "Flu \u0391\u03a3 caf\u00e9", "see https://x.y/_a now", "flu \U0001F600",
             "i've a_b"]
    lines = []
    for i in range(2400):
        stamp = datetime(2009, 8, 27, tzinfo=timezone.utc) + timedelta(hours=7 * i % 500)
        record = rec(f"m{i}", stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                     text=texts[i % len(texts)] + " x" * 400, author="\u00e9" if i % 4 else "news")
        lines.append(json.dumps(record, ensure_ascii=i % 3 == 0) + "\n")
    files = {size: tmp_path / f"msgs-{size}.jsonl" for size in CHUNK_SIZES}
    for size, p in files.items():
        p.write_text("".join(lines if size == corpus_module._CHUNK_CHARS else lines[:100]),
                     encoding="utf-8")

    def read(size, shares, phrases):
        caplog.clear()
        with caplog.at_level("INFO", logger="ilitrack.corpus"):
            corpus = load_in_chunks(size, files[size], FIRST_END, 2, shares, phrases)
        assert f"read by {shares} process(es)" in caplog.text
        return (corpus.seconds.tolist(), corpus.week.tolist(), corpus.normalized,
                corpus.starts.tolist(), corpus.authors, corpus.author_starts.tolist(),
                corpus.ids, corpus.id_starts.tolist())

    assert len(list(corpus_module._chunks(files[corpus_module._CHUNK_CHARS]))) >= 3
    for size in CHUNK_SIZES:
        for phrases in (None, [("flu",)]):
            serial = read(size, 1, phrases)
            for shares in (2, 3):
                assert read(size, shares, phrases) == serial, (size, shares, phrases)


def test_load_corpus_names_the_exit_code_of_a_reader_that_dies(tmp_path):
    p = tmp_path / "msgs.jsonl"
    write_jsonl(p, [rec(f"m{i}", "2009-09-01T00:00:00Z") for i in range(20)])
    read_share = corpus_module._read_share

    def dies(path, first_week_end, weeks, phrases, share, shares):
        if share:
            os._exit(3)
        return read_share(path, first_week_end, weeks, phrases, share, shares)

    def give_up(signum, frame):
        raise TimeoutError("load_corpus still waits for a reader that died")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(20)
    try:
        with mock.patch.object(corpus_module, "_read_share", dies), pytest.raises(
            ChildProcessError, match=r"msgs.jsonl: the process reading share 1 .* code 3 "
        ):
            load_in_chunks(37, p, FIRST_END, 1, shares=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("ending", ["clean", "error", "interrupt"])
def test_load_corpus_reaps_every_reader(tmp_path, ending):
    # The readers of shares 1 and 2 are still reading when this process
    # fails at share 0, so they must be killed, not waited for.
    p = tmp_path / "msgs.jsonl"
    write_jsonl(p, [rec(f"m{i}", "2009-09-01T00:00:00Z") for i in range(20)])
    read_share, fork, pids = corpus_module._read_share, os.fork, []
    failure = {"clean": None, "error": OSError("disk gone"), "interrupt": KeyboardInterrupt()}

    def recorded_fork():
        pid = fork()
        pids.extend([pid] if pid else [])
        return pid

    def fails(path, first_week_end, weeks, phrases, share, shares):
        if failure[ending] is None:
            return read_share(path, first_week_end, weeks, phrases, share, shares)
        if share:
            time.sleep(60)
        raise failure[ending]

    def give_up(signum, frame):
        raise TimeoutError("load_corpus still waits for a reader")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(20)
    try:
        with mock.patch.object(os, "fork", recorded_fork), \
                mock.patch.object(corpus_module, "_read_share", fails):
            if failure[ending] is None:
                assert len(load_in_chunks(37, p, FIRST_END, 1, shares=3)) == 20
            else:
                with pytest.raises(type(failure[ending])):
                    load_in_chunks(37, p, FIRST_END, 1, shares=3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):  # reaped: no longer a child of this process
            os.waitpid(pid, os.WNOHANG)


def test_a_forking_load_imports_neither_multiprocessing_nor_numpy_ma(tmp_path):
    # Each reader streams its share through a pipe of its own, and repeated
    # id hashes are found without np.unique, which imports numpy.ma.
    p = tmp_path / "msgs.jsonl"
    write_jsonl(p, [rec(f"m{i}", "2009-09-01T00:00:00Z", text="flu " + "x " * 150)
                    for i in range(100)])
    probe = (
        "import os, sys\n"
        "from datetime import date\n"
        "from ilitrack import corpus\n"
        "corpus._SHARES, corpus._CHUNK_CHARS, fork, forks = 2, 4096, os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        f"rows = len(corpus.load_corpus({str(p)!r}, date(2009, 9, 5), 1))\n"
        "chunks = len(list(corpus._chunks(sys.argv[1])))\n"
        "print(rows, len(forks), chunks > 2, sorted({'multiprocessing', 'numpy.ma'} & set(sys.modules)))\n"
    )
    found = subprocess.run(
        [sys.executable, "-c", probe, str(p)], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(corpus_module.__file__).parents[1])},
    )
    assert found.stdout == "100 1 True []\n"


@settings(max_examples=300, deadline=None)
@example([(2000, 2, 29, 23, 59, 59)])  # leap years, and the century rule both ways
@example([(1900, 2, 29, 0, 0, 0)])
@example([(2008, 2, 29, 0, 0, 0), (2009, 12, 31, 23, 59, 59), (1, 1, 1, 0, 0, 0)])
@given(st.lists(
    st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
              st.integers(0, 25), st.integers(0, 61), st.integers(0, 61)),
    min_size=1, max_size=4,
))
def test_posix_seconds_agrees_with_datetime(fields):
    stamps = [f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}" for y, mo, d, h, mi, s in fields]
    try:
        expected = [
            int(datetime.fromisoformat(s).replace(tzinfo=timezone.utc).timestamp())
            for s in stamps
        ]
    except ValueError:
        expected = None
    got = _posix_seconds(stamps)
    assert (None if got is None else got.tolist()) == expected


GOOD = json.dumps(rec("ok", "2009-09-01T00:00:00Z"))
# Lines that fill more than one chunk at the default chunk size.
FIRST_CHUNK = [
    json.dumps(rec(f"filler{i}", "2009-09-02T00:00:00Z", text="x" * 900))
    for i in range(corpus_module._CHUNK_CHARS // 900 + 1)
]

# A line in another layout than messages_jsonl's, which load_corpus decodes
# line by line.
REORDERED = '{"text": "x", "id": "late", "timestamp": "2009-09-02T00:00:00Z"}'
# A line holding a byte that is not UTF-8 (0xFF), as written with
# errors="surrogateescape".
NOT_UTF8 = '{"id": "\udcff"}'

# One corpus per way a file can be bad; each bad line follows a good one so
# that the line number in the error matters.
BAD_CORPORA = {
    "invalid json": [GOOD, "{broken"],
    "json nested too deeply": [GOOD, "[" * 100_000],
    "5000-digit integer": [GOOD, '{"id": ' + "9" * 5000 + "}"],
    "json list": [GOOD, '["a", "b"]'],
    "json string": [GOOD, '"label"'],
    "missing text": [GOOD, '{"id": "x", "timestamp": "2009-09-01T00:00:00Z", "author": "a"}'],
    "id not a string": [GOOD, json.dumps(rec(7, "2009-09-01T00:00:00Z"))],
    "author not a string": [GOOD, json.dumps(rec("x", "2009-09-01T00:00:00Z", author=None))],
    "empty id": [GOOD, json.dumps(rec("", "2009-09-01T00:00:00Z"))],
    "timestamp layout": [GOOD, json.dumps(rec("x", "2009-09-01 00:00:00"))],
    "timestamp with offset": [GOOD, json.dumps(rec("x", "2009-09-01T00:00:00+00:00"))],
    "impossible date": [GOOD, json.dumps(rec("x", "2009-02-30T00:00:00Z"))],
    "february 29 of a common year": [GOOD, json.dumps(rec("x", "2010-02-29T00:00:00Z"))],
    "february 29 of 2100": [GOOD, json.dumps(rec("x", "2100-02-29T00:00:00Z"))],
    "hour 24": [GOOD, json.dumps(rec("x", "2009-09-01T24:00:00Z"))],
    "year 0": [GOOD, json.dumps(rec("x", "0000-09-01T00:00:00Z"))],
    "text over 1000 characters": [GOOD, json.dumps(rec("x", "2009-09-01T00:00:00Z", text="a" * 1001))],
    "escaped text over 1000 characters": [
        GOOD, json.dumps(rec("x", "2009-09-01T00:00:00Z", text="é" * 1001))
    ],
    "duplicate id": [GOOD, json.dumps(rec("ok", "2009-09-02T00:00:00Z"))],
    "duplicate id outside the weeks": [
        GOOD,
        json.dumps(rec("old", "2008-01-01T00:00:00Z")),
        json.dumps(rec("old", "2008-01-02T00:00:00Z")),
    ],
    "two bad lines": [GOOD, json.dumps(rec("ok", "2009-09-02T00:00:00Z")), "{broken"],
    "duplicate id in another chunk": [
        GOOD, *FIRST_CHUNK, json.dumps(rec("ok", "2009-09-02T00:00:00Z"))
    ],
    "duplicate id, one copy outside the weeks": [
        GOOD, *FIRST_CHUNK, json.dumps(rec("ok", "2008-01-01T00:00:00Z"))
    ],
    "invalid json before a byte that is not utf-8": [GOOD, "not json", NOT_UTF8],
    # Characters that str.splitlines, but not open(), ends a line at.
    "invalid json after line separators inside a text": [
        json.dumps(rec("ok", "2009-09-01T00:00:00Z", text="flu\u2028\u0085x"), ensure_ascii=False),
        "{broken",
    ],
    "duplicate id in another chunk before a byte that is not utf-8": [
        GOOD, *FIRST_CHUNK, json.dumps(rec("ok", "2009-09-02T00:00:00Z")), NOT_UTF8
    ],
    # The chunk holding the bad line and the earlier one holding the first
    # copy are the ones read line by line.
    "duplicate id in another chunk before a bad line": [
        GOOD, *FIRST_CHUNK, json.dumps(rec("ok", "2009-09-02T00:00:00Z")), "{broken"
    ],
    # Both copies in the chunk that holds the bad line, in another layout.
    "duplicate id in the chunk of a bad line": [GOOD, *FIRST_CHUNK, REORDERED, REORDERED,
                                                "{broken"],
    # Read 37 characters at a time by two processes, each line is a chunk:
    # share 1 rejects chunk 1 and share 0 reads on to reject chunk 4.
    "rejected chunks in both shares, share 1's first": [
        GOOD, json.dumps(rec("x", "2009-13-01T00:00:00Z")),
        *(json.dumps(rec(f"m{i}", "2009-09-01T00:00:00Z")) for i in range(2)),
        json.dumps(rec("y", "2009-13-01T00:00:00Z")),
    ],
}


def write_lines(path, lines):
    """Write lines, each ended by "\n", a _STAND_IN character as its byte."""
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8",
                    errors="surrogateescape")


@pytest.mark.parametrize("lines", BAD_CORPORA.values(), ids=BAD_CORPORA.keys())
def test_load_corpus_rejects_what_ingest_rejects(tmp_path, lines):
    p = tmp_path / "msgs.jsonl"
    write_lines(p, lines)
    with pytest.raises(CorpusError) as reference:
        ingest(p, weeks_range(2))
    for size, shares in READS:
        with pytest.raises(CorpusError) as columnar:
            load_in_chunks(size, p, FIRST_END, 2, shares)
        assert str(columnar.value) == str(reference.value), (size, shares)
    # ingest names the first bad line: the lines before it are read.
    write_lines(p, lines[: int(re.search(r"line (\d+): ", str(reference.value))[1]) - 1])
    ingest(p, weeks_range(2))


def collide(_):
    return 0


def columns(corpus):
    rows = range(len(corpus))
    return (ids(corpus), corpus.seconds.tolist(), corpus.week.tolist(),
            [corpus.author(r) for r in rows], list(corpus.tokens(rows)))


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_load_corpus_reads_again_when_id_hashes_collide(tmp_path, size):
    # Every id hashes alike, so load_corpus's check-only pass asks whether
    # two ids are equal; with distinct ids it ends and the load goes on
    # with the columns already read.
    p = tmp_path / "msgs.jsonl"
    write_jsonl(p, [
        rec("a", "2009-09-02T00:00:00Z", text="plain flu", author="news"),
        rec("b", "2008-01-01T00:00:00Z", text="outside the weeks"),
        rec("c", "2009-09-01T00:00:00Z", text="caf\u00e9 \U0001F600 flu", author="\u00e9"),
        rec("ab", "2009-09-10T00:00:00Z", text="the last line", author=""),
    ])
    checked, read_rows = corpus_module._checked, corpus_module._read_rows
    with mock.patch.object(corpus_module, "_checked", wraps=checked) as reread, \
            mock.patch.object(corpus_module, "_read_rows", wraps=read_rows) as reads:
        expected = load_in_chunks(size, p, FIRST_END, 2)
        assert not reread.called
        with mock.patch.object(corpus_module, "_id_hash", collide):
            for shares in (1, 2):
                assert columns(load_in_chunks(size, p, FIRST_END, 2, shares)) == columns(expected)
        assert reread.call_count == 2
        assert reads.call_count == 3  # once per load
    assert ids(expected) == ["a", "c", "ab"]


@pytest.mark.parametrize("name, cause", [
    ("invalid json", "a rejected record"),
    ("duplicate id", "1 repeated id hash(es)"),
])
def test_load_corpus_logs_the_cause_and_time_of_its_check_only_pass(tmp_path, caplog, name,
                                                                     cause):
    p = tmp_path / "msgs.jsonl"
    p.write_text("\n".join(BAD_CORPORA[name]) + "\n", encoding="utf-8")
    with caplog.at_level("INFO", logger="ilitrack.corpus"), pytest.raises(CorpusError):
        load_corpus(p, FIRST_END, 2)
    assert re.search(rf"msgs.jsonl: check-only pass for {re.escape(cause)}, \d+\.\d{{3}} s",
                     caplog.text), caplog.text


DUPLICATE_IDS = {name: lines for name, lines in BAD_CORPORA.items() if "duplicate" in name}


@pytest.mark.parametrize("lines", DUPLICATE_IDS.values(), ids=DUPLICATE_IDS.keys())
def test_load_corpus_rejects_a_duplicate_id_when_every_hash_collides(tmp_path, lines):
    p = tmp_path / "msgs.jsonl"
    write_lines(p, lines)
    both_lines = r"line \d+: duplicate message id .* \(first seen on line \d+\)"
    with pytest.raises(CorpusError, match=both_lines) as reference:
        ingest(p, weeks_range(2))
    with mock.patch.object(corpus_module, "_id_hash", collide):
        for size, shares in READS:
            with pytest.raises(CorpusError) as columnar:
                load_in_chunks(size, p, FIRST_END, 2, shares)
            assert str(columnar.value) == str(reference.value), (size, shares)


@pytest.mark.parametrize(
    "raw,line",
    [
        (b"\xff\xfe", 1),
        (GOOD.encode() + b'\n{"id": "\xe9"}\n', 2),
        # "\r\n" and a lone "\r" each end a line, as open() reads the file.
        (GOOD.encode() + b"\r\n\r\xc3(\n", 3),
        pytest.param("\n".join(FIRST_CHUNK).encode() + b'\n{"id": "\xe9"}\n',
                     len(FIRST_CHUNK) + 1, id="after the first chunk"),
    ],
)
def test_load_corpus_and_ingest_name_the_line_that_is_not_utf8(tmp_path, raw, line):
    p = tmp_path / "msgs.jsonl"
    p.write_bytes(raw)
    complaint = rf"msgs.jsonl: line {line}: not valid UTF-8"
    with pytest.raises(CorpusError, match=complaint):
        ingest(p, weeks_range(2))
    for size, shares in READS:
        with pytest.raises(CorpusError, match=complaint):
            load_in_chunks(size, p, FIRST_END, 2, shares)


def test_load_ili_csv_names_the_line_that_is_not_utf8(tmp_path):
    p = tmp_path / "ili.csv"
    p.write_bytes(b"week_ending,ili_pct\n2009-09-05,1.0\n2009-09-12,\xff\n")
    with pytest.raises(CorpusError, match=r"ili.csv: line 3: not valid UTF-8"):
        load_ili_csv(p)


def test_load_corpus_warns_on_empty_weeks(tmp_path, caplog):
    p = tmp_path / "msgs.jsonl"
    write_jsonl(p, [rec("a", "2009-09-01T00:00:00Z")])
    corpus = load_corpus(p, FIRST_END, 3)
    assert corpus.week_totals == (1, 0, 0)
    assert "empty week bucket(s): 2, 3" in caplog.text


def test_load_corpus_checks_the_week_grid(tmp_path):
    p = tmp_path / "msgs.jsonl"
    write_jsonl(p, [rec("a", "2009-09-01T00:00:00Z")])
    with pytest.raises(CorpusError, match="not a Saturday"):
        load_corpus(p, date(2009, 9, 4), 2)
    with pytest.raises(CorpusError, match="weeks must be >= 1"):
        load_corpus(p, FIRST_END, 0)

"""Boolean keyword queries: terms, parsing, matching, weekly fractions."""

import json
import tempfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilitrack import corpus as corpus_module
from ilitrack.classify import (
    ClassifierError,
    ClassifierModel,
    WeekScores,
    bucket_fractions,
    predict_proba,
    query_fraction_series,
    summed_scores,
    week_scores,
)
from ilitrack.corpus import Corpus, WeekBucket, bucket_weekly, ingest, load_corpus, tokenize
from ilitrack.query import (
    GATE_QUERY,
    GATE_QUERY_TEXT,
    KNOWN_PHRASES,
    Query,
    QueryError,
    QueryParseError,
    Term,
    count_matches,
    match_rows,
    matches,
    parse_query,
)
from ilitrack.simulate import SimulationError, pool_rows, spurious_pool

from conftest import tmsg

SAT1 = date(2009, 9, 5)


def bucket(texts, week_index=1, end=SAT1):
    tms = tuple(tmsg(t, id=f"m{i}") for i, t in enumerate(texts))
    return WeekBucket(week_index=week_index, end_date=end, messages=tms)


# --- Term ---------------------------------------------------------------------


def test_term_render_and_found_in():
    single = Term(tokens=("flu",))
    assert single.render() == "flu"
    assert single.found_in(("got", "the", "flu"))
    assert not single.found_in(("influenza",))

    phrase = Term(tokens=("sore", "throat"))
    assert phrase.render() == '"sore throat"'
    assert phrase.found_in(("my", "sore", "throat", "hurts"))
    assert not phrase.found_in(("sore", "red", "throat"))  # not contiguous
    assert not phrase.found_in(("throat", "sore"))  # wrong order


def test_term_token_count_limits():
    Term(tokens=("a", "b", "c"))
    with pytest.raises(QueryError, match="1..3"):
        Term(tokens=())
    with pytest.raises(QueryError, match="1..3"):
        Term(tokens=("a", "b", "c", "d"))


def test_term_tokens_must_be_normalized():
    with pytest.raises(QueryError, match="not a single normalized token"):
        Term(tokens=("Flu",))
    with pytest.raises(QueryError, match="not a single normalized token"):
        Term(tokens=("sore throat",))
    with pytest.raises(QueryError, match="not a single normalized token"):
        Term(tokens=("",))


# --- Query construction ---------------------------------------------------------


def T(*tokens):
    return Term(tokens=tuple(tokens))


def test_query_needs_base_terms():
    with pytest.raises(QueryError, match="base term"):
        Query(base_terms=frozenset())


def test_query_rejects_empty_group():
    with pytest.raises(QueryError, match="non-empty"):
        Query(base_terms=frozenset({T("flu")}), required=frozenset({frozenset()}))


def test_query_rejects_required_and_excluded_overlap():
    with pytest.raises(QueryError, match="both required and excluded.*fever"):
        Query(
            base_terms=frozenset({T("flu")}),
            required=frozenset({frozenset({T("fever")})}),
            excluded=frozenset({frozenset({T("fever")})}),
        )


def test_query_set_semantics():
    a = Query(base_terms=frozenset({T("flu"), T("cough")}))
    b = Query(base_terms=frozenset({T("cough"), T("flu")}))
    assert a == b
    assert hash(a) == hash(b)


# --- matching --------------------------------------------------------------------


def test_base_terms_are_or():
    q = parse_query("flu cough")
    assert matches(q, tmsg("i have the flu"))
    assert matches(q, tmsg("bad cough today"))
    assert matches(q, tmsg("flu and cough"))
    assert not matches(q, tmsg("feeling great"))


def test_required_group_is_and_of_ors():
    q = parse_query("flu +(fever chills) +bed")
    assert matches(q, tmsg("flu fever bed"))
    assert matches(q, tmsg("flu chills bed"))
    assert not matches(q, tmsg("flu fever couch"))  # missing +bed
    assert not matches(q, tmsg("flu bed"))  # missing +(fever chills)


def test_excluded_rejects_on_any_hit():
    q = parse_query("flu -(shot vaccine) -news")
    assert matches(q, tmsg("i caught the flu"))
    assert not matches(q, tmsg("flu shot tomorrow"))
    assert not matches(q, tmsg("flu vaccine drive"))
    assert not matches(q, tmsg("flu season news update"))


def test_phrase_matching_is_contiguous_not_substring():
    q = parse_query('"sore throat"')
    assert matches(q, tmsg("woke up with a sore throat"))
    assert not matches(q, tmsg("my throat is sore"))
    # token boundaries, not substrings: "sorethroat" is one token
    assert not matches(q, tmsg("sorethroat"))


def test_matching_is_case_and_punctuation_insensitive():
    q = parse_query("flu")
    assert matches(q, tmsg("FLU!!!"))
    assert matches(q, tmsg("Flu, again."))
    assert not matches(q, tmsg("fluent speaker"))  # whole-token only


# --- parsing ----------------------------------------------------------------------


def test_parse_plain_terms():
    q = parse_query("flu cough")
    assert q == Query(base_terms=frozenset({T("flu"), T("cough")}))


def test_parse_signs_and_groups():
    q = parse_query("flu +fever -(news reuters) -shot")
    assert q.base_terms == frozenset({T("flu")})
    assert q.required == frozenset({frozenset({T("fever")})})
    assert q.excluded == frozenset(
        {frozenset({T("news"), T("reuters")}), frozenset({T("shot")})}
    )


def test_parse_quoted_phrase():
    q = parse_query('"sore throat" flu')
    assert T("sore", "throat") in q.base_terms
    assert T("flu") in q.base_terms


def test_parse_known_phrase_merges_unquoted():
    # "sore throat" is in the known-phrase list, so adjacent bare tokens fuse.
    assert ("sore", "throat") in KNOWN_PHRASES
    q = parse_query("sore throat")
    assert q.base_terms == frozenset({T("sore", "throat")})
    # Unknown pairs stay separate OR terms.
    q2 = parse_query("sore elbow")
    assert q2.base_terms == frozenset({T("sore"), T("elbow")})


def test_parse_quoting_disables_merge():
    q = parse_query('"sore" "throat"')
    assert q.base_terms == frozenset({T("sore"), T("throat")})


def test_sign_group_breaks_phrase_adjacency():
    # "flu ... shot" with a group in between stays two separate base terms.
    q = parse_query("flu +fever shot")
    assert q.base_terms == frozenset({T("flu"), T("shot")})
    assert q.required == frozenset({frozenset({T("fever")})})


def test_render_protects_accidental_phrases():
    # Separate terms that would re-parse as a known phrase get quoted.
    q = Query(base_terms=frozenset({T("flu"), T("shot")}))
    assert parse_query(q.render()) == q
    q2 = Query(
        base_terms=frozenset({T("x")}),
        excluded=frozenset({frozenset({T("sore"), T("throat")})}),
    )
    assert parse_query(q2.render()) == q2


def test_parse_known_phrase_in_group():
    q = parse_query("flu -(associated press ap)")
    assert q.excluded == frozenset({frozenset({T("associated", "press"), T("ap")})})


def test_parse_normalizes_case_and_punctuation():
    q = parse_query("FLU +Fever")
    assert q == parse_query("flu +fever")


@pytest.mark.parametrize(
    "bad,complaint",
    [
        ("", "at least one base term"),
        ("   ", "at least one base term"),
        ("+flu", "at least one base term"),
        ("flu +", "dangling"),
        ("flu -", "dangling"),
        ("flu +()", "empty group"),
        ("flu +(fever", "unbalanced"),
        ('flu "sore', "unterminated quote"),
        ("flu (cough)", "unexpected"),
        ("flu +(a (b))", "unexpected"),
        ('flu "a b c d"', "1..3"),
        ("flu +fever -fever", "both required and excluded"),
        ("flu !!", "contains no tokens"),
    ],
)
def test_parse_rejects(bad, complaint):
    with pytest.raises(QueryParseError, match=complaint):
        parse_query(bad)


def test_parse_error_carries_position():
    try:
        parse_query("flu +(fever")
    except QueryParseError as exc:
        assert exc.position == 5
    else:
        pytest.fail("expected QueryParseError")


def test_render_is_canonical_and_parse_inverts():
    text = 'cough -(reuters news) flu +bed "sore throat" +(fever chills) -shot'
    q = parse_query(text)
    rendered = q.render()
    assert parse_query(rendered) == q
    # Canonical form sorts sections: base, then +groups, then -groups.
    assert rendered == '"sore throat" cough flu +(chills fever) +bed -(news reuters) -shot'


def test_gate_query_shape():
    assert parse_query(GATE_QUERY_TEXT) == GATE_QUERY
    assert GATE_QUERY.base_terms == frozenset(
        {T("flu"), T("cough"), T("headache"), T("sore", "throat")}
    )
    assert GATE_QUERY.required == frozenset()
    assert GATE_QUERY.excluded == frozenset()


# --- property tests -----------------------------------------------------------------

WORDS = ("flu", "cough", "fever", "news", "bed", "soup", "shot")


@st.composite
def token_lists(draw):
    return draw(st.lists(st.sampled_from(WORDS), max_size=12))


@given(token_lists(), st.sampled_from(WORDS))
@settings(max_examples=300, deadline=None)
def test_required_excluded_partition(tokens, pivot):
    """Requiring vs excluding the same term splits the base matches exactly."""
    message = tmsg(" ".join(tokens))
    base = parse_query("flu")
    plus = parse_query(f"flu +{pivot}")
    minus = parse_query(f"flu -{pivot}")
    assert matches(base, message) == (matches(plus, message) or matches(minus, message))
    assert not (matches(plus, message) and matches(minus, message))


@given(token_lists())
@settings(max_examples=300, deadline=None)
def test_constraints_only_narrow(tokens):
    message = tmsg(" ".join(tokens))
    loose = parse_query("flu cough")
    tighter = parse_query("flu cough +fever")
    tightest = parse_query("flu cough +fever -news")
    if matches(tightest, message):
        assert matches(tighter, message)
    if matches(tighter, message):
        assert matches(loose, message)


@given(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True))
@settings(max_examples=200, deadline=None)
def test_render_parse_round_trip(words):
    q = Query(base_terms=frozenset(T(w) for w in words))
    assert parse_query(q.render()) == q


# --- weekly fractions ----------------------------------------------------------------


def test_count_and_fraction():
    b = bucket(["flu is here", "nothing", "bad cough", "also nothing"])
    q = parse_query("flu cough")
    assert count_matches(q, b) == 2
    assert [s.fractions()[0] for s in query_fraction_series(q, [b])] == [0.5]


def test_fraction_empty_bucket_raises():
    b = bucket([])
    with pytest.raises(QueryError, match=r"empty week bucket\(s\): 1"):
        query_fraction_series(parse_query("flu"), [b])


def test_query_fraction_series():
    b1 = bucket(["flu", "ok", "flu twice"], week_index=1, end=SAT1)
    b2 = bucket(["fine", "fine"], week_index=2, end=date(2009, 9, 12))
    series = query_fraction_series(parse_query("flu"), [b1, b2])
    assert series == [WeekScores.of(1, 3, (1.0, 1.0)), WeekScores.of(2, 2, ())]
    assert [s.fractions()[0] for s in series] == [2 / 3, 0.0]


def test_query_fraction_series_rejects_empty_weeks():
    b1 = bucket(["flu"], week_index=1, end=SAT1)
    b2 = bucket([], week_index=2, end=date(2009, 9, 12))
    with pytest.raises(QueryError, match="2"):
        query_fraction_series(parse_query("flu"), [b1, b2])


def test_gate_query_on_realistic_texts():
    hits = [
        "ugh i think i caught the flu",
        "this cough will not quit",
        "pounding headache all day",
        "woke up with a sore throat :(",
        "Flu shot lines around the block http://bit.ly/x",
    ]
    misses = [
        "great workout today",
        "my throat is sore",  # phrase order matters
        "coughing fits",  # "coughing" is a different token than "cough"
    ]
    for text in hits:
        assert matches(GATE_QUERY, tmsg(text)), text
    for text in misses:
        assert not matches(GATE_QUERY, tmsg(text)), text


def test_known_phrases_are_normalized():
    for phrase in KNOWN_PHRASES:
        assert 2 <= len(phrase) <= 3
        for tok in phrase:
            assert tokenize(tok) == [tok]


# --- columnar matching ------------------------------------------------------------

# Few words, so that phrases hit often, also across message boundaries.
COLUMN_WORDS = ("flu", "sore", "throat", "shot", "news", "ap", "bed")
MESSAGE_TEXTS = st.lists(
    st.sampled_from(COLUMN_WORDS + ("Flu,", "sore_throat", "!", "http://ap")), max_size=5
).map(" ".join)
TERMS = st.lists(st.sampled_from(COLUMN_WORDS), min_size=1, max_size=3).map(
    lambda tokens: Term(tokens=tuple(tokens))
)
GROUPS = st.frozensets(st.frozensets(TERMS, min_size=1, max_size=2), max_size=2)


@st.composite
def queries(draw):
    try:
        return Query(
            base_terms=draw(st.frozensets(TERMS, min_size=1, max_size=3)),
            required=draw(GROUPS),
            excluded=draw(GROUPS),
        )
    except QueryError:  # a term both required and excluded
        return draw(st.nothing())


def write_weeks(path, weeks_of_texts, shuffle=None, authors=("a",)):
    """One message per text, week by week, their authors taken from
    authors in turn; the lines are in time order unless shuffle (a
    random.Random) permutes them."""
    start = datetime(2009, 8, 30, tzinfo=timezone.utc)
    lines = []
    for w, texts in enumerate(weeks_of_texts):
        for i, text in enumerate(texts):
            ts = start + timedelta(days=7 * w + i % 7, minutes=i)
            lines.append(json.dumps({
                "id": f"w{w}m{i}", "timestamp": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "author": authors[i % len(authors)], "text": text,
            }))
    if shuffle is not None:
        shuffle.shuffle(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_buckets(path, weeks):
    """bucket_weekly(ingest(...)) of weeks 1..weeks: the per-message oracle."""
    date_range = (SAT1 - timedelta(days=6), SAT1 + timedelta(days=7 * weeks - 7))
    return bucket_weekly(ingest(path, date_range), SAT1, weeks)


@settings(max_examples=200, deadline=None)
@given(queries(), st.lists(st.lists(MESSAGE_TEXTS, min_size=1, max_size=6), min_size=3, max_size=3))
def test_columnar_matching_agrees_with_matches(query, weeks_of_texts):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "msgs.jsonl"
        write_weeks(p, weeks_of_texts)
        corpus = load_corpus(p, SAT1, 3)
        buckets = reference_buckets(p, 3)
    rows = {corpus.id(r): hit for r, hit in enumerate(match_rows(query, corpus).tolist())}
    for b in buckets:
        for tm in b.messages:
            assert rows[tm.message.id] == matches(query, tm), (tm.tokens, query.render())
    # With no model, week_scores gives the keywords counts without scoring a row.
    with mock.patch.object(Corpus, "tokens", side_effect=AssertionError("a row was read")):
        scores = week_scores(match_rows(query, corpus), corpus, None)
    assert scores == query_fraction_series(query, buckets)


def test_columnar_phrase_never_straddles_messages(tmp_path):
    p = tmp_path / "msgs.jsonl"
    write_weeks(p, [["my sore", "", "throat hurts", "sore throat", "!!", "sore"]])
    corpus = load_corpus(p, SAT1, 1)
    rows = match_rows(parse_query('"sore throat"'), corpus)
    assert rows.tolist() == [False, False, False, True, False, False]
    assert match_rows(parse_query("absent"), corpus).tolist() == [False] * 6


def test_columnar_matching_at_token_edges(tmp_path):
    p = tmp_path / "msgs.jsonl"
    write_weeks(p, [["fluhttp://x", "influenza", "http://flu.example", "flu_shot", "flu's"]])
    corpus = load_corpus(p, SAT1, 1)
    assert match_rows(parse_query("flu"), corpus).tolist() == [True, False, False, True, False]
    assert match_rows(parse_query('"flu shot"'), corpus).tolist() == [
        False, False, False, True, False
    ]
    # The lookup is exact: a URL is the one token "http", so the "flu" inside
    # one is no token, while a word that runs into a URL still is.
    assert corpus.rows_with(("flu",)).tolist() == [True, False, False, True, False]
    assert corpus.rows_with(("http",)).tolist() == [True, False, True, False, False]
    assert corpus.rows_with(("flu", "http")).tolist() == [True, False, False, False, False]


def test_week_scores_rejects_empty_weeks_like_the_oracle(tmp_path):
    p = tmp_path / "msgs.jsonl"
    write_weeks(p, [["flu"], [], ["cough"], []])
    corpus = load_corpus(p, SAT1, 4)
    with pytest.raises(ClassifierError) as columnar:
        summed_scores(4, week_scores(match_rows(GATE_QUERY, corpus), corpus, None))
    with pytest.raises(QueryError) as oracle:
        query_fraction_series(GATE_QUERY, reference_buckets(p, 4))
    assert str(columnar.value) == str(oracle.value)
    assert "cannot compute fractions over empty week bucket(s): 2, 4" in str(columnar.value)


# Small hand-built classifiers over the same words. Weights of 0 put a
# probability at exactly 0.5, which the hard fraction must not keep.
@st.composite
def classifiers(draw):
    words = sorted(draw(st.sets(st.sampled_from(COLUMN_WORDS + ("http",)), max_size=5)))
    weight = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))
    return ClassifierModel(
        vocabulary={w: i for i, w in enumerate(words, start=1)},
        theta=tuple(draw(st.lists(weight, min_size=len(words) + 1, max_size=len(words) + 1))),
        l2_lambda=1.0,
        trained_on="hand",
        converged=True,
    )


@settings(max_examples=150, deadline=None)
@given(
    queries(),
    classifiers(),
    st.lists(st.lists(MESSAGE_TEXTS, min_size=1, max_size=6), min_size=3, max_size=3),
    st.randoms(use_true_random=False),
)
def test_week_scores_agree_with_bucket_fractions(query, model, weeks_of_texts, shuffle):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "msgs.jsonl"
        write_weeks(p, weeks_of_texts, shuffle)
        corpus = load_corpus(p, SAT1, 3)
        scores = week_scores(match_rows(query, corpus), corpus, model)
        buckets = reference_buckets(p, 3)
    assert [(s.week_index, s.total) for s in scores] == [(b.week_index, len(b)) for b in buckets]
    # The same probabilities in each week, summed exactly, and equal
    # fractions: ==, not approx.
    assert scores == [
        WeekScores.of(b.week_index, len(b),
                      [predict_proba(model, tm) for tm in b.messages if matches(query, tm)])
        for b in buckets
    ]
    assert [s.fractions() for s in scores] == [bucket_fractions(query, b, model) for b in buckets]


# --- corpora read for phrases -----------------------------------------------------


def pool_of(corpus):
    try:
        pool = spurious_pool(pool_rows(corpus, match_rows(GATE_QUERY, corpus)))
    except SimulationError as exc:
        return str(exc)
    return pool.tokens, pool.source_rule


@settings(max_examples=150, deadline=None)
@given(
    queries(),
    classifiers(),
    st.lists(st.lists(MESSAGE_TEXTS, min_size=1, max_size=6), min_size=3, max_size=3),
    st.randoms(use_true_random=False),
)
def test_a_corpus_read_for_the_bare_terms_equals_the_whole_corpus_on_its_rows(
    query, model, weeks_of_texts, shuffle
):
    phrases = [term.tokens for term in query.base_terms]
    with_gate = phrases + [term.tokens for term in GATE_QUERY.base_terms]
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "msgs.jsonl"
        write_weeks(p, weeks_of_texts, shuffle, authors=("a", "News desk", "b"))
        full = load_corpus(p, SAT1, 3)
        read = []
        for size in (corpus_module._CHUNK_CHARS, 37):
            with mock.patch.multiple(corpus_module, _CHUNK_CHARS=size, _SHARES=1):
                read += [load_corpus(p, SAT1, 3, phrases), load_corpus(p, SAT1, 3, with_gate)]
    matched = match_rows(query, full)
    row_of = {full.id(r): r for r in range(len(full))}
    for corpus in read:
        # It keeps the rows holding one of its phrases, in file order, and
        # counts every row.
        kept = [row_of[corpus.id(r)] for r in range(len(corpus))]
        holding = np.logical_or.reduce([full.rows_with(t) for t in corpus.phrases])
        assert kept == np.flatnonzero(holding).tolist()
        assert corpus.seconds.tolist() == full.seconds[kept].tolist()
        assert corpus.week_totals == full.week_totals
        assert match_rows(query, corpus).tolist() == matched[kept].tolist()
        assert week_scores(match_rows(query, corpus), corpus, None) == week_scores(
            matched, full, None
        )
        assert week_scores(match_rows(query, corpus), corpus, model) == week_scores(
            matched, full, model
        )
    for corpus in read[1::2]:
        assert pool_of(corpus) == pool_of(full)


def test_match_rows_rejects_a_term_the_corpus_was_not_read_for(tmp_path):
    p = tmp_path / "msgs.jsonl"
    write_weeks(p, [["flu shot", "sore throat", "flu in bed", "bed"]])
    corpus = load_corpus(p, SAT1, 1, phrases=[("flu",)])
    assert len(corpus) == 2 and corpus.week_totals == (4,)
    # + and - groups need no phrase: they only narrow the rows a bare term finds.
    assert match_rows(parse_query("flu +shot -bed"), corpus).tolist() == [True, False]
    for text in ("flu sore", '"flu shot"', "bed +flu"):
        with pytest.raises(QueryError, match="the corpus was read for 1 phrase"):
            match_rows(parse_query(text), corpus)
        with pytest.raises(QueryError, match="not for"):
            week_scores(match_rows(parse_query(text), corpus), corpus, None)

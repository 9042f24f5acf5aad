"""Spurious-message pools, injection, and robustness scoring."""

import json
import random
import tempfile
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilitrack import corpus as corpus_module
from ilitrack import simulate as simulate_module
from ilitrack.classify import (
    METHODS,
    ClassifierModel,
    WeekScores,
    bucket_fractions,
    method_series,
    predict_proba,
    score_tokens,
    week_scores,
)
from ilitrack.corpus import WeekBucket, bucket_weekly, ingest, load_corpus, tokenize
from ilitrack.query import GATE_QUERY, GATE_QUERY_TEXT, match_rows, matches, parse_query
from ilitrack.regress import RegressionModel, clamp_fraction, predict
from ilitrack.simulate import (
    DEFAULT_AUTHOR_MARKERS,
    DEFAULT_SCHEDULE_COUNTS,
    DEFAULT_TEXT_MARKERS,
    REFERENCE_MSE,
    InjectionSchedule,
    SimulationError,
    SimulationReport,
    SpuriousPool,
    build_spurious_pool,
    corpus_spurious_pool,
    inject,
    mse_vs_baseline,
    report_csv,
    run_simulation,
    summary_json,
)

from conftest import msg, tmsg


# --- schedule -------------------------------------------------------------------


def test_schedule_basics_and_json():
    sched = InjectionSchedule(pairs=((32, 0), (33, 1000)))
    assert sched.weeks == (32, 33)
    back = InjectionSchedule.from_json(sched.to_json())
    assert back == sched


def test_schedule_validation():
    with pytest.raises(SimulationError, match="no .week, count. pairs"):
        InjectionSchedule(pairs=())
    with pytest.raises(SimulationError, match="distinct"):
        InjectionSchedule(pairs=((3, 1), (3, 2)))
    with pytest.raises(SimulationError, match=">= 0"):
        InjectionSchedule(pairs=((3, -1),))
    with pytest.raises(SimulationError, match="bad schedule"):
        InjectionSchedule.from_json('{"weeks": [1, 2]}')


def test_schedule_default_for():
    sched = InjectionSchedule.default_for(range(1, 37))
    assert sched.pairs == tuple(zip((32, 33, 34, 35, 36), DEFAULT_SCHEDULE_COUNTS))
    with pytest.raises(SimulationError, match="at least 5"):
        InjectionSchedule.default_for([1, 2, 3])


def test_default_schedule_counts():
    assert DEFAULT_SCHEDULE_COUNTS == (0, 1000, 5000, 10000, 100000)


# --- pool -----------------------------------------------------------------------


def pool_fixture_messages():
    return [
        msg(id="n1", author="ReutersWire", text="flu cases rising http"),
        msg(id="n2", author="city_news_flash", text="cough syrup recall widens"),
        msg(id="n3", author="joe", text="health officials warn of flu season"),
        msg(id="n4", author="jane", text="ap reports flu closures"),
        msg(id="g1", author="sal", text="ugh i caught the flu"),  # genuine, no marker
        msg(id="x1", author="ReutersWire", text="sunny weather this weekend"),  # no gate
        msg(id="h1", author="pat", text="so happy about my flu recovery"),  # "happy" != ap
    ]


def test_build_pool_selects_by_author_and_text():
    messages = pool_fixture_messages()
    pool = build_spurious_pool(messages)
    assert pool.tokens == tuple(tuple(tokenize(m.text)) for m in messages[:4])
    assert len(pool) == 4
    assert "gate query" in pool.source_rule


def test_pool_ap_marker_is_token_not_substring():
    # "happy" contains "ap" as a substring but not as a token.
    happy = [msg(id="h1", text="so happy about my flu")]
    with pytest.raises(SimulationError, match="no spurious messages"):
        build_spurious_pool(happy)
    ap = [msg(id="a1", text="ap says flu season started")]
    assert len(build_spurious_pool(ap)) == 1


def test_pool_author_marker_is_substring_case_insensitive():
    m = [msg(id="a1", author="DailyNEWSnetwork", text="flu count climbs")]
    assert len(build_spurious_pool(m)) == 1


def test_pool_requires_gate_match():
    no_gate = [msg(id="a1", author="ReutersWire", text="stocks close higher")]
    with pytest.raises(SimulationError, match="no spurious"):
        build_spurious_pool(no_gate)


def test_pool_multiword_text_marker():
    m = [msg(id="a1", text="associated press says flu wave peaked")]
    assert len(build_spurious_pool(m)) == 1
    split = [msg(id="a1", text="associated with the press, flu wave")]
    with pytest.raises(SimulationError, match="no spurious"):
        build_spurious_pool(split)


def test_pool_marker_validation():
    msgs = pool_fixture_messages()
    with pytest.raises(SimulationError, match="non-empty"):
        build_spurious_pool(msgs, author_markers=())
    with pytest.raises(SimulationError, match="no tokens"):
        build_spurious_pool(msgs, text_markers=("!!",))
    with pytest.raises(SimulationError, match="empty"):
        SpuriousPool(tokens=(), source_rule="r")


# Authors a marker can hide in: mixed case, non-ASCII, escaped by
# json.dumps; None writes a record with no "author" key.
MARKED_AUTHORS = st.sampled_from([
    "ReutersWire", "DailyNEWSnetwork", "nEwS", "joe", "Jos\u00e9", "\u0130news",
    "\u039d\u03ad\u03b1", "", 'a"b', "wire\n", "re\u00fcters",
])
POOL_AUTHORS = st.one_of(MARKED_AUTHORS, MARKED_AUTHORS, st.none(), st.text(max_size=6))
POOL_WORDS = ("flu", "Flu,", "cough", "sore", "throat", "ap", "AP", "happy", "associated",
              "press", "health", "officials", "http://ap.example", "ap_news", "x", "\u00e9")
POOL_MESSAGES = st.lists(
    st.tuples(st.integers(-2, 22), POOL_AUTHORS,
              st.lists(st.sampled_from(POOL_WORDS), max_size=6).map(" ".join), st.booleans()),
    max_size=15,
)


def pool_or_error(build):
    try:
        pool = build()
    except SimulationError as exc:
        return str(exc)
    return pool.tokens, pool.source_rule


@settings(max_examples=100, deadline=None)
# The author marker in another case; a text marker only; two pool rows out
# of time order in the file; no "author" key.
@example([(3, "DailyNEWSnetwork", "flu", False)], ["news"], ["associated press"], [0.0] * 4)
@example([(5, "joe", "AP says flu", True), (4, None, "health officials cough", False)],
         ["reuters"], ["ap", "health officials"], [1.0, -1.0, 2.0, 0.5])
@given(
    POOL_MESSAGES,
    st.lists(st.sampled_from(["news", "reuters", "\u00e9", "WIRE"]), min_size=1, max_size=2),
    st.lists(st.sampled_from(["associated press", "ap", "health officials", "x"]),
             min_size=1, max_size=2),
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
)
def test_columnar_paths_agree_with_the_oracles(rows, author_markers, text_markers, theta):
    # Days -2..22 from 2009-08-30: some messages fall outside weeks 1..3.
    # A line is \u-escaped or not, and without an "author" key it is read
    # line by line too.
    lines = []
    for i, (day, author, text, escaped) in enumerate(rows):
        ts = datetime(2009, 8, 30) + timedelta(days=day, minutes=i)
        record = {"id": f"m{i}", "timestamp": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                  "author": author, "text": text}
        if author is None:
            del record["author"]
        lines.append(json.dumps(record, ensure_ascii=escaped))
    classifier = ClassifierModel(
        vocabulary={"ap": 1, "flu": 2, "http": 3}, theta=tuple(theta),
        l2_lambda=1.0, trained_on="t", converged=True,
    )
    first_end, weeks = date(2009, 9, 5), 3
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "msgs.jsonl"
        p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        buckets = bucket_weekly(ingest(p, (date(2009, 8, 30), date(2009, 9, 19))), first_end, weeks)
        messages = [tm for b in buckets for tm in b.messages]
        expected_pool = pool_or_error(
            lambda: build_spurious_pool(messages, author_markers, text_markers)
        )
        # One process reads: forking for every example would take most of
        # the test's time, and more processes change no column
        # (test_load_corpus_reads_alike_in_any_number_of_processes).
        for size in (corpus_module._CHUNK_CHARS, 37, 1):
            with mock.patch.multiple(corpus_module, _CHUNK_CHARS=size, _SHARES=1):
                corpus = load_corpus(p, first_end, weeks)
            tokens = list(corpus.tokens(range(len(corpus))))
            assert tokens == [list(tm.tokens) for tm in messages]
            # Rows in file order, each with its record's id and author.
            kept = {tm.message.id: tm.message.author for tm in messages}
            assert [(corpus.id(r), corpus.author(r)) for r in range(len(corpus))] == [
                (record_id, kept[record_id])
                for record_id in (f"m{i}" for i in range(len(rows))) if record_id in kept
            ]
            # Bit for bit: the same sums in the same order.
            assert [score_tokens(classifier, t).hex() for t in tokens] == [
                predict_proba(classifier, tm).hex() for tm in messages
            ]
            gate = match_rows(GATE_QUERY, corpus)
            assert pool_or_error(
                lambda: corpus_spurious_pool(corpus, gate, author_markers, text_markers)
            ) == expected_pool


def test_default_markers():
    assert DEFAULT_AUTHOR_MARKERS == ("news", "reuters")
    assert DEFAULT_TEXT_MARKERS == ("associated press", "ap", "health officials")


# --- inject -----------------------------------------------------------------------


def two_buckets():
    b1 = WeekBucket(
        week_index=1,
        end_date=date(2009, 9, 5),
        messages=(tmsg("flu here", id="m1"), tmsg("fine", id="m2")),
    )
    b2 = WeekBucket(
        week_index=2,
        end_date=date(2009, 9, 12),
        messages=(tmsg("cough", id="m3"),),
    )
    return [b1, b2]


def small_pool():
    return build_spurious_pool(
        [
            msg(id="n1", author="newsdesk", text="flu closures reported"),
            msg(id="n2", author="reuters_x", text="cough outbreak coverage"),
        ]
    )


def test_inject_counts_and_ids():
    buckets = two_buckets()
    pool = small_pool()
    sched = InjectionSchedule(pairs=((2, 5),))
    out = inject(buckets, pool, sched, seed=3)
    assert out[0] is buckets[0]  # untouched week passes through
    assert len(out[1]) == 1 + 5
    originals = {tm.message.id for tm in buckets[1].messages}
    added = [tm for tm in out[1].messages if tm.message.id not in originals]
    assert len(added) == 5
    for i, tm in enumerate(added):
        assert tm.tokens in pool.tokens
        assert tuple(tokenize(tm.message.text)) == tm.tokens
        assert "#inj" in tm.message.id
    # Fresh ids stay unique even when the same source is drawn twice.
    ids = [tm.message.id for tm in out[1].messages]
    assert len(set(ids)) == len(ids)


def test_inject_with_replacement_beyond_pool_size():
    out = inject(two_buckets(), small_pool(), InjectionSchedule(pairs=((1, 50),)), seed=0)
    assert len(out[0]) == 2 + 50


def test_inject_zero_count_changes_nothing():
    buckets = two_buckets()
    out = inject(buckets, small_pool(), InjectionSchedule(pairs=((1, 0),)), seed=0)
    assert out[0] is buckets[0]
    assert out[1] is buckets[1]


def test_inject_deterministic_per_seed():
    buckets = two_buckets()
    pool = small_pool()
    sched = InjectionSchedule(pairs=((1, 20), (2, 7)))
    a = inject(buckets, pool, sched, seed=11)
    b = inject(buckets, pool, sched, seed=11)
    assert [
        [tm.message.id for tm in bk.messages] for bk in a
    ] == [[tm.message.id for tm in bk.messages] for bk in b]
    assert [tm.message.text for bk in a for tm in bk.messages] == [
        tm.message.text for bk in b for tm in bk.messages
    ]


def test_inject_does_not_mutate_inputs():
    buckets = two_buckets()
    before = [tuple(tm.message.id for tm in b.messages) for b in buckets]
    inject(buckets, small_pool(), InjectionSchedule(pairs=((1, 9), (2, 4))), seed=1)
    after = [tuple(tm.message.id for tm in b.messages) for b in buckets]
    assert before == after


def test_inject_missing_week_raises():
    with pytest.raises(SimulationError, match=r"\[7\] not present"):
        inject(two_buckets(), small_pool(), InjectionSchedule(pairs=((7, 3),)), seed=0)


# --- simulation -------------------------------------------------------------------


def keep_all_classifier():
    # Bias +4: everything scores sigmoid(4) ~ 0.982, far above threshold.
    return ClassifierModel(
        vocabulary={}, theta=(4.0,), l2_lambda=1.0, trained_on="t", converged=True
    )


def identity_models():
    m = RegressionModel(beta1=1.0, beta2=0.0, train_weeks=(1, 2, 3))
    return {name: m for name in METHODS}


def scores_of(buckets, classifier, query=GATE_QUERY):
    """The WeekScores that week_scores makes of a corpus with these buckets."""
    return [
        WeekScores.of(
            b.week_index,
            len(b.messages),
            tuple(predict_proba(classifier, tm) for tm in b.messages if matches(query, tm)),
        )
        for b in buckets
    ]


def wide_buckets(matches_per_week=(3, 4), total=10):
    buckets = []
    for w, k in enumerate(matches_per_week, start=1):
        tms = [tmsg(f"flu report {i}", id=f"w{w}g{i}") for i in range(k)]
        tms += [tmsg(f"quiet day {i}", id=f"w{w}q{i}") for i in range(total - k)]
        buckets.append(
            WeekBucket(
                week_index=w,
                end_date=date(2009, 9, 5 + 7 * (w - 1)),
                messages=tuple(tms),
            )
        )
    return buckets


def test_run_simulation_zero_schedule_has_zero_mse():
    buckets = wide_buckets()
    pool = small_pool()
    sched = InjectionSchedule(pairs=((1, 0), (2, 0)))
    clf = keep_all_classifier()
    report = run_simulation(scores_of(buckets, clf), pool, sched, identity_models(), clf, seed=5)
    assert report.estimates == report.baselines
    assert mse_vs_baseline(report) == {m: 0.0 for m in METHODS}


def test_run_simulation_keyword_estimate_closed_form():
    buckets = wide_buckets(matches_per_week=(3,), total=10)
    pool = small_pool()
    sched = InjectionSchedule(pairs=((1, 5),))
    models = identity_models()
    clf = keep_all_classifier()
    report = run_simulation(scores_of(buckets, clf), pool, sched, models, clf, seed=2)
    # Week 1: 3 of 10 match at baseline; all 5 injected messages match the
    # gate, so 8 of 15 match after injection. Identity link makes the
    # estimate the clamped fraction itself, in percent.
    assert report.baselines["keywords"] == (
        pytest.approx(100 * predict(models["keywords"], clamp_fraction(0.3, 10))),
    )
    assert report.estimates["keywords"] == (
        pytest.approx(100 * predict(models["keywords"], clamp_fraction(8 / 15, 15))),
    )
    mses = mse_vs_baseline(report)
    expected = (100 * 8 / 15 - 100 * 0.3) ** 2
    assert mses["keywords"] == pytest.approx(expected, rel=1e-12)


def test_run_simulation_rejecting_classifier_dilutes_instead_of_inflating():
    # A classifier that rejects every pool message cannot keep the filtered
    # estimates at baseline: injected messages still swell the denominator.
    # But dilution moves the estimate down gently while the keyword fraction
    # inflates hard, so the filtered methods deviate much less.
    vocab = {"closures": 1, "coverage": 2, "outbreak": 3, "reported": 4}
    clf = ClassifierModel(
        vocabulary=vocab,
        theta=(4.0, -8.0, -8.0, -8.0, -8.0),
        l2_lambda=1.0,
        trained_on="t",
        converged=True,
    )
    buckets = wide_buckets(matches_per_week=(3, 3), total=12)
    pool = small_pool()
    sched = InjectionSchedule(pairs=((1, 0), (2, 30)))
    report = run_simulation(scores_of(buckets, clf), pool, sched, identity_models(), clf, seed=7)
    assert report.estimates["keywords"][1] > report.baselines["keywords"][1]
    assert report.estimates["classify-hard"][1] < report.baselines["classify-hard"][1]
    mses = mse_vs_baseline(report)
    # Hard filter: numerator fixed at 3, denominator 12 -> 42, identity link.
    expected_hard = (100 * (3 / 42) - 100 * (3 / 12)) ** 2 / 2
    assert mses["classify-hard"] == pytest.approx(expected_hard, rel=1e-12)
    assert mses["classify-hard"] < mses["keywords"]
    assert mses["classify-soft"] < mses["keywords"]


def test_run_simulation_requires_all_models():
    models = identity_models()
    del models["classify-soft"]
    clf = keep_all_classifier()
    with pytest.raises(SimulationError, match="classify-soft"):
        run_simulation(
            scores_of(wide_buckets(), clf), small_pool(), InjectionSchedule(pairs=((1, 1),)),
            models, clf, seed=0,
        )


def test_run_simulation_schedule_week_outside_the_scores():
    clf = keep_all_classifier()
    with pytest.raises(SimulationError, match=r"\[7\] not present"):
        run_simulation(
            scores_of(wide_buckets(), clf), small_pool(), InjectionSchedule(pairs=((7, 1),)),
            identity_models(), clf, seed=0,
        )


POOL_TEXTS = (
    "flu closures reported",
    "cough outbreak coverage",
    "ap says flu shot lines are long",
    "health officials warn of headache and cough",
    "sore throat clinics close early",
)
WEEK_TEXTS = ("flu report", "quiet day", "cough again", "flu shot today", "closures downtown")
QUERIES = (GATE_QUERY_TEXT, "flu", "cough -outbreak", "flu +shot", '"sore throat" closures')


def varied_pool():
    return build_spurious_pool(
        [msg(id=f"n{i}", author="newsdesk", text=t) for i, t in enumerate(POOL_TEXTS)]
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(WEEK_TEXTS), min_size=1, max_size=8), min_size=4, max_size=4),
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, 40)),
        min_size=1, max_size=4, unique_by=lambda pair: pair[0],
    ),
    st.integers(0, 2**32 - 1),
    st.sampled_from(QUERIES),
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
)
def test_run_simulation_equals_bucket_fractions_over_inject(weeks, pairs, seed, query_text, theta):
    # Schedules come with zero counts and weeks out of order; some queries
    # reject some pool messages, whose picks then only swell the total.
    check_run_simulation_against_inject(weeks, pairs, seed, query_text, theta)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(WEEK_TEXTS), min_size=1, max_size=3), min_size=4, max_size=4),
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, 400)),
        min_size=1, max_size=4, unique_by=lambda pair: pair[0],
    ),
    st.integers(0, 2**32 - 1),
    st.sampled_from(QUERIES),
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
)
def test_run_simulation_in_small_blocks_equals_bucket_fractions_over_inject(
    weeks, pairs, seed, query_text, theta
):
    # Counts past the block size: drawing 7 at a time gives inject()'s
    # single draw, and leaves the generator where it leaves it for the
    # next week's draws.
    with mock.patch.object(simulate_module, "_DRAW_BLOCK", 7):
        check_run_simulation_against_inject(weeks, pairs, seed, query_text, theta)


def check_run_simulation_against_inject(weeks, pairs, seed, query_text, theta):
    """run_simulation's report equals the regression of bucket_fractions
    over the buckets, with and without inject()."""
    buckets = [
        WeekBucket(
            week_index=w,
            end_date=date(2009, 9, 5 + 7 * (w - 1)),
            messages=tuple(tmsg(t, id=f"w{w}m{i}") for i, t in enumerate(texts)),
        )
        for w, texts in enumerate(weeks, start=1)
    ]
    query = parse_query(query_text)
    pool = varied_pool()
    clf = ClassifierModel(
        vocabulary={"closures": 1, "cough": 2, "flu": 3}, theta=tuple(theta),
        l2_lambda=1.0, trained_on="t", converged=True,
    )
    models = {
        name: RegressionModel(beta1=0.5 + i, beta2=-1.0, train_weeks=(1, 2, 3))
        for i, name in enumerate(METHODS)
    }
    schedule = InjectionSchedule(pairs=tuple(pairs))
    scores = scores_of(buckets, clf, query)
    report = run_simulation(scores, pool, schedule, models, clf, seed, query)

    def oracle(bucket_list):
        by_week = {b.week_index: b for b in bucket_list}
        fractions = [bucket_fractions(query, by_week[w], clf) for w in schedule.weeks]
        totals = [len(by_week[w]) for w in schedule.weeks]
        return {
            name: tuple(
                100.0 * predict(models[name], clamp_fraction(f[i], t))
                for f, t in zip(fractions, totals)
            )
            for i, name in enumerate(METHODS)
        }

    assert report.baselines == oracle(buckets)
    assert report.estimates == oracle(inject(buckets, pool, schedule, seed))


def test_method_series_clamps_each_method_off_the_boundary():
    scores = [WeekScores.of(1, 4, (0.9, 0.2)), WeekScores.of(2, 4, ())]
    series = method_series(scores)
    assert series["keywords"].values == (0.5, 0.125)
    assert series["classify-soft"].values == (1.1 / 4, 0.125)
    assert series["classify-hard"].values == (0.25, 0.125)
    assert all(s.week_indices == (1, 2) for s in series.values())


def test_report_validation():
    with pytest.raises(SimulationError, match="must cover methods"):
        SimulationReport(
            weeks=(1,), injected_counts=(0,),
            estimates={"keywords": (1.0,)},
            baselines={m: (1.0,) for m in METHODS},
        )
    with pytest.raises(SimulationError, match="length"):
        SimulationReport(
            weeks=(1, 2), injected_counts=(0, 1),
            estimates={m: (1.0,) for m in METHODS},
            baselines={m: (1.0, 2.0) for m in METHODS},
        )


def test_report_csv_layout():
    clf = keep_all_classifier()
    report = run_simulation(
        scores_of(wide_buckets(), clf), small_pool(), InjectionSchedule(pairs=((1, 0), (2, 6))),
        identity_models(), clf, seed=1,
    )
    text = report_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "week,injected,method,estimate,baseline,abs_error"
    assert len(lines) == 1 + 2 * len(METHODS)
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0" and first[2] == "keywords"
    # repr floats round-trip exactly
    assert float(first[3]) == report.estimates["keywords"][0]


def test_summary_json_contents():
    clf = keep_all_classifier()
    pool = small_pool()
    report = run_simulation(
        scores_of(wide_buckets(), clf), pool, InjectionSchedule(pairs=((1, 0), (2, 6))),
        identity_models(), clf, seed=9,
    )
    doc = json.loads(summary_json(report, pool, seed=9))
    assert doc["seed"] == 9
    assert doc["pool_size"] == len(pool)
    assert set(doc["mse"]) == set(METHODS)
    assert doc["reference_mse"] == {
        "keywords": 0.077, "classify-soft": 0.035, "classify-hard": 0.023,
    }
    assert doc["mse"] == mse_vs_baseline(report)


def test_reference_mse_values():
    assert REFERENCE_MSE["keywords"] == 0.077
    assert REFERENCE_MSE["classify-soft"] == 0.035
    assert REFERENCE_MSE["classify-hard"] == 0.023
    assert METHODS == ("keywords", "classify-soft", "classify-hard")


# --- memory -----------------------------------------------------------------------


# What week_scores and run_simulation may hold at their peak beyond what
# they return. At 20,000 matching rows week_scores peaked 13.6 MB above its
# result while it held every row's tokens, and 1.8 MB while it held two
# offset lists over all rows; 0.7 MB while its result held a float per
# match, and 0.87 MB above a result of two small records: its whole
# peak fell from 1.35 MB, and what was left was the matching rows' order,
# sorted by time. Now that it scores each week's rows in file order, it
# holds 0.69 MB, most of it the offsets of 4096 rows as Python ints, and
# 17 kB for 40 weeks of 126 rows, where it held 0.44 MB before.
# With the default schedule run_simulation peaked 4.9 MB above its report
# while it held a Python int per draw, 1.1 MB while it held a probability
# per matching draw, and now 0.2-0.33 MB, with draws made 2^13 at a time.
EXTRA_BYTES = {"week_scores": 9 * 2**17, "week_scores of 126 rows a week": 2**15,
               "run_simulation": 2**19}


def traced_extra(call):
    """call()'s result, and how many bytes above what was held once it
    returned tracemalloc saw held while it ran. tracemalloc also counts
    numpy's buffers."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


REPORT_MODEL = ClassifierModel(vocabulary={"flu": 1, "ward": 2}, theta=(0.5, 0.25, -1.0),
                               l2_lambda=1.0, trained_on="t", converged=True)


def report_scores(path, rows, seconds_apart, weeks, order=None):
    """week_scores(REPORT_MODEL) of "flu" over rows of 9 tokens each, row i
    posted i * seconds_apart after 2009-08-30 and written to path in order
    (file order when None), and what it held at its peak beyond them."""
    start = datetime(2009, 8, 30, tzinfo=timezone.utc)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(rows) if order is None else order:
            stamp = (start + timedelta(seconds=i * seconds_apart)).strftime("%Y-%m-%dT%H:%M:%SZ")
            text = f"flu report {i} from ward {i % 97} late today again"
            fh.write(json.dumps({"id": f"m{i}", "timestamp": stamp, "text": text}) + "\n")
    corpus = load_corpus(path, date(2009, 9, 5), weeks)
    matched = match_rows(parse_query("flu"), corpus)
    return traced_extra(lambda: week_scores(matched, corpus, REPORT_MODEL))


def test_week_scores_holds_no_token_list_per_row(tmp_path):
    # 20,000 matching rows a minute apart. Each row is tokenized, scored
    # and dropped in turn.
    scores, extra = report_scores(tmp_path / "msgs.jsonl", 20_000, 60, 2)
    assert [s.matches for s in scores] == [10_080, 9_920]
    assert extra < EXTRA_BYTES["week_scores"]


def test_week_scores_holds_the_rows_of_one_week_at_a_time(tmp_path):
    # 5,040 matching rows in 40 weeks of 126: what is held follows the
    # largest week, not every match.
    scores, extra = report_scores(tmp_path / "msgs.jsonl", 5040, 4800, 40)
    assert {s.matches for s in scores} == {126}
    assert extra < EXTRA_BYTES["week_scores of 126 rows a week"]


def test_week_scores_do_not_depend_on_the_order_of_rows(tmp_path):
    # Each week's rows are scored in file order, and its soft sum is exact.
    order = list(range(900))
    random.Random(0).shuffle(order)
    in_order, _ = report_scores(tmp_path / "in-order.jsonl", 900, 2016, 3)
    shuffled, _ = report_scores(tmp_path / "shuffled.jsonl", 900, 2016, 3, order)
    assert shuffled == in_order
    assert [s.matches for s in in_order] == [300, 300, 300]


def test_run_simulation_holds_nothing_per_draw():
    # The default schedule draws 116,000 times from a pool of 1,000.
    pool = SpuriousPool(tokens=tuple(("flu", f"w{i}") for i in range(1000)), source_rule="r")
    scores = [WeekScores.of(w, 100, [0.9], [10]) for w in range(1, 6)]
    schedule = InjectionSchedule.default_for(range(1, 6))
    report, extra = traced_extra(lambda: run_simulation(
        scores, pool, schedule, identity_models(), keep_all_classifier(), 0))
    assert report.injected_counts == DEFAULT_SCHEDULE_COUNTS
    assert extra < EXTRA_BYTES["run_simulation"]

"""Bag-of-words logistic classifier: loss, training, CV, filtered fractions."""

import json
import logging
import math
import random

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from ilitrack.classify import (
    REFERENCE_CV,
    ClassifierError,
    ClassifierModel,
    LabeledMessage,
    bucket_fractions,
    build_vocabulary,
    cross_validate,
    WeekScores,
    featurize,
    load_labeled_jsonl,
    loss_and_grad,
    predict_label,
    predict_proba,
    score_tokens,
    train,
)
from ilitrack.classify import _design_matrix, _fingerprint
from ilitrack.corpus import WeekBucket
from ilitrack.query import count_matches, matches, parse_query
from ilitrack.regress import sigmoid

from conftest import tmsg

from datetime import date


def labeled(text, label, id="m1"):
    return LabeledMessage(message=tmsg(text, id=id), label=label)


def separable_set(n_pos=30, n_neg=30):
    """Positives and negatives with disjoint discriminative tokens."""
    data = []
    for i in range(n_pos):
        data.append(labeled(f"ugh sick with flu fever variant{i % 5}", 1, id=f"p{i}"))
    for i in range(n_neg):
        data.append(labeled(f"flu news wire update bulletin{i % 5}", 0, id=f"n{i}"))
    return data


# --- labeled data ------------------------------------------------------------


def test_labeled_message_label_validation():
    labeled("x", 0)
    labeled("x", 1)
    with pytest.raises(ClassifierError, match="label"):
        labeled("x", 2)


def test_load_labeled_jsonl(tmp_path):
    p = tmp_path / "lab.jsonl"
    rows = [
        {"id": "a", "timestamp": "2010-06-06T12:00:00Z", "author": "u", "text": "flu bed", "label": 1},
        {"id": "b", "timestamp": "2010-06-06T12:01:00Z", "author": "u", "text": "flu news", "label": 0},
    ]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    data = load_labeled_jsonl(p)
    assert [lm.label for lm in data] == [1, 0]
    assert data[0].message.tokens == ("flu", "bed")
    assert data[0].message.message.id == "a"


@pytest.mark.parametrize(
    "mutation,complaint",
    [
        (lambda r: r.pop("label"), "missing field 'label'"),
        (lambda r: r.update(label=2), "label must be 0 or 1"),
        (lambda r: r.update(label=True), "label must be 0 or 1"),
        (lambda r: r.update(label="1"), "label must be 0 or 1"),
        (lambda r: r.pop("text"), "missing field 'text'"),
    ],
)
def test_load_labeled_jsonl_rejects(tmp_path, mutation, complaint):
    # The bad row follows a good one, and a byte that is not UTF-8 on the
    # line after it does not hide it.
    good = {"id": "g", "timestamp": "2010-06-06T12:00:00Z", "text": "flu", "label": 1}
    row = {"id": "a", "timestamp": "2010-06-06T12:00:00Z", "text": "flu", "label": 1}
    mutation(row)
    p = tmp_path / "lab.jsonl"
    p.write_bytes(f"{json.dumps(good)}\n{json.dumps(row)}\n".encode() + b'{"id": "\xff"}\n')
    with pytest.raises(ClassifierError, match=f"line 2: {complaint}"):
        load_labeled_jsonl(p)


@pytest.mark.parametrize("line", ['"label"', "5", "[1]", "null"])
def test_load_labeled_jsonl_rejects_values_that_are_not_objects(tmp_path, line):
    row = {"id": "a", "timestamp": "2010-06-06T12:00:00Z", "text": "flu", "label": 1}
    p = tmp_path / "lab.jsonl"
    p.write_text(json.dumps(row) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ClassifierError, match="line 2: expected a JSON object"):
        load_labeled_jsonl(p)


def test_load_labeled_jsonl_names_the_line_that_is_not_utf8(tmp_path):
    row = {"id": "a", "timestamp": "2010-06-06T12:00:00Z", "text": "flu", "label": 1}
    p = tmp_path / "lab.jsonl"
    p.write_bytes(json.dumps(row).encode() + b"\r\n\r\n{\"id\": \"\xff\"}\n")
    with pytest.raises(ClassifierError, match=r"lab.jsonl: line 3: not valid UTF-8"):
        load_labeled_jsonl(p)


def test_load_labeled_jsonl_duplicate_and_empty(tmp_path):
    p = tmp_path / "lab.jsonl"
    row = {"id": "a", "timestamp": "2010-06-06T12:00:00Z", "text": "flu", "label": 1}
    p.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ClassifierError, match="line 2: duplicate"):
        load_labeled_jsonl(p)
    p.write_text("", encoding="utf-8")
    with pytest.raises(ClassifierError, match="no records"):
        load_labeled_jsonl(p)


# --- features ----------------------------------------------------------------


def test_build_vocabulary_alphabetical_one_based():
    tms = [tmsg("cough flu cough"), tmsg("aches flu")]
    vocab = build_vocabulary(tms)
    assert vocab == {"aches": 1, "cough": 2, "flu": 3}


def test_featurize_counts_and_bias():
    vocab = {"cough": 1, "flu": 2}
    feats = featurize(tmsg("flu cough flu zebra"), vocab)
    assert feats == {0: 1, 1: 1, 2: 2}  # zebra dropped, bias always 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(("flu", "cough", "ap", "zebra", "x")), max_size=10),
    st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
)
def test_score_tokens_sums_the_features_in_order(tokens, theta):
    model = ClassifierModel(
        vocabulary={"ap": 1, "cough": 2, "flu": 3}, theta=tuple(theta),
        l2_lambda=1.0, trained_on="t", converged=True,
    )
    tm = tmsg(" ".join(tokens))
    # The bias, then weight times count of each known token in first-seen
    # order: the same sums in the same order give the same bits.
    z = theta[0]
    for tok in dict.fromkeys(tokens):
        if tok in model.vocabulary:
            z += theta[model.vocabulary[tok]] * tokens.count(tok)
    assert score_tokens(model, tokens).hex() == sigmoid(z).hex()
    assert predict_proba(model, tm).hex() == sigmoid(z).hex()


# --- loss and gradient ----------------------------------------------------------


def test_loss_at_zero_is_n_log2():
    data = separable_set(4, 4)
    vocab = build_vocabulary(lm.message for lm in data)
    X, y = _design_matrix(data, vocab)
    theta = np.zeros(len(vocab) + 1)
    loss, grad = loss_and_grad(theta, X, y, l2_lambda=1.0)
    assert loss == pytest.approx(len(data) * math.log(2.0), rel=1e-14)
    np.testing.assert_allclose(grad, X.T @ (0.5 - y), atol=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    data = separable_set(6, 5)
    vocab = build_vocabulary(lm.message for lm in data)
    X, y = _design_matrix(data, vocab)
    dim = len(vocab) + 1
    h = 1e-6
    for trial in range(20):
        theta = rng.normal(0.0, 0.5, size=dim)
        _, grad = loss_and_grad(theta, X, y, l2_lambda=0.7)
        j = int(rng.integers(0, dim))
        e = np.zeros(dim)
        e[j] = h
        hi, _ = loss_and_grad(theta + e, X, y, l2_lambda=0.7)
        lo, _ = loss_and_grad(theta - e, X, y, l2_lambda=0.7)
        fd = (hi - lo) / (2 * h)
        denom = max(1.0, abs(fd))
        assert abs(grad[j] - fd) / denom < 1e-6


def test_bias_is_not_penalized():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    y = np.array([1.0, 0.0])
    theta = np.array([3.0, 0.0])
    loss_l0, _ = loss_and_grad(theta, X, y, l2_lambda=0.0)
    loss_l9, grad_l9 = loss_and_grad(theta, X, y, l2_lambda=9.0)
    assert loss_l0 == loss_l9  # only the bias is non-zero, so no penalty
    assert grad_l9[0] == pytest.approx(2 * sigmoid(3.0) - 1.0, rel=1e-12)


def test_loss_is_stable_for_huge_scores():
    X = np.array([[1.0, 1.0]])
    y = np.array([0.0])
    theta = np.array([0.0, 1000.0])
    loss, grad = loss_and_grad(theta, X, y, l2_lambda=0.0)
    assert math.isfinite(loss)
    assert loss == pytest.approx(1000.0, rel=1e-12)  # logaddexp(0, 1000) ~ 1000
    assert np.all(np.isfinite(grad))


# --- training -----------------------------------------------------------------


def test_train_two_seeds_reach_same_optimum():
    data = separable_set(12, 10)
    m1 = train(data, seed=0)
    m2 = train(data, seed=99)
    assert m1.converged and m2.converged
    np.testing.assert_allclose(m1.theta, m2.theta, atol=1e-4)
    assert m1.trained_on == m2.trained_on


def test_train_matches_scipy_minimum():
    data = separable_set(10, 9)
    lam = 1.0
    model = train(data, l2_lambda=lam, seed=0, tol=1e-9)
    vocab = build_vocabulary(lm.message for lm in data)
    assert model.vocabulary == vocab
    X, y = _design_matrix(data, vocab)
    ref = scipy.optimize.minimize(
        lambda t: loss_and_grad(t, X, y, lam),
        np.zeros(len(vocab) + 1),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 1000, "ftol": 1e-15, "gtol": 1e-10},
    )
    ours, _ = loss_and_grad(np.array(model.theta), X, y, lam)
    assert ours == pytest.approx(ref.fun, abs=1e-7)
    np.testing.assert_allclose(model.theta, ref.x, atol=1e-4)


def test_train_requires_both_classes():
    with pytest.raises(ClassifierError, match="both classes"):
        train([labeled("flu", 1, id="a"), labeled("flu bad", 1, id="b")])
    with pytest.raises(ClassifierError, match="no labeled"):
        train([])


def test_train_budget_exhaustion_flags_not_raises(caplog):
    data = separable_set(8, 8)
    with caplog.at_level(logging.WARNING, logger="ilitrack.classify"):
        model = train(data, max_iters=1, tol=1e-14)
    assert not model.converged
    assert "did not converge" in caplog.text


def test_fingerprint_order_invariant_label_sensitive():
    data = separable_set(5, 5)
    shuffled = list(data)
    random.Random(3).shuffle(shuffled)
    assert _fingerprint(data) == _fingerprint(shuffled)
    flipped = [LabeledMessage(message=data[0].message, label=0)] + list(data[1:])
    assert _fingerprint(flipped) != _fingerprint(data)


def test_model_json_round_trip(tmp_path):
    model = train(separable_set(6, 6), seed=1)
    text = model.to_json()
    back = ClassifierModel.from_json(text)
    assert back == model
    p = tmp_path / "classifier.json"
    p.write_text(text, encoding="utf-8")
    assert ClassifierModel.load(p) == model


def test_model_validation():
    with pytest.raises(ClassifierError, match="theta length"):
        ClassifierModel(vocabulary={"a": 1}, theta=(0.0,), l2_lambda=1.0,
                        trained_on="x", converged=True)
    with pytest.raises(ClassifierError, match="1..V"):
        ClassifierModel(vocabulary={"a": 2}, theta=(0.0, 0.0), l2_lambda=1.0,
                        trained_on="x", converged=True)
    doc = '{"vocabulary": {"a": 1}, "theta": %s, "l2_lambda": 1, "trained_on": "x", ' \
        '"converged": %s}'
    for text in ('{"vocabulary": {}}', "", "not json", '"theta"', '{"vocabulary": []}',
                 '{"vocabulary": {"a": "one"}, "theta": [0, 0], "l2_lambda": 1, '
                 '"trained_on": "x", "converged": true}',
                 # float() would read these as (nan, 1.0), bool() as True
                 doc % ('["nan", true]', "true"), doc % ("[0, 0]", '"no"'),
                 # str() would read this as "5"
                 (doc % ("[0, 0]", "true")).replace('"x"', "5")):
        with pytest.raises(ClassifierError, match="bad classifier"):
            ClassifierModel.from_json(text)


# --- prediction ------------------------------------------------------------------


def hand_model():
    return ClassifierModel(
        vocabulary={"flu": 1, "news": 2},
        theta=(0.2, 1.5, -2.0),
        l2_lambda=1.0,
        trained_on="hand",
        converged=True,
    )


def test_predict_proba_closed_form():
    model = hand_model()
    assert predict_proba(model, tmsg("flu news flu")) == pytest.approx(
        sigmoid(0.2 + 1.5 * 2 - 2.0), rel=1e-15
    )
    assert predict_proba(model, tmsg("nothing known")) == pytest.approx(
        sigmoid(0.2), rel=1e-15
    )


def test_predict_label_threshold_is_strict():
    coin = ClassifierModel(
        vocabulary={}, theta=(0.0,), l2_lambda=0.0, trained_on="x", converged=True
    )
    assert predict_proba(coin, tmsg("anything")) == 0.5
    assert predict_label(coin, tmsg("anything")) == 0  # exactly 0.5 is not kept
    assert predict_label(hand_model(), tmsg("flu")) == 1


# --- cross-validation ---------------------------------------------------------------


def test_cross_validate_separable_is_perfect():
    report = cross_validate(separable_set(24, 20), k=4, seed=0)
    assert report.k == 4
    assert report.means["accuracy"] == 100.0
    assert report.means["f1"] == 100.0
    assert report.standard_errors["accuracy"] == 0.0
    for name in ("accuracy", "precision", "recall", "f1"):
        assert len(report.per_fold[name]) == 4


def test_cross_validate_is_seed_deterministic():
    data = separable_set(15, 12)
    r1 = cross_validate(data, k=3, seed=5)
    r2 = cross_validate(data, k=3, seed=5)
    assert r1 == r2


def test_cross_validate_errors():
    data = separable_set(5, 5)
    with pytest.raises(ClassifierError, match="k must be >= 2"):
        cross_validate(data, k=1)
    with pytest.raises(ClassifierError, match="cannot fill"):
        cross_validate(data, k=11)
    with pytest.raises(ClassifierError, match="of each class"):
        cross_validate(separable_set(3, 9), k=4)


def test_cv_mean_and_se_recompute():
    report = cross_validate(separable_set(16, 12), k=4, seed=2)
    for name in ("accuracy", "precision", "recall", "f1"):
        vals = report.per_fold[name]
        assert report.means[name] == pytest.approx(float(np.mean(vals)), abs=1e-12)
        assert report.standard_errors[name] == pytest.approx(
            float(np.std(vals, ddof=1) / math.sqrt(4)), abs=1e-12
        )


def test_cv_report_json_and_table():
    report = cross_validate(separable_set(12, 12), k=3, seed=0)
    doc = json.loads(report.to_json())
    assert doc["k"] == 3
    assert set(doc["metrics"]) == {"accuracy", "precision", "recall", "f1"}
    assert doc["reference"]["accuracy"] == [84.29, 1.9]
    text = report.table()
    assert "accuracy" in text
    assert "84.29" in text


def test_reference_cv_values():
    assert REFERENCE_CV["accuracy"] == (84.29, 1.9)
    assert REFERENCE_CV["f1"] == (90.2, 1.5)
    assert REFERENCE_CV["precision"] == (92.8, 1.8)
    assert REFERENCE_CV["recall"] == (88.1, 2.0)


# --- filtered fractions ----------------------------------------------------------


def fraction_bucket():
    tms = (
        tmsg("flu is awful", id="a"),  # match, p = sigmoid(0.2 + 1.5)
        tmsg("flu news update", id="b"),  # match, p = sigmoid(0.2 + 1.5 - 2.0)
        tmsg("nice day outside", id="c"),  # no match
        tmsg("more flu news", id="d"),  # match, p = sigmoid(0.2 + 1.5 - 2.0)
    )
    return WeekBucket(week_index=1, end_date=date(2009, 9, 5), messages=tms)


def test_soft_and_hard_fractions_closed_form():
    model = hand_model()
    bucket = fraction_bucket()
    query = parse_query("flu")
    p_genuine = sigmoid(1.7)
    p_newsy = sigmoid(-0.3)
    expected_soft = (p_genuine + 2 * p_newsy) / 4
    plain, soft, hard = bucket_fractions(query, bucket, model)
    assert plain == 0.75
    assert soft == pytest.approx(expected_soft, rel=1e-15)
    # Only the genuine-looking message clears 0.5.
    assert hard == 0.25
    scores = WeekScores.of(1, 4, (p_genuine, p_newsy, p_newsy))
    assert scores.kept == 1
    assert scores.fractions() == (plain, soft, hard)


def test_fraction_ordering_invariants():
    model = hand_model()
    bucket = fraction_bucket()
    query = parse_query("flu")
    plain, soft, hard = bucket_fractions(query, bucket, model)
    assert 0.0 <= hard <= plain <= 1.0
    assert 0.0 <= soft <= plain


def test_soft_fraction_is_order_independent():
    model = hand_model()
    query = parse_query("flu")
    texts = [f"flu report number {i}" for i in range(50)] + ["flu news"] * 30
    tms = [tmsg(t, id=f"m{i}") for i, t in enumerate(texts)]
    b1 = WeekBucket(week_index=1, end_date=date(2009, 9, 5), messages=tuple(tms))
    shuffled = list(tms)
    random.Random(9).shuffle(shuffled)
    b2 = WeekBucket(week_index=1, end_date=date(2009, 9, 5), messages=tuple(shuffled))
    # Bit-identical, not merely close: the sum is compensated.
    assert bucket_fractions(query, b1, model) == bucket_fractions(query, b2, model)


# Probabilities at the edges of float64: subnormals, 0.5 and 1.0, and
# logistic outputs of large logits, which round to 1.0 or fall to subnormals.
PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0**-1000),
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 0.5, math.nextafter(0.5, 1.0), 1.0]),
    st.floats(-800.0, 800.0).map(sigmoid),
)


def fsum_repeated(pairs):
    """math.fsum of each probability p repeated c times, for (p, c) in
    pairs: c copies of p sum exactly to the p * 2**k of c's set bits k."""
    return math.fsum(p * 2.0**k for p, c in pairs for k in range(c.bit_length()) if c >> k & 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(PROBABILITIES, st.integers(1, 10**6)), max_size=8),
       st.integers(0, 10**7))
def test_soft_fraction_is_fsum_of_the_probabilities_bit_for_bit(pairs, unmatched):
    probs = [p for p, _ in pairs]
    counts = [c for _, c in pairs]
    total = sum(counts) + unmatched or 1
    scores = WeekScores.of(1, total, probs, counts)
    assert scores.fractions()[1] == fsum_repeated(pairs) / total
    assert scores.matches == sum(counts)
    assert scores.kept == sum(c for p, c in pairs if p > 0.5)
    once = WeekScores.of(1, total, probs)
    assert once.fractions()[1] == math.fsum(probs) / total
    # Records of one week add up to the record of all their matches.
    assert once + scores == WeekScores.of(1, 2 * total, probs * 2, [1] * len(probs) + counts)


def test_soft_fraction_of_a_million_copies_is_their_fsum():
    p = sigmoid(-3.7)
    scores = WeekScores.of(4, 3 * 10**6, [p, 0.5, 5e-324], [10**6, 10**6 - 1, 7])
    copies = [p] * 10**6 + [0.5] * (10**6 - 1) + [5e-324] * 7
    assert scores.fractions() == ((2 * 10**6 + 6) / (3 * 10**6),
                                  math.fsum(copies) / (3 * 10**6), 0.0)
    with pytest.raises(ClassifierError, match="cannot add week 5 to week 4"):
        scores + WeekScores.of(5, 1, [])


def test_fractions_empty_bucket_raises():
    model = hand_model()
    empty = WeekBucket(week_index=2, end_date=date(2009, 9, 12), messages=())
    query = parse_query("flu")
    with pytest.raises(ClassifierError, match="week 2: empty"):
        bucket_fractions(query, empty, model)
    with pytest.raises(ClassifierError, match="week 2: empty"):
        WeekScores(week_index=2, total=0, matches=0, kept=0, soft=0)


def test_bucket_fractions_agrees_with_componentwise():
    model = train(separable_set(10, 10), seed=0)
    texts = [
        "ugh sick with flu fever variant1",
        "flu news wire update bulletin2",
        "totally unrelated message",
        "ugh sick with flu fever variant3",
    ]
    tms = tuple(tmsg(t, id=f"x{i}") for i, t in enumerate(texts))
    bucket = WeekBucket(week_index=1, end_date=date(2009, 9, 5), messages=tms)
    query = parse_query("flu fever")
    plain, soft, hard = bucket_fractions(query, bucket, model)
    hits = [tm for tm in tms if matches(query, tm)]
    assert plain == count_matches(query, bucket) / 4
    assert soft == math.fsum(predict_proba(model, tm) for tm in hits) / 4
    assert hard == sum(predict_label(model, tm) for tm in hits) / 4

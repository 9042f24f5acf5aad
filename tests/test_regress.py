"""Logit-logit regression, link functions, and evaluation metrics."""

import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ilitrack.regress import (
    DegenerateFitError,
    RegressionError,
    RegressionModel,
    WeeklySeries,
    clamp_fraction,
    fit,
    logit,
    mse,
    pearson,
    predict,
    predict_series,
    sigmoid,
)


# --- link functions ------------------------------------------------------------


def test_logit_known_values():
    assert logit(0.5) == 0.0
    assert logit(0.9) == pytest.approx(2.1972245773362196, abs=0.0)
    assert logit(0.9) == pytest.approx(math.log(9.0), abs=1e-15)
    assert logit(0.1) == pytest.approx(-logit(0.9), abs=1e-15)


def test_logit_domain():
    for bad in (0.0, 1.0, -0.1, 1.1, 2.0):
        with pytest.raises(RegressionError, match="domain"):
            logit(bad)


def test_sigmoid_known_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(-2.0) == pytest.approx(0.11920292202211755, abs=0.0)
    assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=0.0)


def test_sigmoid_extreme_arguments_do_not_overflow():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    assert 0.0 <= sigmoid(-1000.0)


@given(st.floats(min_value=-15, max_value=15))
@settings(max_examples=200, deadline=None)
def test_sigmoid_logit_inverse(z):
    # Past |z| ~ 15 the reconstruction loses digits to 1 - sigmoid(z)
    # cancellation, so the round trip is only asserted where double
    # precision actually supports it.
    assert logit(sigmoid(z)) == pytest.approx(z, abs=1e-9)


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50))
@settings(max_examples=200, deadline=None)
def test_sigmoid_monotone(z1, z2):
    if z1 < z2:
        assert sigmoid(z1) <= sigmoid(z2)


def test_clamp_fraction_boundaries():
    assert clamp_fraction(0.0, 1000) == 0.0005
    assert clamp_fraction(1.0, 10) == 0.95
    assert clamp_fraction(0.3, 100) == 0.3  # interior untouched
    assert clamp_fraction(0.0001, 1000) == 0.0005  # below half-count pulled up


def test_clamp_fraction_validation():
    with pytest.raises(RegressionError, match="total"):
        clamp_fraction(0.5, 0)
    with pytest.raises(RegressionError, match=r"\[0, 1\]"):
        clamp_fraction(-0.01, 10)
    with pytest.raises(RegressionError, match=r"\[0, 1\]"):
        clamp_fraction(1.01, 10)


# --- WeeklySeries ------------------------------------------------------------------


def test_weekly_series_lookup_and_restrict():
    s = WeeklySeries(week_indices=(1, 2, 5), values=(0.1, 0.2, 0.5))
    assert s.value_at(2) == 0.2
    r = s.restrict([5, 1])
    assert r.week_indices == (5, 1)
    assert r.values == (0.5, 0.1)
    with pytest.raises(RegressionError, match="no week 3"):
        s.value_at(3)


def test_weekly_series_validation():
    with pytest.raises(RegressionError, match="equal length"):
        WeeklySeries(week_indices=(1, 2), values=(0.1,))
    with pytest.raises(RegressionError, match="duplicate"):
        WeeklySeries(week_indices=(1, 1), values=(0.1, 0.2))


# --- fit ----------------------------------------------------------------------------


def exact_series(beta1, beta2, q_values, weeks):
    """ILI series exactly on the logit-logit line through the q series."""
    ili = tuple(sigmoid(beta1 * logit(q) + beta2) for q in q_values)
    return (
        WeeklySeries(week_indices=weeks, values=tuple(q_values)),
        WeeklySeries(week_indices=weeks, values=ili),
    )


def test_fit_recovers_exact_line():
    weeks = tuple(range(1, 9))
    q = (0.01, 0.02, 0.05, 0.04, 0.03, 0.08, 0.06, 0.07)
    fr, ili = exact_series(1.1, 0.389, q, weeks)
    model = fit(fr, ili, weeks)
    assert model.beta1 == pytest.approx(1.1, abs=1e-12)
    assert model.beta2 == pytest.approx(0.389, abs=1e-12)
    assert model.train_weeks == weeks


def test_fit_matches_polyfit_oracle():
    rng = np.random.default_rng(7)
    weeks = tuple(range(1, 16))
    q = rng.uniform(0.01, 0.2, size=15)
    p = rng.uniform(0.005, 0.1, size=15)
    fr = WeeklySeries(week_indices=weeks, values=tuple(q))
    ili = WeeklySeries(week_indices=weeks, values=tuple(p))
    model = fit(fr, ili, weeks)
    xs = [logit(v) for v in q]
    ys = [logit(v) for v in p]
    slope, intercept = np.polyfit(xs, ys, 1)
    assert model.beta1 == pytest.approx(slope, rel=1e-10)
    assert model.beta2 == pytest.approx(intercept, rel=1e-10)


def test_fit_uses_only_train_weeks():
    weeks = tuple(range(1, 11))
    q = tuple(0.01 + 0.005 * w for w in weeks)
    fr, ili = exact_series(2.0, -1.0, q, weeks)
    # Corrupt everything outside the training slice; the fit must not notice.
    values = list(ili.values)
    for i, w in enumerate(weeks):
        if w > 5:
            values[i] = 0.999
    ili_bad = WeeklySeries(week_indices=weeks, values=tuple(values))
    model = fit(fr, ili_bad, (1, 2, 3, 4, 5))
    assert model.beta1 == pytest.approx(2.0, abs=1e-10)
    assert model.beta2 == pytest.approx(-1.0, abs=1e-10)


def test_fit_requires_three_weeks_and_coverage():
    fr = WeeklySeries(week_indices=(1, 2, 3), values=(0.1, 0.2, 0.3))
    ili = WeeklySeries(week_indices=(1, 2, 3), values=(0.01, 0.02, 0.03))
    with pytest.raises(RegressionError, match="at least 3"):
        fit(fr, ili, (1, 2))
    with pytest.raises(RegressionError, match="duplicate"):
        fit(fr, ili, (1, 2, 2))
    with pytest.raises(RegressionError, match="no week 4"):
        fit(fr, ili, (1, 2, 4))


def test_fit_constant_predictor_is_degenerate():
    fr = WeeklySeries(week_indices=(1, 2, 3), values=(0.2, 0.2, 0.2))
    ili = WeeklySeries(week_indices=(1, 2, 3), values=(0.01, 0.02, 0.03))
    with pytest.raises(DegenerateFitError, match="constant"):
        fit(fr, ili, (1, 2, 3))
    assert issubclass(DegenerateFitError, RegressionError)


# --- predict -----------------------------------------------------------------------


def test_predict_closed_form():
    model = RegressionModel(beta1=1.5, beta2=-0.25, train_weeks=(1, 2, 3))
    q = 0.07
    assert predict(model, q) == sigmoid(1.5 * logit(q) - 0.25)


def test_predict_clamps_boundaries():
    model = RegressionModel(beta1=1.0, beta2=0.0, train_weeks=(1, 2, 3))
    # Identity link: prediction equals the clamped input.
    assert predict(model, 0.0) == pytest.approx(1e-6, rel=1e-9)
    assert predict(model, 1.0) == pytest.approx(1.0 - 1e-6, rel=1e-9)
    custom = RegressionModel(beta1=1.0, beta2=0.0, train_weeks=(1, 2, 3), eps_clamp=0.01)
    assert predict(custom, 0.0) == pytest.approx(0.01, rel=1e-12)


def test_predict_series_parallel():
    model = RegressionModel(beta1=1.0, beta2=0.0, train_weeks=(1, 2, 3))
    s = WeeklySeries(week_indices=(4, 5), values=(0.2, 0.4))
    out = predict_series(model, s)
    assert out.week_indices == (4, 5)
    assert out.values == (predict(model, 0.2), predict(model, 0.4))


def test_model_json_round_trip(tmp_path):
    model = RegressionModel(beta1=1.1, beta2=0.389, train_weeks=(1, 2, 3), eps_clamp=1e-6)
    text = model.to_json()
    assert RegressionModel.from_json(text) == model
    doc = json.loads(text)
    assert set(doc) == {"beta1", "beta2", "train_weeks", "eps_clamp"}
    p = tmp_path / "model.json"
    p.write_text(text, encoding="utf-8")
    assert RegressionModel.load(p) == model


def test_model_from_json_rejects_missing_fields(tmp_path):
    for text in ('{"beta1": 1.0}', "", "not json", "[1.0, 0.4]", '"beta1"',
                 '{"beta1": "one", "beta2": 0, "train_weeks": [1], "eps_clamp": 0}',
                 # week numbers are JSON integers: not infinity, 1.5 or true
                 '{"beta1": 1, "beta2": 0, "train_weeks": [1e400], "eps_clamp": 0}',
                 '{"beta1": 1, "beta2": 0, "train_weeks": [1.5], "eps_clamp": 0}',
                 '{"beta1": 1, "beta2": 0, "train_weeks": [true], "eps_clamp": 0}',
                 # other fields are finite JSON numbers, which float() would not check
                 '{"beta1": "nan", "beta2": 0, "train_weeks": [1], "eps_clamp": 0}',
                 '{"beta1": 1, "beta2": 0, "train_weeks": [1], "eps_clamp": "inf"}',
                 # an integer past the float range
                 '{"beta1": 1%s, "beta2": 0, "train_weeks": [1], "eps_clamp": 0}' % ("0" * 400)):
        with pytest.raises(RegressionError, match="bad regression model"):
            RegressionModel.from_json(text)
    p = tmp_path / "model.json"
    p.write_bytes(b'{"beta1": \xff}\n')
    with pytest.raises(RegressionError, match="line 1: not valid UTF-8"):
        RegressionModel.load(p)


# --- pearson / mse -------------------------------------------------------------------


def test_pearson_known_value():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)
    assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-15)


def test_pearson_matches_scipy():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if np.std(a) == 0 or np.std(b) == 0:
            continue
        expected = scipy.stats.pearsonr(a, b).statistic
        assert pearson(tuple(a), tuple(b)) == pytest.approx(expected, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(RegressionError, match="length mismatch"):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(RegressionError, match="at least 2"):
        pearson([1], [2])
    with pytest.raises(RegressionError, match="constant"):
        pearson([1, 1, 1], [1, 2, 3])


@given(
    st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=20),
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-5, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_pearson_affine_invariant(a, scale, shift):
    # Integer-valued inputs keep the transformed series demonstrably
    # non-constant; nearly-equal floats can collapse under the affine map.
    b = list(range(len(a)))
    if len(set(a)) < 2:
        return
    r1 = pearson(a, b)
    r2 = pearson([scale * x + shift for x in a], b)
    assert r2 == pytest.approx(r1, abs=1e-9)


def test_mse_known_values():
    assert mse((1.0, 2.0, 3.0), (2.0, 2.0, 5.0)) == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert mse((1.0, 2.0), (1.0, 2.0)) == 0.0


def test_mse_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=25)
    b = rng.normal(size=25)
    assert mse(tuple(a), tuple(b)) == pytest.approx(float(np.mean((a - b) ** 2)), rel=1e-14)


def test_mse_errors():
    with pytest.raises(RegressionError, match="length mismatch"):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(RegressionError, match="empty"):
        mse([], [])


def test_mse_symmetric():
    a = (0.5, 1.5, -2.0)
    b = (0.25, 2.0, -1.0)
    assert mse(a, b) == mse(b, a)

"""Bag-of-words logistic regression for separating genuine illness reports
from spurious keyword matches, and the weekly fractions of the paper's three
methods: the plain keyword fraction, the classifier-weighted soft fraction
and the thresholded hard fraction. Each follows from one WeekScores record
per week, whether week_scores reads it off a corpus's columns or an oracle
(query_fraction_series, bucket_fractions) matches messages one by one.

Features are token counts over a vocabulary built from training data, with a
bias feature at index 0. The objective is the negative log-likelihood plus an
L2 penalty on the non-bias weights, which is strictly convex, so the trained
weights are unique regardless of initialization.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import (
    Corpus,
    CorpusError,
    TokenizedMessage,
    WeekBucket,
    json_bool,
    json_float,
    json_int,
    json_str,
    json_value,
    message_from_record,
    read_lines,
    read_records,
    read_text,
    tokenize_message,
)
from .optimize import minimize_lbfgs
from .query import Query, QueryError, count_matches, matches
from .regress import WeeklySeries, clamp_fraction, sigmoid

log = logging.getLogger(__name__)


class ClassifierError(ValueError):
    """Bad labeled data, fold counts, or model documents."""


@dataclass(frozen=True, slots=True)
class LabeledMessage:
    message: TokenizedMessage
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ClassifierError(f"label must be 0 or 1, got {self.label!r}")


def load_labeled_jsonl(path: str | Path) -> list[LabeledMessage]:
    """Read labeled messages: corpus JSONL records plus an integer 'label'.

    Duplicate ids and malformed lines raise with the offending line number.
    File order is preserved; shuffling is the cross-validator's job.
    """
    out: list[LabeledMessage] = []
    seen: dict[str, int] = {}
    for line_no, record in read_records(read_lines(path, ClassifierError), ClassifierError):
        if "label" not in record:
            raise ClassifierError(f"line {line_no}: missing field 'label'")
        label = record["label"]
        if type(label) is not int or label not in (0, 1):  # json_int's rule: not 1.0 or true
            raise ClassifierError(
                f"line {line_no}: label must be 0 or 1, got {label!r}"
            )
        try:
            msg = message_from_record(
                {k: v for k, v in record.items() if k != "label"}, line_no
            )
        except CorpusError as exc:
            raise ClassifierError(str(exc)) from None
        if msg.id in seen:
            raise ClassifierError(
                f"line {line_no}: duplicate message id {msg.id!r} "
                f"(first seen on line {seen[msg.id]})"
            )
        seen[msg.id] = line_no
        out.append(LabeledMessage(message=tokenize_message(msg), label=label))
    if not out:
        raise ClassifierError(f"labeled file {path}: no records")
    return out


@dataclass(frozen=True)
class ClassifierModel:
    """Trained weights over a fixed vocabulary.

    vocabulary maps token -> feature index in 1..V; index 0 is the bias.
    theta has length V + 1. trained_on fingerprints the training set so a
    model can be told apart from a retrain on different data.
    """

    vocabulary: dict[str, int]
    theta: tuple[float, ...]
    l2_lambda: float
    trained_on: str
    converged: bool

    def __post_init__(self) -> None:
        if len(self.theta) != len(self.vocabulary) + 1:
            raise ClassifierError(
                f"theta length {len(self.theta)} does not fit vocabulary size "
                f"{len(self.vocabulary)} plus bias"
            )
        indices = sorted(self.vocabulary.values())
        if indices != list(range(1, len(self.vocabulary) + 1)):
            raise ClassifierError("vocabulary indices must be exactly 1..V")
        _check_l2_lambda(self.l2_lambda)

    def to_json(self) -> str:
        doc = {
            "vocabulary": self.vocabulary,
            "theta": list(self.theta),
            "l2_lambda": self.l2_lambda,
            "trained_on": self.trained_on,
            "converged": self.converged,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ClassifierModel":
        doc = json_value(text, ClassifierError, "bad classifier document")
        try:
            fields = dict(
                vocabulary={str(k): json_int(v) for k, v in doc["vocabulary"].items()},
                theta=tuple(json_float(t) for t in doc["theta"]),
                l2_lambda=json_float(doc["l2_lambda"]),
                trained_on=json_str(doc["trained_on"]),
                converged=json_bool(doc["converged"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ClassifierError(f"bad classifier document: {exc}") from None
        return cls(**fields)

    @classmethod
    def load(cls, path: str | Path) -> "ClassifierModel":
        return cls.from_json(read_text(path, ClassifierError))


def build_vocabulary(messages: Iterable[TokenizedMessage]) -> dict[str, int]:
    """Alphabetical token -> index map of every token the messages hold
    (1-based; 0 is reserved for bias)."""
    tokens = sorted({tok for tm in messages for tok in tm.tokens})
    return {tok: i for i, tok in enumerate(tokens, start=1)}


def featurize(tm: TokenizedMessage, vocabulary: Mapping[str, int]) -> dict[int, int]:
    """Sparse count features: {index: count}, always including bias {0: 1}.
    Out-of-vocabulary tokens are dropped."""
    return {0: 1} | _token_counts(tm.tokens, vocabulary)


def _token_counts(tokens: Iterable[str], vocabulary: Mapping[str, int]) -> dict[int, int]:
    """{index: count} of the in-vocabulary tokens, in first-seen order."""
    counts: dict[int, int] = {}
    for tok in tokens:
        idx = vocabulary.get(tok)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    return counts


def _design_matrix(
    data: Sequence[LabeledMessage], vocabulary: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    X = np.zeros((len(data), len(vocabulary) + 1), dtype=np.float64)
    y = np.empty(len(data), dtype=np.float64)
    for i, lm in enumerate(data):
        for idx, count in featurize(lm.message, vocabulary).items():
            X[i, idx] = count
        y[i] = lm.label
    return X, y


def loss_and_grad(
    theta: np.ndarray, X: np.ndarray, y: np.ndarray, l2_lambda: float
) -> tuple[float, np.ndarray]:
    """Penalized negative log-likelihood and its gradient.

    loss = sum_i [log(1 + exp(z_i)) - y_i z_i] + (lambda/2) * ||theta[1:]||^2
    with z = X @ theta. The log term uses logaddexp, so huge |z| is safe.
    The bias weight is never penalized.
    """
    z = X @ theta
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
    # sigmoid(z), stably: tanh keeps intermediate values bounded.
    p = 0.5 * (1.0 + np.tanh(0.5 * z))
    grad = X.T @ (p - y)
    if l2_lambda > 0:
        loss += 0.5 * l2_lambda * float(theta[1:] @ theta[1:])
        grad[1:] += l2_lambda * theta[1:]
    return loss, grad


def _check_l2_lambda(l2_lambda: float) -> None:
    if not 0 <= l2_lambda < math.inf:
        raise ClassifierError(f"l2_lambda must be finite and >= 0, got {l2_lambda}")


def _fingerprint(data: Sequence[LabeledMessage]) -> str:
    lines = sorted(f"{lm.message.message.id}\t{lm.label}" for lm in data)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def train(
    data: Sequence[LabeledMessage],
    l2_lambda: float = 1.0,
    seed: int = 0,
    tol: float = 1e-7,
    max_iters: int = 1000,
) -> ClassifierModel:
    """Fit the classifier on labeled messages.

    Requires both classes present. The random initialization only picks the
    optimizer's starting point; the optimum itself is unique, so any two
    seeds land on the same weights up to the convergence tolerance. A run
    that exhausts its iteration budget is returned with converged=False and
    a logged warning, never silently.
    """
    _check_l2_lambda(l2_lambda)
    if not data:
        raise ClassifierError("no labeled messages")
    labels = {lm.label for lm in data}
    if labels != {0, 1}:
        raise ClassifierError(
            f"training data must contain both classes, got labels {sorted(labels)}"
        )
    vocabulary = build_vocabulary(lm.message for lm in data)
    X, y = _design_matrix(data, vocabulary)
    rng = np.random.default_rng(seed)
    theta0 = rng.normal(0.0, 0.1, size=len(vocabulary) + 1)
    result = minimize_lbfgs(
        lambda t: loss_and_grad(t, X, y, l2_lambda),
        theta0,
        tol=tol,
        max_iters=max_iters,
    )
    if not result.converged:
        log.warning(
            "classifier training did not converge (max|grad|=%.3e)", result.grad_max
        )
    return ClassifierModel(
        vocabulary=vocabulary,
        theta=tuple(float(t) for t in result.x),
        l2_lambda=l2_lambda,
        trained_on=_fingerprint(data),
        converged=result.converged,
    )


def predict_proba(model: ClassifierModel, tm: TokenizedMessage) -> float:
    """Probability in [0, 1] that the message is a genuine report."""
    return score_tokens(model, tm.tokens)


def score_tokens(model: ClassifierModel, tokens: Iterable[str]) -> float:
    """predict_proba of a message with these tokens."""
    theta = model.theta
    z = theta[0]
    for idx, count in _token_counts(tokens, model.vocabulary).items():
        z += theta[idx] * count
    return sigmoid(z)


def predict_label(model: ClassifierModel, tm: TokenizedMessage) -> int:
    """Hard decision at the fixed 0.5 threshold (strictly greater)."""
    return 1 if predict_proba(model, tm) > 0.5 else 0


# --- cross-validation --------------------------------------------------------


METRIC_NAMES = ("accuracy", "precision", "recall", "f1")

# Reference scores (percent, with standard errors) that cross-validation
# on a comparable labeled set is expected to land near.
REFERENCE_CV = {
    "accuracy": (84.29, 1.9),
    "f1": (90.2, 1.5),
    "precision": (92.8, 1.8),
    "recall": (88.1, 2.0),
}


@dataclass(frozen=True, slots=True)
class CvReport:
    """k-fold cross-validation metrics, all in percent."""

    k: int
    per_fold: dict[str, tuple[float, ...]]
    means: dict[str, float]
    standard_errors: dict[str, float]

    def to_json(self) -> str:
        doc = {
            "k": self.k,
            "metrics": {
                name: {
                    "mean": self.means[name],
                    "se": self.standard_errors[name],
                    "per_fold": list(self.per_fold[name]),
                }
                for name in METRIC_NAMES
            },
            "reference": {name: list(REFERENCE_CV[name]) for name in METRIC_NAMES},
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def table(self) -> str:
        lines = [
            f"{'metric':<10} {'mean %':>8} {'se':>6}   reference",
            "-" * 44,
        ]
        for name in METRIC_NAMES:
            ref_mean, ref_se = REFERENCE_CV[name]
            lines.append(
                f"{name:<10} {self.means[name]:>8.2f} {self.standard_errors[name]:>6.2f}"
                f"   {ref_mean:.2f} ({ref_se:.1f})"
            )
        return "\n".join(lines)


def _fold_metrics(tp: int, fp: int, tn: int, fn: int) -> dict[str, float]:
    total = tp + fp + tn + fn
    accuracy = 100.0 * (tp + tn) / total
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def cross_validate(
    data: Sequence[LabeledMessage],
    k: int = 10,
    seed: int = 0,
    l2_lambda: float = 1.0,
) -> CvReport:
    """Stratified k-fold CV with per-fold retraining.

    Both classes are shuffled separately (seeded) and dealt round-robin into
    k folds, so every fold holds both classes; that requires each class to
    have at least k members. The vocabulary is rebuilt from each fold's
    training portion alone, so test tokens never leak into training.
    """
    if k < 2:
        raise ClassifierError(f"k must be >= 2, got {k}")
    if len(data) < k:
        raise ClassifierError(f"{len(data)} labeled messages cannot fill {k} folds")
    pos = [lm for lm in data if lm.label == 1]
    neg = [lm for lm in data if lm.label == 0]
    if min(len(pos), len(neg)) < k:
        raise ClassifierError(
            f"stratified {k}-fold CV needs >= {k} of each class, got "
            f"{len(pos)} positive / {len(neg)} negative"
        )
    rng = np.random.default_rng(seed)
    rng.shuffle(pos)
    rng.shuffle(neg)
    folds: list[list[LabeledMessage]] = [[] for _ in range(k)]
    for i, lm in enumerate(pos):
        folds[i % k].append(lm)
    for i, lm in enumerate(neg):
        folds[i % k].append(lm)

    per_fold: dict[str, list[float]] = {name: [] for name in METRIC_NAMES}
    for f in range(k):
        test = folds[f]
        trainset = [lm for g in range(k) if g != f for lm in folds[g]]
        model = train(trainset, l2_lambda=l2_lambda, seed=seed + f + 1)
        tp = fp = tn = fn = 0
        for lm in test:
            pred = predict_label(model, lm.message)
            if pred == 1 and lm.label == 1:
                tp += 1
            elif pred == 1 and lm.label == 0:
                fp += 1
            elif pred == 0 and lm.label == 0:
                tn += 1
            else:
                fn += 1
        for name, value in _fold_metrics(tp, fp, tn, fn).items():
            per_fold[name].append(value)

    means = {name: float(np.mean(vals)) for name, vals in per_fold.items()}
    ses = {
        name: float(np.std(vals, ddof=1) / math.sqrt(k)) for name, vals in per_fold.items()
    }
    return CvReport(
        k=k,
        per_fold={name: tuple(vals) for name, vals in per_fold.items()},
        means=means,
        standard_errors=ses,
    )


# --- weekly fractions --------------------------------------------------------


# The three estimation methods, each a column of WeekScores.fractions.
METHODS = ("keywords", "classify-soft", "classify-hard")


@dataclass(frozen=True, slots=True)
class WeekScores:
    """One week as the classifier sees it: its message count, the messages
    that match the query, those the classifier keeps (probability above
    0.5) and the sum of their predict_proba (1.0 each for the keywords
    method). Its size does not grow with the week, and records of one week
    add up (+), as an injection adds to one."""

    week_index: int
    total: int
    matches: int
    kept: int
    soft: int  # the sum times 2**1074, exact: a float64 in [0, 1] is a multiple of 2**-1074

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ClassifierError(f"week {self.week_index}: empty bucket has no fraction")

    @classmethod
    def of(cls, week_index: int, total: int, probs: Iterable[float],
           counts: Iterable[int] | None = None) -> "WeekScores":
        """The record of total messages whose matches have probabilities
        probs, each counts[i] times (once when counts is None)."""
        matches = kept = soft = 0
        for p, c in zip(probs, itertools.repeat(1) if counts is None else counts):
            num, den = p.as_integer_ratio()  # den is a power of two, at most 2**1074
            matches += c
            kept += c * (p > 0.5)
            soft += c * num << (1075 - den.bit_length())
        return cls(week_index, total, matches, kept, soft)

    def __add__(self, other: "WeekScores") -> "WeekScores":
        if other.week_index != self.week_index:
            raise ClassifierError(f"cannot add week {other.week_index} to week {self.week_index}")
        return WeekScores(self.week_index, self.total + other.total, self.matches + other.matches,
                          self.kept + other.kept, self.soft + other.soft)

    def fractions(self) -> tuple[float, float, float]:
        """(plain, soft, hard): the matches, their summed probability and the
        kept matches, each over the whole week. The exact sum is rounded
        once, so soft equals math.fsum of the probabilities over n."""
        n = self.total
        return self.matches / n, (self.soft / (1 << 1074)) / n, self.kept / n


def week_scores(
    matched: np.ndarray, corpus: Corpus, model: ClassifierModel | None
) -> list[WeekScores]:
    """WeekScores of weeks 1..corpus.weeks for a query whose match_rows are
    matched. Each matching row is tokenized, scored and added to its week's
    record in turn. With no model every match keeps probability 1.0, which
    is the keywords method, and no row's tokens are read."""
    totals = corpus.week_totals
    empty = [w for w, total in enumerate(totals, start=1) if total == 0]
    if empty:
        raise ClassifierError(
            "cannot compute fractions over empty week bucket(s): " + ", ".join(map(str, empty))
        )
    counts = np.bincount(corpus.week[matched], minlength=corpus.weeks + 1)[1:].tolist()
    weeks = enumerate(zip(totals, counts), start=1)
    if model is None:
        return [WeekScores.of(w, total, [1.0], [c]) for w, (total, c) in weeks]
    # Weeks ascend in time order, so week w's rows follow week w - 1's.
    probs = (score_tokens(model, tokens) for tokens in corpus.tokens(np.flatnonzero(matched)))
    return [WeekScores.of(w, total, itertools.islice(probs, c)) for w, (total, c) in weeks]


def query_fraction_series(query: Query, buckets: Sequence[WeekBucket]) -> list[WeekScores]:
    """The keywords method's WeekScores of consecutive buckets, matching
    their messages one by one: the reference that week_scores with no model
    agrees with."""
    empty = [b.week_index for b in buckets if not b.messages]
    if empty:
        raise QueryError(
            "cannot compute fractions over empty week bucket(s): " + ", ".join(map(str, empty))
        )
    return [
        WeekScores.of(b.week_index, len(b.messages), [1.0], [count_matches(query, b)])
        for b in buckets
    ]


def bucket_fractions(
    query: Query, bucket: WeekBucket, model: ClassifierModel
) -> tuple[float, float, float]:
    """(plain, soft, hard) fractions of one bucket, matching and scoring its
    messages one by one: the reference that week_scores agrees with."""
    probs = (predict_proba(model, tm) for tm in bucket.messages if matches(query, tm))
    return WeekScores.of(bucket.week_index, len(bucket.messages), probs).fractions()


def method_series(scores: Sequence[WeekScores]) -> dict[str, WeeklySeries]:
    """Each method's weekly fractions, clamped off 0 and 1: the series its
    regression is fitted on and predicts from."""
    weeks = tuple(s.week_index for s in scores)
    columns = zip(*(s.fractions() for s in scores))
    return {
        name: WeeklySeries(weeks, tuple(clamp_fraction(f, s.total) for f, s in zip(column, scores)))
        for name, column in zip(METHODS, columns)
    }


def fractions_csv(scores: Sequence[WeekScores], end_dates: Iterable[date], method: str) -> str:
    """One method's weekly fractions as CSV, unclamped. Its matches column
    counts the matches, sums their probabilities (classify-soft) or counts
    the kept ones (classify-hard)."""
    i = METHODS.index(method)
    rows = ["week_index,end_date,matches,total,fraction"]
    for s, end in zip(scores, end_dates):
        fraction = s.fractions()[i]
        count = (s.matches, fraction * s.total, s.kept)[i]
        rows.append(f"{s.week_index},{end.isoformat()},{count!r},{s.total},{fraction!r}")
    return "\n".join(rows) + "\n"

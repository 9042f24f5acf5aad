"""Logit-logit linear regression linking query fractions to ILI rates.

The model is logit(p_w) = beta1 * logit(q_w) + beta2 fitted by ordinary
least squares on the logit-transformed pairs, where q_w is a weekly query
fraction and p_w the corresponding ILI proportion. Both sides live in (0, 1);
fractions touching 0 or 1 must be clamped before transforming.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import json_float, json_int, json_value, read_text


class RegressionError(ValueError):
    """Domain violations, misaligned series, or degenerate fits."""


class DegenerateFitError(RegressionError):
    """The predictor series is constant; the slope is unidentifiable."""


def logit(x: float) -> float:
    """ln(x / (1 - x)) for x strictly inside (0, 1)."""
    if not 0.0 < x < 1.0:
        raise RegressionError(f"logit domain is (0, 1), got {x}")
    return math.log(x / (1.0 - x))


def sigmoid(z: float) -> float:
    """Inverse of logit, computed without overflow for any float z."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def clamp_fraction(x: float, total: int) -> float:
    """Pull a fraction off the boundary using half-count continuity.

    Replaces x with min(max(x, 0.5/total), 1 - 0.5/total), i.e. a zero count
    behaves as half a match out of total. Interior values pass through.
    """
    if total < 1:
        raise RegressionError(f"total must be >= 1, got {total}")
    if not 0.0 <= x <= 1.0:
        raise RegressionError(f"fraction must be in [0, 1], got {x}")
    half = 0.5 / total
    return min(max(x, half), 1.0 - half)


@dataclass(frozen=True, slots=True)
class WeeklySeries:
    """A value per week, keyed by 1-based week index."""

    week_indices: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.week_indices) != len(self.values):
            raise RegressionError("week_indices and values must have equal length")
        if len(set(self.week_indices)) != len(self.week_indices):
            raise RegressionError("duplicate week indices in series")

    def value_at(self, week: int) -> float:
        try:
            return self.values[self.week_indices.index(week)]
        except ValueError:
            raise RegressionError(f"series has no week {week}") from None

    def restrict(self, weeks: Sequence[int]) -> "WeeklySeries":
        return WeeklySeries(
            week_indices=tuple(weeks),
            values=tuple(self.value_at(w) for w in weeks),
        )


@dataclass(frozen=True, slots=True)
class RegressionModel:
    """Fitted slope and intercept, plus the fit's provenance."""

    beta1: float
    beta2: float
    train_weeks: tuple[int, ...]
    eps_clamp: float = 1e-6

    def to_json(self) -> str:
        doc = {
            "beta1": self.beta1,
            "beta2": self.beta2,
            "train_weeks": list(self.train_weeks),
            "eps_clamp": self.eps_clamp,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RegressionModel":
        doc = json_value(text, RegressionError, "bad regression model document")
        try:
            return cls(
                beta1=json_float(doc["beta1"]),
                beta2=json_float(doc["beta2"]),
                train_weeks=tuple(json_int(w) for w in doc["train_weeks"]),
                eps_clamp=json_float(doc["eps_clamp"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegressionError(f"bad regression model document: {exc}") from None

    @classmethod
    def load(cls, path: str | Path) -> "RegressionModel":
        return cls.from_json(read_text(path, RegressionError))


def fit(fractions: WeeklySeries, ili: WeeklySeries, train_weeks: Sequence[int]) -> RegressionModel:
    """Least-squares fit of logit(ili) on logit(fraction) over train_weeks.

    Both series must cover every training week. Requires >= 3 weeks and a
    non-constant predictor; a constant one raises DegenerateFitError rather
    than returning an arbitrary slope.
    """
    weeks = list(train_weeks)
    if len(weeks) < 3:
        raise RegressionError(f"need at least 3 training weeks, got {len(weeks)}")
    if len(set(weeks)) != len(weeks):
        raise RegressionError("duplicate training weeks")
    xs = [logit(fractions.value_at(w)) for w in weeks]
    ys = [logit(ili.value_at(w)) for w in weeks]
    n = len(weeks)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateFitError(
            "predictor fractions are constant over the training weeks; "
            "slope is unidentifiable"
        )
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    beta1 = sxy / sxx
    beta2 = y_mean - beta1 * x_mean
    return RegressionModel(beta1=beta1, beta2=beta2, train_weeks=tuple(weeks))


def predict(model: RegressionModel, fraction: float) -> float:
    """Map one query fraction to an ILI proportion estimate in (0, 1)."""
    eps = model.eps_clamp
    q = min(max(fraction, eps), 1.0 - eps)
    return sigmoid(model.beta1 * logit(q) + model.beta2)


def predict_series(model: RegressionModel, fractions: WeeklySeries) -> WeeklySeries:
    return WeeklySeries(
        week_indices=fractions.week_indices,
        values=tuple(predict(model, q) for q in fractions.values),
    )


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation. Errors on length mismatch, n < 2, or a constant
    input, where the coefficient is undefined."""
    if len(a) != len(b):
        raise RegressionError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise RegressionError("need at least 2 points for a correlation")
    a_mean = math.fsum(a) / n
    b_mean = math.fsum(b) / n
    da = [x - a_mean for x in a]
    db = [y - b_mean for y in b]
    saa = math.fsum(x * x for x in da)
    sbb = math.fsum(y * y for y in db)
    if saa == 0.0 or sbb == 0.0:
        raise RegressionError("correlation undefined for a constant series")
    r = math.fsum(x * y for x, y in zip(da, db)) / math.sqrt(saa * sbb)
    # Rounding can push a perfect correlation an ulp past the mathematical
    # bound; clip so downstream code can rely on |r| <= 1.
    return max(-1.0, min(1.0, r))


def mse(a: Sequence[float], b: Sequence[float]) -> float:
    """Mean squared difference between two equal-length series."""
    if len(a) != len(b):
        raise RegressionError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise RegressionError("mse of empty series is undefined")
    return math.fsum((x - y) ** 2 for x, y in zip(a, b)) / len(a)

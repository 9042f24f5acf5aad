"""Acceptance suite: one end-to-end check per headline behavior.

Each test prints exactly one [PASS]/[FAIL] summary line (with capture
suspended, so the lines always reach the terminal) and then asserts.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import tmsg
from ilitrack.classify import (
    LabeledMessage,
    build_vocabulary,
    cross_validate,
    featurize,
    loss_and_grad,
    method_series,
    query_fraction_series,
    train,
)
from ilitrack.cli import main
from ilitrack.corpus import TokenizedMessage, bucket_weekly
from ilitrack.query import (
    GATE_QUERY,
    Query,
    QueryError,
    Term,
    matches,
    parse_query,
)
from ilitrack.regress import WeeklySeries, fit, logit, pearson, predict
from ilitrack.synth import SynthConfig, generate, generate_labeled

GATE_TEXT = GATE_QUERY.render()


@pytest.fixture
def check(capsys):
    def _check(name: str, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{status}] {name}: {detail}", flush=True)
        assert ok, f"{name}: {detail}"

    return _check


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


# --- 1. noiseless recovery of the planted regression ---------------------------


def test_noiseless_pipeline_recovers_planted_line(tmp_path, capsys, check):
    t0 = time.perf_counter()
    syn = tmp_path / "syn"
    assert main(["synth", "--seed", "0", "--weeks", "36",
                 "--messages-per-week", "10000", "--noise-sd", "0",
                 "--out", str(syn)]) == 0
    frac = tmp_path / "frac"
    assert main([
        "fraction", "--messages", str(syn / "messages.jsonl"),
        "--ili", str(syn / "ili.csv"), "--query", GATE_TEXT, "--seed", "0",
        "--out", str(frac),
    ]) == 0  # default split: fit on weeks 1..20, hold out 21..36
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    summary = json.loads((frac / "summary.json").read_text(encoding="utf-8"))
    config = json.loads((syn / "config.json").read_text(encoding="utf-8"))
    e1 = abs(summary["beta1"] - config["true_beta1"])
    e2 = abs(summary["beta2"] - config["true_beta2"])
    r = summary["pearson"]["eval_logit"]
    ok = e1 < 1e-6 and e2 < 1e-6 and r >= 0.9999 and elapsed < 10.0
    check(
        "noiseless coefficient recovery",
        ok,
        f"|b1 err|={e1:.2e} |b2 err|={e2:.2e} holdout r={r:.6f} "
        f"elapsed={elapsed:.1f}s (budget 10s)",
    )


# --- 2. held-out correlation across 100 noisy corpora --------------------------


def test_noisy_corpora_keep_holdout_correlation(check):
    t0 = time.perf_counter()
    train_weeks = range(1, 21)
    eval_weeks = range(21, 37)
    wins = 0
    worst = 1.0
    for seed in range(100):
        cfg = SynthConfig(seed=seed, messages_per_week=1000, noise_sd=0.05)
        messages, truth = generate(cfg)
        buckets = bucket_weekly(messages, cfg.first_week_end, cfg.weeks)
        fractions = method_series(query_fraction_series(GATE_QUERY, buckets))["keywords"]
        ili = WeeklySeries(truth.week_indices, truth.ili)
        model = fit(fractions, ili, train_weeks)
        r = pearson(
            [logit(ili.value_at(w)) for w in eval_weeks],
            [logit(predict(model, fractions.value_at(w))) for w in eval_weeks],
        )
        worst = min(worst, r)
        wins += r >= 0.95
    elapsed = time.perf_counter() - t0
    ok = wins >= 95 and elapsed < 300.0
    check(
        "noisy holdout correlation",
        ok,
        f"{wins}/100 seeded runs with holdout r>=0.95 (worst r={worst:.4f}) "
        f"elapsed={elapsed:.0f}s (budget 300s)",
    )


# --- 3. query semantics vs a brute-force evaluator ------------------------------


WORDS = ("flu", "cough", "fever", "sore", "throat", "shot", "news", "clinic",
         "happy", "bed", "sick", "vaccine")


def _contains(tokens: tuple[str, ...], phrase: tuple[str, ...]) -> bool:
    k = len(phrase)
    return any(tuple(tokens[i:i + k]) == phrase for i in range(len(tokens) - k + 1))


def _bruteforce(query: Query, tokens: tuple[str, ...]) -> bool:
    if not any(_contains(tokens, t.tokens) for t in query.base_terms):
        return False
    for group in query.required:
        if not any(_contains(tokens, t.tokens) for t in group):
            return False
    for group in query.excluded:
        if any(_contains(tokens, t.tokens) for t in group):
            return False
    return True


def test_query_matching_agrees_with_bruteforce_and_partitions(check):
    rng = np.random.default_rng(2024)

    def rand_term() -> Term:
        k = int(rng.integers(1, 4)) if rng.random() < 0.3 else 1
        return Term(tuple(WORDS[int(i)] for i in rng.integers(0, len(WORDS), size=k)))

    def rand_group() -> frozenset:
        return frozenset(rand_term() for _ in range(int(rng.integers(1, 3))))

    def rand_query() -> Query:
        while True:
            try:
                return Query(
                    base_terms=frozenset(
                        rand_term() for _ in range(int(rng.integers(1, 4)))
                    ),
                    required=frozenset(
                        rand_group() for _ in range(int(rng.integers(0, 3)))
                    ),
                    excluded=frozenset(
                        rand_group() for _ in range(int(rng.integers(0, 2)))
                    ),
                )
            except QueryError:
                continue  # a term landed in both sign sets; draw again

    def rand_tokens() -> tuple[str, ...]:
        n = int(rng.integers(0, 13))
        return tuple(WORDS[int(i)] for i in rng.integers(0, len(WORDS), size=n))

    disagreements = 0
    positives = 0
    corpus: list[TokenizedMessage] = []
    for i in range(1000):
        q = rand_query()
        tokens = rand_tokens()
        tm = TokenizedMessage(tmsg("x", id=f"r{i}").message, tokens)
        got = matches(q, tm)
        want = _bruteforce(q, tokens)
        disagreements += got != want
        positives += got
        corpus.append(tm)

    # Including or excluding a pivot term splits any corpus exactly in two.
    partition_ok = True
    for pivot in ("cough", "shot", "news"):
        base = sum(matches(parse_query("flu"), tm) for tm in corpus)
        plus = sum(matches(parse_query(f"flu +{pivot}"), tm) for tm in corpus)
        minus = sum(matches(parse_query(f"flu -{pivot}"), tm) for tm in corpus)
        partition_ok = partition_ok and base == plus + minus

    ok = disagreements == 0 and partition_ok and 0 < positives < 1000
    check(
        "query semantics oracle",
        ok,
        f"1000/1000 random (query, message) pairs agree with brute force "
        f"({positives} matched); include/exclude partition exact={partition_ok}",
    )


# --- 4. classifier training correctness -----------------------------------------


def _design(data):
    vocab = build_vocabulary(lm.message for lm in data)
    X = np.zeros((len(data), len(vocab) + 1))
    y = np.empty(len(data))
    for i, lm in enumerate(data):
        for idx, count in featurize(lm.message, vocab).items():
            X[i, idx] = count
        y[i] = lm.label
    return X, y


def test_classifier_gradient_optimum_and_separable_cv(check):
    # Analytic gradient against central finite differences.
    small = generate_labeled(SynthConfig(seed=3), 30, 20)
    X, y = _design(small)
    rng = np.random.default_rng(7)
    h = 1e-6
    max_rel = 0.0
    for _ in range(20):
        theta = rng.normal(0.0, 0.5, size=X.shape[1])
        _, grad = loss_and_grad(theta, X, y, 1.0)
        fd = np.empty_like(theta)
        for j in range(len(theta)):
            e = np.zeros_like(theta)
            e[j] = h
            fd[j] = (loss_and_grad(theta + e, X, y, 1.0)[0]
                     - loss_and_grad(theta - e, X, y, 1.0)[0]) / (2 * h)
        max_rel = max(max_rel, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0))))

    # Two random starts land on the same optimum of the strictly convex loss.
    data = generate_labeled(SynthConfig(seed=3), 160, 46)
    Xf, yf = _design(data)
    loss_a = loss_and_grad(np.array(train(data, seed=0).theta), Xf, yf, 1.0)[0]
    loss_b = loss_and_grad(np.array(train(data, seed=11).theta), Xf, yf, 1.0)[0]
    gap = abs(loss_a - loss_b)

    # Perfect 10-fold CV on a linearly separable labeled set (160 pos / 46 neg).
    separable = [
        LabeledMessage(tmsg(f"ugh sick with flu fever variant{i % 5}", id=f"p{i}"), 1)
        for i in range(160)
    ] + [
        LabeledMessage(tmsg(f"flu news wire update bulletin{i % 5}", id=f"n{i}"), 0)
        for i in range(46)
    ]
    report = cross_validate(separable, k=10, seed=0)
    acc_mean = report.means["accuracy"]
    acc_se = report.standard_errors["accuracy"]

    ok = max_rel < 1e-6 and gap < 1e-6 and acc_mean == 100.0 and acc_se == 0.0
    check(
        "classifier correctness",
        ok,
        f"max FD gradient rel err={max_rel:.2e}; two-init loss gap={gap:.2e}; "
        f"separable 10-fold CV accuracy={acc_mean:.1f}% se={acc_se:.1f}",
    )


# --- 5 and 6. spurious-injection robustness and saturation ----------------------


SCHEDULE = '{"pairs": [[32, 0], [33, 1000], [34, 5000], [35, 10000], [36, 100000]]}'


@pytest.fixture(scope="module")
def injection_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("inject")
    syn = root / "syn"
    sim = root / "sim"
    t0 = time.perf_counter()
    assert main(["synth", "--seed", "13", "--weeks", "36",
                 "--messages-per-week", "20000", "--out", str(syn)]) == 0
    assert main([
        "simulate", "--messages", str(syn / "messages.jsonl"),
        "--ili", str(syn / "ili.csv"), "--train", str(syn / "labeled.jsonl"),
        "--seed", "13", "--schedule", SCHEDULE, "--out", str(sim),
    ]) == 0
    elapsed = time.perf_counter() - t0
    summary = json.loads((sim / "simulation_summary.json").read_text(encoding="utf-8"))
    deviations: dict[str, dict[int, float]] = {}
    rows = (sim / "simulation.csv").read_text(encoding="utf-8").strip().split("\n")
    for row in rows[1:]:
        week, _injected, method, _est, _base, abs_err = row.split(",")
        deviations.setdefault(method, {})[int(week)] = float(abs_err)
    return {"summary": summary, "deviations": deviations, "elapsed": elapsed}


def test_filtered_estimates_resist_spurious_injection(injection_run, check):
    mse = injection_run["summary"]["mse"]
    elapsed = injection_run["elapsed"]
    ok = (
        mse["classify-hard"] < mse["classify-soft"] < mse["keywords"]
        and mse["classify-hard"] <= 0.5 * mse["keywords"]
        and elapsed < 120.0
    )
    check(
        "injection robustness",
        ok,
        f"MSE hard={mse['classify-hard']:.3g} < soft={mse['classify-soft']:.3g} "
        f"< keywords={mse['keywords']:.3g} pp^2, hard <= 0.5x keywords; "
        f"elapsed={elapsed:.0f}s (budget 120s)",
    )


def test_all_methods_saturate_at_extreme_injection(injection_run, check):
    dev = injection_run["deviations"]
    ratios = {m: dev[m][36] / dev[m][33] for m in dev}
    ok = len(ratios) == 3 and all(r > 10.0 for r in ratios.values())
    detail = ", ".join(
        f"{m} dev(100k)/dev(1k)={r:.1f}" for m, r in sorted(ratios.items())
    )
    check("injection saturation", ok, detail + " (all > 10 required)")


# --- 7. byte-identical reruns ----------------------------------------------------


def test_rerun_reproduces_every_command_byte_for_byte(tmp_path, capsys, check):
    syn = tmp_path / "syn"
    assert main(["synth", "--seed", "3", "--weeks", "6",
                 "--messages-per-week", "300", "--labeled-pos", "10",
                 "--labeled-neg", "6", "--out", str(syn)]) == 0
    firsts = {"synth": syn}

    clf = tmp_path / "clf"
    assert main(["classify", "--train", str(syn / "labeled.jsonl"),
                 "--folds", "5", "--seed", "0", "--out", str(clf)]) == 0
    firsts["classify"] = clf

    frac = tmp_path / "frac"
    assert main([
        "fraction", "--messages", str(syn / "messages.jsonl"),
        "--ili", str(syn / "ili.csv"), "--query", GATE_TEXT, "--seed", "0",
        "--train-weeks", "1:6", "--eval-weeks", "1:6", "--out", str(frac),
    ]) == 0
    firsts["fraction"] = frac

    sim = tmp_path / "sim"
    assert main([
        "simulate", "--messages", str(syn / "messages.jsonl"),
        "--ili", str(syn / "ili.csv"), "--train", str(syn / "labeled.jsonl"),
        "--seed", "5", "--train-weeks", "1:6",
        "--schedule", '{"pairs": [[6, 30]]}', "--out", str(sim),
    ]) == 0
    firsts["simulate"] = sim

    identical = {}
    for command, first in firsts.items():
        second = tmp_path / f"rerun_{command}"
        assert main(["rerun", "--run", str(first / "run.json"),
                     "--out", str(second)]) == 0
        identical[command] = read_tree(first) == read_tree(second)
    capsys.readouterr()

    ok = all(identical.values())
    detail = ", ".join(f"{c}={'ok' if v else 'DIFFERS'}" for c, v in identical.items())
    check("byte-identical reruns", ok, detail)

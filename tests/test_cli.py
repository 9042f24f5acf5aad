"""End-to-end CLI behavior on small corpora."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ilitrack
from ilitrack.cli import _write, main
from ilitrack.corpus import CorpusError, ingest, load_corpus
from ilitrack.query import parse_query

QUERY = 'flu cough headache "sore throat"'


def run_ok(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured


def run_fail(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    return captured


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One small synthetic corpus shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    syn = root / "syn"
    code = main([
        "synth", "--seed", "4", "--weeks", "6", "--messages-per-week", "250",
        "--labeled-pos", "20", "--labeled-neg", "10", "--out", str(syn),
    ])
    assert code == 0
    clf_dir = root / "clf"
    code = main([
        "classify", "--train", str(syn / "labeled.jsonl"), "--seed", "0",
        "--folds", "5", "--out", str(clf_dir),
    ])
    assert code == 0
    return {
        "root": root,
        "messages": syn / "messages.jsonl",
        "ili": syn / "ili.csv",
        "labeled": syn / "labeled.jsonl",
        "syn": syn,
        "classifier": clf_dir / "classifier.json",
        "clf_dir": clf_dir,
    }


def read_tree(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).iterdir()) if p.is_file()
    }


# --- synth ---------------------------------------------------------------------


def test_synth_outputs_and_determinism(tmp_path, capsys):
    args = ["synth", "--seed", "11", "--weeks", "4", "--messages-per-week", "120",
            "--labeled-pos", "6", "--labeled-neg", "4"]
    out1 = run_ok(capsys, args + ["--out", str(tmp_path / "a")])
    assert "480 messages over 4 weeks" in out1.out
    run_ok(capsys, args + ["--out", str(tmp_path / "b")])
    tree_a = read_tree(tmp_path / "a")
    tree_b = read_tree(tmp_path / "b")
    assert set(tree_a) == {
        "messages.jsonl", "ili.csv", "truth.json", "labeled.jsonl",
        "config.json", "run.json",
    }
    assert tree_a == tree_b  # byte-identical, run.json included


def test_synth_verbose_logs_generation_and_write_on_stderr_only(tmp_path):
    # A child process, as in the fraction -v test below.
    def synth(*flags, out):
        return subprocess.run(
            [sys.executable, "-m", "ilitrack.cli", *flags, "synth", "--seed", "3",
             "--weeks", "3", "--messages-per-week", "90", "--labeled-pos", "4",
             "--labeled-neg", "3", "--out", str(out)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(ilitrack.__file__).parents[1])},
        )

    quiet = synth(out=tmp_path / "quiet")
    verbose = synth("-v", out=tmp_path / "verbose")
    assert quiet.stderr == ""
    messages = tmp_path / "quiet" / "messages.jsonl"
    records = [json.loads(line) for line in messages.read_text(encoding="utf-8").splitlines()]
    generated, written = verbose.stderr.splitlines()
    assert generated == (
        f"INFO ilitrack.synth: generate_corpus: 270 rows, "
        f"{len({r['text'] for r in records})} distinct texts, "
        f"{len({r['author'] for r in records})} distinct authors"
    )
    assert re.fullmatch(
        rf"INFO \S+: synth: {messages.stat().st_size} bytes written to messages\.jsonl; "
        r"generate_corpus [0-9.]+ s, generate_labeled [0-9.]+ s, messages\.jsonl [0-9.]+ s, "
        r"other files [0-9.]+ s",
        written,
    ), written
    assert read_tree(tmp_path / "verbose") == read_tree(tmp_path / "quiet")


def test_synth_seed_changes_corpus(tmp_path, capsys):
    base = ["synth", "--weeks", "3", "--messages-per-week", "100",
            "--labeled-pos", "4", "--labeled-neg", "3"]
    run_ok(capsys, base + ["--seed", "1", "--out", str(tmp_path / "s1")])
    run_ok(capsys, base + ["--seed", "2", "--out", str(tmp_path / "s2")])
    a = (tmp_path / "s1" / "messages.jsonl").read_bytes()
    b = (tmp_path / "s2" / "messages.jsonl").read_bytes()
    assert a != b


def test_synth_config_file_with_seed_override(tmp_path, capsys):
    from ilitrack.synth import SynthConfig, default_ili_curve

    cfg = SynthConfig(seed=999, weeks=3, messages_per_week=80,
                      ili_curve=default_ili_curve(3))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    out = tmp_path / "out"
    run_ok(capsys, ["synth", "--seed", "7", "--config", str(cfg_path),
                    "--labeled-pos", "4", "--labeled-neg", "3", "--out", str(out)])
    written = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert written["seed"] == 7  # --seed wins over the file
    assert written["weeks"] == 3
    assert written["messages_per_week"] == 80


def test_synth_run_json_never_names_out(tmp_path, capsys):
    out = tmp_path / "o"
    run_ok(capsys, ["synth", "--seed", "3", "--weeks", "3",
                    "--messages-per-week", "90", "--labeled-pos", "4",
                    "--labeled-neg", "3", "--out", str(out)])
    doc = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert doc["command"] == "synth"
    assert "--out" not in doc["argv"]
    assert str(out) not in " ".join(doc["argv"])


# --- fraction -------------------------------------------------------------------


def test_fraction_plain(work, tmp_path, capsys):
    out = tmp_path / "frac"
    captured = run_ok(capsys, [
        "fraction", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--query", QUERY, "--mode", "plain", "--seed", "0",
        "--train-weeks", "1:4", "--eval-weeks", "5:6", "--out", str(out),
    ])
    assert "beta1=" in captured.out
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["degenerate"] is False
    assert summary["mode"] == "plain"
    assert summary["train_weeks"] == [1, 2, 3, 4]
    assert summary["eval_weeks"] == [5, 6]
    assert -1.0 <= summary["pearson"]["eval_logit"] <= 1.0
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    assert set(model) == {"beta1", "beta2", "train_weeks", "eps_clamp"}

    frac_lines = (out / "fractions.csv").read_text(encoding="utf-8").strip().split("\n")
    assert frac_lines[0] == "week_index,end_date,matches,total,fraction"
    assert len(frac_lines) == 1 + 6
    week1 = frac_lines[1].split(",")
    assert week1[0] == "1" and week1[3] == "250"
    assert float(week1[4]) == int(week1[2]) / 250

    est_lines = (out / "estimates.csv").read_text(encoding="utf-8").strip().split("\n")
    assert est_lines[0] == "week,true_ili,estimate"
    assert len(est_lines) == 1 + 6 + 1
    assert est_lines[-1].startswith("# eval_pearson_logit=")


def test_importing_the_cli_imports_no_process_machinery():
    # load_corpus imports multiprocessing only when it forks; importing it
    # with the CLI would add about 16 ms to every command's start-up.
    probe = ("import sys, ilitrack.cli; print(sorted(m for m in sys.modules "
             "if m.startswith(('multiprocessing', 'concurrent'))))")
    found = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(ilitrack.__file__).parents[1])},
    )
    assert found.stdout == "[]\n"


def test_fraction_verbose_logs_load_and_match_on_stderr_only(work, tmp_path):
    # A child process: logging.basicConfig does nothing under pytest's own
    # log handlers, so only a fresh interpreter shows what -v prints.
    def fraction(*flags, out):
        return subprocess.run(
            [sys.executable, "-m", "ilitrack.cli", *flags, "fraction",
             "--messages", str(work["messages"]), "--ili", str(work["ili"]),
             "--query", QUERY, "--seed", "0", "--train-weeks", "1:4",
             "--eval-weeks", "5:6", "--out", str(out)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(ilitrack.__file__).parents[1])},
        )

    quiet = fraction(out=tmp_path / "quiet")
    verbose = fraction("-v", out=tmp_path / "verbose")
    assert quiet.stderr == ""
    loaded = re.search(
        r"^INFO ilitrack\.corpus: load_corpus \S+: 1500 rows read by 1 process\(es\), 1500 in "
        r"weeks 1\.\.6, (\d+) kept for 4 phrase\(s\), holding \d+ normalized, \d+ "
        r"author and \d+ id bytes, [0-9.]+ s$",
        verbose.stderr, re.MULTILINE,
    )
    assert loaded, verbose.stderr
    matched = sum(
        int(line.split(",")[2])
        for line in (tmp_path / "quiet" / "fractions.csv").read_text().splitlines()[1:]
    )
    # The query has no + or - group, so the rows kept for its four bare
    # terms are the rows it matches.
    assert int(loaded[1]) == matched
    found = re.search(
        r"^INFO ilitrack\.query: match_rows (.*): (\d+) matching rows, [0-9.]+ s$",
        verbose.stderr, re.MULTILINE,
    )
    assert found, verbose.stderr
    assert found[1] == parse_query(QUERY).render()
    assert int(found[2]) == matched > 0
    assert read_tree(tmp_path / "verbose") == read_tree(tmp_path / "quiet")


def test_fraction_noiseless_corpus_fits_truth(work, tmp_path, capsys):
    # The synthetic corpus is generated with zero noise, so the regression
    # on plain fractions recovers the planted line to float precision.
    out = tmp_path / "frac"
    run_ok(capsys, [
        "fraction", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--query", QUERY, "--seed", "0",
        "--train-weeks", "1:6", "--eval-weeks", "1:6", "--out", str(out),
    ])
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    config = json.loads((work["syn"] / "config.json").read_text(encoding="utf-8"))
    assert summary["beta1"] == pytest.approx(config["true_beta1"], abs=1e-9)
    assert summary["beta2"] == pytest.approx(config["true_beta2"], abs=1e-9)
    assert summary["pearson"]["eval_logit"] == pytest.approx(1.0, abs=1e-9)


def test_fraction_soft_and_hard_modes(work, tmp_path, capsys):
    for mode in ("soft", "hard"):
        out = tmp_path / mode
        run_ok(capsys, [
            "fraction", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
            "--query", QUERY, "--mode", mode, "--seed", "0",
            "--classifier", str(work["classifier"]),
            "--train-weeks", "1:4", "--eval-weeks", "5:6", "--out", str(out),
        ])
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["mode"] == mode
        lines = (out / "fractions.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 7
        if mode == "hard":
            # hard match counts are integers
            assert all(line.split(",")[2].isdigit() for line in lines[1:])


def test_fraction_soft_requires_classifier(work, tmp_path, capsys):
    captured = run_fail(capsys, [
        "fraction", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--query", QUERY, "--mode", "soft", "--seed", "0",
        "--train-weeks", "1:4", "--eval-weeks", "5:6",
        "--out", str(tmp_path / "x"),
    ])
    assert "requires --classifier" in captured.err


def test_fraction_degenerate_fit_exits_1_with_flagged_summary(tmp_path, capsys):
    # Hand-built corpus with the same match count every week: the predictor
    # is constant, the slope unidentifiable.
    msgs = []
    k = 0
    for day, end in (("2009-09-01", "2009-09-05"), ("2009-09-08", "2009-09-12"),
                     ("2009-09-15", "2009-09-19"), ("2009-09-22", "2009-09-26")):
        for i in range(2):
            msgs.append({"id": f"m{k}", "timestamp": f"{day}T10:0{i}:00Z",
                         "author": "u", "text": "i have the flu"})
            k += 1
        for i in range(8):
            msgs.append({"id": f"m{k}", "timestamp": f"{day}T11:0{i}:00Z",
                         "author": "u", "text": "all fine here"})
            k += 1
    mp = tmp_path / "messages.jsonl"
    mp.write_text("".join(json.dumps(m) + "\n" for m in msgs), encoding="utf-8")
    ip = tmp_path / "ili.csv"
    ip.write_text(
        "week_ending,ili_pct\n2009-09-05,1.0\n2009-09-12,2.0\n"
        "2009-09-19,3.0\n2009-09-26,2.5\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    captured = run_fail(capsys, [
        "fraction", "--messages", str(mp), "--ili", str(ip), "--query", "flu",
        "--seed", "0", "--train-weeks", "1:4", "--eval-weeks", "1:4",
        "--out", str(out),
    ])
    assert "constant" in captured.err
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["degenerate"] is True
    assert (out / "fractions.csv").exists()  # diagnostics survive the failure
    assert not (out / "model.json").exists()
    assert not (out / "estimates.csv").exists()


def test_fraction_with_a_query_no_message_holds_counts_every_message(work, tmp_path, capsys):
    # The corpus read for "zzzz" keeps no row, but its weeks are not empty:
    # the fractions are 0 over each week's total, and the fit, not the
    # load, fails.
    out = tmp_path / "out"
    captured = run_fail(capsys, [
        "fraction", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--query", "zzzz", "--seed", "0", "--train-weeks", "1:4", "--eval-weeks", "5:6",
        "--out", str(out),
    ])
    error = "predictor fractions are constant over the training weeks; slope is unidentifiable"
    assert captured.err == f"error: {error}\n"
    ends = [line.split(",")[0] for line in work["ili"].read_text().splitlines()[1:]]
    assert (out / "fractions.csv").read_text() == "week_index,end_date,matches,total,fraction\n" \
        + "".join(f"{w},{end},0,250,0.0\n" for w, end in enumerate(ends, start=1))
    assert json.loads((out / "summary.json").read_text()) == {
        "degenerate": True, "error": error, "mode": "plain", "query": "zzzz",
        "train_weeks": [1, 2, 3, 4], "eval_weeks": [5, 6],
    }


def test_fraction_week_range_validation(work, tmp_path, capsys):
    base = ["fraction", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
            "--query", QUERY, "--seed", "0", "--out", str(tmp_path / "x")]
    captured = run_fail(capsys, base + ["--train-weeks", "4", "--eval-weeks", "5:6"])
    assert "A:B" in captured.err
    captured = run_fail(capsys, base + ["--train-weeks", "3:2", "--eval-weeks", "5:6"])
    assert "1 <= A <= B" in captured.err
    captured = run_fail(capsys, base + ["--train-weeks", "1:9", "--eval-weeks", "5:6"])
    assert "6 weeks" in captured.err
    # 6-week series: the default 21:last evaluation range cannot apply.
    captured = run_fail(capsys, base + ["--train-weeks", "1:4"])
    assert "--eval-weeks" in captured.err


@pytest.mark.parametrize("command, flag, weeks, least", [
    ("fraction", "--train-weeks", "1:1", 3),
    ("fraction", "--train-weeks", "2:3", 3),
    ("fraction", "--eval-weeks", "6:6", 2),
    ("simulate", "--train-weeks", "1:2", 3),
])
def test_too_short_week_ranges_are_rejected_before_any_output(
    work, tmp_path, capsys, command, flag, weeks, least
):
    out = tmp_path / "x"
    out.mkdir()
    data = ["--messages", str(work["messages"]), "--ili", str(work["ili"]), "--seed", "0"]
    if command == "fraction":
        argv = [command, *data, "--query", QUERY, "--train-weeks", "1:4", "--eval-weeks", "5:6"]
    else:
        argv = [command, *data, "--train", str(work["labeled"])]
    # The last value given for a flag is the one argparse keeps.
    captured = run_fail(capsys, [*argv, flag, weeks, "--out", str(out)])
    assert captured.err == f"error: {flag}: need at least {least} weeks, got {weeks!r}\n"
    assert list(out.iterdir()) == []


def test_fraction_missing_file_is_one_error_line(work, tmp_path, capsys):
    captured = run_fail(capsys, [
        "fraction", "--messages", str(tmp_path / "nope.jsonl"),
        "--ili", str(work["ili"]), "--query", QUERY, "--seed", "0",
        "--train-weeks", "1:4", "--eval-weeks", "5:6", "--out", str(tmp_path / "x"),
    ])
    assert captured.err.count("error:") == 1


def test_fraction_rejects_disjoint_corpus(tmp_path, capsys):
    mp = tmp_path / "m.jsonl"
    mp.write_text(json.dumps({
        "id": "a", "timestamp": "2015-01-05T00:00:00Z", "author": "u", "text": "flu",
    }) + "\n", encoding="utf-8")
    ip = tmp_path / "ili.csv"
    ip.write_text("week_ending,ili_pct\n2009-09-05,1.0\n2009-09-12,1.5\n"
                  "2009-09-19,2.0\n2009-09-26,2.2\n", encoding="utf-8")
    captured = run_fail(capsys, [
        "fraction", "--messages", str(mp), "--ili", str(ip), "--query", "flu",
        "--seed", "0", "--train-weeks", "1:4", "--eval-weeks", "1:4",
        "--out", str(tmp_path / "x"),
    ])
    assert "does not overlap" in captured.err


ILI_4_WEEKS = "week_ending,ili_pct\n2009-09-05,1.0\n2009-09-12,1.5\n2009-09-19,2.0\n2009-09-26,2.2\n"


def corpus_lines(days):
    """One gate-matching message on each given day of September 2009."""
    return [
        json.dumps({"id": f"m{d}", "timestamp": f"2009-09-{d:02d}T12:00:00Z",
                    "author": "u", "text": "flu"})
        for d in days
    ]


FOUR_WEEKS = corpus_lines([1, 8, 9, 15, 22, 23])

# Each bad line follows a good one, so the error must name line 2.
BAD_LINES = {
    "invalid json": "{broken",
    "not an object": '["a"]',
    "missing field": '{"id": "x", "timestamp": "2009-09-01T00:00:00Z", "author": "u"}',
    "non-string field": '{"id": "x", "timestamp": "2009-09-01T00:00:00Z", "author": "u", "text": 5}',
    "timestamp layout": '{"id": "x", "timestamp": "2009-09-01T00:00", "author": "u", "text": "a"}',
    "impossible date": '{"id": "x", "timestamp": "2009-02-30T00:00:00Z", "author": "u", "text": "a"}',
    "text over 1000": json.dumps({"id": "x", "timestamp": "2009-09-01T00:00:00Z",
                                  "author": "u", "text": "flu " * 251}),
    "duplicate id": FOUR_WEEKS[0],
    "duplicate id outside the weeks": FOUR_WEEKS[0].replace("2009-09-01", "2008-09-01"),
}


@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_fraction_rejects_bad_corpus_lines_with_ingest_error(tmp_path, capsys, bad):
    mp = tmp_path / "m.jsonl"
    mp.write_text("\n".join([FOUR_WEEKS[0], bad, *FOUR_WEEKS[1:]]) + "\n", encoding="utf-8")
    ip = tmp_path / "ili.csv"
    ip.write_text(ILI_4_WEEKS, encoding="utf-8")
    with pytest.raises(CorpusError) as reference:
        ingest(mp, (date(2009, 8, 30), date(2009, 9, 26)))
    captured = run_fail(capsys, [
        "fraction", "--messages", str(mp), "--ili", str(ip), "--query", "flu",
        "--seed", "0", "--train-weeks", "1:4", "--eval-weeks", "1:4",
        "--out", str(tmp_path / "x"),
    ])
    assert "line 2" in str(reference.value)
    assert captured.err == f"error: {reference.value}\n"


def test_fraction_rejects_an_empty_week(work, tmp_path, capsys):
    mp = tmp_path / "m.jsonl"
    mp.write_text("\n".join(corpus_lines([1, 15])) + "\n", encoding="utf-8")
    ip = tmp_path / "ili.csv"
    ip.write_text(ILI_4_WEEKS, encoding="utf-8")
    data = ["--messages", str(mp), "--ili", str(ip), "--seed", "0", "--train-weeks", "1:4"]
    # Every mode, and simulate, names every empty week before it writes anything.
    for argv in (
        ["fraction", *data, "--query", "flu", "--eval-weeks", "1:4"],
        ["fraction", *data, "--query", "flu", "--eval-weeks", "1:4", "--mode", "soft",
         "--classifier", str(work["classifier"])],
        ["fraction", *data, "--query", "flu", "--eval-weeks", "1:4", "--mode", "hard",
         "--classifier", str(work["classifier"])],
        ["simulate", *data, "--classifier", str(work["classifier"])],
        ["simulate", *data, "--train", str(work["labeled"])],
    ):
        captured = run_fail(capsys, [*argv, "--out", str(tmp_path / "x")])
        assert captured.err == (
            "error: cannot compute fractions over empty week bucket(s): 2, 4\n"
        ), argv
        assert not (tmp_path / "x").exists()


# --- classify -------------------------------------------------------------------


def test_classify_outputs(work, capsys, tmp_path):
    out = tmp_path / "clf"
    captured = run_ok(capsys, [
        "classify", "--train", str(work["labeled"]), "--seed", "0",
        "--folds", "5", "--out", str(out),
    ])
    assert "trained on 30 labeled messages (20 positive)" in captured.out
    assert "accuracy" in captured.out
    report = json.loads((out / "cv_report.json").read_text(encoding="utf-8"))
    assert report["k"] == 5
    assert set(report["metrics"]) == {"accuracy", "precision", "recall", "f1"}
    assert len(report["metrics"]["f1"]["per_fold"]) == 5
    model = json.loads((out / "classifier.json").read_text(encoding="utf-8"))
    assert model["converged"] is True
    assert len(model["theta"]) == len(model["vocabulary"]) + 1


def test_classify_too_few_per_class(work, tmp_path, capsys):
    captured = run_fail(capsys, [
        "classify", "--train", str(work["labeled"]), "--seed", "0",
        "--folds", "15", "--out", str(tmp_path / "x"),
    ])
    assert "of each class" in captured.err


@pytest.mark.parametrize("command, flag, complaint", [
    ("synth", "--noise-sd", "noise_sd must be finite"),
    ("classify", "--lambda", "l2_lambda must be finite"),
    ("simulate", "--lambda", "l2_lambda must be finite"),
], ids=["synth", "classify", "simulate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_flags_are_one_error_line(work, tmp_path, capsys, command, flag, complaint,
                                             value):
    # NaN would also be written to config.json or classifier.json, which no
    # JSON reader accepts.
    argv = {
        "synth": ["synth", "--seed", "1", "--weeks", "3", "--messages-per-week", "20"],
        "classify": ["classify", "--train", str(work["labeled"]), "--seed", "0", "--folds", "5"],
        "simulate": ["simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
                     "--train", str(work["labeled"]), "--seed", "1", "--train-weeks", "1:6"],
    }[command]
    captured = run_fail(capsys, argv + [flag, value, "--out", str(tmp_path / "out")])
    assert captured.err.count("\n") == 1 and complaint in captured.err, captured.err


# --- simulate --------------------------------------------------------------------


def test_simulate_with_training(work, tmp_path, capsys):
    out = tmp_path / "sim"
    captured = run_ok(capsys, [
        "simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--train", str(work["labeled"]), "--seed", "5",
        "--train-weeks", "1:6",
        "--schedule", '{"pairs": [[5, 0], [6, 40]]}',
        "--out", str(out),
    ])
    for name in ("keywords", "classify-soft", "classify-hard"):
        assert f"{name:<14} mse=" in captured.out
    rows = (out / "simulation.csv").read_text(encoding="utf-8").strip().split("\n")
    assert rows[0] == "week,injected,method,estimate,baseline,abs_error"
    assert len(rows) == 1 + 2 * 3
    doc = json.loads((out / "simulation_summary.json").read_text(encoding="utf-8"))
    assert doc["weeks"] == [5, 6]
    assert doc["injected_counts"] == [0, 40]
    assert doc["mse"]["keywords"] >= 0.0
    assert doc["pool_size"] > 0
    assert doc["seed"] == 5


def test_simulate_with_pretrained_classifier(work, tmp_path, capsys):
    out = tmp_path / "sim2"
    run_ok(capsys, [
        "simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--classifier", str(work["classifier"]), "--seed", "5",
        "--train-weeks", "1:6",
        "--schedule", '{"pairs": [[6, 25]]}',
        "--out", str(out),
    ])
    doc = json.loads((out / "simulation_summary.json").read_text(encoding="utf-8"))
    assert doc["weeks"] == [6]


def test_simulate_classifier_xor_train(work, tmp_path, capsys):
    base = ["simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
            "--seed", "0", "--out", str(tmp_path / "x")]
    captured = run_fail(capsys, base)
    assert "exactly one of" in captured.err
    captured = run_fail(capsys, base + [
        "--classifier", str(work["classifier"]), "--train", str(work["labeled"]),
    ])
    assert "exactly one of" in captured.err


def test_simulate_schedule_from_file_and_bad_inline(work, tmp_path, capsys):
    sched_path = tmp_path / "schedule.json"
    sched_path.write_text('{"pairs": [[6, 10]]}\n', encoding="utf-8")
    out = tmp_path / "sim3"
    run_ok(capsys, [
        "simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--train", str(work["labeled"]), "--seed", "1", "--train-weeks", "1:6",
        "--schedule", str(sched_path), "--out", str(out),
    ])
    doc = json.loads((out / "simulation_summary.json").read_text(encoding="utf-8"))
    assert doc["injected_counts"] == [10]

    captured = run_fail(capsys, [
        "simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--train", str(work["labeled"]), "--seed", "1", "--train-weeks", "1:6",
        "--schedule", "not json at all", "--out", str(tmp_path / "x"),
    ])
    assert "neither a file nor inline JSON" in captured.err


def test_simulate_long_inline_schedule_and_its_rerun(tmp_path, capsys):
    # Over 255 bytes, the argument is no name the file system can look up.
    syn = tmp_path / "syn"
    run_ok(capsys, ["synth", "--seed", "3", "--weeks", "36", "--messages-per-week", "100",
                    "--labeled-pos", "20", "--labeled-neg", "10", "--out", str(syn)])
    schedule = json.dumps({"pairs": [[w, 10] for w in range(1, 37)]})
    assert len(schedule.encode("utf-8")) > 255
    a = tmp_path / "a"
    run_ok(capsys, [
        "simulate", "--messages", str(syn / "messages.jsonl"), "--ili", str(syn / "ili.csv"),
        "--train", str(syn / "labeled.jsonl"), "--seed", "2", "--schedule", schedule,
        "--out", str(a),
    ])
    doc = json.loads((a / "simulation_summary.json").read_text(encoding="utf-8"))
    assert doc["weeks"] == list(range(1, 37))
    b = tmp_path / "b"
    run_ok(capsys, ["rerun", "--run", str(a / "run.json"), "--out", str(b)])
    assert read_tree(a) == read_tree(b)


def test_simulate_schedule_week_outside_corpus(work, tmp_path, capsys):
    captured = run_fail(capsys, [
        "simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--train", str(work["labeled"]), "--seed", "1", "--train-weeks", "1:6",
        "--schedule", '{"pairs": [[40, 10]]}', "--out", str(tmp_path / "x"),
    ])
    assert "not present" in captured.err


def test_simulate_count_past_numpys_largest_array_is_one_error_line(work, tmp_path, capsys):
    # numpy refuses 10**30 draws before it allocates anything; never try a
    # count it would really allocate.
    count = 10**30
    captured = run_fail(capsys, [
        "simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--classifier", str(work["classifier"]), "--seed", "1", "--train-weeks", "1:6",
        "--schedule", f'{{"pairs": [[6, {count}]]}}', "--out", str(tmp_path / "x"),
    ])
    assert captured.err == f"error: week 6: cannot draw {count} injected messages\n"


# --- rerun ----------------------------------------------------------------------


def test_rerun_synth_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    run_ok(capsys, ["synth", "--seed", "21", "--weeks", "3",
                    "--messages-per-week", "60", "--labeled-pos", "4",
                    "--labeled-neg", "3", "--out", str(a)])
    b = tmp_path / "b"
    run_ok(capsys, ["rerun", "--run", str(a / "run.json"), "--out", str(b)])
    assert read_tree(a) == read_tree(b)


def test_rerun_fraction_byte_identical(work, tmp_path, capsys):
    a = tmp_path / "a"
    run_ok(capsys, [
        "fraction", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--query", QUERY, "--seed", "0", "--train-weeks", "1:4",
        "--eval-weeks", "5:6", "--out", str(a),
    ])
    b = tmp_path / "b"
    run_ok(capsys, ["rerun", "--run", str(a / "run.json"), "--out", str(b)])
    assert read_tree(a) == read_tree(b)


def test_rerun_simulate_byte_identical(work, tmp_path, capsys):
    a = tmp_path / "a"
    run_ok(capsys, [
        "simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
        "--train", str(work["labeled"]), "--seed", "9", "--train-weeks", "1:6",
        "--schedule", '{"pairs": [[6, 30]]}', "--out", str(a),
    ])
    b = tmp_path / "b"
    run_ok(capsys, ["rerun", "--run", str(a / "run.json"), "--out", str(b)])
    assert read_tree(a) == read_tree(b)


# Each case: a command, the flags it is given (in no particular order) and
# the argv its run.json must record, with the files of `work` and the
# test's own config and schedule files filled in. run.json holds the flags
# in the order the subcommand declares them, without --out, without an
# unset flag or an empty optional one, and with floats written by repr.
RECORDED_ARGV = {
    "synth config": (
        "synth",
        ["--labeled-neg", "3", "--config", "{config}", "--seed", "3", "--labeled-pos", "4"],
        ["--seed", "3", "--config", "{config}", "--labeled-pos", "4", "--labeled-neg", "3"],
    ),
    "synth noise-sd 0": (
        "synth",
        ["--noise-sd", "0", "--seed", "2", "--weeks", "3", "--messages-per-week", "60",
         "--labeled-pos", "4", "--labeled-neg", "3"],
        ["--seed", "2", "--weeks", "3", "--messages-per-week", "60", "--noise-sd", "0.0",
         "--labeled-pos", "4", "--labeled-neg", "3"],
    ),
    "fraction plain with a classifier": (
        "fraction",
        ["--classifier", "{classifier}", "--seed", "0", "--mode", "plain",
         "--eval-weeks", "5:6", "--train-weeks", "1:4", "--query", "flu",
         "--ili", "{ili}", "--messages", "{messages}"],
        ["--messages", "{messages}", "--ili", "{ili}", "--query", "flu", "--mode", "plain",
         "--seed", "0", "--train-weeks", "1:4", "--eval-weeks", "5:6",
         "--classifier", "{classifier}"],
    ),
    "fraction empty flags and a negative seed": (
        "fraction",
        ["--messages", "{messages}", "--ili", "{ili}", "--query", QUERY, "--seed", "-3",
         "--train-weeks", "", "--classifier", "", "--eval-weeks", "5:6"],
        ["--messages", "{messages}", "--ili", "{ili}", "--query", QUERY, "--mode", "plain",
         "--seed", "-3", "--eval-weeks", "5:6"],
    ),
    "fraction soft": (
        "fraction",
        ["--mode", "soft", "--classifier", "{classifier}", "--messages", "{messages}",
         "--ili", "{ili}", "--query", QUERY, "--seed", "1", "--train-weeks", "1:4",
         "--eval-weeks", "5:6"],
        ["--messages", "{messages}", "--ili", "{ili}", "--query", QUERY, "--mode", "soft",
         "--seed", "1", "--train-weeks", "1:4", "--eval-weeks", "5:6",
         "--classifier", "{classifier}"],
    ),
    "classify lambda": (
        "classify",
        ["--lambda", "0.5", "--seed", "1", "--folds", "3", "--train", "{labeled}"],
        ["--train", "{labeled}", "--folds", "3", "--lambda", "0.5", "--seed", "1"],
    ),
    "simulate schedule file and empty flags": (
        "simulate",
        ["--schedule", "{schedule}", "--train", "{labeled}", "--classifier", "",
         "--train-weeks", "", "--lambda", "2", "--seed", "4", "--messages", "{messages}",
         "--ili", "{ili}"],
        ["--messages", "{messages}", "--ili", "{ili}", "--query", ilitrack.GATE_QUERY_TEXT,
         "--seed", "4", "--lambda", "2.0", "--schedule", "{schedule}", "--train", "{labeled}"],
    ),
    "simulate classifier": (
        "simulate",
        ["--classifier", "{classifier}", "--query", "flu", "--seed", "0",
         "--schedule", '{{"pairs": [[6, 30]]}}', "--train-weeks", "1:5",
         "--messages", "{messages}", "--ili", "{ili}"],
        ["--messages", "{messages}", "--ili", "{ili}", "--query", "flu", "--seed", "0",
         "--lambda", "1.0", "--train-weeks", "1:5", "--schedule", '{{"pairs": [[6, 30]]}}',
         "--classifier", "{classifier}"],
    ),
}


@pytest.mark.parametrize("case", RECORDED_ARGV)
def test_run_json_records_the_declared_flags_and_replays(work, tmp_path, capsys, case):
    from ilitrack.synth import SynthConfig, default_ili_curve

    files = {name: str(work[name]) for name in ("messages", "ili", "labeled", "classifier")}
    files["config"] = str(tmp_path / "config.json")
    files["schedule"] = str(tmp_path / "schedule.json")
    (tmp_path / "config.json").write_text(
        SynthConfig(seed=999, weeks=3, messages_per_week=60,
                    ili_curve=default_ili_curve(3)).to_json(),
        encoding="utf-8",
    )
    (tmp_path / "schedule.json").write_text('{"pairs": [[5, 20]]}\n', encoding="utf-8")
    command, given, recorded = RECORDED_ARGV[case]
    a = tmp_path / "a"
    run_ok(capsys, [command, *(flag.format(**files) for flag in given), "--out", str(a)])
    doc = json.loads((a / "run.json").read_text(encoding="utf-8"))
    assert doc == {"command": command, "argv": [flag.format(**files) for flag in recorded]}
    b = tmp_path / "b"
    run_ok(capsys, ["rerun", "--run", str(a / "run.json"), "--out", str(b)])
    assert read_tree(a) == read_tree(b)


def test_rerun_rejects_bad_run_files(tmp_path, capsys):
    p = tmp_path / "run.json"
    p.write_text('{"command": "format-disk", "argv": []}\n', encoding="utf-8")
    captured = run_fail(capsys, ["rerun", "--run", str(p), "--out", str(tmp_path / "o")])
    assert "unknown command" in captured.err
    p.write_text('{"argv": []}\n', encoding="utf-8")
    captured = run_fail(capsys, ["rerun", "--run", str(p), "--out", str(tmp_path / "o")])
    assert "bad run.json" in captured.err


@pytest.mark.parametrize("argv", [
    ["--bogus"],  # an unknown flag
    ["--weeks", "3"],  # --seed is required
    ["--seed", "1", "--help"],  # would print usage and exit 0 with no outputs
], ids=["unknown flag", "missing required flag", "help"])
def test_rerun_rejects_bad_argv_with_one_error_line(tmp_path, capsys, argv):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"command": "synth", "argv": argv}), encoding="utf-8")
    captured = run_fail(capsys, ["rerun", "--run", str(p), "--out", str(tmp_path / "o")])
    assert captured.err.startswith("error: bad run.json: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_write_in_pieces_leaves_the_old_file_when_a_piece_fails(tmp_path):
    path = tmp_path / "messages.jsonl"
    path.write_bytes(b"old contents\n")

    def pieces():
        yield "week 1\n"
        raise RuntimeError("week 2 failed")

    with pytest.raises(RuntimeError, match="week 2 failed"):
        _write(path, pieces())
    assert path.read_bytes() == b"old contents\n"
    assert list(tmp_path.iterdir()) == [path]


# --- malformed inputs -------------------------------------------------------------

# Every file the CLI reads gets each of these; each must end in exit 1 and a
# single "error:" line, never a traceback.
BAD_CONTENTS = {
    "not utf-8": b"\xff\xfe",
    "not json": b"not json {\n",
    "wrong json type": b'"label"\n',
    "empty": b"",
    "json nested too deeply": b"[" * 100_000,  # json.loads raises RecursionError
    "5000-digit integer": b'{"id": ' + b"9" * 5000 + b"}\n",  # past int()'s 4300 digits
}


def loader_argv(loader, path, work):
    """argv whose first input read is path, through the named loader."""
    fraction = ["fraction", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
                "--query", QUERY, "--seed", "0", "--train-weeks", "1:4", "--eval-weeks", "5:6"]
    simulate = ["simulate", "--messages", str(work["messages"]), "--ili", str(work["ili"]),
                "--classifier", str(work["classifier"]), "--seed", "1", "--train-weeks", "1:6"]
    return {
        "messages": fraction[:1] + ["--messages", str(path)] + fraction[3:],
        "ili": fraction[:3] + ["--ili", str(path)] + fraction[5:],
        "labeled": ["classify", "--train", str(path), "--seed", "0", "--folds", "5"],
        "classifier": fraction + ["--mode", "soft", "--classifier", str(path)],
        "schedule file": simulate + ["--schedule", str(path)],
        "inline schedule": simulate + ["--schedule", os.fsdecode(path.read_bytes())],
        "run.json": ["rerun", "--run", str(path)],
        "synth config": ["synth", "--seed", "1", "--config", str(path)],
    }[loader]


LOADERS = ("messages", "ili", "labeled", "classifier", "schedule file", "inline schedule",
           "run.json", "synth config")
CLASSIFIER_DOC = '{"vocabulary": {"flu": %s}, "theta": [0.0, 1.0], "l2_lambda": 1.0, ' \
    '"trained_on": "x", "converged": true}'
# Six labeled messages of each class, on which classify trains.
LABELED = [
    {"id": f"m{i}", "timestamp": "2009-09-01T00:00:00Z", "author": "a",
     "text": "flu fever" if i % 2 else "lunch", "label": i % 2}
    for i in range(12)
]
# Integer fields hold JSON integers only: 1e400 reads as infinity, which
# int() cannot convert, and int() would also round 1.5 and read true as 1.
NOT_INTEGERS = {
    ("inline schedule", "infinite count"): b'{"pairs": [[6, 1e400]]}',
    ("inline schedule", "fractional count"): b'{"pairs": [[6, 1.5]]}',
    ("schedule file", "boolean week"): b'{"pairs": [[true, 5]]}',
    ("synth config", "infinite weeks"): b'{"seed": 1, "weeks": 1e400}',
    ("synth config", "fractional weeks"): b'{"seed": 1, "weeks": 3.5}',
    ("classifier", "infinite index"): (CLASSIFIER_DOC % "1e400").encode(),
    ("classifier", "boolean index"): (CLASSIFIER_DOC % "true").encode(),
    ("labeled", "fractional label"): "".join(
        json.dumps(r | {"label": 1.0} if r["label"] else r) + "\n" for r in LABELED).encode(),
}
# Float fields hold finite JSON numbers and bool fields true or false:
# float() would read "nan" and "0.5" and true, and bool() would read "no" as true.
NOT_NUMBERS_OR_BOOLS = {
    ("classifier", "nan theta"): b'{"vocabulary": {"flu": 1}, "theta": ["nan", true], '
                                 b'"l2_lambda": 1.0, "trained_on": "x", "converged": true}',
    ("classifier", "string converged"): b'{"vocabulary": {"flu": 1}, "theta": [0.0, 1.0], '
                                        b'"l2_lambda": 1.0, "trained_on": "x", "converged": "no"}',
    ("synth config", "string noise_sd"): b'{"seed": 1, "noise_sd": "0.5"}',
    ("synth config", "boolean true_beta1"): b'{"seed": 1, "true_beta1": true}',
}
# String and list fields hold JSON strings and arrays: str() would read 5
# as "5", and tuple() would read a string as its characters.
NOT_STRINGS_OR_LISTS = {
    ("classifier", "number trained_on"): (CLASSIFIER_DOC % "1").replace('"x"', "5").encode(),
    ("synth config", "string templates"): b'{"seed": 1, "positive_templates": "abc"}',
    ("synth config", "number templates"): b'{"seed": 1, "positive_templates": [1, 2]}',
    ("run.json", "number command"): b'{"command": 5, "argv": []}',
    ("run.json", "string argv"): b'{"command": "synth", "argv": "--seed 1"}',
    ("run.json", "number in argv"): b'{"command": "synth", "argv": ["--seed", 1]}',
    ("run.json", "null character in argv"):
        b'{"command": "synth", "argv": ["--seed", "1", "--config", "a\\u0000b"]}',
}
# Weeks reaching outside years 1 to 9999, where date arithmetic overflows.
ILI_FROM_YEAR_1 = "week_ending,ili_pct\n" + "".join(
    f"{date(1, 1, 6) + timedelta(weeks=w)},1.5\n" for w in range(6))
OUT_OF_RANGE_DATES = {
    ("synth config", "weeks past year 9999"):
        b'{"seed": 1, "weeks": 4, "first_week_end": "9999-12-25"}',
    ("synth config", "week starting in year 0"):
        b'{"seed": 1, "weeks": 4, "first_week_end": "0001-01-06"}',
    ("ili", "week starting in year 0"): ILI_FROM_YEAR_1.encode(),
}
# Templates that str.format cannot fill from three fillers: a fourth slot
# (IndexError), a named field (KeyError) and a stray brace (ValueError).
BAD_TEMPLATES = {
    ("synth config", name): b'{"seed": 1, "positive_templates": ["%s"]}' % template
    for name, template in (("four template slots", b"flu {} {} {} {}"),
                           ("named template field", b"flu {} {x}"),
                           ("stray template brace", b"flu { {}"))
}
# numpy's generators take no negative seed. The files a seeded command
# reads are never opened: the seed is checked first.
SEEDED_ARGV = {
    "synth": ["--seed", "-1"],
    "classify": ["--train", "labeled.jsonl", "--seed", "-1"],
    "simulate": ["--messages", "m.jsonl", "--ili", "ili.csv", "--classifier", "c.json",
                 "--seed", "-1"],
}
NEGATIVE_SEEDS = {
    ("synth config", "negative seed"): b'{"seed": -1}',
    **{("run.json", f"negative {command} seed"):
       json.dumps({"command": command, "argv": argv}).encode()
       for command, argv in SEEDED_ARGV.items()},
}
MALFORMED_CASES = [
    *(pytest.param(loader, content, id=f"{loader}-{name}")
      for loader in LOADERS for name, content in BAD_CONTENTS.items()),
    *(pytest.param(loader, content, id=f"{loader}-{name}")
      for (loader, name), content
      in (NOT_INTEGERS | NOT_NUMBERS_OR_BOOLS | NOT_STRINGS_OR_LISTS
          | OUT_OF_RANGE_DATES | BAD_TEMPLATES | NEGATIVE_SEEDS).items()),
]


@pytest.mark.parametrize("loader, content", MALFORMED_CASES)
def test_malformed_input_is_one_error_line(work, tmp_path, capsys, loader, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    argv = loader_argv(loader, path, work) + ["--out", str(tmp_path / "out")]
    captured = run_fail(capsys, argv)
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in captured.err, captured.err
    if content == BAD_CONTENTS["not utf-8"] and loader != "inline schedule":
        assert f"{path}: line 1: not valid UTF-8" in captured.err
    if content in NEGATIVE_SEEDS.values():
        assert "seed must be >= 0, got -1" in captured.err


@pytest.mark.parametrize("command", SEEDED_ARGV)
def test_negative_seed_is_one_error_line(tmp_path, capsys, command):
    argv = [command, *SEEDED_ARGV[command], "--out", str(tmp_path / "out")]
    captured = run_fail(capsys, argv)
    assert captured.err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_fraction_records_a_negative_seed(work, tmp_path, capsys):
    # fraction draws nothing at random; its --seed is only recorded, so an
    # old run.json that holds a negative one still replays.
    argv = loader_argv("messages", work["messages"], work)
    argv[argv.index("--seed") + 1] = "-1"
    run_ok(capsys, argv + ["--out", str(tmp_path / "out")])
    assert "-1" in json.loads((tmp_path / "out" / "run.json").read_text())["argv"]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A synth corpus of four weeks of 40 messages, on which fraction runs."""
    out = tmp_path_factory.mktemp("small")
    config = out / "synth_config.json"
    config.write_text('{"seed": 2, "weeks": 4, "messages_per_week": 40, '
                      '"ili_curve": [0.04, 0.08, 0.16, 0.1]}', encoding="utf-8")
    assert main(["synth", "--seed", "2", "--config", str(config), "--labeled-pos", "2",
                 "--labeled-neg", "2", "--out", str(out)]) == 0
    return out, date(2009, 9, 5)


@st.composite
def damaged(draw, content: bytes) -> bytes:
    """content with its last line cut short, or with 1-4 bytes replaced."""
    if draw(st.booleans()):
        last_line = content.rstrip(b"\n").rfind(b"\n") + 1
        return content[: draw(st.integers(last_line, len(content) - 1))]
    out = bytearray(content)
    for at, byte in draw(st.lists(st.tuples(st.integers(0, len(content) - 1),
                                            st.integers(0, 255)), min_size=1, max_size=4)):
        out[at] = byte
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_damaged_messages_file_is_accepted_or_one_error_line(small, data):
    syn, first_week_end = small
    content = data.draw(damaged((syn / "messages.jsonl").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "messages.jsonl"
        path.write_bytes(content)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):  # an uncaught exception fails the test
            code = main([
                "fraction", "--messages", str(path), "--ili", str(syn / "ili.csv"),
                "--query", QUERY, "--seed", "0", "--train-weeks", "1:4", "--eval-weeks", "1:4",
                "--out", str(Path(tmp) / "out"),
            ])
        # load_corpus keeps what ingest keeps, or raises ingest's error.
        try:
            kept = sorted(m.id for m in ingest(
                path, (first_week_end - timedelta(days=6), first_week_end + timedelta(days=21))
            ))
        except CorpusError as exc:
            kept = str(exc)
        try:
            corpus = load_corpus(path, first_week_end, 4)
            columnar = sorted(corpus.id(r) for r in range(len(corpus)))
        except CorpusError as exc:
            columnar = str(exc)
    assert columnar == kept
    assert code in (0, 1)
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == code and "Traceback" not in stderr.getvalue(), stderr.getvalue()


# A tiny document each loader accepts: a list of records for the JSONL
# loaders, one JSON value for the others. The ILI file, which is not JSON,
# is work's own.
VALID_DOCUMENTS = {
    "messages": [
        {"id": f"w{w}m{i}", "timestamp": f"{date(2009, 8, 26) + timedelta(weeks=w)}T12:00:00Z",
         "author": "a", "text": "flu" if i < w else "lunch"}
        for w in range(1, 7) for i in range(7)
    ],
    "labeled": LABELED,
    "classifier": json.loads(CLASSIFIER_DOC % "1"),
    "schedule file": {"pairs": [[6, 5]]},
    "inline schedule": {"pairs": [[6, 5]]},
    "run.json": {"command": "synth", "argv": ["--seed", "1", "--weeks", "2",
                                              "--messages-per-week", "100", "--labeled-pos", "2",
                                              "--labeled-neg", "2"]},
    "synth config": {"seed": 1, "weeks": 2, "messages_per_week": 20, "ili_curve": [0.1, 0.2],
                     "positive_templates": ["home with the flu {}"],
                     "negative_templates": ["tacos {} tonight"]},
}
# Inserted into a synth config template: a stray brace, a numbered or
# formatted field beside the {} slots, and an escaped pair of braces.
BRACES = ("{", "}", "{0}", "{:>9}", "{{}}")
# Stands in for a JSON token that json.dumps cannot write: 1e400.
RAW_1E400 = "\x00 1e400"


def places(value, at=()):
    """The path of every value inside value (keys and indices), itself first."""
    yield at
    if isinstance(value, dict):
        inside = value.items()
    elif isinstance(value, list):
        inside = enumerate(value)
    else:
        inside = ()
    for key, child in inside:
        yield from places(child, (*at, key))


@st.composite
def mutated(draw, loader, ili):
    """The bytes of loader's valid document with one key or item dropped,
    a value of another type or "nan", 1e400 or true in a number's place, a
    value nested in a list, one of BRACES inserted into a template, the
    bytes cut short or one byte replaced by a byte that is not a digit. No
    count of weeks, messages or injections can then grow past the valid
    document's: no digit is inserted, and the numbers put in are floats,
    which integer fields reject. For the same reason synth's
    messages_per_week is never dropped: it would fall back to its default
    of 10,000 a week."""
    kinds = ["truncate", "replace a byte"]
    if loader == "ili":
        content = ili
    else:
        doc = json.loads(json.dumps(VALID_DOCUMENTS[loader]))  # a copy to change
        paths = [p for p in places(doc) if p and p[-1] != "messages_per_week"]
        numbers = [p for p in paths if type(value_at(doc, p)) in (int, float)]
        templates = [p for p in paths if len(p) == 2 and str(p[0]).endswith("_templates")]
        kinds += ["drop", "swap type", "nest"] + (["number"] if numbers else [])
        kinds += ["brace"] * 4 if templates else []  # most synth config examples
    kind = draw(st.sampled_from(kinds))
    if kind in ("drop", "swap type", "number", "nest", "brace"):
        path = draw(st.sampled_from({"number": numbers, "brace": templates}.get(kind, paths)))
        parent, key = value_at(doc, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "swap type":
            old = type(parent[key])
            parent[key] = draw(st.sampled_from(
                [v for v in (None, True, "x", 0.5, [], {}) if type(v) is not old]))
        elif kind == "number":
            parent[key] = draw(st.sampled_from(["nan", RAW_1E400, True]))
        elif kind == "brace":
            at = draw(st.integers(0, len(parent[key])))
            parent[key] = parent[key][:at] + draw(st.sampled_from(BRACES)) + parent[key][at:]
        else:
            parent[key] = [parent[key]]
    if loader != "ili":
        lines = doc if loader in ("messages", "labeled") else [doc]
        content = "".join(json.dumps(v) + "\n" for v in lines)
        content = content.replace(json.dumps(RAW_1E400), "1e400").encode()
    if kind == "truncate":
        content = content[: draw(st.integers(0, len(content) - 1))]
    elif kind == "replace a byte":
        at = draw(st.integers(0, len(content) - 1))
        byte = draw(st.sampled_from([b for b in range(256) if b not in b"0123456789"]))
        content = content[:at] + bytes([byte]) + content[at + 1:]
    return content


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_inputs_are_accepted_or_one_error_line(work, data):
    loader = data.draw(st.sampled_from(LOADERS))
    content = data.draw(mutated(loader, work["ili"].read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(content)
        argv = loader_argv(loader, path, work) + ["--out", str(Path(tmp) / "out")]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)  # an uncaught exception fails the test
    event(f"{loader}: exit {code}")
    assert code in (0, 1)
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == code and "Traceback" not in stderr.getvalue(), stderr.getvalue()

"""Command-line interface.

Subcommands:
    synth      generate a synthetic corpus, its true ILI series, and a
               labeled training set
    fraction   compute weekly query fractions, fit the logit-logit
               regression, and write ILI estimates
    classify   train the spurious-match classifier and cross-validate it
    simulate   measure estimate drift under spurious-message injection
    rerun      repeat a previous run from its run.json; outputs are
               byte-identical for equal inputs

Every data-producing subcommand takes --seed and --out. It records its
flags in <out>/run.json in the order the subcommand declares them: each
flag but --out that holds a value, except an empty optional one, with
floats written by repr. fraction and simulate take their plain, soft and
hard weekly series from the library (classify.week_scores of each chunk,
read by corpus.scan_corpus, then classify.summed_scores and
classify.method_series). Errors exit 1 with a single "error: ..." line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from datetime import timedelta
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

from . import classify as clf
from . import synth as syn
from .corpus import Corpus, CorpusError, json_list, json_str, json_value, load_ili_csv
from .corpus import read_text, scan_corpus

# The per-message reference path that the columnar CLI path reproduces.
# perfbench/spans.py wraps these names on this module.
from .corpus import bucket_weekly, ingest  # noqa: F401
from .classify import query_fraction_series  # noqa: F401
from .simulate import build_spurious_pool  # noqa: F401
from .query import (
    GATE_QUERY,
    GATE_QUERY_TEXT,
    Query,
    QueryError,
    QueryParseError,
    match_rows,
    parse_query,
)
from .regress import (
    DegenerateFitError,
    RegressionError,
    WeeklySeries,
    fit,
    logit,
    mse,
    pearson,
    predict,
)
from .simulate import (
    DEFAULT_SCHEDULE_COUNTS,
    InjectionSchedule,
    SimulationError,
    mse_vs_baseline,
    pool_rows,
    report_csv,
    run_simulation,
    spurious_pool,
    summary_json,
)

log = logging.getLogger(__name__)

_ERRORS = (
    CorpusError,
    QueryError,
    QueryParseError,
    RegressionError,
    clf.ClassifierError,
    syn.SynthError,
    SimulationError,
)


# fraction's --mode for each of classify.METHODS, in the same order.
_MODES = ("plain", "soft", "hard")


class CliError(ValueError):
    """Bad flag combinations or inputs the library layer cannot see."""


def _write(path: Path, text: str | Iterable[str]) -> None:
    """Atomic write: no partial files on interruption, or when text comes
    in pieces and producing one fails. The pieces are written as they come."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_run(out: Path, command: str, args: argparse.Namespace) -> None:
    """Record the run's flags in the order its subcommand declares them:
    each one but --out and --help that holds a value, leaving out an empty
    value of a flag that is not required. Floats are written with repr."""
    argv = []
    for action in args.parser._actions:
        value = getattr(args, action.dest, None)
        if action.dest in ("out", "help") or value is None or (value == "" and not action.required):
            continue
        argv += [action.option_strings[0], repr(value) if isinstance(value, float) else str(value)]
    doc = {"command": command, "argv": argv}
    _write(out / "run.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _parse_week_range(text: str, name: str, least: int) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError(f"{name} must look like A:B, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"{name} must look like A:B with integers, got {text!r}") from None
    if a < 1 or b < a:
        raise CliError(f"{name}: need 1 <= A <= B, got {text!r}")
    if b - a + 1 < least:
        raise CliError(f"{name}: need at least {least} weeks, got {text!r}")
    return a, b


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's generators take no negative seed
        raise CliError(f"--seed must be >= 0, got {seed}")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- synth -------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    if args.config:
        config = syn.SynthConfig.from_json(read_text(args.config, syn.SynthError))
        config = replace(config, seed=args.seed)
    else:
        kwargs: dict = {"seed": args.seed}
        if args.weeks is not None:
            kwargs["weeks"] = args.weeks
            kwargs["ili_curve"] = syn.default_ili_curve(args.weeks)
        if args.messages_per_week is not None:
            kwargs["messages_per_week"] = args.messages_per_week
        if args.noise_sd is not None:
            kwargs["noise_sd"] = args.noise_sd
        config = syn.SynthConfig(**kwargs)
    began = time.perf_counter()
    corpus, truth = syn.generate_corpus(config)
    generated = time.perf_counter()
    labeled = syn.generate_labeled(config, args.labeled_pos, args.labeled_neg)
    labeled_at = time.perf_counter()
    out = _out_dir(args)
    _write(out / "messages.jsonl", corpus.jsonl())
    written = time.perf_counter()
    _write(out / "ili.csv", syn.ili_csv(truth))
    _write(out / "truth.json", truth.to_json())
    _write(out / "labeled.jsonl", syn.labeled_jsonl(labeled))
    _write(out / "config.json", config.to_json())
    _write_run(out, "synth", args)
    log.info(
        "synth: %d bytes written to messages.jsonl; generate_corpus %.3f s, "
        "generate_labeled %.3f s, messages.jsonl %.3f s, other files %.3f s",
        (out / "messages.jsonl").stat().st_size, generated - began, labeled_at - generated,
        written - labeled_at, time.perf_counter() - written,
    )
    print(
        f"wrote {len(corpus)} messages over {config.weeks} weeks, "
        f"{len(labeled)} labeled, to {out}"
    )
    return 0


# --- shared corpus loading ---------------------------------------------------


def _load_weekly(args: argparse.Namespace, query: Query, model: clf.ClassifierModel | None,
                 pool: bool):
    """Load the ILI series, then read the messages of its weeks in one pass
    (scan_corpus) that keeps only the rows holding a bare term of query, or
    of the gate query with pool. Where it is read, each chunk is matched and
    scored (week_scores) and, with pool, its spurious messages are picked
    (pool_rows): only these records and rows come back."""
    ili_rows = load_ili_csv(args.ili)
    first_end = ili_rows[0][0]
    last_end = ili_rows[-1][0]
    phrases = {t.tokens for q in ([query, GATE_QUERY] if pool else [query]) for t in q.base_terms}

    def fold(chunk: Corpus) -> tuple[list[clf.WeekScores], list]:
        matched = match_rows(query, chunk)
        gate = matched if query == GATE_QUERY or not pool else match_rows(GATE_QUERY, chunk)
        return clf.week_scores(matched, chunk, model), pool_rows(chunk, gate) if pool else []

    began = time.perf_counter()
    read, readers, totals, folds = scan_corpus(args.messages, first_end, len(ili_rows), phrases,
                                               fold)
    records = [s for scores, _ in folds for s in scores]
    rows = [row for _, pooled in folds for row in pooled]
    log.info("%s: %d rows read by %d process(es), %d in weeks 1..%d, %d matching %s, %s, %.3f s",
             args.messages, read, readers, sum(totals), len(totals),
             sum(s.matches for s in records), query.render(),
             f"{len(rows)} in the spurious pool" if pool else "no spurious pool",
             time.perf_counter() - began)
    if not sum(totals):
        raise CliError(
            f"no messages between {first_end - timedelta(days=6)} and {last_end}; "
            "the corpus does not overlap the ILI series"
        )
    ili = WeeklySeries(
        week_indices=tuple(range(1, len(ili_rows) + 1)),
        values=tuple(pct / 100.0 for _, pct in ili_rows),
    )
    return ili_rows, ili, records, rows


def _train_range(args: argparse.Namespace, n_weeks: int) -> list[int]:
    if args.train_weeks:
        a, b = _parse_week_range(args.train_weeks, "--train-weeks", 3)  # for the fit
    else:
        a, b = 1, min(20, n_weeks)
        if n_weeks < 4:
            raise CliError(
                f"ILI series has only {n_weeks} weeks; pass --train-weeks explicitly"
            )
    if b > n_weeks:
        raise CliError(
            f"--train-weeks ends at {b} but the ILI series has {n_weeks} weeks"
        )
    return list(range(a, b + 1))


def _eval_range(args: argparse.Namespace, n_weeks: int) -> list[int]:
    if args.eval_weeks:
        c, d = _parse_week_range(args.eval_weeks, "--eval-weeks", 2)  # for a correlation
    else:
        if n_weeks < 22:
            raise CliError(
                f"ILI series has only {n_weeks} weeks; the default evaluation "
                "range 21:last is too small, pass --eval-weeks explicitly"
            )
        c, d = 21, n_weeks
    if d > n_weeks:
        raise CliError(
            f"--eval-weeks ends at {d} but the ILI series has {n_weeks} weeks"
        )
    return list(range(c, d + 1))


def cmd_fraction(args: argparse.Namespace) -> int:
    if args.mode in ("soft", "hard") and not args.classifier:
        raise CliError(f"--mode {args.mode} requires --classifier")
    classifier = clf.ClassifierModel.load(args.classifier) if args.classifier else None
    query = parse_query(args.query)
    scorer = None if args.mode == "plain" else classifier
    ili_rows, ili, records, _ = _load_weekly(args, query, scorer, pool=False)
    train_weeks = _train_range(args, len(ili_rows))
    eval_weeks = _eval_range(args, len(ili_rows))
    scores = clf.summed_scores(len(ili_rows), records)
    method = clf.METHODS[_MODES.index(args.mode)]
    fractions = clf.method_series(scores)[method]
    out = _out_dir(args)
    _write(out / "fractions.csv", clf.fractions_csv(scores, [end for end, _ in ili_rows], method))
    _write_run(out, "fraction", args)

    try:
        model = fit(fractions, ili, train_weeks)
    except DegenerateFitError as exc:
        summary = {
            "degenerate": True,
            "error": str(exc),
            "mode": args.mode,
            "query": query.render(),
            "train_weeks": train_weeks,
            "eval_weeks": eval_weeks,
        }
        _write(out / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
        raise

    estimates = WeeklySeries(
        week_indices=fractions.week_indices,
        values=tuple(predict(model, q) for q in fractions.values),
    )
    summary = _estimate_summary(args, query, model, ili, estimates, train_weeks, eval_weeks)
    est_rows = ["week,true_ili,estimate"]
    for i, w in enumerate(estimates.week_indices):
        est_rows.append(f"{w},{ili.values[i] * 100.0!r},{estimates.values[i] * 100.0!r}")
    est_rows.append(
        f"# eval_pearson_logit={summary['pearson']['eval_logit']!r} "
        f"eval_mse_pct2={summary['mse']['eval_pct2']!r}"
    )
    _write(out / "estimates.csv", "\n".join(est_rows) + "\n")
    _write(out / "model.json", model.to_json())
    _write(out / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(
        f"beta1={model.beta1:.6g} beta2={model.beta2:.6g} "
        f"eval_pearson_logit={summary['pearson']['eval_logit']:.4f}"
    )
    return 0


def _estimate_summary(args, query, model, ili, estimates, train_weeks, eval_weeks) -> dict:
    def stats(weeks: list[int]) -> tuple[dict, dict]:
        truth = [ili.value_at(w) for w in weeks]
        est = [estimates.value_at(w) for w in weeks]
        pear = {
            "raw": pearson(est, truth),
            "logit": pearson([logit(v) for v in est], [logit(v) for v in truth]),
        }
        sq = {"pct2": mse([v * 100 for v in est], [v * 100 for v in truth])}
        return pear, sq

    train_p, train_m = stats(train_weeks)
    eval_p, eval_m = stats(eval_weeks)
    return {
        "degenerate": False,
        "mode": args.mode,
        "query": query.render(),
        "beta1": model.beta1,
        "beta2": model.beta2,
        "train_weeks": train_weeks,
        "eval_weeks": eval_weeks,
        "pearson": {
            "train_raw": train_p["raw"],
            "train_logit": train_p["logit"],
            "eval_raw": eval_p["raw"],
            "eval_logit": eval_p["logit"],
        },
        "mse": {"train_pct2": train_m["pct2"], "eval_pct2": eval_m["pct2"]},
    }


# --- classify ----------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    data = clf.load_labeled_jsonl(args.train)
    report = clf.cross_validate(
        data, k=args.folds, seed=args.seed, l2_lambda=args.l2_lambda
    )
    model = clf.train(data, l2_lambda=args.l2_lambda, seed=args.seed)
    out = _out_dir(args)
    _write(out / "classifier.json", model.to_json())
    _write(out / "cv_report.json", report.to_json())
    _write_run(out, "classify", args)
    print(
        f"trained on {len(data)} labeled messages "
        f"({sum(lm.label for lm in data)} positive), vocabulary "
        f"{len(model.vocabulary)} tokens, converged={model.converged}"
    )
    print(report.table())
    return 0


# --- simulate ----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    if bool(args.classifier) == bool(args.train):
        raise CliError("pass exactly one of --classifier or --train")
    query = parse_query(args.query)
    if args.classifier:
        classifier = clf.ClassifierModel.load(args.classifier)
    else:  # the labeled messages are freed before the read, which reuses their memory
        classifier = clf.train(clf.load_labeled_jsonl(args.train), l2_lambda=args.l2_lambda,
                               seed=args.seed)
    ili_rows, ili, records, rows = _load_weekly(args, query, classifier, pool=True)
    train_weeks = _train_range(args, len(ili_rows))

    scores = clf.summed_scores(len(ili_rows), records)
    series = clf.method_series(scores)
    models = {name: fit(series[name], ili, train_weeks) for name in clf.METHODS}

    if args.schedule is not None:
        schedule = _load_schedule(args.schedule)
    else:
        schedule = InjectionSchedule.default_for([s.week_index for s in scores])
    pool = spurious_pool(rows)
    report = run_simulation(
        scores, pool, schedule, models, classifier, seed=args.seed, query=query
    )
    out = _out_dir(args)
    _write(out / "simulation.csv", report_csv(report))
    _write(out / "simulation_summary.json", summary_json(report, pool, args.seed))
    _write_run(out, "simulate", args)
    drift = mse_vs_baseline(report)
    for name in clf.METHODS:
        print(f"{name:<14} mse={drift[name]:.6g} pp^2")
    return 0


def _load_schedule(arg: str) -> InjectionSchedule:
    try:
        is_file = Path(arg).is_file()
    except OSError:  # no name the file system can look up, e.g. long inline JSON
        is_file = False
    if is_file:
        return InjectionSchedule.from_json(read_text(arg, SimulationError))
    try:
        return InjectionSchedule.from_json(arg)
    except SimulationError:
        raise CliError(
            f"--schedule {arg!r} is neither a file nor inline JSON "
            '(expected {"pairs": [[week, count], ...]})'
        ) from None


# --- rerun -------------------------------------------------------------------


def cmd_rerun(args: argparse.Namespace) -> int:
    doc = json_value(read_text(args.run, CliError), CliError, "bad run.json")
    try:
        command = json_str(doc["command"])
        argv = [json_str(a) for a in json_list(doc["argv"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad run.json: {exc}") from None
    if any("\0" in a for a in argv):  # no path or flag may hold one
        raise CliError("bad run.json: argv holds a null character")
    if command not in ("synth", "fraction", "classify", "simulate"):
        raise CliError(f"run.json names unknown command {command!r}")
    recorded = build_parser(_RunJsonParser).parse_args([command, *argv, "--out", str(args.out)])
    return recorded.func(recorded)


class _RunJsonParser(argparse.ArgumentParser):
    """Reads a run.json's argv, where a bad flag (--help too) is bad input."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs, add_help=False)

    def error(self, message: str) -> NoReturn:
        raise CliError(f"bad run.json: {message}")


# --- parser ------------------------------------------------------------------


def build_parser(parser_class: type = argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="ilitrack",
        description="Estimate weekly ILI rates from short-text message streams.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    # Each command's parser is kept in its namespace: _write_run records the
    # flags in the order they are declared here.
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known truth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", required=True, type=int, help="generator seed")
    p.add_argument("--config", help="JSON config file (seed is overridden by --seed)")
    p.add_argument("--weeks", type=int, help="number of weeks (default 36)")
    p.add_argument("--messages-per-week", type=int, help="messages per week (default 10000)")
    p.add_argument("--noise-sd", type=float, help="sd of noise on logit(fraction), default 0")
    p.add_argument("--labeled-pos", type=int, default=160, help="labeled positives (default 160)")
    p.add_argument("--labeled-neg", type=int, default=46, help="labeled negatives (default 46)")
    p.set_defaults(func=cmd_synth, parser=p)

    p = sub.add_parser("fraction", help="weekly query fractions + regression estimates")
    p.add_argument("--messages", required=True, help="corpus JSONL file")
    p.add_argument("--ili", required=True, help="ILI CSV file (week_ending,ili_pct)")
    p.add_argument("--query", required=True, help="keyword query text")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--mode",
        choices=_MODES,
        default="plain",
        help="fraction kind: raw keyword match, probability-weighted, or thresholded",
    )
    p.add_argument(
        "--seed", required=True, type=int,
        help="recorded in run.json only; nothing in this command is random",
    )
    p.add_argument("--train-weeks", help="inclusive week range A:B (default 1:20)")
    p.add_argument("--eval-weeks", help="inclusive week range A:B (default 21:last)")
    p.add_argument("--classifier", help="classifier.json (required for soft/hard)")
    p.set_defaults(func=cmd_fraction, parser=p)

    p = sub.add_parser("classify", help="train and cross-validate the match classifier")
    p.add_argument("--train", required=True, help="labeled JSONL file")
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=int, default=10, help="CV folds (default 10)")
    p.add_argument(
        "--lambda", dest="l2_lambda", type=float, default=1.0,
        help="L2 penalty on non-bias weights (default 1.0)",
    )
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(func=cmd_classify, parser=p)

    p = sub.add_parser("simulate", help="spurious-injection robustness simulation")
    p.add_argument("--messages", required=True)
    p.add_argument("--ili", required=True)
    p.add_argument("--query", default=GATE_QUERY_TEXT, help="keyword query (default: gate query)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument(
        "--lambda", dest="l2_lambda", type=float, default=1.0,
        help="L2 penalty when training via --train (default 1.0)",
    )
    p.add_argument("--train-weeks", help="regression fit range A:B (default 1:20)")
    p.add_argument(
        "--schedule",
        help='injection schedule: JSON file or inline {"pairs": [[week, count], ...]}; '
        f"default: counts {DEFAULT_SCHEDULE_COUNTS} over the last 5 weeks",
    )
    p.add_argument("--classifier", help="pretrained classifier.json")
    p.add_argument("--train", help="labeled JSONL to train a classifier now")
    p.set_defaults(func=cmd_simulate, parser=p)

    p = sub.add_parser("rerun", help="repeat a recorded run into a new directory")
    p.add_argument("--run", required=True, help="path to a run.json")
    p.add_argument("--out", required=True, help="new output directory")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (*_ERRORS, CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

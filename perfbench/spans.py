"""Layer spans for the traced benchmark run.

The traced child process puts a wrapper on each coarse entry point the CLI
calls (`Tracer.install`), runs `ilitrack.cli.main(argv)` under a root span
named "cli", and writes the spans and the counts derived from arguments and
return values to a JSON file. `layer_metrics` turns that file into the
benchmark's per-layer metrics.

Per-message functions (tokenize, matches, predict_proba) are deliberately
not wrapped: at hundreds of thousands of calls the wrapper would distort the
time it measures.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (module, attribute looked up at call time, span name). A function imported
# by name into another module is wrapped where the caller looks it up.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("ilitrack.cli", "load_ili_csv", "corpus.load_ili_csv"),
    ("ilitrack.cli", "ingest", "corpus.ingest"),
    ("ilitrack.cli", "bucket_weekly", "corpus.bucket_weekly"),
    ("ilitrack.cli", "parse_query", "query.parse_query"),
    ("ilitrack.cli", "query_fraction_series", "query.fraction_series"),
    ("ilitrack.cli", "fit", "regress.fit"),
    ("ilitrack.cli", "predict", "regress.predict"),
    ("ilitrack.simulate", "predict", "regress.predict"),
    ("ilitrack.classify", "train", "classify.train"),
    ("ilitrack.classify", "minimize_lbfgs", "optimize.lbfgs"),
    ("ilitrack.classify", "bucket_fractions", "classify.bucket_fractions"),
    ("ilitrack.simulate", "bucket_fractions", "classify.bucket_fractions"),
    ("ilitrack.cli", "build_spurious_pool", "simulate.build_spurious_pool"),
    ("ilitrack.cli", "run_simulation", "simulate.run_simulation"),
    ("ilitrack.simulate", "inject", "simulate.inject"),
    ("ilitrack.synth", "generate", "synth.generate"),
    ("ilitrack.synth", "messages_jsonl", "synth.messages_jsonl"),
    ("ilitrack.synth", "generate_labeled", "synth.generate_labeled"),
)

ROOT_SPAN = "cli"

# Value reported for a metric whose entry point never fired in the run.
ABSENT = -1


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    args: tuple = ()
    result: Any = None


@dataclass
class Tracer:
    """Records spans in memory; nothing is written until `dump`."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    fun_evals: int = 0

    def span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            s = Span(len(self.spans), name, self.stack[-1] if self.stack else None,
                     time.perf_counter())
            self.spans.append(s)
            self.stack.append(s.id)
            try:
                s.result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                s.end = time.perf_counter()
            s.args = args
            return s.result

        return wrapper

    def _counting_objective(self, minimize: Callable) -> Callable:
        """Wrap the objective passed to the optimizer to count evaluations."""

        def counting_minimize(fun, *args, **kwargs):
            def counted(theta):
                self.fun_evals += 1
                return fun(theta)

            return minimize(counted, *args, **kwargs)

        return counting_minimize

    def install(self) -> None:
        for module_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if name == "optimize.lbfgs":
                fn = self._counting_objective(fn)
            setattr(module, attr, self.span(name, fn))

    def run(self, main: Callable[[list[str]], int], argv: list[str]) -> int:
        return self.span(ROOT_SPAN, main)(argv)

    def dump(self, path: str) -> None:
        """Write spans and counts. Counts are derived here, after the root
        span has closed, so deriving them is never charged to a layer."""
        doc = {
            "spans": [
                {"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end}
                for s in self.spans
            ],
            "counts": self._counts(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)

    def _counts(self) -> dict[str, float]:
        """Counts keyed by metric name; a count is present only when the
        span it comes from fired."""
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
        c: dict[str, float] = {}
        if ingests := by_name.get("corpus.ingest"):
            c["corpus.ingest.lines"] = sum(len(s.result) for s in ingests)
            c["corpus.ingest.bytes"] = sum(os.path.getsize(s.args[0]) for s in ingests)
        if buckets := by_name.get("corpus.bucket_weekly"):
            msgs = [tm for s in buckets for b in s.result for tm in b.messages]
            c["corpus.tokens"] = sum(len(tm.tokens) for tm in msgs)
            c["corpus.distinct_texts"] = len({tm.message.text for tm in msgs})
        if series := by_name.get("query.fraction_series"):
            c["query.evals"] = sum(sum(s.result.totals) for s in series)
            c["query.hits"] = sum(sum(s.result.match_counts) for s in series)
            c["query.hit_ratio"] = c["query.hits"] / c["query.evals"]
        if scans := by_name.get("classify.bucket_fractions"):
            c["classify.bucket_fractions.calls"] = len(scans)
            c["classify.msgs_scanned"] = sum(len(s.args[1].messages) for s in scans)
            # Scanned over distinct corpus and injected messages: 1.0 means
            # every message was scored once.
            distinct = {tm.message.id for s in scans for tm in s.args[1].messages}
            c["classify.scan_ratio"] = c["classify.msgs_scanned"] / len(distinct)
        if trains := by_name.get("classify.train"):
            c["classify.vocab"] = len(trains[-1].result.vocabulary)
        if runs := by_name.get("optimize.lbfgs"):
            c["optimize.lbfgs.iterations"] = sum(s.result.iterations for s in runs)
            c["optimize.lbfgs.fun_evals"] = self.fun_evals
            c["optimize.lbfgs.evals_per_iter"] = self.fun_evals / max(
                1, c["optimize.lbfgs.iterations"]
            )
        for name in ("regress.fit", "regress.predict"):
            if calls := by_name.get(name):
                c[f"{name}.calls"] = len(calls)
        if gens := by_name.get("synth.generate"):
            c["synth.messages"] = sum(len(s.result[0]) for s in gens)
        if dumps := by_name.get("synth.messages_jsonl"):
            c["synth.jsonl_bytes"] = sum(len(s.result.encode("utf-8")) for s in dumps)
        if pools := by_name.get("simulate.build_spurious_pool"):
            c["simulate.pool_size"] = len(pools[-1].result)
        if injects := by_name.get("simulate.inject"):
            c["simulate.injected"] = sum(n for s in injects for _, n in s.args[2].pairs)
        return c


def _times(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name, summed over calls. Self time is a
    span's duration minus the time its direct children cover; children run
    one after another, so their durations never overlap."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        own[s["name"]] = own.get(s["name"], 0.0) + d - child_time.get(s["id"], 0.0)
    return total, own


# Spans reported as "<span>.s" (total time, children included), spans also
# reported as "<span>.self_s", layers reported as "<layer>.self_s" (the self
# times of every span named "<layer>.*"), and counts (present only when their
# span fired). Every span name starts with one of LAYERS, so the layers' self
# times plus cli.self_s account for trace.command_s.
LAYERS = ("corpus", "query", "classify", "optimize", "regress", "synth", "simulate")
TIMED_SPANS = (
    "corpus.ingest", "corpus.bucket_weekly", "query.fraction_series",
    "classify.bucket_fractions", "classify.train", "optimize.lbfgs", "regress.fit",
    "synth.generate", "synth.messages_jsonl", "synth.generate_labeled",
    "simulate.build_spurious_pool", "simulate.inject", "simulate.run_simulation",
)
SELF_TIMED_SPANS = ("simulate.run_simulation", ROOT_SPAN)
COUNTS = (
    "corpus.ingest.lines", "corpus.ingest.bytes", "corpus.tokens",
    "corpus.distinct_texts", "query.evals", "query.hits", "query.hit_ratio",
    "classify.bucket_fractions.calls", "classify.msgs_scanned", "classify.scan_ratio",
    "classify.vocab", "optimize.lbfgs.iterations", "optimize.lbfgs.fun_evals",
    "optimize.lbfgs.evals_per_iter", "regress.fit.calls", "regress.predict.calls",
    "synth.messages", "synth.jsonl_bytes", "simulate.pool_size", "simulate.injected",
)


def layer_metrics(doc: dict) -> tuple[dict[str, float], list[str], dict[str, float]]:
    """Per-layer metrics from a traced run's span file, the names of those
    whose entry point never fired (valued ABSENT, never 0), and the self time
    of every span name, which together add up to the root span."""
    total, own = _times(doc["spans"])
    counts = doc["counts"]
    metrics: dict[str, float] = {}
    for span in TIMED_SPANS:
        metrics[f"{span}.s"] = total.get(span, ABSENT)
    for span in SELF_TIMED_SPANS:
        metrics[f"{span}.self_s"] = own.get(span, ABSENT)
    for layer in LAYERS:
        times = [t for span, t in own.items() if span.startswith(layer + ".")]
        metrics[f"{layer}.self_s"] = sum(times) if times else ABSENT
    for name in COUNTS:
        metrics[name] = counts.get(name, ABSENT)
    metrics["trace.command_s"] = total.get(ROOT_SPAN, ABSENT)
    absent = [name for name, v in metrics.items() if v == ABSENT]
    return metrics, absent, own

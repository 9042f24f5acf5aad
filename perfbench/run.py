"""ilitrack benchmark: each workload runs one CLI command at acceptance scale
(36 weeks x 10,000 messages = 360,000 messages) in fresh child processes.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Load shape: a closed loop with one client. One command runs at a time; the
next starts only after the previous one has exited. Inputs are generated
from the seed before any timing (inputs.py), and every command's outputs are
checked. With --trace 0 the last line of stdout reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics from one extra
traced command (spans.py), plus the untraced runs' CPU time and the tracing
overhead. Earlier lines give the environment and a readable summary. See
README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH / "digests.json"

CORPUS_MESSAGES = 360_000
DIGEST_SEED = 0  # the default seed; its output digests are recorded in DIGESTS
SETUP_SPAWNS = 2  # set-up-only spawns before each command
RUN_DEADLINE_S = 165.0  # a run must exit within 180 s
GATE_QUERY = 'flu cough headache "sore throat"'


class InputError(RuntimeError):
    """The inputs of a workload could not be generated."""


@dataclass
class Sample:
    """One child process: how it ended and what it cost."""

    code: int
    wall_s: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)


def spawn(child_args: list[str], cwd: Path, log: Path, deadline: float) -> Sample:
    """Run child.py once and wait for it; kill it at the deadline."""
    ready = cwd / "ready"
    ready.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(ready), *child_args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], max(0.0, deadline - t0))
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(
        code=proc.returncode,
        wall_s=t1 - t0,
        # A child that never got ready spent its whole life in set-up.
        setup_s=float(ready.read_text(encoding="utf-8")) - t0 if ready.exists() else t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    if not exited:
        sample.problems.append(f"killed at the run deadline after {sample.wall_s:.1f} s")
    elif sample.code != 0:
        sample.problems.append(f"exit code {sample.code}: {log.read_text(errors='replace')[-500:]}")
    return sample


# --- output checks -----------------------------------------------------------


def digest_tree(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def check_synth(out: Path, inputs: Path) -> list[str]:
    with open(out / "messages.jsonl", "rb") as fh:
        lines = sum(1 for _ in fh)
    return [] if lines == CORPUS_MESSAGES else [f"messages.jsonl has {lines} lines"]


def check_nowcast(out: Path, inputs: Path) -> list[str]:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    config = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    problems = []
    for beta in ("beta1", "beta2"):
        err = abs(summary[beta] - config[f"true_{beta}"])
        if not err < 1e-6:
            problems.append(f"|{beta} - true| = {err:.3g}")
    r = summary["pearson"]["eval_logit"]
    if not r >= 0.9999:
        problems.append(f"held-out logit Pearson {r} < 0.9999")
    rows = (out / "fractions.csv").read_text(encoding="utf-8").splitlines()[1:]
    counts = [int(row.split(",")[2]) for row in rows]
    if counts != truth["matches"]:
        problems.append("fractions.csv match counts differ from truth.json")
    return problems


def check_simulate(out: Path, inputs: Path) -> list[str]:
    doc = json.loads((out / "simulation_summary.json").read_text(encoding="utf-8"))
    mse = doc["mse"]
    problems = []
    if not mse["classify-hard"] < mse["classify-soft"] < mse["keywords"]:
        problems.append(f"MSE ordering hard < soft < keywords broken: {mse}")
    if not doc["pool_size"] > 0:
        problems.append("empty spurious pool")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str | None  # inputs.py --kind, or None for no inputs
    argv: Callable[[int], list[str]]
    check: Callable[[Path, Path], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synth-36x10k",
            None,
            lambda seed: ["synth", "--seed", str(seed), "--weeks", "36",
                          "--messages-per-week", "10000", "--noise-sd", "0"],
            check_synth,
        ),
        Workload(
            "nowcast-hicard",
            "hicard",
            lambda seed: ["fraction", "--messages", "in/messages.jsonl", "--ili", "in/ili.csv",
                          "--query", GATE_QUERY, "--mode", "plain", "--seed", str(seed)],
            check_nowcast,
        ),
        Workload(
            "simulate-36x10k",
            "plain",
            lambda seed: ["simulate", "--messages", "in/messages.jsonl", "--ili", "in/ili.csv",
                          "--train", "in/labeled.jsonl", "--seed", str(seed)],
            check_simulate,
        ),
    )
}


# --- one workload ------------------------------------------------------------


def environment() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_model": model,
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, run commands for `seconds`, check them; return a
    result with the metrics, attempted and failed counts."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "in"
    (work / "out").mkdir(parents=True)
    if w.inputs:
        gen = subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), "--kind", w.inputs,
             "--seed", str(seed), "--out", str(inputs)],
            timeout=deadline - time.monotonic(),
        )
        if gen.returncode != 0:
            raise InputError(f"generating {w.inputs} inputs failed (exit {gen.returncode})")
    # Fill the bytecode cache before timing: users do not pay that per run.
    spawn([], work, work / "warmup.log", deadline)

    expected = None
    if seed == DIGEST_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"][w.name]
    first_digests: dict[str, str] | None = None

    def command(k: int, extra: tuple[str, ...] = ()) -> tuple[Sample, Path]:
        nonlocal first_digests
        out = work / "out" / str(k)
        s = spawn([*extra, *w.argv(seed), "--out", str(out.relative_to(work))],
                  work, work / "out" / f"{k}.log", deadline)
        if s.code == 0 and not s.problems:
            try:
                s.problems += w.check(out, inputs)
            except (OSError, KeyError, ValueError) as exc:
                s.problems.append(f"unreadable output: {exc!r}")
            digests = digest_tree(out)
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                s.problems.append("outputs differ from the first run at this seed")
            if expected is not None and digests != expected:
                s.problems.append(f"outputs differ from the digests in {DIGESTS.name}")
        return s, out

    t_measure = time.monotonic()
    setups: list[float] = []
    samples: list[Sample] = []
    while not samples or (time.monotonic() - t_measure < seconds
                          and time.monotonic() < deadline - 30):
        setups += [spawn([], work, work / "setup.log", deadline).setup_s
                   for _ in range(SETUP_SPAWNS)]
        s, out = command(len(samples))
        shutil.rmtree(out, ignore_errors=True)
        samples.append(s)
    setups += [s.setup_s for s in samples]

    walls = [s.wall_s for s in samples]
    result = {
        "workload": w.name,
        "seed": seed,
        "samples": [vars(s) for s in samples],
        "setup_samples": setups,
    }
    if trace:
        span_file = work / "spans.json"
        traced, out = command(len(samples), ("--spans", str(span_file)))
        samples.append(traced)
        doc = {"spans": [], "counts": {}}
        if span_file.exists():
            doc = json.loads(span_file.read_text(encoding="utf-8"))
        layers, absent, self_s = spans.layer_metrics(doc)
        accounted = sum(v for layer in (*spans.LAYERS, spans.ROOT_SPAN)
                        if (v := layers[f"{layer}.self_s"]) != spans.ABSENT)
        unaccounted = layers["trace.command_s"] - accounted
        if not doc["spans"] or abs(unaccounted) > 1e-6:
            traced.problems.append(f"layer self times miss {unaccounted:.3g} s of the command")
        layers["cli.out_bytes"] = sum(p.stat().st_size for p in out.glob("*") if p.is_file())
        layers["cli.cpu_s"] = median([s.cpu_s for s in samples[:-1]])
        layers["trace.overhead_s"] = traced.wall_s - median(walls)
        layers["trace.outside_s"] = traced.wall_s - traced.setup_s - layers["trace.command_s"]
        result.update(traced_sample=vars(traced), absent=absent, self_s=self_s)
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in per_layer_units().items()
        }
    else:
        wall = median(walls)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "msgs_per_s": {"value": CORPUS_MESSAGES / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": median([s.rss_mb for s in samples]), "unit": "MB"},
            "setup_s": {"value": median(setups), "unit": "s"},
        }
    failed = [s for s in samples if s.problems]
    result.update(
        metrics=metrics,
        # To copy into digests.json by hand after an intended output change.
        digests=first_digests,
        attempted=len(samples),
        failed=len(failed),
        problems=[p for s in failed for p in s.problems],
        run_s=time.monotonic() - start,
    )
    shutil.rmtree(work, ignore_errors=True)
    return result


def per_layer_units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def report(result: dict) -> None:
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    if result.get("absent"):
        print(f"{name}  absent (entry point never fired): {', '.join(result['absent'])}")
    if "self_s" in result:
        print(f"{name}  self time by span: " + ", ".join(
            f"{k}={v:.4f}" for k, v in sorted(result["self_s"].items(), key=lambda kv: -kv[1])))
    print(f"{name}  failed_frac = {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:g}")
    for p in result["problems"]:
        print(f"{name}  FAILED CHECK: {p}")


def main() -> int:
    parser = argparse.ArgumentParser(description="ilitrack benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ilitrack" / "cli.py").is_file():
        print(f"error: no ilitrack sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except (InputError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())
    print("env " + json.dumps(env, sort_keys=True))
    for r in results:
        report(r)
        r["env"] = env
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        path = WORK / "results" / f"{r['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(r, indent=1) + "\n", encoding="utf-8")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

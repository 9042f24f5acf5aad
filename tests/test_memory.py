"""Peak memory of `synth`, `fraction` and `simulate`, each run in a child
process.

Each command's extra memory is its peak resident set size minus that of a
child that only imports the CLI. It must stay under a multiple of the
messages file's size: the write path streams the file a week at a time,
and the read path holds only each week's record and the spurious pool,
which the readers make chunk by chunk.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# Compiling a module from source leaves a heap that moves a command's peak
# by more than its code does, so every child reads bytecode cached under
# one PYTHONPYCACHEPREFIX. A prefix replaces every __pycache__ lookup, the
# standard library's and numpy's too, so this compiles those into it as
# well as src and the modules the interpreter imports at start-up.
COMPILE = r"""
import compileall, re, sys, sysconfig
started = [getattr(m, "__file__", None) or "" for m in list(sys.modules.values())]
import numpy
ok = all([compileall.compile_file(path, quiet=1) for path in started if path.endswith(".py")])
tests = r"[/\\]tests?[/\\]"
skip = re.compile(tests + r"|[/\\](site-packages|idlelib|tkinter|lib2to3|turtledemo)[/\\]")
ok &= compileall.compile_dir(sysconfig.get_paths()["stdlib"], rx=skip, quiet=1, workers=2)
ok &= compileall.compile_dir(numpy.__path__[0], rx=re.compile(tests), quiet=1, workers=2)
ok &= compileall.compile_dir(sys.argv[1], quiet=1)
sys.exit(not ok)
"""
# Linux keeps a process's peak RSS across fork and exec, so a child started
# from the test process would report at least the test process's own peak.
# This launcher is small: it starts the command, waits for it with
# os.wait4 and prints the exit code and the command's ru_maxrss in KiB.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""
# Extra peak memory over the messages file's size, per command. On a 9.4
# MiB file (8 weeks x 9000 messages) the extra is 1.9x for synth, 1.4x for
# fraction and 1.4x for simulate --train here, also with one astral-plane
# character appended: the corpus keeps only the rows holding a bare term
# of the command's queries. It was 1.7x and 2.1x (2.1x for simulate with
# the astral character) while the corpus kept every row of the weeks.
# Synth's was 3.1x while generate_corpus kept every draw twice in int64.
# It was 6.6x and 5.7x for synth and fraction when both held the whole
# file in memory, 3.6x for fraction and 4.2x for simulate while the
# corpus kept every text and one author string per row, and 2.5x and
# 2.8x (3.7x and 3.8x with the astral character) while it joined each
# column across the whole file and kept one id string per row. With a
# duplicate of line 1 appended, fraction's extra is 1.4x, the clean
# file's: the check-only pass runs beside the columns already read and
# keeps the line numbers of the ids whose hash repeats only. It was 1.4x
# too while the pass freed the columns and kept a line number per id (at
# ten times the size it peaked at 5x the clean load), 1.6x while every
# row was kept, 2.0x before that, and 3.9x while the error was found by
# building one Message per line. Since the kept rows are one set of
# columns, concatenated from each chunk's once the read ends, the extra
# is 1.38x for fraction, 1.37x for simulate, 1.35x for both with the
# astral character and 1.39x with the duplicate (2 runs each); it was
# 1.37x, 1.40x, 1.35-1.37x and 1.36-1.37x with one block per chunk.
# The figures above were taken with src compiled from source in every
# child. With cached bytecode the import-only child peaks 1.7 MiB lower
# (32.3 against 34.0 MiB) and the commands 0.1-0.4 MiB lower, so the same
# code reads 2.0x for synth, 1.5x for fraction and 1.5x for simulate
# (3 runs each), against 1.87x, 1.36x and 1.38x from source.
# With a bad last line (a duplicate of line 1, month 13 or a 0xFF byte),
# fraction's extra is 1.36-1.43x against 1.33-1.34x for the clean file
# (cached bytecode, 2 runs each): only the chunk holding the bad line and
# the chunks holding a repeated id hash are read again, line by line.
# While the whole file was read again to name the line, the 0xFF byte
# cost 5.3x (the file's bytes, then the text decoded from them), against
# 1.52x for the clean file.
# Since the file is read 256 KiB at a time (1 MiB before), week_scores
# scores each row's tokens and drops them, and run_simulation injects by
# counts of draws, the extra is 0.59-0.60x for fraction and 0.93-0.98x for
# simulate, 0.61-0.64x and 1.05-1.07x with the astral character, and
# 0.64-0.67x with a bad last line (cached bytecode, 2 runs each), against
# 1.42x, 1.47-1.50x, 1.42-1.43x, 1.55-1.56x and 1.42-1.44x before.
# Since WeekScores holds counts and an exact soft sum instead of one float
# per match, run_simulation draws 2^13 at a time, and the readers fork and
# pickle their shares into pipes without multiprocessing, the extra is
# 0.45-0.48x for fraction and 0.63-0.66x for simulate, 0.48-0.50x and
# 0.69-0.72x with the astral character, and 0.46-0.48x with a bad last
# line (cached bytecode, 2-3 runs each), against 0.59x, 0.94-0.95x,
# 0.62x, 1.04x and 0.65x before.
# Since every share of a file this size is read by a forked reader, which
# writes its id hashes to temporary files that the command checks one
# partition at a time, the command holds neither a share's read nor the
# hashes: the extra is 0.15-0.16x for fraction and 0.53-0.55x for
# simulate, 0.17-0.19x and 0.57-0.58x with the astral character, and
# 0.15-0.21x with a bad last line (cached bytecode, 2 runs each), against
# 0.44-0.46x, 0.63-0.68x, 0.50x, 0.69-0.73x and 0.44-0.45x before.
# Since the readers match, score and pick the spurious pool chunk by chunk
# and check their own partitions of the id hashes, and simulate trains its
# classifier before it reads, the command holds the weekly records and the
# pool, not the kept rows' columns: the extra is 0.04-0.07x for fraction
# and 0.39-0.42x for simulate, 0.04-0.06x and 0.40-0.43x with the astral
# character, and 0.05-0.11x with a bad last line (cached bytecode, 6 runs
# each), against 0.16-0.18x, 0.53x, 0.19-0.21x, 0.59-0.60x and 0.20-0.22x
# before.
BOUNDS = {"synth": 2.4, "fraction": 0.13, "simulate": 0.46}


def peak_mib(*args: str, code: int = 0, stderr: str = "") -> float:
    """The command's peak in MiB. It must exit with code, and its stderr
    must be stderr."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    out = run.stdout.split()
    assert out[0] == str(code), f"{args}: exit {out[0]}"
    assert run.stderr == stderr
    return int(out[1]) / 1024


@pytest.fixture(scope="module", autouse=True)
def cached_bytecode(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path_factory.mktemp("pycache")))
        subprocess.run([sys.executable, "-c", COMPILE, str(SRC)], check=True)
        yield


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """The import-only peak, synth's peak and its output directory."""
    out = tmp_path_factory.mktemp("memory")
    base = peak_mib("-c", "import ilitrack.cli")
    synth = peak_mib(
        "-m", "ilitrack.cli", "synth", "--seed", "0", "--weeks", "8",
        "--messages-per-week", "9000", "--labeled-pos", "20", "--labeled-neg", "10",
        "--out", str(out),
    )
    return base, synth, out


def assert_under_bound(base, peaks, messages):
    size = messages.stat().st_size / 2**20
    extra = {command: (mib - base) / size for command, mib in peaks.items()}
    assert all(extra[command] < BOUNDS[command] for command in peaks), (
        f"extra memory per MiB of a {size:.1f} MiB file: {extra}; bounds {BOUNDS}"
    )


def fraction_peak(messages, out, **expected):
    return peak_mib(
        "-m", "ilitrack.cli", "fraction", "--messages", str(messages),
        "--ili", str(out / "ili.csv"), "--query", "flu cough", "--seed", "0",
        "--train-weeks", "1:4", "--eval-weeks", "5:8",
        "--out", str(out / f"fraction-{messages.stem}"), **expected,
    )


def simulate_peak(messages, out):
    return peak_mib(
        "-m", "ilitrack.cli", "simulate", "--messages", str(messages),
        "--ili", str(out / "ili.csv"), "--train", str(out / "labeled.jsonl"), "--seed", "0",
        "--out", str(out / f"simulate-{messages.stem}"),
    )


def test_synth_and_fraction_memory_stays_under_a_multiple_of_the_file(synth_run):
    base, synth, out = synth_run
    messages = out / "messages.jsonl"
    assert_under_bound(base, {"synth": synth, "fraction": fraction_peak(messages, out)}, messages)


def test_simulate_memory_stays_under_a_multiple_of_the_file(synth_run):
    base, _, out = synth_run
    messages = out / "messages.jsonl"
    assert_under_bound(base, {"simulate": simulate_peak(messages, out)}, messages)


def test_one_astral_character_keeps_memory_under_the_bounds(synth_run):
    # A str stores every character at the width of its widest one, so one
    # emoji in a column that spans the file would make all of it 4 bytes
    # per character.
    base, _, out = synth_run
    text = (out / "messages.jsonl").read_text(encoding="utf-8")
    first = json.loads(text[: text.index("\n")])
    record = {"id": "astral", "timestamp": first["timestamp"], "author": "a",
              "text": "flu \U0001F600"}
    messages = out / "astral.jsonl"
    messages.write_text(text + json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    peaks = {"fraction": fraction_peak(messages, out), "simulate": simulate_peak(messages, out)}
    assert_under_bound(base, peaks, messages)


def test_simulate_peak_does_not_grow_with_the_file(synth_run):
    # The file twice as long, every message of its second half matching the
    # gate query: the command holds the weekly records and the pool, so its
    # peak rises by less than 1 MiB (-0.03 to 0.16 MiB here). It rose by
    # 20.4 MiB while the command held the kept rows' columns.
    _, _, out = synth_run
    text = (out / "messages.jsonl").read_text(encoding="utf-8")
    longer = out / "longer.jsonl"
    longer.write_text(text + text.replace('"id": "', '"id": "again-').replace(
        '"text": "', '"text": "flu '), encoding="utf-8")
    rise = simulate_peak(longer, out) - simulate_peak(out / "messages.jsonl", out)
    assert rise < 1, f"{rise:.2f} MiB"


@pytest.mark.parametrize("bad", ["duplicate", "month 13", "0xff byte"])
def test_a_duplicate_id_is_named_without_one_message_per_line(synth_run, bad):
    # A bad last line is named by reading line by line only its chunk and
    # the chunks holding a repeated id hash, not one Message per line.
    base, _, out = synth_run
    raw = (out / "messages.jsonl").read_bytes()
    first = raw[: raw.index(b"\n") + 1]
    record, line = json.loads(first), raw.count(b"\n") + 1
    stamp = record["timestamp"][:5] + "13" + record["timestamp"][7:]
    messages = out / f"{bad.replace(' ', '-')}.jsonl"
    last, error = {
        "duplicate": (first, f"line {line}: duplicate message id {record['id']!r} "
                             "(first seen on line 1)"),
        "month 13": (json.dumps(record | {"id": "m13", "timestamp": stamp}).encode() + b"\n",
                     f"line {line}: timestamp {stamp!r} does not match '%Y-%m-%dT%H:%M:%SZ'"),
        "0xff byte": (b"\xff\n", f"{messages}: line {line}: not valid UTF-8 (invalid start byte)"),
    }[bad]
    messages.write_bytes(raw + last)
    peak = fraction_peak(messages, out, code=1, stderr=f"error: {error}\n")
    assert_under_bound(base, {"fraction": peak}, messages)

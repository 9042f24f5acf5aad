"""Peak memory of `synth`, `fraction` and `simulate`, each run in a child
process.

Each command's extra memory is its peak resident set size minus that of a
child that only imports the CLI. It must stay under a multiple of the
messages file's size: the write path streams the file a week at a time,
and the read path holds only the columns of the rows it keeps, with no
per-row text.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
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
# MiB file (8 weeks x 9000 messages) the extra is 3.1x for synth, 1.9x for
# fraction and 2.1x for simulate --train here, and 2.1x and 2.3x with one
# astral-plane character appended. It was 6.6x and 5.7x for synth and
# fraction when both held the whole file in memory, 3.6x for fraction and
# 4.2x for simulate while the corpus kept every text and one author string
# per row, and 2.5x and 2.8x (3.7x and 3.8x with the astral character)
# while it joined each column across the whole file and kept one id
# string per row. With a duplicate of line 1 appended, fraction's extra is
# 2.0x; it was 3.9x while the error was found by building one Message per
# line.
BOUNDS = {"synth": 4.5, "fraction": 2.4, "simulate": 2.7}


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


def test_a_duplicate_id_is_named_without_one_message_per_line(synth_run):
    # Only a check-only pass over the file names the line, keeping one line
    # number per id, not one Message per line.
    base, _, out = synth_run
    text = (out / "messages.jsonl").read_text(encoding="utf-8")
    first = text[: text.index("\n") + 1]
    messages = out / "duplicate.jsonl"
    messages.write_text(text + first, encoding="utf-8")
    error = (f"error: line {text.count(chr(10)) + 1}: duplicate message id "
             f"{json.loads(first)['id']!r} (first seen on line 1)\n")
    peak = fraction_peak(messages, out, code=1, stderr=error)
    assert_under_bound(base, {"fraction": peak}, messages)

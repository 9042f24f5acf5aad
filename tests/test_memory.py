"""Peak memory of `synth` and `fraction`, each run in a child process.

Each command's extra memory is its peak resident set size minus that of a
child that only imports the CLI. It must stay under a multiple of the
messages file's size: the write path streams the file a week at a time,
and the read path holds only the columns of the rows it keeps.
"""

import os
import subprocess
import sys
from pathlib import Path

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
# Extra peak memory over the messages file's size. On a 9.4 MB file (8
# weeks x 9000 messages) the extra is 3.1x for synth and 3.6x for fraction
# here, and was 6.6x and 5.7x when both held the whole file in memory.
BOUND = 4.5


def peak_mib(*args: str) -> float:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, *args],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    assert out[0] == "0", f"{args}: exit {out[0]}"
    return int(out[1]) / 1024


def test_synth_and_fraction_memory_stays_under_a_multiple_of_the_file(tmp_path):
    base = peak_mib("-c", "import ilitrack.cli")
    synth = peak_mib(
        "-m", "ilitrack.cli", "synth", "--seed", "0", "--weeks", "8",
        "--messages-per-week", "9000", "--labeled-pos", "20", "--labeled-neg", "10",
        "--out", str(tmp_path),
    )
    messages = tmp_path / "messages.jsonl"
    size = messages.stat().st_size / 2**20
    fraction = peak_mib(
        "-m", "ilitrack.cli", "fraction", "--messages", str(messages),
        "--ili", str(tmp_path / "ili.csv"), "--query", "flu cough", "--seed", "0",
        "--train-weeks", "1:4", "--eval-weeks", "5:8", "--out", str(tmp_path / "fraction"),
    )
    extra = {"synth": synth - base, "fraction": fraction - base}
    assert all(mib < BOUND * size for mib in extra.values()), (
        f"extra MiB {extra} over a {size:.1f} MiB file; bound {BOUND}x"
    )

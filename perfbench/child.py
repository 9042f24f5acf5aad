"""One `ilitrack` command in a fresh process, as the console script runs it.

    python3 perfbench/child.py READY_FILE [--spans SPANS_FILE] [CLI ARGS...]

Writes time.monotonic() to READY_FILE once `ilitrack.cli` is imported and
ready to parse arguments; the parent reads it to split set-up from the rest
of the command. Without CLI arguments it stops there (a set-up-only spawn).
With --spans it runs the command under layer spans and writes them to
SPANS_FILE (see spans.py). Expects `src` on PYTHONPATH.
"""

import sys
import time

import ilitrack.cli

ready = time.monotonic()


def main(argv: list[str]) -> int:
    ready_file, rest = argv[0], argv[1:]
    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(repr(ready))
    if not rest:
        return 0
    if rest[0] != "--spans":
        return ilitrack.cli.main(rest)
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    code = tracer.run(ilitrack.cli.main, rest[2:])
    tracer.dump(rest[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

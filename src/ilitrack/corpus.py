"""Message corpus handling: ingestion, tokenization, and weekly bucketing.

A corpus is a collection of short timestamped text messages. Messages are
grouped into epidemiological weeks ending on Saturdays, matching the weekly
cadence of public ILI surveillance data.
"""

from __future__ import annotations

import gc
import itertools
import json
import logging
import math
import os
import pickle
import re
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NoReturn, Sequence

import numpy as np

log = logging.getLogger(__name__)

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
MAX_TEXT_CHARS = 1000
SATURDAY = 5  # date.weekday() value


class CorpusError(ValueError):
    """Malformed message data or an impossible bucketing request."""


@dataclass(frozen=True, slots=True)
class Message:
    """One short text message.

    id: non-empty, unique within a corpus.
    timestamp: timezone-aware UTC, second resolution.
    """

    id: str
    timestamp: datetime
    author: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("message id must be non-empty")
        if self.timestamp.tzinfo is None:
            raise CorpusError(f"message {self.id!r}: timestamp must be timezone-aware")
        if len(self.text) > MAX_TEXT_CHARS:
            raise CorpusError(
                f"message {self.id!r}: text exceeds {MAX_TEXT_CHARS} characters"
            )


@dataclass(frozen=True, slots=True)
class TokenizedMessage:
    """A message paired with its token sequence (order preserved)."""

    message: Message
    tokens: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class WeekBucket:
    """All messages whose UTC date falls in the 7 days ending on end_date.

    week_index is 1-based. The bucket covers [end_date - 6 days, end_date]
    inclusive, and end_date is always a Saturday.
    """

    week_index: int
    end_date: date
    messages: tuple[TokenizedMessage, ...]

    @property
    def start_date(self) -> date:
        return self.end_date - timedelta(days=6)

    def __len__(self) -> int:
        return len(self.messages)


# A token is a maximal run of Unicode letters, digits and apostrophes in a
# text as normalize() leaves it, where underscores are already spaces.
_TOKEN_CHARS = r"\w'"
_TOKEN_RE = re.compile(f"[{_TOKEN_CHARS}]+")
# A whitespace-free span starting with "http" collapses to the bare token
# "http" so link-bearing messages stay matchable by that keyword.
_URL_RE = re.compile(r"http\S*")


def normalize(text: str) -> str:
    """text lowercased, each URL (a whitespace-free span from "http") made
    " http ", and each newline and underscore made a space. Its tokens are
    its maximal runs of letters, digits and apostrophes."""
    lowered = text.lower().replace("\n", " ")
    if "http" in lowered:
        lowered = _URL_RE.sub(" http ", lowered)
    return lowered.replace("_", " ")


def tokenize(text: str) -> list[str]:
    """Lowercase text and split it into tokens.

    Deterministic and insensitive to surrounding whitespace. Punctuation
    and underscores separate tokens except apostrophes, which bind ("i've"
    is one token).
    """
    return _TOKEN_RE.findall(normalize(text))


def tokenize_message(message: Message) -> TokenizedMessage:
    return TokenizedMessage(message=message, tokens=tuple(tokenize(message.text)))


_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z\Z", re.ASCII)


def _parse_timestamp(raw: str) -> datetime:
    # Fixed-width parse of TIMESTAMP_FORMAT. strptime costs ~14us per call,
    # which dominates million-line ingests; slicing is an order of magnitude
    # cheaper and the datetime constructor still range-checks every field.
    if not _TIMESTAMP_RE.match(raw):
        raise ValueError(raw)
    # The regex has pinned the layout, so fromisoformat's C parser can take
    # over; it would otherwise accept date-only and odd-separator variants.
    return datetime.fromisoformat(raw[:19]).replace(tzinfo=timezone.utc)


def message_from_record(record: dict, line_no: int) -> Message:
    """Build a Message from one decoded JSONL record, naming line_no on error."""
    if not isinstance(record, dict):
        raise CorpusError(f"line {line_no}: expected a JSON object")
    for field in ("id", "timestamp", "text"):
        if field not in record:
            raise CorpusError(f"line {line_no}: missing field {field!r}")
        if not isinstance(record[field], str):
            raise CorpusError(f"line {line_no}: field {field!r} must be a string")
    author = record.get("author", "")
    if not isinstance(author, str):
        raise CorpusError(f"line {line_no}: field 'author' must be a string")
    try:
        ts = _parse_timestamp(record["timestamp"])
    except ValueError:
        raise CorpusError(
            f"line {line_no}: timestamp {record['timestamp']!r} does not match "
            f"{TIMESTAMP_FORMAT!r}"
        ) from None
    try:
        return Message(id=record["id"], timestamp=ts, author=author, text=record["text"])
    except CorpusError as exc:
        raise CorpusError(f"line {line_no}: {exc}") from None


# What open(..., errors="surrogateescape") reads a byte that is not UTF-8 as.
_STAND_IN = re.compile("[\udc80-\udcff]")


def _decoded(path: str | Path, lines: Iterable[tuple[int, str]],
             error: type[ValueError]) -> Iterator[tuple[int, str]]:
    """lines, numbered lines of path read with errors="surrogateescape",
    raising error at the first that holds a byte that is not UTF-8."""
    for line_no, line in lines:
        if not line.isascii() and _STAND_IN.search(line):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}: line {line_no}: not valid UTF-8 ({exc.reason})") from None
        yield line_no, line


def read_lines(path: str | Path, error: type[ValueError]) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a UTF-8 text file, split as
    open() splits it. A byte that is not UTF-8 raises error once the lines
    before it are read, naming the file and the line that holds it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from _decoded(path, enumerate(fh, start=1), error)


def read_text(path: str | Path, error: type[ValueError]) -> str:
    """Path(path).read_text(encoding="utf-8"), raising error as read_lines does."""
    return "".join(line for _, line in read_lines(path, error))


def read_records(lines: Iterable[tuple[int, str]],
                 error: type[ValueError]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each of lines (read_lines) that is not
    blank. A line that is not JSON or not a JSON object raises error,
    naming the line."""
    for line_no, line in lines:
        # isspace instead of strip(): no per-line copy of the whole text
        if not line or line.isspace():
            continue
        record = json_value(line, error, f"line {line_no}")
        if not isinstance(record, dict):
            raise error(f"line {line_no}: expected a JSON object")
        yield line_no, record


def json_value(text: str, error: type[ValueError], where: str) -> object:
    """json.loads(text) for a text from outside the program, raising error
    led by where when text is not JSON, nests deeper than the decoder
    recurses (RecursionError) or holds an integer too long for int()."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = f"{exc.msg} at character {exc.pos}"
    except (RecursionError, ValueError) as exc:
        reason = str(exc)
    raise error(f"{where}: invalid JSON ({reason})")


def json_int(value: object) -> int:
    """value if it is a JSON integer, else TypeError. int() would round 1.5,
    read true as 1 and overflow on 1e400 (which JSON reads as infinity)."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_float(value: object) -> float:
    """value as a float if it is a finite JSON number, else ValueError.
    float() would read "nan", "inf" and "0.5" from strings and true as 1.0."""
    if type(value) in (int, float):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ValueError(f"expected a finite number, got {value!r}")


def json_str(value: object) -> str:
    """value if it is a JSON string, else TypeError. str() would read 5 as
    "5" and null as "None"."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def json_list(value: object) -> list:
    """value if it is a JSON array, else TypeError. tuple() would read a
    string as its characters and an object as its keys."""
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return value


def json_bool(value: object) -> bool:
    """value if it is JSON true or false, else TypeError. bool() reads any
    string but "", "no" too, as true."""
    if type(value) is not bool:
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def ingest(path: str | Path, date_range: tuple[date, date]) -> list[Message]:
    """Load messages from a JSONL file, keeping those inside date_range.

    date_range is an inclusive (start, end) pair of UTC dates. Records are
    validated line by line; malformed lines and duplicate ids raise
    CorpusError naming the offending line. The result is sorted by
    (timestamp, id) so ingestion order never affects downstream output.
    """
    start, end = date_range
    if start > end:
        raise CorpusError(f"date range start {start} is after end {end}")
    messages = [msg for msg in _checked(read_lines(path, CorpusError))
                if start <= msg.timestamp.date() <= end]
    messages.sort(key=lambda m: (m.timestamp, m.id))
    return messages


def _checked(lines: Iterable[tuple[int, str]],
             repeated: set[int] | None = None) -> Iterator[Message]:
    """The message of each of lines (read_lines) of a JSONL file, in order.
    A malformed line, or an id an earlier line holds, raises CorpusError
    naming the line. Only line numbers are kept: of every id, or of those
    whose _id_hash is in repeated."""
    seen: dict[str, int] = {}
    for line_no, record in read_records(lines, CorpusError):
        msg = message_from_record(record, line_no)
        if repeated is None or _id_hash(msg.id) in repeated:
            if msg.id in seen:
                raise CorpusError(
                    f"line {line_no}: duplicate message id {msg.id!r} "
                    f"(first seen on line {seen[msg.id]})"
                )
            seen[msg.id] = line_no
        yield msg


def _check_week_grid(first_week_end: date, weeks: int | None) -> None:
    if first_week_end.weekday() != SATURDAY:
        raise CorpusError(
            f"first_week_end {first_week_end} is not a Saturday "
            f"(weekday {first_week_end.weekday()})"
        )
    if weeks is not None and weeks < 1:
        raise CorpusError(f"weeks must be >= 1, got {weeks}")


def week_index_for(ts: datetime, first_week_end: date) -> int:
    """1-based week index of a timestamp relative to the first week's Saturday."""
    if ts.tzinfo is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    return (ts.toordinal() - first_week_end.toordinal() + 6) // 7 + 1


def bucket_weekly(
    messages: Iterable[Message],
    first_week_end: date,
    weeks: int | None = None,
) -> list[WeekBucket]:
    """Partition messages into consecutive Saturday-ending week buckets.

    Every message lands in exactly one bucket. Messages dated before week 1
    raise; so do messages past the last week when weeks is given. When weeks
    is None the bucket count is inferred from the latest message. Empty
    buckets are legal but logged, since a zero denominator poisons any
    fraction computed from them.
    """
    _check_week_grid(first_week_end, weeks)

    assigned: list[tuple[int, Message]] = []
    too_early: list[str] = []
    too_late: list[str] = []
    max_index = 0
    for msg in messages:
        idx = week_index_for(msg.timestamp, first_week_end)
        if idx < 1:
            too_early.append(msg.id)
            continue
        if weeks is not None and idx > weeks:
            too_late.append(msg.id)
            continue
        assigned.append((idx, msg))
        if idx > max_index:
            max_index = idx
    if too_early:
        raise CorpusError(
            f"{len(too_early)} message(s) dated before week 1 "
            f"(starting {first_week_end - timedelta(days=6)}): "
            f"ids {_preview(too_early)}"
        )
    if too_late:
        raise CorpusError(
            f"{len(too_late)} message(s) dated after week {weeks}: ids {_preview(too_late)}"
        )

    n_weeks = weeks if weeks is not None else max_index
    grouped: list[list[TokenizedMessage]] = [[] for _ in range(n_weeks)]
    for idx, msg in assigned:
        grouped[idx - 1].append(tokenize_message(msg))
    buckets = [
        WeekBucket(
            week_index=i + 1,
            end_date=first_week_end + timedelta(days=7 * i),
            messages=tuple(group),
        )
        for i, group in enumerate(grouped)
    ]
    _warn_empty([len(b.messages) for b in buckets])
    return buckets


def _warn_empty(totals: Sequence[int]) -> None:
    empty = [w for w, total in enumerate(totals, start=1) if not total]
    if empty:
        log.warning("empty week bucket(s): %s", ", ".join(map(str, empty)))


# --- columnar corpus -----------------------------------------------------------


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector. Building hundreds of thousands of
    tuples, lists or messages otherwise sets off full collections that walk
    every one of them again and again; none of them is part of a cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _phrase_pattern(tokens: Sequence[str]) -> re.Pattern:
    """The regular expression that finds a phrase in a normalized text: its
    tokens, a token character on neither side, and runs of other
    characters between them that stay inside the row. The first token
    leads the pattern, so the engine finds it by plain string search."""
    first = re.escape(tokens[0])
    pattern = f"{first}(?<![{_TOKEN_CHARS}]{first})"
    for token in tokens[1:]:
        pattern += f"[^{_TOKEN_CHARS}\\n]+{re.escape(token)}"
    return re.compile(pattern + f"(?![{_TOKEN_CHARS}])")


def _rows_found(patterns: Iterable[re.Pattern], normalized: str, starts: np.ndarray) -> np.ndarray:
    """One bool per row of normalized texts joined by newlines, row i
    starting at starts[i]: whether one of patterns matches in it."""
    found = np.zeros(len(starts) - 1, dtype=bool)
    for pattern in patterns:
        at = np.fromiter((m.start() for m in pattern.finditer(normalized)), np.int64)
        found[np.searchsorted(starts, at, side="right") - 1] = True
    return found


def _joined(pieces: list[str], sep: str = "") -> tuple[str, np.ndarray]:
    """pieces joined by sep, piece i at offsets[i] : offsets[i + 1] - len(sep)."""
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, pieces), np.int64, len(pieces)) + len(sep), out=offsets[1:])
    return sep.join(pieces), offsets


def _concatenated(runs: list[tuple[str, np.ndarray]], sep: str = "") -> tuple[str, np.ndarray]:
    """_joined(pieces, sep) of every run's pieces, from _joined of each run:
    their strs joined by sep, and their offsets shifted past the runs before."""
    shifts = np.cumsum([0, *(offsets[-1] for _, offsets in runs)])
    offsets = [np.zeros(1, np.int64), *(o[1:] + shift for (_, o), shift in zip(runs, shifts))]
    return sep.join(text for text, _ in runs), np.concatenate(offsets)


@dataclass(frozen=True, eq=False)
class Corpus:
    """The messages of weeks 1..weeks as columns: what
    bucket_weekly(ingest(...)) holds, without one object per message.

    week_totals[w - 1] is the number of messages in week w, kept as a row
    or not. When phrases is None the rows are all of those messages;
    otherwise they are only the messages whose tokens hold one of the
    phrases (token tuples), the only rows a query whose bare terms are all
    among them can match.

    Rows are in file order. Row r was posted at POSIX second seconds[r];
    week[r] is its 1-based week index. Its normalize(text) is
    normalized[starts[r] : starts[r + 1] - 1], the rows joined by "\n" (no
    row holds one of its own); its author is authors[author_starts[r] :
    author_starts[r + 1]], its id likewise. A str per row would add a
    49-byte header to each. A character that a str stores in 2 or 4 bytes
    widens its whole column, the rows of every chunk of the file alike.

    These columns are all that load_corpus keeps of the file. It keeps no
    text: matching, scoring (tokens) and simulate's spurious pool (tokens,
    author) read the normalized text.
    """

    first_week_end: date
    weeks: int
    seconds: np.ndarray
    week: np.ndarray
    normalized: str
    starts: np.ndarray
    authors: str
    author_starts: np.ndarray
    ids: str
    id_starts: np.ndarray
    week_totals: tuple[int, ...]
    phrases: frozenset[tuple[str, ...]] | None

    def __len__(self) -> int:
        return len(self.seconds)

    def end_dates(self) -> list[date]:
        return [self.first_week_end + timedelta(days=7 * i) for i in range(self.weeks)]

    def id(self, r: int) -> str:
        return self.ids[self.id_starts[r] : self.id_starts[r + 1]]

    def author(self, r: int) -> str:
        return self.authors[self.author_starts[r] : self.author_starts[r + 1]]

    def rows_with(self, tokens: Sequence[str]) -> np.ndarray:
        """One bool per row: whether tokens appear contiguously and in order
        in the row's tokens, the maximal runs of token characters in its
        normalized text."""
        return _rows_found([_phrase_pattern(tokens)], self.normalized, self.starts)

    def tokens(self, rows: Sequence[int]) -> Iterator[list[str]]:
        """tokenize(text) of each row's text, one row at a time, in (timestamp,
        id) order as bucket_weekly orders messages: the maximal runs of token
        characters in its normalized text. Only the order and offsets are held."""
        order = np.asarray(rows, dtype=np.int64)
        order = order[np.argsort(self.seconds[order], kind="stable")]
        # Rows of one second go by id, in Python: a numpy "U" array drops trailing NULs.
        same = np.diff(self.seconds[order]) == 0
        tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
        order[tied] = sorted(order[tied].tolist(), key=lambda r: (int(self.seconds[r]), self.id(r)))
        for block in np.split(order, np.arange(1 << 12, len(order), 1 << 12)):
            spans = zip(self.starts[block].tolist(), self.starts[block + 1].tolist())
            yield from (_TOKEN_RE.findall(self.normalized, a, b) for a, b in spans)


def load_corpus(
    path: str | Path,
    first_week_end: date,
    weeks: int,
    phrases: Iterable[Sequence[str]] | None = None,
) -> Corpus:
    """Read a JSONL corpus into a Corpus of weeks 1..weeks.

    With phrases None, equivalent to bucket_weekly(ingest(path,
    date_range), first_week_end, weeks) with date_range spanning exactly
    those weeks: it keeps the same messages, and it rejects the same files
    with the same CorpusError; its normalized column then joins the text of
    every message, so one wide character in any widens all of it. With
    phrases, a sequence of token sequences, it keeps only the messages
    whose tokens hold one of them contiguously (Corpus.rows_with), and the
    same weekly totals. Every message a query matches holds one of its
    bare terms, so a corpus read for those terms gives that query the same
    match_rows, week_scores and spurious pool on the rows it keeps, while
    its memory grows with those rows only.

    The file is read _CHUNK_CHARS characters at a time, each chunk ending
    at the end of a line, and the chunks are dealt out in turn to up to
    _SHARES processes (_read_rows), one when the file fits in one chunk.
    In each chunk, lines in the layout messages_jsonl writes are read by
    one regular expression and checked column by column, other lines are
    decoded one by one, the rows of each week are counted, rows outside
    the weeks are dropped and each text is normalized once; the text
    itself is not kept. The phrases are then searched for in the chunk's
    normalized texts, and the rows holding one are joined into its columns,
    which are concatenated once every chunk is read. Ids must be unique
    across every row read, dropped rows too; only the hash of each is kept,
    the one column that grows with the file, until the read ends. A bad
    record, or two equal hashes, start a check-only pass over a few chunks
    (_read_rows), which raises ingest's error naming the first bad line;
    when only hashes collide the load goes on. No text is tokenized here:
    a query finds its rows in the normalized text (Corpus.rows_with), and
    scoring tokenizes only the rows it scores (Corpus.tokens).
    """
    began = time.perf_counter()
    _check_week_grid(first_week_end, weeks)
    if phrases is not None:
        phrases = frozenset(map(tuple, phrases))
    shares = max(1, min(_SHARES, math.ceil(os.path.getsize(path) / _CHUNK_CHARS)))
    rows_read, totals, seconds, runs = _read_rows(path, first_week_end, weeks, phrases, shares)
    normalized, authors, ids = (_concatenated([run[i] for run in runs], sep)
                                for i, sep in enumerate(("\n", "", "")))
    corpus = Corpus(first_week_end, weeks, seconds, _week_of(seconds, first_week_end),
                    *normalized, *authors, *ids, tuple(totals.tolist()), phrases)
    log.info(
        "load_corpus %s: %d rows read by %d process(es), %d in weeks 1..%d, %d kept for %s, "
        "holding %d normalized, %d author and %d id bytes, %.3f s",
        path, rows_read, shares, sum(corpus.week_totals), weeks, len(corpus),
        "every row" if phrases is None else f"{len(phrases)} phrase(s)",
        *map(sys.getsizeof, (corpus.normalized, corpus.authors, corpus.ids)),
        time.perf_counter() - began,
    )
    _warn_empty(corpus.week_totals)
    return corpus


def _week_of(seconds: np.ndarray, first_week_end: date) -> np.ndarray:
    """The 1-based week index of each POSIX second; below 1 before week 1."""
    days = seconds // 86400 + _EPOCH_ORDINAL - first_week_end.toordinal()
    return (days + 6) // 7 + 1


# load_corpus reads this many characters at a time, plus the rest of the
# line the cut falls in.
_CHUNK_CHARS = 1 << 18
# load_corpus checks that ids are unique by their values under this.
_id_hash = hash
# load_corpus deals a file's chunks out to at most this many processes:
# the CPUs it may run on. Where the system does not say (macOS, Windows),
# one process reads.
_SHARES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _chunks(path: str | Path) -> Iterator[str]:
    """The text of a file in chunks of whole lines, as read_lines reads them."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while chunk := fh.read(_CHUNK_CHARS):
            if not chunk.endswith("\n"):
                chunk += fh.readline()
            yield chunk


def _lines_of(path: str | Path, wanted: set[int]) -> Iterator[tuple[int, str]]:
    """What read_lines(path, CorpusError) yields for the lines of the
    chunks (_chunks) whose index is in wanted."""
    line_no = 1
    for i, chunk in enumerate(itertools.islice(_chunks(path), max(wanted) + 1)):
        if i in wanted:
            lines = (m[0] for m in re.finditer(".+\n?|\n", chunk))  # only "\n" ends a line
            yield from _decoded(path, enumerate(lines, line_no), CorpusError)
        line_no += chunk.count("\n")


@_collector_paused()
def _read_rows(
    path: str | Path,
    first_week_end: date,
    weeks: int,
    phrases: frozenset[tuple[str, ...]] | None,
    shares: int,
) -> tuple[int, np.ndarray, np.ndarray, list[tuple]]:
    """The number of rows read, the number of rows in each of weeks
    1..weeks, and the POSIX seconds and, chunk by chunk, the columns
    (_read_share) of the rows of those weeks that hold one of the phrases
    (all of them when phrases is None).

    The first chunk holding a record that ingest rejects, and the chunks up
    to it holding an _id_hash two ids have, are read again line by line
    (_checked), which raises ingest's error naming the first bad line.

    shares processes read the file: this one reads share 0 and shares - 1
    forked children the others, each writing its share into a pipe as one
    pickle (_send_share), loaded here as it streams in. They are forked,
    never spawned: only a forked child keeps this process's hash secret, so
    that the id hashes of all shares compare. A child that exits before
    sending its share ends its pipe, and ChildProcessError names its exit
    code. Each child is killed, if it runs, and reaped before this ends."""
    import signal  # imported here: it adds about 1 ms to start-up

    children: list[tuple[int, BinaryIO]] = []  # (pid, the read end of its pipe)
    try:
        for share in range(1, shares):
            source, sink = (open(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb")))
            with sink:  # only the child holds it open once this closes it
                if not (pid := os.fork()):
                    _send_share(sink, path, first_week_end, weeks, phrases, share, shares)
            children.append((pid, source))
        read = [list(_read_share(path, first_week_end, weeks, phrases, 0, shares))]
        for share, (pid, source) in enumerate(children, start=1):
            try:
                read.append(pickle.load(source))
            except (EOFError, pickle.UnpicklingError):
                ended = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # reaped below
                code = ended.si_status if ended.si_code == os.CLD_EXITED else -ended.si_status
                raise ChildProcessError(
                    f"{path}: the process reading share {share} of the file exited with "
                    f"code {code} before sending it"
                ) from None
    finally:
        for pid, source in children:
            os.kill(pid, signal.SIGKILL)  # moot for a child that has sent its share
            os.waitpid(pid, 0)
            source.close()
    # Chunk i of the file is piece i // shares of share i % shares. A share
    # ends at the first chunk it rejects, so no chunk before bad is missing.
    pieces = [p for row in itertools.zip_longest(*read) for p in row if p is not None]
    bad = next((i for i, p in enumerate(pieces) if p[1] is None), None)
    pieces = pieces[: None if bad is None else bad + 1]
    hashes = np.concatenate([np.zeros(0, np.int64), *(p[0] for p in pieces)])
    hashes.sort()  # in place: a sorted copy would hold every hash a third time
    rows_read, repeated = len(hashes), hashes[1:][hashes[1:] == hashes[:-1]]  # with repeats
    del hashes  # before a check-only pass reads chunks, and the columns are concatenated
    if bad is not None or len(repeated):
        began = time.perf_counter()
        wanted = {i for i, p in enumerate(pieces) if i == bad or np.isin(p[0], repeated).any()}
        repeated = set(repeated.tolist())  # each once: np.unique would import numpy.ma
        cause = "a rejected record" if bad is not None else f"{len(repeated)} repeated id hash(es)"
        try:
            for _ in _checked(_lines_of(path, wanted), repeated):
                pass
        finally:
            log.info("load_corpus %s: check-only pass for %s, %.3f s, %d chunk(s) read line by"
                     " line", path, cause, time.perf_counter() - began, len(wanted))
        if bad is not None:
            raise RuntimeError(f"{path}: ingest accepts a record that load_corpus rejects")
    totals = sum((p[1] for p in pieces), np.zeros(weeks, np.int64))
    seconds = np.concatenate([np.zeros(0, np.int64), *(p[2] for p in pieces)])
    return rows_read, totals, seconds, [p[3] for p in pieces if p[3] is not None]


def _read_share(
    path: str | Path,
    first_week_end: date,
    weeks: int,
    phrases: frozenset[tuple[str, ...]] | None,
    share: int,
    shares: int,
) -> Iterator[tuple[np.ndarray, np.ndarray | None, np.ndarray | None, tuple | None]]:
    """For each chunk k of the file with k % shares == share, in order: the
    _id_hash of the id of every row it holds, the number of its rows in
    each of weeks 1..weeks, and the POSIX seconds and the columns (None if
    there are none) of its rows of those weeks that hold one of the
    phrases, or of all of them when phrases is None: _joined of their
    normalized texts (by "\n"), of their authors and of their ids. At a
    chunk holding a record that ingest rejects: _read_columns' ids' hashes,
    None for the rest, and no further chunk."""
    patterns = None if phrases is None else [_phrase_pattern(p) for p in phrases]
    for chunk in itertools.islice(_chunks(path), share, None, shares):
        ids, seconds, authors, texts = _read_columns(chunk)
        hashes = np.fromiter(map(_id_hash, ids), np.int64, count=len(ids))
        if seconds is None:
            yield hashes, None, None, None
            return
        week = _week_of(seconds, first_week_end)
        inside = (week >= 1) & (week <= weeks)
        counts = np.bincount(week[inside], minlength=weeks + 1)[1:]
        if not inside.all():
            seconds, ids, authors, texts = _taken(inside, seconds, ids, authors, texts)
        # Each text normalized on its own: str.lower maps Σ by its neighbours.
        normalized = list(map(normalize, texts))
        if patterns is not None:
            held = _rows_found(patterns, *_joined(normalized, "\n"))
            seconds, ids, authors, normalized = _taken(held, seconds, ids, authors, normalized)
        kept = (_joined(normalized, "\n"), _joined(authors), _joined(ids)) if ids else None
        yield hashes, counts, seconds, kept


def _taken(mask: np.ndarray, seconds: np.ndarray, *columns: list[str]) -> tuple:
    """seconds and each column, at the rows where mask is true."""
    keep = np.flatnonzero(mask).tolist()
    return seconds[mask], *([column[r] for r in keep] for column in columns)


def _send_share(sink: BinaryIO, *share_args) -> NoReturn:
    """In a forked child: write _read_share(*share_args) to sink as one
    pickle (every id's hash, but only the rows kept), then exit with code 0,
    or 1 on an error, never returning into the parent's frames."""
    code = 1
    try:
        pickle.dump(list(_read_share(*share_args)), sink, pickle.HIGHEST_PROTOCOL)
        sink.flush()
        code = 0
    except Exception:  # the parent reports the exit code; this says why
        traceback.print_exc()
    finally:
        os._exit(code)


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# A JSON string with no escapes, so its value is the text between the quotes.
_PLAIN_STRING = r'"([^"\\\x00-\x1f]*)"'
# One match per line that is not blank: either in messages_jsonl's layout
# (groups 1-4: id, timestamp without its "Z", author, text) or any other
# (group 5). Blank lines match neither, and ingest skips them too.
_LINE_RE = re.compile(
    r'^(?:\{"id": ' + _PLAIN_STRING
    + r', "timestamp": "([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2})Z"'
    + r', "author": ' + _PLAIN_STRING + r', "text": ' + _PLAIN_STRING + r"\}|(.*\S.*))$",
    re.MULTILINE,
)


def _read_columns(chunk: str) -> tuple[list[str], np.ndarray | None, list[str], list[str]]:
    """(ids, POSIX seconds, authors, texts) of every record in a chunk of
    whole lines. When some record is one that ingest rejects, apart from a
    duplicate id, seconds is None and the id of a line it cannot decode is ""."""
    rows = _LINE_RE.findall(chunk)
    if not rows:
        return [], np.zeros(0, dtype=np.int64), [], []
    ids, stamps, authors, texts, others = (list(column) for column in zip(*rows))
    del rows
    for r, line in enumerate(others) if any(others) else ():
        if not line:
            continue
        try:
            record = json_value(line, CorpusError, "line 0")
            message = message_from_record(record, line_no=0)
        except CorpusError:
            continue  # its id stays "", which rejects the chunk
        ids[r], authors[r], texts[r] = message.id, message.author, message.text
        stamps[r] = record["timestamp"][:19]
    if (not all(ids) or max(map(len, texts), default=0) > MAX_TEXT_CHARS
            or not chunk.isascii() and _STAND_IN.search(chunk)):
        return ids, None, authors, texts
    return ids, _posix_seconds(stamps), authors, texts


# POSIX second of 0001-01-01T00:00:00, the first time datetime accepts.
_YEAR_1 = (date(1, 1, 1).toordinal() - _EPOCH_ORDINAL) * 86400


def _posix_seconds(stamps: list[str]) -> np.ndarray | None:
    """POSIX seconds of "YYYY-MM-DDTHH:MM:SS" UTC strings, or None if any of
    them is not a time datetime accepts (year 0, February 30, hour 24, ...).
    numpy's parser checks every field's range but allows year 0."""
    try:
        seconds = np.array(stamps, dtype="datetime64[s]").astype(np.int64)
    except ValueError:
        return None
    return seconds if (seconds >= _YEAR_1).all() else None


def _preview(ids: Sequence[str], limit: int = 5) -> str:
    shown = ", ".join(repr(i) for i in ids[:limit])
    if len(ids) > limit:
        shown += f", ... ({len(ids) - limit} more)"
    return shown


def load_ili_csv(path: str | Path) -> list[tuple[date, float]]:
    """Read a weekly ILI series: header 'week_ending,ili_pct', one row per week.

    week_ending values must be consecutive Saturdays; ili_pct is a percentage
    strictly inside (0, 100). Returns [(end_date, pct), ...] in week order.
    """
    rows: list[tuple[date, float]] = []
    lines = read_lines(path, CorpusError)
    header = next(lines, (1, ""))[1].strip()
    if header != "week_ending,ili_pct":
        raise CorpusError(
            f"ILI file {path}: expected header 'week_ending,ili_pct', got {header!r}"
        )
    for line_no, line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CorpusError(f"ILI file line {line_no}: expected 2 fields")
        try:
            end = date.fromisoformat(parts[0])
        except ValueError:
            raise CorpusError(
                f"ILI file line {line_no}: bad date {parts[0]!r}"
            ) from None
        try:
            pct = float(parts[1])
        except ValueError:
            raise CorpusError(
                f"ILI file line {line_no}: bad percentage {parts[1]!r}"
            ) from None
        if not 0.0 < pct < 100.0:
            raise CorpusError(
                f"ILI file line {line_no}: ili_pct must be in (0, 100), got {pct}"
            )
        if end.weekday() != SATURDAY:
            raise CorpusError(f"ILI file line {line_no}: {end} is not a Saturday")
        if end.toordinal() < 7:
            raise CorpusError(
                f"ILI file line {line_no}: the week ending {end} starts before {date.min}"
            )
        if rows and (end - rows[-1][0]).days != 7:
            raise CorpusError(
                f"ILI file line {line_no}: {end} does not follow {rows[-1][0]} by 7 days"
            )
        rows.append((end, pct))
    if not rows:
        raise CorpusError(f"ILI file {path}: no data rows")
    return rows

"""Message corpus handling: ingestion, tokenization, and weekly bucketing.

A corpus is a collection of short timestamped text messages. Messages are
grouped into epidemiological weeks ending on Saturdays, matching the weekly
cadence of public ILI surveillance data.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import logging
import math
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


def read_lines(path: str | Path, error: type[ValueError]) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a UTF-8 text file, split as
    open() splits it. A byte that is not UTF-8 raises error, naming the
    file and the line that holds it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            raw = Path(path).read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                # open() ends a line at "\n", "\r\n" or a lone "\r".
                head = raw[: exc.start].decode("utf-8")
                line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
                raise error(f"{path}: line {line}: not valid UTF-8 ({exc.reason})") from None
            raise


def read_text(path: str | Path, error: type[ValueError]) -> str:
    """Path(path).read_text(encoding="utf-8"), raising error as read_lines does."""
    return "".join(line for _, line in read_lines(path, error))


def read_records(path: str | Path, error: type[ValueError]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each line of a JSONL file that is not
    blank. A line that is not UTF-8, not JSON or not a JSON object raises
    error, naming the line."""
    for line_no, line in read_lines(path, error):
        # isspace instead of strip(): no per-line copy of the whole text
        if not line or line.isspace():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"line {line_no}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise error(f"line {line_no}: expected a JSON object")
        yield line_no, record


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
    messages = [msg for msg in _checked(path) if start <= msg.timestamp.date() <= end]
    messages.sort(key=lambda m: (m.timestamp, m.id))
    return messages


def _checked(path: str | Path) -> Iterator[Message]:
    """Each message of a JSONL file in file order. A malformed line, or an
    id an earlier line holds, raises CorpusError naming the line. Only the
    line number of each id is kept."""
    seen: dict[str, int] = {}
    for line_no, record in read_records(path, CorpusError):
        msg = message_from_record(record, line_no)
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


@dataclass(frozen=True, eq=False)
class Block:
    """The rows one chunk of the file kept, as strings with offsets. Row i's
    normalize(text) is normalized[starts[i] : starts[i + 1] - 1], the rows
    joined by "\n" (no row holds one of its own); its author is
    authors[author_starts[i] : author_starts[i + 1]], its id likewise."""

    normalized: str
    starts: np.ndarray
    authors: str
    author_starts: np.ndarray
    ids: str
    id_starts: np.ndarray


def _joined(pieces: list[str], sep: str = "") -> tuple[str, np.ndarray]:
    """pieces joined by sep, piece i at offsets[i] : offsets[i + 1] -
    len(sep). The offsets are int32 when the joined string allows: a
    chunk's normalized text is bounded, but an author or id is not."""
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, pieces), np.int64, len(pieces)) + len(sep), out=offsets[1:])
    if offsets[-1] <= np.iinfo(np.int32).max:
        offsets = offsets.astype(np.int32)
    return sep.join(pieces), offsets


@dataclass(frozen=True, eq=False)
class Corpus:
    """The messages of weeks 1..weeks as columns: what
    bucket_weekly(ingest(...)) holds, without one object per message.

    Rows are in file order. Row r was posted at POSIX second seconds[r];
    week[r] is its 1-based week index. Its text, author and id are row
    r - row0[b] of blocks[b], the last block with row0[b] <= r. Blocks are
    never joined, so nothing copies every text at once, and a character
    that a str stores in 2 or 4 bytes widens only its own block.

    These columns are all that load_corpus keeps of the file. It keeps no
    text: matching, scoring (tokens) and simulate's spurious pool (tokens,
    author) read the normalized text.
    """

    first_week_end: date
    weeks: int
    seconds: np.ndarray
    week: np.ndarray
    row0: tuple[int, ...]
    blocks: tuple[Block, ...]

    def __len__(self) -> int:
        return len(self.seconds)

    def end_dates(self) -> list[date]:
        return [self.first_week_end + timedelta(days=7 * i) for i in range(self.weeks)]

    def totals(self) -> list[int]:
        """Number of messages in each week, weeks 1..weeks."""
        return np.bincount(self.week, minlength=self.weeks + 1)[1:].tolist()

    def _locate(self, r: int) -> tuple[Block, int]:
        b = bisect.bisect_right(self.row0, r) - 1
        return self.blocks[b], r - self.row0[b]

    def id(self, r: int) -> str:
        block, i = self._locate(r)
        return block.ids[block.id_starts[i] : block.id_starts[i + 1]]

    def author(self, r: int) -> str:
        block, i = self._locate(r)
        return block.authors[block.author_starts[i] : block.author_starts[i + 1]]

    def rows_with(self, tokens: Sequence[str]) -> np.ndarray:
        """One bool per row: whether tokens appear contiguously and in order
        in the row's tokens.

        A row's tokens are its maximal runs of token characters in its
        block's normalized text, so the phrase is its tokens, a token
        character on neither side, and runs of other characters between
        them that stay inside the row. The first token leads the pattern,
        so the engine finds it by plain string search."""
        first = re.escape(tokens[0])
        pattern = f"{first}(?<![{_TOKEN_CHARS}]{first})"
        for token in tokens[1:]:
            pattern += f"[^{_TOKEN_CHARS}\\n]+{re.escape(token)}"
        found = re.compile(pattern + f"(?![{_TOKEN_CHARS}])")
        rows = np.zeros(len(self), dtype=bool)
        for row0, block in zip(self.row0, self.blocks):
            at = np.fromiter((m.start() for m in found.finditer(block.normalized)), np.int64)
            rows[row0 + np.searchsorted(block.starts, at, side="right") - 1] = True
        return rows

    def tokens(self, rows: Iterable[int]) -> list[list[str]]:
        """tokenize(text) of each row's text, in (timestamp, id) order as
        bucket_weekly orders messages: a row's tokens are the maximal runs
        of token characters in its part of its block's normalized text."""
        ordered = sorted(map(int, rows), key=lambda r: (int(self.seconds[r]), self.id(r)))
        return [
            _TOKEN_RE.findall(block.normalized, *block.starts[i : i + 2])
            for block, i in map(self._locate, ordered)
        ]


def load_corpus(path: str | Path, first_week_end: date, weeks: int) -> Corpus:
    """Read a JSONL corpus into a Corpus of weeks 1..weeks.

    Equivalent to bucket_weekly(ingest(path, date_range), first_week_end,
    weeks) with date_range spanning exactly those weeks: it keeps the same
    messages, and it rejects the same files with the same CorpusError.

    The file is read _CHUNK_CHARS characters at a time, each chunk ending
    at the end of a line, and the rows each chunk keeps become one Block,
    so only the columns of the rows kept grow with the file. The chunks are
    dealt out in turn to up to _SHARES processes (_read_rows), one when the
    file fits in one chunk. In each chunk, lines in the layout
    messages_jsonl writes are read by one regular expression and checked
    column by column, other lines are decoded one by one, rows outside the
    weeks are dropped and each text is normalized once; the text itself is
    not kept. Ids must be unique across every row read, dropped rows too;
    only the hash of each is kept. When any check fails, or two hashes are
    equal, a check-only pass over the file (_checked, as ingest reads it)
    raises ingest's error, which names the first bad line; it keeps no
    message, and the file is read again when only the hashes collide. No
    text is tokenized here: a query finds its rows in the normalized text
    (Corpus.rows_with), and scoring tokenizes only the rows it scores
    (Corpus.tokens).
    """
    began = time.perf_counter()
    _check_week_grid(first_week_end, weeks)
    start = first_week_end - timedelta(days=6)
    end = first_week_end + timedelta(days=7 * (weeks - 1))
    shares = max(1, min(_SHARES, math.ceil(os.path.getsize(path) / _CHUNK_CHARS)))
    read = _read_rows(path, start, end, shares)
    if read is None or (read[0][1:] == read[0][:-1]).any():
        rejected = read is None
        del read  # the columns go first: the check-only pass keeps one line number per id
        for _ in _checked(path):  # raises, naming the first bad line
            pass
        if rejected:
            raise RuntimeError(f"{path}: ingest accepts a record that load_corpus rejects")
        read = _read_rows(path, start, end, shares)  # only two hashes were equal
    hashes, seconds, blocks = read
    days = seconds // 86400 + _EPOCH_ORDINAL - first_week_end.toordinal()
    row0 = tuple(np.cumsum([0, *(len(b.starts) - 1 for b in blocks)])[:-1].tolist())
    corpus = Corpus(first_week_end, weeks, seconds, (days + 6) // 7 + 1, row0, tuple(blocks))
    sizes = [sum(sys.getsizeof(getattr(b, name)) for b in blocks)
             for name in ("normalized", "authors", "ids")]
    log.info(
        "load_corpus %s: %d rows read by %d process(es), %d kept in weeks 1..%d, %d blocks "
        "holding %d normalized, %d author and %d id bytes, %.3f s",
        path, len(hashes), shares, len(corpus), weeks, len(blocks), *sizes,
        time.perf_counter() - began,
    )
    _warn_empty(corpus.totals())
    return corpus


# load_corpus reads this many characters at a time, plus the rest of the
# line the cut falls in.
_CHUNK_CHARS = 1 << 20
# load_corpus checks that ids are unique by their values under this.
_id_hash = hash
# load_corpus deals a file's chunks out to at most this many processes:
# the CPUs it may run on. Where the system does not say (macOS, Windows,
# where multiprocessing does not fork by default), one process reads.
_SHARES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# What a process reading a share sends after its last chunk.
_END = "end of share"


def _chunks(path: str | Path) -> Iterator[str]:
    """The text of a UTF-8 file in chunks of whole lines, split and with
    line endings as open() reads them."""
    with open(path, "r", encoding="utf-8") as fh:
        while chunk := fh.read(_CHUNK_CHARS):
            if not chunk.endswith("\n"):
                chunk += fh.readline()
            yield chunk


@_collector_paused()
def _read_rows(
    path: str | Path, start: date, end: date, shares: int
) -> tuple[np.ndarray, np.ndarray, list[Block]] | None:
    """The sorted _id_hash of the id of every row read, and the POSIX
    seconds and the Blocks of the rows dated start..end; or None when some
    record is one that ingest rejects.

    shares processes read the file: this one reads share 0 and shares - 1
    forked children read the others (_read_share), each opening the file
    itself and sending back what it read one chunk at a time. The children
    are forked, never spawned: the id hashes of every share are compared
    with each other, and only a forked child keeps this process's hash
    secret, so that hash(str) gives the same value in every share. A child
    that exits before sending _END ends its pipe, and ChildProcessError
    names its exit code."""
    if shares > 1:
        import multiprocessing  # imported here: it adds about 16 ms to start-up

        context = multiprocessing.get_context("fork")
    children = []
    try:
        for share in range(1, shares):
            reader, writer = context.Pipe(duplex=False)
            args = (writer, path, start, end, share, shares)
            process = context.Process(target=_send_share, args=args, daemon=True)
            process.start()
            children.append((process, reader))
            writer.close()  # only the child holds it now
        read = [list(_read_share(path, start, end, 0, shares))]
        for share, (process, reader) in enumerate(children, start=1):
            if None in read[-1]:
                break
            read.append([])
            try:
                while (piece := reader.recv()) != _END:
                    read[-1].append(piece)
            except (EOFError, OSError):
                process.join()
                raise ChildProcessError(
                    f"{path}: the process reading share {share} of the file exited with "
                    f"code {process.exitcode} before sending all of it"
                ) from None
    finally:
        for process, reader in children:
            process.terminate()
            process.join()
            reader.close()
    if None in read[-1]:
        return None
    # Chunk i of the file is piece i // shares of share i % shares.
    pieces = [read[i % shares][i // shares] for i in range(sum(map(len, read)))]
    del read
    hashes = np.sort(np.concatenate([np.zeros(0, np.int64), *(p[0] for p in pieces)]))
    seconds = np.concatenate([np.zeros(0, np.int64), *(p[1] for p in pieces)])
    return hashes, seconds, [p[2] for p in pieces if p[2] is not None]


def _read_share(
    path: str | Path, start: date, end: date, share: int, shares: int
) -> Iterator[tuple[np.ndarray, np.ndarray, Block | None] | None]:
    """For each chunk k of the file with k % shares == share, in order: the
    _id_hash of the id of every row it holds, and the POSIX seconds and the
    Block (None if there are none) of its rows dated start..end. Yields None
    and stops at a chunk holding a record that ingest rejects."""
    try:
        for chunk in itertools.islice(_chunks(path), share, None, shares):
            columns = _read_columns(chunk)
            if columns is None:
                yield None
                return
            ids, seconds, authors, texts = columns
            hashes = np.fromiter(map(_id_hash, ids), np.int64, count=len(ids))
            ordinal = seconds // 86400 + _EPOCH_ORDINAL
            inside = (ordinal >= start.toordinal()) & (ordinal <= end.toordinal())
            if not inside.all():
                keep = np.flatnonzero(inside).tolist()
                ids, authors, texts = ([col[r] for r in keep] for col in (ids, authors, texts))
                seconds = seconds[inside]
            if not ids:
                yield hashes, seconds, None
                continue
            # Each text normalized on its own: str.lower maps Σ by its neighbours.
            normalized = _joined(list(map(normalize, texts)), "\n")
            yield hashes, seconds, Block(*normalized, *_joined(authors), *_joined(ids))
    except UnicodeDecodeError:
        yield None  # the check-only pass names the line


def _send_share(writer, path: str | Path, start: date, end: date, share: int, shares: int):
    """In a forked child: send each piece of a share as it is read, then
    _END. One thread sends while this one reads on, so a parent still busy
    with its own share never holds this one up. A piece that cannot be sent
    raises, and _END is never sent."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as sender:
        pieces = _read_share(path, start, end, share, shares)
        sent = [sender.submit(writer.send, piece) for piece in pieces]
    for future in sent:
        future.result()
    writer.send(_END)


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


def _read_columns(chunk: str) -> tuple[list[str], np.ndarray, list[str], list[str]] | None:
    """(ids, POSIX seconds, authors, texts) of every record in a chunk of
    whole lines, or None when some record is one that ingest rejects, apart
    from a duplicate id."""
    rows = _LINE_RE.findall(chunk)
    if not rows:
        return [], np.zeros(0, dtype=np.int64), [], []
    ids, stamps, authors, texts, others = (list(column) for column in zip(*rows))
    del rows
    for r, line in enumerate(others) if any(others) else ():
        if not line:
            continue
        try:
            record = json.loads(line)
            message = message_from_record(record, line_no=0)
        except (json.JSONDecodeError, CorpusError):
            return None  # ingest re-reads the file and names the line
        ids[r], authors[r], texts[r] = message.id, message.author, message.text
        stamps[r] = record["timestamp"][:19]
    if not all(ids) or max(map(len, texts), default=0) > MAX_TEXT_CHARS:
        return None
    seconds = _posix_seconds(stamps)
    if seconds is None:
        return None
    return ids, seconds, authors, texts


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
        if rows and (end - rows[-1][0]).days != 7:
            raise CorpusError(
                f"ILI file line {line_no}: {end} does not follow {rows[-1][0]} by 7 days"
            )
        rows.append((end, pct))
    if not rows:
        raise CorpusError(f"ILI file {path}: no data rows")
    return rows

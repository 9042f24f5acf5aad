"""Boolean keyword queries: parsing, matching one tokenized message, and
matching every row of a corpus's columns at once (match_rows). The weekly
fractions of the matches are classify's.

Grammar, by example:

    flu cough "sore throat"     any of the base terms may appear (OR)
    flu +shot                   'shot' must also appear
    flu +(shot vaccine)         at least one of the group must appear
    flu -(swine h1n1)           none of the group may appear

A term is a contiguous token phrase of 1 to 3 tokens. Multi-token terms are
written in double quotes; a small set of well-known phrases ("sore throat")
is also recognized unquoted. Base terms are OR-ed; each +group must be
satisfied; any hit in a -group disqualifies the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, TokenizedMessage, WeekBucket, tokenize


class QueryParseError(ValueError):
    """Raised when query text violates the grammar. Carries a position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class QueryError(ValueError):
    """Raised for structurally invalid queries or unusable buckets."""


# Unquoted multi-word sequences recognized as single phrase terms.
KNOWN_PHRASES: frozenset[tuple[str, ...]] = frozenset(
    {
        ("sore", "throat"),
        ("runny", "nose"),
        ("stuffy", "nose"),
        ("swine", "flu"),
        ("bird", "flu"),
        ("stomach", "flu"),
        ("flu", "shot"),
        ("flu", "season"),
        ("body", "aches"),
        ("associated", "press"),
        ("health", "officials"),
    }
)

MAX_TERM_TOKENS = 3


@dataclass(frozen=True, slots=True)
class Term:
    """A contiguous token phrase of 1..3 tokens."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.tokens) <= MAX_TERM_TOKENS:
            raise QueryError(
                f"term must have 1..{MAX_TERM_TOKENS} tokens, got {self.tokens!r}"
            )
        for tok in self.tokens:
            if tokenize(tok) != [tok]:
                raise QueryError(f"{tok!r} is not a single normalized token")

    def render(self) -> str:
        text = " ".join(self.tokens)
        return f'"{text}"' if len(self.tokens) > 1 else text

    def found_in(self, tokens: Sequence[str]) -> bool:
        """True when this phrase appears contiguously and in order."""
        mine = self.tokens
        if len(mine) == 1:
            return mine[0] in tokens
        k = len(mine)
        first = mine[0]
        for i in range(len(tokens) - k + 1):
            if tokens[i] == first and tuple(tokens[i : i + k]) == mine:
                return True
        return False


@dataclass(frozen=True, slots=True)
class Query:
    """A parsed boolean keyword query.

    base_terms: at least one must appear.
    required: every group must have at least one hit.
    excluded: any hit in any group rejects the message.
    Set semantics throughout: duplicates collapse, order never matters.
    """

    base_terms: frozenset[Term]
    required: frozenset[frozenset[Term]] = frozenset()
    excluded: frozenset[frozenset[Term]] = frozenset()

    def __post_init__(self) -> None:
        if not self.base_terms:
            raise QueryError("query must have at least one base term")
        for group in self.required | self.excluded:
            if not group:
                raise QueryError("required/excluded groups must be non-empty")
        required_terms = {t for g in self.required for t in g}
        excluded_terms = {t for g in self.excluded for t in g}
        overlap = required_terms & excluded_terms
        if overlap:
            names = ", ".join(sorted(t.render() for t in overlap))
            raise QueryError(f"term(s) both required and excluded: {names}")

    def render(self) -> str:
        """Canonical text form: base terms, then +groups, then -groups,
        each section sorted, single-term groups written without parentheses."""
        parts = _render_terms(self.base_terms)
        parts.extend(_render_groups(self.required, "+"))
        parts.extend(_render_groups(self.excluded, "-"))
        return " ".join(parts)


def _render_terms(terms: Iterable[Term]) -> list[str]:
    """Render a term set in sorted order, quoting any bare single token that
    would otherwise fuse with its neighbors into a known phrase on re-parse.
    This keeps parse_query(q.render()) == q exact."""
    ordered = sorted(terms, key=lambda t: t.render())
    out = [t.render() for t in ordered]

    def hazard() -> int:
        for i in range(len(ordered)):
            for span in (3, 2):
                window = list(range(i, i + span))
                if window[-1] >= len(ordered):
                    continue
                if any(len(ordered[j].tokens) != 1 or out[j].startswith('"') for j in window):
                    continue
                if tuple(ordered[j].tokens[0] for j in window) in KNOWN_PHRASES:
                    return i
        return -1

    i = hazard()
    while i >= 0:
        out[i] = f'"{ordered[i].tokens[0]}"'
        i = hazard()
    return out


def _render_groups(groups: frozenset[frozenset[Term]], sign: str) -> list[str]:
    rendered = []
    for group in groups:
        inner = _render_terms(group)
        if len(inner) == 1:
            rendered.append(f"{sign}{inner[0]}")
        else:
            rendered.append(f"{sign}({' '.join(inner)})")
    return sorted(rendered)


def matches(query: Query, message: TokenizedMessage) -> bool:
    """Evaluate the query against one tokenized message."""
    return matches_tokens(query, message.tokens)


def matches_tokens(query: Query, tokens: Sequence[str]) -> bool:
    """matches() of a message with these tokens."""
    # Plain loops instead of any(genexpr): this runs once per message per
    # query, and the generator frames dominate the cost on large corpora.
    for t in query.base_terms:
        if t.found_in(tokens):
            break
    else:
        return False
    for group in query.required:
        for t in group:
            if t.found_in(tokens):
                break
        else:
            return False
    for group in query.excluded:
        for t in group:
            if t.found_in(tokens):
                return False
    return True


def count_matches(query: Query, bucket: WeekBucket) -> int:
    return sum(1 for m in bucket.messages if matches(query, m))


# --- parsing -----------------------------------------------------------------


def _read_chunk(text: str, i: int) -> tuple[str, bool, int, int]:
    """Read one whitespace-delimited chunk or quoted span starting at i.

    Returns (content, was_quoted, start_position, next_index).
    """
    start = i
    if text[i] == '"':
        j = text.find('"', i + 1)
        if j < 0:
            raise QueryParseError("unterminated quote", position=i)
        return text[i + 1 : j], True, start, j + 1
    j = i
    while j < len(text) and not text[j].isspace() and text[j] not in '()"':
        j += 1
    return text[i:j], False, start, j


def _merge_phrases(
    units: list[tuple[tuple[str, ...], bool, int] | None],
) -> list[Term]:
    """Turn (tokens, quoted, pos) units into Terms, joining adjacent unquoted
    single-token units that form a known phrase. Longest match wins. A None
    entry is a barrier: units on opposite sides of one never merge."""
    terms: list[Term] = []
    i = 0
    while i < len(units):
        unit = units[i]
        if unit is None:
            i += 1
            continue
        tokens, quoted, pos = unit
        if not quoted and len(tokens) == 1:
            merged = False
            for span in (3, 2):
                if i + span > len(units):
                    continue
                window = units[i : i + span]
                if any(u is None or u[1] or len(u[0]) != 1 for u in window):
                    continue
                candidate = tuple(u[0][0] for u in window)
                if candidate in KNOWN_PHRASES:
                    terms.append(Term(tokens=candidate))
                    i += span
                    merged = True
                    break
            if merged:
                continue
        try:
            terms.append(Term(tokens=tokens))
        except QueryError as exc:
            raise QueryParseError(str(exc), position=pos) from None
        i += 1
    return terms


def _units_from_text(text: str, offset: int) -> list[tuple[tuple[str, ...], bool, int]]:
    """Scan plain term text (no signs, no parens) into tokenized units."""
    units: list[tuple[tuple[str, ...], bool, int]] = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if text[i] in "()+-":
            raise QueryParseError(
                f"unexpected {text[i]!r} inside group", position=offset + i
            )
        chunk, quoted, pos, i = _read_chunk(text, i)
        tokens = tuple(tokenize(chunk))
        if not tokens:
            raise QueryParseError(
                f"chunk {chunk!r} contains no tokens", position=offset + pos
            )
        units.append((tokens, quoted, offset + pos))
    return units


def parse_query(text: str) -> Query:
    """Parse query text into a Query. Inverse of Query.render up to canonical
    ordering: parse_query(q.render()) == q for every valid q."""
    base_units: list[tuple[tuple[str, ...], bool, int] | None] = []
    required: list[frozenset[Term]] = []
    excluded: list[frozenset[Term]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-":
            # A sign group interrupts base-term adjacency, so tokens on
            # either side of it must not fuse into a phrase.
            if base_units and base_units[-1] is not None:
                base_units.append(None)
            sign_pos = i
            i += 1
            if i < n and text[i] == "(":
                close = text.find(")", i + 1)
                if close < 0:
                    raise QueryParseError("unbalanced '('", position=i)
                inner = text[i + 1 : close]
                units = _units_from_text(inner, offset=i + 1)
                if not units:
                    raise QueryParseError("empty group", position=sign_pos)
                group = frozenset(_merge_phrases(units))
                i = close + 1
            else:
                if i >= n or text[i].isspace():
                    raise QueryParseError(f"dangling {c!r}", position=sign_pos)
                chunk, quoted, pos, i = _read_chunk(text, i)
                tokens = tuple(tokenize(chunk))
                if not tokens:
                    raise QueryParseError(
                        f"chunk {chunk!r} contains no tokens", position=pos
                    )
                group = frozenset(_merge_phrases([(tokens, quoted, pos)]))
            if c == "+":
                required.append(group)
            else:
                excluded.append(group)
        elif c in "()":
            raise QueryParseError(f"unexpected {c!r}", position=i)
        else:
            chunk, quoted, pos, i = _read_chunk(text, i)
            tokens = tuple(tokenize(chunk))
            if not tokens:
                raise QueryParseError(f"chunk {chunk!r} contains no tokens", position=pos)
            base_units.append((tokens, quoted, pos))
    if not base_units:
        raise QueryParseError("query must have at least one base term", position=0)
    try:
        return Query(
            base_terms=frozenset(_merge_phrases(base_units)),
            required=frozenset(required),
            excluded=frozenset(excluded),
        )
    except QueryError as exc:
        raise QueryParseError(str(exc)) from None


# The fixed gate query used for classifier candidacy and spurious pools.
GATE_QUERY_TEXT = 'flu cough headache "sore throat"'
GATE_QUERY = parse_query(GATE_QUERY_TEXT)


# --- columnar matching -------------------------------------------------------


def match_rows(query: Query, corpus: Corpus) -> np.ndarray:
    """Boolean per corpus row: matches(query, that row's message).

    A corpus read for some phrases keeps only the rows holding one of
    them, so it must have been read for every bare term of the query: a
    matching message holds one of those, and no other row can match."""
    if corpus.phrases is not None:
        missing = [t for t in query.base_terms if t.tokens not in corpus.phrases]
        if missing:
            raise QueryError(
                f"the corpus was read for {len(corpus.phrases)} phrase(s), not for "
                f"{' '.join(_render_terms(missing))}, so it cannot count the query's matches"
            )
    rows = corpus.rows_with(*(term.tokens for term in query.base_terms))
    for group in query.required:
        rows &= corpus.rows_with(*(term.tokens for term in group))
    for group in query.excluded:
        rows &= ~corpus.rows_with(*(term.tokens for term in group))
    return rows


"""Tiny factories and fixtures shared across test modules."""

import tempfile
from datetime import datetime, timezone

import pytest

from ilitrack.corpus import Message, tokenize_message


def utc(year, month, day, hour=0, minute=0, second=0):
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


def msg(id="m1", ts=None, author="someone", text="hello world"):
    if ts is None:
        ts = utc(2009, 9, 1, 12)
    return Message(id=id, timestamp=ts, author=author, text=text)


def tmsg(text, id="m1", ts=None, author="someone"):
    return tokenize_message(msg(id=id, ts=ts, author=author, text=text))


@pytest.fixture
def spill_root(tmp_path, monkeypatch):
    """The directory tempfile makes its directories in for this test, and
    the list of the TemporaryDirectory objects it makes."""
    root, made, temporary = tmp_path / "tmp", [], tempfile.TemporaryDirectory
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))

    def recorded(*args, **kwargs):
        made.append(temporary(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryDirectory", recorded)
    return root, made

"""The readers and printers against the table pinned by tests/readertable.py."""

import json

import pytest

from ccgparse.lexicon import parse_lexicon
from readertable import TABLE, chunk_stream, reader_row


def table(kind):
    with TABLE.open(encoding="utf-8") as f:
        return [row[1:] for row in map(json.loads, f) if row[0] == kind]


def first_differences(got, want, limit=5):
    """(input, got, pinned) for the first rows where the two differ."""
    return [(row[0], g, row[1:]) for g, row in zip(got, want) if g != row[1:]][:limit]


@pytest.mark.parametrize("kind", ["reader", "lexicon"])
def test_table_has_rows(kind):
    assert len(table(kind)) >= 400


def test_readers_match_the_table():
    want = table("reader")
    got = [reader_row(text) for text, *_ in want]
    assert first_differences(got, want) == []


def test_lexicon_chunks_and_issues_match_the_table():
    want = table("lexicon")
    got = [[chunk_stream(text), [str(i) for i in parse_lexicon(text)[1]]] for text, *_ in want]
    assert first_differences(got, want) == []

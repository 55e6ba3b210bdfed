"""The reader table: seeded inputs and what the readers make of them.

Each row of ``tests/golden/readers.jsonl`` is a JSON list.  A reader row is
``["reader", text, category, term, rendered, key, printed]``: the outcome of
``parse_category`` and of ``parse_term`` on the text, either the ``repr`` of
the result or ``"<ExceptionName>: <message>"``, then ``render_category`` and
``category_key`` of the category and ``pretty_print`` of the term the text
reads as, each ``null`` where the text is no category or no term, so the
printers are pinned byte for byte.  A lexicon row is
``["lexicon", text, chunks, issues]``: the ``[line, text, terminated]``
chunks the lexicon reader splits the text into (blank chunks, which
``parse_lexicon`` skips, are left out) and the issues ``parse_lexicon``
reports.

Inputs are corpus categories and logical forms with random edits, corpus
categories with a ``?`` put before a name or attribute, random
strings over the fuzz alphabets of ``test_fuzz.py`` and a few arbitrary
characters, and lexicon texts assembled from entries, directives, comments
and junk.  Regenerate the table with ``PYTHONPATH=src python tests/readertable.py``.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import ccgparse
from ccgparse import lexicon as lx
from ccgparse import logical_form as lf
from ccgparse.category import category_key, parse_category, render_category
from test_fuzz import CATEGORY_CHARS, LF_CHARS

TABLE = Path(__file__).parent / "golden" / "readers.jsonl"

# whitespace and line breaks that str.split and str.splitlines know about
ODD_CHARS = "\t\r\n\x0b\x0c\x1c\x1e\x85\xa0 　#;:=\"é٣"
JUNK_CHARS = ':=;/\\()"*.[]xNPS #?\n'


def corpus_pieces() -> tuple[list[str], list[str]]:
    """The categories and logical forms written in the shipped grammar and suite."""
    categories, terms = [], []
    for raw in ccgparse.fragment_path().read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0]
        if ":=" not in line:
            continue
        _, _, rest = line.partition(":=")
        cat, _, term = rest.rstrip().rstrip(";").partition(" : ")
        categories.append(cat.strip())
        terms.append(term.strip())
    for raw in ccgparse.corpus_path().read_text(encoding="utf-8").splitlines():
        parts = raw.split("\t")
        if len(parts) == 3 and parts[2].strip() != "-" and not raw.startswith("#"):
            terms.extend(p.strip() for p in parts[2].split("|"))
    return categories, terms


def mutate(rng: random.Random, text: str, alphabet: str) -> str:
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(text))
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1 :]
        elif op == 2:
            text = text[:i] + rng.choice(alphabet) + text[i + 1 :]
        elif op == 3:
            j = rng.randint(0, len(text))
            text = text[: min(i, j)] + text[max(i, j) :]
        else:
            j = rng.randint(0, len(text))
            text = text[:i] + text[min(i, j) : max(i, j)] + text[i:]
    return text


def reader_inputs(rng: random.Random) -> list[str]:
    categories, terms = corpus_pieces()
    out = list(categories) + list(terms)
    for _ in range(600):
        out.append(mutate(rng, rng.choice(categories), CATEGORY_CHARS))
    for _ in range(500):
        out.append(mutate(rng, rng.choice(terms), LF_CHARS))
    for _ in range(150):  # a feature variable where a name or attribute stands
        cat = rng.choice(categories)
        i = rng.choice([m.start() for m in re.finditer(r"\b[A-Za-z]", cat)])
        out.append(cat[:i] + "?" + cat[i:])
    for _ in range(300):
        out.append("".join(rng.choice(CATEGORY_CHARS) for _ in range(rng.randint(0, 24))))
    for _ in range(300):
        out.append("".join(rng.choice(LF_CHARS) for _ in range(rng.randint(0, 24))))
    for _ in range(120):
        out.append("".join(rng.choice(ODD_CHARS + CATEGORY_CHARS + LF_CHARS) for _ in range(rng.randint(0, 12))))
    return out


def lexicon_texts(rng: random.Random) -> list[str]:
    categories, terms = corpus_pieces()
    words = ["a", "b", "up", "the bucket"]
    pieces = [
        lambda: f"{rng.choice(words)} := {rng.choice(categories)} : {rng.choice(terms)}{rng.choice(['', ' [lexc+]'])} ;",
        lambda: f"{rng.choice(words)} := {rng.choice(categories)} : {rng.choice(terms)}",
        lambda: f"{rng.choice(words)} := {rng.choice(categories)}\n  : {rng.choice(terms)} ;",
        lambda: rng.choice(["set weight_threshold 2 ;", "set default_modality x ;", "atoms Deg, Foo ;", ";", " ; ;"]),
        lambda: rng.choice(["# a comment", '# "quoted" ;', '  # := ;']),
        lambda: f'w := (S\\NP)/*"a # b" : \\x. f x ;  # {rng.choice(words)} := NP',
        lambda: "".join(rng.choice(JUNK_CHARS) for _ in range(rng.randint(0, 16))),
        lambda: "".join(rng.choice(ODD_CHARS + JUNK_CHARS) for _ in range(rng.randint(0, 8))),
    ]
    out = []
    for _ in range(400):
        lines = [rng.choice(pieces)() for _ in range(rng.randint(1, 6))]
        sep = rng.choice(["\n", "\n", "\r\n", " ", "\n\n"])
        text = sep.join(lines) + rng.choice(["", "\n"])
        out.append(mutate(rng, text, JUNK_CHARS) if rng.random() < 0.3 else text)
    return out


def outcome(read, text: str) -> str:
    try:
        return repr(read(text))
    except Exception as exc:  # noqa: BLE001 -- the table records every escape
        return f"{type(exc).__name__}: {exc}"


def printed(read, text: str, *printers) -> list:
    """What each printer makes of what read makes of the text, each None where read raises."""
    try:
        value = read(text)
    except Exception:  # noqa: BLE001 -- outcome records the escape
        return [None] * len(printers)
    return [show(value) for show in printers]


def reader_row(text: str) -> list:
    """A reader row after its tag and text."""
    return [
        outcome(parse_category, text),
        outcome(lf.parse_term, text),
        *printed(parse_category, text, render_category, category_key),
        *printed(lf.parse_term, text, lf.pretty_print),
    ]


def chunk_stream(text: str) -> list[list]:
    return [list(chunk) for chunk in lx._chunks(text)]


def rows(seed: int = 0) -> list[list]:
    rng = random.Random(seed)
    out: list[list] = []
    for text in reader_inputs(rng):
        out.append(["reader", text, *reader_row(text)])
    for text in lexicon_texts(rng):
        out.append(["lexicon", text, chunk_stream(text), [str(i) for i in lx.parse_lexicon(text)[1]]])
    return out


def main() -> int:
    with TABLE.open("w", encoding="utf-8") as f:
        for row in rows():
            f.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

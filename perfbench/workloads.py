"""Seeded request streams for the three workloads and their output oracles.

A request is one ``ccgparse.cli.main(argv)`` call.  Each request carries a
``check(exit_code, stdout)`` that returns ``None`` when the output is right
and a description of the problem otherwise.  The oracles never call into
ccgparse: the expected readings are derived here from the shipped
fragment's entries by hand, and output is read back from the ASCII
``reading i:`` headers or with ``json.loads``.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

WORKLOADS = ("suite", "coord", "modstack")

# coordination chains: "S1 V1 and ... S6 V6 the bucket"
SUBJECTS = {"John": "j", "Mary": "m", "I": "i", "You": "you"}
VERBS = {"kicked": "kick", "dragged": "drag", "cooked": "cook", "spilled": "spill"}
# Every chain uses this mix in a seeded order: a chain's cost depends on
# its verbs (six `spilled` clauses cost 1.6 times six `cooked` ones), so
# free draws would make runs differ by seed.
COORD_SUBJECTS = ("John", "Mary", "I", "You", "John", "Mary")
COORD_VERBS = ("kicked", "dragged", "cooked", "spilled", "kicked", "cooked")

# modifier stacks inside three fixed frames
MODIFIERS = ("long", "very", "proverbial")
MODSTACK_DEPTH = 10
FRAMES = ("shifted", "particle_first", "kick")
WEIGHT_THRESHOLD = 4  # `set weight_threshold 4 ;` in fg2018.ccg
UP_LF = r"\x\p\y. up (p y) x"

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    sentences: int
    check: Check
    label: str


# ---------------------------------------------------------------------------
# reading the program's output

_HEADER = re.compile(r"^reading (\d+): (.*)$")


def readings_from_ascii(out: str) -> list[tuple[str, str]]:
    """(category, logical form) per ``reading i: C : LF`` header, in order."""
    found = []
    for line in out.splitlines():
        m = _HEADER.match(line)
        if m:
            category, _, lf_text = m.group(2).partition(" : ")
            found.append((category, lf_text))
    return found


def readings_from_json(out: str) -> list[tuple[str, str]]:
    return [(r["category"], r["lf"]) for r in json.loads(out)["readings"]]


# ---------------------------------------------------------------------------
# suite: the shipped corpus, permuted

def suite_lines(corpus_text: str, rng: random.Random) -> list[str]:
    lines = [line for line in corpus_text.splitlines() if line.strip() and not line.startswith("#")]
    rng.shuffle(lines)
    return lines


def check_suite(sentences: tuple[str, ...], code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    want = [f"PASS  {s}" for s in sentences] + [f"{len(sentences)} passed, 0 failed"]
    got = out.splitlines()
    if got != want:
        bad = next((g for g, w in zip(got, want) if g != w), f"{len(got)} lines for {len(want)}")
        return f"suite report differs from the corpus: {bad!r}"
    return None


def suite_requests(lexicon: str, suite_path: str, sentences: tuple[str, ...]) -> Iterator[Request]:
    argv = ("test", "-l", lexicon, suite_path)
    check = partial(check_suite, sentences)
    for i in itertools.count():
        yield Request(argv, len(sentences), check, f"suite#{i}")


# ---------------------------------------------------------------------------
# coord: Catalan-ambiguous clause chains

def bracketings(items: tuple) -> list:
    """Every binary bracketing of items, as nested pairs; Catalan(n-1) of them."""
    if len(items) == 1:
        return [items[0]]
    out = []
    for cut in range(1, len(items)):
        for left in bracketings(items[:cut]):
            for right in bracketings(items[cut:]):
                out.append((left, right))
    return out


def catalan(n: int) -> int:
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


_DEF_BUCKET = "(def bucket)"


def conjunct_tree(lf_text: str):
    """Parse a printed chain ``a & (b & c)`` into nested pairs of clause strings.

    ``&`` is left-associative in the printed form and a right operand that
    is itself a conjunction is parenthesized.  Clauses are ``verb (def
    bucket) subj``; the object is the only parenthesis inside a clause.
    """
    tokens = re.findall(r"\(|\)|&|[^\s()&]+", lf_text.replace(_DEF_BUCKET, "DEF_BUCKET"))
    pos = 0

    def primary():
        nonlocal pos
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            inner = expr()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError(f"unbalanced parenthesis in {lf_text!r}")
            pos += 1
            return inner
        words = []
        while pos < len(tokens) and tokens[pos] not in "()&":
            words.append(tokens[pos])
            pos += 1
        if not words:
            raise ValueError(f"empty conjunct in {lf_text!r}")
        return " ".join(words).replace("DEF_BUCKET", _DEF_BUCKET)

    def expr():
        nonlocal pos
        node = primary()
        while pos < len(tokens) and tokens[pos] == "&":
            pos += 1
            node = (node, primary())
        return node

    tree = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing material in {lf_text!r}")
    return tree


def coord_clause_lf(subject: str, verb: str) -> str:
    return f"{VERBS[verb]} {_DEF_BUCKET} {SUBJECTS[subject]}"


def coord_sentence(clauses: tuple[tuple[str, str], ...]) -> str:
    return " and ".join(f"{s} {v}" for s, v in clauses) + " the bucket"


def check_coord(clauses: tuple[tuple[str, str], ...], as_json: bool, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    try:
        readings = readings_from_json(out) if as_json else readings_from_ascii(out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    want_count = catalan(len(clauses) - 1)
    if len(readings) != want_count:
        return f"{len(readings)} readings, expected {want_count}"
    if any(category != "S" for category, _ in readings):
        return "a reading is not of category S"
    leaves = tuple(coord_clause_lf(s, v) for s, v in clauses)
    try:
        got = [conjunct_tree(lf_text) for _, lf_text in readings]
    except ValueError as exc:
        return str(exc)
    if sorted(map(repr, got)) != sorted(map(repr, bracketings(leaves))):
        return "the conjuncts are not the bracketings of the generated clauses"
    return None


def coord_requests(lexicon: str, rng: random.Random) -> Iterator[Request]:
    for block in itertools.count():
        formats = [False, True]
        rng.shuffle(formats)
        for i, as_json in enumerate(formats):
            chain = tuple(zip(rng.sample(COORD_SUBJECTS, 6), rng.sample(COORD_VERBS, 6)))
            argv = ("parse", "-l", lexicon) + (("--json",) if as_json else ()) + (coord_sentence(chain),)
            yield Request(argv, 1, partial(check_coord, chain, as_json), f"coord#{2 * block + i}")


# ---------------------------------------------------------------------------
# modstack: deep modifier stacks in three frames

def _np_lf(mods: tuple[str, ...], noun: str) -> str:
    inner = noun
    for m in reversed(mods):
        inner = f"{m} ({inner})" if " " in inner else f"{m} {inner}"
    return f"def ({inner})" if " " in inner else f"def {inner}"


def modstack_sentence(frame: str, mods: tuple[str, ...]) -> str:
    np = " ".join(("the",) + mods)
    if frame == "shifted":
        return f"I picked {np} book up"
    if frame == "particle_first":
        return f"I picked up {np} book"
    if frame == "kick":
        return f"John kicked {np} bucket"
    raise ValueError(f"unknown frame {frame!r}")


def modstack_expected(frame: str, mods: tuple[str, ...]) -> list[str]:
    """The logical forms the fragment assigns, derived from its entries.

    ``shifted`` uses ``picked := (S\\NP)/*"up"/NP[weight=-]``, so the object
    NP may span at most weight_threshold tokens.  ``particle_first`` uses
    the ``lexc=+`` entry, satisfied by ``book``.  ``kick`` has the literal
    reading, plus the idiom when the NP is exactly one of the idiom strings.
    """
    np = _np_lf(mods, "book" if frame != "kick" else "bucket")
    if frame == "shifted":
        if len(mods) + 2 > WEIGHT_THRESHOLD:
            return []
        return [f"cause (init (hold_{{{UP_LF}}} ({np}) i)) i"]
    if frame == "particle_first":
        return [f"pick_{{{UP_LF}}} ({np}) i"]
    if frame == "kick":
        found = [f"kick ({np}) j"]
        if mods in ((), ("proverbial",)):
            found.append(f"die_{{{np}}} j")
        return sorted(found)
    raise ValueError(f"unknown frame {frame!r}")


def check_modstack(frame: str, mods: tuple[str, ...], code: int, out: str) -> str | None:
    want = modstack_expected(frame, mods)
    want_code = 0 if want else 1
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if not want:
        head = f"NO PARSE: {modstack_sentence(frame, mods)}"
        return None if out.splitlines()[:1] == [head] else f"expected {head!r}"
    got = readings_from_ascii(out)
    if [c for c, _ in got] != ["S"] * len(want):
        return f"{len(got)} readings or wrong categories, expected {len(want)} of S"
    if sorted(lf_text for _, lf_text in got) != want:
        return f"logical forms {[t for _, t in got]} differ from {want}"
    return None


def modstack_requests(lexicon: str, rng: random.Random) -> Iterator[Request]:
    for block in itertools.count():
        frames = list(FRAMES)
        rng.shuffle(frames)
        for i, frame in enumerate(frames):
            mods = tuple(rng.choice(MODIFIERS) for _ in range(MODSTACK_DEPTH))
            argv = ("parse", "-l", lexicon, modstack_sentence(frame, mods))
            yield Request(argv, 1, partial(check_modstack, frame, mods), f"modstack#{3 * block + i}:{frame}")


# ---------------------------------------------------------------------------

def request_stream(workload: str, seed: int, lexicon: Path, corpus: Path, work_dir: Path) -> Iterator[Request]:
    """The workload's endless request stream for this seed.

    The suite workload writes its permuted corpus into work_dir once.
    """
    rng = random.Random(f"{workload}:{seed}")  # str seeds hash the same in every process
    if workload == "suite":
        lines = suite_lines(corpus.read_text(encoding="utf-8"), rng)
        work_dir.mkdir(parents=True, exist_ok=True)
        suite_path = work_dir / f"suite-seed{seed}.tsv"
        suite_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sentences = tuple(line.split("\t")[0].strip() for line in lines)
        return suite_requests(str(lexicon), str(suite_path), sentences)
    if workload == "coord":
        return coord_requests(str(lexicon), rng)
    if workload == "modstack":
        return modstack_requests(str(lexicon), rng)
    raise ValueError(f"unknown workload {workload!r}")

"""Lexicon file format, tokenizer, lookup, and whole-lexicon validation.

File syntax, one entry per ``;``-terminated chunk, ``#`` to end of line is
a comment (outside quotes)::

    set weight_threshold 4 ;
    atoms PredP2, Deg ;
    picked := (S\\NP)/*"up"/NP[weight=-] : \\y\\x\\z. cause (init (hold_{x} y z)) z ;
    book := N[head=book] : book [lexc+] ;

The phonological side may span several tokens (words with spaces).  A
trailing bracket group names entry markers; ``lexc+``, the only one, marks
the entry as contributing lexical content to the computed ``lexc`` feature.
"""

from __future__ import annotations

import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from .category import (
    Atom,
    Category,
    CategorySyntaxError,
    Functor,
    Modality,
    Singleton,
    Violation,
    category_parts,
    parse_category,
    rebuild,
    render_category,
    validate_category,
)
from . import logical_form as lf

BUILTIN_ATOMS = frozenset({"S", "NP", "N", "VP", "PP", "PredP"})

ARITY_MISMATCH = "ARITY_MISMATCH"
UNDECLARED_ATOM = "UNDECLARED_ATOM"
UNDERIVABLE_SINGLETON = "UNDERIVABLE_SINGLETON"
MISPLACED_COMPUTED_FEATURE = "MISPLACED_COMPUTED_FEATURE"
LEXICAL_WRAP = "LEXICAL_WRAP"

_MODALITY_NAMES = {m.name.lower(): m for m in Modality}
DEFAULT_WEIGHT_THRESHOLD = 4


@dataclass(frozen=True)
class LexEntry:
    phon: tuple[str, ...]
    category: Category
    lf: lf.Term
    lexc: bool = False  # marked [lexc+]
    source_line: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"{' '.join(self.phon)} := {render_category(self.category)}"


@dataclass
class Lexicon:
    """Immutable after load; concurrent lookups are safe.  Owns the settings of its ``set`` lines."""

    entries: dict[str, list[LexEntry]] = field(default_factory=dict)
    atom_declarations: frozenset[str] = BUILTIN_ATOMS
    weight_threshold: int = DEFAULT_WEIGHT_THRESHOLD
    default_modality: Modality = Modality.DIAMOND

    def add(self, entry: LexEntry) -> None:
        self.entries.setdefault(entry.phon[0], []).append(entry)

    def all_entries(self) -> list[LexEntry]:
        out = [e for group in self.entries.values() for e in group]
        out.sort(key=lambda e: e.source_line)
        return out


@dataclass(frozen=True)
class LexiconIssue:
    line: int
    message: str
    severity: str = "error"  # "error" or "warning"

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity}: {self.message}"


# ---------------------------------------------------------------------------
# tokenization and lookup

def tokenize(sentence: str, case_fold: bool = False) -> list[str]:
    """Whitespace tokenization; multi-token entries are matched at lookup."""
    return [t.lower() for t in sentence.split()] if case_fold else sentence.split()


def lookup(lex: Lexicon, tokens: list[str] | tuple[str, ...], start: int) -> list[tuple[LexEntry, int]]:
    """All entries whose phon matches the tokens beginning at start.

    Multi-token entries yield span lengths greater than one; every match
    length is reported, not just the longest.
    """
    out = [
        (entry, len(entry.phon))
        for entry in lex.entries.get(tokens[start], ())
        if tuple(tokens[start : start + len(entry.phon)]) == entry.phon
    ]
    out.sort(key=lambda pair: (pair[1], pair[0].source_line))
    return out


def fold_strings(c: Category) -> Category:
    return rebuild(c, _folded, None)


def _folded(c: Category, _: None) -> Category:
    return Singleton(tuple(t.lower() for t in c.tokens)) if isinstance(c, Singleton) else c


def case_folded(lex: Lexicon) -> Lexicon:
    """The lexicon as a lower-cased sentence reads it: each entry's phon and every
    string category in its category lower-cased; atoms and settings shared."""
    folded = replace(lex, entries={})
    for entry in lex.all_entries():
        folded.add(replace(entry, phon=tuple(t.lower() for t in entry.phon), category=fold_strings(entry.category)))
    return folded


# ---------------------------------------------------------------------------
# parsing the file format

_CODE_RE = re.compile(r'(?:[^"#]|"[^"]*"?)*')  # a line up to a '#' outside quotes
_SEMICOLON_RE = re.compile(r'"[^"]*"|;')  # quoted text, or a ';' that no pair of quotes encloses


def _chunks(text: str) -> Iterator[tuple[int, str, bool]]:
    """Yield (line, text, terminated) for each chunk that is not blank.

    Chunks end at a ';' that no pair of quotes on its line encloses.  A
    chunk that runs into a second ':=' on a later line ends before that
    line, unterminated, and so does a tail without ';'.  ``line`` is where
    the chunk's text begins; a quote does not span lines.
    """
    parts: list[str] = []  # the chunk's text, line by line
    start = entry = 0  # the lines of its first text and of its ':=', 0 while none
    for number, raw in enumerate(text.splitlines(), 1):
        code = _CODE_RE.match(raw).group()
        ends = [-1] + [m.start() for m in _SEMICOLON_RE.finditer(code) if m.group() == ";"] + [len(code)]
        for i, piece in enumerate(code[a + 1 : b] for a, b in zip(ends, ends[1:])):
            if i:
                if start:
                    yield start, "\n".join(parts), True
                parts, start, entry = [], 0, 0
            if ":=" in piece:
                if entry and entry < number:
                    yield start, "\n".join(parts) + "\n", False
                    parts, start = [], number
                entry = number
            parts.append(piece)
            if not start and piece.strip():
                start = number
    if start:
        yield start, "\n".join(parts), False


def _parse_markers(text: str, line: int, issues: list[LexiconIssue]) -> tuple[str, bool]:
    """Split a trailing [marker, ...] group off the logical-form text; True when it names lexc+."""
    stripped = text.rstrip()
    if not stripped.endswith("]"):
        return text, False
    open_pos = stripped.rfind("[")
    if open_pos < 0:
        issues.append(LexiconIssue(line, "unmatched ']' after logical form"))
        return text, False
    names = [m.strip() for m in stripped[open_pos + 1 : -1].split(",") if m.strip()]
    for name in names:
        if name != "lexc+":
            issues.append(LexiconIssue(line, f"unknown entry marker {name!r}"))
    return stripped[:open_pos], "lexc+" in names


def parse_lexicon(text: str) -> tuple[Lexicon, list[LexiconIssue]]:
    """Parse lexicon text, collecting all syntax issues with line numbers.

    Returns the lexicon built from the chunks that did parse together with
    the issue list; duplicate identical entries are reported as warnings.
    """
    issues: list[LexiconIssue] = []
    lexicon = Lexicon()
    declared: set[str] = set(BUILTIN_ATOMS)
    pending: list[tuple[int, tuple[str, ...], str, str, bool]] = []

    for line, chunk, terminated in _chunks(text):
        if not terminated:
            issues.append(LexiconIssue(line, "entry not terminated by ';'"))
        if ";" in chunk:
            issues.append(LexiconIssue(line, "';' inside quotes: a string category cannot hold one"))
            continue
        if ":=" not in chunk:
            words = chunk.split()
            if words[0] == "set" and len(words) == 3:
                key, value = words[1], words[2]
                if key == "weight_threshold":
                    try:
                        n = int(value)
                    except ValueError:
                        n = 0
                    if n < 1:
                        issues.append(LexiconIssue(line, f"bad weight_threshold {value!r}"))
                    else:
                        lexicon.weight_threshold = n
                elif key == "default_modality":
                    if value not in _MODALITY_NAMES:
                        issues.append(LexiconIssue(line, f"unknown modality {value!r}"))
                    else:
                        lexicon.default_modality = _MODALITY_NAMES[value]
                else:
                    issues.append(LexiconIssue(line, f"unknown setting {key!r}"))
            elif words and words[0] == "atoms":
                names = [w for w in " ".join(words[1:]).replace(",", " ").split() if w]
                if not names:
                    issues.append(LexiconIssue(line, "empty atoms declaration"))
                declared.update(names)
            else:
                issues.append(LexiconIssue(line, f"cannot parse {' '.join(words)!r}"))
            continue
        phon_text, _, rest = chunk.partition(":=")
        phon = tuple(phon_text.split())
        if not phon:
            issues.append(LexiconIssue(line, "entry has an empty phonological side"))
            continue
        cat_text, colon, lf_text = rest.partition(":")
        if not colon:
            issues.append(LexiconIssue(line, "entry is missing ': <logical form>'"))
            continue
        lf_text, lexc = _parse_markers(lf_text, line, issues)
        pending.append((line, phon, cat_text, lf_text, lexc))

    lexicon.atom_declarations = frozenset(declared)
    for line, phon, cat_text, lf_text, lexc in pending:
        try:
            category = parse_category(cat_text, lexicon.default_modality)
        except CategorySyntaxError as exc:
            issues.append(LexiconIssue(line, f"bad category: {exc}"))
            continue
        try:
            term = lf.parse_term(lf_text)
        except lf.LFSyntaxError as exc:
            issues.append(LexiconIssue(line, f"bad logical form: {exc}"))
            continue
        entry = LexEntry(phon, category, term, lexc, line)
        with suppress(RecursionError):  # too deep to compare; validation names the entry
            if any(entry == prior for prior in lexicon.entries.get(phon[0], ())):
                issues.append(LexiconIssue(line, f"duplicate entry for {' '.join(phon)!r}", "warning"))
        lexicon.add(entry)
    return lexicon, issues


def render_lexicon(lex: Lexicon) -> str:
    """Regenerate lexicon text; parse_lexicon of the output restores the entries."""
    lines = [f"set weight_threshold {lex.weight_threshold} ;"]
    if lex.default_modality is not Modality.DIAMOND:
        lines.append(f"set default_modality {lex.default_modality.name.lower()} ;")
    extra = sorted(lex.atom_declarations - BUILTIN_ATOMS)
    if extra:
        lines.append("atoms " + ", ".join(extra) + " ;")
    for entry in lex.all_entries():
        lines.append(
            f"{' '.join(entry.phon)} := {render_category(entry.category)}"
            f" : {lf.pretty_print(entry.lf)}{' [lexc+]' if entry.lexc else ''} ;"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# whole-lexicon validation

def _spine_arguments(c: Category) -> list[Category]:
    out = []
    while isinstance(c, Functor):
        out.append(c.argument)
        c = c.result
    return out


def _leading_lambdas(t: lf.Term) -> tuple[list[str], lf.Term]:
    """The leading binders' names and the body under them."""
    out: list[str] = []
    while isinstance(t, lf.Abs):
        out.append(t.var)
        t = t.body
    return out, t


def _permutes_arguments(entry: LexEntry) -> bool:
    """True when the entry's own binders hit the predicate out of order.

    Only variables appearing as direct arguments on the body's main
    application spine are considered; a descending pair means the logical
    form realizes its arguments in surface-reversed order.
    """
    binders, body = _leading_lambdas(entry.lf)
    if len(binders) < 2:
        return False
    index = {name: i for i, name in enumerate(binders)}
    _, args = lf.spine(body)
    positions = [index[a.name] for a in args if isinstance(a, lf.Var) and a.name in index]
    return any(b < a for a, b in zip(positions, positions[1:]))


@contextmanager
def _naming_source(where: Callable[[], str]):
    """Re-raise an exhausted budget or recursion limit as a BudgetExceeded
    that names where in the lexicon it happened; ``where()`` spells that
    place only then."""
    try:
        yield
    except lf.BudgetExceeded as exc:
        raise lf.BudgetExceeded(f"{where()}: {exc}") from None
    except RecursionError:
        raise lf.BudgetExceeded(f"{where()}: input nested too deeply") from None


def validate_lexicon(lex: Lexicon) -> list[Violation]:
    """All structural violations across the lexicon (errors only).

    Beyond per-category checks this verifies that each entry's logical
    form carries one abstraction per argument slot, that every atom name
    is declared or built in, that computed features stand only on the
    entry's own arguments, and that every singleton's token string is
    itself derivable from the lexicon, without which singleton application
    could never fire.  Every logical form is normalized and keyed as in a
    parse, under the lexicon's own settings.  A step budget or nesting depth
    exhausted there raises BudgetExceeded naming the entry's line and, when
    a singleton's derivation is at fault, the singleton.
    """
    from .parser import ParserError, misplaced_computed, parse  # deferred: parser imports this module

    out: list[Violation] = []
    for entry in lex.all_entries():
        with _naming_source(lambda: f"line {entry.source_line}: logical form of {entry}"):
            lf.alpha_key(lf.beta_normalize(entry.lf))
        for v in validate_category(entry.category):
            out.append(v.at_line(entry.source_line))
        lambdas = len(_leading_lambdas(entry.lf)[0])
        arguments = _spine_arguments(entry.category)
        arity = len(arguments)
        if lambdas < arity:
            out.append(
                Violation(
                    ARITY_MISMATCH,
                    f"{entry}: {arity} argument slots but only {lambdas} leading abstractions",
                    entry.source_line,
                )
            )
        names = {part.name for part in category_parts(entry.category) if isinstance(part, Atom)}
        for name in sorted(names - lex.atom_declarations):
            out.append(
                Violation(UNDECLARED_ATOM, f"{entry}: category symbol {name!r} is not declared", entry.source_line)
            )
        for part, computed in misplaced_computed(entry.category, arguments):
            detail = f"{entry}: computed {', '.join(computed)} on {render_category(part)}, not one of the entry's arguments"
            out.append(Violation(MISPLACED_COMPUTED_FEATURE, detail, entry.source_line))

    checked: set[tuple[str, ...]] = set()
    for entry in lex.all_entries():
        singletons = {part for part in category_parts(entry.category) if isinstance(part, Singleton)}
        for s in sorted(singletons, key=lambda s: s.tokens):
            if not s.tokens or s.tokens in checked:
                continue
            checked.add(s.tokens)
            with _naming_source(lambda: f'line {entry.source_line}: derivation of "{" ".join(s.tokens)}"'):
                try:
                    derivable = bool(parse(lex, list(s.tokens)))
                except ParserError:
                    derivable = False
            if not derivable:
                out.append(
                    Violation(
                        UNDERIVABLE_SINGLETON,
                        f'"{" ".join(s.tokens)}" has no derivation of its own, '
                        "so it can never substitute for the string category",
                        entry.source_line,
                    )
                )
    return out


def lexicon_notes(lex: Lexicon) -> list[Violation]:
    """Informational findings that are not violations.

    Currently: entries whose logical form permutes its arguments, which is
    legal order-changing composition done lexically.
    """
    notes = []
    for entry in lex.all_entries():
        if _permutes_arguments(entry):
            notes.append(
                Violation(LEXICAL_WRAP, f"{entry}: logical form permutes its arguments", entry.source_line)
            )
    return notes

"""Lexicon file format, tokenizer, lookup, and whole-lexicon validation.

File syntax, one entry per ``;``-terminated chunk, ``#`` to end of line is
a comment (outside quotes)::

    set weight_threshold 4 ;
    atoms PredP2, Deg ;
    picked := (S\\NP)/*"up"/NP[weight=-] : \\y\\x\\z. cause (init (hold_{x} y z)) z ;
    book := N[head=book] : book [lexc+] ;

The phonological side may span several tokens (words with spaces).  A
trailing bracket group names entry markers; ``lexc+`` marks the entry as
contributing lexical content to the computed ``lexc`` feature.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from .category import (
    Atom,
    Category,
    CategorySyntaxError,
    Functor,
    Modality,
    Singleton,
    Violation,
    parse_category,
    render_category,
    validate_category,
)
from . import logical_form as lf

MARKER_LEXC_PLUS = "LEXC_PLUS"
_MARKER_NAMES = {"lexc+": MARKER_LEXC_PLUS}
_MARKER_TEXT = {v: k for k, v in _MARKER_NAMES.items()}

BUILTIN_ATOMS = frozenset({"S", "NP", "N", "VP", "PP", "PredP"})

ARITY_MISMATCH = "ARITY_MISMATCH"
UNDECLARED_ATOM = "UNDECLARED_ATOM"
UNDERIVABLE_SINGLETON = "UNDERIVABLE_SINGLETON"
LEXICAL_WRAP = "LEXICAL_WRAP"

_MODALITY_NAMES = {
    "star": Modality.STAR,
    "diamond": Modality.DIAMOND,
    "cross": Modality.CROSS,
    "dot": Modality.DOT,
}


@dataclass(frozen=True)
class LexEntry:
    phon: tuple[str, ...]
    category: Category
    lf: lf.Term
    markers: frozenset[str] = frozenset()
    source_line: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"{' '.join(self.phon)} := {render_category(self.category)}"


@dataclass
class LexiconConfig:
    weight_threshold: int = 4
    default_modality: Modality = Modality.DIAMOND


@dataclass
class Lexicon:
    """Immutable after load; concurrent lookups are safe."""

    entries: dict[str, list[LexEntry]] = field(default_factory=dict)
    atom_declarations: frozenset[str] = BUILTIN_ATOMS
    config: LexiconConfig = field(default_factory=LexiconConfig)

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
    tokens = sentence.split()
    if case_fold:
        tokens = [t.lower() for t in tokens]
    return tokens


def lookup(
    lex: Lexicon, tokens: list[str] | tuple[str, ...], start: int, case_fold: bool = False
) -> list[tuple[LexEntry, int]]:
    """All entries whose phon matches the tokens beginning at start.

    Multi-token entries yield span lengths greater than one; every match
    length is reported, not just the longest.
    """
    def fold(t: str) -> str:
        return t.lower() if case_fold else t

    key = fold(tokens[start])
    if case_fold:
        candidates = [e for group in lex.entries.values() for e in group if fold(e.phon[0]) == key]
    else:
        candidates = list(lex.entries.get(key, ()))
    out: list[tuple[LexEntry, int]] = []
    for entry in candidates:
        length = len(entry.phon)
        if start + length > len(tokens):
            continue
        window = tuple(fold(t) for t in tokens[start : start + length])
        if window == tuple(fold(p) for p in entry.phon):
            out.append((entry, length))
    out.sort(key=lambda pair: (pair[1], pair[0].source_line))
    return out


# ---------------------------------------------------------------------------
# parsing the file format

def _strip_comments(text: str) -> str:
    out: list[str] = []
    in_quote = False
    for ch_line in text.splitlines():
        kept: list[str] = []
        for ch in ch_line:
            if ch == '"':
                in_quote = not in_quote
            if ch == "#" and not in_quote:
                break
            kept.append(ch)
        in_quote = False  # quotes do not span lines
        out.append("".join(kept))
    return "\n".join(out)


def _chunks(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line_number, chunk) for each ';'-terminated chunk."""
    buf: list[str] = []
    start_line = 1
    line = 1
    started = False
    for ch in text:
        if ch == ";":
            yield start_line, "".join(buf)
            buf = []
            started = False
        else:
            if not started and not ch.isspace():
                started = True
                start_line = line
            if ch == "\n":
                line += 1
            buf.append(ch)
    tail = "".join(buf)
    if tail.strip():
        yield start_line, tail + "\0"  # unterminated marker


def _parse_markers(text: str, line: int, issues: list[LexiconIssue]) -> tuple[str, frozenset[str]]:
    """Split a trailing [marker, ...] group off the logical-form text."""
    stripped = text.rstrip()
    if not stripped.endswith("]"):
        return text, frozenset()
    open_pos = stripped.rfind("[")
    if open_pos < 0:
        issues.append(LexiconIssue(line, "unmatched ']' after logical form"))
        return text, frozenset()
    names = [m.strip() for m in stripped[open_pos + 1 : -1].split(",") if m.strip()]
    markers: set[str] = set()
    for name in names:
        if name not in _MARKER_NAMES:
            issues.append(LexiconIssue(line, f"unknown entry marker {name!r}"))
            continue
        markers.add(_MARKER_NAMES[name])
    return stripped[:open_pos], frozenset(markers)


def parse_lexicon(text: str) -> tuple[Lexicon, list[LexiconIssue]]:
    """Parse lexicon text, collecting all syntax issues with line numbers.

    Returns the lexicon built from the chunks that did parse together with
    the issue list; duplicate identical entries are reported as warnings.
    """
    issues: list[LexiconIssue] = []
    config = LexiconConfig()
    declared: set[str] = set(BUILTIN_ATOMS)
    pending: list[tuple[int, str, str, str, frozenset[str]]] = []

    for line, chunk in _chunks(_strip_comments(text)):
        if chunk.endswith("\0"):
            issues.append(LexiconIssue(line, "entry not terminated by ';'"))
            chunk = chunk[:-1]
        if not chunk.strip():
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
                        config.weight_threshold = n
                elif key == "default_modality":
                    if value not in _MODALITY_NAMES:
                        issues.append(LexiconIssue(line, f"unknown modality {value!r}"))
                    else:
                        config.default_modality = _MODALITY_NAMES[value]
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
        lf_text, markers = _parse_markers(lf_text, line, issues)
        pending.append((line, phon_text, cat_text, lf_text, markers))

    lexicon = Lexicon(atom_declarations=frozenset(declared), config=config)
    for line, phon_text, cat_text, lf_text, markers in pending:
        phon = tuple(phon_text.split())
        try:
            category = parse_category(cat_text, config.default_modality)
        except CategorySyntaxError as exc:
            issues.append(LexiconIssue(line, f"bad category: {exc}"))
            continue
        try:
            term = lf.parse_term(lf_text)
        except lf.LFSyntaxError as exc:
            issues.append(LexiconIssue(line, f"bad logical form: {exc}"))
            continue
        entry = LexEntry(phon, category, term, markers, line)
        if any(entry == prior for prior in lexicon.entries.get(phon[0], ())):
            issues.append(LexiconIssue(line, f"duplicate entry for {' '.join(phon)!r}", "warning"))
        lexicon.add(entry)
    return lexicon, issues


def render_lexicon(lex: Lexicon) -> str:
    """Regenerate lexicon text; parse_lexicon of the output restores the entries."""
    lines = [f"set weight_threshold {lex.config.weight_threshold} ;"]
    if lex.config.default_modality is not Modality.DIAMOND:
        name = {v: k for k, v in _MODALITY_NAMES.items()}[lex.config.default_modality]
        lines.append(f"set default_modality {name} ;")
    extra = sorted(lex.atom_declarations - BUILTIN_ATOMS)
    if extra:
        lines.append("atoms " + ", ".join(extra) + " ;")
    for entry in lex.all_entries():
        marker_text = ""
        if entry.markers:
            marker_text = " [" + ", ".join(sorted(_MARKER_TEXT[m] for m in entry.markers)) + "]"
        lines.append(
            f"{' '.join(entry.phon)} := {render_category(entry.category)}"
            f" : {lf.pretty_print(entry.lf)}{marker_text} ;"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# whole-lexicon validation

def _spine_arity(c: Category) -> int:
    n = 0
    while isinstance(c, Functor):
        n += 1
        c = c.result
    return n


def _leading_lambdas(t: lf.Term) -> list[str]:
    out: list[str] = []
    while isinstance(t, lf.Abs):
        out.append(t.var)
        t = t.body
    return out


def _atom_names(c: Category) -> set[str]:
    match c:
        case Atom(name, _):
            return {name}
        case Functor(result, _, argument):
            return _atom_names(result) | _atom_names(argument)
        case _:
            return set()


def _singletons(c: Category) -> set[Singleton]:
    match c:
        case Singleton(_):
            return {c}
        case Functor(result, _, argument):
            return _singletons(result) | _singletons(argument)
        case _:
            return set()


def _permutes_arguments(entry: LexEntry) -> bool:
    """True when the entry's own binders hit the predicate out of order.

    Only variables appearing as direct arguments on the body's main
    application spine are considered; a descending pair means the logical
    form realizes its arguments in surface-reversed order.
    """
    binders = _leading_lambdas(entry.lf)
    if len(binders) < 2:
        return False
    index = {name: i for i, name in enumerate(binders)}
    body = entry.lf
    while isinstance(body, lf.Abs):
        body = body.body
    _, args = lf.spine(body)
    positions = [index[a.name] for a in args if isinstance(a, lf.Var) and a.name in index]
    return any(b < a for a, b in zip(positions, positions[1:]))


@contextmanager
def _naming_source(where: str):
    """Re-raise an exhausted budget or recursion limit as a BudgetExceeded
    that names where in the lexicon it happened."""
    try:
        yield
    except lf.BudgetExceeded as exc:
        raise lf.BudgetExceeded(f"{where}: {exc}") from None
    except RecursionError:
        raise lf.BudgetExceeded(f"{where}: input nested too deeply") from None


def validate_lexicon(lex: Lexicon) -> list[Violation]:
    """All structural violations across the lexicon (errors only).

    Beyond per-category checks this verifies that each entry's logical
    form carries one abstraction per argument slot, that every atom name
    is declared or built in, and that every singleton's token string is
    itself derivable from the lexicon, without which singleton application
    could never fire.  Every logical form is normalized as a parse would
    do it, under the lexicon's own settings.  A step budget or nesting depth
    exhausted there raises BudgetExceeded naming the entry's line and, when
    a singleton's derivation is at fault, the singleton.
    """
    out: list[Violation] = []
    for entry in lex.all_entries():
        with _naming_source(f"line {entry.source_line}: logical form of {entry}"):
            lf.beta_normalize(entry.lf)
        for v in validate_category(entry.category):
            out.append(v.at_line(entry.source_line))
        lambdas = len(_leading_lambdas(entry.lf))
        arity = _spine_arity(entry.category)
        if lambdas < arity:
            out.append(
                Violation(
                    ARITY_MISMATCH,
                    f"{entry}: {arity} argument slots but only {lambdas} leading abstractions",
                    entry.source_line,
                )
            )
        for name in sorted(_atom_names(entry.category) - set(lex.atom_declarations)):
            out.append(
                Violation(UNDECLARED_ATOM, f"{entry}: category symbol {name!r} is not declared", entry.source_line)
            )

    from .parser import ParserError, parse  # deferred: parser imports this module

    checked: set[tuple[str, ...]] = set()
    for entry in lex.all_entries():
        for s in sorted(_singletons(entry.category), key=lambda s: s.tokens):
            if not s.tokens or s.tokens in checked:
                continue
            checked.add(s.tokens)
            with _naming_source(f'line {entry.source_line}: derivation of "{" ".join(s.tokens)}"'):
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

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
from typing import Iterator, NamedTuple

from .category import (
    Category,
    CategorySyntaxError,
    CategoryTable,
    Functor,
    MISPLACED_COMPUTED_FEATURE,
    Modality,
    SINGLETON_AS_RESULT,
    Singleton,
    UNDECLARED_ATOM,
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
UNDERIVABLE_SINGLETON = "UNDERIVABLE_SINGLETON"
LEXICAL_WRAP = "LEXICAL_WRAP"

_MODALITY_NAMES = {m.name.lower(): m for m in Modality}
DEFAULT_WEIGHT_THRESHOLD = 4


class LexEntry(NamedTuple):
    """A lexicon entry.  Entries compare and hash without their ``source_line``,
    so a duplicate on another line is equal to the first."""

    phon: tuple[str, ...]
    category: Category
    lf: lf.Term
    lexc: bool = False  # marked [lexc+]
    source_line: int = 0

    def __eq__(self, other: object) -> bool:
        return self[:4] == other[:4] if type(other) is LexEntry else NotImplemented

    def __ne__(self, other: object) -> bool:
        return self[:4] != other[:4] if type(other) is LexEntry else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:4])

    def __str__(self) -> str:
        return f"{' '.join(self.phon)} := {render_category(self.category)}"


class Lexicon:
    """A lexicon's entries and the settings of its ``set`` lines, unchanged after load.

    Every chart built over one Lexicon object shares its ``category_table``, which fills as
    charts are built: the distinct categories they make, one seed per entry category, and one
    category step per pair of categories and the few span facts the rules read of it (does it
    spell a string argument, its lexc flag and lightness).  So it is bounded by the categories
    the grammar derives, never by sentence text.  Charts may be built over one lexicon at once:
    the table is only added to, and a race costs at most a step taken twice.  A copy made by
    ``copy``, such as ``case_folded``, starts an empty table.
    """

    def __init__(
        self,
        entries: dict[str, list[LexEntry]] | None = None,
        atom_declarations: frozenset[str] = BUILTIN_ATOMS,
        weight_threshold: int = DEFAULT_WEIGHT_THRESHOLD,
        default_modality: Modality = Modality.DIAMOND,
    ):
        self.entries = {} if entries is None else entries
        self.atom_declarations, self.weight_threshold, self.default_modality = atom_declarations, weight_threshold, default_modality
        self.category_table = CategoryTable()

    def copy(self, **changes) -> Lexicon:
        """A shallow copy with the named constructor fields changed, as ``dataclasses.replace``
        makes one: it shares the entries dict unless given ``entries``, and starts an empty table."""
        fields = {name: value for name, value in vars(self).items() if name != "category_table"}
        return Lexicon(**(fields | changes))

    def add(self, entry: LexEntry) -> None:
        self.entries.setdefault(entry.phon[0], []).append(entry)

    def all_entries(self) -> list[LexEntry]:
        out = [e for group in self.entries.values() for e in group]
        out.sort(key=lambda e: e.source_line)
        return out


class LexiconIssue(NamedTuple):
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
    folded = lex.copy(entries={})
    for entry in lex.all_entries():
        folded.add(entry._replace(phon=tuple(t.lower() for t in entry.phon), category=fold_strings(entry.category)))
    return folded


# ---------------------------------------------------------------------------
# parsing the file format

_CODE_RE = re.compile(r'^[^"#\n]*(?:"[^"\n]*"?[^"#\n]*)*', re.M)  # a line up to a '#' that no quote on it opens or encloses
_SEMICOLON_RE = re.compile(r'"[^"\n]*"|;')  # a pair of quotes on one line, or a ';' outside them
_ENTRY_LINE_RE = re.compile(r"(?<=\n)(?=[^\n]*:=)")  # the start of a line with a ':='
# an entry's category, up to the first ':' outside quotes, that ':', and its logical form
_CATEGORY_RE = re.compile(r'((?:"[^"\n]*"|"|[^":]+)*)(:?)(.*)', re.S)


def _chunks(text: str) -> Iterator[tuple[int, str, bool]]:
    """Yield (line, text, terminated) for each chunk that is not blank: the text up to a ';'
    that no pair of quotes on its line encloses, or before a later line with a second ':=',
    or the tail.  ``line`` is where its text begins, in the lines of ``str.splitlines``, and
    the text joins its lines with '\n', each without its comment.  A quote does not span
    lines; one left open hides the '#'s after it on its line, but not the ';'s.
    """
    code = "\n".join(_CODE_RE.findall("\n".join(text.splitlines())))
    ends = [m.start() for m in _SEMICOLON_RE.finditer(code) if m[0] == ";"]
    chunks = [code[a + 1 : b] for a, b in zip([-1, *ends], [*ends, len(code)])]
    line = 1
    for tail, chunk in enumerate(chunks, 1 - len(chunks)):  # tail is 0 at the last chunk, which no ';' ends
        if chunk.count(":=") > 1 and (end := chunk.find("\n", chunk.find(":="))) > 0:  # past the first ':=' line,
            first, *rest = _ENTRY_LINE_RE.split(chunk[end:])  # each line with a ':=' ends the text before it
            *heads, chunk = chunk[:end] + first, *rest
            for head in heads:
                yield line + head.count("\n", 0, len(head) - len(head.lstrip())), head, False
                line += head.count("\n")
        if body := chunk.lstrip():
            yield line + chunk.count("\n", 0, len(chunk) - len(body)), chunk, tail < 0
        line += chunk.count("\n")


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
        phon_text, entry_mark, rest = chunk.partition(":=")
        if not entry_mark:
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
        phon = tuple(phon_text.split())
        if not phon:
            issues.append(LexiconIssue(line, "entry has an empty phonological side"))
            continue
        cat_text, colon, lf_text = _CATEGORY_RE.match(rest).groups()
        if not colon:
            issues.append(LexiconIssue(line, "entry is missing ': <logical form>'"))
            continue
        lf_text, lexc = _parse_markers(lf_text, line, issues)
        pending.append((line, phon, cat_text, lf_text, lexc))

    lexicon.atom_declarations = frozenset(declared)
    categories: dict[str, Category] = {}  # by text, so that entries spelled alike share one category
    terms: dict[str, lf.Term] = {}  # and one logical form
    for line, phon, cat_text, lf_text, lexc in pending:
        try:
            category = categories.get(cat_text) or categories.setdefault(cat_text, parse_category(cat_text, lexicon.default_modality))
        except CategorySyntaxError as exc:
            issues.append(LexiconIssue(line, f"bad category: {exc}"))
            continue
        try:
            term = terms.get(lf_text) or terms.setdefault(lf_text, lf.parse_term(lf_text))
        except lf.LFSyntaxError as exc:
            issues.append(LexiconIssue(line, f"bad logical form: {exc}"))
            continue
        entry = LexEntry(phon, category, term, lexc, line)
        if entry in lexicon.entries.get(phon[0], ()):  # terms read from text are equal when they print alike
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


def _named(where: str, exc: lf.BudgetExceeded | RecursionError) -> lf.BudgetExceeded:
    """An exhausted budget or recursion limit as a BudgetExceeded that names where in the lexicon it happened."""
    return lf.BudgetExceeded(f"{where}: {'input nested too deeply' if isinstance(exc, RecursionError) else exc}")


#: The codes of validate_category that a lexicon entry's report names the entry in, each with what ends its detail.
_ENTRY_NAMED = {UNDECLARED_ATOM: "", MISPLACED_COMPUTED_FEATURE: ", not one of the entry's arguments"}


def validate_lexicon(lex: Lexicon) -> list[Violation]:
    """All structural violations across the lexicon (errors only).

    Beyond validate_category, with the lexicon's atoms and the entry's own
    arguments as its slots, this verifies that an entry's own category is a
    string category only when it spells the entry's own words, that each
    entry's logical form carries one abstraction per argument slot, and
    that every singleton's token string is itself derivable from the
    lexicon, without which singleton application could never fire.  Each
    distinct category object is checked once, and each violation it has is
    reported for every entry that has it, at the entry's line.  As in a
    parse, under the lexicon's own settings, each distinct logical-form object
    of the entries is normalized and printed once, and so is each reading of a
    singleton's string.  A step budget or nesting depth exhausted there raises
    BudgetExceeded naming the line of the first entry at fault and, when a
    singleton's derivation is at fault, the singleton.
    """
    from .parser import ParserError, parse  # deferred: parser imports this module

    out: list[Violation] = []
    found: dict[int, list[Violation]] = {}  # validate_category's, by the id of an entry's category
    strings: dict[tuple[str, ...], LexEntry] = {}  # each singleton's tokens, and the first entry with them
    first: dict[int, LexEntry] = {}  # the first entry with each logical form, by its id
    for entry in lex.all_entries():
        if first.setdefault(id(entry.lf), entry) is entry:
            try:
                lf.pretty_print(lf.beta_normalize(entry.lf))
            except (lf.BudgetExceeded, RecursionError) as exc:
                raise _named(f"line {entry.source_line}: logical form of {entry}", exc) from None
        c, arguments = entry.category, _spine_arguments(entry.category)
        if id(c) not in found:
            found[id(c)] = validate_category(c, lex.atom_declarations, arguments)
            for tokens in sorted({part.tokens for part in category_parts(c) if type(part) is Singleton}):
                if tokens:
                    strings.setdefault(tokens, entry)
        own = []
        if type(c) is Singleton and c.tokens != entry.phon:  # not in validate_category: a goal may be one
            own.append(Violation(SINGLETON_AS_RESULT, f"{entry}: a string category is an argument, or the category of its own words only"))
        lambdas = len(_leading_lambdas(entry.lf)[0])
        if lambdas < len(arguments):
            own.append(Violation(ARITY_MISMATCH, f"{entry}: {len(arguments)} argument slots but only {lambdas} leading abstractions"))
        for v in sorted(found[id(c)] + own, key=lambda v: v.code in _ENTRY_NAMED):  # string placement, own, then named
            if v.code in _ENTRY_NAMED:
                v = v._replace(detail=f"{entry}: {v.detail}{_ENTRY_NAMED[v.code]}")
            out.append(v.at_line(entry.source_line))

    for tokens, entry in strings.items():
        try:  # the parse keys readings by the fingerprints their nodes hold; printing walks each whole
            printed = [lf.pretty_print(e.lf) for e in parse(lex, list(tokens))]
        except ParserError:
            printed = []
        except (lf.BudgetExceeded, RecursionError) as exc:
            raise _named(f'line {entry.source_line}: derivation of "{" ".join(tokens)}"', exc) from None
        if not printed:
            detail = f'"{" ".join(tokens)}" has no derivation of its own, so it can never substitute for the string category'
            out.append(Violation(UNDERIVABLE_SINGLETON, detail, entry.source_line))
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

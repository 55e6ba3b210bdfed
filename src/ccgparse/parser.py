"""Exhaustive CKY chart parsing over the fixed combinatory rule inventory.

Eight binary rules, one row each of the table RULES, plus lexical seeding:
forward and backward application (which also perform string-category
substitution), harmonic and crossing composition, and substitution.
Every rule is gated by the modalities of the slashes it consumes.  Cells
pack edges by (category, logical-form alpha class) so derivational
ambiguity with identical results is not duplicated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .category import (
    COMPUTED_ATTRS,
    Atom,
    Bindings,
    Category,
    Direction,
    Functor,
    Modality,
    apply_bindings,
    category_key,
    match_argument,
    rename_variables,
    unify,
)
from . import logical_form as lf
from .lexicon import MARKER_LEXC_PLUS, LexEntry, Lexicon, lookup

DEFAULT_MAX_TOKENS = 32


class RuleId(Enum):
    """The fixed binary rule inventory. Values double as display labels."""

    FWD_APP = ">"
    BWD_APP = "<"
    FWD_COMP_HARMONIC = ">B"
    BWD_COMP_HARMONIC = "<B"
    FWD_COMP_CROSSING = ">Bx"
    BWD_COMP_CROSSING = "<Bx"
    FWD_SUBST = ">S"
    BWD_SUBST = "<S"

    @property
    def label(self) -> str:
        return self.value


class ParserError(Exception):
    pass


class UnknownTokenError(ParserError):
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        super().__init__("unknown token(s): " + ", ".join(repr(t) for t in tokens))


class SentenceTooLongError(ParserError):
    pass


@dataclass
class ParseSettings:
    weight_threshold: int = 4
    max_steps: int = lf.DEFAULT_STEP_BUDGET
    max_tokens: int = DEFAULT_MAX_TOKENS
    all_derivations: bool = False
    case_fold: bool = False

    @classmethod
    def from_lexicon(cls, lex: Lexicon, **overrides) -> "ParseSettings":
        settings = cls(weight_threshold=lex.config.weight_threshold)
        for name, value in overrides.items():
            if value is not None:
                setattr(settings, name, value)
        return settings


@dataclass(frozen=True, eq=False)
class Edge:
    """A chart constituent; logical forms are beta-normal on construction."""

    start: int
    end: int
    tokens: tuple[str, ...]
    category: Category
    lf: lf.Term
    rule: RuleId | None = None
    children: tuple["Edge", ...] = ()
    entry: LexEntry | None = None
    lexc: bool = False  # some lexical entry at the leaves carries lexc+

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def label(self) -> str:
        return self.rule.label if self.rule is not None else "LEX"

    def reading_key(self) -> tuple[str, str]:
        return (category_key(self.category), lf.alpha_key(self.lf))


def derived_feature(edge: Edge, attr: str, weight_threshold: int = 4) -> str:
    """Compute a span predicate for an edge, never stored on its category.

    ``weight`` is "-" when the span covers at most weight_threshold tokens;
    ``lexc`` is "+" when the edge's lexc flag is set.
    """
    if attr == "weight":
        return "-" if edge.end - edge.start <= weight_threshold else "+"
    if attr == "lexc":
        return "+" if edge.lexc else "-"
    raise ValueError(f"not a computed feature: {attr!r}")


class Chart:
    def __init__(self, tokens: list[str] | tuple[str, ...], all_derivations: bool = False):
        self.tokens = tuple(tokens)
        self.all_derivations = all_derivations
        self.cells: dict[tuple[int, int], dict[object, Edge]] = {}
        self._counter = itertools.count()

    def add(self, edge: Edge) -> bool:
        cell = self.cells.setdefault(edge.span, {})
        key: object = edge.reading_key()
        if self.all_derivations:
            key = (key, next(self._counter))
        if key in cell:
            return False
        cell[key] = edge
        return True

    def edges(self, start: int, end: int) -> list[Edge]:
        return list(self.cells.get((start, end), {}).values())

    def spanning(self) -> list[Edge]:
        return self.edges(0, len(self.tokens))

    def all_edges(self) -> list[Edge]:
        return [e for cell in self.cells.values() for e in cell.values()]

    def longest_partials(self) -> list[Edge]:
        """The longest proper sub-spans holding edges; near misses for NO PARSE."""
        n = len(self.tokens)
        for length in range(n - 1, 0, -1):
            found = [
                e
                for (i, j), cell in sorted(self.cells.items())
                if j - i == length
                for e in cell.values()
            ]
            if found:
                return found
        return []


# ---------------------------------------------------------------------------
# the rules

def _functor(edge: Edge, direction: Direction) -> Functor | None:
    c = edge.category
    if isinstance(c, Functor) and c.slash.direction is direction:
        return c
    return None


def _composable(*middles: Category) -> bool:
    """Whether the consumed middle categories may be discharged without an edge.

    Computed span predicates (weight, lexc) are only checkable when a slot
    is filled by application; composing them away would silently drop the
    constraint, so such slots are application-only.
    """
    return not any(isinstance(c, Atom) and any(a in COMPUTED_ATTRS for a in c.features.attrs()) for c in middles)


class RuleRow(NamedTuple):
    """A row of the rule table: f is the primary functor, g the other neighbour."""

    rule: RuleId
    primary_left: bool
    f_direction: Direction
    g_direction: Direction | None
    shape: str
    admits: tuple[Modality, ...]


_FWD, _BWD = Direction.FORWARD, Direction.BACKWARD
_ANY = tuple(Modality)
_HARMONIC = (Modality.DIAMOND, Modality.DOT)
_CROSSING = (Modality.CROSS, Modality.DOT)

# Shapes, with f's slash written forward and | for g's slash:
#   A  application   X/Y      Y    => X    f g
#   B  composition   X/Y      Y|Z  => X|Z  \x. f (g x)
#   S  substitution  (X/Y)/Z  Y|Z  => X|Z  \x. f x (g x)
# Every slash a rule consumes must have one of the row's ``admits`` modalities.
# Rows are tried in order.  Chart.add keeps the first edge for each
# reading, so the order decides which derivation a packed reading shows.
RULES = (
    RuleRow(RuleId.FWD_APP, True, _FWD, None, "A", _ANY),
    RuleRow(RuleId.BWD_APP, False, _BWD, None, "A", _ANY),
    RuleRow(RuleId.FWD_COMP_HARMONIC, True, _FWD, _FWD, "B", _HARMONIC),
    RuleRow(RuleId.BWD_COMP_HARMONIC, False, _BWD, _BWD, "B", _HARMONIC),
    RuleRow(RuleId.FWD_COMP_CROSSING, True, _FWD, _BWD, "B", _CROSSING),
    RuleRow(RuleId.BWD_COMP_CROSSING, False, _BWD, _FWD, "B", _CROSSING),
    RuleRow(RuleId.FWD_SUBST, True, _FWD, _FWD, "S", _HARMONIC),
    RuleRow(RuleId.BWD_SUBST, False, _BWD, _BWD, "S", _HARMONIC),
)


def _category_step(row: RuleRow, f_edge: Edge, g_edge: Edge, weight_threshold: int) -> tuple[Category, Bindings] | None:
    """The result category of one rule with its bindings, or None if a gate blocks it.

    Every slash the rule consumes must admit it.  Application matches f's
    argument against g's edge, so a string-valued argument needs no rule
    of its own; composition and substitution unify category structure.
    """
    f = _functor(f_edge, row.f_direction)
    if f is None or f.slash.modality not in row.admits:
        return None
    if row.shape == "A":
        bnd = match_argument(f.argument, g_edge, derived=lambda attr: derived_feature(g_edge, attr, weight_threshold))
        return None if bnd is None else (f.result, bnd)
    g = _functor(g_edge, row.g_direction)
    if g is None or g.slash.modality not in row.admits:
        return None
    if row.shape == "B":
        head, slot, bnd = f.result, f.argument, Bindings()
    else:  # f is (X/Y)/Z: its inner slash shares f's direction and is gated too
        inner = f.result
        if not (
            isinstance(inner, Functor)
            and inner.slash.direction is row.f_direction
            and inner.slash.modality in row.admits
        ):
            return None
        head, slot, bnd = inner.result, inner.argument, unify(f.argument, g.argument)
    if bnd is None or not _composable(slot, g.result):
        return None
    bnd = unify(slot, g.result, bnd)
    return None if bnd is None else (Functor(head, g.slash, g.argument), bnd)


def _lf_step(shape: str, f: lf.Term, g: lf.Term, max_steps: int) -> lf.Term:
    """f g, \\x. f (g x) or \\x. f x (g x) by shape, normalized once."""
    if shape == "A":
        term: lf.Term = lf.App(f, g)
    else:
        x = lf.fresh_name("x", lf.free_vars(f) | lf.free_vars(g))
        head = lf.App(f, lf.Var(x)) if shape == "S" else f
        term = lf.Abs(x, lf.App(head, lf.App(g, lf.Var(x))))
    return lf.beta_normalize(term, max_steps=max_steps)


def combine(
    left: Edge,
    right: Edge,
    weight_threshold: int = 4,
    max_steps: int = lf.DEFAULT_STEP_BUDGET,
) -> list[Edge]:
    """All edges derivable from two adjacent constituents, one per rule in RULES that fires."""
    out: list[Edge] = []
    for row in RULES:
        f_edge, g_edge = (left, right) if row.primary_left else (right, left)
        step = _category_step(row, f_edge, g_edge, weight_threshold)
        if step is not None:
            term = _lf_step(row.shape, f_edge.lf, g_edge.lf, max_steps)
            category = apply_bindings(*step)
            tokens = left.tokens + right.tokens
            out.append(Edge(left.start, right.end, tokens, category, term, row.rule, (left, right), lexc=left.lexc or right.lexc))
    return out


# ---------------------------------------------------------------------------
# the chart loop

def seed_edges(
    lex: Lexicon,
    tokens: list[str] | tuple[str, ...],
    case_fold: bool = False,
    max_steps: int = lf.DEFAULT_STEP_BUDGET,
) -> list[Edge]:
    """Lexical edges for every entry match; raises when a token is uncovered."""
    edges: list[Edge] = []
    covered = [False] * len(tokens)
    fresh = itertools.count()
    for start in range(len(tokens)):
        for entry, length in lookup(lex, tokens, start, case_fold):
            category = rename_variables(entry.category, str(next(fresh)))
            term = lf.beta_normalize(entry.lf, max_steps=max_steps)
            lexc = MARKER_LEXC_PLUS in entry.markers
            edges.append(Edge(start, start + length, tuple(tokens[start : start + length]), category, term, entry=entry, lexc=lexc))
            for i in range(start, start + length):
                covered[i] = True
    unknown = sorted({tokens[i] for i, c in enumerate(covered) if not c})
    if unknown:
        raise UnknownTokenError(unknown)
    return edges


def build_chart(lex: Lexicon, tokens: list[str] | tuple[str, ...], settings: ParseSettings | None = None) -> Chart:
    """Run exhaustive CKY and return the filled chart."""
    if not tokens:
        raise ParserError("cannot parse an empty sentence")
    settings = settings or ParseSettings.from_lexicon(lex)
    if len(tokens) > settings.max_tokens:
        raise SentenceTooLongError(f"{len(tokens)} tokens exceeds the limit of {settings.max_tokens}")
    chart = Chart(tokens, settings.all_derivations)
    for edge in seed_edges(lex, tokens, settings.case_fold, settings.max_steps):
        chart.add(edge)
    n = len(tokens)
    for length in range(2, n + 1):
        for start in range(0, n - length + 1):
            end = start + length
            for split in range(start + 1, end):
                for left in chart.edges(start, split):
                    for right in chart.edges(split, end):
                        for edge in combine(
                            left,
                            right,
                            weight_threshold=settings.weight_threshold,
                            max_steps=settings.max_steps,
                        ):
                            chart.add(edge)
    return chart


def goal_matches(goal: Category | None, edge: Edge) -> bool:
    if goal is None:
        return True
    return unify(goal, edge.category) is not None


def chart_readings(chart: Chart, goal: Category | None = None) -> list[Edge]:
    """The chart's spanning edges that match the goal, sorted by reading key."""
    found = [e for e in chart.spanning() if goal_matches(goal, e)]
    found.sort(key=Edge.reading_key)
    return found


def parse(
    lex: Lexicon,
    tokens: list[str] | tuple[str, ...],
    goal: Category | None = None,
    settings: ParseSettings | None = None,
) -> list[Edge]:
    """All spanning edges matching the goal (None accepts any category).

    An empty result is a normal NO PARSE outcome; unknown tokens and
    over-long sentences raise ParserError subclasses.
    """
    return chart_readings(build_chart(lex, tokens, settings), goal)

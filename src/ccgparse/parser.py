"""Exhaustive CKY chart parsing over the fixed combinatory rule inventory.

Eight binary rules, one row each of the table RULES, plus lexical seeding:
forward and backward application (which also perform string-category
substitution), harmonic and crossing composition, and substitution.
Every rule is gated by the modalities of the slashes it consumes.  The
chart is built over categories only, a cell holding one node per (category,
lexc) with every way it was made; logical forms are made by a walk from the
nodes asked for, so a node that no reading uses costs none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, NamedTuple

from .category import (
    Atom,
    Bindings,
    Category,
    Direction,
    Functor,
    Modality,
    Singleton,
    apply_bindings,
    category_key,
    category_parts,
    match_argument,
    rename_variables,
    unify,
)
from . import logical_form as lf
from .lexicon import LexEntry, Lexicon, lookup

MAX_TOKENS = 32  # longer sentences are refused

#: Atom attributes whose values are computed from the substituting span
#: rather than stored on derived categories.
COMPUTED_ATTRS = ("lexc", "weight")


def misplaced_computed(c: Category, slots: list[Category]) -> list[tuple[Atom, list[str]]]:
    """The atoms of c that carry COMPUTED_ATTRS but are none of slots, each
    with those attributes: only a slot that an edge fills has a span to
    compute them from."""
    out = []
    for part in category_parts(c):
        if isinstance(part, Atom):
            computed = [a for a, _ in part.features if a in COMPUTED_ATTRS]
            if computed and not any(part is slot for slot in slots):
                out.append((part, computed))
    return out


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


class ParserError(Exception):
    pass


class UnknownTokenError(ParserError):
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        super().__init__("unknown token(s): " + ", ".join(repr(t) for t in tokens))


class SentenceTooLongError(ParserError):
    pass


@dataclass(frozen=True, eq=False)
class Edge:
    """A chart constituent over tokens [start, end) of its chart's sentence;
    logical forms are closed and beta-normal on construction."""

    start: int
    end: int
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
        return self.rule.value if self.rule is not None else "LEX"

    def reading_key(self, category_text: str | None = None) -> tuple[str, str]:
        """The category's key, or category_text when the caller holds it, and the logical form's alpha key."""
        return (category_text or category_key(self.category), lf.alpha_key(self.lf))


def derived_features(edge: Edge | Node, weight_threshold: int) -> dict[str, str]:
    """The values of COMPUTED_ATTRS for an edge, never stored on its category.

    ``lexc`` is "+" when the edge's lexc flag is set; ``weight`` is "-" when
    the span covers at most weight_threshold tokens.
    """
    return {"lexc": "+" if edge.lexc else "-", "weight": "-" if edge.end - edge.start <= weight_threshold else "+"}


@dataclass(eq=False)
class Node:
    """The derivations of one category and lexc flag over tokens [start, end), as the ways
    they were made, in order: (seed index, seed edge) or (rule row, left node, right node)."""

    start: int
    end: int
    category: Category
    lexc: bool
    ways: list[tuple] = field(default_factory=list)


class Chart:
    """The cells of one parse, with the lexicon, the sentence and the step budget they are built under.

    Equal categories made in the chart are one object, hashed and keyed
    once, so the category steps of two nodes or edges are looked up by identity.
    """

    def __init__(self, lexicon: Lexicon, tokens: list[str] | tuple[str, ...], max_steps: int):
        self.lexicon = lexicon
        self.tokens = tuple(tokens)
        self.max_steps = max_steps
        self.cells: dict[tuple[int, int], dict[tuple[str, bool], Node]] = {}
        self.categories: dict[Category, Category] = {}
        self.category_keys: dict[int, str] = {}  # by the id of an interned category
        self.category_steps: dict[tuple, tuple] = {}  # see _category_steps
        self.derivations: dict[tuple[Node, bool], list] = {}  # see _derivations

    def intern(self, c: Category) -> Category:
        """The chart's one category equal to c."""
        found = self.categories.setdefault(c, c)
        if id(found) not in self.category_keys:
            self.category_keys[id(found)] = category_key(found)
        return found

    def add(self, start: int, end: int, category: Category, lexc: bool, way: tuple) -> bool:
        """File way under the node of its span, category and lexc flag; whether that node is new."""
        cell = self.cells.setdefault((start, end), {})
        # application reads lexc, so derivations that differ in it are not packed together
        key = (self.category_keys[id(category)], lexc)
        node = cell.get(key) or cell.setdefault(key, Node(start, end, category, lexc))
        node.ways.append(way)
        return len(node.ways) == 1

    def edges(self, start: int, end: int) -> list[Edge]:
        """The first derivation of each (reading, lexc) over [start, end), in the order an unpacked chart adds them."""
        return [e for _, e in _walk(self.cells.get((start, end), {}).values(), self, False)]

    def spanning(self) -> list[Edge]:
        return self.edges(0, len(self.tokens))

    def all_edges(self) -> list[Edge]:
        return [e for i, j in self.cells for e in self.edges(i, j)]

    def longest_partials(self) -> list[Edge]:
        """The first edge for each reading key over the longest spans holding
        edges, the whole sentence included: the near misses of a NO PARSE,
        which under a goal are the spanning readings that missed it."""
        n = len(self.tokens)
        for length in range(n, 0, -1):
            found = [
                e for (i, j), cell in self.cells.items() if j - i == length
                for _, e in _first_per_reading(_walk(cell.values(), self, False), self)
            ]
            if found:
                return found
        return []

    def fills(self, spec: Category, edge: Edge | Node) -> Bindings | None:
        """Match an argument slot against the edge's span of the sentence, computed features included."""
        computed = derived_features(edge, self.lexicon.weight_threshold)
        return match_argument(spec, edge.category, self.tokens[edge.start : edge.end], computed)


def _first_per_reading(found: list[tuple[tuple, Edge]], chart: Chart) -> list[tuple[tuple, Edge]]:
    """The first (key, edge) pair of found for each reading key of its edge, in order."""
    first: dict[tuple[str, str], tuple[tuple, Edge]] = {}
    for key, e in found:
        first.setdefault(e.reading_key(chart.category_keys.get(id(e.category))), (key, e))
    return list(first.values())


# ---------------------------------------------------------------------------
# the rules

def _functor(edge: Edge | Node, direction: Direction) -> Functor | None:
    c = edge.category
    if isinstance(c, Functor) and c.slash.direction is direction:
        return c
    return None


def _composable(*slots: Category) -> bool:
    """Whether these slots may be filled by unification instead of by an edge.

    Computed span predicates (weight, lexc) are only checkable when a slot
    is filled by application; composing or substituting them away would
    silently drop the constraint, so such slots are application-only.
    """
    return not any(isinstance(c, Atom) and any(a in COMPUTED_ATTRS for a, _ in c.features) for c in slots)


class RuleRow(NamedTuple):
    """A row of the rule table: f is the primary functor, g the other neighbour.

    f's slash points at g, so f is the left neighbour exactly when f_direction is FORWARD.
    """

    rule: RuleId
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
# Rows are tried in order.  _derivations keeps the first derivation for each
# reading, so the order decides which derivation a packed reading shows.
RULES = (
    RuleRow(RuleId.FWD_APP, _FWD, None, "A", _ANY),
    RuleRow(RuleId.BWD_APP, _BWD, None, "A", _ANY),
    RuleRow(RuleId.FWD_COMP_HARMONIC, _FWD, _FWD, "B", _HARMONIC),
    RuleRow(RuleId.BWD_COMP_HARMONIC, _BWD, _BWD, "B", _HARMONIC),
    RuleRow(RuleId.FWD_COMP_CROSSING, _FWD, _BWD, "B", _CROSSING),
    RuleRow(RuleId.BWD_COMP_CROSSING, _BWD, _FWD, "B", _CROSSING),
    RuleRow(RuleId.FWD_SUBST, _FWD, _FWD, "S", _HARMONIC),
    RuleRow(RuleId.BWD_SUBST, _BWD, _BWD, "S", _HARMONIC),
)


def _category_step(row: RuleRow, f_edge: Edge | Node, g_edge: Edge | Node, chart: Chart) -> tuple[Category, Bindings] | None:
    """The result category of one rule with its bindings, or None if a gate blocks it.

    Every slash the rule consumes must admit it.  Application matches f's
    argument against g's edge, so a string-valued argument needs no rule
    of its own; composition and substitution unify category structure.
    """
    f = _functor(f_edge, row.f_direction)
    if f is None or f.slash.modality not in row.admits:
        return None
    if row.shape == "A":
        bnd = chart.fills(f.argument, g_edge)
        return None if bnd is None else (f.result, bnd)
    g = _functor(g_edge, row.g_direction)
    if g is None or g.slash.modality not in row.admits:
        return None
    if row.shape == "B":
        head, slot, bnd = f.result, f.argument, {}
    else:  # f is (X/Y)/Z: its inner slash shares f's direction and is gated too
        inner = f.result
        if not (
            isinstance(inner, Functor)
            and inner.slash.direction is row.f_direction
            and inner.slash.modality in row.admits
        ):
            return None
        head, slot, bnd = inner.result, inner.argument, unify(f.argument, g.argument)
    if bnd is None or not _composable(f.argument, slot, g.result):
        return None
    bnd = unify(slot, g.result, bnd)
    return None if bnd is None else (Functor(head, g.slash, g.argument), bnd)


_X = lf.Var("x")


def _lf_step(shape: str, f: lf.Term, g: lf.Term, max_steps: int) -> lf.Term:
    """f g, \\x. f (g x) or \\x. f x (g x) by shape, normalized once; f and g are closed, so x captures nothing."""
    if shape == "A":
        term: lf.Term = lf.App(f, g)
    else:
        head = lf.App(f, _X) if shape == "S" else f
        term = lf.Abs("x", lf.App(head, lf.App(g, _X)))
    return lf.beta_normalize(term, max_steps=max_steps)


def _category_steps(left: Edge | Node, right: Edge | Node, chart: Chart) -> list[tuple[RuleRow, Category]]:
    """The rows of RULES that fire on two adjacent edges, each with its
    interned result category, computed once per distinct input: both
    categories, both lexc flags and weights, and a span's words when the
    other side applies to a string."""
    lc, rc = left.category, right.category
    l_functor, r_functor = type(lc) is Functor, type(rc) is Functor
    if not (l_functor and lc.slash.direction is _FWD or r_functor and rc.slash.direction is _BWD):
        return []  # no row has a primary functor here
    threshold = chart.lexicon.weight_threshold
    key = (
        id(lc), id(rc), left.lexc, right.lexc, left.end - left.start <= threshold, right.end - right.start <= threshold,
        l_functor and type(lc.argument) is Singleton and chart.tokens[right.start : right.end],
        r_functor and type(rc.argument) is Singleton and chart.tokens[left.start : left.end],
    )
    found = chart.category_steps.get(key)
    if found is None:
        rows = []
        for row in RULES:
            step = _category_step(row, *((left, right) if row.f_direction is _FWD else (right, left)), chart)
            if step is not None:
                rows.append((row, chart.intern(apply_bindings(*step))))
        found = chart.category_steps[key] = (rows, lc, rc)  # holding lc and rc keeps their ids theirs
    return found[0]


def combine(left: Edge, right: Edge, chart: Chart) -> list[Edge]:
    """All edges derivable from two adjacent constituents of the chart's
    sentence, one per rule in RULES that fires."""
    out: list[Edge] = []
    for row, category in _category_steps(left, right, chart):
        f_edge, g_edge = (left, right) if row.f_direction is _FWD else (right, left)
        term = _lf_step(row.shape, f_edge.lf, g_edge.lf, chart.max_steps)
        out.append(Edge(left.start, right.end, category, term, row.rule, (left, right), lexc=left.lexc or right.lexc))
    return out


# ---------------------------------------------------------------------------
# the chart loop

def seed_edges(chart: Chart) -> list[Edge]:
    """Lexical edges for each match of the chart's lexicon in its sentence; raises when a token is uncovered."""
    lex, tokens, max_steps = chart.lexicon, chart.tokens, chart.max_steps
    edges: list[Edge] = []
    covered = [False] * len(tokens)
    fresh = itertools.count()
    for start in range(len(tokens)):
        for entry, length in lookup(lex, tokens, start):
            category = chart.intern(rename_variables(entry.category, str(next(fresh))))
            term = lf.beta_normalize(entry.lf, max_steps=max_steps)
            edges.append(Edge(start, start + length, category, term, entry=entry, lexc=entry.lexc))
            for i in range(start, start + length):
                covered[i] = True
    unknown = sorted({tokens[i] for i, c in enumerate(covered) if not c})
    if unknown:
        raise UnknownTokenError(unknown)
    return edges


def build_chart(lex: Lexicon, tokens: list[str] | tuple[str, ...], max_steps: int = lf.DEFAULT_STEP_BUDGET) -> Chart:
    """Run exhaustive CKY over categories and return the filled chart (its logical forms: see _derivations)."""
    if not tokens:
        raise ParserError("cannot parse an empty sentence")
    if len(tokens) > MAX_TOKENS:
        raise SentenceTooLongError(f"{len(tokens)} tokens exceeds the limit of {MAX_TOKENS}")
    chart = Chart(lex, tokens, max_steps)
    for i, edge in enumerate(seed_edges(chart)):
        chart.add(edge.start, edge.end, edge.category, edge.lexc, (i, edge))
    n = len(tokens)
    for length in range(2, n + 1):
        for start in range(0, n - length + 1):
            end = start + length
            for split in range(start + 1, end):
                rights = chart.cells.get((split, end), {}).values()
                for left in chart.cells.get((start, split), {}).values():
                    for right in rights:
                        for row, category in _category_steps(left, right, chart):
                            chart.add(start, end, category, left.lexc or right.lexc, (row, left, right))
    return chart


def _derivations(node: Node, chart: Chart, every: bool) -> list[tuple[tuple, Edge]]:
    """Node's derivations, each made by combine on its children's derivations,
    with its key in the order a chart without packing adds edges: seeds in
    lookup order, then (split, left key, right key, rule row).  Every one, or
    the first for each reading key; made once per chart."""
    found = chart.derivations.get((node, every))
    if found is None:
        found = []
        for way in node.ways:
            if len(way) == 2:
                found.append(((-1, way[0]), way[1]))
                continue
            row, left, right = way
            for lkey, l in _derivations(left, chart, every):
                for rkey, r in _derivations(right, chart, every):
                    found += [((left.end, lkey, rkey, i), e) for i, e in enumerate(combine(l, r, chart)) if e.rule is row.rule]
        found.sort(key=itemgetter(0))
        found = chart.derivations[node, every] = found if every else _first_per_reading(found, chart)
    return found


def _walk(nodes: Iterable[Node], chart: Chart, every: bool) -> list[tuple[tuple, Edge]]:
    """The derivations of nodes of one span (see _derivations), in one key order."""
    return sorted((pair for node in nodes for pair in _derivations(node, chart, every)), key=itemgetter(0))


def chart_readings(chart: Chart, goal: Category | None = None, all_derivations: bool = False) -> list[Edge]:
    """The chart's spanning edges that fill the goal as an argument slot,
    computed features included (None accepts any): the first for each reading
    key, or every derivation of each (see _derivations), in one add order."""
    cell = chart.cells.get((0, len(chart.tokens)), {})
    found = _walk((v for v in cell.values() if goal is None or chart.fills(goal, v) is not None), chart, all_derivations)
    return [e for _, e in (found if all_derivations else _first_per_reading(found, chart))]


def parse(
    lex: Lexicon,
    tokens: list[str] | tuple[str, ...],
    goal: Category | None = None,
    max_steps: int = lf.DEFAULT_STEP_BUDGET,
) -> list[Edge]:
    """The chart's readings that fill the goal (see chart_readings), in the order added.

    An empty result is a normal NO PARSE outcome; unknown tokens and
    over-long sentences raise ParserError subclasses.
    """
    return chart_readings(build_chart(lex, tokens, max_steps), goal)

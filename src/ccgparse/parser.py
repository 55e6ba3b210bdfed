"""Exhaustive CKY chart parsing over the fixed combinatory rule inventory.

Eight binary rules, each a member of the rule table RuleId, plus lexical seeding:
forward and backward application (which also perform string-category
substitution), harmonic and crossing composition, and substitution.
Every rule is gated by the modalities of the slashes it consumes.  The
chart is built over categories only, a cell holding one node per (category,
lexc) with every way it was made; logical forms are made by a walk from the
nodes asked for, so a node that no reading uses costs none.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import Iterable, TypeGuard

from .category import (
    Bindings,
    Category,
    Direction,
    Functor,
    Modality,
    Singleton,
    Slash,
    apply_bindings,
    category_key,
    computed_attrs,
    match_argument,
    standardize,
    unify,
)
from . import logical_form as lf
from .lexicon import LexEntry, Lexicon, lookup

MAX_TOKENS = 32  # longer sentences are refused

_FWD, _BWD = Direction.FORWARD, Direction.BACKWARD
_ANY = tuple(Modality)
_HARMONIC = (Modality.DIAMOND, Modality.DOT)
_CROSSING = (Modality.CROSS, Modality.DOT)


class RuleId(Enum):
    """The rule table: the fixed binary rule inventory, one member per rule,
    each with its display label as its value.

    f is the primary functor and g the other neighbour.  f's slash points at
    g, so f is the left neighbour exactly when f_direction is FORWARD.
    Shapes, with f's slash written forward and | for g's slash:
      A  application   X/Y      Y    => X    f g
      B  composition   X/Y      Y|Z  => X|Z  \\x. f (g x)
      S  substitution  (X/Y)/Z  Y|Z  => X|Z  \\x. f x (g x)
    Every slash a rule consumes must have one of its ``admits`` modalities.
    Rules are tried in order.  _derivations keeps the first derivation for
    each reading, so the order decides which derivation a packed reading shows.
    """

    FWD_APP = (">", _FWD, None, "A", _ANY)
    BWD_APP = ("<", _BWD, None, "A", _ANY)
    FWD_COMP_HARMONIC = (">B", _FWD, _FWD, "B", _HARMONIC)
    BWD_COMP_HARMONIC = ("<B", _BWD, _BWD, "B", _HARMONIC)
    FWD_COMP_CROSSING = (">Bx", _FWD, _BWD, "B", _CROSSING)
    BWD_COMP_CROSSING = ("<Bx", _BWD, _FWD, "B", _CROSSING)
    FWD_SUBST = (">S", _FWD, _FWD, "S", _HARMONIC)
    BWD_SUBST = ("<S", _BWD, _BWD, "S", _HARMONIC)

    def __new__(cls, label: str, f_direction: Direction, g_direction: Direction | None, shape: str, admits: tuple[Modality, ...]):
        rule = object.__new__(cls)
        rule._value_ = label
        rule.f_direction, rule.g_direction, rule.shape, rule.admits = f_direction, g_direction, shape, admits
        return rule

    __hash__ = object.__hash__  # by identity, as members compare, and without Enum's Python-level hash


RULES = tuple(RuleId)  # the order rules are tried in; a category-step memo miss tries only the rows its slashes admit

# by the primary slash of each side (None for no functor): the rows of RULES, in order, whose primary gate admits it
_PRIMARY = (None, *(Slash(d, m) for d in Direction for m in Modality))
_ROWS = {
    (ls, rs): tuple(row for row in RULES if (s := ls if row.f_direction is _FWD else rs) is not None
                    and s.direction is row.f_direction and s.modality in row.admits)
    for ls in _PRIMARY for rs in _PRIMARY
}


class ParserError(Exception):
    pass


class UnknownTokenError(ParserError):
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        super().__init__("unknown token(s): " + ", ".join(repr(t) for t in tokens))


class SentenceTooLongError(ParserError):
    pass


class Edge:
    """A chart constituent over tokens [start, end) of its chart's sentence;
    logical forms are closed and beta-normal on construction.  ``lexc`` is
    set when some lexical entry at the leaves carries lexc+.  Edges compare
    and hash by identity."""

    __slots__ = ("start", "end", "category", "lf", "rule", "children", "entry", "lexc")

    def __init__(
        self, start: int, end: int, category: Category, lf: lf.Term,
        rule: RuleId | None = None, children: tuple[Edge, ...] = (), entry: LexEntry | None = None, lexc: bool = False,
    ):
        self.start, self.end, self.category, self.lf = start, end, category, lf
        self.rule, self.children, self.entry, self.lexc = rule, children, entry, lexc

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def label(self) -> str:
        return self.rule.value if self.rule is not None else "LEX"

    def reading_key(self, category_text: str | None = None) -> tuple[str, lf.AlphaKey]:
        """The category's key, or category_text when the caller holds it, and the logical form's alpha key."""
        return (category_text or category_key(self.category), lf.alpha_key(self.lf))


def _light(edge: Edge | Node, weight_threshold: int) -> bool:
    """Whether the edge's span covers at most weight_threshold tokens: its weight is "-"."""
    return edge.end - edge.start <= weight_threshold


def derived_features(edge: Edge | Node, weight_threshold: int) -> dict[str, str]:
    """The values of category.COMPUTED_ATTRS for an edge, never stored on its category.

    ``lexc`` is "+" when the edge's lexc flag is set; ``weight`` is "-" when
    the edge is light.
    """
    return {"lexc": "+" if edge.lexc else "-", "weight": "-" if _light(edge, weight_threshold) else "+"}


class Node:
    """The derivations of one category and lexc flag over tokens [start, end), as the ways
    they were made, in order: (seed index, seed edge) or (rule, left node, right node).
    Nodes compare and hash by identity."""

    __slots__ = ("start", "end", "category", "lexc", "ways")

    def __init__(self, start: int, end: int, category: Category, lexc: bool):
        self.start, self.end, self.category, self.lexc = start, end, category, lexc
        self.ways: list[tuple] = []


class Chart:
    """The cells of one parse, with the lexicon, the sentence and the step budget they are built under.

    The categories made in the chart are interned in its lexicon's category table, which
    every chart over that lexicon shares, so the category steps of two nodes or edges
    are looked up by identity.
    """

    def __init__(self, lexicon: Lexicon, tokens: list[str] | tuple[str, ...], max_steps: int):
        self.lexicon = lexicon
        self.tokens = tuple(tokens)
        self.max_steps = max_steps
        self.cells: dict[tuple[int, int], dict[tuple[str, bool], Node]] = {}
        self.derivations: dict[tuple[Node, bool, tuple[int, ...]], list] = {}  # see _derivations

    def add(self, start: int, end: int, category: Category, lexc: bool, way: tuple) -> bool:
        """File way under the node of its span, category and lexc flag; whether that node is new."""
        cell = self.cells.setdefault((start, end), {})
        # application reads lexc, so derivations that differ in it are not packed together
        key = (self.lexicon.category_table.category_keys[id(category)], lexc)
        node = cell.get(key) or cell.setdefault(key, Node(start, end, category, lexc))
        node.ways.append(way)
        return len(node.ways) == 1

    def longest_partials(self) -> list[Edge]:
        """The first edge for each reading key over the longest spans holding
        nodes, the whole sentence included: the near misses of a NO PARSE,
        which under a goal are the spanning readings that missed it.  Every
        node yields a derivation (see _derivations), so these spans hold edges."""
        length = max(j - i for i, j in self.cells)
        return [e for (i, j), cell in self.cells.items() if j - i == length for e in _walk(cell.values(), self, False)]

    def fills(self, spec: Category, edge: Edge | Node) -> Bindings | None:
        """Match an argument slot against the edge's span of the sentence, computed features included."""
        computed = derived_features(edge, self.lexicon.weight_threshold)
        return match_argument(spec, edge.category, self.tokens[edge.start : edge.end], computed)


def _first_per_reading(found: list[tuple[tuple, Edge]], chart: Chart) -> list[tuple[tuple, Edge]]:
    """The first (key, edge) pair of found for each reading key of its edge, in order (see lf.AlphaKey)."""
    if len(found) < 2:
        return found
    first: dict[tuple[str, lf.AlphaKey], tuple[tuple, Edge]] = {}
    keys = chart.lexicon.category_table.category_keys
    for key, e in found:
        first.setdefault(e.reading_key(keys.get(id(e.category))), (key, e))
    return list(first.values())


# ---------------------------------------------------------------------------
# the rules

def _gated(c: Category, direction: Direction, admits: tuple[Modality, ...]) -> TypeGuard[Functor]:
    """Whether c is a functor whose slash has this direction and one of these modalities."""
    return type(c) is Functor and c.slash.direction is direction and c.slash.modality in admits


def _category_step(row: RuleId, f_edge: Edge | Node, g_edge: Edge | Node, chart: Chart) -> tuple[Category, Bindings] | None:
    """The result category of one rule with its bindings, or None if a gate blocks it.

    Every slash the rule consumes must admit it.  Application matches f's
    argument against g's edge, so a string-valued argument needs no rule
    of its own; composition and substitution unify category structure.
    """
    f, g = f_edge.category, g_edge.category
    if not _gated(f, row.f_direction, row.admits):
        return None
    if row.shape == "A":
        bnd = chart.fills(f.argument, g_edge)
        return None if bnd is None else (f.result, bnd)
    if not _gated(g, row.g_direction, row.admits):
        return None
    if row.shape == "B":
        head, slot, bnd = f.result, f.argument, {}
    elif not _gated(inner := f.result, row.f_direction, row.admits):  # f is (X/Y)/Z: its inner slash is gated too
        return None
    else:
        head, slot, bnd = inner.result, inner.argument, unify(f.argument, g.argument)
    if bnd is None or any(computed_attrs(c) for c in (f.argument, slot, g.result)):  # application-only slots
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


def _application_reads(f: Category, direction: Direction, g_edge: Edge | Node, chart: Chart) -> bool | tuple[bool, bool] | None:
    """What application of f in this direction reads of g_edge: whether it spells f's string
    argument, or its lexc flag and lightness when f's argument carries a computed attribute.
    Composition and substitution refuse computed slots, so they read nothing of it."""
    if type(f) is not Functor or f.slash.direction is not direction:
        return None
    if type(f.argument) is Singleton:
        return chart.tokens[g_edge.start : g_edge.end] == f.argument.tokens
    if computed_attrs(f.argument):
        return (g_edge.lexc, _light(g_edge, chart.lexicon.weight_threshold))
    return None


def _category_steps(left: Edge | Node, right: Edge | Node, chart: Chart) -> list[tuple[RuleId, Category]]:
    """The rules that fire on two adjacent edges, each with its interned result
    category, computed once per lexicon for each distinct input: both categories,
    and what application reads of each span (see _application_reads)."""
    lc, rc = left.category, right.category
    if not (type(lc) is Functor and lc.slash.direction is _FWD or type(rc) is Functor and rc.slash.direction is _BWD):
        return []  # no row has a primary functor here
    table = chart.lexicon.category_table
    key = (id(lc), id(rc), _application_reads(lc, _FWD, right, chart), _application_reads(rc, _BWD, left, chart))
    found = table.category_steps.get(key)
    if found is None:
        if id(lc) not in table.closed and id(rc) not in table.closed:  # both may share variable names
            right = Node(right.start, right.end, standardize(rc, "r")[0], right.lexc)
        rows = []
        for row in _ROWS[lc.slash if type(lc) is Functor else None, rc.slash if type(rc) is Functor else None]:
            step = _category_step(row, *((left, right) if row.f_direction is _FWD else (right, left)), chart)
            if step is not None:  # bindings that bind nothing rebuild the same category
                rows.append((row, table.intern(apply_bindings(*step) if step[1] else step[0])))
        found = table.category_steps[key] = (rows, lc, rc)  # holding lc and rc keeps their ids theirs
    return found[0]


def combine(left: Edge, right: Edge, chart: Chart) -> list[Edge]:
    """All edges derivable from two adjacent constituents of the chart's
    sentence, one per rule in RULES that fires."""
    out: list[Edge] = []
    for row, category in _category_steps(left, right, chart):
        f_edge, g_edge = (left, right) if row.f_direction is _FWD else (right, left)
        term = _lf_step(row.shape, f_edge.lf, g_edge.lf, chart.max_steps)
        out.append(Edge(left.start, right.end, category, term, row, (left, right), lexc=left.lexc or right.lexc))
    return out


# ---------------------------------------------------------------------------
# the chart loop

def seed_edges(chart: Chart) -> list[Edge]:
    """Lexical edges for each match of the chart's lexicon in its sentence; raises when a token is uncovered."""
    lex, tokens, max_steps = chart.lexicon, chart.tokens, chart.max_steps
    seed = lex.category_table.seed
    edges: list[Edge] = []
    covered = [False] * len(tokens)
    for start in range(len(tokens)):
        for entry, length in lookup(lex, tokens, start):
            term = lf.beta_normalize(entry.lf, max_steps=max_steps)
            edges.append(Edge(start, start + length, seed(entry.category), term, entry=entry, lexc=entry.lexc))
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


# Two ways of one node that re-associate the same three child nodes A B C,
# (A r1 B) row C and A row (B r2 C), as _TWINS[row] = (r1, r2).  Their logical
# forms are beta-equal, as (\x. f (g x)) h = f (g h), and the second way, with
# the smaller split, sorts first.
_TWINS = {
    RuleId.FWD_APP: (RuleId.FWD_COMP_HARMONIC, RuleId.FWD_APP),
    RuleId.FWD_COMP_HARMONIC: (RuleId.FWD_COMP_HARMONIC, RuleId.FWD_COMP_HARMONIC),
    RuleId.BWD_APP: (RuleId.BWD_APP, RuleId.BWD_COMP_HARMONIC),
    RuleId.BWD_COMP_HARMONIC: (RuleId.BWD_COMP_HARMONIC, RuleId.BWD_COMP_HARMONIC),
}


def _twin_index(node: Node) -> set[tuple]:
    """(row, A, B, C) for each way (row, A, M) of node and way (r2, B, C) of M (see _TWINS)."""
    return {(w[0], w[1], *m[1:]) for w in node.ways if w[0] in _TWINS for m in w[2].ways if m[0] is _TWINS[w[0]][1]}


def _twinned(node: Node, way: tuple, index: set[tuple] | None = None) -> tuple[int, ...]:
    """For node's way (row, left, C): the indices of left's ways (r1, A, B) whose twin (see _TWINS)
    is a way of node too, (row, A, M) where M has the way (r2, B, C), looked up in node's _twin_index."""
    row, left, right = way
    if row not in _TWINS:
        return ()
    index = _twin_index(node) if index is None else index
    return tuple(i for i, (r, *children) in enumerate(left.ways) if r is _TWINS[row][0] and (row, *children, right) in index)


def _derivations(node: Node, chart: Chart, every: bool, skipped: tuple[int, ...] = ()) -> list[tuple[tuple, Edge]]:
    """Node's derivations but those of the ways at the indices skipped, each
    made by combine on its children's derivations, with its key in the order
    a chart without packing adds edges: seeds in lookup order, then (split,
    left key, right key, rule row).  Every one, or the first for each reading
    key; made once per chart.

    Unless every one is asked for, a way's left child is walked without its
    twinned ways (see _twinned), and a way whose left child has no other is
    skipped: each derivation so left out has a twin of the same reading that
    sorts before it, so the readings and the derivation each shows are those
    of every derivation, and a child that feeds only twinned ways is never walked.
    """
    found = chart.derivations.get((node, every, skipped))
    if found is None:
        found = []
        twins = None if every else _twin_index(node)
        for index, way in enumerate(node.ways):
            if len(way) == 2:
                found.append(((-1, way[0]), way[1]))
                continue
            if index in skipped:
                continue
            row, left, right = way
            twinned = () if every else _twinned(node, way, twins)
            if len(twinned) == len(left.ways):
                continue
            for lkey, l in _derivations(left, chart, every, twinned):
                for rkey, r in _derivations(right, chart, every):
                    found += [((left.end, lkey, rkey, i), e) for i, e in enumerate(combine(l, r, chart)) if e.rule is row]
        found.sort(key=itemgetter(0))
        found = chart.derivations[node, every, skipped] = found if every else _first_per_reading(found, chart)
    return found


def _walk(nodes: Iterable[Node], chart: Chart, every: bool) -> list[Edge]:
    """The derivations of nodes of one span (see _derivations) in one key order: every one, or the first per reading key."""
    found = sorted((pair for node in nodes for pair in _derivations(node, chart, every)), key=itemgetter(0))
    return [e for _, e in (found if every else _first_per_reading(found, chart))]


def chart_readings(chart: Chart, goal: Category | None = None, all_derivations: bool = False) -> list[Edge]:
    """The chart's spanning edges that fill the goal as an argument slot,
    computed features included (None accepts any): the first for each reading
    key, or every derivation of each (see _derivations), in one add order."""
    cell = chart.cells.get((0, len(chart.tokens)), {})
    return _walk((v for v in cell.values() if goal is None or chart.fills(goal, v) is not None), chart, all_derivations)


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

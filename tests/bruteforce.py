"""Brute-force derivation oracle: enumerate every binary bracketing.

Shares seed_edges and combine with the chart parser, and through combine the
memo of category steps, but over a copy of the lexicon whose category table
starts empty: the oracle never reads a step that the parser under test
stored.  Its Chart is only the holder of the lexicon, the sentence and the
step budget; none of the parser's control structure or packing is shared,
and no cell is ever filled.  Intended for short sentences only; the
recursion deliberately recomputes sub-spans.

Beside it, direct_category_steps tries every rule row on its own, without
the memo, the row table or interning; chart_edges and all_chart_edges read a
filled chart's cells as edges, for tests that check every constituent rather
than the readings; and node_duplicates checks each node's deduplication
against first_per_reading, which keys every derivation by its category key
and reference alpha key.
"""

from operator import itemgetter
from unittest import mock

from ccgparse import logical_form as lf
from ccgparse import parser
from ccgparse.category import Category, Direction, apply_bindings, category_key, standardize
from ccgparse.lexicon import Lexicon
from ccgparse.parser import RULES, Chart, Edge, Node, RuleId, _derivations, combine, seed_edges
from lfhelpers import reference_alpha_key


def derivations(lex: Lexicon, tokens: list[str], max_steps: int = lf.DEFAULT_STEP_BUDGET) -> list[Edge]:
    """Every derivation over the full span, in the order an unpacked chart
    adds them: seeds in lookup order, then by split, left derivation, right
    derivation and rule row."""
    chart = Chart(lex.copy(), tokens, max_steps)
    lexical: dict[tuple[int, int], list[Edge]] = {}
    for edge in seed_edges(chart):
        lexical.setdefault(edge.span, []).append(edge)

    def derive(start: int, end: int) -> list[Edge]:
        found = list(lexical.get((start, end), ()))
        for split in range(start + 1, end):
            rights = derive(split, end)
            for left in derive(start, split):
                for right in rights:
                    found.extend(combine(left, right, chart))
        return found

    return derive(0, len(tokens))


def enumerate_readings(lex: Lexicon, tokens: list[str], max_steps: int = lf.DEFAULT_STEP_BUDGET) -> set[tuple[str, str]]:
    """All (category key, lf alpha key) pairs derivable over the full span."""
    return {(category_key(e.category), lf.alpha_key(e.lf)) for e in derivations(lex, tokens, max_steps)}


def direct_category_steps(left: Edge | Node, right: Edge | Node, chart: Chart) -> list[tuple[RuleId, Category]]:
    """The rows of RULES that fire on two adjacent edges or nodes, in order, each with its result
    category: every row tried through parser._category_step, with no memo, no row table and no
    interning, and the right side's variables always renamed apart."""
    right = Node(right.start, right.end, standardize(right.category, "r")[0], right.lexc)
    out = []
    for row in RULES:
        step = parser._category_step(row, *((left, right) if row.f_direction is Direction.FORWARD else (right, left)), chart)
        if step is not None:
            out.append((row, apply_bindings(*step)))
    return out


def chart_edges(chart: Chart, start: int, end: int) -> list[Edge]:
    """The first derivation of each (reading, lexc) over [start, end) of a
    built chart, one node's at a time, in the order an unpacked chart adds them."""
    found = (pair for node in chart.cells.get((start, end), {}).values() for pair in _derivations(node, chart, False))
    return [e for _, e in sorted(found, key=itemgetter(0))]


def all_chart_edges(chart: Chart) -> list[Edge]:
    """chart_edges of every cell of a built chart."""
    return [e for i, j in chart.cells for e in chart_edges(chart, i, j)]


def first_per_reading(found: list[tuple[tuple, Edge]]) -> list[tuple[tuple, Edge]]:
    """The first (key, edge) pair of found for each reading of its edge, in order, every edge
    keyed by its category key and its logical form's reference_alpha_key."""
    first: dict[tuple[str, str], tuple[tuple, Edge]] = {}
    for key, e in found:
        first.setdefault((category_key(e.category), reference_alpha_key(e.lf)), (key, e))
    return list(first.values())


def node_duplicates(chart: Chart) -> tuple[int, int]:
    """Walk every node of a chart that no walk has visited yet, checking that each keeps the
    derivations first_per_reading keeps of those it made; the counts of derivations dropped,
    and of those kept though an earlier one of their node has their logical form's fingerprint."""
    dropped = collided = 0
    deduplicate = parser._first_per_reading

    def checked(found: list[tuple[tuple, Edge]], chart: Chart) -> list[tuple[tuple, Edge]]:
        nonlocal dropped, collided
        kept = deduplicate(found, chart)
        assert kept == first_per_reading(found), (chart.tokens, [lf.pretty_print(e.lf) for _, e in found])
        fingerprints = [e.lf.fp for _, e in kept]
        dropped += len(found) - len(kept)
        collided += len(fingerprints) - len(set(fingerprints))
        return kept

    assert not chart.derivations
    with mock.patch.object(parser, "_first_per_reading", checked):
        for cell in chart.cells.values():
            for node in cell.values():
                _derivations(node, chart, False)
    return dropped, collided

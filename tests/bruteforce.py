"""Brute-force derivation oracle: enumerate every binary bracketing.

Shares seed_edges and combine with the chart parser, and its Chart only as
the holder of the lexicon, the sentence and the settings, but none of its control
structure, memoization, or packing: no cell is ever filled.  Intended for
short sentences only; the recursion deliberately recomputes sub-spans.
"""

from ccgparse import logical_form as lf
from ccgparse.category import category_key
from ccgparse.lexicon import Lexicon
from ccgparse.parser import Chart, Edge, ParseSettings, combine, seed_edges


def enumerate_readings(lex: Lexicon, tokens: list[str], settings: ParseSettings = ParseSettings()) -> set[tuple[str, str]]:
    """All (category key, lf alpha key) pairs derivable over the full span."""
    chart = Chart(lex, tokens, settings)
    lexical: dict[tuple[int, int], list[Edge]] = {}
    for edge in seed_edges(chart):
        lexical.setdefault(edge.span, []).append(edge)

    def derive(start: int, end: int) -> list[Edge]:
        found = list(lexical.get((start, end), ()))
        for split in range(start + 1, end):
            for left in derive(start, split):
                for right in derive(split, end):
                    found.extend(combine(left, right, chart))
        return found

    return {
        (category_key(e.category), lf.alpha_key(e.lf)) for e in derive(0, len(tokens))
    }

"""Brute-force derivation oracle: enumerate every binary bracketing.

Shares seed_edges and combine with the chart parser, and its Chart only as
the holder of the lexicon, the sentence and the step budget, but none of its control
structure, memoization, or packing: no cell is ever filled.  Intended for
short sentences only; the recursion deliberately recomputes sub-spans.
"""

from ccgparse import logical_form as lf
from ccgparse.category import category_key
from ccgparse.lexicon import Lexicon
from ccgparse.parser import Chart, Edge, combine, seed_edges


def derivations(lex: Lexicon, tokens: list[str], max_steps: int = lf.DEFAULT_STEP_BUDGET) -> list[Edge]:
    """Every derivation over the full span, in the order an unpacked chart
    adds them: seeds in lookup order, then by split, left derivation, right
    derivation and rule row."""
    chart = Chart(lex, tokens, max_steps)
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

"""Scaling curve of the chart parser on generated coordination chains and modifier stacks.

Usage (from the repository root):

    python tools/curve.py MAX_TOKENS > curve.json

Coordination chains ``John kicked and Mary dragged and ... the bucket`` run
from two clauses up to the longest that fits in MAX_TOKENS (3k+1 tokens for
k clauses); modifier stacks run in the three frames of the modstack
workload, every fourth stack depth and the deepest that fits.  Each size
reports its token count, the median of three ``perf_counter`` timings of
``document(build_chart(...))`` under the shipped fragment (``median_s``,
rendering excluded), the medians of the same runs' ``build_chart``,
``render_ascii`` and ``render_json`` (``chart_s``, ``ascii_s``,
``json_s``), the chart's node count (one per category and lexc flag of a
span), the count of the ways those nodes were made (a seed, or a rule and
two child nodes), its distinct category steps (``steps``: the entries of the
memo of the rule rows that fire on a pair of categories), its distinct
categories (``categories``) and its spanning-reading count.  Each timed
chart is built over a fresh copy of the fragment, whose category table
starts empty, so the timings are of a chart that shares no table with
another, and ``steps`` and ``categories`` count that one chart's.

Every size is checked outside the timed region: its ASCII rendering goes
through the oracles of ``perfbench/workloads.py`` (Catalan(k-1) readings for
a chain of k clauses, the fragment's hand-derived logical forms for a
stack).  The JSON curve goes to stdout; any miss is named on stderr and
the exit code is 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from ccgparse import fragment_path  # noqa: E402
from ccgparse.derivation import document, render_ascii, render_json  # noqa: E402
from ccgparse.lexicon import parse_lexicon, tokenize  # noqa: E402
from ccgparse.parser import MAX_TOKENS, build_chart  # noqa: E402

TIMINGS = 3
STACK_STEP = 4


def measure(lexicon, sentence: str) -> tuple[dict, str, int]:
    """The curve row for one sentence, with its ASCII rendering and the CLI's exit code."""
    tokens = tokenize(sentence)
    times: dict[str, list[float]] = {"median_s": [], "chart_s": [], "ascii_s": [], "json_s": []}
    for _ in range(TIMINGS):
        chart = doc = ascii_text = json_text = None  # free the last run's results before the next
        fresh = lexicon.copy()
        start = perf_counter()
        chart = build_chart(fresh, tokens)
        charted = perf_counter()
        doc = document(chart)
        documented = perf_counter()
        ascii_text = render_ascii(doc)
        drawn = perf_counter()
        json_text = render_json(doc)
        times["median_s"].append(documented - start)
        times["chart_s"].append(charted - start)
        times["ascii_s"].append(drawn - documented)
        times["json_s"].append(perf_counter() - drawn)
    row = {
        "tokens": len(tokens),
        **{name: float(f"{statistics.median(t):.4g}") for name, t in times.items()},
        "nodes": sum(len(cell) for cell in chart.cells.values()),
        "ways": sum(len(node.ways) for cell in chart.cells.values() for node in cell.values()),
        "steps": len(chart.lexicon.category_table.category_steps),
        "categories": len(chart.lexicon.category_table.categories),
        "readings": len(doc.readings),
    }
    return row, ascii_text, 0 if doc.readings else 1


def coord_sizes(max_tokens: int) -> list[tuple[tuple[str, str], ...]]:
    subjects, verbs = itertools.cycle(workloads.COORD_SUBJECTS), itertools.cycle(workloads.COORD_VERBS)
    clauses = [(next(subjects), next(verbs)) for _ in range(MAX_TOKENS)]
    return [tuple(clauses[:k]) for k in range(2, (max_tokens - 1) // 3 + 1)]


def stack_sizes(max_tokens: int) -> list[tuple[str, tuple[str, ...]]]:
    modifiers = list(itertools.islice(itertools.cycle(workloads.MODIFIERS), MAX_TOKENS))
    out = []
    for frame in workloads.FRAMES:
        deepest = max_tokens - len(workloads.modstack_sentence(frame, ()).split())
        if deepest >= 0:
            out += [(frame, tuple(modifiers[:depth])) for depth in sorted({*range(0, deepest + 1, STACK_STEP), deepest})]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("max_tokens", type=int, help=f"the longest sentence, in tokens (at most {MAX_TOKENS})")
    args = ap.parse_args(argv)
    if not 1 <= args.max_tokens <= MAX_TOKENS:
        ap.error(f"max_tokens must be between 1 and {MAX_TOKENS}")
    lexicon, _ = parse_lexicon(fragment_path().read_text(encoding="utf-8"))
    misses = []

    coord = []
    for clauses in coord_sizes(args.max_tokens):
        row, out, code = measure(lexicon, workloads.coord_sentence(clauses))
        coord.append({"clauses": len(clauses), **row})
        problem = workloads.check_coord(clauses, False, code, out)
        if problem:
            misses.append(f"coord k={len(clauses)}: {problem}")

    modstack = []
    for frame, mods in stack_sizes(args.max_tokens):
        row, out, code = measure(lexicon, workloads.modstack_sentence(frame, mods))
        modstack.append({"frame": frame, "modifiers": len(mods), **row})
        problem = workloads.check_modstack(frame, mods, code, out)
        if problem:
            misses.append(f"modstack {frame} n={len(mods)}: {problem}")

    json.dump(
        {
            "command": f"python tools/curve.py {args.max_tokens}",
            "host": f"Python {platform.python_version()}, {platform.machine()}",
            "method": f"median of {TIMINGS} perf_counter timings of document(build_chart(...)) per size, rendering excluded"
            " (median_s); chart_s, ascii_s and json_s are the medians of build_chart, render_ascii and render_json;"
            " each chart is built over a fresh copy of the lexicon, so its category table starts empty",
            "coord": coord,
            "modstack": modstack,
            "misses": misses,
        },
        sys.stdout,
        indent=1,
    )
    print()
    for miss in misses:
        print(miss, file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())

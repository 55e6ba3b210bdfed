"""Scaling curve of the chart parser on generated coordination chains and modifier stacks.

Usage (from the repository root):

    python tools/curve.py MAX_TOKENS > curve.json

Coordination chains ``John kicked and Mary dragged and ... the bucket`` run
from two clauses up to the longest that fits in MAX_TOKENS (3k+1 tokens for
k clauses); modifier stacks run in the three frames of the modstack
workload, every fourth stack depth and the deepest that fits.  Each size
reports its token count, the median of three ``perf_counter`` timings of
``document(build_chart(...))`` under the shipped fragment (rendering
excluded), the chart's edge count and its spanning-reading count.

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
from ccgparse.derivation import document, render_ascii  # noqa: E402
from ccgparse.lexicon import parse_lexicon, tokenize  # noqa: E402
from ccgparse.parser import MAX_TOKENS, build_chart  # noqa: E402

TIMINGS = 3
STACK_STEP = 4


def measure(lexicon, sentence: str) -> tuple[dict, str, int]:
    """The curve row for one sentence, with its ASCII rendering and the CLI's exit code."""
    tokens = tokenize(sentence)
    times = []
    for _ in range(TIMINGS):
        chart = doc = None  # free the last chart before building the next
        start = perf_counter()
        chart = build_chart(lexicon, tokens)
        doc = document(chart)
        times.append(perf_counter() - start)
    row = {
        "tokens": len(tokens),
        "median_s": float(f"{statistics.median(times):.4g}"),
        "edges": len(chart.all_edges()),
        "readings": len(doc.readings),
    }
    return row, render_ascii(doc), 0 if doc.readings else 1


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
            "method": f"median of {TIMINGS} perf_counter timings of document(build_chart(...)) per size, rendering excluded",
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

"""Per-phase split of in-process CLI requests on the benchmark's request streams.

Usage (from the repository root):

    python tools/phases.py [--src DIR] [--rounds 15] > phases.json

Each workload's first 60 requests of its seed-11 stream (``perfbench/workloads.py``)
run through ``ccgparse.cli.main`` imported from DIR (default: this checkout's
``src``), with stdout and stderr captured, once as a warm-up whose outputs go
through the workload's oracles and then ROUNDS timed rounds.  Wrappers on the
``cli`` module's bindings time ``make_arg_parser``, ``parse_lexicon``,
``validate_lexicon``, ``parse`` (the test command's parses), ``build_chart``,
``document``, ``render_ascii`` and ``render_json``; a wrapper on
``ccgparse.parser.parse``, which ``validate_lexicon`` imports when it runs,
times the charts of the singleton strings it parses (``validate_singletons``,
a part of ``validate_lexicon``).  ``request`` is the whole ``main`` call.

Each phase reports its fastest round's mean in ms per request: the host's
speed can swing within minutes, and a round's minimum is the least disturbed.
Phases a workload never enters are left out.  Nothing under ``perfbench/`` is
written: the suite workload's suite file goes to a temporary directory.  The
JSON split goes to stdout; an oracle miss is named on stderr and the exit
code is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import sys
import tempfile
from collections import defaultdict
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED, REQUESTS = 11, 60
CLI_PHASES = ("make_arg_parser", "parse_lexicon", "validate_lexicon", "parse", "build_chart", "document", "render_ascii", "render_json")


def timed(spent: dict[str, float], name: str, fn):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += perf_counter() - start

    return wrapper


def run_round(cli, requests: list, spent: dict[str, float], check: bool) -> list[str]:
    """Run every request once, adding each phase's seconds to spent; the oracle misses when check is set."""
    misses = []
    for request in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = cli.main(list(request.argv))
            spent["request"] += perf_counter() - start
        problem = request.check(code, out.getvalue()) if check else None
        if problem is not None:
            misses.append(f"{request.label}: {problem}")
    return misses


def split(ccgparse, workload: str, rounds: int) -> tuple[dict[str, float], list[str]]:
    from ccgparse import cli, parser

    spent: dict[str, float] = defaultdict(float)
    originals = {name: getattr(cli, name) for name in CLI_PHASES} | {"validate_singletons": parser.parse}
    for name in CLI_PHASES:
        setattr(cli, name, timed(spent, name, originals[name]))
    parser.parse = timed(spent, "validate_singletons", originals["validate_singletons"])
    try:
        with tempfile.TemporaryDirectory() as work_dir:
            stream = workloads.request_stream(workload, SEED, ccgparse.fragment_path(), ccgparse.corpus_path(), Path(work_dir))
            requests = list(islice(stream, REQUESTS))
            misses = run_round(cli, requests, spent, check=True)
            best: dict[str, float] = {}
            for _ in range(rounds):
                spent.clear()
                run_round(cli, requests, spent, check=False)
                for name, seconds in spent.items():
                    best[name] = min(best.get(name, seconds), seconds)
    finally:
        for name in CLI_PHASES:
            setattr(cli, name, originals[name])
        parser.parse = originals["validate_singletons"]
    order = ("request", *CLI_PHASES[:3], "validate_singletons", *CLI_PHASES[3:])
    return {name: round(1e3 * best[name] / REQUESTS, 3) for name in order if name in best}, misses


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the directory that holds the ccgparse package to time")
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import ccgparse

    if not Path(ccgparse.__file__).resolve().is_relative_to(src):
        print(f"no ccgparse package under {src}", file=sys.stderr)
        return 2
    result, misses = {}, []
    for workload in workloads.WORKLOADS:
        result[workload], missed = split(ccgparse, workload, args.rounds)
        misses += [f"{workload} {miss}" for miss in missed]
    json.dump(
        {
            "command": f"python tools/phases.py --rounds {args.rounds}",
            "host": f"Python {platform.python_version()}, {platform.machine()}",
            "method": f"in-process cli.main on the first {REQUESTS} requests of each workload's seed-{SEED} stream,"
            f" one checked warm-up round and {args.rounds} timed rounds; each phase is its fastest round's mean, ms per request;"
            " validate_singletons is the part of validate_lexicon spent parsing the singleton strings",
            "split": result,
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

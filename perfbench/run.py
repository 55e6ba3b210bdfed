"""The ccgparse benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload {suite,coord,modstack} --seed N \\
        --seconds S --trace {0,1}

Every request is an in-process ``ccgparse.cli.main(argv)`` call with stdout
and stderr captured in memory, checked against the independent oracles in
``workloads.py``.  Before any timing the shipped fragment must pass
``ccgparse validate`` and ``ccgparse test``.

``--trace 0`` spends S seconds on ROUNDS replays of one request list and
reports the end-to-end metrics.  Times are given at the reference speed
of ``reference.py``, because the shared host's own speed drifts by up to
twofold within minutes; the raw wall-clock figures are printed beside
them.  ``setup_s`` is the median of fresh processes that import ccgparse
and load and validate the fragment, run between the rounds.

``--trace 1`` replays a short request list, untraced then traced (see
``tracing.py``), for S seconds, reports per-layer metrics and the tracing
overhead, and writes the spans of the last traced pass to
``perfbench/_out``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
request was correct and 1 when one was not.  When the benchmark cannot run
(no ccgparse sources beside it, a failed pre-flight gate or setup probe)
it prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
from reference import REFERENCE_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

ROUNDS = 3
SETUP_RUNS_PER_ROUND = 8
WARMUP_REQUESTS = 2
TRACED_REQUESTS = {"suite": 6, "coord": 6, "modstack": 9}
TAIL_LADDER = (99.9, 99.5) + tuple(range(99, 49, -1))


def import_ccgparse():
    """Import ccgparse from SRC only; None if it is not there."""
    if not (SRC / "ccgparse" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ccgparse

    if not Path(ccgparse.__file__).resolve().is_relative_to(SRC):
        return None
    return ccgparse


def call_cli(cli, argv) -> tuple[int, str, str, float]:
    """One request: exit code, stdout, stderr and seconds spent in main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Run:
    """Requests attempted and failures, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def request(self, cli, request: workloads.Request) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            code, out, _, elapsed = call_cli(cli, request.argv)
            problem = request.check(code, out)
        except Exception:  # a crash in the program is a failed request, not a benchmark crash
            elapsed, problem = time.perf_counter() - start, "raised " + traceback.format_exc(limit=-3)
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {request.label}: {problem}; argv={list(request.argv)!r}", file=sys.stderr)
        return elapsed


def preflight(cli, lexicon: Path, corpus: Path) -> bool:
    for argv in (["validate", "-l", str(lexicon)], ["test", "-l", str(lexicon), str(corpus)]):
        code, out, err, _ = call_cli(cli, argv)
        if code != 0:
            print(f"pre-flight `ccgparse {' '.join(argv)}` exited {code}:\n{out}{err}", file=sys.stderr)
            return False
    return True


# ---------------------------------------------------------------------------
# end-to-end run

def setup_samples(runs: int) -> list[tuple[float, float]]:
    """(seconds, reference-task seconds) from fresh setup processes.

    The reference time is the mean of a run here just before the probe
    starts and a run in the probe just after its timed section.
    """
    samples = []
    for _ in range(runs):
        before = reference_seconds()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            sys.exit(f"setup probe exited {done.returncode}: {done.stderr.strip()}")
        seconds, after = map(float, done.stdout.split())
        samples.append((seconds, (before + after) / 2))
    return samples


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks of sorted values."""
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 100)


def timed_rounds(cli, stream, seconds: float, run: Run):
    """Latency of each request over ROUNDS replays of one request list.

    The first round draws requests from the stream for seconds/ROUNDS; the
    other rounds replay that list.  Each request is bracketed by runs of the
    reference task, and its latency at the reference speed is the median
    over rounds of its time scaled by REFERENCE_S over the bracket's mean.
    Setup probes run between rounds, so they too are spread over the run.
    """
    setup: list[tuple[float, float]] = []
    requests: list[workloads.Request] = []
    raw: list[list[float]] = []
    scaled: list[list[float]] = []

    def timed(i: int, before: float) -> float:
        elapsed = run.request(cli, requests[i])
        after = reference_seconds()
        raw[i].append(elapsed)
        scaled[i].append(elapsed * REFERENCE_S * 2 / (before + after))
        return after

    for round_ in range(ROUNDS):
        setup += setup_samples(SETUP_RUNS_PER_ROUND)
        before = reference_seconds()
        if round_ == 0:
            deadline = time.perf_counter() + seconds / ROUNDS
            while not requests or time.perf_counter() < deadline:
                requests.append(next(stream))
                raw.append([])
                scaled.append([])
                before = timed(len(requests) - 1, before)
        else:
            for i in range(len(requests)):
                before = timed(i, before)
    return requests, raw, scaled, setup


def end_to_end(cli, stream, seconds: float, run: Run) -> dict:
    """Throughput and p50 from each request's median over rounds; the tail
    from every single execution, so that one-off stalls count."""
    requests, raw, scaled, setup = timed_rounds(cli, stream, seconds, run)
    latency = sorted(statistics.median(r) for r in scaled)
    raw_latency = sorted(statistics.median(r) for r in raw)
    n = len(latency)
    samples = sorted(x for r in scaled for x in r)
    raw_samples = sorted(x for r in raw for x in r)
    tail_p = tail_percentile(len(samples))
    sentences = sum(r.sentences for r in requests)
    setup_s = statistics.median(s * REFERENCE_S / ref for s, ref in setup)
    raw_setup_s = statistics.median(s for s, _ in setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok_share = (run.attempted - run.failed) / run.attempted
    rounds = f"median of {ROUNDS} rounds"
    return {
        "setup_s": (setup_s, "s", f"median of {len(setup)} fresh processes; {raw_setup_s:.6g} s raw"),
        "sentences_per_s": (
            sentences / sum(latency), "1/s",
            f"{sentences} sentences in {n} requests, {rounds}; {sentences / sum(raw_latency):.6g}/s raw",
        ),
        "latency_p50_ms": (
            1000 * statistics.median(latency), "ms",
            f"n={n}, {rounds}; {1000 * statistics.median(raw_latency):.6g} ms raw",
        ),
        "latency_tail_ms": (
            1000 * percentile(samples, tail_p), "ms",
            f"p{tail_p:g}, n={len(samples)} executions ({n} requests x {ROUNDS} rounds), "
            f"{len(samples) - round(len(samples) * tail_p / 100)} beyond; "
            f"{1000 * percentile(raw_samples, tail_p):.6g} ms raw",
        ),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss at exit"),
        "ok_share": (ok_share, "share", f"failed_share={1 - ok_share:g}, n={run.attempted}"),
    }


# ---------------------------------------------------------------------------
# traced run

def _calls(s, name):
    return s[name]["calls"] if name in s else 0


def _self(s, *names):
    return sum(s[n]["self_s"] for n in names if n in s)


def _outcome(s, name):
    return s[name]["outcome"] if name in s else 0


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, value from a span summary); keys of BENCHMARK.json's per_layer
PER_LAYER = {
    "cli.requests": ("count", lambda s: _calls(s, "cli.main")),
    "cli.self_s": ("s", lambda s: _self(s, "cli.main")),
    "lexicon.load_s": ("s", lambda s: _self(s, "lexicon.parse_lexicon")),
    "lexicon.validate_s": ("s", lambda s: _self(s, "lexicon.validate_lexicon")),
    "lexicon.lookup_calls": ("count", lambda s: _calls(s, "lexicon.lookup")),
    "lexicon.lookup_s": ("s", lambda s: _self(s, "lexicon.lookup")),
    "parser.chart_s": ("s", lambda s: _self(s, "parser.build_chart", "parser.parse")),
    "parser.seed_s": ("s", lambda s: _self(s, "parser.seed_edges")),
    "parser.seed_edges": ("count", lambda s: _outcome(s, "parser.seed_edges")),
    "parser.combine_calls": ("count", lambda s: _calls(s, "parser.combine")),
    "parser.combine_s": ("s", lambda s: _self(s, "parser.combine")),
    "parser.combine_yield": ("ratio", lambda s: _ratio(_outcome(s, "parser.combine"), _calls(s, "parser.combine"))),
    "parser.pack_calls": ("count", lambda s: _calls(s, "parser.Chart.add")),
    "parser.pack_hit_ratio": ("ratio", lambda s: _ratio(_outcome(s, "parser.Chart.add"), _calls(s, "parser.Chart.add"))),
    "parser.pack_s": ("s", lambda s: _self(s, "parser.Chart.add", "parser.Edge.reading_key")),
    "parser.edges": ("count", lambda s: _calls(s, "parser.Chart.add") - _outcome(s, "parser.Chart.add")),
    "parser.max_cell_edges": ("count", lambda s: s["parser.build_chart"]["max"] if "parser.build_chart" in s else 0),
    "category.match_calls": ("count", lambda s: _calls(s, "category.match_argument")),
    "category.match_fail_ratio": ("ratio", lambda s: _ratio(_outcome(s, "category.match_argument"), _calls(s, "category.match_argument"))),
    "category.match_s": ("s", lambda s: _self(s, "category.match_argument")),
    "category.unify_calls": ("count", lambda s: _calls(s, "category.unify")),
    "category.unify_fail_ratio": ("ratio", lambda s: _ratio(_outcome(s, "category.unify"), _calls(s, "category.unify"))),
    "category.unify_s": ("s", lambda s: _self(s, "category.unify")),
    "category.apply_bindings_s": ("s", lambda s: _self(s, "category.apply_bindings")),
    "category.key_calls": ("count", lambda s: _calls(s, "category.category_key")),
    "category.key_s": ("s", lambda s: _self(s, "category.category_key")),
    "category.render_s": ("s", lambda s: _self(s, "category.render_category")),
    "logical_form.normalize_calls": ("count", lambda s: _calls(s, "logical_form.beta_normalize")),
    "logical_form.normalize_s": ("s", lambda s: _self(s, "logical_form.beta_normalize")),
    "logical_form.nodes_out": ("count", lambda s: _outcome(s, "logical_form.beta_normalize")),
    "logical_form.alpha_key_calls": ("count", lambda s: _calls(s, "logical_form.alpha_key")),
    "logical_form.alpha_key_s": ("s", lambda s: _self(s, "logical_form.alpha_key")),
    "logical_form.alpha_eq_calls": ("count", lambda s: _calls(s, "logical_form.alpha_eq")),
    "derivation.output_bytes": ("bytes", lambda s: _outcome(s, "derivation.render_ascii") + _outcome(s, "derivation.render_json")),
    "derivation.tree_nodes": ("count", lambda s: _outcome(s, "derivation.document")),
}
# Printed, but not in the JSON line: each is exactly 0 on some workload
# (nothing renders in `suite`, nothing compares terms in `coord`/`modstack`).
REPORT_ONLY = {
    "logical_form.alpha_eq_s": ("s", lambda s: _self(s, "logical_form.alpha_eq")),
    "logical_form.print_s": ("s", lambda s: _self(s, "logical_form.pretty_print")),
    "derivation.document_s": ("s", lambda s: _self(s, "derivation.document")),
    "derivation.ascii_s": ("s", lambda s: _self(s, "derivation.render_ascii")),
    "derivation.json_s": ("s", lambda s: _self(s, "derivation.render_json")),
}
LAYERS = ("cli", "lexicon", "parser", "category", "logical_form", "derivation")


def layer_shares(summary) -> dict[str, float]:
    """Each layer's self time as a share of the time inside ``cli.main``.

    Every traced call runs inside ``cli.main``, so the self times of all
    spans add up to the requests' traced time.
    """
    total = sum(t["self_s"] for t in summary.values())
    return {layer: _ratio(sum(t["self_s"] for name, t in summary.items() if name.split(".")[0] == layer), total)
            for layer in LAYERS}


def traced(cli, stream, workload: str, seconds: float, run: Run) -> tuple[dict, dict, str]:
    """Per-layer metrics from passes over a fixed request list.

    Each pass replays the list once untraced and once traced.  Times are
    wall-clock seconds, the smallest over traced passes; counts and ratios
    are the same in every pass; layer shares are medians over passes.  The
    overhead compares the time inside ``cli.main`` with and without tracing,
    request by request, each the smallest over passes.
    """
    requests = [next(stream) for _ in range(TRACED_REQUESTS[workload])]
    plain = [float("inf")] * len(requests)
    traced_ = [float("inf")] * len(requests)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for i, r in enumerate(requests):
            plain[i] = min(plain[i], run.request(cli, r))
        tracer = tracing.Tracer()
        with tracer:
            for i, r in enumerate(requests):
                tracer.begin_request(i)
                traced_[i] = min(traced_[i], run.request(cli, r))
                tracer.end_request()
        passes.append(tracing.summarize(tracer.spans))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.tsv")

    def best(table):
        return {name: (min(fn(s) for s in passes), unit) for name, (unit, fn) in table.items()}

    layer = best(PER_LAYER)
    layer["trace.overhead_ratio"] = (sum(traced_) / sum(plain), "ratio")
    report_only = best(REPORT_ONLY)
    shares = [layer_shares(s) for s in passes]
    for name in LAYERS:
        report_only[f"share.{name}"] = (statistics.median(s[name] for s in shares), "share")
    note = f"{len(passes)} traced passes of {len(requests)} requests"
    return layer, report_only, note


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ccgparse benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ccgparse = import_ccgparse()
    if ccgparse is None:
        print(f"no ccgparse sources under {SRC}", file=sys.stderr)
        return 2
    from ccgparse import cli

    lexicon, corpus = ccgparse.fragment_path(), ccgparse.corpus_path()
    if not preflight(cli, lexicon, corpus):
        return 2
    stream = workloads.request_stream(args.workload, args.seed, lexicon, corpus, OUT)
    run = Run()
    for _ in range(WARMUP_REQUESTS):
        run.request(cli, next(stream))

    if args.trace:
        metrics, report_only, note = traced(cli, stream, args.workload, args.seconds, run)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit} ({note})")
        for name, (value, unit) in report_only.items():
            print(f"{name} {value:.6g} {unit} ({note}; not in the JSON line)")
    else:
        detailed = end_to_end(cli, stream, args.seconds, run)
        for name, (value, unit, note) in detailed.items():
            print(f"{name} {value:.6g} {unit} ({note})")
        metrics = {name: (value, unit) for name, (value, unit, _) in detailed.items()}

    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

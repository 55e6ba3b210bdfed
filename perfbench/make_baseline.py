"""Measure the benchmark's baseline and write it to perfbench/baseline.json.

Usage (from the repository root):

    python3 perfbench/make_baseline.py [--seeds 1-10] [--seconds 30]
        [--out perfbench/baseline.json] [--compare OLD.json]

Runs every workload once per seed with tracing off and once with tracing on
(seed ``--trace-seed``), one run at a time, and records per end-to-end metric
the median and quartiles over seeds, per-layer values and each layer's share
of the traced request time.  The layer -> workload map is derived from those
shares by SHARE_RULE.  It prints each metric's spread (interquartile range
over median) beside its bound, and with ``--compare`` how far each median
moved from another baseline file.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# end-to-end metrics each layer is expected to move (latency and throughput
# move with any time a layer spends; memory with what it keeps)
SHOULD_MOVE = {
    "cli": ["latency_p50_ms"],
    "lexicon": ["setup_s", "latency_p50_ms"],
    "parser": ["sentences_per_s", "latency_tail_ms", "peak_rss_mb"],
    "category": ["sentences_per_s"],
    "logical_form": ["latency_p50_ms", "sentences_per_s"],
    "derivation": ["latency_p50_ms", "peak_rss_mb"],
}
BARELY = 0.05  # below this share of request time a layer cannot move a workload past its bounds
SHARE_RULE = (
    f"mostly_on: share >= {BARELY} and >= half the layer's largest share over workloads; "
    f"barely_on: share < {BARELY}; share = the layer's self time over the traced time inside cli.main"
)
_RAW = re.compile(r"^(\S+) .*; ([\d.e+-]+)(?: \S+|/s)? raw\)$")
_REPORT = re.compile(r"^(\S+) (\S+) (\S+) \(.*; not in the JSON line\)$")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} requests failed")
    return result, lines[:-1]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def layer_map(shares: dict[str, dict[str, float]], names: list[str]) -> dict:
    layers = {}
    for layer, moves in SHOULD_MOVE.items():
        by_workload = {w: s[layer] for w, s in shares.items()}
        top = max(by_workload.values())
        layers[layer] = {
            "metrics": [n for n in names if n.startswith(layer + ".")],
            "should_move": moves,
            "mostly_on": [w for w, v in by_workload.items() if v >= BARELY and v >= top / 2],
            "barely_on": [w for w, v in by_workload.items() if v < BARELY],
        }
    return layers


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    raws: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            result, lines = bench(w, seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for line in lines:
                if found := _RAW.match(line):
                    raws[w].setdefault(found[1], []).append(float(found[2]))
            print(f"seed {seed} {w}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    end_to_end = {
        w: {name: {**quartiles(v), "unit": units[name],
                   **({"raw_median": round(statistics.median(raws[w][name]), 6)} if name in raws[w] else {})}
            for name, v in values[w].items()}
        for w in workloads
    }

    per_layer, shares = {}, {}
    for w in workloads:
        result, lines = bench(w, args.trace_seed, args.seconds, 1)
        per_layer[w] = {k: round(m["value"], 6) for k, m in result["metrics"].items()}
        shares[w] = {}
        for line in lines:
            if found := _REPORT.match(line):
                name, value = found[1], float(found[2])
                if name.startswith("share."):
                    shares[w][name.removeprefix("share.")] = round(value, 4)
                else:
                    per_layer[w][name] = round(value, 6)

    baseline = {
        "measured": f"Python {platform.python_version()} on {platform.machine()}; run_seconds {args.seconds}; "
                    "times at the reference speed of reference.py, raw_median is wall-clock",
        "seeds": args.seeds,
        "trace_seed": args.trace_seed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_shares": shares,
        "layer_map_rule": SHARE_RULE,
        "layers": layer_map(shares, list(per_layer[workloads[0]])),
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")

    old = json.loads(args.compare.read_text(encoding="utf-8"))["end_to_end"] if args.compare else {}
    for w in workloads:
        for name, q in end_to_end[w].items():
            spread = (q["q3"] - q["q1"]) / q["median"]
            line = f"{w:9s} {name:16s} median {q['median']:11.5g}  spread {spread:.4f} (bound {bounds[name]})"
            if name in old.get(w, {}):
                line += f"  moved {q['median'] / old[w][name]['median'] - 1:+.4f}"
            print(line)
    for w in workloads:
        print(f"{w:9s} shares " + " ".join(f"{k}={v:.3f}" for k, v in shares[w].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: generators, oracles, tracing and output.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import ast
import gc
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ccgparse
import make_baseline
import reference
import run
import tracing
import workloads
from ccgparse import category, cli

BENCH = Path(run.__file__).resolve().parent
LEXICON = ccgparse.fragment_path()
CORPUS = ccgparse.corpus_path()


def first_requests(workload, seed, work_dir, count=12):
    stream = workloads.request_stream(workload, seed, LEXICON, CORPUS, work_dir)
    requests = [next(stream) for _ in range(count)]
    files = sorted(p.read_text() for p in work_dir.glob("*.tsv"))
    return [tuple(a.replace(str(work_dir), "<work>") for a in r.argv) for r in requests], files


def cli_output(argv):
    code, out, _, _ = run.call_cli(cli, argv)
    return code, out


# ---------------------------------------------------------------------------
# generators

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_repeat_per_seed_and_differ_across_seeds(workload, tmp_path):
    a = first_requests(workload, 7, tmp_path / "a")
    b = first_requests(workload, 7, tmp_path / "b")
    c = first_requests(workload, 8, tmp_path / "c")
    assert a == b
    assert a != c


def test_coord_mixes_formats_evenly_and_keeps_one_clause_mix(tmp_path):
    argvs, _ = first_requests("coord", 3, tmp_path, count=20)
    assert sum("--json" in a for a in argvs) == 10
    for argv in argvs:
        words = argv[-1].split()
        assert len(words) == 19
        assert sorted(words[0:17:3]) == sorted(workloads.COORD_SUBJECTS)
        assert sorted(words[1:18:3]) == sorted(workloads.COORD_VERBS)


# ---------------------------------------------------------------------------
# oracles

def test_coordination_counts_are_catalan():
    counts = [len(workloads.bracketings(tuple(range(k)))) for k in range(2, 6)]
    assert counts == [1, 2, 5, 14]
    assert [workloads.catalan(k - 1) for k in range(2, 6)] == [1, 2, 5, 14]


@pytest.mark.parametrize("clauses", [2, 3, 4, 5])
@pytest.mark.parametrize("as_json", [False, True])
def test_coord_oracle_accepts_the_program_on_short_chains(clauses, as_json):
    chain = (("John", "kicked"), ("Mary", "dragged"), ("I", "cooked"), ("You", "spilled"), ("Mary", "kicked"))[:clauses]
    argv = ["parse", "-l", str(LEXICON)] + (["--json"] if as_json else []) + [workloads.coord_sentence(chain)]
    code, out = cli_output(argv)
    assert workloads.check_coord(chain, as_json, code, out) is None


def test_coord_oracle_rejects_a_wrong_clause_and_a_missing_reading():
    chain = (("John", "kicked"), ("Mary", "cooked"), ("I", "spilled"))
    code, out = cli_output(["parse", "-l", str(LEXICON), workloads.coord_sentence(chain)])
    assert workloads.check_coord(chain, False, code, out) is None
    assert workloads.check_coord(chain, False, code, out.replace("cook (def bucket) m", "cook (def bucket) j")) is not None
    assert workloads.check_coord(chain, False, code, out.split("\n\n")[0]) is not None


def test_conjunct_tree_reads_printed_nesting():
    text = "kick (def bucket) j & (drag (def bucket) m & cook (def bucket) i)"
    assert workloads.conjunct_tree(text) == (
        "kick (def bucket) j",
        ("drag (def bucket) m", "cook (def bucket) i"),
    )
    assert workloads.conjunct_tree("a & b & c") == (("a", "b"), "c")


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_particle_shift_parses_only_while_the_object_has_at_most_four_tokens(depth):
    mods = ("long", "very", "proverbial", "long")[:depth]
    expected = workloads.modstack_expected("shifted", mods)
    assert bool(expected) == (depth + 2 <= 4)
    code, out = cli_output(["parse", "-l", str(LEXICON), workloads.modstack_sentence("shifted", mods)])
    assert workloads.check_modstack("shifted", mods, code, out) is None


@pytest.mark.parametrize("frame", workloads.FRAMES)
@pytest.mark.parametrize("mods", [(), ("proverbial",), ("very", "long", "proverbial")])
def test_modstack_oracle_agrees_with_the_program(frame, mods):
    code, out = cli_output(["parse", "-l", str(LEXICON), workloads.modstack_sentence(frame, mods)])
    assert workloads.check_modstack(frame, mods, code, out) is None


def test_modstack_logical_form_is_built_from_the_stack():
    assert workloads.modstack_expected("particle_first", ("long", "very")) == [
        r"pick_{\x\p\y. up (p y) x} (def (long (very book))) i"
    ]


def test_suite_oracle_needs_every_line_to_pass_in_order(tmp_path):
    stream = workloads.request_stream("suite", 5, LEXICON, CORPUS, tmp_path)
    request = next(stream)
    code, out = cli_output(request.argv)
    assert request.check(code, out) is None
    assert request.check(1, out) is not None
    lines = out.splitlines()
    assert request.check(0, "\n".join([lines[1], lines[0]] + lines[2:])) is not None


# ---------------------------------------------------------------------------
# tracing

def _bindings():
    """Every attribute of every ccgparse module and traced class."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "ccgparse"]
    owners += [ccgparse.parser.Chart, ccgparse.parser.Edge]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _bindings()
    request = next(workloads.request_stream("coord", 1, LEXICON, CORPUS, tmp_path))
    with tracing.Tracer() as tracer:
        assert {k for k, v in _bindings().items() if before.get(k) is not v}
        tracer.begin_request(0)
        assert request.check(*cli_output(request.argv)) is None
        tracer.end_request()
        patched = list(tracer.patches)
    assert len(patched) > len(tracing.TARGETS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {span[0] for span in tracer.spans}
    not_on_coord = {"logical_form.alpha_eq", "derivation.render_json", "derivation.render_ascii"}
    assert set(tracing.TARGETS) - not_on_coord <= names <= set(tracing.TARGETS)


def test_recursive_calls_record_only_the_outermost_span():
    c = category.parse_category(r"((S\NP)/NP)/(S\NP)")
    with tracing.Tracer() as tracer:
        category.render_category(c)
        category.category_key(c)
    assert [s[0] for s in tracer.spans] == [
        "category.render_category",
        "category.category_key",
        "category.render_category",
    ]
    assert tracer.spans[2][3] == 1  # rendered inside category_key


def test_self_time_subtracts_the_time_children_cover():
    # name, start, end, parent, request, outcome
    spans = [
        ["root", 0, 100, -1, 0, 0],
        ["a", 10, 30, 0, 0, 0],
        ["b", 40, 70, 0, 0, 0],
        ["c", 45, 50, 2, 0, 0],
        ["d", 60, 75, 2, 0, 0],  # overruns its parent; only 60..70 is covered
    ]
    assert tracing.self_times(spans) == [50, 20, 30 - 5 - 10, 5, 15]


def test_summary_counts_calls_outcomes_and_maxima():
    spans = [["x", 0, 10, -1, 0, 3], ["x", 10, 30, -1, 0, 5], ["y", 12, 14, 1, 0, 0]]
    summary = tracing.summarize(spans)
    assert summary["x"] == {"calls": 2, "self_s": 28 / 1e9, "outcome": 8, "max": 5}


def test_layer_shares_split_the_request_time_by_module():
    spans = [
        ["cli.main", 0, 100, -1, 0, 0],
        ["parser.build_chart", 10, 70, 0, 0, 0],
        ["logical_form.beta_normalize", 20, 50, 1, 0, 0],
        ["lexicon.lookup", 80, 90, 0, 0, 0],
    ]
    shares = run.layer_shares(tracing.summarize(spans))
    assert shares == pytest.approx(
        {"cli": 0.3, "lexicon": 0.1, "parser": 0.3, "category": 0, "logical_form": 0.3, "derivation": 0}
    )


def test_layer_map_follows_the_measured_shares():
    layer = {name: 0.0 for name in make_baseline.SHOULD_MOVE}
    shares = {
        "a": {**layer, "parser": 0.26, "derivation": 0.0},
        "b": {**layer, "parser": 0.10, "derivation": 0.15},
        "c": {**layer, "parser": 0.21, "derivation": 0.003},
    }
    layers = make_baseline.layer_map(shares, ["parser.edges", "derivation.tree_nodes"])
    assert layers["parser"]["metrics"] == ["parser.edges"]
    assert (layers["parser"]["mostly_on"], layers["parser"]["barely_on"]) == (["a", "c"], [])
    assert (layers["derivation"]["mostly_on"], layers["derivation"]["barely_on"]) == (["b"], ["a", "c"])
    assert (layers["cli"]["mostly_on"], layers["cli"]["barely_on"]) == ([], ["a", "b", "c"])


def test_reference_task_runs_and_is_timed():
    assert 0 < reference.reference_seconds() < 10


@pytest.mark.parametrize("collecting", [True, False])
def test_reference_task_runs_without_the_collector_and_restores_it(collecting, monkeypatch):
    seen, key = [], reference._key

    def spy(t, env=()):
        seen.append(gc.isenabled())
        return key(t, env)

    monkeypatch.setattr(reference, "_key", spy)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        reference.reference_seconds()
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


def test_setup_probe_starts_its_timer_before_any_import_but_sys_and_time():
    tree = ast.parse((BENCH / "setup_probe.py").read_text())
    before_timer = list(itertools.takewhile(
        lambda node: not (isinstance(node, ast.Assign) and node.targets[0].id == "start"), tree.body
    ))
    assert len(before_timer) < len(tree.body)
    imports = [node for node in before_timer if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert sorted(alias.name for node in imports for alias in node.names) == ["sys", "time"]


def test_setup_probe_prints_its_time_and_the_reference_time():
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(BENCH.parent / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert all(float(x) > 0 for x in done.stdout.split()) and len(done.stdout.split()) == 2


# ---------------------------------------------------------------------------
# the command

def _run(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_names_the_metrics_the_command_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER) + ["trace.overhead_ratio"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "modstack", "--seed", "1", "--seconds", "1", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[key]}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout

import json

from ccgparse.category import parse_category
from ccgparse.derivation import (
    RULE_LABELS,
    document,
    read_json,
    render_ascii,
    render_json,
)
from ccgparse.lexicon import tokenize
from ccgparse.parser import build_chart


def doc_for(fragment, sentence, goal=None):
    tokens = tokenize(sentence)
    chart = build_chart(fragment, tokens)
    goal_cat = parse_category(goal) if goal else None
    edges = chart.spanning()
    if goal_cat is not None:
        from ccgparse.parser import goal_matches

        edges = [e for e in edges if goal_matches(goal_cat, e)]
    edges.sort(key=lambda e: e.reading_key())
    return document(tokens, edges, chart)


def all_nodes(node):
    yield node
    for child in node.children:
        yield from all_nodes(child)


SIX_CLAUSES = (
    "John kicked and Mary dragged and I cooked and You spilled and John cooked and Mary kicked the bucket"
)


def reachable(roots):
    """Distinct objects (by id) reachable through .children."""
    seen, todo = {}, list(roots)
    while todo:
        item = todo.pop()
        if id(item) not in seen:
            seen[id(item)] = item
            todo.extend(item.children)
    return seen


def test_one_tree_node_per_chart_edge(fragment):
    tokens = tokenize(SIX_CLAUSES)
    edges = sorted(build_chart(fragment, tokens).spanning(), key=lambda e: e.reading_key())
    doc = document(tokens, edges)
    assert len(doc.readings) == 42  # the fifth Catalan number
    assert len(reachable(r.tree for r in doc.readings)) == len(reachable(edges)) == 205
    # walked reading by reading the trees have 1554 nodes: readings share sub-derivations
    assert sum(1 for r in doc.readings for _ in all_nodes(r.tree)) == 1554
    for reading in doc.readings:
        assert (reading.category, reading.lf) == (reading.tree.category, reading.tree.lf)


def test_rule_labels_in_fixed_set(fragment, corpus):
    for sentence, _, _ in corpus:
        doc = doc_for(fragment, sentence)
        for reading in doc.readings:
            for node in all_nodes(reading.tree):
                assert node.rule in RULE_LABELS


def test_readings_sorted_deterministically(fragment):
    doc = doc_for(fragment, "John kicked the bucket")
    keys = [(r.category, r.lf) for r in doc.readings]
    assert keys == sorted(keys)


def test_json_round_trip_on_corpus(fragment, corpus):
    for sentence, _, _ in corpus:
        doc = doc_for(fragment, sentence)
        assert read_json(render_json(doc)) == doc


def test_json_shape(fragment):
    doc = doc_for(fragment, "I picked the book up")
    obj = json.loads(render_json(doc))
    assert list(obj.keys()) == ["sentence", "readings", "near_misses"]
    assert obj["sentence"] == ["I", "picked", "the", "book", "up"]
    (reading,) = obj["readings"]
    assert "hold_{" in reading["lf"]
    assert set(reading["tree"].keys()) == {"span", "category", "lf", "rule", "children"}


def test_json_no_readings(fragment):
    doc = doc_for(fragment, "I picked the very very very long book up")
    obj = json.loads(render_json(doc))
    assert obj["readings"] == []
    assert obj["near_misses"]


def test_ascii_single_lexical_edge(fragment):
    doc = doc_for(fragment, "Harry")
    text = render_ascii(doc)
    lines = text.splitlines()
    assert lines[1] == "Harry"
    assert lines[2] == "-" * len("NP[agr=3s]")
    assert lines[3] == "NP[agr=3s]"
    assert lines[4] == ": h"


def test_ascii_block_structure(fragment):
    text = render_ascii(doc_for(fragment, "John persuaded Mary to hit Harry", goal="S"))
    lines = text.splitlines()
    assert lines[0].startswith("reading 1: S : persuade (hit h m) m j")
    assert lines[1].split() == ["John", "persuaded", "Mary", "to", "hit", "Harry"]
    assert any(line.endswith(">") for line in lines)
    assert any(line.endswith("<") for line in lines)
    # the final two lines carry the goal category and logical form
    assert lines[-2] == "S"
    assert lines[-1] == ": persuade (hit h m) m j"


def test_ascii_no_parse_lists_near_misses(fragment):
    text = render_ascii(doc_for(fragment, "I picked the very very very long book up"))
    assert text.startswith("NO PARSE: I picked the very very very long book up")
    assert "longest constituents found:" in text
    assert "[0:8]" in text


def test_ascii_deterministic_and_tidy(fragment):
    first = render_ascii(doc_for(fragment, "I picked the book up", goal="S"))
    second = render_ascii(doc_for(fragment, "I picked the book up", goal="S"))
    assert first == second
    lines = first.splitlines()
    assert lines[1].split() == ["I", "picked", "the", "book", "up"]
    assert all(line == line.rstrip() for line in lines)

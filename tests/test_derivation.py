import gc
import json
from itertools import cycle, islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ccgparse.category import parse_category
from ccgparse.derivation import (
    DerivationDoc,
    NearMiss,
    Reading,
    TreeNode,
    document,
    read_json,
    render_ascii,
    render_json,
)
from ccgparse.lexicon import case_folded, tokenize
from ccgparse import parser
from ccgparse.parser import RuleId, build_chart, chart_readings, combine

import asciiref
from test_generated_grammars import grammars, mirror

RULE_LABELS = ("LEX",) + tuple(rule.value for rule in RuleId)


def doc_for(fragment, sentence, goal=None):
    return document(build_chart(fragment, tokenize(sentence)), parse_category(goal) if goal else None)


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
    chart = build_chart(fragment, tokenize(SIX_CLAUSES))
    edges = chart_readings(chart)
    doc = document(chart)
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


def test_ascii_column_widths_count_the_rule_label_and_not_lex():
    # a step's column is at least its label plus two wide: >Bx widens "b" to 5;
    # a leaf's label is empty, so "a" is only as wide as ": p"
    b = TreeNode((1, 2), "B", "q", "LEX")
    bx = TreeNode((1, 2), "S", "a", ">Bx", (b,))
    cde = TreeNode((2, 5), "C", "r", "LEX")
    right = TreeNode((1, 5), "D", "s", ">", (bx, cde))
    root = TreeNode((0, 5), "E", "t", "<", (TreeNode((0, 1), "A", "p", "LEX"), right))
    doc = DerivationDoc(tuple("abcde"), (Reading("E", "t", root),))
    assert render_ascii(doc).splitlines() == [
        "reading 1: E : t",
        "a    b      c  d  e",
        "---  -----  -------",
        "A    B      C",
        ": p  : q    : r",
        "     -->Bx",
        "     S",
        "     : a",
        "     ------------->",
        "     D",
        "     : s",
        "------------------<",
        "E",
        ": t",
    ]


def test_ascii_lays_out_a_shared_node_where_each_reading_puts_it():
    # one node object under two parents, at depth 1 and at depth 2: the
    # parent with the long form widens the shared node's last column, the
    # other does not, so the node's lines differ between its appearances
    a, b, c, d = (TreeNode((i, i + 1), w.upper(), f, "LEX") for i, (w, f) in enumerate(zip("abcd", "pqrs")))
    shared = TreeNode((2, 4), "E", "e", ">", (c, d))
    first = TreeNode((0, 4), "G", "g", "<", (TreeNode((0, 2), "F", "f", ">", (a, b)), shared))
    wide = TreeNode((1, 4), "H", "a longer logical form", "<", (b, shared))
    doc = DerivationDoc(tuple("abcd"), (Reading("G", "g", first), Reading("G", "g", TreeNode((0, 4), "G", "g", ">", (a, wide)))))
    lexical = ["a    b    c    d", "---  ---  ---  ---", "A    B    C    D", ": p  : q  : r  : s"]
    assert render_ascii(doc).splitlines() == [
        "reading 1: G : g",
        *lexical,
        "------->",
        "F",
        ": f",
        "          ------->",
        "          E",
        "          : e",
        "-----------------<",
        "G",
        ": g",
        "",
        "reading 2: G : g",
        *lexical[:1],
        "---  ---  ---  -------------",
        *lexical[2:],
        "          ----------------->",
        "          E",
        "          : e",
        "     ----------------------<",
        "     H",
        "     : a longer logical form",
        "--------------------------->",
        "G",
        ": g",
    ]
    assert render_ascii(doc) == asciiref.render_ascii(doc)


MODSTACK_NP = "the " + " ".join(islice(cycle(("long", "very", "proverbial")), 10))


def test_ascii_equals_the_reference_renderer_on_parses(fragment, corpus):
    # the reference walks, sorts and widens each reading on its own
    docs = [doc_for(fragment, chain(k)) for k in range(1, 9)]
    docs += [document(build_chart(fragment, tokenize(chain(k))), None, True) for k in range(1, 6)]
    for sentence, _, _ in corpus:
        chart = build_chart(fragment, tokenize(sentence))
        docs += [document(chart), document(chart, parse_category("S")), document(chart, None, True)]
    frames = (f"I picked {MODSTACK_NP} book up", f"I picked up {MODSTACK_NP} book", f"John kicked {MODSTACK_NP} bucket")
    docs += [doc_for(fragment, sentence) for sentence in frames]
    assert sum(not doc.readings for doc in docs) >= 3  # NO PARSE documents, with their near misses
    for doc in docs:
        assert render_ascii(doc) == asciiref.render_ascii(doc), doc.sentence


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grammars())
def test_ascii_equals_the_reference_renderer_on_generated_grammars(grammar):
    for lex, tokens in (grammar, mirror(grammar)):
        chart = build_chart(lex, tokens)
        for doc in (document(chart), document(chart, None, True)):
            assert render_ascii(doc) == asciiref.render_ascii(doc)


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


# ---------------------------------------------------------------------------
# render_json writes what the standard encoder writes

def plain(value):
    """value with each record a dict of its fields and each other tuple a list, recursively."""
    if hasattr(value, "_fields"):
        return {name: plain(v) for name, v in zip(value._fields, value)}
    return [plain(v) for v in value] if type(value) is tuple else value


def standard_json(doc):
    return json.dumps(plain(doc), indent=2) + "\n"


def chain(k):
    """A k-clause coordination chain ending in "the bucket", its six clauses repeated past six."""
    clauses = SIX_CLAUSES.removesuffix(" the bucket").split(" and ")
    return " and ".join(islice(cycle(clauses), k)) + " the bucket"


TEXTS = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028\U0001f600') | st.characters(), max_size=6)
SPANS = st.tuples(st.integers(), st.integers())


def trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.builds(TreeNode, SPANS, TEXTS, TEXTS, TEXTS, st.lists(kids, max_size=3).map(tuple)),
        max_leaves=8,
    )


@st.composite
def derivation_docs(draw):
    shared = draw(trees(st.builds(TreeNode, SPANS, TEXTS, TEXTS, TEXTS, st.just(()))))
    node = trees(st.builds(TreeNode, SPANS, TEXTS, TEXTS, TEXTS, st.just(())) | st.just(shared))
    readings = draw(st.lists(st.builds(Reading, TEXTS, TEXTS, node), max_size=3))
    # one node object at two depths of one tree and at the top of another
    deeper = TreeNode((0, 1), "", "", "", (shared,))
    readings += [Reading("", "", TreeNode((0, 2), "", "", "", (deeper, shared))), Reading("", "", shared)]
    near = draw(st.lists(st.builds(NearMiss, SPANS, TEXTS, TEXTS), max_size=3))
    return DerivationDoc(tuple(draw(st.lists(TEXTS, max_size=4))), tuple(draw(st.permutations(readings))), tuple(near))


@given(derivation_docs())
def test_json_layout_equals_the_standard_encoder(doc):
    assert render_json(doc) == standard_json(doc)
    assert read_json(render_json(doc)) == doc


def test_read_json_takes_fields_in_any_order_and_ignores_other_keys(fragment):
    doc = doc_for(fragment, "I picked the book up")

    def reordered(value):
        """value with each object's keys reversed and one more key added."""
        if type(value) is dict:
            return {"extra": [1], **{k: reordered(v) for k, v in reversed(value.items())}}
        return [reordered(v) for v in value] if type(value) is list else value

    assert read_json(json.dumps(reordered(plain(doc)))) == doc
    obj = plain(doc)
    del obj["readings"][0]["tree"]["children"][0]["rule"]
    with pytest.raises(KeyError):
        read_json(json.dumps(obj))


def test_json_layout_equals_the_standard_encoder_on_parses(fragment, corpus):
    for all_derivations in (False, True):
        for sentence, _, _ in corpus:
            doc = document(build_chart(fragment, tokenize(sentence)), None, all_derivations)
            assert render_json(doc) == standard_json(doc), (sentence, all_derivations)
    for k in range(2, 6):
        doc = document(build_chart(fragment, tokenize(chain(k))), parse_category("S"))
        assert render_json(doc) == standard_json(doc), k


def test_every_derivation_of_a_no_parse_costs_no_combination(fragment, monkeypatch):
    # a NO PARSE walks only its near misses, whose derivations are listed once either way
    calls = []
    monkeypatch.setattr(parser, "combine", lambda *args: calls.append(args) or combine(*args))
    tokens = tokenize("I picked the " + "long " * 8 + "book up")
    counts, docs = [], []
    for all_derivations in (True, False):
        calls.clear()
        docs.append(document(build_chart(fragment, tokens), None, all_derivations))
        counts.append(len(calls))
    every, plain = docs
    assert counts[0] == counts[1] > 0 and not every.readings
    assert every == plain
    # the counter sees the combinations that a parse with readings makes
    calls.clear()
    assert document(build_chart(fragment, tokenize(chain(2))), None, all_derivations=True).readings and calls


# ---------------------------------------------------------------------------
# every chart and document is freed by reference count

def parse_and_render(fragment, sentence, goal=None, case_fold=False, all_derivations=False):
    """Everything made here is unreachable once this returns."""
    lex = case_folded(fragment) if case_fold else fragment
    doc = document(build_chart(lex, tokenize(sentence, case_fold)), parse_category(goal) if goal else None, all_derivations)
    render_json(doc)
    render_ascii(doc)


def test_parsing_and_rendering_leave_no_cyclic_garbage(fragment):
    # a chain with readings, a modifier stack in the weight frame (a NO PARSE),
    # the chain through a case-folded lexicon, a NO PARSE under a goal, and
    # every derivation of the chain
    runs = [
        (chain(4), {}),
        ("I picked the " + "long " * 10 + "book up", {}),
        (chain(4), {"case_fold": True}),
        ("the book", {"goal": "S"}),
        (chain(4), {"all_derivations": True}),
    ]
    gc.disable()
    try:
        gc.collect()
        for sentence, options in runs:
            parse_and_render(fragment, sentence, **options)
            assert gc.collect() == 0, (sentence, options)
    finally:
        gc.enable()

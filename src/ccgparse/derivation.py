"""Derivation documents: proof-style ASCII display and stable JSON.

A document is made of NamedTuple records, whose fields are its JSON schema
in both directions: render_json writes each record as an object of its fields
in order, and read_json restores each record from those fields.
"""

from __future__ import annotations

import json
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple

from .category import Category, render_category
from . import logical_form as lf
from .parser import Chart, Edge, chart_readings


class TreeNode(NamedTuple):
    span: tuple[int, int]
    category: str
    lf: str
    rule: str
    children: tuple["TreeNode", ...] = ()


class Reading(NamedTuple):
    category: str
    lf: str
    tree: TreeNode


class NearMiss(NamedTuple):
    span: tuple[int, int]
    category: str
    lf: str


class DerivationDoc(NamedTuple):
    sentence: tuple[str, ...]
    readings: tuple[Reading, ...]
    near_misses: tuple[NearMiss, ...] = ()


def document(chart: Chart, goal: Category | None = None, all_derivations: bool = False) -> DerivationDoc:
    """The chart's answer: its spanning readings that fill the goal, or every
    derivation of each (see parser.chart_readings), sorted stably by
    (category, logical form).

    Each chart edge becomes one TreeNode, so readings that share a
    sub-derivation share its node. With no readings, the edges over the
    longest derived spans (see Chart.longest_partials) are recorded as near
    misses, sorted by (span, category, logical form): under a goal these are
    the spanning readings that missed it.
    """
    nodes: dict[Edge, TreeNode] = {}  # Edge hashes by identity
    texts: dict[int, str] = {}  # by the id of an interned category, which the chart holds
    roots = (_tree_node(e, nodes, texts) for e in chart_readings(chart, goal, all_derivations))
    readings = tuple(sorted((Reading(t.category, t.lf, t) for t in roots), key=lambda r: (r.category, r.lf)))
    near: tuple[NearMiss, ...] = ()
    if not readings:
        near = tuple(
            sorted(
                (NearMiss(e.span, _category_text(e.category, texts), lf.pretty_print(e.lf)) for e in chart.longest_partials()),
                key=lambda m: (m.span, m.category, m.lf),
            )
        )
    return DerivationDoc(chart.tokens, readings, near)


def _category_text(c: Category, texts: dict[int, str]) -> str:
    """c rendered, once per document: texts holds the text of each category rendered so far, by id."""
    text = texts.get(id(c))
    if text is None:
        text = texts[id(c)] = render_category(c)
    return text


def _tree_node(edge: Edge, nodes: dict[Edge, TreeNode], texts: dict[int, str]) -> TreeNode:
    """The node of edge, built once; a module-level function so that no
    walk holds a reference to itself and every chart is freed by reference
    count."""
    if edge not in nodes:
        children = tuple(_tree_node(child, nodes, texts) for child in edge.children)
        nodes[edge] = TreeNode(edge.span, _category_text(edge.category, texts), lf.pretty_print(edge.lf), edge.label, children)
    return nodes[edge]


# ---------------------------------------------------------------------------
# ASCII proof-style rendering

_SEP = 2


def _layout(sentence: tuple[str, ...], node: TreeNode, memo: dict) -> tuple[list[int], list[TreeNode], list[tuple]]:
    """node's column widths, each with the separator after it, its leaves and its
    other steps narrow first as (span length, start, end, rule, category, ": " +
    logical form), once per node.  Its descendants span fewer words than it and
    widen their columns first: its widths are its children's, then it widens its
    own last column; its steps are its children's merged, then itself."""
    layout = memo.get(id(node))
    if layout is None:
        (start, end), rule = node.span, node.rule
        if rule == "LEX":
            widths, leaves, steps = [len(w) + _SEP for w in sentence[start:end]], [node], []
        else:
            widths, leaves, steps = [], [], []
            for child in node.children:
                child_widths, child_leaves, child_steps = _layout(sentence, child, memo)
                widths += child_widths
                leaves += child_leaves
                steps += child_steps
            steps.sort()  # by span length, then start: no two steps of a tree share both
            steps.append((end - start, start, end, rule, node.category, ": " + node.lf))
        short = max(len("" if rule == "LEX" else rule) + 2, len(node.category), len(node.lf) + 2) + _SEP - sum(widths)
        if short > 0:
            widths[-1] += short
        layout = memo[id(node)] = (widths, leaves, steps)
    return layout


def _render_tree(sentence: tuple[str, ...], node: TreeNode, memo: dict, rows: dict) -> list[str]:
    """node's lines: its word row and lexical rows once per distinct (widths,
    leaves), and each step's lines wherever the step appears."""
    widths, leaves, steps = _layout(sentence, node, memo)
    key = (tuple(widths), tuple(leaves))
    got = rows.get(key)
    if got is None:
        offset = [0] * node.span[0] + [0, *accumulate(widths)]  # by word position
        words = sentence[slice(*node.span)]
        rule = category = form = ""
        for n in leaves:
            start, end = offset[n.span[0]], offset[n.span[1]] - _SEP
            rule += " " * (start - len(rule)) + "-" * (end - start)
            category += " " * (start - len(category)) + n.category
            form += " " * (start - len(form)) + ": " + n.lf
        got = rows[key] = (offset, ["".join(map(str.ljust, words[:-1], widths)) + words[-1], rule, category, form])
    offset, lines = got[0], got[1].copy()
    for _, start, end, rule, category, form in steps:
        pad = " " * offset[start]
        lines += (pad + rule.rjust(offset[end] - _SEP - len(pad), "-"), pad + category, pad + form)
    return lines


def _blocks(doc: DerivationDoc) -> Iterator[str]:
    """Each reading's block and line break; a join takes all before it copies, so layouts are freed first."""
    memo, rows = {}, {}  # layouts by the id of a node, which the document holds; rows by (widths, leaves)
    for i, reading in enumerate(doc.readings, 1):
        header = f"reading {i}: {reading.category} : {reading.lf}"
        yield "\n".join([header, *_render_tree(doc.sentence, reading.tree, memo, rows), ""])


def render_ascii(doc: DerivationDoc) -> str:
    """One block per reading: tokens, then rule-labelled underlines with the
    derived category and logical form per step; the final step is the goal.
    Each node's children must tile its span in order, as every ``document``'s do."""
    if not doc.readings:
        lines = ["NO PARSE: " + " ".join(doc.sentence)]
        if doc.near_misses:
            lines.append("longest constituents found:")
            for m in doc.near_misses:
                covered = " ".join(doc.sentence[m.span[0] : m.span[1]])
                lines.append(f"  [{m.span[0]}:{m.span[1]}] {covered} := {m.category} : {m.lf}")
        return "\n".join(lines) + "\n"
    return "\n".join(_blocks(doc))


# ---------------------------------------------------------------------------
# JSON round trip

# each document record's fields in order, as JSON object keys with their separator
_KEYS = {
    cls: tuple((name, encode_basestring_ascii(name) + ": ") for name in cls._fields)
    for cls in (TreeNode, Reading, NearMiss, DerivationDoc)
}


def _lay_out(value: object, depth: int, runs: list) -> None:
    """Append value's JSON text at nesting depth ``depth`` to the last run,
    as json.dumps(..., indent=2) lays it out; a record value becomes a
    (value, depth) reference followed by a fresh run."""
    if type(value) in _KEYS:  # before plain tuples: a record is a tuple too
        runs += [(value, depth), ""]
    elif type(value) is str:
        runs[-1] += encode_basestring_ascii(value)
    elif type(value) is int:
        runs[-1] += int.__repr__(value)
    elif type(value) is tuple:
        if not value:
            runs[-1] += "[]"
            return
        inner = "\n" + "  " * (depth + 1)
        sep = "[" + inner
        for item in value:
            runs[-1] += sep
            _lay_out(item, depth + 1, runs)
            sep = "," + inner
        runs[-1] += "\n" + "  " * depth + "]"
    else:
        raise TypeError(f"not in the document schema: {value!r}")


def _own_text(obj: object, depth: int) -> list:
    """A record's JSON text at nesting depth ``depth`` as runs of text
    between the (value, depth) references to its nested records."""
    runs: list = [""]
    inner = "\n" + "  " * (depth + 1)
    sep = "{" + inner
    for name, key in _KEYS[type(obj)]:
        runs[-1] += sep + key
        _lay_out(getattr(obj, name), depth + 1, runs)
        sep = "," + inner
    runs[-1] += "\n" + "  " * depth + "}"
    return runs


def _emit(obj: object, depth: int, memo: dict[tuple[int, int], list], out: list[str]) -> None:
    key = (id(obj), depth)
    runs = memo.get(key)
    if runs is None:
        runs = memo[key] = _own_text(obj, depth)
    for run in runs:
        if type(run) is str:
            out.append(run)
        else:
            _emit(run[0], run[1], memo, out)


def render_json(doc: DerivationDoc) -> str:
    """Stable JSON for the document: the text json.dumps(..., indent=2) writes
    for it with each record an object of its fields in order and each other
    tuple a list; read_json restores an equal value.

    A node that readings share is laid out once per nesting depth and its
    text copied wherever it recurs.
    """
    out: list[str] = []
    _emit(doc, 0, {}, out)
    out.append("\n")
    return "".join(out)


# the record held by each field that holds records, or a tuple of them
_NESTED = {"tree": TreeNode, "children": TreeNode, "readings": Reading, "near_misses": NearMiss}


def _restore(value: object, cls: type | None) -> object:
    """A JSON value as a document value: a list becomes a tuple, and an object
    becomes a cls record built from its fields in order, whatever its keys' order."""
    if type(value) is list:
        return tuple(_restore(item, cls) for item in value)
    if cls is None:
        return value
    return cls(*(_restore(value[name], _NESTED.get(name)) for name in cls._fields))


def read_json(text: str) -> DerivationDoc:
    """The document that render_json wrote as text, each record restored from its fields."""
    return _restore(json.loads(text), DerivationDoc)

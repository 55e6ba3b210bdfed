"""Derivation documents: proof-style ASCII display and stable JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .category import Category, render_category
from . import logical_form as lf
from .parser import Chart, Edge, RuleId, chart_readings

RULE_LABELS = ("LEX",) + tuple(rule.value for rule in RuleId)


@dataclass(frozen=True)
class TreeNode:
    span: tuple[int, int]
    category: str
    lf: str
    rule: str
    children: tuple["TreeNode", ...] = ()


@dataclass(frozen=True)
class Reading:
    category: str
    lf: str
    tree: TreeNode


@dataclass(frozen=True)
class NearMiss:
    span: tuple[int, int]
    category: str
    lf: str


@dataclass(frozen=True)
class DerivationDoc:
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
    roots = (_tree_node(e, nodes) for e in chart_readings(chart, goal, all_derivations))
    readings = tuple(sorted((Reading(t.category, t.lf, t) for t in roots), key=lambda r: (r.category, r.lf)))
    near: tuple[NearMiss, ...] = ()
    if not readings:
        near = tuple(
            sorted(
                (NearMiss(e.span, render_category(e.category), lf.pretty_print(e.lf)) for e in chart.longest_partials()),
                key=lambda m: (m.span, m.category, m.lf),
            )
        )
    return DerivationDoc(chart.tokens, readings, near)


def _tree_node(edge: Edge, nodes: dict[Edge, TreeNode]) -> TreeNode:
    """The node of edge, built once; a module-level function so that no
    walk holds a reference to itself and every chart is freed by reference
    count."""
    if edge not in nodes:
        children = tuple(_tree_node(child, nodes) for child in edge.children)
        nodes[edge] = TreeNode(edge.span, render_category(edge.category), lf.pretty_print(edge.lf), edge.label, children)
    return nodes[edge]


# ---------------------------------------------------------------------------
# ASCII proof-style rendering

_SEP = 2


def _label(n: TreeNode) -> str:
    return "" if n.rule == "LEX" else n.rule


def _row(offset: dict[int, int], pieces: Iterable[tuple[tuple[int, int], str]], underline: bool = False) -> str:
    """One line of pieces; column i starts at offset[i], and a span's piece
    fills its columns and the separators between them."""
    line = ""
    for (start, end), text in pieces:
        w = offset[end] - offset[start] - _SEP
        line = line.ljust(offset[start]) + (text.rjust(w, "-") if underline else text.ljust(w))
    return line.rstrip()


def _render_tree(sentence: tuple[str, ...], node: TreeNode) -> list[str]:
    nodes, stack = [], [node]
    while stack:
        nodes.append(stack.pop())
        stack += nodes[-1].children
    # Narrow spans first: widening a span's last column widens every span
    # that holds it.  Spans of one length in one tree are disjoint.
    nodes.sort(key=lambda n: (n.span[1] - n.span[0], n.span[0]))
    leaves = sorted((n for n in nodes if n.rule == "LEX"), key=lambda n: n.span)
    cols = range(leaves[0].span[0], leaves[-1].span[1])
    widths = {i: len(sentence[i]) for i in cols}
    for n in nodes:
        start, end = n.span
        need = max(len(_label(n)) + 2, len(n.category), len(n.lf) + 2)
        have = sum(widths[i] for i in range(start, end)) + _SEP * (end - start - 1)
        if have < need:
            widths[end - 1] += need - have
    offset = {cols.start: 0}
    for i in cols:
        offset[i + 1] = offset[i] + widths[i] + _SEP

    lines = [_row(offset, (((i, i + 1), sentence[i]) for i in cols))]
    for group in [leaves] + [[n] for n in nodes if n.rule != "LEX"]:
        lines.append(_row(offset, ((n.span, _label(n)) for n in group), underline=True))
        lines.append(_row(offset, ((n.span, n.category) for n in group)))
        lines.append(_row(offset, ((n.span, ": " + n.lf) for n in group)))
    return lines


def render_ascii(doc: DerivationDoc) -> str:
    """One block per reading: tokens, then rule-labelled underlines with the
    derived category and logical form per step; the final step is the goal."""
    if not doc.readings:
        lines = ["NO PARSE: " + " ".join(doc.sentence)]
        if doc.near_misses:
            lines.append("longest constituents found:")
            for m in doc.near_misses:
                covered = " ".join(doc.sentence[m.span[0] : m.span[1]])
                lines.append(f"  [{m.span[0]}:{m.span[1]}] {covered} := {m.category} : {m.lf}")
        return "\n".join(lines) + "\n"
    blocks = []
    for i, reading in enumerate(doc.readings, 1):
        header = f"reading {i}: {reading.category} : {reading.lf}"
        blocks.append("\n".join([header] + _render_tree(doc.sentence, reading.tree)))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# JSON round trip

def _node_from(obj: dict) -> TreeNode:
    return TreeNode(
        tuple(obj["span"]),
        obj["category"],
        obj["lf"],
        obj["rule"],
        tuple(_node_from(c) for c in obj["children"]),
    )


def _lay_out(value: object, depth: int, parts: list) -> None:
    """Append value's JSON text at nesting depth ``depth`` to parts, as
    json.dumps(..., indent=2) lays it out, leaving a dataclass value as a
    (value, depth) reference."""
    if is_dataclass(value):
        parts.append((value, depth))
    elif type(value) is str:
        parts.append(encode_basestring_ascii(value))
    elif type(value) is int:
        parts.append(int.__repr__(value))
    elif type(value) is tuple:
        if not value:
            parts.append("[]")
            return
        inner = "\n" + "  " * (depth + 1)
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _lay_out(item, depth + 1, parts)
            sep = "," + inner
        parts.append("\n" + "  " * depth + "]")
    else:
        raise TypeError(f"not in the document schema: {value!r}")


def _own_text(obj: object, depth: int) -> list:
    """A dataclass's JSON text at nesting depth ``depth`` as runs of text
    between the (value, depth) references to its nested dataclasses."""
    parts: list = []
    inner = "\n" + "  " * (depth + 1)
    sep = "{" + inner
    for f in fields(obj):
        parts.append(sep + encode_basestring_ascii(f.name) + ": ")
        _lay_out(getattr(obj, f.name), depth + 1, parts)
        sep = "," + inner
    parts.append("\n" + "  " * depth + "}")
    runs, text = [], []
    for part in parts:
        if type(part) is str:
            text.append(part)
        else:
            runs.append("".join(text))
            runs.append(part)
            text = []
    runs.append("".join(text))
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
    """Stable JSON for the document: the text json.dumps(asdict(doc), indent=2)
    writes, each dataclass's fields in order and tuples as lists; read_json
    restores an equal value.

    A node that readings share is laid out once per nesting depth and its
    text copied wherever it recurs.
    """
    out: list[str] = []
    _emit(doc, 0, {}, out)
    out.append("\n")
    return "".join(out)


def read_json(text: str) -> DerivationDoc:
    obj = json.loads(text)
    return DerivationDoc(
        tuple(obj["sentence"]),
        tuple(
            Reading(r["category"], r["lf"], _node_from(r["tree"])) for r in obj["readings"]
        ),
        tuple(NearMiss(tuple(m["span"]), m["category"], m["lf"]) for m in obj["near_misses"]),
    )

"""Derivation documents: proof-style ASCII display and stable JSON."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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


def document(chart: Chart, goal: Category | None = None) -> DerivationDoc:
    """The chart's answer: its spanning readings that fill the goal (see
    parser.chart_readings), sorted by (category, logical form).

    Each chart edge becomes one TreeNode, so readings that share a
    sub-derivation share its node. With no readings, the longest derived
    sub-spans are recorded as near misses, sorted by (span, category, logical form).
    """
    nodes: dict[Edge, TreeNode] = {}  # Edge hashes by identity

    def node(edge: Edge) -> TreeNode:
        if edge not in nodes:
            children = tuple(node(child) for child in edge.children)
            nodes[edge] = TreeNode(
                edge.span, render_category(edge.category), lf.pretty_print(edge.lf), edge.label, children
            )
        return nodes[edge]

    roots = (node(e) for e in chart_readings(chart, goal))
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


# ---------------------------------------------------------------------------
# ASCII proof-style rendering

_SEP = 2


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

    def width(span: tuple[int, int]) -> int:
        return sum(widths[i] for i in range(*span)) + _SEP * (span[1] - span[0] - 1)

    def label(n: TreeNode) -> str:
        return "" if n.rule == "LEX" else n.rule

    for n in nodes:
        need = max(len(label(n)) + 2, len(n.category), len(n.lf) + 2)
        have = width(n.span)
        if have < need:
            widths[n.span[1] - 1] += need - have

    def row(pieces: Iterable[tuple[tuple[int, int], str]], underline: bool = False) -> str:
        line = ""
        for span, text in pieces:
            w = width(span)
            offset = width((cols.start, span[0])) + _SEP  # the columns before span, each with its separator
            line = line.ljust(offset) + (text.rjust(w, "-") if underline else text.ljust(w))
        return line.rstrip()

    lines = [row(((i, i + 1), sentence[i]) for i in cols)]
    for group in [leaves] + [[n] for n in nodes if n.rule != "LEX"]:
        lines.append(row(((n.span, label(n)) for n in group), underline=True))
        lines.append(row((n.span, n.category) for n in group))
        lines.append(row((n.span, ": " + n.lf) for n in group))
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


def render_json(doc: DerivationDoc) -> str:
    """Stable JSON for the document: each dataclass's fields in order (tuples
    become lists); read_json restores an equal value."""
    return json.dumps(asdict(doc), indent=2) + "\n"


def read_json(text: str) -> DerivationDoc:
    obj = json.loads(text)
    return DerivationDoc(
        tuple(obj["sentence"]),
        tuple(
            Reading(r["category"], r["lf"], _node_from(r["tree"])) for r in obj["readings"]
        ),
        tuple(NearMiss(tuple(m["span"]), m["category"], m["lf"]) for m in obj["near_misses"]),
    )

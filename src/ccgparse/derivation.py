"""Derivation documents: proof-style ASCII display and stable JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .category import RuleId, render_category
from . import logical_form as lf
from .parser import Chart, Edge

RULE_LABELS = ("LEX",) + tuple(rule.label for rule in RuleId)


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


def _tree(edge: Edge) -> TreeNode:
    return TreeNode(
        edge.span,
        render_category(edge.category),
        lf.pretty_print(edge.lf),
        edge.label,
        tuple(_tree(child) for child in edge.children),
    )


def document(tokens: list[str] | tuple[str, ...], edges: list[Edge], chart: Chart | None = None) -> DerivationDoc:
    """Build a document; readings are sorted by (category, logical form).

    With no readings and a chart available, the longest derived sub-spans
    are recorded as near misses.
    """
    readings = tuple(
        sorted(
            (Reading(render_category(e.category), lf.pretty_print(e.lf), _tree(e)) for e in edges),
            key=lambda r: (r.category, r.lf),
        )
    )
    near: tuple[NearMiss, ...] = ()
    if not readings and chart is not None:
        near = tuple(
            sorted(
                (NearMiss(e.span, render_category(e.category), lf.pretty_print(e.lf)) for e in chart.longest_partials()),
                key=lambda m: (m.span, m.category, m.lf),
            )
        )
    return DerivationDoc(tuple(tokens), readings, near)


# ---------------------------------------------------------------------------
# ASCII proof-style rendering

_SEP = 2


def _collect(node: TreeNode, leaves: list[TreeNode], internal: list[TreeNode]) -> None:
    if node.rule == "LEX":
        leaves.append(node)
        return
    for child in node.children:
        _collect(child, leaves, internal)
    internal.append(node)


def _render_tree(sentence: tuple[str, ...], node: TreeNode) -> list[str]:
    leaves: list[TreeNode] = []
    internal: list[TreeNode] = []
    _collect(node, leaves, internal)
    leaves.sort(key=lambda n: n.span)
    internal.sort(key=lambda n: (n.span[1] - n.span[0], n.span[0]))

    start = min(n.span[0] for n in leaves)
    end = max(n.span[1] for n in leaves)
    cols = list(range(start, end))
    widths = {i: len(sentence[i]) for i in cols}

    # rows are (span, text, underline) pieces; underline text is sized later
    rows: list[list[tuple[tuple[int, int], str, bool]]] = []
    rows.append([((i, i + 1), sentence[i], False) for i in cols])
    rows.append([(n.span, "", True) for n in leaves])
    rows.append([(n.span, n.category, False) for n in leaves])
    rows.append([(n.span, ": " + n.lf, False) for n in leaves])
    for n in internal:
        rows.append([(n.span, n.rule, True)])
        rows.append([(n.span, n.category, False)])
        rows.append([(n.span, ": " + n.lf, False)])

    def fit(span: tuple[int, int], needed: int) -> None:
        have = sum(widths[i] for i in range(span[0], span[1])) + _SEP * (span[1] - span[0] - 1)
        if have < needed:
            widths[span[1] - 1] += needed - have

    pieces = [p for row in rows for p in row]
    pieces.sort(key=lambda p: p[0][1] - p[0][0])
    for span, text, is_rule in pieces:
        fit(span, len(text) + 2 if is_rule else len(text))

    offsets = {}
    pos = 0
    for i in cols:
        offsets[i] = pos
        pos += widths[i] + _SEP

    lines = []
    for row in rows:
        line: list[str] = []
        for span, text, is_rule in sorted(row, key=lambda p: p[0]):
            width = sum(widths[i] for i in range(span[0], span[1])) + _SEP * (span[1] - span[0] - 1)
            if is_rule:
                text = "-" * (width - len(text)) + text
            offset = offsets[span[0]]
            if len("".join(line)) < offset:
                line.append(" " * (offset - len("".join(line))))
            line.append(text.ljust(width))
        lines.append("".join(line).rstrip())
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

def _node_obj(node: TreeNode) -> dict:
    return {
        "span": list(node.span),
        "category": node.category,
        "lf": node.lf,
        "rule": node.rule,
        "children": [_node_obj(c) for c in node.children],
    }


def _node_from(obj: dict) -> TreeNode:
    return TreeNode(
        tuple(obj["span"]),
        obj["category"],
        obj["lf"],
        obj["rule"],
        tuple(_node_from(c) for c in obj["children"]),
    )


def render_json(doc: DerivationDoc) -> str:
    """Stable JSON for the document; read_json restores an equal value."""
    payload = {
        "sentence": list(doc.sentence),
        "readings": [
            {"category": r.category, "lf": r.lf, "tree": _node_obj(r.tree)} for r in doc.readings
        ],
        "near_misses": [
            {"span": list(m.span), "category": m.category, "lf": m.lf} for m in doc.near_misses
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def read_json(text: str) -> DerivationDoc:
    obj = json.loads(text)
    return DerivationDoc(
        tuple(obj["sentence"]),
        tuple(
            Reading(r["category"], r["lf"], _node_from(r["tree"])) for r in obj["readings"]
        ),
        tuple(NearMiss(tuple(m["span"]), m["category"], m["lf"]) for m in obj["near_misses"]),
    )

"""The reference ASCII renderer: each reading's tree walked, sorted and widened on its own.

This is ``derivation.render_ascii`` as it was before it laid out each
distinct node once per document.  It needs no tiling of a parent's span by
its children, only that spans of one length in one tree are disjoint, and
it is the contract the shipped renderer is held to.
"""

from itertools import accumulate

from ccgparse.derivation import DerivationDoc, TreeNode

_SEP = 2


def _label(n: TreeNode) -> str:
    return "" if n.rule == "LEX" else n.rule


def _render_tree(sentence: tuple[str, ...], node: TreeNode) -> list[str]:
    nodes, stack = [], [node]
    while stack:
        nodes.append(stack.pop())
        stack += nodes[-1].children
    # Narrow spans first: widening a span's last column widens every span
    # that holds it.  Spans of one length in one tree are disjoint.
    nodes.sort(key=lambda n: (n.span[1] - n.span[0], n.span[0]))
    leaves = sorted((n for n in nodes if n.rule == "LEX"), key=lambda n: n.span)
    first = leaves[0].span[0]
    words = sentence[first : leaves[-1].span[1]]
    widths = [len(w) + _SEP for w in words]  # each column with the separator after it
    for n in nodes:
        start, end = n.span[0] - first, n.span[1] - first
        short = max(len(_label(n)) + 2, len(n.category), len(n.lf) + 2) + _SEP - sum(widths[start:end])
        if short > 0:
            widths[end - 1] += short
    offset = [0, *accumulate(widths)]

    lines = ["".join(map(str.ljust, words[:-1], widths)) + words[-1]]
    for group in [leaves] + [[n] for n in nodes if n.rule != "LEX"]:
        rule = category = form = ""
        for n in group:
            start, end = offset[n.span[0] - first], offset[n.span[1] - first] - _SEP
            rule += " " * (start - len(rule)) + _label(n).rjust(end - start, "-")
            category += " " * (start - len(category)) + n.category
            form += " " * (start - len(form)) + ": " + n.lf
        lines += (rule, category, form)
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

"""Span tracing of ccgparse from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
ccgparse module namespace that binds it (and on its class, for methods);
``Tracer.uninstall`` puts the originals back.  Each outermost call of a
traced function records one span ``[name, start_ns, end_ns, parent,
request, outcome]`` in memory.  ``outcome`` is a small number taken from
the return value (``None``-ness, a length); results that are costly to
measure are kept until ``end_request`` and measured outside every span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable

NS = 1e9

# span name -> (module, attribute path)
TARGETS = {
    "cli.main": ("ccgparse.cli", "main"),
    "lexicon.parse_lexicon": ("ccgparse.lexicon", "parse_lexicon"),
    "lexicon.validate_lexicon": ("ccgparse.lexicon", "validate_lexicon"),
    "lexicon.lookup": ("ccgparse.lexicon", "lookup"),
    "parser.build_chart": ("ccgparse.parser", "build_chart"),
    "parser.parse": ("ccgparse.parser", "parse"),
    "parser.seed_edges": ("ccgparse.parser", "seed_edges"),
    "parser.combine": ("ccgparse.parser", "combine"),
    "parser.Chart.add": ("ccgparse.parser", "Chart.add"),
    "parser.Edge.reading_key": ("ccgparse.parser", "Edge.reading_key"),
    "category.match_argument": ("ccgparse.category", "match_argument"),
    "category.unify": ("ccgparse.category", "unify"),
    "category.apply_bindings": ("ccgparse.category", "apply_bindings"),
    "category.category_key": ("ccgparse.category", "category_key"),
    "category.render_category": ("ccgparse.category", "render_category"),
    "logical_form.beta_normalize": ("ccgparse.logical_form", "beta_normalize"),
    "logical_form.alpha_key": ("ccgparse.logical_form", "alpha_key"),
    "logical_form.alpha_eq": ("ccgparse.logical_form", "alpha_eq"),
    "logical_form.pretty_print": ("ccgparse.logical_form", "pretty_print"),
    "derivation.document": ("ccgparse.derivation", "document"),
    "derivation.render_ascii": ("ccgparse.derivation", "render_ascii"),
    "derivation.render_json": ("ccgparse.derivation", "render_json"),
}

# outcomes measured inside the wrapper; must be cheap
_FAILED = lambda result: 1 if result is None else 0  # noqa: E731
_LENGTH = len
OUTCOMES: dict[str, Callable[[object], int]] = {
    "parser.seed_edges": _LENGTH,
    "parser.combine": _LENGTH,
    "parser.Chart.add": lambda added: 0 if added else 1,
    "category.match_argument": _FAILED,
    "category.unify": _FAILED,
    "derivation.render_ascii": _LENGTH,
    "derivation.render_json": _LENGTH,
}


def term_nodes(term) -> int:
    """Nodes of a logical-form term (Var, Const with subscripts, Abs, App)."""
    count, todo = 0, [term]
    while todo:
        t = todo.pop()
        count += 1
        if hasattr(t, "fun"):
            todo += (t.fun, t.arg)
        elif hasattr(t, "body"):
            todo.append(t.body)
        else:
            todo.extend(getattr(t, "contingencies", ()))
    return count


def tree_nodes(doc) -> int:
    """Derivation tree nodes over all readings of a document."""
    count, todo = 0, [r.tree for r in doc.readings]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(node.children)
    return count


def max_cell_edges(chart) -> int:
    return max((len(cell) for cell in chart.cells.values()), default=0)


# results kept until the request ends, then measured outside every span
DEFERRED: dict[str, Callable[[object], int]] = {
    "parser.build_chart": max_cell_edges,
    "logical_form.beta_normalize": term_nodes,
    "derivation.document": tree_nodes,
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._kept: list[tuple[int, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a ccgparse module binds it."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "ccgparse" or name.startswith("ccgparse.")]
        for name, (module_name, path) in TARGETS.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if owner is sys.modules[module_name]:
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self.patches.append((module, binding, original))
                            setattr(module, binding, wrapper)
            else:  # a method: the class holds the only binding
                self.patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, active, kept = self.spans, self._stack, self._active, self._kept
        outcome_of = OUTCOMES.get(name)
        keep = name in DEFERRED
        tracer = self

        def wrapper(*args, **kwargs):
            if active[name]:  # a recursive call: only the outermost is a span
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.request, 0]
            spans.append(span)
            stack.append(index)
            active[name] = 1
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                active[name] = 0
                stack.pop()
            if outcome_of is not None:
                span[5] = outcome_of(result)
            elif keep:
                kept.append((index, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- requests ----------------------------------------------------------

    def begin_request(self, request: int) -> None:
        self.request = request

    def end_request(self) -> None:
        """Measure the results kept during the request, outside every span."""
        for index, result in self._kept:
            span = self.spans[index]
            span[5] = DEFERRED[span[0]](result)
        self._kept.clear()
        self.request = -1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\trequest\toutcome\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, summed outcome and maximum outcome."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "outcome": 0, "max": 0})
    for span, own in zip(spans, self_times(spans)):
        t = totals[span[0]]
        t["calls"] += 1
        t["self_s"] += own / NS
        t["outcome"] += span[5]
        t["max"] = max(t["max"], span[5])
    return totals

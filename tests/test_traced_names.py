"""The benchmark tracer (perfbench/tracing.py) wraps ccgparse functions by
name; renaming or deleting one of them breaks traced benchmark runs."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> dict:
    """Execute tracing.py from its source, writing nothing beside it."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves_in_ccgparse():
    tracing = load_tracing()
    missing = []
    for name, (module_name, path) in tracing["TARGETS"].items():
        importlib.import_module(module_name)
        owner, attr = tracing["_resolve"](module_name, path)
        if not callable(getattr(owner, attr, None)):
            missing.append(name)
    assert missing == []

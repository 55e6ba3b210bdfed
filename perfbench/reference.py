"""A fixed pure-Python task that measures how fast the host runs Python now.

The benchmark shares a host whose speed drifts: the same request took from
147 to 289 ms within minutes, in stretches that last longer than a run.
Times are therefore reported at the reference speed: measured seconds
times REFERENCE_S over the time this task took right beside them.

The task never changes and imports nothing from ccgparse.  It does what
ccgparse's hot paths do, in miniature (frozen dataclass terms, structural
pattern matching, recursive substitution, normal-order beta reduction,
canonical string keys and a dictionary that packs equal results), so that
host contention slows it about as much as it slows the parser.  It runs with
the garbage collector off, so that its time does not follow the heap or the
collector settings of the process it runs in.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

REFERENCE_S = 0.0045  # the task's time on the quiet 2.1 GHz x86-64 host the benchmark was defined on


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Abs:
    var: str
    body: object


@dataclass(frozen=True)
class App:
    fun: object
    arg: object


def _free(t) -> frozenset:
    match t:
        case Var(name):
            return frozenset({name})
        case Abs(v, body):
            return _free(body) - {v}
        case App(f, a):
            return _free(f) | _free(a)


def _substitute(t, v: str, s):
    match t:
        case Var(name):
            return s if name == v else t
        case App(f, a):
            return App(_substitute(f, v, s), _substitute(a, v, s))
        case Abs(x, body):
            if x == v:
                return t
            if x in _free(s):
                x2 = x + "'"
                while x2 in _free(s) | _free(body):
                    x2 += "'"
                return Abs(x2, _substitute(_substitute(body, x, Var(x2)), v, s))
            return Abs(x, _substitute(body, v, s))


def _step(t):
    match t:
        case App(Abs(v, body), a):
            return _substitute(body, v, a)
        case App(f, a):
            r = _step(f)
            if r is not None:
                return App(r, a)
            r = _step(a)
            return App(f, r) if r is not None else None
        case Abs(v, body):
            r = _step(body)
            return Abs(v, r) if r is not None else None
    return None


def _key(t, env: tuple = ()) -> str:
    match t:
        case Var(name):
            return f"b{len(env) - 1 - env.index(name)}" if name in env else name
        case Abs(v, body):
            return "(\\" + _key(body, env + (v,)) + ")"
        case App(f, a):
            return "(" + _key(f, env) + " " + _key(a, env) + ")"


def _church(n: int):
    body = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return Abs("f", Abs("x", body))


_PLUS = Abs("m", Abs("n", Abs("f", Abs("x", App(App(Var("m"), Var("f")), App(App(Var("n"), Var("f")), Var("x")))))))
_TIMES = Abs("m", Abs("n", Abs("f", App(Var("m"), App(Var("n"), Var("f"))))))


def reference_seconds() -> float:
    """Run the task once, with the garbage collector off, and return how long it took."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        packed: dict[str, object] = {}
        for a in range(1, 5):
            for b in range(1, 5):
                for op in (_PLUS, _TIMES):
                    t = App(App(op, _church(a)), _church(b))
                    while (r := _step(t)) is not None:
                        t = r
                    packed.setdefault(_key(t), t)
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if len(packed) != 11:  # distinct values of a+b and a*b for a, b in 1..4
        raise RuntimeError("reference task computed a wrong result")
    return elapsed

"""Lambda-calculus logical forms with contingency-subscripted constants.

A constant may carry an ordered list of subscript terms.  Subscripts are
genuine subterms: substitution and reduction descend into them, and an
abstraction whose variable only occurs inside a subscript is legal (the
binder feeds the predicate's contingency, not its argument structure).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cursor import Cursor

DEFAULT_STEP_BUDGET = 10000


class BudgetExceeded(Exception):
    """Beta reduction ran out of steps; the lexicon is pathological."""


class _Node:
    """Facts a term node computes once, when it is made: ``free``, its free
    variables, and ``normal``, whether it holds no redex.  A closed node
    keeps its alpha key in ``key`` once alpha_key has made it."""

    __slots__ = ("free", "normal", "key")


_CLOSED: frozenset[str] = frozenset()

# Equality, hashing and repr are generated as for a frozen dataclass.  Each
# class writes its own __init__: a frozen dataclass's sets every field
# through object.__setattr__, several times slower.


@dataclass(init=False, unsafe_hash=True, slots=True)
class Var(_Node):
    name: str

    def __init__(self, name: str):
        self.name, self.free, self.normal, self.key = name, frozenset((name,)), True, None


@dataclass(init=False, unsafe_hash=True, slots=True)
class Const(_Node):
    name: str
    contingencies: tuple["Term", ...]

    def __init__(self, name: str, contingencies: tuple["Term", ...] = ()):
        self.name, self.contingencies = name, contingencies
        free, normal = _CLOSED, True
        for c in contingencies:
            free = free | c.free if free else c.free
            normal = normal and c.normal
        self.free, self.normal, self.key = free, normal, None


@dataclass(init=False, unsafe_hash=True, slots=True)
class Abs(_Node):
    var: str
    body: "Term"

    def __init__(self, var: str, body: "Term"):
        self.var, self.body = var, body
        free = body.free
        self.free, self.normal, self.key = free - {var} if var in free else free, body.normal, None


@dataclass(init=False, unsafe_hash=True, slots=True)
class App(_Node):
    fun: "Term"
    arg: "Term"

    def __init__(self, fun: "Term", arg: "Term"):
        self.fun, self.arg = fun, arg
        f, a = fun.free, arg.free
        self.free = f | a if f and a and f is not a else f or a
        self.normal = fun.normal and arg.normal and type(fun) is not Abs
        self.key = None


Term = Var | Const | Abs | App


def app(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = App(fun, a)
    return fun


def absn(variables: list[str] | tuple[str, ...], body: Term) -> Term:
    for v in reversed(variables):
        body = Abs(v, body)
    return body


# substitute, beta_normalize, alpha_key and pretty_print run once or more
# per chart edge, so they dispatch on type(t) rather than with structural
# pattern matching, which is several times slower.

def free_vars(t: Term) -> frozenset[str]:
    return t.free


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def _subscripts(t: Const, new: list[Term]) -> Const:
    """t with the subscripts new, or t itself when every one is unchanged."""
    for c, c2 in zip(t.contingencies, new):
        if c is not c2:
            return Const(t.name, tuple(new))
    return t


# The walks below are module-level functions that take their state as
# parameters.  A nested function that calls itself holds a reference to
# itself, so each call would leave a cycle that only the cyclic garbage
# collector frees, and with it every term the walk touched.  Subscripts are
# walked in a plain loop: before Python 3.12 a comprehension is one more
# frame per term level, which would lower the nesting a term may have.

def _substitute(t: Term, v: str, s: Term, s_free: frozenset[str]) -> Term:
    if v not in t.free:
        return t
    cls = type(t)
    if cls is Var:
        return s
    if cls is App:
        f, a = t.fun, t.arg
        f2, a2 = _substitute(f, v, s, s_free), _substitute(a, v, s, s_free)
        return t if f2 is f and a2 is a else App(f2, a2)
    if cls is Abs:
        x, body = t.var, t.body
        if x in s_free:
            x2 = fresh_name(x, s_free | body.free)
            return Abs(x2, _substitute(substitute(body, x, Var(x2)), v, s, s_free))
        body2 = _substitute(body, v, s, s_free)
        return t if body2 is body else Abs(x, body2)
    new = []  # a Const with v free in a subscript
    for c in t.contingencies:
        new.append(_substitute(c, v, s, s_free))
    return _subscripts(t, new)


def substitute(t: Term, v: str, s: Term) -> Term:
    """Capture-avoiding substitution of s for free occurrences of v.

    Subterms without a free v come back as the same objects.
    """
    return _substitute(t, v, s, s.free)


def _normal_form(t: Term, budget: list[int]) -> Term:
    """beta_normalize's walk; budget is [steps taken, max_steps]."""
    if t.normal:
        return t
    cls = type(t)
    if cls is Abs:
        body = _normal_form(t.body, budget)
        return t if body is t.body else Abs(t.var, body)
    if cls is not App:  # a Const with a redex in a subscript
        new = []
        for c in t.contingencies:
            new.append(_normal_form(c, budget))
        return _subscripts(t, new)
    pending, t = [t], t.fun  # the spine's applications, innermost last
    while True:
        while type(t) is App:
            pending.append(t)
            t = t.fun
        if type(t) is not Abs or not pending:
            break
        if budget[0] >= budget[1]:
            raise BudgetExceeded(f"no normal form within {budget[1]} steps")
        budget[0] += 1
        t = substitute(t.body, t.var, pending.pop().arg)
    t = _normal_form(t, budget)
    while pending:
        node = pending.pop()
        a = _normal_form(node.arg, budget)
        t = node if t is node.fun and a is node.arg else App(t, a)
    return t


def beta_normalize(t: Term, max_steps: int = DEFAULT_STEP_BUDGET) -> Term:
    """Reduce to beta-normal form in normal order (leftmost-outermost).

    Normal order finds a normal form whenever one exists.  The reducer
    makes one pass.  It unwinds an application into its head and pending
    arguments, contracts while the head is an abstraction, then normalizes
    the head and the arguments left to right: the contractions, in the
    same order, of restarting the leftmost-outermost search from the root
    after each one.  Unwinding is a loop, so a spine that grows with each
    contraction exhausts the budget, not the stack.  Already-normal
    subterms come back as the same objects.  Raises BudgetExceeded when a
    reduction beyond max_steps is due.
    """
    return _normal_form(t, [0, max_steps])


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return alpha_key(a) == alpha_key(b)


def _key(t: Term, depth: int, binders: dict[str, list[int]], out: list[str]) -> None:
    """alpha_key's walk; binders maps a name to the depths of its binders in scope.

    A closed subterm's key depends on neither, so one that alpha_key has
    keyed before is appended whole.
    """
    if t.key is not None:
        out.append(t.key)
        return
    cls = type(t)
    if cls is Var:
        ds = binders.get(t.name)
        out.append(f"b{depth - 1 - ds[-1]}" if ds else "f:" + t.name)
    elif cls is App:
        out.append("(")
        _key(t.fun, depth, binders, out)
        out.append(" ")
        _key(t.arg, depth, binders, out)
        out.append(")")
    elif cls is Abs:
        out.append("(\\")
        ds = binders.setdefault(t.var, [])
        ds.append(depth)
        _key(t.body, depth + 1, binders, out)
        ds.pop()
        out.append(")")
    else:
        out.append("c:" + t.name)
        if t.contingencies:
            sep = "{"
            for c in t.contingencies:
                out.append(sep)
                _key(c, depth, binders, out)
                sep = ","
            out.append("}")


def alpha_key(t: Term) -> str:
    """Canonical string shared by alpha-equivalent terms: bound variables by
    binder depth, free ones by name.  A closed term keeps its key."""
    if t.key is None:
        out: list[str] = []
        _key(t, 0, {}, out)
        if t.free:
            return "".join(out)
        t.key = "".join(out)
    return t.key


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split nested application into its head and argument list."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


# ---------------------------------------------------------------------------
# concrete syntax

class LFSyntaxError(ValueError):
    pass


_LF_SCANNER = re.compile(r"\s*(?:(?P<punct>[\\.(){}_,&])|(?P<ident>[A-Za-z][A-Za-z0-9']*)|(?P<bad_char>\S))")
_LF_ERRORS = {"bad_char": "unexpected character {found!r} in logical form {text!r}"}

_LEVEL_TOP = 0
_LEVEL_CONJ = 1
_LEVEL_APP = 2
_LEVEL_ATOM = 3


def _term(cur: Cursor, bound: list[str]) -> Term:
    """Read a term; ``bound`` holds the names that enclosing lambdas bind."""
    return _lam(cur, bound) if cur.peek()[1] == "\\" else _conj(cur, bound)


def _lam(cur: Cursor, bound: list[str]) -> Term:
    binders: list[str] = []
    while cur.peek()[1] == "\\":
        cur.take()
        kind, name = cur.take()
        if kind != "ident":
            raise LFSyntaxError(f"bad binder name {name!r}")
        binders.append(name)
    cur.take(".")
    return absn(binders, _term(cur, bound + binders))


def _conj(cur: Cursor, bound: list[str]) -> Term:
    left = _application(cur, bound)
    while cur.peek()[1] == "&":
        cur.take()
        left = App(App(Const("and"), left), _application(cur, bound))
    return left


def _application(cur: Cursor, bound: list[str]) -> Term:
    fun = _atom(cur, bound)
    while (tok := cur.peek())[0] == "ident" or tok[1] in ("(", "\\"):
        if tok[1] == "\\":
            # a lambda swallows the rest; it can only be the last argument
            raise LFSyntaxError("parenthesize lambda arguments")
        fun = App(fun, _atom(cur, bound))
    return fun


def _atom(cur: Cursor, bound: list[str]) -> Term:
    kind, tok = cur.take()
    if tok == "(":
        inner = _term(cur, bound)
        cur.take(")")
        return inner
    if kind != "ident":
        raise cur.unexpected(tok)
    subs: tuple[Term, ...] = ()
    if cur.peek()[1] == "_":
        cur.take()
        subs = _subscript(cur, bound)
    if tok in bound:
        if subs:
            raise LFSyntaxError(f"subscript on bound variable {tok!r}; subscripts attach to constants")
        return Var(tok)
    return Const(tok, subs)


def _subscript(cur: Cursor, bound: list[str]) -> tuple[Term, ...]:
    if cur.peek()[1] == "{":
        cur.take()
        terms = [_term(cur, bound)]
        while cur.peek()[1] == ",":
            cur.take()
            terms.append(_term(cur, bound))
        cur.take("}")
        return tuple(terms)
    kind, name = cur.take()
    if kind != "ident":
        raise LFSyntaxError(f"bad subscript {name!r}")
    return (Var(name) if name in bound else Const(name),)


def parse_term(text: str) -> Term:
    """Read the ASCII logical-form syntax.

    ``\\x\\y. body`` abstracts, juxtaposition applies left-associatively,
    ``&`` is infix conjunction at lowest precedence, and ``_{...}`` (or
    ``_x`` for a lone identifier) attaches contingency subscripts to the
    preceding constant.  Identifiers bound by an enclosing lambda are
    variables; all others are constants.
    """
    cur = Cursor(_LF_SCANNER, _LF_ERRORS, text, LFSyntaxError, "logical form")
    t = _term(cur, [])
    cur.finish()
    return t


def _pp(t: Term, level: int) -> str:
    cls = type(t)
    if cls is Var or cls is Const and not t.contingencies:
        return t.name
    if cls is Const:
        return t.name + "_{" + ", ".join(_pp(c, _LEVEL_TOP) for c in t.contingencies) + "}"
    if cls is Abs:
        text, body = "", t
        while type(body) is Abs:
            text += "\\" + body.var
            body = body.body
        text += ". " + _pp(body, _LEVEL_TOP)
        return f"({text})" if level > _LEVEL_TOP else text
    f, a = t.fun, t.arg
    if type(f) is App and type(f.fun) is Const and f.fun.name == "and" and not f.fun.contingencies:
        text = f"{_pp(f.arg, _LEVEL_CONJ)} & {_pp(a, _LEVEL_APP)}"
        return f"({text})" if level > _LEVEL_CONJ else text
    text = f"{_pp(f, _LEVEL_APP)} {_pp(a, _LEVEL_ATOM)}"
    return f"({text})" if level > _LEVEL_APP else text


def pretty_print(t: Term) -> str:
    """Deterministic linear rendering; round-trips through parse_term."""
    return _pp(t, _LEVEL_TOP)

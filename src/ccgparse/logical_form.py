"""Lambda-calculus logical forms with contingency-subscripted constants.

A constant may carry an ordered list of subscript terms.  Subscripts are
genuine subterms: substitution and reduction descend into them, and an
abstraction whose variable only occurs inside a subscript is legal (the
binder feeds the predicate's contingency, not its argument structure).
"""

from __future__ import annotations

import re

from .cursor import LETTERS, Cursor

DEFAULT_STEP_BUDGET = 10000


class BudgetExceeded(Exception):
    """Beta reduction ran out of steps; the lexicon is pathological."""


class _Node:
    """Facts a term node computes once, when it is made, from its children's:
    ``free``, its free variables, ``normal``, whether it holds no redex, and
    ``fp``, its fingerprint.  The fingerprint is a hash shared by
    alpha-equivalent terms: every variable hashes alike, a constant by its
    name and subscripts, and any other node by its structure.  Terms that
    differ only in which variable stands where share one too, so it is
    AlphaKey's hash, and its equality walks the terms.

    A node is a value: equality and repr read the fields each class names in
    ``__match_args__``, as a frozen dataclass's would, and the hash is the
    fingerprint, which structurally equal terms share.  Equality walks the two
    trees with its own stack, fingerprints first, so no depth is too deep to
    compare.  Each class writes its own __init__, which sets the facts beside
    the fields."""

    __slots__ = ("free", "normal", "fp")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            s, t = pairs.pop()
            cls = type(s)
            if s is t:
                continue
            if cls is not type(t) or s.fp != t.fp or cls is Abs and s.var != t.var:
                return False
            if cls is App:
                pairs += ((s.fun, t.fun), (s.arg, t.arg))
            elif cls is Abs:
                pairs.append((s.body, t.body))
            elif s.name != t.name or cls is Const and len(s.contingencies) != len(t.contingencies):
                return False
            elif cls is Const:
                pairs += zip(s.contingencies, t.contingencies)
        return True

    def __hash__(self) -> int:
        return self.fp

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join([f'{f}={getattr(self, f)!r}' for f in self.__match_args__])})"


_CLOSED: frozenset[str] = frozenset()
_FP_VAR, _FP_ABS, _FP_APP = 0, 1, 2  # the tags of the nodes that carry no name


class Var(_Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name, self.free, self.normal, self.fp = name, frozenset((name,)), True, _FP_VAR


class Const(_Node):
    __slots__ = __match_args__ = ("name", "contingencies")

    def __init__(self, name: str, contingencies: tuple["Term", ...] = ()):
        self.name, self.contingencies = name, contingencies
        free, normal, fp = _CLOSED, True, (name,)
        for c in contingencies:
            free = free | c.free if free else c.free
            normal = normal and c.normal
            fp += (c.fp,)
        self.free, self.normal, self.fp = free, normal, hash(fp)


class Abs(_Node):
    __slots__ = __match_args__ = ("var", "body")

    def __init__(self, var: str, body: "Term"):
        self.var, self.body = var, body
        free = body.free
        self.free, self.normal = free - {var} if var in free else free, body.normal
        self.fp = hash((_FP_ABS, body.fp))


class App(_Node):
    __slots__ = __match_args__ = ("fun", "arg")

    def __init__(self, fun: "Term", arg: "Term"):
        self.fun, self.arg = fun, arg
        f, a = fun.free, arg.free
        self.free = f | a if f and a and f is not a else f or a
        self.normal = fun.normal and arg.normal and type(fun) is not Abs
        self.fp = hash((_FP_APP, fun.fp, arg.fp))


Term = Var | Const | Abs | App


def absn(variables: list[str] | tuple[str, ...], body: Term) -> Term:
    for v in reversed(variables):
        body = Abs(v, body)
    return body


# substitute, beta_normalize, _same and pretty_print run once or more per
# chart edge, so they dispatch on type(t) rather than with structural
# pattern matching, which is several times slower.

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

    Subterms without a free v come back as the same objects, and so does t
    itself when s is the variable v: no binder can capture v there, so the
    result would only be a copy.
    """
    if type(s) is Var and s.name == v:
        return t
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


def _same(a: Term, b: Term, depth: int, binders_a: dict[str, int], binders_b: dict[str, int]) -> bool:
    """Whether a and b are alpha-equivalent; binders map the names bound in scope to their binders' depths."""
    if a is b and not a.free:
        return True
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is Var:
        d = binders_a.get(a.name)
        return d == binders_b.get(b.name) and (d is not None or a.name == b.name)
    if cls is App:
        return _same(a.fun, b.fun, depth, binders_a, binders_b) and _same(a.arg, b.arg, depth, binders_a, binders_b)
    if cls is Abs:
        return _same(a.body, b.body, depth + 1, {**binders_a, a.var: depth}, {**binders_b, b.var: depth})
    if a.name != b.name or len(a.contingencies) != len(b.contingencies):
        return False
    for c, d in zip(a.contingencies, b.contingencies):
        if not _same(c, d, depth, binders_a, binders_b):
            return False
    return True


class AlphaKey:
    """A term as the key of its alpha-equivalence class: hashed by fingerprint, compared by _same."""

    __slots__ = ("term", "fp")

    def __init__(self, t: Term):
        self.term, self.fp = t, t.fp

    def __hash__(self) -> int:
        return self.fp

    def __eq__(self, other: object) -> bool:
        return self.fp == other.fp and _same(self.term, other.term, 0, {}, {}) if type(other) is AlphaKey else NotImplemented


def alpha_key(t: Term) -> AlphaKey:
    """The key t shares with exactly the terms alpha-equivalent to it (see AlphaKey)."""
    return AlphaKey(t)


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return alpha_key(a) == alpha_key(b)


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


_LF_SCANNER = re.compile(r"[A-Za-z][A-Za-z0-9']*|\S"), re.compile(r"[^\s\\.(){}_,&A-Za-z]")  # as _CATEGORY_SCANNER
_LF_KINDS = dict.fromkeys("\\.(){}_,&", "punct") | dict.fromkeys(LETTERS, "ident")
_LF_ERRORS = {None: "unexpected character {found!r} in logical form {text!r}"}

_LEVEL_TOP = 0
_LEVEL_CONJ = 1
_LEVEL_APP = 2
_LEVEL_ATOM = 3


def _term(cur: Cursor, bound: list[str]) -> Term:
    """Read a term; ``bound`` holds the names that enclosing lambdas bind."""
    return _lam(cur, bound) if cur.tokens[cur.pos] == "\\" else _conj(cur, bound)


def _lam(cur: Cursor, bound: list[str]) -> Term:
    binders: list[str] = []
    while cur.tokens[cur.pos] == "\\":
        cur.pos += 1
        if _LF_KINDS.get((name := cur.tokens[cur.pos])[:1]) != "ident":
            raise cur.fail(f"bad binder name {name!r}")
        binders.append(name)
        cur.pos += 1
    cur.take(".")
    return absn(binders, _term(cur, bound + binders))


def _conj(cur: Cursor, bound: list[str]) -> Term:
    left = _application(cur, bound)
    while cur.tokens[cur.pos] == "&":
        cur.pos += 1
        left = App(App(Const("and"), left), _application(cur, bound))
    return left


def _application(cur: Cursor, bound: list[str]) -> Term:
    fun = _atom(cur, bound)
    while (tok := cur.tokens[cur.pos]) == "(" or _LF_KINDS.get(tok[:1]) == "ident":
        fun = App(fun, _atom(cur, bound))
    if tok == "\\":  # a lambda swallows the rest; it can only be the last argument
        raise LFSyntaxError("parenthesize lambda arguments")
    return fun


def _atom(cur: Cursor, bound: list[str]) -> Term:
    tok = cur.tokens[cur.pos]
    if tok != "(" and _LF_KINDS.get(tok[:1]) != "ident":
        raise cur.unexpected()
    cur.pos += 1
    if tok == "(":
        inner = _term(cur, bound)
        cur.take(")")
        return inner
    subs: tuple[Term, ...] = ()
    if cur.tokens[cur.pos] == "_":
        cur.pos += 1
        subs = _subscript(cur, bound)
    if tok in bound:
        if subs:
            raise LFSyntaxError(f"subscript on bound variable {tok!r}; subscripts attach to constants")
        return Var(tok)
    return Const(tok, subs)


def _subscript(cur: Cursor, bound: list[str]) -> tuple[Term, ...]:
    if cur.tokens[cur.pos] == "{":
        terms: list[Term] = []
        while not terms or cur.tokens[cur.pos] == ",":
            cur.pos += 1  # past the '{' or ','
            terms.append(_term(cur, bound))
        cur.take("}")
        return tuple(terms)
    if _LF_KINDS.get((name := cur.tokens[cur.pos])[:1]) != "ident":
        raise cur.fail(f"bad subscript {name!r}")
    cur.pos += 1
    return (Var(name) if name in bound else Const(name),)


def parse_term(text: str) -> Term:
    """Read the ASCII logical-form syntax.

    ``\\x\\y. body`` abstracts, juxtaposition applies left-associatively,
    ``&`` is infix conjunction at lowest precedence, and ``_{...}`` (or
    ``_x`` for a lone identifier) attaches contingency subscripts to the
    preceding constant.  Identifiers bound by an enclosing lambda are
    variables; all others are constants.
    """
    cur = Cursor(_LF_SCANNER, _LF_KINDS, _LF_ERRORS, text, LFSyntaxError, "logical form")
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

"""Lambda-calculus logical forms with contingency-subscripted constants.

A constant may carry an ordered list of subscript terms.  Subscripts are
genuine subterms: substitution and reduction descend into them, and an
abstraction whose variable only occurs inside a subscript is legal (the
binder feeds the predicate's contingency, not its argument structure).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

DEFAULT_STEP_BUDGET = 10000


class BudgetExceeded(Exception):
    """Beta reduction ran out of steps; the lexicon is pathological."""


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str
    contingencies: tuple["Term", ...] = ()


@dataclass(frozen=True)
class Abs:
    var: str
    body: "Term"


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


Term = Var | Const | Abs | App


def app(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = App(fun, a)
    return fun


def absn(variables: list[str] | tuple[str, ...], body: Term) -> Term:
    for v in reversed(variables):
        body = Abs(v, body)
    return body


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset({name})
        case Const(_, cs):
            out: frozenset[str] = frozenset()
            for c in cs:
                out |= free_vars(c)
            return out
        case Abs(v, body):
            return free_vars(body) - {v}
        case App(f, a):
            return free_vars(f) | free_vars(a)
    raise TypeError(f"not a term: {t!r}")


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(t: Term, v: str, s: Term) -> Term:
    """Capture-avoiding substitution of s for free occurrences of v."""
    match t:
        case Var(name):
            return s if name == v else t
        case Const(name, cs):
            return Const(name, tuple(substitute(c, v, s) for c in cs))
        case App(f, a):
            return App(substitute(f, v, s), substitute(a, v, s))
        case Abs(x, body):
            if x == v:
                return t
            if x in free_vars(s) and v in free_vars(body):
                x2 = fresh_name(x, free_vars(s) | free_vars(body))
                body = substitute(body, x, Var(x2))
                return Abs(x2, substitute(body, v, s))
            return Abs(x, substitute(body, v, s))
    raise TypeError(f"not a term: {t!r}")


def _step_normal(t: Term) -> Term | None:
    """One leftmost-outermost reduction, or None if t is normal."""
    match t:
        case App(Abs(v, body), a):
            return substitute(body, v, a)
        case App(f, a):
            rf = _step_normal(f)
            if rf is not None:
                return App(rf, a)
            ra = _step_normal(a)
            if ra is not None:
                return App(f, ra)
            return None
        case Abs(v, body):
            rb = _step_normal(body)
            return Abs(v, rb) if rb is not None else None
        case Const(name, cs):
            for i, c in enumerate(cs):
                rc = _step_normal(c)
                if rc is not None:
                    return Const(name, cs[:i] + (rc,) + cs[i + 1 :])
            return None
        case _:
            return None


def beta_normalize(t: Term, max_steps: int = DEFAULT_STEP_BUDGET) -> Term:
    """Reduce to beta-normal form in normal order (leftmost-outermost).

    Normal order finds a normal form whenever one exists.  Raises
    BudgetExceeded after max_steps reductions.
    """
    for _ in range(max_steps):
        r = _step_normal(t)
        if r is None:
            return t
        t = r
    if _step_normal(t) is None:
        return t
    raise BudgetExceeded(f"no normal form within {max_steps} steps")


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return alpha_key(a) == alpha_key(b)


def alpha_key(t: Term) -> str:
    """Canonical string shared by alpha-equivalent terms: bound variables by binder depth, free ones by name."""

    def go(t: Term, env: dict[str, int], depth: int) -> str:
        match t:
            case Var(name):
                i = env.get(name)
                return f"b{depth - 1 - i}" if i is not None else f"f:{name}"
            case Const(name, cs):
                subs = "{" + ",".join(go(c, env, depth) for c in cs) + "}" if cs else ""
                return f"c:{name}{subs}"
            case Abs(v, body):
                env2 = dict(env)
                env2[v] = depth
                return "(\\" + go(body, env2, depth + 1) + ")"
            case App(f, a):
                return "(" + go(f, env, depth) + " " + go(a, env, depth) + ")"
        raise TypeError(f"not a term: {t!r}")

    return go(t, {}, 0)


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


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9']*")
_PUNCT = "\\.(){}_,&"

_LEVEL_TOP = 0
_LEVEL_CONJ = 1
_LEVEL_APP = 2
_LEVEL_ATOM = 3


def _lex_lf(text: str) -> list[str]:
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            out.append(c)
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if not m:
            raise LFSyntaxError(f"unexpected character {c!r} in logical form {text!r}")
        out.append(m.group())
        i = m.end()
    return out


class _LFParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.bound: list[str] = []

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise LFSyntaxError("unexpected end of logical form")
        if expected is not None and tok != expected:
            raise LFSyntaxError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def term(self) -> Term:
        if self.peek() == "\\":
            return self.lam()
        return self.conj()

    def lam(self) -> Term:
        binders: list[str] = []
        while self.peek() == "\\":
            self.take()
            name = self.take()
            if not _IDENT_RE.fullmatch(name):
                raise LFSyntaxError(f"bad binder name {name!r}")
            binders.append(name)
        self.take(".")
        self.bound.extend(binders)
        body = self.term()
        del self.bound[len(self.bound) - len(binders) :]
        return absn(binders, body)

    def conj(self) -> Term:
        left = self.application()
        while self.peek() == "&":
            self.take()
            right = self.application()
            left = App(App(Const("and"), left), right)
        return left

    def application(self) -> Term:
        parts = [self.atom()]
        while (tok := self.peek()) is not None and (tok == "(" or tok == "\\" or _IDENT_RE.fullmatch(tok)):
            if tok == "\\":
                # a lambda swallows the rest; it can only be the last argument
                raise LFSyntaxError("parenthesize lambda arguments")
            parts.append(self.atom())
        return app(parts[0], *parts[1:])

    def atom(self) -> Term:
        tok = self.take()
        if tok == "(":
            inner = self.term()
            self.take(")")
            return inner
        if not _IDENT_RE.fullmatch(tok):
            raise LFSyntaxError(f"unexpected {tok!r} in logical form")
        subs: tuple[Term, ...] = ()
        if self.peek() == "_":
            self.take()
            subs = self.subscript()
        if tok in self.bound:
            if subs:
                raise LFSyntaxError(f"subscript on bound variable {tok!r}; subscripts attach to constants")
            return Var(tok)
        return Const(tok, subs)

    def subscript(self) -> tuple[Term, ...]:
        if self.peek() == "{":
            self.take()
            terms = [self.term()]
            while self.peek() == ",":
                self.take()
                terms.append(self.term())
            self.take("}")
            return tuple(terms)
        name = self.take()
        if not _IDENT_RE.fullmatch(name):
            raise LFSyntaxError(f"bad subscript {name!r}")
        return (Var(name) if name in self.bound else Const(name),)


def parse_term(text: str) -> Term:
    """Read the ASCII logical-form syntax.

    ``\\x\\y. body`` abstracts, juxtaposition applies left-associatively,
    ``&`` is infix conjunction at lowest precedence, and ``_{...}`` (or
    ``_x`` for a lone identifier) attaches contingency subscripts to the
    preceding constant.  Identifiers bound by an enclosing lambda are
    variables; all others are constants.
    """
    parser = _LFParser(_lex_lf(text))
    t = parser.term()
    if parser.peek() is not None:
        raise LFSyntaxError(f"trailing material in logical form {text!r}")
    return t


def _is_conj(t: Term) -> bool:
    return (
        isinstance(t, App)
        and isinstance(t.fun, App)
        and isinstance(t.fun.fun, Const)
        and t.fun.fun.name == "and"
        and not t.fun.fun.contingencies
    )


def _pp(t: Term, level: int) -> str:
    match t:
        case Var(name):
            return name
        case Const(name, cs):
            if not cs:
                return name
            return name + "_{" + ", ".join(_pp(c, _LEVEL_TOP) for c in cs) + "}"
        case Abs(_, _):
            binders: list[str] = []
            body = t
            while isinstance(body, Abs):
                binders.append(body.var)
                body = body.body
            text = "".join("\\" + b for b in binders) + ". " + _pp(body, _LEVEL_TOP)
            return f"({text})" if level > _LEVEL_TOP else text
        case App(f, a):
            if _is_conj(t):
                left = _pp(t.fun.arg, _LEVEL_CONJ)
                right = _pp(a, _LEVEL_APP)
                text = f"{left} & {right}"
                return f"({text})" if level > _LEVEL_CONJ else text
            text = f"{_pp(f, _LEVEL_APP)} {_pp(a, _LEVEL_ATOM)}"
            return f"({text})" if level > _LEVEL_APP else text
    raise TypeError(f"not a term: {t!r}")


def pretty_print(t: Term) -> str:
    """Deterministic linear rendering; round-trips through parse_term."""
    return _pp(t, _LEVEL_TOP)

"""Logical-form queries and reference reducers used only by the tests.

The idiom-head queries let the acceptance tests tell idiomatic readings
from literal ones.  ``reference_alpha_key`` spells alpha equivalence as a
string, the oracle for the library's ``alpha_key``, and
``reference_fingerprint`` is the oracle for the hash each term node makes.
The property tests compare the library's one-pass normal-order
``beta_normalize`` against two step-at-a-time reducers: the
leftmost-outermost one below, which must make the same contractions and
so give the same term, and an applicative-order one, which must agree up
to alpha equivalence.
"""

import functools

from ccgparse import logical_form as lf
from ccgparse.logical_form import Abs, App, Const, Term, Var, fresh_name, spine

#: Logical-form heads that mark a reading as idiomatic in the shipped
#: grammar's test corpus.
IDIOM_HEADS = frozenset({"die", "divulge", "smalltalk", "omniway", "revulse", "pass"})


def app(fun: Term, *args: Term) -> Term:
    """fun applied to each of args in turn."""
    return functools.reduce(App, args, fun)


def reference_substitute(t: Term, v: str, s: Term) -> Term:
    """Capture-avoiding substitution, rebuilding every node on the way."""
    match t:
        case Var(name):
            return s if name == v else t
        case Const(name, cs):
            return Const(name, tuple(reference_substitute(c, v, s) for c in cs))
        case App(f, a):
            return App(reference_substitute(f, v, s), reference_substitute(a, v, s))
        case Abs(x, body):
            if x == v:
                return t
            if x in s.free and v in body.free:
                x2 = fresh_name(x, s.free | body.free)
                body = reference_substitute(body, x, Var(x2))
                return Abs(x2, reference_substitute(body, v, s))
            return Abs(x, reference_substitute(body, v, s))
    raise TypeError(f"not a term: {t!r}")


def reference_alpha_key(t: Term, bound: tuple[str, ...] = ()) -> str:
    """The canonical string that exactly the terms alpha-equivalent to t
    share: a bound variable by its de Bruijn index, ``b0`` for the nearest
    binder, a free one as ``f:name``, a constant as ``c:name`` with its
    subscripts' strings in braces.  ``bound`` holds the names that
    enclosing lambdas bind, outermost first."""
    match t:
        case Var(name):
            return f"b{bound[::-1].index(name)}" if name in bound else "f:" + name
        case Const(name, cs):
            return "c:" + name + ("{" + ",".join(reference_alpha_key(c, bound) for c in cs) + "}" if cs else "")
        case App(f, a):
            return f"({reference_alpha_key(f, bound)} {reference_alpha_key(a, bound)})"
        case Abs(v, body):
            return f"(\\{reference_alpha_key(body, bound + (v,))})"
    raise TypeError(f"not a term: {t!r}")


def reference_fingerprint(t: Term) -> int:
    """The fingerprint of t by a plain walk, the oracle for the one each
    node makes when it is made: every variable hashes alike, a constant by
    its name and subscripts' fingerprints, and any other node by its tag and
    its children's fingerprints."""
    match t:
        case Var():
            return lf._FP_VAR
        case Const(name, cs):
            return hash((name, *(reference_fingerprint(c) for c in cs)))
        case App(f, a):
            return hash((lf._FP_APP, reference_fingerprint(f), reference_fingerprint(a)))
        case Abs(_, body):
            return hash((lf._FP_ABS, reference_fingerprint(body)))
    raise TypeError(f"not a term: {t!r}")


def _step_normal(t: Term) -> Term | None:
    """One leftmost-outermost reduction, or None if t is normal."""
    match t:
        case App(Abs(v, body), a):
            return reference_substitute(body, v, a)
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


def has_redex(t: Term) -> bool:
    """Whether _step_normal would find a redex in t, without contracting it."""
    match t:
        case App(Abs(), _):
            return True
        case App(f, a):
            return has_redex(f) or has_redex(a)
        case Abs(_, body):
            return has_redex(body)
        case Const(_, cs):
            return any(has_redex(c) for c in cs)
        case _:
            return False


def small_step(t: Term) -> tuple[Term, int]:
    """Normal form in normal order, restarting the leftmost-outermost search
    from the root after each contraction, and the number of contractions.

    Only for terms that have a normal form.
    """
    steps = 0
    while (r := _step_normal(t)) is not None:
        t = r
        steps += 1
    return t, steps


def _step_applicative(t: Term) -> Term | None:
    """One rightmost-innermost reduction, or None if t is normal."""
    match t:
        case App(f, a):
            ra = _step_applicative(a)
            if ra is not None:
                return App(f, ra)
            rf = _step_applicative(f)
            if rf is not None:
                return App(rf, a)
            if isinstance(f, Abs):
                return reference_substitute(f.body, f.var, a)
            return None
        case Abs(v, body):
            rb = _step_applicative(body)
            return Abs(v, rb) if rb is not None else None
        case Const(name, cs):
            for i in range(len(cs) - 1, -1, -1):
                rc = _step_applicative(cs[i])
                if rc is not None:
                    return Const(name, cs[:i] + (rc,) + cs[i + 1 :])
            return None
        case _:
            return None


def applicative_normalize(t: Term, max_steps: int = lf.DEFAULT_STEP_BUDGET) -> Term:
    """Reduce to beta-normal form in applicative order (rightmost-innermost).

    Unlike normal order this may diverge on terms that have a normal form.
    Raises BudgetExceeded after max_steps reductions.
    """
    for _ in range(max_steps):
        r = _step_applicative(t)
        if r is None:
            return t
        t = r
    if _step_applicative(t) is None:
        return t
    raise lf.BudgetExceeded(f"no normal form within {max_steps} steps")


def constants(t: Term) -> frozenset[str]:
    """Names of all constants, including those inside subscripts."""
    match t:
        case Var(_):
            return frozenset()
        case Const(name, cs):
            out = frozenset({name})
            for c in cs:
                out |= constants(c)
            return out
        case Abs(_, body):
            return constants(body)
        case App(f, a):
            return constants(f) | constants(a)
    raise TypeError(f"not a term: {t!r}")


def has_subscripts(t: Term) -> bool:
    """Whether any constant in t carries contingency subscripts."""
    match t:
        case Const(_, cs):
            return bool(cs) or any(has_subscripts(c) for c in cs)
        case Abs(_, body):
            return has_subscripts(body)
        case App(f, a):
            return has_subscripts(f) or has_subscripts(a)
        case _:
            return False


def head_constants(t: Term) -> frozenset[str]:
    """Constants heading the predicate spine, looking through conjunction.

    Leading abstractions are stripped; a binary ``and`` contributes the
    heads of both conjuncts.
    """
    while isinstance(t, Abs):
        t = t.body
    head, args = spine(t)
    if isinstance(head, Const):
        if head.name == "and" and len(args) == 2:
            return head_constants(args[0]) | head_constants(args[1])
        return frozenset({head.name})
    return frozenset()


def applies_to(t: Term, fun_name: str, arg_name: str) -> bool:
    """Whether some subterm applies constant fun_name to constant arg_name."""
    match t:
        case App(_, _):
            head, args = spine(t)
            if (
                isinstance(head, Const)
                and head.name == fun_name
                and any(isinstance(a, Const) and a.name == arg_name for a in args)
            ):
                return True
            return applies_to(t.fun, fun_name, arg_name) or applies_to(t.arg, fun_name, arg_name)
        case Abs(_, body):
            return applies_to(body, fun_name, arg_name)
        case Const(_, cs):
            return any(applies_to(c, fun_name, arg_name) for c in cs)
        case _:
            return False

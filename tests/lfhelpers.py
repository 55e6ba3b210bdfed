"""Logical-form queries and a second reducer used only by the tests.

The idiom-head queries let the acceptance tests tell idiomatic readings
from literal ones; the applicative-order reducer is what the property
tests compare the library's normal-order ``beta_normalize`` against.
"""

from ccgparse import logical_form as lf
from ccgparse.logical_form import Abs, App, Const, Term, Var, spine, substitute

#: Logical-form heads that mark a reading as idiomatic in the shipped
#: grammar's test corpus.
IDIOM_HEADS = frozenset({"die", "divulge", "smalltalk", "omniway", "revulse", "pass"})


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
                return substitute(f.body, f.var, a)
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

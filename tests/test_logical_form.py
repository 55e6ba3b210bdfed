import functools

import pytest
from hypothesis import given, settings, strategies as st

from ccgparse import logical_form as lf
import lfhelpers as lfh
from genterms import sample

p = lf.parse_term


# ---------------------------------------------------------------------------
# substitution

def test_substitute_into_subscript():
    t = p(r"\x\y. die_{x} y")
    body = t.body.body  # die_{x} y with x and y bound above
    out = lf.substitute(body, "x", lf.Const("bucketsense"))
    assert out == lf.App(lf.Const("die", (lf.Const("bucketsense"),)), lf.Var("y"))
    assert lf.pretty_print(out) == "die_{bucketsense} y"


def test_substitute_free_occurrence():
    t = lf.Abs("y", lf.app(lf.Const("hit"), lf.Var("x"), lf.Var("y")))
    out = lf.substitute(t, "x", lf.Const("h"))
    assert lf.alpha_eq(out, p(r"\y. hit h y"))


def test_substitute_bound_occurrences_untouched():
    t = lf.Abs("x", lf.App(lf.Const("p"), lf.Var("x")))
    assert lf.substitute(t, "x", lf.Const("q")) == t


def test_substitute_avoids_capture():
    # substituting a term whose free y would be captured forces a rename
    t = lf.Abs("y", lf.App(lf.Var("x"), lf.Var("y")))
    out = lf.substitute(t, "x", lf.Var("y"))
    assert isinstance(out, lf.Abs) and out.var != "y"
    assert lf.alpha_eq(out, lf.Abs("z", lf.App(lf.Var("y"), lf.Var("z"))))


@given(st.sampled_from(sample(97, 40)))
def test_substitute_identity(pair):
    term, free = pair
    for name in free or ["x"]:
        assert lf.alpha_eq(lf.substitute(term, name, lf.Var(name)), term)


# ---------------------------------------------------------------------------
# normalization

def test_identity_reduction():
    assert lf.beta_normalize(lf.App(p(r"\x. x"), lf.Const("a"))) == lf.Const("a")


def test_persuade_reduction():
    fun = p(r"\x\p\y. persuade (p x) x y")
    term = lf.app(fun, lf.Const("m"), p(r"\y. hit h y"), lf.Const("j"))
    assert lf.alpha_eq(lf.beta_normalize(term), p("persuade (hit h m) m j"))


def test_particle_reduction():
    verb = p(r"\y\x\z. cause (init (hold_{x} y z)) z")
    up = p(r"\x\p\y. up (p y) x")
    term = lf.app(verb, p("def book"), up, lf.Const("i"))
    expected = p(r"cause (init (hold_{\x\p\y. up (p y) x} (def book) i)) i")
    assert lf.alpha_eq(lf.beta_normalize(term), expected)


def test_reduction_inside_subscripts():
    term = lf.Const("die", (lf.App(p(r"\x. x"), lf.Const("here")),))
    assert lf.beta_normalize(term) == lf.Const("die", (lf.Const("here"),))


def test_budget_exceeded():
    omega = lf.Abs("x", lf.App(lf.Var("x"), lf.Var("x")))
    with pytest.raises(lf.BudgetExceeded):
        lf.beta_normalize(lf.App(omega, omega), max_steps=50)


def test_divergence_exhausts_the_default_budget():
    omega = lf.Abs("x", lf.App(lf.Var("x"), lf.Var("x")))
    with pytest.raises(lf.BudgetExceeded, match="within 10000 steps"):
        lf.beta_normalize(lf.App(omega, omega))


def test_a_spine_that_grows_with_each_contraction_exhausts_the_budget():
    triple = p(r"\x. x x x")
    with pytest.raises(lf.BudgetExceeded, match="within 10000 steps"):
        lf.beta_normalize(lf.App(triple, triple))


def test_a_long_normal_spine_comes_back_as_the_same_object():
    args = [lf.Const(f"a{i}") for i in range(3000)]
    term = lf.app(lf.Const("f"), *args)
    assert lf.beta_normalize(term) is term
    assert lf.beta_normalize(lf.App(p(r"\x. x"), term)) is term  # substitution walks the spine in a loop
    args[5] = lf.App(p(r"\x. x"), args[5])
    assert lf.spine(lf.beta_normalize(lf.app(lf.Const("f"), *args))) == lf.spine(term)  # == itself recurses


def test_normal_subterms_are_shared():
    normal = p(r"\x. die_{def bucket} (hit x)")
    assert lf.beta_normalize(normal) is normal
    out = lf.beta_normalize(lf.app(lf.Const("f"), normal, lf.App(p(r"\x. x"), lf.Const("a"))))
    assert out.fun.arg is normal
    assert lf.substitute(normal, "y", lf.Const("q")) is normal


def test_normal_order_finds_normal_form_where_applicative_diverges():
    omega = lf.App(lf.Abs("x", lf.App(lf.Var("x"), lf.Var("x"))), lf.Abs("x", lf.App(lf.Var("x"), lf.Var("x"))))
    k = lf.Abs("a", lf.Abs("b", lf.Var("a")))
    term = lf.app(k, lf.Const("ok"), omega)
    assert lf.beta_normalize(term, max_steps=100) == lf.Const("ok")
    with pytest.raises(lf.BudgetExceeded):
        lfh.applicative_normalize(term, max_steps=100)


# ---------------------------------------------------------------------------
# alpha equivalence

def test_alpha_eq_bound_rename():
    assert lf.alpha_eq(p(r"\x. die_{x} y"), p(r"\z. die_{z} y"))


def test_alpha_eq_subscript_presence_matters():
    assert not lf.alpha_eq(p("die_{x} y"), p("die y"))


def test_alpha_eq_distinct_constants():
    assert not lf.alpha_eq(p(r"\x. p x"), p(r"\x. q x"))


# strings produced before the single-pass alpha_key; Chart.add packs readings by them
ALPHA_KEYS = [
    (p(r"\x. \x. x"), "(\\(\\b0))"),
    (lf.Abs("x", lf.App(lf.Abs("x", lf.Var("x")), lf.Var("x"))), "(\\((\\b0) b0))"),
    (lf.App(lf.Abs("x", lf.App(lf.Const("g"), lf.Var("x"))), lf.Var("x")), "((\\(c:g b0)) f:x)"),
    (lf.Abs("y", lf.Const("die", (lf.Var("x"), lf.Var("y")))), "(\\c:die{f:x,b0})"),
    (p(r"\x\y. die_{x, f y} y"), "(\\(\\(c:die{b1,(c:f b0)} b0)))"),
    (
        p(r"\i. cause (init (hold_{\x\p\y. up (p y) x} (def book) i)) i"),
        "(\\((c:cause (c:init ((c:hold{(\\(\\(\\((c:up (b1 b0)) b2))))} (c:def c:book)) b0))) b0))",
    ),
    (p(r"\x\y. pick x y & choose x y"), "(\\(\\((c:and ((c:pick b1) b0)) ((c:choose b1) b0))))"),
    (p(r"\x\y\z. x (y z) z"), "(\\(\\(\\((b2 (b1 b0)) b0))))"),
]


@pytest.mark.parametrize("term, key", ALPHA_KEYS, ids=[lf.pretty_print(t) for t, _ in ALPHA_KEYS])
def test_alpha_key_strings(term, key):
    assert lf.alpha_key(term) == key


def test_alpha_key_agrees_with_alpha_eq():
    a, b = p(r"\x\y. f x (g y)"), p(r"\u\v. f u (g v)")
    assert lf.alpha_key(a) == lf.alpha_key(b)
    assert lf.alpha_key(a) != lf.alpha_key(p(r"\x\y. f y (g x)"))


# ---------------------------------------------------------------------------
# printing and reading

def test_print_left_associative_application():
    t = lf.app(lf.Const("persuade"), p("hit h m"), lf.Const("m"), lf.Const("j"))
    assert lf.pretty_print(t) == "persuade (hit h m) m j"


def test_print_subscript():
    t = lf.App(lf.Const("die", (lf.Var("x"),)), lf.Var("y"))
    assert lf.pretty_print(t) == "die_{x} y"


def test_print_abstraction():
    assert lf.pretty_print(lf.Abs("x", lf.Var("x"))) == r"\x. x"


def test_print_conjunction_infix():
    t = p(r"\x\y. pick x y & choose x y")
    assert lf.pretty_print(t) == r"\x\y. pick x y & choose x y"


def test_reader_accepts_single_ident_subscript():
    assert p("die_x y") == lf.App(lf.Const("die", (lf.Const("x"),)), lf.Const("y"))
    assert lf.alpha_eq(p(r"\x\y. die_x y"), p(r"\x\y. die_{x} y"))


def test_reader_binding_discipline():
    t = p(r"\p. p j")
    assert t == lf.Abs("p", lf.App(lf.Var("p"), lf.Const("j")))


def test_reader_rejects_subscript_on_bound_variable():
    with pytest.raises(lf.LFSyntaxError):
        p(r"\s. s_{x}")


def test_reader_multiple_subscripts():
    t = p("f_{a, b} c")
    assert t == lf.App(lf.Const("f", (lf.Const("a"), lf.Const("b"))), lf.Const("c"))


@pytest.mark.parametrize(
    "text",
    [
        "persuade (hit h m) m j",
        r"\y\x\z. cause (init (hold_{x} y z)) z",
        r"cause (init (hold_{\x\p\y. up (p y) x} (def book) i)) i",
        r"pass_{thumbs} time_{self i} i & inalien poss thumbs i",
        r"\p\q\z. and (q z) (p z)",
        "a & b & c",
        "f (a & b)",
        r"(\x. x) y",
        r"\x. f x & g x",
    ],
)
def test_printer_fixpoint(text):
    once = lf.pretty_print(p(text))
    assert lf.pretty_print(p(once)) == once
    assert lf.alpha_eq(p(once), p(text))


def test_conjunction_reads_as_and_constant():
    assert p("a & b") == p("and a b")


# ---------------------------------------------------------------------------
# helpers used by the golden tests

def test_head_constants_sees_through_conjunction():
    t = p(r"pass_{thumbs} time_{self i} i & inalien poss thumbs i")
    assert lfh.head_constants(t) == {"pass", "inalien"}
    assert lfh.head_constants(p(r"\y. smalltalk_{x} one y")) == {"smalltalk"}


def test_applies_to():
    t = p(r"def (rel (\x. divulge_{x} secret you) beans)")
    assert lfh.applies_to(t, "divulge", "secret")
    assert not lfh.applies_to(t, "divulge", "beans")


def test_has_subscripts():
    assert lfh.has_subscripts(p("die_{def bucket} j"))
    assert not lfh.has_subscripts(p("kick (def bucket) j"))


# ---------------------------------------------------------------------------
# strategy agreement and variable hygiene on generated terms

# binder names that collide with each other and with the free u0, so that
# substitution has to rename binders to avoid capture
COLLAPSED_NAMES = ("x", "y", "u0")


def collapse_binders(t: lf.Term, env: dict[str, str] | None = None) -> lf.Term:
    """An alpha-equivalent term whose binders reuse COLLAPSED_NAMES."""
    env = env or {}
    match t:
        case lf.Var(name):
            return lf.Var(env.get(name, name))
        case lf.Const(name, cs):
            return lf.Const(name, tuple(collapse_binders(c, env) for c in cs))
        case lf.App(f, a):
            return lf.App(collapse_binders(f, env), collapse_binders(a, env))
        case lf.Abs(v, body):
            taken = {env.get(n, n) for n in lf.free_vars(t)}
            name = next(n for n in COLLAPSED_NAMES + (v,) if n not in taken)
            return lf.Abs(name, collapse_binders(body, {**env, v: name}))
    raise TypeError(f"not a term: {t!r}")


# capture-avoiding renames, and a divergent argument that normal order drops
HAND_CASES = [
    lf.App(p(r"\x\y. x y"), lf.Var("y")),
    lf.app(p(r"\x\y\y'. x y y'"), lf.Var("y"), lf.Var("y'")),
    lf.App(p(r"\f. \x. f (f x)"), p(r"\y. \x. hit x y")),
    lf.App(lf.Abs("x", lf.Abs("u0", lf.Const("die", (lf.Var("x"), lf.Var("u0"))))), lf.Var("u0")),
    lf.app(p(r"\a\b. a"), lf.Const("ok"), lf.App(p(r"\x. x x"), p(r"\x. x x"))),
]


@pytest.mark.parametrize("term", HAND_CASES, ids=lf.pretty_print)
def test_one_pass_reducer_matches_small_steps_on_hand_cases(term):
    assert lf.beta_normalize(term) == lfh.small_step(term)[0]


@functools.cache
def generated_terms():
    """The 6000 generated terms that the reducer tests share."""
    return sample(5151, 6000, depth=7)


def test_one_pass_reducer_makes_the_small_step_contractions():
    """Same term by ==, binder names included, and the budget runs out at
    the same contraction, on 6000 generated terms and their binder-collapsed
    variants."""
    renamed = 0
    for i, (generated, _) in enumerate(generated_terms()):
        for term in (generated, collapse_binders(generated)):
            expected, steps = lfh.small_step(term)
            assert lf.beta_normalize(term) == expected, f"term {i}: {lf.pretty_print(term)}"
            assert lf.beta_normalize(term, max_steps=steps) == expected, f"term {i}: {lf.pretty_print(term)}"
            if steps:
                with pytest.raises(lf.BudgetExceeded):
                    lf.beta_normalize(term, max_steps=steps - 1)
            renamed += "'" in lf.pretty_print(expected)
    assert renamed > 0  # fresh_name primes a binder it renames


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sample(4242, 150)))
def test_strategies_agree_on_generated_terms(pair):
    term, _ = pair
    normal = lf.beta_normalize(term)
    applicative = lfh.applicative_normalize(term)
    assert lf.alpha_eq(normal, applicative)
    assert lf.free_vars(normal) <= lf.free_vars(term)


# ---------------------------------------------------------------------------
# facts each term node computes once

def plain_free_vars(t: lf.Term, memo: dict[int, frozenset[str]]) -> frozenset[str]:
    """The free variables of t by a plain walk; memo holds those of the nodes already walked, by id."""
    if id(t) not in memo:
        match t:
            case lf.Var(name):
                found = frozenset({name})
            case lf.Const(_, cs):
                found = frozenset().union(*(plain_free_vars(c, memo) for c in cs))
            case lf.Abs(v, body):
                found = plain_free_vars(body, memo) - {v}
            case lf.App(f, a):
                found = plain_free_vars(f, memo) | plain_free_vars(a, memo)
        memo[id(t)] = found
    return memo[id(t)]


def rebuilt(t: lf.Term) -> lf.Term:
    """A copy of t made of new nodes, none of which keeps a key."""
    match t:
        case lf.Var(name):
            return lf.Var(name)
        case lf.Const(name, cs):
            return lf.Const(name, tuple(map(rebuilt, cs)))
        case lf.Abs(v, body):
            return lf.Abs(v, rebuilt(body))
        case lf.App(f, a):
            return lf.App(rebuilt(f), rebuilt(a))
    raise TypeError(f"not a term: {t!r}")


def subterms(t: lf.Term, seen: set[int]):
    """The subterms of t, each node once, leaving out nodes whose ids are in seen."""
    todo = [t]
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        yield t
        match t:
            case lf.Const(_, cs):
                todo.extend(cs)
            case lf.Abs(_, body):
                todo.append(body)
            case lf.App(f, a):
                todo += (f, a)


def test_cached_term_facts_agree_with_plain_walks():
    """On every subterm of the generated terms, their binder-collapsed
    variants and the normal forms of both: the free variables, the normal
    flag, and the alpha key, which only a closed subterm keeps, made after
    those of its subterms so that it reuses theirs, against a rebuilt copy's."""
    generated = generated_terms() + sample(4242, 150) + sample(97, 40)
    for i, (term, _) in enumerate(generated):
        seen: set[int] = set()
        free: dict[int, frozenset[str]] = {}
        for top in (term, collapse_binders(term)):
            for t in (top, lf.beta_normalize(top)):
                for sub in reversed(list(subterms(t, seen))):  # each subterm after its own subterms
                    assert sub.free == plain_free_vars(sub, free), f"term {i}: {lf.pretty_print(sub)}"
                    assert sub.normal is not lfh.has_redex(sub), f"term {i}: {lf.pretty_print(sub)}"
                    key = lf.alpha_key(sub)
                    assert key == lf.alpha_key(rebuilt(sub)), f"term {i}: {lf.pretty_print(sub)}"
                    assert sub.key == (None if sub.free else key), f"term {i}: {lf.pretty_print(sub)}"

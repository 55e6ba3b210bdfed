import functools
import itertools

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
    t = lf.Abs("y", lfh.app(lf.Const("hit"), lf.Var("x"), lf.Var("y")))
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


def bound_names(t: lf.Term) -> set[str]:
    """The names that some abstraction in t binds."""
    match t:
        case lf.Abs(v, body):
            return {v} | bound_names(body)
        case lf.App(f, a):
            return bound_names(f) | bound_names(a)
        case lf.Const(_, cs):
            return set().union(*map(bound_names, cs))
    return set()


@given(st.sampled_from(sample(97, 200)))
def test_substitute_identity(pair):
    """A variable substituted for itself, free, bound or absent, gives back the term itself."""
    term, _ = pair
    for name in sorted(term.free) + sorted(bound_names(term)) + ["absent"]:
        assert lfh.reference_substitute(term, name, lf.Var(name)) == term  # binder names included
        assert lf.substitute(term, name, lf.Var(name)) is term


# ---------------------------------------------------------------------------
# normalization

def test_identity_reduction():
    assert lf.beta_normalize(lf.App(p(r"\x. x"), lf.Const("a"))) == lf.Const("a")


def test_persuade_reduction():
    fun = p(r"\x\p\y. persuade (p x) x y")
    term = lfh.app(fun, lf.Const("m"), p(r"\y. hit h y"), lf.Const("j"))
    assert lf.alpha_eq(lf.beta_normalize(term), p("persuade (hit h m) m j"))


def test_particle_reduction():
    verb = p(r"\y\x\z. cause (init (hold_{x} y z)) z")
    up = p(r"\x\p\y. up (p y) x")
    term = lfh.app(verb, p("def book"), up, lf.Const("i"))
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
    term = lfh.app(lf.Const("f"), *args)
    assert lf.beta_normalize(term) is term
    assert lf.beta_normalize(lf.App(p(r"\x. x"), term)) is term  # substitution walks the spine in a loop
    args[5] = lf.App(p(r"\x. x"), args[5])
    assert lf.spine(lf.beta_normalize(lfh.app(lf.Const("f"), *args))) == lf.spine(term)  # == itself recurses


def test_normal_subterms_are_shared():
    normal = p(r"\x. die_{def bucket} (hit x)")
    assert lf.beta_normalize(normal) is normal
    out = lf.beta_normalize(lfh.app(lf.Const("f"), normal, lf.App(p(r"\x. x"), lf.Const("a"))))
    assert out.fun.arg is normal
    assert lf.substitute(normal, "y", lf.Const("q")) is normal


def test_normal_order_finds_normal_form_where_applicative_diverges():
    omega = lf.App(lf.Abs("x", lf.App(lf.Var("x"), lf.Var("x"))), lf.Abs("x", lf.App(lf.Var("x"), lf.Var("x"))))
    k = lf.Abs("a", lf.Abs("b", lf.Var("a")))
    term = lfh.app(k, lf.Const("ok"), omega)
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


# canonical strings of alpha equivalence, as lfhelpers.reference_alpha_key spells them;
# alpha_key must partition terms as they do
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
    """The reference spells each pinned string, and alpha_key equality over the pinned
    terms and their binder-renamed copies partitions them as the strings do."""
    assert lfh.reference_alpha_key(term) == key
    for t in (term, renamed_apart(term, {}, (f"w{i}" for i in itertools.count()))):
        for other, other_key in ALPHA_KEYS:
            for o in (other, renamed_apart(other, {}, (f"v{i}" for i in itertools.count()))):
                assert (lf.alpha_key(t) == lf.alpha_key(o)) is (key == other_key)


def test_a_shared_subterm_with_free_variables_is_walked_under_its_binders():
    body = lfh.app(lf.Const("g"), lf.Var("x"), lf.Var("y"))  # one object under both binder orders
    assert lf.alpha_key(lf.absn(["x", "y"], body)) != lf.alpha_key(lf.absn(["y", "x"], body))
    assert lf.alpha_key(lf.absn(["x", "y"], body)) == lf.alpha_key(p(r"\u\v. g u v"))
    assert lf.alpha_key(body) != lf.alpha_key(lfh.app(lf.Const("g"), lf.Var("y"), lf.Var("x")))  # free ones by name


def test_alpha_key_agrees_with_alpha_eq():
    a, b = p(r"\x\y. f x (g y)"), p(r"\u\v. f u (g v)")
    assert lf.alpha_key(a) == lf.alpha_key(b)
    assert lf.alpha_key(a) != lf.alpha_key(p(r"\x\y. f y (g x)"))


# ---------------------------------------------------------------------------
# printing and reading

def test_print_left_associative_application():
    t = lfh.app(lf.Const("persuade"), p("hit h m"), lf.Const("m"), lf.Const("j"))
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
            taken = {env.get(n, n) for n in t.free}
            name = next(n for n in COLLAPSED_NAMES + (v,) if n not in taken)
            return lf.Abs(name, collapse_binders(body, {**env, v: name}))
    raise TypeError(f"not a term: {t!r}")


# capture-avoiding renames, and a divergent argument that normal order drops
HAND_CASES = [
    lf.App(p(r"\x\y. x y"), lf.Var("y")),
    lfh.app(p(r"\x\y\y'. x y y'"), lf.Var("y"), lf.Var("y'")),
    lf.App(p(r"\f. \x. f (f x)"), p(r"\y. \x. hit x y")),
    lf.App(lf.Abs("x", lf.Abs("u0", lf.Const("die", (lf.Var("x"), lf.Var("u0"))))), lf.Var("u0")),
    lfh.app(p(r"\a\b. a"), lf.Const("ok"), lf.App(p(r"\x. x x"), p(r"\x. x x"))),
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
    assert normal.free <= term.free


# ---------------------------------------------------------------------------
# fingerprints

def renamed_apart(t: lf.Term, names: dict[str, str], fresh) -> lf.Term:
    """A copy of t made of new nodes whose every binder takes the next name of fresh;
    names maps each name bound in scope to its new one."""
    match t:
        case lf.Var(name):
            return lf.Var(names.get(name, name))
        case lf.Const(name, cs):
            return lf.Const(name, tuple(renamed_apart(c, names, fresh) for c in cs))
        case lf.Abs(v, body):
            new = next(fresh)
            return lf.Abs(new, renamed_apart(body, {**names, v: new}, fresh))
        case lf.App(f, a):
            return lf.App(renamed_apart(f, names, fresh), renamed_apart(a, names, fresh))
    raise TypeError(f"not a term: {t!r}")


@given(st.sampled_from(sample(3141, 200)))
def test_alpha_equivalent_terms_share_a_fingerprint(pair):
    term, _ = pair
    for t in (term, lf.beta_normalize(term)):
        copy = renamed_apart(t, {}, (f"w{i}" for i in itertools.count()))  # generated names are u and v ones
        assert (copy == t) is not bound_names(t) and lf.alpha_eq(copy, t)
        assert copy.fp == t.fp


def to_nearest_binder(t: lf.Term, scope: tuple[str, ...] = ()) -> lf.Term:
    """t with each bound variable renamed to the nearest binder's name: the same
    fingerprint, and mostly another alpha class; scope holds the names bound, outermost first."""
    match t:
        case lf.Var(name):
            return lf.Var(scope[-1]) if name in scope else t
        case lf.Const(name, cs):
            return lf.Const(name, tuple(to_nearest_binder(c, scope) for c in cs))
        case lf.Abs(v, body):
            return lf.Abs(v, to_nearest_binder(body, scope + (v,)))
        case lf.App(f, a):
            return lf.App(to_nearest_binder(f, scope), to_nearest_binder(a, scope))
    raise TypeError(f"not a term: {t!r}")


@given(st.lists(st.sampled_from(sample(2718, 200)), min_size=1, max_size=4))
def test_alpha_keys_are_equal_exactly_when_the_reference_strings_are(pairs):
    """On generated terms, their binder-collapsed variants, variants whose variables
    point at the nearest binder (equal fingerprints, other alpha classes) and the
    normal forms of all three: keys hash by fingerprint and compare as the strings
    do, and so does the walk that settles equal fingerprints."""
    terms = []
    for term, _ in pairs:
        for variant in (term, collapse_binders(term), to_nearest_binder(term)):
            terms += [variant, lf.beta_normalize(variant)]
    keys = [lf.alpha_key(t) for t in terms]
    strings = [lfh.reference_alpha_key(t) for t in terms]
    for t, key in zip(terms, keys):
        assert hash(key) == t.fp
        assert (key == "x") is False and (key != "x") is True
    for t, key, text in zip(terms, keys, strings):
        for o, other, other_text in zip(terms, keys, strings):
            assert (key == other) is (text == other_text), (text, other_text)
            assert lf._same(t, o, 0, {}, {}) is (text == other_text), (text, other_text)  # the walk alone, without the hash


def test_a_fingerprint_reads_constants_but_no_variable_name():
    assert p(r"\x\y. r x y").fp == p(r"\x\y. r y x").fp
    assert p("r a").fp != p("r b").fp


def test_hashing_and_keying_a_deep_term_walk_nothing():
    """Each node makes its fingerprint from its children's when it is made, so
    a term of any depth hashes and keys in one step, with no RecursionError."""
    t = lf.Const("a")
    for _ in range(100_000):
        t = lf.App(t, lf.Const("b"))
    assert hash(t) == t.fp
    assert hash(lf.alpha_key(t)) == t.fp
    assert lf.alpha_eq(t, t)


def test_equality_of_a_deep_term_walks_with_its_own_stack():
    """== walks two terms of any depth without RecursionError; every variable
    fingerprints alike, so a difference at the bottom is found only there."""
    s, t, u = lf.Var("x"), lf.Var("x"), lf.Var("y")
    for _ in range(100_000):
        s, t, u = (lf.App(lf.Abs("x", e), lf.Const("b")) for e in (s, t, u))
    assert s == t and s is not t
    assert s != u and s.fp == u.fp


def reference_equal(s: lf.Term, t: lf.Term) -> bool:
    """== as a frozen dataclass spells it, by a plain recursive walk: the same
    class, and each field that ``__match_args__`` names equal."""
    if type(s) is not type(t):
        return False
    for a, b in zip(map(s.__getattribute__, s.__match_args__), map(t.__getattribute__, t.__match_args__)):
        if type(a) is tuple:
            if len(a) != len(b) or not all(map(reference_equal, a, b)):
                return False
        elif not (a == b if type(a) is str else reference_equal(a, b)):
            return False
    return True


@given(st.lists(st.sampled_from(sample(1618, 200)), min_size=1, max_size=4))
def test_term_equality_is_the_recursive_field_comparison(pairs):
    """On generated terms, renamed and binder-collapsed variants, fresh copies and
    normal forms, == and != agree with a plain comparison of the fields."""
    terms = []
    for term, _ in pairs:
        for t in (term, lf.beta_normalize(term)):
            terms += [t, rebuilt(t), to_nearest_binder(t), renamed_apart(t, {}, (f"w{i}" for i in itertools.count()))]
    for s in terms:
        for t in terms:
            assert (s == t) is reference_equal(s, t) is not (s != t)


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
    """A copy of t made of new nodes, each of which makes its facts afresh from its children's."""
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
    flag, the alpha key and the fingerprint, which each node makes from its
    children's when it is made, against plain walks and a rebuilt copy's."""
    generated = generated_terms() + sample(4242, 150) + sample(97, 40)
    for i, (term, _) in enumerate(generated):
        seen: set[int] = set()
        free: dict[int, frozenset[str]] = {}
        for top in (term, collapse_binders(term)):
            for t in (top, lf.beta_normalize(top)):
                for sub in reversed(list(subterms(t, seen))):  # each subterm after its own subterms
                    assert sub.free == plain_free_vars(sub, free), f"term {i}: {lf.pretty_print(sub)}"
                    assert sub.normal is not lfh.has_redex(sub), f"term {i}: {lf.pretty_print(sub)}"
                    assert lf.alpha_key(sub) == lf.alpha_key(rebuilt(sub)), f"term {i}: {lf.pretty_print(sub)}"
                    assert sub.fp == lfh.reference_fingerprint(sub) == rebuilt(sub).fp, f"term {i}: {lf.pretty_print(sub)}"

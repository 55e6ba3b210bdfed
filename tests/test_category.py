import pytest
from hypothesis import given, strategies as st

from ccgparse import category
from ccgparse.category import (
    EMPTY_SINGLETON,
    NON_STAR_SINGLETON_SLASH,
    SINGLETON_AS_RESULT,
    Atom,
    Bindings,
    CategorySyntaxError,
    CategoryTable,
    Direction,
    Functor,
    Modality,
    Singleton,
    Slash,
    Var,
    apply_bindings,
    category_key,
    category_parts,
    match_argument,
    parse_category,
    render_category,
    standardize,
    unify,
    validate_category,
)
from ccgparse.lexicon import BUILTIN_ATOMS, fold_strings
from ccgparse.parser import RULES, RuleId


def cat(text):
    return parse_category(text)


def singleton(text):
    return Singleton(tuple(text.split()))


# ---------------------------------------------------------------------------
# unify

def test_underspecified_feature_unifies():
    bnd = unify(cat("NP[agr=3s]"), cat("NP"))
    assert bnd is not None
    assert bnd == {}


def test_special_clash_fails():
    assert unify(cat("S/NP[special=+, head=beans]"), cat("S/NP[special=-]")) is None


def test_variable_binds_category():
    bnd = unify(Var("X"), cat(r"S\NP"))
    assert bnd is not None
    assert bnd[Var("X")] == cat(r"S\NP")


def test_singleton_token_equality():
    assert unify(singleton("the bucket"), singleton("the bucket")) is not None
    assert unify(singleton("the bucket"), singleton("the beans")) is None


def test_functor_needs_equal_modality_and_direction():
    assert unify(cat("S/NP"), cat("S/*NP")) is None
    assert unify(cat("S/NP"), cat(r"S\NP")) is None


def test_feature_variable_binds_constant():
    bnd = unify(cat("NP[head=?h]"), cat("NP[head=beans]"))
    assert bnd is not None
    assert bnd["?h"] == "beans"


def test_feature_variables_alias():
    bnd = unify(cat("NP[head=?a]"), cat("NP[head=?b]"))
    assert bnd is not None
    a = apply_bindings(cat("NP[head=?a]"), bnd)
    b = apply_bindings(cat("NP[head=?b]"), bnd)
    assert category_key(a) == category_key(b)


def test_occurs_check():
    assert unify(Var("X"), Functor(cat("S"), Slash(Direction.FORWARD), Var("X"))) is None


def test_atom_vs_functor_fails():
    assert unify(cat("NP"), cat("NP/N")) is None
    assert unify(cat("NP"), singleton("the bucket")) is None


def test_unify_extends_the_bindings_it_is_given():
    bnd = Bindings()
    assert unify(cat("NP[head=?h]"), cat("NP[head=beans]"), bnd) is bnd
    assert bnd["?h"] == "beans"


def test_bindings_apply_is_idempotent():
    bnd = unify(cat("NP[head=?a]"), cat("NP[head=?b]"))
    bnd = unify(cat("NP[head=?b]"), cat("NP[head=beans]"), bnd)
    assert bnd is not None
    once = apply_bindings(cat("NP[head=?a]"), bnd)
    assert apply_bindings(once, bnd) == once
    assert once == cat("NP[head=beans]")


def test_apply_bindings_walks_a_bound_variable_before_substituting_inside_it():
    bnd = unify(Var("X"), cat("NP[head=?h]"))
    bnd = unify(cat("NP[head=?h]"), cat("NP[head=beans]"), bnd)
    assert apply_bindings(cat("S/X"), bnd) == cat("S/NP[head=beans]")


def test_feature_constant_and_category_variable_of_one_name_stay_apart():
    # the feature constant X is a string, the category variable X a Var
    bnd = unify(cat("S[f=?v]/X"), cat("S[f=X]/NP"))
    assert bnd is not None
    assert apply_bindings(cat("S[f=?v]/X"), bnd) == cat("S[f=X]/NP")
    assert unify(cat("X/S[f=X]"), cat("NP/S[f=X]")) is not None
    assert unify(cat("X/S[f=X]"), cat("NP/S[f=Y]")) is None


# ---------------------------------------------------------------------------
# match_argument

PARTICLE = r"((S\NP)\(S\NP))/NP"


def test_singleton_match_ignores_category():
    spec = singleton("up")
    assert match_argument(spec, cat(PARTICLE), ("up",), {}) is not None
    assert match_argument(spec, cat("NP"), ("up",), {}) is not None


def test_singleton_match_requires_exact_tokens():
    spec = singleton("the bucket")
    assert match_argument(spec, cat("NP"), ("the", "blue", "bucket"), {}) is None
    assert match_argument(spec, cat("NP"), ("the", "bucket"), {}) is not None


def test_head_marked_polyvalent_match():
    spec = cat("NP[head=beans]")
    words = ("the", "beans", "no", "one", "cares", "about")
    assert match_argument(spec, cat("NP[head=beans]"), words, {}) is not None


def test_computed_features_checked_via_oracle():
    spec = cat("NP[weight=-]")
    edge_cat = cat("NP[head=book]")
    assert match_argument(spec, edge_cat, ("the", "book"), {"weight": "-"}) is not None
    assert match_argument(spec, edge_cat, ("the", "book"), {"weight": "+"}) is None


# (spec, edge category, computed values, whether they match)
COMPUTED_ROWS = [
    # the edge category does not carry lexc; only the computed value counts
    ("NP[lexc=+, head=book]", "NP[head=book]", {"lexc": "+"}, True),
    ("NP[lexc=+, head=book]", "NP[head=book]", {"lexc": "-"}, False),
    # an attribute not named in computed unifies structurally
    ("NP[weight=-]", "NP[weight=+]", {}, False),
    ("NP[weight=-]", "NP[weight=-]", {}, True),
    # a named attribute is checked against computed alone, never the edge's value
    ("NP[weight=-]", "NP[weight=+]", {"weight": "-"}, True),
    ("NP[weight=-]", "NP[weight=-]", {"weight": "+"}, False),
    ("NP[weight=?w, head=?w]", "NP[head=+]", {"weight": "-"}, False),
    ("NP[weight=?w, head=?w]", "NP[head=-]", {"weight": "-"}, True),
]


def test_computed_feature_never_unified_structurally():
    for spec, edge_cat, computed, matches in COMPUTED_ROWS:
        matched = match_argument(cat(spec), cat(edge_cat), ("the", "book"), computed)
        assert (matched is not None) is matches, (spec, edge_cat, computed)


# ---------------------------------------------------------------------------
# validate_category

def test_validate_good_idiom_category():
    assert validate_category(cat(r'(S\NP)/*"the bucket"'), BUILTIN_ATOMS, []) == []


def test_validate_singleton_as_result():
    codes = [v.code for v in validate_category(cat('"up"/NP'), BUILTIN_ATOMS, [])]
    assert codes == [SINGLETON_AS_RESULT]


def test_validate_non_star_singleton_slash():
    codes = [v.code for v in validate_category(cat(r'(S\NP)/"the bucket"'), BUILTIN_ATOMS, [])]
    assert codes == [NON_STAR_SINGLETON_SLASH]


def test_validate_empty_singleton():
    codes = [v.code for v in validate_category(Functor(cat("S"), Slash(Direction.FORWARD, Modality.STAR), Singleton(())), BUILTIN_ATOMS, [])]
    assert EMPTY_SINGLETON in codes


def test_validate_trivial_identity_functor_rejected():
    codes = [v.code for v in validate_category(parse_category('"up"/*"up"'), BUILTIN_ATOMS, [])]
    assert SINGLETON_AS_RESULT in codes


def test_validate_singleton_as_argument_of_result_is_fine():
    assert validate_category(cat(r'(VP/*"the breeze")/PredP'), BUILTIN_ATOMS, []) == []


def test_bare_singleton_entry_category_is_fine():
    assert validate_category(singleton("every which way"), BUILTIN_ATOMS, []) == []


def test_validate_lists_violations_in_pre_order():
    # a functor's own violations, then its result's, then its argument's
    violations = validate_category(cat('(("up"/NP)/"down")/(S/"x")'), BUILTIN_ATOMS, [])
    assert [str(v) for v in violations] == [
        'NON_STAR_SINGLETON_SLASH: ("up"/NP)/"down" must use an application-only slash on its string argument',
        'SINGLETON_AS_RESULT: "up"/NP puts a string category in result position',
        'NON_STAR_SINGLETON_SLASH: S/"x" must use an application-only slash on its string argument',
    ]


def test_validate_lists_string_placement_then_undeclared_atoms_then_misplaced_computed_features():
    c = cat(r'(("up"/NP[weight=+])/Zed)/(Foo[lexc=+]\S[weight=-])')
    assert [str(v) for v in validate_category(c, BUILTIN_ATOMS, [])] == [
        'SINGLETON_AS_RESULT: "up"/NP[weight=+] puts a string category in result position',
        # by name, though Zed comes first in pre-order
        "UNDECLARED_ATOM: category symbol 'Foo' is not declared",
        "UNDECLARED_ATOM: category symbol 'Zed' is not declared",
        "MISPLACED_COMPUTED_FEATURE: computed weight on NP[weight=+]",
        "MISPLACED_COMPUTED_FEATURE: computed lexc on Foo[lexc=+]",
        "MISPLACED_COMPUTED_FEATURE: computed weight on S[weight=-]",
    ]
    # a slot may carry a computed feature; the slots are parts of c itself, not parts equal to them
    foo = c.argument.result
    assert [str(v) for v in validate_category(c, BUILTIN_ATOMS | {"Foo", "Zed"}, [foo, Atom("S", (("weight", "-"),))])] == [
        'SINGLETON_AS_RESULT: "up"/NP[weight=+] puts a string category in result position',
        "MISPLACED_COMPUTED_FEATURE: computed weight on NP[weight=+]",
        "MISPLACED_COMPUTED_FEATURE: computed weight on S[weight=-]",
    ]


# ---------------------------------------------------------------------------
# modality gating

@pytest.mark.parametrize(
    "rule,modality,expected",
    [
        (RuleId.FWD_APP, Modality.STAR, True),
        (RuleId.FWD_APP, Modality.DIAMOND, True),
        (RuleId.FWD_APP, Modality.CROSS, True),
        (RuleId.FWD_APP, Modality.DOT, True),
        (RuleId.BWD_APP, Modality.STAR, True),
        (RuleId.FWD_COMP_HARMONIC, Modality.STAR, False),
        (RuleId.FWD_COMP_HARMONIC, Modality.DIAMOND, True),
        (RuleId.FWD_COMP_HARMONIC, Modality.CROSS, False),
        (RuleId.FWD_COMP_HARMONIC, Modality.DOT, True),
        (RuleId.BWD_COMP_HARMONIC, Modality.DIAMOND, True),
        (RuleId.FWD_COMP_CROSSING, Modality.DIAMOND, False),
        (RuleId.FWD_COMP_CROSSING, Modality.CROSS, True),
        (RuleId.FWD_COMP_CROSSING, Modality.DOT, True),
        (RuleId.BWD_COMP_CROSSING, Modality.STAR, False),
        (RuleId.FWD_SUBST, Modality.DIAMOND, True),
        (RuleId.FWD_SUBST, Modality.STAR, False),
        (RuleId.FWD_SUBST, Modality.CROSS, False),
        (RuleId.BWD_SUBST, Modality.DOT, True),
    ],
)
def test_modality_admits(rule, modality, expected):
    (row,) = [row for row in RULES if row is rule]
    assert (modality in row.admits) is expected


# ---------------------------------------------------------------------------
# syntax round trip

ROUND_TRIP = [
    "S",
    "NP[agr=3s]",
    r"(S\NP[agr=3s])/NP",
    r'(S\NP)/*"up"/NP[weight=-]',
    r'(S\NP)/*"the bucket"',
    r"(X\*X)/*X",
    "NP[head=?h]/N[head=?h]",
    r"(S\NP)/x (S\NP)",
    r"S/.NP",
    '"every which way"',
    r"((S\NP)/VP[form=toinf])/NP[special=-]",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_render_parse_round_trip(text):
    c = parse_category(text)
    assert parse_category(render_category(c)) == c


@pytest.mark.parametrize(
    "text, message",
    [
        ("NP/?x", "unexpected '?x' in category"),
        ("?X", "unexpected '?X' in category"),
        ("NP[?a=b]", "expected word, found '?a'"),
        ("NP[a=b, ?c=d]", "expected word, found '?c'"),
    ],
)
def test_feature_variable_only_as_feature_value(text, message):
    with pytest.raises(CategorySyntaxError) as exc:
        parse_category(text)
    assert str(exc.value) == message
    assert cat("NP[a=?b]") == Atom("NP", (("a", "?b"),))


@pytest.mark.parametrize(
    "text, message",
    [
        ("/", "unexpected '/' in category"),
        (r"NP/\x", r"unexpected '\\x' in category"),
        ("NP[a=/]", "bad feature value '/'"),
        ('NP[a="up"]', "bad feature value '\"up\"'"),
        ("NP[a/*b]", "expected '=', found '/*'"),
        ("(S/NP]", "expected ')', found ']'"),
        ("NP[]", "expected word, found ']'"),
    ],
)
def test_syntax_errors_name_the_token_text(text, message):
    with pytest.raises(CategorySyntaxError) as exc:
        parse_category(text)
    assert str(exc.value) == message


def test_left_associative_slashes():
    assert parse_category("A/B/C") == parse_category("(A/B)/C")
    assert parse_category(r"S\NP/NP") == parse_category(r"(S\NP)/NP")


def test_default_modality_configurable():
    c = parse_category("S/NP", default_modality=Modality.STAR)
    assert isinstance(c, Functor) and c.slash.modality is Modality.STAR


def test_standardize_keeps_entry_internal_coreference():
    c = cat("NP[head=?h]/N[head=?h]")
    renamed, count = standardize(c, "r")
    assert isinstance(renamed, Functor) and count == 1
    assert dict(renamed.result.features)["head"] == dict(renamed.argument.features)["head"] == "?h#r0"
    assert category_key(renamed) == category_key(c)
    # categories equal up to a renaming that keeps display names standardize to one value, and again to the same
    seeded = Functor(Atom("NP", (("head", "?h#5"),)), c.slash, Atom("N", (("head", "?h#5"),)))
    assert standardize(seeded)[0] == standardize(c)[0] == standardize(standardize(c)[0])[0]
    two, count = standardize(cat("NP[head=?h]/N[head=?g]"))
    assert render_category(two, str) == "NP[head=?h#0]/N[head=?g#1]" and count == 2
    assert standardize(cat("NP[head=b]/N"))[1] == 0


def test_category_key_numbers_feature_and_category_variables_together():
    c = cat(r"((X\NP[agr=?a])/Y)/(Y/N[agr=?a, head=?h])")
    expected = r"((V0\NP[agr=?v1])/V2)/(V2/N[agr=?v1, head=?v3])"
    assert category_key(c) == expected
    assert category_key(standardize(c, "r")[0]) == expected
    assert category_key(cat(r"((Y\NP[agr=?b])/X)/(X/N[agr=?b, head=?z])")) == expected
    assert render_category(standardize(c, "r")[0]) == render_category(c)


# ---------------------------------------------------------------------------
# the category table

def test_interning_a_value_equal_to_an_interned_category_standardizes_nothing(monkeypatch):
    table = CategoryTable()
    first = table.intern(cat("NP[head=?h]/N[head=?h]"))
    again = standardize(cat("NP[head=?h]/N[head=?h]"))[0]  # an equal value, another object
    assert again == first and again is not first
    calls = []
    monkeypatch.setattr(category, "standardize", lambda *args: calls.append(args) or standardize(*args))
    assert table.intern(again) is first and calls == []
    # a value equal to it only once standardized is standardized first
    assert table.intern(cat("NP[head=?h]/N[head=?h]")) is first and len(calls) == 1


@pytest.mark.parametrize("text, closed", [("NP[head=?h]/N[head=?h]", False), ("NP[head=b]/N", True)])
def test_intern_hands_out_no_category_before_its_key_is_stored(text, closed):
    table = CategoryTable()
    c = standardize(cat(text))[0]
    table.categories[c] = c  # what another thread's intern leaves between its two writes
    assert table.intern(standardize(cat(text))[0]) is c
    assert table.category_keys[id(c)] == category_key(c)
    assert (id(c) in table.closed) is closed


# ---------------------------------------------------------------------------
# properties

_features = st.fixed_dictionaries(
    {},
    optional={
        "agr": st.sampled_from(["3s", "2s", "1s", "?a", "?b"]),
        "head": st.sampled_from(["beans", "bucket", "?h"]),
        "special": st.sampled_from(["+", "-"]),
    },
)

_atoms = st.builds(lambda n, f: Atom(n, tuple(sorted(f.items()))), st.sampled_from(["S", "NP", "N", "VP"]), _features)
_slash = st.builds(Slash, st.sampled_from(list(Direction)), st.sampled_from(list(Modality)))
_leaves = st.one_of(
    _atoms,
    st.sampled_from([singleton("the bucket"), singleton("up"), Var("X"), Var("Y")]),
)
_categories = st.recursive(_leaves, lambda inner: st.builds(Functor, inner, _slash, inner), max_leaves=6)


@given(_categories, _categories)
def test_unify_is_symmetric(a, b):
    ab = unify(a, b)
    ba = unify(b, a)
    assert (ab is None) == (ba is None)
    if ab is not None:
        # the binding sets do not depend on argument order
        assert category_key(apply_bindings(a, ab)) == category_key(apply_bindings(a, ba))
        assert category_key(apply_bindings(b, ab)) == category_key(apply_bindings(b, ba))
        # the two instantiations stay compatible; absent attributes are
        # wildcards, so one side may remain less specific than the other
        assert unify(apply_bindings(a, ab), apply_bindings(b, ab)) is not None


@given(_categories, _categories)
def test_unify_instances_are_idempotent(a, b):
    bnd = unify(a, b)
    if bnd is not None:
        inst = apply_bindings(a, bnd)
        assert apply_bindings(inst, bnd) == inst


def assert_pairs_sorted_and_unique(c):
    for part in category_parts(c):
        if isinstance(part, Atom):
            attrs = [a for a, _ in part.features]
            assert list(attrs) == sorted(set(attrs)), render_category(part)


# each atom's features written in any order
_feature_orders = _features.flatmap(lambda f: st.permutations(list(f.items())))
_atom_texts = st.builds(
    lambda n, pairs: n + ("[" + ", ".join(f"{a}={v}" for a, v in pairs) + "]" if pairs else ""),
    st.sampled_from(["S", "NP", "N"]),
    _feature_orders,
)


@given(st.lists(_atom_texts, min_size=1, max_size=4), _feature_orders, _categories, _categories)
def test_feature_pairs_come_out_sorted_and_unique(atom_texts, pairs, a, b):
    # an Atom takes its pairs as given, so every way of making one must sort them
    c = parse_category("/".join(atom_texts))
    assert_pairs_sorted_and_unique(c)
    assert_pairs_sorted_and_unique(standardize(c, "r")[0])
    assert_pairs_sorted_and_unique(cat(render_category(Atom("NP", tuple(pairs)))))
    bnd = unify(a, b)
    if bnd is not None:
        assert_pairs_sorted_and_unique(apply_bindings(a, bnd))
        assert_pairs_sorted_and_unique(apply_bindings(b, bnd))


# few names and one slash, so that unifications succeed and bind in chains
_linked = st.recursive(
    st.one_of(
        st.builds(lambda v: Atom("NP", (("agr", v),)), st.sampled_from(["?a", "?b", "?c", "?d", "3s"])),
        st.sampled_from([Var("X"), Var("Y"), Var("Z")]),
    ),
    lambda inner: st.builds(Functor, inner, st.just(Slash(Direction.FORWARD)), inner),
    max_leaves=4,
)


@given(st.lists(st.tuples(_linked, _linked), max_size=6))
def test_walks_through_shared_bindings_end(pairs):
    # the walks have no cycle guard: unification never binds a bound variable
    bnd = Bindings()
    for a, b in pairs:
        unify(a, b, bnd)  # a failed attempt may leave some of its bindings
    for key in bnd:
        value, steps = key, 0
        while isinstance(value, (str, Var)) and value in bnd:
            value, steps = bnd[value], steps + 1
            assert steps <= len(bnd)


_cased = st.recursive(
    st.one_of(_leaves, st.builds(Singleton, st.lists(st.sampled_from(["The", "BUCKET", "up"]), min_size=1).map(tuple))),
    lambda inner: st.builds(Functor, inner, _slash, inner),
    max_leaves=6,
)


@given(_cased)
def test_fold_strings_is_idempotent_and_folds_only_strings(c):
    folded = fold_strings(c)
    assert fold_strings(folded) == folded
    for before, after in zip(category_parts(c), category_parts(folded), strict=True):
        if isinstance(before, Singleton):
            assert after == Singleton(tuple(t.lower() for t in before.tokens))
        elif isinstance(before, Functor):
            assert isinstance(after, Functor) and after.slash == before.slash
        else:
            assert after == before


@given(_categories)
def test_wellformed_means_star_singleton_arguments(c):
    # its own atoms and every part as a slot: only string placement can make it ill-formed
    parts = list(category_parts(c))
    if validate_category(c, {p.name for p in parts if type(p) is Atom}, parts):
        return

    def check(c):
        if isinstance(c, Functor):
            assert not isinstance(c.result, Singleton)
            if isinstance(c.argument, Singleton):
                assert c.slash.modality is Modality.STAR
            check(c.result)
            check(c.argument)

    check(c)


@given(st.sampled_from([cat(PARTICLE), cat("NP"), cat("S/NP"), Var("X")]))
def test_singleton_match_is_category_blind(edge_cat):
    spec = singleton("every which way")
    assert match_argument(spec, edge_cat, ("every", "which", "way"), {}) is not None

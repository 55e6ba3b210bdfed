from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from ccgparse.category import (
    EMPTY_SINGLETON,
    NON_STAR_SINGLETON_SLASH,
    SINGLETON_AS_RESULT,
    Atom,
    Direction,
    FeatureBundle,
    Functor,
    Modality,
    Singleton,
    Slash,
    Var,
    apply_bindings,
    category_key,
    match_argument,
    parse_category,
    render_category,
    rename_variables,
    singleton,
    unify,
    validate_category,
)
from ccgparse.parser import RULES, RuleId


@dataclass(frozen=True)
class StubEdge:
    tokens: tuple[str, ...]
    category: object


def cat(text):
    return parse_category(text)


# ---------------------------------------------------------------------------
# unify

def test_underspecified_feature_unifies():
    bnd = unify(cat("NP[agr=3s]"), cat("NP"))
    assert bnd is not None
    assert bnd.feats == {} and bnd.cats == {}


def test_special_clash_fails():
    assert unify(cat("S/NP[special=+, head=beans]"), cat("S/NP[special=-]")) is None


def test_variable_binds_category():
    bnd = unify(Var("X"), cat(r"S\NP"))
    assert bnd is not None
    assert bnd.cats["X"] == cat(r"S\NP")


def test_singleton_token_equality():
    assert unify(singleton("the bucket"), singleton("the bucket")) is not None
    assert unify(singleton("the bucket"), singleton("the beans")) is None


def test_functor_needs_equal_modality_and_direction():
    assert unify(cat("S/NP"), cat("S/*NP")) is None
    assert unify(cat("S/NP"), cat(r"S\NP")) is None


def test_feature_variable_binds_constant():
    bnd = unify(cat("NP[head=?h]"), cat("NP[head=beans]"))
    assert bnd is not None
    assert bnd.walk_feature("?h") == "beans"


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


def test_bindings_apply_is_idempotent():
    bnd = unify(cat("NP[head=?a]"), cat("NP[head=?b]"))
    bnd = unify(cat("NP[head=?b]"), cat("NP[head=beans]"), bnd)
    assert bnd is not None
    once = apply_bindings(cat("NP[head=?a]"), bnd)
    assert apply_bindings(once, bnd) == once
    assert once == cat("NP[head=beans]")


# ---------------------------------------------------------------------------
# match_argument

PARTICLE = r"((S\NP)\(S\NP))/NP"


def test_singleton_match_ignores_category():
    spec = singleton("up")
    assert match_argument(spec, StubEdge(("up",), cat(PARTICLE))) is not None
    assert match_argument(spec, StubEdge(("up",), cat("NP"))) is not None


def test_singleton_match_requires_exact_tokens():
    spec = singleton("the bucket")
    assert match_argument(spec, StubEdge(("the", "blue", "bucket"), cat("NP"))) is None
    assert match_argument(spec, StubEdge(("the", "bucket"), cat("NP"))) is not None


def test_head_marked_polyvalent_match():
    spec = cat("NP[head=beans]")
    edge = StubEdge(("the", "beans", "no", "one", "cares", "about"), cat("NP[head=beans]"))
    assert match_argument(spec, edge) is not None


def test_computed_features_checked_via_oracle():
    spec = cat("NP[weight=-]")
    edge = StubEdge(("the", "book"), cat("NP[head=book]"))
    assert match_argument(spec, edge, derived=lambda attr: "-") is not None
    assert match_argument(spec, edge, derived=lambda attr: "+") is None
    with pytest.raises(ValueError):
        match_argument(spec, edge)


def test_computed_feature_never_unified_structurally():
    # the edge category does not carry weight; only the oracle value counts
    spec = cat("NP[lexc=+, head=book]")
    edge = StubEdge(("the", "book"), cat("NP[head=book]"))
    assert match_argument(spec, edge, derived=lambda attr: "+") is not None
    assert match_argument(spec, edge, derived=lambda attr: "-") is None


# ---------------------------------------------------------------------------
# validate_category

def test_validate_good_idiom_category():
    assert validate_category(cat(r'(S\NP)/*"the bucket"')) == []


def test_validate_singleton_as_result():
    codes = [v.code for v in validate_category(cat('"up"/NP'))]
    assert codes == [SINGLETON_AS_RESULT]


def test_validate_non_star_singleton_slash():
    codes = [v.code for v in validate_category(cat(r'(S\NP)/"the bucket"'))]
    assert codes == [NON_STAR_SINGLETON_SLASH]


def test_validate_empty_singleton():
    codes = [v.code for v in validate_category(Functor(cat("S"), Slash(Direction.FORWARD, Modality.STAR), Singleton(())))]
    assert EMPTY_SINGLETON in codes


def test_validate_trivial_identity_functor_rejected():
    codes = [v.code for v in validate_category(parse_category('"up"/*"up"'))]
    assert SINGLETON_AS_RESULT in codes


def test_validate_singleton_as_argument_of_result_is_fine():
    assert validate_category(cat(r'(VP/*"the breeze")/PredP')) == []


def test_bare_singleton_entry_category_is_fine():
    assert validate_category(singleton("every which way")) == []


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
    (row,) = [row for row in RULES if row.rule is rule]
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


def test_left_associative_slashes():
    assert parse_category("A/B/C") == parse_category("(A/B)/C")
    assert parse_category(r"S\NP/NP") == parse_category(r"(S\NP)/NP")


def test_default_modality_configurable():
    c = parse_category("S/NP", default_modality=Modality.STAR)
    assert isinstance(c, Functor) and c.slash.modality is Modality.STAR


def test_rename_variables_keeps_entry_internal_coreference():
    c = cat("NP[head=?h]/N[head=?h]")
    renamed = rename_variables(c, "7")
    assert isinstance(renamed, Functor)
    assert renamed.result.features.get("head") == renamed.argument.features.get("head")
    assert renamed.result.features.get("head") != "?h"
    assert category_key(renamed) == category_key(c)


def test_category_key_numbers_feature_and_category_variables_together():
    c = cat(r"((X\NP[agr=?a])/Y)/(Y/N[agr=?a, head=?h])")
    expected = r"((V0\NP[agr=?v1])/V2)/(V2/N[agr=?v1, head=?v3])"
    assert category_key(c) == expected
    assert category_key(rename_variables(c, "4")) == expected
    assert category_key(cat(r"((Y\NP[agr=?b])/X)/(X/N[agr=?b, head=?z])")) == expected
    assert render_category(rename_variables(c, "4")) == render_category(c)


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

_atoms = st.builds(lambda n, f: Atom(n, FeatureBundle.of(**f)), st.sampled_from(["S", "NP", "N", "VP"]), _features)
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


@given(_categories)
def test_wellformed_means_star_singleton_arguments(c):
    if validate_category(c):
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
    edge = StubEdge(("every", "which", "way"), edge_cat)
    assert match_argument(spec, edge) is not None

import pytest

from ccgparse import logical_form as lf
from ccgparse.category import (
    Functor,
    parse_category,
    render_category,
)
from ccgparse.lexicon import MARKER_LEXC_PLUS, parse_lexicon, tokenize
from ccgparse.parser import (
    RULES,
    Edge,
    ParseSettings,
    RuleId,
    SentenceTooLongError,
    UnknownTokenError,
    build_chart,
    combine,
    derived_feature,
    parse,
    seed_edges,
)

from bruteforce import enumerate_readings


def load(text):
    lex, issues = parse_lexicon(text)
    assert not [i for i in issues if i.severity == "error"], issues
    return lex


def lex_edge(lex, token_seq, start=0):
    edges = seed_edges(lex, token_seq, False)
    spans = [e for e in edges if e.start == start]
    assert spans, f"no lexical edge at {start}"
    return spans[0]


def edge_for(text, category, term_text, start=0):
    tokens = tuple(text.split())
    return Edge(start, start + len(tokens), tokens, parse_category(category), lf.parse_term(term_text))


# ---------------------------------------------------------------------------
# combine: application

def test_forward_application_persuaded_mary():
    left = edge_for("persuaded", r"((S\NP)/VP[form=toinf])/NP", r"\x\p\y. persuade (p x) x y")
    right = edge_for("Mary", "NP", "m", start=1)
    (result,) = combine(left, right)
    assert result.rule is RuleId.FWD_APP
    assert result.category == parse_category(r"(S\NP)/VP[form=toinf]")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\p\y. persuade (p m) m y"))
    assert lf.alpha_eq(lf.beta_normalize(result.lf), result.lf)


def test_singleton_application_through_ordinary_rule():
    kicked = edge_for("kicked", r'(S\NP)/*"the bucket"', r"\x\y. die_{x} y")
    bucket_np = edge_for("the bucket", "NP[head=bucket]", "def bucket", start=1)
    (result,) = combine(kicked, bucket_np)
    assert result.rule is RuleId.FWD_APP
    assert result.category == parse_category(r"S\NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\y. die_{def bucket} y"))


def test_backward_singleton_application():
    alpha = edge_for("held", r'(S\NP)\*"it"', r"\x\y. grasp_{x} y", start=1)
    it = edge_for("it", "NP", "it")
    (result,) = combine(it, alpha)
    assert result.rule is RuleId.BWD_APP
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\y. grasp_{it} y"))


def test_star_blocks_composition_into_idiom():
    you = edge_for("you", r"S/(S\NP[agr=2s])", r"\p. p you")
    kicked = edge_for("kicked", r'(S\NP)/*"the bucket"', r"\x\y. die_{x} y", start=1)
    assert combine(you, kicked) == []


def test_unlike_coordinands_do_not_conjoin():
    # the coordination schema has already consumed the literal right conjunct
    partial = edge_for("and Mary cooked", r"(S/NP[special=-])\*(S/NP[special=-])", r"\q\z. and (q z) (cook z m)", start=1)
    idiomatic = edge_for("You spilled", "S/NP[head=beans, special=+]", r"\x. divulge_{x} secret you")
    literal = edge_for("You spilled", "S/NP[special=-]", r"\x. spill x you")
    assert combine(idiomatic, partial) == []
    assert [e.rule for e in combine(literal, partial)] == [RuleId.BWD_APP]


def test_harmonic_composition():
    you = edge_for("you", r"S/(S\NP[agr=2s])", r"\p. p you")
    spilled = edge_for("spilled", r"(S\NP)/NP[head=beans, special=+]", r"\x\y. divulge_{x} secret y", start=1)
    (result,) = combine(you, spilled)
    assert result.rule is RuleId.FWD_COMP_HARMONIC
    assert result.category == parse_category("S/NP[head=beans, special=+]")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. divulge_{x} secret you"))


def test_backward_harmonic_composition():
    f = edge_for("b", r"S\VP", r"\v. done v", start=1)
    g = edge_for("a", r"VP\NP", r"\x\y. eat x y")
    results = [e for e in combine(g, f) if e.rule is RuleId.BWD_COMP_HARMONIC]
    (result,) = results
    assert result.category == parse_category(r"S\NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. done (\y. eat x y)"))


def test_crossing_composition_needs_cross_modality():
    f = edge_for("f", "S/x VP", r"\v. soon v")
    g = edge_for("g", r"VP\x NP", r"\x\y. eat x y", start=1)
    (result,) = combine(f, g)
    assert result.rule is RuleId.FWD_COMP_CROSSING
    assert result.category == parse_category(r"S\x NP")
    f_harmonic = edge_for("f", "S/VP", r"\v. soon v")
    g_harmonic = edge_for("g", r"VP\NP", r"\x\y. eat x y", start=1)
    assert combine(f_harmonic, g_harmonic) == []


def test_backward_crossing_composition():
    g = edge_for("g", "VP/.NP", r"\x\y. eat x y")
    f = edge_for("f", r"S\.VP", r"\v. soon v", start=1)
    results = [e for e in combine(g, f) if e.rule is RuleId.BWD_COMP_CROSSING]
    (result,) = results
    assert result.category == parse_category("S/.NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. soon (\y. eat x y)"))


def test_forward_substitution():
    f = edge_for("f", "(S/PP)/NP", r"\z\y. claim z y")
    g = edge_for("g", "PP/NP", r"\x. near x", start=1)
    results = [e for e in combine(f, g) if e.rule is RuleId.FWD_SUBST]
    (result,) = results
    assert result.category == parse_category("S/NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. claim x (near x)"))


def test_backward_substitution():
    g = edge_for("g", r"PP\NP", r"\x. near x")
    f = edge_for("f", r"(S\PP)\NP", r"\z\y. claim z y", start=1)
    results = [e for e in combine(g, f) if e.rule is RuleId.BWD_SUBST]
    (result,) = results
    assert result.category == parse_category(r"S\NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. claim x (near x)"))


def test_substitution_blocked_on_star():
    f = edge_for("f", "(S/*PP)/NP", r"\z\y. claim z y")
    g = edge_for("g", "PP/NP", r"\x. near x", start=1)
    assert [e for e in combine(f, g) if e.rule is RuleId.FWD_SUBST] == []


def test_composition_cannot_discharge_computed_feature_slot():
    picked = edge_for("picked", r'(S\NP)/*"up"/NP[weight=-]', r"\y\x\z. cause (init (hold_{x} y z)) z")
    the = edge_for("the", "NP[head=?h]/N[head=?h]", r"\x. def x", start=1)
    assert combine(picked, the) == []


# One firing pair per rule; each gate case below changes one slash, slot or
# argument of it so that the gate alone must block the rule.
FIRING = {
    RuleId.FWD_COMP_HARMONIC: ("S/VP", "VP/NP"),
    RuleId.BWD_COMP_HARMONIC: (r"VP\NP", r"S\VP"),
    RuleId.FWD_SUBST: ("(S/PP)/NP", "PP/NP"),
    RuleId.BWD_SUBST: (r"PP\NP", r"(S\PP)\NP"),
}


@pytest.mark.parametrize(
    "gate, rule, left, right",
    [
        ("primary modality", RuleId.FWD_COMP_HARMONIC, "S/*VP", "VP/NP"),
        ("primary modality", RuleId.BWD_COMP_HARMONIC, r"VP\NP", r"S\*VP"),
        ("secondary modality", RuleId.FWD_COMP_HARMONIC, "S/VP", "VP/*NP"),
        ("secondary modality", RuleId.BWD_COMP_HARMONIC, r"VP\*NP", r"S\VP"),
        ("inner direction", RuleId.FWD_SUBST, r"(S\PP)/NP", "PP/NP"),
        ("inner direction", RuleId.BWD_SUBST, r"PP\NP", r"(S/PP)\NP"),
        ("inner modality", RuleId.FWD_SUBST, "(S/*PP)/NP", "PP/NP"),
        ("inner modality", RuleId.BWD_SUBST, r"PP\NP", r"(S\*PP)\NP"),
        ("computed slot", RuleId.FWD_COMP_HARMONIC, "S/VP[weight=-]", "VP/NP"),
        ("computed slot", RuleId.BWD_COMP_HARMONIC, r"VP\NP", r"S\VP[lexc=+]"),
        ("computed slot", RuleId.FWD_SUBST, "(S/PP[weight=-])/NP", "PP/NP"),
        ("computed slot", RuleId.BWD_SUBST, r"PP\NP", r"(S\PP[lexc=+])\NP"),
        ("argument unification", RuleId.FWD_SUBST, "(S/PP)/NP", "PP/N"),
        ("argument unification", RuleId.BWD_SUBST, r"PP\N", r"(S\PP)\NP"),
    ],
)
def test_rule_gate_blocks(gate, rule, left, right):
    def fired(left_cat, right_cat):
        edges = combine(edge_for("a", left_cat, "f"), edge_for("b", right_cat, "g", start=1))
        return rule in [e.rule for e in edges]

    assert fired(*FIRING[rule])
    assert not fired(left, right), gate


# ---------------------------------------------------------------------------
# derived features

def stub_chart_edge(fragment, text):
    tokens = tokenize(text)
    chart = build_chart(fragment, tokens)
    for e in chart.edges(0, len(tokens)):
        return e
    raise AssertionError(f"no edge over {text!r}")


def test_weight_from_span_length(fragment):
    edge = stub_chart_edge(fragment, "the book")
    assert derived_feature(edge, "weight", 4) == "-"
    seven = Edge(0, 7, tuple("a b c d e f g".split()), parse_category("NP"), lf.Const("x"))
    assert derived_feature(seven, "weight", 4) == "+"


def test_lexc_from_markers(fragment):
    assert derived_feature(stub_chart_edge(fragment, "my"), "lexc", 4) == "-"
    assert derived_feature(stub_chart_edge(fragment, "the book"), "lexc", 4) == "+"


def test_derived_feature_rejects_other_attrs(fragment):
    with pytest.raises(ValueError):
        derived_feature(stub_chart_edge(fragment, "my"), "agr", 4)


# ---------------------------------------------------------------------------
# whole parses

def test_unknown_token(fragment):
    with pytest.raises(UnknownTokenError) as info:
        parse(fragment, tokenize("John xyzzy"))
    assert info.value.tokens == ["xyzzy"]


def test_sentence_length_guard(fragment):
    settings = ParseSettings.from_lexicon(fragment, max_tokens=3)
    with pytest.raises(SentenceTooLongError):
        parse(fragment, tokenize("John persuaded Mary to hit Harry"), settings=settings)


def test_goal_filters_readings(fragment):
    tokens = tokenize("the bucket that you kicked")
    assert len(parse(fragment, tokens, parse_category("NP"))) == 1
    assert parse(fragment, tokens, parse_category("S")) == []


def test_packing_collapses_equivalent_derivations(fragment):
    tokens = tokenize("John persuaded Mary to hit Harry")
    packed = parse(fragment, tokens, parse_category("S"))
    assert len(packed) == 1
    settings = ParseSettings.from_lexicon(fragment, all_derivations=True)
    unpacked = parse(fragment, tokens, parse_category("S"), settings=settings)
    assert len(unpacked) > 1
    assert all(lf.alpha_eq(e.lf, packed[0].lf) for e in unpacked)


def test_multi_token_entries_seed_longer_spans(fragment):
    edges = seed_edges(fragment, tokenize("my team scored every which way"), False)
    spans = {(e.start, e.end) for e in edges}
    assert (3, 6) in spans


def test_singleton_needs_derived_constituent(fragment):
    # removing the lexical seed for "bucket" starves the idiom
    from ccgparse.lexicon import Lexicon

    entries = {
        first: [e for e in group if e.phon != ("bucket",)]
        for first, group in fragment.entries.items()
    }
    entries = {k: v for k, v in entries.items() if v}
    crippled = Lexicon(entries, fragment.atom_declarations, fragment.config)
    with pytest.raises(UnknownTokenError):
        parse(crippled, tokenize("John kicked the bucket"))


def test_singleton_span_must_be_a_constituent(fragment):
    # keep every token known but make "the bucket" underivable: the
    # string still matches the singleton, yet no edge covers the span
    from ccgparse.lexicon import LexEntry, Lexicon

    entries = {
        first: [e for e in group if e.phon != ("bucket",)]
        for first, group in fragment.entries.items()
    }
    entries["bucket"] = [
        LexEntry(("bucket",), parse_category("PP"), lf.Const("bucket"), frozenset(), 0)
    ]
    reshaped = Lexicon(entries, fragment.atom_declarations, fragment.config)
    edges = parse(reshaped, tokenize("John kicked the bucket"))
    assert edges == []


def leaf_entries(edge):
    if edge.entry is not None:
        yield edge.entry
    for child in edge.children:
        yield from leaf_entries(child)


def test_lexical_edges_record_entries(fragment):
    edge = stub_chart_edge(fragment, "the book")
    leaves = list(leaf_entries(edge))
    assert sorted(" ".join(e.phon) for e in leaves) == ["book", "the"]


# ---------------------------------------------------------------------------
# chart invariants

def corpus_charts(fragment, corpus):
    for sentence, _, _ in corpus:
        tokens = tokenize(sentence)
        try:
            yield build_chart(fragment, tokens)
        except UnknownTokenError:
            continue


def test_edges_are_beta_normal(fragment, corpus):
    for chart in corpus_charts(fragment, corpus):
        for edge in chart.all_edges():
            assert lf.alpha_eq(lf.beta_normalize(edge.lf), edge.lf)


def test_lexical_edges_are_beta_normal():
    # a redex in an entry is reduced at seeding, so both entries pack into one reading
    lex = load("w := NP : (\\x. f x) a ;\nw := NP : f a ;\n")
    (edge,) = parse(lex, ["w"])
    assert edge.lf == lf.parse_term("f a")


def test_no_composition_or_substitution_over_star(fragment, corpus):
    composing = {
        RuleId.FWD_COMP_HARMONIC,
        RuleId.BWD_COMP_HARMONIC,
        RuleId.FWD_COMP_CROSSING,
        RuleId.BWD_COMP_CROSSING,
        RuleId.FWD_SUBST,
        RuleId.BWD_SUBST,
    }
    seen = 0
    for chart in corpus_charts(fragment, corpus):
        for edge in chart.all_edges():
            if edge.rule not in composing:
                continue
            seen += 1
            for child in edge.children:
                cat = child.category
                if isinstance(cat, Functor):
                    (row,) = [row for row in RULES if row.rule is edge.rule]
                    assert cat.slash.modality in row.admits, render_category(cat)
    assert seen > 0


def test_edge_lexc_flags_a_lexc_plus_leaf(fragment, corpus):
    flagged = unflagged = 0
    for chart in corpus_charts(fragment, corpus):
        for edge in chart.all_edges():
            assert edge.lexc == any(MARKER_LEXC_PLUS in e.markers for e in leaf_entries(edge))
            flagged += edge.lexc
            unflagged += not edge.lexc
    assert flagged > 0 and unflagged > 0


def test_no_edge_category_has_singleton_result(fragment, corpus):
    from ccgparse.category import validate_category

    for chart in corpus_charts(fragment, corpus):
        for edge in chart.all_edges():
            assert not [v for v in validate_category(edge.category) if v.code == "SINGLETON_AS_RESULT"]


def test_cky_matches_bruteforce_on_short_sentences(fragment, corpus):
    checked = 0
    for sentence, _, _ in corpus:
        tokens = tokenize(sentence)
        if len(tokens) > 7:
            continue
        checked += 1
        chart = build_chart(fragment, tokens)
        cky = {e.reading_key() for e in chart.spanning()}
        assert cky == enumerate_readings(fragment, tokens), sentence
    assert checked >= 10

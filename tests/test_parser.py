import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import ccgparse

from ccgparse import logical_form as lf
from ccgparse import parser
from ccgparse.derivation import document
from ccgparse.category import (
    COMPUTED_ATTRS,
    Atom,
    Direction,
    Functor,
    Modality,
    Slash,
    parse_category,
    render_category,
)
from ccgparse.lexicon import Lexicon, case_folded, parse_lexicon, tokenize
from ccgparse.parser import (
    RULES,
    Chart,
    Edge,
    RuleId,
    SentenceTooLongError,
    UnknownTokenError,
    build_chart,
    chart_readings,
    combine,
    derived_features,
    parse,
    seed_edges,
)

from bruteforce import all_chart_edges, chart_edges, derivations, direct_category_steps, enumerate_readings, node_duplicates


def load(text):
    lex, issues = parse_lexicon(text)
    assert not [i for i in issues if i.severity == "error"], issues
    return lex


def chart_over(text):
    """An empty chart over the words of text, under an empty lexicon and the default step budget."""
    return Chart(Lexicon(), text.split(), lf.DEFAULT_STEP_BUDGET)


def edge_for(text, category, term_text, start=0):
    return Edge(start, start + len(text.split()), parse_category(category), lf.parse_term(term_text))


# ---------------------------------------------------------------------------
# combine: application

def test_forward_application_persuaded_mary():
    left = edge_for("persuaded", r"((S\NP)/VP[form=toinf])/NP", r"\x\p\y. persuade (p x) x y")
    right = edge_for("Mary", "NP", "m", start=1)
    (result,) = combine(left, right, chart_over("persuaded Mary"))
    assert result.rule is RuleId.FWD_APP
    assert result.category == parse_category(r"(S\NP)/VP[form=toinf]")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\p\y. persuade (p m) m y"))
    assert lf.alpha_eq(lf.beta_normalize(result.lf), result.lf)


def test_singleton_application_through_ordinary_rule():
    kicked = edge_for("kicked", r'(S\NP)/*"the bucket"', r"\x\y. die_{x} y")
    bucket_np = edge_for("the bucket", "NP[head=bucket]", "def bucket", start=1)
    (result,) = combine(kicked, bucket_np, chart_over("kicked the bucket"))
    assert result.rule is RuleId.FWD_APP
    assert result.category == parse_category(r"S\NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\y. die_{def bucket} y"))


def test_backward_singleton_application():
    alpha = edge_for("held", r'(S\NP)\*"it"', r"\x\y. grasp_{x} y", start=1)
    it = edge_for("it", "NP", "it")
    (result,) = combine(it, alpha, chart_over("it held"))
    assert result.rule is RuleId.BWD_APP
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\y. grasp_{it} y"))


def test_star_blocks_composition_into_idiom():
    you = edge_for("you", r"S/(S\NP[agr=2s])", r"\p. p you")
    kicked = edge_for("kicked", r'(S\NP)/*"the bucket"', r"\x\y. die_{x} y", start=1)
    assert combine(you, kicked, chart_over("you kicked")) == []


def test_unlike_coordinands_do_not_conjoin():
    # the coordination schema has already consumed the literal right conjunct
    partial = edge_for("and Mary cooked", r"(S/NP[special=-])\*(S/NP[special=-])", r"\q\z. and (q z) (cook z m)", start=1)
    idiomatic = edge_for("You spilled", "S/NP[head=beans, special=+]", r"\x. divulge_{x} secret you")
    literal = edge_for("You spilled", "S/NP[special=-]", r"\x. spill x you")
    chart = chart_over("You spilled and Mary cooked")
    assert combine(idiomatic, partial, chart) == []
    assert [e.rule for e in combine(literal, partial, chart)] == [RuleId.BWD_APP]


def test_harmonic_composition():
    you = edge_for("you", r"S/(S\NP[agr=2s])", r"\p. p you")
    spilled = edge_for("spilled", r"(S\NP)/NP[head=beans, special=+]", r"\x\y. divulge_{x} secret y", start=1)
    (result,) = combine(you, spilled, chart_over("you spilled"))
    assert result.rule is RuleId.FWD_COMP_HARMONIC
    assert result.category == parse_category("S/NP[head=beans, special=+]")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. divulge_{x} secret you"))


def test_backward_harmonic_composition():
    f = edge_for("b", r"S\VP", r"\v. done v", start=1)
    g = edge_for("a", r"VP\NP", r"\x\y. eat x y")
    results = [e for e in combine(g, f, chart_over("a b")) if e.rule is RuleId.BWD_COMP_HARMONIC]
    (result,) = results
    assert result.category == parse_category(r"S\NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. done (\y. eat x y)"))


def test_crossing_composition_needs_cross_modality():
    f = edge_for("f", "S/x VP", r"\v. soon v")
    g = edge_for("g", r"VP\x NP", r"\x\y. eat x y", start=1)
    chart = chart_over("f g")
    (result,) = combine(f, g, chart)
    assert result.rule is RuleId.FWD_COMP_CROSSING
    assert result.category == parse_category(r"S\x NP")
    f_harmonic = edge_for("f", "S/VP", r"\v. soon v")
    g_harmonic = edge_for("g", r"VP\NP", r"\x\y. eat x y", start=1)
    assert combine(f_harmonic, g_harmonic, chart) == []


def test_backward_crossing_composition():
    g = edge_for("g", "VP/.NP", r"\x\y. eat x y")
    f = edge_for("f", r"S\.VP", r"\v. soon v", start=1)
    results = [e for e in combine(g, f, chart_over("g f")) if e.rule is RuleId.BWD_COMP_CROSSING]
    (result,) = results
    assert result.category == parse_category("S/.NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. soon (\y. eat x y)"))


def test_forward_substitution():
    f = edge_for("f", "(S/PP)/NP", r"\z\y. claim z y")
    g = edge_for("g", "PP/NP", r"\x. near x", start=1)
    results = [e for e in combine(f, g, chart_over("f g")) if e.rule is RuleId.FWD_SUBST]
    (result,) = results
    assert result.category == parse_category("S/NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. claim x (near x)"))


def test_backward_substitution():
    g = edge_for("g", r"PP\NP", r"\x. near x")
    f = edge_for("f", r"(S\PP)\NP", r"\z\y. claim z y", start=1)
    results = [e for e in combine(g, f, chart_over("g f")) if e.rule is RuleId.BWD_SUBST]
    (result,) = results
    assert result.category == parse_category(r"S\NP")
    assert lf.alpha_eq(result.lf, lf.parse_term(r"\x. claim x (near x)"))


def test_substitution_blocked_on_star():
    f = edge_for("f", "(S/*PP)/NP", r"\z\y. claim z y")
    g = edge_for("g", "PP/NP", r"\x. near x", start=1)
    assert [e for e in combine(f, g, chart_over("f g")) if e.rule is RuleId.FWD_SUBST] == []


def test_composition_cannot_discharge_computed_feature_slot():
    picked = edge_for("picked", r'(S\NP)/*"up"/NP[weight=-]', r"\y\x\z. cause (init (hold_{x} y z)) z")
    the = edge_for("the", "NP[head=?h]/N[head=?h]", r"\x. def x", start=1)
    assert combine(picked, the, chart_over("picked the")) == []


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
        ("computed slot", RuleId.FWD_SUBST, "(S/PP)/NP[weight=-]", "PP/NP"),
        ("computed slot", RuleId.BWD_SUBST, r"PP\NP", r"(S\PP)\NP[lexc=+]"),
        ("argument unification", RuleId.FWD_SUBST, "(S/PP)/NP", "PP/N"),
        ("argument unification", RuleId.BWD_SUBST, r"PP\N", r"(S\PP)\NP"),
    ],
)
def test_rule_gate_blocks(gate, rule, left, right):
    def fired(left_cat, right_cat):
        edges = combine(edge_for("a", left_cat, "f"), edge_for("b", right_cat, "g", start=1), chart_over("a b"))
        return rule in [e.rule for e in edges]

    assert fired(*FIRING[rule])
    assert not fired(left, right), gate


# the primary slash a side of a pair offers: None for a category that is no functor
PRIMARY_SLASHES = [None] + [Slash(d, m) for d in Direction for m in Modality]


def test_a_memo_miss_tries_the_rows_whose_primary_gate_admits_the_pair_in_rule_order():
    """Every pair of primary slashes, against each row of RULES gated on a functor that carries
    the slash of the side its f_direction names."""
    assert len(parser._ROWS) == 81
    for left in PRIMARY_SLASHES:
        for right in PRIMARY_SLASHES:
            expected = []
            for row in RULES:
                slash = left if row.f_direction is Direction.FORWARD else right
                if slash is not None and parser._gated(Functor(Atom("S"), slash, Atom("NP")), row.f_direction, row.admits):
                    expected.append(row)
            assert parser._ROWS[left, right] == tuple(expected), (left, right)


# ---------------------------------------------------------------------------
# derived features

def stub_chart_edge(fragment, text):
    tokens = tokenize(text)
    chart = build_chart(fragment, tokens)
    for e in chart_edges(chart, 0, len(tokens)):
        return e
    raise AssertionError(f"no edge over {text!r}")


def test_weight_from_span_length(fragment):
    edge = stub_chart_edge(fragment, "the book")
    assert derived_features(edge, 4)["weight"] == "-"
    seven = Edge(0, 7, parse_category("NP"), lf.Const("x"))
    assert derived_features(seven, 4)["weight"] == "+"


def test_lexc_from_markers(fragment):
    assert derived_features(stub_chart_edge(fragment, "my"), 4)["lexc"] == "-"
    assert derived_features(stub_chart_edge(fragment, "the book"), 4)["lexc"] == "+"


def test_derived_features_are_the_computed_attrs(fragment):
    assert tuple(derived_features(stub_chart_edge(fragment, "my"), 4)) == COMPUTED_ATTRS


# ---------------------------------------------------------------------------
# whole parses

def test_unknown_token(fragment):
    with pytest.raises(UnknownTokenError) as info:
        parse(fragment, tokenize("John xyzzy"))
    assert info.value.tokens == ["xyzzy"]


def test_sentence_length_guard(fragment):
    with pytest.raises(SentenceTooLongError, match="^34 tokens exceeds the limit of 32$"):
        parse(fragment, ["John"] * 34)
    assert parse(fragment, ["John"] * 32) == []


def test_goal_filters_readings(fragment):
    tokens = tokenize("the bucket that you kicked")
    assert len(parse(fragment, tokens, parse_category("NP"))) == 1
    assert parse(fragment, tokens, parse_category("S")) == []
    assert parse(fragment, tokenize("the book"), parse_category("NP[weight=+]")) == []


def test_packing_collapses_equivalent_derivations(fragment):
    tokens = tokenize("John persuaded Mary to hit Harry")
    packed = parse(fragment, tokens, parse_category("S"))
    assert len(packed) == 1
    unpacked = chart_readings(build_chart(fragment, tokens), parse_category("S"), all_derivations=True)
    assert len(unpacked) > 1
    assert all(lf.alpha_eq(e.lf, packed[0].lf) for e in unpacked)


def test_multi_token_entries_seed_longer_spans(fragment):
    chart = Chart(fragment, tokenize("my team scored every which way"), lf.DEFAULT_STEP_BUDGET)
    edges = seed_edges(chart)
    spans = {(e.start, e.end) for e in edges}
    assert (3, 6) in spans


def test_singleton_needs_derived_constituent(fragment):
    # removing the lexical seed for "bucket" starves the idiom
    entries = {
        first: [e for e in group if e.phon != ("bucket",)]
        for first, group in fragment.entries.items()
    }
    entries = {k: v for k, v in entries.items() if v}
    crippled = fragment.copy(entries=entries)
    with pytest.raises(UnknownTokenError):
        parse(crippled, tokenize("John kicked the bucket"))


def test_singleton_span_must_be_a_constituent(fragment):
    # keep every token known but make "the bucket" underivable: the
    # string still matches the singleton, yet no edge covers the span
    from ccgparse.lexicon import LexEntry

    entries = {
        first: [e for e in group if e.phon != ("bucket",)]
        for first, group in fragment.entries.items()
    }
    entries["bucket"] = [
        LexEntry(("bucket",), parse_category("PP"), lf.Const("bucket"), False, 0)
    ]
    reshaped = fragment.copy(entries=entries)
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
        for edge in all_chart_edges(chart):
            assert lf.alpha_eq(lf.beta_normalize(edge.lf), edge.lf)
            assert not edge.lf.free


def test_lexical_edges_are_beta_normal():
    # a redex in an entry is reduced at seeding, so both entries pack into one reading
    lex = load("w := NP : (\\x. f x) a ;\nw := NP : f a ;\n")
    (edge,) = parse(lex, ["w"])
    assert edge.lf == lf.parse_term("f a")


COORD_CHAIN = "John kicked and Mary dragged and I cooked and You spilled and John cooked and Mary kicked the bucket"
MODS = " ".join(("long", "very", "proverbial") * 3 + ("long",))
MODSTACK = (f"I picked the {MODS} book up", f"I picked up the {MODS} book", f"John kicked the {MODS} bucket")


def test_chart_logical_forms_are_closed(fragment, corpus):
    # composition binds a fixed x, which is safe only because nothing is free
    charts = list(corpus_charts(fragment, corpus))
    charts += [build_chart(fragment, tokenize(s)) for s in (COORD_CHAIN,) + MODSTACK]
    assert len(charts) >= 24 + 4
    for chart in charts:
        for edge in all_chart_edges(chart):
            assert edge.lf.free == frozenset(), lf.pretty_print(edge.lf)


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
        for edge in all_chart_edges(chart):
            if edge.rule not in composing:
                continue
            seen += 1
            for child in edge.children:
                cat = child.category
                if isinstance(cat, Functor):
                    (row,) = [row for row in RULES if row is edge.rule]
                    assert cat.slash.modality in row.admits, render_category(cat)
    assert seen > 0


def test_edge_lexc_flags_a_lexc_plus_leaf(fragment, corpus):
    flagged = unflagged = 0
    for chart in corpus_charts(fragment, corpus):
        for edge in all_chart_edges(chart):
            assert edge.lexc == any(e.lexc for e in leaf_entries(edge))
            flagged += edge.lexc
            unflagged += not edge.lexc
    assert flagged > 0 and unflagged > 0


def test_no_edge_category_has_singleton_result(fragment, corpus):
    from ccgparse.category import category_parts, validate_category

    for chart in corpus_charts(fragment, corpus):
        for edge in all_chart_edges(chart):
            c = edge.category
            assert not [v for v in validate_category(c, fragment.atom_declarations, list(category_parts(c))) if v.code == "SINGLETON_AS_RESULT"]


def test_corpus_nodes_project_their_constant_heads(fragment, corpus):
    # heads project: a node whose target atom (its category's innermost
    # result) has a constant head has that word among its span's tokens
    from ccgparse.category import is_feature_variable

    nodes = headed = 0
    for chart in corpus_charts(fragment, corpus):
        for (start, end), cell in chart.cells.items():
            for node in cell.values():
                target = node.category
                while type(target) is Functor:
                    target = target.result
                head = dict(target.features).get("head") if type(target) is Atom else None
                nodes += 1
                if head is not None and not is_feature_variable(head):
                    headed += 1
                    assert head in chart.tokens[start:end], (chart.tokens, (start, end), render_category(node.category))
    # what the fragment's corpus gives: the property is not checked vacuously
    assert (headed, nodes) == (52, 411)


def test_the_weight_threshold_is_the_lexicons_whatever_the_settings():
    lex = load(ccgparse.fragment_path().read_text(encoding="utf-8").replace("set weight_threshold 4 ;", "set weight_threshold 1 ;"))
    assert lex.weight_threshold == 1
    for sentence in ("I picked the book up", "John picked up the book"):
        tokens = tokenize(sentence)
        packed = {e.reading_key() for e in chart_readings(build_chart(lex, tokens))}
        assert packed == {e.reading_key() for e in chart_readings(build_chart(lex, tokens), all_derivations=True)}
        assert bool(packed) is (sentence == "John picked up the book")  # "the book" is heavy at threshold 1


def test_a_span_at_the_threshold_is_light_and_one_past_it_heavy():
    # the category-step memo keys on lightness, so a key that split spans apart from
    # derived_features would hand the light "a"'s step to the heavy "a b"
    lex = load(r"set weight_threshold 1 ; f := S/NP[weight=-] : \x. f x ; a := NP : a ; b := NP\NP : \x. b x ;")
    assert [lf.pretty_print(e.lf) for e in parse(lex, ["f", "a"])] == ["f a"]
    assert parse(lex, ["f", "a", "b"]) == []


@pytest.mark.parametrize("weight_threshold", [4, 1])
def test_cky_matches_bruteforce_on_short_sentences(fragment, corpus, weight_threshold):
    assert fragment.weight_threshold == 4
    lex = fragment.copy(weight_threshold=weight_threshold)
    checked = differ = 0
    for sentence, _, _ in corpus:
        tokens = tokenize(sentence)
        if len(tokens) > 7:
            continue
        checked += 1
        cky = {e.reading_key() for e in chart_readings(build_chart(lex, tokens))}
        assert cky == enumerate_readings(lex, tokens), sentence
        differ += cky != {e.reading_key() for e in chart_readings(build_chart(fragment, tokens))}
    assert checked >= 10
    # a non-default threshold must change some readings, or it checks nothing new
    assert (differ > 0) is (weight_threshold != 4)


# ---------------------------------------------------------------------------
# packing

LEXC_ENTRIES = ("a := N : a ;", "a := N : a [lexc+] ;")


@pytest.mark.parametrize("entries", [LEXC_ENTRIES, LEXC_ENTRIES[::-1]], ids=["plain first", "lexc first"])
def test_packing_keeps_edges_that_differ_in_lexc(entries):
    # application reads lexc, so packing the lexc+ edge into the plain one loses a reading
    lex = load("\n".join(entries + (r"f := S/N[lexc=+] : \x. f x ;",)) + "\n")
    chart = build_chart(lex, ["f", "a"])
    assert {e.reading_key() for e in chart_readings(chart)} == enumerate_readings(lex, ["f", "a"])
    (edge,) = chart_readings(chart)
    assert lf.pretty_print(edge.lf) == "f a"


def test_readings_list_one_edge_per_reading_key():
    lex = load("\n".join(LEXC_ENTRIES + ("b := NP : b ;",)) + "\n")
    chart = build_chart(lex, ["a"])
    assert [e.lexc for e in chart_edges(chart, 0, 1)] == [False, True]
    assert [e.lexc for e in chart_readings(chart)] == [False]
    assert [e.lexc for e in chart_readings(chart, all_derivations=True)] == [False, True]
    # so do the near misses of a NO PARSE
    assert [e.span for e in build_chart(lex, ["a", "b"]).longest_partials()] == [(0, 1), (1, 2)]


# one span: two categories with alpha-equal logical forms, and binder-renamed copies of
# the first, one of them on a node of its own (lexc+)
ONE_FORM_TWO_CATEGORIES = r"""
a := S/NP : \x. f x ;
a := NP/NP : \y. f y ;
a := S/NP : \z. f z ;
a := S/NP : \w. f w [lexc+] ;
"""


def test_a_span_keeps_one_reading_per_category_of_alpha_equal_forms():
    chart = build_chart(load(ONE_FORM_TWO_CATEGORIES), ["a"])
    assert len(chart.cells[0, 1]) == 3  # S/NP, NP/NP and S/NP lexc+
    readings = [(render_category(e.category), lf.pretty_print(e.lf)) for e in chart_readings(chart)]
    assert readings == [("S/NP", r"\x. f x"), ("NP/NP", r"\y. f y")]
    assert len(chart_readings(chart, all_derivations=True)) == 4


def derivation_tree(edge):
    return (
        edge.span, edge.label, render_category(edge.category), lf.pretty_print(edge.lf), edge.lexc,
        tuple(derivation_tree(child) for child in edge.children),
    )


# lexc+ between two alpha-equal seeds: seeds of two readings interleave in lookup order
ALPHA_EQUAL_SEEDS = r"""
a := N/N : \x. f x ;
a := N/N : \x. f x [lexc+] ;
a := N/N : \y. f y ;
b := N : b ;
b := N : b [lexc+] ;
c := S/N[lexc=+] : \x. g x ;
"""

# t applies to n and composes with it: two rule rows fire on one pair
TWO_ROWS_ON_ONE_PAIR = r"""
t := X/X : \p. t p ;
n := N/N : \x. n x ;
m := N : m ;
"""


# a's seeds in lookup order are (f, lexc -), (g, lexc +), (g, lexc -): the node of
# the lexc - ones files g after the lexc + seed, and the lexc + b joins both in one node
SEEDS_OUT_OF_NODE_ORDER = r"""
a := N/N : \x. f x ;
a := N/N : \x. g x [lexc+] ;
a := N/N : \x. g x ;
b := N : b [lexc+] ;
"""


def test_every_derivation_comes_in_the_unpacked_charts_add_order(fragment, corpus):
    cases = [(fragment, tokenize(s)) for s, _, _ in corpus if len(tokenize(s)) <= 7] + [(fragment, tokenize(CHAIN_4))]
    lex = load(ALPHA_EQUAL_SEEDS)
    cases += [(lex, s.split()) for s in ("a b", "a a b", "c a b", "c a a b")]
    lex = load(TWO_ROWS_ON_ONE_PAIR)
    cases += [(lex, s.split()) for s in ("t n", "t n m", "t t n m")]
    cases += [(load(SEEDS_OUT_OF_NODE_ORDER), ["a", "b"])]
    listed = 0
    for lex, tokens in cases:
        every = derivations(lex, tokens)
        want = [derivation_tree(e) for e in every]
        assert [derivation_tree(e) for e in chart_readings(build_chart(lex, tokens), all_derivations=True)] == want, tokens
        listed += len(want)
        # so does the first derivation of each reading, which a reading shows
        first = {}
        for e in every:
            first.setdefault(e.reading_key(), e)
        assert [derivation_tree(e) for e in chart_readings(build_chart(lex, tokens))] == [derivation_tree(e) for e in first.values()], tokens
    assert len(cases) >= 15 and listed > len(cases)


# ---------------------------------------------------------------------------
# the category-step memo

CHAIN_4 = "John kicked and Mary dragged and I cooked and You spilled the bucket"
STACKS_4 = (
    "I picked the long very proverbial long book up",
    "I picked up the long very proverbial long book",
    "John kicked the long very proverbial long bucket",
)
# the coordination workload's first chain at seed 0
CHAIN_6 = "Mary kicked and You cooked and I spilled and Mary kicked and John dragged and John cooked the bucket"


def summary(edges):
    return [(e.rule, render_category(e.category), lf.alpha_key(e.lf), e.lexc) for e in edges]


def direct_combine(left, right, chart):
    """combine's outputs summarized, each row's step computed afresh (see direct_category_steps)."""
    out = []
    for row, category in direct_category_steps(left, right, chart):
        f_edge, g_edge = (left, right) if row.f_direction is Direction.FORWARD else (right, left)
        term = parser._lf_step(row.shape, f_edge.lf, g_edge.lf, chart.max_steps)
        out.append((row, render_category(category), lf.alpha_key(term), left.lexc or right.lexc))
    return out


def test_memoized_combine_equals_the_direct_rule_steps(fragment, corpus):
    """Every adjacent edge pair of each chart, after the build has filled its memo."""
    pairs = 0
    for sentence in [s for s, _, _ in corpus] + [CHAIN_4, *STACKS_4]:
        try:
            chart = build_chart(fragment, tokenize(sentence))
        except UnknownTokenError:
            continue
        for start, split in chart.cells:
            for split_, end in chart.cells:
                if split_ != split:
                    continue
                for left in chart_edges(chart, start, split):
                    for right in chart_edges(chart, split, end):
                        assert summary(combine(left, right, chart)) == direct_combine(left, right, chart), sentence
                        pairs += 1
    assert pairs == 1376


def counted_calls(monkeypatch, *names, module=parser):
    """A count per name of the module's calls of it from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_the_memo_takes_one_category_step_per_distinct_input(fragment, monkeypatch):
    calls = counted_calls(monkeypatch, "_category_step")
    keys = counted_calls(monkeypatch, "category_key", module=ccgparse.category)  # the table keys what it interns
    chart = build_chart(fragment.copy(), tokenize(CHAIN_6))  # a copy starts an empty category table
    assert len(all_chart_edges(chart)) == 364
    assert calls["_category_step"] <= 242  # 728 when each of the 91 misses tried all eight rows, 9104 without the memo
    assert keys["category_key"] <= 30  # one per interned category; 433 without interning: one per edge


def test_logical_forms_are_made_only_by_the_walk_of_the_readings(fragment, monkeypatch):
    calls = counted_calls(monkeypatch, "combine", "_lf_step", "_category_step")
    chart = build_chart(fragment.copy(), tokenize(CHAIN_6))
    assert calls["combine"] == calls["_lf_step"] == 0
    assert len(document(chart).readings) == 42
    assert calls["_lf_step"] <= 190  # 270 before twin ways were skipped, 403 when every edge's logical form was made
    assert calls["_category_step"] <= 242  # the chart's steps: the walk reads them from the memo; 728 with all eight rows per miss


# ---------------------------------------------------------------------------
# twin ways: (A r1 B) row C beside A row (B r2 C) on one node

# f >B g, then > r, beside f > (g > r)
FORWARD_TWINS = r"""
f := S/VP : \v. f v ;
g := VP/NP : \x. g x ;
r := NP : r ;
"""


# (a < b) < c beside a < (b <B c), which the slash or the slot of c may block
def backward_twins(c):
    return rf"""
a := NP : a ;
b := S\NP : \x. b x ;
c := {c} : \p. c p ;
"""


def first_derivations(lex, tokens):
    first = {}
    for e in derivations(lex, tokens):
        first.setdefault(e.reading_key(), e)
    return [derivation_tree(e) for e in first.values()]


@pytest.mark.parametrize(
    "text, sentence",
    [(FORWARD_TWINS, "f g r"), (backward_twins(r"S\S"), "a b c"), (backward_twins(r"S\.S"), "a b c")],
    ids=["forward", "backward", "backward dot"],
)
def test_a_way_with_a_twin_is_not_walked(text, sentence, monkeypatch):
    lex, tokens = load(text), sentence.split()
    calls = counted_calls(monkeypatch, "_lf_step")
    chart = build_chart(lex, tokens)
    (node,) = chart.cells[0, 3].values()
    assert [way[1].end for way in node.ways] == [1, 2]  # the twin with the larger split comes second
    assert parser._twinned(node, node.ways[1]) == (0,)
    shown = [derivation_tree(e) for e in chart_readings(chart)]
    assert calls["_lf_step"] == 2  # the smaller split's two steps; the twin's left child is never walked
    assert shown == first_derivations(lex, tokens)
    assert len(chart_readings(build_chart(lex, tokens), all_derivations=True)) == 2


# A star slash or a computed slot on c blocks b <B c, so (a < b) < c has no twin.  A forward
# (f >B g) row r always has one: f >B g unifies f's argument with g's result, which carries
# no computed attribute and no singleton, so g row r and f row (g row r) fire and bind as it does.
@pytest.mark.parametrize("c", [r"S\*S", r"S\S[weight=-]"], ids=["star slash", "computed slot"])
def test_a_way_without_a_twin_is_walked(c):
    lex, tokens = load(backward_twins(c)), ["a", "b", "c"]
    chart = build_chart(lex, tokens)
    (node,) = chart.cells[0, 3].values()
    assert [(way[0], way[1].end) for way in node.ways] == [(RuleId.BWD_APP, 2)]
    assert parser._twinned(node, node.ways[0]) == ()
    readings = chart_readings(chart)
    assert [derivation_tree(e) for e in readings] == first_derivations(lex, tokens)
    assert [lf.pretty_print(e.lf) for e in readings] == ["c (b a)"]


def nested_twinned(node, way):
    """_twinned as it scanned node's ways, left's ways and each middle node's ways for every way."""
    row, left, right = way
    if row not in parser._TWINS:
        return ()
    r1, r2 = parser._TWINS[row]
    twins = [(w[1], w[2].ways) for w in node.ways if w[0] is row]
    return tuple(
        i for i, (r, *children) in enumerate(left.ways)
        if r is r1 and any(a is children[0] and (r2, children[1], right) in ways for a, ways in twins)
    )


def test_the_twin_index_finds_the_twins_the_nested_scan_finds(fragment, corpus):
    clauses = COORD_CHAIN.removesuffix(" the bucket").split(" and ")
    chains = [" and ".join(clauses[:k]) + " the bucket" for k in range(1, len(clauses) + 1)]
    charts = list(corpus_charts(fragment, corpus)) + [build_chart(fragment, tokenize(s)) for s in chains + list(MODSTACK)]
    ways = twinned = 0
    for chart in charts:
        for node in (node for cell in chart.cells.values() for node in cell.values()):
            index = parser._twin_index(node)
            for way in node.ways:
                if len(way) == 3:
                    found = nested_twinned(node, way)
                    assert parser._twinned(node, way, index) == parser._twinned(node, way) == found
                    ways, twinned = ways + 1, twinned + bool(found)
    assert (len(clauses), ways, twinned) == (6, 2005, 1214)


CHAIN_8 = (
    "John kicked and Mary dragged and I cooked and You spilled and John kicked and Mary cooked "
    "and John kicked and Mary dragged the bucket"
)
MODIFIERS_10 = " ".join(["long", "very", "proverbial"] * 3 + ["long"])


@pytest.mark.parametrize(
    "sentence, readings, most",
    [
        (CHAIN_8, 429, 1700),  # 2516 when twin ways were walked
        (f"I picked the {MODIFIERS_10} book up", 0, 20),  # 456
        (f"I picked up the {MODIFIERS_10} book", 1, 20),  # 292
        (f"John kicked the {MODIFIERS_10} bucket", 1, 20),  # 456
    ],
    ids=["chain 8", "shifted", "particle first", "kick"],
)
def test_each_reading_is_derived_once_not_once_per_bracketing(fragment, monkeypatch, sentence, readings, most):
    calls = counted_calls(monkeypatch, "_lf_step")
    assert len(document(build_chart(fragment, tokenize(sentence))).readings) == readings
    assert calls["_lf_step"] <= most


def test_every_derivation_walks_the_twin_ways_too(fragment, monkeypatch):
    calls = counted_calls(monkeypatch, "_lf_step")
    assert len(chart_readings(build_chart(fragment, tokenize(CHAIN_6)), all_derivations=True)) == 84
    assert calls["_lf_step"] == 270  # as many as before twin ways were skipped


# ---------------------------------------------------------------------------
# one node's derivations: deduplicated as a span's readings are, walked only when their
# logical forms' fingerprints collide

def test_nodes_keep_the_first_derivation_per_reading_key(fragment, corpus):
    clauses = COORD_CHAIN.removesuffix(" the bucket").split(" and ")
    chains = [" and ".join(clauses[:k]) + " the bucket" for k in range(1, len(clauses) + 1)]
    dropped = 0
    for lex in (fragment.copy(), fragment.copy(weight_threshold=2)):
        for chart in corpus_charts(lex, corpus):
            dropped += node_duplicates(chart)[0]
    for sentence in chains + list(MODSTACK):
        dropped += node_duplicates(build_chart(fragment.copy(), tokenize(sentence)))[0]
    assert (len(clauses), dropped > 0) == (6, True)  # the nodes hold alpha-equal derivations to drop


# the second entry permutes the first's arguments, the third renames its binders
COLLIDING = r"""
f := (S/NP)/NP : \x\y. r x y ;
f := (S/NP)/NP : \x\y. r y x ;
f := (S/NP)/NP : \u\v. r u v ;
"""


def test_a_fingerprint_collision_is_settled_by_the_alpha_key():
    lex = load(COLLIDING)
    chart = build_chart(lex, ["f"])
    (node,) = chart.cells[0, 1].values()
    seeds = [way[1] for way in node.ways]
    assert len({e.lf.fp for e in seeds}) == 1
    assert node_duplicates(chart) == (1, 1)  # the third dropped, the second kept
    assert [e for _, e in parser._derivations(node, chart, False)] == seeds[:2]
    assert [lf.pretty_print(e.lf) for e in parse(lex, ["f"])] == [r"\x\y. r x y", r"\x\y. r y x"]


# ---------------------------------------------------------------------------
# standardized categories: one value per category, renamed apart where two meet

# a's ?v and b's ?v are two variables that standardize to one name
SHARED_BASE = r"""
atoms A, B, C ;
a := A[f=?v]/B[g=c1] : \x. a x ;
b := B[g=?v]/C[h=?v] : \x. b x ;
c := C[h=c1] : c ;
"""


def test_variables_that_share_a_base_are_renamed_apart():
    # a >B b binds b's ?v to c1 and leaves a's free: a >B b that captured a's too would add A[f=c1]
    chart = build_chart(load(SHARED_BASE), ["a", "b", "c"])
    assert [render_category(e.category) for e in chart_readings(chart)] == ["A[f=?v]"]
    (composed,) = chart.cells[0, 2].values()
    assert render_category(composed.category) == "A[f=?v]/C[h=c1]"


# f's X and g's X are two variables of one name, in the lexicon and on edges built by hand
SAME_NAME = r"""
f := X/X : \x. x ;
g := NP/X : \y. c ;
"""


def test_edges_the_chart_did_not_intern_are_renamed_apart_as_seeds_are():
    # f > g binds f's X to NP/X; had g's X been taken for f's, f >B g alone would fire, as NP/NP
    chart = Chart(load(SAME_NAME), ["f", "g"], lf.DEFAULT_STEP_BUDGET)
    built = [edge_for("f", "X/X", r"\x. x"), edge_for("g", "NP/X", r"\y. c", start=1)]
    for left, right in (seed_edges(chart), built):
        got = [(e.rule, render_category(e.category)) for e in combine(left, right, chart)]
        assert got == [(RuleId.FWD_APP, "NP/X"), (RuleId.FWD_COMP_HARMONIC, "NP/X")]


@pytest.mark.parametrize(
    "sentence, steps, categories",
    [
        # 82, 84 and 90 steps when the memo was the chart's and keyed both spans' lexc, lightness and words
        (f"I picked the {MODIFIERS_10} book up", 24, 15),  # 356 and 54 when each seed was renamed on its own
        (f"I picked up the {MODIFIERS_10} book", 36, 17),  # 320 and 46
        (f"John kicked the {MODIFIERS_10} bucket", 22, 14),  # 356 and 53
    ],
    ids=["shifted", "particle first", "kick"],
)
def test_equal_categories_are_one_object_and_share_their_category_steps(fragment, sentence, steps, categories):
    lex, tokens = fragment.copy(), tokenize(sentence)  # a copy starts an empty category table
    table = lex.category_table
    chart = build_chart(lex, tokens)
    longs = [node.category for i, t in enumerate(tokens) if t == "long" for node in chart.cells[i, i + 1].values()]
    assert len(longs) == 4 and all(c is longs[0] for c in longs)
    assert render_category(longs[0], str) == "N[head=?h#0]/N[head=?h#0]"
    assert (len(table.category_steps), len(table.categories)) == (steps, categories)
    # the charts of one lexicon share its table, and a view of the lexicon starts its own
    again = build_chart(lex, tokens)
    assert (len(table.category_steps), len(table.categories)) == (steps, categories)
    assert all(a.category is b.category for a, b in zip(again.cells[0, 1].values(), chart.cells[0, 1].values(), strict=True))
    for view in (lex.copy(weight_threshold=6), case_folded(lex)):
        assert not (view.category_table.category_steps or view.category_table.categories or view.category_table.seeds)


def test_charts_built_at_once_over_one_lexicon_read_as_charts_built_alone(fragment, corpus):
    sentences = [tokenize(sentence) for sentence, _, _ in corpus]
    alone = [[e.reading_key() for e in chart_readings(build_chart(fragment.copy(), tokens))] for tokens in sentences]

    def build_all(lex):
        charts = [build_chart(lex, tokens) for tokens in sentences]
        return charts, [[e.reading_key() for e in chart_readings(chart)] for chart in charts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the table's reads and writes
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(8):  # a race shows in some rounds only
                lex = fragment.copy()
                results = list(pool.map(build_all, [lex] * 4, timeout=120))
                categories = lex.category_table.categories
                for charts, readings in results:
                    assert readings == alone
                    # equal categories stay one object, whichever thread interned them first
                    assert all(categories[n.category] is n.category for chart in charts for cell in chart.cells.values() for n in cell.values())
    finally:
        sys.setswitchinterval(interval)

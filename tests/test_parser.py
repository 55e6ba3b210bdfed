from dataclasses import replace

import pytest

import ccgparse

from ccgparse import logical_form as lf
from ccgparse import parser
from ccgparse.derivation import document
from ccgparse.category import (
    Direction,
    Functor,
    apply_bindings,
    parse_category,
    render_category,
)
from ccgparse.lexicon import Lexicon, parse_lexicon, tokenize
from ccgparse.parser import (
    COMPUTED_ATTRS,
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

from bruteforce import derivations, enumerate_readings


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
    crippled = replace(fragment, entries=entries)
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
    reshaped = replace(fragment, entries=entries)
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
            assert not lf.free_vars(edge.lf)


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
        for edge in chart.all_edges():
            assert lf.free_vars(edge.lf) == frozenset(), lf.pretty_print(edge.lf)


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
            assert edge.lexc == any(e.lexc for e in leaf_entries(edge))
            flagged += edge.lexc
            unflagged += not edge.lexc
    assert flagged > 0 and unflagged > 0


def test_no_edge_category_has_singleton_result(fragment, corpus):
    from ccgparse.category import validate_category

    for chart in corpus_charts(fragment, corpus):
        for edge in chart.all_edges():
            assert not [v for v in validate_category(edge.category) if v.code == "SINGLETON_AS_RESULT"]


def test_the_weight_threshold_is_the_lexicons_whatever_the_settings():
    lex = load(ccgparse.fragment_path().read_text(encoding="utf-8").replace("set weight_threshold 4 ;", "set weight_threshold 1 ;"))
    assert lex.weight_threshold == 1
    for sentence in ("I picked the book up", "John picked up the book"):
        tokens = tokenize(sentence)
        packed = {e.reading_key() for e in build_chart(lex, tokens).spanning()}
        assert packed == {e.reading_key() for e in chart_readings(build_chart(lex, tokens), all_derivations=True)}
        assert bool(packed) is (sentence == "John picked up the book")  # "the book" is heavy at threshold 1


@pytest.mark.parametrize("weight_threshold", [4, 1])
def test_cky_matches_bruteforce_on_short_sentences(fragment, corpus, weight_threshold):
    assert fragment.weight_threshold == 4
    lex = replace(fragment, weight_threshold=weight_threshold)
    checked = differ = 0
    for sentence, _, _ in corpus:
        tokens = tokenize(sentence)
        if len(tokens) > 7:
            continue
        checked += 1
        cky = {e.reading_key() for e in build_chart(lex, tokens).spanning()}
        assert cky == enumerate_readings(lex, tokens), sentence
        differ += cky != {e.reading_key() for e in build_chart(fragment, tokens).spanning()}
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
    assert {e.reading_key() for e in chart.spanning()} == enumerate_readings(lex, ["f", "a"])
    (edge,) = chart_readings(chart)
    assert lf.pretty_print(edge.lf) == "f a"


def test_readings_list_one_edge_per_reading_key():
    lex = load("\n".join(LEXC_ENTRIES + ("b := NP : b ;",)) + "\n")
    chart = build_chart(lex, ["a"])
    assert [e.lexc for e in chart.spanning()] == [False, True]
    assert [e.lexc for e in chart_readings(chart)] == [False]
    assert [e.lexc for e in chart_readings(chart, all_derivations=True)] == [False, True]
    # so do the near misses of a NO PARSE
    assert [e.span for e in build_chart(lex, ["a", "b"]).longest_partials()] == [(0, 1), (1, 2)]


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
    """combine's outputs summarized, each row's step computed afresh: no memo, no interning."""
    out = []
    for row in RULES:
        f_edge, g_edge = (left, right) if row.f_direction is Direction.FORWARD else (right, left)
        step = parser._category_step(row, f_edge, g_edge, chart)
        if step is not None:
            term = parser._lf_step(row.shape, f_edge.lf, g_edge.lf, chart.max_steps)
            out.append((row.rule, render_category(apply_bindings(*step)), lf.alpha_key(term), left.lexc or right.lexc))
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
                for left in chart.edges(start, split):
                    for right in chart.edges(split, end):
                        assert summary(combine(left, right, chart)) == direct_combine(left, right, chart), sentence
                        pairs += 1
    assert pairs == 1376


def counted_calls(monkeypatch, *names):
    """A count per name of the parser's calls of it from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(parser, name)

        def counted(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(parser, name, counted)
    return calls


def test_the_memo_takes_one_category_step_per_distinct_input(fragment, monkeypatch):
    calls = counted_calls(monkeypatch, "_category_step", "category_key")
    chart = build_chart(fragment, tokenize(CHAIN_6))
    assert len(chart.all_edges()) == 364
    assert calls["_category_step"] <= 1800  # 9104 without the memo
    assert calls["category_key"] <= 40  # 433 without interning: one per edge


def test_logical_forms_are_made_only_by_the_walk_of_the_readings(fragment, monkeypatch):
    calls = counted_calls(monkeypatch, "combine", "_lf_step", "_category_step")
    chart = build_chart(fragment, tokenize(CHAIN_6))
    assert calls["combine"] == calls["_lf_step"] == 0
    assert len(document(chart).readings) == 42
    assert calls["_lf_step"] <= 270  # 403 when every edge's logical form was made
    assert calls["_category_step"] <= 1800  # 1360 either way

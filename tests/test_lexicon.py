from dataclasses import replace

import pytest

from ccgparse import logical_form as lf
from ccgparse.category import Modality, Singleton, parse_category
from ccgparse.cli import main
from ccgparse.lexicon import (
    ARITY_MISMATCH,
    LEXICAL_WRAP,
    UNDECLARED_ATOM,
    UNDERIVABLE_SINGLETON,
    case_folded,
    lexicon_notes,
    lookup,
    parse_lexicon,
    render_lexicon,
    tokenize,
    validate_lexicon,
)
from ccgparse.parser import Chart, seed_edges

MINI = r"""
# a small but derivable grammar
the := NP[head=?h]/N[head=?h] : \x. def x ;
bucket := N[head=bucket] : bucket [lexc+] ;
kicked := (S\NP)/*"the bucket" : \x\y. die_{x} y ;
John := NP[agr=3s] : j ;
"""


def load(text):
    lex, issues = parse_lexicon(text)
    assert not [i for i in issues if i.severity == "error"], issues
    return lex


# ---------------------------------------------------------------------------
# parsing entries

def test_parse_particle_entry():
    lex = load(r'picked := (S\NP)/*"up"/NP[weight=-] : \y\x\z. cause (init (hold_{x} y z)) z ;')
    (entry,) = lex.all_entries()
    assert entry.phon == ("picked",)
    assert entry.category == parse_category(r'(S\NP)/*"up"/NP[weight=-]')
    assert lf.alpha_eq(entry.lf, lf.parse_term(r"\y\x\z. cause (init (hold_{x} y z)) z"))


def test_parse_schema_entry_with_category_variable():
    lex = load(r"and := (X\*X)/*X : \p\q\z. and (p z) (q z) ;")
    (entry,) = lex.all_entries()
    assert entry.category == parse_category(r"(X\*X)/*X")


def test_singleton_as_result_entry_is_a_violation():
    lex = load(r'kicked := "the bucket"/(S\NP) : \x\y. die_{x} y ;')
    codes = [v.code for v in validate_lexicon(lex)]
    assert "SINGLETON_AS_RESULT" in codes


@pytest.mark.parametrize(
    "text, codes",
    [
        ('a := "b" : x ;\nb := NP : y ;', ["SINGLETON_AS_RESULT"]),
        ('every which way := "every which way" : omniway ;', []),  # the string's own derivation
    ],
)
def test_string_category_is_an_entry_category_only_for_its_own_words(text, codes):
    assert [(v.code, v.line) for v in validate_lexicon(load(text))] == [(c, 1) for c in codes]


def test_multi_token_phon():
    lex = load(r"every which way := (S\NP)\(S\NP) : \p\x. omni p x ;")
    (entry,) = lex.all_entries()
    assert entry.phon == ("every", "which", "way")


def test_markers_parsed():
    lex = load("book := N[head=book] : book [lexc+] ;")
    assert lex.all_entries()[0].lexc is True


@pytest.mark.parametrize(
    "group, lexc, issues",
    [
        ("[lexc+]", True, []),
        ("[ lexc+ , lexc+ ]", True, []),
        ("[]", False, []),
        ("", False, []),
        ("[shiny]", False, ["unknown entry marker 'shiny'"]),
        ("[lexc+, shiny]", True, ["unknown entry marker 'shiny'"]),
        (
            "]",
            None,
            ["unmatched ']' after logical form", "bad logical form: unexpected character ']' in logical form ' book ] '"],
        ),
    ],
)
def test_marker_group_sets_lexc_and_reports_issues(group, lexc, issues):
    """lexc is read off the entry's lexical edge; None when no entry is made."""
    lex, got = parse_lexicon(f"book := N : book {group} ;")
    assert [i.message for i in got] == issues
    chart = Chart(lex, ["book"], lf.DEFAULT_STEP_BUDGET)
    assert (seed_edges(chart)[0].lexc if lex.all_entries() else None) is lexc


def test_unknown_marker_is_error():
    _, issues = parse_lexicon("book := N : book [shiny] ;")
    assert any("unknown entry marker" in i.message for i in issues)


def test_syntax_errors_carry_line_numbers_and_do_not_stop_parsing():
    text = "John := NP : j ;\nbroken := (S\\ : nope ;\nMary := NP : m ;"
    lex, issues = parse_lexicon(text)
    assert [i.line for i in issues if i.severity == "error"] == [2]
    assert len(lex.all_entries()) == 2


def test_missing_semicolon_is_reported_and_the_next_entry_kept():
    text = "the := NP/N : \\x. def x\nbucket := N : bucket ;\nJohn := NP : j\n\nMary := NP : m ;\n"
    lex, issues = parse_lexicon(text)
    assert [str(i) for i in issues] == [
        "line 1: error: entry not terminated by ';'",
        "line 3: error: entry not terminated by ';'",
    ]
    entries = [(e.source_line, e.phon, lf.pretty_print(e.lf)) for e in lex.all_entries()]
    assert entries == [
        (1, ("the",), r"\x. def x"),
        (2, ("bucket",), "bucket"),
        (3, ("John",), "j"),
        (5, ("Mary",), "m"),
    ]


def test_entry_may_span_lines():
    lex = load("picked := (S\\NP)/NP\n  : \\y\\x. pick y x ;\nJohn := NP : j ;")
    assert [e.source_line for e in lex.all_entries()] == [1, 3]


@pytest.mark.parametrize(
    "text, issue",
    [
        ("w := NP/?x : \\y. w ;", "line 1: error: bad category: unexpected '?x' in category"),
        ("atoms ?x ;\nw := NP/?x : \\y. w ;", "line 2: error: bad category: unexpected '?x' in category"),
        ("w := NP[?a=b] : w ;", "line 1: error: bad category: expected word, found '?a'"),
    ],
)
def test_feature_variable_outside_a_feature_value_is_a_line_error(text, issue):
    lex, issues = parse_lexicon(text)
    assert [str(i) for i in issues] == [issue]
    assert lex.all_entries() == []


def test_repeated_feature_attribute_is_a_line_error():
    lex, issues = parse_lexicon("w := NP[a=b,a=c] : w ;\nv := NP[a=b, c=?x, a=?x] : v ;")
    assert [str(i) for i in issues] == [
        "line 1: error: bad category: repeated feature attribute 'a'",
        "line 2: error: bad category: repeated feature attribute 'a'",
    ]
    assert lex.all_entries() == []


def test_duplicate_entry_is_warning():
    _, issues = parse_lexicon("John := NP : j ;\nJohn := NP : j ;")
    assert [i.severity for i in issues] == ["warning"]


def test_comment_hash_inside_singleton_quotes():
    lex = load('tag := (S\\NP)/*"the # sign" : \\x\\y. tag_{x} y ;  # trailing comment\nthe := NP/N : \\x. def x ;\nsign := N : sign ;\n# whole-line comment\n')
    entry = lex.all_entries()[0]
    arg = entry.category.argument
    assert isinstance(arg, Singleton) and arg.tokens == ("the", "#", "sign")


def test_a_semicolon_inside_quotes_is_one_error_on_its_line(tmp_path, capsys):
    text = 'x := S/*"a;b" : x ;\ny := NP : y ;\n'
    lex, issues = parse_lexicon(text)
    assert [str(i) for i in issues] == ["line 1: error: ';' inside quotes: a string category cannot hold one"]
    assert [e.phon for e in lex.all_entries()] == [("y",)]
    path = tmp_path / "x.ccg"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "-l", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}: line 1: error: ';' inside quotes: a string category cannot hold one\n"


def test_crlf_input():
    text = "John := NP : j ;\r\nMary := NP : m ;\r\n"
    lex, issues = parse_lexicon(text)
    assert not issues
    assert len(lex.all_entries()) == 2


def test_directives():
    lex = load("set weight_threshold 6 ;\nset default_modality star ;\natoms Deg, Foo ;\nx := S/NP : \\a. f a ;")
    assert lex.weight_threshold == 6
    assert lex.default_modality is Modality.STAR
    assert {"Deg", "Foo"} <= set(lex.atom_declarations)
    entry = lex.all_entries()[0]
    assert entry.category.slash.modality is Modality.STAR


# ---------------------------------------------------------------------------
# validation

def test_validate_mini_fragment_clean():
    assert validate_lexicon(load(MINI)) == []


def test_validate_empty_lexicon():
    assert validate_lexicon(load("")) == []


def test_underivable_singleton():
    text = r"""
the := NP[head=?h]/N[head=?h] : \x. def x ;
kicked := (S\NP)/*"the bucket" : \x\y. die_{x} y ;
"""
    codes = [v.code for v in validate_lexicon(load(text))]
    assert codes == [UNDERIVABLE_SINGLETON]


def test_arity_mismatch():
    lex = load(r"bad := (S\NP)/NP : \x. foo x ;")
    codes = [v.code for v in validate_lexicon(lex)]
    assert ARITY_MISMATCH in codes


def test_extra_lambdas_are_fine():
    lex = load(r"to := VP[form=toinf]/VP[form=inf] : \p. p ;\n".replace(r"\n", "\n"))
    assert validate_lexicon(lex) == []


def test_undeclared_atom():
    lex = load(r"foo := Q/NP : \x. f x ;")
    codes = [v.code for v in validate_lexicon(lex)]
    assert UNDECLARED_ATOM in codes
    lex = load("atoms Q ;\nfoo := Q/NP : \\x. f x ;")
    assert validate_lexicon(lex) == []


def test_lexical_wrap_note():
    lex = load(r"gwelodd := (S/NP)/NP[agr=3s] : \x\y. saw y x ;")
    assert validate_lexicon(lex) == []
    notes = lexicon_notes(lex)
    assert [n.code for n in notes] == [LEXICAL_WRAP]
    assert lexicon_notes(load("hits := (S\\NP)/NP : \\x\\y. hit x y ;")) == []


def test_validation_is_monotone_under_extension():
    base = load(MINI)
    extended = load(MINI + '\nshoot := VP[form=inf]/*"the breeze" : \\x\\y. smalltalk_{x} one y ;')
    before = {(v.code, v.detail) for v in validate_lexicon(base)}
    after = {(v.code, v.detail) for v in validate_lexicon(extended)}
    assert before <= after


# ---------------------------------------------------------------------------
# tokenize and lookup

def test_tokenize():
    assert tokenize("I picked the book up") == ["I", "picked", "the", "book", "up"]
    assert tokenize("every which way") == ["every", "which", "way"]
    assert tokenize("") == []
    assert tokenize("You DID", case_fold=True) == ["you", "did"]


def test_lookup_multi_token_entry():
    lex = load(
        r"every which way := (S\NP)\(S\NP) : \p\x. omni p x ;"
        + "\nscored := S\\NP : \\y. score y ;"
    )
    hits = lookup(lex, ["scored", "every", "which", "way"], 1)
    assert [(e.phon, n) for e, n in hits] == [(("every", "which", "way"), 3)]


def test_lookup_returns_all_matches(fragment):
    hits = lookup(fragment, ["up"], 0)
    assert len(hits) == 1
    assert hits[0][0].category == parse_category(r"((S\NP)\(S\NP))/NP[special=-]")
    assert lookup(fragment, ["xyzzy"], 0) == []


def test_lookup_case_fold(fragment):
    assert lookup(fragment, ["john"], 0) == []
    assert len(lookup(case_folded(fragment), ["john"], 0)) == 2


def test_case_folded_keeps_the_settings(fragment):
    # --weight-threshold and --case-fold are both views of one lexicon, so they compose
    assert case_folded(replace(fragment, weight_threshold=1)).weight_threshold == 1
    starred = load("set default_modality star ;\nJohn := NP : j ;")
    assert case_folded(starred).default_modality is Modality.STAR


# ---------------------------------------------------------------------------
# round trip

def test_render_parse_round_trip_mini():
    lex = load(MINI)
    again = load(render_lexicon(lex))
    assert again.all_entries() == lex.all_entries()
    assert (again.weight_threshold, again.default_modality) == (lex.weight_threshold, lex.default_modality)


MODAL = r"""
x := (S\NP)/NP : \a\b. f a b ;
y := (S/*NP)\.NP : \a\b. g a b ;
z := S/x NP : \a. h a [lexc+] ;
"""


@pytest.mark.parametrize("name", ["star", "diamond", "cross", "dot"])
def test_render_parse_round_trip_default_modality(name):
    lex = load(f"set default_modality {name} ;" + MODAL)
    assert lex.all_entries()[0].category.slash.modality is Modality[name.upper()]
    text = render_lexicon(lex)
    assert (f"set default_modality {name} ;" in text) == (name != "diamond")
    again = load(text)
    assert again.all_entries() == lex.all_entries()
    assert (again.weight_threshold, again.default_modality) == (lex.weight_threshold, lex.default_modality)


def test_render_parse_round_trip_fragment(fragment):
    again, issues = parse_lexicon(render_lexicon(fragment))
    assert not [i for i in issues if i.severity == "error"]
    assert again.all_entries() == fragment.all_entries()
    assert (again.weight_threshold, again.default_modality) == (fragment.weight_threshold, fragment.default_modality)
    assert again.atom_declarations == fragment.atom_declarations

import re

import pytest
from hypothesis import example, given, settings, strategies as st

import ccgparse
from ccgparse import logical_form as lf
from ccgparse.category import UNDECLARED_ATOM, Modality, Singleton, parse_category
from ccgparse.cli import main
from ccgparse.lexicon import (
    ARITY_MISMATCH,
    LEXICAL_WRAP,
    UNDERIVABLE_SINGLETON,
    _chunks,
    case_folded,
    lexicon_notes,
    lookup,
    parse_lexicon,
    render_lexicon,
    tokenize,
    validate_lexicon,
)
from ccgparse.parser import Chart, parse, seed_edges

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


DEEP_BINDERS = "".join(f"\\x{i}" for i in range(1500))
DEEP_SPINE = "f " + " ".join(f"a{i}" for i in range(3000))


@pytest.mark.parametrize(
    "first, second, issues",
    [
        (DEEP_BINDERS + ". x0", DEEP_BINDERS + ". x0", ["line 2: warning: duplicate entry for 'w'"]),
        (DEEP_BINDERS + ". x0", DEEP_BINDERS.replace("\\", " \\") + " . x0", ["line 2: warning: duplicate entry for 'w'"]),
        (DEEP_BINDERS + ". x0", DEEP_BINDERS + ". x1", []),
        (DEEP_SPINE, DEEP_SPINE.replace(" ", "  "), ["line 2: warning: duplicate entry for 'w'"]),
        (DEEP_SPINE, DEEP_SPINE + " b", []),
    ],
    ids=["spelled alike", "spaced apart", "another term", "spine spaced apart", "another spine"],
)
def test_a_duplicate_too_deep_for_term_equality_is_still_found(first, second, issues):
    # printing recurses once per argument; the check compares entries, and == walks two terms with its own stack
    _, found = parse_lexicon(f"w := NP : {first} ;\nw := NP : {second} ;\n")
    assert [str(i) for i in found] == issues


@pytest.mark.parametrize(
    "first, second, issues",
    [("\\x. x", "\\y. y", []), ("\\x. c", "\\y. c", []), ("\\x. x", "\\x.x", ["line 2: warning: duplicate entry for 'w'"])],
)
def test_a_duplicate_is_a_term_printed_alike(first, second, issues):
    # binder names count, as in printed text; the spelling of the text does not
    _, found = parse_lexicon(f"w := NP : {first} ;\nw := NP : {second} ;\nv := NP : f (a) b ;\nv := NP : f a b ;\n")
    assert [str(i) for i in found] == [*issues, "line 4: warning: duplicate entry for 'v'"]


def test_entries_spelled_alike_share_one_logical_form(fragment):
    entries = fragment.all_entries()
    # 65 objects when each entry's logical-form text was read on its own
    assert (len(entries), len({id(e.lf) for e in entries})) == (65, 55)
    assert len({e.lf for e in entries}) == 55
    a, b, c = load("a := NP : \\x. f x ;\nb := N : \\x. f x ;\nc := N : \\x.f x ;\n").all_entries()
    assert a.lf is b.lf and a.lf == c.lf and a.lf is not c.lf


def test_entries_spelled_alike_share_one_category(fragment):
    entries = fragment.all_entries()
    # 65 objects when each entry's category text was read on its own
    assert (len(entries), len({id(e.category) for e in entries})) == (65, 48)
    assert len({e.category for e in entries}) == 48


def test_the_table_seeds_each_shared_category_once(corpus):
    lex, _ = parse_lexicon(ccgparse.fragment_path().read_text(encoding="utf-8"))
    assert not validate_lexicon(lex)
    for sentence, _, _ in corpus:
        parse(lex, tokenize(sentence))
    table = lex.category_table
    # 65 seeds when each entry's category text was read on its own
    assert (len(table.seeds), len(table.categories), len(table.category_steps)) == (48, 96, 261)


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


def test_a_quote_left_open_at_the_end_of_its_line_is_one_error_on_that_line():
    # the closing quote on the next line does not close it, so the '#' starts no token
    lex, issues = parse_lexicon('w := S/*"a # note\nb" : \\x. w ;\ny := NP : y ;\n')
    assert [str(i) for i in issues] == [
        "line 1: error: bad category: unterminated string category in ' S/*\"a # note\\nb\" '"
    ]
    assert [e.phon for e in lex.all_entries()] == [("y",)]


def test_a_colon_inside_quotes_is_part_of_the_string_category():
    # the logical form starts at the first ':' outside quotes; a token may hold a ':' too
    lex, issues = parse_lexicon('kicked := (S\\NP)/*"a:b" : \\x\\y. die_{x} y ;\na:b := NP : ab ;\n')
    assert issues == []
    kicked, ab = lex.all_entries()
    assert kicked.category.argument == Singleton(("a:b",)) and ab.phon == ("a:b",)
    assert lf.pretty_print(kicked.lf) == r"\x\y. die_{x} y"
    assert validate_lexicon(lex) == []
    assert [lf.pretty_print(e.lf) for e in parse(lex, ["kicked", "a:b"])] == [r"\y. die_{ab} y"]
    # a quote left open still ends the category at the next ':'
    _, issues = parse_lexicon('w := NP/*"a : x ;\n')
    assert [str(i) for i in issues] == ["line 1: error: bad category: unterminated string category in ' NP/*\"a '"]


_CODE_RE = re.compile(r'(?:[^"#]|"[^"]*"?)*')  # a line up to a '#' outside quotes
_SEMICOLON_RE = re.compile(r'"[^"]*"|;')  # quoted text, or a ';' that no pair of quotes encloses


def two_pass_chunks(text):
    """_chunks as it read each line in two scans: its code up to a '#' outside quotes, then the ';'s in that code."""
    parts = []
    start = entry = 0
    for number, raw in enumerate(text.splitlines(), 1):
        code = _CODE_RE.match(raw).group()
        ends = [-1] + [m.start() for m in _SEMICOLON_RE.finditer(code) if m.group() == ";"] + [len(code)]
        for i, piece in enumerate(code[a + 1 : b] for a, b in zip(ends, ends[1:])):
            if i:
                if start:
                    yield start, "\n".join(parts), True
                parts, start, entry = [], 0, 0
            if ":=" in piece:
                if entry and entry < number:
                    yield start, "\n".join(parts) + "\n", False
                    parts, start = [], number
                entry = number
            parts.append(piece)
            if not start and piece.strip():
                start = number
    if start:
        yield start, "\n".join(parts), False


_MARK_RE = re.compile(r'"[^"]*"|"|[#;]')  # quoted text, a quote left open, or a '#' or ';' outside quotes


def line_by_line_chunks(text):
    """_chunks as it read each line in one scan of its marks, and sliced the line into pieces."""
    parts = []
    start = entry = 0
    for number, code in enumerate(text.splitlines(), 1):
        ends, opened = [-1], False
        for m in _MARK_RE.finditer(code):
            if m[0] == "#" and not opened:
                code = code[: m.start()]
                break
            if m[0] == ";":
                ends.append(m.start())
            opened = opened or m[0] == '"'
        ends.append(len(code))
        for i, piece in enumerate(code[a + 1 : b] for a, b in zip(ends, ends[1:])):
            if i:
                if start:
                    yield start, "\n".join(parts), True
                parts, start, entry = [], 0, 0
            if ":=" in piece:
                if entry and entry < number:
                    yield start, "\n".join(parts) + "\n", False
                    parts, start = [], number
                entry = number
            parts.append(piece)
            if not start and piece.strip():
                start = number
    if start:
        yield start, "\n".join(parts), False


# every line break of str.splitlines, \r\n counted as one
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from([";", "#", '"', ":=", "w", "ab", " ", "\t", *LINE_BREAKS]), max_size=40).map("".join))
@example('w := "a ; b # c\nv := x ;')  # a quote left open: the ';' after it splits, the '#' is text
@example('w := "a;b" "c # d" ; # e ; f')
@example('w := "a\rb" ; v := x\x85:= y\u2028;')  # a quote does not span a line break, nor an entry
def test_chunks_read_lines_as_the_two_pass_reader(text):
    assert list(_chunks(text)) == list(two_pass_chunks(text)) == list(line_by_line_chunks(text))


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


def test_validation_walks_each_distinct_category_object_at_most_twice(fragment, monkeypatch):
    # once to check it and once to find its string categories, however many entries share it
    walks = []
    parts = ccgparse.category.category_parts

    def counted(c):
        walks.append(c)
        return parts(c)

    for module in ("category", "lexicon"):
        monkeypatch.setattr(f"ccgparse.{module}.category_parts", counted)
    assert validate_lexicon(fragment) == []
    distinct = {id(e.category) for e in fragment.all_entries()}
    assert len(distinct) < len(fragment.all_entries())
    assert len(walks) <= 2 * len(distinct)


def test_validation_normalizes_each_distinct_entry_term_once(fragment, monkeypatch):
    # the singleton strings' parses normalize entry terms too; only validation's own calls count
    normalized, in_parse = [], []
    normalize, real_parse = lf.beta_normalize, ccgparse.parser.parse

    def counted(t, *args, **kwargs):
        if not in_parse:
            normalized.append(id(t))
        return normalize(t, *args, **kwargs)

    def marked_parse(*args, **kwargs):
        in_parse.append(True)
        try:
            return real_parse(*args, **kwargs)
        finally:
            in_parse.pop()

    monkeypatch.setattr("ccgparse.logical_form.beta_normalize", counted)
    monkeypatch.setattr("ccgparse.parser.parse", marked_parse)
    assert validate_lexicon(fragment) == []
    terms = {id(e.lf) for e in fragment.all_entries()}
    # 65 normalizations when each entry's logical form was its own object
    assert sorted(normalized) == sorted(terms) and len(terms) == 55


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
    assert case_folded(fragment.copy(weight_threshold=1)).weight_threshold == 1
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

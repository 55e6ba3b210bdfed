"""Fuzzed input: the readers scan as the reference tokenizer below does, raise
only their own syntax errors, what they accept renders back to text they
read as the same value, and the CLI maps whatever it is given to exit 0, 1
or 2 without a traceback, input nested thousands deep included.

Inputs are short, but for the nested forms, and example counts small, so
each test runs in about a second.
"""

import contextlib
import io
import re
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ccgparse import category, logical_form as lf
from ccgparse.category import CategorySyntaxError, parse_category, render_category
from ccgparse.cli import main
from ccgparse.cursor import Cursor
from ccgparse.lexicon import parse_lexicon

LF_CHARS = "\\.() _{},&|'xyfgpa01"
CATEGORY_CHARS = "SNP/\\*x.()[]=?,\"'+- aghupXY0"

WORDS = ["a", "b", "up"]
CATEGORIES = [
    "NP", "N", "S", "NP/N", "S\\NP", "(S\\NP)/NP", '(S\\NP)/*"up"', '(S\\NP)/*"a b"',
    "NP[agr=?v]/N[agr=?v]", "S/(S\\NP)", "(S\\NP)\\(S\\NP)", "(X\\X)/X", '"up"/NP', "NP[weight=-]",
]
LFS = ["a", "\\x. f x", "\\x\\y. g x y", "\\p. p a", "\\x. x x", "(\\x. x x) (\\x. x x)", "\\x\\p\\y. up (p y) x"]

_junk = st.text(alphabet=":=;/\\()\"*.[]xNPS ", max_size=12)
_entry = st.builds(
    lambda w, c, t, m: f"{w} := {c} : {t}{m} ;",
    st.sampled_from(WORDS),
    st.sampled_from(CATEGORIES),
    st.sampled_from(LFS),
    st.sampled_from(["", " [lexc+]"]),
)
# two valid entries first, so that some sentences parse
_lexicon_text = st.lists(
    st.one_of(_entry, _entry, st.sampled_from(["set weight_threshold 2 ;", "set default_modality x ;"]), _junk),
    max_size=5,
).map(lambda lines: "\n".join(["a := NP : a ;", "b := S\\NP : \\x. f x ;"] + lines))
_sentence = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)


# The reference tokenizer: each reader's scanner as one regular expression,
# \s*(?:...), whose named groups are the token kinds, error kinds among them.
REFERENCE_SCANNERS = {
    "category": (
        re.compile(
            r"""\s*(?: (?P<slash>[/\\](?:[*.]|x(?![A-Za-z0-9]))?)
            | (?P<string>"[^"\n]*") | (?P<unterminated>")
            | (?P<punct>[()\[\],=+-])
            | (?P<var>\?[A-Za-z0-9][A-Za-z0-9']*) | (?P<bad_var>\?)
            | (?P<word>[A-Za-z0-9][A-Za-z0-9']*)
            | (?P<bad_char>\S) )""",
            re.VERBOSE,
        ),
        {
            "unterminated": "unterminated string category in {text!r}",
            "bad_var": "bad feature variable at {rest!r}",
            "bad_char": "unexpected character {found!r} in category {text!r}",
        },
    ),
    "logical form": (
        re.compile(r"\s*(?:(?P<punct>[\\.(){}_,&])|(?P<ident>[A-Za-z][A-Za-z0-9']*)|(?P<bad_char>\S))"),
        {"bad_char": "unexpected character {found!r} in logical form {text!r}"},
    ),
}
READERS = {
    "category": (category._CATEGORY_SCANNER, category._CATEGORY_KINDS, category._CATEGORY_ERRORS, CategorySyntaxError),
    "logical form": (lf._LF_SCANNER, lf._LF_KINDS, lf._LF_ERRORS, lf.LFSyntaxError),
}


def reference_scan(noun: str, text: str) -> list[tuple[str, str]] | str:
    """Each token of text as (kind, text), or the message of its first lexical error."""
    scanner, errors = REFERENCE_SCANNERS[noun]
    tokens = []
    for m in scanner.finditer(text):
        kind = m.lastgroup
        if kind in errors:
            return errors[kind].format(found=m[kind], rest=text[m.start(kind) :], text=text)
        tokens.append((kind, m[kind]))
    return tokens


@pytest.mark.parametrize("noun", READERS)
@given(st.one_of(st.text(alphabet=CATEGORY_CHARS, max_size=24), st.text(alphabet=LF_CHARS, max_size=24), st.text(max_size=12)))
@example('NP[a=?] "b')
@example('"a?b" NP[a=?]')
@example("A/x'y \\x1 é")
def test_scan_agrees_with_the_reference_tokenizer(noun, text):
    scanner, kinds, errors, error = READERS[noun]
    try:
        tokens = Cursor(scanner, kinds, errors, text, error, noun).tokens
    except error as exc:
        assert str(exc) == reference_scan(noun, text)
    else:
        assert tokens[-1] == "" and [(kinds[t[0]], t) for t in tokens[:-1]] == reference_scan(noun, text)


@pytest.mark.parametrize("noun", READERS)
def test_the_scanner_suspects_each_character_that_may_begin_a_lexical_error(noun):
    # the cursor looks at the tokens only when this search finds one: a character of no kind, or one an error's token begins with
    (_, suspect), kinds, errors, _ = READERS[noun]
    named = {token[:1] for token in errors if token}
    suspects = {c for c in map(chr, range(sys.maxunicode + 1)) if not c.isspace() and (c not in kinds or c in named)}
    assert {m[0] for m in suspect.finditer("".join(map(chr, range(sys.maxunicode + 1))))} == suspects


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=LF_CHARS, max_size=24), st.text(max_size=12)))
def test_parse_term_raises_only_its_syntax_error(text):
    try:
        lf.parse_term(text)
    except lf.LFSyntaxError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=CATEGORY_CHARS, max_size=24), st.text(max_size=12)))
def test_parse_category_raises_only_its_syntax_error(text):
    try:
        parse_category(text)
    except CategorySyntaxError:
        pass


def _spliced(samples, alphabet):
    """A sample with a few characters spliced in, so that many still read."""
    return st.builds(
        lambda text, i, extra: text[:i] + extra + text[i:],
        st.sampled_from(samples),
        st.integers(0, 40),
        st.text(alphabet=alphabet, max_size=2),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(_spliced(LFS, LF_CHARS), st.text(alphabet=LF_CHARS, max_size=24)))
def test_accepted_logical_form_round_trips(text):
    try:
        t = lf.parse_term(text)
    except lf.LFSyntaxError:
        return
    assert lf.parse_term(lf.pretty_print(t)) == t


@settings(max_examples=300, deadline=None)
@given(st.one_of(_spliced(CATEGORIES, CATEGORY_CHARS), st.text(alphabet=CATEGORY_CHARS, max_size=24)))
@example(r"0\ x")  # a bare slash must not run into an x argument: that reads as a crossing slash
@example("A/ x[f=a]")
@example("A/ x'")
def test_accepted_category_round_trips(text):
    try:
        c = parse_category(text)
    except CategorySyntaxError:
        return
    assert parse_category(render_category(c)) == c


@settings(max_examples=200, deadline=None)
@given(st.one_of(_lexicon_text, st.text(max_size=40)))
def test_parse_lexicon_reports_issues_and_raises_nothing(text):
    _, issues = parse_lexicon(text)
    assert isinstance(issues, list)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    _lexicon_text,
    _sentence,
    st.sampled_from(["parse", "parse --json --goal", "test", "validate"]),
    st.sampled_from(CATEGORIES),
    st.integers(0, 2),
)
def test_cli_exits_0_1_or_2(tmp_path, text, sentence, command, goal, count):
    lexicon = tmp_path / "fuzz.ccg"
    lexicon.write_text(text, encoding="utf-8")
    suite = tmp_path / "fuzz.tsv"
    suite.write_text(f"{sentence}\t{count}\t-\n", encoding="utf-8")
    argv = {
        "validate": ["validate", "-l", str(lexicon)],
        "parse": ["parse", "-l", str(lexicon), sentence],
        "parse --json --goal": ["parse", "-l", str(lexicon), "--json", "--goal", goal, sentence],
        "test": ["test", "-l", str(lexicon), str(suite)],
    }[command]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


# One form nested to a drawn depth: (category, logical form) of an entry.
_NESTED = {
    "category parentheses": lambda n: ("(" * n + "NP" + ")" * n, "a"),
    "logical-form parentheses": lambda n: ("NP", "(" * n + "a" + ")" * n),
    "binder chain": lambda n: ("NP", "\\x. " * n + "x"),
    "subscripts": lambda n: ("NP", "f_{" * n + "a" + "}" * n),
    "left-nested application": lambda n: ("NP", "f" + " a" * n),
}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_NESTED)), st.integers(1, 3000))
def test_cli_survives_deep_nesting(tmp_path, form, depth):
    category, term = _NESTED[form](depth)
    lexicon = tmp_path / "deep.ccg"
    lexicon.write_text(f"w := {category} : {term} ;\n", encoding="utf-8")
    suite = tmp_path / "deep.tsv"
    suite.write_text("w\t1\t-\n", encoding="utf-8")
    for argv in (
        ["parse", "-l", str(lexicon), "--goal", category, "w"],
        ["validate", "-l", str(lexicon)],
        ["test", "-l", str(lexicon), str(suite)],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())

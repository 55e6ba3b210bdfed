"""Fuzzed input: the readers raise only their own syntax errors, and the CLI
maps whatever it is given to exit 0, 1 or 2 without a traceback.

Inputs are short and example counts small, so these run in about a second.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from ccgparse import logical_form as lf
from ccgparse.category import CategorySyntaxError, parse_category
from ccgparse.cli import main
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

import json
import subprocess
import sys

import pytest

import ccgparse
from ccgparse.cli import main

FRAGMENT = str(ccgparse.fragment_path())
CORPUS = str(ccgparse.corpus_path())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse

def test_parse_success(capsys):
    code, out, _ = run(capsys, "parse", "-l", FRAGMENT, "I picked the book up")
    assert code == 0
    assert "cause (init (hold_{" in out


def test_parse_goal_filters_idiom_reading(capsys):
    code, out, _ = run(capsys, "parse", "-l", FRAGMENT, "--goal", "NP", "the bucket that you kicked")
    assert code == 0
    assert "die" not in out
    assert "kick" in out


@pytest.mark.parametrize(
    "goal, code",
    [
        ("NP[weight=+]", 1),
        ("NP[weight=-]", 0),
        ("NP[lexc=-]", 1),
        ("NP[lexc=+]", 0),
        ('"the book"', 0),
        ('"the pail"', 1),
    ],
)
def test_parse_goal_fills_like_an_argument_slot(capsys, goal, code):
    # "the book" is two tokens (weight -) and book is marked [lexc+]
    assert run(capsys, "parse", "-l", FRAGMENT, "--goal", goal, "the book")[0] == code


@pytest.mark.parametrize(
    "sentence, near_misses",
    [
        ("the book", ["[0:2] the book := NP[head=book] : def book"]),
        ("John", ["[0:1] John := NP[agr=3s] : j", r"[0:1] John := S/(S\NP[agr=3s]) : \p. p j"]),
    ],
)
def test_a_goal_no_parse_lists_the_readings_that_missed_the_goal(capsys, sentence, near_misses):
    code, out, _ = run(capsys, "parse", "-l", FRAGMENT, "--goal", "S", sentence)
    assert code == 1
    assert out.splitlines() == [f"NO PARSE: {sentence}", "longest constituents found:"] + ["  " + m for m in near_misses]
    code, out, _ = run(capsys, "parse", "-l", FRAGMENT, "--json", "--goal", "S", sentence)
    assert code == 1
    assert [f"[{m['span'][0]}:{m['span'][1]}] {sentence} := {m['category']} : {m['lf']}" for m in json.loads(out)["near_misses"]] == near_misses


def test_parse_unknown_token(capsys):
    code, _, err = run(capsys, "parse", "-l", FRAGMENT, "xyzzy")
    assert code == 2
    assert "xyzzy" in err


def test_parse_no_parse_exit_one(capsys):
    code, out, _ = run(capsys, "parse", "-l", FRAGMENT, "I picked the very very very long book up")
    assert code == 1
    assert out.startswith("NO PARSE")


def test_parse_json_mode_is_pure_json(capsys):
    code, out, _ = run(capsys, "parse", "-l", FRAGMENT, "--json", "John kicked the bucket")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["readings"]) == 2


def test_parse_case_fold(capsys):
    code, _, _ = run(capsys, "parse", "-l", FRAGMENT, "--case-fold", "gwelodd mary john")
    assert code == 0


CAPITALIZED_IDIOM = r"""
the := NP/N : \x. def x ;
Bucket := N : bucket ;
John := NP : j ;
kicked := (S\NP)/*"the Bucket" : \x\y. die_{x} y ;
"""


def test_case_fold_reaches_string_categories(capsys, tmp_path):
    path = write(tmp_path, CAPITALIZED_IDIOM)
    for flags in ([], ["--case-fold"]):
        code, out, _ = run(capsys, "parse", "-l", path, *flags, "John kicked the Bucket")
        assert code == 0
        assert out.startswith("reading 1: S : die_{def bucket} j\n")


def test_case_fold_reaches_a_string_goal(capsys):
    folded = run(capsys, "parse", "-l", FRAGMENT, "--case-fold", "--goal", '"The book"', "The book")
    assert folded == run(capsys, "parse", "-l", FRAGMENT, "--goal", '"the book"', "the book")
    assert folded[0] == 0
    assert folded[1].startswith("reading 1: NP[head=book] : def book\n")


def test_case_fold_ignores_the_sentence_case(capsys, corpus):
    for sentence, _, _ in corpus:
        folded = run(capsys, "parse", "-l", FRAGMENT, "--case-fold", sentence)
        upper = run(capsys, "parse", "-l", FRAGMENT, "--case-fold", sentence.upper())
        assert upper[:2] == folded[:2], sentence


def test_parse_all_derivations(capsys):
    code, out, _ = run(capsys, "parse", "-l", FRAGMENT, "--goal", "S", "--all-derivations", "John persuaded Mary to hit Harry")
    assert code == 0
    assert out.count("persuade (hit h m) m j") > 2  # several derivations, one reading


def test_all_derivations_lists_each_near_miss_once(capsys):
    # a near miss shows no derivation, so listing one per derivation only repeats it
    sentence = "I picked the long long long long book up"
    packed = run(capsys, "parse", "-l", FRAGMENT, sentence)
    assert packed[0] == 1 and packed[1].count("\n") == 3
    assert run(capsys, "parse", "-l", FRAGMENT, "--all-derivations", sentence) == packed


@pytest.mark.parametrize("entries", [("a := N : a ;", "a := N : a [lexc+] ;"), ("a := N : a [lexc+] ;", "a := N : a ;")])
@pytest.mark.parametrize("goal", ["N[lexc=+]", "N[lexc=-]"])
def test_a_lexc_goal_finds_its_reading_whatever_the_entry_order(capsys, tmp_path, entries, goal):
    # the two entries are one reading that differs in lexc: the goal picks the edge that fills it
    code, out, _ = run(capsys, "parse", "-l", write(tmp_path, "\n".join(entries) + "\n"), "--goal", goal, "a")
    assert (code, out.count("reading ")) == (0, 1)


def test_parse_missing_file(capsys):
    code, _, err = run(capsys, "parse", "-l", "no-such-file.ccg", "John")
    assert code == 2 and "cannot read" in err


def test_bad_flag_value(capsys):
    code, _, err = run(capsys, "parse", "-l", FRAGMENT, "--weight-threshold", "0", "John")
    assert code == 2 and "at least 1" in err


def test_max_steps_budget_surfaces_as_operational_error(capsys):
    code, _, err = run(capsys, "parse", "-l", FRAGMENT, "--max-steps", "1", "John persuaded Mary to hit Harry")
    assert code == 2
    assert "normal form" in err


def test_weight_threshold_override(capsys):
    code, _, _ = run(capsys, "parse", "-l", FRAGMENT, "--weight-threshold", "6", "I picked the very very very long book up")
    assert code == 0
    # both flags are views of the checked lexicon, so --case-fold keeps the threshold
    sentence = "I PICKED the very very very long book UP"
    assert run(capsys, "parse", "-l", FRAGMENT, "--case-fold", sentence)[0] == 1
    assert run(capsys, "parse", "-l", FRAGMENT, "--weight-threshold", "6", "--case-fold", sentence)[0] == 0


# ---------------------------------------------------------------------------
# validate

def write(tmp_path, text):
    path = tmp_path / "mini.ccg"
    path.write_text(text, encoding="utf-8")
    return str(path)


GOOD = r"""
the := NP[head=?h]/N[head=?h] : \x. def x ;
bucket := N[head=bucket] : bucket [lexc+] ;
kicked := (S\NP)/*"the bucket" : \x\y. die_{x} y ;
"""


def test_validate_good_fragment(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "-l", write(tmp_path, GOOD))
    assert code == 0
    assert "ok" in out


@pytest.mark.parametrize("flag", [["--max-steps", "1"], ["--weight-threshold", "6"], ["--case-fold"]])
def test_validate_takes_no_parse_settings(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "-l", FRAGMENT, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_validate_singleton_as_result(capsys, tmp_path):
    path = write(tmp_path, r'up := "up"/NP : \x. up x ;' + "\nup := ((S\\NP)\\(S\\NP))/NP : \\x\\p\\y. up (p y) x ;")
    code, out, _ = run(capsys, "validate", "-l", path)
    assert code == 1
    assert "SINGLETON_AS_RESULT" in out


def test_validate_non_star_singleton_slash(capsys, tmp_path):
    path = write(tmp_path, GOOD + '\nshot := (S\\NP)/"the bucket" : \\x\\y. die_{x} y ;')
    code, out, _ = run(capsys, "validate", "-l", path)
    assert code == 1
    assert "NON_STAR_SINGLETON_SLASH" in out


def test_validate_reports_line_numbers(capsys, tmp_path):
    path = write(tmp_path, GOOD + '\nshot := (S\\NP)/"the bucket" : \\x\\y. die_{x} y ;')
    code, out, _ = run(capsys, "validate", "-l", path)
    assert code == 1
    assert "line 6" in out


def test_validate_shipped_fragment(capsys):
    code, out, _ = run(capsys, "validate", "-l", FRAGMENT)
    assert code == 0
    assert "LEXICAL_WRAP" in out  # informational note only


# ---------------------------------------------------------------------------
# test command

def test_suite_shipped_corpus(capsys):
    code, out, _ = run(capsys, "test", "-l", FRAGMENT, CORPUS)
    assert code == 0
    assert "0 failed" in out


def test_suite_expected_failure_reported(capsys, tmp_path):
    suite = tmp_path / "bad.tsv"
    suite.write_text(
        "Mary dragged and John kicked the bucket\t1\tdrag (def bucket) m & die_{def bucket} j\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "test", "-l", FRAGMENT, str(suite))
    assert code == 1
    assert out.startswith("FAIL")


def test_suite_empty(capsys, tmp_path):
    suite = tmp_path / "empty.tsv"
    suite.write_text("# nothing here\n", encoding="utf-8")
    code, out, _ = run(capsys, "test", "-l", FRAGMENT, str(suite))
    assert code == 0
    assert "0 passed, 0 failed" in out


def test_suite_malformed_line(capsys, tmp_path):
    suite = tmp_path / "malformed.tsv"
    suite.write_text("just a sentence with no tabs\n", encoding="utf-8")
    code, _, err = run(capsys, "test", "-l", FRAGMENT, str(suite))
    assert code == 2
    assert ":1:" in err


def test_suite_dash_skips_lf_check(capsys, tmp_path):
    suite = tmp_path / "dash.tsv"
    suite.write_text("John kicked the bucket\t2\t-\n", encoding="utf-8")
    code, out, _ = run(capsys, "test", "-l", FRAGMENT, str(suite))
    assert code == 0


# ---------------------------------------------------------------------------
# operational errors: exit 2 with one line, never a traceback

def test_suite_reports_exhausted_budget_as_failure(capsys):
    code, out, err = run(capsys, "test", "-l", FRAGMENT, "--max-steps", "1", CORPUS)
    assert code == 1
    assert "FAIL  John persuaded Mary to hit Harry  [no normal form within 1 steps]" in out.splitlines()
    assert err == ""


DIVERGENT = r"""
the := NP/N : \n. (\x. x x) (\x. x x) ;
bucket := N : bucket ;
kicked := (S\NP)/*"the bucket" : \x\y. die_{x} y ;
"""


@pytest.mark.parametrize("command", ["validate", "parse", "test"])
def test_divergent_singleton_derivation_is_operational_error(capsys, tmp_path, command):
    suite = tmp_path / "suite.tsv"
    suite.write_text("kicked\t0\t-\n", encoding="utf-8")
    argv = {"validate": [], "parse": ["kicked"], "test": [str(suite)]}[command]
    code, out, err = run(capsys, command, "-l", write(tmp_path, DIVERGENT), *argv)
    assert code == 2
    assert out == ""
    assert err == "line 2: logical form of the := NP/N: no normal form within 10000 steps\n"


DIVERGENT_DERIVATION = r"""
the := NP/N : \n. n n ;
bucket := N : \x. x x ;
kicked := (S\NP)/*"the bucket" : \x\y. die_{x} y ;
"""


@pytest.mark.parametrize("command", ["validate", "parse", "test"])
def test_budget_error_names_the_singleton_whose_derivation_diverges(capsys, tmp_path, command):
    suite = tmp_path / "suite.tsv"
    suite.write_text("kicked\t0\t-\n", encoding="utf-8")
    # the lexicon check runs under the lexicon's own budget, not --max-steps
    argv = {"validate": [], "parse": ["--max-steps", "5", "kicked"], "test": [str(suite)]}[command]
    code, out, err = run(capsys, command, "-l", write(tmp_path, DIVERGENT_DERIVATION), *argv)
    assert code == 2
    assert out == ""
    assert err == 'line 4: derivation of "the bucket": no normal form within 10000 steps\n'


# (\x. x x) (\y. y y) diverges, and only the Q over "a b" makes it
DEAD_DIVERGENT = r"""
atoms Q ;
a := Q/N : \x. x x ;
a := S/S : \p. p ;
b := N : \y. y y ;
d := S\N : \n. h ;
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["a b d"], 0),  # the Q is used by no reading: its logical form is never made
        (["a b"], 2),  # the Q is the reading
        (["--goal", "N", "a b"], 2),  # the Q is the near miss
    ],
)
def test_the_step_budget_covers_readings_and_near_misses_only(capsys, tmp_path, argv, code):
    got, out, err = run(capsys, "parse", "-l", write(tmp_path, DEAD_DIVERGENT), *argv)
    assert got == code
    if code == 0:
        assert out.startswith("reading 1: S : h\n") and err == ""
    else:
        assert out == "" and err == "no normal form within 10000 steps\n"


LONG_APPLICATION = "w := NP : f " + " ".join(f"a{i}" for i in range(3000)) + " ;"
# weight stands on an atom that is not an argument of its entry: once as the
# entry's whole category, once inside a functor argument
MISPLACED_WEIGHT = "big := NP[weight=+] : big ;\nf := S/(S\\NP[weight=+]) : \\p. p big ;\nwalks := S\\NP : \\x. walk x ;\n"
MISPLACED_WEIGHT_REPORT = (
    "{d}/x.ccg: MISPLACED_COMPUTED_FEATURE: big := NP[weight=+]: computed weight on NP[weight=+], "
    "not one of the entry's arguments (line 1)\n"
    "{d}/x.ccg: MISPLACED_COMPUTED_FEATURE: f := S/(S\\NP[weight=+]): computed weight on NP[weight=+], "
    "not one of the entry's arguments (line 2)\n"
)


@pytest.mark.parametrize(
    "entry, message",
    [
        ("w := " + "(" * 600 + "NP" + ")" * 600 + " : w ;", "input nested too deeply"),
        (LONG_APPLICATION, "line 1: logical form of w := NP: input nested too deeply"),
    ],
    ids=["deep category", "long application"],
)
def test_deep_input_is_operational_error(tmp_path, entry, message):
    proc = subprocess.run(
        [sys.executable, "-m", "ccgparse", "parse", "-l", write(tmp_path, entry), "w"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"


@pytest.mark.parametrize("depth, code", [(200, 0), (250, 2)])
def test_right_nested_logical_form_depth(tmp_path, depth, code):
    """The logical-form reader, not the reducer, sets the limit."""
    entry = "w := NP : " + "f (" * depth + "a" + ")" * depth + " ;"
    proc = subprocess.run(
        [sys.executable, "-m", "ccgparse", "parse", "-l", write(tmp_path, entry), "w"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    assert proc.stderr == ("" if code == 0 else "input nested too deeply\n")


def test_validate_rejects_a_logical_form_every_parse_rejects(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ccgparse", "validate", "-l", write(tmp_path, LONG_APPLICATION)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "line 1: logical form of w := NP: input nested too deeply\n"


@pytest.mark.parametrize("command", ["validate", "parse"])
def test_a_divergent_spine_is_a_budget_error(capsys, tmp_path, command):
    argv = {"validate": [], "parse": ["w"]}[command]
    code, out, err = run(capsys, command, "-l", write(tmp_path, r"w := NP : (\x. x x x) (\x. x x x) ;"), *argv)
    assert code == 2
    assert out == ""
    assert err == "line 1: logical form of w := NP: no normal form within 10000 steps\n"


# each entry normalizes on its own; composing two of them nests twice as deep
DEEP_DERIVATION = (
    r"w := NP/NP : \x. f x " + " ".join(f"a{i}" for i in range(600)) + " ;\n"
    + 'v := S/*"w w" : \\x. x ;\n'
)


@pytest.mark.parametrize("command", ["validate", "parse", "test"])
def test_depth_error_names_the_singleton_whose_derivation_nests_too_deeply(capsys, tmp_path, command):
    suite = tmp_path / "suite.tsv"
    suite.write_text("w\t1\t-\n", encoding="utf-8")
    argv = {"validate": [], "parse": ["w"], "test": [str(suite)]}[command]
    code, out, err = run(capsys, command, "-l", write(tmp_path, DEEP_DERIVATION), *argv)
    assert code == 2
    assert out == ""
    assert err == 'line 2: derivation of "w w": input nested too deeply\n'


# ---------------------------------------------------------------------------
# exit-code contract: one case per path that no other test runs; "{d}"
# stands for the test's directory in file names, argv and expected output;
# a file given as bytes is written as they are

CONTRACT = [
    ("empty sentence", {}, ["parse", "-l", FRAGMENT, ""], 2, "", "empty sentence\n"),
    ("blank sentence", {}, ["parse", "-l", FRAGMENT, "  "], 2, "", "empty sentence\n"),
    (
        "bad goal",
        {},
        ["parse", "-l", FRAGMENT, "--goal", "S/", "John"],
        2,
        "",
        "bad goal category: unexpected end of category\n",
    ),
    (
        "bad goal token",
        {},
        ["parse", "-l", FRAGMENT, "--goal", "/", "John walked"],
        2,
        "",
        "bad goal category: unexpected '/' in category\n",
    ),
    (
        "computed feature on a goal's argument",
        {},
        ["parse", "-l", FRAGMENT, "--goal", "S\\NP[weight=+]", "picked up the book"],
        2,
        "",
        "bad goal category: computed weight on NP[weight=+], not the goal itself\n",
    ),
    (
        "computed feature on a goal's result",
        {},
        ["parse", "-l", FRAGMENT, "--goal", "S[weight=+]\\NP", "picked up the book"],
        2,
        "",
        "bad goal category: computed weight on S[weight=+], not the goal itself\n",
    ),
    (
        "empty string goal",
        {},
        ["parse", "-l", FRAGMENT, "--goal", '""', "the book"],
        2,
        "",
        "bad goal category: EMPTY_SINGLETON: a string category cannot be empty\n",
    ),
    (
        "string goal result",
        {},
        ["parse", "-l", FRAGMENT, "--goal", '"up"/*NP', "up the book"],
        2,
        "",
        'bad goal category: SINGLETON_AS_RESULT: "up"/*NP puts a string category in result position\n',
    ),
    (
        "string goal argument under a non-star slash",
        {},
        ["parse", "-l", FRAGMENT, "--goal", 'S\\NP/"up"', "picked up"],
        2,
        "",
        'bad goal category: NON_STAR_SINGLETON_SLASH: (S\\NP)/"up" must use an application-only slash on its string argument\n',
    ),
    (
        "undeclared goal atom",
        {},
        ["parse", "-l", FRAGMENT, "--goal", "Np", "the book"],
        2,
        "",
        "bad goal category: UNDECLARED_ATOM: category symbol 'Np' is not declared\n",
    ),
    (
        "string category of other words under validate",
        {"x.ccg": 'a := "b" : x ;\nb := NP : y ;\n'},
        ["validate", "-l", "{d}/x.ccg"],
        1,
        '{d}/x.ccg: SINGLETON_AS_RESULT: a := "b": a string category is an argument, '
        "or the category of its own words only (line 1)\n",
        "",
    ),
    (
        "repeated goal attribute",
        {},
        ["parse", "-l", FRAGMENT, "--goal", "NP[a=b,a=c]", "John"],
        2,
        "",
        "bad goal category: repeated feature attribute 'a'\n",
    ),
    (
        "repeated attribute under validate",
        {"x.ccg": "w := NP[a=b,a=c] : w ;\n"},
        ["validate", "-l", "{d}/x.ccg"],
        1,
        "",
        "{d}/x.ccg: line 1: error: bad category: repeated feature attribute 'a'\n",
    ),
    (
        "duplicated deep entry under validate",
        {"x.ccg": LONG_APPLICATION + "\n" + LONG_APPLICATION + "\n"},
        ["validate", "-l", "{d}/x.ccg"],
        2,
        "",
        "line 1: logical form of w := NP: input nested too deeply\n",
    ),
    (
        "duplicated deep entry under parse",
        {"x.ccg": LONG_APPLICATION + "\n" + LONG_APPLICATION + "\n"},
        ["parse", "-l", "{d}/x.ccg", "w"],
        2,
        "",
        "line 1: logical form of w := NP: input nested too deeply\n",
    ),
    (
        "unreadable suite",
        {},
        ["test", "-l", FRAGMENT, "{d}/none.tsv"],
        2,
        "",
        "cannot read suite {d}/none.tsv: [Errno 2] No such file or directory: '{d}/none.tsv'\n",
    ),
    (
        "suite not UTF-8",
        {"s.tsv": b"John kicked the bucket\t2\t-\n\xff\n"},
        ["test", "-l", FRAGMENT, "{d}/s.tsv"],
        2,
        "",
        "cannot read suite {d}/s.tsv: 'utf-8' codec can't decode byte 0xff in position 27: invalid start byte\n",
    ),
    (
        "lexicon not UTF-8 under validate",
        {"x.ccg": b"w := NP : w ;\n\xff\n"},
        ["validate", "-l", "{d}/x.ccg"],
        2,
        "",
        "cannot read lexicon {d}/x.ccg: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte\n",
    ),
    (
        "lexicon not UTF-8 under parse",
        {"x.ccg": b"w := NP : w ;\n\xff\n"},
        ["parse", "-l", "{d}/x.ccg", "w"],
        2,
        "",
        "cannot read lexicon {d}/x.ccg: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte\n",
    ),
    (
        "lexicon with a byte-order mark under validate",
        {"x.ccg": b'\xef\xbb\xbfw := NP : w ;\nv := S/*"w" : \\x. x ;\n'},
        ["validate", "-l", "{d}/x.ccg"],
        0,
        "{d}/x.ccg: ok (2 entries)\n",
        "",
    ),
    (
        "lexicon with a byte-order mark under parse",
        {"x.ccg": b"\xef\xbb\xbfw := NP : w ;\n"},
        ["parse", "-l", "{d}/x.ccg", "w"],
        0,
        "reading 1: NP : w\nw\n---\nNP\n: w\n",
        "",
    ),
    (
        "suite with a byte-order mark",
        {"s.tsv": b"\xef\xbb\xbfJohn kicked the bucket\t2\t-\n"},
        ["test", "-l", FRAGMENT, "{d}/s.tsv"],
        0,
        "PASS  John kicked the bucket\n1 passed, 0 failed\n",
        "",
    ),
    (
        "bad reading count",
        {"s.tsv": "John kicked the bucket\tx\t-\n"},
        ["test", "-l", FRAGMENT, "{d}/s.tsv"],
        2,
        "",
        "{d}/s.tsv:1: bad reading count 'x'\n",
    ),
    (
        "bad expected logical form",
        {"s.tsv": "John kicked the bucket\t2\tkick (\n"},
        ["test", "-l", FRAGMENT, "{d}/s.tsv"],
        2,
        "",
        "{d}/s.tsv:1: bad expected logical form: unexpected end of logical form\n",
    ),
    (
        "lexicon syntax error under parse",
        {"x.ccg": "the := NP/ : \\x. x ;\n"},
        ["parse", "-l", "{d}/x.ccg", "the"],
        2,
        "",
        "{d}/x.ccg: line 1: error: bad category: unexpected end of category\n",
    ),
    (
        "validation violation under parse",
        {"x.ccg": 'up := "up"/NP : \\x. up x ;\n'},
        ["parse", "-l", "{d}/x.ccg", "up"],
        2,
        "",
        '{d}/x.ccg: SINGLETON_AS_RESULT: "up"/NP puts a string category in result position (line 1)\n',
    ),
    (
        "computed feature off the argument spine under validate",
        {"x.ccg": MISPLACED_WEIGHT},
        ["validate", "-l", "{d}/x.ccg"],
        1,
        MISPLACED_WEIGHT_REPORT,
        "",
    ),
    (
        "computed feature off the argument spine under parse",
        {"x.ccg": MISPLACED_WEIGHT},
        ["parse", "-l", "{d}/x.ccg", "f walks"],
        2,
        "",
        MISPLACED_WEIGHT_REPORT,
    ),
    (
        "suite failure",
        {"s.tsv": "John kicked the bucket\t5\t-\n"},
        ["test", "-l", FRAGMENT, "{d}/s.tsv"],
        1,
        "FAIL  John kicked the bucket  [expected 5 reading(s), got 2 (die_{def bucket} j, kick (def bucket) j)]\n"
        "0 passed, 1 failed\n",
        "",
    ),
]


@pytest.mark.parametrize("files, argv, code, out, err", [c[1:] for c in CONTRACT], ids=[c[0] for c in CONTRACT])
def test_exit_code_contract(capsys, tmp_path, files, argv, code, out, err):
    d = str(tmp_path)
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text, encoding="utf-8")
    got = run(capsys, *(a.replace("{d}", d) for a in argv))
    assert got == (code, out.replace("{d}", d), err.replace("{d}", d))


# ---------------------------------------------------------------------------
# module execution

def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ccgparse", "parse", "-l", FRAGMENT, "gwelodd Mary John"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "saw j m" in proc.stdout

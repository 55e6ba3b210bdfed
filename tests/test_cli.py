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


def test_parse_all_derivations(capsys):
    code, out, _ = run(capsys, "parse", "-l", FRAGMENT, "--goal", "S", "--all-derivations", "John persuaded Mary to hit Harry")
    assert code == 0
    assert out.count("persuade (hit h m) m j") > 2  # several derivations, one reading


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


LONG_APPLICATION = "w := NP : f " + " ".join(f"a{i}" for i in range(3000)) + " ;"


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


def test_validate_rejects_a_logical_form_every_parse_rejects(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ccgparse", "validate", "-l", write(tmp_path, LONG_APPLICATION)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "line 1: logical form of w := NP: input nested too deeply\n"


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
# stands for the test's directory in file names, argv and expected output

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
        "unreadable suite",
        {},
        ["test", "-l", FRAGMENT, "{d}/none.tsv"],
        2,
        "",
        "cannot read suite {d}/none.tsv: [Errno 2] No such file or directory: '{d}/none.tsv'\n",
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

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
    assert err == "no normal form within 10000 steps\n"


@pytest.mark.parametrize(
    "entry",
    [
        "w := " + "(" * 600 + "NP" + ")" * 600 + " : w ;",
        "w := NP : f " + " ".join(f"a{i}" for i in range(3000)) + " ;",
    ],
    ids=["deep category", "long application"],
)
def test_deep_input_is_operational_error(tmp_path, entry):
    proc = subprocess.run(
        [sys.executable, "-m", "ccgparse", "parse", "-l", write(tmp_path, entry), "w"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input nested too deeply\n"


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

"""Acceptance suite.

One test per criterion; each prints an ACCEPTANCE line on success and run
with ``pytest -v -s`` shows one pass/fail line per criterion.  Expected
values were derived by hand before implementation and are frozen here.
"""

import re
from pathlib import Path

import pytest

import ccgparse
from ccgparse import logical_form as lf
from ccgparse.category import Atom, parse_category
from ccgparse.cli import main
from ccgparse.derivation import document, read_json, render_ascii, render_json
from ccgparse.lexicon import parse_lexicon, render_lexicon, tokenize
from ccgparse.parser import ParserError, build_chart, chart_readings, parse

import lfhelpers as lfh
from bruteforce import enumerate_readings
from genterms import sample

GOLDEN = Path(__file__).parent / "golden"

PARTICLE_LF = lf.parse_term(r"\x\p\y. up (p y) x")


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def readings(fragment, sentence, goal=None):
    tokens = tokenize(sentence)
    return parse(fragment, tokens, parse_category(goal) if goal else None)


def spine_heads(t):
    """Every constant heading an application spine anywhere in the term."""
    out = set()

    def walk(t):
        match t:
            case lf.App(_, _):
                head, args = lf.spine(t)
                if isinstance(head, lf.Const):
                    out.add(head.name)
                walk(head)
                for a in args:
                    walk(a)
            case lf.Abs(_, body):
                walk(body)
            case lf.Const(_, cs):
                for c in cs:
                    walk(c)
            case _:
                pass

    walk(t)
    return out


# ---------------------------------------------------------------------------
# 1. golden positive derivations

def test_c1_persuade_single_reading_family(fragment):
    edges = readings(fragment, "John persuaded Mary to hit Harry", "S")
    assert len(edges) == 1
    assert lf.alpha_eq(edges[0].lf, lf.parse_term("persuade (hit h m) m j"))
    report("1a persuade")


def test_c1_picked_the_book_up(fragment):
    edges = readings(fragment, "I picked the book up", "S")
    expected = lf.parse_term(r"cause (init (hold_{\x\p\y. up (p y) x} (def book) i)) i")
    assert any(lf.alpha_eq(e.lf, expected) for e in edges)
    report("1b picked the book up")


def test_c1_picked_up_the_book(fragment):
    edges = readings(fragment, "picked up the book")
    heads = [e for e in edges if "pick" in lfh.head_constants(e.lf)]
    assert heads

    def pick_subscripts(t):
        match t:
            case lf.Const("pick", cs):
                return list(cs)
            case lf.Const(_, cs):
                return [s for c in cs for s in pick_subscripts(c)]
            case lf.Abs(_, body):
                return pick_subscripts(body)
            case lf.App(f, a):
                return pick_subscripts(f) + pick_subscripts(a)
            case _:
                return []

    subs = pick_subscripts(heads[0].lf)
    assert len(subs) == 1 and lf.alpha_eq(subs[0], PARTICLE_LF)
    report("1c picked up the book")


def test_c1_beans_relativization(fragment):
    edges = readings(fragment, "the beans that you spilled", "NP")
    idiomatic = [e for e in edges if lfh.applies_to(e.lf, "divulge", "secret")]
    assert idiomatic
    category = idiomatic[0].category
    assert isinstance(category, Atom) and category.name == "NP"
    assert dict(category.features).get("head") == "beans"
    report("1d the beans that you spilled")


def test_c1_bucket_relativization_literal(fragment):
    edges = readings(fragment, "the bucket that you kicked", "NP")
    assert len(edges) >= 1
    assert any("kick" in spine_heads(e.lf) for e in edges)
    report("1e the bucket that you kicked")


def test_c1_twiddled_my_thumbs(fragment):
    edges = readings(fragment, "I twiddled my thumbs", "S")
    wanted = [
        e
        for e in edges
        if {"pass", "time", "inalien"} <= lfh.constants(e.lf)
        and {"pass", "inalien"} <= lfh.head_constants(e.lf)
    ]
    assert wanted
    report("1f I twiddled my thumbs")


# ---------------------------------------------------------------------------
# 2. golden negative constraints

NEGATIVES = [
    "the bucket that you kicked",
    "Mary dragged and John kicked the bucket",
    "John kicked and Mary did not kick the bucket",
    "You spilled and Mary cooked the beans",
    "I twiddled his thumbs",
    "to spill the bean",
]


@pytest.mark.parametrize("sentence", NEGATIVES)
def test_c2_no_idiomatic_readings(fragment, sentence):
    edges = readings(fragment, sentence)
    assert edges, f"{sentence!r} should still have literal readings"
    for e in edges:
        assert not (lfh.head_constants(e.lf) & lfh.IDIOM_HEADS)
        assert not (lfh.constants(e.lf) & lfh.IDIOM_HEADS)


def test_c2_report():
    report("2 negative constraints")


# ---------------------------------------------------------------------------
# 3. validator suite via the command line

GOOD = r"""
the := NP[head=?h]/N[head=?h] : \x. def x ;
bucket := N[head=bucket] : bucket [lexc+] ;
kicked := (S\NP)/*"the bucket" : \x\y. die_{x} y ;
"""


def test_c3_validator_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.ccg"
    good.write_text(GOOD, encoding="utf-8")
    assert main(["validate", "-l", str(good)]) == 0
    capsys.readouterr()

    result_singleton = tmp_path / "result_singleton.ccg"
    result_singleton.write_text(r'up := "up"/NP : \x. up x ;', encoding="utf-8")
    assert main(["validate", "-l", str(result_singleton)]) == 1
    assert "SINGLETON_AS_RESULT" in capsys.readouterr().out

    soft_slash = tmp_path / "soft_slash.ccg"
    soft_slash.write_text(GOOD + '\nshot := (S\\NP)/"the bucket" : \\x\\y. die_{x} y ;', encoding="utf-8")
    assert main(["validate", "-l", str(soft_slash)]) == 1
    assert "NON_STAR_SINGLETON_SLASH" in capsys.readouterr().out
    report("3 validator suite")


def test_c3_suite_runner_full_corpus(capsys):
    code = main(["test", "-l", str(ccgparse.fragment_path()), str(ccgparse.corpus_path())])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out
    report("3+ corpus suite via cli")


# ---------------------------------------------------------------------------
# 4. oracle equivalence

def test_c4_cky_equals_bruteforce(fragment, corpus):
    checked = 0
    for sentence, _, _ in corpus:
        tokens = tokenize(sentence)
        if len(tokens) > 7:
            continue
        chart = build_chart(fragment, tokens)
        cky = {e.reading_key() for e in chart_readings(chart)}
        brute = enumerate_readings(fragment, tokens)
        assert cky == brute, sentence
        checked += 1
    assert checked >= 10
    report(f"4 oracle equivalence ({checked} sentences)")


# ---------------------------------------------------------------------------
# 5. normalization property suite

def test_c5_normalization_properties():
    failures = []
    for i, (term, free) in enumerate(sample(20260809, 1000, depth=6)):
        normal = lf.beta_normalize(term)
        applicative = lfh.applicative_normalize(term)
        if not lf.alpha_eq(normal, applicative):
            failures.append((i, "strategy disagreement"))
        for name in free or ["x"]:
            if not lf.alpha_eq(lf.substitute(term, name, lf.Var(name)), term):
                failures.append((i, "substitution identity"))
        if not normal.free <= term.free:
            failures.append((i, "free variable containment"))
    assert failures == []
    report("5 normalization properties (1000 terms)")


# ---------------------------------------------------------------------------
# 6. monotonicity of literal readings

def idiom_entry(entry):
    from ccgparse.category import Functor, Singleton

    def has_idiom_mark(c):
        match c:
            case Singleton(_):
                return True
            case Atom(_, feats):
                return dict(feats).get("special") == "+"
            case Functor(result, _, argument):
                return has_idiom_mark(result) or has_idiom_mark(argument)
            case _:
                return False

    return has_idiom_mark(entry.category)


def literal_readings(lexicon, sentence):
    try:
        edges = readings(lexicon, sentence)
    except ParserError:
        return set()
    return {
        e.reading_key()
        for e in edges
        if not (lfh.constants(e.lf) & lfh.IDIOM_HEADS) and not lfh.has_subscripts(e.lf)
    }


def test_c6_literal_readings_survive_idiom_removal(fragment, corpus):
    kept: dict[str, list] = {}
    removed = 0
    for first, group in fragment.entries.items():
        for entry in group:
            if idiom_entry(entry):
                removed += 1
            else:
                kept.setdefault(first, []).append(entry)
    assert removed >= 8
    stripped = fragment.copy(entries=kept)
    for sentence, _, _ in corpus:
        before = literal_readings(fragment, sentence)
        after = literal_readings(stripped, sentence)
        assert before == after, sentence
    report("6 monotonicity of literal readings")


# ---------------------------------------------------------------------------
# 7. round trips

def test_c7_lexicon_round_trip(fragment):
    again, issues = parse_lexicon(render_lexicon(fragment))
    assert not [i for i in issues if i.severity == "error"]
    assert again.all_entries() == fragment.all_entries()
    assert (again.weight_threshold, again.default_modality) == (fragment.weight_threshold, fragment.default_modality)
    report("7a lexicon render/parse round trip")


def test_c7_json_round_trip_all_golden(fragment, corpus):
    for sentence, _, _ in corpus:
        doc = document(build_chart(fragment, tokenize(sentence)))
        assert read_json(render_json(doc)) == doc
    report("7b derivation JSON round trip")


def test_c7_golden_files_byte_exact(fragment):
    cases = [
        ("John persuaded Mary to hit Harry", "S", "persuade.ascii.expected", render_ascii),
        ("I picked the book up", "S", "picked_up.ascii.expected", render_ascii),
        ("I picked the book up", "S", "picked_up.json.expected", render_json),
        ("I picked the very very very long book up", None, "no_parse.ascii.expected", render_ascii),
        ("You spilled and John cooked the beans", "S", "spilled_cooked.ascii.expected", render_ascii),
        ("John kicked and Mary dragged and I cooked the bucket", "S", "kicked_chain.json.expected", render_json),
        ("John kicked and Mary dragged and I cooked the bucket", "S", "kicked_chain.ascii.expected", render_ascii),
    ]
    for sentence, goal, name, renderer in cases:
        doc = document(build_chart(fragment, tokenize(sentence)), parse_category(goal) if goal else None)
        assert renderer(doc) == (GOLDEN / name).read_text(encoding="utf-8"), name
    report("7c golden files byte-exact")


def golden_blocks(name):
    """A golden file of `parse` outputs, each block headed by `# <sentence>`, as {sentence: output}."""
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    _, *parts = re.split(r"^# (.*)\n", golden, flags=re.M)
    return dict(zip(parts[::2], parts[1::2]))


def assert_parse_outputs(capsys, expected, *flags):
    for sentence in expected:
        main(["parse", *flags, "-l", str(ccgparse.fragment_path()), sentence])
        assert capsys.readouterr().out == expected[sentence], f"first differing sentence: {sentence}"


def test_c7_corpus_golden_byte_exact(capsys, corpus):
    """Default `parse` output for every corpus sentence."""
    expected = golden_blocks("corpus.ascii.expected")
    assert list(expected) == [sentence for sentence, _, _ in corpus]
    assert_parse_outputs(capsys, expected)
    report("7d corpus golden byte-exact")


def test_c7_modstack_golden_byte_exact(capsys):
    """Four modifiers in each modifier-stack frame: a NO PARSE with its near
    misses (the object NP is too heavy to shift), a lexc+ reading and an
    idiom-free literal reading."""
    expected = golden_blocks("modstack.ascii.expected")
    assert list(expected) == [
        "I picked the long very proverbial long book up",
        "I picked up the long very proverbial long book",
        "John kicked the long very proverbial long bucket",
    ]
    assert_parse_outputs(capsys, expected)
    report("7e modifier-stack golden byte-exact")


def test_c7_all_derivations_chain_golden_byte_exact(capsys):
    """Every derivation of a four-clause chain, in the order the chart adds them."""
    expected = golden_blocks("kicked_chain_all.ascii.expected")
    assert list(expected) == ["John kicked and Mary dragged and I cooked and You spilled the bucket"]
    assert_parse_outputs(capsys, expected, "--all-derivations")
    report("7f all-derivations chain golden byte-exact")

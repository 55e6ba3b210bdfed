"""Command-line interface: parse sentences, validate grammars, run suites.

Exit codes partition outcomes: 0 success, 1 linguistic negative (no parse,
violations found, suite failures), 2 operational error (unreadable files,
bad usage, lexicon syntax errors, unknown tokens, an exhausted reduction
budget, input nested too deeply).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .category import CategorySyntaxError, misplaced_computed, parse_category, render_category, validate_category
from . import logical_form as lf
from .lexicon import Lexicon, case_folded, fold_strings, lexicon_notes, parse_lexicon, tokenize, undeclared_atoms, validate_lexicon
from .parser import ParserError, build_chart, parse
from .derivation import document, render_ascii, render_json

OK, NEGATIVE, ERROR = 0, 1, 2


class CommandError(Exception):
    """An operational error: main prints the message, if any, and exits 2."""


def _read(what: str, path: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError(f"cannot read {what} {path}: {exc}") from None


def _load_lexicon(path: str, strict: bool = True):
    lexicon, issues = parse_lexicon(_read("lexicon", path))
    for issue in issues:
        print(f"{path}: {issue}", file=sys.stderr)
    if strict and any(i.severity == "error" for i in issues):
        raise CommandError()
    return lexicon, issues


def _parse_setup(args: argparse.Namespace) -> Lexicon:
    """The lexicon, validated as written, then viewed under --weight-threshold and --case-fold."""
    lexicon, _ = _load_lexicon(args.lexicon)
    violations = validate_lexicon(lexicon)
    if violations:
        raise CommandError("\n".join(f"{args.lexicon}: {v}" for v in violations))
    if args.weight_threshold is not None:
        lexicon = replace(lexicon, weight_threshold=args.weight_threshold)
    if args.case_fold:
        lexicon = case_folded(lexicon)
    return lexicon


def cmd_parse(args: argparse.Namespace) -> int:
    lexicon = _parse_setup(args)
    goal = None
    if args.goal is not None:
        try:
            goal = parse_category(args.goal, lexicon.default_modality)
        except CategorySyntaxError as exc:
            raise CommandError(f"bad goal category: {exc}") from None
        problems = [str(v) for v in validate_category(goal) + undeclared_atoms(lexicon, goal)]
        # the sentence fills the goal as one slot
        problems += [f"computed {', '.join(c)} on {render_category(p)}, not the goal itself" for p, c in misplaced_computed(goal, [goal])]
        if problems:
            raise CommandError(f"bad goal category: {problems[0]}")
        if args.case_fold:
            goal = fold_strings(goal)
    tokens = tokenize(args.sentence, args.case_fold)
    if not tokens:
        raise CommandError("empty sentence")
    doc = document(build_chart(lexicon, tokens, args.max_steps), goal, args.all_derivations)
    sys.stdout.write(render_json(doc) if args.json else render_ascii(doc))
    return OK if doc.readings else NEGATIVE


def cmd_validate(args: argparse.Namespace) -> int:
    lexicon, issues = _load_lexicon(args.lexicon, strict=False)
    syntax_errors = [i for i in issues if i.severity == "error"]
    violations = validate_lexicon(lexicon)
    for v in violations:
        print(f"{args.lexicon}: {v}")
    for note in lexicon_notes(lexicon):
        print(f"{args.lexicon}: note: {note}")
    if syntax_errors or violations:
        return NEGATIVE
    print(f"{args.lexicon}: ok ({len(lexicon.all_entries())} entries)")
    return OK


def _check_line(lexicon: Lexicon, max_steps: int, tokens: list[str], count: int, lf_specs: list[lf.Term]) -> str | None:
    """Run one suite line; None on pass, else a failure description."""
    try:
        edges = parse(lexicon, tokens, max_steps=max_steps)
    except (ParserError, lf.BudgetExceeded) as exc:
        return str(exc)
    if len(edges) != count:
        got = ", ".join(sorted(lf.pretty_print(e.lf) for e in edges)) or "none"
        return f"expected {count} reading(s), got {len(edges)} ({got})"
    for want in lf_specs:
        if not any(lf.alpha_eq(want, e.lf) for e in edges):
            return f"no reading has logical form {lf.pretty_print(want)!r}"
    return None


def cmd_test(args: argparse.Namespace) -> int:
    lexicon = _parse_setup(args)
    text = _read("suite", args.suite)
    passed = failed = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 3:
            raise CommandError(f"{args.suite}:{lineno}: expected 'sentence<TAB>count<TAB>lfs', got {len(parts)} field(s)")
        sentence, count_text, lf_text = parts
        try:
            count = int(count_text)
        except ValueError:
            raise CommandError(f"{args.suite}:{lineno}: bad reading count {count_text!r}") from None
        lf_specs: list[lf.Term] = []
        if lf_text != "-":
            try:
                lf_specs = [lf.parse_term(p.strip()) for p in lf_text.split("|")]
            except lf.LFSyntaxError as exc:
                raise CommandError(f"{args.suite}:{lineno}: bad expected logical form: {exc}") from None
        problem = _check_line(lexicon, args.max_steps, tokenize(sentence, args.case_fold), count, lf_specs)
        if problem is None:
            passed += 1
            print(f"PASS  {sentence}")
        else:
            failed += 1
            print(f"FAIL  {sentence}  [{problem}]")
    print(f"{passed} passed, {failed} failed")
    return OK if failed == 0 else NEGATIVE


def make_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ccgparse", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, settings: bool = True) -> None:
        p.add_argument("-l", "--lexicon", required=True, help="lexicon (.ccg) file")
        if not settings:
            return
        p.add_argument("--weight-threshold", type=int, default=None, metavar="N")
        p.add_argument("--max-steps", type=int, default=lf.DEFAULT_STEP_BUDGET, metavar="N", help="beta reduction budget")
        p.add_argument("--case-fold", action="store_true", help="lower-case the sentence and the lexicon's token strings")

    p = sub.add_parser("parse", help="parse a sentence and print its derivations")
    common(p)
    p.add_argument("--goal", default=None, help="accept only spanning readings that fill this category as an argument slot")
    p.add_argument("--json", action="store_true", help="emit the JSON document instead of ASCII")
    p.add_argument("--all-derivations", action="store_true", help="list every derivation of each reading (near misses are listed once)")
    p.add_argument("sentence")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("validate", help="check a lexicon against the structural constraints")
    common(p, settings=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("test", help="run a tab-separated sentence suite")
    common(p)
    p.add_argument("suite", help="suite file: sentence<TAB>count<TAB>lf1 | lf2 (or -)")
    p.set_defaults(func=cmd_test)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = make_arg_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("weight_threshold", "max_steps"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise CommandError(f"--{name.replace('_', '-')} must be at least 1")
        return args.func(args)
    except (CommandError, ParserError, lf.BudgetExceeded) as exc:
        message = str(exc)
    except RecursionError:
        message = "input nested too deeply"
    if message:
        print(message, file=sys.stderr)
    return ERROR


def entry_point() -> None:
    sys.exit(main())

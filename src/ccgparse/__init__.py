"""Combinatory categorial grammar toolkit with string-valued argument
categories for multi-word expressions and phrasal idioms."""

from importlib import resources
from pathlib import Path

from .category import (
    Atom,
    Bindings,
    Category,
    Direction,
    Functor,
    Modality,
    Singleton,
    Slash,
    Var,
    Violation,
    match_argument,
    parse_category,
    render_category,
    unify,
    validate_category,
)
from .lexicon import (
    LexEntry,
    Lexicon,
    LexiconIssue,
    lexicon_notes,
    lookup,
    parse_lexicon,
    render_lexicon,
    tokenize,
    validate_lexicon,
)
from .parser import (
    Chart,
    Edge,
    ParserError,
    RuleId,
    SentenceTooLongError,
    UnknownTokenError,
    build_chart,
    combine,
    derived_features,
    parse,
)
from .derivation import DerivationDoc, document, read_json, render_ascii, render_json

__version__ = "0.1.0"


def fragment_path() -> Path:
    """The grammar fragment shipped with the package."""
    return Path(str(resources.files(__name__).joinpath("grammars/fg2018.ccg")))


def corpus_path() -> Path:
    """The sentence suite exercising the shipped fragment."""
    return Path(str(resources.files(__name__).joinpath("grammars/corpus.tsv")))

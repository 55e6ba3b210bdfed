"""The chart parser against the brute-force oracle on generated lexicons.

Each example draws a lexicon that passes ``validate_lexicon``: atoms with
features and ``?var`` values, slashes of all four modalities, string
arguments under ``/*``, the ``X`` coordination schema, ``[lexc+]`` entries,
computed ``lexc`` and ``weight`` slots and a random weight threshold.  Its
sentence has at most six tokens: the words of a derivation by application
drawn top down, so that most sentences parse, among entries drawn at random.
Most words have two entries of one category that differ in ``lexc``, so a
chart that packs them together loses readings that the oracle finds.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from ccgparse import logical_form as lf
from ccgparse.category import Atom, Direction, Functor, Modality, Singleton, Slash, category_parts, parse_category
from ccgparse import lexicon as lx
from ccgparse.lexicon import BUILTIN_ATOMS, LexEntry, Lexicon, parse_lexicon, render_lexicon, validate_lexicon
from ccgparse.parser import COMPUTED_ATTRS, build_chart, chart_readings

from bruteforce import derivations, enumerate_readings
from lfhelpers import has_redex

ATOMS = ("S", "NP", "N", "Q")  # Q is declared by the lexicon
PHONS = (("a",), ("b",), ("c",), ("b", "c"))
STRINGS = (("c",), ("b", "c"))  # the tokens of a string argument
CONSTANTS = ("f", "g", "h")

COORDINATION = LexEntry(
    ("and",), parse_category(r"(X\*X)/*X"), lf.parse_term(r"\p\q\z. and (q z) (p z)")
)


def _atoms(computed: bool) -> st.SearchStrategy[Atom]:
    """Atoms; computed ones may carry lexc and weight, which only an entry's own argument may."""
    values = {"agr": st.sampled_from(["1s", "3s", "?a"]), "head": st.sampled_from(["b", "?h"])}
    if computed:
        values |= {"lexc": st.sampled_from("+-"), "weight": st.sampled_from("+-")}
    features = st.fixed_dictionaries({}, optional=values)
    return st.builds(lambda n, f: Atom(n, tuple(sorted(f.items()))), st.sampled_from(ATOMS), features)


_slashes = st.builds(Slash, st.sampled_from(list(Direction)), st.sampled_from(list(Modality)))
_arguments = st.one_of(
    st.tuples(_slashes, _atoms(computed=True)),
    st.tuples(_slashes, _atoms(computed=True)),
    st.tuples(_slashes, st.builds(Functor, _atoms(False), _slashes, _atoms(False))),
    st.tuples(st.builds(Slash, st.sampled_from(list(Direction)), st.just(Modality.STAR)), st.sampled_from(STRINGS).map(Singleton)),
)


def _lf(draw, category) -> lf.Term:
    """A closed logical form with a lambda for each argument of category, and maybe one more."""
    arguments = lx._spine_arguments(category)  # outermost first, as the leading lambdas bind them
    names = [f"x{i}" for i in range(len(arguments) + draw(st.integers(0, 1)))]
    # a higher-order argument may be applied, to a constant only, so that every reduction ends
    terms = [
        lf.App(lf.Var(x), lf.Const("k")) if i < len(arguments) and type(arguments[i]) is Functor and draw(st.booleans())
        else lf.Var(x)
        for i, x in enumerate(names)
    ]
    terms = draw(st.permutations(terms))
    subscripts = tuple(terms[:1]) if terms and draw(st.booleans()) else ()
    body = lf.app(lf.Const(draw(st.sampled_from(CONSTANTS)), subscripts), *terms[len(subscripts):])
    if draw(st.booleans()):
        body = lf.app(lf.Const("and"), body, lf.Const("e"))
    return lf.absn(names, body)


def _entries(draw, phon, category) -> list[LexEntry]:
    """An entry for phon and category, or two that differ in lexc and logical form."""
    lexc = draw(st.booleans())
    out = [LexEntry(phon, category, _lf(draw, category), lexc)]
    if draw(st.integers(0, 3)):  # three times in four
        out.append(LexEntry(phon, category, _lf(draw, category), not lexc))
    return out


def _plain(c):
    """c without the computed features that only an argument slot may carry."""
    if type(c) is not Atom:
        return c
    return Atom(c.name, tuple((a, v) for a, v in c.features if a not in COMPUTED_ATTRS))


def _leaves(draw, category, budget: int) -> list[tuple[tuple[str, ...], object]]:
    """(phon, category) pairs, at most budget tokens, that application may derive category from;
    the category of a coordinating "and" is None."""
    if budget < 2 or draw(st.integers(0, 3)) == 0:
        return [(draw(st.sampled_from([p for p in PHONS if len(p) <= budget])), category)]
    if budget >= 3 and draw(st.integers(0, 3)) == 0:
        left = draw(st.integers(1, budget - 2))
        return _leaves(draw, category, left) + [(("and",), None)] + _leaves(draw, category, budget - 1 - left)
    slash, slot = draw(_arguments)
    if type(slot) is Singleton:
        if len(slot.tokens) >= budget:
            return [(draw(st.sampled_from(PHONS[:3])), category)]
        right, argument = len(slot.tokens), [(slot.tokens, Atom("N"))]  # the string's own entry
    else:
        right = budget - draw(st.integers(1, budget - 1))
        argument = _leaves(draw, _plain(slot), right)
    functor = _leaves(draw, Functor(category, slash, slot), budget - right)
    return functor + argument if slash.direction is Direction.FORWARD else argument + functor


@st.composite
def grammars(draw) -> tuple[Lexicon, list[str]]:
    """A lexicon that passes validate_lexicon, read back from its own rendering, and a sentence
    of its words: the leaves of a derivation by application, among entries drawn at random."""
    derived = _leaves(draw, draw(_atoms(False)), 6)
    leaves = list(derived)
    for _ in range(draw(st.integers(0, 3))):
        category = draw(_atoms(False))
        for slash, argument in draw(st.lists(_arguments, max_size=3)):
            category = Functor(category, slash, argument)
        leaves.append((draw(st.sampled_from(PHONS)), category))
    entries = [COORDINATION] if any(c is None for _, c in leaves) or draw(st.booleans()) else []
    for phon, category in leaves:
        if category is not None:
            entries += _entries(draw, phon, category)
    strings = {p.tokens for e in entries for p in category_parts(e.category) if type(p) is Singleton}
    # a string argument is derivable when an entry of its own spells it
    entries += [LexEntry(s, Atom("N"), lf.Const("w")) for s in sorted(strings - {e.phon for e in entries})]
    lex = Lexicon(atom_declarations=BUILTIN_ATOMS | {"Q"}, weight_threshold=draw(st.integers(1, 4)))
    for line, entry in enumerate(entries, 1):
        lex.add(replace(entry, source_line=line))
    text = render_lexicon(lex)
    lex, issues = parse_lexicon(text)
    assert not [i for i in issues if i.severity == "error"], (issues, text)
    assert lex.all_entries() == entries, text
    assert validate_lexicon(lex) == [], text
    return lex, [t for phon, _ in derived for t in phon]


def shape(edge):
    """A derivation as its span, rule, reading key, lexc flag and children's shapes."""
    return (edge.span, edge.label, edge.reading_key(), edge.lexc, tuple(shape(c) for c in edge.children))


def subtrees(edge):
    yield edge
    for child in edge.children:
        yield from subtrees(child)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grammars())
def test_generated_grammars_parse_as_the_bruteforce_oracle_does(grammar):
    lex, tokens = grammar
    chart = build_chart(lex, tokens)
    assert {e.reading_key() for e in chart.spanning()} == enumerate_readings(lex, tokens)

    every = chart_readings(chart, all_derivations=True)
    assert {e.reading_key() for e in every} == {e.reading_key() for e in chart_readings(chart)}
    # every derivation, in the order a chart without packing adds them
    assert [shape(e) for e in every] == [shape(e) for e in derivations(lex, tokens)]

    for e in chart.all_edges() + [s for e in every for s in subtrees(e)]:
        assert not e.lf.free and not has_redex(e.lf), lf.pretty_print(e.lf)

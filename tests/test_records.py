"""What each kind of record promises: NamedTuple values, term nodes that
compare by value, chart edges and nodes that compare by identity, and a
lexicon copy; and that importing ccgparse leaves dataclasses unloaded."""

import subprocess
import sys

import pytest

from ccgparse import logical_form as lf
from ccgparse.category import Atom, Direction, Functor, Modality, Singleton, Slash, Var, Violation
from ccgparse.derivation import DerivationDoc, NearMiss, Reading, TreeNode
from ccgparse.lexicon import LexEntry, Lexicon, LexiconIssue, tokenize
from ccgparse.parser import Edge, Node, build_chart


def test_importing_ccgparse_leaves_dataclasses_unloaded():
    code = "import sys; print('dataclasses' in sys.modules); import ccgparse, ccgparse.cli; print('dataclasses' in sys.modules)"
    before, after = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    if before == "True":
        pytest.skip("dataclasses is loaded before ccgparse is imported")
    assert after == "False"


LEAF = TreeNode((0, 1), "NP", "w", "LEX")
# a maker of one record and a change to one of its fields
RECORDS = {
    "Atom": (lambda: Atom("NP", (("agr", "3s"),)), {"features": ()}),
    "Slash": (lambda: Slash(Direction.FORWARD, Modality.STAR), {"modality": Modality.DIAMOND}),
    "Functor": (lambda: Functor(Atom("S"), Slash(Direction.BACKWARD), Atom("NP")), {"argument": Atom("N")}),
    "Singleton": (lambda: Singleton(("the", "book")), {"tokens": ("book",)}),
    "Var": (lambda: Var("X"), {"name": "Y"}),
    "Violation": (lambda: Violation("CODE", "detail", 3), {"line": None}),
    "LexiconIssue": (lambda: LexiconIssue(1, "message"), {"severity": "warning"}),
    "LexEntry": (lambda: LexEntry(("w",), Atom("NP"), lf.Const("w"), False, 2), {"lexc": True}),
    "TreeNode": (lambda: TreeNode((0, 2), "S", "f w", ">", (LEAF,)), {"children": ()}),
    "Reading": (lambda: Reading("NP", "w", LEAF), {"lf": "v"}),
    "NearMiss": (lambda: NearMiss((0, 1), "NP", "w"), {"span": (1, 2)}),
    "DerivationDoc": (lambda: DerivationDoc(("w",), (Reading("NP", "w", LEAF),)), {"readings": ()}),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_records_are_values(kind):
    make, change = RECORDS[kind]
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a._replace(**change) != a
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], getattr(a, a._fields[0]))


def test_entries_that_differ_only_in_their_line_are_equal():
    entry = LexEntry(("w",), Atom("NP"), lf.Const("w"), False, 2)
    moved = entry._replace(source_line=9)
    assert entry == moved and not entry != moved and hash(entry) == hash(moved)
    assert len({entry, moved}) == 1


TERMS = {
    lf.Var: ("name",),
    lf.Const: ("name", "contingencies"),
    lf.Abs: ("var", "body"),
    lf.App: ("fun", "arg"),
}


@pytest.mark.parametrize("cls", TERMS, ids=lambda cls: cls.__name__)
def test_term_match_args_are_their_fields(cls):
    assert cls.__match_args__ == cls.__slots__ == TERMS[cls]


def test_terms_compare_by_value_and_print_their_fields():
    def make():
        return lf.Abs("x", lf.App(lf.Const("f", (lf.Var("x"),)), lf.Var("x")))

    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != lf.Abs("y", a.body) and lf.Var("x") != lf.Const("x") and lf.Var("x") != Var("x")
    assert repr(a) == "Abs(var='x', body=App(fun=Const(name='f', contingencies=(Var(name='x'),)), arg=Var(name='x')))"
    match a:
        case lf.Abs(v, lf.App(lf.Const(name, _), lf.Var(w))):
            assert (v, name, w) == ("x", "f", "x")
        case _:
            pytest.fail("no match")


def test_edges_and_nodes_compare_by_identity():
    edge = Edge(0, 1, Atom("NP"), lf.Const("w"))
    twin = Edge(0, 1, Atom("NP"), lf.Const("w"))
    node, node_twin = Node(0, 1, Atom("NP"), False), Node(0, 1, Atom("NP"), False)
    for a, b in ((edge, twin), (node, node_twin)):
        assert a == a and a != b and hash(a) == object.__hash__(a)
        assert not hasattr(a, "__dict__")
    assert node.ways == [] and node.ways is not node_twin.ways


def test_a_lexicon_copy_shares_its_entries_and_starts_an_empty_table(fragment):
    lex = fragment.copy()  # a table of its own to fill
    build_chart(lex, tokenize("I picked the book up"))
    assert lex.category_table.categories
    copy = lex.copy(weight_threshold=2)
    assert copy.entries is lex.entries
    assert (copy.atom_declarations, copy.default_modality) == (lex.atom_declarations, lex.default_modality)
    assert (copy.weight_threshold, lex.weight_threshold) == (2, fragment.weight_threshold)
    assert copy.category_table is not lex.category_table and not copy.category_table.categories
    assert lex.copy(entries={}).entries == {} and lex.entries
    assert Lexicon().copy().entries == {}

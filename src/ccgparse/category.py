"""Category algebra: atoms with flat features, directional modal slashes,
quoted token-string categories, and schema variables.

Every category is an immutable value; an atom's features are a plain tuple
of sorted (attribute, value) pairs.  Unification threads one substitution
dict (Bindings) and reports failure by returning None, never by raising.
category_parts is the one walk that reads a category, rebuild the one that
builds one.  Per-edge walks dispatch on type(c); pattern matching is slower.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, Container, Iterator, Mapping, NamedTuple, TypeVar

from .cursor import LETTERS, Cursor

_D = TypeVar("_D")


class Modality(Enum):
    """Slash modality. The written default is DIAMOND (harmonic)."""

    STAR = "*"      # application only
    DIAMOND = ""    # harmonic composition and substitution
    CROSS = "x"     # crossing composition
    DOT = "."       # compatible with every rule
    __hash__ = object.__hash__  # by identity, as members compare, and without Enum's Python-level hash


class Direction(Enum):
    FORWARD = "/"
    BACKWARD = "\\"
    __hash__ = object.__hash__  # as Modality's


# ---------------------------------------------------------------------------
# categories

def is_feature_variable(value: str) -> bool:
    return value.startswith("?")


def variable_display_name(name: str) -> str:
    """Strip the suffix that standardize gives a variable name."""
    return name.split("#", 1)[0]


#: An atom's features: (attribute, value) pairs sorted by attribute, each
#: attribute once, so equal atoms compare equal.  Values are constant tokens
#: or ``?var`` names; an absent attribute is underspecified and unifies with anything.
Features = tuple[tuple[str, str], ...]


class Atom(NamedTuple):
    name: str
    features: Features = ()


class Slash(NamedTuple):
    direction: Direction
    modality: Modality = Modality.DIAMOND


class Functor(NamedTuple):
    result: "Category"
    slash: Slash
    argument: "Category"


class Singleton(NamedTuple):
    """A category exactly one surface token string can substitute for."""

    tokens: tuple[str, ...]


class Var(NamedTuple):
    """A schema variable over whole categories (coordination's X)."""

    name: str


Category = Atom | Functor | Singleton | Var


def rebuild(c: Category, leaf: Callable[[Category, _D], Category], data: _D) -> Category:
    """c with every other part than a functor replaced by leaf(part, data), and every functor whose
    parts changed rebuilt from them (one whose parts did not is kept).  This is the one walk
    that builds a category, as category_parts is the one that reads one."""
    if type(c) is Functor:
        result, argument = rebuild(c.result, leaf, data), rebuild(c.argument, leaf, data)
        return c if result is c.result and argument is c.argument else Functor(result, c.slash, argument)
    return leaf(c, data)


# ---------------------------------------------------------------------------
# bindings and unification

#: A substitution: a ``?name`` string maps to a feature value (a constant or
#: another ``?name``) and a Var to a category, so a feature constant spelled
#: like a category variable is never taken for one.  Only an unbound variable
#: is ever bound, so walks end.  ``unify`` extends one in place.
Bindings = dict[str | Var, str | Category]


def _walk_feature(value: str, bnd: Bindings) -> str:
    while value in bnd:
        value = bnd[value]
    return value


def _walk_category(c: Category, bnd: Bindings) -> Category:
    while isinstance(c, Var) and c in bnd:
        c = bnd[c]
    return c


def _occurs(var: Var, c: Category, bnd: Bindings) -> bool:
    c = _walk_category(c, bnd)
    if isinstance(c, Functor):
        return _occurs(var, c.result, bnd) or _occurs(var, c.argument, bnd)
    return c == var


def _unify_feature_values(va: str, vb: str, bnd: Bindings) -> bool:
    va = _walk_feature(va, bnd)
    vb = _walk_feature(vb, bnd)
    if va == vb:
        return True
    if is_feature_variable(va):
        bnd[va] = vb
        return True
    if is_feature_variable(vb):
        bnd[vb] = va
        return True
    return False


def _unify_features(fa: Features, fb: Features, bnd: Bindings) -> bool:
    vb = dict(fb)
    for attr, va in fa:
        if attr in vb and not _unify_feature_values(va, vb[attr], bnd):
            return False
    return True


def _unify(a: Category, b: Category, bnd: Bindings) -> bool:
    a = _walk_category(a, bnd)
    b = _walk_category(b, bnd)
    if type(b) is Var and type(a) is not Var:
        a, b = b, a
    cls = type(a)
    if cls is Var:
        if a == b:
            return True
        if _occurs(a, b, bnd):
            return False
        bnd[a] = b
        return True
    if cls is not type(b):
        return False
    if cls is Atom:
        return a.name == b.name and _unify_features(a.features, b.features, bnd)
    if cls is Functor:
        return a.slash == b.slash and _unify(a.result, b.result, bnd) and _unify(a.argument, b.argument, bnd)
    return a.tokens == b.tokens


def unify(a: Category, b: Category, bindings: Bindings | None = None) -> Bindings | None:
    """Unify two categories, extending ``bindings`` in place; return them, or None.

    Atoms need equal names and compatible features (an absent attribute
    matches anything).  Functors need equal direction and modality plus
    recursive unification.  Singletons match token for token.  A variable
    binds to the opposite side, occurs-check applied.
    """
    bnd = {} if bindings is None else bindings
    return bnd if _unify(a, b, bnd) else None


def apply_bindings(c: Category, bnd: Bindings) -> Category:
    """Substitute bound variables throughout. Idempotent: chains are walked."""
    return rebuild(c, _bound, bnd)


def _bound(c: Category, bnd: Bindings) -> Category:
    # a bound Var is walked first, so that what it is bound to is substituted in too
    c = _walk_category(c, bnd)
    if type(c) is Atom:
        features = tuple([(a, _walk_feature(v, bnd)) for a, v in c.features])
        return c if features == c.features else Atom(c.name, features)
    return rebuild(c, _bound, bnd) if type(c) is Functor else c


def standardize(c: Category, mark: str = "") -> tuple[Category, int]:
    """c with its variables renamed base#<mark><n>, base the display name and n
    counted in order of first occurrence, and that count: categories equal up to
    a renaming that keeps display names standardize to one value, and a mark
    renames a standardized category apart from every unmarked one."""
    names: dict[str, str] = {}

    def name(v: str) -> str:
        return names.setdefault(v, f"{variable_display_name(v)}#{mark}{len(names)}")

    return rebuild(c, _standard, name), len(names)


def _standard(c: Category, name: Callable[[str], str]) -> Category:
    if type(c) is Atom:
        features = tuple([(a, name(v) if is_feature_variable(v) else v) for a, v in c.features])
        return c if features == c.features else Atom(c.name, features)
    return Var(name(c.name)) if type(c) is Var else c


# ---------------------------------------------------------------------------
# argument matching

def match_argument(spec: Category, category: Category, tokens: tuple[str, ...], computed: Mapping[str, str]) -> Bindings | None:
    """Match a functor's argument specification against a span of the
    sentence: its words and the category derived over it.

    A Singleton spec matches exactly when the span's tokens equal its own;
    the category is never inspected.  A polyvalent spec unifies with the
    category, except that an attribute named in ``computed`` is checked
    against the value given there for the span instead of being unified
    structurally.
    """
    if isinstance(spec, Singleton):
        return {} if tokens == spec.tokens else None
    bnd: Bindings = {}
    if isinstance(spec, Atom):
        kept = []
        for attr, want in spec.features:
            if attr not in computed:
                kept.append((attr, want))
            elif not _unify_feature_values(want, computed[attr], bnd):
                return None
        if len(kept) < len(spec.features):
            spec = Atom(spec.name, tuple(kept))
    return unify(spec, category, bnd)


#: Atom attributes computed from the span that fills a slot (match_argument's ``computed``), never stored.
COMPUTED_ATTRS = ("lexc", "weight")


def computed_attrs(c: Category) -> list[str]:
    """The computed attributes that c itself carries.  Only a slot that an
    edge fills has a span to compute them from, so a slot that carries one
    is filled by application only: composing or substituting it away would
    silently drop the constraint."""
    return [a for a, _ in c.features if a in COMPUTED_ATTRS] if type(c) is Atom else []


# ---------------------------------------------------------------------------
# structural validation

SINGLETON_AS_RESULT = "SINGLETON_AS_RESULT"
NON_STAR_SINGLETON_SLASH = "NON_STAR_SINGLETON_SLASH"
EMPTY_SINGLETON = "EMPTY_SINGLETON"
UNDECLARED_ATOM = "UNDECLARED_ATOM"
MISPLACED_COMPUTED_FEATURE = "MISPLACED_COMPUTED_FEATURE"


class Violation(NamedTuple):
    code: str
    detail: str
    line: int | None = None

    def at_line(self, line: int) -> "Violation":
        return self._replace(line=line)

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.code}: {self.detail}{where}"


def category_parts(c: Category) -> Iterator[Category]:
    """The category and all its parts in pre-order: a functor, then its
    result's parts, then its argument's."""
    stack = [c]
    while stack:
        c = stack.pop()
        yield c
        if isinstance(c, Functor):
            stack += (c.argument, c.result)


def validate_category(c: Category, atoms: Container[str], slots: list[Category]) -> list[Violation]:
    """All violations in a category, in one walk; empty iff well-formed.

    First the string-placement violations, in pre-order: token-string
    categories may only be arguments (of anything, at any depth), never a
    functor's result, and their slash must be STAR.  This also rejects
    identity functors like "up"/*"up": their result is a Singleton like any
    other.  Then UNDECLARED_ATOM for each atom name that atoms lacks, by
    name.  Then MISPLACED_COMPUTED_FEATURE, in pre-order, for each part that
    carries a computed attribute and is not itself one of slots; its detail
    names the attributes and the part, and the caller says what the slots are.
    """
    out: list[Violation] = []
    undeclared: set[str] = set()
    misplaced: list[Violation] = []
    for part in category_parts(c):
        cls = type(part)
        if cls is Atom:
            if part.name not in atoms:
                undeclared.add(part.name)
            if (found := computed_attrs(part)) and not any(part is s for s in slots):
                misplaced.append(Violation(MISPLACED_COMPUTED_FEATURE, f"computed {', '.join(found)} on {render_category(part)}"))
        elif cls is Singleton and not part.tokens:
            out.append(Violation(EMPTY_SINGLETON, "a string category cannot be empty"))
        elif cls is Functor:
            if type(part.result) is Singleton:
                out.append(Violation(SINGLETON_AS_RESULT, f"{render_category(part)} puts a string category in result position"))
            if type(part.argument) is Singleton and part.slash.modality is not Modality.STAR:
                detail = f"{render_category(part)} must use an application-only slash on its string argument"
                out.append(Violation(NON_STAR_SINGLETON_SLASH, detail))
    out += [Violation(UNDECLARED_ATOM, f"category symbol {name!r} is not declared") for name in sorted(undeclared)]
    return out + misplaced


# ---------------------------------------------------------------------------
# concrete syntax

class CategorySyntaxError(ValueError):
    pass


_CATEGORY_SCANNER = (  # the tokens, and a character that may begin a lexical error: one of no kind or whose token errors names
    re.compile(r"""[/\\](?:[*.]|x(?![A-Za-z0-9]))?|"[^"\n]*"|\??[A-Za-z0-9][A-Za-z0-9']*|\S"""),
    re.compile(r"[^\s/\\()\[\],=+\-A-Za-z0-9]"),
)
_CATEGORY_KINDS = {"/": "slash", "\\": "slash", '"': "string", "?": "var"} | dict.fromkeys("()[],=+-", "punct")
_CATEGORY_KINDS |= dict.fromkeys(LETTERS + "0123456789", "word")
_CATEGORY_ERRORS = {
    '"': "unterminated string category in {text!r}",
    "?": "bad feature variable at {rest!r}",
    None: "unexpected character {found!r} in category {text!r}",
}
_SLASHES = {d.value + m.value: (d, m if m.value else None) for d in Direction for m in Modality}  # None: the default
CATEGORY_VARIABLES = frozenset({"X", "Y", "Z"})


def _category(cur: Cursor, default_modality: Modality) -> Category:
    left = _part(cur, default_modality)
    while (slash := _SLASHES.get(cur.tokens[cur.pos])) is not None:
        cur.pos += 1
        left = Functor(left, Slash(slash[0], slash[1] or default_modality), _part(cur, default_modality))
    return left


def _part(cur: Cursor, default_modality: Modality) -> Category:
    text = cur.tokens[cur.pos]
    kind = _CATEGORY_KINDS.get(text[:1])
    if text != "(" and kind != "string" and kind != "word":
        raise cur.unexpected()
    cur.pos += 1
    if text == "(":
        inner = _category(cur, default_modality)
        cur.take(")")
        return inner
    if kind == "string":
        return Singleton(tuple(text[1:-1].split()))
    if text in CATEGORY_VARIABLES:
        return Var(text)
    return Atom(text, _features(cur) if cur.tokens[cur.pos] == "[" else ())


def _features(cur: Cursor) -> Features:
    """A bracketed feature list, read from its '['; only a value may be a ``?name`` variable."""
    pairs: list[tuple[str, str]] = []
    while not pairs or cur.tokens[cur.pos] == ",":
        cur.pos += 1  # past the '[' or ','
        attr = cur.tokens[cur.pos]
        cur.take("word")
        cur.take("=")
        value = cur.tokens[cur.pos]
        if _CATEGORY_KINDS.get(value[:1]) not in ("word", "var") and value not in ("+", "-"):
            raise cur.fail(f"bad feature value {value!r}")
        pairs.append((attr, value))
        cur.pos += 1
    if cur.tokens[cur.pos] != "]":
        raise cur.fail("expected ',' or ']' in feature list")
    cur.pos += 1
    attrs = [a for a, _ in pairs]
    if repeated := [a for i, a in enumerate(attrs) if a in attrs[:i]]:
        raise CategorySyntaxError(f"repeated feature attribute {repeated[0]!r}")
    return tuple(sorted(pairs))


def parse_category(text: str, default_modality: Modality = Modality.DIAMOND) -> Category:
    """Read the ASCII category syntax.

    Slashes associate to the left: A/B/C is (A/B)/C.  A bare slash has the
    default modality; ``/*`` is application-only, ``/x`` crossing, ``/.``
    free.  Double quotes delimit string categories; bare X, Y, Z are
    category variables; features go in brackets, ``NP[agr=3s, head=?h]``,
    and a ``?name`` feature variable may stand only as a feature's value.
    """
    cur = Cursor(_CATEGORY_SCANNER, _CATEGORY_KINDS, _CATEGORY_ERRORS, text, CategorySyntaxError, "category")
    cat = _category(cur, default_modality)
    cur.finish()
    return cat


def render_category(c: Category, name: Callable[[str], str] = variable_display_name) -> str:
    """Deterministic rendering that re-parses to an equal category.

    ``name`` spells each variable; the default strips standardize's suffixes.
    """
    return _render(c, name)


def _render(c: Category, name: Callable[[str], str]) -> str:
    """render_category's walk; it calls itself, so a wrapper on render_category is entered once."""
    cls = type(c)
    if cls is Atom:
        if not c.features:
            return c.name
        return c.name + "[" + ", ".join([f"{a}={name(v) if is_feature_variable(v) else v}" for a, v in c.features]) + "]"
    if cls is Singleton:
        return '"' + " ".join(c.tokens) + '"'
    if cls is Var:
        return name(c.name)
    left = _render(c.result, name)
    if type(c.result) is Functor:
        left = f"({left})"
    right = _render(c.argument, name)
    if type(c.argument) is Functor:
        right = f"({right})"
    modality = c.slash.modality
    # a space keeps a crossing mark off the argument, and a bare slash off an x that would read as one
    space = modality is Modality.CROSS or modality is Modality.DIAMOND and right[:1] == "x" and re.match(r"x(?![A-Za-z0-9])", right)
    return f"{left}{c.slash.direction.value}{modality.value}{' ' if space else ''}{right}"


def category_key(c: Category) -> str:
    """Canonical string for packing and set comparison.

    Variable names are renumbered in first-occurrence order, so categories
    equal up to variable renaming share a key.
    """
    mapping: dict[str, str] = {}

    def name(v: str) -> str:
        return mapping.setdefault(v, f"?v{len(mapping)}" if is_feature_variable(v) else f"V{len(mapping)}")

    return render_category(c, name)


# ---------------------------------------------------------------------------
# the category table

class CategoryTable:
    """The categories of the charts built over one lexicon, hash-consed, and what is kept about them.

    Categories are standardized, and equal ones are one object, hashed and keyed once, so the
    rest is looked up by the id of an interned category.  The table holds every object whose id
    it keys by, which keeps that id the object's own.  Entries are only added, and each write
    stores what any other would, so charts built at once over one table agree, and a category
    is handed out only once its key is stored (see intern).
    """

    def __init__(self) -> None:
        self.categories: dict[Category, Category] = {}
        self.category_keys: dict[int, str] = {}  # by the id of an interned category
        self.closed: set[int] = set()  # the ids of interned categories that carry no variables
        self.category_steps: dict[tuple, tuple] = {}  # see parser._category_steps
        self.seeds: dict[int, tuple[Category, Category]] = {}  # see seed

    def intern(self, c: Category) -> Category:
        """The table's one category equal to c standardized."""
        found = self.categories.get(c)
        if found is not None and id(found) in self.category_keys:  # one found unkeyed is another intern's, between its writes
            return found  # c equals a standardized category, so it is one
        c, variables = standardize(c)
        found = self.categories.setdefault(c, c)
        if id(found) not in self.category_keys:
            if not variables:  # before the key, so that a keyed category's closedness is known
                self.closed.add(id(found))
            self.category_keys[id(found)] = category_key(found)
        return found

    def seed(self, c: Category) -> Category:
        """intern(c), taken once per category object, such as an entry's."""
        found = self.seeds.get(id(c))
        if found is None:
            found = self.seeds[id(c)] = (self.intern(c), c)
        return found[0]

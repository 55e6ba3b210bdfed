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
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, Mapping, TypeVar

from .cursor import Cursor

_D = TypeVar("_D")


class Modality(Enum):
    """Slash modality. The written default is DIAMOND (harmonic)."""

    STAR = "*"      # application only
    DIAMOND = ""    # harmonic composition and substitution
    CROSS = "x"     # crossing composition
    DOT = "."       # compatible with every rule


class Direction(Enum):
    FORWARD = "/"
    BACKWARD = "\\"


# ---------------------------------------------------------------------------
# categories

def is_feature_variable(value: str) -> bool:
    return value.startswith("?")


def variable_display_name(name: str) -> str:
    """Strip the per-edge freshness suffix from a variable name."""
    return name.split("#", 1)[0]


#: An atom's features: (attribute, value) pairs sorted by attribute, each
#: attribute once, so equal atoms compare equal.  Values are constant tokens
#: or ``?var`` names; an absent attribute is underspecified and unifies with anything.
Features = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Atom:
    name: str
    features: Features = ()


@dataclass(frozen=True)
class Slash:
    direction: Direction
    modality: Modality = Modality.DIAMOND


@dataclass(frozen=True)
class Functor:
    result: "Category"
    slash: Slash
    argument: "Category"


@dataclass(frozen=True)
class Singleton:
    """A category exactly one surface token string can substitute for."""

    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Var:
    """A schema variable over whole categories (coordination's X)."""

    name: str


Category = Atom | Functor | Singleton | Var


def singleton(text: str) -> Singleton:
    return Singleton(tuple(text.split()))


def rebuild(c: Category, leaf: Callable[[Category, _D], Category], data: _D) -> Category:
    """c with every functor rebuilt from its rebuilt parts and every other
    part replaced by leaf(part, data).  This is the one walk that builds a
    category, as category_parts is the one that reads one."""
    if isinstance(c, Functor):
        return Functor(rebuild(c.result, leaf, data), c.slash, rebuild(c.argument, leaf, data))
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
    if isinstance(c, Atom):
        return Atom(c.name, tuple((a, _walk_feature(v, bnd)) for a, v in c.features))
    return rebuild(c, _bound, bnd) if isinstance(c, Functor) else c


def rename_variables(c: Category, suffix: str) -> Category:
    """Freshen every variable name with a per-edge suffix.

    Co-referring occurrences inside one category stay co-referring; the
    suffix only prevents capture across separately instantiated entries.
    """
    return rebuild(c, _renamed, suffix)


def _renamed(c: Category, suffix: str) -> Category:
    if isinstance(c, Atom):
        fresh = tuple((a, f"{variable_display_name(v)}#{suffix}" if is_feature_variable(v) else v) for a, v in c.features)
        return Atom(c.name, fresh)
    return Var(f"{variable_display_name(c.name)}#{suffix}") if isinstance(c, Var) else c


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


def misplaced_computed(c: Category, slots: list[Category]) -> list[tuple[Atom, list[str]]]:
    """The parts of c that carry computed attributes but are none of slots, each with those attributes."""
    return [(part, found) for part in category_parts(c) if (found := computed_attrs(part)) and not any(part is s for s in slots)]


# ---------------------------------------------------------------------------
# structural validation

SINGLETON_AS_RESULT = "SINGLETON_AS_RESULT"
NON_STAR_SINGLETON_SLASH = "NON_STAR_SINGLETON_SLASH"
EMPTY_SINGLETON = "EMPTY_SINGLETON"


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str
    line: int | None = None

    def at_line(self, line: int) -> "Violation":
        return replace(self, line=line)

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


def validate_category(c: Category) -> list[Violation]:
    """All structural violations in a category; empty iff well-formed.

    Token-string categories may only be arguments (of anything, at any
    depth), never a functor's result, and their slash must be STAR.  This
    also rejects identity functors like "up"/*"up": their result is a
    Singleton like any other.
    """
    out: list[Violation] = []
    for part in category_parts(c):
        if type(part) is Singleton and not part.tokens:
            out.append(Violation(EMPTY_SINGLETON, "a string category cannot be empty"))
        elif type(part) is Functor:
            if type(part.result) is Singleton:
                out.append(
                    Violation(
                        SINGLETON_AS_RESULT,
                        f"{render_category(part)} puts a string category in result position",
                    )
                )
            if type(part.argument) is Singleton and part.slash.modality is not Modality.STAR:
                out.append(
                    Violation(
                        NON_STAR_SINGLETON_SLASH,
                        f"{render_category(part)} must use an application-only slash "
                        "on its string argument",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# concrete syntax

class CategorySyntaxError(ValueError):
    pass


_CATEGORY_SCANNER = re.compile(
    r"""\s*(?: (?P<slash>[/\\](?:[*.]|x(?![A-Za-z0-9]))?)
    | (?P<string>"[^"]*") | (?P<unterminated>")
    | (?P<punct>[()\[\],=+-])
    | (?P<var>\?[A-Za-z0-9][A-Za-z0-9']*) | (?P<bad_var>\?)
    | (?P<word>[A-Za-z0-9][A-Za-z0-9']*)
    | (?P<bad_char>\S) )""",
    re.VERBOSE,
)
_CATEGORY_ERRORS = {
    "unterminated": "unterminated string category in {text!r}",
    "bad_var": "bad feature variable at {rest!r}",
    "bad_char": "unexpected character {found!r} in category {text!r}",
}
_MODALITY_CHARS = {m.value: m for m in Modality if m.value}
CATEGORY_VARIABLES = frozenset({"X", "Y", "Z"})


def _category(cur: Cursor, default_modality: Modality) -> Category:
    left = _part(cur, default_modality)
    while cur.peek()[0] == "slash":
        slash = cur.take()[1]
        modality = _MODALITY_CHARS.get(slash[1:], default_modality)
        left = Functor(left, Slash(Direction(slash[0]), modality), _part(cur, default_modality))
    return left


def _part(cur: Cursor, default_modality: Modality) -> Category:
    kind, text = cur.take()
    if text == "(":
        inner = _category(cur, default_modality)
        cur.take(")")
        return inner
    if kind == "string":
        return Singleton(tuple(text[1:-1].split()))
    if kind != "word":
        raise cur.unexpected(text)
    if text in CATEGORY_VARIABLES:
        return Var(text)
    return Atom(text, _features(cur) if cur.peek()[1] == "[" else ())


def _features(cur: Cursor) -> Features:
    """A bracketed feature list; only a value may be a ``?name`` variable."""
    cur.take("[")
    pairs: list[tuple[str, str]] = []
    while True:
        attr = cur.take("word")[1]
        cur.take("=")
        kind, value = cur.take()
        if kind not in ("word", "var") and value not in ("+", "-"):
            raise CategorySyntaxError(f"bad feature value {value!r}")
        pairs.append((attr, value))
        separator = cur.take()[1]
        if separator == "]":
            attrs = [a for a, _ in pairs]
            for i, a in enumerate(attrs):
                if a in attrs[:i]:
                    raise CategorySyntaxError(f"repeated feature attribute {a!r}")
            return tuple(sorted(pairs))
        if separator != ",":
            raise CategorySyntaxError("expected ',' or ']' in feature list")


def parse_category(text: str, default_modality: Modality = Modality.DIAMOND) -> Category:
    """Read the ASCII category syntax.

    Slashes associate to the left: A/B/C is (A/B)/C.  A bare slash has the
    default modality; ``/*`` is application-only, ``/x`` crossing, ``/.``
    free.  Double quotes delimit string categories; bare X, Y, Z are
    category variables; features go in brackets, ``NP[agr=3s, head=?h]``,
    and a ``?name`` feature variable may stand only as a feature's value.
    """
    cur = Cursor(_CATEGORY_SCANNER, _CATEGORY_ERRORS, text, CategorySyntaxError, "category")
    cat = _category(cur, default_modality)
    cur.finish()
    return cat


def _slash_text(slash: Slash) -> str:
    mark = slash.modality.value
    text = slash.direction.value + mark
    if slash.modality is Modality.CROSS:
        text += " "
    return text


def render_category(c: Category, name: Callable[[str], str] = variable_display_name) -> str:
    """Deterministic rendering that re-parses to an equal category.

    ``name`` spells each variable; the default strips freshness suffixes.
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
    return f"{left}{_slash_text(c.slash)}{right}"


def category_key(c: Category) -> str:
    """Canonical string for packing and set comparison.

    Variable names are renumbered in first-occurrence order, so categories
    equal up to variable renaming share a key.
    """
    mapping: dict[str, str] = {}

    def name(v: str) -> str:
        return mapping.setdefault(v, f"?v{len(mapping)}" if is_feature_variable(v) else f"V{len(mapping)}")

    return render_category(c, name)

"""Category algebra: atoms with flat features, directional modal slashes,
quoted token-string categories, and schema variables.

Everything here is an immutable value.  Unification threads an explicit
Bindings value and reports failure by returning None, never by raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Protocol


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
# feature bundles

def is_feature_variable(value: str) -> bool:
    return value.startswith("?")


def variable_display_name(name: str) -> str:
    """Strip the per-edge freshness suffix from a variable name."""
    return name.split("#", 1)[0]


@dataclass(frozen=True)
class FeatureBundle:
    """Flat attribute-value map.

    Values are constant tokens or ``?var`` names.  An absent attribute is
    underspecified and unifies with anything.  Attributes are unique and
    kept sorted so equal bundles compare equal.
    """

    pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.pairs))
        attrs = [a for a, _ in ordered]
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"duplicate attribute in feature bundle: {attrs}")
        object.__setattr__(self, "pairs", ordered)

    @classmethod
    def of(cls, **attrs: str) -> "FeatureBundle":
        return cls(tuple(attrs.items()))

    def get(self, attr: str) -> str | None:
        for a, v in self.pairs:
            if a == attr:
                return v
        return None

    def attrs(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.pairs)

    def without(self, *drop: str) -> "FeatureBundle":
        return FeatureBundle(tuple((a, v) for a, v in self.pairs if a not in drop))

    def __bool__(self) -> bool:
        return bool(self.pairs)


# ---------------------------------------------------------------------------
# categories

@dataclass(frozen=True)
class Atom:
    name: str
    features: FeatureBundle = FeatureBundle()


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

#: Atom attributes whose values are computed from the substituting span
#: rather than stored on derived categories.
COMPUTED_ATTRS = ("lexc", "weight")


def singleton(text: str) -> Singleton:
    return Singleton(tuple(text.split()))


# ---------------------------------------------------------------------------
# bindings and unification

@dataclass
class Bindings:
    """Substitution built up during unification.

    ``feats`` maps ``?var`` names to values (constants or other ``?var``
    names); ``cats`` maps category-variable names to categories.  Callers
    should treat instances as immutable; unification works on copies.
    """

    feats: dict[str, str] = field(default_factory=dict)
    cats: dict[str, Category] = field(default_factory=dict)

    def copy(self) -> "Bindings":
        return Bindings(dict(self.feats), dict(self.cats))

    def walk_feature(self, value: str) -> str:
        seen = set()
        while is_feature_variable(value) and value in self.feats and value not in seen:
            seen.add(value)
            value = self.feats[value]
        return value

    def walk_category(self, c: Category) -> Category:
        seen = set()
        while isinstance(c, Var) and c.name in self.cats and c.name not in seen:
            seen.add(c.name)
            c = self.cats[c.name]
        return c


def _occurs(name: str, c: Category, bnd: Bindings) -> bool:
    c = bnd.walk_category(c)
    match c:
        case Var(n):
            return n == name
        case Functor(result, _, argument):
            return _occurs(name, result, bnd) or _occurs(name, argument, bnd)
        case _:
            return False


def _unify_feature_values(va: str, vb: str, bnd: Bindings) -> bool:
    va = bnd.walk_feature(va)
    vb = bnd.walk_feature(vb)
    if va == vb:
        return True
    if is_feature_variable(va):
        bnd.feats[va] = vb
        return True
    if is_feature_variable(vb):
        bnd.feats[vb] = va
        return True
    return False


def _unify_features(fa: FeatureBundle, fb: FeatureBundle, bnd: Bindings) -> bool:
    for attr in sorted(set(fa.attrs()) | set(fb.attrs())):
        va = fa.get(attr)
        vb = fb.get(attr)
        if va is None or vb is None:
            continue
        if not _unify_feature_values(va, vb, bnd):
            return False
    return True


def _unify(a: Category, b: Category, bnd: Bindings) -> bool:
    a = bnd.walk_category(a)
    b = bnd.walk_category(b)
    if isinstance(a, Var):
        if isinstance(b, Var) and a.name == b.name:
            return True
        if _occurs(a.name, b, bnd):
            return False
        bnd.cats[a.name] = b
        return True
    if isinstance(b, Var):
        if _occurs(b.name, a, bnd):
            return False
        bnd.cats[b.name] = a
        return True
    match a, b:
        case Atom(na, fa), Atom(nb, fb):
            return na == nb and _unify_features(fa, fb, bnd)
        case Functor(ra, sa, xa), Functor(rb, sb, xb):
            if sa != sb:
                return False
            return _unify(ra, rb, bnd) and _unify(xa, xb, bnd)
        case Singleton(ta), Singleton(tb):
            return ta == tb
        case _:
            return False


def unify(a: Category, b: Category, bindings: Bindings | None = None) -> Bindings | None:
    """Unify two categories, returning extended bindings or None.

    Atoms need equal names and compatible feature bundles (an absent
    attribute matches anything).  Functors need equal direction and
    modality plus recursive unification.  Singletons match token for
    token.  A variable binds to the opposite side, occurs-check applied.
    """
    bnd = bindings.copy() if bindings is not None else Bindings()
    return bnd if _unify(a, b, bnd) else None


def apply_bindings(c: Category, bnd: Bindings) -> Category:
    """Substitute bound variables throughout. Idempotent: chains are walked."""
    c = bnd.walk_category(c)
    match c:
        case Atom(name, feats):
            pairs = tuple((a, bnd.walk_feature(v)) for a, v in feats.pairs)
            return Atom(name, FeatureBundle(pairs))
        case Functor(result, slash, argument):
            return Functor(apply_bindings(result, bnd), slash, apply_bindings(argument, bnd))
        case _:
            return c


def rename_variables(c: Category, suffix: str) -> Category:
    """Freshen every variable name with a per-edge suffix.

    Co-referring occurrences inside one category stay co-referring; the
    suffix only prevents capture across separately instantiated entries.
    """
    match c:
        case Atom(name, feats):
            pairs = tuple(
                (a, f"{variable_display_name(v)}#{suffix}" if is_feature_variable(v) else v)
                for a, v in feats.pairs
            )
            return Atom(name, FeatureBundle(pairs))
        case Functor(result, slash, argument):
            return Functor(rename_variables(result, suffix), slash, rename_variables(argument, suffix))
        case Var(name):
            return Var(f"{variable_display_name(name)}#{suffix}")
        case _:
            return c


# ---------------------------------------------------------------------------
# argument matching

class EdgeLike(Protocol):
    """What match_argument needs from a chart constituent."""

    @property
    def tokens(self) -> tuple[str, ...]: ...

    @property
    def category(self) -> Category: ...


def match_argument(
    spec: Category,
    edge: EdgeLike,
    derived: Callable[[str], str] | None = None,
) -> Bindings | None:
    """Match a functor's argument specification against a derived edge.

    A Singleton spec matches exactly when the edge's surface tokens equal
    its own; the edge's category is never inspected.  A polyvalent spec
    unifies with the edge's category, except that the computed attributes
    (weight, lexc) are checked against values supplied by the ``derived``
    callback instead of being unified structurally.
    """
    if isinstance(spec, Singleton):
        return Bindings() if tuple(edge.tokens) == spec.tokens else None
    bnd = Bindings()
    if isinstance(spec, Atom):
        computed = [(a, v) for a, v in spec.features.pairs if a in COMPUTED_ATTRS]
        if computed:
            if derived is None:
                raise ValueError(
                    f"argument spec {render_category(spec)} needs computed features "
                    "but no derived-feature oracle was supplied"
                )
            for attr, want in computed:
                if not _unify_feature_values(want, derived(attr), bnd):
                    return None
            spec = Atom(spec.name, spec.features.without(*COMPUTED_ATTRS))
    return unify(spec, edge.category, bnd)


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


def validate_category(c: Category) -> list[Violation]:
    """All structural violations in a category; empty iff well-formed.

    Token-string categories may only be arguments (of anything, at any
    depth), never a functor's result, and their slash must be STAR.  This
    also rejects identity functors like "up"/*"up": their result is a
    Singleton like any other.
    """
    out: list[Violation] = []

    def walk(c: Category) -> None:
        match c:
            case Singleton(tokens):
                if not tokens:
                    out.append(Violation(EMPTY_SINGLETON, "a string category cannot be empty"))
            case Functor(result, slash, argument):
                if isinstance(result, Singleton):
                    out.append(
                        Violation(
                            SINGLETON_AS_RESULT,
                            f"{render_category(c)} puts a string category in result position",
                        )
                    )
                if isinstance(argument, Singleton) and slash.modality is not Modality.STAR:
                    out.append(
                        Violation(
                            NON_STAR_SINGLETON_SLASH,
                            f"{render_category(c)} must use an application-only slash "
                            "on its string argument",
                        )
                    )
                walk(result)
                walk(argument)
            case _:
                pass

    walk(c)
    return out


# ---------------------------------------------------------------------------
# concrete syntax

class CategorySyntaxError(ValueError):
    pass


_WORD_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9']*")
_MODALITY_CHARS = {"*": Modality.STAR, ".": Modality.DOT, "x": Modality.CROSS}
CATEGORY_VARIABLES = frozenset({"X", "Y", "Z"})


def _lex_category(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "/\\":
            direction = Direction.FORWARD if c == "/" else Direction.BACKWARD
            modality = None
            j = i + 1
            if j < n and text[j] in "*.":
                modality = _MODALITY_CHARS[text[j]]
                j += 1
            elif j < n and text[j] == "x" and (j + 1 >= n or not _WORD_RE.match(text[j + 1])):
                modality = Modality.CROSS
                j += 1
            tokens.append(("slash", (direction, modality)))
            i = j
        elif c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise CategorySyntaxError(f"unterminated string category in {text!r}")
            tokens.append(("string", tuple(text[i + 1 : j].split())))
            i = j + 1
        elif c in "()[],=+-":
            tokens.append((c, c))
            i += 1
        elif c == "?":
            m = _WORD_RE.match(text, i + 1)
            if not m:
                raise CategorySyntaxError(f"bad feature variable at {text[i:]!r}")
            tokens.append(("word", "?" + m.group()))
            i = m.end()
        else:
            m = _WORD_RE.match(text, i)
            if not m:
                raise CategorySyntaxError(f"unexpected character {c!r} in category {text!r}")
            tokens.append(("word", m.group()))
            i = m.end()
    return tokens


class _CatParser:
    def __init__(self, tokens: list[tuple[str, object]], default_modality: Modality):
        self.tokens = tokens
        self.pos = 0
        self.default_modality = default_modality

    def peek(self) -> tuple[str, object] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None) -> tuple[str, object]:
        tok = self.peek()
        if tok is None:
            raise CategorySyntaxError("unexpected end of category")
        if kind is not None and tok[0] != kind:
            raise CategorySyntaxError(f"expected {kind}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def category(self) -> Category:
        left = self.part()
        while (tok := self.peek()) is not None and tok[0] == "slash":
            self.take()
            direction, modality = tok[1]  # type: ignore[misc]
            if modality is None:
                modality = self.default_modality
            right = self.part()
            left = Functor(left, Slash(direction, modality), right)
        return left

    def part(self) -> Category:
        tok = self.take()
        kind, value = tok
        if kind == "(":
            inner = self.category()
            self.take(")")
            return inner
        if kind == "string":
            return Singleton(value)  # type: ignore[arg-type]
        if kind == "word":
            name = value  # type: ignore[assignment]
            if name in CATEGORY_VARIABLES:
                return Var(name)
            features = FeatureBundle()
            if (nxt := self.peek()) is not None and nxt[0] == "[":
                features = self.features()
            return Atom(name, features)
        raise CategorySyntaxError(f"unexpected {value!r} in category")

    def features(self) -> FeatureBundle:
        self.take("[")
        pairs: list[tuple[str, str]] = []
        while True:
            attr = self.take("word")[1]
            self.take("=")
            kind, value = self.take()
            if kind not in ("word", "+", "-"):
                raise CategorySyntaxError(f"bad feature value {value!r}")
            pairs.append((attr, value))  # type: ignore[arg-type]
            kind, _ = self.take()
            if kind == "]":
                break
            if kind != ",":
                raise CategorySyntaxError("expected ',' or ']' in feature list")
        return FeatureBundle(tuple(pairs))


def parse_category(text: str, default_modality: Modality = Modality.DIAMOND) -> Category:
    """Read the ASCII category syntax.

    Slashes associate to the left: A/B/C is (A/B)/C.  A bare slash has the
    default modality; ``/*`` is application-only, ``/x`` crossing, ``/.``
    free.  Double quotes delimit string categories; bare X, Y, Z are
    category variables; features go in brackets, ``NP[agr=3s, head=?h]``.
    """
    parser = _CatParser(_lex_category(text), default_modality)
    cat = parser.category()
    if parser.peek() is not None:
        raise CategorySyntaxError(f"trailing material in category {text!r}")
    return cat


def _slash_text(slash: Slash) -> str:
    mark = slash.modality.value
    text = slash.direction.value + mark
    if slash.modality is Modality.CROSS:
        text += " "
    return text


def _feature_text(feats: FeatureBundle, name: Callable[[str], str]) -> str:
    if not feats:
        return ""
    rendered = []
    for a, v in feats.pairs:
        if is_feature_variable(v):
            v = name(v)
        rendered.append(f"{a}={v}")
    return "[" + ", ".join(rendered) + "]"


def render_category(c: Category, name: Callable[[str], str] = variable_display_name) -> str:
    """Deterministic rendering that re-parses to an equal category.

    ``name`` spells each variable; the default strips freshness suffixes.
    """
    match c:
        case Atom(atom, feats):
            return atom + _feature_text(feats, name)
        case Singleton(tokens):
            return '"' + " ".join(tokens) + '"'
        case Var(var):
            return name(var)
        case Functor(result, slash, argument):
            left = render_category(result, name)
            if isinstance(result, Functor):
                left = f"({left})"
            right = render_category(argument, name)
            if isinstance(argument, Functor):
                right = f"({right})"
            return f"{left}{_slash_text(slash)}{right}"
    raise TypeError(f"not a category: {c!r}")


def category_key(c: Category) -> str:
    """Canonical string for packing and set comparison.

    Variable names are renumbered in first-occurrence order, so categories
    equal up to variable renaming share a key.
    """
    mapping: dict[str, str] = {}

    def name(v: str) -> str:
        return mapping.setdefault(v, f"?v{len(mapping)}" if is_feature_variable(v) else f"V{len(mapping)}")

    return render_category(c, name)

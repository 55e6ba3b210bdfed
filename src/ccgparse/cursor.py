"""The token cursor that the category and logical-form readers share."""

from __future__ import annotations

import re


class Cursor:
    """The tokens of one reader's input, read left to right.

    ``scanner`` is one regular expression, ``\\s*(?:...)``, whose named
    groups are the token kinds; it must match every character that is not
    whitespace.  A group named in ``errors`` is a lexical error whose message
    is formatted with the matched text (``found``), the input from there on
    (``rest``) and the whole input (``text``).  The whole input is scanned
    before any token is read.
    """

    def __init__(self, scanner: re.Pattern, errors: dict[str, str], text: str, error: type[ValueError], noun: str):
        self.error, self.noun, self.text, self.kinds = error, noun, text, scanner.groupindex
        matches = list(scanner.finditer(text))
        for m in matches:
            kind = m.lastgroup
            if kind in errors:
                raise error(errors[kind].format(found=m[kind], rest=text[m.start(kind) :], text=text))
        self.tokens = [(m.lastgroup, m[m.lastgroup]) for m in matches]
        self.tokens.append(("", ""))  # the end of the input
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        """The next token as (kind, text), or ("", "") at the end."""
        return self.tokens[self.pos]

    def take(self, want: str | None = None) -> tuple[str, str]:
        """Consume the next token, which must have kind or text ``want`` if given."""
        kind, text = self.tokens[self.pos]
        if not kind:
            raise self.error(f"unexpected end of {self.noun}")
        if want is not None and want != kind and want != text:
            raise self.error(f"expected {want if want in self.kinds else repr(want)}, found {text!r}")
        self.pos += 1
        return kind, text

    def unexpected(self, text: str) -> ValueError:
        return self.error(f"unexpected {text!r} in {self.noun}")

    def finish(self) -> None:
        """Require that every token has been read."""
        if self.tokens[self.pos][0]:
            raise self.error(f"trailing material in {self.noun} {self.text!r}")

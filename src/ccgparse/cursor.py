"""The token cursor that the category and logical-form readers share."""

from __future__ import annotations

import re

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


class Cursor:
    """One reader's input as plain-string tokens, ``""`` at the end.

    One ``findall`` of ``scanner[0]`` yields the tokens, and ``kinds`` maps a
    token's first character to its kind.  A token that ``errors`` names, or
    whose first character has no kind, is a lexical error: ``errors[token]``
    or else ``errors[None]``, formatted with the token (``found``), the input
    from there on (``rest``) and the whole input (``text``).  The tokens are
    looked at only when ``scanner[1]`` finds a character that may begin such a
    token.  All the input is scanned before any token is read.  The readers
    index ``tokens`` at ``pos`` and step ``pos`` past what they read; the errors
    below are about the token at ``pos``, or the end of the input.
    """

    def __init__(self, scanner: tuple[re.Pattern, re.Pattern], kinds: dict[str, str], errors: dict, text: str, error: type[ValueError], noun: str):
        self.error, self.noun, self.text, self.kinds = error, noun, text, kinds
        self.tokens = tokens = scanner[0].findall(text)
        for token in tokens if scanner[1].search(text) else ():
            if token in errors or token[0] not in kinds:  # the first token so spelled
                rest = text[[m.start() for m in scanner[0].finditer(text)][tokens.index(token)] :]
                raise error(errors.get(token, errors[None]).format(found=token, rest=rest, text=text))
        tokens.append("")
        self.pos = 0

    def take(self, want: str) -> None:
        """Step past the next token, which must have kind or text ``want``."""
        token = self.tokens[self.pos]
        if want != token and want != self.kinds.get(token[:1]):
            raise self.fail(f"expected {want if want in self.kinds.values() else repr(want)}, found {token!r}")
        self.pos += 1

    def fail(self, message: str) -> ValueError:
        """The error ``message``, or "unexpected end" at the end of the input."""
        return self.error(message if self.tokens[self.pos] else f"unexpected end of {self.noun}")

    def unexpected(self) -> ValueError:
        return self.fail(f"unexpected {self.tokens[self.pos]!r} in {self.noun}")

    def finish(self) -> None:
        """Require that every token has been read."""
        if self.tokens[self.pos]:
            raise self.error(f"trailing material in {self.noun} {self.text!r}")

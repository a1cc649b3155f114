"""Token-by-token reference for ``words.parse_word``.

``parse_word`` resolves each token by one lookup in a table built at import
and classifies a token only when the lookup misses.  ``parse_reference`` is
the parser as it stood before that table: a regex match per token, the
character offset found as it goes, and a validated ``Generator`` or ``Macro``
built for every token, each ``^-1`` macro expanded through ``expand_macro``.
The tests require equal words, and equal ``ParseError`` messages, token
indices and character offsets.
"""

import re

from t3mcg.words import BASE_TOKENS, MACRO_TOKENS, Generator, Macro, ParseError, expand_macro

_TOKEN_RE = re.compile(r"^([a-z][a-z0-9]*)(\^(-?[0-9]+))?$")


def parse_reference(text: str):
    letters: list[Generator] = []
    offset = 0
    for index, raw in enumerate(text.split()):
        char_offset = text.index(raw, offset)
        offset = char_offset + len(raw)
        m = _TOKEN_RE.match(raw)
        if not m:
            raise ParseError(f"bad token {raw!r}", index, char_offset)
        name, _, exponent = m.groups()
        if exponent is not None and exponent != "-1":
            raise ParseError(
                f"malformed exponent {exponent!r} (only ^-1 is allowed)", index, char_offset
            )
        sign = -1 if exponent == "-1" else 1
        if name in BASE_TOKENS:
            letters.append(Generator(name, sign))
        elif name in MACRO_TOKENS:
            letters.extend(expand_macro(Macro(name, sign)))
        else:
            raise ParseError(f"unknown token {name!r}", index, char_offset)
    return tuple(letters)

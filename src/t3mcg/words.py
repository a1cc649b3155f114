"""Free words over the eight generators, plus the derived twist/rotation macros.

The alphabet has six shear generators a_ij (ordered pairs of distinct axes),
the handlebody swap s and the reference torus twist t.  Words multiply left to
right: the first letter is the map applied first.  The only rewriting done
here is free cancellation together with s*s -> 1 (the swap is an involution);
every other identity is checked numerically downstream, never rewritten.

Parsing is one lookup per whitespace-separated token in a table built at
import: each of the eight base tokens and the twelve macros, with and without
``^-1``, maps to its word.  ``MACRO_EXPANSIONS`` holds each macro's inverse
too, inverted once at import, and ``expand_macro`` reads the same entries, so
no parse or expansion builds a ``Generator`` or inverts a word.  Only a token
the table lacks is matched against the token grammar, to say why it failed
and where.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

AXIS_PAIRS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
SHEAR_TOKENS = tuple(f"a{i}{j}" for i, j in AXIS_PAIRS)
BASE_TOKENS = SHEAR_TOKENS + ("s", "t")


class ParseError(ValueError):
    """Raised on malformed word text; carries the token index and character offset."""

    def __init__(self, message, token_index, char_offset):
        super().__init__(f"{message} (token {token_index}, offset {char_offset})")
        self.token_index = token_index
        self.char_offset = char_offset


@dataclass(frozen=True, order=True)
class Generator:
    kind: str  # one of BASE_TOKENS
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.kind not in BASE_TOKENS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"generator sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> "Generator":
        return Generator(self.kind, -self.sign)

    def token(self) -> str:
        return self.kind if self.sign == 1 else self.kind + "^-1"


# A word is an immutable tuple of generators.
Word = tuple


def compose(w1: Word, w2: Word) -> Word:
    """Concatenation; w1 acts first.  No cancellation is performed."""
    return tuple(w1) + tuple(w2)


def invert(w: Word) -> Word:
    """Reversed sequence with every sign flipped."""
    return tuple(g.inverse() for g in reversed(w))


def free_reduce(w: Word) -> Word:
    """Delete adjacent inverse pairs and adjacent s-pairs until none remain.

    s*s cancels for either choice of signs since the swap has order two.  The
    rule set is confluent (all rules erase adjacent 2-letter blocks), so the
    result is a normal form.
    """
    out: list[Generator] = []
    for g in w:
        if out:
            prev = out[-1]
            if prev.kind == g.kind and (prev.sign != g.sign or g.kind == "s"):
                out.pop()
                continue
        out.append(g)
    return tuple(out)


def render(w: Word) -> str:
    return " ".join(g.token() for g in w)


# ---------------------------------------------------------------------------
# Macros: the twelve derived elements t_ij and r_ij.
#
# The defining recipe is r_ij = a_ij a_ji^-1 a_ij t_jk, seeded by t12 = t and
# t21 = t^-1.  The printed dependency chain for the remaining entries is
# circular as stated, so the table below fixes the well-founded order:
# r31, r32 directly; r13, r23 as their inverses; then t13 by conjugation,
# then r21/r12, then t23 by conjugation.  Which orientation of twist each
# conjugate realizes is *recorded* by the verification suite, not assumed.
# ---------------------------------------------------------------------------

MACRO_TOKENS = tuple(f"t{i}{j}" for i, j in AXIS_PAIRS) + tuple(
    f"r{i}{j}" for i, j in AXIS_PAIRS
)


@dataclass(frozen=True)
class Macro:
    kind: str  # one of MACRO_TOKENS
    sign: int

    def __post_init__(self):
        if self.kind not in MACRO_TOKENS:
            raise ValueError(f"unknown macro kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"macro sign must be +1 or -1, got {self.sign}")

    def token(self) -> str:
        return self.kind if self.sign == 1 else self.kind + "^-1"


def _build_macro_table() -> dict:
    A = lambda i, j, s=1: Generator(f"a{i}{j}", s)
    T = lambda s=1: Generator("t", s)
    table: dict[str, Word] = {}
    table["t12"] = (T(),)
    table["t21"] = (T(-1),)
    table["r31"] = (A(3, 1), A(1, 3, -1), A(3, 1)) + table["t12"]
    table["r32"] = (A(3, 2), A(2, 3, -1), A(3, 2)) + table["t21"]
    table["r13"] = invert(table["r31"])
    table["r23"] = invert(table["r32"])
    table["t13"] = compose(compose(table["r23"], table["t12"]), invert(table["r23"]))
    table["t31"] = invert(table["t13"])
    table["r21"] = (A(2, 1), A(1, 2, -1), A(2, 1)) + table["t13"]
    table["r12"] = invert(table["r21"])
    table["t23"] = compose(compose(table["r12"], table["t13"]), invert(table["r12"]))
    table["t32"] = invert(table["t23"])
    table.update({f"{kind}^-1": invert(w) for kind, w in table.items()})
    return table


# Keyed by token: each macro ``k`` and its inverse ``k^-1``, inverted once here.
MACRO_EXPANSIONS = _build_macro_table()


def expand_macro(m: Macro) -> Word:
    """Canonical expansion of a macro into base generators."""
    return MACRO_EXPANSIONS[m.token()]


# Every legal token, a base letter or a macro with or without ^-1, and its word.
_TOKEN_WORDS = {g.token(): (g,) for g in (Generator(k, s) for k in BASE_TOKENS for s in (1, -1))}
_TOKEN_WORDS.update(MACRO_EXPANSIONS)

_TOKEN_RE = re.compile(r"^([a-z][a-z0-9]*)(\^(-?[0-9]+))?$")


def parse_word(text: str) -> Word:
    """Parse whitespace-separated tokens into a word over the base alphabet.

    Each token is one lookup in the token table, and a macro token is
    replaced by its expansion, so the result only contains the eight base
    generators.  The sole legal exponent is ^-1.
    """
    letters: list[Generator] = []
    try:
        for raw in text.split():
            letters += _TOKEN_WORDS[raw]
    except KeyError:
        raise _token_error(text) from None
    return tuple(letters)


def _token_error(text: str) -> ParseError:
    """The error for the first token of ``text`` missing from the token table,
    with its index and character offset: a bad token, a malformed exponent or
    an unknown name."""
    offset = 0
    for index, raw in enumerate(text.split()):
        char_offset = text.index(raw, offset)
        offset = char_offset + len(raw)
        if raw in _TOKEN_WORDS:
            continue
        m = _TOKEN_RE.match(raw)
        if not m:
            return ParseError(f"bad token {raw!r}", index, char_offset)
        name, _, exponent = m.groups()
        if exponent is not None and exponent != "-1":
            return ParseError(
                f"malformed exponent {exponent!r} (only ^-1 is allowed)", index, char_offset
            )
        return ParseError(f"unknown token {name!r}", index, char_offset)

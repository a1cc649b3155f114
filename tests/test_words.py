import pytest
from hypothesis import given, strategies as st

from t3mcg.words import (
    BASE_TOKENS,
    MACRO_EXPANSIONS,
    MACRO_TOKENS,
    Generator,
    Macro,
    ParseError,
    compose,
    expand_macro,
    free_reduce,
    invert,
    parse_word,
    render,
)
from words_reference import parse_reference


def G(kind, sign=1):
    return Generator(kind, sign)


generators = st.builds(
    Generator, st.sampled_from(BASE_TOKENS), st.sampled_from((1, -1))
)
word_strategy = st.lists(generators, max_size=40).map(tuple)


class TestParse:
    def test_basic_tokens(self):
        assert parse_word("a12 s t^-1") == (G("a12"), G("s"), G("t", -1))

    def test_empty_is_identity(self):
        assert parse_word("") == ()
        assert parse_word("   ") == ()

    def test_macro_t21_is_inverse_twist(self):
        assert parse_word("t21") == (G("t", -1),)

    def test_unknown_token_position(self):
        with pytest.raises(ParseError) as err:
            parse_word("a12 bogus t")
        assert err.value.token_index == 1
        assert err.value.char_offset == 4

    def test_malformed_exponent(self):
        with pytest.raises(ParseError):
            parse_word("a12^2")
        with pytest.raises(ParseError):
            parse_word("t^+1")

    @given(word_strategy)
    def test_render_roundtrip(self, w):
        assert parse_word(render(w)) == w


class TestAlgebra:
    def test_compose_identity(self):
        assert compose((G("a12"),), ()) == (G("a12"),)

    def test_compose_never_reduces(self):
        assert compose((G("s"),), (G("s"),)) == (G("s"), G("s"))
        assert compose((G("t"),), (G("t", -1),)) == (G("t"), G("t", -1))

    def test_invert(self):
        assert invert((G("a12"), G("t"))) == (G("t", -1), G("a12", -1))
        assert invert(()) == ()
        assert invert((G("s"),)) == (G("s", -1),)

    def test_free_reduce_examples(self):
        assert free_reduce((G("a12"), G("a12", -1), G("t"))) == (G("t"),)
        assert free_reduce((G("s"), G("s"))) == ()
        assert free_reduce((G("t"), G("s"), G("s", -1), G("t", -1))) == ()

    def test_swap_involution_any_signs(self):
        for s1 in (1, -1):
            for s2 in (1, -1):
                assert free_reduce((G("s", s1), G("s", s2))) == ()

    @given(word_strategy)
    def test_reduce_word_times_inverse(self, w):
        assert free_reduce(compose(w, invert(w))) == ()

    @given(word_strategy)
    def test_reduce_is_idempotent(self, w):
        r = free_reduce(w)
        assert free_reduce(r) == r


class TestMacros:
    def test_rotation_r31_expansion(self):
        assert expand_macro(Macro("r31", 1)) == (
            G("a31"),
            G("a13", -1),
            G("a31"),
            G("t"),
        )

    def test_twist_t13_length(self):
        assert len(expand_macro(Macro("t13", 1))) == 9

    def test_twist_t23_length(self):
        assert len(expand_macro(Macro("t23", 1))) == 33

    def test_negative_sign_is_inverse(self):
        for kind in MACRO_TOKENS:
            plus = expand_macro(Macro(kind, 1))
            minus = expand_macro(Macro(kind, -1))
            assert minus == invert(plus)

    def test_expansions_closed_over_base_alphabet(self):
        for kind, w in MACRO_EXPANSIONS.items():
            for g in w:
                assert g.kind in BASE_TOKENS, (kind, g)

    def test_parse_expands_macros(self):
        assert parse_word("r31") == expand_macro(Macro("r31", 1))
        assert parse_word("r31^-1") == expand_macro(Macro("r31", -1))


class TestTokenTable:
    """``parse_word`` against the token-by-token reference, and the table's
    promise: no letter or macro is built, and no macro inverted, per call."""

    names = BASE_TOKENS + MACRO_TOKENS
    valid_tokens = st.sampled_from(names).flatmap(
        lambda name: st.sampled_from((name, name + "^-1"))
    )
    bad_exponents = st.builds(
        str.__add__,
        st.sampled_from(names + ("x",)),
        st.sampled_from(("^2", "^+1", "^-01", "^", "^1", "^-2", "^-1^-1")),
    )
    strange_tokens = st.sampled_from(
        ("x", "bogus", "a11", "a4", "a123", "t1", "r33", "s2", "A12", "S", "T13", "R31^-1",
         "a12,", "(t)", "*", "s;", "-", "^-1", "t13.", "1a", "a_12", "é")
    )
    fuzz_tokens = st.text(alphabet="ars123t^-+0,", min_size=1, max_size=6)
    tokens = st.one_of(valid_tokens, valid_tokens, bad_exponents, strange_tokens, fuzz_tokens)
    separators = st.sampled_from((" ", "  ", "\t", "\n", " \t\n ", "\r\n"))

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text)
        except ParseError as err:
            return str(err), err.token_index, err.char_offset

    @given(
        st.lists(st.tuples(tokens, separators), max_size=12),
        st.sampled_from(("", " ", "\t", "\n ")),
    )
    def test_equals_the_reference_parser(self, pairs, lead):
        text = lead + "".join(token + sep for token, sep in pairs)
        assert self.outcome(parse_word, text) == self.outcome(parse_reference, text)

    @pytest.mark.parametrize(
        "text, message, index, offset",
        [
            ("a12 a12^2", "malformed exponent '2' (only ^-1 is allowed)", 1, 4),
            ("t\t\nr13^-01 s", "malformed exponent '-01' (only ^-1 is allowed)", 1, 3),
            ("s s s^+1", "bad token 's^+1'", 2, 4),
            ("  a12 t13 a12^", "bad token 'a12^'", 2, 10),
            ("t A12", "bad token 'A12'", 1, 2),
            ("r12^-1\na22 t", "unknown token 'a22'", 1, 7),
        ],
    )
    def test_error_names_the_first_bad_token(self, text, message, index, offset):
        with pytest.raises(ParseError) as err:
            parse_word(text)
        assert str(err.value) == f"{message} (token {index}, offset {offset})"
        assert (err.value.token_index, err.value.char_offset) == (index, offset)
        assert err.value.__context__ is None or err.value.__suppress_context__

    def test_parse_builds_no_generator_or_macro(self, monkeypatch):
        forms = [name + sign for name in self.names for sign in ("", "^-1")]
        text = " ".join(forms + forms[::-2])
        assert len(text.split()) == 60
        expected = parse_reference(text)
        built = []
        for cls in (Generator, Macro):
            check = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__", lambda self, check=check: (built.append(self), check(self))
            )
        word = parse_word(text)
        assert not built
        monkeypatch.undo()
        assert word == expected

    def test_macro_inverses_are_read_not_inverted(self, monkeypatch):
        import t3mcg.words as words

        expected = {kind: invert(expand_macro(Macro(kind, 1))) for kind in MACRO_TOKENS}
        macros = [Macro(kind, -1) for kind in MACRO_TOKENS]
        inverted = []
        monkeypatch.setattr(words, "invert", lambda w: inverted.append(w) or invert(w))
        got = {m.kind: expand_macro(m) for m in macros}
        assert not inverted
        assert got == expected


class TestLetterRefusals:
    @pytest.mark.parametrize("cls, name", [(Generator, "generator"), (Macro, "macro")])
    def test_unknown_kind(self, cls, name):
        with pytest.raises(ValueError, match=f"^unknown {name} kind 'x12'$"):
            cls("x12", 1)

    @pytest.mark.parametrize("cls, kind, name", [(Generator, "a12", "generator"),
                                                 (Macro, "t12", "macro")])
    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_other_than_one(self, cls, kind, name, sign):
        with pytest.raises(ValueError, match=f"^{name} sign must be \\+1 or -1, got {sign}$"):
            cls(kind, sign)

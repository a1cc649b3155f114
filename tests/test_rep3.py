import random

import pytest
from hypothesis import given, settings, strategies as st

from t3mcg.words import AXIS_PAIRS, Generator, Macro, expand_macro, invert, compose
from t3mcg.rep3 import (
    DeterminantError,
    IDENTITY3,
    decompose_sl3,
    det3,
    gen_image3,
    is_kernel3,
    mat_mul,
    word_image3,
)


def G(kind, sign=1):
    return Generator(kind, sign)


shear_letters = st.builds(
    Generator,
    st.sampled_from([f"a{i}{j}" for i, j in AXIS_PAIRS]),
    st.sampled_from((1, -1)),
)
all_letters = st.builds(
    Generator,
    st.sampled_from([f"a{i}{j}" for i, j in AXIS_PAIRS] + ["s", "t"]),
    st.sampled_from((1, -1)),
)
words = st.lists(all_letters, max_size=25).map(tuple)


class TestGeneratorImages:
    def test_a12(self):
        assert gen_image3(G("a12")) == ((1, 0, 0), (1, 1, 0), (0, 0, 1))

    def test_a12_inverse(self):
        assert gen_image3(G("a12", -1)) == ((1, 0, 0), (-1, 1, 0), (0, 0, 1))

    def test_swap_and_twist_trivial(self):
        assert gen_image3(G("s")) == IDENTITY3
        assert gen_image3(G("t")) == IDENTITY3

    def test_inverses_multiply_to_identity(self):
        for i, j in AXIS_PAIRS:
            m = mat_mul(gen_image3(G(f"a{i}{j}")), gen_image3(G(f"a{i}{j}", -1)))
            assert m == IDENTITY3


class TestWordImage:
    def test_empty(self):
        assert word_image3(()) == IDENTITY3

    def test_repeated_shear(self):
        assert word_image3((G("a12"), G("a12"))) == ((1, 0, 0), (2, 1, 0), (0, 0, 1))

    def test_rotation_r12_matrix(self):
        m = word_image3(expand_macro(Macro("r12", 1)))
        # columns: e1 -> e2, e2 -> -e1, e3 -> e3
        assert m == ((0, -1, 0), (1, 0, 0), (0, 0, 1))

    def test_rotation_words_all_six(self):
        for i, j in AXIS_PAIRS:
            m = word_image3(expand_macro(Macro(f"r{i}{j}", 1)))
            k = ({1, 2, 3} - {i, j}).pop()
            cols = [tuple(m[r][c] for r in range(3)) for c in range(3)]
            assert cols[i - 1] == tuple(1 if r == j - 1 else 0 for r in range(3))
            assert cols[j - 1] == tuple(-1 if r == i - 1 else 0 for r in range(3))
            assert cols[k - 1] == tuple(1 if r == k - 1 else 0 for r in range(3))

    def test_twist_macros_in_kernel(self):
        assert is_kernel3((G("t"),))
        assert not is_kernel3((G("a12"),))
        for i, j in AXIS_PAIRS:
            assert is_kernel3(expand_macro(Macro(f"t{i}{j}", 1)))

    @given(st.lists(all_letters, max_size=15).map(tuple), st.lists(all_letters, max_size=15).map(tuple))
    def test_homomorphism(self, u, v):
        assert word_image3(compose(u, v)) == mat_mul(word_image3(v), word_image3(u))

    @given(words)
    def test_inverse_word(self, w):
        assert mat_mul(word_image3(w), word_image3(invert(w))) == IDENTITY3

    @given(words)
    def test_determinant_one(self, w):
        assert det3(word_image3(w)) == 1

    @given(st.lists(all_letters, max_size=10).map(tuple),
           st.lists(all_letters, max_size=10).map(tuple))
    def test_conjugation_covariance(self, u, w):
        conj = compose(compose(invert(u), w), u)
        mu = word_image3(u)
        lhs = word_image3(conj)
        from t3mcg.mesh.homology import invert_unimodular
        rhs = mat_mul(mu, mat_mul(word_image3(w), invert_unimodular(mu)))
        assert lhs == rhs


class TestDecompose:
    def test_identity(self):
        assert decompose_sl3(IDENTITY3) == ()

    def test_single_shear(self):
        m = gen_image3(G("a23"))
        w = decompose_sl3(m)
        assert word_image3(w) == m
        assert all(g.kind.startswith("a") for g in w)

    def test_rejects_bad_determinant(self):
        with pytest.raises(DeterminantError):
            decompose_sl3(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(DeterminantError):
            decompose_sl3(((-1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_negative_entries(self):
        m = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
        assert word_image3(decompose_sl3(m)) == m

    @settings(max_examples=50)
    @given(st.lists(shear_letters, max_size=30).map(tuple))
    def test_roundtrip(self, w):
        m = word_image3(w)
        w2 = decompose_sl3(m)
        assert word_image3(w2) == m
        assert all(g.kind.startswith("a") for g in w2)

    def test_seeded_bulk_roundtrip(self):
        rng = random.Random(123)
        letters = [G(f"a{i}{j}", s) for i, j in AXIS_PAIRS for s in (1, -1)]
        for _ in range(300):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 30)))
            m = word_image3(w)
            assert word_image3(decompose_sl3(m)) == m


class TestIntegerEntries:
    # int() would truncate 1.9 to 1 and accept "1" and True; all are refused
    @pytest.mark.parametrize("bad", [1.9, 1.0, "1", True, None], ids=repr)
    def test_non_int_entry_is_refused(self, bad):
        from t3mcg.rep3 import mat3
        from t3mcg.rep6 import IDENTITY6, mat6

        with pytest.raises(ValueError, match="not an integer"):
            mat3([[1, 0, 0], [0, 1, 0], [0, 0, bad]])
        rows6 = [list(row) for row in IDENTITY6]
        rows6[5][5] = bad
        with pytest.raises(ValueError, match="not an integer"):
            mat6(rows6)


class TestDecomposeLetterCap:
    def test_cap_is_checked_before_the_word_is_built(self, monkeypatch):
        from t3mcg.rep3 import MAX_LETTERS, WordTooLongError, decompose_sl3

        assert MAX_LETTERS == 10**7
        assert issubclass(WordTooLongError, ValueError)
        monkeypatch.setattr("t3mcg.rep3.MAX_LETTERS", 5)
        word = decompose_sl3(((1, 5, 0), (0, 1, 0), (0, 0, 1)))
        assert len(word) == 5
        assert word_image3(word) == ((1, 5, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(WordTooLongError, match="6 letters"):
            decompose_sl3(((1, 6, 0), (0, 1, 0), (0, 0, 1)))

    def test_huge_entry_is_refused_quickly(self):
        from t3mcg.rep3 import WordTooLongError, decompose_sl3

        with pytest.raises(WordTooLongError):
            decompose_sl3(((1, 10**23, 0), (0, 1, 0), (0, 0, 1)))

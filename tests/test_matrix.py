"""The exact integer matrix algebra: ``rep3``'s cofactor matrix and determinant,
its products and its shear decomposition against the references, the shear
solver's inverse built without ``Fraction``, and the signed law of
``rep6.signed_inverse`` against an explicit ``M^T J M``."""

import fractions
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from matrix_reference import (
    decompose_reference,
    det3_expansion,
    invert_unimodular,
    mat_mul_reference,
    mat_vec_reference,
)
from t3mcg.mesh.homology import CANONICAL_J
from t3mcg.rep3 import (
    IDENTITY3,
    WordTooLongError,
    cofactors3,
    decompose_sl3,
    det3,
    gen_image3,
    mat_mul,
    mat_vec,
    transpose,
    word_image3,
)
from t3mcg.verifier import SHEAR_ALPHABET, random_word
from t3mcg.rep6 import IDENTITY6, is_antisymplectic, is_symplectic, solve_shear6
from t3mcg.words import AXIS_PAIRS, Generator, Macro, expand_macro

SHEARS = [f"a{i}{j}" for i, j in AXIS_PAIRS]


def det_one_blocks():
    """The six shears, the six rotation macros and 40 seeded shear words, as 3x3 images."""
    rng = random.Random(17)
    words = [
        tuple(Generator(rng.choice(SHEARS), rng.choice((1, -1))) for _ in range(rng.randint(1, 30)))
        for _ in range(40)
    ]
    return (
        [gen_image3(Generator(tok, 1)) for tok in SHEARS]
        + [word_image3(expand_macro(Macro(f"r{i}{j}", 1))) for i, j in AXIS_PAIRS]
        + [word_image3(w) for w in words]
    )


class TestCofactors:
    def test_cofactors_are_the_gauss_jordan_inverse_transpose(self):
        blocks = det_one_blocks()
        assert len(set(blocks)) > 40  # the rotations and words add blocks of other shapes
        for r in blocks:
            assert cofactors3(r) == invert_unimodular(transpose(r)), r
            assert det3(r) == det3_expansion(r) == 1

    @given(st.lists(st.integers(-50, 50), min_size=9, max_size=9))
    def test_cofactors_times_matrix_is_det_times_identity(self, entries):
        m = tuple(tuple(entries[3 * i:3 * i + 3]) for i in range(3))
        d = det3(m)
        assert d == det3_expansion(m)
        assert mat_mul(transpose(cofactors3(m)), m) == tuple(
            tuple(d * (i == j) for j in range(3)) for i in range(3)
        )


class TestProducts:
    @staticmethod
    def random_matrix(rng, rows, cols, bound):
        return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows))

    @pytest.mark.parametrize("bound", [9, 2**70], ids=["small", "past_int64"])
    def test_products_equal_the_triple_loop(self, bound):
        rng = random.Random(bound)
        for shape_a, shape_b in [((3, 3), (3, 6)), ((6, 6), (6, 6))] * 20:
            a = self.random_matrix(rng, *shape_a, bound)
            b = self.random_matrix(rng, *shape_b, bound)
            v = self.random_matrix(rng, 1, shape_a[1], bound)[0]
            product = mat_mul(a, b)
            assert product == mat_mul_reference(a, b)
            assert len(product) == shape_a[0] and {len(row) for row in product} == {shape_b[1]}
            assert mat_vec(a, v) == mat_vec_reference(a, v)
            if bound > 2**63:
                assert max(abs(x) for row in product for x in row) > 2**63
        assert all(type(x) is int for row in product for x in row)


def runs(word):
    # run-length form: a run repeats one letter object, so no letter is compared
    # with ``==`` inside it, and two words are equal exactly when their runs are
    return [(g, len(list(run))) for g, run in itertools.groupby(word)]


def decompositions_agree(m):
    """``decompose_sl3`` and the reference give the same word, or the same refusal."""
    try:
        expected = decompose_reference(m)
    except WordTooLongError as e:
        with pytest.raises(WordTooLongError, match=str(e)):
            decompose_sl3(m)
        return False
    assert runs(decompose_sl3(m)) == runs(expected), m
    return True


class TestDecomposeAgainstReference:
    # the flat kernel keeps the reference's op log word for word: its pivots,
    # its tie-breaks, its fix-ups and its letter order

    def test_suite_matrices(self):
        rng = random.Random(1)  # the suite's decomposition round trip at seed 0
        for _ in range(1000):
            assert decompositions_agree(word_image3(random_word(rng, SHEAR_ALPHABET, 30)))

    def test_long_words_with_large_entries(self):
        rng, matrices = random.Random(3), []
        while len(matrices) < 300:
            m = word_image3(tuple(rng.choice(SHEAR_ALPHABET) for _ in range(100)))
            if max(abs(x) for row in m for x in row) >= 10**5:
                matrices.append(m)
        built = [decompositions_agree(m) for m in matrices]
        assert built.count(False) >= 1  # some ask for more than MAX_LETTERS letters

    @staticmethod
    def tied_first_column(m):
        smallest = sorted(abs(row[0]) for row in m if row[0])[:2]
        return len(smallest) == 2 and smallest[0] == smallest[1] > 1

    def test_tied_entries_in_a_column(self):
        # the smallest |entries| tie, so the tie-break picks the pivot row
        rng, matrices = random.Random(23), []
        while len(matrices) < 40:
            m = word_image3(tuple(rng.choice(SHEAR_ALPHABET) for _ in range(rng.randint(1, 20))))
            if self.tied_first_column(m):
                matrices.append(m)
        by_hand = [
            ((2, 1, 0), (2, 1, 1), (3, 1, 0)),
            ((2, 1, 0), (-2, 1, 1), (3, 1, 0)),
            ((1, 0, 0), (0, 1, 0), (0, 1, 1)),  # the second column ties at 1
            ((1, 0, 0), (0, -1, 1), (0, 1, -2)),
        ]
        assert all(det3(m) == 1 for m in by_hand) and all(map(self.tied_first_column, by_hand[:2]))
        for m in matrices + by_hand:
            assert decompositions_agree(m)

    def test_negative_pivot_fix_up(self):
        # every signed permutation matrix of determinant 1; a -1 left alone in
        # a column takes the fix-up through a third row
        matrices = [
            tuple(tuple(signs[r] * (c == perm[r]) for c in range(3)) for r in range(3))
            for perm in itertools.permutations(range(3))
            for signs in itertools.product((1, -1), repeat=3)
        ]
        matrices = [m for m in matrices if det3(m) == 1]
        assert len(matrices) == 24
        assert sum(any(row[0] == -1 for row in m) for m in matrices) == 12
        assert ((1, 0, 0), (0, -1, 0), (0, 0, -1)) in matrices
        for m in matrices:
            assert decompositions_agree(m)
            assert word_image3(decompose_sl3(m)) == m

    def test_identity(self):
        assert decompose_sl3(IDENTITY3) == decompose_reference(IDENTITY3) == ()


def test_shear_solver_builds_no_fraction(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    with pytest.raises(AssertionError, match="a Fraction was built"):
        invert_unimodular(((1, 0, 0), (1, 1, 0), (0, 0, 1)))  # the patch bites
    for tok in SHEARS:
        r = gen_image3(Generator(tok, 1))
        assert solve_shear6(r).matrix[0][:3] == cofactors3(r)[0]


def test_signed_law_agrees_with_the_explicit_form(homology16):
    from t3mcg.rep6 import derive_table
    from test_rep6 import non_symmetric_shear

    minus_j = tuple(tuple(-x for x in row) for row in CANONICAL_J)
    table = derive_table(homology16)
    cases = [
        (table.image(Generator(kind, sign)), kind == "s", kind != "s")
        for kind in ["s", "t"] + SHEARS
        for sign in (1, -1)
    ]
    cases += [(non_symmetric_shear(), False, False), (IDENTITY6, False, True)]
    assert len(cases) == 18
    for m, anti, plain in cases:
        form = mat_mul(transpose(m), mat_mul(CANONICAL_J, m))
        assert (form == CANONICAL_J, form == minus_j) == (plain, anti)
        assert (is_symplectic(m), is_antisymplectic(m)) == (plain, anti)

"""The exact integer matrix algebra: ``rep3``'s cofactor matrix and determinant,
the shear solver's inverse built without ``Fraction``, and the signed law of
``rep6.signed_inverse`` against an explicit ``M^T J M``."""

import fractions
import random

import pytest
from hypothesis import given, strategies as st

from matrix_reference import det3_expansion, invert_unimodular
from t3mcg.mesh.homology import CANONICAL_J
from t3mcg.rep3 import cofactors3, det3, gen_image3, mat_mul, transpose, word_image3
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

"""Gauss–Jordan reference for the exact integer inverses.

``src/`` inverts no matrix by elimination: a letter's inverse is its signed
block transpose (``rep6.signed_inverse``) and a shear's ``P = R^-T`` is the
cofactor matrix (``rep3.cofactors3``).  This elimination over ``Fraction``s is
what the tests compare both against, and ``det3_expansion`` is the written-out
determinant that ``rep3.det3`` spells in the cofactors' cyclic order.
``decompose_reference`` is the shear decomposition as it stood before its
reduction loop was flattened, with a closure per row operation, a key sort per
pass and its own letter builder; ``mat_mul_reference`` and
``mat_vec_reference`` are the triple-loop products.
"""

from fractions import Fraction
from itertools import repeat

from t3mcg.rep3 import DeterminantError, WordTooLongError, mat3
from t3mcg.words import AXIS_PAIRS, Generator, Word
import t3mcg.rep3 as rep3


def invert_unimodular(a):
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = []
    for row in aug:
        vals = row[n:]
        if any(v.denominator != 1 for v in vals):
            raise ValueError("matrix is not unimodular")
        inv.append(tuple(int(v) for v in vals))
    return tuple(inv)


def det3_expansion(m):
    """The 3x3 determinant written out as its Laplace expansion along row 0."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mat_mul_reference(a, b):
    return tuple(
        tuple(sum(a[i][x] * b[x][j] for x in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_vec_reference(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


# The 12 shear letters, one object each, keyed (i, j, sign).
_SHEAR_LETTERS = {
    (i, j, sign): Generator(f"a{i}{j}", sign) for i, j in AXIS_PAIRS for sign in (1, -1)
}


def _letters_for_ops(ops) -> Word:
    # Left-multiplying the op list E_1 .. E_m onto m gives E_m ... E_1 m = I,
    # so m = E_1^-1 ... E_m^-1.  With right-to-left evaluation the word reads
    # the inverted ops in reverse.
    letters = []
    for (i, j, c) in reversed(ops):
        letters.extend(repeat(_SHEAR_LETTERS[i, j, -1 if c > 0 else 1], abs(c)))
    return tuple(letters)


def decompose_reference(m) -> Word:
    """A word in the shears whose image is m.  Requires det(m) = 1, and raises
    ``WordTooLongError`` before building a word of over ``MAX_LETTERS`` letters."""
    m = mat3(m)
    if det3_expansion(m) != 1:
        raise DeterminantError(f"determinant is {det3_expansion(m)}, expected 1")
    work = [list(row) for row in m]
    ops: list[tuple[int, int, int]] = []

    def row_op(i: int, j: int, c: int):
        if c != 0:
            a, b = work[i - 1], work[j - 1]
            b[0], b[1], b[2] = b[0] + c * a[0], b[1] + c * a[1], b[2] + c * a[2]
            ops.append((i, j, c))

    def clear_column(col: int, rows: list[int]):
        # Euclidean reduction of work[r][col] for r in rows, ending with the
        # pivot +1 in rows[0] and zeros below.  gcd of the column entries is 1
        # because it divides the determinant of the untouched minor.
        while True:
            nz = [r for r in rows if work[r - 1][col] != 0]
            if len(nz) == 1:
                break
            nz.sort(key=lambda r: abs(work[r - 1][col]))
            piv = nz[0]
            a = work[piv - 1]
            for r in nz[1:]:  # row_op(piv, r, -q) inline: |b[col]| >= |a[col]|, so q != 0
                b = work[r - 1]
                q = b[col] // a[col]
                b[0], b[1], b[2] = b[0] - q * a[0], b[1] - q * a[1], b[2] - q * a[2]
                ops.append((piv, r, -q))
        r = nz[0]
        top = rows[0]
        if r != top:
            row_op(r, top, 1)   # copy value up
            row_op(top, r, -1)  # erase it below
        if work[top - 1][col] < 0:
            other = rows[1]
            row_op(top, other, 1)
            row_op(other, top, -2)
            row_op(top, other, 1)
        assert work[top - 1][col] == 1

    clear_column(0, [1, 2, 3])
    clear_column(1, [2, 3])
    # Bottom-right entry is now det / 1 = 1; clear the remaining off-diagonals.
    assert work[2][2] == 1
    row_op(3, 2, -work[1][2])
    row_op(2, 1, -work[0][1])
    row_op(3, 1, -work[0][2])
    assert work == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    letters = sum(abs(c) for _, _, c in ops)
    if letters > rep3.MAX_LETTERS:
        raise WordTooLongError(
            f"the shear word would have {letters} letters, over {rep3.MAX_LETTERS}"
        )
    return _letters_for_ops(ops)

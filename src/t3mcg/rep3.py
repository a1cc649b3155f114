"""The induced integer action on first homology of the ambient torus.

Every word maps to a 3x3 integer matrix of determinant one.  Column-vector
convention throughout: a shear a_ij sends basis vector e_i to e_i + e_j (the
matrix is the identity plus a single 1 in row j, column i), and matrices for a
word multiply right to left so that the first letter acts first.  The swap and
twist generators act trivially here.  Exactness is the point: plain Python
integers, no floats.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat

from .words import AXIS_PAIRS, Generator, Word

Mat3 = tuple  # 3x3 tuple of tuples of ints, row-major

IDENTITY3: Mat3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def int_matrix(rows, size: int) -> tuple:
    """A size x size tuple of rows of plain ints, from a sequence of sequences.

    Any other entry raises ValueError: floats and numeric strings are refused
    rather than truncated, and booleans are refused although they are ints.
    """
    rows = rows if isinstance(rows, Sequence) else ()
    m = tuple(tuple(row) if isinstance(row, Sequence) else () for row in rows)
    if len(m) != size or any(len(r) != size for r in m):
        raise ValueError(f"expected a {size}x{size} matrix")
    for row in m:
        for x in row:
            if type(x) is not int:
                raise ValueError(f"matrix entry {x!r} is not an integer")
    return m


def mat3(rows) -> Mat3:
    return int_matrix(rows, 3)


def mat_mul(a, b):
    """Exact product of integer matrices of compatible shapes."""
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum(a[i][x] * b[x][j] for x in range(k)) for j in range(m)) for i in range(n)
    )


def det3(m: Mat3) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


# Each shear's row_j += sign * row_i, 0-based (i, j): left multiplication by its image.
_ROW_OPS = {f"a{i}{j}": (i - 1, j - 1) for i, j in AXIS_PAIRS}


def word_image3(w: Word) -> Mat3:
    """The image of a word in the eight base generators; other letters raise ValueError."""
    rows = list(IDENTITY3)
    for g in w:  # first letter acts first => row operation on the left
        op = _ROW_OPS.get(g.kind)
        if op is None:
            if g.kind in ("s", "t"):
                continue
            raise ValueError(f"{g.kind!r} is not a base generator")
        i, j = op
        (a0, a1, a2), (b0, b1, b2), c = rows[i], rows[j], g.sign
        rows[j] = (b0 + c * a0, b1 + c * a1, b2 + c * a2)
    return tuple(rows)


def gen_image3(g: Generator) -> Mat3:
    return word_image3((g,))


def is_kernel3(w: Word) -> bool:
    return word_image3(w) == IDENTITY3


# ---------------------------------------------------------------------------
# Constructive generation: write any determinant-one integer matrix as a word
# in the shears.  We reduce m to the identity by integer row operations
# "row_j += c * row_i" (left multiplication by the image of a_ij^c) and then
# read the word off the operation log.  Euclidean reduction keeps every
# intermediate entry at most a few multiples of the input entries; no attempt
# at short words is made.
# ---------------------------------------------------------------------------


class DeterminantError(ValueError):
    pass


# The longest word ``decompose_sl3`` builds, a stopgap until words are written
# in length logarithmic in the entries: the Euclidean reduction spells each
# row operation out letter by letter, so an entry near 10**10 would ask for
# that many letters.
MAX_LETTERS = 10**7


class WordTooLongError(ValueError):
    pass


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


def decompose_sl3(m: Mat3) -> Word:
    """A word in the shears whose image is m.  Requires det(m) = 1, and raises
    ``WordTooLongError`` before building a word of over ``MAX_LETTERS`` letters."""
    m = mat3(m)
    if det3(m) != 1:
        raise DeterminantError(f"determinant is {det3(m)}, expected 1")
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
    if letters > MAX_LETTERS:
        raise WordTooLongError(f"the shear word would have {letters} letters, over {MAX_LETTERS}")
    return _letters_for_ops(ops)

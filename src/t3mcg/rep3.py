"""The induced integer action on first homology of the ambient torus.

Every word maps to a 3x3 integer matrix of determinant one.  Column-vector
convention throughout: a shear a_ij sends basis vector e_i to e_i + e_j (the
matrix is the identity plus a single 1 in row j, column i), and matrices for a
word multiply right to left so that the first letter acts first.  The swap and
twist generators act trivially here.  Exactness is the point: plain Python
integers, no floats, no ``Fraction``.  The integer matrix helpers of ``rep6`` and
``mesh.homology`` live here too, with the 3x3 cofactor matrix as their one inverse.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

from .words import AXIS_PAIRS, Generator, Word

Mat3 = tuple  # 3x3 tuple of tuples of ints, row-major


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


IDENTITY3: Mat3 = identity(3)


# ``Sequence``, its two common kinds first: ``isinstance`` stops at the first match
_SEQUENCES = (tuple, list, Sequence)


def int_matrix(rows, size: int) -> tuple:
    """A size x size tuple of rows of plain ints, from a sequence of sequences.

    Any other entry raises ValueError: floats and numeric strings are refused
    rather than truncated, and booleans are refused although they are ints.
    """
    rows = rows if isinstance(rows, _SEQUENCES) else ()
    m = tuple([tuple(row) if isinstance(row, _SEQUENCES) else () for row in rows])
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
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def transpose(a):
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def cofactors3(m: Mat3) -> Mat3:
    """The cofactor matrix ``det(m) m^-T`` of a 3x3 integer matrix, so the exact
    ``m^-T`` when ``det(m) = 1``: entry (i, j) is the signed minor of ``m[i][j]``."""
    rest = ((1, 2), (2, 0), (0, 1))  # the other two rows (columns) of i (j), cyclically
    return tuple(
        tuple(m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1] for j1, j2 in rest) for i1, i2 in rest
    )


def det3(m: Mat3) -> int:
    """Expansion along row 0: ``m[0]`` dotted with row 0 of ``cofactors3(m)``, written out."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)


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
# "row_j += c * row_i" (left multiplication by the image of a_ij^c), each
# written inline, and then read the word off the operation log, one list
# repetition per operation.  Euclidean reduction keeps every intermediate
# entry at most a few multiples of the input entries; no attempt at short
# words is made.
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


# The inverse of each row operation as a letter: row j += c * row i (0-based) is
# undone by a_{i+1, j+1} with the sign opposite to c, at ``[i][j][c > 0]``.
_INVERSE_LETTERS = tuple(
    tuple(
        (Generator(f"a{i + 1}{j + 1}", 1), Generator(f"a{i + 1}{j + 1}", -1)) if i != j else None
        for j in range(3)
    )
    for i in range(3)
)


def decompose_sl3(m: Mat3) -> Word:
    """A word in the shears whose image is m.  Requires det(m) = 1, and raises
    ``WordTooLongError`` before building a word of over ``MAX_LETTERS`` letters."""
    m = mat3(m)
    d = det3(m)
    if d != 1:
        raise DeterminantError(f"determinant is {d}, expected 1")
    work = [list(row) for row in m]
    ops: list[tuple[int, int, int]] = []  # (i, j, c): row j += c * row i, 0-based
    for col, rows in ((0, (0, 1, 2)), (1, (1, 2))):
        # Euclidean reduction of work[r][col] for r in rows, ending with the
        # pivot +1 in rows[0] and zeros below.  gcd of the column entries is 1
        # because it divides the determinant of the untouched minor.  Ties in
        # |entry| go to the lower row.
        while True:
            nz = sorted([(abs(x), r) for r in rows if (x := work[r][col])])
            if len(nz) == 1:
                break
            piv = nz[0][1]
            a = work[piv]
            p = a[col]
            for _, r in nz[1:]:  # |b[col]| >= |p|, so q != 0
                b = work[r]
                q = b[col] // p
                b[0], b[1], b[2] = b[0] - q * a[0], b[1] - q * a[1], b[2] - q * a[2]
                ops.append((piv, r, -q))
        r, top = nz[0][1], rows[0]
        # copy the unit up and erase it below; a -1 pivot is negated with a third row
        fix = [(r, top, 1), (top, r, -1)] if r != top else []
        if work[r][col] < 0:
            fix += [(top, rows[1], 1), (rows[1], top, -2), (top, rows[1], 1)]
        for i, j, c in fix:
            a, b = work[i], work[j]
            b[0], b[1], b[2] = b[0] + c * a[0], b[1] + c * a[1], b[2] + c * a[2]
        ops += fix
        assert work[top][col] == 1
    # Bottom-right entry is now det / 1 = 1; clear the remaining off-diagonals.
    assert work[2][2] == 1
    for i, j in ((2, 1), (1, 0), (2, 0)):
        c = -work[j][i]
        if c:
            a, b = work[i], work[j]
            b[0], b[1], b[2] = b[0] + c * a[0], b[1] + c * a[1], b[2] + c * a[2]
            ops.append((i, j, c))
    assert work == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    letters = sum([abs(c) for _, _, c in ops])
    if letters > MAX_LETTERS:
        raise WordTooLongError(f"the shear word would have {letters} letters, over {MAX_LETTERS}")
    # Left-multiplying the op list E_1 .. E_m onto m gives E_m ... E_1 m = I,
    # so m = E_1^-1 ... E_m^-1.  With right-to-left evaluation the word reads
    # the inverted ops in reverse.
    word = []
    for i, j, c in reversed(ops):
        word += [_INVERSE_LETTERS[i][j][c > 0]] * abs(c)
    return tuple(word)

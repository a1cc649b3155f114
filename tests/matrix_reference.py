"""Gauss–Jordan reference for the exact integer inverses.

``src/`` inverts no matrix by elimination: a letter's inverse is its signed
block transpose (``rep6.signed_inverse``) and a shear's ``P = R^-T`` is the
cofactor matrix (``rep3.cofactors3``).  This elimination over ``Fraction``s is
what the tests compare both against, and ``det3_expansion`` is the written-out
determinant that ``rep3.det3`` reads off the cofactors.
"""

from fractions import Fraction


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

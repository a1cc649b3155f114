"""The integer action of words on first homology of the splitting surface.

Generator matrices are derived, never hand-entered: the swap and twist act
through the mesh (matching translated loops with sections, composing twists
along the extracted tube loops), while the shears are completed from their
forced blocks by an exact enumeration of the bounded symplectic completions.
The resulting 6x6 matrices act on canonical homology coordinates by left
multiplication, first letter first, mirroring the 3x3 convention.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product

import numpy as np

from .words import AXIS_PAIRS, BASE_TOKENS, Generator, Macro, Word, expand_macro
from .rep3 import (
    cofactors3,
    det3,
    gen_image3,
    identity,
    int_matrix,
    is_kernel3,
    mat_mul,
    transpose,
    word_image3,
)
from .mesh.homology import CANONICAL_J, HALF, HomologyData, PROJECTION, pair_tube, tube_twist
from .mesh.curves import DegeneracyError, TubeField, slice_field

Mat6 = tuple

IDENTITY6 = identity(6)


def mat6(rows) -> Mat6:
    return int_matrix(rows, 6)


def signed_inverse(m: Mat6, sigma: int) -> Mat6:
    """``-sigma J M^T J``, the inverse of ``M`` exactly when ``M^T J M = sigma J`` (the signed
    law: ``sigma = 1`` symplectic, ``-1`` antisymplectic), as the block transpose
    ``inv[i][j] = +-m[j + 3 mod 6][i + 3 mod 6]``, ``sigma`` within blocks, ``-sigma`` across."""
    return tuple(  # m[k - 3] is row k + 3 mod 6
        tuple((sigma if (i < 3) == (j < 3) else -sigma) * m[j - 3][i - 3] for j in range(6))
        for i in range(6)
    )


def is_symplectic(m: Mat6) -> bool:
    return mat_mul(signed_inverse(m, 1), m) == IDENTITY6


def is_antisymplectic(m: Mat6) -> bool:
    return mat_mul(signed_inverse(m, -1), m) == IDENTITY6


def intertwines(m: Mat6, r3) -> bool:
    """``PROJECTION M == R3 PROJECTION``: rows 4-6 of ``M`` are ``(0, 0, 0)`` + rows of ``R3``."""
    return all(tuple(m[3 + i]) == (0, 0, 0, *r3[i]) for i in range(3))


def _entry_points(mesh, steps, shift: int = 0) -> list:
    """Each step's entry point as ``(key_lo, key_hi, p, q)``: the grid-edge keys of its
    ends in ascending order, each lattice coordinate moved by ``shift`` mod n and the
    direction bits kept, and ``t = p/q`` measured from the lower key."""
    n, entry = mesh.resolution, steps.ends[:, 0]
    keys = mesh.vertex_key[entry[:, :2].astype(np.int64)]
    cell = (np.stack(np.unravel_index(keys >> 3, (n, n, n))) + shift) % n
    keys = np.ravel_multi_index(cell, (n, n, n)) * 8 + (keys & 7)
    flip, (p, q) = keys[:, 0] > keys[:, 1], entry[:, 2:].T
    keys.sort(axis=1)
    return list(zip(*keys.T.tolist(), np.where(flip, q - p, p).tolist(), q.tolist()))


def _image_loop(mesh, loop, section) -> tuple:
    """The loop of ``section`` whose entry points are the half-translated ones of ``loop``
    as a cyclic sequence, and ``+1`` or ``-1`` as it runs forward or reversed."""
    want = _entry_points(mesh, loop.steps, mesh.resolution // 2)
    for image in section.loops:
        points = _entry_points(mesh, image.steps)
        if want[0] in points:  # the one loop holding it: an entry point is on one step
            j = points.index(want[0])
            for sign, cycle in ((1, points[j:] + points[:j]), (-1, points[j::-1] + points[:j:-1])):
                if cycle == want:
                    return image, sign
    raise DegeneracyError("a half-translated generator loop is no loop of its image section")


def derive_swap6(h: HomologyData) -> Mat6:
    """Matrix of the handlebody swap ``x -> x + (1/2, 1/2, 1/2)``, read off the sections
    onto which it maps the six generator loops.  The sample field is antisymmetric,
    ``g(x + h) = -g(x)``, and mask ``15 - m`` of the case table crosses the edges of
    mask ``m`` with its triangles reversed.  So the mesh maps onto itself, each vertex
    to the one on the translated grid edge with its crossing parameter, orientation
    reversed: ``a_i`` lands on the B-side section and ``T_k`` on a slice of the
    translated tube; the exact six-loop match (``_image_loop``) certifies it.  Column g
    is the match sign times the generator's ``orientation_sign`` times the class of its
    image loop, whose own ``orientation_sign`` is 1, then times ``B``."""
    mesh, images = h.mesh, [ref.curves for ref in h.disk_sections_b]
    for f in (tube.field for tube in h.tubes):
        images.append(slice_field(mesh, TubeField(f.axis, [c + HALF for c in f.center], f.radius)))
    cols = []
    for g, (ref, section) in enumerate(zip(h.disk_sections_a + h.longitudes, images)):
        image, sign = _image_loop(mesh, ref.loop, section)
        cls = h.disk_b_classes[g] if g < 3 else h.class_of_loop(image, 1)
        cols.append(tuple(sign * ref.loop.orientation_sign * x for x in cls))
    return mat_mul(transpose(tuple(cols)), h.basis_change)  # column g: swapped generator g


def derive_twist6(h: HomologyData, pattern: str) -> Mat6:
    """Composite twist along the four loops of the reference tube (axis 3)."""
    return tube_twist(h, h.tubes[2], pattern)


# ---------------------------------------------------------------------------
# Shear completion.  Every element acting trivially on the two-sided split of
# homology has block form [[P, Q], [0, R]] in the canonical basis: R is the
# ambient 3x3 action (the winding part transforms like the ambient homology),
# the zero block is forced because meridian classes have zero winding, and
# the symplectic condition pins P = R^-T and makes S = R^T Q symmetric.  The
# remaining freedom, Q, is enumerated exactly over the box |Q| <= SHEAR_BOUND,
# in one numpy pass over the box's 125 integer columns.
# ---------------------------------------------------------------------------

SHEAR_BOUND = 2
# the columns with entries in [-b, b]; in this order row i has the base-(2b + 1)
# digits of i, each shifted by -b
BOX = np.array(list(product(range(-SHEAR_BOUND, SHEAR_BOUND + 1), repeat=3)), np.int64)


@dataclass
class ShearSolution:
    matrix: Mat6
    candidate_count: int
    bound: int


def solve_shear6(r_block) -> ShearSolution:
    """The least symplectic completion [[R^-T, Q], [0, R]] with |Q| <= SHEAR_BOUND.

    The candidates are all integer Q in the box with S = R^T Q symmetric.
    Column j of S is R^T q_j, so columns q_0 and q_1 pair on S[1][0] ==
    S[0][1] (a 125 x 125 mask), and q_2 is looked up by (S[0][2], S[1][2])
    with ``searchsorted`` in the columns sorted on their first two entries.
    Q = 0 always qualifies, so the search is never empty.  No box on S is
    needed: |Q| <= b already gives |S| <= b times the largest column sum of
    |R|, and Q -> R^T Q is a bijection.  The canonical choice is the row-major
    least Q: the entries of Q, row by row, are the digits of one base-(2b + 1)
    key.  Requires det R = 1, which makes P = R^-T the cofactor matrix ``cofactors3(R)``.
    """
    b, w, r = SHEAR_BOUND, 2 * SHEAR_BOUND + 1, [list(map(int, row)) for row in r_block]
    if det3(r) != 1:
        raise ValueError(f"R has determinant {det3(r)}, not 1")
    p = cofactors3(r)
    v = BOX @ np.array(r, np.int64)  # row q R is column R^T q
    i0, i1 = np.nonzero(v[:, None, 1] == v[None, :, 0])
    shift = int(np.abs(v).max())
    top = (v[:, 0] + shift) * (2 * shift + 1) + v[:, 1] + shift
    order = np.argsort(top, kind="stable")
    want = (v[i0, 2] + shift) * (2 * shift + 1) + v[i1, 2] + shift
    first = np.searchsorted(top[order], want)
    count = np.searchsorted(top[order], want, side="right") - first
    pair = np.repeat(np.arange(len(i0)), count)  # the (q_0, q_1) pair of each candidate
    i2 = order[np.arange(len(pair)) + np.repeat(first - np.cumsum(count) + count, count)]
    i0, i1, code = i0[pair], i1[pair], (BOX + b) @ (w**6, w**3, 1)  # a column's digits in Q
    least = int(((code[i0] * w + code[i1]) * w + code[i2]).argmin())
    q = np.stack([BOX[i0[least]], BOX[i1[least]], BOX[i2[least]]], axis=1).tolist()
    m = mat6([[*p[i], *q[i]] for i in range(3)] + [[0, 0, 0] + row for row in r])
    assert is_symplectic(m)
    return ShearSolution(matrix=m, candidate_count=len(i2), bound=b)


# ---------------------------------------------------------------------------
# Generator table.
# ---------------------------------------------------------------------------

TWIST_PATTERNS = ("all_plus", "alternating")  # the handedness candidates
# characters read of a table file or a matrix on stdin; a table is 4.4 KB at every
# resolution, and a longer input, such as an endless device, is refused unread
INPUT_LIMIT = 1 << 20


def _str_map(value, value_type) -> bool:
    """Whether ``value`` is a dict from strings to values of exactly ``value_type``."""
    return isinstance(value, dict) and all(
        type(k) is str and type(v) is value_type for k, v in value.items()
    )


def _radius_text(value) -> bool:
    """Whether ``value`` is ``""`` (no radius recorded) or a positive ``p`` or ``p/q``
    in decimal digits, as ``str(Fraction)`` writes it; no exponent is expanded."""
    if type(value) is not str or not re.fullmatch(r"([0-9]+(/[0-9]+)?)?", value):
        return False
    try:
        return value == "" or Fraction(value) > 0
    except (ValueError, ZeroDivisionError):  # more digits than int() reads, or q = 0
        return False


@dataclass
class GeneratorTable6:
    """The eight generator matrices; construction builds all 16 letters once.

    A letter's inverse is its ``signed_inverse``, with ``sigma = -1`` for ``s`` alone and
    ``1`` for the rest, kept only if ``inv M = I``, the signed law itself.  ``_letters``
    holds, for each of the 16 letters ``g``, four values read off its exact matrix:
    the matrix itself; its int64 array, made only when ``6 |g| < 2^62``, else ``None``;
    its admission limit ``(2^62 - 1) // (6 |g|)``, the largest ``|A|`` with
    ``6 |A| |g| < 2^62``, which is 0 exactly when there is no array; and its growth
    ``||g||_inf``, the largest row sum of ``|g|``.  Here ``|X|`` is the largest ``|entry|``.
    """

    matrices: dict  # token -> Mat6 (sign +1)
    provenance: dict
    candidate_counts: dict
    handedness: str  # winning twist pattern
    resolution: int
    tube_radius: str

    # (kind, sign) -> (exact Mat6, int64 array or None, admission limit, growth)
    _letters: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._letters = {}
        for tok, m in self.matrices.items():
            inv = signed_inverse(m, -1 if tok == "s" else 1)
            if mat_mul(inv, m) != IDENTITY6:
                raise ValueError(f"matrix {tok} is not {'anti' * (tok == 's')}symplectic")
            for sign, x in ((1, m), (-1, inv)):
                limit = (2**62 - 1) // (6 * max(abs(v) for row in x for v in row))
                arr = np.array(x, dtype=np.int64) if limit else None
                growth = max(sum(map(abs, row)) for row in x)
                self._letters[tok, sign] = (x, arr, limit, growth)

    def image(self, g: Generator) -> Mat6:
        """The exact matrix of one letter, inverses included, built at construction."""
        return self._letters[g.kind, g.sign][0]

    def to_json(self) -> dict:
        return {
            "basis": "a1 a2 a3 b1 b2 b3 (meridian classes then winding classes)",
            "form": [list(r) for r in CANONICAL_J],
            "projection": [list(r) for r in PROJECTION],
            "resolution": self.resolution,
            "tube_radius": self.tube_radius,
            "handedness": self.handedness,
            "matrices": {k: [list(r) for r in m] for k, m in self.matrices.items()},
            "provenance": self.provenance,
            "candidate_counts": self.candidate_counts,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GeneratorTable6":
        """A persisted table, checked against the laws every derived table
        obeys; a violation raises ``ValueError`` naming the token or key."""
        if not isinstance(data, dict):
            raise ValueError("table is not a JSON object")
        if missing := [key for key in ("matrices", "resolution", "handedness") if key not in data]:
            raise ValueError(f"missing key {missing[0]!r}")
        if not isinstance(data["matrices"], dict):
            raise ValueError("key 'matrices' is not a JSON object")
        matrices = {k: mat6(v) for k, v in data["matrices"].items()}
        for tok in BASE_TOKENS:
            if tok not in matrices:
                raise ValueError(f"matrix {tok} is missing")
        for tok in matrices:
            if tok not in BASE_TOKENS:
                raise ValueError(f"unknown matrix {tok!r}")
        if type(data["resolution"]) is not int:
            raise ValueError(f"resolution must be an integer, got {data['resolution']!r}")
        for tok in BASE_TOKENS:
            if not intertwines(matrices[tok], gen_image3(Generator(tok, 1))):
                raise ValueError(f"matrix {tok} does not intertwine with the projection")
        meta = {
            "provenance": data.get("provenance", {}),
            "candidate_counts": data.get("candidate_counts", {}),
            "handedness": data["handedness"],
            "tube_radius": data.get("tube_radius", ""),
        }
        for key, ok in (
            ("provenance", _str_map(meta["provenance"], str)),
            ("candidate_counts", _str_map(meta["candidate_counts"], int)),
            ("handedness", meta["handedness"] in TWIST_PATTERNS),
            ("tube_radius", _radius_text(meta["tube_radius"])),
        ):
            if not ok:
                raise ValueError(f"malformed {key}: {meta[key]!r}")
        # construction checks the signed law: with intertwining, it forces s * s = I
        return cls(matrices=matrices, resolution=data["resolution"], **meta)

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "GeneratorTable6":
        with open(path) as fh:
            text = fh.read(INPUT_LIMIT + 1)
        if len(text) > INPUT_LIMIT:
            raise ValueError(f"the file is longer than {INPUT_LIMIT} characters")
        return cls.from_json(json.loads(text))


class HandednessError(RuntimeError):
    pass


def resolve_handedness(h: HomologyData, table_matrices: dict) -> tuple:
    """Decide which twist patterns are consistent under conjugation.

    The macro t13 conjugates the reference twist by a rotation word; its
    matrix must reproduce the twist matrix measured directly on the tube of
    the (1,3) disk pair.  Returns ``(winners, details)``: the passing
    patterns, and per pattern the conjugated and the direct matrix.  Exactly
    one pattern should pass; the caller reports anything else, never
    defaults it.
    """
    tube = pair_tube(h.mesh, 1, 3)
    word_t13 = expand_macro(Macro("t13", 1))

    winners = []
    details = {}
    for pattern in TWIST_PATTERNS:
        mats = dict(table_matrices)
        mats["t"] = derive_twist6(h, pattern)
        table = GeneratorTable6(
            matrices=mats,
            provenance={},
            candidate_counts={},
            handedness=pattern,
            resolution=h.mesh.resolution,
            tube_radius=str(h.tube_radius),
        )
        lhs = word_image6(word_t13, table)
        rhs = tube_twist(h, tube, pattern)
        details[pattern] = {"conjugated": lhs, "direct": rhs}
        if lhs == rhs:
            winners.append(pattern)
    return winners, details


def derive_table(h: HomologyData) -> GeneratorTable6:
    """Derive all eight generator matrices from the mesh and the solver."""
    swap = derive_swap6(h)
    check = mat_mul(swap, swap)
    if check != IDENTITY6:
        raise DegeneracyError("swap action is not an involution")

    matrices = {"s": swap}
    provenance = {"s": "mesh: half-translation pushforward of the basis curves"}
    counts = {}
    for i, j in AXIS_PAIRS:
        tok = f"a{i}{j}"
        r_block = gen_image3(Generator(tok, 1))
        sol = solve_shear6(r_block)
        matrices[tok] = sol.matrix
        counts[tok] = sol.candidate_count
        provenance[tok] = (
            "solver: symplectic completion of the forced blocks; canonical "
            f"candidate is the lexicographic least of {sol.candidate_count} "
            f"within entry bound {sol.bound}"
        )

    winners, _ = resolve_handedness(h, matrices)
    if len(winners) != 1:
        raise HandednessError(
            f"handedness patterns passing the conjugation check: {winners or 'none'}"
        )
    handedness = winners[0]
    matrices["t"] = derive_twist6(h, handedness)
    provenance["t"] = (
        f"mesh: composite twist along the four tube loops, {handedness} pattern "
        "selected by the conjugation check"
    )
    return GeneratorTable6(
        matrices=matrices,
        provenance=provenance,
        candidate_counts=counts,
        handedness=handedness,
        resolution=h.mesh.resolution,
        tube_radius=str(h.tube_radius),
    )


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def _int64_segment(w: Word, table: GeneratorTable6, start: int) -> tuple:
    """The longest run of letters from ``start`` whose product fits int64.

    Returns ``(product, stop)``: the int64 product of ``w[start:stop]``, and
    the first letter the stepwise bound |AB| <= 6 |A| |B| (entrywise) could
    not admit, or ``len(w)``.  ``stop == start`` means that letter is too
    large even on its own; it is never converted to int64.

    The rule ``6 |A| |g| < 2^62`` is read as ``|A| <= limit``, the letter's
    admission limit ``(2^62 - 1) // (6 |g|)``.  ``bound`` is carried forward
    by the induced inf-norm inequality ``|gA| <= ||g||_inf |A|``, the letter's
    growth, which is at most ``6 |g|``, and replaced by the exact entry
    maximum only when it passes the limit; the test is then made again.  It
    never falls below the exact maximum, so the cut points are those of
    testing the exact maximum after every letter.  A letter with no int64
    array in the table's ``_letters`` has ``6 |g| >= 2^62``: its limit is 0,
    so it trips.
    """
    letters = table._letters
    acc = np.eye(6, dtype=np.int64)
    bound = 1
    for i in range(start, len(w)):
        g = w[i]
        _, gm, limit, growth = letters[g.kind, g.sign]
        if bound > limit:
            bound = int(np.abs(acc).max())
            if bound > limit:
                return acc, i
        acc = gm.dot(acc)
        bound *= growth
    return acc, len(w)


def _ints(acc) -> Mat6:
    return tuple(map(tuple, acc.tolist()))


def word_image6(w: Word, table: GeneratorTable6) -> Mat6:
    """Exact product of generator matrices, first letter first.

    Machine integers carry the word while the stepwise bound proves no
    overflow is possible.  A word that outgrows them keeps its first int64
    segment and hands the rest to ``_word_image6_exact``, exactly once; that
    cuts the rest into int64 segments (a letter too large on its own is an
    exact segment by itself) and multiplies them in a balanced tree.  No
    letter is evaluated twice, and the result is always exact.
    """
    acc, stop = _int64_segment(w, table, 0)
    if stop == len(w):
        return _ints(acc)
    return mat_mul(_word_image6_exact(w[stop:], table), _ints(acc))


def _word_image6_exact(w: Word, table: GeneratorTable6) -> Mat6:
    """Exact product of any word, first letter first, on unbounded integers.

    The word is cut into maximal int64 segments; a letter too large for
    int64 on its own is a Python-int segment by itself.  The segment
    products, in letter order, are combined pairwise in a balanced product
    tree (Bernstein, "Fast multiplication and its applications", 2008,
    section 12), so a 2000-letter word costs a handful of exact products
    instead of one per letter.
    """
    segments = []
    start = 0
    while start < len(w):
        acc, stop = _int64_segment(w, table, start)
        if stop == start:
            segments.append(table.image(w[start]))
            stop += 1
        else:
            segments.append(_ints(acc))
        start = stop
    while len(segments) > 1:  # later letters act last: pair (s_2k, s_2k+1) as s_2k+1 s_2k
        paired = [mat_mul(b, a) for a, b in zip(segments[::2], segments[1::2])]
        segments = paired + segments[len(paired) * 2:]
    return segments[0] if segments else IDENTITY6


def compat_check(w: Word, table: GeneratorTable6) -> bool:
    """Projection intertwining: winding part of the surface action equals the ambient action."""
    return intertwines(word_image6(w, table), word_image3(w))


KERNEL_NOT = "NotInKernel"
KERNEL_CANDIDATE = "HomologyTrivialKernelCandidate"
KERNEL_NONTRIVIAL = "HomologyNontrivial"


def kernel_screen(w: Word, table: GeneratorTable6) -> str:
    """Homology-level screening of ambient-trivial words.

    Homology cannot certify that a word is trivial on the surface, so the
    inconclusive verdict is explicit.
    """
    if not is_kernel3(w):
        return KERNEL_NOT
    if word_image6(w, table) != IDENTITY6:
        return KERNEL_NONTRIVIAL
    return KERNEL_CANDIDATE

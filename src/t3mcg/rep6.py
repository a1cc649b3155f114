"""The integer action of words on first homology of the splitting surface.

Generator matrices are derived, never hand-entered: the swap and twist act
through the mesh (translating curves, composing twists along the extracted
tube loops), while the shears are completed from their forced blocks by an
exact enumeration of the bounded symplectic completions.  The resulting 6x6
matrices act on canonical homology coordinates by left multiplication, first
letter first, mirroring the 3x3 convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product

import numpy as np

from .words import AXIS_PAIRS, BASE_TOKENS, Generator, Macro, Word, expand_macro
from .rep3 import gen_image3, word_image3
from .mesh.homology import (
    CANONICAL_J,
    CurveRef,
    HomologyData,
    PROJECTION,
    identity,
    invert_unimodular,
    mat_mul,
    mat_neg,
    transpose,
    tube_pattern,
    twist_matrix,
)
from .mesh.curves import tube_section, walk_steps
from .mesh.surface import half_translation_vertex_map

Mat6 = tuple

IDENTITY6 = identity(6)


def mat6(rows) -> Mat6:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if len(m) != 6 or any(len(r) != 6 for r in m):
        raise ValueError("expected a 6x6 matrix")
    return m


def is_symplectic(m: Mat6) -> bool:
    return mat_mul(transpose(m), mat_mul(CANONICAL_J, m)) == CANONICAL_J


def is_antisymplectic(m: Mat6) -> bool:
    return mat_mul(transpose(m), mat_mul(CANONICAL_J, m)) == mat_neg(CANONICAL_J)


def translate_steps(loop, vmap, tmap):
    """Push a sliced loop forward through the half-diagonal translation.

    The translation permutes mesh vertices (``vmap``) and triangles (``tmap``)
    exactly, so the image path is again a path of edge points with unchanged
    parameters.
    """
    out = []
    for tri, (va, vb, t), (vc, vd, u) in walk_steps(loop):
        out.append((tmap[tri], (vmap[va], vmap[vb], t), (vmap[vc], vmap[vd], u)))
    return out


def derive_swap6(h: HomologyData) -> Mat6:
    """Matrix of the handlebody swap: translate each generator curve, read
    off the classes, and change to the canonical basis."""
    mesh = h.mesh
    vmap = half_translation_vertex_map(mesh)
    index = {frozenset(tri): i for i, tri in enumerate(mesh.triangles)}
    tmap = [index[frozenset(vmap[v] for v in tri)] for tri in mesh.triangles]
    cols = []
    for ref in list(h.disk_sections_a) + list(h.longitudes):
        loop = ref.loop
        steps = translate_steps(loop, vmap, tmap)
        cols.append(h.class_of_steps(steps, loop.orientation_sign))
    gen_images = transpose(tuple(cols))  # column g = class of swapped generator g
    return mat_mul(gen_images, h.basis_change)


def derive_twist6(h: HomologyData, pattern: str) -> Mat6:
    """Composite twist along the four loops of the reference tube (axis 3)."""
    tube = h.tubes[2]
    eps = tube_pattern(h, tube, pattern)
    loops = [(CurveRef(tube, i), eps[i]) for i in range(len(tube.loops))]
    return twist_matrix(h, loops)


# ---------------------------------------------------------------------------
# Shear completion.  Every element acting trivially on the two-sided split of
# homology has block form [[P, Q], [0, R]] in the canonical basis: R is the
# ambient 3x3 action (the winding part transforms like the ambient homology),
# the zero block is forced because meridian classes have zero winding, and
# the symplectic condition pins P = R^-T and makes S = R^T Q symmetric.  The
# remaining freedom, Q, is enumerated exactly over the box |Q| <= SHEAR_BOUND.
# ---------------------------------------------------------------------------

SHEAR_BOUND = 2


@dataclass
class ShearSolution:
    matrix: Mat6
    candidate_count: int
    bound: int


def solve_shear6(r_block) -> ShearSolution:
    """The least symplectic completion [[R^-T, Q], [0, R]] with |Q| <= SHEAR_BOUND.

    The candidates are all integer Q in the box with S = R^T Q symmetric.
    Column j of S is R^T q_j, so columns q_0 and q_1 pair on S[1][0] ==
    S[0][1], and q_2 is looked up by (S[0][2], S[1][2]).  Q = 0 always
    qualifies, so the search is never empty.  No box on S is needed: |Q| <= b
    already gives |S| <= b times the largest column sum of |R|, and Q -> R^T Q
    is a bijection.  The canonical choice is the row-major least Q.
    """
    b = SHEAR_BOUND
    box = tuple(product(range(-b, b + 1), repeat=3))
    columns = list(zip(box, mat_mul(box, r_block)))  # row q R is column R^T q
    by_top = {}
    for q, v in columns:
        by_top.setdefault(v[:2], []).append(q)
    candidates = [
        (q0, q1, q2)
        for q0, v0 in columns
        for q1, v1 in columns
        if v1[0] == v0[1]
        for q2 in by_top.get((v0[2], v1[2]), ())
    ]
    q = min(tuple(zip(*cols)) for cols in candidates)  # rows of Q, row-major order
    p = invert_unimodular(transpose(r_block))
    m = mat6([p[i] + q[i] for i in range(3)] + [(0, 0, 0) + tuple(row) for row in r_block])
    assert is_symplectic(m)
    return ShearSolution(matrix=m, candidate_count=len(candidates), bound=b)


# ---------------------------------------------------------------------------
# Generator table.
# ---------------------------------------------------------------------------


@dataclass
class GeneratorTable6:
    matrices: dict  # token -> Mat6 (sign +1); inverses computed on demand
    provenance: dict
    candidate_counts: dict
    handedness: str  # winning twist pattern
    resolution: int
    tube_radius: str

    _inverse_cache: dict = dc_field(default_factory=dict, repr=False)
    _int64_cache: dict = dc_field(default_factory=dict, repr=False)  # for word_image6

    def image(self, g: Generator) -> Mat6:
        m = self.matrices[g.kind]
        if g.sign == 1:
            return m
        inv = self._inverse_cache.get(g.kind)
        if inv is None:
            inv = invert_unimodular(m)
            self._inverse_cache[g.kind] = inv
        return inv

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
        obeys; a violation raises ``ValueError`` naming the token."""
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
            m = matrices[tok]
            if tok == "s" and not is_antisymplectic(m):
                raise ValueError("matrix s is not antisymplectic")
            if tok != "s" and not is_symplectic(m):
                raise ValueError(f"matrix {tok} is not symplectic")
            if mat_mul(PROJECTION, m) != mat_mul(gen_image3(Generator(tok, 1)), PROJECTION):
                raise ValueError(f"matrix {tok} does not intertwine with the projection")
        if mat_mul(matrices["s"], matrices["s"]) != IDENTITY6:
            raise ValueError("matrix s is not an involution")
        return cls(
            matrices=matrices,
            provenance=data.get("provenance", {}),
            candidate_counts=data.get("candidate_counts", {}),
            handedness=data["handedness"],
            resolution=data["resolution"],
            tube_radius=data.get("tube_radius", ""),
        )

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "GeneratorTable6":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


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
    # (i, j) = (1, 3) crosses planes x_1 = 1/2 and x_3 = 0; the tube runs
    # along axis 2 with transverse coordinates (x_3, x_1).
    pair_tube = tube_section(h.mesh, 2, (Fraction(0), Fraction(1, 2)), h.tube_radius)
    if len(pair_tube.loops) != 4:
        raise HandednessError(f"(1,3) tube has {len(pair_tube.loops)} loops")
    word_t13 = expand_macro(Macro("t13", 1))

    winners = []
    details = {}
    for pattern in ("all_plus", "alternating"):
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
        eps = tube_pattern(h, pair_tube, pattern)
        rhs = twist_matrix(h, [(CurveRef(pair_tube, i), eps[i]) for i in range(4)])
        details[pattern] = {"conjugated": lhs, "direct": rhs}
        if lhs == rhs:
            winners.append(pattern)
    return winners, details


def derive_table(h: HomologyData) -> GeneratorTable6:
    """Derive all eight generator matrices from the mesh and the solver."""
    swap = derive_swap6(h)
    check = mat_mul(swap, swap)
    if check != IDENTITY6:
        raise RuntimeError("swap action is not an involution")

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


def word_image6(w: Word, table: GeneratorTable6) -> Mat6:
    """Exact product of generator matrices, first letter first.

    Uses machine integers while a stepwise bound proves no overflow is
    possible (|AB| <= 6 |A| |B| entrywise), and falls back to unbounded
    integers otherwise, so the result is always exact.
    """
    cache = table._int64_cache
    acc = np.eye(6, dtype=np.int64)
    bound = 1
    for g in w:
        key = (g.kind, g.sign)
        entry = cache.get(key)
        if entry is None:
            m = table.image(g)
            entry = (np.array(m, dtype=np.int64), max(abs(x) for row in m for x in row))
            cache[key] = entry
        gm, gmax = entry
        if 6 * bound * gmax >= 2**62:
            return _word_image6_exact(w, table)
        acc = gm @ acc
        bound = int(np.abs(acc).max())
    return tuple(tuple(int(x) for x in row) for row in acc)


def _word_image6_exact(w: Word, table: GeneratorTable6) -> Mat6:
    acc = IDENTITY6
    for g in w:
        acc = mat_mul(table.image(g), acc)
    return acc


def compat_check(w: Word, table: GeneratorTable6) -> bool:
    """Projection intertwining: winding part of the surface action equals the
    ambient action."""
    m6 = word_image6(w, table)
    m3 = word_image3(w)
    lhs = mat_mul(PROJECTION, m6)
    rhs = mat_mul(m3, PROJECTION)
    return lhs == rhs


KERNEL_NOT = "NotInKernel"
KERNEL_CANDIDATE = "HomologyTrivialKernelCandidate"
KERNEL_NONTRIVIAL = "HomologyNontrivial"


def kernel_screen(w: Word, table: GeneratorTable6) -> str:
    """Homology-level screening of ambient-trivial words.

    Homology cannot certify that a word is trivial on the surface, so the
    inconclusive verdict is explicit.
    """
    from .rep3 import IDENTITY3

    if word_image3(w) != IDENTITY3:
        return KERNEL_NOT
    if word_image6(w, table) != IDENTITY6:
        return KERNEL_NONTRIVIAL
    return KERNEL_CANDIDATE

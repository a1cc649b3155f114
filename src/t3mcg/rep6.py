"""The integer action of words on first homology of the splitting surface.

Generator matrices are derived, never hand-entered: the swap and twist act
through the mesh (translating curves, composing twists along the extracted
tube loops), while the shears are completed from their forced blocks by a
bounded search over the symplectic completions.  The resulting 6x6 matrices
act on canonical homology coordinates by left multiplication, first letter
first, mirroring the 3x3 convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .words import AXIS_PAIRS, Generator, Macro, Word, expand_macro
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
# the symplectic condition pins P = R^-T and constrains Q^T R to be
# symmetric.  The remaining freedom is searched over a bounded box.
# ---------------------------------------------------------------------------


@dataclass
class ShearSolution:
    matrix: Mat6
    candidate_count: int
    bound: int


def solve_shear6(r_block, bound: int = 2) -> ShearSolution:
    """All symplectic completions [[R^-T, Q], [0, R]] with |Q| entries bounded.

    Q must satisfy Q^T R = R^T Q; writing Q = R^-T S for symmetric S turns the
    search into an enumeration of symmetric integer S.  The canonical choice
    is the lexicographically least full matrix, which for this ordering is
    realized by the most negative admissible Q.
    """
    r = np.array(r_block, dtype=np.int64)
    p = np.array(invert_unimodular(transpose(r_block)), dtype=np.int64)
    for b in (bound, 2 * bound):
        # |S| = |R^T Q| is bounded by the max column sum of |R| times b
        s_bound = int(np.abs(r).sum(axis=0).max()) * b
        rng = np.arange(-s_bound, s_bound + 1)
        grids = np.meshgrid(*([rng] * 6), indexing="ij")
        flat = [g.ravel() for g in grids]
        count = flat[0].size
        s = np.zeros((count, 3, 3), dtype=np.int64)
        s[:, 0, 0] = flat[0]
        s[:, 0, 1] = s[:, 1, 0] = flat[1]
        s[:, 0, 2] = s[:, 2, 0] = flat[2]
        s[:, 1, 1] = flat[3]
        s[:, 1, 2] = s[:, 2, 1] = flat[4]
        s[:, 2, 2] = flat[5]
        q = np.einsum("ij,njk->nik", p, s)
        mask = np.abs(q).max(axis=(1, 2)) <= b
        n_candidates = int(mask.sum())
        if n_candidates == 0:
            continue
        q_ok = q[mask]
        # lexicographic order over the interleaved rows of the full matrix
        keys = np.concatenate([q_ok[:, 0, :], q_ok[:, 1, :], q_ok[:, 2, :]], axis=1)
        order = np.lexsort(keys.T[::-1])
        q_best = q_ok[order[0]]
        rows = []
        for i in range(3):
            rows.append(tuple(int(p[i][j]) for j in range(3)) + tuple(int(q_best[i][j]) for j in range(3)))
        for i in range(3):
            rows.append((0, 0, 0) + tuple(int(r[i][j]) for j in range(3)))
        m = mat6(rows)
        assert is_symplectic(m)
        return ShearSolution(matrix=m, candidate_count=n_candidates, bound=b)
    raise RuntimeError("no symplectic completion found within the doubled bound")


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
        return cls(
            matrices={k: mat6(v) for k, v in data["matrices"].items()},
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

"""Integer homology of the splitting surface via curve crossings.

Rank-6 homology is coordinatized by six generator curves whose crossing Gram
matrix is unimodular by construction: the three mid-plane sections (they bound
disks on the origin-spine side) and one longitude of each distance tube, one
per axis.  Crossing a mid-plane section is the same as winding once in that
coordinate, so the Gram matrix has an identity off-diagonal block no matter
what the tube longitudes do to each other; integer symplectic reduction then
produces the canonical basis (a_1..a_3, b_1..b_3) with form [[0,I],[-I,0]],
p(a_i) = 0 and p(b_i) = e_i.  A closed loop's class is read off its exact
crossing numbers with the generators: ``±displacement`` with the sections and
three walks against the longitudes; the matrix helpers are ``rep3``'s, and no
matrix is inverted.  The Gram walks themselves orient the A-side sections, and a
loop crosses its own section nowhere, so the diagonal of ``G`` is not walked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from ..rep3 import det3, identity, mat_mul, mat_vec, transpose
from .surface import TriMesh
from .curves import (
    DegeneracyError,
    Loop,
    SlicedCurves,
    TUBE_RADIUS,
    plane_section,
    tube_section,
    walk_pairing,
)

HALF = Fraction(1, 2)

CANONICAL_J = (
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (-1, 0, 0, 0, 0, 0),
    (0, -1, 0, 0, 0, 0),
    (0, 0, -1, 0, 0, 0),
)

PROJECTION = (
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
)


@dataclass
class CurveRef:
    """A loop of a sliced field together with the set it came from."""

    curves: SlicedCurves
    index: int

    @property
    def loop(self) -> Loop:
        return self.curves.loops[self.index]


@dataclass
class HomologyData:
    """Distinguished curves, their Gram matrix ``G`` and the basis change ``B``
    with ``B^T G B = J``, which ``build_homology`` checks; neither is inverted.
    A loop's class is ``±displacement`` plus three longitude walks, read once by
    ``curve_class`` and memoized on the ``Loop`` (it hashes by identity); the six
    generators' classes are seeded from the rows of ``G``, with no walk.
    ``build_homology`` fixes every ``orientation_sign`` first, so no class goes stale."""

    mesh: TriMesh
    disk_sections_a: list  # CurveRef, plane x_i = 1/2, canonically oriented
    disk_sections_b: list  # CurveRef, plane x_i = 0
    tubes: list  # SlicedCurves, axis k = 1,2,3
    longitudes: list  # CurveRef with displacement +e_k
    gram: tuple  # 6x6 crossing matrix of (a_1..a_3, T_1..T_3)
    basis_change: tuple  # columns: canonical basis in generator coordinates
    tube_radius: Fraction
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def disk_b_classes(self) -> tuple:
        """Canonical classes of the three x_i = 0 sections."""
        return tuple(self.curve_class(ref) for ref in self.disk_sections_b)

    def pair_with_generators(self, loop: Loop, walker_sign: int):
        """``<generator, loop>`` for a closed loop walked with ``walker_sign``.  It meets
        ``a_i = Σ ∩ {x_i = 1/2}`` where it crosses that plane and the algebraic count
        does not depend on the symbolic perturbation, so ``<a_i, loop>`` is its winding
        in x_i: the Gram check's walks ``G[T_i][a_j] = -δ_ij`` certify the sign on the
        three longitudes.  Only those are walked."""
        out = [walker_sign * d for d in loop.displacement]
        for ref in self.longitudes:
            res = walk_pairing(loop.steps, walker_sign, ref.curves)
            out.append(-res.get(ref.index, (0, 0))[0])  # <T_k, loop> = -<loop, T_k>
        return tuple(out)

    def class_of_crossings(self, v):
        """Class ``(G B)^-1 v`` of a path with crossing vector ``v``: ``B^T G B = J``
        makes it ``-J B^T v``, so with ``w = B^T v`` it is ``(-w4, -w5, -w6, w1, w2, w3)``."""
        w = mat_vec(transpose(self.basis_change), v)
        return (-w[3], -w[4], -w[5], w[0], w[1], w[2])

    def class_of_loop(self, loop: Loop, walker_sign: int):
        return self.class_of_crossings(self.pair_with_generators(loop, walker_sign))

    def curve_class(self, ref: CurveRef):
        """Canonical coordinates of a curve's homology class, walked once."""
        loop = ref.loop
        if loop not in self._memo:
            self._memo[loop] = self.class_of_loop(loop, loop.orientation_sign)
        return self._memo[loop]

    def displacement_of_class(self, cls):
        return mat_vec(PROJECTION, cls)


def pair_tube(mesh: TriMesh, i: int, j: int) -> SlicedCurves:
    """Section by the tube of the disk pair (i, j), through {x_i = 1/2} ∩ {x_j = 0}:
    along axis k = 6 - i - j, with its centre listed in ``TubeField``'s transverse
    order (x_{k mod 3 + 1}, x_{(k + 1) mod 3 + 1})."""
    k = 6 - i - j
    center = {i: HALF, j: Fraction(0)}
    return tube_section(mesh, k, (center[k % 3 + 1], center[(k + 1) % 3 + 1]), TUBE_RADIUS)


def crossings(walker: CurveRef, target: CurveRef) -> tuple:
    """(algebraic, geometric) crossings of the walker's loop with the target loop."""
    loop = walker.loop
    res = walk_pairing(loop.steps, loop.orientation_sign, target.curves)
    return tuple(res.get(target.index, (0, 0)))


def intersection_number(h: HomologyData, c1: CurveRef, c2: CurveRef):
    """(algebraic, geometric) crossing counts of two curves on the mesh.  Walked against its
    own section, a loop reads 0 at both ends of every step, and zero counts negative: (0, 0)."""
    return crossings(c1, c2)


def twist_matrix(h: HomologyData, loops):
    """Homology action of composite twists: x -> x + sum e_k <x, c_k> c_k.

    ``loops`` is a list of (CurveRef, handedness) pairs.  Returned in
    canonical coordinates; the composite of twists along disjoint loops does
    not depend on their order.
    """
    n = 6
    m = [list(row) for row in identity(n)]
    for ref, eps in loops:
        c = h.curve_class(ref)
        jc = mat_vec(CANONICAL_J, c)
        for i in range(n):
            for j in range(n):
                m[i][j] -= eps * c[i] * jc[j]
    return tuple(tuple(row) for row in m)


def winding_signs(tube: SlicedCurves) -> list:
    """Each loop's travel ``+-1`` along ``e_k``: every caller's test that a tube is four
    ``+-e_k`` longitudes, two each way, as the boundary of the field-positive side must be."""
    k = tube.field.axis
    if len(tube.loops) != 4:
        raise DegeneracyError(f"tube along axis {k + 1} has {len(tube.loops)} loops, expected 4")
    e_k = tuple(int(c == k) for c in range(3))
    for loop in tube.loops:
        if loop.displacement not in (e_k, tuple(-x for x in e_k)):
            raise DegeneracyError(f"tube loop displacement {loop.displacement} is not +-e_{k + 1}")
    eps = [loop.displacement[k] for loop in tube.loops]
    if sum(eps) != 0:
        raise DegeneracyError(f"tube along axis {k + 1} is unbalanced: {eps}")
    return eps


def tube_pattern(h: HomologyData, tube: SlicedCurves, kind: str):
    """Handedness pattern for the loops of one tube section.

    ``all_plus`` twists every loop the same way; ``alternating`` twists each loop by its
    ``winding_signs``, which refuses a tube that is not four ``+-e_k`` longitudes, two
    each way, and is the geometric side rule.  Slicing keeps the field-positive side,
    outside the tube, on the left of each segment, so in a triangle with normal ``N``
    and PL gradient ``g`` the loop runs along ``g x N``.  The side rule takes the sign
    of ``N . (e_k x r)``, ``r`` the transverse offset of a loop point: the sign of
    ``N . (e_k x g) = e_k . (g x N)``, the loop's travel along ``e_k``, as ``g`` is
    ``r`` up to a multiple of ``N``.  Read off the triangle frames, the side rule gave
    these signs on all 36 loops of the three homology tubes and six pair tubes at
    n = 8, 16, 32, 64, 128, 256, 512.
    """
    if kind == "all_plus":
        return [1] * len(tube.loops)
    if kind != "alternating":
        raise ValueError(f"unknown pattern {kind!r}")
    return winding_signs(tube)


def tube_twist(h: HomologyData, tube: SlicedCurves, pattern: str):
    """Composite twist along every loop of a tube section, handed by ``pattern``."""
    eps = tube_pattern(h, tube, pattern)
    return twist_matrix(h, [(CurveRef(tube, i), e) for i, e in enumerate(eps)])


def build_homology(mesh: TriMesh) -> HomologyData:
    """Distinguished curves, canonical basis and exact intersection data.  The basis
    change is ``B = [[I, Y], [0, I]]``, so the one check ``B^T G B = J`` of the crossing
    Gram matrix ``G`` holds exactly when ``G = [[0, I], [-I, Y - Y^T]]``.  Its 30
    off-diagonal walks also orient the A-side sections, so that ``<a_i, T_i> = +1``."""
    sections_a = []
    sections_b = []
    for axis in (1, 2, 3):
        sa = plane_section(mesh, axis, HALF)
        sb = plane_section(mesh, axis, Fraction(0))
        for name, sec in ((f"x{axis}=1/2", sa), (f"x{axis}=0", sb)):
            if len(sec.loops) != 1:
                raise DegeneracyError(
                    f"plane section {name} has {len(sec.loops)} components, expected 1"
                )
            if sec.loops[0].displacement != (0, 0, 0):
                raise DegeneracyError(f"plane section {name} has nonzero displacement")
        sections_a.append(CurveRef(sa, 0))
        sections_b.append(CurveRef(sb, 0))

    # tube k serves the disk pair (k mod 3 + 1, (k + 1) mod 3 + 1); its loop 0,
    # oriented along +e_k, is the longitude
    tubes = []
    longitudes = []
    for k in (1, 2, 3):
        tube = pair_tube(mesh, k % 3 + 1, (k + 1) % 3 + 1)
        tube.loops[0].orientation_sign = winding_signs(tube)[0]
        tubes.append(tube)
        longitudes.append(CurveRef(tube, 0))

    # The 30 walks run with the A-side sections unoriented.  A walk's count is linear in
    # the walker's sign and the target's, so orienting a_i by s_i = -<T_i, a_i> scales row
    # and column i of G by s_i.  The oriented G[T_i][a_i] = -<T_i, a_i>^2 is -1 only when
    # that walk reads +-1, so B^T G B = J below refuses any other count.
    generators = list(sections_a) + list(longitudes)
    walked = [[0 if g1 is g2 else crossings(g1, g2)[0] for g2 in generators] for g1 in generators]
    signs = [-walked[3 + i][i] for i in range(3)] + [1, 1, 1]
    for ref, s in zip(sections_a, signs):
        ref.loop.orientation_sign = s
    gram = tuple(tuple(signs[r] * signs[c] * walked[r][c] for c in range(6)) for r in range(6))

    # b_i = T_i + sum_{j<i} (-w_ij) a_j, with w_ij = gram[3 + i][3 + j], symplectically
    # reduces the longitudes: column 3 + i of the basis change holds -w_ij in row j < i
    basis_change = tuple(
        tuple(int(r == c) - (gram[c][3 + r] if r < c - 3 else 0) for c in range(6))
        for r in range(6)
    )

    # B = [[I, Y], [0, I]], so B^T G B = J holds exactly when G = [[0, I], [-I, Y - Y^T]]:
    # G is antisymmetric, the plane sections are disjoint and pair with T_j as the identity
    check = mat_mul(transpose(basis_change), mat_mul(gram, basis_change))
    if check != CANONICAL_J:
        raise DegeneracyError(f"symplectic reduction failed: B^T G B =\n{check}\nfor G =\n{gram}")

    h = HomologyData(
        mesh=mesh,
        disk_sections_a=sections_a,
        disk_sections_b=sections_b,
        tubes=tubes,
        longitudes=longitudes,
        gram=gram,
        basis_change=basis_change,
        tube_radius=TUBE_RADIUS,
    )
    # Row i of G is generator i's walk against each generator, so its crossing
    # vector is -G[i]: a generator walked against its own section crosses nothing.
    for ref, row in zip(generators, gram):
        h._memo[ref.loop] = h.class_of_crossings([-x for x in row])

    # B^T G B = J makes the seeded classes the columns of B^-1 = [[I, -Y], [0, I]], so
    # a_i is the basis vector e_i and p(b_i) = e_i; a B-side class's winding part is
    # its displacement, checked 0 above.  Its meridian parts must span the lattice.
    b_classes = h.disk_b_classes
    if det3(tuple(cls[:3] for cls in b_classes)) not in (1, -1):
        raise DegeneracyError(
            f"B-side disk classes do not span the meridian lattice: {b_classes}"
        )
    return h

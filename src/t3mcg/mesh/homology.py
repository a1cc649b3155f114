"""Integer homology of the splitting surface via curve crossings.

Rank-6 homology is coordinatized by six generator curves whose crossing Gram
matrix is unimodular by construction: the three mid-plane sections (they bound
disks on the origin-spine side) and one longitude of each distance tube, one
per axis.  Crossing a mid-plane section is the same as winding once in that
coordinate, so the Gram matrix has an identity off-diagonal block no matter
what the tube longitudes do to each other; integer symplectic reduction then
produces the canonical basis (a_1..a_3, b_1..b_3) with form [[0,I],[-I,0]],
p(a_i) = 0 and p(b_i) = e_i.  Classes of arbitrary curves are recovered from
crossing numbers against the generators, which keeps every computation an
exact integer one; the matrix helpers are ``rep3``'s, and no matrix is inverted.
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
    ``curve_class`` walks a loop at most once, memoized on the identity of its
    ``SlicedCurves`` (held, so the id is not reused) and its index; the six
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

    def pair_with_generators(self, steps, walker_sign: int):
        """Crossing numbers of a directed path against the six generators."""
        out = []
        for ref in list(self.disk_sections_a) + list(self.longitudes):
            res = walk_pairing(steps, walker_sign, ref.curves)
            alg = res.get(ref.index, (0, 0))[0]
            out.append(-alg)  # <generator, path> = -<path, generator>
        return tuple(out)

    def class_of_crossings(self, v):
        """Class ``(G B)^-1 v`` of a path with crossing vector ``v``: ``B^T G B = J``
        makes it ``-J B^T v``, so with ``w = B^T v`` it is ``(-w4, -w5, -w6, w1, w2, w3)``."""
        w = mat_vec(transpose(self.basis_change), v)
        return (-w[3], -w[4], -w[5], w[0], w[1], w[2])

    def class_of_steps(self, steps, walker_sign: int):
        return self.class_of_crossings(self.pair_with_generators(steps, walker_sign))

    def curve_class(self, ref: CurveRef):
        """Canonical coordinates of a curve's homology class, walked once."""
        loop, key = ref.loop, (id(ref.curves), ref.index)
        if key not in self._memo:
            self._memo[key] = ref.curves, self.class_of_steps(loop.steps, loop.orientation_sign)
        return self._memo[key][1]

    def displacement_of_class(self, cls):
        return mat_vec(PROJECTION, cls)


def form_product(x, y):
    """Intersection form in canonical coordinates."""
    jy = mat_vec(CANONICAL_J, y)
    return sum(a * b for a, b in zip(x, jy))


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
    """(algebraic, geometric) crossing counts of two curves on the mesh."""
    if c1.curves is c2.curves and c1.index == c2.index:
        return 0, 0
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
    """Each loop's travel ``+-1`` along the tube axis ``e_k``, refusing any other displacement."""
    k = tube.field.axis
    e_k = tuple(int(c == k) for c in range(3))
    for loop in tube.loops:
        if loop.displacement not in (e_k, tuple(-x for x in e_k)):
            raise DegeneracyError(f"tube loop displacement {loop.displacement} is not +-e_{k + 1}")
    return [loop.displacement[k] for loop in tube.loops]


def tube_pattern(h: HomologyData, tube: SlicedCurves, kind: str):
    """Handedness pattern for the loops of one tube section.

    ``all_plus`` twists every loop the same way; ``alternating`` twists each loop
    by its ``winding_signs``, which is the geometric side rule.  Slicing keeps the
    field-positive side, outside the tube, on the left of each segment, so in a
    triangle with normal ``N`` and PL gradient ``g`` the loop runs along ``g x N``.
    The side rule takes the sign of ``N . (e_k x r)``, ``r`` the transverse offset
    of a loop point: the sign of ``N . (e_k x g) = e_k . (g x N)``, the loop's
    travel along ``e_k``, as ``g`` is ``r`` up to a multiple of ``N``.  Read off
    the triangle frames, the side rule gave these signs on all 36 loops of the
    three homology tubes and six pair tubes at n = 8, 16, 32, 64, 128, 256, 512.
    """
    if kind == "all_plus":
        return [1] * len(tube.loops)
    if kind != "alternating":
        raise ValueError(f"unknown pattern {kind!r}")
    eps = winding_signs(tube)
    if sum(eps) != 0:
        raise DegeneracyError(f"alternating pattern is unbalanced: {eps}")
    return eps


def tube_twist(h: HomologyData, tube: SlicedCurves, pattern: str):
    """Composite twist along every loop of a tube section, handed by ``pattern``."""
    eps = tube_pattern(h, tube, pattern)
    return twist_matrix(h, [(CurveRef(tube, i), e) for i, e in enumerate(eps)])


def build_homology(mesh: TriMesh) -> HomologyData:
    """Distinguished curves, canonical basis and exact intersection data.  The basis
    change is ``B = [[I, Y], [0, I]]``, so the one check ``B^T G B = J`` of the crossing
    Gram matrix ``G`` holds exactly when ``G = [[0, I], [-I, Y - Y^T]]``."""
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
        if len(tube.loops) != 4:
            raise DegeneracyError(
                f"tube along axis {k} has {len(tube.loops)} loops, expected 4"
            )
        tube.loops[0].orientation_sign = winding_signs(tube)[0]
        tubes.append(tube)
        longitudes.append(CurveRef(tube, 0))

    # Orient the A-side plane sections so they pair +1 with their longitude.
    for i, (ref, longitude) in enumerate(zip(sections_a, longitudes)):
        d, _ = crossings(longitude, ref)
        if d not in (1, -1):
            raise DegeneracyError(
                f"winding pairing of longitude {i + 1} with its plane section is {d}"
            )
        # <section, longitude> = -<longitude, section> must equal +1
        ref.loop.orientation_sign = -d

    generators = list(sections_a) + list(longitudes)
    gram = tuple(
        tuple(0 if g1 is g2 else crossings(g1, g2)[0] for g2 in generators) for g1 in generators
    )

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
        h._memo[id(ref.curves), ref.index] = ref.curves, h.class_of_crossings([-x for x in row])

    # Projection sanity: p(a_i) = 0 and p(b_i) = e_i in canonical coordinates.
    for i in range(3):
        cls = h.curve_class(sections_a[i])
        if cls != tuple(1 if c == i else 0 for c in range(6)):
            raise DegeneracyError(f"a_{i + 1} does not coordinatize to a basis vector: {cls}")
    for i in range(3):
        ref = longitudes[i]
        cls = h.curve_class(ref)
        if h.displacement_of_class(cls) != tuple(1 if c == i else 0 for c in range(3)):
            raise DegeneracyError(f"longitude {i + 1} projects incorrectly: {cls}")

    # The B-side disk boundaries must span the same lattice as the A-side ones.
    b_classes = h.disk_b_classes
    for i, cls in enumerate(b_classes):
        if any(cls[3 + c] != 0 for c in range(3)):
            raise DegeneracyError(f"B-side section {i + 1} has nonzero winding part: {cls}")
    if det3(tuple(cls[:3] for cls in b_classes)) not in (1, -1):
        raise DegeneracyError(
            f"B-side disk classes do not span the meridian lattice: {b_classes}"
        )
    return h

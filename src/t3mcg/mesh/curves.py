"""Curves on the PL surface: plane sections, tube sections, crossing counts.

Curves are zero sets of exact scalar fields at mesh vertices, interpolated
linearly over triangles: a coordinate plane, branch-corrected per triangle in
its cell's unwrapped frame, or a distance tube, a pointwise PL stand-in
certified by the radius-stability re-run.  All arithmetic is rational, so
membership, crossing counts and the candidate prefilters are exact: a plane
slices the triangles whose cell box holds the level mod 1
(``cell_boxes_holding``), a tube those whose corner signs are mixed.  The one
field protocol for values is ``corner_ratios``, the integer numerators and
denominators of the corner values of a list of triangles (a tube gathers them
from one vector over the vertices, ``TubeField.vertex_ratios``, whose
radius-free pass the three slices of a ``tube_section`` share).  Slicing
calls it once over its candidates, and a target section once over its walk
set (``SlicedCurves.walk_values``), for all the walks against it.  Slicing
keeps each crossing point as integer columns ``(va, vb, p, q)``, ``t = p/q``
reduced (``Steps``); ``Loop.steps`` and ``SlicedCurves.tri_segments`` read
them as ``Fraction`` points only when a row is read.  Chaining steps across
edges through the mesh's edge table (``TriMesh.edges``) and checks in numpy
that both triangles on an edge share its crossing point; only the walk along
the successor map runs in Python ints.  A walk finds its steps in the
target's walk set (``walk_triangles``, a sorted index array) by
``np.searchsorted`` and gathers their rows of ``walk_values``; the sign at
each end is that of one integer (``_interpolant``), and a crossing on a
target vertex is attributed through an index of the segment points on
vertices.

Sign conventions, fixed once:
  * slicing treats a zero vertex value as positive;
  * a walk along a curve treats a zero field value as negative (this is the
    symbolic perturbation that resolves shared points and shared segments);
  * each segment is directed from the edge whose values pass + -> - (in the
    triangle's boundary order) to the edge passing - -> +, which keeps the
    field-positive side on the left of the curve.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .surface import DegeneracyError, ExactRows, TriMesh, components


class TransversalityError(RuntimeError):
    pass


def cell_boxes_holding(n: int, c: Fraction) -> np.ndarray:
    """Whether each of the ``n`` closed cell boxes along an axis holds ``c`` mod 1.

    Every vertex of a triangle from cell ``k`` lies on a segment between two
    corners of that cell, so along each axis the triangle lies in the closed
    box ``[(2k+1)/(2n), (2k+3)/(2n)]``; decided on integers in units of
    ``1/(2n*den(c))``.
    """
    cn, cd = Fraction(c).as_integer_ratio()
    unit, centre = 2 * n * cd, 2 * n * cn
    return np.array([(centre - (2 * k + 1) * cd) % unit <= 2 * cd for k in range(n)])


class PlaneField:
    """Affine field x_axis - level, branch-corrected per triangle.

    The representative of the level nearest the triangle decides the branch,
    so triangles near the antipodal plane get consistently signed values and
    no spurious zero set appears there.
    """

    def __init__(self, axis: int, level: Fraction):
        self.axis = axis
        self.level = Fraction(level)

    def corner_ratios(self, mesh: TriMesh, tris):
        """``x - rep`` at the corners of ``tris`` as integer numerators and
        denominators, two ``(len(tris), 3)`` arrays, with ``rep = f + k``, ``f``
        the level reduced mod 1 and ``k`` the floor of ``mean - f + 1/2``.

        Only the ``axis`` coordinate of each corner is read, in the unwrapped
        frame of its triangle's cell: in cell ``n - 1`` a wrapped coordinate
        below 1/2 gains one period.  Each corner then lies in its cell's closed
        box ``[lo, lo + 1/n]`` (``cell_boxes_holding``), so ``k`` is that of ``lo``
        unless the box holds ``f + 1/2`` mod 1; there the exact mean decides,
        in Python ints.  With ``f = fn/ld`` every intermediate is below
        ``8*ld*max(den, n)``: int64 below 2**63, else Python ints.
        """
        n, (fn, ld) = mesh.resolution, self.level.as_integer_ratio()
        fn, unit, tris = fn % ld, 2 * n * ld, np.asarray(tris, np.int64)
        corners = mesh.edges.tris[tris]
        x, den = mesh.vertex_num[corners, self.axis], mesh.vertex_den[corners]
        cell = mesh.cell_array[tris, self.axis].astype(np.int64)
        if 8 * ld * max(int(den.max(initial=1)), n) >= 2**63:
            x, den, cell = x.astype(object), den.astype(object), cell.astype(object)
        x = x + den * ((cell == n - 1)[:, None] & (2 * x < den))
        low = cell * (2 * ld) + (ld + n * ld - 2 * n * fn)  # (lo - f + 1/2) * unit
        k = low // unit
        rn = k * ld + fn  # rep = rn / ld
        for i in (k * unit + (unit - 2 * ld) <= low).nonzero()[0].tolist():
            (n0, n1, n2), (d0, d1, d2) = x[i].tolist(), den[i].tolist()
            prod, total = d0 * d1 * d2, n0 * d1 * d2 + n1 * d0 * d2 + n2 * d0 * d1
            rn[i] = fn + (2 * total * ld - (6 * fn - 3 * ld) * prod) // (6 * ld * prod) * ld
        return x * ld - rn[:, None] * den, den * ld

    def candidate_triangles(self, mesh: TriMesh) -> np.ndarray:
        """Triangles whose cell box meets the plane mod 1, as a sorted index array.

        Mixed signs put ``rep`` between two corners, inside the box.
        """
        return np.flatnonzero(self._box_meets(mesh))

    def walk_triangles(self, mesh: TriMesh) -> np.ndarray:
        """Triangles whose closed cell box meets the zero set, as a sorted index array.

        Off them the box lies strictly between two representatives of the
        level, so every corner value has one strict sign.  The candidate test
        is closed already, so the two sets are equal.
        """
        return np.flatnonzero(self._box_meets(mesh))

    def _box_meets(self, mesh: TriMesh):
        return cell_boxes_holding(mesh.resolution, self.level)[mesh.cell_array[:, self.axis]]


class TubeField:
    """Squared transverse distance to an axis line, minus radius squared.

    Pointwise exact (no branch needed: the cut locus of the distance function
    is far from the zero set for the radii in use) and periodic, because
    each offset is the lesser of its two distances mod 1, so a vertex's value
    does not depend on the frame it is read in.  ``vertex_ratios`` gives the
    exact value at every vertex in one integer pass, ``vertex_signs`` their
    signs; ``corner_ratios`` gathers from them, and cutting reads signs alone.
    ``point_value`` is the one exact formula at a point, and the fallback past
    the int64 bound.  The memo holds the ratios and signs of the last mesh read;
    the radius-free ``squared_offsets`` pass is kept only while ``tube_section``
    shares it.
    """

    def __init__(self, axis: int, center, radius: Fraction):
        self.axis = axis
        self.trans = ((axis + 1) % 3, (axis + 2) % 3)
        self.center = (Fraction(center[0]), Fraction(center[1]))
        self.radius = Fraction(radius)
        self._memo = (None,)  # (mesh, numerators, denominators, signs)
        self._line = None  # ``[mesh, squared_offsets]``, shared by ``tube_section``'s fields
        self._walk = (None,)  # (mesh, walk triangles), from the last corner count

    def point_value(self, p):
        """``|x - u|**2 + |y - v|**2 - r**2`` as one ``Fraction`` at ``p``, each
        ``|w|`` the distance from ``w`` to the nearest integer: ``p`` is three
        exact coordinates, or a vertex row ``(x, y, z, den)`` of integer
        numerators over one denominator (``TriMesh.vertex_num`` over ``vertex_den``).

        With ``x = xn/(xd*den)`` (``den = 1`` for exact coordinates) and
        ``u = un/ud`` the periodic distance is ``mx/dx`` for ``dx = xd*den*ud``
        and ``mx`` the lesser of ``(xn*ud - un*xd*den) mod dx`` and ``dx``
        minus it; likewise along ``y``.
        The sum is kept as an integer numerator over ``(dx*dy*rd)**2`` for
        ``r = rn/rd``.
        """
        a, b = self.trans
        u, v = self.center
        den = p[3] if len(p) > 3 else 1
        xn, xd = p[a].as_integer_ratio()
        un, ud = u.as_integer_ratio()
        dx = xd * den * ud
        mx = (xn * ud - un * xd * den) % dx
        mx = min(mx, dx - mx)
        yn, yd = p[b].as_integer_ratio()
        vn, vd = v.as_integer_ratio()
        dy = yd * den * vd
        my = (yn * vd - vn * yd * den) % dy
        my = min(my, dy - my)
        rn, rd = self.radius.as_integer_ratio()
        dxy = dx * dy
        return Fraction(
            ((mx * dy) ** 2 + (my * dx) ** 2) * rd * rd - (rn * dxy) ** 2, (dxy * rd) ** 2
        )

    def vertex_ratios(self, mesh: TriMesh) -> tuple:
        """The value at every vertex of ``mesh`` as integer numerators and
        denominators, two arrays, computed once per mesh.

        Over ``D = den*L``, with ``den`` the vertex's denominator and ``L`` the
        lcm of the centre's denominators, the value is
        ``((X² + Y²)*rd² - rn²*D²) / (D*rd)²`` for ``|r| = rn/rd``, unreduced,
        ``X² + Y²`` from the radius-free ``squared_offsets``.  Bound: ``X, Y <= D/2``,
        so ``X² + Y² <= D²/2`` and every intermediate is at most
        ``(D*max(rn, rd))²``.  When that is below 2**63 for the largest ``D`` of
        the mesh, both arrays are int64 and exact; otherwise every vertex goes
        once to ``point_value`` and they hold Python ints.
        """
        if self._memo[0] is not mesh:
            rn, rd = abs(self.radius).as_integer_ratio()
            lcm = math.lcm(*(c.denominator for c in self.center))
            den = mesh.vertex_den
            if (int(den.max(initial=0)) * lcm * max(rn, rd)) ** 2 < 2**63:
                line = [] if self._line is None else self._line
                if not line or line[0] is not mesh:
                    line[:] = mesh, self.squared_offsets(mesh)
                big = den * lcm
                num, den = line[1] * rd**2 - rn**2 * big**2, (big * rd) ** 2
            else:
                rows = np.column_stack((mesh.vertex_num, den)).tolist()
                ratios = [self.point_value(row).as_integer_ratio() for row in rows]
                num, den = np.array(ratios, object).T
            self._memo = (mesh, num, den, np.sign(num).astype(np.int8))
        return self._memo[1:3]

    def squared_offsets(self, mesh: TriMesh) -> np.ndarray:
        """``X² + Y²`` at every vertex, int64: the radius-free pass of ``vertex_ratios``,
        exact within its bound.

        A vertex is ``(xn, yn)/den`` across the axis, and the centre, reduced
        mod 1, is ``(cu, cv)/L``.  Over ``D = den*L`` the periodic offsets are
        ``X/D`` and ``Y/D``, with ``X`` the lesser of
        ``m = ((xn mod den)*L - cu*den) mod D`` and ``D - m``; likewise ``Y``.
        ``(xn mod den)*L`` and ``cu*den`` lie in ``[0, D)``.  ``vertex_ratios``
        keeps the result in the list ``_line``: its own, dropped on return,
        or the one the three fields of a ``tube_section`` share, which that
        call empties before it returns.
        """
        (un, ud), (vn, vd) = ((c - math.floor(c)).as_integer_ratio() for c in self.center)
        lcm, den = math.lcm(ud, vd), mesh.vertex_den
        big, square = den * lcm, 0
        for col, cn, cd in zip(self.trans, (un, vn), (ud, vd)):
            m = (mesh.vertex_num[:, col] % den * lcm - cn * (lcm // cd) * den) % big
            square = square + np.minimum(m, big - m) ** 2
        return square

    def vertex_signs(self, mesh: TriMesh) -> np.ndarray:
        """The sign of the value at every vertex of ``mesh``, as int8 with an
        exact zero as 0: the signs of the ``vertex_ratios`` numerators."""
        self.vertex_ratios(mesh)
        return self._memo[3]

    def corner_ratios(self, mesh: TriMesh, tris):
        """The values at the corners of ``tris`` as integer numerators and
        denominators, two ``(len(tris), 3)`` arrays gathered from ``vertex_ratios``."""
        num, den = self.vertex_ratios(mesh)
        corners = mesh.edges.tris[np.asarray(tris, np.int64)]
        return num[corners], den[corners]

    def _triangle_sets(self, mesh: TriMesh) -> tuple:
        """The candidate and the walk triangles of ``mesh`` in index order,
        both read off one count of each triangle's negative and positive
        corners; the walk triangles are kept for ``walk_triangles``."""
        code = np.array([1, 0, 4], np.uint8)[self.vertex_signs(mesh) + 1]
        tris = mesh.edges.tris
        total = code[tris[:, 0]] + code[tris[:, 1]] + code[tris[:, 2]]
        negative, positive = total & 3, total >> 2
        walk = np.flatnonzero((negative < 3) & (positive < 3))
        self._walk = (mesh, walk)
        return np.flatnonzero((negative > 0) & (negative < 3)), walk

    def candidate_triangles(self, mesh: TriMesh) -> np.ndarray:
        """Triangles whose corner signs are mixed, zero counting positive, as a
        sorted index array: exactly the triangles ``slice_field`` slices."""
        return self._triangle_sets(mesh)[0]

    def walk_triangles(self, mesh: TriMesh) -> np.ndarray:
        """Triangles whose corners are not all of one strict sign, as a sorted
        index array.  Unlike ``candidate_triangles`` this keeps those with zero
        and no negative corners: slicing counts a zero corner positive, a walk
        negative.  A field that sliced ``mesh`` reads them from that slice's count."""
        return self._walk[1] if self._walk[0] is mesh else self._triangle_sets(mesh)[1]


class Steps(ExactRows):
    """Steps across triangles as integer columns: the triangles ``tri`` and an
    ``(len(tri), 2, 4)`` array ``ends`` of their entry and exit points
    ``(va, vb, p, q)``, each at ``(1-t)*va + t*vb`` for ``t = p/q`` reduced,
    ``q > 0``.  An ``ExactRows`` of ``(tri, (va, vb, t_in), (vc, vd, t_out))``."""

    def __init__(self, tri, ends):
        super().__init__(len(tri), partial(_step_row, tri, ends))
        self.tri, self.ends = tri, ends

    def take(self, rows) -> Steps:
        return Steps(self.tri[rows], self.ends[rows])


def _step_row(tri, ends, i: int) -> tuple:
    (a, b, p, q), (c, d, r, s) = ends[i].tolist()
    return tri.item(i), (a, b, Fraction(p, q)), (c, d, Fraction(r, s))


class _SegmentMap(Mapping):
    """Triangle -> ``(entry, exit)`` points, read from ``Steps`` in triangle order."""

    def __init__(self, steps: Steps):
        self.steps = steps

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps.tri.tolist())

    def __getitem__(self, tri):
        i = int(np.searchsorted(self.steps.tri, tri))
        if i == len(self.steps) or self.steps.tri[i] != tri:
            raise KeyError(tri)
        return self.steps[i][1:]


@dataclass(eq=False)
class Loop:
    steps: Steps  # in walk order
    displacement: tuple  # integer 3-vector
    orientation_sign: int = 1


@dataclass(eq=False)
class SlicedCurves:
    mesh: TriMesh
    field: object
    loops: list
    tri_loop: dict  # triangle -> loop index
    segments: Steps  # every sliced triangle, in index order

    @property
    def tri_segments(self) -> Mapping:
        return _SegmentMap(self.segments)

    @cached_property
    def walk_values(self) -> tuple:
        """The field's ``walk_triangles``, off which no walk step crosses the
        field, and its ``corner_ratios`` on them, ``(tris, num, den)``: read
        once, for every walk against this section."""
        tris = self.field.walk_triangles(self.mesh)
        return (tris, *self.field.corner_ratios(self.mesh, tris))

    @cached_property
    def _vertex_loops(self) -> dict:
        """Vertex -> ids of the loops with a segment point on it (t = 0 or 1)."""
        seg, index = self.segments, {}
        p, q = seg.ends[:, :, 2], seg.ends[:, :, 3]
        rows, end = np.nonzero((p == 0) | (p == q))
        verts = seg.ends[rows, end, (p[rows, end] != 0).astype(int)]
        for tri, v in zip(seg.tri[rows].tolist(), verts.tolist()):
            index.setdefault(v, set()).add(self.tri_loop[tri])
        return index


def crossing_parameters(na, da, nb, db) -> tuple:
    """``t = f_a / (f_a - f_b)`` for ``f_a = na/da``, ``f_b = nb/db`` of opposite
    signs (zero counting either), denominators positive, as reduced ``(p, q)``,
    ``q > 0``: int64 arrays, or object arrays of Python ints past the bound.

    Each corner is reduced, ``gcd(na, nb)`` and ``gcd(da, db)`` are divided out,
    and ``p = na*db``, ``q = p - nb*da``.  A prime factor of ``na`` then divides
    neither ``nb`` nor ``da``, and one of ``db`` neither ``nb`` nor ``da``, so no
    prime factor of ``p`` divides ``nb*da`` or ``q``: they are coprime.  Both
    products are below 2**62 when ``|na| <= (2**62 - 1)//db`` and
    ``|nb| <= (2**62 - 1)//da``.
    """
    g, h = np.gcd(na, da), np.gcd(nb, db)
    na, da, nb, db = na // g, da // g, nb // h, db // h
    g, h = np.gcd(na, nb), np.gcd(da, db)
    na, nb, da, db = na // g, nb // g, da // h, db // h
    bound = 2**62 - 1
    if na.dtype != object and not ((abs(na) <= bound // db) & (abs(nb) <= bound // da)).all():
        na, da, nb, db = (x.astype(object) for x in (na, da, nb, db))
    p = na * db
    q = p - nb * da
    return np.where(q < 0, -p, p), abs(q)


def slice_field(mesh: TriMesh, fld) -> SlicedCurves:
    """All components of the zero set of the field's PL interpolant.

    One kernel call reads every candidate's corners.  The mixed triangles and
    their entry (``+ -> -``) and exit (``- -> +``) edges ``(a, a + 1)`` are
    chosen on the numerators' signs, and every ``t = f_a / (f_a - f_b)`` is
    reduced in one numpy pass (``crossing_parameters``) to the columns of ``Steps``."""
    tris = np.asarray(fld.candidate_triangles(mesh), np.int64)
    num, den = fld.corner_ratios(mesh, tris)
    positive = num >= 0  # zero counts positive
    ahead = positive[:, [1, 2, 0]]
    rows = np.flatnonzero(positive.any(axis=1) & ~positive.all(axis=1))
    sliced = tris[rows]
    # column 0 the entry edge, column 1 the exit edge, of each sliced triangle
    a = np.stack([c[rows].argmax(axis=1) for c in (positive & ~ahead, ahead & ~positive)], 1)
    b, at, row = (a + 1) % 3, np.arange(len(rows))[:, None], rows[:, None]
    p, q = crossing_parameters(num[row, a], den[row, a], num[row, b], den[row, b])
    corners = mesh.edges.tris[sliced]
    ends = np.stack((corners[at, a], corners[at, b], p, q), axis=2)
    return _chain(SlicedCurves(mesh, fld, [], {}, Steps(sliced, ends)))


def _chain(curves: SlicedCurves) -> SlicedCurves:
    """Chain the sliced segments, whose triangles are in index order, into
    loops, each from its least triangle.

    The checks are numpy passes over all segments; a failure names the least
    failing triangle.  Only the walk along the successor map is in Python
    ints: it lays the loops end to end in one walk-order array, which each
    loop's steps slice, ``tri_loop`` reads in that order and one
    ``np.add.reduceat`` sums into the displacements."""
    mesh, seg, last = curves.mesh, curves.segments, curves.mesh.resolution - 1
    keys, ((in_a, in_b, in_p, in_q), (va, vb, p, q)) = seg.tri, seg.ends.transpose(1, 2, 0)
    # the triangle across each exit edge (va, vb), found from the corner va
    at = (mesh.edges.tris[keys] == va[:, None]).argmax(axis=1)
    after = mesh.edges.neighbour[3 * keys + at]
    for bad in np.flatnonzero(after < 0)[:1].tolist():
        raise DegeneracyError(f"edge {tuple(sorted((int(va[bad]), int(vb[bad]))))} is not interior")
    nxt = np.minimum(np.searchsorted(keys, after), len(keys) - 1)
    if (keys[nxt] != after).any():
        raise DegeneracyError("curve chain left the sliced triangle set")
    # coherent neighbours traverse the shared edge in opposite directions;
    # both parameters are reduced, so ``s == 1 - t`` is a test on integers
    same = (in_a[nxt] == vb) & (in_b[nxt] == va) & (in_q[nxt] == q) & (in_p[nxt] == q - p)
    for bad in np.flatnonzero(~same)[:1].tolist():
        tri, other = int(keys[bad]), int(after[bad])
        raise DegeneracyError(f"triangles {tri} and {other} disagree on their shared point")
    # a step's exit point is the next step's entry point in the next frame;
    # the two frames differ by a period only between cells n - 1 and 0
    here, there = mesh.cell_array[keys], mesh.cell_array[after]
    shift = ((here == last) & (there == 0)).astype(np.int64) - ((here == 0) & (there == last))
    succ, order, starts = nxt.tolist(), [], []
    for i in range(len(succ)):
        if succ[i] >= 0:  # a visited triangle's successor is -1
            starts.append(len(order))
            while succ[i] >= 0:
                order.append(i)
                succ[i], i = -1, succ[i]
    if order:
        order, bounds = np.fromiter(order, np.int64, len(order)), starts + [len(order)]
        loop_of = np.repeat(np.arange(len(starts)), np.diff(bounds))
        curves.tri_loop.update(zip(keys[order].tolist(), loop_of.tolist()))
        disps = np.add.reduceat(shift[order], starts, axis=0).tolist()
        for lo, hi, disp in zip(bounds, bounds[1:], disps):
            curves.loops.append(Loop(steps=seg.take(order[lo:hi]), displacement=tuple(disp)))
    return curves


def walk_steps(loop: Loop):
    return loop.steps


def walk_pairing(path_steps: Steps, walker_sign: int, target: SlicedCurves):
    """Signed and unsigned crossings of a directed path with target loops.

    Returns {loop_index: [algebraic, geometric]}.  A zero field value along
    the walk counts as negative, which is the fixed symbolic perturbation.
    Event signs are +1 when the target field changes - to + along the walk;
    combined with the slicing orientation this realizes an antisymmetric
    pairing on curves.

    Only steps in the target's walk set read field values, gathered from
    its ``walk_values``: off the set every corner value has one strict sign,
    so both ends of the step get that sign and the step cannot cross.
    """
    out: dict[int, list] = {}
    walk, num, den = target.walk_values
    if not len(walk):
        return out
    at = walk.searchsorted(path_steps.tri)
    inside = walk.take(at, mode="clip") == path_steps.tri
    at, tris = at[inside], path_steps.tri[inside]
    corners = target.mesh.edges.tris[tris].tolist()
    ends = path_steps.ends[inside].tolist()
    rows = zip(tris.tolist(), corners, num[at].tolist(), den[at].tolist(), ends)
    for tri, verts, (n0, n1, n2), (d0, d1, d2), (pt_in, pt_out) in rows:
        # the values times d0*d1*d2 > 0: integers whose interpolants keep their signs
        vals = (n0 * d1 * d2, n1 * d0 * d2, n2 * d0 * d1)
        s_in = _edge_sign(vals, verts, pt_in)
        s_out = _edge_sign(vals, verts, pt_out)
        if s_in == s_out:
            continue
        li = target.tri_loop.get(tri)
        if li is None:
            # The crossing sits exactly on a mesh vertex of the target curve
            # (both fields vanish there); the perturbed curve is crossed in a
            # neighboring triangle's closure, so attribute the event to the
            # loop through that vertex.
            li = _loop_through_zero_vertex(target, vals, verts, (pt_in, pt_out))
        rec = out.setdefault(li, [0, 0])
        direction = 1 if s_out > 0 else -1
        rec[0] += direction * walker_sign * target.loops[li].orientation_sign
        rec[1] += 1
    return out


def _edge_sign(vals, verts, pt) -> int:
    """Sign of the PL interpolant at an edge point ``(va, vb, p, q)``, zero counting negative.

    Ends of one strict sign decide it without the interpolant: for ``t = p/q``
    in [0, 1] it is a convex combination of them.  Otherwise it is the sign of
    ``_interpolant``.
    """
    va, vb, p, q = pt
    fa, fb = vals[verts.index(va)], vals[verts.index(vb)]
    if fa > 0 and fb > 0:
        return 1
    if fa < 0 and fb < 0:
        return -1
    return 1 if _interpolant(fa, fb, p, q) > 0 else -1


def _interpolant(fa, fb, p, q):
    """``fa + t*(fb - fa)`` times ``q > 0`` for ``t = p/q``: the integer
    ``(q - p)*fa + p*fb`` for integer ``fa`` and ``fb``."""
    return (q - p) * fa + p * fb


def _loop_through_zero_vertex(target: SlicedCurves, vals, verts, points):
    """The one target loop through a vertex where an edge point's value vanishes.

    ``vals`` are the target field's values at the corners ``verts`` of the
    triangle holding the edge points ``(va, vb, p, q)``.
    """
    zero_verts = set()
    for va, vb, p, q in points:
        fa, fb = vals[verts.index(va)], vals[verts.index(vb)]
        if _interpolant(fa, fb, p, q) != 0:
            continue
        for v, f in ((va, fa), (vb, fb)):
            if f == 0:
                zero_verts.add(v)
    loop_ids = set()
    for v in zero_verts:
        loop_ids |= target._vertex_loops.get(v, set())
    if len(loop_ids) != 1:
        raise DegeneracyError(
            f"cannot attribute a vertex crossing to a unique loop: {sorted(loop_ids)}"
        )
    return loop_ids.pop()


# ---------------------------------------------------------------------------
# Cutting the surface along the loops of one sliced field.
# ---------------------------------------------------------------------------


def cut_along(mesh: TriMesh, curves: SlicedCurves) -> list:
    """Components of the surface cut along every loop of the field.

    Only pointwise fields (tubes) are supported: vertex signs must not depend
    on a per-triangle branch.  The field's PL interpolant is linear on each
    triangle, so each side of the cut deformation-retracts onto the full
    subcomplex spanned by the vertices of that sign (Edelsbrunner & Harer,
    Computational Topology, 2010), and V - E + F of a component of that
    subcomplex is the Euler characteristic of its piece.  A piece's boundary
    circles are the loops whose sliced triangles touch it.  Returns one report
    per piece, most subcomplex faces first.
    """
    if not isinstance(curves.field, TubeField):
        raise ValueError("cutting needs a pointwise field")
    table = mesh.edges
    if (table.count != 2).any():
        raise ValueError("mesh is not closed")
    positive = curves.field.vertex_signs(mesh) >= 0  # zero counts positive
    plain = positive[table.low] == positive[table.high]
    sliced = np.zeros(len(mesh.triangles), bool)
    sliced[curves.segments.tri] = True
    # mixed endpoint signs force a segment in both adjacent triangles
    mixed = np.flatnonzero(~plain)
    unsliced = mixed[~sliced[table.pairs[mixed] // 3].all(axis=1)]
    if len(unsliced):
        key = (int(table.low[unsliced[0]]), int(table.high[unsliced[0]]))
        raise DegeneracyError(
            f"edge {key} crosses the zero set but an adjacent triangle was not sliced"
        )
    plain_edges = np.stack((table.low[plain], table.high[plain]), axis=1)
    label = components(len(mesh.vertices), plain_edges)
    signs = positive[table.tris]
    count = partial(np.bincount, minlength=len(label))
    vertices, edges = count(label), count(label[plain_edges[:, 0]])
    faces = count(label[table.tris[(signs == signs[:, :1]).all(axis=1), 0]])
    loops: dict[int, set] = {}
    corner_roots = label[table.tris[list(curves.tri_loop)]].tolist()
    for roots, li in zip(corner_roots, curves.tri_loop.values()):
        for root in roots:
            loops.setdefault(root, set()).add(li)

    reports = []
    for root in sorted(np.flatnonzero(vertices).tolist(), key=lambda r: (-faces[r], r)):
        v, e, f = int(vertices[root]), int(edges[root]), int(faces[root])
        euler, boundaries = v - e + f, len(loops.get(root, ()))
        reports.append(
            {
                "faces": f,
                "vertices": v,
                "edges": e,
                "euler_characteristic": euler,
                "boundary_circles": boundaries,
                "genus": (2 - euler - boundaries) // 2,
            }
        )
    return reports


# ---------------------------------------------------------------------------
# Distinguished sections.
# ---------------------------------------------------------------------------

# Default tube radius.  The tube must contain both meridian disks of the pair
# that defines it: below transverse distance 1/4 the section degenerates to
# two null-homotopic circles around the two boundary-crossing points, while
# radii in roughly (1/4, 15/32) give the four longitudes.  5/16 keeps both
# 1/16-relative perturbations well inside that window at every supported
# resolution.
TUBE_RADIUS = Fraction(5, 16)


def plane_section(mesh: TriMesh, axis: int, level) -> SlicedCurves:
    """Section by the coordinate plane x_axis = level (axis is 1-based)."""
    return slice_field(mesh, PlaneField(axis - 1, Fraction(level)))


def tube_section(mesh: TriMesh, axis: int, center, radius=TUBE_RADIUS) -> SlicedCurves:
    """Section by the distance tube around an axis-parallel line (1-based axis).

    As a stability check, the slice is recomputed at radius*(1 +- 1/16) and
    the loop count must agree; disagreement means the radius is too close to
    a tangency of the tube with the surface.  The three slices share one
    radius-free ``squared_offsets`` pass, held for this call only.
    """
    radius, line = Fraction(radius), []
    try:
        for factor in (1, Fraction(15, 16), Fraction(17, 16)):
            fld = TubeField(axis - 1, center, radius * factor)
            fld._line = line
            sec = slice_field(mesh, fld)
            if factor == 1:
                base = sec
            elif len(sec.loops) != len(base.loops):
                raise TransversalityError(
                    f"loop count changed under radius perturbation {factor}: "
                    f"{len(base.loops)} vs {len(sec.loops)}"
                )
    finally:
        line.clear()
    base.field._line = None
    return base

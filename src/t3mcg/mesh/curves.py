"""Curves on the PL surface: plane sections, tube sections, crossing counts.

Curves are cut out of the mesh as zero sets of exact scalar fields evaluated
at mesh vertices and interpolated linearly over triangles.  For coordinate
planes the interpolant is the field itself, branch-corrected per triangle on
the plane's axis coordinate in the unwrapped frame of its cell; for distance
tubes it is a PL stand-in whose correctness is certified by the
radius-stability re-run.  All arithmetic is rational, so membership and
crossing counts are exact, and so are the candidate prefilters: a plane
slices the triangles whose cell box holds the level mod 1
(``cell_boxes_holding``), a tube those whose corner signs, one int8 vector
from one integer numpy pass (``TubeField.vertex_signs``), are mixed.  Each
field has one kernel, ``corner_ratios``, that returns the exact integer
numerators and denominators of the corner values of a list of triangles;
``tri_values`` is its one-triangle ``Fraction`` view.  Slicing makes one
kernel call over the candidates and chooses the mixed triangles and their
edges with numpy on the numerators' signs; only a stored crossing parameter
is built as a ``Fraction``.  Chaining steps across edges through the mesh's
edge table (``TriMesh.edges``) and checks, on the reduced parameters'
integers, that each crossing point is the same edge point in both triangles
on its edge; a loop's displacement, the count of its steps from cell n - 1
to cell 0 or back, is one numpy pass.  A walk makes one kernel call over its
steps in the target's walk set (``walk_triangles``): off it every corner
value has one strict sign, so a step there cannot cross.  The sign at each
end of a step is that of one integer (``_interpolant``).  A crossing on a
target vertex is attributed through a per-target index of the segment
points that sit on vertices.  Cutting reads the tube's sign vector.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .surface import DegeneracyError, TriMesh, components


class TransversalityError(RuntimeError):
    pass


def dper(w: Fraction) -> Fraction:
    m = w - math.floor(w)
    return min(m, 1 - m)


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


def ambient_side(point) -> int:
    """Sign of (squared distance to origin spine) - (to shifted spine).

    Negative means the point is nearer the origin spine.  Exact; the point
    must not be equidistant.
    """
    half, pairs = Fraction(1, 2), [((axis + 1) % 3, (axis + 2) % 3) for axis in range(3)]
    diff = min(dper(point[a]) ** 2 + dper(point[b]) ** 2 for a, b in pairs) - min(
        dper(point[a] - half) ** 2 + dper(point[b] - half) ** 2 for a, b in pairs
    )
    if diff == 0:
        raise DegeneracyError(f"point {point} is equidistant from both spines")
    return 1 if diff > 0 else -1


class _CornerValues:
    def tri_values(self, mesh: TriMesh, tri: int) -> tuple:
        """One triangle's corner values as ``Fraction``s, read through ``corner_ratios``."""
        num, den = self.corner_ratios(mesh, [tri])
        return tuple(map(Fraction, num[0].tolist(), den[0].tolist()))


class PlaneField(_CornerValues):
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

        Only the ``axis`` coordinate of each corner is read, unwrapped as in
        ``TriMesh.triangle_local``.  Each corner lies in its cell's closed box
        ``[lo, lo + 1/n]`` (``cell_boxes_holding``), so ``k`` is that of ``lo``
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

    def candidate_triangles(self, mesh: TriMesh):
        """Triangles whose cell box meets the plane mod 1, in index order.

        Mixed signs put ``rep`` between two corners, inside the box.
        """
        return np.nonzero(self._box_meets(mesh))[0].tolist()

    def walk_triangles(self, mesh: TriMesh) -> set:
        """Triangles whose closed cell box meets the zero set.

        Off them the box lies strictly between two representatives of the
        level, so every corner value has one strict sign.  The candidate test
        is closed already, so the two sets are equal.
        """
        return set(np.nonzero(self._box_meets(mesh))[0].tolist())

    def _box_meets(self, mesh: TriMesh):
        return cell_boxes_holding(mesh.resolution, self.level)[mesh.cell_array[:, self.axis]]


class TubeField(_CornerValues):
    """Squared transverse distance to an axis line, minus radius squared.

    Pointwise exact (no branch needed: the cut locus of the distance function
    is far from the zero set for the radii in use) and periodic, because
    ``dper`` reduces mod 1, so a vertex's value does not depend on the frame
    it is read in.  ``vertex_signs`` gives the exact sign at every vertex in
    one integer pass; ``corner_ratios`` evaluates each vertex it reads once,
    through ``point_value``, the one exact tube formula, and cutting reads
    signs alone.  The memos hold the ratios and signs of the last mesh read.
    """

    def __init__(self, axis: int, center, radius: Fraction):
        self.axis = axis
        self.trans = ((axis + 1) % 3, (axis + 2) % 3)
        self.center = (Fraction(center[0]), Fraction(center[1]))
        self.radius = Fraction(radius)
        self._memo_mesh = None

    def point_value(self, p):
        """``dper(x - u)**2 + dper(y - v)**2 - r**2`` as one ``Fraction`` at
        ``p``: three exact coordinates, or a vertex row ``(x, y, z, den)`` of
        integer numerators over one denominator (``TriMesh.int_row``).

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

    def _read(self, mesh: TriMesh):
        if mesh is not self._memo_mesh:
            self._memo_mesh, self._ratios, self._vertex_signs = mesh, {}, None

    def _vertex_ratios(self, mesh: TriMesh, vertices) -> list:
        """The reduced ``(numerator, denominator)`` of the value at each vertex;
        each vertex new to the memo is evaluated once, through ``point_value``."""
        self._read(mesh)
        memo, new = self._ratios, list(set(vertices).difference(self._ratios))
        if new:  # ``TriMesh.int_row`` of each new vertex, in one gather
            rows = np.column_stack((mesh.vertex_num[new], mesh.vertex_den[new])).tolist()
            memo.update(zip(new, (self.point_value(row).as_integer_ratio() for row in rows)))
        return [memo[v] for v in vertices]

    def vertex_signs(self, mesh: TriMesh) -> np.ndarray:
        """The sign of the value at every vertex of ``mesh``, as int8 with an
        exact zero as 0, computed once per mesh.

        A vertex is ``(xn, yn)/den`` across the axis, and the centre, reduced
        mod 1, is ``(cu, cv)/L`` with ``L = lcm(ud, vd)``.  Over ``D = den*L``
        the periodic offsets are ``X/D`` and ``Y/D``, with ``X`` the lesser of
        ``m = ((xn mod den)*L - cu*den) mod D`` and ``D - m``; likewise ``Y``.
        The value is ``((X² + Y²)*rd² - rn²*D²) / (D*rd)²`` for ``|r| = rn/rd``,
        so its sign is that of the numerator.  Bound: ``(xn mod den)*L`` and
        ``cu*den`` lie in ``[0, D)``, ``X, Y <= D/2``, so ``X² + Y² <= D²/2`` and
        every intermediate is at most ``(D*max(rn, rd))²``.  When that is below
        2**63 for the largest ``D`` of the mesh, int64 gives every sign exactly;
        otherwise every vertex goes to ``point_value``.
        """
        self._read(mesh)
        if self._vertex_signs is not None:
            return self._vertex_signs
        rn, rd = abs(self.radius).as_integer_ratio()
        (un, ud), (vn, vd) = ((c - math.floor(c)).as_integer_ratio() for c in self.center)
        lcm = math.lcm(ud, vd)
        den = mesh.vertex_den
        if (int(den.max(initial=0)) * lcm * max(rn, rd)) ** 2 < 2**63:
            big, square = den * lcm, 0
            for col, cn, cd in zip(self.trans, (un, vn), (ud, vd)):
                m = (mesh.vertex_num[:, col] % den * lcm - cn * (lcm // cd) * den) % big
                square = square + np.minimum(m, big - m) ** 2
            signs = np.sign(square * rd**2 - rn**2 * big**2)
        else:
            signs = [(f > 0) - (f < 0) for f, _ in self._vertex_ratios(mesh, range(len(den)))]
        self._vertex_signs = np.asarray(signs, np.int8)
        return self._vertex_signs

    def corner_ratios(self, mesh: TriMesh, tris):
        """The values at the corners of ``tris`` as integer numerators and
        denominators, two ``(len(tris), 3)`` arrays of Python ints."""
        return _split(self._vertex_ratios(mesh, mesh.edges.tris[tris].ravel().tolist()))

    def _corner_counts(self, mesh: TriMesh):
        """The numbers of negative and of positive corners of every triangle."""
        code = np.array([1, 0, 4], np.uint8)[self.vertex_signs(mesh) + 1]
        tris = mesh.edges.tris
        total = code[tris[:, 0]] + code[tris[:, 1]] + code[tris[:, 2]]
        return total & 3, total >> 2

    def candidate_triangles(self, mesh: TriMesh):
        """Triangles whose corner signs are mixed, zero counting positive, in
        index order: exactly the triangles ``slice_field`` slices."""
        negative, _ = self._corner_counts(mesh)
        return np.flatnonzero((negative > 0) & (negative < 3)).tolist()

    def walk_triangles(self, mesh: TriMesh) -> set:
        """Triangles whose corners are not all of one strict sign.  Unlike
        ``candidate_triangles`` this keeps those with zero and no negative
        corners: slicing counts a zero corner positive, a walk negative."""
        negative, positive = self._corner_counts(mesh)
        return set(np.flatnonzero((negative < 3) & (positive < 3)).tolist())


# A point on a triangle edge: (vertex_a, vertex_b, t) with position
# (1-t)*a + t*b.  Steps pair an entry and an exit point with their triangle.
@dataclass
class Loop:
    steps: list  # (tri, (va, vb, t_in), (vc, vd, t_out))
    displacement: tuple  # integer 3-vector
    orientation_sign: int = 1


@dataclass
class SlicedCurves:
    mesh: TriMesh
    field: object
    loops: list
    tri_loop: dict  # triangle -> loop index
    tri_segments: dict  # triangle -> (entry_pt, exit_pt)

    @cached_property
    def walk_set(self) -> set:
        """The field's ``walk_triangles``: off them no walk step crosses the field."""
        return self.field.walk_triangles(self.mesh)

    @cached_property
    def _vertex_loops(self) -> dict:
        """Vertex -> ids of the loops with a segment point on it (t = 0 or 1)."""
        index: dict[int, set] = {}
        for tri, segment in self.tri_segments.items():
            for va, vb, t in segment:
                if t.numerator == 0 or t.numerator == t.denominator:
                    index.setdefault(vb if t.numerator else va, set()).add(self.tri_loop[tri])
        return index


def step_positions(mesh: TriMesh, step):
    tri, pt_in, pt_out = step
    verts = mesh.triangles[tri]
    local = mesh.triangle_local(tri)

    def pos(pt):
        va, vb, t = pt
        pa, pb = local[verts.index(va)], local[verts.index(vb)]
        return tuple(a + t * (b - a) for a, b in zip(pa, pb))

    return pos(pt_in), pos(pt_out)


def _split(ratios: list) -> tuple:
    """Flat corner ratios as ``(numerators, denominators)``, two ``(m, 3)`` object arrays."""
    return tuple(np.array([r[k] for r in ratios], object).reshape(-1, 3) for k in (0, 1))


def _corner_ratios(fld, mesh: TriMesh, tris) -> tuple:
    """``fld.corner_ratios``; a field with ``tri_values`` alone is read through it."""
    if hasattr(fld, "corner_ratios"):
        return fld.corner_ratios(mesh, tris)
    return _split([v.as_integer_ratio() for tri in tris for v in fld.tri_values(mesh, tri)])


def slice_field(mesh: TriMesh, fld) -> SlicedCurves:
    """All components of the zero set of the field's PL interpolant.

    One kernel call reads every candidate's corners.  The mixed triangles and
    their entry (``+ -> -``) and exit (``- -> +``) edges ``(a, a + 1)`` are
    chosen on the numerators' signs; each ``t = f_a / (f_a - f_b)`` is one
    ``Fraction`` built in Python ints."""
    tris = np.asarray(fld.candidate_triangles(mesh), np.int64)
    num, den = _corner_ratios(fld, mesh, tris)
    positive = num >= 0  # zero counts positive
    ahead = positive[:, [1, 2, 0]]
    rows = np.flatnonzero(positive.any(axis=1) & ~positive.all(axis=1))
    sliced, points = tris[rows].tolist(), []
    for crossing in (positive & ~ahead, ahead & ~positive):
        a = crossing[rows].argmax(axis=1)
        b = (a + 1) % 3
        ends = (a, b, num[rows, a], den[rows, a], num[rows, b], den[rows, b])
        points.append([  # vertex ids from ``mesh.triangles``, whose ints the segments share
            (verts[i], verts[j], Fraction(na * db, na * db - nb * da))
            for verts, i, j, na, da, nb, db in zip(
                map(mesh.triangles.__getitem__, sliced), *(e.tolist() for e in ends)
            )
        ])
    segments = dict(zip(sliced, zip(*points)))
    return _chain(SlicedCurves(mesh, fld, [], {}, segments))


def _chain(curves: SlicedCurves) -> SlicedCurves:
    """Chain the sliced segments into loops, each from its least triangle."""
    mesh, segments, last = curves.mesh, curves.tri_segments, curves.mesh.resolution - 1
    tri_loop, loops = curves.tri_loop, curves.loops
    # the triangle across each exit edge (va, vb), found from the corner va
    keys = np.fromiter(segments, np.int64, len(segments))
    exit_va = np.fromiter((segment[1][0] for segment in segments.values()), np.int64, len(keys))
    at = mesh.edges.tris[keys] == exit_va[:, None]
    after = dict(zip(keys.tolist(), mesh.edges.neighbour[3 * keys + at.argmax(axis=1)].tolist()))
    for start in sorted(segments):
        if start in tri_loop:
            continue
        tris, tri = [], start
        while True:
            tri_loop[tri] = len(loops)
            tris.append(tri)
            va, vb, t = segments[tri][1]
            nxt = after[tri]
            if nxt < 0:
                raise DegeneracyError(f"edge {(min(va, vb), max(va, vb))} is not interior")
            segment = segments.get(nxt)
            if segment is None:
                raise DegeneracyError("curve chain left the sliced triangle set")
            # coherent neighbours traverse the shared edge in opposite directions;
            # both parameters are reduced, so ``s == 1 - t`` is a test on integers
            wa, wb, s = segment[0]
            q = t.denominator
            if wa != vb or wb != va or s.denominator != q or s.numerator != q - t.numerator:
                raise DegeneracyError(f"triangles {tri} and {nxt} disagree on their shared point")
            tri = nxt
            if tri == start:
                break
        # a step's exit point is the next step's entry point in the next frame;
        # the two frames differ by a period only between cells n - 1 and 0
        here, there = mesh.cell_array[tris], mesh.cell_array[tris[1:] + tris[:1]]
        forward, back = (here == last) & (there == 0), (here == 0) & (there == last)
        disp = tuple((forward.sum(axis=0) - back.sum(axis=0)).tolist())
        loops.append(Loop(steps=[(tri, *segments[tri]) for tri in tris], displacement=disp))
    return curves


def walk_steps(loop: Loop):
    return loop.steps


def walk_pairing(path_steps, walker_sign: int, target: SlicedCurves):
    """Signed and unsigned crossings of a directed path with target loops.

    Returns {loop_index: [algebraic, geometric]}.  A zero field value along
    the walk counts as negative, which is the fixed symbolic perturbation.
    Event signs are +1 when the target field changes - to + along the walk;
    combined with the slicing orientation this realizes an antisymmetric
    pairing on curves.

    Only steps in the target's walk set read field values: off it every
    corner value has one strict sign, so both ends of the step get that
    sign and the step cannot cross.
    """
    out: dict[int, list] = {}
    fld, mesh = target.field, target.mesh
    steps = [step for step in path_steps if step[0] in target.walk_set]
    num, den = _corner_ratios(fld, mesh, [tri for tri, _, _ in steps])
    for (tri, pt_in, pt_out), (n0, n1, n2), (d0, d1, d2) in zip(steps, num.tolist(), den.tolist()):
        # the values times d0*d1*d2 > 0: integers whose interpolants keep their signs
        vals = (n0 * d1 * d2, n1 * d0 * d2, n2 * d0 * d1)
        verts = mesh.triangles[tri]
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
    """Sign of the field's PL interpolant at an edge point, zero counting negative.

    Ends of one strict sign decide it without the interpolant: for ``t`` in
    [0, 1] it is a convex combination of them.  Otherwise it is the sign of
    the integer ``_interpolant``; no ``Fraction`` is built.
    """
    va, vb, t = pt
    fa, fb = vals[verts.index(va)], vals[verts.index(vb)]
    if fa.numerator > 0 and fb.numerator > 0:
        return 1
    if fa.numerator < 0 and fb.numerator < 0:
        return -1
    return 1 if _interpolant(fa, fb, t) > 0 else -1


def _interpolant(fa, fb, t) -> int:
    """``fa + t*(fb - fa)`` times ``q*da*db > 0`` for ``fa = na/da``, ``fb = nb/db``
    and ``t = p/q``: the integer ``(q - p)*na*db + p*nb*da``."""
    p, q = t.numerator, t.denominator
    return (q - p) * fa.numerator * fb.denominator + p * fb.numerator * fa.denominator


def _loop_through_zero_vertex(target: SlicedCurves, vals, verts, points):
    """The one target loop through a vertex where an edge point's value vanishes.

    ``vals`` are the target field's values at the corners ``verts`` of the
    triangle holding the edge points.
    """
    zero_verts = set()
    for va, vb, t in points:
        fa, fb = vals[verts.index(va)], vals[verts.index(vb)]
        if _interpolant(fa, fb, t) != 0:
            continue
        for v, f in ((va, fa), (vb, fb)):
            if f.numerator == 0:
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
    sliced[list(curves.tri_segments)] = True
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
    a tangency of the tube with the surface.
    """
    radius = Fraction(radius)
    base = slice_field(mesh, TubeField(axis - 1, center, radius))
    for factor in (Fraction(15, 16), Fraction(17, 16)):
        probe = slice_field(mesh, TubeField(axis - 1, center, radius * factor))
        if len(probe.loops) != len(base.loops):
            raise TransversalityError(
                f"loop count changed under radius perturbation {factor}: "
                f"{len(base.loops)} vs {len(probe.loops)}"
            )
    return base

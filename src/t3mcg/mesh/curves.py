"""Curves on the PL surface: plane sections, tube sections, crossing counts.

Curves are cut out of the mesh as zero sets of exact scalar fields evaluated
at mesh vertices and interpolated linearly over triangles.  For coordinate
planes the interpolant is the field itself; for distance tubes it is a PL
stand-in whose correctness is certified by the radius-stability re-run.  All
arithmetic is rational, so membership, chaining, displacement and crossing
counts are exact.

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
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .surface import TriMesh, components


class DegeneracyError(RuntimeError):
    pass


class TransversalityError(RuntimeError):
    pass


def dper(w: Fraction) -> Fraction:
    m = w - math.floor(w)
    return min(m, 1 - m)


def ambient_side(point) -> int:
    """Sign of (squared distance to origin spine) - (to shifted spine).

    Negative means the point is nearer the origin spine.  Exact; the point
    must not be equidistant.
    """
    half = Fraction(1, 2)
    best_a = None
    best_b = None
    for axis in range(3):
        a, b = (axis + 1) % 3, (axis + 2) % 3
        da = dper(point[a]) ** 2 + dper(point[b]) ** 2
        db = dper(point[a] - half) ** 2 + dper(point[b] - half) ** 2
        best_a = da if best_a is None else min(best_a, da)
        best_b = db if best_b is None else min(best_b, db)
    diff = best_a - best_b
    if diff == 0:
        raise DegeneracyError(f"point {point} is equidistant from both spines")
    return 1 if diff > 0 else -1


class PlaneField:
    """Affine field x_axis - level, branch-corrected per triangle.

    The representative of the level nearest the triangle decides the branch,
    so triangles near the antipodal plane get consistently signed values and
    no spurious zero set appears there.
    """

    def __init__(self, axis: int, level: Fraction):
        self.axis = axis
        self.level = Fraction(level)

    def tri_values(self, mesh: TriMesh, tri: int):
        pts = mesh.triangle_local(tri)
        center = sum(p[self.axis] for p in pts) / 3
        rep = self.level + math.floor(center - self.level + Fraction(1, 2))
        return tuple(p[self.axis] - rep for p in pts)

    def candidate_triangles(self, mesh: TriMesh):
        import numpy as np

        n = mesh.resolution
        target = float(self.level) * n
        cells = mesh.cells_array()[:, self.axis]
        d = (cells - target) % n
        return np.nonzero((d <= 2.5) | (d >= n - 2.5))[0].tolist()


class TubeField:
    """Squared transverse distance to an axis line, minus radius squared.

    Pointwise exact (no branch needed: the cut locus of the distance function
    is far from the zero set for the radii in use).
    """

    def __init__(self, axis: int, center, radius: Fraction):
        self.axis = axis
        self.trans = ((axis + 1) % 3, (axis + 2) % 3)
        self.center = (Fraction(center[0]), Fraction(center[1]))
        self.radius = Fraction(radius)

    def point_value(self, p):
        a, b = self.trans
        u, v = self.center
        return dper(p[a] - u) ** 2 + dper(p[b] - v) ** 2 - self.radius ** 2

    def tri_values(self, mesh: TriMesh, tri: int):
        pts = mesh.triangle_local(tri)
        return tuple(self.point_value(p) for p in pts)

    def candidate_triangles(self, mesh: TriMesh):
        import numpy as np

        n = mesh.resolution
        a, b = self.trans
        u, v = self.center
        r = float(self.radius)
        slack = 3.5 / n
        cells = mesh.cells_array()
        ca = (cells[:, a] + 0.5) / n
        cb = (cells[:, b] + 0.5) / n
        da = np.abs(ca - float(u)) % 1.0
        da = np.minimum(da, 1.0 - da)
        db = np.abs(cb - float(v)) % 1.0
        db = np.minimum(db, 1.0 - db)
        d = np.hypot(da, db)
        return np.nonzero((d >= r - slack) & (d <= r + slack))[0].tolist()


# A point on a triangle edge: (vertex_a, vertex_b, t) with position
# (1-t)*a + t*b.  Steps pair an entry and an exit point with their triangle.
@dataclass
class Loop:
    steps: list  # (tri, (va, vb, t_in), (vc, vd, t_out))
    displacement: tuple  # integer 3-vector
    orientation_sign: int = 1

    def __len__(self):
        return len(self.steps)


@dataclass
class SlicedCurves:
    mesh: TriMesh
    field: object
    loops: list
    tri_loop: dict  # triangle -> loop index
    tri_segments: dict  # triangle -> (entry_pt, exit_pt)
    _value_cache: dict = dc_field(default_factory=dict, repr=False)

    def values(self, tri: int):
        v = self._value_cache.get(tri)
        if v is None:
            v = self.field.tri_values(self.mesh, tri)
            self._value_cache[tri] = v
        return v

    def point_value(self, tri: int, pt):
        va, vb, t = pt
        vals = self.values(tri)
        tri_verts = self.mesh.triangles[tri]
        fa = vals[tri_verts.index(va)]
        fb = vals[tri_verts.index(vb)]
        return fa + t * (fb - fa)


def step_positions(mesh: TriMesh, step):
    tri, pt_in, pt_out = step
    cell = mesh.tri_cells[tri]

    def pos(pt):
        va, vb, t = pt
        pa = mesh.vertex_local(va, cell)
        pb = mesh.vertex_local(vb, cell)
        return tuple(a + t * (b - a) for a, b in zip(pa, pb))

    return pos(pt_in), pos(pt_out)


def slice_field(mesh: TriMesh, fld) -> SlicedCurves:
    """All components of the zero set of the field's PL interpolant."""
    curves = SlicedCurves(mesh, fld, [], {}, {})
    edges = mesh.shared_edge_map()

    entry_edge_of: dict[int, tuple] = {}
    exit_edge_of: dict[int, tuple] = {}
    for tri in fld.candidate_triangles(mesh):
        vals = curves.values(tri)
        signs = [1 if v >= 0 else -1 for v in vals]  # zero counts positive
        if signs[0] == signs[1] == signs[2]:
            continue
        verts = mesh.triangles[tri]
        entry = exit_ = None
        for e in range(3):
            a, b = e, (e + 1) % 3
            if signs[a] == signs[b]:
                continue
            t = vals[a] / (vals[a] - vals[b])
            pt = (verts[a], verts[b], t)
            if signs[a] > 0:
                entry = pt
            else:
                exit_ = pt
        assert entry is not None and exit_ is not None
        curves.tri_segments[tri] = (entry, exit_)
        entry_edge_of[tri] = _edge_key(entry)
        exit_edge_of[tri] = _edge_key(exit_)

    used = set()
    loops = []
    for start in sorted(curves.tri_segments):
        if start in used:
            continue
        steps = []
        tri = start
        disp = [Fraction(0)] * 3
        while True:
            used.add(tri)
            entry, exit_ = curves.tri_segments[tri]
            step = (tri, entry, exit_)
            steps.append(step)
            p_in, p_out = step_positions(mesh, step)
            for c in range(3):
                disp[c] += p_out[c] - p_in[c]
            nxt = _other_triangle(edges, exit_edge_of[tri], tri)
            if nxt not in curves.tri_segments:
                raise DegeneracyError("curve chain left the sliced triangle set")
            if entry_edge_of[nxt] != exit_edge_of[tri]:
                raise DegeneracyError("incoherent segment directions across an edge")
            tri = nxt
            if tri == start:
                break
        for c in range(3):
            if disp[c].denominator != 1:
                raise DegeneracyError(f"non-integral displacement {disp}")
        loops.append(Loop(steps=steps, displacement=tuple(int(d) for d in disp)))

    loops.sort(key=lambda l: l.steps[0][0])
    curves.loops = loops
    for li, loop in enumerate(loops):
        for step in loop.steps:
            curves.tri_loop[step[0]] = li
    return curves


def _edge_key(pt):
    va, vb, _ = pt
    return (va, vb) if va < vb else (vb, va)


def _other_triangle(edges, key, tri):
    pair = edges[key]
    if len(pair) != 2:
        raise DegeneracyError(f"edge {key} is not interior")
    return pair[0] if pair[1] == tri else pair[1]


def walk_steps(loop: Loop):
    return loop.steps


def walk_pairing(path_steps, walker_sign: int, target: SlicedCurves):
    """Signed and unsigned crossings of a directed path with target loops.

    Returns {loop_index: [algebraic, geometric]}.  A zero field value along
    the walk counts as negative, which is the fixed symbolic perturbation.
    Event signs are +1 when the target field changes - to + along the walk;
    combined with the slicing orientation this realizes an antisymmetric
    pairing on curves.
    """
    out: dict[int, list] = {}
    for tri, pt_in, pt_out in path_steps:
        f_in = target.point_value(tri, pt_in)
        f_out = target.point_value(tri, pt_out)
        s_in = 1 if f_in > 0 else -1
        s_out = 1 if f_out > 0 else -1
        if s_in == s_out:
            continue
        li = target.tri_loop.get(tri)
        if li is None:
            # The crossing sits exactly on a mesh vertex of the target curve
            # (both fields vanish there); the perturbed curve is crossed in a
            # neighboring triangle's closure, so attribute the event to the
            # loop through that vertex.
            li = _loop_through_zero_vertex(target, tri, pt_in, pt_out, f_in, f_out)
        rec = out.setdefault(li, [0, 0])
        direction = 1 if s_out > 0 else -1
        rec[0] += direction * walker_sign * target.loops[li].orientation_sign
        rec[1] += 1
    return out


def _loop_through_zero_vertex(target: SlicedCurves, tri, pt_in, pt_out, f_in, f_out):
    zero_verts = set()
    for pt, f in ((pt_in, f_in), (pt_out, f_out)):
        if f != 0:
            continue
        va, vb, t = pt
        verts = target.mesh.triangles[tri]
        vals = target.values(tri)
        for v in (va, vb):
            if vals[verts.index(v)] == 0:
                zero_verts.add(v)
    loop_ids = set()
    for other_tri, (entry, exit_) in target.tri_segments.items():
        for wa, wb, s in (entry, exit_):
            if (s == 0 and wa in zero_verts) or (s == 1 and wb in zero_verts):
                loop_ids.add(target.tri_loop[other_tri])
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
    positive = [curves.field.point_value(w) >= 0 for w in mesh.vertices]  # zero counts positive
    plain_edges = []
    for key, tris in mesh.shared_edge_map().items():
        if len(tris) != 2:
            raise ValueError("mesh is not closed")
        if positive[key[0]] == positive[key[1]]:
            plain_edges.append(key)
        elif tris[0] not in curves.tri_segments or tris[1] not in curves.tri_segments:
            # mixed endpoint signs force a segment in both adjacent triangles
            raise DegeneracyError(
                f"edge {key} crosses the zero set but an adjacent triangle was not sliced"
            )
    label = components(len(mesh.vertices), plain_edges)
    vertices = Counter(label)
    edges = Counter(label[u] for u, _ in plain_edges)
    faces = Counter(
        label[a] for a, b, c in mesh.triangles if positive[a] == positive[b] == positive[c]
    )
    loops: dict[int, set] = {}
    for tri, li in curves.tri_loop.items():
        for v in mesh.triangles[tri]:
            loops.setdefault(label[v], set()).add(li)

    reports = []
    for root in sorted(vertices, key=lambda r: (-faces[r], r)):
        euler = vertices[root] - edges[root] + faces[root]
        boundaries = len(loops.get(root, ()))
        reports.append(
            {
                "faces": faces[root],
                "vertices": vertices[root],
                "edges": edges[root],
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

"""``Fraction`` reference for surface points: the exact vertex rows, each
triangle's unwrapped frame, step positions in it, and the side of the surface
a point lies on; and the per-loop chaining of sliced segments.

The program reads a surface point as integer columns (``TriMesh.vertex_num``
over ``vertex_den``, and the ``(va, vb, p, q)`` rows of ``Steps``); these
builders restate the same points as exact ``Fraction`` coordinates, one row at
a time, for the tests to compare against.
"""

import math
from fractions import Fraction

import numpy as np

from t3mcg.mesh.curves import Loop
from t3mcg.mesh.surface import DegeneracyError


def dper(w: Fraction) -> Fraction:
    m = w - math.floor(w)
    return min(m, 1 - m)


def int_row(mesh, v: int) -> list:
    """``[x, y, z, den]`` of vertex ``v`` in Python ints."""
    return [*mesh.vertex_num[v].tolist(), mesh.vertex_den.item(v)]


def vertex_edges(mesh) -> list:
    """``(base, axes, Fraction t)`` of every vertex: the grid edge from the
    lattice corner ``base`` along the 0/1 direction ``axes``, crossed at ``t``."""
    n, q = mesh.resolution, mesh.offset_den
    columns = mesh.vertex_key.tolist(), mesh.vertex_tnum.tolist(), mesh.vertex_den.tolist()
    rows = []
    for k, tnum, den in zip(*columns):
        base = (k >> 3) // (n * n), (k >> 3) // n % n, (k >> 3) % n
        rows.append((base, (k >> 2 & 1, k >> 1 & 1, k & 1), Fraction(q * n * tnum, den)))
    return rows


def triangle_local(mesh, tri_index: int) -> tuple:
    """Exact vertex coordinates of a triangle in the unwrapped frame of its cell.

    The frame of cell k spans [(k + 1/2)/n, (k + 3/2)/n] along each axis,
    which leaves [0, 1) only for k = n - 1; there a wrapped coordinate
    below 1/2 gains one period.
    """
    last = mesh.resolution - 1
    cell = mesh.tri_cells[tri_index]
    return tuple(
        tuple(
            Fraction(x + d if cell[c] == last and 2 * x < d else x, d)
            for c, x in enumerate(xyz)
        )
        for *xyz, d in (int_row(mesh, v) for v in mesh.triangles[tri_index])
    )


def step_positions(mesh, step):
    """The entry and exit points of a step ``(tri, (va, vb, t), (vc, vd, s))``
    in the unwrapped frame of its triangle."""
    tri, pt_in, pt_out = step
    verts = mesh.triangles[tri]
    local = triangle_local(mesh, tri)

    def pos(pt):
        va, vb, t = pt
        pa, pb = local[verts.index(va)], local[verts.index(vb)]
        return tuple(a + t * (b - a) for a, b in zip(pa, pb))

    return pos(pt_in), pos(pt_out)


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


def chain_reference(curves):
    """``curves._chain`` as it was before its loop bookkeeping was batched: the
    same checks, then per loop its own walk-order list, ``tri_loop`` update,
    displacement sum and ``Steps`` take."""
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
    tris, succ = keys.tolist(), nxt.tolist()
    for start in range(len(tris)):
        order, i = [], start
        while succ[i] >= 0:  # a visited triangle's successor is -1
            order.append(i)
            succ[i], i = -1, succ[i]
        if order:
            curves.tri_loop.update(dict.fromkeys([tris[i] for i in order], len(curves.loops)))
            disp = tuple(shift[order].sum(axis=0).tolist())
            curves.loops.append(Loop(steps=seg.take(order), displacement=disp))
    return curves

"""PL reconstruction of the splitting surface in the flat 3-torus.

The surface is the zero set of g(x) = d^2(x, spine A) - d^2(x, spine B),
where each spine is the three axis circles through the origin (A) or through
the half-diagonal point (B), and distances are flat-torus distances.  Samples
live on the shifted grid (p + 1/2)/n, which keeps every sample off the
symmetry planes; sample values are exact integers after scaling by (2n)^2.
At resolutions with an odd factor some samples are still equidistant from
both spines, and build_surface raises SampleOnSurfaceError there.
Each grid cell is split into the six path tetrahedra sharing the main
diagonal, and the zero set is triangulated from one marching-tetrahedra case
table indexed by (path, negative-corner mask), run with numpy over every
mixed tetrahedron at once.  A vertex is the crossing on one grid edge, keyed
by the edge as one integer, and is stored as three integer numerators over one
integer denominator; its exact ``Fraction`` coordinates (``TriMesh.vertices``)
are built only when read.  Welding vertices by grid edge is exact, so the
output is a closed, coherently oriented manifold mesh.  One edge table per
mesh, sorted on int64 keys (``TriMesh.edges``), serves validation, chaining
and cutting.
Ids are int32 and cells int16, widened to int64 wherever two are multiplied.
The triangles and their cells stay the int arrays the triangulation returns:
``TriMesh.triangles`` is the int32 array itself, which the edge table reads
without a copy, and ``TriMesh.cell_array`` the int16 one.  No list view of
either is kept; ``TriMesh.tri_cells`` builds the cell rows as tuples on each
read, for the benchmark tracer alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations

import numpy as np

# The largest resolution whose int64 vertex arithmetic ``TriMesh`` proves exact;
# int32 also holds every id and grid-edge key up to it (8 * 512**3 = 2**30).
MAX_RESOLUTION = 512


class ResolutionError(ValueError):
    pass


class SampleOnSurfaceError(RuntimeError):
    pass


class DegeneracyError(RuntimeError):
    pass


# The six tetrahedra of a cell: vertex paths from (0,0,0) to (1,1,1), one per
# axis order.  Corners along a path increase componentwise with their index,
# so the lower endpoint of every tetrahedron edge is its lower-index corner.
_TET_PATHS = [
    tuple(tuple(int(c in perm[:k]) for c in range(3)) for k in range(4))
    for perm in permutations(range(3))
]


def _tet_case(corners, mask: int):
    """Marching-tetrahedra case: the crossed edges and triangles of a mixed sign mask.

    Bit k of ``mask`` is set when corner k is negative.  The crossed edges,
    each (lower corner, direction code 4*dx + 2*dy + dz), run snake-wise over
    the (negative, positive) corner pairs, which walks round the section
    polygon in the order its vertices are first numbered.  The polygon is
    fanned from its first vertex into triangles (index triples into the
    edges), all oriented so that the normal of the first, taken on the
    doubled edge midpoints, points toward the positive end of the first edge.
    """
    neg = [k for k in range(4) if mask >> k & 1]
    pos = [k for k in range(4) if not mask >> k & 1]
    edges, mids = [], []
    for i, a in enumerate(neg):
        for b in pos[::-1] if i % 2 else pos:
            (lx, ly, lz), (hx, hy, hz) = corners[min(a, b)], corners[max(a, b)]
            edges.append((lx, ly, lz, 4 * (hx - lx) + 2 * (hy - ly) + hz - lz))
            mids.append((lx + hx, ly + hy, lz + hz))
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = mids[:3]
    px, py, pz = corners[pos[0]]
    ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
    wx, wy, wz = 2 * px - ax, 2 * py - ay, 2 * pz - az
    up = ux * (vy * wz - vz * wy) - uy * (vx * wz - vz * wx) + uz * (vx * wy - vy * wx) > 0
    fan = range(1, len(edges) - 1)
    return edges, [(0, k, k + 1) if up else (0, k + 1, k) for k in fan]


# The case table, indexed by case = 16 * path + mask, with its rows padded and
# flattened: the numbers of crossed edges and of triangles; the lower corner
# (code 4x + 2y + z) and direction code of crossed edge ``rank``, at
# ``4 * case + rank``; and triangle ``rank``, at ``2 * case + rank``, as intp
# use indices so that gathering by them makes no index copy.  Masks 0 and 15
# have no crossing and an empty entry.
_CASES = [_tet_case(c, m) if 0 < m < 15 else ([], []) for c in _TET_PATHS for m in range(16)]
_CASE_SIZES = np.array([(len(edges), len(tris)) for edges, tris in _CASES], np.int8)
_CASE_EDGES = np.array(
    [edge for edges, _ in _CASES for edge in edges + [(0, 0, 0, 0)] * (4 - len(edges))], np.int32
)
_CASE_CORNERS = _CASE_EDGES[:, :3] @ np.array([4, 2, 1], np.int32)
_CASE_AXES = _CASE_EDGES[:, 3]
_CASE_TRIS = np.array(
    [tri for _, tris in _CASES for tri in tris + [(0, 0, 0)] * (2 - len(tris))], np.intp
)

# _CUBE_CASES[cube, path]: the case of each path tetrahedron of a cell whose
# corner (x, y, z) is negative when bit 4x + 2y + z of ``cube`` is set.
_BITS = np.array([[4 * x + 2 * y + z for x, y, z in corners] for corners in _TET_PATHS])
_NEG = np.arange(256)[:, None, None] >> _BITS & 1  # [cube, path, k]: corner k is negative
_CUBE_CASES = (16 * np.arange(6) + (_NEG << np.arange(4)).sum(axis=2)).astype(np.int8)


def _sample_field(n: int) -> np.ndarray:
    """Sample values scaled by (2n)^2, as the difference of squared distances.

    Coordinates are integers c = 2*p + 1 over denominator 2*n; spine A
    circles sit at coordinate 0 and spine B circles at n.  The squared
    distance to a spine is the least sum of two squared periodic offsets.
    Values obey |g| <= 2n^2, so int32 holds them.
    """
    c = 2 * np.arange(n, dtype=np.int32) + 1
    near = []
    for spine in (0, n):
        m = (c - spine) % (2 * n)
        d = np.minimum(m, 2 * n - m) ** 2
        x, y, z = d[:, None, None], d[None, :, None], d[None, None, :]
        near.append(np.minimum(x + y, x + z))
        np.minimum(near[-1], y + z, out=near[-1])
    near[0] -= near[1]
    return near[0]


class ExactRows(Sequence):
    """A read-only sequence of exact rows, each built on every read: a memo
    would hold one object per row, and every reader reads a row once.  ``len``
    builds none, and a slice is a list."""

    def __init__(self, size: int, row):
        self._row, self._size = row, size

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row(k) for k in range(self._size)[i]]
        return self._row(range(self._size)[i])  # negative from the end; IndexError past it


@dataclass(eq=False)
class TriMesh:
    """Closed oriented triangle mesh over integer vertex columns.

    Vertex ``v`` is the crossing on the grid edge from the lattice corner
    ``base`` (wrapped mod n) along the 0/1 direction ``axes = (ax, ay, az)``,
    keyed ``vertex_key[v] = 8 * flat(base) + 4*ax + 2*ay + az``.  With ``glo``
    and ``ghi`` the sample values at its ends and ``d = |glo - ghi|``, its
    crossing parameter is ``t = |glo| / d`` and its wrapped coordinates are
    ``vertex_num[v] / vertex_den[v]``, over the one denominator ``2n * d``.  As
    ``|g| <= 2n^2``, ``d <= 4n^2`` and each numerator
    ``((2w + 1)*d + 2*|glo|*a) mod 2nd`` is below ``8n^3 + 4n^2`` even before
    its reduction: int64 holds it, and up to n = 512 a product of two.
    ``vertices`` (3 ``Fraction`` coordinates in [0, 1)) is the exact view of
    these columns.
    ``triangles`` is the read-only int32 ``(T, 3)`` array of oriented vertex
    indices and ``cell_array`` the read-only int16 array of each triangle's
    lattice cell, row for row; neither has a list view.  ``tri_cells`` builds
    the cell rows as a list of tuples on each read, for the benchmark tracer.
    ``edges``, the one edge table of the mesh, is built on its first read
    from the triangle array without a copy; validation, chaining and cutting
    read it.  A mesh with other triangles is a new ``TriMesh``
    (``dataclasses.replace``), with a table of its own.
    Lattice point p samples the position (p + 1/2)/n.  Triangle orientation
    points from the side nearer spine A toward the side nearer spine B.
    """

    offset_num = 1  # sample offset offset_num / offset_den of a grid step
    offset_den = 2

    resolution: int
    vertex_key: np.ndarray
    vertex_num: np.ndarray
    vertex_den: np.ndarray
    triangles: np.ndarray  # (i, j, k) vertex indices, oriented
    cell_array: np.ndarray  # the lattice cell each triangle came from

    def __post_init__(self):
        num, den = self.vertex_num, self.vertex_den

        def vertex(v):
            return tuple(Fraction(x, int(den[v])) for x in num[v].tolist())

        self.vertices = ExactRows(len(self.vertex_key), vertex)

    @property
    def tri_cells(self) -> list:
        """The rows of ``cell_array`` as tuples of Python ints, built on each
        read: only the benchmark tracer reads them."""
        return list(map(tuple, self.cell_array.tolist()))

    @cached_property
    def edges(self) -> EdgeTable:
        """The one ``EdgeTable`` of ``triangles``, built on the first read."""
        return EdgeTable(self.triangles)


class EdgeTable:
    """The undirected edges of an int array of vertex triples, as one sorted
    int64 key table; a mesh builds one from its ``triangles`` array
    (``TriMesh.edges``), and keeps it without a copy as ``tris``.

    Half-edge ``h = 3*tri + s`` runs from corner ``s`` of triangle ``tri`` to
    corner ``s + 1`` (mod 3), with key ``low * size + high`` for its vertices
    ``low < high``, in int64.  Sorted by key (``order``, an unstable sort), the
    half-edges of each edge come together, not in triangle order: edge ``e``,
    with vertices ``low[e]`` and ``high[e]`` read off the sorted keys in
    ascending key order, has half-edges ``order[start[e]:start[e] + count[e]]``.
    ``pairs`` holds the two half-edges of each edge on exactly two triangles,
    ascending, and ``neighbour[h]`` the triangle across half-edge ``h`` on such
    an edge, else -1.  ``low`` and ``high`` have the dtype of ``tris``, and the
    half-edge and edge arrays are int32, which holds every id up to ``MAX_RESOLUTION``.
    """

    def __init__(self, triangles):
        self.tris = triangles.reshape(-1, 3)
        tail, head = self.tris.ravel(), np.roll(self.tris, -1, axis=1).ravel()
        size = int(self.tris.max(initial=0)) + 1
        self.ascending = tail < head
        key = np.minimum(tail, head).astype(np.int64)
        key *= size
        key += np.maximum(tail, head)
        del tail, head
        self.order = np.argsort(key).astype(np.int32)
        key = key[self.order]
        first = np.ones(len(key), bool)
        first[1:] = key[1:] != key[:-1]
        self.start = np.flatnonzero(first).astype(np.int32)
        self.low, self.high = (x.astype(self.tris.dtype) for x in np.divmod(key[self.start], size))
        del key
        self.count = np.diff(self.start, append=np.int32(len(self.order)))
        inner = self.start[self.count == 2]
        a, b = self.order[inner], self.order[inner + 1]
        self.pairs = np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1)
        self.neighbour = np.full(len(self.order), -1, np.int32)
        self.neighbour[a], self.neighbour[b] = b // 3, a // 3

    def report(self, n_vertices: int) -> dict:
        """Closedness, orientability and Euler characteristic, in Python values.

        Two triangles on an edge are coherently oriented when they traverse it
        in opposite directions.
        """
        up = self.ascending[self.pairs]
        return {
            "closed": bool((self.count == 2).all()),
            "orientable": bool((up[:, 0] != up[:, 1]).all()),
            "vertices": n_vertices,
            "edges": len(self.start),
            "triangles": len(self.tris),
            "euler_characteristic": n_vertices - len(self.start) + len(self.tris),
        }


def _triangulate(g: np.ndarray):
    """The zero set of the sample values ``g``, as arrays in walk order.

    Returns the active cells, each triangle's cell (an index into them) and
    vertices, and each vertex's grid-edge key.  The walk runs over the active
    cells in ``argwhere`` order, their tetrahedra in ``_TET_PATHS`` order and
    each case's triangles in table order; a vertex is numbered at the first
    use of its grid edge.  The key ``((x*n + y)*n + z)*8 + axes`` (below
    ``8n^3``) of a use is the wrapped key of the edge's lower corner, computed
    once for each corner of each active cell and read with one 1-D gather,
    plus the direction code; the case tables are read at ``4 * case + rank``
    and ``2 * case + rank``, so no use pays an integer modulo or a 2-D gather.
    An unstable sort groups the uses of each grid edge, and the least use in
    each group is its first.  Ids and keys are int32; the vertex keys are
    returned as int64.
    """
    n = len(g)
    # Bit 4x + 2y + z of cube[cell] is set when corner (x, y, z) of the cell is
    # negative.  A cell is active when its corners differ in sign: every
    # corner shares a path tetrahedron with corner (0, 0, 0).
    neg = (g < 0).astype(np.uint8)
    cube = np.zeros_like(neg)
    for c in range(8):
        cube |= np.roll(neg, (-(c >> 2), -(c >> 1 & 1), -(c & 1)), axis=(0, 1, 2)) << np.uint8(c)
    mixed = (cube != 0) & (cube != 255)
    active = np.argwhere(mixed).astype(np.int32)

    # The mixed tetrahedra as (active cell, path) slots in walk order.
    case = _CUBE_CASES[cube[mixed]].ravel()
    del neg, cube, mixed  # n^3 bytes each, freed before the per-edge arrays
    slot = np.flatnonzero(_CASE_SIZES[case, 0]).astype(np.int32)
    case, slot_cell = case[slot].astype(np.int32), slot // len(_TET_PATHS)
    del slot
    n_edges = _CASE_SIZES[case, 0]

    # The key 8 * ((x*n + y)*n + z) of each active cell's corner (a, b, c), at
    # 8 * cell + 4a + 2b + c: an upper corner at n wraps to 0.
    ends = np.stack((active, active + 1))
    ends[ends == n] = 0
    ends *= np.array([8 * n * n, 8 * n, 8], np.int32)
    x, y, z = ends.transpose(2, 1, 0)
    corner_key = (x[:, :, None, None] + y[:, None, :, None] + z[:, None, None, :]).ravel()
    del ends, x, y, z

    # Each use of a crossed grid edge reads its key with one 1-D gather.  The
    # uses of a slot are consecutive from ``offset``, so use u is rank
    # u - offset of its slot, and its table entry is 4 * case + rank.
    offset = np.cumsum(n_edges, dtype=np.int32)
    offset -= n_edges
    at = np.repeat((case << 2) - offset, n_edges)
    at += np.arange(len(at), dtype=np.int32)
    keys = np.repeat(slot_cell << 3, n_edges)
    keys += _CASE_CORNERS.take(at)
    keys = corner_key.take(keys)
    keys += _CASE_AXES.take(at)
    del at, corner_key

    # Number the vertices by first use.  The least use in each run of equal
    # sorted keys is its grid edge's first; ``is_first`` marks those, its
    # running count numbers them, and ``ids`` holds the vertex of each use.
    perm = np.argsort(keys)
    sorted_keys = keys.take(perm)
    new_run = np.empty(len(keys), bool)
    new_run[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    del sorted_keys
    starts = np.flatnonzero(new_run)
    del new_run
    first = np.minimum.reduceat(perm, starts) if len(starts) else starts  # one-sign g: no use
    is_first = np.zeros(len(keys), bool)
    is_first[first] = True
    vertex_key = keys[is_first].astype(np.int64)
    del keys
    number = np.cumsum(is_first, dtype=np.int32).take(first)
    number -= 1
    del is_first, first
    counts = np.diff(starts, append=len(perm))
    del starts
    ids = np.empty(len(perm), np.int32)
    ids[perm] = np.repeat(number, counts)
    del perm, number, counts

    # Triangle rank r of a slot is table entry 2 * case + r, over its uses.
    n_tris = _CASE_SIZES[case, 1]
    at = np.repeat((case << 1) - (np.cumsum(n_tris, dtype=np.int32) - n_tris), n_tris)
    at += np.arange(len(at), dtype=np.int32)
    tris = _CASE_TRIS.take(at, axis=0)
    del at
    tris += np.repeat(offset, n_tris)[:, None]
    return active, np.repeat(slot_cell, n_tris), ids.take(tris), vertex_key


def build_surface(n: int) -> TriMesh:
    """Extract the equidistant surface at grid resolution n (even, 8 to ``MAX_RESOLUTION``)."""
    if n % 2 != 0 or not 8 <= n <= MAX_RESOLUTION:
        raise ResolutionError(f"resolution must be even and from 8 to {MAX_RESOLUTION}, got {n}")
    g = _sample_field(n)
    if (g == 0).any():
        raise SampleOnSurfaceError(f"a sample at resolution {n} lies exactly on the surface")
    active, tri_cell, tris, vertex_key = _triangulate(g)

    # t = |glo| / d and each coordinate ((w + p/q) + t*a) / n mod 1, over 2n*d,
    # one axis at a time: w and a read off the flat lower corner and axis bits
    flat, g = vertex_key >> 3, g.ravel()
    base = [flat // (n * n), flat // n % n, flat % n]
    top = np.zeros_like(flat)  # the flat upper corner
    for axis, w in enumerate(base):
        w = w + (vertex_key >> (2 - axis) & 1)
        w[w == n] = 0  # base + axes <= n, so one subtraction wraps it
        top *= n
        top += w
    tnum = np.abs(g.take(flat)).astype(np.int64)
    d = tnum + np.abs(g.take(top))
    del flat, top
    p, q = TriMesh.offset_num, TriMesh.offset_den
    den = q * n * d
    tnum *= q
    num = np.empty((len(d), 3), np.int64)
    for axis, w in enumerate(base):
        # 0 < w < 2 * den before its reduction mod den: as |glo| <= d and p < q,
        # w <= (q*(n - 1) + p)*d + q*d < 2qnd, so one subtraction reduces it
        w = (q * w + p) * d + tnum * (vertex_key >> (2 - axis) & 1)
        num[:, axis] = np.subtract(w, den, out=w, where=w >= den)

    cell_array = active.astype(np.int16).take(tri_cell, axis=0)
    tris.flags.writeable = cell_array.flags.writeable = False
    return TriMesh(
        resolution=n,
        vertex_key=vertex_key,
        vertex_num=num,
        vertex_den=den,
        triangles=tris,
        cell_array=cell_array,
    )


def _ids(array) -> np.ndarray:
    """``array`` as an int array: in its own dtype when it has one, else int64."""
    array = np.asarray(array)
    return array if array.dtype.kind == "i" else array.astype(np.int64)


def components(n: int, pairs) -> np.ndarray:
    """Connected-component label of each of n items joined by the given pairs:
    the least item of its component.  A first pass points every item at its
    least partner.  Each round then jumps pointers to the roots, drops the
    pairs within one component so far and hooks every root to the least root
    across the rest; a component not yet one root hooks or is hooked onto, so
    the roots at least halve.  Labels are int32."""
    u, v = _ids(pairs).reshape(-1, 2).T
    label = np.arange(n, dtype=np.int32)
    np.minimum.at(label, u, v)
    np.minimum.at(label, v, u)
    while True:
        up = label[label]
        while (up != label).any():
            label, up = up, up[up]
        lu, lv = label[u], label[v]
        across = lu != lv
        if not across.any():
            return label
        u, v, lu, lv = u[across], v[across], lu[across], lv[across]
        np.minimum.at(label, lu, lv)  # labels of roots only
        np.minimum.at(label, lv, lu)


def validate_surface(mesh: TriMesh) -> dict:
    """Closedness, orientability, connectedness and Euler characteristic."""
    edges = mesh.edges
    report = edges.report(len(mesh.vertices))
    # every label is the least triangle of its component: all are 0 when connected
    connected = bool(components(len(mesh.triangles), edges.pairs // 3).max(initial=-1) == 0)
    genus = (2 - report["euler_characteristic"]) // 2 if report["closed"] and connected else None
    return {**report, "connected": connected, "genus": genus}


def export_off(mesh: TriMesh, path: str):
    coords = (mesh.vertex_num / mesh.vertex_den[:, None]).tolist()
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(coords)} {len(mesh.triangles)} 0\n")
        for v in coords:
            fh.write(" ".join(map(repr, v)) + "\n")
        for a, b, c in mesh.triangles.tolist():
            fh.write(f"3 {a} {b} {c}\n")


def load_off_counts(path: str) -> dict:
    """Re-read an OFF file and recompute its validation report.

    Only connectivity data is reconstructed (coordinates are floats in the
    file); topological validation does not need exact coordinates.
    """
    with open(path) as fh:
        if fh.readline().strip() != "OFF":
            raise ValueError("not an OFF file")
        nv, nf, _ = (int(x) for x in fh.readline().split())
        if min(nv, nf) < 0:
            raise ValueError("negative count in OFF header")
        for _ in range(nv):
            fh.readline()
        faces = [fh.readline().split() for _ in range(nf)]
    if any(len(face) < 4 or face[0] != "3" for face in faces):  # a blank line is no face
        raise ValueError("non-triangle face in OFF file")
    ids = [int(x) for face in faces for x in face[1:4]]
    if ids and not (0 <= min(ids) and max(ids) < nv):
        raise ValueError(f"face index outside the {nv} vertices of the OFF file")
    return EdgeTable(np.array(ids, np.int64)).report(nv)

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
by the edge as one int64, and is stored as three integer numerators over one
integer denominator; its exact ``Fraction`` coordinates are built only when
read.  Welding vertices by grid edge is exact, so the output is a closed,
coherently oriented manifold mesh.  Its edges are one sorted int64 key table
(``EdgeTable``), which validation, curve chaining and cutting all read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, permutations

import numpy as np

# The largest resolution whose int64 vertex arithmetic ``TriMesh`` proves exact.
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


# The case table, indexed by case = 16 * path + mask, with its rows padded:
# the numbers of crossed edges and of triangles, the edges and the triangles.
# Masks 0 and 15 have no crossing and an empty entry.
_CASES = [_tet_case(c, m) if 0 < m < 15 else ([], []) for c in _TET_PATHS for m in range(16)]
_CASE_SIZES = np.array([(len(edges), len(tris)) for edges, tris in _CASES])
_CASE_EDGES = np.array([edges + [(0, 0, 0, 0)] * (4 - len(edges)) for edges, _ in _CASES], np.int8)
_CASE_TRIS = np.array([tris + [(0, 0, 0)] * (2 - len(tris)) for _, tris in _CASES], np.int8)

# _CUBE_CASES[cube, path]: the case of each path tetrahedron of a cell whose
# corner (x, y, z) is negative when bit 4x + 2y + z of ``cube`` is set.
_BITS = np.array([[4 * x + 2 * y + z for x, y, z in corners] for corners in _TET_PATHS])
_NEG = np.arange(256)[:, None, None] >> _BITS & 1  # [cube, path, k]: corner k is negative
_CUBE_CASES = 16 * np.arange(6) + (_NEG << np.arange(4)).sum(axis=2)


def _expand(counts):
    """``(owner, rank)`` of each item, when owner ``i`` has ``counts[i]`` items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


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
    """A read-only list of exact rows, each built on its first read; ``len``
    builds none, and equality and ``repr`` are those of the plain list."""

    def __init__(self, size: int, row):
        self._row, self._rows = row, [None] * size

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        if self._rows[i] is None:
            self._rows[i] = self._row(i)
        return self._rows[i]

    def __eq__(self, other):
        return list(self) == other

    def __repr__(self):
        return repr(list(self))

    def __mul__(self, times: int) -> list:
        return list(self) * times


@dataclass(eq=False)
class TriMesh:
    """Closed oriented triangle mesh over integer vertex columns.

    Vertex ``v`` is the crossing on the grid edge from the lattice corner
    ``base`` (wrapped mod n) along the 0/1 direction ``axes = (ax, ay, az)``,
    keyed ``vertex_key[v] = 8 * flat(base) + 4*ax + 2*ay + az``.  With ``glo``
    and ``ghi`` the sample values at its ends and ``d = |glo - ghi|``, its
    crossing parameter is ``t = vertex_tnum[v] / d`` (``vertex_tnum = |glo|``)
    and its wrapped coordinates are ``vertex_num[v] / vertex_den[v]``, over
    the one denominator ``2n * d``.  As ``|g| <= 2n^2``, ``d <= 4n^2`` and each
    numerator ``((2w + 1)*d + 2*|glo|*a) mod 2nd`` is below ``8n^3 + 4n^2``
    even before its reduction: int64 holds it, and up to n = 512 a product of two.
    ``vertices`` (3 ``Fraction`` coordinates in [0, 1)) and ``vertex_edges``
    (``(base, axes, Fraction t)``) are exact views of these columns.
    Lattice point p samples the position (p + 1/2)/n.  Triangle orientation
    points from the side nearer spine A toward the side nearer spine B.
    """

    offset_num = 1  # sample offset offset_num / offset_den of a grid step
    offset_den = 2

    resolution: int
    vertex_key: np.ndarray
    vertex_num: np.ndarray
    vertex_den: np.ndarray
    vertex_tnum: np.ndarray
    triangles: list  # (i, j, k) vertex indices, oriented
    tri_cells: list  # lattice cell each triangle came from, one tuple per cell
    cell_array: np.ndarray  # tri_cells as one array

    def __post_init__(self):
        n, q = self.resolution, self.offset_den
        num, den, key, tnum = self.vertex_num, self.vertex_den, self.vertex_key, self.vertex_tnum

        def vertex(v):
            return tuple(Fraction(x, int(den[v])) for x in num[v].tolist())

        def vertex_edge(v):
            k = int(key[v])
            base = (k >> 3) // (n * n), (k >> 3) // n % n, (k >> 3) % n
            t = Fraction(q * n * int(tnum[v]), int(den[v]))
            return base, (k >> 2 & 1, k >> 1 & 1, k & 1), t

        self.vertices = ExactRows(len(key), vertex)
        self.vertex_edges = ExactRows(len(key), vertex_edge)

    def int_row(self, v: int) -> list:
        """``[x, y, z, den]`` of vertex ``v`` in Python ints."""
        return [*self.vertex_num[v].tolist(), self.vertex_den.item(v)]

    def triangle_local(self, tri_index: int) -> tuple:
        """Exact vertex coordinates of a triangle in the unwrapped frame of its cell.

        The frame of cell k spans [(k + 1/2)/n, (k + 3/2)/n] along each axis,
        which leaves [0, 1) only for k = n - 1; there a wrapped coordinate
        below 1/2 gains one period.  Computed on each call: only step
        positions and tube orientation unwrap, plane fields unwrap their one
        axis themselves and tube fields read wrapped vertices.
        """
        last = self.resolution - 1
        cell = self.tri_cells[tri_index]
        return tuple(
            tuple(
                Fraction(x + d if cell[c] == last and 2 * x < d else x, d)
                for c, x in enumerate(xyz)
            )
            for *xyz, d in map(self.int_row, self.triangles[tri_index])
        )

    @cached_property
    def edges(self) -> EdgeTable:
        """The ``EdgeTable`` of ``triangles``, built once per mesh, for readers only."""
        return EdgeTable(self.triangles)

    def shared_edge_map(self) -> dict:
        """``edge_map(self.triangles)``, a view of ``edges`` built once per mesh."""
        return self.edges.edge_map


class EdgeTable:
    """The undirected edges of a triangle list, as one sorted int64 key table.

    Half-edge ``h = 3*tri + s`` runs from corner ``s`` of triangle ``tri`` to
    corner ``s + 1`` (mod 3), with key ``low * size + high`` for its vertices
    ``low < high``.  Sorted stably by key (``order``), each edge's half-edges
    come in triangle order: edge ``e``, with vertices ``low[e]`` and ``high[e]``
    in ascending key order, has half-edges ``order[start[e]:start[e] + count[e]]``.
    ``pairs`` holds the two half-edges of each edge on exactly two triangles,
    and ``neighbour[h]`` the triangle across half-edge ``h`` on such an edge,
    else -1; ``tris`` is the triangle list as a ``(triangles, 3)`` array.
    """

    def __init__(self, triangles):
        self.tris = np.fromiter(chain.from_iterable(triangles), np.int64).reshape(-1, 3)
        tail, head = self.tris.ravel(), self.tris[:, [1, 2, 0]].ravel()
        size = int(self.tris.max(initial=0)) + 1
        key = np.ravel_multi_index((np.minimum(tail, head), np.maximum(tail, head)), (size, size))
        self.order = np.argsort(key, kind="stable")
        key = key[self.order]
        first = np.ones(len(key), bool)
        first[1:] = key[1:] != key[:-1]
        self.start = np.flatnonzero(first)
        self.low, self.high = np.divmod(key[self.start], size)
        self.count = np.diff(np.append(self.start, len(key)))
        self.ascending = tail < head
        inner = self.start[self.count == 2]
        self.pairs = np.stack((self.order[inner], self.order[inner + 1]), axis=1)
        self.neighbour = np.full(len(key), -1)
        self.neighbour[self.pairs] = self.pairs[:, ::-1] // 3

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

    @cached_property
    def edge_map(self) -> dict:
        """Undirected vertex pair (low, high) -> indices of the triangles on it."""
        tris = (self.order // 3).tolist()
        bounds = self.start.tolist() + [len(tris)]
        pairs = zip(self.low.tolist(), self.high.tolist())
        return {pair: tris[s:e] for pair, s, e in zip(pairs, bounds, bounds[1:])}


def edge_map(triangles) -> dict:
    """Undirected vertex pair (low, high) -> indices of the triangles on it."""
    return EdgeTable(triangles).edge_map


def _triangulate(g: np.ndarray):
    """The zero set of the sample values ``g``, as arrays in walk order.

    Returns the active cells, each triangle's cell (an index into them) and
    vertices, and each vertex's grid-edge key.  The walk runs over the active
    cells in ``argwhere`` order, their tetrahedra in ``_TET_PATHS`` order and
    each case's triangles in table order; a vertex is numbered at the first
    use of its grid edge.
    """
    n = len(g)
    # Bit 4x + 2y + z of cube[cell] is set when corner (x, y, z) of the cell is
    # negative.  A cell is active when its corners differ in sign: every
    # corner shares a path tetrahedron with corner (0, 0, 0).
    neg = (g < 0).astype(np.uint8)
    cube = np.zeros_like(neg)
    for c in range(8):
        cube |= np.roll(neg, (-(c >> 2), -(c >> 1 & 1), -(c & 1)), axis=(0, 1, 2)) << np.uint8(c)
    active = np.argwhere((cube != 0) & (cube != 255)).astype(np.int32)

    # The mixed tetrahedra as (active cell, path) slots in walk order, and
    # each use of a crossed grid edge, keyed by (wrapped lower corner, axes).
    case = _CUBE_CASES[cube[tuple(active.T)]].ravel()
    slot = np.flatnonzero(_CASE_SIZES[case, 0])
    case, slot_cell = case[slot], slot // len(_TET_PATHS)
    n_edges = _CASE_SIZES[case, 0]
    use_slot, use_rank = _expand(n_edges)
    use = _CASE_EDGES[case[use_slot], use_rank]
    lower = (active[slot_cell[use_slot]] + use[:, :3]) % n
    keys = np.ravel_multi_index(lower.T, g.shape) * 8 + use[:, 3]
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    number = np.empty_like(by_first)
    number[by_first] = np.arange(len(by_first))
    tri_slot, tri_rank = _expand(_CASE_SIZES[case, 1])
    local = _CASE_TRIS[case[tri_slot], tri_rank]
    tris = number[inverse][(np.cumsum(n_edges) - n_edges)[tri_slot, None] + local]
    return active, slot_cell[tri_slot], tris, unique[by_first]


def build_surface(n: int) -> TriMesh:
    """Extract the equidistant surface at grid resolution n (even, 8 to ``MAX_RESOLUTION``)."""
    if n % 2 != 0 or not 8 <= n <= MAX_RESOLUTION:
        raise ResolutionError(f"resolution must be even and from 8 to {MAX_RESOLUTION}, got {n}")
    g = _sample_field(n)
    if (g == 0).any():
        raise SampleOnSurfaceError(f"a sample at resolution {n} lies exactly on the surface")
    active, tri_cell, tris, vertex_key = _triangulate(g)

    # t = |glo| / d and each coordinate ((w + p/q) + t*a) / n mod 1, over 2n*d
    base = np.stack(np.unravel_index(vertex_key >> 3, g.shape), axis=1)
    axes = vertex_key[:, None] >> np.array([2, 1, 0]) & 1
    tnum = np.abs(g[tuple(base.T)].astype(np.int64))
    d = tnum + np.abs(g[tuple(((base + axes) % n).T)])
    p, q = TriMesh.offset_num, TriMesh.offset_den
    den = q * n * d
    num = ((q * base + p) * d[:, None] + q * tnum[:, None] * axes) % den[:, None]

    ids = list(range(len(vertex_key)))  # one int object per vertex, shared by its triangles
    cells = list(map(tuple, active.tolist()))
    return TriMesh(
        resolution=n,
        vertex_key=vertex_key,
        vertex_num=num,
        vertex_den=den,
        vertex_tnum=tnum,
        triangles=list(zip(*(map(ids.__getitem__, col) for col in tris.T.tolist()))),
        tri_cells=list(map(cells.__getitem__, tri_cell.tolist())),
        cell_array=active[tri_cell],
    )


def components(n: int, pairs) -> np.ndarray:
    """Connected-component label of each of n items joined by the given pairs:
    the least item of its component.  Each round drops the pairs within one
    component so far, hooks every root to the least root across the rest,
    then jumps pointers to the roots; a component not yet one root hooks or
    is hooked onto, so the roots at least halve."""
    u, v = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        across = lu != lv
        if not across.any():
            return label
        u, v, lu, lv = u[across], v[across], lu[across], lv[across]
        np.minimum.at(label, lu, lv)  # labels of roots only
        np.minimum.at(label, lv, lu)
        up = label[label]
        while (up != label).any():
            label, up = up, up[up]


def validate_surface(mesh: TriMesh) -> dict:
    """Closedness, orientability, connectedness and Euler characteristic."""
    edges = EdgeTable(mesh.triangles)  # afresh: the triangle list may have changed
    vars(mesh).setdefault("edges", edges)  # kept as ``mesh.edges`` if none is built yet
    report = edges.report(len(mesh.vertices))
    connected = len(np.unique(components(len(mesh.triangles), edges.pairs // 3))) == 1
    genus = (2 - report["euler_characteristic"]) // 2 if report["closed"] and connected else None
    return {**report, "connected": connected, "genus": genus}


def lookup(keys: np.ndarray, queries: np.ndarray, what: str) -> np.ndarray:
    """Index in ``keys`` (distinct) of each query; a missing query is degenerate."""
    order = np.argsort(keys)
    found = order[np.searchsorted(keys, queries, sorter=order).clip(max=len(keys) - 1)]
    missing = keys[found] != queries
    if missing.any():
        raise DegeneracyError(f"no {what} with key {int(queries[missing][0])}")
    return found


def half_translation_vertex_map(mesh: TriMesh) -> list:
    """Vertex permutation induced by translating by (1/2, 1/2, 1/2).

    The sample field changes sign under the half translation, g(x + h) =
    -g(x), and each grid edge holds at most one crossing, so the image of a
    vertex is the vertex on the translated grid edge, with the same crossing
    parameter.  Raises ``DegeneracyError`` when either fails.
    """
    n = mesh.resolution
    key = mesh.vertex_key
    base = (np.stack(np.unravel_index(key >> 3, (n, n, n))) + n // 2) % n
    image = lookup(key, np.ravel_multi_index(base, (n, n, n)) * 8 + (key & 7), "translated vertex")
    t_num, t_den = mesh.vertex_tnum, mesh.vertex_den
    if (t_num[image] * t_den != t_num * t_den[image]).any():
        raise DegeneracyError("the half translation moves a crossing parameter")
    return image.tolist()


def triangle_map(edges: EdgeTable, vmap) -> list:
    """Triangle permutation induced by the vertex permutation ``vmap``: the image
    of a triangle is the triangle on the image (a, b) of its least edge that holds
    the image c of its third vertex.  Edges are keyed ``a * len(vmap) + b``, so no
    key is a product of three vertex ids."""
    size, tris = len(vmap), edges.tris
    image = np.asarray(vmap)[tris]
    image.sort(axis=1)
    keys, query = edges.low * size + edges.high, image[:, 0] * size + image[:, 1]
    edge = np.searchsorted(keys, query).clip(max=len(keys) - 1)
    half = edges.order[edges.start[edge]]  # a half-edge on (a, b); its neighbour is across it
    on_first = (tris[half // 3] == image[:, 2:]).any(axis=1)
    found = np.where(on_first, half // 3, edges.neighbour[half])
    missing = (keys[edge] != query) | (found < 0) | ~(tris[found] == image[:, 2:]).any(axis=1)
    if missing.any():
        raise DegeneracyError(f"no triangle with vertices {image[missing][0].tolist()}")
    return found.tolist()


def export_off(mesh: TriMesh, path: str):
    coords = (mesh.vertex_num / mesh.vertex_den[:, None]).tolist()
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(coords)} {len(mesh.triangles)} 0\n")
        for v in coords:
            fh.write(" ".join(map(repr, v)) + "\n")
        for tri in mesh.triangles:
            fh.write("3 " + " ".join(str(i) for i in tri) + "\n")


def load_off_counts(path: str) -> dict:
    """Re-read an OFF file and recompute its validation report.

    Only connectivity data is reconstructed (coordinates are floats in the
    file); topological validation does not need exact coordinates.
    """
    with open(path) as fh:
        if fh.readline().strip() != "OFF":
            raise ValueError("not an OFF file")
        nv, nf, _ = (int(x) for x in fh.readline().split())
        for _ in range(nv):
            fh.readline()
        faces = [fh.readline().split() for _ in range(nf)]
    if any(face[0] != "3" or len(face) < 4 for face in faces):
        raise ValueError("non-triangle face in OFF file")
    return EdgeTable([int(x) for x in face[1:4]] for face in faces).report(nv)

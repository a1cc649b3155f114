"""PL reconstruction of the splitting surface in the flat 3-torus.

The surface is the zero set of g(x) = d^2(x, spine A) - d^2(x, spine B),
where each spine is the three axis circles through the origin (A) or through
the half-diagonal point (B), and distances are flat-torus distances.  Samples
live on the shifted grid (p + 1/2)/n, which keeps every sample off the
symmetry planes; sample values are exact integers after scaling by (2n)^2.
At resolutions with an odd factor some samples are still equidistant from
both spines, and build_surface raises SampleOnSurfaceError there.
Each grid cell is split into the six path tetrahedra sharing the main
diagonal, and the zero set is triangulated per tetrahedron from one
marching-tetrahedra case table indexed by (path, negative-corner mask).  All
crossing parameters are exact rationals, so welding vertices by grid edge is
exact and the output is a closed, coherently oriented manifold mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np


class ResolutionError(ValueError):
    pass


class SampleOnSurfaceError(RuntimeError):
    pass


# The six tetrahedra of a cell: vertex paths from (0,0,0) to (1,1,1), one per
# axis order.  Corners along a path increase componentwise with their index,
# so the lower endpoint of every tetrahedron edge is its lower-index corner.
_TET_PATHS = []
for perm in permutations((0, 1, 2)):
    corners = [(0, 0, 0)]
    cur = [0, 0, 0]
    for axis in perm:
        cur[axis] += 1
        corners.append(tuple(cur))
    _TET_PATHS.append(tuple(corners))


def _tet_case(corners, mask: int):
    """Marching-tetrahedra case: the crossed edges and triangles of a sign mask.

    Bit k of ``mask`` is set when corner k is negative.  The crossed edges,
    each (lower corner, direction), run snake-wise over the (negative,
    positive) corner pairs, which walks round the section polygon in the
    order its vertices are first numbered.  The polygon is fanned from its
    first vertex into triangles (index triples into the edges), all oriented
    so that the normal of the first, taken on the doubled edge midpoints,
    points toward the positive end of the first edge.
    """
    neg = [k for k in range(4) if mask >> k & 1]
    pos = [k for k in range(4) if not mask >> k & 1]
    edges, mids = [], []
    for i, a in enumerate(neg):
        for b in pos[::-1] if i % 2 else pos:
            (lx, ly, lz), (hx, hy, hz) = corners[min(a, b)], corners[max(a, b)]
            edges.append(((lx, ly, lz), (hx - lx, hy - ly, hz - lz)))
            mids.append((lx + hx, ly + hy, lz + hz))
    if not edges:
        return (), ()
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = mids[:3]
    px, py, pz = corners[pos[0]]
    ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
    wx, wy, wz = 2 * px - ax, 2 * py - ay, 2 * pz - az
    up = ux * (vy * wz - vz * wy) - uy * (vx * wz - vz * wx) + uz * (vx * wy - vy * wx) > 0
    fan = range(1, len(edges) - 1)
    return tuple(edges), tuple((0, k, k + 1) if up else (0, k + 1, k) for k in fan)


# _CASES[path][mask]; masks 0 and 15 have no crossing and an empty entry.
_CASES = [[_tet_case(corners, mask) for mask in range(16)] for corners in _TET_PATHS]


def _periodic_sq_tables(n: int):
    """1D tables of squared periodic offsets for the two spines.

    Coordinates are integers c = 2*p + 1 over denominator 2*n; spine A
    circles sit at coordinate 0 and spine B circles at n.
    """
    modulus = 2 * n
    c = 2 * np.arange(n, dtype=np.int64) + 1
    m0 = c % modulus
    d0 = np.minimum(m0, modulus - m0)
    mh = (c - n) % modulus
    dh = np.minimum(mh, modulus - mh)
    return d0 * d0, dh * dh


def _sample_field(n: int) -> np.ndarray:
    d0, dh = _periodic_sq_tables(n)
    x0 = d0[:, None, None]
    y0 = d0[None, :, None]
    z0 = d0[None, None, :]
    near_a = np.minimum(y0 + z0, np.minimum(x0 + z0, x0 + y0))
    xh = dh[:, None, None]
    yh = dh[None, :, None]
    zh = dh[None, None, :]
    near_b = np.minimum(yh + zh, np.minimum(xh + zh, xh + yh))
    return near_a - near_b


@dataclass
class TriMesh:
    """Closed oriented triangle mesh, each vertex stored once as exact rationals.

    Every vertex lies on a grid edge: ``vertex_edges[v] = (base, axes, t)``
    where ``base`` is the lower lattice corner (wrapped mod n), ``axes`` the
    0/1 direction vector to the upper corner and ``t`` the exact crossing
    parameter in (0,1).  Lattice point p samples the position (p + 1/2)/n.
    Triangle orientation points from the side nearer spine A toward the side
    nearer spine B.
    """

    offset_num = 1  # sample offset offset_num / offset_den of a grid step
    offset_den = 2

    resolution: int
    vertices: list  # wrapped coordinates, tuple of 3 Fractions in [0,1)
    vertex_edges: list  # (base tuple, direction tuple, Fraction t)
    triangles: list  # (i, j, k) vertex indices, oriented
    tri_cells: list  # lattice cell each triangle came from

    _cells_array: np.ndarray = field(default=None, repr=False)
    _shared_edge_map: dict = field(default=None, repr=False)

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
                w + 1 if cell[c] == last and 2 * w.numerator < w.denominator else w
                for c, w in enumerate(self.vertices[v])
            )
            for v in self.triangles[tri_index]
        )

    def cells_array(self) -> np.ndarray:
        if self._cells_array is None:
            self._cells_array = np.array(self.tri_cells, dtype=np.int64)
        return self._cells_array

    def shared_edge_map(self) -> dict:
        """``edge_map(self.triangles)`` built once per mesh, for readers only."""
        if self._shared_edge_map is None:
            self._shared_edge_map = edge_map(self.triangles)
        return self._shared_edge_map


def edge_map(triangles) -> dict:
    """Undirected vertex pair (low, high) -> indices of the triangles on it."""
    edges: dict[tuple, list] = {}
    for idx, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            edges.setdefault((u, v) if u < v else (v, u), []).append(idx)
    return edges


def _edge_counts(n_vertices: int, triangles, edges) -> dict:
    """Closedness, orientability and Euler characteristic from an edge map.

    Two triangles on an edge are coherently oriented when they traverse it in
    opposite directions.
    """

    def ascending(key, tri):
        a, b, c = triangles[tri]
        return key in ((a, b), (b, c), (c, a))

    return {
        "closed": all(len(tris) == 2 for tris in edges.values()),
        "orientable": all(
            len(tris) != 2 or ascending(key, tris[0]) != ascending(key, tris[1])
            for key, tris in edges.items()
        ),
        "vertices": n_vertices,
        "edges": len(edges),
        "triangles": len(triangles),
        "euler_characteristic": n_vertices - len(edges) + len(triangles),
    }


def build_surface(n: int) -> TriMesh:
    """Extract the equidistant surface at grid resolution n (even, >= 8)."""
    if n % 2 != 0 or n < 8:
        raise ResolutionError(f"resolution must be even and >= 8, got {n}")
    g = _sample_field(n)
    if (g == 0).any():
        raise SampleOnSurfaceError(f"a sample at resolution {n} lies exactly on the surface")

    # Bit k of masks[x, y, z, path] is set when corner k of that path
    # tetrahedron of cell (x, y, z) is negative; a cell is active when one of
    # its tetrahedra is mixed.
    neg = (g < 0).astype(np.uint8)
    masks = np.zeros(g.shape + (len(_TET_PATHS),), dtype=np.uint8)
    for path, corners in enumerate(_TET_PATHS):
        for k, d in enumerate(corners):
            masks[..., path] |= np.roll(neg, (-d[0], -d[1], -d[2]), axis=(0, 1, 2)) << k
    active = np.argwhere(((masks != 0) & (masks != 15)).any(axis=3))

    grid = g.tolist()
    vert_index: dict[tuple, int] = {}
    vertices: list[tuple] = []
    vertex_edges: list[tuple] = []
    triangles: list[tuple] = []
    tri_cells: list[tuple] = []
    p, q = TriMesh.offset_num, TriMesh.offset_den

    def crossing(lo, axes):
        """Vertex index of the crossing on the grid edge from lo along axes."""
        wrapped = (lo[0] % n, lo[1] % n, lo[2] % n)
        key = (wrapped, axes)
        idx = vert_index.get(key)
        if idx is not None:
            return idx
        glo = grid[wrapped[0]][wrapped[1]][wrapped[2]]
        ghi = grid[(lo[0] + axes[0]) % n][(lo[1] + axes[1]) % n][(lo[2] + axes[2]) % n]
        d = glo - ghi
        # ((w + p/q) + t*a) / n mod 1 with t = glo/d, as one fraction
        m = q * n * d
        idx = len(vertices)
        vert_index[key] = idx
        vertices.append(
            tuple(Fraction(((q * w + p) * d + q * glo * a) % m, m) for w, a in zip(wrapped, axes))
        )
        vertex_edges.append((wrapped, axes, Fraction(glo, d)))
        return idx

    for cell, cell_masks in zip(active.tolist(), masks[tuple(active.T)].tolist()):
        x, y, z = cell = tuple(cell)
        for cases, mask in zip(_CASES, cell_masks):
            edges, tris = cases[mask]
            ids = [crossing((x + o[0], y + o[1], z + o[2]), axes) for o, axes in edges]
            for i, j, k in tris:
                triangles.append((ids[i], ids[j], ids[k]))
                tri_cells.append(cell)

    return TriMesh(
        resolution=n,
        vertices=vertices,
        vertex_edges=vertex_edges,
        triangles=triangles,
        tri_cells=tri_cells,
    )


def components(n: int, pairs) -> list:
    """Connected-component label of each of n items joined by the given pairs."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(x) for x in range(n)]


def validate_surface(mesh: TriMesh) -> dict:
    """Closedness, orientability, connectedness and Euler characteristic."""
    edges = edge_map(mesh.triangles)  # afresh: the triangle list may have changed
    counts = _edge_counts(len(mesh.vertices), mesh.triangles, edges)
    pairs = (tris for tris in edges.values() if len(tris) == 2)
    connected = len(set(components(len(mesh.triangles), pairs))) == 1
    closed, oriented = counts.pop("closed"), counts.pop("orientable")
    genus = (2 - counts["euler_characteristic"]) // 2 if closed and connected else None
    return {
        "closed": closed,
        "orientable": oriented,
        "connected": connected,
        **counts,
        "genus": genus,
    }


def half_translation_vertex_map(mesh: TriMesh) -> list:
    """Vertex permutation induced by translating by (1/2, 1/2, 1/2).

    The sample field changes sign under the half translation, so crossing
    parameters are preserved and the translated vertex set is the vertex set.
    """
    n = mesh.resolution
    h = n // 2
    index = {}
    for v, (base, axes, t) in enumerate(mesh.vertex_edges):
        index[(base, axes, t)] = v
    out = []
    for base, axes, t in mesh.vertex_edges:
        shifted = tuple((b + h) % n for b in base)
        out.append(index[(shifted, axes, t)])
    return out


def export_off(mesh: TriMesh, path: str):
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for v in mesh.vertices:
            fh.write(" ".join(repr(float(c)) for c in v) + "\n")
        for tri in mesh.triangles:
            fh.write("3 " + " ".join(str(i) for i in tri) + "\n")


def load_off_counts(path: str) -> dict:
    """Re-read an OFF file and recompute its validation report.

    Only connectivity data is reconstructed (coordinates are floats in the
    file); topological validation does not need exact coordinates.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "OFF":
            raise ValueError("not an OFF file")
        nv, nf, _ = (int(x) for x in fh.readline().split())
        for _ in range(nv):
            fh.readline()
        tris = []
        for _ in range(nf):
            parts = fh.readline().split()
            if parts[0] != "3":
                raise ValueError("non-triangle face in OFF file")
            tris.append(tuple(int(x) for x in parts[1:4]))
    return _edge_counts(nv, tris, edge_map(tris))

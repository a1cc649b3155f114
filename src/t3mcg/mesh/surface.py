"""PL reconstruction of the splitting surface in the flat 3-torus.

The surface is the zero set of g(x) = d^2(x, spine A) - d^2(x, spine B),
where each spine is the three axis circles through the origin (A) or through
the half-diagonal point (B), and distances are flat-torus distances.  Samples
live on the shifted grid (p + 1/2)/n, which keeps every sample off the
symmetry planes; sample values are exact integers after scaling by (2n)^2.
Each grid cell is split into the six path tetrahedra sharing the main
diagonal, and the zero set is triangulated per tetrahedron.  All crossing
parameters are exact rationals, so welding vertices by grid edge is exact and
the output is a closed, coherently oriented manifold mesh.
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
# axis order.  Corners along a path are componentwise comparable, so every
# tetrahedron edge has a well-defined lower endpoint.
_TET_PATHS = []
for perm in permutations((0, 1, 2)):
    corners = [(0, 0, 0)]
    cur = [0, 0, 0]
    for axis in perm:
        cur[axis] += 1
        corners.append(tuple(cur))
    parity = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
    _TET_PATHS.append((tuple(corners), parity))


def _periodic_sq_tables(n: int, q: int):
    """1D tables of squared periodic offsets for the two spines.

    Coordinates are integers c = q*p + (q-1) over denominator q*n; spine A
    circles sit at coordinate 0 and spine B circles at q*n/2.
    """
    modulus = q * n
    c = q * np.arange(n, dtype=np.int64) + (q - 1)
    m0 = c % modulus
    d0 = np.minimum(m0, modulus - m0)
    mh = (c - modulus // 2) % modulus
    dh = np.minimum(mh, modulus - mh)
    return d0 * d0, dh * dh


def _sample_field(n: int, q: int) -> np.ndarray:
    d0, dh = _periodic_sq_tables(n, q)
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
    """Closed oriented triangle mesh with exact rational vertices.

    Every vertex lies on a grid edge: ``vertex_edges[v] = (base, axes, t)``
    where ``base`` is the lower lattice corner (wrapped mod n), ``axes`` the
    0/1 direction vector to the upper corner and ``t`` the exact crossing
    parameter in (0,1).  Triangle orientation points from the side nearer
    spine A toward the side nearer spine B.
    """

    resolution: int
    offset_num: int  # sample offset = offset_num / offset_den, 1/2 or 3/4
    offset_den: int
    vertices: list  # wrapped coordinates, tuple of 3 Fractions in [0,1)
    vertex_edges: list  # (base tuple, direction tuple, Fraction t)
    vertex_raw: list  # coordinates relative to the base lattice point's cell
    triangles: list  # (i, j, k) vertex indices, oriented
    tri_cells: list  # lattice cell each triangle came from

    _local_cache: dict = field(default_factory=dict, repr=False)
    _cells_array: np.ndarray = field(default=None, repr=False)
    _shared_edge_map: dict = field(default=None, repr=False)

    def vertex_local(self, v: int, cell) -> tuple:
        """Exact coordinates of vertex v in the unwrapped frame of a cell.

        The cell must be one of the (at most four) cells whose closure holds
        the vertex's edge; the base lattice point then sits either inside the
        cell's index range or exactly one period below it.
        """
        n = self.resolution
        base = self.vertex_edges[v][0]
        raw = self.vertex_raw[v]
        coords = []
        for c in range(3):
            k = (cell[c] + ((base[c] - cell[c]) % n) - base[c]) // n
            coords.append(raw[c] + k if k else raw[c])
        return tuple(coords)

    def triangle_local(self, tri_index: int) -> tuple:
        cached = self._local_cache.get(tri_index)
        if cached is None:
            cell = self.tri_cells[tri_index]
            cached = tuple(self.vertex_local(v, cell) for v in self.triangles[tri_index])
            self._local_cache[tri_index] = cached
        return cached

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


def build_surface(n: int, _retry: bool = False) -> TriMesh:
    """Extract the equidistant surface at grid resolution n (even, >= 8)."""
    if n % 2 != 0 or n < 8:
        raise ResolutionError(f"resolution must be even and >= 8, got {n}")
    q = 4 if _retry else 2
    g = _sample_field(n, q)
    if (g == 0).any():
        if _retry:
            raise SampleOnSurfaceError(
                "sample hit the surface exactly even after offset perturbation"
            )
        return build_surface(n, _retry=True)

    signs = g > 0
    # Cells whose 8 corners do not all agree carry surface.
    corner_all = np.ones_like(signs)
    corner_any = np.zeros_like(signs)
    for dx in (0, 1):
        sx = np.roll(signs, -dx, axis=0)
        for dy in (0, 1):
            sy = np.roll(sx, -dy, axis=1)
            for dz in (0, 1):
                sz = np.roll(sy, -dz, axis=2)
                corner_all &= sz
                corner_any |= sz
    active = np.argwhere(corner_all != corner_any)

    gval = {}

    def sample(p):
        w = (p[0] % n, p[1] % n, p[2] % n)
        v = gval.get(w)
        if v is None:
            v = int(g[w])
            gval[w] = v
        return v

    vert_index: dict[tuple, int] = {}
    vertices: list[tuple] = []
    vertex_edges: list[tuple] = []
    vertex_raw: list[tuple] = []
    triangles: list[tuple] = []
    tri_cells: list[tuple] = []
    offset_num, offset_den = (q - 1), q
    off = Fraction(offset_num, offset_den)

    def crossing(pa, pb):
        """Vertex index of the crossing on the edge between lattice points."""
        lo = tuple(min(a, b) for a, b in zip(pa, pb))
        hi = tuple(max(a, b) for a, b in zip(pa, pb))
        axes = tuple(h - l for l, h in zip(lo, hi))
        wrapped = (lo[0] % n, lo[1] % n, lo[2] % n)
        key = (wrapped, axes)
        idx = vert_index.get(key)
        if idx is not None:
            return idx
        glo, ghi = sample(lo), sample(hi)
        t = Fraction(glo, glo - ghi)
        raw = tuple((wrapped[c] + off + t * axes[c]) / n for c in range(3))
        idx = len(vertices)
        vert_index[key] = idx
        vertices.append(tuple(r % 1 for r in raw))
        vertex_edges.append((wrapped, axes, t))
        vertex_raw.append(raw)
        return idx

    def emit(tri, cell):
        triangles.append(tri)
        tri_cells.append(cell)

    for cell_arr in active:
        cell = (int(cell_arr[0]), int(cell_arr[1]), int(cell_arr[2]))
        for corners, parity in _TET_PATHS:
            pts = [tuple(cell[c] + d[c] for c in range(3)) for d in corners]
            vals = [sample(p) for p in pts]
            neg = [k for k in range(4) if vals[k] < 0]
            if len(neg) in (0, 4):
                continue
            if len(neg) in (1, 3):
                isolated = neg[0] if len(neg) == 1 else [k for k in range(4) if vals[k] > 0][0]
                rest = [k for k in range(4) if k != isolated]
                # parity of moving the isolated vertex to the front
                s = parity * (1 if isolated % 2 == 0 else -1)
                a = pts[isolated]
                pab, pac, pad = (crossing(a, pts[r]) for r in rest)
                # normals point toward positive side: away from a negative
                # isolated vertex, toward a positive one
                want_away = len(neg) == 1
                if (s > 0) == want_away:
                    emit((pab, pac, pad), cell)
                else:
                    emit((pab, pad, pac), cell)
            else:
                na, nb = neg
                pa_, pb_ = [k for k in range(4) if vals[k] >= 0]
                # parity of the permutation (na, nb, pa_, pb_) of (0,1,2,3)
                order = (na, nb, pa_, pb_)
                inv = sum(
                    1
                    for x in range(4)
                    for y in range(x + 1, 4)
                    if order[x] > order[y]
                )
                s = parity * (1 if inv % 2 == 0 else -1)
                q1 = crossing(pts[na], pts[pa_])
                q2 = crossing(pts[na], pts[pb_])
                q3 = crossing(pts[nb], pts[pb_])
                q4 = crossing(pts[nb], pts[pa_])
                if s > 0:
                    emit((q1, q2, q3), cell)
                    emit((q1, q3, q4), cell)
                else:
                    emit((q1, q3, q2), cell)
                    emit((q1, q4, q3), cell)

    return TriMesh(
        resolution=n,
        offset_num=offset_num,
        offset_den=offset_den,
        vertices=vertices,
        vertex_edges=vertex_edges,
        vertex_raw=vertex_raw,
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

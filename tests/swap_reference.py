"""Whole-mesh reference for the half translation: the vertex and triangle
permutations it induces, and the swap matrix pushed forward through them.

``rep6.derive_swap6`` maps only the six generator loops; these maps check, on
every vertex and triangle, the invariance its match relies on.
"""

import numpy as np

from mesh_reference import class_of_steps, crossing_numerators
from t3mcg.mesh.curves import Steps
from t3mcg.rep3 import mat_mul, transpose
from t3mcg.mesh.surface import DegeneracyError, EdgeTable, TriMesh


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
    t_num, t_den = crossing_numerators(mesh), mesh.vertex_den
    if (t_num[image] * t_den != t_num * t_den[image]).any():
        raise DegeneracyError("the half translation moves a crossing parameter")
    return image.tolist()


def triangle_map(edges: EdgeTable, vmap) -> list:
    """Triangle permutation induced by the vertex permutation ``vmap``: the image
    of a triangle is the triangle on the image (a, b) of its least edge that holds
    the image c of its third vertex.  Edges are keyed ``a * len(vmap) + b`` in
    int64, whatever the dtype of the ids, so no key is a product of three ids."""
    assert (edges.count == 2).all(), "mesh is not closed"  # so edge e is row e of pairs
    size, tris = len(vmap), edges.tris
    image = np.asarray(vmap, np.int64)[tris]
    image.sort(axis=1)
    keys = edges.low.astype(np.int64) * size + edges.high
    query = image[:, 0] * size + image[:, 1]
    edge = np.searchsorted(keys, query).clip(max=len(keys) - 1)
    half = edges.pairs[edge, 0]  # a half-edge on (a, b); its neighbour is across it
    on_first = (tris[half // 3] == image[:, 2:]).any(axis=1)
    found = np.where(on_first, half // 3, edges.neighbour[half])
    missing = (keys[edge] != query) | (found < 0) | ~(tris[found] == image[:, 2:]).any(axis=1)
    if missing.any():
        raise DegeneracyError(f"no triangle with vertices {image[missing][0].tolist()}")
    return found.tolist()


def reference_swap6(h):
    """The swap matrix with every generator loop pushed through the whole-mesh
    vertex and triangle permutations, then read off by its six generator walks."""
    vmap = half_translation_vertex_map(h.mesh)
    tmap, vmap = np.asarray(triangle_map(h.mesh.edges, vmap)), np.asarray(vmap)
    cols = []
    for ref in list(h.disk_sections_a) + list(h.longitudes):
        steps, ends = ref.loop.steps, ref.loop.steps.ends.copy()
        ends[:, :, :2] = vmap[ends[:, :, :2].astype(np.int64)]
        cols.append(class_of_steps(h, Steps(tmap[steps.tri], ends), ref.loop.orientation_sign))
    return mat_mul(transpose(tuple(cols)), h.basis_change)

import dataclasses
from itertools import accumulate

import numpy as np
import pytest

from t3mcg.mesh import (
    ResolutionError,
    build_surface,
    export_off,
    load_off_counts,
    validate_surface,
)
from t3mcg.mesh.surface import EdgeTable
from mesh_reference import ambient_side, crossing_numerators, triangle_local, vertex_edges
from swap_reference import half_translation_vertex_map


class TestBuild:
    def test_rejects_odd_or_tiny_resolution(self):
        with pytest.raises(ResolutionError):
            build_surface(7)
        with pytest.raises(ResolutionError):
            build_surface(6)

    def test_reports_unavoidable_sample_hits(self):
        # resolutions with an odd factor place samples exactly on the surface
        # (swapped transverse distance pairs), even after the offset retry
        from t3mcg.mesh import SampleOnSurfaceError

        with pytest.raises(SampleOnSurfaceError):
            build_surface(20)

    def test_topology_n16(self, mesh16):
        report = validate_surface(mesh16)
        assert report["closed"]
        assert report["orientable"]
        assert report["connected"]
        assert report["euler_characteristic"] == -4
        assert report["genus"] == 3

    def test_topology_report_resolution_independent(self, mesh16, mesh32):
        keys = ("closed", "orientable", "connected", "euler_characteristic", "genus")
        r16 = validate_surface(mesh16)
        r32 = validate_surface(mesh32)
        assert {k: r16[k] for k in keys} == {k: r32[k] for k in keys}

    def test_refinement_grows_triangle_count(self, mesh16, mesh32):
        assert len(mesh32.triangles) >= 4 * len(mesh16.triangles)

    def test_all_samples_off_surface(self, mesh16):
        # offset sampling worked on the first try: denominators stayed at 2n
        assert (mesh16.offset_num, mesh16.offset_den) == (1, 2)

    def test_vertices_in_unit_cube(self, mesh16):
        for v in mesh16.vertices:
            assert all(0 <= c < 1 for c in v)

    def test_crossing_parameters_interior(self, mesh16):
        for _, _, t in vertex_edges(mesh16):
            assert 0 < t < 1


class TestMeshDigest:
    # vertex numbering, triangle order and exact coordinates, pinned
    @pytest.mark.parametrize(
        "mesh_name, digest",
        [
            ("mesh16", "138f091b17e078028a2035ea0f1a6f9678652339d1364e5e64f390e795bd7139"),
            ("mesh32", "cad12f3e04085ab7e6e4584106f69c2b65cdb9c6e2ef3d02ca50f68f1cbb49c7"),
        ],
        ids=["n16", "n32"],
    )
    def test_mesh_matches_pinned_digest(self, mesh_name, digest, request):
        import hashlib

        m = request.getfixturevalue(mesh_name)
        tris = [tuple(row) for row in m.triangles.tolist()]
        text = repr((list(m.vertices), vertex_edges(m), tris, m.tri_cells))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestHalfTranslation:
    def test_vertex_permutation_exists(self, mesh16):
        vmap = half_translation_vertex_map(mesh16)
        assert sorted(vmap) == list(range(len(mesh16.vertices)))

    def test_triangle_set_preserved_orientation_reversed(self, mesh16):
        vmap = half_translation_vertex_map(mesh16)

        def canon(tri):
            i = tri.index(min(tri))
            return tri[i:] + tri[:i]

        tris = list(map(tuple, mesh16.triangles.tolist()))
        oriented = {canon(t) for t in tris}
        for tri in tris:
            image = canon(tuple(vmap[v] for v in tri))
            assert image not in oriented
            assert (image[0], image[2], image[1]) in oriented


class TestOrientationConvention:
    def test_normals_point_from_origin_side_to_shifted_side(self, mesh16):
        # probe a step along each triangle normal: behind must be nearer the
        # origin spine, in front nearer the shifted spine
        from fractions import Fraction

        for tri_index in range(0, len(mesh16.triangles), 251):
            pts = triangle_local(mesh16, tri_index)
            centroid = tuple(sum(p[c] for p in pts) / 3 for c in range(3))
            e1 = tuple(pts[1][c] - pts[0][c] for c in range(3))
            e2 = tuple(pts[2][c] - pts[0][c] for c in range(3))
            normal = (
                e1[1] * e2[2] - e1[2] * e2[1],
                e1[2] * e2[0] - e1[0] * e2[2],
                e1[0] * e2[1] - e1[1] * e2[0],
            )
            scale = Fraction(1, 6 * mesh16.resolution) / max(abs(x) for x in normal)
            front = tuple(c + scale * n for c, n in zip(centroid, normal))
            back = tuple(c - scale * n for c, n in zip(centroid, normal))
            assert ambient_side(front) == 1
            assert ambient_side(back) == -1


class TestTriangleFrame:
    @pytest.mark.parametrize("mesh_name", ["mesh16", "mesh32"])
    def test_local_coordinates_unwrap_into_the_cell(self, mesh_name, request, frames):
        # each local coordinate is its wrapped vertex coordinate plus a whole
        # period, inside the sample cube [(2k+1)/2n, (2k+3)/2n] of cell k
        from fractions import Fraction

        mesh = request.getfixturevalue(mesh_name)
        n = mesh.resolution
        rows = zip(mesh.triangles.tolist(), mesh.cell_array.tolist(), frames(mesh_name))
        for tri, cell, corners in rows:
            for v, local in zip(tri, corners):
                row = mesh.vertices[v]
                for c in range(3):
                    assert local[c] % 1 == row[c]
                    lo = Fraction(2 * cell[c] + 1, 2 * n)
                    assert lo <= local[c] <= lo + Fraction(1, n)


class TestNegativeControls:
    def test_deleted_triangle_not_closed(self, mesh16):
        report = validate_surface(_variant(mesh16, "deleted"))
        assert not report["closed"]

    def test_flipped_triangle_not_orientable(self, mesh16):
        report = validate_surface(_variant(mesh16, "flipped"))
        assert report["closed"]
        assert not report["orientable"]


class TestOffExport:
    def test_n16_file_matches_pinned_digest(self, mesh16, tmp_path):
        # vertex lines are repr of each float coordinate, face lines "3 a b c"
        import hashlib

        path = tmp_path / "surface.off"
        export_off(mesh16, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "776399cf0fa08973b00af56dfdef04399b6fdad07e472f80d1d88005e2be52c7"
        )

    def test_roundtrip(self, mesh16, tmp_path):
        path = str(tmp_path / "surface.off")
        export_off(mesh16, path)
        report = load_off_counts(path)
        direct = validate_surface(mesh16)
        for key in ("closed", "orientable", "vertices", "edges", "triangles",
                    "euler_characteristic"):
            assert report[key] == direct[key]


class TestComponents:
    def test_labels_follow_pairs(self):
        from t3mcg.mesh.surface import components

        labels = components(5, [(0, 1), (3, 4)])
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert len({labels[0], labels[2], labels[3]}) == 3

    def test_two_disjoint_copies_are_not_connected(self, mesh16):
        report = validate_surface(_variant(mesh16, "two-copies"))
        assert report["closed"] and report["orientable"]
        assert not report["connected"]
        assert report["euler_characteristic"] == -8
        assert report["genus"] is None

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("seed", range(6))
    def test_labels_equal_union_find(self, seed, dtype):
        # sparse graphs leave items isolated; pairs repeat and join items to themselves
        from t3mcg.mesh.surface import components

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        pairs = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
        pairs = np.concatenate((pairs, pairs[: len(pairs) // 4], np.repeat(pairs[:3, :1], 2, 1)))
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in pairs.tolist():
            ru, rv = find(u), find(v)
            parent[max(ru, rv)] = min(ru, rv)  # every root is the least item of its set
        labels = components(n, pairs.astype(dtype))
        assert labels.dtype == np.int32
        assert labels.tolist() == [find(x) for x in range(n)]
        assert components(n, pairs[:0].astype(dtype)).tolist() == list(range(n))


# ---------------------------------------------------------------------------
# The edge table against a dict-based reference validation.
# ---------------------------------------------------------------------------


def reference_edge_map(triangles):
    edges = {}
    for idx, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            edges.setdefault((u, v) if u < v else (v, u), []).append(idx)
    return edges


def reference_counts(n_vertices, triangles):
    edges = reference_edge_map(triangles)

    def ascending(key, tri):
        a, b, c = triangles[tri]
        return key in ((a, b), (b, c), (c, a))

    return edges, {
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


def reference_validate(mesh):
    edges, counts = reference_counts(len(mesh.vertices), mesh.triangles.tolist())
    parent = list(range(len(mesh.triangles)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for tris in edges.values():
        if len(tris) == 2:
            parent[find(tris[0])] = find(tris[1])
    connected = len({find(x) for x in range(len(parent))}) == 1
    closed = counts["closed"]
    genus = (2 - counts["euler_characteristic"]) // 2 if closed and connected else None
    return {**counts, "connected": connected, "genus": genus}


def _variant(mesh16, name):
    """A new mesh from ``mesh16``'s arrays with its triangles changed; only
    "two-copies" changes the vertices, and no variant changes the cells."""
    tris = mesh16.triangles
    a, b, _ = tris[0].tolist()
    if name == "intact":
        return mesh16
    if name == "two-copies":
        return dataclasses.replace(
            mesh16,
            vertex_key=np.tile(mesh16.vertex_key, 2),
            vertex_num=np.tile(mesh16.vertex_num, (2, 1)),
            vertex_den=np.tile(mesh16.vertex_den, 2),
            triangles=np.concatenate((tris, tris + np.int32(len(mesh16.vertices)))),
        )
    if name == "deleted":
        tris = tris[:-1]
    elif name == "flipped":
        tris = np.concatenate((tris[:1, [0, 2, 1]], tris[1:]))
    elif name == "listed-twice":  # its edges lie on three triangles
        tris = np.concatenate((tris, tris[:1]))
    elif name == "edge-on-four":  # two neighbours listed twice
        other = next(t for t in reference_edge_map(tris.tolist())[(min(a, b), max(a, b))] if t)
        tris = np.concatenate((tris, tris[[0, other]]))
    elif name == "empty":
        tris = tris[:0]
    return dataclasses.replace(mesh16, triangles=tris)


def reference_edge_table(triangles):
    """The edge table's columns from a dict of each edge's half-edges, in
    ascending key order and each edge's half-edges ascending."""
    halves = {}
    for h, (u, v) in enumerate((t[s], t[(s + 1) % 3]) for t in triangles for s in range(3)):
        halves.setdefault((min(u, v), max(u, v)), []).append(h)
    keys = sorted(halves)
    count = [len(halves[k]) for k in keys]
    pairs = [halves[k] for k in keys if len(halves[k]) == 2]
    neighbour = [-1] * (3 * len(triangles))
    for a, b in pairs:
        neighbour[a], neighbour[b] = b // 3, a // 3
    return {
        "low": [k[0] for k in keys],
        "high": [k[1] for k in keys],
        "start": list(accumulate(count, initial=0))[:-1],
        "count": count,
        "pairs": pairs,
        "neighbour": neighbour,
    }


class TestEdgeTableReference:
    @pytest.mark.parametrize(
        "name", ["mesh8", "mesh16", "deleted", "listed-twice", "edge-on-four", "empty"]
    )
    def test_columns_equal_dict_reference(self, request, mesh16, name):
        mesh = request.getfixturevalue(name) if name.startswith("mesh") else _variant(mesh16, name)
        table, triangles = EdgeTable(mesh.triangles), mesh.triangles.tolist()
        expected = reference_edge_table(triangles)
        for column, value in expected.items():
            assert getattr(table, column).tolist() == value, column
        assert (table.pairs[:, 0] < table.pairs[:, 1]).all()
        ascending = [t[s] < t[(s + 1) % 3] for t in triangles for s in range(3)]
        assert table.ascending.tolist() == ascending


class TestValidationReference:
    @pytest.mark.parametrize(
        "name",
        ["intact", "deleted", "flipped", "listed-twice", "edge-on-four", "two-copies", "empty"],
    )
    def test_report_equals_dict_reference(self, mesh16, name):
        mesh = _variant(mesh16, name)
        report = validate_surface(mesh)
        expected = reference_validate(mesh)
        assert sorted(report) == sorted(expected)
        for key, value in expected.items():
            assert report[key] == value, key
        # plain Python values, so JSON reports cannot drift to numpy scalars
        assert all(type(v) in (bool, int, type(None)) for v in report.values())

    def test_edge_cases_read_as_before(self, mesh16):
        empty = validate_surface(_variant(mesh16, "empty"))
        assert empty["closed"] and empty["orientable"]
        assert not empty["connected"] and empty["genus"] is None
        for name in ("listed-twice", "edge-on-four"):
            assert not validate_surface(_variant(mesh16, name))["closed"]
        four = reference_edge_map(_variant(mesh16, "edge-on-four").triangles.tolist())
        assert 4 in map(len, four.values())

    def test_off_counts_equal_reference(self, mesh16, tmp_path):
        path = str(tmp_path / "surface.off")
        export_off(mesh16, path)
        report = load_off_counts(path)
        _, expected = reference_counts(len(mesh16.vertices), mesh16.triangles.tolist())
        assert report == expected
        assert all(type(v) in (bool, int) for v in report.values())

    def test_off_face_with_two_corners_is_refused(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1\n")
        with pytest.raises(ValueError, match="non-triangle"):
            load_off_counts(str(path))

    @pytest.mark.parametrize("faces", ["3 0 1 2\n\n", "3 0 1 2\n"], ids=["blank", "truncated"])
    def test_off_missing_face_line_is_refused(self, tmp_path, faces):
        path = tmp_path / "missing.off"
        path.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n" + faces)
        with pytest.raises(ValueError, match="non-triangle"):
            load_off_counts(str(path))

    @pytest.mark.parametrize("face", ["3 0 1 7", "3 0 1 3", "3 -1 0 1"])
    def test_off_face_index_outside_the_vertices_is_refused(self, tmp_path, face):
        path = tmp_path / "outside.off"
        path.write_text(f"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n{face}\n")
        with pytest.raises(ValueError, match="outside the 3 vertices"):
            load_off_counts(str(path))

    @pytest.mark.parametrize("counts", ["-3 0 0", "0 -1 0"])
    def test_off_negative_count_is_refused(self, tmp_path, counts):
        path = tmp_path / "negative.off"
        path.write_text(f"OFF\n{counts}\n")
        with pytest.raises(ValueError, match="negative count"):
            load_off_counts(str(path))

    def test_one_edge_table_serves_validation_and_slicing(self, monkeypatch):
        from fractions import Fraction

        from t3mcg.mesh.curves import plane_section

        built, init = [], EdgeTable.__init__

        def counted(self, triangles):
            built.append(self)
            init(self, triangles)

        monkeypatch.setattr(EdgeTable, "__init__", counted)
        mesh = build_surface(8)
        table = mesh.edges
        assert validate_surface(mesh)["genus"] == 3
        assert plane_section(mesh, 1, Fraction(1, 2)).loops
        assert built == [table] and mesh.edges is table

    def test_edge_on_four_triangles_stops_a_chain(self):
        from fractions import Fraction

        from t3mcg.mesh.curves import DegeneracyError, PlaneField, slice_field

        mesh = build_surface(8)
        fld = PlaneField(0, Fraction(1, 2))
        first = min(slice_field(mesh, fld).tri_segments)
        mesh = dataclasses.replace(
            mesh,
            triangles=np.concatenate((mesh.triangles, mesh.triangles[[first]])),
            cell_array=np.concatenate((mesh.cell_array, mesh.cell_array[[first]])),
        )
        with pytest.raises(DegeneracyError, match="not interior"):
            slice_field(mesh, fld)


# ---------------------------------------------------------------------------
# The bulk triangulation against a walk in Python, and large-mesh digests.
# ---------------------------------------------------------------------------


def reference_triangulation(g):
    """The walk ``_triangulate`` runs, one cell, tetrahedron and grid edge at a time.

    Cells in ``argwhere`` order, paths in ``_TET_PATHS`` order, each case's
    edges and triangles from ``_CASES``; a vertex is numbered at the first
    use of its grid edge, keyed by its wrapped lower corner and direction.
    """
    from itertools import product

    from t3mcg.mesh.surface import _CASES, _TET_PATHS

    n = len(g)
    active, tri_cell, tris, number = [], [], [], {}
    for x, y, z in product(range(n), repeat=3):
        negative = {
            c: bool(g[(x + c[0]) % n, (y + c[1]) % n, (z + c[2]) % n] < 0)
            for c in product((0, 1), repeat=3)
        }
        if len(set(negative.values())) == 1:
            continue
        for path, corners in enumerate(_TET_PATHS):
            mask = sum(1 << k for k, c in enumerate(corners) if negative[c])
            edges, triangles = _CASES[16 * path + mask]
            ids = []
            for lx, ly, lz, axes in edges:
                key = ((((x + lx) % n) * n + (y + ly) % n) * n + (z + lz) % n) * 8 + axes
                ids.append(number.setdefault(key, len(number)))
            for tri in triangles:
                tris.append([ids[i] for i in tri])
                tri_cell.append(len(active))
        active.append([x, y, z])
    return active, tri_cell, tris, list(number)


class TestTriangulateReference:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_random_fields_match_the_python_walk(self, n):
        from t3mcg.mesh.surface import _triangulate

        rng = np.random.default_rng(1000 + n)
        g = (rng.integers(1, 50, (n, n, n)) * rng.choice([-1, 1], (n, n, n))).astype(np.int32)
        active, tri_cell, tris, keys = reference_triangulation(g)
        assert max(max(cell) for cell in active) == n - 1  # some corner wraps at n
        got = _triangulate(g)
        assert [a.dtype for a in got] == [np.int32, np.int32, np.int32, np.int64]
        assert got[0].shape == (len(active), 3) and got[2].shape == (len(tris), 3)
        assert got[0].tolist() == active
        assert got[1].tolist() == tri_cell
        assert got[2].tolist() == tris
        assert got[3].tolist() == keys

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_sign_field_gives_empty_arrays(self, sign):
        from t3mcg.mesh.surface import _triangulate

        got = _triangulate(np.full((4, 4, 4), sign, np.int32))
        assert [(a.dtype, a.shape) for a in got] == [
            (np.int32, (0, 3)),
            (np.int32, (0,)),
            (np.int32, (0, 3)),
            (np.int64, (0,)),
        ]
        assert reference_triangulation(np.full((4, 4, 4), sign)) == ([], [], [], [])

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "n, digests",
        [
            (128, {
                "vertex_key": "914264e8c2c731a60d1e6f2c1f96abfc56f347137fbe199d97c41a3e07488e61",
                "vertex_num": "eb0738ca14cb4b9e899dd00735a0c1a539575a3aa48e7d745726404c1d751e1b",
                "vertex_den": "3fe686c97408310d25627b21bba0a1b24f62089b30cd93386e76f125ab1479b5",
                "vertex_tnum": "8555e0242e98a937a4516e47d659bff8e99a83ca269caade4a40c1e199ce7fcb",
                "triangles": "19d54f98ac4e213e2a1329fce8e86ca7d024e7b4d273d15c39955e07f9ec7cc3",
                "cell_array": "2c4fe199388d3be99717e0a9644438895986a7c5e4ea725d0c0b53c3b96a2766",
            }),
            (256, {
                "vertex_key": "b4ddf5aac287fb8befa394c16930551ae9688c8483656ce7bd42f5975dc585a5",
                "vertex_num": "32e4d48ba37faab9bd471136893e453542e215d38382416fec139a5ac3054d9d",
                "vertex_den": "3c185628a079b9ccced2b90e241372a3fbc20a6f61e3796f7dc730b4e5798bba",
                "vertex_tnum": "4c962fcedcb33b0f9265713560fe82cf2112aad329983b15f76015978a341ba6",
                "triangles": "6156d5d795e88a2fbf7ed0efdcea358a72ca5ad64d34e80a26e8f026785d3d01",
                "cell_array": "ffa623503d1eda4b54b277be191811b6fb6caf4760c54ad2e512bc4774b0470b",
            }),
        ],
        ids=["n128", "n256"],
    )
    def test_mesh_arrays_match_pinned_digests(self, n, digests):
        import hashlib

        m = build_surface(n)
        arrays = {
            "vertex_key": m.vertex_key,
            "vertex_num": m.vertex_num,
            "vertex_den": m.vertex_den,
            "vertex_tnum": crossing_numerators(m),
            "triangles": m.triangles,
            "cell_array": m.cell_array,
        }
        assert {k: a.dtype.str for k, a in arrays.items()} == {
            "vertex_key": "<i8", "vertex_num": "<i8", "vertex_den": "<i8",
            "vertex_tnum": "<i8", "triangles": "<i4", "cell_array": "<i2",
        }
        assert {k: hashlib.sha256(a.tobytes()).hexdigest() for k, a in arrays.items()} == digests


# ---------------------------------------------------------------------------
# The integer vertex layer behind the exact views.
# ---------------------------------------------------------------------------


class TestIntegerVertexLayer:
    @pytest.mark.parametrize("mesh_name", ["mesh16", "mesh32"])
    def test_columns_equal_exact_views(self, mesh_name, request):
        from fractions import Fraction

        from t3mcg.mesh.surface import _sample_field

        mesh = request.getfixturevalue(mesh_name)
        n = mesh.resolution
        g = _sample_field(n)
        num, den = mesh.vertex_num.tolist(), mesh.vertex_den.tolist()
        for v, (base, axes, t) in enumerate(vertex_edges(mesh)):
            assert all(Fraction(num[v][c], den[v]) == mesh.vertices[v][c] for c in range(3))
            glo = int(g[base])
            ghi = int(g[tuple((b + a) % n for b, a in zip(base, axes))])
            assert t == Fraction(glo, glo - ghi)
            assert den[v] == 2 * n * abs(glo - ghi)
            # the stated int64 bound on every numerator
            assert max(num[v]) < den[v] <= 8 * n**3

    def test_length_builds_no_row(self):
        mesh = build_surface(8)
        assert len(mesh.vertices) == len(vertex_edges(mesh)) == len(mesh.vertex_key)
        assert mesh.vertices[-1] == mesh.vertices[len(mesh.vertices) - 1]
        assert mesh.vertices[:2] == [mesh.vertices[0], mesh.vertices[1]]

    def test_length_allocates_no_memo(self):
        import tracemalloc

        from t3mcg.mesh.surface import ExactRows

        built = []
        tracemalloc.start()
        try:
            rows = ExactRows(10**6, lambda i: built.append(i) or (i,))
            assert len(rows) == 10**6
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert built == []
        assert rows[5] == rows[5] == (5,) and built == [5, 5]  # each read builds its row

    @pytest.mark.slow
    def test_mesh_n64_matches_pinned_digest(self):
        import hashlib

        m = build_surface(64)
        tris = [tuple(row) for row in m.triangles.tolist()]
        text = repr((list(m.vertices), vertex_edges(m), tris, m.tri_cells))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2ae8fa2222412f744b68d8fea853eadd3a4fe243bca1ceba6d48815055960fde"
        )


class TestHalfTranslationSymmetry:
    # the two premises under which the half translation maps the mesh onto itself
    def test_case_table_is_complement_symmetric(self):
        from t3mcg.mesh.surface import _CASES

        def rotated(tri):  # an oriented triangle, from its least corner
            i = tri.index(min(tri))
            return tri[i:] + tri[:i]

        mixed = 0
        for path in range(6):
            for m in range(1, 15):
                (edges, tris), (c_edges, c_tris) = _CASES[16 * path + m], _CASES[16 * path + 15 - m]
                assert sorted(edges) == sorted(c_edges)
                reversed_tris = {rotated((edges[a], edges[c], edges[b])) for a, b, c in tris}
                assert reversed_tris == {rotated(tuple(c_edges[k] for k in tri)) for tri in c_tris}
                mixed += 1
        assert mixed == 84

    @pytest.mark.parametrize("n", [8, 16, 24, 32, 64, 128])
    def test_sample_field_is_antisymmetric(self, n):
        from t3mcg.mesh.surface import _sample_field

        g = _sample_field(n)
        assert (np.roll(g, n // 2, axis=(0, 1, 2)) == -g).all()


class TestHalfTranslationChecks:
    def test_moved_crossing_parameter_raises(self):
        from t3mcg.mesh.curves import DegeneracyError

        mesh = build_surface(8)
        den = mesh.vertex_den.copy()
        den[0] += 1
        with pytest.raises(DegeneracyError, match="crossing parameter"):
            half_translation_vertex_map(dataclasses.replace(mesh, vertex_den=den))

    def test_missing_translated_edge_raises(self):
        from t3mcg.mesh.curves import DegeneracyError

        mesh = build_surface(8)
        mesh.vertex_key = mesh.vertex_key.copy()
        mesh.vertex_key[0] ^= 7  # another direction from the same corner
        with pytest.raises(DegeneracyError, match="translated vertex"):
            half_translation_vertex_map(mesh)

    def test_map_is_plain_ints(self, mesh16):
        assert all(type(v) is int for v in half_translation_vertex_map(mesh16))


class TestResolutionCap:
    @pytest.mark.parametrize("n", [1024, 2**20])
    def test_build_surface_refuses_before_sampling(self, n, monkeypatch):
        from t3mcg.mesh.surface import MAX_RESOLUTION

        def sample(_):
            raise AssertionError("sampled a resolution past the cap")

        monkeypatch.setattr("t3mcg.mesh.surface._sample_field", sample)
        assert n > MAX_RESOLUTION == 512
        with pytest.raises(ResolutionError, match=f"from 8 to 512, got {n}"):
            build_surface(n)


class TestTriangleMap:
    def test_half_translation_is_an_involution(self, mesh16):
        from swap_reference import triangle_map

        tmap = triangle_map(mesh16.edges, half_translation_vertex_map(mesh16))
        assert sorted(tmap) == list(range(len(mesh16.triangles)))
        assert [tmap[t] for t in tmap] == list(range(len(tmap)))

    def test_vertex_ids_past_the_cube_root_of_int64(self, mesh16):
        # ids 1000 v + 7 reach 2.7e6 > 2^21, where a key of three ids overflows int64
        from swap_reference import triangle_map
        from t3mcg.mesh.surface import EdgeTable

        vmap = half_translation_vertex_map(mesh16)
        big = [0] * (1000 * len(vmap))
        for v, w in enumerate(vmap):
            big[1000 * v + 7] = 1000 * w + 7
        tris = EdgeTable(1000 * mesh16.triangles.astype(np.int64) + 7)
        assert triangle_map(tris, big) == triangle_map(mesh16.edges, vmap)
        with pytest.raises(ValueError):
            np.ravel_multi_index(np.sort(tris.tris, axis=1).T, (len(big),) * 3)

    def test_missing_image_is_degenerate(self, mesh16):
        from t3mcg.mesh.curves import DegeneracyError
        from swap_reference import triangle_map

        vmap = half_translation_vertex_map(mesh16)
        a, b, _ = mesh16.triangles[0].tolist()
        vmap[a], vmap[b] = vmap[b], vmap[a]  # no longer induced by a mesh symmetry
        with pytest.raises(DegeneracyError, match="no triangle with vertices"):
            triangle_map(mesh16.edges, vmap)


# ---------------------------------------------------------------------------
# The triangles and their cells are the triangulation's int arrays.
# ---------------------------------------------------------------------------


def _int_rows(mesh, name, tmp_path):
    """A mesh's rows as a list of tuples, the way its readers get them:
    ``tri_cells`` builds them, and the triangles are the OFF export's face lines."""
    if name == "tri_cells":
        return mesh.tri_cells
    path = tmp_path / "surface.off"
    export_off(mesh, str(path))
    faces = path.read_text().splitlines()[-len(mesh.triangles):]
    return [tuple(int(x) for x in line.split()[1:]) for line in faces]


class TestIntRows:
    """The integer rows of a mesh: ``triangles`` is the int32 array and
    ``cell_array`` the int16 one; ``tri_cells`` is a plain list built on each read."""

    def test_triangles_share_the_edge_table_array(self, mesh16):
        assert type(mesh16.triangles) is np.ndarray and mesh16.triangles.shape == (5496, 3)
        assert np.shares_memory(mesh16.triangles, mesh16.edges.tris)
        assert (mesh16.edges.tris == mesh16.triangles).all()

    @pytest.mark.parametrize("name", ["triangles", "tri_cells"])
    def test_rows_are_tuples_of_python_ints(self, mesh16, name, tmp_path):
        rows = _int_rows(mesh16, name, tmp_path)
        for row in (rows[0], rows[-1], rows[len(rows) // 2], *rows[:3], *rows[-3:]):
            assert type(row) is tuple and len(row) == 3
        assert all(type(x) is int for row in rows for x in row)

    @pytest.mark.parametrize("name", ["triangles", "tri_cells"])
    def test_rows_read_as_the_plain_list(self, mesh16, name, tmp_path):
        rows = _int_rows(mesh16, name, tmp_path)
        array = mesh16.triangles if name == "triangles" else mesh16.cell_array
        plain = list(map(tuple, array.tolist()))
        assert type(rows) is list and rows == plain and repr(rows) == repr(plain)
        assert (np.array(rows, array.dtype) == array).all()

    def test_section_ends_are_python_ints_of_their_triangle(self, mesh16):
        from fractions import Fraction

        from t3mcg.mesh.curves import PlaneField, slice_field

        for axis, level in ((0, Fraction(1, 2)), (2, Fraction(0))):
            segments = slice_field(mesh16, PlaneField(axis, level)).tri_segments
            assert segments
            for tri, segment in segments.items():
                corners = set(mesh16.triangles[tri].tolist())
                for va, vb, _ in segment:
                    assert type(tri) is type(va) is type(vb) is int
                    assert {va, vb} <= corners

    def test_asarray_warns_of_nothing(self, mesh16):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = np.asarray(mesh16.triangles)
            cells = np.asarray(mesh16.tri_cells, dtype=np.int64)
            copied = np.array(mesh16.triangles, copy=True)
        assert array is mesh16.triangles
        assert (cells == mesh16.cell_array).all()
        assert not np.shares_memory(copied, array) and (copied == array).all()

    def test_tri_cells_is_built_on_each_read_and_not_assigned(self, mesh16):
        assert mesh16.tri_cells is not mesh16.tri_cells
        with pytest.raises(AttributeError):
            mesh16.tri_cells = []

    def test_replaced_triangles_read_a_table_of_their_own(self, mesh16):
        table = mesh16.edges
        fewer = dataclasses.replace(mesh16, triangles=mesh16.triangles[:-1])
        assert fewer.edges is not table and len(fewer.edges.tris) == len(mesh16.triangles) - 1
        assert not validate_surface(fewer)["closed"]
        assert mesh16.edges is table and validate_surface(mesh16)["closed"]

    def test_backing_arrays_are_read_only(self, mesh16):
        for array in (mesh16.triangles, mesh16.edges.tris, mesh16.cell_array):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0


def test_benchmark_tracer_counts_read_the_mesh_and_its_sections(mesh16):
    # perfbench/tracing.py reads these names off a built mesh and a section
    import importlib.util
    from collections import Counter
    from fractions import Fraction
    from pathlib import Path

    from t3mcg.mesh.curves import plane_section, tube_section

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    counts = Counter()
    tracing._surface_counts(counts, (16,), mesh16)
    assert counts == {
        "mesh.surface.vertices": len(mesh16.vertex_key),
        "mesh.surface.triangles": len(mesh16.triangles),
        "mesh.surface.active_cells": len(np.unique(mesh16.cell_array, axis=0)),
    }
    half = Fraction(1, 2)
    for sec in (plane_section(mesh16, 1, half), tube_section(mesh16, 3, (half, Fraction(0)))):
        counts = Counter()
        tracing._slice_counts(counts, (mesh16, sec.field), sec)
        assert counts == {
            "mesh.curves.sliced_triangles": len(sec.segments),
            "mesh.curves.loops": len(sec.loops),
            "mesh.curves.loop_steps": sum(len(loop.steps) for loop in sec.loops),
        }
        assert counts["mesh.curves.loops"] > 0


# ---------------------------------------------------------------------------
# Ids in int32 wherever int32 holds them; keys of two ids in int64.
# ---------------------------------------------------------------------------


class TestIdDtypes:
    def test_built_mesh_dtypes(self, mesh16):
        from t3mcg.mesh.surface import components

        assert mesh16.triangles.dtype == np.int32
        assert mesh16.cell_array.dtype == np.int16
        assert mesh16.vertex_key.dtype == np.int64
        table = mesh16.edges
        for name in ("tris", "start", "low", "high", "count", "pairs", "neighbour"):
            assert getattr(table, name).dtype == np.int32, name
        assert components(len(mesh16.triangles), table.pairs // 3).dtype == np.int32

    def test_int32_table_past_two_to_the_sixteen_equals_int64(self, mesh16):
        # ids v + 2^16 make low * size about 4.6e9, past int32, while every id fits it
        from swap_reference import triangle_map
        from t3mcg.mesh.surface import EdgeTable

        shift = 2**16
        tris32 = mesh16.triangles + np.int32(shift)
        assert tris32.dtype == np.int32
        narrow = EdgeTable(tris32)
        wide = EdgeTable(mesh16.triangles.astype(np.int64) + shift)
        assert narrow.low.dtype == np.int32 and wide.tris.dtype == np.int64
        assert int(narrow.low.max()) * (int(tris32.max()) + 1) > 2**31
        for name in ("low", "high", "pairs", "neighbour", "start", "count"):
            assert (getattr(narrow, name) == getattr(wide, name)).all(), name
        size = len(mesh16.vertices) + shift
        assert narrow.report(size) == wide.report(size)

        vmap = half_translation_vertex_map(mesh16)
        big = list(range(shift)) + [w + shift for w in vmap]
        expected = triangle_map(mesh16.edges, vmap)
        assert triangle_map(narrow, big) == triangle_map(wide, big) == expected
        assert triangle_map(narrow, np.array(big, np.int32)) == expected

import pytest

from t3mcg.mesh import (
    ResolutionError,
    build_surface,
    edge_map,
    export_off,
    half_translation_vertex_map,
    load_off_counts,
    validate_surface,
)


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
        for _, _, t in mesh16.vertex_edges:
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
        text = repr((m.vertices, m.vertex_edges, m.triangles, m.tri_cells))
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

        oriented = {canon(t) for t in mesh16.triangles}
        for tri in mesh16.triangles:
            image = canon(tuple(vmap[v] for v in tri))
            assert image not in oriented
            assert (image[0], image[2], image[1]) in oriented


class TestOrientationConvention:
    def test_normals_point_from_origin_side_to_shifted_side(self, mesh16):
        # probe a step along each triangle normal: behind must be nearer the
        # origin spine, in front nearer the shifted spine
        from fractions import Fraction

        from t3mcg.mesh.curves import ambient_side

        for tri_index in range(0, len(mesh16.triangles), 251):
            pts = mesh16.triangle_local(tri_index)
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
    def test_local_coordinates_unwrap_into_the_cell(self, mesh_name, request):
        # each local coordinate is its wrapped vertex coordinate plus a whole
        # period, inside the sample cube [(2k+1)/2n, (2k+3)/2n] of cell k
        from fractions import Fraction

        mesh = request.getfixturevalue(mesh_name)
        n = mesh.resolution
        for tri_index, tri in enumerate(mesh.triangles):
            cell = mesh.tri_cells[tri_index]
            for v, local in zip(tri, mesh.triangle_local(tri_index)):
                for c in range(3):
                    assert local[c] % 1 == mesh.vertices[v][c]
                    lo = Fraction(2 * cell[c] + 1, 2 * n)
                    assert lo <= local[c] <= lo + Fraction(1, n)


class TestNegativeControls:
    def test_deleted_triangle_not_closed(self, mesh16):
        import copy

        broken = copy.copy(mesh16)
        broken.triangles = mesh16.triangles[:-1]
        broken.tri_cells = mesh16.tri_cells[:-1]
        report = validate_surface(broken)
        assert not report["closed"]

    def test_flipped_triangle_not_orientable(self, mesh16):
        import copy

        broken = copy.copy(mesh16)
        a, b, c = mesh16.triangles[0]
        broken.triangles = [(a, c, b)] + mesh16.triangles[1:]
        report = validate_surface(broken)
        assert report["closed"]
        assert not report["orientable"]


class TestEdgeMap:
    def test_shared_map_is_built_once(self, mesh16):
        shared = mesh16.shared_edge_map()
        assert mesh16.shared_edge_map() is shared
        assert shared == edge_map(mesh16.triangles)


class TestOffExport:
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
        import copy

        k = len(mesh16.vertices)
        double = copy.copy(mesh16)
        double.vertices = mesh16.vertices * 2
        double.triangles = mesh16.triangles + [
            (a + k, b + k, c + k) for a, b, c in mesh16.triangles
        ]
        report = validate_surface(double)
        assert report["closed"] and report["orientable"]
        assert not report["connected"]
        assert report["euler_characteristic"] == -8
        assert report["genus"] is None


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
    edges, counts = reference_counts(len(mesh.vertices), mesh.triangles)
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
    import copy

    m = copy.copy(mesh16)
    tris = mesh16.triangles
    a, b, c = tris[0]
    k = len(mesh16.vertices)
    if name == "deleted":
        m.triangles = tris[:-1]
    elif name == "flipped":
        m.triangles = [(a, c, b)] + tris[1:]
    elif name == "listed-twice":  # its edges lie on three triangles
        m.triangles = tris + tris[:1]
    elif name == "edge-on-four":  # two neighbours listed twice
        other = next(t for t in reference_edge_map(tris)[(min(a, b), max(a, b))] if t != 0)
        m.triangles = tris + [tris[0], tris[other]]
    elif name == "two-copies":
        m.vertices = mesh16.vertices * 2
        m.triangles = tris + [(x + k, y + k, z + k) for x, y, z in tris]
    elif name == "empty":
        m.triangles = []
    return m


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
        four = reference_edge_map(_variant(mesh16, "edge-on-four").triangles)
        assert 4 in map(len, four.values())

    def test_edge_map_equals_dict_reference(self, mesh16):
        for name in ("intact", "edge-on-four"):
            tris = _variant(mesh16, name).triangles
            assert edge_map(tris) == reference_edge_map(tris)  # lists in triangle order

    def test_off_counts_equal_reference(self, mesh16, tmp_path):
        path = str(tmp_path / "surface.off")
        export_off(mesh16, path)
        report = load_off_counts(path)
        _, expected = reference_counts(len(mesh16.vertices), mesh16.triangles)
        assert report == expected
        assert all(type(v) in (bool, int) for v in report.values())

    def test_off_face_with_two_corners_is_refused(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1\n")
        with pytest.raises(ValueError, match="non-triangle"):
            load_off_counts(str(path))

    def test_edge_on_four_triangles_stops_a_chain(self):
        from fractions import Fraction

        from t3mcg.mesh.curves import DegeneracyError, PlaneField, slice_field

        mesh = build_surface(8)
        fld = PlaneField(0, Fraction(1, 2))
        first = min(slice_field(build_surface(8), fld).tri_segments)
        mesh.triangles = mesh.triangles + [mesh.triangles[first]]
        with pytest.raises(DegeneracyError, match="not interior"):
            slice_field(mesh, fld)


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
        for v, (base, axes, t) in enumerate(mesh.vertex_edges):
            assert all(Fraction(num[v][c], den[v]) == mesh.vertices[v][c] for c in range(3))
            glo = int(g[base])
            ghi = int(g[tuple((b + a) % n for b, a in zip(base, axes))])
            assert t == Fraction(glo, glo - ghi)
            assert Fraction(int(mesh.vertex_tnum[v]), den[v] // (2 * n)) == t
            # the stated int64 bound on every numerator
            assert max(num[v]) < den[v] <= 8 * n**3

    def test_length_builds_no_row(self):
        mesh = build_surface(8)
        assert len(mesh.vertices) == len(mesh.vertex_edges) == len(mesh.vertex_key)
        assert mesh.vertices._rows.count(None) == len(mesh.vertex_key)
        assert mesh.vertices[-1] == mesh.vertices[len(mesh.vertices) - 1]
        assert mesh.vertices[:2] == [mesh.vertices[0], mesh.vertices[1]]

    @pytest.mark.slow
    def test_mesh_n64_matches_pinned_digest(self):
        import hashlib

        m = build_surface(64)
        text = repr((m.vertices, m.vertex_edges, m.triangles, m.tri_cells))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2ae8fa2222412f744b68d8fea853eadd3a4fe243bca1ceba6d48815055960fde"
        )


class TestHalfTranslationChecks:
    def test_moved_crossing_parameter_raises(self):
        from t3mcg.mesh.curves import DegeneracyError

        mesh = build_surface(8)
        mesh.vertex_tnum = mesh.vertex_tnum.copy()
        mesh.vertex_tnum[0] += 1
        with pytest.raises(DegeneracyError, match="crossing parameter"):
            half_translation_vertex_map(mesh)

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
        from t3mcg.mesh.surface import triangle_map

        tmap = triangle_map(mesh16.edges, half_translation_vertex_map(mesh16))
        assert sorted(tmap) == list(range(len(mesh16.triangles)))
        assert [tmap[t] for t in tmap] == list(range(len(tmap)))

    def test_vertex_ids_past_the_cube_root_of_int64(self, mesh16):
        # ids 1000 v + 7 reach 2.7e6 > 2^21, where a key of three ids overflows int64
        import numpy as np

        from t3mcg.mesh.surface import EdgeTable, triangle_map

        vmap = half_translation_vertex_map(mesh16)
        big = [0] * (1000 * len(vmap))
        for v, w in enumerate(vmap):
            big[1000 * v + 7] = 1000 * w + 7
        tris = EdgeTable([tuple(1000 * v + 7 for v in tri) for tri in mesh16.triangles])
        assert triangle_map(tris, big) == triangle_map(mesh16.edges, vmap)
        with pytest.raises(ValueError):
            np.ravel_multi_index(np.sort(tris.tris, axis=1).T, (len(big),) * 3)

    def test_missing_image_is_degenerate(self, mesh16):
        from t3mcg.mesh.curves import DegeneracyError
        from t3mcg.mesh.surface import triangle_map

        vmap = half_translation_vertex_map(mesh16)
        a, b, _ = mesh16.triangles[0]
        vmap[a], vmap[b] = vmap[b], vmap[a]  # no longer induced by a mesh symmetry
        with pytest.raises(DegeneracyError, match="no triangle with vertices"):
            triangle_map(mesh16.edges, vmap)

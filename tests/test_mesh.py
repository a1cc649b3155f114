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

import pytest

from t3mcg.mesh.homology import (
    CANONICAL_J,
    CurveRef,
    form_product,
    intersection_number,
    tube_pattern,
    twist_matrix,
)
from t3mcg.rep3 import mat_mul, transpose


class TestBasis:
    def test_gram_is_unimodular_antisymmetric(self, homology32):
        g = homology32.gram
        for i in range(6):
            for j in range(6):
                assert g[i][j] == -g[j][i]
        # the plane/longitude block forces determinant +-1
        from matrix_reference import invert_unimodular

        invert_unimodular(g)  # raises if not unimodular

    def test_canonical_form(self, homology32):
        c = homology32.basis_change
        assert mat_mul(transpose(c), mat_mul(homology32.gram, c)) == CANONICAL_J

    def test_basis_classes(self, homology32):
        for i in range(3):
            cls = homology32.curve_class(homology32.disk_sections_a[i])
            assert cls == tuple(1 if c == i else 0 for c in range(6))

    def test_projection_of_basis(self, homology32):
        h = homology32
        for i in range(3):
            a = h.curve_class(h.disk_sections_a[i])
            assert h.displacement_of_class(a) == (0, 0, 0)
            t = h.curve_class(h.longitudes[i])
            assert h.displacement_of_class(t) == tuple(
                1 if c == i else 0 for c in range(3)
            )

    def test_b_side_disks_span_meridian_lattice(self, homology32):
        cls = homology32.disk_b_classes
        assert all(all(c[3 + k] == 0 for k in range(3)) for c in cls)
        det = (
            cls[0][0] * (cls[1][1] * cls[2][2] - cls[1][2] * cls[2][1])
            - cls[0][1] * (cls[1][0] * cls[2][2] - cls[1][2] * cls[2][0])
            + cls[0][2] * (cls[1][0] * cls[2][1] - cls[1][1] * cls[2][0])
        )
        assert det in (1, -1)


class TestIntersections:
    def test_distinguished_counts(self, homology32):
        h = homology32
        for i in range(1, 4):
            for j in range(1, 4):
                alg, geo = intersection_number(
                    h, h.disk_sections_a[i - 1], h.disk_sections_b[j - 1]
                )
                assert alg == 0
                assert geo == (0 if i == j else 2)

    def test_form_matches_geometric_signed_counts(self, homology32):
        h = homology32
        refs = list(h.disk_sections_a) + list(h.disk_sections_b) + list(h.longitudes)
        classes = [h.curve_class(r) for r in refs]
        for x in range(len(refs)):
            for y in range(len(refs)):
                if refs[x].curves is refs[y].curves:
                    continue
                alg, _ = intersection_number(h, refs[x], refs[y])
                assert alg == form_product(classes[x], classes[y])

    def test_defining_pairs(self, homology32):
        h = homology32
        for i, a in enumerate(h.disk_sections_a):
            for j, b in enumerate(h.disk_sections_b):
                assert (intersection_number(h, a, b)[1] == 0) == (i == j)

    def test_algebraic_self_intersection_zero(self, homology32):
        h = homology32
        for ref in list(h.disk_sections_a) + list(h.longitudes):
            alg, geo = intersection_number(h, ref, ref)
            assert alg == 0 and geo == 0


class TestTwists:
    def test_single_transvection(self, homology32):
        h = homology32
        a1 = h.disk_sections_a[0]
        m = twist_matrix(h, [(a1, 1)])
        # a-classes fixed, b_1 picks up -a_1 under this sign convention
        for i in range(3):
            col = tuple(m[r][i] for r in range(6))
            assert col == tuple(1 if r == i else 0 for r in range(6))
        col_b1 = tuple(m[r][3] for r in range(6))
        assert col_b1 in (
            (1, 0, 0, 1, 0, 0),
            (-1, 0, 0, 1, 0, 0),
        )

    def test_empty_twist_is_identity(self, homology32):
        from t3mcg.rep3 import identity

        assert twist_matrix(homology32, []) == identity(6)

    def test_twist_is_symplectic(self, homology32):
        from t3mcg.rep6 import is_symplectic

        h = homology32
        tube = h.tubes[2]
        for kind in ("all_plus", "alternating"):
            eps = tube_pattern(h, tube, kind)
            loops = [(CurveRef(tube, i), eps[i]) for i in range(4)]
            assert is_symplectic(twist_matrix(h, loops))

    def test_alternating_pattern_balances(self, homology32):
        for tube in homology32.tubes:
            eps = tube_pattern(homology32, tube, "alternating")
            assert sorted(eps) == [-1, -1, 1, 1]


class TestAlternatingPattern:
    """The alternating pattern twists each tube loop by its winding direction."""

    @pytest.fixture(scope="class", params=[8, 16], ids=["n8", "n16"])
    def homology(self, request):
        if request.param == 16:
            return request.getfixturevalue("homology16")
        from t3mcg.mesh import build_surface
        from t3mcg.mesh.homology import build_homology

        return build_homology(build_surface(8))

    def test_pattern_is_each_loops_displacement_along_the_axis(self, homology):
        from t3mcg.mesh.homology import pair_tube
        from t3mcg.words import AXIS_PAIRS

        h = homology
        tubes = list(h.tubes) + [pair_tube(h.mesh, i, j) for i, j in AXIS_PAIRS]
        assert len(tubes) == 9
        for tube in tubes:
            axis = tube.field.axis
            assert len(tube.loops) == 4
            expect = [loop.displacement[axis] for loop in tube.loops]
            assert tube_pattern(h, tube, "alternating") == expect
            assert sorted(expect) == [-1, -1, 1, 1]

    def test_loop_without_winding_is_refused(self, homology16):
        from dataclasses import replace

        from t3mcg.mesh.curves import DegeneracyError

        tube = homology16.tubes[2]
        loops = list(tube.loops)
        loops[1] = replace(loops[1], displacement=(0, 0, 0))
        with pytest.raises(DegeneracyError, match=r"displacement \(0, 0, 0\) is not \+-e_3$"):
            tube_pattern(homology16, replace(tube, loops=loops), "alternating")


class TestClassOfSteps:
    def test_closed_form_matches_gauss_jordan(self, homology16):
        from t3mcg.mesh.curves import walk_steps
        from matrix_reference import invert_unimodular
        from t3mcg.rep3 import mat_vec

        h = homology16
        gram_inv = invert_unimodular(h.gram)
        basis_inv = invert_unimodular(h.basis_change)
        refs = list(h.disk_sections_a) + list(h.longitudes) + list(h.disk_sections_b)
        refs += [CurveRef(tube, i) for tube in h.tubes for i in range(len(tube.loops))]
        assert len(refs) == 21
        for ref in refs:
            loop = ref.loop
            for sign in (loop.orientation_sign, -loop.orientation_sign):
                steps = walk_steps(loop)
                v = h.pair_with_generators(steps, sign)
                assert h.class_of_steps(steps, sign) == mat_vec(basis_inv, mat_vec(gram_inv, v))


class TestCurveClassMemo:
    def test_memoized_classes_equal_fresh_walks(self, homology16, monkeypatch):
        from fractions import Fraction

        from t3mcg.mesh.curves import TUBE_RADIUS, tube_section, walk_steps
        from t3mcg.mesh.homology import HomologyData

        h = homology16
        sections = [ref.curves for ref in list(h.disk_sections_a) + list(h.disk_sections_b)]
        sections += list(h.tubes)
        # two separate slices of the (1,3) pair tube, the second one reversed
        pair = [tube_section(h.mesh, 2, (Fraction(0), Fraction(1, 2)), TUBE_RADIUS) for _ in "ab"]
        for loop in pair[1].loops:
            loop.orientation_sign = -1
        refs = [CurveRef(sec, i) for sec in sections + pair for i in range(len(sec.loops))]
        assert len(refs) == 6 + 12 + 8
        fresh = [h.class_of_steps(walk_steps(ref.loop), ref.loop.orientation_sign) for ref in refs]
        assert fresh[22:] == [tuple(-x for x in cls) for cls in fresh[18:22]]

        walks = []
        original = HomologyData.class_of_steps

        def counted(self, steps, walker_sign):
            walks.append(steps)
            return original(self, steps, walker_sign)

        monkeypatch.setattr(HomologyData, "class_of_steps", counted)
        assert [h.curve_class(ref) for ref in refs[18:]] == fresh[18:]
        assert len(walks) == 8  # each pair-tube loop once: the two sections apart
        assert [h.curve_class(ref) for ref in refs] == fresh
        walked = len(walks)
        assert walked <= 8 + 9  # build_homology walked the plane sections and longitudes
        assert [h.curve_class(ref) for ref in refs] == fresh
        assert len(walks) == walked


class TestSeededClasses:
    # build_homology reads the six generator classes off the Gram rows, with no walk

    @pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16", "mesh32"])
    def test_seeded_classes_equal_fresh_walks(self, mesh_name, request):
        from t3mcg.mesh.curves import walk_steps
        from t3mcg.mesh.homology import build_homology

        h = build_homology(request.getfixturevalue(mesh_name))
        generators = list(h.disk_sections_a) + list(h.longitudes)
        for i, ref in enumerate(generators):
            loop = ref.loop
            fresh = h.class_of_steps(walk_steps(loop), loop.orientation_sign)
            assert h.curve_class(ref) == fresh
            assert h.pair_with_generators(loop.steps, loop.orientation_sign) == tuple(
                -x for x in h.gram[i]
            )

    @pytest.mark.parametrize("mesh_name", ["mesh16", "mesh32"])
    def test_build_walk_count(self, mesh_name, request, monkeypatch):
        # 3 orient the A-side sections, 30 fill the Gram matrix and 18 give
        # the three B-side section classes
        import t3mcg.mesh.homology as homology

        mesh = request.getfixturevalue(mesh_name)
        walks = []
        original = homology.walk_pairing

        def counted(*args):
            walks.append(args)
            return original(*args)

        monkeypatch.setattr(homology, "walk_pairing", counted)
        homology.build_homology(mesh)
        assert len(walks) == 51


class TestPairHelpers:
    def test_pair_tube_axis_and_center(self, mesh16):
        from fractions import Fraction

        from t3mcg.mesh.homology import pair_tube

        half, zero = Fraction(1, 2), Fraction(0)
        expect = {(2, 3): (0, (half, zero)), (3, 1): (1, (half, zero)),
                  (1, 2): (2, (half, zero)), (1, 3): (1, (zero, half))}
        for (i, j), (axis, center) in expect.items():
            tube = pair_tube(mesh16, i, j)
            assert (tube.field.axis, tube.field.center) == (axis, center)
            assert len(tube.loops) == 4

    def test_homology_tubes_are_pair_tubes(self, homology16):
        from t3mcg.mesh.curves import TUBE_RADIUS

        assert [tube.field.axis for tube in homology16.tubes] == [0, 1, 2]
        assert homology16.tube_radius == TUBE_RADIUS
        assert all(ref.index == 0 for ref in homology16.longitudes)

    def test_crossings_match_intersection_numbers(self, homology16):
        from t3mcg.mesh.homology import crossings

        h = homology16
        generators = list(h.disk_sections_a) + list(h.longitudes)
        pairs = [(g1, g2) for g1 in generators for g2 in generators if g1 is not g2]
        assert len(pairs) == 30
        for g1, g2 in pairs:
            assert crossings(g1, g2) == intersection_number(h, g1, g2)

    def test_tube_twist_is_the_reference_twist(self, homology32):
        from t3mcg.mesh.homology import tube_twist
        from t3mcg.rep6 import derive_twist6

        h = homology32
        tube = h.tubes[2]
        for kind in ("all_plus", "alternating"):
            eps = tube_pattern(h, tube, kind)
            loops = [(CurveRef(tube, i), eps[i]) for i in range(4)]
            assert tube_twist(h, tube, kind) == twist_matrix(h, loops) == derive_twist6(h, kind)


class TestGramRefusal:
    # the certificate B^T G B = J is the only check of the crossing Gram matrix:
    # one wrong off-diagonal entry, anywhere, must be refused by it
    @pytest.fixture(scope="class")
    def mesh8(self):
        from t3mcg.mesh import build_surface

        return build_surface(8)

    @pytest.mark.parametrize("position", range(30))
    def test_one_perturbed_gram_walk_is_refused(self, mesh8, position, monkeypatch):
        import t3mcg.mesh.homology as homology
        from t3mcg.mesh.curves import DegeneracyError

        original = homology.crossings
        calls = []

        def perturbed(walker, target):
            alg, geo = original(walker, target)
            calls.append((walker, target))
            # the first 3 walks orient the A-side sections; the next 30 fill G
            return (alg + 1, geo) if len(calls) == 4 + position else (alg, geo)

        monkeypatch.setattr(homology, "crossings", perturbed)
        with pytest.raises(DegeneracyError, match="symplectic reduction failed"):
            homology.build_homology(mesh8)
        assert len(calls) == 33

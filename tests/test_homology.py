from dataclasses import replace

import pytest

from t3mcg.mesh.curves import DegeneracyError
from t3mcg.mesh.homology import (
    CANONICAL_J,
    CurveRef,
    crossings,
    tube_pattern,
    twist_matrix,
)
from t3mcg.rep3 import mat_mul, mat_vec, transpose


def form_product(x, y):
    """Intersection form in canonical coordinates: ``x^T J y``."""
    return sum(a * b for a, b in zip(x, mat_vec(CANONICAL_J, y)))


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
                alg, geo = crossings(h.disk_sections_a[i - 1], h.disk_sections_b[j - 1])
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
                alg, _ = crossings(refs[x], refs[y])
                assert alg == form_product(classes[x], classes[y])

    def test_defining_pairs(self, homology32):
        h = homology32
        for i, a in enumerate(h.disk_sections_a):
            for j, b in enumerate(h.disk_sections_b):
                assert (crossings(a, b)[1] == 0) == (i == j)

    def test_algebraic_self_intersection_zero(self, homology32):
        h = homology32
        for ref in list(h.disk_sections_a) + list(h.longitudes):
            alg, geo = crossings(ref, ref)
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

    def _refused(self, h, tube, message):
        from t3mcg.mesh.curves import DegeneracyError
        from t3mcg.mesh.homology import winding_signs

        for refuse in (winding_signs, lambda t: tube_pattern(h, t, "alternating")):
            with pytest.raises(DegeneracyError, match=message):
                refuse(tube)

    def test_three_loop_tube_is_refused(self, homology16):
        from dataclasses import replace

        tube = homology16.tubes[2]
        three = replace(tube, loops=tube.loops[:3])
        self._refused(homology16, three, "^tube along axis 3 has 3 loops, expected 4$")

    def test_unbalanced_tube_is_refused(self, homology16):
        from dataclasses import replace

        tube = homology16.tubes[2]
        loops = list(tube.loops)
        i = next(i for i, loop in enumerate(loops) if loop.displacement == (0, 0, -1))
        loops[i] = replace(loops[i], displacement=(0, 0, 1))
        self._refused(homology16, replace(tube, loops=loops), r"^tube along axis 3 is unbalanced: ")

    def test_build_homology_refuses_a_three_loop_tube(self, mesh16, monkeypatch):
        from dataclasses import replace

        import t3mcg.mesh.homology as homology
        from t3mcg.mesh.curves import DegeneracyError

        original = homology.pair_tube

        def three_loops(*args):
            tube = original(*args)
            return replace(tube, loops=tube.loops[:3])

        monkeypatch.setattr(homology, "pair_tube", three_loops)
        with pytest.raises(DegeneracyError, match="^tube along axis 1 has 3 loops, expected 4$"):
            homology.build_homology(mesh16)


class TestClassOfSteps:
    def test_closed_form_matches_gauss_jordan(self, homology16):
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
                v = h.pair_with_generators(loop, sign)
                assert h.class_of_loop(loop, sign) == mat_vec(basis_inv, mat_vec(gram_inv, v))


class TestClassOfLoopOracle:
    # a loop's A-coordinates are its displacement: the class equals the one the
    # six-walk oracle reads, on every loop the program classifies, either way round

    @staticmethod
    def sections(h):
        from t3mcg.mesh.curves import TubeField, slice_field
        from t3mcg.mesh.homology import HALF, pair_tube

        out = [ref.curves for ref in h.disk_sections_a + h.disk_sections_b] + list(h.tubes)
        out += [pair_tube(h.mesh, i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        for f in (tube.field for tube in h.tubes):  # the swap's image tubes
            image = TubeField(f.axis, [c + HALF for c in f.center], f.radius)
            out.append(slice_field(h.mesh, image))
        return out

    @pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16", "mesh32"])
    def test_equals_the_six_walk_oracle(self, mesh_name, request):
        from mesh_reference import class_of_steps
        from t3mcg.mesh.homology import build_homology

        h = build_homology(request.getfixturevalue(mesh_name))
        sections = self.sections(h)
        assert len(sections) == 6 + 3 + 6 + 3
        loops = [loop for sec in sections for loop in sec.loops]
        assert len(loops) == 6 + 4 * 12
        for loop in loops:
            for sign in (1, -1):
                assert h.class_of_loop(loop, sign) == class_of_steps(h, loop.steps, sign)


class TestCurveClassMemo:
    def test_memoized_classes_equal_fresh_walks(self, homology16, monkeypatch):
        from fractions import Fraction

        from t3mcg.mesh.curves import TUBE_RADIUS, tube_section
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
        fresh = [h.class_of_loop(ref.loop, ref.loop.orientation_sign) for ref in refs]
        assert fresh[22:] == [tuple(-x for x in cls) for cls in fresh[18:22]]

        walks = []
        original = HomologyData.class_of_loop

        def counted(self, loop, walker_sign):
            walks.append(loop)
            return original(self, loop, walker_sign)

        monkeypatch.setattr(HomologyData, "class_of_loop", counted)
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
        from t3mcg.mesh.homology import build_homology

        h = build_homology(request.getfixturevalue(mesh_name))
        generators = list(h.disk_sections_a) + list(h.longitudes)
        for i, ref in enumerate(generators):
            loop = ref.loop
            fresh = h.class_of_loop(loop, loop.orientation_sign)
            assert h.curve_class(ref) == fresh
            assert h.pair_with_generators(loop, loop.orientation_sign) == tuple(
                -x for x in h.gram[i]
            )

    @pytest.mark.parametrize("mesh_name", ["mesh16", "mesh32"])
    def test_build_walk_count(self, mesh_name, request, monkeypatch):
        # the 30 Gram walks also orient the A-side sections, and 9 give the
        # three B-side section classes: each walks the three longitudes
        import t3mcg.mesh.homology as homology

        mesh = request.getfixturevalue(mesh_name)
        walks = []
        original = homology.walk_pairing

        def counted(*args):
            walks.append(args)
            return original(*args)

        monkeypatch.setattr(homology, "walk_pairing", counted)
        homology.build_homology(mesh)
        assert len(walks) == 39


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
            # the 30 walks fill G, and the (T_i, a_i) ones also orient a_i
            return (alg + 1, geo) if len(calls) == 1 + position else (alg, geo)

        monkeypatch.setattr(homology, "crossings", perturbed)
        with pytest.raises(DegeneracyError, match="symplectic reduction failed"):
            homology.build_homology(mesh8)
        assert len(calls) == 30


class TestBuildRefusals:
    @staticmethod
    def build_with_sections(mesh, monkeypatch, change):
        import t3mcg.mesh.homology as homology

        original = homology.plane_section
        monkeypatch.setattr(
            homology, "plane_section", lambda m, axis, level: change(original(m, axis, level))
        )
        return homology.build_homology(mesh)

    def test_a_two_component_section_is_refused(self, mesh8, monkeypatch):
        with pytest.raises(DegeneracyError, match=r"^plane section x1=1/2 has 2 components, "
                                                  r"expected 1$"):
            self.build_with_sections(mesh8, monkeypatch, lambda s: replace(s, loops=s.loops * 2))

    def test_a_winding_section_is_refused(self, mesh8, monkeypatch):
        def winding(sec):
            return replace(sec, loops=[replace(sec.loops[0], displacement=(1, 0, 0))])

        with pytest.raises(DegeneracyError, match="^plane section x1=1/2 has nonzero displacement$"):
            self.build_with_sections(mesh8, monkeypatch, winding)

    def test_b_side_classes_that_do_not_span_are_refused(self, mesh8, monkeypatch):
        import t3mcg.mesh.homology as homology

        zero = ((0,) * 6,) * 3
        monkeypatch.setattr(homology.HomologyData, "disk_b_classes", property(lambda h: zero))
        with pytest.raises(DegeneracyError, match=r"^B-side disk classes do not span the "
                                                  r"meridian lattice: \(\(0, 0, 0, 0, 0, 0\),"):
            homology.build_homology(mesh8)

    def test_an_unknown_pattern_is_refused(self, homology16):
        with pytest.raises(ValueError, match="^unknown pattern 'twisted'$"):
            tube_pattern(homology16, homology16.tubes[2], "twisted")


@pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16", "mesh32"])
def test_a_loop_crosses_its_own_section_nowhere(mesh_name, request):
    # the walk itself, with no self-pair shortcut: the six plane sections, the four
    # loops of each homology tube and the four of the (1,3) pair tube
    from t3mcg.mesh.homology import build_homology, crossings, pair_tube

    mesh = request.getfixturevalue(mesh_name)
    h = build_homology(mesh)
    refs = list(h.disk_sections_a) + list(h.disk_sections_b)
    for tube in list(h.tubes) + [pair_tube(mesh, 1, 3)]:
        refs += [CurveRef(tube, i) for i in range(len(tube.loops))]
    assert len(refs) == 22
    assert [crossings(ref, ref) for ref in refs] == [(0, 0)] * 22

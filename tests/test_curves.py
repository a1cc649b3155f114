import gc
import math
import weakref
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from t3mcg.mesh import build_surface, curves
from t3mcg.mesh.curves import (
    TUBE_RADIUS,
    DegeneracyError,
    PlaneField,
    SlicedCurves,
    Steps,
    TransversalityError,
    TubeField,
    _chain,
    _edge_sign,
    _interpolant,
    crossing_parameters,
    cut_along,
    plane_section,
    slice_field,
    tube_section,
    walk_pairing,
    walk_steps,
)
from t3mcg.mesh.homology import pair_tube

from mesh_reference import chain_reference, dper, int_row, loop_rows, step_positions, triangle_local

HALF = Fraction(1, 2)


class TestPlaneSections:
    def test_each_plane_is_one_null_circle(self, mesh32):
        for axis in (1, 2, 3):
            for level in (HALF, Fraction(0)):
                sec = plane_section(mesh32, axis, level)
                assert len(sec.loops) == 1
                assert sec.loops[0].displacement == (0, 0, 0)

    def test_loops_are_closed_chains(self, mesh16):
        sec = plane_section(mesh16, 1, HALF)
        steps = sec.loops[0].steps
        # consecutive steps share the crossing edge
        for (t1, _, out1), (t2, in2, _) in zip(steps, steps[1:] + steps[:1]):
            e1 = (out1[0], out1[1]) if out1[0] < out1[1] else (out1[1], out1[0])
            e2 = (in2[0], in2[1]) if in2[0] < in2[1] else (in2[1], in2[0])
            assert e1 == e2


class TestTubeSections:
    def test_reference_tube_has_four_longitudes(self, mesh32):
        tube = tube_section(mesh32, 3, (HALF, Fraction(0)))
        assert len(tube.loops) == 4
        disps = sorted(l.displacement for l in tube.loops)
        assert disps == [(0, 0, -1), (0, 0, -1), (0, 0, 1), (0, 0, 1)]

    def test_small_radius_gives_point_links(self, mesh32):
        # below transverse distance 1/4 the tube only sees the two crossing
        # points of the disk boundaries
        small = slice_field(mesh32, TubeField(2, (HALF, Fraction(0)), Fraction(1, 8)))
        assert len(small.loops) == 2
        assert all(l.displacement == (0, 0, 0) for l in small.loops)

    def test_stability_check_rejects_critical_radius(self, mesh32):
        # 15/64 sits under the reconnection radius, 17/64 above: the +-1/16
        # re-runs straddle it
        with pytest.raises(TransversalityError):
            tube_section(mesh32, 3, (HALF, Fraction(0)), Fraction(1, 4))

    def test_default_radius_is_stable(self, mesh32):
        tube = tube_section(mesh32, 3, (HALF, Fraction(0)), TUBE_RADIUS)
        assert len(tube.loops) == 4


class TestPairings:
    def test_antisymmetry_on_distinguished_pairs(self, mesh32):
        secs = [plane_section(mesh32, ax, HALF) for ax in (1, 2, 3)]
        secs += [plane_section(mesh32, ax, Fraction(0)) for ax in (1, 2, 3)]
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                li, lj = secs[i].loops[0], secs[j].loops[0]
                rij = walk_pairing(walk_steps(li), li.orientation_sign, secs[j])
                rji = walk_pairing(walk_steps(lj), lj.orientation_sign, secs[i])
                aij, gij = rij.get(0, (0, 0))
                aji, gji = rji.get(0, (0, 0))
                assert aij == -aji
                assert gij == gji

    def test_self_pairing_vanishes(self, mesh16):
        sec = plane_section(mesh16, 1, HALF)
        loop = sec.loops[0]
        res = walk_pairing(walk_steps(loop), loop.orientation_sign, sec)
        assert res.get(0, (0, 0)) == (0, 0)


class TestCutting:
    def test_cut_along_tube_loops(self, mesh32):
        tube = tube_section(mesh32, 3, (HALF, Fraction(0)))
        pieces = cut_along(mesh32, tube)
        assert len(pieces) == 2
        for p in pieces:
            assert p["euler_characteristic"] == -2
            assert p["genus"] == 0
            assert p["boundary_circles"] == 4

    def test_euler_characteristic_is_conserved(self, mesh32):
        tube = tube_section(mesh32, 3, (HALF, Fraction(0)))
        pieces = cut_along(mesh32, tube)
        assert sum(p["euler_characteristic"] for p in pieces) == -4


class TestCuttingSubcomplex:
    def test_small_tube_cuts_off_two_disks(self, mesh16):
        # below the meridian-disk radius the tube meets the surface in two
        # small circles, so the cut leaves two disks and a genus-3 remainder
        tube = tube_section(mesh16, 3, (HALF, Fraction(0)), Fraction(1, 8))
        assert len(tube.loops) == 2
        pieces = cut_along(mesh16, tube)
        summary = sorted(
            (p["euler_characteristic"], p["boundary_circles"], p["genus"]) for p in pieces
        )
        assert summary == [(-6, 2, 3), (1, 1, 0), (1, 1, 0)]
        for p in pieces:
            assert p["vertices"] - p["edges"] + p["faces"] == p["euler_characteristic"]

    def test_unsliced_crossing_triangle_is_degenerate(self, mesh16):
        import dataclasses

        from t3mcg.mesh.curves import DegeneracyError

        tube = tube_section(mesh16, 3, (HALF, Fraction(0)))
        # drop the least sliced triangle from a copy of the columns
        segments = tube.segments.take(np.arange(1, len(tube.segments)))
        broken = dataclasses.replace(tube, segments=segments)
        with pytest.raises(DegeneracyError):
            cut_along(mesh16, broken)


# The three homology tubes (axis k through (1/2, 0)) and the tube of the
# (1,3) disk pair that the handedness arbiter slices, as (0-based axis, centre).
HOMOLOGY_AND_PAIR_TUBES = [(k, (HALF, Fraction(0))) for k in range(3)] + [
    (1, (Fraction(0), HALF))
]


class TestTubeVertexValues:
    @pytest.mark.parametrize("axis,center", HOMOLOGY_AND_PAIR_TUBES)
    def test_wrapped_vertex_values_equal_frame_values(self, mesh16, axis, center):
        # the tube field is periodic, so evaluating the wrapped vertex once is
        # exact in every triangle's unwrapped frame
        fld = TubeField(axis, center, TUBE_RADIUS)
        tris = fld.candidate_triangles(mesh16)
        for tri, values in zip(tris, kernel_values(*fld.corner_ratios(mesh16, tris))):
            frame_values = tuple(fld.point_value(p) for p in triangle_local(mesh16, tri))
            assert values == frame_values

    def test_slicing_evaluates_each_vertex_once(self, mesh16, monkeypatch):
        evaluated = []
        point_value = TubeField.point_value

        def counted(self, p):
            evaluated.append(p)
            return point_value(self, p)

        monkeypatch.setattr(TubeField, "point_value", counted)
        walker = plane_section(mesh16, 3, HALF).loops[0]
        # in the int64 bound slicing, a walk against the section and cutting
        # read the value vector alone; past it each vertex is evaluated once
        past = Fraction(5 * 2**40 + 1, 2**44)
        for radius, most in ((TUBE_RADIUS, 0), (past, len(mesh16.vertices))):
            sec = slice_field(mesh16, TubeField(2, (HALF, Fraction(0)), radius))
            assert walk_pairing(walk_steps(walker), walker.orientation_sign, sec)
            cut_along(mesh16, sec)
            assert (0 < len(evaluated) <= most) if most else not evaluated
            evaluated.clear()


# ---------------------------------------------------------------------------
# The integer field kernels against the Fraction formulas they replace.
# ---------------------------------------------------------------------------


def sign(f):
    return (f > 0) - (f < 0)


def reference_tube_value(axis, center, radius, p):
    a, b = (axis + 1) % 3, (axis + 2) % 3
    return dper(p[a] - center[0]) ** 2 + dper(p[b] - center[1]) ** 2 - radius ** 2


def reference_plane_values(axis, level, pts):
    center = sum(p[axis] for p in pts) / 3
    rep = level + math.floor(center - level + HALF)
    return tuple(p[axis] - rep for p in pts)


RADII = [TUBE_RADIUS * Fraction(15, 16), TUBE_RADIUS, TUBE_RADIUS * Fraction(17, 16)]


class TestIntegerKernels:
    @pytest.fixture(scope="class")
    def points16(self, mesh16):
        # wrapped vertices and every frame point, including the unwrapped
        # coordinates >= 1 of the last cell along each axis
        pts = set(mesh16.vertices)
        for tri in range(len(mesh16.triangles)):
            pts.update(triangle_local(mesh16, tri))
        assert any(x >= 1 for p in pts for x in p)
        return sorted(pts)

    @pytest.mark.parametrize("radius", RADII, ids=["15/16", "1", "17/16"])
    @pytest.mark.parametrize(
        "axis,center", HOMOLOGY_AND_PAIR_TUBES + [(0, (Fraction(1, 3), Fraction(3, 4)))]
    )
    def test_tube_point_value(self, points16, axis, center, radius):
        fld = TubeField(axis, center, radius)
        for p in points16:
            assert fld.point_value(p) == reference_tube_value(axis, center, radius, p)

    @pytest.mark.parametrize("axis", range(3))
    def test_plane_tri_values(self, mesh16, frames, axis):
        levels = [Fraction(0), HALF, Fraction(1, 4), Fraction(1, 3), -HALF, Fraction(3, 2)]
        triangles = np.arange(len(mesh16.triangles))
        for level in levels:
            values = kernel_values(*PlaneField(axis, level).corner_ratios(mesh16, triangles))
            for pts, got in zip(frames("mesh16"), values, strict=True):
                assert got == reference_plane_values(axis, level, pts)


_values = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=60))
_params = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), st.fractions(0, 1, max_denominator=60))


# Corner values with numerators near 2**46, as at the n = 32 probe radii, and
# parameters with denominators up to 2**40.
_big_numerators = st.integers(2**46 - 2**16, 2**46 + 2**16)
_big_values = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        lambda n, s, d: Fraction(s * n, d),
        _big_numerators, st.sampled_from([-1, 1]), st.integers(1, 2**46),
    ),
)
_fine_params = st.builds(
    lambda q, p: Fraction(p % (q + 1), q), st.integers(1, 2**40), st.integers(0, 2**40)
)


class TestEdgeSign:
    @settings(max_examples=300, deadline=None)
    @given(_values, _values, _values, _params, st.permutations(range(3)), st.booleans())
    def test_sign_of_the_exact_interpolant(self, f0, f1, f2, t, order, forward):
        verts = (10, 20, 30)
        vals = (f0, f1, f2)
        va, vb = verts[order[0]], verts[order[1]]
        if not forward:
            va, vb = vb, va
        fa, fb = vals[verts.index(va)], vals[verts.index(vb)]
        exact = fa + t * (fb - fa)
        pt = (va, vb, t.numerator, t.denominator)
        assert _edge_sign(vals, verts, pt) == (1 if exact >= 0 else -1)

    @settings(max_examples=300, deadline=None)
    @given(_big_values, _big_values, _fine_params)
    def test_sign_at_the_probe_radius_scale(self, fa, fb, t):
        exact = fa + t * (fb - fa)
        p, q = t.numerator, t.denominator
        assert _edge_sign((fa, fb, Fraction(1)), (10, 20, 30), (10, 20, p, q)) == sign(exact or 1)
        assert sign(_interpolant(fa, fb, p, q)) == sign(exact)

    @settings(max_examples=300, deadline=None)
    @given(_big_numerators, _big_numerators, st.integers(1, 2**46), st.integers(1, 2**46),
           st.integers(-1, 1))
    def test_sign_next_to_the_crossing_at_scale(self, na, nb, da, db, shift):
        # a positive and a negative corner, read at their exact crossing
        # parameter and one step of 2**-40 to either side of it
        fa, fb = Fraction(na, da), Fraction(-nb, db)
        t = min(max(fa / (fa - fb) + Fraction(shift, 2**40), Fraction(0)), Fraction(1))
        exact = fa + t * (fb - fa)
        p, q = t.numerator, t.denominator
        assert _edge_sign((fa, fb, Fraction(1)), (10, 20, 30), (10, 20, p, q)) == sign(exact or 1)
        assert sign(_interpolant(fa, fb, p, q)) == sign(exact)
        if shift == 0:
            assert _interpolant(fa, fb, p, q) == 0


# ---------------------------------------------------------------------------
# Loop displacement as a count of cell wraps, and the shared-point chain check.
# ---------------------------------------------------------------------------


def reference_displacement(mesh, loop):
    # the sum of each step's exact span in its triangle's unwrapped frame
    total = [Fraction(0)] * 3
    for step in loop.steps:
        p_in, p_out = step_positions(mesh, step)
        for c in range(3):
            total[c] += p_out[c] - p_in[c]
    return tuple(total)


SLICED_FIELDS = [
    pytest.param(PlaneField(axis, level), id=f"plane{axis}-{level}")
    for axis in range(3)
    for level in (Fraction(0), HALF, Fraction(1, 3))
] + [
    pytest.param(TubeField(axis, center, radius), id=f"tube{axis}-{center[0]},{center[1]}-{radius}")
    for axis, center in HOMOLOGY_AND_PAIR_TUBES + [(0, (Fraction(1, 4), Fraction(1, 3)))]
    for radius in RADII
]


class TestChaining:
    @pytest.mark.parametrize("fld", SLICED_FIELDS)
    def test_chain_of_the_section_columns(self, mesh16, fld):
        # read off a copy of the segment columns alone, the loops are the same
        sec = slice_field(mesh16, fld)
        columns = sec.segments.take(np.arange(len(sec.segments)))
        again = _chain(SlicedCurves(mesh16, fld, [], {}, columns, sec.walk_values))
        assert loop_rows(again.loops) == loop_rows(sec.loops)
        assert list(again.tri_loop.items()) == list(sec.tri_loop.items())
        assert [loop.steps[0][0] for loop in sec.loops] == [
            min(step[0] for step in loop.steps) for loop in sec.loops
        ]

    def test_chain_leaving_the_sliced_set_is_refused(self, mesh16):
        fld = PlaneField(0, HALF)
        sec = slice_field(mesh16, fld)
        segments = sec.segments.take(np.arange(len(sec.segments) - 1))  # drop the greatest triangle
        with pytest.raises(DegeneracyError, match="left the sliced triangle set"):
            _chain(SlicedCurves(mesh16, fld, [], {}, segments, sec.walk_values))

    @pytest.mark.parametrize("fld", SLICED_FIELDS)
    def test_wrap_count_equals_frame_sum(self, mesh16, fld):
        sec = slice_field(mesh16, fld)
        assert sec.loops
        for loop in sec.loops:
            assert all(type(d) is int for d in loop.displacement)
            assert loop.displacement == reference_displacement(mesh16, loop)

    @pytest.mark.parametrize(
        "fld",
        [TubeField(2, (HALF, Fraction(0)), TUBE_RADIUS), PlaneField(0, HALF)],
        ids=["tube", "plane"],
    )
    def test_moved_crossing_point_breaks_the_chain(self, mesh16, fld):
        # doubling a triangle's positive values keeps its signs but moves both
        # of its crossing points off the ones its neighbours compute
        moved = min(slice_field(mesh16, fld).tri_segments)

        class Moved:
            candidate_triangles = fld.candidate_triangles

            def corner_ratios(self, mesh, tris):
                num, den = fld.corner_ratios(mesh, tris)
                doubled = (np.asarray(tris) == moved)[:, None] & (num > 0)
                return np.where(doubled, 2 * num, num), den

        with pytest.raises(DegeneracyError):
            slice_field(mesh16, Moved())

    @pytest.mark.parametrize(
        "fld",
        [TubeField(2, (HALF, Fraction(0)), TUBE_RADIUS), PlaneField(0, HALF)],
        ids=["tube", "plane"],
    )
    @pytest.mark.parametrize("mutant", ["vertices-unswapped", "other-denominator"])
    def test_mutated_shared_point_breaks_the_chain(self, mesh16, fld, mutant):
        sec = slice_field(mesh16, fld)
        tri, ends = sec.segments.tri, sec.segments.ends.copy()
        chained = _chain(SlicedCurves(mesh16, fld, [], {}, Steps(tri, ends), sec.walk_values))
        assert loop_rows(chained.loops) == loop_rows(sec.loops)
        # a triangle whose exit point lies strictly inside its edge, and the
        # next triangle, whose entry point is the same edge point
        inside = (0 < ends[:, 1, 2]) & (ends[:, 1, 2] < ends[:, 1, 3])
        va, vb, p, q = ends[np.flatnonzero(inside)[0], 1].tolist()
        nxt = np.flatnonzero((ends[:, 0] == (vb, va, q - p, q)).all(axis=1))
        assert len(nxt) == 1
        if mutant == "vertices-unswapped":
            ends[nxt, 0] = (va, vb, q - p, q)  # the right parameter read from the wrong end
        else:
            # the same numerator over another denominator, coprime to it
            ends[nxt, 0] = (vb, va, q - p, (q - p) * q + 1)
        with pytest.raises(DegeneracyError, match="disagree on their shared point"):
            _chain(SlicedCurves(mesh16, fld, [], {}, Steps(tri, ends), sec.walk_values))

    def test_tube_slicing_reads_no_frame(self, mesh16):
        # the displacements come from the cell wraps of the chain alone
        tube = slice_field(mesh16, TubeField(2, (HALF, Fraction(0)), TUBE_RADIUS))
        assert sorted(l.displacement for l in tube.loops) == [
            (0, 0, -1), (0, 0, -1), (0, 0, 1), (0, 0, 1)
        ]


# ---------------------------------------------------------------------------
# The exact cell-box prefilters: complete, and equal to a Fraction reference.
# ---------------------------------------------------------------------------


PLANE_LEVELS = [Fraction(0), HALF, Fraction(1, 3), Fraction(1, 4), -HALF, Fraction(3, 2)]
# Field factories: a tube field memoizes its vertex values and signs for one mesh.
PREFILTERED_PLANES = [
    pytest.param(partial(PlaneField, axis, level), id=f"plane{axis}-{level}")
    for axis in range(3)
    for level in PLANE_LEVELS
]
PREFILTERED_TUBES = [
    pytest.param(
        partial(TubeField, axis, center, radius), id=f"tube{axis}-{center[0]},{center[1]}-{radius}"
    )
    for axis, center in HOMOLOGY_AND_PAIR_TUBES
    for radius in RADII + [Fraction(1, 4)]
]
PREFILTERED_FIELDS = PREFILTERED_PLANES + PREFILTERED_TUBES
# Tubes off the pipeline's centres: a centre with thirds, an unreduced centre,
# and centres on cell-box ends at n = 16.
ODD_TUBES = [
    pytest.param(
        partial(TubeField, 0, (Fraction(1, 3), Fraction(3, 4)), TUBE_RADIUS), id="tube0-third"
    ),
    pytest.param(
        partial(TubeField, 2, (-HALF, Fraction(5, 4)), Fraction(1, 8)), id="tube2-unreduced"
    ),
    pytest.param(
        partial(TubeField, 1, (Fraction(3, 32), Fraction(-1, 32)), Fraction(3, 16)),
        id="tube1-box-ends",
    ),
]


class AllTriangles:
    """A field's values with no prefilter: every triangle is a candidate."""

    def __init__(self, fld):
        self.corner_ratios = fld.corner_ratios

    def candidate_triangles(self, mesh):
        return list(range(len(mesh.triangles)))


@pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16"])
@pytest.mark.parametrize("make_field", PREFILTERED_FIELDS)
class TestPrefilterCompleteness:
    def test_every_mixed_sign_triangle_is_a_candidate(self, request, mesh_name, make_field):
        mesh = request.getfixturevalue(mesh_name)
        fld = make_field()
        candidates = set(fld.candidate_triangles(mesh))
        num, _ = fld.corner_ratios(mesh, np.arange(len(mesh.triangles)))
        for tri, row in enumerate(num.tolist()):
            signs = {v >= 0 for v in row}
            if len(signs) == 2:
                assert tri in candidates, tri

    def test_slicing_equals_unfiltered_slicing(self, request, mesh_name, make_field):
        mesh = request.getfixturevalue(mesh_name)
        fld = make_field()
        sec = slice_field(mesh, fld)
        ref = slice_field(mesh, AllTriangles(fld))
        assert list(sec.tri_segments.items()) == list(ref.tri_segments.items())
        assert loop_rows(sec.loops) == loop_rows(ref.loops)  # steps and displacements


def reference_box_extremes(n, k, c):
    # least and greatest dper(x - c) over the box [(2k+1)/(2n), (2k+3)/(2n)]
    lo, hi = Fraction(2 * k + 1, 2 * n), Fraction(2 * k + 3, 2 * n)

    def holds(x):  # the box holds x mod 1
        return lo <= x + math.ceil(lo - x) <= hi

    ends = (dper(lo - c), dper(hi - c))
    near = Fraction(0) if holds(c) else min(ends)
    far = HALF if holds(c + HALF) else max(ends)
    return near, far


def reference_candidates(mesh, fld):
    n = mesh.resolution
    along = [reference_box_extremes(n, k, fld.level) for k in range(n)]
    cells = mesh.cell_array[:, fld.axis].tolist()
    return [tri for tri, cell in enumerate(cells) if along[cell][0] == 0]


class TestPrefilterExactness:
    @pytest.mark.parametrize(
        "make_field",
        PREFILTERED_PLANES
        + [
            pytest.param(partial(PlaneField, 1, Fraction(2, 7)), id="plane1-2/7"),
            # a level on a cell-box end at n = 16, whose antipode is a box end too
            pytest.param(partial(PlaneField, 2, Fraction(1, 32)), id="plane2-box-end"),
        ],
    )
    def test_candidates_equal_fraction_box_test(self, mesh16, make_field):
        fld = make_field()
        candidates = fld.candidate_triangles(mesh16)
        assert type(candidates) is np.ndarray and candidates.dtype == np.int64
        assert candidates.tolist() == reference_candidates(mesh16, fld)

    @pytest.mark.parametrize("make_field", PREFILTERED_TUBES + ODD_TUBES)
    def test_tube_sets_equal_corner_sign_sets(self, mesh16, make_field):
        # brute force: point_value on the exact coordinates of every corner
        fld = make_field()
        signs = [sign(fld.point_value(p)) for p in mesh16.vertices]
        corners = [[signs[v] for v in tri] for tri in mesh16.triangles.tolist()]
        candidates = fld.candidate_triangles(mesh16)
        assert type(candidates) is np.ndarray and candidates.dtype == np.int64
        one_sign = {tri for tri, s in enumerate(corners) if min(s) > 0 or max(s) < 0}
        assert candidates.tolist() == sorted(set(range(len(corners))) - one_sign)
        sliced = slice_field(mesh16, fld).segments.tri
        assert sliced.tolist() == [tri for tri, s in enumerate(corners) if min(s) < 0 <= max(s)]


# ---------------------------------------------------------------------------
# Walk sets: a walk reads the target only where its values can change sign.
# ---------------------------------------------------------------------------


BOX_END_TUBE = ODD_TUBES[2]

# Tubes through a mesh vertex at the far corner of a cell box, at n = 16 and at
# n = 8: that column's greatest squared distance equals r**2 exactly.
FAR_CORNER_TUBES = [
    pytest.param(
        partial(TubeField, 0, (Fraction(0), Fraction(1, 32)), Fraction(13, 32)), id="tube0-far-corner-16"
    ),
    pytest.param(
        partial(TubeField, 0, (Fraction(0), Fraction(1, 16)), Fraction(5, 16)), id="tube0-far-corner-8"
    ),
]


@pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16"])
@pytest.mark.parametrize("make_field", PREFILTERED_FIELDS + [BOX_END_TUBE] + FAR_CORNER_TUBES)
def test_walk_set_holds_every_triangle_without_one_strict_sign(request, mesh_name, make_field):
    mesh = request.getfixturevalue(mesh_name)
    fld = make_field()
    sec = slice_field(mesh, fld)
    walk = set(sec.walk_values[0].tolist())
    num, _ = fld.corner_ratios(mesh, np.arange(len(mesh.triangles)))
    for tri, vals in enumerate(num.tolist()):
        if not (all(v > 0 for v in vals) or all(v < 0 for v in vals)):
            assert tri in walk, tri
    assert set(sec.segments.tri.tolist()) <= walk


def test_box_end_tube_walks_zero_corners_that_slicing_skips(mesh16):
    # columns whose box only touches the tube hold zero corners; slicing and
    # walking count them positive, so these triangles hold no segment
    fld = BOX_END_TUBE.values[0]()
    sec = slice_field(mesh16, fld)
    touching = set(sec.walk_values[0].tolist()) - set(sec.segments.tri.tolist())
    num, _ = fld.corner_ratios(mesh16, sorted(touching))
    assert sum(any(v == 0 for v in row) for row in num.tolist()) == 7


class MixedTriangles:
    """A field's values over exactly its mixed triangles, zero counting
    positive, found by brute force over every triangle of one mesh."""

    def __init__(self, fld, mesh):
        self.corner_ratios = fld.corner_ratios
        num, _ = fld.corner_ratios(mesh, np.arange(len(mesh.triangles)))
        self.mixed = [tri for tri, row in enumerate(num.tolist()) if len({v >= 0 for v in row}) == 2]

    def candidate_triangles(self, mesh):
        return self.mixed


@pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16"])
@pytest.mark.parametrize("make_field", PREFILTERED_FIELDS + [BOX_END_TUBE] + FAR_CORNER_TUBES)
def test_slicing_the_closed_set_equals_slicing_the_mixed_set(request, mesh_name, make_field):
    # a closed candidate set adds only triangles that slicing drops itself
    mesh = request.getfixturevalue(mesh_name)
    fld = make_field()
    mixed = MixedTriangles(fld, mesh)
    sec, ref = slice_field(mesh, fld), slice_field(mesh, mixed)
    assert set(mixed.mixed) <= set(sec.walk_values[0].tolist())
    assert list(sec.tri_segments.items()) == list(ref.tri_segments.items())
    assert loop_rows(sec.loops) == loop_rows(ref.loops)  # steps, displacements and signs


# ---------------------------------------------------------------------------
# The exact vertex-sign vector of a tube field.
# ---------------------------------------------------------------------------


def point_value_signs(mesh, fld):
    return [sign(fld.point_value(int_row(mesh, v))) for v in range(len(mesh.vertices))]


@pytest.mark.parametrize("mesh_name", ["mesh16", "mesh32"])
@pytest.mark.parametrize("make_field", PREFILTERED_TUBES + ODD_TUBES + FAR_CORNER_TUBES)
def test_vertex_signs_equal_point_value_signs(request, mesh_name, make_field):
    mesh = request.getfixturevalue(mesh_name)
    fld = make_field()
    signs = fld.vertex_signs(mesh)
    assert signs.dtype == np.int8
    assert signs.tolist() == point_value_signs(mesh, fld)


@pytest.mark.parametrize("mesh_name", ["mesh16", "mesh32"])
@pytest.mark.parametrize("make_field", PREFILTERED_TUBES + ODD_TUBES)
def test_vertex_ratios_equal_point_value(request, mesh_name, make_field):
    mesh, fld = request.getfixturevalue(mesh_name), make_field()
    num, den = fld.vertex_ratios(mesh)
    assert num.dtype == den.dtype == np.int64 and num.shape == (len(mesh.vertices),)
    assert (den > 0).all()
    values = [fld.point_value(int_row(mesh, v)) for v in range(len(mesh.vertices))]
    assert list(map(Fraction, num.tolist(), den.tolist())) == values
    assert fld.vertex_signs(mesh).tolist() == [sign(f) for f in values]


def test_vertex_ratios_read_on_a_second_mesh_are_that_meshs(mesh16, mesh32):
    reused = TubeField(2, (HALF, Fraction(0)), TUBE_RADIUS)
    for mesh in (mesh16, mesh32, mesh16):
        fresh = TubeField(2, (HALF, Fraction(0)), TUBE_RADIUS)
        for got, want in zip(reused.vertex_ratios(mesh), fresh.vertex_ratios(mesh)):
            assert got.shape == (len(mesh.vertices),) and (got == want).all()
        assert (reused.vertex_signs(mesh) == fresh.vertex_signs(mesh)).all()


@pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16", "mesh32"])
@pytest.mark.parametrize("axis,center", HOMOLOGY_AND_PAIR_TUBES)
def test_exact_zero_vertices_of_the_pipeline_tubes(request, mesh_name, axis, center):
    # 16 vertices lie on each tube at the default radius and 12 at 1/4, and 4
    # of the 12 lie on no sliced triangle; the probe radii meet no vertex
    mesh = request.getfixturevalue(mesh_name)
    for radius, zeros, off_slices in [(TUBE_RADIUS, 16, 0), (Fraction(1, 4), 12, 4)] + [
        (r, 0, 0) for r in (RADII[0], RADII[2])
    ]:
        fld = TubeField(axis, center, radius)
        on_zero = set(np.flatnonzero(fld.vertex_signs(mesh) == 0).tolist())
        sliced = {v for tri in slice_field(mesh, fld).tri_segments for v in mesh.triangles[tri].tolist()}
        assert (len(on_zero), len(on_zero - sliced)) == (zeros, off_slices)


def test_vertex_signs_evaluate_no_vertex_within_the_bound(mesh32, monkeypatch):
    def refuse(self, p):
        raise AssertionError("an in-bound sign vector called point_value")

    monkeypatch.setattr(TubeField, "point_value", refuse)
    for radius in RADII:
        assert TubeField(2, (HALF, Fraction(0)), radius).vertex_signs(mesh32).any()


def edge_of_bound_radius(mesh, lcm, step=0):
    # the largest radius denominator the int64 form accepts on this mesh, or
    # ``step`` more
    rd = math.isqrt(2**63 - 1) // (int(mesh.vertex_den.max()) * lcm) + step
    rn = next(k for k in range(rd * 5 // 16, rd) if math.gcd(k, rd) == 1)
    return Fraction(rn, rd)


@pytest.mark.parametrize(
    "center,radius,past",
    [
        ((HALF, Fraction(0)), Fraction(5 * 2**40 + 1, 2**44), True),
        ((Fraction(1, 3**10), HALF), TUBE_RADIUS, True),
        ((HALF, Fraction(0)), 0, False),
        # reduced mod 1, a centre many periods away keeps the int64 form
        ((Fraction(3 * 10**18 + 1, 3), Fraction(-(10**18))), TUBE_RADIUS, False),
        ((HALF, Fraction(0)), 1, True),
    ],
    ids=["radius-past", "centre-past", "radius-at-edge", "centre-far-periods", "radius-one-past"],
)
def test_sign_vector_at_and_past_the_int64_bound(mesh16, monkeypatch, center, radius, past):
    if isinstance(radius, int):
        radius = edge_of_bound_radius(mesh16, 2, step=radius)
    calls = []
    point_value = TubeField.point_value

    def counted(self, p):
        calls.append(p)
        return point_value(self, p)

    fld = TubeField(2, center, radius)
    monkeypatch.setattr(TubeField, "point_value", counted)
    with np.errstate(over="raise"):
        signs = fld.vertex_signs(mesh16)
        sec = slice_field(mesh16, fld)
    monkeypatch.undo()
    assert_kernel_bound(mesh16, fld, past)
    # past the bound every vertex goes to point_value, and only then
    assert len(calls) >= len(mesh16.vertices) if past else len(calls) < len(mesh16.vertices)
    assert signs.tolist() == point_value_signs(mesh16, fld)
    ref = slice_field(mesh16, AllTriangles(fld))
    assert sec.loops and list(sec.tri_segments.items()) == list(ref.tri_segments.items())
    assert loop_rows(sec.loops) == loop_rows(ref.loops)


def tube_kernel_peak(mesh, fld):
    # every intermediate of ``TubeField.vertex_ratios``, in Python ints over
    # every vertex: the largest magnitude and the bound the kernel checks
    rn, rd = abs(fld.radius).as_integer_ratio()
    (un, ud), (vn, vd) = ((c - math.floor(c)).as_integer_ratio() for c in fld.center)
    lcm = math.lcm(ud, vd)
    peak = max(rn**2, rd**2)
    for row, den in zip(mesh.vertex_num.tolist(), mesh.vertex_den.tolist()):
        big, square = den * lcm, 0
        for col, cn, cd in zip(fld.trans, (un, vn), (ud, vd)):
            a, b = row[col] % den * lcm, cn * (lcm // cd) * den
            m = (a - b) % big
            square += min(m, big - m) ** 2
            peak = max(peak, abs(row[col]), a, cn * (lcm // cd), b, abs(a - b), big, square)
        scaled, radial = square * rd**2, rn**2 * big**2
        peak = max(peak, scaled, big**2, radial, abs(scaled - radial), big * rd, (big * rd) ** 2)
    return peak, (int(mesh.vertex_den.max()) * lcm * max(rn, rd)) ** 2


def plane_kernel_peak(mesh, fld):
    # every intermediate of ``PlaneField.corner_ratios`` over every triangle,
    # with both the box's and the exact mean's representative on each, in
    # Python ints: the largest magnitude and the bound the kernel checks
    n, (fn, ld) = mesh.resolution, fld.level.as_integer_ratio()
    fn, unit = fn % ld, 2 * n * ld
    const = ld + n * ld - 2 * n * fn
    peak = max(ld, 2 * ld, n * ld, 2 * n * fn, unit, abs(const), unit - 2 * ld)
    xs, dens = mesh.vertex_num[:, fld.axis].tolist(), mesh.vertex_den.tolist()
    for tri, cell in zip(mesh.triangles.tolist(), mesh.cell_array[:, fld.axis].tolist()):
        corners = []
        for v in tri:
            x, den = xs[v], dens[v]
            shift = den * (cell == n - 1 and 2 * x < den)
            peak = max(peak, x, 2 * x, den, shift, x + shift)
            corners.append((x + shift, den))
        low = cell * 2 * ld + const
        k = low // unit
        (x0, d0), (x1, d1), (x2, d2) = corners
        prod, total = d0 * d1 * d2, x0 * d1 * d2 + x1 * d0 * d2 + x2 * d0 * d1
        exact = fn + (2 * total * ld - (6 * fn - 3 * ld) * prod) // (6 * ld * prod) * ld
        peak = max(peak, abs(cell * 2 * ld), abs(low), abs(k), abs(k * unit))
        peak = max(peak, abs(k * unit + unit - 2 * ld), abs(k * ld))
        for rn in (k * ld + fn, exact):
            for x, den in corners:
                peak = max(peak, abs(rn), abs(x * ld), abs(rn * den), abs(x * ld - rn * den))
                peak = max(peak, den * ld)
    return peak, 8 * ld * max(int(mesh.vertex_den.max()), n)


def assert_kernel_bound(mesh, fld, past):
    # numpy wraps int64 array arithmetic silently, even under
    # ``np.errstate(over="raise")``, so the bound is proved here instead: in
    # bound every intermediate is below 2**63 and the kernel took int64, past
    # it the kernel took Python ints
    if isinstance(fld, TubeField):
        (peak, bound), num = tube_kernel_peak(mesh, fld), fld.vertex_ratios(mesh)[0]
    else:
        peak, bound = plane_kernel_peak(mesh, fld)
        num = fld.corner_ratios(mesh, np.arange(len(mesh.triangles)))[0]
    assert peak <= bound
    assert (bound >= 2**63) == past
    assert num.dtype == (object if past else np.int64)
    assert past or peak < 2**63


def reference_sign(vals, verts, pt, zero):
    va, vb, t = pt
    fa, fb = vals[verts.index(va)], vals[verts.index(vb)]
    value = fa + t * (fb - fa)
    return zero if value == 0 else 1 if value > 0 else -1


def reference_zero_vertices(vals, verts, points):
    # the target's vanishing corners under edge points where it vanishes
    zero_verts = set()
    for va, vb, t in points:
        fa, fb = vals[verts.index(va)], vals[verts.index(vb)]
        if fa + t * (fb - fa) == 0:
            zero_verts.update(v for v, f in ((va, fa), (vb, fb)) if f == 0)
    return zero_verts


def reference_vertex_loop(target, zero_verts):
    # scan every sliced triangle for a segment point on a vanishing vertex
    loop_ids = set()
    for tri, segment in target.tri_segments.items():
        for wa, wb, s in segment:
            if (s == 0 and wa in zero_verts) or (s == 1 and wb in zero_verts):
                loop_ids.add(target.tri_loop[tri])
    if len(loop_ids) != 1:
        raise DegeneracyError(sorted(loop_ids))
    return loop_ids.pop()


def reference_walk(steps, walker_sign, target, events, zero=1):
    # reads the target's values at every step, an exact zero as ``zero``, and
    # records each crossing's triangle in ``events``; read as -1, a zero can put
    # a crossing in an unsliced triangle, attributed through its vanishing vertices
    out = {}
    tris = [tri for tri, _, _ in steps]
    values = kernel_values(*target.field.corner_ratios(target.mesh, tris))
    for (tri, pt_in, pt_out), vals in zip(steps, values, strict=True):
        verts = target.mesh.triangles[tri].tolist()
        s_in, s_out = (reference_sign(vals, verts, pt, zero) for pt in (pt_in, pt_out))
        if s_in == s_out:
            continue
        events.append(tri)
        li = target.tri_loop.get(tri)
        if li is None:
            zero_verts = reference_zero_vertices(vals, verts, (pt_in, pt_out))
            li = reference_vertex_loop(target, zero_verts)
        rec = out.setdefault(li, [0, 0])
        rec[0] += (1 if s_out > 0 else -1) * walker_sign * target.loops[li].orientation_sign
        rec[1] += 1
    return out


def algebraic(counts):
    return {li: alg for li, (alg, _) in counts.items() if alg}


def walk_outcome(walk, *args):
    try:
        return walk(*args)
    except DegeneracyError:
        return DegeneracyError


WALKED_FIELDS = [
    partial(PlaneField, axis, level) for axis in range(3) for level in (Fraction(0), HALF, Fraction(1, 3))
] + [
    partial(TubeField, axis, center, radius)
    for axis, center in HOMOLOGY_AND_PAIR_TUBES
    for radius in RADII + [Fraction(1, 4)]
]


WALKED_IDS = [
    f"plane{make.args[0]}-{make.args[1]}" if make.func is PlaneField
    else f"tube{make.args[0]}-{make.args[1][0]},{make.args[1][1]}-{make.args[2]}"
    for make in WALKED_FIELDS
]


@pytest.fixture(scope="module")
def walked_sections(request):
    cache = {}

    def sections(mesh_name):
        if mesh_name not in cache:
            mesh = request.getfixturevalue(mesh_name)
            cache[mesh_name] = [slice_field(mesh, make()) for make in WALKED_FIELDS]
        return cache[mesh_name]

    return sections


class TestWalkPairingEquivalence:
    @pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16"])
    @pytest.mark.parametrize("target_index", range(len(WALKED_FIELDS)), ids=WALKED_IDS)
    def test_walk_equals_walk_over_every_step(self, walked_sections, mesh_name, target_index):
        sections = walked_sections(mesh_name)
        target = sections[target_index]
        events = []
        for walker in sections:
            for loop in walker.loops:
                args = (walk_steps(loop), loop.orientation_sign, target)
                expected = walk_outcome(reference_walk, *args, events)
                assert walk_outcome(walk_pairing, *args) == expected
        assert set(events) <= target.tri_loop.keys()  # every crossing is in a sliced triangle

    @pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16", "mesh32"])
    @pytest.mark.parametrize("target_index", range(len(WALKED_FIELDS)), ids=WALKED_IDS)
    def test_walk_equals_the_zero_negative_walk(self, walked_sections, mesh_name, target_index):
        # a walk that reads a zero as -1, as walks once did, gives the same outcomes
        # off the critical radius 1/4; there it may refuse or count other
        # crossings, but wherever it counts its algebraic counts are the same
        sections = walked_sections(mesh_name)
        target = sections[target_index]
        critical = isinstance(target.field, TubeField) and target.field.radius == Fraction(1, 4)
        for walker in sections:
            for loop in walker.loops:
                args = (walk_steps(loop), loop.orientation_sign, target)
                got, old = walk_pairing(*args), walk_outcome(reference_walk, *args, [], -1)
                if not critical:
                    assert got == old
                elif old is not DegeneracyError:
                    assert algebraic(got) == algebraic(old)

    def test_walk_reads_no_candidate_filter(self, mesh16, monkeypatch):
        # a walk reads the candidate set its target kept at slicing
        plane = slice_field(mesh16, PlaneField(0, HALF))
        tube = slice_field(mesh16, TubeField(1, (Fraction(0), HALF), Fraction(1, 4)))

        def refuse(self, mesh):
            raise AssertionError("a walk called candidate_triangles")

        monkeypatch.setattr(PlaneField, "candidate_triangles", refuse)
        monkeypatch.setattr(TubeField, "candidate_triangles", refuse)
        for walker, target in ((tube, plane), (plane, tube)):
            for loop in walker.loops:
                args = (walk_steps(loop), loop.orientation_sign, target)
                assert walk_pairing(*args) == reference_walk(*args, [])


def test_tube_field_read_on_a_second_mesh_reads_that_mesh(mesh8, mesh16):
    center = (HALF, Fraction(0))
    reused = TubeField(2, center, TUBE_RADIUS)
    slice_field(mesh8, reused)
    sec = slice_field(mesh16, reused)
    fresh = slice_field(mesh16, TubeField(2, center, TUBE_RADIUS))
    assert list(sec.tri_segments.items()) == list(fresh.tri_segments.items())
    assert loop_rows(sec.loops) == loop_rows(fresh.loops)


# ---------------------------------------------------------------------------
# The bulk corner kernels against the Fraction formulas, on every triangle.
# ---------------------------------------------------------------------------


def reference_corner_values(mesh, fld, frames):
    # the Fraction formulas: per triangle frame for a plane, per vertex for a tube
    if isinstance(fld, PlaneField):
        return [reference_plane_values(fld.axis, fld.level, frame) for frame in frames]
    at = [reference_tube_value(fld.axis, fld.center, fld.radius, p) for p in mesh.vertices]
    return [tuple(at[v] for v in tri) for tri in mesh.triangles.tolist()]


def kernel_values(num, den):
    return [tuple(map(Fraction, n, d)) for n, d in zip(num.tolist(), den.tolist())]


@pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16"])
@pytest.mark.parametrize("make_field", PREFILTERED_FIELDS)
def test_corner_ratios_on_every_triangle(request, frames, mesh_name, make_field):
    mesh, fld = request.getfixturevalue(mesh_name), make_field()
    triangles = np.arange(len(mesh.triangles))
    num, den = fld.corner_ratios(mesh, triangles)
    assert num.shape == den.shape == (len(triangles), 3)
    assert (den > 0).all()
    values = kernel_values(num, den)
    assert values == reference_corner_values(mesh, fld, frames(mesh_name))
    for tri in range(0, len(mesh.triangles), 97):
        assert kernel_values(*fld.corner_ratios(mesh, [tri])) == [values[tri]]
    # the kernel is exact on any triangle list: reversed, repeated, empty
    some = triangles[::-37].tolist() * 2
    assert kernel_values(*fld.corner_ratios(mesh, some)) == [values[tri] for tri in some]
    assert fld.corner_ratios(mesh, [])[0].shape == (0, 3)


@pytest.fixture(scope="module")
def mesh64():
    return build_surface(64)


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("level", PLANE_LEVELS + [Fraction(2, 7), Fraction(1, 128)], ids=str)
def test_plane_kernel_where_the_exact_mean_decides(mesh64, axis, level):
    # in the cells whose box holds level + 1/2 mod 1 the branch switches
    # inside the box, so the kernel takes the exact mean there
    from t3mcg.mesh.curves import cell_boxes_holding

    fld = PlaneField(axis, level)
    holds = cell_boxes_holding(mesh64.resolution, level + HALF)[mesh64.cell_array[:, axis]]
    tris = np.flatnonzero(holds).tolist()
    assert tris
    values = kernel_values(*fld.corner_ratios(mesh64, tris))
    reps = set()
    for tri, got in zip(tris, values):
        frame = triangle_local(mesh64, tri)
        assert got == reference_plane_values(axis, level, frame), tri
        reps.add(frame[0][axis] - got[0])
    assert len(reps) == 2  # both branches are taken


def edge_of_bound_level(mesh, past):
    # the largest level denominator whose int64 form the plane kernel accepts,
    # one 64 times larger, whose values would overflow int64, or one more
    ld = (2**63 - 1) // (8 * max(int(mesh.vertex_den.max()), mesh.resolution))
    ld = [ld, 64 * ld + 1, ld + 1][past]
    return Fraction(next(k for k in range(ld // 2, ld) if math.gcd(k, ld) == 1), ld)


@pytest.mark.parametrize("past", [0, 1, 2], ids=["at-edge", "past", "one-past"])
def test_plane_kernel_at_and_past_the_int64_bound(mesh16, frames, past):
    fld = PlaneField(1, edge_of_bound_level(mesh16, past))
    triangles = np.arange(len(mesh16.triangles))
    with np.errstate(over="raise"):
        num, den = fld.corner_ratios(mesh16, triangles)
        sec = slice_field(mesh16, fld)
    assert_kernel_bound(mesh16, fld, bool(past))
    assert num.dtype == (object if past else np.int64)
    assert kernel_values(num, den) == reference_corner_values(mesh16, fld, frames("mesh16"))
    ref = slice_field(mesh16, AllTriangles(fld))
    assert sec.loops and list(sec.tri_segments.items()) == list(ref.tri_segments.items())
    assert loop_rows(sec.loops) == loop_rows(ref.loops)


def test_tube_slicing_at_the_edge_of_bound_radius(mesh16, frames):
    fld = TubeField(2, (HALF, Fraction(0)), edge_of_bound_radius(mesh16, 2))
    with np.errstate(over="raise"):
        sec = slice_field(mesh16, fld)
        num, den = fld.corner_ratios(mesh16, fld.candidate_triangles(mesh16))
    assert_kernel_bound(mesh16, fld, past=False)
    reference = reference_corner_values(mesh16, fld, frames("mesh16"))
    assert kernel_values(num, den) == [reference[tri] for tri in fld.candidate_triangles(mesh16)]
    assert sec.loops
    assert loop_rows(sec.loops) == loop_rows(slice_field(mesh16, AllTriangles(fld)).loops)


# ---------------------------------------------------------------------------
# Crossing parameters reduced in numpy: equal to the Fraction formula.
# ---------------------------------------------------------------------------


def fraction_crossings(na, da, nb, db):
    return [
        (f.numerator, f.denominator)
        for f in (Fraction(x * w, x * w - y * z) for x, z, y, w in zip(na, da, nb, db))
    ]


def assert_crossings(na, da, nb, db):
    p, q = crossing_parameters(*(np.asarray(x) for x in (na, da, nb, db)))
    got = list(zip(p.tolist(), q.tolist()))
    assert got == fraction_crossings(na, da, nb, db)
    assert all(math.gcd(x, y) == 1 and y > 0 for x, y in got)
    return p


@pytest.mark.parametrize("make_field", PREFILTERED_FIELDS)
def test_crossing_parameters_on_every_sliced_edge(mesh16, make_field):
    fld = make_field()
    num, den = fld.corner_ratios(mesh16, fld.candidate_triangles(mesh16))
    crossed = 0
    for a in range(3):
        b = (a + 1) % 3
        rows = (num[:, a] >= 0) != (num[:, b] >= 0)
        crossed += int(rows.sum())
        ends = (num[rows, a], den[rows, a], num[rows, b], den[rows, b])
        p = assert_crossings(*(x.tolist() for x in ends))  # the Fraction formula in Python ints
        assert p.dtype == np.int64
    assert crossed > 0


_crossing_corner = st.tuples(st.integers(0, 2**40), st.integers(1, 2**40))
_factor = st.integers(1, 2**8)


@settings(max_examples=300, deadline=None)
@given(_crossing_corner, _crossing_corner, _factor, _factor, _factor, st.booleans())
def test_crossing_parameters_equal_the_fraction_formula(pos, neg, s, u, c, entry):
    # a corner >= 0 and one < 0, unreduced by c, with common factors s of
    # their numerators and u of their denominators, either way round
    (pn, pd), (nn, nd) = pos, neg
    a, b = (pn * s * c, pd * u * c), (-(nn + 1) * s, nd * u)
    (na, da), (nb, db) = (a, b) if entry else (b, a)
    assert_crossings([na], [da], [nb], [db])


def test_crossing_parameters_at_zero_corners():
    # t = 0 at a zero first corner, t = 1 at a zero second one
    p = assert_crossings([0, 0, -6, -5], [4, 7, 9, 1], [-3, -8, 0, 0], [2, 5, 4, 3])
    assert p.tolist() == [0, 0, 1, 1]


def test_crossing_parameters_one_past_the_int64_bound():
    # |na| at (2**62 - 1)//db stays int64; one more takes Python ints
    limit = (2**62 - 1) // 3
    for na, kind in ((limit, np.int64), (limit + 1, object)):
        assert math.gcd(na, 5) == 1
        p = assert_crossings([na], [5], [-1], [3])
        assert p.dtype == kind
        q = assert_crossings([-1], [3], [na], [5])  # the bound on nb*da likewise
        assert q.dtype == kind


# ---------------------------------------------------------------------------
# Stored crossing points: reduced integer columns, no Fraction until read.
# ---------------------------------------------------------------------------


PAST_BOUND_TUBE = partial(TubeField, 2, (HALF, Fraction(0)), Fraction(5 * 2**40 + 1, 2**44))


@pytest.mark.parametrize(
    "make_field,past",
    [pytest.param(*p.values, False, id=p.id) for p in PREFILTERED_FIELDS]
    + [pytest.param(PAST_BOUND_TUBE, True, id="tube2-past-bound")],
)
def test_stored_crossing_parameters_are_reduced(mesh16, make_field, past):
    sec = slice_field(mesh16, make_field())
    seg = sec.segments
    assert len(seg) > 0 and seg.ends.shape == (len(seg), 2, 4)
    assert seg.ends.dtype == (object if past else np.int64)
    rows = seg.ends.tolist()
    for point in (pt for row in rows for pt in row):
        assert all(type(x) is int for x in point)
        _, _, p, q = point
        assert 0 <= p <= q and math.gcd(p, q) == 1
    # the views read the same points, with Fraction parameters
    for (tri, *points), row in zip(seg, rows):
        assert points == [(a, b, Fraction(p, q)) for a, b, p, q in row]
        assert sec.tri_segments[tri] == tuple(points)


def test_slicing_and_walking_build_no_fraction(mesh16):
    def live_fractions():
        return sum(type(o) is Fraction for o in gc.get_objects())

    fields = [PlaneField(axis, HALF) for axis in range(3)]
    fields += [TubeField(axis, (HALF, Fraction(0)), TUBE_RADIUS) for axis in range(3)]
    gc.collect()
    before = live_fractions()
    sections = [slice_field(mesh16, fld) for fld in fields]
    walks = [
        walk_pairing(walk_steps(loop), loop.orientation_sign, target)
        for walker in sections
        for loop in walker.loops
        for target in sections
    ]
    assert sum(len(sec.loops) for sec in sections) == 3 + 12 and any(walks)
    assert sum(len(sec.tri_segments) + sum(len(l.steps) for l in sec.loops) for sec in sections)
    assert live_fractions() == before


# ---------------------------------------------------------------------------
# Each exact value once: walk values per target, one squared-distance pass
# per tube line, and the batched loop bookkeeping against the per-loop walk.
# ---------------------------------------------------------------------------


PAST_BOUND_RADIUS = Fraction(5 * 2**40 + 1, 2**44)
WALK_VALUE_FIELDS = [
    pytest.param(partial(PlaneField, 0, HALF), id="plane0-1/2"),
    pytest.param(partial(TubeField, 2, (HALF, Fraction(0)), TUBE_RADIUS), id="tube2"),
    BOX_END_TUBE,
    pytest.param(partial(TubeField, 2, (HALF, Fraction(0)), PAST_BOUND_RADIUS), id="tube2-past"),
]


class CountedField:
    """A field whose ``corner_ratios`` calls are counted."""

    def __init__(self, fld):
        self.fld, self.calls = fld, 0

    def corner_ratios(self, mesh, tris):
        self.calls += 1
        return self.fld.corner_ratios(mesh, tris)

    def __getattr__(self, name):
        return getattr(self.fld, name)


class TestWalkValues:
    @pytest.mark.parametrize("make_field", WALK_VALUE_FIELDS)
    def test_rows_are_the_corner_ratios_of_the_sorted_walk_set(self, mesh16, make_field):
        sec = slice_field(mesh16, make_field())
        tris, num, den = sec.walk_values
        walk = make_field().candidate_triangles(mesh16)  # a field that sliced nothing
        assert type(walk) is np.ndarray and walk.dtype == tris.dtype == np.int64
        walk = walk.tolist()
        assert tris.tolist() == walk == sorted(set(walk))
        want_num, want_den = sec.field.corner_ratios(mesh16, walk)
        past = isinstance(sec.field, TubeField) and sec.field.radius == PAST_BOUND_RADIUS
        assert num.dtype == den.dtype == want_num.dtype == (object if past else np.int64)
        assert want_den.dtype == den.dtype
        assert num.tolist() == want_num.tolist() and den.tolist() == want_den.tolist()

    @pytest.mark.parametrize("make_field", WALK_VALUE_FIELDS)
    def test_one_corner_ratios_call_per_target(self, mesh16, make_field):
        counted = CountedField(make_field())
        target = slice_field(mesh16, counted)
        plain = slice_field(mesh16, make_field())
        assert counted.calls == 1  # slicing's own call
        walkers = [plane_section(mesh16, axis, HALF) for axis in (1, 2, 3)]
        walkers += [slice_field(mesh16, TubeField(axis, (HALF, Fraction(0)), TUBE_RADIUS)) for axis in range(3)]
        walks = 0
        for walker in walkers:
            for loop in walker.loops:
                args = (walk_steps(loop), loop.orientation_sign)
                assert walk_pairing(*args, target) == walk_pairing(*args, plain)
                walks += 1
        assert walks == 15 and counted.calls == 1

    def test_walk_against_an_empty_walk_set(self, mesh16):
        # a thin tube around the origin spine stays inside one handlebody
        target = slice_field(mesh16, TubeField(0, (Fraction(0), Fraction(0)), Fraction(1, 16)))
        assert not len(target.field.candidate_triangles(mesh16))
        assert not target.loops and len(target.walk_values[0]) == 0
        for loop in plane_section(mesh16, 1, HALF).loops + tube_section(mesh16, 3, (HALF, Fraction(0))).loops:
            assert walk_pairing(walk_steps(loop), loop.orientation_sign, target) == {}


@pytest.mark.parametrize("make_field", [BOX_END_TUBE] + FAR_CORNER_TUBES[:1])
def test_a_sliced_walk_target_reads_its_signs_once(mesh16, make_field, monkeypatch):
    # slicing reads the corner signs once; walks read the set the section keeps
    walker = plane_section(mesh16, 3, HALF).loops[0]
    reads = []
    vertex_signs = TubeField.vertex_signs
    monkeypatch.setattr(
        TubeField, "vertex_signs", lambda self, mesh: reads.append(self) or vertex_signs(self, mesh)
    )
    target = slice_field(mesh16, make_field())
    tris, _, _ = target.walk_values
    walk_pairing(walk_steps(walker), walker.orientation_sign, target)
    assert len(reads) == 1
    assert make_field().candidate_triangles(mesh16).tolist() == tris.tolist()
    assert len(reads) == 2  # a field that sliced nothing reads its own


@pytest.fixture
def squared_offsets_passes(monkeypatch):
    """Weak references to the result of every ``TubeField.squared_offsets`` pass."""
    passes = []
    squared_offsets = TubeField.squared_offsets

    def counted(self, mesh):
        square = squared_offsets(self, mesh)
        passes.append(weakref.ref(square))
        return square

    monkeypatch.setattr(TubeField, "squared_offsets", counted)
    return passes


@pytest.fixture
def sliced_fields(monkeypatch):
    """Every field ``tube_section`` slices, in order."""
    fields = []
    slice_field_ = curves.slice_field

    def recorded(mesh, fld):
        fields.append(fld)
        return slice_field_(mesh, fld)

    monkeypatch.setattr(curves, "slice_field", recorded)
    return fields


class TestSharedTubeLine:
    @pytest.mark.parametrize("axis,center", HOMOLOGY_AND_PAIR_TUBES)
    def test_one_radius_free_pass_per_tube_section(self, mesh16, squared_offsets_passes, axis, center):
        for calls in (1, 2):
            tube_section(mesh16, axis + 1, center)
            assert len(squared_offsets_passes) == calls

    def test_no_pass_past_the_bound(self, mesh16, squared_offsets_passes, sliced_fields):
        sec = tube_section(mesh16, 3, (HALF, Fraction(0)), PAST_BOUND_RADIUS)
        assert len(sec.loops) == 4 and len(sliced_fields) == 3
        assert not squared_offsets_passes

    @pytest.mark.parametrize("axis,center", HOMOLOGY_AND_PAIR_TUBES)
    @pytest.mark.parametrize("radius", [TUBE_RADIUS, Fraction(2, 7), PAST_BOUND_RADIUS])
    def test_each_field_reads_its_own_radius(self, mesh16, sliced_fields, axis, center, radius):
        sec = tube_section(mesh16, axis + 1, center, radius)
        factors = [1, Fraction(15, 16), Fraction(17, 16)]
        assert [fld.radius for fld in sliced_fields] == [radius * f for f in factors]
        assert sliced_fields[0] is sec.field
        for fld in sliced_fields:
            fresh = TubeField(axis, center, fld.radius)
            for got, want in zip(fld.vertex_ratios(mesh16), fresh.vertex_ratios(mesh16)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(fld.vertex_signs(mesh16), fresh.vertex_signs(mesh16))

    def test_nothing_shared_outlives_the_call(self, mesh16, squared_offsets_passes, sliced_fields):
        sec = tube_section(mesh16, 3, (HALF, Fraction(0)))
        assert len(squared_offsets_passes) == 1 and len(sliced_fields) == 3
        gc.collect()
        # the three fields are still held here, the pass they shared is gone
        assert squared_offsets_passes[0]() is None
        # and the section's field reads another mesh without keeping a pass
        sec.field.vertex_ratios(build_surface(8))
        gc.collect()
        assert len(squared_offsets_passes) == 2 and squared_offsets_passes[1]() is None

    def test_a_refused_probe_keeps_no_pass(self, mesh32, squared_offsets_passes):
        with pytest.raises(TransversalityError):
            tube_section(mesh32, 3, (HALF, Fraction(0)), Fraction(1, 4))
        gc.collect()
        assert squared_offsets_passes and all(ref() is None for ref in squared_offsets_passes)


def chained_columns(sec):
    return (
        list(sec.tri_loop.items()),
        [(l.steps.tri.tolist(), l.steps.ends.tolist(), l.displacement) for l in sec.loops],
    )


@pytest.mark.parametrize("mesh_name", ["mesh8", "mesh16", "mesh32"])
def test_chain_equals_the_per_loop_walk(request, mesh_name):
    mesh = request.getfixturevalue(mesh_name)
    sections = [plane_section(mesh, axis, level) for axis in (1, 2, 3) for level in (HALF, Fraction(0))]
    sections += [pair_tube(mesh, i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    if mesh_name == "mesh16":
        sections.append(slice_field(mesh, TubeField(2, (HALF, Fraction(0)), PAST_BOUND_RADIUS)))
    assert sections[-1].segments.ends.dtype == (object if mesh_name == "mesh16" else np.int64)
    for sec in sections:
        segments = [sec.segments]
        if len(sec.loops) > 1:
            # without its first loop a tube's displacements are no palindrome
            segments.append(sec.segments.take(~np.isin(sec.segments.tri, sec.loops[0].steps.tri)))
        for seg in segments:
            got = _chain(SlicedCurves(mesh, sec.field, [], {}, seg, sec.walk_values))
            want = chain_reference(SlicedCurves(mesh, sec.field, [], {}, seg, sec.walk_values))
            assert chained_columns(got) == chained_columns(want)
            assert loop_rows(got.loops) == loop_rows(want.loops)
            assert all(type(x) is int for loop in got.loops for x in loop.displacement)
            assert all(type(k) is int and type(v) is int for k, v in got.tri_loop.items())


class TestRefusals:
    def test_cutting_along_a_plane_section_is_refused(self, mesh16):
        with pytest.raises(ValueError, match="^cutting needs a pointwise field$"):
            cut_along(mesh16, plane_section(mesh16, 1, HALF))

    def test_cutting_an_open_mesh_is_refused(self, mesh16):
        import dataclasses

        tube = tube_section(mesh16, 3, (HALF, Fraction(0)))
        open_mesh = dataclasses.replace(mesh16, triangles=mesh16.triangles[1:],
                                        cell_array=mesh16.cell_array[1:])
        with pytest.raises(ValueError, match="^mesh is not closed$"):
            cut_along(open_mesh, tube)

    def test_an_unsliced_triangle_has_no_segment(self, mesh16):
        sec = plane_section(mesh16, 1, HALF)
        sliced = set(sec.segments.tri.tolist())
        tri = next(t for t in range(len(mesh16.triangles)) if t not in sliced)
        with pytest.raises(KeyError) as info:
            sec.tri_segments[tri]
        assert info.value.args == (tri,)
        past = len(mesh16.triangles)  # past the last sliced triangle
        with pytest.raises(KeyError) as info:
            sec.tri_segments[past]
        assert info.value.args == (past,)

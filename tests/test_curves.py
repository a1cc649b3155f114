from fractions import Fraction

import pytest

from t3mcg.mesh.curves import (
    TUBE_RADIUS,
    TransversalityError,
    TubeField,
    cut_along,
    plane_section,
    slice_field,
    tube_section,
    walk_pairing,
    walk_steps,
)

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
        dropped = min(tube.tri_segments)
        segments = {t: s for t, s in tube.tri_segments.items() if t != dropped}
        broken = dataclasses.replace(tube, tri_segments=segments)
        with pytest.raises(DegeneracyError):
            cut_along(mesh16, broken)

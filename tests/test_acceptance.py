"""Acceptance criteria, one test per criterion, exact integer checks only.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints its own line for ``-s`` runs.

Criterion 7 asserts the signed symplectic law M^T J M = (-1)^{#s} J, where
#s counts the swap letters s^{+-1} in a word: +J for every generator but the
swap, -J for the swap.  The swap is the half-diagonal translation, which
keeps the orientation of the 3-torus but exchanges the two handlebodies, so
it carries the surface oriented as the boundary of one onto the boundary of
the other, reversing its orientation and negating the intersection form.
No change of symplectic basis alters that sign.
"""

import random
import time
from fractions import Fraction

import pytest

from t3mcg.words import (
    AXIS_PAIRS,
    BASE_TOKENS,
    Generator,
    Macro,
    compose,
    expand_macro,
    free_reduce,
    invert,
)
from t3mcg.rep3 import IDENTITY3, decompose_sl3, mat_mul, transpose, word_image3
from t3mcg.mesh import build_surface, validate_surface
from t3mcg.mesh.curves import cut_along, plane_section, tube_section, walk_pairing, walk_steps
from t3mcg.mesh.homology import (
    CANONICAL_J,
    CurveRef,
    tube_pattern,
    twist_matrix,
)
from t3mcg.rep6 import (
    GeneratorTable6,
    IDENTITY6,
    derive_twist6,
    is_antisymplectic,
    is_symplectic,
    word_image6,
)
from t3mcg.verifier import FULL_ALPHABET, SHEAR_ALPHABET

HALF = Fraction(1, 2)
SEED = 20240501


def report(line):
    print(line, flush=True)


class TestCriterion01GeneratorImages:
    def test_criterion_01(self):
        t0 = time.perf_counter()
        for i, j in AXIS_PAIRS:
            m = word_image3((Generator(f"a{i}{j}", 1),))
            expected = tuple(
                tuple(
                    1 if r == c else (1 if (r, c) == (j - 1, i - 1) else 0)
                    for c in range(3)
                )
                for r in range(3)
            )
            assert m == expected, f"a{i}{j} image {m}"
        assert word_image3((Generator("s", 1),)) == IDENTITY3
        assert word_image3((Generator("t", 1),)) == IDENTITY3
        elapsed = time.perf_counter() - t0
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.2f} ms"
        report(f"criterion 01 PASS generator images ({elapsed * 1e6:.0f} us)")


class TestCriterion02RotationWords:
    def test_criterion_02(self):
        words = {
            (i, j): expand_macro(Macro(f"r{i}{j}", 1)) for i, j in AXIS_PAIRS
        }
        t0 = time.perf_counter()
        for (i, j), w in words.items():
            m = word_image3(w)
            k = ({1, 2, 3} - {i, j}).pop()
            cols = [tuple(m[r][c] for r in range(3)) for c in range(3)]
            assert cols[i - 1] == tuple(int(r == j - 1) for r in range(3))
            assert cols[j - 1] == tuple(-int(r == i - 1) for r in range(3))
            assert cols[k - 1] == tuple(int(r == k - 1) for r in range(3))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.2f} ms"
        report(f"criterion 02 PASS rotation words ({elapsed * 1e6:.0f} us)")


class TestCriterion03KernelImages:
    def test_criterion_03(self):
        words = {
            (i, j): expand_macro(Macro(f"t{i}{j}", 1)) for i, j in AXIS_PAIRS
        }
        t0 = time.perf_counter()
        for key, w in words.items():
            assert word_image3(w) == IDENTITY3, key
        elapsed = time.perf_counter() - t0
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.2f} ms"
        report(f"criterion 03 PASS twist macros in the kernel ({elapsed * 1e6:.0f} us)")


class TestCriterion04MeshTopology:
    def _checks(self, mesh):
        rep = validate_surface(mesh)
        assert rep["closed"] and rep["connected"] and rep["orientable"]
        assert rep["euler_characteristic"] == -4
        secs = [plane_section(mesh, ax, HALF) for ax in (1, 2, 3)]
        secs += [plane_section(mesh, ax, Fraction(0)) for ax in (1, 2, 3)]
        for sec in secs:
            assert len(sec.loops) == 1
        for i in range(6):
            for j in range(i + 1, 6):
                l1 = secs[i].loops[0]
                res = walk_pairing(walk_steps(l1), l1.orientation_sign, secs[j])
                alg, geo = res.get(0, (0, 0))
                same_family = (i < 3) == (j < 3)
                assert alg == 0
                assert geo == (0 if same_family or i % 3 == j % 3 else 2)

    def test_criterion_04(self, mesh16, mesh32):
        self._checks(mesh16)
        self._checks(mesh32)
        t0 = time.perf_counter()
        mesh64 = build_surface(64)
        self._checks(mesh64)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"n=64 build+checks took {elapsed:.1f} s"
        report(f"criterion 04 PASS mesh topology at 16/32/64 (n=64 in {elapsed:.1f} s)")


class TestCriterion05TwistTorusGeometry:
    def test_criterion_05(self, mesh32):
        # tube_section re-slices at radius*(1 +- 1/16) and raises if the loop
        # count moves, so constructing it is the stability assertion
        tube = tube_section(mesh32, 3, (HALF, Fraction(0)))
        assert len(tube.loops) == 4
        for loop in tube.loops:
            assert loop.displacement in ((0, 0, 1), (0, 0, -1))
        pieces = cut_along(mesh32, tube)
        assert len(pieces) == 2
        for p in pieces:
            assert p["euler_characteristic"] == -2
            assert p["genus"] == 0
        report("criterion 05 PASS twist-torus geometry (4 longitudes, two planar pieces)")


class TestCriterion06Homology:
    def test_criterion_06(self, homology32):
        h = homology32
        assert len(h.gram) == 6
        form = mat_mul(transpose(h.basis_change), mat_mul(h.gram, h.basis_change))
        assert form == CANONICAL_J
        for i in range(6):
            for j in range(6):
                assert h.gram[i][j] == -h.gram[j][i]
        from matrix_reference import invert_unimodular

        invert_unimodular(h.gram)  # unimodularity
        for i in range(3):
            a = h.curve_class(h.disk_sections_a[i])
            assert h.displacement_of_class(a) == (0, 0, 0)
            b_cls = h.disk_b_classes[i]
            assert all(b_cls[3 + c] == 0 for c in range(3))
            t = h.curve_class(h.longitudes[i])
            assert h.displacement_of_class(t) == tuple(int(c == i) for c in range(3))
        cls = h.disk_b_classes
        det = (
            cls[0][0] * (cls[1][1] * cls[2][2] - cls[1][2] * cls[2][1])
            - cls[0][1] * (cls[1][0] * cls[2][2] - cls[1][2] * cls[2][0])
            + cls[0][2] * (cls[1][0] * cls[2][1] - cls[1][1] * cls[2][0])
        )
        assert det in (1, -1)
        report("criterion 06 PASS homology basis, form, spans and projection")


class TestCriterion07Rep6Integrity:
    def test_criterion_07(self, table32):
        failures = []
        t0 = time.perf_counter()

        def check_form(m, n_s, label):
            # M^T J M = (-1)^{#s} J: each swap letter reverses the surface
            # orientation and so negates the form
            law, sign = (is_antisymplectic, "-J") if n_s % 2 else (is_symplectic, "+J")
            if not law(m):
                failures.append(f"{label}: M^T J M != {sign} (#s = {n_s})")

        for tok in sorted(table32.matrices):
            check_form(table32.matrices[tok], int(tok == "s"), f"table matrix {tok!r}")

        rng = random.Random(SEED)
        from t3mcg.rep6 import compat_check

        for idx in range(1000):
            w = tuple(rng.choice(FULL_ALPHABET) for _ in range(rng.randint(0, 20)))
            n_s = sum(g.kind == "s" for g in w)
            check_form(word_image6(w, table32), n_s, f"random word {idx}")
        rng = random.Random(SEED)
        for idx in range(1000):
            w = tuple(rng.choice(FULL_ALPHABET) for _ in range(rng.randint(0, 20)))
            if not compat_check(w, table32):
                failures.append(f"random word {idx}: intertwining fails")
                break

        s = table32.matrices["s"]
        if mat_mul(s, s) != IDENTITY6:
            failures.append("swap squared is not the identity")
        for i, j in AXIS_PAIRS:
            m1 = word_image6(expand_macro(Macro(f"t{i}{j}", 1)), table32)
            m2 = word_image6(expand_macro(Macro(f"t{j}{i}", 1)), table32)
            if mat_mul(m2, m1) != IDENTITY6:
                failures.append(f"t{i}{j} * t{j}{i} is not the identity")
        elapsed = time.perf_counter() - t0
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f} s exceeds 1 s")
        status = "PASS" if not failures else "FAIL"
        report(f"criterion 07 {status} surface-representation integrity ({elapsed:.2f} s)")
        assert not failures, "; ".join(failures)


class TestCriterion08HandednessArbiter:
    def test_criterion_08(self, homology32, table32, tmp_path):
        h = homology32
        word_t13 = expand_macro(Macro("t13", 1))
        pair_tube = tube_section(h.mesh, 2, (Fraction(0), HALF), h.tube_radius)
        winners = []
        for pattern in ("all_plus", "alternating"):
            mats = dict(table32.matrices)
            mats["t"] = derive_twist6(h, pattern)
            trial = GeneratorTable6(
                matrices=mats, provenance={}, candidate_counts={},
                handedness=pattern, resolution=32, tube_radius=table32.tube_radius,
            )
            lhs = word_image6(word_t13, trial)
            eps = tube_pattern(h, pair_tube, pattern)
            loops = [(CurveRef(pair_tube, i), eps[i]) for i in range(len(pair_tube.loops))]
            rhs = twist_matrix(h, loops)
            if lhs == rhs:
                winners.append(pattern)
        assert len(winners) == 1, f"patterns passing: {winners or 'none'} (must be exactly one)"
        assert winners[0] == table32.handedness
        # the verdict is persisted with the table
        path = str(tmp_path / "table.json")
        table32.save(path)
        assert GeneratorTable6.load(path).handedness == winners[0]
        report(f"criterion 08 PASS handedness arbiter (winner: {winners[0]})")


class TestCriterion09Solver:
    def test_criterion_09(self, table32):
        for i, j in AXIS_PAIRS:
            tok = f"a{i}{j}"
            count = table32.candidate_counts[tok]
            assert count >= 1, tok
        counts = dict(table32.candidate_counts)
        report(f"criterion 09 PASS shear solver candidate counts: {counts}")


class TestCriterion10Decomposition:
    def test_criterion_10(self):
        rng = random.Random(SEED)
        words = [
            tuple(rng.choice(SHEAR_ALPHABET) for _ in range(rng.randint(0, 30)))
            for _ in range(1000)
        ]
        t0 = time.perf_counter()
        for w in words:
            m = word_image3(w)
            w2 = decompose_sl3(m)
            assert word_image3(w2) == m
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"
        report(f"criterion 10 PASS 1000 decomposition round-trips ({elapsed:.2f} s)")


class TestCriterion11WordAlgebra:
    def test_criterion_11(self):
        rng = random.Random(SEED)
        letters = tuple(
            Generator(k, s) for k in BASE_TOKENS for s in (1, -1)
        )
        words = [
            tuple(rng.choice(letters) for _ in range(rng.randint(0, 30)))
            for _ in range(1000)
        ]
        t0 = time.perf_counter()
        for w in words:
            assert free_reduce(compose(w, invert(w))) == ()
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.1, f"took {elapsed * 1e3:.1f} ms"
        report(f"criterion 11 PASS word algebra reduction ({elapsed * 1e3:.0f} ms)")

import random

import pytest

from t3mcg.words import AXIS_PAIRS, Generator, Macro, expand_macro, invert, parse_word
from t3mcg.rep3 import gen_image3
from t3mcg.mesh.homology import PROJECTION, mat_mul
from t3mcg.rep6 import (
    GeneratorTable6,
    HandednessError,
    IDENTITY6,
    KERNEL_CANDIDATE,
    KERNEL_NONTRIVIAL,
    KERNEL_NOT,
    compat_check,
    derive_twist6,
    is_antisymplectic,
    is_symplectic,
    kernel_screen,
    resolve_handedness,
    solve_shear6,
    word_image6,
    _word_image6_exact,
)


def G(kind, sign=1):
    return Generator(kind, sign)


FULL = [G(k, s) for k in ("a12", "a13", "a21", "a23", "a31", "a32", "s", "t") for s in (1, -1)]


class TestSwap:
    def test_involution(self, homology32, table32):
        s = table32.matrices["s"]
        assert mat_mul(s, s) == IDENTITY6

    def test_projection_compatible(self, table32):
        assert compat_check((G("s"),), table32)

    def test_swaps_disk_systems(self, homology32, table32):
        # image of each meridian class lies in the span of the B-side classes
        s = table32.matrices["s"]
        for i in range(3):
            col = tuple(s[r][i] for r in range(6))
            assert col[3:] == (0, 0, 0)
        # and the first meridian goes exactly to a B-side disk class
        col0 = tuple(s[r][0] for r in range(6))
        assert col0 in (homology32.disk_b_classes[0],
                        tuple(-x for x in homology32.disk_b_classes[0]))

    def test_side_swap_negates_the_form(self, table32):
        # exchanging the handlebodies reverses the surface orientation, so
        # the honest homology action is anti-symplectic, not symplectic
        s = table32.matrices["s"]
        assert is_antisymplectic(s)
        assert not is_symplectic(s)


class TestTwist:
    def test_alternating_twist_nontrivial_and_compatible(self, homology32, table32):
        t = table32.matrices["t"]
        assert t != IDENTITY6
        assert is_symplectic(t)
        assert compat_check((G("t"),), table32)

    def test_all_plus_breaks_projection(self, homology32):
        t = derive_twist6(homology32, "all_plus")
        lhs = mat_mul(PROJECTION, t)
        assert lhs != PROJECTION  # incompatible with a trivial ambient action

    def test_twist_macro_pairs_cancel(self, table32):
        for i, j in AXIS_PAIRS:
            m1 = word_image6(expand_macro(Macro(f"t{i}{j}", 1)), table32)
            m2 = word_image6(expand_macro(Macro(f"t{j}{i}", 1)), table32)
            assert mat_mul(m2, m1) == IDENTITY6


class TestShearSolver:
    def test_block_structure_and_count(self, table32):
        for i, j in AXIS_PAIRS:
            tok = f"a{i}{j}"
            m = table32.matrices[tok]
            r = gen_image3(G(tok))
            for a in range(3):
                for b in range(3):
                    assert m[3 + a][b] == 0
                    assert m[3 + a][3 + b] == r[a][b]
            assert is_symplectic(m)
            assert table32.candidate_counts[tok] >= 1

    def test_all_candidates_symplectic(self):
        sol = solve_shear6(gen_image3(G("a13")))
        assert is_symplectic(sol.matrix)
        assert sol.candidate_count >= 1
        assert sol.bound == 2

    # the row-major least Q of each shear; every shear has 9025 candidates
    LEAST_Q = {
        "a12": ((-2, -2, -2), (-2, 0, 0), (-2, 0, -2)),
        "a13": ((-2, -2, -2), (-2, -2, 0), (-2, 0, 0)),
        "a21": ((-2, -2, -2), (0, -2, 0), (-2, -2, -2)),
        "a23": ((-2, -2, -2), (0, -2, -2), (-2, -2, 0)),
        "a31": ((-2, -2, -2), (-2, -2, -2), (0, 0, -2)),
        "a32": ((-2, -2, -2), (-2, -2, -2), (0, 0, -2)),
    }

    def test_shear_counts_and_least_q_are_pinned(self):
        for tok, q in self.LEAST_Q.items():
            sol = solve_shear6(gen_image3(G(tok)))
            assert sol.candidate_count == 9025, tok
            assert tuple(row[3:] for row in sol.matrix[:3]) == q, tok
            assert sol.bound == 2

    def test_non_shear_block_completes(self):
        from t3mcg.mesh.homology import invert_unimodular, transpose
        from t3mcg.rep3 import word_image3

        r = word_image3(parse_word("r12"))
        sol = solve_shear6(r)
        m = sol.matrix
        p = invert_unimodular(transpose(r))
        q = tuple(row[3:] for row in m[:3])
        assert tuple(row[:3] for row in m[:3]) == p
        assert tuple(row[:3] for row in m[3:]) == ((0, 0, 0),) * 3
        assert tuple(row[3:] for row in m[3:]) == r
        assert max(abs(x) for row in q for x in row) <= 2
        s = mat_mul(transpose(r), q)
        assert s == transpose(s)
        assert is_symplectic(m)
        # R^T permutes the rows of Q up to sign, so the candidates are
        # exactly the symmetric S = R^T Q with entries in [-2, 2]: 5^6
        assert sol.candidate_count == 15625

    def test_candidates_are_interchangeable_for_the_suite(self, homology32, table32):
        # the relation checks factor through blocks the search leaves free, so
        # alternative candidates satisfy the same conjugation identity
        from t3mcg.mesh.homology import invert_unimodular, transpose

        rng = random.Random(5)
        word_t13 = expand_macro(Macro("t13", 1))
        reference = word_image6(word_t13, table32)
        for _ in range(3):
            mats = dict(table32.matrices)
            for i, j in AXIS_PAIRS:
                tok = f"a{i}{j}"
                r = gen_image3(G(tok))
                p = invert_unimodular(transpose(r))
                s = [[0] * 3 for _ in range(3)]
                for a in range(3):
                    for b in range(a, 3):
                        s[a][b] = s[b][a] = rng.randint(-1, 1)
                q = mat_mul(p, tuple(tuple(row) for row in s))
                rows = [tuple(p[x]) + tuple(q[x]) for x in range(3)]
                rows += [(0, 0, 0) + tuple(r[x]) for x in range(3)]
                mats[tok] = tuple(rows)
            variant = GeneratorTable6(
                matrices=mats, provenance={}, candidate_counts={},
                handedness=table32.handedness, resolution=table32.resolution,
                tube_radius=table32.tube_radius,
            )
            assert word_image6(word_t13, variant) == reference


class TestEvaluation:
    def test_fast_path_matches_exact(self, table32):
        rng = random.Random(11)
        for _ in range(30):
            w = tuple(rng.choice(FULL) for _ in range(rng.randint(0, 12)))
            assert word_image6(w, table32) == _word_image6_exact(w, table32)

    def test_word_inverse(self, table32):
        rng = random.Random(3)
        for _ in range(20):
            w = tuple(rng.choice(FULL) for _ in range(rng.randint(0, 10)))
            assert mat_mul(word_image6(w, table32),
                           word_image6(invert(w), table32)) == IDENTITY6

    def test_swap_squared_word(self, table32):
        assert word_image6(parse_word("s s"), table32) == IDENTITY6

    def test_rotation_fourth_power_fixes_winding_block(self, table32):
        for i, j in AXIS_PAIRS:
            w = expand_macro(Macro(f"r{i}{j}", 1))
            m = word_image6(w * 4, table32)
            block = tuple(tuple(m[3 + a][3 + b] for b in range(3)) for a in range(3))
            assert block == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_compat_on_random_words(self, table32):
        rng = random.Random(9)
        for _ in range(50):
            w = tuple(rng.choice(FULL) for _ in range(rng.randint(0, 15)))
            assert compat_check(w, table32)

    def test_long_word_takes_exact_fallback(self, table32):
        # (a12 a21)^50 outgrows int64: its entries reach 75 bits
        w = parse_word("a12 a21") * 50
        m = word_image6(w, table32)
        assert m == _word_image6_exact(w, table32)
        assert max(abs(x) for row in m for x in row) > 2**62


class TestKernelScreen:
    def test_shear_not_in_kernel(self, table32):
        assert kernel_screen(parse_word("a12"), table32) == KERNEL_NOT

    def test_twist_detected_at_homology(self, table32):
        assert kernel_screen(parse_word("t"), table32) == KERNEL_NONTRIVIAL

    def test_identity_is_candidate(self, table32):
        assert kernel_screen((), table32) == KERNEL_CANDIDATE


class TestResolutionIndependence:
    def test_table_is_identical_at_coarser_resolution(self, homology16, table32):
        from t3mcg.rep6 import derive_table

        t16 = derive_table(homology16)
        assert t16.matrices == table32.matrices
        assert t16.handedness == table32.handedness
        assert t16.candidate_counts == table32.candidate_counts


class TestHandedness:
    def test_arbiter_reports_one_winner(self, homology16, table32):
        winners, details = resolve_handedness(homology16, table32.matrices)
        assert winners == [table32.handedness]
        assert set(details) == {"all_plus", "alternating"}
        for pattern, pair in details.items():
            assert (pair["conjugated"] == pair["direct"]) == (pattern in winners)

    def test_derive_table_rejects_no_or_two_winners(self, homology16, monkeypatch):
        import t3mcg.rep6 as rep6

        for winners in ([], ["all_plus", "alternating"]):
            monkeypatch.setattr(rep6, "resolve_handedness", lambda h, m: (winners, {}))
            with pytest.raises(HandednessError):
                rep6.derive_table(homology16)


class TestPersistence:
    def test_json_roundtrip(self, table32, tmp_path):
        path = str(tmp_path / "table.json")
        table32.save(path)
        loaded = GeneratorTable6.load(path)
        assert loaded.matrices == table32.matrices
        assert loaded.handedness == table32.handedness
        assert loaded.resolution == table32.resolution
        assert loaded.candidate_counts == table32.candidate_counts

    def test_json_is_deterministic(self, table32, tmp_path):
        p1, p2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
        table32.save(p1)
        table32.save(p2)
        assert open(p1).read() == open(p2).read()

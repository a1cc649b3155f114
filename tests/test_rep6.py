import random

import pytest
from hypothesis import given, settings, strategies as st

from t3mcg import rep3
from t3mcg.words import AXIS_PAIRS, Generator, Macro, expand_macro, free_reduce, invert, parse_word
from t3mcg.rep3 import gen_image3, mat_mul
from t3mcg.mesh.homology import PROJECTION
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
    _int64_segment,
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


class TestSwapFromSections:
    # derive_swap6 matches the six translated generator loops with their image
    # sections; swap_reference pushes them through the whole-mesh permutations
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_equals_the_whole_mesh_reference(self, n, request):
        from swap_reference import reference_swap6
        from t3mcg.mesh import build_surface
        from t3mcg.mesh.homology import build_homology
        from t3mcg.rep6 import derive_swap6

        if n in (16, 32):
            h = request.getfixturevalue(f"homology{n}")
        else:
            h = build_homology(build_surface(n))
        memo = set(h._memo)
        assert derive_swap6(h) == reference_swap6(h)
        assert set(h._memo) == memo  # no image section is held

    @pytest.mark.parametrize("step", [0, 5], ids=["first-step", "later-step"])
    @pytest.mark.parametrize("generator", ["plane", "tube"])
    def test_perturbed_step_parameter_is_degenerate(self, generator, step, mesh16):
        from t3mcg.mesh.curves import DegeneracyError, Steps
        from t3mcg.mesh.homology import build_homology
        from t3mcg.rep6 import derive_swap6

        h = build_homology(mesh16)
        loop = (h.disk_sections_a if generator == "plane" else h.longitudes)[0].loop
        ends = loop.steps.ends.copy()
        ends[step, 0, 2] += 1  # the step's entry parameter p of t = p/q
        loop.steps = Steps(loop.steps.tri, ends)
        with pytest.raises(DegeneracyError, match="no loop of its image section"):
            derive_swap6(h)

    def test_image_tube_at_another_radius_is_degenerate(self, homology16, monkeypatch):
        from fractions import Fraction

        from t3mcg import rep6
        from t3mcg.mesh.curves import DegeneracyError, TubeField

        def wider(axis, center, radius):
            return TubeField(axis, center, radius * Fraction(17, 16))

        monkeypatch.setattr(rep6, "TubeField", wider)
        with pytest.raises(DegeneracyError, match="no loop of its image section"):
            rep6.derive_swap6(homology16)


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
        from matrix_reference import invert_unimodular
        from t3mcg.rep3 import transpose
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
        from matrix_reference import invert_unimodular
        from t3mcg.rep3 import transpose

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


    @pytest.mark.slow
    def test_table_is_identical_at_finer_resolution(self, table32):
        from t3mcg.mesh import build_surface
        from t3mcg.mesh.homology import build_homology
        from t3mcg.rep6 import derive_table

        t64 = derive_table(build_homology(build_surface(64)))
        assert t64.matrices == table32.matrices
        assert t64.handedness == table32.handedness
        assert t64.candidate_counts == table32.candidate_counts


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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("handedness", ["x"]),
            ("handedness", "left"),
            ("provenance", ["x"]),
            ("provenance", {"s": 5}),
            ("candidate_counts", 5),
            ("candidate_counts", {"a12": "9025"}),
            ("tube_radius", 0.25),
        ],
    )
    def test_malformed_metadata_is_rejected(self, key, value, table32):
        data = table32.to_json()
        data[key] = value
        with pytest.raises(ValueError, match=key):
            GeneratorTable6.from_json(data)

    def test_missing_metadata_takes_defaults(self, table32):
        data = table32.to_json()
        for key in ("provenance", "candidate_counts", "tube_radius"):
            del data[key]
        loaded = GeneratorTable6.from_json(data)
        assert (loaded.provenance, loaded.candidate_counts, loaded.tube_radius) == ({}, {}, "")

    @pytest.mark.parametrize(
        "radius", ["abc", "-5/16", "0", "1/0", "nan", " ", "0.3125", "1e999999999", "9" * 5000]
    )
    def test_radius_that_is_not_a_positive_rational_is_rejected(self, radius, table32):
        data = table32.to_json()
        data["tube_radius"] = radius
        with pytest.raises(ValueError, match="malformed tube_radius: "):
            GeneratorTable6.from_json(data)

    @pytest.mark.parametrize("radius", ["", "1/4", "5/16", "10/32", "3"])
    def test_positive_or_unrecorded_radius_loads(self, radius, table32):
        data = table32.to_json()
        data["tube_radius"] = radius
        assert GeneratorTable6.from_json(data).tube_radius == radius

    def test_json_is_deterministic(self, table32, tmp_path):
        p1, p2 = tmp_path / "t1.json", tmp_path / "t2.json"
        table32.save(str(p1))
        table32.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_saved_bytes_match_pinned_digest(self, table32, tmp_path):
        # the exactness contract: the n = 32 table is byte-identical across
        # refactors (the same digest is pinned as pipeline-n32.table_sha256 in
        # perfbench/reference.json)
        import hashlib

        path = tmp_path / "table.json"
        table32.save(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2f0d3e7056021a416e1713c6f3b7f2f839d76a22afd5b8718fdc4cdd01671474"
        )


# ---------------------------------------------------------------------------
# Long words against an independent reference: a left fold of the generic
# exact product over the table's generator images, one letter at a time.
# ---------------------------------------------------------------------------


def fold6(w, table):
    acc = IDENTITY6
    for g in w:
        acc = rep3.mat_mul(table.image(g), acc)
    return acc


def entry_max(m):
    return max(abs(x) for row in m for x in row)


def segment_starts(w, table):
    """The letters that open a new int64 segment under the stepwise bound
    6 |A| |g| < 2^62, recomputed here on exact integers."""
    starts, seg = [], IDENTITY6
    for i, g in enumerate(w):
        m = table.image(g)
        if 6 * entry_max(seg) * entry_max(m) >= 2**62:
            starts.append(i)
            seg = IDENTITY6
        seg = rep3.mat_mul(m, seg)
    return starts


def huge_twist_table(table, entry):
    """``table`` with t replaced by the symplectic [[I, S], [0, I]], S[0][0] = entry."""
    data = table.to_json()
    t = [[int(i == j) for j in range(6)] for i in range(6)]
    t[0][3] = entry
    data["matrices"]["t"] = t
    return GeneratorTable6.from_json(data)


class TestLongWordsAgainstFold:
    @pytest.mark.parametrize("length", [0, 1, 2000, 3000])
    def test_seeded_full_alphabet_words(self, length, table32):
        rng = random.Random(length)
        w = tuple(rng.choice(FULL) for _ in range(length))
        assert word_image6(w, table32) == fold6(w, table32)

    @pytest.mark.parametrize("k", [150, 300])
    def test_shear_pair_powers_past_2_200(self, k, table32):
        for text in ("a12 a21", "a13^-1 a31^-1", "a23 a32 t"):
            w = parse_word(text) * k
            m = word_image6(w, table32)
            assert entry_max(m) > 2**200
            assert m == fold6(w, table32)

    def test_words_ending_at_a_segment_boundary(self, table32):
        rng = random.Random(21)
        u = parse_word("a12 a21") * 40 + tuple(rng.choice(FULL) for _ in range(600))
        starts = segment_starts(u, table32)
        assert len(starts) >= 2
        for c in starts[:3]:
            for w in (u[:c], u[:c + 1], u[:c - 1]):
                assert word_image6(w, table32) == fold6(w, table32)

    def test_swap_opens_a_segment(self, table32):
        # the swap has entries of size 1, so it trips the bound only where a
        # segment's entries have just reached 2^62 / 6
        rng = random.Random(30)
        u = tuple(rng.choice(FULL) for _ in range(2000))
        seg, cut = IDENTITY6, None
        for i, g in enumerate(u):
            if 6 * entry_max(seg) >= 2**62:
                cut = i
                break
            m = table32.image(g)
            seg = m if 6 * entry_max(seg) * entry_max(m) >= 2**62 else rep3.mat_mul(m, seg)
        assert cut is not None
        w = u[:cut] + (G("s"),) + u[cut:cut + 20]
        assert cut in segment_starts(w, table32)
        for end in (cut + 1, len(w)):
            assert word_image6(w[:end], table32) == fold6(w[:end], table32)

    def test_exact_path_makes_few_exact_products(self, table32, monkeypatch):
        import t3mcg.rep6 as rep6

        calls = []
        exact_product = rep6.mat_mul

        def counted(a, b):
            calls.append(1)
            return exact_product(a, b)

        rng = random.Random(7)
        w = tuple(rng.choice(FULL) for _ in range(2000))
        expected = fold6(w, table32)
        assert entry_max(expected) > 2**62
        monkeypatch.setattr(rep6, "mat_mul", counted)
        assert word_image6(w, table32) == expected
        assert 0 < len(calls) < 10


def exact_max_segment(w, table, start):
    """``_int64_segment`` with the exact entry maximum tested after every letter."""
    acc = IDENTITY6
    for i in range(start, len(w)):
        m = table.image(w[i])
        if 6 * entry_max(acc) * entry_max(m) >= 2**62:
            return acc, i
        acc = rep3.mat_mul(m, acc)
    return acc, len(w)


def assert_segments_match_exact_max(w, table):
    start = 0
    while start < len(w):
        acc, stop = _int64_segment(w, table, start)
        expected, expected_stop = exact_max_segment(w, table, start)
        assert stop == expected_stop
        assert tuple(map(tuple, acc.tolist())) == expected
        start = stop + (stop == start)


class TestInt64SegmentCuts:
    def test_seeded_words(self, table32):
        for seed in range(12):
            rng = random.Random(1000 + seed)
            w = tuple(rng.choice(FULL) for _ in range(rng.randrange(1, 2500)))
            assert_segments_match_exact_max(w, table32)
        for text in ("a12 a21", "a13^-1 a31^-1", "a23 a32 t"):
            assert_segments_match_exact_max(parse_word(text) * 200, table32)

    @pytest.mark.parametrize("entry", [2**61, -2**63, 2**64], ids=["2^61", "-2^63", "2^64"])
    def test_huge_table_entries(self, entry, table32):
        table = huge_twist_table(table32, entry)
        rng = random.Random(entry % 89)
        for w in (parse_word("t a12"), parse_word("a12 t^-1 t t"),
                  tuple(rng.choice(FULL) for _ in range(300))):
            assert_segments_match_exact_max(w, table)


class TestHugeTableEntries:
    # -2^63 fits int64, but numpy's abs of it wraps to -2^63
    @pytest.mark.parametrize("entry", [2**61, -2**63, 2**64], ids=["2^61", "-2^63", "2^64"])
    def test_word_image_is_exact(self, entry, table32):
        table = huge_twist_table(table32, entry)
        rng = random.Random(entry % 97)
        for w in (parse_word("t a12"), parse_word("a12 t^-1 t t"),
                  tuple(rng.choice(FULL) for _ in range(300))):
            assert word_image6(w, table) == fold6(w, table)
        assert word_image6(parse_word("t"), table)[0][3] == entry


_letters6 = st.sampled_from(FULL).map(lambda g: (g,))
# (a12 a21)^k with k >= 20 has entries past 2^27, so a concatenation of a
# few blocks crosses at least one int64 segment cut
_blocks6 = st.integers(20, 60).map(lambda k: parse_word("a12 a21") * k)
_words6 = st.lists(st.one_of(_letters6, _blocks6), max_size=8).map(lambda parts: sum(parts, ()))


class TestWordLaws6:
    @settings(max_examples=25, deadline=None)
    @given(_words6, _words6)
    def test_concatenation_multiplies(self, table32, w1, w2):
        assert word_image6(w1 + w2, table32) == mat_mul(
            word_image6(w2, table32), word_image6(w1, table32))

    @settings(max_examples=25, deadline=None)
    @given(_words6)
    def test_inverse_word_inverts(self, table32, w):
        assert mat_mul(word_image6(w, table32), word_image6(invert(w), table32)) == IDENTITY6

    @settings(max_examples=25, deadline=None)
    @given(_words6)
    def test_free_reduction_keeps_the_image(self, table32, w):
        assert word_image6(free_reduce(w), table32) == word_image6(w, table32)


def non_symmetric_shear():
    """[[I, S], [0, I]] with S = E_01, not symmetric: M^T J M = [[0, I], [-I, S^T - S]]."""
    m = [[int(i == j) for j in range(6)] for i in range(6)]
    m[0][4] = 1
    return tuple(map(tuple, m))


def table_with(table, tok, m):
    mats = dict(table.matrices)
    mats[tok] = m
    return GeneratorTable6(
        matrices=mats, provenance={}, candidate_counts={}, handedness=table.handedness,
        resolution=table.resolution, tube_radius=table.tube_radius,
    )


class TestClosedFormInverses:
    def test_inverse_letters_match_gauss_jordan(self, homology16, table32):
        from matrix_reference import invert_unimodular
        from t3mcg.rep6 import derive_table

        for table in (table32, derive_table(homology16)):
            for k in ("a12", "a13", "a21", "a23", "a31", "a32", "s", "t"):
                assert table.image(G(k, -1)) == invert_unimodular(table.matrices[k])
                assert table.image(G(k)) == table.matrices[k]

    @pytest.mark.parametrize("entry", [2**61, -2**63, 2**64], ids=["2^61", "-2^63", "2^64"])
    def test_huge_inverse_letter_is_exact(self, entry, table32):
        from matrix_reference import invert_unimodular

        table = huge_twist_table(table32, entry)
        assert table.image(G("t", -1)) == invert_unimodular(table.matrices["t"])
        assert table.image(G("t", -1))[0][3] == -entry

    def test_construction_rejects_a_non_symplectic_twist(self, table32):
        with pytest.raises(ValueError, match="matrix t is not symplectic"):
            table_with(table32, "t", non_symmetric_shear())

    def test_construction_rejects_a_symplectic_swap(self, table32):
        with pytest.raises(ValueError, match="matrix s is not antisymplectic"):
            table_with(table32, "s", IDENTITY6)

    def test_arbiter_checks_the_law_before_any_word(self, homology16, table32, monkeypatch):
        import t3mcg.rep6 as rep6

        def no_words(w, table):
            raise AssertionError("a word was evaluated")

        monkeypatch.setattr(rep6, "word_image6", no_words)
        mats = dict(table32.matrices)
        mats["a12"] = non_symmetric_shear()
        with pytest.raises(ValueError, match="matrix a12 is not symplectic"):
            resolve_handedness(homology16, mats)


# ---------------------------------------------------------------------------
# The numpy shear solver against the tuple enumeration it replaced.
# ---------------------------------------------------------------------------


def reference_shear6(r_block):
    # every column pair (q0, q1) with v1[0] == v0[1], and each q2 found in a
    # dict keyed on the first two entries of R^T q2; the row-major least Q
    from itertools import product

    from matrix_reference import invert_unimodular
    from t3mcg.rep3 import transpose
    from t3mcg.rep6 import mat6

    b = 2
    box = tuple(product(range(-b, b + 1), repeat=3))
    columns = list(zip(box, mat_mul(box, r_block)))
    by_top = {}
    for q, v in columns:
        by_top.setdefault(v[:2], []).append(q)
    candidates = [
        (q0, q1, q2)
        for q0, v0 in columns
        for q1, v1 in columns
        if v1[0] == v0[1]
        for q2 in by_top.get((v0[2], v1[2]), ())
    ]
    q = min(tuple(zip(*cols)) for cols in candidates)
    p = invert_unimodular(transpose(r_block))
    m = mat6([p[i] + q[i] for i in range(3)] + [(0, 0, 0) + tuple(row) for row in r_block])
    return m, len(candidates), b


def seeded_shear_blocks(count=40, seed=11):
    # images of random shear words whose largest column sum of |R| is at most 2
    rng = random.Random(seed)
    tokens = [f"a{i}{j}" for i, j in AXIS_PAIRS]
    blocks = []
    while len(blocks) < count:
        word = tuple(G(rng.choice(tokens), rng.choice((1, -1))) for _ in range(rng.randint(1, 6)))
        r = rep3.word_image3(word)
        if r not in blocks and max(sum(abs(r[i][j]) for i in range(3)) for j in range(3)) <= 2:
            blocks.append(r)
    return blocks


class TestShearSolverReference:
    @pytest.mark.parametrize("tok", [f"a{i}{j}" for i, j in AXIS_PAIRS])
    def test_each_shear_equals_the_tuple_enumeration(self, tok):
        r = gen_image3(G(tok))
        sol = solve_shear6(r)
        assert (sol.matrix, sol.candidate_count, sol.bound) == reference_shear6(r)

    def test_seeded_blocks_equal_the_tuple_enumeration(self):
        blocks = seeded_shear_blocks()
        assert any(max(sum(abs(r[i][j]) for i in range(3)) for j in range(3)) == 1 for r in blocks)
        counts = set()
        for r in blocks + [rep3.word_image3(parse_word("r12"))]:
            sol = solve_shear6(r)
            assert (sol.matrix, sol.candidate_count, sol.bound) == reference_shear6(r), r
            counts.add(sol.candidate_count)
        assert len(counts) > 2  # blocks of several shapes, not only shear-like ones

    def test_block_of_other_determinant_is_refused(self):
        with pytest.raises(ValueError, match="determinant -1"):
            solve_shear6(((1, 0, 0), (0, 1, 0), (0, 0, -1)))

import json

import pytest

from t3mcg.rep6 import GeneratorTable6, derive_twist6
from t3mcg.verifier import CHECKS, run_suite

EXPECTED_CHECKS = [
    "shear_images",
    "kernel_generators",
    "twist_macros_downstairs",
    "rotation_words",
    "swap_involution",
    "twist_inverse_pairs",
    "handedness_arbiter",
    "projection_intertwining",
    "mesh_facts",
    "decomposition_roundtrip",
]


class TestSuite:
    def test_all_checks_pass(self, homology32, table32):
        report = run_suite(table32, homology32, seed=7)
        assert [c["name"] for c in report.checks] == EXPECTED_CHECKS
        failures = [c for c in report.checks if c["status"] != "pass"]
        assert not failures, failures

    def test_report_is_deterministic(self, homology32, table32):
        r1 = run_suite(table32, homology32, seed=3)
        r2 = run_suite(table32, homology32, seed=3)
        assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
            r2.to_json(), sort_keys=True
        )

    def test_report_serializes(self, homology32, table32):
        report = run_suite(table32, homology32, seed=0)
        data = json.loads(json.dumps(report.to_json()))
        assert data["seed"] == 0
        assert data["resolution"] == 32
        assert data["all_passed"] is True


class TestNegativeControls:
    def test_corrupted_shear_fails_intertwining(self, homology32, table32):
        mats = dict(table32.matrices)
        # wrong ambient block (still a valid integer symplectic matrix)
        mats["a12"] = table32.matrices["a13"]
        corrupt = GeneratorTable6(
            matrices=mats,
            provenance={},
            candidate_counts={},
            handedness=table32.handedness,
            resolution=table32.resolution,
            tube_radius=table32.tube_radius,
        )
        report = run_suite(corrupt, homology32, seed=7)
        by_name = {c["name"]: c for c in report.checks}
        assert by_name["projection_intertwining"]["status"] == "fail"
        witness = by_name["projection_intertwining"]["witness"]
        assert witness and "projected_surface_action" in witness[0]

    def test_losing_handedness_fails_arbiter(self, homology32, table32):
        mats = dict(table32.matrices)
        mats["t"] = derive_twist6(homology32, "all_plus")
        forced = GeneratorTable6(
            matrices=mats,
            provenance={},
            candidate_counts={},
            handedness="all_plus",
            resolution=table32.resolution,
            tube_radius=table32.tube_radius,
        )
        report = run_suite(forced, homology32, seed=7)
        by_name = {c["name"]: c for c in report.checks}
        assert by_name["handedness_arbiter"]["status"] == "fail"
        assert by_name["handedness_arbiter"]["witness"]["winners"] == ["alternating"]


def test_suite_walk_count_on_fresh_homology(mesh16, monkeypatch):
    # a fresh homology: the session fixtures' memo would depend on test order
    import t3mcg.mesh.homology as homology
    from t3mcg.rep6 import derive_table

    h = homology.build_homology(mesh16)
    table = derive_table(h)
    walks = []
    original = homology.walk_pairing

    def counted(*args):
        walks.append(args)
        return original(*args)

    monkeypatch.setattr(homology, "walk_pairing", counted)
    assert run_suite(table, h).passed
    # 12 for the (1,3) pair tube's four classes, three longitude walks each,
    # and 15 disk pairs, whose counts carry the nine defining-pair verdicts
    assert len(walks) == 27


def test_three_loop_reference_tube_fails_mesh_facts(homology32, table32):
    # winding_signs refuses the tube for mesh_facts, and for the arbiter, whose t
    # candidates twist along the same tube; every other check still passes
    from dataclasses import replace

    t1, t2, t3 = homology32.tubes
    h = replace(homology32, tubes=[t1, t2, replace(t3, loops=t3.loops[:3])])
    report = run_suite(table32, h, seed=0)
    failed = {c["name"]: c["witness"] for c in report.checks if c["status"] == "fail"}
    message = {"exception": "DegeneracyError: tube along axis 3 has 3 loops, expected 4"}
    assert failed == {"handedness_arbiter": message, "mesh_facts": message}
    assert [c["name"] for c in report.checks] == EXPECTED_CHECKS


class TestNoRaiseContract:
    # an exception inside one check becomes that check's failing entry; the
    # suite, and `verify`, still report every other check
    @staticmethod
    def boom(*args):
        raise RuntimeError("boom")

    def test_exception_becomes_a_failing_entry(self, homology32, table32, monkeypatch):
        monkeypatch.setattr("t3mcg.verifier.cut_along", self.boom)
        report = run_suite(table32, homology32, seed=0)
        assert [c["name"] for c in report.checks] == EXPECTED_CHECKS
        by_name = {c["name"]: c for c in report.checks}
        assert by_name["mesh_facts"]["status"] == "fail"
        assert by_name["mesh_facts"]["witness"] == {"exception": "RuntimeError: boom"}
        others = [c["status"] for c in report.checks if c["name"] != "mesh_facts"]
        assert others == ["pass"] * 9
        assert not report.passed

    def test_verify_exits_1_with_the_failing_entry(self, tmp_path, capsys, monkeypatch):
        from t3mcg.cli import main

        monkeypatch.setattr("t3mcg.verifier.cut_along", self.boom)
        table = str(tmp_path / "t8.json")
        code = main(["--resolution", "8", "--json", "--table", table, "verify"])
        out, _ = capsys.readouterr()
        assert code == 1
        report = json.loads(out)
        assert report["all_passed"] is False
        failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert failed == ["mesh_facts"]


@pytest.mark.parametrize("name", [name for name, _, _ in CHECKS])
def test_any_raising_check_becomes_its_failing_entry(name, homology32, table32, monkeypatch):
    import t3mcg.verifier as verifier

    checks = tuple(
        (n, claim, TestNoRaiseContract.boom if n == name else check)
        for n, claim, check in verifier.CHECKS
    )
    monkeypatch.setattr(verifier, "CHECKS", checks)
    report = run_suite(table32, homology32, seed=0)
    assert [c["name"] for c in report.checks] == EXPECTED_CHECKS
    failed = [(c["name"], c["witness"]) for c in report.checks if c["status"] == "fail"]
    assert failed == [(name, {"exception": "RuntimeError: boom"})]


def test_derive_and_suite_read_no_triangle_frame(homology16):
    # the handedness arbiter reads each tube loop's winding, never a Fraction frame
    from t3mcg.rep6 import derive_table

    table = derive_table(homology16)
    assert table.handedness == "alternating"
    report = run_suite(table, homology16, seed=0)
    assert report.passed, [c for c in report.checks if c["status"] != "pass"]


def test_check_names_match_the_benchmark_trace():
    # perfbench's pipeline run is marked incorrect when its SUITE_CHECKS differ from
    # the report's names, so a new check must be added there too
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tuple(name for name, _, _ in CHECKS) == tracing.SUITE_CHECKS


class TestFailureWitnesses:
    # each patch makes one check fail on a working model; its witness is pinned,
    # and the other nine checks keep their pass
    @staticmethod
    def failures(table, h):
        report = run_suite(table, h, seed=0)
        assert [c["name"] for c in report.checks] == EXPECTED_CHECKS
        return {c["name"]: c["witness"] for c in report.checks if c["status"] == "fail"}

    def test_a_wrong_section_count_is_its_pair(self, homology32, table32, monkeypatch):
        import t3mcg.verifier as verifier

        h, original = homology32, verifier.intersection_number

        def misread(hd, c1, c2):
            if c1 is h.disk_sections_a[0] and c2 is h.disk_sections_b[1]:
                return 1, 2
            return original(hd, c1, c2)

        monkeypatch.setattr(verifier, "intersection_number", misread)
        assert self.failures(table32, h) == {
            "mesh_facts": [{"pair": "A1,B2", "algebraic": 1, "geometric": 2}]
        }

    def test_a_one_piece_cut_is_its_pieces(self, homology32, table32, monkeypatch):
        from t3mcg.mesh.curves import cut_along

        piece = cut_along(homology32.mesh, homology32.tubes[2])[:1]
        monkeypatch.setattr("t3mcg.verifier.cut_along", lambda mesh, curves: piece)
        assert self.failures(table32, homology32) == {"mesh_facts": [{"cut_pieces": piece}]}

    def test_a_failed_round_trip_names_three_words(self, homology32, table32, monkeypatch):
        from t3mcg.rep3 import IDENTITY3, word_image3
        from t3mcg.words import parse_word

        monkeypatch.setattr("t3mcg.verifier.decompose_sl3", lambda m: ())
        failed = self.failures(table32, homology32)
        assert list(failed) == ["decomposition_roundtrip"]
        bad = failed["decomposition_roundtrip"]
        assert len(bad) == 3 and all(sorted(b) == ["index", "word"] for b in bad)
        indices = [b["index"] for b in bad]
        assert indices == sorted(set(indices)) and 0 <= indices[0] and indices[-1] < 1000
        assert all(word_image3(parse_word(b["word"])) != IDENTITY3 for b in bad)

import json
import os
import re
import sys

import pytest

from t3mcg.cli import main
from t3mcg.mesh import SampleOnSurfaceError
from t3mcg.mesh.curves import DegeneracyError, TransversalityError
from t3mcg.rep6 import INPUT_LIMIT, HandednessError


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_rotation_matrix(self, capsys):
        code, out, _ = run_cli(["eval", "--level", "3", "r12"], capsys)
        assert code == 0
        assert out.splitlines() == [" 0 -1  0", " 1  0  0", " 0  0  1"]

    def test_empty_word_is_identity(self, capsys):
        code, out, _ = run_cli(["--json", "eval", "--level", "3", ""], capsys)
        assert code == 0
        assert json.loads(out) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(["eval", "--level", "3", "zork"], capsys)
        assert code == 2
        assert "token" in err

    def test_level6_without_table_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(["eval", "--level", "6", "s"], capsys)
        assert code == 2
        assert "table" in err


class TestDecompose:
    def test_identity(self, capsys):
        code, out, _ = run_cli(["decompose", "[[1,0,0],[0,1,0],[0,0,1]]"], capsys)
        assert code == 0
        assert out.strip() == ""

    def test_shear(self, capsys):
        code, out, _ = run_cli(["decompose", "[[1,0,0],[0,1,0],[0,1,1]]"], capsys)
        assert code == 0
        assert out.strip()  # some equivalent word; verified by the command

    def test_determinant_error(self, capsys):
        code, _, err = run_cli(["decompose", "[[1,0,0],[0,1,0],[0,0,2]]"], capsys)
        assert code == 2
        assert "determinant" in err

    def test_flat_row_major_input(self, capsys):
        code, out, _ = run_cli(["--json", "decompose", "[1,0,0,1,1,0,0,0,1]"], capsys)
        assert code == 0
        assert json.loads(out)["word"]

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("[[1,2,0],[0,1,0],[0,0,1]]"))
        code, out, _ = run_cli(["decompose", "-"], capsys)
        assert code == 0
        assert "a21" in out

    def test_invalid_json_exits_2(self, capsys):
        code, _, err = run_cli(["decompose", "not json"], capsys)
        assert code == 2
        assert "JSON" in err

    def test_deeply_nested_json_exits_2(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 200_000))
        code, _, err = run_cli(["decompose", "-"], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMesh:
    def test_validate(self, capsys):
        code, out, _ = run_cli(
            ["--json", "--resolution", "16", "mesh", "validate"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["euler_characteristic"] == -4
        assert report["genus"] == 3

    def test_bad_resolution_exits_2(self, capsys):
        code, _, _ = run_cli(["--resolution", "7", "mesh", "validate"], capsys)
        assert code == 2

    @pytest.mark.parametrize("resolution", ["12", "24"])
    def test_resolution_not_power_of_two_exits_2(self, resolution, capsys):
        # even resolutions with an odd factor put samples on the surface
        code, _, err = run_cli(["--resolution", resolution, "mesh", "validate"], capsys)
        assert code == 2
        assert "power of two" in err
        assert "Traceback" not in err

    def test_export_roundtrip(self, tmp_path, capsys):
        out_path = str(tmp_path / "m.off")
        code, out, _ = run_cli(
            ["--json", "--resolution", "16", "mesh", "export", out_path], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["closed"] and report["euler_characteristic"] == -4

    def test_curves(self, capsys):
        code, out, _ = run_cli(
            ["--json", "--resolution", "16", "mesh", "curves"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["pairwise"]["A1,B2"] == {"algebraic": 0, "geometric": 2}
        assert data["pairwise"]["A1,B1"] == {"algebraic": 0, "geometric": 0}
        assert all(len(v) == 1 for v in data["curves"].values())


@pytest.mark.slow
class TestVerifyCommand:
    def test_verify_derives_table_and_passes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            ["--resolution", "16", "--seed", "7", "--json", "verify"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert os.path.exists("t3mcg-table-n16.json")
        # cached table: byte-identical second run
        code2, out2, _ = run_cli(
            ["--resolution", "16", "--seed", "7", "--json", "verify"], capsys
        )
        assert code2 == 0
        assert out2 == out

    def test_table_show(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(["--resolution", "16", "table", "derive"], capsys)
        assert code == 0
        code, out, _ = run_cli(["--resolution", "16", "--json", "table", "show"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["handedness"] == "alternating"
        assert set(data["matrices"]) == {
            "a12", "a13", "a21", "a23", "a31", "a32", "s", "t",
        }

    def test_table_resolution_mismatch_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(["--resolution", "16", "table", "derive"], capsys)
        assert code == 0
        code, _, err = run_cli(
            ["--resolution", "32", "--table", "t3mcg-table-n16.json",
             "eval", "--level", "6", "s"],
            capsys,
        )
        assert code == 2
        assert "resolution" in err


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "content",
        ["{not json", '{"matrices": {}}', '{"matrices": 5}', None],
        ids=["not-json", "no-handedness", "matrices-not-a-map", "directory"],
    )
    @pytest.mark.parametrize(
        "command", [["eval", "--level", "6", "s"], ["table", "show"]], ids=["eval", "show"]
    )
    def test_bad_table_exits_2(self, content, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        code, _, err = run_cli(["--table", str(path)] + command, capsys)
        assert code == 2
        assert f"cannot read table {path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command", [["eval", "--level", "6", "s"], ["table", "show"]], ids=["eval", "show"]
    )
    def test_deeply_nested_table_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, _, err = run_cli(["--table", str(path)] + command, capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read table {path}") and err.count("\n") == 1

    def test_table_with_list_provenance_exits_2(self, table32, tmp_path, capsys):
        data = table32.to_json()
        data["provenance"] = ["x"]
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(["--table", str(path), "table", "show"], capsys)
        assert code == 2
        assert f"cannot read table {path}" in err
        assert "provenance" in err

    def test_table_without_generators_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"matrices": {}, "handedness": "alternating", "resolution": 32}')
        code, _, err = run_cli(["--table", str(path), "eval", "--level", "6", "s"], capsys)
        assert code == 2
        assert f"cannot read table {path}" in err
        assert "matrix a12 is missing" in err
        assert "Traceback" not in err

    def test_table_with_identity_swap_exits_2(self, table32, tmp_path, capsys):
        from t3mcg.rep6 import IDENTITY6

        data = table32.to_json()
        data["matrices"]["s"] = [list(row) for row in IDENTITY6]
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(["--table", str(path), "eval", "--level", "6", "s"], capsys)
        assert code == 2
        assert f"cannot read table {path}" in err
        assert "matrix s" in err

    def test_derive_to_missing_directory_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "x.json")
        code, _, err = run_cli(["--resolution", "8", "--table", path, "table", "derive"], capsys)
        assert code == 2
        assert f"cannot write table {path}" in err
        assert "Traceback" not in err

    def test_missing_table_for_show_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code, _, err = run_cli(["--table", str(path), "table", "show"], capsys)
        assert code == 2
        assert str(path) in err

    def test_export_to_missing_directory_exits_2(self, tmp_path, capsys):
        out_path = str(tmp_path / "missing" / "x.off")
        code, _, err = run_cli(["--resolution", "8", "mesh", "export", out_path], capsys)
        assert code == 2
        assert f"cannot write {out_path}" in err

    def test_export_that_cannot_be_read_back_exits_2(self, capsys):
        # the write succeeds, but the null device reads back empty
        code, out, err = run_cli(["--resolution", "8", "mesh", "export", os.devnull], capsys)
        assert code == 2 and not out
        assert err.splitlines() == [f"error: cannot read back {os.devnull}: not an OFF file"]


class TestMeshBuild:
    def test_build_prints_the_validate_report(self, capsys):
        _, validate_out, _ = run_cli(["--json", "--resolution", "16", "mesh", "validate"], capsys)
        code, build_out, _ = run_cli(["--json", "--resolution", "16", "mesh", "build"], capsys)
        assert code == 0
        assert build_out == validate_out


class TestDomainErrors:
    @pytest.mark.parametrize(
        "error",
        [DegeneracyError, TransversalityError, HandednessError, SampleOnSurfaceError],
    )
    def test_domain_error_is_one_line(self, error, tmp_path, capsys, monkeypatch):
        def fail(resolution):
            raise error("surface oracle gave up")

        monkeypatch.setattr("t3mcg.cli.build_surface", fail)
        code, _, err = run_cli(
            ["--resolution", "8", "--table", str(tmp_path / "t.json"), "verify"], capsys
        )
        assert code == 1
        assert err == f"error: {error.__name__}: surface oracle gave up\n"


class TestNonIntegerEntries:
    @pytest.mark.parametrize(
        "matrix",
        ["[[1.9,0,0],[0,1,0],[0,0,1]]", "[[1,0,0],[0,1,0],[0,2.5,1]]"],
        ids=["identity-after-truncation", "shear-after-truncation"],
    )
    def test_decompose_refuses_float_entries(self, matrix, capsys):
        code, out, err = run_cli(["decompose", matrix], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: matrix entry") and "not an integer" in err

    def test_table_with_float_entry_exits_2(self, table32, tmp_path, capsys):
        data = table32.to_json()
        t = data["matrices"]["t"]
        i, j = next((i, j) for i, row in enumerate(t) for j, x in enumerate(row) if x == 1)
        t[i][j] = 1.5
        path = tmp_path / "float.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(["--table", str(path), "eval", "--level", "6", "t"], capsys)
        assert code == 2
        assert f"cannot read table {path}" in err
        assert "1.5" in err


@pytest.mark.slow
class TestVerifyBytes:
    def test_verify_json_matches_pinned_digest(self, tmp_path, capsys, monkeypatch):
        # the exactness contract for the report: byte-identical across refactors
        import hashlib

        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["--resolution", "16", "--seed", "7", "--json", "verify"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "82e84f51f94ddea7314616de3d52164fed27867fc61e98477ed49405d32541a7"
        )


@pytest.mark.slow
class TestVerifyBytesDefaultResolution:
    def test_verify_json_at_n32_matches_pinned_digest(self, tmp_path, capsys, monkeypatch):
        # the default resolution with no cached table: derivation, walks and suite
        import hashlib

        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["--resolution", "32", "--seed", "0", "--json", "verify"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b8b14afa97dbc0b39d475d6e948d651e7faf12500f5b3f09df7317ebc69e036f"
        )


class TestMissingTableDirectory:
    @pytest.mark.parametrize("command", [["table", "derive"], ["verify"]], ids=["derive", "verify"])
    def test_refused_before_derivation(self, command, tmp_path, capsys, monkeypatch):
        def derive(resolution):
            raise AssertionError("the surface was built for an unwritable table")

        monkeypatch.setattr("t3mcg.cli.build_surface", derive)
        path = str(tmp_path / "missing" / "t.json")
        code, out, err = run_cli(["--resolution", "8", "--table", path, *command], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write table {path}")

    def test_a_link_into_a_missing_directory_is_refused(self, tmp_path, capsys, monkeypatch):
        # the link's own directory is writable; its target's is missing
        def derive(resolution):
            raise AssertionError("the surface was built for an unwritable table")

        monkeypatch.setattr("t3mcg.cli.build_surface", derive)
        link = tmp_path / "t.json"
        link.symlink_to(tmp_path / "missing" / "t.json")
        code, out, err = run_cli(["--resolution", "64", "--table", str(link), "table", "derive"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write table {link}: no directory {tmp_path / 'missing'}\n"


class TestExportRefusals:
    @staticmethod
    def export_without_building(path, capsys, monkeypatch):
        def no_build(resolution):
            raise AssertionError("the surface was built for an unwritable export path")

        monkeypatch.setattr("t3mcg.cli.build_surface", no_build)
        return run_cli(["--resolution", "128", "mesh", "export", str(path)], capsys)

    def test_directory_path_is_refused_before_the_build(self, tmp_path, capsys, monkeypatch):
        code, out, err = self.export_without_building(tmp_path, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {tmp_path}: it is a directory\n"

    def test_missing_directory_is_refused_before_the_build(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "missing" / "s.off"
        code, out, err = self.export_without_building(path, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: no directory {tmp_path / 'missing'}\n"

    def test_unwritable_existing_file_is_refused_before_the_build(
        self, tmp_path, capsys, monkeypatch
    ):
        # os.access grants root everything, so the denial is patched in; an
        # existing path is probed itself, not its directory
        path = tmp_path / "s.off"
        path.write_text("")
        probed = []
        monkeypatch.setattr("os.access", lambda p, mode: probed.append(p) or False)
        code, out, err = self.export_without_building(path, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: it is not writable\n"
        assert probed == [str(path)]


class TestMeshCurvesBytes:
    @pytest.mark.parametrize(
        "n, digest",
        [
            (8, "4b36501c9a0ca89a979e42d58a1a49730e33b2e759a49338fcffd89f579e5120"),
            (16, "400ffadd7592991d9d1159e2cea98595b2ff135545e36a6520f37e5de9eac4b4"),
            (32, "1f997cd679a23cf9c5f53f758116b24c38db77bcb628e38d5180b0daa1fefcdc"),
        ],
        ids=["n8", "n16", "n32"],
    )
    def test_mesh_curves_json_matches_pinned_digest(self, n, digest, capsys):
        import hashlib

        code, out, _ = run_cli(["--resolution", str(n), "--json", "mesh", "curves"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestHugeTableEntries:
    # -2^63 fits int64, but numpy's abs of it wraps to -2^63
    @pytest.mark.parametrize("entry", [2**61, -2**63, 2**64], ids=["2^61", "-2^63", "2^64"])
    def test_eval_level6_is_exact(self, entry, table32, tmp_path, capsys):
        from t3mcg.rep3 import mat_mul

        data = table32.to_json()
        t = [[int(i == j) for j in range(6)] for i in range(6)]
        t[0][3] = entry  # [[I, S], [0, I]] with S[0][0] = entry is symplectic
        data["matrices"]["t"] = t
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["--table", str(path), "--json", "eval", "--level", "6", "t a12"], capsys)
        assert code == 0, err
        assert json.loads(out) == [list(r) for r in mat_mul(table32.matrices["a12"], t)]


class TestCachedTubeRadius:
    COMMANDS = [["table", "show"], ["eval", "--level", "6", "t s"], ["verify"]]

    def forged(self, table32, tmp_path, radius):
        data = table32.to_json()
        data["tube_radius"] = radius
        path = tmp_path / "radius.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("command", COMMANDS, ids=["show", "eval", "verify"])
    @pytest.mark.parametrize("radius", ["abc", "-5/16"])
    def test_malformed_radius_exits_2(self, radius, command, table32, tmp_path, capsys):
        path = self.forged(table32, tmp_path, radius)
        code, out, err = run_cli(["--json", "--table", str(path)] + command, capsys)
        assert (code, out) == (2, "")
        assert f"cannot read table {path}" in err and "malformed tube_radius" in err

    @pytest.mark.parametrize("command", COMMANDS[1:], ids=["eval", "verify"])
    @pytest.mark.parametrize("radius", ["1/4", ""])
    def test_other_radius_exits_2(self, radius, command, table32, tmp_path, capsys):
        path = self.forged(table32, tmp_path, radius)
        code, out, err = run_cli(["--json", "--table", str(path)] + command, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: table {path} records tube radius {radius!r}, not 5/16\n"

    def test_equal_radius_in_other_notation_is_used(self, table32, tmp_path, capsys):
        path = self.forged(table32, tmp_path, "10/32")
        code, out, _ = run_cli(["--json", "--table", str(path), "eval", "--level", "6", "t s"], capsys)
        assert code == 0 and json.loads(out)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        import t3mcg

        src = str(Path(t3mcg.__file__).resolve().parent.parent)
        path = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "t3mcg", "--resolution", "8", "mesh", "validate"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout


class TestDecomposeLength:
    def test_word_past_the_letter_cap_exits_2(self, capsys):
        # 10**23 letters would overflow a list; the length is known before the word
        matrix = "[[1,100000000000000000000000,0],[0,1,0],[0,0,1]]"
        code, out, err = run_cli(["--json", "decompose", matrix], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "100000000000000000000000 letters" in err


class TestResolutionCap:
    @pytest.mark.parametrize("resolution", ["1024", "1048576"])
    def test_past_the_cap_exits_2_before_building(self, resolution, capsys, monkeypatch):
        def build(_):
            raise AssertionError("built a surface past the resolution cap")

        monkeypatch.setattr("t3mcg.cli.build_surface", build)
        code, out, err = run_cli(["--resolution", resolution, "--json", "mesh", "validate"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: ") and "Traceback" not in err
        assert f"a power of two from 8 to 512, got {resolution}" in err

    def test_cap_itself_is_accepted(self):
        from t3mcg.cli import power_of_two_resolution

        assert power_of_two_resolution("512") == 512


def _error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


def _extra_matrix(data):
    data["matrices"]["x12"] = [[int(i == j) for j in range(6)] for i in range(6)]


def _string_resolution(data):
    data["resolution"] = str(data["resolution"])


def _a12_as_a13(data):
    data["matrices"]["a12"] = data["matrices"]["a13"]


def _s_not_an_involution(data):
    # [[P, 0], [0, I]] intertwines with the projection for any P; s * s = I
    # needs P * P = I, which a shear P breaks.  (Every antisymplectic s that
    # intertwines has P = -I and is an involution, so this s breaks the law too.)
    s = [[int(i == j) for j in range(6)] for i in range(6)]
    s[0][1] = 1
    data["matrices"]["s"] = s


def _without(key):
    return lambda data: data.pop(key)


def _matrices_as_list(data):
    data["matrices"] = list(data["matrices"].values())


def _s_as(value):
    def forge(data):
        data["matrices"]["s"] = value

    return forge


class TestTableRefusals:
    CASES = [
        (_extra_matrix, "unknown matrix 'x12'"),
        (_string_resolution, "resolution must be an integer, got '32'"),
        (_a12_as_a13, "matrix a12 does not intertwine with the projection"),
        (_s_not_an_involution, "matrix s is not antisymplectic"),
        (_without("matrices"), "missing key 'matrices'"),
        (_without("resolution"), "missing key 'resolution'"),
        (_without("handedness"), "missing key 'handedness'"),
        (_matrices_as_list, "key 'matrices' is not a JSON object"),
        (_s_as(3), "expected a 6x6 matrix"),
        (_s_as([1, 0, 0, 0, 0, 0]), "expected a 6x6 matrix"),
    ]
    IDS = ["extra-matrix", "string-resolution", "a12-as-a13", "s-not-an-involution"]
    IDS += ["no-matrices", "no-resolution", "no-handedness"]
    IDS += ["matrices-list", "s-int", "s-rows-ints"]

    @pytest.mark.parametrize("forge, message", CASES, ids=IDS)
    def test_from_json_refuses(self, forge, message, table32):
        from t3mcg.rep6 import GeneratorTable6

        data = table32.to_json()
        forge(data)
        with pytest.raises(ValueError) as info:
            GeneratorTable6.from_json(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("forge, message", CASES, ids=IDS)
    def test_cli_refuses(self, forge, message, table32, tmp_path, capsys):
        data = table32.to_json()
        forge(data)
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["--table", str(path), "table", "show"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read table {path}: {message}\n"


class TestTopLevelRefusal:
    def test_a_number_is_no_table(self, tmp_path, capsys):
        from t3mcg.rep6 import GeneratorTable6

        with pytest.raises(ValueError, match="^table is not a JSON object$"):
            GeneratorTable6.from_json(3)
        path = tmp_path / "three.json"
        path.write_text("3\n")
        code, out, err = run_cli(["--table", str(path), "table", "show"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read table {path}: table is not a JSON object\n"


class TestNonInvolutiveSwap:
    def test_table_derive_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        shear = tuple(tuple(int(i == j) + int((i, j) == (0, 1)) for j in range(6)) for i in range(6))
        monkeypatch.setattr("t3mcg.rep6.derive_swap6", lambda h: shear)
        path = tmp_path / "t8.json"
        code, out, err = run_cli(["--resolution", "8", "--table", str(path), "table", "derive"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: DegeneracyError: swap action is not an involution\n"
        assert not path.exists()


class TestInputRefusals:
    def test_two_by_two_matrix(self, capsys):
        from t3mcg.rep3 import mat3

        with pytest.raises(ValueError, match="expected a 3x3 matrix"):
            mat3([[1, 0], [0, 1]])
        code, out, err = run_cli(["decompose", "[[1,0],[0,1]]"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: expected a 3x3 matrix\n"

    def test_resolution_that_is_not_a_number(self, capsys):
        import argparse

        from t3mcg.cli import power_of_two_resolution

        with pytest.raises(argparse.ArgumentTypeError, match="must be an integer, got 'abc'"):
            power_of_two_resolution("abc")
        code, out, err = run_cli(["--resolution", "abc", "mesh", "validate"], capsys)
        assert (code, out) == (2, "")
        assert _error_lines(err) == [
            "t3mcg: error: argument --resolution: resolution must be an integer, got 'abc'"
        ]

    def test_table_path_that_is_a_directory(self, table32, tmp_path, capsys):
        from t3mcg.cli import UsageError, write_table

        with pytest.raises(UsageError, match=f"cannot write table {tmp_path}: "):
            write_table(table32, str(tmp_path))
        code, out, err = run_cli(
            ["--resolution", "8", "--table", str(tmp_path), "table", "derive"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write table {tmp_path}: ")
        assert err.count("\n") == 1

    @staticmethod
    def derive_without_building(path, capsys, monkeypatch):
        def no_build(resolution):
            raise AssertionError("the surface was built")

        monkeypatch.setattr("t3mcg.cli.build_surface", no_build)
        return run_cli(["--resolution", "64", "--table", str(path), "table", "derive"], capsys)

    def test_table_directory_is_refused_before_the_derivation(self, tmp_path, capsys, monkeypatch):
        code, out, err = self.derive_without_building(tmp_path, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write table {tmp_path}: it is a directory\n"

    def test_unwritable_directory_is_refused_before_the_derivation(
        self, tmp_path, capsys, monkeypatch
    ):
        # os.access grants root everything, so the denial is patched in
        monkeypatch.setattr("os.access", lambda path, mode: False)
        path = tmp_path / "t64.json"
        code, out, err = self.derive_without_building(path, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write table {path}: directory {tmp_path} is not writable\n"


    @pytest.fixture
    def digit_limit(self):
        # Python's limit on int-string conversion, set to its default for the test
        get = getattr(sys, "get_int_max_str_digits", None)
        if get is None:
            pytest.skip("this Python has no int-string digit limit")
        old = get()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(old)

    def test_matrix_entry_past_the_digit_limit(self, digit_limit, capsys):
        matrix = f"[[1,{'1' * (digit_limit + 700)},0],[0,1,0],[0,0,1]]"
        code, out, err = run_cli(["decompose", matrix], capsys)
        assert (code, out) == (2, "")
        assert _error_lines(err) == err.splitlines()
        assert len(err.splitlines()) == 1 and f"({digit_limit} digits)" in err
        assert "PYTHONINTMAXSTRDIGITS" in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("level", ["3", "6"])
    def test_eval_answer_past_the_digit_limit(
        self, level, json_flag, digit_limit, table32, tmp_path, capsys
    ):
        # the entries of (a12 a21)^12000 have over 5000 digits; nothing is printed
        path = str(tmp_path / "table.json")
        table32.save(path)
        word = " ".join(["a12 a21"] * 12000)
        argv = [*json_flag, "--table", path, "eval", "--level", level, word]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot print the matrix: ") and err.count("\n") == 1
        assert f"({digit_limit} digits)" in err
        assert "PYTHONINTMAXSTRDIGITS" in err and "set_int_max_str_digits" not in err


class TestTextOutput:
    # the human-readable output: its shape is pinned, not its bytes
    NAMES = [f"{side}{axis}" for side in "AB" for axis in (1, 2, 3)]

    def test_mesh_validate(self, capsys):
        code, out, _ = run_cli(["--resolution", "8", "mesh", "validate"], capsys)
        assert code == 0
        lines = out.splitlines()
        keys = [line.split(": ", 1)[0] for line in lines]
        assert keys == sorted(keys) and "genus: 3" in lines
        assert {"closed: True", "orientable: True", "connected: True"} <= set(lines)

    def test_mesh_curves(self, capsys):
        code, out, _ = run_cli(["--resolution", "8", "mesh", "curves"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[:6] == [f"{n}: 1 loop(s), displacement [0, 0, 0]" for n in self.NAMES]
        pairs = [f"{a},{b}" for i, a in enumerate(self.NAMES) for b in self.NAMES[i + 1:]]
        assert [line.split(": ", 1)[0] for line in lines[6:]] == sorted(pairs)
        assert all(
            re.fullmatch(r"[AB]\d,[AB]\d: algebraic -?\d+, geometric \d+", line)
            for line in lines[6:]
        )

    def test_verify(self, tmp_path, capsys):
        table = str(tmp_path / "t8.json")
        code, out, _ = run_cli(["--resolution", "8", "--table", table, "verify"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11
        names = [re.fullmatch(r"\[PASS\] (\w+): \S.*", line).group(1) for line in lines[:10]]
        assert len(set(names)) == 10
        assert lines[10] == "result: all checks passed"

    def test_table_derive(self, tmp_path, capsys):
        path = str(tmp_path / "t8.json")
        code, out, _ = run_cli(["--resolution", "8", "--table", path, "table", "derive"], capsys)
        assert (code, out) == (0, f"wrote {path} (handedness: alternating)\n")
        argv = ["--resolution", "8", "--table", path, "--json", "table", "derive"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out) == {"path": path, "handedness": "alternating"}

    def test_table_show(self, table32, tmp_path, capsys):
        from t3mcg.words import BASE_TOKENS

        path = tmp_path / "t32.json"
        table32.save(str(path))
        code, out, _ = run_cli(["--table", str(path), "table", "show"], capsys)
        assert code == 0
        header, *blocks = out.rstrip("\n").split("\n\n")
        assert header == "resolution 32, handedness alternating"
        assert [b.split("\n", 1)[0] for b in blocks] == [f"{t}:" for t in sorted(BASE_TOKENS)]
        for block in blocks:
            _, *rows, note = block.split("\n")
            assert len(rows) == 6 and all(len(row.split()) == 6 for row in rows)
            assert note.startswith("  (") and note.endswith(")")


class TestInputBound:
    # a table file or a stdin matrix is read to INPUT_LIMIT characters and one more, so
    # an endless input is refused without being held whole
    @staticmethod
    def long_table(tmp_path):
        path = tmp_path / "long.json"
        path.write_text(" " * (INPUT_LIMIT + 1))
        return path

    def test_table_show_refuses_a_long_file(self, tmp_path, capsys):
        path = self.long_table(tmp_path)
        code, out, err = run_cli(["--table", str(path), "table", "show"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot read table {path}: "
            f"the file is longer than {INPUT_LIMIT} characters\n"
        )

    def test_verify_refuses_a_long_file_before_the_build(self, tmp_path, capsys, monkeypatch):
        def no_build(resolution):
            raise AssertionError("the surface was built for an unreadable table")

        monkeypatch.setattr("t3mcg.cli.build_surface", no_build)
        path = self.long_table(tmp_path)
        code, out, err = run_cli(["--resolution", "8", "--table", str(path), "verify"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read table {path}: ") and err.count("\n") == 1
        assert f"longer than {INPUT_LIMIT} characters" in err

    def test_a_file_at_the_bound_is_read(self, tmp_path, capsys):
        # one character less is parsed, and refused only as no table
        path = tmp_path / "spaces.json"
        path.write_text("3" + " " * (INPUT_LIMIT - 1))
        code, _, err = run_cli(["--table", str(path), "table", "show"], capsys)
        assert code == 2 and "longer than" not in err and err.count("\n") == 1

    def test_decompose_refuses_a_long_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(" " * (INPUT_LIMIT + 1)))
        code, out, err = run_cli(["decompose", "-"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read stdin: it is longer than {INPUT_LIMIT} characters\n"

    def test_decompose_reads_a_stdin_at_the_bound(self, capsys, monkeypatch):
        import io

        text = "[[1,2,0],[0,1,0],[0,0,1]]"
        monkeypatch.setattr("sys.stdin", io.StringIO(text.ljust(INPUT_LIMIT)))
        code, out, _ = run_cli(["decompose", "-"], capsys)
        assert code == 0 and "a21" in out


class TestExportWrites:
    def test_text_output_is_one_wrote_line(self, tmp_path, capsys):
        path = tmp_path / "m.off"
        code, out, err = run_cli(["--resolution", "8", "mesh", "export", str(path)], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 and out.startswith(f"wrote {path}: {{")
        assert "'closed': True" in out and "'euler_characteristic': -4" in out

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_device_is_refused_at_write_time(self, capsys):
        # check_writable passes the writable device; the write itself fails with ENOSPC
        code, out, err = run_cli(["--resolution", "8", "mesh", "export", "/dev/full"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1
        assert "No space left on device" in err


def test_decompose_refuses_a_failed_round_trip(capsys, monkeypatch):
    monkeypatch.setattr("t3mcg.rep3.decompose_sl3", lambda m: ())
    code, out, err = run_cli(["decompose", "[[1,1,0],[0,1,0],[0,0,1]]"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: decomposition failed its own round-trip\n"

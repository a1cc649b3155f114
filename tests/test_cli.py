import json
import os

import pytest

from t3mcg.cli import main
from t3mcg.mesh import SampleOnSurfaceError
from t3mcg.mesh.curves import DegeneracyError, TransversalityError
from t3mcg.rep6 import HandednessError


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

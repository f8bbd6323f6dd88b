"""Command line behavior: exit codes, emitted files, output shape."""

from __future__ import annotations

import pytest

from refinedgeo import algebra
from refinedgeo.cli import main
from refinedgeo.scenario import bundled_scenarios


class TestCheck:
    def test_bundled_scenario_by_name(self, capsys):
        assert main(["check", "quad_diagonals"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_i32_angle_partitions_need_no_clipping(self, monkeypatch, capsys):
        """Euclid I.32's exterior angle: its three angle partitions have
        unbounded wholes, and the boundary certificate decides all three, so
        the clipping checks never run."""
        calls = []
        witness = algebra._partition_witness

        def counted(parts, whole):
            calls.append(whole)
            return witness(parts, whole)

        monkeypatch.setattr(algebra, "_partition_witness", counted)
        assert main(["check", "i32"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == out.count("\n") and out.count("angle_partition") == 3
        assert not calls

    def test_scenario_by_path(self):
        path = bundled_scenarios()["ii1"]
        assert main(["check", path]) == 0

    def test_failing_assertion_exits_one(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "polytope T = poly (0,0) (4,0) (0,3)\nassert empty T\n"
        )
        assert main(["check", str(scn)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        scn = tmp_path / "broken.scn"
        scn.write_text("polytope = poly\n")
        assert main(["check", str(scn)]) == 2
        assert ": 1:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "no_such_scenario"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("polytope S = poly (0,0) (1,0) (2,0)\n", "polygon has a spike"),
            (
                "polytope A = poly (0,0) (1,0) (1,1) (0,1)\npolytope B = union A A\nwbg A B\n",
                "wbg needs polygons declared with poly vertex lists: B",
            ),
        ],
        ids=["spike", "wbg_of_a_union"],
    )
    def test_bad_geometry_exits_two(self, tmp_path, capsys, text, message):
        scn = tmp_path / "bad_geometry.scn"
        scn.write_text(text)
        assert main(["check", str(scn)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{scn}: ") and message in captured.err
        assert "Traceback" not in captured.err and not captured.out

    def test_render_lands_in_outdir(self, tmp_path):
        scn = tmp_path / "draw.scn"
        scn.write_text("polytope T = poly (0,0) (4,0) (0,3)\nrender t.svg T\n")
        assert main(["check", str(scn), "--outdir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "t.svg").exists()

    def test_outdir_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REFINEDGEO_OUTDIR", str(tmp_path / "envout"))
        scn = tmp_path / "draw.scn"
        scn.write_text("polytope T = poly (0,0) (4,0) (0,3)\nrender t.svg T\n")
        assert main(["check", str(scn)]) == 0
        assert (tmp_path / "envout" / "t.svg").exists()


class TestOp:
    def test_reports_cells_and_area(self, capsys):
        code = main(
            ["op", "difference (poly (0,0) (4,0) (0,3)) (poly (0,0) (2,0) (0,2))"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cells:" in out
        assert "empty: no" in out
        assert "area: 4" in out

    def test_empty_result(self, capsys):
        code = main(
            ["op", "intersect (poly (0,0) (1,0) (0,1)) (poly (5,5) (6,5) (5,6))"]
        )
        assert code == 0
        assert "empty: yes" in capsys.readouterr().out

    def test_emit_svg(self, tmp_path, capsys):
        out = tmp_path / "x.svg"
        assert main(["op", "poly (0,0) (1,0) (0,1)", "--emit", str(out)]) == 0
        assert out.exists()
        assert "<svg" in out.read_text()

    def test_bad_expression_exits_two(self, capsys):
        assert main(["op", "poly (0,0)"]) == 2
        assert "at least 3 vertices" in capsys.readouterr().err

    def test_bad_geometry_exits_two(self, capsys):
        assert main(["op", "poly (0,0) (1,0) (2,0)"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("expression: ") and "polygon has a spike" in captured.err
        assert "Traceback" not in captured.err and not captured.out


class TestWbg:
    SQUARE = "(0,0) (1,0) (1,1) (0,1)"
    RECT = "(0,0) (2,0) (2,1/2) (0,1/2)"

    def test_verified_decomposition(self, capsys, tmp_path):
        svg = tmp_path / "d.svg"
        dec = tmp_path / "d.txt"
        code = main(
            ["wbg", self.SQUARE, self.RECT, "--emit", str(svg), "--emit-decomp", str(dec)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pieces:" in out and "PASS" in out and "FAIL" not in out
        assert svg.exists()
        lines = dec.read_text().splitlines()
        assert lines[0] == "refinedgeo-decomposition 1"
        assert lines[1].startswith("pieces ")
        assert any(l.startswith("source-cell ") for l in lines)
        assert any(l.startswith("target-cell ") for l in lines)
        assert any(l.startswith("motion ") for l in lines)

    def test_area_mismatch_exits_one(self, capsys):
        code = main(["wbg", self.SQUARE, "(0,0) (3,0) (3,3) (0,3)"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_polygon_exits_two(self, capsys):
        assert main(["wbg", "(0,0) (1,0)", self.RECT]) == 2
        capsys.readouterr()


class TestSelftest:
    def test_passes_with_default_seed(self, capsys):
        assert main(["selftest", "--iters", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_seed_changes_cases_not_outcome(self, capsys):
        assert main(["selftest", "--iters", "3", "--seed", "99"]) == 0
        capsys.readouterr()


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2

"""Surface file round-trips and the command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flatsurfkit import surface_io
from flatsurfkit.cli import run
from flatsurfkit.surface import Polygon, Surface, SurfaceError


class TestSurfaceFiles:
    def test_exact_roundtrip_is_bit_exact(self, ay):
        text = surface_io.dumps(ay)
        back = surface_io.loads(text)
        assert back == ay
        assert back.is_exact()
        assert surface_io.dumps(back) == text

    def test_float_roundtrip(self, ay):
        floated = Surface(
            [Polygon([(float(x), float(y)) for x, y in p.vertices]) for p in ay.polygons],
            ay.gluings,
            ay.kind,
        )
        back = surface_io.loads(surface_io.dumps(floated))
        assert back == floated

    @pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
    def test_writer_rejects_non_finite_floats(self, bad):
        poly = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, bad), (0.0, 1.0)])
        with pytest.raises(SurfaceError, match=r"polygons\[0\]\[2\]"):
            surface_io.dumps(Surface([poly], []))

    def test_rejects_unknown_format(self):
        with pytest.raises(SurfaceError):
            surface_io.loads('{"format": "nope", "kind": "translation", "polygons": [], "gluings": []}')


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_build_info_pipeline(self, tmp_path, capsys):
        path = tmp_path / "ay.json"
        code, _, _ = invoke(capsys, "build", "ay", "-o", str(path))
        assert code == 0
        code, out, _ = invoke(capsys, "info", str(path))
        assert code == 0
        assert "genus 3" in out
        assert "6pi 6pi" in out

    def test_delaunay_census(self, tmp_path, capsys):
        path = tmp_path / "ay.json"
        invoke(capsys, "build", "ay", "-o", str(path))
        code, out, _ = invoke(capsys, "delaunay", str(path))
        assert code == 0
        assert "2 squares" in out and "4 trapezoids" in out

    @pytest.mark.parametrize("build, scale, census", (
        (["ay"], "1e9", "6 cells: 2 squares, 4 trapezoids"),
        (["trapezoid", "--b", "1", "--B", "3", "--h", "1"], "1e-10", "8 cells: 2 rectangles, 2 squares, 4 triangles"),
    ))
    def test_delaunay_census_does_not_depend_on_scale(self, build, scale, census, tmp_path, capsys):
        # Equal sides are equal relative to the longer side, as the parallel
        # and right-angle tests are.
        src, scaled = tmp_path / "s.json", tmp_path / "scaled.json"
        invoke(capsys, "build", *build, "-o", str(src))
        invoke(capsys, "apply", "-m", scale, "0", "0", scale, str(src), "-o", str(scaled))
        code, out, _ = invoke(capsys, "delaunay", str(scaled))
        assert code == 0
        assert out.splitlines()[0] == census

    def test_delaunay_svg_net(self, tmp_path, capsys):
        path = tmp_path / "ay.json"
        svg = tmp_path / "net.svg"
        invoke(capsys, "build", "ay", "-o", str(path))
        code, _, _ = invoke(capsys, "delaunay", str(path), "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "<polygon" in text and "<text" in text

    def test_isometries_output(self, tmp_path, capsys):
        path = tmp_path / "ay.json"
        invoke(capsys, "build", "ay", "-o", str(path))
        code, out, _ = invoke(capsys, "isometries", str(path))
        assert code == 0
        assert "group order 8" in out
        assert "dihedral: yes" in out

    def test_apply_and_genus2(self, tmp_path, capsys):
        src = tmp_path / "ay.json"
        dst = tmp_path / "twice.json"
        invoke(capsys, "build", "ay", "-o", str(src))
        code, _, _ = invoke(capsys, "apply", "-m", "2", "0", "0", "1", str(src), "-o", str(dst))
        assert code == 0
        assert surface_io.loads(dst.read_text()).is_exact()
        g2 = tmp_path / "xi.json"
        code, _, _ = invoke(capsys, "genus2", str(src), "--square", "0", "-o", str(g2))
        assert code == 0
        code, out, _ = invoke(capsys, "info", str(g2))
        assert "genus 2" in out and "3pi 3pi 3pi 3pi" in out

    def test_build_trapezoid_and_origami(self, tmp_path, capsys):
        path = tmp_path / "rect.json"
        code, _, _ = invoke(capsys, "build", "trapezoid", "--b", "1", "--B", "1", "--h", "0.5", "-o", str(path))
        assert code == 0
        code, out, _ = invoke(capsys, "origami-check", str(path))
        assert code == 0 and "degree 10" in out

    @pytest.mark.parametrize("t", ("1.5", "2", "3", "4", "10"))
    def test_build_rectangle(self, t, capsys):
        # J3/J1 = 1 at u = 1 but may round to just below it
        code, out, _ = invoke(capsys, "build", "rectangle", "--t", t)
        assert code == 0
        assert surface_io.loads(out).kind == "translation"

    def test_escalator_origami(self, tmp_path, capsys):
        path = tmp_path / "esc.json"
        invoke(capsys, "build", "escalator", "-o", str(path))
        code, out, _ = invoke(capsys, "origami-check", str(path))
        assert code == 0 and "degree 6" in out

    def test_periods_ratios(self, capsys):
        code, out, _ = invoke(capsys, "periods", "ratios", "--t", "2.0", "--u", "1.0")
        assert code == 0
        assert "r2 = J3/J1 = 1.00000000000" in out

    def test_periods_silhol(self, capsys):
        code, out, _ = invoke(capsys, "periods", "silhol", "--a-imag", "0.5")
        assert code == 0
        assert "ratio" in out

    def test_solve_rect(self, capsys):
        code, out, _ = invoke(capsys, "solve-rect", "--mu", "0.5")
        assert code == 0
        assert "t = 3.0000000" in out

    def test_tessellate_json_and_svg(self, tmp_path, capsys):
        surf = tmp_path / "torus.json"
        out_json = tmp_path / "tess.json"
        out_svg = tmp_path / "tess.svg"
        square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        from flatsurfkit.surface import Gluing, TRANSLATION

        torus = Surface(
            [square], [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (0, 3), TRANSLATION)]
        )
        surf.write_text(surface_io.dumps(torus))
        code, out, _ = invoke(
            capsys, "tessellate", str(surf), "--radius", "0.8", "--x", "0.05", "--y", "1.2",
            "--json", str(out_json), "--svg", str(out_svg),
        )
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["cells"] and all("walls" in c for c in data["cells"])
        assert out_svg.read_text().startswith("<svg")

    def test_usage_error_exit_code(self, capsys):
        assert run(["no-such-command"]) == 2
        assert run([]) == 2

    def test_domain_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "flatsurface/1", "kind": "translation", "scalars": "exact", '
                       '"polygons": [[["0","0"],["1","0"],["1","1"],["0","1"]]], "gluings": []}')
        assert run(["info", str(bad)]) == 1

    _TRIANGLE = '"polygons": [[["0","0"],["1","0"],["0","1"]]]'
    _GLUED = '"gluings": [[[0,0],[0,1],"translation"],[[0,2],[0,2],"reflection"]]'

    @pytest.mark.parametrize("text, field", (
        ('[1,2]', "top level"),
        ('{"format": "flatsurface/1"}', "kind"),
        ('{"format": "flatsurface/1", "kind": "translation", ' + _GLUED + '}', "polygons"),
        ('{"format": "flatsurface/1", "kind": "translation", ' + _TRIANGLE + '}', "gluings"),
        ('{"format": "flatsurface/1", "kind": "glide", ' + _TRIANGLE + ', ' + _GLUED + '}', "kind"),
        ('{"format": "flatsurface/1", "kind": "translation", "polygons": {}, ' + _GLUED + '}', "polygons"),
        ('{"format": "flatsurface/1", "kind": "translation", "polygons": [["x",["1","0"],["0","1"]]], '
         + _GLUED + '}', "polygons[0][0]"),
        ('{"format": "flatsurface/1", "kind": "translation", "polygons": [[["x","0"],["1","0"],["0","1"]]], '
         + _GLUED + '}', "polygons[0][0]"),
        ('{"format": "flatsurface/1", "kind": "translation", "polygons": [[["1/0","0"],["1","0"],["0","1"]]], '
         + _GLUED + '}', "polygons[0][0]"),
        ('{"format": "flatsurface/1", "kind": "translation", "polygons": [[[0,0],["1","0"],["0","1"]]], '
         + _GLUED + '}', "polygons[0][0]"),
        ('{"format": "flatsurface/1", "kind": "translation", "polygons": [[["1e999","0"],["1","0"],["0","1"]]], '
         + _GLUED + '}', "polygons[0][0]"),
        ('{"format": "flatsurface/1", "kind": "translation", ' + _TRIANGLE
         + ', "gluings": [[[0,0],[0,1]]]}', "gluings[0]"),
        ('{"format": "flatsurface/1", "kind": "translation", ' + _TRIANGLE
         + ', "gluings": [[[0,"a"],[0,1],"translation"]]}', "gluings[0]"),
    ), ids=["array", "format-only", "no-polygons", "no-gluings", "bad-kind", "polygons-object", "vertex-string",
            "bad-literal", "zero-denominator", "number-literal", "infinite-literal", "gluing-no-kind", "gluing-string-index"])
    def test_malformed_file_is_a_domain_error(self, text, field, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = invoke(capsys, "info", str(bad))
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and field in line

    @pytest.mark.parametrize("argv, names", (
        (["--radius", "480"], "radius"), (["--radius", "800"], "radius"), (["--radius", "inf"], "radius"),
        (["--radius", "1", "--x", "nan"], "finite point"), (["--radius", "1", "--x", "inf"], "finite point"),
        (["--radius", "1", "--y", "inf"], "finite point"),
    ), ids=["radius-480", "radius-800", "radius-inf", "x-nan", "x-inf", "y-inf"])
    def test_out_of_range_tessellate_is_a_domain_error(self, argv, names, tmp_path, capsys):
        path = tmp_path / "ay.json"
        invoke(capsys, "build", "ay", "-o", str(path))
        code, out, err = invoke(capsys, "tessellate", str(path), *argv)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and names in line and "Traceback" not in err

    def test_failed_crossing_near_the_axis_is_a_domain_error(self, tmp_path, capsys):
        # `flatsurf build ay | flatsurf tessellate --y 1e-12 --radius 0.5`:
        # two facets of the start cell cannot be crossed, so no partial
        # tessellation is printed or written.
        path = tmp_path / "ay.json"
        out_json = tmp_path / "tess.json"
        invoke(capsys, "build", "ay", "-o", str(path))
        code, out, err = invoke(capsys, "tessellate", str(path), "--y", "1e-12", "--radius", "0.5",
                                "--json", str(out_json))
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: no cell found across wall") and "Traceback" not in err
        assert not out_json.exists()

    def test_readme_tessellation_json_is_pinned(self, tmp_path, capsys):
        # `flatsurf build ay | flatsurf tessellate --radius 1.0 --json ...`:
        # the file's bytes pin the cells, samples, wall order and adjacency.
        path = tmp_path / "ay.json"
        out_json = tmp_path / "tess.json"
        invoke(capsys, "build", "ay", "-o", str(path))
        code, out, _ = invoke(capsys, "tessellate", str(path), "--radius", "1.0", "--json", str(out_json))
        assert code == 0 and "cells: 24" in out.splitlines()
        assert hashlib.sha256(out_json.read_bytes()).hexdigest() == \
            "268af195a9a16487550b154c152bd574f791853fa95366bdc799edc9edc7f9cb"

    @pytest.mark.parametrize("what, radius, digest", (
        ("ay", "2.0", "bc6cc84a8934d6ad791affca70e0fa66c5b7d38658c11187fb184a0d648e44e5"),
        ("ay-prime", "1.0", "3254a22d5dd780c557442143e840417c5b497b9b15d34739cbcdfa8f601f3075"),
        ("escalator", "3.0", "7974edb3b051a7339fd91955b684c2eeb99c883bc40f8e479ec7af77e234668a"),
    ), ids=["ay-r2", "ay-prime-r1", "escalator-r3"])
    def test_exact_tessellation_json_is_pinned(self, what, radius, digest, tmp_path, capsys):
        # `flatsurf build <what> | flatsurf tessellate --radius <radius> --json ...`.
        path = tmp_path / "surface.json"
        out_json = tmp_path / "tess.json"
        invoke(capsys, "build", what, "-o", str(path))
        code, _, _ = invoke(capsys, "tessellate", str(path), "--radius", radius, "--json", str(out_json))
        assert code == 0
        assert hashlib.sha256(out_json.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv", (
        ["trapezoid", "--b", "1", "--B", "2", "--h", "inf"],
        ["trapezoid", "--b", "1", "--B", "inf", "--h", "1"],
        ["parallelogram", "--s1x", "inf", "--s1y", "0", "--s2x", "0", "--s2y", "1"],
    ), ids=["trapezoid-h-inf", "trapezoid-B-inf", "parallelogram-s1x-inf"])
    def test_non_finite_shape_is_a_domain_error(self, argv, capsys):
        code, out, err = invoke(capsys, "build", *argv)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and "non-finite" in line and "Traceback" not in err

    @pytest.mark.parametrize("argv", (
        ["trapezoid", "--b", "1e308", "--B", "1.7e308", "--h", "1"],
        ["parallelogram", "--s1x", "1e200", "--s1y", "0", "--s2x", "0", "--s2y", "1e200"],
    ), ids=["trapezoid-overflows-to-inf", "parallelogram-overflows-to-nan"])
    def test_non_finite_vertex_is_a_domain_error(self, argv, tmp_path, capsys):
        # Finite shapes whose vertices overflow: the writer refuses what the
        # reader would reject, and leaves no output file behind.
        path = tmp_path / "out.json"
        for extra in ([], ["-o", str(path)]):
            code, out, err = invoke(capsys, "build", *argv, *extra)
            assert (code, out) == (1, "")
            [line] = err.splitlines()
            assert line.startswith("error: ") and "polygons[" in line and "non-finite" in line
        assert not path.exists()

    @pytest.mark.parametrize("t, u", (("5e102", "1"), ("1e160", "1"), ("1e200", "1"), ("2", "1e300")))
    def test_overflowing_integrand_is_a_domain_error(self, t, u, capsys):
        code, out, err = invoke(capsys, "periods", "ratios", "--t", t, "--u", u)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and "integrand overflows" in line and "Traceback" not in err

    def test_non_finite_silhol_parameter_is_a_domain_error(self, capsys):
        code, out, err = invoke(capsys, "periods", "silhol", "--a-imag", "nan")
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: a must be finite") and "Traceback" not in err

    @pytest.mark.parametrize("argv", (["solve-ay", "--tol", "0"], ["solve-rect", "--mu", "0.5", "--tol=-1e-9"],
                                      ["solve-ay", "--tol", "inf"]))
    def test_nonpositive_tolerance_exit_code(self, argv, capsys):
        code, _, err = invoke(capsys, *argv)
        assert code == 1
        assert "tolerance must be positive" in err

    @pytest.mark.parametrize("entry", ("abc", "nan", "inf", "1/0", "1e999"))
    def test_bad_matrix_entry_is_a_usage_error(self, entry, tmp_path, capsys):
        path = tmp_path / "ay.json"
        invoke(capsys, "build", "ay", "-o", str(path))
        code, out, err = invoke(capsys, "apply", "-m", "1", "0", "0", entry, str(path))
        assert (code, out) == (2, "")
        assert f"error: argument -m/--matrix: not a finite scalar: {entry!r}" in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", (
        ["info", "DIR"], ["tessellate", "AY", "--radius", "0.3", "--json", "DIR"], ["build", "ay", "-o", "DIR"],
    ), ids=["info", "tessellate-json", "build-output"])
    def test_directory_path_is_a_domain_error(self, argv, tmp_path, capsys):
        path = tmp_path / "ay.json"
        invoke(capsys, "build", "ay", "-o", str(path))
        fill = {"DIR": str(tmp_path), "AY": str(path)}
        code, _, err = invoke(capsys, *(fill.get(a, a) for a in argv))
        assert code == 1
        [line] = err.splitlines()
        assert line.startswith("error: ") and "Is a directory" in line and "Traceback" not in err

    def test_non_utf8_file_is_a_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"format": "\xff\xfe"}')
        code, out, err = invoke(capsys, "info", str(bad))
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and "can't decode" in line and "Traceback" not in err

    @pytest.mark.parametrize("argv, reference", (
        (["apply", "-m", "1", "-1/2", "0", "1", "AY"], ["apply", "-m", "1", " -1/2", "0", "1", "AY"]),
        (["apply", "-m", "1", "-5e-1", "0", "1", "AY"], ["apply", "-m", "1", "-0.5", "0", "1", "AY"]),
        (["periods", "silhol", "--a-imag", "0.5", "--a-real", "-2.5e-1"],
         ["periods", "silhol", "--a-imag", "0.5", "--a-real=-0.25"]),
        (["solve-rect", "--mu", "0.5", "--tol", "-1e-9"], ["solve-rect", "--mu", "0.5", "--tol=-1e-9"]),
    ))
    def test_negative_number_values(self, argv, reference, tmp_path, capsys):
        # A negative number is a value however it is spelt, not an option.
        # The references spell it as argparse reads a value anyway: "-0.5",
        # "--opt=value", or with a leading space, which scalar_from_str strips.
        path = tmp_path / "ay.json"
        invoke(capsys, "build", "ay", "-o", str(path))
        fill = lambda args: [str(path) if a == "AY" else a for a in args]
        got = invoke(capsys, *fill(argv))
        want = invoke(capsys, *fill(reference))
        assert want[0] == (1 if argv[0] == "solve-rect" else 0)
        assert got == want

    @pytest.mark.parametrize("command", ("build", "isometries"))
    def test_closed_stdout_exits_without_traceback(self, command, tmp_path, capsys):
        # The reader of a pipe goes away before the child writes, as in `| head`.
        path = tmp_path / "esc.json"
        invoke(capsys, "build", "escalator", "-o", str(path))
        argv = ["build", "escalator"] if command == "build" else ["isometries", str(path)]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen([sys.executable, "-m", "flatsurfkit", *argv], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait() == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_shared_parser_prints_what_a_fresh_process_prints(self, capsys):
        # run() builds its parser once per process; neither a call nor a
        # usage error may leave state in it that changes a later call
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        sequence = (["periods", "ratios", "--t", "2", "--u", "1"], ["solve-rect", "--mu", "0.5"],
                    ["periods", "ratios", "--t", "2"], ["periods", "ratios", "--t", "2", "--u", "1"])
        fresh = {}
        for argv in sequence:
            if tuple(argv) not in fresh:
                child = subprocess.run([sys.executable, "-m", "flatsurfkit", *argv], env=env,
                                       capture_output=True, text=True, timeout=120)
                fresh[tuple(argv)] = (child.returncode, child.stdout, child.stderr)
            assert invoke(capsys, *argv) == fresh[tuple(argv)], argv
        assert [fresh[tuple(argv)][0] for argv in sequence] == [0, 0, 2, 0]

    def test_stdout_determinism(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        invoke(capsys, "build", "ay", "-o", str(p1))
        invoke(capsys, "build", "ay", "-o", str(p2))
        assert p1.read_text() == p2.read_text()
        _, out1, _ = invoke(capsys, "delaunay", str(p1))
        _, out2, _ = invoke(capsys, "delaunay", str(p2))
        assert out1 == out2

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from graphrestrict import cli, cosetgraph
from graphrestrict.cli import main, parse_group_spec
from graphrestrict.errors import ParseError

from conftest import PACKAGE_ROOT

L0_TEXT = "# intransitive, non-semiregular\ndegree 3\n(1 2)\n"
L1_TEXT = "degree 5\n(1 2 3)(4 5)\n"
L2_TEXT = "degree 4\n(1 2)(3 4)\n"
L3_TEXT = "degree 3\n(1 2 3)\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("L0", L0_TEXT), ("L1", L1_TEXT),
                       ("L2", L2_TEXT), ("L3", L3_TEXT)):
        p = tmp_path / f"{name}.grp"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


class TestGroupSpec:
    def test_parse(self):
        g = parse_group_spec(L1_TEXT)
        assert g.degree == 5 and g.order() == 6

    def test_comments_and_image_lists(self):
        g = parse_group_spec("# c\ndegree 3\n2 1 3  # swap\n")
        assert g.order() == 2

    def test_trivial_group(self):
        assert parse_group_spec("degree 3\n").order() == 1

    def test_errors_carry_line(self):
        with pytest.raises(ParseError) as err:
            parse_group_spec("degree 3\n(1 5)\n")
        assert "line 2" in str(err.value)
        with pytest.raises(ParseError):
            parse_group_spec("(1 2)\n")


class TestClassifyCommand:
    def test_l2(self, files, capsys):
        assert main(["classify", files["L2"]]) == 0
        out = capsys.readouterr().out
        assert "graph-restrictive" in out and "c(L) = 4" in out

    def test_l0(self, files, capsys):
        assert main(["classify", files["L0"]]) == 0
        out = capsys.readouterr().out
        assert "not graph-restrictive" in out and "2*2^n" in out

    def test_l3(self, files, capsys):
        assert main(["classify", files["L3"]]) == 0
        assert "scope" in capsys.readouterr().out

    def test_json_round_trip(self, files, capsys):
        assert main(["classify", files["L0"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analysis"]["verdict"] == "NOT_RESTRICTIVE"
        assert json.loads(json.dumps(doc)) == doc

    def test_parse_failure_exit_2(self, files, capsys):
        bad = files["dir"] / "bad.grp"
        bad.write_text("degree x\n")
        assert main(["classify", str(bad)]) == 2

    def test_bad_image_list_error_is_short(self, files, capsys):
        # an image list of 200,000 ones: the message names the repeated
        # point instead of echoing the list
        bad = files["dir"] / "ones.grp"
        bad.write_text("degree 200000\n" + "1 " * 200_000 + "\n")
        assert main(["classify", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "point 1 repeated" in err
        assert len(err.encode()) < 200

    def test_missing_file_exit_2(self, files):
        assert main(["classify", str(files["dir"] / "nope.grp")]) == 2


class TestClassifyScale:
    """classify reads stabiliser orders off the orbit lengths and tests
    semiprimitivity once per conjugacy class, so a large degree or a large
    transitive group finishes in well under 2 s, start-up included."""

    @pytest.mark.parametrize("text, expected", [
        ("degree 100000\n(1 2)\n", "2*2^n"),
        ("degree 8\n(1 2 3 4 5 6 7 8)\n(1 2)\n", "semiprimitive: True"),
    ], ids=["transposition-on-100000-points", "S8"])
    def test_under_two_seconds(self, tmp_path, text, expected):
        grp = tmp_path / "group.grp"
        grp.write_text(text)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "graphrestrict", "classify", str(grp)],
            capture_output=True, text=True, env=env, timeout=2, check=True)
        assert expected in done.stdout


class TestStartup:
    def test_import_loads_no_dataclasses_or_inspect(self):
        # the records are named tuples: no import of dataclasses, and so
        # none of inspect or of the ast, dis and tokenize it loads
        code = ("import sys, graphrestrict, graphrestrict.cli\n"
                "print(*sorted(set(sys.modules) & {'dataclasses', 'inspect', "
                "'ast', 'dis', 'tokenize'}))")
        env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
        done = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60, check=True)
        assert done.stdout.split() == []


class TestConstructCommand:
    def test_l0_n2(self, files, capsys):
        out_dir = files["dir"] / "out"
        assert main(["construct", files["L0"], "--n", "2",
                     "--out", str(out_dir)]) == 0
        cert = json.loads((out_dir / "certificate.json").read_text())
        assert cert["graph"]["stabiliser_order"] == 8
        assert cert["graph"]["valency"] == 3
        assert cert["verification"]["accepted"] is True
        for name in ("graph.edgelist", "graph.adjlist", "graph.g6",
                     "group.gens"):
            assert (out_dir / name).exists()

    def test_restrictive_input_exit_2(self, files, capsys):
        assert main(["construct", files["L2"], "--n", "2",
                     "--out", str(files["dir"] / "x")]) == 2
        assert "semiregular" in capsys.readouterr().err.lower() or True

    def test_small_n_exit_2(self, files):
        assert main(["construct", files["L0"], "--n", "1",
                     "--out", str(files["dir"] / "y")]) == 2

    def test_determinism(self, files, capsys):
        d1 = files["dir"] / "d1"
        d2 = files["dir"] / "d2"
        assert main(["construct", files["L0"], "--n", "2", "--seed", "7",
                     "--out", str(d1)]) == 0
        assert main(["construct", files["L0"], "--n", "2", "--seed", "7",
                     "--out", str(d2)]) == 0
        assert (d1 / "certificate.json").read_bytes() == \
               (d2 / "certificate.json").read_bytes()

    def test_implicit_mode_certificate(self, files, capsys):
        out_dir = files["dir"] / "implicit"
        assert main(["construct", files["L0"], "--n", "2",
                     "--max-vertices", "1", "--out", str(out_dir)]) == 0
        cert = json.loads((out_dir / "certificate.json").read_text())
        assert cert["graph"]["vertices"] == "implicit"
        assert cert["graph"]["files"] is None
        assert cert["graph"]["stabiliser_order"] == 8
        assert cert["graph"]["valency"] == 3
        assert cert["local_action"]["kernel_order"] == 4
        assert not (out_dir / "graph.edgelist").exists()

    def test_exhausted_search_exit_3_writes_no_certificate(self, files,
                                                          capsys):
        # <(1 2)> on 12 points at n = 2 exhausts the completion search; the
        # attempt log goes to stderr unchanged
        grp = files["dir"] / "T12.grp"
        grp.write_text("degree 12\n(1 2)\n")
        out_dir = files["dir"] / "exhausted"
        assert main(["construct", str(grp), "--n", "2",
                     "--out", str(out_dir)]) == 3
        assert not (out_dir / "certificate.json").exists()
        assert sha256(capsys.readouterr().err.encode()) == \
            "f6949d715c67ab324e8c78a338d47ea0238cdc8f2e2c25176a0761eac02bdac8"

    def test_certificate_schema_fields(self, files, capsys):
        out_dir = files["dir"] / "schema"
        assert main(["construct", files["L0"], "--n", "2",
                     "--out", str(out_dir)]) == 0
        cert = json.loads((out_dir / "certificate.json").read_text())
        for key in ("schema", "tool_version", "input", "analysis", "n",
                    "strategy", "carrier", "beta", "verification", "graph",
                    "local_action"):
            assert key in cert
        assert cert["schema"] == cli.CERTIFICATE_SCHEMA
        assert len(cert["beta"]) == 2
        assert all(isinstance(v, int) for v in cert["beta"][0])


class TestVerifyCommand:
    def test_hexagon_rotation(self, files, capsys):
        graph = files["dir"] / "hex.edges"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        grp = files["dir"] / "rot.grp"
        grp.write_text("degree 6\n(1 2 3 4 5 6)\n")
        triv = files["dir"] / "triv2.grp"
        triv.write_text("degree 2\n")
        assert main(["verify", str(graph), str(grp), str(triv)]) == 0
        out = capsys.readouterr().out
        assert "stabiliser order: 1" in out

    def test_hexagon_dihedral(self, files, capsys):
        graph = files["dir"] / "hex.edges"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        grp = files["dir"] / "dih.grp"
        grp.write_text("degree 6\n(1 2 3 4 5 6)\n(2 6)(3 5)\n")
        swap = files["dir"] / "swap.grp"
        swap.write_text("degree 2\n(1 2)\n")
        assert main(["verify", str(graph), str(grp), str(swap)]) == 0
        assert "stabiliser order: 2" in capsys.readouterr().out

    def test_negative_exit_1(self, files, capsys):
        graph = files["dir"] / "hex.edges"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        grp = files["dir"] / "rot.grp"
        grp.write_text("degree 6\n(1 2 3 4 5 6)\n")
        swap = files["dir"] / "swap.grp"
        swap.write_text("degree 2\n(1 2)\n")
        assert main(["verify", str(graph), str(grp), str(swap)]) == 1

    def test_non_automorphism_exit_2(self, files, capsys):
        graph = files["dir"] / "hex.edges"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        grp = files["dir"] / "bad.grp"
        grp.write_text("degree 6\n(1 2)\n")
        triv = files["dir"] / "triv2.grp"
        triv.write_text("degree 2\n")
        assert main(["verify", str(graph), str(grp), str(triv)]) == 2
        assert "not an automorphism" in capsys.readouterr().err

    def test_construct_verify_loop(self, files, capsys):
        out_dir = files["dir"] / "loop"
        assert main(["construct", files["L0"], "--n", "2",
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out_dir / "graph.edgelist"),
                     str(out_dir / "group.gens"), files["L0"]]) == 0
        out = capsys.readouterr().out
        assert "locally-L: True" in out
        assert "stabiliser order: 8" in out


class TestHostileVerifyInput:
    """verify refuses a graph or group file beyond the vertex cap with a
    named CapacityError (exit 2), before allocating anything for it, and
    every command refuses a group file that is not UTF-8 (exit 2)."""

    HEXAGON = "0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"

    @pytest.mark.parametrize("argv", [
        ["classify", "BAD"],
        ["construct", "BAD", "--n", "2", "--out", "OUT"],
        ["report", "BAD", "--n-from", "2", "--n-to", "2"],
        ["verify", "GRAPH", "BAD", "L0"],
        ["verify", "GRAPH", "L0", "BAD"]],
        ids=["classify", "construct", "report", "verify-group",
             "verify-local-group"])
    def test_group_file_not_utf8(self, files, capsys, argv):
        bad = files["dir"] / "latin1.grp"
        bad.write_bytes(b"degree 3\n(1 2)\xff\n")
        graph = files["dir"] / "triangle.edges"
        graph.write_text("0 1\n1 2\n0 2\n")
        paths = {"BAD": str(bad), "GRAPH": str(graph), "L0": files["L0"],
                 "OUT": str(files["dir"] / "out")}
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read group file {bad}: ")
        assert "can't decode byte 0xff" in err

    def run_verify(self, files, graph_text, group_text):
        graph = files["dir"] / "hostile.graph"
        graph.write_text(graph_text)
        grp = files["dir"] / "hostile.grp"
        grp.write_text(group_text)
        start = time.perf_counter()
        code = main(["verify", str(graph), str(grp), files["L0"]])
        assert time.perf_counter() - start < 1.0
        return code

    @pytest.mark.parametrize("adjacency, message", [
        ("0: 1\n1: 0\n-3: 0\n", "error: vertex -3 out of range 0..1"),
        ("0: 1\n1: 0\n-1: 2\n", "error: vertex -1 out of range 0..2"),
    ], ids=["index-error", "wrap-around"])
    def test_negative_vertex_id(self, files, adjacency, message):
        # an input error (exit 2), not a crash (exit 1 is a negative verdict)
        graph = files["dir"] / "negative.adj"
        graph.write_text(adjacency)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "graphrestrict", "verify", str(graph),
             files["L0"], files["L0"]],
            capture_output=True, text=True, env=env, timeout=30)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == [message]

    def test_non_ascii_byte_named(self, files, capsys):
        # every graph format is ASCII: a stray byte in an edge list is
        # named with its line, not read as a graph6 fault
        graph = files["dir"] / "stray.edges"
        graph.write_bytes(b"0 1\n1 2\n0 2\xff\n")
        grp = files["dir"] / "triangle.grp"
        grp.write_text(L3_TEXT)
        assert main(["verify", str(graph), str(grp), str(grp)]) == 2
        assert capsys.readouterr().err == (
            "error: non-ASCII byte 0xff (line 3, column 4)\n")

    @pytest.mark.parametrize("adjacency, message", [
        ("0: 1\n0: 2\n1:\n2: 0\n", "error: vertex 0 listed twice (line 2)\n"),
        ("0: 1\n\n\nx: 0\n", "error: bad adjacency line 'x: 0' (line 4)\n"),
    ], ids=["repeated-vertex", "blank-lines-counted"])
    def test_adjacency_fault_named_at_its_line(self, files, capsys,
                                               adjacency, message):
        # a repeated vertex line is refused, not read over the earlier one,
        # and the line number counts the blank lines before the fault
        graph = files["dir"] / "faulty.adj"
        graph.write_text(adjacency)
        assert main(["verify", str(graph), files["L0"], files["L0"]]) == 2
        assert capsys.readouterr().err == message

    def test_huge_vertex_id(self, files, capsys):
        assert self.run_verify(files, "0 2000000000\n",
                               "degree 6\n(1 2 3 4 5 6)\n") == 2
        err = capsys.readouterr().err
        assert "cap 'vertices'" in err and "2000000001" in err

    def test_huge_group_degree(self, files, capsys):
        assert self.run_verify(files, self.HEXAGON,
                               "degree 2000000000\n(1 2)\n") == 2
        err = capsys.readouterr().err
        assert "cap 'vertices'" in err and "2000000000" in err

    def test_cap_from_environment(self, files, capsys, monkeypatch):
        monkeypatch.setenv(cli.CAPS_ENV_VAR, "vertices=5")
        assert self.run_verify(files, self.HEXAGON,
                               "degree 6\n(1 2 3 4 5 6)\n") == 2
        assert "cap 'vertices' = 5" in capsys.readouterr().err
        monkeypatch.setenv(cli.CAPS_ENV_VAR, "vertices=6")
        assert self.run_verify(files, self.HEXAGON,
                               "degree 6\n(1 2 3 4 5 6)\n(2 6)(3 5)\n") == 1


    def test_isomorphism_search_budget(self, files, capsys):
        # Z_3 x Z_13 with the neighbours (+-1, 0) and (0, +-y): the
        # translations and the automorphisms (x, y) -> (-x, y) and
        # (x, y) -> (-x, -y) act, and vertex 0's stabiliser induces
        # <t_1...t_7, t_1> on its 14 neighbours, 7 orbits of size 2.  The
        # local group <t_1...t_7, t_1 t_2> has the same orbit sizes and
        # stabiliser orders but is not permutation isomorphic to it, so the
        # search would place points for every orbit matching
        def vertex(x, y):
            return 13 * (x % 3) + y % 13

        steps = [(1, 0), (2, 0)] + [(0, y) for y in range(1, 13)]
        graph = files["dir"] / "z3xz13.edges"
        graph.write_text("".join(
            f"{vertex(x, y)} {vertex(x + a, y + b)}\n"
            for x in range(3) for y in range(13) for a, b in steps
            if vertex(x, y) < vertex(x + a, y + b)))
        maps = [lambda x, y: (x + 1, y), lambda x, y: (x, y + 1),
                lambda x, y: (-x, y), lambda x, y: (-x, -y)]
        grp = files["dir"] / "z3xz13.grp"
        grp.write_text("degree 39\n" + "".join(
            " ".join(str(vertex(*f(x, y)) + 1)
                     for x in range(3) for y in range(13)) + "\n"
            for f in maps))
        local = files["dir"] / "hostile-local.grp"
        local.write_text("degree 14\n(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)(13 14)\n"
                         "(1 2)(3 4)\n")
        start = time.perf_counter()
        code = main(["verify", str(graph), str(grp), str(local)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert "cap 'isomorphism search nodes'" in err


class TestGroupDegreeCap:
    """classify, construct and report refuse a group file of degree above
    the vertex cap, as verify does."""

    @pytest.mark.parametrize("argv", [
        ["classify"], ["construct", "--n", "2"],
        ["report", "--n-from", "2", "--n-to", "2"]])
    def test_cap_from_environment(self, files, capsys, monkeypatch, argv):
        grp = files["dir"] / "degree6.grp"
        grp.write_text("degree 6\n(1 2)\n")
        monkeypatch.setenv(cli.CAPS_ENV_VAR, "vertices=5")
        out = ["--out", str(files["dir"] / "out")] if argv[0] == "construct" \
            else []
        assert main([argv[0], str(grp)] + argv[1:] + out) == 2
        assert "cap 'vertices' = 5" in capsys.readouterr().err


class TestReportCommand:
    def test_l0_table(self, files, capsys):
        assert main(["report", files["L0"], "--n-from", "2",
                     "--n-to", "4"]) == 0
        out = capsys.readouterr().out
        for value in ("8", "16", "32"):
            assert value in out

    def test_json(self, files, capsys):
        assert main(["report", files["L0"], "--n-from", "2", "--n-to", "3",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["stabiliser_order"] for r in doc["rows"]] == [8, 16]
        assert all(r["accepted"] for r in doc["rows"])

    def test_empty_range(self, files, capsys):
        assert main(["report", files["L0"], "--n-from", "3",
                     "--n-to", "2"]) == 0

    @pytest.mark.parametrize("n_from", ["-1", "1"])
    def test_n_below_two_exit_2_prints_no_row(self, files, capsys, n_from):
        assert main(["report", files["L0"], "--n-from", n_from,
                     "--n-to", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n must be at least 2" in captured.err

    def test_wrong_verdict_exit_2(self, files):
        assert main(["report", files["L2"], "--n-from", "2",
                     "--n-to", "3"]) == 2

    def test_caps_env_variable(self, files, capsys, monkeypatch):
        monkeypatch.setenv(cli.CAPS_ENV_VAR, "copies=1")
        assert main(["report", files["L0"], "--n-from", "2",
                     "--n-to", "2"]) == 3
        out = capsys.readouterr().out
        assert "FAILED" in out

    def test_carrier_cap_row(self, files, capsys, monkeypatch):
        # |A| = 2 * 2^n exceeds a carrier cap of 64 at n = 6; that row fails
        # naming the cap, and the rows before it are the single-n reports
        monkeypatch.setenv(cli.CAPS_ENV_VAR, "carrier=64")
        assert main(["report", files["L0"], "--n-from", "2", "--n-to", "6",
                     "--json"]) == 3
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
        for row in rows[:-1]:
            n = str(row["n"])
            assert main(["report", files["L0"], "--n-from", n, "--n-to", n,
                         "--json"]) == (0 if row["accepted"] else 3)
            assert json.loads(capsys.readouterr().out)["rows"] == [row]
        assert not rows[-1]["accepted"]
        assert rows[-1]["failure"] == ("cap 'carrier cap' = 64 exceeded "
                                       "(needed at least 128)")

    def test_huge_range_in_bounded_memory(self, files):
        # the range is walked lazily: under a 1 GiB address-space limit a
        # range of 10^9 values ends at the n = 13 carrier-cap row
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "graphrestrict", "report", files["L0"],
             "--n-from", "2", "--n-to", "1000000000"],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=limit_memory)
        assert done.returncode == 3, done.stderr
        last = done.stdout.splitlines()[-1]
        assert last.split()[0] == "13"
        assert last.endswith("cap 'carrier cap' = 10000 exceeded "
                             "(needed at least 16384)")

    @pytest.mark.parametrize("caps", ["vertice=10", "copies=0", "copies=-1",
                                      "carrier=0", "attempts=x"])
    def test_bad_caps_exit_2(self, files, capsys, monkeypatch, caps):
        monkeypatch.setenv(cli.CAPS_ENV_VAR, caps)
        assert main(["report", files["L0"], "--n-from", "2",
                     "--n-to", "2"]) == 2
        assert cli.CAPS_ENV_VAR in capsys.readouterr().err


class TestExportCap:
    """Export sizes follow from the vertex count and valency, so an
    oversized graph is refused before any file is written."""

    def test_oversized_export_exit_2_writes_nothing(self, files, capsys,
                                                    monkeypatch):
        # L0 n=2 has 24 vertices: a 48-byte graph6 file, larger text files
        monkeypatch.setattr(cosetgraph, "DEFAULT_EXPORT_CAP", 40)
        out_dir = files["dir"] / "capped"
        assert main(["construct", files["L0"], "--n", "2",
                     "--out", str(out_dir)]) == 2
        assert "cap 'export' = 40 exceeded" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_export_cap_admits_the_exports(self, files, monkeypatch):
        monkeypatch.setattr(cosetgraph, "DEFAULT_EXPORT_CAP", 1000)
        out_dir = files["dir"] / "admitted"
        assert main(["construct", files["L0"], "--n", "2",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "graph.g6").stat().st_size <= 1000

    def test_cap_counts_the_graph6_newline(self, files, capsys, monkeypatch):
        # L1 n=2 has 1536 vertices of valency 5; graph6 is its largest
        # export, and its file is the export plus a newline
        sizes = cosetgraph.export_sizes(1536, 5)
        g6 = sizes["graph6"]
        assert max(sizes.values()) == g6
        monkeypatch.setattr(cosetgraph, "DEFAULT_EXPORT_CAP", g6)
        out_dir = files["dir"] / "at-export-size"
        assert main(["construct", files["L1"], "--n", "2",
                     "--out", str(out_dir)]) == 2
        assert (f"cap 'export' = {g6} exceeded (needed {g6 + 1} bytes of "
                f"graph6)") in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []
        monkeypatch.setattr(cosetgraph, "DEFAULT_EXPORT_CAP", g6 + 1)
        out_dir = files["dir"] / "at-file-size"
        assert main(["construct", files["L1"], "--n", "2",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "graph.g6").stat().st_size == g6 + 1

    def test_oversized_export_refused_before_full_enumeration(self, files,
                                                              capsys):
        # <(1 2)> on 10 points at n=2 has 294,912 cosets, a 7.2 GB graph6
        # file: the enumeration stops at about 56,700, the largest graph
        # whose exports fit, and the chain of G counts the rest
        grp = files["dir"] / "T10.grp"
        grp.write_text("degree 10\n(1 2)\n")
        out_dir = files["dir"] / "oversized"
        start = time.monotonic()
        assert main(["construct", str(grp), "--n", "2",
                     "--out", str(out_dir)]) == 2
        assert time.monotonic() - start < 10
        assert sha256(capsys.readouterr().err.encode()) == \
            "f17e3a76683ba5dc701fa9231f2685c36f213f3ad16a73018c865f724bf159b7"
        assert list(out_dir.iterdir()) == []


class TestMaxVerticesFlag:
    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("argv", [["construct", "--n", "2", "--out"],
                                      ["report", "--n-from", "2", "--n-to",
                                       "2"]])
    def test_below_one_exit_2(self, files, capsys, argv, value):
        if argv[0] == "construct":
            argv = argv + [str(files["dir"] / "small-cap")]
        assert main([argv[0], files["L0"]] + argv[1:]
                    + ["--max-vertices", value]) == 2
        err = capsys.readouterr().err
        assert f"--max-vertices must be at least 1, got {value}" in err


class TestHugeN:
    """The carrier cap is compared with |L| * s^n factor by factor, so a
    huge n is refused at once instead of building a number of n digits."""

    @pytest.mark.parametrize("n", ["10000", "1000000000"])
    @pytest.mark.parametrize("argv", [["construct", "--n", "{n}", "--out"],
                                      ["report", "--n-from", "{n}", "--n-to",
                                       "{n}"]])
    def test_exit_2_naming_the_cap(self, files, capsys, argv, n):
        argv = [a.format(n=n) for a in argv]
        if argv[0] == "construct":
            argv = argv + [str(files["dir"] / "huge-n")]
        start = time.monotonic()
        assert main([argv[0], files["L1"]] + argv[1:]) == 2
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert "cap 'carrier cap' = 10000 exceeded" in err


class TestCollectorPause:
    """main runs each command with the cyclic collector paused and gives
    the caller back the setting it found.  The commands create no
    reference cycles, so the pause leaves nothing for the collector."""

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", ["exit-0", "exit-2", "exit-3",
                                         "exception"])
    def test_setting_restored(self, files, capsys, monkeypatch, enabled,
                              outcome):
        argv = {"exit-0": ["classify", files["L0"]],
                "exit-2": ["classify", str(files["dir"] / "missing.grp")],
                "exit-3": ["report", files["L0"], "--n-from", "2",
                           "--n-to", "2"],
                "exception": ["classify", files["L0"]]}[outcome]
        monkeypatch.setenv(cli.CAPS_ENV_VAR, "copies=1")    # exit 3
        during = []
        analyze = cli.classify.analyze_local_group

        def observed(group):
            during.append(gc.isenabled())
            if outcome == "exception":
                raise RuntimeError("unexpected")
            return analyze(group)

        monkeypatch.setattr(cli.classify, "analyze_local_group", observed)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "exception":
                with pytest.raises(RuntimeError, match="unexpected"):
                    main(argv)
            else:
                assert main(argv) == int(outcome[-1])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == ([] if outcome == "exit-2" else [False])

    def test_commands_leave_no_cycles(self, files, capsys):
        # under DEBUG_SAVEALL the collector keeps what it finds unreachable
        # in gc.garbage: none of it may be an object of the package
        pair = files["dir"] / "pair"
        runs = [["construct", files["L0"], "--n", "2", "--out", str(pair)],
                ["verify", str(pair / "graph.edgelist"),
                 str(pair / "group.gens"), files["L0"]],
                ["report", files["L0"], "--n-from", "2", "--n-to", "4"]]
        gc.collect()
        debug = gc.get_debug()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        try:
            for argv in runs:
                assert main(argv) == 0
            gc.collect()
            leaked = sorted({type(x).__qualname__ for x in gc.garbage
                             if type(x).__module__.startswith("graphrestrict")})
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
        assert leaked == []


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """Pinned sha256 values of outputs.  Criterion 9 compares two runs of
    one build; these hashes hold the bytes fixed from one version of the
    code to the next.  Both accepted plans are deterministic
    (default+cross-copy for L0, cross-copy+cross-copy for L1), so the
    values do not depend on the Python version."""

    @pytest.mark.parametrize("name, expected", [
        ("L0", {"certificate.json": "25cd727ee6380ca6fe82830ab21395414e0df470"
                                    "e7227b61c8941f261eead657",
                "graph.g6": "af2845c1ddb7e0f4fad4ae2d043d9eeed1387de082b1436e"
                            "b5b430c6c11dedf7",
                "graph.edgelist": "f590f71a9b909067e5fca0d3066f26d350b1d3c8"
                                  "719521a494936cd472f8d0d0",
                "graph.adjlist": "ef1c38bb02ae796187152a9f8727c2fccd9b493c9"
                                 "57f4b51504b0a17a3653c9d",
                "group.gens": "665fd28c8c49b2cb7251cdc6a0909c852f46a0d68de1"
                              "48b733877dd29e096139"}),
        ("L1", {"certificate.json": "215be79a421d4d0fd0cc4147aff945ef15b89823"
                                    "7d4ef5ecc0c4af5183bc2e31",
                "graph.edgelist": "c803fa696715b06efc247f7a6ea8acf2fe5232e5f8"
                                  "23861a587352121cef337c",
                "graph.adjlist": "8bddad9b287c151b98240cc0cbd5fa3c08579a18bd"
                                 "da755ffd7e9b67163c40d9",
                "graph.g6": "f53ffc018197d44955655508c36e3ee4f0ed45bb53873f07"
                            "89c465d40b6f7a3a",
                "group.gens": "db093c9de7640e9de069ae7f08499fb54a5fc8bf4adec4"
                              "9668a6819b7ac3ab3a"}),
    ])
    def test_construct_n2(self, files, capsys, name, expected):
        out_dir = files["dir"] / "out"
        assert main(["construct", files[name], "--n", "2", "--seed", "0",
                     "--out", str(out_dir)]) == 0
        for fname, digest in expected.items():
            assert sha256((out_dir / fname).read_bytes()) == digest, fname

    def test_report_json(self, files, capsys):
        assert main(["report", files["L0"], "--n-from", "2", "--n-to", "5",
                     "--json"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == \
            "8e9c84aad51e72f526e1dbc892e77c0748953641b226b28ec3b4b764070e704f"

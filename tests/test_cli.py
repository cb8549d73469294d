import gc
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import layersep
from layersep import cli, decomposition, drawing3d, embedding, layouts
from layersep.cli import main
from layersep.decomposition import parse_layered_decomposition
from layersep.drawing3d import DrawingError, draw_from_tracks, format_drawing, parse_drawing
from layersep.generators import complete_graph, k5_graph
from layersep.graphs import Graph, Report, format_graph, format_layering, parse_graph
from layersep.layouts import parse_track_layout
from layersep.nonrep import Colouring, format_colouring, parse_colouring


def run(argv):
    return main([str(a) for a in argv])


def test_gen_decompose_tracks_verify_chain(tmp_path):
    graph = tmp_path / "g.txt"
    assert run(["gen", "planar_triangulation", 25, "--seed", 3, "--out", graph]) == 0
    dec = tmp_path / "dec.txt"
    man = tmp_path / "dec.json"
    assert run(["decompose", graph, "--out", dec, "--manifest", man]) == 0
    ld = parse_layered_decomposition(dec.read_text())
    assert ld.layered_width <= 3

    data = json.loads(man.read_text())
    assert data["command"] == "decompose"
    assert all(len(h) == 64 for h in data["inputs"].values())
    assert data["verdicts"]
    assert all(v == "pass" for v in data["verdicts"].values())

    tracks = tmp_path / "tl.txt"
    assert run(["tracks", graph, "--out", tracks]) == 0
    assert run(["verify", "tracks", tracks, graph]) == 0
    tl = parse_track_layout(tracks.read_text())
    assert len(tl.tracks) >= 3


def test_labelled_manifests_record_the_recursion(tmp_path):
    graph = tmp_path / "g.txt"
    assert run(["gen", "planar_triangulation", 40, "--out", graph]) == 0
    _, _, labels, _ = layouts.pipeline(embedding.embed_planar(parse_graph(graph.read_text())))
    for cmd in ("tracks", "queues", "nonrep", "draw3d"):
        man = tmp_path / f"{cmd}.json"
        assert run([cmd, graph, "--out", tmp_path / f"{cmd}.out", "--manifest", man]) == 0
        bounds = json.loads(man.read_text())["bounds"]
        assert bounds["recursion_nodes"] == len(labels.nodes) > 1
        assert bounds["recursion_depth"] == labels.max_depth > 1


def test_decompose_clique_root(tmp_path):
    # vertices 0, 1, 2 form the starting triangle of a stacked triangulation
    graph = tmp_path / "g.txt"
    assert run(["gen", "planar_triangulation", 40, "--out", graph]) == 0
    dec = tmp_path / "dec.txt"
    assert run(["decompose", graph, "--root", "0,1,2", "--out", dec]) == 0
    ld = parse_layered_decomposition(dec.read_text())
    assert ld.layering.layers[0] == {0, 1, 2}
    assert ld.layered_width <= 3
    assert run(["verify", "decomposition", dec, graph]) == 0


def test_decompose_four_clique_root(tmp_path, capsys):
    # layer 0 is all of K, so the layered width is |K| = 4 > 2g+3
    graph = tmp_path / "k4.txt"
    graph.write_text(format_graph(complete_graph(4)))
    dec = tmp_path / "dec.txt"
    man = tmp_path / "dec.json"
    assert run(["decompose", graph, "--root", "0,1,2,3", "--out", dec, "--manifest", man]) == 0
    assert parse_layered_decomposition(dec.read_text()).layered_width == 4
    assert json.loads(man.read_text())["bounds"]["layered_width"] == 4
    assert run(["verify", "decomposition", dec, graph]) == 0


def test_verify_decomposition_reports_a_disconnected_tree(tmp_path, capsys):
    """Three bags, one tree edge and three layers: the text says which
    bag has no parent, so the layers are read as layers and the check
    fails (exit 1) instead of the parser (exit 2)."""
    graph = tmp_path / "g.txt"
    graph.write_text(format_graph(Graph.from_edges(4, [(0, 1), (1, 2)])))
    dec = tmp_path / "dec.txt"
    dec.write_text("bags 3\n0: 0 1\n1 < 0: 1 2\n2: 3\n0\n1 3\n2\n")
    man = tmp_path / "m.json"
    capsys.readouterr()
    assert run(["verify", "decomposition", dec, graph, "--manifest", man]) == cli.EXIT_VERIFY
    assert capsys.readouterr().err == "tree has 1 edges for 3 bags\n"
    assert json.loads(man.read_text())["verdicts"] == {"decomposition": "fail"}
    ld = parse_layered_decomposition(dec.read_text())
    assert "decomposition tree is disconnected" in decomposition.validate_tree_decomposition(
        parse_graph(graph.read_text()), ld.decomposition
    ).violations


def test_verify_decomposition_reads_an_older_text():
    """A decomposition written with a core line and a tree block, before
    parent fields, still verifies."""
    fixtures = Path(__file__).parent / "fixtures"
    argv = ["verify", "decomposition", fixtures / "planar30.dec", fixtures / "planar30.txt"]
    assert run(argv + ["--manifest", os.devnull]) == 0


def test_decompose_embedded_drops_parallel_runs(tmp_path):
    """The rotation-system fixture with runs of 2-4 parallel edges that
    bound bigons decomposes, and the result verifies against its simple
    graph, as the CI console-script jobs run it."""
    fixtures = Path(__file__).parent / "fixtures"
    rot, graph = fixtures / "parallel12_rot.txt", fixtures / "parallel12.txt"
    eg = embedding.parse_rotation_system(rot.read_text())
    assert eg.to_graph() == parse_graph(graph.read_text()) and eg.m > eg.to_graph().m
    assert sum(len(f) == 2 for f in eg.faces) == 6
    dec = tmp_path / "dec.txt"
    assert run(["decompose", "--embedded", rot, "--out", dec, "--manifest", os.devnull]) == 0
    assert run(["verify", "decomposition", dec, graph, "--manifest", os.devnull]) == 0


def test_embedded_pipeline(tmp_path):
    rot = tmp_path / "torus.txt"
    assert run(["gen", "toroidal_grid", 4, "--rotation", "--out", rot]) == 0
    graph = tmp_path / "torus_graph.txt"
    assert run(["gen", "toroidal_grid", 4, "--out", graph]) == 0
    dec = tmp_path / "dec.txt"
    assert run(["decompose", "--embedded", rot, "--out", dec]) == 0
    ld = parse_layered_decomposition(dec.read_text())
    assert ld.layered_width <= 7
    assert run(["verify", "decomposition", dec, graph]) == 0


def test_queues_and_nonrep(tmp_path):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 20, "--out", graph])
    q = tmp_path / "q.txt"
    assert run(["queues", graph, "--out", q]) == 0
    assert run(["verify", "queues", q, graph]) == 0

    col = tmp_path / "c.txt"
    man = tmp_path / "c.json"
    assert run(["nonrep", graph, "--out", col, "--verify-max-path", 10,
                "--manifest", man]) == 0
    params = json.loads(man.read_text())["parameters"]
    assert params == {"root": "0", "max_path": 10}
    vman = tmp_path / "v.json"
    assert run(["verify", "nonrep", col, graph, "--verify-max-path", 10,
                "--manifest", vman]) == 0
    assert json.loads(vman.read_text())["parameters"]["max_path"] == 10
    # without the flag the default for n <= 40 is exhaustive
    assert run(["verify", "nonrep", col, graph, "--manifest", vman]) == 0
    assert json.loads(vman.read_text())["parameters"]["max_path"] == 20
    parse_colouring(col.read_text())


def test_verify_max_path_below_two_is_invalid_input(tmp_path, capsys):
    # a path of fewer than 2 vertices holds no square, so such a bound
    # would check nothing; 0 is no request for the default either
    graph = tmp_path / "p4.txt"
    graph.write_text("4 3\n0 1\n1 2\n2 3\n")
    col = tmp_path / "c.txt"
    col.write_text(format_colouring(Colouring({0: 0, 1: 1, 2: 0, 3: 1})))
    for bad in (-4, 0, 1):
        out = tmp_path / f"built{bad}.txt"
        capsys.readouterr()
        assert run(["verify", "nonrep", col, graph, "--verify-max-path", bad,
                    "--manifest", os.devnull]) == cli.EXIT_INPUT == 2
        assert run(["nonrep", graph, "--out", out, "--verify-max-path", bad,
                    "--manifest", os.devnull]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("--verify-max-path must be at least 2") == 2
    # the square 0 1 0 1 is found from max_path 4 on
    assert run(["verify", "nonrep", col, graph, "--verify-max-path", 2,
                "--manifest", os.devnull]) == 0
    assert run(["verify", "nonrep", col, graph, "--verify-max-path", 4,
                "--manifest", os.devnull]) == 1


def test_draw3d_with_exports(tmp_path):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 15, "--out", graph])
    out = tmp_path / "d.txt"
    svg = tmp_path / "d.svg"
    obj = tmp_path / "d.obj"
    assert run(["draw3d", graph, "--out", out, "--svg", svg, "--obj", obj]) == 0
    assert run(["verify", "drawing", out, graph]) == 0
    parse_drawing(out.read_text())
    assert svg.read_text().startswith("<svg")
    assert obj.read_text().startswith("v ")


def test_draw3d_default_seed_is_the_library_default(tmp_path):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 30, "--seed", 5, "--out", graph])
    out = tmp_path / "d.txt"
    assert run(["draw3d", graph, "--out", out]) == 0
    g, res, labels, _ = layouts.pipeline(embedding.embed_planar(parse_graph(graph.read_text())))
    tl = layouts.track_layout_from_compute(g, res.ld.layering, labels)
    assert out.read_text() == format_drawing(draw_from_tracks(g, tl))


def test_verify_failure_exit_code(tmp_path):
    graph = tmp_path / "g.txt"
    run(["gen", "cycle", 6, "--out", graph])
    bad = tmp_path / "bad.txt"
    bad.write_text("0: 0 3\n1: 1 4\n2: 2 5\n")
    assert run(["verify", "tracks", bad, graph]) == 1


def test_verify_nonrep_planted_square(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run(["gen", "path", 4, "--out", graph])
    # proper, but the colour sequence 0 1 0 1 along the path is a square
    col = tmp_path / "c.txt"
    col.write_text(format_colouring(Colouring({0: 0, 1: 1, 2: 0, 3: 1})))
    man = tmp_path / "v.json"
    capsys.readouterr()
    assert run(["verify", "nonrep", col, graph, "--manifest", man]) == 1
    assert "repetitive path: (0, 1, 2, 3)" in capsys.readouterr().err
    assert json.loads(man.read_text())["verdicts"] == {"nonrep": "fail"}
    # vertex 3 has no colour: the square search never runs on it
    col.write_text(format_colouring(Colouring({0: 0, 1: 1, 2: 0})))
    assert run(["verify", "nonrep", col, graph, "--manifest", man]) == 1
    assert capsys.readouterr().err.splitlines()[0] == "vertex 3 uncoloured"
    assert json.loads(man.read_text())["verdicts"] == {"nonrep": "fail"}


@pytest.mark.parametrize("command, verifier, verdict", [
    ("decompose", "validate_tree_decomposition", "decomposition"),
    ("separate", "validate_separation", "separation"),
    ("tracks", "verify_track_layout", "tracks"),
    ("queues", "verify_queue_layout", "queues"),
    ("nonrep", "verify_nonrepetitive", "nonrepetitive"),
    ("draw3d", "verify_drawing", "drawing"),
])
def test_build_verifier_failure(tmp_path, monkeypatch, capsys, command, verifier, verdict):
    """A build subcommand whose verifier rejects still writes its artifact,
    records the fail verdict, prints the first violation and exits 1."""
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 12, "--out", graph])
    if verifier == "verify_nonrepetitive":
        planted, message = (0, 1, 2, 3), "repetitive path: (0, 1, 2, 3)"
    else:
        planted, message = Report(("planted violation", "second violation")), "planted violation"
    monkeypatch.setattr(cli, verifier, lambda *args, **kwargs: planted)
    out, man = tmp_path / "artifact.txt", tmp_path / "m.json"
    capsys.readouterr()
    assert run([command, graph, "--out", out, "--manifest", man]) == cli.EXIT_VERIFY
    assert json.loads(man.read_text())["verdicts"][verdict] == "fail"
    assert capsys.readouterr().err.splitlines() == [message]
    assert out.read_text()


def test_verify_layering(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run(["gen", "path", 5, "--out", graph])
    lay = tmp_path / "lay.txt"
    lay.write_text("0\n1\n2\n3\n4\n")
    assert run(["verify", "layering", lay, graph]) == 0
    # edge (0, 1) spans layers 0 and 2
    lay.write_text("0\n2\n1\n3\n4\n")
    capsys.readouterr()
    assert run(["verify", "layering", lay, graph]) == 1
    assert "edge (0,1) spans layers 0 and 2" in capsys.readouterr().err


def test_seed_only_where_used(tmp_path):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 10, "--seed", 2, "--out", graph])
    assert run(["draw3d", graph, "--seed", 2, "--out", tmp_path / "d.txt"]) == 0
    for argv in (["decompose", graph], ["tracks", graph],
                 ["verify", "layering", graph, graph]):
        with pytest.raises(SystemExit):
            run(argv + ["--seed", 1])


def test_invalid_input_exit_code(tmp_path):
    garbage = tmp_path / "junk.txt"
    garbage.write_text("not a graph at all\n")
    assert run(["decompose", garbage]) == 2
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 10, "--out", graph])
    assert run(["decompose", graph, "--root", 99]) == 2
    assert run(["gen", "mystery_family", 5]) == 2


def test_drawing_construction_failure_exit_code(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 10, "--out", graph])

    def give_up(*args, **kwargs):
        raise DrawingError("no crossing-free placement found in 200 seeded trials")

    monkeypatch.setattr(cli, "draw_from_tracks", give_up)
    capsys.readouterr()
    assert run(["draw3d", graph, "--out", tmp_path / "d.txt"]) == cli.EXIT_CONSTRUCTION == 3
    assert "no crossing-free placement" in capsys.readouterr().err


def test_draw3d_writes_drawing_before_a_failing_export(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 10, "--out", graph])
    drawing = tmp_path / "d.txt"
    svg = tmp_path / "missing" / "d.svg"
    capsys.readouterr()
    assert run(["draw3d", graph, "--out", drawing, "--svg", svg]) == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert len(parse_drawing(drawing.read_text()).position) == 10
    assert not svg.exists()


def test_embedder_self_check_exit_code(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 10, "--out", graph])
    lr_rotation = embedding._lr_rotation

    def mirrored_at_one_vertex(g):
        rotation = lr_rotation(g)
        v = max(range(g.n), key=lambda u: len(rotation[u]))
        rotation[v].reverse()
        return rotation

    monkeypatch.setattr(embedding, "_lr_rotation", mirrored_at_one_vertex)
    capsys.readouterr()
    assert run(["decompose", graph]) == cli.EXIT_CONSTRUCTION == 3
    assert "nonzero genus" in capsys.readouterr().err


def test_decomposition_self_check_exit_code(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 10, "--out", graph])
    monkeypatch.setattr(decomposition.LayeredDecomposition, "layered_width", property(lambda ld: 4))
    capsys.readouterr()
    assert run(["decompose", graph]) == cli.EXIT_CONSTRUCTION == 3
    assert "exceeds 2g+3" in capsys.readouterr().err


def test_triangulation_self_check_exit_code(tmp_path, monkeypatch, capsys):
    rot = tmp_path / "torus.txt"
    run(["gen", "toroidal_grid", 4, "--rotation", "--out", rot])
    planar_k4 = embedding.embed_planar(complete_graph(4))
    # the torus's faces are quadrangles, so triangulate fans them and
    # checks the genus of what it rebuilt
    monkeypatch.setattr(
        embedding, "_rotation_from_canonical_faces", lambda n, edges, faces: planar_k4
    )
    capsys.readouterr()
    assert run(["decompose", "--embedded", rot]) == cli.EXIT_CONSTRUCTION == 3
    assert "triangulation changed the genus" in capsys.readouterr().err


def test_embedder_input_errors_exit_two(tmp_path, capsys):
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    for g, message in (
        (k5_graph(), "graph is not planar"),
        (two_triangles, "must be connected"),
        (Graph.from_edges(0, []), "empty graph"),
    ):
        path = tmp_path / "g.txt"
        path.write_text(format_graph(g))
        capsys.readouterr()
        assert run(["decompose", path]) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err


def test_runtime_without_networkx(tmp_path):
    """The CLI chain runs with networkx unimportable: it is a test-only
    oracle, never a runtime dependency."""
    script = textwrap.dedent("""
        import sys
        sys.modules["networkx"] = None
        from layersep.cli import main
        for argv in (
            ["gen", "planar_triangulation", "60", "--out", "g.txt"],
            ["decompose", "g.txt", "--out", "dec.txt"],
            ["tracks", "g.txt", "--out", "tl.txt"],
            ["verify", "tracks", "tl.txt", "g.txt"],
        ):
            code = main(argv)
            if code != 0:
                sys.exit(f"{argv[0]} exited {code}")
    """)
    src = str(Path(layersep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "tl.txt").exists()


def test_separate_manifest(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 30, "--out", graph])
    man = tmp_path / "sep.json"
    assert run(["separate", graph, "--manifest", man]) == 0
    data = json.loads(man.read_text())
    assert data["verdicts"].get("separation") == "pass"
    assert 1 <= data["bounds"]["separator_layer_width"] <= data["bounds"]["layered_width"]


REPORT_TABLE = """\
| fixture | n | layered width | bound | tracks | track bound | palette | palette bound |
|---|---|---|---|---|---|---|---|
| planar_triangulation/40 | 40 | 3 | 3 | 22 | 100 | 22 | 134 |
| planar_triangulation/120 | 120 | 3 | 3 | 36 | 125 | 36 | 166 |
| toroidal_grid/5 | 25 | 7 | 7 | 19 | 209 | 19 | 279 |
| toroidal_grid/7 | 49 | 7 | 7 | 33 | 244 | 33 | 325 |
"""


def test_bench_and_report_run(capsys):
    assert run(["bench", "--seed", 1]) == 0
    out = capsys.readouterr().out
    assert "fixture" in out and "vol" in out
    assert run(["report"]) == 0
    assert capsys.readouterr().out == REPORT_TABLE


def test_shadow_verify(tmp_path):
    graph = tmp_path / "g.txt"
    run(["gen", "path", 5, "--out", graph])
    lay = tmp_path / "lay.txt"
    run(["decompose", graph, "--out", tmp_path / "dec.txt"])
    # a BFS layering of a path is shadow-complete with k=1
    lay.write_text("0\n1\n2\n3\n4\n")
    assert run(["verify", "shadow", lay, graph, "--k", 1]) == 0


def _sha256(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


_PINNED_INPUTS = (("p", ["p.txt"], "0,1,2"), ("t", ["--embedded", "t.rot"], "0,1"))


def _pinned_builds():
    """The planar triangulation and the torus through every build
    subcommand; some runs print their artifact or manifest on stdout."""
    runs = [
        ["gen", "planar_triangulation", 60, "--seed", 7, "--out", "p.txt", "--manifest", "p.gen.json"],
        ["gen", "toroidal_grid", 5, "--rotation", "--out", "t.rot"],
        ["gen", "toroidal_grid", 5, "--out", "t.txt", "--manifest", "t.gen.json"],
    ]
    # 0, 1, 2 is the triangulation's first triangle; the torus grid has no triangle
    for x, src, clique in _PINNED_INPUTS:
        runs += [
            ["decompose", *src, "--root", 0],
            ["decompose", *src, "--root", clique, "--out", f"{x}.dec", "--manifest", f"{x}.dec.json"],
            ["separate", *src, "--out", f"{x}.sep", "--manifest", f"{x}.sep.json"],
            ["tracks", *src, "--out", f"{x}.tl", "--manifest", f"{x}.tl.json"],
            ["queues", *src, "--out", f"{x}.ql"],
            ["nonrep", *src, "--out", f"{x}.col", "--manifest", f"{x}.col.json"],
            ["draw3d", *src, "--svg", f"{x}.svg", "--obj", f"{x}.obj", "--out", f"{x}.d",
             "--manifest", f"{x}.d.json"],
        ]
    return runs


def _pinned_verifies():
    """Every verify kind on both inputs' artifacts, plus a failing one."""
    runs = []
    for x, _, _ in _PINNED_INPUTS:
        for kind, artifact in (("tracks", "tl"), ("queues", "ql"), ("layering", "lay"),
                               ("decomposition", "dec"), ("nonrep", "col"), ("drawing", "d"),
                               ("shadow", "lay")):
            runs.append(["verify", kind, f"{x}.{artifact}", f"{x}.txt", "--k", 3,
                         "--manifest", f"{x}.verify-{kind}.json"])
        runs.append(["verify", "shadow", f"{x}.lay", f"{x}.txt", "--k", 1,
                     "--manifest", f"{x}.verify-shadow-1.json"])
    return runs


CLI_OUTPUTS = {
    "gen planar_triangulation 60 --seed 7 --out p.txt --manifest p.gen.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "gen toroidal_grid 5 --rotation --out t.rot": "exit 0 stdout 82299a8c4d8851e8a4235b1afc257d37424dd03ea2dfb721a780851744b0d6a8",
    "gen toroidal_grid 5 --out t.txt --manifest t.gen.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "decompose p.txt --root 0": "exit 0 stdout 723d2d667bba7b4a2115a332d661a8cf47737ae3907bc49515b803bb4d2fc83d",
    "decompose p.txt --root 0,1,2 --out p.dec --manifest p.dec.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "separate p.txt --out p.sep --manifest p.sep.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "tracks p.txt --out p.tl --manifest p.tl.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "queues p.txt --out p.ql": "exit 0 stdout fc9426fdb48441eb51671e24a015fd7526fc390b27db254e0868ad0b00fd7efe",
    "nonrep p.txt --out p.col --manifest p.col.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "draw3d p.txt --svg p.svg --obj p.obj --out p.d --manifest p.d.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "decompose --embedded t.rot --root 0": "exit 0 stdout 887df519cdd05ccc2006691985d5673816701df14fe432db266985670e211387",
    "decompose --embedded t.rot --root 0,1 --out t.dec --manifest t.dec.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "separate --embedded t.rot --out t.sep --manifest t.sep.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "tracks --embedded t.rot --out t.tl --manifest t.tl.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "queues --embedded t.rot --out t.ql": "exit 0 stdout 7863777d17fad47516ee82088dc4fc6cd9d4ac9f8318dfa5c101a058471b7957",
    "nonrep --embedded t.rot --out t.col --manifest t.col.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "draw3d --embedded t.rot --svg t.svg --obj t.obj --out t.d --manifest t.d.json": "exit 0 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "verify tracks p.tl p.txt --k 3 --manifest p.verify-tracks.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify queues p.ql p.txt --k 3 --manifest p.verify-queues.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify layering p.lay p.txt --k 3 --manifest p.verify-layering.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify decomposition p.dec p.txt --k 3 --manifest p.verify-decomposition.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify nonrep p.col p.txt --k 3 --manifest p.verify-nonrep.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify drawing p.d p.txt --k 3 --manifest p.verify-drawing.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify shadow p.lay p.txt --k 3 --manifest p.verify-shadow.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify shadow p.lay p.txt --k 1 --manifest p.verify-shadow-1.json": "exit 1 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "verify tracks t.tl t.txt --k 3 --manifest t.verify-tracks.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify queues t.ql t.txt --k 3 --manifest t.verify-queues.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify layering t.lay t.txt --k 3 --manifest t.verify-layering.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify decomposition t.dec t.txt --k 3 --manifest t.verify-decomposition.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify nonrep t.col t.txt --k 3 --manifest t.verify-nonrep.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify drawing t.d t.txt --k 3 --manifest t.verify-drawing.json": "exit 0 stdout 9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
    "verify shadow t.lay t.txt --k 3 --manifest t.verify-shadow.json": "exit 1 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "verify shadow t.lay t.txt --k 1 --manifest t.verify-shadow-1.json": "exit 1 stdout e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "p.col": "a4cd98617cc13e05f512d078326a15f7609aebb1d7dc80cab4c4ffe0a5f4fa49",
    "p.col.json": "6a02290416f1031e3e46f8c282591e1d42574f42e9e612c2959eeb6c16b66f35",
    "p.d": "38fd96b100ef2b4a022a402b78b2ba6386486471152d5f6135184d6925397a9d",
    "p.d.json": "a6ab18f54b3740aa0d8857523fd6db0cccdae158306b16769c8a022aa4ac1c7e",
    "p.dec": "b99cf8a2ef60f995247fbddd6dd0ce6eef105469175c03120846c6f56772279b",
    "p.dec.json": "02ca74a384a18e1f9f80bdea88530ba2e00f08d7cd6c74ebb2a4d2f124d081d6",
    "p.gen.json": "2dfff6cf47f1e5407156e54d6f96459bd110bf7ca4f1d72ee9e5d788feaa5efc",
    "p.lay": "a56b703d20473a8af0e30505f3ce81bcc2793c100a7c53e9e7b39fc8cb24ab2c",
    "p.obj": "44a37ddd1120f91e711a41412c9a11ef3ba876c9a7de2cdc0e8f5466b030e8cd",
    "p.ql": "835b3a38032a4402a7eb16675e5dec190dfcb74703f3ec6b2aa80c47e56988b9",
    "p.sep": "b5ba3715f8bc1ececff1c18492d0de9110dfc03c19fad7cd5dfd80a2dee1e701",
    "p.sep.json": "05a003932ad7c7be760ecbf38622010e83e04b6dfe07796dba714564ea7f9ad4",
    "p.svg": "8a85bc9dad56e655cf9f8048a52401e992b8ebfec5c6218354782bfceb8203bb",
    "p.tl": "4c03bbfba8c920e92f56ad435f294b25d29fdca44ce0176b643325dcc065d22a",
    "p.tl.json": "350701def6ad44ec545f23127393024e24deed54464f94a0b0cb22af48addb7f",
    "p.txt": "3b6c6ac148315f3aa7610da564d26150d96c25c94f1bfeabfc1bb2782005ed80",
    "p.verify-decomposition.json": "32b43c1708a9c6e8953ed0dcc0e9b1fed17900b728e9fd275a37bb674bb3c2d0",
    "p.verify-drawing.json": "35dc4d9fb1d97839fb74111522cb16903f9f775054cb0c4ff5f3c1951f85d941",
    "p.verify-layering.json": "8b06b0e46f10173ca52757f031e3a8893e01263eaa150bd3c3f77984fd46f945",
    "p.verify-nonrep.json": "635c4878974973dc6035ba315ad9414e21cc7fb17400b68f65c4644b1a625255",
    "p.verify-queues.json": "0e55db71d69bc371899314a24a7be7623a963f8406e025e57a96885d650b26af",
    "p.verify-shadow-1.json": "9a936bb80da18b8b137c020e4fa396d5938e338898b24d604df5759398aa1e59",
    "p.verify-shadow.json": "08b7a56c5373ae1df98c2ac69714dfc7feb10d6a4c9728e0baa11703363ba73f",
    "p.verify-tracks.json": "7aa526051392ac1fbac5ce4b0ead6eec605174153373ec8e938cfc1555849510",
    "t.col": "18a1969a68b3c1c5f81851a5dfd921274be72670dd2c6a97c4c6e265e4ef5f92",
    "t.col.json": "280a3cef9313b3d39f52c3f309037d4ec52d88178852a0b3bc811f46cf59bf9b",
    "t.d": "4655f1125a0ab4f24024cb9c10bdfe6e81372f40b68722160d115fe3fdcc7be4",
    "t.d.json": "702257ec46841a813f30b8c561f44da060b1a6ede9496430137fc60864440b77",
    "t.dec": "76d9a17ebf7e73ca7c545504c644834c4215412206dfeb8f8c5e2b49343ecf90",
    "t.dec.json": "911cee074b05380ce6aa8bac6b870ce6fe4dcc2b139fbf5eddd2fed8d4d68baa",
    "t.gen.json": "82299a8c4d8851e8a4235b1afc257d37424dd03ea2dfb721a780851744b0d6a8",
    "t.lay": "9bd82ffcbc6d2f64c7745b43f69281a0a45ca2c14671e49a76ca01fd3efe9420",
    "t.obj": "81dca67150d581bea73bf523c0d9ce3aa4da83d6a2bdb2593f2702c8135c8170",
    "t.ql": "3a67373ca9cf592fec623cecf8defea4ee9e4a3c662bbe3915625aa196019529",
    "t.rot": "5ac8a0421c045057cacdaed4939e731399b07873cee85e182d841cb90fe94bcb",
    "t.sep": "b9fc7562f97e61a9035a7ebc692eb1d48e65de140e4217b57db92da1e3f6c5cd",
    "t.sep.json": "440e2c1bf3cef2058d1cb92824ca1803ba33f22f1ca6c9b6bf065278b0085382",
    "t.svg": "dd73c4e4dedf1547162838a488cbf6ae74bc2d20c46c39ca9d4b41a949498822",
    "t.tl": "e92412598e121e770030779fb3c66be5acd1e107949b2c42860f4e8b291c3153",
    "t.tl.json": "9cc746527c4d81b3a6f457ca938422931f72e80c253c6135dff908219aa3759f",
    "t.txt": "96a323e852e999b16c31458eb958bdce51247800425df2ca90f3215909bce31d",
    "t.verify-decomposition.json": "8e9a8ba084d7a7da62d531e1a876503b5ea189cf917f47d9b38441fa6b7ff070",
    "t.verify-drawing.json": "3fa436a6d6107cdcee25a01f12f68edd4e9c377ad7e704a3a46416ace9425a7b",
    "t.verify-layering.json": "95bec8ebca219eae4f09e57973e54e7f570c4cb199526d61a90391d0f2bb2b60",
    "t.verify-nonrep.json": "23907ab8fce08299c05977f920db52d87803f5b6ea5b6661c7d5d3b6db4052de",
    "t.verify-queues.json": "b0425fef18372205f76d4de56905bfba576a6c157a6bce56259b22341b3022e0",
    "t.verify-shadow-1.json": "7d58b2a8d6b484ff92474ac9e72312186ba428a7bf037b9dd736295703e61cf2",
    "t.verify-shadow.json": "7d58b2a8d6b484ff92474ac9e72312186ba428a7bf037b9dd736295703e61cf2",
    "t.verify-tracks.json": "932a342c2308fce1bf77be7a1ccaccafbd6e347d1f417b39999fa14fae878d02",
}


def test_cli_outputs_pinned(tmp_path, monkeypatch, capsys):
    """The sha256 of every artifact, manifest and stdout, and every exit
    code, of a fixed set of runs.  The working directory is tmp_path, so
    every path a manifest records is relative."""
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    got = {}

    def run_all(runs):
        for argv in runs:
            code = run(argv)
            got[" ".join(map(str, argv))] = f"exit {code} stdout {_sha256(capsys.readouterr().out)}"

    run_all(_pinned_builds())
    for x, _, _ in _PINNED_INPUTS:
        ld = parse_layered_decomposition(Path(f"{x}.dec").read_text())
        Path(f"{x}.lay").write_text(format_layering(ld.layering))
    run_all(_pinned_verifies())
    for path in sorted(tmp_path.iterdir()):
        got[path.name] = _sha256(path.read_bytes())
    assert got == CLI_OUTPUTS


def test_layout_error_exit_code(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 10, "--out", graph])

    def broken_recursion(*args, **kwargs):
        raise layouts.LayoutError("recursion left 2 vertices unlabelled")

    monkeypatch.setattr(layouts, "compute_recursion", broken_recursion)
    capsys.readouterr()
    assert run(["tracks", graph]) == cli.EXIT_CONSTRUCTION == 3
    assert capsys.readouterr().err == "error: recursion left 2 vertices unlabelled\n"


def test_draw3d_bad_track_layout_exits_three(tmp_path, monkeypatch, capsys):
    """A track layout built here that is not one is a construction fault,
    as for queues, not invalid input."""
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 10, "--out", graph])
    build = cli.track_layout_from_compute

    def drop_vertex_zero(*args):
        tl = build(*args)
        return layouts.TrackLayout(tuple(tuple(v for v in t if v != 0) for t in tl.tracks))

    monkeypatch.setattr(cli, "track_layout_from_compute", drop_vertex_zero)
    capsys.readouterr()
    assert run(["draw3d", graph, "--out", tmp_path / "d.txt"]) == cli.EXIT_CONSTRUCTION == 3
    assert capsys.readouterr().err.startswith("error: input track layout invalid: ")
    assert not (tmp_path / "d.txt").exists()


def test_draw3d_manifest_records_its_trials(tmp_path, monkeypatch):
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 30, "--out", graph])
    trials = []
    real = drawing3d._drawing_violations

    def counted(g, pos, in_order=True):
        if not in_order:  # the draw loop's check of one trial
            trials.append(pos)
        return real(g, pos, in_order)

    monkeypatch.setattr(drawing3d, "_drawing_violations", counted)
    man = tmp_path / "d.json"
    assert run(["draw3d", graph, "--out", tmp_path / "d.txt", "--manifest", man]) == 0
    assert json.loads(man.read_text())["parameters"]["trials"] == len(trials) > 0


def test_nonrep_uncoloured_vertex_exits_one(tmp_path, monkeypatch, capsys):
    """A construction that leaves a vertex uncoloured fails the proper
    check; the square search, which needs every colour, never runs."""
    graph = tmp_path / "g.txt"
    run(["gen", "planar_triangulation", 12, "--out", graph])
    build = cli.nonrep_from_compute

    def drop_vertex_zero(*args):
        colouring = build(*args)
        return Colouring({v: c for v, c in colouring.colour.items() if v != 0})

    monkeypatch.setattr(cli, "nonrep_from_compute", drop_vertex_zero)
    man = tmp_path / "m.json"
    capsys.readouterr()
    assert run(["nonrep", graph, "--out", tmp_path / "c.txt", "--manifest", man]) == cli.EXIT_VERIFY
    assert json.loads(man.read_text())["verdicts"] == {"proper": "fail"}
    assert capsys.readouterr().err == "vertex 0 uncoloured\n"


def test_parser_built_once(tmp_path):
    """A second main call leaves no argparse object for the cyclic
    collector: the parser is built once per process."""
    argv = ["gen", "path", 4, "--out", tmp_path / "g.txt", "--manifest", tmp_path / "m.json"]
    run(argv)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(argv)
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []

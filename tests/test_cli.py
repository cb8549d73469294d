import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import layersep
from layersep import cli, decomposition, embedding
from layersep.cli import main
from layersep.decomposition import parse_layered_decomposition
from layersep.drawing3d import DrawingError, parse_drawing
from layersep.generators import complete_graph, k5_graph
from layersep.graphs import Graph, format_graph
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
    assert params["layer_pattern_fell_back"] is False
    assert params["layer_pattern_search_nodes"] > 0
    assert params["max_path"] == 10
    vman = tmp_path / "v.json"
    assert run(["verify", "nonrep", col, graph, "--verify-max-path", 10,
                "--manifest", vman]) == 0
    assert json.loads(vman.read_text())["parameters"]["max_path"] == 10
    # without the flag the default for n <= 40 is exhaustive
    assert run(["verify", "nonrep", col, graph, "--manifest", vman]) == 0
    assert json.loads(vman.read_text())["parameters"]["max_path"] == 20
    parse_colouring(col.read_text())


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
    monkeypatch.setattr(embedding, "_rotation_from_faces", lambda n, edges, walks: planar_k4)
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

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.generators import (
    cycle_graph,
    path_graph,
    random_planar_triangulation,
    random_tree,
    toroidal_grid,
)
from layersep.graphs import Graph, bfs_layering
from layersep.layouts import (
    ComputeLabels,
    LayoutError,
    QueueLayout,
    TrackLayout,
    compute_recursion,
    format_queue_layout,
    format_track_layout,
    parse_queue_layout,
    parse_track_layout,
    pipeline,
    queue_from_tracks,
    track_bound,
    track_layout_from_compute,
    verify_queue_layout,
    verify_track_layout,
)
from tests.conftest import embedded_graphs, planar_pipeline, torus_pipeline


def test_compute_recursion_separation_mode():
    g, res, labels, _ = planar_pipeline(60)
    assert labels.mode == "separation"
    assert labels.ell1 <= 3 and labels.ell2 <= 3
    # labels bounded by the per-level width
    assert all(0 <= lab < 3 * labels.ell2 for lab in labels.label.values())
    # recursion depth respects the 2/3 shrink rate
    assert labels.max_depth <= math.ceil(math.log(g.n, 1.5)) + 1


def test_compute_recursion_separator_mode():
    g, res, _, _ = planar_pipeline(40)
    labels = compute_recursion(
        g, res.ld.layering, res.ld, q=tuple(res.apex_paths), mode="separator"
    )
    assert labels.mode == "separator"
    tl = track_layout_from_compute(g, res.ld.layering, labels)
    assert verify_track_layout(g, tl).ok
    # separator mode halves, so the base-2 bound applies
    assert len(tl.tracks) <= track_bound(g.n, labels.ell1, labels.ell2, "separator")


def test_planar_track_layout_verified_and_bounded():
    for n in (10, 50, 150):
        g, _, labels, tl = planar_pipeline(n)
        assert verify_track_layout(g, tl).ok
        assert len(tl.tracks) <= track_bound(g.n, labels.ell1, labels.ell2)


def test_torus_track_layout():
    g, res, labels, tl = torus_pipeline(4, 6)
    assert verify_track_layout(g, tl).ok
    assert len(tl.tracks) <= track_bound(g.n, labels.ell1, labels.ell2)


def test_track_bound_formula():
    # 3*ell1 + 3*ell2*(1 + log_{3/2} n)
    assert track_bound(8, 1, 1, "separation") == pytest.approx(
        3 + 3 * (1 + math.log(8, 1.5))
    )
    assert track_bound(8, 1, 1, "separator") == pytest.approx(
        3 + 3 * (1 + math.log2(8))
    )


def test_verify_track_layout_catches_x_crossing():
    g = cycle_graph(6)
    good = TrackLayout(((0, 3), (1, 5), (2, 4)))
    assert verify_track_layout(g, good).ok
    # (0,1) and (3,4) cross between tracks 0 and 1
    bad = TrackLayout(((0, 3), (1, 4), (2, 5)))
    rep = verify_track_layout(g, bad)
    assert not rep.ok
    assert any("cross" in v for v in rep.violations)


def test_verify_track_layout_catches_missing_vertex():
    g = path_graph(3)
    rep = verify_track_layout(g, TrackLayout(((0, 2),)))
    assert not rep.ok


def test_verify_track_layout_catches_vertex_outside_graph():
    g = path_graph(4)
    good = TrackLayout(((0, 2), (1, 3)))
    assert verify_track_layout(g, good).ok
    rep = verify_track_layout(g, TrackLayout(((0, 2), (1, 3, 99))))
    assert not rep.ok
    assert any("99" in v and "not in G" in v for v in rep.violations)


def test_verify_track_layout_intra_track_edge():
    g = path_graph(2)
    rep = verify_track_layout(g, TrackLayout(((0, 1),)))
    assert not rep.ok


def test_queue_from_tracks_counts():
    g, _, _, tl = planar_pipeline(80)
    ql = queue_from_tracks(g, tl)
    assert verify_queue_layout(g, ql).ok
    assert ql.queue_count <= len(tl.tracks) - 1


def test_queue_from_tracks_rejects_bad_layout():
    g = cycle_graph(6)
    with pytest.raises(LayoutError):
        queue_from_tracks(g, TrackLayout(((0, 3), (1, 4), (2, 5))))


def test_verify_queue_layout_catches_nesting():
    g = Graph.from_edges(4, [(0, 3), (1, 2)])
    ql = QueueLayout((0, 1, 2, 3), {(0, 3): 0, (1, 2): 0})
    assert not verify_queue_layout(g, ql).ok
    ql2 = QueueLayout((0, 1, 2, 3), {(0, 3): 0, (1, 2): 1})
    assert verify_queue_layout(g, ql2).ok


def test_tree_layout_small():
    g = random_tree(30, seed=2)
    layering, _ = bfs_layering(g, [0])
    from layersep.decomposition import LayeredDecomposition, TreeDecomposition

    # a tree is its own width-1 layered decomposition: bag per edge
    bags = tuple(frozenset(e) for e in sorted(g.edges))
    adj: dict[frozenset, int] = {}
    tree_edges = []
    for i, b in enumerate(bags):
        for j in range(i):
            if bags[j] & b:
                tree_edges.append((j, i))
                break
    td = TreeDecomposition(bags, tuple(tree_edges))
    ld = LayeredDecomposition(td, layering)
    labels = compute_recursion(g, layering, ld, mode="separation")
    tl = track_layout_from_compute(g, layering, labels)
    assert verify_track_layout(g, tl).ok
    ql = queue_from_tracks(g, tl)
    assert verify_queue_layout(g, ql).ok


def test_track_layout_format_roundtrip():
    _, _, _, tl = planar_pipeline(20)
    assert parse_track_layout(format_track_layout(tl)) == tl


def test_queue_layout_format_roundtrip():
    g, _, _, tl = planar_pipeline(20)
    ql = queue_from_tracks(g, tl)
    back = parse_queue_layout(format_queue_layout(ql))
    assert back == ql


def test_parse_track_layout_rejects_garbage():
    from layersep.graphs import GraphInputError

    with pytest.raises(GraphInputError):
        parse_track_layout("junk\n")


def _pipeline(eg, mode):
    g, res, labels, _ = pipeline(eg)
    if mode != "separation":
        labels = compute_recursion(
            g, res.ld.layering, res.ld, q=tuple(res.apex_paths), mode=mode
        )
    return g, res, labels


def _oracle_track_layout(g, layering, labels: ComputeLabels) -> TrackLayout:
    """Tracks ordered by comparing root paths of the recursion tree: within
    a layer, the child rank at the first divergence decides."""
    layer_of = layering.layer_of
    ancestors: dict[int, list[tuple[int, int]]] = {}

    def path(nid: int) -> list[tuple[int, int]]:
        # (node id, rank) pairs from the root down to nid
        if nid not in ancestors:
            node = labels.nodes[nid]
            base = [] if node.parent is None else path(node.parent)
            ancestors[nid] = base + [(nid, node.rank)]
        return ancestors[nid]

    def cmp(v: int, w: int) -> int:
        iv, iw = layer_of[v], layer_of[w]
        if iv != iw:
            return -1 if iv < iw else 1
        if v == w:
            return 0
        pv, pw = path(labels.node_of[v]), path(labels.node_of[w])
        for (nv, rv), (nw, rw) in zip(pv, pw):
            if nv != nw:
                assert rv != rw, "distinct recursion children share a rank"
                return -1 if rv < rw else 1
        raise AssertionError(f"vertices {v} and {w} share a layer and node")

    grouped: dict[tuple[int, int, int], list[int]] = {}
    for v in g.vertices():
        key = (layer_of[v] % 3, labels.depth[v], labels.label[v])
        grouped.setdefault(key, []).append(v)
    tracks = []
    for k in sorted(grouped):
        vs = grouped[k]
        if k[1] == 0:
            vs.sort(key=lambda v: layer_of[v])
        else:
            vs.sort(key=cmp_to_key(cmp))
        tracks.append(tuple(vs))
    return TrackLayout(tuple(tracks))


@pytest.mark.parametrize("mode", ["separation", "separator"])
def test_track_order_matches_root_path_oracle(mode):
    inputs = [random_planar_triangulation(n, seed=n) for n in (50, 200, 600)]
    inputs += [toroidal_grid(p, p) for p in (8, 12)]
    for eg in inputs:
        g, res, labels = _pipeline(eg, mode)
        tl = track_layout_from_compute(g, res.ld.layering, labels)
        assert tl == _oracle_track_layout(g, res.ld.layering, labels)


@settings(max_examples=30, deadline=None)
@given(embedded_graphs, st.sampled_from(["separation", "separator"]))
def test_recursion_split_properties(eg, mode):
    g, res, labels = _pipeline(eg, mode)
    bags = res.ld.decomposition.bags
    cap = Fraction(2, 3) if mode == "separation" else Fraction(1, 2)
    children: dict[int, list[frozenset[int]]] = {}
    for node in labels.nodes:
        if node.parent is not None:
            children.setdefault(node.parent, []).append(node.sample)
    for node in labels.nodes:
        kids = children.get(node.id, [])
        assert any(node.separator <= bag for bag in bags)
        assert frozenset().union(*kids) == node.sample - node.separator
        for kid in kids:
            assert len(kid) <= cap * len(node.sample)
        for a, b in itertools.combinations(kids, 2):
            assert not any(w in b for v in a for w in g.adjacency[v])


def test_recursion_n3200_smoke():
    g, _, labels, tl = planar_pipeline(3200)
    assert verify_track_layout(g, tl).ok
    assert len(tl.tracks) <= track_bound(g.n, labels.ell1, labels.ell2)

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.decomposition import format_layered_decomposition
from layersep.embedding import (
    EmbeddedGraph,
    EmbeddingError,
    embed_planar,
    format_rotation_system,
    parse_rotation_system,
    tree_cotree,
    triangulate,
)
from layersep.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    k33_graph,
    k5_graph,
    random_planar_triangulation,
    random_tree,
    toroidal_grid,
)
from layersep.graphs import Graph, GraphInputError
from layersep.layouts import format_track_layout, pipeline, track_layout_from_compute
from tests.conftest import root_path


def _nx_embed_planar(g: Graph) -> EmbeddedGraph:
    """Oracle: the rotation system of networkx's ``check_planarity`` on the
    graph built from ``g.sorted_edges``, which ``embed_planar`` must
    reproduce (same cyclic order at every vertex)."""
    if g.n == 0:
        raise EmbeddingError("cannot embed the empty graph")
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices())
    nxg.add_edges_from(g.sorted_edges)
    ok, emb = nx.check_planarity(nxg)
    if not ok:
        raise EmbeddingError("graph is not planar")
    edge_list = g.sorted_edges
    edge_ids = {e: i for i, e in enumerate(edge_list)}
    rotation: list[tuple[int, ...]] = []
    for v in g.vertices():
        nbrs = list(emb.neighbors_cw_order(v)) if g.degree(v) else []
        darts = []
        for w in nbrs:
            e = edge_ids[(min(v, w), max(v, w))]
            darts.append(2 * e if edge_list[e][0] == v else 2 * e + 1)
        rotation.append(tuple(darts))
    eg = EmbeddedGraph(g.n, edge_list, tuple(rotation))
    if eg.euler_genus != 0:
        raise EmbeddingError("planar embedding produced nonzero genus")
    return eg


def _outcome(embed, g: Graph):
    """The dart successor map, or the message of the EmbeddingError raised."""
    try:
        return embed(g).sigma
    except EmbeddingError as exc:
        return str(exc)


def _assert_same_as_networkx(g: Graph) -> None:
    """Same cyclic order (not tuple start, which varies between networkx
    versions) and same errors as the oracle."""
    assert _outcome(embed_planar, g) == _outcome(_nx_embed_planar, g)


def _relabel(g: Graph, rnd) -> Graph:
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _spanning_subgraph(g: Graph, rnd, extra: int) -> Graph:
    """A random spanning tree of connected ``g`` plus ``extra`` more edges."""
    edges = sorted(g.edges)
    rnd.shuffle(edges)
    root = list(range(g.n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    tree, rest = [], []
    for u, v in edges:
        if find(u) != find(v):
            root[find(u)] = find(v)
            tree.append((u, v))
        else:
            rest.append((u, v))
    return Graph.from_edges(g.n, tree + rest[:extra])


@st.composite
def triangulations(draw, max_n=300):
    n = draw(st.integers(3, max_n))
    g = random_planar_triangulation(n, seed=draw(st.integers(0, 10**6))).to_graph()
    return _relabel(g, draw(st.randoms(use_true_random=False)))


@st.composite
def spanning_subgraphs(draw):
    g = draw(triangulations(max_n=120))
    return _spanning_subgraph(g, draw(st.randoms(use_true_random=False)),
                              draw(st.integers(0, 2 * g.n)))


@st.composite
def outerplanar_graphs(draw):
    """A Hamiltonian cycle plus a random subset of the chords of a random
    maximal outerplanar graph on it."""
    n = draw(st.integers(3, 80))
    rnd = draw(st.randoms(use_true_random=False))
    boundary = [0, 1, 2]
    chords: list[tuple[int, int]] = []
    for v in range(3, n):
        i = rnd.randrange(len(boundary))
        chords.append((boundary[i], boundary[(i + 1) % len(boundary)]))
        boundary.insert(i + 1, v)
    cycle = [(boundary[i - 1], boundary[i]) for i in range(n)]
    kept = [c for c in chords if rnd.random() < 0.5]
    return _relabel(Graph.from_edges(n, cycle + kept), rnd)


@st.composite
def sparse_gnm(draw):
    """G(n, m) with m <= 3n - 6: the edge-count shortcut decides none."""
    n = draw(st.integers(3, 40))
    m = draw(st.integers(0, 3 * n - 6))
    rnd = draw(st.randoms(use_true_random=False))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rnd.sample(pairs, m))


@st.composite
def kuratowski_glued(draw):
    """A subdivided K5 or K3,3 sharing one vertex with a connected planar
    graph: non-planar, connected and at most 3n - 6 edges."""
    base = draw(spanning_subgraphs())
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        k, kedges = 5, [(a, b) for a in range(5) for b in range(a + 1, 5)]
    else:
        k, kedges = 6, [(a, b) for a in range(3) for b in range(3, 6)]
    names = [rnd.randrange(base.n)] + list(range(base.n, base.n + k - 1))
    n = base.n + k - 1
    edges = list(base.edges)
    for a, b in kedges:
        path = [names[a]]
        for _ in range(rnd.randrange(3)):
            path.append(n)
            n += 1
        path.append(names[b])
        edges.extend(zip(path, path[1:]))
    g = Graph.from_edges(n, edges)
    assert g.m <= 3 * g.n - 6
    return _relabel(g, rnd)


def test_embed_planar_k4():
    eg = embed_planar(complete_graph(4))
    assert eg.euler_genus == 0
    assert len(eg.faces) == 4  # tetrahedron


def test_embed_planar_rejects_k5():
    from layersep.embedding import EmbeddingError

    with pytest.raises(EmbeddingError):
        embed_planar(k5_graph())
    with pytest.raises(EmbeddingError):
        embed_planar(k33_graph())


def test_embed_planar_grid_euler():
    eg = embed_planar(grid_graph(4, 4))
    # V - E + F = 2 on the sphere
    assert eg.n - len(eg.edge_list) + len(eg.faces) == 2
    assert eg.euler_genus == 0


def test_toroidal_grid_genus():
    eg = toroidal_grid(4, 5)
    assert eg.euler_genus == 2
    assert all(len(f) == 4 for f in eg.faces)  # quadrangulation


def test_triangulate_all_triangles():
    eg = embed_planar(grid_graph(3, 3))
    tri = triangulate(eg)
    assert tri.euler_genus == eg.euler_genus
    assert all(len(f) == 3 for f in tri.faces)
    # triangulation keeps the vertex set
    assert tri.n == eg.n


def test_triangulate_torus():
    tri = triangulate(toroidal_grid(3, 3))
    assert tri.euler_genus == 2
    assert all(len(f) == 3 for f in tri.faces)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.builds(random_planar_triangulation, st.integers(3, 80), st.integers(0, 10**6)),
        st.builds(
            lambda p, q: triangulate(toroidal_grid(p, q)), st.integers(3, 7), st.integers(3, 7)
        ),
    )
)
def test_triangulate_returns_a_triangulation_as_it_is(eg):
    assert all(len(f) == 3 for f in eg.faces)
    assert triangulate(eg) is eg


def test_to_graph_is_built_once_per_embedding():
    for eg in (random_planar_triangulation(40, seed=3), toroidal_grid(4, 5)):
        assert eg.to_graph() is eg.to_graph()
        assert eg.to_graph() == Graph.from_edges(eg.n, eg.edge_list)
    g = random_planar_triangulation(40, seed=3).to_graph()
    assert embed_planar(g).to_graph() is g  # the embedder keeps no second copy


def test_euler_genus_checks_connectivity_without_a_graph():
    eg = parse_rotation_system(format_rotation_system(toroidal_grid(4, 5)))
    assert eg.euler_genus == 2 and "_graph" not in eg.__dict__
    tri = triangulate(eg)
    assert tri.euler_genus == 2 and "_graph" not in tri.__dict__
    two_triangles = EmbeddedGraph(
        6,
        ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)),
        ((0, 5), (2, 1), (4, 3), (6, 11), (8, 7), (10, 9)),
    )
    for disconnected in (two_triangles, EmbeddedGraph(2, (), ((), ())), EmbeddedGraph(0, (), ())):
        with pytest.raises(EmbeddingError, match="must be connected"):
            disconnected.euler_genus


def test_triangulate_absorbs_bigon():
    # a triangle with edge 01 doubled: the two copies bound a face of
    # length 2, which triangulate must absorb without changing the genus
    eg = EmbeddedGraph(
        3, ((0, 1), (1, 2), (2, 0), (0, 1)), ((0, 5, 6), (1, 7, 2), (3, 4))
    )
    assert sorted(len(f) for f in eg.faces) == [2, 3, 3]
    tri = triangulate(eg)
    assert tri.euler_genus == 0
    assert all(len(f) == 3 for f in tri.faces)


def test_tree_cotree_sizes():
    tri = triangulate(toroidal_grid(3, 4))
    face = sorted({tri.dart_tail(d) for d in tri.faces[0]})
    n, m = tri.n, len(tri.edge_list)
    for roots in ([0], face[:2], face):
        tc = tree_cotree(tri, roots)
        assert len(tc.primal_tree_edges) == n - 1
        assert tc.x_size == tri.euler_genus
        assert len(tc.primal_tree_edges) + len(tc.dual_tree_edges) + tc.x_size == m
        # the star joins every root to the least one, at depth 0
        assert {v for v, d in enumerate(tc.depth) if d == 0} == set(roots)
        assert all(tc.parent[r] == roots[0] for r in roots[1:])
        assert all(roots[0] in root_path(tc.parent, v) for v in range(n))


def test_tree_cotree_rejects_non_clique_roots():
    tri = random_planar_triangulation(20, seed=1)
    far = min(set(range(1, tri.n)) - set(tri.to_graph().adjacency[0]))
    with pytest.raises(GraphInputError):
        tree_cotree(tri, [0, far])


def test_tree_cotree_planar_no_leftover():
    tri = triangulate(embed_planar(grid_graph(3, 3)))
    assert tree_cotree(tri, [0]).x_size == 0


def test_rotation_roundtrip():
    eg = toroidal_grid(3, 3)
    text = format_rotation_system(eg)
    back = parse_rotation_system(text)
    assert back.n == eg.n
    assert back.edge_list == eg.edge_list
    assert back.euler_genus == eg.euler_genus


def test_parse_rotation_rejects_garbage():
    with pytest.raises(GraphInputError):
        parse_rotation_system("nonsense\n")


@pytest.mark.parametrize("text, line", [
    ("x 3\n", "x 3"),
    ("2 1\n0 0\n0\n0\n", "0 0"),
    ("2 1\n0 0 1\n0\nx\n", "x"),
])
def test_parse_rotation_names_the_bad_line(text, line):
    with pytest.raises(GraphInputError, match=repr(line)):
        parse_rotation_system(text)


_PATH3_ROTATIONS = "0\n0 1\n1\n"  # the path 0 - 1 - 2, edge 0 = (0, 1), edge 1 = (1, 2)


@pytest.mark.parametrize("edges, message", [
    ("0 0 1\n0 1 2\n", "bad or duplicate edge id in '0 1 2'"),
    ("0 0 1\n2 1 2\n", "bad or duplicate edge id in '2 1 2'"),
    ("0 0 1\n-1 1 2\n", "bad or duplicate edge id in '-1 1 2'"),
    ("0 0\n1 1 1 2\n", "bad edge line '0 0'"),
    ("0 0 1\n1 1 x\n", "bad edge line '1 1 x'"),
])
def test_parse_rotation_names_the_bad_edge_line(edges, message):
    """The bulk read of the edge block falls back to the line by line one
    for its message."""
    with pytest.raises(GraphInputError, match=f"^{message}$"):
        parse_rotation_system("3 2\n" + edges + _PATH3_ROTATIONS)


def test_parse_rotation_reads_edge_lines_in_any_order():
    ordered = parse_rotation_system("3 2 0\n0 0 1\n1 1 2\n" + _PATH3_ROTATIONS)
    assert ordered.edge_list == ((0, 1), (1, 2))
    assert parse_rotation_system("3 2 0\n1 1 2\n0 0 1\n" + _PATH3_ROTATIONS) == ordered


def test_rotation_roundtrip_one_vertex():
    eg = EmbeddedGraph(1, (), ((),))
    text = format_rotation_system(eg)
    assert text == "1 0 0\n\n"
    assert parse_rotation_system(text) == eg


def test_parse_rotation_rejects_repeated_dart():
    # edge 0 listed twice at vertex 0
    with pytest.raises(GraphInputError):
        parse_rotation_system("2 1\n0 0 1\n0 0\n0\n")


def test_parse_rotation_rejects_loop():
    with pytest.raises(GraphInputError):
        parse_rotation_system("1 1\n0 0 0\n0 0\n")


def test_random_triangulation_is_triangulation():
    for seed in (0, 1, 2):
        eg = random_planar_triangulation(25, seed=seed)
        assert eg.euler_genus == 0
        assert all(len(f) == 3 for f in eg.faces)
        # 2n - 4 faces and 3n - 6 edges for a planar triangulation
        assert len(eg.faces) == 2 * eg.n - 4
        assert len(eg.edge_list) == 3 * eg.n - 6


@settings(max_examples=40, deadline=None)
@given(triangulations())
def test_embed_planar_matches_networkx_on_triangulations(g):
    _assert_same_as_networkx(g)


@settings(max_examples=40, deadline=None)
@given(spanning_subgraphs())
def test_embed_planar_matches_networkx_on_spanning_subgraphs(g):
    _assert_same_as_networkx(g)


@settings(max_examples=40, deadline=None)
@given(outerplanar_graphs())
def test_embed_planar_matches_networkx_on_outerplanar(g):
    _assert_same_as_networkx(g)


@settings(max_examples=100, deadline=None)
@given(sparse_gnm())
def test_embed_planar_verdict_matches_networkx_on_gnm(g):
    _assert_same_as_networkx(g)


@settings(max_examples=40, deadline=None)
@given(kuratowski_glued())
def test_embed_planar_rejects_glued_kuratowski_subdivisions(g):
    assert _outcome(embed_planar, g) == _outcome(_nx_embed_planar, g) == "graph is not planar"


@pytest.mark.parametrize(
    "g",
    [grid_graph(r, c) for r, c in ((1, 1), (1, 7), (2, 2), (5, 9), (12, 12))]
    + [cycle_graph(k) for k in (3, 4, 17)]
    + [complete_graph(k) for k in (1, 2, 3, 4)],
)
def test_embed_planar_matches_networkx_on_named_graphs(g):
    _assert_same_as_networkx(g)


def test_embed_planar_rejects_empty_and_disconnected():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    for g in (Graph.from_edges(0, []), Graph.from_edges(2, []), two_triangles):
        with pytest.raises(EmbeddingError):
            embed_planar(g)
        _assert_same_as_networkx(g)


def test_embed_planar_rotation_pinned():
    # the tuples, start included, as networkx 3.6 returns them for the
    # sorted edge list; the oracle tests compare cyclic order only, so
    # this pins where each one starts
    assert embed_planar(grid_graph(3, 3)).rotation == (
        (0, 2), (1, 4, 6), (5, 8), (10, 12, 3), (14, 16, 11, 7), (9, 18, 15),
        (13, 20), (21, 17, 22), (23, 19),
    )
    assert embed_planar(random_planar_triangulation(8, seed=2).to_graph()).rotation == (
        (0, 8, 2, 10, 4, 6), (1, 16, 14, 12, 20, 18), (13, 22, 26, 3, 24, 28),
        (23, 15, 30, 5, 32), (31, 17, 7), (25, 9, 19, 34), (33, 11, 27), (35, 21, 29),
    )


@st.composite
def permuted_copies(draw):
    """A random tree or a connected spanning subgraph of a random
    triangulation, and the equal graph built from its edges in a random
    order."""
    if draw(st.booleans()):
        g = random_tree(draw(st.integers(1, 60)), seed=draw(st.integers(0, 10**6)))
    else:
        g = draw(spanning_subgraphs())
    edges = list(g.sorted_edges)
    draw(st.randoms(use_true_random=False)).shuffle(edges)
    return g, Graph.from_edges(g.n, edges)


def _artifact_texts(eg: EmbeddedGraph) -> tuple[str, str]:
    g, res, labels, _ = pipeline(eg)
    tl = track_layout_from_compute(g, res.ld.layering, labels)
    return format_layered_decomposition(res.ld), format_track_layout(tl)


@settings(max_examples=60, deadline=None)
@given(permuted_copies())
def test_equal_graphs_embed_alike(pair):
    # the embedding is a function of the graph value, not of the order
    # its edges arrived in, and so is every artifact built on it
    g, h = pair
    assert g == h
    eg, eh = embed_planar(g), embed_planar(h)
    assert eg.rotation == eh.rotation
    assert _artifact_texts(eg) == _artifact_texts(eh)

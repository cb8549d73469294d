import pytest

from layersep.embedding import (
    EmbeddedGraph,
    embed_planar,
    format_rotation_system,
    parse_rotation_system,
    tree_cotree,
    triangulate,
)
from layersep.generators import (
    complete_graph,
    grid_graph,
    k33_graph,
    k5_graph,
    random_planar_triangulation,
    toroidal_grid,
)
from layersep.graphs import GraphInputError


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
        tree = tc.primal_tree
        assert {v for v, d in tree.depth.items() if d == 0} == set(roots)
        assert all(tree.parent[r] == roots[0] for r in roots[1:])
        assert all(roots[0] in tree.path_to_root(v) for v in range(n))


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


def test_random_triangulation_is_triangulation():
    for seed in (0, 1, 2):
        eg = random_planar_triangulation(25, seed=seed)
        assert eg.euler_genus == 0
        assert all(len(f) == 3 for f in eg.faces)
        # 2n - 4 faces and 3n - 6 edges for a planar triangulation
        assert len(eg.faces) == 2 * eg.n - 4
        assert len(eg.edge_list) == 3 * eg.n - 6

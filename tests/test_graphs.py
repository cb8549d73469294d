from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.generators import Lcg, cycle_graph, grid_graph, path_graph, random_tree
from layersep.graphs import (
    Graph,
    GraphInputError,
    Layering,
    Separation,
    bfs_layering,
    format_graph,
    format_layering,
    parse_graph,
    parse_layering,
    separator_layer_widths,
    validate_layering,
    validate_separation,
)


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = Lcg(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.is_clique([1, 2]) and not g.is_clique([0, 2])
    assert g.is_clique([])


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphInputError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(GraphInputError):
        Graph.from_edges(2, [(1, 1)])


def test_induced_relabels():
    g = cycle_graph(5)
    sub, to_new = g.induced([1, 2, 3])
    assert sub.n == 3
    assert sub.has_edge(to_new[1], to_new[2])
    assert not sub.has_edge(to_new[1], to_new[3])


def test_components():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    comps = sorted(g.components(), key=min)
    assert comps == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]


def test_bfs_layering_path():
    g = path_graph(5)
    layering, tree = bfs_layering(g, [0])
    assert layering.layers == (
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
    )
    assert tree.path_to_root(4) == frozenset({0, 1, 2, 3, 4})


def test_bfs_layering_unreachable():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(GraphInputError):
        bfs_layering(g, [0])


def test_validate_layering_rejects_long_edge():
    g = path_graph(3)
    bad = Layering.from_sets([{0, 2}, {1}])  # fine: both edges consecutive
    assert validate_layering(g, bad).ok
    bad2 = Layering.from_sets([{0}, {1, 2}])
    assert validate_layering(g, bad2).ok
    bad3 = Layering.from_sets([{1}, {0}, {2}])  # edge (1,2) spans two layers
    assert not validate_layering(g, bad3).ok


def test_validate_separation_balance_and_edges():
    g = path_graph(5)  # separator {2} splits 0,1 | 3,4
    s = Separation(frozenset({0, 1, 2}), frozenset({2, 3, 4}))
    assert validate_separation(g, s, range(5)).ok
    # an edge between the strict sides is caught
    g2 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert not validate_separation(g2, s, range(5)).ok
    # a lopsided split violates the 2/3 balance
    s2 = Separation(frozenset({0, 1, 2, 3, 4}), frozenset({4}))
    assert not validate_separation(g, s2, range(5), balance=Fraction(2, 3)).ok


def test_separator_layer_widths():
    g = path_graph(5)
    layering, _ = bfs_layering(g, [0])
    s = Separation(frozenset({0, 1, 2}), frozenset({2, 3, 4}))
    assert separator_layer_widths(s, layering) == {2: 1}


def test_graph_format_roundtrip():
    g = grid_graph(3, 4)
    assert parse_graph(format_graph(g)) == g
    assert format_graph(g).startswith("12 17\n")


def test_layering_format_roundtrip():
    g = grid_graph(3, 3)
    layering, _ = bfs_layering(g, [0])
    assert parse_layering(format_layering(layering)) == layering
    gappy = Layering((frozenset({0}), frozenset(), frozenset({2})))
    assert parse_layering(format_layering(gappy)) == gappy
    assert format_layering(Layering(())) == ""


@st.composite
def layerings(draw):
    """Up to 6 layers over up to 20 vertices, any of them empty, the last
    ones and a lone one included, and no layer at all."""
    t = draw(st.integers(0, 6))
    layer_of = draw(st.lists(st.integers(0, t - 1), max_size=20)) if t else []
    return Layering(tuple(
        frozenset(v for v, i in enumerate(layer_of) if i == j) for j in range(t)
    ))


@settings(max_examples=200, deadline=None)
@given(layerings())
def test_layering_text_round_trips(layering):
    text = format_layering(layering)
    assert parse_layering(text) == layering
    assert format_layering(parse_layering(text)) == text


def test_parse_layering_rejects_garbage():
    for text in ("0 x\n", "0\n1 2.5\n"):
        with pytest.raises(GraphInputError):
            parse_layering(text)


def test_parse_graph_rejects_garbage():
    with pytest.raises(GraphInputError):
        parse_graph("not a graph")
    with pytest.raises(GraphInputError):
        parse_graph("2 1\n0 5\n")


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 5))
def test_bfs_layering_valid_on_random_trees(n, seed):
    g = random_tree(n, seed)
    layering, _ = bfs_layering(g, [0])
    assert validate_layering(g, layering).ok
    # every edge joins consecutive layers in a tree BFS
    lo = layering.layer_of
    assert all(abs(lo[u] - lo[v]) == 1 for u, v in g.edges)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 4))
def test_layering_covers_vertices(n, seed):
    g = random_graph(n, min(n, 2 * n - 3), seed)
    comp = sorted(g.components(), key=min)[0]
    sub, _ = g.induced(sorted(comp))
    layering, _ = bfs_layering(sub, [0])
    assert set().union(*layering.layers) == set(range(sub.n))

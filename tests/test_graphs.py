from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.generators import Lcg, cycle_graph, grid_graph, path_graph, random_tree
from layersep.graphs import (
    Graph,
    GraphInputError,
    Layering,
    Report,
    Separation,
    _ints,
    bfs_layering,
    format_graph,
    format_layering,
    parse_graph,
    parse_layering,
    separator_layer_widths,
    validate_layering,
    validate_separation,
)
from tests.conftest import changed_text, read_or_reject, small_graphs


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.integers(0, 40), st.integers(0, 10**6), st.sets(st.integers(-2, 15)))
def test_induced_keeps_the_edges_inside_the_part(n, m, seed, vs):
    # the part's adjacency gives the edges the whole edge scan gives;
    # ids outside 0..n-1 become isolated vertices
    g = random_graph(n, min(m, n * (n - 1) // 2), seed)
    sub, to_new = g.induced(sorted(vs))
    assert list(to_new) == sorted(vs) and sub.n == len(vs)
    assert sub.edges == {(to_new[u], to_new[v]) for u, v in g.subgraph_edges(vs)}


def test_components():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    comps = sorted(g.components(), key=min)
    assert comps == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]


def test_bfs_layering_path():
    g = path_graph(5)
    layering = bfs_layering(g, [0])
    assert layering.layers == (
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
    )


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
    layering = bfs_layering(g, [0])
    s = Separation(frozenset({0, 1, 2}), frozenset({2, 3, 4}))
    assert separator_layer_widths(s, layering) == {2: 1}


def test_graph_format_roundtrip():
    g = grid_graph(3, 4)
    assert parse_graph(format_graph(g)) == g
    assert format_graph(g).startswith("12 17\n")


def test_layering_format_roundtrip():
    g = grid_graph(3, 3)
    layering = bfs_layering(g, [0])
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


_LAYER_TOKENS = ("0", "1", "7", "12", "-1", "00", "+2", "1.5", "x", ":", "")


@settings(max_examples=300, deadline=None)
@given(small_graphs(), layerings(), st.data())
def test_layering_text_changes_raise_or_validate(g, layering, data):
    """Every single-token or single-line change of a layering text raises
    ``GraphInputError`` or reads to a layering ``validate_layering``
    judges; no other exception escapes."""
    text = format_layering(layering)
    assert parse_layering(text) == layering
    if text:
        changed = changed_text(data, text, _LAYER_TOKENS)
        got = read_or_reject(parse_layering, lambda lay: validate_layering(g, lay), changed)
        assert got is None or isinstance(got, Report)


def test_parse_layering_rejects_garbage():
    for text in ("0 x\n", "0\n1 2.5\n"):
        with pytest.raises(GraphInputError):
            parse_layering(text)


def test_parse_graph_rejects_garbage():
    with pytest.raises(GraphInputError):
        parse_graph("not a graph")
    with pytest.raises(GraphInputError):
        parse_graph("2 1\n0 5\n")


def _per_line_parse_graph(text: str) -> Graph:
    """Oracle for ``parse_graph``: the per-line read it replaced, which
    merges a repeated edge silently."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GraphInputError("empty graph file")
    n, m = _ints(lines[0], "header line", 2)
    if len(lines) - 1 != m:
        raise GraphInputError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = [tuple(_ints(ln, "edge line", 2)) for ln in lines[1:]]
    return Graph.from_edges(n, edges)


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphInputError as exc:
        return str(exc)


@pytest.mark.parametrize("text, message", [
    ("", "empty graph file"),
    ("3\n", "bad header line '3'"),
    ("3 2\n0 1\n", "expected 2 edge lines, got 1"),
    ("3 2\n0 1\n1 x\n", "bad edge line '1 x'"),
    ("3 2\n0 1\n1 2 0\n", "bad edge line '1 2 0'"),
    ("-1 0\n", "vertex count must be non-negative"),
    ("3 2\n0 1\n2 2\n", "self-loop at vertex 2"),
    ("3 2\n0 1\n1 3\n", "edge (1,3) out of range for n=3"),
    ("3 2\n0 1\n-1 2\n", "edge (-1,2) out of range for n=3"),
])
def test_parse_graph_names_the_bad_line_like_the_per_line_read(text, message):
    assert _outcome(parse_graph, text) == _outcome(_per_line_parse_graph, text) == message


def test_parse_graph_rejects_a_repeated_edge():
    # the per-line read merged the two lines into one edge under a
    # header that declares two
    assert _per_line_parse_graph("2 2\n0 1\n1 0\n").m == 1
    with pytest.raises(GraphInputError, match="'1 0'"):
        parse_graph("2 2\n0 1\n1 0\n")
    with pytest.raises(GraphInputError, match="'2  4'"):
        parse_graph("5 3\n2 4\n0 1\n2  4\n")


def test_parse_graph_hands_over_ascending_lines_as_sorted_edges():
    g = random_graph(30, 60, seed=4)
    text = format_graph(g)
    assert parse_graph(text).__dict__["sorted_edges"] == g.sorted_edges
    lines = text.splitlines()
    shuffled = "\n".join(lines[:1] + [" ".join(ln.split()[::-1]) for ln in lines[:0:-1]])
    back = parse_graph(shuffled)
    assert "sorted_edges" not in back.__dict__
    assert back == g and back.sorted_edges == g.sorted_edges


@st.composite
def graph_texts(draw):
    """A graph's text as ``format_graph`` writes it, and the graph."""
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = Graph.from_edges(n, edges)
    return format_graph(g), g


@settings(max_examples=200, deadline=None)
@given(graph_texts())
def test_graph_text_round_trips(case):
    text, g = case
    back = parse_graph(text)
    assert back == g and back.sorted_edges == g.sorted_edges == tuple(sorted(g.edges))
    assert format_graph(back) == text


@st.composite
def graph_text_mutants(draw):
    """A graph text with one token changed, a line deleted, repeated,
    reversed, moved or written over another edge line, or a blank line or
    a token added."""
    text, _ = draw(graph_texts())
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["token", "delete", "repeat", "reverse", "move", "copy", "blank", "extra"]))
    if kind == "token":
        toks = lines[i].split()
        j = draw(st.integers(0, len(toks) - 1))
        toks[j] = draw(st.sampled_from(["-1", "x", "1.5", "", "00", "+2"])
                       | st.integers(-2, 16).map(str))
        lines[i] = " ".join(toks)
    elif kind == "delete":
        del lines[i]
    elif kind == "repeat":
        lines.insert(draw(st.integers(1, len(lines))), lines[i])
    elif kind == "reverse":
        lines[i] = " ".join(lines[i].split()[::-1])
    elif kind == "move":
        if i:
            lines.insert(draw(st.integers(1, len(lines))), lines.pop(i))
    elif kind == "copy":
        if i:
            lines[draw(st.integers(1, len(lines) - 1))] = lines[i]
    elif kind == "blank":
        lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
    else:
        lines[i] += " " + str(draw(st.integers(0, 9)))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@settings(max_examples=500, deadline=None)
@given(graph_text_mutants())
def test_graph_text_mutations_raise_or_read_like_the_oracle(text):
    """Every text either raises ``GraphInputError`` or reads as the
    per-line oracle's graph, with its edges in ascending order; a text the
    oracle reads is refused only for a repeated edge."""
    got = _outcome(parse_graph, text)
    want = _outcome(_per_line_parse_graph, text)
    if isinstance(got, Graph):
        assert got == want and got.sorted_edges == tuple(sorted(got.edges))
    elif isinstance(want, Graph):
        assert "repeated edge" in got and want.m < int(text.split()[1])
    else:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 5))
def test_bfs_layering_valid_on_random_trees(n, seed):
    g = random_tree(n, seed)
    layering = bfs_layering(g, [0])
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
    layering = bfs_layering(sub, [0])
    assert set().union(*layering.layers) == set(range(sub.n))

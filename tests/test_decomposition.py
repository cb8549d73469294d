import gc
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.decomposition import (
    DecompositionError,
    LayeredDecomposition,
    _BagView,
    _RootPaths,
    _bag_count,
    _balanced_sides,
    _is_core_line,
    _walk,
    TreeDecomposition,
    clique_sum_compose,
    format_decomposition,
    format_layered_decomposition,
    genus_layered_decomposition,
    layered_separation,
    norin_treewidth,
    parse_decomposition,
    parse_layered_decomposition,
    planar_good_provider,
    separator_from_decomposition,
    treedec_from_separations,
    validate_tree_decomposition,
)
from layersep.embedding import _rotation_from_faces, embed_planar, tree_cotree, triangulate
from layersep.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    k5_graph,
    random_chordal_with_decomposition,
    random_planar_triangulation,
    random_tree,
    toroidal_grid,
    v8_graph,
)
from layersep.graphs import (
    Graph,
    GraphInputError,
    Layering,
    Report,
    bfs_layering,
    format_graph,
    format_layering,
    parse_graph,
    parse_layering,
    validate_layering,
    validate_separation,
    separator_layer_widths,
)
from layersep.shadow import RichDecomposition, format_rich, parse_rich
from tests.conftest import changed_text, embedded_graphs, planar_pipeline, root_path, torus_pipeline
from tests.oracles import (
    bound_report,
    decomposition_separation_oracle,
    exact_treewidth,
    small_good_provider,
)


def _tree_adjacency(td):
    """Each bag's neighbours over ``td.tree_edges``, ascending."""
    adj = {i: [] for i in range(len(td.bags))}
    for x, y in td.tree_edges:
        adj[x].append(y)
        adj[y].append(x)
    return {i: sorted(ns) for i, ns in adj.items()}


def _scan_validate_tree_decomposition(g, td):
    """Oracle for ``validate_tree_decomposition``: list each vertex's bags,
    test edge coverage by scanning them and subtree connectivity by a
    search over the tree edges."""
    violations = []
    b = len(td.bags)
    if b == 0:
        return Report.of(["decomposition has no bags"])
    if len(td.tree_edges) != b - 1:
        violations.append(f"tree has {len(td.tree_edges)} edges for {b} bags")
    seen = {0}
    stack = [0]
    adj = _tree_adjacency(td)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != b:
        violations.append("decomposition tree is disconnected")
        return Report.of(violations)
    where = {}
    for i, bag in enumerate(td.bags):
        for v in bag:
            where.setdefault(v, []).append(i)
    for v in sorted(where):
        if not 0 <= v < g.n:
            violations.append(f"vertex {v} in bag {where[v][0]} is not in G")
    for u, v in sorted(g.edges):
        if not any(u in td.bags[i] for i in where.get(v, ())):
            violations.append(f"edge ({u},{v}) covered by no bag")
    for v in g.vertices():
        nodes = where.get(v)
        if not nodes:
            violations.append(f"vertex {v} in no bag")
            continue
        nodeset = set(nodes)
        comp = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in nodeset and y not in comp:
                    comp.add(y)
                    stack.append(y)
        if comp != nodeset:
            violations.append(f"bags of vertex {v} are not a subtree")
    return Report.of(violations)


def _rest_validate_tree_decomposition(g, td):
    """Oracle: ``validate_tree_decomposition`` as it read the bags before
    deltas, as their core and each bag's rest: in preorder, a bag's new
    vertices are one set difference of its rest with its parent's."""
    violations = []
    bags = tuple(td.bags)
    b = len(bags)
    if b == 0:
        return Report.of(["decomposition has no bags"])
    if len(td.tree_edges) != b - 1:
        violations.append(f"tree has {len(td.tree_edges)} edges for {b} bags")
    adj = _tree_adjacency(td)
    parent, order, seen, stack = [-1] * b, [], {0}, [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                stack.append(y)
    if len(order) != b:
        violations.append("decomposition tree is disconnected")
        return Report.of(violations)
    core = bags[0].intersection(*bags[1:])
    rest = [bag - core for bag in bags]
    path, top, spread, missed = [], {}, set(), set()
    for x in order:
        while path and path[-1] != parent[x]:
            path.pop()
        new = rest[x] - rest[path[-1]] if path else core | rest[x]
        path.append(x)
        for v in new:
            if v in top:
                spread.add(v)
                continue
            top[v] = x
            if 0 <= v < g.n:
                for w in g.adjacency[v]:
                    if w not in rest[x] and w in top and w not in core:
                        missed.update(((v, w), (w, v)))
    where = {v: [i for i in range(b) if v in rest[i]] for v in spread}
    for v in sorted(v for v in top if not 0 <= v < g.n):
        first = 0 if v in core else next(i for i in range(b) if v in rest[i])
        violations.append(f"vertex {v} in bag {first} is not in G")
    for u, v in g.sorted_edges:
        if v in where:
            covered = u in core or any(u in rest[i] for i in where[v])
        elif u in where:
            covered = v in core or any(v in rest[i] for i in where[u])
        else:
            covered = u in top and v in top and (u, v) not in missed
        if not covered:
            violations.append(f"edge ({u},{v}) covered by no bag")
    for v in g.vertices():
        if v not in top:
            violations.append(f"vertex {v} in no bag")
        elif v in where:
            nodes = set(where[v])
            comp, stack = {where[v][0]}, [where[v][0]]
            while stack:
                for y in adj[stack.pop()]:
                    if y in nodes and y not in comp:
                        comp.add(y)
                        stack.append(y)
            if comp != nodes:
                violations.append(f"bags of vertex {v} are not a subtree")
    return Report.of(violations)


def _rest_top_bag(td):
    """Oracle: each vertex's first bag in preorder, every bag scanned."""
    order = td.rooted[1]
    top = {}
    for x in order:
        for v in td.bags[x]:
            top.setdefault(v, x)
    return top


@settings(max_examples=150, deadline=None)
@given(
    embedded_graphs,
    st.sampled_from(("none", "drop_vertex", "add_vertex", "drop_edge", "add_edge", "move_edge")),
    st.integers(0, 10**6),
)
def test_validate_tree_decomposition_matches_scan(eg, mutation, pick):
    g = eg.to_graph()
    td = genus_layered_decomposition(eg, (0,)).ld.decomposition
    bags = list(td.bags)
    edges = set(td.tree_edges)
    b = len(bags)
    i, j = pick % b, (pick // b) % b
    if mutation == "drop_vertex":
        bags[i] = bags[i] - {sorted(bags[i])[pick % len(bags[i])]}
    elif mutation == "add_vertex":
        bags[i] = bags[i] | {pick % (g.n + 2)}
    elif mutation in ("drop_edge", "move_edge") and edges:
        edges.discard(sorted(edges)[pick % len(edges)])
    if mutation in ("add_edge", "move_edge") and i != j:
        edges.add((min(i, j), max(i, j)))
    mutated = TreeDecomposition(tuple(bags), frozenset(edges))
    expected = _scan_validate_tree_decomposition(g, mutated)
    assert validate_tree_decomposition(g, mutated) == expected
    if mutation == "none":
        assert expected.ok


@settings(max_examples=60, deadline=None)
@given(
    embedded_graphs,
    st.sampled_from(("none", "uncovered_edge", "drop_edge", "add_edge", "move_edge")),
    st.integers(0, 10**6),
)
def test_validate_root_path_bags_matches_explicit_copy(eg, mutation, pick):
    # root-path bags are read as Q and each face's walk outside it; the
    # report is the one on the same bags held as a tuple
    g = eg.to_graph()
    td = genus_layered_decomposition(eg, (0,)).ld.decomposition
    bags = tuple(td.bags)
    edges = set(td.tree_edges)
    b = len(bags)
    i, j = pick % b, (pick // b) % b
    if mutation == "uncovered_edge":
        # an edge from u to a vertex sharing no bag with u, or to a new one
        u = pick % g.n
        near = frozenset().union(*(bag for bag in bags if u in bag))
        v = next((w for w in g.vertices() if w not in near), g.n)
        g = Graph.from_edges(max(g.n, v + 1), g.edges | {(min(u, v), max(u, v))})
    elif mutation in ("drop_edge", "move_edge") and edges:
        edges.discard(sorted(edges)[pick % len(edges)])
    if mutation in ("add_edge", "move_edge") and i != j:
        edges.add((min(i, j), max(i, j)))
    lazy = TreeDecomposition(td.bags, frozenset(edges))
    explicit = TreeDecomposition(bags, frozenset(edges))
    rep = validate_tree_decomposition(g, lazy)
    assert rep == validate_tree_decomposition(g, explicit)
    assert rep == _scan_validate_tree_decomposition(g, explicit)
    if mutation in ("none", "uncovered_edge"):
        assert rep.ok == (mutation == "none")


def test_validate_tree_decomposition_path():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2})), ((0, 1),)
    )
    assert validate_tree_decomposition(g, td).ok
    # missing edge coverage
    bad = TreeDecomposition((frozenset({0, 1}), frozenset({2})), ((0, 1),))
    assert not validate_tree_decomposition(g, bad).ok
    # broken connectivity: vertex 1 in bags 0 and 2 but not 1
    bad2 = TreeDecomposition(
        (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})),
        ((0, 1), (1, 2)),
    )
    assert not validate_tree_decomposition(g, bad2).ok


def test_validate_tree_decomposition_catches_vertex_outside_graph():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    td = TreeDecomposition(
        (frozenset({0, 1, 99}), frozenset({1, 2})), ((0, 1),)
    )
    rep = validate_tree_decomposition(g, td)
    assert not rep.ok
    assert any("99" in v and "not in G" in v for v in rep.violations)


def test_planar_pipeline_width_bounds():
    for n in (10, 30, 80):
        g, res, _, _ = planar_pipeline(n)
        assert res.genus == 0
        assert validate_tree_decomposition(g, res.ld.decomposition).ok
        assert validate_layering(g, res.ld.layering).ok
        assert res.ld.layered_width <= 3


def test_genus_pipeline_torus_bounds():
    for p, q in ((3, 3), (4, 5), (5, 6)):
        g, res, _, _ = torus_pipeline(p, q)
        assert res.genus == 2
        assert validate_tree_decomposition(g, res.ld.decomposition).ok
        assert res.ld.layered_width <= 2 * res.genus + 3
        assert res.restricted_width <= 3
        assert all(c <= 2 * res.genus for c in res.q_per_layer().values())


def test_genus_pipeline_k4():
    res = genus_layered_decomposition(embed_planar(complete_graph(4)), (0,))
    g = complete_graph(4)
    assert validate_tree_decomposition(g, res.ld.decomposition).ok
    assert res.ld.layered_width <= 3


def test_genus_decomposition_rooted_at_four_clique():
    # every root path ends at vertex 0, so the bag of face 1-2-3 holds all
    # of K = layer 0: layered width |K| = 4 > 2g+3 = 3
    g = complete_graph(4)
    res = genus_layered_decomposition(embed_planar(g), (0, 1, 2, 3))
    assert res.ld.layering.layers[0] == {0, 1, 2, 3}
    assert validate_tree_decomposition(g, res.ld.decomposition).ok
    assert validate_layering(g, res.ld.layering).ok
    assert res.ld.layered_width == 4
    # a stacked triangulation starts from the K4 on 0..3; the layers
    # below it keep their 2g+3 bound
    eg = random_planar_triangulation(30, seed=1)
    big = eg.to_graph()
    res = genus_layered_decomposition(eg, (0, 1, 2, 3))
    assert validate_tree_decomposition(big, res.ld.decomposition).ok
    assert res.ld.layered_width == 4
    assert res.ld.restricted_to(set(range(4, big.n))).layered_width <= 3


# SHA-256 prefixes of the formatted layered decomposition plus the sorted
# apex set Q, rooted at vertex 0 (planar: (n, seed); torus: (p, q)).
_GENUS_DIGESTS = (
    (("planar", 5, 0), "6b6a1daa2a884247"),
    (("planar", 5, 1), "5a007991a7fbb12b"),
    (("planar", 5, 2), "97bdebac2cce0814"),
    (("planar", 5, 3), "f134d782224c60d8"),
    (("planar", 30, 0), "82a3f4b47fe86dce"),
    (("planar", 30, 1), "3a345ea3e56b044e"),
    (("planar", 30, 2), "85676281bde32915"),
    (("planar", 30, 3), "74cd7c94163775b0"),
    (("planar", 80, 0), "232cf4c0f736a883"),
    (("planar", 80, 1), "d26e51d83aefe6a9"),
    (("planar", 80, 2), "ea1352e1a3ef90ee"),
    (("planar", 80, 3), "d3f2224c47c32f6c"),
    (("planar", 150, 0), "103e6b2f6f710e5a"),
    (("planar", 150, 1), "b7a76663980e661e"),
    (("planar", 150, 2), "491ee9d396276939"),
    (("planar", 150, 3), "fa9faadb872e4804"),
    (("planar", 300, 0), "73eb8d7a4246dc44"),
    (("planar", 300, 1), "d5e92e19c246a9bf"),
    (("planar", 300, 2), "ed756de372a4ce07"),
    (("planar", 300, 3), "7ffd533f4698e280"),
    (("torus", 3, 3), "d1066d7ce36b5657"),
    (("torus", 4, 4), "b6e2f69eca75b415"),
    (("torus", 6, 6), "cdb7fd937a4660d1"),
    (("torus", 9, 9), "580fe634ae86c0f2"),
    (("torus", 12, 12), "37c3584513b12ca1"),
    (("torus", 3, 5), "55ae1c8832453011"),
)


def test_genus_decomposition_output_pinned():
    for (kind, a, b), digest in _GENUS_DIGESTS:
        if kind == "planar":
            eg = random_planar_triangulation(a, seed=b)
        else:
            eg = toroidal_grid(a, b)
        res = genus_layered_decomposition(eg, (0,))
        apex = " ".join(map(str, sorted(res.apex_paths)))
        text = format_layered_decomposition(res.ld) + apex + "\n"
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (kind, a, b)


# SHA-256 prefixes of the decoded value for the inputs of _GENUS_DIGESTS:
# each bag sorted, in bag order, the sorted tree edges, each layer sorted,
# and the sorted apex set Q.  They do not depend on the text format.
_GENUS_VALUE_DIGESTS = (
    (("planar", 5, 0), "317418fcb69787c1"),
    (("planar", 5, 1), "4f24f5bd84b99046"),
    (("planar", 5, 2), "eccf630ea44f3a30"),
    (("planar", 5, 3), "de91ae0db0221acd"),
    (("planar", 30, 0), "daef519da9d3bd4a"),
    (("planar", 30, 1), "c404eb941b9ddeb4"),
    (("planar", 30, 2), "11788281e787b4cf"),
    (("planar", 30, 3), "445bdd80c0e06da6"),
    (("planar", 80, 0), "2b55a58debab7cac"),
    (("planar", 80, 1), "37dc72d2a9e84f9b"),
    (("planar", 80, 2), "91fe96df7ceefb41"),
    (("planar", 80, 3), "e9c1c7b7e04e1779"),
    (("planar", 150, 0), "1c71a14ef4b9466f"),
    (("planar", 150, 1), "3090a86d2fd9940d"),
    (("planar", 150, 2), "aed3521ad520154a"),
    (("planar", 150, 3), "2c829725a47df1c2"),
    (("planar", 300, 0), "7c528bcdfbe237d4"),
    (("planar", 300, 1), "973149a84dbbe799"),
    (("planar", 300, 2), "714f0c0b9ca857bd"),
    (("planar", 300, 3), "a930211262cbe650"),
    (("torus", 3, 3), "8e6ddaf1ec06a9f9"),
    (("torus", 4, 4), "a989aa6237584678"),
    (("torus", 6, 6), "739a79ac0969e042"),
    (("torus", 9, 9), "9c7077a405a36568"),
    (("torus", 12, 12), "dae517cc4be4ce01"),
    (("torus", 3, 5), "8261c23dc6b55b41"),
)


def test_genus_decomposition_values_pinned():
    """The decoded values behind the pinned texts, read back from them."""
    for (kind, a, b), digest in _GENUS_VALUE_DIGESTS:
        eg = random_planar_triangulation(a, seed=b) if kind == "planar" else toroidal_grid(a, b)
        res = genus_layered_decomposition(eg, (0,))
        ld = parse_layered_decomposition(format_layered_decomposition(res.ld))
        value = (
            tuple(tuple(sorted(bag)) for bag in ld.decomposition.bags),
            tuple(sorted(ld.decomposition.tree_edges)),
            tuple(tuple(sorted(layer)) for layer in ld.layering.layers),
            tuple(sorted(res.apex_paths)),
        )
        assert hashlib.sha256(repr(value).encode()).hexdigest()[:16] == digest, (kind, a, b)


@settings(max_examples=40, deadline=None)
@given(embedded_graphs, st.data())
def test_genus_decomposition_clique_roots(eg, data):
    """An edge or triangle root seeds the BFS directly: layer 0 is the
    clique and every bound of the single-vertex root still holds."""
    g = eg.to_graph()
    u, v = data.draw(st.sampled_from(sorted(g.edges)))
    root = [u, v]
    common = sorted(set(g.adjacency[u]) & set(g.adjacency[v]))
    if common and data.draw(st.booleans()):
        root.append(data.draw(st.sampled_from(common)))
    res = genus_layered_decomposition(eg, root)
    assert validate_tree_decomposition(g, res.ld.decomposition).ok
    assert validate_layering(g, res.ld.layering).ok
    assert res.ld.layering.layers[0] == frozenset(root)
    assert res.ld.layered_width <= 2 * res.genus + 3
    assert res.restricted_width <= 3
    assert all(c <= 2 * res.genus for c in res.q_per_layer().values())


def _explicit_genus_bags(eg, root):
    """Oracle: the bags of ``genus_layered_decomposition`` built as it
    once stored them, one frozenset Q | P(x) | P(y) | P(z) per face from
    a frozenset root path per vertex."""
    tri = triangulate(eg)
    tc = tree_cotree(tri, sorted(set(root)))
    paths = {v: root_path(tc.parent, v) for v in range(tri.n)}
    q: set[int] = set()
    for e in tc.extra_edges:
        a, b = tri.edge_list[e]
        q |= paths[a] | paths[b]
    bags = []
    for walk in tri.faces:
        x, y, z = (tri.dart_tail(d) for d in walk)
        bags.append(frozenset(q | paths[x] | paths[y] | paths[z]))
    return tuple(bags)


@settings(max_examples=60, deadline=None)
@given(embedded_graphs, st.data())
def test_root_path_bags_match_explicit_oracle(eg, data):
    g = eg.to_graph()
    u, v = data.draw(st.sampled_from(sorted(g.edges)))
    common = sorted(set(g.adjacency[u]) & set(g.adjacency[v]))
    root = data.draw(st.sampled_from([[u], [u, v]] + [[u, v, w] for w in common[:1]]))
    res = genus_layered_decomposition(eg, root)
    td = res.ld.decomposition
    bags = _explicit_genus_bags(eg, root)
    explicit = LayeredDecomposition(
        TreeDecomposition(bags, td.tree_edges), res.ld.layering
    )
    assert tuple(td.bags) == bags and td.bags == bags and bags == td.bags
    assert len(td.bags) == len(bags) and td.bags[-1] == bags[-1]
    with pytest.raises(IndexError):
        td.bags[len(bags)]
    assert td == explicit.decomposition
    assert td.top_bag == explicit.decomposition.top_bag
    assert res.ld.layered_width == explicit.layered_width
    assert td.width == explicit.decomposition.width
    assert format_decomposition(td) == format_decomposition(explicit.decomposition)
    assert format_layered_decomposition(res.ld) == format_layered_decomposition(explicit)
    sample = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    sep = layered_separation(g, res.ld, sample)
    assert sep == layered_separation(g, explicit, sample)


@settings(max_examples=60, deadline=None)
@given(embedded_graphs, st.data())
def test_root_path_deltas_are_the_explicit_bag_differences(eg, data):
    """Each bag's change from its parent, one walk per side, is the
    difference of the explicit bags, with no vertex twice, from roots of
    one, two and three vertices."""
    g = eg.to_graph()
    u, v = data.draw(st.sampled_from(sorted(g.edges)))
    common = sorted(set(g.adjacency[u]) & set(g.adjacency[v]))
    root = data.draw(st.sampled_from([[u], [u, v]] + [[u, v, w] for w in common[:1]]))
    td = genus_layered_decomposition(eg, root).ld.decomposition
    explicit = TreeDecomposition(_explicit_genus_bags(eg, root), td.tree_edges)
    core, adds, drops = td.deltas
    assert explicit.forest == td.forest and core == explicit.core
    for got, want in zip((adds, drops), explicit.deltas[1:]):
        assert list(map(frozenset, got)) == list(want)
        assert sum(map(len, got)) == sum(map(len, want))


@pytest.mark.parametrize(
    "eg, root",
    [
        (random_planar_triangulation(60, seed=4), (0,)),
        (random_planar_triangulation(60, seed=4), (0, 1)),
        (random_planar_triangulation(60, seed=4), (0, 1, 2)),
        (toroidal_grid(6, 7), (0,)),
        (toroidal_grid(6, 7), (0, 1)),
        (toroidal_grid(5, 3), (0, 1, 2)),  # a row of the 5 x 3 torus is a triangle
    ],
)
def test_root_path_bag_lines_match_explicit_lines(eg, root):
    """The spliced bag lines equal the lines of the explicit bags byte for
    byte, with Q empty (planar) and Q non-empty (tori)."""
    res = genus_layered_decomposition(eg, root)
    assert bool(res.ld.decomposition._paths.q) == (res.genus > 0)
    explicit = LayeredDecomposition(
        TreeDecomposition(_explicit_genus_bags(eg, root), res.ld.decomposition.tree_edges),
        res.ld.layering,
    )
    assert format_decomposition(res.ld.decomposition) == format_decomposition(
        explicit.decomposition
    )
    assert format_layered_decomposition(res.ld) == format_layered_decomposition(explicit)


def _scan_layered_width(ld):
    """Oracle: the layered width counted bag by bag, every vertex of every
    bag looked up in its layer."""
    best = 0
    for bag in ld.decomposition.bags:
        counts = {}
        for v in bag:
            i = ld.layering.layer_of[v]
            counts[i] = counts.get(i, 0) + 1
        best = max(best, max(counts.values(), default=0))
    return best


@st.composite
def _explicit_layered_decompositions(draw, kind):
    """Explicit bag tuples on a random layering: with no vertex common to
    all bags, with an empty bag, a single bag, with a shared core, and
    restrictions and parsed copies of genus decompositions."""
    if kind in ("restricted", "parsed"):
        eg = draw(embedded_graphs)
        ld = genus_layered_decomposition(eg, (0,)).ld
        if kind == "parsed":
            return parse_layered_decomposition(format_layered_decomposition(ld))
        return ld.restricted_to(draw(st.sets(st.integers(0, eg.n - 1))))
    n = draw(st.integers(2, 12))
    vertex = st.integers(0, n - 1)
    layer_of = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    layering = Layering(tuple(frozenset(v for v in range(n) if layer_of[v] == i) for i in range(4)))
    size = 1 if kind == "single" else draw(st.integers(2, 6))
    bags = draw(st.lists(st.frozensets(vertex, max_size=n), min_size=size, max_size=size))
    if kind == "disjoint":
        bags.append(frozenset(range(n)) - bags[0])
    elif kind == "empty":
        bags.insert(draw(st.integers(0, len(bags))), frozenset())
    elif kind == "core":
        core = draw(st.frozensets(vertex, min_size=1))
        bags = [bag | core for bag in bags]
    return LayeredDecomposition(TreeDecomposition(tuple(bags), frozenset()), layering)


@pytest.mark.parametrize("kind", ["disjoint", "empty", "single", "core", "restricted", "parsed"])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_layered_width_matches_bag_scan(kind, data):
    ld = data.draw(_explicit_layered_decompositions(kind))
    bags = ld.decomposition.bags
    if kind in ("disjoint", "empty"):
        assert not frozenset.intersection(*bags)
    assert ld.layered_width == _scan_layered_width(ld)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.builds(random_planar_triangulation, st.integers(3, 120), st.integers(0, 10**6)),
        st.builds(
            lambda p, q: triangulate(toroidal_grid(p, q)), st.integers(3, 8), st.integers(3, 8)
        ),
    ),
    st.data(),
)
def test_genus_decomposition_of_a_triangulation_matches_rebuilt_copy(eg, data):
    """``triangulate`` hands a triangulation back as it is; the result
    equals that of the copy it once rebuilt from the faces."""
    copy = _rotation_from_faces(eg.n, list(eg.edge_list), [list(w) for w in eg.faces])
    assert copy is not eg and copy.faces == eg.faces
    g = eg.to_graph()
    u, v = data.draw(st.sampled_from(sorted(g.edges)))
    common = sorted(set(g.adjacency[u]) & set(g.adjacency[v]))
    root = data.draw(st.sampled_from([[u], [u, v]] + [[u, v, w] for w in common[:1]]))
    res, ref = genus_layered_decomposition(eg, root), genus_layered_decomposition(copy, root)
    assert tuple(res.ld.decomposition.bags) == tuple(ref.ld.decomposition.bags)
    assert res.ld.decomposition.tree_edges == ref.ld.decomposition.tree_edges
    assert res.ld.layering == ref.ld.layering
    assert res.apex_paths == ref.apex_paths
    assert format_layered_decomposition(res.ld) == format_layered_decomposition(ref.ld)


def _retained_bytes(build):
    """(result, bytes still allocated once ``build()`` returned)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = build()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_root_path_bags_retain_a_tenth_of_explicit_bags():
    eg = toroidal_grid(30, 30)
    res, lazy = _retained_bytes(lambda: genus_layered_decomposition(eg, (0,)))
    bags, explicit = _retained_bytes(lambda: _explicit_genus_bags(eg, (0,)))
    assert res.ld.decomposition.bags == bags
    assert lazy < explicit / 10, (lazy, explicit)


def test_separator_balance_and_layer_widths():
    g, res, _, _ = planar_pipeline(60)
    sample = frozenset(range(g.n))
    sep = layered_separation(g, res.ld, sample)
    rep = validate_separation(
        g, sep, sample, balance=Fraction(2, 3), layering=res.ld.layering
    )
    assert rep.ok
    widths = separator_layer_widths(sep, res.ld.layering)
    assert all(w <= res.ld.layered_width for w in widths.values())


def test_separator_from_decomposition_subsample():
    g, res, _, _ = planar_pipeline(40)
    sample = frozenset(range(0, g.n, 3))
    idx, sep = separator_from_decomposition(g, res.ld.decomposition, sample)
    assert 0 <= idx < len(res.ld.decomposition.bags)
    assert validate_separation(g, sep, sample).ok
    assert sep.intersection <= res.ld.decomposition.bags[idx]


@settings(max_examples=30, deadline=None)
@given(embedded_graphs, st.data())
def test_separator_from_decomposition_random_samples(eg, data):
    g = eg.to_graph()
    td = genus_layered_decomposition(eg, (0,)).ld.decomposition
    sample = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    idx, sep = separator_from_decomposition(g, td, sample)
    assert validate_separation(g, sep, sample, balance=Fraction(2, 3)).ok
    assert sep.intersection <= td.bags[idx]


def test_reed_converse_width():
    g, res, _, _ = planar_pipeline(40)
    k = res.ld.decomposition.width + 1
    oracle = decomposition_separation_oracle(g, res.ld.decomposition)
    td = treedec_from_separations(g, oracle, k)
    assert validate_tree_decomposition(g, td).ok
    assert td.width <= 4 * k - 1


def test_norin_treewidth_bound():
    for n in (20, 60, 120):
        g, res, _, _ = planar_pipeline(n)
        td = norin_treewidth(g, res.ld)
        assert validate_tree_decomposition(g, td).ok
        assert td.width <= 2 * math.sqrt(res.ld.layered_width * g.n)


def test_exact_treewidth_oracle():
    assert exact_treewidth(grid_graph(3, 3)) == 3
    assert exact_treewidth(complete_graph(4)) == 3
    assert exact_treewidth(cycle_graph(5)) == 2
    assert exact_treewidth(path_graph := Graph.from_edges(1, [])) == 0
    del path_graph


def test_bound_report_fields():
    g, res, _, _ = planar_pipeline(30)
    rep = bound_report(g, res.ld)
    ell = res.ld.layered_width
    assert rep.ell == ell
    assert rep.edge_bound == (3 * ell - 1) * g.n
    assert rep.edge_bound_ok
    assert rep.tw_bound_diameter == ell * (rep.diameter + 1) - 1
    assert rep.local_treewidth(2) == ell * 5 - 1
    assert rep.norin_bound == pytest.approx(2 * math.sqrt(ell * g.n))


def test_clique_sum_v8_keeps_width_three():
    g1, res, _, _ = planar_pipeline(30)
    g2 = v8_graph()
    provider = small_good_provider(g2, 3)
    # sum over an edge of the triangulation and an edge of V8
    u, v = next(iter(g1.edges))
    g, ld, vmap = clique_sum_compose(g1, res.ld, g2, provider, [(u, 0), (v, 1)])
    assert g.n == g1.n + g2.n - 2
    assert validate_tree_decomposition(g, ld.decomposition).ok
    assert validate_layering(g, ld.layering).ok
    assert ld.layered_width <= 3
    assert g.has_edge(vmap[2], vmap[3])


def test_clique_sum_k5_width_four():
    g1, res, _, _ = planar_pipeline(20)
    g2 = k5_graph()
    provider = small_good_provider(g2, 4)
    u, v = next(iter(g1.edges))
    g, ld, _ = clique_sum_compose(g1, res.ld, g2, provider, [(u, 0), (v, 1)])
    assert validate_tree_decomposition(g, ld.decomposition).ok
    assert ld.layered_width <= 4


def test_clique_sum_deleted_edges():
    g1, res, _, _ = planar_pipeline(20)
    g2 = complete_graph(4)
    provider = small_good_provider(g2, 3)
    u, v = next(iter(g1.edges))
    g, _, _ = clique_sum_compose(
        g1, res.ld, g2, provider, [(u, 0), (v, 1)], deleted_edges=[(u, v)]
    )
    assert not g.has_edge(u, v)


def test_planar_good_provider_triangle():
    g = random_planar_triangulation(15, seed=3).to_graph()
    provider = planar_good_provider(g)
    u, v = min(g.edges)
    w = min(x for x in g.adjacency[u] if g.has_edge(x, v))
    tri = (u, v, w)
    ld = provider(tri)
    assert validate_tree_decomposition(g, ld.decomposition).ok
    assert ld.layered_width <= 3
    # the requested clique sits in the first layer
    assert set(tri) <= ld.layering.layers[0]


def test_decomposition_format_roundtrip():
    g, res, _, _ = planar_pipeline(15)
    td = res.ld.decomposition
    assert parse_decomposition(format_decomposition(td)) == td
    back = parse_layered_decomposition(format_layered_decomposition(res.ld))
    assert back == res.ld


def test_parse_decomposition_rejects_garbage():
    for text in (
        "bogus\n",
        "bags x\ntree\n",
        "bags 1\n0: 0 y\ntree\n",
        "bags 2\n0: 0\n1: 1\ntree\n0 z\n",
        # a disconnected 3-bag tree (one edge) followed by layers 0 / 1 2:
        # the layer line "0" sits where the second tree edge is expected
        "bags 3\n0: 0\n1: 1\n2: 2\ntree\n0 1\n0\n1 2\n",
    ):
        with pytest.raises(GraphInputError):
            parse_decomposition(text)
        with pytest.raises(GraphInputError):
            parse_layered_decomposition(text)


def test_parse_decomposition_parses_each_token_once():
    td = parse_decomposition(
        "bags 3\n0: 300 301\n1: 301 302\n2: 302 300\ntree\n0 1\n1 2\n"
    )
    assert td.bags == tuple(map(frozenset, ({300, 301}, {301, 302}, {300, 302})))
    # equal tokens share one int object
    assert len({id(v) for bag in td.bags for v in bag}) == 3
    # a bad token raises on its line, also after good tokens were cached
    # and when it recurs on a later line
    for text, line in (
        ("bags 2\n0: 300 301\n1: 301 3x\ntree\n0 1\n", "1: 301 3x"),
        ("bags 2\n0: 300 3x\n1: 3x 301\ntree\n0 1\n", "0: 300 3x"),
        ("bags 2\n0: 300 301\n1: 300 -\ntree\n0 1\n", "1: 300 -"),
    ):
        with pytest.raises(GraphInputError, match=repr(line)):
            parse_decomposition(text)
        with pytest.raises(GraphInputError, match=repr(line)):
            parse_layered_decomposition(text + "0 1\n")
    # the layer lines share the bag lines' table; a line with a signed
    # token is read as int reads it, and the messages are the layering's
    text = "bags 3\n0: 300 301\n1: 301 302\n2: 302 300\n"
    ld = parse_layered_decomposition(text + "300 301\n302\n+303\n")
    assert ld.layering.layers == tuple(map(frozenset, ({300, 301}, {302}, {303})))
    in_bags = {id(v) for bag in ld.decomposition.bags for v in bag}
    assert in_bags == {id(v) for layer in ld.layering.layers for v in layer if v != 303}
    for layers, message in (
        ("300 3x\n302\n", "bad layer line '300 3x'"),
        ("300 -\n302\n", "bad layer line '300 -'"),
        ("300 301\n302 300\n", "vertex 300 in layers 0 and 1"),
    ):
        with pytest.raises(GraphInputError, match=message):
            parse_layered_decomposition(text + layers)


def test_layered_decomposition_roundtrip_keeps_empty_layers():
    # restricted_to leaves interior and last layers empty; their indices
    # must survive
    td = TreeDecomposition((frozenset({0}), frozenset({0, 2})), frozenset({(0, 1)}))
    for layers in ([[0], [], [2]], [[], [0], [], [], [2]], [[0, 2], [], []]):
        ld = LayeredDecomposition(td, Layering(tuple(map(frozenset, layers))))
        assert parse_layered_decomposition(format_layered_decomposition(ld)) == ld
    g, res, _, _ = planar_pipeline(15)
    last = len(res.ld.layering) - 1
    for gone in (1, last):
        keep = [v for v in g.vertices() if res.ld.layering.layer_of[v] != gone]
        ld = res.ld.restricted_to(keep)
        assert not ld.layering.layers[gone]
        assert parse_layering(format_layering(ld.layering)) == ld.layering
        assert parse_layered_decomposition(format_layered_decomposition(ld)) == ld


def _old_text(td, core=False):
    """Oracle: the decomposition text as written before parent fields:
    every bag listed on an "x: ..." line, less the core on a core line if
    ``core``, then "tree" and the tree edges."""
    bags = tuple(td.bags)
    common = bags[0].intersection(*bags[1:]) if core and bags else frozenset()
    lines = [f"bags {len(bags)}"]
    if common:
        lines.append("core: " + " ".join(map(str, sorted(common))))
    lines += [f"{i}: " + " ".join(map(str, sorted(bag - common))) for i, bag in enumerate(bags)]
    lines.append("tree")
    lines += [f"{x} {y}" for x, y in sorted(td.tree_edges)]
    return "\n".join(lines) + "\n"


@st.composite
def _bag_trees(draw):
    """Explicit bags joined by a random tree or forest, with or without
    a shared core, including no bag, a single bag and empty bags, on a
    layering with up to two empty layers at its end."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    bags = draw(st.lists(st.frozensets(vertex, max_size=n), max_size=7))
    if draw(st.booleans()):
        core = draw(st.frozensets(vertex, min_size=1))
        bags = [bag | core for bag in bags]
    forest = draw(st.booleans())
    edges = frozenset(
        (draw(st.integers(0, i - 1)), i)
        for i in range(1, len(bags))
        if not (forest and draw(st.booleans()))
    )
    layer_of = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    t = max(layer_of) + 1 + draw(st.integers(0, 2))
    layers = tuple(frozenset(v for v in range(n) if layer_of[v] == i) for i in range(t))
    return LayeredDecomposition(TreeDecomposition(tuple(bags), edges), Layering(layers))


@settings(max_examples=150, deadline=None)
@given(_bag_trees())
def test_decomposition_text_round_trips(ld):
    td = ld.decomposition
    text, layered = format_decomposition(td), format_layered_decomposition(ld)
    core = frozenset.intersection(*td.bags) if td.bags else frozenset()
    assert ("\ncore: " in text) == bool(core) and "tree" not in text
    back = parse_decomposition(text)
    assert back == td and format_decomposition(back) == text
    assert back.core == td.core == core
    back_ld = parse_layered_decomposition(layered)
    assert back_ld == ld and format_layered_decomposition(back_ld) == layered
    assert back_ld.layered_width == ld.layered_width == _scan_layered_width(ld)
    assert back.width == td.width == max(map(len, td.bags), default=0) - 1
    # the texts written before parent fields, with and without a core
    # line, parse to the same value; a layered one reads B - 1 tree edges
    tree = len(td.tree_edges) == max(len(td.bags) - 1, 0)
    for old in (_old_text(td), _old_text(td, core=True)):
        assert parse_decomposition(old) == back
        assert format_decomposition(parse_decomposition(old)) == text
        if tree:
            assert parse_layered_decomposition(old + format_layering(ld.layering)) == ld
    if td.bags and tree:
        assert back.top_bag == td.top_bag == _rest_top_bag(td)


def _check_walk(td):
    """``_walk`` hands each bag, once, its parent's state: a set that,
    changed by the bag's deltas, is the bag less the core, and a list of
    the bags above it.  Each bag also leaves a marker, a negative number
    no later bag removes, in the set, so a bag that saw a sibling's
    change would hold that sibling's marker."""
    core, adds, drops = td.deltas
    parent = td.forest[0]

    def above(x):
        return [] if parent[x] < 0 else [*above(parent[x]), parent[x]]

    seen = []
    for (x, state), (y, path) in zip(
        _walk(*td.forest, td._links, set()), _walk(*td.forest, td._links, [])
    ):
        assert x == y and path == above(x)
        p = parent[x]
        assert state == (td.bags[p] - core if p >= 0 else set()) | {-1 - a for a in path}
        state.difference_update(drops[x])
        state.update(adds[x])
        assert {v for v in state if v >= 0} == td.bags[x] - core
        state.add(-1 - x)
        path.append(x)
        seen.append(x)
    assert sorted(seen) == list(range(len(td.bags)))


@settings(max_examples=100, deadline=None)
@given(_bag_trees())
def test_walk_hands_each_bag_its_parents_bag(ld):
    td = ld.decomposition
    _check_walk(td)
    if td._non_forest is None:
        _check_walk(parse_decomposition(format_decomposition(td)))


def test_walk_on_several_trees_and_a_bag_of_four_children():
    bags = tuple(map(frozenset, ({0, 1, 2, 3}, {0, 4}, {1, 5}, {2, 6}, {3, 7}, {8, 9}, {9, 10}, {11})))
    td = TreeDecomposition(bags, {(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)})
    parent = td.forest[0]
    assert parent.count(-1) == 3 and parent.count(0) == 4
    _check_walk(td)
    _check_walk(parse_decomposition(format_decomposition(td)))
    # root paths: the dual tree of a triangulation branches
    for eg in (toroidal_grid(5, 6), random_planar_triangulation(60, seed=2)):
        td = genus_layered_decomposition(eg, (0,)).ld.decomposition
        assert td._paths is not None and max(map(td.forest[0].count, range(len(td.bags)))) >= 2
        _check_walk(td)


def test_parse_decomposition_moves_common_vertices_into_the_core():
    """A core line need not hold every common vertex; the value is what
    counts, and it is written back with the whole core."""
    td = parse_decomposition("bags 2\ncore: 301\n0: 302 303\n1: 302\ntree\n0 1\n")
    assert td.bags == (frozenset({301, 302, 303}), frozenset({301, 302}))
    assert format_decomposition(td) == "bags 2\ncore: 301 302\n0: 303\n1 < 0: \n"
    # equal tokens share one int object, in the core and the bag lines
    assert len({id(v) for bag in td.bags for v in bag}) == 3
    td = parse_decomposition("bags 1\ncore:\n0: 4\ntree\n")
    assert td == TreeDecomposition.single_bag([4])
    assert format_decomposition(td) == "bags 1\ncore: 4\n0: \n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("bags 2\ncore: 1 2\n0: 3\n1: 2 4\ntree\n0 1\n", "1: 2 4"),  # repeats a core vertex
        ("bags 2\ncore: 1\n0: 3\ncore: 2\ntree\n0 1\n", "core: 2"),  # a second core line
        ("bags 2\n0: 3\ncore: 1\n1: 4\ntree\n0 1\n", "core: 1"),  # after a bag line
        ("bags 0\ncore: 1\ntree\n", "core: 1"),  # the core of no bags
        ("bags 1\ncore: 1 x\n0: 3\ntree\n", "core: 1 x"),
    ],
)
def test_parse_decomposition_rejects_bad_core_lines(text, line):
    with pytest.raises(GraphInputError, match=repr(line)):
        parse_decomposition(text)
    with pytest.raises(GraphInputError, match=repr(line)):
        parse_layered_decomposition(text + "1 2 3 4\n")


@settings(max_examples=30, deadline=None)
@given(embedded_graphs)
def test_parsed_core_bags_check_like_explicit_bags(eg):
    """Validation, width, ``top_bag`` and layered width read a parsed
    decomposition as core and rests, with the results of its explicit
    bags, also against G with an uncovered edge and a vertex in no bag,
    and against G less a bag vertex."""
    g = eg.to_graph()
    res = genus_layered_decomposition(eg, (0,))
    ld = parse_layered_decomposition(format_layered_decomposition(res.ld))
    td = ld.decomposition
    explicit = tuple(res.ld.decomposition.bags)
    assert td.bags == explicit
    assert td.core == res.ld.decomposition.core == frozenset.intersection(*explicit)
    flat = TreeDecomposition(explicit, td.tree_edges)
    last = g.n - 1
    for h in (
        g,
        Graph.from_edges(g.n + 1, g.edges | {(0, g.n)}),
        Graph.from_edges(last, {e for e in g.edges if last not in e}),
    ):
        got = validate_tree_decomposition(h, td)
        assert got == validate_tree_decomposition(h, flat)
        assert got.ok == (h is g)
    assert td.width == flat.width and td.top_bag == flat.top_bag
    assert ld.layered_width == _scan_layered_width(ld) == res.ld.layered_width


def test_parsed_core_bags_retain_under_half_of_explicit_parse():
    """A parsed text keeps each bag as its change from its parent: under
    a third of the core and one rest frozenset per bag that a text with a
    core line was kept as, which is itself under half of one frozenset
    per bag."""
    res = genus_layered_decomposition(toroidal_grid(30, 30), (0,))
    text = format_decomposition(res.ld.decomposition)
    parsed, delta_bytes = _retained_bytes(lambda: parse_decomposition(text))
    bags = tuple(parsed.bags)
    core = frozenset.intersection(*bags)
    _, rest_bytes = _retained_bytes(lambda: (core - {-1}, tuple(bag - core for bag in bags)))
    _, flat_bytes = _retained_bytes(lambda: tuple(bag - {-1} for bag in bags))
    assert parsed == res.ld.decomposition and parsed.core == core
    assert rest_bytes < flat_bytes / 2, (rest_bytes, flat_bytes)
    assert delta_bytes < rest_bytes / 3, (delta_bytes, rest_bytes)


@pytest.mark.parametrize(
    "eg", [toroidal_grid(7, 6), random_planar_triangulation(80, seed=2)], ids=["torus", "planar"]
)
def test_layered_width_ceiling_holds_only_under_its_premise(eg):
    """With the BFS layering every parent is one layer up, so the ceiling
    applies and bounds the scan; on a layering from another vertex the
    premise fails and every bag is counted."""
    res = genus_layered_decomposition(eg, (0,))
    paths = res.ld.decomposition._paths
    ceiling = paths.layer_ceiling(res.ld.layering.layer_of)
    assert ceiling is not None and res.ld.layered_width == _scan_layered_width(res.ld) <= ceiling
    g = eg.to_graph()
    other = LayeredDecomposition(res.ld.decomposition, bfs_layering(g, [g.n - 1]))
    assert paths.layer_ceiling(other.layering.layer_of) is None
    assert other.layered_width == _scan_layered_width(other)


@pytest.mark.parametrize(
    "text", ["bags 1\n0: 0 5\n0\n", "bags 1\n0: 0 5\ntree\n0\n"], ids=["parent", "tree"]
)
def test_layered_width_names_a_bag_vertex_in_no_layer(text):
    """Vertex 5 is in the bag but in no layer: in the parent-field and the
    older ``tree`` text form alike, the width raises ``GraphInputError``."""
    ld = parse_layered_decomposition(text)
    with pytest.raises(GraphInputError, match="bag vertex 5 lies in no layer"):
        ld.layered_width


def test_layered_width_ceiling_counts_a_large_root_clique():
    """Root paths from a four-vertex root clique K meet only layer 0, and
    the face opposite the least root has all of K in its bag: the
    ceiling is |K|."""
    corners = [0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3]
    paths = _RootPaths([0, 0, 0, 0], [0, 0, 0, 0], corners, frozenset(), [-1, 0, 0, 0])
    td = TreeDecomposition._of(paths.core, paths=paths)
    assert td.tree_edges == {(0, 1), (0, 2), (0, 3)}
    ld = LayeredDecomposition(td, Layering((frozenset(range(4)),)))
    assert td._paths.layer_ceiling(ld.layering.layer_of) == 4
    assert ld.layered_width == _scan_layered_width(ld) == 4


@pytest.mark.parametrize(
    "eg", [toroidal_grid(8, 8), random_planar_triangulation(200, seed=1)], ids=["torus", "planar"]
)
def test_construction_recursion_and_separation_build_no_deltas_and_no_bag_list(eg, monkeypatch):
    """The genus construction, the labelling recursion and a layered
    separation read root paths only through ``outside``, the top ranks
    and the layer ceiling: they never derive the deltas and never build
    every bag."""
    from layersep.layouts import pipeline

    def refuse(*args):
        raise AssertionError("root-path deltas or every bag were built")

    monkeypatch.setattr(_RootPaths, "deltas", refuse)
    monkeypatch.setattr(_BagView, "__iter__", refuse)
    g, res, labels, _ = pipeline(eg)
    assert len(labels.depth) == g.n
    sep = layered_separation(g, res.ld, g.vertices())
    assert validate_separation(g, sep, g.vertices(), layering=res.ld.layering).ok


@pytest.mark.parametrize(
    "eg, root",
    [
        (random_planar_triangulation(60, seed=4), (0,)),
        (random_planar_triangulation(60, seed=4), (0, 1)),
        (random_planar_triangulation(60, seed=4), (0, 1, 2)),
        (toroidal_grid(6, 7), (0,)),
        (toroidal_grid(6, 7), (0, 1)),
        (toroidal_grid(5, 3), (0, 1, 2)),
    ],
)
def test_genus_forest_is_the_search_over_its_tree_edges(eg, root):
    """The forest read off the dual tree's parent list, turned over at
    bag 0, is the one the public constructor's search finds over the
    same tree's edges."""
    td = genus_layered_decomposition(eg, root).ld.decomposition
    dual_parent = tree_cotree(triangulate(eg), root).dual_parent
    edges = frozenset((min(f, p), max(f, p)) for f, p in enumerate(dual_parent) if p >= 0)
    assert td.tree_edges == edges
    assert td.forest == TreeDecomposition(tuple(td.bags), edges).forest


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=12), st.data())
def test_balanced_sides_greedy_within_two_thirds(weights, data):
    """Greedy placement alone keeps both sides within 2/3 whenever every
    weight is at most half the total."""
    low = max(sum(weights), 2 * max(weights, default=0), 1)
    total = data.draw(st.integers(low, low + 40))
    side1, side2 = _balanced_sides(weights, total)
    assert sorted(side1 + side2) == list(range(len(weights)))
    for side in (side1, side2):
        assert 3 * sum(weights[i] for i in side) <= 2 * total


def test_recursion_reports_a_bad_halving_bag_as_a_layout_error():
    """On the path 0-1-2-3 with bags {0}, {3}, {1}, {2} on the bag path
    0-1-2-3, the halving bag of the whole sample leaves a component of
    weight 3: the recursion's own 2/3 check, a construction failure,
    reports it, not the grouping."""
    from layersep.layouts import LayoutError, compute_recursion

    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    td = TreeDecomposition(tuple(map(frozenset, ([0], [3], [1], [2]))), [(0, 1), (1, 2), (2, 3)])
    layering = Layering((frozenset(range(4)),))
    with pytest.raises(LayoutError, match="separation child exceeds 2/3 of the sample"):
        compute_recursion(g, layering, LayeredDecomposition(td, layering))


def test_separator_rejects_empty_sample():
    from layersep.graphs import GraphInputError

    g, res, _, _ = planar_pipeline(15)
    with pytest.raises(GraphInputError):
        separator_from_decomposition(g, res.ld.decomposition, [])


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 16), st.integers(0, 4))
def test_tree_has_width_one_pipeline(n, seed):
    g = random_tree(n, seed)
    layering = bfs_layering(g, [0])
    td = TreeDecomposition(
        tuple(frozenset(e) for e in sorted(g.edges)),
        tuple((i, i + 1) for i in range(len(g.edges) - 1)),
    )
    # a path of edge-bags is generally not a valid decomposition of a
    # tree, so fall back to the exact oracle for the width claim
    assert exact_treewidth(g) == 1
    del td, layering


def test_exact_treewidth_never_exceeds_constructive():
    for n in (10, 14, 16):
        eg = random_planar_triangulation(n, seed=7)
        g = eg.to_graph()
        res = genus_layered_decomposition(eg, (0,))
        assert exact_treewidth(g) <= res.ld.decomposition.width


# ---------------------------------------------------------------------------
# Delta-coded texts: older forms, forests, oracles and mutations.
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"


def test_older_texts_parse_like_their_new_texts():
    """Texts written before parent fields (tests/fixtures): the planar
    n = 30 seed 1 and 6 x 6 torus decompositions rooted at vertex 0 (with
    a core line), a chordal decomposition on its BFS layering (without
    one) and a rich decomposition.  Each parses to the value built today,
    and to the value of the text written from it."""
    planar = parse_graph((FIXTURES / "planar30.txt").read_text())
    chordal, td = random_chordal_with_decomposition(40, 3, max_clique=4)
    assert (FIXTURES / "chordal40.txt").read_text() == format_graph(chordal)
    built = {
        "planar30.dec": genus_layered_decomposition(embed_planar(planar), (0,)).ld,
        "torus6.dec": genus_layered_decomposition(toroidal_grid(6, 6), (0,)).ld,
        "chordal40.dec": LayeredDecomposition(td, bfs_layering(chordal, [0])),
    }
    for name, ld in built.items():
        text = (FIXTURES / name).read_text()
        assert ("\ncore: " in text) == (name != "chordal40.dec") and "\ntree\n" in text
        old = parse_layered_decomposition(text)
        new = format_layered_decomposition(old)
        assert old == ld == parse_layered_decomposition(new)
        assert new == format_layered_decomposition(ld) and len(new) < len(text)
    g = planar
    for name in ("planar30.dec", "chordal40.dec"):
        old = parse_layered_decomposition((FIXTURES / name).read_text())
        assert validate_tree_decomposition(g, old.decomposition).ok
        g = chordal
    text = (FIXTURES / "chordal30.rich").read_text()
    rd = parse_rich(text)
    assert rd == RichDecomposition(random_chordal_with_decomposition(30, 5, max_clique=4)[1])
    assert parse_rich(format_rich(rd)) == rd and rd.richness == 3


def _forest_ld():
    """Three bags and one tree edge, on three layers."""
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({3})), frozenset({(0, 1)})
    )
    return LayeredDecomposition(td, Layering((frozenset({0}), frozenset({1, 3}), frozenset({2}))))


def test_disconnected_layered_decomposition_round_trips():
    """A bag forest round-trips: the parent fields say which bags have
    none, so no layer line is read as a tree edge."""
    ld = _forest_ld()
    text = format_layered_decomposition(ld)
    assert text == "bags 3\n0: 0 1\n1 < 0: 1 2\n2: 3\n0\n1 3\n2\n"
    back = parse_layered_decomposition(text)
    assert back == ld and format_layered_decomposition(back) == text
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    rep = validate_tree_decomposition(g, back.decomposition)
    assert rep.violations == ("tree has 1 edges for 3 bags", "decomposition tree is disconnected")
    assert back.layered_width == 1 and back.decomposition.width == 1
    with pytest.raises(DecompositionError, match="disconnected"):
        back.decomposition.top_bag


def test_parse_layered_decomposition_rejects_a_vertex_in_two_layers():
    """A layer line copied below itself puts each of its vertices in two
    layers; parsing names the least one and both layers."""
    _, res, _, _ = planar_pipeline(30)
    lines = format_layered_decomposition(res.ld).splitlines()
    i = len(lines) - len(res.ld.layering) + 1  # layer 1
    lines.insert(i + 1, lines[i])
    v = min(res.ld.layering.layers[1])
    with pytest.raises(GraphInputError, match=f"^vertex {v} in layers 1 and 2$"):
        parse_layered_decomposition("\n".join(lines) + "\n")


def test_negative_vertices_lie_in_no_bag():
    """Vertices are never negative: a bag built in code that holds one has
    no ``top_rank``, and a sample that holds one has no halving bag."""
    td = TreeDecomposition((frozenset({-1, 0}),), frozenset())
    with pytest.raises(DecompositionError, match="bag vertex -1 is negative"):
        td.top_rank
    g = Graph.from_edges(2, [(0, 1)])
    td = TreeDecomposition((frozenset({0, 1}),), frozenset())
    with pytest.raises(DecompositionError, match="sample vertex -1 appears in no bag"):
        separator_from_decomposition(g, td, [-1, 0, 1])


def test_format_decomposition_rejects_a_cyclic_bag_tree():
    td = TreeDecomposition(
        (frozenset({0}), frozenset({0}), frozenset({0})), frozenset({(0, 1), (1, 2), (0, 2)})
    )
    with pytest.raises(DecompositionError, match="cycle"):
        format_decomposition(td)


@pytest.mark.parametrize(
    "text, message",
    [
        ("bags 2\n0: 1\n1 < 0 + 1\n", "adds a vertex bag 0 holds"),
        ("bags 2\n0: 1\n1 < 0 - 2\n", "drops a vertex bag 0 lacks"),
        ("bags 2\n0: 1\n1 < 0 - 1 1\n", "drops a vertex bag 0 lacks"),
        ("bags 2\n0: 1\n1 < 0 + 2 2\n", "adds a vertex bag 0 holds"),
        ("bags 2\n0: 1\n1 < 0 + 1 - 1\n", "adds a vertex bag 0 holds"),
        ("bags 2\n0: 1\n1 < 0 + 2 - 2\n", "drops a vertex bag 0 lacks"),
        ("bags 2\ncore: 5\n0: 1\n1 < 0 + 5\n", "repeats a core vertex"),
        ("bags 2\ncore: 5\n0: 1\n1 < 0: 5\n", "repeats a core vertex"),
        ("bags 3\n0: 1\n1 < 2 + 2\n2 < 1 - 1\n", "cycle through bag 1"),
        ("bags 2\n0: 1\n1 < 1 + 2\n", "bad parent"),
        ("bags 2\n0: 1\n1 < 2 + 2\n", "bad parent"),
        ("bags 3\n0 < 1 + 3\n1 < 2: 1 2\n2: 2\n", "bag 2 is a root, but bag 0 is in its tree"),
        ("bags 2\n0: 1\n1 + 2\n", "bad bag line"),
        ("bags 2\n0: 1\n1 < 0 - 1 + 2\n", "bad bag line"),
        ("bags 2\n0: 1\n1 < 0: 2\ntree\n0 1\n", "no parent fields"),
        ("bags 2\n0: 1\n1 < 0\n0 1\n", "expected 'tree' or the end"),
        ("bags 2\n0: 1\n1 < 0: -1\n", "bad bag line"),
        ("bags 1\ncore: -1\n0: 1\n", "bad core line"),
    ],
)
def test_parse_decomposition_rejects_bad_bag_lines(text, message):
    with pytest.raises(GraphInputError, match=message):
        parse_decomposition(text)


def test_parse_decomposition_reads_listed_lines_under_a_parent():
    """A bag listed under its parent, and vertices in every bag outside
    the core line, give the value written back in canonical form."""
    td = parse_decomposition("bags 3\n0: 1 2 3\n1 < 0 - 3\n2 < 1: 2\n")
    assert tuple(td.bags) == (frozenset({1, 2, 3}), frozenset({1, 2}), frozenset({2}))
    assert td.tree_edges == frozenset({(0, 1), (1, 2)})
    assert format_decomposition(td) == "bags 3\ncore: 2\n0: 1 3\n1 < 0: 1\n2 < 1: \n"
    assert td == parse_decomposition(format_decomposition(td))
    g = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3)])
    assert validate_tree_decomposition(g, td) == _rest_validate_tree_decomposition(g, td)


@settings(max_examples=60, deadline=None)
@given(
    embedded_graphs,
    st.sampled_from(("none", "drop_vertex", "add_vertex", "uncovered_edge", "drop_edge",
                     "add_edge", "move_edge")),
    st.sampled_from(("root_path", "new_text", "old_text", "explicit")),
    st.integers(0, 10**6),
)
def test_delta_views_check_like_rest_oracles(eg, mutation, form, pick):
    """Validation, layered width, width and ``top_bag`` read bags as
    deltas; on root-path bags, new and older parsed texts and explicit
    bags, valid and mutated, they equal the rest-based and bag-scanning
    oracles, messages and their order included."""
    g = eg.to_graph()
    res = genus_layered_decomposition(eg, (0,))
    bags = list(res.ld.decomposition.bags)
    edges = set(res.ld.decomposition.tree_edges)
    b = len(bags)
    i, j = pick % b, (pick // b) % b
    if mutation == "drop_vertex" and form != "root_path" and bags[i]:
        bags[i] = bags[i] - {sorted(bags[i])[pick % len(bags[i])]}
    elif mutation == "add_vertex" and form != "root_path":
        bags[i] = bags[i] | {pick % (g.n + 2)}
    elif mutation == "uncovered_edge":
        u = pick % g.n
        near = frozenset().union(*(bag for bag in bags if u in bag))
        v = next((w for w in g.vertices() if w not in near), g.n)
        g = Graph.from_edges(max(g.n, v + 1), g.edges | {(min(u, v), max(u, v))})
    elif mutation in ("drop_edge", "move_edge") and edges:
        edges.discard(sorted(edges)[pick % len(edges)])
    if mutation in ("add_edge", "move_edge") and i != j:
        edges.add((min(i, j), max(i, j)))
    explicit = TreeDecomposition(tuple(bags), frozenset(edges))
    if form == "root_path":
        td = TreeDecomposition(res.ld.decomposition.bags, frozenset(edges))
    elif form == "old_text":
        td = parse_decomposition(_old_text(explicit, core=bool(pick % 2)))
    elif form == "new_text":
        parent, _ = explicit.forest
        if len(edges) != b - parent.count(-1):
            with pytest.raises(DecompositionError, match="cycle"):
                format_decomposition(explicit)
            return
        td = parse_decomposition(format_decomposition(explicit))
    else:
        td = explicit
    assert td == explicit
    rep = validate_tree_decomposition(g, td)
    assert rep == _rest_validate_tree_decomposition(g, explicit)
    assert rep == _scan_validate_tree_decomposition(g, explicit)
    if mutation == "none":
        assert rep.ok
    assert td.width == explicit.width
    layering = res.ld.layering
    if all(v in layering.layer_of for bag in bags for v in bag):
        ld = LayeredDecomposition(td, layering)
        assert ld.layered_width == _scan_layered_width(ld)
    if len(edges) == b - 1 and "decomposition tree is disconnected" not in rep.violations:
        assert td.top_bag == _rest_top_bag(explicit)


@pytest.mark.parametrize(
    "eg", [toroidal_grid(6, 7), random_planar_triangulation(60, seed=4)], ids=["torus", "planar"]
)
def test_root_path_deltas_along_any_tree(eg):
    """Faces joined in a star share few corners, so the walks up from
    one bag's corners meet above them; the deltas still read like the
    explicit bags, in the text, the checks and layered width."""
    g = eg.to_graph()
    res = genus_layered_decomposition(eg, (0,))
    bags = res.ld.decomposition.bags
    star = frozenset((0, f) for f in range(1, len(bags)))
    lazy, explicit = TreeDecomposition(bags, star), TreeDecomposition(tuple(bags), star)
    _, adds, drops = lazy.deltas
    assert all(len(set(a)) == len(a) for a in adds) and all(len(set(d)) == len(d) for d in drops)
    assert format_decomposition(lazy) == format_decomposition(explicit)
    assert validate_tree_decomposition(g, lazy) == _rest_validate_tree_decomposition(g, explicit)
    assert lazy.width == explicit.width and lazy.top_bag == _rest_top_bag(explicit)
    # a layering from the last vertex breaks the ceiling's premise
    ld = LayeredDecomposition(lazy, bfs_layering(g, [g.n - 1]))
    assert ld.layered_width == _scan_layered_width(ld)


_TOKENS = ("0", "1", "2", "7", "12", "-1", "<", "+", "-", ":", "core:", "tree", "bags", "x", "")


@settings(max_examples=400, deadline=None)
@given(_bag_trees(), st.data())
def test_decomposition_text_mutations_raise_or_check_like_the_oracle(ld, data):
    """Every single-token or single-line change of a layered text either
    raises ``GraphInputError`` or parses to a value that validation,
    width, layered width and ``top_bag`` judge as the oracles do on its
    explicit bags; no other exception escapes."""
    text = format_layered_decomposition(ld)
    if not text:
        return
    try:
        back = parse_layered_decomposition(changed_text(data, text, _TOKENS))
    except GraphInputError:
        return
    td = back.decomposition
    explicit = TreeDecomposition(tuple(td.bags), td.tree_edges)
    assert td == explicit
    n = max((v + 1 for bag in explicit.bags for v in bag), default=0)
    pairs = sorted({(u, v) for bag in ld.decomposition.bags for u in bag for v in bag if u < v})
    g = Graph.from_edges(max(n, 1), [e for e in pairs if e[1] < n])
    assert validate_tree_decomposition(g, td) == _rest_validate_tree_decomposition(g, explicit)
    assert td.width == explicit.width
    layers = back.layering.layers
    if sum(map(len, layers)) == len(frozenset().union(*layers)):  # else no layer_of
        if all(v in back.layering.layer_of for bag in explicit.bags for v in bag):
            assert back.layered_width == _scan_layered_width(back)
    if td.bags and len(td.tree_edges) == len(td.bags) - 1:
        assert td.top_bag == _rest_top_bag(explicit)


# ---------------------------------------------------------------------------
# The per-line reader as an oracle for the bulk reader.
# ---------------------------------------------------------------------------


def _per_line_parse_decomposition(text):
    """Oracle for ``parse_decomposition``: every line stripped, blank
    ones dropped, and each bag line partitioned on its own; the deltas
    are checked in one search of the forest with one running set."""
    return _per_line_decomposition(text.splitlines())


def _per_line_parse_layered_decomposition(text):
    """Oracle for ``parse_layered_decomposition``: the decomposition is
    the header, the core line if B > 0 and line 2 is one, and B bag
    lines, then in an older text "tree" and B - 1 tree edge lines; every
    line after it, blank or not, is a layer."""
    lines = text.splitlines()
    filled = [i for i, ln in enumerate(lines) if ln.strip()]
    b = _bag_count(lines[filled[0]] if filled else "")
    end = 1 + (b > 0 and len(filled) > 1 and _is_core_line(lines[filled[1]])) + b
    if len(filled) > end and lines[filled[end]].strip() == "tree":
        end += 1 + max(b - 1, 0)
    cut = filled[end - 1] + 1 if len(filled) >= end else len(lines)
    td = _per_line_decomposition(lines[:cut])
    return LayeredDecomposition(td, parse_layering("".join(ln + "\n" for ln in lines[cut:])))


class _PerLineTokenInts(dict):
    """``int(tok)`` per distinct token, parsed on its first lookup; a
    negative token raises ``ValueError``."""

    def __missing__(self, tok):
        v = int(tok)
        if v < 0:
            raise ValueError(f"negative token {tok!r}")
        self[tok] = v
        return v


def _per_line_decomposition(raw):
    lines = [ln for ln in (s.strip() for s in raw) if ln]
    b = _bag_count(lines[0] if lines else "")
    ints = _PerLineTokenInts().__getitem__
    core = frozenset()
    start = 1
    if b and len(lines) > 1 and _is_core_line(lines[1]):
        try:
            core = frozenset(map(ints, lines[1].partition(":")[2].split()))
        except ValueError as exc:
            raise GraphInputError(f"bad core line {lines[1]!r}") from exc
        start = 2
    if len(lines) < start + b:
        raise GraphInputError("truncated decomposition")
    body, tail = lines[start : start + b], lines[start + b :]
    parent = [-1] * b
    adds = [()] * b
    drops = [None] * b  # None: listed
    for x, ln in enumerate(body):
        head, listed, vs = ln.partition(":")
        if not listed:
            head, _, dropped = ln.partition("-")
            head, _, vs = head.partition("+")
        bag_id, child, up = head.partition("<")
        has_parent = bool(child) or not listed
        try:
            given = int(bag_id)
            if listed:
                adds[x] = frozenset(map(ints, vs.split()))
            else:
                adds[x] = tuple(map(ints, vs.split()))
                drops[x] = tuple(map(ints, dropped.split()))
            if has_parent:
                parent[x] = int(up)
        except ValueError as exc:
            what = "misplaced core" if head.strip() == "core" else "bad bag"
            raise GraphInputError(f"{what} line {ln!r}") from exc
        if given != x:
            raise GraphInputError(f"bag ids must be consecutive, got {bag_id.strip()!r}")
        if has_parent and not (0 <= parent[x] < b and parent[x] != x):
            raise GraphInputError(f"bad parent in bag line {ln!r}")
    if tail and tail[0] != "tree":
        raise GraphInputError(f"expected 'tree' or the end after the bag list, got {tail[0]!r}")
    if tail and parent.count(-1) < b:
        raise GraphInputError("a text with a tree block has no parent fields")
    core, order = _per_line_resolve_deltas(core, parent, adds, drops, body)
    if not tail:
        return TreeDecomposition._of(core, (parent, order), (adds, drops))
    edges = set()
    for ln in tail[1:]:
        try:
            x, y = map(ints, ln.split())
        except ValueError:
            x = y = -1
        if not (0 <= x < b and 0 <= y < b) or x == y:
            raise GraphInputError(f"bad tree edge {ln!r}")
        edges.add((x, y) if x < y else (y, x))
    return TreeDecomposition(map(core.union, adds), edges)


def _per_line_resolve_deltas(core, parent, adds, drops, lines):
    b = len(parent)
    chain = itertools.chain.from_iterable
    if core and not (core.isdisjoint(chain(adds)) and core.isdisjoint(chain(filter(None, drops)))):
        x = next(x for x in range(b) if not core.isdisjoint((*adds[x], *(drops[x] or ()))))
        raise GraphInputError(f"bag line {lines[x]!r} repeats a core vertex")
    kids = [[] for _ in range(b)]
    roots = []
    for x, p in enumerate(parent):
        (roots if p < 0 else kids[p]).append(x)
    order = []
    bag = set()  # the rest of the bag on top of path
    path = []
    for r in roots:
        start = len(order)
        stack = [r]
        while stack:
            x = stack.pop()
            order.append(x)
            stack.extend(kids[x])
            p = parent[x]
            while path and path[-1] != p:
                y = path.pop()
                bag.difference_update(adds[y])
                bag.update(drops[y])
            path.append(x)
            a, d = adds[x], drops[x]
            if d is None:
                adds[x], drops[x] = a.difference(bag), bag.difference(a)
                bag.difference_update(drops[x])
                bag.update(adds[x])
                continue
            k = len(bag)
            if d:
                bag.difference_update(d)
                if len(bag) + len(d) != k:
                    raise GraphInputError(f"bag line {lines[x]!r} drops a vertex bag {p} lacks")
                k -= len(d)
            if a:
                bag.update(a)
                if len(bag) != k + len(a) or d and not bag.isdisjoint(d):
                    raise GraphInputError(f"bag line {lines[x]!r} adds a vertex bag {p} holds")
        least = min(order[start:])
        if least != r:
            raise GraphInputError(f"bag {r} is a root, but bag {least} is in its tree")
    if len(order) < b:
        stuck = min(set(range(b)).difference(order))
        raise GraphInputError(f"bag parents form a cycle through bag {stuck}")
    common = set(adds[roots[0]]) if roots else set()
    for r in roots[1:]:
        common.intersection_update(adds[r])
    for d in drops:
        if not common:
            break
        common.difference_update(d)
    if common:
        core = core.union(common)
        for r in roots:
            adds[r] = tuple(v for v in adds[r] if v not in common)
    return core, order


def _read_outcome(parse, text):
    """The error message, or the value with its forest, core and deltas."""
    try:
        value = parse(text)
    except GraphInputError as exc:
        return str(exc)
    td = value.decomposition if isinstance(value, LayeredDecomposition) else value
    return value, td.forest, td.core, td.deltas


@st.composite
def _decomposition_texts(draw):
    """Layered texts: of ``_bag_trees``, of the genus decompositions of
    planar graphs and tori (with a core line), in the older tree-block
    form with or without a core line, and the fixtures."""
    kind = draw(st.sampled_from(("bag_trees", "genus", "older", "fixture")))
    if kind == "fixture":
        return (FIXTURES / draw(st.sampled_from(("planar30.dec", "torus6.dec", "chordal40.dec")))).read_text()
    if kind == "genus":
        return format_layered_decomposition(genus_layered_decomposition(draw(embedded_graphs), (0,)).ld)
    ld = draw(_bag_trees())
    if kind == "bag_trees":
        return format_layered_decomposition(ld)
    return _old_text(ld.decomposition, core=draw(st.booleans())) + format_layering(ld.layering)


@settings(max_examples=400, deadline=None)
@given(_decomposition_texts(), st.booleans(), st.data())
def test_bulk_reader_matches_the_per_line_oracle(text, change, data):
    """The bulk reader returns the per-line oracle's value, with equal
    forest, core and deltas, or raises its ``GraphInputError`` message,
    on every text and every single-token or single-line change of one;
    no other exception escapes."""
    if change:
        text = changed_text(data, text, _TOKENS)
    assert _read_outcome(parse_decomposition, text) == _read_outcome(_per_line_parse_decomposition, text)
    assert _read_outcome(parse_layered_decomposition, text) == _read_outcome(
        _per_line_parse_layered_decomposition, text
    )

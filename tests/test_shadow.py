import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep import shadow
from layersep.decomposition import TreeDecomposition
from layersep.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_chordal_with_decomposition,
    random_tree,
)
from layersep.graphs import Graph, GraphInputError, Layering, format_layering, parse_layering
from layersep.layouts import TrackLayout, format_track_layout, verify_track_layout
from layersep.nonrep import format_colouring, verify_nonrepetitive, verify_proper
from layersep.shadow import (
    _COLOURS,
    _TRACKS,
    RichDecomposition,
    ShadowError,
    _contract_redundant,
    _plan,
    _restrict_rd,
    format_rich,
    parse_rich,
    recursive_nonrep_driver,
    recursive_track_driver,
    rich_shadow_layering,
    shadow_track_bound,
    shadow_track_compose,
    validate_rich,
    validate_shadow_layering,
    verify_shadow_complete,
)
from tests.conftest import (
    changed_text,
    chordal_fixture,
    planar_colour_solver,
    planar_torso,
    planar_track_solver,
)


def edge_bag_rd(g: Graph) -> RichDecomposition:
    bags = tuple(frozenset(e) for e in sorted(g.edges))
    edges = []
    for i, b in enumerate(bags):
        if i == 0:
            continue
        hit = next((j for j in range(i) if bags[j] & b), 0)
        edges.append((hit, i))
    return RichDecomposition(TreeDecomposition(bags, tuple(edges)))


def test_tree_edge_bags_one_rich():
    g = random_tree(12, seed=1)
    rd = edge_bag_rd(g)
    assert rd.richness == 1
    assert validate_rich(g, rd, k=1).ok


def test_single_bag_zero_rich():
    g = complete_graph(4)
    rd = RichDecomposition(TreeDecomposition.single_bag(range(4)))
    assert rd.richness == 0
    assert validate_rich(g, rd, k=0).ok


def test_shadow_layering_of_tree():
    g = random_tree(15, seed=3)
    rd = edge_bag_rd(g)
    sl = rich_shadow_layering(g, rd)
    assert validate_shadow_layering(g, rd, sl).ok
    # shadows of a 1-rich decomposition are single vertices
    assert verify_shadow_complete(g, sl.layering, k=1).ok
    # each layer of a tree under edge bags induces an edgeless graph
    for layer in sl.layering.layers:
        assert not any(
            g.has_edge(u, v) for u in layer for v in layer if u < v
        )
    # layer 0 is the root alone
    assert sl.layering.layers[0] == frozenset({0})
    # per-layer decompositions are 0-rich
    assert all(pl.richness == 0 for pl in sl.per_layer)


def test_shadow_layering_chordal():
    for n, k in ((30, 3), (60, 4)):
        g, td = random_chordal_with_decomposition(n, seed=n, max_clique=k)
        rd = RichDecomposition(td)
        assert rd.richness <= k - 1
        sl = rich_shadow_layering(g, rd)
        assert validate_shadow_layering(g, rd, sl).ok
        assert verify_shadow_complete(g, sl.layering, rd.richness).ok
        assert all(
            pl.richness <= rd.richness - 1 for pl in sl.per_layer[1:]
        )


def test_verify_shadow_complete_c4_violation():
    # {1,3} is a suffix component whose shadow {0} union {2}... the
    # neighbourhood of component {2} in layer {1,3} is not a clique
    g = cycle_graph(4)
    layering = Layering.from_sets([{0}, {1, 3}, {2}])
    rep = verify_shadow_complete(g, layering, k=1)
    assert not rep.ok
    assert any("clique" in v or "size" in v for v in rep.violations)
    # with k=2 the size is fine but {1,3} is still not a clique
    assert not verify_shadow_complete(g, layering, k=2).ok


def test_verify_shadow_complete_requires_a_layering():
    g = path_graph(4)
    assert verify_shadow_complete(g, parse_layering("0\n1\n2\n3\n"), k=1).ok
    # layer 2 left empty: vertex 2 is uncovered
    gap = verify_shadow_complete(g, parse_layering("0\n1\n\n3\n"), k=1)
    assert not gap.ok
    assert any("uncovered vertex 2" in v for v in gap.violations)
    outside = verify_shadow_complete(g, parse_layering("0 99\n1\n2\n3\n"), k=1)
    assert not outside.ok
    assert any("99" in v for v in outside.violations)


def test_rich_shadow_layering_rejects_bad_input():
    g = cycle_graph(4)
    # a single bag is 0-rich; requesting a layering is fine, but an
    # invalid decomposition must be rejected
    bad = RichDecomposition(
        TreeDecomposition((frozenset({0, 1}), frozenset({2, 3})), ((0, 1),))
    )
    with pytest.raises(ShadowError):
        rich_shadow_layering(g, bad)
    with pytest.raises(GraphInputError):
        rich_shadow_layering(Graph.from_edges(0, []), RichDecomposition(
            TreeDecomposition.single_bag([])
        ))


def test_shadow_track_compose_tree():
    g = random_tree(20, seed=4)
    rd = edge_bag_rd(g)
    sl = rich_shadow_layering(g, rd)
    layer_tracks = [
        TrackLayout((tuple(sorted(layer)),)) for layer in sl.layering.layers
    ]
    tl = shadow_track_compose(g, sl.layering, layer_tracks, s=1)
    assert verify_track_layout(g, tl).ok
    assert len(tl.tracks) <= shadow_track_bound(1, 1)


def test_shadow_track_compose_single_layer_identity():
    g = complete_graph(3)
    layering = Layering.from_sets([{0, 1, 2}])
    inner = _TRACKS.leaf(g)
    tl = shadow_track_compose(g, layering, [inner], s=1)
    assert tl.tracks == inner.tracks


def test_shadow_track_bound_formula():
    assert shadow_track_bound(1, 1) == 6  # 3*1*(1 + C(1,1))
    assert shadow_track_bound(2, 1) == 18  # 3*2*(1 + C(2,1))
    assert shadow_track_bound(2, 2) == 24  # 3*2*(1 + 2 + 1)


def test_recursive_track_driver_chordal():
    for n, k in ((30, 3), (80, 4)):
        g, td = random_chordal_with_decomposition(n, seed=2 * n, max_clique=k)
        rd = RichDecomposition(td)
        tl = recursive_track_driver(g, rd)
        assert verify_track_layout(g, tl).ok


def test_recursive_nonrep_driver_chordal():
    g, td = random_chordal_with_decomposition(40, seed=11, max_clique=3)
    rd = RichDecomposition(td)
    c = recursive_nonrep_driver(g, rd)
    assert verify_proper(g, c).ok
    assert verify_nonrepetitive(g, c, max_path=g.n) is None


def _twin_trees():
    base = random_tree(8, seed=5)
    edges = list(base.edges) + [(u + 8, v + 8) for u, v in base.edges]
    g = Graph.from_edges(16, edges)
    return g, edge_bag_rd(g)


def test_rich_shadow_layering_rejects_disconnected_graph():
    # the drivers split G into its components before they layer it
    g, rd = _twin_trees()
    with pytest.raises(ShadowError, match="graph has 2 components"):
        rich_shadow_layering(g, rd)


def test_recursive_drivers_disconnected():
    g, rd = _twin_trees()
    tl = recursive_track_driver(g, rd)
    assert verify_track_layout(g, tl).ok
    c = recursive_nonrep_driver(g, rd)
    assert verify_proper(g, c).ok
    assert verify_nonrepetitive(g, c, max_path=g.n) is None


def _disjoint_cliques():
    """Cliques of sizes 1 to 5 on shuffled ids, one bag each, the bags on
    a path: a 0-rich decomposition of a disconnected graph."""
    ids = random.Random(0).sample(range(15), 15)
    bags, edges = [], []
    for size in range(1, 6):
        clique, ids = ids[:size], ids[size:]
        bags.append(frozenset(clique))
        edges.extend(combinations(clique, 2))
    td = TreeDecomposition(tuple(bags), tuple((i, i + 1) for i in range(4)))
    return Graph.from_edges(15, edges), RichDecomposition(td)


def test_built_in_leaf_on_disjoint_cliques(monkeypatch):
    # a component of a 0-rich piece is a leaf at once, with no restricted
    # decomposition, and the built-in leaf puts the i-th vertex of every
    # clique on track i with colour i
    g, rd = _disjoint_cliques()
    assert rd.richness == 0 and len(g.components()) == 5
    restricted = []
    real = shadow._restrict_rd
    monkeypatch.setattr(shadow, "_restrict_rd", lambda *a: restricted.append(1) or real(*a))
    tl = recursive_track_driver(g, rd)
    c = recursive_nonrep_driver(g, rd)
    assert not restricted
    cliques = sorted(sorted(bag) for bag in rd.decomposition.bags)
    assert tl.tracks == tuple(
        tuple(cl[i] for cl in cliques if i < len(cl)) for i in range(5)
    )
    assert c.colour == {v: i for cl in cliques for i, v in enumerate(cl)}
    assert verify_track_layout(g, tl).ok
    assert verify_proper(g, c).ok
    assert verify_nonrepetitive(g, c, max_path=g.n) is None


def test_recursive_drivers_output_pinned():
    # both drivers are deterministic, so their formatted outputs are fixed;
    # a change that alters them on purpose re-pins these digests
    leaf = ((), ())  # no solver: the drivers' built-in leaf
    planar = ((planar_track_solver,), (planar_colour_solver,))
    cases = [
        (chordal_fixture(30, 3, 60), leaf, "437c3297c1facf7a", "c8dc9d290a7ad80c"),
        (chordal_fixture(40, 3, 3), leaf, "c74e0a280c9b3fa8", "b64d73959cb2a7a1"),
        (chordal_fixture(40, 3, 11), leaf, "7b9a96504e3065f4", "c75b5383b0431daa"),
        (chordal_fixture(60, 4, 60), leaf, "97b732f09cf6de2b", "0d36bd7c0c97d6bc"),
        (chordal_fixture(70, 4, 4), leaf, "445994f42c105339", "5fa5001a1ab2b5bf"),
        (chordal_fixture(80, 4, 160), leaf, "b255270704cbd95f", "83941406505903a9"),
        (chordal_fixture(80, 4, 2), leaf, "d8cf3434dce0c7c5", "c8944293cd54bf46"),
        (planar_torso(), planar, "aa418c2780674495", "59805177257fd86e"),
        (_twin_trees(), leaf, "f22b6003c8ce6ccd", "5b070b7182ab53e8"),
    ]
    for (g, rd), (targs, cargs), tdigest, cdigest in cases:
        tracks = format_track_layout(recursive_track_driver(g, rd, *targs))
        colours = format_colouring(recursive_nonrep_driver(g, rd, *cargs))
        assert hashlib.sha256(tracks.encode()).hexdigest()[:16] == tdigest
        assert hashlib.sha256(colours.encode()).hexdigest()[:16] == cdigest


def _shadow_recursion(g, rd, solve, art):
    """Oracle for the planned recursion: split a disconnected G into its
    components at every richness, solve a piece of at most one vertex or
    a connected 0-rich piece, give any other piece a shadow-complete
    layering whose layers are one richness lower, recurse on every layer
    and compose, planning and solving as it goes.  A component of a
    0-rich piece goes to the solver directly."""
    k = rd.richness
    if g.n <= 1:
        return solve(g)

    def on(part, part_rd):
        sub_g, to_new = g.induced(sorted(part))
        if k == 0:
            sub = solve(sub_g)
        else:
            sub = _shadow_recursion(sub_g, _restrict_rd(part_rd, part, to_new), solve, art)
        return art.relabel(sub, {j: v for v, j in to_new.items()})

    comps = sorted(g.components(), key=min)
    if len(comps) > 1:
        return art.merge([on(comp, rd) for comp in comps])
    if k == 0:
        return solve(g)
    sl = rich_shadow_layering(g, rd)
    parts = [on(layer, sub) for layer, sub in zip(sl.layering.layers, sl.per_layer)]
    return art.compose(g, sl.layering, parts, k)


def _recording(solver, seen):
    def solve(g):
        seen.append(g)
        return solver(g)

    return solve


def _oracle_cases():
    """(G, rd, (track args, colour args)) for the drivers; no args runs
    their built-in leaf."""
    leaf = ((), ())
    cases = []
    for seed in range(12):
        k = 1 + seed % 3  # richness at most k
        g, td = random_chordal_with_decomposition(10 + 5 * seed, seed=seed, max_clique=k + 1)
        cases.append((g, RichDecomposition(td), leaf))
    for seed in range(4):
        g = random_tree(6 + 7 * seed, seed=seed)
        cases.append((g, edge_bag_rd(g), leaf))
    cases.append((*_twin_trees(), leaf))
    cases.append((*_disjoint_cliques(), leaf))
    cases.append((*planar_torso(), ((planar_track_solver,), (planar_colour_solver,))))
    return cases


def test_planned_recursion_matches_oracle():
    # every text equals the interleaved recursion's, in either call order,
    # and the solver sees the same leaves in the same order
    richness = set()
    for g, rd, (targs, cargs) in _oracle_cases():
        richness.add(rd.richness)
        (tsolver,), (csolver,) = targs or (_TRACKS.leaf,), cargs or (_COLOURS.leaf,)
        td = rd.decomposition
        oracle_rd = RichDecomposition(td)
        t_leaves, c_leaves = [], []
        want_t = format_track_layout(
            _shadow_recursion(g, oracle_rd, _recording(tsolver, t_leaves), _TRACKS))
        want_c = format_colouring(
            _shadow_recursion(g, oracle_rd, _recording(csolver, c_leaves), _COLOURS))
        connected = len(g.components()) == 1
        if connected:
            want_l = format_layering(rich_shadow_layering(g, RichDecomposition(td)).layering)

        first = RichDecomposition(td)
        if connected:
            assert format_layering(rich_shadow_layering(g, first).layering) == want_l
        seen: list = []
        assert format_track_layout(
            recursive_track_driver(g, first, _recording(tsolver, seen))) == want_t
        assert seen == t_leaves
        seen = []
        assert format_colouring(
            recursive_nonrep_driver(g, first, _recording(csolver, seen))) == want_c
        assert seen == c_leaves

        second = RichDecomposition(td)
        assert format_colouring(recursive_nonrep_driver(g, second, *cargs)) == want_c
        assert format_track_layout(recursive_track_driver(g, second, *targs)) == want_t
        if connected:
            assert format_layering(rich_shadow_layering(g, second).layering) == want_l
    assert {0, 1, 2, 3} <= richness


def _compose_nodes(plan) -> int:
    return (plan.layering is not None) + sum(_compose_nodes(c) for _, c in plan.parts)


def test_layerings_built_once_per_shadow_level(monkeypatch):
    builds = []
    real = shadow._contract_redundant
    monkeypatch.setattr(shadow, "_contract_redundant", lambda td: builds.append(1) or real(td))
    for g, rd in (chordal_fixture(80, 4, 2), planar_torso(), _twin_trees()):
        rd = RichDecomposition(rd.decomposition)
        builds.clear()
        if len(g.components()) == 1:
            rich_shadow_layering(g, rd)
            assert len(builds) == 1
        recursive_track_driver(g, rd)
        recursive_nonrep_driver(g, rd)
        if len(g.components()) == 1:
            rich_shadow_layering(g, rd)
        levels = _compose_nodes(_plan(g, rd))
        assert levels
        assert len(builds) == levels


def test_failed_layering_is_not_memoised(monkeypatch):
    # a chain of edge bags on C4 is 1-rich but leaves edge (0, 3) uncovered
    g = cycle_graph(4)
    rd = RichDecomposition(TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})), ((0, 1), (1, 2))
    ))
    checks = []
    real = shadow.validate_rich
    monkeypatch.setattr(shadow, "validate_rich", lambda *a: checks.append(1) or real(*a))
    calls = [
        lambda: rich_shadow_layering(g, rd),
        lambda: recursive_track_driver(g, rd),
        lambda: recursive_nonrep_driver(g, rd),
    ]
    for round_ in range(2):
        for i, call in enumerate(calls):
            with pytest.raises(ShadowError, match="covered by no bag"):
                call()
            assert len(checks) == 3 * round_ + i + 1
    empty = Graph.from_edges(0, [])
    rd0 = RichDecomposition(TreeDecomposition.single_bag([]))
    for _ in range(2):
        with pytest.raises(GraphInputError):
            rich_shadow_layering(empty, rd0)


def test_validate_rich_rejects_overdeclared():
    g = path_graph(3)
    rd = edge_bag_rd(g)
    assert not validate_rich(g, rd, k=0).ok


def test_rich_format_roundtrip():
    g = random_tree(10, seed=6)
    rd = edge_bag_rd(g)
    back = parse_rich(format_rich(rd))
    assert back.decomposition.bags == rd.decomposition.bags
    assert set(map(frozenset, back.decomposition.tree_edges)) == set(
        map(frozenset, rd.decomposition.tree_edges)
    )
    assert back.richness == rd.richness


def test_parse_rich_rejects_understated_richness():
    g = path_graph(3)
    rd = edge_bag_rd(g)
    text = format_rich(rd).replace("rich 1", "rich 0")
    with pytest.raises((GraphInputError, ShadowError)):
        parse_rich(text)


@pytest.mark.parametrize("text", ["", " \n\t\n", "rich x\n"])
def test_parse_rich_rejects_missing_header(text):
    with pytest.raises(GraphInputError):
        parse_rich(text)


@st.composite
def rich_cases(draw):
    """A chordal graph on at most 20 vertices with a rich decomposition
    of richness up to 3, or a tree with its edge bags."""
    n, seed = draw(st.integers(1, 20)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        g = random_tree(n, seed=seed)
        return g, edge_bag_rd(g)
    g, td = random_chordal_with_decomposition(n, seed=seed, max_clique=draw(st.integers(2, 4)))
    return g, RichDecomposition(td)


@settings(max_examples=100, deadline=None)
@given(rich_cases())
def test_rich_text_round_trips(case):
    _, rd = case
    assert parse_rich(format_rich(rd)) == rd


_RICH_TOKENS = ("0", "1", "3", "19", "20", "-1", "x", "rich", "bags", "core:", "<", "+", "-",
                ":", "tree", "")


@settings(max_examples=400, deadline=None)
@given(rich_cases(), st.data())
def test_rich_text_mutations_raise_or_validate_like_explicit_bags(case, data):
    """Every single-token or single-line change of a rich text either
    raises ``GraphInputError`` or parses to a decomposition no richer
    than its header, which ``validate_rich`` judges as it judges the
    same bags and tree edges given explicitly; no other exception
    escapes."""
    g, rd = case
    text = changed_text(data, format_rich(rd), _RICH_TOKENS)
    try:
        back = parse_rich(text)
    except GraphInputError:
        return
    header = next(ln for ln in text.splitlines() if ln.strip())
    assert back.richness <= int(header.split()[1])
    td = back.decomposition
    explicit = RichDecomposition(TreeDecomposition(tuple(td.bags), td.tree_edges))
    assert back == explicit
    for k in (None, back.richness, 0):
        assert validate_rich(g, back, k) == validate_rich(g, explicit, k)


def _contract_redundant_restart(td: TreeDecomposition) -> TreeDecomposition:
    """Oracle for ``_contract_redundant``: rescan every bag from the least
    after each contraction."""
    bags = list(td.bags)
    adj = {i: set() for i in range(len(bags))}
    for x, y in td.tree_edges:
        adj[x].add(y)
        adj[y].add(x)
    alive = set(range(len(bags)))
    changed = True
    while changed:
        changed = False
        for x in sorted(alive):
            for y in sorted(adj[x]):
                if bags[x] <= bags[y]:
                    # merge x into y
                    for z in adj[x]:
                        if z != y:
                            adj[z].discard(x)
                            adj[z].add(y)
                            adj[y].add(z)
                    adj[y].discard(x)
                    alive.discard(x)
                    adj[x] = set()
                    changed = True
                    break
            if changed:
                break
    order = sorted(alive)
    remap = {old: i for i, old in enumerate(order)}
    edges = set()
    for x in order:
        for y in adj[x]:
            edges.add((min(remap[x], remap[y]), max(remap[x], remap[y])))
    return TreeDecomposition(tuple(bags[x] for x in order), frozenset(edges))


@st.composite
def nested_bag_trees(draw):
    """Random trees on up to 40 bags; each bag is a subset or a superset
    of its parent's bag, or a fresh subset of a 6-element universe."""
    b = draw(st.integers(1, 40))
    steps = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 63),
                                    st.integers(0, 2)), min_size=b, max_size=b))
    bags, edges = [], set()
    for x, (parent, mask, how) in enumerate(steps):
        fresh = frozenset(i for i in range(6) if mask >> i & 1)
        if x == 0:
            bags.append(fresh)
            continue
        parent %= x
        edges.add((parent, x))
        bags.append((bags[parent] & fresh, bags[parent] | fresh, fresh)[how])
    new_id = draw(st.permutations(range(b)))  # bag ids need not follow the tree
    old_id = {y: x for x, y in enumerate(new_id)}
    return TreeDecomposition(
        tuple(bags[old_id[i]] for i in range(b)),
        frozenset((min(new_id[x], new_id[y]), max(new_id[x], new_id[y])) for x, y in edges),
    )


@settings(max_examples=300, deadline=None)
@given(nested_bag_trees())
def test_contract_redundant_matches_restart_scan(td):
    assert _contract_redundant(td) == _contract_redundant_restart(td)

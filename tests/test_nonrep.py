import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.embedding import embed_planar
from layersep.generators import (
    cycle_graph,
    path_graph,
    random_planar_triangulation,
    random_tree,
)
from layersep.graphs import Graph, GraphInputError, bfs_layering
from layersep.layouts import pipeline
from layersep.nonrep import (
    _SEARCH_WALK_CAP,
    Colouring,
    LayerPatternColouring,
    _last_position_walks_ok,
    _suffix_squarefree,
    _ternary_squarefree,
    default_max_path,
    format_colouring,
    layer_pattern_colouring,
    nonrep_bound,
    nonrep_from_compute,
    parse_colouring,
    verify_layer_pattern,
    verify_nonrepetitive,
    verify_proper,
)
from layersep.shadow import recursive_nonrep_driver
from tests.conftest import chordal_fixture, planar_pipeline, torus_pipeline


def _enumerated_walks_ok(seq):
    """Brute-force oracle for ``_last_position_walks_ok``: enumerate every
    lazy walk of even length <= the cap inside the last cap positions
    that visits the last position."""
    p = len(seq) - 1
    lo = max(0, p - _SEARCH_WALK_CAP + 1)
    t = len(seq)
    for length in range(2, _SEARCH_WALK_CAP + 1, 2):
        k = length // 2
        stack = [(s, (s,), s == p) for s in range(lo, t)]
        while stack:
            cur, walk, saw = stack.pop()
            if len(walk) == length:
                if not saw:
                    continue
                c = [seq[i] for i in walk]
                if c[:k] == c[k:] and walk[:k] != walk[k:]:
                    return False
                continue
            if not saw and abs(cur - p) > length - len(walk):
                continue
            for d in (-1, 0, 1):
                nxt = cur + d
                if lo <= nxt < t:
                    stack.append((nxt, walk + (nxt,), saw or nxt == p))
    return True


def _enumerated_matching_walk(seq, max_walk):
    """Brute-force oracle for ``verify_layer_pattern``: enumerate every
    lazy walk of each even length <= max_walk over the whole word."""
    t = len(seq)
    for length in range(2, max_walk + 1, 2):
        k = length // 2
        stack = [(s, (s,)) for s in range(t - 1, -1, -1)]
        while stack:
            cur, walk = stack.pop()
            if len(walk) == length:
                c = [seq[i] for i in walk]
                if c[:k] == c[k:] and walk[:k] != walk[k:]:
                    return walk
                continue
            for d in (-1, 0, 1):
                nxt = cur + d
                if 0 <= nxt < t:
                    stack.append((nxt, walk + (nxt,)))
    return None


def verify_nonrepetitive_tuples(g, c, max_path):
    """Independent cross-check for tiny graphs: enumerate all ordered
    vertex tuples of even length, filter the ones that are paths, and
    test for colour squares.  Exponential; intended for n <= 10."""
    if g.n > 10:
        raise GraphInputError("tuple oracle limited to n <= 10")
    colour = c.colour
    for length in range(2, max_path + 1, 2):
        k = length // 2
        for tup in itertools.permutations(g.vertices(), length):
            if not all(g.has_edge(tup[i], tup[i + 1]) for i in range(length - 1)):
                continue
            if all(colour[tup[i]] == colour[tup[k + i]] for i in range(k)):
                return tup
    return None


def _dfs_squares(g, c, max_path):
    """Brute-force oracle for ``verify_nonrepetitive``: for each
    half-length k, enumerate the first k vertices of every simple path by
    DFS from each start vertex over sorted neighbours; the second half
    must repeat the first half's colours.  The first hit is the
    lexicographically least square of the least half-length."""
    colour = c.colour
    adj = g.adjacency

    def dfs(path, on_path, k):
        j = len(path)
        if j == 2 * k:
            return tuple(path)
        want = colour[path[j - k]] if j >= k else None
        for w in adj[path[-1]]:
            if w in on_path or (want is not None and colour[w] != want):
                continue
            path.append(w)
            on_path.add(w)
            hit = dfs(path, on_path, k)
            if hit:
                return hit
            on_path.discard(w)
            path.pop()
        return None

    for k in range(1, max_path // 2 + 1):
        for s in g.vertices():
            hit = dfs([s], {s}, k)
            if hit:
                return hit
    return None


def _oracle_search(t_max):
    """{t: (word, nodes)} for every length t the oracle-driven search
    reaches within the budget of t_max.

    One depth-first pass with the enumerating predicate serves every t:
    until the first valid word of length t is popped, the search for t
    and the search for t_max pop the same nodes, because an invalid node
    is never extended and the search for t stops at that word.  So the
    search for t returns that word when its node count is within 400 t.
    """
    first = {}
    stack = [[0]]
    nodes = 0
    while stack and nodes < 400 * t_max and len(first) < t_max:
        seq = stack.pop()
        nodes += 1
        if not _suffix_squarefree(seq) or not _enumerated_walks_ok(seq):
            continue
        first.setdefault(len(seq), (tuple(seq), nodes))
        for s in range(3, -1, -1):
            stack.append(seq + [s])
    return first


words = st.integers(2, 4).flatmap(
    lambda s: st.lists(st.integers(0, s - 1), min_size=1, max_size=14)
)


@settings(max_examples=300, deadline=None)
@given(words)
def test_lockstep_walk_check_matches_enumeration(seq):
    assert _last_position_walks_ok(seq) == _enumerated_walks_ok(seq)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 13), st.integers(0, 3), st.integers(0, 3))
def test_lockstep_walk_check_matches_enumeration_near_valid(n, last, other):
    # prefixes of a searched word pass; changing a symbol may break them
    valid = list(layer_pattern_colouring(14).seq[: n + 1])
    assert _last_position_walks_ok(valid)
    for seq in (valid[:-1] + [last], valid[:other] + [last] + valid[other + 1 :]):
        assert _last_position_walks_ok(seq) == _enumerated_walks_ok(seq)


def _assert_matching_walk(seq, max_walk):
    walk = verify_layer_pattern(LayerPatternColouring(tuple(seq)), max_walk)
    oracle = _enumerated_matching_walk(seq, max_walk)
    assert (walk is None) == (oracle is None)
    if walk is not None:
        # a genuine counterexample, and a shortest one like the oracle's
        k = len(walk) // 2
        assert len(walk) == len(oracle) <= max_walk
        assert all(0 <= i < len(seq) for i in walk)
        assert all(abs(walk[i + 1] - walk[i]) <= 1 for i in range(len(walk) - 1))
        assert [seq[i] for i in walk[:k]] == [seq[i] for i in walk[k:]]
        assert walk[:k] != walk[k:]


@settings(max_examples=300, deadline=None)
@given(words, st.integers(0, 6))
def test_layer_pattern_verifier_matches_enumeration(seq, half):
    _assert_matching_walk(seq, 2 * half)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(0, 13), st.integers(0, 3), st.integers(1, 5))
def test_layer_pattern_verifier_matches_enumeration_near_valid(t, pos, sym, half):
    # a searched word passes; changing one symbol may break it
    seq = list(layer_pattern_colouring(t).seq)
    seq[pos % t] = sym
    _assert_matching_walk(seq, 2 * half)


def test_layer_pattern_words_match_oracle_search():
    oracle = _oracle_search(120)
    for t in range(1, 121):
        lp = layer_pattern_colouring(t)
        word, nodes = oracle.get(t, (None, math.inf))
        if nodes <= 400 * t:
            assert (lp.seq, lp.search_nodes, lp.fell_back) == (word, nodes, False)
        else:
            assert lp.fell_back
            assert lp.seq == tuple(
                3 * (i % 2) + _ternary_squarefree(i // 2) for i in range(t)
            )


def test_layer_pattern_reports_search():
    lp = layer_pattern_colouring(40)
    assert not lp.fell_back
    assert lp.search_nodes == 91
    assert lp.symbol_count == 4
    # the search statistics do not take part in equality or hashing
    plain = LayerPatternColouring(lp.seq)
    assert plain == lp and hash(plain) == hash(lp)


def test_layer_pattern_small_verified():
    for t in (1, 2, 5, 12, 30):
        lp = layer_pattern_colouring(t)
        assert len(lp.seq) == t
        assert lp.symbol_count <= 6
        assert verify_layer_pattern(lp, max_walk=min(2 * t, 12)) is None


def test_layer_pattern_rejects_periodic():
    # period-6 repetition admits a matching lazy walk
    bad = LayerPatternColouring(tuple([0, 1, 2, 0, 1, 3] * 4))
    assert verify_layer_pattern(bad, max_walk=12) is not None


def test_layer_pattern_rejects_square_word():
    bad = LayerPatternColouring((0, 1, 0, 1))
    walk = verify_layer_pattern(bad, max_walk=4)
    assert walk is not None
    # the counterexample is a genuine lazy walk with matching halves
    assert all(abs(walk[i + 1] - walk[i]) <= 1 for i in range(len(walk) - 1))


def test_verify_layer_pattern_rejects_odd_walk():
    with pytest.raises(GraphInputError):
        verify_layer_pattern(LayerPatternColouring((0,)), max_walk=3)


def test_nonrep_planar_exhaustive_small():
    for n in (10, 12, 14):
        g, _, labels, _ = planar_pipeline(n)
        layering = planar_pipeline(n)[1].ld.layering
        c = nonrep_from_compute(g, layering, labels)
        assert verify_proper(g, c).ok
        assert verify_nonrepetitive(g, c, max_path=g.n) is None
        assert c.palette_size <= nonrep_bound(g.n, labels.ell1, labels.ell2, 6)


def test_nonrep_sparse_exhaustive_n40():
    g = random_tree(40, seed=9)
    layering, _ = bfs_layering(g, [0])
    from layersep.decomposition import LayeredDecomposition, TreeDecomposition
    from layersep.layouts import compute_recursion

    bags = tuple(frozenset(e) for e in sorted(g.edges))
    edges = []
    for i, b in enumerate(bags):
        for j in range(i):
            if bags[j] & b:
                edges.append((j, i))
                break
    ld = LayeredDecomposition(TreeDecomposition(bags, tuple(edges)), layering)
    labels = compute_recursion(g, layering, ld, mode="separation")
    c = nonrep_from_compute(g, layering, labels)
    assert verify_nonrepetitive(g, c, max_path=default_max_path(g.n)) is None


def test_nonrep_dense_windowed():
    for n in (60, 120):
        g, res, labels, _ = planar_pipeline(n)
        c = nonrep_from_compute(g, res.ld.layering, labels)
        assert verify_proper(g, c).ok
        assert verify_nonrepetitive(g, c, max_path=default_max_path(g.n)) is None


def test_nonrep_torus():
    g, res, labels, _ = torus_pipeline(4, 5)
    c = nonrep_from_compute(g, res.ld.layering, labels)
    assert verify_proper(g, c).ok
    assert verify_nonrepetitive(g, c, max_path=10) is None


def test_tuple_oracle_agrees_with_dfs():
    for n, seed in ((6, 0), (8, 1), (9, 2)):
        g = random_planar_triangulation(n, seed=seed).to_graph()
        # a deliberately coarse colouring so squares exist; permutations
        # come in lexicographic order, so all three return the same path
        bad = Colouring({v: v % 2 for v in g.vertices()})
        tup_hit = verify_nonrepetitive_tuples(g, bad, max_path=g.n)
        assert tup_hit is not None
        assert _dfs_squares(g, bad, g.n) == tup_hit
        assert verify_nonrepetitive(g, bad, max_path=g.n) == tup_hit
        # rainbow colouring has no squares under either oracle
        rainbow = Colouring({v: v for v in g.vertices()})
        assert verify_nonrepetitive(g, rainbow, max_path=g.n) is None
        assert verify_nonrepetitive_tuples(g, rainbow, max_path=g.n) is None


@st.composite
def coarse_coloured_graphs(draw):
    """G(n, p) or a planar triangulation, n <= 14, with at most four
    colours, so that squares are common."""
    n = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rng = random.Random(seed)
        p = draw(st.sampled_from((0.15, 0.3, 0.5, 0.8)))
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
    else:
        g = random_planar_triangulation(max(n, 3), seed=seed).to_graph()
    k = draw(st.integers(1, 4))
    colours = draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n))
    return g, Colouring(dict(enumerate(colours)))


@settings(max_examples=400, deadline=None)
@given(coarse_coloured_graphs(), st.integers(1, 12))
def test_verify_nonrepetitive_matches_dfs_oracle(gc, max_path):
    g, c = gc
    assert verify_nonrepetitive(g, c, max_path) == _dfs_squares(g, c, max_path)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((40, 50, 60, 70, 80)),
    st.lists(st.tuples(st.integers(0, 79), st.integers(0, 10**6)), min_size=1, max_size=3),
    st.integers(1, 9),
)
def test_verify_nonrepetitive_matches_dfs_oracle_near_valid(n, changes, max_path):
    # a pipeline colouring passes; recolouring up to three vertices with
    # colours already in use may create squares
    g, res, labels, _ = planar_pipeline(n)
    colour = dict(nonrep_from_compute(g, res.ld.layering, labels).colour)
    palette = sorted(set(colour.values()))
    for v, pick in changes:
        colour[v % n] = palette[pick % len(palette)]
    c = Colouring(colour)
    assert verify_nonrepetitive(g, c, max_path) == _dfs_squares(g, c, max_path)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(20, 60),
    st.integers(0, 9),
    st.lists(st.tuples(st.integers(0, 59), st.integers(0, 10**6)), max_size=3),
    st.integers(1, 9),
)
def test_verify_nonrepetitive_matches_dfs_oracle_near_valid_shadow(n, seed, changes, max_path):
    # a shadow colouring of a chordal graph: small palette, many degree
    # ties and hubs; recolouring up to three vertices with colours
    # already in use may create squares
    g, rd = chordal_fixture(n, 4, seed)
    colour = dict(recursive_nonrep_driver(g, rd).colour)
    palette = sorted(set(colour.values()))
    for v, pick in changes:
        colour[v % n] = palette[pick % len(palette)]
    c = Colouring(colour)
    assert verify_nonrepetitive(g, c, max_path) == _dfs_squares(g, c, max_path)


def _first_induced_p4(g):
    """First path a-b-c-d with a~c and b~d non-adjacent, in id order."""
    adj = g.adjacency
    for b in g.vertices():
        for a in adj[b]:
            for c in adj[b]:
                if c == a or g.has_edge(a, c):
                    continue
                for d in adj[c]:
                    if d not in (a, b) and not g.has_edge(b, d):
                        return a, b, c, d
    return None


def test_verify_nonrepetitive_pins_the_planted_square():
    # the benchmark's planted-square mutant: a pipeline colouring whose
    # first induced P4 is recoloured x y x y with two new colours
    g = random_planar_triangulation(40, seed=1).to_graph()
    _, res, labels, _ = pipeline(embed_planar(g))
    colour = dict(nonrep_from_compute(g, res.ld.layering, labels).colour)
    a, b, c, d = _first_induced_p4(g)
    x, y = max(colour.values()) + 1, max(colour.values()) + 2
    colour.update({a: x, c: x, b: y, d: y})
    bad = Colouring(colour)
    for max_path in (4, 6, 10, g.n):
        assert verify_nonrepetitive(g, bad, max_path) == (1, 0, 4, 13)
    assert verify_nonrepetitive(g, bad, 3) is None


def test_square_detection_on_path():
    g = path_graph(4)
    c = Colouring({0: 0, 1: 1, 2: 0, 3: 1})
    hit = verify_nonrepetitive(g, c, max_path=4)
    assert hit == (0, 1, 2, 3)


@pytest.mark.parametrize("k", range(1, 7))
def test_square_spanning_a_long_path(k):
    # colours 0..k-1 twice: the whole path is the only square; at
    # max_path 2k its x_1 lies on the rim of the anchor's ball, above
    # it the square is shorter than the search
    g = path_graph(2 * k)
    c = Colouring({v: v % k for v in g.vertices()})
    for max_path in (2 * k, 2 * k + 1, 2 * k + 4):
        assert verify_nonrepetitive(g, c, max_path) == tuple(g.vertices())
    assert verify_nonrepetitive(g, c, 2 * k - 1) is None


def test_square_around_a_cycle_is_simple():
    # the 8-cycle 0-2-5-3-1-6-4-7 reads 5 4 1 4 5 4 1 4 from 0: every
    # square is the whole cycle opened at an edge; the walk 0 2 5 3 1 6
    # 4 6, which turns back at 4, reads the same colours but is no path
    g = Graph.from_edges(8, [(0, 2), (2, 5), (5, 3), (3, 1), (1, 6), (6, 4), (4, 7), (7, 0)])
    c = Colouring({0: 5, 1: 5, 2: 4, 3: 4, 4: 1, 5: 1, 6: 4, 7: 4})
    assert verify_nonrepetitive(g, c, 9) == _dfs_squares(g, c, 9) == (0, 2, 5, 3, 1, 6, 4, 7)
    assert verify_nonrepetitive(g, c, 7) is None


def test_cycle_needs_more_than_two_colours():
    g = cycle_graph(5)
    c = Colouring({0: 0, 1: 1, 2: 0, 3: 1, 4: 2})
    assert verify_proper(g, c).ok
    assert verify_nonrepetitive(g, c, max_path=5) is not None


def test_verify_proper_negative():
    g = path_graph(2)
    assert not verify_proper(g, Colouring({0: 0, 1: 0})).ok


def test_verify_proper_catches_vertex_outside_graph():
    g = path_graph(2)
    assert verify_proper(g, Colouring({0: 0, 1: 1})).ok
    rep = verify_proper(g, Colouring({0: 0, 1: 1, 99: 2}))
    assert not rep.ok
    assert any("99" in v and "not in G" in v for v in rep.violations)


def test_default_max_path():
    assert default_max_path(40) == 40
    assert default_max_path(41) == 10


def test_nonrep_bound_scaling():
    base = nonrep_bound(100, 3, 3, symbols=4)
    assert nonrep_bound(100, 3, 3, symbols=6) == pytest.approx(1.5 * base)
    assert base == pytest.approx(12 + 12 * (1 + math.log(100, 1.5)))


def test_colouring_format_roundtrip():
    g, res, labels, _ = planar_pipeline(15)
    c = nonrep_from_compute(g, res.ld.layering, labels)
    assert parse_colouring(format_colouring(c, bound=42.0)).colour == c.colour
    with pytest.raises(GraphInputError):
        parse_colouring("no header\n")

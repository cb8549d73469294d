import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.decomposition import TreeDecomposition
from layersep.embedding import embed_planar
from layersep.generators import (
    cycle_graph,
    path_graph,
    random_planar_triangulation,
    random_tree,
)
from layersep.graphs import Graph, GraphInputError, Report, bfs_layering
from layersep.layouts import pipeline
from layersep.nonrep import (
    _MORPHISM,
    Colouring,
    LayerPatternColouring,
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
from layersep.shadow import RichDecomposition, recursive_nonrep_driver, rich_shadow_layering
from tests.conftest import (
    changed_text,
    chordal_fixture,
    planar_pipeline,
    read_or_reject,
    small_graphs,
    torus_pipeline,
)
from tests.oracles import _matching_walk


def _ternary_squarefree(n):
    """Letter n of a square-free word over {0, 1, 2}: the first
    differences of the Thue-Morse word, plus 1."""
    return bin(n + 1).count("1") % 2 - bin(n).count("1") % 2 + 1


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


words = st.integers(2, 4).flatmap(
    lambda s: st.lists(st.integers(0, s - 1), min_size=1, max_size=14)
)


@st.composite
def spread_words(draw):
    """Words of up to 14 letters over 3 to 5 symbols in which no symbol
    repeats within distance 2, so that only a square of period >= 3 can
    make them bad."""
    s = draw(st.integers(3, 5))
    seq = [0, 1][: draw(st.integers(1, 2))]
    for _ in range(draw(st.integers(0, 12))):
        seq.append(draw(st.sampled_from([c for c in range(s) if c not in seq[-2:]])))
    return seq


def _near_valid(t, pos, sym):
    """The layer word of length t with one symbol changed."""
    seq = list(layer_pattern_colouring(t).seq)
    seq[pos % t] = sym
    return seq


def _assert_matching_walk(seq, max_walk):
    """The bounded oracle finds what the enumeration finds, a shortest
    walk; the every-length check finds a walk whenever either does."""
    walk = _matching_walk(seq, max_walk // 2)
    oracle = _enumerated_matching_walk(seq, max_walk)
    assert (walk is None) == (oracle is None)
    if walk is not None:
        assert len(walk) == len(oracle) <= max_walk
        _assert_genuine_walk(seq, walk)
        assert verify_layer_pattern(LayerPatternColouring(tuple(seq))) is not None


def _assert_genuine_walk(seq, walk):
    """A lazy walk over seq whose colour halves match on different index
    halves."""
    k = len(walk) // 2
    assert len(walk) == 2 * k > 0
    assert all(0 <= i < len(seq) for i in walk)
    assert all(abs(walk[i + 1] - walk[i]) <= 1 for i in range(len(walk) - 1))
    assert [seq[i] for i in walk[:k]] == [seq[i] for i in walk[k:]]
    assert walk[:k] != walk[k:]


def _assert_matches_exhaustive_oracle(seq):
    walk = verify_layer_pattern(LayerPatternColouring(tuple(seq)))
    assert (walk is None) == (_matching_walk(seq, len(seq) ** 2) is None)
    if walk is not None:
        _assert_genuine_walk(seq, walk)


@settings(max_examples=300, deadline=None)
@given(words, st.integers(0, 6))
def test_layer_pattern_verifier_matches_enumeration(seq, half):
    _assert_matching_walk(seq, 2 * half)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(0, 13), st.integers(0, 3), st.integers(1, 5))
def test_layer_pattern_verifier_matches_enumeration_near_valid(t, pos, sym, half):
    _assert_matching_walk(_near_valid(t, pos, sym), 2 * half)


@settings(max_examples=300, deadline=None)
@given(st.one_of(words, spread_words()))
def test_layer_pattern_verifier_matches_exhaustive_oracle(seq):
    _assert_matches_exhaustive_oracle(seq)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.integers(0, 13), st.integers(0, 3))
def test_layer_pattern_verifier_matches_exhaustive_oracle_near_valid(t, pos, sym):
    # the layer word passes; changing one symbol may break it
    _assert_matches_exhaustive_oracle(_near_valid(t, pos, sym))


def test_layer_word_is_certified_to_2000():
    assert verify_layer_pattern(layer_pattern_colouring(2000)) is None


def test_layer_morphism_meets_crochemores_criterion():
    # a uniform morphism that maps every square-free word of length 3 to
    # a square-free word is square-free (Crochemore, Theoret. Comput.
    # Sci. 1982), so W has no square at any length; and each window of 3
    # letters of W lies in the image of 2 letters, so W has no xx or xyx
    for w in itertools.product(range(4), repeat=3):
        if w[0] != w[1] != w[2]:
            image = tuple(s for x in w for s in _MORPHISM[x])
            assert verify_layer_pattern(LayerPatternColouring(image)) is None


def test_layer_words_are_prefixes_of_one_word():
    # uncached, so the cache does not keep 2000 words
    word = layer_pattern_colouring(2000).seq
    for t in range(1, 2001):
        assert layer_pattern_colouring.__wrapped__(t).seq == word[:t]


def test_layer_word_of_20000_letters_takes_under_a_second():
    start = time.perf_counter()
    lp = layer_pattern_colouring.__wrapped__(20_000)
    assert time.perf_counter() - start < 1
    assert len(lp.seq) == 20_000 and lp.symbol_count == 4


def test_layer_word_keeps_its_first_nine_letters():
    # every layering of at most 9 layers keeps its colours
    assert layer_pattern_colouring(9).seq == (0, 1, 2, 0, 1, 3, 0, 1, 2)
    assert layer_pattern_colouring(9).symbol_count == 4


def test_layer_pattern_small_verified():
    for t in (1, 2, 5, 12, 30):
        lp = layer_pattern_colouring(t)
        assert len(lp.seq) == t
        assert lp.symbol_count <= 4
        assert verify_layer_pattern(lp) is None


def test_layer_pattern_rejects_periodic():
    # period-6 repetition admits a matching lazy walk
    bad = LayerPatternColouring(tuple([0, 1, 2, 0, 1, 3] * 4))
    assert verify_layer_pattern(bad) is not None


def test_layer_pattern_rejects_square_word():
    bad = LayerPatternColouring((0, 1, 0, 1))
    walk = verify_layer_pattern(bad)
    assert walk is not None
    # the counterexample is a genuine lazy walk with matching halves
    _assert_genuine_walk(bad.seq, walk)


def test_nonrep_driver_colours_2000_layers():
    # a path's edge bags are 1-rich and its shadow layering has one
    # vertex per layer, so each layer is coloured by its layer symbol
    g = path_graph(2000)
    bags = tuple(frozenset((v, v + 1)) for v in range(g.n - 1))
    edges = tuple((i, i + 1) for i in range(len(bags) - 1))
    rd = RichDecomposition(TreeDecomposition(bags, edges))
    assert len(rich_shadow_layering(g, rd).layering) == 2000
    c = recursive_nonrep_driver(g, rd)
    assert verify_proper(g, c).ok
    assert c.palette_size == 4
    assert verify_nonrepetitive(g, c, max_path=40) is None


def test_nonrep_planar_exhaustive_small():
    for n in (10, 12, 14):
        g, _, labels, _ = planar_pipeline(n)
        layering = planar_pipeline(n)[1].ld.layering
        c = nonrep_from_compute(g, layering, labels)
        assert verify_proper(g, c).ok
        assert verify_nonrepetitive(g, c, max_path=g.n) is None
        assert c.palette_size <= nonrep_bound(g.n, labels.ell1, labels.ell2)


def test_nonrep_sparse_exhaustive_n40():
    g = random_tree(40, seed=9)
    layering = bfs_layering(g, [0])
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


def test_deep_square_search_keeps_an_explicit_stack():
    # s s, for the square-free word s of length 201, has no square of
    # half-length <= 2, so the search grows pair paths about 200 pairs
    # deep; it must not take a call per pair, which a recursion limit a
    # little above this test's own depth would stop
    k = 201
    g = path_graph(2 * k)
    c = Colouring(dict(enumerate([_ternary_squarefree(i) for i in range(k)] * 2)))
    expected = _dfs_squares(g, c, 2 * k)
    assert expected is not None and len(expected) > 4
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        assert verify_nonrepetitive(g, c, 2 * k) == expected
    finally:
        sys.setrecursionlimit(limit)


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


def _judge_colouring(g, c):
    """The verdict of ``layersep verify nonrep``: a proper colouring, then
    no square on a path of up to ``default_max_path`` vertices."""
    proper = verify_proper(g, c)
    if not proper.ok:
        return proper
    hit = verify_nonrepetitive(g, c, default_max_path(g.n))
    return Report.of(() if hit is None else (f"repetitive path: {hit}",))


_COLOUR_TOKENS = ("0", "1", "5", "12", "-1", "00", "+2", "1.5", "x", "palette", "bound", "")


@settings(max_examples=300, deadline=None)
@given(
    small_graphs(),
    st.dictionaries(st.integers(0, 13), st.integers(0, 5), max_size=14),
    st.data(),
)
def test_colouring_text_changes_raise_or_verify(g, colour, data):
    """A colouring of any vertices round-trips; every single-token or
    single-line change of its text raises ``GraphInputError`` or reads to
    a colouring the verifiers judge; no other exception escapes."""
    c = Colouring(colour)
    text = format_colouring(c)
    assert parse_colouring(text) == c
    changed = changed_text(data, text, _COLOUR_TOKENS)
    got = read_or_reject(parse_colouring, lambda col: _judge_colouring(g, col), changed)
    assert got is None or isinstance(got, Report)


def test_verify_proper_reports_an_edge_of_uncoloured_ends_as_uncoloured():
    """An edge with no coloured end is not monochromatic: its ends are
    reported uncoloured, and the verifier does not fail on them."""
    g = Graph.from_edges(3, [(0, 1)])
    assert verify_proper(g, Colouring({})).violations == (
        "vertex 0 uncoloured",
        "vertex 1 uncoloured",
        "vertex 2 uncoloured",
    )
    assert verify_proper(g, Colouring({0: 1, 1: 1, 2: 0})).violations == (
        "edge (0,1) monochromatic in colour 1",
    )

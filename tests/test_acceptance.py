"""Acceptance suite: one criterion per test, one printed verdict line each."""

import dataclasses
import math
import time
from fractions import Fraction

from layersep.decomposition import (
    TreeDecomposition,
    clique_sum_compose,
    genus_layered_decomposition,
    layered_separation,
    norin_treewidth,
    separator_from_decomposition,
    validate_tree_decomposition,
)
from layersep.drawing3d import draw_from_tracks, verify_drawing
from layersep.generators import (
    k5_graph,
    random_planar_triangulation,
    random_tree,
    section2_family,
    toroidal_grid,
    v8_graph,
)
from layersep.graphs import (
    separator_layer_widths,
    validate_layering,
    validate_separation,
)
from layersep.layouts import (
    compute_recursion,
    queue_from_tracks,
    verify_queue_layout,
    verify_track_layout,
)
from layersep.nonrep import (
    layer_pattern_colouring,
    nonrep_from_compute,
    verify_nonrepetitive,
    verify_proper,
)
from layersep.shadow import (
    _COLOURS,
    _TRACKS,
    _fold,
    _plan,
    rich_shadow_layering,
    validate_shadow_layering,
    verify_shadow_complete,
)
from tests.conftest import (
    chordal_fixture,
    planar_colour_solver,
    planar_pipeline,
    planar_torso,
    planar_track_solver,
    torus_pipeline,
)
from tests.oracles import exact_treewidth, small_good_provider

PLANAR_NS = (10, 30, 60, 120, 200)
TORUS_PQS = ((3, 3), (4, 6), (5, 8), (8, 8))


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def test_criterion_1_planar_layered_width():
    t0 = time.time()
    ok = True
    for i in range(50):
        n = 10 + 10 * i
        eg = random_planar_triangulation(n, seed=i)
        g = eg.to_graph()
        res = genus_layered_decomposition(eg, (0,))
        ok &= validate_tree_decomposition(g, res.ld.decomposition).ok
        ok &= validate_layering(g, res.ld.layering).ok
        ok &= res.ld.layered_width <= 3
    elapsed = time.time() - t0
    _verdict(1, "planar layered width <= 3 on 50 triangulations", ok and elapsed < 10)


def test_criterion_2_genus():
    t0 = time.time()
    ok = True
    for p in range(3, 9):
        for q in range(3, 9):
            eg = toroidal_grid(p, q)
            g = eg.to_graph()
            res = genus_layered_decomposition(eg, (0,))
            ok &= validate_tree_decomposition(g, res.ld.decomposition).ok
            ok &= res.ld.layered_width <= 7
            ok &= all(c <= 4 for c in res.q_per_layer().values())
            ok &= res.restricted_width <= 3
    elapsed = time.time() - t0
    _verdict(2, "toroidal grids: width/apex/restriction bounds", ok and elapsed < 5)


def test_criterion_3_clique_sums():
    g1, res, _, _ = planar_pipeline(40)
    ok = True
    # V8 is triangle-free, so <=3-clique sums with it join on edges
    u, v = min(g1.edges)
    gv8, ldv8, _ = clique_sum_compose(
        g1, res.ld, v8_graph(), small_good_provider(v8_graph(), 3), [(u, 0), (v, 1)]
    )
    ok &= validate_tree_decomposition(gv8, ldv8.decomposition).ok
    ok &= validate_layering(gv8, ldv8.layering).ok
    ok &= ldv8.layered_width <= 3
    gk5, ldk5, _ = clique_sum_compose(
        g1, res.ld, k5_graph(), small_good_provider(k5_graph(), 4), [(u, 0), (v, 1)]
    )
    ok &= validate_tree_decomposition(gk5, ldk5.decomposition).ok
    ok &= ldk5.layered_width <= 4
    _verdict(3, "clique-sums: V8 width 3, K5 width 4", ok)


def _separator_fixtures():
    for n in PLANAR_NS:
        g, res, _, _ = planar_pipeline(n)
        yield g, res.ld
    for p, q in TORUS_PQS:
        g, res, _, _ = torus_pipeline(p, q)
        yield g, res.ld
    for k in (2, 3):
        g, _, ld = section2_family(8, k)
        yield g, ld


def test_criterion_4_separators():
    ok = True
    for g, ld in _separator_fixtures():
        sample = frozenset(range(g.n))
        idx, sep = separator_from_decomposition(g, ld.decomposition, sample)
        ok &= validate_separation(g, sep, sample, balance=Fraction(2, 3)).ok
        sep2 = layered_separation(g, ld, sample)
        ok &= validate_separation(g, sep2, sample, balance=Fraction(2, 3)).ok
        widths = separator_layer_widths(sep2, ld.layering)
        ok &= all(w <= ld.layered_width for w in widths.values())
    _verdict(4, "balanced layered separators on all fixtures", ok)


def test_criterion_5_track_layouts():
    ok = True
    for n in PLANAR_NS + (500,):
        g, _, _, tl = planar_pipeline(n)
        ok &= verify_track_layout(g, tl).ok
        ok &= len(tl.tracks) <= 6 * math.ceil(math.log(g.n, 1.5)) + 6
    for p, q in TORUS_PQS:
        g, res, _, tl = torus_pipeline(p, q)
        ok &= verify_track_layout(g, tl).ok
        bound = 6 * res.genus + 9 * (1 + math.log(g.n, 1.5))
        ok &= len(tl.tracks) <= bound
    _verdict(5, "track counts within planar/genus bounds", ok)


def test_criterion_6_queue_layouts():
    ok = True
    for n in PLANAR_NS:
        g, _, _, tl = planar_pipeline(n)
        ql = queue_from_tracks(g, tl)
        ok &= verify_queue_layout(g, ql).ok
        ok &= ql.queue_count <= len(tl.tracks) - 1
    for p, q in TORUS_PQS:
        g, _, _, tl = torus_pipeline(p, q)
        ql = queue_from_tracks(g, tl)
        ok &= verify_queue_layout(g, ql).ok
        ok &= ql.queue_count <= len(tl.tracks) - 1
    _verdict(6, "queue layouts: nesting-free, count < tracks", ok)


def test_criterion_7_nonrepetitive():
    t0 = time.time()
    ok = True
    # exhaustive fixtures (max_path = n): path enumeration is tractable
    # on small triangulations and sparse n <= 40 graphs
    exhaustive = []
    for n in (10, 12, 14):
        g, res, labels, _ = planar_pipeline(n)
        exhaustive.append((g, res.ld.layering, labels, 0))
    g, res, labels, _ = torus_pipeline(3, 3)
    exhaustive.append((g, res.ld.layering, labels, res.genus))
    for g, layering, labels, genus in exhaustive:
        lp = layer_pattern_colouring(len(layering))
        c = nonrep_from_compute(g, layering, labels, lp)
        ok &= verify_proper(g, c).ok
        ok &= verify_nonrepetitive(g, c, max_path=g.n) is None
        scale = lp.symbol_count / 4
        log_term = 1 + math.log(g.n, 1.5)
        bound = 8 * genus + 12 * log_term if genus else 8 * log_term
        ok &= c.palette_size <= scale * bound
    # sparse exhaustive fixture at n = 40
    tree = random_tree(40, seed=0)
    from layersep.graphs import bfs_layering

    layering = bfs_layering(tree, [0])
    bags = tuple(frozenset(e) for e in sorted(tree.edges))
    td = TreeDecomposition(
        bags,
        tuple(
            (next(j for j in range(i) if bags[j] & bags[i]), i)
            for i in range(1, len(bags))
        ),
    )
    from layersep.decomposition import LayeredDecomposition

    labels = compute_recursion(
        tree, layering, LayeredDecomposition(td, layering), mode="separation"
    )
    c = nonrep_from_compute(tree, layering, labels)
    ok &= verify_nonrepetitive(tree, c, max_path=tree.n) is None
    # dense fixtures up to n = 200 at max_path = 10
    for n in (60, 120, 200):
        g, res, labels, _ = planar_pipeline(n)
        lp = layer_pattern_colouring(len(res.ld.layering))
        c = nonrep_from_compute(g, res.ld.layering, labels, lp)
        ok &= verify_proper(g, c).ok
        ok &= verify_nonrepetitive(g, c, max_path=10) is None
        scale = lp.symbol_count / 4
        ok &= c.palette_size <= scale * 8 * (1 + math.log(g.n, 1.5))
    for p, q in ((5, 8), (8, 8)):
        g, res, labels, _ = torus_pipeline(p, q)
        lp = layer_pattern_colouring(len(res.ld.layering))
        c = nonrep_from_compute(g, res.ld.layering, labels, lp)
        ok &= verify_nonrepetitive(g, c, max_path=10) is None
        scale = lp.symbol_count / 4
        bound = 8 * res.genus + 12 * (1 + math.log(g.n, 1.5))
        ok &= c.palette_size <= scale * bound
    elapsed = time.time() - t0
    _verdict(7, "nonrepetitive colourings within palette bounds", ok and elapsed < 60)


def test_criterion_8_shadow():
    ok = True
    fixtures = [
        chordal_fixture(40, 3, 1),
        chordal_fixture(80, 4, 2),
        planar_torso(),
    ]
    for g, rd in fixtures:
        k = rd.richness
        sl = rich_shadow_layering(g, rd)
        ok &= validate_shadow_layering(g, rd, sl).ok
        ok &= verify_shadow_complete(g, sl.layering, k).ok
        ok &= all(pl.richness <= k - 1 for pl in sl.per_layer)
    _verdict(8, "shadow-complete layerings from rich decompositions", ok)


def _checked(art, bound, failures):
    """The artifact's compose, recording every level whose result exceeds
    ``bound(layering, parts, k)``."""

    def compose(g, layering, parts, k):
        out = art.compose(g, layering, parts, k)
        got, cap = bound(layering, parts, k, out)
        if got > cap:
            failures.append((got, cap, k))
        return out

    return dataclasses.replace(art, compose=compose)


def _track_bound(layering, parts, k, out):
    c = max((len(tl.tracks) for tl in parts), default=1)
    return len(out.tracks), 3 * c ** (k + 1)


def _colour_bound(layering, parts, k, out):
    # per-level factor is the symbol count of the layer word's prefix,
    # which has at most 4 symbols
    cmax = max((c.palette_size for c in parts), default=1)
    symbols = layer_pattern_colouring(len(layering)).symbol_count
    return out.palette_size, min(symbols, 4) * cmax


def test_criterion_9_recursive_drivers():
    ok = True
    leaf = (_TRACKS.leaf, _COLOURS.leaf)
    cases = [
        (chordal_fixture(40, 3, 3), *leaf),
        (chordal_fixture(70, 4, 4), *leaf),
        (planar_torso(), planar_track_solver, planar_colour_solver),
    ]
    for (g, rd), tsolver, csolver in cases:
        failures: list = []
        plan = _plan(g, rd)
        tl = _fold(plan, tsolver, _checked(_TRACKS, _track_bound, failures))
        ok &= verify_track_layout(g, tl).ok
        c = _fold(plan, csolver, _checked(_COLOURS, _colour_bound, failures))
        ok &= verify_proper(g, c).ok
        ok &= verify_nonrepetitive(g, c, max_path=10) is None
        ok &= not failures
    _verdict(9, "recursive drivers meet per-level bounds", ok)


def test_criterion_10_3d_drawings():
    t0 = time.time()
    ok = True
    layouts = [planar_pipeline(n)[::3] for n in PLANAR_NS]
    layouts += [torus_pipeline(p, q)[::3] for p, q in TORUS_PQS]
    for g, tl in layouts:
        d = draw_from_tracks(g, tl)
        ok &= verify_drawing(g, d).ok
        t = len(tl.tracks)
        ok &= d.volume <= 4 * t * t * g.n
    elapsed = time.time() - t0
    _verdict(10, "crossing-free 3d drawings within 4t^2 n", ok and elapsed < 10)


def test_criterion_11_treewidth():
    ok = True
    for n in (30, 60, 120):
        g, res, _, _ = planar_pipeline(n)
        td = norin_treewidth(g, res.ld)
        ok &= validate_tree_decomposition(g, td).ok
        ok &= td.width <= 2 * math.sqrt(res.ld.layered_width * g.n)
    from layersep.generators import complete_graph, cycle_graph, grid_graph

    ok &= exact_treewidth(grid_graph(3, 3)) == 3
    ok &= exact_treewidth(complete_graph(4)) == 3
    ok &= exact_treewidth(cycle_graph(5)) == 2
    for n in (10, 14, 16):
        eg = random_planar_triangulation(n, seed=1)
        g = eg.to_graph()
        res = genus_layered_decomposition(eg, (0,))
        ok &= exact_treewidth(g) <= res.ld.decomposition.width
    _verdict(11, "treewidth: sqrt bound and exact oracle agree", ok)


def test_criterion_12_edge_bound():
    ok = True
    for g, ld in _separator_fixtures():
        k = max(ld.layered_width, 1)
        ok &= len(g.edges) <= (3 * k - 1) * g.n
    # near-extremal family: deficit (2k-1)p + k(k-1)(3p-2)/2 <= 5k*sqrt(n)
    # for the tested k in {2, 3}, so the window constant is C = 5
    for p in (6, 8, 10, 12):
        for k in (2, 3):
            g, _, ld = section2_family(p, k)
            n, m = g.n, len(g.edges)
            ok &= ld.layered_width == k
            ok &= m <= (3 * k - 1) * n
            ok &= m >= (3 * k - 2) * n - 5 * k * math.isqrt(n)
    _verdict(12, "edge bounds and extremal band", ok)

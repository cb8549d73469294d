"""Shared pipeline helpers; cached so suites reuse expensive fixtures."""

from functools import lru_cache

from hypothesis import strategies as st

from layersep.decomposition import TreeDecomposition
from layersep.embedding import embed_planar
from layersep.generators import (
    random_chordal_with_decomposition,
    random_planar_triangulation,
    toroidal_grid,
)
from layersep.graphs import Graph
from layersep.layouts import TrackLayout, pipeline, track_layout_from_compute
from layersep.nonrep import Colouring, nonrep_from_compute
from layersep.shadow import _COLOURS, _TRACKS, RichDecomposition


def _with_tracks(eg):
    g, res, labels, _ = pipeline(eg)
    return g, res, labels, track_layout_from_compute(g, res.ld.layering, labels)


@lru_cache(maxsize=None)
def planar_pipeline(n: int, seed: int = 5):
    """(graph, genus result, recursion labels, track layout) for a seeded
    planar triangulation."""
    return _with_tracks(random_planar_triangulation(n, seed=seed))


@lru_cache(maxsize=None)
def torus_pipeline(p: int, q: int):
    return _with_tracks(toroidal_grid(p, q))


def root_path(parent, v):
    """The vertices from v up to the root of a parent list in which the
    root is its own parent."""
    path = [v]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return frozenset(path)


# random planar triangulations and toroidal grids
embedded_graphs = st.one_of(
    st.builds(random_planar_triangulation, st.integers(3, 150), st.integers(0, 10**6)),
    st.builds(toroidal_grid, st.integers(3, 9), st.integers(3, 9)),
)


# ---------------------------------------------------------------------------
# Rich decompositions and bag solvers for the shadow drivers.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chordal_fixture(n: int, k: int, seed: int):
    g, td = random_chordal_with_decomposition(n, seed=seed, max_clique=k)
    return g, RichDecomposition(td)


@lru_cache(maxsize=None)
def planar_torso(blocks: int = 4, n: int = 12, seed0: int = 0):
    """Chain of planar triangulations glued on shared edges; bags are the
    block vertex sets, so the decomposition is 2-rich."""
    edges: list[tuple[int, int]] = []
    bags = []
    glue = None
    total = 0
    for b in range(blocks):
        block = random_planar_triangulation(n, seed=seed0 + b).to_graph()
        if glue is None:
            vmap = {v: v for v in range(n)}
            total = n
        else:
            vmap = {0: glue[0], 1: glue[1]}
            for w in range(2, n):
                vmap[w] = total
                total += 1
        for a, c in block.edges:
            edges.append((min(vmap[a], vmap[c]), max(vmap[a], vmap[c])))
        bags.append(frozenset(vmap.values()))
        cand = max(block.edges)
        glue = (vmap[cand[0]], vmap[cand[1]])
    g = Graph.from_edges(total, set(edges))
    td = TreeDecomposition(tuple(bags), tuple((i, i + 1) for i in range(blocks - 1)))
    return g, RichDecomposition(td)


def _per_component(g: Graph, art, solve_connected):
    """Run a solver for connected planar graphs on each component of G."""
    parts = []
    for comp in sorted(g.components(), key=min):
        sub, to_new = g.induced(sorted(comp))
        parts.append(art.relabel(solve_connected(sub), {j: v for v, j in to_new.items()}))
    return art.merge(parts)


def _planar_tracks(g: Graph) -> TrackLayout:
    _, res, labels, _ = pipeline(embed_planar(g))
    return track_layout_from_compute(g, res.ld.layering, labels)


def _planar_colours(g: Graph) -> Colouring:
    _, res, labels, _ = pipeline(embed_planar(g))
    return nonrep_from_compute(g, res.ld.layering, labels)


def planar_track_solver(g: Graph) -> TrackLayout:
    if g.n <= 1:
        return TrackLayout(tuple((v,) for v in g.vertices()))
    return _per_component(g, _TRACKS, _planar_tracks)


def planar_colour_solver(g: Graph) -> Colouring:
    if g.n <= 1:
        return Colouring({v: 0 for v in g.vertices()})
    return _per_component(g, _COLOURS, _planar_colours)


def clique_track_solver(g: Graph) -> TrackLayout:
    """0-rich pieces are disjoint cliques: i-th vertex of each clique on
    track i; components stay contiguous so no crossings arise."""
    comps = sorted(g.components(), key=min)
    width = max((len(c) for c in comps), default=1)
    tracks: list[list[int]] = [[] for _ in range(width)]
    for comp in comps:
        for i, v in enumerate(sorted(comp)):
            tracks[i].append(v)
    return TrackLayout(tuple(tuple(t) for t in tracks))


def clique_colour_solver(g: Graph) -> Colouring:
    colour = {}
    for comp in sorted(g.components(), key=min):
        for i, v in enumerate(sorted(comp)):
            colour[v] = i
    return Colouring(colour)

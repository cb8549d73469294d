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
from layersep.graphs import Graph, GraphInputError
from layersep.layouts import TrackLayout, pipeline, track_layout_from_compute
from layersep.nonrep import Colouring, nonrep_from_compute
from layersep.shadow import RichDecomposition


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


@st.composite
def small_graphs(draw, most: int = 12):
    """A simple graph on 1..``most`` vertices with any edge set."""
    n = draw(st.integers(1, most))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


def read_or_reject(read, judge, text: str):
    """``judge(read(text))``, or None if reading or judging raises
    ``GraphInputError``; any other exception escapes."""
    try:
        return judge(read(text))
    except GraphInputError:
        return None


def changed_text(data, text: str, tokens) -> str:
    """``text`` with one change drawn from ``data``: a token replaced by
    one of ``tokens`` or dropped, or a line dropped, repeated, swapped
    with another or added from ``tokens``.  ``text`` has a line."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    change = data.draw(st.sampled_from(("token", "drop_token", "drop_line", "copy_line",
                                        "swap_lines", "new_line")))
    words = lines[i].split()
    if change == "token" and words:
        words[data.draw(st.integers(0, len(words) - 1))] = data.draw(st.sampled_from(tokens))
        lines[i] = " ".join(words)
    elif change == "drop_token" and words:
        del words[data.draw(st.integers(0, len(words) - 1))]
        lines[i] = " ".join(words)
    elif change == "drop_line":
        del lines[i]
    elif change == "copy_line":
        lines.insert(i, lines[i])
    elif change == "swap_lines":
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[k] = lines[k], lines[i]
    else:
        lines.insert(i, " ".join(data.draw(st.lists(st.sampled_from(tokens), max_size=5))))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rich decompositions and planar leaf solvers for the shadow drivers.
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


def planar_track_solver(g: Graph) -> TrackLayout:
    """Tracks of the planar pipeline, as a leaf solver for the shadow
    drivers: their leaves are connected, so it needs no component split."""
    _, res, labels, _ = pipeline(embed_planar(g))
    return track_layout_from_compute(g, res.ld.layering, labels)


def planar_colour_solver(g: Graph) -> Colouring:
    _, res, labels, _ = pipeline(embed_planar(g))
    return nonrep_from_compute(g, res.ld.layering, labels)

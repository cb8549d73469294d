"""Shared pipeline helpers; cached so suites reuse expensive fixtures."""

from functools import lru_cache

from hypothesis import strategies as st

from layersep.decomposition import genus_layered_decomposition
from layersep.generators import random_planar_triangulation, toroidal_grid
from layersep.layouts import compute_recursion, track_layout_from_compute


@lru_cache(maxsize=None)
def planar_pipeline(n: int, seed: int = 5):
    """(graph, genus result, recursion labels, track layout) for a seeded
    planar triangulation."""
    eg = random_planar_triangulation(n, seed=seed)
    g = eg.to_graph()
    res = genus_layered_decomposition(eg, (0,))
    labels = compute_recursion(
        g, res.ld.layering, res.ld, q=tuple(res.apex_paths), mode="separation"
    )
    tl = track_layout_from_compute(g, res.ld.layering, labels)
    return g, res, labels, tl


@lru_cache(maxsize=None)
def torus_pipeline(p: int, q: int):
    eg = toroidal_grid(p, q)
    g = eg.to_graph()
    res = genus_layered_decomposition(eg, (0,))
    labels = compute_recursion(
        g, res.ld.layering, res.ld, q=tuple(res.apex_paths), mode="separation"
    )
    tl = track_layout_from_compute(g, res.ld.layering, labels)
    return g, res, labels, tl


# random planar triangulations and toroidal grids
embedded_graphs = st.one_of(
    st.builds(random_planar_triangulation, st.integers(3, 150), st.integers(0, 10**6)),
    st.builds(toroidal_grid, st.integers(3, 9), st.integers(3, 9)),
)

"""Seeded graph family generators.

All randomness flows through a 64-bit linear congruential generator with
the fixed constants a = 6364136223846793005, c = 1442695040888963407
(Knuth's MMIX multiplier), so every family regenerates byte-identically
from its seed on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .embedding import EmbeddedGraph, _rotation_from_faces
from .graphs import Graph, GraphInputError, Layering


class Lcg:
    """Deterministic 64-bit linear congruential generator."""

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK

    def next(self) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state

    def randrange(self, k: int) -> int:
        """Uniform integer in [0, k) from the top 32 bits."""
        if k <= 0:
            raise ValueError("randrange needs a positive bound")
        return (self.next() >> 32) % k

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


# ---------------------------------------------------------------------------
# Deterministic families.
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


def grid_plus_apex(rows: int, cols: int) -> Graph:
    g = grid_graph(rows, cols)
    apex = g.n
    edges = set(g.edges) | {(v, apex) for v in range(g.n)}
    return Graph.from_edges(g.n + 1, edges)


def v8_graph() -> Graph:
    """The 8-cycle plus the four long diagonals (3-good, triangle-free)."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    return Graph.from_edges(8, edges)


def k5_graph() -> Graph:
    return complete_graph(5)


def k33_graph() -> Graph:
    return Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])


def section2_family(p: int, k: int) -> tuple[Graph, Layering, "TreeDecompositionLike"]:
    """The near-extremal family for the edge bound.

    Vertices are grid points (x, y) with x, y in 0..p-1; two points are
    adjacent when their rows differ by at most 1 and their columns by at
    most k-1.  Rows form the layering; bags are k consecutive columns
    (all rows), strung on a path.  Layered width is exactly k and the
    edge count is (3k-2)n - O(k*sqrt(n)).
    """
    from .decomposition import LayeredDecomposition, TreeDecomposition

    if p < k or k < 1:
        raise GraphInputError("need p >= k >= 1")

    def vid(x: int, y: int) -> int:
        return y * p + x

    edges = set()
    for y in range(p):
        for x in range(p):
            for dy in (0, 1):
                for dx in range(-(k - 1), k):
                    x2, y2 = x + dx, y + dy
                    if (dx, dy) == (0, 0) or not (0 <= x2 < p and 0 <= y2 < p):
                        continue
                    a, b = vid(x, y), vid(x2, y2)
                    edges.add((min(a, b), max(a, b)))
    g = Graph.from_edges(p * p, edges)
    layering = Layering.from_sets(
        [{vid(x, y) for x in range(p)} for y in range(p)]
    )
    bags = tuple(
        frozenset(vid(x2, y) for x2 in range(x, x + k) for y in range(p))
        for x in range(p - k + 1)
    )
    tree = frozenset((i, i + 1) for i in range(len(bags) - 1))
    ld = LayeredDecomposition(TreeDecomposition(bags, tree), layering)
    return g, layering, ld


# ---------------------------------------------------------------------------
# Embedded families.
# ---------------------------------------------------------------------------


def toroidal_grid(p: int, q: int) -> EmbeddedGraph:
    """The p x q torus grid with its quadrangular embedding (Euler
    genus 2).  Requires p, q >= 3 to stay loop- and parallel-free."""
    if p < 3 or q < 3:
        raise GraphInputError("toroidal grid needs p, q >= 3")

    def vid(i: int, j: int) -> int:
        return i * q + j

    edge_list: list[tuple[int, int]] = []
    right: dict[tuple[int, int], int] = {}
    down: dict[tuple[int, int], int] = {}
    for i in range(p):
        for j in range(q):
            right[(i, j)] = len(edge_list)
            edge_list.append((vid(i, j), vid(i, (j + 1) % q)))
    for i in range(p):
        for j in range(q):
            down[(i, j)] = len(edge_list)
            edge_list.append((vid(i, j), vid((i + 1) % p, j)))

    def dart(e: int, tail: int) -> int:
        return 2 * e if edge_list[e][0] == tail else 2 * e + 1

    rotation = []
    for i in range(p):
        for j in range(q):
            v = vid(i, j)
            rotation.append((
                dart(right[(i, j)], v),
                dart(down[(i, j)], v),
                dart(right[(i, (j - 1) % q)], v),
                dart(down[((i - 1) % p, j)], v),
            ))
    eg = EmbeddedGraph(p * q, tuple(edge_list), tuple(rotation))
    if eg.euler_genus != 2:
        raise GraphInputError(
            f"torus embedding produced genus {eg.euler_genus}"
        )
    return eg


def random_planar_triangulation(n: int, seed: int) -> EmbeddedGraph:
    """Stacked planar triangulation: starting from a triangle, insert
    each new vertex into an LCG-chosen face."""
    if n < 3:
        raise GraphInputError("triangulation needs n >= 3")
    rng = Lcg(seed)
    # oriented triangles; both orientations of the starting triangle
    faces: list[tuple[int, int, int]] = [(0, 1, 2), (2, 1, 0)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces.pop(i)
        faces.extend([(a, b, v), (b, c, v), (c, a, v)])
    directed: dict[tuple[int, int], int] = {}
    edge_list: list[tuple[int, int]] = []
    for a, b, c in faces:
        for u, w in ((a, b), (b, c), (c, a)):
            if (u, w) not in directed and (w, u) not in directed:
                directed[(u, w)] = len(edge_list)
                edge_list.append((u, w))

    def dart(u: int, w: int) -> int:
        if (u, w) in directed:
            return 2 * directed[(u, w)]
        return 2 * directed[(w, u)] + 1

    walks = [
        [dart(a, b), dart(b, c), dart(c, a)] for a, b, c in faces
    ]
    eg = _rotation_from_faces(n, edge_list, walks)
    if eg.euler_genus != 0:
        raise GraphInputError("stacked triangulation produced nonzero genus")
    return eg


# ---------------------------------------------------------------------------
# Random families.
# ---------------------------------------------------------------------------


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex i attaches to a uniform earlier
    vertex."""
    if n < 1:
        raise GraphInputError("tree needs n >= 1")
    rng = Lcg(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph.from_edges(n, edges)


def random_chordal(n: int, seed: int, max_clique: int = 4) -> Graph:
    """Random chordal graph built backwards along an elimination order:
    vertex i picks up to max_clique-1 earlier vertices forming a clique
    inside an existing bag."""
    return random_chordal_with_decomposition(n, seed, max_clique)[0]


def random_chordal_with_decomposition(
    n: int, seed: int, max_clique: int = 4
) -> tuple[Graph, "TreeDecomposition"]:
    """Chordal graph plus its clique-tree decomposition (bag of vertex i
    is i with its earlier clique, attached to the bag it grew from)."""
    from .decomposition import TreeDecomposition

    if n < 1:
        raise GraphInputError("chordal graph needs n >= 1")
    rng = Lcg(seed)
    edges: set[tuple[int, int]] = set()
    bags: list[tuple[int, ...]] = [(0,)]
    tree_edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        parent = rng.randrange(len(bags))
        base = list(bags[parent])
        rng.shuffle(base)
        take = base[: rng.randrange(min(len(base), max_clique - 1)) + 1]
        for w in take:
            edges.add((min(v, w), max(v, w)))
        bags.append(tuple(sorted(take + [v])))
        tree_edges.add((parent, len(bags) - 1))
    td = TreeDecomposition(
        tuple(frozenset(b) for b in bags), frozenset(tree_edges)
    )
    return Graph.from_edges(n, edges), td


# ---------------------------------------------------------------------------
# Named fixture registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """Named, seeded test instance with its expected-parameter record."""

    name: str
    graph: Graph
    embedded: Optional[EmbeddedGraph]
    expected: dict
    seed: int


def gen(family: str, size: int, seed: int = 0) -> Fixture:
    """Deterministic fixture by family name.

    Known families: grid, grid_plus_apex, section2 (k=3), section2_k2,
    planar_triangulation, toroidal_grid, random_tree, random_chordal,
    path, cycle, complete, v8, k5, k33.
    """
    if family == "grid":
        g = grid_graph(size, size)
        return Fixture(family, g, None, {"ell": 2, "treewidth": size}, seed)
    if family == "grid_plus_apex":
        g = grid_plus_apex(size, size)
        return Fixture(family, g, None, {"note": "negative fixture"}, seed)
    if family in ("section2", "section2_k2"):
        k = 3 if family == "section2" else 2
        g, layering, ld = section2_family(size, k)
        return Fixture(
            family, g, None,
            {"layered_width": k, "edge_upper": (3 * k - 1) * g.n}, seed,
        )
    if family == "planar_triangulation":
        eg = random_planar_triangulation(size, seed)
        return Fixture(family, eg.to_graph(), eg, {"layered_width": 3, "genus": 0}, seed)
    if family == "toroidal_grid":
        eg = toroidal_grid(size, size)
        return Fixture(family, eg.to_graph(), eg, {"layered_width": 7, "genus": 2}, seed)
    if family == "random_tree":
        return Fixture(family, random_tree(size, seed), None, {"treewidth": 1}, seed)
    if family == "random_chordal":
        g, td = random_chordal_with_decomposition(size, seed)
        return Fixture(family, g, None, {"max_bag": max(len(b) for b in td.bags)}, seed)
    if family == "path":
        return Fixture(family, path_graph(size), None, {"treewidth": 1}, seed)
    if family == "cycle":
        return Fixture(family, cycle_graph(size), None, {"treewidth": 2}, seed)
    if family == "complete":
        return Fixture(family, complete_graph(size), None, {"treewidth": size - 1}, seed)
    if family == "v8":
        return Fixture(family, v8_graph(), None, {"good": 3}, seed)
    if family == "k5":
        return Fixture(family, k5_graph(), None, {"good": 4}, seed)
    if family == "k33":
        return Fixture(family, k33_graph(), None, {}, seed)
    raise GraphInputError(f"unknown fixture family {family!r}")

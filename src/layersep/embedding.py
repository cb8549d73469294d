"""Combinatorial surface embeddings via rotation systems.

An embedded multigraph is stored as a loop-free edge list plus one cyclic
dart order per vertex.  Edge ``e`` owns darts ``2e`` (leaving its first
endpoint) and ``2e+1`` (leaving its second); ``d ^ 1`` reverses a dart.
Faces are the orbits of ``d -> sigma[d ^ 1]`` and the Euler genus of the
embedding follows from Euler's formula.  Only orientable rotation systems
are supported.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .graphs import BfsTree, Graph, GraphInputError


class EmbeddingError(ValueError):
    """Raised for malformed rotation systems or unmet face preconditions."""


@dataclass(frozen=True)
class EmbeddedGraph:
    """Loop-free multigraph with a rotation system."""

    n: int
    edge_list: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        expected: list[list[int]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edge_list):
            if u == v:
                raise EmbeddingError(f"loop at vertex {u} (edge {e})")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise EmbeddingError(f"edge {e}=({u},{v}) out of range")
            expected[u].append(2 * e)
            expected[v].append(2 * e + 1)
        if len(self.rotation) != self.n:
            raise EmbeddingError("rotation must list every vertex")
        for v in range(self.n):
            if sorted(self.rotation[v]) != sorted(expected[v]):
                raise EmbeddingError(
                    f"rotation at vertex {v} does not match its darts"
                )

    @property
    def m(self) -> int:
        return len(self.edge_list)

    def dart_tail(self, d: int) -> int:
        return self.edge_list[d // 2][d & 1]

    @cached_property
    def sigma(self) -> dict[int, int]:
        """Rotation successor of each dart around its tail vertex."""
        succ: dict[int, int] = {}
        for darts in self.rotation:
            for i, d in enumerate(darts):
                succ[d] = darts[(i + 1) % len(darts)]
        return succ

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Face boundary walks as dart cycles (orbits of sigma o alpha)."""
        sigma = self.sigma
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(2 * self.m):
            if start in seen:
                continue
            walk = []
            d = start
            while d not in seen:
                seen.add(d)
                walk.append(d)
                d = sigma[d ^ 1]
            out.append(tuple(walk))
        return tuple(out)

    @cached_property
    def euler_genus(self) -> int:
        comps = self.to_graph().components()
        if len(comps) != 1:
            raise EmbeddingError("embedded graph must be connected")
        if self.m == 0:
            return 0
        g = 2 - (self.n - self.m + len(self.faces))
        if g < 0:
            raise EmbeddingError(f"negative genus {g}: invalid rotation system")
        return g

    def face_of_dart(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, walk in enumerate(self.faces):
            for d in walk:
                out[d] = i
        return out

    def to_graph(self) -> Graph:
        """Underlying simple graph (parallel edges collapsed)."""
        return Graph.from_edges(self.n, self.edge_list)


def _rotation_from_faces(
    n: int,
    edge_list: list[tuple[int, int]],
    face_walks: list[list[int]],
) -> EmbeddedGraph:
    """Rebuild the rotation system from a complete set of face walks."""
    phi: dict[int, int] = {}
    for walk in face_walks:
        for i, d in enumerate(walk):
            phi[d] = walk[(i + 1) % len(walk)]
    if len(phi) != 2 * len(edge_list):
        raise EmbeddingError("face walks do not cover every dart exactly once")
    sigma = {d: phi[d ^ 1] for d in phi}
    darts_at: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edge_list):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    rotation: list[tuple[int, ...]] = []
    for v in range(n):
        if not darts_at[v]:
            rotation.append(())
            continue
        start = min(darts_at[v])
        cyc = [start]
        d = sigma[start]
        while d != start:
            cyc.append(d)
            d = sigma[d]
        if len(cyc) != len(darts_at[v]):
            raise EmbeddingError(
                f"face walks induce a disconnected rotation at vertex {v}"
            )
        rotation.append(tuple(cyc))
    return EmbeddedGraph(n, tuple(edge_list), tuple(rotation))


def _delete_edge(eg: EmbeddedGraph, edge_id: int) -> EmbeddedGraph:
    """Remove one edge from the rotation system (always a valid
    embedding; the genus never increases)."""
    kept = [e for e in range(eg.m) if e != edge_id]
    emap = {e: i for i, e in enumerate(kept)}
    new_edges = tuple(eg.edge_list[e] for e in kept)
    rotation = tuple(
        tuple(2 * emap[d // 2] + (d & 1) for d in darts if d // 2 != edge_id)
        for darts in eg.rotation
    )
    return EmbeddedGraph(eg.n, new_edges, rotation)


def _drop_bigons(eg: EmbeddedGraph) -> EmbeddedGraph:
    """Delete parallel edges bounding faces of length 2.

    The two boundary edges of such a face are parallel, so the
    underlying simple graph is unchanged.
    """
    while True:
        bigon = next((walk for walk in eg.faces if len(walk) == 2), None)
        if bigon is None:
            return eg
        e1, e2 = bigon[0] // 2, bigon[1] // 2
        if e1 == e2:
            raise EmbeddingError("degenerate face bounded by a single edge")
        eg = _delete_edge(eg, max(e1, e2))


def triangulate(eg: EmbeddedGraph) -> EmbeddedGraph:
    """Fan every face of length >= 4 so that all faces become triangles.

    Original edges are preserved up to removal of redundant parallel
    copies, the genus does not increase and parallel edges may be
    introduced.  Faces of length >= 4 are fanned from the corner with
    minimum vertex id whose fan chords produce no loops.
    """
    if eg.n < 3:
        raise EmbeddingError("triangulation needs at least 3 vertices")
    eg = _drop_bigons(eg)
    edge_list = list(eg.edge_list)
    new_walks: list[list[int]] = []
    for walk in eg.faces:
        k = len(walk)
        verts = [eg.dart_tail(d) for d in walk]
        if k == 3:
            new_walks.append(list(walk))
            continue
        if k < 3:
            raise EmbeddingError(
                f"face of length {k} cannot be triangulated without new vertices"
            )
        corner = None
        for r in sorted(range(k), key=lambda i: (verts[i], i)):
            if all(verts[(r + j) % k] != verts[r] for j in range(2, k - 1)):
                corner = r
                break
        if corner is None:
            raise EmbeddingError("no loop-free fan corner on face walk")
        rot_walk = [walk[(corner + j) % k] for j in range(k)]
        rot_verts = [verts[(corner + j) % k] for j in range(k)]
        apex = rot_verts[0]
        chord_fwd: dict[int, int] = {}
        for j in range(2, k - 1):
            e = len(edge_list)
            edge_list.append((apex, rot_verts[j]))
            chord_fwd[j] = 2 * e
        new_walks.append([rot_walk[0], rot_walk[1], chord_fwd[2] ^ 1])
        for j in range(2, k - 2):
            new_walks.append([chord_fwd[j], rot_walk[j], chord_fwd[j + 1] ^ 1])
        new_walks.append([chord_fwd[k - 2], rot_walk[k - 2], rot_walk[k - 1]])
    out = _rotation_from_faces(eg.n, edge_list, new_walks)
    if out.euler_genus != eg.euler_genus:
        raise EmbeddingError("triangulation changed the genus")
    return out


def multigraph_bfs(eg: EmbeddedGraph, roots: Iterable[int]) -> tuple[BfsTree, set[int]]:
    """BFS forest over the multigraph; returns the tree and its edge ids.

    Neighbours are scanned in ascending (vertex, edge id) order.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(eg.n)]
    for e, (u, v) in enumerate(eg.edge_list):
        adj[u].append((v, e))
        adj[v].append((u, e))
    for lst in adj:
        lst.sort()
    roots = sorted(set(roots))
    depth = {r: 0 for r in roots}
    parent: dict[int, Optional[int]] = {r: None for r in roots}
    tree_edges: set[int] = set()
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        for w, e in adj[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                parent[w] = v
                tree_edges.add(e)
                queue.append(w)
    if len(depth) != eg.n:
        missing = min(v for v in range(eg.n) if v not in depth)
        raise GraphInputError(f"vertex {missing} unreachable from roots")
    return BfsTree(frozenset(roots), parent, depth), tree_edges


@dataclass(frozen=True)
class TreeCotree:
    """Primal spanning tree (BFS from the root clique plus a star on it),
    dual spanning tree and the g leftover dual edges."""

    primal_tree: BfsTree
    primal_tree_edges: frozenset[int]
    dual_edges: tuple[tuple[int, int, int], ...]  # (edge id, face1, face2)
    dual_tree_edges: frozenset[int]
    extra_edges: tuple[int, ...]  # X, as primal edge ids

    @property
    def x_size(self) -> int:
        return len(self.extra_edges)


def tree_cotree(eg: EmbeddedGraph, roots: Iterable[int]) -> TreeCotree:
    """Split the edges of a triangulation into a primal spanning tree, a
    dual spanning tree and exactly ``genus`` leftover edges.

    ``roots`` is a clique K.  The primal tree is the BFS forest grown from
    K plus a star joining the least root to every other root (by the least
    edge id), so depth is the distance from K and every root path ends at
    the least root.  The split works for any spanning tree, since the
    edges off it always hold a dual spanning tree and ``genus`` more.
    """
    for walk in eg.faces:
        if len(walk) != 3:
            raise EmbeddingError(
                f"tree_cotree requires a triangulation; face of length {len(walk)}"
            )
    forest, tree_edge_ids = multigraph_bfs(eg, roots)
    root = min(forest.roots)
    star: dict[int, int] = {}
    for e, (u, v) in enumerate(eg.edge_list):
        other = v if u == root else u if v == root else None
        if other in forest.roots:
            star.setdefault(other, e)
    if len(star) != len(forest.roots) - 1:
        raise GraphInputError("root set is not a clique")
    tree_edge_ids |= set(star.values())
    primal_tree = BfsTree(
        forest.roots, {**forest.parent, **dict.fromkeys(star, root)}, forest.depth
    )
    face_of = eg.face_of_dart()
    dual_edges = tuple(
        (e, face_of[2 * e], face_of[2 * e + 1])
        for e in range(eg.m)
        if e not in tree_edge_ids
    )
    # BFS spanning tree of the dual, rooted at the least face incident to
    # the least root.
    root_face = min(face_of[d] for d in eg.rotation[root])
    dual_adj: dict[int, list[tuple[int, int]]] = {
        f: [] for f in range(len(eg.faces))
    }
    for e, f1, f2 in dual_edges:
        if f1 != f2:
            dual_adj[f1].append((f2, e))
            dual_adj[f2].append((f1, e))
    for lst in dual_adj.values():
        lst.sort()
    seen = {root_face}
    dual_tree: set[int] = set()
    queue = deque([root_face])
    while queue:
        f = queue.popleft()
        for f2, e in dual_adj[f]:
            if f2 not in seen:
                seen.add(f2)
                dual_tree.add(e)
                queue.append(f2)
    if len(seen) != len(eg.faces):
        raise EmbeddingError("dual graph disconnected: invalid triangulation")
    extra = tuple(sorted(e for e, _, _ in dual_edges if e not in dual_tree))
    tc = TreeCotree(
        primal_tree,
        frozenset(tree_edge_ids),
        dual_edges,
        frozenset(dual_tree),
        extra,
    )
    if tc.x_size != eg.euler_genus:
        raise EmbeddingError(
            f"|X|={tc.x_size} does not equal genus {eg.euler_genus}"
        )
    return tc


def embed_planar(g: Graph) -> EmbeddedGraph:
    """Planar rotation system for a connected planar simple graph."""
    import networkx as nx

    if g.n == 0:
        raise EmbeddingError("cannot embed the empty graph")
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices())
    nxg.add_edges_from(g.edges)
    ok, emb = nx.check_planarity(nxg)
    if not ok:
        raise EmbeddingError("graph is not planar")
    edge_ids = {e: i for i, e in enumerate(sorted(g.edges))}
    edge_list = sorted(g.edges)
    rotation: list[tuple[int, ...]] = []
    for v in g.vertices():
        nbrs = list(emb.neighbors_cw_order(v)) if g.degree(v) else []
        darts = []
        for w in nbrs:
            e = edge_ids[(min(v, w), max(v, w))]
            darts.append(2 * e if edge_list[e][0] == v else 2 * e + 1)
        rotation.append(tuple(darts))
    eg = EmbeddedGraph(g.n, tuple(edge_list), tuple(rotation))
    if eg.euler_genus != 0:
        raise EmbeddingError("planar embedding produced nonzero genus")
    return eg


# ---------------------------------------------------------------------------
# Rotation-system text format: "n m g", then m lines "e u v", then n lines
# with each vertex's incident edge ids in rotation order.
# ---------------------------------------------------------------------------


def parse_rotation_system(text: str) -> EmbeddedGraph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GraphInputError("empty rotation-system file")
    head = lines[0].split()
    if len(head) not in (2, 3):
        raise GraphInputError(f"bad header {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    declared_g = int(head[2]) if len(head) == 3 else None
    if len(lines) != 1 + m + n:
        raise GraphInputError(
            f"expected {1 + m + n} lines, got {len(lines)}"
        )
    edge_list: list[tuple[int, int]] = [(-1, -1)] * m
    for ln in lines[1:1 + m]:
        e, u, v = map(int, ln.split())
        if not 0 <= e < m or edge_list[e] != (-1, -1):
            raise GraphInputError(f"bad or duplicate edge id in {ln!r}")
        edge_list[e] = (u, v)
    rotation: list[tuple[int, ...]] = []
    for v, ln in enumerate(lines[1 + m:]):
        darts = []
        for tok in ln.split():
            e = int(tok)
            if not 0 <= e < m:
                raise GraphInputError(f"edge id {e} out of range")
            u, w = edge_list[e]
            if v == u:
                darts.append(2 * e)
            elif v == w:
                darts.append(2 * e + 1)
            else:
                raise GraphInputError(f"edge {e} not incident to vertex {v}")
        rotation.append(tuple(darts))
    eg = EmbeddedGraph(n, tuple(edge_list), tuple(rotation))
    if declared_g is not None and eg.euler_genus != declared_g:
        raise GraphInputError(
            f"declared genus {declared_g} != embedding genus {eg.euler_genus}"
        )
    return eg


def format_rotation_system(eg: EmbeddedGraph) -> str:
    lines = [f"{eg.n} {eg.m} {eg.euler_genus}"]
    for e, (u, v) in enumerate(eg.edge_list):
        lines.append(f"{e} {u} {v}")
    for v in range(eg.n):
        lines.append(" ".join(str(d // 2) for d in eg.rotation[v]))
    return "\n".join(lines) + "\n"
